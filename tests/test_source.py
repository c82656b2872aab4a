"""Limits on the package's own source files."""

from __future__ import annotations

import tokenize
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "bipkit"

# CPython's parser keeps a module's tokens in one array that doubles as it
# fills, so a module past 8,192 parser tokens costs more to compile than one
# under.  tokenize counts them as the running version's parser does: from
# 3.12 on (PEP 701) both split each f-string into its parts, so a module
# counts a few hundred more there, and each Python the tests run on checks
# its own count.  The largest module is engine.py: 7,163 tokens on CPython
# 3.10.13 and 3.11.7, 7,501 on 3.12.1 and 3.13.0.  Compiled without a
# bytecode cache, with tracemalloc around compile(), it peaks at 2.64 MB on
# 3.11.7 and 2.93 MB on 3.12.1.
MAX_TOKENS = 8192


def parser_tokens(path: Path) -> int:
    """The tokens the parser reads: comments, non-logical newlines and the
    encoding marker are left out."""
    with path.open("rb") as source:
        return sum(token.type not in (tokenize.COMMENT, tokenize.NL, tokenize.ENCODING)
                   for token in tokenize.tokenize(source.readline))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_each_module_is_under_the_parser_token_doubling(path):
    assert parser_tokens(path) < MAX_TOKENS, path.name


def test_the_modules_are_found():
    # an empty parameter list would skip the test above, not fail it
    assert (SRC / "engine.py").is_file()
