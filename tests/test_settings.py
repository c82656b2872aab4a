"""The test suite's own settings, run in a child pytest."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CHILD = '''
from hypothesis import given, settings, strategies as st


@given(st.integers())
@settings(database=None)
def test_a_failing_property(x):
    assert x < 0


def test_a_plain_test():
    pass
'''


def test_a_failing_property_test_hides_no_later_test(tmp_path):
    """Under the suite's warning filters, a failing Hypothesis test is
    reported as one failure and the tests after it still run: the report
    of a failing property must not end the session."""
    path = tmp_path / "test_child.py"
    path.write_text(CHILD, encoding="utf-8")
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"), "-p",
         "no:cacheprovider", "-q", str(path)],
        capture_output=True, text=True, cwd=tmp_path)
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert "1 failed, 1 passed" in result.stdout
    assert result.returncode == 1
