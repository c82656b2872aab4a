"""Fuzz the command-line input boundary: whatever the model, binding, event
script, sweep spec or BIPKIT_MAX_NODES, ``cli.main`` returns a documented
exit code (0-4) and raises nothing."""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import sys
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bipkit import bundled_model_path, load_bundled_model
from bipkit.cli import main

MODELS = {path.name: path.read_text(encoding="utf-8")
          for path in sorted(bundled_model_path("mutex.bip").parent.glob("*.bip"))}
PARAMETERS = {name: sorted(load_bundled_model(name).parameters) for name in MODELS}

# Pieces of model syntax to splice in.  None holds a digit, so a mutation
# cannot grow a cardinality beyond what a replacement below sets.  The last
# is a 5,000-letter identifier, which a parse error echoes only in part.
TOKENS = ["{", "}", "(", ")", "[", "]", "->", ":", "*", "!", "&&", "||", ",", ";", "..",
          "motif", "component", "ports", "states", "transitions", "guards", "events",
          "synchron", "trigger", "diagram", "x", "n", "#", "\"", "/*", "\n", "é", "y" * 5000]
# The last has more digits than int() converts.
CARDINALITIES = ["0", "1", "2", "5", "n", "n1", "m", "-1", "x", "n+1", "", "9" * 5000]


@st.composite
def models(draw) -> tuple[bytes, list[str]]:
    """A bundled model and its parameters; the model maybe with a few
    mutations: a cardinality replaced, a span deleted, a line dropped or
    doubled, a token spliced in, a guard of 1,000-3,000 nested or chained
    operators added to a transition, or a byte that is no UTF-8."""
    name = draw(st.sampled_from(sorted(MODELS)))
    text = MODELS[name]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 1, 2, 3]))):
        kind = draw(st.sampled_from(["cardinality", "cardinality", "delete", "line", "splice",
                                     "deep", "byte"]))
        if kind == "cardinality":
            spans = [m.span(1) for m in re.finditer(r"\[([^\]]*)\]", text)]
            if spans:
                start, end = draw(st.sampled_from(spans))
                text = text[:start] + draw(st.sampled_from(CARDINALITIES)) + text[end:]
        elif kind == "delete":
            start = draw(st.integers(0, len(text)))
            text = text[:start] + text[start + draw(st.integers(1, 12)):]
        elif kind == "line":
            lines = text.split("\n")
            k = draw(st.integers(0, len(lines) - 1))
            lines[k:k + 1] = [] if draw(st.booleans()) else [lines[k], lines[k]]
            text = "\n".join(lines)
        elif kind == "splice":
            at = draw(st.integers(0, len(text)))
            text = text[:at] + draw(st.sampled_from(TOKENS)) + text[at:]
        elif kind == "deep":
            spots = [m.end() for m in re.finditer(r"->\s*\w+", text)]
            if spots:
                at = draw(st.sampled_from(spots))
                run = draw(st.sampled_from(["(", "!", "x & "])) * draw(st.integers(1000, 3000))
                text = text[:at] + f" [{run}x]" + text[at:]
        else:
            at = draw(st.integers(0, len(text)))
            return text[:at].encode() + b"\xff" + text[at:].encode(), PARAMETERS[name]
    return text.encode(), PARAMETERS[name]


# Malformed or misnamed --bind values.
BAD_BINDS = st.one_of(
    st.builds("{}={}".format, st.sampled_from(["n", "n1", "n2", "m", "typo", ""]),
              st.one_of(st.integers(-2, 5).map(str), st.sampled_from(["", "x", "1.5"]))),
    st.sampled_from(["n", "=", "n==2", " n=2"]),
)


@st.composite
def bindings(draw, parameters: list[str]) -> list[str]:
    """Mostly every parameter bound to 0..5, sometimes with one left out or
    a bad pair added."""
    pairs = [f"{name}={draw(st.integers(0, 5))}" for name in parameters]
    if draw(st.integers(0, 3)) == 0:
        pairs = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else pairs
        pairs += draw(st.lists(BAD_BINDS, max_size=2))
    return pairs


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.text(max_size=6),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(
        st.sampled_from(["schema", "cycles", "events", "guards", "target", "event", "guard",
                         "value"]),
        children, max_size=4,
    ),
    max_leaves=12,
)
TARGETS = st.sampled_from(["Route#1", "Route#3", "Route#0", "Monitor#1", "Process#2",
                           "Manager#1", "S#1", "Nope#1", "Route#x", ""])
SCRIPT_ENTRIES = st.fixed_dictionaries({
    "events": st.lists(st.fixed_dictionaries({
        "target": TARGETS, "event": st.sampled_from(["end", "go", "nope"])}), max_size=2),
    "guards": st.lists(st.fixed_dictionaries({
        "target": TARGETS, "guard": st.sampled_from(["finished", "nope"]),
        "value": st.booleans()}), max_size=2),
})

# Event script file contents: malformed JSON or a number of more digits
# than int() converts, JSON of the wrong shape or types, or well-formed
# scripts naming good and bad targets, guards and events.
SCRIPTS = st.one_of(
    st.sampled_from([b"", b"{", b"[1,", b"nul", b'{"schema": 1, "cycles": [}', b"\xff\xfe",
                     b'{"schema": 1, "cycles": [' + b"9" * 5000 + b"]}"]),
    st.text(max_size=20).map(lambda text: text.encode("utf-8", "surrogatepass")),
    JSON_VALUES.map(lambda value: json.dumps(value).encode()),
    st.integers(2500, 3500).map(
        lambda depth: b'{"schema": 1, "cycles": ' + b"[" * depth + b"]" * depth + b"}"),
    st.builds(lambda schema, cycles: json.dumps({"schema": schema, "cycles": cycles}).encode(),
              st.sampled_from([1, 1, 1, 2, "1"]), st.lists(SCRIPT_ENTRIES, max_size=4)),
)

SWEEPS = st.one_of(
    st.builds("n,m,d<={}".format, st.integers(-1, 2)),
    st.sampled_from(["n,m,d <= 1", "n,m,d<=", "n,m,d<=x", "n,m<=1", "", "bogus"]),
)

MAX_NODES = st.one_of(st.none(), st.integers(1, 2000).map(str),
                      st.sampled_from(["0", "-3", "abc", "", "1e3"]))

# Mostly in range: --cycles up to 20, --limit up to 5; or one past sys.maxsize.
NUMBERS = st.one_of(st.integers(0, 20).map(str), st.integers(0, 20).map(str),
                    st.sampled_from(["-2", "-1", "x", ""]), st.just(str(sys.maxsize + 1)))


@st.composite
def invocations(draw, workdir: Path) -> list[str]:
    """The argv of one command on a fuzzed model, with its files written
    under workdir."""
    command = draw(st.sampled_from(["check", "instantiate", "encode", "run", "oracle",
                                    "oracle --sweep"]))
    if command == "oracle --sweep":
        argv = ["oracle", "--sweep", draw(SWEEPS)]
        if draw(st.integers(0, 3)) == 0:
            argv += draw(st.sampled_from([["--json"], ["--bind", "n=1"], ["--limit", "3"]]))
        return argv
    text, parameters = draw(models())
    model = workdir / "model.bip"
    model.write_bytes(text)
    argv = [command, str(model)]
    for pair in draw(bindings(parameters)):
        argv += ["--bind", pair]
    out = ["--out", str(workdir / "out"), "--force"]
    if command in ("check", "instantiate") and draw(st.booleans()):
        argv.append("--json")
    if command in ("instantiate", "oracle") and draw(st.booleans()):
        argv += ["--limit", draw(st.one_of(st.integers(1, 5).map(str), NUMBERS))]
    if command == "encode":
        argv += ["--format", draw(st.sampled_from(["macros", "xml", "behavior-json"])), *out]
    if command == "run":
        argv += ["--cycles", draw(NUMBERS), "--seed", draw(st.integers(0, 2**64).map(str)),
                 "--policy", draw(st.sampled_from(["uniform-random", "lexicographic-first"])),
                 "--source", draw(st.sampled_from(["diagram", "macros"])), *out]
        if draw(st.booleans()):
            script = workdir / "script.json"
            script.write_bytes(draw(SCRIPTS))
            argv += ["--events", str(script)]
    return argv


@given(st.data(), MAX_NODES)
@settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_main_returns_a_documented_exit_code_on_any_input(data, max_nodes):
    with tempfile.TemporaryDirectory() as tmp:
        argv = data.draw(invocations(Path(tmp)), label="argv")
        env = {} if max_nodes is None else {"BIPKIT_MAX_NODES": max_nodes}
        out, err = io.StringIO(), io.StringIO()
        with mock.patch.dict(os.environ, env), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            if max_nodes is None:
                os.environ.pop("BIPKIT_MAX_NODES", None)
            code = main(argv)
    assert code in (0, 1, 2, 3, 4), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()
