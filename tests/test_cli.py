"""Command-line behavior: exit codes, outputs, and file handling."""

from __future__ import annotations

import hashlib
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from bipkit import bundled_model_path, cli, load_bundled_model, replay_validate
from bipkit.cli import main
from bipkit.dsl import serialize_model


def model_path(name: str) -> str:
    return str(bundled_model_path(name))


def write_model(tmp_path, name: str, text: str) -> str:
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_version(capsys):
    assert main(["--version"]) == 0
    assert capsys.readouterr().out.startswith("bipkit ")


def test_check_not_encodable(capsys):
    code = main(["check", model_path("ambiguous_pairing.bip"), "--bind", "n=2"])
    out = capsys.readouterr().out
    assert code == 1
    assert "s=2, required 4" in out
    assert "not encodable" in out


def test_check_encodable(capsys):
    code = main(["check", model_path("complete_pairing.bip"), "--bind", "n=2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "encodable" in out


def test_check_validation_failure(tmp_path, capsys):
    path = write_model(
        tmp_path,
        "broken.bip",
        """
diagram Broken {
  component T [1] {
    ports { p }
    states { a*, b* }
    transitions { p: a -> b }
  }
}
""",
    )
    code = main(["check", path])
    out = capsys.readouterr().out
    assert code == 1
    assert "MULTIPLE_INITIAL_STATES" in out


def test_check_zero_initial_states(tmp_path, capsys):
    path = write_model(
        tmp_path,
        "noinit.bip",
        """
diagram NoInit {
  component T [1] {
    ports { p }
    states { a }
    transitions { p: a -> a }
  }
}
""",
    )
    assert main(["check", path]) == 1
    assert "NO_INITIAL_STATE" in capsys.readouterr().out


def test_check_parse_error(tmp_path, capsys):
    path = write_model(tmp_path, "bad.bip", "diagram {")
    assert main(["check", path]) == 2
    err = capsys.readouterr().err
    assert "expected" in err and ":1:" in err


def test_check_partial_binding_is_usage_error(capsys):
    code = main(["check", model_path("broadcast_pair.bip"), "--bind", "n1=1"])
    assert code == 4
    assert "n2" in capsys.readouterr().err


def test_encode_partial_binding_is_usage_error(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["encode", model_path("broadcast_pair.bip"), "--bind", "n1=1",
                 "--format", "macros", "--out", str(out)])
    assert code == 4
    assert capsys.readouterr() == (
        "", "bipkit: error: unbound parameters: n2 (use --bind name=value)\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("binding", [["typo=3"], ["n=2", "typo=3"]], ids=" ".join)
@pytest.mark.parametrize(
    "command",
    [
        ["check"],
        ["instantiate"],
        ["encode", "--format", "macros"],
        ["run", "--cycles", "3"],
        ["oracle"],
    ],
    ids=" ".join,
)
def test_unknown_parameter_is_a_usage_error(tmp_path, capsys, command, binding):
    name, *rest = command
    if name in ("encode", "run"):
        rest += ["--out", str(tmp_path / "out")]
    binds = [arg for pair in binding for arg in ("--bind", pair)]
    assert main([name, model_path("star.bip"), *rest, *binds]) == 4
    assert capsys.readouterr() == (
        "", "bipkit: error: unknown parameters: typo (the model's parameters: n)\n"
    )
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", [["check"], ["run", "--cycles", "3"]], ids=" ".join)
def test_a_parameter_bound_twice_is_a_usage_error(tmp_path, capsys, command):
    name, *rest = command
    if name == "run":
        rest += ["--out", str(tmp_path / "out")]
    assert main([name, model_path("mutex.bip"), *rest, "--bind", "n=2", "--bind", "n=3"]) == 4
    assert capsys.readouterr() == ("", "bipkit: error: --bind n: given more than once\n")
    assert not (tmp_path / "out").exists()


def test_importing_the_cli_leaves_out_the_network_modules():
    # xml.sax.saxutils imports urllib.request; only emit_xml needs it
    src = str(Path(cli.__file__).parents[1])
    probe = ("import sys, bipkit.cli; "
             "print([m for m in ('urllib.request', 'http.client', 'email') if m in sys.modules])")
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": src}, check=True)
    assert result.stdout == "[]\n"


def test_python_m_bipkit_runs_the_cli():
    src = str(Path(cli.__file__).parents[1])
    result = subprocess.run([sys.executable, "-m", "bipkit", "--version"], capture_output=True,
                            text=True, env={**os.environ, "PYTHONPATH": src})
    assert (result.returncode, result.stdout) == (0, "bipkit 0.1.0\n")


def test_check_json(capsys):
    code = main(["check", model_path("complete_pairing.bip"), "--bind", "n=2", "--json"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["encodability"]["overall"] is True
    assert payload["issues"] == []


def test_missing_file(capsys):
    assert main(["check", "/nonexistent/model.bip"]) == 4


def test_instantiate(capsys):
    code = main(["instantiate", model_path("ambiguous_pairing.bip"), "--bind", "n=2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "configuration 1:" in out and "configuration 2:" in out
    assert "2 configurations" in out


def test_instantiate_unique_configuration(capsys):
    code = main(["instantiate", model_path("complete_pairing.bip"), "--bind", "n=2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "1 configuration" in out and "truncated" not in out
    (line,) = [l for l in out.splitlines() if l.startswith("configuration 1:")]
    assert line.count("{") == 4  # the single configuration holds four connectors


def test_instantiate_zero_configurations(tmp_path, capsys):
    path = write_model(
        tmp_path,
        "mismatch.bip",
        """
diagram Mismatch {
  component A [2] {
    ports { p }
    states { s* }
    transitions { p: s -> s }
  }
  component B [3] {
    ports { q }
    states { s* }
    transitions { q: s -> s }
  }
  motif m0 { A.p 1:1; B.q 1:1 }
}
""",
    )
    code = main(["instantiate", path])
    out = capsys.readouterr().out
    assert code == 0
    assert "0 configurations" in out


def test_instantiate_limit(capsys):
    code = main(
        ["instantiate", model_path("ambiguous_pairing.bip"), "--bind", "n=2", "--limit", "1"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "1 configuration (truncated)" in out


# Two motifs with two configurations each: the product has four.
TWO_BY_TWO = """
diagram TwoByTwo {
  component A [2] { ports { p } states { s* } transitions { p: s -> s } }
  component B [2] { ports { q } states { s* } transitions { q: s -> s } }
  motif sync { A.p 1:1 synchron; B.q 1:1 synchron }
  motif trig { A.p 1:1 trigger; B.q 1:1 trigger }
}
"""


def test_instantiate_truncates_the_product_of_the_motifs(tmp_path, capsys):
    """Each motif stays under the limit; their product does not."""
    path = write_model(tmp_path, "two_by_two.bip", TWO_BY_TWO)
    assert main(["instantiate", path, "--limit", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4 and lines[-1] == "3 configurations (truncated)"
    assert main(["instantiate", path]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 5 and lines[-1] == "4 configurations"


@pytest.mark.parametrize("model, n", [
    ("ambiguous_pairing", 40),  # 1,600 candidate connectors
    ("mutex", 1000),  # 1,000 connectors in the configuration
])
def test_instantiate_deep_search_does_not_recurse_per_connector(capsys, model, n):
    # both are far beyond the recursion limit
    code = main(
        ["instantiate", model_path(f"{model}.bip"), "--bind", f"n={n}", "--limit", "1"]
    )
    assert code == 0
    assert capsys.readouterr().out.splitlines()[-1] == "1 configuration (truncated)"


def test_oracle_deep_search_does_not_recurse_per_connector(capsys):
    assert main(["oracle", model_path("mutex.bip"), "--bind", "n=1000"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"motif {name}: count=1 unique-predicted=True ok" for name in ("acquire", "release")]


def test_instantiate_capacity(monkeypatch, capsys):
    monkeypatch.setenv("BIPKIT_MAX_NODES", "3")
    code = main(["instantiate", model_path("ambiguous_pairing.bip"), "--bind", "n=2"])
    assert code == 3
    err = capsys.readouterr().err
    assert "exceeded" in err
    assert "BIPKIT_MAX_NODES" in err


# C(40,20) candidate connectors with n=40, k=20: far more than fit in memory.
HUGE_POOL = """
diagram HugePool {
  component A [n] {
    ports { p }
    states { s* }
    transitions { p: s -> s }
  }
  component B [1] {
    ports { q }
    states { s* }
    transitions { q: s -> s }
  }
  motif m { A.p k:1 synchron; B.q 1:2 synchron }
}
"""


@pytest.mark.skipif(sys.platform != "linux", reason="needs RLIMIT_AS as Linux enforces it")
@pytest.mark.parametrize("command", ["instantiate", "oracle"])
def test_node_bound_also_bounds_memory(tmp_path, command):
    """The search generates only the connectors it can reach within the node
    bound, so a pool too large to build still ends in exit 3."""
    import resource

    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    src = str(Path(cli.__file__).parents[1])
    argv = [command, write_model(tmp_path, "huge.bip", HUGE_POOL), "--bind", "n=40", "--bind", "k=20"]
    result = subprocess.run([sys.executable, "-m", "bipkit", *argv], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": src, "BIPKIT_MAX_NODES": "100"},
                            preexec_fn=limit_address_space, timeout=300)
    assert result.returncode == 3, result.stderr[-300:]
    assert "configuration search exceeded 100 nodes for motif m" in result.stderr


OUT_OF_MEMORY = ("bipkit: out of memory; lower the --bind values or raise the process's "
                 "memory limit\n")


@pytest.mark.parametrize("command, target", [
    (["run", "--cycles", "1"], "bipkit.engine.run"),
    (["oracle"], "bipkit.diagram.enumerate_configurations"),
], ids=["run", "oracle"])
def test_out_of_memory_is_a_capacity_error(tmp_path, monkeypatch, capsys, command, target):
    def exhaust(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(target, exhaust)
    name, *rest = command
    if name == "run":
        rest += ["--out", str(tmp_path / "trace.json")]
    assert main([name, model_path("mutex.bip"), "--bind", "n=2", *rest]) == 3
    assert capsys.readouterr() == ("", OUT_OF_MEMORY)
    assert not (tmp_path / "trace.json").exists()


@pytest.mark.skipif(sys.platform != "linux", reason="needs RLIMIT_AS as Linux enforces it")
def test_a_real_out_of_memory_ends_in_exit_3(tmp_path):
    """10^8 instances do not fit in 256 MB: the MemoryError ends in one line
    and exit 3, not in a traceback."""
    import resource

    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 28, 1 << 28))

    src = str(Path(cli.__file__).parents[1])
    argv = ["run", model_path("mutex.bip"), "--bind", "n=100000000", "--cycles", "1",
            "--out", str(tmp_path / "trace.json")]
    result = subprocess.run([sys.executable, "-m", "bipkit", *argv], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": src},
                            preexec_fn=limit_address_space, timeout=300)
    assert (result.returncode, result.stdout, result.stderr) == (3, "", OUT_OF_MEMORY)


def test_bad_max_nodes(monkeypatch, capsys):
    monkeypatch.setenv("BIPKIT_MAX_NODES", "lots")
    assert main(["instantiate", model_path("ambiguous_pairing.bip"), "--bind", "n=2"]) == 4


def test_encode_macros(tmp_path, capsys):
    out = tmp_path / "star.macros"
    code = main(["encode", model_path("star.bip"), "--format", "macros", "--out", str(out)])
    assert code == 0
    lines = {" ".join(l.split()) for l in out.read_text().strip().splitlines()}
    assert lines == {
        "C.p Require S.q",
        "C.p Accept S.q",
        "S.q Require C.p",
        "S.q Accept C.p",
    }


def test_encode_xml(tmp_path, capsys):
    out = tmp_path / "routes.xml"
    code = main(
        ["encode", model_path("switchable_routes.bip"), "--format", "xml", "--out", str(out)]
    )
    assert code == 0
    text = out.read_text()
    assert '<effect id="on" specType="Route"/>' in text
    assert '<port id="add" specType="Monitor"/>' in text


def test_encode_behavior_json(tmp_path):
    out = tmp_path / "routes.behavior.json"
    code = main(
        [
            "encode",
            model_path("switchable_routes.bip"),
            "--format",
            "behavior-json",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    data = json.loads(out.read_text())
    route = [e for e in data if e["name"] == "Route"][0]
    assert route["ports"] == ["finished", "off", "on"]
    assert route["events"] == ["end"]


def test_encode_warns_on_non_encodable_binding(tmp_path, capsys):
    out = tmp_path / "x.macros"
    code = main(
        [
            "encode",
            model_path("ambiguous_pairing.bip"),
            "--format",
            "macros",
            "--bind",
            "n=2",
            "--out",
            str(out),
        ]
    )
    assert code == 0  # encoding is binding independent; only a warning prints
    assert capsys.readouterr().out.splitlines() == [
        "warning: the tested binding fails the uniqueness conditions (pair/T1.p, pair/T2.q)",
        str(out),
    ]
    assert out.exists()


def test_encode_refuses_overwrite(tmp_path, capsys):
    out = tmp_path / "star.macros"
    out.write_text("old")
    args = ["encode", model_path("star.bip"), "--format", "macros", "--out", str(out)]
    assert main(args) == 4
    assert out.read_text() == "old"
    assert main(args + ["--force"]) == 0
    assert "Require" in out.read_text()


def test_run_writes_deterministic_trace(tmp_path, capsys):
    routes = load_bundled_model("switchable_routes.bip")
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    base = [
        "run",
        model_path("switchable_routes.bip"),
        "--bind",
        "n=2",
        "--cycles",
        "10",
        "--seed",
        "42",
    ]
    assert main(base + ["--out", str(out1)]) == 0
    assert main(base + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()

    trace = json.loads(out1.read_text())
    assert len(trace["cycles"]) == 10
    replay_validate(trace, routes, {"n": 2})
    assert "interactions fired" in capsys.readouterr().out


def test_run_zero_cycles(tmp_path):
    out = tmp_path / "t.json"
    code = main(
        [
            "run",
            model_path("switchable_routes.bip"),
            "--bind",
            "n=2",
            "--cycles",
            "0",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    trace = json.loads(out.read_text())
    assert trace["cycles"] == [] and trace["schema"] == 1


def test_run_non_encodable_fails_before_cycles(tmp_path, capsys):
    out = tmp_path / "t.json"
    code = main(
        [
            "run",
            model_path("ambiguous_pairing.bip"),
            "--bind",
            "n=2",
            "--cycles",
            "5",
            "--out",
            str(out),
        ]
    )
    assert code == 1
    assert not out.exists()
    assert capsys.readouterr().out == "not encodable: pair/T1.p, pair/T2.q\n"


def test_run_livelock_exit(tmp_path, capsys):
    path = write_model(
        tmp_path,
        "spin.bip",
        """
diagram Spin {
  component T [1] {
    ports { p }
    states { a*, b }
    transitions {
      : a -> b
      : b -> a
    }
  }
}
""",
    )
    out = tmp_path / "t.json"
    code = main(["run", path, "--cycles", "3", "--out", str(out)])
    assert code == 3
    assert "T#1" in capsys.readouterr().err


def test_run_with_event_script(tmp_path):
    script = tmp_path / "script.json"
    script.write_text(
        json.dumps(
            {
                "schema": 1,
                "cycles": [
                    {"events": [], "guards": [{"target": "Route#1", "guard": "finished",
                                               "value": True}]},
                ],
            }
        )
    )
    out = tmp_path / "t.json"
    code = main(
        [
            "run",
            model_path("switchable_routes.bip"),
            "--bind",
            "n=1",
            "--cycles",
            "6",
            "--events",
            str(script),
            "--policy",
            "lexicographic-first",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    trace = json.loads(out.read_text())
    internals = [r for c in trace["cycles"] for r in c["internal"]]
    assert {"instance": "Route#1", "from": "wait", "to": "done"} in internals


@pytest.mark.parametrize(
    "entry, message",
    [
        ({"events": [{"event": "end"}]}, 'cycles[1].events[0]: missing "target"'),
        ({"events": [{"target": "Route#1"}]}, 'cycles[1].events[0]: missing "event"'),
        ({"guards": [{"guard": "finished", "value": True}]},
         'cycles[1].guards[0]: missing "target"'),
        ({"guards": [{"target": "Route#1", "value": True}]},
         'cycles[1].guards[0]: missing "guard"'),
        ({"guards": [{"target": "Route#1", "guard": "finished"}]},
         'cycles[1].guards[0]: missing "value"'),
        ({"events": [{"target": 1, "event": "end"}]},
         "cycles[1].events[0].target: expected a string, got 1"),
        ({"guards": [{"target": "Route#1", "guard": "finished", "value": "yes"}]},
         'cycles[1].guards[0].value: expected true or false, got "yes"'),
        ({"events": {"target": "Route#1", "event": "end"}}, "cycles[1].events: expected a list"),
        ({"guards": ["Route#1"]}, "cycles[1].guards[0]: expected an object"),
    ],
)
def test_run_rejects_malformed_event_script(tmp_path, capsys, entry, message):
    script = tmp_path / "bad.json"
    script.write_text(json.dumps({"schema": 1, "cycles": [{}, entry]}))
    out = tmp_path / "t.json"
    code = main(["run", model_path("switchable_routes.bip"), "--bind", "n=2", "--cycles", "3",
                 "--events", str(script), "--out", str(out)])
    assert code == 1
    assert capsys.readouterr().err.strip() == message
    assert not out.exists()


@pytest.mark.parametrize(
    "entry, message",
    [
        ({"guards": [{"target": "Route#1", "guard": "nope", "value": True}]},
         "cycles[1].guards[0]: Route#1 declares no guard 'nope'"),
        ({"events": [{"target": "Route#1", "event": "bogus"}]},
         "cycles[1].events[0]: Route#1 declares no spontaneous event 'bogus'"),
        ({"guards": [{"target": "Route#9", "guard": "finished", "value": True}]},
         "cycles[1].guards[0]: guard update targets unknown instance 'Route#9'"),
        ({"events": [{"target": "Route#1", "event": "end"}, {"target": "Route#9", "event": "end"}]},
         "cycles[1].events[1]: event targets unknown instance 'Route#9'"),
    ],
    ids=["undeclared-guard", "undeclared-event", "guard-unknown-instance",
         "event-unknown-instance"],
)
def test_run_locates_a_script_entry_the_model_refuses(tmp_path, capsys, entry, message):
    # the four faults test_replay_checks_script_entries_as_the_run_does gives
    # run and replay, through the command line
    script = tmp_path / "bad.json"
    script.write_text(json.dumps({"schema": 1, "cycles": [{}, entry]}))
    out = tmp_path / "t.json"
    argv = ["run", model_path("switchable_routes.bip"), "--bind", "n=1", "--events", str(script),
            "--out", str(out)]
    assert main([*argv, "--cycles", "3"]) == 1
    assert capsys.readouterr() == ("", message + "\n")
    assert not out.exists()
    # a run that ends before the bad entry never uses it
    assert main([*argv, "--cycles", "1"]) == 0
    assert out.exists()


@pytest.mark.parametrize("cycles, message", [
    ({}, "cycles: expected a list"),
    ([1], "cycles[0]: expected an object"),
])
def test_run_rejects_a_script_whose_cycles_are_malformed(tmp_path, capsys, cycles, message):
    script = tmp_path / "bad.json"
    script.write_text(json.dumps({"schema": 1, "cycles": cycles}))
    out = tmp_path / "t.json"
    assert main(["run", model_path("switchable_routes.bip"), "--bind", "n=2", "--cycles", "3",
                 "--events", str(script), "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", message + "\n")
    assert not out.exists()


@pytest.mark.parametrize("schema", ["true", "1.0"])
def test_run_rejects_a_script_whose_schema_is_not_the_integer_1(tmp_path, capsys, schema):
    script = tmp_path / "bad.json"
    script.write_text(f'{{"schema": {schema}, "cycles": []}}')
    out = tmp_path / "t.json"
    assert main(["run", model_path("switchable_routes.bip"), "--bind", "n=2", "--cycles", "3",
                 "--events", str(script), "--out", str(out)]) == 1
    assert capsys.readouterr() == (
        "", 'event scripts need a {"schema": 1, "cycles": [...]} object\n')
    assert not out.exists()


def test_input_that_is_no_utf8_is_a_located_parse_error(tmp_path, capsys):
    model = tmp_path / "bad.bip"
    model.write_bytes(b"diagram D {\n  comp\xffonent\n}\n")
    assert main(["check", str(model)]) == 2
    assert capsys.readouterr() == ("", f"{model}:2:7: expected UTF-8 text, found byte 0xff\n")
    script = tmp_path / "bad.json"
    script.write_bytes(b'{"schema": 1, "cycles": [\xfe]}')
    out = tmp_path / "t.json"
    assert main(["run", model_path("switchable_routes.bip"), "--bind", "n=1", "--cycles", "2",
                 "--events", str(script), "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", f"{script}:1:26: expected UTF-8 text, found byte 0xfe\n")
    assert not out.exists()


def test_an_event_script_that_is_no_json_is_a_located_parse_error(tmp_path, capsys):
    script = tmp_path / "bad.json"
    script.write_text("{\n")
    out = tmp_path / "t.json"
    assert main(["run", model_path("switchable_routes.bip"), "--bind", "n=2", "--cycles", "3",
                 "--events", str(script), "--out", str(out)]) == 2
    assert capsys.readouterr() == (
        "", f"{script}:2:1: invalid JSON: Expecting property name enclosed in double quotes\n"
    )
    assert not out.exists()


# Guards nested or chained far past the recursion limit.
DEEP_GUARDS = {
    "parentheses": "(" * 3000 + "finished" + ")" * 3000,
    "negations": "!" * 3000 + "finished",
    "conjunction": " & ".join(["finished"] * 3000),
}


@pytest.mark.parametrize("kind", sorted(DEEP_GUARDS))
def test_check_stops_a_deep_guard_at_the_operator_past_the_bound(tmp_path, capsys, kind):
    text = Path(model_path("switchable_routes.bip")).read_text(encoding="utf-8")
    text = text.replace(": wait -> done [finished]", f": wait -> done [{DEEP_GUARDS[kind]}]")
    path = write_model(tmp_path, "deep.bip", text)
    # the 101st operator of the guard, counting !, &, | and (
    start = text.index(DEEP_GUARDS[kind])
    at = [i for i in range(start, len(text)) if text[i] in "!&|("][100]
    line, col = text.count("\n", 0, at) + 1, at - text.rfind("\n", 0, at)
    assert main(["check", path, "--bind", "n=2"]) == 2
    assert capsys.readouterr() == ("", f"{path}:{line}:{col}: expected at most 100 operators "
                                       f"in a guard, found '{text[at]}'\n")


def test_an_event_script_nested_too_deeply_is_a_parse_error(tmp_path, capsys):
    script = tmp_path / "deep.json"
    # deeper than the JSON decoder's recursion limit on every supported Python
    script.write_text('{"schema": 1, "cycles": ' + "[" * 100_000 + "]" * 100_000 + "}")
    out = tmp_path / "t.json"
    assert main(["run", model_path("switchable_routes.bip"), "--bind", "n=2", "--cycles", "3",
                 "--events", str(script), "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", f"{script}: invalid JSON: nested too deeply\n")
    assert not out.exists()


def test_run_source_macros(tmp_path):
    out_d = tmp_path / "d.json"
    out_m = tmp_path / "m.json"
    base = [
        "run",
        model_path("mutex.bip"),
        "--bind",
        "n=2",
        "--cycles",
        "20",
        "--seed",
        "5",
    ]
    assert main(base + ["--source", "diagram", "--out", str(out_d)]) == 0
    assert main(base + ["--source", "macros", "--out", str(out_m)]) == 0
    assert out_d.read_bytes() == out_m.read_bytes()


def test_run_source_macros_beyond_the_subset_cap(tmp_path):
    """Routes at n=7 has 23 rule ports, past the FOIL enumeration's cap of 20."""
    out_d, out_m = tmp_path / "d.json", tmp_path / "m.json"
    base = ["run", model_path("switchable_routes.bip"), "--bind", "n=7", "--cycles", "50",
            "--seed", "3"]
    assert main(base + ["--source", "diagram", "--out", str(out_d)]) == 0
    assert main(base + ["--source", "macros", "--out", str(out_m)]) == 0
    assert out_d.read_bytes() == out_m.read_bytes()


def test_check_warning_does_not_fail(capsys):
    code = main(["check", model_path("broadcast_pair.bip"), "--bind", "n1=1", "--bind", "n2=2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "warning[TRIGGER_MULTIPLICITY]" in out
    assert "encodable" in out


def test_run_refuses_overwrite(tmp_path, capsys):
    out = tmp_path / "t.json"
    out.write_text("precious")
    args = [
        "run",
        model_path("mutex.bip"),
        "--bind",
        "n=2",
        "--cycles",
        "2",
        "--out",
        str(out),
    ]
    assert main(args) == 4
    assert out.read_text() == "precious"
    assert main(args + ["--force"]) == 0


def test_trace_cycle_field_schema(tmp_path):
    out = tmp_path / "t.json"
    assert (
        main(
            [
                "run",
                model_path("mutex.bip"),
                "--bind",
                "n=2",
                "--cycles",
                "3",
                "--out",
                str(out),
            ]
        )
        == 0
    )
    trace = json.loads(out.read_text())
    assert set(trace) == {"schema", "model", "binding", "seed", "policy", "cycles"}
    for cycle in trace["cycles"]:
        assert set(cycle) == {"cycle", "spontaneous", "interaction", "internal", "idle"}


def test_run_missing_binding_is_usage_error(tmp_path, capsys):
    out = tmp_path / "t.json"
    code = main(
        ["run", model_path("switchable_routes.bip"), "--cycles", "5", "--out", str(out)]
    )
    assert code == 4
    assert "unbound parameters: n" in capsys.readouterr().err


def test_oracle_sweep(capsys):
    assert main(["oracle", "--sweep", "n,m,d<=2"]) == 0
    out = capsys.readouterr().out
    assert "0 disagreements" in out


def test_oracle_sweep_reports_points_over_the_bound_as_unknown(monkeypatch, capsys):
    monkeypatch.setenv("BIPKIT_MAX_NODES", "3")
    assert main(["oracle", "--sweep", "n,m,d<=2"]) == 3
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 72 + 1
    unknown = [line for line in lines if line.endswith(" UNKNOWN")]
    assert unknown and all(": count=? unique-predicted=" in line for line in unknown)
    summary = f"72 points, 0 disagreements, {len(unknown)} unknown (raise BIPKIT_MAX_NODES)"
    assert lines[-1] == summary

    assert main(["oracle", "--sweep", "n,m,d<=2", "--json"]) == 3
    points = json.loads(capsys.readouterr().out)
    assert len(points) == 72
    assert sum(1 for p in points if p["count"] is None and p["agree"] is None) == len(unknown)


@pytest.mark.parametrize("bound", [7, 10**6])
def test_a_sweep_past_the_point_bound_exits_3_before_any_search(monkeypatch, capsys, bound):
    """K^3 + K^6 points: K=6 (46,872) is allowed, K=7 (117,992) is not."""
    def search(bound, max_nodes):
        raise AssertionError(f"searched the sweep at K={bound}")

    monkeypatch.setattr("bipkit.diagram.proposition_sweep", search)
    assert main(["oracle", "--sweep", f"n,m,d<={bound}"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"--sweep n,m,d<={bound} has {bound**3 + bound**6} points, more than the "
                   "bound of 100000; lower K\n")


def test_a_sweep_at_the_largest_allowed_bound_is_searched(monkeypatch, capsys):
    swept = []
    monkeypatch.setattr("bipkit.diagram.proposition_sweep",
                        lambda bound, max_nodes: swept.append(bound) or [])
    assert main(["oracle", "--sweep", "n,m,d<=6"]) == 0
    assert swept == [6]
    assert capsys.readouterr().out == "0 points, 0 disagreements\n"


def test_oracle_file_mode(capsys):
    assert main(["oracle", model_path("ambiguous_pairing.bip"), "--bind", "n=2"]) == 0
    out = capsys.readouterr().out
    assert "count=2" in out and "unique-predicted=False" in out and "ok" in out

    assert main(["oracle", model_path("complete_pairing.bip"), "--bind", "n=2"]) == 0
    out = capsys.readouterr().out
    assert "count=1" in out and "unique-predicted=True" in out


def test_oracle_file_mode_reports_motifs_over_the_bound_as_unknown(monkeypatch, capsys):
    monkeypatch.setenv("BIPKIT_MAX_NODES", "3")
    assert main(["oracle", model_path("switchable_routes.bip"), "--bind", "n=2"]) == 3
    out, err = capsys.readouterr()
    assert out.splitlines() == [
        f"motif {name}: count=? unique-predicted=True UNKNOWN"
        for name in ("report", "switchOff", "switchOn")
    ]
    assert err.count("raise the bound") == 3 and "BIPKIT_MAX_NODES" in err

    monkeypatch.setenv("BIPKIT_MAX_NODES", "5")
    assert main(["oracle", model_path("switchable_routes.bip"), "--bind", "n=2"]) == 0
    assert capsys.readouterr().out.count("count=1 unique-predicted=True ok") == 3


def test_oracle_file_mode_prints_each_capacity_message_before_its_motif():
    """With the two streams merged, a motif's capacity message comes right
    before its verdict line, not all messages first."""
    src = str(Path(cli.__file__).parents[1])
    argv = ["oracle", model_path("switchable_routes.bip"), "--bind", "n=2"]
    result = subprocess.run([sys.executable, "-u", "-m", "bipkit", *argv], stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT, text=True,
                            env={**os.environ, "PYTHONPATH": src, "BIPKIT_MAX_NODES": "3"})
    lines = result.stdout.splitlines()
    assert (result.returncode, len(lines)) == (3, 6), result.stdout
    for k, name in enumerate(("report", "switchOff", "switchOn")):
        assert lines[2 * k].startswith(f"configuration search exceeded 3 nodes for motif {name}; ")
        assert lines[2 * k + 1] == f"motif {name}: count=? unique-predicted=True UNKNOWN"


def test_oracle_sweep_disagreement_exits_1(monkeypatch, capsys):
    from bipkit import diagram

    record = diagram.SweepRecord(label="n=1 m=1 d=1", count=2, encodable=True)
    monkeypatch.setattr(diagram, "proposition_sweep", lambda bound, max_nodes: [record])
    assert main(["oracle", "--sweep", "n,m,d<=1"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "n=1 m=1 d=1: count=2 unique-predicted=True DISAGREES",
        "1 points, 1 disagreements",
    ]

    assert main(["oracle", "--sweep", "n,m,d<=1", "--json"]) == 1
    assert json.loads(capsys.readouterr().out) == [
        {"point": "n=1 m=1 d=1", "count": 2, "unique": True, "agree": False}
    ]


def test_oracle_file_mode_disagreement_exits_1(monkeypatch, capsys):
    import dataclasses

    from bipkit import diagram

    check_encodable = diagram.check_encodable

    def flipped(d, binding):
        # one connector more than the motif can form: no end's factor matches
        report = check_encodable(d, binding)
        return diagram.EncodabilityReport(tuple(
            dataclasses.replace(end, connectors=end.connectors + 1) for end in report.ends))

    monkeypatch.setattr(diagram, "check_encodable", flipped)
    assert main(["oracle", model_path("complete_pairing.bip"), "--bind", "n=2"]) == 1
    assert capsys.readouterr().out == "motif pair: count=1 unique-predicted=False DISAGREES\n"


def test_oracle_usage(capsys):
    assert main(["oracle"]) == 4
    assert main(["oracle", model_path("star.bip"), "--sweep", "n,m,d<=2"]) == 4
    assert main(["oracle", "--sweep", "bogus"]) == 4


# A motif end whose multiplicity is a parameter, and one model each for the
# two validation errors oracle's file mode used to skip.
PARAMETRIC_MULTIPLICITY = """
diagram Param {
  component T [2] {
    ports { p }
    states { s* }
    transitions { p: s -> s }
  }
  component U [2] {
    ports { q }
    states { s* }
    transitions { q: s -> s }
  }
  motif m { T.p k:1; U.q 1:1 }
}
"""

DANGLING_END = PARAMETRIC_MULTIPLICITY.replace("T.p k:1; U.q 1:1", "T.p 1:1; V.q 1:1")
ZERO_MULTIPLICITY = PARAMETRIC_MULTIPLICITY.replace("T.p k:1; U.q 1:1", "T.p 0:1")


@pytest.mark.parametrize(
    "command",
    [
        ["check"],
        ["check", "--json"],
        ["instantiate"],
        ["encode", "--format", "macros"],
        ["run", "--cycles", "3"],
        ["oracle"],
    ],
    ids=" ".join,
)
def test_zero_bound_multiplicity_is_a_usage_error(tmp_path, capsys, command):
    path = write_model(tmp_path, "param.bip", PARAMETRIC_MULTIPLICITY)
    name, *rest = command
    if name in ("encode", "run"):
        rest += ["--out", str(tmp_path / "out")]
    assert main([name, path, *rest, "--bind", "k=0"]) == 4
    out, err = capsys.readouterr()
    assert err == (
        "bipkit: error: parameter k=0 makes the multiplicity of motif m, end T.p, less than 1\n"
    )
    assert not (tmp_path / "out").exists()
    # k=1 is a valid binding, and the model is not encodable
    assert main([name, path, *rest, "--bind", "k=1"]) in (0, 1)
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, issue",
    [
        (DANGLING_END, "error[DANGLING_PORT_REF] "),
        (ZERO_MULTIPLICITY, "error[NONPOSITIVE_CARDINALITY] "),
    ],
    ids=["dangling-end", "zero-literal"],
)
def test_oracle_file_mode_validates_the_model(tmp_path, capsys, text, issue):
    path = write_model(tmp_path, "bad.bip", text)
    for command in ("oracle", "instantiate", "run"):
        rest = ["--cycles", "1", "--out", str(tmp_path / "t.json")] if command == "run" else []
        assert main([command, path, *rest]) == 1
        out, err = capsys.readouterr()
        assert out.startswith(issue + path + ":") and err == ""


def test_encode_writes_nothing_for_an_invalid_model(tmp_path, monkeypatch, capsys):
    path = write_model(tmp_path, "bad.bip", DANGLING_END)
    monkeypatch.chdir(tmp_path)  # where the output would go without --out
    assert main(["encode", path, "--format", "macros"]) == 1
    out, err = capsys.readouterr()
    assert out.startswith("error[DANGLING_PORT_REF] " + path + ":") and err == ""
    assert [p.name for p in tmp_path.iterdir()] == ["bad.bip"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--sweep", "n,m,d<=1", "--bind", "typo=3"], "--bind and --limit need a model file"),
        (["--sweep", "n,m,d<=1", "--bind", "n=2"], "--bind and --limit need a model file"),
        (["--sweep", "n,m,d<=1", "--limit", "5"], "--bind and --limit need a model file"),
        (["--sweep", "n,m,d<=1", "--limit", "1000", "--json"], "--bind and --limit need a model"),
    ],
)
def test_oracle_rejects_flags_it_would_ignore_or_misread(capsys, argv, message):
    assert main(["oracle", *argv]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("bipkit: error: " + message) and err.count("\n") == 1


def test_oracle_file_mode_limit_one_still_separates_one_from_many(capsys):
    assert main(["oracle", model_path("ambiguous_pairing.bip"), "--bind", "n=2",
                 "--limit", "1"]) == 0
    assert "count=2+ unique-predicted=False ok" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["instantiate", "oracle"])
def test_a_limit_past_any_list_size_is_no_limit(capsys, command):
    """A --limit above sys.maxsize, more configurations than a list holds,
    stops no search: the command prints what --limit 1000 prints and
    exits 0."""
    argv = [command, model_path("mutex.bip"), "--bind", "n=2", "--limit"]
    assert main(argv + ["1000"]) == 0
    expected = capsys.readouterr()
    assert expected.err == ""
    for limit in (sys.maxsize + 1, 10**20):
        assert main(argv + [str(limit)]) == 0
        assert capsys.readouterr() == expected


def test_oracle_json_needs_the_sweep(capsys):
    assert main(["oracle", model_path("star.bip"), "--bind", "n=2", "--json"]) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "bipkit: error: --json needs --sweep; a model file's report is text only\n"


def test_usage_error_on_unknown_subcommand(capsys):
    assert main(["frobnicate"]) == 4


def test_bad_bind_values(capsys):
    assert main(["check", model_path("star.bip"), "--bind", "n=-1"]) == 4
    assert main(["check", model_path("star.bip"), "--bind", "n"]) == 4
    assert main(["check", model_path("star.bip"), "--bind", "n=two"]) == 4


def test_a_negative_bind_value_is_refused_by_the_binding_rule(capsys):
    assert main(["check", model_path("star.bip"), "--bind", "n=-1"]) == 4
    assert capsys.readouterr() == (
        "", "bipkit: error: parameter n=-1 is not a non-negative integer\n")


@pytest.mark.parametrize("seed", ["-5", str(2**64), "99999999999999999999999"])
def test_a_seed_outside_64_bits_is_a_usage_error(tmp_path, capsys, seed):
    out = tmp_path / "trace.json"
    assert main(["run", model_path("mutex.bip"), "--bind", "n=2", "--cycles", "3",
                 "--seed", seed, "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert err.startswith("usage: bipkit run")
    assert err.splitlines()[-1] == (
        f"bipkit run: error: argument --seed: {seed} is not in [0, {2**64 - 1}]")
    assert not out.exists()
    assert main(["run", model_path("mutex.bip"), "--bind", "n=2", "--cycles", "3",
                 "--seed", str(2**64 - 1), "--out", str(out)]) == 0


@pytest.mark.parametrize(
    "argv, message",
    [
        (["run", "mutex.bip", "--bind", "n=2", "--cycles", "-1"], "--cycles: -1 is not in"),
        (["run", "mutex.bip", "--bind", "n=2", "--cycles", "200000"], "--cycles: 200000 is not"),
        (["run", "mutex.bip", "--bind", "n=2", "--cycles", "ten"], "--cycles: 'ten' is not an"),
        (["instantiate", "ambiguous_pairing.bip", "--bind", "n=2", "--limit", "0"],
         "--limit: 0 is not at least 1"),
        (["oracle", "star.bip", "--bind", "n=2", "--limit", "-7"], "--limit: -7 is not at least 1"),
        (["oracle", "star.bip", "--bind", "n=2", "--limit", "0"], "--limit: 0 is not at least 1"),
    ],
)
def test_out_of_range_numbers_are_usage_errors(tmp_path, capsys, argv, message):
    command, model, *rest = argv
    if command == "run":
        rest += ["--out", str(tmp_path / "trace.json")]
    assert main([command, model_path(model), *rest]) == 4
    err = capsys.readouterr().err
    assert err.startswith("usage: bipkit " + command)
    assert message in err
    assert not (tmp_path / "trace.json").exists()


# The seven numbers the command line reads: the arguments that carry TEXT
# (BIPKIT_MAX_NODES is read from the environment), the last line of stderr
# when TEXT is not an integer, and the last line when TEXT is -1.
NUMBER_INPUTS = {
    "--cycles": (["run", "mutex.bip", "--bind", "n=2", "--cycles", "TEXT"],
                 "bipkit run: error: argument --cycles: 'TEXT' is not an integer",
                 "bipkit run: error: argument --cycles: -1 is not in [0, 100000]"),
    "--seed": (["run", "mutex.bip", "--bind", "n=2", "--cycles", "1", "--seed", "TEXT"],
               "bipkit run: error: argument --seed: 'TEXT' is not an integer",
               f"bipkit run: error: argument --seed: -1 is not in [0, {2**64 - 1}]"),
    "instantiate --limit": (
        ["instantiate", "ambiguous_pairing.bip", "--bind", "n=2", "--limit", "TEXT"],
        "bipkit instantiate: error: argument --limit: 'TEXT' is not an integer",
        "bipkit instantiate: error: argument --limit: -1 is not at least 1"),
    "oracle --limit": (["oracle", "ambiguous_pairing.bip", "--bind", "n=2", "--limit", "TEXT"],
                       "bipkit oracle: error: argument --limit: 'TEXT' is not an integer",
                       "bipkit oracle: error: argument --limit: -1 is not at least 1"),
    "--bind": (["check", "star.bip", "--bind", "n=TEXT"],
               "bipkit: error: --bind n: 'TEXT' is not an integer",
               "bipkit: error: parameter n=-1 is not a non-negative integer"),
    "--sweep": (["oracle", "--sweep", "n,m,d<=TEXT"],
                "bipkit: error: sweep bound must be a positive integer in 'n,m,d<=TEXT'",
                "bipkit: error: sweep bound must be a positive integer in 'n,m,d<=-1'"),
    "BIPKIT_MAX_NODES": (["instantiate", "ambiguous_pairing.bip", "--bind", "n=2"],
                         "bipkit: error: BIPKIT_MAX_NODES must be a positive integer, got 'TEXT'",
                         "bipkit: error: BIPKIT_MAX_NODES must be a positive integer, got '-1'"),
}

# Python's int() takes each of these; a model file takes none of them.
NOT_INTEGERS = ["1_0", " 5", "+5", "\u0663"]


@pytest.mark.parametrize(
    "name, text",
    # Spaces may surround the sweep's K, as they may surround each token of
    # "n,m,d<=K", but may not split it.
    [(name, text) for name in NUMBER_INPUTS for text in [*NOT_INTEGERS, "-1"]
     if (name, text) != ("--sweep", " 5")] + [("--sweep", "1 0")],
)
def test_every_number_is_ascii_digits_after_an_optional_minus(
    tmp_path, monkeypatch, capsys, name, text
):
    argv, not_integer, minus_one = NUMBER_INPUTS[name]
    argv = [arg.replace("TEXT", text) for arg in argv]
    if argv[1].endswith(".bip"):
        argv[1] = model_path(argv[1])
    if argv[0] == "run":
        argv += ["--out", str(tmp_path / "trace.json")]
    if name == "BIPKIT_MAX_NODES":
        monkeypatch.setenv(name, text)
    # Read as 10, "1_0" and "1 0" would sweep over a million points.
    monkeypatch.setattr("bipkit.diagram.proposition_sweep", lambda bound, max_nodes: [])
    assert main(argv) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[-1] == (minus_one if text == "-1" else not_integer.replace("TEXT", text))
    assert not (tmp_path / "trace.json").exists()


def test_check_canonical_model_round_trips_via_cli(tmp_path):
    # serialize a bundled model to a new file and check it cleanly
    routes = load_bundled_model("switchable_routes.bip")
    path = write_model(tmp_path, "canonical.bip", serialize_model(routes))
    assert main(["check", path, "--bind", "n=3"]) == 0


# stdout, stderr and exit code of usage cases: help, version, unknown
# commands, missing and extra arguments, as recorded before main() started
# building only the parser of the named sub-command.
USAGE_CASES = json.loads((Path(__file__).parent / "data" / "cli_usage.json").read_text())


def _usage_id(case) -> str:
    return " ".join(case["argv"]) or "(no arguments)"


@pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="recorded with Python 3.11 argparse")
@pytest.mark.parametrize("case", USAGE_CASES, ids=_usage_id)
def test_usage_text_is_unchanged(monkeypatch, capsys, case):
    monkeypatch.setenv("COLUMNS", "80")
    assert main(case["argv"]) == case["code"]
    assert capsys.readouterr() == (case["stdout"], case["stderr"])


@pytest.mark.parametrize("case", USAGE_CASES, ids=_usage_id)
def test_one_sub_command_parser_reads_like_the_full_parser(monkeypatch, capsys, case):
    monkeypatch.setenv("COLUMNS", "80")
    code = main(case["argv"])
    lazy = capsys.readouterr()
    full_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda command=None: full_parser())
    assert main(case["argv"]) == code
    assert capsys.readouterr() == lazy


# SHA-256 digests of stdout (and of the emitted file, for encode) of
# instantiate, encode, check (table and --json), run and oracle (sweep and
# model), each recorded before a change to the code that prints it.  Each
# case runs in a directory holding copies of the bundled models, so the
# source spans name the bare file.
OUTPUT_DIGESTS = json.loads((Path(__file__).parent / "data" / "cli_digests.json").read_text())


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("case", OUTPUT_DIGESTS, ids=lambda case: " ".join(case["argv"]))
def test_output_digests_are_unchanged(tmp_path, monkeypatch, capsys, case):
    for path in bundled_model_path("mutex.bip").parent.glob("*.bip"):
        shutil.copy(path, tmp_path / path.name)
    monkeypatch.chdir(tmp_path)
    assert main(case["argv"]) == case["code"]
    assert _sha256(capsys.readouterr().out) == case["stdout_sha256"]
    if "out_sha256" in case:
        assert _sha256((tmp_path / "out").read_text(encoding="utf-8")) == case["out_sha256"]


def test_readme_worked_session(tmp_path, monkeypatch, capsys):
    """Each command of the README's worked session, run in a directory that
    holds the bundled models at their checkout paths, prints the text the
    README shows under it."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    session = readme.split("A worked session", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    models = tmp_path / "src" / "bipkit" / "models"
    models.mkdir(parents=True)
    for path in bundled_model_path("mutex.bip").parent.glob("*.bip"):
        shutil.copy(path, models / path.name)
    monkeypatch.chdir(tmp_path)
    steps = re.split(r"^\$ ", session.replace("\\\n", ""), flags=re.M)[1:]
    assert len(steps) == 5
    for step in steps:
        command, _, shown = step.partition("\n")
        argv = shlex.split(command)
        if argv[0] == "cat":
            printed = Path(argv[1]).read_text(encoding="utf-8")
        else:
            assert argv[0] == "bipkit", command
            main(argv[1:])
            printed = capsys.readouterr().out
        assert printed == shown, command
