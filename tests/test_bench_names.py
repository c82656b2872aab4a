"""The benchmark reaches the package by name.

``bench/tracing.py`` wraps each function that its ``TRACED`` table names,
found as ``sys.modules["bipkit." + module]`` and an attribute of that module
or of a class in it.  ``bench/run.py`` reads ``bipkit.NAME`` attributes.  A
move that breaks one of these lookups fails here, and not only in a traced
benchmark run.  Neither file is changed or run: the test reads the table
and the text."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"

# A fresh process imports what bench/run.py imports before its workloads
# start, so sys.modules holds what it holds when the tracer installs.  The
# lookups are the tracer's own, then each dotted name of bench/run.py.
PROBE = """
import importlib.util, json, sys
import bipkit, bipkit.cli

spec = importlib.util.spec_from_file_location("bench_tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
missing = []
for short, names in tracing.TRACED.items():
    module = sys.modules.get("bipkit." + short)
    for name in names:
        owner_name, _, method = name.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        if owner is None or vars(owner).get(method) is None:
            missing.append(f"bipkit.{short}.{name}")
for dotted in sys.argv[2:]:
    value = bipkit
    for part in dotted.split(".")[1:]:
        value = getattr(value, part, None)
    if value is None:
        missing.append(dotted)
print(json.dumps(missing))
"""


def test_the_benchmark_finds_every_name_it_reads():
    text = (BENCH / "run.py").read_text(encoding="utf-8")
    names = sorted(set(re.findall(r"\bbipkit(?:\.\w+)+", text)))
    # the pattern finds what the workloads call, a method of a class too
    assert {"bipkit.enabled_ports", "bipkit.EventScript.from_json"} <= set(names)
    result = subprocess.run(
        [sys.executable, "-c", PROBE, str(BENCH / "tracing.py"), *names],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"})
    assert json.loads(result.stdout) == []
