#!/usr/bin/env python3
"""The bipkit benchmark: four CLI workloads, end-to-end metrics and a traced run.

Run from the root of a checkout (the benchmark imports ``src/bipkit``):

    python3 bench/run.py --workload mutex_n200 --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --seconds 30          # all four workloads in turn

Each workload runs in one process and one thread.  It calls
``bipkit.cli.main(argv)`` in-process with stdout captured, in rounds, until
``--seconds`` are spent (at least two rounds), checks every output, and
prints the metrics by name and unit.  The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` rounds
alternate untraced and traced (spans around bipkit's public functions, see
``tracing.py``) and the metrics are the per-layer ones plus the tracing
overhead.  ``METRICS.md`` explains the workloads and metrics.

Generated inputs, traces, spans and a result file go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
MODELS = SRC / "bipkit" / "models"
OUT = BENCH / "out"
GOLDEN = BENCH / "golden.json"

DEFAULT_SEED = 0
DEFAULT_SECONDS = 30
MIN_ROUNDS = 2

END_TO_END = {  # name: unit
    "setup_s": "s",
    "cycles_or_verdicts_per_s": "1/s",
    "replay_or_configs_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# The end-to-end metric each of the two rates stands for on each kind of
# workload.  Every time is wall time scaled to the reference speed.
RATE_MEANING = {
    "engine": {
        "setup_s": "time of `bipkit run --cycles 0`",
        "cycles_or_verdicts_per_s": "cycles_per_s: cycles / time of `bipkit run`",
        "replay_or_configs_per_s": "replay_cycles_per_s: cycles / time of replay_validate",
        "peak_rss_mb": "peak resident memory of the process",
    },
    "oracle": {
        "setup_s": "time of `bipkit instantiate --limit 1`",
        "cycles_or_verdicts_per_s": "verdicts_per_s: sweep points / time of `oracle --sweep`",
        "replay_or_configs_per_s": "configs_per_s: configurations / time of `instantiate`",
        "peak_rss_mb": "peak resident memory of the process",
    },
}

MAIN_OPS = ("run", "sweep", "instantiate")

# Per-layer time metric: (span names, operation kinds whose spans count).
# Each value is the inclusive time of the outermost spans, summed per round.
LAYER_TIMES = {
    "dsl.parse_s": (("dsl.parse_model",), MAIN_OPS),
    "model.validate_s": (("model.validate_model",), MAIN_OPS),
    "diagram.check_s": (("diagram.check_encodable",), MAIN_OPS),
    "diagram.interactions_s": (("diagram.diagram_interactions",), MAIN_OPS),
    "connector.interactions_s": (("connector.motif_connector_interactions",), MAIN_OPS),
    "diagram.sweep_s": (("diagram.proposition_sweep",), MAIN_OPS),
    "diagram.enumerate_s": (("diagram.enumerate_configurations",), ("instantiate",)),
    "encoder.encode_s": (("encoder.encode_macros",), MAIN_OPS),
    "logic.allowed_s": (("logic.allowed_interactions",), MAIN_OPS),
    "logic.ground_s": (
        ("logic.expand_require", "logic.expand_accept", "logic.instantiate_foil"),
        MAIN_OPS,
    ),
    "logic.satisfy_s": (("logic.satisfying_interactions",), MAIN_OPS),
    "engine.trace_json_s": (("engine.trace_to_json",), MAIN_OPS),
    "engine.replay_s": (("engine.replay_validate",), ("replay",)),
    "engine.script_load_s": (("engine.EventScript.from_json",), MAIN_OPS),
    "engine.init_s": (("engine.init_state",), MAIN_OPS),
}

# Per-layer metric: unit.  Reported on every workload, 0 where the layer does no work.
PER_LAYER = {
    **{name: "s" for name in LAYER_TIMES},
    "cli.self_s": "s",
    "engine.cycle_us": "us",
    "engine.enabled_ports_us": "us",
    "diagram.allowed_size": "count",
    "logic.universe_ports": "count",
    "engine.fired": "count",
    "engine.idle": "count",
    "engine.spontaneous": "count",
    "engine.internal": "count",
    "engine.trace_bytes": "bytes",
    "engine.busy_share": "share",
    "diagram.configurations": "count",
    "diagram.disagreements": "count",
    "trace.overhead_s": "s",
    "trace.overhead_share": "share",
}


# The time the calibration task takes at the reference speed.  Every timed
# sample is scaled by CALIBRATION_REFERENCE_S / (the calibration time measured
# just before it), so the time metrics read as seconds at the reference speed
# however fast the shared host runs at that moment (see METRICS.md).
CALIBRATION_REFERENCE_S = 0.005
CALIBRATION_NAMES = tuple(f"Inst#{i}.port{j}" for i in range(64) for j in range(4))


def calibrate() -> float:
    """Time a fixed pure-Python task shaped like bipkit's own work: a dict
    keyed by port names, frozensets of ports, a sort.  Returns seconds."""
    start = time.perf_counter()
    names = CALIBRATION_NAMES
    table: dict[str, int] = {}
    for step in range(20):
        for k, name in enumerate(names):
            table[name] = (table.get(name, 0) + k * step) % 97
        {frozenset(names[i:i + 3]) for i in range(0, len(names) - 3, 2)}
        sorted(table.items(), key=lambda kv: (kv[1], kv[0]))
    return time.perf_counter() - start


def sha256(data: bytes | str) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


@dataclass
class Round:
    """Samples of one round; counts and digests must repeat exactly.  Each
    sample keeps the time of the calibration task run just before it."""

    seconds: float = 0.0
    setup: list[tuple[float, float]] = field(default_factory=list)  # (wall s, calibration s)
    main: list[tuple[int, float, float]] = field(default_factory=list)  # (units, wall s, cal. s)
    second: list[tuple[int, float, float]] = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    digests: dict = field(default_factory=dict)


class Run:
    """Operations of one benchmark run: failure ledger and operation ids."""

    def __init__(self, bipkit, tracer: tracing.Tracer):
        self.bipkit = bipkit
        self.cli_module = bipkit.cli
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.ops: list[tuple[int, str]] = []  # op id -> (round, kind)
        self.round = 0
        self.calibration = 0.0  # seconds the calibration task took before the last operation

    def record(self, label: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"FAILED {label} (round {self.round}): " + "; ".join(problems), file=sys.stderr)
        return not problems

    def _begin(self, kind: str) -> None:
        self.ops.append((self.round, kind))
        self.tracer.op = len(self.ops) - 1
        gc.collect()
        self.calibration = calibrate()

    def cli(self, kind: str, argv: list[str]) -> tuple[float, str, list[str]]:
        """Run one CLI command; returns (wall seconds, stdout, problems)."""
        self._begin(kind)
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli_module.main(argv)
        except Exception:
            return time.perf_counter() - start, out.getvalue(), [traceback.format_exc(limit=4)]
        seconds = time.perf_counter() - start
        problems = [] if code == 0 else [f"exit code {code}: {err.getvalue().strip()[:500]}"]
        return seconds, out.getvalue(), problems

    def call(self, kind: str, fn):
        """Run one library call; returns (result, wall seconds, problems)."""
        self._begin(kind)
        start = time.perf_counter()
        try:
            result = fn()
        except Exception:
            return None, time.perf_counter() - start, [traceback.format_exc(limit=4)]
        return result, time.perf_counter() - start, []


# ---- engine workloads: run, then replay -----------------------------------


def trace_counts(trace: dict, nbytes: int) -> dict:
    cycles = trace["cycles"]
    return {
        "engine.cycles": len(cycles),
        "engine.fired": sum(c["interaction"] is not None for c in cycles),
        "engine.idle": sum(bool(c["idle"]) for c in cycles),
        "engine.spontaneous": sum(len(c["spontaneous"]) for c in cycles),
        "engine.internal": sum(len(c["internal"]) for c in cycles),
        "engine.trace_bytes": nbytes,
    }


def check_states(trace: dict, initial: dict[str, str]) -> tuple[list[str], list[dict]]:
    """Follow every record's from/to through the cycles.  Returns problems and
    the state after each cycle (instance id -> state; only changed entries)."""
    state = dict(initial)
    changes = []
    for c in trace["cycles"]:
        changed = {}
        for r in [*c["spontaneous"], *(c["interaction"] or ()), *c["internal"]]:
            if state.get(r["instance"]) != r["from"]:
                return [f"cycle {c['cycle']}: {r['instance']} leaves {r['from']} "
                        f"but was in {state.get(r['instance'])}"], changes
            state[r["instance"]] = changed[r["instance"]] = r["to"]
        idle = not c["spontaneous"] and c["interaction"] is None and not c["internal"]
        if bool(c["idle"]) != idle:
            return [f"cycle {c['cycle']}: idle flag {c['idle']} contradicts its records"], changes
        changes.append(changed)
    return [], changes


def check_mutex(trace: dict, n: int) -> list[str]:
    """At most one Process is using, and Manager is busy exactly when one is."""
    initial = {"Manager#1": "free", **{f"Process#{i}": "idle" for i in range(1, n + 1)}}
    problems, changes = check_states(trace, initial)
    state = dict(initial)
    using = 0
    for index, changed in enumerate(changes):
        for key, value in changed.items():
            if key.startswith("Process#"):
                using += (value == "using") - (state[key] == "using")
            state[key] = value
        if using > 1 or (state["Manager#1"] == "busy") != (using == 1):
            return problems + [f"cycle {index}: {using} processes using, "
                               f"manager {state['Manager#1']}"]
    return problems


def check_routes(trace: dict, n: int) -> list[str]:
    """Every interaction is on/add, a lone off, or finished/rm of one route;
    every spontaneous record is a route's end event."""
    initial = {"Monitor#1": "watching", **{f"Route#{i}": "off" for i in range(1, n + 1)}}
    problems, _ = check_states(trace, initial)
    routes = {f"Route#{i}" for i in range(1, n + 1)}
    for c in trace["cycles"]:
        if c["interaction"] is not None:
            ports = {(r["instance"], r["port"]) for r in c["interaction"]}
            route = {i for i, _ in ports} - {"Monitor#1"}
            shapes = [{(r, "on"), ("Monitor#1", "add")} for r in route]
            shapes += [{(r, "off")} for r in route]
            shapes += [{(r, "finished"), ("Monitor#1", "rm")} for r in route]
            if len(route) != 1 or not route <= routes or ports not in shapes:
                problems.append(f"cycle {c['cycle']}: unexpected interaction {sorted(ports)}")
        for r in c["spontaneous"]:
            if r["event"] != "end" or r["instance"] not in routes:
                problems.append(f"cycle {c['cycle']}: unexpected spontaneous record {r}")
    return problems


def route_events(rng: random.Random, n: int, cycles: int) -> str:
    """Each cycle: two `end` events and two `finished` guard writes on
    uniformly drawn routes."""
    entries = [
        {
            "events": [{"target": f"Route#{rng.randint(1, n)}", "event": "end"} for _ in range(2)],
            "guards": [
                {"target": f"Route#{rng.randint(1, n)}", "guard": "finished",
                 "value": rng.random() < 0.5}
                for _ in range(2)
            ],
        }
        for _ in range(cycles)
    ]
    return json.dumps({"schema": 1, "cycles": entries}, indent=1, sort_keys=True) + "\n"


class EngineWorkload:
    kind = "engine"

    def __init__(self, name, model, n, cycles, policy, source, check, setup_repeats,
                 replay_repeats=1, events=False, check_allowed=False):
        self.name, self.model, self.n, self.cycles = name, model, n, cycles
        self.policy, self.source, self.check = policy, source, check
        self.setup_repeats, self.replay_repeats = setup_repeats, replay_repeats
        self.events, self.check_allowed = events, check_allowed

    def prepare(self, bipkit, seed: int, out: Path) -> dict:
        """Generate the inputs from the seed; parse what replay needs."""
        rng = random.Random(seed)
        self.engine_seed = rng.getrandbits(32)
        self.trace_path = out / "trace.json"
        self.setup_trace_path = out / "setup-trace.json"
        self.model_path = MODELS / self.model
        self.binding = {"n": self.n}
        self.diagram = bipkit.load_model(self.model_path)
        self.script = None
        inputs = {"engine_seed": self.engine_seed}
        if self.events:
            text = route_events(rng, self.n, self.cycles)
            self.events_path = out / "events.json"
            self.events_path.write_text(text, encoding="utf-8")
            self.script = bipkit.EventScript.from_json(text)
            inputs["events_sha256"] = sha256(text)
        return inputs

    def argv(self, cycles: int, out: Path) -> list[str]:
        argv = ["run", str(self.model_path), "--bind", f"n={self.n}", "--cycles", str(cycles),
                "--seed", str(self.engine_seed), "--policy", self.policy,
                "--source", self.source, "--out", str(out), "--force"]
        if self.events:
            argv += ["--events", str(self.events_path)]
        return argv

    def round(self, run: Run) -> Round:
        result = Round()
        for _ in range(self.setup_repeats):
            seconds, _, problems = run.cli("setup", self.argv(0, self.setup_trace_path))
            if run.record("setup", problems):
                result.setup.append((seconds, run.calibration))

        seconds, stdout, problems = run.cli("run", self.argv(self.cycles, self.trace_path))
        trace = None
        if not problems:
            data = self.trace_path.read_bytes()
            trace = json.loads(data)
            result.counts = trace_counts(trace, len(data))
            result.digests["trace"] = sha256(data)
            problems = self.check_run(trace, stdout, result.counts)
        if run.record("run", problems):
            result.main.append((self.cycles, seconds, run.calibration))

        bipkit = run.bipkit
        for _ in range(self.replay_repeats):
            if trace is None:
                run.record("replay", ["no trace to replay"])
                continue
            stats, seconds, problems = run.call(
                "replay",
                lambda: bipkit.replay_validate(trace, self.diagram, self.binding,
                                               script=self.script),
            )
            expected = {"interactions": result.counts["engine.fired"],
                        "idle": result.counts["engine.idle"]}
            if not problems and stats != expected:
                problems = [f"replay statistics {stats} differ from the trace's {expected}"]
            if run.record("replay", problems):
                result.second.append((self.cycles, seconds, run.calibration))
        return result

    def check_run(self, trace: dict, stdout: str, counts: dict) -> list[str]:
        problems = []
        summary = (f"{counts['engine.cycles']} cycles, {counts['engine.fired']} interactions "
                   f"fired, {counts['engine.idle']} idle")
        if not stdout.startswith(summary + "\n"):
            problems.append(f"summary line {stdout.splitlines()[:1]} != {summary!r}")
        header = (trace["binding"], trace["seed"], trace["policy"], counts["engine.cycles"])
        if header != (self.binding, self.engine_seed, self.policy, self.cycles):
            problems.append(f"trace header {header} does not match the command")
        return problems + self.check(trace, self.n)

    def finish(self, run: Run) -> None:
        """Run-level checks made once, after the timed rounds."""
        if not self.check_allowed:
            return
        bipkit, d = run.bipkit, self.diagram

        def same_allowed_sets():
            spec = bipkit.encode_macros(d)
            counts = {ct.name: ct.cardinality.evaluate(self.binding) for ct in d.component_types}
            macro = bipkit.allowed_interactions(spec.requires, spec.accepts, counts)
            return macro == bipkit.diagram_interactions(d, self.binding)

        same, _, problems = run.call("check", same_allowed_sets)
        if not problems and not same:
            problems = ["macro-derived allowed set differs from diagram_interactions"]
        run.record("allowed-set check", problems)

    def enabled_ports_us(self, run: Run) -> float:
        """Median time of enabled_ports on the initial state, in microseconds."""
        bipkit = run.bipkit
        state = bipkit.init_state(self.diagram, self.binding)
        samples = []
        deadline = time.perf_counter() + 0.3
        while len(samples) < 5 or time.perf_counter() < deadline:
            start = time.perf_counter()
            bipkit.enabled_ports(state, self.diagram)
            samples.append(time.perf_counter() - start)
        return statistics.median(samples) * 1e6


# ---- the oracle workload: sweep and exhaustive instantiation --------------


def predicted_unique(ends: list[tuple[int, int, int]]) -> bool:
    """The closed-form uniqueness conditions, recomputed independently."""
    connectors = math.prod(math.comb(n, m) for n, m, _ in ends)
    return all(m <= n and Fraction(n * d, m) == connectors for n, m, d in ends)


def check_sweep(stdout: str, bound: int) -> tuple[list[str], int]:
    """Every point's predicted verdict and agreement marker, recomputed."""
    lines = stdout.splitlines()
    points = bound**3 + bound**6
    problems, disagreements = [], 0
    if len(lines) != points + 1:
        return [f"{len(lines) - 1} sweep lines, expected {points}"], 0
    for line in lines[:-1]:
        label, _, verdict = line.partition(": ")
        count, predicted, marker = verdict.split()
        values = [int(part.split("=")[1]) for part in label.replace("|", " ").split()]
        ends = [tuple(values[i:i + 3]) for i in range(0, len(values), 3)]
        expected = predicted_unique(ends)
        agree = (int(count.removeprefix("count=")) == 1) == expected
        disagreements += not agree
        marker_expected = "ok" if agree else "DISAGREES"
        if predicted != f"unique-predicted={expected}" or marker != marker_expected:
            problems.append(f"sweep line {line!r} contradicts the closed form")
    if lines[-1] != f"{points} points, {disagreements} disagreements" or disagreements:
        problems.append(f"sweep summary {lines[-1]!r}, {disagreements} disagreements recomputed")
    return problems, disagreements


def check_matchings(stdout: str, n: int) -> tuple[list[str], int]:
    """Exactly n! distinct configurations, each a perfect T1/T2 matching."""
    lines = stdout.splitlines()
    configurations = set()
    expected_ports = sorted([f"T1.p#{i}" for i in range(1, n + 1)]
                            + [f"T2.q#{i}" for i in range(1, n + 1)])
    for line in lines[:-1]:
        connectors = line.partition(": ")[2].split("} {")
        ports = sorted(p for c in connectors for p in c.strip("{}").split())
        if len(connectors) != n or ports != expected_ports:
            return [f"not a perfect matching: {line!r}"], len(configurations)
        configurations.add(frozenset(connectors))
    count = math.factorial(n)
    problems = []
    if len(configurations) != count or len(lines) != count + 1:
        problems.append(f"{len(configurations)} distinct configurations, expected {count}")
    if lines[-1:] != [f"{count} configurations"]:
        problems.append(f"summary {lines[-1:]} != {count} configurations")
    return problems, len(configurations)


class OracleWorkload:
    kind = "oracle"
    bound = 3
    n = 6
    setup_repeats = 5

    def __init__(self, name):
        self.name = name
        self.model_path = MODELS / "ambiguous_pairing.bip"

    def prepare(self, bipkit, seed: int, out: Path) -> dict:
        return {"note": "no random input: the sweep and the enumeration are exhaustive"}

    def instantiate(self, limit: int) -> list[str]:
        return ["instantiate", str(self.model_path), "--bind", f"n={self.n}",
                "--limit", str(limit)]

    def round(self, run: Run) -> Round:
        result = Round()
        for _ in range(self.setup_repeats):
            seconds, stdout, problems = run.cli("setup", self.instantiate(1))
            if not problems and not stdout.endswith("\n1 configuration (truncated)\n"):
                problems = [f"unexpected output {stdout[-80:]!r}"]
            if run.record("setup", problems):
                result.setup.append((seconds, run.calibration))

        seconds, stdout, problems = run.cli("sweep", ["oracle", "--sweep", f"n,m,d<={self.bound}"])
        if not problems:
            problems, result.counts["diagram.disagreements"] = check_sweep(stdout, self.bound)
            result.digests["sweep"] = sha256(stdout)
        if run.record("sweep", problems):
            result.main.append((self.bound**3 + self.bound**6, seconds, run.calibration))

        seconds, stdout, problems = run.cli("instantiate", self.instantiate(10000))
        if not problems:
            problems, result.counts["diagram.configurations"] = check_matchings(stdout, self.n)
            result.digests["instantiate"] = sha256(stdout)
        if run.record("instantiate", problems):
            result.second.append((result.counts["diagram.configurations"], seconds,
                                  run.calibration))
        return result

    def finish(self, run: Run) -> None:
        pass


WORKLOADS = {
    w.name: w
    for w in (
        EngineWorkload("mutex_n200", "mutex.bip", 200, 200, "uniform-random", "diagram",
                       check_mutex, setup_repeats=5),
        EngineWorkload("routes_events_n100", "switchable_routes.bip", 100, 200,
                       "lexicographic-first", "diagram", check_routes, setup_repeats=5,
                       events=True),
        EngineWorkload("macros_routes_n4", "switchable_routes.bip", 4, 200, "uniform-random",
                       "macros", check_routes, setup_repeats=1, replay_repeats=20,
                       check_allowed=True),
        OracleWorkload("oracle_sweep"),
    )
}


# ---- measuring ------------------------------------------------------------


def measure(workload, run: Run, seconds: float, traced_mode: bool) -> list[tuple[bool, Round]]:
    """Rounds until the time is spent; in trace mode every second one is traced."""
    rounds: list[tuple[bool, Round]] = []
    start = time.perf_counter()
    while True:
        traced = traced_mode and len(rounds) % 2 == 1
        run.round = len(rounds)
        began = time.perf_counter()
        if traced:
            run.tracer.install()
        try:
            result = workload.round(run)
        finally:
            if traced:
                run.tracer.uninstall()
        result.seconds = time.perf_counter() - began
        rounds.append((traced, result))
        typical = statistics.median(r.seconds for _, r in rounds)
        if len(rounds) >= MIN_ROUNDS and time.perf_counter() - start + typical > seconds:
            return rounds


def check_repeats(run: Run, rounds: list[tuple[bool, Round]], inputs: dict,
                  golden: dict | None) -> None:
    """Counts and output digests repeat exactly across rounds and match the
    stored digests where some are stored for this seed."""
    first = rounds[0][1]
    for index, (_, r) in enumerate(rounds[1:], start=1):
        run.round = index
        problems = []
        if r.digests != first.digests:
            problems.append(f"outputs differ from round 0: {r.digests} vs {first.digests}")
        if r.counts != first.counts:
            problems.append(f"counts differ from round 0: {r.counts} vs {first.counts}")
        run.record("determinism", problems)
    if golden is not None:
        run.round = 0
        observed = {**first.digests, **inputs}
        wrong = {k: observed.get(k) for k, v in golden.items() if observed.get(k) != v}
        problems = [f"digests differ from the stored ones: {wrong}"] if wrong else []
        run.record("golden digests", problems)


def reference_seconds(wall: float, calibration: float) -> float:
    """A wall time scaled to the reference speed of the calibration task."""
    return wall * CALIBRATION_REFERENCE_S / calibration


def median_rate(samples, scaled: bool = True) -> float:
    """Median of units per second over (units, wall, calibration) samples."""
    rates = [units / (reference_seconds(wall, cal) if scaled else wall)
             for units, wall, cal in samples]
    return statistics.median(rates) if rates else 0.0


def end_to_end_metrics(rounds) -> dict:
    setup = [reference_seconds(wall, cal) for _, r in rounds for wall, cal in r.setup]
    return {
        "setup_s": statistics.median(setup) if setup else 0.0,
        "cycles_or_verdicts_per_s": median_rate([s for _, r in rounds for s in r.main]),
        "replay_or_configs_per_s": median_rate([s for _, r in rounds for s in r.second]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer_metrics(workload, run: Run, rounds) -> tuple[dict, dict]:
    """Per-layer metrics from the spans of the traced rounds.  Returns the
    metrics and a per-span-name summary of self times."""
    spans = run.tracer.spans
    selfs = tracing.self_times(spans)
    by_op: dict[int, list[int]] = {}
    for index, span in enumerate(spans):
        by_op.setdefault(span[tracing.OP], []).append(index)

    def per_op_median(kind, value) -> float:
        """Median of value(spans of one operation) over the traced operations of a kind."""
        values = [value(by_op[op]) for op in by_op if run.ops[op][1] == kind]
        return statistics.median(values) if values else 0.0

    def inclusive(names):
        return lambda op_spans: sum(
            spans[s][tracing.END] - spans[s][tracing.START] for s in op_spans
            if spans[s][tracing.NAME] in names and tracing.outermost(spans, s))

    def self_time(name):
        return lambda op_spans: sum(selfs[s] for s in op_spans if spans[s][tracing.NAME] == name)

    metrics = {name: sum(per_op_median(kind, inclusive(names)) for kind in kinds)
               for name, (names, kinds) in LAYER_TIMES.items()}
    metrics["cli.self_s"] = sum(per_op_median(kind, self_time("cli.main")) for kind in MAIN_OPS)
    metrics["engine.cycle_us"] = 0.0
    metrics["engine.enabled_ports_us"] = 0.0
    if workload.kind == "engine":
        full, empty = (per_op_median(kind, self_time("engine.run")) for kind in ("run", "setup"))
        metrics["engine.cycle_us"] = (full - empty) / workload.cycles * 1e6
        metrics["engine.enabled_ports_us"] = workload.enabled_ports_us(run)

    def boundary_count(names):
        counts = {spans[s][tracing.COUNT] for op, op_spans in by_op.items()
                  if run.ops[op][1] in MAIN_OPS for s in op_spans
                  if spans[s][tracing.NAME] in names and tracing.outermost(spans, s)}
        if len(counts) > 1:
            run.record("determinism", [f"{names} counts differ across rounds: {sorted(counts)}"])
        return max(counts, default=0)

    metrics["diagram.allowed_size"] = boundary_count(
        ("diagram.diagram_interactions", "logic.allowed_interactions"))
    metrics["logic.universe_ports"] = boundary_count(("logic.satisfying_interactions",))

    counts = rounds[0][1].counts
    for name in ("engine.fired", "engine.idle", "engine.spontaneous", "engine.internal",
                 "engine.trace_bytes", "diagram.configurations", "diagram.disagreements"):
        metrics[name] = counts.get(name, 0)
    cycles = counts.get("engine.cycles", 0)
    metrics["engine.busy_share"] = (cycles - counts["engine.idle"]) / cycles if cycles else 0.0

    def main_wall(r: Round) -> float:
        return sum(reference_seconds(wall, cal) for _, wall, cal in r.main + r.second)

    untraced = [main_wall(r) for t, r in rounds if not t]
    with_spans = [main_wall(r) for t, r in rounds if t]
    overhead = statistics.median(with_spans) - statistics.median(untraced) if with_spans else 0.0
    metrics["trace.overhead_s"] = overhead
    metrics["trace.overhead_share"] = overhead / statistics.median(untraced) if untraced else 0.0

    summary: dict[str, dict] = {}
    for index, span in enumerate(spans):
        entry = summary.setdefault(span[tracing.NAME], {"calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += selfs[index]
    return metrics, summary


# ---- run environment ------------------------------------------------------


def git_commit(root: Path) -> str | None:
    """The checked-out commit, read from .git without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        loose = root / ".git" / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    files = sorted(p for p in (SRC / "bipkit").rglob("*") if p.suffix in (".py", ".bip"))
    digest = hashlib.sha256()
    for path in files:
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "commit": git_commit(ROOT),
        "src_sha256": source_digest(),
        "seed": seed,
    }


# ---- entry points ---------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, traced_mode: bool) -> int:
    sys.path.insert(0, str(SRC))
    import bipkit
    import bipkit.cli  # noqa: F401  (the entry point the workloads call)

    workload = WORKLOADS[name]
    out = OUT / name
    out.mkdir(parents=True, exist_ok=True)
    env = environment(seed)
    run = Run(bipkit, tracing.Tracer())
    env["inputs"] = workload.prepare(bipkit, seed, out)

    rounds = measure(workload, run, seconds, traced_mode)
    golden = json.loads(GOLDEN.read_text()).get(name, {})
    stored = golden.get("*", golden.get(str(seed)))
    check_repeats(run, rounds, env["inputs"], stored)
    workload.finish(run)
    env["golden"] = "checked" if stored is not None else f"none stored for seed {seed}"
    env["digests"] = rounds[0][1].digests
    env["rounds"] = len(rounds)

    if traced_mode:
        metrics, summary = per_layer_metrics(workload, run, rounds)
        units = PER_LAYER
        env["traced_rounds"] = sum(t for t, _ in rounds)
        env["tracing_overhead_s"] = metrics["trace.overhead_s"]
        env["tracing_overhead_share"] = metrics["trace.overhead_share"]
        spans_path = out / f"spans-seed{seed}.json"
        selfs = tracing.self_times(run.tracer.spans)
        spans_path.write_text(json.dumps({
            "fields": ["op", "id", "parent", "name", "start", "end", "count", "self"],
            "ops": [{"round": r, "kind": k} for r, k in run.ops],
            "spans": [s + [selfs[i]] for i, s in enumerate(run.tracer.spans)],
        }))
        print(f"{name}: self time per span name, summed over {env['traced_rounds']} traced "
              f"round(s) (all spans in {spans_path.relative_to(ROOT)})")
        for span_name, entry in sorted(summary.items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"  {span_name:<40} {entry['calls']:>8} calls {entry['self_s']:>12.6f} s self")
    else:
        metrics, units = end_to_end_metrics(rounds), END_TO_END
        env["tracing_overhead_s"] = "measured by --trace 1 runs"
    env["loadavg_end"] = os.getloadavg()

    setup = [wall for _, r in rounds for wall, _ in r.setup]
    main = [s for _, r in rounds for s in r.main]
    second = [s for _, r in rounds for s in r.second]
    calibration = [cal for _, r in rounds for *_, cal in r.setup + r.main + r.second]
    sample_notes = {
        "setup_s": f"median of {len(setup)}; unscaled {statistics.median(setup or [0]):.6f}",
        "cycles_or_verdicts_per_s": f"median of {len(main)}; unscaled "
                                    f"{median_rate(main, scaled=False):.3f}",
        "replay_or_configs_per_s": f"median of {len(second)}; unscaled "
                                   f"{median_rate(second, scaled=False):.3f}",
    }
    env["calibration_median_s"] = statistics.median(calibration) if calibration else None
    print(f"workload {name}  seed {seed}  trace {int(traced_mode)}  rounds {len(rounds)}")
    if not traced_mode and env["calibration_median_s"]:
        print(f"  times are scaled to the reference speed: calibration task "
              f"{CALIBRATION_REFERENCE_S * 1e3:g} ms, median here "
              f"{env['calibration_median_s'] * 1e3:.3f} ms")
    for metric, value in metrics.items():
        if traced_mode:
            note = ""
        else:
            note = RATE_MEANING[workload.kind][metric]
            if metric in sample_notes:
                note += f", {sample_notes[metric]}"
        print(f"  {metric:<28} {value:>16.6f} {units[metric]:<6} {note}")
    print(f"  {'failed_share':<28} {run.failed / run.attempted:>16.6f} {'share':<6} "
          f"{run.failed} failed of {run.attempted} operations")
    print("env " + json.dumps(env, sort_keys=True))

    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()},
    }
    (out / f"result-seed{seed}-trace{int(traced_mode)}.json").write_text(
        json.dumps({"env": env, "result": result,
                    "rounds": [{"traced": t, **r.__dict__} for t, r in rounds]},
                   indent=1, sort_keys=True))
    print(json.dumps(result))
    return 0


def run_all(seed: int, seconds: float, traced_mode: bool) -> int:
    """Every workload in its own child process, one after the other."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed",
             str(seed), "--seconds", str(seconds), "--trace", str(int(traced_mode))],
            stdout=subprocess.PIPE, text=True, timeout=900, check=False,
        )
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if child.returncode != 0 or not lines:
            print(f"workload {name} exited with code {child.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            total["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "bipkit" / "__init__.py").is_file():
        print(f"bench: no bipkit sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
