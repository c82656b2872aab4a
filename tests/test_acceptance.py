"""Acceptance suite: one test per criterion, exact tolerances, timed.

Each test prints a PASS line on success (run pytest with -s or read the
captured output); a failure raises normally.  All comparisons are exact set
or structural equality; the runtime ceilings come from the acceptance
contract and are asserted, not just aspirational.
"""

from __future__ import annotations

import random
import time
import xml.etree.ElementTree as ET

from bipkit import diagram as dg
from bipkit.connector import inner, interaction_set, leaf
from bipkit.encoder import emit_macros_text, emit_xml, encode_macros
from bipkit.engine import EngineConfig, replay_validate, run, trace_to_json
from bipkit.model import SYNCHRON, TRIGGER
from helpers import (
    in_encoder_envelope,
    iter_typed_motif_space,
    macro_interactions,
    pi,
    ports_only,
    random_encodable_diagram,
    single_motif_diagram,
)


class Timer:
    def __init__(self, budget_seconds: float):
        self.budget = budget_seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.monotonic() - self.start
        if exc == (None, None, None):
            assert self.elapsed < self.budget, (
                f"runtime {self.elapsed:.2f}s exceeded the {self.budget}s budget"
            )
        return False


def report(criterion: str, timer: Timer) -> None:
    print(f"PASS {criterion} ({timer.elapsed:.2f}s)")


def test_criterion_1_connector_golden_suite():
    with Timer(1.0) as timer:
        s, r1, r2 = pi("X", 1, "s"), pi("X", 1, "r1"), pi("X", 1, "r2")
        cases = [
            ([leaf(s), leaf(r1), leaf(r2)], {"r11 r21 s1"}),
            (
                [leaf(s, TRIGGER), leaf(r1), leaf(r2)],
                {"s1", "r11 s1", "r21 s1", "r11 r21 s1"},
            ),
            ([leaf(s), inner(TRIGGER, [leaf(r1), leaf(r2)])], {"r11 r21", "r11 r21 s1"}),
            (
                [leaf(s, TRIGGER), inner(SYNCHRON, [leaf(r1), leaf(r2)])],
                {"s1", "r11 r21 s1"},
            ),
            (
                [leaf(s, TRIGGER), inner(SYNCHRON, [leaf(r1, TRIGGER), leaf(r2)])],
                {"s1", "r11 s1", "r11 r21 s1"},
            ),
        ]
        for children, expected in cases:
            assert ports_only(interaction_set(children)) == expected

        p, q1, q2 = pi("T1", 1, "p"), pi("T2", 1, "q"), pi("T2", 2, "q")
        fanin = interaction_set([leaf(p, SYNCHRON), leaf(q1, TRIGGER), leaf(q2, TRIGGER)])
        assert ports_only(fanin) == {"q1", "q2", "q1 q2", "p1 q1", "p1 q2", "p1 q1 q2"}
    report("criterion 1: connector semantics golden suite", timer)


def test_criterion_2_enumeration_golden_suite(ambiguous_pairing, complete_pairing,
                                              broadcast_pair):
    with Timer(1.0) as timer:
        result = dg.enumerate_configurations(
            ambiguous_pairing, ambiguous_pairing.motifs[0], {"n": 2}
        )
        got = [{str(c) for c in conf} for conf in result.configurations]
        assert got == [
            {"{T1.p#1 T2.q#1}", "{T1.p#2 T2.q#2}"},
            {"{T1.p#1 T2.q#2}", "{T1.p#2 T2.q#1}"},
        ]

        result = dg.enumerate_configurations(
            complete_pairing, complete_pairing.motifs[0], {"n": 2}
        )
        got = [{str(c) for c in conf} for conf in result.configurations]
        assert got == [
            {"{T1.p#1 T2.q#1}", "{T1.p#1 T2.q#2}", "{T1.p#2 T2.q#1}", "{T1.p#2 T2.q#2}"}
        ]

        result = dg.enumerate_configurations(
            broadcast_pair, broadcast_pair.motifs[0], {"n1": 1, "n2": 2}
        )
        got = [{str(c) for c in conf} for conf in result.configurations]
        assert got == [{"{T1.p#1 T2.q#1^ T2.q#2^}"}]
    report("criterion 2: configuration enumeration golden suite", timer)


def test_criterion_3_uniqueness_condition_machine_check():
    with Timer(60.0) as timer:
        records = dg.proposition_sweep(3)
        assert len(records) == 27 + 27 * 27
        disagreements = [r for r in records if not r.agree]
        assert disagreements == [], disagreements[:5]
    report(
        f"criterion 3: brute-force uniqueness matches the conditions at "
        f"{len(records)} sweep points",
        timer,
    )


def test_criterion_4_macro_encoding_goldens(star, routes):
    with Timer(1.0) as timer:
        star_lines = {
            " ".join(line.split())
            for line in emit_macros_text(encode_macros(star)).strip().splitlines()
        }
        assert star_lines == {
            "C.p Require S.q",
            "C.p Accept S.q",
            "S.q Require C.p",
            "S.q Accept C.p",
        }

        root = ET.fromstring(emit_xml(encode_macros(routes)))
        blocks: dict[tuple[str, str, str], list[set[tuple[str, str]]]] = {}
        for element in root:
            effect = element.find("effect")
            key = (element.tag, effect.get("id"), effect.get("specType"))
            blocks[key] = [
                {(p.get("id"), p.get("specType")) for p in causes.findall("port")}
                for causes in element.findall("causes")
            ]
        assert blocks[("require", "on", "Route")] == [{("add", "Monitor")}]
        assert blocks[("accept", "on", "Route")] == [{("add", "Monitor")}]
        assert blocks[("require", "add", "Monitor")] == [{("on", "Route")}]
        assert blocks[("accept", "add", "Monitor")] == [{("on", "Route")}]
        assert blocks[("require", "off", "Route")] == [set()]
        assert blocks[("accept", "off", "Route")] == [set()]
    report("criterion 4: macro text and glue XML goldens", timer)


def test_criterion_5_encoder_semantics_equivalence(star, routes, mutex, broadcast_pair,
                                                   complete_pairing):
    with Timer(120.0) as timer:
        bundled = [
            (star, {"n": 3}),
            (broadcast_pair, {"n1": 1, "n2": 2}),
            (complete_pairing, {"n": 2}),
            (routes, {"n": 2}),
            (routes, {"n": 3}),
            (mutex, {"n": 2}),
            (mutex, {"n": 3}),
        ]
        for d, binding in bundled:
            assert macro_interactions(d, binding) == dg.diagram_interactions(d, binding), (
                d.name,
                binding,
            )

        rng = random.Random(0xB1BC0DE)
        accepted = 0
        while accepted < 100:
            d = random_encodable_diagram(rng)
            if d is None:
                continue
            assert dg.check_encodable(d, {}).overall
            assert macro_interactions(d, {}) == dg.diagram_interactions(d, {}), d
            accepted += 1
    report(
        "criterion 5: macro semantics equal connector semantics "
        "(bundled + 100 randomized)",
        timer,
    )


def test_criterion_6_engine_safety_and_determinism(routes, mutex):
    with Timer(10.0) as timer:
        binding = {"n": 2}
        for cycles in (10, 200):
            config = EngineConfig(cycles=cycles, seed=42)
            trace = run(routes, binding, config)
            again = run(routes, binding, config)
            assert trace_to_json(trace) == trace_to_json(again)
            stats = replay_validate(trace, routes, binding)
            assert stats["interactions"] >= 1

        for seed in range(5):
            trace = run(mutex, binding, EngineConfig(cycles=200, seed=seed))
            replay_validate(trace, mutex, binding)
            current = {"Process#1": "idle", "Process#2": "idle"}
            for cycle in trace["cycles"]:
                for record in cycle["interaction"] or ():
                    if record["instance"] in current:
                        current[record["instance"]] = record["to"]
                assert list(current.values()).count("using") <= 1
    report("criterion 6: engine replay validation, determinism, mutual exclusion", timer)


def test_criterion_7_exhaustive_envelope_cross_check():
    """No quantitative tables exist to reproduce; in their place, the
    equivalence property is checked exhaustively over every encodable
    single-motif diagram shape within the sweep bounds and encoder envelope."""
    with Timer(120.0) as timer:
        checked = 0
        for specs, typings in iter_typed_motif_space(3):
            d = single_motif_diagram(specs, typings)
            if not dg.check_encodable(d, {}).overall:
                continue
            if not in_encoder_envelope(specs, typings):
                continue
            assert macro_interactions(d, {}) == dg.diagram_interactions(d, {}), (
                specs,
                typings,
            )
            checked += 1
        assert checked > 100
    report(
        f"criterion 7: exact-semantics suites stand in for performance tables "
        f"({checked} encodable shapes verified)",
        timer,
    )
