"""Engine: instantiation, cycle semantics, determinism, replay validation."""

from __future__ import annotations

import copy
import gc
import itertools
import json
import os
import random
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bipkit import bundled_model_path, load_bundled_model
from bipkit.diagram import diagram_interactions, diagram_orbits
from bipkit.dsl import parse_model
from bipkit.engine import (
    DIAGRAM_SOURCE,
    POLICIES,
    CompiledSystem,
    EngineConfig,
    EventScript,
    LEXICOGRAPHIC_FIRST,
    MACRO_SOURCE,
    ReplayError,
    ScriptEntry,
    SplitMix64,
    UNIFORM_RANDOM,
    _orbits,
    _script_entry,
    _transition_tables,
    _unrank,
    _well_formed_entry,
    enabled_ports,
    init_state,
    instance_id,
    replay_validate,
    run,
    trace_to_json,
)
from bipkit.errors import BipError, EncodabilityError, LivelockError, ScriptError
from bipkit.model import INTERNAL, PortTypeRef
from helpers import (
    BROADCAST,
    PAIRS,
    SHARED_TYPE,
    TWO_LOCKS,
    feasible_spec,
    follow,
    pi,
    pick_spec,
    sorted_allowed,
)


def test_splitmix64_reference_values():
    # first outputs for seed 1234567: fixed by the documented algorithm
    rng = SplitMix64(1234567)
    first = [rng.next_u64() for _ in range(3)]
    assert first == [6457827717110365317, 3203168211198807973, 9817491932198370423]
    assert all(0 <= v < 2**64 for v in first)


def test_init_state(routes):
    state = init_state(routes, {"n": 2})
    assert sorted(state) == ["Monitor#1", "Route#1", "Route#2"]
    assert state["Route#1"].current == "off"
    assert state["Route#2"].current == "off"
    assert state["Monitor#1"].current == "watching"
    assert state["Route#1"].guards == {"finished": False}
    assert state["Route#1"].queue == []


def test_init_state_is_the_instance_mapping_in_canonical_order():
    # declared Z before A; indices order as numbers, so Z#10 follows Z#9
    d = parse_model(
        """
diagram Order {
  component Z [n] {
    ports { p }
    states { a* }
    transitions { p: a -> a }
  }
  component A [1] {
    ports { p }
    states { a* }
    transitions { p: a -> a }
  }
}
"""
    )
    state = init_state(d, {"n": 10})
    assert type(state) is dict
    assert list(state) == ["A#1"] + [f"Z#{i}" for i in range(1, 11)]
    assert [(inst.type_name, inst.index) for inst in state.values()] == [
        ("A", 1), *(("Z", i) for i in range(1, 11))
    ]


def test_init_state_zero_cardinality(routes):
    state = init_state(routes, {"n": 0})
    assert sorted(state) == ["Monitor#1"]


def test_enabled_ports(routes):
    state = init_state(routes, {"n": 2})
    enabled = enabled_ports(state, routes)
    assert enabled == {
        pi("Route", 1, "on"),
        pi("Route", 2, "on"),
        pi("Monitor", 1, "add"),
        pi("Monitor", 1, "rm"),
    }
    # at "wait" only spontaneous/internal transitions leave, so no ports
    state["Route#1"].current = "wait"
    assert pi("Route", 1, "on") not in enabled_ports(state, routes)
    assert not {p for p in enabled_ports(state, routes) if p.index == 1 and
                p.component_type == "Route"}


def test_guarded_port_is_gated():
    d = parse_model(
        """
diagram G {
  component T [1] {
    ports { p }
    guards { go }
    states { a* }
    transitions { p: a -> a [go] }
  }
  motif m0 { T.p 1:1 synchron }
}
"""
    )
    state = init_state(d, {})
    assert enabled_ports(state, d) == frozenset()
    state["T#1"].guards["go"] = True
    assert enabled_ports(state, d) == {pi("T", 1, "p")}


def test_step_cycle_fires_switch_on(routes):
    binding = {"n": 2}
    orbits = diagram_orbits(routes, binding)
    system = CompiledSystem(routes, binding, orbits)
    record = system.step(None, SplitMix64(7), LEXICOGRAPHIC_FIRST)
    assert record["interaction"] is not None
    fired = {(r["instance"], r["port"]) for r in record["interaction"]}
    assert fired in ({("Route#1", "on"), ("Monitor#1", "add")},
                     {("Route#2", "on"), ("Monitor#1", "add")})
    route = "Route#1" if ("Route#1", "on") in fired else "Route#2"
    assert system.node[system.locate(route)[1]].current == "on"
    assert not record["idle"]


def test_internal_transition_fires_on_guard(routes):
    binding = {"n": 1}
    orbits = diagram_orbits(routes, binding)
    state = init_state(routes, binding)
    state["Route#1"].current = "wait"
    entry = ScriptEntry(guards=(("Route#1", "finished", True),))
    system = CompiledSystem(routes, binding, orbits, state)
    record = system.step(entry, SplitMix64(0), LEXICOGRAPHIC_FIRST)
    assert {"instance": "Route#1", "from": "wait", "to": "done"} in record["internal"]
    # from "done" the finished/rm interaction fired in the same cycle
    assert system.node[system.locate("Route#1")[1]].current in ("done", "off")


def test_spontaneous_event_consumption(routes):
    binding = {"n": 1}
    orbits = diagram_orbits(routes, binding)
    state = init_state(routes, binding)

    # the end event does not match any transition from "off": it stays queued
    entry = ScriptEntry(events=(("Route#1", "end"),))
    system = CompiledSystem(routes, binding, orbits, state)
    record = system.step(entry, SplitMix64(0), LEXICOGRAPHIC_FIRST)
    assert record["spontaneous"] == []
    follow(state, entry, record)
    assert state["Route#1"].queue == ["end"]
    assert system.queues == {system.locate("Route#1")[1]: ["end"]}

    # once the route reaches "wait" (guard still false) the queued event fires
    state["Route#1"].current = "wait"
    system = CompiledSystem(routes, binding, orbits, state)
    record = system.step(None, SplitMix64(0), LEXICOGRAPHIC_FIRST)
    assert record["spontaneous"] == [
        {"instance": "Route#1", "event": "end", "from": "wait", "to": "done"},
    ]
    follow(state, None, record)
    assert state["Route#1"].queue == []
    assert system.queues == {}


def test_empty_feasible_set_is_idle(star):
    # a lone center with zero satellites has no allowed interactions
    binding = {"n": 1}
    allowed = diagram_interactions(star, binding)
    state = init_state(star, binding)
    state["S#1"].current = "idle"
    # disable the satellite by moving it nowhere: instead run with no script
    # and an allowed set restricted to nothing
    record = CompiledSystem(star, binding, [], state).step(None, SplitMix64(0), LEXICOGRAPHIC_FIRST)
    assert record["idle"]
    assert record["interaction"] is None
    assert record["spontaneous"] == [] and record["internal"] == []


def test_livelock_detection():
    d = parse_model(
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
"""
    )
    with pytest.raises(LivelockError) as err:
        CompiledSystem(d, {}, []).step(None, SplitMix64(0), LEXICOGRAPHIC_FIRST)
    assert err.value.instance == "T#1"


def test_internal_chain_stops_at_fixpoint():
    d = parse_model(
        """
diagram Chain {
  component T [1] {
    ports { p }
    states { a*, b, c }
    transitions {
      : a -> b
      : b -> c
    }
  }
}
"""
    )
    system = CompiledSystem(d, {}, [])
    record = system.step(None, SplitMix64(0), LEXICOGRAPHIC_FIRST)
    assert [r["to"] for r in record["internal"]] == ["b", "c"]
    assert system.node[system.locate("T#1")[1]].current == "c"


def test_a_guard_write_lets_a_blocked_queue_head_fire():
    d = parse_model(
        """
diagram Gate {
  component T [1] {
    ports { p }
    events { go }
    guards { open }
    states { a*, b }
    transitions {
      go: a -> b [open]
      p: b -> b
    }
  }
}
"""
    )
    script = EventScript((ScriptEntry(events=(("T#1", "go"),)), ScriptEntry(),
                          ScriptEntry(guards=(("T#1", "open", True),))))
    trace = run(d, {}, EngineConfig(cycles=3), script=script)
    assert [c["spontaneous"] for c in trace["cycles"]] == [
        [], [], [{"instance": "T#1", "event": "go", "from": "a", "to": "b"}]
    ]


def test_run_determinism_and_replay(routes):
    binding = {"n": 2}
    config = EngineConfig(cycles=10, seed=42)
    first = run(routes, binding, config)
    second = run(routes, binding, config)
    assert trace_to_json(first) == trace_to_json(second)
    assert len(first["cycles"]) == 10
    stats = replay_validate(first, routes, binding)
    assert stats["interactions"] > 0

    different = run(routes, binding, EngineConfig(cycles=10, seed=43))
    assert trace_to_json(different) != trace_to_json(first)


def test_run_zero_cycles(routes):
    trace = run(routes, {"n": 2}, EngineConfig(cycles=0, seed=1))
    assert trace["cycles"] == []
    assert trace["schema"] == 1
    assert trace["model"] == "SwitchableRoutes"
    assert trace["binding"] == {"n": 2}


def trace_json_spec(trace: dict) -> str:
    """What trace_to_json returns, byte for byte."""
    return json.dumps(trace, indent=2, sort_keys=True) + "\n"


BUNDLED_MODELS = sorted(path.name for path in bundled_model_path("mutex.bip").parent.glob("*.bip"))


@pytest.mark.parametrize("name", BUNDLED_MODELS)
@given(n=st.integers(0, 3), cycles=st.integers(0, 12), seed=st.integers(0, 2**64 - 1),
       policy=st.sampled_from(POLICIES))
@settings(max_examples=15, deadline=None)
def test_trace_json_matches_json_dumps_on_bundled_models(name, n, cycles, seed, policy):
    # the macro source runs every bundled model, encodable or not
    d = load_bundled_model(name)
    binding = {parameter: n for parameter in d.parameters}
    trace = run(d, binding, EngineConfig(cycles, seed, policy), source=MACRO_SOURCE)
    assert trace_to_json(trace) == trace_json_spec(trace)


def test_trace_json_matches_json_dumps_on_idle_and_empty_runs(routes):
    # the route switches on, then off, then waits for an end event
    idle = run(routes, {"n": 1}, EngineConfig(cycles=4))
    assert [c["idle"] for c in idle["cycles"]] == [False, False, True, True]
    empty = run(routes, {"n": 2}, EngineConfig(cycles=0))
    for trace in (idle, empty):
        assert trace_to_json(trace) == trace_json_spec(trace)


# A few fixed strings, so that records repeat, then any text: quotes,
# backslashes, control and non-ASCII characters, surrogates.
_TEXT = st.one_of(st.sampled_from(["Route#1", "on", '"', "\\", "\u00e9", "\u2028"]), st.text())


def _records(*keys: str):
    return st.lists(st.fixed_dictionaries({key: _TEXT for key in keys}), max_size=3)


@given(st.fixed_dictionaries({
    "schema": st.integers(0, 2),
    "model": _TEXT,
    "binding": st.dictionaries(_TEXT, st.integers(0, 10**6), max_size=3),
    "seed": st.integers(0, 2**64 - 1),
    "policy": _TEXT,
    "cycles": st.lists(st.fixed_dictionaries({
        "cycle": st.integers(0, 10**5),
        "idle": st.booleans(),
        "interaction": st.none() | _records("instance", "port", "from", "to"),
        "internal": _records("instance", "from", "to"),
        "spontaneous": _records("instance", "event", "from", "to"),
    }), max_size=4),
}))
@settings(max_examples=200, deadline=None)
def test_trace_json_matches_json_dumps_on_schema_shaped_traces(trace):
    assert trace_to_json(trace) == trace_json_spec(trace)


def test_run_rejects_non_encodable(ambiguous_pairing):
    with pytest.raises(EncodabilityError):
        run(ambiguous_pairing, {"n": 2}, EngineConfig(cycles=1, seed=0))


def test_source_equivalence(routes, mutex):
    for d, binding in ((routes, {"n": 2}), (mutex, {"n": 2})):
        for seed in (0, 7):
            config = EngineConfig(cycles=25, seed=seed)
            via_diagram = run(d, binding, config, source=DIAGRAM_SOURCE)
            via_macros = run(d, binding, config, source=MACRO_SOURCE)
            assert trace_to_json(via_diagram) == trace_to_json(via_macros)


FAN3 = """
diagram Fan3 {
  component A [1] { ports { p } states { s* } transitions { p: s -> s } }
  component B [3] { ports { q } states { s* } transitions { q: s -> s } }
  motif fan { A.p 1:3 synchron; B.q 2:2 trigger }
}
"""


def test_replay_checks_a_macro_trace_against_the_macro_set():
    """Outside the encoder envelope (a trigger end of multiplicity 2 of 3)
    the macros allow more than the diagram: all three B instances may fire
    together.  Replay takes its allowed set from the source the run used."""
    d = parse_model(FAN3)
    for seed in range(4):
        trace = run(d, {}, EngineConfig(cycles=30, seed=seed), source=MACRO_SOURCE)
        assert replay_validate(trace, d, {}, source=MACRO_SOURCE) == {
            "interactions": 30, "idle": 0}
        with pytest.raises(ReplayError, match=re.escape(
                "fired interaction ['B.q#1', 'B.q#2', 'B.q#3'] is not allowed")):
            replay_validate(trace, d, {})


def test_scripted_full_route_cycle(routes):
    """Hand-written script walking one route through its whole loop."""
    binding = {"n": 1}
    script = EventScript(
        entries=(
            ScriptEntry(),  # cycle 0: on/add fires
            ScriptEntry(),  # cycle 1: off fires alone
            ScriptEntry(events=(("Route#1", "end"),)),  # cycle 2: spontaneous
            ScriptEntry(),  # cycle 3: finished/rm fires
        )
    )
    trace = run(routes, binding, EngineConfig(cycles=4, seed=0, policy=LEXICOGRAPHIC_FIRST),
                script=script)
    cycles = trace["cycles"]
    assert [r["port"] for r in cycles[0]["interaction"]] == ["add", "on"]
    assert [r["port"] for r in cycles[1]["interaction"]] == ["off"]
    assert cycles[2]["spontaneous"] == [
        {"instance": "Route#1", "event": "end", "from": "wait", "to": "done"}
    ]
    assert [r["port"] for r in cycles[2]["interaction"]] == ["rm", "finished"]
    assert cycles[3]["interaction"] is not None  # the route switched back on
    stats = replay_validate(trace, routes, binding, script=script)
    assert stats == {"interactions": 4, "idle": 0}
    with pytest.raises(ReplayError, match="cycle 2: end was not at the queue head"):
        replay_validate(trace, routes, binding)


def test_mutual_exclusion(mutex):
    binding = {"n": 2}
    for seed in range(5):
        trace = run(mutex, binding, EngineConfig(cycles=200, seed=seed))
        replay_validate(trace, mutex, binding)
        current = {"Process#1": "idle", "Process#2": "idle"}
        for cycle in trace["cycles"]:
            for record in cycle["interaction"] or ():
                if record["instance"] in current:
                    current[record["instance"]] = record["to"]
            assert list(current.values()).count("using") <= 1, (seed, cycle)


def test_replay_rejects_forged_interactions(routes):
    binding = {"n": 2}
    trace = run(routes, binding, EngineConfig(cycles=10, seed=42))
    forged = json.loads(trace_to_json(trace))
    for cycle in forged["cycles"]:
        if cycle["interaction"]:
            cycle["interaction"][0]["port"] = "off"
            break
    with pytest.raises(ReplayError):
        replay_validate(forged, routes, binding)


def test_replay_rejects_wrong_states(routes):
    binding = {"n": 2}
    trace = run(routes, binding, EngineConfig(cycles=10, seed=42))
    forged = json.loads(trace_to_json(trace))
    for cycle in forged["cycles"]:
        if cycle["interaction"]:
            cycle["interaction"][0]["from"] = "done"
            break
    with pytest.raises(ReplayError):
        replay_validate(forged, routes, binding)


def test_event_script_from_json():
    text = json.dumps({"schema": 1, "cycles": [
        {"events": [{"target": "Route#1", "event": "end"}],
         "guards": [{"target": "Route#1", "guard": "finished", "value": True}]},
        {},
    ]})
    assert EventScript.from_json(text) == EventScript(entries=(
        ScriptEntry(events=(("Route#1", "end"),), guards=(("Route#1", "finished", True),)),
        ScriptEntry(),
    ))
    for text in ("{}", '{"schema": 2, "cycles": []}', "[]",
                 '{"schema": true, "cycles": []}', '{"schema": 1.0, "cycles": []}'):
        with pytest.raises(ScriptError):
            EventScript.from_json(text)


# Each malformed cycle with the message of the field-by-field reader, and a
# cycle with extra keys, which both readers accept and ignore.
SCRIPT_CYCLES = {
    "non-list": ({"guards": {}}, "cycles[1].guards: expected a list"),
    "empty-string": ({"events": ""}, "cycles[1].events: expected a list"),
    "null": ({"events": None}, "cycles[1].events: expected a list"),
    "missing-key": ({"events": [{"target": "Route#1"}]}, 'cycles[1].events[0]: missing "event"'),
    "wrong-type": ({"guards": [{"target": "Route#1", "guard": "finished", "value": 1}]},
                   "cycles[1].guards[0].value: expected true or false, got 1"),
    "null-target": ({"events": [{"target": None, "event": "end"}]},
                    "cycles[1].events[0].target: expected a string, got null"),
    "bool-event": ({"events": [{"target": "Route#1", "event": True}]},
                   "cycles[1].events[0].event: expected a string, got true"),
    "number-guard": ({"guards": [{"target": "Route#1", "guard": 5, "value": True}]},
                     "cycles[1].guards[0].guard: expected a string, got 5"),
    "list-guard-target": ({"guards": [{"target": ["Route#1"], "guard": "finished",
                                       "value": True}]},
                          'cycles[1].guards[0].target: expected a string, got ["Route#1"]'),
    "non-object-item": ({"events": ["Route#1"]}, "cycles[1].events[0]: expected an object"),
    "non-object-cycle": (["Route#1"], "cycles[1]: expected an object"),
    "extra-keys": ({"note": 1, "events": [{"target": "Route#1", "event": "end", "why": "x"}],
                    "guards": [{"value": False, "guard": "finished", "target": "Route#2"}]},
                   None),
}


@pytest.mark.parametrize("name", sorted(SCRIPT_CYCLES))
def test_both_script_readers_agree(name):
    """A cycle that passes the one-comprehension-per-key checks is read by
    them; any other goes through the field-by-field reader, so its message
    is the one that reader gives."""
    cycle, message = SCRIPT_CYCLES[name]
    text = json.dumps({"schema": 1, "cycles": [{}, cycle]})
    if message is None:
        entry = _script_entry(cycle, 1)
        assert entry == ScriptEntry(events=(("Route#1", "end"),),
                                    guards=(("Route#2", "finished", False),))
        assert _well_formed_entry(cycle) == entry
        assert EventScript.from_json(text) == EventScript((ScriptEntry(), entry))
        return
    assert _well_formed_entry(cycle) is None
    with pytest.raises(ScriptError) as located:
        _script_entry(cycle, 1)
    with pytest.raises(ScriptError) as read:
        EventScript.from_json(text)
    assert str(read.value) == str(located.value) == message


def test_script_validation_against_model(routes):
    config = EngineConfig(cycles=1)
    for entry in (ScriptEntry(events=(("Route#9", "end"),)),
                  ScriptEntry(events=(("Route#1", "nothing"),)),
                  ScriptEntry(guards=(("Monitor#1", "finished", True),))):
        with pytest.raises(ScriptError):
            run(routes, {"n": 1}, config, script=EventScript((entry,)))


@pytest.mark.parametrize(
    "entry, message",
    [
        (ScriptEntry(guards=(("Route#1", "nope", True),)),
         "cycles[1].guards[0]: Route#1 declares no guard 'nope'"),
        (ScriptEntry(events=(("Route#1", "bogus"),)),
         "cycles[1].events[0]: Route#1 declares no spontaneous event 'bogus'"),
        (ScriptEntry(guards=(("Route#9", "finished", True),)),
         "cycles[1].guards[0]: guard update targets unknown instance 'Route#9'"),
        (ScriptEntry(events=(("Route#9", "end"),)),
         "cycles[1].events[0]: event targets unknown instance 'Route#9'"),
    ],
    ids=["undeclared-guard", "undeclared-event", "guard-unknown-instance",
         "event-unknown-instance"],
)
def test_replay_checks_script_entries_as_the_run_does(routes, entry, message):
    config = EngineConfig(cycles=3, policy=LEXICOGRAPHIC_FIRST)
    script = EventScript((ScriptEntry(), entry))
    with pytest.raises(ScriptError) as ran:
        run(routes, {"n": 1}, config, script=script)
    trace = run(routes, {"n": 1}, config)
    with pytest.raises(ScriptError) as replayed:
        replay_validate(trace, routes, {"n": 1}, script=script)
    assert str(ran.value) == str(replayed.value) == message


def test_a_bad_entry_past_the_last_cycle_is_never_checked(routes):
    script = EventScript((ScriptEntry(), ScriptEntry(events=(("Route#9", "end"),))))
    trace = run(routes, {"n": 1}, EngineConfig(cycles=1), script=script)
    assert replay_validate(trace, routes, {"n": 1}, script=script) == {"interactions": 1, "idle": 0}
    with pytest.raises(ScriptError, match=re.escape("cycles[1].events[0]: event targets")):
        run(routes, {"n": 1}, EngineConfig(cycles=2), script=script)


def test_a_bad_script_entry_wins_over_a_fault_in_an_earlier_cycle(routes):
    # T#1 livelocks in cycle 0, but the script is checked before cycle 0
    spin = parse_model(
        """
diagram Spin {
  component T [1] {
    ports { p }
    guards { g }
    states { a*, b }
    transitions {
      : a -> b
      : b -> a
    }
  }
}
"""
    )
    script = EventScript((ScriptEntry(), ScriptEntry(guards=(("T#1", "h", True),))))
    with pytest.raises(ScriptError, match=re.escape("cycles[1].guards[0]: T#1 declares no guard")):
        run(spin, {}, EngineConfig(cycles=2), script=script)
    # a replay fault in cycle 0 and a bad entry for cycle 2
    forged = json.loads(trace_to_json(run(routes, {"n": 1}, EngineConfig(cycles=3))))
    forged["cycles"][0].update(idle=True)
    script = EventScript((ScriptEntry(), ScriptEntry(), ScriptEntry(events=(("Route#2", "end"),))))
    with pytest.raises(ScriptError, match=re.escape("cycles[2].events[0]: event targets")):
        replay_validate(forged, routes, {"n": 1}, script=script)


def test_run_rejects_an_unknown_parameter(routes):
    with pytest.raises(ValueError, match="^unknown parameters: typo "):
        init_state(routes, {"n": 1, "typo": 3})
    with pytest.raises(ValueError, match="^unknown parameters: typo "):
        run(routes, {"n": 1, "typo": 3}, EngineConfig(cycles=1))


def test_an_unknown_interaction_source_is_refused(routes):
    trace = run(routes, {"n": 1}, EngineConfig(cycles=2))
    with pytest.raises(ValueError, match="^unknown interaction source 'bogus'$"):
        run(routes, {"n": 1}, EngineConfig(cycles=2), source="bogus")
    with pytest.raises(ValueError, match="^unknown interaction source 'bogus'$"):
        replay_validate(trace, routes, {"n": 1}, source="bogus")


def test_engine_config_bounds():
    with pytest.raises(ValueError):
        EngineConfig(cycles=-1)
    with pytest.raises(ValueError):
        EngineConfig(cycles=10**6)
    with pytest.raises(ValueError):
        EngineConfig(cycles=1, policy="coin-flip")


def test_engine_config_cycles_is_an_int():
    for cycles in (2.5, "3", True, None):
        with pytest.raises(ValueError, match=r"^cycles must lie in \[0, 100000\]$"):
            EngineConfig(cycles=cycles)


def test_engine_config_seed_is_64_bits():
    for seed in (-1, 2**64, True, 1.0, "1"):
        with pytest.raises(ValueError, match=r"^seed must lie in \[0, 2\*\*64\)$"):
            EngineConfig(cycles=1, seed=seed)
    EngineConfig(cycles=1, seed=2**64 - 1)


def test_instance_id_round_trip():
    assert instance_id("Route", 2) == "Route#2"


@pytest.fixture(scope="module")
def guarded_routes():
    """Switchable routes whose enforceable transitions read the guard, so
    guard writes change the enabled ports."""
    text = bundled_model_path("switchable_routes.bip").read_text(encoding="utf-8")
    text = text.replace("on: off -> on", "on: off -> on [!finished]")
    text = text.replace("finished: done -> off", "finished: done -> off [finished]")
    return parse_model(text)


@pytest.fixture(scope="module")
def two_locks():
    """Processes take two lock holders at once, in an orbit over three
    types.  Four orbits start at holder A, so the pick orders them by
    label at A#1; a holder can nap alone, which takes its ports out of the
    eligible lists while the other holder's stay, and the lone tick
    interactions sort after all of them."""
    return parse_model(TWO_LOCKS)


@pytest.fixture(scope="module")
def engine_models(routes, guarded_routes, mutex, two_locks):
    return {"routes": routes, "guarded_routes": guarded_routes, "mutex": mutex,
            "two_locks": two_locks}


@st.composite
def engine_runs(draw):
    """A model, binding, run configuration and script.  A routes script may
    set initial guard values: writes at the front of cycle 0's entry."""
    model = draw(st.sampled_from(["routes", "guarded_routes", "mutex", "two_locks"]))
    # mutex at n>=500 keeps eligible lists of hundreds of processes.
    n = draw(st.integers(1, 8))
    if model == "mutex":
        n = draw(st.sampled_from([n, 500 + n]))
    config = EngineConfig(
        cycles=draw(st.integers(1, 30)),
        seed=draw(st.integers(0, 2**64 - 1)),
        policy=draw(st.sampled_from(POLICIES)),
    )
    script = EventScript()
    if "routes" in model:
        route = st.integers(1, n).map(lambda i: f"Route#{i}")
        entry = st.builds(
            lambda ends, writes: ScriptEntry(
                events=tuple((r, "end") for r in ends),
                guards=tuple((r, "finished", v) for r, v in writes),
            ),
            st.lists(route, max_size=3),
            st.lists(st.tuples(route, st.booleans()), max_size=3),
        )
        entries = draw(st.lists(entry, max_size=config.cycles))
        initial = draw(st.dictionaries(route, st.booleans()))
        first = entries[0] if entries else ScriptEntry()
        entries[:1] = [ScriptEntry(
            events=first.events,
            guards=tuple((r, "finished", v) for r, v in initial.items()) + first.guards,
        )]
        script = EventScript(tuple(entries))
    return model, {"n": n}, config, script


@given(engine_runs())
@settings(max_examples=100, deadline=None)
def test_each_cycle_fires_the_specification_pick(engine_models, case):
    """run keeps one compiled system across cycles.  A state tracked beside
    it by the replay rule (``follow``) checks it after every cycle: the
    interaction it fires is the one the specification picks from the state
    after sub-steps (a) and (b); the enabled labels of the nodes are the
    specification's enabled ports; and each instance's node is the shared
    node of its tracked type, state and guard values, with the internal flag
    of that state, and its queue is the tracked queue."""
    model, binding, config, script = case
    d = engine_models[model]
    trace = run(d, binding, config, script=script)

    orbits = diagram_orbits(d, binding)
    allowed = sorted_allowed(d, binding, orbits)
    state, rng, spec_rng = init_state(d, binding), SplitMix64(config.seed), SplitMix64(config.seed)
    system, tables = CompiledSystem(d, binding, orbits), _transition_tables(d)
    assert [system.name(i) for i in range(len(system.node))] == list(state)
    for cycle in range(config.cycles):
        entry = script.entries[cycle] if cycle < len(script.entries) else ScriptEntry()
        record = system.step(entry, rng, config.policy, cycle)
        assert record == trace["cycles"][cycle]
        before = copy.deepcopy(state)
        follow(before, entry, {**record, "interaction": None, "internal": []})
        pick = pick_spec(feasible_spec(allowed, before, d), spec_rng, config.policy)
        fired = record["interaction"]
        assert (None if fired is None else [(r["instance"], r["port"]) for r in fired]) == (
            None if pick is None else [(instance_id(p.component_type, p.index), p.port)
                                       for p in pick])
        follow(state, entry, record)
        maintained = {pi(node.key[0], i - system.offset[node.key[0]], label)
                      for i, node in enumerate(system.node) for label in node.labels}
        assert maintained == enabled_ports(state, d)
        for i, inst in enumerate(state.values()):
            node = system.node[i]
            values = tuple(inst.guards[name] for name in sorted(inst.guards))
            assert node.key == (inst.type_name, inst.current, values)
            assert system.nodes[node.key] is system.graph[node.number] is node
            assert (node.current, node.guards) == (inst.current, inst.guards)
            assert node.internal == (tables[inst.type_name].first_enabled(INTERNAL, inst)
                                     is not None)
            assert system.queues.get(i, []) == inst.queue


def test_nodes_are_per_configuration_not_per_instance(mutex, routes):
    """Instances share the node of their type, state and guard values.  A
    mutex run at n=200 reaches 4 nodes; a scripted routes run at n=100 at
    most |states| * 2^|guards| per type.  Two routes in wait with different
    finished values take different edges for one event in one cycle: the
    one finished is parked and takes the internal edge, the other consumes
    the event."""
    system = CompiledSystem(mutex, {"n": 200}, diagram_orbits(mutex, {"n": 200}))
    rng = SplitMix64(0)
    for index in range(200):
        system.step(None, rng, UNIFORM_RANDOM, index)
    assert sorted(system.nodes) == [("Manager", "busy", ()), ("Manager", "free", ()),
                                    ("Process", "idle", ()), ("Process", "using", ())]

    draw = random.Random(0)
    script = [ScriptEntry(events=tuple((f"Route#{draw.randint(1, 100)}", "end") for _ in "ab"),
                          guards=tuple((f"Route#{draw.randint(1, 100)}", "finished",
                                        draw.random() < 0.5) for _ in "ab"))
              for _ in range(200)]
    system = CompiledSystem(routes, {"n": 100}, diagram_orbits(routes, {"n": 100}))
    for index, entry in enumerate(script):
        system.step(entry, rng, LEXICOGRAPHIC_FIRST, index)
    for ct in routes.component_types:
        built = [key for key in system.nodes if key[0] == ct.name]
        assert 0 < len(built) <= len(ct.states) * 2 ** len(ct.guards)
    assert len({key for key in system.nodes if key[0] == "Route"}) > 4

    state = init_state(routes, {"n": 2})
    for target, finished in (("Route#1", True), ("Route#2", False)):
        state[target].current = "wait"
        state[target].guards["finished"] = finished
    system = CompiledSystem(routes, {"n": 2}, diagram_orbits(routes, {"n": 2}), state)
    record = system.step(ScriptEntry(events=(("Route#1", "end"), ("Route#2", "end"))),
                         SplitMix64(0), LEXICOGRAPHIC_FIRST)
    assert record["spontaneous"] == [
        {"instance": "Route#2", "event": "end", "from": "wait", "to": "done"}]
    assert record["internal"] == [{"instance": "Route#1", "from": "wait", "to": "done"}]
    assert system.nodes["Route", "wait", (True,)].events == {"end": None}
    assert system.nodes["Route", "wait", (False,)].internal_edge is None
    assert system.queues == {system.locate("Route#1")[1]: ["end"]}


# A routes run at n=4: an event and a guard write each cycle, for 40 cycles.
ROUTES_SCRIPT = [ScriptEntry(events=((f"Route#{index % 4 + 1}", "end"),),
                             guards=((f"Route#{index % 3 + 1}", "finished", index % 2 == 0),))
                 for index in range(40)]


def test_a_run_writes_nothing_to_the_state_it_was_compiled_from(routes):
    """A compiled system reads the state mapping once: each instance's
    configuration lives in its node and its queue in the system, so a
    scripted run leaves the mapping, queued events and guard values
    included, as it was."""
    binding = {"n": 4}
    state = init_state(routes, binding)
    state["Route#2"].queue.append("end")
    state["Route#3"].guards["finished"] = True
    before = copy.deepcopy(state)
    system = CompiledSystem(routes, binding, diagram_orbits(routes, binding), state)
    rng = SplitMix64(5)
    records = [system.step(entry, rng, UNIFORM_RANDOM, index)
               for index, entry in enumerate(ROUTES_SCRIPT)]
    assert state == before
    assert any(record["spontaneous"] for record in records) and len(system.graph) > 4


def test_a_compiled_system_is_freed_without_the_cycle_collector(routes):
    """Edges name their next node by number, so a run's nodes, edges and
    eligible lists make no reference cycle: dropping the system frees them
    at once, and a process running many short runs does not hold them until
    a full collection."""
    binding = {"n": 4}
    orbits = diagram_orbits(routes, binding)
    gc.collect()
    gc.disable()
    try:
        system, rng = CompiledSystem(routes, binding, orbits), SplitMix64(5)
        for index, entry in enumerate(ROUTES_SCRIPT):
            system.step(entry, rng, UNIFORM_RANDOM, index)
        assert len(system.graph) > 4
        del system
        assert gc.collect() == 0
    finally:
        gc.enable()


# Every instance starts at a state whose internal transition is enabled.
STUCK = """
diagram Stuck {
  component T [n] {
    ports { p }
    states { a*, b }
    transitions { : a -> b }
  }
}
"""
BUNDLED = sorted(path.name for path in bundled_model_path("mutex.bip").parent.glob("*.bip"))


@pytest.mark.parametrize("model", [*BUNDLED, "shared", "broadcast", "stuck"])
def test_the_two_ways_to_compile_agree(model):
    """Compiled from the binding's counts alone, or from init_state's
    mapping as its start state, a system has the same node key at each
    position, the same eligible lists and the same instances for sub-step
    (d), and steps the same 100 records under each policy.  A model whose
    diagram is not encodable takes its orbits from the macros."""
    d = (load_bundled_model(model) if model in BUNDLED else
         parse_model({"shared": SHARED_TYPE, "broadcast": BROADCAST, "stuck": STUCK}[model]))
    binding = {name: 4 for name in d.parameters}
    try:
        orbits = diagram_orbits(d, binding)
    except EncodabilityError:
        orbits = _orbits(d, binding, MACRO_SOURCE)
    for policy in POLICIES:
        systems = [CompiledSystem(d, binding, orbits),
                   CompiledSystem(d, binding, orbits, init_state(d, binding))]
        first, second = systems
        assert [node.key for node in first.node] == [node.key for node in second.node]
        assert (first.eligible, first.touched) == (second.eligible, second.touched)
        records = []
        for system in systems:
            rng = SplitMix64(11)
            records.append([system.step(None, rng, policy, index) for index in range(100)])
        assert records[0] == records[1]


def test_a_system_compiled_from_a_reached_state_runs_on_as_the_first(routes):
    """A scripted routes run stops after 20 cycles.  Compiled from the state
    that the replay rule reaches, guard values and parked events included,
    a second system holds the same node at each position, the same eligible
    lists and queues, and steps the last 20 cycles as the first does."""
    binding = {"n": 4}
    orbits, state = diagram_orbits(routes, binding), init_state(routes, binding)
    system, rng = CompiledSystem(routes, binding, orbits), SplitMix64(5)
    for index, entry in enumerate(ROUTES_SCRIPT[:20]):
        follow(state, entry, system.step(entry, rng, UNIFORM_RANDOM, index))
    assert any(inst.queue for inst in state.values())
    assert any(inst.guards.get("finished") for inst in state.values())
    again, other = CompiledSystem(routes, binding, orbits, state), SplitMix64(0)
    other.state = rng.state
    assert [node.key for node in again.node] == [node.key for node in system.node]
    assert (again.eligible, again.queues) == (system.eligible, system.queues)
    for index, entry in enumerate(ROUTES_SCRIPT[20:], 20):
        assert (again.step(entry, other, UNIFORM_RANDOM, index)
                == system.step(entry, rng, UNIFORM_RANDOM, index))


@pytest.mark.parametrize("target", ["Route#01", "Route#0", "Route#+1", "Route# 1", "Route#1 ",
                                    "Route#٣", "Route#", "#1", "route#1", "Route#5",
                                    "Monitor#2"])
def test_a_script_names_an_instance_only_by_its_exact_id(routes, target):
    """At n=4, run and replay refuse each of these targets at its script
    path, after an item that targets Route#4."""
    binding = {"n": 4}
    trace = run(routes, binding, EngineConfig(cycles=1))
    for key, items, problem in (
            ("events", (("Route#4", "end"), (target, "end")), "event targets"),
            ("guards", (("Route#4", "finished", True), (target, "finished", True)),
             "guard update targets")):
        script = EventScript((ScriptEntry(**{key: items}),))
        message = f"cycles[0].{key}[1]: {problem} unknown instance {target!r}"
        with pytest.raises(ScriptError, match=f"^{re.escape(message)}$"):
            run(routes, binding, EngineConfig(cycles=1), script=script)
        with pytest.raises(ScriptError, match=f"^{re.escape(message)}$"):
            replay_validate(trace, routes, binding, script)


@pytest.mark.parametrize("name, known", [
    ("Process#1", True), ("Process#200", True), ("Manager#1", True),
    ("Process#01", False), ("Process#0", False), ("Process#201", False), ("Process#٣", False),
    ("Process# 1", False), ("process#1", False), ("Manager#1#1", False), ("#1", False),
    pytest.param("Process#" + "1" * 5000, False, id="Process#1...1 (5000 digits)")])
def test_script_targets_and_records_name_an_instance_by_one_exact_id_rule(mutex, name, known):
    """At n=200, CompiledSystem.locate, the script check of run and of
    replay, and a replayed record agree on which names are an instance's
    id: exactly instance_id(type, k) with 1 <= k <= the type's count.  A
    digit string longer than the count's is refused unread: int() raises
    ValueError past 4,300 digits."""
    binding = {"n": 200}
    system = CompiledSystem(mutex, binding, diagram_orbits(mutex, binding))
    assert (system.locate(name) is not None) is known
    trace = run(mutex, binding, EngineConfig(cycles=1, policy=LEXICOGRAPHIC_FIRST))
    script = EventScript((ScriptEntry(events=((name, "e"),)),))
    problem = (f"{name} declares no spontaneous event 'e'" if known
               else f"event targets unknown instance {name!r}")
    message = f"^{re.escape(f'cycles[0].events[0]: {problem}')}$"
    with pytest.raises(ScriptError, match=message):
        run(mutex, binding, EngineConfig(cycles=1), script=script)
    with pytest.raises(ScriptError, match=message):
        replay_validate(trace, mutex, binding, script)
    # no mutex instance has an internal transition, known or not
    trace["cycles"][0]["internal"] = [{"instance": name, "from": "idle", "to": "using"}]
    with pytest.raises(ReplayError) as caught:
        replay_validate(trace, mutex, binding)
    assert (str(caught.value) == f"cycle 0: unknown instance {name!r}") is not known


@pytest.mark.parametrize("name, message", [
    (5, "cycle 0: unknown instance 5"), (None, "cycle 0: unknown instance None"),
    (["Process#1"], "cycle 0: malformed record (TypeError: unhashable type: 'list')")])
def test_a_record_whose_instance_is_no_string(mutex, name, message):
    trace = run(mutex, {"n": 3}, EngineConfig(cycles=1))
    trace["cycles"][0]["interaction"][1]["instance"] = name
    with pytest.raises(ReplayError, match=f"^{re.escape(message)}$"):
        replay_validate(trace, mutex, {"n": 3})


@pytest.mark.parametrize("dropped, named", [(None, "T#1"), ("T#3", "T#3")],
                         ids=["every record", "T#3's"])
def test_replay_checks_the_fixpoint_of_instances_no_record_names(dropped, named):
    """Every T starts at a, where the internal a -> b fires in cycle 0.  A
    forged trace that drops those records (every one, or T#3's) names the
    dropped instances nowhere; replay checks them at their type's initial
    configuration and names the first in canonical order."""
    d = parse_model(STUCK)
    trace = run(d, {"n": 5}, EngineConfig(cycles=2))
    replay_validate(trace, d, {"n": 5})
    first = trace["cycles"][0]
    first["internal"] = [r for r in first["internal"] if dropped not in (None, r["instance"])]
    first["idle"] = not first["internal"]
    with pytest.raises(ReplayError, match=f"^cycle 0: {named} stopped short of its internal "
                                          "fixpoint$"):
        replay_validate(trace, d, {"n": 5})


def test_replay_with_no_instance_of_a_type_that_leaves_its_initial_state():
    d = parse_model(STUCK)
    trace = run(d, {"n": 0}, EngineConfig(cycles=2))
    assert replay_validate(trace, d, {"n": 0}) == {"interactions": 0, "idle": 2}


def test_a_short_internal_fixpoint_names_the_first_instance_under_any_hash_seed():
    """Replay checks the internal fixpoint of the instances in a set of ids,
    whose order follows PYTHONHASHSEED.  Of six instances that all stopped
    short, it names the first in canonical order, T#1, under every seed."""
    probe = """if True:
        import sys
        from bipkit.dsl import parse_model
        from bipkit.engine import EngineConfig, ReplayError, replay_validate, run
        d = parse_model(sys.stdin.read())
        trace = run(d, {"n": 6}, EngineConfig(cycles=1))
        trace["cycles"][0].update(internal=[], idle=True)
        try:
            replay_validate(trace, d, {"n": 6})
        except ReplayError as exc:
            print(exc)
    """
    src = str(Path(bundled_model_path("mutex.bip")).parents[2])
    for seed in range(6):
        result = subprocess.run([sys.executable, "-c", probe], input=STUCK, capture_output=True,
                                text=True, timeout=60,
                                env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": str(seed)})
        assert (result.stdout, result.stderr) == (
            "cycle 0: T#1 stopped short of its internal fixpoint\n", "")


def test_a_run_builds_no_object_per_instance(mutex):
    """Compiled from the binding's counts, a mutex run at n=10^5 allocates
    at its peak about an eligible-list entry and a position per process
    (5.6 MB traced on CPython 3.11); an InstanceState, a guards dict and an
    id per process took 44 MB."""
    tracemalloc.start()
    try:
        run(mutex, {"n": 10**5}, EngineConfig(cycles=100))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 10**6


def test_replay_builds_only_the_instances_its_records_name(mutex):
    """Replaying a 100-cycle mutex trace at n=10^5 builds an instance for
    each process a record names, so its traced peak is some KB (27 KB on
    CPython 3.11); an InstanceState, a guards dict and an id per process
    took 40.6 MB."""
    binding = {"n": 10**5}
    trace = run(mutex, binding, EngineConfig(cycles=100))
    tracemalloc.start()
    try:
        assert replay_validate(trace, mutex, binding)["interactions"] == 100
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 10**6


@pytest.fixture(scope="module")
def pick_models(engine_models):
    return {**engine_models, "shared": parse_model(SHARED_TYPE),
            "broadcast": parse_model(BROADCAST)}


def feasible_engine(system: CompiledSystem) -> list[tuple]:
    """Every feasible interaction as the engine ranks them, k = 0 .. n-1."""
    return [tuple(system.interaction(k)) for k in range(sum(system.feasible()))]


@pytest.mark.parametrize("model", ["routes", "guarded_routes", "mutex", "two_locks", "shared",
                                   "broadcast"])
@pytest.mark.parametrize("n", [1, 2, 3, 6])
def test_compiled_interactions_are_the_sorted_allowed_set(pick_models, model, n):
    """Compiled from orbits, the engine ranks the feasible interactions of
    the initial state as the specification lists them: the allowed
    interactions that name distinct instances and whose ports are all
    enabled, each as its sorted port instances, in sorted order."""
    d = pick_models[model]
    binding = {"n": n}
    orbits = diagram_orbits(d, binding)
    state = init_state(d, binding)
    expected = feasible_spec(sorted_allowed(d, binding, orbits), state, d)
    assert feasible_engine(CompiledSystem(d, binding, orbits)) == expected


@pytest.mark.parametrize("model", ["mutex", "two_locks", "shared", "broadcast"])
def test_a_rank_outside_the_feasible_count_is_refused(pick_models, model):
    """mutex's run has one live orbit, two_locks's first run two; shared
    draws two parts of one type, broadcast up to three instances of one
    part."""
    d = pick_models[model]
    system = CompiledSystem(d, {"n": 3}, diagram_orbits(d, {"n": 3}))
    n = sum(system.feasible())
    for k in (-1, n, n + 5):
        with pytest.raises(IndexError, match=f"^interaction {k} of {n} feasible$"):
            system.interaction(k)


@pytest.mark.parametrize("model, done, live", [("mutex", (), 1), ("routes", ("Route#2",), 2)])
def test_an_orbit_count_above_its_eligible_lists_is_refused(pick_models, model, done, live):
    """A maintained count one above, or twice, what its eligible lists
    supply makes the last rank raise BipError: on mutex, whose run has one
    live orbit, where the count does not divide exactly by a type's C(e, r)
    or does not divide down to 1, at every rank (a doubled count is not read
    as each process twice); on routes with a route done, whose run has two,
    also when the descent finds no label left to take the rank."""
    d = pick_models[model]
    state = init_state(d, {"n": 3})
    for target in done:
        state[target].current = "done"
    system = CompiledSystem(d, {"n": 3}, diagram_orbits(d, {"n": 3}), state)
    counts = system.feasible()
    start, stop = [run for run in system.runs if sum(counts[slice(*run)])][-1]
    orbits = [o for o in range(start, stop) if counts[o]]
    assert len(orbits) == live
    for o in orbits:
        true = counts[o]
        for inflated in (true + 1, 2 * true):
            counts[o] = inflated
            for k in range(sum(counts)) if live == 1 else [sum(counts) - 1]:
                with pytest.raises(BipError,
                                   match="^the orbit counts disagree with the eligible lists$"):
                    system.interaction(k)
        counts[o] = true


def test_a_count_over_empty_eligible_lists_is_refused():
    """A count raised over eligible lists that are all empty, in an orbit
    that draws two parts of one type, is refused where the descent looks
    for the next instance: every port of Shared waits for a false guard."""
    text = SHARED_TYPE.replace("ports { p, q }", "ports { p, q }\n    guards { g }")
    for transition in ("p: s -> t", "q: s -> s", "q: t -> s"):
        text = text.replace(transition, transition + " [g]")
    d = parse_model(text)
    system = CompiledSystem(d, {"n": 2}, diagram_orbits(d, {"n": 2}))
    assert system.feasible() == [0]
    system.counts[0] = 1
    with pytest.raises(BipError, match="^the orbit counts disagree with the eligible lists$"):
        system.interaction(0)


@pytest.mark.parametrize("size", range(1, 8))
def test_unrank_is_the_qth_combination(size):
    """Every rank of every r-subset of a sorted list whose values are not
    their positions."""
    items = [3 * i + 2 for i in range(size)]
    for r in range(1, size + 1):
        combinations = list(itertools.combinations(items, r))
        for q, expected in enumerate(combinations):
            assert _unrank(items, r, q) == list(expected)


@pytest.mark.parametrize("policy", POLICIES)
def test_two_instance_draws_are_the_specification_kth(policy):
    """On PAIRS, in every state that runs reach, the engine's k-th feasible
    interaction is the specification's k-th for every k in range(n): a
    2-subset is unranked both in its run's lone live orbit and after a
    descent."""
    d = parse_model(PAIRS)
    orbits = diagram_orbits(d, {})
    allowed = sorted_allowed(d, {}, orbits)
    for seed in range(5):
        state, rng = init_state(d, {}), SplitMix64(seed)
        system = CompiledSystem(d, {}, orbits)
        for index in range(30):
            assert feasible_engine(system) == feasible_spec(allowed, state, d)
            follow(state, None, system.step(None, rng, policy, index))


@st.composite
def pick_runs(draw):
    """engine_runs, or an unscripted run of the shared-type or broadcast
    model at n <= 6."""
    model = draw(st.sampled_from(["engine", "shared", "broadcast"]))
    if model == "engine":
        return draw(engine_runs())
    config = EngineConfig(cycles=draw(st.integers(1, 30)), seed=draw(st.integers(0, 2**64 - 1)),
                          policy=draw(st.sampled_from(POLICIES)))
    return model, {"n": draw(st.integers(1, 6))}, config, EventScript()


@given(pick_runs())
@settings(max_examples=100, deadline=None)
def test_the_kth_interaction_is_the_specification_kth(pick_models, case):
    """In every state a scripted run reaches, the engine's k-th feasible
    interaction is the specification's k-th, for every k in range(n)."""
    model, binding, config, script = case
    d = pick_models[model]
    orbits = diagram_orbits(d, binding)
    allowed = sorted_allowed(d, binding, orbits)
    state, rng = init_state(d, binding), SplitMix64(config.seed)
    system = CompiledSystem(d, binding, orbits)
    for index in range(config.cycles):
        assert feasible_engine(system) == feasible_spec(allowed, state, d)
        entry = script.entries[index] if index < len(script.entries) else None
        follow(state, entry, system.step(entry, rng, config.policy, index))


# Two types whose three ports are each gated by a guard of their own, so a
# test sets the enabled ports directly.
GUARDED_PORTS = "diagram Gated {" + "".join(f"""
  component {name} [n] {{
    ports {{ p, q, r }}
    guards {{ gp, gq, gr }}
    states {{ s* }}
    transitions {{
      p: s -> s [gp]
      q: s -> s [gq]
      r: s -> s [gr]
    }}
  }}""" for name in "AB") + "\n}\n"


@st.composite
def orbit_sets(draw):
    """A few distinct orbits over the types of GUARDED_PORTS: one to three
    parts per type, each drawing one or two instances, and now and then a
    multi-port signature, which names one instance twice."""
    orbits = set()
    for _ in range(draw(st.integers(1, 4))):
        parts = []
        for ctype in draw(st.lists(st.sampled_from("AB"), min_size=1, max_size=2, unique=True)):
            ports = draw(st.lists(st.sampled_from("pqr"), min_size=1, max_size=3, unique=True))
            if draw(st.integers(0, 9)) == 0:
                parts.append((tuple(sorted(PortTypeRef(ctype, p) for p in ports)), 1))
            else:
                parts += [((PortTypeRef(ctype, p),), draw(st.integers(1, 2))) for p in ports]
        orbits.add(tuple(sorted(parts)))
    return sorted(orbits)


@given(st.integers(1, 4), orbit_sets(), st.data())
@settings(deadline=None)
def test_the_kth_interaction_on_any_orbit_shape(n, orbits, data):
    """Several parts on one type, counts above 1 and orbits sharing a type:
    in a state with any enabled ports, the engine's k-th interaction is the
    specification's k-th, for every k in range(n)."""
    d, binding = parse_model(GUARDED_PORTS), {"n": n}
    state = init_state(d, binding)
    for inst in state.values():
        for guard in sorted(inst.guards):
            inst.guards[guard] = data.draw(st.booleans())
    expected = feasible_spec(sorted_allowed(d, binding, orbits), state, d)
    assert feasible_engine(CompiledSystem(d, binding, orbits, state)) == expected


@pytest.mark.parametrize("policy", POLICIES)
def test_the_engine_does_not_expand_the_allowed_set(policy):
    """The broadcast model at n=40 allows about 2^40 interactions: a run and
    its replay finish only if neither lists them."""
    d, binding = parse_model(BROADCAST), {"n": 40}
    trace = run(d, binding, EngineConfig(cycles=50, seed=3, policy=policy))
    assert replay_validate(trace, d, binding) == {"interactions": 50, "idle": 0}


@given(engine_runs())
@settings(max_examples=50, deadline=None)
def test_trace_json_matches_json_dumps_on_scripted_runs(engine_models, case):
    model, binding, config, script = case
    d = engine_models[model]
    trace = run(d, binding, config, script=script)
    assert trace_to_json(trace) == trace_json_spec(trace)


@given(engine_runs(), st.data())
@settings(max_examples=100, deadline=None)
def test_replay_accepts_runs_and_rejects_single_field_forgeries(engine_models, case, data):
    model, binding, config, script = case
    d = engine_models[model]
    trace = run(d, binding, config, script=script)
    cycles = trace["cycles"]
    stats = {
        "interactions": sum(c["interaction"] is not None for c in cycles),
        "idle": sum(c["idle"] for c in cycles),
    }
    assert replay_validate(trace, d, binding, script=script) == stats

    def assert_rejected(forge):
        forged = json.loads(trace_to_json(trace))
        forge(forged["cycles"])
        with pytest.raises(ReplayError):
            replay_validate(forged, d, binding, script=script)

    k = data.draw(st.integers(0, len(cycles) - 1), label="cycle")
    assert_rejected(lambda c: c[k].update(idle=not c[k]["idle"]))
    assert_rejected(lambda c: c[k].update(cycle=k + 1))
    assert_rejected(lambda c: c[k].update(cycle=float(k)))

    paths = [
        (i, part, j)
        for i, cycle in enumerate(cycles)
        for part in ("spontaneous", "interaction", "internal")
        for j in range(len(cycle[part] or ()))
    ]
    if paths:
        i, part, j = data.draw(st.sampled_from(paths), label="record")
        record = cycles[i][part][j]
        states = d.component_type(record["instance"].partition("#")[0]).states
        for key in ("from", "to"):
            others = sorted(states - {record[key]})
            if others:
                other = data.draw(st.sampled_from(others), label=key)
                assert_rejected(lambda c: c[i][part][j].update({key: other}))
        assert_rejected(lambda c: c[i][part][j].update(instance="Nope#1"))

    with_internal = [i for i, cycle in enumerate(cycles) if cycle["internal"]]
    if with_internal:
        i = data.draw(st.sampled_from(with_internal), label="cycle with internal records")
        assert_rejected(lambda c: c[i]["internal"].pop())


def _forge_routes_trace(routes, forge):
    """A lexicographic-first routes trace (n=2, 6 cycles) changed by forge."""
    trace = run(routes, {"n": 2}, EngineConfig(cycles=6, policy=LEXICOGRAPHIC_FIRST))
    forged = json.loads(trace_to_json(trace))
    forge(forged)
    return forged


def _name_one_instance_twice(trace):
    first, _ = trace["cycles"][0]["interaction"]  # Monitor#1.add with Route#1.on
    trace["cycles"][0]["interaction"] = [first, dict(first)]


@pytest.mark.parametrize(
    "forge, message",
    [
        (lambda t: t.update(schema=2), "trace schema is 2, expected 1"),
        (lambda t: t.update(schema=True), "trace schema is True, expected 1"),
        (lambda t: t.update(schema=1.0), "trace schema is 1.0, expected 1"),
        (lambda t: t.update(binding={"n": 2.0}), "trace binding is {'n': 2.0}, expected"),
        (lambda t: t.update(seed=-5), "trace header: seed must lie in [0, 2**64)"),
        (lambda t: t.update(seed="nope"), "trace header: seed must lie in [0, 2**64)"),
        (lambda t: t.update(seed=True), "trace header: seed must lie in [0, 2**64)"),
        (lambda t: t.update(seed=2**64), "trace header: seed must lie in [0, 2**64)"),
        (lambda t: t.pop("seed"), "trace header: seed must lie in [0, 2**64)"),
        (lambda t: t.update(policy="nope"), "trace header: unknown policy 'nope'"),
        (lambda t: t.update(policy=-5), "trace header: unknown policy -5"),
        (lambda t: t.update(model="Other"), "trace model is 'Other'"),
        (lambda t: t.update(binding={"n": 3}), "trace binding is {'n': 3}"),
        (lambda t: t.update(cycles={}), "a list of cycles"),
        (lambda t: t["cycles"][2].update(idle=True), "cycle 2: idle is True, expected False"),
        (lambda t: t["cycles"][1].update(cycle="1"), "cycle 1: recorded as cycle '1'"),
        (lambda t: t["cycles"][1].update(cycle=True), "cycle 1: recorded as cycle True"),
        (lambda t: t["cycles"][3].pop("internal"), "cycle 3: malformed record (KeyError"),
        (lambda t: t["cycles"][0].update(spontaneous=None), "cycle 0: malformed record (TypeError"),
        (lambda t: t["cycles"][0]["interaction"][0].pop("port"), "cycle 0: malformed record"),
        (lambda t: t["cycles"][0].update(interaction="on"), "cycle 0: malformed record"),
        (_name_one_instance_twice, "cycle 0: fired interaction names an instance twice"),
        # Route#1.on alone is enabled but needs Monitor#1.add
        (lambda t: t["cycles"][0]["interaction"].pop(0), "['Route.on#1'] is not allowed"),
    ],
)
def test_replay_rejects_malformed_and_mismatched_traces(routes, forge, message):
    with pytest.raises(ReplayError, match=re.escape(message)):
        replay_validate(_forge_routes_trace(routes, forge), routes, {"n": 2})


def test_replay_tells_a_binding_of_true_from_the_integer_1(routes):
    trace = json.loads(trace_to_json(run(routes, {"n": 1}, EngineConfig(cycles=3))))
    replay_validate(trace, routes, {"n": 1})
    trace["binding"]["n"] = True
    with pytest.raises(ReplayError, match=re.escape(
            "trace binding is {'n': True}, expected {'n': 1}")):
        replay_validate(trace, routes, {"n": 1})


def test_replay_counts_the_instances_taking_part_with_each_port(mutex):
    """A second idle process joins a fired acquire: each record matches an
    enabled transition and the instances are distinct, but two processes
    acquire together, which no orbit allows.  A key holding the (type, port)
    pairs as a set, not counted, would accept it."""
    trace = run(mutex, {"n": 3}, EngineConfig(cycles=1, policy=LEXICOGRAPHIC_FIRST))
    records = trace["cycles"][0]["interaction"]
    assert [(r["instance"], r["port"]) for r in records] == [
        ("Manager#1", "acquire"), ("Process#1", "acquire")]
    replay_validate(trace, mutex, {"n": 3})
    records.append({"instance": "Process#2", "port": "acquire", "from": "idle", "to": "using"})
    message = ("cycle 0: fired interaction ['Manager.acquire#1', 'Process.acquire#1', "
               "'Process.acquire#2'] is not allowed")
    with pytest.raises(ReplayError, match=re.escape(message)):
        replay_validate(trace, mutex, {"n": 3})


def test_replay_rejects_a_cycle_that_stops_short_of_its_internal_fixpoint(routes):
    # route 1 goes off -> on -> wait; in cycle 2 the guard write enables the
    # internal wait -> done transition, the only thing that fires
    script = EventScript((ScriptEntry(), ScriptEntry(), ScriptEntry(
        guards=(("Route#1", "finished", True),))))
    trace = run(routes, {"n": 1}, EngineConfig(cycles=3, policy=LEXICOGRAPHIC_FIRST),
                script=script)
    assert trace["cycles"][2]["internal"] == [
        {"instance": "Route#1", "from": "wait", "to": "done"}
    ]
    replay_validate(trace, routes, {"n": 1}, script=script)
    forged = json.loads(trace_to_json(trace))
    forged["cycles"][2].update(internal=[], idle=True)
    with pytest.raises(ReplayError, match="cycle 2: Route#1 stopped short of its internal"):
        replay_validate(forged, routes, {"n": 1}, script=script)


def test_replay_checks_every_instance_for_its_fixpoint_in_cycle_0():
    # T#1 starts in a state with an enabled internal transition and no
    # record or script touches it, yet the engine fires a -> b in cycle 0
    d = parse_model(
        """
diagram Chain {
  component T [1] {
    ports { p }
    states { a*, b }
    transitions { : a -> b }
  }
}
"""
    )
    trace = run(d, {}, EngineConfig(cycles=2))
    assert [c["internal"] for c in trace["cycles"]] == [
        [{"instance": "T#1", "from": "a", "to": "b"}], []
    ]
    forged = json.loads(trace_to_json(trace))
    forged["cycles"][0].update(internal=[], idle=True)
    with pytest.raises(ReplayError, match="cycle 0: T#1 stopped short of its internal"):
        replay_validate(forged, d, {})


@pytest.mark.parametrize("order", [[0, 0, 1], [1, 0]], ids=["twice", "reversed"])
def test_replay_rejects_spontaneous_records_out_of_instance_order(order):
    # A#1 has e queued twice and A#2 once: the step consumes one head per
    # instance, A#1's before A#2's, and leaves A#1's second e queued
    d = parse_model(
        """
diagram Loop {
  component A [2] {
    ports { p }
    events { e }
    states { s* }
    transitions { e: s -> s }
  }
}
"""
    )
    script = EventScript((ScriptEntry(events=(("A#1", "e"), ("A#1", "e"), ("A#2", "e"))),))
    trace = run(d, {}, EngineConfig(cycles=1), script=script)
    records = trace["cycles"][0]["spontaneous"]
    assert [r["instance"] for r in records] == ["A#1", "A#2"]
    replay_validate(trace, d, {}, script=script)
    forged = json.loads(trace_to_json(trace))
    forged["cycles"][0]["spontaneous"] = [records[k] for k in order]
    with pytest.raises(ReplayError,
                       match="cycle 0: spontaneous record out of instance order at A#1"):
        replay_validate(forged, d, {}, script=script)


def test_replay_rejects_interaction_records_out_of_instance_order(mutex):
    """The step records a fired interaction's ports in canonical (type,
    index) order: Manager#1 before the process.  An interaction out of that
    order that also names an instance twice, or is not allowed, is refused
    with that earlier message."""
    trace = run(mutex, {"n": 3}, EngineConfig(cycles=3, seed=1))
    records = trace["cycles"][0]["interaction"]
    assert [r["instance"] for r in records] == ["Manager#1", "Process#3"]
    replay_validate(trace, mutex, {"n": 3})
    extra = {"instance": "Process#1", "port": "acquire", "from": "idle", "to": "using"}
    for forged_records, message in (
        (records[::-1], "interaction record out of instance order at Manager#1"),
        (records[::-1] + [records[1]], "fired interaction names an instance twice"),
        (records[::-1] + [extra], r"fired interaction \[.*\] is not allowed"),
    ):
        forged = json.loads(trace_to_json(trace))
        forged["cycles"][0]["interaction"] = forged_records
        with pytest.raises(ReplayError, match=f"^cycle 0: {message}$"):
            replay_validate(forged, mutex, {"n": 3})


def test_replay_rejects_internal_records_out_of_instance_order():
    # each instance fires its internal chain a -> b -> c in one block
    d = parse_model(
        """
diagram Chains {
  component T [2] {
    ports { p }
    states { a*, b, c }
    transitions {
      : a -> b
      : b -> c
    }
  }
}
"""
    )
    trace = run(d, {}, EngineConfig(cycles=1))
    records = trace["cycles"][0]["internal"]
    assert [(r["instance"], r["to"]) for r in records] == [
        ("T#1", "b"), ("T#1", "c"), ("T#2", "b"), ("T#2", "c")
    ]
    replay_validate(trace, d, {})
    forged = json.loads(trace_to_json(trace))
    forged["cycles"][0]["internal"] = [records[k] for k in (0, 2, 1, 3)]
    with pytest.raises(ReplayError, match="cycle 0: internal record out of instance order at T#1"):
        replay_validate(forged, d, {})
