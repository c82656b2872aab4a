"""Shared test helpers: naming shortcuts, oracles, and diagram generators.

This is the one place where tests build single-motif diagrams
(:func:`single_motif_diagram`); the sweep in ``bipkit.diagram`` works on
their numbers alone."""

from __future__ import annotations

import itertools
import math
import random
from typing import Iterable, Optional, Sequence

from bipkit import diagram as dg
from bipkit import encode_macros
from bipkit.engine import LEXICOGRAPHIC_FIRST, ScriptEntry, SplitMix64
from bipkit.errors import CapacityError
from bipkit.logic import allowed_interactions
from bipkit.model import (
    ArchitectureDiagram,
    CardExpr,
    ComponentType,
    ConnectorMotif,
    ENFORCEABLE,
    Interaction,
    MotifEnd,
    PortInstance,
    PortTypeRef,
    SYNCHRON,
    TRIGGER,
    Transition,
    orbits_interactions,
)
from bipkit.spec import enabled_ports


def pi(type_name: str, index: int, port: str) -> PortInstance:
    return PortInstance(type_name, index, port)


def names(interactions: Iterable[Interaction]) -> set[tuple[str, ...]]:
    """Render a set of interactions as sorted tuples of 'Type.port#i' strings."""
    return {tuple(sorted(str(p) for p in interaction)) for interaction in interactions}


def ports_only(interactions: Iterable[Interaction]) -> set[str]:
    """Compact rendering by port name and index, e.g. {'p1 q2', 'q1'}."""
    out = set()
    for interaction in interactions:
        out.add(" ".join(sorted(f"{p.port}{p.index}" for p in interaction)))
    return out


def subsets(universe: Sequence[PortInstance], include_empty: bool = False):
    start = 0 if include_empty else 1
    for size in range(start, len(universe) + 1):
        for combo in itertools.combinations(universe, size):
            yield frozenset(combo)


def macro_interactions(
    d: ArchitectureDiagram, binding, solve=allowed_interactions
) -> frozenset[Interaction]:
    """The macro-derived allowed set: encode, then solve the rules (by
    default with the orbit solver; pass ``allowed_interactions_spec`` for
    the FOIL-grounded set)."""
    spec = encode_macros(d)
    counts = dg.instance_counts(d, binding)
    return solve(spec.requires, spec.accepts, counts)


def in_encoder_envelope(specs: Sequence[tuple[int, int, int]], typings: Sequence[str]) -> bool:
    """Diagrams whose macro encoding is defined to match the diagram semantics.

    Singleton motifs render as dash rules, which denote lone-port
    interactions, so they carry multiplicity 1 here.  In a motif with
    triggers the macros never bound how many instances of a multi-unit end
    join an interaction, so any end with multiplicity above 1 must involve
    all instances of its type.
    """
    if len(specs) == 1:
        return specs[0][1] == 1
    if any(t == TRIGGER for t in typings):
        return all(m == 1 or m == n for (n, m, _) in specs)
    return True


def iter_typed_motif_space(bound: int = 3):
    """Every sweep shape of ``diagram.iter_sweep_shapes`` with every
    synchron/trigger typing combination."""
    for specs in dg.iter_sweep_shapes(bound):
        for typings in itertools.product((SYNCHRON, TRIGGER), repeat=len(specs)):
            yield specs, typings


def loop_type(name: str, ports: Sequence[str], cardinality: CardExpr) -> ComponentType:
    """A component type with one state, on which each port self-loops."""
    return ComponentType(
        name, cardinality, frozenset(ports),
        states=frozenset({"s"}), initial_states=frozenset({"s"}),
        transitions=tuple(Transition(ENFORCEABLE, p, "s", "s") for p in sorted(ports)),
    )


def single_motif_diagram(
    specs: Sequence[tuple[int, int, int]], typings: Optional[Sequence[str]] = None
) -> ArchitectureDiagram:
    """A diagram with one motif over one or two fresh component types.

    ``specs`` lists (cardinality, multiplicity, degree) per end; typings
    default to all-synchron.
    """
    if typings is None:
        typings = [SYNCHRON] * len(specs)
    types = [loop_type(name, ["p"], CardExpr.lit(n)) for name, (n, _, _) in zip("ABCD", specs)]
    ends = tuple(
        MotifEnd(PortTypeRef(name, "p"), CardExpr.lit(m), CardExpr.lit(deg), typing)
        for name, (_, m, deg), typing in zip("ABCD", specs, typings)
    )
    return ArchitectureDiagram("sweep", tuple(types), (ConnectorMotif("only", ends),))


def sweep_label(specs: Sequence[tuple[int, int, int]]) -> str:
    """A sweep point's label, the specification of the one
    ``diagram.proposition_sweep`` joins from per-spec fragments."""
    if len(specs) == 1:
        return "n={} m={} d={}".format(*specs[0])
    return " | ".join(f"n{k}={n} m{k}={m} d{k}={deg}" for k, (n, m, deg) in enumerate(specs, 1))


def iter_sweep_points(bound: int = 3):
    """Single-motif diagrams with one or two port types, all of n, m, d in
    [1, bound], each with its label, e.g. ``n1=1 m1=1 d1=2 | n2=2 m2=1 d2=1``."""
    for specs in dg.iter_sweep_shapes(bound):
        yield sweep_label(specs), single_motif_diagram(specs)


def sweep_spec(bound: int = 3, max_nodes: int = dg.DEFAULT_MAX_NODES) -> list[dg.SweepRecord]:
    """The sweep's specification: each point's diagram built, its
    configurations counted by ``enumerate_configurations`` (limit 2, unknown
    past ``max_nodes``) and its verdict read from ``check_encodable``."""
    records = []
    for label, d in iter_sweep_points(bound):
        try:
            count = len(dg.enumerate_configurations(d, d.motifs[0], {}, limit=2,
                                                    max_nodes=max_nodes))
        except CapacityError:
            count = None
        records.append(dg.SweepRecord(label, count, dg.check_encodable(d, {}).overall))
    return records


def random_encodable_diagram(
    rng: random.Random, bound: int = 3
) -> Optional[ArchitectureDiagram]:
    """One draw from the encodable single-motif space inside the encoder
    envelope; None when the draw was rejected."""
    k = rng.choice([1, 2])
    ns = [rng.randint(1, bound) for _ in range(k)]
    ms = [rng.randint(1, n) for n in ns]
    typings = [rng.choice([SYNCHRON, TRIGGER]) for _ in range(k)]

    size = math.prod(math.comb(n, m) for n, m in zip(ns, ms))
    specs = []
    for n, m in zip(ns, ms):
        if (size * m) % n:
            return None
        deg = size * m // n
        if not 1 <= deg <= bound:
            return None
        specs.append((n, m, deg))
    if not in_encoder_envelope(specs, typings):
        return None
    return single_motif_diagram(specs, typings)


# Processes that take two lock holders at once; see the two_locks fixture of
# test_engine.py.
TWO_LOCKS = """
diagram TwoLocks {
  component A [1] {
    ports { acq, rel, nap, wake }
    states { free*, busy, asleep }
    transitions {
      acq: free -> busy
      rel: busy -> free
      nap: free -> asleep
      wake: asleep -> free
    }
  }
  component B [1] {
    ports { acq, rel, nap, wake }
    states { free*, busy, asleep }
    transitions {
      acq: free -> busy
      rel: busy -> free
      nap: free -> asleep
      wake: asleep -> free
    }
  }
  component P [n] {
    ports { acq, rel, tick }
    states { idle*, using }
    transitions {
      acq: idle -> using
      rel: using -> idle
      tick: idle -> idle
    }
  }
  motif acquire { A.acq 1:n synchron; B.acq 1:n synchron; P.acq 1:1 synchron }
  motif release { A.rel 1:n synchron; B.rel 1:n synchron; P.rel 1:1 synchron }
  motif napA { A.nap 1:1 synchron }
  motif wakeA { A.wake 1:1 synchron }
  motif napB { B.nap 1:1 synchron }
  motif wakeB { B.wake 1:1 synchron }
  motif tick { P.tick 1:1 synchron }
}
"""


# ---- the engine's pick, as the determinism contract states it --------------


def sorted_allowed(d: ArchitectureDiagram, binding, orbits) -> list[tuple[PortInstance, ...]]:
    """The canonical list the engine picks from: the allowed interactions
    that name distinct instances, each as its sorted port instances, sorted.
    An interaction naming one instance twice is never feasible."""
    keys = sorted(tuple(sorted(interaction)) for interaction in
                  orbits_interactions(orbits, dg.instance_counts(d, binding)))
    return [key for key in keys if len({(p.component_type, p.index) for p in key}) == len(key)]


def feasible_spec(allowed: list[tuple[PortInstance, ...]], state,
                  d: ArchitectureDiagram) -> list[tuple[PortInstance, ...]]:
    """The allowed interactions, in canonical order, whose ports are all
    enabled in ``state``."""
    enabled = enabled_ports(state, d)
    return [key for key in allowed if enabled.issuperset(key)]


def follow(state, entry: Optional[ScriptEntry], record: dict) -> None:
    """Apply one cycle to an instance-state mapping, as replay reads it: the
    script entry's guard writes and events, then the trace record's
    spontaneous, interaction and internal moves in order.  Each move starts
    at the state its record names, and a consumed event is its instance's
    queue head."""
    entry = entry or ScriptEntry()
    for target, guard, value in entry.guards:
        state[target].guards[guard] = value
    for target, event in entry.events:
        state[target].queue.append(event)
    for move in record["spontaneous"]:
        assert state[move["instance"]].queue.pop(0) == move["event"]
    for move in (*record["spontaneous"], *(record["interaction"] or ()), *record["internal"]):
        inst = state[move["instance"]]
        assert inst.current == move["from"], (move, inst.current)
        inst.current = move["to"]


def pick_spec(feasible: list[tuple[PortInstance, ...]], rng: SplitMix64,
              policy: str) -> Optional[tuple[PortInstance, ...]]:
    """lexicographic-first takes the first feasible interaction; uniform-random
    takes feasible[next() % n] and draws only when n > 0."""
    if not feasible:
        return None
    return feasible[0 if policy == LEXICOGRAPHIC_FIRST else rng.pick_index(len(feasible))]


# One sender broadcasts to any subset of n receivers: 2^n interactions in
# n + 1 orbits.  Both types have two states, so eligibility toggles.
BROADCAST = """
diagram Broadcast {
  component R [n] {
    ports { r, u }
    states { x*, y }
    transitions {
      r: x -> y
      u: y -> x
    }
  }
  component S [1] {
    ports { s, t }
    states { a*, b }
    transitions {
      s: a -> b
      t: b -> a
    }
  }
  motif send { S.s 1:1 trigger; R.r n:1 synchron }
  motif reset { S.t 1:1 synchron }
  motif undo { R.u 1:1 synchron }
}
"""


# One instance may take part through both ends, an orbit the engine skips;
# the other orbit draws two distinct instances of T, one per port, and an
# instance in s may serve either.
SHARED_TYPE = """
diagram Shared {
  component T [n] {
    ports { p, q }
    states { s*, t }
    transitions {
      p: s -> t
      q: s -> s
      q: t -> s
    }
  }
  motif both { T.p 1:n synchron; T.q 1:n synchron }
}
"""


# Orbits that draw two instances of one type: ``pair`` alone in its run,
# ``link`` beside ``back`` in the run of B, so the pick unranks a 2-subset
# both in its run's lone live orbit and after a descent.
PAIRS = """
diagram Pairs {
  component B [2] {
    ports { b, c }
    states { s* }
    transitions {
      b: s -> s
      c: s -> s
    }
  }
  component P [5] {
    ports { p, q, r }
    states { x*, y }
    transitions {
      p: x -> y
      q: y -> x
      r: x -> y
    }
  }
  motif pair { P.p 2:4 synchron }
  motif back { B.b 1:5 synchron; P.q 1:2 synchron }
  motif link { B.c 1:10 synchron; P.r 2:8 synchron }
}
"""
