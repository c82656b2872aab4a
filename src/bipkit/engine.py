"""Cyclic execution engine producing deterministic JSON traces.

Each cycle runs four ordered sub-steps:

  (a) apply the cycle's scripted guard updates;
  (b) enqueue the cycle's scripted spontaneous events, then let every
      instance consume the head of its queue if a matching spontaneous
      transition is enabled (at most one firing per instance per cycle);
  (c) among the precomputed allowed interactions, keep those whose ports are
      all enabled, pick one by policy, and fire it;
  (d) fire internal transitions eagerly, at most one state's worth of
      firings per instance, in deterministic instance/declaration order.

A cycle in which nothing fired is recorded as idle.  Identical inputs give
byte-identical trace JSON: the only randomness is an explicitly specified
64-bit generator seeded from the run configuration.

A run compiles the instantiated system once (:class:`CompiledSystem`):
instances in canonical order, per-(type, state) transition tables, the
allowed interactions as port indices with an inverted index from each port
to the interactions using it, and a count of missing ports per interaction.
The enabled ports are then maintained incrementally: only instances touched
by a guard update, a consumed event, a firing or an internal step are
recomputed, so a cycle costs what changed rather than the system size.

The determinism contract does not depend on that bookkeeping.  The feasible
candidates are the allowed interactions in canonical sorted order;
lexicographic-first takes the first, uniform-random takes candidate
next() modulo n and draws only when n > 0.  The generator is splitmix64:
state advances by adding the 64-bit constant 0x9E3779B97F4A7C15; the output
mixes z = state with z ^= z >> 30 followed by multiplication with
0xBF58476D1CE4E5B9, z ^= z >> 27, multiplication with 0x94D049BB133111EB,
and z ^= z >> 31, all modulo 2**64.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional, Sequence

from . import diagram as diagram_mod
from .encoder import encode_macros
from .errors import BipError, LivelockError, ScriptError
from .logic import allowed_interactions
from .model import (
    ArchitectureDiagram,
    ENFORCEABLE,
    INTERNAL,
    Interaction,
    PortInstance,
    SPONTANEOUS,
    Transition,
)

MASK64 = (1 << 64) - 1

UNIFORM_RANDOM = "uniform-random"
LEXICOGRAPHIC_FIRST = "lexicographic-first"
POLICIES = (UNIFORM_RANDOM, LEXICOGRAPHIC_FIRST)

DIAGRAM_SOURCE = "diagram"
MACRO_SOURCE = "macros"

DEFAULT_MAX_CYCLES = 10**5
TRACE_SCHEMA = 1


class SplitMix64:
    """The documented trace generator; reproducible across implementations."""

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next_u64(self) -> int:
        self.state = (self.state + 0x9E3779B97F4A7C15) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def pick_index(self, n: int) -> int:
        return self.next_u64() % n


@dataclass(frozen=True)
class EngineConfig:
    cycles: int
    seed: int = 0
    policy: str = UNIFORM_RANDOM
    max_cycles: int = DEFAULT_MAX_CYCLES

    def __post_init__(self):
        if self.policy not in POLICIES:
            raise ValueError(f"unknown policy {self.policy!r}")
        if not 0 <= self.cycles <= self.max_cycles:
            raise ValueError(f"cycles must lie in [0, {self.max_cycles}]")


@dataclass(frozen=True)
class ScriptEntry:
    events: tuple[tuple[str, str], ...] = ()  # (instance id, event)
    guards: tuple[tuple[str, str, bool], ...] = ()  # (instance id, guard, value)


@dataclass(frozen=True)
class EventScript:
    entries: tuple[ScriptEntry, ...] = ()

    @classmethod
    def from_json(cls, text: str) -> "EventScript":
        """Parse a script; a malformed one raises ScriptError located by its
        JSON path, e.g. ``cycles[0].events[0]: missing "target"``."""
        data = json.loads(text)
        if not isinstance(data, dict) or data.get("schema") != 1:
            raise ScriptError('event scripts need a {"schema": 1, "cycles": [...]} object')
        cycles = data.get("cycles", [])
        if not isinstance(cycles, list):
            raise ScriptError("cycles: expected a list")
        return cls(entries=tuple(_script_entry(raw, index) for index, raw in enumerate(cycles)))

    def to_json(self) -> str:
        payload = {
            "schema": 1,
            "cycles": [
                {
                    "events": [{"target": t, "event": e} for t, e in entry.events],
                    "guards": [
                        {"target": t, "guard": g, "value": v} for t, g, v in entry.guards
                    ],
                }
                for entry in self.entries
            ],
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# The fields of the objects a script cycle lists under each key, with their
# JSON types.
_SCRIPT_FIELDS = {
    "events": (("target", str), ("event", str)),
    "guards": (("target", str), ("guard", str), ("value", bool)),
}
_JSON_TYPE_NAMES = {str: "a string", bool: "true or false"}


def _script_entry(raw: dict, index: int) -> ScriptEntry:
    """Cycle ``index`` of a script, checked field by field against
    ``_SCRIPT_FIELDS``; the first problem raises ScriptError at its JSON path."""
    where = f"cycles[{index}]"
    if not isinstance(raw, dict):
        raise ScriptError(f"{where}: expected an object")
    parsed = {}
    for key, fields in _SCRIPT_FIELDS.items():
        items = raw.get(key, [])
        if not isinstance(items, list):
            raise ScriptError(f"{where}.{key}: expected a list")
        rows = []
        for position, item in enumerate(items):
            if not isinstance(item, dict):
                raise ScriptError(f"{where}.{key}[{position}]: expected an object")
            row = []
            for name, kind in fields:
                if name not in item:
                    raise ScriptError(f'{where}.{key}[{position}]: missing "{name}"')
                value = item[name]
                if not isinstance(value, kind):
                    raise ScriptError(
                        f"{where}.{key}[{position}].{name}: expected "
                        f"{_JSON_TYPE_NAMES[kind]}, got {json.dumps(value)}"
                    )
                row.append(value)
            rows.append(tuple(row))
        parsed[key] = tuple(rows)
    return ScriptEntry(**parsed)


@dataclass
class InstanceState:
    type_name: str
    index: int
    current: str
    queue: list[str] = field(default_factory=list)
    guards: dict[str, bool] = field(default_factory=dict)

    @property
    def instance_id(self) -> str:
        return f"{self.type_name}#{self.index}"


@dataclass
class SystemState:
    """Runtime state of every instance; owned exclusively by one run.

    ``instances`` maps each instance id to its state in canonical (type
    name, index) order, the order in which every sub-step visits instances
    and records what fired; :func:`init_state` builds it in that order.
    """

    instances: dict[str, InstanceState]

    def ordered(self) -> list[InstanceState]:
        return list(self.instances.values())


def instance_id(type_name: str, index: int) -> str:
    return f"{type_name}#{index}"


def init_state(
    d: ArchitectureDiagram,
    binding: diagram_mod.Binding,
    initial_guards: Optional[Mapping[str, Mapping[str, bool]]] = None,
) -> SystemState:
    """Every instance at its initial state, empty queues, guards false unless
    overridden by initial_guards[instance_id][guard]."""
    diagram_mod.check_binding(d, binding)
    initial_guards = initial_guards or {}
    instances: dict[str, InstanceState] = {}
    for ct in d.component_types:
        count = ct.cardinality.evaluate(binding)
        defaults = {name: False for name in sorted(ct.guards)}
        initial = ct.initial_state
        for index in range(1, count + 1):
            key = instance_id(ct.name, index)
            guards = dict(defaults)
            overrides = initial_guards.get(key)
            if overrides:
                guards.update(overrides)
                unknown = set(guards) - ct.guards
                if unknown:
                    raise ScriptError(f"unknown guards for {key}: {', '.join(sorted(unknown))}")
            instances[key] = InstanceState(
                type_name=ct.name, index=index, current=initial, guards=guards
            )
    return SystemState(instances=instances)


def _guard_true(tr: Transition, guards: Mapping[str, bool]) -> bool:
    return tr.guard is None or tr.guard.evaluate(guards)


def enabled_ports(state: SystemState, d: ArchitectureDiagram) -> frozenset[PortInstance]:
    """Port instances whose enforceable transition is ready to fire."""
    enabled = set()
    for inst in state.ordered():
        ct = d.component_type(inst.type_name)
        for tr in ct.transitions:
            if tr.kind == ENFORCEABLE and tr.source == inst.current and _guard_true(tr, inst.guards):
                enabled.add(PortInstance(inst.type_name, inst.index, tr.label))
    return frozenset(enabled)


def interaction_sort_key(interaction: Interaction) -> tuple[tuple[str, int, str], ...]:
    """The interaction's ports as sorted (type, index, port) triples; ordering
    interactions by it is the canonical order."""
    return tuple(sorted((p.component_type, p.index, p.port) for p in interaction))


@dataclass(frozen=True)
class _Transitions:
    """One component type's transitions by source state, split by kind, each
    list in declaration order: the first enabled entry is the one that fires."""

    enforceable: dict[str, list[Transition]]  # state -> transitions
    labeled: dict[tuple[str, str, str], list[Transition]]  # (kind, state, label) -> transitions
    internal: dict[str, list[Transition]]  # state -> transitions
    budget: int  # internal firings allowed per instance and cycle: |states|


def _transition_tables(d: ArchitectureDiagram) -> dict[str, _Transitions]:
    tables = {}
    for ct in d.component_types:
        enforceable: dict = {}
        labeled: dict = {}
        internal: dict = {}
        for tr in ct.transitions:
            if tr.kind == INTERNAL:
                internal.setdefault(tr.source, []).append(tr)
                continue
            labeled.setdefault((tr.kind, tr.source, tr.label), []).append(tr)
            if tr.kind == ENFORCEABLE:
                enforceable.setdefault(tr.source, []).append(tr)
        tables[ct.name] = _Transitions(enforceable, labeled, internal, len(ct.states))
    return tables


def _first_enabled(
    transitions: Iterable[Transition], guards: Mapping[str, bool]
) -> Optional[Transition]:
    for tr in transitions:
        if _guard_true(tr, guards):
            return tr
    return None


@dataclass(frozen=True)
class TraceCycle:
    cycle: int
    spontaneous: tuple[dict, ...]
    interaction: Optional[tuple[dict, ...]]
    internal: tuple[dict, ...]
    idle: bool

    def to_dict(self) -> dict:
        return {
            "cycle": self.cycle,
            "spontaneous": list(self.spontaneous),
            "interaction": list(self.interaction) if self.interaction is not None else None,
            "internal": list(self.internal),
            "idle": self.idle,
        }


class CompiledSystem:
    """An instantiated system compiled for stepping.

    Instances are numbered in canonical order and each port instance that
    occurs in an allowed interaction gets an integer id.  Every allowed
    interaction whose ports belong to distinct instances is kept, in the
    given order, as a tuple of port ids; each port lists the interactions
    using it, and each interaction counts its ports that are not enabled.
    The interactions with no missing port form the feasible set.

    :meth:`step` mutates the instances of the compiled ``state`` in place;
    the enabled ports, missing counts and feasible set are recomputed only
    for instances a step touches.  The state stays the only source of
    truth: after changing it from outside, compile it again.
    """

    def __init__(
        self,
        state: SystemState,
        d: ArchitectureDiagram,
        allowed_keys: Iterable[tuple[tuple[str, int, str], ...]],
    ):
        """``allowed_keys`` are the allowed interactions as their
        :func:`interaction_sort_key`, in canonical order."""
        instances = state.ordered()
        tables = _transition_tables(d)
        self.instances = instances
        self.ids = list(state.instances)
        self.position = {key: i for i, key in enumerate(self.ids)}
        self.types = [d.types_by_name[inst.type_name] for inst in instances]
        self.tables = [tables[inst.type_name] for inst in instances]

        index_of = {(inst.type_name, inst.index): i for i, inst in enumerate(instances)}
        port_ids: list[dict[str, int]] = [{} for _ in instances]  # instance -> label -> id
        ports: list[tuple[int, str]] = []  # id -> (instance, label)
        users: list[list[int]] = []  # id -> interactions using the port
        interactions: list[tuple[int, ...]] = []  # port ids in sorted port order
        for key in allowed_keys:
            pids = []
            previous = None
            for type_name, index, label in key:
                i = index_of.get((type_name, index))
                # An interaction naming no instance of this system, or one
                # instance twice, is never feasible.  A sorted key lists the
                # ports of one instance next to each other.
                if i is None or i == previous:
                    break
                previous = i
                pid = port_ids[i].get(label)
                if pid is None:
                    pid = port_ids[i][label] = len(ports)
                    ports.append((i, label))
                    users.append([])
                pids.append(pid)
            else:
                for pid in pids:
                    users[pid].append(len(interactions))
                interactions.append(tuple(pids))
        self.port_ids, self.ports, self.users = port_ids, ports, users
        self.interactions = interactions

        self.missing = [len(pids) for pids in self.interactions]
        self.ready = {k for k, count in enumerate(self.missing) if not count}
        self.enabled: list[frozenset[str]] = [frozenset()] * len(instances)
        for i in range(len(instances)):
            self._refresh(i)
        self.queued = {i for i, inst in enumerate(instances) if inst.queue}
        # Instances that may have an enabled internal transition.  After
        # sub-step (d) every instance sits at its fixpoint, so only those
        # touched since need another look.
        self.touched = {
            i for i, inst in enumerate(instances) if inst.current in self.tables[i].internal
        }

    def enabled_ports(self) -> frozenset[PortInstance]:
        """The maintained enabled set; between steps it equals
        :func:`enabled_ports` of the compiled state."""
        return frozenset(
            PortInstance(inst.type_name, inst.index, label)
            for inst, labels in zip(self.instances, self.enabled)
            for label in labels
        )

    def _refresh(self, i: int) -> None:
        """Recompute instance i's enabled ports and update the missing counts
        and the feasible set of the interactions using a port that changed."""
        inst = self.instances[i]
        guards = inst.guards
        new = frozenset(
            tr.label
            for tr in self.tables[i].enforceable.get(inst.current, ())
            if tr.guard is None or tr.guard.evaluate(guards)
        )
        old = self.enabled[i]
        if new == old:
            return
        self.enabled[i] = new
        port_ids, users, missing, ready = self.port_ids[i], self.users, self.missing, self.ready
        for label in old - new:
            pid = port_ids.get(label)
            if pid is not None:
                ready.difference_update(users[pid])
                for k in users[pid]:
                    missing[k] += 1
        for label in new - old:
            pid = port_ids.get(label)
            if pid is not None:
                for k in users[pid]:
                    missing[k] -= 1
                    if not missing[k]:
                        ready.add(k)

    def _move(self, i: int, tr: Transition) -> None:
        self.instances[i].current = tr.destination
        self.touched.add(i)
        self._refresh(i)

    def step(
        self,
        entry: Optional[ScriptEntry],
        rng: SplitMix64,
        policy: str,
        cycle_index: int = 0,
    ) -> TraceCycle:
        """Run one engine cycle and return its record."""
        entry = entry or ScriptEntry()
        instances, ids, tables = self.instances, self.ids, self.tables

        # (a) guard updates
        for target, guard, value in entry.guards:
            i = self.position.get(target)
            if i is None:
                raise ScriptError(f"guard update targets unknown instance {target!r}")
            if guard not in self.types[i].guards:
                raise ScriptError(f"{target} declares no guard {guard!r}")
            instances[i].guards[guard] = value
            self.touched.add(i)
            self._refresh(i)

        # (b) spontaneous events: enqueue, then consume at most one per instance
        for target, event in entry.events:
            i = self.position.get(target)
            if i is None:
                raise ScriptError(f"event targets unknown instance {target!r}")
            if event not in self.types[i].spontaneous_events:
                raise ScriptError(f"{target} declares no spontaneous event {event!r}")
            instances[i].queue.append(event)
            self.queued.add(i)

        spontaneous = []
        for i in sorted(self.queued):
            inst = instances[i]
            head = inst.queue[0]
            key = (SPONTANEOUS, inst.current, head)
            tr = _first_enabled(tables[i].labeled.get(key, ()), inst.guards)
            if tr is None:
                continue
            inst.queue.pop(0)
            if not inst.queue:
                self.queued.discard(i)
            spontaneous.append(
                {"instance": ids[i], "event": head, "from": tr.source, "to": tr.destination}
            )
            self._move(i, tr)

        # (c) one enforceable interaction, picked among the feasible ones
        interaction_record = None
        if self.ready:
            if policy == LEXICOGRAPHIC_FIRST:
                choice = min(self.ready)
            else:
                feasible = sorted(self.ready)
                choice = feasible[rng.pick_index(len(feasible))]
            fired = []
            for pid in self.interactions[choice]:
                i, label = self.ports[pid]
                inst = instances[i]
                key = (ENFORCEABLE, inst.current, label)
                tr = _first_enabled(tables[i].labeled.get(key, ()), inst.guards)
                if tr is None:
                    port = PortInstance(inst.type_name, inst.index, label)
                    raise BipError(f"port {port} was enabled but lost its transition")
                fired.append(
                    {"instance": ids[i], "port": label, "from": tr.source, "to": tr.destination}
                )
                self._move(i, tr)
            interaction_record = tuple(fired)

        # (d) internal transitions, eagerly, bounded per instance by |states|
        internal = []
        for i in sorted(self.touched):
            inst, table = instances[i], tables[i]
            count = 0
            while True:
                tr = _first_enabled(table.internal.get(inst.current, ()), inst.guards)
                if tr is None:
                    break
                if count >= table.budget:
                    raise LivelockError(ids[i])
                internal.append({"instance": ids[i], "from": tr.source, "to": tr.destination})
                self._move(i, tr)
                count += 1
        self.touched.clear()

        idle = not spontaneous and interaction_record is None and not internal
        return TraceCycle(
            cycle=cycle_index,
            spontaneous=tuple(spontaneous),
            interaction=interaction_record,
            internal=tuple(internal),
            idle=idle,
        )


def step_cycle(
    state: SystemState,
    d: ArchitectureDiagram,
    entry: Optional[ScriptEntry],
    allowed_sorted: Sequence[Interaction],
    rng: SplitMix64,
    policy: str,
    cycle_index: int = 0,
) -> TraceCycle:
    """Run one engine cycle, mutating ``state`` and returning its record.

    Compiles the system from ``state`` and takes one step of it, which is
    exactly what each cycle of :func:`run` does on its compiled system.
    """
    keys = [interaction_sort_key(a) for a in allowed_sorted]
    return CompiledSystem(state, d, keys).step(entry, rng, policy, cycle_index)


def _allowed_set(
    d: ArchitectureDiagram, binding: diagram_mod.Binding, source: str
) -> frozenset[Interaction]:
    counts = diagram_mod.instance_counts(d, binding)
    if source == DIAGRAM_SOURCE:
        allowed = diagram_mod.diagram_interactions(d, binding)
    elif source == MACRO_SOURCE:
        spec = encode_macros(d)
        allowed = allowed_interactions(spec.requires, spec.accepts, counts)
    else:
        raise ValueError(f"unknown interaction source {source!r}")
    return allowed


def compute_allowed(
    d: ArchitectureDiagram, binding: diagram_mod.Binding, source: str = DIAGRAM_SOURCE
) -> list[Interaction]:
    """The allowed interaction set, sorted canonically, from either source."""
    return sorted(_allowed_set(d, binding, source), key=interaction_sort_key)


def run(
    d: ArchitectureDiagram,
    binding: diagram_mod.Binding,
    config: EngineConfig,
    script: Optional[EventScript] = None,
    source: str = DIAGRAM_SOURCE,
    initial_guards: Optional[Mapping[str, Mapping[str, bool]]] = None,
) -> dict:
    """Execute the system for the configured number of cycles.

    Returns the trace object; serialize with :func:`trace_to_json` for the
    byte-stable on-disk form.
    """
    allowed_keys = sorted(map(interaction_sort_key, _allowed_set(d, binding, source)))
    system = CompiledSystem(init_state(d, binding, initial_guards), d, allowed_keys)
    rng = SplitMix64(config.seed)
    entries = script.entries if script else ()

    cycles = []
    for index in range(config.cycles):
        entry = entries[index] if index < len(entries) else None
        cycles.append(system.step(entry, rng, config.policy, index).to_dict())

    return {
        "schema": TRACE_SCHEMA,
        "model": d.name,
        "binding": {name: binding[name] for name in sorted(binding)},
        "seed": config.seed,
        "policy": config.policy,
        "cycles": cycles,
    }


def trace_to_json(trace: dict) -> str:
    return json.dumps(trace, indent=2, sort_keys=True) + "\n"


class ReplayError(BipError):
    """A trace failed replay validation."""


def replay_validate(
    trace: dict,
    d: ArchitectureDiagram,
    binding: diagram_mod.Binding,
    script: Optional[EventScript] = None,
    allowed: Optional[Iterable[Interaction]] = None,
    initial_guards: Optional[Mapping[str, Mapping[str, bool]]] = None,
) -> dict:
    """Re-simulate a trace and verify safety and state soundness.

    Checks, for every cycle: each fired spontaneous/internal transition
    existed, was enabled, and left the recorded source state; the fired
    interaction is a member of the allowed set and a subset of the enabled
    ports at that moment.  Returns {"interactions": n, "idle": m} statistics.
    """
    if allowed is None:
        allowed = diagram_mod.diagram_interactions(d, binding)
    allowed = set(allowed)
    state = init_state(d, binding, initial_guards)
    tables = _transition_tables(d)
    entries = script.entries if script else ()

    def first_enabled(inst: InstanceState, kind: str, label: str) -> Optional[Transition]:
        key = (kind, inst.current, label)
        return _first_enabled(tables[inst.type_name].labeled.get(key, ()), inst.guards)

    def port_enabled(port: PortInstance) -> bool:
        inst = state.instances.get(instance_id(port.component_type, port.index))
        return inst is not None and first_enabled(inst, ENFORCEABLE, port.port) is not None

    fired_count = 0
    idle_count = 0
    for index, cycle in enumerate(trace["cycles"]):
        entry = entries[index] if index < len(entries) else ScriptEntry()
        for target, guard, value in entry.guards:
            state.instances[target].guards[guard] = value
        for target, event in entry.events:
            state.instances[target].queue.append(event)

        for record in cycle["spontaneous"]:
            inst = state.instances[record["instance"]]
            if inst.current != record["from"]:
                raise ReplayError(
                    f"cycle {index}: {record['instance']} fired {record['event']} from "
                    f"{record['from']} but was in {inst.current}"
                )
            tr = first_enabled(inst, SPONTANEOUS, record["event"])
            if tr is None or tr.destination != record["to"]:
                raise ReplayError(
                    f"cycle {index}: no enabled spontaneous transition matches {record}"
                )
            if not inst.queue or inst.queue[0] != record["event"]:
                raise ReplayError(f"cycle {index}: {record['event']} was not at the queue head")
            inst.queue.pop(0)
            inst.current = tr.destination

        if cycle["interaction"] is not None:
            ports = frozenset(
                PortInstance(*_split_id(r["instance"]), r["port"]) for r in cycle["interaction"]
            )
            if ports not in allowed:
                raise ReplayError(
                    f"cycle {index}: fired interaction {sorted(map(str, ports))} is not allowed"
                )
            if not all(map(port_enabled, ports)):
                raise ReplayError(f"cycle {index}: fired interaction was not fully enabled")
            for record in cycle["interaction"]:
                inst = state.instances[record["instance"]]
                if inst.current != record["from"]:
                    raise ReplayError(
                        f"cycle {index}: {record['instance']} was in {inst.current}, "
                        f"trace says {record['from']}"
                    )
                tr = first_enabled(inst, ENFORCEABLE, record["port"])
                if tr is None or tr.destination != record["to"]:
                    raise ReplayError(f"cycle {index}: interaction record {record} not enabled")
                inst.current = tr.destination
            fired_count += 1

        for record in cycle["internal"]:
            inst = state.instances[record["instance"]]
            if inst.current != record["from"]:
                raise ReplayError(
                    f"cycle {index}: internal from {record['from']} but state is {inst.current}"
                )
            tr = _first_enabled(tables[inst.type_name].internal.get(inst.current, ()), inst.guards)
            if tr is None or tr.destination != record["to"]:
                raise ReplayError(f"cycle {index}: internal record {record} not enabled")
            inst.current = tr.destination

        if cycle["idle"]:
            idle_count += 1

    return {"interactions": fired_count, "idle": idle_count}


def _split_id(instance: str) -> tuple[str, int]:
    type_name, _, index = instance.rpartition("#")
    return type_name, int(index)
