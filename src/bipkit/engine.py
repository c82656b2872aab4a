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
64-bit generator seeded from the run configuration.  The event script's
entries that a run uses are checked against the model once, before cycle
0, by the same function for :func:`run` and :func:`replay_validate`; a bad
item raises ScriptError at its script path, and the step only applies.

The allowed set comes in as orbits (``model.Orbit``), from the diagram or
from the macros.  A run compiles the instantiated system once
(:class:`CompiledSystem`): instances in canonical order, per-type transition
tables keyed by (kind, state, label), port ids in canonical (type, index,
port) order, and each orbit expanded straight into sorted port-id tuples
that one integer sort puts in canonical order.  A hub port, used by more
than isqrt(#interactions) interactions, is tracked per group of
interactions that share the same hub ports; every other port has an
inverted index to the interactions using it, each of which counts its
missing non-hub ports.  The enabled ports are then maintained
incrementally: only instances touched by a guard update, a consumed event,
a firing or an internal step are recomputed, and a hub port that toggles
updates its groups, not its users, so a cycle costs what changed rather
than the system size.  Sub-step (b) checks only the queue heads that may
fire: a head that did not fire stays parked until its instance gets an
event, a guard write or a move.  Sub-step (c) picks over the sorted member
lists of the live groups, by index into their sorted union.  Each step
returns the cycle's trace record.  :func:`replay_validate` checks those
records against the same transition tables, one lookup per record, and a
fired interaction by its orbit: its instances are distinct, so it is
allowed when the multiset of its (type, port) pairs is an orbit of the
diagram.  :func:`trace_to_json` writes the trace as ``json.dumps(trace,
indent=2, sort_keys=True)`` plus a newline would.

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
import math
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field
from itertools import chain, compress
from json.encoder import encode_basestring_ascii as _json_str
from typing import Iterable, Mapping, Optional

from . import diagram as diagram_mod
from .encoder import encode_macros
from .errors import BipError, LivelockError, ScriptError
from .logic import allowed_orbits
from .model import (
    ArchitectureDiagram,
    ENFORCEABLE,
    INTERNAL,
    Orbit,
    PortInstance,
    SPONTANEOUS,
    Transition,
    expand_orbit,
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

    def __post_init__(self):
        if self.policy not in POLICIES:
            raise ValueError(f"unknown policy {self.policy!r}")
        if not 0 <= self.cycles <= DEFAULT_MAX_CYCLES:
            raise ValueError(f"cycles must lie in [0, {DEFAULT_MAX_CYCLES}]")
        if type(self.seed) is not int or not 0 <= self.seed <= MASK64:
            raise ValueError("seed must lie in [0, 2**64)")


@dataclass(frozen=True)
class ScriptEntry:
    events: tuple[tuple[str, str], ...] = ()  # (instance id, event)
    guards: tuple[tuple[str, str, bool], ...] = ()  # (instance id, guard, value)


_NO_SCRIPT = ScriptEntry()


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


def instance_id(type_name: str, index: int) -> str:
    return f"{type_name}#{index}"


def init_state(d: ArchitectureDiagram, binding: diagram_mod.Binding) -> dict[str, InstanceState]:
    """Every instance at its initial state, with an empty queue and every
    guard false; a run sets guards only by its event script.

    The mapping goes from instance id to state in canonical (type name,
    index) order, the order in which every sub-step visits instances and
    records what fired.  A run owns it exclusively."""
    diagram_mod.check_binding(d, binding)
    instances: dict[str, InstanceState] = {}
    for ct in d.component_types:
        count = ct.cardinality.evaluate(binding)
        defaults = {name: False for name in sorted(ct.guards)}
        initial = ct.initial_state
        for index in range(1, count + 1):
            instances[instance_id(ct.name, index)] = InstanceState(
                type_name=ct.name, index=index, current=initial, guards=dict(defaults)
            )
    return instances


def _check_script(
    entries: tuple[ScriptEntry, ...], instances: Mapping[str, InstanceState], d: ArchitectureDiagram
) -> None:
    """Check the script entries a run uses against the model, before cycle 0.

    An item whose target is no instance, or that names a guard or
    spontaneous event its instance's type does not declare, raises
    ScriptError located at its path in the script, e.g.
    ``cycles[2].events[0]: event targets unknown instance 'Route#9'``."""
    types = d.types_by_name
    # An item's position is looked up only when it raises: the first equal
    # item is the one raising, since an earlier copy would have raised.
    for index, entry in enumerate(entries):
        for item in entry.guards:
            target, guard, _ = item
            inst = instances.get(target)
            if inst is None or guard not in types[inst.type_name].guards:
                problem = (f"guard update targets unknown instance {target!r}" if inst is None
                           else f"{target} declares no guard {guard!r}")
                position = entry.guards.index(item)
                raise ScriptError(f"cycles[{index}].guards[{position}]: {problem}")
        for item in entry.events:
            target, event = item
            inst = instances.get(target)
            if inst is None or event not in types[inst.type_name].spontaneous_events:
                problem = (f"event targets unknown instance {target!r}" if inst is None
                           else f"{target} declares no spontaneous event {event!r}")
                position = entry.events.index(item)
                raise ScriptError(f"cycles[{index}].events[{position}]: {problem}")


def _guard_true(tr: Transition, guards: Mapping[str, bool]) -> bool:
    return tr.guard is None or tr.guard.evaluate(guards)


def enabled_ports(
    state: Mapping[str, InstanceState], d: ArchitectureDiagram
) -> frozenset[PortInstance]:
    """Port instances whose enforceable transition is ready to fire."""
    enabled = set()
    for inst in state.values():
        ct = d.component_type(inst.type_name)
        for tr in ct.transitions:
            if tr.kind == ENFORCEABLE and tr.source == inst.current and _guard_true(tr, inst.guards):
                enabled.add(PortInstance(inst.type_name, inst.index, tr.label))
    return frozenset(enabled)


@dataclass(frozen=True)
class _Transitions:
    """One component type's transitions, each list in declaration order: the
    first enabled entry is the one that fires.  Internal transitions are
    listed under the label ""."""

    enforceable: dict[str, list[Transition]]  # state -> transitions
    labeled: dict[tuple[str, str, str], list[Transition]]  # (kind, state, label) -> transitions
    budget: int  # internal firings allowed per instance and cycle: |states|

    def first_enabled(
        self, kind: str, inst: InstanceState, label: str = ""
    ) -> Optional[Transition]:
        """The transition of this kind and label that fires from inst's state."""
        for tr in self.labeled.get((kind, inst.current, label), ()):
            if _guard_true(tr, inst.guards):
                return tr
        return None


def _transition_tables(d: ArchitectureDiagram) -> dict[str, _Transitions]:
    tables = {}
    for ct in d.component_types:
        enforceable: dict = {}
        labeled: dict = {}
        for tr in ct.transitions:
            label = "" if tr.kind == INTERNAL else tr.label
            labeled.setdefault((tr.kind, tr.source, label), []).append(tr)
            if tr.kind == ENFORCEABLE:
                enforceable.setdefault(tr.source, []).append(tr)
        tables[ct.name] = _Transitions(enforceable, labeled, len(ct.states))
    return tables


class CompiledSystem:
    """An instantiated system compiled for stepping.

    The state lists its instances in canonical order, as :func:`init_state`
    gives them, and each port that a single-port signature of the orbits
    names gets an integer id in canonical ``(type, index, port)`` order.  An orbit expands into its
    interactions as sorted tuples of port ids, so sorting them as tuples
    gives the canonical order: interactions compared as their sorted port
    instances.  An interaction naming one instance twice is never feasible,
    so an orbit with a multi-port signature is skipped.

    A port used by more than ``isqrt(len(interactions))`` interactions is a
    hub, like a manager port that every process synchronizes with.  Every
    other port lists the interactions using it, and each interaction counts
    its missing (not enabled) non-hub ports; with none missing it is
    locally ready.  The interactions that share one tuple of hub ports form
    a group: the group is live when all its hub ports are enabled, and it
    keeps its locally-ready members as a sorted list of canonical indices.
    The feasible set is the union of the live groups' member lists, so a
    hub port that toggles updates its groups, not its many users.

    :meth:`step` mutates the instances of the compiled ``state`` in place;
    the enabled ports, counts and member lists are recomputed only for
    instances a step touches.  The state stays the only source of truth:
    after changing it from outside, compile it again.
    """

    def __init__(self, state: Mapping[str, InstanceState], d: ArchitectureDiagram,
                 orbits: Iterable[Orbit]):
        instances = list(state.values())
        tables = _transition_tables(d)
        self.instances = instances
        self.ids = list(state)
        self.position = {key: i for i, key in enumerate(self.ids)}
        self.tables = [tables[inst.type_name] for inst in instances]
        self.enabled = [self._enabled_labels(i) for i in range(len(instances))]

        orbits = [orbit for orbit in orbits if all(len(sig) == 1 for sig, _ in orbit)]
        names: dict[str, set[str]] = {}  # type -> its ports the orbits name
        for (ref,), _ in chain.from_iterable(orbits):
            names.setdefault(ref.component_type, set()).add(ref.port)
        ids_of: dict[tuple[str, str], list[int]] = {}  # (type, label) -> ids by index
        port_ids: list[dict[str, int]] = []  # instance -> label -> id
        ports: list[tuple[int, str]] = []  # id -> (instance, label)
        for i, inst in enumerate(instances):
            port_ids.append({})
            for label in sorted(names.get(inst.type_name, ())):
                port_ids[i][label] = len(ports)
                ids_of.setdefault((inst.type_name, label), [-1]).append(len(ports))
                ports.append((i, label))

        # expand_orbit joins types in name order and a part's instance numbers
        # increase, so only a type with several parts needs its ids sorted.
        def render(parts, chosen):
            if len(parts) == 1:
                return tuple(map(ids_of[parts[0][0][0]].__getitem__, chosen[0]))
            return tuple(sorted(ids_of[sig[0]][i]
                                for (sig, _), nums in zip(parts, chosen) for i in nums))

        counts = {ctype: len(ids) - 1 for (ctype, _), ids in ids_of.items()}
        interactions = [pids for orbit in orbits for pids in expand_orbit(orbit, counts, render)]
        interactions.sort()
        users: list[list[int]] = [[] for _ in ports]  # id -> interactions using the port
        for k, pids in enumerate(interactions):
            for pid in pids:
                users[pid].append(k)
        self.port_ids, self.ports, self.interactions = port_ids, ports, interactions

        # Groups, counts and member lists, built in canonical order from the
        # enabled sets above, so every member list comes out sorted.
        threshold = math.isqrt(len(interactions))
        hub = [len(u) > threshold for u in users]
        enabled = self.enabled
        off = [label not in enabled[i] for i, label in ports]
        hub_groups: list[list[int]] = [[] for _ in ports]  # hub port -> its groups
        hub_missing: list[int] = []  # group -> hub ports not enabled
        members: list[list[int]] = []  # group -> locally-ready interactions
        group_of: list[int] = []  # interaction -> group
        missing: list[int] = []  # interaction -> non-hub ports not enabled
        groups: dict[tuple[int, ...], int] = {}
        for k, pids in enumerate(interactions):
            hubs = ()
            count = 0
            for pid in pids:
                if hub[pid]:
                    hubs += (pid,)
                elif off[pid]:
                    count += 1
            g = groups.get(hubs)
            if g is None:
                g = groups[hubs] = len(members)
                hub_missing.append(sum(off[pid] for pid in hubs))
                members.append([])
                for pid in hubs:
                    hub_groups[pid].append(g)
            group_of.append(g)
            missing.append(count)
            if not count:
                members[g].append(k)
        self.hub_groups, self.hub_missing, self.members = hub_groups, hub_missing, members
        self.group_of, self.missing = group_of, missing
        for pid in compress(range(len(ports)), hub):
            users[pid] = []  # a hub toggle updates its groups instead
        self.users = users
        # The live groups with at least one locally-ready member.
        self.candidates = {g for g, ready in enumerate(members) if ready and not hub_missing[g]}

        # Instances whose queue head may fire: those with a queue at first,
        # then those that got an event, a guard write or a move since their
        # head was last checked.  A head that did not fire cannot fire before
        # one of those happens.
        self.queued = {i for i, inst in enumerate(instances) if inst.queue}
        # Instances that may have an enabled internal transition: at first
        # all of them.  After sub-step (d) every instance sits at its
        # fixpoint, so only those touched since need another look.
        self.touched = set(range(len(instances)))

    def enabled_ports(self) -> frozenset[PortInstance]:
        """The maintained enabled set; between steps it equals
        :func:`enabled_ports` of the compiled state."""
        return frozenset(PortInstance(inst.type_name, inst.index, label)
                         for inst, labels in zip(self.instances, self.enabled) for label in labels)

    def _enabled_labels(self, i: int) -> frozenset[str]:
        inst = self.instances[i]
        guards = inst.guards
        return frozenset(tr.label for tr in self.tables[i].enforceable.get(inst.current, ())
                         if tr.guard is None or tr.guard.evaluate(guards))

    def _refresh(self, i: int) -> None:
        """Recompute instance i's enabled ports; a hub port that changed
        updates its groups, any other port the interactions using it."""
        new = self._enabled_labels(i)
        old = self.enabled[i]
        if new == old:
            return
        self.enabled[i] = new
        port_ids, users, hub_groups = self.port_ids[i], self.users, self.hub_groups
        missing, group_of, members = self.missing, self.group_of, self.members
        hub_missing, candidates = self.hub_missing, self.candidates
        for label in old - new:
            pid = port_ids.get(label)
            if pid is None:
                continue
            for g in hub_groups[pid]:
                hub_missing[g] += 1
                candidates.discard(g)
            for k in users[pid]:
                if not missing[k]:
                    g = group_of[k]
                    ready = members[g]
                    del ready[bisect_left(ready, k)]
                    if not ready:
                        candidates.discard(g)
                missing[k] += 1
        for label in new - old:
            pid = port_ids.get(label)
            if pid is None:
                continue
            for g in hub_groups[pid]:
                hub_missing[g] -= 1
                if not hub_missing[g] and members[g]:
                    candidates.add(g)
            for k in users[pid]:
                missing[k] -= 1
                if not missing[k]:
                    g = group_of[k]
                    insort(members[g], k)
                    if not hub_missing[g]:
                        candidates.add(g)

    def _move(self, i: int, tr: Transition) -> None:
        self.instances[i].current = tr.destination
        self.touched.add(i)
        if self.instances[i].queue:
            self.queued.add(i)
        self._refresh(i)

    def step(
        self,
        entry: Optional[ScriptEntry],
        rng: SplitMix64,
        policy: str,
        cycle_index: int = 0,
    ) -> dict:
        """Run one engine cycle and return its trace record.  The entry is
        one that :func:`run` checked against the model before cycle 0."""
        entry = entry or _NO_SCRIPT
        instances, ids, tables, position = self.instances, self.ids, self.tables, self.position

        # (a) guard updates
        for target, guard, value in entry.guards:
            i = position[target]
            instances[i].guards[guard] = value
            self.touched.add(i)
            if instances[i].queue:
                self.queued.add(i)
            self._refresh(i)

        # (b) spontaneous events: enqueue, then consume at most one per instance
        for target, event in entry.events:
            i = position[target]
            instances[i].queue.append(event)
            self.queued.add(i)

        spontaneous = []
        checked = sorted(self.queued)
        self.queued.clear()
        for i in checked:
            inst = instances[i]
            head = inst.queue[0]
            tr = tables[i].first_enabled(SPONTANEOUS, inst, head)
            if tr is None:
                continue
            inst.queue.pop(0)
            spontaneous.append(
                {"instance": ids[i], "event": head, "from": tr.source, "to": tr.destination}
            )
            self._move(i, tr)

        # (c) one enforceable interaction, picked among the feasible ones: the
        # sorted union of the candidate groups' member lists
        fired = None
        lists = [self.members[g] for g in self.candidates]
        if lists:
            if policy == LEXICOGRAPHIC_FIRST:
                choice = min(ready[0] for ready in lists)
            elif len(lists) == 1:
                ready = lists[0]
                choice = ready[rng.pick_index(len(ready))]
            else:
                choice = _kth_of_union(lists, rng.pick_index(sum(map(len, lists))))
            fired = []
            for pid in self.interactions[choice]:
                i, label = self.ports[pid]
                inst = instances[i]
                tr = tables[i].first_enabled(ENFORCEABLE, inst, label)
                if tr is None:
                    port = PortInstance(inst.type_name, inst.index, label)
                    raise BipError(f"port {port} was enabled but lost its transition")
                fired.append(
                    {"instance": ids[i], "port": label, "from": tr.source, "to": tr.destination}
                )
                self._move(i, tr)

        # (d) internal transitions, eagerly, bounded per instance by |states|
        internal = []
        for i in sorted(self.touched):
            inst, table = instances[i], tables[i]
            count = 0
            while True:
                tr = table.first_enabled(INTERNAL, inst)
                if tr is None:
                    break
                if count >= table.budget:
                    raise LivelockError(ids[i])
                internal.append({"instance": ids[i], "from": tr.source, "to": tr.destination})
                self._move(i, tr)
                count += 1
        self.touched.clear()

        return {
            "cycle": cycle_index,
            "spontaneous": spontaneous,
            "interaction": fired,
            "internal": internal,
            "idle": not spontaneous and fired is None and not internal,
        }


def _kth_of_union(lists: list[list[int]], k: int) -> int:
    """The k-th (from 0) element of the sorted union of disjoint sorted
    lists: the least value v with more than k elements at most v."""
    low = min(ready[0] for ready in lists)
    high = max(ready[-1] for ready in lists)
    while low < high:
        mid = (low + high) // 2
        if sum(bisect_right(ready, mid) for ready in lists) > k:
            high = mid
        else:
            low = mid + 1
    return low


def _orbits(d: ArchitectureDiagram, binding: diagram_mod.Binding, source: str) -> list[Orbit]:
    if source == DIAGRAM_SOURCE:
        return diagram_mod.diagram_orbits(d, binding)
    if source == MACRO_SOURCE:
        spec = encode_macros(d)
        return allowed_orbits(spec.requires, spec.accepts, diagram_mod.instance_counts(d, binding))
    raise ValueError(f"unknown interaction source {source!r}")


def run(
    d: ArchitectureDiagram,
    binding: diagram_mod.Binding,
    config: EngineConfig,
    script: Optional[EventScript] = None,
    source: str = DIAGRAM_SOURCE,
) -> dict:
    """Execute the system for the configured number of cycles.

    Returns the trace object; serialize with :func:`trace_to_json` for the
    byte-stable on-disk form.
    """
    orbits = _orbits(d, binding, source)
    state = init_state(d, binding)
    entries = script.entries[:config.cycles] if script else ()
    _check_script(entries, state, d)
    system = CompiledSystem(state, d, orbits)
    rng = SplitMix64(config.seed)

    cycles = []
    for index in range(config.cycles):
        entry = entries[index] if index < len(entries) else None
        cycles.append(system.step(entry, rng, config.policy, index))

    return {
        "schema": TRACE_SCHEMA,
        "model": d.name,
        "binding": {name: binding[name] for name in sorted(binding)},
        "seed": config.seed,
        "policy": config.policy,
        "cycles": cycles,
    }


def _json_container(brackets: str, items: list[str], depth: int) -> str:
    """A JSON list or object ("[]" or "{}") of rendered items, laid out as
    ``json.dumps(indent=2)`` lays it out at nesting depth ``depth``."""
    if not items:
        return brackets
    inner = "\n" + "  " * (depth + 1)
    return brackets[0] + inner + ("," + inner).join(items) + "\n" + "  " * depth + brackets[1]


def trace_to_json(trace: dict) -> str:
    """The trace file's text: ``json.dumps(trace, indent=2, sort_keys=True)``
    plus a newline, byte for byte, written for the fixed trace schema.

    The header keys and the five cycle keys are rendered in sorted order
    directly, every string goes through ``encode_basestring_ascii`` as in
    json.dumps, and each transition record's text is built once per call."""
    records: dict[tuple, str] = {}

    def record_list(items: Optional[list[dict]]) -> str:
        if items is None:
            return "null"
        texts = []
        for item in items:
            key = tuple(item.items())
            text = records.get(key)
            if text is None:
                fields = [f"{_json_str(name)}: {_json_str(value)}" for name, value in sorted(key)]
                text = records[key] = _json_container("{}", fields, 4)
            texts.append(text)
        return _json_container("[]", texts, 3)

    cycles = [
        _json_container("{}", [
            f'"cycle": {c["cycle"]}',
            f'"idle": {"true" if c["idle"] else "false"}',
            f'"interaction": {record_list(c["interaction"])}',
            f'"internal": {record_list(c["internal"])}',
            f'"spontaneous": {record_list(c["spontaneous"])}',
        ], 2)
        for c in trace["cycles"]
    ]
    binding = [f"{_json_str(name)}: {value}" for name, value in sorted(trace["binding"].items())]
    return _json_container("{}", [
        f'"binding": {_json_container("{}", binding, 1)}',
        f'"cycles": {_json_container("[]", cycles, 1)}',
        f'"model": {_json_str(trace["model"])}',
        f'"policy": {_json_str(trace["policy"])}',
        f'"schema": {trace["schema"]}',
        f'"seed": {trace["seed"]}',
    ], 0) + "\n"


class ReplayError(BipError):
    """A trace failed replay validation."""


def _typed(value):
    """A JSON value that keeps each scalar's type: true and 1.0 are not 1."""
    return {k: _typed(v) for k, v in value.items()} if type(value) is dict else (type(value), value)


def replay_validate(
    trace: dict,
    d: ArchitectureDiagram,
    binding: diagram_mod.Binding,
    script: Optional[EventScript] = None,
    source: str = DIAGRAM_SOURCE,
) -> dict:
    """Re-simulate a trace against the model, checking every record with one
    transition lookup; the first fault raises ReplayError naming its cycle.
    The script entries the trace covers are checked first, as :func:`run`
    checks them, and raise the same located ScriptError.  A fired
    interaction must be in the allowed set of ``source``, as in :func:`run`.

    What is checked, and the two gaps, are listed in docs/formats.md under
    "Replay".  Returns {"interactions": n, "idle": m}.
    """
    if not isinstance(trace, dict) or not isinstance(trace.get("cycles"), list):
        raise ReplayError("a trace is an object with a list of cycles")
    header = {"schema": TRACE_SCHEMA, "model": d.name, "binding": dict(binding)}
    for key, expected in header.items():
        if _typed(trace.get(key)) != _typed(expected):
            raise ReplayError(f"trace {key} is {trace.get(key)!r}, expected {expected!r}")
    try:  # the seed and the policy a run accepts
        EngineConfig(0, trace.get("seed"), trace.get("policy"))
    except ValueError as exc:
        raise ReplayError(f"trace header: {exc}") from None
    # A fired interaction names distinct instances, so it is allowed when its
    # sorted (type, port) pairs list each single-port signature count times.
    allowed = {tuple(chain.from_iterable(sig * k for sig, k in orbit))
               for orbit in _orbits(d, binding, source)
               if all(len(sig) == 1 for sig, _ in orbit)}
    instances = init_state(d, binding)
    tables = _transition_tables(d)
    entries = script.entries[:len(trace["cycles"])] if script else ()
    _check_script(entries, instances, d)
    # The instances to check for an internal fixpoint at the end of a cycle:
    # all of them in cycle 0, then those that got a guard write or changed
    # state.  The others are still at the fixpoint an earlier cycle checked.
    touched = set(instances)

    def instance(name: str) -> InstanceState:
        inst = instances.get(name)
        if inst is None:
            raise ReplayError(f"cycle {index}: unknown instance {name!r}")
        return inst

    def check(kind: str, label: str, record: dict) -> tuple[InstanceState, Transition]:
        inst = instance(record["instance"])
        if inst.current != record["from"]:
            raise ReplayError(
                f"cycle {index}: {record['instance']} was in {inst.current}, "
                f"trace says {record['from']}"
            )
        tr = tables[inst.type_name].first_enabled(kind, inst, label)
        if tr is None or tr.destination != record["to"]:
            raise ReplayError(f"cycle {index}: no enabled {kind} transition matches {record}")
        if tr.destination != inst.current:
            touched.add(record["instance"])
        return inst, tr

    fired_count = 0
    idle_count = 0
    for index, cycle in enumerate(trace["cycles"]):
        entry = entries[index] if index < len(entries) else _NO_SCRIPT
        try:
            if type(cycle["cycle"]) is not int or cycle["cycle"] != index:
                raise ReplayError(f"cycle {index}: recorded as cycle {cycle['cycle']!r}")
            for target, guard, value in entry.guards:
                instances[target].guards[guard] = value
                touched.add(target)
            for target, event in entry.events:
                instances[target].queue.append(event)

            for record in cycle["spontaneous"]:
                inst, tr = check(SPONTANEOUS, record["event"], record)
                if not inst.queue or inst.queue[0] != record["event"]:
                    raise ReplayError(f"cycle {index}: {record['event']} was not at the queue head")
                inst.queue.pop(0)
                inst.current = tr.destination

            records = cycle["interaction"]
            if records is not None:
                moves = [check(ENFORCEABLE, record["port"], record) for record in records]
                if len({record["instance"] for record in records}) != len(records):
                    raise ReplayError(f"cycle {index}: fired interaction names an instance twice")
                if tuple(sorted((inst.type_name, r["port"])
                                for (inst, _), r in zip(moves, records))) not in allowed:
                    ports = sorted(str(PortInstance(inst.type_name, inst.index, r["port"]))
                                   for (inst, _), r in zip(moves, records))
                    raise ReplayError(f"cycle {index}: fired interaction {ports} is not allowed")
                for inst, tr in moves:
                    inst.current = tr.destination
                fired_count += 1

            for record in cycle["internal"]:
                inst, tr = check(INTERNAL, "", record)
                inst.current = tr.destination

            idle = not (cycle["spontaneous"] or records is not None or cycle["internal"])
            if cycle["idle"] is not idle:
                raise ReplayError(f"cycle {index}: idle is {cycle['idle']!r}, expected {idle}")
        except (KeyError, TypeError) as exc:  # a missing key or a wrongly typed value
            raise ReplayError(
                f"cycle {index}: malformed record ({type(exc).__name__}: {exc})"
            ) from None
        idle_count += idle

        for name in touched:
            inst = instances[name]
            if tables[inst.type_name].first_enabled(INTERNAL, inst):
                raise ReplayError(f"cycle {index}: {name} stopped short of its internal fixpoint")
        touched.clear()

    return {"interactions": fired_count, "idle": idle_count}
