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
from the macros, and is never expanded.  A run compiles the system once
(:class:`CompiledSystem`) from the diagram and the binding's counts, as
every instance of a type starts in one configuration: per type in name
order one node, repeated at the type's positions, and per (type, label)
an orbit names the eligible list of instances whose port is enabled,
``1..n`` when the initial node enables it.  No per-instance object is
built before cycle 0: an id is built the first time a record or an error
names it, and each distinct script target is resolved to its position
once.  A node is one (type, state, guard values) that the run has
reached, shared by the instances in it; it holds its enabled labels,
whether an internal transition is enabled, and its edges, each built the
first time an instance takes it, as a regex engine builds its automaton
lazily (Thompson, CACM 1968).  An edge, for a port, an event, a guard
write or the internal transition, holds the transition's from and to, the
next node's number, the eligible-list moves and the orbits to recount, so
each guard write, consumed event and fired port costs one edge lookup and
its moves.  A queue head that did not fire stays parked until its instance
gets an event or takes an edge, and sub-step (d) looks only at instances
that took an edge to a node with an enabled internal transition.  A cycle
works on what changed, but an eligible-list move is an ``insort`` or
``del`` that shifts up to n entries: on mutex the median of 1,000 steps is
12 us at n=10^3 and 218 us at n=10^6.  Sub-step (c) counts each orbit's
feasible interactions from the eligible lists: where each type of the
orbit draws one part, as a product of C(len(eligible), r), else by a sum
over enabled-label classes.  An edge recounts only the orbits that name a
list it changes.  The pick descends over the counts, from its run's lone
live orbit if any, and a count its lists do not supply exactly raises
BipError.  Each step returns its trace record.
:func:`replay_validate` checks those records against the transition tables
themselves, not the nodes, one lookup per record, and a fired interaction
by its orbit: its instances are distinct, so it is allowed when the
multiset of its (type, port) pairs is an orbit of the diagram.  It builds
an instance the first time a record or a script target names it by its
exact id, the rule :meth:`CompiledSystem.locate` applies; the others are
still at their type's initial configuration, so its cost follows the
trace's records, not n.  :func:`trace_to_json` writes the
trace as ``json.dumps(trace, indent=2, sort_keys=True)`` plus a newline
would, each cycle from one fixed template and each distinct transition
record rendered once.

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

from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field
from itertools import chain, groupby
from math import comb, prod
from json.encoder import encode_basestring_ascii as _json_str
from typing import Callable, Iterable, Mapping, NamedTuple, NoReturn, Optional

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
)
# The script's parsing lives in .script; its names stay importable from here.
from .script import (EventScript, ScriptEntry, _item_fault, _script_entry, _typed,  # noqa: F401
                     _well_formed_entry)

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
        if type(self.cycles) is not int or not 0 <= self.cycles <= DEFAULT_MAX_CYCLES:
            raise ValueError(f"cycles must lie in [0, {DEFAULT_MAX_CYCLES}]")
        if type(self.seed) is not int or not 0 <= self.seed <= MASK64:
            raise ValueError("seed must lie in [0, 2**64)")


_NO_SCRIPT = ScriptEntry()
_UNBUILT = object()  # an edge not yet worked out
_MISCOUNT = "the orbit counts disagree with the eligible lists"  # a bug, not a bad input


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
    records what fired.  Neither :func:`run` nor :func:`replay_validate`
    builds it: they start from the binding's counts.  A caller may change
    it and compile it as another start state (``CompiledSystem(d, binding,
    orbits, state)``), which reads it once and never writes to it."""
    diagram_mod.check_binding(d, binding)
    instances: dict[str, InstanceState] = {}
    for ct in d.component_types:
        count = ct.cardinality.evaluate(binding)
        defaults = {name: False for name in sorted(ct.guards)}
        initial = ct.initial_state
        for index in range(1, count + 1):  # positional arguments cost half as much as keywords
            instances[instance_id(ct.name, index)] = InstanceState(
                ct.name, index, initial, [], dict(defaults))
    return instances


def _named_instance(name, size: Mapping[str, int]) -> Optional[tuple[str, int]]:
    """The (type, k) that name names, only when it is exactly
    ``instance_id(type, k)`` with 1 <= k <= ``size[type]``; else None, as
    for a name that is no string.  No digit string longer than the count's
    is converted."""
    if type(name) is str:
        ctype, _, digits = name.rpartition("#")
        count = size.get(ctype, 0)
        if digits.isdecimal() and len(digits) <= len(str(count)):
            k = int(digits)
            if 1 <= k <= count and str(k) == digits:
                return ctype, k
    return None


class _Target(NamedTuple):
    """The instance a script target names, by its type and its position
    in a compiled system; ``type_name`` as on :class:`InstanceState`."""

    type_name: str
    position: int


def _check_script(
    entries: tuple[ScriptEntry, ...], found: Mapping[str, _Target | InstanceState],
    resolve: Callable[[str], Optional[_Target | InstanceState]], d: ArchitectureDiagram
) -> None:
    """Check the script entries a run uses against the model, before cycle 0.

    A target's instance is looked up in ``found``.  At a target's first
    item ``resolve`` gives it, or None, and keeps it in ``found``, so each
    distinct target is resolved once and every later item costs one dict
    lookup.  An item whose target is no instance, or that names a guard or
    spontaneous event its instance's type does not declare, raises
    ScriptError located at its path in the script, e.g.
    ``cycles[2].events[0]: event targets unknown instance 'Route#9'``."""
    types = d.types_by_name
    for index, entry in enumerate(entries):
        for item in entry.guards:
            inst = found.get(item[0]) or resolve(item[0])
            if inst is None or item[1] not in types[inst.type_name].guards:
                _item_fault(index, "guards", entry.guards, item, inst is None)
        for item in entry.events:
            inst = found.get(item[0]) or resolve(item[0])
            if inst is None or item[1] not in types[inst.type_name].spontaneous_events:
                _item_fault(index, "events", entry.events, item, inst is None)



def enabled_ports(
    state: Mapping[str, InstanceState], d: ArchitectureDiagram
) -> frozenset[PortInstance]:
    """Port instances whose enforceable transition is ready to fire."""
    enabled = set()
    for inst in state.values():
        ct = d.component_type(inst.type_name)
        for tr in ct.transitions:
            if (tr.kind == ENFORCEABLE and tr.source == inst.current
                    and (tr.guard is None or tr.guard.evaluate(inst.guards))):
                enabled.add(PortInstance(inst.type_name, inst.index, tr.label))
    return frozenset(enabled)


@dataclass(frozen=True)
class _Transitions:
    """One component type's transitions, each list in declaration order: the
    first enabled entry is the one that fires.  Internal transitions are
    listed under the label ""."""

    labeled: dict[tuple[str, str, str], list[Transition]]  # (kind, state, label) -> transitions
    internal: frozenset[str]  # the states with an internal transition
    budget: int  # internal firings allowed per instance and cycle: |states|

    def first_enabled(
        self, kind: str, inst: InstanceState, label: str = ""
    ) -> Optional[Transition]:
        """The transition of this kind and label that fires from inst's state."""
        for tr in self.labeled.get((kind, inst.current, label), ()):
            if tr.guard is None or tr.guard.evaluate(inst.guards):
                return tr
        return None


def _transition_tables(d: ArchitectureDiagram) -> dict[str, _Transitions]:
    tables = {}
    for ct in d.component_types:
        labeled: dict = {}
        for tr in ct.transitions:
            label = "" if tr.kind == INTERNAL else tr.label
            labeled.setdefault((tr.kind, tr.source, label), []).append(tr)
        internal = frozenset(tr.source for tr in ct.transitions if tr.kind == INTERNAL)
        tables[ct.name] = _Transitions(labeled, internal, len(ct.states))
    return tables


class _Node:
    """One configuration of a component type: a state and its guard values.

    ``current`` and ``guards`` are named as on :class:`InstanceState`, so
    :meth:`_Transitions.first_enabled` reads a node as it reads an instance,
    and a label is enabled at a node when it has a first enabled transition.
    A node holds its enabled labels and whether an internal transition is
    enabled, and lazily filled edges: port label, event and guard write
    ``(guard, value)`` to edge, and the internal transition's edge.  An edge
    is ``(from, to, next node's number, eligible-list moves, orbits to
    recount)``; an event whose transition is not enabled maps to None.  An
    edge names its next node by number, so that nodes and edges make no
    reference cycle and a run's nodes are freed when it ends, not at the
    next full garbage collection."""

    __slots__ = ("key", "number", "table", "current", "guards", "labels", "internal",
                 "ports", "events", "writes", "internal_edge")

    def __init__(self, key: tuple, number: int, table: _Transitions, guards: dict[str, bool]):
        self.key, self.number, self.table, self.current, self.guards = (
            key, number, table, key[1], guards)
        self.labels = frozenset(label for kind, state, label in table.labeled
                                if kind == ENFORCEABLE and state == self.current
                                and table.first_enabled(kind, self, label))
        self.internal = table.first_enabled(INTERNAL, self) is not None
        self.ports: dict[str, tuple] = {}
        self.events: dict[str, Optional[tuple]] = {}
        self.writes: dict[tuple[str, bool], tuple] = {}
        self.internal_edge: Optional[tuple] = None


class CompiledSystem:
    """An instantiated system compiled for stepping.

    It is compiled from the diagram and the binding's counts.  Instances
    are in canonical order, a type's at the positions ``offset[type] + k``
    for k in 1..``size[type]``, each kept as the node of its type, state
    and guard values in sorted guard-name order; all of a type's start at
    its initial node with every guard false, and ``queues`` holds by
    position those of the instances that hold events.  An id is built the
    first time a record or an error names it (:meth:`name`), and a script
    target is resolved to its position once (:meth:`locate`).  ``nodes``
    holds every node a run has reached, one per configuration, shared by
    the instances in it (``graph`` lists them by number), and each node's
    edges are worked out the first time an instance takes them.  An orbit is
    kept as its parts ``(type, label, count)`` grouped by type in name order
    (one with a multi-port signature names an instance twice and is
    dropped), each ``(type, label)`` with its eligible list, the sorted
    indices of the instances whose port is enabled.  An orbit's feasible
    count is a product over its types: C(e, r) for one part of count r, and
    a sum over the instances' enabled-label classes where parts of one type
    draw disjoint instances.  An edge recounts only the orbits that name an
    eligible list it changes, and :meth:`interaction` descends over the
    counts.  :meth:`step` changes only the system.  To start from another
    state, pass it as ``state``, a mapping as :func:`init_state` returns:
    each instance whose configuration differs takes the edge from its
    initial node to its own, and a queue it holds is copied."""

    def __init__(self, d: ArchitectureDiagram, binding: diagram_mod.Binding,
                 orbits: Iterable[Orbit], state: Optional[Mapping[str, InstanceState]] = None):
        diagram_mod.check_binding(d, binding)
        tables = _transition_tables(d)
        self.types = {ct.name: (tables[ct.name], sorted(ct.guards)) for ct in d.component_types}
        self.eligible: dict[tuple[str, str], list[int]] = {}  # (type, label) -> indices
        self.orbits = [  # each as its (type, ((label, count, eligible list), ...)) groups
            tuple((ctype, tuple((sig[0].port, k, self.eligible.setdefault((ctype, sig[0].port), []))
                                for sig, k in parts))
                  for ctype, parts in groupby(orbit, key=lambda part: part[0][0].component_type))
            for orbit in sorted(orbits) if all(len(sig) == 1 for sig, _ in orbit)]
        # An orbit whose types each draw one part, as its eligible lists and
        # counts, whose binomials multiply to its count; else None.
        self.factors = [([e for _, ((_, _, e),) in groups], [r for _, ((_, r, _),) in groups])
                        if all(len(parts) == 1 for _, parts in groups) else None
                        for groups in self.orbits]
        starts = [o for o, groups in enumerate(self.orbits)  # sorted, one first type is a run
                  if not o or groups[0][0] != self.orbits[o - 1][0][0]]
        self.runs = list(zip(starts, starts[1:] + [len(self.orbits)]))  # the pick's first level
        self.counts = [0] * len(self.orbits)
        self.stale = set(range(len(self.orbits)))  # the orbits to recount

        self.nodes: dict[tuple, _Node] = {}  # (type, state, guard values) -> node
        self.graph: list[_Node] = []  # the nodes by number
        self.node: list[_Node] = []  # instance position -> its node
        self.offset: dict[str, int] = {}  # type -> the position of its instance k, less k
        self.size: dict[str, int] = {}  # type -> its instance count
        self.targets: dict[str, _Target] = {}  # script target -> its instance
        self.named: dict[int, str] = {}  # position -> id, of the instances named so far
        # The instances whose queue head may fire (at first, those with a
        # queue) and whose node has an enabled internal transition.  Then
        # only those that got an event or took an edge since sub-steps (b)
        # and (d) last looked at them can.
        self.queued: set[int] = set()
        self.touched: set[int] = set()
        for ct in d.component_types:  # in name order, each type's instances at one node
            first, count = len(self.node), ct.cardinality.evaluate(binding)
            self.offset[ct.name], self.size[ct.name] = first - 1, count
            if count:
                node = self._node(ct.name, ct.initial_state, (False,) * len(ct.guards))
                for label in node.labels:
                    eligible = self.eligible.get((ct.name, label))
                    if eligible is not None:
                        eligible.extend(range(1, count + 1))
                if node.internal:
                    self.touched.update(range(first, first + count))
                self.node += [node] * count

        # The queues of the instances that hold events, by position.
        self.queues: dict[int, list[str]] = {}
        for inst in (state or {}).values():
            i, names = self.offset[inst.type_name] + inst.index, self.types[inst.type_name][1]
            if inst.queue:
                self.queues[i] = list(inst.queue)
            node, values = self.node[i], tuple([inst.guards[name] for name in names])
            if (inst.current, values) != node.key[1:]:
                self._take(i, self._edge(node, inst.current, values))
        self.queued.update(self.queues)

    def name(self, i: int) -> str:
        """The id of the instance at position i, built the first time a
        record or an error names it and then shared by its records."""
        name = self.named.get(i)
        if name is None:
            ctype = self.node[i].key[0]
            name = self.named[i] = instance_id(ctype, i - self.offset[ctype])
        return name

    def locate(self, target: str) -> Optional[_Target]:
        """The instance a script target names, or None.  A target names an
        instance only as exactly its id, ``instance_id(type, k)`` with
        1 <= k <= the type's count; a found one is kept in ``targets``."""
        found = self.targets.get(target)
        if found is None and (named := _named_instance(target, self.size)):
            ctype, k = named
            found = self.targets[target] = _Target(ctype, self.offset[ctype] + k)
        return found

    def _node(self, ctype: str, current: str, values: tuple[bool, ...]) -> _Node:
        key = (ctype, current, values)
        node = self.nodes.get(key)
        if node is None:
            table, names = self.types[ctype]
            node = self.nodes[key] = _Node(key, len(self.graph), table, dict(zip(names, values)))
            self.graph.append(node)
        return node

    def _edge(self, node: _Node, destination: str, values: tuple[bool, ...]) -> tuple:
        """The edge from node to the node of (destination, values), with the
        list moves of an instance whose enabled labels change from node's to
        the next node's, and the orbits naming a list they change."""
        ctype = node.key[0]
        after = self._node(ctype, destination, values)
        lists = [(self.eligible[ctype, label], label in after.labels)
                 for label in node.labels ^ after.labels if (ctype, label) in self.eligible]
        changed = {id(eligible) for eligible, _ in lists}
        orbits = {o for o, groups in enumerate(self.orbits)
                  for _, parts in groups for *_, eligible in parts if id(eligible) in changed}
        return (node.current, destination, after.number, lists, orbits)

    def _transition(self, node: _Node, kind: str, label: str = "") -> Optional[tuple]:
        """The edge of node's first enabled transition of this kind and
        label, or None; cached in the node."""
        tr = node.table.first_enabled(kind, node, label)
        edge = None if tr is None else self._edge(node, tr.destination, node.key[2])
        if kind == SPONTANEOUS:
            node.events[label] = edge
        elif kind == INTERNAL:
            node.internal_edge = edge
        else:
            node.ports[label] = edge
        return edge

    def _write(self, node: _Node, guard: str, value: bool) -> tuple:
        """The edge of a guard write, cached in the node."""
        values = tuple([value if name == guard else old for name, old in node.guards.items()])
        edge = node.writes[guard, value] = self._edge(node, node.current, values)
        return edge

    def _take(self, i: int, edge: tuple) -> None:
        """Instance i takes an edge: its node follows it, its list moves are
        made, and it is marked for sub-steps (b) and (d)."""
        _, _, number, lists, orbits = edge
        self.node[i] = node = self.graph[number]
        if lists:
            index = i - self.offset[node.key[0]]
            for eligible, joins in lists:
                if joins:
                    insort(eligible, index)
                else:
                    del eligible[bisect_left(eligible, index)]
        if orbits:
            self.stale |= orbits
        if node.internal:
            self.touched.add(i)
        if i in self.queues:
            self.queued.add(i)

    def feasible(self) -> list[int]:
        """Each orbit's number of feasible interactions."""
        if self.stale:
            for o in self.stale:
                factors = self.factors[o]
                self.counts[o] = (_count(self.orbits[o]) if factors is None
                                  else prod(map(comb, map(len, factors[0]), factors[1])))
            self.stale.clear()
        return self.counts

    def interaction(self, k: int) -> list[tuple[str, int, str]]:
        """The k-th (from 0) feasible interaction in canonical order as sorted
        (type, index, label) ports, built a port at a time over the orbits
        matching the prefix (at first, the run's live ones), each with its
        draws left and its completions.  One orbit left unranks each one-part
        type's draw.  Else the orbit with nothing left (the prefix) comes
        first, then the others by next type in name order; a bisection finds
        their next instance J (completions up to J: the total less those
        above J).  A count its eligible lists do not supply raises BipError:
        a lone orbit's count must divide exactly by each type's C(e, r), to 1."""
        counts = self.feasible()
        for start, stop in self.runs:
            total = sum(counts[start:stop])
            if 0 <= k < total:
                break
            k -= total
        else:
            raise IndexError(f"interaction {k + sum(counts)} of {sum(counts)} feasible")
        ports: list[tuple[str, int, str]] = []
        for o in range(start, stop):
            if counts[o] == total:  # the run's one live orbit
                alive = [(self.orbits[o], 0, total)]
                break
        else:
            alive = [(self.orbits[o], 0, counts[o]) for o in range(start, stop) if counts[o]]
        while True:
            if len(alive) == 1:
                groups, low, n = alive[0]
                try:
                    for ctype, parts in groups:
                        if len(parts) > 1:  # the descent takes the groups from here on
                            alive = [(groups[groups.index((ctype, parts)):], low, n)]
                            break
                        (label, r, eligible), = parts
                        if low:
                            eligible, low = eligible[bisect_right(eligible, low):], 0
                        n, rest = divmod(n, comb(len(eligible), r))  # completions after it
                        if rest:
                            raise BipError(_MISCOUNT)
                        draw, k = divmod(k, n)
                        if r == 1:
                            ports.append((ctype, eligible[draw], label))
                        else:
                            ports += [(ctype, index, label) for index in _unrank(eligible, r, draw)]
                    else:
                        if n != 1:
                            raise BipError(_MISCOUNT)
                        return ports
                except (IndexError, ValueError, ZeroDivisionError):  # a draw past its list
                    raise BipError(_MISCOUNT) from None
            by_type: dict[str, list] = {}
            for entry in alive:
                if entry[0]:
                    by_type.setdefault(entry[0][0][0], []).append(entry)
                elif k:
                    k -= 1
                else:
                    return ports
            for ctype in sorted(by_type):  # k is below their sum, so one type takes it
                members = by_type[ctype]
                total = sum([n for _, _, n in members])
                if k < total:
                    break
                k -= total
            low = members[0][1]
            parts = sorted({label: e for groups, _, _ in members  # labels at J go sorted
                            for label, _, e in groups[0][1]}.items())
            lo, hi, under = low + 1, max([e[-1] for _, e in parts if e], default=low), 0
            while lo < hi:  # the least J with more than k completions up to J
                mid = (lo + hi) // 2
                below = total - sum([_count(groups, mid) for groups, _, _ in members])
                if below > k:
                    hi = mid
                else:
                    lo, under = mid + 1, below
            k -= under
            for label, eligible in parts:
                at = bisect_left(eligible, lo)
                if at == len(eligible) or eligible[at] != lo:
                    continue
                alive = []  # the members drawing label at lo, less that draw
                for groups, _, _ in members:
                    (_, first), rest = groups[0], groups[1:]
                    for j, (name, r, e) in enumerate(first):
                        if name == label:
                            first = first[:j] + ((name, r - 1, e),) * (r > 1) + first[j + 1:]
                            rest, bound = (((ctype, first),) + rest, lo) if first else (rest, 0)
                            alive.append((rest, bound, _count(rest, bound)))
                total = sum([n for _, _, n in alive])
                if k < total:
                    break
                k -= total
            else:
                raise BipError(_MISCOUNT)
            ports.append((ctype, lo, label))

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
        nodes, queues, offset = self.node, self.queues, self.offset
        targets, locate, named, name = self.targets, self.locate, self.named, self.name

        # (a) guard updates
        for target, guard, value in entry.guards:
            _, i = targets.get(target) or locate(target)
            node = nodes[i]
            self._take(i, node.writes.get((guard, value)) or self._write(node, guard, value))

        # (b) spontaneous events: enqueue, then consume at most one per instance
        for target, event in entry.events:
            _, i = targets.get(target) or locate(target)
            queues.setdefault(i, []).append(event)
            self.queued.add(i)

        spontaneous = []
        checked = sorted(self.queued)
        self.queued.clear()
        for i in checked:
            node, queue = nodes[i], queues[i]
            head = queue[0]
            edge = node.events.get(head, _UNBUILT)
            if edge is _UNBUILT:
                edge = self._transition(node, SPONTANEOUS, head)
            if edge is None:
                continue
            del queue[0]
            if not queue:
                del queues[i]
            spontaneous.append({"instance": named.get(i) or name(i), "event": head,
                                "from": edge[0], "to": edge[1]})
            self._take(i, edge)

        # (c) one enforceable interaction: the k-th feasible one in canonical
        # order, k by policy
        fired = None
        n = sum(self.feasible())
        if n:
            k = 0 if policy == LEXICOGRAPHIC_FIRST else rng.pick_index(n)
            fired = []
            for ctype, index, label in self.interaction(k):
                i = offset[ctype] + index
                node = nodes[i]
                edge = node.ports.get(label) or self._transition(node, ENFORCEABLE, label)
                fired.append({"instance": named.get(i) or name(i), "port": label,
                              "from": edge[0], "to": edge[1]})
                self._take(i, edge)

        # (d) internal transitions, eagerly, bounded per instance by |states|
        internal = []
        for i in sorted(self.touched):
            node, count = nodes[i], 0
            while node.internal:
                if count >= node.table.budget:
                    raise LivelockError(name(i))
                edge = node.internal_edge or self._transition(node, INTERNAL)
                internal.append({"instance": named.get(i) or name(i), "from": edge[0],
                                 "to": edge[1]})
                self._take(i, edge)
                node, count = nodes[i], count + 1
        self.touched.clear()

        return {
            "cycle": cycle_index,
            "spontaneous": spontaneous,
            "interaction": fired,
            "internal": internal,
            "idle": not spontaneous and fired is None and not internal,
        }


def _count(groups: tuple, low: int = 0) -> int:
    """How many ways the groups' parts draw distinct eligible instances,
    those of the first group's type numbered above ``low``."""
    count = 1
    for _, parts in groups:
        if len(parts) == 1:
            (_, r, eligible), = parts
            count *= comb(len(eligible) - bisect_right(eligible, low) if low else len(eligible), r)
        else:  # disjoint draws: a sum over each instance's class of parts
            classes: dict[int, int] = {}
            for bit, (_, _, eligible) in enumerate(parts):
                for index in eligible[bisect_right(eligible, low):]:
                    classes[index] = classes.get(index, 0) | 1 << bit
            ways = {tuple(r for _, r, _ in parts): 1}  # draws left per part -> ways
            for mask in classes.values():
                for left, w in list(ways.items()):
                    for bit, r in enumerate(left):
                        if r and mask >> bit & 1:
                            key = left[:bit] + (r - 1,) + left[bit + 1:]
                            ways[key] = ways.get(key, 0) + w
            count *= ways.get((0,) * len(parts), 0)
        low = 0
    return count


def _unrank(items: list[int], r: int, q: int) -> list[int]:
    """The q-th (from 0) r-subset of the sorted ``items`` in lexicographic
    order, by the combinatorial number system (Knuth, TAOCP 4A, 7.2.1.3)."""
    chosen, at = [], 0
    for j in range(r, 0, -1):
        while q >= comb(len(items) - at - 1, j - 1):
            q -= comb(len(items) - at - 1, j - 1)
            at += 1
        chosen.append(items[at])
        at += 1
    return chosen


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
    system = CompiledSystem(d, binding, _orbits(d, binding, source))
    entries = script.entries[:config.cycles] if script else ()
    _check_script(entries, system.targets, system.locate, d)
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


# A cycle record at depth 2 of the trace, its five keys in sorted order.
_CYCLE = ('{\n      "cycle": %s,\n      "idle": %s,\n      "interaction": %s,\n'
          '      "internal": %s,\n      "spontaneous": %s\n    }')


def trace_to_json(trace: dict) -> str:
    """The trace file's text: ``json.dumps(trace, indent=2, sort_keys=True)``
    plus a newline, byte for byte, written for the fixed trace schema.

    The header keys are rendered in sorted order directly and each cycle
    from one template, every string goes through ``encode_basestring_ascii``
    as in json.dumps, and each transition record's text is built once per
    call."""
    records: dict[tuple, str] = {}

    def record_list(items: Optional[list[dict]]) -> str:
        if items is None:
            return "null"
        if not items:
            return "[]"
        texts = []
        for item in items:
            key = tuple(item.items())
            text = records.get(key)
            if text is None:
                fields = [f"{_json_str(name)}: {_json_str(value)}" for name, value in sorted(key)]
                text = records[key] = _json_container("{}", fields, 4)
            texts.append(text)
        return _json_container("[]", texts, 3)

    cycles = [_CYCLE % (c["cycle"], "true" if c["idle"] else "false", record_list(c["interaction"]),
                        record_list(c["internal"]), record_list(c["spontaneous"]))
              for c in trace["cycles"]]
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


def _refuse(index: int, kind: str, record: dict, inst: Optional[InstanceState]) -> NoReturn:
    """Raise the ReplayError of a record that its instance cannot take."""
    if inst is None:
        raise ReplayError(f"cycle {index}: unknown instance {record['instance']!r}")
    if inst.current != record["from"]:
        raise ReplayError(f"cycle {index}: {record['instance']} was in {inst.current}, "
                          f"trace says {record['from']}")
    raise ReplayError(f"cycle {index}: no enabled {kind} transition matches {record}")


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

    What is checked, and the three gaps, are listed in docs/formats.md under
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
    diagram_mod.check_binding(d, binding)
    tables, size = _transition_tables(d), diagram_mod.instance_counts(d, binding)
    start = {ct.name: (ct.initial_state, dict.fromkeys(ct.guards, False))
             for ct in d.component_types}
    inner = {ctype for ctype, table in tables.items() if table.internal}
    # The instances a record or a script target has named, by id, each built
    # the first time one names it.  Any other is still at its type's initial
    # state with every guard false.
    instances: dict[str, InstanceState] = {}
    # The named instances to check for an internal fixpoint at the end of a
    # cycle, of a type with internal transitions: each as it is built, then
    # those that got a guard write or a record.  The others are still at
    # the fixpoint an earlier cycle checked.
    touched: dict[str, InstanceState] = {}

    def build(name) -> Optional[InstanceState]:
        named = _named_instance(name, size)
        if named is None:
            return None
        current, guards = start[named[0]]
        inst = instances[name] = InstanceState(*named, current, [], guards.copy())
        if named[0] in inner:
            touched[name] = inst
        return inst

    entries = script.entries[:len(trace["cycles"])] if script else ()
    _check_script(entries, instances, build, d)

    fired_count = 0
    idle_count = 0
    for index, cycle in enumerate(trace["cycles"]):
        entry = entries[index] if index < len(entries) else _NO_SCRIPT
        try:
            if type(cycle["cycle"]) is not int or cycle["cycle"] != index:
                raise ReplayError(f"cycle {index}: recorded as cycle {cycle['cycle']!r}")
            for target, guard, value in entry.guards:
                inst = instances[target]
                inst.guards[guard] = value
                if inst.type_name in inner:
                    touched[target] = inst
            for target, event in entry.events:
                instances[target].queue.append(event)

            # Each record is checked in line: its instance is known and in its
            # from state, where the first enabled transition goes to its to.
            # The step visits instances in canonical order: each consumes at
            # most one queue head, and fires its internal chain in one block.
            last = ("", 0)
            for record in cycle["spontaneous"]:
                event, name = record["event"], record["instance"]
                inst = instances.get(name) or build(name)
                if (inst is None or inst.current != record["from"]
                        or (tr := tables[inst.type_name].first_enabled(SPONTANEOUS, inst, event))
                        is None or tr.destination != record["to"]):
                    _refuse(index, SPONTANEOUS, record, inst)
                if not inst.queue or inst.queue[0] != event:
                    raise ReplayError(f"cycle {index}: {event} was not at the queue head")
                key = (inst.type_name, inst.index)
                if key <= last:
                    raise ReplayError(f"cycle {index}: spontaneous record out of instance order "
                                      f"at {name}")
                last = key
                inst.queue.pop(0)
                if inst.type_name in inner:
                    touched[name] = inst
                inst.current = tr.destination

            records = cycle["interaction"]
            if records is not None:
                moves = []  # every port is checked before an instance moves
                for record in records:
                    port, name = record["port"], record["instance"]
                    inst = instances.get(name) or build(name)
                    if (inst is None or inst.current != record["from"]
                            or (tr := tables[inst.type_name].first_enabled(ENFORCEABLE, inst, port))
                            is None or tr.destination != record["to"]):
                        _refuse(index, ENFORCEABLE, record, inst)
                    if inst.type_name in inner:
                        touched[name] = inst
                    moves.append((inst, port, tr.destination))
                last, disorder = ("", 0), None  # the first key out of interaction(k)'s order
                for inst, _, destination in moves:
                    key = (inst.type_name, inst.index)
                    if key <= last and disorder is None:
                        disorder = key
                    last = key
                    inst.current = destination
                # records in strictly increasing order name distinct instances
                if disorder and len({record["instance"] for record in records}) != len(records):
                    raise ReplayError(f"cycle {index}: fired interaction names an instance twice")
                pairs = sorted([(inst.type_name, port) for inst, port, _ in moves])
                if tuple(pairs) not in allowed:
                    ports = sorted(str(PortInstance(inst.type_name, inst.index, port))
                                   for inst, port, _ in moves)
                    raise ReplayError(f"cycle {index}: fired interaction {ports} is not allowed")
                if disorder:
                    raise ReplayError(f"cycle {index}: interaction record out of instance order "
                                      f"at {instance_id(*disorder)}")
                fired_count += 1

            last = ("", 0)
            for record in cycle["internal"]:
                name = record["instance"]
                inst = instances.get(name) or build(name)
                if (inst is None or inst.current != record["from"]
                        or (tr := tables[inst.type_name].first_enabled(INTERNAL, inst))
                        is None or tr.destination != record["to"]):
                    _refuse(index, INTERNAL, record, inst)
                key = (inst.type_name, inst.index)
                if key < last:
                    raise ReplayError(f"cycle {index}: internal record out of instance order "
                                      f"at {name}")
                last = key
                touched[name] = inst
                inst.current = tr.destination

            idle = not (cycle["spontaneous"] or records is not None or cycle["internal"])
            if cycle["idle"] is not idle:
                raise ReplayError(f"cycle {index}: idle is {cycle['idle']!r}, expected {idle}")
        except (KeyError, TypeError) as exc:  # a missing key or a wrongly typed value
            raise ReplayError(
                f"cycle {index}: malformed record ({type(exc).__name__}: {exc})"
            ) from None
        idle_count += idle

        # After cycle 0 every instance no record has named is still at its
        # type's initial configuration, so the first of each type stands for
        # the others: one fixpoint check per type, however many instances.
        if not index:
            for ctype in inner:
                k = 1
                while instance_id(ctype, k) in instances:
                    k += 1
                build(instance_id(ctype, k))
        if touched:
            first = None  # the first in canonical order, not in the order touched
            for inst in touched.values():
                table = tables[inst.type_name]
                if inst.current in table.internal and table.first_enabled(INTERNAL, inst):
                    key = (inst.type_name, inst.index)
                    first = key if first is None else min(first, key)
            if first:
                raise ReplayError(f"cycle {index}: {instance_id(*first)} stopped short of its "
                                  "internal fixpoint")
            touched.clear()

    return {"interactions": fired_count, "idle": idle_count}
