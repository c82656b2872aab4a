"""Diagram instantiation: configurations, conformance, and encodability.

A connector motif plus a cardinality binding defines a set of configurations
(sets of connectors).  This module enumerates them (the brute-force oracle),
checks conformance of a given configuration, and decides whether the diagram
pins down exactly one configuration.

Enumeration solves two exact covers with multiplicities, and one iterative
backtracking search, :func:`_exact_picks`, does both: a connector picks m_e
instances of each end e (:func:`_pool`), and a configuration picks connectors
from the pool so that each instance lies in exactly its degree's worth of
them.  :func:`_search` runs both on numbers alone, so the sweep
(:func:`proposition_sweep`) builds no diagram.

The uniqueness conditions, per motif and end: the multiplicity may not exceed
the owning type's cardinality, and the matching factor n*degree/multiplicity
must equal the number of connectors the motif can form, the product over its
ends of C(n_q, m_q).  The unique configuration is then the set of all of
them.  One function states them, :func:`_end_rule`, on an end's numbers.
:func:`check_encodable` decides them on a diagram, one :class:`EndCheck` row
per end (:func:`_end_checks`), whose verdicts call that rule; the sweep calls
it on each point's numbers (:func:`_encodable`) and builds no row.  Each
function evaluates an end's (n, m, d) once, through ``_end_numbers``;
:func:`diagram_orbits` reads them from that report.

Its interactions are closed under renumbering the instances of a type, so
:func:`diagram_orbits` lists them as a few orbits (``model.Orbit``) without
building a connector: it states each motif's multiplicities as count
constraints for ``logic.orbit_search``, the search the macro rules also use.
:func:`diagram_interactions` expands them.  The union over
:func:`unique_configuration` of the connector trees is their specification
(``tests/test_diagram.py``).
"""

from __future__ import annotations

import itertools
import math
import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, NamedTuple, Optional, Sequence

from .errors import CapacityError, EncodabilityError, LogicDomainError
from .logic import orbit_search
from .model import (
    ArchitectureDiagram,
    Configuration,
    Connector,
    ConnectorMotif,
    Interaction,
    MotifEnd,
    Orbit,
    PortInstance,
    PortTypeRef,
    TRIGGER,
    orbits_interactions,
)

Binding = Mapping[str, int]
Numbers = Sequence[tuple[int, int, int]]  # a motif's ends, each as (n, m, d)

DEFAULT_MAX_NODES = 10**6


def check_binding(d: ArchitectureDiagram, binding: Binding) -> None:
    """The binding must name only parameters of the model, cover every one
    with a non-negative integer, and give every motif end a multiplicity of
    at least 1: ValueError names the unknown names with the model's
    parameters, KeyError the unbound parameters, ValueError the first bad
    value, in that order.

    A degree or a cardinality may be 0: an instance on no connector, a type
    with no instances.  The literal values are validation's to check
    (``NONPOSITIVE_CARDINALITY``)."""
    params, names = d.parameters, binding.keys()
    if not names <= params:
        known = ", ".join(sorted(params))
        raise ValueError(
            "unknown parameters: " + ", ".join(sorted(names - params))
            + (f" (the model's parameters: {known})" if known else " (the model has none)")
        )
    if not params <= names:
        raise KeyError("unbound parameters: " + ", ".join(sorted(params - names)))
    for name, value in binding.items():
        if type(value) is not int or value < 0:
            raise ValueError(f"parameter {name}={value!r} is not a non-negative integer")
    for motif in d.motifs:
        for end in motif.ends:
            name = end.multiplicity.param
            if name is not None and binding[name] < 1:
                raise ValueError(f"parameter {name}={binding[name]} makes the multiplicity of "
                                 f"motif {motif.name}, end {end.port}, less than 1")


def instance_counts(d: ArchitectureDiagram, binding: Binding) -> dict[str, int]:
    return {ct.name: ct.cardinality.evaluate(binding) for ct in d.component_types}


def _end_numbers(d: ArchitectureDiagram, end: MotifEnd, binding: Binding) -> tuple[int, int, int]:
    """(n, m, d) of a motif end: its port type's cardinality, its multiplicity
    and its degree under the binding."""
    return (d.component_type(end.port.component_type).cardinality.evaluate(binding),
            end.multiplicity.evaluate(binding), end.degree.evaluate(binding))


def _connectors(numbers: Numbers) -> int:
    """The number of connectors a motif can form: the product over its ends
    of C(n_q, m_q)."""
    return math.prod([math.comb(n, m) for n, m, _ in numbers])


def _end_rule(n: int, m: int, d: int, connectors: int) -> tuple[bool, bool]:
    """The uniqueness conditions on one motif end of cardinality n,
    multiplicity m and degree d, whose motif can form ``connectors`` (C)
    connectors: whether the multiplicity is at most the cardinality (m <= n),
    and whether the matching factor n*d/m equals C, compared in integers
    (n*d == C*m).  The end is ok when both hold."""
    return m <= n, n * d == connectors * m


def _encodable(numbers: Numbers) -> bool:
    """A motif's verdict from its ends' (n, m, d): every end is ok."""
    connectors = _connectors(numbers)
    return all([all(_end_rule(n, m, d, connectors)) for n, m, d in numbers])


@dataclass(frozen=True)
class EndCheck:
    """One motif end under a binding: its port type's cardinality n, its
    multiplicity m, its degree d, and the number of connectors C its motif
    can form, the product over the motif's ends of C(n_q, m_q)."""

    motif: str
    port: PortTypeRef
    cardinality: int
    multiplicity: int
    degree: int
    connectors: int

    @property
    def _verdicts(self) -> tuple[bool, bool]:
        return _end_rule(self.cardinality, self.multiplicity, self.degree, self.connectors)

    @property
    def multiplicity_ok(self) -> bool:
        return self._verdicts[0]

    @property
    def factor_ok(self) -> bool:
        """The matching factor n*d/m equals C, compared in integers."""
        return self._verdicts[1]

    @property
    def ok(self) -> bool:
        return all(self._verdicts)

    @property
    def factor(self) -> Fraction:
        """The matching factor as an exact rational, for display."""
        return Fraction(self.cardinality * self.degree, self.multiplicity)


@dataclass(frozen=True)
class EncodabilityReport:
    ends: tuple[EndCheck, ...]

    @property
    def overall(self) -> bool:
        return all(e.ok for e in self.ends)

    def failures(self, motif: Optional[str] = None) -> list[EndCheck]:
        """The failing ends, of the named motif only when one is given."""
        return [e for e in self.ends if not e.ok and motif in (None, e.motif)]

    @property
    def failing_ends(self) -> str:
        """The failing ends as ``motif/Type.port, ...``."""
        return ", ".join(f"{e.motif}/{e.port}" for e in self.failures())


def _end_checks(motif: str, ports: Sequence[PortTypeRef], numbers: Numbers) -> list[EndCheck]:
    """The rows of one motif's ends, from each end's port and (n, m, d)."""
    connectors = _connectors(numbers)
    return [EndCheck(motif, port, n, m, deg, connectors)
            for port, (n, m, deg) in zip(ports, numbers)]


def check_encodable(d: ArchitectureDiagram, binding: Binding) -> EncodabilityReport:
    """Evaluate the uniqueness conditions for every end of every motif."""
    check_binding(d, binding)
    checks = []
    for motif in d.motifs:
        checks += _end_checks(motif.name, [end.port for end in motif.ends],
                              [_end_numbers(d, end, binding) for end in motif.ends])
    return EncodabilityReport(tuple(checks))


def _exact_picks(
    items: Sequence[Sequence[int]], need: list[int], avail: list[int], size: int, total: int,
    max_nodes: float = math.inf, motif: str = "",
) -> Iterator[tuple[int, ...]]:
    """Every increasing ``size``-tuple of positions that covers each counter
    k exactly ``need[k]`` times, in lexicographic order: an exact cover with
    multiplicities.  ``items[i]`` lists the counters position i covers, for a
    prefix of the ``total`` positions; every item has one width, and ``size``
    times it is sum(need).  ``avail[k]`` counts the positions that cover k.

    The search is depth-first and tries a position in before it passes over
    it.  need[k], what k still lacks, and avail[k], the positions not yet
    passed over that cover k, change in place.  A position goes in only while
    each of its counters needs it, so ``size`` of them meet every need.  A
    branch is cut when too few positions remain, or when a counter of the
    position just passed over needs more than it can still get: going in
    lowers need and avail alike.  One node is one step of the loop, and node
    ``max_nodes + 1`` raises CapacityError, so no position past
    ``max_nodes - 1`` is read.  A frame starts after its last included
    position, so those positions are the whole stack: the loop does not
    recurse."""
    if any(n > a for n, a in zip(need, avail)):
        return
    chosen: list[int] = []
    idx, passed = 0, ()
    nodes = 0
    while True:
        nodes += 1
        if nodes > max_nodes:
            raise CapacityError(
                f"configuration search exceeded {max_nodes} nodes for motif {motif}; "
                "raise the bound with max_nodes (BIPKIT_MAX_NODES for the command line)"
            )
        if len(chosen) == size:
            yield tuple(chosen)
        elif size - len(chosen) <= total - idx:
            for k in passed:
                if need[k] > avail[k]:
                    break
            else:
                passed = items[idx]
                for k in passed:
                    avail[k] -= 1
                idx += 1
                for k in passed:
                    if not need[k]:
                        break
                else:
                    for k in passed:
                        need[k] -= 1
                    chosen.append(idx - 1)
                    passed = ()
                continue
        # Back up: give back what this frame passed over, then pass over
        # the position that opened it.
        start = chosen[-1] + 1 if chosen else 0
        for passed_over in items[start:idx]:
            for k in passed_over:
                avail[k] += 1
        if not chosen:
            return
        idx = chosen.pop()
        passed = items[idx]
        for k in passed:
            need[k] += 1
        idx += 1


def _members(
    motif: ConnectorMotif, numbers: Numbers
) -> tuple[list[tuple[PortInstance, str]], list[int]]:
    """The motif's port instances with their typings, sorted, and the end of each."""
    members = sorted((PortInstance(end.port.component_type, i, end.port.port), end.typing, e)
                     for e, (end, (n, _, _)) in enumerate(zip(motif.ends, numbers))
                     for i in range(1, n + 1))
    return [member[:2] for member in members], [e for _, _, e in members]


def _pool(ends: Sequence[int], numbers: Numbers) -> Iterator[tuple[int, ...]]:
    """Every connector a motif can form, as increasing positions in its
    sorted port instances (``ends[k]`` the end of position k), lazily in
    lexicographic order: a connector picks m_e instances of each end e, an
    exact cover of the ends by the instances."""
    quota = [m for _, m, _ in numbers]
    return _exact_picks([(e,) for e in ends], quota, [n for n, _, _ in numbers],
                        sum(quota), len(ends))


def possible_connectors(
    d: ArchitectureDiagram, motif: ConnectorMotif, binding: Binding
) -> list[Connector]:
    """Every connector the motif can form, one m_q-subset of instances per
    end, in the order of their sorted ends."""
    numbers = [_end_numbers(d, end, binding) for end in motif.ends]
    members, ends = _members(motif, numbers)
    return [Connector(frozenset(members[k] for k in pick)) for pick in _pool(ends, numbers)]


def _configuration_size(numbers: Numbers) -> int:
    """Connectors per configuration: the matching factor n*d/m when every
    end's is one equal integer, else 0, and there is no configuration."""
    factors = {divmod(n * deg, m) for n, m, deg in numbers}
    size, rest = factors.pop() if len(factors) == 1 else (0, 0)
    return 0 if rest else size


def _search(ends: Sequence[int], numbers: Numbers, size: int, limit: Optional[int],
            max_nodes: int, motif: str) -> tuple[list[tuple[int, ...]], list[tuple[int, ...]]]:
    """The search on numbers, for a :func:`_configuration_size` of at least
    1: the pool (:func:`_pool`) and the first ``limit`` configurations, each
    as increasing positions in the pool."""
    # Connectors cover instances, each of end q by total*m_q/n_q of them.
    # Each node moves one connector on along its path, so the search reads
    # no connector past max_nodes - 1, and only those are generated.
    total = _connectors(numbers)
    pool = list(itertools.islice(_pool(ends, numbers), min(total, max_nodes)))
    # No list holds more than sys.maxsize items, so a larger limit is none.
    stop = None if limit is None else min(limit, sys.maxsize)
    return pool, list(itertools.islice(_exact_picks(
        pool, [numbers[e][2] for e in ends], [total * numbers[e][1] // numbers[e][0] for e in ends],
        size, total, max_nodes, motif), stop))


@dataclass(frozen=True)
class EnumerationResult:
    configurations: tuple[frozenset[Connector], ...]
    truncated: bool

    def __len__(self) -> int:
        return len(self.configurations)


def enumerate_configurations(
    d: ArchitectureDiagram,
    motif: ConnectorMotif,
    binding: Binding,
    limit: Optional[int] = None,
    max_nodes: int = DEFAULT_MAX_NODES,
) -> EnumerationResult:
    """All configurations of one motif, by backtracking over connector subsets.

    A configuration is a set of distinct connectors in which every instance
    of each end's port type sits in exactly its degree's worth of connectors.
    Results come in lexicographic order of sorted connector lists; with a
    limit, enumeration stops after that many and sets the truncated flag.
    Raises CapacityError when the search visits more than max_nodes nodes.
    """
    check_binding(d, binding)
    if limit is not None and limit < 1:
        raise ValueError("limit must be at least 1")
    if max_nodes < 0:
        raise ValueError("max_nodes must be at least 0")
    if len(motif.port_types) < len(motif.ends):
        raise ValueError(f"motif {motif.name} names a port type twice")

    numbers = [_end_numbers(d, end, binding) for end in motif.ends]
    size = _configuration_size(numbers)
    if not size:
        return EnumerationResult((), False)
    members, ends = _members(motif, numbers)
    pool, found = _search(ends, numbers, size, limit, max_nodes, motif.name)
    # Connectors are built only for the configurations found, each once.
    connectors = {i: Connector(frozenset(members[k] for k in pool[i]))
                  for i in set().union(*found)}
    return EnumerationResult(
        tuple(frozenset(map(connectors.__getitem__, configuration)) for configuration in found),
        limit is not None and len(found) == limit)


def unique_configuration(
    d: ArchitectureDiagram, motif: ConnectorMotif, binding: Binding
) -> frozenset[Connector]:
    """The single conforming configuration: all possible connectors, in
    closed form.  Raises EncodabilityError unless the uniqueness conditions
    hold for this motif."""
    failures = check_encodable(d, binding).failures(motif.name)
    if failures:
        details = "; ".join(
            f"{e.port}: factor {e.factor} vs {e.connectors} possible connectors"
            + ("" if e.multiplicity_ok else f", multiplicity {e.multiplicity} > {e.cardinality}")
            for e in failures
        )
        raise EncodabilityError(f"motif {motif.name} has no unique configuration: {details}")
    return frozenset(possible_connectors(d, motif, binding))


def conforms(configuration: Configuration, d: ArchitectureDiagram, binding: Binding) -> bool:
    """Does the configuration satisfy every motif's multiplicity/typing and
    degree constraints under the binding, on instances numbered 1..n?"""
    check_binding(d, binding)
    groups = dict(configuration.groups)
    if groups.keys() - {m.name for m in d.motifs}:
        return False
    for motif in d.motifs:
        group = groups.get(motif.name)
        if not group:
            return False
        numbers = [(end, _end_numbers(d, end, binding)) for end in motif.ends]
        ends = {end.port: (n, end.typing) for end, (n, _, _) in numbers}
        for connector in group:
            by_ref: dict[PortTypeRef, int] = {}
            for pi, typing in connector.ends:
                ref = pi.type_ref
                n, end_typing = ends.get(ref, (0, None))
                if typing != end_typing or not 1 <= pi.index <= n:
                    return False
                by_ref[ref] = by_ref.get(ref, 0) + 1
            for end, (_, m, _) in numbers:
                if by_ref.get(end.port, 0) != m:
                    return False
        involved = Counter(pi for connector in group for pi, _ in connector.ends)
        for end, (n, _, deg) in numbers:
            for i in range(1, n + 1):
                if involved[PortInstance(end.port.component_type, i, end.port.port)] != deg:
                    return False
    return True


def enumerate_diagram_configurations(
    d: ArchitectureDiagram,
    binding: Binding,
    limit: Optional[int] = None,
    max_nodes: int = DEFAULT_MAX_NODES,
) -> tuple[tuple[Configuration, ...], bool]:
    """Configurations of the whole diagram: the per-motif Cartesian product."""
    per_motif: list[tuple[str, EnumerationResult]] = [
        (motif.name, enumerate_configurations(d, motif, binding, limit=limit, max_nodes=max_nodes))
        for motif in d.motifs
    ]
    truncated = any(result.truncated for _, result in per_motif)
    groups = [[(name, option) for option in result.configurations] for name, result in per_motif]
    if any(not g for g in groups):
        return (), truncated
    configurations: list[Configuration] = []
    for combo in itertools.product(*groups):
        if limit is not None and len(configurations) >= limit:
            truncated = True
            break
        configurations.append(Configuration(tuple(combo)))
    return tuple(configurations), truncated


def diagram_orbits(d: ArchitectureDiagram, binding: Binding) -> list[Orbit]:
    """Interaction semantics of an encodable diagram, as sorted orbits.  The
    unique configuration holds every connector each motif can form, so in a
    motif's orbits (a counter per end) end e has exactly m_e carriers, or,
    with a trigger end, 0..m_e of them and some trigger end at least one.
    Raises EncodabilityError when some motif admits zero or several
    configurations."""
    report = check_encodable(d, binding)
    if not report.overall:
        raise EncodabilityError(
            f"diagram does not define a unique architecture ({report.failing_ends})")
    orbits: set[Orbit] = set()
    checks, counts = iter(report.ends), instance_counts(d, binding)
    for motif in d.motifs:
        typings: dict[PortTypeRef, str] = {}
        constraints, triggers = [], []
        for e, (end, check) in enumerate(zip(motif.ends, checks)):
            if typings.setdefault(end.port, end.typing) != end.typing:
                raise LogicDomainError(f"motif {motif.name}: {end.port} is synchron and trigger")
            m = check.multiplicity
            constraints.append((((e, 0 if motif.has_trigger else m, m),),))
            if end.typing == TRIGGER:
                triggers.append(((e, 1, m),))
        if triggers:
            constraints.append(tuple(triggers))
        orbits.update(orbit_search([end.port for end in motif.ends], counts, constraints))
    return sorted(orbits)


def diagram_interactions(d: ArchitectureDiagram, binding: Binding) -> frozenset[Interaction]:
    """Interaction semantics of an encodable diagram: the expansion of
    :func:`diagram_orbits`."""
    return orbits_interactions(diagram_orbits(d, binding), instance_counts(d, binding))


# ---- exhaustive sweep over small single-motif diagrams ---------------------


class SweepRecord(NamedTuple):
    """The verdict on one sweep point or on one motif of a model: how many
    configurations the search found against the closed form's prediction
    that there is exactly one (``encodable``)."""

    label: str
    count: Optional[int]  # None: unknown, the search exceeded max_nodes
    encodable: bool

    @property
    def agree(self) -> Optional[bool]:
        if self.count is None:
            return None
        return (self.count == 1) == self.encodable


# The most points ``oracle --sweep`` searches: "n,m,d<=K" has K^3 + K^6
# points, 46,872 at K=6 and 117,992 at K=7.
MAX_SWEEP_POINTS = 10**5


def iter_sweep_shapes(bound: int = 3) -> Iterator[tuple[tuple[int, int, int], ...]]:
    """The (n, m, d) specs of every single-motif shape with one or two ends
    and all of n, m, d in [1, bound]: the one-end shapes first, each list in
    product order."""
    specs = list(itertools.product(range(1, bound + 1), repeat=3))
    for spec in specs:
        yield (spec,)
    yield from itertools.product(specs, repeat=2)


def _sweep_label(specs: Numbers) -> str:
    """A sweep point's label, as :func:`proposition_sweep` joins it from
    fragments; ``tests/helpers.iter_sweep_points`` reads it from here."""
    if len(specs) == 1:
        return "n={} m={} d={}".format(*specs[0])
    return " | ".join(f"n{k}={n} m{k}={m} d{k}={deg}" for k, (n, m, deg) in enumerate(specs, 1))


def proposition_sweep(bound: int = 3, max_nodes: int = DEFAULT_MAX_NODES) -> list[SweepRecord]:
    """Cross-check brute-force uniqueness against the encodability conditions
    at every sweep point; every record should have ``agree`` set.  A point
    whose search exceeds ``max_nodes`` is recorded as unknown (``count`` and
    ``agree`` are None) and the sweep goes on.  Each point is searched and
    checked on its specs, as on ``tests/helpers.single_motif_diagram(specs)``
    without building it: its sorted port instances are A's, then B's.  A
    point is judged on its numbers by the rule :class:`EndCheck` applies
    (:func:`_encodable`), and no row is built.  Its label is that of
    :func:`_sweep_label`, joined from per-spec fragments made once."""
    if max_nodes < 0:
        raise ValueError("max_nodes must be at least 0")
    # each spec's fragments: alone, as the first end and as the second
    frags = {spec: [f"n{k}={spec[0]} m{k}={spec[1]} d{k}={spec[2]}" for k in ("", 1, 2)]
             for spec in itertools.product(range(1, bound + 1), repeat=3)}
    records = []
    for specs in iter_sweep_shapes(bound):
        label = (frags[specs[0]][0] if len(specs) == 1
                 else f"{frags[specs[0]][1]} | {frags[specs[1]][2]}")
        size = _configuration_size(specs)
        try:
            count = size and len(_search([e for e, (n, _, _) in enumerate(specs) for _ in range(n)],
                                         specs, size, 2, max_nodes, "only")[1])
        except CapacityError:
            count = None
        records.append(SweepRecord(label, count, _encodable(specs)))
    return records
