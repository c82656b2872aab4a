"""Core domain types for parameterized BIP models, plus structural validation.

A model is a set of component types (labeled transition systems with
enforceable, spontaneous, and internal transitions) and a set of connector
motifs relating their port types.  Everything here is an immutable value:
:class:`PortTypeRef` and :class:`PortInstance` are typed tuples equal to
their field tuples, the rest frozen dataclasses.  An allowed set is held
as orbits (:data:`Orbit`), which one placement generator expands.  The
validators are pure functions returning issue lists rather than raising.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Iterator, Mapping, NamedTuple, Optional

# Transition kinds.
ENFORCEABLE = "enforceable"
SPONTANEOUS = "spontaneous"
INTERNAL = "internal"

# Motif end typings.
SYNCHRON = "synchron"
TRIGGER = "trigger"

ERROR = "error"
WARNING = "warning"


@dataclass(frozen=True)
class SourceSpan:
    """Where a construct starts in a source file: 1-based line and column."""

    file: str
    start_line: int
    start_col: int

    def __str__(self) -> str:
        return f"{self.file}:{self.start_line}:{self.start_col}"


class PortTypeRef(NamedTuple):
    """A port type qualified by its owning component type, e.g. Route.on.

    A typed tuple: it equals, hashes and sorts as its field tuple
    ``(component_type, port)``."""

    component_type: str
    port: str

    def __str__(self) -> str:
        return f"{self.component_type}.{self.port}"


@dataclass(frozen=True)
class CardExpr:
    """Cardinality expression: a positive integer literal or a parameter name."""

    literal: Optional[int] = None
    param: Optional[str] = None

    def __post_init__(self):
        if (self.literal is None) == (self.param is None):
            raise ValueError("CardExpr needs exactly one of literal/param")

    @classmethod
    def lit(cls, value: int) -> "CardExpr":
        return cls(literal=value)

    @classmethod
    def var(cls, name: str) -> "CardExpr":
        return cls(param=name)

    @property
    def is_literal(self) -> bool:
        return self.literal is not None

    def evaluate(self, binding: Mapping[str, int]) -> int:
        if self.literal is not None:
            return self.literal
        if self.param not in binding:
            raise KeyError(f"unbound parameter {self.param!r}")
        return binding[self.param]

    def __str__(self) -> str:
        return str(self.literal) if self.literal is not None else str(self.param)


class GuardExpr:
    """Boolean expression over declared guard names."""

    def evaluate(self, env: Mapping[str, bool]) -> bool:
        raise NotImplementedError

    def atoms(self) -> frozenset[str]:
        raise NotImplementedError

    # Precedence: or(1) < and(2) < not(3) < atom(4).
    def _prec(self) -> int:
        raise NotImplementedError

    def _child_str(self, child: "GuardExpr") -> str:
        text = str(child)
        return f"({text})" if child._prec() < self._prec() else text


@dataclass(frozen=True)
class GuardAtom(GuardExpr):
    name: str

    def evaluate(self, env: Mapping[str, bool]) -> bool:
        if self.name not in env:
            raise KeyError(f"guard {self.name!r} has no value")
        return env[self.name]

    def atoms(self) -> frozenset[str]:
        return frozenset({self.name})

    def _prec(self) -> int:
        return 4

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class GuardNot(GuardExpr):
    operand: GuardExpr

    def evaluate(self, env: Mapping[str, bool]) -> bool:
        return not self.operand.evaluate(env)

    def atoms(self) -> frozenset[str]:
        return self.operand.atoms()

    def _prec(self) -> int:
        return 3

    def __str__(self) -> str:
        return f"!{self._child_str(self.operand)}"


@dataclass(frozen=True)
class GuardAnd(GuardExpr):
    left: GuardExpr
    right: GuardExpr

    def evaluate(self, env: Mapping[str, bool]) -> bool:
        return self.left.evaluate(env) and self.right.evaluate(env)

    def atoms(self) -> frozenset[str]:
        return self.left.atoms() | self.right.atoms()

    def _prec(self) -> int:
        return 2

    def __str__(self) -> str:
        return f"{self._child_str(self.left)} & {self._child_str(self.right)}"


@dataclass(frozen=True)
class GuardOr(GuardExpr):
    left: GuardExpr
    right: GuardExpr

    def evaluate(self, env: Mapping[str, bool]) -> bool:
        return self.left.evaluate(env) or self.right.evaluate(env)

    def atoms(self) -> frozenset[str]:
        return self.left.atoms() | self.right.atoms()

    def _prec(self) -> int:
        return 1

    def __str__(self) -> str:
        return f"{self._child_str(self.left)} | {self._child_str(self.right)}"


@dataclass(frozen=True)
class Transition:
    """One LTS transition.

    The label is a port name for enforceable transitions, an event name for
    spontaneous ones, and empty for internal ones.
    """

    kind: str
    label: str
    source: str
    destination: str
    guard: Optional[GuardExpr] = None
    span: Optional[SourceSpan] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class ComponentType:
    """A component type: cardinality, interface, and LTS behavior.

    ``initial_states`` holds every state marked initial so that invalid
    models (zero or several initial states) can be represented and reported
    by :func:`validate_behavior` instead of failing at construction.
    """

    name: str
    cardinality: CardExpr
    port_types: frozenset[str]
    spontaneous_events: frozenset[str] = frozenset()
    guards: frozenset[str] = frozenset()
    states: frozenset[str] = frozenset()
    initial_states: frozenset[str] = frozenset()
    transitions: tuple[Transition, ...] = ()
    span: Optional[SourceSpan] = field(default=None, compare=False, repr=False)

    @property
    def initial_state(self) -> str:
        """The unique initial state; only valid models may ask for it."""
        if len(self.initial_states) != 1:
            raise ValueError(f"{self.name} has {len(self.initial_states)} initial states")
        return next(iter(self.initial_states))


@dataclass(frozen=True)
class MotifEnd:
    """One end of a connector motif: port type, multiplicity:degree, typing."""

    port: PortTypeRef
    multiplicity: CardExpr
    degree: CardExpr
    typing: str = SYNCHRON
    span: Optional[SourceSpan] = field(default=None, compare=False, repr=False)


@dataclass(frozen=True)
class ConnectorMotif:
    name: str
    ends: tuple[MotifEnd, ...]
    span: Optional[SourceSpan] = field(default=None, compare=False, repr=False)

    @property
    def port_types(self) -> frozenset[PortTypeRef]:
        return frozenset(e.port for e in self.ends)

    @property
    def has_trigger(self) -> bool:
        return any(e.typing == TRIGGER for e in self.ends)


@dataclass(frozen=True)
class ArchitectureDiagram:
    """Component types plus connector motifs.

    Types and motifs are kept sorted by name so that two diagrams declaring
    the same elements in different order compare equal; this is what makes
    the serialize/parse round-trip an identity.
    """

    name: str
    component_types: tuple[ComponentType, ...]
    motifs: tuple[ConnectorMotif, ...] = ()
    span: Optional[SourceSpan] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(
            self, "component_types", tuple(sorted(self.component_types, key=lambda c: c.name))
        )
        object.__setattr__(self, "motifs", tuple(sorted(self.motifs, key=lambda m: m.name)))

    @functools.cached_property
    def types_by_name(self) -> Mapping[str, ComponentType]:
        return {ct.name: ct for ct in self.component_types}

    def component_type(self, name: str) -> ComponentType:
        try:
            return self.types_by_name[name]
        except KeyError:
            raise KeyError(f"no component type named {name!r}") from None

    @property
    def parameters(self) -> frozenset[str]:
        """Every parameter name appearing in any cardinality expression."""
        params = set()
        for ct in self.component_types:
            if ct.cardinality.param:
                params.add(ct.cardinality.param)
        for motif in self.motifs:
            for end in motif.ends:
                for expr in (end.multiplicity, end.degree):
                    if expr.param:
                        params.add(expr.param)
        return frozenset(params)


class PortInstance(NamedTuple):
    """A port of one concrete component instance, e.g. Route.on#2.

    A typed tuple: it equals, hashes and sorts as its field tuple
    ``(component_type, index, port)``, so the engine orders interactions
    by their sorted port instances with no key function."""

    component_type: str
    index: int
    port: str

    def __str__(self) -> str:
        return f"{self.component_type}.{self.port}#{self.index}"

    @property
    def type_ref(self) -> PortTypeRef:
        return PortTypeRef(self.component_type, self.port)


# An interaction is a non-empty frozenset of PortInstance; we use the bare
# frozenset to keep the set algebra free of wrappers.
Interaction = frozenset

# An orbit is a sorted tuple of (signature, count) pairs, a signature being a
# sorted tuple of one component type's PortTypeRefs: its interactions are
# those in which, for each pair, ``count`` distinct instances of that type
# take part with exactly the signature's ports.  Renumbering the instances of
# a type maps an orbit onto itself, and an allowed set closed under that (the
# diagram's and the macros') is the disjoint union of a few orbits (Emerson &
# Sistla, *Symmetry and model checking*, 1996).
Orbit = tuple


def _placements(parts, free):
    """Every way to give the (signature, count) parts of one component type
    distinct instance numbers from ``free``: one increasing tuple per part."""
    (_, k), rest = parts[0], parts[1:]
    for chosen in itertools.combinations(free, k):
        if not rest:
            yield (chosen,)
            continue
        taken = set(chosen)
        for tail in _placements(rest, [i for i in free if i not in taken]):
            yield (chosen,) + tail


def orbit_interactions(orbit: Orbit, instances: Mapping[str, int]) -> list[Interaction]:
    """Every interaction of one orbit, each exactly once: a list of the
    multinomial length.  Component types join in name order, and each
    type's parts take distinct instance numbers from 1 to its count in
    ``instances``, one increasing tuple per part."""
    expansion = [()]
    for ctype, parts in itertools.groupby(orbit, key=lambda part: part[0][0][0]):
        parts = tuple(parts)
        free = range(1, instances.get(ctype, 0) + 1)
        rendered = [tuple(PortInstance(q.component_type, i, q.port)
                          for (signature, _), numbers in zip(parts, chosen)
                          for i in numbers for q in signature)
                    for chosen in _placements(parts, free)]
        expansion = [head + tail for head in expansion for tail in rendered]
    return [frozenset(ports) for ports in expansion]


def orbits_interactions(orbits, instances: Mapping[str, int]) -> frozenset[Interaction]:
    """The allowed set that a list of orbits describes."""
    return frozenset(itertools.chain.from_iterable(
        orbit_interactions(orbit, instances) for orbit in orbits))


@dataclass(frozen=True)
class Connector:
    """A flat connector: a set of port instances with their typings."""

    ends: frozenset[tuple[PortInstance, str]]

    def __post_init__(self):
        instances = [pi for pi, _ in self.ends]
        if len(instances) != len(set(instances)):
            raise ValueError("a port instance may appear at most once per connector")

    @classmethod
    def of(cls, *ends: tuple[PortInstance, str]) -> "Connector":
        return cls(frozenset(ends))

    @property
    def port_instances(self) -> frozenset[PortInstance]:
        return frozenset(pi for pi, _ in self.ends)

    def __str__(self) -> str:
        parts = [str(pi) + ("^" if typing == TRIGGER else "") for pi, typing in sorted(self.ends)]
        return "{" + " ".join(parts) + "}"


@dataclass(frozen=True)
class Configuration:
    """Connectors of one architecture, grouped by the motif that produced them."""

    groups: tuple[tuple[str, frozenset[Connector]], ...]

    def __post_init__(self):
        object.__setattr__(self, "groups", tuple(sorted(self.groups, key=lambda g: g[0])))

    def connectors(self) -> Iterator[Connector]:
        for _, group in self.groups:
            yield from group


@dataclass(frozen=True, order=True)
class ValidationIssue:
    location: str
    code: str
    severity: str
    message: str
    span: Optional[SourceSpan] = field(default=None, compare=False, repr=False)

    def __str__(self) -> str:
        where = str(self.span) if self.span else self.location
        return f"{self.severity}[{self.code}] {where}: {self.message}"


# Issue codes are a closed set; each corresponds to one structural invariant.
# The full table is documented in the README.
NO_INITIAL_STATE = "NO_INITIAL_STATE"
MULTIPLE_INITIAL_STATES = "MULTIPLE_INITIAL_STATES"
UNDECLARED_INITIAL_STATE = "UNDECLARED_INITIAL_STATE"
NO_PORT_TYPES = "NO_PORT_TYPES"
PORT_EVENT_OVERLAP = "PORT_EVENT_OVERLAP"
UNDECLARED_STATE = "UNDECLARED_STATE"
BAD_TRANSITION_LABEL = "BAD_TRANSITION_LABEL"
UNDECLARED_GUARD = "UNDECLARED_GUARD"
NONPOSITIVE_CARDINALITY = "NONPOSITIVE_CARDINALITY"
DANGLING_PORT_REF = "DANGLING_PORT_REF"
DUPLICATE_MOTIF_END = "DUPLICATE_MOTIF_END"
EMPTY_MOTIF = "EMPTY_MOTIF"
DUPLICATE_COMPONENT_TYPE = "DUPLICATE_COMPONENT_TYPE"
DUPLICATE_MOTIF_NAME = "DUPLICATE_MOTIF_NAME"
TRIGGER_MULTIPLICITY = "TRIGGER_MULTIPLICITY"
SINGLETON_MULTIPLICITY = "SINGLETON_MULTIPLICITY"


def _check_card(expr: CardExpr, location: str, span, issues: list[ValidationIssue]) -> None:
    if expr.literal is not None and expr.literal <= 0:
        issues.append(
            ValidationIssue(
                location,
                NONPOSITIVE_CARDINALITY,
                ERROR,
                f"cardinality expression must be positive, got {expr.literal}",
                span,
            )
        )


def validate_behavior(ct: ComponentType) -> list[ValidationIssue]:
    """Check every structural invariant of a component type.

    Pure: the result depends only on the input and is sorted by location.
    Guard names live in their own namespace and may coincide with port
    names (a component may expose a port and a guard called the same way);
    only ports and spontaneous events share the transition-label namespace
    and must therefore be disjoint.
    """
    issues: list[ValidationIssue] = []
    loc = f"component[{ct.name}]"

    if not ct.port_types:
        issues.append(
            ValidationIssue(loc, NO_PORT_TYPES, ERROR, "component type declares no port types", ct.span)
        )

    overlap = ct.port_types & ct.spontaneous_events
    if overlap:
        issues.append(
            ValidationIssue(
                loc,
                PORT_EVENT_OVERLAP,
                ERROR,
                "ports and spontaneous events must be disjoint: " + ", ".join(sorted(overlap)),
                ct.span,
            )
        )

    if len(ct.initial_states) == 0:
        issues.append(
            ValidationIssue(loc, NO_INITIAL_STATE, ERROR, "exactly one initial state required, found none", ct.span)
        )
    elif len(ct.initial_states) > 1:
        issues.append(
            ValidationIssue(
                loc,
                MULTIPLE_INITIAL_STATES,
                ERROR,
                "exactly one initial state required, found: " + ", ".join(sorted(ct.initial_states)),
                ct.span,
            )
        )
    for state in sorted(ct.initial_states - ct.states):
        issues.append(
            ValidationIssue(
                f"{loc}.state[{state}]",
                UNDECLARED_INITIAL_STATE,
                ERROR,
                f"initial state {state!r} is not a declared state",
                ct.span,
            )
        )

    _check_card(ct.cardinality, loc, ct.span, issues)

    for i, tr in enumerate(ct.transitions):
        tloc = f"{loc}.transition[{i}]"
        for endpoint in (tr.source, tr.destination):
            if endpoint not in ct.states:
                issues.append(
                    ValidationIssue(
                        tloc, UNDECLARED_STATE, ERROR, f"state {endpoint!r} is not declared", tr.span
                    )
                )
        if tr.kind == ENFORCEABLE:
            if tr.label not in ct.port_types:
                issues.append(
                    ValidationIssue(
                        tloc,
                        BAD_TRANSITION_LABEL,
                        ERROR,
                        f"enforceable label {tr.label!r} is not a declared port",
                        tr.span,
                    )
                )
        elif tr.kind == SPONTANEOUS:
            if tr.label not in ct.spontaneous_events:
                issues.append(
                    ValidationIssue(
                        tloc,
                        BAD_TRANSITION_LABEL,
                        ERROR,
                        f"spontaneous label {tr.label!r} is not a declared event",
                        tr.span,
                    )
                )
        elif tr.kind == INTERNAL:
            if tr.label:
                issues.append(
                    ValidationIssue(
                        tloc,
                        BAD_TRANSITION_LABEL,
                        ERROR,
                        "internal transitions carry no label",
                        tr.span,
                    )
                )
        else:
            issues.append(
                ValidationIssue(
                    tloc, BAD_TRANSITION_LABEL, ERROR, f"unknown transition kind {tr.kind!r}", tr.span
                )
            )
        if tr.guard is not None:
            for atom in sorted(tr.guard.atoms() - ct.guards):
                issues.append(
                    ValidationIssue(
                        tloc,
                        UNDECLARED_GUARD,
                        ERROR,
                        f"guard expression references undeclared guard {atom!r}",
                        tr.span,
                    )
                )

    return sorted(issues)


def validate_diagram(d: ArchitectureDiagram) -> list[ValidationIssue]:
    """Check diagram-level invariants: references, motif shape, cardinalities.

    Component-type internals are covered by :func:`validate_behavior`; use
    :func:`validate_model` to run both.
    """
    issues: list[ValidationIssue] = []

    seen_types: set[str] = set()
    for ct in d.component_types:
        if ct.name in seen_types:
            issues.append(
                ValidationIssue(
                    f"component[{ct.name}]",
                    DUPLICATE_COMPONENT_TYPE,
                    ERROR,
                    f"component type {ct.name!r} declared more than once",
                    ct.span,
                )
            )
        seen_types.add(ct.name)

    seen_motifs: set[str] = set()
    for motif in d.motifs:
        mloc = f"motif[{motif.name}]"
        if motif.name in seen_motifs:
            issues.append(
                ValidationIssue(
                    mloc, DUPLICATE_MOTIF_NAME, ERROR, f"motif {motif.name!r} declared more than once", motif.span
                )
            )
        seen_motifs.add(motif.name)

        if not motif.ends:
            issues.append(
                ValidationIssue(mloc, EMPTY_MOTIF, ERROR, "motif has no ends", motif.span)
            )
            continue

        seen_ports: set[PortTypeRef] = set()
        for end in motif.ends:
            eloc = f"{mloc}.end[{end.port}]"
            if end.port in seen_ports:
                issues.append(
                    ValidationIssue(
                        eloc,
                        DUPLICATE_MOTIF_END,
                        ERROR,
                        f"port type {end.port} appears twice in one motif",
                        end.span,
                    )
                )
            seen_ports.add(end.port)

            ct = d.types_by_name.get(end.port.component_type)
            if ct is None or end.port.port not in ct.port_types:
                issues.append(
                    ValidationIssue(
                        eloc,
                        DANGLING_PORT_REF,
                        ERROR,
                        f"{end.port} does not name a declared port type",
                        end.span,
                    )
                )
            _check_card(end.multiplicity, eloc, end.span, issues)
            _check_card(end.degree, eloc, end.span, issues)

            m = end.multiplicity.literal or 0
            if m > 1 and motif.has_trigger and (ct is None or ct.cardinality.literal != m):
                issues.append(
                    ValidationIssue(
                        eloc,
                        TRIGGER_MULTIPLICITY,
                        WARNING,
                        ("trigger end" if end.typing == TRIGGER
                         else "synchron end in a motif with a trigger end")
                        + " with multiplicity > 1: the macro encoding cannot "
                        "bound how many instances join unless multiplicity equals the "
                        "type cardinality",
                        end.span,
                    )
                )
        if len(motif.ends) == 1 and (motif.ends[0].multiplicity.literal or 0) > 1:
            issues.append(
                ValidationIssue(
                    f"{mloc}.end[{motif.ends[0].port}]",
                    SINGLETON_MULTIPLICITY,
                    WARNING,
                    "singleton motif with multiplicity > 1: the macro encoding renders "
                    "singleton motifs as dash rules, which only denote lone-port interactions",
                    motif.ends[0].span,
                )
            )

    return sorted(issues)


def validate_model(d: ArchitectureDiagram) -> list[ValidationIssue]:
    """Behavior validation of every component type plus diagram validation."""
    issues: list[ValidationIssue] = []
    for ct in d.component_types:
        issues.extend(validate_behavior(ct))
    issues.extend(validate_diagram(d))
    return sorted(issues)


