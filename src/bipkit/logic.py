"""Propositional and first-order interaction logic, and Require/Accept rules.

A propositional formula denotes a set of interactions over a port-instance
universe: an interaction satisfies the formula under the valuation that maps
exactly its members to true.  The first-order layer quantifies over component
instances of a type, optionally filtered by equality constraints between
bound variables; instantiating it against concrete instance counts yields a
propositional formula.

Require/Accept rules are the macro notation used to ship interaction
constraints to an engine:

    Route.on  Require  Monitor.add        one option; exact counts
    Route.off Require  -                  dash: no requirement
    T1.p      Require  T2.q T2.q ; T2.r   two options, left one needs two q's

A require option either counts exactly (an option ``q q`` is satisfied by
precisely two distinct q instances, no more) or is a trigger option that only
demands presence (at least one instance).  Trigger options arise when a
connector motif contains trigger ports, whose connector semantics places no
upper bound on participation; exact options encode rendezvous multiplicities.
An accept rule bounds the interaction: every instance of a port type outside
the accepted set is excluded whenever the effect port participates (for the
effect's own port type, other instances are excluded, never the effect
itself).

Both sources of the allowed set share one search, :func:`orbit_search`.
The allowed set is closed under permuting the instances of a type, so the
search counts how many instances carry each set of ports (Emerson & Sistla,
*Symmetry and model checking*, 1996) and returns the count vectors as orbits
(``model.Orbit``) without expanding them; its cost grows with the vectors
tried, not with the number of port subsets.  The constraint sets differ:
:func:`allowed_orbits` has a counter per rule port type and states each rule
as a constraint on what an instance carrying some ports demands, and
``diagram.diagram_orbits`` has a counter per motif end and bounds each
count by the end's multiplicity.  :func:`allowed_interactions` is the
expansion of the first.  Its specification,
:func:`allowed_interactions_spec`, expands every rule to FOIL, grounds it
and enumerates the subset lattice of a capped port universe; tests compare
the two.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Optional, Sequence

from .errors import CapacityError, LogicDomainError
from .model import Interaction, Orbit, PortInstance, PortTypeRef, orbits_interactions

DEFAULT_MAX_PORTS = 20

# ---- propositional layer --------------------------------------------------


class PilFormula:
    """Base class; concrete nodes are PTrue, PortVar, PNot, POr."""

    def port_instances(self) -> frozenset[PortInstance]:
        raise NotImplementedError


@dataclass(frozen=True)
class PTrue(PilFormula):
    def port_instances(self) -> frozenset[PortInstance]:
        return frozenset()


@dataclass(frozen=True)
class PortVar(PilFormula):
    port: PortInstance

    def port_instances(self) -> frozenset[PortInstance]:
        return frozenset({self.port})


@dataclass(frozen=True)
class PNot(PilFormula):
    operand: PilFormula

    def port_instances(self) -> frozenset[PortInstance]:
        return self.operand.port_instances()


@dataclass(frozen=True)
class POr(PilFormula):
    left: PilFormula
    right: PilFormula

    def port_instances(self) -> frozenset[PortInstance]:
        return self.left.port_instances() | self.right.port_instances()


def p_false() -> PilFormula:
    return PNot(PTrue())


def p_and(left: PilFormula, right: PilFormula) -> PilFormula:
    # Conjunction is derived: a and b == not (not a or not b).
    return PNot(POr(PNot(left), PNot(right)))


def _balanced(items: Sequence, combine, empty):
    if not items:
        return empty
    if len(items) == 1:
        return items[0]
    mid = len(items) // 2
    return combine(_balanced(items[:mid], combine, empty), _balanced(items[mid:], combine, empty))


def big_or(items: Sequence[PilFormula]) -> PilFormula:
    return _balanced(list(items), POr, p_false())


def big_and(items: Sequence[PilFormula]) -> PilFormula:
    return _balanced(list(items), p_and, PTrue())


def eval_pil(
    formula: PilFormula,
    interaction: Interaction,
    universe: Optional[frozenset[PortInstance]] = None,
) -> bool:
    """Evaluate under the valuation induced by ``interaction``.

    When a universe is supplied, interactions mentioning ports outside it
    are rejected with LogicDomainError.
    """
    if universe is not None:
        unknown = frozenset(interaction) - universe
        if unknown:
            raise LogicDomainError(
                "interaction mentions ports outside the universe: "
                + ", ".join(str(p) for p in sorted(unknown))
            )
    return _eval(formula, frozenset(interaction))


def _eval(formula: PilFormula, present: frozenset[PortInstance]) -> bool:
    if isinstance(formula, PTrue):
        return True
    if isinstance(formula, PortVar):
        return formula.port in present
    if isinstance(formula, PNot):
        return not _eval(formula.operand, present)
    if isinstance(formula, POr):
        return _eval(formula.left, present) or _eval(formula.right, present)
    raise TypeError(f"not a PIL formula: {formula!r}")


def satisfying_interactions(
    formula: PilFormula,
    universe: Iterable[PortInstance],
    max_ports: int = DEFAULT_MAX_PORTS,
) -> frozenset[Interaction]:
    """All non-empty subsets of the universe satisfying the formula.

    Explicit enumeration over the subset lattice; the universe is capped
    (default 20 ports) because the result can be exponential.
    """
    ports = sorted(set(universe))
    if len(ports) > max_ports:
        raise CapacityError(
            f"universe of {len(ports)} ports exceeds the bound of {max_ports}; "
            "pass a larger max_ports to raise it"
        )
    stray = formula.port_instances() - set(ports)
    if stray:
        raise LogicDomainError(
            "formula mentions ports outside the universe: "
            + ", ".join(str(p) for p in sorted(stray))
        )
    result = set()
    for size in range(1, len(ports) + 1):
        for combo in itertools.combinations(ports, size):
            candidate = frozenset(combo)
            if _eval(formula, candidate):
                result.add(candidate)
    return frozenset(result)


# ---- first-order layer ----------------------------------------------------


class FoilFormula:
    """Base class; nodes are FTrue, FPort, FEmbed, FNot, FOr, Exists."""


@dataclass(frozen=True)
class FTrue(FoilFormula):
    pass


@dataclass(frozen=True)
class FPort(FoilFormula):
    """Port term ``var.port`` for a component variable bound by a quantifier."""

    var: str
    port: PortTypeRef


@dataclass(frozen=True)
class FEmbed(FoilFormula):
    """A propositional formula over concrete port instances."""

    pil: PilFormula


@dataclass(frozen=True)
class FNot(FoilFormula):
    operand: FoilFormula


@dataclass(frozen=True)
class FOr(FoilFormula):
    left: FoilFormula
    right: FoilFormula


@dataclass(frozen=True)
class VarConstraint:
    """Equality or inequality between two bound component variables."""

    left: str
    op: str  # "==" or "!="
    right: str

    def __post_init__(self):
        if self.op not in ("==", "!="):
            raise ValueError(f"unknown constraint operator {self.op!r}")


@dataclass(frozen=True)
class Exists(FoilFormula):
    var: str
    component_type: str
    predicate: tuple[VarConstraint, ...]
    body: FoilFormula


def f_false() -> FoilFormula:
    return FNot(FTrue())


def f_and(left: FoilFormula, right: FoilFormula) -> FoilFormula:
    return FNot(FOr(FNot(left), FNot(right)))


def f_implies(premise: FoilFormula, conclusion: FoilFormula) -> FoilFormula:
    return FOr(FNot(premise), conclusion)


def f_big_or(items: Sequence[FoilFormula]) -> FoilFormula:
    return _balanced(list(items), FOr, f_false())


def f_big_and(items: Sequence[FoilFormula]) -> FoilFormula:
    return _balanced(list(items), f_and, FTrue())


def forall(
    var: str,
    component_type: str,
    predicate: Sequence[VarConstraint],
    body: FoilFormula,
) -> FoilFormula:
    # Universal quantification is derived: forall c. F == not exists c. not F.
    return FNot(Exists(var, component_type, tuple(predicate), FNot(body)))


def exists(
    var: str,
    component_type: str,
    predicate: Sequence[VarConstraint],
    body: FoilFormula,
) -> FoilFormula:
    return Exists(var, component_type, tuple(predicate), body)


_Env = Mapping[str, tuple[str, int]]


def _predicate_holds(constraints: Iterable[VarConstraint], env: _Env) -> bool:
    for c in constraints:
        for name in (c.left, c.right):
            if name not in env:
                raise LogicDomainError(f"variable {name!r} is not bound by any quantifier")
        same = env[c.left] == env[c.right]
        if c.op == "==" and not same:
            return False
        if c.op == "!=" and same:
            return False
    return True


def instantiate_foil(formula: FoilFormula, instances: Mapping[str, int]) -> PilFormula:
    """Ground a closed formula against per-type instance counts.

    Each existential becomes the disjunction of its body over the instances
    satisfying the predicate; an empty disjunction is false.  Unknown types
    count as zero instances.
    """
    return _instantiate(formula, instances, {})


def _instantiate(formula: FoilFormula, instances: Mapping[str, int], env: dict) -> PilFormula:
    if isinstance(formula, FTrue):
        return PTrue()
    if isinstance(formula, FEmbed):
        return formula.pil
    if isinstance(formula, FPort):
        if formula.var not in env:
            raise LogicDomainError(f"variable {formula.var!r} is not bound by any quantifier")
        ctype, index = env[formula.var]
        if ctype != formula.port.component_type:
            raise LogicDomainError(
                f"variable {formula.var!r} has type {ctype}, not {formula.port.component_type}"
            )
        return PortVar(PortInstance(ctype, index, formula.port.port))
    if isinstance(formula, FNot):
        return PNot(_instantiate(formula.operand, instances, env))
    if isinstance(formula, FOr):
        return POr(
            _instantiate(formula.left, instances, env),
            _instantiate(formula.right, instances, env),
        )
    if isinstance(formula, Exists):
        count = instances.get(formula.component_type, 0)
        disjuncts = []
        for index in range(1, count + 1):
            extended = dict(env)
            extended[formula.var] = (formula.component_type, index)
            if not _predicate_holds(formula.predicate, extended):
                continue
            disjuncts.append(_instantiate(formula.body, instances, extended))
        return big_or(disjuncts)
    raise TypeError(f"not a FOIL formula: {formula!r}")


# ---- Require / Accept rules -------------------------------------------------


@dataclass(frozen=True)
class RequireOption:
    """One alternative on the right-hand side of a Require rule.

    ``ports`` is a multiset given as sorted (port type, count) pairs; the
    empty multiset is the dash option (no requirement).  ``exact`` selects
    counting semantics: exactly that many distinct instances (and no other
    instance of the same types), versus at least that many.
    """

    ports: tuple[tuple[PortTypeRef, int], ...] = ()
    exact: bool = True

    def __post_init__(self):
        merged: dict[PortTypeRef, int] = {}
        for ref, count in self.ports:
            if count < 1:
                raise ValueError("option counts must be positive")
            merged[ref] = merged.get(ref, 0) + count
        object.__setattr__(self, "ports", tuple(sorted(merged.items())))

    @classmethod
    def dash(cls) -> "RequireOption":
        return cls(ports=())

    @classmethod
    def counted(cls, counts: Mapping[PortTypeRef, int]) -> "RequireOption":
        return cls(ports=tuple(counts.items()), exact=True)

    @classmethod
    def trigger(cls, port: PortTypeRef) -> "RequireOption":
        return cls(ports=((port, 1),), exact=False)

    @property
    def is_dash(self) -> bool:
        return not self.ports


@dataclass(frozen=True)
class RequireRule:
    effect: PortTypeRef
    options: tuple[RequireOption, ...]


@dataclass(frozen=True)
class AcceptRule:
    """Accepted port types for an effect; an empty set is the dash rule."""

    effect: PortTypeRef
    accepted: frozenset[PortTypeRef] = frozenset()


class _VarNames:
    def __init__(self):
        self.counter = 0

    def fresh(self) -> str:
        name = f"_c{self.counter}"
        self.counter += 1
        return name


def _distinct_from(var: str, others: Iterable[str]) -> tuple[VarConstraint, ...]:
    return tuple(VarConstraint(var, "!=", other) for other in others)


def _expand_option(
    option: RequireOption, effect: PortTypeRef, names: _VarNames
) -> FoilFormula:
    """Expansion of one option, to sit under the participation premise.

    Exact option {q^k, ...}: there exist k distinct instances carrying q and
    every other instance of q stays out, conjoined across the option's port
    types; counts on the effect's own port type mean that many instances
    besides the effect itself.  Trigger (non-exact) options drop the
    exclusion part and only demand presence.
    """
    if option.is_dash:
        return FTrue()

    chosen_by_type: dict[PortTypeRef, list[str]] = {}
    positives: list[FoilFormula] = []
    quantifiers: list[tuple[str, str, tuple[VarConstraint, ...]]] = []

    for ref, count in option.ports:
        chosen: list[str] = []
        protected = [EFFECT_VAR] if ref.component_type == effect.component_type else []
        for _ in range(count):
            var = names.fresh()
            quantifiers.append(
                (var, ref.component_type, _distinct_from(var, protected + chosen))
            )
            chosen.append(var)
            positives.append(FPort(var, ref))
        chosen_by_type[ref] = chosen

    negatives: list[tuple[str, str, tuple[VarConstraint, ...], PortTypeRef]] = []
    if option.exact:
        for ref, chosen in chosen_by_type.items():
            protected = [EFFECT_VAR] if ref.component_type == effect.component_type else []
            other = names.fresh()
            negatives.append(
                (other, ref.component_type, _distinct_from(other, protected + chosen), ref)
            )

    exclusions: list[FoilFormula] = [
        forall(var, ctype, predicate, FNot(FPort(var, ref)))
        for var, ctype, predicate, ref in negatives
    ]
    body: FoilFormula = f_big_and(positives + exclusions)
    for var, ctype, predicate in reversed(quantifiers):
        body = exists(var, ctype, predicate, body)
    return body


EFFECT_VAR = "_c"


def expand_require(rule: RequireRule) -> FoilFormula:
    """Full formula of a Require rule.

    For every instance of the effect's type: if its effect port participates,
    some option's body must hold.  The participation premise scopes over the
    whole option disjunction (so an option that is unsatisfiable under the
    given instance counts merely forbids the effect, it does not poison
    unrelated interactions); with no options at all the disjunction is empty
    and the effect can never participate.
    """
    names = _VarNames()
    options = [_expand_option(option, rule.effect, names) for option in rule.options]
    body = f_implies(FPort(EFFECT_VAR, rule.effect), f_big_or(options))
    return forall(EFFECT_VAR, rule.effect.component_type, (), body)


def expand_accept(rule: AcceptRule, universe: Iterable[PortTypeRef]) -> FoilFormula:
    """Full formula of an Accept rule over the given port-type universe.

    Every port type outside the accepted set is excluded whenever the effect
    participates; for the effect's own port type the exclusion spares the
    effect instance itself.
    """
    names = _VarNames()
    conjuncts: list[FoilFormula] = []
    for ref in sorted(set(universe) - set(rule.accepted)):
        other = names.fresh()
        predicate = _distinct_from(other, [EFFECT_VAR]) if ref == rule.effect else ()
        conjuncts.append(forall(other, ref.component_type, predicate, FNot(FPort(other, ref))))
    body = f_implies(FPort(EFFECT_VAR, rule.effect), f_big_and(conjuncts))
    return forall(EFFECT_VAR, rule.effect.component_type, (), body)


def rule_port_types(
    requires: Iterable[RequireRule], accepts: Iterable[AcceptRule]
) -> frozenset[PortTypeRef]:
    refs: set[PortTypeRef] = set()
    for rule in requires:
        refs.add(rule.effect)
        for option in rule.options:
            refs.update(ref for ref, _ in option.ports)
    for rule in accepts:
        refs.add(rule.effect)
        refs.update(rule.accepted)
    return frozenset(refs)


def allowed_interactions_spec(
    requires: Sequence[RequireRule],
    accepts: Sequence[AcceptRule],
    instances: Mapping[str, int],
    universe: Optional[Iterable[PortInstance]] = None,
    max_ports: int = DEFAULT_MAX_PORTS,
) -> frozenset[Interaction]:
    """Interactions satisfying the conjunction of all expanded rules.

    The executable specification of :func:`allowed_interactions`: it grounds
    the FOIL expansion and enumerates the subset lattice, so the universe is
    capped at ``max_ports`` ports.  The universe defaults to every instance
    of every port type mentioned in some rule; rules were built from the
    connector motifs, so this matches the ports a diagram can ever involve
    in an interaction.
    """
    types = rule_port_types(requires, accepts)
    if universe is None:
        universe = [
            PortInstance(ref.component_type, index, ref.port)
            for ref in sorted(types)
            for index in range(1, instances.get(ref.component_type, 0) + 1)
        ]
    formulas = [expand_require(rule) for rule in requires]
    formulas.extend(expand_accept(rule, types) for rule in accepts)
    grounded = instantiate_foil(f_big_and(formulas), instances)
    return satisfying_interactions(grounded, universe, max_ports=max_ports)


# ---- orbit solver -----------------------------------------------------------

# A count constraint is a tuple of alternatives, one of which must hold; an
# alternative is a tuple of (counter, low, high) bounds on how many instances
# a counter counts.  No alternatives: never satisfiable.
_Constraint = tuple[tuple[tuple[int, int, float], ...], ...]


def _constraints(
    signature: tuple[PortTypeRef, ...],
    requires: Sequence[RequireRule],
    accepts: Sequence[AcceptRule],
    index: Mapping[PortTypeRef, int],
) -> list[_Constraint]:
    """What each instance carrying exactly ``signature`` demands of the
    counts, which include itself: ``T.p Require T.q`` on an instance carrying
    p and q needs two q carriers in all."""
    out: list[_Constraint] = []
    for rule in requires:
        if rule.effect in signature:
            alternatives = []
            for option in rule.options:
                need = [(index[q], k + (q in signature)) for q, k in option.ports]
                alternatives.append(tuple((i, n, n if option.exact else math.inf) for i, n in need))
            out.append(tuple(alternatives))
    for rule in accepts:
        if rule.effect in signature:
            out.append((tuple((i, 0, int(r == rule.effect))
                              for r, i in index.items() if r not in rule.accepted),))
    return out


def _dead(constraints: Iterable[_Constraint], counts: Sequence[int], sealed=()) -> bool:
    """Whether some constraint has every alternative over-counted, which more
    instances never repair, or short on a counter in ``sealed``, which none
    raises.  With every counter sealed: whether some constraint fails."""
    for constraint in constraints:
        for alternative in constraint:
            for i, low, high in alternative:
                if counts[i] > high or counts[i] < low and i in sealed:
                    break
            else:
                break  # this alternative may still hold
        else:
            return True
    return False


def _least(constraints: Iterable[_Constraint], counts: Sequence[int], only: Sequence[int]) -> int:
    """The least count a slot must add to each of its counters so that no
    constraint is dead short on a counter in ``only``, which no later slot
    raises.  An alternative lacks the most any of its counters in ``only``
    lacks; a constraint needs the least any of its alternatives lacks."""
    most = 0
    for constraint in constraints:
        need = None
        for alternative in constraint:
            lack = 0
            for i, low, _ in alternative:
                if low - counts[i] > lack and i in only:
                    lack = low - counts[i]
            if need is None or lack < need:
                need = lack
        if need and need > most:
            most = need
    return most


def orbit_search(
    ports: Sequence[PortTypeRef],
    instances: Mapping[str, int],
    constraints: Sequence[_Constraint] = (),
    local: Callable[[tuple[PortTypeRef, ...]], list[_Constraint]] = lambda signature: [],
) -> list[Orbit]:
    """The sorted orbits of the count vectors that meet every constraint.

    Counter k counts the instances that carry ``ports[k]``.  An instance
    carries a slot, a non-empty set of counters on one component type, and
    its signature is the set of their ports; slots with one signature (two
    counters on one port) add up in the orbit.  The counts meet
    ``constraints``, and each instance meets ``local(signature)``.  Vectors
    are enumerated depth first, a slot at a time, the slots of a type
    sharing its instances, and a branch is cut when a constraint is dead
    (:func:`_dead`): a counter is sealed once no later slot raises it.  The
    count of a type's last slot starts at the least value ``constraints``
    need from its counters, which no later slot raises, not at 1."""
    by_type: dict[str, list[int]] = {}
    for k, ref in enumerate(ports):
        by_type.setdefault(ref.component_type, []).append(k)
    slots = []  # (signature, its counters, its constraints, whether it is its type's last)
    sealed, done = [], set()  # per slot, the counters of the types before it
    for group in by_type.values():
        for size in range(1, len(group) + 1):
            for members in itertools.combinations(group, size):
                signature = tuple(sorted({ports[k] for k in members}))
                slots.append((signature, members, local(signature), size == len(group)))
                sealed.append(done)
        done = done | set(group)
    sealed.append(done)
    # whether the count of a type's last slot may start above 1 (:func:`_least`)
    bounded = any(low > 1 for constraint in constraints for alternative in constraint
                  for _, low, _ in alternative)
    left = {ctype: instances.get(ctype, 0) for ctype in by_type}
    counts, active, result = [0] * len(ports), list(constraints), set()
    orbit = {signature: 0 for signature, _, _, _ in slots}

    def visit(start: int) -> None:
        # Each call is one count vector; the slots it may still add follow
        # the last one added, so the recursion is as deep as it has slots.
        if any(counts) and not _dead(active, counts, sealed[-1]):
            result.add(tuple(sorted(part for part in orbit.items() if part[1])))
        for i in range(start, len(slots)):
            if _dead(active, counts, sealed[i]):
                return
            signature, members, cons, last = slots[i]
            ctype = signature[0].component_type
            active.extend(cons)
            k = 0
            if last and bounded:
                k = min(max(_least(constraints, counts, members) - 1, 0), left[ctype])
                left[ctype] -= k
                for q in members:
                    counts[q] += k
                orbit[signature] += k
            while left[ctype]:
                k += 1
                left[ctype] -= 1
                for q in members:
                    counts[q] += 1
                orbit[signature] += 1
                if _dead(active, counts):
                    break
                visit(i + 1)
            left[ctype] += k
            for q in members:
                counts[q] -= k
            orbit[signature] -= k
            del active[len(active) - len(cons):]

    visit(0)
    return sorted(result)


def allowed_orbits(
    requires: Sequence[RequireRule],
    accepts: Sequence[AcceptRule],
    instances: Mapping[str, int],
) -> list[Orbit]:
    """The orbits of the interactions satisfying every Require and Accept
    rule, in sorted order.  The rules compare instances only by (in)equality,
    so :func:`orbit_search` finds them, with a counter per rule port type and
    the rules as the constraints on each signature (:func:`_constraints`)."""
    refs = sorted(rule_port_types(requires, accepts))
    index = {ref: i for i, ref in enumerate(refs)}
    return orbit_search(refs, instances,
                        local=lambda signature: _constraints(signature, requires, accepts, index))


def allowed_interactions(
    requires: Sequence[RequireRule],
    accepts: Sequence[AcceptRule],
    instances: Mapping[str, int],
) -> frozenset[Interaction]:
    """Interactions satisfying every Require and Accept rule: the expansion
    of :func:`allowed_orbits`, equal to :func:`allowed_interactions_spec`."""
    return orbits_interactions(allowed_orbits(requires, accepts, instances), instances)
