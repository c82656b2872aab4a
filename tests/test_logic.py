"""Interaction logic: evaluation, instantiation, and the macro expansions.

The expansion tests pit the generated formulas against straight-line Python
predicates evaluated over every subset of a small universe, so the expected
sets never depend on the formula machinery they check.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bipkit import diagram as dg
from bipkit.errors import CapacityError, LogicDomainError
from bipkit.logic import (
    AcceptRule,
    FEmbed,
    FPort,
    FTrue,
    PNot,
    POr,
    PTrue,
    PortVar,
    RequireOption,
    RequireRule,
    VarConstraint,
    allowed_interactions,
    allowed_interactions_spec,
    big_and,
    big_or,
    eval_pil,
    exists,
    expand_accept,
    expand_require,
    f_and,
    forall,
    instantiate_foil,
    p_and,
    p_false,
    rule_port_types,
    satisfying_interactions,
)
from bipkit.model import PortTypeRef, orbit_interactions
from helpers import (
    in_encoder_envelope,
    iter_typed_motif_space,
    macro_interactions,
    pi,
    ports_only,
    random_encodable_diagram,
    single_motif_diagram,
    subsets,
)

P = pi("C", 1, "p")
Q1, Q2, Q3 = (pi("S", i, "q") for i in (1, 2, 3))
STAR_UNIVERSE = [P, Q1, Q2, Q3]


def star_formula():
    """pq1!q2!q3 | p!q1q2!q3 | p!q1!q2q3 as a raw propositional tree."""

    def monomial(positive, *negative):
        return big_and(
            [PortVar(P), PortVar(positive)] + [PNot(PortVar(n)) for n in negative]
        )

    return big_or(
        [monomial(Q1, Q2, Q3), monomial(Q2, Q1, Q3), monomial(Q3, Q1, Q2)]
    )


def test_eval_star_formula():
    assert eval_pil(star_formula(), frozenset({P, Q1}))
    assert not eval_pil(star_formula(), frozenset({P, Q1, Q2}))
    assert eval_pil(PTrue(), frozenset({P, Q1, Q2}))


def test_eval_induced_valuation():
    for subset in subsets(STAR_UNIVERSE, include_empty=True):
        for port in STAR_UNIVERSE:
            assert eval_pil(PortVar(port), subset) == (port in subset)


def test_eval_universe_check():
    with pytest.raises(LogicDomainError):
        eval_pil(PTrue(), frozenset({P}), universe=frozenset({Q1}))


def test_satisfying_star():
    got = satisfying_interactions(star_formula(), STAR_UNIVERSE)
    assert ports_only(got) == {"p1 q1", "p1 q2", "p1 q3"}


def test_satisfying_true_and_conjunction():
    x, y = pi("T", 1, "x"), pi("T", 1, "y")
    assert ports_only(satisfying_interactions(PTrue(), [x, y])) == {"x1", "y1", "x1 y1"}
    formula = p_and(PortVar(x), PNot(PortVar(y)))
    assert ports_only(satisfying_interactions(formula, [x, y])) == {"x1"}


def test_satisfying_capacity_bound():
    universe = [pi("T", i, "x") for i in range(1, 22)]
    with pytest.raises(CapacityError, match="max_ports"):
        satisfying_interactions(PTrue(), universe)


def test_satisfying_rejects_stray_ports():
    with pytest.raises(LogicDomainError):
        satisfying_interactions(PortVar(P), [Q1])


# ---- PIL properties ---------------------------------------------------------

PORTS6 = [pi("T", i, "x") for i in range(1, 7)]


@st.composite
def pil_formulas(draw, depth=3):
    if depth == 0 or draw(st.booleans()):
        return draw(
            st.one_of(st.just(PTrue()), st.sampled_from(PORTS6).map(PortVar))
        )
    if draw(st.booleans()):
        return PNot(draw(pil_formulas(depth=depth - 1)))
    return POr(draw(pil_formulas(depth=depth - 1)), draw(pil_formulas(depth=depth - 1)))


@given(pil_formulas(), pil_formulas())
@settings(max_examples=200, deadline=None)
def test_conjunction_intersects_satisfying_sets(f1, f2):
    lhs = satisfying_interactions(p_and(f1, f2), PORTS6)
    rhs = satisfying_interactions(f1, PORTS6) & satisfying_interactions(f2, PORTS6)
    assert lhs == rhs


# ---- FOIL instantiation ------------------------------------------------------


def star_foil():
    """One center port joined by exactly one satellite q."""
    Cp, Sq = PortTypeRef("C", "p"), PortTypeRef("S", "q")
    body = f_and(
        f_and(FPort("c", Cp), FPort("s", Sq)),
        forall("t", "S", (VarConstraint("t", "!=", "s"),), PNot_f(FPort("t", Sq))),
    )
    return exists("c", "C", (), exists("s", "S", (), body))


def PNot_f(f):
    from bipkit.logic import FNot

    return FNot(f)


def test_instantiate_star_foil():
    grounded = instantiate_foil(star_foil(), {"C": 1, "S": 2})
    got = satisfying_interactions(grounded, [P, Q1, Q2])
    assert ports_only(got) == {"p1 q1", "p1 q2"}


def test_exists_with_zero_instances_is_false():
    formula = exists("c", "T", (), FTrue())
    assert instantiate_foil(formula, {"T": 0}) == p_false()
    assert instantiate_foil(formula, {}) == p_false()


def test_exists_with_unsatisfiable_predicate_is_false():
    formula = exists("c", "T", (VarConstraint("c", "!=", "c"),), FTrue())
    grounded = instantiate_foil(formula, {"T": 3})
    assert not eval_pil(grounded, frozenset({pi("T", 1, "x")}))


def test_unbound_variable_is_a_domain_error():
    with pytest.raises(LogicDomainError):
        instantiate_foil(FPort("c", PortTypeRef("T", "x")), {"T": 1})


def test_variable_type_mismatch_is_a_domain_error():
    formula = exists("c", "T", (), FPort("c", PortTypeRef("U", "x")))
    with pytest.raises(LogicDomainError):
        instantiate_foil(formula, {"T": 1, "U": 1})


def test_embedded_pil_passes_through():
    formula = FEmbed(PortVar(P))
    assert instantiate_foil(formula, {}) == PortVar(P)


def test_forall_equals_explicit_conjunction():
    """The derived universal matches a hand-built conjunction over instances."""
    Tx = PortTypeRef("T", "x")
    for count in range(0, 4):
        derived = instantiate_foil(forall("c", "T", (), FPort("c", Tx)), {"T": count})
        explicit = big_and([PortVar(pi("T", i, "x")) for i in range(1, count + 1)])
        universe = [pi("T", i, "x") for i in range(1, 4)]
        for subset in subsets(universe, include_empty=True):
            assert eval_pil(derived, subset) == eval_pil(explicit, subset)


# ---- Require expansion -------------------------------------------------------

T1p = PortTypeRef("T1", "p")
T2q = PortTypeRef("T2", "q")
T2r = PortTypeRef("T2", "r")


def eval_rule(formula, instances, interaction):
    return eval_pil(instantiate_foil(formula, instances), frozenset(interaction))


def test_require_two_q_or_one_r():
    """'T1.p Require T2.q T2.q ; T2.r' against a brute-force predicate."""
    rule = RequireRule(
        effect=T1p,
        options=(
            RequireOption.counted({T2q: 2}),
            RequireOption.counted({T2r: 1}),
        ),
    )
    formula = expand_require(rule)
    instances = {"T1": 1, "T2": 3}
    p = pi("T1", 1, "p")
    qs = [pi("T2", i, "q") for i in (1, 2, 3)]
    rs = [pi("T2", i, "r") for i in (1, 2, 3)]

    def oracle(interaction) -> bool:
        if p not in interaction:
            return True
        n_q = sum(1 for x in qs if x in interaction)
        n_r = sum(1 for x in rs if x in interaction)
        return n_q == 2 or n_r == 1

    universe = [p] + qs + rs
    for interaction in subsets(universe, include_empty=True):
        assert eval_rule(formula, instances, interaction) == oracle(interaction), sorted(
            map(str, interaction)
        )

    # the spec'd pair of examples
    assert eval_rule(formula, instances, {p, qs[0], qs[1]})
    assert not eval_rule(formula, instances, {p, qs[0]})


def test_require_dash():
    rule = RequireRule(effect=T1p, options=(RequireOption.dash(),))
    formula = expand_require(rule)
    p = pi("T1", 1, "p")
    for interaction in subsets([p, pi("T2", 1, "q")], include_empty=True):
        assert eval_rule(formula, {"T1": 1, "T2": 1}, interaction)


def test_require_exactly_one_q():
    """Star-style 'C.p Require S.q' with two satellites: one q, never two."""
    rule = RequireRule(
        effect=PortTypeRef("C", "p"), options=(RequireOption.counted({PortTypeRef("S", "q"): 1}),)
    )
    formula = expand_require(rule)
    instances = {"C": 1, "S": 2}

    def oracle(interaction) -> bool:
        if P not in interaction:
            return True
        return sum(1 for q in (Q1, Q2) if q in interaction) == 1

    for interaction in subsets([P, Q1, Q2], include_empty=True):
        assert eval_rule(formula, instances, interaction) == oracle(interaction)
    assert eval_rule(formula, instances, {P, Q1})
    assert not eval_rule(formula, instances, {P, Q1, Q2})


def test_trigger_option_is_at_least_one():
    rule = RequireRule(effect=T1p, options=(RequireOption.trigger(T2q),))
    formula = expand_require(rule)
    instances = {"T1": 1, "T2": 2}
    p = pi("T1", 1, "p")
    q1, q2 = pi("T2", 1, "q"), pi("T2", 2, "q")
    assert not eval_rule(formula, instances, {p})
    assert eval_rule(formula, instances, {p, q1})
    assert eval_rule(formula, instances, {p, q1, q2})  # unlike the exact option
    assert eval_rule(formula, instances, {q1})


def test_effect_self_counts():
    """A count on the effect's own type means that many instances besides the
    effect: here exactly two p's in total."""
    rule = RequireRule(effect=T1p, options=(RequireOption.counted({T1p: 1}),))
    formula = expand_require(rule)
    instances = {"T1": 3}
    p1, p2, p3 = (pi("T1", i, "p") for i in (1, 2, 3))

    def oracle(interaction) -> bool:
        present = sum(1 for x in (p1, p2, p3) if x in interaction)
        if present == 0:
            return True
        return present == 2

    for interaction in subsets([p1, p2, p3], include_empty=True):
        assert eval_rule(formula, instances, interaction) == oracle(interaction)


def test_unsatisfiable_option_only_forbids_the_effect():
    # requiring two q's with a single q instance: p can never fire, but
    # interactions without p are untouched
    rule = RequireRule(effect=T1p, options=(RequireOption.counted({T2q: 2}),))
    formula = expand_require(rule)
    instances = {"T1": 1, "T2": 1}
    p, q = pi("T1", 1, "p"), pi("T2", 1, "q")
    assert not eval_rule(formula, instances, {p, q})
    assert not eval_rule(formula, instances, {p})
    assert eval_rule(formula, instances, {q})


def test_exactly_k_counting():
    """'p Require q^k' admits C(n, k) interactions containing p when accepts
    allow only q (n <= 5, k <= 3, exhaustive)."""
    for n in range(1, 6):
        for k in range(1, 4):
            requires = [RequireRule(effect=T1p, options=(RequireOption.counted({T2q: k}),))]
            accepts = [AcceptRule(effect=T1p, accepted=frozenset({T2q}))]
            allowed = allowed_interactions(requires, accepts, {"T1": 1, "T2": n})
            p = pi("T1", 1, "p")
            with_p = [a for a in allowed if p in a]
            assert len(with_p) == math.comb(n, k), (n, k)
            for a in with_p:
                assert len(a) == k + 1


# ---- Accept expansion --------------------------------------------------------


def test_accept_excludes_unlisted_types():
    rule = AcceptRule(effect=T1p, accepted=frozenset({T2q}))
    formula = expand_accept(rule, [T1p, T2q, T2r])
    instances = {"T1": 1, "T2": 1}
    p, q, r = pi("T1", 1, "p"), pi("T2", 1, "q"), pi("T2", 1, "r")
    assert not eval_rule(formula, instances, {p, r})
    assert eval_rule(formula, instances, {p, q})
    assert eval_rule(formula, instances, {q, r})  # this rule only guards p


def test_dash_accept_leaves_the_port_alone():
    require = RequireRule(effect=T1p, options=(RequireOption.dash(),))
    accept = AcceptRule(effect=T1p, accepted=frozenset())
    allowed = allowed_interactions([require], [accept], {"T1": 2})
    assert ports_only(allowed) == {"p1", "p2"}


def test_accept_of_entire_universe_is_true():
    rule = AcceptRule(effect=T1p, accepted=frozenset({T1p, T2q, T2r}))
    formula = expand_accept(rule, [T1p, T2q, T2r])
    instances = {"T1": 2, "T2": 2}
    universe = [pi("T1", i, "p") for i in (1, 2)] + [
        pi("T2", i, port) for i in (1, 2) for port in ("q", "r")
    ]
    for interaction in subsets(universe, include_empty=True):
        assert eval_rule(formula, instances, interaction)


def test_accept_spares_the_effect_instance_itself():
    # p not accepted for p: other p instances are excluded, the effect stays
    rule = AcceptRule(effect=T1p, accepted=frozenset())
    formula = expand_accept(rule, [T1p])
    instances = {"T1": 2}
    p1, p2 = pi("T1", 1, "p"), pi("T1", 2, "p")
    assert eval_rule(formula, instances, {p1})
    assert not eval_rule(formula, instances, {p1, p2})


# ---- allowed_interactions ----------------------------------------------------


def star_rules():
    Cp, Sq = PortTypeRef("C", "p"), PortTypeRef("S", "q")
    requires = [
        RequireRule(effect=Sq, options=(RequireOption.counted({Cp: 1}),)),
        RequireRule(effect=Cp, options=(RequireOption.counted({Sq: 1}),)),
    ]
    accepts = [
        AcceptRule(effect=Sq, accepted=frozenset({Cp})),
        AcceptRule(effect=Cp, accepted=frozenset({Sq})),
    ]
    return requires, accepts


def test_star_macro_semantics():
    requires, accepts = star_rules()
    allowed = allowed_interactions(requires, accepts, {"C": 1, "S": 3})
    assert ports_only(allowed) == {"p1 q1", "p1 q2", "p1 q3"}


def test_fanin_macro_semantics():
    """q trigger with multiplicity 2, p synchron: the six-interaction set."""
    Tp, Tq = PortTypeRef("T1", "p"), PortTypeRef("T2", "q")
    requires = [
        RequireRule(effect=Tq, options=(RequireOption.dash(),)),
        RequireRule(effect=Tp, options=(RequireOption.trigger(Tq),)),
    ]
    accepts = [
        AcceptRule(effect=Tq, accepted=frozenset({Tp, Tq})),
        AcceptRule(effect=Tp, accepted=frozenset({Tq})),
    ]
    allowed = allowed_interactions(requires, accepts, {"T1": 1, "T2": 2})
    assert ports_only(allowed) == {"q1", "q2", "q1 q2", "p1 q1", "p1 q2", "p1 q1 q2"}


def test_vacuous_rules_allow_every_nonempty_subset():
    x = pi("T", 1, "x")
    allowed = allowed_interactions_spec([], [], {"T": 1}, universe=[x])
    assert allowed == frozenset({frozenset({x})})


def test_rule_port_types_collects_all_mentions():
    requires, accepts = star_rules()
    refs = rule_port_types(requires, accepts)
    assert refs == {PortTypeRef("C", "p"), PortTypeRef("S", "q")}


def test_require_option_normalizes_duplicate_refs():
    option = RequireOption(ports=((T2q, 1), (T2q, 1)))
    assert option.ports == ((T2q, 2),)


# ---- orbit solver against the FOIL specification -------------------------------

T1q = PortTypeRef("T1", "q")
RULE_PORTS = [T1p, T1q, T2q, T2r]


@st.composite
def require_options(draw):
    kind = draw(st.sampled_from(["dash", "exact", "trigger"]))
    if kind == "dash":
        return RequireOption.dash()
    ports = draw(st.lists(
        st.tuples(st.sampled_from(RULE_PORTS), st.integers(1, 2)), min_size=1, max_size=2
    ))
    return RequireOption(ports=tuple(ports), exact=kind == "exact")


@st.composite
def rule_sets(draw):
    """Arbitrary Require/Accept rules over two types of two ports each: no
    options, dash, exact and trigger options, counts on the effect's own
    type, dash and partial accepts, repeated rules for one effect."""
    requires = draw(st.lists(st.builds(
        RequireRule,
        effect=st.sampled_from(RULE_PORTS),
        options=st.lists(require_options(), max_size=2).map(tuple),
    ), max_size=4))
    accepts = draw(st.lists(st.builds(
        AcceptRule,
        effect=st.sampled_from(RULE_PORTS),
        accepted=st.frozensets(st.sampled_from(RULE_PORTS)),
    ), max_size=3))
    instances = {"T1": draw(st.integers(0, 3)), "T2": draw(st.integers(0, 3))}
    return requires, accepts, instances


@given(rule_sets())
@settings(max_examples=300, deadline=None)
def test_orbit_solver_equals_foil_spec_on_arbitrary_rules(rules):
    requires, accepts, instances = rules
    assert allowed_interactions(requires, accepts, instances) == allowed_interactions_spec(
        requires, accepts, instances
    )


@pytest.mark.parametrize("requires, accepts, instances", [
    # T1.p Require T1.q T1.q: two q's besides the effect's own
    ([RequireRule(T1p, (RequireOption.counted({T1q: 2}),))], [], {"T1": 3}),
    ([RequireRule(T1p, (RequireOption.counted({T1p: 1, T2q: 2}),)),
      RequireRule(T2q, (RequireOption.trigger(T1p), RequireOption.counted({T2r: 1})))],
     [AcceptRule(T1p, frozenset({T2q})), AcceptRule(T2q, frozenset({T1p, T2q}))],
     {"T1": 3, "T2": 3}),
    ([RequireRule(T1p, ())], [AcceptRule(T2q, frozenset())], {"T1": 2, "T2": 2}),
    ([RequireRule(T1p, (RequireOption.counted({T2q: 1}),))],
     [AcceptRule(T1p, frozenset({T2q}))], {"T1": 2, "T2": 0}),
    # ten ports on one type: 1,023 signatures, every subset allowed
    ([RequireRule(PortTypeRef("T1", f"p{i}"), (RequireOption.dash(),)) for i in range(10)],
     [], {"T1": 1}),
])
def test_orbit_solver_equals_foil_spec_on_named_cases(requires, accepts, instances):
    assert allowed_interactions(requires, accepts, instances) == allowed_interactions_spec(
        requires, accepts, instances
    )


def test_orbit_solver_equals_foil_spec_on_encoded_diagrams(
    star, routes, mutex, broadcast_pair, complete_pairing
):
    """The criterion-5 bundled list and random draws, and the criterion-7
    envelope shapes."""
    diagrams = [
        (star, {"n": 3}), (broadcast_pair, {"n1": 1, "n2": 2}), (complete_pairing, {"n": 2}),
        (routes, {"n": 2}), (routes, {"n": 3}), (mutex, {"n": 2}), (mutex, {"n": 3}),
    ]
    rng = random.Random(0xB1BC0DE)
    while len(diagrams) < 107:
        d = random_encodable_diagram(rng)
        if d is not None:
            diagrams.append((d, {}))
    for specs, typings in iter_typed_motif_space(3):
        d = single_motif_diagram(specs, typings)
        if in_encoder_envelope(specs, typings) and dg.check_encodable(d, {}).overall:
            diagrams.append((d, {}))
    assert len(diagrams) > 207
    for d, binding in diagrams:
        assert macro_interactions(d, binding) == macro_interactions(
            d, binding, allowed_interactions_spec
        ), (d, binding)


@pytest.mark.parametrize("model, n", [("routes", 7), ("routes", 200), ("mutex", 200)])
def test_orbit_solver_beyond_the_subset_cap(request, model, n):
    d = request.getfixturevalue(model)
    assert macro_interactions(d, {"n": n}) == dg.diagram_interactions(d, {"n": n})


def test_orbit_expansion_yields_each_interaction_once():
    """Repeated signatures over six instances: 6! / (2! 2! 1! 1!) placements
    of T1, times C(6, 3) trigger fan-ins of T2 q's."""
    orbit = [((T1p,), 2), ((T1q,), 2), ((T1p, T1q), 1), ((T2q,), 3)]
    got = orbit_interactions(orbit, {"T1": 6, "T2": 6})
    assert len(got) == len(set(got)) == math.factorial(6) // 4 * math.comb(6, 3)
    for interaction in got:
        assert len(interaction) == 2 + 2 + 2 + 3
