"""Configurations: matching factors, enumeration oracle, uniqueness conditions."""

from __future__ import annotations

import itertools
import json
import math
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bipkit import diagram as dg
from bipkit import logic
from bipkit import encode_macros, load_bundled_model
from bipkit.connector import interaction_set, leaf
from bipkit.engine import EngineConfig, init_state, run
from bipkit.errors import CapacityError, EncodabilityError, LogicDomainError
from bipkit.logic import allowed_orbits
from bipkit.model import (
    ArchitectureDiagram,
    CardExpr,
    Configuration,
    Connector,
    ConnectorMotif,
    MotifEnd,
    PortTypeRef,
    SYNCHRON,
    TRIGGER,
)
from helpers import (
    iter_sweep_points,
    iter_typed_motif_space,
    loop_type,
    pi,
    ports_only,
    random_encodable_diagram,
    single_motif_diagram,
    sweep_spec,
)


def pairing(degree: int):
    """Two types, two instances each, one-to-one ends with the given degree."""
    return single_motif_diagram([(2, 1, degree), (2, 1, degree)], [SYNCHRON, SYNCHRON])


def connector_names(configuration) -> set[str]:
    return {str(c) for c in configuration}


def end_checks(d):
    return dg.check_encodable(d, {}).ends


def test_matching_factor_goldens():
    assert [e.factor for e in end_checks(pairing(degree=1))] == [2, 2]
    assert [e.factor for e in end_checks(pairing(degree=2))] == [4, 4]

    # multiplicity n with degree 1 gives factor exactly 1
    (end,) = end_checks(single_motif_diagram([(3, 3, 1)], [SYNCHRON]))
    assert end.factor == 1 and end.factor_ok

    # factors are exact rationals, never floats, and are compared in integers
    (end,) = end_checks(single_motif_diagram([(3, 2, 1)], [SYNCHRON]))
    assert end.factor == Fraction(3, 2) and end.connectors == 3 and not end.factor_ok


def test_max_connectors():
    # C(2,1) * C(2,1), on every end of the motif
    assert [e.connectors for e in end_checks(pairing(degree=1))] == [4, 4]

    (end,) = end_checks(single_motif_diagram([(3, 3, 1)], [SYNCHRON]))
    assert end.connectors == 1

    (end,) = end_checks(single_motif_diagram([(2, 3, 1)], [SYNCHRON]))
    assert end.connectors == 0 and not end.multiplicity_ok


def test_check_encodable_goldens(ambiguous_pairing, complete_pairing, broadcast_pair):
    report = dg.check_encodable(ambiguous_pairing, {"n": 2})
    assert not report.overall
    assert [str(e.factor) for e in report.ends] == ["2", "2"]
    assert all(e.connectors == 4 and not e.factor_ok for e in report.ends)

    report = dg.check_encodable(complete_pairing, {"n": 2})
    assert report.overall
    assert all(e.factor == 4 for e in report.ends)

    # the two-against-one fan-in: factor 1 = C(1,1) * C(2,2)
    report = dg.check_encodable(broadcast_pair, {"n1": 1, "n2": 2})
    assert report.overall
    assert all(e.factor == 1 and e.connectors == 1 for e in report.ends)


def test_enumerate_ambiguous_pairing(ambiguous_pairing):
    result = dg.enumerate_configurations(
        ambiguous_pairing, ambiguous_pairing.motifs[0], {"n": 2}
    )
    assert not result.truncated
    got = [connector_names(c) for c in result.configurations]
    assert got == [
        {"{T1.p#1 T2.q#1}", "{T1.p#2 T2.q#2}"},
        {"{T1.p#1 T2.q#2}", "{T1.p#2 T2.q#1}"},
    ]


def test_enumerate_complete_pairing(complete_pairing):
    result = dg.enumerate_configurations(
        complete_pairing, complete_pairing.motifs[0], {"n": 2}
    )
    got = [connector_names(c) for c in result.configurations]
    assert got == [
        {"{T1.p#1 T2.q#1}", "{T1.p#1 T2.q#2}", "{T1.p#2 T2.q#1}", "{T1.p#2 T2.q#2}"}
    ]


def test_enumerate_mismatched_factors_is_empty():
    d = single_motif_diagram([(2, 1, 1), (3, 1, 1)], [SYNCHRON, SYNCHRON])
    result = dg.enumerate_configurations(d, d.motifs[0], {})
    assert result.configurations == ()


def test_enumerate_respects_limit(ambiguous_pairing):
    result = dg.enumerate_configurations(
        ambiguous_pairing, ambiguous_pairing.motifs[0], {"n": 2}, limit=1
    )
    assert len(result.configurations) == 1
    assert result.truncated


def test_enumerate_capacity():
    d = pairing(degree=1)
    with pytest.raises(CapacityError):
        dg.enumerate_configurations(d, d.motifs[0], {}, max_nodes=3)


def test_a_limit_below_one_is_refused(ambiguous_pairing):
    motif = ambiguous_pairing.motifs[0]
    with pytest.raises(ValueError, match=r"^limit must be at least 1$"):
        dg.enumerate_configurations(ambiguous_pairing, motif, {"n": 2}, limit=0)


def test_a_negative_node_bound_is_refused(ambiguous_pairing):
    motif = ambiguous_pairing.motifs[0]
    with pytest.raises(ValueError, match=r"^max_nodes must be at least 0$"):
        dg.enumerate_configurations(ambiguous_pairing, motif, {"n": 2}, max_nodes=-1)
    with pytest.raises(ValueError, match=r"^max_nodes must be at least 0$"):
        dg.proposition_sweep(2, max_nodes=-1)
    with pytest.raises(CapacityError):  # a bound of 0 lets no node through
        dg.enumerate_configurations(ambiguous_pairing, motif, {"n": 2}, max_nodes=0)


@pytest.mark.parametrize(
    "model, n, limit, count, truncated, nodes",
    [
        ("ambiguous_pairing", 3, None, 6, False, 49),
        ("ambiguous_pairing", 4, None, 24, False, 253),
        ("ambiguous_pairing", 4, 2, 2, True, 23),
        ("complete_pairing", 3, None, 6, False, 67),
        ("complete_pairing", 4, None, 90, False, 1073),
        ("complete_pairing", 4, 1, 1, True, 17),
    ],
)
def test_enumerate_search_size(request, model, n, limit, count, truncated, nodes):
    """``nodes`` is the smallest max_nodes that lets the search finish, as
    measured on the recursive search; the loop form visits the same nodes."""
    d = request.getfixturevalue(model)
    motif, binding = d.motifs[0], {"n": n}
    result = dg.enumerate_configurations(d, motif, binding, limit=limit, max_nodes=nodes)
    assert (len(result), result.truncated) == (count, truncated)
    with pytest.raises(CapacityError):
        dg.enumerate_configurations(d, motif, binding, limit=limit, max_nodes=nodes - 1)


# The smallest max_nodes that lets each search finish, recorded on the
# dict-keyed search that the numbered one replaced: every sweep point at
# bound 3 with limit 2, as proposition_sweep searches it, and the larger
# searches of two bundled models.  The mutex cases at n=1000 were recorded
# on the recursive search under sys.setrecursionlimit(20000), before the
# loop form replaced it.
SEARCH_NODES = json.loads((Path(__file__).parent / "data" / "search_nodes.json").read_text())


def assert_search_nodes(d, binding, limit, nodes, label):
    motif = d.motifs[0]
    dg.enumerate_configurations(d, motif, binding, limit=limit, max_nodes=nodes)
    if nodes:  # a search that never starts visits no node and cannot run out
        with pytest.raises(CapacityError):
            dg.enumerate_configurations(d, motif, binding, limit=limit, max_nodes=nodes - 1)
            pytest.fail(f"{label}: finished below {nodes} nodes")


def test_search_nodes_on_the_sweep():
    points = dict(iter_sweep_points(SEARCH_NODES["sweep_bound"]))
    assert points.keys() == SEARCH_NODES["sweep"].keys()
    for label, nodes in SEARCH_NODES["sweep"].items():
        assert_search_nodes(points[label], {}, SEARCH_NODES["sweep_limit"], nodes, label)


@pytest.mark.parametrize(
    "case", SEARCH_NODES["models"], ids=lambda c: f"{c['model']}-n{c['n']}-limit{c['limit']}"
)
def test_search_nodes_on_bundled_models(case):
    d = load_bundled_model(case["model"] + ".bip")
    assert_search_nodes(d, {"n": case["n"]}, case["limit"], case["nodes"], str(case))


def reference_pool(d, motif, binding):
    """The pool's specification: one m-subset of instances per end, every
    combination, sorted by the connectors' sorted ends."""
    per_end = []
    for end in motif.ends:
        n = dg.instance_counts(d, binding)[end.port.component_type]
        ends = [(pi(end.port.component_type, i, end.port.port), end.typing) for i in range(1, n + 1)]
        per_end.append(itertools.combinations(ends, end.multiplicity.evaluate(binding)))
    connectors = [Connector(frozenset().union(*parts)) for parts in itertools.product(*per_end)]
    return sorted(connectors, key=lambda c: sorted(c.ends))


def two_ports_on_one_type(n, m1, m2):
    a = loop_type("A", ["p", "r"], CardExpr.lit(n))
    b = loop_type("B", ["q"], CardExpr.lit(2))
    ends = (MotifEnd(PortTypeRef("A", "p"), CardExpr.lit(m1), CardExpr.lit(1)),
            MotifEnd(PortTypeRef("A", "r"), CardExpr.lit(m2), CardExpr.lit(1), TRIGGER),
            MotifEnd(PortTypeRef("B", "q"), CardExpr.lit(1), CardExpr.lit(1)))
    return ArchitectureDiagram("two", (a, b), (ConnectorMotif("m", ends),))


def test_possible_connectors_come_in_sorted_order():
    diagrams = [d for _, d in iter_sweep_points(3)]
    diagrams += [two_ports_on_one_type(n, m1, m2)
                 for n, m1, m2 in itertools.product(range(1, 5), repeat=3)]
    # one connector of 1501 instances: the pool generator does not recurse
    diagrams.append(single_motif_diagram([(1500, 1500, 1), (1, 1, 1)]))
    for d in diagrams:
        motif = d.motifs[0]
        assert dg.possible_connectors(d, motif, {}) == reference_pool(d, motif, {}), d


def reference_configurations(d, motif, binding, limit):
    """The search's specification: every ``size``-combination of the pool, in
    combination order, that gives each instance exactly its degree, cut at
    ``limit`` with ``truncated`` set.  ``size`` is the first end's matching
    factor; a configuration has at least one connector."""
    size = dg.check_encodable(d, binding).ends[0].factor
    if size.denominator != 1 or size < 1:
        return (), False
    degrees = Counter()
    for end in motif.ends:
        for i in range(1, dg.instance_counts(d, binding)[end.port.component_type] + 1):
            degrees[pi(end.port.component_type, i, end.port.port)] = end.degree.evaluate(binding)
    found = []
    for combo in itertools.combinations(dg.possible_connectors(d, motif, binding), int(size)):
        if Counter(p for c in combo for p in c.port_instances) == degrees:
            found.append(frozenset(combo))
            if len(found) == limit:
                return tuple(found), True
    return tuple(found), False


def assert_search_matches_reference(d, binding, label):
    motif = d.motifs[0]
    for limit in (None, 1, 2):
        result = dg.enumerate_configurations(d, motif, binding, limit=limit)
        expected = reference_configurations(d, motif, binding, limit)
        assert (result.configurations, result.truncated) == expected, (label, limit)


def test_search_matches_the_reference_on_the_sweep():
    for label, d in iter_sweep_points(3):
        assert_search_matches_reference(d, {}, label)


@pytest.mark.parametrize(
    "model, n",
    [("ambiguous_pairing", n) for n in range(1, 5)]
    + [("complete_pairing", n) for n in range(1, 5)]
    + [("star", n) for n in range(1, 4)],
)
def test_search_matches_the_reference_on_bundled_models(request, model, n):
    assert_search_matches_reference(request.getfixturevalue(model), {"n": n}, model)


def test_unique_configuration_closed_form(complete_pairing, star):
    unique = dg.unique_configuration(complete_pairing, complete_pairing.motifs[0], {"n": 2})
    enumerated = dg.enumerate_configurations(
        complete_pairing, complete_pairing.motifs[0], {"n": 2}
    )
    assert (unique,) == enumerated.configurations

    # the fanned-out star motif with three satellites
    unique = dg.unique_configuration(star, star.motifs[0], {"n": 3})
    assert connector_names(unique) == {
        "{C.p#1 S.q#1}",
        "{C.p#1 S.q#2}",
        "{C.p#1 S.q#3}",
    }
    enumerated = dg.enumerate_configurations(star, star.motifs[0], {"n": 3})
    assert (unique,) == enumerated.configurations


def test_unique_configuration_single_connector(broadcast_pair):
    unique = dg.unique_configuration(
        broadcast_pair, broadcast_pair.motifs[0], {"n1": 1, "n2": 2}
    )
    assert connector_names(unique) == {"{T1.p#1 T2.q#1^ T2.q#2^}"}


def test_unique_configuration_requires_the_conditions(ambiguous_pairing):
    with pytest.raises(EncodabilityError) as info:
        dg.unique_configuration(ambiguous_pairing, ambiguous_pairing.motifs[0], {"n": 2})
    assert str(info.value) == (
        "motif pair has no unique configuration: T1.p: factor 2 vs 4 possible connectors; "
        "T2.q: factor 2 vs 4 possible connectors"
    )


def test_conforms(complete_pairing, ambiguous_pairing, broadcast_pair):
    full = dg.unique_configuration(complete_pairing, complete_pairing.motifs[0], {"n": 2})
    assert dg.conforms(Configuration((("pair", full),)), complete_pairing, {"n": 2})

    # a single perfect matching leaves every instance one connector short of
    # the required degree 2
    matching = dg.enumerate_configurations(
        ambiguous_pairing, ambiguous_pairing.motifs[0], {"n": 2}
    ).configurations[0]
    assert not dg.conforms(Configuration((("pair", matching),)), complete_pairing, {"n": 2})

    # the fan-in connector of the broadcast pair diagram
    connector = Connector.of(
        (pi("T1", 1, "p"), SYNCHRON), (pi("T2", 1, "q"), TRIGGER), (pi("T2", 2, "q"), TRIGGER)
    )
    assert dg.conforms(
        Configuration((("fanin", frozenset({connector})),)),
        broadcast_pair,
        {"n1": 1, "n2": 2},
    )


def test_conforms_rejects_instances_that_do_not_exist(complete_pairing):
    """A connector on an instance numbered outside 1..n is no connector of
    the diagram, even where the real instances keep their degrees."""
    full = dg.unique_configuration(complete_pairing, complete_pairing.motifs[0], {"n": 2})
    for i in (3, 0):
        ghost = Connector.of((pi("T1", i, "p"), SYNCHRON), (pi("T2", i, "q"), SYNCHRON))
        config = Configuration((("pair", full | {ghost}),))
        assert not dg.conforms(config, complete_pairing, {"n": 2}), i


def test_conforms_rejects_unknown_groups(complete_pairing):
    full = dg.unique_configuration(complete_pairing, complete_pairing.motifs[0], {"n": 2})
    config = Configuration((("pair", full), ("ghost", full)))
    assert not dg.conforms(config, complete_pairing, {"n": 2})


def test_diagram_interactions_goldens(broadcast_pair, complete_pairing, star):
    got = dg.diagram_interactions(broadcast_pair, {"n1": 1, "n2": 2})
    assert ports_only(got) == {"q1", "q2", "q1 q2", "p1 q1", "p1 q2", "p1 q1 q2"}

    got = dg.diagram_interactions(complete_pairing, {"n": 2})
    assert ports_only(got) == {"p1 q1", "p1 q2", "p2 q1", "p2 q2"}

    got = dg.diagram_interactions(star, {"n": 3})
    assert ports_only(got) == {"p1 q1", "p1 q2", "p1 q3"}


def test_diagram_interactions_requires_encodability(ambiguous_pairing):
    message = "diagram does not define a unique architecture (pair/T1.p, pair/T2.q)"
    for build in (dg.diagram_orbits, dg.diagram_interactions):
        with pytest.raises(EncodabilityError) as info:
            build(ambiguous_pairing, {"n": 2})
        assert str(info.value) == message


def connector_tree_interactions(d, binding):
    """The specification of diagram_interactions: the union over the unique
    configuration's connectors of the tree with one leaf per end."""
    result = set()
    for motif in d.motifs:
        for connector in dg.unique_configuration(d, motif, binding):
            result |= interaction_set([leaf(p, typing) for p, typing in sorted(connector.ends)])
    return frozenset(result)


@pytest.mark.parametrize(
    "name",
    [
        "ambiguous_pairing.bip",
        "broadcast_pair.bip",
        "complete_pairing.bip",
        "mutex.bip",
        "star.bip",
        "switchable_routes.bip",
    ],
)
def test_diagram_interactions_match_connector_trees_on_bundled_models(name):
    d = load_bundled_model(name)
    params = sorted(d.parameters)
    checked = 0
    for values in itertools.product((1, 2, 3, 4, 5, 20), repeat=len(params)):
        binding = dict(zip(params, values))
        if not dg.check_encodable(d, binding).overall:
            continue
        got = dg.diagram_interactions(d, binding)
        assert got == connector_tree_interactions(d, binding), binding
        checked += 1
    assert checked


def test_diagram_interactions_match_connector_trees_on_random_diagrams():
    rng = random.Random(0xC0FFEE)
    accepted = with_trigger = 0
    while accepted < 100:
        d = random_encodable_diagram(rng)
        if d is None:
            continue
        assert dg.diagram_interactions(d, {}) == connector_tree_interactions(d, {}), d
        accepted += 1
        with_trigger += d.motifs[0].has_trigger
    assert with_trigger


def test_diagram_interactions_match_connector_trees_on_every_small_shape():
    """Every encodable shape with n, m, d up to 4, in every typing, inside
    the encoder envelope or not."""
    checked = 0
    for specs, typings in iter_typed_motif_space(4):
        d = single_motif_diagram(specs, typings)
        if dg.check_encodable(d, {}).overall:
            assert dg.diagram_interactions(d, {}) == connector_tree_interactions(d, {}), specs
            checked += 1
    assert checked == 288


@st.composite
def shared_type_diagrams(draw):
    """An encodable one-motif diagram whose one to three ends name distinct
    ports of two component types with two ports each, so two or three ends
    may sit on one type and share its instances, each end with any typing."""
    cardinality = {"A": draw(st.integers(1, 3)), "B": draw(st.integers(1, 3))}
    refs = draw(st.lists(st.sampled_from(
        [PortTypeRef(t, p) for t in "AB" for p in "pq"]), min_size=1, max_size=3, unique=True))
    sizes = [draw(st.integers(1, cardinality[ref.component_type])) for ref in refs]
    typings = [draw(st.sampled_from([SYNCHRON, TRIGGER])) for _ in refs]
    connectors = 1
    for ref, m in zip(refs, sizes):
        connectors *= math.comb(cardinality[ref.component_type], m)
    ends = []
    for ref, m, typing in zip(refs, sizes, typings):
        degree, rest = divmod(connectors * m, cardinality[ref.component_type])
        assume(not rest)
        ends.append(MotifEnd(ref, CardExpr.lit(m), CardExpr.lit(degree), typing))
    types = tuple(loop_type(t, ["p", "q"], CardExpr.lit(n)) for t, n in cardinality.items())
    return ArchitectureDiagram("shared", types, (ConnectorMotif("only", tuple(ends)),))


@given(shared_type_diagrams())
@settings(max_examples=300, deadline=None)
def test_orbit_expansion_matches_connector_trees_on_shared_types(d):
    assert dg.check_encodable(d, {}).overall
    assert dg.diagram_interactions(d, {}) == connector_tree_interactions(d, {})


@pytest.mark.parametrize("name, binding, count", [
    ("mutex.bip", {"n": 200}, 2),
    ("switchable_routes.bip", {"n": 100}, 3),
    ("star.bip", {"n": 40}, 1),
    ("broadcast_pair.bip", {"n1": 1, "n2": 2}, 4),
])
def test_orbit_counts_of_bundled_models(name, binding, count):
    """The macros' orbit solver gives the same sorted list."""
    d = load_bundled_model(name)
    orbits = dg.diagram_orbits(d, binding)
    assert len(orbits) == count
    spec = encode_macros(d)
    assert allowed_orbits(spec.requires, spec.accepts, dg.instance_counts(d, binding)) == orbits


def test_orbits_of_two_ends_on_one_type():
    """A.p and A.q, one instance each out of two: the instances differ, or
    one instance takes part through both ends."""
    ends = (MotifEnd(PortTypeRef("A", "p"), CardExpr.lit(1), CardExpr.lit(2)),
            MotifEnd(PortTypeRef("A", "q"), CardExpr.lit(1), CardExpr.lit(2)))
    d = ArchitectureDiagram("two", (loop_type("A", ["p", "q"], CardExpr.lit(2)),),
                            (ConnectorMotif("only", ends),))
    p, q = PortTypeRef("A", "p"), PortTypeRef("A", "q")
    assert dg.diagram_orbits(d, {}) == [(((p,), 1), ((q,), 1)), (((p, q), 1),)]
    assert ports_only(dg.diagram_interactions(d, {})) == {"p1 q1", "p2 q2", "p1 q2", "p2 q1"}


def test_orbits_of_ends_that_take_every_instance():
    """Three ends, each on all 200 instances of its type: the search cuts a
    branch once a counter that no later slot raises is short, so it does
    not try the 201**3 count vectors below the one orbit."""
    d = single_motif_diagram([(200, 200, 1)] * 3)
    assert dg.diagram_orbits(d, {}) == [tuple(((PortTypeRef(t, "p"),), 200) for t in "ABC")]


def test_a_slot_count_starts_at_what_its_end_needs(monkeypatch):
    """Two ends of multiplicity 200 on 200 instances each: each end's count
    starts at 200, so the search makes a few dead-branch checks, not one per
    count from 1 to 200."""
    calls = []
    dead = logic._dead
    monkeypatch.setattr(logic, "_dead", lambda *args: calls.append(args) or dead(*args))
    d = single_motif_diagram([(200, 200, 1)] * 2)
    assert dg.diagram_orbits(d, {}) == [tuple(((PortTypeRef(t, "p"),), 200) for t in "AB")]
    assert len(calls) <= 10


def repeated_port_diagram(typings):
    """One motif naming A.p once per typing, at n=1."""
    base = single_motif_diagram([(1, 1, 1)])
    ends = tuple(
        MotifEnd(PortTypeRef("A", "p"), CardExpr.lit(1), CardExpr.lit(1), typing)
        for typing in typings
    )
    return ArchitectureDiagram("twice", base.component_types, (ConnectorMotif("only", ends),))


def test_diagram_interactions_motif_naming_a_port_twice():
    # both ends pick A#1, and the connector holds its one port once
    d = repeated_port_diagram([SYNCHRON, SYNCHRON])
    assert dg.diagram_interactions(d, {}) == {frozenset({pi("A", 1, "p")})}
    assert dg.diagram_interactions(d, {}) == connector_tree_interactions(d, {})
    # one port instance cannot be both a synchron and a trigger
    with pytest.raises(LogicDomainError):
        dg.diagram_interactions(repeated_port_diagram([SYNCHRON, TRIGGER]), {})


def test_search_rejects_a_motif_naming_a_port_twice():
    """The search's counting argument needs distinct port types per motif,
    which validation requires; a library caller gets ValueError."""
    d = repeated_port_diagram([SYNCHRON, SYNCHRON])
    with pytest.raises(ValueError, match="^motif only names a port type twice$"):
        dg.enumerate_configurations(d, d.motifs[0], {})


def test_multi_motif_configurations_are_products(routes):
    configurations, truncated = dg.enumerate_diagram_configurations(routes, {"n": 2})
    assert not truncated
    assert len(configurations) == 1
    groups = dict(configurations[0].groups)
    assert set(groups) == {"switchOn", "switchOff", "report"}
    assert len(groups["switchOn"]) == 2
    assert len(groups["switchOff"]) == 2
    assert dg.conforms(configurations[0], routes, {"n": 2})


def test_binding_checks(star):
    with pytest.raises(KeyError):
        dg.check_encodable(star, {})
    with pytest.raises(ValueError):
        dg.check_encodable(star, {"n": -1})


def test_binding_check_rejects_a_name_that_is_no_parameter(star):
    message = r"^unknown parameters: typo \(the model's parameters: n\)$"
    with pytest.raises(ValueError, match=message):
        dg.check_binding(star, {"n": 2, "typo": 3})
    # named before the parameter it may have been meant for
    with pytest.raises(ValueError, match=message):
        dg.check_binding(star, {"typo": 3})
    with pytest.raises(ValueError, match=message):
        dg.check_encodable(star, {"n": 2, "typo": 3})
    with pytest.raises(ValueError, match=message):
        dg.enumerate_configurations(star, star.motifs[0], {"n": 2, "typo": 3})
    d = single_motif_diagram([(2, 1, 1)])
    with pytest.raises(ValueError, match=r"^unknown parameters: m, n \(the model has none\)$"):
        dg.check_binding(d, {"n": 1, "m": 1})


def test_binding_check_needs_each_multiplicity_at_least_one(mutex):
    d = single_motif_diagram([(2, 1, 1), (2, 1, 1)])
    motif = d.motifs[0]
    ends = (MotifEnd(PortTypeRef("A", "p"), CardExpr.var("k"), CardExpr.lit(1)), motif.ends[1])
    d = ArchitectureDiagram("k", d.component_types, (ConnectorMotif("only", ends),))
    with pytest.raises(ValueError, match="k=0 makes the multiplicity of motif only, end A.p, less"):
        dg.check_binding(d, {"k": 0})
    dg.check_binding(d, {"k": 1})
    # a parameter bound to 0 may be a cardinality and a degree (mutex's n)
    dg.check_binding(mutex, {"n": 0})
    report = dg.check_encodable(mutex, {"n": 0})
    assert [e.port for e in report.failures()] == [
        PortTypeRef("Process", "acquire"),
        PortTypeRef("Process", "release"),
    ]
    assert [e.port for e in report.failures("release")] == [PortTypeRef("Process", "release")]


def test_a_bool_is_not_an_integer_binding(mutex):
    # isinstance(True, int) holds, so an isinstance check would take True as 1
    message = "parameter n=True is not a non-negative integer"
    for call in (lambda b: dg.check_encodable(mutex, b), lambda b: init_state(mutex, b),
                 lambda b: run(mutex, b, EngineConfig(cycles=1))):
        with pytest.raises(ValueError, match=message):
            call({"n": True})


# ---- the exhaustive sweep (brute force vs the uniqueness conditions) --------


def test_proposition_sweep_all_agree():
    records = dg.proposition_sweep(3)
    assert len(records) == 27 + 27 * 27
    disagreements = [r for r in records if not r.agree]
    assert disagreements == []


def test_proposition_sweep_matches_its_specification():
    """Searched from numbers, the sweep gives the records of building each
    point's diagram and searching it, at the default bound, at bound 4, and
    just below and at every node count a bound-3 point needs.  (A negative
    bound is left out: the command line takes none.)"""
    assert dg.proposition_sweep() == sweep_spec()
    assert dg.proposition_sweep(4) == sweep_spec(4)
    assert SEARCH_NODES["sweep_bound"] == 3 and SEARCH_NODES["sweep_limit"] == 2
    needed = set(SEARCH_NODES["sweep"].values())
    for max_nodes in sorted({k for v in needed for k in (v - 1, v) if k >= 0}):
        assert dg.proposition_sweep(3, max_nodes=max_nodes) == sweep_spec(3, max_nodes), max_nodes


def test_proposition_sweep_builds_no_diagram(monkeypatch):
    expected = sweep_spec(3)

    def unused(*args, **kwargs):
        raise AssertionError("the sweep works on numbers")

    for name in ("check_binding", "_end_numbers"):
        monkeypatch.setattr(dg, name, unused)
    assert dg.proposition_sweep(3) == expected


def test_proposition_sweep_builds_no_end_check(monkeypatch):
    """The sweep judges each point on its numbers: no EndCheck row is built."""
    expected = sweep_spec(3)

    def unused(*args, **kwargs):
        raise AssertionError("the sweep builds no rows")

    for name in ("EndCheck", "_end_checks"):
        monkeypatch.setattr(dg, name, unused)
    assert dg.proposition_sweep(3) == expected


def test_sweep_record_is_a_named_tuple():
    assert dg.SweepRecord._fields == ("label", "count", "encodable")
    assert isinstance(dg.SweepRecord("p", 1, True), tuple)
    agree = {(count, encodable): dg.SweepRecord("p", count, encodable).agree
             for count in (None, 1, 2) for encodable in (True, False)}
    assert agree == {(None, True): None, (None, False): None,
                     (1, True): True, (1, False): False,
                     (2, True): False, (2, False): True}


@given(st.lists(st.tuples(st.integers(0, 12), st.integers(1, 12), st.integers(0, 12)),
                min_size=1, max_size=3))
@settings(max_examples=300, deadline=None)
def test_the_end_rule_is_the_rows_rule(numbers):
    """The rule the sweep applies to an end's numbers is the verdict of its
    EndCheck row, and both are the closed form: m <= n and the matching
    factor n*d/m, an exact rational, equals the connector count."""
    ports = [PortTypeRef(name, "p") for name in "ABC"]
    rows = dg._end_checks("only", ports, numbers)
    connectors = math.prod(math.comb(n, m) for n, m, _ in numbers)
    for row, (n, m, deg) in zip(rows, numbers):
        multiplicity_ok, factor_ok = dg._end_rule(n, m, deg, connectors)
        assert (multiplicity_ok, factor_ok) == (row.multiplicity_ok, row.factor_ok)
        closed_form = m <= n and Fraction(n * deg, m) == connectors
        assert (multiplicity_ok and factor_ok) == row.ok == closed_form
    assert dg._encodable(numbers) == dg.EncodabilityReport(tuple(rows)).overall


def test_proposition_sweep_records_points_over_the_bound_as_unknown():
    records = dg.proposition_sweep(2, max_nodes=3)
    full = dg.proposition_sweep(2)
    assert [r.label for r in records] == [r.label for r in full]
    unknown = [r for r in records if r.count is None]
    assert unknown and all(r.agree is None for r in unknown)
    for r, reference in zip(records, full):
        assert r.count is None or r == reference


def test_sweep_side_invariants():
    """Enumerated configurations self-check: each conforms; encodable points
    enumerate to exactly the closed-form configuration with the factor as its
    connector count; mismatched or fractional factors give zero; swapping one
    instance pair out of any connector is covered by another connector."""
    for label, d in iter_sweep_points(3):
        motif = d.motifs[0]
        result = dg.enumerate_configurations(d, motif, {})
        report = dg.check_encodable(d, {})

        factors = {end.factor for end in report.ends}
        if len(factors) > 1 or next(iter(factors)).denominator != 1:
            assert result.configurations == (), label
            continue

        for connectors in result.configurations:
            assert dg.conforms(Configuration(((motif.name, connectors),)), d, {}), label
            # every connector's absent instances appear in some other
            # connector without the present one (the exchange property)
            for connector in connectors:
                for end in motif.ends:
                    n = dg.instance_counts(d, {})[end.port.component_type]
                    members = {
                        p for p in connector.port_instances if p.type_ref == end.port
                    }
                    for i in range(1, n + 1):
                        absent = pi(end.port.component_type, i, end.port.port)
                        if absent in members:
                            continue
                        for present in members:
                            assert any(
                                absent in other.port_instances
                                and present not in other.port_instances
                                for other in connectors
                            ), label

        if report.overall:
            unique = dg.unique_configuration(d, motif, {})
            assert result.configurations == (unique,), label
            for end in report.ends:
                assert len(unique) == end.factor, label
