"""Structural validation of component types and diagrams."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bipkit.model import (
    ArchitectureDiagram,
    CardExpr,
    ComponentType,
    ConnectorMotif,
    ENFORCEABLE,
    GuardAnd,
    GuardAtom,
    GuardOr,
    INTERNAL,
    MotifEnd,
    PortInstance,
    PortTypeRef,
    SPONTANEOUS,
    SYNCHRON,
    TRIGGER,
    Transition,
    validate_behavior,
    validate_diagram,
    validate_model,
)
from helpers import loop_type


def make_route() -> ComponentType:
    """The route type: four states, one spontaneous event, one guard."""
    return ComponentType(
        name="Route",
        cardinality=CardExpr.var("n"),
        port_types=frozenset({"on", "off", "finished"}),
        spontaneous_events=frozenset({"end"}),
        guards=frozenset({"finished"}),
        states=frozenset({"off", "on", "wait", "done"}),
        initial_states=frozenset({"off"}),
        transitions=(
            Transition(ENFORCEABLE, "on", "off", "on"),
            Transition(ENFORCEABLE, "off", "on", "wait"),
            Transition(SPONTANEOUS, "end", "wait", "done"),
            Transition(INTERNAL, "", "wait", "done", guard=GuardAtom("finished")),
            Transition(ENFORCEABLE, "finished", "done", "off"),
        ),
    )


def test_route_behavior_is_clean():
    assert validate_behavior(make_route()) == []


def test_route_from_bundled_model_is_clean(routes):
    route = routes.component_type("Route")
    assert route.initial_state == "off"
    assert route.states == {"off", "on", "wait", "done"}
    assert validate_behavior(route) == []


def test_no_initial_state():
    ct = ComponentType(
        name="T",
        cardinality=CardExpr.lit(1),
        port_types=frozenset({"p"}),
        states=frozenset({"a"}),
        initial_states=frozenset(),
    )
    issues = validate_behavior(ct)
    assert [i.code for i in issues] == ["NO_INITIAL_STATE"]
    assert issues[0].severity == "error"


def test_multiple_initial_states():
    ct = ComponentType(
        name="T",
        cardinality=CardExpr.lit(1),
        port_types=frozenset({"p"}),
        states=frozenset({"a", "b"}),
        initial_states=frozenset({"a", "b"}),
    )
    assert [i.code for i in issues_of(ct)] == ["MULTIPLE_INITIAL_STATES"]


def issues_of(ct):
    return validate_behavior(ct)


def test_undeclared_guard():
    ct = ComponentType(
        name="T",
        cardinality=CardExpr.lit(1),
        port_types=frozenset({"p"}),
        states=frozenset({"a"}),
        initial_states=frozenset({"a"}),
        transitions=(Transition(ENFORCEABLE, "p", "a", "a", guard=GuardAtom("g")),),
    )
    issues = validate_behavior(ct)
    assert [i.code for i in issues] == ["UNDECLARED_GUARD"]
    assert "g" in issues[0].message


def test_guard_may_share_a_port_name():
    # The route declares both a port and a guard called "finished"; guard
    # names live in their own namespace, so this is not an issue.
    assert validate_behavior(make_route()) == []


def test_port_event_overlap_is_an_error():
    ct = ComponentType(
        name="T",
        cardinality=CardExpr.lit(1),
        port_types=frozenset({"p"}),
        spontaneous_events=frozenset({"p"}),
        states=frozenset({"a"}),
        initial_states=frozenset({"a"}),
    )
    assert "PORT_EVENT_OVERLAP" in [i.code for i in validate_behavior(ct)]


def test_empty_ports_and_bad_labels_and_states():
    ct = ComponentType(
        name="T",
        cardinality=CardExpr.lit(0),
        port_types=frozenset(),
        states=frozenset({"a"}),
        initial_states=frozenset({"a"}),
        transitions=(
            Transition(ENFORCEABLE, "nope", "a", "b"),
            Transition(INTERNAL, "x", "a", "a"),
        ),
    )
    codes = {i.code for i in validate_behavior(ct)}
    assert codes == {
        "NO_PORT_TYPES",
        "NONPOSITIVE_CARDINALITY",
        "BAD_TRANSITION_LABEL",
        "UNDECLARED_STATE",
    }


def one_state_type(transitions=(), initial="a", events=(), guards=()) -> ComponentType:
    return ComponentType(
        name="T",
        cardinality=CardExpr.lit(1),
        port_types=frozenset({"p"}),
        spontaneous_events=frozenset(events),
        guards=frozenset(guards),
        states=frozenset({"a"}),
        initial_states=frozenset({initial}),
        transitions=tuple(transitions),
    )


def guarded_by(guard) -> ComponentType:
    return one_state_type([Transition(ENFORCEABLE, "p", "a", "a", guard=guard)], guards={"g"})


@pytest.mark.parametrize(
    "ct, motifs, expected",
    [
        (one_state_type(initial="z"), (), ("UNDECLARED_INITIAL_STATE", "component[T].state[z]")),
        (one_state_type([Transition(SPONTANEOUS, "e", "a", "a")]), (),
         ("BAD_TRANSITION_LABEL", "component[T].transition[0]")),
        (one_state_type([Transition("urgent", "p", "a", "a")]), (),
         ("BAD_TRANSITION_LABEL", "component[T].transition[0]")),
        (one_state_type(), (ConnectorMotif("m0", ()),), ("EMPTY_MOTIF", "motif[m0]")),
        (guarded_by(GuardAnd(GuardAtom("g"), GuardAtom("h"))), (),
         ("UNDECLARED_GUARD", "component[T].transition[0]")),
        (guarded_by(GuardOr(GuardAtom("h"), GuardAtom("g"))), (),
         ("UNDECLARED_GUARD", "component[T].transition[0]")),
    ],
    ids=["undeclared-initial", "spontaneous-not-event", "unknown-kind", "empty-motif",
         "guard-and", "guard-or"],
)
def test_validation_branch(ct, motifs, expected):
    d = ArchitectureDiagram(name="d", component_types=(ct,), motifs=motifs)
    assert [(i.code, i.location) for i in validate_model(d)] == [expected]


def two_type_diagram(motifs) -> ArchitectureDiagram:
    return ArchitectureDiagram(
        name="d",
        component_types=(
            loop_type("T1", ["p"], CardExpr.var("n1")),
            loop_type("T2", ["q"], CardExpr.var("n2")),
        ),
        motifs=motifs,
    )


def generic_end(ref: PortTypeRef, m="m", d="d", typing=TRIGGER) -> MotifEnd:
    return MotifEnd(
        port=ref,
        multiplicity=CardExpr.var(m) if isinstance(m, str) else CardExpr.lit(m),
        degree=CardExpr.var(d) if isinstance(d, str) else CardExpr.lit(d),
        typing=typing,
    )


def test_generic_two_type_diagram_is_clean():
    d = two_type_diagram(
        (
            ConnectorMotif(
                name="m0",
                ends=(
                    generic_end(PortTypeRef("T1", "p"), "mp", "dp", TRIGGER),
                    generic_end(PortTypeRef("T2", "q"), "mq", "dq", TRIGGER),
                ),
            ),
        )
    )
    assert validate_diagram(d) == []
    assert d.parameters == {"n1", "n2", "mp", "dp", "mq", "dq"}


def test_dangling_port_ref():
    d = two_type_diagram(
        (ConnectorMotif(name="m0", ends=(generic_end(PortTypeRef("T1", "r")),)),)
    )
    assert [i.code for i in validate_diagram(d)] == ["DANGLING_PORT_REF"]


def test_duplicate_motif_end():
    ref = PortTypeRef("T1", "p")
    d = two_type_diagram(
        (ConnectorMotif(name="m0", ends=(generic_end(ref), generic_end(ref))),)
    )
    assert "DUPLICATE_MOTIF_END" in [i.code for i in validate_diagram(d)]


def test_trigger_multiplicity_warning(broadcast_pair):
    issues = validate_diagram(broadcast_pair)
    assert [(i.code, i.severity) for i in issues] == [("TRIGGER_MULTIPLICITY", "warning")]
    assert validate_model(broadcast_pair) == issues


def test_trigger_multiplicity_warns_on_a_partial_synchron_end():
    """A synchron end with 1 < m < n in a motif with a trigger: the macros
    let any 1..m of its instances join, which the diagram does not."""
    d = ArchitectureDiagram(
        name="d",
        component_types=(loop_type("A", ["p"], CardExpr.lit(3)),
                         loop_type("B", ["q"], CardExpr.lit(1))),
        motifs=(ConnectorMotif(name="fan", ends=(
            generic_end(PortTypeRef("A", "p"), 2, 2, SYNCHRON),
            generic_end(PortTypeRef("B", "q"), 1, 3, TRIGGER),
        )),),
    )
    issues = validate_diagram(d)
    assert [(i.code, i.location, i.severity) for i in issues] == [
        ("TRIGGER_MULTIPLICITY", "motif[fan].end[A.p]", "warning")]
    assert issues[0].message.startswith("synchron end in a motif with a trigger end")


def test_singleton_multiplicity_warning():
    d = ArchitectureDiagram(
        name="d",
        component_types=(loop_type("T", ["p"], CardExpr.lit(2)),),
        motifs=(
            ConnectorMotif(
                name="m0", ends=(generic_end(PortTypeRef("T", "p"), 2, 1, "synchron"),)
            ),
        ),
    )
    assert [i.code for i in validate_diagram(d)] == ["SINGLETON_MULTIPLICITY"]


def test_nonpositive_motif_cardinalities():
    d = two_type_diagram(
        (ConnectorMotif(name="m0", ends=(generic_end(PortTypeRef("T1", "p"), 0, 0),)),)
    )
    codes = [i.code for i in validate_diagram(d)]
    assert codes.count("NONPOSITIVE_CARDINALITY") == 2


def test_validation_is_deterministic_and_sorted(routes):
    first = validate_model(routes)
    second = validate_model(routes)
    assert first == second
    assert first == sorted(first)


def test_bundled_models_validate(star, routes, mutex, ambiguous_pairing, complete_pairing):
    for d in (star, routes, mutex, ambiguous_pairing, complete_pairing):
        assert not any(i.severity == "error" for i in validate_model(d))
    # and apart from the documented broadcast warning they are all silent
    for d in (star, routes, mutex, ambiguous_pairing, complete_pairing):
        assert validate_model(d) == []


def test_duplicate_component_type_and_motif_name():
    t = loop_type("T", ["p"], CardExpr.lit(1))
    motif = ConnectorMotif(name="m0", ends=(generic_end(PortTypeRef("T", "p"), 1, 1),))
    d = ArchitectureDiagram(name="d", component_types=(t, t), motifs=(motif, motif))
    codes = {i.code for i in validate_diagram(d)}
    assert {"DUPLICATE_COMPONENT_TYPE", "DUPLICATE_MOTIF_NAME"} <= codes


def test_card_expr_contract():
    with pytest.raises(ValueError):
        CardExpr()
    with pytest.raises(ValueError):
        CardExpr(literal=1, param="n")
    assert CardExpr.lit(3).evaluate({}) == 3
    assert CardExpr.var("n").evaluate({"n": 5}) == 5
    with pytest.raises(KeyError):
        CardExpr.var("n").evaluate({})


# ---- port types and port instances are typed tuples --------------------------

_NAMES = st.text(min_size=1, max_size=3)


@given(st.lists(st.tuples(_NAMES, st.integers(0, 5), _NAMES), min_size=1, max_size=6),
       _NAMES, _NAMES)
def test_port_instances_and_types_are_their_field_tuples(fields, type_name, port):
    instances = [PortInstance(*f) for f in fields]
    for pi, (ctype, index, label) in zip(instances, fields):
        assert str(pi) == f"{ctype}.{label}#{index}"
        assert repr(pi) == f"PortInstance(component_type={ctype!r}, index={index!r}, port={label!r})"
        assert hash(pi) == hash(tuple(pi)) == hash((ctype, index, label))
        assert pi.type_ref == PortTypeRef(ctype, label)
        with pytest.raises(AttributeError):
            pi.index = index + 1
    assert sorted(instances) == [PortInstance(*f) for f in sorted(fields)]

    ref = PortTypeRef(type_name, port)
    assert str(ref) == f"{type_name}.{port}"
    assert repr(ref) == f"PortTypeRef(component_type={type_name!r}, port={port!r})"
    assert hash(ref) == hash(tuple(ref)) == hash((type_name, port))
    with pytest.raises(AttributeError):
        ref.port = port + "x"
    refs = [pi.type_ref for pi in instances]
    assert sorted(refs) == [PortTypeRef(*f) for f in sorted((c, p) for c, _, p in fields)]
    # a port instance has three fields, a port type two: never equal
    assert all(pi != ref and pi != pi.type_ref for pi in instances)
