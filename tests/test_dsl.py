"""Parser and serializer: goldens for the bundled models, round-trip laws."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bipkit.dsl import (
    MAX_GUARD_OPERATORS,
    ParseFailure,
    load_model,
    parse_guard_expr,
    parse_model,
    read_text,
    serialize_model,
)
from bipkit.model import (
    ArchitectureDiagram,
    CardExpr,
    ComponentType,
    ConnectorMotif,
    ENFORCEABLE,
    GuardAnd,
    GuardAtom,
    GuardNot,
    GuardOr,
    INTERNAL,
    MotifEnd,
    PortTypeRef,
    SPONTANEOUS,
    SYNCHRON,
    TRIGGER,
    Transition,
)


def test_star_parses(star):
    assert star.name == "Star"
    assert [ct.name for ct in star.component_types] == ["C", "S"]
    center, satellite = star.component_types
    assert center.cardinality == CardExpr.lit(1)
    assert satellite.cardinality == CardExpr.var("n")
    (motif,) = star.motifs
    assert [str(e.port) for e in motif.ends] == ["C.p", "S.q"]
    assert motif.ends[0].degree == CardExpr.var("n")


def test_switchable_routes_parses(routes):
    assert len(routes.component_types) == 2
    assert len(routes.motifs) == 3
    route = routes.component_type("Route")
    assert route.port_types == {"on", "off", "finished"}
    assert route.spontaneous_events == {"end"}
    kinds = [t.kind for t in route.transitions]
    assert kinds == [ENFORCEABLE, ENFORCEABLE, SPONTANEOUS, INTERNAL, ENFORCEABLE]
    spontaneous = route.transitions[2]
    assert spontaneous.guard == GuardNot(GuardAtom("finished"))
    internal = route.transitions[3]
    assert internal.label == "" and internal.guard == GuardAtom("finished")


def test_empty_input():
    with pytest.raises(ParseFailure) as err:
        parse_model("")
    assert err.value.error.expected == "'diagram'"
    assert err.value.error.found == "end of input"


def test_parse_error_has_position():
    with pytest.raises(ParseFailure) as err:
        parse_model("diagram D {\n  component X 3 {}\n}")
    error = err.value.error
    assert error.span.start_line == 2
    assert error.span.start_col >= 13


def test_unknown_transition_label_is_rejected():
    text = """
diagram D {
  component T [1] {
    ports { p }
    states { a* }
    transitions { oops: a -> a }
  }
}
"""
    with pytest.raises(ParseFailure) as err:
        parse_model(text)
    assert "port or event" in err.value.error.expected


# Each text recorded verbatim from the hand-stepped lexer the one-pass lexer
# replaced.
@pytest.mark.parametrize("text, message", [
    ("diagram D {\n  component X @ [1] {}\n}",
     "m.bip:2:15: expected a token, found '@'"),
    ("diagram D {\n// a comment\n\tcomponent X [1] { ports { p } states { s* } "
     "transitions { p: s => s } }\n}",
     "m.bip:3:65: expected a token, found '='"),
    ("diagram D {\n// note\n\tcomponent X 3 {}\n}",
     "m.bip:3:14: expected '[', found '3'"),
    ("diagram D {\n  component X [1] {\n    ports { p }\n",
     "m.bip:4:1: expected 'states', found end of input"),
    ("diagram D {\n  component T [1] {\n    ports { p }\n    states { a* }\n"
     "    transitions { oops: a -> a }\n  }\n}\n",
     "m.bip:5:19: expected a declared port or event name, found 'oops'"),
])
def test_parse_error_texts_are_pinned(text, message):
    with pytest.raises(ParseFailure) as err:
        parse_model(text, "m.bip")
    assert str(err.value) == message


def test_file_error_texts_are_pinned(tmp_path):
    no_utf8 = tmp_path / "bad.bip"
    no_utf8.write_bytes(b"diagram D {\n  // caf\xe9\n}\n")
    with pytest.raises(ParseFailure) as err:
        read_text(no_utf8)
    assert str(err.value) == f"{no_utf8}:2:9: expected UTF-8 text, found byte 0xe9"
    crlf = tmp_path / "crlf.bip"
    crlf.write_bytes(b"diagram D {\r\n  component X [1] {\r\n    ports { p } states { s* } "
                     b"transitions { p: s -> }\r\n  }\r\n}\r\n")
    with pytest.raises(ParseFailure) as err:
        load_model(crlf)
    assert str(err.value) == f"{crlf}:3:53: expected a destination state, found '}}'"


def test_guard_error_texts_are_pinned():
    with pytest.raises(ParseFailure) as err:
        parse_guard_expr("a &")
    assert str(err.value) == "<guard>:1:4: expected a guard name, found end of input"
    with pytest.raises(ParseFailure) as err:
        parse_guard_expr("(a")
    assert str(err.value) == "<guard>:1:3: expected ')', found end of input"


def test_crlf_is_accepted(star):
    text = serialize_model(star).replace("\n", "\r\n")
    assert parse_model(text) == star


def test_comments_are_skipped():
    text = "diagram D { // trailing\n// full line\n}"
    assert parse_model(text).name == "D"


def test_round_trip_bundled(star, routes, mutex, broadcast_pair, ambiguous_pairing,
                            complete_pairing):
    for model in (star, routes, mutex, broadcast_pair, ambiguous_pairing, complete_pairing):
        assert parse_model(serialize_model(model)) == model


def test_serialized_form_is_canonical(routes):
    text = serialize_model(routes)
    assert text == serialize_model(parse_model(text))
    assert "\r" not in text
    assert text.endswith("\n")


# ---- guard expressions ------------------------------------------------------


def test_guard_expr_goldens():
    assert parse_guard_expr("!finished") == GuardNot(GuardAtom("finished"))
    assert parse_guard_expr("finished") == GuardAtom("finished")
    assert parse_guard_expr("a & (b | !c)") == GuardAnd(
        GuardAtom("a"), GuardOr(GuardAtom("b"), GuardNot(GuardAtom("c")))
    )


def test_guard_expr_precedence():
    # ! binds tighter than &, & tighter than |, both left-associative
    assert parse_guard_expr("!a & b | c") == GuardOr(
        GuardAnd(GuardNot(GuardAtom("a")), GuardAtom("b")), GuardAtom("c")
    )
    assert parse_guard_expr("a | b | c") == GuardOr(
        GuardOr(GuardAtom("a"), GuardAtom("b")), GuardAtom("c")
    )
    assert parse_guard_expr("a & b & c") == GuardAnd(
        GuardAnd(GuardAtom("a"), GuardAtom("b")), GuardAtom("c")
    )


def test_guard_expr_syntax_error():
    with pytest.raises(ParseFailure):
        parse_guard_expr("a &")
    with pytest.raises(ParseFailure):
        parse_guard_expr("(a")
    with pytest.raises(ParseFailure):
        parse_guard_expr("")


def test_guard_expr_rendering_round_trips():
    for text in ("!finished", "a & (b | !c)", "!(a | b) & c", "a | b & c"):
        expr = parse_guard_expr(text)
        assert parse_guard_expr(str(expr)) == expr


# A guard of k operators of one kind.
GUARD_RUNS = {
    "!": lambda k: "!" * k + "a",
    "&": lambda k: "a" + " & a" * k,
    "|": lambda k: "a" + " | a" * k,
    "(": lambda k: "(" * k + "a" + ")" * k,
}


@pytest.mark.parametrize("op", sorted(GUARD_RUNS))
def test_a_guard_holds_at_most_the_bound_of_operators(op):
    expr = parse_guard_expr(GUARD_RUNS[op](MAX_GUARD_OPERATORS))
    assert parse_guard_expr(str(expr)) == expr
    text = GUARD_RUNS[op](MAX_GUARD_OPERATORS + 1)
    column = [i for i, c in enumerate(text, start=1) if c == op][MAX_GUARD_OPERATORS]
    with pytest.raises(ParseFailure) as err:
        parse_guard_expr(text)
    assert str(err.value) == (f"<guard>:1:{column}: expected at most {MAX_GUARD_OPERATORS} "
                              f"operators in a guard, found '{op}'")


def test_the_operator_bound_counts_every_kind_and_each_guard_anew():
    half = MAX_GUARD_OPERATORS // 2
    text = "!" * half + "(" * half + "a & b" + ")" * half
    with pytest.raises(ParseFailure) as err:
        parse_guard_expr(text)
    assert err.value.error.span.start_col == text.index("&") + 1
    guard = "!" * MAX_GUARD_OPERATORS + "g"
    model = parse_model("diagram D { component X [1] { ports { p } guards { g } states { s* } "
                        f"transitions {{ p: s -> s [{guard}] : s -> s [{guard}] }} }} }}")
    assert [str(t.guard) for t in model.component_types[0].transitions] == [guard, guard]


# ---- evaluation of guards against truth tables ------------------------------


def test_guard_eval_truth_table():
    expr = parse_guard_expr("a & (b | !c)")
    for a in (False, True):
        for b in (False, True):
            for c in (False, True):
                expected = a and (b or not c)
                assert expr.evaluate({"a": a, "b": b, "c": c}) == expected


# ---- property: the parser is total ------------------------------------------


@given(st.text(max_size=200))
@settings(max_examples=300)
def test_parser_total(text):
    try:
        model = parse_model(text)
        assert isinstance(model, ArchitectureDiagram)
    except ParseFailure as failure:
        assert failure.error


# ---- property: serialize/parse round trip on generated diagrams -------------

IDENT = st.from_regex(r"[a-z][a-z0-9_]{0,6}", fullmatch=True).filter(
    lambda s: s not in {"diagram", "component", "ports", "events", "guards",
                        "states", "transitions", "motif", "trigger", "synchron"}
)

CARD = st.one_of(
    st.integers(min_value=1, max_value=9).map(CardExpr.lit),
    IDENT.map(CardExpr.var),
)


@st.composite
def component_types(draw):
    name = draw(IDENT)
    ports = draw(st.sets(IDENT, min_size=1, max_size=3))
    events = draw(st.sets(IDENT.filter(lambda s: s not in ports), max_size=2))
    guards = draw(st.sets(IDENT, max_size=2))
    states = sorted(draw(st.sets(IDENT, min_size=1, max_size=3)))
    initial = draw(st.sampled_from(states))

    guard_exprs = st.one_of(
        st.none(),
        st.sampled_from(sorted(guards)).map(GuardAtom) if guards else st.none(),
        st.sampled_from(sorted(guards)).map(lambda g: GuardNot(GuardAtom(g)))
        if guards
        else st.none(),
    )

    def transition(kind, label):
        return Transition(
            kind=kind,
            label=label,
            source=draw(st.sampled_from(states)),
            destination=draw(st.sampled_from(states)),
            guard=draw(guard_exprs),
        )

    transitions = []
    for port in sorted(ports):
        transitions.append(transition(ENFORCEABLE, port))
    for event in sorted(events):
        transitions.append(transition(SPONTANEOUS, event))
    if draw(st.booleans()):
        transitions.append(transition(INTERNAL, ""))

    return ComponentType(
        name=name,
        cardinality=draw(CARD),
        port_types=frozenset(ports),
        spontaneous_events=frozenset(events),
        guards=frozenset(guards),
        states=frozenset(states),
        initial_states=frozenset({initial}),
        transitions=tuple(transitions),
    )


@st.composite
def diagrams(draw):
    types = draw(
        st.lists(component_types(), min_size=1, max_size=3, unique_by=lambda c: c.name)
    )
    refs = sorted(
        PortTypeRef(ct.name, port) for ct in types for port in ct.port_types
    )
    motifs = []
    for i in range(draw(st.integers(min_value=0, max_value=2))):
        ends = draw(st.lists(st.sampled_from(refs), min_size=1, max_size=3,
                             unique_by=lambda r: r))
        motifs.append(
            ConnectorMotif(
                name=f"m{i}",
                ends=tuple(
                    MotifEnd(
                        port=ref,
                        multiplicity=draw(CARD),
                        degree=draw(CARD),
                        typing=draw(st.sampled_from([SYNCHRON, TRIGGER])),
                    )
                    for ref in ends
                ),
            )
        )
    return ArchitectureDiagram(
        name=draw(IDENT), component_types=tuple(types), motifs=tuple(motifs)
    )


@given(diagrams())
@settings(max_examples=150, deadline=None)
def test_round_trip_generated(diagram):
    assert parse_model(serialize_model(diagram)) == diagram
