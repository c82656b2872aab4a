"""Macro encoding goldens and the encoder-semantics equivalence property."""

from __future__ import annotations

import json
import random
import xml.etree.ElementTree as ET

import pytest

from bipkit import diagram as dg
from bipkit.encoder import (
    MacroSpec,
    behavior_dict,
    emit_macros_text,
    emit_xml,
    encode_macros,
    export_behavior_json,
    parse_macros_xml,
)
from bipkit.errors import MacroEncodingError
from bipkit.logic import AcceptRule, RequireOption, RequireRule
from bipkit.model import (
    ArchitectureDiagram,
    CardExpr,
    ConnectorMotif,
    MotifEnd,
    PortTypeRef,
    SYNCHRON,
    TRIGGER,
    validate_diagram,
)
from helpers import (
    in_encoder_envelope,
    iter_typed_motif_space,
    loop_type,
    macro_interactions,
    random_encodable_diagram,
    single_motif_diagram,
)


def lines(text: str) -> list[str]:
    return [" ".join(line.split()) for line in text.strip().splitlines()]


def test_star_macros_golden(star):
    got = lines(emit_macros_text(encode_macros(star)))
    assert set(got) == {
        "C.p Require S.q",
        "C.p Accept S.q",
        "S.q Require C.p",
        "S.q Accept C.p",
    }
    assert len(got) == 4


def test_singleton_motif_dash(routes):
    spec = encode_macros(routes)
    off = PortTypeRef("Route", "off")
    assert [o.is_dash for o in spec.require_for(off).options] == [True]
    assert spec.accept_for(off).accepted == frozenset()
    text = emit_macros_text(spec)
    assert "Route.off Require -" in lines(text)
    assert "Route.off Accept -" in lines(text)


def test_fanin_macros(broadcast_pair):
    """Trigger q with multiplicity 2, synchron p: dash/trigger branches."""
    spec = encode_macros(broadcast_pair)
    p, q = PortTypeRef("T1", "p"), PortTypeRef("T2", "q")

    q_rule = spec.require_for(q)
    assert [o.is_dash for o in q_rule.options] == [True]
    assert spec.accept_for(q).accepted == {p, q}  # multiplicity 2 keeps q itself

    p_rule = spec.require_for(p)
    assert p_rule.options == (RequireOption.trigger(q),)
    assert spec.accept_for(p).accepted == {q}

    binding = {"n1": 1, "n2": 2}
    assert macro_interactions(broadcast_pair, binding) == dg.diagram_interactions(
        broadcast_pair, binding
    )


def test_mutex_macro_lines(mutex):
    text = lines(emit_macros_text(encode_macros(mutex)))
    require_lines = [l for l in text if l.startswith("Manager.") and "Require" in l]
    assert require_lines == [
        "Manager.acquire Require Process.acquire",
        "Manager.release Require Process.release",
    ]


def test_two_option_rule_rendering():
    spec = MacroSpec(
        requires=(
            RequireRule(
                effect=PortTypeRef("T1", "p"),
                options=(
                    RequireOption.counted({PortTypeRef("T2", "q"): 2}),
                    RequireOption.counted({PortTypeRef("T2", "r"): 1}),
                ),
            ),
        ),
        accepts=(
            AcceptRule(
                effect=PortTypeRef("T1", "p"),
                accepted=frozenset({PortTypeRef("T2", "q"), PortTypeRef("T2", "r")}),
            ),
        ),
    )
    assert lines(emit_macros_text(spec)) == [
        "T1.p Require T2.q T2.q ; T2.r",
        "T1.p Accept T2.q T2.r",
    ]


def test_every_motif_port_gets_exactly_one_rule_pair(routes):
    spec = encode_macros(routes)
    expected = {str(e.port) for m in routes.motifs for e in m.ends}
    assert {str(r) for r in spec.port_types} == expected
    assert len(spec.requires) == len(expected)
    assert len(spec.accepts) == len(expected)
    # Monitor ports are all used; a port outside every motif gets no rule
    trimmed = routes.component_type("Route")
    assert "finished" in {r.port for r in spec.port_types if r.component_type == "Route"}


def test_parameterized_multiplicity_is_rejected(star):
    # fabricate a motif whose multiplicity is a parameter
    motif = ConnectorMotif(
        name="bad",
        ends=(
            MotifEnd(
                port=PortTypeRef("C", "p"),
                multiplicity=CardExpr.var("m"),
                degree=CardExpr.lit(1),
            ),
            MotifEnd(
                port=PortTypeRef("S", "q"),
                multiplicity=CardExpr.lit(1),
                degree=CardExpr.lit(1),
            ),
        ),
    )
    d = ArchitectureDiagram(
        name="bad", component_types=star.component_types, motifs=(motif,)
    )
    with pytest.raises(MacroEncodingError):
        encode_macros(d)


@pytest.mark.parametrize(
    "motifs, named",
    [
        # the first motif in name order, not the first port type in order
        ({"b": [("C", "p", "m")], "a": [("S", "q", "k")]}, "S.q in motif a is the parameter 'k'"),
        # within a motif, the first end in declaration order
        ({"a": [("S", "q", "k"), ("C", "p", "m")]}, "S.q in motif a is the parameter 'k'"),
    ],
)
def test_parameterized_multiplicity_error_names_the_first_end(star, motifs, named):
    d = ArchitectureDiagram(
        name="bad",
        component_types=star.component_types,
        motifs=tuple(
            ConnectorMotif(name, tuple(
                MotifEnd(PortTypeRef(t, p), CardExpr.var(param), CardExpr.lit(1))
                for t, p, param in ends
            ))
            for name, ends in motifs.items()
        ),
    )
    with pytest.raises(MacroEncodingError) as err:
        encode_macros(d)
    assert str(err.value) == (
        f"multiplicity of {named}; the macro encoding needs literal multiplicities"
    )


def test_options_keep_motif_order_and_first_place():
    """A port in several motifs gets its options in motif-name order, the
    presence options of a trigger motif in port order, and a repeated
    option once, at its first place."""
    types = tuple(loop_type(t, ["p", "q"], CardExpr.lit(1)) for t in "ABC")
    Ap, Bp, Bq, Cp = (PortTypeRef(t, p) for t, p in [("A", "p"), ("B", "p"), ("B", "q"), ("C", "p")])

    def motif(name, *ends):
        return ConnectorMotif(name, tuple(
            MotifEnd(ref, CardExpr.lit(1), CardExpr.lit(1), typing) for ref, typing in ends))

    d = ArchitectureDiagram("order", types, (
        motif("z", (Ap, SYNCHRON), (Bp, SYNCHRON)),
        motif("m", (Ap, SYNCHRON), (Cp, TRIGGER), (Bq, TRIGGER)),
        motif("a", (Ap, SYNCHRON), (Bp, SYNCHRON)),
    ))
    assert encode_macros(d).require_for(Ap).options == (
        RequireOption.counted({Bp: 1}),
        RequireOption.trigger(Bq),
        RequireOption.trigger(Cp),
    )
    assert lines(emit_macros_text(encode_macros(d)))[:2] == [
        "A.p Require B.p ; B.q ; C.p",
        "A.p Accept B.p B.q C.p",
    ]


# ---- XML --------------------------------------------------------------------


def rule_pairs(xml_text: str) -> dict[tuple[str, str, str], list[set[tuple[str, str]]]]:
    """(kind, effect-id, effect-type) -> list of causes blocks as port sets."""
    root = ET.fromstring(xml_text)
    out: dict[tuple[str, str, str], list[set[tuple[str, str]]]] = {}
    for element in root:
        effect = element.find("effect")
        key = (element.tag, effect.get("id"), effect.get("specType"))
        blocks = []
        for causes in element.findall("causes"):
            blocks.append({(p.get("id"), p.get("specType")) for p in causes.findall("port")})
        out[key] = blocks
    return out


def test_switchable_routes_xml_structure(routes):
    """The on/add pair references each other; off has empty causes blocks."""
    xml_text = emit_xml(encode_macros(routes))
    pairs = rule_pairs(xml_text)

    assert pairs[("require", "on", "Route")] == [{("add", "Monitor")}]
    assert pairs[("accept", "on", "Route")] == [{("add", "Monitor")}]
    assert pairs[("require", "add", "Monitor")] == [{("on", "Route")}]
    assert pairs[("accept", "add", "Monitor")] == [{("on", "Route")}]
    assert pairs[("require", "off", "Route")] == [set()]
    assert pairs[("accept", "off", "Route")] == [set()]

    # require comes before accept for every port
    order = [
        (el.tag, el.find("effect").get("id")) for el in ET.fromstring(xml_text)
    ]
    for i in range(0, len(order), 2):
        assert order[i][0] == "require"
        assert order[i + 1] == ("accept", order[i][1])


def test_xml_round_trip(routes, star, mutex, broadcast_pair):
    for model in (routes, star, mutex, broadcast_pair):
        spec = encode_macros(model)
        assert parse_macros_xml(emit_xml(spec)) == spec


def test_empty_macro_spec_xml():
    xml_text = emit_xml(MacroSpec(requires=(), accepts=()))
    root = ET.fromstring(xml_text)
    assert root.tag == "glue"
    assert len(root) == 0


def test_xml_is_deterministic(routes):
    spec = encode_macros(routes)
    assert emit_xml(spec) == emit_xml(spec)
    assert emit_macros_text(spec) == emit_macros_text(spec)


# ---- behavior JSON -----------------------------------------------------------


def test_route_behavior_export(routes):
    data = json.loads(export_behavior_json(routes.component_types))
    by_name = {entry["name"]: entry for entry in data}
    route = by_name["Route"]
    assert route["initial"] == "off"
    assert route["ports"] == ["finished", "off", "on"]
    assert route["events"] == ["end"]
    assert route["cardinality"] == "n"

    internal = [t for t in route["transitions"] if t["kind"] == "internal"]
    assert internal == [
        {"kind": "internal", "label": "", "source": "wait", "target": "done",
         "guard": "finished"}
    ]
    spontaneous = [t for t in route["transitions"] if t["kind"] == "spontaneous"]
    assert spontaneous[0]["guard"] == "!finished"

    monitor = by_name["Monitor"]
    assert monitor["guards"] == []
    assert monitor["cardinality"] == 1


def test_behavior_export_is_stable(routes):
    assert export_behavior_json(routes.component_types) == export_behavior_json(
        routes.component_types
    )
    # keys are sorted in the emitted document
    text = export_behavior_json(routes.component_types)
    entry = json.loads(text)[0]
    assert list(entry) == sorted(entry)


def test_behavior_dict_no_guard_transition(star):
    center = star.component_type("C")
    assert behavior_dict(center)["transitions"][0]["guard"] is None


# ---- encoder-semantics equivalence -------------------------------------------


def equivalence_holds(d, binding) -> bool:
    return macro_interactions(d, binding) == dg.diagram_interactions(d, binding)


def test_equivalence_on_bundled_models(star, routes, mutex, broadcast_pair,
                                       complete_pairing):
    cases = [
        (star, {"n": 1}),
        (star, {"n": 3}),
        (broadcast_pair, {"n1": 1, "n2": 2}),
        (complete_pairing, {"n": 2}),
        (routes, {"n": 1}),
        (routes, {"n": 2}),
        (routes, {"n": 3}),
        (mutex, {"n": 1}),
        (mutex, {"n": 2}),
        (mutex, {"n": 3}),
    ]
    for d, binding in cases:
        assert equivalence_holds(d, binding), (d.name, binding)


def test_equivalence_exhaustive_inside_envelope():
    """Every encodable single-motif diagram (n, m, d <= 3, any typings) inside
    the encoder envelope has macro semantics equal to diagram semantics."""
    checked = 0
    for specs, typings in iter_typed_motif_space(3):
        d = single_motif_diagram(specs, typings)
        if not dg.check_encodable(d, {}).overall:
            continue
        if not in_encoder_envelope(specs, typings):
            continue
        assert equivalence_holds(d, {}), (specs, typings)
        checked += 1
    assert checked > 100  # the envelope is not trivially small


def test_validator_warns_exactly_outside_the_envelope():
    """On every encodable sweep shape (n, m, d <= 3, any typings) validation
    warns iff the shape lies outside the encoder envelope iff the macro set
    differs from the diagram set."""
    shapes = warned = 0
    for specs, typings in iter_typed_motif_space(3):
        d = single_motif_diagram(specs, typings)
        if not dg.check_encodable(d, {}).overall:
            continue
        warns = bool(validate_diagram(d))
        assert warns == (not in_encoder_envelope(specs, typings)), (specs, typings)
        assert warns == (not equivalence_holds(d, {})), (specs, typings)
        shapes += 1
        warned += warns
    assert (shapes, warned) == (136, 24)


def test_known_gaps_outside_envelope():
    """Documented limits of the dash/trigger branches: a singleton motif with
    multiplicity 2 yields pair interactions in the diagram but lone ports in
    the macros; a trigger motif with a strictly partial multi-unit end cannot
    bound participation."""
    singleton = single_motif_diagram([(2, 2, 1)], [SYNCHRON])
    assert dg.check_encodable(singleton, {}).overall
    assert not equivalence_holds(singleton, {})

    partial = single_motif_diagram([(3, 2, 2), (1, 1, 3)], [SYNCHRON, TRIGGER])
    assert dg.check_encodable(partial, {}).overall
    assert not equivalence_holds(partial, {})


def test_equivalence_on_randomized_encodable_diagrams():
    """100 random draws from the encodable envelope (the acceptance form)."""
    rng = random.Random(0xB1BC0DE)
    accepted = 0
    while accepted < 100:
        d = random_encodable_diagram(rng)
        if d is None:
            continue
        assert dg.check_encodable(d, {}).overall
        assert equivalence_holds(d, {})
        accepted += 1
