"""Encode a diagram into Require/Accept macros; emit text, XML, behavior JSON.

The encoding makes one pass over the motifs in name order and gives each
end's port type:

  * singleton motif: dash in both the require and accept sets;
  * accept side: all motif port types, including the port itself when its
    multiplicity exceeds one, excluding it otherwise;
  * require side: dash when the port is a trigger; one option per trigger
    port type (containing that trigger once, as a presence-only option) when
    the motif has triggers and the port is a synchron; otherwise a single
    counted option holding every other port type as many times as its
    multiplicity plus the port's own type multiplicity-minus-one times.

A port sitting in several motifs accumulates options in motif order, each
kept once at its first place, and the union of the accepted sets; the
encoding is binding-independent, so all multiplicities must be literals.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Sequence

from .errors import MacroEncodingError
from .logic import AcceptRule, RequireOption, RequireRule
from .model import (
    ArchitectureDiagram,
    ComponentType,
    PortTypeRef,
    TRIGGER,
)


@dataclass(frozen=True)
class MacroSpec:
    """One require rule and one accept rule per port type used in a motif."""

    requires: tuple[RequireRule, ...]
    accepts: tuple[AcceptRule, ...]

    def __post_init__(self):
        object.__setattr__(self, "requires", tuple(sorted(self.requires, key=lambda r: r.effect)))
        object.__setattr__(self, "accepts", tuple(sorted(self.accepts, key=lambda r: r.effect)))

    @property
    def port_types(self) -> tuple[PortTypeRef, ...]:
        return tuple(rule.effect for rule in self.requires)

    def require_for(self, ref: PortTypeRef) -> RequireRule:
        for rule in self.requires:
            if rule.effect == ref:
                return rule
        raise KeyError(f"no require rule for {ref}")

    def accept_for(self, ref: PortTypeRef) -> AcceptRule:
        for rule in self.accepts:
            if rule.effect == ref:
                return rule
        raise KeyError(f"no accept rule for {ref}")


def encode_macros(d: ArchitectureDiagram) -> MacroSpec:
    """Require/Accept rules for every port type appearing in some motif, in
    one pass over the motifs in name order."""
    options: dict[PortTypeRef, dict[RequireOption, None]] = {}
    accepted: dict[PortTypeRef, set[PortTypeRef]] = {}
    dash = RequireOption.dash()
    for motif in d.motifs:
        multiplicity: dict[PortTypeRef, int] = {}
        for end in motif.ends:
            expr = end.multiplicity
            if not expr.is_literal:
                raise MacroEncodingError(
                    f"multiplicity of {end.port} in motif {motif.name} is the parameter "
                    f"{expr.param!r}; the macro encoding needs literal multiplicities"
                )
            multiplicity[end.port] = expr.literal
        ports = multiplicity.keys()
        triggers = dict.fromkeys(RequireOption.trigger(q) for q in
                                 sorted(e.port for e in motif.ends if e.typing == TRIGGER))

        for end in motif.ends:
            p, m_p = end.port, multiplicity[end.port]
            rule = options.setdefault(p, {})
            accepts = accepted.setdefault(p, set())
            if len(ports) > 1:
                accepts.update(ports if m_p > 1 else ports - {p})
            if len(ports) == 1 or end.typing == TRIGGER:
                rule[dash] = None
            elif triggers:
                rule.update(triggers)
            else:
                counts = {q: m for q, m in multiplicity.items() if q != p}
                if m_p > 1:
                    counts[p] = m_p - 1
                rule[RequireOption.counted(counts)] = None

    return MacroSpec(
        requires=tuple(RequireRule(p, tuple(rule)) for p, rule in options.items()),
        accepts=tuple(AcceptRule(p, frozenset(accepts)) for p, accepts in accepted.items()),
    )


# ---- macro text -------------------------------------------------------------


def _option_text(option: RequireOption) -> str:
    if option.is_dash:
        return "-"
    return " ".join(str(ref) for ref, count in option.ports for _ in range(count))


def emit_macros_text(spec: MacroSpec) -> str:
    """One rule per line in the inline notation; require before accept per
    port; rules sorted by component type, then port."""
    lines = []
    for ref in spec.port_types:
        require = spec.require_for(ref)
        accept = spec.accept_for(ref)
        lines.append(f"{ref} Require " + " ; ".join(_option_text(o) for o in require.options))
        accepted = " ".join(str(r) for r in sorted(accept.accepted)) if accept.accepted else "-"
        lines.append(f"{ref} Accept {accepted}")
    return "\n".join(lines) + "\n"


# ---- XML --------------------------------------------------------------------


def emit_xml(spec: MacroSpec) -> str:
    """Glue XML: per port type one <require> and one <accept> element.

    Each require option becomes its own <causes> block (empty for dash);
    presence-only trigger options carry mode="trigger" so the rule structure
    survives a round-trip through a generic XML reader.
    """
    # imported here: xml.sax.saxutils imports urllib.request, which every
    # other command would pay for
    from xml.sax.saxutils import quoteattr

    def element(tag: str, ref: PortTypeRef, indent: str) -> str:
        return f"{indent}<{tag} id={quoteattr(ref.port)} specType={quoteattr(ref.component_type)}/>"

    lines = ["<glue>"]
    for ref in spec.port_types:
        effect = element("effect", ref, "    ")

        lines.append("  <require>")
        lines.append(effect)
        for option in spec.require_for(ref).options:
            attr = "" if option.exact else ' mode="trigger"'
            lines.append(f"    <causes{attr}>")
            for port, count in option.ports:
                for _ in range(count):
                    lines.append(element("port", port, "      "))
            lines.append("    </causes>")
        lines.append("  </require>")

        lines.append("  <accept>")
        lines.append(effect)
        lines.append("    <causes>")
        for port in sorted(spec.accept_for(ref).accepted):
            lines.append(element("port", port, "      "))
        lines.append("    </causes>")
        lines.append("  </accept>")
    lines.append("</glue>")
    return "\n".join(lines) + "\n"


def parse_macros_xml(text: str) -> MacroSpec:
    """Rebuild a MacroSpec from emitted glue XML (used for round-trip checks)."""
    import xml.etree.ElementTree as ET

    def ref(element) -> PortTypeRef:
        return PortTypeRef(element.get("specType"), element.get("id"))

    root = ET.fromstring(text)
    requires: list[RequireRule] = []
    accepts: list[AcceptRule] = []
    for element in root:
        effect = ref(element.find("effect"))
        causes = element.findall("causes")
        if element.tag == "require":
            options = tuple(
                RequireOption(ports=tuple((ref(port), 1) for port in block.findall("port")),
                              exact=block.get("mode") != "trigger")
                for block in causes
            )
            requires.append(RequireRule(effect=effect, options=options))
        elif element.tag == "accept":
            accepted = frozenset(ref(port) for block in causes for port in block.findall("port"))
            accepts.append(AcceptRule(effect=effect, accepted=accepted))
        else:
            raise ValueError(f"unexpected element <{element.tag}> in glue XML")
    return MacroSpec(requires=tuple(requires), accepts=tuple(accepts))


# ---- behavior JSON ----------------------------------------------------------


def behavior_dict(ct: ComponentType) -> dict:
    return {
        "name": ct.name,
        "cardinality": ct.cardinality.literal
        if ct.cardinality.is_literal
        else ct.cardinality.param,
        "initial": ct.initial_state,
        "states": sorted(ct.states),
        "ports": sorted(ct.port_types),
        "events": sorted(ct.spontaneous_events),
        "guards": sorted(ct.guards),
        "transitions": [
            {
                "kind": tr.kind,
                "label": tr.label,
                "source": tr.source,
                "target": tr.destination,
                "guard": str(tr.guard) if tr.guard is not None else None,
            }
            for tr in ct.transitions
        ],
    }


def export_behavior_json(cts: Sequence[ComponentType]) -> str:
    """Neutral JSON export of component behaviors, one element per type.

    Callers are expected to have validated the types: the export reads the
    unique initial state.
    """
    entries = [behavior_dict(ct) for ct in sorted(cts, key=lambda c: c.name)]
    return json.dumps(entries, indent=2, sort_keys=True) + "\n"
