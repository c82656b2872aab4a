"""Textual concrete syntax for architecture models (`.bip` files).

Grammar (normative for this toolchain):

    diagram       ::= "diagram" ident "{" componentType* motif* "}"
    componentType ::= "component" ident "[" cardExpr "]" "{"
                        "ports" "{" identList "}"
                        ("events" "{" identList "}")?
                        ("guards" "{" identList "}")?
                        "states" "{" stateList "}"
                        "transitions" "{" transition* "}"
                      "}"
    stateList     ::= (ident "*"?),+          -- "*" marks the initial state
    transition    ::= ident? ":" ident "->" ident ("[" guardExpr "]")?
    motif         ::= "motif" ident "{" end (";" end)* "}"
    end           ::= ident "." ident cardExpr ":" cardExpr ("trigger" | "synchron")?
    cardExpr      ::= integer | ident
    guardExpr     ::= standard precedence ! > & > |, parentheses override

Comments run from "//" to end of line.  A transition with no leading label
is internal; a label naming a spontaneous event is spontaneous; a label
naming a port is enforceable.  An omitted end typing defaults to synchron.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import BipError
from .model import (
    ArchitectureDiagram,
    CardExpr,
    ComponentType,
    ConnectorMotif,
    ENFORCEABLE,
    GuardAnd,
    GuardAtom,
    GuardExpr,
    GuardNot,
    GuardOr,
    INTERNAL,
    MotifEnd,
    PortTypeRef,
    SourceSpan,
    SPONTANEOUS,
    SYNCHRON,
    Transition,
)

KEYWORDS = frozenset(
    {
        "diagram",
        "component",
        "ports",
        "events",
        "guards",
        "states",
        "transitions",
        "motif",
        "trigger",
        "synchron",
    }
)


@dataclass(frozen=True)
class ParseError:
    span: SourceSpan
    expected: str
    found: str

    def __str__(self) -> str:
        return f"{self.span}: expected {self.expected}, found {self.found}"


class ParseFailure(BipError):
    """Raised when a model or expression cannot be parsed; no partial result."""

    def __init__(self, errors: Sequence[ParseError]):
        self.errors = list(errors)
        super().__init__("; ".join(str(e) for e in self.errors))


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[ \t\r]+)
  | (?P<comment>//[^\n]*)
  | (?P<nl>\n)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<int>[0-9]+)
  | (?P<arrow>->)
  | (?P<punct>[{}\[\]():;,.*!&|-])
    """,
    re.VERBOSE,
)

IDENT = "ident"
INT = "int"
PUNCT = "punct"
EOF = "eof"


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    line: int
    col: int

    def span(self, file: str) -> SourceSpan:
        width = max(len(self.text), 1)
        return SourceSpan(file, self.line, self.col, self.line, self.col + width - 1)


def _tokenize(text: str, file: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col, pos = 1, 1, 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            span = SourceSpan(file, line, col, line, col)
            raise ParseFailure([ParseError(span, "a token", repr(text[pos]))])
        kind = m.lastgroup
        value = m.group()
        if kind == "nl":
            line += 1
            col = 1
        elif kind in ("ws", "comment"):
            col += len(value)
        elif kind == "ident":
            tokens.append(_Token(IDENT, value, line, col))
            col += len(value)
        elif kind == "int":
            tokens.append(_Token(INT, value, line, col))
            col += len(value)
        else:  # arrow or punct
            tokens.append(_Token(PUNCT, value, line, col))
            col += len(value)
        pos = m.end()
    tokens.append(_Token(EOF, "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], file: str):
        self.tokens = tokens
        self.file = file
        self.pos = 0

    def peek(self, ahead: int = 0) -> _Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def at(self, kind: str, text: Optional[str] = None) -> bool:
        tok = self.peek()
        return tok.kind == kind and (text is None or tok.text == text)

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != EOF:
            self.pos += 1
        return tok

    def fail(self, expected: str):
        tok = self.peek()
        found = repr(tok.text) if tok.kind != EOF else "end of input"
        raise ParseFailure([ParseError(tok.span(self.file), expected, found)])

    def expect(self, kind: str, text: Optional[str] = None) -> _Token:
        if not self.at(kind, text):
            self.fail(f"'{text}'" if text else kind)
        return self.advance()

    def expect_ident(self, what: str = "an identifier") -> _Token:
        if not self.at(IDENT) or self.peek().text in KEYWORDS:
            self.fail(what)
        return self.advance()

    def keyword(self, word: str) -> _Token:
        if not (self.at(IDENT) and self.peek().text == word):
            self.fail(f"'{word}'")
        return self.advance()

    # ---- grammar productions -------------------------------------------

    def diagram(self) -> ArchitectureDiagram:
        start = self.keyword("diagram")
        name = self.expect_ident("a diagram name")
        self.expect(PUNCT, "{")
        component_types = []
        while self.at(IDENT) and self.peek().text == "component":
            component_types.append(self.component_type())
        motifs = []
        while self.at(IDENT) and self.peek().text == "motif":
            motifs.append(self.motif())
        self.expect(PUNCT, "}")
        self.expect(EOF)
        return ArchitectureDiagram(
            name=name.text,
            component_types=tuple(component_types),
            motifs=tuple(motifs),
            span=start.span(self.file),
        )

    def component_type(self) -> ComponentType:
        start = self.keyword("component")
        name = self.expect_ident("a component type name")
        self.expect(PUNCT, "[")
        cardinality = self.card_expr()
        self.expect(PUNCT, "]")
        self.expect(PUNCT, "{")

        self.keyword("ports")
        ports = self.ident_set("a port name")
        events: frozenset[str] = frozenset()
        guards: frozenset[str] = frozenset()
        if self.at(IDENT, "events"):
            self.advance()
            events = self.ident_set("an event name")
        if self.at(IDENT, "guards"):
            self.advance()
            guards = self.ident_set("a guard name")

        self.keyword("states")
        self.expect(PUNCT, "{")
        states: list[str] = []
        initial: list[str] = []
        while True:
            state = self.expect_ident("a state name")
            states.append(state.text)
            if self.at(PUNCT, "*"):
                self.advance()
                initial.append(state.text)
            if self.at(PUNCT, ","):
                self.advance()
                continue
            break
        self.expect(PUNCT, "}")

        self.keyword("transitions")
        self.expect(PUNCT, "{")
        transitions = []
        while not self.at(PUNCT, "}"):
            transitions.append(self.transition(ports, events))
        self.expect(PUNCT, "}")
        self.expect(PUNCT, "}")

        return ComponentType(
            name=name.text,
            cardinality=cardinality,
            port_types=ports,
            spontaneous_events=events,
            guards=guards,
            states=frozenset(states),
            initial_states=frozenset(initial),
            transitions=tuple(transitions),
            span=start.span(self.file),
        )

    def ident_set(self, what: str) -> frozenset[str]:
        self.expect(PUNCT, "{")
        names = [self.expect_ident(what).text]
        while self.at(PUNCT, ","):
            self.advance()
            names.append(self.expect_ident(what).text)
        self.expect(PUNCT, "}")
        return frozenset(names)

    def transition(self, ports: frozenset[str], events: frozenset[str]) -> Transition:
        start = self.peek()
        label = ""
        if self.at(IDENT):
            label = self.expect_ident("a transition label").text
        self.expect(PUNCT, ":")
        source = self.expect_ident("a source state").text
        self.expect(PUNCT, "->")
        destination = self.expect_ident("a destination state").text
        guard = None
        if self.at(PUNCT, "["):
            self.advance()
            guard = self.guard_expr()
            self.expect(PUNCT, "]")

        if not label:
            kind = INTERNAL
        elif label in events:
            kind = SPONTANEOUS
        elif label in ports:
            kind = ENFORCEABLE
        else:
            raise ParseFailure(
                [
                    ParseError(
                        start.span(self.file),
                        "a declared port or event name",
                        repr(label),
                    )
                ]
            )
        return Transition(
            kind=kind,
            label=label,
            source=source,
            destination=destination,
            guard=guard,
            span=start.span(self.file),
        )

    def motif(self) -> ConnectorMotif:
        start = self.keyword("motif")
        name = self.expect_ident("a motif name")
        self.expect(PUNCT, "{")
        ends = [self.motif_end()]
        while self.at(PUNCT, ";"):
            self.advance()
            ends.append(self.motif_end())
        self.expect(PUNCT, "}")
        return ConnectorMotif(name=name.text, ends=tuple(ends), span=start.span(self.file))

    def motif_end(self) -> MotifEnd:
        ctype = self.expect_ident("a component type name")
        self.expect(PUNCT, ".")
        port = self.expect_ident("a port name")
        multiplicity = self.card_expr()
        self.expect(PUNCT, ":")
        degree = self.card_expr()
        typing = SYNCHRON
        if self.at(IDENT, "trigger") or self.at(IDENT, "synchron"):
            typing = self.advance().text
        return MotifEnd(
            port=PortTypeRef(ctype.text, port.text),
            multiplicity=multiplicity,
            degree=degree,
            typing=typing,
            span=ctype.span(self.file),
        )

    def card_expr(self) -> CardExpr:
        if self.at(INT):
            return CardExpr.lit(int(self.advance().text))
        if self.at(IDENT) and self.peek().text not in KEYWORDS:
            return CardExpr.var(self.advance().text)
        self.fail("an integer or parameter name")

    # Guard expressions: ! binds tightest, then &, then |; both binary
    # operators are left-associative.

    def guard_expr(self) -> GuardExpr:
        expr = self.guard_term()
        while self.at(PUNCT, "|"):
            self.advance()
            expr = GuardOr(expr, self.guard_term())
        return expr

    def guard_term(self) -> GuardExpr:
        expr = self.guard_factor()
        while self.at(PUNCT, "&"):
            self.advance()
            expr = GuardAnd(expr, self.guard_factor())
        return expr

    def guard_factor(self) -> GuardExpr:
        if self.at(PUNCT, "!"):
            self.advance()
            return GuardNot(self.guard_factor())
        if self.at(PUNCT, "("):
            self.advance()
            expr = self.guard_expr()
            self.expect(PUNCT, ")")
            return expr
        name = self.expect_ident("a guard name")
        return GuardAtom(name.text)


def parse_model(text: str, filename: str = "<string>") -> ArchitectureDiagram:
    """Parse a `.bip` document; raises :class:`ParseFailure` on any syntax error."""
    parser = _Parser(_tokenize(text, filename), filename)
    return parser.diagram()


def read_text(path) -> str:
    """An input file's UTF-8 text, newlines translated as text mode does.
    I/O problems surface as OSError; the first byte that is no UTF-8 raises
    ParseFailure located at its line and byte column."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        column = exc.start - data.rfind(b"\n", 0, exc.start)
        span = SourceSpan(str(path), line, column, line, column)
        found = f"byte 0x{data[exc.start]:02x}"
        raise ParseFailure([ParseError(span, "UTF-8 text", found)]) from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def load_model(path) -> ArchitectureDiagram:
    """Read and parse a model file; I/O problems surface as OSError."""
    return parse_model(read_text(path), filename=str(path))


def parse_guard_expr(
    text: str,
    declared_guards: Optional[frozenset[str]] = None,
    filename: str = "<guard>",
) -> GuardExpr:
    """Parse a guard expression on its own.

    When ``declared_guards`` is given, atoms outside that set fail with an
    UNDECLARED_GUARD parse error; pass None to defer that check to model
    validation.
    """
    parser = _Parser(_tokenize(text, filename), filename)
    expr = parser.guard_expr()
    parser.expect(EOF)
    if declared_guards is not None:
        unknown = sorted(expr.atoms() - declared_guards)
        if unknown:
            span = SourceSpan(filename, 1, 1, 1, max(len(text), 1))
            raise ParseFailure(
                [
                    ParseError(span, "a declared guard name (UNDECLARED_GUARD)", repr(name))
                    for name in unknown
                ]
            )
    return expr


# ---- canonical serialization -------------------------------------------


def _serialize_component(ct: ComponentType, out: list[str]) -> None:
    out.append(f"  component {ct.name} [{ct.cardinality}] {{")
    out.append("    ports { " + ", ".join(sorted(ct.port_types)) + " }")
    if ct.spontaneous_events:
        out.append("    events { " + ", ".join(sorted(ct.spontaneous_events)) + " }")
    if ct.guards:
        out.append("    guards { " + ", ".join(sorted(ct.guards)) + " }")
    states = ", ".join(
        s + ("*" if s in ct.initial_states else "") for s in sorted(ct.states)
    )
    out.append("    states { " + states + " }")
    out.append("    transitions {")
    for tr in ct.transitions:
        guard = f" [{tr.guard}]" if tr.guard is not None else ""
        label = f"{tr.label}" if tr.label else ""
        out.append(f"      {label}: {tr.source} -> {tr.destination}{guard}")
    out.append("    }")
    out.append("  }")


def serialize_model(d: ArchitectureDiagram) -> str:
    """Render a diagram in canonical form: sorted declarations, LF endings.

    ``parse_model(serialize_model(d))`` is structurally equal to ``d``
    (source spans are ignored by equality).
    """
    out: list[str] = [f"diagram {d.name} {{"]
    for ct in d.component_types:
        _serialize_component(ct, out)
    for motif in d.motifs:
        out.append(f"  motif {motif.name} {{")
        for i, end in enumerate(motif.ends):
            sep = ";" if i + 1 < len(motif.ends) else ""
            out.append(
                f"    {end.port} {end.multiplicity}:{end.degree} {end.typing}{sep}"
            )
        out.append("  }")
    out.append("}")
    return "\n".join(out) + "\n"
