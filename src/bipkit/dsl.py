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
    guardExpr     ::= standard precedence ! > & > |, parentheses override;
                      at most 100 operators (!, &, | and "(") per guard

Comments run from "//" to end of line.  A transition with no leading label
is internal; a label naming a spontaneous event is spontaneous; a label
naming a port is enforceable.  An omitted end typing defaults to synchron.

Parsing stops at the first error: :class:`ParseFailure` holds one
:class:`ParseError`, located at the start (line and column) of the token
it is about; every construct's span is its start too.  A guard expression
parses on its own with ``parse_guard_expr(text)``; whether its atoms are
declared guards is model validation's to check (UNDECLARED_GUARD).
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from typing import NamedTuple, Optional

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

# The most operators (!, &, | and "(") in one guard: every recursive walk
# over a guard's tree stays far below Python's recursion limit.
MAX_GUARD_OPERATORS = 100
# The most characters of a token a parse error echoes.
MAX_ECHO = 32

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


def _echo(text: str) -> str:
    """A token as a parse error shows it: its repr, or for a token of more
    than MAX_ECHO characters that of its first MAX_ECHO and its length."""
    if len(text) <= MAX_ECHO:
        return repr(text)
    return f"{text[:MAX_ECHO]!r}... ({len(text)} characters)"


class ParseFailure(BipError):
    """A model or expression that cannot be parsed: ``error`` is the first
    error, where parsing stopped.  There is no partial result."""

    def __init__(self, error: ParseError):
        self.error = error
        super().__init__(str(error))


# One alternative per token kind, named as the kind; "skip" is whitespace or
# a comment, and "bad" any character no other alternative takes.
_TOKEN_RE = re.compile(
    r"""
    (?P<skip>[ \t\r]+|//[^\n]*)
  | (?P<nl>\n)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<int>[0-9]+)
  | (?P<punct>->|[{}\[\]():;,.*!&|-])
  | (?P<bad>.)
    """,
    re.VERBOSE,
)

IDENT = "ident"
INT = "int"
PUNCT = "punct"
EOF = "eof"


class _Token(NamedTuple):
    kind: str
    text: str
    line: int
    col: int

    def span(self, file: str) -> SourceSpan:
        return SourceSpan(file, self.line, self.col)


def _tokenize(text: str, file: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, line_start = 1, 0  # line_start: offset of the line's first character
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "nl":
            line, line_start = line + 1, m.end()
        elif kind == "bad":
            span = SourceSpan(file, line, m.start() - line_start + 1)
            raise ParseFailure(ParseError(span, "a token", repr(m.group())))
        elif kind != "skip":
            tokens.append(_Token(kind, m.group(), line, m.start() - line_start + 1))
    tokens.append(_Token(EOF, "", line, len(text) - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], file: str):
        self.tokens = tokens
        self.file = file
        self.pos = 0
        self.operators = 0  # in the guard being parsed

    def peek(self) -> _Token:
        return self.tokens[self.pos]

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
        found = _echo(tok.text) if tok.kind != EOF else "end of input"
        raise ParseFailure(ParseError(tok.span(self.file), expected, found))

    def expect(self, kind: str, text: Optional[str] = None) -> _Token:
        if not self.at(kind, text):
            self.fail(f"'{text}'" if text else kind)
        return self.advance()

    def expect_ident(self, what: str = "an identifier") -> _Token:
        if not self.at(IDENT) or self.peek().text in KEYWORDS:
            self.fail(what)
        return self.advance()

    def accept(self, kind: str, text: str) -> bool:
        """Consume the next token if it is ``text``; say whether it was."""
        if self.at(kind, text):
            self.advance()
            return True
        return False

    # ---- grammar productions -------------------------------------------

    def diagram(self) -> ArchitectureDiagram:
        start = self.expect(IDENT, "diagram")
        name = self.expect_ident("a diagram name")
        self.expect(PUNCT, "{")
        component_types = []
        while self.at(IDENT, "component"):
            component_types.append(self.component_type())
        motifs = []
        while self.at(IDENT, "motif"):
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
        start = self.expect(IDENT, "component")
        name = self.expect_ident("a component type name")
        self.expect(PUNCT, "[")
        cardinality = self.card_expr()
        self.expect(PUNCT, "]")
        self.expect(PUNCT, "{")

        self.expect(IDENT, "ports")
        ports = self.ident_set("a port name")
        events: frozenset[str] = frozenset()
        guards: frozenset[str] = frozenset()
        if self.accept(IDENT, "events"):
            events = self.ident_set("an event name")
        if self.accept(IDENT, "guards"):
            guards = self.ident_set("a guard name")

        self.expect(IDENT, "states")
        self.expect(PUNCT, "{")
        states: list[str] = []
        initial: list[str] = []
        while True:
            state = self.expect_ident("a state name")
            states.append(state.text)
            if self.accept(PUNCT, "*"):
                initial.append(state.text)
            if not self.accept(PUNCT, ","):
                break
        self.expect(PUNCT, "}")

        self.expect(IDENT, "transitions")
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
        while self.accept(PUNCT, ","):
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
        if self.accept(PUNCT, "["):
            self.operators = 0
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
                ParseError(start.span(self.file), "a declared port or event name", _echo(label))
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
        start = self.expect(IDENT, "motif")
        name = self.expect_ident("a motif name")
        self.expect(PUNCT, "{")
        ends = [self.motif_end()]
        while self.accept(PUNCT, ";"):
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
            tok = self.advance()
            try:
                return CardExpr.lit(int(tok.text))
            except ValueError:  # more digits than int() converts, a limit the environment sets
                raise ParseFailure(ParseError(
                    tok.span(self.file), f"an integer of at most {sys.get_int_max_str_digits()} "
                    "digits", f"one of {len(tok.text)} digits")) from None
        if self.at(IDENT) and self.peek().text not in KEYWORDS:
            return CardExpr.var(self.advance().text)
        self.fail("an integer or parameter name")

    # Guard expressions: ! binds tightest, then &, then |; both binary
    # operators are left-associative.

    def operator(self, text: str) -> bool:
        """Consume the guard operator ``text`` if it is next, failing at the
        one past MAX_GUARD_OPERATORS."""
        if self.at(PUNCT, text):
            self.operators += 1
            if self.operators > MAX_GUARD_OPERATORS:
                self.fail(f"at most {MAX_GUARD_OPERATORS} operators in a guard")
        return self.accept(PUNCT, text)

    def guard_expr(self) -> GuardExpr:
        expr = self.guard_term()
        while self.operator("|"):
            expr = GuardOr(expr, self.guard_term())
        return expr

    def guard_term(self) -> GuardExpr:
        expr = self.guard_factor()
        while self.operator("&"):
            expr = GuardAnd(expr, self.guard_factor())
        return expr

    def guard_factor(self) -> GuardExpr:
        if self.operator("!"):
            return GuardNot(self.guard_factor())
        if self.operator("("):
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
        span = SourceSpan(str(path), line, column)
        found = f"byte 0x{data[exc.start]:02x}"
        raise ParseFailure(ParseError(span, "UTF-8 text", found)) from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def load_model(path) -> ArchitectureDiagram:
    """Read and parse a model file; I/O problems surface as OSError."""
    return parse_model(read_text(path), filename=str(path))


def parse_guard_expr(text: str, filename: str = "<guard>") -> GuardExpr:
    """Parse a guard expression on its own; its atoms are not checked."""
    parser = _Parser(_tokenize(text, filename), filename)
    expr = parser.guard_expr()
    parser.expect(EOF)
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
