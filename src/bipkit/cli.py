"""Command-line front end: check, instantiate, encode, run, oracle.

Exit codes: 0 success; 1 validation or encodability failure; 2 parse error;
3 capacity or livelock error, or out of memory; 4 usage error.  Every
number the command line reads is ASCII digits after an optional minus, as
in a model file.  The environment variable BIPKIT_MAX_NODES overrides the
enumeration search bound.  ``oracle MODEL`` and ``oracle --sweep`` report
a motif or point whose search exceeds that bound as unknown and go on;
each exits 1 if any motif or point disagrees, else 3 if any is unknown,
else 0.  ``oracle --sweep "n,m,d<=K"`` searches K^3 + K^6 points and exits
3 before the first when they are more than 100,000 (K at most 6).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import __version__
from . import diagram as diagram_mod
from . import engine as engine_mod
from .dsl import ParseFailure, load_model, read_text
from .encoder import emit_macros_text, emit_xml, encode_macros, export_behavior_json
from .errors import (
    CapacityError,
    EncodabilityError,
    LivelockError,
    MacroEncodingError,
    ScriptError,
)
from .model import ArchitectureDiagram, ERROR, ValidationIssue, validate_model

OK = 0
FAILURE = 1
PARSE_ERROR = 2
CAPACITY = 3
USAGE = 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE)


class UsageError(Exception):
    pass


class InvalidModel(Exception):
    """A model with validation errors; ``main`` prints them and exits 1."""

    def __init__(self, issues):
        super().__init__(issues)
        self.issues = issues


def _integer(text: str, low: Optional[int] = None, high: Optional[int] = None) -> int:
    """``text`` as an integer in [low, high], written as a model file writes
    one: ASCII digits after an optional minus.  Else a ValueError says why."""
    try:
        if not re.fullmatch(r"-?[0-9]+", text):
            raise ValueError
        value = int(text)  # also refuses more digits than int() converts
    except ValueError:
        raise ValueError(f"{text!r} is not an integer") from None
    if (low is not None and value < low) or (high is not None and value > high):
        span = f"at least {low}" if high is None else f"in [{low}, {high}]"
        raise ValueError(f"{value} is not {span}")
    return value


def _int_in(low: int, high: Optional[int] = None):
    """An argparse ``type=`` for integers in [low, high]."""

    def parse(text: str) -> int:
        try:
            return _integer(text, low, high)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return parse


def _max_nodes() -> int:
    raw = os.environ.get("BIPKIT_MAX_NODES")
    try:
        return diagram_mod.DEFAULT_MAX_NODES if raw is None else _integer(raw, 1)
    except ValueError:
        raise UsageError(f"BIPKIT_MAX_NODES must be a positive integer, got {raw!r}") from None


def _parse_bindings(pairs: Sequence[str]) -> dict[str, int]:
    binding: dict[str, int] = {}
    for pair in pairs:
        name, sep, value = pair.partition("=")
        if not sep or not name:
            raise UsageError(f"--bind expects name=value, got {pair!r}")
        if name in binding:
            raise UsageError(f"--bind {name}: given more than once")
        try:
            binding[name] = _integer(value)
        except ValueError as exc:
            raise UsageError(f"--bind {name}: {exc}") from None
    return binding


def _load_bound(
    args, partial: bool = False
) -> tuple[ArchitectureDiagram, Optional[dict[str, int]], list[ValidationIssue]]:
    """Every model command's prelude: the model, its binding and its
    validation issues.

    A ``--bind`` that ``diagram.check_binding`` rejects is a usage error,
    raised before validation.  With ``partial`` (``check`` and ``encode``),
    an empty ``--bind`` may leave parameters unbound: the binding is then
    None, and the caller reports the issues.  Without it, a model with
    validation errors raises InvalidModel."""
    d = load_model(Path(args.file))
    binding = _parse_bindings(args.bind)
    try:
        diagram_mod.check_binding(d, binding)
    except KeyError as exc:
        if binding or not partial:
            raise UsageError(f"{exc.args[0]} (use --bind name=value)") from None
        binding = None
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    issues = validate_model(d)
    if not partial and any(i.severity == ERROR for i in issues):
        raise InvalidModel(issues)
    return d, binding, issues


def _print_issues(issues) -> None:
    for issue in issues:
        print(str(issue))


def _report_rows(report: diagram_mod.EncodabilityReport) -> list[dict]:
    return [
        {
            "motif": e.motif,
            "port": str(e.port),
            "n": e.cardinality,
            "m": e.multiplicity,
            "d": e.degree,
            "factor": str(e.factor),
            "max_connectors": e.connectors,
            "multiplicity_ok": e.multiplicity_ok,
            "factor_ok": e.factor_ok,
        }
        for e in report.ends
    ]


def _print_report(report: diagram_mod.EncodabilityReport) -> None:
    print(f"{'motif':<12} {'port':<20} {'n':>3} {'m':>3} {'d':>3} {'s':>6} {'max':>5}  verdict")
    for e in report.ends:
        if e.ok:
            verdict = "ok"
        else:
            parts = []
            if not e.multiplicity_ok:
                parts.append(f"m={e.multiplicity} > n={e.cardinality}")
            if not e.factor_ok:
                parts.append(f"s={e.factor}, required {e.connectors}")
            verdict = "; ".join(parts)
        print(
            f"{e.motif:<12} {str(e.port):<20} {e.cardinality:>3} {e.multiplicity:>3} "
            f"{e.degree:>3} {str(e.factor):>6} {e.connectors:>5}  {verdict}"
        )
    print("encodable" if report.overall else "not encodable: no unique architecture")


def _write_output(path: Path, content: str, force: bool) -> None:
    if path.exists() and not force:
        raise UsageError(f"{path} exists; pass --force to overwrite")
    path.write_text(content, encoding="utf-8")


def cmd_check(args) -> int:
    d, binding, issues = _load_bound(args, partial=True)
    payload: dict = {
        "issues": [
            {
                "severity": i.severity,
                "code": i.code,
                "location": i.location,
                "message": i.message,
                "span": str(i.span) if i.span else None,
            }
            for i in issues
        ]
    }
    if not args.json:
        _print_issues(issues)
    failed = any(i.severity == ERROR for i in issues)
    if binding is not None and not failed:
        report = diagram_mod.check_encodable(d, binding)
        payload["encodability"] = {"overall": report.overall, "ends": _report_rows(report)}
        if not args.json:
            _print_report(report)
        if not report.overall:
            failed = True
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    return FAILURE if failed else OK


def cmd_instantiate(args) -> int:
    d, binding, _ = _load_bound(args)
    results, combos, truncated = diagram_mod.configuration_product(
        d, binding, args.limit, _max_nodes())
    # Each connector some configuration uses is rendered once; a line is
    # the texts of its motifs' connectors, sorted together.
    names = [{i: str(c) for i, c in result.connectors().items()} for result in results]
    rendered = (sorted([names[m][i] for m, j in enumerate(combo) for i in results[m].found[j]])
                for combo in combos)
    if args.json:
        out = json.dumps({"configurations": list(rendered), "count": len(combos),
                          "truncated": truncated}, indent=2, sort_keys=True) + "\n"
    else:
        lines = [f"configuration {i}: {' '.join(c)}\n" for i, c in enumerate(rendered, 1)]
        lines.append(f"{len(lines)} configuration{'s' * (len(lines) != 1)}"
                     f"{' (truncated)' * truncated}\n")
        out = "".join(lines)
    sys.stdout.write(out)
    return OK


_FORMATS = {
    "macros": (".macros.txt", lambda d: emit_macros_text(encode_macros(d))),
    "xml": (".glue.xml", lambda d: emit_xml(encode_macros(d))),
    "behavior-json": (".behavior.json", lambda d: export_behavior_json(d.component_types)),
}


def cmd_encode(args) -> int:
    d, binding, issues = _load_bound(args, partial=True)
    _print_issues(issues)
    if any(i.severity == ERROR for i in issues):
        return FAILURE

    if binding is not None:
        report = diagram_mod.check_encodable(d, binding)
        if not report.overall:
            print(f"warning: the tested binding fails the uniqueness conditions "
                  f"({report.failing_ends})")

    suffix, render = _FORMATS[args.format]
    content = render(d)
    out = Path(args.out) if args.out else Path(Path(args.file).stem + suffix)
    _write_output(out, content, args.force)
    print(str(out))
    return OK


def cmd_run(args) -> int:
    d, binding, _ = _load_bound(args)
    report = diagram_mod.check_encodable(d, binding)
    if not report.overall:
        print(f"not encodable: {report.failing_ends}")
        return FAILURE

    script = None
    if args.events:
        text = read_text(args.events)
        try:
            script = engine_mod.EventScript.from_json(text)
        except json.JSONDecodeError as exc:
            print(f"{args.events}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}",
                  file=sys.stderr)
            return PARSE_ERROR
        except RecursionError:
            print(f"{args.events}: invalid JSON: nested too deeply", file=sys.stderr)
            return PARSE_ERROR

    config = engine_mod.EngineConfig(cycles=args.cycles, seed=args.seed, policy=args.policy)
    trace = engine_mod.run(d, binding, config, script=script, source=args.source)
    _write_output(Path(args.out), engine_mod.trace_to_json(trace), args.force)

    fired = sum(1 for c in trace["cycles"] if c["interaction"] is not None)
    idle = sum(1 for c in trace["cycles"] if c["idle"])
    print(f"{len(trace['cycles'])} cycles, {fired} interactions fired, {idle} idle")
    print(args.out)
    return OK


def _parse_sweep(text: str) -> int:
    """The K of "n,m,d<=K"; spaces may surround each token but not split K."""
    if not text.replace(" ", "").startswith("n,m,d<="):
        raise UsageError(f'--sweep expects the form "n,m,d<=K", got {text!r}')
    try:
        return _integer(text.partition("=")[2].strip(" "), 1)
    except ValueError:
        raise UsageError(f"sweep bound must be a positive integer in {text!r}") from None


_MARKERS = {True: "ok", False: "DISAGREES", None: "UNKNOWN"}


def _motif_verdict(d, motif, binding, report, limit, max_nodes):
    """A motif's verdict as a sweep point's, with the suffix of a truncated
    count and the capacity message of a search over the bound."""
    label, predicted = f"motif {motif.name}", not report.failures(motif.name)
    try:
        # at least 2 so that a truncated count still separates 1 from many
        result = diagram_mod.enumerate_configurations(
            d, motif, binding, limit=max(2, limit or 1000), max_nodes=max_nodes
        )
    except CapacityError as exc:  # like a sweep point over the bound: unknown, and go on
        return diagram_mod.SweepRecord(label, None, predicted), "", str(exc)
    suffix = "+" if result.truncated else ""
    return diagram_mod.SweepRecord(label, len(result), predicted), suffix, ""


def cmd_oracle(args) -> int:
    if bool(args.file) == bool(args.sweep):
        raise UsageError("pass either a model file or --sweep, not both")
    if args.json and not args.sweep:
        raise UsageError("--json needs --sweep; a model file's report is text only")
    if args.sweep and (args.bind or args.limit is not None):
        raise UsageError("--bind and --limit need a model file; --sweep draws its own diagrams")

    max_nodes = _max_nodes()
    if args.sweep:
        bound = _parse_sweep(args.sweep)
        points = bound**3 + bound**6
        if points > diagram_mod.MAX_SWEEP_POINTS:
            raise CapacityError(f"--sweep n,m,d<={bound} has {points} points, more than the bound "
                                f"of {diagram_mod.MAX_SWEEP_POINTS}; lower K")
        records = diagram_mod.proposition_sweep(bound, max_nodes=max_nodes)
        if args.json:
            print(json.dumps([{"point": r.label, "count": r.count, "unique": r.encodable,
                               "agree": r.agree} for r in records], indent=2))
        verdicts = ((r, "", "") for r in records)
    else:
        d, binding, _ = _load_bound(args)
        report = diagram_mod.check_encodable(d, binding)
        verdicts = (_motif_verdict(d, motif, binding, report, args.limit, max_nodes)
                    for motif in d.motifs)
    # one pass for both modes, each motif's line printed as its search ends
    disagreements = unknown = 0
    for r, suffix, message in verdicts:
        if message:
            print(message, file=sys.stderr)
        disagreements += r.agree is False
        unknown += r.count is None
        if not args.json:
            count = "?" if r.count is None else f"{r.count}{suffix}"
            print(f"{r.label}: count={count} unique-predicted={r.encodable} {_MARKERS[r.agree]}")
    if args.sweep and not args.json:
        print(f"{len(records)} points, {disagreements} disagreements"
              + (f", {unknown} unknown (raise BIPKIT_MAX_NODES)" if unknown else ""))
    return FAILURE if disagreements else CAPACITY if unknown else OK


def _add_common(p) -> None:
    p.add_argument("file", help="model file (.bip)")
    p.add_argument(
        "--bind",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="bind a cardinality parameter (repeatable)",
    )


def _add_check(sub) -> None:
    p_check = sub.add_parser("check", help="validate a model; with a full binding, "
                             "also report the encodability conditions")
    _add_common(p_check)
    p_check.add_argument("--json", action="store_true", help="machine-readable output")
    p_check.set_defaults(func=cmd_check)


def _add_instantiate(sub) -> None:
    p_inst = sub.add_parser("instantiate", help="enumerate the configurations of a diagram")
    _add_common(p_inst)
    p_inst.add_argument(
        "--limit", type=_int_in(1), default=100, help="stop after this many (default 100)"
    )
    p_inst.add_argument("--json", action="store_true", help="machine-readable output")
    p_inst.set_defaults(func=cmd_instantiate)


def _add_encode(sub) -> None:
    p_enc = sub.add_parser("encode", help="emit macros, glue XML, or behavior JSON")
    _add_common(p_enc)
    p_enc.add_argument("--format", required=True, choices=sorted(_FORMATS))
    p_enc.add_argument("--out", help="output path (defaults beside the input)")
    p_enc.add_argument("--force", action="store_true", help="overwrite an existing output file")
    p_enc.set_defaults(func=cmd_encode)


def _add_run(sub) -> None:
    p_run = sub.add_parser("run", help="execute an instantiated system, writing a JSON trace")
    _add_common(p_run)
    p_run.add_argument(
        "--cycles", type=_int_in(0, engine_mod.DEFAULT_MAX_CYCLES), required=True
    )
    p_run.add_argument("--seed", type=_int_in(0, engine_mod.MASK64), default=0)
    p_run.add_argument("--events", help="event script JSON")
    p_run.add_argument(
        "--policy", choices=engine_mod.POLICIES, default=engine_mod.UNIFORM_RANDOM
    )
    p_run.add_argument(
        "--source",
        choices=(engine_mod.DIAGRAM_SOURCE, engine_mod.MACRO_SOURCE),
        default=engine_mod.DIAGRAM_SOURCE,
        help="where the allowed interaction set comes from",
    )
    p_run.add_argument("--out", required=True, help="trace output path")
    p_run.add_argument("--force", action="store_true", help="overwrite an existing output file")
    p_run.set_defaults(func=cmd_run)


def _add_oracle(sub) -> None:
    p_orc = sub.add_parser(
        "oracle",
        help="cross-check brute-force enumeration against the uniqueness conditions",
    )
    p_orc.add_argument("file", nargs="?", help="model file (.bip)")
    p_orc.add_argument("--bind", action="append", default=[], metavar="NAME=VALUE")
    p_orc.add_argument("--sweep", metavar='"n,m,d<=K"', help="sweep all small single-motif diagrams")
    p_orc.add_argument("--limit", type=_int_in(1))  # 1000 in file mode; the sweep takes none
    p_orc.add_argument("--json", action="store_true")
    p_orc.set_defaults(func=cmd_oracle)


# Each sub-command and the function that registers its parser, in help order.
_SUBCOMMANDS = {
    "check": _add_check,
    "instantiate": _add_instantiate,
    "encode": _add_encode,
    "run": _add_run,
    "oracle": _add_oracle,
}


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The argument parser with every sub-command, or only with ``command``.

    Building one sub-parser instead of five is most of a short command's own
    time.  The choices shown in the usage line are fixed, so the top-level
    usage text is the same either way."""
    parser = _Parser(prog="bipkit", description=__doc__)
    parser.add_argument("--version", action="version", version=f"bipkit {__version__}")
    # With every sub-command registered, argparse derives the metavar and
    # names the argument "command" in its errors; keep that text as it is.
    metavar = None if command is None else "{" + ",".join(_SUBCOMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, add in _SUBCOMMANDS.items():
        if command in (None, name):
            add(sub)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # --help, --version, no argument or a misspelt command need every
    # sub-command; a named one needs only its own parser.
    parser = build_parser(argv[0] if argv and argv[0] in _SUBCOMMANDS else None)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else OK
    try:
        return args.func(args)
    except MemoryError:
        # Reported after the try, once the frames that the traceback holds are
        # freed; until then no other except clause or message may fit.
        pass
    except ParseFailure as exc:
        print(str(exc), file=sys.stderr)
        return PARSE_ERROR
    except (CapacityError, LivelockError) as exc:
        print(str(exc), file=sys.stderr)
        return CAPACITY
    except (EncodabilityError, MacroEncodingError, ScriptError) as exc:
        print(str(exc), file=sys.stderr)
        return FAILURE
    except UsageError as exc:
        print(f"bipkit: error: {exc}", file=sys.stderr)
        return USAGE
    except InvalidModel as exc:
        _print_issues(exc.issues)
        return FAILURE
    except OSError as exc:
        print(f"bipkit: cannot read or write: {exc}", file=sys.stderr)
        return USAGE
    print("bipkit: out of memory; lower the --bind values or raise the process's "
          "memory limit", file=sys.stderr)
    return CAPACITY


if __name__ == "__main__":
    sys.exit(main())
