"""Command-line front end with JSON/CSV/table output.

Every command renders one structured document:

    {command, inputs, value, induced_minimum?, sharp?, trail: [{name, value, anchor}]}

Rationals are serialised as reduced "num/den" strings (plain "num" when the
denominator is 1), never as floats.  Exit status: 0 success, 2 validation
error (an input too big to compute, or a result with more digits than the
interpreter renders, included), 1 internal consistency failure, or exhausted
memory, recursion depth or index range (an integer too large for a size);
--format json prints failures as {"error": {"kind", "message"}}.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from typing import Sequence

from . import CACHE_ENV, __version__
from .bounds import (
    BoundReport,
    EssentialInput,
    TrailEntry,
    essential_report,
    reproduce_kn,
    reproduce_whitehead,
    shake_bound,
    winding_bound_via_zero_surgery,
)
from .complexes import v_memo, v_sequence
from .errors import InternalCheckError, ValidationError, decimal_int, exact_int, exact_rational
from .knots import parse_knot_expr
from .surgery import _check_term_count, correction_table, d_positive_surgery, kn_seifert, ncf_eval, ncf_expand

A_NIWU = "d(S^3_n(K),t_i) = -2 max{V_i, V_{n-i}} + (n-2i)^2/(4n) - 1/4"
A_SPINC = "spin^c label i has chern number n - 2i"
A_NCF = "[a_1,...,a_k]^- = a_1 - 1/(a_2 - 1/(...))"
A_EULER = "e(M(e0; r_1..r_k)) = e0 + sum r_j"
A_EULER_NEG = "2(2/(4n+3) - 1/(2n+1)) < 0"
A_GENUS = "g(T(p,q)) = (p-1)(q-1)/2, additive over summands"
A_PLUMBING = "plumbing"


def fraction_str(value: Fraction | int) -> str:
    value = exact_rational(value, "fraction_str needs an exact rational")
    try:
        return str(value)  # "num/den" or "num"
    except ValueError:  # a numerator or denominator beyond the interpreter's digit limit
        raise ValidationError(
            f"a result has more than {sys.get_int_max_str_digits()} digits, "
            "the interpreter's limit for integer string conversion"
        ) from None


def _plain(value: object) -> object:
    """JSON form of a value: Fractions as "num/den", containers element-wise."""
    if isinstance(value, Fraction):
        return fraction_str(value)
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_plain(v) for v in value]
    return value


def _scalar_str(value: object) -> str:
    value = _plain(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _report_doc(command: str, report: BoundReport) -> dict:
    """The one document type every command renders."""
    doc: dict = {"command": command, "inputs": _plain(report.inputs), "value": _plain(report.value)}
    if report.induced_minimum is not None:
        doc["induced_minimum"] = report.induced_minimum
    if report.sharp is not None:
        doc["sharp"] = report.sharp
    doc["trail"] = [
        {"name": t.name, "value": _scalar_str(t.value), "anchor": t.anchor}
        for t in report.trail
    ]
    return doc


def _int(text: str) -> int:
    """Type of the integer options: `decimal_int`, the ASCII rule of knot expressions."""
    return decimal_int(text, "not a decimal integer")


_int.__name__ = "int"  # argparse names the type when it rejects a value: "invalid int value: ..."


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse would sys.exit(2); raise instead
        raise ValidationError(message)


_FORMAT = {"choices": ("table", "json", "csv"), "default": "table", "help": "output format (default: table)"}


class _Misplaced(argparse.Action):
    """Every leaf flag before the subcommand, in one action so a build copies one per parser:
    refused by the name it matched, not read as unknown or as another flag's prefix."""

    def __call__(self, parser, namespace, values, option_string=None):
        raise argparse.ArgumentError(None, f"argument {option_string}: put it after the subcommand")


def _spec(*parents: _Parser, add_help: bool = False) -> _Parser:
    """An argument spec: a parser outside the tree that only declares arguments,
    built once, at import.  A parser of the tree names one spec (`parents=`) and
    argparse copies its actions, the same objects into every parser that names it.
    A spec is given a prog so that building it reads no `sys.argv`."""
    return _Parser(prog="knotwind", add_help=add_help, parents=list(parents))


_HELP = _spec(add_help=True)  # `-h`/`--help`, as argparse declares it

# The flags every command takes, with their defaults; `--help` of a leaf lists them first.
_SHARED = _spec(_HELP)
_SHARED.add_argument("--format", **_FORMAT)
# Accepted for command lines written when the CLI had a V-sequence cache, and ignored.
_SHARED.add_argument("--cache", metavar="PATH", help=f"ignored, as is ${CACHE_ENV}: every command computes afresh")
_SHARED.add_argument("--no-cache", action="store_true", help="ignored: there is no cache")

_EXPR = _spec(_SHARED)
_EXPR.add_argument("expr", help="knot expression, e.g. 'T(2,3) # -T(4,5)' or 'U'")

_DINV = _spec(_EXPR)
_DINV.add_argument("--n", type=_int, required=True, help="surgery coefficient (positive)")
_group = _DINV.add_mutually_exclusive_group()
_group.add_argument("--i", type=_int, default=None, help="single spin^c index")
_group.add_argument("--all", action="store_true", help="all indices 0..n-1 (default)")

_ESSENTIAL = _spec(_SHARED)
_ESSENTIAL.add_argument("--w", type=_int, required=True, help="even winding class")
_ESSENTIAL.add_argument("--dtable", required=True, metavar="FILE", help='JSON {"w": int, "d": {...}}')

_FAMILY = _spec(_SHARED)  # the index n of the family K_n
_FAMILY.add_argument("--n", type=_int, required=True)

_COEFFS = _spec(_SHARED)
_COEFFS.add_argument("coeffs")

_VALUE = _spec(_SHARED)
_VALUE.add_argument("value")

# The root and the groups refuse each leaf flag by its exact name, which beats a prefix, and list none.
_MISPLACED = _spec(_HELP)
_LEAF_FLAGS = dict.fromkeys(f for spec in (_DINV, _ESSENTIAL, _FAMILY) for f in spec._option_string_actions
                            if f not in _HELP._option_string_actions)
_MISPLACED.add_argument(*_LEAF_FLAGS, nargs="?", action=_Misplaced, help=argparse.SUPPRESS)

_ROOT = _spec(_MISPLACED)
_ROOT.add_argument("--version", action="version", version=f"%(prog)s {__version__}")

# What `_error_format` reads off a refused line: a malformed `--cache` cannot hide it.
_FORMAT_ONLY = _spec()
_FORMAT_ONLY.add_argument("--format", **_FORMAT)


def build_parser() -> _Parser:
    """The command tree, built afresh on each call; it declares no argument.
    Each of its parsers names one argument spec (`parents=`): the leaves the
    shared flags, `-h` included, with their own arguments after them, so a
    leaf's --help lists the shared flags first; the root and the groups `-h`
    and the leaves' flags they refuse.  A leaf's handler and its document's
    command name, read off its parser path, are its defaults.  Each subcommand
    level is required, so argparse refuses a line without one, and is given
    its parser's prog, which argparse would otherwise derive by formatting a
    usage line (no positional comes before a subcommand, so the two agree)."""

    def leaf(sub, name: str, spec: _Parser, handler, **kwargs) -> _Parser:
        p = sub.add_parser(name, add_help=False, parents=[spec], **kwargs)
        p.set_defaults(handler=handler, command=p.prog.partition(" ")[2])
        return p

    def branch(sub, name: str, metavar: str, **kwargs):
        p = sub.add_parser(name, add_help=False, parents=[_MISPLACED], **kwargs)
        return p.add_subparsers(metavar=metavar, prog=p.prog, required=True)

    parser = _Parser(prog="knotwind", description=__doc__.splitlines()[0], add_help=False, parents=[_ROOT])
    sub = parser.add_subparsers(metavar="COMMAND", prog=parser.prog, required=True)

    leaf(sub, "vseq", _EXPR, _cmd_vseq, help="V-sequence of a knot expression")
    leaf(sub, "dinv", _DINV, _cmd_dinv, help="d-invariants of a positive surgery")

    kinds = branch(sub, "bound", "KIND", help="lower-bound combinators")
    leaf(kinds, "winding", _EXPR, lambda args: winding_bound_via_zero_surgery(parse_knot_expr(args.expr)),
         help="winding bound via the 0-surgery knot J")
    leaf(kinds, "shake", _EXPR, lambda args: shake_bound(parse_knot_expr(args.expr)), help="0-shake genus bound")
    leaf(kinds, "essential", _ESSENTIAL, _cmd_bound_essential, help="essential-class bound from a d-table file")

    kinds = branch(sub, "examples", "NAME", help="built-in worked bound chains")
    leaf(kinds, "kn", _FAMILY, lambda args: reproduce_kn(args.n), help="the sharp family with winding number 4n+2")
    leaf(kinds, "whitehead", _SHARED, lambda args: reproduce_whitehead(), help="the knotified Hopf link bound")

    kinds = branch(sub, "seifert", "NAME", help="Seifert presentations")
    leaf(kinds, "kn", _FAMILY, _cmd_seifert_kn, help="four-fibre presentation of the K_n surgery")

    kinds = branch(sub, "ncf", "OP", help="negative continued fractions")
    leaf(kinds, "eval", _COEFFS, _cmd_ncf_eval, help="evaluate a coefficient list, e.g. 4,2")
    leaf(kinds, "expand", _VALUE, _cmd_ncf_expand, help="expand a rational > 1, e.g. 7/2")

    return parser


def _cmd_vseq(args) -> BoundReport:
    expr = parse_knot_expr(args.expr)
    seq = v_sequence(expr)
    trail = (TrailEntry("path", seq.route, seq.anchor), TrailEntry("genus", expr.genus, A_GENUS))
    return BoundReport(list(seq.values), None, {"expr": str(expr)}, trail)


def _cmd_dinv(args) -> BoundReport:
    expr = parse_knot_expr(args.expr)
    inputs: dict = {"expr": str(expr), "n": args.n}
    if args.i is not None:
        inputs["i"] = args.i
        value = d_positive_surgery(expr, args.n, args.i)
    else:
        value = correction_table(expr, args.n).entries
    trail = (
        TrailEntry("formula", f"n = {args.n}", A_NIWU),
        TrailEntry("labels", "i = 0..n-1", A_SPINC),
    )
    return BoundReport(value, None, inputs, trail)


def _load_dtable(path: str, w: int) -> EssentialInput:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ValidationError(f"cannot read d-table file {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValidationError(f"d-table file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict) or "w" not in raw or "d" not in raw:
        raise ValidationError(f'd-table file {path} must be {{"w": int, "d": {{...}}}}')
    if exact_int(raw["w"], "d-table 'w' must be a JSON integer") != w:
        raise ValidationError(f"--w {w} does not match the file's w = {raw['w']}")
    if not isinstance(raw["d"], dict):
        raise ValidationError("d-table entry 'd' must be an object of residue -> rational")
    return EssentialInput(w, raw["d"])


def _cmd_bound_essential(args) -> BoundReport:
    report = essential_report(_load_dtable(args.dtable, args.w))
    return replace(report, inputs={**report.inputs, "dtable": args.dtable})


def _cmd_seifert_kn(args) -> BoundReport:
    presentation = kn_seifert(args.n)
    euler = presentation.euler_number
    trail = [TrailEntry("e0", presentation.e0, A_PLUMBING)]
    trail += [
        TrailEntry(f"fibre r_{j}", r, A_PLUMBING) for j, r in enumerate(presentation.fibers, 1)
    ]
    trail.append(TrailEntry("euler number", euler, A_EULER))
    trail.append(TrailEntry("euler < 0", euler < 0, A_EULER_NEG))
    return BoundReport(euler, None, {"n": args.n}, tuple(trail))


def _cmd_ncf_eval(args) -> BoundReport:
    parts = args.coeffs.split(",")
    _check_term_count(len(parts))  # before any conversion
    coeffs = [
        decimal_int(part, lambda: f"coefficient list must be comma-separated integers, got {args.coeffs!r}")
        for part in parts
    ]
    value = ncf_eval(coeffs)
    trail = (TrailEntry("definition", value, A_NCF),)
    return BoundReport(value, None, {"coeffs": coeffs}, trail)


def _cmd_ncf_expand(args) -> BoundReport:
    value = exact_rational(args.value, "ncf expand needs a rational number")
    coeffs = ncf_expand(value)
    trail = (TrailEntry("definition", ",".join(map(str, coeffs)), A_NCF),)
    return BoundReport(coeffs, None, {"value": value}, trail)


def _flatten_value(value) -> list[tuple[str, str]]:
    """(name, text) rows of a document's value, as the table and CSV renderers print them."""
    if isinstance(value, dict):
        return [(f"d_{k}", str(v)) for k, v in value.items()]
    if isinstance(value, list):
        return [(f"V_{idx}", str(v)) for idx, v in enumerate(value)]
    return [("value", _scalar_str(value))]


def render_document(doc: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["section", "name", "value", "anchor"])
        for key, val in doc.get("inputs", {}).items():
            writer.writerow(["input", key, _scalar_str(val), ""])
        for name, val in _flatten_value(doc.get("value")):
            writer.writerow(["result", name, val, ""])
        for key in ("induced_minimum", "sharp"):
            if key in doc:
                writer.writerow(["result", key, _scalar_str(doc[key]), ""])
        for entry in doc.get("trail", ()):
            writer.writerow(["trail", entry["name"], entry["value"], entry["anchor"]])
        return buffer.getvalue()
    lines = [f"command: {doc['command']}"]
    for key, val in doc.get("inputs", {}).items():
        lines.append(f"{key}: {_scalar_str(val)}")
    value = doc.get("value")
    if isinstance(value, dict):
        lines.append("value:")
        lines.extend(f"  {name} = {val}" for name, val in _flatten_value(value))
    else:  # a sequence on one line, a scalar as its one row
        lines.append("value: " + " ".join(val for _, val in _flatten_value(value)))
    if "induced_minimum" in doc:
        lines.append(f"induced minimum: {doc['induced_minimum']}")
    if "sharp" in doc:
        lines.append(f"sharp: {_scalar_str(doc['sharp'])}")
    trail = doc.get("trail", ())
    if trail:
        lines.append("trail:")
        lines.extend(f"  {t['name']} = {t['value']}   [{t['anchor']}]" for t in trail)
    return "\n".join(lines) + "\n"


def _error_output(exc: Exception, fmt: str) -> tuple[int, str, str]:
    """(exit status, stdout, stderr) of a failed command."""
    kind = "validation" if isinstance(exc, ValidationError) else (
        "internal" if isinstance(exc, InternalCheckError) else "resource"
    )
    status = 2 if kind == "validation" else 1
    message = str(exc) or type(exc).__name__  # MemoryError() has no text of its own
    if fmt == "json":
        doc = {"error": {"kind": kind, "message": message}}
        return status, json.dumps(doc, indent=2, ensure_ascii=False) + "\n", ""
    return status, "", f"error ({kind}): {message}\n"


def _error_format(argv: Sequence[str]) -> str:
    """`--format` as argparse reads it off a command line it refused (the last one
    given, `--format=` and abbreviations, nothing after `--`); the default if
    the format itself is refused.  It is read through `_FORMAT_ONLY`, a spec of
    that one flag, so another malformed flag, such as `--cache` with no path,
    does not hide the format."""
    try:
        return _FORMAT_ONLY.parse_known_args(list(argv))[0].format
    except ValidationError:
        return _FORMAT["default"]


def run(argv: Sequence[str]) -> tuple[int, str, str]:
    """Execute one command line; returns (exit status, stdout, stderr)."""
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
    except ValidationError as exc:
        return _error_output(exc, _error_format(argv))
    fmt = args.format
    try:
        with v_memo({}):  # each V-sequence once per command: a bound may ask for it twice
            return 0, render_document(_report_doc(args.command, args.handler(args)), fmt), ""
    except (ValidationError, InternalCheckError, MemoryError, RecursionError, OverflowError) as exc:
        return _error_output(exc, fmt)


def main(argv: Sequence[str] | None = None) -> int:
    try:
        status, out, err = run(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:  # --help / --version paths
        code = exc.code
        return 0 if code is None else int(code)
    if out:
        sys.stdout.write(out)
    if err:
        sys.stderr.write(err)
    return status


if __name__ == "__main__":
    sys.exit(main())
