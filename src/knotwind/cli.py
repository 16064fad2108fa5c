"""Command-line front end with JSON/CSV/table output and the V-sequence cache.

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
import os
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from typing import Sequence

from . import __version__
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
from .cache import CACHE_ENV, cache_load, cache_store
from .complexes import v_memo, v_route, v_sequence
from .errors import InternalCheckError, ValidationError, decimal_int, exact_int, exact_rational
from .knots import parse_knot_expr
from .surgery import correction_table, d_positive_surgery, kn_seifert, ncf_eval, ncf_expand

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


def _add_leaf(parser: argparse.ArgumentParser, handler, title: str) -> None:
    """Shared flags of a leaf command, its handler and its document's command name."""
    parser.add_argument(
        "--format",
        choices=("table", "json", "csv"),
        default=argparse.SUPPRESS,
        help="output format (default: table)",
    )
    parser.add_argument(
        "--cache",
        metavar="PATH",
        default=argparse.SUPPRESS,
        help=f"V-sequence cache file (default: ${CACHE_ENV} if set)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        default=argparse.SUPPRESS,
        help="disable the cache entirely (no file access)",
    )
    parser.set_defaults(handler=handler, title=title)


def build_parser() -> _Parser:
    parser = _Parser(prog="knotwind", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.set_defaults(format="table", cache=None, no_cache=False, handler=None)
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = sub.add_parser("vseq", help="V-sequence of a knot expression")
    p.add_argument("expr", help="knot expression, e.g. 'T(2,3) # -T(4,5)' or 'U'")
    _add_leaf(p, _cmd_vseq, "vseq")

    p = sub.add_parser("dinv", help="d-invariants of a positive surgery")
    p.add_argument("expr")
    p.add_argument("--n", type=_int, required=True, help="surgery coefficient (positive)")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--i", type=_int, default=None, help="single spin^c index")
    group.add_argument("--all", action="store_true", help="all indices 0..n-1 (default)")
    _add_leaf(p, _cmd_dinv, "dinv")

    bound = sub.add_parser("bound", help="lower-bound combinators")
    bound_sub = bound.add_subparsers(dest="bound_kind", metavar="KIND")
    p = bound_sub.add_parser("winding", help="winding bound via the 0-surgery knot J")
    p.add_argument("expr")
    _add_leaf(p, lambda args: winding_bound_via_zero_surgery(parse_knot_expr(args.expr)), "bound winding")
    p = bound_sub.add_parser("shake", help="0-shake genus bound")
    p.add_argument("expr")
    _add_leaf(p, lambda args: shake_bound(parse_knot_expr(args.expr)), "bound shake")
    p = bound_sub.add_parser("essential", help="essential-class bound from a d-table file")
    p.add_argument("--w", type=_int, required=True, help="even winding class")
    p.add_argument("--dtable", required=True, metavar="FILE", help='JSON {"w": int, "d": {...}}')
    _add_leaf(p, _cmd_bound_essential, "bound essential")

    examples = sub.add_parser("examples", help="built-in worked bound chains")
    examples_sub = examples.add_subparsers(dest="example", metavar="NAME")
    p = examples_sub.add_parser("kn", help="the sharp family with winding number 4n+2")
    p.add_argument("--n", type=_int, required=True)
    _add_leaf(p, lambda args: reproduce_kn(args.n), "examples kn")
    p = examples_sub.add_parser("whitehead", help="the knotified Hopf link bound")
    _add_leaf(p, lambda args: reproduce_whitehead(), "examples whitehead")

    seifert = sub.add_parser("seifert", help="Seifert presentations")
    seifert_sub = seifert.add_subparsers(dest="seifert_kind", metavar="NAME")
    p = seifert_sub.add_parser("kn", help="four-fibre presentation of the K_n surgery")
    p.add_argument("--n", type=_int, required=True)
    _add_leaf(p, _cmd_seifert_kn, "seifert kn")

    ncf = sub.add_parser("ncf", help="negative continued fractions")
    ncf_sub = ncf.add_subparsers(dest="ncf_kind", metavar="OP")
    p = ncf_sub.add_parser("eval", help="evaluate a coefficient list, e.g. 4,2")
    p.add_argument("coeffs")
    _add_leaf(p, _cmd_ncf_eval, "ncf eval")
    p = ncf_sub.add_parser("expand", help="expand a rational > 1, e.g. 7/2")
    p.add_argument("value")
    _add_leaf(p, _cmd_ncf_expand, "ncf expand")

    return parser


def _cmd_vseq(args) -> BoundReport:
    expr = parse_knot_expr(args.expr)
    values = list(v_sequence(expr).values)
    route, anchor = v_route(expr)
    trail = (TrailEntry("path", route, anchor), TrailEntry("genus", expr.genus, A_GENUS))
    return BoundReport(values, None, {"expr": str(expr)}, trail)


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
    coeffs = [
        decimal_int(part, lambda: f"coefficient list must be comma-separated integers, got {args.coeffs!r}")
        for part in args.coeffs.split(",")
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
        lines.extend(f"  d_{k} = {v}" for k, v in value.items())
    elif isinstance(value, list):
        lines.append("value: " + " ".join(str(v) for v in value))
    else:
        lines.append(f"value: {_scalar_str(value)}")
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


def _sniff_format(argv: Sequence[str]) -> str:
    for idx, token in enumerate(argv):
        if token == "--format" and idx + 1 < len(argv):
            return argv[idx + 1]
        if token.startswith("--format="):
            return token.split("=", 1)[1]
    return "table"


def run(argv: Sequence[str]) -> tuple[int, str, str]:
    """Execute one command line; returns (exit status, stdout, stderr)."""
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
        if args.handler is None:
            raise ValidationError("no command given; see --help")
    except ValidationError as exc:
        return _error_output(exc, _sniff_format(argv))
    fmt = args.format
    cache_path = None
    if not args.no_cache:
        cache_path = args.cache or os.environ.get(CACHE_ENV) or None
    try:  # the cache spot check computes V-sequences too
        loaded = cache_load(cache_path) if cache_path else {}
        with v_memo(loaded) as memo:
            output = render_document(_report_doc(args.title, args.handler(args)), fmt)
            if cache_path and memo != loaded:
                cache_store(cache_path, memo)
            return 0, output, ""
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
