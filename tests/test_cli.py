"""Parser round-trips, CLI output formats, exit codes and the ignored cache flags."""

import argparse
import concurrent.futures
import contextlib
import json
import os
import re
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from knotwind import (
    CACHE_ENV,
    KnotExpression,
    TorusKnot,
    ValidationError,
    ncf_eval,
    parse_knot_expr,
    v_memo,
    v_sequence,
)
from knotwind import __version__
from knotwind import cli
from knotwind.cli import fraction_str, run
from knotwind.errors import decimal_int
from test_complexes import small_sums

# The most digits int() converts from text, or 0 where the interpreter has no limit.
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
# An even number with more digits than that: a knot parameter in it is rejected as
# too long, or where there is no limit as not coprime with 2.
LONG_EVEN = "4" * (DIGIT_LIMIT + 1)

README_KEYS = {"command", "inputs", "value", "induced_minimum", "sharp", "trail"}

# The words of every leaf command, as its document's "command" reads.
LEAVES = [
    "vseq", "dinv", "bound winding", "bound shake", "bound essential", "examples kn",
    "examples whitehead", "seifert kn", "ncf eval", "ncf expand",
]


def run_ok(argv):
    status, out, err = run(argv)
    assert status == 0, (argv, err)
    return out


def test_parser_base_cases():
    expr = parse_knot_expr("T(2,3)")
    assert expr.summands == ((TorusKnot(2, 3), 1),)
    expr = parse_knot_expr("-T(4,5) # T(2,3)")
    assert expr.summands == ((TorusKnot(2, 3), 1), (TorusKnot(4, 5), -1))
    assert parse_knot_expr("U").is_unknot
    assert parse_knot_expr("  t( 2 , 3 )#u ").summands == ((TorusKnot(2, 3), 1),)


def test_parser_errors():
    with pytest.raises(ValidationError, match="not coprime"):
        parse_knot_expr("T(2,4)")
    with pytest.raises(ValidationError, match="position 0"):
        parse_knot_expr("")
    with pytest.raises(ValidationError, match="position"):
        parse_knot_expr("T(2,3) @ T(4,5)")
    with pytest.raises(ValidationError, match="position"):
        parse_knot_expr("T(2;3)")
    with pytest.raises(ValidationError):
        parse_knot_expr("T(1,5)")
    with pytest.raises(ValidationError, match="syntax error at position 5: expected '\\)'"):
        parse_knot_expr("T(2,3\u00b2)")  # a superscript two is no ASCII digit
    with pytest.raises(ValidationError, match="syntax error at position 2: expected an integer"):
        parse_knot_expr("T(\u0663,4)")  # nor is an Arabic-Indic three
    too_long = "integer at position 4 has too many digits" if DIGIT_LIMIT else "not coprime"
    with pytest.raises(ValidationError, match=too_long):
        parse_knot_expr(f"T(2,{LONG_EVEN})")


def test_parser_round_trip():
    cases = [
        "U",
        "T(2,3)",
        "-T(2,3)",
        "T(2,3) # T(2,3) # -T(4,5)",
        "T(4,5) # -T(2,3) # T(2,3)",
    ]
    for text in cases:
        expr = parse_knot_expr(text)
        assert parse_knot_expr(str(expr)) == expr
    # canonical ordering makes permutations agree
    left = parse_knot_expr("T(2,3) # T(4,5)")
    right = parse_knot_expr("T(4,5)#T(2,3)")
    assert str(left) == str(right)
    assert left == right


PARSER_POOL = [(2, 3), (2, 5), (3, 4), (3, 5), (2, 7), (4, 5), (5, 12)]
signed_sums = st.lists(
    st.tuples(st.sampled_from(PARSER_POOL), st.sampled_from((1, -1))), max_size=4
).map(lambda summands: KnotExpression(tuple((TorusKnot(p, q), s) for (p, q), s in summands)))


@settings(max_examples=2 * settings.default.max_examples)  # cheap: twice the profile's examples
@given(signed_sums, st.data())
def test_parser_round_trips_with_any_spacing_and_case(expr, data):
    text = str(expr)
    assert parse_knot_expr(text) == expr
    tokens = re.findall(r"\d+|\S", text)
    gaps = data.draw(st.lists(st.sampled_from(["", " ", "  ", "\t", "\n "]),
                              min_size=len(tokens) + 1, max_size=len(tokens) + 1))
    lower = data.draw(st.lists(st.booleans(), min_size=len(tokens), max_size=len(tokens)))
    spaced = "".join(gap + (token.lower() if low else token)
                     for gap, token, low in zip(gaps, tokens, lower)) + gaps[-1]
    assert parse_knot_expr(spaced) == expr


def scanner_parse(text):
    """The reference parser, one character at a time; `parse_knot_expr` must agree with it."""
    if not isinstance(text, str):
        raise ValidationError("knot expression must be a string")
    n = len(text)

    def skip_ws(i):
        while i < n and text[i].isspace():
            i += 1
        return i

    def fail(pos, expected):
        raise ValidationError(f"syntax error at position {pos}: expected {expected}")

    def parse_int(i):
        j = i
        while j < n and "0" <= text[j] <= "9":
            j += 1
        if j == i:
            fail(i, "an integer")
        return decimal_int(text[i:j], lambda: f"integer at position {i} has too many digits"), j

    summands = []
    i = skip_ws(0)
    first = True
    while True:
        if not first:
            i = skip_ws(i)
            if i >= n:
                break
            if text[i] != "#":
                fail(i, "'#' between summands")
            i = skip_ws(i + 1)
        first = False
        sign = 1
        if i < n and text[i] == "-":
            sign = -1
            i = skip_ws(i + 1)
        if i < n and text[i] in "Uu":
            i += 1
            continue
        if i >= n or text[i] not in "Tt":
            fail(i, "'T(p,q)' or 'U'")
        i = skip_ws(i + 1)
        if i >= n or text[i] != "(":
            fail(i, "'('")
        i = skip_ws(i + 1)
        p, i = parse_int(i)
        i = skip_ws(i)
        if i >= n or text[i] != ",":
            fail(i, "','")
        i = skip_ws(i + 1)
        q, i = parse_int(i)
        i = skip_ws(i)
        if i >= n or text[i] != ")":
            fail(i, "')'")
        i += 1
        summands.append((TorusKnot(p, q), sign))
    return KnotExpression(tuple(summands))


def parse_outcome(parse, text):
    try:
        return parse(text)
    except ValidationError as exc:
        return str(exc)


# The grammar's characters, Unicode whitespace, digits of other scripts, and a
# parameter too long for int() (or, with no digit limit, even).
PARSER_TOKENS = [*"TtUu()#,-0123456789 \t\n", "\u00a0", "\u2003", "\u00b2", "\u0663", "x", LONG_EVEN]


@st.composite
def one_token_off(draw):
    """A valid expression with one character replaced by a token, or the token appended."""
    text = str(draw(signed_sums))
    at = draw(st.integers(0, len(text)))
    return text[:at] + draw(st.sampled_from(PARSER_TOKENS)) + text[at + 1:]


@settings(max_examples=20 * settings.default.max_examples)  # cheap: twenty times the profile's
@example(f"T({LONG_EVEN},{LONG_EVEN}) # T(2,4)")  # the first of two errors is raised
@given(st.one_of(st.lists(st.sampled_from(PARSER_TOKENS), max_size=24).map("".join), one_token_off()))
def test_parser_matches_the_reference_scanner(text):
    assert parse_outcome(parse_knot_expr, text) == parse_outcome(scanner_parse, text)


def test_mirror_involution():
    expr = parse_knot_expr("T(2,3) # -T(4,5)")
    assert expr.mirror().mirror() == expr
    assert expr.mirror().summands == ((TorusKnot(2, 3), -1), (TorusKnot(4, 5), 1))


def test_fraction_str():
    from fractions import Fraction

    assert fraction_str(Fraction(7, 2)) == "7/2"
    assert fraction_str(Fraction(-1, 2)) == "-1/2"
    assert fraction_str(Fraction(4, 2)) == "2"
    assert fraction_str(3) == "3"


def test_cli_bound_winding_json():
    out = run_ok(["bound", "winding", "T(2,3)", "--format", "json"])
    doc = json.loads(out)
    assert doc["command"] == "bound winding"
    assert doc["value"] == 1
    assert doc["induced_minimum"] == 2
    assert all(entry["anchor"] for entry in doc["trail"])


@pytest.mark.parametrize(
    "argv",
    [
        ["vseq", "T(2,3) # -T(2,5)"],
        ["dinv", "T(2,3)", "--n", "3", "--all"],
        ["dinv", "T(2,3)", "--n", "3", "--i", "1"],
        ["bound", "winding", "T(2,5)"],
        ["bound", "shake", "T(2,9)"],
        ["bound", "essential", "--w", "2", "--dtable", "DTABLE"],
        ["examples", "kn", "--n", "1"],
        ["examples", "whitehead"],
        ["seifert", "kn", "--n", "2"],
        ["ncf", "eval", "4,2"],
        ["ncf", "expand", "7/2"],
    ],
    ids=" ".join,
)
def test_cli_json_document_shape(argv, tmp_path):
    dtable = tmp_path / "d.json"
    dtable.write_text(json.dumps({"w": 2, "d": {"0": "1/2", "1": "0", "2": "-1/2", "3": "0"}}))
    argv = [str(dtable) if word == "DTABLE" else word for word in argv]
    doc = json.loads(run_ok(argv + ["--format", "json", "--no-cache"]))
    assert {"command", "inputs", "value", "trail"} <= set(doc) <= README_KEYS
    assert doc["command"] == next(leaf for leaf in LEAVES if argv[: len(leaf.split())] == leaf.split())
    assert doc["trail"]
    for entry in doc["trail"]:
        assert set(entry) == {"name", "value", "anchor"}
        assert isinstance(entry["value"], str) and entry["anchor"]


def test_cli_vseq_and_dinv_json():
    doc = json.loads(run_ok(["vseq", "T(4,5)", "--format", "json"]))
    assert doc["value"] == [3, 2, 1, 1, 1, 1, 0]
    doc = json.loads(run_ok(["dinv", "T(2,3)", "--n", "1", "--i", "0", "--format", "json"]))
    assert doc["value"] == "-2"
    doc = json.loads(run_ok(["dinv", "U", "--n", "2", "--all", "--format", "json"]))
    assert doc["value"] == {"0": "1/4", "1": "-1/4"}


def test_cli_ncf_commands():
    doc = json.loads(run_ok(["ncf", "eval", "4,2", "--format", "json"]))
    assert doc["value"] == "7/2"
    doc = json.loads(run_ok(["ncf", "expand", "7/2", "--format", "json"]))
    assert doc["value"] == [4, 2]
    # 10,000 threes evaluate and render; one more coefficient exits 2 before any arithmetic.
    threes = ",".join(["3"] * 10_000)
    out = run_ok(["ncf", "eval", threes, "--format", "json"])
    assert json.loads(out)["value"] == fraction_str(ncf_eval([3] * 10_000))
    status, out, err = run(["ncf", "eval", threes + ",3", "--format", "json"])
    assert (status, err) == (2, "")
    assert json.loads(out)["error"] == {
        "kind": "validation", "message": "a negative continued fraction takes at most 10000 coefficients",
    }


def test_cli_ncf_eval_counts_before_it_converts(monkeypatch):
    def convert(*args):
        raise AssertionError("a coefficient was converted")

    monkeypatch.setattr(cli, "decimal_int", convert)
    status, out, err = run(["ncf", "eval", ",".join(["3"] * 10_001), "--format", "json"])
    assert (status, err) == (2, "")
    assert json.loads(out)["error"] == {
        "kind": "validation", "message": "a negative continued fraction takes at most 10000 coefficients",
    }


def test_cli_examples_kn_trail():
    doc = json.loads(run_ok(["examples", "kn", "--n", "1", "--format", "json"]))
    names = [t["name"] for t in doc["trail"]]
    values = {t["name"]: t["value"] for t in doc["trail"]}
    assert values["2n+2"] == "4"
    assert doc["induced_minimum"] == 6
    assert names.index("2n+2") < names.index("gw >= (even)")
    assert doc["sharp"] is True


def test_cli_examples_whitehead_and_seifert():
    doc = json.loads(run_ok(["examples", "whitehead", "--format", "json"]))
    assert doc["value"] == 1 and doc["induced_minimum"] == 2
    doc = json.loads(run_ok(["seifert", "kn", "--n", "1", "--format", "json"]))
    assert doc["value"] == "-2/21"
    assert any(t["anchor"] == "plumbing" for t in doc["trail"])


def test_cli_bound_essential(tmp_path):
    table = {"w": 2, "d": {"0": "1", "1": "0", "2": "0", "3": "0"}}
    path = tmp_path / "dtable.json"
    path.write_text(json.dumps(table))
    doc = json.loads(run_ok(["bound", "essential", "--w", "2", "--dtable", str(path), "--format", "json"]))
    assert doc["value"] == "2"
    status, out, _ = run(["bound", "essential", "--w", "4", "--dtable", str(path), "--format", "json"])
    assert status == 2
    assert "does not match" in json.loads(out)["error"]["message"]
    path.write_text(json.dumps({"w": 2, "d": {"0": 1, "1": 0, "2": 0, "3": "0"}}))
    doc = json.loads(run_ok(["bound", "essential", "--w", "2", "--dtable", str(path), "--format", "json"]))
    assert doc["value"] == "2"
    broken = tmp_path / "broken.json"
    inexact = [
        {"w": 2, "d": {"0": 0.1, "1": True, "2": 0, "3": "0"}},
        {"w": 2, "d": {"0": "1", "1": True, "2": 0, "3": "0"}},
        {"w": 2.0, "d": {"0": "1", "1": "0", "2": "0", "3": "0"}},
        {"w": 2, "d": {"0": "1", "1": "0", "01": "5", "2": "0", "3": "0"}},
    ]
    for text in ["{not json"] + [json.dumps(table) for table in inexact]:
        broken.write_text(text)
        status, out, _ = run(["bound", "essential", "--w", "2", "--dtable", str(broken), "--format", "json"])
        assert status == 2, text
        assert json.loads(out)["error"]["kind"] == "validation"


def test_cli_csv_has_fixed_header():
    out = run_ok(["bound", "winding", "T(2,3)", "--format", "csv"])
    lines = out.splitlines()
    assert lines[0] == "section,name,value,anchor"
    assert any(line.startswith("result,value,1") for line in lines)
    out = run_ok(["vseq", "T(2,3)", "--format", "csv"])
    assert out.splitlines()[0] == "section,name,value,anchor"


NIWU = "d(S^3_n(K),t_i) = -2 max{V_i, V_{n-i}} + (n-2i)^2/(4n) - 1/4"
SPINC = "spin^c label i has chern number n - 2i"


def test_cli_renders_a_correction_table_in_csv_and_table():
    argv = ["dinv", "T(2,3)", "--n", "3", "--all", "--no-cache", "--format"]
    assert run_ok(argv + ["csv"]) == (
        "section,name,value,anchor\n"
        'input,expr,"T(2,3)",\n'
        "input,n,3,\n"
        "result,d_0,-3/2,\n"
        "result,d_1,-1/6,\n"
        "result,d_2,-1/6,\n"
        f'trail,formula,n = 3,"{NIWU}"\n'
        f"trail,labels,i = 0..n-1,{SPINC}\n"
    )
    assert run_ok(argv + ["table"]) == (
        "command: dinv\n"
        "expr: T(2,3)\n"
        "n: 3\n"
        "value:\n"
        "  d_0 = -3/2\n"
        "  d_1 = -1/6\n"
        "  d_2 = -1/6\n"
        "trail:\n"
        f"  formula = n = 3   [{NIWU}]\n"
        f"  labels = i = 0..n-1   [{SPINC}]\n"
    )


def test_cli_renders_the_sharp_line_of_a_table():
    kn = "J = T(4n+2,4n+3), J' = T(2n+1,4n+3) # T(2n+1,4n+3), m = (4n+2)(4n+3)"
    semigroup = "V_i(T(p,q)) = card(Gamma(p,q) intersect [0, g-i))"
    sphere = "an explicit 2-sphere meets K_n in 4n+2 points"
    assert run_ok(["examples", "kn", "--n", "1", "--no-cache"]) == (
        "command: examples kn\n"
        "n: 1\n"
        "value: 4\n"
        "induced minimum: 6\n"
        "sharp: true\n"
        "trail:\n"
        f"  J = T(6,7)   [{kn}]\n"
        f"  J' = T(3,7) # T(3,7)   [{kn}]\n"
        f"  m = 42   [{kn}]\n"
        f"  V_0(J) = 6   [{semigroup}]\n"
        "  reduction of J' = T(3,13)   [ms(T(n,a*n+1)) ++ ms(T(n,b*n+1)) = ms(T(n,(a+b)*n+1))]\n"
        f"  V_0(J') = 4   [{semigroup}]\n"
        "  V_0(J') homology cross-check = 4   [V_s = -(top grading of the U-tower of A_s^-)/2]\n"
        "  dtw(Y_0,t_0) = 7/4   [dtw(Y_0,t_0) = -2 V_0(J') + (m-3)/4]\n"
        "  dtw(-Y_0,t_0) = 5/4   [dtw(-Y_0,t_0) = 2 V_0(J) - (m+1)/4]\n"
        "  2n+2 = 4   [2 V_0(J) - 2 V_0(J') = 2n+2]\n"
        "  lower bound for ceil(gw/4) = 2   [(1/2) max_t { dtw(Y,t) + dtw(-Y,t) + 1 }]\n"
        "  gw >= (any parity) = 5   [ceil(gw/4) >= b forces gw >= 4b - 3]\n"
        "  gw >= (even) = 6   [a null-homologous knot meets a generating 2-sphere an even number of times]\n"
        f"  upper bound = 6   [{sphere}]\n"
        f"  sharp = true   [{sphere}]\n"
    )


def test_cli_parse_error_honours_the_equals_form_of_format():
    # argparse refuses --n, and `run` reads the format as argparse does, the --format= form included.
    status, out, err = run(["dinv", "T(2,3)", "--n", "three", "--format=json", "--no-cache"])
    assert (status, err) == (2, "")
    assert out == (
        "{\n"
        '  "error": {\n'
        '    "kind": "validation",\n'
        '    "message": "argument --n: invalid int value: \'three\'"\n'
        "  }\n"
        "}\n"
    )


@pytest.mark.parametrize(
    "argv, message, fmt",
    [
        (["dinv", "T(2,3)", "--n", "x", "--form", "json"], "argument --n: invalid int value: 'x'", "json"),
        (["dinv", "T(2,3)", "--n", "x", "--format", "json", "--format", "csv"],
         "argument --n: invalid int value: 'x'", "csv"),
        (["vseq", "--", "--format", "json"], "unrecognized arguments: json", "table"),
        (["vseq", "T(2,3)", "--format", "json", "--cache"], "argument --cache: expected one argument", "json"),
    ],
    ids=["abbreviation", "last format", "after --", "cache without a path"],
)
def test_cli_parse_error_reads_the_format_as_argparse_does(argv, message, fmt):
    # The last --format given counts, an abbreviation counts, nothing after -- is a flag,
    # and a malformed other flag does not hide the format.
    status, out, err = run(argv)
    assert status == 2
    if fmt == "json":
        assert (json.loads(out), err) == ({"error": {"kind": "validation", "message": message}}, "")
    else:
        assert (out, err) == ("", f"error (validation): {message}\n")


def test_main_writes_both_streams_and_returns_the_status(capsys):
    assert cli.main(["ncf", "eval", "4,2", "--no-cache"]) == 0
    assert capsys.readouterr() == (
        "command: ncf eval\n"
        "coeffs: [4, 2]\n"
        "value: 7/2\n"
        "trail:\n"
        "  definition = 7/2   [[a_1,...,a_k]^- = a_1 - 1/(a_2 - 1/(...))]\n",
        "",
    )
    assert cli.main(["vseq", "T(2,4)", "--no-cache"]) == 2
    assert capsys.readouterr() == ("", "error (validation): torus knot parameters (2,4) are not coprime\n")


def test_cli_validation_errors_and_exit_codes(capsys):
    status, out, err = run(["vseq", "T(2,4)", "--format", "json"])
    assert status == 2
    doc = json.loads(out)
    assert doc["error"]["kind"] == "validation"
    assert "(2,4)" in doc["error"]["message"]
    status, out, err = run(["vseq", "T(2,4)"])
    assert status == 2 and "error" in err
    status, out, _ = run(["vseq", "--no-cache", "--format", "json", "--", "T(2,3\u00b2)"])
    assert status == 2
    assert json.loads(out)["error"]["kind"] == "validation"
    status, _, _ = run(["dinv", "T(2,3)", "--n", "0", "--i", "0", "--format", "json"])
    assert status == 2
    # Integers and rationals follow the ASCII rule of knot expressions: int() or
    # Fraction() would read each of these.
    for argv in (
        ["dinv", "T(2,3)", "--n", "1_0", "--i", "0"],
        ["dinv", "T(2,3)", "--n", "3", "--i", "\u0660"],
        ["ncf", "eval", "\u0664,2"],
        ["ncf", "eval", "4,,2"],  # an empty coefficient is not skipped
        ["ncf", "eval", "4,2,"],
        ["ncf", "eval", ",4,2"],
        ["ncf", "eval", "4, ,2"],
        ["ncf", "expand", "\u0667/2"],  # Fraction() reads it as 7/2
        ["ncf", "expand", "1_5/2"],  # and this as 15/2
        ["ncf", "expand", "+7/2"],  # Fraction() reads it as 7/2
        ["ncf", "expand", "35e-1"],  # and this as 7/2
        ["examples", "kn", "--n", "+1"],
        # More digits than int() converts: a validation error, not a traceback.
        ["vseq", f"T(2,{LONG_EVEN})"],
        *([["ncf", "eval", f"{LONG_EVEN},2"], ["ncf", "expand", f"{LONG_EVEN}/7"]] if DIGIT_LIMIT else []),
        # Results with more digits than str() renders, from inputs within the limit.
        *([["ncf", "eval", ",".join(["9" * (DIGIT_LIMIT // 4)] * 5)],
           ["seifert", "kn", "--n", "7" * (DIGIT_LIMIT * 2 // 3)]] if DIGIT_LIMIT else []),
        # Inputs too big to compute fail fast: a semigroup conductor above 10^6, whose table
        # would not fit an index-sized integer at 30 digits, an expansion past 10,000 terms
        # and a correction table of more than 100,000 labels.
        ["examples", "kn", "--n", "9" * 30],
        ["vseq", "T(30001,30002)"],
        ["vseq", "T(2,3) # -T(30001,30002)"],
        ["ncf", "expand", f"1{'0' * 4000}1/1{'0' * 4000}"],
        ["dinv", "T(2,3)", "--n", "100001", "--all"],
    ):
        status, out, _ = run([*argv, "--no-cache", "--format", "json"])
        assert status == 2, argv
        assert json.loads(out)["error"]["kind"] == "validation", argv
    # A single label is one value, at any n.
    status, out, _ = run(["dinv", "T(2,3)", "--n", "100001", "--i", "0", "--no-cache", "--format", "json"])
    assert status == 0 and json.loads(out)["value"] == "24998"  # (n - 9) / 4 at V_0 = 1
    # argparse refuses a line without a command or subcommand, naming what is missing,
    # and reads the format off the refused line.
    for argv, missing in (([], "COMMAND"), (["bound"], "KIND"), (["ncf"], "OP"), (["examples"], "NAME")):
        assert run(argv) == (2, "", f"error (validation): the following arguments are required: {missing}\n")
    # A shared flag before the subcommand is refused by name; the error still follows it.
    status, out, err = run(["examples", "--format=json"])
    assert (status, err) == (2, "")
    message = "argument --format: put it after the subcommand"
    assert json.loads(out) == {"error": {"kind": "validation", "message": message}}
    status, _, _ = run(["nonsense"])
    assert status == 2
    # --version acts before argparse checks for a command.
    assert cli.main(["--version"]) == 0
    assert capsys.readouterr().out == f"knotwind {__version__}\n"


def test_cli_cached_and_uncached_outputs_identical(tmp_path, monkeypatch):
    # --cache, --no-cache and $KNOTWIND_CACHE are accepted and ignored: every command line
    # of the benchmark's universe prints with --cache FILE what it prints with --no-cache,
    # and no file appears, nor is an existing one changed.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import workloads

    monkeypatch.chdir(tmp_path)
    workloads.write_dtables(Path(workloads.DTABLE_DIR))
    path = tmp_path / "c.json"
    lines = [(words, expr, fmt) for words, expr in workloads.cli_universe() for fmt in workloads.CLI_FORMATS]
    plain = {}
    for words, expr, fmt in lines:
        plain[words, expr, fmt] = run(list(workloads.cli_argv(words, expr, fmt, None)))
        assert run(list(workloads.cli_argv(words, expr, fmt, str(path)))) == plain[words, expr, fmt]
    assert not path.exists()
    # A sample again, with the variable naming a file and --cache naming one of arbitrary content.
    env_path = tmp_path / "env.json"
    monkeypatch.setenv(CACHE_ENV, str(env_path))
    content = b'{"tool_version": "0.1.0", "entries": {"T(2,3)": [5, 0], "U": [1]}}\n\xff'
    path.write_bytes(content)
    for words, expr, fmt in lines[::17]:
        tail = ("--", expr) if expr else ()
        for flags in ((), ("--no-cache",), ("--cache", str(path))):
            assert run([*words, "--format", fmt, *flags, *tail]) == plain[words, expr, fmt], flags
    assert path.read_bytes() == content
    assert not env_path.exists()


def _cached_and_uncached(path, entries, words, expr):
    """(status, stdout, stderr) of a json command on `expr` with a cache file holding `entries`,
    and with --no-cache; the file is left as it was."""
    path.write_text(json.dumps({"tool_version": __version__, "entries": entries}))
    content = path.read_bytes()
    cached = run([*words, "--format", "json", "--cache", str(path), "--", expr])
    assert path.read_bytes() == content
    return cached, run([*words, "--format", "json", "--no-cache", "--", expr])


@given(small_sums, st.data())
def test_cached_and_uncached_outputs_agree_on_any_cache_file(tmp_path_factory, expr, data):
    values = st.lists(st.integers(0, 9), max_size=expr.genus + 2)
    entries = {str(expr): data.draw(values), str(-expr): data.draw(values)}
    n = data.draw(st.integers(1, 2 * expr.genus + 3))
    path = tmp_path_factory.mktemp("cache") / "cache.json"
    for words in (["vseq"], ["bound", "winding"], ["dinv", "--n", str(n), "--all"]):
        cached, plain = _cached_and_uncached(path, entries, words, str(expr))
        assert cached == plain, words


@given(small_sums)
@example(KnotExpression.unknot())
@example(parse_knot_expr("T(5,9)"))  # a positive torus knot above genus 12
def test_every_route_anchor_is_printed_as_the_engine_reports_it(expr):
    seq, seq_m = v_sequence(expr), v_sequence(expr.mirror())
    doc = json.loads(run_ok(["vseq", "--format", "json", "--no-cache", "--", str(expr)]))
    assert doc["trail"][0] == {"name": "path", "value": seq.route, "anchor": seq.anchor}
    for kind, knot in (("winding", "J"), ("shake", "K")):
        doc = json.loads(run_ok(["bound", kind, "--format", "json", "--no-cache", "--", str(expr)]))
        anchors = {entry["name"]: entry["anchor"] for entry in doc["trail"]}
        assert (anchors[f"V_0({knot})"], anchors[f"V_0(-{knot})"]) == (seq.anchor, seq_m.anchor)


def test_cli_bound_winding_serves_no_stale_mixed_sum(tmp_path):
    # A stale mixed sum beside a correct positive sum: the winding bound B = V_0(J) + V_0(-J).
    entries = {"T(2,3) # T(2,3)": [1, 1, 0], "T(2,3) # -T(2,5)": [2, 1, 1, 0]}
    path = tmp_path / "cache.json"
    cached, plain = _cached_and_uncached(path, entries, ["bound", "winding"], "T(2,3) # -T(2,5)")
    assert cached == plain
    doc = json.loads(cached[1])
    assert (doc["value"], doc["induced_minimum"]) == (1, 2)


def test_cli_memo_is_invisible_to_other_threads(monkeypatch):
    # A command paused inside v_sequence: another thread computes meanwhile, and its
    # value does not enter the command's memo.
    waiting, release = threading.Event(), threading.Event()
    compute, scope = cli.v_sequence, cli.v_memo
    memos = []

    def paused(expr):
        waiting.set()
        release.wait(timeout=60)
        return compute(expr)

    @contextlib.contextmanager
    def recorded(entries):
        with scope(entries) as memo:
            memos.append(memo)
            yield memo

    monkeypatch.setattr(cli, "v_sequence", paused)
    monkeypatch.setattr(cli, "v_memo", recorded)
    results = []
    worker = threading.Thread(target=lambda: results.append(run(["vseq", "T(2,3)"])))
    worker.start()
    try:
        assert waiting.wait(timeout=60)
        v_sequence(parse_knot_expr("-T(2,3) # T(2,5)"))
    finally:
        release.set()
        worker.join(timeout=60)
    assert not worker.is_alive()
    assert results[0][0] == 0
    assert memos == [{"T(2,3)": [1, 0]}]


def test_cli_no_cache_never_touches_file(tmp_path, monkeypatch):
    path = tmp_path / "cache.json"
    monkeypatch.setenv("KNOTWIND_CACHE", str(path))
    for flags in (["--no-cache"], []):
        run_ok(["vseq", "T(2,3)", *flags])
        assert not path.exists()  # the variable is ignored too


# The tests below are named after the cache they once checked. There is no cache any
# more: each now pins that the same file, or the same flags, change nothing.


def _ignoring(path, content, argv, expr):
    """stdout of `argv -- expr` with --cache naming `path`, written with `content` (a JSON
    value, raw text, or None for no file); it must warn nothing, print what --no-cache
    prints, exit 0 and leave the file as it was."""
    if content is not None:
        path.write_text(content if isinstance(content, str) else json.dumps(content))
    before = path.read_bytes() if path.exists() else None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cached = run([*argv, "--cache", str(path), "--", expr])
    assert caught == []
    assert (path.read_bytes() if path.exists() else None) == before
    assert cached == run([*argv, "--no-cache", "--", expr])
    assert cached[0] == 0 and cached[2] == "", cached
    return cached[1]


def _json_value(path, content, argv, expr):
    return json.loads(_ignoring(path, content, [*argv, "--format", "json"], expr))["value"]


def test_cache_rejects_version_mismatch_and_corruption(tmp_path):
    # Another version, corrupt JSON, a malformed entry, a key that does not parse and one
    # with more digits than int() converts: nothing reads the file, so nothing warns.
    path = tmp_path / "cache.json"
    for content in (
        {"tool_version": "0.0.0", "entries": {"T(2,3)": [1, 0]}},
        "{not json",
        {"tool_version": __version__, "entries": {"T(2,3)": "bad"}},
        {"tool_version": __version__, "entries": {"T(2,4)": [1, 0], "T(2,3)": [1, 0]}},
        {"tool_version": __version__, "entries": {f"T(2,{LONG_EVEN})": [1, 0]}},
    ):
        assert _json_value(path, content, ["vseq"], "T(2,3)") == [1, 0]


def test_cache_spot_check_catches_stale_values(tmp_path):
    stale = {"tool_version": __version__, "entries": {"T(2,3)": [5, 4, 3, 2, 1, 0]}}
    assert _json_value(tmp_path / "cache.json", stale, ["vseq"], "T(2,3)") == [1, 0]


def test_cache_spot_check_runs_under_optimize(tmp_path):
    # v_sequence's checks are no asserts: under -O a stale file still changes nothing.
    path = tmp_path / "cache.json"
    content = json.dumps({"tool_version": __version__, "entries": {"T(2,3)": [5, 4, 3, 2, 1, 0]}})
    path.write_text(content)
    src = str(Path(cli.__file__).resolve().parents[1])
    code = "import sys; from knotwind.cli import main; sys.exit(main(sys.argv[1:]))"
    done = subprocess.run(
        [sys.executable, "-O", "-c", code, "vseq", "--format", "json", "--cache", str(path), "--", "T(2,3)"],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert json.loads(done.stdout)["value"] == [1, 0]
    assert done.stderr == ""
    assert path.read_text() == content


def test_cache_spot_check_skips_the_unknot(tmp_path):
    path = tmp_path / "cache.json"
    stale = {"tool_version": __version__, "entries": {"U": [], "T(2,5)": [2, 1, 0]}}
    assert _json_value(path, stale, ["vseq"], "T(2,5)") == [1, 1, 0]
    stale = {"tool_version": __version__, "entries": {"U": [1]}}
    assert _json_value(path, stale, ["vseq"], "U") == []


def test_cache_spot_check_compares_every_torus_knot(tmp_path):
    path = tmp_path / "cache.json"
    stale = {"tool_version": __version__, "entries": {"T(2,3)": [1, 0], "T(2,5)": [2, 1, 0]}}
    assert _json_value(path, stale, ["vseq"], "T(2,5)") == [1, 1, 0]
    assert _json_value(path, stale, ["vseq"], "T(2,3)") == [1, 0]


@pytest.mark.parametrize(
    "entries, value",
    [
        ({"T(2,3)": [1, 0], "T(2,3) # T(2,3)": [2, 1, 0]}, "1 1 0"),
        ({"-T(2,91)": [0] * 46, "T(2,3) # -T(2,5)": [2, 1, 1, 0]}, "0 0 0 0"),
        ({"-T(2,25)": [0] * 13, "T(2,3) # -T(2,3)": [1, 1, 0]}, "0 0 0"),
    ],
    ids=["positive-sum", "genus-45-mirror", "one-summand-mirror"],
)
def test_cache_serves_no_entry_off_the_semigroup_route(tmp_path, entries, value):
    # A stale sum or mirror is computed afresh, and the file stays as it was.
    content = {"tool_version": __version__, "entries": entries}
    out = _ignoring(tmp_path / "cache.json", content, ["vseq"], list(entries)[1])
    assert f"value: {value}" in out.splitlines()


def test_cache_writes_back_only_canonical_keys(tmp_path):
    # Right entries under keys that are not canonical: none is written back, nor any other.
    content = {"tool_version": __version__, "entries": {"T(3,2)": [1, 0], "t(2, 5)": [1, 1, 0]}}
    out = _ignoring(tmp_path / "cache.json", content, ["vseq"], "T(2,3)")
    assert "value: 1 0" in out.splitlines()


def test_cache_checks_no_key_it_cannot_serve(tmp_path):
    # A wrong value under the key "T(3,2)", which parses as T(2,3), is not read either.
    path = tmp_path / "cache.json"
    content = {"tool_version": __version__, "entries": {"T(2,3)": [1, 0], "T(3,2)": [5, 0]}}
    for expr in ("T(2,3)", "T(3,2)"):
        assert "value: 1 0" in _ignoring(path, content, ["vseq"], expr).splitlines()


def test_cache_spot_check_ignores_an_enclosing_memo(tmp_path):
    # cli.run computes in a memo of its own: well-shaped stale entries of an enclosing
    # memo are neither served to the command nor replaced by it.
    stale = {"T(2,5)": [2, 1, 0], "T(2,3) # -T(2,5)": [2, 1, 1, 0]}
    content = {"tool_version": __version__, "entries": stale}
    with v_memo(stale) as memo:
        assert _json_value(tmp_path / "cache.json", content, ["vseq"], "T(2,3) # -T(2,5)") == [0, 0, 0, 0]
        assert _json_value(tmp_path / "cache.json", content, ["vseq"], "T(2,5)") == [1, 1, 0]
    assert memo == stale


def _forbid_complexes(monkeypatch):
    from knotwind import complexes

    def build(expr):
        raise AssertionError(f"the complex of {expr} was built")

    monkeypatch.setattr(complexes, "complex_of", build)


def test_cache_spot_check_recomputes_nothing_above_its_generator_limit(tmp_path, monkeypatch):
    # Entries of sums and mirrors of any size make a command that needs no V-sequence
    # build no complex.
    seven = " # ".join(["T(2,3)"] * 7)  # 3^7 = 2,187 generators
    assert parse_knot_expr(seven).single_positive_torus_knot() is None
    entries = {
        "T(2,3)": [1, 0], "U": [], "-T(2,3)": [0, 0],
        "T(2,3) # T(2,3)": [1, 1, 0], "T(2,3) # -T(2,5)": [2, 1, 1, 0], seven: [0],
    }
    _forbid_complexes(monkeypatch)
    content = {"tool_version": __version__, "entries": entries}
    assert _json_value(tmp_path / "cache.json", content, ["ncf", "eval"], "4,2") == "7/2"


def test_cache_spot_check_recomputes_nothing_when_every_entry_was_compared(tmp_path, monkeypatch):
    # T(5,9) has genus 16, above the homology comparison: the semigroup count alone
    # answers, and correct entries beside it make nothing else computed.
    _forbid_complexes(monkeypatch)
    entries = {"T(2,3)": [1, 0], "T(2,5)": [1, 1, 0]}
    content = {"tool_version": __version__, "entries": entries}
    value = _json_value(tmp_path / "cache.json", content, ["vseq"], "T(5,9)")
    assert value == [6, 5, 4, 4, 4, 4, 3, 2, 2, 2, 2, 1, 1, 1, 1, 1, 0]


@pytest.mark.parametrize(
    "entries",
    [{"T(30001,30002)": [0]}, {"T(2,3001) # -T(2,3001)": [0] * 3001}],
    ids=["conductor-above-10^6", "9006001-generators"],
)
def test_cache_entries_the_engine_refuses_are_malformed(tmp_path, entries):
    # Entries the engine would refuse are not read, so they neither warn nor fail.
    content = {"tool_version": __version__, "entries": entries}
    assert _json_value(tmp_path / "cache.json", content, ["ncf", "eval"], "4,2") == "7/2"


def test_cli_bound_winding_caches_the_torus_knot(tmp_path):
    # No file appears, for a torus knot or a mixed sum.
    for expr in ("T(2,5)", "T(2,3) # -T(2,5)"):
        path = tmp_path / "cache.json"
        _ignoring(path, None, ["bound", "winding"], expr)
        assert not path.exists()


def test_cli_cache_flag_overrides_the_environment(tmp_path, monkeypatch):
    # --cache, --no-cache and the variable, in any order: the same output, and no file.
    env_path, flag_path = tmp_path / "env.json", tmp_path / "flag.json"
    monkeypatch.setenv("KNOTWIND_CACHE", str(env_path))
    plain = run(["vseq", "T(2,3)"])
    assert plain[0] == 0
    for flags in (
        ["--no-cache", "--cache", str(flag_path)], ["--cache", str(flag_path), "--no-cache"],
        ["--cache", str(flag_path)],
    ):
        assert run(["vseq", "T(2,3)", *flags]) == plain
        assert not env_path.exists() and not flag_path.exists()


@pytest.mark.parametrize(
    "entries, argv, value",
    [
        ({"T(2,3)": [1, 0], "T(2,3) # T(2,3)": [1]}, ["vseq"], [1, 1, 0]),
        ({"T(2,3)": [1, 0], "T(2,3) # T(2,3)": [1]}, ["dinv", "--n", "3"],
         {"0": "-3/2", "1": "-13/6", "2": "-13/6"}),
        ({"T(2,3)": [1, 0], "T(2,3) # -T(2,5)": [0]}, ["vseq"], [0, 0, 0, 0]),
    ],
    ids=["vseq short entry", "dinv short entry", "vseq mixed short entry"],
)
def test_cache_entries_without_the_v_sequence_shape_are_recomputed(tmp_path, entries, argv, value):
    # The memo's shape check itself is tested on v_memo in test_complexes.
    content = {"tool_version": __version__, "entries": entries}
    assert _json_value(tmp_path / "cache.json", content, argv, list(entries)[1]) == value


def test_cli_version_and_help():
    from knotwind.cli import main

    assert main(["--help"]) == 0
    assert main(["--version"]) == 0


@pytest.mark.parametrize(
    "target, error",
    [
        ("v_sequence", MemoryError()),
        ("v_sequence", RecursionError("maximum recursion depth exceeded")),
        ("render_document", MemoryError()),
        ("v_sequence", OverflowError("cannot fit 'int' into an index-sized integer")),
    ],
)
def test_resource_failures_get_an_error_document(monkeypatch, target, error):
    def exhausted(*args):
        raise error

    monkeypatch.setattr(cli, target, exhausted)
    status, out, err = run(["vseq", "T(2,3)", "--format", "json"])
    assert status == 1 and err == ""
    doc = json.loads(out)["error"]
    assert doc["kind"] == "resource" and doc["message"]
    status, out, err = run(["vseq", "T(2,3)"])
    assert (status, out) == (1, "")
    assert err == f"error (resource): {doc['message']}\n"


@pytest.mark.parametrize("leaf", LEAVES)
def test_cli_help_of_every_leaf_lists_the_shared_flags(leaf, capsys):
    for help_flag in ("--help", "-h"):
        assert cli.main([*leaf.split(), help_flag]) == 0
        out = capsys.readouterr().out
        assert out.startswith(f"usage: knotwind {leaf} [-h] ")
        options = [line.split()[0] for line in out.splitlines() if line.startswith("  -")]
        assert options[:4] == ["-h,", "--format", "--cache", "--no-cache"]
        assert out.count("-h, --help") == 1


def _parsers(parser, path=()):
    """(words, parser) of `parser` and of every subcommand below it, depth first."""
    yield path, parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _parsers(sub, (*path, name))


def test_every_parser_is_named_by_its_path_and_every_group_answers_h(capsys):
    parsers = list(_parsers(cli.build_parser()))
    for path, parser in parsers:
        assert parser.prog == " ".join(("knotwind", *path))
    leaves = [tuple(leaf.split()) for leaf in LEAVES]
    groups = [(), ("bound",), ("examples",), ("seifert",), ("ncf",)]
    assert sorted(path for path, _ in parsers) == sorted(leaves + groups)
    for path in groups:
        assert cli.main([*path, "-h"]) == 0
        assert capsys.readouterr().out.startswith(f"usage: {' '.join(('knotwind', *path))} [-h] ")


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["--format", "json", "vseq", "T(2,3)"], "--format"),
        (["--format=json", "vseq", "T(2,3)"], "--format"),
        (["bound", "--format", "json", "winding", "T(2,3)"], "--format"),
        (["bound", "--form", "json", "shake", "T(2,3)"], "--format"),
        (["--no-cache", "vseq", "T(2,3)"], "--no-cache"),
        (["ncf", "--no-cache", "eval", "4,2"], "--no-cache"),
        (["--cache", "CACHE", "vseq", "T(2,3)"], "--cache"),
        (["seifert", "--cache", "CACHE", "kn", "--n", "1"], "--cache"),
        (["--n", "3", "dinv", "--format", "json", "--", "T(2,3)"], "--n"),
        (["bound", "--w", "2", "essential"], "--w"),
    ],
    ids=" ".join,
)
def test_cli_refuses_a_shared_flag_before_its_subcommand_by_name(argv, flag, tmp_path):
    # The root and the groups name the misplaced flag, instead of reading its value as
    # the subcommand; the error still follows --format, and no cache file is touched.
    cache = tmp_path / "cache.json"
    argv = [str(cache) if word == "CACHE" else word for word in argv]
    message = f"argument {flag}: put it after the subcommand"
    if "json" in argv or "--format=json" in argv:
        status, out, err = run(argv)
        assert (status, err) == (2, "")
        assert json.loads(out) == {"error": {"kind": "validation", "message": message}}
    else:
        assert run(argv) == (2, "", f"error (validation): {message}\n")
    assert not cache.exists()


def test_cli_root_hands_the_shared_flags_after_the_subcommand_to_the_leaf(capsys):
    doc = json.loads(run_ok(["vseq", "--format", "json", "--", "-T(2,3)"]))
    assert (doc["inputs"], doc["value"]) == ({"expr": "-T(2,3)"}, [0, 0])
    # The flags the root and the groups refuse are not listed in their help.
    for path, usage in (((), "usage: knotwind [-h] [--version] COMMAND ...\n"),
                        (("bound",), "usage: knotwind bound [-h] KIND ...\n")):
        assert cli.main([*path, "--help"]) == 0
        out = capsys.readouterr().out
        assert out.startswith(usage)
        assert "--format" not in out and "--cache" not in out


def test_expr_is_declared_once_and_shared_by_its_leaves():
    leaves = {path: parser for path, parser in _parsers(cli.build_parser())}
    exprs = [
        next(action for action in leaves[path]._actions if action.dest == "expr")
        for path in (("vseq",), ("dinv",), ("bound", "winding"), ("bound", "shake"))
    ]
    assert all(action is exprs[0] for action in exprs)
    assert exprs[0].help == "knot expression, e.g. 'T(2,3) # -T(4,5)' or 'U'"


def test_building_and_parsing_leave_every_spec_unchanged():
    specs = {name: spec for name, spec in vars(cli).items() if isinstance(spec, cli._Parser)}
    before = {name: list(spec._actions) for name, spec in specs.items()}
    groups = {name: len(spec._mutually_exclusive_groups) for name, spec in specs.items()}
    lines = [
        ["vseq", "T(2,3)"],
        ["dinv", "T(2,3)", "--n", "3", "--i", "1", "--format", "json"],
        ["bound", "essential", "--w", "2", "--dtable", "d.json", "--no-cache"],
        ["examples", "kn", "--n", "1", "--cache", "c.json"],
        ["ncf", "expand", "7/2", "--format", "csv"],
    ]
    for k in range(1000):
        cli.build_parser().parse_args(lines[k % len(lines)])
    for name, spec in specs.items():
        assert len(spec._actions) == len(before[name]), name
        assert all(a is b for a, b in zip(spec._actions, before[name])), name
        assert len(spec._mutually_exclusive_groups) == groups[name], name
    # The mutually exclusive group comes through `parents=` too, on every build.
    message = "argument --all: not allowed with argument --i"
    for _ in range(3):
        assert run(["dinv", "T(2,3)", "--n", "3", "--i", "1", "--all"]) == (2, "", f"error (validation): {message}\n")


def test_cli_run_is_safe_for_concurrent_use(tmp_path, monkeypatch):
    # Every thread's parsers name the same specs: 8 threads give the outputs a serial run does.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import workloads

    monkeypatch.chdir(tmp_path)
    workloads.write_dtables(Path(workloads.DTABLE_DIR))
    argvs = [
        list(workloads.cli_argv(words, expr, fmt, None))
        for words, expr in workloads.cli_universe()[::2] for fmt in ("json", "table")
    ]
    serial = [run(argv) for argv in argvs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, mid-build and mid-parse
    try:
        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            threaded = list(pool.map(run, argvs, timeout=300))
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial
    assert all(status == 0 for status, _, _ in serial)
