"""Parser round-trips, CLI output formats, exit codes and the cache."""

import json
import os
import re
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from knotwind import (
    KnotExpression,
    TorusKnot,
    ValidationError,
    cache_load,
    cache_store,
    ncf_eval,
    parse_knot_expr,
    v_memo,
    v_sequence,
)
from knotwind import __version__
from knotwind import cli
from knotwind.cli import fraction_str, run
from knotwind.errors import decimal_int

# The most digits int() converts from text, or 0 where the interpreter has no limit.
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
# An even number with more digits than that: a knot parameter in it is rejected as
# too long, or where there is no limit as not coprime with 2.
LONG_EVEN = "4" * (DIGIT_LIMIT + 1)

README_KEYS = {"command", "inputs", "value", "induced_minimum", "sharp", "trail"}


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
    assert argv[: len(doc["command"].split())] == doc["command"].split()
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
    # argparse refuses --n before the format is parsed, so the format is read off argv.
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


def test_cli_validation_errors_and_exit_codes():
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
    status, _, _ = run([])
    assert status == 2
    status, _, _ = run(["nonsense"])
    assert status == 2


def test_cache_store_load_round_trip(tmp_path):
    path = tmp_path / "cache.json"
    entries = {"T(2,3)": [1, 0], "T(4,5)": [3, 2, 1, 1, 1, 1, 0]}
    assert cache_store(path, entries)
    assert cache_load(path) == entries
    first = path.read_bytes()
    assert cache_store(path, cache_load(path))
    assert path.read_bytes() == first


def test_cache_rejects_version_mismatch_and_corruption(tmp_path):
    path = tmp_path / "cache.json"
    path.write_text(json.dumps({"tool_version": "0.0.0", "entries": {"T(2,3)": [1, 0]}}))
    assert cache_load(path) == {}
    path.write_text("{not json")
    with pytest.warns(RuntimeWarning):
        assert cache_load(path) == {}
    path.write_text(json.dumps({"tool_version": __version__, "entries": {"T(2,3)": "bad"}}))
    with pytest.warns(RuntimeWarning, match=r"malformed entry 'T\(2,3\)'"):
        assert cache_load(path) == {}
    # A key that does not parse is malformed too, not a stale V-sequence.
    path.write_text(json.dumps({"tool_version": __version__, "entries": {"T(2,4)": [1, 0], "T(2,3)": [1, 0]}}))
    with pytest.warns(RuntimeWarning, match=r"malformed entry 'T\(2,4\)'"):
        assert cache_load(path) == {}
    # So is a key with more digits than int() converts.
    path.write_text(json.dumps({"tool_version": __version__, "entries": {f"T(2,{LONG_EVEN})": [1, 0]}}))
    with pytest.warns(RuntimeWarning, match=r"malformed entry 'T\(2,4"):
        assert cache_load(path) == {}


def test_cache_spot_check_catches_stale_values(tmp_path):
    path = tmp_path / "cache.json"
    path.write_text(json.dumps({"tool_version": __version__, "entries": {"T(2,3)": [5, 4, 3, 2, 1, 0]}}))
    with pytest.warns(RuntimeWarning):
        assert cache_load(path) == {}


def test_cache_spot_check_runs_under_optimize(tmp_path):
    path = tmp_path / "cache.json"
    path.write_text(json.dumps({"tool_version": __version__, "entries": {"T(2,3)": [5, 4, 3, 2, 1, 0]}}))
    src = str(Path(cli.__file__).resolve().parents[1])
    code = "import json, sys; from knotwind import cache_load; print(json.dumps(cache_load(sys.argv[1])))"
    done = subprocess.run(
        [sys.executable, "-O", "-c", code, str(path)],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert json.loads(done.stdout) == {}
    assert "stale" in done.stderr


def test_cache_spot_check_skips_the_unknot(tmp_path):
    path = tmp_path / "cache.json"
    stale = {"U": [], "T(2,5)": [2, 1, 0]}
    path.write_text(json.dumps({"tool_version": __version__, "entries": stale}))
    with pytest.warns(RuntimeWarning, match="stale"):
        out = run_ok(["vseq", "T(2,5)", "--format", "json", "--cache", str(path)])
    assert json.loads(out)["value"] == [1, 1, 0]
    assert json.loads(path.read_text())["entries"] == {"T(2,5)": [1, 1, 0]}
    path.write_text(json.dumps({"tool_version": __version__, "entries": {"U": []}}))
    assert cache_load(path) == {"U": []}


def test_cache_spot_check_compares_every_torus_knot(tmp_path):
    path = tmp_path / "cache.json"
    stale = {"T(2,3)": [1, 0], "T(2,5)": [2, 1, 0]}
    path.write_text(json.dumps({"tool_version": __version__, "entries": stale}))
    with pytest.warns(RuntimeWarning, match="stale"):
        out = run_ok(["vseq", "T(2,5)", "--format", "json", "--cache", str(path)])
    assert json.loads(out)["value"] == [1, 1, 0]
    assert json.loads(path.read_text())["entries"] == {"T(2,5)": [1, 1, 0]}


def test_cache_spot_check_recomputes_an_entry_off_the_semigroup_route(tmp_path):
    path = tmp_path / "cache.json"
    stale = {"T(2,3)": [1, 0], "T(2,3) # T(2,3)": [2, 1, 0]}
    path.write_text(json.dumps({"tool_version": __version__, "entries": stale}))
    with pytest.warns(RuntimeWarning, match="stale"):
        out = run_ok(["vseq", "T(2,3) # T(2,3)", "--cache", str(path)])
    assert "value: 1 1 0" in out.splitlines()
    assert json.loads(path.read_text())["entries"] == {"T(2,3) # T(2,3)": [1, 1, 0]}


@pytest.mark.parametrize(
    "entries, value",
    [
        ({"-T(2,91)": [0] * 46, "T(2,3) # -T(2,5)": [2, 1, 1, 0]}, "0 0 0 0"),
        ({"-T(2,25)": [0] * 13, "T(2,3) # -T(2,3)": [1, 1, 0]}, "0 0 0"),
    ],
    ids=["genus-45-mirror", "one-summand-mirror"],
)
def test_cache_spot_check_recomputes_the_entry_of_fewest_generators(tmp_path, entries, value):
    # The correct mirror has more generators, 91 or 25 against 15 or 9, so the stale sum
    # is the one recomputed, though it has more summands than the mirror.
    path = tmp_path / "cache.json"
    path.write_text(json.dumps({"tool_version": __version__, "entries": entries}))
    expr = list(entries)[1]
    with pytest.warns(RuntimeWarning, match="stale"):
        out = run_ok(["vseq", expr, "--cache", str(path)])
    assert f"value: {value}" in out.splitlines()


def test_cache_spot_check_ignores_an_enclosing_memo(tmp_path):
    stale = {"T(2,3) # -T(2,5)": [2, 1, 1, 0]}
    path = tmp_path / "cache.json"
    path.write_text(json.dumps({"tool_version": __version__, "entries": stale}))
    with v_memo(stale) as memo:
        with pytest.warns(RuntimeWarning, match="stale"):
            assert cache_load(path) == {}
    assert memo == stale  # the recompute filled a memo of its own


def test_cache_spot_check_recomputes_nothing_above_its_generator_limit(tmp_path, monkeypatch):
    from knotwind import cache

    seven = " # ".join(["T(2,3)"] * 7)  # 3^7 = 2,187 generators
    entries = {"T(2,3)": [1, 0], seven: list(v_sequence(parse_knot_expr(seven)).values)}
    assert parse_knot_expr(seven).single_positive_torus_knot() is None

    def recompute(expr):
        raise AssertionError(f"{expr} was recomputed")

    monkeypatch.setattr(cache, "v_sequence", recompute)
    path = tmp_path / "cache.json"
    path.write_text(json.dumps({"tool_version": __version__, "entries": entries}))
    assert cache_load(path) == entries


@pytest.mark.parametrize(
    "entries",
    [{"T(30001,30002)": [0]}, {"T(2,3001) # -T(2,3001)": [0] * 3001}],
    ids=["conductor-above-10^6", "9006001-generators"],
)
def test_cache_entries_the_engine_refuses_are_malformed(tmp_path, entries):
    path = tmp_path / "cache.json"
    path.write_text(json.dumps({"tool_version": __version__, "entries": entries}))
    key = re.escape(repr(list(entries)[0]))
    with pytest.warns(RuntimeWarning, match=f"malformed entry {key}"):
        assert cache_load(path) == {}
    with pytest.warns(RuntimeWarning, match=f"malformed entry {key}"):
        status, out, err = run(["ncf", "eval", "4,2", "--cache", str(path), "--format", "json"])
    assert (status, json.loads(out)["value"], err) == (0, "7/2", "")


def test_cache_spot_check_recomputes_nothing_when_every_entry_was_compared(tmp_path, monkeypatch):
    from knotwind import cache

    def recompute(expr):
        raise AssertionError(f"{expr} was recomputed")

    monkeypatch.setattr(cache, "v_sequence", recompute)
    path = tmp_path / "cache.json"
    entries = {"T(2,3)": [1, 0], "T(2,5)": [1, 1, 0]}
    path.write_text(json.dumps({"tool_version": __version__, "entries": entries}))
    assert cache_load(path) == entries


def test_cli_cached_and_uncached_outputs_identical(tmp_path):
    path = tmp_path / "cache.json"
    plain = run_ok(["vseq", "T(3,4)", "--format", "json", "--no-cache"])
    first = run_ok(["vseq", "T(3,4)", "--format", "json", "--cache", str(path)])
    assert path.exists()
    stored = json.loads(path.read_text())
    assert stored["tool_version"] == __version__
    assert stored["entries"]["T(3,4)"] == [1, 1, 1, 0]
    second = run_ok(["vseq", "T(3,4)", "--format", "json", "--cache", str(path)])
    assert plain == first == second


def test_cli_bound_winding_caches_the_torus_knot(tmp_path):
    path = tmp_path / "cache.json"
    run_ok(["bound", "winding", "T(2,5)", "--cache", str(path)])
    assert json.loads(path.read_text())["entries"] == {"T(2,5)": [1, 1, 0], "-T(2,5)": [0, 0, 0]}


def test_cli_memo_is_invisible_to_other_threads(tmp_path, monkeypatch):
    path = tmp_path / "cache.json"
    waiting, release = threading.Event(), threading.Event()
    compute = cli.v_sequence

    def paused(expr):
        waiting.set()
        release.wait(timeout=60)
        return compute(expr)

    monkeypatch.setattr(cli, "v_sequence", paused)
    results = []
    worker = threading.Thread(
        target=lambda: results.append(run(["vseq", "T(2,3)", "--cache", str(path)]))
    )
    worker.start()
    try:
        assert waiting.wait(timeout=60)
        v_sequence(parse_knot_expr("-T(2,3) # T(2,5)"))
    finally:
        release.set()
        worker.join(timeout=60)
    assert not worker.is_alive()
    assert results[0][0] == 0
    assert list(json.loads(path.read_text())["entries"]) == ["T(2,3)"]


def test_cli_no_cache_never_touches_file(tmp_path, monkeypatch):
    path = tmp_path / "cache.json"
    monkeypatch.setenv("KNOTWIND_CACHE", str(path))
    run_ok(["vseq", "T(2,3)", "--no-cache"])
    assert not path.exists()
    run_ok(["vseq", "T(2,3)"])
    assert path.exists()  # env var supplies the default path


def test_cli_version_and_help():
    from knotwind.cli import main

    assert main(["--help"]) == 0
    assert main(["--version"]) == 0


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
    path = tmp_path / "cache.json"
    path.write_text(json.dumps({"tool_version": __version__, "entries": entries}))
    expr = list(entries)[1]
    plain = run_ok(argv + ["--format", "json", "--no-cache", "--", expr])
    cached = run_ok(argv + ["--format", "json", "--cache", str(path), "--", expr])
    assert cached == plain
    assert json.loads(cached)["value"] == value
    stored = json.loads(path.read_text())["entries"][expr]
    assert len(stored) == parse_knot_expr(expr).genus + 1 and stored[-1] == 0


@pytest.mark.parametrize(
    "target, error",
    [
        ("v_sequence", MemoryError()),
        ("v_sequence", RecursionError("maximum recursion depth exceeded")),
        ("cache_load", MemoryError()),
        ("v_sequence", OverflowError("cannot fit 'int' into an index-sized integer")),
    ],
)
def test_resource_failures_get_an_error_document(tmp_path, monkeypatch, target, error):
    def exhausted(*args):
        raise error

    monkeypatch.setattr(cli, target, exhausted)
    cache = ["--cache", str(tmp_path / "cache.json")]
    status, out, err = run(["vseq", "T(2,3)", "--format", "json"] + cache)
    assert status == 1 and err == ""
    doc = json.loads(out)["error"]
    assert doc["kind"] == "resource" and doc["message"]
    status, out, err = run(["vseq", "T(2,3)"] + cache)
    assert (status, out) == (1, "")
    assert err == f"error (resource): {doc['message']}\n"
