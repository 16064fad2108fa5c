"""Inputs rejected where they enter, the internal guards of the K_n chain, and the generator budget."""

import json
import re
import tempfile
from math import gcd

import pytest

import knotwind.bounds as bounds
import knotwind.complexes as complexes
from knotwind import (
    BifilteredComplex,
    InternalCheckError,
    KnotExpression,
    TorusKnot,
    ValidationError,
    __version__,
    as_expression,
    cache_load,
    complex_of,
    parse_knot_expr,
    reproduce_kn,
    staircase,
    v_sequence,
)
from knotwind.cli import run


def _raised(call):
    with pytest.raises(ValidationError) as info:
        call()
    return str(info.value)


def _cli_error(argv):
    status, out, err = run([*argv, "--no-cache", "--format", "json"])
    assert (status, err) == (2, "")
    error = json.loads(out)["error"]
    assert error["kind"] == "validation"
    return error["message"]


def _cache_file(tmp_path, content):
    path = tmp_path / "cache.json"
    path.write_text(json.dumps(content))
    with pytest.warns(RuntimeWarning) as record:
        assert cache_load(path) == {}
    return str(record[0].message)


def _store_refused(tmp_path, monkeypatch):
    def unwritable(**kwargs):  # what mkstemp raises in a directory the user cannot write
        raise PermissionError(13, "Permission denied", kwargs["dir"])

    monkeypatch.setattr(tempfile, "mkstemp", unwritable)
    with pytest.warns(RuntimeWarning) as record:
        status, out, err = run(["vseq", "T(2,3)", "--format", "json", "--cache", str(tmp_path / "c.json")])
    assert (status, json.loads(out)["value"], err) == (0, [1, 0], "")
    assert not (tmp_path / "c.json").exists()
    return str(record[0].message)


def _dtable(tmp_path, content):
    path = tmp_path / "dtable.json"
    if content is not None:
        path.write_text(json.dumps(content))
    return _cli_error(["bound", "essential", "--w", "2", "--dtable", str(path)])


TREFOIL = TorusKnot(2, 3)

# Each case returns the message of its rejection, which must match the pattern.
REJECTIONS = {
    "cache file holding a JSON list": (
        lambda tmp, _: _cache_file(tmp, [1, 0]), "not a JSON object"),
    "cache file without entries": (
        lambda tmp, _: _cache_file(tmp, {"tool_version": __version__}), "missing entries object"),
    "cache store into an unwritable directory": (
        _store_refused, "^could not write cache file .*Permission denied"),
    "missing d-table file": (lambda tmp, _: _dtable(tmp, None), "^cannot read d-table file"),
    "d-table file that is not an object": (
        lambda tmp, _: _dtable(tmp, [2, {}]), r'^d-table file .* must be \{"w": int, "d": \{\.\.\.\}\}$'),
    "d-table whose d is not an object": (
        lambda tmp, _: _dtable(tmp, {"w": 2, "d": [0, 0, 0, 0]}), "^d-table entry 'd' must be an object"),
    "summand that is not a pair": (
        lambda *_: _raised(lambda: KnotExpression((TREFOIL,))), r"is not a \(TorusKnot, sign\) pair$"),
    "summand knot that is not a TorusKnot": (
        lambda *_: _raised(lambda: KnotExpression((("T(2,3)", 1),))),
        r"^summand knot 'T\(2,3\)' is not a TorusKnot$"),
    "as_expression of an int": (
        lambda *_: _raised(lambda: as_expression(3)), "^expected a KnotExpression or TorusKnot, got 3$"),
    "parse_knot_expr of None": (
        lambda *_: _raised(lambda: parse_knot_expr(None)), "^knot expression must be a string$"),
    "staircase of a string": (
        lambda *_: _raised(lambda: staircase("T(2,3)")), r"^staircase expects a TorusKnot, got 'T\(2,3\)'$"),
    "complex without generators": (
        lambda *_: _raised(lambda: BifilteredComplex((), {})), "^a complex needs at least one generator$"),
}


@pytest.mark.parametrize("case, pattern", REJECTIONS.values(), ids=REJECTIONS.keys())
def test_rejection_branches(case, pattern, tmp_path, monkeypatch):
    assert re.search(pattern, case(tmp_path, monkeypatch))


def test_reproduce_kn_refuses_a_wrong_reduction(monkeypatch):
    monkeypatch.setattr(bounds, "diamond_reduce", lambda expr: None)
    with pytest.raises(InternalCheckError, match="^multiplicity reduction of T.* returned None$"):
        reproduce_kn(1)


def test_reproduce_kn_refuses_a_homology_disagreement(monkeypatch):
    monkeypatch.setattr(bounds, "v_invariant", lambda complex_, s: 99)
    with pytest.raises(InternalCheckError, match=r"^K_1 cross-check failed: homology V_0\(J'\) = 99"):
        reproduce_kn(1)


def test_reproduce_kn_refuses_a_wrong_chain_value(monkeypatch):
    real = bounds.semigroup_from_pair

    class OneMore:  # V_0(J) one too large; J' and its cross-check are untouched
        def __init__(self, semigroup):
            self.semigroup = semigroup

        def count_below(self, t):
            return self.semigroup.count_below(t) + 1

    def semigroup_from_pair(p, q):  # J = T(6,7) at n = 1
        return OneMore(real(p, q)) if (p, q) == (6, 7) else real(p, q)

    monkeypatch.setattr(bounds, "semigroup_from_pair", semigroup_from_pair)
    with pytest.raises(InternalCheckError, match=r"^K_1 chain value 6 differs from 2n\+2 = 4"):
        reproduce_kn(1)


BEYOND_BUDGET = "T(2,3001) # -T(2,3001)"  # 3,001^2 = 9,006,001 generators
BUDGET_MESSAGE = f"the chain complex has more than {complexes._GENERATOR_LIMIT} generators"


def test_a_complex_beyond_the_budget_exits_2():
    assert _cli_error(["vseq", BEYOND_BUDGET]) == BUDGET_MESSAGE


def test_a_complex_beyond_the_budget_is_refused_before_any_part_is_built(monkeypatch):
    def never(knot):
        raise AssertionError(f"built the staircase of {knot}")

    monkeypatch.setattr(complexes, "_staircase_part", never)
    for call in (complex_of, v_sequence):
        with pytest.raises(ValidationError, match=f"^{BUDGET_MESSAGE}$"):
            call(parse_knot_expr(BEYOND_BUDGET))


def test_the_budget_counts_the_generators_of_each_staircase(monkeypatch):
    for p in range(2, 9):
        for q in range(p + 1, 40):
            if gcd(p, q) == 1:
                knot = TorusKnot(p, q)
                size = staircase(knot).n_generators
                monkeypatch.setattr(complexes, "_GENERATOR_LIMIT", size)
                assert complex_of(-KnotExpression.torus(p, q)).n_generators == size
                monkeypatch.setattr(complexes, "_GENERATOR_LIMIT", size - 1)
                with pytest.raises(ValidationError):
                    complex_of(knot)
