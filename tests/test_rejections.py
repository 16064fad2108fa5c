"""Inputs rejected where they enter, the internal guards of the K_n chain and the homology route,
and the generator budget."""

import json
import re
from fractions import Fraction
from math import gcd

import pytest

import knotwind.bounds as bounds
import knotwind.complexes as complexes
import knotwind.surgery as surgery
from knotwind import (
    BifilteredComplex,
    InternalCheckError,
    KnotExpression,
    TorusKnot,
    ValidationError,
    as_expression,
    combined_invariant,
    complex_of,
    dualize,
    parse_knot_expr,
    reproduce_kn,
    staircase,
    tensor,
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


def _dtable(tmp_path, content):
    path = tmp_path / "dtable.json"
    if content is not None:
        path.write_text(json.dumps(content))
    return _cli_error(["bound", "essential", "--w", "2", "--dtable", str(path)])


TREFOIL = TorusKnot(2, 3)

# Each case returns the message of its rejection, which must match the pattern.
REJECTIONS = {
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
    # Sized before the limit is lowered: `staircase` obeys the budget too.
    sizes = {
        TorusKnot(p, q): staircase(TorusKnot(p, q)).n_generators
        for p in range(2, 9) for q in range(p + 1, 40) if gcd(p, q) == 1
    }
    for knot, size in sizes.items():
        monkeypatch.setattr(complexes, "_GENERATOR_LIMIT", size)
        assert complex_of(-KnotExpression.torus(knot.p, knot.q)).n_generators == size
        monkeypatch.setattr(complexes, "_GENERATOR_LIMIT", size - 1)
        with pytest.raises(ValidationError):
            complex_of(knot)


def test_the_public_builders_obey_the_budget(monkeypatch):
    with pytest.raises(ValidationError, match=f"^{BUDGET_MESSAGE}$"):
        staircase(TorusKnot(2, 20003))  # 20,003 generators
    chain = staircase(TorusKnot(2, 151))  # 151^2 = 22,801 generators in the tensor product

    def never(left, right):
        raise AssertionError("built the tensor product")

    monkeypatch.setattr(complexes, "_tensor_part", never)
    with pytest.raises(ValidationError, match=f"^{BUDGET_MESSAGE}$"):
        tensor(chain, dualize(chain))


class _Membership:  # a semigroup table whose Alexander exponents are not symmetric
    membership = b"\x01\x01"


SUM = "T(2,3) # -T(2,3)"  # 9 generators: the unreduced walk checks every level
# Each guard of the homology route, forced by one replacement, raises its own message.
HOMOLOGY_GUARDS = {
    "reduced and unreduced tops disagree": (
        complexes, "_stable_top", lambda first, second, order: 1,
        lambda: v_sequence(parse_knot_expr(SUM)),
        r"^reduced and unreduced tower tops disagree at level 0: 0 vs 1$"),
    "staircase exponents asymmetric": (
        complexes, "semigroup_from_pair", lambda p, q: _Membership(),
        lambda: staircase(TREFOIL),
        r"^Alexander exponent set of T\(2,3\) is not symmetric$"),
    "tower top odd": (
        complexes, "_tower_tops", lambda complex_, first, last: [-1] * (last - first + 1),
        lambda: v_sequence(parse_knot_expr(SUM)),
        r"^sublevel tower top -1 at level 0 is not an even non-positive grading$"),
    "tower top positive": (
        complexes, "_tower_tops", lambda complex_, first, last: [2] * (last - first + 1),
        lambda: v_sequence(parse_knot_expr(SUM)),
        r"^sublevel tower top 2 at level 0 is not an even non-positive grading$"),
    "homology sequence not monotone": (
        complexes, "_v_values", lambda complex_, first, last: [0, 2, 0],
        lambda: v_sequence(parse_knot_expr(SUM)),
        r"^computed V-values violate monotonicity: V_0 = 0, V_1 = 2: step outside \{0,1\}$"),
    "ceiling identity": (
        surgery, "d_circle_bundle_twisted", lambda g: Fraction(0),
        lambda: combined_invariant(1),
        r"^ceiling identity failed at g=1: 6 != 8$"),
}


@pytest.mark.parametrize("module, name, replacement, call, pattern", HOMOLOGY_GUARDS.values(),
                         ids=HOMOLOGY_GUARDS.keys())
def test_homology_route_guards(monkeypatch, module, name, replacement, call, pattern):
    monkeypatch.setattr(module, name, replacement)
    with pytest.raises(InternalCheckError, match=pattern):
        call()


def test_a_homology_guard_gives_an_internal_error_document(monkeypatch):
    monkeypatch.setattr(complexes, "_stable_top", lambda first, second, order: 1)
    status, out, err = run(["vseq", SUM, "--no-cache", "--format", "json"])
    assert (status, err) == (1, "")
    assert json.loads(out) == {"error": {
        "kind": "internal", "message": "reduced and unreduced tower tops disagree at level 0: 0 vs 1",
    }}
