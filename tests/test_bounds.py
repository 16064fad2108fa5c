"""Bound combinators: values, trails, refinements and internal identities."""

import random
from fractions import Fraction

import pytest

from knotwind import (
    CorrectionTable,
    EssentialInput,
    KnotExpression,
    TorusKnot,
    ValidationError,
    correction_rhs,
    essential_report,
    multi_sphere_bound,
    parse_knot_expr,
    reproduce_kn,
    reproduce_whitehead,
    shake_bound,
    v_memo,
    winding_bound_via_zero_surgery,
)

TREFOIL = KnotExpression.torus(2, 3)


def trail_dict(report):
    return {t.name: t.value for t in report.trail}


def test_winding_bound_trefoil():
    report = winding_bound_via_zero_surgery(TREFOIL)
    assert report.value == 1
    assert report.induced_minimum == 2
    steps = trail_dict(report)
    assert steps["V_0(J)"] == 1
    assert steps["V_0(-J)"] == 0
    assert steps["dtw(S^3_0(J))"] == Fraction(-1, 2)
    assert steps["dtw(S^3_0(-J))"] == Fraction(3, 2)
    assert steps["gw >= (any parity)"] == 1
    assert all(t.anchor for t in report.trail)


def test_winding_bound_unknot_and_t25():
    report = winding_bound_via_zero_surgery(KnotExpression.unknot())
    assert report.value == 0
    assert report.induced_minimum == 0
    report = winding_bound_via_zero_surgery(KnotExpression.torus(2, 5))
    assert report.value == 1
    assert report.induced_minimum == 2


def test_winding_bound_flags_mixed_sums():
    report = winding_bound_via_zero_surgery(parse_knot_expr("T(2,3) # -T(2,5)"))
    assert any(t.value == "mixed-orientation sum" for t in report.trail)


def test_correction_rhs_examples():
    w_y = CorrectionTable(1, {0: Fraction(-1, 2)})
    w_neg = CorrectionTable(1, {0: Fraction(3, 2)})
    assert correction_rhs(w_y, w_neg) == 1
    flat = CorrectionTable(1, {0: Fraction(-1, 2)})
    assert correction_rhs(flat, flat) == 0
    kn_y = CorrectionTable(1, {0: Fraction(-5, 4)})  # the n = 1 family tables
    kn_neg = CorrectionTable(1, {0: Fraction(17, 4)})
    assert correction_rhs(kn_y, kn_neg) == 2
    with pytest.raises(ValidationError, match="mismatched"):
        correction_rhs(w_y, CorrectionTable(2, {0: Fraction(0), 1: Fraction(0)}))


def test_correction_rhs_monotone():
    rng = random.Random(3)
    for _ in range(25):
        n = rng.randint(1, 6)
        half = [Fraction(rng.randint(-8, 8), rng.choice((1, 2, 4))) for _ in range(n // 2 + 1)]
        values = {i: half[min(i, n - i)] for i in range(n)}
        table = CorrectionTable(n, values)
        bumped = CorrectionTable(n, {i: values[i] + Fraction(1, 2) for i in range(n)})
        base = correction_rhs(table, table)
        assert correction_rhs(bumped, table) >= base
        assert correction_rhs(table, bumped) >= base


def test_multi_sphere_bound_examples():
    w_y = CorrectionTable(1, {0: Fraction(-1, 2)})
    w_neg = CorrectionTable(1, {0: Fraction(3, 2)})
    report = multi_sphere_bound(w_y, w_neg, 1)
    assert report.value == 2
    assert trail_dict(report)["gw >= (unclamped)"] == 2
    low = CorrectionTable(1, {0: Fraction(-1)})
    report = multi_sphere_bound(low, low, 1)
    assert report.value == 0
    assert trail_dict(report)["gw >= (unclamped)"] == -4
    kn_y = CorrectionTable(1, {0: Fraction(-5, 4)})
    kn_neg = CorrectionTable(1, {0: Fraction(17, 4)})
    report = multi_sphere_bound(kn_y, kn_neg, 2)
    assert report.value == 4
    with pytest.raises(ValidationError):
        multi_sphere_bound(w_y, w_neg, 0)


def test_essential_bound_examples():
    constant = EssentialInput(2, {k: Fraction(1, 3) for k in range(4)})
    assert essential_report(constant).value == 0
    spiked = EssentialInput(2, {0: Fraction(1), 1: Fraction(0), 2: Fraction(0), 3: Fraction(0)})
    assert essential_report(spiked).value == 2
    symmetric = EssentialInput(2, {0: Fraction(1), 1: Fraction(2), 2: Fraction(1), 3: Fraction(2)})
    assert essential_report(symmetric).value == 0


def test_essential_bound_constant_shift_invariance():
    rng = random.Random(5)
    for _ in range(20):
        w = rng.choice((2, 4))
        table = {k: Fraction(rng.randint(-6, 6), rng.choice((1, 2, 4))) for k in range(w * w)}
        base = essential_report(EssentialInput(w, table)).value
        shift = Fraction(rng.randint(-5, 5), 2)
        shifted = essential_report(EssentialInput(w, {k: v + shift for k, v in table.items()})).value
        assert base == shifted


def test_essential_input_validation():
    with pytest.raises(ValidationError, match="even"):
        EssentialInput(3, {k: Fraction(0) for k in range(9)})
    with pytest.raises(ValidationError, match="cover"):
        EssentialInput(2, {0: Fraction(0)})
    with pytest.raises(ValidationError, match="cover"):
        EssentialInput(2, {0: 0, 1: 0, 2: 0, 7: 0})  # four residues, one out of range
    # The coverage check counts the keys before it would list w^2 = 10^12 residues.
    with pytest.raises(ValidationError, match="cover"):
        EssentialInput(10**6, {"0": 0})
    for inexact in (0.5, True, "abc", "1/0"):
        with pytest.raises(ValidationError, match="exact"):
            EssentialInput(2, {0: inexact, 1: 0, 2: 0, 3: 0})
    for twice in ({0: 0, 1: 0, "1": 5, 2: 0, 3: 0}, {"0": 0, "1": 0, "01": 5, "2": 0, "3": 0}):
        with pytest.raises(ValidationError, match="second time"):
            EssentialInput(2, twice)
    for key in ("x", 1.0, True):
        with pytest.raises(ValidationError, match="integer residue"):
            EssentialInput(2, {0: 0, key: 0, 2: 0, 3: 0})
    # String keys follow the ASCII rule of knot expressions: int() would read each of these.
    for key in ("\u0660", "1_0", "+1"):
        with pytest.raises(ValidationError, match="integer residue"):
            EssentialInput(2, {key: 0, "1": 0, "2": 0, "3": 0})


def test_each_v0_is_computed_once(monkeypatch):
    from knotwind import complexes

    built = []
    real = complexes.complex_of

    def counting(expr):
        built.append(str(expr))
        return real(expr)

    monkeypatch.setattr(complexes, "complex_of", counting)
    expr = parse_knot_expr("T(2,3) # -T(2,5)")
    for bound in (shake_bound, winding_bound_via_zero_surgery):
        built.clear()
        bound(expr)
        assert sorted(built) == ["-T(2,3) # T(2,5)", "T(2,3) # -T(2,5)"], bound.__name__


def test_shake_bound_examples():
    assert shake_bound(TREFOIL).value == 1
    assert shake_bound(KnotExpression.unknot()).value == 0
    assert shake_bound(KnotExpression.torus(2, 9)).value == 3
    report = shake_bound(KnotExpression.unknot())
    assert trail_dict(report)["gsh0 >= (V form)"] == -1  # pre-clamp preserved


def test_shake_bound_routes_agree_on_random_expressions():
    rng = random.Random(12)
    small = [(2, 3), (2, 5), (3, 4), (2, 7), (3, 5)]
    for _ in range(10):
        picks = [rng.choice(small) for _ in range(rng.randint(1, 2))]
        expr = KnotExpression(
            tuple((TorusKnot(p, q), rng.choice((1, -1))) for p, q in picks)
        )
        report = shake_bound(expr)  # raises InternalCheckError on route disagreement
        names = trail_dict(report)
        assert names["gsh0 >= (dtw form)"] == names["gsh0 >= (V form)"]


def test_reproduce_kn_small():
    report = reproduce_kn(1)
    steps = trail_dict(report)
    assert steps["V_0(J)"] == 6
    assert steps["V_0(J')"] == 4
    assert steps["reduction of J'"] == "T(3,13)"
    assert report.value == 4
    assert report.induced_minimum == 6
    assert report.sharp is True
    assert steps["2n+2"] == 4
    report = reproduce_kn(2)
    steps = trail_dict(report)
    assert steps["V_0(J)"] == 15
    assert steps["V_0(J')"] == 12
    assert "V_0(J') homology cross-check" in steps  # genus 40 permits the slow route
    assert report.value == 6
    assert report.induced_minimum == 10
    report = reproduce_kn(3)
    assert report.value == 8
    assert trail_dict(report)["V_0(J)"] - trail_dict(report)["V_0(J')"] == 4
    # A stale memo entry for J' is never the cross-check: the complex is searched.
    with v_memo({"T(3,7) # T(3,7)": [5, 5, 5, 5, 4, 3, 3, 2, 2, 1, 1, 1, 0]}):
        report = reproduce_kn(1)
    assert report.value == 4
    assert trail_dict(report)["V_0(J') homology cross-check"] == 4


def test_reproduce_kn_identity_up_to_10():
    for n in range(1, 11):
        report = reproduce_kn(n)
        assert report.value == 2 * n + 2
        assert report.induced_minimum == 4 * n + 2
        assert report.sharp is True


def test_reproduce_kn_validation():
    with pytest.raises(ValidationError):
        reproduce_kn(0)


def test_reproduce_whitehead():
    report = reproduce_whitehead()
    assert report.value == 1
    assert report.induced_minimum == 2
    assert report.sharp is True
    steps = trail_dict(report)
    assert steps["upper bound"] == 2
