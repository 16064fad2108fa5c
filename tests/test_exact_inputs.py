"""The exact-input rule: integers are ints, rationals are exact, bools and floats are neither."""

import sys
from fractions import Fraction

import pytest

import knotwind as K
from knotwind.cli import fraction_str
from knotwind.errors import decimal_int, exact_int, exact_rational
from knotwind.surgery import dtw_zero

T = K.TorusKnot
TREFOIL = K.KnotExpression.torus(2, 3)
MIXED = K.parse_knot_expr("T(2,3) # -T(2,5)")
CHAIN = K.staircase(T(2, 3))  # three generators, arrows 1->0 (n = 1) and 1->2 (n = 0)
SEMIGROUP = K.NumericalSemigroup(2, 3)
TABLE = K.CorrectionTable(1, {0: Fraction(1, 2)})

# Each of these was accepted, and its input coerced, before the rule.
COERCED = {
    # the probes that motivated the rule
    "VSequence float": lambda: K.VSequence((1.9, 0)),
    "BifilteredComplex float gradings": lambda: K.BifilteredComplex(((0.5, 0.7),)),
    "CorrectionTable float value": lambda: K.CorrectionTable(1, {0: 0.1}),
    "correction_table bool n": lambda: K.correction_table(T(2, 5), True),
    "reproduce_kn bool": lambda: K.reproduce_kn(True),
    "kn_seifert bool": lambda: K.kn_seifert(True),
    "v_sequence().at bool": lambda: K.v_sequence(TREFOIL).at(True),
    "v_at bool": lambda: K.v_at(TREFOIL, True),
    "v_invariant bool": lambda: K.v_invariant(CHAIN, True),
    "TruncatedComplex bool order": lambda: K.TruncatedComplex(CHAIN, True),
    "TruncatedComplex float floors": lambda: K.TruncatedComplex(CHAIN, 3, (0.9, 0, 0)),
    "SeifertPresentation bool e0": lambda: K.SeifertPresentation(True, ()),
    "ncf_expand float": lambda: K.ncf_expand(2.5),
    "KnotExpression bool sign": lambda: K.KnotExpression(((T(2, 3), True),)),
    "CorrectionTable mistyped keys": lambda: K.CorrectionTable(2, {"0": 1, 1.0: 2}),
    # bool and float variants of the other entry points
    "KnotExpression float sign": lambda: K.KnotExpression(((T(2, 3), 1.0),)),
    "NumericalSemigroup.count_below bool": lambda: SEMIGROUP.count_below(False),
    "VSequence bool": lambda: K.VSequence((True, 0)),
    "VSequence.at bool": lambda: K.VSequence((1, 0)).at(False),
    "v0_closed_form bool": lambda: K.v0_closed_form("I", True),
    "v0_family_knot bool": lambda: K.v0_family_knot("II", True),
    "BifilteredComplex bool grading": lambda: K.BifilteredComplex(((True, 0),)),
    "BifilteredComplex float exponent": lambda: K.BifilteredComplex(((1, 1), (0, 0)), {(0, 1): 0.0}),
    "BifilteredComplex bool exponent": lambda: K.BifilteredComplex(((1, 1), (0, 0)), {(0, 1): False}),
    "TruncatedComplex bool floors": lambda: K.TruncatedComplex(CHAIN, 3, (True, 0, 0)),
    "v_at bool on the homology route": lambda: K.v_at(MIXED, False),
    "d_positive_surgery bool coefficient": lambda: K.d_positive_surgery(TREFOIL, True, 0),
    "d_positive_surgery bool index": lambda: K.d_positive_surgery(TREFOIL, 3, True),
    # the spin^c label (n, i) = (3, True), checked before the knot is read, here a mixed sum
    "SpincLabel bool index": lambda: K.d_positive_surgery(MIXED, 3, True),
    "CorrectionTable bool size": lambda: K.CorrectionTable(True, {0: 0}),
    "CorrectionTable bool value": lambda: K.CorrectionTable(1, {0: True}),
    "CorrectionTable float key": lambda: K.CorrectionTable(1, {0.0: 0}),
    "d_circle_bundle_twisted bool": lambda: K.d_circle_bundle_twisted(True),
    "combined_invariant bool": lambda: K.combined_invariant(False),
    "ncf_expand float above 1": lambda: K.ncf_expand(1.5),
    "SeifertPresentation float fibre": lambda: K.SeifertPresentation(-2, (0.5,)),
    "multi_sphere_bound bool": lambda: K.multi_sphere_bound(TABLE, TABLE, True),
    "semigroup_from_pair float after its int": lambda: [K.semigroup_from_pair(p, 3) for p in (2, 2.0)],
    "fraction_str float": lambda: fraction_str(0.5),
    "dtw_zero bool": lambda: dtw_zero(True),
    "dtw_zero float": lambda: dtw_zero(0.5),
    "NumericalSemigroup.contains bool": lambda: SEMIGROUP.contains(True),
    "NumericalSemigroup.contains float": lambda: SEMIGROUP.contains(1.5),
    "BifilteredComplex bool keys": lambda: K.BifilteredComplex(((1, 1), (0, 0)), {(False, True): 0}),
}


@pytest.mark.parametrize("call", COERCED.values(), ids=COERCED.keys())
def test_inexact_inputs_are_rejected(call):
    with pytest.raises(K.ValidationError):
        call()


# Inputs rejected before the rule, with the messages they must keep.
REJECTED = {
    "torus knot parameters must be integers, got (2.5,3)": lambda: T(2.5, 3),
    "semigroup generators must be integers, got ('2',3)": lambda: K.NumericalSemigroup("2", 3),
    "count_below needs a non-negative integer, got -1": lambda: SEMIGROUP.count_below(-1),
    "summand sign must be +1 or -1, got 0": lambda: K.KnotExpression(((T(2, 3), 0),)),
    "U-exponent on arrow 0->1 is negative": lambda: K.BifilteredComplex(((1, 1), (0, 0)), {(0, 1): -1}),
    "floors must be non-negative": lambda: K.TruncatedComplex(CHAIN, 3, (-1, 0, 0)),
    "floors must span a subcomplex: floors[l] <= floors[k] + n on each arrow": lambda: K.TruncatedComplex(CHAIN, 3, (0, 0, 2)),
    "spin^c index must satisfy 0 <= i < n, got i=1.5, n=3": lambda: K.d_positive_surgery(TREFOIL, 3, 1.5),
    "spin^c index must satisfy 0 <= i < n, got i=-1, n=3": lambda: K.d_positive_surgery(TREFOIL, 3, -1),
    "coefficients must be integers >= 2, got 1": lambda: K.ncf_eval([3, 1]),
    "winding class w must be a positive even integer, got 3": lambda: K.EssentialInput(3, {}),
    "d-table key 1.5 is not an integer residue": lambda: K.EssentialInput(2, {1.5: 0}),
    "d-table key 'x' is not an integer residue": lambda: K.EssentialInput(2, {"x": 0}),
    "d-table value for residue 0 must be an exact rational, got 0.5": lambda: K.EssentialInput(2, {0: 0.5}),
    "d-table value for residue '0' must be an exact rational, got '1/0'": lambda: K.EssentialInput(2, {"0": "1/0"}),
}


@pytest.mark.parametrize("message, call", REJECTED.items(), ids=REJECTED.keys())
def test_messages_of_inputs_rejected_before_are_unchanged(message, call):
    with pytest.raises(K.ValidationError) as info:
        call()
    assert str(info.value) == message


def test_the_two_helpers():
    assert exact_int(-3, "x") == -3 and exact_int(2, "x", 2) == 2
    for bad, low in ((True, None), (2.0, None), ("2", None), (1, 2)):
        with pytest.raises(K.ValidationError, match=f"^count, got {bad!r}$"):
            exact_int(bad, "count", low)
    with pytest.raises(K.ValidationError, match="^built lazily$"):
        exact_int(None, lambda: "built lazily")
    assert exact_rational(3, "d") == 3 and isinstance(exact_rational(3, "d"), Fraction)
    assert exact_rational(" -2/6 ", "d") == Fraction(-1, 3)
    assert exact_rational("0.5", "d") == Fraction(1, 2)  # a decimal string is exact
    assert exact_rational("-5/4", "d") == Fraction(-5, 4)
    third = Fraction(1, 3)
    assert exact_rational(third, "d") is third  # immutable, so not copied
    # Fraction() reads the second row; the ASCII rule of decimal_int refuses it.
    for bad in (True, 0.5, "1/0", "nan", "abc", None, [1], "1/-2", "1.5/2", "- 1/2",
                "\u0663/2", "1_5/2", "+7/2", "35e-1", ".5", "5."):
        with pytest.raises(K.ValidationError, match="^d, got "):
            exact_rational(bad, "d")
    # Text with more digits than int() converts is refused with the same message.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        digits = "7" * (limit + 1)
        for bad in (digits, f"{digits}/2", f"2/{digits}"):
            with pytest.raises(K.ValidationError, match="^d, got "):
                exact_rational(bad, "d")
        with pytest.raises(K.ValidationError, match="^n, got "):
            decimal_int(digits, "n")
