"""Surgery correction terms, continued fractions and Seifert arithmetic."""

import itertools
import random
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest

from knotwind import (
    CorrectionTable,
    KnotExpression,
    SeifertPresentation,
    ValidationError,
    combined_invariant,
    correction_table,
    d_circle_bundle_twisted,
    d_positive_surgery,
    d_zero_twisted,
    kn_seifert,
    ncf_eval,
    ncf_expand,
    parse_knot_expr,
    v_memo,
)

TREFOIL = KnotExpression.torus(2, 3)
UNKNOT = KnotExpression.unknot()


def test_spinc_labels():
    # Label i has chern number n - 2i: on the unknot d = (n - 2i)^2/(4n) - 1/4.
    assert d_positive_surgery(UNKNOT, 5, 1) == Fraction(3**2, 20) - Fraction(1, 4)
    assert d_positive_surgery(UNKNOT, 5, 4) == Fraction((-3) ** 2, 20) - Fraction(1, 4)
    with pytest.raises(ValidationError, match=r"^spin\^c index must satisfy 0 <= i < n, got i=5, n=5$"):
        d_positive_surgery(UNKNOT, 5, 5)
    with pytest.raises(ValidationError, match="^surgery coefficient must be a positive integer, got 0$"):
        d_positive_surgery(UNKNOT, 0, 0)
    # The coefficient is checked first, and both before the knot is read.
    with pytest.raises(ValidationError, match="^surgery coefficient"):
        d_positive_surgery("not a knot", 0, 7)
    with pytest.raises(ValidationError, match=r"^spin\^c index"):
        d_positive_surgery("not a knot", 3, 7)


def test_d_positive_surgery_examples():
    assert d_positive_surgery(TREFOIL, 1, 0) == -2
    assert d_positive_surgery(UNKNOT, 2, 0) == Fraction(1, 4)
    assert d_positive_surgery(UNKNOT, 2, 1) == Fraction(-1, 4)


def test_d_positive_surgery_index_validation():
    with pytest.raises(ValidationError):
        d_positive_surgery(TREFOIL, 3, 3)
    with pytest.raises(ValidationError):
        d_positive_surgery(TREFOIL, 3, -1)


def test_d_positive_surgery_builds_one_complex(monkeypatch):
    from knotwind import complexes

    built = []
    real = complexes.complex_of

    def counting(expr):
        built.append(str(expr))
        return real(expr)

    monkeypatch.setattr(complexes, "complex_of", counting)
    expr = parse_knot_expr("T(3,4) # -T(2,5)")
    d = d_positive_surgery(expr, 5, 1)
    assert built == [str(expr)]
    built.clear()
    with v_memo({}):
        assert d_positive_surgery(expr, 5, 1) == d
        assert d_positive_surgery(expr, 5, 4) == d  # the conjugate label reads the memo
    assert built == [str(expr)]


def test_lens_space_reduction_for_unknot():
    for n in range(1, 31):
        for i in range(n):
            expected = Fraction((n - 2 * i) ** 2, 4 * n) - Fraction(1, 4)
            assert d_positive_surgery(UNKNOT, n, i) == expected


def test_conjugation_symmetry_up_to_50():
    knots = [
        TREFOIL,
        parse_knot_expr("T(2,3) # T(2,5)"),
        parse_knot_expr("-T(4,5)"),
        UNKNOT,
    ]
    with v_memo({}):
        for expr in knots:
            for n in range(1, 51):
                for i in range(1, n):
                    left = d_positive_surgery(expr, n, i)
                    right = d_positive_surgery(expr, n, n - i)
                    assert left == right, (str(expr), n, i)


def test_denominator_divides_4n():
    with v_memo({}):
        for expr in (TREFOIL, parse_knot_expr("T(3,4)"), UNKNOT):
            for n in (1, 2, 3, 7, 12):
                for i in range(n):
                    d = d_positive_surgery(expr, n, i)
                    assert (4 * n) % d.denominator == 0


def test_surgery_diamond_identity_t37():
    summed = parse_knot_expr("T(3,7) # T(3,7)")
    single = parse_knot_expr("T(3,13)")
    with v_memo({}):
        for i in range(13):
            assert d_positive_surgery(summed, 13, i) == d_positive_surgery(single, 13, i)


def test_correction_table_symmetry_and_errors():
    table = correction_table(TREFOIL, 6)
    assert set(table.entries) == set(range(6))
    for i in range(1, 6):
        assert table[i] == table[6 - i]
        assert table[i] is table[6 - i]  # checked equal, then stored once
    with pytest.raises(FrozenInstanceError):
        table.n = 7
    assert not hasattr(table, "__dict__")
    with pytest.raises(ValidationError, match="conjugation"):
        CorrectionTable(3, {0: Fraction(0), 1: Fraction(1), 2: Fraction(2)})
    with pytest.raises(ValidationError, match="cover"):
        CorrectionTable(3, {0: Fraction(0)})
    with pytest.raises(ValidationError, match="cover"):
        CorrectionTable(3, {0: Fraction(0), 1: Fraction(0), 5: Fraction(0)})  # three, one out of range
    # The coverage check counts the keys before it would list 10^12 residues.
    with pytest.raises(ValidationError, match="cover"):
        CorrectionTable(10**12, {0: 0})


def test_d_zero_twisted_examples():
    assert d_zero_twisted(TREFOIL) == Fraction(-1, 2)
    assert d_zero_twisted(TREFOIL.mirror()) == Fraction(3, 2)
    assert d_zero_twisted(UNKNOT) == Fraction(-1, 2)


def test_circle_bundle_values_and_ceiling_identity():
    assert d_circle_bundle_twisted(0) == Fraction(-1, 2)
    assert d_circle_bundle_twisted(1) == Fraction(1, 2)
    assert d_circle_bundle_twisted(2) == Fraction(-1, 2)
    assert combined_invariant(1) == 8
    assert combined_invariant(2) == 8
    for g in range(101):
        assert combined_invariant(g) == 8 * ((g + 1) // 2)
    with pytest.raises(ValidationError):
        d_circle_bundle_twisted(-1)


def test_ncf_eval_examples():
    assert ncf_eval([2, 2]) == Fraction(3, 2)
    assert ncf_eval([4, 2]) == Fraction(7, 2)
    assert ncf_eval([7]) == 7
    with pytest.raises(ValidationError):
        ncf_eval([2, 1])
    with pytest.raises(ValidationError):
        ncf_eval([])


def test_ncf_expand_examples_and_validation():
    assert ncf_expand(Fraction(7, 2)) == [4, 2]
    assert ncf_expand(Fraction(3, 2)) == [2, 2]
    assert ncf_expand(5) == [5]
    with pytest.raises(ValidationError):
        ncf_expand(Fraction(1, 1))
    with pytest.raises(ValidationError):
        ncf_expand(Fraction(2, 3))
    # (n+1)/n expands to n twos: 10,000 is the most a single expansion gives.
    assert ncf_expand(Fraction(10_001, 10_000)) == [2] * 10_000
    with pytest.raises(ValidationError, match="more than 10000 coefficients"):
        ncf_expand(Fraction(10_002, 10_001))


def test_ncf_round_trip_exhaustive_short():
    for length in (1, 2, 3, 4):
        for coeffs in itertools.product(range(2, 10), repeat=length):
            coeffs = list(coeffs)
            assert ncf_expand(ncf_eval(coeffs)) == coeffs


def test_ncf_round_trip_sampled_long():
    rng = random.Random(11)
    for _ in range(1500):
        coeffs = [rng.randint(2, 9) for _ in range(rng.randint(5, 6))]
        assert ncf_expand(ncf_eval(coeffs)) == coeffs


def test_ncf_family_identities():
    for n in range(1, 51):
        assert ncf_eval([2] * (2 * n)) == Fraction(2 * n + 1, 2 * n)
        assert ncf_eval([2 * n + 2, 2]) == Fraction(4 * n + 3, 2)


def test_seifert_presentation_and_euler():
    empty = SeifertPresentation(0, ())
    assert empty.euler_number == 0
    with pytest.raises(ValidationError):
        SeifertPresentation(0, (Fraction(3, 2),))
    presentation = kn_seifert(1)
    assert presentation.e0 == -2
    assert presentation.fibers == (
        Fraction(2, 3),
        Fraction(2, 3),
        Fraction(2, 7),
        Fraction(2, 7),
    )
    assert presentation.euler_number == Fraction(-2, 21)


def test_kn_seifert_euler_closed_form_and_sign():
    for n in range(1, 101):
        expected = 2 * (Fraction(2, 4 * n + 3) - Fraction(1, 2 * n + 1))
        value = kn_seifert(n).euler_number
        assert value == expected
        assert value < 0
    with pytest.raises(ValidationError):
        kn_seifert(0)
