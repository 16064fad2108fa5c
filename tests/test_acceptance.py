"""Acceptance suite: every numeric identity the bound chains rest on.

One test per criterion; each prints a pass/fail line (run pytest with -s to
see them on success) and asserts both exactness and its runtime budget.
"""

import itertools
import random
import time
from contextlib import contextmanager
from fractions import Fraction
from math import gcd

from knotwind import (
    KnotExpression,
    TorusKnot,
    cache_load,
    cache_store,
    correction_table,
    d_positive_surgery,
    d_zero_twisted,
    kn_seifert,
    ncf_eval,
    ncf_expand,
    parse_knot_expr,
    reproduce_kn,
    shake_bound,
    staircase,
    v0_closed_form,
    v0_family_knot,
    v_at,
    v_invariant,
    v_memo,
    v_sequence,
    v_sequence_torus,
    winding_bound_via_zero_surgery,
)


@contextmanager
def criterion(number, description, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number}: FAIL - {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {number}: PASS - {description} ({elapsed:.2f}s, budget {budget_seconds}s)")
    assert elapsed < budget_seconds, f"criterion {number} exceeded its runtime budget"


def test_criterion_1_closed_form_suite():
    with criterion(1, "V_0 closed forms for families I/II/III, n = 1..10", 1.0):
        for n in range(1, 11):
            assert v_sequence_torus(TorusKnot(2 * n, 2 * n + 1)).at(0) == n * (n + 1) // 2
            assert v_sequence_torus(TorusKnot(2 * n, 8 * n + 1)).at(0) == 2 * n * n
            assert v_sequence_torus(TorusKnot(2 * n + 1, 8 * n + 5)).at(0) == 2 * n * (n + 1)
            for family in ("I", "II", "III"):
                knot = v0_family_knot(family, n)
                assert v_sequence_torus(knot).at(0) == v0_closed_form(family, n)


def test_criterion_2_oracle_equivalence():
    with criterion(2, "semigroup V equals chain-complex V for 2 <= p < q <= 11", 60.0):
        for p in range(2, 11):
            for q in range(p + 1, 12):
                if gcd(p, q) != 1:
                    continue
                knot = TorusKnot(p, q)
                seq = v_sequence_torus(knot)
                chain = staircase(knot)
                for s in range(knot.genus + 1):
                    assert v_invariant(chain, s) == seq.at(s), (p, q, s)


def test_criterion_3_connected_sum_surgery_identity():
    with criterion(3, "d of m-surgery agrees on T(n,2n+1)#T(n,2n+1) and T(n,4n+1)", 120.0):
        for n in (2, 3, 4, 5):
            summed = KnotExpression.torus(n, 2 * n + 1) + KnotExpression.torus(n, 2 * n + 1)
            single = KnotExpression.torus(n, 4 * n + 1)
            with v_memo({}):
                assert list(v_sequence(summed)) == list(v_sequence(single)), n
                for m in range(1, 4 * n + 2):
                    for i in range(m):
                        left = d_positive_surgery(summed, m, i)
                        right = d_positive_surgery(single, m, i)
                        assert left == right, (n, m, i)


def test_criterion_4_whitehead_example():
    with criterion(4, "winding bound of the trefoil 0-surgery: B = 1, gw >= 2", 1.0):
        report = winding_bound_via_zero_surgery(KnotExpression.torus(2, 3))
        assert report.value == 1
        assert report.induced_minimum == 2


def test_criterion_5_kn_chain():
    with criterion(5, "K_n chain: 2V_0(J) - 2V_0(J') = 2n+2 and gw >= 4n+2, n = 1..5", 600.0):
        start = time.perf_counter()
        for n in range(1, 6):
            report = reproduce_kn(n)
            assert report.value == 2 * n + 2
            assert report.induced_minimum == 4 * n + 2
            assert report.sharp is True
            # The homology cross-check runs at the small sizes only: genus(J') is 12 and 40 there.
            checked = [t.name for t in report.trail].count("V_0(J') homology cross-check")
            assert checked == (1 if n <= 2 else 0), n
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, "semigroup+reduction, with two small cross-checks, must run in under 10s"


def test_criterion_6_seifert_euler_and_ncf_suite():
    with criterion(6, "Seifert Euler numbers negative and ncf identities", 1.0):
        for n in range(1, 101):
            value = kn_seifert(n).euler_number
            assert value == 2 * (Fraction(2, 4 * n + 3) - Fraction(1, 2 * n + 1))
            assert value < 0
        for n in range(1, 51):
            assert ncf_eval([2] * (2 * n)) == Fraction(2 * n + 1, 2 * n)
            assert ncf_eval([2 * n + 2, 2]) == Fraction(4 * n + 3, 2)


def _random_expression(rng, genus_cap, pool, max_summands=3):
    while True:
        count = rng.randint(1, max_summands)
        summands = tuple(
            (TorusKnot(*rng.choice(pool)), rng.choice((1, -1))) for _ in range(count)
        )
        expr = KnotExpression(summands)
        if expr.genus <= genus_cap:
            return expr


def test_criterion_7_shake_bound_routes():
    with criterion(7, "shake bound routes agree on 50 random expressions, genus <= 20", 60.0):
        assert shake_bound(KnotExpression.torus(2, 3)).value == 1
        rng = random.Random(20240901)
        pool = [(2, 3), (2, 5), (2, 7), (3, 4), (3, 5), (4, 5), (2, 9), (3, 7)]
        for _ in range(50):
            expr = _random_expression(rng, 20, pool)
            report = shake_bound(expr)  # internal route comparison runs here
            v_form = 2 * max(v_at(expr, 0), v_at(expr.mirror(), 0)) - 1
            dtw_form = max(d_zero_twisted(expr), d_zero_twisted(expr.mirror())) - Fraction(1, 2)
            assert dtw_form == v_form
            assert report.value == max(0, v_form)


def test_criterion_8_property_suite(tmp_path):
    with criterion(8, "square-zero/grading fuzz, symmetry, lens, round-trips", 120.0):
        rng = random.Random(42)
        pool = [(2, 3), (2, 5), (3, 4), (3, 5), (2, 7), (4, 5), (2, 9)]
        from knotwind import complex_of

        for _ in range(200):
            expr = _random_expression(rng, 30, pool)
            chain = complex_of(expr)  # constructor enforces square-zero
            for (k, l), exponent in chain.differential.items():
                mk, ak = chain.generators[k]
                ml, al = chain.generators[l]
                assert ml - 2 * exponent == mk - 1
                assert al - exponent <= ak
        for p, q in ((2, 3), (3, 4), (2, 9), (5, 6)):
            seq = v_sequence_torus(TorusKnot(p, q))
            for i in range(len(seq) - 1):
                assert 0 <= seq.at(i) - seq.at(i + 1) <= 1
        trefoil = KnotExpression.torus(2, 3)
        with v_memo({}):
            for n in range(1, 51):
                for i in range(1, n):
                    assert d_positive_surgery(trefoil, n, i) == d_positive_surgery(trefoil, n, n - i)
        unknot = KnotExpression.unknot()
        for n in range(1, 31):
            table = correction_table(unknot, n)
            for i in range(n):
                assert table[i] == Fraction((n - 2 * i) ** 2, 4 * n) - Fraction(1, 4)
        for coeffs in itertools.product(range(2, 8), repeat=3):
            assert ncf_expand(ncf_eval(list(coeffs))) == list(coeffs)
        cache_path = tmp_path / "cache.json"
        entries = {"T(2,3)": [1, 0], "T(2,3) # T(4,5)": [3, 2, 2, 1, 1, 1, 1, 0]}
        cache_store(cache_path, entries)
        assert cache_load(cache_path) == entries
        for text in ("U", "T(2,3)", "-T(2,3) # T(4,5)", "T(2,3)#T(2,3)#-T(2,5)"):
            assert parse_knot_expr(str(parse_knot_expr(text))) == parse_knot_expr(text)
