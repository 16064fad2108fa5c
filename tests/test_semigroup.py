"""Semigroup arithmetic against independent enumeration and ceiling-sum oracles."""

from dataclasses import FrozenInstanceError
from math import ceil, gcd

import pytest

from knotwind import (
    TorusKnot,
    ValidationError,
    VSequence,
    diamond_reduce,
    multiplicity_sequence,
    parse_knot_expr,
    semigroup_from_pair,
    v0_closed_form,
    v0_family_knot,
    v_sequence_torus,
)


def brute_members(p, q, limit):
    """Oracle: direct double-loop enumeration of hp + kq below limit."""
    members = set()
    for h in range(limit // p + 1):
        for k in range((limit - h * p) // q + 1):
            if h * p + k * q < limit:
                members.add(h * p + k * q)
    return members


def ceiling_count(p, q, t):
    """Oracle: per-residue ceiling sums, valid for t <= pq."""
    assert t <= p * q
    return sum(ceil((t - k * q) / p) for k in range(p) if k * q < t)


COPRIME_PAIRS = [(p, q) for p in range(2, 12) for q in range(p + 1, 13) if gcd(p, q) == 1]
# A large q/p ratio (few slices, each long) and p close to q (many short slices).
SKEWED_PAIRS = [(2, 101), (3, 100), (7, 50), (13, 14), (19, 21)]


def test_semigroup_2_3_matches_enumeration():
    s = semigroup_from_pair(2, 3)
    assert s.conductor == 2
    assert brute_members(2, 3, 2) == {0}
    assert [s.contains(m) for m in range(6)] == [True, False, True, True, True, True]
    assert s.conductor - s.count_below(s.conductor) == 1


def test_semigroup_membership_matches_enumeration_oracle():
    for p, q in COPRIME_PAIRS + SKEWED_PAIRS:
        s = semigroup_from_pair(p, q)
        expected = brute_members(p, q, s.conductor)
        got = {m for m in range(s.conductor) if s.contains(m)}
        assert got == expected, (p, q)


def test_gap_count_equals_genus():
    for p, q in COPRIME_PAIRS + SKEWED_PAIRS:
        s = semigroup_from_pair(p, q)
        assert s.conductor - s.count_below(s.conductor) == (p - 1) * (q - 1) // 2


def test_semigroup_closed_under_addition():
    for p, q in [(2, 3), (3, 5), (4, 7), (5, 6)]:
        s = semigroup_from_pair(p, q)
        members = [m for m in range(s.conductor) if s.contains(m)]
        for a in members:
            for b in members:
                assert s.contains(a + b), (p, q, a, b)


def test_semigroup_validation_errors():
    with pytest.raises(ValidationError, match="not coprime"):
        semigroup_from_pair(2, 4)
    with pytest.raises(ValidationError, match=">= 2"):
        semigroup_from_pair(1, 5)
    # The membership table holds one entry per position below the conductor (p-1)(q-1).
    for p, q in ((1001, 1002), (30001, 30002), (10**15, 10**15 + 1), (2, 10**6 + 3)):
        with pytest.raises(ValidationError, match="conductor .* exceeds the limit 1000000"):
            semigroup_from_pair(p, q)


def test_count_below_examples():
    assert semigroup_from_pair(2, 3).count_below(1) == 1
    assert semigroup_from_pair(4, 5).count_below(6) == 3  # elements 0, 4, 5
    assert semigroup_from_pair(6, 7).count_below(15) == 6  # (1/2) n (n+1) at n = 3


def test_count_below_matches_ceiling_oracle():
    for p, q in COPRIME_PAIRS + SKEWED_PAIRS:
        s = semigroup_from_pair(p, q)
        for t in range(0, min(p * q, 3 * s.conductor + 2)):
            assert s.count_below(t) == ceiling_count(p, q, t), (p, q, t)


def test_count_below_beyond_conductor():
    for p, q in [(2, 3), (4, 5), (5, 7)]:
        s = semigroup_from_pair(p, q)
        base = s.count_below(s.conductor)
        for extra in (1, 5, 40):
            assert s.count_below(s.conductor + extra) == base + extra
        assert base + (p - 1) * (q - 1) // 2 == s.conductor


def test_count_below_rejects_negative():
    with pytest.raises(ValidationError):
        semigroup_from_pair(2, 3).count_below(-1)


def test_v_sequence_examples():
    assert list(v_sequence_torus(TorusKnot(2, 3))) == [1, 0]
    assert list(v_sequence_torus(TorusKnot(4, 5))) == [3, 2, 1, 1, 1, 1, 0]
    assert v_sequence_torus(TorusKnot(2, 9)).at(0) == 2


def test_v_sequence_invariants_small_grid():
    for p in range(2, 31):
        for q in range(p + 1, 31):
            if gcd(p, q) != 1:
                continue
            knot = TorusKnot(p, q)
            seq = v_sequence_torus(knot)
            assert len(seq) == knot.genus + 1
            assert seq.at(knot.genus) == 0
            for i in range(len(seq) - 1):
                assert 0 <= seq.at(i) - seq.at(i + 1) <= 1, (p, q, i)


def test_vsequence_validation():
    seq = VSequence((3, 2, 2, 1, 1, 0))
    with pytest.raises(FrozenInstanceError):
        seq.values = (0,)
    assert not hasattr(seq, "__dict__")
    with pytest.raises(ValidationError):
        VSequence((1, 2))  # increasing
    with pytest.raises(ValidationError):
        VSequence((3, 1))  # step of 2
    with pytest.raises(ValidationError):
        VSequence((2,))  # cannot step to the implicit 0
    with pytest.raises(ValidationError):
        VSequence((0, -1))


def test_v0_closed_forms_match_table():
    assert v0_closed_form("I", 2) == 3 == v_sequence_torus(TorusKnot(4, 5)).at(0)
    assert v0_closed_form("II", 1) == 2 == v_sequence_torus(TorusKnot(2, 9)).at(0)
    assert v0_closed_form("III", 1) == 4 == v_sequence_torus(TorusKnot(3, 13)).at(0)


def test_v0_closed_forms_against_semigroup_families():
    for family in ("I", "II", "III"):
        for n in range(1, 11):
            knot = v0_family_knot(family, n)
            assert v_sequence_torus(knot).at(0) == v0_closed_form(family, n), (family, n)


def test_v0_closed_form_validation():
    with pytest.raises(ValidationError, match="unknown"):
        v0_closed_form("IV", 1)
    with pytest.raises(ValidationError):
        v0_closed_form("I", 0)


def test_multiplicity_sequences():
    assert multiplicity_sequence(TorusKnot(2, 3)) == (2,)
    assert multiplicity_sequence(TorusKnot(3, 7)) == (3, 3)
    assert multiplicity_sequence(TorusKnot(3, 5)) == (3, 2)
    for n in range(2, 7):
        for k in range(1, 5):
            assert multiplicity_sequence(TorusKnot(n, k * n + 1)) == (n,) * k


def test_multiplicity_sequence_validation():
    # Euclid's quotients make every sequence positive and non-increasing; a
    # plain tuple carries them, with nothing left to check.
    for p in range(2, 20):
        for q in range(p + 1, 80):
            if gcd(p, q) == 1:
                entries = multiplicity_sequence(TorusKnot(p, q))
                assert type(entries) is tuple and entries[0] == p
                assert all(e >= 1 for e in entries)
                assert all(a >= b for a, b in zip(entries, entries[1:]))
                assert sum(e * (e - 1) for e in entries) == (p - 1) * (q - 1)  # delta = genus


def test_diamond_reduce_examples():
    assert diamond_reduce(parse_knot_expr("T(3,7) # T(3,7)")) == TorusKnot(3, 13)
    assert diamond_reduce(parse_knot_expr("T(2,3)")) == TorusKnot(2, 3)
    assert diamond_reduce(parse_knot_expr("T(2,3) # T(2,5)")) == TorusKnot(2, 7)


def test_diamond_reduce_no_reduction_cases():
    assert diamond_reduce(parse_knot_expr("-T(3,7) # T(3,7)")) is None  # mirror present
    assert diamond_reduce(parse_knot_expr("T(2,3) # T(3,7)")) is None  # mixed n
    assert diamond_reduce(parse_knot_expr("T(3,5) # T(3,5)")) is None  # off the family
    assert diamond_reduce(parse_knot_expr("U")) is None
    # single off-family summand still reduces to itself
    assert diamond_reduce(parse_knot_expr("T(3,5)")) == TorusKnot(3, 5)


def test_torus_knot_canonicalisation_and_validation():
    assert TorusKnot(5, 3) == TorusKnot(3, 5)
    assert TorusKnot(3, 5).genus == 4
    with pytest.raises(ValidationError, match=r"\(2,4\)"):
        TorusKnot(4, 2)
    with pytest.raises(ValidationError, match="unknot"):
        TorusKnot(1, 5)
