"""Numerical semigroups of torus knots and the V-sequences they count.

For coprime p, q >= 2 the semigroup Gamma(p,q) = {hp + kq : h, k >= 0} has
conductor (p-1)(q-1): everything from the conductor on is a member, and the
number of gaps below it equals the genus g = (p-1)(q-1)/2 of T(p,q).  The
non-increasing invariants V_i of T(p,q) are plain counts:

    V_i(T(p,q)) = card(Gamma(p,q) intersect [0, g - i))

This module keeps one table, a membership byte per position below the
conductor, built with one slice per multiple of q; every count is read off
it (one code path), and per-residue ceiling sums are used only as an
independent oracle in the test suite.  A table at `_CONDUCTOR_LIMIT` builds
in about 2 ms and 1 MB, but what is read off it grows with the conductor: the
V-sequence has g + 1 values (T(2,10^6+1): 0.1 s and 41 MB in a fresh
process) and the staircase of T(p,q) up to conductor + 1 generators
(T(2,10^5+1): 0.2 s and 65 MB).  So conductors above the limit are rejected
before anything is allocated (2-vCPU VM).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate
from math import gcd

from .errors import ValidationError, exact_int
from .knots import KnotExpression, TorusKnot

_CONDUCTOR_LIMIT = 10**6

# The route of `v_sequence_torus`, and its trail anchor: the identity its V-values are read off from.
SEMIGROUP_ROUTE = "semigroup count"
A_SEMIGROUP = "V_i(T(p,q)) = card(Gamma(p,q) intersect [0, g-i))"


class NumericalSemigroup:
    """Membership table for Gamma(p,q) on [0, conductor)."""

    def __init__(self, p: int, q: int) -> None:
        for v in (p, q):
            exact_int(v, lambda: f"semigroup generators must be integers, got ({p!r},{q!r})")
        if p > q:
            p, q = q, p
        if p < 2:
            raise ValidationError(f"semigroup generators must both be >= 2, got ({p},{q})")
        if gcd(p, q) != 1:
            raise ValidationError(f"semigroup generators ({p},{q}) are not coprime")
        conductor = (p - 1) * (q - 1)
        if conductor > _CONDUCTOR_LIMIT:  # no numbers in the message: they may be too long to print
            raise ValidationError(f"semigroup conductor (p-1)(q-1) exceeds the limit {_CONDUCTOR_LIMIT}")
        self.p = p
        self.q = q
        member = bytearray(conductor)
        for start in range(0, conductor, q):  # Gamma = {k*q + h*p : 0 <= k < p, h >= 0}, as q*p = p*q
            member[start::p] = b"\x01" * len(range(start, conductor, p))
        self.conductor = conductor
        self.membership = bytes(member)

    def contains(self, m: int) -> bool:
        if exact_int(m, "semigroup membership needs an integer") < 0:
            return False
        if m >= self.conductor:
            return True
        return bool(self.membership[m])

    def count_below(self, t: int) -> int:
        """card(Gamma intersect [0, t))."""
        exact_int(t, "count_below needs a non-negative integer", 0)
        return self.membership.count(1, 0, t) + max(0, t - self.conductor)

    def __repr__(self) -> str:
        return f"NumericalSemigroup({self.p},{self.q})"


@lru_cache(maxsize=None, typed=True)  # typed: 2.0 must not hit the entry of 2
def semigroup_from_pair(p: int, q: int) -> NumericalSemigroup:
    """The semigroup generated by p and q (validated, cached by pair)."""
    return NumericalSemigroup(p, q)


@dataclass(frozen=True, slots=True)
class VSequence:
    """Non-increasing non-negative integers; entries beyond the list are 0.  `route` names
    how they were computed and `anchor` the identity read off; equality ignores both."""

    values: tuple[int, ...]
    route: str = field(default="", compare=False)
    anchor: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        vals = tuple(exact_int(v, "V-values must be integers") for v in self.values)
        object.__setattr__(self, "values", vals)
        prev = None
        for i, v in enumerate(vals):
            if v < 0:
                raise ValidationError(f"V_{i} = {v} is negative")
            if prev is not None and not 0 <= prev - v <= 1:
                raise ValidationError(f"V_{i - 1} = {prev}, V_{i} = {v}: step outside {{0,1}}")
            prev = v
        if vals and vals[-1] > 1:
            raise ValidationError(f"last stored entry {vals[-1]} cannot step down to the implicit 0")

    def at(self, i: int) -> int:
        exact_int(i, "V-sequence index must be a non-negative integer", 0)
        return self.values[i] if i < len(self.values) else 0

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)


def multiplicity_sequence(knot: TorusKnot) -> tuple[int, ...]:
    """Multiplicity sequence of T(p,q) via the Euclidean algorithm.

    Each divisor b >= 2 enters as often as it divides into the previous one,
    and each remainder is smaller than its divisor, so the entries are
    positive and non-increasing by construction.  Trailing 1-entries (smooth
    points) are dropped, so T(n, kn+1) yields exactly k copies of n.
    """
    a, b = knot.q, knot.p
    entries: list[int] = []
    while b > 1:
        cnt, r = divmod(a, b)
        entries.extend([b] * cnt)
        a, b = b, r
    return tuple(entries)


def v_sequence_torus(knot: TorusKnot) -> VSequence:
    """V_i(T(p,q)) for i = 0..g: the running counts of the membership table below g, reversed."""
    membership = semigroup_from_pair(knot.p, knot.q).membership
    return VSequence((0, *accumulate(membership[: knot.genus]))[::-1], SEMIGROUP_ROUTE, A_SEMIGROUP)


_V0_CLOSED_FORMS = {
    "I": (lambda n: n * (n + 1) // 2, lambda n: TorusKnot(2 * n, 2 * n + 1)),
    "II": (lambda n: 2 * n * n, lambda n: TorusKnot(2 * n, 8 * n + 1)),
    "III": (lambda n: 2 * n * (n + 1), lambda n: TorusKnot(2 * n + 1, 8 * n + 5)),
}


def _family(tag: object, n: int) -> tuple:
    """(closed form, knot) of family `tag`, once its parameter n is checked."""
    key = str(tag).strip().upper()
    if key not in _V0_CLOSED_FORMS:
        raise ValidationError(f"unknown V_0 family {tag!r}; expected one of I, II, III")
    exact_int(n, "family parameter must be a positive integer", 1)
    return _V0_CLOSED_FORMS[key]


def v0_closed_form(family: str, n: int) -> int:
    """Closed forms n(n+1)/2, 2n^2, 2n(n+1) for the three knot families.

    Family I is T(2n,2n+1), II is T(2n,8n+1), III is T(2n+1,8n+5); these are
    independent oracles against `v_sequence_torus`.
    """
    return _family(family, n)[0](n)


def v0_family_knot(family: str, n: int) -> TorusKnot:
    """The torus knot whose V_0 the matching closed form computes."""
    return _family(family, n)[1](n)


def diamond_reduce(expr: KnotExpression) -> TorusKnot | None:
    """Reduce a sum of knots T(n, a_j*n + 1) to the single knot T(n, (sum a_j)*n + 1).

    The reduction concatenates multiplicity sequences: it applies exactly when
    every summand is positively oriented and all multiplicities agree on one
    common n.  A single positive summand reduces to itself.  Returns None
    ("no reduction") in every other case, including mirrored summands; the
    caller may then fall back to the chain-complex route.  Each summand is a
    checked TorusKnot, so its sequence is read as Euclid returns it.

    The returned knot has the same V-sequence as the input; that identity is
    cross-checked against the chain-complex module in the test suite rather
    than assumed at all scales.
    """
    if not isinstance(expr, KnotExpression):
        raise ValidationError(f"diamond_reduce expects a KnotExpression, got {expr!r}")
    if any(sign < 0 for _, sign in expr.summands):
        return None
    if not expr.summands:
        return None
    if len(expr.summands) == 1:
        return expr.summands[0][0]
    entries: list[int] = []
    for knot, _ in expr.summands:
        entries.extend(multiplicity_sequence(knot))
    n = entries[0]
    if any(e != n for e in entries):
        return None
    return TorusKnot(n, len(entries) * n + 1)
