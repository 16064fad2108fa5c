"""Reference values computed without the package, for checking its outputs.

Nothing here imports knotwind.  Every function works from the definitions:

* the numerical semigroup of T(p,q) by brute-force membership,
* V_i(T(p,q)) = #(Gamma(p,q) ∩ [0, g-i)),
* V-sequences of positive sums by infimal convolution of the summands'
  sequences, extended to negative indices by V_{-s} = V_s + s
  (Borodzik–Livingston, for L-space knots),
* the sub-additivity V_{m+n}(K # L) <= V_m(K) + V_n(L), which brackets a
  mixed sum A # -B between max_t (V_{s+t}(A) - V_t(B)) and V_s(A),
* the Ni–Wu formula for d-invariants of positive surgeries.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

Knot = tuple[int, int]  # (p, q) with 2 <= p < q, coprime


def genus(knot: Knot) -> int:
    p, q = knot
    return (p - 1) * (q - 1) // 2


@lru_cache(maxsize=None)
def members(knot: Knot) -> tuple[bool, ...]:
    """Membership of 0..2g in Gamma(p,q) = {hp + kq}, by direct enumeration."""
    p, q = knot
    top = 2 * genus(knot)
    inside = [False] * (top + 1)
    for h in range(top // p + 1):
        for k in range((top - h * p) // q + 1):
            inside[h * p + k * q] = True
    return tuple(inside)


def count_below(knot: Knot, t: int) -> int:
    """#(Gamma ∩ [0, t)); every integer from 2g on is a member."""
    inside = members(knot)
    if t <= len(inside):
        return sum(inside[:t])
    return sum(inside) + t - len(inside)


@lru_cache(maxsize=None)
def torus_vseq(knot: Knot) -> tuple[int, ...]:
    g = genus(knot)
    return tuple(count_below(knot, g - i) for i in range(g + 1))


@lru_cache(maxsize=None)
def staircase_size(knot: Knot) -> int:
    """Number of generators of the staircase: switches of the membership indicator."""
    inside = members(knot)
    switches, prev = 0, False
    for cur in inside:
        switches += cur != prev
        prev = cur
    return switches


def trimmed(seq) -> tuple[int, ...]:
    """A V-sequence without its trailing zeros, the form `inf_convolution` returns."""
    seq = tuple(seq)
    end = len(seq)
    while end and seq[end - 1] == 0:
        end -= 1
    return seq[:end]


def v_at(seq: tuple[int, ...], s: int) -> int:
    """V_s for any integer s: stored entries, 0 beyond, V_{-s} = V_s + s."""
    if s < 0:
        return v_at(seq, -s) - s
    return seq[s] if s < len(seq) else 0


def inf_convolution(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """V-sequence of K # L for L-space knots K, L from their V-sequences."""
    span = len(a) + len(b)
    out = []
    for s in range(span - 1):
        out.append(min(v_at(a, s1) + v_at(b, s - s1) for s1 in range(-span, span + 1)))
    return trimmed(out)


def positive_sum_vseq(knots: list[Knot]) -> tuple[int, ...]:
    seq: tuple[int, ...] = ()
    for knot in knots:
        seq = inf_convolution(seq, torus_vseq(knot)) if seq else torus_vseq(knot)
    return seq


def mixed_bracket(pos: list[Knot], neg: list[Knot], s: int) -> tuple[int, int]:
    """(lower, upper) for V_s(A # -B), A = sum of pos, B = sum of neg."""
    a = positive_sum_vseq(pos) if pos else ()
    b = positive_sum_vseq(neg) if neg else ()
    reach = len(a) + len(b) + 1
    lower = max(v_at(a, s + t) - v_at(b, t) for t in range(-reach, reach + 1))
    return max(0, lower), v_at(a, s)


def ni_wu(seq: tuple[int, ...], n: int, i: int) -> Fraction:
    """d(S^3_n(K), t_i) = -2 max{V_i, V_{n-i}} + (n-2i)^2/(4n) - 1/4."""
    chern = n - 2 * i
    return -2 * max(v_at(seq, i), v_at(seq, n - i)) + Fraction(chern * chern, 4 * n) - Fraction(1, 4)


# V_0 closed forms of the three families of the acceptance suite.
FAMILIES = {
    "I": (lambda n: (2 * n, 2 * n + 1), lambda n: n * (n + 1) // 2),
    "II": (lambda n: (2 * n, 8 * n + 1), lambda n: 2 * n * n),
    "III": (lambda n: (2 * n + 1, 8 * n + 5), lambda n: 2 * n * (n + 1)),
}


def family_v0(knot: Knot) -> int | None:
    """Closed-form V_0 when the knot belongs to one of the families, else None."""
    for knot_of, v0 in FAMILIES.values():
        for n in range(1, 8):
            if knot_of(n) == knot:
                return v0(n)
    return None


def essential_value(w: int, dtable: dict[int, Fraction]) -> Fraction:
    """2 max_k { d[k] - d[k + w^2/2] } over residues mod w^2."""
    size = w * w
    return 2 * max(dtable[k] - dtable[(k + size // 2) % size] for k in range(size))
