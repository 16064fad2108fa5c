"""Correction terms of integer surgeries and circle-bundle/Seifert arithmetic.

All values are exact `fractions.Fraction`s; no floating point appears
anywhere.  Positive surgery coefficients only: a negative surgery on K is
handled by the caller as the positive surgery on the mirror -K.

The d-invariant of n-surgery in the spin^c sector labelled i (chern number
n - 2i) is

    d(S^3_n(K), t_i) = -2 max{V_i(K), V_{n-i}(K)} + (n-2i)^2/(4n) - 1/4,

and the twisted correction term of the 0-surgery is

    dtw(S^3_0(K)) = -1/2 + 2 V_0(-K).

Each input is checked once, where it enters: `d_positive_surgery` checks
n >= 1, then 0 <= i < n, before it reads the knot, and a `CorrectionTable`
checks its entries when it is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .complexes import v_at, v_sequence
from .errors import InternalCheckError, ValidationError, exact_int, exact_rational
from .knots import KnotExpression, TorusKnot, as_expression

_COEFFICIENT = "surgery coefficient must be a positive integer"
_NCF_TERM_LIMIT = 10_000
_LABEL_LIMIT = 100_000


@dataclass(frozen=True, slots=True)
class CorrectionTable:
    """d-invariants of one n-surgery over i = 0..n-1, conjugation symmetric: d[i] = d[n-i].

    The entries are read once, into a dict in the order given; `correction_table`
    gives them as i = 0..n-1, with conjugates sharing one object.
    """

    n: int
    entries: dict[int, Fraction]

    def __post_init__(self) -> None:
        n = exact_int(self.n, _COEFFICIENT, 1)
        entries = {exact_int(i, "correction table keys must be integers"):
                   exact_rational(v, "correction table values must be exact rationals")
                   for i, v in self.entries.items()}
        if len(entries) != n or not all(0 <= i < n for i in entries):  # n distinct keys in range
            raise ValidationError(f"correction table must cover exactly i = 0..{n - 1}, got {sorted(entries)}")
        for i in range(1, n // 2 + 1):  # a broken pair (i, n - i) shows first at the smaller i
            if entries[i] != entries[n - i]:
                raise ValidationError(
                    f"conjugation symmetry broken: d[{i}] = {entries[i]} != d[{n - i}] = {entries[n - i]}"
                )
        object.__setattr__(self, "entries", entries)

    def __getitem__(self, i: int) -> Fraction:
        return self.entries[i]


def d_positive_surgery(knot: KnotExpression | TorusKnot, n: int, i: int) -> Fraction:
    """d(S^3_n(K), t_i) for positive n via the surgery formula above.

    V is non-increasing, so max{V_i, V_{n-i}} is V at min(i, n - i).
    """
    n = exact_int(n, _COEFFICIENT, 1)
    what = lambda: f"spin^c index must satisfy 0 <= i < n, got i={i!r}, n={n}"
    if not 0 <= exact_int(i, what) < n:
        raise ValidationError(what())
    j = min(i, n - i)
    return _d(n, j, v_at(as_expression(knot), j))


def _d(n: int, i: int, v: int) -> Fraction:
    """The surgery formula at label i with V = max{V_i, V_{n-i}}, over one denominator."""
    return Fraction((n - 2 * i) ** 2 - n - 8 * n * v, 4 * n)


def correction_table(knot: KnotExpression | TorusKnot, n: int) -> CorrectionTable:
    """All d-invariants of the n-surgery, one per conjugate pair, checked by `CorrectionTable`.

    The table holds one entry per label, so n above `_LABEL_LIMIT` is rejected
    before anything is computed: a table at the limit takes about 0.3 s and
    40 MB (2-vCPU VM).  `d_positive_surgery` reads one label at any n.
    """
    if exact_int(n, _COEFFICIENT, 1) > _LABEL_LIMIT:  # no n in the message: it may be too long to print
        raise ValidationError(f"a correction table covers at most {_LABEL_LIMIT} spin^c labels")
    seq = v_sequence(as_expression(knot))
    half = [_d(n, j, seq.at(j)) for j in range(n // 2 + 1)]
    return CorrectionTable(n, {i: half[min(i, n - i)] for i in range(n)})


def dtw_zero(v0_mirror: int) -> Fraction:
    """Twisted correction term of the 0-surgery on K from V_0(-K): -1/2 + 2 V_0(-K)."""
    return Fraction(-1, 2) + 2 * exact_int(v0_mirror, "V_0 must be a non-negative integer", 0)


def d_zero_twisted(knot: KnotExpression | TorusKnot) -> Fraction:
    """Twisted correction term of the 0-surgery: -1/2 + 2 V_0(-K)."""
    return dtw_zero(v_at(as_expression(knot).mirror(), 0))


def d_circle_bundle_twisted(g: int) -> Fraction:
    """Twisted correction term of (genus-g surface) x S^1: (-1)^(g+1) / 2."""
    exact_int(g, "genus must be a non-negative integer", 0)
    return Fraction((-1) ** (g + 1), 2)


def combined_invariant(g: int) -> int:
    """4 dtw + 2 b_1 of the circle bundle, equal to 8 ceil(g/2)."""
    value = 4 * d_circle_bundle_twisted(g) + 2 * (2 * g + 1)
    expected = 8 * ((g + 1) // 2)
    if value != expected:
        raise InternalCheckError(f"ceiling identity failed at g={g}: {value} != {expected}")
    return int(value)


def _check_term_count(count: int) -> None:
    """Refuse a negative continued fraction of more than `_NCF_TERM_LIMIT` coefficients."""
    if count > _NCF_TERM_LIMIT:
        raise ValidationError(f"a negative continued fraction takes at most {_NCF_TERM_LIMIT} coefficients")


def ncf_eval(coeffs: list[int]) -> Fraction:
    """Negative continued fraction [a_1,...,a_k]^- = a_1 - 1/(a_2 - 1/(...)).

    At most `_NCF_TERM_LIMIT` coefficients, the most `ncf_expand` returns, so
    the round trip holds on everything either side accepts; a longer list is
    refused before any arithmetic (20,000 threes took 0.27 s and gave an
    8,000-digit result, 2-vCPU VM).
    """
    if not coeffs:
        raise ValidationError("negative continued fraction needs at least one coefficient")
    _check_term_count(len(coeffs))
    for a in coeffs:
        exact_int(a, "coefficients must be integers >= 2", 2)
    value = Fraction(coeffs[-1])
    for a in reversed(coeffs[:-1]):
        value = a - 1 / value
    return value


def ncf_expand(value: Fraction | int) -> list[int]:
    """Inverse of `ncf_eval` on rationals > 1 (round-trip identity).

    Denominators strictly decrease, so p/q has at most q coefficients: (n+1)/n
    has n twos.  Past `_NCF_TERM_LIMIT` coefficients the expansion stops with a
    `ValidationError`; that many steps take about 0.1 s on small terms and
    0.3 s on 4,000-digit ones (2-vCPU VM).
    """
    r = exact_rational(value, "negative continued fractions expand exact rationals")
    if r <= 1:
        raise ValidationError(f"negative continued fractions expand only rationals > 1, got {r}")
    coeffs: list[int] = []
    while len(coeffs) < _NCF_TERM_LIMIT:
        a = -((-r.numerator) // r.denominator)  # ceil
        coeffs.append(a)
        if a == r:
            return coeffs
        r = 1 / (a - r)
    raise ValidationError(f"the negative continued fraction has more than {_NCF_TERM_LIMIT} coefficients")


@dataclass(frozen=True)
class SeifertPresentation:
    """Seifert fibred space M(e0; r_1,...,r_k) over S^2; fibres in (0,1)."""

    e0: int
    fibers: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        exact_int(self.e0, "e0 must be an integer")
        fibers = tuple(exact_rational(r, "fibre invariants must be exact rationals") for r in self.fibers)
        object.__setattr__(self, "fibers", fibers)
        for r in fibers:
            if not 0 < r < 1:
                raise ValidationError(f"fibre invariant {r} is not in (0,1)")

    @property
    def euler_number(self) -> Fraction:
        """e0 + sum of fibre invariants, exactly."""
        return self.e0 + sum(self.fibers, Fraction(0))


def kn_seifert(n: int) -> SeifertPresentation:
    """The four-fibre presentation M(-2; 2n/(2n+1), 2n/(2n+1), 2/(4n+3), 2/(4n+3)).

    This is the (4n+2)(4n+3)-surgery on T(2n+1,4n+3) # T(2n+1,4n+3); its
    fibre invariants come from the expansions [2,...,2]^- = (2n+1)/(2n) and
    [2n+2,2]^- = (4n+3)/2, and its Euler number 2(2/(4n+3) - 1/(2n+1)) is
    negative for every n >= 1.
    """
    exact_int(n, "family index must be a positive integer", 1)
    body = Fraction(2 * n, 2 * n + 1)
    cusp = Fraction(2, 4 * n + 3)
    return SeifertPresentation(-2, (body, body, cusp, cusp))
