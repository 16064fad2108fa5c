"""Staircase-type bifiltered chain complexes over F_2[U].

A complex here is a finite generating set with integer (maslov, alexander)
bigradings and a differential stored sparsely: entry (k, l) -> n means that
U^n * g_l appears in the boundary of g_k.  Three laws are enforced at
construction time:

    square zero:   the F_2[U]-linear composite of the differential with
                   itself vanishes,
    grading law:   M(g_l) - 2n = M(g_k) - 1 on every entry,
    filtration:    A(g_l) - n <= A(g_k) on every entry.

The homological normalisation (the U-non-torsion tower of the full complex
tops out at Maslov grading 0) is available as `tower_top` and is arranged by
construction in `staircase` and `dualize`.

V-invariants are read off sublevel subcomplexes: for s >= 0, A_s^- is
spanned by U^a * g with a >= f(g) = max(0, A(g) - s).

Reduction.  A_s^- is free on h_g = U^f(g) * g, of Maslov grading
M(g) - 2f(g); an arrow k->l of exponent n becomes an arrow h_k->h_l of
exponent f(k) + n - f(l) >= 0.  `reduce_sublevel` cancels every arrow of
exponent at most the window w = alexander_radius + 1 of the unreduced
complex, least exponent first.  Cancelling k->l of exponent e, the least
left, drops h_k and h_l and adds U^(a+b-e) to x->y for every x->l of
exponent a and k->y of exponent b; the grading law fixes the exponent of
x->y, so adding it is an XOR.  For e = 0 this is Gaussian elimination over
F_2[U] and the result is homotopy equivalent; for e > 0 it is not, but
the tower search cannot tell:

    Lemma.  If e <= w, the tower top of A_s^- / U^N is unchanged by the
    cancellation, for every N.
    Sketch.  As a, b >= e, put l' = l + sum U^(b-e) * y over k->y, y != l,
    and x' = x + U^(a-e) * k over x->l, x != k.  Then dk = U^e * l',
    dl' = 0 (U^e * dl' = ddk = 0 and the module is free), no dx' has an
    l' term, and the k term of dx' vanishes because its U^e-multiple is the
    l' term of ddx' = 0.  So {k, l'} spans a direct summand F_2[U]/U^e
    whose complement, in the basis x', has the toggled arrows above.  In
    the summand mod U^N every U^w-image is a boundary: U^(i+w) * l' is
    d(U^(i+w-e) * k) or 0, and U^i * k is a cycle only if i + e >= N, when
    U^(i+w) * k = 0.  A cycle of the sum survives iff a component does.

Arrows of exponent above w are kept.  A bifiltered staircase tensor has no
arrow that preserves both filtrations, so this is done per level rather
than once on the full complex.  Reduced gradings M - 2f are no higher than
M; hence the window w and the truncation orders N, N+1 of the unreduced
complex carry over to the reduced one.

Tower search.  `_truncated_tower_top` takes plain values: the complex, its
floors, the order N and the window w.  Its model keeps U^a * g for
floors[g] <= a < N and reads each row straight from `arrows_out`.  The
floors must span a subcomplex; `reduce_sublevel` is the one check of them
per level (on the reduced complex they are all 0, so the model is
A_s^- / U^N A_s^-), and `TruncatedComplex` is the validated public value.
After the reduction a level is usually one generator with no arrow (all
805 levels of three vseq-mixed benchmark windows are), so the search stops
at the first grading it walks.
A generator has at most one basis element per Maslov grading, so rows are
generator-numbered: bit g over grading m is U^a * g, a = (M(g) - m)/2.
The tower top is the maximal grading m with a cycle whose U^w-image is not
a boundary.  The search walks the gradings from the top down, reading each
from the complex, and stops at the first hit.  At each m it takes D, the
boundaries of the basis of m, B, the boundaries landing in m - 2w, and V,
the span of the pairs (de, U^w e) over the basis of m together with
(0, B).  Projecting V onto its first part has image D and kernel
0 x (U^w(cycles) + B), so a surviving cycle exists iff
rank V - rank D > rank B.  V_s is minus half the top grading.

Checks.  Every tower top is recomputed at truncation N+1; disagreement
raises, never returns.  Complexes of at most `_CROSS_CHECK_GENERATORS`
generators are also searched unreduced, at the same orders and through
the same guards, and the two tops must agree.  The two models truncate
differently: for T(2,9) at s = 0 and order 7 the reduced model already
gives -4 where the unreduced one finds no surviving class.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from functools import reduce
from typing import Iterator, Mapping

from .errors import InternalCheckError, TruncationInstabilityError, ValidationError, exact_int
from .gf2 import BitSpace
from .knots import KnotExpression, TorusKnot, as_expression
from .semigroup import VSequence, semigroup_from_pair, v_sequence_torus

# Trail anchors of the two V routes: the identities the values are read off from.
A_SEMIGROUP = "V_i(T(p,q)) = card(Gamma(p,q) intersect [0, g-i))"
A_TOWER = "V_s = -(top grading of the U-tower of A_s^-)/2"

_GRADINGS = "generator gradings must be integers"
_FLOORS = "floors must be integers"
_KEYS = "differential keys must be generator numbers"


@dataclass(frozen=True)
class BifilteredComplex:
    """Finitely generated free complex over F_2[U] with (M, A) bigradings."""

    generators: tuple[tuple[int, int], ...]
    differential: dict[tuple[int, int], int] = field(default_factory=dict)
    # Built once: the adjacency view arrows_out[k] = ((l, n), ...) of the differential,
    # and max |A(g)|, the total genus for complexes built from knots.
    arrows_out: tuple[tuple[tuple[int, int], ...], ...] = field(init=False, repr=False, compare=False)
    alexander_radius: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        gens = tuple((exact_int(m, _GRADINGS), exact_int(a, _GRADINGS)) for m, a in self.generators)
        object.__setattr__(self, "generators", gens)
        if not gens:
            raise ValidationError("a complex needs at least one generator")
        count = len(gens)
        diff: dict[tuple[int, int], int] = {}
        out: list[list[tuple[int, int]]] = [[] for _ in gens]
        for (k, l), n in self.differential.items():
            if not (0 <= exact_int(k, _KEYS) < count and 0 <= exact_int(l, _KEYS) < count):
                raise ValidationError(f"differential entry ({k},{l}) is out of range")
            if exact_int(n, "U-exponents must be integers") < 0:
                raise ValidationError(f"U-exponent on arrow {k}->{l} is negative")
            diff[(k, l)] = n
            out[k].append((l, n))
        object.__setattr__(self, "differential", diff)
        object.__setattr__(self, "arrows_out", tuple(map(tuple, out)))
        object.__setattr__(self, "alexander_radius", max(abs(a) for _, a in gens))
        for (k, l), n in diff.items():
            mk, ak = gens[k]
            ml, al = gens[l]
            if ml - 2 * n != mk - 1:
                raise ValidationError(
                    f"grading law broken on arrow {k}->{l}: M_l - 2n = {ml - 2 * n}, M_k - 1 = {mk - 1}"
                )
            if al - n > ak:
                raise ValidationError(
                    f"filtration law broken on arrow {k}->{l}: A_l - n = {al - n} > A_k = {ak}"
                )
        self._check_square_zero()

    def _check_square_zero(self) -> None:
        out = self.arrows_out
        acc: dict[tuple[int, int, int], int] = {}
        for k, arrows in enumerate(out):
            for l, n1 in arrows:
                for m, n2 in out[l]:
                    key = (k, m, n1 + n2)
                    acc[key] = acc.get(key, 0) ^ 1
        if any(acc.values()):
            raise ValidationError("differential does not square to zero over F_2[U]")

    @property
    def n_generators(self) -> int:
        return len(self.generators)

    def tower_top(self) -> int:
        """Top Maslov grading of the U-non-torsion tower of the full complex."""
        return _stable_tower_top(self, (0,) * self.n_generators)

    def validate(self) -> None:
        """Re-run all construction checks plus the tower normalisation."""
        BifilteredComplex(self.generators, dict(self.differential))
        top = self.tower_top()
        if top != 0:
            raise ValidationError(f"tower normalisation broken: top grading {top} != 0")


@dataclass(frozen=True)
class TruncatedComplex:
    """Finite-dimensional F_2 model: basis U^a * g with floors[g] <= a < order."""

    base: BifilteredComplex
    order: int
    floors: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        exact_int(self.order, "truncation order must be a positive integer", 1)
        floors = tuple(exact_int(f, _FLOORS) for f in self.floors) or (0,) * self.base.n_generators
        if len(floors) != self.base.n_generators:
            raise ValidationError("floors must give one lower U-bound per generator")
        if any(f < 0 for f in floors):
            raise ValidationError("floors must be non-negative")
        if any(floors[l] > floors[k] + n for (k, l), n in self.base.differential.items()):
            raise ValidationError("floors must span a subcomplex: floors[l] <= floors[k] + n on each arrow")
        object.__setattr__(self, "floors", floors)

    @property
    def dimension(self) -> int:
        return sum(max(0, self.order - f) for f in self.floors)

    def graded_basis(self) -> dict[int, list[tuple[int, int]]]:
        """Basis elements (generator, U-power) bucketed by Maslov grading."""
        buckets: dict[int, list[tuple[int, int]]] = {}
        for g, (m, _) in enumerate(self.base.generators):
            for a in range(self.floors[g], self.order):
                buckets.setdefault(m - 2 * a, []).append((g, a))
        return buckets


def _truncated_tower_top(
    complex_: BifilteredComplex, floors: tuple[int, ...], order: int, window: int
) -> int | None:
    """Maximal grading with a cycle surviving U^window, or None; the floors are not checked."""
    gens, arrows_out = complex_.generators, complex_.arrows_out
    width = len(gens)

    def grading(m: int) -> list[tuple[int, int]]:
        """Basis elements (g, a) of grading m; in a row over m, bit g stands for U^a * g."""
        return [(g, (mg - m) // 2) for g, (mg, _) in enumerate(gens)
                if (mg - m) % 2 == 0 and floors[g] <= (mg - m) // 2 < order]

    def row(g: int, a: int) -> int:
        """Boundary of U^a * g as a mask over generator numbers (targets are distinct)."""
        return sum(1 << l for l, n in arrows_out[g] if a + n < order)

    top = max(mg - 2 * f for (mg, _), f in zip(gens, floors))
    bottom = min(mg for mg, _ in gens) - 2 * (order - 1)
    for m in range(top, bottom - 1, -1):
        # V with (0, B) added first: rows (de << width | U^window e) whose
        # echelon pivot falls below `width` span U^window(cycles) + B, so
        # their count is rank V - rank D.
        space = BitSpace()
        for e in grading(m - 2 * window + 1):
            space.add(row(*e))
        rank_b = space.rank
        for g, a in grading(m):
            space.add(row(g, a) << width | (1 << g if a + window < order else 0))
        if sum(pivot < width for pivot in space.rows) > rank_b:
            return m
    return None


def _truncation_order(complex_: BifilteredComplex) -> int:
    gmax = complex_.alexander_radius
    mmax = max(m for m, _ in complex_.generators)
    return max(0, mmax) // 2 + 2 * gmax + 2


# Complexes with at most this many generators are also searched unreduced,
# and the two tower tops must agree.
_CROSS_CHECK_GENERATORS = 12


def _window(complex_: BifilteredComplex) -> int:
    """The window w: a class counts towards the tower when its U^w-image is not a boundary."""
    return complex_.alexander_radius + 1


def reduce_sublevel(complex_: BifilteredComplex, floors: tuple[int, ...]) -> BifilteredComplex:
    """The subcomplex spanned by U^a * g, a >= floors[g], with its arrows of exponent <= w cancelled.

    Written in the basis h_g = U^floors[g] * g (module docstring), with w the
    window of `complex_`.  The result is not homotopy equivalent to A_s^-: each
    cancellation splits off a summand F_2[U]/U^e, e <= w.  It has the same
    classes surviving U^w at every truncation, so the tower search returns the
    same value on it at every order.  The survivors carry Alexander grading 0,
    which satisfies the filtration law on every arrow.  Raises
    InternalCheckError if nothing survives.
    """
    gens = complex_.generators
    if len(floors) != len(gens) or any(exact_int(f, _FLOORS) < 0 for f in floors):
        raise ValidationError("floors must give one non-negative lower U-bound per generator")
    window = _window(complex_)
    out: list[dict[int, int]] = [{} for _ in gens]  # out[k][l] = exponent of k->l
    into: list[dict[int, int]] = [{} for _ in gens]  # into[l][k] = the same exponent
    queued: list[list[tuple[int, int]]] = [[] for _ in range(window + 1)]  # arrows by exponent
    cancelled: set[int] = set()
    for (k, l), n in complex_.differential.items():
        e = floors[k] + n - floors[l]
        if e < 0:
            raise ValidationError("floors must span a subcomplex: floors[l] <= floors[k] + n on each arrow")
        out[k][l] = into[l][k] = e
        if e <= window:
            queued[e].append((k, l))
    # Drained in rising exponent order, so the arrow k->l taken has the least
    # exponent e left: every x->l and k->y has exponent a, b >= e, and each
    # toggled exponent a + b - e >= e lands in this bucket or a later one.
    for e, bucket in enumerate(queued):
        while bucket:
            k, l = bucket.pop()
            if l not in out[k]:
                continue  # cancelled or toggled away since it was queued
            targets = [(y, b - e) for y, b in out[k].items() if y != l]
            for x, a in [(x, a) for x, a in into[l].items() if x != k]:
                ox = out[x]
                for y, b in targets:
                    if y in ox:
                        del ox[y], into[y][x]
                    else:
                        ox[y] = into[y][x] = a + b
                        if a + b <= window:
                            queued[a + b].append((x, y))
            for g in (k, l):
                for y in out[g]:
                    del into[y][g]
                for x in into[g]:
                    del out[x][g]
                out[g], into[g] = {}, {}
            cancelled.update((k, l))
    alive = [g for g in range(len(gens)) if g not in cancelled]
    if not alive:
        raise InternalCheckError("every generator cancelled: the complex has no U-tower")
    number = {g: j for j, g in enumerate(alive)}
    return BifilteredComplex(
        tuple((gens[g][0] - 2 * floors[g], 0) for g in alive),
        {(number[k], number[l]): e for k in alive for l, e in out[k].items()},
    )


def _guarded_tower_top(
    complex_: BifilteredComplex, floors: tuple[int, ...], order: int, window: int
) -> int:
    """Tower top computed at orders N and N+1; instability raises, never returns."""
    first = _truncated_tower_top(complex_, floors, order, window)
    second = _truncated_tower_top(complex_, floors, order + 1, window)
    if first != second:
        raise TruncationInstabilityError(
            f"tower top changed between truncation orders {order} and {order + 1} "
            f"({first} vs {second}); a larger truncation is required"
        )
    if first is None:
        raise InternalCheckError(
            f"no U-surviving class found within truncation order {order}; "
            "a larger truncation is required"
        )
    return first


def _stable_tower_top(complex_: BifilteredComplex, floors: tuple[int, ...]) -> int:
    """Tower top of the sublevel `floors`, searched on its reduced complex.

    The window and the orders N, N+1 are those of the unreduced complex; small
    complexes are searched unreduced too, and a disagreement raises.
    """
    order = _truncation_order(complex_)
    window = _window(complex_)
    reduced = reduce_sublevel(complex_, floors)  # the one floors check of the level
    top = _guarded_tower_top(reduced, (0,) * reduced.n_generators, order, window)
    if complex_.n_generators <= _CROSS_CHECK_GENERATORS:
        direct = _guarded_tower_top(complex_, floors, order, window)
        if direct != top:
            raise InternalCheckError(
                f"reduced and unreduced tower tops disagree: {top} vs {direct}"
            )
    return top


def staircase(knot: TorusKnot) -> BifilteredComplex:
    """Staircase complex of a positive torus knot.

    The symmetrised Alexander exponents of T(p,q) are the points where the
    membership indicator of Gamma(p,q) switches on or off, shifted by the
    genus.  Generators sit at those Alexander gradings in descending order;
    every odd-indexed generator maps onto its two neighbours, the higher one
    with the U-exponent that preserves the Alexander filtration sharply.
    """
    if not isinstance(knot, TorusKnot):
        raise ValidationError(f"staircase expects a TorusKnot, got {knot!r}")
    semigroup = semigroup_from_pair(knot.p, knot.q)
    g = knot.genus
    exponents: list[int] = []
    prev = 0
    for m, cur in enumerate(semigroup.membership + b"\x01"):  # the conductor is a member
        if cur != prev:
            exponents.append(m - g)
        prev = cur
    exponents.reverse()
    count = len(exponents)
    if count % 2 == 0 or exponents[0] != g or any(
        exponents[j] + exponents[count - 1 - j] != 0 for j in range(count)
    ):
        raise InternalCheckError(f"Alexander exponent set of {knot} is not symmetric")
    gens: list[tuple[int, int]] = []
    maslov = 0
    for j, alex in enumerate(exponents):
        if j % 2 == 1:
            maslov += 1 - 2 * (exponents[j - 1] - alex)
        elif j:
            maslov -= 1
        gens.append((maslov, alex))
    diff: dict[tuple[int, int], int] = {}
    for j in range(1, count, 2):
        diff[(j, j - 1)] = exponents[j - 1] - exponents[j]
        diff[(j, j + 1)] = 0
    return BifilteredComplex(tuple(gens), diff)


def dualize(complex_: BifilteredComplex) -> BifilteredComplex:
    """Graded dual: (M, A) -> (-M, -A), transposed differential, tower re-topped at 0."""
    gens = tuple((-m, -a) for m, a in complex_.generators)
    diff = {(l, k): n for (k, l), n in complex_.differential.items()}
    dual = BifilteredComplex(gens, diff)
    shift = dual.tower_top()
    if shift != 0:
        gens = tuple((m - shift, a) for m, a in gens)
        dual = BifilteredComplex(gens, diff)
    return dual


def tensor(left: BifilteredComplex, right: BifilteredComplex) -> BifilteredComplex:
    """Tensor product over F_2[U]: gradings add, differential by the Leibniz rule."""
    nright = right.n_generators
    gens = tuple(
        (m1 + m2, a1 + a2) for m1, a1 in left.generators for m2, a2 in right.generators
    )
    diff: dict[tuple[int, int], int] = {}
    for (k, l), n in left.differential.items():
        for j in range(nright):
            diff[(k * nright + j, l * nright + j)] = n
    for (k, l), n in right.differential.items():
        for i in range(left.n_generators):
            diff[(i * nright + k, i * nright + l)] = n
    return BifilteredComplex(gens, diff)


def complex_of(expr: KnotExpression | TorusKnot) -> BifilteredComplex:
    """Complex of a knot expression: staircases, duals for mirrors, tensor over #."""
    expr = as_expression(expr)
    if not expr.summands:
        return BifilteredComplex(((0, 0),), {})
    parts = [
        staircase(knot) if sign > 0 else dualize(staircase(knot))
        for knot, sign in expr.summands
    ]
    return reduce(tensor, parts)


def v_invariant(complex_: BifilteredComplex, s: int) -> int:
    """V_s: minus half the tower-top grading of the sublevel subcomplex A_s^-."""
    exact_int(s, "V-invariant level must be a non-negative integer", 0)
    floors = tuple(max(0, a - s) for _, a in complex_.generators)
    top = _stable_tower_top(complex_, floors)
    if top > 0 or top % 2 != 0:
        raise InternalCheckError(
            f"sublevel tower top {top} at level {s} is not an even non-positive grading"
        )
    return -top // 2


# V-sequence memo of the current context (canonical expression string ->
# values), installed by `v_memo`; None, the default, disables memoisation.
_memo: ContextVar[dict[str, list[int]] | None] = ContextVar("v_memo", default=None)


@contextmanager
def v_memo(entries: Mapping[str, list[int]]) -> Iterator[dict[str, list[int]]]:
    """Memoise V-sequences within this block of the current context only.

    Yields the memo, a copy of `entries` that `v_sequence` fills; other
    threads and contexts never see it.
    """
    memo = dict(entries)
    token = _memo.set(memo)
    try:
        yield memo
    finally:
        _memo.reset(token)


def _recall(expr: KnotExpression) -> VSequence | None:
    """The memo entry of `expr` if it has the shape `v_sequence` returns: V_0..V_g
    ending in V_g = 0 for genus g, nothing for the unknot.  Else None (recompute)."""
    memo = _memo.get()
    values = None if memo is None else memo.get(str(expr))
    if values is None:
        return None
    try:
        seq = VSequence(tuple(values))
    except (ValidationError, TypeError):
        return None
    length = expr.genus + 1 if expr.summands else 0
    return seq if len(seq) == length and not any(seq.values[-1:]) else None


def v_route(expr: KnotExpression | TorusKnot) -> tuple[str, str]:
    """Route `v_sequence` and `v_at` take for an expression, and its trail anchor."""
    expr = as_expression(expr)
    if expr.single_positive_torus_knot():
        return "semigroup count", A_SEMIGROUP
    if expr.is_unknot:
        return "unknot", A_TOWER
    return "staircase homology", A_TOWER


def v_sequence(expr: KnotExpression | TorusKnot) -> VSequence:
    """V-sequence of an expression.

    Single positive torus knots take the semigroup fast path; everything else
    goes through the chain complex, one sublevel homology per index.  Where
    both paths apply they are compared (small genus).
    """
    expr = as_expression(expr)
    seq = _recall(expr)
    if seq is not None:
        return seq
    knot = expr.single_positive_torus_knot()
    if knot is not None:
        seq = v_sequence_torus(knot)
        if knot.genus <= 12:
            chain = complex_of(expr)
            for s in range(knot.genus + 1):
                hom = v_invariant(chain, s)
                if hom != seq.at(s):
                    raise InternalCheckError(
                        f"path disagreement on {knot} at level {s}: "
                        f"semigroup {seq.at(s)}, homology {hom}"
                    )
    elif expr.is_unknot:
        seq = VSequence(())
    else:
        chain = complex_of(expr)
        values = tuple(v_invariant(chain, s) for s in range(expr.genus + 1))
        try:
            seq = VSequence(values)
        except ValidationError as exc:
            raise InternalCheckError(f"computed V-values violate monotonicity: {exc}") from exc
    memo = _memo.get()
    if memo is not None:
        memo[str(expr)] = list(seq.values)
    return seq


def v_at(expr: KnotExpression | TorusKnot, s: int) -> int:
    """V_s: one level searched on the unmemoised homology route, else `v_sequence(expr).at(s)`."""
    expr = as_expression(expr)
    exact_int(s, "V-sequence index must be a non-negative integer", 0)
    if v_route(expr)[0] == "staircase homology" and _recall(expr) is None:
        return v_invariant(complex_of(expr), s)
    return v_sequence(expr).at(s)
