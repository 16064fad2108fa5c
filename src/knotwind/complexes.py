"""Staircase-type bifiltered chain complexes over F_2[U].

A complex here is a finite generating set with integer (maslov, alexander)
bigradings and a differential stored sparsely: entry (k, l) -> n means that
U^n * g_l appears in the boundary of g_k.  Three laws are enforced at
construction time:

    square zero:   the F_2[U]-linear composite of the differential with
                   itself vanishes,
    grading law:   M(g_l) - 2n = M(g_k) - 1 on every entry,
    filtration:    A(g_l) - n <= A(g_k) on every entry.

The constructor checks each arrow once, in the order of the differential,
which names the first arrow to break a check: key range, exponent sign, and
the grading and filtration laws.  Square zero is checked last, in its
parity form: every pair (k, m) has an even number of 2-paths k->l->m.  Once
the grading law holds, every 2-path from k to m carries U^(n1 + n2) with
n1 + n2 = (M(g_m) - M(g_k) + 2)/2, so the composite's (k, m) entry is that
count mod 2 times one fixed power of U.

The homological normalisation (the U-non-torsion tower of the full complex
tops out at Maslov grading 0) is available as `tower_top`.  `complex_of`
builds the complex of an expression in one construction: it folds the raw
generators and differentials of its signed staircases through the Leibniz
rule, each staircase normalised by its gradings and each dual keeping the
normalisation (dual lemma below), tower tops adding under the tensor
product.  Only the result is constructed, so the laws are checked once, on
the complex the engine uses; `staircase`, `dualize` and `tensor` construct
and check the same parts one at a time.

V-invariants are read off sublevel subcomplexes: for s >= 0, A_s^- is
spanned by U^a * g with a >= f(g) = max(0, A(g) - s).

Reduction.  A_s^- is free on h_g = U^f(g) * g, of Maslov grading
M(g) - 2f(g); an arrow k->l of exponent n becomes an arrow h_k->h_l of
exponent f(k) + n - f(l) >= 0.  The single-level step of the sweep (below)
cancels every arrow of exponent at most the window w = alexander_radius + 1
of the unreduced complex, least exponent first.  Cancelling k->l of
exponent e, the least left, drops h_k and h_l and adds U^(a+b-e) to x->y
for every x->l of exponent a and k->y of exponent b; the grading law fixes
the exponent of x->y, so adding it is an XOR.  For e = 0 this is Gaussian
elimination over F_2[U] and the result is homotopy equivalent; for e > 0 it
is not, but the tower search cannot tell:

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

Sweep.  Write G_s(g) = M(g) - 2 f_s(g) for the reduced grading at level s.
By the grading law an arrow k->l has exponent e_s = (G_s(l) - G_s(k) + 1)/2
at level s, so one adjacency, without exponents, describes every level.

    Lemma.  An arrow of exponent 0 at levels a < b has exponent 0 at every
    level of [a, b], and cancelling it is Gaussian elimination at each one.
    Sketch.  f_s(k) - f_s(l) is monotone in s: it is constant while both
    floors are positive or both are 0, and moves by one per level towards 0
    in between.  So e_s = n + f_s(k) - f_s(l) is monotone, and as e_s >= 0,
    e_a = e_b = 0 gives e_s = 0 throughout [a, b].  At each of these levels
    the cancellation is Gaussian elimination over F_2[U], and its toggles
    x->y depend only on which arrows exist: they are one XOR of the shared
    adjacency.  Each level reads the exponents, toggled arrows included,
    from its own gradings, so one cancellation serves all of them.

`_reduced_sublevels` sweeps the levels of a V-sequence this way: an
interval cancels every arrow of exponent 0 at both ends, toggled ones
included, then splits in two; an arrow of exponent 0 at one end only is
left to the halves.  Every step takes one criterion.  As e_s is monotone,
the exponent of an arrow on an interval [a, b], its largest e_s there, is
the larger of e_a and e_b; `_cancel` cancels, least first, every arrow,
toggled ones included, whose exponent is at most a limit.  An interval
passes the limit 0, so its step is Gaussian elimination only.  A single
level s is the interval [s, s]: it passes the window and cancels what is
left up to it (Reduction), then yields its survivors with their gradings
G_s.  Each level's gradings G_s are computed once, as a list over the
generators: an interval hands the gradings of its two ends down to the
halves that share them, and computes only those of its middle levels mid
and mid + 1.  Level floors always span a subcomplex
(f_s(l) <= f_s(k) + n by the filtration law), so the sweep checks none.

The sweep reads the last level first, down the right spine of intervals,
keeping each left half on its copy; then it takes the left halves from the
outermost in, so the other levels come left to right.  It is lazy, and
`_tower_tops` stops reading once a level's top equals the last level's:

    Lemma (sandwich).  If levels s < t each reduce to one survivor, every
    level u of [s, t] has one U-tower, and top_s <= top_u <= top_t; in
    general top_s <= top_t <= top_s + 2(t - s).  So top_s = top_t fixes the
    top of every level between them.
    Sketch.  f_u(g) - 1 <= f_(u+1)(g) <= f_u(g), so U * A_(u+1)^- lies in
    A_u^-, which lies in A_(u+1)^-.  Inverting U turns every A_u^- into
    C[U^-1], so the free part of the homology has the same rank at every
    level: one, as at s (Reading a level, below).  The inclusion of A_u^-
    into A_v^-, u < v, keeps gradings and is the identity once U is
    inverted, so it is injective on the free part: it takes the tower's top
    class to a non-torsion class, which is U^j times the top class of A_v^-
    plus torsion, so top_u <= top_v.  Multiplication by U^(v-u) maps A_v^-
    into A_u^-, lowering gradings by 2(v - u), and composed with the
    inclusion it is U^(v-u), again injective on the free part; so
    top_v - 2(v - u) <= top_u.

This is the step law V_s - V_(s+1) in {0, 1} (Ni-Wu, "Cosmetic surgeries on
knots in S^3", 2015; Rasmussen, thesis 2003) for any such complex: it needs
neither a knot nor V_g = 0.  The V-sequences of mixed and mirrored sums
mostly end in a long run of zeros, and the sweep reduces only the levels
before that run, its first level and the last.  A positive sum has
V_(g-1) = 1, so there it reduces every level.

Reading a level.  The tower top of A_s^- is read off the reduction:

    Lemma.  If one generator h survives the reduction of A_s^-, the U-tower
    of A_s^- is F_2[U] * h, and its top is G_s(h).
    Sketch.  Each cancellation splits off a direct summand {k, l'} with
    dk = U^e * l' through a basis change that keeps every grading (the
    Reduction sketch), and the complement has the toggled arrows.  So
    A_s^- is the sum of the split pairs, each of homology F_2[U]/U^e, and
    of F_2[U] * h, where dh = 0: an arrow h->h would need 2n = 1 by the
    grading law.  The tower top is G_s(h) exactly, with no truncation.
    By the Reduction lemma the search of A_s^- / U^N finds what it finds
    on h alone, a cycle whose U^w-image is neither 0 nor a boundary once
    N > w; its orders N = max(0, M_max)//2 + 2r + 2 all exceed w = r + 1
    (r = alexander_radius), so at N and N+1 it could only return G_s(h).

No survivor means A_s^- has no tower.  Several mean a second tower or an
arrow above w left over, whose summand F_2[U]/U^e, e > w, the truncated
search would count as a tower: on generators (0,0), (1,0), (4,0) with the
one arrow g1->g2 of exponent 2 it tops out at 4, though the tower sits at
0.  Either raises `InternalCheckError`; on the complexes of knots, every
level measured so far has one survivor.

Duals.  `dualize` negates both gradings and transposes the differential:
the dual basis of Hom(C, F_2[U]) with d* = (phi -> phi o d).  The
filtration law is symmetric under (k, l, A) -> (l, k, -A), so the laws
hold on the dual.

    Lemma.  The tower top of the dual is minus the tower top of C, for a
    complex C with one tower.
    Sketch.  Cancelling every arrow of C, least exponent first and with no
    window, splits C through a grading-preserving basis change P into pairs
    dk = U^e * l' and arrow-free generators, the towers; C has one, h, at
    grading t.  In the dual basis of P (the inverse transpose) d* is the
    transpose of this split form: pairs d l'* = U^e * k*, each still
    F_2[U]/U^e, and the arrow-free h* at grading -t.  So the dual's tower is
    F_2[U] * h*, with top -t.

So the dual of a normalised complex is normalised and `dualize` searches
nothing: the complex-level form of d(-Y) = -d(Y) (Ozsvath-Szabo,
"Absolutely graded Floer homologies...", 2003).

Tower search.  `_truncated_tower_tops` is the independent search behind the
small-complex cross-check.  It takes plain values: the complex, a range of
levels first..last, the order N and the window w.  Its model of level s is
A_s^- / U^N A_s^-, the `TruncatedComplex` with the floors f_s: it keeps
U^a * g for f_s(g) <= a < N and reads each row off the arrows of g.  A
generator has at most one basis element per Maslov grading, so rows are
generator-numbered: bit g over grading m is U^a * g, a = (M(g) - m)/2.  The
tower top is the maximal grading m with a cycle whose U^w-image is not a
boundary.  At each m the search takes D, the boundaries of the basis of m,
B, the boundaries landing in m - 2w, and V, the span of the pairs
(de, U^w e) over the basis of m together with (0, B).  Projecting V onto
its first part has image D and kernel 0 x (U^w(cycles) + B), so a surviving
cycle exists iff rank V - rank D > rank B.  V_s is minus half the top
grading.

    Lemma.  At a fixed grading m and order N, the basis of level s is
    contained in that of every level t > s, and D, B and V of level s are
    spanned by a subset of the rows that span those of level t.
    Sketch.  U^a * g lies in the basis of m at level s iff
    M(g) - 2a = m and f_s(g) <= a < N, and f_s(g) = max(0, A(g) - s) does
    not increase with s.  The row of U^a * g is its boundary: the terms
    U^(a+n) * l over its arrows g->l with a + n < N, in the basis of every
    level that admits U^a * g as the floors span a subcomplex.  No floor
    enters it, so it is the same row at every such level.  D, B and V are
    spans of these rows over the basis of m and of m - 2w + 1, and a rank
    depends on the set of rows, not on the order they are inserted in.

So one walk per order serves every level: it goes down the gradings of the
`graded_basis()` of level last, from the largest to the smallest (a grading
with no basis element there has none at any level).  It inserts each basis
element of m and of m - 2w + 1 into three echelon spaces D, B and V at the
first level that admits it, level max(first, A(g) - a) for U^a * g, and
after each level's insertions the ranks are that level's.  Each level
records the first m where rank V - rank D > rank B, and the walk stops once
every level has one.

Checks.  Every level the sweep reduces is read off its one survivor, and a
level that reduces to zero or several generators raises.  A level that the
sandwich lemma fixes is not reduced, so it gets no survivor count of its
own; its top is the theorem's.  Complexes of at most
`_CROSS_CHECK_GENERATORS` generators are also searched unreduced, at the
truncation orders N and N+1, by one walk per order that serves every level
(Tower search), sandwiched levels included: the two searches must agree
with each other and with the top of each level, and a disagreement raises,
never returns.  Only the search needs a second order, since the read is
exact while a truncated model can miss the tower: for T(2,9) at s = 0 the
read gives -4, and the unreduced search at order 7 finds no surviving
class.  Every top must be an even non-positive grading.  On the homology
route `v_sequence` checks V_g = 0 for the genus g: at level g every floor
is 0, so V_g is minus half the tower top of the whole complex, and this one
check covers the normalisation of every staircase, dual and tensor in the
sum.  `v_at` reads `v_sequence`, so V_g = 0 guards every value it returns;
`v_invariant` reads a complex it is given, whose normalisation it does not
check.
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
    # Built once: max |A(g)|, the total genus for complexes built from knots.
    alexander_radius: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        # Each `x.__class__ is int` test only spares the call to exact_int.
        gens = tuple([
            (
                m if m.__class__ is int else exact_int(m, _GRADINGS),
                a if a.__class__ is int else exact_int(a, _GRADINGS),
            )
            for m, a in self.generators
        ])
        object.__setattr__(self, "generators", gens)
        if not gens:
            raise ValidationError("a complex needs at least one generator")
        count = len(gens)
        out: list[list[int]] = [[] for _ in gens]  # out[k]: the targets of k, for square zero
        for (k, l), n in self.differential.items():
            if not (
                0 <= (k if k.__class__ is int else exact_int(k, _KEYS)) < count
                and 0 <= (l if l.__class__ is int else exact_int(l, _KEYS)) < count
            ):
                raise ValidationError(f"differential entry ({k},{l}) is out of range")
            if (n if n.__class__ is int else exact_int(n, "U-exponents must be integers")) < 0:
                raise ValidationError(f"U-exponent on arrow {k}->{l} is negative")
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
            out[k].append(l)
        object.__setattr__(self, "differential", dict(self.differential))
        object.__setattr__(self, "alexander_radius", max(abs(a) for _, a in gens))
        # Square zero, in its parity form (module docstring): every (k, m) has an
        # even number of 2-paths k->l->m.  Sorted, a list has every value an even
        # number of times iff it pairs off into equal neighbours.
        ends = [k * count + m for k, targets in enumerate(out) for l in targets for m in out[l]]
        ends.sort()
        if ends[::2] != ends[1::2]:
            raise ValidationError("differential does not square to zero over F_2[U]")

    @property
    def n_generators(self) -> int:
        return len(self.generators)

    def tower_top(self) -> int:
        """Top Maslov grading of the U-non-torsion tower of the full complex.

        Read off the one level s = alexander_radius, where every floor is 0:
        the grading of the one generator its reduction leaves.  Raises
        InternalCheckError if zero or several generators survive.
        """
        return _tower_tops(self, self.alexander_radius, self.alexander_radius)[0]

    def validate(self) -> None:
        """Re-run all construction checks plus the tower normalisation."""
        BifilteredComplex(self.generators, dict(self.differential))
        top = self.tower_top()
        if top != 0:
            raise ValidationError(f"tower normalisation broken: top grading {top} != 0")


@dataclass(frozen=True)
class TruncatedComplex:
    """Finite-dimensional F_2 model: basis U^a * g with floors[g] <= a < order (floors default
    to 0).  With the floors f_s it is A_s^- / U^order, which `_truncated_tower_tops` walks."""

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


def _truncated_tower_tops(
    complex_: BifilteredComplex, first: int, last: int, order: int, window: int
) -> list[int | None]:
    """Per level s = first..last, the maximal grading of A_s^- / U^order with a cycle surviving
    U^window, or None; one walk down the basis of level `last` serves all (module docstring)."""
    gens = complex_.generators
    width, count = len(gens), last - first + 1
    out: list[list[tuple[int, int]]] = [[] for _ in gens]  # out[k]: (l, n) for each arrow k->l
    for (k, l), n in complex_.differential.items():
        out[k].append((l, n))
    basis = TruncatedComplex(complex_, order, tuple(max(0, a - last) for _, a in gens)).graded_basis()

    def grading(m: int) -> list[list[tuple[int, int]]]:
        """Basis elements (g, a) of grading m by the level they enter at; bit g stands for U^a * g.

        U^a * g lies in A_s^- once f_s(g) = max(0, A(g) - s) <= a: from level A(g) - a on.
        """
        levels: list[list[tuple[int, int]]] = [[] for _ in range(count)]
        for g, a in basis.get(m, ()):
            levels[max(0, gens[g][1] - a - first)].append((g, a))
        return levels

    def row(g: int, a: int) -> int:
        """Boundary of U^a * g as a mask over generator numbers (targets are distinct)."""
        return sum(1 << l for l, n in out[g] if a + n < order)

    tops: list[int | None] = [None] * count
    missing = count
    for m in sorted(basis, reverse=True):  # a grading with no basis element has no class
        # D: the boundaries of the basis of m; B: those landing in m - 2w;
        # V: the pairs (de, U^window e) over the basis of m, and (0, B), as
        # rows de << width | U^window e.  Each only grows from one level to
        # the next, and `excess` is rank V - rank D - rank B.
        space_d, space_b, space_v = BitSpace(), BitSpace(), BitSpace()
        excess = 0
        for level, below, here in zip(range(count), grading(m - 2 * window + 1), grading(m)):
            for g, a in below:
                boundary = row(g, a)
                excess += space_v.add(boundary) - space_b.add(boundary)
            for g, a in here:
                boundary = row(g, a)
                image = 1 << g if a + window < order else 0
                excess += space_v.add(boundary << width | image) - space_d.add(boundary)
            if excess > 0 and tops[level] is None:
                tops[level] = m
                missing -= 1
        if not missing:
            break
    return tops


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


def _arrows(complex_: BifilteredComplex) -> tuple[dict[int, set[int]], dict[int, set[int]]]:
    """The adjacency of `complex_` without exponents: out[k] and into[l] for every generator.

    Filled in the order of `differential`, which fixes the order in which
    `_cancel` visits the sources of an arrow, and so which arrows it cancels.
    """
    out: list[set[int]] = [set() for _ in complex_.generators]
    into: list[set[int]] = [set() for _ in complex_.generators]
    for k, l in complex_.differential:
        out[k].add(l)
        into[l].add(k)
    return dict(enumerate(out)), dict(enumerate(into))


def _cancel(
    out: dict[int, set[int]], into: dict[int, set[int]], low: list[int], high: list[int], limit: int
) -> None:
    """Cancel every arrow whose exponent on an interval of levels is at most `limit`, least first.

    `low` and `high` are the reduced gradings G_a, G_b of the two ends of the
    interval, indexed by generator (the same gradings twice for one level);
    the exponent of k->l at level s is (G_s[l] - G_s[k] + 1) / 2.  It is
    monotone in s (module docstring), so its largest value on [a, b] is the
    larger of its two ends, and that is the arrow's exponent here.  An
    interval passes `limit` 0, Gaussian elimination of every arrow of
    exponent 0 at both ends; a single level passes the window.
    """
    queued: list[list[tuple[int, int]]] = [[] for _ in range(limit + 1)]  # arrows by exponent
    for k, targets in out.items():
        lowk, highk = low[k] - 1, high[k] - 1
        for l in targets:
            e, f = low[l] - lowk, high[l] - highk  # twice the exponents at the two ends
            e = (e if e > f else f) >> 1
            if e <= limit:
                queued[e].append((k, l))
    # Drained in rising exponent order, so the arrow k->l taken has the least
    # exponent e left: every x->l and k->y has exponent a, b >= e, and each
    # toggled exponent a + b - e >= e lands in this bucket or a later one.
    for bucket in queued:
        while bucket:
            k, l = bucket.pop()
            targets = out.get(k, ())
            if l not in targets:
                continue  # cancelled or toggled away since it was queued
            sources = into[l]
            if len(sources) > 1 and len(targets) > 1:  # else nothing to toggle
                targets = [y for y in targets if y != l]
                for x in sources:
                    if x == k:
                        continue
                    ox, lowx, highx = out[x], low[x] - 1, high[x] - 1
                    for y in targets:
                        if y in ox:
                            ox.remove(y)
                            into[y].remove(x)
                        else:
                            ox.add(y)
                            into[y].add(x)
                            e, f = low[y] - lowx, high[y] - highx
                            e = (e if e > f else f) >> 1
                            if e <= limit:
                                queued[e].append((x, y))
            for g in (k, l):
                for y in out.pop(g):
                    into[y].discard(g)
                for x in into.pop(g):
                    out[x].discard(g)


def _reduced_sublevels(
    complex_: BifilteredComplex, first: int, last: int
) -> Iterator[tuple[int, dict[int, int]]]:
    """Yield (s, {g: G_s(g) for each survivor g of A_s^-}) from one sweep: s = last, then
    first..last - 1 in order.  Lazy, so a caller that stops reading reduces no further level.

    An interval [a, b] cancels the arrows of exponent 0 at both a and b, hence
    on all of it (module docstring), then splits in two; the left half works
    on a copy.  The sweep goes down the right spine to level `last` first,
    keeping each left half, then takes the left halves from the outermost in,
    each left before right.  A single level then cancels what is left up to
    the window.  Each level's gradings are computed once: a half takes the
    gradings of the end it shares with its interval.  Floors of levels always
    span a subcomplex, so none is checked.
    """
    gens = complex_.generators
    window = _window(complex_)

    def gradings(s: int) -> list[int]:
        """Reduced gradings G_s(g) = M(g) - 2 max(0, A(g) - s), indexed by generator."""
        return [m - 2 * (a - s) if a > s else m for m, a in gens]

    def halves(a: int, b: int, low: list[int], high: list[int], out: dict, into: dict) -> tuple:
        """Cancel the exponent-0 arrows of [a, b] in place; return its halves, the left on a copy."""
        _cancel(out, into, low, high, 0)
        mid = (a + b) // 2
        left = (
            a, mid, low, gradings(mid) if a < mid else low,
            {g: set(t) for g, t in out.items()}, {g: set(t) for g, t in into.items()},
        )
        return left, (mid + 1, b, gradings(mid + 1) if mid + 1 < b else high, high, out, into)

    low = gradings(first)
    spine = (first, last, low, gradings(last) if first < last else low, *_arrows(complex_))
    stack = []  # the left halves met down the right spine, the outermost on top
    while spine[0] < spine[1]:
        left, spine = halves(*spine)
        stack.insert(0, left)
    stack.append(spine)  # level `last`, read first
    while stack:
        node = stack.pop()
        a, b, low, _, out, into = node
        if a < b:
            left, right = halves(*node)
            stack += (right, left)
        else:
            _cancel(out, into, low, low, window)
            yield a, {g: low[g] for g in out}


def _stable_top(first: int | None, second: int | None, order: int) -> int:
    """The tower top found at orders N and N+1; instability or no class raises, never returns."""
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


def _tower_tops(complex_: BifilteredComplex, first: int, last: int) -> list[int]:
    """Tower tops of the sublevels A_s^-, s = first..last, read off the sweep (sandwich lemma).

    Level `last` is read first, then the others from `first` up, each the
    grading G_s of its one survivor; a read level that reduces to zero or
    several generators raises.  Once a read level's top equals that of
    `last`, every level between the two has that top and is not reduced.
    Small complexes are also searched unreduced, at the orders N and N+1 and
    with the window of the complex, one walk per order for every level,
    skipped ones included, and a disagreement raises.
    """
    levels = _reduced_sublevels(complex_, first, last)
    _, survivors = next(levels)
    ceiling = _survivor_top(last, survivors)
    tops = []
    for s, survivors in levels:
        tops.append(_survivor_top(s, survivors))
        if tops[-1] == ceiling:
            break
    tops += [ceiling] * (last - first + 1 - len(tops))  # the levels sandwiched after s, and last
    if complex_.n_generators <= _CROSS_CHECK_GENERATORS:
        order, window = _truncation_order(complex_), _window(complex_)
        walks = [_truncated_tower_tops(complex_, first, last, n, window) for n in (order, order + 1)]
        for s, top, low, high in zip(range(first, last + 1), tops, *walks):
            direct = _stable_top(low, high, order)
            if direct != top:
                raise InternalCheckError(
                    f"reduced and unreduced tower tops disagree at level {s}: {top} vs {direct}"
                )
    return tops


def _survivor_top(s: int, survivors: dict[int, int]) -> int:
    """The grading of the one survivor of level s; zero or several raise."""
    if len(survivors) != 1:
        raise InternalCheckError(
            f"{len(survivors)} generators survive the reduction of level {s}, not one: "
            "its tower top cannot be read off"
        )
    (top,) = survivors.values()
    return top


# A part is the raw (generators, differential) of a complex, unvalidated:
# `complex_of` builds one per summand and validates only their tensor product.
_Part = tuple[tuple[tuple[int, int], ...], dict[tuple[int, int], int]]


def _staircase_part(knot: TorusKnot) -> _Part:
    """The staircase of a positive torus knot, its Alexander exponents checked for symmetry."""
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
    return tuple(gens), diff


def _dual_part(part: _Part) -> _Part:
    """Both gradings negated, the differential transposed."""
    gens, diff = part
    return tuple((-m, -a) for m, a in gens), {(l, k): n for (k, l), n in diff.items()}


def _tensor_part(left: _Part, right: _Part) -> _Part:
    """Gradings added, the differential by the Leibniz rule."""
    (lgens, ldiff), (rgens, rdiff) = left, right
    nright = len(rgens)
    gens = tuple((m1 + m2, a1 + a2) for m1, a1 in lgens for m2, a2 in rgens)
    diff: dict[tuple[int, int], int] = {}
    for (k, l), n in ldiff.items():
        for j in range(nright):
            diff[(k * nright + j, l * nright + j)] = n
    for (k, l), n in rdiff.items():
        for i in range(len(lgens)):
            diff[(i * nright + k, i * nright + l)] = n
    return gens, diff


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
    return BifilteredComplex(*_staircase_part(knot))


def dualize(complex_: BifilteredComplex) -> BifilteredComplex:
    """Graded dual: (M, A) -> (-M, -A) and the differential transposed.

    Its tower top is minus the input's (dual lemma, module docstring), so the
    dual of a normalised complex is normalised; nothing is searched.
    """
    return BifilteredComplex(*_dual_part((complex_.generators, complex_.differential)))


def tensor(left: BifilteredComplex, right: BifilteredComplex) -> BifilteredComplex:
    """Tensor product over F_2[U]: gradings add, differential by the Leibniz rule."""
    return BifilteredComplex(
        *_tensor_part((left.generators, left.differential), (right.generators, right.differential))
    )


def complex_of(expr: KnotExpression | TorusKnot) -> BifilteredComplex:
    """Complex of a knot expression: staircases, duals for mirrors, tensor over #.

    The parts are folded raw, and only the result is constructed, so every law
    is checked once, on the complex the engine uses.
    """
    expr = as_expression(expr)
    if not expr.summands:
        return BifilteredComplex(((0, 0),), {})
    parts = [
        _staircase_part(knot) if sign > 0 else _dual_part(_staircase_part(knot))
        for knot, sign in expr.summands
    ]
    return BifilteredComplex(*reduce(_tensor_part, parts))


def _v_values(complex_: BifilteredComplex, first: int, last: int) -> list[int]:
    """V_first..V_last: minus half the tower tops of one sweep, each checked for parity."""
    values = []
    for s, top in zip(range(first, last + 1), _tower_tops(complex_, first, last)):
        if top > 0 or top % 2 != 0:
            raise InternalCheckError(
                f"sublevel tower top {top} at level {s} is not an even non-positive grading"
            )
        values.append(-top // 2)
    return values


def v_invariant(complex_: BifilteredComplex, s: int) -> int:
    """V_s: minus half the tower-top grading of the sublevel subcomplex A_s^-."""
    exact_int(s, "V-invariant level must be a non-negative integer", 0)
    return _v_values(complex_, s, s)[0]


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


def _servable(expr: KnotExpression, values: list[int]) -> VSequence | None:
    """`values` if they have the shape `v_sequence` returns for `expr`: V_0..V_g
    ending in V_g = 0 for genus g, nothing for the unknot.  Else None (recompute)."""
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


def _homology_sequence(expr: KnotExpression) -> VSequence:
    """V_0..V_g of an expression other than the unknot, off one sweep of its complex, checked
    for V_g = 0 and monotonicity."""
    values = tuple(_v_values(complex_of(expr), 0, expr.genus))
    if values[-1]:
        raise InternalCheckError(f"tower normalisation broken: V_{expr.genus} = {values[-1]}, not 0")
    try:
        return VSequence(values)
    except ValidationError as exc:
        raise InternalCheckError(f"computed V-values violate monotonicity: {exc}") from exc


def v_sequence(expr: KnotExpression | TorusKnot) -> VSequence:
    """V-sequence of an expression.

    Single positive torus knots take the semigroup fast path; everything else
    goes through the chain complex, every sublevel from one sweep, and must
    end in V_g = 0.  Where both paths apply they are compared (small genus).
    A servable entry of the current `v_memo` is returned as it is, and a
    computed sequence is stored there.
    """
    expr = as_expression(expr)
    memo = _memo.get()
    values = None if memo is None else memo.get(str(expr))
    seq = None if values is None else _servable(expr, values)
    if seq is not None:
        return seq
    knot = expr.single_positive_torus_knot()
    if knot is not None:
        seq = v_sequence_torus(knot)
        if knot.genus <= 12:
            for s, hom in enumerate(_homology_sequence(expr)):
                if hom != seq.at(s):
                    raise InternalCheckError(
                        f"path disagreement on {knot} at level {s}: "
                        f"semigroup {seq.at(s)}, homology {hom}"
                    )
    elif expr.is_unknot:
        seq = VSequence(())
    else:
        seq = _homology_sequence(expr)
    if memo is not None:
        memo[str(expr)] = list(seq.values)
    return seq


def v_at(expr: KnotExpression | TorusKnot, s: int) -> int:
    """V_s of an expression: `v_sequence(expr).at(s)`, with every check and memo entry it makes.

    The index is checked before anything is computed.
    """
    expr = as_expression(expr)
    exact_int(s, "V-sequence index must be a non-negative integer", 0)
    return v_sequence(expr).at(s)
