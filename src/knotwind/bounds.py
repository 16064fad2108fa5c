"""Lower-bound combinators on the geometric winding number and shake genus.

Every bound is returned as a `BoundReport` carrying a provenance trail: an
ordered list of (name, value, anchor) triples in which the anchor states the
identity the value came from, so a report can be audited without rereading
the code.  Genus-type outputs are clamped at 0, with the unclamped value
preserved in the trail.  Parity refinement (restricting to even minima) is
applied only where the knot is null-homologous, where transverse
intersections with a generating 2-sphere come in cancelling pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .complexes import A_SEMIGROUP, A_TOWER, complex_of, v_at, v_invariant, v_route
from .errors import InternalCheckError, ValidationError, decimal_int, exact_int, exact_rational
from .knots import KnotExpression, TorusKnot, as_expression
from .semigroup import diamond_reduce, semigroup_from_pair
from .surgery import CorrectionTable, dtw_zero

# Trail anchors: the identities the values are read off from.
A_DTW_ZERO = "dtw(S^3_0(K)) = -1/2 + 2 V_0(-K)"
A_WINDING = "ceil(gw/4) >= V_0(J) + V_0(-J)"
A_RHS_MAX = "(1/2) max_t { dtw(Y,t) + dtw(-Y,t) + 1 }"
A_MULTI = "gw >= 2 max_i { dtw(Y,t_i) + dtw(-Y,t_i) + 1 } - 2m"
A_PARITY = "a null-homologous knot meets a generating 2-sphere an even number of times"
A_CEIL_ARITH = "ceil(gw/4) >= b forces gw >= 4b - 3"
A_CLAMP = "a geometric count is never negative"
A_SHAKE_DTW = "gsh0(K) >= dtw(S^3_0(K)) - 1/2"
A_SHAKE_V = "gsh0(K) >= 2 max{V_0(K), V_0(-K)} - 1"
A_DIAMOND = "ms(T(n,a*n+1)) ++ ms(T(n,b*n+1)) = ms(T(n,(a+b)*n+1))"
A_KN_DATA = "J = T(4n+2,4n+3), J' = T(2n+1,4n+3) # T(2n+1,4n+3), m = (4n+2)(4n+3)"
A_KN_DTW_Y0 = "dtw(Y_0,t_0) = -2 V_0(J') + (m-3)/4"
A_KN_DTW_NEGY0 = "dtw(-Y_0,t_0) = 2 V_0(J) - (m+1)/4"
A_KN_CHAIN = "2 V_0(J) - 2 V_0(J') = 2n+2"
A_KN_UPPER = "an explicit 2-sphere meets K_n in 4n+2 points"
A_WH_UPPER = "the knotified Hopf link meets a generating 2-sphere twice: gw <= 2"
A_ESSENTIAL = "gw(K) >= 2 max_t { d(Y,t) - d(Y,t_op) }"
A_OPPOSITE = "t_op = t + (w^2/2) PD[mu]"
A_MIXED = "mixed-orientation sums carry no independent anchor"

# reproduce_kn compares V_0(J') with homology up to this genus of J': n = 2 gives 40, n = 3 gives 84.
_KN_CROSS_CHECK_GENUS = 50


@dataclass(frozen=True)
class TrailEntry:
    """One audited step: what was computed, its value, and the identity used."""

    name: str
    value: object
    anchor: str

    def __post_init__(self) -> None:
        if not isinstance(self.anchor, str) or not self.anchor:
            raise ValidationError(f"trail entry {self.name!r} needs a non-empty anchor")


@dataclass(frozen=True)
class BoundReport:
    """A value with its inputs, provenance trail and optional refinement; every
    CLI document is built from one, lists and dicts included."""

    value: Fraction | int | list | dict
    induced_minimum: int | None
    inputs: dict[str, object]
    trail: tuple[TrailEntry, ...]
    sharp: bool | None = None


def _even_minimum(bound: int) -> tuple[int, int]:
    """(any-parity minimum, even minimum) g with ceil(g/4) >= bound."""
    if bound <= 0:
        return 0, 0
    return 4 * bound - 3, 4 * bound - 2


def _v0_pair(expr: KnotExpression) -> tuple[int, int, str, str, tuple[TrailEntry, ...]]:
    """V_0(K), V_0(-K), the anchors of their routes, and the mixed-sum trail entry (if any)."""
    mirrored = expr.mirror()
    mixed = (TrailEntry("validation status", "mixed-orientation sum", A_MIXED),) if expr.is_mixed else ()
    return v_at(expr, 0), v_at(mirrored, 0), v_route(expr)[1], v_route(mirrored)[1], mixed


def winding_bound_via_zero_surgery(knot: KnotExpression | TorusKnot) -> BoundReport:
    """Winding bound for the knot whose +1-surgery is the 0-surgery on J.

    The bound value is B = V_0(J) + V_0(-J), a lower bound for ceil(gw/4);
    the induced minimum is the smallest even gw compatible with it.
    """
    expr = as_expression(knot)
    v0, v0m, anchor, anchor_m, mixed = _v0_pair(expr)
    bound = v0 + v0m
    dtw = dtw_zero(v0m)
    dtw_neg = dtw_zero(v0)
    if dtw + dtw_neg + 1 != 2 * bound:
        raise InternalCheckError(
            f"winding-bound routes disagree on {expr}: "
            f"dtw sum {dtw + dtw_neg + 1} != 2B = {2 * bound}"
        )
    pre, induced = _even_minimum(bound)
    trail = (
        TrailEntry("V_0(J)", v0, anchor),
        TrailEntry("V_0(-J)", v0m, anchor_m),
        TrailEntry("dtw(S^3_0(J))", dtw, A_DTW_ZERO),
        TrailEntry("dtw(S^3_0(-J))", dtw_neg, A_DTW_ZERO),
        TrailEntry("B = V_0(J) + V_0(-J)", bound, A_WINDING),
        TrailEntry("gw >= (any parity)", pre, A_CEIL_ARITH),
        TrailEntry("gw >= (even)", induced, A_PARITY),
        *mixed,
    )
    return BoundReport(bound, induced, {"expr": str(expr)}, trail)


def correction_rhs(table_y: CorrectionTable, table_neg_y: CorrectionTable) -> Fraction:
    """(1/2) max_i { d(Y)[i] + d(-Y)[i] + 1 } over a matched pair of tables.

    Tables are paired by spin^c index i; conjugation symmetry of each table
    makes the pairing independent of the orientation convention.
    """
    if table_y.n != table_neg_y.n:
        raise ValidationError(
            f"correction tables have mismatched surgery coefficients {table_y.n} and {table_neg_y.n}"
        )
    best = max(table_y[i] + table_neg_y[i] + 1 for i in range(table_y.n))
    return Fraction(best) / 2


def multi_sphere_bound(
    table_y: CorrectionTable, table_neg_y: CorrectionTable, m: int
) -> BoundReport:
    """Winding bound for null-homologous knots in a connected sum of m copies of S^2 x S^1."""
    exact_int(m, "sphere count m must be a positive integer", 1)
    best = 2 * correction_rhs(table_y, table_neg_y)  # max_i { ... + 1 }
    pre = 2 * best - 2 * m
    value = pre if pre > 0 else Fraction(0)
    trail = (
        TrailEntry("max_i { dtw(Y,t_i) + dtw(-Y,t_i) + 1 }", best, A_MULTI),
        TrailEntry("gw >= (unclamped)", pre, A_MULTI),
        TrailEntry("gw >= (clamped)", value, A_CLAMP),
    )
    return BoundReport(value, None, {"n": table_y.n, "m": m}, trail)


@dataclass(frozen=True)
class EssentialInput:
    """d-invariant table on Z/w^2 for a knot in the even class w of S^2 x S^1."""

    w: int
    dtable: dict[int, Fraction]

    def __post_init__(self) -> None:
        what = "winding class w must be a positive even integer"
        if exact_int(self.w, what, 2) % 2:
            raise ValidationError(f"{what}, got {self.w!r}")
        table = {}
        for k, v in self.dtable.items():
            read = decimal_int if isinstance(k, str) else exact_int  # JSON keys are strings
            residue = read(k, lambda: f"d-table key {k!r} is not an integer residue")
            if residue in table:
                raise ValidationError(f"d-table key {k!r} names residue {residue} a second time")
            table[residue] = exact_rational(
                v, lambda: f"d-table value for residue {k!r} must be an exact rational, got {v!r}"
            )
        object.__setattr__(self, "dtable", table)
        size = self.w * self.w
        # Distinct integers cover 0..size - 1 iff there are size of them, all in range.
        if len(table) != size or not all(0 <= residue < size for residue in table):
            raise ValidationError(
                f"d-table must cover exactly the residues 0..{size - 1} mod w^2"
            )


def essential_report(data: EssentialInput) -> BoundReport:
    """gw(K) >= 2 max_k { d[k] - d[k + w^2/2] } for essential even classes.

    The opposite spin^c structure shifts the residue by w^2/2; the maximum is
    invariant under adding a constant to the whole table, and no parity
    refinement applies in the essential case.  The trail names the first
    maximising residue.
    """
    size = data.w * data.w
    half = size // 2
    gaps = [data.dtable[k] - data.dtable[(k + half) % size] for k in range(size)]
    best = gaps.index(max(gaps))
    trail = (
        TrailEntry("opposite involution", f"k -> k + {half} (mod {size})", A_OPPOSITE),
        TrailEntry("maximising residue", best, A_ESSENTIAL),
        TrailEntry("d[k] - d[k_op]", gaps[best], A_ESSENTIAL),
    )
    return BoundReport(2 * gaps[best], None, {"w": data.w}, trail)


def shake_bound(knot: KnotExpression | TorusKnot) -> BoundReport:
    """Lower bound for the 0-shake genus, computed by two routes that must agree."""
    expr = as_expression(knot)
    v0, v0m, anchor, anchor_m, mixed = _v0_pair(expr)
    via_v = 2 * max(v0, v0m) - 1
    via_dtw = max(dtw_zero(v0m), dtw_zero(v0)) - Fraction(1, 2)
    if via_dtw != via_v:
        raise InternalCheckError(
            f"shake-bound routes disagree on {expr}: dtw form {via_dtw}, V form {via_v}"
        )
    value = max(0, via_v)
    trail = (
        TrailEntry("V_0(K)", v0, anchor),
        TrailEntry("V_0(-K)", v0m, anchor_m),
        TrailEntry("gsh0 >= (dtw form)", via_dtw, A_SHAKE_DTW),
        TrailEntry("gsh0 >= (V form)", via_v, A_SHAKE_V),
        TrailEntry("gsh0 >= (clamped)", value, A_CLAMP),
        *mixed,
    )
    return BoundReport(value, None, {"expr": str(expr)}, trail)


def reproduce_kn(n: int) -> BoundReport:
    """Run the whole K_n bound chain and assert every intermediate identity.

    J = T(4n+2,4n+3) and J' = T(2n+1,4n+3) # T(2n+1,4n+3) are the two
    blow-down knots of the family; m = (4n+2)(4n+3) is the surgery slope.
    V_0(J') is taken through the multiplicity-sequence reduction to
    T(2n+1,8n+5), cross-checked against the chain complex when the genus of
    J' is at most `_KN_CROSS_CHECK_GENUS` (n <= 2); the complex is built and
    searched every time, never read from the V-memo.  The chain
    dtw(Y_0) + dtw(-Y_0) + 1 must equal 2n+2 exactly, giving the even
    induced minimum 4n+2, sharp against the explicit sphere with 4n+2
    intersections.
    """
    exact_int(n, "family index must be a positive integer", 1)
    j_knot = TorusKnot(4 * n + 2, 4 * n + 3)
    jp_expr = KnotExpression.torus(2 * n + 1, 4 * n + 3) + KnotExpression.torus(2 * n + 1, 4 * n + 3)
    m = (4 * n + 2) * (4 * n + 3)
    v0_j = semigroup_from_pair(j_knot.p, j_knot.q).count_below(j_knot.genus)  # V_0 counts Gamma below g
    reduced = diamond_reduce(jp_expr)
    if reduced != TorusKnot(2 * n + 1, 8 * n + 5):
        raise InternalCheckError(f"multiplicity reduction of {jp_expr} returned {reduced}")
    v0_jp = semigroup_from_pair(reduced.p, reduced.q).count_below(reduced.genus)
    trail = [
        TrailEntry("J", str(j_knot), A_KN_DATA),
        TrailEntry("J'", str(jp_expr), A_KN_DATA),
        TrailEntry("m", m, A_KN_DATA),
        TrailEntry("V_0(J)", v0_j, A_SEMIGROUP),
        TrailEntry("reduction of J'", str(reduced), A_DIAMOND),
        TrailEntry("V_0(J')", v0_jp, A_SEMIGROUP),
    ]
    if jp_expr.genus <= _KN_CROSS_CHECK_GENUS:
        hom = v_invariant(complex_of(jp_expr), 0)
        if hom != v0_jp:
            raise InternalCheckError(
                f"K_{n} cross-check failed: homology V_0(J') = {hom}, "
                f"semigroup V_0({reduced}) = {v0_jp}"
            )
        trail.append(TrailEntry("V_0(J') homology cross-check", hom, A_TOWER))
    dtw_y0 = -2 * v0_jp + Fraction(m - 3, 4)
    dtw_neg_y0 = 2 * v0_j - Fraction(m + 1, 4)
    chain = dtw_y0 + dtw_neg_y0 + 1
    if chain != 2 * n + 2:
        raise InternalCheckError(
            f"K_{n} chain value {chain} differs from 2n+2 = {2 * n + 2}; "
            f"dtw(Y_0) = {dtw_y0}, dtw(-Y_0) = {dtw_neg_y0}"
        )
    rhs = correction_rhs(
        CorrectionTable(1, {0: dtw_y0}), CorrectionTable(1, {0: dtw_neg_y0})
    )
    ceil_bound = int(rhs)  # = n+1, integral by the chain identity
    pre, induced = _even_minimum(ceil_bound)
    upper = 4 * n + 2
    sharp = induced == upper
    trail += [
        TrailEntry("dtw(Y_0,t_0)", dtw_y0, A_KN_DTW_Y0),
        TrailEntry("dtw(-Y_0,t_0)", dtw_neg_y0, A_KN_DTW_NEGY0),
        TrailEntry("2n+2", chain, A_KN_CHAIN),
        TrailEntry("lower bound for ceil(gw/4)", rhs, A_RHS_MAX),
        TrailEntry("gw >= (any parity)", pre, A_CEIL_ARITH),
        TrailEntry("gw >= (even)", induced, A_PARITY),
        TrailEntry("upper bound", upper, A_KN_UPPER),
        TrailEntry("sharp", sharp, A_KN_UPPER),
    ]
    return BoundReport(chain, induced, {"n": n}, tuple(trail), sharp=sharp)


def reproduce_whitehead() -> BoundReport:
    """Bound chain for the 0-surgery companion of the trefoil: gw >= 2, sharp at 2."""
    base = winding_bound_via_zero_surgery(KnotExpression.torus(2, 3))
    upper = 2
    sharp = base.induced_minimum == upper
    trail = base.trail + (
        TrailEntry("upper bound", upper, A_WH_UPPER),
        TrailEntry("sharp", sharp, A_WH_UPPER),
    )
    return BoundReport(base.value, base.induced_minimum, {"expr": "T(2,3)"}, trail, sharp=sharp)
