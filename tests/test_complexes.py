"""Chain-complex oracle: staircases, duals, tensors, and V-extraction."""

import random
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from knotwind import (
    BifilteredComplex,
    InternalCheckError,
    KnotExpression,
    TorusKnot,
    TruncatedComplex,
    ValidationError,
    VSequence,
    complex_of,
    dualize,
    parse_knot_expr,
    staircase,
    tensor,
    v_at,
    v_invariant,
    v_memo,
    v_route,
    v_sequence,
    v_sequence_torus,
)

TREFOIL = TorusKnot(2, 3)


def assert_laws_directly(chain):
    """Re-verify the grading and filtration laws without trusting the constructor."""
    for (k, l), n in chain.differential.items():
        mk, ak = chain.generators[k]
        ml, al = chain.generators[l]
        assert ml - 2 * n == mk - 1, (k, l)
        assert al - n <= ak, (k, l)


def assert_square_zero_matrix(chain, order=3):
    """Independent square-zero check: explicit truncated boundary matrix, built
    from `differential`."""
    basis = [(g, a) for g in range(chain.n_generators) for a in range(order)]
    index = {e: i for i, e in enumerate(basis)}
    boundary = dict.fromkeys(basis, 0)
    for (k, l), n in chain.differential.items():
        for a in range(order - n):
            boundary[(k, a)] ^= 1 << index[(l, a + n)]
    rows = [boundary[e] for e in basis]
    for row in rows:
        acc = 0
        r = row
        while r:
            i = (r & -r).bit_length() - 1
            r &= r - 1
            acc ^= rows[i]
        assert acc == 0


def test_staircase_trefoil_matches_known_shape():
    chain = staircase(TREFOIL)
    assert chain.generators == ((0, 1), (-1, 0), (-2, -1))
    assert chain.differential == {(1, 0): 1, (1, 2): 0}


def test_staircase_t34_has_five_generators():
    chain = staircase(TorusKnot(3, 4))
    assert chain.n_generators == 5
    assert [a for _, a in chain.generators] == [3, 2, 0, -2, -3]


def test_staircase_alexander_extremes_are_genus():
    for p, q in [(2, 5), (3, 5), (4, 9), (6, 7)]:
        knot = TorusKnot(p, q)
        chain = staircase(knot)
        alexanders = [a for _, a in chain.generators]
        assert max(alexanders) == knot.genus
        assert min(alexanders) == -knot.genus
        assert_laws_directly(chain)


def test_staircase_generator_count_is_odd_and_maslov_descends():
    for p, q in [(2, 3), (3, 4), (5, 7), (4, 11)]:
        chain = staircase(TorusKnot(p, q))
        assert chain.n_generators % 2 == 1
        maslovs = [m for m, _ in chain.generators]
        assert maslovs[0] == 0
        assert maslovs[-1] == -2 * TorusKnot(p, q).genus
        assert all(maslovs[i] > maslovs[i + 1] for i in range(len(maslovs) - 1))


def test_complex_validation_rejects_broken_laws():
    with pytest.raises(ValidationError, match="grading"):
        BifilteredComplex(((0, 1), (-1, 0)), {(1, 0): 0})
    with pytest.raises(ValidationError, match="filtration"):
        BifilteredComplex(((0, 3), (-1, 0)), {(1, 0): 1})
    with pytest.raises(ValidationError, match="square"):
        # b -> a and c -> b chain whose composite survives
        BifilteredComplex(((0, 1), (-1, 0), (-2, -1)), {(1, 0): 1, (2, 1): 1})
    with pytest.raises(ValidationError, match="out of range"):
        BifilteredComplex(((0, 0),), {(0, 3): 0})


def test_dualize_is_an_involution():
    for p, q in [(2, 3), (3, 4), (4, 5)]:
        chain = staircase(TorusKnot(p, q))
        assert dualize(dualize(chain)) == chain


def test_dualize_v_examples():
    assert v_invariant(dualize(staircase(TREFOIL)), 0) == 0
    assert v_invariant(staircase(TorusKnot(2, 9)), 0) == 2
    assert v_invariant(dualize(staircase(TorusKnot(2, 9))), 0) == 0


def test_tensor_rank_and_grading_additivity():
    a = staircase(TREFOIL)
    b = staircase(TREFOIL)
    prod = tensor(a, b)
    assert prod.n_generators == 9
    alexanders = [al for _, al in prod.generators]
    assert max(alexanders) == 2 and min(alexanders) == -2
    assert_laws_directly(prod)
    assert_square_zero_matrix(prod)


def test_tensor_v_matches_diamond_small():
    prod = tensor(staircase(TREFOIL), staircase(TREFOIL))
    assert v_invariant(prod, 0) == v_sequence_torus(TorusKnot(2, 5)).at(0) == 1


def test_complex_of_unknot_and_mirrors():
    unknot = complex_of(KnotExpression.unknot())
    assert unknot.generators == ((0, 0),)
    assert unknot.differential == {}
    assert v_invariant(unknot, 0) == 0
    assert v_invariant(unknot, 5) == 0
    mixed = complex_of(parse_knot_expr("T(2,3) # -T(2,3)"))
    assert mixed.n_generators == 9
    alexanders = [a for _, a in mixed.generators]
    assert max(alexanders) == 2 and min(alexanders) == -2
    assert complex_of(parse_knot_expr("-T(4,5)")) == dualize(staircase(TorusKnot(4, 5)))


def test_v_invariant_examples_and_validation():
    chain = staircase(TREFOIL)
    assert v_invariant(chain, 0) == 1
    assert v_invariant(chain, 1) == 0
    assert v_invariant(chain, 7) == 0
    with pytest.raises(ValidationError):
        v_invariant(chain, -1)


def test_oracle_equivalence_small_grid():
    for p in range(2, 9):
        for q in range(p + 1, 10):
            if gcd(p, q) != 1:
                continue
            knot = TorusKnot(p, q)
            seq = v_sequence_torus(knot)
            chain = staircase(knot)
            for s in range(knot.genus + 1):
                assert v_invariant(chain, s) == seq.at(s), (p, q, s)


def test_mirror_duality_property_on_staircases():
    for p, q in [(2, 3), (2, 7), (3, 4), (3, 5), (4, 5)]:
        chain = staircase(TorusKnot(p, q))
        dual = dualize(chain)
        for s in range(TorusKnot(p, q).genus + 1):
            assert v_invariant(chain, s) == 0 or v_invariant(dual, s) == 0


def test_v_sequence_dispatch_and_examples():
    assert v_sequence(parse_knot_expr("T(6,7)")).at(0) == 6
    assert v_sequence(parse_knot_expr("T(3,7) # T(3,7)")).at(0) == 4
    assert list(v_sequence(parse_knot_expr("-T(6,7)"))) == [0] * 16
    assert list(v_sequence(parse_knot_expr("U"))) == []
    assert v_route(parse_knot_expr("T(6,7)"))[0] == "semigroup count"
    assert v_route(parse_knot_expr("-T(6,7)"))[0] == "staircase homology"
    assert v_route(parse_knot_expr("U"))[0] == "unknot"


def test_v_at_torus_knot_is_cross_checked(monkeypatch):
    import knotwind.complexes as cx

    monkeypatch.setattr(cx, "v_sequence_torus", lambda knot: VSequence((2, 1, 0)))
    with pytest.raises(InternalCheckError, match="path disagreement"):
        v_at(TorusKnot(2, 5), 0)


def test_v_at_fills_the_memo_off_the_homology_route():
    with v_memo({}) as memo:
        assert v_at(TorusKnot(2, 5), 0) == 1
        assert v_at(KnotExpression.unknot(), 0) == 0
        assert v_at(parse_knot_expr("-T(2,5)"), 0) == 0
    assert memo == {"T(2,5)": [1, 1, 0], "U": []}


def test_memo_entries_nonzero_at_the_genus_are_recomputed():
    unknot = KnotExpression.unknot()
    with v_memo({"U": [1], "T(2,3)": [1, 1]}) as memo:
        assert v_at(unknot, 0) == 0
        assert v_at(TREFOIL, 1) == 0
        assert list(v_sequence(unknot)) == []
    assert memo == {"U": [], "T(2,3)": [1, 0]}


ROUTE_TORUS = [(2, 3), (2, 5), (3, 4), (2, 7), (3, 5)]
small_sums = st.lists(
    st.tuples(st.sampled_from(ROUTE_TORUS), st.sampled_from((1, -1))), max_size=3
).map(
    lambda summands: KnotExpression(tuple((TorusKnot(p, q), sign) for (p, q), sign in summands))
).filter(lambda expr: expr.genus <= 8)


@settings(max_examples=25, deadline=None)
@given(small_sums)
def test_v_at_agrees_with_v_sequence_on_every_route(expr):
    seq = v_sequence(expr)
    levels = range(expr.genus + 2)
    expected = [seq.at(s) for s in levels]
    assert [v_at(expr, s) for s in levels] == expected
    for entries in ({}, {str(expr): list(seq.values)}):
        with v_memo(entries):
            assert [v_at(expr, s) for s in levels] == expected


def test_diamond_consistency_grid():
    for n in (2, 3, 4, 5):
        for a in (1, 2):
            for b in (1, 2):
                if (a + b) * n + 1 > 21:
                    continue
                summed = KnotExpression.torus(n, a * n + 1) + KnotExpression.torus(n, b * n + 1)
                reduced = TorusKnot(n, (a + b) * n + 1)
                assert list(v_sequence(summed)) == list(v_sequence_torus(reduced)), (n, a, b)


def random_expression(rng, max_summands=3, genus_cap=30, gen_cap=2500):
    """Random valid expression with bounded genus and staircase size."""
    small = [(2, 3), (2, 5), (2, 7), (3, 4), (3, 5), (4, 5), (2, 9), (3, 7), (5, 6), (2, 11), (3, 8)]
    while True:
        count = rng.randint(1, max_summands)
        picks = [rng.choice(small) for _ in range(count)]
        expr = KnotExpression(
            tuple((TorusKnot(p, q), rng.choice((1, -1))) for p, q in picks)
        )
        if expr.genus > genus_cap:
            continue
        size = 1
        for knot, _ in expr.summands:
            size *= staircase(knot).n_generators
        if size <= gen_cap:
            return expr


def test_fuzzed_complexes_satisfy_laws():
    rng = random.Random(20240817)
    for trial in range(60):
        expr = random_expression(rng)
        chain = complex_of(expr)  # construction re-checks laws and square-zero
        assert_laws_directly(chain)
        expected = 1
        for knot, _ in expr.summands:
            expected *= staircase(knot).n_generators
        assert chain.n_generators == expected
        if trial % 10 == 0:
            assert_square_zero_matrix(chain)


def test_mixed_sums_have_valid_v_sequences():
    rng = random.Random(7)
    for _ in range(6):
        expr = random_expression(rng, max_summands=2, genus_cap=10)
        seq = v_sequence(expr)  # VSequence constructor enforces monotone steps
        assert seq.at(expr.genus) == 0


def test_truncated_complex_dimension():
    chain = staircase(TREFOIL)
    trunc = TruncatedComplex(chain, 5)
    assert trunc.dimension == 5 * 3
    floored = TruncatedComplex(chain, 5, (1, 0, 0))
    assert floored.dimension == 14
    with pytest.raises(ValidationError):
        TruncatedComplex(chain, 0)
    with pytest.raises(ValidationError, match="subcomplex"):
        TruncatedComplex(chain, 5, (0, 0, 2))


def test_parallel_evaluation_across_levels_is_deterministic():
    from concurrent.futures import ThreadPoolExecutor

    chain = complex_of(parse_knot_expr("T(3,4) # -T(2,5)"))
    levels = list(range(6))
    serial = [v_invariant(chain, s) for s in levels]
    with ThreadPoolExecutor(max_workers=4) as pool:
        threaded = list(pool.map(lambda s: v_invariant(chain, s), levels))
    assert threaded == serial


def test_truncation_guards_raise_instead_of_returning(monkeypatch):
    import knotwind.complexes as cx
    from knotwind import InternalCheckError, TruncationInstabilityError

    chain = staircase(TorusKnot(2, 9))
    monkeypatch.setattr(cx, "_truncation_order", lambda _: 7)
    with pytest.raises(TruncationInstabilityError, match="larger truncation"):
        v_invariant(chain, 0)
    monkeypatch.setattr(cx, "_truncation_order", lambda _: 4)
    with pytest.raises(InternalCheckError):
        v_invariant(chain, 0)


def test_validate_runs_tower_normalisation():
    staircase(TorusKnot(3, 5)).validate()
    dualize(staircase(TorusKnot(3, 5))).validate()
    shifted = BifilteredComplex(((2, 0),), {})
    with pytest.raises(ValidationError, match="normalisation"):
        shifted.validate()


def brute_tower_top(chain, floors, order, window):
    """Tower top by enumeration: every cycle of each grading is tested against
    every boundary at m - 2*window, with the matrix built from `differential`."""
    basis = [(g, a) for g in range(chain.n_generators) for a in range(floors[g], order)]
    bit = {e: 1 << i for i, e in enumerate(basis)}
    boundary = dict.fromkeys(basis, 0)
    for (k, l), n in chain.differential.items():
        for a in range(floors[k], order - n):
            boundary[(k, a)] ^= bit[(l, a + n)]
    buckets = {}
    for g, a in basis:
        buckets.setdefault(chain.generators[g][0] - 2 * a, []).append((g, a))

    def span(pairs):
        combos = [(0, 0)]
        for d, u in pairs:
            combos += [(cd ^ d, cu ^ u) for cd, cu in combos]
        return combos

    for m in sorted(buckets, reverse=True):
        hit = m - 2 * window + 1
        boundaries = {d for d, _ in span((boundary[e], 0) for e in buckets.get(hit, ()))}
        pairs = [
            (boundary[(g, a)], bit[(g, a + window)] if a + window < order else 0)
            for g, a in buckets[m]
        ]
        if any(d == 0 and u not in boundaries for d, u in span(pairs)):
            return m
    return None


ORACLE_TORUS = [(2, 3), (2, 5), (2, 7), (3, 4), (3, 5), (4, 5)]
ORACLE_COMPLEXES = {
    e: complex_of(parse_knot_expr(e))
    for e in [
        *(f"{sign}T({p},{q})" for sign in ("", "-") for p, q in ORACLE_TORUS),
        "T(2,3) # T(2,3)",
        "T(2,3) # -T(2,3)",
        "-T(2,3) # -T(2,3)",
    ]
}


def random_subcomplex_floors(chain, rng, high):
    """Random floors in [0, high], lowered along arrows until they span a subcomplex."""
    floors = [rng.randint(0, high) for _ in chain.generators]
    changed = True
    while changed:
        changed = False
        for (k, l), n in chain.differential.items():
            if floors[l] > floors[k] + n:
                floors[l], changed = floors[k] + n, True
    return tuple(floors)


def sublevel_complex(chain, floors):
    """A_s^- uncancelled, in its basis h_g = U^floors[g] * g: generators (M - 2f, 0),
    arrow exponents f(k) + n - f(l)."""
    return BifilteredComplex(
        tuple((m - 2 * f, 0) for (m, _), f in zip(chain.generators, floors)),
        {(k, l): floors[k] + n - floors[l] for (k, l), n in chain.differential.items()},
    )


@pytest.mark.parametrize("name", sorted(ORACLE_COMPLEXES))
def test_tower_top_matches_brute_force(name):
    from knotwind.complexes import _truncated_tower_top, _truncation_order, reduce_sublevel

    chain = ORACLE_COMPLEXES[name]
    assert chain.n_generators <= 9
    window = chain.alexander_radius + 1
    order = _truncation_order(chain)
    for s in range(chain.alexander_radius + 1):
        floors = tuple(max(0, a - s) for _, a in chain.generators)
        reduced = reduce_sublevel(chain, floors)
        assert all(e > window for e in reduced.differential.values()), s
        for n in (order, order + 1):
            got = _truncated_tower_top(chain, floors, n, window)
            assert got == brute_tower_top(chain, floors, n, window), (s, n)
            assert got is not None
            assert _truncated_tower_top(reduced, (0,) * reduced.n_generators, n, window) == got, (s, n)
        # Cancelling arrows of exponent <= window keeps the U^window-surviving
        # classes of A_s^- / U^n at every order n, not only at N and N+1.
        sublevel = sublevel_complex(chain, floors)
        zeros = (0,) * sublevel.n_generators
        for n in range(1, order + 2):
            assert _truncated_tower_top(reduced, (0,) * reduced.n_generators, n, window) == (
                brute_tower_top(sublevel, zeros, n, window)
            ), (s, n)
    rng = random.Random(name)
    for _ in range(12):
        floors = random_subcomplex_floors(chain, rng, order + 1)
        for n in (order, order + 1):
            got = _truncated_tower_top(chain, floors, n, window)
            assert got == brute_tower_top(chain, floors, n, window), (floors, n)


def test_reduction_keeps_arrows_above_the_window():
    from knotwind.complexes import _truncated_tower_top, reduce_sublevel

    # U^2 * g2 bounds: g2 is U-torsion of order 2, above the window 1, so it
    # counts as surviving and its arrow must not be cancelled.
    chain = BifilteredComplex(((0, 0), (1, 0), (4, 0)), {(1, 2): 2})
    window = chain.alexander_radius + 1
    assert window == 1
    reduced = reduce_sublevel(chain, (0, 0, 0))
    assert reduced.differential == {(1, 2): 2}
    for n in (3, 4, 5):
        assert _truncated_tower_top(reduced, (0, 0, 0), n, window) == 4, n
        assert brute_tower_top(chain, (0, 0, 0), n, window) == 4, n


@pytest.mark.parametrize("text", ["T(3,7) # -T(2,11)", "-T(3,7) # -T(2,5)", "T(2,11) # -T(2,11)"])
def test_reduced_search_matches_sublevel_complex_above_cross_check_size(text):
    from knotwind.complexes import (
        _CROSS_CHECK_GENERATORS,
        _guarded_tower_top,
        _stable_tower_top,
        _truncation_order,
    )

    chain = complex_of(parse_knot_expr(text))
    assert chain.n_generators > _CROSS_CHECK_GENERATORS
    order, window = _truncation_order(chain), chain.alexander_radius + 1
    for s in range(chain.alexander_radius + 1):
        floors = tuple(max(0, a - s) for _, a in chain.generators)
        sublevel = sublevel_complex(chain, floors)
        direct = _guarded_tower_top(sublevel, (0,) * sublevel.n_generators, order, window)
        assert _stable_tower_top(chain, floors) == direct, s


@settings(max_examples=25, deadline=None)
@given(small_sums)
def test_reduced_and_unreduced_tower_tops_agree(expr):
    from knotwind.complexes import _guarded_tower_top, _stable_tower_top, _truncation_order

    chain = complex_of(expr)
    order, window = _truncation_order(chain), chain.alexander_radius + 1
    for s in range(expr.genus + 1):
        floors = tuple(max(0, a - s) for _, a in chain.generators)
        assert _stable_tower_top(chain, floors) == _guarded_tower_top(chain, floors, order, window), s


@pytest.mark.parametrize(
    "text, head",
    [
        ("T(5,11) # -T(5,11)", []),
        ("T(4,9) # -T(3,7) # T(2,5)", [3, 3, 2, 2, 1, 1, 1, 1]),
        ("T(7,8) # -T(5,9)", [2, 2, 2, 1, 1, 1]),
    ],
)
def test_large_mixed_sums(text, head):
    expr = parse_knot_expr(text)
    assert list(v_sequence(expr)) == head + [0] * (expr.genus + 1 - len(head))
