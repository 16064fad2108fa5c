"""Chain-complex oracle: staircases, duals, tensors, and V-extraction."""

import json
import random
from functools import reduce
from math import gcd

import pytest
from hypothesis import assume, given
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
    correction_table,
    d_positive_surgery,
    dualize,
    parse_knot_expr,
    staircase,
    tensor,
    v_at,
    v_invariant,
    v_memo,
    v_sequence,
    v_sequence_torus,
)
from knotwind.cli import run
from knotwind.complexes import A_SEMIGROUP, A_TOWER

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
    assert v_sequence(parse_knot_expr("T(6,7)")).route == "semigroup count"
    assert v_sequence(parse_knot_expr("-T(6,7)")).route == "staircase homology"
    assert v_sequence(parse_knot_expr("U")).route == "unknot"


def test_v_at_torus_knot_is_cross_checked(monkeypatch):
    import knotwind.complexes as cx

    monkeypatch.setattr(cx, "v_sequence_torus", lambda knot: VSequence((2, 1, 0)))
    with pytest.raises(InternalCheckError, match="path disagreement"):
        v_at(TorusKnot(2, 5), 0)


def test_v_at_fills_the_memo():
    with v_memo({}) as memo:
        assert v_at(TorusKnot(2, 5), 0) == 1
        assert v_at(KnotExpression.unknot(), 0) == 0
        assert v_at(parse_knot_expr("-T(2,5)"), 0) == 0
    assert memo == {"T(2,5)": [1, 1, 0], "U": [], "-T(2,5)": [0, 0, 0]}


@pytest.mark.parametrize("text, route, anchor", [
    ("T(2,3)", "semigroup count", A_SEMIGROUP),
    ("T(5,9)", "semigroup count", A_SEMIGROUP),  # genus 16: no homology comparison
    ("U", "unknot", A_TOWER),
    ("T(2,5) # -T(2,3)", "staircase homology", A_TOWER),
])
def test_v_sequence_names_its_route_computed_and_served_from_the_memo(text, route, anchor):
    expr = parse_knot_expr(text)
    computed = v_sequence(expr)
    # A memo entry of the right shape is served as it is, wrong values included, so
    # the zeros below can only come from the memo.
    with v_memo({str(expr): [0] * len(computed)}) as memo:
        served = v_sequence(expr)
    assert list(served) == memo[str(expr)] == [0] * len(computed)
    assert served == VSequence(served.values, "another route", "another anchor")
    for seq in (computed, served):
        assert (seq.route, seq.anchor) == (route, anchor)


def test_memo_entries_nonzero_at_the_genus_are_recomputed():
    unknot = KnotExpression.unknot()
    with v_memo({"U": [1], "T(2,3)": [1, 1]}) as memo:
        assert v_at(unknot, 0) == 0
        assert v_at(TREFOIL, 1) == 0
        assert list(v_sequence(unknot)) == []
    assert memo == {"U": [], "T(2,3)": [1, 0]}


@pytest.mark.parametrize(
    "text, entry",
    [
        ("T(2,3) # T(2,3)", [1]),
        ("T(2,3) # -T(2,5)", [0]),
        ("T(2,5)", [1, 1, 0, 0]),
        ("T(2,3) # -T(2,5)", [2, 0, 0, 0]),
        ("T(2,5)", [1.0, 1, 0]),
        ("T(2,5)", 5),
    ],
    ids=["short positive sum", "short mixed sum", "long torus knot", "step of two", "float", "not a list"],
)
def test_memo_entries_without_the_v_sequence_shape_are_recomputed(text, entry):
    # Too short or too long, a VSequence that does not construct (ValidationError) and
    # values that are not a sequence (TypeError): each is computed afresh and replaced.
    expr = parse_knot_expr(text)
    values = list(v_sequence(expr))
    reads = (lambda: list(v_sequence(expr)), lambda: correction_table(expr, 3).entries)
    for read, expected in zip(reads, (values, correction_table(expr, 3).entries)):
        with v_memo({"T(2,3)": [1, 0], text: entry}) as memo:
            assert read() == expected
        assert memo == {"T(2,3)": [1, 0], text: values}


ROUTE_TORUS = [(2, 3), (2, 5), (3, 4), (2, 7), (3, 5)]
small_sums = st.lists(
    st.tuples(st.sampled_from(ROUTE_TORUS), st.sampled_from((1, -1))), max_size=3
).map(
    lambda summands: KnotExpression(tuple((TorusKnot(p, q), sign) for (p, q), sign in summands))
).filter(lambda expr: expr.genus <= 8)


@given(small_sums)
def test_v_at_agrees_with_v_sequence_on_every_route(expr):
    seq = v_sequence(expr)
    levels = range(expr.genus + 2)
    expected = [seq.at(s) for s in levels]
    assert [v_at(expr, s) for s in levels] == expected
    for entries in ({}, {str(expr): list(seq.values)}):
        with v_memo(entries):
            assert [v_at(expr, s) for s in levels] == expected


@given(small_sums)
def test_correction_table_matches_d_positive_surgery_at_every_label(expr):
    with v_memo({}):
        for n in range(1, 2 * expr.genus + 4):
            table = correction_table(expr, n)
            assert [table[i] for i in range(n)] == [d_positive_surgery(expr, n, i) for i in range(n)], n


@given(small_sums)
def test_complex_of_is_the_fold_of_the_public_builders(expr):
    chain = complex_of(expr)
    parts = [staircase(knot) if sign > 0 else dualize(staircase(knot)) for knot, sign in expr.summands]
    folded = reduce(tensor, parts) if parts else BifilteredComplex(((0, 0),))
    assert chain.generators == folded.generators
    assert list(chain.differential.items()) == list(folded.differential.items())


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


def test_tower_normalisation_of_staircases_and_duals():
    assert staircase(TorusKnot(3, 5)).tower_top() == 0
    assert dualize(staircase(TorusKnot(3, 5))).tower_top() == 0
    assert BifilteredComplex(((2, 0),), {}).tower_top() == 2


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


def sublevel_complex(chain, floors):
    """A_s^- uncancelled, in its basis h_g = U^floors[g] * g: generators (M - 2f, 0),
    arrow exponents f(k) + n - f(l)."""
    return BifilteredComplex(
        tuple((m - 2 * f, 0) for (m, _), f in zip(chain.generators, floors)),
        {(k, l): floors[k] + n - floors[l] for (k, l), n in chain.differential.items()},
    )


def searched_top(chain, s, order, window):
    """Level s searched alone and unreduced at orders N and N+1; instability raises."""
    from knotwind.complexes import _stable_top, _truncated_tower_tops

    first, second = (_truncated_tower_tops(chain, s, s, n, window)[0] for n in (order, order + 1))
    return _stable_top(first, second, order)


@pytest.mark.parametrize("name", sorted(ORACLE_COMPLEXES))
def test_tower_top_matches_brute_force(name):
    from knotwind.complexes import _reduced_sublevels, _tower_tops, _truncated_tower_tops, _truncation_order

    chain = ORACLE_COMPLEXES[name]
    assert chain.n_generators <= 9
    window = chain.alexander_radius + 1
    order = _truncation_order(chain)
    levels = range(chain.alexander_radius + 1)
    reads = dict(_reduced_sublevels(chain, levels[0], levels[-1]))  # read in full: every level reduced
    assert sorted(reads) == list(levels)
    tops = _tower_tops(chain, levels[0], levels[-1])
    for s, survivors in reads.items():
        (read,) = survivors.values()
        assert tops[s] == read, s  # sandwiched levels included
        floors = tuple(max(0, a - s) for _, a in chain.generators)
        for n in (order, order + 1):
            assert _truncated_tower_tops(chain, s, s, n, window) == [read], (s, n)
            assert brute_tower_top(chain, floors, n, window) == read, (s, n)
        # Cancelling arrows of exponent <= window keeps the U^window-surviving
        # classes of A_s^- / U^n at every order n, not only at N and N+1: the
        # one survivor has a class surviving U^window iff n > window.
        sublevel = sublevel_complex(chain, floors)
        zeros = (0,) * sublevel.n_generators
        for n in range(1, order + 2):
            assert brute_tower_top(sublevel, zeros, n, window) == (read if n > window else None), (s, n)


def assert_one_walk_matches_brute_force(chain, orders):
    """Each level of one walk equals the brute-force search of that level alone."""
    from knotwind.complexes import _truncated_tower_tops

    window = chain.alexander_radius + 1
    levels = range(chain.alexander_radius + 1)
    floors = [tuple(max(0, a - s) for _, a in chain.generators) for s in levels]
    for n in orders:
        walk = _truncated_tower_tops(chain, levels[0], levels[-1], n, window)
        assert walk == [brute_tower_top(chain, f, n, window) for f in floors], n


@given(small_sums)
def test_one_walk_matches_brute_force_at_every_level(expr):
    from knotwind.complexes import _CROSS_CHECK_GENERATORS, _truncation_order

    chain = complex_of(expr)
    assume(chain.n_generators <= _CROSS_CHECK_GENERATORS)  # the complexes the walk serves
    order = _truncation_order(chain)
    assert_one_walk_matches_brute_force(chain, (order, order + 1))


@given(small_sums)
def test_walk_over_a_level_range_matches_the_full_walk(expr):
    from knotwind.complexes import _CROSS_CHECK_GENERATORS, _truncated_tower_tops, _truncation_order

    chain = complex_of(expr)
    assume(chain.n_generators <= _CROSS_CHECK_GENERATORS)  # the complexes the walk serves
    order, window, g = _truncation_order(chain), chain.alexander_radius + 1, expr.genus
    for n in (order, order + 1):
        full = _truncated_tower_tops(chain, 0, g, n, window)
        for a in range(g + 1):
            for b in range(a, g + 1):
                assert _truncated_tower_tops(chain, a, b, n, window) == full[a : b + 1], (a, b, n)


@pytest.mark.parametrize("text", ["-T(5,6)", "-T(6,7)", "-T(4,7)", "T(2,3) # -T(2,3)"])
def test_one_walk_matches_brute_force_at_every_order(text):
    from knotwind.complexes import _truncation_order

    chain = complex_of(parse_knot_expr(text))
    assert_one_walk_matches_brute_force(chain, range(1, _truncation_order(chain) + 2))


def test_reduction_keeps_arrows_above_the_window():
    from knotwind.complexes import _reduced_sublevels, _truncated_tower_tops

    # U^2 * g2 bounds: g2 is U-torsion of order 2, above the window 1, so it
    # counts as surviving and its arrow must not be cancelled.
    chain = BifilteredComplex(((0, 0), (1, 0), (4, 0)), {(1, 2): 2})
    window = chain.alexander_radius + 1
    assert window == 1
    assert list(_reduced_sublevels(chain, 0, 0)) == [(0, {0: 0, 1: 1, 2: 4})]
    for n in (3, 4, 5):
        assert _truncated_tower_tops(chain, 0, 0, n, window) == [4], n
        assert brute_tower_top(chain, (0, 0, 0), n, window) == 4, n


def test_reduction_cancels_arrows_up_to_the_window():
    from knotwind.complexes import _reduced_sublevels

    # g1->g2 has exponent 2 at every level, at most the window 3: a single
    # level cancels it and reads the tower off g0, at grading 2s - 4.
    chain = BifilteredComplex(((0, 2), (3, 0), (6, 0)), {(1, 2): 2})
    assert chain.alexander_radius + 1 == 3
    for s in range(3):
        assert list(_reduced_sublevels(chain, s, s)) == [(s, {0: 2 * s - 4})], s


@pytest.mark.parametrize("text", ["T(3,7) # -T(2,11)", "-T(3,7) # -T(2,5)", "T(2,11) # -T(2,11)"])
def test_reduced_search_matches_sublevel_complex_above_cross_check_size(text):
    from knotwind.complexes import _CROSS_CHECK_GENERATORS, _tower_tops, _truncation_order

    chain = complex_of(parse_knot_expr(text))
    assert chain.n_generators > _CROSS_CHECK_GENERATORS
    order, window = _truncation_order(chain), chain.alexander_radius + 1
    swept = _tower_tops(chain, 0, chain.alexander_radius)
    for s in range(chain.alexander_radius + 1):
        floors = tuple(max(0, a - s) for _, a in chain.generators)
        sublevel = sublevel_complex(chain, floors)  # Alexander gradings 0: every floor 0 at level 0
        assert swept[s] == searched_top(sublevel, 0, order, window), s


@given(small_sums)
def test_reduced_and_unreduced_tower_tops_agree(expr):
    from knotwind.complexes import _tower_tops, _truncation_order

    chain = complex_of(expr)
    order, window = _truncation_order(chain), chain.alexander_radius + 1
    swept = _tower_tops(chain, 0, expr.genus)
    for s in range(expr.genus + 1):
        assert swept[s] == searched_top(chain, s, order, window), s


@given(small_sums)
def test_sweep_matches_per_level_reduction(expr):
    from knotwind.complexes import _reduced_sublevels

    chain = complex_of(expr)
    levels = range(expr.genus + 2)  # the last level has every floor 0
    swept = list(_reduced_sublevels(chain, levels[0], levels[-1]))  # read in full: every level reduced
    assert [s for s, _ in swept] == [levels[-1], *levels[:-1]]  # the last level first
    for s, survivors in swept:
        assert len(survivors) == 1, s
        # Gradings, not generator numbers: the two may keep different survivors.
        ((alone, per_level),) = _reduced_sublevels(chain, s, s)
        assert alone == s and list(per_level.values()) == list(survivors.values()), s


def generator_count(expr):
    """Generators of `complex_of(expr)`, from its staircases alone."""
    return reduce(lambda count, summand: count * staircase(summand[0]).n_generators, expr.summands, 1)


@given(small_sums, st.one_of(st.none(), st.sampled_from(ROUTE_TORUS)))
def test_sweep_tops_match_single_level_reads(expr, pair):
    from knotwind.complexes import _reduced_sublevels, _tower_tops

    if pair is not None:  # a K # -K pair: V ends in a run of zeros that the sweep skips
        expr = expr + KnotExpression.torus(*pair) + -KnotExpression.torus(*pair)
        assume(generator_count(expr) <= 1000)
    chain = complex_of(expr)
    tops = _tower_tops(chain, 0, expr.genus)
    for s in range(expr.genus + 1):
        # Each level, sandwiched or not, against a sweep that reads it alone.
        ((alone, survivors),) = _reduced_sublevels(chain, s, s)
        assert alone == s and list(survivors.values()) == [tops[s]], s


@pytest.mark.parametrize(
    "text, shift, tops, reduced",
    [
        ("T(2,11) # -T(2,11)", 0, [0] * 11, 2),
        ("T(2,11) # -T(2,11)", 2, [2] * 11, 2),  # not normalised: equal ends need not be 0
        ("T(2,5) # T(2,3)", 0, [-4, -2, -2, 0], 4),
    ],
)
def test_sweep_reduces_levels_until_one_reaches_the_last_top(monkeypatch, text, shift, tops, reduced):
    import knotwind.complexes as cx

    knot = complex_of(parse_knot_expr(text))
    chain = BifilteredComplex(tuple((m + shift, a) for m, a in knot.generators), knot.differential)
    last = chain.alexander_radius
    assert [cx._tower_tops(chain, s, s) for s in range(last + 1)] == [[top] for top in tops]
    cancel, limits = cx._cancel, []

    def counted(out, into, low, high, limit):
        limits.append(limit)
        cancel(out, into, low, high, limit)

    monkeypatch.setattr(cx, "_cancel", counted)
    assert cx._tower_tops(chain, 0, last) == tops
    assert sum(limit > 0 for limit in limits) == reduced  # one single-level step per level read


def test_interval_step_keeps_arrows_of_exponent_zero_at_one_end_only():
    from knotwind.complexes import _arrows, _cancel, _reduced_sublevels

    # 0->1 is horizontal (n = 1, A rises by 1): exponent 0 at level 0, 1 at level 1.
    # 2->3 is vertical (n = 0, A falls by 1): exponent 1 at level 0, 0 at level 1.
    chain = BifilteredComplex(((-1, 0), (0, 1), (0, 1), (-1, 0), (0, 0)), {(0, 1): 1, (2, 3): 0})

    def gradings(s):
        return {g: m - 2 * max(0, a - s) for g, (m, a) in enumerate(chain.generators)}

    def exponents(s):
        return [(gradings(s)[l] - gradings(s)[k] + 1) // 2 for k, l in chain.differential]

    assert exponents(0) == [0, 1] and exponents(1) == [1, 0]
    out, into = _arrows(chain)
    _cancel(out, into, gradings(0), gradings(1), 0)
    assert out == {0: {1}, 1: set(), 2: {3}, 3: set(), 4: set()}
    assert into == {0: set(), 1: {0}, 2: set(), 3: {2}, 4: set()}
    for s, cancelled in ((0, {0, 1}), (1, {2, 3})):
        out, into = _arrows(chain)
        _cancel(out, into, gradings(s), gradings(s), 0)
        assert set(out) == {0, 1, 2, 3, 4} - cancelled, s
    # Each level then cancels its own exponent-0 arrow; the window (2) takes the other.
    for s, survivors in _reduced_sublevels(chain, 0, 1):
        assert survivors == {4: 0}, s
        assert list(_reduced_sublevels(chain, s, s)) == [(s, {4: 0})], s


def f2_rank(rows):
    """Rank over F_2 of integer bit rows, by elimination on the leading bit."""
    pivots = {}
    for row in rows:
        while row and row.bit_length() in pivots:
            row ^= pivots[row.bit_length()]
        if row:
            pivots[row.bit_length()] = row
    return len(pivots)


@given(small_sums, st.data())
def test_interval_step_cancels_exactly_the_arrows_of_exponent_zero_at_both_ends(expr, data):
    from knotwind.complexes import _arrows, _cancel, _window

    chain = complex_of(expr)
    gens = chain.generators
    a = data.draw(st.integers(0, expr.genus), label="a")
    b = data.draw(st.integers(a + 1, expr.genus + 1), label="b")
    s = data.draw(st.integers(0, expr.genus + 1), label="s")

    def exponent(k, l, n, s):
        """The exponent n + f_s(k) - f_s(l) of k->l in A_s^-, by definition."""
        return n + max(0, gens[k][1] - s) - max(0, gens[l][1] - s)

    def gradings(s):
        return [m - 2 * max(0, al - s) for m, al in gens]

    # The arrows of exponent 0 at both ends form a differential d_0 (exponents
    # are non-negative and add along 2-paths).  Gaussian elimination of all of
    # it, in any order, leaves n - 2 rank d_0 generators and no such arrow.
    rows = {}
    for (k, l), n in chain.differential.items():
        if exponent(k, l, n, a) == exponent(k, l, n, b) == 0:
            rows[k] = rows.get(k, 0) | 1 << l
    out, into = _arrows(chain)
    _cancel(out, into, gradings(a), gradings(b), 0)
    assert len(out) == chain.n_generators - 2 * f2_rank(rows.values())
    for k, targets in out.items():
        for l in targets:
            n = (gens[l][0] - gens[k][0] + 1) // 2  # toggled arrows too: the grading law fixes n
            assert exponent(k, l, n, a) or exponent(k, l, n, b), (k, l)
    # A single level, its gradings passed twice and the window as `limit`,
    # cancels every arrow of exponent up to the window.
    window = _window(chain)
    out, into = _arrows(chain)
    _cancel(out, into, gradings(s), gradings(s), window)
    for k, targets in out.items():
        for l in targets:
            n = (gens[l][0] - gens[k][0] + 1) // 2
            assert exponent(k, l, n, s) > window, (k, l)


def test_interval_step_cancels_the_arrows_it_toggles():
    from knotwind.complexes import _arrows, _cancel

    # x->l, k->l and k->y, all of exponent 0 (x, k, y, l = 0, 1, 2, 3):
    # cancelling k->l, taken first, toggles x->y, which must be cancelled too.
    chain = BifilteredComplex(((0, 0), (0, 0), (-1, 0), (-1, 0)), {(0, 3): 0, (1, 2): 0, (1, 3): 0})
    gradings = [m for m, _ in chain.generators]  # every floor is 0
    out, into = _arrows(chain)
    _cancel(out, into, gradings, gradings, 0)
    assert out == {} and into == {}


def test_square_zero_is_the_parity_of_two_paths():
    # k -> l1 -> m and k -> l2 -> m, with U-exponents 1 + 0 and 0 + 1.
    gens = ((0, 1), (1, 0), (-1, 0), (0, -1))
    square = {(0, 1): 1, (1, 3): 0, (0, 2): 0, (2, 3): 1}
    BifilteredComplex(gens, square)
    lone = {key: n for key, n in square.items() if key != (2, 3)}
    with pytest.raises(ValidationError, match="square"):
        BifilteredComplex(gens, lone)
    # Two 2-paths in all, but one from k to each of m1 and m2.
    with pytest.raises(ValidationError, match="square"):
        BifilteredComplex(((0, 0), (-1, 0), (-1, 0), (-2, 0), (-2, 0)), {(0, 1): 0, (1, 3): 0, (0, 2): 0, (2, 4): 0})


@pytest.mark.parametrize(
    "chain, count",
    [
        # The free generator sits at 0, but the exponent-2 arrow is above the
        # window 1, so its summand would count as a tower at 4.
        (BifilteredComplex(((0, 0), (1, 0), (4, 0)), {(1, 2): 2}), 3),
        (BifilteredComplex(((0, 0), (-1, 0)), {(0, 1): 0}), 0),
    ],
    ids=["arrow-above-window", "nothing-survives"],
)
def test_tower_top_raises_unless_one_generator_survives(chain, count):
    with pytest.raises(InternalCheckError, match=f"^{count} generators survive the reduction of level 0,"):
        chain.tower_top()
    with pytest.raises(InternalCheckError, match=f"^{count} generators survive"):
        v_invariant(chain, 0)


@given(
    st.lists(st.integers(-3, 3), max_size=2),
    st.lists(st.tuples(st.integers(-4, 4), st.integers(0, 4)), max_size=5),
    st.integers(0, 2),
)
def test_tower_top_reads_the_one_survivor_of_a_direct_sum(towers, pairs, radius):
    # Free generators at gradings 2t, the first at Alexander grading `radius`,
    # beside pairs g_k -> U^e g_l at Alexander grading 0.
    gens = [(2 * t, radius if j == 0 else 0) for j, t in enumerate(towers)]
    diff = {}
    for m, e in pairs:
        diff[(len(gens), len(gens) + 1)] = e
        gens += [(m, 0), (m - 1 + 2 * e, 0)]
    assume(gens)
    chain = BifilteredComplex(tuple(gens), diff)
    window = chain.alexander_radius + 1
    count = len(towers) + 2 * sum(e > window for _, e in pairs)
    if count == 1:
        assert chain.tower_top() == 2 * towers[0]
    else:
        with pytest.raises(InternalCheckError, match=f"^{count} generators survive"):
            chain.tower_top()


@given(small_sums, st.integers(-3, 3))
def test_dual_tower_top_is_minus_the_input_top(expr, k):
    chain = complex_of(expr)
    shifted = BifilteredComplex(tuple((m + 2 * k, a) for m, a in chain.generators), chain.differential)
    assert shifted.tower_top() == 2 * k
    assert dualize(shifted).tower_top() == -2 * k
    assert dualize(dualize(shifted)) == shifted


def test_duals_of_staircases_are_normalised():
    knots = [TorusKnot(p, q) for p in range(2, 62) for q in range(p + 1, 62)
             if gcd(p, q) == 1 and (p - 1) * (q - 1) <= 60]
    assert {knot.genus for knot in knots} == set(range(1, 31))
    for knot in knots:
        assert staircase(knot).tower_top() == 0
        assert dualize(staircase(knot)).tower_top() == 0


def test_v_sequence_checks_the_normalisation_of_duals(monkeypatch):
    import knotwind.complexes as cx

    dual_exactly = cx._dual_part

    def dual_too_low(part):
        gens, diff = dual_exactly(part)
        return tuple((m - 2, a) for m, a in gens), diff

    expr = parse_knot_expr("T(2,3) # -T(2,5)")
    assert list(v_sequence(expr)) == [0, 0, 0, 0]
    monkeypatch.setattr(cx, "_dual_part", dual_too_low)
    with pytest.raises(InternalCheckError, match="tower normalisation broken: V_3 = 1, not 0"):
        v_sequence(expr)
    with pytest.raises(InternalCheckError, match="tower normalisation broken: V_3 = 1, not 0"):
        v_at(expr, 0)
    status, out, _ = run(["bound", "winding", "--no-cache", "--format", "json", "--", str(expr)])
    assert status == 1
    assert json.loads(out)["error"]["kind"] == "internal"


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
