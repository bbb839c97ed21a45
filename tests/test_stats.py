"""Occupancy distributions: reference counter, bit-parallel version, layered."""

import itertools
import math
import random
import sys
import threading
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubestats import (
    DomainError,
    LambdaBounds,
    LayeredSpec,
    SubcubeDistribution,
    VertexSet,
    bernoulli_set,
    distribution,
    distribution_fast,
    lambda_of_set,
    layered_distribution,
    layered_set,
    parity_set,
    subcube_count,
)
from cubestats import stats


@st.composite
def vertex_sets(draw, max_n=7):
    n = draw(st.integers(0, max_n))
    mask = draw(st.integers(0, (1 << (1 << n)) - 1))
    return VertexSet(n, mask)


class TestDistribution:
    def test_single_vertex_on_edges(self):
        A = VertexSet.from_vertices(2, [0])
        dist = distribution(A, 1)
        assert dist.counts == (2, 2, 0)
        assert dist.total == 4

    def test_diagonal_pair_hits_every_edge_once(self):
        A = VertexSet.from_vertices(2, [0, 3])
        assert distribution(A, 1).counts == (0, 4, 0)
        assert lambda_of_set(A, 1, 1) == 1

    def test_parity_set_balances_squares(self):
        A = parity_set(4)
        dist = distribution_fast(A, 2)
        assert dist.counts[2] == dist.total == 24

    def test_empty_set(self):
        dist = stats._fold_distribution(VertexSet.empty(3), 2)
        assert dist.counts[0] == dist.total == subcube_count(3, 2)

    def test_full_set_fills_every_subcube(self):
        # 2^8 = 256 is the first count that overflows uint8
        for d in range(9):
            dist = stats._fold_distribution(VertexSet.full(8), d)
            assert dist.counts[1 << d] == dist.total == subcube_count(8, d)

    def test_fraction_and_lambda_agree(self):
        A = VertexSet.from_vertices(3, [0, 1, 6])
        dist = distribution(A, 2)
        for s in range(5):
            assert dist.fraction(s) == lambda_of_set(A, 2, s)

    def test_d_out_of_range(self):
        with pytest.raises(DomainError):
            distribution(VertexSet.empty(2), 3)
        with pytest.raises(DomainError):
            distribution_fast(VertexSet.empty(2), -1)

    @given(vertex_sets(max_n=8), st.data())
    @settings(max_examples=60, deadline=None)
    def test_fast_matches_reference(self, A, data):
        d = data.draw(st.integers(0, A.n))
        assert distribution_fast(A, d) == distribution(A, d)

    @pytest.mark.parametrize("block", [1, 3, 8, 64])
    def test_fast_matches_reference_across_block_boundaries(self, monkeypatch, block):
        # tiny blocks split every level into many blocks, some ending
        # mid-coordinate, and bincount the leaves in many slices; block 1
        # counts every uint8 leaf alone, 3 mixes pairs with odd last counts
        monkeypatch.setattr(stats, "_BLOCK_ELEMS", block)
        rng = random.Random(block)
        for n in range(9):
            for d in range(n + 1):
                A = VertexSet(n, rng.getrandbits(1 << n))
                assert distribution_fast(A, d) == distribution(A, d), (n, d)

    def test_plan_honours_a_patched_block_size(self, monkeypatch):
        # a workspace kept without its block size would run the default
        # program warmed here, which folds all five top rows into one block
        A = VertexSet(8, random.Random(8).getrandbits(1 << 8))
        distribution_fast(A, 4)
        monkeypatch.setattr(stats, "_BLOCK_ELEMS", 8)
        levels = []
        program = stats._program

        def spy(n, d, k, *rest):
            levels.append(k)
            return program(n, d, k, *rest)

        monkeypatch.setattr(stats, "_program", spy)
        assert distribution_fast(A, 4) == distribution(A, 4)
        assert levels.count(1) > 1  # level-1 blocks: the top plan's flushes

    @pytest.mark.parametrize("d", [7, 8, 15, 16])
    def test_full_lanes_never_carry(self, d):
        # d = 7 and 15 fill the widest count each of uint8 and uint16 holds,
        # 8 and 16 are the first d of the next dtype; every word size is used
        n = d + 1
        dist = stats._fold_distribution(VertexSet.full(n), d)
        assert dist.counts[1 << d] == dist.total == subcube_count(n, d)
        for k, T in [(2, {0}), (3, {0, 2}), (4, {1, 2, 3})]:
            spec = LayeredSpec(k, frozenset(T))
            assert stats._fold_distribution(layered_set(n, spec), d) == layered_distribution(
                n, d, spec
            )

    @pytest.mark.parametrize("n, d", [(10, 3), (14, 4)])
    def test_concurrent_callers_never_share_a_workspace(self, n, d):
        # np.add releases the GIL, so a workspace handed to two callers at
        # once would mix their sums
        sets = [VertexSet(n, random.Random(n * 10 + i).getrandbits(1 << n)) for i in range(4)]
        want = [distribution_fast(A, d) for A in sets]
        rounds = 40 if n == 10 else 8
        got = [[] for _ in sets]

        def work(i):
            for _ in range(rounds):
                got[i].append(distribution_fast(sets[i], d))

        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(sets))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == [[w] * rounds for w in want]

    @pytest.mark.parametrize("block", [1, 3, 8, 64, 1 << 16])
    def test_program_histograms_every_subcube_once(self, block):
        # replayed blocks count each time; a uint16 word of uint8 leaf
        # counts (out is the pair bins, not hist, nor None for a block that
        # may be counted by value) holds two subcubes
        for n in range(13):
            for d in range(n + 1):
                _, hist, _, _, program = stats._bind(n, d, block)
                leaves = sum(
                    x.size * (1 if out is hist or out is None else 2)
                    for x, y, out in program
                    if y is None
                )
                assert leaves == subcube_count(n, d), (n, d)

    @pytest.mark.parametrize("block", [1, 3, 8, 64, 1 << 16])
    def test_level_buffers_stay_within_a_block(self, monkeypatch, block):
        # a level holds at most a block of counts, or one row of 2^(n-k)
        # where a row is longer, so memory stays flat in n; only the
        # buffers are checked, so the program is not compiled
        bound = []

        def spy(n, d, k, runs, levels, *rest):
            bound.append(levels)
            return []

        monkeypatch.setattr(stats, "_program", spy)
        for d in (1, 3, 6, 9):
            for n in range(d, 21):
                bound.clear()
                stats._bind(n, d, block)
                (levels,) = bound
                assert len(levels) == d + 1
                for k, level in enumerate(levels):
                    assert level.size <= max(block, 1 << (n - k)), (n, d, k)

    @pytest.mark.parametrize("seed", range(5))
    def test_fast_matches_reference_on_bernoulli_sets(self, seed):
        # the shape of the Monte Carlo sweeps: many small sets in Q_10, d = 3
        A = bernoulli_set(10, 3, seed)
        assert distribution_fast(A, 3) == distribution(A, 3)

    @given(vertex_sets(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_complement_reverses_counts(self, A, data):
        d = data.draw(st.integers(0, A.n))
        dist = distribution_fast(A, d)
        comp = distribution_fast(A.complement(), d)
        assert comp.counts == dist.counts[::-1]


@pytest.fixture
def fresh_pool():
    # drops workspaces bound before, or under a patched constant
    stats._pool.cache_clear()
    yield
    stats._pool.cache_clear()


def _leaf_grid(n, d):
    """The pair bins of the one workspace kept for (n, d), and its program."""
    ((_, _, bins, _, program),) = stats._pool(n, d, stats._BLOCK_ELEMS)
    return bins, program


class TestLeafRoutes:
    """A leaf block is counted by value, scattered in pairs, or bincounted."""

    @pytest.mark.parametrize("block, gate", [(8, 2), (64, 32), (1 << 16, 2)])
    def test_structured_sets_match_both_oracles(self, monkeypatch, fresh_pool, block, gate):
        # parity, layered and mod_weight sets put each block on one or a few
        # counts; with the size gate lowered, every block of a shape with a
        # pair grid (d <= 4 here) goes by value or, spanning many, scatters
        monkeypatch.setattr(stats, "_BLOCK_ELEMS", block)
        monkeypatch.setattr(stats, "_BY_VALUE_MIN", gate)
        for n in range(11):
            for d in range(n + 1):
                for k, T in ((2, {0}), (3, {0, 2}), (5, {1, 2}), (d + 1, {0})):
                    spec = LayeredSpec(k, frozenset(T))
                    A = layered_set(n, spec)
                    want = layered_distribution(n, d, spec)
                    got = stats._fold_distribution(A, d)
                    assert got == want == distribution(A, d), (n, d, k, T)

    @pytest.mark.parametrize("gate", [2, 1 << 10])
    def test_structured_sets_at_d_5_to_7_match_layered(self, monkeypatch, fresh_pool, gate):
        # the first shapes past n = 10 with a pair grid at d = 5, 6 and 7
        monkeypatch.setattr(stats, "_BY_VALUE_MIN", gate)
        for n, d in ((11, 5), (12, 6), (13, 7)):
            for k, T in ((2, {0}), (3, {0, 2}), (d + 1, {0})):
                spec = LayeredSpec(k, frozenset(T))
                want = layered_distribution(n, d, spec)
                assert stats._fold_distribution(layered_set(n, spec), d) == want, (n, d, k, T)

    def test_eight_values_go_by_value_and_nine_scatter(self, monkeypatch, fresh_pool):
        # at (10, 3) the 15,360 leaf counts are one block.  A fair-coin set
        # spans 0..8; without its vertices of weight 0 mod 4, every 3-subcube
        # holds at most 7, so the rest spans 0..7
        monkeypatch.setattr(stats, "_BY_VALUE_MIN", 1 << 13)
        coin = bernoulli_set(10, 1, 5)
        drop = layered_set(10, LayeredSpec(4, frozenset({0})))
        below_eight = VertexSet(10, coin.bits & ~drop.bits)
        for A, span, scattered in ((below_eight, 8, False), (coin, 9, True)):
            want = distribution(A, 3)
            held = [s for s, c in enumerate(want.counts) if c]
            assert held[-1] - held[0] + 1 == span
            assert stats._fold_distribution(A, 3) == want, span
            bins, program = _leaf_grid(10, 3)
            assert sum(y is None for _, y, _ in program) == 1
            assert bins.any() == scattered, span

    def test_one_valued_blocks_leave_the_pair_grid_zero(self, fresh_pool):
        # every 3-subcube holds 4 points of the parity set, so each 2^16-count
        # leaf block is one value; a fair-coin set spans 0..8 in every block
        stats._fold_distribution(parity_set(16), 3)
        bins, _ = _leaf_grid(16, 3)
        assert not bins.any()
        stats._fold_distribution(bernoulli_set(16, 1, 0), 3)
        assert bins.any()

    def test_a_by_value_call_ignores_the_grid_a_scatter_left(self, fresh_pool):
        coin = bernoulli_set(16, 1, 0)
        assert stats._fold_distribution(coin, 3) == stats._fold_distribution(coin, 3)
        for spec in (LayeredSpec(2, frozenset({0})), LayeredSpec(4, frozenset({0}))):
            got = stats._fold_distribution(layered_set(16, spec), 3)
            assert got == layered_distribution(16, 3, spec)
            bins, _ = _leaf_grid(16, 3)
            assert bins.any()  # the same workspace, still holding the scatter's pairs

    @pytest.mark.parametrize(
        "n, d, grid",
        [(8, 7, False), (10, 7, False), (12, 7, False), (11, 6, False)]
        + [(10, 3, True), (12, 6, True), (16, 3, True)],
    )
    def test_the_pair_grid_is_bound_only_where_leaves_outnumber_its_cells(self, n, d, grid):
        # (8, 7) has 16 leaf counts and would zero and fold 129 x 129 pair bins
        _, hist, bins, pairs, program = stats._bind(n, d, stats._BLOCK_ELEMS)
        assert (bins is not None) == (pairs is not None) == grid
        assert grid == (subcube_count(n, d) >= 256 * hist.size)
        if not grid:
            assert all(out is hist for _, y, out in program if y is None)


def _weight_set(n, W):
    """{x in Q_n : W[|x|]}, listed vertex by vertex."""
    return VertexSet.from_vertices(n, [x for x in range(1 << n) if W[x.bit_count()]])


class TestWeightSymmetric:
    """distribution_fast counts A = {x : |x| in W} in closed form from W."""

    def test_every_weight_class_set_up_to_n_6_matches_the_oracle(self):
        for n in range(7):
            for W in itertools.product((0, 1), repeat=n + 1):
                A = _weight_set(n, W)
                assert stats._symmetric_weights(A) == list(W)
                for d in range(n + 1):
                    assert distribution_fast(A, d) == distribution(A, d), (n, W, d)

    @pytest.mark.parametrize("n", range(7, 13))
    def test_seeded_weight_class_sets_match_the_fold(self, n):
        rng = random.Random(n)
        sets = [_weight_set(n, [rng.getrandbits(1) for _ in range(n + 1)]) for _ in range(40)]
        for d in range(n + 1):  # d outermost: the fold keeps one shape's workspaces
            for A in sets:
                assert distribution_fast(A, d) == stats._fold_distribution(A, d), (n, d)

    @pytest.mark.parametrize("x", [0b111, 0b1011_0100, 0b1111_1110])
    def test_parity_with_one_heavy_vertex_flipped_takes_the_fold(self, x):
        # the weight-1 and weight-2 classes stay whole, so only the compare
        # with the set built from W turns the set away; 0b1111_1110 is the
        # vertex W[7] is read from, so the rest of its class disagrees
        A = VertexSet(8, parity_set(8).bits ^ (1 << x))
        for mask in stats._low_weight_masks(8):
            assert A.bits & mask in (0, mask)
        assert stats._symmetric_weights(A) is None
        for d in range(9):
            assert distribution_fast(A, d) == distribution(A, d), d

    @pytest.mark.parametrize("n", [17, 18])
    def test_one_vertex_flipped_in_the_first_or_the_last_block(self, n):
        # 0b111 and 2^16 - 1 lie in the lowest 2^16 vertices, and 2^n - 2
        # (the vertex W[n - 1] is read from) and 2^n - 1 - 0b101 in the
        # highest; none is in a low weight class
        A = layered_set(n, LayeredSpec(3, frozenset({0, 1})))
        assert stats._symmetric_weights(A) == [int(w % 3 < 2) for w in range(n + 1)]
        for x in (0b111, (1 << 16) - 1, (1 << n) - 2, (1 << n) - 1 - 0b101):
            assert stats._symmetric_weights(VertexSet(n, A.bits ^ (1 << x))) is None, x

    def test_a_symmetric_set_is_counted_in_under_two_bytes_per_vertex(self):
        # it was unpacked to a byte per vertex and compared with a uint32
        # weight shift: 7 bytes per vertex
        n = 20
        A = layered_set(n, LayeredSpec(3, frozenset({0})))
        want = layered_distribution(n, 3, LayeredSpec(3, frozenset({0})))
        assert distribution_fast(A, 3) == want  # caches the class masks
        tracemalloc.start()
        try:
            assert distribution_fast(A, 3) == want
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 << n, peak / (1 << n)

    @pytest.mark.parametrize("n", [8, 9])
    def test_one_vertex_splits_a_low_weight_class(self, monkeypatch, n):
        # turned away by the class masks, before any set is built from W
        parity = parity_set(n).bits
        sets = [VertexSet(n, parity ^ (1 << x)) for x in (1 << (n - 1), 0b11 << (n - 2))]
        stats._low_weight_masks(n)  # the cached class masks are built by the helper too
        with monkeypatch.context() as patch:
            patch.setattr(VertexSet, "from_weights", None)
            assert [stats._symmetric_weights(A) for A in sets] == [None] * 2
        for A in sets:
            assert distribution_fast(A, 3) == stats._fold_distribution(A, 3)

    def test_only_the_fold_unpacks_flags(self, monkeypatch):
        # a symmetric set, which is never unpacked, one turned away only by
        # the full compare, and one turned away by the class masks: the fold
        # unpacks each of the last two once
        parity = parity_set(10)
        sets = [parity, VertexSet(10, parity.bits ^ (1 << 0b111)), bernoulli_set(10, 3, 0)]
        want = [distribution(A, 3) for A in sets]
        unpack, calls = VertexSet.flags, []

        def flags(A):
            calls.append(A)
            return unpack(A)

        monkeypatch.setattr(VertexSet, "flags", flags)
        for A, dist, unpacked in zip(sets, want, ([], [sets[1]], [sets[2]])):
            calls.clear()
            assert distribution_fast(A, 3) == dist
            assert calls == unpacked

    def test_only_sets_that_are_not_symmetric_reach_the_fold(self, monkeypatch):
        class Folded(Exception):
            pass

        def fold(A, d):
            raise Folded

        monkeypatch.setattr(stats, "_fold_distribution", fold)
        for n in range(11):
            for k, T in ((1, {0}), (1, set()), (2, {0}), (3, {1}), (5, {0, 3})):
                spec = LayeredSpec(k, frozenset(T))
                A = layered_set(n, spec)
                for d in range(n + 1):
                    assert distribution_fast(A, d) == layered_distribution(n, d, spec)
        with pytest.raises(Folded):
            distribution_fast(bernoulli_set(10, 3, 0), 3)

    def test_weight_one_vertices_of_q4_on_edges(self):
        # an edge whose 3 fixed coordinates have weight 0 or 1 (4 + 12 edges)
        # holds one vertex of weight 1; one of weight 2 or 3 (12 + 4) none
        A = _weight_set(4, [0, 1, 0, 0, 0])
        assert distribution_fast(A, 1).counts == (16, 16, 0)


class TestLayered:
    @given(st.integers(1, 8), st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_materialized_set(self, n, data):
        d = data.draw(st.integers(0, n))
        k = data.draw(st.integers(1, 6))
        T = frozenset(data.draw(st.sets(st.integers(0, k - 1))))
        spec = LayeredSpec(k, T)
        assert layered_distribution(n, d, spec) == distribution_fast(
            layered_set(n, spec), d
        )

    @pytest.mark.parametrize(
        "n, d, spec",
        [
            (18, 3, LayeredSpec(3, frozenset({0, 2}))),  # many blocks per level
            (16, 9, LayeredSpec(4, frozenset({0, 1, 2}))),  # counts above 255: uint16
        ],
    )
    def test_matches_fast_kernel_at_scale(self, n, d, spec):
        assert layered_distribution(n, d, spec) == stats._fold_distribution(
            layered_set(n, spec), d
        )

    def test_mod3_zero_class(self):
        spec = LayeredSpec(3, frozenset({0}))
        dist = layered_distribution(4, 2, spec)
        assert dist.fraction(1) == Fraction(3, 4)

    def test_scales_past_materializable_sizes(self):
        spec = LayeredSpec(2, frozenset({0}))
        dist = layered_distribution(120, 3, spec)
        assert dist.total == subcube_count(120, 3)
        # even-weight selector balances every 3-subcube: half in, half out
        assert dist.counts[4] == dist.total

    def test_full_and_empty_selectors(self):
        every = layered_distribution(6, 2, LayeredSpec(1, frozenset({0})))
        assert every.counts[4] == every.total
        none = layered_distribution(6, 2, LayeredSpec(1, frozenset()))
        assert none.counts[0] == none.total

    def test_spec_validation(self):
        with pytest.raises(DomainError):
            LayeredSpec(0, frozenset())
        with pytest.raises(DomainError):
            LayeredSpec(3, frozenset({3}))
        with pytest.raises(DomainError):
            LayeredSpec(2**70, frozenset({2**70}))
        with pytest.raises(DomainError):
            LayeredSpec(2**70, frozenset({-1}))
        assert LayeredSpec(2**70, frozenset({0, 2**70 - 1})).k == 2**70

    @pytest.mark.parametrize("k, T", [(3, {1.0}), (3, {True}), (3.0, {1}), (3, {"1"})])
    def test_spec_rejects_non_integers(self, k, T):
        with pytest.raises(DomainError):
            LayeredSpec(k, frozenset(T))


def comb_sum(n, d, W):
    """The weight-class closed form, one math.comb product per base weight."""
    counts = [0] * ((1 << d) + 1)
    for w in range(n - d + 1):
        hits = sum(math.comb(d, i) for i in range(d + 1) if W[w + i])
        counts[hits] += math.comb(n, d) * math.comb(n - d, w)
    return tuple(counts)


class TestClosedForms:
    def test_running_binomials_match_math_comb(self):
        # every n <= 200 and every d the 2^d + 1 counts allow here
        rng = random.Random(26)
        for n in range(201):
            for d in range(min(n, 8) + 1):
                W = [rng.getrandbits(1) for _ in range(n + 1)]
                assert stats._weight_distribution(n, d, W).counts == comb_sum(n, d, W)
                k = rng.randint(1, 6)
                T = frozenset(a for a in range(k) if rng.getrandbits(1))
                W = [int(w % k in T) for w in range(n + 1)]
                got = layered_distribution(n, d, LayeredSpec(k, T))
                assert got.counts == comb_sum(n, d, W)

    def test_large_n_in_under_a_second(self):
        n, d = 10_000, 10
        W = [int(w % (d + 1) == 0) for w in range(n + 1)]
        start = time.perf_counter()
        weights = stats._weight_distribution(n, d, W)
        layered = layered_distribution(n, d, LayeredSpec(d + 1, frozenset({0})))
        assert time.perf_counter() - start < 1
        assert weights == layered and weights.total == subcube_count(n, d)


class TestContainers:
    def test_distribution_json_roundtrip(self):
        dist = distribution_fast(VertexSet.from_vertices(3, [0, 5]), 2)
        assert SubcubeDistribution.from_json(dist.to_json()) == dist

    def test_distribution_validation(self):
        with pytest.raises(DomainError):
            SubcubeDistribution(2, 1, (1, 1), 2)  # wrong counts length
        with pytest.raises(DomainError):
            SubcubeDistribution(2, 1, (1, 1, 1), 4)  # bad total
        good = {"n": 2, "d": 1, "total": "4", "counts": {"1": "4"}}
        for bad in (
            {"d": "2"},
            {"counts": []},
            {"d": 10**12},  # 2^d + 1 counts would never fit in memory
            {"d": 3},
            {"total": "4.0"},
            {"counts": {"1": 4}},
            {"counts": {"3": "4"}},
            {"counts": {"1": "4"}, "extra": 0},
        ):
            start = time.perf_counter()
            with pytest.raises(DomainError):
                SubcubeDistribution.from_json({**good, **bad})
            assert time.perf_counter() - start < 1

    def test_bounds_ordering_enforced(self):
        with pytest.raises(DomainError):
            LambdaBounds(2, 1, Fraction(3, 4), Fraction(2, 3), "x", "closed-form")
        b = LambdaBounds(2, 1, Fraction(2, 3), Fraction(3, 4), "x", "closed-form")
        assert b.to_json()["lower"] == "2/3"
        # the interval may reach both ends of [0, 1]
        assert LambdaBounds(2, 1, Fraction(0), Fraction(1), "x", "closed-form").lower == 0

    def test_bounds_above_one_rejected(self):
        # a limit of fractions lies in [0, 1], so an upper end past 1 is no enclosure
        with pytest.raises(DomainError):
            LambdaBounds(2, 1, Fraction(1, 2), Fraction(3, 2), "x", "closed-form")
