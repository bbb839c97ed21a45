"""Exact maxima over all vertex sets, and the symmetry-table internals."""

import functools
import hashlib
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubestats import (
    CapabilityError,
    DomainError,
    VertexSet,
    binomial,
    distribution,
    exhaustive_lambda,
    lambda_d2_closed_form,
    lambda_of_set,
    omega,
    subcube_count,
    turan_density,
)
from cubestats import exhaustive
from cubestats.exhaustive import (
    _apply_swaps,
    _candidates,
    _canonical_highs,
    _cube_masks,
    _filters,
    _hist_matrix,
    _images,
    _keep,
    _least_image,
    _lex_least,
    _survivors,
    _swap,
    _symmetries,
)


class TestSmallTables:
    def test_diagonal_pair_is_optimal_for_edges(self):
        val, wit = exhaustive_lambda(2, 1, 1)
        assert val == 1
        assert wit.vertices() == [0, 3]

    def test_antipodal_pair_for_squares_in_q3(self):
        val, wit = exhaustive_lambda(3, 2, 1)
        assert val == 1
        assert wit.vertices() == [0, 7]

    def test_q4_squares_single_point_matches_turan(self):
        val, wit = exhaustive_lambda(4, 2, 1)
        assert val == Fraction(5, 6)
        assert val == turan_density(4, 3)
        assert wit.vertices() == [0, 3, 13, 14]

    def test_trivial_occupancies_are_perfect(self):
        for n in range(1, 5):
            for d in range(n + 1):
                for s in (0, 1 << d) + (((1 << d) // 2,) if d else ()):
                    val, wit = exhaustive_lambda(n, d, s)
                    assert val == 1, (n, d, s)
                    assert lambda_of_set(wit, d, s) == 1

    def test_half_occupancy_witnesses(self):
        _, wit = exhaustive_lambda(4, 3, 4)
        assert wit.vertices() == [0, 1, 2, 3, 12, 13, 14, 15]
        _, wit = exhaustive_lambda(4, 1, 1)
        assert wit.vertices() == [0, 3, 5, 6, 9, 10, 12, 15]

    def test_whole_cube_witness(self):
        val, wit = exhaustive_lambda(4, 4, 3)
        assert val == 1
        assert wit.vertices() == [0, 1, 2]

    def test_witnesses_attain_reported_value(self):
        for n in range(5):
            for d in range(n + 1):
                for s in range((1 << d) + 1):
                    val, wit = exhaustive_lambda(n, d, s)
                    assert lambda_of_set(wit, d, s) == val

    def test_mirror_symmetry(self):
        for n in range(5):
            for d in range(n + 1):
                for s in range((1 << d) + 1):
                    a, _ = exhaustive_lambda(n, d, s)
                    b, _ = exhaustive_lambda(n, d, (1 << d) - s)
                    assert a == b

    def test_monotone_in_ambient_dimension(self):
        for d in range(3):
            for s in range((1 << d) + 1):
                vals = [exhaustive_lambda(n, d, s)[0] for n in range(d, 5)]
                assert all(x >= y for x, y in zip(vals, vals[1:]))

    @pytest.mark.parametrize("n", range(4))
    def test_matches_brute_force_over_all_sets(self, n):
        # every one of the 2^(2^n) sets, counted by the oracle
        sets = [VertexSet(n, bits) for bits in range(1 << (1 << n))]
        for d in range(n + 1):
            counts = [distribution(A, d).counts for A in sets]
            for s in range((1 << d) + 1):
                best = max(c[s] for c in counts)
                tied = [A.bits for A, c in zip(sets, counts) if c[s] == best]
                val, wit = exhaustive_lambda(n, d, s)
                assert val == Fraction(best, subcube_count(n, d)), (n, d, s)
                assert wit.bits == min(tied, key=lambda m: _vertex_tuple(m, n))

    # witness masks of every n = 4 cell, by d, for s = 0 .. 2^d
    Q4_WITNESSES = {
        0: [0x0, 0xFFFF],
        1: [0x0, 0x9669, 0xFFFF],
        2: [0x0, 0x6009, 0x3CC3, 0xF69F, 0xFFFF],
        3: [0x0, 0x8001, 0xC003, 0xE007, 0xF00F, 0xF81F, 0xFC3F, 0xFE7F, 0xFFFF],
        4: [(1 << s) - 1 for s in range(17)],
    }

    @pytest.mark.parametrize("d", range(5))
    def test_q4_witness_table(self, d):
        got = [exhaustive_lambda(4, d, s)[1].bits for s in range((1 << d) + 1)]
        assert got == self.Q4_WITNESSES[d]

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            exhaustive_lambda(3, 4, 1)
        with pytest.raises(DomainError):
            exhaustive_lambda(3, 2, 5)

    def test_full_dimension_is_closed_form(self, monkeypatch):
        # λ(n, n, s) = 1 with witness {0, ..., s-1}, decided without a scan
        def no_scan(*args):
            raise AssertionError("d = n must not reach the scan")

        monkeypatch.setattr(exhaustive, "_cell", no_scan)
        for n in range(6):
            for s in range((1 << n) + 1):
                val, wit = exhaustive_lambda(n, n, s)
                assert val == 1 and wit.n == n and wit.bits == (1 << s) - 1

    @pytest.mark.parametrize("d_of_n", [lambda n: 0, lambda n: n - 1], ids=["d0", "codim1"])
    def test_closed_forms_match_the_sweep(self, monkeypatch, d_of_n):
        # λ = 1 at d = 0 and d = n - 1, with the witness a plain sweep finds
        cells = {
            (n, s): plain_cell(n, d_of_n(n), s)
            for n in range(1, 5)
            for s in range((1 << d_of_n(n)) + 1)
        }

        def no_scan(*args):
            raise AssertionError("d = 0 and d = n - 1 must not reach the scan")

        monkeypatch.setattr(exhaustive, "_cell", no_scan)
        for (n, s), (count, bits) in cells.items():
            val, wit = exhaustive_lambda(n, d_of_n(n), s)
            assert val == Fraction(count, subcube_count(n, d_of_n(n))) == 1, (n, s)
            assert wit.n == n and wit.bits == bits, (n, s)
        for n in range(1, 6):
            for s in range((1 << d_of_n(n)) + 1):
                val, wit = exhaustive_lambda(n, d_of_n(n), s)
                assert val == 1 and lambda_of_set(wit, d_of_n(n), s) == 1, (n, s)

    def test_capability_gates(self):
        with pytest.raises(CapabilityError):
            exhaustive_lambda(6, 2, 1)


# --- lane-packed histogram ----------------------------------------------------


# every (n, d) with n <= 5 that ``_sweep`` scans
SWEPT_SHAPES = [(n, d) for n in range(3, 6) for d in range(1, n - 1)]


def scatter_hist_matrix(masks: np.ndarray, cube_masks: list[int], d: int) -> np.ndarray:
    """Reference: one scatter-add per subcube into hist[count, mask]."""
    hist = np.zeros(((1 << d) + 1, masks.size), dtype=np.uint8)
    cols = np.arange(masks.size)
    for cm in cube_masks:
        cnt = np.bitwise_count(masks & masks.dtype.type(cm)).astype(np.intp)
        hist[cnt, cols] += 1
    return hist


def scatter_sweep(n: int, d: int, masks: np.ndarray):
    """Reference best count and tie set per s, from one scatter histogram."""
    hist = scatter_hist_matrix(masks, _cube_masks(n, d), d)
    best = tuple(int(col.max()) for col in hist)
    return best, tuple(masks[col == peak] for col, peak in zip(hist, best))


@functools.lru_cache(maxsize=None)
def plain_sweep(n: int, d: int):
    """Reference: ``scatter_sweep`` of every vertex-0-avoiding mask of Q_n."""
    return scatter_sweep(n, d, np.arange(0, 1 << (1 << n), 2, dtype=np.uint32))


def plain_cell(n: int, d: int, s: int) -> tuple[int, int]:
    """Reference (best count, witness) from ``plain_sweep``: the maximizers
    are its ties at s and the complements of its ties at 2^d - s, and the
    witness is the least of them in vertex-tuple order."""
    best, ties = plain_sweep(n, d)
    mirror, full = (1 << d) - s, (1 << (1 << n)) - 1
    count = max(best[s], best[mirror])
    tied = ties[s].tolist() if best[s] == count else []
    if best[mirror] == count:
        tied += [full ^ m for m in ties[mirror].tolist()]
    return count, min(tied, key=lambda m: _vertex_tuple(m, n))


class TestLaneHistogram:
    @pytest.mark.parametrize("d", [1, 2])
    def test_matches_scatter_on_every_even_n4_mask(self, d):
        masks = np.arange(0, 1 << 16, 2, dtype=np.uint32)
        cubes = _cube_masks(4, d)
        assert np.array_equal(
            _hist_matrix(masks, cubes, d), scatter_hist_matrix(masks, cubes, d)
        )

    @pytest.mark.parametrize("n, d", SWEPT_SHAPES)
    def test_matches_scatter_on_seeded_masks(self, n, d):
        rng = np.random.default_rng(10 * n + d)
        masks = rng.integers(0, 1 << (1 << n) - 1, size=1 << 14, dtype=np.uint32) << np.uint32(1)
        # the extremes: no vertex, and every vertex but 0
        masks[:2] = 0, (1 << (1 << n)) - 2
        cubes = _cube_masks(n, d)
        got = _hist_matrix(masks, cubes, d)
        assert np.array_equal(got, scatter_hist_matrix(masks, cubes, d))
        # full lanes: every subcube misses the empty mask, and all but the
        # C(n, d) through vertex 0 lie inside the other one
        assert got[0, 0] == len(cubes)
        assert got[1 << d, 1] == len(cubes) - math.comb(n, d)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_explicit_lanes_that_fill_the_word(self, d):
        # 200 cubes give 8-bit lanes, so the 2^d explicit ones fill a word
        # of 16, 32 or 64 bits and lane 2^d's shift is the word width
        word, explicit = exhaustive._lane_word(8, d)
        assert (np.iinfo(word).bits, explicit) == (8 << d, 1 << d)
        rng = np.random.default_rng(70 + d)
        picks = [rng.choice(32, 1 << d, replace=False) for _ in range(200)]
        cubes = [sum(1 << int(v) for v in pick) for pick in picks]
        masks = rng.integers(0, 1 << 32, size=1 << 12, dtype=np.uint32)
        masks[:2] = 0, 0xFFFFFFFF
        got = _hist_matrix(masks, cubes, d)
        assert np.array_equal(got, scatter_hist_matrix(masks, cubes, d))
        assert got[0, 0] == got[1 << d, 1] == 200

    @pytest.mark.parametrize("chunk", [2, 3])
    def test_sweep_across_chunk_boundaries(self, monkeypatch, chunk):
        # 23 survivors in chunks of 2 with a last chunk of one, or of 3 with a last of two
        monkeypatch.setattr(exhaustive, "_CHUNK", chunk)
        sweep = functools.lru_cache(exhaustive._sweep.__wrapped__)
        best, ties = sweep(3, 1)
        want_best, want_ties = scatter_sweep(3, 1, _survivors(3))
        assert best == want_best
        assert all(np.array_equal(a, b) for a, b in zip(ties, want_ties, strict=True))

    def test_lanes_fit_one_word_at_every_swept_shape(self):
        words = {}
        for n, d in SWEPT_SHAPES:
            w = len(_cube_masks(n, d)).bit_length()
            assert ((1 << d) + 1) * w <= 64, (n, d)
            word, explicit = exhaustive._lane_word(w, d)
            words[n, d] = word, explicit == 1 << d
        # a word with room to spare still has only the 2^d + 1 lanes
        assert exhaustive._lane_word(1, 1) == (np.uint16, 3)
        # (word, is lane 2^d implied): the narrowest word that holds the
        # explicit lanes; n = 5, d = 3 needs uint64 either way
        assert words == {
            (3, 1): (np.uint16, False),
            (4, 1): (np.uint16, True),
            (4, 2): (np.uint32, False),
            (5, 1): (np.uint16, True),
            (5, 2): (np.uint32, True),
            (5, 3): (np.uint64, False),
        }


# --- symmetry-table internals ------------------------------------------------


def _vertex_tuple(mask: int, n: int) -> tuple[int, ...]:
    """Reference witness order: the ascending tuple of member vertices."""
    return tuple(v for v in range(1 << n) if (mask >> v) & 1)


def _apply_group_element(mask: int, perm: tuple[int, ...], t: int, n: int) -> int:
    img = 0
    for v in range(1 << n):
        if (mask >> v) & 1:
            w = sum(((v >> k) & 1) << perm[k] for k in range(n)) ^ t
            img |= 1 << w
    return img


@functools.lru_cache(maxsize=None)
def _vertex_maps(n: int) -> tuple[tuple[int, ...], ...]:
    """Image of every vertex under each symmetry (perm then translate)."""
    return tuple(
        tuple(
            sum(((v >> k) & 1) << perm[k] for k in range(n)) ^ t
            for v in range(1 << n)
        )
        for perm in itertools.permutations(range(n))
        for t in range(1 << n)
    )


def _full_orbit(mask: int, n: int) -> set[int]:
    verts = _vertex_tuple(mask, n)
    return {sum(1 << vmap[v] for v in verts) for vmap in _vertex_maps(n)}


def _orbit_least(cands, n: int) -> int:
    """Reference: tuple-least mask over the expanded orbits of cands."""
    return min(
        (m for c in cands for m in _full_orbit(int(c), n)),
        key=lambda m: _vertex_tuple(m, n),
    )


def _swap_row(n: int, i: int, j: int) -> int:
    """The ``_symmetries(n)`` row of the swap i <-> j, or of τ_(2^i) if i == j."""
    if i == j:
        return 1 << i
    perm = list(range(n))
    perm[i], perm[j] = j, i
    return list(itertools.permutations(range(n))).index(tuple(perm)) << n


class TestSymmetryTable:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_rows_match_the_reference_maps(self, n):
        table = _symmetries(n)
        assert table.shape == ((1 << n) * math.factorial(n), 1 << n)
        assert table.tolist() == [list(vmap) for vmap in _vertex_maps(n)]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_rows_translating_by_zero_are_the_coordinate_permutations(self, n):
        table = _symmetries(n).astype(int)
        v = np.arange(1 << n)
        for p, perm in enumerate(itertools.permutations(range(n))):
            row = table[p << n]
            # a linear map of GF(2)^n sending unit vector k to unit vector perm[k]
            assert [row[1 << k] for k in range(n)] == [1 << j for j in perm]
            assert np.array_equal(row[v[:, None] ^ v], row[:, None] ^ row)
            # the other rows of the block translate it
            for t in range(1 << n):
                assert np.array_equal(table[(p << n) + t], row ^ t)

    @pytest.mark.parametrize("n, dtype", [(3, np.uint8), (4, np.uint16), (5, np.uint32)])
    def test_images_match_pointwise_action(self, n, dtype):
        rng = np.random.default_rng(n)
        masks = rng.integers(0, 1 << (1 << n), size=3, dtype=np.uint64).astype(dtype)
        got = _images(masks, _symmetries(n))
        assert got.dtype == dtype
        group = list(itertools.product(itertools.permutations(range(n)), range(1 << n)))
        for m, row in zip(masks.tolist(), got.tolist()):
            assert row == [_apply_group_element(m, perm, t, n) for perm, t in group]

    def test_swizzles_match_pointwise_action(self):
        rng = np.random.default_rng(7)
        n = 4
        masks = rng.integers(0, 1 << 16, size=50, dtype=np.uint32)
        ident = tuple(range(n))
        swapped = (1, 0, 2, 3)
        got = _apply_swaps(masks, [_swap(n, 0, 1)])
        want = [_apply_group_element(int(m), swapped, 0, n) for m in masks]
        assert got.tolist() == want
        got = _apply_swaps(masks, [_swap(n, 0, 0), _swap(n, 2, 2)])
        want = [_apply_group_element(int(m), ident, 0b101, n) for m in masks]
        assert got.tolist() == want

    @pytest.mark.parametrize("n, dtype", [(4, np.uint16), (5, np.uint32), (5, np.uint64)])
    def test_every_swap_matches_its_table_row(self, n, dtype):
        rng = np.random.default_rng(40 + n)
        masks = rng.integers(0, 1 << (1 << n), size=64, dtype=np.uint64).astype(dtype)
        for i, j in itertools.combinations_with_replacement(range(n), 2):
            want = _images(masks, _symmetries(n)[[_swap_row(n, i, j)]])[:, 0]
            got = _apply_swaps(masks, [_swap(n, i, j)])
            assert got.dtype == dtype and np.array_equal(got, want), (i, j)

    def test_n5_candidates_and_filter_stay_in_uint32(self):
        highs = np.array([0, 0b1, 0b10110, 0xFFFF], dtype=np.uint64)
        chunks = list(_candidates(5, highs))
        assert chunks and all(c.dtype == np.uint32 for c in chunks)
        masks = np.concatenate(chunks)
        kept = _keep(5, masks)
        assert kept.dtype == np.uint32 and 0 < kept.size < masks.size
        assert np.array_equal(kept, _keep(5, masks.astype(np.uint64)))

    def test_the_filter_stops_once_no_mask_is_left(self, monkeypatch):
        # translating by vertex 16 takes {17} to {1}, which is smaller and
        # avoids vertex 0, so the first filter drops it and no other is applied
        applied = []
        apply = exhaustive._apply_swaps
        monkeypatch.setattr(
            exhaustive, "_apply_swaps", lambda m, s: applied.append(s) or apply(m, s)
        )
        kept = _keep(5, np.array([1 << 17], dtype=np.uint32))
        assert kept.size == 0 and len(applied) == 1

    def test_filter_products_match_their_table_rows(self):
        # the one-bit translations, high bit first, the swaps by falling
        # shift 2^j - 2^i, then the other translations by popcount
        pairs = [(0, 4), (1, 4), (2, 4), (3, 4), (0, 3), (1, 3), (2, 3), (0, 2), (1, 2), (0, 1)]
        rest = sorted((t for t in range(32) if t.bit_count() >= 2), key=int.bit_count)
        rows = [16, 8, 4, 2, 1] + [_swap_row(5, i, j) for i, j in pairs] + rest
        assert len(_filters(5)) == len(rows) == 41
        rng = np.random.default_rng(41)
        masks = rng.integers(0, 1 << 32, size=256, dtype=np.uint64)
        want = _images(masks, _symmetries(5)[rows])
        for k, swaps in enumerate(_filters(5)):
            assert np.array_equal(_apply_swaps(masks, swaps), want[:, k]), k

    @given(
        st.lists(st.integers(0, (1 << 32) - 1), min_size=1, max_size=40),
        st.sampled_from([np.uint32, np.uint64]),
    )
    def test_lex_least_matches_tuple_order(self, masks, dtype):
        got = _lex_least(np.array(masks, dtype=dtype))
        assert got == min(masks, key=lambda m: _vertex_tuple(m, 5))

    def test_lex_least_prefix_and_empty_edge_cases(self):
        cases = [
            ([0b0011, 0b0001], 0b0001),  # (0) is a prefix of (0, 1)
            ([0b0101, 0b0011], 0b0011),
            ([0b0110, 0b1001], 0b1001),  # lowest vertex decides first
            ([1 << 31, (1 << 31) | 1], (1 << 31) | 1),
            ([1 << 31], 1 << 31),  # stripping the top vertex empties it
            ([5, 0, 3], 0),  # the empty set precedes everything
            ([0], 0),
            ([6, 6, 6], 6),
        ]
        for masks, want in cases:
            assert _lex_least(np.array(masks, dtype=np.uint32)) == want

    @pytest.mark.parametrize("n", [3, 4])
    def test_least_image_matches_orbit_expansion(self, n):
        rng = np.random.default_rng(n)
        for _ in range(12):
            k = int(rng.integers(1, 6))
            cands = rng.integers(0, 1 << (1 << n), size=k, dtype=np.uint64)
            cands = np.unique(cands.astype(np.uint32))
            assert _least_image(cands, n) == _orbit_least(cands, n)

    def test_least_image_on_a_large_tie_set(self):
        # several hundred vertex-0-avoiding masks of one weight, like the
        # tie sets of a sweep, in blocks of 170
        rng = np.random.default_rng(44)
        picks = [1 + rng.choice(15, size=6, replace=False) for _ in range(400)]
        cands = np.unique([sum(1 << int(v) for v in p) for p in picks])
        cands = cands.astype(np.uint32)
        assert cands.size > 300
        assert _least_image(cands, 4) == _orbit_least(cands, 4)

    def test_least_image_at_n5(self):
        rng = np.random.default_rng(5)
        for k in (1, 2, 3):
            cands = rng.integers(0, 1 << 31, size=k, dtype=np.uint32) << np.uint32(1)
            assert _least_image(cands, 5) == _orbit_least(cands, 5)

    def test_least_image_across_block_boundaries(self, monkeypatch):
        # the 455 3-sets of vertices 1-15 of Q_5, 7 to a block, reach
        # {0, 1, 2}; the 2-set {1, 3}, alone in the last block, reaches
        # {0, 1}, which precedes it
        monkeypatch.setattr(exhaustive, "_CHUNK", 3840 * 7)
        masks = [sum(1 << v for v in c) for c in itertools.combinations(range(1, 16), 3)]
        cands = np.array(masks, dtype=np.uint32)
        assert cands.size == 455 == 65 * 7
        assert _least_image(cands, 5) == 0b111
        assert _least_image(np.append(cands, np.uint32(0b1010)), 5) == 0b11

    def test_least_image_comes_from_the_least_popcount_candidate(self):
        # {0, 1, 2} is the least candidate, but {1, 3} has the smaller
        # popcount and reaches {0, 1} under translation by 1
        cands = np.array([0b111, 0b1010], dtype=np.uint32)
        assert _lex_least(cands) == 0b111
        assert _least_image(cands, 3) == _orbit_least(cands, 3) == 0b11


def _least_images(masks: np.ndarray, n: int) -> set[int]:
    """Reference: the least integer image of each mask under every symmetry
    of ``_vertex_maps``, in float64 blocks, exact below 2^53."""
    weights = np.exp2(np.array(_vertex_maps(n))).T
    least = set()
    for lo in range(0, masks.size, 2048):
        member = (masks[lo : lo + 2048, None] >> np.arange(1 << n, dtype=masks.dtype)) & 1
        least.update((member @ weights).min(axis=1).astype(np.int64).tolist())
    return least


class TestSurvivorTables:
    """The survivor tables below n = 5 against a plain sweep of every mask."""

    @pytest.mark.parametrize("n", [3, 4])
    def test_matches_a_plain_sweep_of_every_mask(self, n):
        for d in range(1, n - 1):
            for s in range((1 << d) + 1):
                count, witness = plain_cell(n, d, s)
                val, wit = exhaustive_lambda(n, d, s)
                assert val == Fraction(count, subcube_count(n, d)), (n, d, s)
                assert wit.bits == witness, (n, d, s)

    @pytest.mark.parametrize("n, orbits", [(3, 21), (4, 401)])
    def test_survivors_reach_every_orbit(self, n, orbits):
        every = _least_images(np.arange(0, 1 << (1 << n), 2, dtype=np.uint32), n)
        assert len(every) == orbits and _least_images(_survivors(n), n) == every

    @pytest.mark.parametrize(
        "n, highs, candidates, survivors", [(3, 12, 62, 23), (4, 80, 4202, 670)]
    )
    def test_survivor_counts(self, n, highs, candidates, survivors):
        surv = _survivors(n)
        assert _canonical_highs(n).size == highs
        assert sum(c.size for c in _candidates(n, _canonical_highs(n))) == candidates
        assert surv.size == survivors and surv.dtype == np.uint32
        assert np.all(surv[1:] > surv[:-1]) and not np.any(surv & 1)


class TestSweepAtNFive:
    """The n = 5 branch of the sweep, over a small stub survivor set."""

    @pytest.fixture
    def stub(self, monkeypatch):
        rng = np.random.default_rng(55)
        masks = [0b110, 0b1101000, 0b10110, 0b111111110]
        masks += [2 * int(m) for m in rng.integers(0, 1 << 31, size=4)]
        masks = np.array(masks, dtype=np.uint32)
        monkeypatch.setattr(exhaustive, "_survivors", lambda n: masks)
        # chunks of two masks exercise the running best across chunks
        monkeypatch.setattr(exhaustive, "_CHUNK", 2)
        # fresh caches, so the real table's sweeps stay cached for other tests
        for name in ("_sweep", "_cell"):
            fresh = functools.lru_cache(getattr(exhaustive, name).__wrapped__)
            monkeypatch.setattr(exhaustive, name, fresh)
        return masks

    @pytest.mark.parametrize("d", range(3))
    def test_matches_orbit_reference(self, stub, d):
        # through _cell: exhaustive_lambda answers d = 0 without a sweep
        sets = [int(m) for m in stub] + [0xFFFFFFFF ^ int(m) for m in stub]
        counts = [distribution(VertexSet(5, m), d).counts for m in sets]
        for s in range((1 << d) + 1):
            best = max(c[s] for c in counts)
            tied = [m for m, c in zip(sets, counts) if c[s] == best]
            count, wit = exhaustive._cell(5, d, s)
            assert count == best, (d, s)
            assert wit == _orbit_least(tied, 5), (d, s)
            if d:
                val, w = exhaustive_lambda(5, d, s)
                assert (val, w.bits) == (Fraction(best, subcube_count(5, d)), wit)


class TestAmbientFive:
    """The real n = 5 survivor table, built once and shared by these tests."""

    def test_survivor_high_halves_are_least_under_s4(self):
        surv = _survivors(5)
        assert surv.size == 5_009_398
        assert surv.dtype == np.uint32
        digest = "ed2c4a73d29a3818c3c85637c949dc1b185e0aedc291be31168d33d9bfe18b02"
        assert hashlib.sha256(surv.tobytes()).hexdigest() == digest
        highs = _canonical_highs(5)
        assert highs.dtype == np.uint64
        digest = "670324313bcc6408436fe3660a887fcf2d190138121129a80440876f07e6dd58"
        assert hashlib.sha256(highs.tobytes()).hexdigest() == digest
        assert np.all(surv[1:] > surv[:-1]) and not np.any(surv & 1)
        halves = np.unique(surv >> np.uint32(16))
        for perm in itertools.permutations(range(4)):
            img = np.zeros_like(halves)
            for u in range(16):
                pu = sum(((u >> b) & 1) << perm[b] for b in range(4))
                img |= ((halves >> np.uint32(u)) & np.uint32(1)) << np.uint32(pu)
            assert np.all(halves <= img), perm

    # (λ, witness mask) of every swept n = 5 cell, by d, for s = 0 .. 2^d
    Q5_CELLS = {
        1: [(1, 0x0), (1, 0x69969669), (1, 0xFFFFFFFF)],
        2: [
            (1, 0x0),
            (Fraction(4, 5), 0x6609009),
            (1, 0xC33C3CC3),
            (Fraction(4, 5), 0x6FF6F99F),
            (1, 0xFFFFFFFF),
        ],
        3: [
            (1, 0x0),
            (Fraction(4, 5), 0x42000081),
            (1, 0x6609009),
            (1, 0x1698A443),
            (1, 0xFF0F00F),
            (1, 0x3DDAE697),
            (1, 0x6FF6F99F),
            (Fraction(4, 5), 0xFFDBE7FF),
            (1, 0xFFFFFFFF),
        ],
    }

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_q5_swept_cells(self, d):
        got = [exhaustive_lambda(5, d, s) for s in range((1 << d) + 1)]
        assert [(val, wit.bits) for val, wit in got] == self.Q5_CELLS[d]

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_codimension_two_matches_the_closed_form(self, d):
        # the paper's λ(d+2, d, s) = π(d+2, ω(s)) against brute force: all
        # 17 cells with d + 2 <= 5; the n = 5 ones reuse the swept table
        for s in range((1 << d) + 1):
            assert exhaustive_lambda(d + 2, d, s)[0] == lambda_d2_closed_form(d, s), s

    def test_codimension_two_control_with_one_part_short(self):
        # π(4, ω(1) - 1) = 2/3 misses the exhaustive λ(4, 2, 1) = 5/6
        w = omega(1)
        assert w.exact and w.lower == 3
        assert turan_density(4, w.lower - 1) == Fraction(2, 3)
        assert exhaustive_lambda(4, 2, 1)[0] == Fraction(5, 6)

    def test_q5_squares_single_point(self):
        val, wit = exhaustive_lambda(5, 2, 1)
        assert val == Fraction(4, 5)
        assert wit.vertices() == [0, 3, 12, 15, 21, 22, 25, 26]
        assert lambda_of_set(wit, 2, 1) == val

    def test_q5_cubes_single_point(self):
        val, wit = exhaustive_lambda(5, 3, 1)
        assert val == Fraction(4, 5)
        assert lambda_of_set(wit, 3, 1) == val

    def test_q5_codimension_one_all_perfect(self):
        for s in range(17):
            val, wit = exhaustive_lambda(5, 4, s)
            assert val == 1
            assert len(wit) == 2 * s
            # {0, ..., s-1} and their antipodes {31 - s + 1, ..., 31}
            assert wit.bits == ((1 << s) - 1) * (1 | 1 << (32 - s))

    def test_forced_low_bits_keep_the_same_survivors(self):
        highs = _canonical_highs(5)
        assert highs.size == 3984
        every_low = np.arange(0, 1 << 16, 2, dtype=np.uint64)
        rng = np.random.default_rng(16)
        sizes = []
        for h in rng.choice(highs, size=16, replace=False):
            forced = np.concatenate(list(_candidates(5, np.array([h]))))
            unforced = (h << np.uint64(16)) | every_low
            assert np.isin(forced, unforced).all()
            assert np.array_equal(_keep(5, forced), _keep(5, unforced)), int(h)
            sizes.append(forced.size)
        assert min(sizes) < every_low.size
        # every chunk stays short of _CHUNK plus the 2^15 even low halves of
        # one more high half, and all but the last reach _CHUNK masks
        chunks = [c.size for c in _candidates(5, highs)]
        assert sum(chunks) == 35_772_925
        assert max(chunks) < exhaustive._CHUNK + (1 << 15)
        assert min(chunks[:-1]) >= exhaustive._CHUNK
