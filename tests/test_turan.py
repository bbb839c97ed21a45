"""Balanced multipartite edge counts and the two-codimension closed form."""

import itertools
import time
from fractions import Fraction

import numpy as np
import pytest

from cubestats import (
    DomainError,
    LambdaBounds,
    VertexSet,
    best_bounds,
    binomial,
    exhaustive_lambda,
    lambda_d2_closed_form,
    turan_density,
    turan_edges,
    turan_parts,
)
from cubestats.turan import occupancy_case


def _max_multipartite_edges(n: int, k: int) -> int:
    best = 0
    for assign in itertools.product(range(k), repeat=n):
        e = sum(1 for u, v in itertools.combinations(range(n), 2) if assign[u] != assign[v])
        best = max(best, e)
    return best


def _max_clique_free_edges(n: int, k: int) -> int:
    """Max edges over ALL graphs on n vertices with no (k+1)-clique."""
    pairs = list(itertools.combinations(range(n), 2))
    best = 0
    for g in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if (g >> i) & 1]
        if len(edges) <= best:
            continue
        adj = [0] * n
        for u, v in edges:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        has = any(
            all(adj[a] >> b & 1 for a, b in itertools.combinations(cl, 2))
            for cl in itertools.combinations(range(n), k + 1)
        )
        if not has:
            best = len(edges)
    return best


class TestTuranNumbers:
    def test_parts_are_balanced(self):
        assert turan_parts(4, 3) == [2, 1, 1]
        assert turan_parts(8, 3) == [3, 3, 2]
        assert turan_parts(5, 5) == [1, 1, 1, 1, 1]

    def test_edge_counts(self):
        assert turan_edges(4, 3) == 5
        assert turan_edges(8, 3) == 21
        assert turan_edges(7, 3) == 16
        assert turan_edges(6, 6) == binomial(6, 2)

    def test_matches_best_multipartite_assignment(self):
        for n in range(2, 8):
            for k in range(2, 5):
                assert turan_edges(n, k) == _max_multipartite_edges(n, k), (n, k)

    def test_matches_exhaustive_clique_free_maximum(self):
        # Turan's theorem itself, brute-forced over all graphs on 5 vertices
        for k in (2, 3):
            assert turan_edges(5, k) == _max_clique_free_edges(5, k)

    def test_density(self):
        assert turan_density(4, 3) == Fraction(5, 6)
        assert turan_density(5, 7) == 1
        assert turan_density(8, 7) == Fraction(27, 28)
        assert turan_density(1, 3) == 1

    def test_parts_past_n_are_never_built(self):
        # 4·2^40 + 3 parts would not fit in memory; at most 62 are nonempty
        start = time.perf_counter()
        assert turan_density(62, 4 * 2**40 + 3) == 1
        assert time.perf_counter() - start < 1
        for n in range(6):
            for k in range(1, 9):
                spread = sum(binomial(p, 2) for p in turan_parts(n, k))
                assert turan_edges(n, k) == binomial(n, 2) - spread, (n, k)

    def test_domain(self):
        with pytest.raises(DomainError):
            turan_edges(4, 0)
        with pytest.raises(DomainError):
            turan_parts(-1, 2)


class TestTwoCodimensionClosedForm:
    def test_single_point_small_d(self):
        assert lambda_d2_closed_form(2, 1) == Fraction(5, 6)
        assert lambda_d2_closed_form(3, 1) == Fraction(4, 5)
        assert lambda_d2_closed_form(4, 1) == Fraction(4, 5)
        assert lambda_d2_closed_form(5, 1) == Fraction(16, 21)

    def test_single_point_saturates(self):
        assert lambda_d2_closed_form(6, 1) == Fraction(3, 4)
        assert lambda_d2_closed_form(12, 1) == Fraction(3, 4)

    def test_trivial_occupancies(self):
        assert lambda_d2_closed_form(3, 0) == 1
        assert lambda_d2_closed_form(3, 4) == 1
        assert lambda_d2_closed_form(3, 8) == 1

    def test_hadamard_backed_values(self):
        assert lambda_d2_closed_form(3, 2) == 1
        assert lambda_d2_closed_form(4, 3) == 1
        assert lambda_d2_closed_form(6, 2) == Fraction(27, 28)

    def test_mirror(self):
        assert lambda_d2_closed_form(3, 6) == lambda_d2_closed_form(3, 2)
        assert lambda_d2_closed_form(2, 3) == Fraction(5, 6)

    def test_huge_d_never_builds_two_to_the_d(self):
        # 2^(10^11) would need 12.5 GB; small s decides everything without it
        assert lambda_d2_closed_form(10**11, 1) == Fraction(3, 4)
        assert lambda_d2_closed_form(10**11, 0) == 1
        with pytest.raises(DomainError):
            lambda_d2_closed_form(10**11, -1)

    def test_unresolved_clique_number_gives_interval(self):
        out = lambda_d2_closed_form(12, 7)
        assert isinstance(out, tuple)
        lo, hi = out
        assert 0 < lo <= hi <= 1

    def test_concatenated_blocks_tighten_the_interval(self):
        # ω(7) >= 11 from blocks of orders 12 and 16, where a scan found 3
        lo, hi = lambda_d2_closed_form(12, 7)
        assert lo == turan_density(14, 11) > turan_density(14, 3)
        assert hi == turan_density(14, 27)

    def test_domain(self):
        with pytest.raises(DomainError):
            lambda_d2_closed_form(-1, 0)
        with pytest.raises(DomainError):
            lambda_d2_closed_form(3, 9)


class TestOccupancyArguments:
    """Every entry through ``occupancy_case`` takes integers only."""

    ENTRIES = [
        (best_bounds, (3,)),
        (exhaustive_lambda, (3, 1)),
        (exhaustive_lambda, (4, 2)),
        (lambda_d2_closed_form, (3,)),
    ]

    @pytest.mark.parametrize("s", [1.0, 2.5, True, None, "1"])
    @pytest.mark.parametrize("entry, head", ENTRIES)
    def test_non_integer_s_is_a_domain_error(self, entry, head, s):
        with pytest.raises(DomainError, match="must be an integer"):
            entry(*head, s)

    @pytest.mark.parametrize("d", [3.0, True])
    def test_non_integer_d_is_a_domain_error(self, d):
        for entry in (best_bounds, lambda_d2_closed_form, occupancy_case):
            with pytest.raises(DomainError, match="must be an integer"):
                entry(d, 1)

    @pytest.mark.parametrize("entry, head", ENTRIES)
    def test_numpy_integers_give_the_plain_answer(self, entry, head):
        for s in range(3):
            want = entry(*head, s)
            got = entry(*map(np.int64, head), np.int64(s))
            assert got == want
            # the reported s, or the witness bits, are Python ints again
            if isinstance(got, LambdaBounds):
                assert (type(got.d), type(got.s)) == (int, int)
            elif isinstance(got, tuple) and isinstance(got[1], VertexSet):
                assert type(got[1].bits) is int

    def test_numpy_integers_are_range_checked_as_ints(self):
        assert occupancy_case(np.int64(3), np.uint8(6)) == (None, 2)
        assert type(occupancy_case(np.int32(3), np.int64(6))[1]) is int
        with pytest.raises(DomainError):
            occupancy_case(np.int64(3), np.uint8(9))
