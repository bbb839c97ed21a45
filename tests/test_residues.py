"""Binomial sums along residue classes and the constant-subset search."""

import cmath
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubestats import (
    CapabilityError,
    DomainError,
    LayeredSpec,
    ResidueSumTable,
    binomial,
    layered_distribution,
    q_binsum,
    residue_table,
    residues,
    third_layer_check,
    thm32_q,
    verify_prop31,
    verify_thm32,
)


def q_fourier(a: int, k: int, d: int) -> complex:
    """Root-of-unity evaluation of q_binsum, a float oracle for cross-checking.

    Computes (1/k) * sum_i w^(-i*a) * (1 + w^i)^d with w = exp(2*pi*I/k).
    Floating point, with an absolute error on the order of
    2^d * k * machine epsilon; q_binsum is the ground truth.
    """
    total = 0j
    for i in range(k):
        w_i = cmath.exp(2j * cmath.pi * i / k)
        total += cmath.exp(-2j * cmath.pi * i * a / k) * (1 + w_i) ** d
    return total / k


def _direct(a: int, k: int, d: int) -> int:
    return sum(binomial(d, i) for i in range(d + 1) if i % k == a)


def _reference_cases(k: int, dims) -> list:
    """The constant cases by the thm32_q loop, one call per mask, d and shift."""
    cases = []
    for mask in range(1 << k):
        subset = tuple(t for t in range(k) if (mask >> t) & 1)
        for d in dims:
            values = tuple(thm32_q(a, k, d, subset) for a in range(k))
            if len(set(values)) == 1:
                cases.append(residues.Thm32Case(d, subset, values))
    return cases


class TestBinsum:
    def test_pinned_values(self):
        assert q_binsum(0, 2, 4) == 8
        assert q_binsum(1, 2, 4) == 8
        assert [q_binsum(a, 3, 4) for a in range(3)] == [5, 5, 6]
        assert q_binsum(0, 1, 5) == 32

    def test_matches_direct_sum(self):
        for k in range(1, 8):
            for d in range(16):
                for a in range(k):
                    assert q_binsum(a, k, d) == _direct(a, k, d)

    @given(st.integers(1, 16), st.integers(0, 64), st.data())
    def test_rows_sum_to_power_of_two(self, k, d, data):
        a = data.draw(st.integers(0, k - 1))
        row = [q_binsum(b, k, d) for b in range(k)]
        assert sum(row) == 1 << d
        assert row[a] >= 0

    @given(st.integers(1, 12), st.integers(1, 48), st.data())
    def test_pascal_recurrence(self, k, d, data):
        a = data.draw(st.integers(0, k - 1))
        assert q_binsum(a, k, d) == q_binsum(a, k, d - 1) + q_binsum(
            (a - 1) % k, k, d - 1
        )

    def test_row_matches_comb_reference(self):
        for k in range(1, 9):
            for d in range(65):
                ref = [0] * k
                for i in range(d + 1):
                    ref[i % k] += math.comb(d, i)
                assert residues._binsum_row(k, d) == tuple(ref), (k, d)

    def test_rows_match_the_direct_sum_in_any_query_order(self, monkeypatch):
        # rows derived by Pascal's rule from a cached row d - 1 must equal
        # the direct sum, whichever rows happen to be cached
        monkeypatch.setattr(residues, "_ROWS", {})
        pairs = [(k, d) for k in range(1, 14) for d in range(201)]
        order = np.random.default_rng(3).permutation(len(pairs)).tolist()
        for i in order[: len(pairs) // 2] + list(range(len(pairs))):
            k, d = pairs[i]
            ref = [0] * k
            for j in range(d + 1):
                ref[j % k] += math.comb(d, j)
            assert residues._binsum_row(k, d) == tuple(ref), (k, d)

    def test_cold_row_far_from_the_cache(self, monkeypatch):
        monkeypatch.setattr(residues, "_ROWS", {})
        assert sum(residues._binsum_row(7, 1100)) == 1 << 1100
        assert residues._binsum_row(7, 1101) == tuple(
            _direct(a, 7, 1101) for a in range(7)
        )

    def test_domain(self):
        with pytest.raises(DomainError):
            q_binsum(3, 3, 4)
        with pytest.raises(DomainError):
            q_binsum(0, 0, 4)
        with pytest.raises(DomainError):
            q_binsum(0, 2, -1)

    def test_non_integer_residue_rejected(self):
        # 1.0 passes the range test but cannot index the row
        with pytest.raises(DomainError):
            q_binsum(1.0, 3, 4)

    @pytest.mark.parametrize(
        "k, d", [(3.0, 4), (3, 4.0), (True, 4), (3, True), ("3", 4), (3, None)]
    )
    def test_non_integer_modulus_or_dimension_rejected_cold_and_cached(
        self, monkeypatch, k, d
    ):
        # 3.0 hashes as 3, so the check must come before the cache lookup
        monkeypatch.setattr(residues, "_ROWS", {})
        with pytest.raises(DomainError):
            q_binsum(0, k, d)
        assert q_binsum(0, 3, 4) == 5  # row (3, 4) is now cached
        with pytest.raises(DomainError):
            q_binsum(0, k, d)
        with pytest.raises(DomainError):
            residue_table(k, d)

    def test_numpy_integer_modulus_and_dimension_stay_exact(self, monkeypatch):
        # C(100, i) passes the int64 range, so the row must be built in Python ints
        monkeypatch.setattr(residues, "_ROWS", {})
        assert q_binsum(0, np.int64(3), np.int64(100)) == _direct(0, 3, 100)
        assert q_binsum(2, np.uint8(7), np.int32(80)) == _direct(2, 7, 80)


class TestRowCap:
    def test_huge_dimension_raises_before_any_row_is_built(self, monkeypatch):
        # each of these started work on 2^70 binomials, with no answer in 2 s
        monkeypatch.setattr(residues, "_ROWS", {})
        calls = (
            lambda: q_binsum(0, 3, 2**70),
            lambda: residue_table(3, 2**70),
            lambda: third_layer_check(2**70),
            lambda: verify_thm32(3, [1, 2, 2**70]),  # the largest d is read first
        )
        for call in calls:
            with pytest.raises(CapabilityError):
                call()
        assert residues._ROWS == {}

    def test_cap_admits_its_own_dimension(self, monkeypatch):
        monkeypatch.setattr(residues, "_ROWS", {})
        cap = residues.ROW_CAP
        assert cap == 10_000
        # (2^d + 2 cos(d pi / 3)) / 3, with d = 4 (mod 6)
        assert q_binsum(0, 3, cap) == ((1 << cap) - 1) // 3
        assert sum(residue_table(3, cap).values) == 1 << cap
        assert verify_thm32(1, [cap]).ok
        calls = (
            lambda: q_binsum(0, 3, cap + 1),
            lambda: residue_table(3, cap + 1),
            lambda: third_layer_check(cap + 1),
            lambda: verify_thm32(1, [cap + 1]),
        )
        for call in calls:
            with pytest.raises(CapabilityError):
                call()


    def test_cache_keeps_one_row_per_modulus(self, monkeypatch):
        # a walk up to the cap must not leave its 10,000 rows (21.6 MiB) cached
        monkeypatch.setattr(residues, "_ROWS", {})
        tracemalloc.start()
        try:
            assert third_layer_check(residues.ROW_CAP)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 1 << 20
        assert list(residues._ROWS) == [3] and residues._ROWS[3][0] == residues.ROW_CAP


class TestTable:
    def test_residue_table_contents(self):
        t = residue_table(3, 4)
        assert t.values == (5, 5, 6)
        assert t.to_json()["values"] == ["5", "5", "6"]

    @pytest.mark.parametrize("d", [40, 80])
    def test_numpy_integer_arguments_give_the_plain_int_table(self, d):
        # 1 << np.int64(80) wraps, so the table must keep d as a Python int
        t = residue_table(np.uint8(7), np.int64(d))
        assert t == residue_table(7, d)
        assert type(t.k) is int and type(t.d) is int
        assert t.to_json() == residue_table(7, d).to_json()

    def test_validation(self):
        with pytest.raises(DomainError):
            ResidueSumTable(3, 4, (5, 5))  # wrong length
        with pytest.raises(DomainError):
            ResidueSumTable(3, 4, (5, 5, 7))  # wrong total


class TestFourier:
    def test_matches_exact_on_grid(self):
        for k in range(1, 13):
            for d in range(0, 41, 4):
                for a in range(k):
                    approx = q_fourier(a, k, d)
                    exact = q_binsum(a, k, d)
                    assert abs(approx - exact) <= 5e-3 * (1 + (1 << d)), (a, k, d)

    def test_small_cases_tight(self):
        assert q_fourier(0, 4, 6) == pytest.approx(q_binsum(0, 4, 6), abs=1e-6)


class TestSubsetSums:
    def test_singleton_and_extremes(self):
        for a in range(3):
            assert thm32_q(a, 3, 7, frozenset()) == 0
            assert thm32_q(a, 3, 7, frozenset({0, 1, 2})) == 128

    def test_matches_direct_filter(self):
        for k in range(1, 6):
            for d in range(10):
                for mask in range(1 << k):
                    T = frozenset(t for t in range(k) if (mask >> t) & 1)
                    for a in range(k):
                        want = sum(
                            binomial(d, i)
                            for i in range(d + 1)
                            if (i + a) % k in T
                        )
                        assert thm32_q(a, k, d, T) == want

    def test_subset_validation(self):
        with pytest.raises(DomainError):
            thm32_q(0, 3, 4, frozenset({3}))

    @pytest.mark.parametrize("a, T", [(0, {1.0}), (0, {True}), (1.0, {1}), (0, {"1"})])
    def test_non_integer_residues_rejected(self, a, T):
        # 1.0 and True pass a range test; each would index the row or return a sum
        with pytest.raises(DomainError):
            thm32_q(a, 3, 4, T)

    def test_numpy_integer_residues_accepted(self):
        assert thm32_q(np.int64(0), 3, 4, {np.uint8(1)}) == 5

    def test_large_modulus_does_not_build_its_residues(self):
        # weights stay <= n < k, so modulus 10^6 keeps the same layer as 31;
        # each thm32_q call checks T without a set of all k residues
        start = time.perf_counter()
        wide = layered_distribution(30, 3, LayeredSpec(10**6, frozenset({0})))
        assert time.perf_counter() - start < 1
        assert wide == layered_distribution(30, 3, LayeredSpec(31, frozenset({0})))


class TestNonConstancy:
    def test_holds_on_full_grid(self):
        for d in range(3, 17):
            for k in range(3, d + 1):
                assert verify_prop31(k, d), (k, d)

    def test_out_of_scope_rejected(self):
        with pytest.raises(DomainError):
            verify_prop31(2, 5)
        with pytest.raises(DomainError):
            verify_prop31(5, 4)


class TestConstantSubsetSearch:
    def test_small_modulus_classification(self):
        r = verify_thm32(2, [3])
        assert r.ok
        subsets = {frozenset(c.subset) for c in r.expected}
        assert subsets == {
            frozenset(),
            frozenset({0}),
            frozenset({1}),
            frozenset({0, 1}),
        }
        values = {c.values[0] for c in r.expected}
        assert values == {0, 4, 8}

    def test_odd_modulus_only_trivial_subsets(self):
        r = verify_thm32(3, range(3, 11))
        assert r.ok
        assert {frozenset(c.subset) for c in r.expected} == {
            frozenset(),
            frozenset({0, 1, 2}),
        }

    def test_constant_values_are_the_three_powers(self):
        for k in range(1, 7):
            r = verify_thm32(k, range(1, 13))
            assert r.ok
            for c in r.expected:
                assert len(set(c.values)) == 1
                assert c.values[0] in (0, 1 << (c.d - 1), 1 << c.d)

    def test_modulus_cap(self):
        with pytest.raises(DomainError):
            verify_thm32(17, [17])

    @pytest.mark.parametrize("dims", [[2.5], [True], [np.float64(3.9)]])
    def test_non_integer_dimensions_rejected(self, dims):
        # each was truncated by int() and scanned as a different dimension
        with pytest.raises(DomainError):
            verify_thm32(3, dims)


class TestConstantCaseKernel:
    """The stacked-product scan against the thm32_q loop it replaced."""

    @staticmethod
    def check_against_reference(k: int, dims) -> None:
        ref = _reference_cases(k, sorted(dims))
        report = verify_thm32(k, dims)

        def admissible(case):
            return residues._admissible(k, case.d).get(case.subset) == case.values[0]

        assert report.expected == tuple(c for c in ref if admissible(c)), k
        assert report.violations == tuple(c for c in ref if not admissible(c)), k
        assert report.ok, k

    @pytest.mark.parametrize("k", range(1, 11))
    def test_matches_loop_up_to_d16(self, k):
        self.check_against_reference(k, range(1, 17))

    @pytest.mark.parametrize("k", range(1, 9))
    def test_matches_loop_past_int64(self, k):
        # sums reach 2^d: int64 holds d <= 62, Python ints take over at 63
        self.check_against_reference(k, [61, 62, 63, 64, 100])

    @pytest.mark.parametrize("k, step", [(3, 2), (3, 3), (4, 2), (4, 3)])
    def test_matches_loop_across_stacks(self, monkeypatch, k, step):
        # stacks of two or three d: the 16 int64 d end in a partial stack
        # when step = 3, the three object d when step = 2
        monkeypatch.setattr(residues, "_STACK_ELEMS", step * (k << k))
        self.check_against_reference(k, [*range(1, 17), 63, 64, 100])


class TestAdmissibleFamilies:
    def test_families(self):
        assert residues._admissible(1, 3) == {(): 0, (0,): 8}
        assert residues._admissible(3, 0) == {(): 0, (0, 1, 2): 1}
        assert residues._admissible(4, 0) == {(): 0, (0, 1, 2, 3): 1}
        assert residues._admissible(4, 3) == {
            (): 0,
            (0, 1, 2, 3): 8,
            (0, 2): 4,
            (1, 3): 4,
        }

    def test_scan_missing_a_case_fails(self, monkeypatch):
        # negative control: drop one admissible case from an otherwise true scan
        scan = residues._constant_cases

        def drop_parity_class(k, dims):
            return [c for c in scan(k, dims) if (c.d, c.subset) != (2, (1, 3))]

        assert verify_thm32(4, range(1, 5)).ok
        monkeypatch.setattr(residues, "_constant_cases", drop_parity_class)
        report = verify_thm32(4, range(1, 5))
        assert not report.violations and not report.ok
