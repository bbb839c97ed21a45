"""Lower-bound constructions: syndrome sets, layers, cliques, perturbations."""

import hashlib
import itertools
import math
import os
import random
import subprocess
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubestats import (
    CapabilityError,
    CertificateError,
    CliqueCertificate,
    DomainError,
    GF2Matrix,
    LayeredSpec,
    Subcube,
    VertexSet,
    bernoulli_set,
    best_bounds,
    build_construction,
    c_d,
    c_dk,
    c_star,
    c_star_enumerated,
    constructions,
    distribution,
    distribution_fast,
    expected_single_fraction,
    gf2_rank,
    hadamard_matrix,
    hadamard_to_clique,
    layered_set,
    mod_weight_set,
    omega,
    parity_set,
    perturb_parity,
    perturbation_preserves,
    spanning_fraction,
    subcube_count,
    syndrome_set,
    turan_extremal_set,
    two_adic_split,
    weight_top_bottom_set,
)


class TestSyndrome:
    def test_identity_matrix_selects_colors(self):
        assert syndrome_set(GF2Matrix.identity(3), {0}).vertices() == [0]
        assert syndrome_set(GF2Matrix.identity(3), {0, 5}).vertices() == [0, 5]

    def test_all_ones_row_gives_parity_classes(self):
        B = GF2Matrix.from_rows([[1, 1, 1, 1]])
        assert syndrome_set(B, {0}) == parity_set(4)
        assert syndrome_set(B, {1}) == parity_set(4).complement()

    def test_color_classes_have_equal_size_at_full_rank(self):
        B = GF2Matrix.from_rows([[1, 0, 1, 1, 0], [0, 1, 1, 0, 1]])
        sizes = [len(syndrome_set(B, {c})) for c in range(4)]
        assert sizes == [8, 8, 8, 8]

    def test_bad_color_rejected(self):
        with pytest.raises(DomainError):
            syndrome_set(GF2Matrix.identity(2), {4})

    @pytest.mark.parametrize("rows", [33, 40, 64])
    def test_rows_past_32_match_brute_force(self, rows):
        # rows 0-31 are zero, so only the syndrome bits from 32 up tell x apart
        rng = np.random.default_rng(rows)
        high = ["".join(map(str, r)) for r in rng.integers(0, 2, size=(rows - 32, 6))]
        B = GF2Matrix.from_json({"rows": rows, "cols": 6, "data": ["0" * 6] * 32 + high})

        def syndrome(x):
            return sum(((m & x).bit_count() & 1) << i for i, m in enumerate(B.row_masks))

        colors = {syndrome(x) for x in (0, 7, 40)} | {1 << (rows - 1)}
        expected = [x for x in range(64) if syndrome(x) in colors]
        assert syndrome_set(B, colors).vertices() == expected

    def test_spanning_fraction_counts_full_rank_subsets(self):
        B = GF2Matrix.from_rows([[1, 0, 1], [0, 1, 0]])
        assert spanning_fraction(B, 2) == Fraction(2, 3)
        assert spanning_fraction(B, 3) == 1
        assert spanning_fraction(B, 1) == 0

    def test_spanning_fraction_matches_ranking_the_restricted_columns(self):
        # every d, on seeded matrices up to 8 x 12; every third has a row
        # that is the XOR of two others, so some never reach full rank
        rng = random.Random(44)
        for i in range(210):
            rows, cols = rng.randint(0, 8), rng.randint(0, 12)
            masks = [rng.getrandbits(cols) for _ in range(rows)]
            if i % 3 == 0 and rows >= 3:
                masks[0] = masks[1] ^ masks[2]
            B = GF2Matrix(rows, cols, tuple(masks))
            for d in range(cols + 1):
                subsets = list(itertools.combinations(range(cols), d))
                hits = sum(gf2_rank(B.restrict_columns(c)) == rows for c in subsets)
                assert spanning_fraction(B, d) == Fraction(hits, len(subsets)), (B, d)

    def test_spanning_fraction_certifies_subcube_counts(self):
        # every spanning free-set gives a subcube meeting A in exactly
        # m 2^(d-r) vertices, so the count at that occupancy is at least
        # spanning_fraction of all subcubes
        B = GF2Matrix.from_rows([[1, 0, 1], [0, 1, 0]])
        A = syndrome_set(B, {0})
        dist = distribution_fast(A, 2)
        assert dist.counts[1] >= spanning_fraction(B, 2) * dist.total

    def test_spanning_fraction_domain(self):
        with pytest.raises(DomainError):
            spanning_fraction(GF2Matrix.identity(2), 3)


class TestRankConstants:
    def test_nonzero_column_span_probabilities(self):
        assert c_d(1) == 1
        assert c_d(2) == Fraction(2, 3)
        assert c_d(3) == Fraction(24, 49)

    def test_full_row_rank_probabilities(self):
        assert c_dk(3, 1) == Fraction(21, 32)
        assert c_dk(4, 1) == Fraction(315, 512)
        assert c_dk(2, 2) == 1

    def test_nonzero_variant_pinned_and_enumerated(self):
        assert c_star(3, 1) == Fraction(8, 9)
        for d in range(1, 5):
            for k in range(1, d + 1):
                assert c_star(d, k) == c_star_enumerated(d, k), (d, k)
        assert c_star(5, 5) == 1

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_no_rows_have_full_rank_for_certain(self, d):
        # k = d leaves a 0 x d matrix; the enumeration has no nonzero column to try
        assert c_star_enumerated(d, d) == c_star(d, d) == 1

    def test_grid_ordering(self):
        for d in range(1, 13):
            for k in range(1, d + 1):
                lo = 1 - Fraction(1, 1 << k)
                assert c_star(d, k) >= c_dk(d, k) > lo, (d, k)

    def test_expected_single_fraction(self):
        assert expected_single_fraction(3) == Fraction(7, 8) ** 7
        assert expected_single_fraction(3) == Fraction(823543, 2097152)

    def test_syndrome_cap_admits_d_400_and_no_more(self):
        # c_d falls to the product of 1 - 2^-i over i >= 1
        assert abs(float(c_d(400)) - 0.28878809508660242) < 1e-15
        # d columns of F_2^2 fail to span it when all are one nonzero column
        assert c_star(400, 398) == 1 - Fraction(3, 3**400)
        with pytest.raises(CapabilityError, match="capped at d <= 400"):
            c_d(401)
        with pytest.raises(CapabilityError, match="capped at d <= 400"):
            c_star(401, 399)

    def test_other_caps_admit_their_last_value_and_no_more(self):
        assert c_dk(1000, 999) == 1 - Fraction(1, 1 << 1000)
        with pytest.raises(CapabilityError, match="capped at d <= 1000"):
            c_dk(1001, 1000)
        # 2 x 9 and 1 x 18 matrices have the 18 entries the cap admits
        assert c_star_enumerated(9, 7) == c_star(9, 7) == 1 - Fraction(1, 3**8)
        assert c_star_enumerated(18, 17) == 1
        for d, k in ((19, 18), (5, 1)):
            with pytest.raises(CapabilityError, match=r"capped at \(d-k\)·d <= 18"):
                c_star_enumerated(d, k)
        assert abs(float(expected_single_fraction(18)) - math.exp(-1)) < 1e-5
        with pytest.raises(CapabilityError, match="capped at d <= 18"):
            expected_single_fraction(19)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: c_d(2**70),
            lambda: c_star(2**70, 1),
            lambda: c_star(2**70, 2**70 - 3),
            lambda: c_dk(2**70, 1),
            lambda: c_star_enumerated(2**70, 1),
            lambda: c_star_enumerated(2**70, 2**70 - 1),
            lambda: expected_single_fraction(2**70),
        ],
    )
    def test_huge_d_is_refused_before_any_work(self, call):
        with pytest.raises(CapabilityError):
            call()

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            c_d(0)
        with pytest.raises(DomainError):
            c_dk(3, 4)
        with pytest.raises(DomainError):
            c_star(3, 0)


def test_two_adic_split():
    assert two_adic_split(12) == (2, 3)
    assert two_adic_split(1) == (0, 1)
    assert two_adic_split(8) == (3, 1)
    with pytest.raises(DomainError):
        two_adic_split(0)


def _reference_bernoulli(n: int, d: int, seed: int) -> VertexSet:
    """bernoulli_set by the public route: a Generator on Philox(key=seed)."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    total_bits = (1 << n) * d
    raw = np.frombuffer(rng.bytes((total_bits + 7) // 8), dtype=np.uint8)
    bits = np.unpackbits(raw, bitorder="little")[:total_bits].reshape(1 << n, d)
    return VertexSet.from_flags(n, ~bits.any(axis=1))


class TestConcreteSets:
    def test_bernoulli_reproducible_per_seed(self):
        a = bernoulli_set(8, 3, seed=42)
        assert a == bernoulli_set(8, 3, seed=42)
        assert a != bernoulli_set(8, 3, seed=43)

    def test_bernoulli_zero_cost_keeps_everything(self):
        assert bernoulli_set(4, 0, seed=1) == VertexSet.full(4)

    @pytest.mark.parametrize(
        "n, d, seed, digest",
        [
            (
                10,
                3,
                0,
                "8f6a627567cf199597e494d1c6b495e1b89642de30c6015757cb142e64082baa",
            ),
            (
                9,
                0,
                1,
                "8667e718294e9e0df1d30600ba3eeb201f764aad2dad72748643e4a285e1d1f7",
            ),
            (
                11,
                5,
                2**63 - 1,
                "c6c12afa298965ea03d6be996be8713460281bcc313250be1e759b9b81d97a13",
            ),
            (
                8,
                8,
                2**128 - 1,
                "66687aadf862bd776c8fc18b8e9f8e20089714856ee233b3902a591d0d5f2925",
            ),
        ],
    )
    def test_bernoulli_membership_is_pinned(self, n, d, seed, digest):
        # sha256 of the little-endian membership mask, pinned so that a
        # faster kernel cannot change which vertices a seed keeps
        bits = bernoulli_set(n, d, seed).bits
        mask = bits.to_bytes(1 << (n - 3), "little")
        assert hashlib.sha256(mask).hexdigest() == digest

    @pytest.mark.parametrize(
        "seed", [0, 1, 2**63 - 1, 2**64 - 1, 2**64, 2**128 - 1]
    )
    @pytest.mark.parametrize("n, d", [(3, 3), (0, 0), (2, 2), (5, 1), (10, 3), (9, 7)])
    def test_bernoulli_stream_is_the_generator_bytes(self, n, d, seed):
        assert bernoulli_set(n, d, seed) == _reference_bernoulli(n, d, seed)
        # the raw words from any counter step on, against the same stream
        words = constructions._philox_words(seed, 8, 5)
        stream = np.random.Generator(np.random.Philox(key=seed)).bytes(13 * 8)
        assert words.astype("<u8").tobytes() == stream[8 * 8 :]

    @pytest.mark.parametrize("n, d", [(12, 5), (11, 7), (9, 3)])
    def test_bernoulli_blocks_join_into_the_one_stream(self, monkeypatch, n, d):
        # small blocks, one of them short, read the stream in many pieces
        monkeypatch.setattr(constructions, "_BLOCK_BITS", 3000)
        for seed in (4, 2**100 + 3):
            assert bernoulli_set(n, d, seed) == _reference_bernoulli(n, d, seed)

    def test_bernoulli_monte_carlo_shape_is_one_block(self, monkeypatch):
        calls = []
        words = constructions._philox_words
        monkeypatch.setattr(
            constructions, "_philox_words", lambda *a: calls.append(a) or words(*a)
        )
        bernoulli_set(10, 3, 11)
        assert calls == [(11, 0, 48)]

    def test_bernoulli_draws_from_threads_equal_serial_draws(self):
        jobs = [(n, d, seed) for seed in range(24) for n, d in [(10, 3), (17, 9), (6, 6)]]
        serial = [bernoulli_set(*job).bits for job in jobs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, to interleave the draws
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                drawn = pool.map(lambda job: bernoulli_set(*job).bits, jobs, timeout=60)
                threaded = list(drawn)
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial

    def test_bernoulli_makes_no_generator_after_the_first_draw(self, monkeypatch):
        first = bernoulli_set(10, 3, 5)
        want = _reference_bernoulli(8, 8, 2**128 - 1)

        def philox(*args, **kwargs):
            raise AssertionError("a second Philox generator was made")

        monkeypatch.setattr(np.random, "Philox", philox)
        assert bernoulli_set(10, 3, 5) == first
        assert bernoulli_set(8, 8, 2**128 - 1) == want

    def test_import_leaves_numpy_random_unloaded(self):
        # numpy.random takes about 18 ms to import; the first draw pays it
        code = (
            "import sys, cubestats, cubestats.cli\n"
            "assert 'numpy.random' not in sys.modules, 'numpy.random imported'\n"
            "cubestats.bernoulli_set(3, 1, 0)\n"
            "assert 'numpy.random' in sys.modules\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        result = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr

    def test_bernoulli_density_near_target(self):
        n, d, reps = 6, 2, 200
        kept = sum(len(bernoulli_set(n, d, seed)) for seed in range(reps))
        frac = kept / (reps << n)
        assert abs(frac - 0.25) < 0.02

    def test_layered_membership(self):
        A = layered_set(4, LayeredSpec(3, frozenset({0})))
        assert A.vertices() == [0, 7, 11, 13, 14]
        assert parity_set(3).vertices() == [0, 3, 5, 6]

    @pytest.mark.parametrize("k", [10**12, 2**70])
    def test_layered_modulus_above_n(self, k):
        # past k = n + 1 every weight is its own residue; neither Z_k nor an
        # int64 cast of k may be built
        A = layered_set(4, LayeredSpec(k, frozenset({0, 3, k - 1})))
        assert A == layered_set(4, LayeredSpec(5, frozenset({0, 3})))

    @pytest.mark.parametrize("n", [0, 1, 5, 9])
    def test_sets_match_per_vertex_sums(self, n):
        # rows 0, 1, 8, 9, 16, 17, 32, 33, 64 cross every syndrome dtype edge
        rng = random.Random(n)
        for r in [0, 1, 8, 9, 16, 17, 32, 33, 64]:
            B = GF2Matrix(r, n, tuple(rng.getrandbits(n) for _ in range(r)))
            synd = [
                sum(((m & x).bit_count() & 1) << i for i, m in enumerate(B.row_masks))
                for x in range(1 << n)
            ]
            several = {synd[rng.getrandbits(n)] for _ in range(3)}
            several |= {rng.getrandbits(r), (1 << r) - 1}
            for colors in [set(), {0}, several]:
                expected = [x for x in range(1 << n) if synd[x] in colors]
                assert syndrome_set(B, colors).vertices() == expected, (r, colors)
        for k in sorted({1, 2, 3, n, n + 1, n + 2} - {0}):
            for T in [frozenset(), frozenset(range(0, k, 2)), frozenset(range(k))]:
                expected = [x for x in range(1 << n) if x.bit_count() % k in T]
                assert layered_set(n, LayeredSpec(k, T)).vertices() == expected, (k, T)

    def test_builders_peak_in_a_few_bytes_per_vertex(self):
        n = 20
        rng = np.random.default_rng(20)
        rows = [tuple(map(int, rng.integers(0, 1 << n, r))) for r in (8, 20)]
        builds = [(3, lambda: layered_set(n, LayeredSpec(3, frozenset({0}))))]
        builds += [
            (8, lambda m=m: syndrome_set(GF2Matrix(len(m), n, m), {0, 1, 2, 3}))
            for m in rows
        ]
        # bernoulli_set unpacks at most _BLOCK_BITS stream bits at a time, so
        # d = 8 peaks no higher than d = 1 (3.5 B/vertex; 5.5 with twice the block)
        builds.append((4, lambda: bernoulli_set(n, 8, 20)))
        for bytes_per_vertex, build in builds:
            build()  # first-use imports are not the builder's memory
            tracemalloc.start()
            try:
                build()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= bytes_per_vertex << n, (bytes_per_vertex, peak / (1 << n))

    def test_mod_weight_values(self):
        A = mod_weight_set(4, 2)
        assert len(A) == 5
        assert distribution_fast(A, 2).fraction(1) == Fraction(3, 4)
        B = mod_weight_set(10, 2)
        assert len(B) == 341
        assert distribution_fast(B, 2).fraction(1) == Fraction(171, 256)

    def test_weight_top_bottom_shape(self):
        W = weight_top_bottom_set(6)
        assert W.n == 8 and len(W) == 9
        assert distribution_fast(W, 6).fraction(1) == Fraction(3, 4)
        # also exact at the next dimension up
        W7 = weight_top_bottom_set(7)
        assert distribution_fast(W7, 7).fraction(1) == Fraction(3, 4)

    def test_weight_top_bottom_claim_is_its_exact_lambda(self):
        for d in range(1, 11):
            res = build_construction({"kind": "weight_top_bottom", "d": d})
            assert res.claim_value == distribution(res.vertex_set, d).fraction(1), d
        assert res.claim_value == Fraction(3, 4)
        assert build_construction({"kind": "weight_top_bottom", "d": 1}).claim_value == 1

    def test_weight_top_bottom_domain(self):
        with pytest.raises(DomainError):
            weight_top_bottom_set(0)


def _turan_claim(d, s):
    clique = omega(s).certificate.to_json()
    return build_construction({"kind": "turan_extremal", "d": d, "s": s, "clique": clique})


class TestTuranExtremal:
    def test_triangle_clique_attains_turan_density(self):
        A = turan_extremal_set(2, 1, omega(1).certificate)
        assert A.vertices() == [2, 4, 9, 15]
        assert distribution_fast(A, 2).fraction(1) == Fraction(5, 6)

    def test_degenerate_single_member_collapses(self):
        member = omega(1).certificate.members[0]
        A = turan_extremal_set(2, 1, CliqueCertificate(1, (member,)))
        assert A.vertices() == [0, 15]
        assert distribution_fast(A, 2).fraction(1) == Fraction(1, 2)

    def test_hadamard_subclique_perfect_at_s2(self):
        full = hadamard_to_clique(hadamard_matrix(8))
        sub = CliqueCertificate(2, full.members[:5])
        A = turan_extremal_set(3, 2, sub)
        assert len(A) == 8
        assert distribution_fast(A, 3).fraction(2) == 1

    @pytest.mark.parametrize("d, s", [(4, 4), (2, 3)])
    def test_collapsed_rows_warn(self, d, s):
        res = _turan_claim(d, s)
        assert len(res.vertex_set) < 4 * s and res.warning
        assert distribution(res.vertex_set, d).fraction(s) < res.claim_value == 1

    def test_no_claim_above_two_to_the_d(self):
        # no 1-subcube holds 3 vertices, so λ(3, 1, 3) is not a quantity
        assert _turan_claim(1, 3).to_json()["claim"] is None
        assert _turan_claim(1, 2).to_json()["claim"] is not None

    def test_claims_without_a_warning_match_the_oracle(self):
        checked = 0
        for s in range(1, 5):
            for d in range(9):
                res = _turan_claim(d, s)
                assert res.warning == (len(res.vertex_set) < 4 * s)
                if not res.warning:
                    lam = distribution(res.vertex_set, d).fraction(s)
                    assert lam == res.claim_value, (d, s)
                    checked += 1
        assert checked == 25

    def test_invalid_certificate_rejected(self):
        with pytest.raises(CertificateError):
            turan_extremal_set(2, 1, CliqueCertificate(1, ()))
        with pytest.raises(CertificateError):
            turan_extremal_set(2, 2, omega(1).certificate)


class TestPerturbation:
    def test_xor_semantics(self):
        A = VertexSet.from_vertices(2, [0, 3])
        q = Subcube(2, 0b01, 0b00)  # edge {0, 1}
        assert perturb_parity(A, [q]).vertices() == [1, 3]

    def test_disjoint_high_dimension_preserves_half_count(self):
        q1 = Subcube(5, 0b00111, 0b00000)
        q2 = Subcube(5, 0b00111, 0b01000)
        assert perturbation_preserves(5, 3, [q1, q2])
        B = perturb_parity(parity_set(5), [q1, q2])
        assert distribution_fast(B, 3).fraction(4) == 1

    def test_overlapping_pair_can_break_it(self):
        q1 = Subcube(5, 0b00111, 0b00000)
        q2 = Subcube(5, 0b11100, 0b00000)
        assert not perturbation_preserves(5, 3, [q1, q2])
        B = perturb_parity(parity_set(5), [q1, q2])
        assert distribution_fast(B, 3).fraction(4) == Fraction(4, 5)

    def test_low_dimension_rejected(self):
        assert not perturbation_preserves(5, 3, [Subcube(5, 0b00011, 0)])

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            perturb_parity(parity_set(3), [Subcube(4, 0b1111, 0)])

    @given(st.integers(3, 7), st.data())
    @settings(max_examples=30, deadline=None)
    def test_admissible_disjoint_perturbations_keep_lambda_one(self, n, data):
        d = data.draw(st.integers(2, min(4, n - 1)))
        m = data.draw(st.integers(n - d + 1, n - 1))
        free = (1 << m) - 1
        bases = data.draw(
            st.lists(
                st.integers(0, (1 << (n - m)) - 1).map(lambda b: b << m),
                min_size=1,
                max_size=3,
                unique=True,
            )
        )
        cubes = [Subcube(n, free, b) for b in bases]
        assert perturbation_preserves(n, d, cubes)
        B = perturb_parity(parity_set(n), cubes)
        assert distribution_fast(B, d).fraction(1 << (d - 1)) == 1


class TestDispatch:
    def test_syndrome_spec(self):
        res = build_construction(
            {
                "kind": "syndrome",
                "matrix": {"rows": 1, "cols": 4, "data": ["1111"]},
                "colors": [0],
            }
        )
        assert res.vertex_set == parity_set(4)
        assert not res.warning

    def test_syndrome_claims_nothing_below_the_row_count(self):
        # d = 2 columns cannot reach rank 3, and s = 6 colours exceed 2^d
        matrix = {"rows": 3, "cols": 4, "data": ["1000", "0100", "0010"]}
        spec = {"kind": "syndrome", "matrix": matrix, "colors": list(range(6))}
        assert build_construction({**spec, "d": 2}).to_json()["claim"] is None
        claim = build_construction({**spec, "d": 3}).to_json()["claim"]
        assert (claim["s"], claim["lambda"], claim["relation"]) == (6, "1/4", "ge")

    def test_parity_claim_checks_out(self):
        res = build_construction({"kind": "parity", "n": 5, "d": 3})
        lam = distribution_fast(res.vertex_set, res.claim_d).fraction(res.claim_s)
        assert lam == res.claim_value == 1

    def test_mod_weight_claim(self):
        res = build_construction({"kind": "mod_weight", "n": 10, "d": 2})
        assert res.claim_value == Fraction(171, 256)
        assert res.claim_relation == "eq"

    def test_bernoulli_uses_seed(self):
        a = build_construction({"kind": "bernoulli", "n": 6, "d": 2, "seed": 9})
        b = build_construction({"kind": "bernoulli", "n": 6, "d": 2, "seed": 9})
        assert a.vertex_set == b.vertex_set

    def test_perturbed_overlap_warns(self):
        res = build_construction(
            {
                "kind": "perturbed_parity",
                "n": 5,
                "d": 3,
                "cubes": [
                    {"free": 7, "base": 0},
                    {"free": 28, "base": 0},
                ],
            }
        )
        assert res.warning

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            build_construction({"kind": "mystery"})

    def test_turan_spec_roundtrip(self):
        res = build_construction(
            {
                "kind": "turan_extremal",
                "d": 2,
                "s": 1,
                "clique": omega(1).certificate.to_json(),
            }
        )
        assert distribution_fast(res.vertex_set, 2).fraction(1) == res.claim_value

    def test_result_json_shape(self):
        res = build_construction({"kind": "parity", "n": 4, "d": 2})
        obj = res.to_json()
        assert obj["kind"] == "parity"
        assert obj["claim"]["relation"] == "eq"


class TestBestBounds:
    def test_pinned_intervals(self):
        b = best_bounds(2, 1)
        assert (b.lower, b.upper) == (Fraction(2, 3), Fraction(17143, 25000))
        assert b.upper_source.text(2) == "reference-constant"
        b = best_bounds(3, 2)
        assert (b.lower, b.upper) == (Fraction(8, 9), Fraction(1))
        assert b.upper_source.text(3) == "closed-form"

    def test_trivial_cells_collapse(self):
        b = best_bounds(1, 1)
        assert b.lower == b.upper == 1

    def test_bernoulli_lower_at_single_occupancy(self):
        b = best_bounds(6, 1)
        assert b.lower == expected_single_fraction(6)
        assert b.upper == Fraction(3, 4)

    def test_mirror_symmetry(self):
        for d in range(1, 7):
            for s in range((1 << d) + 1):
                a = best_bounds(d, s)
                m = best_bounds(d, (1 << d) - s)
                assert (a.lower, a.upper) == (m.lower, m.upper)

    def test_grid_internally_consistent(self):
        # LambdaBounds validates lower <= upper on construction
        for d in range(1, 9):
            for s in range((1 << d) + 1):
                b = best_bounds(d, s)
                assert 0 <= b.lower <= b.upper <= 1
