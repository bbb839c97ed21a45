"""End-to-end acceptance checks, one test per shipped guarantee.

Every test runs its checks exactly (rational arithmetic, no float
tolerances unless stated), prints a single summary line, and enforces
its wall-clock budget.
"""

import itertools
import statistics
import time
from fractions import Fraction

import numpy as np

from cubestats import (
    ApproxSpec,
    CliqueCertificate,
    LayeredSpec,
    Subcube,
    VertexSet,
    bernoulli_set,
    binomial,
    c_d,
    c_dk,
    c_star,
    c_star_enumerated,
    check_approx,
    distribution,
    distribution_fast,
    exhaustive_lambda,
    hadamard_matrix,
    hadamard_to_clique,
    layered_distribution,
    layered_set,
    omega,
    parity_set,
    perturb_parity,
    perturbation_preserves,
    spanning_fraction,
    subcube_count,
    syndrome_set,
    third_layer_check,
    turan_density,
    turan_extremal_set,
    verify_clique,
    verify_prop31,
    verify_thm32,
    weight_top_bottom_set,
)
from cubestats.gf2 import GF2Matrix


def _finish(num: int, label: str, start: float, budget: float, extra: str = ""):
    elapsed = time.monotonic() - start
    tail = f" [{extra}]" if extra else ""
    print(f"criterion {num:2d} PASS in {elapsed:6.1f}s (budget {budget:.0f}s): {label}{tail}")
    assert elapsed < budget, f"criterion {num} exceeded {budget}s ({elapsed:.1f}s)"


def test_c01_exhaustive_small_cube_values():
    start = time.monotonic()
    val, _ = exhaustive_lambda(4, 2, 1)
    assert val == Fraction(5, 6)
    assert val == turan_density(4, 3)
    for n in (2, 3, 4):
        for s in (0, 2, 4):
            v, _ = exhaustive_lambda(n, 2, s)
            assert v == 1, (n, s)
    _finish(1, "exhaustive maxima on Q_2..Q_4 squares", start, 30)


def test_c02_constructions_attain_exact_values():
    start = time.monotonic()
    A = turan_extremal_set(2, 1, omega(1).certificate)
    assert distribution_fast(A, 2).fraction(1) == Fraction(5, 6)
    W = weight_top_bottom_set(6)
    assert distribution_fast(W, 6).fraction(1) == Fraction(3, 4)
    full = hadamard_to_clique(hadamard_matrix(8))
    sub = CliqueCertificate(2, full.members[:5])
    B = turan_extremal_set(3, 2, sub)
    assert distribution_fast(B, 3).fraction(2) == 1
    _finish(2, "extremal constructions hit 5/6, 3/4, 1", start, 10)


def test_c03_rank_constants_and_grid():
    start = time.monotonic()
    assert c_d(2) == Fraction(2, 3)
    assert c_dk(3, 1) == Fraction(21, 32)
    assert c_star(3, 1) == Fraction(8, 9)
    assert c_star(3, 1) == c_star_enumerated(3, 1)
    for d in range(1, 21):
        for k in range(1, d + 1):
            assert c_star(d, k) >= c_dk(d, k) > 1 - Fraction(1, 1 << k), (d, k)
    _finish(3, "span probabilities exact, ordered on d<=20 grid", start, 5)


def test_c04_syndrome_guarantee_on_random_matrices():
    start = time.monotonic()
    rng = np.random.default_rng(404)
    for _ in range(50):
        r = int(rng.integers(1, 5))
        n = int(rng.integers(r, 10))
        B = GF2Matrix.from_rows(rng.integers(0, 2, size=(r, n)).tolist())
        color_mask = int(rng.integers(1, 1 << (1 << r)))
        colors = {c for c in range(1 << r) if (color_mask >> c) & 1}
        d = int(rng.integers(r, n + 1))
        A = syndrome_set(B, colors)
        occ = len(colors) << (d - r)
        dist = distribution(A, d)
        assert dist.counts[occ] >= spanning_fraction(B, d) * dist.total
    _finish(4, "syndrome counts beat the spanning fraction, 50 cases", start, 60)


def test_c05_clique_numbers_proven_and_certified():
    start = time.monotonic()
    for s, want in [(1, 3), (2, 7), (3, 11)]:
        by_search = omega(s, policy="search")
        assert by_search.exact and by_search.lower == want
        assert by_search.source == "search"
        by_matrix = omega(s)
        assert by_matrix.exact and by_matrix.lower == want
        assert by_matrix.source == "hadamard"
        assert verify_clique(by_search.certificate)
    for order in (4, 8, 12, 16, 20, 24, 32):
        cert = hadamard_to_clique(hadamard_matrix(order))
        assert cert.size() == order - 1
        assert verify_clique(cert)
    _finish(5, "clique numbers 3/7/11 proven, matrix certs verify", start, 300)


def test_c06_residue_sum_structure():
    start = time.monotonic()
    for d in range(3, 17):
        for k in range(3, d + 1):
            assert verify_prop31(k, d), (k, d)
    for k in range(1, 9):
        report = verify_thm32(k, range(1, 17))
        assert report.ok, k
        evens = frozenset(range(0, k, 2))
        odds = frozenset(range(1, k, 2))
        trivial = {frozenset(), frozenset(range(k))}
        if k % 2 == 0:
            trivial |= {evens, odds}
        for case in report.expected:
            assert frozenset(case.subset) in trivial, (k, case)
            assert len(set(case.values)) == 1
            assert case.values[0] in (0, 1 << (case.d - 1), 1 << case.d), (k, case)
    _finish(6, "residue sums non-constant; only trivial constant sets", start, 120)


def test_c07_layer_balance_and_approximation_bound():
    start = time.monotonic()
    assert third_layer_check(30)
    for q in range(2, 13):
        for p in range(1, q):
            spec = ApproxSpec(Fraction(p, q), q, tuple(range(p)), 1, Fraction(1))
            for d in range(1, 65):
                assert check_approx(spec, d).bound_ok, (p, q, d)
    _finish(7, "third-layer balance to d=30; deviation bound on full grid", start, 60)


def test_c08_fast_equals_reference_and_symmetries():
    start = time.monotonic()
    rng = np.random.default_rng(808)
    for _ in range(200):
        n = int(rng.integers(1, 10))
        bits = int.from_bytes(rng.bytes((1 << n) // 8 or 1), "little") % (1 << (1 << n))
        A = VertexSet(n, bits)
        d = int(rng.integers(0, n + 1))
        fast = distribution_fast(A, d)
        assert fast == distribution(A, d)
        assert distribution_fast(A.complement(), d).counts == fast.counts[::-1]
    for n in range(2, 11):
        for _ in range(3):
            k = int(rng.integers(1, 7))
            T = frozenset(
                t for t in range(k) if (int(rng.integers(0, 1 << k)) >> t) & 1
            )
            d = int(rng.integers(0, n + 1))
            spec = LayeredSpec(k, T)
            assert layered_distribution(n, d, spec) == distribution(
                layered_set(n, spec), d
            )
    _finish(8, "fast counter == reference on 200 sets; layered consistent", start, 120)


def test_c09_admissible_perturbations_keep_exact_half():
    start = time.monotonic()
    rng = np.random.default_rng(909)
    built = 0
    while built < 20:
        n = int(rng.integers(3, 9))
        d = int(rng.integers(2, min(4, n - 1) + 1))
        want = int(rng.integers(1, 4))
        cubes: list[Subcube] = []
        for _ in range(200):
            if len(cubes) == want:
                break
            m = int(rng.integers(n - d + 1, n))
            coords = rng.permutation(n)
            free = sum(1 << int(c) for c in coords[:m])
            base = 0
            for c in coords[m:]:
                if rng.integers(0, 2):
                    base |= 1 << int(c)
            q = Subcube(n, free, base)
            if all(not q.intersects(other) for other in cubes):
                cubes.append(q)
        assert cubes
        assert perturbation_preserves(n, d, cubes)
        B = perturb_parity(parity_set(n), cubes)
        assert distribution_fast(B, d).fraction(1 << (d - 1)) == 1, (n, d)
        built += 1
    _finish(9, "20 disjoint admissible perturbations keep half-count", start, 60)


def test_c10_bernoulli_monte_carlo_matches_expectation():
    start = time.monotonic()
    n, d, reps = 10, 3, 10_000
    vals = [
        float(distribution_fast(bernoulli_set(n, d, seed), d).fraction(1))
        for seed in range(reps)
    ]
    mean = statistics.fmean(vals)
    se = statistics.stdev(vals) / reps**0.5
    # per-subcube occupancy is Binomial(2^d, 2^-d), so the expected
    # single-vertex fraction is 2^d * 2^-d * (1 - 2^-d)^(2^d - 1)
    expected = (1 << d) * Fraction(1, 1 << d) * Fraction((1 << d) - 1, 1 << d) ** (
        (1 << d) - 1
    )
    formula = Fraction(7, 8) ** 7
    assert expected == formula
    assert abs(mean - float(expected)) <= 3 * se
    _finish(
        10,
        "10^4 Bernoulli draws match expectation",
        start,
        300,
        extra=f"mean={mean:.6f} (7/8)^7={float(formula):.6f} se={se:.2e}",
    )
