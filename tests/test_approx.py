"""Rational approximation of a target density by residue-class unions."""

import decimal
import json
import math
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubestats import (
    ApproxCheck,
    ApproxSpec,
    CapabilityError,
    DomainError,
    approx_construct,
    binomial,
    check_approx,
    q_binsum,
    third_layer_check,
)
from cubestats import approx
from cubestats.approx import _bound_test, _least_safe_dimension, approx_worst
from cubestats.cli import main


class TestConstruct:
    def test_exact_rational_target(self):
        spec = approx_construct(Fraction(1, 3), Fraction(1, 100))
        assert (spec.q, spec.p) == (3, 1)
        assert spec.tol == Fraction(1, 100)

    def test_two_sevenths(self):
        spec = approx_construct(Fraction(2, 7), Fraction(1, 100))
        assert (spec.q, spec.p) == (7, 2)
        assert spec.d_min == 4164

    def test_convergent_respects_tolerance(self):
        x, eps = Fraction(416146, 1000000), Fraction(1, 1000)
        spec = approx_construct(x, eps)
        assert (spec.p, spec.q) == (62, 149)
        assert abs(x - Fraction(spec.p, spec.q)) <= eps / 2 * x

    def test_convergent_exactly_at_the_budget_is_taken(self):
        # |1/2 - 0/1| = 1/2 is the whole budget eps x / 2 at eps = 2
        spec = approx_construct(0.5, 2.0)
        assert (spec.q, spec.p, spec.d_min) == (1, 0, 7)  # e^(-7/10) <= 1/2 < e^(-6/10)

    def test_tolerance_below_float_range(self):
        # q / budget overflows a float here, and the budget rounds to 0.0 at 5e-324
        for eps, d_min in ((8.015643185966075e-308, 113693), (5e-324, 119665)):
            spec = approx_construct(0.25, eps)
            assert (spec.q, spec.p, spec.d_min) == (4, 1, d_min)

    def test_modulus_cap(self):
        with pytest.raises(CapabilityError):
            approx_construct(Fraction(1, 10**6 + 7), Fraction(1, 1000))

    def test_target_domain(self):
        with pytest.raises(DomainError):
            approx_construct(Fraction(3, 2), Fraction(1, 10))
        with pytest.raises(DomainError):
            approx_construct(Fraction(1, 3), Fraction(0))


class TestSpecValidation:
    def test_initial_segment_enforced(self):
        # the residues 0, ..., p-1 fit in Z_q exactly when 0 <= p <= q
        for p in (0, 1, 3):
            ApproxSpec(Fraction(1, 3), 3, p, 5, Fraction(1, 10))
        for p in (-1, 4):
            with pytest.raises(DomainError):
                ApproxSpec(Fraction(1, 3), 3, p, 5, Fraction(1, 10))
        with pytest.raises(DomainError):
            ApproxSpec(Fraction(1, 3), 3, 1, 0, Fraction(1, 10))

    def test_json_uses_strings_for_rationals(self):
        spec = ApproxSpec(Fraction(1, 3), 3, 1, 5, Fraction(1, 10))
        obj = spec.to_json()
        assert obj["x"] == "1/3" and obj["q"] == 3 and obj["p"] == 1


def reference_check(spec: ApproxSpec, d: int) -> Fraction:
    """Worst deviation over the base residue a, one q_binsum call per term."""
    ideal = Fraction(spec.p, spec.q) * (1 << d)
    return max(
        abs(sum(q_binsum((a + y) % spec.q, spec.q, d) for y in range(spec.p)) - ideal)
        for a in range(spec.q)
    )


def reference_ok(max_error: Fraction, q: int, d: int) -> bool:
    """Is the deviation below q 2^d e^(-d/(10 q^2))?  The bound comes from
    Decimal.exp, at a precision doubled until its rounding, at most (x + 5)
    half-units in the last digit for x = d/(10 q^2), cannot flip the verdict."""
    x, prec = Fraction(d, 10 * q * q), 50
    while True:
        with decimal.localcontext(prec=prec):
            bound = Fraction(q * Decimal(2) ** d * (Decimal(-d) / (10 * q * q)).exp())
        slack = bound * (x + 4) / 10 ** (prec - 1)
        if max_error < bound - slack:
            return True
        if max_error > bound + slack:
            return False
        prec *= 2


def bound_test(q: int, d: int):
    """The exact bound test of a deviation num / den at (q, d)."""
    return lambda num, den: _bound_test(q, d, num, den, d)


def checker(q: int, d: int):
    """E(p) = q max_error and the bound verdict of check_approx, one p per call."""

    def check(p: int) -> tuple[int, bool]:
        out = check_approx(ApproxSpec(0.5, q, p, 1, 1.0), d)
        return out.max_error * q, out.bound_ok

    return check


def float_bound(q: int, d: int) -> Fraction:
    """The float64 q 2^(t-k), t = -d log2(e) / (10 q^2) and k = floor(t), times
    2^(d+k): the bound q 2^d e^(-d/(10 q^2)) to within a relative 2^-52, a
    deviation that no float64 evaluation of the bound can place."""
    t = -d * (1.0 / math.log(2.0)) / (10.0 * q * q)
    k = math.floor(t)
    return Fraction(q * 2.0 ** (t - k)) * (1 << (d + k))


class TestCheck:
    def test_sliding_window_matches_reference(self):
        # check_approx answers every p as the per-term reference sum and the
        # decimal bound do; d = 1100 is past the float range of 2^d, which
        # the bound test never forms
        for q in range(1, 14):
            for d in (*range(1, 65), 70, 200, 1100):
                for p in range(q + 1):
                    spec = ApproxSpec(0.5, q, p, 1, 1.0)
                    want = reference_check(spec, d)
                    got = check_approx(spec, d)
                    assert got == ApproxCheck(want, reference_ok(want, q, d)), (q, p, d)

    def test_checker_domain(self):
        for q, d in ((0, 5), (3, 0), (3, -1)):
            with pytest.raises(DomainError):
                checker(q, d)(1)
        check = checker(3, 5)
        for p in (-1, 4):
            with pytest.raises(DomainError):
                check(p)

    def test_deviation_matches_direct_sum(self):
        spec = ApproxSpec(Fraction(1, 3), 3, 1, 1, Fraction(1))
        d = 10
        out = check_approx(spec, d)
        want = max(
            abs(
                sum(binomial(d, i) for i in range(d + 1) if (i + a) % 3 == 0)
                - Fraction(1, 3) * (1 << d)
            )
            for a in range(3)
        )
        assert out.max_error == want

    def test_bound_holds_at_safe_dimension(self):
        spec = approx_construct(Fraction(2, 7), Fraction(1, 100))
        out = check_approx(spec, spec.d_min)
        assert out.bound_ok

    @pytest.mark.parametrize(
        "d, error, want",
        [
            # the float64 bound lies a relative 1e-16 above the true one
            (10, lambda: float_bound(3, 10) * (1 - Fraction(1, 1 << 52)), True),
            (10, lambda: float_bound(3, 10), False),
            (10, lambda: float_bound(3, 10) * (1 + Fraction(1, 1 << 52)), False),
            (10, lambda: 2 * float_bound(3, 10), False),
            (1100, lambda: Fraction(1 << 1101), False),  # 2^1100 past float64
        ],
    )
    def test_bound_ok_borderline_and_failing(self, d, error, want):
        err = error()
        assert bound_test(3, d)(err.numerator, err.denominator) == want
        assert want == reference_ok(err, 3, d)

    def test_bound_ok_matches_the_fraction_reference_on_every_suite_cell(self):
        for q in range(2, 13):
            for p in range(1, q):
                spec = ApproxSpec(x=p / q, q=q, p=p, d_min=1, tol=1.0)
                for d in (*range(1, 65), 1100):
                    err = check_approx(spec, d).max_error
                    got = bound_test(q, d)(err.numerator, err.denominator)
                    assert got == reference_ok(err, q, d), (q, p, d)

    @pytest.mark.parametrize("q, d", [(3, 10), (7, 40), (12, 64), (2, 1)])
    def test_bound_ok_matches_the_fraction_reference_at_the_edges(self, q, d):
        bound = float_bound(q, d)
        slack = 1 + Fraction(1, 1 << 51)
        tiny = Fraction(1, 1 << 200)
        errors = [
            bound - tiny, bound, bound + tiny,
            bound * slack - tiny, bound * slack, bound * slack + tiny,
            2 * bound, Fraction(0), Fraction(1, 3),
        ]
        test = bound_test(q, d)
        for err in errors:
            assert test(err.numerator, err.denominator) == reference_ok(err, q, d), err
        # what a float test would pass within its 2^-51 slack lies above the bound
        assert [test(e.numerator, e.denominator) for e in errors[3:6]] == [False] * 3

    def test_log_space_test_reads_the_reduced_fraction(self):
        # past the float range of 2^d the verdict must not depend on how the
        # deviation is written, num / 1 or g num / g, so find where it turns
        test = bound_test(3, 1100)
        lo, hi = 1 << 1083, 1 << 1085  # the bound is about 2^1083.95
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if test(mid, 1) else (lo, mid)
        for num in range(lo - 64, hi + 64):
            want = reference_ok(Fraction(num), 3, 1100)
            assert test(num, 1) == want
            assert all(test(g * num, g) == want for g in range(2, 14)), num

    def test_log_space_path_past_float_range(self):
        spec = ApproxSpec(Fraction(1, 3), 3, 1, 1, Fraction(1))
        out = check_approx(spec, 1100)  # 2^1100 overflows float64, the shift does not
        assert out.bound_ok and reference_ok(out.max_error, 3, 1100)

    def test_bound_test_matches_a_high_precision_bound(self):
        # deviations a relative 2^-40 either side of the true bound, which
        # decimal evaluates to 60 digits, are judged as the true bound would
        below, above = 1 - Fraction(1, 1 << 40), 1 + Fraction(1, 1 << 40)
        with decimal.localcontext(prec=60):
            for q in range(2, 13):
                for d in (*range(1, 65), 200, 1023, 1024, 1100, 4164, 8909, 10000):
                    rate = (Decimal(-d) / (10 * q * q)).exp()
                    bound = Fraction(q * Decimal(2) ** d * rate)
                    test = bound_test(q, d)
                    for err, want in ((below * bound, True), (above * bound, False)):
                        assert test(err.numerator, err.denominator) == want, (q, d, want)

    def test_decides_the_grid_around_the_bound_exactly(self):
        # deviations B (1 + k 2^-54), k = -8..8, where B is the bound to 60
        # digits: inside a float64 evaluation's roundoff of the bound
        cases = 0
        for q in (3, 7, 12, 1000):
            for d in (10, 100, 1000, 3000):
                with decimal.localcontext(prec=60):
                    B = Fraction(q * Decimal(2) ** d * (Decimal(-d) / (10 * q * q)).exp())
                test = bound_test(q, d)
                for k in range(-8, 9):
                    err = B * (1 + Fraction(k, 1 << 54))
                    want = reference_ok(err, q, d)
                    assert test(err.numerator, err.denominator) == want, (q, d, k)
                    cases += 1
        assert cases == 272

    def test_zero_deviation_needs_no_logarithm(self, monkeypatch):
        # E = 0 at q = 2 and for the q = 1 spec: the verdict comes first
        spec = approx_construct(0.5, 100.0)
        assert (spec.q, spec.p) == (1, 0)
        monkeypatch.setattr("cubestats.approx.math", None)
        monkeypatch.setattr("cubestats.approx._decimal_gap", None)
        for d in (1, 5, 64):
            assert approx_worst(2, d) == (0, True)
            assert check_approx(spec, d) == ApproxCheck(Fraction(0), True)

    def test_bound_test_refuses_dimension_zero(self):
        # at d = 0 the bound q is rational, so r = q would tie forever
        for d in (0, -1):
            with pytest.raises(DomainError):
                _bound_test(3, d, 3)

    def test_bound_holds_across_dimension_slice(self):
        spec = ApproxSpec(Fraction(2, 5), 5, 2, 1, Fraction(1))
        for d in range(1, 65, 7):
            out = check_approx(spec, d)
            assert out.bound_ok, d

    def test_check_json(self):
        out = ApproxCheck(Fraction(1, 2), True)
        assert out.to_json() == {"max_error": "1/2", "bound_ok": True}


def dense_checker(q: int, d: int):
    """E(p) by sliding the window once around the whole row, a second route."""
    dev = [q * q_binsum(a, q, d) - (1 << d) for a in range(q)]

    def check(p: int) -> int:
        w = sum(dev[:p])
        worst = abs(w)
        for a in range(q):
            w += dev[(a + p) % q] - dev[a]
            worst = max(worst, abs(w))
        return worst

    return check


class TestWorst:
    def test_range_of_prefix_sums_is_the_worst_p(self):
        for q in range(2, 41):
            for d in (*range(1, 81), 200, 1100):
                check = checker(q, d)
                E, ok = approx_worst(q, d)
                assert E == max(check(p)[0] for p in range(1, q)), (q, d)
                assert ok == bound_test(q, d)(E, q), (q, d)

    def test_tail_past_residue_d(self):
        # for q > d + 1 only residues 0..d collect binomials, and the checker
        # reads only the windows that start or end among them
        for d in range(1, 41, 3):
            for q in sorted({d + 2, d + 3, d + 4, 2 * d + 1, 3 * d + 7, 5 * d + 1, 97, 300}):
                check, ref = checker(q, d), dense_checker(q, d)
                got = [check(p)[0] for p in range(q + 1)]
                assert got == [ref(p) for p in range(q + 1)], (q, d)
                assert approx_worst(q, d)[0] == max(got[1:q]), (q, d)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 150), st.integers(1, 300), st.data())
    def test_complement_has_the_same_deviation(self, q, d, data):
        # W_(q-p)(a) = -W_p((a - p) mod q), so E(p) = E(q - p)
        p = data.draw(st.integers(0, q))
        check = checker(q, d)
        assert check(p) == check(q - p)

    def test_domain(self):
        for q, d in ((1, 5), (0, 5), (3, 0), (3, -1)):
            with pytest.raises(DomainError):
                approx_worst(q, d)

    def test_dimension_past_the_row_cap(self):
        # refused before 2^d or any residue row is formed
        for d in (10_001, 2**70):
            with pytest.raises(CapabilityError):
                approx_worst(3, d)
            with pytest.raises(CapabilityError):
                check_approx(ApproxSpec(0.5, 3, 1, 1, 1.0), d)

    def test_checker_memory_at_a_large_modulus(self):
        # q = 200,000 > d + 1: only the d + 1 head prefix sums are held,
        # not q big ints of d bits each
        tracemalloc.start()
        try:
            E, ok = checker(200_000, 2_000)(1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 << 20, peak
        assert E == 200_000 * binomial(2_000, 1_000) - (1 << 2_000) and ok


def least_safe_reference(q: int, budget: Fraction) -> int:
    """The least d >= 1 with q e^(-d/(10 q^2)) <= budget, in 60-digit decimal."""
    with decimal.localcontext(prec=60):
        gap = Decimal(q).ln() - (
            Decimal(budget.numerator).ln() - Decimal(budget.denominator).ln()
        )
        return max(1, math.ceil(10 * q * q * gap))


def decimal_bound(q: int, d: int) -> Fraction:
    """q e^(-d/(10 q^2)) to 60 digits."""
    with decimal.localcontext(prec=60):
        return Fraction(q * (Decimal(-d) / (10 * q * q)).exp())


class TestLeastSafeDimension:
    QS = (1, 2, 3, 7, 12, 149, 1000)

    def test_matches_the_decimal_least_safe_dimension(self):
        # budgets a relative 2^-40 either side of the bound at d0, from
        # d0 = 1 up to bounds near 1e-260: clear of float rounding
        near = (1 - Fraction(1, 1 << 40), 1 + Fraction(1, 1 << 40))
        for q in self.QS:
            scale = 10 * q * q
            for f in (0.05, 1, 30, 600):
                for d0 in range(max(1, round(f * scale)), max(1, round(f * scale)) + 3):
                    for budget in (decimal_bound(q, d0) * s for s in near):
                        assert _least_safe_dimension(q, budget) == least_safe_reference(
                            q, budget
                        ), (q, d0)
        # float budgets at q = 10^6, where float logarithms resolve d only to
        # a few dimensions: these missed the least safe d by 1 or 2, both ways
        q = 10**6
        for d0 in range(6 * 10**15, 6 * 10**15 + 12):
            for budget in (Fraction(float(decimal_bound(q, d0) * s)) for s in near):
                assert _least_safe_dimension(q, budget) == least_safe_reference(
                    q, budget
                ), (q, d0)

    def test_budget_at_or_above_q_needs_one_dimension(self):
        for q in self.QS:
            for budget in (Fraction(q), Fraction(q) + Fraction(1, 10**30), Fraction(10**9)):
                assert _least_safe_dimension(q, budget) == 1
        assert approx_construct(0.5, 100.0).d_min == 1  # budget 25 >= q = 1

    def test_correction_loops_settle_on_the_least_passing_dimension(self):
        # budgets within a few ulps of exp(log q - d0 / scale), down to d = 1,
        # where the float estimate ceil(scale (log q - log budget)) misses both
        # ways (below at every q, above only at q = 10^6 near 1e-298); the
        # loops must settle on the least d that passes the 60-digit logarithm
        # test, the decimal least safe d
        outcomes = set()
        for q, fs, span in ((1, (0.05, 1, 30, 600), 8), (3, (1, 30), 8), (12, (0.05, 600), 8),
                            (149, (0.05, 1, 30, 600), 8), (10**6, (700,), 40)):
            scale = 10 * q * q
            for d_start in (1, *(max(1, round(f * scale)) for f in fs)):
                for d0 in range(d_start, d_start + span):
                    b0 = math.exp(math.log(q) - d0 / scale)
                    for i in range(-4, 5):
                        budget = Fraction(b0 + i * math.ulp(b0))
                        with decimal.localcontext(prec=60):
                            gap = Decimal(q).ln() - (
                                Decimal(budget.numerator).ln() - Decimal(budget.denominator).ln()
                            )
                        first = max(1, math.ceil(scale * float(gap)))
                        d = _least_safe_dimension(q, budget)
                        assert d == least_safe_reference(q, budget), (q, budget)
                        outcomes.add((d > first) - (d < first))
        assert outcomes == {-1, 0, 1}


def test_verify_approx_checks(capsys):
    assert main(["verify", "approx"]) == 0
    checks = json.loads(capsys.readouterr().out)["checks"]
    assert checks == [
        *({"name": f"bound holds q={q}, p<q, d<=64", "pass": True} for q in range(2, 13)),
        {"name": "bound holds at floor(B), B = 12 2^64 e^(-64/1440)", "pass": True},
        {
            "name": "control: a deviation above the bound fails the bound check",
            "pass": True,
            "control": True,
        },
        {"name": "control: floor(B) + 1 fails the bound check", "pass": True, "control": True},
    ]


def test_verify_approx_decides_floor_b_in_decimal(capsys, monkeypatch):
    # B = 12 2^64 e^(-64/1440) = 211738090192580096408.69..., so floor(B) and
    # floor(B) + 1 lie a relative 3e-21 and 1.5e-21 from it: only the decimal
    # branch decides them, and no other check of the suite reaches it
    with decimal.localcontext(prec=100):
        floor_b = int(12 * 2**64 * (Decimal(-64) / 1440).exp())
    assert floor_b == 211738090192580096408
    real, calls = approx._decimal_gap, []

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr("cubestats.approx._decimal_gap", spy)
    assert main(["verify", "approx"]) == 0
    assert json.loads(capsys.readouterr().out)["pass"] is True
    assert calls == [(12, 64, floor_b, 1, 64), (12, 64, floor_b + 1, 1, 64)]


def test_third_layer_balance():
    assert third_layer_check(30)
    assert third_layer_check(2)
