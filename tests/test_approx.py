"""Rational approximation of a target density by residue-class unions."""

from fractions import Fraction

import pytest

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


class TestCheck:
    def test_sliding_window_matches_reference(self):
        for q in range(1, 14):
            for p in range(q + 1):
                spec = ApproxSpec(0.5, q, p, 1, 1.0)
                # d = 1100 takes the log-space branch of the bound check
                for d in (*range(1, 24), 70, 200, 1100):
                    assert check_approx(spec, d).max_error == reference_check(spec, d), (q, p, d)

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
        assert out.bound_ok and not out.borderline

    def test_log_space_path_past_float_range(self):
        spec = ApproxSpec(Fraction(1, 3), 3, 1, 1, Fraction(1))
        out = check_approx(spec, 1100)  # 2^1100 overflows float64
        assert out.bound_ok

    def test_bound_holds_across_dimension_slice(self):
        spec = ApproxSpec(Fraction(2, 5), 5, 2, 1, Fraction(1))
        for d in range(1, 65, 7):
            out = check_approx(spec, d)
            assert out.bound_ok, d

    def test_check_json(self):
        out = ApproxCheck(Fraction(1, 2), True, False)
        assert out.to_json() == {
            "max_error": "1/2",
            "bound_ok": True,
            "borderline": False,
        }


def test_third_layer_balance():
    assert third_layer_check(30)
    assert third_layer_check(2)
