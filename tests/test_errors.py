"""The integer contract: one reader, ``check_int``, for every integer argument."""

import json
import re

import numpy as np
import pytest

from cubestats import (
    ApproxSpec,
    CapabilityError,
    CertificateError,
    DomainError,
    GF2Matrix,
    HadamardMatrix,
    LayeredSpec,
    Subcube,
    VertexSet,
    bernoulli_set,
    best_bounds,
    binomial,
    c_d,
    c_dk,
    c_star,
    c_star_enumerated,
    expected_single_fraction,
    hadamard_paley,
    lambda_d2_closed_form,
    mod_weight_set,
    omega,
    q_binsum,
    third_layer_check,
    turan_density,
    turan_edges,
    turan_extremal_set,
    two_adic_split,
    verify_prop31,
    verify_thm32,
    weight_top_bottom_set,
)
from cubestats.approx import approx_worst, check_approx
from cubestats.cube import check_mask_dimension, check_subcube_dimension
from cubestats.errors import check_int, show
from cubestats.turan import occupancy_case

CLIQUE = omega(1).certificate

# entry -> (call with the probed integer argument, a valid value for it);
# each entry let some non-integer through before check_int took a range
ENTRIES = {
    "c_d": (lambda x: c_d(x), 3),
    "c_dk.d": (lambda x: c_dk(x, 1), 3),
    "c_dk.k": (lambda x: c_dk(3, x), 1),
    "c_star.d": (lambda x: c_star(x, 1), 3),
    "c_star.k": (lambda x: c_star(3, x), 1),
    "c_star_enumerated.d": (lambda x: c_star_enumerated(x, 1), 3),
    "c_star_enumerated.k": (lambda x: c_star_enumerated(3, x), 1),
    "expected_single_fraction": (lambda x: expected_single_fraction(x), 2),
    "two_adic_split": (lambda x: two_adic_split(x), 12),
    "binomial.n": (lambda x: binomial(x, 2), 5),
    "binomial.k": (lambda x: binomial(5, x), 2),
    "third_layer_check": (lambda x: third_layer_check(x), 4),
    "turan_density.n": (lambda x: turan_density(x, 3), 5),
    "turan_density.k": (lambda x: turan_density(5, x), 3),
    "turan_edges.n": (lambda x: turan_edges(x, 3), 5),
    "turan_edges.k": (lambda x: turan_edges(5, x), 3),
    "lambda_d2_closed_form.d": (lambda x: lambda_d2_closed_form(x, 3), 3),
    "weight_top_bottom_set": (lambda x: weight_top_bottom_set(x), 3),
    "mod_weight_set.d": (lambda x: mod_weight_set(5, x), 2),
    "hadamard_paley": (lambda x: hadamard_paley(x), 7),
    "verify_prop31.k": (lambda x: verify_prop31(x, 5), 3),
    "verify_prop31.d": (lambda x: verify_prop31(3, x), 5),
    "verify_thm32.k": (lambda x: verify_thm32(x, range(4)), 3),
    "turan_extremal_set.d": (lambda x: turan_extremal_set(x, 1, CLIQUE), 2),
    "turan_extremal_set.s": (lambda x: turan_extremal_set(2, x, CLIQUE), 1),
    "bernoulli_set.seed": (lambda x: bernoulli_set(4, 2, x), 5),
    "approx_worst.q": (lambda x: approx_worst(x, 5), 3),
    "approx_worst.d": (lambda x: approx_worst(3, x), 5),
    "check_approx.d": (lambda x: check_approx(ApproxSpec(0.5, 3, 1, 1, 0.1), x), 5),
    "ApproxSpec.q": (lambda x: ApproxSpec(x=0.5, q=x, p=1, d_min=1, tol=0.1), 2),
    "ApproxSpec.p": (lambda x: ApproxSpec(x=0.5, q=3, p=x, d_min=1, tol=0.1), 1),
    "Subcube.n": (lambda x: Subcube(x, 1, 0), 3),
    "Subcube.free": (lambda x: Subcube(3, x, 0), 3),
    "Subcube.base": (lambda x: Subcube(3, 1, x), 2),
    "GF2Matrix.zero.rows": (lambda x: GF2Matrix.zero(x, 2), 2),
    "GF2Matrix.zero.cols": (lambda x: GF2Matrix.zero(2, x), 2),
    "GF2Matrix.identity": (lambda x: GF2Matrix.identity(x), 2),
    "GF2Matrix.cols": (lambda x: GF2Matrix(1, x, (1 << 65,)), 70),
}


@pytest.mark.parametrize("bad", [1.0, 2.5, True, None, "3"])
@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_non_integer_argument_raises_domain_error(entry, bad):
    with pytest.raises(DomainError):
        ENTRIES[entry][0](bad)


def _view(result):
    # a HadamardMatrix holds an array, which == compares entrywise
    return result.to_json() if isinstance(result, HadamardMatrix) else result


@pytest.mark.parametrize("entry", sorted(ENTRIES))
def test_numpy_integer_gives_the_int_answer(entry):
    call, good = ENTRIES[entry]
    assert _view(call(np.int64(good))) == _view(call(good))


@pytest.mark.parametrize(
    "cached, bad",
    [
        (lambda: c_star(4, 1), lambda: c_star(4, 1.0)),
        (lambda: c_dk(4, 2), lambda: c_dk(4.0, 2)),
        (lambda: c_dk(4, 1), lambda: c_dk(4, True)),
        (lambda: c_d(1), lambda: c_d(True)),
        (lambda: c_d(3), lambda: c_d(3.0)),
        (lambda: expected_single_fraction(2), lambda: expected_single_fraction(2.0)),
    ],
)
def test_cached_entries_check_before_the_cache_answers(cached, bad):
    # 1.0 and True hash and compare as 1, so an untyped cache would answer them
    cached()
    with pytest.raises(DomainError):
        bad()


def test_fresh_float_dimension_raises_domain_error():
    with pytest.raises(DomainError):
        c_dk(5.0, 2)


HUGE = 10**5000  # past Python's 4,300-digit int-to-str limit

OVERSIZED = {
    "occupancy_case": lambda: occupancy_case(3, HUGE),
    "check_subcube_dimension": lambda: check_subcube_dimension(3, HUGE),
    "check_mask_dimension": lambda: check_mask_dimension(HUGE),
    "q_binsum": lambda: q_binsum(HUGE, 3, 4),
    "best_bounds": lambda: best_bounds(3, HUGE),
    "VertexSet.from_vertices": lambda: VertexSet.from_vertices(3, [HUGE]),
}


@pytest.mark.parametrize("name", sorted(OVERSIZED))
def test_oversized_integer_is_named_by_its_bit_length(name):
    with pytest.raises((DomainError, CapabilityError, CertificateError)) as info:
        OVERSIZED[name]()
    assert f"<{HUGE.bit_length()}-bit integer>" in str(info.value)


# field -> (build the object with np.int64(value) in that field, value); the
# object keeps the int that check_int returns, so no numpy integer reaches
# its JSON or a later 1 << field
STORED = {
    "ApproxSpec.q": (lambda x: ApproxSpec(x=0.5, q=x, p=1, d_min=1, tol=0.1), 3),
    "ApproxSpec.p": (lambda x: ApproxSpec(x=0.5, q=3, p=x, d_min=1, tol=0.1), 1),
    "ApproxSpec.d_min": (lambda x: ApproxSpec(x=0.5, q=3, p=1, d_min=x, tol=0.1), 4),
    "LayeredSpec.k": (lambda x: LayeredSpec(x, frozenset({0})), 3),
    "Subcube.n": (lambda x: Subcube(x, 1, 2), 3),
    "Subcube.free": (lambda x: Subcube(3, x, 2), 1),
    "Subcube.base": (lambda x: Subcube(3, 1, x), 2),
    "GF2Matrix.rows": (lambda x: GF2Matrix(x, 2, (1, 2)), 2),
    "GF2Matrix.cols": (lambda x: GF2Matrix(2, x, (1, 2)), 2),
    "HadamardMatrix.order": (lambda x: HadamardMatrix(x, [[1, 1], [1, -1]]), 2),
}


@pytest.mark.parametrize("entry", sorted(STORED))
def test_a_numpy_integer_field_is_stored_as_int(entry):
    build, value = STORED[entry]
    field = entry.split(".")[1]
    obj = build(np.int64(value))
    assert getattr(obj, field) == value and type(getattr(obj, field)) is int
    # the two classes without to_json are shown by their integer fields
    view = obj.to_json() if hasattr(obj, "to_json") else {field: getattr(obj, field)}
    json.dumps(view)


class TestCheckInt:
    def test_bounds_are_inclusive(self):
        assert check_int("x", 2, 2, 5) == 2
        assert check_int("x", 5, 2, 5) == 5
        for bad in (1, 6):
            with pytest.raises(DomainError, match=f"^x {bad} outside \\[2, 5\\]$"):
                check_int("x", bad, 2, 5)

    def test_lower_bound_alone(self):
        assert check_int("x", 2, 2) == 2
        assert check_int("x", 10**400, 2) == 10**400
        with pytest.raises(DomainError, match="^x must be an integer >= 2, got 1$"):
            check_int("x", 1, 2)

    def test_no_bounds_takes_any_integer(self):
        assert check_int("x", -(10**400)) == -(10**400)

    def test_numpy_integer_comes_back_as_int(self):
        for x in (np.int64(7), np.uint8(7), np.int32(7)):
            out = check_int("x", x, 0, 7)
            assert out == 7 and type(out) is int

    @pytest.mark.parametrize("bad", [1.0, True, False, None, "3", np.float64(1.0)])
    def test_non_integers_are_named(self, bad):
        message = f"width must be an integer, got {bad!r}"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            check_int("width", bad, 0, 9)

    def test_integers_past_1024_bits_print_by_bit_length(self):
        assert show((1 << 1024) - 1) == str((1 << 1024) - 1)
        assert show(1 << 1024) == "<1025-bit integer>"
        assert show(-(1 << 1024)) == "-<1025-bit integer>"
        assert show(np.int64(-5)) == "-5" and show(2.5) == "2.5"

    def test_bounds_print_by_bit_length_when_huge(self):
        with pytest.raises(DomainError) as info:
            check_int("x", -1, 0, 1 << 2000)
        assert str(info.value) == "x -1 outside [0, <2001-bit integer>]"
