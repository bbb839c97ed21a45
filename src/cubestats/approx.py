"""Layered sets whose subcube densities approximate an arbitrary target.

Given a target density x and a relative tolerance eps, pick a continued
fraction convergent p/q of x with |x - p/q| <= (eps/2) x and take the set
of vertices whose weight mod q lies in {0, ..., p-1}.  Every d-subcube
then contains sum_{0 <= y < p} q_binsum((a+y) mod q, q, d) set vertices, where
a is the subcube's base weight mod q, and that count deviates from
(p/q) 2^d by at most q 2^d e^(-d/(10 q^2)).  The d_min recorded in the
spec is the first dimension where this deviation also fits inside the
remaining (eps/2) x 2^d budget, so from d_min on every d-subcube count
lies within (1 +- eps) x 2^d.
"""

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .errors import CapabilityError, DomainError
from .residues import q_binsum, residue_table

__all__ = [
    "MAX_MODULUS",
    "ApproxCheck",
    "ApproxSpec",
    "approx_construct",
    "check_approx",
    "third_layer_check",
]

MAX_MODULUS = 10**6

_LN2 = math.log(2.0)
_LOG2E = 1.0 / _LN2
# float-roundoff slack when the bound itself is evaluated in floating
# point: deviations exceeding the bound by at most this relative margin
# (about 2 ulps) are flagged as borderline instead of failed
_ULP_SLACK = Fraction(4503599627370497, 4503599627370496) - 1  # 2^-52


@dataclass(frozen=True)
class ApproxSpec:
    """A rational density target p/q with its certified dimension threshold.

    The set it describes keeps the vertices whose weight mod q is below p.
    """

    x: float
    q: int
    p: int
    d_min: int
    tol: float

    def __post_init__(self) -> None:
        if not 0.0 < self.x < 1.0:
            raise DomainError("target density must lie strictly between 0 and 1")
        if self.q < 1:
            raise DomainError("modulus must be at least 1")
        if self.tol <= 0.0:
            raise DomainError("tolerance must be positive")
        if self.d_min < 1:
            raise DomainError("dimension threshold must be at least 1")
        if not 0 <= self.p <= self.q:
            raise DomainError("p must lie in [0, q]")

    def to_json(self) -> dict:
        return {
            "x": str(self.x),
            "q": self.q,
            "p": self.p,
            "d_min": self.d_min,
            "tol": str(self.tol),
        }


@dataclass(frozen=True)
class ApproxCheck:
    """Worst-case deviation of the layer counts at one dimension."""

    max_error: Fraction
    bound_ok: bool
    borderline: bool

    def to_json(self) -> dict:
        return {
            "max_error": str(self.max_error),
            "bound_ok": self.bound_ok,
            "borderline": self.borderline,
        }


def _convergents(x: Fraction) -> Iterator[tuple[int, int]]:
    """Continued fraction convergents of x, in order of increasing denominator."""
    num, den = x.numerator, x.denominator
    p_prev2, p_prev = 0, 1
    q_prev2, q_prev = 1, 0
    while den:
        a, rem = divmod(num, den)
        p_cur = a * p_prev + p_prev2
        q_cur = a * q_prev + q_prev2
        yield p_cur, q_cur
        p_prev2, p_prev = p_prev, p_cur
        q_prev2, q_prev = q_prev, q_cur
        num, den = den, rem


def _least_safe_dimension(q: int, budget: Fraction) -> int:
    # least d with q e^(-d/(10 q^2)) <= budget, compared in logarithms so a
    # budget below the float range neither overflows q/budget nor rounds to 0
    scale = 10.0 * q * q
    log_q = math.log(q)
    log_budget = math.log(budget.numerator) - math.log(budget.denominator)
    d = max(1, math.ceil(scale * (log_q - log_budget)))
    while log_q - d / scale > log_budget:
        d += 1
    while d > 1 and log_q - (d - 1) / scale <= log_budget:
        d -= 1
    return d


def approx_construct(x: float, eps: float) -> ApproxSpec:
    """Choose p/q and the dimension from which counts stay within (1 +- eps) x.

    The tolerance is split evenly: half for the rational approximation of x,
    half for the equidistribution error of the weight classes mod q.
    """
    if not 0.0 < x < 1.0:
        raise DomainError("target density must lie strictly between 0 and 1")
    if not 0.0 < eps < math.inf:
        raise DomainError("tolerance must be positive and finite")
    target = Fraction(x)
    budget = Fraction(eps) * target / 2
    choice = None
    for p, q in _convergents(target):
        if q > MAX_MODULUS:
            break
        if abs(target - Fraction(p, q)) <= budget:
            choice = (p, q)
            break
    if choice is None:
        raise CapabilityError(
            f"no fraction with denominator <= {MAX_MODULUS} approximates "
            f"{x!r} to within a relative error of {eps}/2"
        )
    p, q = choice
    d_min = _least_safe_dimension(q, budget)
    return ApproxSpec(x=x, q=q, p=p, d_min=d_min, tol=eps)


def _bound_ok(max_error: Fraction, q: int, d: int) -> tuple[bool, bool]:
    if max_error == 0:
        return True, False
    try:
        bound = Fraction(q * math.exp(d * _LN2 - d / (10.0 * q * q)))
    except OverflowError:
        # 2^d overflows float64: compare base-2 logarithms instead, with
        # the same relative slack folded into an additive log-space margin
        err_log2 = math.log2(max_error.numerator) - math.log2(max_error.denominator)
        bound_log2 = math.log2(q) + d - (d / (10.0 * q * q)) * _LOG2E
        slack = 8 * sys.float_info.epsilon * max(1.0, abs(bound_log2))
        if err_log2 <= bound_log2:
            return True, False
        if err_log2 <= bound_log2 + slack:
            return True, True
        return False, False
    if max_error <= bound:
        return True, False
    if max_error <= bound * (1 + 2 * _ULP_SLACK):
        return True, True
    return False, False


def check_approx(spec: ApproxSpec, d: int) -> ApproxCheck:
    """Exact worst-case deviation of the layer counts from (p/q) 2^d at dimension d.

    The deviation is maximized over the base weight residue a; the proven
    bound q 2^d e^(-d/(10 q^2)) is evaluated in floating point and exact
    deviations within 2 ulps of it are flagged borderline, not failed.
    """
    if d < 1:
        raise DomainError("dimension must be at least 1")
    q, p = spec.q, spec.p
    row = residue_table(q, d).values
    # count(a) sums row over the window a, ..., a+p-1 (mod q); slide it along
    count = sum(row[:p])
    lo = hi = count
    for a in range(q - 1):
        count += row[(a + p) % q] - row[a]
        lo, hi = min(lo, count), max(hi, count)
    ideal = p << d  # q times (p/q) 2^d
    max_error = Fraction(max(q * hi - ideal, ideal - q * lo), q)
    ok, borderline = _bound_ok(max_error, q, d)
    return ApproxCheck(max_error=max_error, bound_ok=ok, borderline=borderline)


def third_layer_check(d_max: int) -> bool:
    """Each residue class mod 3 collects floor(2^d/3) or ceil(2^d/3) weights."""
    if d_max < 1:
        raise DomainError("d_max must be at least 1")
    for d in range(1, d_max + 1):
        lo = (1 << d) // 3
        hi = -((1 << d) // -3)
        for a in range(3):
            if q_binsum(a, 3, d) not in (lo, hi):
                return False
    return True
