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
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Callable, Iterator, Sequence

from .errors import CapabilityError, DomainError
from .residues import residue_table

__all__ = [
    "MAX_MODULUS",
    "ApproxCheck",
    "ApproxSpec",
    "approx_checker",
    "approx_construct",
    "check_approx",
    "third_layer_check",
]

MAX_MODULUS = 10**6

_LOG2E = 1.0 / math.log(2.0)
# float-roundoff slack when the bound itself is evaluated in floating
# point: deviations exceeding the bound by at most a relative 2^-51
# (about 2 ulps) are flagged as borderline instead of failed
_SLACK_BITS = 51


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


def _bound_test(q: int, d: int) -> Callable[[int, int], tuple[bool, bool]]:
    """The proven bound q 2^d e^(-d/(10 q^2)) at (q, d), as a test of a deviation.

    The bound is q 2^(d+t) with t = -d log2(e) / (10 q^2).  Its float64 part
    m = q 2^(t-k), k = floor(t), lies in [q, 2q), so it neither overflows
    nor underflows, and the power 2^(d+k) (d + k >= 0) is applied exactly,
    as a shift.  The returned test maps a deviation num/den >= 0 to
    (ok, borderline): a deviation that exceeds the bound by at most a
    relative 2^-51 is borderline, not failed.
    """
    t = -d * _LOG2E / (10.0 * q * q)
    k = math.floor(t)
    top, bottom = (q * 2.0 ** (t - k)).as_integer_ratio()
    top <<= d + k

    def exact(num: int, den: int) -> tuple[bool, bool]:
        # num/den <= top/bottom, and then with the slack, cross-multiplied
        err, room = num * bottom, top * den
        if err <= room:
            return True, False
        if err << _SLACK_BITS <= room * ((1 << _SLACK_BITS) + 1):
            return True, True
        return False, False

    return exact


def approx_checker(q: int, d: int) -> Callable[[int], tuple[int, bool, bool]]:
    """Check the layered sets "weight mod q < p" at dimension d, one p per call.

    Row d of the residue sums mod q is read once, as the exact deviations
    dev[a] = q row[a] - 2^d, and the bound is evaluated once.  A d-subcube
    of base weight residue a holds (p 2^d + W(a)) / q set vertices, where
    W(a) sums dev over the window a, ..., a+p-1 (mod q).  A call with
    0 <= p <= q slides that window once around in O(q) integer steps and
    returns (E, ok, borderline): E / q is the worst deviation of a count
    from (p/q) 2^d, and (ok, borderline) is its bound check.
    """
    if d < 1:
        raise DomainError("dimension must be at least 1")
    full = 1 << d
    dev = [q * v - full for v in residue_table(q, d).values]
    ring = dev + dev
    test = _bound_test(q, d)

    def check(p: int) -> tuple[int, bool, bool]:
        if not 0 <= p <= q:
            raise DomainError("p must lie in [0, q]")
        w = hi = lo = sum(dev[:p])
        for out, into in zip(dev, islice(ring, p, None)):
            w += into - out
            if w > hi:
                hi = w
            elif w < lo:
                lo = w
        E = max(hi, -lo)
        return (E, *test(E, q))

    return check


def check_approx(spec: ApproxSpec, d: int) -> ApproxCheck:
    """Exact worst-case deviation of the layer counts from (p/q) 2^d at dimension d.

    The deviation is maximized over the base weight residue a; the proven
    bound q 2^d e^(-d/(10 q^2)) is evaluated by ``_bound_test``, and exact
    deviations within a relative 2^-51 of it are flagged borderline, not failed.
    """
    E, ok, borderline = approx_checker(spec.q, d)(spec.p)
    return ApproxCheck(max_error=Fraction(E, spec.q), bound_ok=ok, borderline=borderline)


def third_layer_check(d_max: int) -> bool:
    """Each residue class mod 3 collects floor(2^d/3) or ceil(2^d/3) weights."""
    if d_max < 1:
        raise DomainError("d_max must be at least 1")
    return all(
        _splits_evenly(residue_table(3, d).values, d) for d in range(1, d_max + 1)
    )


def _splits_evenly(values: Sequence[int], d: int) -> bool:
    """Is each of the k values floor(2^d/k) or ceil(2^d/k)?"""
    k = len(values)
    return all(v in ((1 << d) // k, -((1 << d) // -k)) for v in values)
