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

The checks read the prefix sums P of the deviations q row[a] - 2^d: each
count's deviation is a difference of two of them, and the worst over
every p is max P - min P (``approx_worst``).
"""

import decimal
import math
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from typing import Iterator, Sequence

from .errors import CapabilityError, DomainError, check_int
from .residues import MAX_MODULUS, _binsum_row, residue_table


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
        # store the ints check_int returns: a numpy integer would reach to_json
        object.__setattr__(self, "q", check_int("modulus", self.q, 1))
        object.__setattr__(self, "p", check_int("p", self.p, 0, self.q))
        if self.tol <= 0.0:
            raise DomainError("tolerance must be positive")
        object.__setattr__(self, "d_min", check_int("dimension threshold", self.d_min, 1))

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

    def to_json(self) -> dict:
        return {"max_error": str(self.max_error), "bound_ok": self.bound_ok}


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
    # least d with q e^(-d/(10 q^2)) <= budget; the float estimate, in logarithms
    # so that no budget overflows or rounds to 0, resolves d only to about 10 q^2
    # ulp(log q), a few units at q = 10^6, so the exact ``_bound_test`` corrects it
    num, den = budget.numerator, budget.denominator
    d = max(1, math.ceil(10 * q * q * (math.log(q) - math.log(num) + math.log(den))))
    while _bound_test(q, d, num, den):
        d += 1
    while d > 1 and not _bound_test(q, d - 1, num, den):
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


def _bound_test(q: int, d: int, num: int, den: int = 1, shift: int = 0) -> bool:
    """Is r = num / (den 2^shift) >= 0 below the bound q e^(-d/(10 q^2))?

    A deviation D is within the proven bound q 2^d e^(-d/(10 q^2)) when r =
    D / 2^d is below this one.  The verdict is the sign of the gap ln q -
    d/(10 q^2) - ln num + ln den + shift ln 2, trusted in float64 when it
    clears 2^-48 (sum of the term sizes + 1), a few times their roundoff,
    and else the sign of ``_decimal_gap``.  At d = 0 the bound q could tie
    r, so d < 1 is refused.
    """
    if d < 1:
        raise DomainError("the bound is decided only at dimension 1 or more")
    if num == 0:
        return True
    terms = (math.log(q), -d / (10 * q * q), -math.log(num), math.log(den), shift * math.log(2))
    gap = sum(terms)
    if abs(gap) <= (sum(map(abs, terms)) + 1) * 2.0**-48:
        gap = _decimal_gap(q, d, num, den, shift)
    return gap > 0


@lru_cache(maxsize=128)
def _rate(q: int, d: int, prec: int) -> tuple[Decimal, Decimal]:
    """x = d/(10 q^2) and e^(-x), each rounded once to prec digits."""
    with decimal.localcontext(prec=prec):
        x = Decimal(d) / (10 * q * q)
        return x, (-x).exp()


def _decimal_gap(q: int, d: int, num: int, den: int, shift: int) -> Decimal:
    """B - num, B = q den 2^shift e^(-x) with x = d/(10 q^2), in decimal at
    a precision that fixes its sign, the sign of ``_bound_test``'s gap.

    Let u = 10^(1 - prec) / 2.  The quotient x, its exp (correctly
    rounded) and the product P of the exact integer q den 2^shift with
    e^(-x) are each rounded once, to a relative u, so P / B = e^(-x δ1)
    (1 + δ2)(1 + δ3) with |δi| <= u.  Starting at 40 + bit_length(d)
    digits makes u < 10^-39 / d^2, so η = x u < 10^-40 and η^2 < 10^-41 u;
    with e^η - 1 <= η + η^2 that gives |P / B - 1| <= (x + 3) u =: ρ, and
    |P - B| <= ρ (1 + 2ρ) P.  The margin (x + 4) P 10^(1 - prec) is
    2 (x + 4) u P; rounding x, x + 4, the margin and P - num moves the test
    by a factor within (1 +- u)^4, so an accepted |P - num| exceeds
    1.9 (x + 4) u P > |P - B|, and P - num has the sign of B - num.
    Decimal's default exponent range holds e^(-x) and P for x < 2·10^6
    and q den 2^shift < 10^999999; the package's calls have x < 2·10^3
    and shift <= 10^4.  B - num != 0, as e^(-x) is irrational for rational
    x != 0 (Lindemann, 1882), so the doubling ends once the margin is
    below |B - num|.  ``_rate`` caches x and e^(-x) per (q, d, prec).
    """
    prec = 40 + d.bit_length()
    while True:
        x, rate = _rate(q, d, prec)
        with decimal.localcontext(prec=prec):
            bound = (q * den << shift) * rate
            gap = bound - num
            if abs(gap) > ((x + 4) * bound).scaleb(1 - prec):
                return gap
        prec *= 2


def _prefix_sums(q: int, d: int) -> list[int]:
    """The prefix sums P[i] of the deviations q row[a] - 2^d, for i = 0..h.

    Row d of the residue sums mod q adds to 2^d, so P[q] = 0.  Past residue
    d the row is zero, so only the head h = min(q, d + 1) is stored: from
    there on P[i] = (q - i) 2^d, falling to P[q - 1] = 2^d.  Residues mod
    d + 1 give the same head as residues mod q > d + 1, one binomial each.
    """
    head = _binsum_row(min(q, d + 1), d)  # past ROW_CAP this raises first
    full = 1 << d
    return list(accumulate((q * v - full for v in head), initial=0))


def approx_worst(q: int, d: int) -> tuple[int, bool]:
    """The worst layered set "weight mod q < p" over every 0 < p < q, at dimension d.

    A d-subcube of base weight residue a holds (p 2^d + W_p(a)) / q set
    vertices, where W_p(a) sums the deviations q row[b] - 2^d over the
    window b = a, ..., a+p-1 (mod q).  With the prefix sums P of
    ``_prefix_sums`` and P[q] = 0, every window is W_p(a) = P[(a+p) mod q]
    - P[a].  Each ordered pair i != j of residues is exactly one window,
    the one with p = (j - i) mod q in [1, q-1], so the largest |W_p(a)|
    over every p and a is max P - min P, read in O(q) steps.  Past the
    stored head h, P falls from P[h] to 2^d > P[0] = 0, so the head alone
    has that range.  Returns E and its ``_bound_test`` verdict.
    """
    # q >= 2, so that some 0 < p < q exists
    q, d = check_int("modulus", q, 2), check_int("dimension", d, 1)
    P = _prefix_sums(q, d)
    E = max(P) - min(P)
    return E, _bound_test(q, d, E, q, d)


def check_approx(spec: ApproxSpec, d: int) -> ApproxCheck:
    """Exact worst-case deviation of the layer counts from (p/q) 2^d at dimension d.

    With the prefix sums P of ``_prefix_sums``, E = max over a of
    |P[(a+p) mod q] - P[a]| (see ``approx_worst``), so E / q is the worst
    deviation of a count, and ``_bound_test`` decides it against the proven
    bound q 2^d e^(-d/(10 q^2)) exactly.  Past the stored head h, P falls
    by 2^d a step, so a window from the tail to the tail is -p 2^d or, if
    it wraps, (q - p) 2^d.  The windows from q - p to 0 and from 0 to p
    read the same values, so only the O(h) windows that start or end in
    the head are read.
    """
    q, p, d = spec.q, spec.p, check_int("dimension", d, 1)
    P = _prefix_sums(q, d)
    h, full = len(P) - 1, 1 << d

    def at(i: int) -> int:
        return P[i] if i <= h else (q - i) * full

    starts = {*range(h), *((b - p) % q for b in range(h))}
    E = max(abs(at((a + p) % q) - at(a)) for a in starts)
    return ApproxCheck(max_error=Fraction(E, q), bound_ok=_bound_test(q, d, E, q, d))


def third_layer_check(d_max: int) -> bool:
    """Each residue class mod 3 collects floor(2^d/3) or ceil(2^d/3) weights."""
    d_max = check_int("d_max", d_max, 1)
    residue_table(3, d_max)  # the largest row first: past ROW_CAP it raises before any work
    return all(
        _splits_evenly(residue_table(3, d).values, d) for d in range(1, d_max + 1)
    )


def _splits_evenly(values: Sequence[int], d: int) -> bool:
    """Is each of the k values floor(2^d/k) or ceil(2^d/k)?"""
    k = len(values)
    return all(v in ((1 << d) // k, -((1 << d) // -k)) for v in values)
