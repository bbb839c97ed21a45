"""The limit λ(d,s) of λ(n,d,s) as n grows, and the closed forms that
``best_bounds`` encloses it with: the constructions' lower bounds, the
Turán upper bounds and the stored reference constants.  No numpy here.
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import CapabilityError, DomainError, check_int, show
from .gf2 import GF2Matrix, gf2_rank
from .turan import lambda_d2_closed_form, occupancy_case, turan_density

# Flag-algebra upper bounds quoted from the source remark; not
# reproducible at desk scale, stored verbatim and tagged as such.
REFERENCE_UPPER = {
    (2, 1): Fraction("0.68572"),
    (3, 1): Fraction("0.61005"),
    (4, 1): Fraction("0.60254"),
}

# Integers up to 2^14284 have at most 4300 decimal digits, the default
# int-to-str limit of Python, so fractions under it can be reported.
_MAX_DENOMINATOR_BITS = 14_284


@dataclass(frozen=True)
class LambdaBounds:
    """Interval enclosing the limit value λ(d,s), with provenance.

    lower_witness names the construction attaining the lower bound;
    upper_source is one of closed-form | reference-constant.
    """

    d: int
    s: int
    lower: Fraction
    upper: Fraction
    lower_witness: str
    upper_source: str

    def __post_init__(self) -> None:
        if not 0 <= self.lower <= self.upper <= 1:
            raise DomainError("bounds must satisfy 0 <= lower <= upper <= 1")

    def to_json(self) -> dict:
        return {
            "d": self.d,
            "s": self.s,
            "lower": str(self.lower),
            "upper": str(self.upper),
            "lower_witness": self.lower_witness,
            "upper_source": self.upper_source,
        }


@lru_cache(maxsize=None, typed=True)
def c_d(d: int) -> Fraction:
    """Probability that d uniform nonzero columns of F_2^d span it."""
    d = check_int("d", d, 1)
    out = Fraction(1)
    for i in range(1, d):
        out *= 1 - Fraction((1 << i) - 1, (1 << d) - 1)
    return out


@lru_cache(maxsize=None, typed=True)
def c_dk(d: int, k: int) -> Fraction:
    """Probability that a (d-k) x d uniform binary matrix has full row rank."""
    d = check_int("d", d)
    k = check_int("k", k, 1, d)
    out = Fraction(1)
    for i in range(d - k):
        out *= 1 - Fraction(1 << i, 1 << d)
    return out


@lru_cache(maxsize=None, typed=True)
def c_star(d: int, k: int) -> Fraction:
    """Full-row-rank probability for (d-k) x d with uniform NONZERO columns.

    Rank-evolution recurrence: a fresh nonzero column raises rank r with
    probability (2^(d-k) - 2^r)/(2^(d-k) - 1).
    """
    d = check_int("d", d)
    k = check_int("k", k, 1, d)
    m = d - k
    if m == 0:
        return Fraction(1)
    space = 1 << m
    dp = [Fraction(0)] * (m + 1)
    dp[0] = Fraction(1)
    for _ in range(d):
        nxt = [Fraction(0)] * (m + 1)
        for r, p in enumerate(dp):
            if not p:
                continue
            if r == m:
                nxt[r] += p
            else:
                up = Fraction(space - (1 << r), space - 1)
                nxt[r + 1] += p * up
                nxt[r] += p * (1 - up)
        dp = nxt
    return dp[m]


def c_star_enumerated(d: int, k: int) -> Fraction:
    """Oracle for c_star by enumerating all (2^(d-k)-1)^d column tuples."""
    d = check_int("d", d)
    k = check_int("k", k, 1, d)
    m = d - k
    if m == 0:
        return Fraction(1)
    nonzero = range(1, 1 << m)
    hits = 0
    total = 0
    for cols in itertools.product(nonzero, repeat=d):
        total += 1
        # the rank of the m x d matrix is that of its transpose, whose rows are cols
        if gf2_rank(GF2Matrix(d, m, cols)) == m:
            hits += 1
    return Fraction(hits, total)


@lru_cache(maxsize=None, typed=True)
def expected_single_fraction(d: int) -> Fraction:
    """(1 - 2^-d)^(2^d - 1): expected fraction of d-subcubes meeting a
    Bernoulli(2^-d) set in exactly one vertex."""
    d = check_int("d", d, 1)
    return Fraction((1 << d) - 1, 1 << d) ** ((1 << d) - 1)


def two_adic_split(s: int) -> tuple[int, int]:
    """s = 2^k · j with j odd."""
    s = check_int("s", s, 1)
    k = (s & -s).bit_length() - 1
    return k, s >> k


def best_bounds(d: int, s: int) -> LambdaBounds:
    """Tightest enclosure of the limit λ(d,s) assembled from all sources."""
    d, s = check_int("d", d, 1), check_int("s", s)
    trivial, low = occupancy_case(d, s)
    if trivial:
        return LambdaBounds(d, s, Fraction(1), Fraction(1), trivial, "closed-form")
    # The denominators of c_d and c_star divide (2^d - 1)^(d - 1) or
    # (2^(d-k) - 1)^d; the Bernoulli fraction's is 2^(d(2^d - 1)).  Capping
    # that exponent's d at 16 keeps 2^d small and the test the same, since
    # 16(2^16 - 1) already passes the cap.
    bits = d * ((1 << min(d, 16)) - 1 if low == 1 else d - 1)
    if bits > _MAX_DENOMINATOR_BITS:
        raise CapabilityError(f"bounds at d={show(d)} need fractions of over 4300 digits")
    lower_candidates: list[tuple[Fraction, str]] = [
        (c_d(d), "syndrome (square matrix, nonzero columns)")
    ]
    k, _ = two_adic_split(low)
    if 1 <= k <= d:
        lower_candidates.append(
            (c_star(d, k), f"syndrome ({d - k} rows, nonzero columns)")
        )
    if low == 1:
        lower_candidates.append((expected_single_fraction(d), "Bernoulli(2^-d) set"))
        lower_candidates.append(
            (Fraction(2, d + 1), f"weights divisible by {d + 1}")
        )
    lower, lower_witness = max(lower_candidates, key=lambda t: t[0])

    if low == 1:
        upper_candidates = [(lambda_d2_closed_form(d, 1), "closed-form")]
    else:
        # π(d+2, ω(low)) with the a-priori cap ω(low) <= 4 low - 1; exact when
        # a Hadamard matrix of order 4 low exists, an upper bound regardless.
        upper_candidates = [(turan_density(d + 2, 4 * low - 1), "closed-form")]
    if (d, low) in REFERENCE_UPPER:
        upper_candidates.append((REFERENCE_UPPER[(d, low)], "reference-constant"))
    upper, upper_source = min(upper_candidates, key=lambda t: t[0])
    if low != s:  # λ(d,s) = λ(d, 2^d - s) via complementation
        lower_witness = f"complement of: {lower_witness}"
    return LambdaBounds(d, s, lower, upper, lower_witness, upper_source)
