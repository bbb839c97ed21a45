"""The limit λ(d,s) of λ(n,d,s) as n grows, and the closed forms that
``best_bounds`` encloses it with: the constructions' lower bounds, the
Turán upper bounds and the stored reference constants.  Each bound comes
from a ``Witness``, a family and its parameters, whose value the family
alone computes.  No numpy here.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .errors import CapabilityError, DomainError, check_int, show
from .gf2 import GF2Matrix, gf2_rank
from .residues import thm32_q
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


@dataclass(frozen=True, slots=True)
class Witness:
    """The source of one end of a λ(d,s) enclosure: a family and its
    parameters, as (name, value) pairs.  Lower families: ``syndrome``
    (rows), ``layered`` (k, T), ``bernoulli``, ``trivial`` (set) and
    ``complement`` (of, a witness); upper sources: ``codim-two``, ``turan``
    (n, parts) and ``reference``.  ``_FAMILIES`` owns their values and texts."""

    family: str
    params: tuple = ()

    @classmethod
    @lru_cache(maxsize=1 << 12)  # one object per witness: best_bounds makes a few per call
    def make(cls, family: str, **params) -> "Witness":
        return cls(family, tuple(params.items()))

    def value(self, d: int, s: int) -> Fraction:
        return _FAMILIES[self.family][0](d, s, **dict(self.params))

    def text(self, d: int) -> str:
        text = _FAMILIES[self.family][1]
        return text if isinstance(text, str) else text(d, **dict(self.params))

    def to_json(self) -> dict:
        out = {"family": self.family}
        for name, v in self.params:  # a witness, a tuple of residues or a scalar
            v = v.to_json() if isinstance(v, Witness) else v
            out[name] = list(v) if isinstance(v, tuple) else v
        return out


@dataclass(frozen=True)
class LambdaBounds:
    """Interval enclosing the limit value λ(d,s), with provenance: the
    witness attaining the lower end and the source of the upper end."""

    d: int
    s: int
    lower: Fraction
    upper: Fraction
    lower_witness: Witness
    upper_source: Witness

    def __post_init__(self) -> None:
        if not 0 <= self.lower <= self.upper <= 1:
            raise DomainError("bounds must satisfy 0 <= lower <= upper <= 1")

    def to_json(self) -> dict:
        return {
            "d": self.d,
            "s": self.s,
            "lower": str(self.lower),
            "upper": str(self.upper),
            "lower_witness": self.lower_witness.to_json(),
            "upper_source": self.upper_source.to_json(),
        }


@lru_cache(maxsize=None, typed=True)
def c_d(d: int) -> Fraction:
    """Probability that d uniform nonzero columns of F_2^d span it."""
    d = check_int("d", d, 1)
    terms = (1 - Fraction((1 << i) - 1, (1 << d) - 1) for i in range(1, d))
    return math.prod(terms, start=Fraction(1))


@lru_cache(maxsize=None, typed=True)
def c_dk(d: int, k: int) -> Fraction:
    """Probability that a (d-k) x d uniform binary matrix has full row rank."""
    d = check_int("d", d)
    k = check_int("k", k, 1, d)
    return math.prod((1 - Fraction(1 << i, 1 << d) for i in range(d - k)), start=Fraction(1))


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
    up = [Fraction((1 << m) - (1 << r), (1 << m) - 1) for r in range(m + 1)]  # 0 at r = m
    dp = [Fraction(1)] + [Fraction(0)] * m  # dp[r]: the chance of rank r so far
    for _ in range(d):
        dp = [dp[r] * (1 - up[r]) + (dp[r - 1] * up[r - 1] if r else 0) for r in range(m + 1)]
    return dp[m]


def c_star_enumerated(d: int, k: int) -> Fraction:
    """Oracle for c_star by enumerating all (2^(d-k)-1)^d column tuples."""
    d = check_int("d", d)
    k = check_int("k", k, 1, d)
    m = d - k
    if m == 0:
        return Fraction(1)
    # the rank of the m x d matrix is that of its transpose, whose rows are cols
    columns = itertools.product(range(1, 1 << m), repeat=d)
    hits = sum(gf2_rank(GF2Matrix(d, m, cols)) == m for cols in columns)
    return Fraction(hits, ((1 << m) - 1) ** d)


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


_CLOSED_FORM = "closed-form"  # the text of both computed upper sources
# family -> (its value at (d, s), its text or its text at d), given its parameters
_FAMILIES = {
    # the sets {x : Hx in C} of a rows x d matrix H with nonzero columns
    "syndrome": (
        lambda d, s, rows: c_d(d) if rows == d else c_star(d, d - rows),
        lambda d, rows: "syndrome (%s, nonzero columns)"
        % ("square matrix" if rows == d else f"{rows} rows"),
    ),
    # the weights in T mod k: the share of base weights mod k giving s vertices
    "layered": (
        lambda d, s, k, T: Fraction(sum(thm32_q(a, k, d, T) == s for a in range(k)), k),
        lambda d, k, T: f"weights divisible by {k}" if T == (0,) else f"weights {T} mod {k}",
    ),
    "bernoulli": (lambda d, s: expected_single_fraction(d), "Bernoulli(2^-d) set"),
    "trivial": (lambda d, s, set: Fraction(1), lambda d, set: set),  # set: occupancy_case's name
    "complement": (
        lambda d, s, of: of.value(d, (1 << d) - s),
        lambda d, of: f"complement of: {of.text(d)}",
    ),
    "codim-two": (lambda d, s: lambda_d2_closed_form(d, s), _CLOSED_FORM),  # λ(d+2, d, s)
    "turan": (lambda d, s, n, parts: turan_density(n, parts), _CLOSED_FORM),
    "reference": (lambda d, s: REFERENCE_UPPER[d, occupancy_case(d, s)[1]], "reference-constant"),
}


def best_bounds(d: int, s: int) -> LambdaBounds:
    """Tightest enclosure of the limit λ(d,s): the largest value of the
    lower witnesses and the smallest of the upper sources at (d, s)."""
    d, s = check_int("d", d, 1), check_int("s", s)
    trivial, low = occupancy_case(d, s)
    if trivial:
        lowers = [Witness.make("trivial", set=trivial)]
    else:
        # The denominators of c_d and c_star divide (2^d - 1)^(d - 1) or
        # (2^(d-k) - 1)^d; the Bernoulli fraction's is 2^(d(2^d - 1)).  Capping
        # that exponent's d at 16 keeps 2^d small and the test the same, since
        # 16(2^16 - 1) already passes the cap.
        bits = d * ((1 << min(d, 16)) - 1 if low == 1 else d - 1)
        if bits > _MAX_DENOMINATOR_BITS:
            raise CapabilityError(f"bounds at d={show(d)} need fractions of over 4300 digits")
        lowers = [Witness.make("syndrome", rows=d)]
        if low % 2 == 0:
            lowers.append(Witness.make("syndrome", rows=d - two_adic_split(low)[0]))
        if low == 1:
            lowers += [Witness.make("bernoulli"), Witness.make("layered", k=d + 1, T=(0,))]
    # past s = 1, π(d+2, ω(low)) with the a-priori cap ω(low) <= 4 low - 1; exact
    # when a Hadamard matrix of order 4 low exists, an upper bound regardless
    if trivial or low == 1:
        uppers = [Witness.make("codim-two")]
    else:
        uppers = [Witness.make("turan", n=d + 2, parts=4 * low - 1)]
    if (d, low) in REFERENCE_UPPER:
        uppers.append(Witness.make("reference"))
    lows, ups = [w.value(d, low) for w in lowers], [w.value(d, s) for w in uppers]
    lower, upper = max(lows), min(ups)
    lower_witness, upper_source = lowers[lows.index(lower)], uppers[ups.index(upper)]
    if low != s:  # λ(d,s) = λ(d, 2^d - s) via complementation
        lower_witness = Witness.make("complement", of=lower_witness)
    return LambdaBounds(d, s, lower, upper, lower_witness, upper_source)
