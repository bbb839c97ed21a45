"""The limit λ(d,s) of λ(n,d,s) as n grows, and the closed forms that
``best_bounds`` encloses it with: the constructions' lower bounds, the
Turán upper bounds and the stored reference constants.  Each bound comes
from a ``Witness``, a family and its parameters, whose value the family
alone computes.  The syndrome value, which ``c_d`` and ``c_star`` return
too, is one Möbius sum, cached per (d, rows).  Each closed form refuses a
d past its cap before any work.  No numpy here.
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


# Past these, each closed form would run for more than about a second
# (2-core Xeon, Python 3.11), so each is refused before any work.
SYNDROME_MAX_D = 400  # d of the syndrome value; its sum at rows = d takes 0.7-1.1 s at 400
FULL_RANK_MAX_D = 1000  # d of c_dk; its product at k = 1 takes 1.2 s at 1000
ENUMERATED_ENTRIES = 18  # entries (d - k)·d of the matrices c_star_enumerated runs through
BERNOULLI_MAX_D = 18  # d of expected_single_fraction; 0.34 s at 18, 1.1 s at 19


@lru_cache(maxsize=None)
def _syndrome(d: int, rows: int) -> Fraction:
    """The chance that d uniform nonzero columns span F_2^rows, 1 at rows = 0: the
    Möbius sum over its subspaces (Rota, 1964), the value of the syndrome family."""
    if d > SYNDROME_MAX_D:
        raise CapabilityError(f"the syndrome value is capped at d <= {SYNDROME_MAX_D}")
    total, gauss = 0, 1  # gauss = [rows choose j]_2
    for j in range(rows + 1):
        total += (-1) ** (rows - j) * 2 ** math.comb(rows - j, 2) * gauss * ((1 << j) - 1) ** d
        gauss = gauss * ((1 << (rows - j)) - 1) // ((1 << (j + 1)) - 1)
    return Fraction(total, ((1 << rows) - 1) ** d) if rows else Fraction(1)


def c_d(d: int) -> Fraction:
    """Probability that d uniform nonzero columns span F_2^d; the syndrome value at rows = d."""
    d = check_int("d", d, 1)
    return _syndrome(d, d)


@lru_cache(maxsize=None, typed=True)
def c_dk(d: int, k: int) -> Fraction:
    """Probability that a (d-k) x d uniform binary matrix has full row rank."""
    d = check_int("d", d)
    k = check_int("k", k, 1, d)
    if d > FULL_RANK_MAX_D:
        raise CapabilityError(f"c_dk is capped at d <= {FULL_RANK_MAX_D}")
    return math.prod((1 - Fraction(1 << i, 1 << d) for i in range(d - k)), start=Fraction(1))


def c_star(d: int, k: int) -> Fraction:
    """The syndrome value at d - k rows: the full-row-rank probability of a
    (d-k) x d matrix with uniform NONZERO columns."""
    d = check_int("d", d)
    k = check_int("k", k, 1, d)
    return _syndrome(d, d - k)


def c_star_enumerated(d: int, k: int) -> Fraction:
    """Oracle for c_star by enumerating all (2^(d-k)-1)^d column tuples."""
    d = check_int("d", d)
    k = check_int("k", k, 1, d)
    m = d - k
    if m * d > ENUMERATED_ENTRIES:
        raise CapabilityError(f"c_star_enumerated is capped at (d-k)·d <= {ENUMERATED_ENTRIES}")
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
    if d > BERNOULLI_MAX_D:
        raise CapabilityError(f"expected_single_fraction is capped at d <= {BERNOULLI_MAX_D}")
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
        lambda d, s, rows: _syndrome(d, rows),
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
