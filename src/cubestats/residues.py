"""Binomial coefficient sums by residue class, with small-parameter checkers.

q_binsum(a, k, d) adds up C(d, i) over the indices i congruent to a mod k.
These sums control how many vertices of a weight-layered set fall in each
subcube, so the checkers here (non-equality of the k sums, classification
of the residue sets that make them equal) back the layered constructions.
"""

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import CapabilityError, DomainError, check_int


ROW_CAP = 10_000  # the largest dimension d a residue row is built at

# The most shifted sums one product of ``_constant_cases`` computes
_STACK_ELEMS = 1 << 18

# k -> (d, the k residue-class sums of row d of Pascal's triangle) for the
# latest row built mod k: every walk in the package steps from row d - 1 of
# the same k, so one row per modulus is all that a later call reuses
_ROWS: dict[int, tuple[int, tuple[int, ...]]] = {}


def _binsum_row(k: int, d: int) -> tuple[int, ...]:
    # before the cache, which a float equal to an int would hit; the exact
    # type test keeps the common call cheap, and numpy ints become ints
    if type(k) is not int or type(d) is not int:
        k, d = check_int("modulus", k), check_int("dimension", d)
    last, row = _ROWS.get(k, (None, ()))
    if last == d:
        return row
    if k < 1:
        raise DomainError("modulus must be at least 1")
    if d < 0:
        raise DomainError("dimension must be nonnegative")
    if d > ROW_CAP:
        raise CapabilityError(f"residue rows past dimension {ROW_CAP} are unsupported")
    if last == d - 1 and k <= d:  # for k > d the d + 1 direct terms are fewer
        # Pascal's rule: C(d, i) = C(d-1, i) + C(d-1, i-1); row[-1] wraps mod k
        row = tuple(row[a] + row[a - 1] for a in range(k))
    else:
        values = [0] * k
        c = 1  # C(d, i), stepped by C(d, i+1) = C(d, i) (d-i) / (i+1)
        for i in range(d + 1):
            values[i % k] += c
            c = c * (d - i) // (i + 1)
        row = tuple(values)
    _ROWS[k] = d, row
    return row


def q_binsum(a: int, k: int, d: int) -> int:
    """Exact sum of C(d, i) over 0 <= i <= d with i = a (mod k)."""
    row = _binsum_row(k, d)
    return row[check_int("residue", a, 0, k - 1)]


@dataclass(frozen=True)
class ResidueSumTable:
    """All k residue-class sums of row d of Pascal's triangle."""

    k: int
    d: int
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.values) != self.k:
            raise DomainError("need exactly one value per residue class")
        if sum(self.values) != 1 << self.d:
            raise DomainError("residue sums must add up to 2^d")

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "d": self.d,
            "values": [str(v) for v in self.values],
        }


def residue_table(k: int, d: int) -> ResidueSumTable:
    # the row's checks admit numpy ints; the table keeps Python ints, so
    # that 2^d in its own check is exact at any d
    row = _binsum_row(k, d)
    return ResidueSumTable(len(row), int(d), row)


def thm32_q(a: int, k: int, d: int, T: Iterable[int]) -> int:
    """Sum of C(d, i) over the i whose shifted residue (i + a) mod k lies in T."""
    row = _binsum_row(k, d)
    a = check_int("residue", a, 0, k - 1)
    residues = {check_int("residue in T", t, 0, k - 1) for t in T}
    return sum(row[(t - a) % k] for t in residues)


def verify_prop31(k: int, d: int) -> bool:
    """Check that the k residue sums of row d are not all equal.

    The claim being checked holds whenever 2 < k <= d; parameters outside
    that window are refused rather than reported as counterexamples.
    """
    d = check_int("d", d)
    return prop31_holds(_binsum_row(check_int("k", k, 3, d), d))


def prop31_holds(values: Sequence[int]) -> bool:
    """Are the residue sums of a row not all equal, as Proposition 3.1 claims?"""
    return len(set(values)) > 1


@dataclass(frozen=True)
class Thm32Case:
    """A residue set T whose k shifted sums came out all equal at dimension d."""

    d: int
    subset: tuple[int, ...]
    values: tuple[int, ...]

    def to_json(self) -> dict:
        return {
            "d": self.d,
            "T": list(self.subset),
            "values": [str(v) for v in self.values],
        }


def _admissible(k: int, d: int) -> dict[tuple[int, ...], int]:
    """The residue sets T mod k that Theorem 3.2 allows at d, with their common sum.

    These are the empty set (sum 0), all of Z_k (2^d) and, for even k and
    d >= 1, the two parity classes (2^(d-1) each).
    """
    allowed = {(): 0, tuple(range(k)): 1 << d}
    if k % 2 == 0 and d >= 1:
        allowed[tuple(range(0, k, 2))] = allowed[tuple(range(1, k, 2))] = 1 << (d - 1)
    return allowed


def thm32_admissible(k: int, case: Thm32Case) -> bool:
    """Is the constant case one that Theorem 3.2 allows, with its common value?"""
    return _admissible(k, case.d).get(case.subset) == case.values[0]


@dataclass(frozen=True)
class Thm32Report:
    """Classification of the constant-sum residue sets found by verify_thm32."""

    k: int
    dims: tuple[int, ...]
    expected: tuple[Thm32Case, ...]
    violations: tuple[Thm32Case, ...]

    @property
    def ok(self) -> bool:
        """No violation, and every admissible (d, T) was found constant."""
        found = {(case.d, case.subset) for case in self.expected}
        allowed = {(d, T) for d in self.dims for T in _admissible(self.k, d)}
        return not self.violations and found == allowed


def _constant_cases(k: int, dims: Sequence[int]) -> list[Thm32Case]:
    """The constant cases among all 2^k residue sets, by set mask and then by d.

    Row i of ``member`` holds the bits of mask i, and column a of the
    circulant ``row[(t - a) % k]`` picks out the shift by a, so one
    integer product over a stack of circulants gives all k shifted sums
    of every set at every d of the stack.  Each sum is at most 2^d: int64
    holds it while d <= 62, Python ints beyond, so the two kinds of d are
    stacked apart, and each stack holds at most ``_STACK_ELEMS`` sums.
    """
    member = (np.arange(1 << k)[:, None] >> np.arange(k)) & 1
    shift = (np.arange(k)[:, None] - np.arange(k)) % k
    step = max(1, _STACK_ELEMS // (k << k))
    hits = []
    parts = (np.int64, [d for d in dims if d <= 62]), (object, [d for d in dims if d > 62])
    for dtype, part in parts:
        for lo in range(0, len(part), step):
            stack = part[lo : lo + step]
            circulants = np.array([_binsum_row(k, d) for d in stack], dtype=dtype)[:, shift]
            vals = member.astype(dtype, copy=False) @ circulants  # vals[j, i, a]
            for j, i in zip(*np.nonzero((vals == vals[..., :1]).all(axis=2))):
                hits.append((int(i), stack[j], (int(vals[j, i, 0]),) * k))
    hits.sort(key=lambda hit: hit[:2])
    return [
        Thm32Case(d, tuple(t for t in range(k) if i >> t & 1), values) for i, d, values in hits
    ]


def verify_thm32(k: int, d_range: Iterable[int]) -> Thm32Report:
    """Scan every residue set T mod k over the given dimensions.

    For each T whose k shifted sums are all equal, check that T is the empty
    set, all of Z_k, or (k even) one of the two parity classes, with common
    value 0, 2^d, or 2^(d-1) respectively.  Anything else is a violation.
    """
    k = check_int("k", k, 1, 16)  # subset enumeration is 2^k sets
    dims = tuple(sorted({check_int("dimension", d, 0) for d in d_range}))
    if not dims:
        raise DomainError("need at least one dimension")
    _binsum_row(k, dims[-1])  # the largest row first: past ROW_CAP it raises before any work

    expected, violations = [], []
    for case in _constant_cases(k, dims):
        (expected if thm32_admissible(k, case) else violations).append(case)
    return Thm32Report(k, dims, tuple(expected), tuple(violations))
