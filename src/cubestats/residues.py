"""Binomial coefficient sums by residue class, with small-parameter checkers.

q_binsum(a, k, d) adds up C(d, i) over the indices i congruent to a mod k.
These sums control how many vertices of a weight-layered set fall in each
subcube, so the checkers here (non-equality of the k sums, classification
of the residue sets that make them equal) back the layered constructions.
"""

import cmath
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError, is_int

__all__ = [
    "ResidueSumTable",
    "Thm32Case",
    "Thm32Report",
    "q_binsum",
    "q_fourier",
    "residue_table",
    "thm32_q",
    "verify_prop31",
    "verify_thm32",
]


@lru_cache(maxsize=None)
def _binsum_row(k: int, d: int) -> tuple[int, ...]:
    if k < 1:
        raise DomainError("modulus must be at least 1")
    if d < 0:
        raise DomainError("dimension must be nonnegative")
    values = [0] * k
    c = 1  # C(d, i), stepped by C(d, i+1) = C(d, i) (d-i) / (i+1)
    for i in range(d + 1):
        values[i % k] += c
        c = c * (d - i) // (i + 1)
    return tuple(values)


def q_binsum(a: int, k: int, d: int) -> int:
    """Exact sum of C(d, i) over 0 <= i <= d with i = a (mod k)."""
    row = _binsum_row(k, d)
    if not 0 <= a < k:
        raise DomainError(f"residue {a} is outside range(0, {k})")
    return row[a]


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
    return ResidueSumTable(k, d, _binsum_row(k, d))


def q_fourier(a: int, k: int, d: int) -> complex:
    """Root-of-unity evaluation of q_binsum, for cross-checking only.

    Computes (1/k) * sum_i w^(-i*a) * (1 + w^i)^d with w = exp(2*pi*I/k).
    Floating point, with an absolute error on the order of
    2^d * k * machine epsilon; q_binsum is the ground truth.
    """
    _binsum_row(k, d)
    if not 0 <= a < k:
        raise DomainError(f"residue {a} is outside range(0, {k})")
    total = 0j
    for i in range(k):
        w_i = cmath.exp(2j * cmath.pi * i / k)
        total += cmath.exp(-2j * cmath.pi * i * a / k) * (1 + w_i) ** d
    return total / k


def thm32_q(a: int, k: int, d: int, T: Iterable[int]) -> int:
    """Sum of C(d, i) over the i whose shifted residue (i + a) mod k lies in T."""
    row = _binsum_row(k, d)
    if not 0 <= a < k:
        raise DomainError(f"residue {a} is outside range(0, {k})")
    residues = set(T)
    if not residues <= set(range(k)):
        raise DomainError("T must be a subset of the residues mod k")
    return sum(row[(t - a) % k] for t in residues)


def verify_prop31(k: int, d: int) -> bool:
    """Check that the k residue sums of row d are not all equal.

    The claim being checked holds whenever 2 < k <= d; parameters outside
    that window are refused rather than reported as counterexamples.
    """
    if not 2 < k <= d:
        raise DomainError("requires 2 < k <= d")
    return len(set(_binsum_row(k, d))) > 1


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
    integer product per d gives all k shifted sums of every set.  Each
    sum is at most 2^d: int64 holds it while d <= 62, Python ints beyond.
    """
    member = (np.arange(1 << k)[:, None] >> np.arange(k)) & 1
    shift = (np.arange(k)[:, None] - np.arange(k)) % k
    hits = []
    for j, d in enumerate(dims):
        dtype = np.int64 if d <= 62 else object
        circulant = np.array(_binsum_row(k, d), dtype=dtype)[shift]
        vals = member.astype(dtype, copy=False) @ circulant
        for i in np.flatnonzero((vals == vals[:, :1]).all(axis=1)).tolist():
            hits.append((i, j, (int(vals[i, 0]),) * k))
    hits.sort(key=lambda hit: hit[:2])
    return [
        Thm32Case(dims[j], tuple(t for t in range(k) if i >> t & 1), values)
        for i, j, values in hits
    ]


def verify_thm32(k: int, d_range: Iterable[int]) -> Thm32Report:
    """Scan every residue set T mod k over the given dimensions.

    For each T whose k shifted sums are all equal, check that T is the empty
    set, all of Z_k, or (k even) one of the two parity classes, with common
    value 0, 2^d, or 2^(d-1) respectively.  Anything else is a violation.
    """
    if not 1 <= k <= 16:
        raise DomainError("subset enumeration supports 1 <= k <= 16")
    d_range = list(d_range)
    if not all(map(is_int, d_range)):
        raise DomainError("dimensions must be integers")
    dims = tuple(sorted({int(d) for d in d_range}))
    if not dims:
        raise DomainError("need at least one dimension")
    if dims[0] < 0:
        raise DomainError("dimensions must be nonnegative")

    allowed = {d: _admissible(k, d) for d in dims}
    expected, violations = [], []
    for case in _constant_cases(k, dims):
        admissible = allowed[case.d].get(case.subset) == case.values[0]
        (expected if admissible else violations).append(case)
    return Thm32Report(k, dims, tuple(expected), tuple(violations))
