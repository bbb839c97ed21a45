"""Exact distributions of |A ∩ Q| over the d-subcubes Q of Q_n.

Three routes to the same quantity, kept deliberately independent so they
can cross-check each other:

* ``distribution``       -- direct per-subcube popcounts (the oracle),
* ``distribution_fast``  -- prefix-shared coordinate folding replayed from
  a cached per-block plan (the fast path),
* ``layered_distribution`` -- analytic counts for layered sets, valid for n
  far beyond the materialized-mask cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .cube import VertexSet, binomial, check_mask_dimension, check_subcube_dimension
from .cube import enumerate_subcubes, subcube_count
from .errors import DomainError, fields
from .residues import thm32_q


@dataclass(frozen=True)
class SubcubeDistribution:
    """counts[s] = number of d-subcubes of Q_n containing exactly s points of A."""

    n: int
    d: int
    counts: tuple[int, ...]
    total: int

    def __post_init__(self) -> None:
        if len(self.counts) != (1 << self.d) + 1:
            raise DomainError("counts must have length 2^d + 1")
        if sum(self.counts) != self.total:
            raise DomainError("counts do not sum to the number of subcubes")

    def fraction(self, s: int) -> Fraction:
        """λ(n, d, s, A) as an exact rational."""
        if not 0 <= s <= (1 << self.d):
            raise DomainError(f"s={s} outside [0, 2^d]")
        return Fraction(self.counts[s], self.total)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "d": self.d,
            "total": str(self.total),
            "counts": {str(s): str(c) for s, c in enumerate(self.counts) if c},
        }

    @classmethod
    def from_json(cls, obj: dict) -> SubcubeDistribution:
        n, d, total, raw = fields(
            obj, "distribution", n="int", d="int", total="str", counts="dict"
        )
        check_subcube_dimension(n, d)
        check_mask_dimension(d)
        counts = [0] * ((1 << d) + 1)
        for s, c in raw.items():
            s = _count(s)
            if s > 1 << d:
                raise DomainError(f"count index {s} outside [0, 2^d]")
            counts[s] = _count(c)
        return cls(n, d, tuple(counts), _count(total))


def _count(text) -> int:
    """A count as ``to_json`` writes it: a string of decimal digits."""
    if isinstance(text, str) and text.isascii() and text.isdigit():
        try:
            return int(text)
        except ValueError:  # more digits than Python converts to an int
            pass
    raise DomainError(f"count {text!r} is not a string of decimal digits")


@dataclass(frozen=True)
class LambdaBounds:
    """Interval enclosing the limit value λ(d,s), with provenance.

    lower_witness names the construction attaining the lower bound;
    upper_source is one of closed-form | generic | reference-constant.
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


@dataclass(frozen=True)
class LayeredSpec:
    """Union-of-layers selector: keep vertices whose weight mod k lies in T."""

    k: int
    T: frozenset[int]

    def __post_init__(self) -> None:
        if self.k < 1:
            raise DomainError("modulus k must be >= 1")
        if not all(0 <= t < self.k for t in self.T):
            raise DomainError("T must be a subset of Z_k")


def distribution(A: VertexSet, d: int) -> SubcubeDistribution:
    """Exact distribution by direct enumeration over all d-subcubes."""
    n = A.n
    check_subcube_dimension(n, d)
    counts = [0] * ((1 << d) + 1)
    for q in enumerate_subcubes(n, d):
        counts[(A.bits & q.vertex_mask()).bit_count()] += 1
    return SubcubeDistribution(n, d, tuple(counts), subcube_count(n, d))


def distribution_fast(A: VertexSet, d: int) -> SubcubeDistribution:
    """Same output as ``distribution`` via prefix-shared coordinate folding.

    The free-coordinate sets are built one coordinate per level, in
    ascending order, so each partial fold is computed once and reused by
    every free set that extends it; ``_block_plan`` caches that traversal.
    Sums stay in the smallest unsigned dtype that holds 2^d: counts are exact.
    """
    n = A.n
    check_subcube_dimension(n, d)
    dtype = np.uint8 if d < 8 else np.uint16 if d < 16 else np.uint32
    top = A.flags().astype(dtype).reshape(1, 1 << n)
    hist = np.zeros((1 << d) + 1, dtype=np.int64)
    _replay(_block_plan(n, d, 0, ((-1, 1),), _BLOCK_ELEMS), top, hist)
    return SubcubeDistribution(n, d, tuple(hist.tolist()), subcube_count(n, d))


# Most elements in one block of rows (one row may exceed it): memory stays flat in n.
_BLOCK_ELEMS = 1 << 16


@lru_cache(maxsize=None)
def _block_plan(n: int, d: int, k: int, runs: tuple, block: int) -> tuple | None:
    """The steps that fold one block of level-k rows; ``None`` once k == d.

    A row sums the indicator over k free coordinates, the largest its end;
    ``runs`` is ((end, count), ...), ends ascending.  The rows ending below
    coordinate p <= n-d+k are a prefix: (a, b, low, c) folds rows a..b at
    stride low into rows c.. of the next level's buffer, and (child, rows)
    replays ``child`` on that buffer when full and at the end.
    """
    if k == d:
        return None
    cap, last = max(1, block >> (n - k - 1)), n - d + k
    steps, child, filled = [], [], 0
    for p in range(k, last + 1):
        start, stop = 0, sum(c for end, c in runs if end < p)
        while start < stop:
            take = min(stop - start, cap - filled)
            steps.append((start, start + take, 1 << (p - k), filled))
            child.append((p, take))  # p recurs only after a flush
            start, filled = start + take, filled + take
            if filled == cap or start == stop and p == last:
                steps.append((_block_plan(n, d, k + 1, tuple(child), block), filled))
                child, filled = [], 0
    return tuple(steps)


def _replay(plan: tuple | None, rows: np.ndarray, hist: np.ndarray) -> None:
    """Run ``plan`` on ``rows``, bincounting its leaves into ``hist``."""
    if plan is None:
        flat = rows.ravel()  # bincount copies to intp; slicing keeps that small
        for i in range(0, flat.size, _BLOCK_ELEMS):
            hist += np.bincount(flat[i : i + _BLOCK_ELEMS], minlength=hist.size)
        return
    width = rows.shape[1] >> 1
    out = np.empty((max(1, _BLOCK_ELEMS // width), width), dtype=rows.dtype)
    for step in plan:
        if len(step) == 2:
            _replay(step[0], out[: step[1]], hist)
        else:
            a, b, low, c = step
            pairs = rows[a:b].reshape(b - a, -1, 2, low)
            dest = out[c : c + b - a].reshape(b - a, -1, low)
            np.add(pairs[:, :, 0], pairs[:, :, 1], out=dest)


def lambda_of_set(A: VertexSet, d: int, s: int) -> Fraction:
    """λ(n, d, s, A): fraction of d-subcubes meeting A in exactly s vertices."""
    return distribution_fast(A, d).fraction(s)


def layered_distribution(n: int, d: int, spec: LayeredSpec) -> SubcubeDistribution:
    """Distribution for the layered set selected by ``spec``, analytically.

    A subcube whose base has Hamming weight w meets the layered set in
    thm32_q(w mod k, k, d, T) = sum(C(d, i) for i with (w+i) mod k in T)
    vertices, and there are C(n,d)*C(n-d,w) such subcubes.  Exact for any
    n; no mask is built.
    """
    check_subcube_dimension(n, d)
    k, T = spec.k, spec.T
    counts = [0] * ((1 << d) + 1)
    choose_free = binomial(n, d)
    # the count depends on w only through w mod k
    hits = [thm32_q(a, k, d, T) for a in range(min(k, n - d + 1))]
    for w in range(n - d + 1):
        counts[hits[w % k]] += choose_free * binomial(n - d, w)
    return SubcubeDistribution(n, d, tuple(counts), subcube_count(n, d))
