"""Exact distributions of |A ∩ Q| over the d-subcubes Q of Q_n.

Three routes to the same quantity, kept deliberately independent so they
can cross-check each other:

* ``distribution``       -- direct per-subcube popcounts (the oracle),
* ``distribution_fast``  -- prefix-shared coordinate folding (the fast path),
* ``layered_distribution`` -- analytic counts for layered sets, valid for n
  far beyond the materialized-mask cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cube import VertexSet, binomial, check_mask_dimension, enumerate_subcubes
from .cube import subcube_count
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
        if not 0 <= d <= n:
            raise DomainError(f"distribution d={d} outside [0, n]")
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
    if d < 0 or d > n:
        raise DomainError(f"subcube dimension {d} outside [0, {n}]")
    counts = [0] * ((1 << d) + 1)
    for q in enumerate_subcubes(n, d):
        counts[(A.bits & q.vertex_mask()).bit_count()] += 1
    return SubcubeDistribution(n, d, tuple(counts), subcube_count(n, d))


def distribution_fast(A: VertexSet, d: int) -> SubcubeDistribution:
    """Same output as ``distribution`` via prefix-shared coordinate folding.

    The free-coordinate sets are built one coordinate per level, in
    ascending order, so each partial fold is computed once and reused by
    every free set that extends it (see ``_leaf_blocks``).  Sums stay in
    the smallest unsigned dtype that holds 2^d, so counts are exact.
    """
    n = A.n
    if d < 0 or d > n:
        raise DomainError(f"subcube dimension {d} outside [0, {n}]")
    dtype = np.uint8 if d < 8 else np.uint16 if d < 16 else np.uint32
    top = A.flags().astype(dtype).reshape(1, 1 << n)
    hist = np.zeros((1 << d) + 1, dtype=np.int64)
    for leaves in _leaf_blocks(top, np.array([-1]), 0, n, d):
        flat = leaves.ravel()
        # bincount copies its input to intp; slicing keeps that copy small.
        for i in range(0, flat.size, _BLOCK_ELEMS):
            hist += np.bincount(flat[i : i + _BLOCK_ELEMS], minlength=(1 << d) + 1)
    counts = tuple(int(c) for c in hist)
    return SubcubeDistribution(n, d, counts, subcube_count(n, d))


# Upper bound on the elements of one block of rows in ``_leaf_blocks``
# (a single row may exceed it); it keeps the kernel's memory flat in n.
_BLOCK_ELEMS = 1 << 16


def _leaf_blocks(rows: np.ndarray, ends: np.ndarray, k: int, n: int, d: int):
    """Yield blocks of d-fold rows: one row per free set, 2^(n-d) counts each.

    Each row of ``rows`` is the indicator summed over k free coordinates,
    the largest being the row's entry in ``ends`` (ascending).  Folding in
    coordinate p > ends extends it; p stops at n-d+k so that d-k-1 larger
    coordinates remain.  The rows ending below p are a prefix, so one
    reshape-add folds all of them, and each child block is again sorted.
    """
    if k == d:
        yield rows
        return
    width = rows.shape[1] >> 1
    cap = max(1, _BLOCK_ELEMS // width)
    out = np.empty((cap, width), dtype=rows.dtype)
    out_ends = np.empty(cap, dtype=np.int64)
    filled = 0
    for p in range(k, n - d + k + 1):
        low = 1 << (p - k)  # stride of coordinate p once the k folded ones are gone
        start, stop = 0, int(np.searchsorted(ends, p))
        while start < stop:
            take = min(stop - start, cap - filled)
            pairs = rows[start : start + take].reshape(take, -1, 2, low)
            dest = out[filled : filled + take].reshape(take, -1, low)
            np.add(pairs[:, :, 0], pairs[:, :, 1], out=dest)
            out_ends[filled : filled + take] = p
            start, filled = start + take, filled + take
            if filled == cap:
                yield from _leaf_blocks(out, out_ends, k + 1, n, d)
                filled = 0
    if filled:
        yield from _leaf_blocks(out[:filled], out_ends[:filled], k + 1, n, d)


def lambda_of_set(A: VertexSet, d: int, s: int) -> Fraction:
    """λ(n, d, s, A): fraction of d-subcubes meeting A in exactly s vertices."""
    if not 0 <= s <= (1 << d):
        raise DomainError(f"s={s} outside [0, 2^d]")
    return distribution_fast(A, d).fraction(s)


def layered_distribution(n: int, d: int, spec: LayeredSpec) -> SubcubeDistribution:
    """Distribution for the layered set selected by ``spec``, analytically.

    A subcube whose base has Hamming weight w meets the layered set in
    thm32_q(w mod k, k, d, T) = sum(C(d, i) for i with (w+i) mod k in T)
    vertices, and there are C(n,d)*C(n-d,w) such subcubes.  Exact for any
    n; no mask is built.
    """
    if d < 0 or d > n:
        raise DomainError(f"subcube dimension {d} outside [0, {n}]")
    k, T = spec.k, spec.T
    counts = [0] * ((1 << d) + 1)
    choose_free = binomial(n, d)
    # the count depends on w only through w mod k
    hits = [thm32_q(a, k, d, T) for a in range(min(k, n - d + 1))]
    for w in range(n - d + 1):
        counts[hits[w % k]] += choose_free * binomial(n - d, w)
    return SubcubeDistribution(n, d, tuple(counts), subcube_count(n, d))
