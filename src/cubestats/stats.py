"""Exact distributions of |A ∩ Q| over the d-subcubes Q of Q_n.

Three routes to the same quantity, kept deliberately independent so they
can cross-check each other:

* ``distribution``       -- direct per-subcube popcounts (the oracle),
* ``distribution_fast``  -- prefix-shared coordinate folding: a program
  of views into reusable level buffers, compiled once per shape in one
  pass and run as word-wide adds, with uint8 leaf counts histogrammed two
  per bin (the fast path),
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
    every free set that extends it.  ``_bind`` compiles that traversal once
    per shape into a workspace: level buffers and a program of views into
    them.  A call takes a workspace from the shape's free list, copies A's
    indicator into its top buffer and runs its program: only ``np.add``
    into fixed views and the leaf histograms.  Sums stay in
    the smallest unsigned dtype that holds 2^d, so counts are exact and the
    word-wide adds of ``_program`` never carry from one count into the next.
    Below d = 8 the counts are uint8, and the leaves are histogrammed in
    pairs into a (2^d + 1, 256) grid whose row and column sums are the
    counts of the odd and even lanes; see ``_program``.
    """
    n = A.n
    check_subcube_dimension(n, d)
    pool = _pool(n, d, _BLOCK_ELEMS)
    try:
        top, hist, pairs, program = pool.pop()
    except IndexError:  # none bound yet, or every one is in use
        top, hist, pairs, program = _bind(n, d, _BLOCK_ELEMS)
    np.copyto(top, A.flags())
    hist.fill(0)
    if pairs is not None:
        pairs.fill(0)
    for x, y, out in program:
        if y is not None:
            np.add(x, y, out=out, order="C")  # innermost along the last axis
        elif pairs is None:
            out += np.bincount(x, minlength=out.size)
        else:
            np.add.at(out, x, 1)
    if pairs is not None:  # row c counts the odd lanes holding c, column c the even
        hist += pairs.sum(axis=1) + pairs.sum(axis=0)
    counts = tuple(hist.tolist())
    pool.append((top, hist, pairs, program))
    return SubcubeDistribution(n, d, counts, subcube_count(n, d))


# Most elements in one block of rows (one row may exceed it): memory stays flat in n.
_BLOCK_ELEMS = 1 << 16

# Runs of fewer words than this are added across their pairs: on 8 KiB
# buffers numpy took 1.4-3x as long with a 2- or 4-word run innermost.
_SHORT_RUN = 8

# Shapes whose workspaces are kept.  A workspace holds up to a block per
# level besides its 2^n-element top buffer, and at most 129 x 256 int64
# pair bins (258 KiB, at d = 7).  Every caller in this package runs one
# shape at a time; keeping two shapes doubled the rise in the bigcube
# benchmark's peak RSS, from 0.29 to 0.58 MiB.
_POOL_SHAPES = 1


@lru_cache(maxsize=_POOL_SHAPES)
def _pool(n: int, d: int, block: int) -> list:
    """Free list of (top, hist, pairs, program) workspaces for one shape.

    A caller pops one, or binds a fresh one when the list is empty, and
    appends it back when done: list.pop and list.append are atomic, so
    concurrent callers never share buffers.
    """
    return []


def _bind(n: int, d: int, block: int) -> tuple:
    """A workspace for (n, d, block): (top, hist, pairs, program).

    Level k has one flat buffer of 2^(n-k)-element rows: as many as a block
    holds (at least one), but no more than the C(n-d+k, k) rows the level
    has in all.  Each program entry is (x, y, out) for ``np.add`` or
    (leaf, None, out) for a histogram of the leaf counts into ``out``, with
    every view built here once, by ``_program``.  ``hist`` holds the 2^d + 1
    counts; ``pairs`` is None for wider dtypes, else the histogram of uint8
    leaf pairs: a (2^d + 1, 2^d + 1) view of the (2^d + 1, 256) grid that
    the program indexes flat, since no count exceeds 2^d.
    """
    dtype = np.uint8 if d < 8 else np.uint16 if d < 16 else np.uint32
    rows = [min(max(1, block >> (n - k)), binomial(n - d + k, k)) for k in range(d + 1)]
    levels = [np.empty(r << (n - k), dtype) for k, r in enumerate(rows)]
    hist = np.zeros((1 << d) + 1, dtype=np.int64)
    bins = pairs = None
    if dtype == np.uint8:
        bins = np.zeros(256 * hist.size, dtype=np.int64)
        pairs = bins.reshape(-1, 256)[:, : hist.size]
    program = _program(n, d, 0, ((-1, 1),), levels, (hist, bins), block, {})
    return levels[0], hist, pairs, program


def _program(
    n: int, d: int, k: int, runs: tuple, levels: list, hists: tuple, block: int, memo: dict
) -> list:
    """The flat op list that folds one block of level-k rows down to the leaves.

    A row of level k sums the indicator over k free coordinates, the largest
    its end; ``runs`` is ((end, count), ...), ends ascending, and the rows
    sit at the start of ``levels[k]``.  The rows ending below coordinate
    p <= n-d+k are a prefix: folding each at stride 2^(p-k) appends p as a
    free coordinate, into the next free rows of level k+1.  When a block of
    those is full, and at the end, their ops follow, memoised on (k, runs)
    so that a block shared by several parents is bound only once.

    An add reads the two halves of each pair of stride 2^(p-k) as words of
    up to 8 bytes: every sum it writes is at most 2^(k+1) <= 2^d, below the
    lane dtype's 2^(8*itemsize), so no lane carries into its neighbour and a
    word add is the lanewise add.

    The leaves (k == d) are histogrammed a block at a time.  With uint8
    counts, ``hists`` = (hist, bins) and a leaf's even-length prefix is read
    as little-endian uint16 words: word c_even + 256*c_odd indexes ``bins``,
    and as both counts are at most 2^d <= 128 < 256 they never mix.  These
    are counted with ``np.add.at`` into the bound bins, since a bincount
    would allocate and add a fresh 256 * (2^d + 1) bins (258 KiB at d = 7)
    per leaf.  An odd leaf's last count goes to ``hist`` on its own.  A
    wider dtype (bins None) keeps the plain bincount into ``hist``, which
    first copies a leaf to intp; the blocks keep that copy small.
    """
    key = k, runs
    if key in memo:
        return memo[key]
    ops = memo[key] = []
    src, width = levels[k], 1 << (n - k)
    if k == d:
        hist, bins = hists
        flat = src[: sum(c for _, c in runs) * width]
        for i in range(0, flat.size, block):
            leaf = flat[i : i + block]
            cut = 0 if bins is None else leaf.size & ~1
            if cut:
                ops.append((leaf[:cut].view("<u2"), None, bins))
            if cut < leaf.size:
                ops.append((leaf[cut:], None, hist))
        return ops
    dst, half = levels[k + 1], width // 2
    cap, last = max(1, block >> (n - k - 1)), n - d + k
    child, filled = [], 0
    for p in range(k, last + 1):
        start, stop = 0, sum(c for end, c in runs if end < p)
        while start < stop:
            take = min(stop - start, cap - filled)
            size = min(8, src.itemsize << (p - k))
            word, lanes = f"u{size}", (src.itemsize << (p - k)) // size
            pairs = src[start * width : (start + take) * width].view(word).reshape(-1, 2, lanes)
            out = dst[filled * half : (filled + take) * half].view(word).reshape(-1, lanes)
            x, y = pairs[:, 0], pairs[:, 1]
            if lanes < _SHORT_RUN:  # put the pairs, not the short runs, innermost
                x, y, out = x.T, y.T, out.T
            ops.append((x, y, out))
            child.append((p, take))  # p recurs only after a flush
            start, filled = start + take, filled + take
            if filled == cap or start == stop and p == last:
                ops += _program(n, d, k + 1, tuple(child), levels, hists, block, memo)
                child, filled = [], 0
    return ops


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
