"""Exact distributions of |A ∩ Q| over the d-subcubes Q of Q_n.

Three routes to the same quantity, kept deliberately independent so they
can cross-check each other:

* ``distribution``       -- direct per-subcube popcounts (the oracle),
* ``distribution_fast``  -- prefix-shared coordinate folding: a cached
  per-block plan, bound once per shape to reusable level buffers and run
  as word-wide adds (the fast path),
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
    A call takes a workspace bound to that plan (``_bind``) from the shape's
    free list, copies A's indicator into its top buffer and runs its program:
    only ``np.add`` into fixed views and the leaf bincounts.  Sums stay in
    the smallest unsigned dtype that holds 2^d, so counts are exact and the
    word-wide adds of ``_program`` never carry from one count into the next.
    """
    n = A.n
    check_subcube_dimension(n, d)
    pool = _pool(n, d, _BLOCK_ELEMS)
    try:
        top, program = pool.pop()
    except IndexError:  # none bound yet, or every one is in use
        top, program = _bind(n, d, _BLOCK_ELEMS)
    np.copyto(top, A.flags())
    hist = np.zeros((1 << d) + 1, dtype=np.int64)
    for x, y, out in program:
        if y is None:
            hist += np.bincount(x, minlength=hist.size)
        else:
            np.add(x, y, out=out, order="C")  # innermost along the last axis
    pool.append((top, program))
    return SubcubeDistribution(n, d, tuple(hist.tolist()), subcube_count(n, d))


# Most elements in one block of rows (one row may exceed it): memory stays flat in n.
_BLOCK_ELEMS = 1 << 16

# Runs of fewer words than this are added across their pairs: on 8 KiB
# buffers numpy took 1.4-3x as long with a 2- or 4-word run innermost.
_SHORT_RUN = 8

# Shapes whose workspaces are kept.  A workspace holds up to a block per
# level besides its 2^n-element top buffer.  Every caller in this package
# runs one shape at a time; keeping two shapes doubled the rise in the
# bigcube benchmark's peak RSS, from 0.29 to 0.58 MiB.
_POOL_SHAPES = 1


@lru_cache(maxsize=_POOL_SHAPES)
def _pool(n: int, d: int, block: int) -> list:
    """Free list of (top, program) workspaces for one shape.

    A caller pops one, or binds a fresh one when the list is empty, and
    appends it back when done: list.pop and list.append are atomic, so
    concurrent callers never share buffers.
    """
    return []


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


def _bind(n: int, d: int, block: int) -> tuple[np.ndarray, list]:
    """A workspace for the plan of (n, d, block): the top buffer and the program.

    Level k has one flat buffer of 2^(n-k)-element rows, as many as the plan
    ever fills there.  Each program entry is (x, y, out) for ``np.add`` or
    (leaf, None, None) for a bincount, with every view built here once.
    """
    plan = _block_plan(n, d, 0, ((-1, 1),), block)
    dtype = np.uint8 if d < 8 else np.uint16 if d < 16 else np.uint32
    rows = [1] + [0] * d
    _count_rows(plan, 0, rows, set())
    levels = [np.empty(r << (n - k), dtype) for k, r in enumerate(rows)]
    return levels[0], _program(plan, 1, 0, levels, block, {})


def _count_rows(plan: tuple | None, k: int, rows: list, seen: set) -> None:
    """Raise rows[k + 1] to the most rows any step of ``plan`` fills."""
    if plan is None or id(plan) in seen:
        return
    seen.add(id(plan))
    for step in plan:
        if len(step) == 2:
            rows[k + 1] = max(rows[k + 1], step[1])
            _count_rows(step[0], k + 1, rows, seen)


def _program(
    plan: tuple | None, rows: int, k: int, levels: list, block: int, memo: dict
) -> list:
    """The flat op list replaying ``plan`` on rows of level k, bound to ``levels``.

    A node always reads level k and writes level k+1, so its ops are bound
    once however many parents share it.  An add reads the two halves of each
    pair of stride ``low`` as words of up to 8 bytes: every sum it writes is
    at most 2^(k+1) <= 2^d, below the lane dtype's 2^(8*itemsize), so no lane
    carries into its neighbour and a word add is the lanewise add.
    """
    key = id(plan), rows
    if key in memo:
        return memo[key]
    ops = memo[key] = []
    src, width = levels[k], levels[0].size >> k
    if plan is None:
        flat = src[: rows * width]  # bincount copies to intp; slices keep that small
        ops.extend((flat[i : i + block], None, None) for i in range(0, flat.size, block))
        return ops
    dst = levels[k + 1]
    for step in plan:
        if len(step) == 2:
            ops += _program(*step, k + 1, levels, block, memo)
            continue
        a, b, low, c = step
        size = min(8, low * src.itemsize)
        word, lanes = f"u{size}", low * src.itemsize // size
        pairs = src[a * width : b * width].view(word).reshape(-1, 2, lanes)
        out = dst[c * width // 2 : (c + b - a) * width // 2].view(word).reshape(-1, lanes)
        x, y = pairs[:, 0], pairs[:, 1]
        if lanes < _SHORT_RUN:  # put the pairs, not the short runs, innermost
            x, y, out = x.T, y.T, out.T
        ops.append((x, y, out))
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
