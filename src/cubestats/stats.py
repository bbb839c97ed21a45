"""Exact distributions of |A ∩ Q| over the d-subcubes Q of Q_n.

Three routes to the same quantity, kept deliberately independent so they
can cross-check each other:

* ``distribution``       -- direct per-subcube popcounts (the oracle),
* ``distribution_fast``  -- the fast path.  A weight-symmetric set,
  A = {x : |x| in W}, is counted in closed form from W: a subcube whose
  fixed coordinates have weight w meets A in sum(C(d, i) for w + i in W)
  vertices.  Every other set goes to ``_fold_distribution``,
  prefix-shared coordinate folding: a program of views into reusable
  level buffers, compiled once per shape in one pass and run as
  word-wide adds, with each block of leaf counts histogrammed by value,
  two per bin, or by a plain bincount,
* ``layered_distribution`` -- analytic counts for layered sets, valid for n
  far beyond the materialized-mask cap.  It shares no code with the
  closed form of ``distribution_fast``, so each checks the other.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .cube import VertexSet, binomial, check_mask_dimension, check_subcube_dimension
from .cube import enumerate_subcubes, subcube_count
from .errors import DomainError, check_int, fields
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
        return Fraction(self.counts[check_int("s", s, 0, 1 << self.d)], self.total)

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
class LayeredSpec:
    """Union-of-layers selector: keep vertices whose weight mod k lies in T."""

    k: int
    T: frozenset[int]

    def __post_init__(self) -> None:
        k = check_int("modulus k", self.k, 1)
        object.__setattr__(self, "k", k)
        for t in self.T:
            check_int("residue in T", t, 0, k - 1)


def distribution(A: VertexSet, d: int) -> SubcubeDistribution:
    """Exact distribution by direct enumeration over all d-subcubes."""
    n = A.n
    check_subcube_dimension(n, d)
    counts = [0] * ((1 << d) + 1)
    for q in enumerate_subcubes(n, d):
        counts[(A.bits & q.vertex_mask()).bit_count()] += 1
    return SubcubeDistribution(n, d, tuple(counts), subcube_count(n, d))


def distribution_fast(A: VertexSet, d: int) -> SubcubeDistribution:
    """Same output as ``distribution``: in closed form when A is
    weight-symmetric, else by ``_fold_distribution``.

    A is weight-symmetric when membership depends only on the Hamming
    weight, A = {x : |x| in W}, as for every parity, layered and
    mod_weight set.  Then the histogram is exact from W alone: a d-subcube
    whose n - d fixed coordinates have weight w holds the vertices of
    weight w + i for the C(d, i) ways to set i of its free coordinates, so
    it meets A in h(w) = sum(C(d, i) for i with w + i in W) of them, and
    C(n, d)·C(n - d, w) subcubes have base weight w.  So counts[h(w)] gains
    C(n, d)·C(n - d, w) for w = 0..n - d, in Python ints: O(n·d) integer
    operations, with no fold.  ``_symmetric_weights`` finds W, or None.
    """
    n = A.n
    check_subcube_dimension(n, d)
    W = _symmetric_weights(A)
    if W is None:
        return _fold_distribution(A, d)
    return _weight_distribution(n, d, W)


def _weight_distribution(n: int, d: int, W: list[int]) -> SubcubeDistribution:
    """The distribution of {x in Q_n : W[|x|]} for 0/1 flags W[0..n], in
    closed form; ``distribution_fast`` says why it is exact."""
    row = [binomial(d, i) for i in range(d + 1)]
    counts = [0] * ((1 << d) + 1)
    bases = 1  # C(m, w) at m = n - d, stepped exactly: C(m, w + 1) = C(m, w) (m - w) / (w + 1)
    for w in range(n - d + 1):
        hits = sum(c for c, member in zip(row, W[w : w + d + 1]) if member)
        counts[hits] += bases
        bases = bases * (n - d - w) // (w + 1)
    choose_free = binomial(n, d)
    counts = [choose_free * c for c in counts]
    return SubcubeDistribution(n, d, tuple(counts), subcube_count(n, d))


def _symmetric_weights(A: VertexSet) -> list[int] | None:
    """W as 0/1 flags by weight if A = {x : |x| in W}, else None.

    A set that holds some but not all of the vertices of weight 1, or of
    weight 2, is turned away by two ANDs with the class masks of
    ``_low_weight_masks``: a random set almost always is.  Otherwise W[w]
    is read from the weight-w vertex 2^n - 2^(n-w), whose shift keeps only
    the 2^(n-w) bits above it, and A is compared with the set
    ``VertexSet.from_weights`` builds from W.  Nothing is unpacked.
    """
    n = A.n
    for mask in _low_weight_masks(n):
        held = A.bits & mask
        if held and held != mask:
            return None
    W = [(A.bits >> ((1 << n) - (1 << (n - w)))) & 1 for w in range(n + 1)]
    layers = sum(flag << w for w, flag in enumerate(W))
    return W if A == VertexSet.from_weights(n, layers) else None


@lru_cache(maxsize=None)  # 2^(n-2) bytes for an n; n <= MASK_CAP
def _low_weight_masks(n: int) -> tuple[int, int]:
    """Membership masks of the weight-1 and the weight-2 vertices of Q_n."""
    return VertexSet.from_weights(n, 0b10).bits, VertexSet.from_weights(n, 0b100).bits


def _fold_distribution(A: VertexSet, d: int) -> SubcubeDistribution:
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

    Each block of leaf counts takes one of three routes; see ``_program``.
    A uint8 block of at least ``_BY_VALUE_MIN`` counts, all within
    ``_BY_VALUE_SPAN`` consecutive values, is counted value by value.  Other
    uint8 blocks of a shape with a pair grid are histogrammed in pairs into
    a (2^d + 1, 256) grid, whose row and column sums are the counts of the
    odd and even lanes; the grid is zeroed and folded into the counts only
    in calls that scatter into it.  Everything else is bincounted.
    """
    n = A.n
    check_subcube_dimension(n, d)
    pool = _pool(n, d, _BLOCK_ELEMS)
    try:
        top, hist, bins, pairs, program = pool.pop()
    except IndexError:  # none bound yet, or every one is in use
        top, hist, bins, pairs, program = _bind(n, d, _BLOCK_ELEMS)
    np.copyto(top, A.flags())
    hist.fill(0)
    scattered = False
    for x, y, out in program:
        if y is not None:
            np.add(x, y, out=out, order="C")  # innermost along the last axis
        elif out is hist:
            hist += np.bincount(x, minlength=hist.size)
        else:
            if out is None:  # a large uint8 leaf block: by value when its counts are few
                lo, hi = int(x.min()), int(x.max())
                if hi - lo < _BY_VALUE_SPAN:
                    for c in range(lo, hi + 1):
                        hist[c] += np.count_nonzero(x == c)
                    continue
                x, out = x.view("<u2"), bins
            if not scattered:
                pairs.fill(0)
                scattered = True
            np.add.at(out, x, 1)
    if scattered:  # row c counts the odd lanes holding c, column c the even
        hist += pairs.sum(axis=1) + pairs.sum(axis=0)
    counts = tuple(hist.tolist())
    pool.append((top, hist, bins, pairs, program))
    return SubcubeDistribution(n, d, counts, subcube_count(n, d))


# Most elements in one block of rows (one row may exceed it): memory stays flat in n.
_BLOCK_ELEMS = 1 << 16

# Runs of fewer words than this are added across their pairs: on 8 KiB
# buffers numpy took 1.4-3x as long with a 2- or 4-word run innermost.
_SHORT_RUN = 8

# A uint8 leaf block of at least _BY_VALUE_MIN counts is counted by value,
# one ``==`` pass per value, when max - min < _BY_VALUE_SPAN.  Structured
# sets put every count of a block on one or a few values, where the pair
# scatter is slowest, as all its increments land in the same bins.
# Measured on a 2-core Xeon (numpy 2.4.6), medians of 200: at 2^16 counts
# min and max take 7 us, a pass 12 us, and the pair scatter 101-107 us on
# 7-9 values, 156 us on one, so eight passes (103 us) are about where the
# scatter wins.  At 15,360 counts, the Bernoulli blocks of Q_10 at d = 3
# that span 6-9 values, six passes and the range (34 us) lose to the
# scatter (27 us); below 2^15 every block keeps its precompiled scatter.
_BY_VALUE_MIN = 1 << 15
_BY_VALUE_SPAN = 8

# Shapes whose workspaces are kept.  A workspace holds up to a block per
# level besides its 2^n-element top buffer, and at most 129 x 256 int64
# pair bins (258 KiB, at d = 7).  Every caller in this package runs one
# shape at a time; keeping two shapes doubled the rise in the bigcube
# benchmark's peak RSS, from 0.29 to 0.58 MiB.
_POOL_SHAPES = 1


@lru_cache(maxsize=_POOL_SHAPES)
def _pool(n: int, d: int, block: int) -> list:
    """Free list of (top, hist, bins, pairs, program) workspaces for one shape.

    A caller pops one, or binds a fresh one when the list is empty, and
    appends it back when done: list.pop and list.append are atomic, so
    concurrent callers never share buffers.
    """
    return []


def _bind(n: int, d: int, block: int) -> tuple:
    """A workspace for (n, d, block): (top, hist, bins, pairs, program).

    Level k has one flat buffer of 2^(n-k)-element rows: as many as a block
    holds (at least one), but no more than the C(n-d+k, k) rows the level
    has in all.  Each program entry is (x, y, out) for ``np.add``, or has y
    None for a leaf histogram, with every view built here once, by
    ``_program``.  ``hist`` holds the 2^d + 1 counts.  ``bins`` is the flat
    pair grid of 256 * (2^d + 1) int64 cells, and ``pairs`` its
    (2^d + 1, 2^d + 1) view, since no count exceeds 2^d; both are None for
    wider dtypes, and for uint8 shapes with fewer leaf counts than grid
    cells, which gain nothing from pairing: warm, (8, 7) took 43 us with
    the grid zeroed and folded per call and 22 us with a plain bincount.
    """
    dtype = np.uint8 if d < 8 else np.uint16 if d < 16 else np.uint32
    rows = [min(max(1, block >> (n - k)), binomial(n - d + k, k)) for k in range(d + 1)]
    levels = [np.empty(r << (n - k), dtype) for k, r in enumerate(rows)]
    hist = np.zeros((1 << d) + 1, dtype=np.int64)
    bins = pairs = None
    if dtype == np.uint8 and subcube_count(n, d) >= 256 * hist.size:
        bins = np.zeros(256 * hist.size, dtype=np.int64)
        pairs = bins.reshape(-1, 256)[:, : hist.size]
    program = _program(n, d, 0, ((-1, 1),), levels, (hist, bins), block, {})
    return levels[0], hist, bins, pairs, program


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

    The leaves (k == d) are histogrammed a block at a time, by one of three
    ops with y None; ``hists`` is (hist, bins).  Where ``bins`` is bound,
    a leaf's even-length prefix is read as little-endian uint16 words: word
    c_even + 256*c_odd indexes ``bins``, and as both counts are at most
    2^d <= 128 < 256 they never mix.  A prefix of at least ``_BY_VALUE_MIN``
    counts is bound as (leaf, None, None): the call counts it by value when
    its counts span few values, which scattering serialises on, and
    otherwise views its words then.  A shorter prefix is bound as
    (words, None, bins), counted with ``np.add.at`` into the bound bins,
    since a bincount would allocate and add a fresh 256 * (2^d + 1) bins
    (258 KiB at d = 7) per leaf.  An odd leaf's last count, and every leaf
    where ``bins`` is None, is bound as (leaf, None, hist) for a plain
    bincount into ``hist``, which first copies a leaf to intp; the blocks
    keep that copy small.
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
            if cut >= _BY_VALUE_MIN:
                ops.append((leaf[:cut], None, None))
            elif cut:
                ops.append((leaf[:cut].view("<u2"), None, bins))
            if cut < leaf.size:
                ops.append((leaf[cut:], None, hist))
        return ops
    dst, half = levels[k + 1], width // 2
    cap, last = max(1, block >> (n - k - 1)), n - d + k
    child, filled, stop, j = [], 0, 0, 0
    for p in range(k, last + 1):
        while j < len(runs) and runs[j][0] < p:  # count the rows ending below p
            stop += runs[j][1]
            j += 1
        start = 0
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
    # the count depends on w only through w mod k
    hits = [thm32_q(a, k, d, T) for a in range(min(k, n - d + 1))]
    bases = 1  # C(n - d, w), stepped exactly along w
    for w in range(n - d + 1):
        counts[hits[w % k]] += bases
        bases = bases * (n - d - w) // (w + 1)
    choose_free = binomial(n, d)
    counts = [choose_free * c for c in counts]
    return SubcubeDistribution(n, d, tuple(counts), subcube_count(n, d))
