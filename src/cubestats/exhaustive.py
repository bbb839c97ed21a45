"""Brute-force oracle for λ(n,d,s) = max over all A of λ(n,d,s,A).

The search space of 2^(2^n) subsets is halved by complement symmetry:
only sets avoiding vertex 0 are enumerated, and each stands in for its
complement through counts[s] = counts_complement[2^d - s].  n <= 4 runs
plain; n = 5 additionally prunes by hypercube symmetries (coordinate
permutations and translations), enumerating only masks whose high half
is least under the permutations of coordinates 0-3.  n >= 6 is refused.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .cube import VertexSet, check_subcube_dimension, enumerate_subcubes, subcube_count
from .errors import CapabilityError
from .turan import occupancy_case

PLAIN_MAX_N = 4
PRUNED_MAX_N = 5

_EVAL_CHUNK = 1 << 21
_ENUM_CHUNK = 1 << 24


def _cube_masks(n: int, d: int) -> list[int]:
    return [q.vertex_mask() for q in enumerate_subcubes(n, d)]


def _hist_matrix(masks: np.ndarray, cube_masks: list[int], d: int) -> np.ndarray:
    """hist[s, i] = number of d-subcubes meeting mask i in exactly s vertices."""
    hist = np.zeros(((1 << d) + 1, masks.size), dtype=np.uint8)
    cols = np.arange(masks.size)
    for cm in cube_masks:
        cnt = np.bitwise_count(masks & masks.dtype.type(cm)).astype(np.intp)
        hist[cnt, cols] += 1
    return hist


def _lex_least(masks: np.ndarray) -> int:
    """The mask whose ascending vertex tuple is lexicographically least.

    Keeps the masks with the smallest lowest vertex and strips that vertex,
    until one mask runs out: it is a prefix of all the others, so it is first.
    """
    rest = masks
    one = rest.dtype.type(1)
    taken = 0
    while rest.all():
        low = rest & (~rest + one)
        least = low.min()
        rest = rest[low == least] ^ least
        taken |= int(least)
    return taken


# ---------------------------------------------------------------------------
# n = 5: orbit-pruned enumeration.
#
# The automorphisms used are translations x -> x ^ t and coordinate
# permutations, acting on membership masks as bit permutations.  A mask
# is kept only if it is no larger than each tested image that still
# avoids vertex 0; the smallest vertex-0-avoiding member of every orbit
# passes all such tests, so the surviving set is a superset of one
# representative per orbit and the maximum over it is exact.
# ---------------------------------------------------------------------------


def _coord_zero_mask(n: int, b: int) -> int:
    return sum(1 << v for v in range(1 << n) if not (v >> b) & 1)


def _translate_image(arr: np.ndarray, t: int, n: int) -> np.ndarray:
    out = arr
    for b in range(n):
        if (t >> b) & 1:
            c = arr.dtype.type(_coord_zero_mask(n, b))
            sh = arr.dtype.type(1 << b)
            out = ((out & c) << sh) | ((out >> sh) & c)
    return out


def _transposition_image(arr: np.ndarray, i: int, j: int, n: int) -> np.ndarray:
    """Image under the coordinate swap i <-> j (i < j)."""
    lo = sum(1 << v for v in range(1 << n) if (v >> i) & 1 and not (v >> j) & 1)
    keep = sum(1 << v for v in range(1 << n) if ((v >> i) & 1) == ((v >> j) & 1))
    sh = arr.dtype.type((1 << j) - (1 << i))
    lo_c = arr.dtype.type(lo)
    return (arr & arr.dtype.type(keep)) | ((arr & lo_c) << sh) | ((arr >> sh) & lo_c)


def _n5_filters() -> list:
    filters = []
    for b in reversed(range(5)):
        filters.append(lambda a, t=1 << b: _translate_image(a, t, 5))
    pairs = sorted(
        itertools.combinations(range(5), 2), key=lambda p: -((1 << p[1]) - (1 << p[0]))
    )
    for i, j in pairs:
        filters.append(lambda a, i=i, j=j: _transposition_image(a, i, j, 5))
    rest = [t for t in range(32) if t.bit_count() >= 2]
    for t in sorted(rest, key=lambda t: t.bit_count()):
        filters.append(lambda a, t=t: _translate_image(a, t, 5))
    return filters


@lru_cache(maxsize=None)
def _n5_survivors() -> np.ndarray:
    """Vertex-0-avoiding masks surviving the symmetry filter, as uint32.

    Permutations of coordinates 0-3 map the low half (vertices 0-15) and the
    high half (16-31) of a mask onto themselves and fix vertex 0, so the least
    vertex-0-avoiding member of every orbit, the mask the filters keep, has a
    high half least under them: only such halves are enumerated.
    """
    halves = np.arange(1 << 16, dtype=np.uint64)
    img = halves
    least = np.ones(halves.size, dtype=bool)
    for i, j in _sjt_swaps(4):
        img = _transposition_image(img, i, j, 4)
        least &= halves <= img
    highs = halves[least, None] << np.uint64(16)
    lows = np.arange(0, 1 << 16, 2, dtype=np.uint64)
    filters = _n5_filters()
    one = np.uint64(1)
    parts = []
    step = _ENUM_CHUNK // lows.size
    for start in range(0, highs.size, step):
        m = (highs[start : start + step] | lows).ravel()
        for f in filters:
            img = f(m)
            # Images hitting vertex 0 leave the enumerated half-space and
            # cannot disqualify m.
            m = m[((img & one) != 0) | (m <= img)]
            if m.size == 0:
                break
        if m.size:
            parts.append(m.astype(np.uint32))
    return np.concatenate(parts)  # the empty mask always survives


def _sjt_swaps(n: int) -> list[tuple[int, int]]:
    """Adjacent-transposition sequence stepping through all n! permutations."""
    if n <= 1:
        return []
    inner = _sjt_swaps(n - 1)
    desc = [(i, i + 1) for i in range(n - 2, -1, -1)]
    asc = [(i, i + 1) for i in range(n - 1)]
    seq = list(desc)
    at_front = True
    for a, b in inner:
        if at_front:
            seq.append((a + 1, b + 1))
            seq.extend(asc)
        else:
            seq.append((a, b))
            seq.extend(desc)
        at_front = not at_front
    return seq


def _walk_steps(n: int) -> list[tuple[str, tuple[int, int] | int]]:
    """Generator sequence whose running products visit all 2^n n! symmetries.

    Between consecutive coordinate swaps, a Gray-code sweep of single-bit
    translations covers the whole translation coset, so every symmetry is
    reached exactly once by composing one more generator per step.
    """
    steps: list[tuple[str, tuple[int, int] | int]] = []
    for swap in [None] + list(_sjt_swaps(n)):
        if swap is not None:
            steps.append(("swap", swap))
        for j in range(1, 1 << n):
            steps.append(("xlate", (j & -j).bit_length() - 1))
    return steps


def _beats(img: np.ndarray, w: int) -> np.ndarray:
    """Elementwise: does the mask's vertex tuple precede champion w's?"""
    wv = img.dtype.type(w)
    one = img.dtype.type(1)
    diff = img ^ wv
    low = diff & (~diff + one)
    above = ~((low << one) - one)
    has_low = (img & low) != 0
    w_up = (wv & above) != 0
    img_up = (img & above) != 0
    return (diff != 0) & np.where(has_low, w_up, ~img_up)


def _walk_least(cands: np.ndarray, n: int) -> int:
    """Lex-least mask over the symmetry orbits of all candidate masks.

    Walks the whole symmetry group, transforming the candidate array by a
    single generator per step, and keeps the best mask seen.  ``_beats`` is
    a single pass per step; only the images it lets through, usually none,
    go to the multi-pass ``_lex_least``.
    """
    img = cands
    champ = _lex_least(cands)
    # Symmetries keep the popcount, and no mask with at least m vertices
    # precedes (0, ..., m-1), m the least candidate popcount: reaching that
    # mask ends the walk.
    floor = (1 << int(np.bitwise_count(cands).min())) - 1
    for kind, payload in _walk_steps(n):
        if champ == floor:
            break
        if kind == "swap":
            i, j = payload
            img = _transposition_image(img, i, j, n)
        else:
            img = _translate_image(img, 1 << payload, n)
        hits = img[_beats(img, champ)]
        if hits.size:
            champ = _lex_least(hits)
    return champ


@lru_cache(maxsize=None)
def _sweep(n: int, d: int) -> tuple[tuple[int, ...], tuple[np.ndarray, ...]]:
    """Per s: the best subcube count over the scanned vertex-0-avoiding masks
    (all of them for n <= 4, the symmetry survivors for n = 5) and the masks
    attaining it, from one chunked scan."""
    cubes = _cube_masks(n, d)
    if n <= PLAIN_MAX_N:
        masks = np.arange(0, 1 << (1 << n), 2, dtype=np.uint32)
    else:
        masks = _n5_survivors()
    best = [-1] * ((1 << d) + 1)
    ties: list[list[np.ndarray]] = [[] for _ in best]
    for lo in range(0, masks.size, _EVAL_CHUNK):
        chunk = masks[lo : lo + _EVAL_CHUNK]
        for s, col in enumerate(_hist_matrix(chunk, cubes, d)):
            peak = int(col.max())
            if peak > best[s]:
                best[s] = peak
                ties[s] = []
            if peak == best[s]:
                ties[s].append(chunk[col == peak])
    return tuple(best), tuple(np.concatenate(t) for t in ties)


@lru_cache(maxsize=None)
def _cell(n: int, d: int, s: int) -> tuple[int, int]:
    """(best subcube count, lex-least witness mask) for one s."""
    best, ties = _sweep(n, d)
    mirror = (1 << d) - s
    count = max(best[s], best[mirror])
    # maximizers avoiding vertex 0, plus complements of the masks whose
    # mirror column attains the same count (counts[s] of the complement)
    full = np.uint32((1 << (1 << n)) - 1)
    parts = [ties[s]] if best[s] == count else []
    if best[mirror] == count:
        parts.append(full ^ ties[mirror])
    cands = np.concatenate(parts)
    if n <= PLAIN_MAX_N:
        # every mask was scanned, so the maximizers are all present
        return count, _lex_least(cands)
    return count, _walk_least(cands, n)


def exhaustive_lambda(n: int, d: int, s: int) -> tuple[Fraction, VertexSet]:
    """Exact λ(n,d,s) with a lex-least maximizing witness, for n <= 5."""
    check_subcube_dimension(n, d)
    occupancy_case(d, s)  # the range check, without building 2^d
    if n > PRUNED_MAX_N:
        raise CapabilityError(f"exhaustive search not supported for n={n}")
    if d == n:
        # the whole cube is the one d-subcube; {0, ..., s-1} is the least s-set
        return Fraction(1), VertexSet(n, (1 << s) - 1)
    count, witness = _cell(n, d, s)
    return Fraction(count, subcube_count(n, d)), VertexSet(n, witness)
