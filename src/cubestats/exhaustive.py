"""Brute-force oracle for λ(n,d,s) = max over all A of λ(n,d,s,A).

Three cases need no search: d = 0 (only ∅ and Q_n are perfect), d = n - 1
(s antipodal pairs put s points in every facet) and d = n (the cube is the
one subcube).  The rest, 1 <= d <= n - 2, is a sweep.  The search space of
2^(2^n) subsets is halved by complement symmetry: only sets avoiding
vertex 0 are enumerated, and each stands in for its complement through
counts[s] = counts_complement[2^d - s].  Masks are uint32 words.  Each
mask's subcube histogram is packed into one word of 2^d + 1 lanes, the
narrowest of uint16, uint32 and uint64 that holds lanes 0 .. 2^d - 1; lane
2^d is implied, the subcube count minus the others, when it does not fit
too.  At every n the sweep prunes by hypercube symmetries (coordinate
permutations and translations), enumerating only masks whose high half is
least under the permutations of coordinates 0 .. n-2 and whose low half
holds the vertices that high half forces, and keeping those no tested
symmetry makes smaller.  The witness is the least image of the maximizers
under one table of all 2^n n! symmetries.  n >= 6 is refused.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from typing import Iterator

import numpy as np

from .cube import VertexSet, check_subcube_dimension, enumerate_subcubes, subcube_count
from .errors import CapabilityError, check_int, show
from .turan import occupancy_case

PRUNED_MAX_N = 5

_CHUNK = 1 << 16

# _REV8[b] is the byte b with its 8 bits in reverse order.
_REV8 = np.array([int(f"{b:08b}"[::-1], 2) for b in range(256)], dtype=np.uint8)


def _cube_masks(n: int, d: int) -> list[int]:
    return [q.vertex_mask() for q in enumerate_subcubes(n, d)]


def _lane_word(w: int, d: int) -> tuple[type[np.unsignedinteger], int]:
    """(word, explicit lanes) for ``_hist_matrix``'s 2^d + 1 lanes of w bits.

    The word is the narrowest of uint16, uint32 and uint64 that holds lanes
    0 .. 2^d - 1.  Lane 2^d is explicit too when it also fits, and is
    otherwise implied, the subcube count minus the other lanes.
    """
    word = next(t for t in (np.uint16, np.uint32, np.uint64) if w << d <= np.iinfo(t).bits)
    return word, min((1 << d) + 1, np.iinfo(word).bits // w)


def _hist_matrix(masks: np.ndarray, cube_masks: list[int], d: int) -> np.ndarray:
    """hist[s, i] = number of d-subcubes meeting mask i in exactly s vertices.

    Mask i's histogram accumulates in one ``_lane_word`` of lanes w bits
    wide, w the bit length of the subcube count so that no lane overflows:
    a subcube meeting the mask in c vertices adds 1 << (w c).  The explicit
    lanes stay exact when lane 2^d is implied: left_shift gives 0 once the
    shift reaches the word width, and carries out of the top of the word
    are dropped.  The lanes are unpacked once, after the last subcube.
    """
    total = len(cube_masks)
    w = total.bit_length()
    word, explicit = _lane_word(w, d)
    acc = np.zeros(masks.size, dtype=word)
    term = np.empty_like(acc)
    meet = np.empty_like(masks)
    shift = np.empty(masks.size, dtype=np.uint8)
    one = word(1)
    for cm in cube_masks:
        np.bitwise_and(masks, masks.dtype.type(cm), out=meet)
        np.bitwise_count(meet, out=shift)
        np.multiply(shift, np.uint8(w), out=shift)
        np.left_shift(one, shift, out=term)
        acc += term
    hist = np.empty(((1 << d) + 1, masks.size), dtype=np.uint8)
    lane = word((1 << w) - 1)
    for s, row in enumerate(hist[:explicit]):
        np.right_shift(acc, word(w * s), out=term)
        np.bitwise_and(term, lane, out=term)
        row[:] = term
    if explicit == 1 << d:
        # exact in wrapping uint8, since the lane lies in [0, total]
        np.subtract(np.uint8(total), hist[:-1].sum(axis=0, dtype=np.uint8), out=hist[-1])
    return hist


def _lex_least(masks: np.ndarray) -> int:
    """The mask whose ascending vertex tuple is lexicographically least.

    With its bits reversed (``_REV8``, then the byte order), a mask's tuple
    reads from the top bit down and ends below the lowest set bit.  A
    member sorts before a nonmember, and the end before both, so the least
    masks have the least integer of nonmember bits at or above their lowest
    set bit, and of those the one with fewest members is a prefix of the rest.
    """
    one = masks.dtype.type(1)
    rev = _REV8[np.ascontiguousarray(masks).view(np.uint8)].view(masks.dtype).byteswap()
    ends = ~rev & ~(rev & (~rev + one)) + one
    tie = masks[ends == ends.min()]
    return int(tie[np.bitwise_count(tie).argmin()])


# ---------------------------------------------------------------------------
# Orbit-pruned enumeration.
#
# The automorphisms used are translations x -> x ^ t and coordinate
# permutations, acting on membership masks as bit permutations.  A mask
# is kept only if it is no larger than each tested image that still
# avoids vertex 0; the smallest vertex-0-avoiding member of every orbit
# passes all such tests, so the surviving set is a superset of one
# representative per orbit and the maximum over it is exact.  The filters
# apply each symmetry as a product of cached shift-and-mask swaps
# (``_swap``); all else reads rows of one table of vertex images
# (``_symmetries``) through ``_images``: the S_(n-1) and τ_t tests on high
# halves, and the witness, the least image of the maximizers.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _symmetries(n: int) -> np.ndarray:
    """vmap[g, v], the image of vertex v under each of the 2^n n! symmetries.

    Row p 2^n + t moves bit k of v to bit perm[k], perm the p-th of
    ``itertools.permutations(range(n))``, then translates by t.
    """
    v = np.arange(1 << n)
    perms = np.array(list(itertools.permutations(range(n))))
    moved = (((v[:, None] >> np.arange(n)) & 1) << perms[:, None, :]).sum(axis=2)
    return (moved[:, None, :] ^ v[:, None]).reshape(-1, 1 << n).astype(np.uint8)


def _images(masks: np.ndarray, vmaps: np.ndarray) -> np.ndarray:
    """images[i, g], mask i under vertex map g: the product of its member
    bits with 1 << vmap[g].  The masks' dtype holds the images, which are
    as wide as the masks."""
    one = masks.dtype.type(1)
    member = (masks[:, None] >> np.arange(vmaps.shape[1], dtype=masks.dtype)) & one
    return member @ (one << vmaps.astype(masks.dtype)).T


def _image_blocks(masks: np.ndarray, vmaps: np.ndarray) -> Iterator[tuple[np.ndarray, ...]]:
    """(block, its ``_images``) for blocks of ``_CHUNK // len(vmaps)`` masks,
    so the member bits and images stay small however many masks there are."""
    step = max(1, _CHUNK // len(vmaps))
    for lo in range(0, masks.size, step):
        block = masks[lo : lo + step]
        yield block, _images(block, vmaps)


@lru_cache(maxsize=None)
def _swap(n: int, i: int, j: int) -> tuple[int, int, int]:
    """(lo, shift, fixed) of the coordinate swap i <-> j (i < j), or of the
    translation by 2^i (i == j), which maps mask m to (m & fixed) |
    (m & lo) << shift | (m >> shift) & lo: lo holds the vertices it moves up."""
    flip = 1 << i | 1 << j
    image = [v ^ flip if i == j or (v >> i ^ v >> j) & 1 else v for v in range(1 << n)]
    shift = (1 << j) - (1 << i) or flip
    lo = sum(1 << v for v, w in enumerate(image) if w == v + shift)
    return lo, shift, sum(1 << v for v, w in enumerate(image) if w == v)


def _apply_swaps(masks: np.ndarray, swaps) -> np.ndarray:
    """The masks under a product of ``_swap`` tables, applied in order."""
    word = masks.dtype.type
    for lo, shift, fixed in swaps:
        lo, shift = word(lo), word(shift)
        img = ((masks & lo) << shift) | ((masks >> shift) & lo)
        masks = img | (masks & word(fixed)) if fixed else img  # a translation fixes none
    return masks


@lru_cache(maxsize=None)
def _filters(n: int) -> list[tuple[tuple[int, int, int], ...]]:
    """The tested symmetries as ``_swap`` products: the one-bit translations,
    high bit first, the coordinate swaps by falling shift, then the
    translations by two or more bits, by popcount."""
    pairs = sorted(itertools.combinations(range(n), 2), key=lambda p: (1 << p[0]) - (1 << p[1]))
    rest = sorted((t for t in range(1 << n) if t.bit_count() >= 2), key=int.bit_count)
    return (
        [(_swap(n, b, b),) for b in reversed(range(n))]
        + [(_swap(n, i, j),) for i, j in pairs]
        + [tuple(_swap(n, b, b) for b in range(n) if t >> b & 1) for t in rest]
    )


def _canonical_highs(n: int) -> np.ndarray:
    """The 2^(n-1)-bit halves least under the permutations of coordinates 0 .. n-2."""
    table = _symmetries(n - 1)  # acting on either half, a copy of Q_(n-1)
    half = table.shape[1]
    halves = np.arange(1 << half, dtype=np.uint64)
    perms = table[::half]  # the rows that translate by 0
    least = [b[(b[:, None] <= img).all(axis=1)] for b, img in _image_blocks(halves, perms)]
    return np.concatenate(least)


def _candidates(n: int, highs: np.ndarray) -> Iterator[np.ndarray]:
    """Chunks of the masks h 2^(2^(n-1)) + low, ascending, that the build tests.

    low runs over the even halves holding forced(h), the vertices t of
    coordinates 0 .. n-2 whose translation τ_t makes the high half smaller:
    a mask whose low half lacks t has a τ_t image that avoids vertex 0 and
    is smaller, so the filters would drop it.
    """
    table = _symmetries(n - 1)
    half = table.shape[1]
    taus = table[1:half]  # τ_1 ... τ_(half-1)
    bits = np.uint32(1) << np.arange(1, half, dtype=np.uint32)
    forced = np.concatenate([(img < b[:, None]) @ bits for b, img in _image_blocks(highs, taus)])
    evens = np.arange(0, 1 << half, 2, dtype=np.uint32)
    patterns, which = np.unique(forced, return_inverse=True)
    lows = [evens[(evens & f) == f] for f in patterns]
    tops = highs.astype(np.uint32) << np.uint32(half)
    start, size = 0, 0
    for end, k in enumerate(which.tolist(), start=1):
        size += lows[k].size
        if size >= _CHUNK or end == which.size:  # a chunk of the highs start .. end - 1
            part = [lows[k] for k in which[start:end].tolist()]
            yield np.repeat(tops[start:end], [x.size for x in part]) | np.concatenate(part)
            start, size = end, 0


def _keep(n: int, masks: np.ndarray) -> np.ndarray:
    """The masks that no filtered symmetry maps to a smaller one avoiding vertex 0."""
    one = masks.dtype.type(1)
    for swaps in _filters(n):
        img = _apply_swaps(masks, swaps)
        # Images hitting vertex 0 leave the enumerated half-space and
        # cannot disqualify a mask.
        masks = masks[((img & one) != 0) | (masks <= img)]
        if masks.size == 0:
            break
    return masks


@lru_cache(maxsize=None)
def _survivors(n: int) -> np.ndarray:
    """The vertex-0-avoiding masks of Q_n that survive the filters, as
    ascending uint32: 23 of 128 at n = 3, 670 of 32,768 at n = 4 and
    5,009,398 of 2^31 at n = 5.

    Permutations of coordinates 0 .. n-2 fix vertex 0 and map each half of
    a mask (the vertices below 2^(n-1), and the rest) onto itself, so the
    mask the filters keep from each orbit has a high half least under them:
    only such halves are enumerated, each with the low vertices it forces
    (``_candidates``), 62, 4,202 and 35,772,925 masks at n = 3, 4 and 5.
    """
    parts = [_keep(n, m) for m in _candidates(n, _canonical_highs(n))]
    return np.concatenate(parts)  # the empty mask always survives


def _least_image(cands: np.ndarray, n: int) -> int:
    """Lex-least image of the candidate masks under all 2^n n! symmetries:
    the least of the ``_image_blocks``' least images."""
    least = [_lex_least(img.ravel()) for _, img in _image_blocks(cands, _symmetries(n))]
    return _lex_least(np.array(least, dtype=cands.dtype))


@lru_cache(maxsize=None)
def _sweep(n: int, d: int) -> tuple[tuple[int, ...], tuple[np.ndarray, ...]]:
    """Per s: the best subcube count over the ``_survivors`` and those
    attaining it, from one chunked scan.  A symmetry permutes the d-subcubes
    and every orbit has a survivor, so the best counts are those of all the
    masks.  ``exhaustive_lambda`` sweeps only 1 <= d <= n - 2, where
    ``_hist_matrix``'s lanes fit one word."""
    cubes = _cube_masks(n, d)
    masks = _survivors(n)
    best = [-1] * ((1 << d) + 1)
    ties: list[list[np.ndarray]] = [[] for _ in best]
    for lo in range(0, masks.size, _CHUNK):
        chunk = masks[lo : lo + _CHUNK]
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
    """(best subcube count, witness mask) for one s: the witness is the
    lex-least image of the scanned maximizers under every symmetry, which is
    the least maximizer of all, since every maximizer is such an image."""
    best, ties = _sweep(n, d)
    mirror = (1 << d) - s
    count = max(best[s], best[mirror])
    # maximizers avoiding vertex 0, plus complements of the masks whose
    # mirror column attains the same count (counts[s] of the complement)
    full = np.uint32((1 << (1 << n)) - 1)
    parts = [ties[s]] if best[s] == count else []
    if best[mirror] == count:
        parts.append(full ^ ties[mirror])
    return count, _least_image(np.concatenate(parts), n)


def exhaustive_lambda(n: int, d: int, s: int) -> tuple[Fraction, VertexSet]:
    """Exact λ(n,d,s) with a lex-least maximizing witness, for n <= 5."""
    (n, d), s = check_subcube_dimension(n, d), check_int("s", s)
    occupancy_case(d, s)  # the range check, without building 2^d
    if n > PRUNED_MAX_N:
        raise CapabilityError(f"exhaustive search not supported for n={show(n)}")
    if d == n:
        # the whole cube is the one d-subcube; {0, ..., s-1} is the least s-set
        return Fraction(1), VertexSet(n, (1 << s) - 1)
    if d == 0:
        # every vertex is a 0-subcube, met by ∅ (s = 0) or by all of Q_n (s = 1)
        return Fraction(1), VertexSet(n, (1 << (s << n)) - 1)
    if d == n - 1:
        # s antipodal pairs {x, ~x} meet every facet in s points; the least
        # such set pairs {0, ..., s-1} with {2^n - s, ..., 2^n - 1}
        low = (1 << s) - 1
        return Fraction(1), VertexSet(n, low | low << ((1 << n) - s))
    count, witness = _cell(n, d, s)
    return Fraction(count, subcube_count(n, d)), VertexSet(n, witness)
