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
too.  n <= 4 runs plain; n = 5 additionally prunes by hypercube symmetries
(coordinate permutations and translations), enumerating only masks whose
high half is least under the permutations of coordinates 0-3 and whose low
half holds the vertices that high half forces.  At every n the witness is
the least image of the maximizers under one table of all 2^n n!
symmetries.  n >= 6 is refused.
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

PLAIN_MAX_N = 4
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
# n = 5: orbit-pruned enumeration.
#
# The automorphisms used are translations x -> x ^ t and coordinate
# permutations, acting on membership masks as bit permutations.  A mask
# is kept only if it is no larger than each tested image that still
# avoids vertex 0; the smallest vertex-0-avoiding member of every orbit
# passes all such tests, so the surviving set is a superset of one
# representative per orbit and the maximum over it is exact.  The filters
# apply each symmetry as a product of cached shift-and-mask swaps
# (``_swap``); all else reads rows of one table of vertex images
# (``_symmetries``) through ``_images``: the S_4 and τ_t tests on high
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
def _n5_filters() -> list[tuple[tuple[int, int, int], ...]]:
    """The tested symmetries as ``_swap`` products: the one-bit translations,
    high bit first, the coordinate swaps by falling shift, then the
    translations by two or more bits, by popcount."""
    pairs = sorted(itertools.combinations(range(5), 2), key=lambda p: (1 << p[0]) - (1 << p[1]))
    rest = sorted((t for t in range(32) if t.bit_count() >= 2), key=int.bit_count)
    return (
        [(_swap(5, b, b),) for b in reversed(range(5))]
        + [(_swap(5, i, j),) for i, j in pairs]
        + [tuple(_swap(5, b, b) for b in range(5) if t >> b & 1) for t in rest]
    )


def _canonical_highs() -> np.ndarray:
    """The 16-bit halves least under the permutations of coordinates 0-3."""
    halves = np.arange(1 << 16, dtype=np.uint64)
    perms = _symmetries(4)[:: 1 << 4]  # the rows that translate by 0
    least = [b[(b[:, None] <= img).all(axis=1)] for b, img in _image_blocks(halves, perms)]
    return np.concatenate(least)


def _n5_candidates(highs: np.ndarray) -> Iterator[np.ndarray]:
    """Chunks of the masks h 2^16 + low, ascending, that the build tests.

    low runs over the even halves holding forced(h), the vertices t of
    coordinates 0-3 whose translation τ_t makes the high half smaller: a
    mask whose low half lacks t has a τ_t image that avoids vertex 0 and
    is smaller, so the filters would drop it.
    """
    taus = _symmetries(4)[1 : 1 << 4]  # τ_1 ... τ_15
    bits = np.uint32(1) << np.arange(1, 1 << 4, dtype=np.uint32)
    forced = np.concatenate([(img < b[:, None]) @ bits for b, img in _image_blocks(highs, taus)])
    evens = np.arange(0, 1 << 16, 2, dtype=np.uint32)
    lows_of: dict[int, np.ndarray] = {}
    batch, size = [], 0
    for h, f in zip(highs.tolist(), forced.tolist()):
        if f not in lows_of:
            lows_of[f] = evens[(evens & np.uint32(f)) == f]
        batch.append(np.uint32(h << 16) | lows_of[f])
        size += batch[-1].size
        if size >= _CHUNK:
            chunk = np.concatenate(batch)
            batch, size = [], 0
            yield chunk
    if batch:
        yield np.concatenate(batch)


def _n5_keep(masks: np.ndarray) -> np.ndarray:
    """The masks that no filtered symmetry maps to a smaller one avoiding vertex 0."""
    one = masks.dtype.type(1)
    for swaps in _n5_filters():
        img = _apply_swaps(masks, swaps)
        # Images hitting vertex 0 leave the enumerated half-space and
        # cannot disqualify a mask.
        masks = masks[((img & one) != 0) | (masks <= img)]
        if masks.size == 0:
            break
    return masks


@lru_cache(maxsize=None)
def _n5_survivors() -> np.ndarray:
    """Vertex-0-avoiding masks surviving the symmetry filter, as ascending uint32.

    Permutations of coordinates 0-3 map the low half (vertices 0-15) and the
    high half (16-31) of a mask onto themselves and fix vertex 0, so the least
    vertex-0-avoiding member of every orbit, the mask the filters keep, has a
    high half least under them: only such halves are enumerated.  Each such
    high half h also forces vertices into the low half (``_n5_candidates``),
    which leaves 35,772,925 of the 130.5M masks to test.  A Q_5 mask has 32
    bits, so candidates and filters all run on uint32 words.
    """
    parts = [_n5_keep(m) for m in _n5_candidates(_canonical_highs())]
    return np.concatenate(parts)  # the empty mask always survives


def _least_image(cands: np.ndarray, n: int) -> int:
    """Lex-least image of the candidate masks under all 2^n n! symmetries:
    the least of the ``_image_blocks``' least images."""
    least = [_lex_least(img.ravel()) for _, img in _image_blocks(cands, _symmetries(n))]
    return _lex_least(np.array(least, dtype=cands.dtype))


@lru_cache(maxsize=None)
def _sweep(n: int, d: int) -> tuple[tuple[int, ...], tuple[np.ndarray, ...]]:
    """Per s: the best subcube count over the scanned vertex-0-avoiding masks
    (all of them for n <= 4, the symmetry survivors for n = 5) and the masks
    attaining it, from one chunked scan.  ``exhaustive_lambda`` sweeps only
    1 <= d <= n - 2, where ``_hist_matrix``'s lanes fit one word."""
    cubes = _cube_masks(n, d)
    if n <= PLAIN_MAX_N:
        masks = np.arange(0, 1 << (1 << n), 2, dtype=np.uint32)
    else:
        masks = _n5_survivors()
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
    lex-least image of the maximizers under every symmetry, which for n <= 4,
    where all maximizers are scanned, is the least maximizer itself."""
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
