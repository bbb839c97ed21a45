"""Generalized Johnson graph J(4s,2s,s), a clique descent in it, and ω(s).

Vertices are the 2s-element subsets of a 4s-element ground set, encoded
as bit masks; two vertices are adjacent when the subsets intersect in
exactly s elements.  ω(s) = 4s-1 exactly when a Hadamard matrix of order
4s exists, and such a matrix converts into a maximum clique certificate.

The complement of a vertex is its twin: the two are not adjacent, and
since the complement meets any vertex in 2s minus what the vertex does,
they have the same neighbours.  In lexicographic order the complement of
vertex i is vertex V-1-i, and the lower half i < V/2 holds exactly the
subsets that contain element 0, so the adjacency and the clique descent
work on that half alone.

``_int_words`` packs subsets into rows of little-endian uint64 words, and
``pair_counts``, the one pairwise-popcount kernel, counts the elements
each pair of rows shares: exactly, in an unsigned dtype that holds 64 per
word.  The adjacency build and both clique checks read those counts.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

from .errors import CapabilityError, CertificateError, DomainError, check_int, fields, is_int, show
from .hadamard import HadamardMatrix, hadamard_matrix

DENSE_ADJACENCY_CAP = 4
OMEGA_CAP = 100  # largest s for omega; each s up to it has Hadamard blocks
_COUNT_BLOCK_ELEMS = 1 << 16  # counts per block that pair_counts yields


@dataclass(frozen=True)
class CliqueCertificate:
    """Clique in J(4s,2s,s): members are pairwise s-intersecting 2s-subsets."""

    s: int
    members: tuple[int, ...]

    def size(self) -> int:
        return len(self.members)

    def to_json(self) -> dict:
        # each member lists its set bits below 4s in ascending order
        ground = (1 << (4 * self.s)) - 1
        words = _int_words(m & ground for m in self.members)
        bits = np.unpackbits(words.view(np.uint8), axis=1, bitorder="little")
        return {"s": self.s, "members": [row.nonzero()[0].tolist() for row in bits]}

    @classmethod
    def from_json(cls, obj: dict) -> CliqueCertificate:
        s, members = fields(obj, "clique", s="int", members="list")
        for mem in members:
            # 2s distinct elements below 4s keep each mask within the input's size
            if not (
                isinstance(mem, list)
                and all(is_int(e) and 0 <= e < 4 * s for e in mem)
                and len(mem) == 2 * s == len(set(mem))
            ):
                raise DomainError(
                    f"clique members must list 2s distinct elements of range({show(4 * s)})"
                )
        return cls(s, tuple(sum(1 << e for e in mem) for mem in members))


def _int_words(ints) -> np.ndarray:
    """Non-negative ints as rows of little-endian uint64 words, one row each."""
    ints = tuple(ints)
    width = max(1, -(-max((m.bit_length() for m in ints), default=0) // 64))
    raw = b"".join(m.to_bytes(8 * width, "little") for m in ints)
    return np.frombuffer(raw, dtype="<u8").reshape(len(ints), width)


def pair_counts(words: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (lo, counts) with counts[i, j] = popcount(words[lo + i] & words[j]).

    Row i of ``words`` is one or more little-endian uint64 words holding
    bit j of a subset in bit j % 64 of word j // 64, as ``_int_words``
    lays them out.  Blocks of consecutive rows cover every row once, each
    with at most ``_COUNT_BLOCK_ELEMS`` counts unless one row alone has
    more.  Counts are exact, in the narrowest unsigned dtype that holds
    64·width: uint8 up to 3 words, uint16 up to 1,023, uint32 beyond.
    Widen them before arithmetic that can leave that range.
    """
    rows, width = words.shape
    dtype = np.min_scalar_type(64 * width)
    step = max(1, _COUNT_BLOCK_ELEMS // max(rows, 1))
    for lo in range(0, rows, step):
        block = words[lo : lo + step]
        counts = np.bitwise_count(block[:, 0, None] & words[:, 0]).astype(dtype, copy=False)
        for w in range(1, width):
            counts += np.bitwise_count(block[:, w, None] & words[:, w])
        yield lo, counts


def _row_ints(bits: np.ndarray) -> list[int]:
    """Each row of a boolean matrix as the int with bit j set iff column j is."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    return list(map(int.from_bytes, packed, itertools.repeat("little")))


def johnson_adjacent(u: int, v: int, s: int) -> bool:
    return u != v and (u & v).bit_count() == s


def verify_clique(cert: CliqueCertificate) -> bool:
    """Whether the members are distinct 2s-subsets of range(4s) meeting in s."""
    s, mem = cert.s, cert.members
    if s < 0 or len(set(mem)) != len(mem):
        return False
    if any(m < 0 or m >> (4 * s) or m.bit_count() != 2 * s for m in mem):
        return False
    return _words_meet_in(_int_words(mem), s)


def _words_meet_in(words: np.ndarray, s: int) -> bool:
    """Whether each row of ``words`` meets itself in 2s bits and every other row in s."""
    for lo, counts in pair_counts(words):
        rows = np.arange(len(counts))
        # a member meets itself in 2s elements and every other one in s
        wrong = counts != s
        wrong[rows, lo + rows] = counts[rows, lo + rows] != 2 * s
        if wrong.any():
            return False
    return True


class JohnsonGraph:
    """Explicit J(4s,2s,s); vertices listed in subset-lexicographic order."""

    def __init__(self, s: int):
        s = check_int("s", s, 1)
        if s > DENSE_ADJACENCY_CAP:
            raise CapabilityError(
                f"explicit graph capped at s <= {DENSE_ADJACENCY_CAP}; "
                "use johnson_adjacent for implicit adjacency"
            )
        self.s = s
        # combination order is descending order of the bit-reversed masks:
        # list the 4s-bit masks r of popcount 2s downwards and reverse each
        m = 4 * s
        r = np.arange((1 << m) - 1, -1, -1)
        r = r[np.bitwise_count(r) == 2 * s]
        v = np.zeros_like(r)
        for b in range(m):
            v |= (r >> b & 1) << (m - 1 - b)
        self.vertices = tuple(v.tolist())

    def adjacency_bitsets(self) -> list[int]:
        """Rows of the lower half: adj[i] has bit j set iff vertices i and j,
        both below V/2, are adjacent.

        Vertex V-1-i is the twin of vertex i, so these V/2 rows of V/2 bits
        give the whole graph: i and j are adjacent iff the lower-half
        representatives of their twin pairs are.
        """
        half = len(self.vertices) // 2
        words = np.array(self.vertices[:half], dtype="<u8")[:, None]  # 4s <= 16 bits: one word
        adj: list[int] = []
        # a vertex meets itself in 2s != s elements, so no self loops
        for _, counts in pair_counts(words):
            adj += _row_ints(counts == self.s)
        return adj


def hadamard_to_clique(H: HadamardMatrix, *more: HadamardMatrix) -> CliqueCertificate:
    """Clique in J(4s,2s,s) from Hadamard blocks whose orders sum to 4s.

    The rows [H_i | more_i ...] for i below the least block order k are
    pairwise orthogonal ±1 rows of length 4s.  After normalization every
    row but the first has 2s entries of each sign, the -1 entries avoid
    column 0, and two distinct rows carry -1 in exactly s common columns;
    those k-1 supports are the members.  One block of order 4s gives a
    maximum clique, of size 4s-1.
    """
    blocks = (H, *more)
    k = min(b.order for b in blocks)
    width = sum(b.order for b in blocks)
    if width % 4 != 0 or k == 0:
        raise DomainError("block orders must sum to a positive multiple of 4")
    grid = np.hstack([b.entries[:k] for b in blocks])
    grid *= grid[:, :1]  # negate rows to make column 0 all +1
    grid *= grid[:1]  # then columns to make row 0 all +1
    # the -1 supports, packed once and padded to ``_int_words``' rows: 4s
    # columns hold every bit, so the counts alone check the members
    packed = np.packbits(grid[1:] == -1, axis=1, bitorder="little")
    words = np.zeros((k - 1, -(-width // 64) * 8), np.uint8)
    words[:, : packed.shape[1]] = packed
    if not _words_meet_in(words.view("<u8"), width // 4):
        raise CertificateError("Hadamard rows did not produce a valid clique")
    members = map(int.from_bytes, packed, itertools.repeat("little"))
    return CliqueCertificate(width // 4, tuple(members))


def _first_of_last_class(cand: int, apart: list[int]) -> int:
    """The first pick of the last class of a greedy colouring of cand, lowest index first;
    apart[i] has bit j set iff the lower-half vertices i and j are not adjacent."""
    rest = cand
    while rest:
        first = (rest & -rest).bit_length() - 1
        avail = rest
        while avail:
            # no self loops: low stays in avail until the xor takes it out
            low = avail & -avail
            avail &= apart[low.bit_length() - 1]
            avail ^= low
            rest ^= low
    return first


def max_clique(graph: JohnsonGraph) -> tuple[CliqueCertificate, bool]:
    """Deterministic greedy-colouring descent to a maximal clique.

    Each step adds the candidate that a greedy colouring of the remaining
    candidates, lowest index first, colours last, and keeps only its
    neighbours.  Returns the clique and whether it reached the a-priori cap
    4s-1, which proves it maximum; for every s <= 4 it does.

    The descent runs on the lower half of the vertices.  The candidates
    start as all of V and each step intersects them with a neighbourhood,
    so they are closed under twins: S together with the complements of S,
    for S in the lower half.  A greedy class of such a set picks from S
    first, in the order the same colouring of S alone picks, and leaves
    exactly the twins of those picks, which it then takes in decreasing
    order of the pick.  So the vertex coloured last is V-1-i for the first
    pick i of the last class of S, whose neighbours are those of i.
    """
    adj = graph.adjacency_bitsets()
    last = len(graph.vertices) - 1
    clique: list[int] = []
    cand = (1 << len(adj)) - 1
    apart = [cand ^ row for row in adj]  # non-negative, unlike ~row: a cheap &
    while cand:
        i = _first_of_last_class(cand, apart)
        clique.append(graph.vertices[last - i])
        cand &= adj[i]
    cert = CliqueCertificate(graph.s, tuple(clique))
    return cert, cert.size() == 4 * graph.s - 1


@dataclass(frozen=True)
class OmegaResult:
    s: int
    lower: int
    upper: int
    certificate: CliqueCertificate
    source: str

    @property
    def exact(self) -> bool:
        return self.lower == self.upper

    def to_json(self) -> dict:
        return {
            "s": self.s,
            "lower": self.lower,
            "upper": self.upper,
            "exact": self.exact,
            "source": self.source,
            "certificate": self.certificate.to_json(),
        }


def omega(s: int, policy: str = "auto") -> OmegaResult:
    """Clique number of J(4s,2s,s).

    A clique and the a-priori cap 4s-1 enclose it, and the value is exact
    when the clique reaches the cap.  ``search`` takes the clique from the
    ``max_clique`` descent for s <= DENSE_ADJACENCY_CAP.  Every other case
    takes it from Hadamard rows: a matrix of order 4s gives 4s-1 members
    ("hadamard"); otherwise blocks of orders 4a and 4(s-a) side by side,
    with the largest a <= s/2 for which both exist, give 4a-1
    ("hadamard-concat").  A non-integer s raises DomainError.
    """
    s = check_int("s", s, 1)
    if policy not in ("auto", "search"):
        raise DomainError(f"unknown omega policy: {policy}")
    if s > OMEGA_CAP:
        raise CapabilityError(f"omega is capped at s <= {OMEGA_CAP}")
    return _omega(s, policy)


@lru_cache(maxsize=None)
def _omega(s: int, policy: str) -> OmegaResult:
    cap = 4 * s - 1
    if policy == "search" and s <= DENSE_ADJACENCY_CAP:
        cert, _ = max_clique(JohnsonGraph(s))
        return OmegaResult(s, cert.size(), cap, cert, "search")
    H = hadamard_matrix(4 * s)
    if H is not None:
        return OmegaResult(s, cap, cap, hadamard_to_clique(H), "hadamard")
    for a in range(s // 2, 0, -1):
        A, B = hadamard_matrix(4 * a), hadamard_matrix(4 * (s - a))
        if A is not None and B is not None:
            cert = hadamard_to_clique(A, B)
            return OmegaResult(s, cert.size(), cap, cert, "hadamard-concat")
    raise CapabilityError(f"no two constructible Hadamard orders sum to {4 * s}")
