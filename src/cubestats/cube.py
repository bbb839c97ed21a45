"""Vertex sets and axis-aligned subcubes of the hypercube Q_n.

Vertices of Q_n are identified with n-bit integers; coordinate i is bit i.
A VertexSet stores membership as one big integer (bit v set iff vertex v
is in the set), so subcube intersections are mask-and-popcount operations.
Only VertexSet converts that integer to and from 0/1 arrays and vertex lists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .errors import CapabilityError, DomainError, check_int, fields, is_int, show

# Hard cap on materialized membership masks: 2^24 bits = 2 MiB per set.
# Layered sets beyond this are handled analytically (see stats.layered_distribution).
MASK_CAP = 24


def check_mask_dimension(n: int) -> int:
    """n as an int, if a 2^n-bit mask of Q_n may be built; call before allocating."""
    n = check_int("dimension", n, 0)
    if n > MASK_CAP:
        raise CapabilityError(f"n={show(n)} exceeds the materialized-mask cap {MASK_CAP}")
    return n


def check_subcube_dimension(n: int, d: int) -> tuple[int, int]:
    """n and d as ints, if they are integers with 0 <= d <= n: Q_n has d-subcubes."""
    n = check_int("dimension", n, 0)
    return n, check_int("subcube dimension", d, 0, n)


def vertex_weights(n: int) -> np.ndarray:
    """Hamming weights of the vertices of Q_n as a uint8 array: index = vertex."""
    n = check_mask_dimension(n)
    weights = np.zeros(1 << n, dtype=np.uint8)
    for j in range(n):  # x + 2^j has the weight of x plus one
        np.add(weights[: 1 << j], 1, out=weights[1 << j : 2 << j])
    return weights


def binomial(n: int, k: int) -> int:
    """C(n, k) as an exact integer; 0 when k < 0 or k > n."""
    n, k = check_int("n", n, 0), check_int("k", k)
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


@dataclass(frozen=True)
class VertexSet:
    """A subset of the vertices of Q_n, as a 2^n-bit membership mask."""

    n: int
    bits: int

    def __post_init__(self) -> None:
        check_mask_dimension(self.n)
        if self.bits < 0 or self.bits >> (1 << self.n):
            raise DomainError("membership mask has bits beyond 2^n")

    @classmethod
    def empty(cls, n: int) -> VertexSet:
        return cls(n, 0)

    @classmethod
    def full(cls, n: int) -> VertexSet:
        return cls(n, (1 << (1 << n)) - 1)

    @classmethod
    def from_flags(cls, n: int, flags: np.ndarray) -> VertexSet:
        """The set of vertices v with flags[v] nonzero; len(flags) must be 2^n."""
        packed = np.packbits(flags, bitorder="little")
        return cls(n, int.from_bytes(packed.tobytes(), "little"))

    @classmethod
    def from_vertices(cls, n: int, vertices: Iterable[int]) -> VertexSet:
        """The set of the listed vertices, in any order and with repeats."""
        n = check_mask_dimension(n)
        flags = np.zeros(1 << n, dtype=np.uint8)
        for v in vertices:
            if not is_int(v) or not 0 <= v < (1 << n):
                raise DomainError(f"vertex {show(v)} is not an integer vertex of Q_{n}")
            flags[v] = 1
        return cls.from_flags(n, flags)

    def __contains__(self, v: int) -> bool:
        return 0 <= v < (1 << self.n) and bool((self.bits >> v) & 1)

    def __len__(self) -> int:
        return self.bits.bit_count()

    def flags(self) -> np.ndarray:
        """0/1 membership array (uint8) of length 2^n, index = vertex."""
        size = 1 << self.n
        raw = np.frombuffer(self.bits.to_bytes((size + 7) // 8, "little"), np.uint8)
        return np.unpackbits(raw, count=size, bitorder="little")

    def members(self) -> np.ndarray:
        """Members in ascending order, as a uint32 array."""
        return np.flatnonzero(self.flags().view(bool)).astype(np.uint32)

    def vertices(self) -> list[int]:
        """Members in ascending order."""
        return self.members().tolist()

    def complement(self) -> VertexSet:
        return VertexSet(self.n, self.bits ^ ((1 << (1 << self.n)) - 1))

    def to_json(self) -> dict:
        """n and the members array; json.dumps it with default=np.ndarray.tolist."""
        return {"n": self.n, "vertices": self.members()}

    @classmethod
    def from_json(cls, obj: dict) -> VertexSet:
        """The set of a JSON vertex set; its vertices must be strictly ascending."""
        n, vertices = fields(obj, "vertex set", n="int", vertices="ints")
        A = cls.from_vertices(n, vertices)
        if A.vertices() != vertices:
            raise DomainError("'vertices' must be strictly ascending")
        return A


@dataclass(frozen=True)
class Subcube:
    """A d-dimensional axis-aligned subcube of Q_n.

    `free` marks the d variable coordinates; `base` fixes the values on the
    other coordinates.  Canonical form zeroes `base` on free positions, so
    vertex v lies in the subcube iff (v & ~free) == base.
    """

    n: int
    free: int
    base: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "n", check_int("dimension", self.n, 0))
        free, base = check_int("free", self.free, 0), check_int("base", self.base, 0)
        object.__setattr__(self, "free", free)
        object.__setattr__(self, "base", base)
        # no n-bit mask is built, so a huge n is cheap to reject later
        if (free | base) >> self.n:
            raise DomainError("free/base masks outside Q_n")
        if self.base & self.free:
            raise DomainError("non-canonical subcube: base overlaps free mask")

    @property
    def dimension(self) -> int:
        return self.free.bit_count()

    def __contains__(self, v: int) -> bool:
        return (v & ~self.free) == self.base

    def intersects(self, other: Subcube) -> bool:
        """True iff the subcubes share a vertex (bases agree where both fix)."""
        if self.n != other.n:
            raise DomainError("subcubes live in different ambient dimensions")
        both_fixed = ~self.free & ~other.free & ((1 << self.n) - 1)
        return (self.base ^ other.base) & both_fixed == 0

    def vertex_mask(self) -> int:
        """Membership mask of the subcube's 2^d vertices, as one integer."""
        mask = 1 << self.base
        f = self.free
        while f:
            bit = f & -f
            mask |= mask << bit
            f ^= bit
        return mask


def _submasks(m: int) -> Iterator[int]:
    """Every submask of m, ascending: (sub - m) & m is the next one."""
    sub = 0
    while True:
        yield sub
        sub = (sub - m) & m
        if not sub:
            return


def subcube_vertices(q: Subcube) -> list[int]:
    """All 2^d vertices of the subcube, ascending."""
    return [q.base | sub for sub in _submasks(q.free)]


def _masks_of_popcount(n: int, d: int) -> Iterator[int]:
    """All n-bit masks with exactly d bits set, ascending (Gosper's hack)."""
    if d == 0:
        yield 0
        return
    v = (1 << d) - 1
    limit = 1 << n
    while v < limit:
        yield v
        c = v & -v
        r = v + c
        v = (((r ^ v) >> 2) // c) | r


def enumerate_subcubes(n: int, d: int) -> Iterator[Subcube]:
    """All C(n,d)*2^(n-d) d-subcubes of Q_n, in a fixed order.

    Order: free masks ascending as integers, then bases ascending.
    """
    n, d = check_subcube_dimension(n, d)
    full = (1 << n) - 1
    for free in _masks_of_popcount(n, d):
        for base in _submasks(full ^ free):
            yield Subcube(n, free, base)


def subcube_count(n: int, d: int) -> int:
    """C(n,d) * 2^(n-d), the number of d-subcubes of Q_n."""
    n, d = check_subcube_dimension(n, d)
    return binomial(n, d) << (n - d)
