"""Hadamard matrices: Sylvester and Paley I constructions plus tensor products.

Every constructor returns a validated matrix, and ``hadamard_matrix``
resolves an order to whichever construction reaches it.  H Hᵀ = order·I
is checked as one float32 matrix product, which is exact: every partial
sum is an integer of size at most the order, and float32 holds integers
up to 2^24, an order whose grid would have 2^48 entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import CapabilityError, DomainError, check_int

# Largest order built: Sylvester's 2048 x 2048 grid passes through 32 MiB
# int64 arrays, and the package needs orders up to 4 * OMEGA_CAP = 400.
ORDER_CAP = 1 << 11


def _is_prime(q: int) -> bool:
    if q < 2:
        return False
    if q % 2 == 0:
        return q == 2
    f = 3
    while f * f <= q:
        if q % f == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True, eq=False)
class HadamardMatrix:
    """An order × order grid of ±1 entries with H Hᵀ = order·I.

    The constructor accepts any ±1 grid (nested sequences or an array),
    validates it once and stores it in ``entries`` as a read-only int8
    array.  Widen the entries (``astype(np.int64)``) before a matrix
    product: its sums reach ``order``, which int8 cannot hold.
    """

    order: int
    entries: np.ndarray

    def __post_init__(self) -> None:
        n = check_int("order", self.order)
        object.__setattr__(self, "order", n)
        try:
            grid = np.asarray(self.entries)
        except ValueError as exc:  # rows or entries of uneven lengths
            raise DomainError("entry grid does not match order") from exc
        if grid.shape != (n, n):
            raise DomainError("entry grid does not match order")
        # numeric entries compare exactly with ±1, as Python's == does
        if grid.dtype.kind not in "biuf" or (np.abs(grid) != 1).any():
            raise DomainError("entries must be +1 or -1")
        signs = grid.astype(np.float32)
        if (signs @ signs.T != n * np.eye(n, dtype=np.float32)).any():
            raise DomainError("rows are not orthogonal: not a Hadamard matrix")
        grid = grid.astype(np.int8)
        grid.flags.writeable = False
        object.__setattr__(self, "entries", grid)

    def to_json(self) -> dict:
        signs = np.where(self.entries == 1, "+", "-").tolist()
        return {"order": self.order, "rows": ["".join(r) for r in signs]}


def hadamard_sylvester(m: int) -> HadamardMatrix:
    """Order 2^m by repeated doubling: [[H, H], [H, -H]], for 2^m <= ORDER_CAP."""
    m = check_int("m", m, 0)
    if m >= ORDER_CAP.bit_length():
        raise CapabilityError(f"Hadamard orders are capped at {ORDER_CAP}")
    idx = np.arange(1 << m)
    # doubling makes H[i, j] = (-1)^popcount(i & j)
    grid = np.where(np.bitwise_count(idx[:, None] & idx) % 2, -1, 1)
    return HadamardMatrix(1 << m, grid)


def hadamard_paley(q: int) -> HadamardMatrix:
    """Order q+1 from quadratic residues mod a prime q ≡ 3 (mod 4), for
    q + 1 <= ORDER_CAP: the cap is checked before trial division."""
    q = check_int("q", q)
    if q + 1 > ORDER_CAP:
        raise CapabilityError(f"Hadamard orders are capped at {ORDER_CAP}")
    if not _is_prime(q) or q % 4 != 3:
        raise DomainError("q must be a prime congruent to 3 mod 4")
    chi = np.full(q, -1, dtype=np.int8)
    chi[np.arange(1, q) ** 2 % q] = 1
    idx = np.arange(q)
    grid = np.ones((q + 1, q + 1), dtype=np.int8)
    grid[1:, 0] = -1
    grid[1:, 1:] = chi[(idx[:, None] - idx) % q]
    np.fill_diagonal(grid, 1)
    return HadamardMatrix(q + 1, grid)


def hadamard_tensor(a: HadamardMatrix, b: HadamardMatrix) -> HadamardMatrix:
    return HadamardMatrix(a.order * b.order, np.kron(a.entries, b.entries))


def hadamard_matrix(order: int) -> HadamardMatrix | None:
    """A Hadamard matrix of the given order, or None if unreachable.

    Tries Sylvester (powers of two), Paley I (order-1 a prime ≡ 3 mod 4),
    then tensor products of reachable factors.  A non-integer order raises
    DomainError, and one above ORDER_CAP CapabilityError.
    """
    order = check_int("order", order)
    if order > ORDER_CAP:
        raise CapabilityError(f"Hadamard orders are capped at {ORDER_CAP}")
    return _hadamard_matrix(order)


@lru_cache(maxsize=None)
def _hadamard_matrix(order: int) -> HadamardMatrix | None:
    if order <= 0:
        return None
    if order & (order - 1) == 0:
        return hadamard_sylvester(order.bit_length() - 1)
    if order % 4 != 0:
        return None
    if _is_prime(order - 1) and (order - 1) % 4 == 3:
        return hadamard_paley(order - 1)
    a = 2
    while a * a <= order:
        if order % a == 0:
            left, right = hadamard_matrix(a), hadamard_matrix(order // a)
            if left is not None and right is not None:
                return hadamard_tensor(left, right)
        a += 2
    return None
