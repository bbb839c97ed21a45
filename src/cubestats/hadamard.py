"""Hadamard matrices: Sylvester and Paley I constructions plus tensor products.

Every constructor returns a validated matrix (H Hᵀ = order·I checked in
exact integer arithmetic), and ``hadamard_matrix`` resolves an order to
whichever construction reaches it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, is_int


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


@dataclass(frozen=True)
class HadamardMatrix:
    order: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n = self.order
        if not is_int(n):
            raise DomainError(f"order must be an integer, got {n!r}")
        if len(self.entries) != n or any(len(r) != n for r in self.entries):
            raise DomainError("entry grid does not match order")
        try:
            grid = np.asarray(self.entries)
        except ValueError as exc:  # entries nested unevenly below the rows
            raise DomainError("entries must be +1 or -1") from exc
        # numeric entries compare exactly with ±1, as Python's == does
        if grid.ndim > 2 or grid.dtype.kind not in "biuf" or (np.abs(grid) != 1).any():
            raise DomainError("entries must be +1 or -1")
        grid = grid.reshape(n, n).astype(np.int64)
        # ±1 entries keep every dot product within n, so int64 is exact
        if not np.array_equal(grid @ grid.T, n * np.eye(n, dtype=np.int64)):
            raise DomainError("rows are not orthogonal: not a Hadamard matrix")

    def to_json(self) -> dict:
        return {
            "order": self.order,
            "rows": ["".join("+" if e == 1 else "-" for e in r) for r in self.entries],
        }


def _from_grid(grid: np.ndarray) -> HadamardMatrix:
    return HadamardMatrix(len(grid), tuple(map(tuple, grid.tolist())))


def _normalized_grid(H: HadamardMatrix) -> np.ndarray:
    """H's entries with rows, then columns, negated to make row and column 0 all +1."""
    grid = np.array(H.entries, dtype=np.int64).reshape(H.order, H.order)
    grid *= grid[:, :1]
    grid *= grid[:1, :]
    return grid


def hadamard_sylvester(m: int) -> HadamardMatrix:
    """Order 2^m by repeated doubling: [[H, H], [H, -H]]."""
    if m < 0:
        raise DomainError("m must be >= 0")
    idx = np.arange(1 << m)
    # doubling makes H[i, j] = (-1)^popcount(i & j)
    return _from_grid(np.where(np.bitwise_count(idx[:, None] & idx) % 2, -1, 1))


def hadamard_paley(q: int) -> HadamardMatrix:
    """Order q+1 from quadratic residues mod a prime q ≡ 3 (mod 4)."""
    if not _is_prime(q) or q % 4 != 3:
        raise DomainError("q must be a prime congruent to 3 mod 4")
    chi = np.full(q, -1, dtype=np.int64)
    chi[np.arange(1, q) ** 2 % q] = 1
    idx = np.arange(q)
    grid = np.ones((q + 1, q + 1), dtype=np.int64)
    grid[1:, 0] = -1
    grid[1:, 1:] = chi[(idx[:, None] - idx) % q]
    np.fill_diagonal(grid, 1)
    return _from_grid(grid)


def hadamard_tensor(a: HadamardMatrix, b: HadamardMatrix) -> HadamardMatrix:
    return _from_grid(np.kron(np.array(a.entries), np.array(b.entries)))


@lru_cache(maxsize=None)
def hadamard_matrix(order: int) -> HadamardMatrix | None:
    """A Hadamard matrix of the given order, or None if unreachable.

    Tries Sylvester (powers of two), Paley I (order-1 a prime ≡ 3 mod 4),
    then tensor products of reachable factors.
    """
    if order == 1:
        return hadamard_sylvester(0)
    if order == 2:
        return hadamard_sylvester(1)
    if order <= 0 or order % 4 != 0:
        return None
    if order & (order - 1) == 0:
        return hadamard_sylvester(order.bit_length() - 1)
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
