"""GF(2) matrices as int bitsets, with Gaussian-elimination rank."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import DomainError, check_int, fields


@dataclass(frozen=True)
class GF2Matrix:
    """A rows x cols binary matrix; bit c of row_masks[r] is entry (r, c)."""

    rows: int
    cols: int
    row_masks: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", check_int("rows", self.rows, 0))
        object.__setattr__(self, "cols", check_int("cols", self.cols, 0))
        if len(self.row_masks) != self.rows:
            raise DomainError("row count does not match row_masks")
        # a shift, not a compare with 1 << cols, which at a huge cols is a huge int
        if any(m < 0 or m >> self.cols for m in self.row_masks):
            raise DomainError("row mask has bits beyond cols")

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> GF2Matrix:
        cols = len(rows[0]) if rows else 0
        masks = []
        for row in rows:
            if len(row) != cols:
                raise DomainError("ragged rows")
            if any(b not in (0, 1) for b in row):
                raise DomainError("entries must be 0 or 1")
            masks.append(sum(b << c for c, b in enumerate(row)))
        return cls(len(rows), cols, tuple(masks))

    @classmethod
    def identity(cls, n: int) -> GF2Matrix:
        return cls(n, n, tuple(1 << i for i in range(check_int("n", n, 0))))

    @classmethod
    def zero(cls, rows: int, cols: int) -> GF2Matrix:
        return cls(rows, cols, (0,) * check_int("rows", rows, 0))

    def entry(self, r: int, c: int) -> int:
        if not (0 <= r < self.rows and 0 <= c < self.cols):
            raise DomainError("entry index out of range")
        return (self.row_masks[r] >> c) & 1

    def column(self, c: int) -> int:
        """Column c as an integer with bit r = entry(r, c)."""
        return sum(((m >> c) & 1) << r for r, m in enumerate(self.row_masks))

    def restrict_columns(self, columns: Sequence[int]) -> GF2Matrix:
        """Submatrix keeping the given columns, renumbered 0..len-1."""
        if any(not 0 <= c < self.cols for c in columns):
            raise DomainError("column index out of range")
        masks = tuple(
            sum(((m >> c) & 1) << j for j, c in enumerate(columns))
            for m in self.row_masks
        )
        return GF2Matrix(self.rows, len(columns), masks)

    def to_json(self) -> dict:
        data = [
            "".join(str((m >> c) & 1) for c in range(self.cols))
            for m in self.row_masks
        ]
        return {"rows": self.rows, "cols": self.cols, "data": data}

    @classmethod
    def from_json(cls, obj: dict) -> GF2Matrix:
        rows, cols, data = fields(obj, "matrix", rows="int", cols="int", data="strs")
        if len(data) != rows:
            raise DomainError("'data' length does not match 'rows'")
        masks = []
        for s in data:
            if len(s) != cols or set(s) - {"0", "1"}:
                raise DomainError(f"bad row string {s!r}")
            masks.append(int(s[::-1] or "0", 2))  # base 2 has no digit limit
        return cls(rows, cols, tuple(masks))


def gf2_rank(matrix: GF2Matrix) -> int:
    """Rank over GF(2); the input is not modified."""
    work = list(matrix.row_masks)
    rank = 0
    for col in range(matrix.cols):
        pivot = None
        for r in range(rank, len(work)):
            if (work[r] >> col) & 1:
                pivot = r
                break
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        for r in range(len(work)):
            if r != rank and (work[r] >> col) & 1:
                work[r] ^= work[rank]
        rank += 1
        if rank == len(work):
            break
    return rank
