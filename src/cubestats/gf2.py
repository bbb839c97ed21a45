"""GF(2) matrices as int bitsets, with rank by an XOR basis of the rows."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import DomainError, check_int, fields, show


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
            masks.append(int("".join("1" if b else "0" for b in reversed(row)) or "0", 2))
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

    def _row_string(self, m: int) -> str:
        """Row mask m as its cols entries, "0" or "1", column 0 first: one
        base-2 conversion, linear in cols, where a shift of the row per entry
        is quadratic.  The leading 1 keeps all cols digits, even at cols = 0."""
        return format(m | 1 << self.cols, "b")[:0:-1]

    def restrict_columns(self, columns: Sequence[int]) -> GF2Matrix:
        """Submatrix keeping the given columns, renumbered 0..len-1."""
        if any(not 0 <= c < self.cols for c in columns):
            raise DomainError("column index out of range")
        masks = []
        for m in self.row_masks:
            row = self._row_string(m)
            masks.append(int("".join(row[c] for c in columns)[::-1] or "0", 2))
        return GF2Matrix(self.rows, len(columns), tuple(masks))

    def to_json(self) -> dict:
        data = [self._row_string(m) for m in self.row_masks]
        return {"rows": self.rows, "cols": self.cols, "data": data}

    @classmethod
    def from_json(cls, obj: dict) -> GF2Matrix:
        rows, cols, data = fields(obj, "matrix", rows="int", cols="int", data="strs")
        if len(data) != rows:
            raise DomainError("'data' length does not match 'rows'")
        masks = []
        for i, s in enumerate(data):
            # the message names the row, never quotes it: a row can be huge
            if len(s) != cols:
                raise DomainError(f"'data' row {i} has length {len(s)}, not cols = {show(cols)}")
            rest = s.lstrip("01")
            if rest:
                raise DomainError(
                    f"'data' row {i} (length {len(s)}) has {rest[0]!r} at column"
                    f" {len(s) - len(rest)}; entries must be '0' or '1'"
                )
            masks.append(int(s[::-1] or "0", 2))  # base 2 has no digit limit
        return cls(rows, cols, tuple(masks))


def gf2_rank(matrix: GF2Matrix) -> int:
    """Rank over GF(2): the size of an XOR basis of the row masks.

    Each row is reduced by the basis rows in the order kept: ``min(row,
    row ^ b)`` XORs in b exactly when the row has b's top bit, the highest
    bit that b flips.  A row left nonzero joins the basis.  No basis row
    has the top bit of an earlier one: its reduction cleared that bit, and
    each basis row XORed in later lacks it too.  So the top bits are
    distinct, a nonzero XOR of basis rows has one of them as its top bit,
    and a reduced row, which has none of them, is no such XOR: the basis
    is independent and spans every row.  The input is not modified.
    """
    basis: list[int] = []
    for row in matrix.row_masks:
        for b in basis:
            row = min(row, row ^ b)
        if row:
            basis.append(row)
    return len(basis)
