"""Bit-packed GF(2) matrices and rank."""

import random
import time
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cubestats import DomainError, GF2Matrix, gf2_rank


def test_from_rows_and_entries():
    M = GF2Matrix.from_rows([[1, 0, 1], [0, 1, 1]])
    assert (M.rows, M.cols) == (2, 3)
    assert M.entry(0, 0) == 1 and M.entry(0, 1) == 0 and M.entry(1, 2) == 1
    assert M.column(2) == 0b11


def test_identity_and_zero():
    assert gf2_rank(GF2Matrix.identity(5)) == 5
    assert gf2_rank(GF2Matrix.zero(3, 4)) == 0


def test_restrict_columns():
    M = GF2Matrix.from_rows([[1, 0, 1], [0, 1, 1]])
    R = M.restrict_columns([0, 2])
    assert (R.rows, R.cols) == (2, 2)
    assert R.column(0) == M.column(0) and R.column(1) == M.column(2)


@pytest.mark.parametrize("rows", [0, 2])
@pytest.mark.parametrize("col", [-1, 3])
def test_restrict_columns_refuses_a_column_outside_the_matrix(rows, col):
    # 3 is one past the last column; with no rows there is no row to index
    with pytest.raises(DomainError, match="column index out of range"):
        GF2Matrix.zero(rows, 3).restrict_columns([0, col])


def test_rank_examples():
    assert gf2_rank(GF2Matrix.from_rows([[1, 1], [1, 1]])) == 1
    assert gf2_rank(GF2Matrix.from_rows([[1, 0], [0, 1], [1, 1]])) == 2


def test_rank_counts_the_xors_of_row_subsets():
    # the rows span 2^rank vectors, each the XOR of some subset of them
    rng = random.Random(2024)
    for _ in range(400):
        rows, cols = rng.randint(0, 8), rng.randint(0, 10)
        density = rng.random()
        masks = tuple(
            sum(1 << c for c in range(cols) if rng.random() < density) for _ in range(rows)
        )
        span = {0}
        for m in masks:
            span |= {x ^ m for x in span}
        assert 1 << gf2_rank(GF2Matrix(rows, cols, masks)) == len(span), masks


def test_json_roundtrip():
    M = GF2Matrix.from_rows([[1, 0, 1, 1], [0, 1, 0, 0]])
    assert GF2Matrix.from_json(M.to_json()) == M


def test_json_roundtrip_without_columns():
    M = GF2Matrix.zero(2, 0)
    assert M.to_json()["data"] == ["", ""]
    assert GF2Matrix.from_json(M.to_json()) == M


def test_row_masks_must_fit_in_cols():
    assert GF2Matrix(2, 3, (0, 7)).row_masks == (0, 7)
    for mask in (8, -1):
        with pytest.raises(DomainError, match="beyond cols"):
            GF2Matrix(1, 3, (mask,))


def test_huge_cols_builds_nothing_of_size_two_to_the_cols():
    tracemalloc.start()
    try:
        M = GF2Matrix(0, 2**27, ())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert M.cols == 2**27 and peak < 1 << 20


@pytest.mark.parametrize("rows, cols", [(0, 4), (3, 0), (3, 1), (4, 7), (2, 70), (1, 300)])
def test_row_conversions_match_the_entries(rows, cols):
    rng = random.Random(100 * rows + cols)
    M = GF2Matrix(rows, cols, tuple(rng.getrandbits(cols) for _ in range(rows)))
    entries = [[M.entry(r, c) for c in range(cols)] for r in range(rows)]
    assert M.to_json()["data"] == ["".join(map(str, row)) for row in entries]
    assert GF2Matrix.from_json(M.to_json()) == M
    if rows:  # from_rows takes its column count from the first row
        assert GF2Matrix.from_rows(entries) == M
    for c in range(cols):
        assert M.column(c) == sum(row[c] << r for r, row in enumerate(entries))
    # any order, with repeats, and none at all
    for keep in ([rng.randrange(cols) for _ in range(2 * cols)] if cols else [], []):
        R = M.restrict_columns(keep)
        assert (R.rows, R.cols) == (rows, len(keep))
        assert [[R.entry(r, j) for j in range(len(keep))] for r in range(rows)] == [
            [row[c] for c in keep] for row in entries
        ]


def test_row_conversions_are_linear_in_cols():
    # a shift of the row per entry took 0.15 s for to_json, 0.13 s for
    # from_rows and 0.11 s for restrict_columns at this size; base-2
    # conversions take milliseconds
    M = GF2Matrix(1, 1 << 16, (random.Random(16).getrandbits(1 << 16),))
    entries = [[M.entry(0, c) for c in range(M.cols)]]
    start = time.perf_counter()
    assert GF2Matrix.from_json(M.to_json()) == M == GF2Matrix.from_rows(entries)
    R = M.restrict_columns(range(0, 1 << 16, 2))
    assert time.perf_counter() - start < 0.1
    assert R.row_masks[0] == int(format(M.row_masks[0], "065536b")[::-1][::2][::-1], 2)


@pytest.mark.parametrize(
    "row, message",
    [
        ("2" * 10**6, r"^'data' row 1 \(length 1000000\) has '2' at column 0;"),
        ("0101x1", r"^'data' row 1 \(length 6\) has 'x' at column 4;"),
        ("01", r"^'data' row 1 has length 2, not cols = 6$"),
    ],
)
def test_bad_rows_are_named_not_quoted(row, message):
    cols = len(row) if len(row) > 2 else 6
    with pytest.raises(DomainError, match=message) as exc:
        GF2Matrix.from_json({"rows": 2, "cols": cols, "data": ["1" * cols, row]})
    assert len(str(exc.value)) < 100


def test_malformed_json():
    with pytest.raises(DomainError):
        GF2Matrix.from_json({"rows": 2})


def test_dimension_validation():
    with pytest.raises(DomainError):
        GF2Matrix.from_rows([[1, 0], [1]])
    with pytest.raises(DomainError):
        GF2Matrix.from_rows([[2, 0]])


@st.composite
def gf2_matrices(draw, max_dim=6):
    r = draw(st.integers(1, max_dim))
    c = draw(st.integers(1, max_dim))
    rows = draw(
        st.lists(
            st.lists(st.integers(0, 1), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
    return GF2Matrix.from_rows(rows)


@given(gf2_matrices())
def test_rank_invariant_under_transpose(M):
    rows = [[M.entry(r, c) for c in range(M.cols)] for r in range(M.rows)]
    assert gf2_rank(M) == gf2_rank(GF2Matrix.from_rows(list(zip(*rows))))


@given(gf2_matrices())
def test_rank_bounded_by_shape(M):
    assert 0 <= gf2_rank(M) <= min(M.rows, M.cols)
