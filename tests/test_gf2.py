"""Bit-packed GF(2) matrices and rank."""

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


def test_rank_examples():
    assert gf2_rank(GF2Matrix.from_rows([[1, 1], [1, 1]])) == 1
    assert gf2_rank(GF2Matrix.from_rows([[1, 0], [0, 1], [1, 1]])) == 2


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
