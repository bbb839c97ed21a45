"""The pinned bounds table: no printed bound may loosen, and each stays sound.

``data/bounds_table.csv`` is the output of
``scripts/bounds_table.py --max-d 10 --csv``.  A change that tightens a
bound regenerates that file in the same change; one that loosens a bound
fails here.  The table is rebuilt in-process from ``best_bounds``, the
function the script prints.
"""

import csv
from fractions import Fraction
from pathlib import Path

import pytest

import cubestats.bounds
from cubestats import CapabilityError, best_bounds, exhaustive_lambda

PINNED = Path(__file__).resolve().parent / "data" / "bounds_table.csv"
MAX_D = 10
FLOOR = Fraction(28, 100)  # the paper's floor: λ(d, s) > 0.28 for every d and s
EXHAUSTIVE_N = 5  # the largest n exhaustive_lambda answers


def parse(lines) -> dict:
    """{(d, s): (lower, upper)} from the script's CSV lines."""
    return {
        (int(r["d"]), int(r["s"])): (Fraction(r["lower"]), Fraction(r["upper"]))
        for r in csv.DictReader(lines)
    }


def faults(pinned: dict, fresh: dict) -> list:
    """Every cell of ``fresh`` that loosens ``pinned`` or is not a sound enclosure."""
    bad = []
    for (d, s), (lower, upper) in sorted(fresh.items()):
        if (d, s) in pinned:
            old_lower, old_upper = pinned[d, s]
            if lower < old_lower or upper > old_upper:
                bad.append(("loosened", (d, s)))
        if not FLOOR < lower <= upper <= 1:
            bad.append(("out of (0.28, 1]", (d, s)))
        for n in range(d, EXHAUSTIVE_N + 1):
            if lower > exhaustive_lambda(n, d, s)[0]:
                bad.append((f"above the maximum at n={n}", (d, s)))
    return bad


@pytest.fixture(scope="module")
def tables() -> tuple[dict, dict]:
    """The pinned table, and the same cells as ``best_bounds`` gives them now."""
    with PINNED.open(newline="") as f:
        pinned = parse(f)
    fresh = {}
    for d in range(1, MAX_D + 1):
        for s in range((1 << d) + 1):
            b = best_bounds(d, s)
            fresh[d, s] = b.lower, b.upper
    return pinned, fresh


def test_pinned_table_covers_every_cell(tables):
    pinned, _ = tables
    cells = [(d, s) for d in range(1, MAX_D + 1) for s in range((1 << d) + 1)]
    assert sorted(pinned) == cells


def test_no_bound_loosens_and_every_bound_is_sound(tables):
    pinned, fresh = tables
    assert faults(pinned, fresh) == []


def test_a_raised_pinned_lower_bound_fails(tables):
    # the control: a table one lower bound above what the code proves
    pinned, fresh = tables
    lower, upper = pinned[3, 1]
    assert faults({**pinned, (3, 1): (lower + Fraction(1, 1000), upper)}, fresh) == [
        ("loosened", (3, 1))
    ]


def test_witnesses_match_the_pinned_table():
    with PINNED.open(newline="") as f:
        rows = list(csv.DictReader(f))
    got = []
    for r in rows:
        d = int(r["d"])
        b = best_bounds(d, int(r["s"]))
        got.append((r["d"], r["s"], b.lower_witness.text(d), b.upper_source.text(d)))
    assert got == [(r["d"], r["s"], r["lower_witness"], r["upper_source"]) for r in rows]


def test_each_end_is_the_value_of_its_witness():
    # complement witnesses included: their value is the mirrored cell's
    for d in range(1, MAX_D + 1):
        for s in range((1 << d) + 1):
            b = best_bounds(d, s)
            assert (b.lower_witness.value(d, s), b.upper_source.value(d, s)) == (b.lower, b.upper)


def test_denominator_cap_admits_exactly_its_own_size(monkeypatch):
    # best_bounds(10, 1) needs 10 (2^10 - 1) = 10,230 bits: a cap of that
    # many answers, one bit less refuses
    monkeypatch.setattr(cubestats.bounds, "_MAX_DENOMINATOR_BITS", 10_230)
    assert best_bounds(10, 1).d == 10
    monkeypatch.setattr(cubestats.bounds, "_MAX_DENOMINATOR_BITS", 10_229)
    with pytest.raises(CapabilityError):
        best_bounds(10, 1)


def test_denominator_cap_off_the_single_vertex_case(monkeypatch):
    # at s = 2 the denominators divide (2^10 - 1)^9 or (2^9 - 1)^10, so
    # best_bounds(10, 2) needs 10 (10 - 1) = 90 bits
    monkeypatch.setattr(cubestats.bounds, "_MAX_DENOMINATOR_BITS", 90)
    assert best_bounds(10, 2).d == 10
    monkeypatch.setattr(cubestats.bounds, "_MAX_DENOMINATOR_BITS", 89)
    with pytest.raises(CapabilityError):
        best_bounds(10, 2)
