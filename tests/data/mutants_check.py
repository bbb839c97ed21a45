"""The test that must kill the mutant of tests/data/mutants_target.py."""

from mutants_target import add


def test_add():
    assert add(2, 3) == 5
