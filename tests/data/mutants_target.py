"""The one-site module that tests/test_scripts.py mutates with scripts/mutants.py."""


def add(a, b):
    return a + b
