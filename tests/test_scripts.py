"""Smoke tests: each experiment script runs and prints its header."""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script, args, header",
    [
        (
            "omega_table.py",
            ["--max-s", "3", "--policy", "search"],
            ["s", "4s", "lower", "upper", "exact", "source", "secs"],
        ),
        (
            "bounds_table.py",
            ["--max-d", "2", "--csv"],
            ["d,s,lower,upper,lower_witness,upper_source"],
        ),
        (
            "bernoulli_sweep.py",
            ["--n", "4", "--max-d", "2", "--reps", "3"],
            ["d", "mean", "expected", "se", "pull"],
        ),
    ],
)
def test_script_runs(script, args, header, src_env):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True,
        text=True,
        timeout=60,
        env=src_env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0].split() == header


def test_mutants_kills_one_seeded_mutant(src_env):
    # the target's one site, a + b, becomes a - b, which its check fails;
    # the check needs no pytest plugin, and loading hypothesis's takes 1 s
    proc = subprocess.run(
        [
            sys.executable,
            str(ROOT / "scripts" / "mutants.py"),
            *("--seed", "1", "--sample", "1", "--files", "tests/data/mutants_target.py"),
            *("--tests", "tests/data/mutants_check.py"),
        ],
        capture_output=True,
        text=True,
        timeout=120,
        env={**src_env, "PYTEST_DISABLE_PLUGIN_AUTOLOAD": "1"},
    )
    assert proc.returncode == 0, proc.stderr
    header, row, summary = proc.stdout.splitlines()
    assert header.split() == ["status", "secs", "mutant"]
    assert row.split()[0] == "killed"
    assert row.endswith("tests/data/mutants_target.py:add: a + b => a - b")
    assert summary.startswith("1 mutants of 1 sites: 1 killed")
