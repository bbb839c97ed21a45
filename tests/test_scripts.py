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
