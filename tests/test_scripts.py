"""Smoke tests: each experiment script runs and prints its header."""

import importlib.util
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


def test_bounds_table_prints_the_pinned_table(src_env):
    # byte for byte, so that a drift in a witness's derived text shows here
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bounds_table.py"), "--max-d", "10", "--csv"],
        capture_output=True,
        timeout=60,
        env=src_env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (ROOT / "tests" / "data" / "bounds_table.csv").read_bytes()


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


def test_every_allowed_mutant_is_a_site_of_its_file():
    # an ALLOWED id goes stale, and excuses nothing, once the code it names changes
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    files = {name.split(":")[0] for name in mutants.ALLOWED}
    sites = {name for rel in files for name in mutants.mutants(rel)}
    assert sorted(set(mutants.ALLOWED) - sites) == []
