"""Tests of the benchmark itself: checks catch corrupted outputs, seeds
change inputs but not op or computed counts, the speed meter brackets
every op, and the traced run adds up.

Run from the root of the repository:  python3 -m pytest -q perfbench
"""

import dataclasses
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import cubestats  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _move_one_count(dist: cubestats.SubcubeDistribution, src: int, dst: int):
    counts = list(dist.counts)
    counts[src] -= 1
    counts[dst] += 1
    return dataclasses.replace(dist, counts=tuple(counts))


def _traced_pass(workload: str, seed: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OMP_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), workload, str(seed), "traced"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def test_negative_control_counts_as_failure():
    ops = workloads.build("montecarlo", 7)[:4]
    latencies, outputs, _ = workloads.run_ops(ops, tracing.Tracer())
    assert workloads.check_ops(ops, outputs)[0] == {}

    out, error = outputs[2]
    A, dist, single = out[0]
    out[0] = (A, _move_one_count(dist, 1, 2), single)
    failures, _ = workloads.check_ops(ops, outputs)
    assert list(failures) == [2]
    assert len(failures) / len(latencies) > 0


def test_raising_op_is_counted_and_the_loop_goes_on():
    def boom():
        raise cubestats.DomainError("bad input")

    ops = [workloads.Op("x", boom, lambda out: None), workloads.Op("y", lambda: 1, lambda out: None)]
    latencies, outputs, _ = workloads.run_ops(ops, tracing.Tracer())
    failures, _ = workloads.check_ops(ops, outputs)
    assert len(latencies) == 2 and list(failures) == [0]
    assert "DomainError" in failures[0]


def test_bigcube_and_extremal_checks_reject_corruption():
    n, d, k, T = 8, 3, 3, frozenset({0, 2})
    A = cubestats.layered_set(n, cubestats.LayeredSpec(k, T))
    dist = cubestats.distribution_fast(A, d)
    check = workloads._big_dist_check(n, d, k, T)
    assert check((A, dist)) is None
    assert check((A, _move_one_count(dist, 3, 4))) is not None

    value, witness = cubestats.exhaustive_lambda(4, 2, 1)
    check = workloads._exh_check(2)
    good = [cubestats.exhaustive_lambda(4, 2, s) for s in range(5)]
    assert check(good) is None
    good[1] = (value, cubestats.VertexSet(4, witness.bits ^ 1))
    assert check(good) is not None


def test_speed_meter_brackets_each_op_and_scales_its_time():
    ops = [workloads.Op("spin", lambda: sum(range(300_000)), lambda out: None)] * 3
    meter = speed.SpeedMeter()
    meter.start()
    try:
        latencies, outputs, _ = workloads.run_ops(ops, tracing.Tracer(), meter)
    finally:
        meter.stop()
    assert len(meter.samples) >= 2 * len(ops)
    assert all(lat > 0 for lat in latencies)
    assert meter.scale(0) == pytest.approx(speed.REF_S / statistics.median(meter.samples))


def test_report_that_changes_between_passes_fails_its_op():
    base = {"latencies_s": [0.1, 0.2], "kinds": ["a", "b"], "failures": {}}
    results = [
        dict(base, digests=[[1, "r.json", "aa"]]),
        dict(base, digests=[[1, "r.json", "aa"]]),
        dict(base, digests=[[1, "r.json", "bb"]]),
    ]
    attempted, failed, reasons = run._failures(results)
    assert (attempted, failed) == (6, 1)
    assert "differs" in reasons[0]


def test_seed_changes_inputs_not_op_counts():
    for workload in workloads.WORKLOADS:
        a, b = workloads.build(workload, 1), workloads.build(workload, 2)
        assert [op.kind for op in a] == [op.kind for op in b]
    first = [workloads.build("montecarlo", s)[0].run() for s in (1, 2)]
    assert first[0][0][0].bits != first[1][0][0].bits


@pytest.mark.parametrize("n_ops, percentile, beyond", [(57, 82, 10), (120, 91, 10), (1200, 99, 12), (5, 100, 0)])
def test_tail_percentile(n_ops, percentile, beyond):
    p, rank = run.tail_percentile(n_ops)
    assert (p, n_ops - rank) == (percentile, beyond)


@pytest.mark.parametrize("workload", ["montecarlo", "bigcube"])
def test_traced_counts_repeat_across_seeds_and_self_times_add_up(workload):
    one, two = _traced_pass(workload, 1), _traced_pass(workload, 2)
    for result in (one, two):
        assert result["failures"] == {}
        assert abs(result["trace"]["self_sum_error_s"]) < 1e-6
    computed = [m for m in tracing.metric_names() if m.endswith(("_computed", "_counted", ".calls", "free_masks"))]
    assert [one["trace"]["metrics"][m] for m in computed] == [two["trace"]["metrics"][m] for m in computed]
    if workload == "montecarlo":
        self_s = one["trace"]["all_self_s"]
        assert max(self_s, key=self_s.get) == "stats"


def test_extremal_trace_never_calls_the_fold_kernel():
    extremal = _traced_pass("extremal", 1)
    assert extremal["failures"] == {}
    assert extremal["trace"]["metrics"]["stats.distribution_fast.calls"] == 0
    assert extremal["trace"]["metrics"]["johnson.max_clique.calls"] == workloads.JOHNSON_REPEATS


def test_declared_metrics_match_the_reported_ones():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] == list(run.END_TO_END)
    per_layer = tracing.metric_names() + ["trace.overhead_s"]
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == [(m, run.layer_unit(m)) for m in per_layer]
    assert [w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS) == list(run.WORKLOADS)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "montecarlo", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
