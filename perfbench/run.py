"""The cubestats benchmark: one workload, one seed, one result line.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload montecarlo --seed 1 --seconds 30 --trace 0

Each pass of the workload runs in a fresh single-threaded child process,
one after another, so the program's caches start cold every time, as
they do for a CLI user.  ``--seconds`` sets how many passes make up the
run (at least four), so the op count depends only on the workload and
``--seconds``, never on the speed of the code.

With ``--trace 0`` the run reports the end-to-end metrics: op times in
CPU seconds at a fixed reference speed (see ``speed.py``), each op's
median over the passes, and set-up time and memory as medians
(``setup_s`` also over extra set-up-only children).  With ``--trace 1``
it runs one bare and one traced pass and reports the per-layer metrics
of the traced one, in wall seconds.  The last line of standard output
is the JSON result; the lines before it give the metrics with their units,
the failure ratio and the provenance of the run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("montecarlo", "bigcube", "extremal")
OUT = HERE / ".out"

# Seconds per pass, used only to turn --seconds into a fixed number of
# passes.  About a pass's wall time at the seed code on a 2-core Xeon,
# except bigcube's (about 7.5 s), set lower so that --seconds 30 gives
# it the six passes its few long ops need for a steady median.
PASS_S = {"montecarlo": 3.3, "bigcube": 5.0, "extremal": 5.0}
MIN_PASSES = 4
SETUP_SAMPLES = 9
RUN_BUDGET_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mib", "MiB"),
)


class ChildFailed(RuntimeError):
    pass


def passes_for(workload: str, seconds: int) -> int:
    return max(MIN_PASSES, round(seconds / PASS_S[workload]))


def layer_unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    return "B" if metric.endswith("_bytes") else "count"


def tail_percentile(n_ops: int) -> tuple[int, int]:
    """Highest integer percentile with at least 10 ops beyond it (nearest rank).

    Returns (percentile, rank); with fewer than 11 ops, the slowest op.
    """
    for p in range(99, 0, -1):
        rank = math.ceil(p * n_ops / 100)
        if n_ops - rank >= 10:
            return p, rank
    return 100, n_ops


class Runner:
    """Starts the child processes of one run, one at a time."""

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **{v: "1" for v in THREAD_VARS})

    def child(self, mode: str) -> dict:
        """Run one child; returns its result with ``setup_wall_s`` added."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise ChildFailed("run budget exhausted")
        cmd = [sys.executable, str(HERE / "child.py"), self.workload, str(self.seed), mode]
        start = time.monotonic()
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=remaining
            )
        except subprocess.TimeoutExpired as exc:
            raise ChildFailed(f"{mode} child exceeded the run budget") from exc
        if proc.returncode != 0 or not proc.stdout.strip():
            raise ChildFailed(f"{mode} child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["setup_wall_s"] = result["ready"] - start
        return result


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _cache_sizes() -> dict:
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind in ("Unified", "Data") and level in ("2", "3"):
            sizes[f"L{level}"] = size
    return sizes


def _git() -> dict:
    if not (ROOT / ".git").exists():
        return {"sha": None, "dirty": None}
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        ).stdout.strip()
        status = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"], cwd=ROOT, capture_output=True, text=True, timeout=30
        ).stdout
    except (OSError, subprocess.TimeoutExpired):
        return {"sha": None, "dirty": None}
    return {"sha": sha or None, "dirty": bool(status.strip())}


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "cubestats").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance(args: argparse.Namespace, results: list[dict], passes: int) -> dict:
    return {
        "git": _git(),
        "src_sha256": _src_digest(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "caches": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": results[0]["numpy"],
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": passes,
        "ops_per_pass": len(results[0]["latencies_s"]),
        "ops": sum(len(r["latencies_s"]) for r in results),
        "thread_vars": {v: "1" for v in THREAD_VARS},
    }


def _failures(results: list[dict]) -> tuple[int, int, list[str]]:
    attempted = sum(len(r["latencies_s"]) for r in results)
    failed_ops = {(k, int(i)) for k, r in enumerate(results) for i in r["failures"]}
    reasons = [f"pass {k} op {i}: {results[k]['failures'][str(i)]}" for k, i in sorted(failed_ops)]
    # A report that is not byte-identical across passes fails its op in
    # every pass but the first.
    first = {path: digest for _, path, digest in results[0]["digests"]}
    for k, r in enumerate(results[1:], start=1):
        for i, path, digest in r["digests"]:
            if first.get(path) != digest:
                failed_ops.add((k, i))
                reasons.append(f"pass {k} op {i}: report {path} differs from pass 0")
    return attempted, len(failed_ops), reasons


def end_to_end(results: list[dict], setups: list[dict]) -> tuple[dict, dict]:
    """End-to-end metrics of a run, with a note on how each was taken.

    Times are CPU seconds at the reference speed of ``speed.py``: the
    core's speed state and time spent waiting for a core both drop out.
    Each op's latency is its median over the passes; ``run_s`` is the sum
    of those medians and ``op_p50_ms`` their median.  The tail is taken
    over every op attempted, each at its op's median, so that it keeps at
    least ten ops beyond it.  ``setup_s`` is the median over the set-ups.
    """
    n_ops = len(results[0]["latencies_s"])
    typical = [statistics.median(r["latencies_s"][i] for r in results) for i in range(n_ops)]
    attempted = sorted(typical * len(results))
    p, rank = tail_percentile(len(attempted))
    values = {
        "setup_s": statistics.median(r["setup_s"] for r in setups),
        "run_s": sum(typical),
        "op_p50_ms": 1000 * statistics.median(typical),
        "op_tail_ms": 1000 * attempted[rank - 1],
        "peak_rss_mib": statistics.median(r["rss_kib"] for r in results) / 1024,
    }
    walls = sorted(r["wall_s"] for r in results)
    setup_walls = sorted(r["setup_wall_s"] for r in setups)
    notes = {
        "setup_s": f"median of {len(setups)} set-ups; their walls {setup_walls[0]:.3f}..{setup_walls[-1]:.3f} s",
        "run_s": f"sum of {n_ops} per-op medians of {len(results)} passes; pass walls {walls[0]:.3f}..{walls[-1]:.3f} s",
        "op_p50_ms": f"median of {n_ops} per-op medians",
        "op_tail_ms": f"p{p} of {len(attempted)} ops at their median, {len(attempted) - rank} beyond it",
        "peak_rss_mib": f"median of {len(results)} passes",
    }
    return values, notes


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="Run one cubestats benchmark workload.")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "cubestats" / "__init__.py").is_file():
        print(f"perfbench: no cubestats sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    runner = Runner(args.workload, args.seed)
    try:
        runner.child("setup")  # fills the page cache and writes bytecode; not measured
        if args.trace:
            results = [runner.child("bare"), runner.child("traced")]
            passes = len(results)
        else:
            passes = passes_for(args.workload, args.seconds)
            results = [runner.child("plain") for _ in range(passes)]
            probes = [runner.child("setup") for _ in range(max(0, SETUP_SAMPLES - passes))]
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    attempted, failed, reasons = _failures(results)
    for reason in reasons:
        print(f"FAIL {reason}")
    prov = provenance(args, results, passes)
    print(f"workload={args.workload} seed={args.seed} passes={passes} ops={attempted}")
    if args.trace:
        trace = results[1]["trace"]
        metrics = dict(trace["metrics"])
        metrics["trace.overhead_s"] = results[1]["wall_s"] - results[0]["wall_s"]
        if abs(trace["self_sum_error_s"]) > 1e-6 * max(1.0, results[1]["wall_s"]):
            print(f"FAIL layer self times miss the traced wall time by {trace['self_sum_error_s']:.3g} s")
            failed = max(failed, 1)
        units = {m: layer_unit(m) for m in metrics}
        report = {m: {"value": v, "unit": units[m]} for m, v in metrics.items()}
        for m, v in sorted(metrics.items()):
            print(f"{m:40s} {v:>16.6g} {units[m]}")
    else:
        values, notes = end_to_end(results, results + probes)
        report = {m: {"value": values[m], "unit": unit} for m, unit in END_TO_END}
        for m, unit in END_TO_END:
            print(f"{m:14s} {values[m]:12.4f} {unit:4s} {notes[m]}")
    print(f"{'fail_ratio':14s} {failed / attempted:12.4f} 1    ({failed} of {attempted} ops)")
    print(json.dumps({"provenance": prov}, sort_keys=True))
    record = {"provenance": prov, "failures": reasons, "passes": results, "metrics": report}
    suffix = "_traced" if args.trace else ""
    with open(OUT / f"run_{args.workload}{suffix}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
