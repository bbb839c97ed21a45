"""Workload inputs, operations and output checks for the cubestats benchmark.

A workload is a fixed list of operations (``Op``) built from the workload
seed.  ``Op.run`` calls public cubestats functions and returns their
output; ``Op.check`` inspects that output afterwards, outside the timed
interval, and returns ``None`` when it is correct or a one-line reason
when it is not.  Every check uses a route other than the one timed: the
oracle ``stats.distribution``, the analytic ``layered_distribution``,
exact counting identities, or numpy recomputations of membership.

Functions are looked up on the ``cubestats`` modules at call time, so
the traced run sees calls through the wrappers that ``tracing`` binds.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import numpy as np

import cubestats
import cubestats.cli

WORKLOADS = ("montecarlo", "bigcube", "extremal")

# Reports written by in-process ``cli.main`` calls, spans and run records.
# The path is relative to the checkout root and is embedded in each
# report, so it is fixed.
OUT_DIR = "perfbench/.out"

# montecarlo: Bernoulli(2^-d) sets in Q_10, d = 3, the shape of the
# acceptance test's 10^4-draw sweep.  One draw takes about 4 ms, so
# draws are grouped three to an op to keep each op near 10 ms or more.
MC_N, MC_D = 10, 3
MC_SETS = 600
MC_GROUP = 3
MC_ORACLE = 6

# bigcube: few large sets, in one round-robin over the (n, d) pairs and
# the CLI reports.  The set kinds are fixed; the layered (k, T) are seeded.
BIG_DIST = (
    ("layered", 12, 6),
    ("mod_weight", 13, 6),
    ("parity", 14, 4),
    ("layered", 14, 5),
    ("mod_weight", 16, 3),
)
BIG_CONSTRUCT_N = (16, 17, 18)
BIG_CONSTRUCT_D = 3
BIG_PARITY_N, BIG_PARITY_D = 14, 5

# extremal: exact maxima and certificates, no fold kernel.  The orders are
# the multiples of 4 up to 160 that hadamard_matrix constructs; the list is
# fixed so that the workload does not change when more orders become
# reachable.  Orders below 60 take under 10 ms each and are grouped.
EXH_N = 4
JOHNSON_S, JOHNSON_REPEATS = 3, 12
HADAMARD_GROUPS = (
    (4, 8, 12, 16, 20, 24, 32, 40),
    (44, 48),
    (60,), (64,), (68,), (72,), (80,), (84,), (88,), (96,), (104,), (108,),
    (120,), (128,), (132,), (136,), (140,), (144,), (152,), (160,),
)
VERIFY_GROUPS = (("thm32",), ("approx",), ("prop31", "third-layer", "clique-certs"))


@dataclass(frozen=True)
class Op:
    """One unit of user work: ``run`` is timed, ``check`` is not."""

    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None]
    reports: tuple[str, ...] = ()


def build(workload: str, seed: int) -> list[Op]:
    """The operation list of ``workload``; the same seed gives the same list."""
    if workload == "montecarlo":
        return _montecarlo(seed)
    if workload == "bigcube":
        return _bigcube(seed)
    if workload == "extremal":
        return _extremal()
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


# ---------------------------------------------------------------------------
# shared checks
# ---------------------------------------------------------------------------


def _subcubes(n: int, d: int) -> int:
    return math.comb(n, d) << (n - d)


def _check_histogram(A: cubestats.VertexSet, d: int, dist: cubestats.SubcubeDistribution) -> str | None:
    """Counting identities every d-subcube histogram of A satisfies.

    The counts sum to the number of d-subcubes, and since every vertex lies
    in C(n, d) of them, sum_s s * counts[s] = |A| * C(n, d).
    """
    n = A.n
    if (dist.n, dist.d) != (n, d) or len(dist.counts) != (1 << d) + 1:
        return f"histogram shape ({dist.n}, {dist.d}, {len(dist.counts)}) for n={n} d={d}"
    if sum(dist.counts) != _subcubes(n, d) or dist.total != _subcubes(n, d):
        return f"n={n} d={d}: counts sum to {sum(dist.counts)}, expected {_subcubes(n, d)}"
    weighted = sum(s * c for s, c in enumerate(dist.counts))
    if weighted != A.bits.bit_count() * math.comb(n, d):
        return f"n={n} d={d}: sum s*counts[s] = {weighted}, expected |A|*C(n,d)"
    return None


def _weight_members(n: int, k: int, T: frozenset[int]) -> np.ndarray:
    """Vertices of Q_n whose Hamming weight mod k lies in T, ascending."""
    v = np.arange(1 << n, dtype=np.int64)
    weight = np.zeros_like(v)
    for b in range(n):
        weight += (v >> b) & 1
    return v[np.isin(weight % k, sorted(T))]


def _bits_of(n: int, members: np.ndarray) -> int:
    flags = np.zeros(1 << n, dtype=np.uint8)
    flags[members] = 1
    return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")


def _load_report(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# montecarlo
# ---------------------------------------------------------------------------


def _montecarlo(seed: int) -> list[Op]:
    rng = random.Random(seed)
    seeds = [rng.getrandbits(63) for _ in range(MC_SETS)]
    oracle = frozenset(rng.sample(range(MC_SETS), MC_ORACLE))
    ops = []
    for start in range(0, MC_SETS, MC_GROUP):
        group = tuple(seeds[start : start + MC_GROUP])
        flags = tuple(i in oracle for i in range(start, start + len(group)))
        ops.append(Op("bernoulli", _mc_run(group), _mc_check(flags)))
    return ops


def _mc_run(group: tuple[int, ...]) -> Callable[[], list]:
    def run() -> list:
        out = []
        for s in group:
            A = cubestats.bernoulli_set(MC_N, MC_D, s)
            dist = cubestats.distribution_fast(A, MC_D)
            out.append((A, dist, dist.fraction(1)))
        return out

    return run


def _mc_check(oracle_flags: tuple[bool, ...]) -> Callable[[list], str | None]:
    def check(out: list) -> str | None:
        if len(out) != len(oracle_flags):
            return f"{len(out)} results for {len(oracle_flags)} draws"
        for (A, dist, single), use_oracle in zip(out, oracle_flags):
            problem = _check_histogram(A, MC_D, dist)
            if problem:
                return problem
            if single != Fraction(dist.counts[1], _subcubes(MC_N, MC_D)):
                return f"fraction(1) = {single} disagrees with counts[1]"
            if use_oracle and dist.counts != cubestats.stats.distribution(A, MC_D).counts:
                return "distribution_fast differs from the oracle distribution"
        return None

    return check


# ---------------------------------------------------------------------------
# bigcube
# ---------------------------------------------------------------------------


def _bigcube(seed: int) -> list[Op]:
    rng = random.Random(seed)
    dist_ops = []
    for kind, n, d in BIG_DIST:
        if kind == "layered":
            k = rng.randint(2, 6)
            T = frozenset(rng.sample(range(k), rng.randint(1, k - 1)))
        elif kind == "mod_weight":
            k, T = d + 1, frozenset({0})
        else:
            k, T = 2, frozenset({0})
        dist_ops.append(Op(f"dist:{kind}", _big_dist_run(kind, n, d, k, T), _big_dist_check(n, d, k, T)))
    reports = [_construct_op(n) for n in BIG_CONSTRUCT_N]
    reports.insert(2, _parity_report_op())
    return dist_ops[0:2] + reports[0:1] + dist_ops[2:4] + reports[1:2] + dist_ops[4:] + reports[2:]


def _big_dist_run(kind: str, n: int, d: int, k: int, T: frozenset[int]) -> Callable[[], Any]:
    def run():
        if kind == "mod_weight":
            A = cubestats.mod_weight_set(n, d)
        elif kind == "parity":
            A = cubestats.parity_set(n)
        else:
            A = cubestats.layered_set(n, cubestats.LayeredSpec(k, T))
        return A, cubestats.distribution_fast(A, d)

    return run


def _big_dist_check(n: int, d: int, k: int, T: frozenset[int]) -> Callable[[Any], str | None]:
    def check(out) -> str | None:
        A, dist = out
        if A.bits != _bits_of(n, _weight_members(n, k, T)):
            return f"set n={n} k={k} T={sorted(T)} has the wrong members"
        expected = cubestats.layered_distribution(n, d, cubestats.LayeredSpec(k, T))
        if dist.counts != expected.counts or dist.total != expected.total:
            return f"n={n} d={d} k={k} T={sorted(T)}: histogram differs from layered_distribution"
        return _check_histogram(A, d, dist)

    return check


def _construct_op(n: int) -> Op:
    d = BIG_CONSTRUCT_D
    path = f"{OUT_DIR}/construct_mod_weight_n{n}.json"
    spec = json.dumps({"kind": "mod_weight", "n": n, "d": d}, sort_keys=True)

    def check(code: int) -> str | None:
        if code != 0:
            return f"construct n={n} exited {code}"
        report = _load_report(path)
        built = report["construction"]
        members = _weight_members(n, d + 1, frozenset({0}))
        if built["kind"] != "mod_weight" or built["set"]["vertices"] != members.tolist():
            return f"construct n={n}: vertex list differs from the weight-class members"
        if cubestats.VertexSet.from_json(built["set"]).bits != _bits_of(n, members):
            return f"construct n={n}: vertex list does not round-trip"
        claim = cubestats.layered_distribution(n, d, cubestats.LayeredSpec(d + 1, frozenset({0})))
        if built["claim"]["lambda"] != str(claim.fraction(1)):
            return f"construct n={n}: claim {built['claim']['lambda']} != {claim.fraction(1)}"
        return None

    return Op("cli:construct", lambda: cubestats.cli.main(["construct", spec, "--out", path]), check, (path,))


def _parity_report_op() -> Op:
    n, d = BIG_PARITY_N, BIG_PARITY_D
    path = f"{OUT_DIR}/dist_parity_n{n}_d{d}.json"
    spec = json.dumps({"kind": "parity", "n": n}, sort_keys=True)

    def check(code: int) -> str | None:
        if code != 0:
            return f"dist --construct parity exited {code}"
        report = _load_report(path)
        members = _weight_members(n, 2, frozenset({0}))
        if report["construction"]["set"]["vertices"] != members.tolist():
            return "dist --construct parity: vertex list differs from the even-weight vertices"
        dist = cubestats.SubcubeDistribution.from_json(report["distribution"])
        if dist != cubestats.layered_distribution(n, d, cubestats.LayeredSpec(2, frozenset({0}))):
            return "dist --construct parity: distribution differs from the analytic one"
        return None

    argv = ["dist", "--construct", spec, "-d", str(d), "--out", path]
    return Op("cli:dist", lambda: cubestats.cli.main(argv), check, (path,))


# ---------------------------------------------------------------------------
# extremal
# ---------------------------------------------------------------------------


def _extremal() -> list[Op]:
    ops = [Op("exhaustive", _exh_run(d), _exh_check(d)) for d in range(EXH_N + 1)]
    ops += [Op("johnson", _johnson_run, _johnson_check) for _ in range(JOHNSON_REPEATS)]
    ops += [Op("hadamard", _hadamard_run(g), _hadamard_check(g)) for g in HADAMARD_GROUPS]
    ops += [_verify_op(g) for g in VERIFY_GROUPS]
    return ops


def _exh_run(d: int) -> Callable[[], list]:
    return lambda: [cubestats.exhaustive_lambda(EXH_N, d, s) for s in range((1 << d) + 1)]


def _exh_check(d: int) -> Callable[[list], str | None]:
    def check(out: list) -> str | None:
        if len(out) != (1 << d) + 1:
            return f"d={d}: {len(out)} values for {(1 << d) + 1} values of s"
        for s, (value, witness) in enumerate(out):
            if witness.n != EXH_N:
                return f"d={d} s={s}: witness lives in Q_{witness.n}"
            if cubestats.stats.distribution(witness, d).fraction(s) != value:
                return f"d={d} s={s}: witness does not attain {value}"
        return None

    return check


def _johnson_run():
    graph = cubestats.JohnsonGraph(JOHNSON_S)
    return cubestats.max_clique(graph)


def _pairwise_clique(s: int, members: tuple[int, ...]) -> bool:
    if len(set(members)) != len(members):
        return False
    if any(m >> (4 * s) or m.bit_count() != 2 * s for m in members):
        return False
    return all((a & b).bit_count() == s for i, a in enumerate(members) for b in members[i + 1 :])


def _johnson_check(out) -> str | None:
    cert, optimal = out
    size = 4 * JOHNSON_S - 1
    if not optimal or cert.size() != size:
        return f"max_clique: size {cert.size()} optimal={optimal}, expected a proven {size}"
    if cert.s != JOHNSON_S or not _pairwise_clique(cert.s, cert.members):
        return "max_clique: certificate is not a clique of J(12,6,3)"
    return None


def _hadamard_run(orders: tuple[int, ...]) -> Callable[[], list]:
    def run() -> list:
        out = []
        for order in orders:
            H = cubestats.hadamard_matrix(order)
            out.append((H, cubestats.hadamard_to_clique(H)))
        return out

    return run


def _hadamard_check(orders: tuple[int, ...]) -> Callable[[list], str | None]:
    def check(out: list) -> str | None:
        for order, (H, cert) in zip(orders, out, strict=True):
            grid = np.array(H.entries, dtype=np.int64)
            if H.order != order or not np.array_equal(grid @ grid.T, order * np.eye(order, dtype=np.int64)):
                return f"order {order}: H H^T != order * I"
            if cert.size() != order - 1 or not cubestats.verify_clique(cert):
                return f"order {order}: certificate of size {cert.size()} fails verify_clique"
        return None

    return check


def _verify_op(suites: tuple[str, ...]) -> Op:
    paths = tuple(f"{OUT_DIR}/verify_{suite}.json" for suite in suites)

    def run() -> list[int]:
        return [
            cubestats.cli.main(["verify", suite, "--workers", "1", "--out", path])
            for suite, path in zip(suites, paths)
        ]

    def check(codes: list[int]) -> str | None:
        for suite, path, code in zip(suites, paths, codes, strict=True):
            if code != 0:
                return f"verify {suite} exited {code}"
            report = _load_report(path)
            if report.get("suite") != suite or report.get("pass") is not True:
                return f"verify {suite}: report does not say pass: true"
        return None

    return Op("cli:verify", run, check, paths)


def clear_reports(ops: list[Op]) -> None:
    """Remove the reports a previous pass left, so each check reads this pass's."""
    os.makedirs(OUT_DIR, exist_ok=True)
    for path in {p for op in ops for p in op.reports}:
        if os.path.exists(path):
            os.remove(path)


def run_ops(ops: list[Op], tracer, meter=None) -> tuple[list[float], list[tuple[Any, str | None]], float]:
    """Run the ops back to back (a closed loop with one client).

    Returns each op's latency, its (output, error) pair and the wall time
    from the start of the first op to the end of the last.  A latency is
    the op's CPU time on this thread: every op runs on this one thread
    (``verify thm32`` keeps ``--workers 1``), so time spent waiting for a
    core is not counted.  With a running ``speed.SpeedMeter`` the
    meter's own samples are taken out, and the CPU time is scaled to the
    reference speed by the samples taken just before, during and just
    after the op.  An op that raises is recorded with its error and the
    loop goes on.
    """
    latencies, outputs = [], []
    wall_start = time.perf_counter()
    for i, op in enumerate(ops):
        tracer.op = i
        if meter is not None:
            first = len(meter.samples)
            meter.sample()
            spent = meter.overhead_s
        t0 = time.thread_time()
        try:
            out, error = op.run(), None
        except (Exception, SystemExit) as exc:
            out, error = None, f"{type(exc).__name__}: {exc}"
        cpu = time.thread_time() - t0
        if meter is not None:
            cpu -= meter.overhead_s - spent
            meter.sample()
            cpu *= meter.scale(first)
        latencies.append(cpu)
        outputs.append((out, error))
    return latencies, outputs, time.perf_counter() - wall_start


def check_ops(ops: list[Op], outputs: list[tuple[Any, str | None]]) -> tuple[dict[int, str], list[list]]:
    """Check every op's output.

    Returns the failures by op index and an [op index, path, sha256] entry
    for every report the ops wrote.
    """
    failures, digests = {}, []
    for i, (op, (out, error)) in enumerate(zip(ops, outputs, strict=True)):
        if error is None:
            try:
                error = op.check(out)
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
        if error is not None:
            failures[i] = f"{op.kind}: {error}"
        for path in op.reports:
            if os.path.exists(path):
                with open(path, "rb") as fh:
                    digests.append([i, path, hashlib.sha256(fh.read()).hexdigest()])
    return failures, digests
