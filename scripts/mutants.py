"""Sampled mutation testing: does some test fail for each mutant?

A mutant changes one site of one source file: a comparison operator
(< with <=, > with >=, == with !=), + with - (also in += and -=), `and`
with `or`, or an integer constant n to n + 1.  The sites come from the
stdlib ``ast``.  A seeded sample of them is applied one at a time to a
copy of the repository, and the tests run on each mutant with ``-x``.
The mutant is killed when they fail or time out, and survives when they
pass.  A survivor listed in ALLOWED is an equivalent mutant, with the
reason; any other survivor is a gap in the tests and makes the exit
status 1.  The unmutated copy must pass first, or nothing is measured.

Usage: python3 scripts/mutants.py --seed 1 --sample 50
           [--files src/cubestats/exhaustive.py ...] [--tests tests/test_exhaustive.py ...]
"""

import argparse
import ast
import os
import random
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# what the tests read: the package, the tests and their data, the scripts, README
COPIED = ("src", "tests", "scripts", "README.md", "pyproject.toml")

SWAPS = {
    ast.Lt: ast.LtE,
    ast.LtE: ast.Lt,
    ast.Gt: ast.GtE,
    ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq,
    ast.NotEq: ast.Eq,
    ast.Add: ast.Sub,
    ast.Sub: ast.Add,
    ast.And: ast.Or,
    ast.Or: ast.And,
}

# address space of each test run, so that a mutant cannot exhaust the machine
MEMORY_LIMIT = 2 << 30

# seconds per test run: the unmutated tier-1 suite takes under a minute, so
# a mutant that runs five times as long has made some loop endless
TIMEOUT = 300.0

# mutant id -> why no test can tell it from the original
ALLOWED = {
    "src/cubestats/residues.py:_binsum_row: d + 1 => d + 2": "the extra term is C(d, d + 1) = 0",
    "src/cubestats/errors.py:show: x < 0 => x <= 0": "x has over 1024 bits there, so it is never 0",
    "src/cubestats/cube.py:VertexSet.from_vertices: 1 << n => 2 << n": (
        "the flags past 2^n stay zero, so the packed mask is the same; only the buffer doubles"
    ),
    "src/cubestats/cube.py:Subcube.intersects: 1 << self.n => 2 << self.n": (
        "both bases lie below 2^n, so bit n of the mask never meets their xor"
    ),
    "src/cubestats/cube.py:VertexSet.__contains__: 0 <= v < 1 << self.n => 0 <= v <= 1 << self.n": (
        "bit 2^n of a mask below 2^(2^n) is 0, so v = 2^n is out either way"
    ),
    "src/cubestats/stats.py:_weight_distribution: n - d + 1 => n - d + 2": (
        "the extra base weight n - d + 1 has C(n - d, n - d + 1) = 0 subcubes"
    ),
    "src/cubestats/stats.py:_weight_distribution: d + 1 => d + 2": (
        "the extra term of the row is C(d, d + 1) = 0"
    ),
    "src/cubestats/stats.py:_weight_distribution: w + d + 1 => w + d + 2": (
        "zip stops at the d + 1 entries of the binomial row"
    ),
    "src/cubestats/constructions.py:layered_set: n + 1 => n + 2": (
        "no vertex of Q_n has weight n + 1, so the extra table entry is never read"
    ),
    "src/cubestats/stats.py:_SHORT_RUN: _SHORT_RUN = 8 => _SHORT_RUN = 9": (
        "it only picks which axis of an add runs innermost; the sums are the same"
    ),
    "src/cubestats/exhaustive.py:_n5_candidates: _symmetries(4) => _symmetries(5)": (
        "rows 1-15 of both are the translations by t < 16, which act alike on 16-bit halves"
    ),
    "src/cubestats/residues.py:_binsum_row: k <= d => k < d": (
        "at k = d Pascal's rule and the direct sum give the same row; the test only picks one"
    ),
    "src/cubestats/residues.py:_constant_cases: "
    "np.arange(k)[:, None] - np.arange(k) => np.arange(k)[:, None] + np.arange(k)": (
        "a runs over all of Z_k, so the shifts by -a permute each set's k sums"
    ),
    "src/cubestats/approx.py:_bound_test: sum(map(abs, terms)) + 1 => sum(map(abs, terms)) + 2": (
        "a wider float margin only sends more gaps to the exact decimal branch"
    ),
    "src/cubestats/approx.py:_decimal_gap: prec *= 2 => prec *= 3": (
        "a faster-growing precision reaches the same sign of the gap"
    ),
}


def _scope(node: ast.AST, parents: dict) -> str:
    """The qualified name of the def or class around node; at module
    level, the names its statement assigns."""
    names = []
    while node in parents:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(parents[node], ast.Module) and not names:
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                return ", ".join(map(ast.unparse, targets))
        node = parents[node]
    return ".".join(reversed(names)) or "<module>"


def _sites(tree: ast.Module) -> list[tuple[ast.AST, int]]:
    """(node, operator index) of every site, in ``ast.walk`` order."""
    sites = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            sites += [(node, i) for i, op in enumerate(node.ops) if type(op) in SWAPS]
        elif isinstance(node, (ast.BinOp, ast.BoolOp, ast.AugAssign)):
            if type(node.op) in SWAPS:
                sites.append((node, 0))
        elif isinstance(node, ast.Constant) and type(node.value) is int:
            sites.append((node, 0))
    return sites


def _mutate(node: ast.AST, i: int, undo: bool = False) -> None:
    """Apply, or with ``undo`` revert, the mutant of site (node, i): the
    operator swaps are their own inverses."""
    if isinstance(node, ast.Compare):
        node.ops[i] = SWAPS[type(node.ops[i])]()
    elif isinstance(node, ast.Constant):
        node.value += -1 if undo else 1
    else:
        node.op = SWAPS[type(node.op)]()


def mutants(rel: str) -> list[str]:
    """The id of each site's mutant in the file at ``rel``, by site."""
    tree = ast.parse((ROOT / rel).read_text())
    parents = {c: p for p in ast.walk(tree) for c in ast.iter_child_nodes(p)}
    ids = []
    for node, i in _sites(tree):
        # a constant shows with its parent, unless that is a block statement
        shown = parents[node] if isinstance(node, ast.Constant) else node
        if isinstance(shown, ast.stmt) and hasattr(shown, "body"):
            shown = node
        before = ast.unparse(shown)
        _mutate(node, i)
        ids.append(f"{rel}:{_scope(node, parents)}: {before} => {ast.unparse(shown)}")
        _mutate(node, i, undo=True)
    return ids


def mutated_source(rel: str, k: int) -> str:
    """The file at ``rel`` with its k-th site mutated, as ``ast.unparse`` text."""
    tree = ast.parse((ROOT / rel).read_text())
    _mutate(*_sites(tree)[k])
    return ast.unparse(tree)


def _limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def tests_pass(workdir: Path, tests: list[str]) -> bool | None:
    """Whether the tests pass in workdir; None when they run out of time."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "OPENBLAS_NUM_THREADS": "1"}
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    with subprocess.Popen(
        cmd,
        cwd=workdir,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        preexec_fn=_limit_memory,
        start_new_session=True,
    ) as proc:
        try:
            return proc.wait(TIMEOUT) == 0
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)  # pytest and any child it started
            proc.wait()
            return None


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--sample", type=int, required=True)
    ap.add_argument("--files", nargs="+", help="default: src/cubestats/*.py but __init__.py")
    ap.add_argument("--tests", nargs="+", default=["tests"], help="pytest arguments")
    args = ap.parse_args()

    files = args.files or sorted(
        str(p.relative_to(ROOT)) for p in (ROOT / "src" / "cubestats").glob("*.py")
        if p.name != "__init__.py"
    )
    population = [(rel, k, name) for rel in files for k, name in enumerate(mutants(rel))]
    chosen = random.Random(args.seed).sample(population, min(args.sample, len(population)))

    print(f"{'status':>8} {'secs':>6} mutant")
    counts = {"killed": 0, "timeout": 0, "survived": 0, "allowed": 0}
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        work = Path(tmp)
        for name in COPIED:
            src = ROOT / name
            if src.is_dir():
                shutil.copytree(src, work / name, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(src, work / name)
        if not tests_pass(work, args.tests):
            sys.exit("the tests fail on the unmutated copy")
        for rel, k, name in chosen:
            original = (work / rel).read_text()
            (work / rel).write_text(mutated_source(rel, k))
            start = time.monotonic()
            passed = tests_pass(work, args.tests)
            (work / rel).write_text(original)
            if passed is None:
                status = "timeout"
            elif not passed:
                status = "killed"
            else:
                status = "allowed" if name in ALLOWED else "survived"
            counts[status] += 1
            print(f"{status:>8} {time.monotonic() - start:6.1f} {name}", flush=True)
    print(
        f"{len(chosen)} mutants of {len(population)} sites: {counts['killed']} killed,"
        f" {counts['timeout']} timed out, {counts['survived']} survived,"
        f" {counts['allowed']} allowed as equivalent"
    )
    sys.exit(1 if counts["survived"] else 0)


if __name__ == "__main__":
    main()
