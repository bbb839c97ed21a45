"""Command line front end.

Every command emits a single report (JSON by default, CSV on request)
that embeds the library version and the full run configuration, so a
report can be reproduced byte for byte from its own header.  Exit codes:
0 success, 1 verification failure, 2 usage error, 3 capability exceeded.
"""

import argparse
import csv
import functools
import io
import json
import os
import sys
from typing import Sequence

import numpy as np

from . import __version__
from .approx import (
    _bound_test,
    _splits_evenly,
    approx_construct,
    approx_worst,
    check_approx,
    third_layer_check,
)
from .bounds import best_bounds
from .constructions import ConstructionResult, build_construction, layered_set
from .cube import VertexSet, check_subcube_dimension
from .errors import CapabilityError, CertificateError, DomainError
from .exhaustive import exhaustive_lambda
from .hadamard import hadamard_matrix
from .johnson import CliqueCertificate, hadamard_to_clique, omega, verify_clique
from .residues import (
    ROW_CAP,
    Thm32Case,
    prop31_holds,
    residue_table,
    thm32_admissible,
    verify_prop31,
    verify_thm32,
)
from .stats import LayeredSpec, distribution, distribution_fast, layered_distribution
from .stats import _fold_distribution, _weight_distribution
from .turan import occupancy_case


# the flags every command takes, each declared here only: name -> add_argument keywords
_SHARED_FLAGS = {
    "seed": {"type": int, "default": 0, "help": "64-bit seed (default 0)"},
    "format": {"choices": ("json", "csv"), "default": "json"},
    "out": {"default": None, "help": "write the report to this path"},
    # kept so that existing command lines still parse; it changes nothing that runs
    "workers": {"type": int, "default": 1, "help": "unused (at least 1)"},
}


def _envelope(args: argparse.Namespace, payload: dict, provenance: Sequence[str] = ()) -> dict:
    values = vars(args)
    parameters = {
        k: v
        for k, v in values.items()
        if k not in _SHARED_FLAGS and k != "command" and v is not None
    }
    return {
        "version": __version__,
        "config": {
            "command": args.command,
            "parameters": parameters,
            **{name: values[name] for name in _SHARED_FLAGS},
        },
        "provenance": sorted(provenance),
        **payload,
    }


def _load_json_arg(text: str):
    """Parse inline JSON, or @path to read it from a file."""
    try:
        if text.startswith("@"):
            with open(text[1:], "r", encoding="utf-8") as fh:
                text = fh.read()
        return json.loads(text)
    except ValueError as exc:  # not UTF-8, malformed, or past the int digit limit
        raise DomainError(f"bad JSON: {exc}") from exc


def _construct(args: argparse.Namespace, text: str) -> ConstructionResult:
    """Build the construction a spec argument names."""
    spec = _load_json_arg(text)
    if isinstance(spec, dict) and spec.get("kind") == "bernoulli":
        spec.setdefault("seed", args.seed)
    return build_construction(spec)


# ---------------------------------------------------------------------------
# commands: each returns (payload, provenance tags, passed flag)
# ---------------------------------------------------------------------------


def cmd_dist(args: argparse.Namespace):
    payload: dict = {}
    if (args.set_file is None) == (args.construct is None):
        raise DomainError("give exactly one of --set-file and --construct")
    if args.set_file is not None:
        A = VertexSet.from_json(_load_json_arg("@" + args.set_file))
    else:
        result = _construct(args, args.construct)
        payload["construction"] = result.to_json()
        A = result.vertex_set
    check_subcube_dimension(A.n, args.d)
    if args.s is not None:
        occupancy_case(args.d, args.s)  # the range check, before the fold
    dist = distribution_fast(A, args.d)
    payload["distribution"] = dist.to_json()
    if args.s is not None:
        payload["lambda"] = {"s": args.s, "value": str(dist.fraction(args.s))}
    return payload, [], True


def cmd_exhaustive(args: argparse.Namespace):
    value, witness = exhaustive_lambda(args.n, args.d, args.s)
    payload = {
        "n": args.n,
        "d": args.d,
        "s": args.s,
        "lambda": str(value),
        "witness": witness.to_json(),
    }
    return payload, [], True


def cmd_bounds(args: argparse.Namespace):
    bounds = best_bounds(args.d, args.s)
    provenance = []
    if bounds.upper_source == "reference-constant":
        provenance.append(f"reference-constant:upper({args.d},{args.s})")
    return {"bounds": bounds.to_json()}, provenance, True


def cmd_omega(args: argparse.Namespace):
    result = omega(args.s, policy=args.policy)
    return {"omega": result.to_json()}, [], True


def cmd_construct(args: argparse.Namespace):
    result = _construct(args, args.spec)
    return {"construction": result.to_json()}, [], True


def cmd_approx(args: argparse.Namespace):
    spec = approx_construct(args.x, args.eps)
    payload = {"spec": spec.to_json()}
    check_d = args.check_d
    if check_d is None and spec.d_min <= ROW_CAP:
        check_d = spec.d_min
    check = check_approx(spec, check_d) if check_d is not None else None
    if check is not None:
        payload["check"] = {"d": check_d, **check.to_json()}
    return payload, [], check is None or check.bound_ok


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------


def _suite_prop31(args: argparse.Namespace) -> list[dict]:
    checks = []
    for d in range(3, 17):
        ok = all(verify_prop31(k, d) for k in range(3, d + 1))
        checks.append({"name": f"prop31 d={d} (all 2<k<=d)", "pass": ok})
    # negative control: at k = 2 both residue sums of row 16 are 2^15, so
    # the row must be reported constant
    ok = prop31_holds(residue_table(2, 16).values)
    name = "control: a row with equal residue sums is reported constant"
    checks.append({"name": name, "pass": not ok, "control": True})
    return checks


def _suite_thm32(args: argparse.Namespace) -> list[dict]:
    checks = []
    for k in range(1, 9):
        report = verify_thm32(k, range(1, 17))
        checks.append(
            {
                "name": f"thm32 k={k} d<=16",
                "pass": report.ok,
                "violations": [case.to_json() for case in report.violations],
            }
        )
    # negative control: half of Z_8, not a parity class, with the parity
    # classes' common value 2^15 at d = 16 must be a violation
    planted = Thm32Case(16, (0, 1, 2, 3), (1 << 15,) * 8)
    name = "control: a non-admissible residue set is classified as a violation"
    checks.append({"name": name, "pass": not thm32_admissible(8, planted), "control": True})
    return checks


def _suite_approx(args: argparse.Namespace) -> list[dict]:
    checks = []
    for q in range(2, 13):
        # the bound test is monotone in the deviation, so every p < q passes
        # exactly when the worst one does: one prefix-sum range per (q, d)
        ok = all(approx_worst(q, d)[1] for d in range(1, 65))
        checks.append({"name": f"bound holds q={q}, p<q, d<=64", "pass": ok})
    # floor(B) for the bound B = 12 2^64 e^(-64/1440); B lies about 0.3 from
    # an integer, far inside the float margin of the bound test, so its
    # decimal branch must pass floor(B) and fail floor(B) + 1
    floor_bound = 211738090192580096408
    name = "bound holds at floor(B), B = 12 2^64 e^(-64/1440)"
    checks.append({"name": name, "pass": _bound_test(12, 64, floor_bound, 1, 64)})
    # negative controls: at q = 12, d = 64 a deviation of q 2^d exceeds the
    # bound q 2^d e^(-d/(10 q^2)) by 4.5%, and floor(B) + 1 exceeds it by
    # less than 1, so the bound test must fail both
    ok = _bound_test(12, 64, 12 << 64, 1, 64)
    name = "control: a deviation above the bound fails the bound check"
    checks.append({"name": name, "pass": not ok, "control": True})
    ok = _bound_test(12, 64, floor_bound + 1, 1, 64)
    name = "control: floor(B) + 1 fails the bound check"
    checks.append({"name": name, "pass": not ok, "control": True})
    return checks


def _suite_third_layer(args: argparse.Namespace) -> list[dict]:
    checks = [{"name": "third layer floor/ceil d<=30", "pass": third_layer_check(30)}]
    # negative control: the residue sums mod 5 of row 30 lie up to 744,200
    # from floor(2^30/5), so they must fail the floor/ceil test
    ok = _splits_evenly(residue_table(5, 30).values, 30)
    name = "control: the residue sums mod 5 at d=30 fail the floor/ceil test"
    checks.append({"name": name, "pass": not ok, "control": True})
    return checks


def _suite_clique_certs(args: argparse.Namespace) -> list[dict]:
    checks = []
    cert = None
    for order in (4, 8, 12, 16, 20, 24, 32):
        H = hadamard_matrix(order)
        if H is None:
            checks.append({"name": f"order {order}", "pass": False})
            continue
        try:
            cert = hadamard_to_clique(H)
            ok = verify_clique(cert) and cert.size() == order - 1
        except CertificateError:
            ok = False
        checks.append({"name": f"order {order} clique of size {order - 1}", "pass": ok})
    # negative control: the last certificate with one member changed (its
    # lowest element moved to the lowest one it lacks) must fail verify_clique
    refused = False
    if cert is not None:
        m, *rest = cert.members
        refused = not verify_clique(
            CliqueCertificate(cert.s, (m ^ (m & -m) ^ (~m & (m + 1)), *rest))
        )
    name = "control: a clique with one member changed fails verify_clique"
    checks.append({"name": name, "pass": refused, "control": True})
    return checks


def _suite_oracle_equivalence(args: argparse.Namespace) -> list[dict]:
    rng = np.random.default_rng(args.seed)
    checks = []
    ok = sym_ok = True
    for _ in range(25):
        n = int(rng.integers(1, 8))
        d = int(rng.integers(0, n + 1))
        bits = rng.integers(0, 2, size=1 << n)
        A = VertexSet.from_flags(n, bits)
        fast = distribution_fast(A, d)
        ok &= fast == distribution(A, d)
        comp = distribution_fast(A.complement(), d)
        sym_ok &= _mirrors(fast.counts, comp.counts)
    checks.append({"name": "distribution_fast == distribution (25 seeded sets)", "pass": ok})
    checks.append({"name": "complement mirrors counts", "pass": sym_ok})
    # the parity (k = 2) and mod_weight (k = 4) sets are weight-symmetric, so
    # distribution_fast counts them in closed form; the fold kernel, called
    # directly, puts each 2^16-count leaf block on one or two values
    specs = [LayeredSpec(k, frozenset({0})) for k in (2, 4)]
    sets = [layered_set(16, spec) for spec in specs]
    fast = [distribution_fast(A, 3) for A in sets]
    layered_ok = (
        fast
        == [_fold_distribution(A, 3) for A in sets]
        == [layered_distribution(16, 3, spec) for spec in specs]
    )
    name = (
        "distribution_fast == _fold_distribution == layered_distribution"
        " (parity and mod_weight, n=16, d=3)"
    )
    checks.append({"name": name, "pass": layered_ok})
    # negative control: {0} in Q_3 has edge counts (9, 3, 0); its complement's
    # are (0, 3, 9), so its own counts must not pass for its complement's
    counts = distribution_fast(VertexSet(3, 1), 1).counts
    name = "control: an asymmetric set's complement has different counts"
    checks.append({"name": name, "pass": not _mirrors(counts, counts), "control": True})
    # negative control: the weights 1 mod 4 also meet each 3-subcube in 1 or
    # 3 points, but not in the same ones, so the counts must differ
    other = layered_distribution(16, 3, LayeredSpec(4, frozenset({1})))
    name = "control: the mod_weight set's counts differ from those of weights 1 mod 4"
    checks.append({"name": name, "pass": fast[1] != other, "control": True})
    # negative control: the closed form fed the mod_weight set's weight
    # classes with weight 8 left out moves the subcubes of base weight 5..8
    W = [int(w % 4 == 0) for w in range(17)]
    W[8] = 0
    flipped = _weight_distribution(16, 3, W)
    name = "control: the closed form with one weight class flipped gives different counts"
    checks.append({"name": name, "pass": flipped != fast[1], "control": True})
    return checks


def _mirrors(counts: tuple[int, ...], comp_counts: tuple[int, ...]) -> bool:
    """Are comp_counts the counts reversed, as a complement's must be?"""
    return counts == comp_counts[::-1]


_SUITES = {
    "prop31": _suite_prop31,
    "thm32": _suite_thm32,
    "approx": _suite_approx,
    "third-layer": _suite_third_layer,
    "clique-certs": _suite_clique_certs,
    "oracle-equivalence": _suite_oracle_equivalence,
}
VERIFY_SUITES = tuple(_SUITES)


def cmd_verify(args: argparse.Namespace):
    checks = _SUITES[args.suite](args)
    passed = all(c["pass"] for c in checks)
    return {"suite": args.suite, "pass": passed, "checks": checks}, [], passed


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------


# command -> (the function that runs it, its line in the top-level help)
_COMMANDS = {
    "dist": (cmd_dist, "subcube count distribution of a set"),
    "exhaustive": (cmd_exhaustive, "exact max over all sets"),
    "bounds": (cmd_bounds, "best proven enclosure of the limit"),
    "omega": (cmd_omega, "clique number with a certificate"),
    "construct": (cmd_construct, "materialize a construction"),
    "verify": (cmd_verify, "run a verification suite"),
    "approx": (cmd_approx, "density approximation spec"),
}


def _add_arguments(parser: argparse.ArgumentParser, command: str) -> argparse.ArgumentParser:
    """Declare the shared flags, then the arguments of ``command``, on ``parser``."""
    for name, options in _SHARED_FLAGS.items():
        parser.add_argument(f"--{name}", **options)
    add = parser.add_argument
    if command == "dist":
        add("--set-file", dest="set_file", default=None)
        add("--construct", default=None, help="construction spec JSON (or @file)")
        add("-d", type=int, required=True, dest="d")
        add("-s", type=int, default=None, dest="s")
    elif command in ("exhaustive", "bounds"):
        for name in ("n", "d", "s") if command == "exhaustive" else ("d", "s"):
            add(name, type=int)
    elif command == "omega":
        add("s", type=int)
        add("--policy", choices=("auto", "search"), default="auto")
    elif command == "construct":
        add("spec", help="construction spec JSON (or @file)")
    elif command == "verify":
        add("suite", choices=VERIFY_SUITES)
    elif command == "approx":
        add("x", type=float)
        add("eps", type=float)
        add("--check-d", type=int, default=None, dest="check_d")
    return parser


@functools.cache  # built only for argv that names no command or that a command's parser refuses
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cubestats",
        description="Exact subcube statistics of vertex sets in hypercubes.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, summary) in _COMMANDS.items():
        _add_arguments(sub.add_parser(command, help=summary), command)
    return parser


class _CommandParser(argparse.ArgumentParser):
    # the full tree words every usage error, leftover arguments included; it
    # also refuses what only its top level would, such as an ambiguous --=x
    def error(self, message):
        raise argparse.ArgumentError(None, message)


@functools.cache
def _command_parser(command: str) -> argparse.ArgumentParser:
    return _add_arguments(_CommandParser(prog=f"cubestats {command}"), command)


def _parse_args(argv: Sequence[str] | None) -> argparse.Namespace:
    """``_build_parser().parse_args(argv)``, from the named command's parser alone when it can."""
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv and argv[0] in _COMMANDS:
        command, *rest = argv
        try:
            return _command_parser(command).parse_args(rest, argparse.Namespace(command=command))
        except argparse.ArgumentError:
            pass
    return _build_parser().parse_args(argv)


def _leaves(node, path: str = ""):
    """Yield (dotted path, value) for each scalar and empty container in node."""
    if isinstance(node, np.ndarray):
        node = node.tolist()
    if isinstance(node, (dict, list)) and node:
        items = sorted(node.items()) if isinstance(node, dict) else enumerate(node)
        for key, child in items:
            yield from _leaves(child, f"{path}.{key}" if path else str(key))
    else:
        yield path, node


def _render_csv(report: dict) -> str:
    """One key,value row per leaf of the report, in the JSON key order."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["key", "value"])
    for path, value in _leaves(report):
        writer.writerow([path, value if isinstance(value, str) else json.dumps(value)])
    return buf.getvalue()


_SCALAR_TYPES = frozenset({str, int, float, bool, type(None)})
# 10^1 .. 10^9: the first item of at least w + 1 digits is at searchsorted(10^w)
_POWERS_OF_TEN = np.array([10**k for k in range(1, 10)], np.uint32)


def _render_json(node, out: list, pad: str = "") -> list:
    """Append ``json.dumps(node, sort_keys=True, indent=2)`` to ``out`` as UTF-8 pieces.

    With ``indent`` set, json falls back to its pure-Python encoder.  Here
    a numpy array, such as a vertex set's members, is written by
    ``_render_ints`` when it is a nondecreasing integer array in [0, 2^32),
    and as its ``tolist()`` otherwise; any other container whose members
    are all plain str, int, float, bool or None is one call of the C
    encoder, whose item separator carries the newline and the indentation,
    and so one piece; only the other containers are walked in Python.
    ``pad`` is the indentation of the line ``node`` starts on, and so of
    its closing bracket.  Dict keys must be strings.  Returns ``out``.
    """
    inner = pad + "  "
    sep = ",\n" + inner
    if isinstance(node, np.ndarray):
        blocks = _render_ints(node, sep)
        if blocks is None:
            return _render_json(node.tolist(), out, pad)
        out += (f"[\n{inner}".encode(), *blocks, f"\n{pad}]".encode())
    elif not isinstance(node, (dict, list, tuple)) or not node:
        out.append(json.dumps(node).encode())
    elif _SCALAR_TYPES.issuperset(map(type, node.values() if isinstance(node, dict) else node)):
        text = json.dumps(node, sort_keys=True, separators=(sep, ": "))
        out.append(f"{text[0]}\n{inner}{text[1:-1]}\n{pad}{text[-1]}".encode())
    else:
        is_dict = isinstance(node, dict)
        opening, closing = "{}" if is_dict else "[]"
        lead = f"{opening}\n{inner}"
        for key, child in sorted(node.items()) if is_dict else enumerate(node):
            out.append(f"{lead}{json.dumps(key)}: ".encode() if is_dict else lead.encode())
            _render_json(child, out, inner)
            lead = sep
        out.append(f"\n{pad}{closing}".encode())
    return out


def _render_ints(values: np.ndarray, sep: str) -> list[memoryview] | None:
    """The items in decimal, joined by the ASCII ``sep``, as json writes them.

    None unless ``values`` is a nonempty 1-d integer array, nondecreasing
    and in [0, 2^32).  Sorted items fall into runs of equal digit width;
    each run fills a (rows, width + len(sep)) byte block, the digits by
    repeated ``// 10`` from the right and the separator in the columns
    after them.  Returns views of the blocks, the last cut short of its sep.
    """
    if values.ndim != 1 or not values.size or values.dtype.kind not in "iu":
        return None
    if values[0] < 0 or values[-1] >= 1 << 32 or (values[1:] < values[:-1]).any():
        return None
    values = values.astype(np.uint32, copy=False)
    cuts = [0, *np.searchsorted(values, _POWERS_OF_TEN).tolist(), len(values)]
    tail = np.frombuffer(sep.encode(), np.uint8)
    blocks = []
    for width, (lo, hi) in enumerate(zip(cuts, cuts[1:]), start=1):
        if lo == hi:
            continue
        run = values[lo:hi]
        block = np.empty((hi - lo, width + len(tail)), np.uint8)
        block[:, width:] = tail
        for col in range(width - 1, -1, -1):
            quotient = run // 10
            # a uint8 digit array first: a uint32 one casts slowly into the column
            block[:, col] = (run - 10 * quotient).astype(np.uint8) + ord("0")
            run = quotient
        blocks.append(block.reshape(-1).data)
    return [*blocks[:-1], blocks[-1][: -len(tail)]]


def _emit(out: str | None, pieces: list) -> None:
    if out is not None:
        with open(out, "wb") as fh:
            fh.writelines(pieces)
        return
    try:
        sys.stdout.writelines(str(piece, "utf-8", "surrogateescape") for piece in pieces)
        sys.stdout.flush()  # a closed pipe raises here, not in the exit flush
    except BrokenPipeError:  # point fd 1 at devnull, so the exit flush cannot fail too
        with open(os.devnull, "wb") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        raise


def main(argv: Sequence[str] | None = None) -> int:
    args = _parse_args(argv)
    try:
        if not 0 <= args.seed < 1 << 64:
            raise DomainError("seed must fit in 64 bits")
        if args.workers < 1:
            raise DomainError("--workers must be >= 1")
        payload, provenance, passed = _COMMANDS[args.command][0](args)
        report = _envelope(args, payload, provenance)
        if args.format == "csv":
            pieces = [_render_csv(report).encode("utf-8", "surrogateescape")]
        else:
            pieces = [*_render_json(report, []), b"\n"]
        _emit(args.out, pieces)
    # UnicodeEncodeError: a strict stdout encoding cannot write the report
    except (DomainError, CertificateError, OSError, UnicodeEncodeError, CapabilityError) as exc:
        print(f"cubestats: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, CapabilityError) else 2
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
