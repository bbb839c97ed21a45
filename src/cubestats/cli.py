"""Command line front end.

Every command emits a single report (JSON by default, CSV on request)
that embeds the library version and the full run configuration, so a
report can be reproduced byte for byte from its own header.  Exit codes:
0 success, 1 verification failure, 2 usage error, 3 capability exceeded.
"""

import argparse
import csv
import io
import json
import sys
from dataclasses import asdict, dataclass, fields
from typing import Sequence

import numpy as np

from . import __version__
from .approx import approx_construct, check_approx, third_layer_check
from .constructions import ConstructionResult, best_bounds, build_construction
from .cube import MASK_CAP, VertexSet
from .errors import CapabilityError, CertificateError, DomainError
from .exhaustive import exhaustive_lambda
from .hadamard import hadamard_matrix
from .johnson import hadamard_to_clique, omega, verify_clique
from .residues import verify_prop31, verify_thm32
from .stats import distribution, distribution_fast

_CHECKED_DIMENSION_CAP = 10_000  # the largest d the approx check runs at


@dataclass(frozen=True)
class RunConfig:
    """Everything needed to reproduce a run, embedded in each report."""

    command: str
    parameters: dict
    seed: int = 0
    format: str = "json"
    out: str | None = None
    workers: int = 1
    max_n: int = MASK_CAP

    def to_json(self) -> dict:
        return asdict(self)


def _envelope(config: RunConfig, payload: dict, provenance: Sequence[str] = ()) -> dict:
    return {
        "version": __version__,
        "config": config.to_json(),
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


def _construct(config: RunConfig, text: str) -> ConstructionResult:
    """Build the construction a spec argument names, within ``--max-n``."""
    spec = _load_json_arg(text)
    if isinstance(spec, dict) and spec.get("kind") == "bernoulli":
        spec.setdefault("seed", config.seed)
    result = build_construction(spec)
    _check_max_n(config, result.vertex_set)
    return result


def _check_max_n(config: RunConfig, A: VertexSet) -> None:
    if A.n > config.max_n:
        raise CapabilityError(f"set lives in n={A.n}, above the cap {config.max_n}")


# ---------------------------------------------------------------------------
# commands: each returns (payload, provenance tags, passed flag)
# ---------------------------------------------------------------------------


def cmd_dist(config: RunConfig, args: argparse.Namespace):
    provenance: list[str] = []
    payload: dict = {}
    if (args.set_file is None) == (args.construct is None):
        raise DomainError("give exactly one of --set-file and --construct")
    if args.set_file is not None:
        A = VertexSet.from_json(_load_json_arg("@" + args.set_file))
        _check_max_n(config, A)
    else:
        result = _construct(config, args.construct)
        payload["construction"] = result.to_json()
        A = result.vertex_set
    dist = distribution_fast(A, args.d)
    payload["distribution"] = dist.to_json()
    if args.s is not None:
        payload["lambda"] = {"s": args.s, "value": str(dist.fraction(args.s))}
    return payload, provenance, True


def cmd_exhaustive(config: RunConfig, args: argparse.Namespace):
    value, witness = exhaustive_lambda(args.n, args.d, args.s)
    payload = {
        "n": args.n,
        "d": args.d,
        "s": args.s,
        "lambda": str(value),
        "witness": witness.to_json(),
    }
    return payload, [], True


def cmd_bounds(config: RunConfig, args: argparse.Namespace):
    bounds = best_bounds(args.d, args.s)
    provenance = []
    if bounds.upper_source == "reference-constant":
        provenance.append(f"reference-constant:upper({args.d},{args.s})")
    return {"bounds": bounds.to_json()}, provenance, True


def cmd_omega(config: RunConfig, args: argparse.Namespace):
    result = omega(args.s, policy=args.policy)
    return {"omega": result.to_json()}, [], True


def cmd_construct(config: RunConfig, args: argparse.Namespace):
    result = _construct(config, args.spec)
    return {"construction": result.to_json()}, [], True


def cmd_approx(config: RunConfig, args: argparse.Namespace):
    spec = approx_construct(args.x, args.eps)
    payload = {"spec": spec.to_json()}
    check_d = args.check_d
    if check_d is not None and check_d > _CHECKED_DIMENSION_CAP:
        raise CapabilityError(f"--check-d above {_CHECKED_DIMENSION_CAP} is unsupported")
    if check_d is None and spec.d_min <= _CHECKED_DIMENSION_CAP:
        check_d = spec.d_min
    check = check_approx(spec, check_d) if check_d is not None else None
    if check is not None:
        payload["check"] = {"d": check_d, **check.to_json()}
    return payload, [], check is None or check.bound_ok


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------


def _suite_prop31(config: RunConfig) -> list[dict]:
    checks = []
    for d in range(3, 17):
        ok = all(verify_prop31(k, d) for k in range(3, d + 1))
        checks.append({"name": f"prop31 d={d} (all 2<k<=d)", "pass": ok})
    return checks


def _suite_thm32(config: RunConfig) -> list[dict]:
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
    return checks


def _suite_approx(config: RunConfig) -> list[dict]:
    from .approx import ApproxSpec

    checks = []
    for q in range(2, 13):
        worst_ok = True
        for p in range(1, q):
            spec = ApproxSpec(x=p / q, q=q, p=p, d_min=1, tol=1.0)
            for d in range(1, 65):
                if not check_approx(spec, d).bound_ok:
                    worst_ok = False
        checks.append({"name": f"bound holds q={q}, p<q, d<=64", "pass": worst_ok})
    return checks


def _suite_third_layer(config: RunConfig) -> list[dict]:
    return [{"name": "third layer floor/ceil d<=30", "pass": third_layer_check(30)}]


def _suite_clique_certs(config: RunConfig) -> list[dict]:
    checks = []
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
    return checks


def _suite_oracle_equivalence(config: RunConfig) -> list[dict]:
    rng = np.random.default_rng(config.seed)
    checks = []
    ok = True
    sym_ok = True
    for _ in range(25):
        n = int(rng.integers(1, 8))
        d = int(rng.integers(0, n + 1))
        bits = rng.integers(0, 2, size=1 << n)
        A = VertexSet.from_flags(n, bits)
        fast = distribution_fast(A, d)
        slow = distribution(A, d)
        if fast != slow:
            ok = False
        comp = distribution_fast(A.complement(), d)
        if fast.counts != comp.counts[::-1]:
            sym_ok = False
    checks.append({"name": "distribution_fast == distribution (25 seeded sets)", "pass": ok})
    checks.append({"name": "complement mirrors counts", "pass": sym_ok})
    return checks


_SUITES = {
    "prop31": _suite_prop31,
    "thm32": _suite_thm32,
    "approx": _suite_approx,
    "third-layer": _suite_third_layer,
    "clique-certs": _suite_clique_certs,
    "oracle-equivalence": _suite_oracle_equivalence,
}
VERIFY_SUITES = tuple(_SUITES)


def cmd_verify(config: RunConfig, args: argparse.Namespace):
    checks = _SUITES[args.suite](config)
    passed = all(c["pass"] for c in checks)
    return {"suite": args.suite, "pass": passed, "checks": checks}, [], passed


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--seed", type=int, default=0, help="64-bit seed (default 0)")
    shared.add_argument("--format", choices=("json", "csv"), default="json")
    shared.add_argument("--out", default=None, help="write the report to this path")
    # kept so that existing command lines still parse; it changes nothing that runs
    shared.add_argument("--workers", type=int, default=1, help="unused (at least 1)")
    shared.add_argument("--max-n", type=int, default=MASK_CAP, dest="max_n")

    parser = argparse.ArgumentParser(
        prog="cubestats",
        description="Exact subcube statistics of vertex sets in hypercubes.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dist", parents=[shared], help="subcube count distribution of a set")
    p.add_argument("--set-file", dest="set_file", default=None)
    p.add_argument("--construct", default=None, help="construction spec JSON (or @file)")
    p.add_argument("-d", type=int, required=True, dest="d")
    p.add_argument("-s", type=int, default=None, dest="s")

    p = sub.add_parser("exhaustive", parents=[shared], help="exact max over all sets")
    p.add_argument("n", type=int)
    p.add_argument("d", type=int)
    p.add_argument("s", type=int)

    p = sub.add_parser("bounds", parents=[shared], help="best proven enclosure of the limit")
    p.add_argument("d", type=int)
    p.add_argument("s", type=int)

    p = sub.add_parser("omega", parents=[shared], help="clique number with a certificate")
    p.add_argument("s", type=int)
    p.add_argument("--policy", choices=("auto", "search"), default="auto")

    p = sub.add_parser("construct", parents=[shared], help="materialize a construction")
    p.add_argument("spec", help="construction spec JSON (or @file)")

    p = sub.add_parser("verify", parents=[shared], help="run a verification suite")
    p.add_argument("suite", choices=VERIFY_SUITES)

    p = sub.add_parser("approx", parents=[shared], help="density approximation spec")
    p.add_argument("x", type=float)
    p.add_argument("eps", type=float)
    p.add_argument("--check-d", type=int, default=None, dest="check_d")

    return parser


_COMMANDS = {
    "dist": cmd_dist,
    "exhaustive": cmd_exhaustive,
    "bounds": cmd_bounds,
    "omega": cmd_omega,
    "construct": cmd_construct,
    "verify": cmd_verify,
    "approx": cmd_approx,
}

# the shared flags fill every RunConfig field but these two
_CONFIG_FIELDS = tuple(
    f.name for f in fields(RunConfig) if f.name not in ("command", "parameters")
)


def _leaves(node, path: str = ""):
    """Yield (dotted path, value) for each scalar and empty container in node."""
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


def _render_json(node, pad: str = "") -> str:
    """``json.dumps(node, sort_keys=True, indent=2)``, with the same bytes.

    With ``indent`` set, json falls back to its pure-Python encoder.  Here
    a container whose members are all plain str, int, float, bool or None
    is one call of the C encoder, whose item separator carries the newline
    and the indentation; only the other containers are walked in Python.
    ``pad`` is the indentation of the line ``node`` starts on, and so of
    its closing bracket.  Dict keys must be strings.
    """
    if not isinstance(node, (dict, list, tuple)) or not node:
        return json.dumps(node)
    inner = pad + "  "
    children = node.values() if isinstance(node, dict) else node
    if _SCALAR_TYPES.issuperset(map(type, children)):
        body = json.dumps(node, sort_keys=True, separators=(",\n" + inner, ": "))[1:-1]
    elif isinstance(node, dict):
        body = (",\n" + inner).join(
            f"{json.dumps(key)}: {_render_json(child, inner)}"
            for key, child in sorted(node.items())
        )
    else:
        body = (",\n" + inner).join(_render_json(child, inner) for child in node)
    opening, closing = ("{", "}") if isinstance(node, dict) else ("[", "]")
    return f"{opening}\n{inner}{body}\n{pad}{closing}"


def _emit(config: RunConfig, text: str) -> None:
    if config.out is None:
        sys.stdout.write(text)
    else:
        with open(config.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    parameters = {
        k: v
        for k, v in vars(args).items()
        if k not in _CONFIG_FIELDS and k != "command" and v is not None
    }
    config = RunConfig(
        command=args.command,
        parameters=parameters,
        **{name: getattr(args, name) for name in _CONFIG_FIELDS},
    )
    try:
        if not 0 <= config.seed < 1 << 64:
            raise DomainError("seed must fit in 64 bits")
        if config.max_n < 0:
            raise DomainError("--max-n must be >= 0")
        if config.workers < 1:
            raise DomainError("--workers must be >= 1")
        payload, provenance, passed = _COMMANDS[args.command](config, args)
        report = _envelope(config, payload, provenance)
        if config.format == "csv":
            text = _render_csv(report)
        else:
            text = _render_json(report) + "\n"
        _emit(config, text)
    except (DomainError, CertificateError, OSError) as exc:
        print(f"cubestats: {exc}", file=sys.stderr)
        return 2
    except CapabilityError as exc:
        print(f"cubestats: {exc}", file=sys.stderr)
        return 3
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
