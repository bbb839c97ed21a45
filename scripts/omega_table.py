"""Clique numbers of the intersection graphs J(4s, 2s, s), with timing.

Shows the enclosure for each s, the certificate source, and how long it
took. Every upper bound is the a-priori cap 4s-1, and an entry is exact
when its clique reaches that cap: a clique from an explicit Hadamard
matrix of order 4s, or from the greedy-colouring descent in the explicit
graph (s <= 4). Otherwise the lower bound is the clique that two Hadamard
blocks of orders 4a and 4(s-a) give side by side (source hadamard-concat).

Usage: python3 scripts/omega_table.py --max-s 8 [--policy search]
"""

import argparse
import time

from cubestats import omega


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-s", type=int, default=8)
    ap.add_argument("--policy", choices=("auto", "search"), default="auto")
    args = ap.parse_args()

    print(f"{'s':>3} {'4s':>4} {'lower':>6} {'upper':>6} {'exact':>6} {'source':>15} {'secs':>7}")
    for s in range(1, args.max_s + 1):
        t0 = time.monotonic()
        w = omega(s, policy=args.policy)
        dt = time.monotonic() - t0
        print(
            f"{s:>3} {4 * s:>4} {w.lower:>6} {w.upper:>6}"
            f" {str(w.exact).lower():>6} {w.source:>15} {dt:>7.2f}"
        )


if __name__ == "__main__":
    main()
