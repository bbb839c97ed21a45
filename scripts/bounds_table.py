"""Print the best proven enclosure of the limit value for every (d, s).

Each row shows the certified interval, the text of the witness that
attains the lower end, and that of the source of the upper end.

Usage: python3 scripts/bounds_table.py --max-d 6 [--csv]
"""

import argparse
import csv
import sys

from cubestats import best_bounds


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-d", type=int, default=5)
    ap.add_argument("--csv", action="store_true", help="machine-readable output")
    args = ap.parse_args()

    rows = []
    for d in range(1, args.max_d + 1):
        for s in range((1 << d) + 1):
            b = best_bounds(d, s)
            witness, source = b.lower_witness.text(d), b.upper_source.text(d)
            rows.append([d, s, str(b.lower), str(b.upper), witness, source])

    header = ["d", "s", "lower", "upper", "lower_witness", "upper_source"]
    if args.csv:
        w = csv.writer(sys.stdout, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)
        return
    for d, s, lo, hi, wit, src in rows:
        tight = "=" if lo == hi else " "
        lo_show = lo if len(lo) <= 24 else lo[:21] + "..."
        hi_show = hi if len(hi) <= 24 else hi[:21] + "..."
        print(f"d={d} s={s:>3} {tight} [{lo_show}, {hi_show}]  {wit} / {src}")


if __name__ == "__main__":
    main()
