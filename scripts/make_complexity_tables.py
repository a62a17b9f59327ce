#!/usr/bin/env python3
"""Tabulate complexity columns for the two built-in fixed points.

Writes one CSV per word (plus one for a re-coded variant) into
--out-dir and prints a few structural observations read off the rows:
how the count of attainable digit sums, the digit-sum spread, and the
largest letter-count disparity grow with the factor length.
"""

import argparse
import sys
from pathlib import Path

from morphic.checks import floor_log2
from morphic.complexity import build_complexity_table
from morphic.ivp import sigma3_stream
from morphic.witnesses import ternary_stream
from morphic.words import Coding


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="complexity-tables", metavar="DIR")
    parser.add_argument("--n-to", type=int, default=256, metavar="B")
    args = parser.parse_args()

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    table = build_complexity_table(ternary_stream(), 1, args.n_to)
    (out_dir / "doubling.csv").write_text(table.to_csv())

    rows = {r.n: r for r in table.rows}
    mism = [n for n, r in rows.items() if r.rho_plus != 2 * floor_log2(n) + 3]
    spread = [n for n, r in rows.items() if r.ds_max - r.ds_min != 2 * floor_log2(n) + 2]
    print(f"doubling word, n <= {args.n_to}:")
    print(f"  rho_plus == 2*floor(log2 n) + 3 at every n: {not mism}")
    print(f"  ds_max - ds_min == 2*floor(log2 n) + 2 at every n: {not spread}")
    lockstep = [n for n, r in rows.items() if r.evenness != floor_log2(n) + 1]
    print(
        "  evenness == floor(log2 n) + 1 at every n: "
        f"{not lockstep}"
        + (f" (first exception n={min(lockstep)})" if lockstep else "")
    )

    s3 = sigma3_stream()
    table3 = build_complexity_table(s3, 1, args.n_to)
    (out_dir / "rotation.csv").write_text(table3.to_csv())
    counts = {r.n % 3 if r.n >= 3 else None: r.rho_ab for r in table3.rows if r.n >= 3}
    print(f"rotation word, n <= {args.n_to}:")
    print(f"  distinct count vectors by n mod 3: {counts[0]}, {counts[1]}, {counts[2]}")

    coding = Coding(s3.alphabet, (0, 1, 3))
    table3c = build_complexity_table(s3, 1, args.n_to, coding=coding)
    (out_dir / "rotation-coded-013.csv").write_text(table3c.to_csv())
    gapped = sum(
        1
        for r in table3c.rows
        if r.n >= 3 and r.rho_plus != r.ds_max - r.ds_min + 1
    )
    print(f"  coding 0,1,3: lengths with a gapped digit-sum range (3 <= n): {gapped}")

    print(f"tables written to {out_dir}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
