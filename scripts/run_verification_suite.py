#!/usr/bin/env python3
"""Run every registered check at its default range and save the reports.

One summary line per check on stdout; JSON reports land in --out-dir
(one file per check plus summary.json).  Exit status is nonzero when
any check records a failure.
"""

import argparse
import json
import sys
from pathlib import Path

from morphic.suite import run_all


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="verification-reports", metavar="DIR")
    args = parser.parse_args()

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    reports = run_all()
    for report in reports:
        print(report.summary_line())
        (out_dir / f"{report.check}.json").write_text(report.to_json() + "\n")

    summary = {
        "passed": all(r.passed for r in reports),
        "checks": [r.to_dict() for r in reports],
        "total_elapsed_ms": round(sum(r.elapsed_ms for r in reports), 3),
    }
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    print(f"reports written to {out_dir}/")
    return 0 if summary["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
