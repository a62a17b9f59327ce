#!/usr/bin/env python3
"""Record the benchmark's end-to-end metrics in BENCH_<label>.json.

    python3 scripts/bench.py --label NAME [--checkout ROW=DIR ...]
        [--seeds 1,2,...,10]

Runs perfbench/run.py, unchanged, as a subprocess: every workload that
BENCHMARK.json gates, over each seed, on each checkout.  Checkouts take
turns within a seed and workload, the first of them rotating from seed
to seed, so two rows are compared in interleaved pairs, neither always
first, and one slow spell of a shared machine hits both.  Each run lasts
BENCHMARK.json's run_seconds, the same on every checkout.
A row holds, per workload, the median and the per-seed values of each
end-to-end metric, the runs that failed an operation, and the
environment stamped by run.py's info line: commit, nproc, CPU, Python
and numpy.  Without --checkout the one row is this checkout, named
"change".  Exit status is nonzero when a run fails or reports a wrong
output.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """The info and result lines of one trace-free perfbench run."""
    cmd = [
        sys.executable, str(checkout / "perfbench" / "run.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    *_, info, result = proc.stdout.splitlines()
    return json.loads(info)["info"], json.loads(result)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="file name part: BENCH_<label>.json")
    parser.add_argument(
        "--checkout", action="append", default=[], metavar="ROW=DIR",
        help="a row named ROW measured from the checkout at DIR; repeatable",
    )
    parser.add_argument(
        "--seeds", default=",".join(map(str, range(1, 11))), help="comma-separated, at least ten"
    )
    parser.add_argument("--out-dir", default=str(ROOT), metavar="DIR")
    args = parser.parse_args()

    seeds = [int(s) for s in args.seeds.split(",")]
    if len(seeds) < 10:
        parser.error("a comparison needs at least ten pairs: give at least ten seeds")
    checkouts = dict(spec.split("=", 1) for spec in args.checkout) or {"change": str(ROOT)}
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = [m["name"] for m in bench["end_to_end"]]

    values = {row: {w: {m: [] for m in metrics} for w in workloads} for row in checkouts}
    failed_runs = {row: {w: 0 for w in workloads} for row in checkouts}
    envs: dict[str, dict] = {}
    rotation = list(checkouts.items())
    for turn, seed in enumerate(seeds):
        first = turn % len(rotation)
        for workload in workloads:
            for row, directory in rotation[first:] + rotation[:first]:
                info, result = run_once(Path(directory).resolve(), workload, seed, seconds)
                envs.setdefault(row, info["env"])
                failed_runs[row][workload] += not result["correct"]
                for m in metrics:
                    values[row][workload][m].append(result["metrics"][m]["value"])
                print(
                    f"{row:>8s} {workload:16s} seed {seed}: "
                    + "  ".join(f"{m} {values[row][workload][m][-1]:.4g}" for m in metrics),
                    flush=True,
                )

    rows = {
        row: {
            "env": {k: envs[row][k] for k in ("commit", "nproc", "cpu", "python", "numpy")},
            "workloads": {
                w: {
                    "failed_runs": failed_runs[row][w],
                    **{m: {"median": statistics.median(v), "runs": v} for m, v in values[row][w].items()},
                }
                for w in workloads
            },
        }
        for row in checkouts
    }
    record = {"seeds": seeds, "seconds": seconds, "trace": 0, "rows": rows}
    out = Path(args.out_dir) / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")
    print(f"written {out}")
    return 1 if any(n for r in failed_runs.values() for n in r.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
