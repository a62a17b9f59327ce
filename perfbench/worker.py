"""One workload run inside a fresh interpreter; started by run.py.

Usage: worker.py WORKLOAD SEED SECONDS TRACE WORKDIR

Imports the package (set-up, not timed), then runs as many whole
iterations of the workload as fit in SECONDS, at least one.  Only calls
into the package are timed; turning their outputs into the compact
records the oracle checks happens outside the timed region.  Writes
WORKDIR/result.json and, when TRACE is 1, WORKDIR/trace.json.
"""

from __future__ import annotations

import csv
import hashlib
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

import gen
import morphic
import morphic.cli as cli
import spans

clock = time.perf_counter


def verify_all_iteration(workdir: Path) -> dict:
    out = workdir / "verify-all.json"
    t0 = clock()
    rc = cli.main(["verify", "all", "--out", str(out)])
    wall = clock() - t0
    reports = json.loads(out.read_text())
    return {"wall_s": wall, "rc": rc, "reports": reports}


def tables_iteration(workdir: Path, seed: int, batch: int) -> dict:
    coding = gen.table_coding(seed, batch)
    calls = [
        ("tml", ["--preset", "tml"]),
        ("sigma3", ["--preset", "sigma3"]),
        ("sigma3-coded", ["--preset", "sigma3", "--coding", ",".join(map(str, coding))]),
    ]
    wall = 0.0
    tables = []
    for name, source in calls:
        out = workdir / f"{name}.csv"
        t0 = clock()
        rc = cli.main(["complexity", *source, "--n-to", "256", "--out", str(out)])
        wall += clock() - t0
        with out.open(newline="") as fh:
            rows = [[int(x) for x in row] for row in list(csv.reader(fh))[1:]]
        tables.append({"name": name, "rc": rc, "rows": rows})
    return {"wall_s": wall, "coding": list(coding), "tables": tables}


def run_case(case: gen.MorphismCase) -> dict:
    """Parse, generate and, for a census op, scan one morphism; times only the package."""
    t0 = clock()
    spec = morphic.parse_morphism_spec(case.spec)
    stream = morphic.FixedPointStream(spec.morphism, spec.seed)
    prefix = table = ivp = None
    automatic_agrees = None
    if case.prefix_len:
        prefix = stream.array(case.prefix_len)
        if case.uniform:
            automatic = morphic.automatic_prefix(spec.morphism, spec.seed, case.prefix_len)
            automatic_agrees = bool(np.array_equal(automatic, prefix))
            del automatic
    if case.census:
        table = morphic.build_complexity_table(stream, 1, gen.TABLE_N_TO, coding=spec.coding)
        ivp = morphic.check_ivp(stream, spec.coding, 1, gen.IVP_N_TO)
    elapsed = clock() - t0
    record = {"op_s": elapsed, "materialized": stream.materialized}
    if prefix is not None:
        record["digest"] = hashlib.sha256(prefix.tobytes()).hexdigest()
        record["automatic_agrees"] = automatic_agrees
    if table is not None:
        record["rows"] = [list(r.as_tuple()) for r in table.rows]
        record["gaps"] = {
            str(n): [len(v), sum(v), sum(x * x for x in v)] for n, v in ivp.gaps.items()
        }
        record["tuples_checked"] = ivp.tuples_checked
    return record


def morphisms_iteration(workload: str, seed: int, batch: int) -> dict:
    ops = []
    for i, case in enumerate(gen.cases_for(workload, seed, batch)):
        try:
            ops.append({"case": i, **run_case(case)})
        except Exception as exc:  # an op that raises is a failed op, not a crashed run
            ops.append({"case": i, "error": f"{type(exc).__name__}: {exc}"})
    return {"wall_s": sum(op.get("op_s", 0.0) for op in ops), "ops": ops}


def main(argv: list[str]) -> int:
    workload, seed, seconds, trace, workdir = argv
    seed, seconds, workdir = int(seed), float(seconds), Path(workdir)
    tracer = None
    if trace == "1":
        tracer = spans.Tracer()
        tracer.install()

    # Whole iterations only: start another one only if it should still
    # end within SECONDS, judging by the slowest so far.
    iterations = []
    started = clock()
    batch = 0
    slowest = 0.0
    while batch == 0 or clock() - started + slowest <= seconds:
        t0 = clock()
        if workload == "verify-all":
            it = verify_all_iteration(workdir)
        elif workload == "tables":
            it = tables_iteration(workdir, seed, batch)
        else:
            it = morphisms_iteration(workload, seed, batch)
        it["batch"] = batch
        iterations.append(it)
        batch += 1
        slowest = max(slowest, clock() - t0)

    result = {
        "workload": workload,
        "iterations": iterations,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": np.__version__,
        "morphic_file": morphic.__file__,
    }
    if tracer is not None:
        info = morphic.witnesses.sigma_power_bytes.cache_info()
        result["sigma_power_bytes"] = {"hits": info.hits, "misses": info.misses}
        (workdir / "trace.json").write_text(json.dumps(tracer.dump()))
    (workdir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
