#!/usr/bin/env python3
"""Benchmark for the morphic package: one workload run, checked and timed.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere; the package is imported from ``src/`` next to this
directory, never from an installed copy.  Each run:

1. times set-up: fresh interpreters that import the package and build
   the CLI parser (median of SETUP_SAMPLES, after one warm-up);
2. runs the workload in a fresh single-threaded interpreter (worker.py)
   for as many whole iterations as fit in S seconds, timing only calls
   into the package;
3. with ``--trace 1``, skips step 1 and runs the workload a second time
   with spans around every layer's public callables, and reports
   per-layer numbers and the tracing overhead instead;
4. checks every output against oracle.py, which shares no code with
   the package, outside the timed region;
5. prints each metric with its unit, an ``info`` line stamping the
   environment and inputs, and, last, one JSON result line.

Workloads: ``verify-all`` (the fixed verification battery), ``tables``
(three complexity tables at n <= 256), ``user-morphisms`` (seeded
random morphisms, generated from spec text, plus coded censuses of the
built-in words), and ``user-morphisms-scan`` (the census on the random
morphisms themselves; see README.md for why it is not gated).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402

WORKLOADS = ("verify-all", "tables", "user-morphisms", "user-morphisms-scan")
SETUP_SAMPLES = 15
DEADLINE_S = 170.0
SETUP_PROBE = (
    "import sys, morphic, morphic.cli\n"
    "morphic.cli.build_parser()\n"
    "sys.stdout.write(morphic.__file__ + '\\n')\n"
    "sys.stdout.flush()\n"
)


class BenchError(RuntimeError):
    """The benchmark could not measure; no result is printed."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # time imports from cached bytecode, as users run them
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def check_package_file(path: str) -> None:
    if not Path(path).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"imported morphic from {path}, not from {SRC}")


def measure_setup(env: dict[str, str], deadline: float, count: int, warm_up: bool) -> list[float]:
    """Seconds from spawning an interpreter until the package and CLI parser are ready."""
    samples = []
    for i in range(count + warm_up):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", SETUP_PROBE], stdout=subprocess.PIPE, env=env, text=True
        )
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter() - t0
            proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0 or not line:
            raise BenchError("the package does not import")
        check_package_file(line.strip())
        if i or not warm_up:  # a warm-up start also writes the bytecode cache
            samples.append(ready)
    return samples


def run_worker(workload, seed, seconds, trace, workdir: Path, env, deadline) -> dict:
    workdir.mkdir()
    log = workdir / "worker.log"
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), str(seconds), str(trace), str(workdir)]
    with log.open("w") as fh:
        proc = subprocess.Popen(cmd, stdout=fh, stderr=subprocess.STDOUT, env=env, cwd=str(workdir))
        try:
            proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError(f"{workload} worker ran past the deadline") from None
    if proc.returncode != 0:
        tail = log.read_text()[-2000:]
        raise BenchError(f"{workload} worker exited with {proc.returncode}:\n{tail}")
    result = json.loads((workdir / "result.json").read_text())
    check_package_file(result["morphic_file"])
    if trace:
        result["trace"] = json.loads((workdir / "trace.json").read_text())
    return result


# ---------------------------------------------------------------- oracle checks
# Each returns (attempted, failed, failure messages) for one iteration.


def check_verify_all(it: dict) -> tuple[int, int, list[str]]:
    expected = oracle.verify_all_expectation()
    by_name = {r["check"]: r for r in it["reports"]}
    bad = []
    for name, tuples in expected.items():
        r = by_name.get(name)
        if r is None:
            bad.append(f"{name}: no report")
        elif r["failures"]:
            bad.append(f"{name}: {len(r['failures'])} failures, first {r['failures'][0]}")
        elif r["tuples_checked"] != tuples:
            bad.append(f"{name}: {r['tuples_checked']} tuples checked, expected {tuples}")
        elif it["rc"] != 0:
            bad.append(f"{name}: verify all exited with {it['rc']}")
    if [r["check"] for r in it["reports"]] != list(expected):
        bad.append("reports are not the registered checks in README order")
    return len(expected), len(bad), bad


@functools.cache
def word_profile(images: tuple[bytes, ...], n_to: int):
    """The oracle's factor sets and Parikh sets of one fixed point, up to n_to."""
    F = oracle.factors_by_length(images, 0, n_to)
    return F, oracle.parikh_sets(F, len(images))


def check_tables(it: dict) -> tuple[int, int, list[str]]:
    words = {
        "tml": (gen.BUILTIN_IMAGES["tml"], (0, 1, 2)),
        "sigma3": (gen.BUILTIN_IMAGES["sigma3"], (0, 1, 2)),
        "sigma3-coded": (gen.BUILTIN_IMAGES["sigma3"], tuple(it["coding"])),
    }
    attempted = failed = 0
    bad = []
    for table in it["tables"]:
        images, values = words[table["name"]]
        expected = oracle.table_rows(*word_profile(images, 256), values)
        attempted += len(expected)
        got = table["rows"] if table["rc"] == 0 else []
        wrong = [row for i, row in enumerate(expected) if i >= len(got) or got[i] != row]
        failed += len(wrong) + max(0, len(got) - len(expected))
        bad += [f"{table['name']} n={row[0]}: expected {row}" for row in wrong[:3]]
    return attempted, failed, bad


def check_case(case: gen.MorphismCase, op: dict) -> str | None:
    """Why the op's outputs are wrong, or None."""
    if "error" in op:
        return op["error"]
    if case.prefix_len:
        if op["digest"] != oracle.prefix_digest(case.images, 0, case.prefix_len):
            return "prefix differs from the oracle's substitution"
        if case.uniform and op["automatic_agrees"] is not True:
            return "automatic_prefix disagrees with FixedPointStream"
    if case.census:
        F, P = word_profile(case.images, gen.TABLE_N_TO)
        rows = oracle.table_rows(F, P, case.coding)
        if op["rows"] != rows:
            n = next(i for i, row in enumerate(rows) if i >= len(op["rows"]) or op["rows"][i] != row)
            return f"table row n={n + 1}: got {op['rows'][n] if n < len(op['rows']) else None}, expected {rows[n]}"
        ivp = oracle.ivp_expectation(P, case.coding, gen.IVP_N_TO)
        if op["gaps"] != {str(n): v for n, v in ivp["gaps"].items()}:
            return "gap census differs from the oracle"
        if op["tuples_checked"] != ivp["tuples_checked"]:
            return f"gap census checked {op['tuples_checked']} tuples, expected {ivp['tuples_checked']}"
    return None


def check_morphisms(workload: str, seed: int, it: dict) -> tuple[int, int, list[str]]:
    cases = gen.cases_for(workload, seed, it["batch"])
    bad = []
    for op in it["ops"]:
        why = check_case(cases[op["case"]], op)
        if why:
            bad.append(f"batch {it['batch']} op {op['case']}: {why}\n{cases[op['case']].spec}")
    return len(cases), len(bad) + len(cases) - len(it["ops"]), bad


def check_outputs(workload: str, seed: int, result: dict) -> tuple[int, int, list[str]]:
    attempted = failed = 0
    bad: list[str] = []
    for it in result["iterations"]:
        if workload == "verify-all":
            a, f, b = check_verify_all(it)
        elif workload == "tables":
            a, f, b = check_tables(it)
        else:
            a, f, b = check_morphisms(workload, seed, it)
        attempted, failed, bad = attempted + a, failed + f, bad + b
    return attempted, failed, bad


# ---------------------------------------------------------------- metrics


def median_wall(result: dict) -> float:
    return statistics.median(it["wall_s"] for it in result["iterations"])


def per_layer(workload: str, plain: dict, traced: dict) -> dict[str, tuple[float, str]]:
    out, calls, top_level = spans.layer_metrics(traced["trace"])
    silent = [
        name for name, _, _, required in spans.SPANS if workload in required and not calls[name]
    ]
    if silent:
        raise BenchError(f"traced spans never fired on {workload}: {', '.join(silent)}")
    traced_wall = sum(it["wall_s"] for it in traced["iterations"])
    coverage = top_level / traced_wall
    if coverage < 0.9:
        raise BenchError(f"top-level spans cover only {coverage:.1%} of the traced wall time")
    cache = traced.get("sigma_power_bytes", {"hits": 0, "misses": 0})
    lookups = cache["hits"] + cache["misses"]
    out["witnesses.sigma_power_bytes.hit_ratio"] = (cache["hits"] / lookups if lookups else 0.0, "ratio")
    elapsed: dict[str, list[float]] = {}
    if workload == "verify-all":
        for it in traced["iterations"]:
            for r in it["reports"]:
                elapsed.setdefault(r["check"], []).append(r["elapsed_ms"] / 1000.0)
    for name in oracle.verify_all_expectation():
        out[f"check.{name}.s"] = (statistics.median(elapsed.get(name, [0.0])), "s")
    out["trace.coverage"] = (coverage, "ratio")
    out["trace.wall_s"] = (median_wall(traced), "s")
    out["trace.untraced_wall_s"] = (median_wall(plain), "s")
    out["trace.overhead_s"] = (median_wall(traced) - median_wall(plain), "s")
    return out


def source_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((SRC / "morphic").glob("*.py")))


def commit() -> str:
    """HEAD of the checkout's git metadata, if it has any."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def inputs_info(workload: str, seed: int, result: dict) -> dict:
    info: dict = {"seed": seed, "iterations": len(result["iterations"])}
    if workload == "tables":
        info["codings"] = [it["coding"] for it in result["iterations"]]
    elif workload.startswith("user-morphisms"):
        cases = [c for it in result["iterations"] for c in gen.cases_for(workload, seed, it["batch"])]
        generated = [c for c in cases if c.prefix_len]
        info["letters"] = [c.letters for c in generated]
        info["widths"] = ["".join(map(str, c.widths)) for c in generated]
        info["coding_spread"] = [max(c.coding) - min(c.coding) for c in cases if c.census]
        op_ms = sorted(op["op_s"] * 1000 for it in result["iterations"] for op in it["ops"] if "op_s" in op)
        info["morphism_ms.p50"] = statistics.median(op_ms) if op_ms else None
        info["morphism_ops"] = len(op_ms)
        if len(op_ms) >= 100:  # at least ten samples beyond the 90th percentile
            info["morphism_ms.p90"] = statistics.quantiles(op_ms, n=10)[-1]
        info["materialized_per_request"] = [
            op["materialized"] / c.prefix_len
            for it in result["iterations"]
            for op, c in zip(it["ops"], gen.cases_for(workload, seed, it["batch"]))
            if c.prefix_len and "materialized" in op
        ]
    return info


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "morphic" / "__init__.py").is_file():
        print(f"run.py: no package source at {SRC / 'morphic'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    env = child_env()
    scratch = ROOT / ".perfbench-work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        run = (args.workload, args.seed, args.seconds)
        if args.trace:
            setup = []
            plain = run_worker(*run, 0, workdir / "plain", env, deadline)
            traced = run_worker(*run, 1, workdir / "traced", env, deadline)
            metrics = per_layer(args.workload, plain, traced)
        else:
            # set-up samples before and after the workload, so that one slow
            # spell of a shared machine does not set them all
            setup = measure_setup(env, deadline, SETUP_SAMPLES // 2 + 1, warm_up=True)
            plain = run_worker(*run, 0, workdir / "plain", env, deadline)
            setup += measure_setup(env, deadline, SETUP_SAMPLES // 2, warm_up=False)
            traced = None
            metrics = {
                "wall_s": (median_wall(plain), "s"),
                "setup_s": (statistics.median(setup), "s"),
                "peak_rss_mb": (plain["peak_rss_mb"], "MB"),
            }
        attempted, failed, bad = check_outputs(args.workload, args.seed, plain)
        if traced is not None:
            a, f, b = check_outputs(args.workload, args.seed, traced)
            attempted, failed, bad = attempted + a, failed + f, bad + b
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for msg in bad[:10]:
        print(f"run.py: wrong output: {msg}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:>16.6f} {unit}")
    info = {
        "workload": args.workload,
        "samples": {
            "wall_s": len(plain["iterations"]),
            "setup_s": len(setup),
        },
        "op_fail_frac": f"{failed}/{attempted}",
        "inputs": inputs_info(args.workload, args.seed, plain),
        "env": {
            "commit": commit(),
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "cpu": cpu_model(),
            "python": platform.python_version(),
            "numpy": plain["numpy"],
            "src_morphic_lines": source_lines(),
        },
    }
    print(json.dumps({"info": info}))
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
