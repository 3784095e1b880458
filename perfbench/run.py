"""Benchmark entry point: python3 perfbench/run.py --workload W --seed N
--seconds S --trace 0|1, run from the repository root.

Runs the workload in a fresh process pinned to one CPU (child.py) and, in
untraced runs, repeats the set-up alone in further processes so that
``setup_s`` is a median.  Prints human-readable detail on stderr, writes the
raw per-op record under perfbench/out/, and prints the result as one JSON
object on the last stdout line.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")
WORKLOADS = ("evidence", "mc-crossval", "bracket-fine")
# Set-up samples per untraced run: the timed process plus SETUP_RUNS - 1
# processes that only set up.  Their median is setup_s.
SETUP_RUNS = 5
# Every process of a run must be done by then.
BUDGET_S = 170.0


def _args() -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument(
        "--seconds", type=int, required=True,
        help="planned length of the timed phase; each workload times one fixed "
        "round of ops sized to about this on the reference host",
    )
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args()
    if args.seconds < 1:
        p.error("--seconds must be >= 1")
    return args


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("TAILFORGE_CACHE_DIR", None)
    env.pop("PYTHONPATH", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    # Compile from source every time, so no run finds bytecode an earlier
    # run left behind, and the run writes nothing outside perfbench/out/.
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def _spawn(extra: list[str], deadline: float) -> dict:
    cmd = [sys.executable, os.path.join(BENCH_DIR, "child.py"), *extra]
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(
        [*cmd, "--t0", repr(t0)],
        cwd=ROOT,
        env=_child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=max(deadline - time.monotonic(), 1.0),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"benchmark process failed with exit code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    args = _args()
    if not os.path.isfile(os.path.join(ROOT, "src", "tailforge", "__init__.py")):
        print(f"no tailforge sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + BUDGET_S
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    cpu = max(os.sched_getaffinity(0))
    common = ["--workload", args.workload, "--seed", str(args.seed), "--cpu", str(cpu),
              "--workdir", workdir, "--trace", str(args.trace)]
    try:
        spans = os.path.join(OUT_DIR, f"{tag}-spans.npz")
        run = _spawn(common + (["--spans", spans] if args.trace else []), deadline)
        setups = [run]
        if not args.trace:
            for _ in range(SETUP_RUNS - 1):
                setups.append(_spawn(common + ["--setup-only"], deadline))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(run["ops"])
    failed = sum(op["error"] is not None for op in run["ops"])
    ops_per_s = attempted / run["ref_s"]
    if args.trace:
        metrics = {k: {"value": v, "unit": unit} for k, (v, unit) in run["layers"].items()}
        metrics["traced.ops_per_s"] = {"value": ops_per_s, "unit": "1/s"}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(s["setup_ref_s"] for s in setups), "unit": "s"},
            "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
            "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"},
        }
    result = {
        "correct": run["run_error"] is None,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "cpu": cpu, "setup_samples_s": [s["setup_s"] for s in setups],
              "setup_samples_ref_s": [s["setup_ref_s"] for s in setups],
              "ops_per_wall_s": attempted / run["timed_s"], **run, "result": result}
    with open(os.path.join(OUT_DIR, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for op in run["ops"]:
        mark = "FAIL" if op["error"] else "ok"
        print(f"{op['seconds']:9.4f}s  {mark:4s}  {op['name']}", file=sys.stderr)
        if op["error"]:
            print(f"           {op['error']}", file=sys.stderr)
    if run["run_error"]:
        print(f"run check failed: {run['run_error']}", file=sys.stderr)
    print(f"ops per wall second {record['ops_per_wall_s']:.4f}, per reference second "
          f"{ops_per_s:.4f}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
