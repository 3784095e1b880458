"""One benchmark process: set-up, then (unless --setup-only) the timed phase.

Started by run.py with the clock reading taken just before the spawn, so
the set-up time runs from process start to the end of set-up.  Times are
also reported at reference host speed (see ``_probe``).  Prints one JSON
object on its last stdout line.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback

_T_START = time.clock_gettime(time.CLOCK_MONOTONIC)
# Typical time of each speed probe on the reference host (README.md).
# Fixed once: changing one rescales every setup_s or ops_per_s it enters.
REF_PROBE_S = {"interpreter": 0.0055, "convolution": 0.0125}


def _args() -> argparse.Namespace:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--cpu", type=int, required=True)
    p.add_argument("--t0", type=float, default=_T_START)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--workdir", required=True)
    p.add_argument("--spans", default=None)
    return p.parse_args()


def _probe() -> dict[str, float]:
    """Seconds two fixed probes take now: the host's current speed.

    The reference host's speed swings by +-25 % over seconds to minutes, and
    code of different kinds swings differently.  The ``interpreter`` probe
    (a Python loop plus 15-point numpy calls) follows quadrature panels,
    scalar inverses and set-up; the ``convolution`` probe (one 8000-point
    ``np.convolve``) follows the staircase brackets.  The probes run after
    set-up and after every op; the round's time is rescaled by the median of
    its workload's probe over the run, and set-up by the median of the
    interpreter probes right after it.  The probes do not touch tailforge,
    so no change to the package can move them.
    """
    import numpy as np

    t = time.perf_counter()
    x = 0.0
    for j in range(60_000):
        x += j * 0.5
    v = np.linspace(0.1, 2.0, 15)
    for _ in range(200):
        v = np.log1p(np.exp(-v))
    t_interp = time.perf_counter() - t
    a = np.linspace(0.0, 1.0, 8000)
    t = time.perf_counter()
    np.convolve(a, a[::-1])
    return {"interpreter": t_interp, "convolution": time.perf_counter() - t}


def main() -> int:
    args = _args()
    os.sched_setaffinity(0, {args.cpu})
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("TAILFORGE_CACHE_DIR", None)

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import tailforge

    if not os.path.abspath(tailforge.__file__).startswith(src + os.sep):
        raise SystemExit(f"tailforge imported from {tailforge.__file__}, not from {src}")

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.t0
    probes = [_probe() for _ in range(3)]
    setup_ref_s = setup_s * REF_PROBE_S["interpreter"] / statistics.median(
        p["interpreter"] for p in probes)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_ref_s": setup_ref_s}))
        return 0

    results, seconds, raised = [], [], []
    for op in workload.ops:
        t = time.perf_counter()
        try:
            results.append(op.run())
            raised.append(None)
        except Exception:  # an op that raises counts as failed; the run goes on
            results.append(None)
            raised.append(traceback.format_exc(limit=-3))
        seconds.append(time.perf_counter() - t)
        probes.append(_probe())
    # The round's time at reference speed.  The median over the run's probes
    # follows the host's slow drift and ignores a probe hit by a transient.
    kind = workload.probe
    ref_s = sum(seconds) * REF_PROBE_S[kind] / statistics.median(p[kind] for p in probes)

    ops = []
    for op, res, sec, exc in zip(workload.ops, results, seconds, raised):
        ops.append({"name": op.name, "seconds": sec, "error": exc or op.check(res)})
    out = {
        "setup_s": setup_s,
        "setup_ref_s": setup_ref_s,
        "timed_s": sum(seconds),
        "ref_s": ref_s,
        "probe_s": probes,
        "ops": ops,
        "run_error": None if any(raised) else workload.check_all(results),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        out["layers"] = {k: [v, unit] for k, (v, unit) in tracer.metrics().items()}
        out["layer_self_s"] = tracer.layer_self_times()
        if args.spans:
            tracer.save(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
