"""One benchmark process: set up a workload, then (``--role measure``) run
its closed loop and print one JSON result line.

``run.py`` starts this file with ``PYTHONPATH`` pointing at the checkout's
``src`` and the BLAS thread count fixed in the environment; it prints
``READY`` as soon as set-up is done, which is where set-up time stops.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback

import numpy as np
import scipy

import spans
import workloads

SELF_SUM_GAP = 0.05


def blas_facts():
    """Every OpenBLAS loaded into this process: file, version and threads."""
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line})
    facts = []
    for path in libs:
        lib = ctypes.CDLL(path)
        entry = {"library": os.path.basename(path)}
        for suffix in ("64_", ""):
            for prefix in ("scipy_openblas", "openblas"):
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if get_threads is not None and get_config is not None:
                    get_config.restype = ctypes.c_char_p
                    entry["config"] = get_config().decode()
                    entry["threads"] = int(get_threads())
                    break
            if "threads" in entry:
                break
        facts.append(entry)
    return facts


def machine_facts():
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total_mb": round(os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**20),
        "blas": blas_facts(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }


def set_up(name, seed, workdir, size="full"):
    """Everything a fresh process does before its first operation."""
    np.linalg.eigh(np.eye(8) + np.ones((8, 8)))  # the first BLAS call loads its kernels
    wl = workloads.make(name, seed, size)
    wl.setup(workdir)
    return wl


def check_l1(l1):
    for method, values in l1.items():
        value = statistics.fmean(values) if values else math.nan
        if not (math.isfinite(value) and 0.0 <= value <= 2.0):
            raise spans.CheckFailed("l1_range", f"l1_{method} = {value!r} is not in [0, 2]")


class Run:
    """Totals of one closed loop."""

    def __init__(self, wl):
        self.wl = wl
        self.times = []
        self.fits = self.failed = self.raised = 0
        self.l1 = {}

    def op(self, i, call=None):
        """Run operation ``i`` (through ``call`` when given); returns
        (seconds, outcome or None when it raised)."""
        t0 = time.perf_counter()
        try:
            raw = call(lambda: self.wl.run(i)) if call else self.wl.run(i)
        except spans.CheckFailed:
            raise
        except Exception:
            traceback.print_exc()
            return time.perf_counter() - t0, None
        dt = time.perf_counter() - t0
        return dt, self.wl.outcome(raw)

    def record(self, i, dt, out):
        self.times.append(dt)
        if out is None:
            self.raised += 1
            return
        self.fits += out.fits
        self.failed += out.failed
        if i < workloads.L1_OPS[self.wl.name]:
            for method, values in out.l1.items():
                self.l1.setdefault(method, []).extend(values)

    def totals(self):
        check_l1(self.l1)
        fits_per_op = self.fits / max(1, len(self.times) - self.raised)
        attempted = self.fits + round(self.raised * fits_per_op)
        return attempted, self.failed + round(self.raised * fits_per_op)


def measure(wl, seconds, trace):
    """The closed loop: untraced operations, or untraced/traced pairs."""
    run = Run(wl)
    tracer = spans.Tracer()
    traced_s = 0.0
    # an untraced run always completes the operations its L1 metrics need
    min_ops = 1 if trace else workloads.L1_OPS[wl.name]
    wl.warm_up()
    start = time.perf_counter()
    i = 0
    while i < min_ops or time.perf_counter() - start < seconds:
        if trace and i % 2:
            # alternate which side of a pair runs first, so that neither
            # gains from the other having just run
            with tracer:
                dt_traced, out_traced = run.op(i, tracer.operation)
        dt, out = run.op(i)
        run.record(i, dt, out)
        if trace and not i % 2:
            with tracer:
                dt_traced, out_traced = run.op(i, tracer.operation)
        if trace:
            traced_s += dt_traced
            if (out is None) != (out_traced is None):
                raise spans.CheckFailed("traced_identical", f"operation {i} raised on one side only")
            if out is not None and out.fingerprint != out_traced.fingerprint:
                raise spans.CheckFailed(
                    "traced_identical", f"operation {i}: traced outputs differ from untraced")
        i += 1
    attempted, failed = run.totals()
    result = {"attempted": attempted, "failed": failed, "ops": len(run.times),
              "raised": run.raised}
    if trace:
        result["layers"] = spans.layer_metrics(tracer.spans, len(run.times),
                                               sum(run.times), traced_s)
        # the operation's own self time: benchmark glue outside any package
        # call, as a share of the untraced time (a few 1e-4 at full size)
        gap = result["layers"]["trace.overhead_frac"][0] - result["layers"]["trace.self_sum_frac"][0]
        if not -1e-9 <= gap <= SELF_SUM_GAP:
            raise spans.CheckFailed("self_time_sum", f"op self time is {gap:.3g} of untraced time")
    else:
        result["op_s"] = run.times
        result["l1"] = {m: statistics.fmean(v) for m, v in run.l1.items()}
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return result


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--role", choices=("setup", "measure"), required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)
    try:
        wl = set_up(args.workload, args.seed, args.workdir)
        print("READY", flush=True)
        if args.role == "measure":
            result = measure(wl, args.seconds, args.trace)
            result["machine"] = machine_facts()
            print(json.dumps(result), flush=True)
    except spans.CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
