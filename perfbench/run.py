"""spectralmix benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The package is imported from the
checkout's ``src``; nothing is installed. ``--trace 0`` measures the
end-to-end metrics; ``--trace 1`` is a separate run that pairs every
untraced operation with a traced one and reports the per-layer metrics.
The last line of standard output is one JSON object; the lines before it
are the same numbers for people, with units, sample counts and the
machine's facts. Any failed output check ends the run with exit code 3
and no result line. See README.md for what each workload and metric is.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep_pos", "sweep_neg", "fit_n4000", "file_gml")
SETUP_SAMPLES = 3     # fresh processes per run; setup_s is their median
DEADLINE_S = 170      # whole-run limit; children still alive then are killed
P90_MIN_SAMPLES = 100


class ChildFailed(RuntimeError):
    pass


def child(role, args, workdir, env, deadline):
    """Run one worker process; returns (seconds until READY, last stdout line)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", str(workdir)]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read().strip().splitlines()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or ready.strip() != "READY" or (role == "measure" and not rest):
        raise ChildFailed(f"{role} process exited with code {code}")
    return setup_s, rest[-1] if rest else None


def worker_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    threads = str(min(2, len(os.sched_getaffinity(0))))
    env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = threads
    return env


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, -(-q * len(ordered) // 100) - 1)]


def report_e2e(args, res, setup_times):
    """Human lines plus the end-to-end metrics for the JSON line."""
    times = res["op_s"]
    fits_ok = res["attempted"] - res["failed"]
    fits_per_s = fits_ok / sum(times)
    p50 = statistics.median(times)
    op_name = "fit_cli_s" if args.workload == "file_gml" else "sweep_s"
    lines = [
        f"  setup_s      {statistics.median(setup_times):.4f} s      "
        f"(median of {len(setup_times)} fresh processes: import, BLAS warm-up, inputs)",
        f"  fits_per_s   {fits_per_s:.4f} fits/s (completed fits over {sum(times):.2f} s of operations)",
        f"  {op_name}.p50  {p50:.4f} s      ({len(times)} samples; reported as op_s.p50)",
    ]
    if len(times) >= P90_MIN_SAMPLES:
        lines.append(f"  {op_name}.p90  {percentile(times, 90):.4f} s      ({len(times)} samples)")
    elif op_name == "fit_cli_s":
        lines.append(f"  fit_cli_s.p90  not reported: {len(times)} < {P90_MIN_SAMPLES} samples")
    for method, value in sorted(res["l1"].items(), reverse=True):
        lines.append(f"  l1_{method}       {value:.6f} L1 rate (mean over the first operations' fits)")
    lines += [
        f"  failed_frac  {res['failed'] / res['attempted']:.4f} ratio  "
        f"({res['failed']} of {res['attempted']} fits; {res['raised']} operations raised)",
        f"  peak_rss_mb  {res['peak_rss_mb']:.1f} MB",
    ]
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "fits_per_s": (fits_per_s, "fits/s"),
        "op_s.p50": (p50, "s"),
        "l1_scd": (res["l1"]["scd"], "rate"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    return lines, metrics


def report_layers(res):
    lines = [f"  {name:45s} {value:.6g} {unit}"
             for name, (value, unit) in sorted(res["layers"].items())]
    return lines, res["layers"]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "spectralmix" / "__init__.py").is_file():
        print(f"benchmark: no spectralmix package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    env = worker_env()
    (HERE / ".work").mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(dir=HERE / ".work"))
    try:
        setup_times = []
        if not args.trace:
            for k in range(SETUP_SAMPLES - 1):
                (scratch / f"setup{k}").mkdir()
                setup_times.append(child("setup", args, scratch / f"setup{k}", env, deadline)[0])
        (scratch / "run").mkdir()
        ready_s, line = child("measure", args, scratch / "run", env, deadline)
        setup_times.append(ready_s)
    except ChildFailed as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            (HERE / ".work").rmdir()
        except OSError:
            pass

    res = json.loads(line)
    lines, metrics = report_layers(res) if args.trace else report_e2e(args, res, setup_times)
    print(f"machine: {json.dumps(res['machine'])}")
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: {res['ops']} operations "
          f"in a closed loop from one process, {res['attempted']} fits attempted")
    print("\n".join(lines))
    print(json.dumps({
        "correct": True,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
