"""Record one point of the benchmark trajectory.

    python3 perfbench/record.py --label baseline --commit 27427bd --seeds 1-10

Runs ``run.py`` once per seed on every workload with tracing off, then
once per workload with tracing on (the first seed), and writes
``perfbench/trajectory/BENCH_<label>.json``: each end-to-end metric's
ten values, median, quartiles and spread (quartile distance over median),
the per-layer metrics of the traced runs, and the machine's facts. It
prints each spread next to the metric's bound. Run it from the root of a
checkout on an otherwise idle machine; runs are sequential.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(bench, workload, seed, trace):
    """(result line, machine facts) of one run, or (None, the failed check)."""
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        failure = next((line for line in proc.stderr.splitlines()
                        if line.startswith("check failed:")), proc.stderr.strip())
        return None, f"{' '.join(cmd)} exited with {proc.returncode}: {failure}"
    lines = proc.stdout.strip().splitlines()
    machine = next(json.loads(line.split(":", 1)[1]) for line in lines
                   if line.startswith("machine:"))
    return json.loads(lines[-1]), machine


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--commit", default="", help="the commit measured, for the record")
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--workloads", nargs="*", help="default: every workload")
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = args.workloads or [w["name"] for w in bench["workloads"]]

    record = {"label": args.label, "commit": args.commit, "seeds": args.seeds,
              "run_seconds": bench["run_seconds"], "workloads": {}}
    for name in names:
        runs = []
        for seed in args.seeds:
            result, facts = run_once(bench, name, seed, 0)
            if result is None:
                sys.exit(facts)
            record["machine"] = facts
            runs.append(result)
        metrics = {m: summarize([r["metrics"][m]["value"] for r in runs]) for m in bounds}
        traced, failure = run_once(bench, name, args.seeds[0], 1)
        record["workloads"][name] = {
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "end_to_end": metrics,
            # a failed traced run is recorded, not dropped: see README, Checks
            "per_layer": ({m: v["value"] for m, v in traced["metrics"].items()}
                          if traced else {"failed": failure}),
        }
        for m, s in metrics.items():
            print(f"{name:10s} {m:12s} median {s['median']:.6g}  spread {s['spread']:.4f}"
                  f"  (bound {bounds[m]})", flush=True)

    out = HERE / "trajectory" / f"BENCH_{args.label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {out.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
