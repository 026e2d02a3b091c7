"""Command-line front end.

Subcommands:
  simulate  run a sweep from a JSON config, writing CSV + JSON summaries
  setup     run one of the four canned demonstration set-ups
  fit       fit a network file and write per-node community output
  scree     print the leading singular values and the suggested K
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from . import estimators, harness, netio


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)


def _cmd_simulate(args):
    cfg = harness.ExperimentConfig.from_json(Path(args.config).read_text(encoding="utf-8"))
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, master_seed=args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    def progress(rho, means):
        line = " ".join(f"{m}={v:.4f}" for m, v in means.items())
        print(f"rho={rho:g}: {line}", flush=True)

    sweep = harness.run_sweep(cfg, progress=progress)
    sweep.write_csv(out / "sweep.csv")
    _write_json(out / "summary.json", sweep.summary())
    for rho, reason in sweep.invalid.items():
        print(f"skipped rho={rho:g}: {reason}")
    print(f"wrote {out / 'sweep.csv'} and {out / 'summary.json'}")
    return 0


def _cmd_setup(args):
    errors = harness.run_setup_replicates(args.id, reps=args.reps,
                                          master_seed=args.seed)
    payload = {}
    for method, errs in errors.items():
        payload[method] = {
            "mean": float(np.mean(errs)),
            "std": float(np.std(errs)),
            "errors": [float(e) for e in errs],
        }
        print(f"setup {args.id} {method}: mean error {np.mean(errs):.4f} "
              f"(std {np.std(errs):.4f}, {len(errs)} draws)")
    if args.out:
        Path(args.out).mkdir(parents=True, exist_ok=True)
        _write_json(Path(args.out) / f"setup{args.id}.json", payload)
    return 0


def _load(args):
    return netio.load_edge_list(args.file, format=args.format, symmetrize=args.symmetrize,
                                largest_component=args.largest_component,
                                unweighted=args.unweighted)


def _cmd_fit(args):
    network = _load(args)
    if args.labels is not None:
        network.labels = netio.load_labels(args.labels, network.ids)
    report = netio.fit_network(network, args.k, method=args.method, seed=args.seed)
    summary = report.summary()
    print(json.dumps(summary, indent=2))
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        report.write_csv(out / "memberships.csv")
        scree = netio.scree_report(network.adjacency)
        summary["scree"] = {"singular_values": scree.singular_values.tolist(),
                            "suggested_k": scree.suggested_k}
        _write_json(out / "summary.json", summary)
        print(f"wrote {out / 'memberships.csv'} and {out / 'summary.json'}")
    return 0


def _cmd_scree(args):
    report = netio.scree_report(_load(args).adjacency, m=args.top)
    for k, s in enumerate(report.singular_values, 1):
        print(f"{k:3d}  {s:.6g}")
    print(f"suggested K = {report.suggested_k}")
    return 0


def _add_io_options(sub):
    sub.add_argument("--format", default="whitespace_triplets", choices=netio.FORMATS)
    sub.add_argument("--symmetrize", default="strict", choices=netio.SYMMETRIZE)
    sub.add_argument("--largest-component", action="store_true")
    sub.add_argument("--unweighted", action="store_true")


def main(argv=None):
    parser = argparse.ArgumentParser(prog="spectralmix",
                                     description="Mixed-membership community detection "
                                                 "in weighted networks")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run a sweep from a JSON config")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--out", default="out")
    p_sim.add_argument("--seed", type=int, default=None)
    p_sim.set_defaults(func=_cmd_simulate)

    p_setup = sub.add_parser("setup", help="run a canned demonstration set-up")
    p_setup.add_argument("--id", type=int, required=True, choices=sorted(harness.SETUP_PARAMS))
    p_setup.add_argument("--reps", type=int, default=harness.DEFAULT_REPLICATES)
    p_setup.add_argument("--seed", type=int, default=0)
    p_setup.add_argument("--out", default=None)
    p_setup.set_defaults(func=_cmd_setup)

    p_fit = sub.add_parser("fit", help="fit a network file")
    p_fit.add_argument("--file", required=True)
    p_fit.add_argument("--k", type=int, required=True)
    p_fit.add_argument("--method", default="scd", choices=tuple(estimators.ESTIMATORS))
    p_fit.add_argument("--seed", type=int, default=0)
    p_fit.add_argument("--labels", default=None)
    p_fit.add_argument("--out", default=None)
    _add_io_options(p_fit)
    p_fit.set_defaults(func=_cmd_fit)

    p_scree = sub.add_parser("scree", help="singular values and suggested K")
    p_scree.add_argument("--file", required=True)
    p_scree.add_argument("--top", type=int, default=netio.SCREE_TOP)
    _add_io_options(p_scree)
    p_scree.set_defaults(func=_cmd_scree)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, estimators.EstimationError) as exc:  # bad input, bad file, no fit
        parser.exit(2, f"{parser.prog}: error: {exc}\n")


if __name__ == "__main__":
    sys.exit(main())
