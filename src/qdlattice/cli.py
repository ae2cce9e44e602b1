"""Command-line front end: pick an experiment, run it, emit a JSON report.

Exit code 0 when every check passes, 1 when a check fails, and 2 with a
one-line message on stderr when the configuration is rejected, the
experiment cannot run or its report cannot be written. The JSON file is
byte-reproducible for a fixed configuration and seed; wall time goes to
stderr only.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .experiments import EXPERIMENTS, run_experiment
from .reports import RunConfig, report_json, write_report


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="qdl",
        description="Exact checks of the quantum double model for finite abelian groups",
    )
    p.add_argument(
        "--experiment",
        required=False,
        choices=sorted(EXPERIMENTS),
        help="which check suite to run",
    )
    p.add_argument("--group", default="z2", help="group spec, e.g. z2, z3, z4, z2xz2")
    p.add_argument(
        "--lattice",
        default=None,
        help="lattice spec like 3x3:torus or 4x4:plane (experiment-specific default)",
    )
    p.add_argument("--tol", type=float, default=1e-9, help="check tolerance")
    p.add_argument("--seed", type=int, default=0, help="seed for randomized checks")
    p.add_argument("--out", default=None, help="report JSON path (stdout when omitted)")
    p.add_argument("--config", default=None, help="JSON file with the same fields")
    return p


def config_from_args(argv=None) -> RunConfig:
    parser = build_parser()
    args = parser.parse_args(argv)
    fields = {
        "experiment": args.experiment,
        "group": args.group,
        "lattice": args.lattice,
        "tol": args.tol,
        "seed": args.seed,
        "out": args.out,
    }
    if args.config:
        with open(args.config) as fh:
            file_fields = json.load(fh)
        if not isinstance(file_fields, dict):
            raise ValueError(f"config file {args.config} must hold a JSON object")
        unknown = set(file_fields) - set(fields)
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        for k, v in file_fields.items():
            if fields[k] in (None,) or k not in ("experiment",) and fields[k] == parser.get_default(k):
                fields[k] = v
    if not fields["experiment"]:
        raise ValueError("an experiment is required (flag --experiment or config file)")
    fields["lattice"] = fields["lattice"] or ""
    config = RunConfig(**fields)
    # refused before the run, not after it
    if config.out and os.path.isdir(config.out):
        raise ValueError(f"report path {config.out} is a directory")
    if config.out and not os.path.isdir(os.path.dirname(config.out) or "."):
        raise ValueError(f"report path {config.out}: no directory {os.path.dirname(config.out)}")
    return config


def main(argv=None) -> int:
    try:
        config = config_from_args(argv)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    t0 = time.time()
    try:
        report = run_experiment(config)
    except Exception as exc:
        print(f"error: {config.experiment}: {exc}", file=sys.stderr)
        return 2
    elapsed = time.time() - t0
    if config.out:
        try:
            write_report(report, config.out)
        except OSError as exc:
            print(f"error: cannot write the report: {exc}", file=sys.stderr)
            return 2
        print(f"report written to {config.out}", file=sys.stderr)
    else:
        sys.stdout.write(report_json(report))
    n_pass = sum(1 for c in report.checks if c.status == "pass")
    print(
        f"{config.experiment}: {n_pass}/{len(report.checks)} checks passed"
        f" in {elapsed:.1f}s ({config.group}, {config.lattice})",
        file=sys.stderr,
    )
    return 0 if report.all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
