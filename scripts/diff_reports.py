"""Compare the reports of two checkouts of this repository, byte for byte.

    python3 scripts/diff_reports.py OLD NEW [--experiments E ...] [--groups G ...] [--seeds S ...] [--lattice SPEC]

OLD and NEW are checkout roots. Every cell (experiment x group x seed, at the
experiment's default lattice, or at SPEC for every cell with `--lattice`)
runs once per checkout as
`python -m qdlattice ... --out DIR/r.json` with that checkout's `src` on
PYTHONPATH, in a fresh directory. The script prints each cell whose exit
code, `error:` line, JSON report or CSV tables differ, then one summary
line, and exits 1 when anything differs. Every cell's line ends with its
wall time in each checkout, old -> new, so one sweep also shows which cells
got slower. The defaults are the nine
experiments x z2, z3, z4, z2xz2 x seeds 0 and 1: 72 cells.
"""

from __future__ import annotations

import argparse
import itertools
import os
import subprocess
import sys
import tempfile
import time

TIMEOUT_S = 600  # per run; a run that takes longer is reported as "timeout"
EXPERIMENTS = ("verify", "groundstate", "deform", "braid", "smatrix", "fusion", "sectors", "haag-check", "split-check")


def run_cell(root: str, experiment: str, group: str, seed: int, lattice: str | None = None) -> tuple[dict[str, object], float]:
    """Exit code, error line and written files of one `qdl` run from `root`,
    at `lattice` when given, else at the experiment's default, and the run's
    wall time in seconds."""
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(root), "src"), OPENBLAS_NUM_THREADS="1")
    with tempfile.TemporaryDirectory() as out:
        argv = ["--experiment", experiment, "--group", group, "--seed", str(seed), "--out", os.path.join(out, "r.json")]
        if lattice:
            argv += ["--lattice", lattice]
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "qdlattice", *argv], cwd=out, env=env, capture_output=True, text=True, timeout=TIMEOUT_S
            )
            code: object = proc.returncode
            errors = [line for line in proc.stderr.splitlines() if line.startswith("error:")]
        except subprocess.TimeoutExpired:
            code, errors = "timeout", []
        wall = time.perf_counter() - t0
        files = {}
        for name in sorted(os.listdir(out)):
            with open(os.path.join(out, name), "rb") as fh:
                files[name] = fh.read()
    return {"exit code": code, "error line": errors, **files}, wall


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("old")
    p.add_argument("new")
    p.add_argument("--experiments", nargs="+", default=list(EXPERIMENTS))
    p.add_argument("--groups", nargs="+", default=["z2", "z3", "z4", "z2xz2"])
    p.add_argument("--seeds", nargs="+", type=int, default=[0, 1])
    p.add_argument("--lattice", metavar="SPEC", help="run every cell on this lattice, e.g. 12x12:plane")
    args = p.parse_args(argv)
    cells = list(itertools.product(args.experiments, args.groups, args.seeds))
    differing = 0
    for experiment, group, seed in cells:
        (old, t_old), (new, t_new) = (run_cell(root, experiment, group, seed, args.lattice) for root in (args.old, args.new))
        keys = [k for k in dict.fromkeys([*old, *new]) if old.get(k) != new.get(k)]
        times = f"[{t_old:.2f} s -> {t_new:.2f} s]"
        for key in keys:
            print(f"{experiment} {group} seed {seed}: {key} differs: {old.get(key, 'missing')!r:.200} -> {new.get(key, 'missing')!r:.200} {times}")
        differing += bool(keys)
        if not keys:
            print(f"{experiment} {group} seed {seed}: identical (exit {old['exit code']}, {len(old) - 2} files) {times}")
    print(f"{differing} of {len(cells)} cells differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
