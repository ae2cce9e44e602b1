"""Benchmark of the `qdl` command line, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A workload (perfbench/workloads.json) is a list of cells; a cell is one
experiment x group x lattice, run with `--seed N` in its own child process
(perfbench/cell.py). Cells run one at a time: a closed loop with one client,
the next cell starting when the previous child has exited. A pass runs every
cell of the workload once; passes repeat while another fits in S seconds,
and there are at least two.

Each child gets a 1 GiB address-space limit (RLIMIT_AS, set in the child
only), the workload's per-cell timeout, `QDL_THREADS` unset (the CLI
default, one worker) and one BLAS thread. A cell fails on a non-zero exit,
a signal, a timeout, a report that does not validate against
src/qdlattice/report_schema.json, `passed: false`, or report bytes that
differ from the first pass of the same cell and seed. A failed cell is
charged the full timeout in `run_s` and the memory cap in `peak_rss_mb`.

End-to-end metrics (`--trace 0`), over the untraced passes, with measured
times scaled to a host of fixed speed (REFERENCE_NOMINAL_S below):
  run_s          sum over cells of the median run time, from just before the
                 experiment starts to just after the report is written
  setup_s        median over cell runs of the time from spawn to just before
                 the experiment starts (interpreter, imports)
  peak_rss_mb    highest child peak RSS
  checks_passed  checks with status `pass` in one pass
`fail_ratio` (failed / attempted cells) is printed with them.

`--trace 1` alternates untraced and traced passes; traced children wrap
every layer from outside (perfbench/spans.py) and the per-layer metrics come
from their spans (wall seconds, not scaled), with the tracing overhead: the
scaled run_s of the traced passes against that of the untraced ones.

`--workload all` runs every workload once and prints each one's metrics.
The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CELL = os.path.join(HERE, "cell.py")
SCHEMA = os.path.join(ROOT, "src", "qdlattice", "report_schema.json")
# Every run takes a second pass (the traced one in trace mode), so that each
# cell has more than one sample, but only while the run is this young, so that
# a run whose first pass timed out still ends within its time limit.
SECOND_PASS_CUTOFF_S = 90.0
# The shared host this benchmark runs on changes speed by up to 2x within
# minutes, and import time, which no seed changes, moves with it. So every
# child times a fixed reference kernel (perfbench/cell.py) before and after
# the experiment, and its measured times are scaled to a host on which the
# kernel takes this long; over ten seeds this cut the spread of run_s from
# 0.13-0.22 to 0.02-0.11 of the median. Raw and scaled times are printed per
# cell.
REFERENCE_NOMINAL_S = 0.3

LAYERS = ("lattice", "states", "operators", "groundstate", "deform", "duality", "sectors", "experiments", "reports")
SELF_TIMED = (
    "states.from_terms",
    "states.inner",
    "states.gram_matrix",
    "operators.eval",
    "operators.apply",
    "operators.support_matrix",
    "operators.ops_equal",
    "operators.compose",
    "operators.canonical",
    "groundstate.expectation",
    "groundstate.flat_connections",
    "sectors.charge_moments",
    "sectors.s_matrix_entry",
    "sectors.braiding_phase",
    "duality.cone_subspace",
    "duality.self_adjoint_density_check",
    "duality.external_charge_orthogonality_check",
    "lattice.ribbon_between",
    "deform.sample_ribbon_pairs",
    "reports.report_json",
)
COUNTED = (
    "states.inner",
    "operators.apply",
    "operators.support_matrix",
    "operators.compose",
    "groundstate.expectation",
    "sectors.charge_moments",
    "lattice.ribbon_between",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(totals: dict) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced pass, from spans.summarize."""

    def get(key: str, field: str) -> float:
        return totals.get(key, {}).get(field, 0)

    m = {f"{name}.self_s": (get(name, "self_s"), "s") for name in SELF_TIMED}
    m.update({f"{name}.calls": (get(name, "calls"), "count") for name in COUNTED})
    m["states.from_terms.rows_in"] = (get("states.from_terms", "rows_in"), "count")
    m["states.from_terms.yield"] = (
        _ratio(get("states.from_terms", "rows_out"), get("states.from_terms", "rows_in")),
        "ratio",
    )
    m["operators.eval.rows"] = (get("operators.eval", "rows"), "count")
    m["operators.eval.alive_ratio"] = (
        _ratio(get("operators.eval", "alive"), get("operators.eval", "rows")),
        "ratio",
    )
    m["operators.support_matrix.rows"] = (get("operators.support_matrix", "rows"), "count")
    m["groundstate.flat_connections.rows"] = (get("groundstate.flat_connections", "rows"), "count")
    m["groundstate.flat_connections.rss_growth_mb"] = (
        get("groundstate.flat_connections", "rss_growth_mb"),
        "MB",
    )
    m["duality.cone_subspace.dim"] = (get("duality.cone_subspace", "dim"), "count")
    m["duality.cone_subspace.rss_growth_mb"] = (get("duality.cone_subspace", "rss_growth_mb"), "MB")
    m["deform.sample_ribbon_pairs.yield"] = (
        _ratio(get("deform.sample_ribbon_pairs", "produced"), get("deform.sample_ribbon_pairs", "requested")),
        "ratio",
    )
    for layer in LAYERS:
        m[f"{layer}.calls"] = (get(layer, "calls"), "count")
        m[f"{layer}.self_s"] = (get(layer, "self_s"), "s")
        m[f"{layer}.errors"] = (get(layer, "errors"), "count")
    return m


class Bench:
    """One benchmark invocation: the seed, the resource envelope, the child
    environment and a scratch directory inside the checkout."""

    def __init__(self, seed: int, seconds: int, cap_mb: int, work: str):
        import jsonschema

        with open(SCHEMA) as fh:
            self.validator = jsonschema.Draft202012Validator(json.load(fh))
        self.seed = seed
        self.seconds = seconds
        self.cap_mb = cap_mb
        self.work = work
        self.env = {k: v for k, v in os.environ.items() if k != "QDL_THREADS"}
        # One BLAS thread: by default OpenBLAS starts one spinning thread per
        # core, and on a shared 2-core host those threads contend with anything
        # else running, which tripled the spread of run_s on haag-check.
        self.env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        self.runs = 0

    def environment(self) -> dict:
        # Thread counts change run_s; PYTHONDONTWRITEBYTECODE makes every child
        # compile the package again, which shows in setup_s.
        recorded = ("QDL_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "PYTHONDONTWRITEBYTECODE")
        return {
            "seed": self.seed,
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": metadata.version("numpy"),
            "scipy": metadata.version("scipy"),
            "memory_cap_mb": self.cap_mb,
            "env": {k: self.env.get(k, "unset") for k in recorded},
        }

    def _limit(self) -> None:
        cap = self.cap_mb * 1024 * 1024
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    def run_cell(self, cell: dict, timeout: float, traced: bool) -> dict:
        self.runs += 1
        out = os.path.join(self.work, f"cell{self.runs}.json")
        spans = os.path.join(self.work, f"cell{self.runs}.spans")
        cell_id = f"{cell['experiment']}/{cell['group']}/{cell['lattice']}/seed{self.seed}"
        args = [sys.executable, CELL]
        if traced:
            args += ["--spans", spans, "--cell", cell_id]
        args += ["--", "--experiment", cell["experiment"], "--group", cell["group"]]
        args += ["--lattice", cell["lattice"], "--seed", str(self.seed), "--out", out]
        result = {"cell": cell_id, "traced": traced, "setup_s": None, "checks_passed": 0, "report": None}
        spawned = time.monotonic()
        with subprocess.Popen(
            args,
            cwd=ROOT,
            env=self.env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            preexec_fn=self._limit,
        ) as proc:
            try:
                stdout, stderr = proc.communicate(timeout=timeout)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                return self._failed(result, timeout, "timeout")
            except BaseException:
                proc.kill()
                proc.wait()
                raise
        if proc.returncode < 0:
            return self._failed(result, timeout, f"signal {-proc.returncode}")
        lines = stdout.decode(errors="replace").strip().splitlines()
        timing = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        if timing is not None:
            result["reference_s"] = timing["reference_s"]
            result["wall_setup_s"] = timing["reference_start"] - spawned
            result["setup_s"] = result["wall_setup_s"] * REFERENCE_NOMINAL_S / timing["reference_s"]
        if proc.returncode != 0 or timing is None:
            err = [ln for ln in stderr.decode(errors="replace").splitlines() if ln.strip()]
            return self._failed(result, timeout, f"exit {proc.returncode}: {err[-1][:160] if err else ''}")
        with open(out, "rb") as fh:
            raw = fh.read()
        result["report"] = raw
        try:
            report = json.loads(raw)
        except ValueError as exc:
            return self._failed(result, timeout, f"report is not JSON: {exc}")
        problems = [e.message for e in self.validator.iter_errors(report)]
        if problems:
            return self._failed(result, timeout, f"schema: {problems[0][:160]}")
        result["checks_passed"] = sum(c["status"] == "pass" for c in report["checks"])
        if report["passed"] is not True:
            return self._failed(result, timeout, "report says passed: false")
        wall_run_s = timing["end"] - timing["start"]
        result.update(
            ok=True,
            reason="",
            wall_run_s=wall_run_s,
            run_s=wall_run_s * REFERENCE_NOMINAL_S / timing["reference_s"],
            rss_mb=timing["maxrss_mb"],
        )
        if traced:
            result["spans"] = spans
        return result

    def _failed(self, result: dict, timeout: float, reason: str) -> dict:
        result.update(ok=False, reason=reason, run_s=float(timeout), rss_mb=float(self.cap_mb))
        return result

    def run_workload(self, name: str, spec: dict, trace: bool) -> tuple[dict, list[list[dict]]]:
        """Passes of the workload's cells; returns the metrics and the passes."""
        passes: list[list[dict]] = []
        begin = time.monotonic()
        while True:
            traced = trace and len(passes) % 2 == 1
            passes.append([self.run_cell(cell, spec["timeout_s"], traced) for cell in spec["cells"]])
            for res in passes[-1]:
                state = "ok" if res["ok"] else f"FAIL ({res['reason']})"
                wall = f" (wall {res['wall_run_s']:.3f} s)" if res["ok"] else ""
                setup = "-" if res["setup_s"] is None else f"{res['setup_s']:.3f} s (wall {res['wall_setup_s']:.3f} s)"
                ref = "-" if res["setup_s"] is None else f"{res['reference_s']:.4f} s"
                print(
                    f"{name} pass {len(passes)}{' traced' if traced else ''} {res['cell']}:"
                    f" run {res['run_s']:.3f} s{wall}, setup {setup}, reference {ref},"
                    f" rss {res['rss_mb']:.1f} MB, {res['checks_passed']} checks passed, {state}"
                )
            elapsed = time.monotonic() - begin
            wants_second = len(passes) == 1 and elapsed < SECOND_PASS_CUTOFF_S
            # Stop before a pass that would likely overrun S seconds, so that a
            # run of a workload with long passes stays near S.
            if elapsed + elapsed / len(passes) > self.seconds and not wants_second:
                break
        for i in range(len(spec["cells"])):
            first = next((p[i]["report"] for p in passes if p[i]["report"] is not None), None)
            for p in passes:
                res = p[i]
                if res["ok"] and res["report"] != first:
                    self._failed(res, spec["timeout_s"], "report bytes differ between passes")
                    print(f"{name} {res['cell']}: FAIL (report bytes differ between passes)")
        return self._metrics(passes, trace, spec["timeout_s"]), passes

    @staticmethod
    def _run_s(passes: list[list[dict]]) -> float:
        return sum(statistics.median(p[i]["run_s"] for p in passes) for i in range(len(passes[0])))

    def _metrics(self, passes: list[list[dict]], trace: bool, timeout: float) -> dict:
        plain = [p for p in passes if not p[0]["traced"]]
        every = [res for p in passes for res in p]
        setups = [res["setup_s"] for p in plain for res in p if res["setup_s"] is not None]
        metrics = {
            "run_s": (self._run_s(plain), "s"),
            "setup_s": (statistics.median(setups) if setups else float(timeout), "s"),
            "peak_rss_mb": (max(res["rss_mb"] for p in plain for res in p), "MB"),
            "checks_passed": (sum(res["checks_passed"] for res in plain[0]), "count"),
        }
        failed = sum(not res["ok"] for res in every)
        summary = {"attempted": len(every), "failed": failed, "fail_ratio": failed / len(every)}
        if trace:
            metrics = self._trace_metrics(passes, metrics["run_s"][0])
        return {"metrics": metrics, **summary}

    @staticmethod
    def _trace_metrics(passes: list[list[dict]], untraced_run_s: float) -> dict:
        import spans

        traced = [p for p in passes if p[0]["traced"]]
        per_pass = [
            layer_metrics(spans.summarize(res["spans"] for res in p if res.get("spans"))) for p in traced
        ]
        if not per_pass:
            per_pass = [layer_metrics({})]
        metrics = {
            key: (statistics.median(m[key][0] for m in per_pass), unit) for key, (_, unit) in per_pass[0].items()
        }
        traced_run_s = Bench._run_s(traced) if traced else 0.0
        metrics["trace.run_s"] = (traced_run_s, "s")
        metrics["trace.untraced_run_s"] = (untraced_run_s, "s")
        metrics["trace.overhead_ratio"] = (_ratio(traced_run_s, untraced_run_s), "ratio")
        return metrics


def print_metrics(workload: str, result: dict) -> None:
    for key, (value, unit) in result["metrics"].items():
        print(f"{workload}: {key} = {value:.6g} {unit}")
    print(f"{workload}: fail_ratio = {result['fail_ratio']:.6g} ({result['failed']}/{result['attempted']} cells)")


def print_span_table(workload: str, passes: list[list[dict]]) -> None:
    """Every wrapped function of the last traced pass, by self time."""
    import spans

    traced = [p for p in passes if p[0]["traced"]]
    if not traced:
        return
    totals = spans.summarize(res["spans"] for res in traced[-1] if res.get("spans"))
    rows = sorted(((k, v) for k, v in totals.items() if "." in k), key=lambda kv: -kv[1]["self_s"])
    for key, t in rows:
        print(f"{workload} span {key}: calls {t['calls']}, incl {t['incl_s']:.4f} s, self {t['self_s']:.4f} s, errors {t['errors']}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "qdlattice", "__init__.py")) or not os.path.isfile(SCHEMA):
        print(f"error: no qdlattice source tree under {ROOT}", file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "workloads.json")) as fh:
        matrix = json.load(fh)
    names = list(matrix["workloads"]) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in matrix["workloads"]]
    if unknown:
        print(f"error: unknown workload {unknown[0]!r}; choose from {sorted(matrix['workloads'])} or all", file=sys.stderr)
        return 2
    # Turn SIGTERM into SystemExit, so that the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.path.insert(0, HERE)
    work = os.path.join(ROOT, ".bench_build", f"perfbench-{os.getpid()}")
    os.makedirs(work)
    try:
        bench = Bench(args.seed, args.seconds, matrix["memory_cap_mb"], work)
        print("environment: " + json.dumps(bench.environment(), sort_keys=True))
        results = {}
        for name in names:
            spec = matrix["workloads"][name]
            for cell in spec["cells"]:
                print(
                    f"{name} cell {cell['experiment']} {cell['group']} {cell['lattice']}:"
                    f" |G| {cell['group_order']}, {cell['edges']} edges, {cell['omega_rows']} omega rows"
                )
            results[name], passes = bench.run_workload(name, spec, bool(args.trace))
            if args.trace:
                print_span_table(name, passes)
            print_metrics(name, results[name])
    finally:
        shutil.rmtree(work, ignore_errors=True)
    prefix = args.workload == "all"
    metrics = {
        (f"{name}.{key}" if prefix else key): {"value": value, "unit": unit}
        for name, res in results.items()
        for key, (value, unit) in res["metrics"].items()
    }
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
