import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import pytest

from qdlattice.cli import main
from qdlattice.experiments import EXPERIMENTS
from qdlattice.reports import Report, RunConfig, report_json

SCHEMA = Path(__file__).resolve().parent.parent / "src" / "qdlattice" / "report_schema.json"


def run_cli(args):
    return main(args)


def schema_errors(data):
    """Violations of the published report schema (empty when valid)."""
    schema = json.loads(SCHEMA.read_text())
    return list(jsonschema.Draft202012Validator(schema).iter_errors(data))


def test_groundstate_run_and_schema(tmp_path):
    out = tmp_path / "report.json"
    code = run_cli(
        [
            "--experiment",
            "groundstate",
            "--group",
            "z2",
            "--lattice",
            "2x2:plane",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    data = json.loads(out.read_text())
    assert schema_errors(data) == []
    assert data["passed"] is True
    assert all(c["law"] for c in data["checks"])


def test_reports_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        code = run_cli(
            [
                "--experiment",
                "deform",
                "--group",
                "z2",
                "--lattice",
                "3x3:plane",
                "--seed",
                "11",
                "--out",
                str(out),
            ]
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_seed_changes_details_not_validity(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for seed, out in [(1, a), (2, b)]:
        assert (
            run_cli(
                [
                    "--experiment",
                    "deform",
                    "--group",
                    "z2",
                    "--lattice",
                    "3x3:plane",
                    "--seed",
                    str(seed),
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
    da, db = json.loads(a.read_text()), json.loads(b.read_text())
    assert da["passed"] and db["passed"]
    assert da["config"]["seed"] != db["config"]["seed"]


def test_csv_export(tmp_path):
    out = tmp_path / "smx.json"
    code = run_cli(
        ["--experiment", "smatrix", "--group", "z2", "--out", str(out)]
    )
    assert code == 0
    csvs = sorted(p.name for p in tmp_path.iterdir() if p.suffix == ".csv")
    assert csvs == ["smx.smatrix.csv", "smx.smatrix_normalized.csv"]
    header = (tmp_path / "smx.smatrix.csv").read_text().splitlines()[0]
    assert header == "row,col,re,im"


def test_out_file_matches_stdout_and_report_is_serialized_once(tmp_path, capsys, monkeypatch):
    """--out writes the bytes the CLI prints without it, and each run
    serializes its report once."""
    from qdlattice import cli, reports

    calls = []

    def counted(report, *rounded):
        calls.append(report)
        return report_json(report, *rounded)

    monkeypatch.setattr(cli, "report_json", counted)
    monkeypatch.setattr(reports, "report_json", counted)
    args = ["--experiment", "braid", "--group", "z2"]
    assert run_cli(args) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "r.json"
    assert run_cli(args + ["--out", str(out)]) == 0
    assert out.read_text() == printed
    assert len(calls) == 2


def test_unknown_experiment_rejected(capsys):
    with pytest.raises(SystemExit):
        run_cli(["--experiment", "nonsense"])


def test_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps({"experiment": "groundstate", "group": "z3", "lattice": "2x2:plane"})
    )
    assert run_cli(["--config", str(cfg)]) == 0
    # the removed ribbon-length option is an unknown field now
    cfg.write_text(json.dumps({"experiment": "groundstate", "cap": 6}))
    assert run_cli(["--config", str(cfg)]) == 2
    assert "unknown config fields: ['cap']" in capsys.readouterr().err
    # a file that is no JSON object, and non-string fields: refused before
    # the run, and the integer `out` is not taken as a file descriptor
    for content, message in [
        ("5", "must hold a JSON object"),
        ("null", "must hold a JSON object"),
        ('{"experiment": "braid", "out": 7}', "out must be a string, got 7"),
        ('{"experiment": ["braid"]}', "experiment must be a string"),
        ('{"experiment": "braid", "group": 2}', "group must be a string, got 2"),
        ('{"experiment": "braid", "lattice": ["3x3"]}', "lattice must be a string"),
    ]:
        cfg.write_text(content)
        assert run_cli(["--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and err.count("\n") == 1
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


def test_malformed_specs_error(capsys):
    assert run_cli(["--experiment", "groundstate", "--group", "z1"]) == 2
    assert capsys.readouterr().err.startswith("error: groundstate: ")
    assert run_cli(["--experiment", "groundstate", "--lattice", "0x0:plane"]) == 2
    assert capsys.readouterr().err.startswith("error: groundstate: ")


def test_report_validation_catches_problems():
    rep = Report("demo", RunConfig("demo").__dict__.copy())
    rep.add("ok", "plumbing", True, 0.0)
    valid = json.loads(report_json(rep))
    assert schema_errors(valid) == []
    data = json.loads(report_json(rep))
    data["checks"][0].pop("law")
    assert schema_errors(data)
    data = json.loads(report_json(rep))
    data["checks"][0]["max_error"] = -1.0
    assert schema_errors(data)
    data = json.loads(report_json(rep))
    data["wall_time"] = 1.0
    assert schema_errors(data)


def test_published_schema_validates_reports(tmp_path):
    out = tmp_path / "r.json"
    for exp, grp in [("groundstate", "z2"), ("smatrix", "z2"), ("deform", "z2")]:
        args = ["--experiment", exp, "--group", grp, "--out", str(out)]
        if exp in ("groundstate", "deform"):
            args += ["--lattice", "3x3:plane"]
        assert run_cli(args) == 0
        assert schema_errors(json.loads(out.read_text())) == []


@pytest.mark.parametrize(
    "flag,value,message",
    [
        ("--tol", "-1", "tolerance must be positive"),
        ("--out", "{tmp}/missing/r.json", "no directory"),
        ("--out", "{tmp}", "is a directory"),
    ],
)
def test_rejected_config_exits_2_with_one_line(tmp_path, capsys, flag, value, message):
    args = ["--experiment", "braid", flag, value.format(tmp=tmp_path)]
    if flag != "--out":
        args += ["--out", str(tmp_path / "r.json")]
    assert run_cli(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert err.count("\n") == 1
    assert not any(tmp_path.iterdir())


def test_unwritable_table_exits_2_without_a_report(tmp_path, capsys):
    """A report whose CSV table cannot be written: exit 2 with one line, the
    JSON report, written last, is not written, and no table written before
    the failing one remains (smatrix writes its raw table first)."""
    for experiment, blocked in [("fusion", "fusion"), ("smatrix", "smatrix_normalized")]:
        out = tmp_path / experiment
        (out / f"r.{blocked}.csv").mkdir(parents=True)
        assert run_cli(["--experiment", experiment, "--out", str(out / "r.json")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write the report: ") and err.count("\n") == 1
        assert sorted(p.name for p in out.iterdir()) == [f"r.{blocked}.csv"]
        assert (out / f"r.{blocked}.csv").is_dir()


@pytest.mark.parametrize(
    "args",
    [
        ["--experiment", "groundstate", "--group", "z16", "--lattice", "3x3:plane"],
        ["--experiment", "haag-check", "--lattice", "12x12:plane"],
        ["--experiment", "smatrix", "--group", "z257"],
    ],
)
def test_oversized_inputs_exit_2_with_one_line(capsys, args):
    from qdlattice.groups import GroupError, parse_group

    # z257 must be refused while parsing, before any table is allocated
    with pytest.raises(GroupError):
        parse_group("z257")
    assert run_cli(args) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {args[1]}: ") and err.count("\n") == 1
    if args[1] == "haag-check":
        # the cone's counts take no cap; the boundary ribbons' search stops at its node cap
        assert err.endswith("-node cap\n"), err
    else:
        assert "above the cap" in err or "at most 255" in err


@pytest.mark.parametrize("spec", ["2x2:plane", "2x3:plane", "3x2:plane", "2x2:torus", "2x3:torus"])
@pytest.mark.parametrize("experiment", sorted(EXPERIMENTS))
def test_smallest_patches_end_in_a_report_or_one_line(tmp_path, capsys, experiment, spec):
    """On the smallest patches every experiment either reports (exit 0 or 1,
    schema-valid) or refuses with exit 2 and one line that names why."""
    out = tmp_path / "r.json"
    code = run_cli(["--experiment", experiment, "--lattice", spec, "--out", str(out)])
    err = capsys.readouterr().err
    if code == 2:
        prefix = f"error: {experiment}:"
        assert err.startswith(prefix) and err.count("\n") == 1
        assert err[len(prefix) :].strip()
        assert not out.exists()
    else:
        assert code in (0, 1)
        assert schema_errors(json.loads(out.read_text())) == []


def test_braid_refuses_a_patch_too_small_for_the_crossing_pair(capsys):
    """braid z2 on every plane and torus from 2x2 to 8x8: the crossing pair
    fits on planes of at least 7x7 and tori of at least 3x3, where braid
    passes, and everywhere else it exits 2 with one line naming the minimum."""
    for boundary, side in (("plane", 7), ("torus", 3)):
        kind = "plane patch" if boundary == "plane" else boundary
        for w, h in itertools.product(range(2, 9), repeat=2):
            code = run_cli(["--experiment", "braid", "--lattice", f"{w}x{h}:{boundary}"])
            err = capsys.readouterr().err
            if min(w, h) >= side:
                assert code == 0, (w, h, boundary, err)
            else:
                assert code == 2
                assert err == f"error: braid: the crossing pair needs a {kind} of at least {side}x{side}, not {w}x{h}\n"


@pytest.mark.parametrize("group", ["z2", "z4"])
def test_deform_runs_where_omega_would_be_above_the_cap(tmp_path, group):
    """deform builds no ground state: on the 5x5 plane Ω would have 2^24
    (z2) or 2^48 (z4) rows, above FLAT_ROWS_CAP, and the run still passes."""
    out = tmp_path / "r.json"
    args = ["--experiment", "deform", "--group", group, "--lattice", "5x5:plane", "--out", str(out)]
    assert run_cli(args) == 0
    data = json.loads(out.read_text())
    assert data["passed"] is True
    assert [c["status"] for c in data["checks"]] == ["pass"] * 3


@pytest.mark.parametrize("group,lattice", [("z2", "12x12:plane"), ("z4", "6x6:plane")])
def test_groundstate_runs_on_planes_whose_flat_group_is_never_listed(tmp_path, group, lattice):
    """The plane support check counts the gradients, |G|^(V - c), and the
    expectations solve each delta system: no flat connection or potential
    row is enumerated, so 2^143 (z2, 12x12) and 4^35 (z4, 6x6) flat
    connections pass every check within seconds."""
    out = tmp_path / "r.json"
    start = time.perf_counter()
    assert run_cli(["--experiment", "groundstate", "--group", group, "--lattice", lattice, "--out", str(out)]) == 0
    assert time.perf_counter() - start < 10.0
    data = json.loads(out.read_text())
    assert schema_errors(data) == []
    assert [c["status"] for c in data["checks"]] == ["pass"] * 3


@pytest.mark.parametrize(
    "lattice,terms", [("47x47:plane", "2^2208 terms"), ("12x12:plane", f"{2**143} terms")], ids=["47x47", "12x12"]
)
def test_groundstate_writes_a_count_above_the_digit_limit_as_a_power(tmp_path, lattice, terms):
    """Under a 640-digit limit on int-to-text conversion, the 665-digit
    count 2^2208 of the 47x47 plane is written as a power; 2^143, which
    converts, is still written in full."""
    out = tmp_path / "r.json"
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code = run_cli(["--experiment", "groundstate", "--group", "z2", "--lattice", lattice, "--out", str(out)])
    finally:
        sys.set_int_max_str_digits(limit)
    assert code == 0
    data = json.loads(out.read_text())
    assert schema_errors(data) == []
    assert data["checks"][0]["details"].startswith(f"{terms}; brute-force cross-check skipped")


def test_fusion_z2xz4_passes_at_the_default_lattice(tmp_path):
    """All 64^2 ordered pairs of z2xz4 labels fuse by the label group law on
    the default 3x3 torus, read from one array of star moments."""
    out = tmp_path / "r.json"
    assert run_cli(["--experiment", "fusion", "--group", "z2xz4", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert schema_errors(data) == []
    assert data["config"]["lattice"] == "3x3:torus"
    assert [c["status"] for c in data["checks"]] == ["pass"] * 2


@pytest.mark.parametrize("group,dim", [("z6", 1296), ("z2xz4", 4096)], ids=["z6", "z2xz4"])
def test_haag_check_on_3x3_runs_the_closure_whatever_the_size_of_omega(tmp_path, group, dim):
    """The 3x3 cone has 2 edges, so the ribbon closure runs, although Omega
    would have 6^8 or 8^8 rows: it is counted from fluxes and characters,
    and all 6 checks pass."""
    out = tmp_path / "r.json"
    args = ["--experiment", "haag-check", "--group", group, "--lattice", "3x3:plane", "--out", str(out)]
    assert run_cli(args) == 0
    data = json.loads(out.read_text())
    assert schema_errors(data) == []
    assert [c["status"] for c in data["checks"]] == ["pass"] * 6
    assert data["checks"][0]["details"] == f"cone of 2 edges, subspace dimension {dim}"
    assert data["checks"][1]["details"] == f"closure ranks ({dim}, {dim}) vs dimension {dim}"


def test_haag_check_z3_passes_at_the_default_lattice(tmp_path):
    """On the default 3x4 plane the density check reads z3's ranks from
    the nonzero columns of Omega's 81 x 81 block, so every check runs and
    passes."""
    out = tmp_path / "r.json"
    assert run_cli(["--experiment", "haag-check", "--group", "z3", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert schema_errors(data) == []
    assert [c["status"] for c in data["checks"]] == ["pass"] * 5
    assert data["checks"][3]["details"] == (
        "rank 13122 of target 13122 from n = 81, m = 81, r = 81 (C's columns are disjoint)"
    )


@pytest.mark.parametrize("group", ["z2", "z3", "z4", "z2xz2"])
def test_haag_check_passes_at_the_default_lattice(tmp_path, group):
    """Every group of order at most 4 passes all 5 checks on the default 3x4
    plane, z4 and z2xz2 included, whose Omega of 4^11 rows is never built."""
    out = tmp_path / "r.json"
    assert run_cli(["--experiment", "haag-check", "--group", group, "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert schema_errors(data) == []
    assert data["config"]["lattice"] == "3x4:plane"
    assert [c["status"] for c in data["checks"]] == ["pass"] * 5


def test_haag_check_on_the_4x4_plane_passes_z3_and_z4(tmp_path):
    """The cone block is never built, only counted: z3's 6561 x 729 and
    z4's 65536 x 4096 blocks both give every check, at once."""
    out = tmp_path / "r.json"
    args = ["--experiment", "haag-check", "--lattice", "4x4:plane", "--out", str(out)]
    for group, n, m in [("z3", 6561, 729), ("z4", 65536, 4096)]:
        start = time.perf_counter()
        assert run_cli(args + ["--group", group]) == 0
        assert time.perf_counter() - start < 2.0
        checks = json.loads(out.read_text())["checks"]
        assert [c["status"] for c in checks] == ["pass"] * 5
        assert checks[3]["details"].endswith(f" from n = {n}, m = {m}, r = {m} (C's columns are disjoint)")


def test_haag_check_z2_passes_on_the_4x4_plane(capsys):
    """On the 4x4 plane the cone has 8 edges: the density check enumerates
    none of their 2^16 monomials, and all 5 checks pass."""
    assert run_cli(["--experiment", "haag-check", "--lattice", "4x4:plane"]) == 0
    err = capsys.readouterr().err
    assert err.startswith("haag-check: 5/5 checks passed in ")


def test_start_up_and_haag_check_leave_scipy_unimported(tmp_path):
    """Only the torus exact-diagonalization cross-check needs scipy: importing
    the CLI and a whole haag-check run (z2, 3x4 plane) leave it unimported.
    Run in a fresh interpreter, since other tests import scipy here."""
    out = tmp_path / "r.json"
    script = (
        "import sys\n"
        "from qdlattice import cli\n"
        "assert 'scipy' not in sys.modules, 'imported with the CLI'\n"
        f"code = cli.main(['--experiment', 'haag-check', '--out', {str(out)!r}])\n"
        "assert code == 0, code\n"
        "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy'], 'imported by haag-check'\n"
    )
    src = str(SCHEMA.parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert json.loads(out.read_text())["passed"] is True


def test_haag_check_and_plane_groundstate_leave_numpy_ma_unimported(tmp_path):
    """A bare ``np.unique`` imports ``numpy.ma``, about 12 ms under numpy
    2.4: haag-check on the default 3x4 plane and groundstate on the 3x3
    plane count distinct rows without it. Run in a fresh interpreter, since
    other tests import numpy.ma here."""
    out = tmp_path / "r.json"
    script = (
        "import sys\n"
        "from qdlattice import cli\n"
        "assert 'numpy.ma' not in sys.modules, 'imported with the CLI'\n"
        "runs = [['--experiment', 'haag-check'], ['--experiment', 'groundstate', '--lattice', '3x3:plane']]\n"
        "for args in runs:\n"
        f"    assert cli.main(args + ['--out', {str(out)!r}]) == 0, args\n"
        "    assert 'numpy.ma' not in sys.modules, args\n"
    )
    src = str(SCHEMA.parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


def test_benchmark_cells_leave_scipy_unimported(tmp_path):
    """Every cell of the benchmark's workloads (BENCHMARK.json names them,
    perfbench/workloads.json lists their cells) runs in one fresh
    interpreter, exits 0 and leaves scipy unimported: importing it would add
    to every cell's start-up time and peak RSS."""
    root = SCHEMA.parent.parent.parent
    names = [w["name"] for w in json.loads((root / "BENCHMARK.json").read_text())["workloads"]]
    workloads = json.loads((root / "perfbench" / "workloads.json").read_text())["workloads"]
    cells = [(c["experiment"], c["group"], c["lattice"]) for name in names for c in workloads[name]["cells"]]
    assert cells, names
    out = tmp_path / "r.json"
    script = (
        "import sys\n"
        "from qdlattice import cli\n"
        f"for experiment, group, lattice in {cells!r}:\n"
        "    args = ['--experiment', experiment, '--group', group, '--lattice', lattice]\n"
        f"    assert cli.main(args + ['--out', {str(out)!r}]) == 0, args\n"
        "    assert not [m for m in sys.modules if m.split('.')[0] == 'scipy'], args\n"
    )
    src = str(SCHEMA.parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr


def test_haag_check_on_3x3_leaves_states_and_scipy_unimported(tmp_path):
    """haag-check z2, z3, z5 and z6 on the 3x3 plane run the small-cone
    checks, and z4 and z2xz2 on the 6x6 plane the others; none builds a
    state: ``qdlattice.states`` and scipy stay unimported. Run in a fresh
    interpreter, since other tests import both here."""
    out = tmp_path / "r.json"
    cases = [(group, "3x3:plane") for group in ["z2", "z3", "z5", "z6"]]
    cases += [(group, "6x6:plane") for group in ["z4", "z2xz2"]]
    script = (
        "import sys\n"
        "from qdlattice import cli\n"
        f"for group, lattice in {cases!r}:\n"
        "    args = ['--experiment', 'haag-check', '--group', group, '--lattice', lattice]\n"
        f"    assert cli.main(args + ['--out', {str(out)!r}]) == 0, args\n"
        "    assert 'qdlattice.states' not in sys.modules, args\n"
        "    assert not [m for m in sys.modules if m.split('.')[0] == 'scipy'], args\n"
    )
    src = str(SCHEMA.parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert json.loads(out.read_text())["passed"] is True


def test_benchmark_recorder_installs_and_records_haag_check(tmp_path):
    """The benchmark's traced pass wraps the package's layers by name
    (perfbench/spans.py): its recorder must still install on the package as
    it is, and record spans of a haag-check run (z2, 3x3 plane). Run in a
    fresh interpreter, since the recorder rebinds the package's functions."""
    root = SCHEMA.parent.parent.parent
    out = tmp_path / "r.json"
    script = (
        "from spans import Recorder\n"
        "rec = Recorder('t')\n"
        "rec.install()\n"
        "from qdlattice import cli\n"
        "args = ['--experiment', 'haag-check', '--group', 'z2', '--lattice', '3x3:plane']\n"
        f"assert cli.main(args + ['--out', {str(out)!r}]) == 0\n"
        "names = {span[0] for span in rec.spans}\n"
        "assert {'duality.cone_subspace', 'experiments.run_haag'} <= names, sorted(names)\n"
    )
    paths = [str(root / "src"), str(root / "perfbench"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert json.loads(out.read_text())["passed"] is True
