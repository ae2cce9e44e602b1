import json

import jsonschema
import pytest

from qdlattice.cli import main
from qdlattice.reports import Report, RunConfig, report_json, schema


def run_cli(args):
    return main(args)


def schema_errors(data):
    """Violations of the published report schema (empty when valid)."""
    return list(jsonschema.Draft202012Validator(schema()).iter_errors(data))


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


def test_unknown_experiment_rejected(capsys):
    with pytest.raises(SystemExit):
        run_cli(["--experiment", "nonsense"])


def test_config_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps({"experiment": "groundstate", "group": "z3", "lattice": "2x2:plane"})
    )
    assert run_cli(["--config", str(cfg)]) == 0


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
    [("--tol", "-1", "tolerance must be positive"), ("--cap", "0", "cap must be at least 1")],
)
def test_rejected_config_exits_2_with_one_line(tmp_path, capsys, flag, value, message):
    out = tmp_path / "r.json"
    code = run_cli(["--experiment", "braid", flag, value, "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "args",
    [
        ["--experiment", "groundstate", "--lattice", "12x12:plane"],
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
    assert "above the cap" in err or "at most 255" in err


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


def test_haag_check_z3_is_refused_at_the_density_cap(capsys):
    """The orthogonality check runs for z3 without the enlargement's ground
    state; what is refused is the density check's coefficient matrix."""
    assert run_cli(["--experiment", "haag-check", "--group", "z3"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: haag-check: density check needs a 8081 x 13122 ")
    assert err.count("\n") == 1
