"""Acceptance suite: one test per headline criterion, each printing a
pass/fail line with the worst observed error at the pinned tolerance."""

import itertools
import json
import time


from qdlattice.cli import main as cli_main
from qdlattice.experiments import (
    run_braid,
    run_deform,
    run_fusion,
    run_groundstate,
    run_haag,
    run_sectors,
    run_smatrix,
    run_split,
    run_verify,
)
from qdlattice.groups import group_make, parse_group
from qdlattice.lattice import Lattice
from qdlattice.reports import Report, RunConfig
from qdlattice.sectors import (
    SectorLabel,
    s_matrix_entries,
    smatrix_geometry,
)


def _announce(num: int, label: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {num}] {status} - {label}" + (f" ({detail})" if detail else ""))
    assert passed, f"criterion {num}: {label} {detail}"


def _worst(report: Report) -> float:
    return max((c.max_error for c in report.checks), default=0.0)


def test_criterion_1_operator_identity_suite():
    t0 = time.time()
    worst = 0.0
    for spec in ("z2", "z3"):
        cfg = RunConfig("verify", group=spec, lattice="3x3:torus", tol=1e-10)
        rep = run_verify(cfg, parse_group(spec), Lattice(3, 3, "torus"))
        worst = max(worst, _worst(rep))
        assert rep.all_passed, [c.name for c in rep.checks if c.status != "pass"]
    elapsed = time.time() - t0
    _announce(
        1,
        "operator identities exact on the 3x3 torus for z2 and z3",
        worst <= 1e-10 and elapsed <= 60,
        f"max error {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_ground_state():
    t0 = time.time()
    worst = 0.0
    for spec, dims in [("z2", (2, 2)), ("z2", (3, 3)), ("z3", (2, 2)), ("z3", (3, 3))]:
        cfg = RunConfig("groundstate", group=spec, lattice=f"{dims[0]}x{dims[1]}:plane", tol=1e-12)
        rep = run_groundstate(cfg, parse_group(spec), Lattice(*dims, "plane"))
        worst = max(worst, _worst(rep))
        assert rep.all_passed
    for spec in ("z2", "z3"):
        cfg = RunConfig("groundstate", group=spec, lattice="2x2:torus")
        rep = run_groundstate(cfg, parse_group(spec), Lattice(2, 2, "torus"))
        assert rep.all_passed
        if spec == "z2":
            diag = next(c for c in rep.checks if "diagonalization" in c.name)
            assert "energy -8.000000" in diag.details and "degeneracy 4" in diag.details
        else:
            diag = next(c for c in rep.checks if "diagonalization" in c.name)
            assert "degeneracy 9" in diag.details
    elapsed = time.time() - t0
    _announce(
        2,
        "stabilizer and connection-projector expectations exact; torus diagonalization cross-check",
        worst <= 1e-12 and elapsed <= 120,
        f"max error {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_3_deformation_and_inversion():
    cfg = RunConfig("deform", group="z2", lattice="3x4:plane", tol=1e-10, seed=0)
    rep = run_deform(cfg, group_make([2]), Lattice(3, 4, "plane"), pairs=200)
    deform_check = rep.checks[0]
    assert "200 seeded ribbon pairs" in deform_check.details
    _announce(
        3,
        "200 deformation pairs and the inversion identity within 1e-10",
        rep.all_passed and _worst(rep) <= 1e-10,
        f"max error {_worst(rep):.2e}",
    )


def test_criterion_4_braiding_and_smatrix():
    t0 = time.time()
    lat = Lattice(7, 7, "plane")
    worst = 0.0
    for spec in ("z2", "z3", "z4", "z2xz2"):
        grp = parse_group(spec)
        cfg = RunConfig("braid", group=spec, lattice="7x7:plane")
        rep = run_braid(cfg, grp, lat)
        assert rep.all_passed
        worst = max(worst, _worst(rep))
        rep = run_smatrix(RunConfig("smatrix", group=spec, lattice="7x7:plane"), grp, lat)
        assert rep.all_passed
        worst = max(worst, _worst(rep))
    # the toric-code pattern: charge against flux gives -1
    z2 = group_make([2])
    geom = smatrix_geometry(lat)
    e, m = SectorLabel((1,), (0,)), SectorLabel((0,), (1,))
    eps = SectorLabel((1,), (1,))
    vac = SectorLabel((0,), (0,))
    pairs = list(itertools.product([vac, e, m, eps], repeat=2))
    table = dict(zip(pairs, s_matrix_entries(lat, z2, pairs, geom)))
    pattern_ok = (
        abs(table[(e, m)] + 1) < 1e-9
        and abs(table[(m, e)] + 1) < 1e-9
        and abs(table[(e, e)] - 1) < 1e-9
        and abs(table[(m, m)] - 1) < 1e-9
        and abs(table[(eps, eps)] - 1) < 1e-9
        and abs(table[(e, eps)] + 1) < 1e-9
        and all(abs(table[(vac, x)] - 1) < 1e-9 for x in (vac, e, m, eps))
    )
    elapsed = time.time() - t0
    _announce(
        4,
        "one-crossing phases and the double-exchange table for z2, z3, z4, z2xz2",
        worst <= 1e-9 and pattern_ok and elapsed <= 300,
        f"max error {worst:.2e}, toric pattern ok, {elapsed:.1f}s",
    )


def test_criterion_5_fusion():
    worst_group = ""
    for spec in ("z2", "z3", "z4", "z2xz2"):
        grp = parse_group(spec)
        cfg = RunConfig("fusion", group=spec, lattice="3x3:torus")
        rep = run_fusion(cfg, grp, Lattice(3, 3, "torus"))
        assert rep.all_passed, f"fusion table broken for {spec}"
        worst_group = spec
    _announce(
        5,
        "operational fusion equals the label group law for every pair, all groups up to order 4",
        True,
        f"last group checked {worst_group}",
    )


def test_criterion_6_sector_disjointness():
    for spec in ("z2", "z3", "z4", "z2xz2"):
        grp = parse_group(spec)
        cfg = RunConfig("sectors", group=spec, lattice="3x3:torus", tol=1e-9)
        rep = run_sectors(cfg, grp, Lattice(3, 3, "torus"))
        assert rep.all_passed, f"sector separation broken for {spec}: " + str(
            [(c.name, c.details) for c in rep.checks if c.status != "pass"]
        )
    _announce(6, "every unequal label pair separated with unit expectation gap", True)


def test_criterion_7_haag_surrogates():
    t0 = time.time()
    cfg = RunConfig("haag-check", group="z2", lattice="3x4:plane", seed=0)
    rep = run_haag(cfg, group_make([2]), Lattice(3, 4, "plane"))
    elapsed = time.time() - t0
    _announce(
        7,
        "cone subspace: external-charge orthogonality, boundary membership, real-linear density with negative control",
        rep.all_passed and elapsed <= 600,
        f"{len(rep.checks)} checks, {elapsed:.1f}s",
    )


def test_criterion_8_split_surrogate():
    cfg = RunConfig("split-check", group="z2", lattice="4x4:plane", seed=0)
    rep = run_split(cfg, group_make([2]), Lattice(4, 4, "plane"), samples=100)
    factor = rep.checks[0]
    _announce(
        8,
        "ground state factorizes over 100 separated operator pairs within 1e-10",
        rep.all_passed and factor.max_error <= 1e-10,
        f"max error {factor.max_error:.2e}",
    )


def test_criterion_9_reproducibility(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["--experiment", "smatrix", "--group", "z3", "--seed", "7"]
    assert cli_main(args + ["--out", str(a)]) == 0
    assert cli_main(args + ["--out", str(b)]) == 0
    identical = a.read_bytes() == b.read_bytes()
    data = json.loads(a.read_text())
    _announce(
        9,
        "identical configuration and seed give byte-identical reports",
        identical and data["passed"],
        f"{len(a.read_bytes())} bytes",
    )
