import random

import pytest

from qdlattice.deform import PATH_NODE_CAP, _paths_between, is_deformation_pair, sample_ribbon_pairs
from qdlattice.groups import group_make
from qdlattice.experiments import run_deform
from qdlattice.groundstate import ground_state
from qdlattice.lattice import Site, lattice_make, ribbon_between, ribbon_invert
from qdlattice.operators import as_opsum, ribbon_F, ribbon_F_irrep, same_action, star_g
from qdlattice.reports import RunConfig
from qdlattice.states import distance, inner

Z2 = group_make([2])
Z3 = group_make([3])


def test_deformation_pairs_act_identically():
    lat = lattice_make(3, 4, "plane")
    omega = ground_state(lat, Z3)
    rng = random.Random(1)
    labels = [(h, g) for h in Z3.elements() for g in Z3.elements()]
    n = 0
    for r1, r2 in sample_ribbon_pairs(lat, Z3, rng, 25, deformations=True):
        assert (r1.start, r1.end) == (r2.start, r2.end)
        h, g = rng.choice(labels)
        f1 = as_opsum(ribbon_F(lat, Z3, r1, h, g)).apply(omega)
        f2 = as_opsum(ribbon_F(lat, Z3, r2, h, g)).apply(omega)
        assert distance(f1, f2) < 1e-10
        n += 1
    assert n == 25


def test_crossing_pairs_differ():
    lat = lattice_make(3, 4, "plane")
    omega = ground_state(lat, Z3)
    rng = random.Random(2)
    n = 0
    for r1, r2 in sample_ribbon_pairs(lat, Z3, rng, 10, deformations=False):
        f1 = as_opsum(ribbon_F(lat, Z3, r1, (1,), (1,))).apply(omega)
        f2 = as_opsum(ribbon_F(lat, Z3, r2, (1,), (1,))).apply(omega)
        assert distance(f1, f2) > 0.1
        n += 1
    assert n >= 5


def test_obstruction_is_syntactic_symmetric():
    lat = lattice_make(3, 4, "plane")
    rng = random.Random(3)
    for r1, r2 in sample_ribbon_pairs(lat, Z2, rng, 8, deformations=True):
        assert is_deformation_pair(lat, Z2, r1, r2)
        assert is_deformation_pair(lat, Z2, r2, r1)


def test_inverted_ribbon_same_operator():
    # the reversed ribbon with inverted labels is the same operator
    lat = lattice_make(3, 3, "torus")
    s0 = Site(lat.vertex_id(0, 0), lat.face_id(0, 0))
    s1 = Site(lat.vertex_id(2, 1), lat.face_id(1, 1))
    rho = ribbon_between(s0, s1, lat)
    bar = ribbon_invert(rho)
    for h in Z3.elements():
        for g in Z3.elements():
            assert same_action(
                ribbon_F(lat, Z3, rho, h, g),
                ribbon_F(lat, Z3, bar, Z3.inv(h), Z3.inv(g)),
            )
    for chi in Z3.characters():
        for c in Z3.elements():
            assert same_action(
                ribbon_F_irrep(lat, Z3, rho, chi, c),
                ribbon_F_irrep(lat, Z3, bar, Z3.char_conj(chi), Z3.inv(c)),
            )


def test_inversion_expectation_identity():
    lat = lattice_make(3, 3, "plane")
    omega = ground_state(lat, Z2)
    rng = random.Random(4)
    sites = [s for s in lat.sites()]
    mid = next(s for s in sites if lat.has_full_star(s.vertex))
    for _ in range(10):
        sa, sb = rng.sample(sites, 2)
        try:
            r = ribbon_between(sa, sb, lat)
        except Exception:
            continue
        rbar = ribbon_invert(r)
        A = as_opsum(star_g(lat, Z2, mid, (1,)))
        lhs = inner(
            omega,
            (as_opsum(ribbon_F(lat, Z2, r, (1,), (0,))) @ A @ as_opsum(ribbon_F(lat, Z2, r, (0,), (1,)))).apply(omega),
        )
        rhs = inner(
            omega,
            (as_opsum(ribbon_F(lat, Z2, rbar, (1,), (0,))) @ A @ as_opsum(ribbon_F(lat, Z2, rbar, (0,), (1,)))).apply(omega),
        )
        assert abs(lhs - rhs) < 1e-12


def test_path_search_reports_the_node_cap():
    lat = lattice_make(3, 4, "plane")
    s0 = Site(lat.vertex_id(0, 0), lat.face_id(0, 0))
    s1 = Site(lat.vertex_id(2, 2), lat.face_id(1, 1))
    max_len = len(ribbon_between(s0, s1, lat)) + 8
    full, capped = _paths_between(lat, s0, s1, max_len)
    assert not capped and len(full) > 1
    partial, capped = _paths_between(lat, s0, s1, max_len, node_cap=20)
    assert capped
    assert {p.triangles for p in partial} <= {p.triangles for p in full}


def test_deform_report_counts_capped_searches():
    lat = lattice_make(3, 3, "plane")
    rep = run_deform(RunConfig("deform", seed=3), Z2, lat, pairs=20)
    details = rep.checks[0].details
    assert details.startswith("20 seeded ribbon pairs of 20 requested; 0 of ")
    assert details.endswith(f" path searches hit the {PATH_NODE_CAP}-node cap")
