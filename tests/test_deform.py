import itertools
import random

import pytest

from qdlattice.deform import (
    PATH_NODE_CAP,
    _paths_between,
    is_deformation_pair,
    sample_ribbon_pairs,
)
from qdlattice.groups import group_make
from qdlattice.experiments import run_deform
from qdlattice.groundstate import ground_state, omega_distance, sector_shift
from qdlattice.lattice import Lattice, Site, parse_lattice, ribbon_between, ribbon_invert
from qdlattice.operators import (
    AffineMap,
    as_opsum,
    plaq_h,
    ribbon_F,
    ribbon_F_irrep,
    same_action,
    star_g,
)
from qdlattice.reports import RunConfig
from qdlattice.sectors import sector_labels, transporter, truncate
from oracles import distance, ground_space, inner

Z2 = group_make([2])
Z3 = group_make([3])
Z2xZ2 = group_make([2, 2])


def test_deformation_pairs_act_identically():
    lat = Lattice(3, 4, "plane")
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
    lat = Lattice(3, 4, "plane")
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
    lat = Lattice(3, 4, "plane")
    rng = random.Random(3)
    for r1, r2 in sample_ribbon_pairs(lat, Z2, rng, 8, deformations=True):
        assert is_deformation_pair(lat, Z2, r1, r2)
        assert is_deformation_pair(lat, Z2, r2, r1)


def test_inverted_ribbon_same_operator():
    # the reversed ribbon with inverted labels is the same operator
    lat = Lattice(3, 3, "torus")
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
    lat = Lattice(3, 3, "plane")
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
    lat = Lattice(3, 4, "plane")
    s0 = Site(lat.vertex_id(0, 0), lat.face_id(0, 0))
    s1 = Site(lat.vertex_id(2, 2), lat.face_id(1, 1))
    max_len = len(ribbon_between(s0, s1, lat)) + 8
    full, capped = _paths_between(lat, s0, s1, max_len)
    assert not capped and len(full) > 1
    partial, capped = _paths_between(lat, s0, s1, max_len, node_cap=20)
    assert capped
    assert {p.triangles for p in partial} <= {p.triangles for p in full}


def test_deform_report_counts_capped_searches():
    lat = Lattice(3, 3, "plane")
    rep = run_deform(RunConfig("deform", seed=3), Z2, lat, pairs=20)
    details = rep.checks[0].details
    assert details.startswith("20 seeded ribbon pairs of 20 requested; 0 of ")
    assert details.endswith(f" path searches hit the {PATH_NODE_CAP}-node cap")


def _site(lat, x, y):
    v = lat.vertex_id(x, y)
    return Site(v, next(f for f in lat.faces_at_vertex_cw(v) if f is not None))


def _apply(op, psi):
    return as_opsum(op).apply(psi)


def _deform_cases(lat, grp):
    """Sampled deformation pairs (same image of Ω) and crossing pairs with
    both labels nontrivial, the labels of the experiment's control (images
    differ)."""
    omega = ground_state(lat, grp)
    rng = random.Random(5)
    e = grp.identity()
    labels = {
        True: [(h, g) for h in grp.elements() for g in grp.elements() if (h, g) != (e, e)],
        False: [(h, g) for h in grp.elements() for g in grp.elements() if e not in (h, g)],
    }
    cases = []
    for deformations, count in ((True, 12), (False, 6)):
        before = len(cases)
        for r1, r2 in sample_ribbon_pairs(lat, grp, rng, count, deformations=deformations):
            h, g = rng.choice(labels[deformations])
            f1, f2 = ribbon_F(lat, grp, r1, h, g), ribbon_F(lat, grp, r2, h, g)
            cases.append((f1, f2, _apply(f1, omega), _apply(f2, omega), deformations))
        assert len(cases) - before == count
    return cases


def _torus_cases(lat, grp):
    """Every holonomy sector's ground vector ψ_ab = T_ab Ω: stabilizers fix
    it, and an open ribbon operator with sampled labels moves it."""
    space = ground_space(lat, grp)
    rng = random.Random(5)
    s0, s1 = _site(lat, 0, 0), _site(lat, 1, 1)
    rho = ribbon_between(s0, s1, lat)
    labels = list(itertools.product(grp.elements(), repeat=2))
    cases = []
    for psi, (a, b) in zip(space, itertools.product(range(grp.order), repeat=2)):
        T = sector_shift(lat, grp, a, b)
        assert distance(_apply(T, space[0]), psi) == 0.0
        stabilizers = [star_g(lat, grp, s1, g) for g in grp.elements()]
        stabilizers.append(plaq_h(lat, grp, s1, grp.identity()))
        for X in stabilizers:
            cases.append((X.compose(T), T, _apply(X, psi), psi, True))
        for h, g in rng.sample(labels, 2):
            F = ribbon_F(lat, grp, rho, h, g)
            cases.append((F.compose(T), T, _apply(F, psi), psi, None))
    return cases


def _sectors_cases(lat, grp):
    """run_sectors' transporter V between two same-start ribbons: V Ω = Ω and
    V α₁(A) Ω = α₂(A) Ω; the charged states F₁ Ω and F₂ Ω of the two
    ribbons, with charges at different sites, differ."""
    omega = ground_state(lat, grp)
    s0 = _site(lat, 0, 0)
    rho1 = ribbon_between(s0, _site(lat, 2, 1), lat)
    rho2 = ribbon_between(s0, _site(lat, 1, 2), lat, avoid_edges=rho1.edges(), allow_reversed=True)
    n = min(len(rho1), len(rho2))
    ident = AffineMap.identity(grp, lat.n_edges)
    local = star_g(lat, grp, _site(lat, 1, 1), grp.elements()[-1])
    cases = []
    for label in sector_labels(grp)[1:]:
        V = transporter(lat, grp, label.chi, label.c, rho1, rho2, n)
        F1 = ribbon_F_irrep(lat, grp, truncate(rho1, n), label.chi, label.c)
        F2 = ribbon_F_irrep(lat, grp, truncate(rho2, n), label.chi, label.c)
        a1 = F1.compose(local).compose(F1.adjoint())
        a2 = F2.compose(local).compose(F2.adjoint())
        cases.append((V, ident, _apply(V, omega), omega, True))
        cases.append((V.compose(a1), a2, _apply(V, _apply(a1, omega)), _apply(a2, omega), True))
        cases.append((F1, F2, _apply(F1, omega), _apply(F2, omega), False))
    return cases


ORACLE_CASES = [
    pytest.param(_deform_cases, Z2, "3x4:plane", id="z2"),
    pytest.param(_deform_cases, Z3, "3x4:plane", id="z3"),
    *(
        pytest.param(_torus_cases, grp, f"{w}x{w}:torus", id=f"torus-{w}x{w}-{name}")
        for w in (2, 3)
        for grp, name in ((Z2, "z2"), (Z3, "z3"), (Z2xZ2, "z2xz2"))
    ),
    pytest.param(_sectors_cases, Z2, "3x3:plane", id="sectors-z2"),
    pytest.param(_sectors_cases, Z3, "3x3:plane", id="sectors-z3"),
]


@pytest.mark.parametrize("cases,grp,spec", ORACLE_CASES)
def test_omega_distance_matches_materialized_distance(cases, grp, spec):
    """The distance from ground-state expectations equals the materialized
    ‖u − v‖: exactly 0 where the two images agree, above 0.1 where they are
    known to differ (crossing pairs)."""
    lat = parse_lattice(spec)
    for f1, f2, u, v, same in cases(lat, grp):
        d = omega_distance(lat, grp, f1, f2)
        assert abs(d - distance(u, v)) < 1e-12
        if same is True:
            assert d == 0.0
        elif same is False:
            assert d > 0.1
