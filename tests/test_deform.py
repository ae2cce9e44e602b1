import itertools
import random

import numpy as np
import pytest

from qdlattice import groundstate, lattice
from qdlattice.deform import crossing_number, is_deformation_pair, sample_ribbon_pairs
from qdlattice.groups import group_make
from qdlattice.experiments import _control_labels, run_deform
from qdlattice.groundstate import omega_distances, sector_shift
from qdlattice.lattice import (
    Lattice,
    LatticeError,
    Site,
    parse_lattice,
    ribbon_between,
    ribbon_invert,
    straight_ribbon,
)
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
from oracles import (
    PATH_SLACK,
    deformation_pair_by_shifts,
    distance,
    flux_reading,
    ground_space,
    ground_state,
    inner,
    omega_distance,
    paths_between,
    shift_pattern,
    shift_rows,
)

Z2 = group_make([2])
Z3 = group_make([3])
Z4 = group_make([4])
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


ORACLE_GROUPS = [group_make(orders) for orders in ([2], [3], [4], [2, 2], [6], [2, 4])]


@pytest.mark.parametrize(
    "spec", ["3x4:plane", "4x4:plane", "5x5:plane", "3x3:torus", "3x4:torus", "4x4:torus"]
)
def test_deformation_counts_match_per_element_oracle(spec):
    """On the path enumerator's candidates for seeded site pairs, the verdict
    read from signed counts equals the per-element oracle's (shift patterns,
    face fluxes, flux readings and torus cocycles) for every group, and a
    crossing number read in Z_n is the oracle's flux reading of one ribbon
    on the other's (1, e) shift pattern."""
    lat = parse_lattice(spec)
    rng = random.Random(lat.width * 100 + lat.height * 10 + lat.is_torus)
    sites = list(lat.sites())
    verdicts = set()
    for _ in range(8):
        s0, s1 = rng.sample(sites, 2)
        base = ribbon_between(s0, s1, lat)
        paths = paths_between(lat, s0, s1, len(base) + PATH_SLACK, node_cap=2000)
        rng.shuffle(paths)
        for cand in [base] + paths[:10]:
            got = [is_deformation_pair(lat, grp, base, cand) for grp in ORACLE_GROUPS]
            assert got == [deformation_pair_by_shifts(lat, grp, base, cand) for grp in ORACLE_GROUPS]
            verdicts.add(tuple(got))
            for n in (3, 4):
                zn = group_make([n])
                for reader, shifter in ((base, cand), (cand, base)):
                    reading = flux_reading(lat, zn, reader, shift_pattern(lat, zn, shifter, (1,)))
                    assert (crossing_number(reader, shifter) % n,) == reading
    assert (True,) * len(ORACLE_GROUPS) in verdicts
    assert (False,) * len(ORACLE_GROUPS) in verdicts


def test_torus_windings_are_read_mod_the_exponent():
    """A closed ribbon around the torus's x handle and its inverse wind -1
    and +1 times. In z4xz2 the holonomy at packed index 1, (0, 1), has order
    2 and reads the two alike, but holonomy (1, 0) tells them apart: the
    pair is refused, and some holonomy sector's images differ. In z2 the
    windings agree mod 2 and every sector's images agree."""
    lat = Lattice(3, 3, "torus")
    loop = straight_ribbon(lat, 0, 0, "E", 3)
    inverse = ribbon_invert(loop)
    assert loop.is_closed and inverse.start == loop.start
    z4xz2 = group_make([4, 2])
    row = shift_rows(lat, [sector_shift(lat, z4xz2, 1, 0)])
    assert flux_reading(lat, z4xz2, loop, row) == flux_reading(lat, z4xz2, inverse, row)
    for grp, deformation in ((Z2, True), (z4xz2, False)):
        assert is_deformation_pair(lat, grp, loop, inverse) == deformation
        assert deformation_pair_by_shifts(lat, grp, loop, inverse) == deformation
        pairs = []
        for a, b in itertools.product(range(grp.order), repeat=2):
            T = sector_shift(lat, grp, a, b)
            for k in grp.elements():
                f1, f2 = (ribbon_F(lat, grp, r, grp.identity(), k) for r in (loop, inverse))
                pairs.append((f1.compose(T), f2.compose(T)))
        distances = omega_distances(lat, grp, pairs)
        assert (max(distances) == 0.0) == deformation


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


@pytest.mark.parametrize("deformations", [True, False])
def test_sampled_pairs_are_detours_around_an_interior_edge(deformations):
    """Each pair shares its endpoints, its two ribbons differ, and the
    partner avoids the edge of at least one interior triangle of the base."""
    lat = Lattice(4, 4, "plane")
    rng = random.Random(6)
    n = 0
    for base, partner in sample_ribbon_pairs(lat, Z4, rng, 10, deformations=deformations):
        assert (base.start, base.end) == (partner.start, partner.end)
        assert base.triangles != partner.triangles
        interior = {t.edge for t in base.triangles[1:-1]}
        assert interior - partner.edges()
        assert is_deformation_pair(lat, Z4, base, partner) == deformations
        n += 1
    assert n == 10


def test_deform_report_counts_sampled_pairs():
    lat = Lattice(3, 3, "plane")
    rep = run_deform(RunConfig("deform", seed=3), Z2, lat, pairs=20)
    assert rep.checks[0].details == "20 seeded ribbon pairs of 20 requested"


def test_deform_expands_each_walk_level_once_and_solves_each_matrix_once(monkeypatch):
    """deform z2 on 3x4 at seed 0 asks about a thousand ribbon searches of
    a few hundred walks: each walk expands each of its levels at most once,
    however many queries resume it. Its 200 deformation pairs, 20 crossing
    pairs and inversion sandwiches give delta systems on many vertex pairs
    but at most 4 integer matrices, each solved once."""
    expanded, solved = [], []
    next_level, system_means = lattice._next_level, groundstate._system_means

    def counted_level(lat, tree, frontier, *args):
        expanded.append((id(tree), tuple(frontier)))
        return next_level(lat, tree, frontier, *args)

    def counted_means(group, rows, factors):
        solved.append(rows)
        return system_means(group, rows, factors)

    monkeypatch.setattr(lattice, "_next_level", counted_level)
    monkeypatch.setattr(groundstate, "_system_means", counted_means)
    lat = Lattice(3, 4, "plane")
    assert run_deform(RunConfig("deform", seed=0), Z2, lat).all_passed
    assert len(expanded) == len(set(expanded))
    assert len({key for key, _ in expanded}) == len(lat.search_trees)
    assert 0 < len(solved) <= 4


@pytest.mark.parametrize("spec", ["2x2:plane", "2x3:plane", "3x2:plane", "2x8:plane"])
def test_deform_refuses_a_plane_without_a_complete_star(spec):
    with pytest.raises(LatticeError, match="no vertex with a complete star"):
        run_deform(RunConfig("deform", seed=0), Z2, parse_lattice(spec))


@pytest.mark.parametrize("grp", [Z2, Z3], ids=["z2", "z3"])
def test_deform_passes_on_the_12x12_plane(grp):
    rep = run_deform(RunConfig("deform", seed=0), grp, Lattice(12, 12, "plane"))
    assert rep.all_passed
    assert rep.checks[0].details == "200 seeded ribbon pairs of 200 requested"


def test_crossing_control_labels_separate_an_even_crossing():
    """A z4 pair whose crossing numbers are ±2: the exponent 4 does not
    divide them, so the pair crosses, yet the shift (2,) reads 2·(2,) = 0
    and leaves the two images equal. Every label the crossing control can
    draw has a shift of order 4 and separates the pair."""
    lat = Lattice(3, 5, "plane")
    s0, s1 = lat.site(1, 1, 1, 1), lat.site(1, 3, 1, 3)
    base = ribbon_between(s0, s1, lat)
    paths = paths_between(lat, s0, s1, len(base) + PATH_SLACK, node_cap=20000)
    partner = next(p for p in paths if crossing_number(base, p) == 2)
    assert crossing_number(partner, base) == -2
    assert not is_deformation_pair(lat, Z4, base, partner)
    assert not deformation_pair_by_shifts(lat, Z4, base, partner)
    assert deformation_pair_by_shifts(lat, Z2, base, partner)
    labels = _control_labels(Z4)
    assert {l.chi for l in labels} == {(1,), (3,)}
    for shift, flux in labels:
        f1, f2 = (ribbon_F(lat, Z4, r, shift, flux) for r in (base, partner))
        assert omega_distance(lat, Z4, f1, f2) > 0.1
    for flux in ((1,), (2,), (3,)):
        f1, f2 = (ribbon_F(lat, Z4, r, (2,), flux) for r in (base, partner))
        assert omega_distance(lat, Z4, f1, f2) == 0.0


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


def _charge_phase_cases(lat, grp):
    """Charged states whose cross term ω(F₁*F₂) has a non-real phase: F Ω
    against A F Ω, A the star operator of a generator at the ribbon's start
    site, which multiplies F Ω by its charge's value there; and F Ω against
    G Ω and A G Ω, G the same ribbon's operator with the next label."""
    omega = ground_state(lat, grp)
    rho = ribbon_between(_site(lat, 1, 1), _site(lat, 2, 0), lat)
    A = star_g(lat, grp, rho.start, grp.elements()[1])
    labels = sector_labels(grp)[1:]
    ops = [ribbon_F_irrep(lat, grp, rho, l.chi, l.c) for l in labels]
    states = [_apply(F, omega) for F in ops]
    cases = []
    for i, (F, u) in enumerate(zip(ops, states)):
        G, v = ops[(i + 1) % len(ops)], states[(i + 1) % len(ops)]
        cases.append((F, A.compose(F), u, _apply(A, u), None))
        cases.append((F, G, u, v, None))
        cases.append((F, A.compose(G), u, _apply(A, v), None))
    assert any(abs(inner(u, v).imag) > 0.5 for _, _, u, v, _ in cases)
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
    pytest.param(_charge_phase_cases, Z3, "3x3:plane", id="charge-phase-z3"),
    pytest.param(_charge_phase_cases, Z4, "3x3:plane", id="charge-phase-z4"),
]


@pytest.mark.parametrize("cases,grp,spec", ORACLE_CASES)
def test_omega_distance_matches_materialized_distance(cases, grp, spec):
    """The distance from ground-state expectations equals the materialized
    ‖u − v‖: exactly 0 where the two images agree, above 0.1 where they are
    known to differ (crossing pairs)."""
    lat = parse_lattice(spec)
    pairs = []
    for f1, f2, u, v, same in cases(lat, grp):
        d = omega_distance(lat, grp, f1, f2)
        assert abs(d - distance(u, v)) < 1e-12
        if same is True:
            assert d == 0.0
        elif same is False:
            assert d > 0.1
        pairs.append((f1, f2, d))
    # one batch for all pairs gives every pair's distance exactly
    assert omega_distances(lat, grp, [(f1, f2) for f1, f2, _ in pairs]) == [d for *_, d in pairs]
