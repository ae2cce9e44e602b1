import itertools
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qdlattice.groups import group_make, parse_group
from qdlattice.groundstate import (
    GroundStateError,
    all_configs,
    connection_projector,
    count_flat_on_faces,
    edges_of_faces,
    face_flux,
    face_fluxes,
    flat_connections,
    ground_state,
    in_flat_group,
    is_flat,
    omega_expectation,
    shift_row,
    torus_holonomies,
)
from qdlattice.lattice import (
    Lattice,
    LatticeError,
    Site,
    closed_loop_around,
    ribbon_between,
    straight_ribbon,
)
from qdlattice.operators import (
    AffineMap,
    OpSum,
    as_opsum,
    beta_ribbon,
    plaq_h,
    ribbon_F,
    ribbon_F_irrep,
    star_g,
)
from oracles import (
    distance,
    expectation,
    ground_space,
    inner,
    norm,
    scaled,
    torus_flat_connections,
)

Z2 = group_make([2])
Z3 = group_make([3])


@pytest.mark.parametrize(
    "grp,count", [(Z2, 8), (Z3, 27)]
)
def test_flat_count_2x2_plane(grp, count):
    lat = Lattice(2, 2, "plane")
    flats = flat_connections(lat, grp)
    assert len(flats) == count
    brute = all_configs(lat, grp)
    assert int(np.sum(is_flat(lat, grp, brute))) == count


@pytest.mark.parametrize("dims,boundary", [((2, 2), "torus"), ((3, 3), "torus"), ((3, 4), "plane")])
@pytest.mark.parametrize("grp", [Z2, Z3])
def test_flat_enumeration_matches_brute_force(dims, boundary, grp):
    lat = Lattice(*dims, boundary)
    if grp.order**lat.n_edges > 1 << 22:
        pytest.skip("brute force too large")
    flats = torus_flat_connections(lat, grp) if lat.is_torus else flat_connections(lat, grp)
    assert np.all(is_flat(lat, grp, flats))
    brute = all_configs(lat, grp)
    assert len(flats) == int(np.sum(is_flat(lat, grp, brute)))
    # distinct rows
    assert len(np.unique(flats.view(np.dtype((np.void, flats.shape[1]))))) == len(flats)


def test_identity_configuration_is_flat():
    for lat in (Lattice(3, 3, "plane"), Lattice(3, 3, "torus")):
        row = np.zeros((1, lat.n_edges), dtype=np.uint8)
        assert bool(is_flat(lat, Z3, row)[0])


def test_ground_state_stabilized():
    lat = Lattice(3, 3, "plane")
    omega = ground_state(lat, Z3)
    assert abs(norm(omega) - 1) < 1e-12
    for v in range(lat.n_vertices):
        if not lat.has_full_star(v):
            continue
        s = Site(v, next(f for f in lat.faces_at_vertex_cw(v) if f is not None))
        for g in Z3.elements():
            assert abs(expectation(omega, as_opsum(star_g(lat, Z3, s, g))) - 1) < 1e-12
    for f in lat.faces():
        s = Site(lat.face_corners_ccw(f)[0], f)
        assert abs(expectation(omega, as_opsum(plaq_h(lat, Z3, s, Z3.identity()))) - 1) < 1e-12


def test_ground_state_refuses_torus():
    with pytest.raises(GroundStateError):
        ground_state(Lattice(2, 2, "torus"), Z2)


@pytest.mark.parametrize("grp,dim", [(Z2, 4), (Z3, 9)])
def test_ground_space_torus(grp, dim):
    lat = Lattice(2, 2, "torus")
    basis = ground_space(lat, grp)
    assert len(basis) == dim
    for i, a in enumerate(basis):
        for j, b in enumerate(basis):
            want = 1.0 if i == j else 0.0
            assert abs(inner(a, b) - want) < 1e-12
    for psi in basis:
        for v in range(lat.n_vertices):
            s = Site(v, next(f for f in lat.faces_at_vertex_cw(v) if f is not None))
            for g in grp.elements():
                assert distance(as_opsum(star_g(lat, grp, s, g)).apply(psi), psi) < 1e-12
            assert distance(as_opsum(plaq_h(lat, grp, s, grp.identity())).apply(psi), psi) < 1e-12


def test_ground_space_plane_is_single_state():
    lat = Lattice(3, 3, "plane")
    basis = ground_space(lat, Z2)
    assert len(basis) == 1
    assert distance(basis[0], ground_state(lat, Z2)) < 1e-12


def test_holonomy_labels_partition_flats():
    lat = Lattice(2, 2, "torus")
    flats = torus_flat_connections(lat, Z3)
    hx, hy = torus_holonomies(lat, Z3, flats)
    counts = {}
    for a, b in zip(hx, hy):
        counts[(int(a), int(b))] = counts.get((int(a), int(b)), 0) + 1
    assert len(counts) == 9
    assert len(set(counts.values())) == 1


def test_connection_projector_values():
    lat = Lattice(3, 3, "plane")
    omega = ground_state(lat, Z2)
    faces = [0, 1]
    edges = edges_of_faces(lat, faces)
    n_flat = count_flat_on_faces(lat, Z2, faces)
    total = OpSum(())
    for assignment in itertools.product(Z2.elements(), repeat=len(edges)):
        sub = dict(zip(edges, assignment))
        proj = connection_projector(lat, Z2, sub)
        row = np.zeros((1, lat.n_edges), dtype=np.uint8)
        for e, val in sub.items():
            row[0, e] = Z2.index_of(val)
        flat = all(int(face_flux(lat, Z2, row, f)[0]) == 0 for f in faces)
        val = expectation(omega, OpSum.of(proj)).real
        if flat:
            assert abs(val - 1.0 / n_flat) < 1e-12
        else:
            assert abs(val) < 1e-12
        total = total + OpSum.of(proj)
    ne = lat.n_edges
    from qdlattice.operators import AffineMap, ops_equal

    assert ops_equal(total, OpSum.of(AffineMap.identity(Z2, ne)), ne) < 1e-12


def test_expectation_basics():
    lat = Lattice(2, 2, "plane")
    omega = ground_state(lat, Z2)
    from qdlattice.operators import AffineMap

    assert abs(expectation(omega, OpSum.of(AffineMap.identity(Z2, lat.n_edges))) - 1) < 1e-14
    with pytest.raises(GroundStateError):
        expectation(scaled(omega, 0.0), OpSum.of(AffineMap.identity(Z2, lat.n_edges)))


def test_flat_count_formula_plane():
    # plane patches: |G|^(E - F) flat connections
    for dims in [(2, 2), (2, 3), (3, 3)]:
        lat = Lattice(*dims, "plane")
        assert len(flat_connections(lat, Z2)) == 2 ** (lat.n_edges - lat.n_faces)


# -- omega_expectation against the materialized oracle -----------------------------------

GROUP_SPECS = ["z2", "z3", "z4", "z2xz2"]
LATTICES = [(2, 2, "plane"), (3, 3, "plane"), (2, 2, "torus"), (3, 3, "torus")]


@lru_cache(maxsize=None)
def _oracle(spec, width, height, boundary):
    """Lattice, group and the materialized Omega (zero-holonomy sector on the
    torus); the largest, z4 or z2xz2 on 3x3, has 65536 rows."""
    lat = Lattice(width, height, boundary)
    grp = parse_group(spec)
    return lat, grp, ground_space(lat, grp)[0]


def _gauge_shift(lat, grp, v, gi):
    """The gradient of the potential g at vertex v alone: a flat shift of
    trivial holonomy, the action of a (possibly incomplete) star."""
    mult = grp.tables()["mult"]
    shifts = []
    for e in lat.edges():
        tail, head = lat.edge_endpoints(e)
        c = ((head == v) - (tail == v)) % grp.order
        if c and mult[c, gi]:
            shifts.append((e, int(mult[c, gi])))
    return AffineMap(grp, lat.n_edges, tuple(shifts))


def _wrap_ribbon(lat, y):
    """Non-contractible ribbon once around the torus along row y."""
    return straight_ribbon(lat, 0, y, "E", lat.width)


def _flat_piece(draw, lat, grp):
    """A map whose shift lies in Omega's group: gauge shifts, stars, closed
    ribbons, plaquette fluxes and single-edge deltas and characters."""
    elems, chars = grp.elements(), grp.characters()
    g = draw(st.sampled_from(elems))
    kind = draw(st.sampled_from(["gauge", "star", "loop", "plaquette", "delta", "char"]))
    if kind == "star":
        full = [v for v in range(lat.n_vertices) if lat.has_full_star(v)]
        if full:
            v = draw(st.sampled_from(full))
            s = Site(v, next(f for f in lat.faces_at_vertex_cw(v) if f is not None))
            return star_g(lat, grp, s, g)
        kind = "gauge"
    if kind == "gauge":
        v = draw(st.integers(0, lat.n_vertices - 1))
        return _gauge_shift(lat, grp, v, grp.index_of(g))
    if kind == "loop":
        try:
            loop = closed_loop_around(Site(lat.vertex_id(1, 1), lat.face_id(1, 1)), 1, lat)
        except LatticeError:
            kind = "plaquette"
        else:
            return ribbon_F(lat, grp, loop, g, draw(st.sampled_from(elems)))
    if kind == "plaquette":
        f = draw(st.integers(0, lat.n_faces - 1))
        base = beta_ribbon(lat, Site(lat.face_corners_ccw(f)[0], f))
        if draw(st.booleans()):
            return ribbon_F(lat, grp, base, grp.identity(), g)
        return ribbon_F_irrep(lat, grp, base, draw(st.sampled_from(chars)), grp.identity())
    # a few edges only, so that deltas and characters meet on the same edge
    e = draw(st.integers(0, min(3, lat.n_edges - 1)))
    if kind == "delta":
        return AffineMap(grp, lat.n_edges, deltas=((((e, 1),), grp.index_of(g)),))
    chi = draw(st.sampled_from(chars))
    return AffineMap(grp, lat.n_edges, chars=((chi, ((e, draw(st.sampled_from([1, -1]))),), grp.index_of(g)),))


def _any_piece(draw, lat, grp):
    """Flat pieces plus maps whose shift leaves Omega's group: open ribbons,
    single-edge shifts and, on the torus, non-contractible ribbons."""
    elems, chars = grp.elements(), grp.characters()
    kind = draw(st.sampled_from(["flat", "flat", "ribbon", "edge shift", "wrap"]))
    if kind == "wrap" and lat.is_torus:
        wrap = _wrap_ribbon(lat, draw(st.integers(0, lat.height - 1)))
        return ribbon_F(lat, grp, wrap, draw(st.sampled_from(elems)), draw(st.sampled_from(elems)))
    if kind == "ribbon":
        sites = list(lat.sites())
        s0, s1 = draw(st.sampled_from(sites)), draw(st.sampled_from(sites))
        try:
            rho = ribbon_between(s0, s1, lat)
        except LatticeError:
            rho = None
        if rho is not None and not rho.is_trivial:
            if draw(st.booleans()):
                return ribbon_F(lat, grp, rho, draw(st.sampled_from(elems)), draw(st.sampled_from(elems)))
            return ribbon_F_irrep(lat, grp, rho, draw(st.sampled_from(chars)), draw(st.sampled_from(elems)))
    if kind == "edge shift":
        e = draw(st.integers(0, lat.n_edges - 1))
        gi = draw(st.integers(1, grp.order - 1))
        return AffineMap(grp, lat.n_edges, shifts=((e, gi),))
    return _flat_piece(draw, lat, grp)


@st.composite
def _opsums(draw, flat_only):
    spec = draw(st.sampled_from(GROUP_SPECS))
    lat, grp, omega = _oracle(spec, *draw(st.sampled_from(LATTICES)))
    piece = _flat_piece if flat_only else _any_piece
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        m = AffineMap.identity(grp, lat.n_edges)
        for _ in range(draw(st.integers(1, 4))):
            m = piece(draw, lat, grp).compose(m)
        # the oracle's SparseState prunes amplitudes below 1e-12, so
        # coefficients stay well above that
        terms.append((draw(st.complex_numbers(min_magnitude=0.1, max_magnitude=1)), m))
    return lat, grp, omega, OpSum.weighted(terms)


@settings(max_examples=150, deadline=None)
@given(case=_opsums(flat_only=False))
def test_omega_expectation_matches_oracle(case):
    lat, grp, omega, op = case
    assert abs(omega_expectation(lat, grp, op) - expectation(omega, op)) < 1e-12


@settings(max_examples=150, deadline=None)
@given(case=_opsums(flat_only=True))
def test_omega_expectation_matches_oracle_on_flat_shifts(case):
    """Composites of flat pieces keep their shift in Omega's group, so every
    term takes the enumerated branch."""
    lat, grp, omega, op = case
    for _, m in op.terms:
        assert in_flat_group(lat, grp, shift_row(lat, m))
    assert abs(omega_expectation(lat, grp, op) - expectation(omega, op)) < 1e-12


@pytest.mark.parametrize("spec", GROUP_SPECS)
def test_omega_expectation_nonzero_values(spec):
    lat, grp, omega = _oracle(spec, 3, 3, "torus")
    g = grp.elements()[1]
    e = lat.edge_id("h", 1, 1)
    s = Site(lat.vertex_id(1, 1), lat.face_id(1, 1))
    delta = AffineMap(grp, lat.n_edges, deltas=((((e, 1),), grp.index_of(g)),))
    chi = grp.characters()[1]
    both = AffineMap(grp, lat.n_edges, deltas=delta.deltas, chars=((chi, ((e, 1),), 0),))
    cases = [
        (star_g(lat, grp, s, g), 1.0),
        (delta, 1.0 / grp.order),
        (both, grp.char_eval(chi, g) / grp.order),
        (star_g(lat, grp, s, g).compose(both), grp.char_eval(chi, g) / grp.order),
    ]
    for op, want in cases:
        assert abs(omega_expectation(lat, grp, op) - want) < 1e-12
        assert abs(expectation(omega, op) - want) < 1e-12


@pytest.mark.parametrize("spec", GROUP_SPECS)
@pytest.mark.parametrize("width", [2, 3])
def test_non_contractible_ribbon_has_zero_expectation(spec, width):
    """A ribbon once around the torus shifts by a flat pattern that changes a
    holonomy: it leaves the zero-holonomy sector, so the answer is 0."""
    lat, grp, omega = _oracle(spec, width, width, "torus")
    g = grp.elements()[1]
    wrap = _wrap_ribbon(lat, 0)
    assert wrap.is_closed
    m = ribbon_F(lat, grp, wrap, g, grp.identity())
    row = shift_row(lat, m)
    assert is_flat(lat, grp, row)[0]
    assert not in_flat_group(lat, grp, row)
    assert omega_expectation(lat, grp, m) == 0
    assert abs(expectation(omega, m)) < 1e-15


def test_omega_expectation_refuses_large_enumerations():
    """A character on every horizontal edge of a 7x7 patch touches all 49
    vertices: 2^48 rows are refused before anything is allocated."""
    lat = Lattice(7, 7, "plane")
    one = (1,)
    h_edges = [e for e in lat.edges() if lat.edge_kind_xy(e)[0] == "h"]
    m = AffineMap(Z2, lat.n_edges, chars=tuple((one, ((e, 1),), 0) for e in h_edges))
    with pytest.raises(GroundStateError, match=r"2\^48 = 281474976710656 .* above the cap of 1048576"):
        omega_expectation(lat, Z2, m)
    edge = AffineMap(Z2, lat.n_edges, chars=((one, ((h_edges[0], 1),), 0),))
    assert abs(omega_expectation(lat, Z2, edge)) < 1e-15


def test_omega_expectation_of_lone_z2_character_is_exactly_zero():
    lat = Lattice(3, 3, "plane")
    for e in lat.edges():
        m = AffineMap(Z2, lat.n_edges, chars=(((1,), ((e, 1),), 0),))
        assert omega_expectation(lat, Z2, m) == 0


def test_flat_connections_refuse_before_allocating():
    with pytest.raises(GroundStateError, match=r"of 2\^143 = \d+ rows on 12x12 .* cap of 4194304"):
        flat_connections(Lattice(12, 12, "plane"), Z2)
    # the package enumerates no torus connection; in the oracle the |G|^2
    # holonomy sectors count: 4^11 gradients fit the cap, 4^13 flat
    # connections do not
    with pytest.raises(GroundStateError, match=r"plane patches only"):
        flat_connections(Lattice(2, 2, "torus"), Z2)
    with pytest.raises(GroundStateError, match=r"of 4\^13 = 67108864 rows on 3x4"):
        torus_flat_connections(Lattice(3, 4, "torus"), group_make([4]))


@pytest.mark.parametrize("spec", ["z3", "z4"])
def test_split_negative_control_correlates(spec):
    """The split check's negative control pairs each drawn A with A† on the
    same edges, so it finds a correlated pair at every seed. With two
    independent draws it found none at seed 4243 for z3 and z4."""
    from qdlattice.experiments import run_split
    from qdlattice.reports import RunConfig

    cfg = RunConfig("split-check", group=spec, lattice="4x4:plane", seed=4243)
    rep = run_split(cfg, parse_group(spec), Lattice(4, 4, "plane"))
    control = rep.checks[1]
    assert control.name == "adjacent supports do correlate (negative control)"
    assert control.status == "pass" and control.max_error > 1e-6
    assert rep.all_passed


@pytest.mark.parametrize("spec", GROUP_SPECS)
@pytest.mark.parametrize("dims,boundary", [((2, 2), "torus"), ((3, 3), "torus"), ((3, 4), "plane")])
def test_face_fluxes_match_per_face_oracle(spec, dims, boundary):
    """Every column of the all-faces walk equals the per-face walk, on
    random configuration rows."""
    lat, grp = Lattice(*dims, boundary), parse_group(spec)
    rows = np.random.default_rng(7).integers(0, grp.order, (300, lat.n_edges), dtype=np.uint8)
    fluxes = face_fluxes(lat, grp, rows)
    assert fluxes.shape == (len(rows), lat.n_faces)
    for f in lat.faces():
        assert np.array_equal(fluxes[:, f], face_flux(lat, grp, rows, f))
    assert np.array_equal(is_flat(lat, grp, rows), ~np.any(fluxes, axis=1))


@pytest.mark.parametrize(
    "grp,spec,note",
    [
        (Z2, "3x3:plane", None),
        (Z2, "4x4:plane", "brute-force cross-check skipped: 2^24 configurations above 2^20"),
        (Z3, "3x3:torus", "exact diagonalization cross-check skipped: 3^18 configurations above 2^20"),
    ],
    ids=["z2-3x3-plane", "z2-4x4-plane", "z3-3x3-torus"],
)
def test_groundstate_report_names_skipped_cross_checks(grp, spec, note):
    """A cross-check dropped by its size condition is named in the details
    of the check before it; a check that runs leaves no such note."""
    from qdlattice.experiments import run_groundstate
    from qdlattice.lattice import parse_lattice
    from qdlattice.reports import RunConfig

    lat = parse_lattice(spec)
    rep = run_groundstate(RunConfig("groundstate"), grp, lat)
    names = [c.name for c in rep.checks]
    # the torus report notes its skip on the stabilizer check, the plane
    # report on the support check
    details = rep.checks[1 if lat.is_torus else 0].details
    cross = "exact diagonalization cross-check" if lat.is_torus else "flat enumeration matches brute force"
    if note is None:
        assert cross in names and "skipped" not in details
    else:
        assert cross not in names and details.endswith(note)
    assert rep.all_passed


@pytest.mark.parametrize("grp", [Z2, Z3], ids=["z2", "z3"])
def test_groundstate_torus_report_is_reproducible_in_process(grp):
    """The exact-diagonalization cross-check starts ARPACK from a fixed
    vector, so two runs in one process give byte-identical reports."""
    from qdlattice.experiments import run_groundstate
    from qdlattice.reports import RunConfig, report_json

    lat = Lattice(2, 2, "torus")
    first, second = (report_json(run_groundstate(RunConfig("groundstate"), grp, lat)) for _ in range(2))
    assert "exact diagonalization cross-check" in first
    assert first == second
