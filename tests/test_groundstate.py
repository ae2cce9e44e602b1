import itertools
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qdlattice import groundstate
from qdlattice.groups import group_make, parse_group
from qdlattice.groundstate import (
    GroundStateError,
    connection_projector,
    edges_of_faces,
    face_fluxes,
    omega_distances,
    omega_expectations,
    sector_shift,
    shift_fluxes,
    vertex_characters,
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
    MATRIX_DIM_CAP,
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
    all_configs,
    count_flat_on_faces,
    distance,
    expectation,
    face_flux,
    flat_connections,
    ground_space,
    ground_state,
    in_flat_group,
    inner,
    is_flat,
    norm,
    omega_distance,
    omega_expectation,
    potential_means,
    scaled,
    shift_rows,
    torus_flat_connections,
    torus_holonomies,
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
    if grp.order**lat.n_edges > MATRIX_DIM_CAP:
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
    for assignment in itertools.product(range(Z2.order), repeat=len(edges)):
        sub = dict(zip(edges, assignment))
        proj = connection_projector(lat, Z2, sub)
        row = np.zeros((1, lat.n_edges), dtype=np.uint8)
        row[0, edges] = assignment
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
    sign = draw(st.sampled_from([1, -1]))
    return AffineMap(grp, lat.n_edges, chars=((grp.index_of(chi), ((e, sign),), grp.index_of(g)),))


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


def _draw_opsum(draw, lat, grp, piece):
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        m = AffineMap.identity(grp, lat.n_edges)
        for _ in range(draw(st.integers(1, 4))):
            m = piece(draw, lat, grp).compose(m)
        # the oracle's SparseState prunes amplitudes below 1e-12, so
        # coefficients stay well above that
        terms.append((draw(st.complex_numbers(min_magnitude=0.1, max_magnitude=1)), m))
    return OpSum.weighted(terms)


@st.composite
def _opsums(draw, flat_only):
    spec = draw(st.sampled_from(GROUP_SPECS))
    lat, grp, omega = _oracle(spec, *draw(st.sampled_from(LATTICES)))
    piece = _flat_piece if flat_only else _any_piece
    return lat, grp, omega, _draw_opsum(draw, lat, grp, piece)


@st.composite
def _batches(draw):
    """Several drawn ops on one oracle lattice, plus a single-edge shift (not
    flat), a ribbon once around the torus (flat, but it changes a holonomy),
    an empty OpSum and a repeat, in a drawn order."""
    spec = draw(st.sampled_from(GROUP_SPECS))
    lat, grp, omega = _oracle(spec, *draw(st.sampled_from(LATTICES)))
    ops = [_draw_opsum(draw, lat, grp, _any_piece) for _ in range(draw(st.integers(2, 4)))]
    g = grp.elements()[1]
    ops.append(AffineMap(grp, lat.n_edges, shifts=((lat.n_edges - 1, 1),)))
    if lat.is_torus:
        ops.append(ribbon_F(lat, grp, _wrap_ribbon(lat, 0), g, grp.identity()))
    ops += [OpSum(()), ops[0]]
    order = draw(st.permutations(range(len(ops))))
    return lat, grp, omega, [ops[i] for i in order]


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
        assert in_flat_group(lat, grp, shift_rows(lat, [m]))
    assert abs(omega_expectation(lat, grp, op) - expectation(omega, op)) < 1e-12


@settings(max_examples=40, deadline=None)
@given(case=_batches())
def test_omega_expectations_batch_matches_oracle_and_batch_of_one(case):
    """A batch gives each op the oracle's value, and exactly the value the
    op gets alone: grouping terms by vertex set changes no arithmetic."""
    lat, grp, omega, ops = case
    got = omega_expectations(lat, grp, ops)
    assert len(got) == len(ops)
    for op, val in zip(ops, got):
        assert abs(val - expectation(omega, op)) < 1e-12
        assert val == omega_expectation(lat, grp, op)


@pytest.mark.parametrize("spec", GROUP_SPECS)
def test_omega_expectation_nonzero_values(spec):
    lat, grp, omega = _oracle(spec, 3, 3, "torus")
    g = grp.elements()[1]
    e = lat.edge_id("h", 1, 1)
    s = Site(lat.vertex_id(1, 1), lat.face_id(1, 1))
    delta = AffineMap(grp, lat.n_edges, deltas=((((e, 1),), grp.index_of(g)),))
    chi = grp.characters()[1]
    chars = ((grp.index_of(chi), ((e, 1),), 0),)
    both = AffineMap(grp, lat.n_edges, deltas=delta.deltas, chars=chars)
    cases = [
        (star_g(lat, grp, s, g), 1.0),
        (delta, 1.0 / grp.order),
        (both, grp.char_eval(chi, g) / grp.order),
        (star_g(lat, grp, s, g).compose(both), grp.char_eval(chi, g) / grp.order),
    ]
    for op, want in cases:
        assert abs(omega_expectation(lat, grp, op) - want) < 1e-12
        assert abs(expectation(omega, op) - want) < 1e-12


SOLVER_GROUPS = ["z2", "z3", "z4", "z5", "z6", "z2xz2", "z2xz4"]


@st.composite
def _delta_systems(draw):
    """(group, system, factors, vertices): 1 to 4 delta forms on 2 to 4
    vertices and 1 to 4 terms that test them, with deltas only, vertex
    characters only or both. A form's multiplicities sum to zero, as on a
    gradient; 3 or 4 forms on 2 vertices leave rows without a pivot. Half
    the terms take their targets from one potential, so that they have
    solutions, and half their characters from the forms, as the characters
    of a map on the edges of its own deltas, so that they survive."""
    grp = parse_group(draw(st.sampled_from(SOLVER_GROUPS)))
    add, mult = grp.tables()["add"], grp.tables()["mult"]
    n, L = grp.order, grp.phase_denominator
    size = draw(st.integers(2, 4))
    kind = draw(st.sampled_from(["deltas", "chars", "both"]))
    elements = st.integers(0, n - 1)

    def form():
        coeffs = draw(st.lists(elements, min_size=size - 1, max_size=size - 1))
        coeffs.append(-sum(coeffs) % n)
        return tuple((v, c) for v, c in enumerate(coeffs) if c)

    def value(f, phi):
        out = 0
        for v, c in f:
            out = int(add[out, mult[c, phi[v]]])
        return out

    def combination(forms, weights):
        """Per vertex, sum over forms f of weight_f * f, in the group."""
        out = {}
        for f, k in zip(forms, weights):
            for v, c in f:
                out[v] = int(add[out.get(v, 0), mult[c, k]])
        return out

    forms = tuple(sorted({form() for _ in range(draw(st.integers(1, 4)))} - {()}))
    system = () if kind == "chars" else forms
    factors = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            phi = draw(st.lists(elements, min_size=size, max_size=size))
            deltas = {f: value(f, phi) for f in system}
        else:
            deltas = {f: draw(elements) for f in system}
        chars = {}
        if kind != "deltas":
            if draw(st.booleans()):
                chars = combination(forms, draw(st.lists(elements, min_size=len(forms), max_size=len(forms))))
            else:
                chars = draw(st.dictionaries(st.integers(0, size - 1), elements, min_size=1))
        factors.append((draw(st.integers(0, L - 1)), deltas, chars))
    return grp, system, factors, list(range(size))


@settings(max_examples=400, deadline=None)
@given(case=_delta_systems())
def test_system_means_match_the_potential_enumeration(case):
    """The diagonal-form solver against the enumeration of every potential,
    term by term; a vanishing term is exactly 0."""
    grp, system, factors, vertices = case
    got = groundstate._system_means(grp, system, factors)
    want = potential_means(grp, factors, vertices)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert abs(g - w) < 1e-12
        assert g == 0 or abs(w) > 1e-9


@pytest.mark.parametrize("targets,want", [((1, 2, 3), 0.2), ((0, 0, 1), 0.0), ((1, 2, 4), 0.0)])
def test_system_means_need_dependent_targets_to_agree(targets, want):
    """x = φ0 - φ1 tested as x, 2x and 3x in z5: three forms on two
    vertices, so the third row of the diagonal form has no pivot. Targets
    (0, 0, 1) pass both pivots' tests and fail only that row's."""
    z5 = group_make([5])
    system = (((0, 1), (1, 4)), ((0, 2), (1, 3)), ((0, 3), (1, 2)))
    factors = [(0, dict(zip(system, targets)), {})]
    assert potential_means(z5, factors, [0, 1]) == [want]
    assert groundstate._system_means(z5, system, factors) == [want]


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
    row = shift_rows(lat, [m])
    assert is_flat(lat, grp, row)[0]
    assert not in_flat_group(lat, grp, row)
    assert omega_expectation(lat, grp, m) == 0
    assert abs(expectation(omega, m)) < 1e-15


def _every_h_edge(lat, grp):
    """The nontrivial character on every horizontal edge of the patch."""
    h_edges = [e for e in lat.edges() if lat.edge_kind_xy(e)[0] == "h"]
    return AffineMap(grp, lat.n_edges, chars=tuple((1, ((e, 1),), 0) for e in h_edges))


def _vertex_rule(lat, grp, m):
    """1 when every vertex character of m is trivial, else 0."""
    return 0j if vertex_characters(lat, grp, [m]).any() else 1 + 0j


def test_omega_expectation_of_every_h_edge_character_follows_the_vertex_rule():
    """A character on every horizontal edge of a 7x7 patch touches all 49
    vertices (2^48 potential rows) and evaluates exactly to the rule of
    ``vertex_characters``: 0, since each row telescopes to its two end
    vertices. Every face boundary together telescopes to nothing: 1."""
    lat = Lattice(7, 7, "plane")
    m = _every_h_edge(lat, Z2)
    assert omega_expectation(lat, Z2, m) == _vertex_rule(lat, Z2, m) == 0
    loops = AffineMap(
        Z2, lat.n_edges, chars=tuple((1, ((e, sign),), 0) for f in lat.faces() for e, sign in lat.plaq_edges(f))
    )
    assert omega_expectation(lat, Z2, loops) == _vertex_rule(lat, Z2, loops) == 1
    edge = AffineMap(Z2, lat.n_edges, chars=(m.chars[0],))
    assert omega_expectation(lat, Z2, edge) == 0


@pytest.mark.parametrize("position", [0, 1, 2])
def test_omega_expectations_refuse_an_over_cap_op_anywhere_in_a_batch(position):
    """The op that enumerating potentials refused, 2^48 rows above its cap of
    2^20, is refused no longer: at any position of a batch it evaluates
    exactly, by the vertex rule, and leaves the other terms as they are."""
    lat = Lattice(7, 7, "plane")
    big = _every_h_edge(lat, Z2)
    edge = AffineMap(Z2, lat.n_edges, chars=(big.chars[0],))
    ops = [edge, OpSum.of(edge, edge)]
    ops.insert(position, big)
    got = omega_expectations(lat, Z2, ops)
    assert got[position] == _vertex_rule(lat, Z2, big) == 0
    assert [v for k, v in enumerate(got) if k != position] == [0, 0]


def test_omega_expectation_of_lone_z2_character_is_exactly_zero():
    lat = Lattice(3, 3, "plane")
    for e in lat.edges():
        m = AffineMap(Z2, lat.n_edges, chars=((1, ((e, 1),), 0),))
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


FLUX_GROUPS = ["z2", "z3", "z4", "z2xz2", "z2xz4", "z6"]
FLUX_LATTICES = [((3, 3), "plane"), ((3, 4), "plane"), ((2, 2), "torus"), ((3, 3), "torus"), ((4, 3), "torus")]


@st.composite
def _shift_batches(draw):
    """A group, a lattice and a batch of maps, each with what its checks
    must read (None for a random shift): (0, 0) for the identity and for a
    product of stars, and the sector's holonomy indices when the product
    also holds a ``sector_shift``."""
    grp = parse_group(draw(st.sampled_from(FLUX_GROUPS)))
    dims, boundary = draw(st.sampled_from(FLUX_LATTICES))
    lat = Lattice(*dims, boundary)
    elements = grp.elements()
    full = [v for v in range(lat.n_vertices) if lat.has_full_star(v)]
    batch = []
    for kind in draw(st.lists(st.sampled_from(["identity", "random", "flat"]), max_size=10)):
        m = AffineMap.identity(grp, lat.n_edges)
        if kind == "random":
            values = draw(st.lists(st.integers(0, grp.order - 1), min_size=lat.n_edges, max_size=lat.n_edges))
            m = AffineMap(grp, lat.n_edges, shifts=tuple((e, gi) for e, gi in enumerate(values) if gi))
            batch.append((m, None))
            continue
        a = b = 0
        if kind == "flat":
            for v in draw(st.lists(st.sampled_from(full), max_size=4)):
                m = m.compose(star_g(lat, grp, lat.site_at(v), draw(st.sampled_from(elements))))
            if lat.is_torus:
                a, b = draw(st.integers(0, grp.order - 1)), draw(st.integers(0, grp.order - 1))
                m = m.compose(sector_shift(lat, grp, a, b))
        batch.append((m, (a, b)))
    return lat, grp, batch


@settings(max_examples=200, deadline=None)
@given(case=_shift_batches())
def test_shift_fluxes_match_the_dense_walks(case):
    """The incidence read of every map's face fluxes and holonomies against
    the dense ``face_fluxes`` and ``torus_holonomies`` walks of its shift
    row, value by value; a map has no entry exactly when ``in_flat_group``
    holds, and products of stars and sector shifts read the sector's
    holonomies and no face flux."""
    lat, grp, batch = case
    maps = [m for m, _ in batch]
    owner, row, flux = shift_fluxes(lat, grp, maps)
    assert len(owner) == len(row) == len(flux)
    assert np.all(flux != 0)
    keys = owner * (lat.n_faces + 2) + row
    assert np.all(np.diff(keys) > 0)
    got = np.zeros((len(maps), lat.n_faces + 2), dtype=np.int64)
    got[owner, row] = flux
    rows = shift_rows(lat, maps)
    assert np.array_equal(got[:, : lat.n_faces], face_fluxes(lat, grp, rows))
    holonomies = np.stack(torus_holonomies(lat, grp, rows), axis=1) if lat.is_torus else 0
    assert np.array_equal(got[:, lat.n_faces :], np.broadcast_to(holonomies, (len(maps), 2)))
    for r, (m, holonomies) in enumerate(batch):
        assert (r not in owner) == in_flat_group(lat, grp, rows[r : r + 1])
        if holonomies is not None:
            assert not got[r, : lat.n_faces].any()
            assert tuple(got[r, lat.n_faces :]) == holonomies


def test_shift_fluxes_of_an_empty_batch():
    for lat in (Lattice(3, 3, "plane"), Lattice(2, 2, "torus")):
        assert [len(x) for x in shift_fluxes(lat, Z3, [])] == [0, 0, 0]
        assert omega_expectations(lat, Z3, []) == []


def test_flat_group_test_memory_follows_the_shift_entries():
    """``omega_expectations`` on the 1444 star shifts of a 40x40 plane:
    the flatness test reads the shift entries through the incidence table,
    so no (maps x edges) or (maps x faces) array is made. Dense shift rows
    and face fluxes peaked at 13 MB here."""
    lat = Lattice(40, 40, "plane")
    stars = [
        AffineMap(Z2, lat.n_edges, shifts=tuple(sorted((e, 1) for e in lat.star_edges(v))))
        for v in range(lat.n_vertices)
        if lat.has_full_star(v)
    ]
    omega_expectations(lat, Z2, stars[:1])  # the lattice and group tables
    tracemalloc.start()
    try:
        values = omega_expectations(lat, Z2, stars)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert values == [1] * len(stars)
    assert peak < 4 << 20, peak


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
@pytest.mark.parametrize("size", [2, 3])
def test_groundstate_flat_count_matches_brute_force_oracle(grp, size):
    """The connection-projector check's #flat, read off the flatness mask
    of its own assignments, equals the brute-force count."""
    from qdlattice.experiments import run_groundstate
    from qdlattice.reports import RunConfig

    lat = Lattice(size, size, "plane")
    faces = [0] if lat.n_faces == 1 else [0, 1]
    check = run_groundstate(RunConfig("groundstate"), grp, lat).checks[-1]
    assert check.name == "connection projector expectations" and check.status == "pass"
    assert check.details.startswith(f"{count_flat_on_faces(lat, grp, faces)} flat and ")


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


# -- one batch per check -----------------------------------------------------------------


@pytest.fixture
def batch_calls(monkeypatch):
    """Counts omega_expectations calls, through every module binding of it."""
    from qdlattice import experiments, groundstate, sectors

    calls = []
    original = groundstate.omega_expectations

    def counting(lat, group, ops):
        calls.append(len(ops))
        return original(lat, group, ops)

    for mod in (groundstate, experiments, sectors):
        monkeypatch.setattr(mod, "omega_expectations", counting)
    return calls


def test_split_check_makes_two_batches(batch_calls):
    from qdlattice.experiments import run_split
    from qdlattice.reports import RunConfig

    rep = run_split(RunConfig("split-check", lattice="4x4:plane"), Z2, Lattice(4, 4, "plane"))
    assert rep.all_passed
    assert 0 < len(batch_calls) <= 2


def test_groundstate_makes_at_most_three_batches(batch_calls):
    from qdlattice.experiments import run_groundstate
    from qdlattice.reports import RunConfig

    rep = run_groundstate(RunConfig("groundstate"), Z2, Lattice(3, 3, "plane"))
    assert rep.all_passed
    assert 0 < len(batch_calls) <= 3


def test_fusion_table_makes_no_more_batches_than_labels(batch_calls):
    from qdlattice.sectors import fusion_table, sector_labels

    lat = Lattice(3, 3, "torus")
    s0, s1 = (Site(lat.vertex_id(x, x), lat.face_id(x, x)) for x in (1, 2))
    rho = ribbon_between(s0, s1, lat)
    table = fusion_table(lat, Z2, rho)
    assert None not in table.values()
    assert 0 < len(batch_calls) <= len(sector_labels(Z2))
