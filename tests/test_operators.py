import dataclasses
import itertools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import assume, given, settings, strategies as st

from qdlattice import experiments, operators
from qdlattice.experiments import commutation_errors, run_verify
from qdlattice.groundstate import omega_expectations
from qdlattice.groups import group_make, parse_group
from qdlattice.lattice import (
    Lattice,
    LatticeError,
    Ribbon,
    Site,
    closed_loop_around,
    make_triangle,
    ribbon_between,
    ribbon_invert,
)
from qdlattice.operators import (
    CONFIG_BYTES_CAP,
    MATRIX_DIM_CAP,
    NO_PHASE,
    AffineMap,
    OperatorError,
    OpSum,
    alpha_ribbon,
    as_opsum,
    beta_ribbon,
    canonical,
    commutator_phase,
    commutator_table,
    conjugated,
    hamiltonian,
    loop_charge_projector,
    ops_equal,
    plaq_h,
    plaq_proj,
    ribbon_F,
    ribbon_F_irrep,
    same_action,
    star_g,
    star_proj,
    support_matrix,
    to_matrix,
    weyl_rows,
)
from qdlattice.reports import RunConfig
from qdlattice.sectors import truncate
from qdlattice.states import SparseState

from oracles import (
    add,
    all_configs,
    basis,
    charge_projector,
    commutator_by_products,
    distance,
    enumerated_deviation,
    face_flux,
    ground_energy,
    ground_space,
    norm,
    scaled,
    triangle_L,
    triangle_T,
)

Z2 = group_make([2])
Z3 = group_make([3])


def _direct_dual(lat):
    f = lat.face_id(0, 0)
    corners = lat.face_corners_ccw(f)
    direct = make_triangle(lat, Site(corners[0], f), Site(corners[1], f))
    v = corners[1]
    ring = [x for x in lat.faces_at_vertex_cw(v) if x is not None]
    k = ring.index(f)
    dual = make_triangle(lat, Site(v, f), Site(v, ring[(k + 1) % len(ring)]))
    return direct, dual


def test_triangle_T_is_delta():
    lat = Lattice(2, 2, "torus")
    direct, dual = _direct_dual(lat)
    cfgs = all_configs(lat, Z2)
    op = triangle_T(lat, Z2, direct, (1,))
    alive, pnum, out = op.eval(cfgs)
    assert np.array_equal(out, cfgs)
    assert np.all(pnum == 0)
    assert 0 < alive.sum() < len(cfgs)
    total = OpSum.weighted((1.0, triangle_T(lat, Z2, direct, h)) for h in Z2.elements())
    assert ops_equal(total, OpSum.of(AffineMap.identity(Z2, lat.n_edges)), lat.n_edges) == 0
    with pytest.raises(OperatorError):
        triangle_T(lat, Z2, dual, (1,))
    # the ribbon operator of one direct triangle is F^{h,g} = T^g for every h
    tau = Ribbon.from_triangles((direct,))
    for h, g in itertools.product(Z3.elements(), repeat=2):
        assert same_action(ribbon_F(lat, Z3, tau, h, g), triangle_T(lat, Z3, direct, g))


def test_triangle_L_is_shift():
    lat = Lattice(2, 2, "torus")
    direct, dual = _direct_dual(lat)
    op = triangle_L(lat, Z3, dual, (1,))
    inv = triangle_L(lat, Z3, dual, (2,))
    assert same_action(op.compose(inv), AffineMap.identity(Z3, lat.n_edges))
    assert same_action(triangle_L(lat, Z3, dual, (0,)), AffineMap.identity(Z3, lat.n_edges))
    with pytest.raises(OperatorError):
        triangle_L(lat, Z3, direct, (1,))
    # the ribbon operator of one dual triangle is F^{h,g} = delta_{g,e} L^h
    tau = Ribbon.from_triangles((dual,))
    for h in Z3.elements():
        assert same_action(ribbon_F(lat, Z3, tau, h, Z3.identity()), triangle_L(lat, Z3, dual, h))
        for g in Z3.elements()[1:]:
            assert canonical(ribbon_F(lat, Z3, tau, h, g)) is None  # annihilates


def test_ribbon_trivial_is_identity():
    lat = Lattice(3, 3, "torus")
    s = Site(lat.vertex_id(0, 0), lat.face_id(0, 0))
    eps = Ribbon.trivial(s)
    for g, h in itertools.product(Z3.elements(), repeat=2):
        assert same_action(ribbon_F(lat, Z3, eps, g, h), AffineMap.identity(Z3, lat.n_edges))


def test_plaquette_is_flux_projector():
    lat = Lattice(2, 2, "torus")
    for grp in (Z2, Z3):
        cfgs = all_configs(lat, grp)
        for fx, fy in [(0, 0), (1, 0), (0, 1)]:
            f = lat.face_id(fx, fy)
            s = Site(lat.face_corners_ccw(f)[0], f)
            for h in grp.elements():
                alive, pnum, out = plaq_h(lat, grp, s, h).eval(cfgs)
                assert np.array_equal(alive, face_flux(lat, grp, cfgs, f) == grp.index_of(h))
                assert np.array_equal(out, cfgs)
                assert np.all(pnum[alive] == 0)


def test_star_shifts_by_orientation():
    lat = Lattice(2, 2, "torus")
    grp = Z3
    tables = grp.tables()
    cfgs = all_configs(lat, grp)
    v = lat.vertex_id(1, 1)
    s = Site(v, next(f for f in lat.faces_at_vertex_cw(v) if f is not None))
    for g in grp.elements():
        alive, pnum, out = star_g(lat, grp, s, g).eval(cfgs)
        assert np.all(alive) and np.all(pnum == 0)
        expect = cfgs.astype(np.int64).copy()
        gi = grp.index_of(g)
        for e in lat.star_edges(v):
            tail, head = lat.edge_endpoints(e)
            if tail == v:  # edge points out of v: inverse shift
                expect[:, e] = tables["add"][expect[:, e], tables["neg"][gi]]
            if head == v:  # edge points into v: forward shift
                expect[:, e] = tables["add"][expect[:, e], gi]
        assert np.array_equal(out.astype(np.int64), expect)


def test_elementary_closed_ribbons_match_definitions():
    lat = Lattice(3, 3, "torus")
    s = Site(lat.vertex_id(1, 1), lat.face_id(1, 1))
    alpha = alpha_ribbon(lat, s)
    beta = beta_ribbon(lat, s)
    assert alpha.is_closed and len(alpha) == 4
    assert beta.is_closed and len(beta) == 4
    assert alpha.edges() == set(lat.star_edges(s.vertex))
    assert beta.edges() == {e for e, _ in lat.plaq_edges(s.face)}
    for g in Z3.elements():
        assert same_action(
            ribbon_F(lat, Z3, alpha, g, Z3.identity()), star_g(lat, Z3, s, g)
        )
        assert same_action(
            ribbon_F(lat, Z3, beta, Z3.identity(), Z3.inv(g)), plaq_h(lat, Z3, s, g)
        )


def test_star_plaquette_relations():
    lat = Lattice(2, 2, "torus")
    ne = lat.n_edges
    s = Site(lat.vertex_id(0, 0), lat.face_id(0, 0))
    A = star_proj(lat, Z2, s)
    B = plaq_proj(lat, Z2, s)
    assert ops_equal(A @ A, A, ne) < 1e-12
    assert ops_equal(A.adjoint(), A, ne) < 1e-12
    assert ops_equal(B @ B, B, ne) < 1e-12
    s2 = Site(lat.vertex_id(1, 0), lat.face_id(1, 1))
    for k, l in itertools.product(Z2.elements(), repeat=2):
        a = as_opsum(star_g(lat, Z2, s, k))
        b = as_opsum(plaq_h(lat, Z2, s2, l))
        assert ops_equal(a @ b, b @ a, ne) < 1e-12


def test_charge_projector_family():
    lat = Lattice(2, 2, "torus")
    grp = Z3
    ne = lat.n_edges
    s = Site(lat.vertex_id(0, 0), lat.face_id(0, 0))
    total = OpSum(())
    for xi in grp.characters():
        for d in grp.elements():
            D = charge_projector(lat, grp, s, xi, d)
            assert ops_equal(D @ D, D, ne) < 1e-10
            assert ops_equal(D.adjoint(), D, ne) < 1e-10
            total = total + D
    assert ops_equal(total, OpSum.of(AffineMap.identity(grp, ne)), ne) < 1e-10


def test_loop_charge_projector_idempotent():
    lat = Lattice(3, 3, "torus")
    s = Site(lat.vertex_id(1, 1), lat.face_id(1, 1))
    loop = beta_ribbon(lat, s)
    ne = lat.n_edges
    for sig in Z3.characters():
        for c in Z3.elements():
            K = loop_charge_projector(lat, Z3, loop, sig, c)
            assert ops_equal(K @ K, K, ne) < 1e-10
            assert ops_equal(K.adjoint(), K, ne) < 1e-10
    open_ribbon = ribbon_between(
        s, Site(lat.vertex_id(0, 0), lat.face_id(0, 0)), lat
    )
    with pytest.raises(OperatorError):
        loop_charge_projector(lat, Z3, open_ribbon, (1,), (0,))


@pytest.mark.parametrize("grp,degeneracy", [(Z2, 4), (Z3, 9)])
def test_hamiltonian_diagonalization(grp, degeneracy):
    lat = Lattice(2, 2, "torus")
    H = to_matrix(hamiltonian(lat, grp), lat)
    assert abs((H - H.getH()).toarray()).max() < 1e-12
    k = min(H.shape[0] - 2, 3 * degeneracy)
    vals = np.sort(spla.eigsh(H.real, k=k, which="SA", return_eigenvectors=False))
    assert abs(vals[0] - ground_energy(lat)) < 1e-8
    assert ground_energy(lat) == -8
    assert int(np.sum(np.abs(vals - vals[0]) < 1e-8)) == degeneracy


def test_hamiltonian_commutes_with_stabilizers():
    lat = Lattice(2, 2, "torus")
    H = hamiltonian(lat, Z2)
    ne = lat.n_edges
    s = Site(lat.vertex_id(1, 0), lat.face_id(0, 1))
    for g in Z2.elements():
        a = as_opsum(star_g(lat, Z2, s, g))
        assert ops_equal(H @ a, a @ H, ne) < 1e-10


def test_matrix_cap_enforced():
    lat = Lattice(5, 5, "torus")
    with pytest.raises(OperatorError):
        to_matrix(star_proj(lat, Z3, Site(lat.vertex_id(1, 1), lat.face_id(1, 1))), lat)


def test_support_matrix_unit_coefficients():
    # every triangle/ribbon basis map sends a basis state to at most one
    # basis state with unit modulus coefficient
    lat = Lattice(3, 3, "torus")
    s0 = Site(lat.vertex_id(0, 0), lat.face_id(0, 0))
    s1 = Site(lat.vertex_id(2, 1), lat.face_id(1, 1))
    rho = ribbon_between(s0, s1, lat)
    for chi, c in itertools.product(Z3.characters(), Z3.elements()):
        m = ribbon_F_irrep(lat, Z3, rho, chi, c)
        mat = support_matrix(m, sorted(m.support() or {0}), lat.n_edges)
        col_counts = np.diff(mat.tocsc().indptr)
        assert col_counts.max() <= 1
        assert np.all(np.abs(mat.data) - 1 < 1e-12)


def test_canonical_zero_detection():
    lat = Lattice(2, 2, "torus")
    m = AffineMap(
        Z2,
        lat.n_edges,
        deltas=((((0, 1),), 0), (((0, 1),), 1)),  # conflicting constraints
    )
    assert canonical(m) is None


def test_apply_linear_and_annihilating():
    lat = Lattice(2, 2, "torus")
    s = Site(lat.vertex_id(0, 0), lat.face_id(0, 0))
    B = plaq_proj(lat, Z2, s)
    flat = basis([0] * lat.n_edges, 2)
    charged_row = np.zeros((1, lat.n_edges), dtype=np.uint8)
    charged_row[0, 0] = 1
    charged = SparseState(charged_row, np.ones(1, dtype=complex), lat.n_edges, 2)
    out = B.apply(add(flat, scaled(charged, 2.0)))
    # the flat configuration passes, the single-flip one is annihilated at
    # exactly the faces bordering edge 0
    assert distance(out, add(B.apply(flat), scaled(B.apply(charged), 2.0))) < 1e-12


def test_vacuum_detectors_fix_ground_states():
    lat = Lattice(3, 3, "torus")
    omega = ground_space(lat, Z3)[0]
    s = Site(lat.vertex_id(1, 1), lat.face_id(1, 1))
    D_vac = charge_projector(lat, Z3, s, Z3.identity(), Z3.identity())
    assert distance(D_vac.apply(omega), omega) < 1e-12
    from qdlattice.lattice import closed_loop_around

    loop = closed_loop_around(s, 1, lat)
    K_vac = loop_charge_projector(lat, Z3, loop, Z3.identity(), Z3.identity())
    assert distance(K_vac.apply(omega), omega) < 1e-12
    # a nontrivial detector annihilates the vacuum
    D_e = charge_projector(lat, Z3, s, (1,), Z3.identity())
    assert norm(D_e.apply(omega)) < 1e-12


def test_enumeration_refuses_wide_rows_before_allocating():
    # 2^20 rows is within the row cap, but 2^20 rows x 288 edges of uint8
    # is 302 MB
    lat = Lattice(12, 12, "torus")
    s = Site(lat.vertex_id(5, 5), lat.face_id(5, 5))
    op = star_g(lat, Z2, s, (1,))
    support = sorted(set(op.support()) | set(range(20 - len(op.support()))))
    assert len(support) == 20 and Z2.order ** len(support) <= MATRIX_DIM_CAP
    tracemalloc.start()
    try:
        with pytest.raises(OperatorError, match=r"2\^20 = 1048576 rows x 288 edges \(301989888 bytes\)") as err:
            support_matrix(op, support, lat.n_edges)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert f"{CONFIG_BYTES_CAP} bytes" in str(err.value)
    assert peak < 1 << 20


# -- ops_equal against the support_matrix oracle ---------------------------------------

DIFF_GROUPS = {spec: group_make(dims) for spec, dims in [("z2", [2]), ("z3", [3]), ("z4", [4]), ("z2xz2", [2, 2])]}
DIFF_LATTICES = [(w, kind) for w in (2, 3) for kind in ("torus", "plane")]
ORACLE_ROWS = 1 << 16


def _oracle_deviation(a, b, ne):
    """max |support_matrix(a) - support_matrix(b)| on the joint support."""
    a, b = as_opsum(a), as_opsum(b)
    support = sorted(a.support() | b.support()) or [0]
    n = a.terms[0][1].group.order ** len(support)

    def matrix(op):
        return support_matrix(op, support, ne) if op.terms else sp.csr_matrix((n, n))

    diff = matrix(a) - matrix(b)
    return float(abs(diff).max()) if diff.nnz else 0.0


def _local_sites(lat):
    """Sites at the corners of one face, so drawn operators stay small."""
    corners = set(lat.face_corners_ccw(lat.face_id(1, 1) if lat.n_faces > 1 else 0))
    return [s for s in lat.sites() if s.vertex in corners]


def _piece(draw, lat, grp):
    elems, chars = grp.elements(), grp.characters()
    sites = _local_sites(lat)
    g, h = draw(st.sampled_from(elems)), draw(st.sampled_from(elems))
    kind = draw(st.sampled_from(["ribbon", "irrep", "star", "plaquette"]))
    m = None
    if kind in ("ribbon", "irrep"):
        try:
            rho = ribbon_between(draw(st.sampled_from(sites)), draw(st.sampled_from(sites)), lat)
        except LatticeError:
            rho = None
        if rho is not None and not rho.is_trivial:
            if kind == "ribbon":
                m = ribbon_F(lat, grp, rho, g, h)
            else:
                m = ribbon_F_irrep(lat, grp, rho, draw(st.sampled_from(chars)), g)
        else:
            kind = "plaquette"
    if kind == "star":
        full = [s for s in sites if lat.has_full_star(s.vertex)]
        m = star_g(lat, grp, draw(st.sampled_from(full)), g) if full else None
        kind = "plaquette" if m is None else kind
    if kind == "plaquette":
        m = plaq_h(lat, grp, draw(st.sampled_from(sites)), h)
    return m.adjoint() if draw(st.booleans()) else m


def _term(draw, lat, grp):
    m = _piece(draw, lat, grp)
    for _ in range(draw(st.integers(0, 1))):
        m = _piece(draw, lat, grp).compose(m)
    return m


def _coeff(draw):
    return draw(st.complex_numbers(min_magnitude=0.1, max_magnitude=1))


def _with_identity_entry(m, edge):
    """The same operator with an explicit shift by the identity on `edge`."""
    e_id = m.group.index_of(m.group.identity())
    shifts = tuple(sorted(m.shifts + ((edge, e_id),)))
    return AffineMap(m.group, m.n_edges, shifts, m.deltas, m.chars, m.phase)


@st.composite
def _op_pairs(draw):
    grp = DIFF_GROUPS[draw(st.sampled_from(sorted(DIFF_GROUPS)))]
    w, boundary = draw(st.sampled_from(DIFF_LATTICES))
    lat = Lattice(w, w, boundary)
    a = [(_coeff(draw), _term(draw, lat, grp)) for _ in range(draw(st.integers(1, 3)))]
    kind = draw(st.sampled_from(["independent", "rewritten", "perturbed"]))
    if kind == "independent":
        b = [(_coeff(draw), _term(draw, lat, grp)) for _ in range(draw(st.integers(0, 3)))]
    else:
        # the same operator written differently: terms permuted, an
        # equal-shift pair with cancelling coefficients (one side carrying an
        # identity shift entry), and a zero-scaled term
        b = list(draw(st.permutations(a)))
        c, m = _coeff(draw), _term(draw, lat, grp)
        edge = draw(st.sampled_from(sorted(m.support() or {0})))
        b += [(c, m), (-c, _with_identity_entry(m, edge)), (0.0, _term(draw, lat, grp))]
        if kind == "perturbed":
            b.append((_coeff(draw), _term(draw, lat, grp)))
    return lat, grp, OpSum.weighted(a), OpSum.weighted(b)


@settings(max_examples=200, deadline=None)
@given(case=_op_pairs())
def test_ops_equal_matches_support_matrix_oracle(case):
    lat, grp, a, b = case
    assume(grp.order ** len(a.support() | b.support()) <= ORACLE_ROWS)
    assert abs(ops_equal(a, b, lat.n_edges) - _oracle_deviation(a, b, lat.n_edges)) < 1e-12


def test_ops_equal_ignores_identity_shift_entries_and_zero_terms():
    lat = Lattice(3, 3, "torus")
    grp = group_make([4])
    s = Site(lat.vertex_id(1, 1), lat.face_id(1, 1))
    m = star_g(lat, grp, s, (1,)).compose(plaq_h(lat, grp, s, (2,)))
    # an identity entry on an edge m does not touch, and one on a shifted edge
    outside = min(set(range(lat.n_edges)) - m.support())
    marked = _with_identity_entry(_with_identity_entry(m, outside), m.shifts[0][0])
    zero = OpSum.weighted([(0.0, star_g(lat, grp, s, (3,)))])
    assert ops_equal(OpSum.of(marked) + zero, m, lat.n_edges) == 0
    assert _oracle_deviation(OpSum.of(marked) + zero, m, lat.n_edges) == 0


def test_ops_equal_enumerates_only_diagonal_edges():
    # stars at three far-apart vertices shift 12 edges and read none, and the
    # plaquette reads 4: the joint support of 16 edges would need 4^16 rows,
    # above MATRIX_DIM_CAP, while the identity reads only 4^4 configurations
    lat = Lattice(7, 7, "torus")
    grp = group_make([4])
    sites = [Site(lat.vertex_id(x, y), lat.face_id(x, y)) for x, y in ((1, 1), (3, 4), (5, 2))]
    stars = [star_g(lat, grp, s, g) for s, g in zip(sites, [(1,), (2,), (3,)])]
    plaq = plaq_h(lat, grp, Site(lat.vertex_id(4, 6), lat.face_id(4, 6)), (1,))
    lhs = stars[0].compose(stars[1]).compose(plaq).compose(stars[2])
    rhs = plaq.compose(stars[2]).compose(stars[1]).compose(stars[0])
    support = lhs.support() | rhs.support()
    assert len(support - lhs.diagonal_edges()) > 10
    with pytest.raises(OperatorError):
        support_matrix(lhs, sorted(support), lat.n_edges)
    # two half-weight terms on the right keep the equal pair off the
    # normal-form shortcut, so the enumeration decides
    assert ops_equal(lhs, OpSum.weighted([(0.5, rhs), (0.5, rhs)]), lat.n_edges) == 0
    wrong = plaq.compose(stars[2]).compose(stars[1])
    assert ops_equal(lhs, wrong, lat.n_edges) == 1.0


def test_ops_equal_takes_equal_normal_forms_without_enumerating():
    # a z4 irrep operator on a radius-2 loop reads 16 edges: its diagonal
    # configurations, 4^16, are above MATRIX_DIM_CAP. The inverted loop with
    # inverted labels builds the same map; with an identity shift entry
    # added, G is the same operator written differently.
    lat, grp = Lattice(7, 7, "torus"), group_make([4])
    ne = lat.n_edges
    loop = closed_loop_around(Site(lat.vertex_id(3, 3), lat.face_id(3, 3)), 2, lat)
    F = ribbon_F_irrep(lat, grp, loop, (1,), (1,))
    assert F == ribbon_F_irrep(lat, grp, ribbon_invert(loop), (3,), (3,))
    G = _with_identity_entry(F, min(F.diagonal_edges()))
    assert F != G and grp.order ** len(F.diagonal_edges()) > MATRIX_DIM_CAP
    zero = OpSum.weighted([(0.0, star_g(lat, grp, lat.site_at(0), (1,)))])
    assert ops_equal(F, G, ne) == 0.0
    assert ops_equal(OpSum.of(F) + zero, OpSum.of(G).scaled(1.0), ne) == 0.0
    assert ops_equal(zero, OpSum(()), ne) == 0.0
    # one map a side is read off the coefficients the pair attains, with
    # no cap; a sum of two terms still goes to the capped enumeration
    assert ops_equal(F, OpSum.of(G).scaled(-1.0), ne) == 2.0
    with pytest.raises(OperatorError, match="above the cap"):
        ops_equal(F, OpSum.weighted([(0.5, G), (0.5, G)]), ne)



def test_single_map_ops_equal_refuses_above_the_cap():
    """21 independent one-edge deltas take 2^21 values together, above
    MATRIX_DIM_CAP: the single-map path refuses before listing them."""
    pins = tuple((((e, 1),), 1) for e in range(21))
    a, b = AffineMap(Z2, 30, deltas=pins), AffineMap(Z2, 30, shifts=((29, 1),), deltas=pins)
    with pytest.raises(OperatorError, match="above the cap"):
        ops_equal(a, b, 30)

# -- index arithmetic against the tuple-arithmetic reference ----------------------------

ALGEBRA_GROUPS = [group_make(dims) for dims in ([2], [3], [4], [2, 2], [2, 4])]
ALGEBRA_EDGES = 6


def _ref_parts(m):
    """m's characters as (edge, element tuple) pairs and its phase as a
    Fraction of a turn: the reference's format, converted from AffineMap's
    only here."""
    g = m.group
    chars = [(e, g.element_at(ci)) for e, ci in m.chars]
    return chars, Fraction(m.phase, g.phase_denominator)


def _ref_map(g, n_edges, shifts, deltas, chars, phase):
    """An AffineMap from the reference's format: per-edge character tuples
    and a phase in turns, which must be a whole number of 1/L turns."""
    L = g.phase_denominator
    assert (phase * L).denominator == 1
    packed = tuple((e, g.index_of(chi)) for e, chi in chars)
    return AffineMap(g, n_edges, shifts, deltas, packed, int(phase * L) % L)


def _ref_fold_shift(m, coeffs):
    """Element sum of sign*shift(edge), in element tuples."""
    g = m.group
    shifts = dict(m.shifts)
    acc = g.identity()
    for e, sign in coeffs:
        s = g.element_at(shifts.get(e, 0))
        acc = g.mul(acc, s if sign > 0 else g.inv(s))
    return acc


def _ref_picked_up(m, shifts):
    """The phase, in turns, of m's characters read on `shifts` alone:
    the sum over edges of chi_e(shift at e)."""
    g = m.group
    chars, _ = _ref_parts(m)
    return sum((g.char_phase(chi, g.element_at(shifts.get(e, 0))) for e, chi in chars), start=Fraction(0))


def _ref_compose(a, first):
    g = a.group
    shifts = {e: g.element_at(gi) for e, gi in first.shifts}
    for e, gi in a.shifts:
        shifts[e] = g.mul(shifts.get(e, g.identity()), g.element_at(gi))
    new_shifts = tuple(sorted((e, g.index_of(v)) for e, v in shifts.items() if v != g.identity()))
    new_deltas = list(first.deltas)
    for coeffs, target in a.deltas:
        adj = _ref_fold_shift(first, coeffs)
        new_deltas.append((coeffs, g.index_of(g.mul(g.element_at(target), g.inv(adj)))))
    a_chars, a_phase = _ref_parts(a)
    first_chars, first_phase = _ref_parts(first)
    # a's characters read the input already shifted by `first`
    phase = a_phase + first_phase + _ref_picked_up(a, dict(first.shifts))
    chars = dict(first_chars)
    for e, chi in a_chars:
        chars[e] = g.char_mul(chars.get(e, g.identity()), chi)
    new_chars = sorted((e, chi) for e, chi in chars.items() if chi != g.identity())
    return _ref_map(g, a.n_edges, new_shifts, tuple(new_deltas), new_chars, phase % 1)


def _ref_adjoint(m):
    g = m.group
    inv_shifts = tuple(sorted((e, g.index_of(g.inv(g.element_at(gi)))) for e, gi in m.shifts))
    undo = AffineMap(g, m.n_edges, inv_shifts)
    new_deltas = tuple(
        (coeffs, g.index_of(g.mul(g.element_at(target), g.inv(_ref_fold_shift(undo, coeffs)))))
        for coeffs, target in m.deltas
    )
    chars, phase = _ref_parts(m)
    # conj(chi_e(y_e - s_e)) = conj(chi_e)(y_e) chi_e(s_e)
    new_chars = [(e, g.char_conj(chi)) for e, chi in chars]
    phase = _ref_picked_up(m, dict(m.shifts)) - phase
    return _ref_map(g, m.n_edges, inv_shifts, new_deltas, new_chars, phase % 1)


def _ref_canonical(m):
    g = m.group
    e_idx = g.index_of(g.identity())

    def norm_expr(coeffs):
        cs = tuple(sorted(coeffs))
        if cs and cs[0][1] < 0:
            return tuple((e, -s) for e, s in cs), True
        return cs, False

    delta_map = {}
    for coeffs, target in m.deltas:
        cs, flipped = norm_expr(coeffs)
        t = g.index_of(g.inv(g.element_at(target))) if flipped else target
        if not cs and t != e_idx:
            return None
        if not cs:
            continue
        if cs in delta_map and delta_map[cs] != t:
            return None
        delta_map[cs] = t
    chars, phase = _ref_parts(m)
    shifts = tuple(sorted((e, gi) for e, gi in m.shifts if gi != e_idx))
    chars = sorted((e, chi) for e, chi in chars if chi != g.identity())
    return _ref_map(g, m.n_edges, shifts, tuple(sorted(delta_map.items())), chars, phase)


def _expr(draw):
    edges = draw(st.lists(st.integers(0, ALGEBRA_EDGES - 1), unique=True, max_size=4))
    return tuple((e, draw(st.sampled_from([1, -1]))) for e in edges)


def _affine_map(draw, grp):
    index = st.integers(0, grp.order - 1)
    edges = draw(st.lists(st.integers(0, ALGEBRA_EDGES - 1), unique=True, max_size=4))
    shifts = tuple(sorted((e, draw(index)) for e in edges))
    deltas = tuple((_expr(draw), draw(index)) for _ in range(draw(st.integers(0, 3))))
    # characters are packed indices like elements, one nontrivial one per
    # edge, sorted by edge; the phase is a numerator mod L
    char_edges = draw(st.lists(st.integers(0, ALGEBRA_EDGES - 1), unique=True, max_size=4))
    chars = tuple(sorted((e, draw(st.integers(1, grp.order - 1))) for e in char_edges))
    phase = draw(st.integers(0, grp.phase_denominator - 1))
    return AffineMap(grp, ALGEBRA_EDGES, shifts, deltas, chars, phase)


@st.composite
def _map_pairs(draw):
    grp = draw(st.sampled_from(ALGEBRA_GROUPS))
    return _affine_map(draw, grp), _affine_map(draw, grp)


@settings(max_examples=300, deadline=None)
@given(pair=_map_pairs())
def test_index_algebra_matches_tuple_reference(pair):
    a, b = pair
    assert a.compose(b) == _ref_compose(a, b)
    assert a.adjoint() == _ref_adjoint(a)
    for m in (a, a.compose(b), a.adjoint()):
        assert canonical(m) == _ref_canonical(m)


# -- one sorted, nontrivial entry per edge: invariant and completeness ---------------------


def _in_format(m):
    """Shifts and characters sorted by edge, one entry per edge, none the identity."""
    return all(
        [e for e, _ in entries] == sorted({e for e, _ in entries}) and all(i for _, i in entries)
        for entries in (m.shifts, m.chars)
    )


@st.composite
def _lattice_map_pairs(draw):
    grp = DIFF_GROUPS[draw(st.sampled_from(sorted(DIFF_GROUPS)))]
    w, boundary = draw(st.sampled_from(DIFF_LATTICES))
    lat = Lattice(w, w, boundary)
    return _term(draw, lat, grp), _term(draw, lat, grp)


@settings(max_examples=200, deadline=None)
@given(pair=_lattice_map_pairs())
def test_built_maps_keep_one_sorted_nontrivial_entry_per_edge(pair):
    """Ribbon, irrep, star and plaquette maps and their products, adjoints,
    conjugates and normal forms; a a* cancels every entry of a."""
    a, b = pair
    built = [a, b, a.compose(b), b.compose(a), a.adjoint(), a.compose(a.adjoint())]
    built += [conjugated(a, b), conjugated(b, a)]
    built += [c for c in map(canonical, built) if c is not None]
    assert all(_in_format(m) for m in built)


FACTOR_EDGES = 5


def _product(factors, split):
    """The operator product of `factors` in order, grouped as the first
    `split` of them times the rest."""
    left = right = AffineMap.identity(factors[0].group, FACTOR_EDGES)
    for f in factors[:split]:
        left = left.compose(f)
    for f in factors[split:]:
        right = right.compose(f)
    return left.compose(right)


@st.composite
def _rewritten_products(draw):
    """(a, b, n_edges): a product of single-edge shifts, characters and
    phases, and the same factors regrouped, permuted, or with one more."""
    grp = DIFF_GROUPS[draw(st.sampled_from(sorted(DIFF_GROUPS)))]
    index, edge = st.integers(1, grp.order - 1), st.integers(0, FACTOR_EDGES - 1)

    def factor():
        kind = draw(st.sampled_from(["shift", "char", "phase"]))
        if kind == "shift":
            return AffineMap(grp, FACTOR_EDGES, shifts=((draw(edge), draw(index)),))
        if kind == "char":
            return AffineMap(grp, FACTOR_EDGES, chars=((draw(edge), draw(index)),))
        return AffineMap(grp, FACTOR_EDGES, phase=draw(st.integers(1, grp.phase_denominator - 1)))

    factors = [factor() for _ in range(draw(st.integers(1, 6)))]
    splits = st.integers(0, len(factors))
    a = _product(factors, draw(splits))
    kind = draw(st.sampled_from(["regrouped", "permuted", "perturbed"]))
    if kind == "permuted":
        factors = draw(st.permutations(factors))
    elif kind == "perturbed":
        factors.insert(draw(splits), factor())
    return a, _product(factors, draw(st.integers(0, len(factors)))), FACTOR_EDGES


@st.composite
def _split_ribbons(draw):
    """(a, b, n_edges): F_rho against F_rho1 F_rho2 or F_rho2 F_rho1 for
    rho split in two on the 3x3 torus, the second half with rho's labels or
    with labels drawn again."""
    grp = DIFF_GROUPS[draw(st.sampled_from(sorted(DIFF_GROUPS)))]
    lat = Lattice(3, 3, "torus")
    sites = _local_sites(lat)
    rho = ribbon_between(draw(st.sampled_from(sites)), draw(st.sampled_from(sites)), lat)
    assume(len(rho) >= 2)
    k = draw(st.integers(1, len(rho) - 1))
    r1, r2 = truncate(rho, k), Ribbon(rho.triangles[k:], rho.triangles[k].s0)
    chars, elems = st.sampled_from(grp.characters()), st.sampled_from(grp.elements())
    chi, c = draw(chars), draw(elems)
    f1 = ribbon_F_irrep(lat, grp, r1, chi, c)
    f2 = ribbon_F_irrep(lat, grp, r2, *((chi, c) if draw(st.booleans()) else (draw(chars), draw(elems))))
    split = f1.compose(f2) if draw(st.booleans()) else f2.compose(f1)
    return ribbon_F_irrep(lat, grp, rho, chi, c), split, lat.n_edges


@settings(max_examples=300, deadline=None)
@given(case=st.one_of(_rewritten_products(), _split_ribbons()))
def test_maps_without_deltas_have_equal_normal_forms_exactly_when_equal(case):
    """The normal form is complete without deltas: two maps written
    differently compare equal exactly when their matrices agree."""
    a, b, ne = case
    assume(a.group.order ** len(a.support() | b.support()) <= ORACLE_ROWS)
    assert (canonical(a) == canonical(b)) == (_oracle_deviation(a, b, ne) < 1e-9)


# -- commutator phases against the products ----------------------------------------------


@settings(max_examples=300, deadline=None)
@given(pair=_map_pairs())
def test_commutator_phase_matches_products_on_weyl_maps(pair):
    a, b = (dataclasses.replace(m, deltas=()) for m in pair)
    assert commutator_phase(a, b) == commutator_by_products(a, b)


TABLE_GROUPS = [group_make(dims) for dims in ([2], [3], [4], [2, 2], [6], [2, 4])]


@st.composite
def _weyl_families(draw):
    """A group and two families of one to four delta-free maps over it."""
    grp = draw(st.sampled_from(TABLE_GROUPS))
    families = [
        [dataclasses.replace(_affine_map(draw, grp), deltas=()) for _ in range(draw(st.integers(1, 4)))]
        for _ in range(2)
    ]
    return grp, *families


@st.composite
def _table_families(draw):
    """A group and two families of one to four maps over it with shifts,
    characters and deltas. The deltas come from a pool of expressions both
    families share, the empty one among them, so targets agree or conflict
    across a pair and within one map; some maps shift no edge the pool
    reads, so their pairs are read off the arrays."""
    grp = draw(st.sampled_from(TABLE_GROUPS))
    pool = [()] + [_expr(draw) for _ in range(3)]
    read = {e for cs in pool for e, _ in cs}
    target = st.one_of(st.just(0), st.integers(0, grp.order - 1))

    def drawn():
        m = _affine_map(draw, grp)
        deltas = tuple((draw(st.sampled_from(pool)), draw(target)) for _ in range(draw(st.integers(0, 2))))
        shifts = m.shifts if draw(st.booleans()) else tuple(s for s in m.shifts if s[0] not in read)
        return dataclasses.replace(m, shifts=shifts, deltas=deltas)

    return grp, *([drawn() for _ in range(draw(st.integers(1, 4)))] for _ in range(2))


@settings(max_examples=300, deadline=None)
@given(case=st.one_of(_table_families(), _weyl_families()))
def test_commutator_table_matches_commutator_phase_on_every_pair(case):
    grp, fa, fb = case
    want = [[commutator_phase(a, b) for b in fb] for a in fa]
    assert commutator_table(fa, fb).tolist() == [[NO_PHASE if lam is None else lam for lam in row] for row in want]


def test_weyl_rows_packs_shifts_and_characters_of_maps_with_deltas():
    plain = AffineMap(Z3, 4, shifts=((0, 1),), chars=((2, 2),))
    x, z = weyl_rows([plain])
    assert x.shape == z.shape == (1, 4, 1)
    assert x[0, :, 0].tolist() == [1, 0, 0, 0] and z[0, :, 0].tolist() == [0, 0, 2, 0]
    flux = dataclasses.replace(plain, deltas=((((1, 1),), 2),))
    fx, fz = weyl_rows([plain, flux])
    assert np.array_equal(fx, np.concatenate([x, x])) and np.array_equal(fz, np.concatenate([z, z]))


# -- single-map ops_equal against the enumeration ---------------------------------------------

SINGLE_GROUPS = [group_make(dims) for dims in ([2], [3], [4], [2, 2], [6], [2, 3])]


def _implied_delta(draw, m):
    """m with one more delta, the sum of two of its deltas: at their summed
    target the solutions stay and the normal form changes; at any other
    target the system has no solution, though ``canonical`` keeps it."""
    if len(m.deltas) < 2 or not draw(st.booleans()):
        return m
    (c1, t1), (c2, t2) = draw(st.permutations(m.deltas))[:2]
    add = m.group.index_tables[0]
    target = add[add[t1][t2]][draw(st.sampled_from([0, 0, 1 % m.group.order]))]
    return dataclasses.replace(m, deltas=m.deltas + ((c1 + c2, target),))


@st.composite
def _single_map_pairs(draw):
    """One map a side, each with a coefficient: independent maps, maps with
    one shift, one map with other characters on its character edges, or one
    map twice."""
    grp = draw(st.sampled_from(SINGLE_GROUPS))
    a, other = _affine_map(draw, grp), _affine_map(draw, grp)
    kind = draw(st.sampled_from(["independent", "same shift", "same edges", "same map"]))
    if kind == "same shift":
        other = dataclasses.replace(other, shifts=a.shifts)
    if kind == "same edges":
        chars = tuple((e, draw(st.integers(1, grp.order - 1))) for e, _ in a.chars)
        other = dataclasses.replace(a, chars=chars, phase=other.phase)
    b = a if kind == "same map" else other
    coeff = st.sampled_from([1.0, -1.0, 1j, 0.5 - 0.25j, 0.3 + 0.9j])
    return tuple(OpSum.weighted([(draw(coeff), _implied_delta(draw, m))]) for m in (a, b))


@settings(max_examples=300, deadline=None)
@given(pair=_single_map_pairs())
def test_single_map_ops_equal_returns_the_enumerated_deviation(pair):
    """The float the enumeration returns, exactly, and the support-matrix
    deviation."""
    a, b = pair
    got = ops_equal(a, b, ALGEBRA_EDGES)
    assert got == enumerated_deviation(a, b, ALGEBRA_EDGES)
    assert abs(got - _oracle_deviation(a, b, ALGEBRA_EDGES)) < 1e-12


# -- conjugation against the products -------------------------------------------------------


@st.composite
def _conjugation_pairs(draw):
    """(f, m) from ``_affine_map``, each of them sometimes the identity or
    the zero map (an empty delta expression with a nonzero target)."""
    grp = draw(st.sampled_from(ALGEBRA_GROUPS))
    special = {
        "identity": AffineMap.identity(grp, ALGEBRA_EDGES),
        "zero": AffineMap(grp, ALGEBRA_EDGES, deltas=(((), 1),)),
    }
    kinds = st.sampled_from(["drawn", "drawn", "drawn", "identity", "zero"])
    return tuple(special.get(draw(kinds)) or _affine_map(draw, grp) for _ in range(2))


@settings(max_examples=200, deadline=None)
@given(pair=_conjugation_pairs())
def test_conjugated_matches_the_product(pair):
    """f* m f in one pass against the adjoint and two products: as
    operators, under omega on the 3x3 torus, and, for maps without deltas,
    as m times the commutator phase of m and f."""
    f, m = pair
    grp = m.group
    product = f.adjoint().compose(m.compose(f))
    assert ops_equal(conjugated(f, m), product, ALGEBRA_EDGES) < 1e-12
    lat = Lattice(3, 3, "torus")
    tf, tm = (dataclasses.replace(x, n_edges=lat.n_edges) for x in (f, m))
    got, want = omega_expectations(lat, grp, [conjugated(tf, tm), tf.adjoint().compose(tm.compose(tf))])
    assert abs(got - want) < 1e-12
    f, m = (dataclasses.replace(x, deltas=()) for x in pair)
    scaled_m = OpSum.weighted([(grp.tables()["roots"][commutator_phase(m, f)], m)])
    assert ops_equal(conjugated(f, m), scaled_m, ALGEBRA_EDGES) < 1e-12


def test_conjugated_refuses_maps_on_different_groups():
    with pytest.raises(OperatorError, match="different lattices or groups"):
        conjugated(AffineMap.identity(Z2, 4), AffineMap.identity(Z3, 4))


def _raised(form, lam):
    """A normal form with its phase raised by lam; the zero map stays None."""
    if form is None:
        return None
    return dataclasses.replace(form, phase=(form.phase + lam) % form.group.phase_denominator)


@settings(max_examples=300, deadline=None)
@given(pair=st.one_of(_map_pairs(), _conjugation_pairs()))
def test_commutator_phase_matches_the_normal_forms_of_both_products(pair):
    """Maps with deltas and characters, the identity and the zero map: lambda
    relates the normal forms of a b and b a, None means no phase does, and
    two zero products give 0."""
    a, b = pair
    lam = commutator_phase(a, b)
    ab, ba = canonical(a.compose(b)), canonical(b.compose(a))
    if lam is None:
        assert all(ab != _raised(ba, k) for k in range(a.group.phase_denominator))
    else:
        assert ab == _raised(ba, lam)
    if ab is None and ba is None:
        assert lam == 0


def test_commutator_phase_reads_maps_with_deltas():
    """A ribbon projector (a delta) against an irrep map (a character) on the
    same ribbon: the phase relates the normal forms and the operators."""
    lat = Lattice(3, 3, "torus")
    rho = ribbon_between(lat.site_at(lat.vertex_id(1, 1)), lat.site_at(lat.vertex_id(2, 2)), lat)
    F = ribbon_F(lat, Z3, rho, (1,), (0,))
    W = ribbon_F_irrep(lat, Z3, rho, (1,), (1,))
    for a, b in ((F, W), (W, F)):
        lam = commutator_phase(a, b)
        assert lam is not None
        ba = b.compose(a)
        raised = dataclasses.replace(ba, phase=(ba.phase + lam) % Z3.phase_denominator)
        assert canonical(a.compose(b)) == canonical(raised)
        assert ops_equal(a.compose(b), raised, lat.n_edges) < 1e-12
    assert commutator_phase(F, W) == -commutator_phase(W, F) % Z3.phase_denominator


def test_commutation_error_reports_ops_equal_when_a_law_fails():
    """verify's commutation helper on z3 3x3:torus: 0.0 for a law that holds,
    and exactly ``ops_equal``'s deviation of the two products for one that
    does not."""
    lat = Lattice(3, 3, "torus")
    ne = lat.n_edges
    rho = ribbon_between(lat.site_at(lat.vertex_id(0, 0)), lat.site_at(lat.vertex_id(2, 1)), lat)
    s0 = rho.start
    L = Z3.phase_denominator

    def deviation(a, b, lam):
        ba = b.compose(a)
        return ops_equal(a.compose(b), dataclasses.replace(ba, phase=(ba.phase + lam) % L), ne)

    # the plaquette projector against a ribbon that moves flux: no phase at all
    B = plaq_h(lat, Z3, s0, Z3.identity())
    F = ribbon_F_irrep(lat, Z3, rho, (0,), (1,))
    assert commutator_phase(B, F) is None
    err = commutation_errors([B], [F], 0, ne)[0, 0]
    assert err == deviation(B, F, 0) and err > 0.1

    # A^k F = chi(k) F A^k with chi(k) != 1, asked for the wrong phases
    A = star_g(lat, Z3, s0, (1,))
    F = ribbon_F_irrep(lat, Z3, rho, (1,), (0,))
    lam = Z3.index_tables[2][Z3.index_of((1,))][Z3.index_of((1,))]
    assert lam != 0 and commutator_phase(A, F) == lam
    assert commutation_errors([A], [F], lam, ne)[0, 0] == 0.0
    for wrong in (0, lam + 1):
        err = commutation_errors([A], [F], wrong, ne)[0, 0]
        assert err == deviation(A, F, wrong) and err > 0.1


def test_verify_reads_its_laws_from_tables(monkeypatch):
    """verify z3 on 3x3:torus sends at most 20 pairs to the pairwise
    ``commutator_phase`` (it sent all 675 before the tables), and no
    ``ops_equal`` call with at most one live map a side reaches
    ``enumerate_configs``."""
    counts = {"pairwise commutator_phase calls": 0, "single-map ops_equal calls": 0, "single-map enumerations": 0}
    single = [False]
    phase, equal, enumerate_configs = operators.commutator_phase, experiments.ops_equal, operators.enumerate_configs

    def counted_phase(a, b):
        counts["pairwise commutator_phase calls"] += 1
        return phase(a, b)

    def traced_equal(a, b, n_edges):
        live = [sum(c != 0 and canonical(m) is not None for c, m in as_opsum(op).terms) for op in (a, b)]
        single[0] = max(live) <= 1
        counts["single-map ops_equal calls"] += single[0]
        try:
            return equal(a, b, n_edges)
        finally:
            single[0] = False

    def counted_configs(*args):
        counts["single-map enumerations"] += single[0]
        return enumerate_configs(*args)

    monkeypatch.setattr(operators, "commutator_phase", counted_phase)
    monkeypatch.setattr(operators, "enumerate_configs", counted_configs)
    monkeypatch.setattr(experiments, "ops_equal", traced_equal)
    cfg = RunConfig("verify", group="z3", lattice="3x3:torus", tol=1e-10)
    assert run_verify(cfg, parse_group("z3"), Lattice(3, 3, "torus")).all_passed
    assert counts["pairwise commutator_phase calls"] <= 20, counts
    assert counts["single-map ops_equal calls"] > 0 and counts["single-map enumerations"] == 0, counts
