import itertools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import assume, given, settings, strategies as st

from qdlattice.groups import group_make
from qdlattice.groundstate import all_configs, face_flux
from qdlattice.lattice import Lattice, LatticeError, Ribbon, Site, make_triangle, ribbon_between
from qdlattice.operators import (
    CONFIG_BYTES_CAP,
    MATRIX_DIM_CAP,
    AffineMap,
    OperatorError,
    OpSum,
    alpha_ribbon,
    as_opsum,
    beta_ribbon,
    canonical,
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
)
from qdlattice.states import SparseState

from oracles import (
    add,
    basis,
    charge_projector,
    distance,
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
    assert ops_equal(lhs, rhs, lat.n_edges) == 0
    wrong = plaq.compose(stars[2]).compose(stars[1])
    assert ops_equal(lhs, wrong, lat.n_edges) == 1.0


# -- index arithmetic against the tuple-arithmetic reference ----------------------------

ALGEBRA_GROUPS = [group_make(dims) for dims in ([2], [3], [4], [2, 2], [2, 4])]
ALGEBRA_EDGES = 6


def _ref_fold_shift(m, coeffs):
    """Element sum of sign*shift(edge), in element tuples."""
    g = m.group
    shifts = dict(m.shifts)
    acc = g.identity()
    for e, sign in coeffs:
        s = g.element_at(shifts.get(e, 0))
        acc = g.mul(acc, s if sign > 0 else g.inv(s))
    return acc


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
    new_chars = list(first.chars)
    for chi, coeffs, offset in a.chars:
        adj = _ref_fold_shift(first, coeffs)
        new_chars.append((chi, coeffs, g.index_of(g.mul(g.element_at(offset), adj))))
    return AffineMap(
        g, a.n_edges, new_shifts, tuple(new_deltas), tuple(new_chars), (a.phase + first.phase) % 1
    )


def _ref_adjoint(m):
    g = m.group
    inv_shifts = tuple(sorted((e, g.index_of(g.inv(g.element_at(gi)))) for e, gi in m.shifts))
    undo = AffineMap(g, m.n_edges, inv_shifts)
    new_deltas = tuple(
        (coeffs, g.index_of(g.mul(g.element_at(target), g.inv(_ref_fold_shift(undo, coeffs)))))
        for coeffs, target in m.deltas
    )
    new_chars = tuple(
        (g.char_conj(chi), coeffs, g.index_of(g.mul(g.element_at(offset), _ref_fold_shift(undo, coeffs))))
        for chi, coeffs, offset in m.chars
    )
    return AffineMap(g, m.n_edges, inv_shifts, new_deltas, new_chars, (-m.phase) % 1)


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
    phase = m.phase
    char_map = {}
    for chi, coeffs, offset in m.chars:
        phase = (phase + g.char_phase(chi, g.element_at(offset))) % 1
        cs, flipped = norm_expr(coeffs)
        ch = g.char_conj(chi) if flipped else chi
        if not cs:
            continue
        char_map[cs] = g.char_mul(char_map.get(cs, g.identity()), ch)
    chars = tuple(sorted((ch, cs, e_idx) for cs, ch in char_map.items() if ch != g.identity()))
    return AffineMap(
        g, m.n_edges, tuple(sorted(m.shifts)), tuple(sorted(delta_map.items())), chars, phase
    )


def _expr(draw):
    edges = draw(st.lists(st.integers(0, ALGEBRA_EDGES - 1), unique=True, max_size=4))
    return tuple((e, draw(st.sampled_from([1, -1]))) for e in edges)


def _affine_map(draw, grp):
    index = st.integers(0, grp.order - 1)
    edges = draw(st.lists(st.integers(0, ALGEBRA_EDGES - 1), unique=True, max_size=4))
    shifts = tuple(sorted((e, draw(index)) for e in edges))
    deltas = tuple((_expr(draw), draw(index)) for _ in range(draw(st.integers(0, 3))))
    chars = tuple(
        (draw(st.sampled_from(grp.characters())), _expr(draw), draw(index))
        for _ in range(draw(st.integers(0, 3)))
    )
    L = grp.phase_denominator
    phase = Fraction(draw(st.integers(0, L - 1)), L)
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
