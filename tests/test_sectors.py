import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qdlattice.groups import group_make
from qdlattice.groundstate import ground_state
from qdlattice.lattice import Lattice, LatticeError, Site, ribbon_between
from qdlattice.operators import OpSum, as_opsum, hamiltonian, ribbon_F, ribbon_F_irrep
from qdlattice.sectors import (
    SectorLabel,
    braiding_phase,
    crossing_pair,
    fuse_labels,
    fusion_table,
    omega_charge_moments,
    s_matrix_entry,
    sector_distinguish,
    sector_labels,
    smatrix_geometry,
    transporter,
)

from oracles import (
    charge_moments,
    charged_state,
    conjugate_label,
    detect_charge,
    distance,
    expectation,
    ground_space,
    is_zero,
    norm,
)

Z2 = group_make([2])
Z3 = group_make([3])


def _site(lat, x, y):
    v = lat.vertex_id(x, y)
    return Site(v, next(f for f in lat.faces_at_vertex_cw(v) if f is not None))


def test_label_set_and_conjugates():
    labels = sector_labels(Z3)
    assert len(labels) == 9
    for l in labels:
        assert fuse_labels(Z3, l, conjugate_label(Z3, l)) == SectorLabel(
            Z3.identity(), Z3.identity()
        )


def test_charged_state_detection():
    # both endpoints need complete detectors, so they sit at the two
    # interior vertices of the patch
    lat = Lattice(3, 4, "plane")
    omega = ground_state(lat, Z3)
    rho = ribbon_between(_site(lat, 1, 1), _site(lat, 1, 2), lat)
    for label in sector_labels(Z3):
        if label == SectorLabel(Z3.identity(), Z3.identity()):
            continue
        psi = charged_state(lat, Z3, label, rho, omega)
        assert abs(norm(psi) - 1) < 1e-12
        assert detect_charge(lat, Z3, rho.start, psi) == label
        assert detect_charge(lat, Z3, rho.end, psi) == conjugate_label(Z3, label)


def test_charged_state_energy():
    lat = Lattice(3, 3, "torus")
    omega = ground_space(lat, Z2)[0]
    rho = ribbon_between(_site(lat, 0, 0), _site(lat, 2, 1), lat)
    H = hamiltonian(lat, Z2)
    e0 = expectation(omega, H).real
    assert abs(e0 + lat.n_vertices + lat.n_faces) < 1e-10
    for label, penalty in [
        (SectorLabel((1,), (0,)), 2),  # star violations at the two endpoints
        (SectorLabel((0,), (1,)), 2),  # plaquette violations
        (SectorLabel((1,), (1,)), 4),  # both kinds
    ]:
        psi = charged_state(lat, Z2, label, rho, omega)
        assert abs(expectation(psi, H).real - e0 - penalty) < 1e-10


def test_charged_state_needs_open_ribbon():
    lat = Lattice(3, 3, "torus")
    omega = ground_space(lat, Z2)[0]
    from qdlattice.lattice import closed_loop_around

    loop = closed_loop_around(_site(lat, 1, 1), 1, lat)
    with pytest.raises(LatticeError):
        charged_state(lat, Z2, SectorLabel((1,), (0,)), loop, omega)


def test_sector_distinguish_examples():
    lat = Lattice(3, 3, "torus")
    target = _site(lat, 1, 1)
    far = Site(lat.vertex_id(0, 0), lat.face_id(2, 2))
    vac = SectorLabel(Z2.identity(), Z2.identity())
    electric = SectorLabel((1,), (0,))
    magnetic = SectorLabel((0,), (1,))
    res = sector_distinguish(lat, Z2, vac, electric, target, far)
    assert res.separator is not None and abs(res.gap - 1) < 1e-9
    res = sector_distinguish(lat, Z2, vac, magnetic, target, far)
    assert res.separator is not None and abs(res.gap - 1) < 1e-9
    res = sector_distinguish(lat, Z2, electric, electric, target, far)
    assert res.separator is None


def test_transporter_identity_when_paths_equal():
    lat = Lattice(3, 3, "plane")
    rho = ribbon_between(_site(lat, 0, 0), _site(lat, 2, 1), lat)
    V = transporter(lat, Z2, (1,), (0,), rho, rho, len(rho))
    from qdlattice.operators import AffineMap, same_action

    assert same_action(V, AffineMap.identity(Z2, lat.n_edges))


def test_transporter_fixes_ground_state_and_moves_charge():
    lat = Lattice(3, 3, "plane")
    omega = ground_state(lat, Z3)
    s0 = _site(lat, 0, 0)
    rho1 = ribbon_between(s0, _site(lat, 2, 1), lat)
    rho2 = ribbon_between(s0, _site(lat, 1, 2), lat, avoid_edges=rho1.edges(), allow_reversed=True)
    n = min(len(rho1), len(rho2))
    for chi, c in [((1,), (0,)), ((0,), (1,)), ((2,), (1,))]:
        V = OpSum.of(transporter(lat, Z3, chi, c, rho1, rho2, n))
        assert distance(V.apply(omega), omega) < 1e-10


def test_crossing_pair_shares_two_edges_transversally():
    lat = Lattice(7, 7, "plane")
    rho, sigma = crossing_pair(lat, 3, 3)
    shared = rho.edges() & sigma.edges()
    assert len(shared) == 2
    kinds = {}
    for t in rho.triangles:
        if t.edge in shared:
            kinds.setdefault(t.edge, set()).add(("rho", t.kind))
    for t in sigma.triangles:
        if t.edge in shared:
            kinds.setdefault(t.edge, set()).add(("sigma", t.kind))
    for e, ks in kinds.items():
        assert {k for _, k in ks} == {"direct", "dual"}


@pytest.mark.parametrize("orders", [[2], [3], [4], [2, 2]])
def test_braiding_phase_formula(orders):
    grp = group_make(orders)
    lat = Lattice(7, 7, "plane")
    for l1, l2 in itertools.product(sector_labels(grp), repeat=2):
        lam = braiding_phase(lat, grp, l1, l2)
        pred = grp.char_eval(l1.chi, l2.c) * grp.char_eval(l2.chi, l1.c)
        assert abs(lam - pred) < 1e-10


def test_braiding_phase_z2_mutual_statistics():
    lat = Lattice(7, 7, "plane")
    e = SectorLabel((1,), (0,))
    m = SectorLabel((0,), (1,))
    assert abs(braiding_phase(lat, Z2, e, m) + 1) < 1e-12
    vac = SectorLabel((0,), (0,))
    for other in sector_labels(Z2):
        assert abs(braiding_phase(lat, Z2, vac, other) - 1) < 1e-12


def test_smatrix_entries_and_normalization():
    lat = Lattice(7, 7, "plane")
    geom = smatrix_geometry(lat)
    labels = sector_labels(Z2)
    vac = labels[0]
    for x in labels:
        assert abs(s_matrix_entry(lat, Z2, vac, x, geom) - 1) < 1e-12
    # toric-code pattern: electric vs magnetic gives -1
    e = SectorLabel((1,), (0,))
    m = SectorLabel((0,), (1,))
    assert abs(s_matrix_entry(lat, Z2, e, m, geom) + 1) < 1e-12
    mat = np.array(
        [[s_matrix_entry(lat, Z2, a, b, geom) / Z2.order for b in labels] for a in labels]
    )
    # the normalized table is unitary (it is the modular matrix)
    assert np.allclose(mat @ mat.conj().T, np.eye(len(labels)), atol=1e-10)
    assert np.allclose(mat, mat.T, atol=1e-12)


def test_double_exchange_self_statistics():
    lat = Lattice(7, 7, "plane")
    geom = smatrix_geometry(lat)
    grp = group_make([4])
    for label in sector_labels(grp):
        sim = s_matrix_entry(lat, grp, label, label, geom)
        pred = np.conj(grp.char_eval(label.chi, label.c)) ** 2
        assert abs(sim - pred) < 1e-10


def test_fusion_table_small():
    lat = Lattice(3, 3, "torus")
    rho = ribbon_between(_site(lat, 1, 1), _site(lat, 2, 2), lat)
    table = fusion_table(lat, Z2, rho)
    for (a, b), out in table.items():
        assert out == fuse_labels(Z2, a, b)
    # the four Z2 labels form the toric-code fusion group Z2 x Z2
    labels = sector_labels(Z2)
    orders = set()
    for l in labels:
        if l == labels[0]:
            continue
        assert fuse_labels(Z2, l, l) == labels[0]
        orders.add(2)
    assert orders == {2}


@pytest.mark.parametrize("grp", [Z2, Z3])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_omega_charge_moments_match_state_moments(grp, data):
    """Charge moments of F Omega from the flat-connection group against the
    same moments read off the materialized state, with F a product of two
    ribbon operators in either basis (group-basis ones carry flux deltas, so
    F Omega is not normalized)."""
    lat = Lattice(3, 3, "torus")
    omega = ground_space(lat, grp)[0]
    rho = ribbon_between(_site(lat, 1, 1), _site(lat, 2, 2), lat)
    elems = grp.elements()

    def piece():
        if data.draw(st.booleans(), label="irrep basis"):
            a = data.draw(st.sampled_from(sector_labels(grp)))
            return ribbon_F_irrep(lat, grp, rho, a.chi, a.c)
        return ribbon_F(lat, grp, rho, data.draw(st.sampled_from(elems)), data.draw(st.sampled_from(elems)))

    F = piece().compose(piece())
    psi = as_opsum(F).apply(omega)
    if is_zero(psi):
        return
    s = data.draw(st.sampled_from([rho.start, rho.end]), label="site")
    want = charge_moments(lat, grp, s, psi)
    got = omega_charge_moments(lat, grp, s, F)
    assert set(got) == set(want)
    assert max(abs(got[key] - want[key]) for key in want) < 1e-12
