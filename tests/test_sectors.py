import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qdlattice.groups import group_make, phase_to_complex
from qdlattice.lattice import Lattice, LatticeError, Site, parse_lattice, ribbon_between
from qdlattice.operators import OpSum, as_opsum, hamiltonian, ribbon_F, ribbon_F_irrep
from qdlattice.operators import commutator_phase
from qdlattice.sectors import (
    SectorLabel,
    braiding_phase,
    crossing_pair,
    fuse_labels,
    fusion_table,
    omega_charge_moments,
    s_matrix_entries,
    sector_distinguish,
    sector_labels,
    smatrix_geometry,
    transporter,
)

from oracles import (
    charge_moments,
    charged_state,
    commutator_by_products,
    conjugate_label,
    detect_charge,
    distance,
    expectation,
    ground_space,
    ground_state,
    is_zero,
    label_from_moments,
    norm,
    phase_of_map,
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
    rho, sigma = crossing_pair(lat)
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


@pytest.mark.parametrize("spec", ["7x7:plane", "3x3:torus"])
@pytest.mark.parametrize("orders", [[2], [3], [4], [2, 2]])
def test_commutator_phase_matches_products_on_the_crossing_pair(orders, spec):
    """On every label pair of the crossing pair, the commutator phase read
    off shifts and characters equals the quotient of the two products."""
    grp = group_make(orders)
    lat = parse_lattice(spec)
    rho, sigma = crossing_pair(lat)
    for l1, l2 in itertools.product(sector_labels(grp), repeat=2):
        f1 = ribbon_F_irrep(lat, grp, rho, l1.chi, l1.c)
        f2 = ribbon_F_irrep(lat, grp, sigma, l2.chi, l2.c)
        assert commutator_phase(f1, f2) == commutator_by_products(f1, f2)


@pytest.mark.parametrize("orders", [[2], [3], [4], [2, 2], [2, 4]])
def test_exchange_phase_matches_the_product_of_four_maps(orders):
    """Every entry of s_matrix_entries, for every label pair in both
    orientations, is the root of unity of its exchange scalar V* Fs V Fs*,
    built from four products. The hat ribbon crosses no spectator, so each
    layout also runs with its hat and transport path swapped, where the hat
    factor carries the crossing."""
    grp = group_make(orders)
    lat = Lattice(7, 7, "plane")
    labels = sector_labels(grp)
    pairs = list(itertools.product(labels, repeat=2))
    roots = grp.tables()["roots"]

    def exchange(mover, hat, transport, spectator_label, spectator):
        V = ribbon_F_irrep(lat, grp, hat, mover.chi, mover.c).compose(
            ribbon_F_irrep(lat, grp, transport, grp.char_conj(mover.chi), grp.inv(mover.c))
        )
        Fs = ribbon_F_irrep(lat, grp, spectator, spectator_label.chi, spectator_label.c)
        return phase_of_map(V.adjoint().compose(Fs).compose(V).compose(Fs.adjoint()))

    for reversed_orientation in (False, True):
        g = smatrix_geometry(lat, reversed_orientation)
        swapped = dataclasses.replace(g, rho2_hat=g.transport2, transport2=g.rho2_hat)
        for geom in (g, swapped):
            for (a, b), entry in zip(pairs, s_matrix_entries(lat, grp, pairs, geom)):
                want = exchange(b, geom.rho2_hat, geom.transport2, a, geom.rho1)
                assert entry == complex(roots[want % grp.phase_denominator])


@pytest.mark.parametrize("orders", [[2], [3], [4], [2, 2]])
def test_braiding_phase_formula(orders):
    grp = group_make(orders)
    lat = Lattice(7, 7, "plane")
    pair = crossing_pair(lat)
    for l1, l2 in itertools.product(sector_labels(grp), repeat=2):
        lam = braiding_phase(lat, grp, l1, l2, pair)
        pred = grp.char_eval(l1.chi, l2.c) * grp.char_eval(l2.chi, l1.c)
        assert abs(lam - pred) < 1e-10


@pytest.mark.parametrize("orders", [[4], [2, 2]])
def test_braiding_and_s_matrix_are_exact_turns(orders):
    """Both scalars equal phase_to_complex of the exact formula phase, with
    no tolerance: the quarter turns come out as exact 1, i, -1, -i."""
    grp = group_make(orders)
    lat = Lattice(7, 7, "plane")
    geom = smatrix_geometry(lat)
    pair = crossing_pair(lat)
    pairs = list(itertools.product(sector_labels(grp), repeat=2))
    for (l1, l2), entry in zip(pairs, s_matrix_entries(lat, grp, pairs, geom)):
        # chi1(c2) chi2(c1) as an exact fraction of a turn
        turns = (grp.char_phase(l1.chi, l2.c) + grp.char_phase(l2.chi, l1.c)) % 1
        assert braiding_phase(lat, grp, l1, l2, pair) == phase_to_complex(turns)
        assert entry == phase_to_complex(-turns)


def test_braiding_phase_z2_mutual_statistics():
    lat = Lattice(7, 7, "plane")
    e = SectorLabel((1,), (0,))
    m = SectorLabel((0,), (1,))
    pair = crossing_pair(lat)
    assert abs(braiding_phase(lat, Z2, e, m, pair) + 1) < 1e-12
    vac = SectorLabel((0,), (0,))
    for other in sector_labels(Z2):
        assert abs(braiding_phase(lat, Z2, vac, other, pair) - 1) < 1e-12


def test_smatrix_entries_and_normalization():
    lat = Lattice(7, 7, "plane")
    geom = smatrix_geometry(lat)
    labels = sector_labels(Z2)
    vac = labels[0]
    for entry in s_matrix_entries(lat, Z2, [(vac, x) for x in labels], geom):
        assert abs(entry - 1) < 1e-12
    # toric-code pattern: electric vs magnetic gives -1
    e = SectorLabel((1,), (0,))
    m = SectorLabel((0,), (1,))
    assert abs(s_matrix_entries(lat, Z2, [(e, m)], geom)[0] + 1) < 1e-12
    entries = s_matrix_entries(lat, Z2, list(itertools.product(labels, repeat=2)), geom)
    mat = np.array(entries).reshape(len(labels), len(labels)) / Z2.order
    # the normalized table is unitary (it is the modular matrix)
    assert np.allclose(mat @ mat.conj().T, np.eye(len(labels)), atol=1e-10)
    assert np.allclose(mat, mat.T, atol=1e-12)


def test_double_exchange_self_statistics():
    lat = Lattice(7, 7, "plane")
    geom = smatrix_geometry(lat)
    grp = group_make([4])
    labels = sector_labels(grp)
    for label, sim in zip(labels, s_matrix_entries(lat, grp, [(l, l) for l in labels], geom)):
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


@pytest.mark.parametrize("grp", [Z2, Z3, group_make([2, 2])], ids=["z2", "z3", "z2xz2"])
def test_fusion_table_reads_the_labels_of_the_dict_readout(grp):
    """The array readout of ``fusion_table`` against the reference readout,
    one character and flux at a time, of the same moments as (k, d) dicts."""
    lat = Lattice(3, 3, "torus")
    rho = ribbon_between(_site(lat, 1, 1), _site(lat, 2, 2), lat)
    labels = sector_labels(grp)
    pairs = [(a, b) for a in labels for b in labels]
    Fs = [ribbon_F_irrep(lat, grp, rho, *a).compose(ribbon_F_irrep(lat, grp, rho, *b)) for a, b in pairs]
    moments, fluxes = omega_charge_moments(lat, grp, rho.start, Fs)
    table = fusion_table(lat, grp, rho)
    elems = grp.elements()
    for pair, row, d in zip(pairs, moments, fluxes):
        mu = {(k, e): row[grp.index_of(k)] if grp.index_of(e) == d else 0j for k in elems for e in elems}
        assert table[pair] == label_from_moments(grp, mu) == fuse_labels(grp, *pair)


@pytest.mark.parametrize("grp", [Z2, Z3])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_omega_charge_moments_match_state_moments(grp, data):
    """Charge moments of F Omega from the flat-connection group, star moments
    and one flux per state, against the (k, d) moments read off the
    materialized state, with F a product of two ribbon operators in either
    basis (group-basis ones carry flux deltas, so F Omega is not
    normalized)."""
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
    moments, fluxes = omega_charge_moments(lat, grp, s, [F])
    assert moments.shape == (1, grp.order) and fluxes.shape == (1,)
    # every oracle entry, the zeros at the other fluxes included
    got = {
        (k, d): moments[0, grp.index_of(k)] if grp.index_of(d) == fluxes[0] else 0.0
        for k, d in want
    }
    assert len(want) == grp.order**2
    assert max(abs(got[key] - want[key]) for key in want) < 1e-12
