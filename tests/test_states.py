import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qdlattice.states import SparseState

from oracles import add, basis, inner, is_zero, norm, normalized, orthonormalize, scaled, sub


def test_basis_states_orthonormal():
    a = basis([0, 1, 0], 2)
    b = basis([1, 1, 0], 2)
    assert inner(a, a) == 1
    assert inner(a, b) == 0


def test_from_terms_merges_and_prunes():
    rows = np.array([[0, 1], [0, 1], [1, 0]], dtype=np.uint8)
    amps = np.array([0.5, 0.5, 1e-14], dtype=complex)
    psi = SparseState.from_terms(rows, amps, 2, 2)
    assert psi.n_terms == 1
    assert abs(psi.amps[0] - 1.0) < 1e-15


def test_apply_keeps_rows_whose_terms_nearly_cancel():
    """0.5 chi + (1e-10 + 0.5i) 1 on the z4 3x3 ground state (amplitudes
    1/256): where chi reads -i the two terms sum to 1e-10 / 256 = 3.9e-13
    per row, below an absolute 1e-12. Those rows are real amplitude, not
    rounding, and applying the sum as one OpSum must keep them."""
    from qdlattice.groups import group_make
    from qdlattice.lattice import Lattice
    from qdlattice.operators import AffineMap, OpSum
    from oracles import ground_state, omega_expectation

    group, lat = group_make([4]), Lattice(3, 3, "plane")
    omega = ground_state(lat, group)
    chi = AffineMap(group, lat.n_edges, chars=((0, 1),))
    op = OpSum.weighted([(0.5, chi), (1e-10 + 0.5j, AffineMap.identity(group, lat.n_edges))])
    psi = op.apply(omega)
    assert psi.n_terms == omega.n_terms
    assert abs(inner(omega, psi) - omega_expectation(lat, group, op)) < 1e-15


def test_add_scale_norm():
    a = basis([0, 0], 2)
    b = basis([1, 0], 2)
    psi = add(a, scaled(b, 1j))
    assert abs(norm(psi) - np.sqrt(2)) < 1e-14
    assert abs(inner(psi, a) - 1) < 1e-14
    assert abs(inner(a, psi) - 1) < 1e-14
    assert abs(inner(psi, scaled(b, 1j)) - 1) < 1e-14
    zero = sub(psi, psi)
    assert is_zero(zero)
    with pytest.raises(ValueError):
        normalized(zero)


def test_inner_conjugate_linearity():
    a = basis([0, 0], 2)
    b = basis([1, 1], 2)
    psi = scaled(a, 2j)
    phi = add(a, b)
    assert abs(inner(psi, phi) - (-2j)) < 1e-14
    assert abs(inner(phi, psi) - 2j) < 1e-14


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_cauchy_schwarz(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 10**6)))
    n = 6
    rows = np.array([[i % 2, (i // 2) % 2, (i // 4) % 2] for i in range(n)], dtype=np.uint8)
    a1 = rng.normal(size=n) + 1j * rng.normal(size=n)
    a2 = rng.normal(size=n) + 1j * rng.normal(size=n)
    psi = SparseState.from_terms(rows, a1, 3, 2)
    phi = SparseState.from_terms(rows, a2, 3, 2)
    assert abs(inner(psi, phi)) <= norm(psi) * norm(phi) + 1e-12


def test_orthonormalize_drops_dependent():
    s1, s2 = basis([0, 0], 2), basis([1, 0], 2)
    out = orthonormalize([s1, add(s1, s2), s2, scaled(s1, 1j)])
    assert len(out) == 2
    for i, a in enumerate(out):
        for j, b in enumerate(out):
            want = 1.0 if i == j else 0.0
            assert abs(inner(a, b) - want) < 1e-10


def test_incompatible_states_rejected():
    with pytest.raises(ValueError):
        inner(basis([0, 0], 2), basis([0, 0], 3))
