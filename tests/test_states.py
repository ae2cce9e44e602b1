import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qdlattice.states import SparseState, inner

from oracles import orthonormalize


def basis(config, radix=2):
    return SparseState.basis(config, radix)


def test_basis_states_orthonormal():
    a = basis([0, 1, 0])
    b = basis([1, 1, 0])
    assert inner(a, a) == 1
    assert inner(a, b) == 0


def test_from_terms_merges_and_prunes():
    rows = np.array([[0, 1], [0, 1], [1, 0]], dtype=np.uint8)
    amps = np.array([0.5, 0.5, 1e-14], dtype=complex)
    psi = SparseState.from_terms(rows, amps, 2, 2)
    assert psi.n_terms == 1
    assert abs(psi.amps[0] - 1.0) < 1e-15


def test_add_scale_norm():
    a = basis([0, 0])
    b = basis([1, 0])
    psi = a.add(b.scaled(1j))
    assert abs(psi.norm() - np.sqrt(2)) < 1e-14
    assert abs(inner(psi, a) - 1) < 1e-14
    assert abs(inner(a, psi) - 1) < 1e-14
    assert abs(inner(psi, b.scaled(1j)) - 1) < 1e-14
    zero = psi.sub(psi)
    assert zero.is_zero()
    with pytest.raises(ValueError):
        zero.normalized()


def test_inner_conjugate_linearity():
    a = basis([0, 0])
    b = basis([1, 1])
    psi = a.scaled(2j)
    phi = a.add(b)
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
    assert abs(inner(psi, phi)) <= psi.norm() * phi.norm() + 1e-12


def test_orthonormalize_drops_dependent():
    s1, s2 = basis([0, 0]), basis([1, 0])
    out = orthonormalize([s1, s1.add(s2), s2, s1.scaled(1j)])
    assert len(out) == 2
    for i, a in enumerate(out):
        for j, b in enumerate(out):
            want = 1.0 if i == j else 0.0
            assert abs(inner(a, b) - want) < 1e-10


def test_incompatible_states_rejected():
    with pytest.raises(ValueError):
        inner(basis([0, 0], 2), basis([0, 0], 3))
