import itertools
import random
import sys
import time

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from qdlattice import duality
from qdlattice.duality import (
    DualityError,
    boundary_maps,
    boundary_membership_check,
    cone_subspace,
    density_ranks,
    detecting_exterior_sites,
    external_charge_orthogonality_check,
    membership_residuals,
    ribbon_closure_rank,
    ribbons_in_region,
    self_adjoint_density_check,
)
from qdlattice.groups import codes, group_make, parse_group
from qdlattice.lattice import (
    Lattice,
    LatticeError,
    Region,
    Site,
    cone_make,
    ribbon_between,
)
from qdlattice.operators import OperatorError, as_opsum, ribbon_F, ribbon_F_irrep
from qdlattice.sectors import sector_labels
from qdlattice.states import SparseState

import oracles
from oracles import (
    add,
    block_closure_rank,
    boundary_edges,
    closure_rank,
    cone_coeffs,
    compressed_hermitian_images,
    cone_shape,
    deep_charge_detected,
    density_ranks_by_svd,
    distance,
    ground_state,
    inner,
    keys,
    label_ops,
    materialized_cone,
    max_cone_overlap,
    monomial,
    normalized,
    orthonormal_coeffs,
    orthonormalize,
    real_rank,
    region_images,
    region_monomials,
    scaled,
    schmidt_density_ranks,
    weyl_label_count,
)

Z2 = group_make([2])


class MaterializedSubspace:
    """Oracle for MaterializedCone's coordinates: every product vector |a> tensor w_j as a
    sparse state, and coordinates by key lookup over their joint support.
    Omega's rows are grouped by their region values as rows (no integer
    codes), and the groups' exterior restrictions (region values zeroed) are
    orthonormalized. Vectors are listed in the block order:
    region values a in lexicographic order (first edge most significant),
    then w_j in Gram-Schmidt order. With `sample`, only that many seeded
    product vectors are materialized."""

    def __init__(self, region, lat, group, omega, sample=None):
        edges = sorted(region.edges)
        labels, which = np.unique(omega.configs[:, edges], axis=0, return_inverse=True)
        exterior = omega.configs.copy()
        exterior[:, edges] = 0
        ws = orthonormalize(
            [
                SparseState.from_terms(
                    exterior[which == i], omega.amps[which == i], lat.n_edges, group.order
                )
                for i in range(len(labels))
            ]
        )
        fills = list(itertools.product(range(group.order), repeat=len(edges)))
        self.index = [(a, j) for a in range(len(fills)) for j in range(len(ws))]
        if sample is not None:
            self.index = random.Random(0).sample(self.index, sample)
        self.vectors = []
        for a, j in self.index:
            rows = ws[j].configs.copy()
            rows[:, edges] = fills[a]
            self.vectors.append(
                SparseState.from_terms(rows, ws[j].amps, lat.n_edges, group.order)
            )
        self.keys = np.unique(np.concatenate([keys(v) for v in self.vectors]))
        cols = [np.searchsorted(self.keys, keys(v)) for v in self.vectors]
        self.mat_conj = sp.csr_matrix(
            (
                np.concatenate([v.amps for v in self.vectors]),
                np.concatenate(cols),
                np.cumsum([0] + [len(c) for c in cols]),
            ),
            shape=(len(self.vectors), len(self.keys)),
        ).conj()

    def coeffs(self, psi):
        """<v|psi> for every materialized vector v."""
        pos = np.minimum(np.searchsorted(self.keys, keys(psi)), len(self.keys) - 1)
        hit = self.keys[pos] == keys(psi)
        vec = np.zeros(len(self.keys), dtype=np.complex128)
        vec[pos[hit]] = psi.amps[hit]
        return self.mat_conj @ vec

    def residual(self, psi):
        return distance(psi, _combine(self.vectors, self.coeffs(psi)))


def _combine(vectors, coeffs):
    rows = np.concatenate([v.configs for v in vectors])
    amps = np.concatenate([c * v.amps for c, v in zip(coeffs, vectors)])
    return SparseState.from_terms(rows, amps, vectors[0].n_edges, vectors[0].radix)


# (group, width, height); cones at apex (1, 1) opening N and E
CASES = [
    ("z2", 3, 3),
    ("z3", 3, 3),
    ("z2", 3, 4),
    ("z3", 3, 4),
]
# materializing every product vector of z3 on 3x4 (dim 6561) takes about
# 1 GB, so that case compares a seeded sample of coordinates
SAMPLED = {("z3", 3, 4): 200}
# On the 4^8-row Omega of 3x3, applying one region monomial and its adjoint
# as states and reading their coordinates takes about 0.12 s, over 30 s for
# each group's 256 monomials, so these cases compare with the
# block-coordinate SVD alone; the other density cases check that SVD
# against the states.
BLOCK_ONLY = [("z4", 3, 3), ("z2xz2", 3, 3)]
# the density oracle's cases: on all but BLOCK_ONLY its state-built families
# stay small
DENSITY_CASES = [c for c in CASES if c not in SAMPLED] + BLOCK_ONLY


def _case_id(case):
    return f"{case[0]}-{case[1]}x{case[2]}-trim"  # cone_make trims the rim


@pytest.fixture(scope="module", params=CASES, ids=_case_id)
def cone_case(request):
    spec, w, h = request.param
    group = parse_group(spec)
    lat = Lattice(w, h, "plane")
    omega = ground_state(lat, group)
    cone = cone_make((1, 1), ["N", "E"], lat)
    sub = materialized_cone(cone, lat, group, omega)
    oracle = None
    if request.param not in BLOCK_ONLY:
        oracle = MaterializedSubspace(cone, lat, group, omega, SAMPLED.get(request.param))
    return request.param, lat, group, omega, cone, sub, oracle


def _probe_states(lat, group, omega, cone):
    """Omega, region operator images (in H_Lambda), exterior ribbon images
    (charged or not), a random state on Omega's support and one on random
    configurations (both mostly outside H_Lambda)."""
    rng = random.Random(1)
    region_ops = label_ops(lat, group, ribbons_in_region(lat, cone, 3))
    comp = Region(lat, cone.complement_edges())
    ext_ops = label_ops(lat, group, ribbons_in_region(lat, comp, 4))
    out = [omega]
    out += [rng.choice(region_ops).apply(omega) for _ in range(3)]
    out += [rng.choice(ext_ops).apply(omega) for _ in range(4)]
    gen = np.random.default_rng(2)
    for rows in (omega.configs, gen.integers(0, group.order, size=(50, lat.n_edges))):
        amps = np.array([1, 1j]) @ gen.standard_normal((2, len(rows)))
        out.append(SparseState.from_terms(rows, amps, lat.n_edges, group.order))
    return out


def test_coordinates_match_materialized_oracle(cone_case):
    param, lat, group, omega, cone, sub, oracle = cone_case
    assert sub.dim == len(oracle.index) or param in SAMPLED
    for psi in _probe_states(lat, group, omega, cone):
        block = cone_coeffs(sub, psi)
        assert block.shape[0] * block.shape[1] == sub.dim
        entries = [block[a, j] for a, j in oracle.index]
        np.testing.assert_allclose(entries, oracle.coeffs(psi), atol=1e-12)
        if param in SAMPLED:
            continue
        norm = np.linalg.norm(cone_coeffs(sub, psi))
        assert abs(norm - np.linalg.norm(oracle.coeffs(psi))) < 1e-12
        assert abs(sub.residual(psi) - oracle.residual(psi)) < 1e-12


def test_region_images_match_applied_operators(cone_case):
    """S_M C and S_M^dagger C against the coordinates of M Omega and
    M^dagger Omega, for random region ribbons, edge monomials and products."""
    param, lat, group, omega, cone, sub, oracle = cone_case
    rng = random.Random(3)
    ribbon_ops = label_ops(lat, group, ribbons_in_region(lat, cone, 3))
    pool = ribbon_ops + [as_opsum(m) for m in region_monomials(lat, group, cone)]
    pool += [rng.choice(ribbon_ops).compose(rng.choice(ribbon_ops)) for _ in range(20)]
    for m in random.Random(4).sample(pool, 6):
        v, vs = region_images(sub, m)
        np.testing.assert_allclose(v, cone_coeffs(sub, m.apply(omega)), atol=1e-12)
        np.testing.assert_allclose(vs, cone_coeffs(sub, m.adjoint().apply(omega)), atol=1e-12)


def _all_edge_monomials(lat, group, cone):
    """Every shift times every character on the cone's edges: the region's
    whole edge-monomial algebra, the sweep oracle's ``monomial`` products
    rather than ``region_monomials``."""
    edges = sorted(cone.edges)
    configs = list(itertools.product(range(group.order), repeat=len(edges)))
    return [
        monomial(lat, group, zip(edges, shift), zip(edges, chis))
        for shift in configs
        for chis in configs
    ]


def _state_density_ranks(omega, oracle, monomials):
    """Both ranks of the density check from the families built as states:
    (M + M^dagger) Omega and i (M - M^dagger) Omega for every monomial M,
    and the compressed exterior operators E_jk Omega assembled from the
    product vectors, all read into the oracle's coordinates. Also returns
    the compressed family alone."""
    a_family = []
    for m in monomials:
        v = oracle.coeffs(as_opsum(m).apply(omega))
        vs = oracle.coeffs(as_opsum(m.adjoint()).apply(omega))
        a_family += [v + vs, 1j * (v - vs)]
    # E_jk Omega = sum_a C[a, k] |a> tensor w_j
    n_fill = len({a for a, _ in oracle.index})
    r = len(oracle.index) // n_fill
    c = oracle.coeffs(omega).reshape(n_fill, r)

    def e_omega(j, k):
        return _combine([oracle.vectors[a * r + j] for a in range(n_fill)], c[:, k])

    b_family = []
    for j in range(r):
        b_family.append(oracle.coeffs(scaled(e_omega(j, j), 1j)))
    for j, k in itertools.combinations(range(r), 2):
        jk, kj = e_omega(j, k), e_omega(k, j)
        b_family.append(oracle.coeffs(scaled(add(jk, kj), 1j)))
        b_family.append(oracle.coeffs(add(kj, scaled(jk, -1.0))))  # -(jk - kj)
    return real_rank(a_family + b_family), real_rank(a_family), b_family


@pytest.mark.parametrize("cone_case", DENSITY_CASES, ids=_case_id, indirect=True)
def test_density_ranks_match_materialized_oracle(cone_case):
    """Both ranks of the density check against a real SVD of its families:
    the region's whole edge-monomial algebra and the compressed exterior
    family, built as states where that fits and in block coordinates on
    every case. The check takes the region operators to be all of M_n; the
    region monomials and their adjoints carry the n^2 labels of a Weyl
    basis on every case."""
    param, lat, group, omega, cone, sub, oracle = cone_case
    (n, m), target = sub.omega_coeffs.shape, 2 * sub.dim
    flat = cone_subspace(cone, lat, group)
    assert weyl_label_count(region_monomials(lat, group, cone)) == n * n
    monomials = _all_edge_monomials(lat, group, cone)
    full_rank, a_rank = density_ranks_by_svd(sub, monomials)
    if oracle is not None:
        state_full, state_a, b_family = _state_density_ranks(omega, oracle, monomials)
        assert (state_full, state_a) == (full_rank, a_rank)
        assert real_rank(b_family) == real_rank(compressed_hermitian_images(sub))
    assert density_ranks(flat.n, flat.m, flat.r) == (full_rank, a_rank)
    assert schmidt_density_ranks(sub.omega_coeffs) == (full_rank, a_rank)
    spans, control = self_adjoint_density_check(flat)
    source = f"from n = {n}, m = {m}, r = {m} (C's columns are disjoint)"
    assert spans.details == f"rank {full_rank} of target {target} {source}"
    assert control.details == f"rank {a_rank} < {target} {source}"
    assert control.max_error == a_rank
    assert spans.passed and control.passed


def _hermitian_basis(d):
    """A real basis of the d x d Hermitian matrices."""
    out = []
    for a in range(d):
        for b in range(a, d):
            x = np.zeros((d, d), dtype=np.complex128)
            x[a, b] = x[b, a] = 1.0
            out.append(x)
            if a != b:
                y = np.zeros((d, d), dtype=np.complex128)
                y[a, b], y[b, a] = 1j, -1j
                out.append(y)
    return out


@st.composite
def _coefficient_blocks(draw):
    """An n x m block C = U S V^dagger with n, m <= 5, any rank r, and
    singular values drawn independently, so the spectrum is rarely flat."""
    n, m = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    r = draw(st.integers(0, min(n, m)))
    spectrum = draw(st.lists(st.floats(0.05, 1.0), min_size=r, max_size=r))
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def unitary(d):
        q, _ = np.linalg.qr(gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d)))
        return q

    return unitary(n)[:, :r] @ np.diag(spectrum) @ unitary(m)[:, :r].conj().T


@settings(max_examples=200, deadline=None)
@given(c=_coefficient_blocks())
def test_density_ranks_match_explicit_svd(c):
    """The ranks formula, with r from C's singular values, against a real
    SVD of {H C} and {i C Y} over real bases of the Hermitian n x n and
    m x m matrices: it covers r < n and n != m, which no lattice case small
    enough for the state oracle reaches."""
    n, m = c.shape
    a_family = [h @ c for h in _hermitian_basis(n)]
    b_family = [1j * c @ y for y in _hermitian_basis(m)]
    assert schmidt_density_ranks(c) == (real_rank(a_family + b_family), real_rank(a_family))


@st.composite
def _disjoint_column_blocks(draw):
    """An n x m block, n, m <= 5, each row holding at most one nonzero entry
    of modulus at least 0.05: rows may be zero, so columns may be zero
    (r < m), and n, m are drawn independently."""
    n, m = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    c = np.zeros((n, m), dtype=np.complex128)
    for a in range(n):
        j = draw(st.integers(-1, m - 1))  # -1: a zero row
        if j >= 0:
            modulus, turn = draw(st.floats(0.05, 1.0)), draw(st.floats(0.0, 1.0))
            c[a, j] = modulus * np.exp(2j * np.pi * turn)
    return c


@settings(max_examples=200, deadline=None)
@given(c=_disjoint_column_blocks())
def test_density_ranks_read_r_from_disjoint_columns(c):
    """The ranks with r counted from C's nonzero columns against r from its
    singular values, on blocks whose rows hold at most one nonzero entry."""
    n, m = c.shape
    assert density_ranks(n, m, int(c.any(axis=0).sum())) == schmidt_density_ranks(c)


def _assert_counts_match(sub, block):
    """``cone_subspace``'s counts against a dense block C read off Omega:
    (n, m) is C's shape, r the number of its nonzero columns, and no row
    of C holds two nonzero entries, so r is its rank."""
    nonzero = block != 0
    assert (nonzero.sum(axis=1) <= 1).all()
    assert (sub.n, sub.m, sub.r) == (*block.shape, int(nonzero.any(axis=0).sum()))


@pytest.fixture(scope="module")
def small_cone():
    lat = Lattice(3, 3, "plane")
    omega = ground_state(lat, Z2)
    cone = cone_make((1, 1), ["N", "E"], lat)
    sub = materialized_cone(cone, lat, Z2, omega)
    return lat, omega, cone, sub


def test_trivial_region_subspace():
    lat = Lattice(3, 3, "plane")
    omega = ground_state(lat, Z2)
    empty = Region(lat, frozenset())
    sub = materialized_cone(empty, lat, Z2, omega)
    assert sub.dim == 1
    assert sub.residual(omega) < 1e-12
    flat = cone_subspace(empty, lat, Z2)
    assert (flat.n, flat.m, flat.r) == (sub.n, sub.m, sub.r) == (1, 1, 1)
    _assert_counts_match(flat, sub.omega_coeffs)


def test_closure_matches_factorized_dimension():
    """The closure counted from fluxes and characters against the closure
    grown from materialized states at the same length caps."""
    lat = Lattice(3, 3, "plane")
    omega = ground_state(lat, Z2)
    cone = cone_make((1, 1), ["N", "E"], lat)
    sub = cone_subspace(cone, lat, Z2)
    ranks = ribbon_closure_rank(sub)
    assert ranks == closure_rank(cone, lat, Z2, omega, duality.CLOSURE_LENGTH_CAP)
    assert ranks == (16, 16) and sub.dim == 16


@pytest.mark.parametrize("spec", ["z2", "z3", "z4", "z2xz2"])
def test_closure_count_matches_the_gram_schmidt_closure(spec):
    """The closure count |Phi(H)| against the closure grown on Omega's
    block C by the region operators' monomial matrices with a dense
    Gram-Schmidt, on the 3x3 cone."""
    group = parse_group(spec)
    lat = Lattice(3, 3, "plane")
    cone = cone_make((1, 1), ["N", "E"], lat)
    sub = cone_subspace(cone, lat, group)
    ranks = ribbon_closure_rank(sub)
    assert ranks == block_closure_rank(materialized_cone(cone, lat, group, ground_state(lat, group)))
    assert ranks == (sub.dim, sub.dim)


@pytest.mark.parametrize("spec", ["z2", "z3", "z4", "z2xz2"])
def test_closure_count_of_characters_alone_falls_short(spec):
    """A negative control: ribbon operators with a character and no flux
    shift nothing, so they reach only charged states without flux, fewer
    than dim H_Lambda; every label together reaches it."""
    group = parse_group(spec)
    lat = Lattice(3, 3, "plane")
    cone = cone_make((1, 1), ["N", "E"], lat)
    sub = cone_subspace(cone, lat, group)
    ribbons = ribbons_in_region(lat, cone, duality.CLOSURE_LENGTH_CAP)
    labels = sector_labels(group)[1:]
    e = group.identity()
    chars = [ribbon_F_irrep(lat, group, r, chi, c) for r in ribbons for chi, c in labels if c == e]
    every = [ribbon_F_irrep(lat, group, r, chi, c) for r in ribbons for chi, c in labels]
    assert 1 < duality._closure_count(lat, group, chars) < sub.dim
    assert duality._closure_count(lat, group, every) == sub.dim


def test_subspace_invariant_under_region_operators(small_cone):
    lat, omega, cone, sub = small_cone
    basis = MaterializedSubspace(cone, lat, Z2, omega).vectors
    rng = random.Random(0)
    ribbons = ribbons_in_region(lat, cone, 4)
    for _ in range(25):
        r = rng.choice(ribbons)
        chi = rng.choice(Z2.characters())
        c = rng.choice(Z2.elements())
        v = basis[rng.randrange(sub.dim)]
        image = as_opsum(ribbon_F_irrep(lat, Z2, r, chi, c)).apply(v)
        assert sub.residual(image) < 1e-9


@pytest.fixture(scope="module")
def plane_4x4_cone():
    lat = Lattice(4, 4, "plane")
    omega = ground_state(lat, Z2)
    cone = cone_make((2, 2), ["N", "E"], lat)
    return lat, omega, cone, materialized_cone(cone, lat, Z2, omega)


def test_external_orthogonality_and_membership(plane_4x4_cone):
    lat, omega, cone, sub = plane_4x4_cone
    detectors = detecting_exterior_sites(lat, cone)
    assert detectors
    rng = random.Random(5)
    recs = [
        external_charge_orthogonality_check(cone, lat, Z2, detectors, rng, samples=60),
        boundary_membership_check(cone, lat, Z2, boundary_maps(cone, lat, Z2, detectors, rng)),
    ]
    assert all(r.passed for r in recs), [(r.name, r.max_error) for r in recs]
    assert all(r.max_error <= 1e-9 for r in recs)


def _exterior_maps(lat, group, cone, max_len=4):
    """Every distinct irrep operator of every exterior ribbon of up to
    `max_len` triangles with every nontrivial label, deep charge or not."""
    comp = Region(lat, cone.complement_edges())
    return list(
        dict.fromkeys(
            ribbon_F_irrep(lat, group, r, chi, c)
            for r in ribbons_in_region(lat, comp, max_len)
            for chi, c in sector_labels(group)[1:]
        )
    )


def _sweep_against_projection(lat, group, omega, cone, sub):
    """cone_overlaps and the materialized projection norm of F Omega for
    every exterior ribbon of up to 4 triangles and every nontrivial label:
    they agree on orthogonality, and the overlap never exceeds the norm.
    Returns the number of non-orthogonal cases."""
    maps = _exterior_maps(lat, group, cone)
    hits = 0
    for f, overlap in zip(maps, duality.cone_overlaps(lat, group, cone, maps)):
        norm = np.linalg.norm(cone_coeffs(sub, as_opsum(f).apply(omega)))
        assert (overlap > 1e-9) == (norm > 1e-9), (f, overlap, norm)
        assert overlap <= norm + 1e-12
        hits += norm > 1e-9
    return hits


def test_monomial_sweep_matches_projection_z2(plane_4x4_cone):
    lat, omega, cone, sub = plane_4x4_cone
    assert _sweep_against_projection(lat, Z2, omega, cone, sub) > 0


def test_monomial_sweep_matches_projection_z3():
    group = group_make([3])
    lat = Lattice(3, 3, "plane")
    omega = ground_state(lat, group)
    cone = cone_make((1, 1), ["N", "E"], lat)
    sub = materialized_cone(cone, lat, group, omega)
    assert _sweep_against_projection(lat, group, omega, cone, sub) > 0


CONES = {"3x3": (3, 3, 1), "3x4": (3, 4, 1), "4x4": (4, 4, 2)}  # width, height, apex


@pytest.mark.parametrize(
    "spec,shape",
    [
        (spec, shape)
        for spec in ["z2", "z3", "z4", "z2xz2", "z6"]
        for shape in CONES
        # the 3x4 cone has k = 4 edges: the sweep of 6^8 monomials over each
        # of the ~500 z6 maps that pass its shift filter takes minutes
        if (spec, shape) != ("z6", "3x4")
    ],
)
def test_cone_overlaps_match_the_monomial_sweep(spec, shape):
    """The closed form against the sweep of omega(M^dagger F) over every
    region edge monomial M, on every exterior ribbon of up to 4 triangles
    with every nontrivial label. The closed form is exactly 0.0 or 1.0;
    the sweep sums roots of unity, so a z3 zero comes out near 1e-16."""
    width, height, apex = CONES[shape]
    group = parse_group(spec)
    lat = Lattice(width, height, "plane")
    cone = cone_make((apex, apex), ["N", "E"], lat)
    maps = _exterior_maps(lat, group, cone)
    overlaps = duality.cone_overlaps(lat, group, cone, maps)
    assert set(overlaps) == {0.0, 1.0}
    for f, overlap in zip(maps, overlaps):
        assert abs(overlap - max_cone_overlap(lat, group, cone, f)) < 1e-12, f


def test_cone_overlaps_refuse_maps_with_deltas_and_tori():
    lat = Lattice(3, 3, "plane")
    cone = cone_make((1, 1), ["N", "E"], lat)
    r = ribbon_between(lat.site(0, 0, 0, 0), lat.site(0, 2, 0, 1), lat)
    with pytest.raises(OperatorError, match="without deltas"):
        duality.cone_overlaps(lat, Z2, cone, [ribbon_F(lat, Z2, r, (1,), (0,))])
    torus = Lattice(3, 3, "torus")
    with pytest.raises(DualityError, match="plane patches"):
        duality.cone_overlaps(torus, Z2, Region(torus, frozenset({0})), [])


@pytest.mark.parametrize("spec", ["z2", "z3", "z4", "z2xz2"])
def test_detected_labels_match_the_charge_arithmetic(spec):
    """The orthogonality check's labels from endpoint geometry against the
    net charge per vertex and flux per face, on every exterior ribbon of the
    4x4 enlargement with every nontrivial label."""
    group = parse_group(spec)
    lat = Lattice(4, 4, "plane")
    cone = cone_make((2, 2), ["N", "E"], lat)
    detectors = detecting_exterior_sites(lat, cone)
    labels = sector_labels(group)[1:]
    comp = Region(lat, cone.complement_edges())
    ribbons = [r for r in ribbons_in_region(lat, comp, duality.EXTERIOR_RIBBON_LEN) if len(r) >= 2]
    found = 0
    for r in ribbons:
        want = [(chi, c) for chi, c in labels if deep_charge_detected(group, detectors, r, chi, c)]
        assert duality._detected_labels(group, detectors, r, labels) == want, r
        found += bool(want)
    assert 0 < found < len(ribbons)


@pytest.mark.parametrize("spec", ["z3", "z4", "z2xz2"])
def test_orthogonality_check_passes_on_4x4_enlargement(spec):
    from qdlattice.groups import parse_group

    lat = Lattice(4, 4, "plane")
    cone = cone_make((2, 2), ["N", "E"], lat)
    rec = external_charge_orthogonality_check(
        cone, lat, parse_group(spec), detecting_exterior_sites(lat, cone), random.Random(0), samples=100
    )
    assert rec.passed and rec.max_error <= 1e-9
    assert int(rec.details.split()[0]) > 0


def test_orthogonality_check_runs_on_a_cone_of_4_to_the_36_monomials():
    """The 7x7 plane cone at (3,3) has k = 18 edges: a sweep would face
    4^36 region monomials, and the closed form reads each ribbon's overlap
    from its face fluxes and vertex characters instead."""
    lat = Lattice(7, 7, "plane")
    cone = cone_make((3, 3), ["N", "E"], lat)
    assert len(cone.edges) == 18
    for spec in ["z4", "z2xz2"]:
        start = time.perf_counter()
        rec = external_charge_orthogonality_check(
            cone, lat, parse_group(spec), detecting_exterior_sites(lat, cone), random.Random(0)
        )
        elapsed = time.perf_counter() - start
        assert rec.passed and rec.max_error == 0.0, (spec, rec.details)
        assert int(rec.details.split()[0]) > 0
        assert elapsed < 1.0, (spec, elapsed)


def test_orthogonality_check_neither_sweeps_nor_composes(monkeypatch):
    """The check reads no ground-state expectation and builds no product of
    maps, so a monomial sweep cannot come back unnoticed."""
    from qdlattice import groundstate
    from qdlattice.operators import AffineMap

    def unreachable(*args, **kwargs):
        raise AssertionError("the orthogonality check swept or composed")

    monkeypatch.setattr(groundstate, "omega_expectations", unreachable)
    monkeypatch.setattr(duality, "omega_expectations", unreachable, raising=False)
    monkeypatch.setattr(AffineMap, "compose", unreachable)
    lat = Lattice(4, 4, "plane")
    cone = cone_make((2, 2), ["N", "E"], lat)
    for spec in ["z2", "z3", "z4", "z2xz2"]:
        rec = external_charge_orthogonality_check(
            cone, lat, parse_group(spec), detecting_exterior_sites(lat, cone), random.Random(0)
        )
        assert rec.passed, spec


def _unreachable(*args, **kwargs):
    raise AssertionError("Omega or the block's rows were built")


def test_haag_check_passes_z4_and_z2xz2_without_building_omega(monkeypatch):
    """At the default 3x4 plane Omega would have 4^11 rows. The block comes
    from the flat group and membership from ``cone_overlaps``, so all 5
    checks pass and no state is built or acted on."""
    from qdlattice import experiments
    from qdlattice.operators import OpSum
    from qdlattice.reports import RunConfig

    monkeypatch.setattr(OpSum, "apply", _unreachable)
    monkeypatch.setattr(SparseState, "from_terms", _unreachable)
    lat = Lattice(3, 4, "plane")
    for spec in ["z4", "z2xz2"]:
        cfg = RunConfig("haag-check", group=spec, lattice="3x4:plane", seed=0)
        rep = experiments.run_haag(cfg, parse_group(spec), lat)
        assert [c.status for c in rep.checks] == ["pass"] * 5, spec
        assert rep.checks[0].details.startswith("cone of 4 edges, subspace dimension 65536;")
        assert rep.checks[3].max_error == 0.0


@pytest.mark.parametrize("size", ["8x8", "12x12"])
def test_haag_check_refuses_z2_at_the_ribbon_search_cap(monkeypatch, capsys, size):
    """On 8x8 and 12x12 the cone has 72 and 200 edges. Its counts are read
    at once, and the run then ends at the boundary ribbons' search for an
    edge-disjoint ribbon, which stops at its node cap: exit 2 with one line,
    and no state is built."""
    from qdlattice import cli
    from qdlattice.lattice import DFS_NODE_CAP
    from qdlattice.operators import OpSum

    monkeypatch.setattr(OpSum, "apply", _unreachable)
    assert cli.main(["--experiment", "haag-check", "--lattice", f"{size}:plane"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: haag-check: ribbon search from ") and err.count("\n") == 1, err
    assert err.endswith(f" stopped at the {DFS_NODE_CAP}-node cap\n"), err


# (group, width, height): every patch on which Omega has at most 2^20 rows,
# from the default 3x4 and its neighbours to z2 on 3x7
OMEGA_CASES = [
    *[(spec, 3, 3) for spec in ["z2", "z3", "z4", "z2xz2"]],
    *[(spec, w, h) for spec in ["z2", "z3"] for w, h in [(3, 4), (4, 3)]],
    *[("z2", w, h) for w, h in [(4, 4), (3, 5), (3, 7)]],
]


def _applied_residuals(read, omega, maps):
    """``MaterializedCone``'s residual of F Omega for each map F without
    deltas. F Omega's rows are Omega's rows moved by ``AffineMap.eval``:
    such a map is a bijection, so no row repeats. Omega's region indices and
    exterior keys are coded once, and each map's are updated on the edges it
    shifts."""
    radix, edges, ext = read.group.order, sorted(read.region.edges), read.ext_edges
    base = read._codes(omega)
    place = {e: (0, radix ** (len(edges) - 1 - i)) for i, e in enumerate(edges)}
    place.update({e: (1, radix ** (len(ext) - 1 - i)) for i, e in enumerate(ext)})
    roots = read.group.tables()["roots"]
    out = []
    for f in maps:
        alive, pnum, shifted = f.eval(omega.configs)
        assert alive.all()
        coded = [base[0].copy(), base[1].copy()]
        for e, _ in f.shifts:
            which, weight = place[e]
            coded[which] += (shifted[:, e].astype(np.int64) - omega.configs[:, e]) * weight
        out.append(read._residual(read._cells(*coded), omega.amps * roots[pnum]))
    return out


@pytest.mark.parametrize("spec,width,height", OMEGA_CASES, ids=lambda x: str(x))
def test_flat_group_block_and_membership_match_omega(spec, width, height):
    """On run_haag's cone: the counts from the flat group match the block
    read off Omega's rows (``_assert_counts_match``), and the closed-form membership
    residual equals the residual of the materialized F Omega for every
    boundary ribbon with every nontrivial label. On the 3x3 patch the
    exterior ribbons of up to 3 triangles join in, so that both residuals,
    0 and 1, occur."""
    group = parse_group(spec)
    lat = Lattice(width, height, "plane")
    cone = cone_make((1, 1), ["N", "E"], lat)
    omega = ground_state(lat, group)
    read = materialized_cone(cone, lat, group, omega)
    _assert_counts_match(cone_subspace(cone, lat, group), read.omega_coeffs)
    ribbons = duality.boundary_ribbons(lat, cone, detecting_exterior_sites(lat, cone))
    labels = sector_labels(group)[1:]
    maps = [ribbon_F_irrep(lat, group, r, chi, c) for r in ribbons for chi, c in labels]
    assert maps
    small = width * height == 9
    if small:
        maps += _exterior_maps(lat, group, cone, max_len=3)
    closed = membership_residuals(lat, group, cone, maps)
    assert set(closed) == ({0.0, 1.0} if small else {0.0})
    np.testing.assert_allclose(_applied_residuals(read, omega, maps), closed, rtol=0, atol=1e-9)
    # the applied state itself, through OpSum.apply and MaterializedCone.residual
    assert abs(read.residual(as_opsum(maps[0]).apply(omega)) - closed[0]) <= 1e-9


@pytest.mark.parametrize("spec,width,height", [("z2", 3, 3), ("z3", 3, 3), ("z2", 3, 4), ("z2", 4, 3)])
def test_flat_group_block_matches_omega_on_random_regions(spec, width, height):
    """The flat-group counts against the block read off Omega's rows on 40
    seeded random edge sets per patch, from empty to every edge: regions of
    several components, with vertices that no exterior edge reaches, take
    every branch of the gauge fixing."""
    group = parse_group(spec)
    lat = Lattice(width, height, "plane")
    omega = ground_state(lat, group)
    rng = random.Random(width * height)
    for _ in range(40):
        edges = rng.sample(range(lat.n_edges), rng.randrange(lat.n_edges + 1))
        region = Region(lat, frozenset(edges))
        read = materialized_cone(region, lat, group, omega).omega_coeffs
        _assert_counts_match(cone_subspace(region, lat, group), read)


def _all_pairs_subspace(region, lat, group, omega):
    """materialized_cone's (ext_keys, w_conj, omega_coeffs) with Gram-Schmidt
    over every exterior restriction, all pairs, on materialized states."""
    radix = group.order
    edges = sorted(region.edges)
    ext = sorted(set(lat.edges()) - set(edges))
    k = len(edges)
    fills = codes(omega.configs, edges, radix)
    exterior = omega.configs.copy()
    exterior[:, edges] = 0
    members = [(a, fills == a) for a in range(radix**k)]
    members = [(a, rows) for a, rows in members if rows.any()]
    vectors = [
        SparseState.from_terms(exterior[rows], omega.amps[rows], lat.n_edges, radix)
        for _, rows in members
    ]
    basis, coeffs = orthonormal_coeffs(vectors)
    block = np.zeros((radix**k, len(basis)), dtype=np.complex128)
    block[[a for a, _ in members]] = coeffs
    keys = [codes(w.configs, ext, radix) for w in basis]
    ext_keys, rows = np.unique(np.concatenate(keys), return_inverse=True)
    cols = np.repeat(np.arange(len(basis)), [len(c) for c in keys])
    amps = np.concatenate([w.amps for w in basis])
    w = sp.csr_matrix((amps, (rows, cols)), shape=(len(ext_keys), len(basis)))
    return ext_keys, w.conj(), block


def _bulk(lat):
    """The patch's bulk edges: every edge with a dual triangle."""
    return Region(lat, frozenset(e for e in lat.edges() if not lat.is_rim(e)))


@pytest.mark.parametrize(
    "order,height,kind",
    [
        (2, 4, "trim"),
        (3, 4, "trim"),
        (2, 3, "patch"),
        (2, 3, "star"),
        (3, 3, "empty"),
    ],
)
def test_coset_subspace_matches_all_pairs_gram_schmidt(order, height, kind):
    """The coset construction of W and C against Gram-Schmidt over every
    exterior restriction, with the same column order. The bulk of the 3x3
    patch and the star of its centre hold a complete star, whose gradient
    makes distinct buckets restrict to the same coset; the empty region has
    a single bucket, all of Omega. ``cone_subspace``'s counts match C."""
    group = group_make([order])
    lat = Lattice(3, height, "plane")
    omega = ground_state(lat, group)
    if kind == "patch":
        cone = _bulk(lat)
    elif kind == "star":
        cone = Region(lat, frozenset(lat.star_edges(lat.vertex_id(1, 1))))
    elif kind == "empty":
        cone = Region(lat, frozenset())
    else:
        cone = cone_make((1, 1), ["N", "E"], lat)
    sub = materialized_cone(cone, lat, group, omega)
    ext_keys, w_conj, coeffs = _all_pairs_subspace(cone, lat, group, omega)
    assert np.array_equal(sub.ext_keys, ext_keys)
    # every exterior key carries exactly one w_j, of value 1/sqrt(|K|)
    w = w_conj.conj().tocsr()
    assert np.array_equal(np.diff(w.indptr), np.ones(len(ext_keys)))
    assert np.array_equal(sub.key_cols, w.indices)
    np.testing.assert_allclose(w.data, 1 / np.sqrt(sub.coset_size), rtol=0, atol=1e-15)
    np.testing.assert_allclose(sub.omega_coeffs, coeffs, rtol=0, atol=1e-15)
    _assert_counts_match(cone_subspace(cone, lat, group), sub.omega_coeffs)


@pytest.mark.parametrize(
    "spec,width,height,kind",
    [
        ("z2", 3, 4, "trim"),
        ("z3", 3, 4, "trim"),
        ("z2", 3, 3, "trim"),
        ("z3", 3, 3, "trim"),
        ("z4", 3, 3, "trim"),
        ("z3", 3, 3, "star"),
        ("z2", 3, 3, "patch"),
        ("z2", 4, 4, "trim"),
    ],
)
def test_cone_shape_matches_cone_subspace(spec, width, height, kind):
    """(|G|^k, dim W) with dim H_Lambda = |G|^(k + V + 1 - c(Lambda) -
    c(E minus Lambda)), from the graph alone, against the coset
    construction on the flat group."""
    group = parse_group(spec)
    lat = Lattice(width, height, "plane")
    if kind == "star":
        cone = Region(lat, frozenset(lat.star_edges(lat.vertex_id(1, 1))))
    elif kind == "patch":
        cone = _bulk(lat)
    else:
        cone = cone_make((1, 1), ["N", "E"], lat)
    sub = cone_subspace(cone, lat, group)
    assert (sub.n, sub.m) == cone_shape(lat, group, cone)


def test_density_rank_and_negative_control():
    lat = Lattice(3, 4, "plane")
    cone = cone_make((1, 1), ["N", "E"], lat)
    sub = cone_subspace(cone, lat, Z2)
    spans, control = self_adjoint_density_check(sub)
    assert spans.passed, spans.details
    assert control.passed, control.details


def test_multi_ribbon_states_reduce_to_products():
    # several ribbons anchored at one site with distinct far endpoints give,
    # up to a phase, a single anchored ribbon times endpoint connectors
    lat = Lattice(3, 4, "plane")
    grp = group_make([3])
    omega = ground_state(lat, grp)
    s = Site(lat.vertex_id(1, 1), lat.face_id(1, 1))
    far1 = Site(lat.vertex_id(2, 2), lat.face_id(1, 2))
    far2 = Site(lat.vertex_id(1, 3), lat.face_id(0, 2))
    rho1 = ribbon_between(s, far1, lat)
    rho2 = ribbon_between(s, far2, lat, avoid_edges=rho1.edges(), allow_reversed=True)

    labels = [((1,), (0,)), ((1,), (2,)), ((0,), (1,)), ((2,), (1,))]
    for (chi1, c1) in labels[:2]:
        for (chi2, c2) in labels[2:]:
            lhs = (
                as_opsum(ribbon_F_irrep(lat, grp, rho1, chi1, c1))
                @ as_opsum(ribbon_F_irrep(lat, grp, rho2, chi2, c2))
            ).apply(omega)
            # single anchored ribbon with the fused label, connector between
            # the far endpoints avoiding the anchor's star
            anchor = as_opsum(
                ribbon_F_irrep(lat, grp, rho1, grp.char_mul(chi1, chi2), grp.mul(c1, c2))
            )
            region = Region(
                lat,
                frozenset(lat.edges()) - set(lat.star_edges_partial(s.vertex)),
            )
            sigma = ribbon_between(far1, far2, lat, region, allow_reversed=True)
            rhs = (anchor @ as_opsum(ribbon_F_irrep(lat, grp, sigma, chi2, c2))).apply(omega)
            overlap = abs(inner(normalized(lhs), normalized(rhs)))
            assert abs(overlap - 1.0) < 1e-9


def test_full_patch_subspace_dimension():
    # the whole bulk of the patch as the region, the most a region can hold:
    # the subspace dimension factorizes as (free configurations on the bulk)
    # x (exterior cosets), one coset per |K| distinct flat-connection
    # restrictions to the rim, with K the flat connections vanishing on the
    # bulk; computed here independently from the flats
    from oracles import flat_connections

    lat = Lattice(3, 4, "plane")
    omega = ground_state(lat, Z2)
    bulk = _bulk(lat)
    sub = materialized_cone(bulk, lat, Z2, omega)
    flats = flat_connections(lat, Z2)
    rim = [e for e in lat.edges() if lat.is_rim(e)]
    rim_patterns = {tuple(row[rim]) for row in flats}
    vanishing = int(np.sum(~flats[:, sorted(bulk.edges)].any(axis=1)))
    assert sub.coset_size == vanishing
    assert sub.dim == 2 ** len(bulk.edges) * len(rim_patterns) // vanishing


def test_cone_region_has_boundary():
    lat = Lattice(5, 5, "plane")
    cone = cone_make((1, 1), ["N", "E"], lat)
    assert cone.edges
    assert boundary_edges(cone)
    assert cone.interior_complement_edges()


def test_haag_report_states_the_skipped_closure_check():
    """The default cone has 4 edges, above the closure check's limit of 3:
    the construction check says so, and every other check appears once. On
    3x3 the cone has 2 edges and the closure check runs as well."""
    from qdlattice.experiments import run_haag
    from qdlattice.groups import parse_group
    from qdlattice.lattice import parse_lattice
    from qdlattice.reports import RunConfig

    cases = [
        (
            "z2",
            "3x4:plane",
            "cone of 4 edges, subspace dimension 256; ribbon closure check skipped:"
            " it runs on cones of at most 3 edges",
        ),
        (
            "z2",
            "3x3:plane",
            "cone of 2 edges, subspace dimension 16",
        ),
        (
            "z3",
            "3x3:plane",
            "cone of 2 edges, subspace dimension 81",
        ),
    ]
    for spec, lattice, details in cases:
        cfg = RunConfig("haag-check", group=spec, lattice=lattice, seed=4300)
        rep = run_haag(cfg, parse_group(spec), parse_lattice(lattice))
        assert rep.checks[0].details == details
        names = [c.name for c in rep.checks]
        closure = [c for c in rep.checks if c.name.startswith("ribbon closure")]
        assert len(closure) == ("skipped" not in details)
        assert len(names) == len(set(names)) == 5 + len(closure)
        if closure:
            dim = int(details.split(";")[0].split()[-1])
            assert closure[0].details == f"closure ranks ({dim}, {dim}) vs dimension {dim}"
        assert rep.all_passed


# the requested patches' cones, at run_haag's apex, and the 4x4 enlargement
EXTERIOR_CONES = [(3, 4, 1), (4, 4, 1), (3, 7, 1), (5, 5, 1), (4, 4, 2)]


@pytest.mark.parametrize("width,height,apex", EXTERIOR_CONES)
def test_exterior_ribbons_from_paths_match_the_ribbon_list(width, height, apex):
    """The exterior checks' ribbons, built only for the paths a check keeps,
    equal those picked from the list of every exterior ribbon, in the same
    order, and the sampler leaves the generator in the same state, at seeds
    0 to 4."""
    lat = Lattice(width, height, "plane")
    cone = cone_make((apex, apex), ["N", "E"], lat)
    detectors = detecting_exterior_sites(lat, cone)
    for seed in range(5):
        rng, ref = random.Random(seed), random.Random(seed)
        got = duality.sample_exterior_ribbons(lat, cone, detectors, rng, 100)
        assert got == oracles.sample_exterior_ribbons(lat, cone, ref, 100)
        assert rng.getstate() == ref.getstate()
        assert bool(got) == bool(detectors)
    assert duality.boundary_ribbons(lat, cone, detectors) == oracles.boundary_ribbons(lat, cone)


def _search_errors(call):
    """call's result, and each LatticeError that a ribbon search raised
    while it ran: ``ribbon_between`` and ``joined_sites`` frames, and the
    duality frames such an error passes through."""
    searches = ("ribbon_between", "joined_sites")
    raised = []

    def tracer(frame, event, arg):
        code = frame.f_code
        if event == "exception" and issubclass(arg[0], LatticeError):
            if code.co_name in searches or code.co_filename == duality.__file__:
                raised.append(code.co_name)
        return tracer

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        out = call()
    finally:
        sys.settrace(previous)
    return out, raised


def test_boundary_ribbons_raise_no_lattice_error():
    """On the default 3x4 cone no ribbon search raises while boundary_ribbons
    sorts out the endpoint pairs that no ribbon on the cone joins; the
    ribbon-list version raised in 28 of its 34 searches. Among the pairs is
    one joined by a site path but by no edge-disjoint ribbon."""
    lat = Lattice(3, 4, "plane")
    cone = cone_make((1, 1), ["N", "E"], lat)
    detectors = detecting_exterior_sites(lat, cone)
    ribbons, raised = _search_errors(lambda: duality.boundary_ribbons(lat, cone, detectors))
    assert len(ribbons) == 6 and not raised
    reference, raised = _search_errors(lambda: oracles.boundary_ribbons(lat, cone))
    assert reference == ribbons
    assert raised.count("ribbon_between") == 28
    s0, s1 = Site(10, 4), Site(4, 2)
    assert oracles.site_bfs(lat, s0, s1, cone.edges, True) is not None
    with pytest.raises(LatticeError, match="no ribbon"):
        ribbon_between(s0, s1, lat, cone, allow_reversed=True)
