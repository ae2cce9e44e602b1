import itertools
import random

import numpy as np
import pytest
import scipy.sparse as sp

from qdlattice import duality
from qdlattice.duality import (
    DualityError,
    boundary_membership_check,
    cone_subspace,
    detecting_exterior_sites,
    external_charge_orthogonality_check,
    ribbon_closure_rank,
    ribbons_in_region,
    self_adjoint_density_check,
)
from qdlattice.groups import group_make
from qdlattice.groundstate import ground_state
from qdlattice.lattice import (
    Lattice,
    Region,
    Site,
    cone_make,
    ribbon_between,
)
from qdlattice.operators import as_opsum, ribbon_F_irrep
from qdlattice.states import SparseState

from oracles import (
    add,
    closure_rank,
    distance,
    inner,
    keys,
    normalized,
    orthonormal_coeffs,
    orthonormalize,
    scaled,
)

Z2 = group_make([2])


class MaterializedSubspace:
    """Oracle for ConeSubspace: every product vector |a> tensor w_j as a
    sparse state, and coordinates by key lookup over their joint support.
    Omega's rows are grouped by their rim and region values as rows (no
    integer codes); each rim group's exterior restrictions (region values
    zeroed) are orthonormalized. Vectors are listed in ConeSubspace's block
    order: region values a in lexicographic order (first edge most
    significant), then w_j by rim values and Gram-Schmidt order. With
    `sample`, only that many seeded product vectors are materialized."""

    def __init__(self, region, lat, group, omega, sample=None):
        full = [e for e in sorted(region.edges) if not lat.is_rim(e)]
        rim = [e for e in sorted(region.edges) if e not in full]
        labels, which = np.unique(omega.configs[:, rim + full], axis=0, return_inverse=True)
        exterior = omega.configs.copy()
        exterior[:, full] = 0
        ws = []
        for bd in sorted({tuple(lab[: len(rim)]) for lab in labels}):
            raw = [
                SparseState.from_terms(
                    exterior[which == i], omega.amps[which == i], lat.n_edges, group.order
                )
                for i, lab in enumerate(labels)
                if tuple(lab[: len(rim)]) == bd
            ]
            ws += orthonormalize(raw)
        fills = list(itertools.product(range(group.order), repeat=len(full)))
        self.index = [(a, j) for a in range(len(fills)) for j in range(len(ws))]
        if sample is not None:
            self.index = random.Random(0).sample(self.index, sample)
        self.vectors = []
        for a, j in self.index:
            rows = ws[j].configs.copy()
            rows[:, full] = fills[a]
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


def _real_rank(rows, tol=1e-7):
    m = np.array([r for r in rows if np.linalg.norm(r) > 1e-12])
    m = m / np.linalg.norm(m, axis=1)[:, None]
    return int(np.sum(np.linalg.svd(np.hstack([m.real, m.imag]), compute_uv=False) > tol))


# (group order, width, height, trim_rim); cones at apex (1, 1) opening N and E
CASES = [
    (2, 3, 3, True),
    (3, 3, 3, True),
    (2, 3, 4, True),
    (3, 3, 4, True),
    (2, 3, 3, False),
    (2, 3, 4, False),
]
# materializing every product vector of z3 on 3x4 (dim 6561) takes about
# 1 GB, so that case compares a seeded sample of coordinates
SAMPLED = {(3, 3, 4, True): 200}
# the state-built density families of the oracle stay small on these
DENSITY_CASES = [c for c in CASES if c not in SAMPLED and c != (2, 3, 4, False)]


def _case_id(case):
    return f"z{case[0]}-{case[1]}x{case[2]}-{'trim' if case[3] else 'rim'}"


@pytest.fixture(scope="module", params=CASES, ids=_case_id)
def cone_case(request):
    order, w, h, trim = request.param
    group = group_make([order])
    lat = Lattice(w, h, "plane")
    omega = ground_state(lat, group)
    cone = cone_make((1, 1), ["N", "E"], lat, trim_rim=trim)
    sub = cone_subspace(cone, lat, group, omega)
    oracle = MaterializedSubspace(cone, lat, group, omega, SAMPLED.get(request.param))
    return request.param, lat, group, omega, cone, sub, oracle


def _probe_states(lat, group, omega, cone):
    """Omega, region operator images (in H_Lambda), exterior ribbon images
    (charged or not), a random state on Omega's support and one on random
    configurations (both mostly outside H_Lambda)."""
    rng = random.Random(1)
    region_ops = duality._label_ops(lat, group, ribbons_in_region(lat, cone, 3))
    comp = Region(lat, cone.complement_edges())
    ext_ops = duality._label_ops(lat, group, ribbons_in_region(lat, comp, 4))
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
        block = sub.coeffs(psi)
        assert block.shape[0] * block.shape[1] == sub.dim
        entries = [block[a, j] for a, j in oracle.index]
        np.testing.assert_allclose(entries, oracle.coeffs(psi), atol=1e-12)
        if param in SAMPLED:
            continue
        norm = np.linalg.norm(sub.coeffs(psi))
        assert abs(norm - np.linalg.norm(oracle.coeffs(psi))) < 1e-12
        assert abs(sub.residual(psi) - oracle.residual(psi)) < 1e-12


def test_region_images_match_applied_operators(cone_case):
    """S_M C and S_M^dagger C against the coordinates of M Omega and
    M^dagger Omega, for random region ribbons, edge monomials and products."""
    param, lat, group, omega, cone, sub, oracle = cone_case
    pool, _ = duality._density_operators(lat, group, cone, sub, random.Random(3), 3, 60)
    for m in random.Random(4).sample(pool, 6):
        v, vs = sub.region_images(m)
        np.testing.assert_allclose(v, sub.coeffs(m.apply(omega)), atol=1e-12)
        np.testing.assert_allclose(vs, sub.coeffs(m.adjoint().apply(omega)), atol=1e-12)


@pytest.mark.parametrize("cone_case", DENSITY_CASES, ids=_case_id, indirect=True)
def test_density_ranks_match_materialized_oracle(cone_case):
    """Both ranks of the density check against the families built as
    states: region operators applied to Omega, compressed exterior
    operators E_jk Omega assembled from the product vectors, and exterior
    ribbon images projected onto the subspace."""
    param, lat, group, omega, cone, sub, oracle = cone_case
    seed, ribbon_cap, samples = 5, 3, 100
    spans, control = self_adjoint_density_check(
        cone, lat, group, omega, sub, random.Random(seed), ribbon_cap, samples
    )
    pool, flavour = duality._density_operators(
        lat, group, cone, sub, random.Random(seed), ribbon_cap, samples
    )
    a_family = []
    for m in pool:
        v, vs = oracle.coeffs(m.apply(omega)), oracle.coeffs(m.adjoint().apply(omega))
        a_family += [v + vs, 1j * (v - vs)]
    # E_jk Omega = sum_a C[a, k] |a> tensor w_j, within a rim group
    n_fill = len({a for a, _ in oracle.index})
    r = len(oracle.index) // n_fill
    c = oracle.coeffs(omega).reshape(n_fill, r)
    rim = sorted(set(cone.edges) - set(sub.fill_edges))
    rim_of = [tuple(oracle.vectors[j].configs[0, rim]) for j in range(r)]

    def e_omega(j, k):
        return _combine([oracle.vectors[a * r + j] for a in range(n_fill)], c[:, k])

    b_family = []
    for j in range(r):
        b_family.append(oracle.coeffs(scaled(e_omega(j, j), 1j)))
    for j, k in itertools.combinations(range(r), 2):
        if rim_of[j] != rim_of[k]:
            continue
        jk, kj = e_omega(j, k), e_omega(k, j)
        b_family.append(oracle.coeffs(scaled(add(jk, kj), 1j)))
        b_family.append(oracle.coeffs(add(kj, scaled(jk, -1.0))))  # -(jk - kj)
    for m in flavour:
        v, vs = oracle.coeffs(m.apply(omega)), oracle.coeffs(m.adjoint().apply(omega))
        b_family += [1j * (v + vs), -(v - vs)]
    full_rank = _real_rank(a_family + b_family)
    a_rank = _real_rank(a_family)
    assert spans.details == f"rank {full_rank} of target {2 * sub.dim}"
    assert control.max_error == a_rank
    assert control.passed
    if not param[3]:
        # a cone that keeps its rim edges has a one-sided algebra there, so
        # the family falls short of the target on both paths
        assert not spans.passed


def test_density_check_refuses_oversized_matrices(monkeypatch):
    lat = Lattice(3, 3, "plane")
    omega = ground_state(lat, Z2)
    cone = cone_make((1, 1), ["N", "E"], lat)
    sub = cone_subspace(cone, lat, Z2, omega)
    monkeypatch.setattr(duality, "DENSITY_ENTRIES_CAP", 1000)
    with pytest.raises(DualityError, match=r"x 32 coefficient matrix, above the cap of 1000"):
        self_adjoint_density_check(cone, lat, Z2, omega, sub)


@pytest.fixture(scope="module")
def small_cone():
    lat = Lattice(3, 3, "plane")
    omega = ground_state(lat, Z2)
    cone = cone_make((1, 1), ["N", "E"], lat)
    sub = cone_subspace(cone, lat, Z2, omega)
    return lat, omega, cone, sub


def test_trivial_region_subspace():
    lat = Lattice(3, 3, "plane")
    omega = ground_state(lat, Z2)
    sub = cone_subspace(Region(lat, frozenset()), lat, Z2, omega)
    assert sub.dim == 1
    assert sub.residual(omega) < 1e-12


def test_closure_matches_factorized_dimension():
    """The closure grown in block coordinates against the closure grown
    from materialized states at the same length caps, on a trimmed cone
    and on one that keeps its rim edges."""
    lat = Lattice(3, 3, "plane")
    omega = ground_state(lat, Z2)
    for trim, dim in [(True, 16), (False, 32)]:
        cone = cone_make((1, 1), ["N", "E"], lat, trim_rim=trim)
        sub = cone_subspace(cone, lat, Z2, omega)
        ranks = ribbon_closure_rank(sub)
        assert ranks == closure_rank(cone, lat, Z2, omega, duality.CLOSURE_LENGTH_CAP)
        assert ranks == (dim, dim) and sub.dim == dim


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
    return lat, omega, cone, cone_subspace(cone, lat, Z2, omega)


def test_external_orthogonality_and_membership(plane_4x4_cone):
    lat, omega, cone, sub = plane_4x4_cone
    assert detecting_exterior_sites(lat, cone)
    rng = random.Random(5)
    recs = [
        external_charge_orthogonality_check(cone, lat, Z2, rng, samples=60),
        boundary_membership_check(cone, lat, Z2, omega, sub, rng),
    ]
    assert all(r.passed for r in recs), [(r.name, r.max_error) for r in recs]
    assert all(r.max_error <= 1e-9 for r in recs)


def _sweep_against_projection(lat, group, omega, cone, sub):
    """The monomial sweep and the materialized projection norm of F Omega for
    every exterior ribbon of up to 4 triangles and every nontrivial label,
    deep charge or not (each distinct operator once): they agree on
    orthogonality, and the sweep never exceeds the norm. Returns the number
    of non-orthogonal cases."""
    comp = Region(lat, cone.complement_edges())
    maps = dict.fromkeys(
        ribbon_F_irrep(lat, group, r, chi, c)
        for r in ribbons_in_region(lat, comp, 4)
        for chi, c in duality._nontrivial_labels(group)
    )
    hits = 0
    for f in maps:
        sweep = duality._max_cone_overlap(lat, group, cone, f)
        norm = np.linalg.norm(sub.coeffs(as_opsum(f).apply(omega)))
        assert (sweep > 1e-9) == (norm > 1e-9), (f, sweep, norm)
        assert sweep <= norm + 1e-12
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
    sub = cone_subspace(cone, lat, group, omega)
    assert _sweep_against_projection(lat, group, omega, cone, sub) > 0


@pytest.mark.parametrize("spec", ["z3", "z4", "z2xz2"])
def test_orthogonality_check_passes_on_4x4_enlargement(spec):
    from qdlattice.groups import parse_group

    lat = Lattice(4, 4, "plane")
    cone = cone_make((2, 2), ["N", "E"], lat)
    rec = external_charge_orthogonality_check(
        cone, lat, parse_group(spec), random.Random(0), samples=100
    )
    assert rec.passed and rec.max_error <= 1e-9
    assert int(rec.details.split()[0]) > 0


def test_orthogonality_check_refuses_oversized_sweep(monkeypatch):
    lat = Lattice(5, 5, "plane")
    cone = cone_make((1, 1), ["N", "E"], lat)

    def unreachable(*args, **kwargs):
        raise AssertionError("ribbons sampled before the size estimate")

    monkeypatch.setattr(duality, "sample_exterior_ribbons", unreachable)
    with pytest.raises(DualityError, match=r"region monomials is above the cap"):
        external_charge_orthogonality_check(cone, lat, group_make([4]), random.Random(0))


def test_boundary_check_refuses_oversized_residuals(monkeypatch, small_cone):
    lat, omega, cone, sub = small_cone
    monkeypatch.setattr(duality, "DENSITY_ENTRIES_CAP", 100)
    with pytest.raises(DualityError, match=r"blocks, above the cap of 100 entries"):
        boundary_membership_check(cone, lat, Z2, omega, sub, random.Random(0))


def _all_pairs_subspace(region, lat, group, omega):
    """cone_subspace's (ext_keys, w_conj, omega_coeffs, region_rows) with
    Gram-Schmidt over every exterior restriction of each rim group, all
    pairs, on materialized states."""
    radix = group.order
    region_edges = sorted(region.edges)
    fill = [e for e in region_edges if not lat.is_rim(e)]
    ext = sorted(set(lat.edges()) - set(fill))
    k = len(fill)
    weight = {e: radix ** (len(region_edges) - 1 - i) for i, e in enumerate(region_edges)}
    digits = np.arange(radix**k)[:, None] // radix ** np.arange(k - 1, -1, -1) % radix
    fill_rows = digits @ np.array([weight[e] for e in fill], dtype=np.int64)
    fills = duality._codes(omega.configs, fill, radix)
    rims = duality._codes(omega.configs, region_edges, radix) - fill_rows[fills]
    exterior = omega.configs.copy()
    exterior[:, fill] = 0
    blocks, w_states, w_rims = [], [], []
    for rim in np.unique(rims):
        members = [(a, (rims == rim) & (fills == a)) for a in range(radix**k)]
        members = [(a, rows) for a, rows in members if rows.any()]
        vectors = [
            SparseState.from_terms(exterior[rows], omega.amps[rows], lat.n_edges, radix)
            for _, rows in members
        ]
        basis, coeffs = orthonormal_coeffs(vectors)
        block = np.zeros((radix**k, len(basis)), dtype=np.complex128)
        block[[a for a, _ in members]] = coeffs
        blocks.append(block)
        w_states += basis
        w_rims += [rim] * len(basis)
    codes = [duality._codes(w.configs, ext, radix) for w in w_states]
    ext_keys, rows = np.unique(np.concatenate(codes), return_inverse=True)
    cols = np.repeat(np.arange(len(w_states)), [len(c) for c in codes])
    amps = np.concatenate([w.amps for w in w_states])
    w = sp.csr_matrix((amps, (rows, cols)), shape=(len(ext_keys), len(w_states)))
    region_rows = fill_rows[:, None] + np.array(w_rims)[None, :]
    return ext_keys, w.conj(), np.hstack(blocks), region_rows


@pytest.mark.parametrize(
    "order,height,kind",
    [
        (2, 4, "trim"),
        (3, 4, "trim"),
        (2, 4, "rim"),
        (2, 3, "patch"),
        (2, 3, "star"),
        (3, 3, "empty"),
    ],
)
def test_coset_subspace_matches_all_pairs_gram_schmidt(order, height, kind):
    """The coset construction of W and C against Gram-Schmidt over every
    exterior restriction of each rim group, with the same column order. The
    whole 3x3 patch and the star of its centre hold a complete star, whose
    gradient makes distinct buckets restrict to the same coset; the empty
    region has a single bucket, all of Omega."""
    group = group_make([order])
    lat = Lattice(3, height, "plane")
    omega = ground_state(lat, group)
    if kind == "patch":
        cone = Region(lat, frozenset(lat.edges()))
    elif kind == "star":
        cone = Region(lat, frozenset(lat.star_edges(lat.vertex_id(1, 1))))
    elif kind == "empty":
        cone = Region(lat, frozenset())
    else:
        cone = cone_make((1, 1), ["N", "E"], lat, trim_rim=kind == "trim")
    sub = cone_subspace(cone, lat, group, omega)
    ext_keys, w_conj, coeffs, rows = _all_pairs_subspace(cone, lat, group, omega)
    assert np.array_equal(sub.ext_keys, ext_keys)
    np.testing.assert_allclose(sub.w_conj.toarray(), w_conj.toarray(), rtol=0, atol=1e-15)
    np.testing.assert_allclose(sub.omega_coeffs, coeffs, rtol=0, atol=1e-15)
    assert np.array_equal(sub.region_rows, rows)


def test_density_rank_and_negative_control():
    lat = Lattice(3, 4, "plane")
    omega = ground_state(lat, Z2)
    cone = cone_make((1, 1), ["N", "E"], lat)
    sub = cone_subspace(cone, lat, Z2, omega)
    recs = self_adjoint_density_check(cone, lat, Z2, omega, sub, random.Random(6))
    spans, control = recs
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
    # the whole patch as the region: the subspace dimension factorizes as
    # (free configurations on both-sided edges) x (distinct flat-connection
    # restrictions to the rim), computed here independently from the flats
    from qdlattice.groundstate import flat_connections

    lat = Lattice(3, 3, "plane")
    omega = ground_state(lat, Z2)
    full = Region(lat, frozenset(lat.edges()))
    sub = cone_subspace(full, lat, Z2, omega)
    flats = flat_connections(lat, Z2)
    rim = [e for e in lat.edges() if lat.is_rim(e)]
    bulk = [e for e in lat.edges() if not lat.is_rim(e)]
    rim_patterns = {tuple(row[rim]) for row in flats}
    assert sub.dim == (2 ** len(bulk)) * len(rim_patterns)


def test_cone_region_has_boundary():
    lat = Lattice(5, 5, "plane")
    cone = cone_make((1, 1), ["N", "E"], lat)
    assert cone.edges
    assert cone.boundary_edges()
    assert cone.interior_complement_edges()


def test_haag_report_states_the_skipped_closure_check():
    """The default cone has 4 edges, above the closure cross-check's limit of
    3: the construction check says so, and every other check appears once.
    On 3x3 the cone has 2 edges and the closure check runs as well."""
    from qdlattice.experiments import run_haag
    from qdlattice.groups import parse_group
    from qdlattice.lattice import parse_lattice
    from qdlattice.reports import RunConfig

    cases = [
        (
            "z2",
            "3x4:plane",
            "cone of 4 edges, subspace dimension 256; ribbon closure cross-check"
            " skipped: it runs on cones of at most 3 edges",
        ),
        ("z2", "3x3:plane", "cone of 2 edges, subspace dimension 16"),
        ("z3", "3x3:plane", "cone of 2 edges, subspace dimension 81"),
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
            dim = int(details.split()[-1])
            assert closure[0].details == f"closure ranks ({dim}, {dim}) vs dimension {dim}"
        assert rep.all_passed
