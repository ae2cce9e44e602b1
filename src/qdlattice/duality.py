"""Finite-patch counterparts of the cone-algebra duality machinery.

The subspace H_Lambda is what the region's ribbon operators generate from
the ground state. Because the irreducible-representation ribbon operators
factor into single-triangle operators, that span equals the region's full
edge-operator span applied to the ground state, which factorizes:

    H_Lambda = C^(|G|^k) tensor W,

anything on the k dual-carrying region edges, tensored with W, the span of
the ground state's exterior restrictions. The iterative ribbon-operator
closure is kept as an independent construction, and the two are checked
against each other at small sizes.

``ConeSubspace`` works in these tensor coordinates and never lists the
|G|^k * dim W product vectors. A vector of H_Lambda is a block X[a, j], the
state sum X[a, j] |a> tensor w_j, where

* a is the region index: the configuration of the k region edges as one
  mixed-radix integer, first edge most significant, which is the row order
  of ``support_matrix``;
* w_j is an orthonormal basis of W, stored as one conjugated sparse map
  from integer exterior keys (the configuration of every other edge).

The ground state's own block C gives Omega = sum C[a, j] |a> tensor w_j. A
state's coordinates come from bucketing its rows by region index and
exterior key, then one sparse product. A region operator M acts on the
block as its ``support_matrix`` S_M, so M Omega has coordinates S_M C
without applying M to Omega. The compressed exterior operator
E_jk = 1 tensor |w_j><w_k| maps Omega to the block whose column j is C[:, k].

On a plane patch the rim edges admit no dual triangles, so a cone region
that keeps its rim edges would carry an artificially diagonal operator
algebra there. Truncated cones therefore drop rim edges (see cone_make's
trim flag); this is the honest finite stand-in for a cone drawn on the
infinite lattice, where every edge is bulk. For a cone that keeps them, the
rim values are pinned: each w_j carries them in its exterior key, and
region operators, which only read rim edges through phases, act on the
block through S_M taken at the rim values of w_j.

On top of the subspace sit the exterior-charge orthogonality check, the
boundary membership check and the real-linear density check mirroring the
commutant argument: self-adjoint region ribbon operators applied to the
ground state, plus i times self-adjoint exterior operators compressed to
H_Lambda, must span H_Lambda over the reals; dropping the compressed family
must leave a strict deficit. The density check builds both families as
coordinate blocks; only its 40 sampled exterior ribbon operators are
applied to Omega. The orthogonality check needs no Omega at all: H_Lambda is
spanned by the M Omega for the region's edge monomials M, so it reads
<M Omega|F Omega> = omega(M^dagger F) from the flat-connection group.

What still materializes: Omega itself, and the exterior ribbon states of the
membership check and of the density check's flavour family.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence

import numpy as np
import scipy.sparse as sp

from .groundstate import OMEGA_ROWS_CAP, face_fluxes, omega_expectation, shift_row
from .groups import AbelianGroup
from .lattice import Lattice, LatticeError, Region, Ribbon, Site, Triangle, positive_moves
from .operators import AffineMap, OpSum, as_opsum, ribbon_F_irrep, support_matrix
from .reports import Check
from .states import SparseState, gram_matrix, orthonormal_coeffs

SUBSPACE_TOL = 1e-9
# entries of a dense block: density matrix (family x 2 dim), residual (|G|^k x keys)
DENSITY_ENTRIES_CAP = 1 << 24


class DualityError(ValueError):
    """A cone-subspace computation would exceed its size cap."""


# -- ribbon enumeration ------------------------------------------------------------


def ribbons_in_region(lat: Lattice, region: Region, max_len: int) -> list[Ribbon]:
    """All positively-oriented ribbons supported on the region's edges, up
    to the triangle-count cap."""
    allowed = frozenset(region.edges)
    out: list[Ribbon] = []
    seen: set[tuple] = set()
    for s0 in sorted(lat.sites()):
        stack: list[tuple[Site, tuple[Triangle, ...], frozenset[int]]] = [(s0, (), frozenset())]
        while stack:
            s, path, used = stack.pop()
            if len(path) >= max_len:
                continue
            for tri in positive_moves(lat, s, allowed):
                if tri.edge in used:
                    continue
                new = path + (tri,)
                if new not in seen:
                    seen.add(new)
                    out.append(Ribbon.from_triangles(new))
                stack.append((tri.s1, new, used | {tri.edge}))
    return out


def _nontrivial_labels(group: AbelianGroup) -> list[tuple]:
    e = group.identity()
    return [
        (chi, c) for chi in group.characters() for c in group.elements() if (chi, c) != (e, e)
    ]


def _label_ops(lat: Lattice, group: AbelianGroup, ribbons: Iterable[Ribbon]) -> list[OpSum]:
    labels = _nontrivial_labels(group)
    return [
        as_opsum(ribbon_F_irrep(lat, group, r, chi, c)) for r in ribbons for chi, c in labels
    ]


# -- the cone subspace in factorized coordinates -------------------------------------


def _codes(configs: np.ndarray, edges: Sequence[int], radix: int) -> np.ndarray:
    """Mixed-radix integer of each row's values on `edges`, the first edge
    most significant (``support_matrix``'s index order)."""
    out = np.zeros(len(configs), dtype=np.int64)
    for e in edges:
        out = out * radix + configs[:, e]
    return out


def _key_matrix(states: Sequence[SparseState], edges: Sequence[int], radix: int):
    """(sorted joint keys on `edges`, the states' amplitudes as the columns of a
    sparse matrix over those keys)."""
    keys = [_codes(psi.configs, edges, radix) for psi in states]
    uniq, rows = np.unique(np.concatenate(keys), return_inverse=True)
    cols = np.repeat(np.arange(len(states)), [len(kk) for kk in keys])
    amps = np.concatenate([psi.amps for psi in states])
    return uniq, sp.csr_matrix((amps, (rows, cols)), shape=(len(uniq), len(states)))


def _fill_edges(lat: Lattice, region: Region) -> list[int]:
    """The region edges with a dual triangle, in order: those region operators shift."""
    return [e for e in sorted(region.edges) if not lat.is_rim(e)]


@dataclass
class ConeSubspace:
    """H_Lambda = C^(|G|^k) tensor W in tensor coordinates: a block X of
    shape (|G|^k, dim W) stands for sum X[a, j] |a> tensor w_j."""

    region: Region
    lat: Lattice
    group: AbelianGroup
    fill_edges: list[int]  # region edges with a dual triangle: free
    ext_edges: list[int]  # every other edge: the exterior key
    ext_keys: np.ndarray  # sorted exterior keys on which some w_j lives
    w_conj: sp.csr_matrix  # (len(ext_keys), dim W): conj(w_j) at each key
    omega_coeffs: np.ndarray  # C: Omega = sum C[a, j] |a> tensor w_j
    region_rows: np.ndarray  # support_matrix index of (a, rim values of w_j)

    @property
    def dim(self) -> int:
        return self.omega_coeffs.size

    def _buckets(self, psi: SparseState) -> tuple[sp.csr_matrix, float]:
        """psi's amplitudes as a (region index, exterior key) matrix over the
        keys of W, and the squared norm of psi's rows off those keys."""
        radix = self.group.order
        keys = _codes(psi.configs, self.ext_edges, radix)
        pos = np.minimum(np.searchsorted(self.ext_keys, keys), len(self.ext_keys) - 1)
        hit = self.ext_keys[pos] == keys
        fills = _codes(psi.configs[hit], self.fill_edges, radix)
        shape = (self.omega_coeffs.shape[0], len(self.ext_keys))
        p = sp.csr_matrix((psi.amps[hit], (fills, pos[hit])), shape=shape)
        return p, float(np.sum(np.abs(psi.amps[~hit]) ** 2))

    def coeffs(self, psi: SparseState) -> np.ndarray:
        """<a tensor w_j | psi> as a (|G|^k, dim W) block."""
        return (self._buckets(psi)[0] @ self.w_conj).toarray()

    def residual(self, psi: SparseState) -> float:
        """Distance from psi to H_Lambda, summed from psi's rows minus their
        projection rather than as a difference of squared norms."""
        p, off = self._buckets(psi)
        x = (p @ self.w_conj).toarray()
        on = p.toarray() - (self.w_conj.conj() @ x.T).T
        return float(np.sqrt(off + np.sum(np.abs(on) ** 2)))

    @cached_property
    def _region_block(self) -> np.ndarray:
        """C spread over support_matrix's index of the whole region: row
        region_rows[a, j] of column j holds C[a, j]."""
        rows, cols = self.region_rows, np.arange(self.omega_coeffs.shape[1])
        n_region = self.group.order ** len(self.region.edges)
        c = np.zeros((n_region, len(cols)), dtype=np.complex128)
        c[rows, cols] = self.omega_coeffs
        return c

    def region_images(self, op) -> tuple[np.ndarray, np.ndarray]:
        """Coordinates of op Omega and op^dagger Omega for an operator on the
        region's edges: S_op C and S_op^dagger C, each read at the rim values
        of w_j. ``support_matrix`` refuses an operator that leaves the region."""
        opsum = as_opsum(op)
        pinned = set(self.region.edges) - set(self.fill_edges)
        assert not any(e in pinned for _, m in opsum.terms for e, _ in m.shifts), (
            "rim edges carry no dual triangle, so no region operator shifts them"
        )
        s = support_matrix(opsum, sorted(self.region.edges), self.lat.n_edges)
        c = self._region_block
        at = (self.region_rows, np.arange(c.shape[1]))
        return (s @ c)[at], (s.T @ c.conj()).conj()[at]

    def rim_groups(self) -> list[np.ndarray]:
        """Columns j of the block sharing the same pinned rim values: the
        blocks on which a compressed exterior operator acts."""
        rims = self.region_rows[0]  # a = 0 fills nothing, leaving the rim offsets
        return [np.flatnonzero(rims == r) for r in np.unique(rims)]


def cone_subspace(
    region: Region, lat: Lattice, group: AbelianGroup, omega: SparseState
) -> ConeSubspace:
    """H_Lambda in factorized coordinates: Omega's rows are bucketed by
    their rim values and region configuration, and the buckets' exterior
    restrictions are orthonormalized, with Omega's coefficients tracked."""
    from scipy.sparse.csgraph import connected_components  # only the Haag checks need it

    radix = group.order
    region_edges = sorted(region.edges)
    fill_edges = _fill_edges(lat, region)
    ext_edges = sorted(set(lat.edges()) - set(fill_edges))
    if radix ** len(ext_edges) > np.iinfo(np.int64).max:
        raise DualityError(
            f"exterior keys of {len(ext_edges)} edges over |G| = {radix} overflow int64"
        )
    # support_matrix index of each fill a (rim edges at 0), and of each
    # row's rim values (fill edges at 0)
    weight = {e: radix ** (len(region_edges) - 1 - i) for i, e in enumerate(region_edges)}
    k = len(fill_edges)
    digits = np.arange(radix**k)[:, None] // radix ** np.arange(k - 1, -1, -1) % radix
    fill_rows = digits @ np.array([weight[e] for e in fill_edges], dtype=np.int64)
    fills = _codes(omega.configs, fill_edges, radix)
    rims = _codes(omega.configs, region_edges, radix) - fill_rows[fills]
    exterior = omega.configs.copy()
    exterior[:, fill_edges] = 0
    order = np.lexsort((fills, rims))
    cuts = np.flatnonzero(np.diff(rims[order]) | np.diff(fills[order])) + 1
    buckets = np.split(order, cuts)

    # Restrictions that share no exterior key are exactly orthogonal, and
    # modified Gram-Schmidt skips exact zero overlaps: orthonormalizing each
    # connected component of shared keys on its own, with the columns put
    # back in the order of the vectors that produced them, reproduces
    # Gram-Schmidt over each whole rim group bit for bit.
    vectors = [
        SparseState.from_terms(exterior[b], omega.amps[b], lat.n_edges, radix) for b in buckets
    ]
    incidence = abs(_key_matrix(vectors, ext_edges, radix)[1])
    n_comp, component = connected_components(incidence.T @ incidence, directed=False)
    heads = [b[0] for b in buckets]
    columns = []  # (producing vector, basis vector, member vectors, coefficients)
    for c in range(n_comp):
        members = np.flatnonzero(component == c)
        basis, coeffs = orthonormal_coeffs([vectors[i] for i in members], SUBSPACE_TOL)
        for j, w in enumerate(basis):
            columns.append((members[np.argmax(coeffs[:, j] != 0)], w, members, coeffs[:, j]))
    columns.sort(key=lambda col: col[0])
    omega_coeffs = np.zeros((radix**k, len(columns)), dtype=np.complex128)
    for j, (_, _, members, coeff) in enumerate(columns):
        omega_coeffs[fills[heads][members], j] = coeff
    region_rows = fill_rows[:, None] + rims[heads][[col[0] for col in columns]][None, :]
    ext_keys, w = _key_matrix([col[1] for col in columns], ext_edges, radix)
    return ConeSubspace(
        region, lat, group, fill_edges, ext_edges, ext_keys, w.conj(), omega_coeffs, region_rows
    )


def _pivoted_independent(vectors: list[SparseState], tol: float) -> list[int]:
    """Indices of a maximal independent subset, by greedy pivoted Cholesky
    on the Gram matrix."""
    if not vectors:
        return []
    g = gram_matrix([v.normalized() for v in vectors])
    n = len(vectors)
    diag = np.real(np.diag(g)).copy()
    low = np.zeros((n, 0), dtype=np.complex128)
    picked: list[int] = []
    for _ in range(n):
        k = int(np.argmax(diag))
        if diag[k] <= tol:
            break
        col = (g[:, k] - low @ low[k].conj()) / np.sqrt(diag[k])
        low = np.hstack([low, col[:, None]])
        diag = diag - np.abs(col) ** 2
        diag[picked + [k]] = 0.0
        picked.append(k)
    return picked


def ribbon_closure_rank(
    region: Region,
    lat: Lattice,
    group: AbelianGroup,
    omega: SparseState,
    length_cap: int = 5,
    rounds: int = 8,
    tol: float = SUBSPACE_TOL,
) -> tuple[int, int]:
    """Independent construction of H_Lambda: iterate the region's ribbon
    operators on the ground state and report (rank at cap-1, rank at cap).
    Equal ranks certify cap stability; the rank must match the factorized
    dimension."""
    ranks = []
    for cap in (length_cap - 1, length_cap):
        ops = _label_ops(lat, group, ribbons_in_region(lat, region, cap))
        spanning = [omega.normalized()]
        frontier = list(spanning)
        for _ in range(rounds):
            new = [op.apply(v) for op in ops for v in frontier]
            new = [v for v in new if not v.is_zero()]
            keep = _pivoted_independent(spanning + new, tol)
            grew = [i for i in keep if i >= len(spanning)]
            if not grew:
                break
            frontier = [(spanning + new)[i] for i in grew]
            spanning = [(spanning + new)[i] for i in keep]
        ranks.append(len(_pivoted_independent(spanning, tol)))
    return ranks[0], ranks[1]


# -- exterior checks -----------------------------------------------------------------


def detecting_exterior_sites(lat: Lattice, region: Region) -> dict[Site, tuple[bool, bool]]:
    """(star detector, plaquette detector) of each site carrying a complete
    star or plaquette inside the interior of the complement: the places
    where a deep excitation is detectable, which is the hypothesis of the
    orthogonality statement."""
    interior = region.interior_complement_edges()
    out = {}
    for s in lat.sites():
        star_ok = lat.has_full_star(s.vertex) and set(lat.star_edges(s.vertex)) <= interior
        plaq_ok = {e for e, _ in lat.plaq_edges(s.face)} <= interior
        if star_ok or plaq_ok:
            out[s] = (star_ok, plaq_ok)
    return out


def sample_exterior_ribbons(
    lat: Lattice,
    region: Region,
    rng: random.Random,
    count: int,
    max_len: int = 6,
    want_deep_endpoint: bool = True,
) -> list[Ribbon]:
    """Seeded exterior ribbons. With `want_deep_endpoint`, at least one
    endpoint sits at a detecting deep-exterior site. Otherwise both
    endpoints touch the region boundary and are joinable by a ribbon inside
    the region, which is the cone-connectedness hypothesis under which
    boundary-connecting exterior states belong to the cone subspace."""
    from .lattice import ribbon_between

    comp = Region(lat, region.complement_edges())
    detecting = detecting_exterior_sites(lat, region)
    candidates = [r for r in ribbons_in_region(lat, comp, max_len) if len(r) >= 2]
    picked = []
    for r in candidates:
        deep = r.start in detecting or r.end in detecting
        if want_deep_endpoint or deep:
            if want_deep_endpoint and deep:
                picked.append(r)
            continue
        if not (region.site_on_boundary(r.start) and region.site_on_boundary(r.end)):
            continue
        try:
            ribbon_between(r.start, r.end, lat, region, allow_reversed=True)
        except LatticeError:
            continue
        picked.append(r)
    rng.shuffle(picked)
    return picked[:count]


def _deep_charge_detected(group: AbelianGroup, detectors: dict, ribbon: Ribbon, chi, c) -> bool:
    """Whether the charge pair (chi, c) at the start and its conjugate at
    the end trips some deep-exterior star or plaquette detector: the net
    character per vertex and the net flux label per face must be nontrivial
    somewhere a detector exists. Opposite endpoint charges at a shared
    vertex or face cancel."""
    e = group.identity()
    ends = ((ribbon.start, chi, c), (ribbon.end, group.char_conj(chi), group.inv(c)))
    for s, _, _ in ends:
        star_ok, plaq_ok = detectors.get(s, (False, False))
        net_char, net_flux = e, e
        for t, ch, fl in ends:
            net_char = group.char_mul(net_char, ch) if t.vertex == s.vertex else net_char
            net_flux = group.mul(net_flux, fl) if t.face == s.face else net_flux
        if (star_ok and net_char != e) or (plaq_ok and net_flux != e):
            return True
    return False


def _max_cone_overlap(lat: Lattice, group: AbelianGroup, region: Region, f: AffineMap) -> float:
    """max |<M Omega|F Omega>| = max |omega(M^dagger F)| over the region's
    edge monomials M (a shift on the fill edges times a character on every
    region edge). The M Omega span H_Lambda, so F Omega is orthogonal to it
    exactly when this is 0, and each term is at most the norm of F Omega's
    projection. A term vanishes unless M^dagger F's shift s_F - s_M is flat,
    so all |G|^k shifts are filtered with one face-flux pass first."""
    t, n = group.tables(), group.order
    fill, edges = _fill_edges(lat, region), sorted(region.edges)
    digits = np.arange(n ** len(fill))[:, None] // n ** np.arange(len(fill) - 1, -1, -1) % n
    rows = np.repeat(shift_row(lat, f), len(digits), axis=0)
    rows[:, fill] = t["add"][rows[:, fill], t["neg"][digits]]
    worst = 0.0
    for d in digits[~face_fluxes(lat, group, rows).any(axis=1)]:
        shifts = list(zip(fill, map(group.element_at, d.tolist())))
        for chis in itertools.product(group.characters(), repeat=len(edges)):
            m = _monomial(lat, group, shifts, zip(edges, chis))
            worst = max(worst, abs(omega_expectation(lat, group, m.adjoint().compose(f))))
    return worst


def external_charge_orthogonality_check(
    region: Region,
    lat: Lattice,
    group: AbelianGroup,
    rng: random.Random,
    samples: int = 100,
) -> Check:
    """Externally charged vectors must be orthogonal to H_Lambda, checked
    through ground-state expectations without building Omega. Refused,
    before anything is enumerated, when the region has more than
    OMEGA_ROWS_CAP edge monomials."""
    power = len(_fill_edges(lat, region)) + len(region.edges)
    if group.order**power > OMEGA_ROWS_CAP:
        raise DualityError(
            f"orthogonality sweep over {group.order}^{power} = {group.order**power} region"
            f" monomials is above the cap of {OMEGA_ROWS_CAP}"
        )
    nontrivial = _nontrivial_labels(group)
    detectors = detecting_exterior_sites(lat, region)
    worst = 0.0
    n_used = 0
    for r in sample_exterior_ribbons(lat, region, rng, samples, want_deep_endpoint=True):
        labels = [
            (chi, c) for chi, c in nontrivial if _deep_charge_detected(group, detectors, r, chi, c)
        ]
        if not labels:
            continue
        chi, c = rng.choice(labels)
        f = ribbon_F_irrep(lat, group, r, chi, c)
        worst = max(worst, _max_cone_overlap(lat, group, region, f))
        n_used += 1
    return Check.judged(
        "externally charged vectors orthogonal to the cone subspace",
        "externally charged vectors are orthogonal to the cone subspace",
        n_used > 0 and worst <= 1e-9,
        worst,
        f"{n_used} ribbons with a detectable deep-exterior charge",
    )


def boundary_membership_check(
    region: Region,
    lat: Lattice,
    group: AbelianGroup,
    omega: SparseState,
    subspace: ConeSubspace,
    rng: random.Random,
    samples: int = 100,
) -> Check:
    """Exterior ribbons connecting two boundary sites must land inside
    H_Lambda. Refused, before any ribbon is applied, when a residual's dense
    (region index, exterior key) block would exceed DENSITY_ENTRIES_CAP."""
    entries = subspace.omega_coeffs.shape[0] * len(subspace.ext_keys)
    if entries > DENSITY_ENTRIES_CAP:
        raise DualityError(
            f"boundary residuals need {subspace.omega_coeffs.shape[0]} x"
            f" {len(subspace.ext_keys)} blocks, above the cap of {DENSITY_ENTRIES_CAP} entries"
        )
    nontrivial = _nontrivial_labels(group)
    boundary = sample_exterior_ribbons(lat, region, rng, samples, want_deep_endpoint=False)
    worst = 0.0
    for r in boundary:
        chi, c = rng.choice(nontrivial)
        psi = as_opsum(ribbon_F_irrep(lat, group, r, chi, c)).apply(omega)
        worst = max(worst, subspace.residual(psi))
    return Check.judged(
        "boundary-connecting exterior ribbons stay in the cone subspace",
        "charge-free exterior vectors lie in the cone subspace",
        bool(boundary) and worst <= 1e-9,
        worst,
        f"{len(boundary)} boundary-to-boundary ribbons of {samples} requested",
    )


# -- the real-linear density check ---------------------------------------------------


def _compressed_hermitian_images(subspace: ConeSubspace) -> list[np.ndarray]:
    """i Y Omega for a real basis of self-adjoint compressed exterior
    operators, as coordinate blocks. An exterior operator preserves the
    region factors, so its compression is a matrix on each rim group's
    exterior span, and every Hermitian matrix there is the compression of
    some exterior operator. E_jk Omega has column j equal to C[:, k]."""
    c = subspace.omega_coeffs
    out = []
    for cols in subspace.rim_groups():
        for j in cols:
            x = np.zeros_like(c)
            x[:, j] = 1j * c[:, j]  # i E_jj Omega
            out.append(x)
        for j, k in itertools.combinations(cols, 2):
            x = np.zeros_like(c)
            x[:, j], x[:, k] = 1j * c[:, k], 1j * c[:, j]  # i (E_jk + E_kj) Omega
            out.append(x)
            x = np.zeros_like(c)
            x[:, j], x[:, k] = -c[:, k], c[:, j]  # i (i E_jk - i E_kj) Omega
            out.append(x)
    return out


def _density_operators(
    lat: Lattice,
    group: AbelianGroup,
    region: Region,
    subspace: ConeSubspace,
    rng: random.Random,
    ribbon_cap: int,
    product_samples: int,
) -> tuple[list[OpSum], list[OpSum]]:
    """The seeded operator families of the density check: region operators
    (ribbons, edge monomials, products of two ribbons) and a handful of
    exterior ribbon operators for flavour."""
    region_ops = _label_ops(lat, group, ribbons_in_region(lat, region, ribbon_cap))
    pool = list(region_ops) + _edge_monomials(lat, group, subspace, rng, product_samples)
    for _ in range(product_samples // 3):
        m = region_ops[rng.randrange(len(region_ops))].compose(
            region_ops[rng.randrange(len(region_ops))]
        )
        pool.append(m)
    comp = Region(lat, region.complement_edges())
    ext = _label_ops(lat, group, ribbons_in_region(lat, comp, 4))
    rng.shuffle(ext)
    return pool, ext[:40]


def self_adjoint_density_check(
    region: Region,
    lat: Lattice,
    group: AbelianGroup,
    omega: SparseState,
    subspace: ConeSubspace,
    rng: Optional[random.Random] = None,
    ribbon_cap: int = 5,
    product_samples: int = 300,
) -> list[Check]:
    """Real-linear span of {X Omega : X self-adjoint region ribbon operator
    combination} and {i Y Omega : Y self-adjoint compressed exterior
    operator} must reach 2 dim(H_Lambda); the first family alone must not.
    Both families are coordinate blocks: the region family is S_M C, the
    compressed family is written from C."""
    rng = rng or random.Random(0)
    pool, flavour = _density_operators(
        lat, group, region, subspace, rng, ribbon_cap, product_samples
    )
    n_b = sum(len(cols) ** 2 for cols in subspace.rim_groups()) + 2 * len(flavour)
    n_rows = 2 * len(pool) + n_b
    if n_rows * 2 * subspace.dim > DENSITY_ENTRIES_CAP:
        raise DualityError(
            f"density check needs a {n_rows} x {2 * subspace.dim} coefficient matrix,"
            f" above the cap of {DENSITY_ENTRIES_CAP} entries"
        )
    a_family = []
    for m in pool:
        v, vs = subspace.region_images(m)
        a_family += [v + vs, 1j * (v - vs)]

    b_family = _compressed_hermitian_images(subspace)
    for m in flavour:
        v = subspace.coeffs(m.apply(omega))
        vs = subspace.coeffs(m.adjoint().apply(omega))
        b_family += [1j * (v + vs), -(v - vs)]

    target = 2 * subspace.dim
    full_rank = _real_rank(a_family + b_family)
    a_rank = _real_rank(a_family)
    law = "self-adjoint parts plus i times compressed exterior parts span"
    return [
        Check.judged(
            "self-adjoint family spans the cone subspace over the reals",
            law,
            full_rank == target,
            float(target - full_rank),
            f"rank {full_rank} of target {target}",
        ),
        Check.judged(
            "dropping the compressed exterior family leaves a deficit",
            law,
            a_rank < target,
            float(a_rank),
            f"rank {a_rank} < {target}",
        ),
    ]


def _edge_monomials(
    lat: Lattice,
    group: AbelianGroup,
    subspace: ConeSubspace,
    rng: random.Random,
    cap: int,
) -> list[OpSum]:
    """Products of single-triangle ribbon operators, one shift and one
    character phase per region edge: a deterministic monomial spanning set
    of the region's ribbon algebra (matrix units up to phases)."""
    edges = subspace.fill_edges
    elems, chars = group.elements(), group.characters()
    if (group.order ** len(edges)) ** 2 <= cap:
        combos = itertools.product(
            itertools.product(elems, repeat=len(edges)), itertools.product(chars, repeat=len(edges))
        )
    else:
        combos = [
            (tuple(rng.choice(elems) for _ in edges), tuple(rng.choice(chars) for _ in edges))
            for _ in range(cap)
        ]
    out = []
    for shift_vals, char_vals in combos:
        m = _monomial(lat, group, zip(edges, shift_vals), zip(edges, char_vals))
        if m.shifts or m.chars:
            out.append(OpSum.of(m))
    return out


def _monomial(lat: Lattice, group: AbelianGroup, shifts, chars) -> AffineMap:
    """Shift by each (edge, element) pair, times each (edge, character)
    pair's character of the edge value; identity factors are dropped."""
    e = group.identity()
    return AffineMap(
        group,
        lat.n_edges,
        shifts=tuple((edge, group.index_of(g)) for edge, g in shifts if g != e),
        chars=tuple((chi, ((edge, 1),), group.index_of(e)) for edge, chi in chars if chi != e),
    )


def _real_rank(blocks: Sequence[np.ndarray], tol: float = 1e-7) -> int:
    """Real rank of a family of H_Lambda vectors given by their coordinate
    blocks: the rank of the normalized rows (Re x, Im x)."""
    if not blocks:
        return 0
    m = np.array([b.ravel() for b in blocks])
    norms = np.linalg.norm(m, axis=1)
    m = m[norms > 1e-12] / norms[norms > 1e-12, None]
    if not len(m):
        return 0
    s = np.linalg.svd(np.hstack([m.real, m.imag]), compute_uv=False)
    return int(np.sum(s > tol))
