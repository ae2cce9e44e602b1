"""Reference implementations the tests compare the package against.

Each function here is the direct, materialized or coordinate form of
something the package computes another way:

- ``inner``, ``norm``, ``add`` and the other vector operations, with
  ``gram_matrix`` and Gram-Schmidt (``orthonormal_coeffs``), are the
  linear algebra of ``SparseState``, which the package no longer needs;
- ``ground_state`` is the materialized plane Ω, uniform over the
  ``flat_connections`` that ``_gradient_configs`` lists up to
  ``FLAT_ROWS_CAP`` rows, the vector every ground-state oracle reads;
- ``ground_space``, ``expectation`` and ``distance`` work on sparse
  amplitude vectors, for ``omega_expectations`` and ``omega_distances``;
  ``omega_expectation`` and ``omega_distance`` are those batches of one;
  ``potential_means`` enumerates the vertex potentials of one delta
  system, for ``omega_expectations``' exact solver; and
  ``in_flat_group`` and ``face_flux`` are the one-row flatness test and the
  per-face flux walk, for ``face_fluxes`` and ``shift_fluxes``, and
  ``shift_rows``, ``is_flat`` and ``torus_holonomies`` are the dense shift
  rows, flatness and holonomy walks they read, for ``shift_fluxes``;
  ``torus_flat_connections`` lists every flat torus connection, for the
  holonomy count of the groundstate experiment; ``all_configs`` lists every
  configuration of a patch and ``count_flat_on_faces`` counts the flat
  assignments of a face set by brute force, for ``flat_connections`` and
  the groundstate experiment's #flat;
- ``charged_state``, ``charge_moments`` and ``detect_charge`` read charges
  off a materialized charged state, for ``omega_charge_moments``;
  ``label_from_moments`` reads the label from the (k, d) moment dict one
  character at a time, for ``fusion_table``'s array readout;
- ``charge_projector`` and ``conjugate_label`` are the textbook charge
  detector and antiparticle label;
- ``enumerated_deviation`` is ``ops_equal``'s sum over the diagonal
  edges' configurations, bucket by shift, for its single-map path, which
  reads the same values off the coefficients the maps attain;
- ``phase_of_map`` reads the scalar of a map that is a multiple of the
  identity from its normal form, and ``commutator_by_products`` reads
  lambda in a b = lambda b a from the product a b a* b* that way, for
  ``commutator_phase``;
- ``braiding_phase`` and ``s_matrix_entry`` are one pair's crossing and
  double-exchange scalars from its irrep maps and ``commutator_phase``, for
  ``braiding_phases`` and ``s_matrix_entries``, and ``s_matrix_formula`` is
  one pair's closed-form entry from ``char_eval``, for
  ``character_products``;
- ``ground_energy`` counts the stabilizers, for exact diagonalization;
- ``triangle_T`` and ``triangle_L`` are the one-triangle operators, for
  ``ribbon_F``;
- ``triangle_is_positive`` and ``loop_encloses`` read orientations and
  windings from coordinates, for the move tables and ``closed_loop_around``;
  ``closed_dual_ribbon`` and ``closed_direct_ribbon`` join the faces around
  a vertex and the corners of a face with ``make_triangle``, for
  ``alpha_ribbon`` and ``beta_ribbon``;
  ``boundary_edges`` is the gap between a region and its interior
  complement, for the region tests;
- ``build_moves`` finds each move-table triangle by searching the face's
  edges and the two faces' shared edge (``face_edge_between``,
  ``edge_between_faces``) and signs it from the edge and dual-edge
  orientations (``direct_flux_sign``, ``dual_shift_sign``), for the
  move rows read off positions; ``reversed_moves`` and ``site_moves`` list
  a site's moves from its table row, and ``ribbon_between_by_sites`` is the
  shortest-ribbon search through them (``site_bfs`` with the
  ``edge_disjoint_dfs`` fallback) on an allowed-edge set built per call,
  for ``ribbon_between``;
- ``exterior_ribbons`` builds every exterior ribbon of the duality checks,
  and ``sample_exterior_ribbons`` and ``boundary_ribbons`` pick theirs from
  that list, the latter by catching the search's refusals, for the
  path-based versions in ``duality``;
- ``materialized_cone`` reads the dense cone block C and W's exterior keys
  off Ω's rows, as a ``MaterializedCone`` whose ``residual`` is a state's
  distance to H_Lambda, for ``cone_subspace``'s counts and
  ``membership_residuals``; it refuses exterior keys that overflow int64;
- ``orthonormalize`` is plain Gram-Schmidt, for ``materialized_cone``;
- ``closure_rank`` grows the ribbon closure from materialized states with a
  pivoted Cholesky on their Gram matrix, and ``block_closure_rank`` grows
  it on the block C with a dense Gram-Schmidt, the region operators acting
  on C's rows as monomial matrices (``region_action``, ``region_apply``),
  for ``ribbon_closure_rank``'s count;
- ``cone_coeffs`` reads a state's block coordinates with
  ``MaterializedCone``'s own key lookup, for the coordinate tests;
- ``density_ranks_by_svd`` takes the density check's ranks from a real SVD
  of both families in block coordinates (``region_images`` and
  ``compressed_hermitian_images``), for ``density_ranks``; ``real_rank``
  and ``label_ops`` serve it and the cone-subspace tests;
  ``schmidt_density_ranks`` is the same closed form with r from an SVD of
  C, for ``density_ranks``' r counted from C's nonzero columns;
- ``max_cone_overlap`` sweeps omega(M^dagger F) over every edge monomial M
  of a region (``monomial``), for ``cone_overlaps``' closed form, and
  ``deep_charge_detected`` reads a ribbon's detected charge pair by group
  arithmetic, for the orthogonality check's labels from endpoint geometry;
- ``region_monomials`` lists the |G|^(2k) edge monomials of a region and
  ``weyl_label_count`` counts the distinct labels of them and their
  adjoints: n^2 labels make them a Weyl basis, the fact the density check
  takes from the region's edges being bulk;
- ``cone_shape`` gives the shape (n, m) of ``cone_subspace``'s block from
  graph components (``_components``), without Omega;
- ``deformation_pair_by_shifts`` builds each ribbon's shift pattern per
  group element (``shift_pattern``), walks the face fluxes and reads each
  flux expression on the other's pattern and on the torus cocycles
  (``flux_reading``), for ``is_deformation_pair``'s signed counts;
  ``paths_between`` lists every edge-disjoint ribbon between two sites up
  to a length, the candidate pairs of that comparison.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np
import scipy.sparse as sp

from qdlattice import lattice
from qdlattice.duality import (
    CLOSURE_LENGTH_CAP,
    EXTERIOR_RIBBON_LEN,
    ConeSubspace,
    DualityError,
    detecting_exterior_sites,
    ribbons_in_region,
)
from qdlattice.groundstate import (
    GroundStateError,
    edges_of_faces,
    face_fluxes,
    omega_distances,
    omega_expectations,
    sector_shift,
)
from qdlattice.groups import AbelianGroup, Char, Element, codes, digit_rows
from qdlattice.lattice import (
    Lattice,
    LatticeError,
    Region,
    Ribbon,
    Site,
    Triangle,
    make_triangle,
    positive_moves,
    ribbon_between,
)
from qdlattice.operators import (
    AffineMap,
    OperatorError,
    OpSum,
    as_opsum,
    canonical,
    commutator_phase,
    complete_plaquettes,
    complete_stars,
    enumerate_configs,
    plaq_h,
    ribbon_F,
    ribbon_F_irrep,
    star_g,
)
from qdlattice.sectors import SectorLabel, sector_labels
from qdlattice.states import SparseState

SPAN_TOL = 1e-9
# rows flat_connections may enumerate: |G|^(V-1) gradients
FLAT_ROWS_CAP = 1 << 22


# -- states ---------------------------------------------------------------------------


def keys(psi: SparseState) -> np.ndarray:
    """Row byte-keys, cached on the state (rows are unique and sorted already)."""
    cached = getattr(psi, "_keys", None)
    if cached is None:
        buf = np.ascontiguousarray(psi.configs)
        cached = buf.view(np.dtype((np.void, buf.shape[1]))).ravel()
        object.__setattr__(psi, "_keys", cached)
    return cached


def basis(config: Sequence[int], radix: int) -> SparseState:
    row = np.asarray(config, dtype=np.uint8).reshape(1, -1)
    return SparseState(row, np.ones(1, dtype=np.complex128), row.shape[1], radix)


def _check(psi: SparseState, phi: SparseState) -> None:
    if (psi.n_edges, psi.radix) != (phi.n_edges, phi.radix):
        raise ValueError("states live on different lattices or groups")


def is_zero(psi: SparseState) -> bool:
    return psi.n_terms == 0


def scaled(psi: SparseState, c: complex) -> SparseState:
    return SparseState(psi.configs, psi.amps * c, psi.n_edges, psi.radix)


def add(psi: SparseState, phi: SparseState) -> SparseState:
    _check(psi, phi)
    return SparseState.from_terms(
        np.concatenate([psi.configs, phi.configs]),
        np.concatenate([psi.amps, phi.amps]),
        psi.n_edges,
        psi.radix,
    )


def sub(psi: SparseState, phi: SparseState) -> SparseState:
    return add(psi, scaled(phi, -1.0))


def norm(psi: SparseState) -> float:
    return float(np.sqrt(np.sum(np.abs(psi.amps) ** 2)))


def normalized(psi: SparseState) -> SparseState:
    n = norm(psi)
    if n == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return scaled(psi, 1.0 / n)


def inner(psi: SparseState, phi: SparseState) -> complex:
    """<psi|phi>, conjugate-linear in the first argument."""
    _check(psi, phi)
    if is_zero(psi) or is_zero(phi):
        return 0.0 + 0.0j
    _, i1, i2 = np.intersect1d(keys(psi), keys(phi), assume_unique=True, return_indices=True)
    if len(i1) == 0:
        return 0.0 + 0.0j
    return complex(np.sum(np.conj(psi.amps[i1]) * phi.amps[i2]))


def distance(psi: SparseState, phi: SparseState) -> float:
    return norm(sub(psi, phi))


def gram_matrix(vectors: Sequence[SparseState]) -> np.ndarray:
    """Hermitian Gram matrix over a shared support index (sparse product)."""
    vecs = list(vectors)
    if not vecs:
        return np.zeros((0, 0), dtype=np.complex128)
    all_keys = np.unique(np.concatenate([keys(v) for v in vecs]))
    cols = [np.searchsorted(all_keys, keys(v)) for v in vecs]
    m = sp.csr_matrix(
        (
            np.concatenate([v.amps for v in vecs]),
            np.concatenate(cols),
            np.cumsum([0] + [len(c) for c in cols]),
        ),
        shape=(len(vecs), len(all_keys)),
    )
    return np.asarray((m @ m.conj().T).todense())


def orthonormal_coeffs(
    vectors: Iterable[SparseState], tol: float = SPAN_TOL
) -> tuple[list[SparseState], np.ndarray]:
    """Modified Gram-Schmidt with coefficient tracking: an orthonormal basis
    b, dropping vectors whose residual norm is < tol, and the matrix R with
    vectors[i] = sum_k R[i, k] b[k] up to those dropped residuals."""
    out: list[SparseState] = []
    cols: list[list[complex]] = []
    for v in vectors:
        w, col = v, [0j] * len(out)
        # the second sweep keeps the basis orthonormal to working precision
        for _ in range(2):
            for k, b in enumerate(out):
                c = inner(b, w)
                if c:
                    col[k] += c
                    w = sub(w, scaled(b, c))
        nrm = norm(w)
        if nrm >= tol:
            out.append(scaled(w, 1.0 / nrm))
            col.append(nrm)
        cols.append(col)
    coeffs = np.zeros((len(cols), len(out)), dtype=np.complex128)
    for i, col in enumerate(cols):
        coeffs[i, : len(col)] = col
    return out, coeffs


def orthonormalize(vectors: Iterable[SparseState], tol: float = SPAN_TOL) -> list[SparseState]:
    """Modified Gram-Schmidt; drops vectors whose residual norm is < tol."""
    return orthonormal_coeffs(vectors, tol)[0]


def _pivoted_independent(vectors: list[SparseState], tol: float) -> list[int]:
    """Indices of a maximal independent subset, by greedy pivoted Cholesky
    on the Gram matrix."""
    if not vectors:
        return []
    g = gram_matrix([normalized(v) for v in vectors])
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


def closure_rank(
    region: Region,
    lat: Lattice,
    group: AbelianGroup,
    omega: SparseState,
    length_cap: int,
    rounds: int = 8,
    tol: float = SPAN_TOL,
) -> tuple[int, int]:
    """The ribbon closure on materialized states: apply the region's ribbon
    operators to Omega and to every new state, keep an independent subset,
    and report (rank at cap-1, rank at cap)."""
    ranks = []
    for cap in (length_cap - 1, length_cap):
        # equal operators span nothing new: apply each distinct one once
        maps = dict.fromkeys(
            canonical(ribbon_F_irrep(lat, group, r, chi, c))
            for r in ribbons_in_region(lat, region, cap)
            for chi, c in sector_labels(group)[1:]
        )
        ops = [as_opsum(m) for m in maps if m is not None]
        spanning = [normalized(omega)]
        frontier = list(spanning)
        for _ in range(rounds):
            new = [op.apply(v) for op in ops for v in frontier]
            new = [v for v in new if not is_zero(v)]
            keep = _pivoted_independent(spanning + new, tol)
            grew = [i for i in keep if i >= len(spanning)]
            if not grew:
                break
            frontier = [(spanning + new)[i] for i in grew]
            spanning = [(spanning + new)[i] for i in keep]
        ranks.append(len(_pivoted_independent(spanning, tol)))
    return ranks[0], ranks[1]


# -- the cone block read off Omega's rows ------------------------------------------


@dataclass
class MaterializedCone(ConeSubspace):
    """The cone subspace read off the materialized Omega's rows, for
    ``cone_subspace`` and ``membership_residuals``. Each w_j is 1/sqrt(|K|) on its |K|
    exterior keys, so W is an index map from keys to columns, and a state's
    coordinates come from bucketing its rows by region index and exterior
    key and summing each bucket into its column. Its block C is built:
    n x m complex entries, one nonzero per nonempty bucket."""

    omega_coeffs: np.ndarray  # C: Omega = sum C[a, j] |a> tensor w_j
    ext_edges: list[int]  # every edge off the region: the exterior key
    ext_keys: np.ndarray  # sorted exterior keys on which some w_j lives
    key_cols: np.ndarray  # the column j of the w_j living on each key
    coset_size: int  # |K|: the keys of each w_j

    def _codes(self, psi: SparseState) -> tuple[np.ndarray, np.ndarray]:
        """Region index and exterior key of each of psi's rows."""
        radix, edges = self.group.order, sorted(self.region.edges)
        return codes(psi.configs, edges, radix), codes(psi.configs, self.ext_edges, radix)

    def _cells(self, fills: np.ndarray, keys: np.ndarray) -> np.ndarray:
        """The block cell a * dim W + j of each row, from its region index a
        and the column j of its exterior key, or -1 off W's keys."""
        pos = np.minimum(np.searchsorted(self.ext_keys, keys), len(self.ext_keys) - 1)
        hit = self.ext_keys[pos] == keys
        return np.where(hit, fills * self.omega_coeffs.shape[1] + self.key_cols[pos], -1)

    def _project(self, cells: np.ndarray, amps: np.ndarray) -> np.ndarray:
        """<a tensor w_j | psi>: each amplitude on W's keys times w_j's value
        1/sqrt(|K|), summed into its cell."""
        on, size = cells >= 0, self.omega_coeffs.size
        x = np.bincount(cells[on], amps[on].real, size) + 1j * np.bincount(cells[on], amps[on].imag, size)
        return (x / np.sqrt(self.coset_size)).reshape(self.omega_coeffs.shape)

    def residual(self, psi: SparseState) -> float:
        """Distance from psi to H_Lambda (``_residual`` of its rows)."""
        return self._residual(self._cells(*self._codes(psi)), psi.amps)

    def _residual(self, cells: np.ndarray, amps: np.ndarray) -> float:
        """Distance to H_Lambda of the state with these rows, given by block
        cell (``_cells``) and amplitude, summed from the rows minus their
        projection rather than as a difference of squared norms. The
        projection is x[a, j] / sqrt(|K|) on each of the |K| keys of w_j at
        region index a: the rows there contribute |amp - x / sqrt(|K|)|^2,
        and each key the state misses |x / sqrt(|K|)|^2. No (region index,
        key) block is built."""
        on = cells >= 0
        proj = self._project(cells, amps).ravel() / np.sqrt(self.coset_size)
        hits = np.bincount(cells[on], minlength=proj.size)
        rows = np.sum(np.abs(amps[on] - proj[cells[on]]) ** 2) + np.sum(np.abs(amps[~on]) ** 2)
        missed = np.sum((self.coset_size - hits) * np.abs(proj) ** 2)
        return float(np.sqrt(rows + missed))


def materialized_cone(
    region: Region, lat: Lattice, group: AbelianGroup, omega: SparseState
) -> MaterializedCone:
    """``cone_subspace`` read off Omega's rows (never its amplitudes), with
    W's exterior keys. The buckets, in region-index order, are each
    labelled by their coset's smallest exterior key; a column is a distinct
    label, placed at its first bucket, and C[a, j] = sqrt(|K| / |F|)."""
    radix = group.order
    edges = sorted(region.edges)
    ext_edges = sorted(set(lat.edges()) - region.edges)
    if radix ** len(ext_edges) > np.iinfo(np.int64).max:
        raise DualityError(
            f"exterior keys of {len(ext_edges)} edges over |G| = {radix} overflow int64"
        )
    ext = codes(omega.configs, ext_edges, radix)
    fills, bucket = np.unique(codes(omega.configs, edges, radix), return_inverse=True)
    label = np.full(len(fills), np.iinfo(np.int64).max)
    np.minimum.at(label, bucket, ext)
    _, first, coset = np.unique(label, return_index=True, return_inverse=True)
    column = np.empty(len(first), dtype=np.int64)
    column[np.argsort(first)] = np.arange(len(first))
    column = column[coset]  # of each bucket

    n_rows = omega.n_terms
    coset_size = n_rows // len(fills)  # |K|
    ext_keys, key_row = np.unique(ext, return_index=True)
    n, m = radix ** len(edges), len(first)
    omega_coeffs = np.zeros((n, m), dtype=np.complex128)
    omega_coeffs[fills, column] = np.sqrt(coset_size / n_rows)
    return MaterializedCone(
        region, lat, group, n, m, m, omega_coeffs, ext_edges, ext_keys, column[bucket[key_row]], coset_size
    )


def region_action(subspace: MaterializedCone, op) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """A region operator on the block's rows, one n x n monomial matrix per
    term (n = |G|^k): (source, target, coefficient) over region indices. A
    map sends region configuration a to one configuration with one phase
    (``AffineMap.eval``), whatever the column."""
    opsum = as_opsum(op)
    if not opsum.support() <= subspace.region.edges:
        raise OperatorError("operator touches edges outside the region")
    radix, edges = subspace.group.order, sorted(subspace.region.edges)
    configs = enumerate_configs(edges, subspace.lat.n_edges, radix)
    roots = subspace.group.tables()["roots"]
    out = []
    for coeff, m in opsum.terms:
        alive, pnum, shifted = m.eval(configs)
        target = codes(shifted[alive], edges, radix)
        out.append((np.flatnonzero(alive), target, coeff * roots[pnum[alive]]))
    return out


def region_apply(action, blocks: np.ndarray) -> np.ndarray:
    """The operator of ``region_action`` on each block of `blocks`, shape
    (n, |G|^k, dim W): a scatter of whole rows by target and phase. A map
    is injective, so no term hits one target twice."""
    out = np.zeros_like(blocks)
    for src, dst, coeff in action:
        out[:, dst] += blocks[:, src] * coeff[:, None]
    return out


def block_closure_rank(subspace: MaterializedCone, rounds: int = 8) -> tuple[int, int]:
    """The ribbon closure grown in block coordinates: an orthonormal basis
    from Omega's block C, grown by the region's ribbon operators one
    operator at a time (``region_action``) with a dense Gram-Schmidt, for
    ribbons of up to CLOSURE_LENGTH_CAP - 1 and CLOSURE_LENGTH_CAP
    triangles, for ``ribbon_closure_rank``'s count. A cap that adds no
    operator repeats the rank, and a basis of the whole block space ends
    the growth."""
    lat, group, region = subspace.lat, subspace.group, subspace.region
    labels = sector_labels(group)[1:]
    block = subspace.omega_coeffs
    ranks: dict = {}
    for cap in (CLOSURE_LENGTH_CAP - 1, CLOSURE_LENGTH_CAP):
        maps = tuple(
            dict.fromkeys(
                canonical(ribbon_F_irrep(lat, group, r, chi, c))
                for r in ribbons_in_region(lat, region, cap)
                for chi, c in labels
            )
        )
        if maps in ranks:
            ranks[cap] = ranks[maps]
            continue
        actions = [region_action(subspace, m) for m in maps if m is not None]
        basis = (block / np.linalg.norm(block)).reshape(1, -1)  # orthonormal rows
        frontier = basis
        for _ in range(rounds):
            grown = []
            for action in actions:
                if len(basis) == block.size:
                    break
                new = region_apply(action, frontier.reshape(-1, *block.shape))
                new = new.reshape(len(frontier), -1)
                for _ in range(2):  # the second pass restores orthogonality to working precision
                    new = new - (new @ basis.conj().T) @ basis
                if np.linalg.norm(new) <= SPAN_TOL:
                    continue
                _, sv, vh = np.linalg.svd(new, full_matrices=False)
                grown.append(vh[sv > SPAN_TOL])
                basis = np.vstack([basis, grown[-1]])
            if not grown:
                break
            frontier = np.vstack(grown)
        ranks[cap] = ranks[maps] = len(basis)
    return ranks[CLOSURE_LENGTH_CAP - 1], ranks[CLOSURE_LENGTH_CAP]


# -- the density check's families, materialized ---------------------------------------


def label_ops(lat: Lattice, group: AbelianGroup, ribbons: Iterable[Ribbon]) -> list[OpSum]:
    """The ribbon operator of every nontrivial label on every ribbon."""
    labels = sector_labels(group)[1:]
    return [
        as_opsum(ribbon_F_irrep(lat, group, r, chi, c)) for r in ribbons for chi, c in labels
    ]


def cone_coeffs(subspace: MaterializedCone, psi: SparseState) -> np.ndarray:
    """<a tensor w_j | psi> as a (|G|^k, dim W) block: the projection
    step of ``MaterializedCone.residual`` on its own."""
    return subspace._project(subspace._cells(*subspace._codes(psi)), psi.amps)


def region_images(subspace: MaterializedCone, op) -> tuple[np.ndarray, np.ndarray]:
    """Coordinates S_M C and S_M^dagger C of op Omega and op^dagger Omega,
    for an operator on the region's edges."""
    c = subspace.omega_coeffs[None]
    image = region_apply(region_action(subspace, op), c)[0]
    return image, region_apply(region_action(subspace, as_opsum(op).adjoint()), c)[0]


def compressed_hermitian_images(subspace: MaterializedCone) -> list[np.ndarray]:
    """i Y Omega for a real basis of self-adjoint compressed exterior
    operators, as coordinate blocks. An exterior operator preserves the
    region factors, so its compression is a matrix on W, and every
    Hermitian matrix there is the compression of some exterior operator.
    E_jk Omega has column j equal to C[:, k]."""
    c = subspace.omega_coeffs
    out = []
    for j in range(c.shape[1]):
        x = np.zeros_like(c)
        x[:, j] = 1j * c[:, j]  # i E_jj Omega
        out.append(x)
    for j, k in itertools.combinations(range(c.shape[1]), 2):
        x = np.zeros_like(c)
        x[:, j], x[:, k] = 1j * c[:, k], 1j * c[:, j]  # i (E_jk + E_kj) Omega
        out.append(x)
        x = np.zeros_like(c)
        x[:, j], x[:, k] = -c[:, k], c[:, j]  # i (i E_jk - i E_kj) Omega
        out.append(x)
    return out


def real_rank(blocks: Sequence[np.ndarray], tol: float = 1e-7) -> int:
    """Real rank of a family of vectors given by their coordinates (arrays
    of any shape): the rank of the normalized rows (Re x, Im x)."""
    if not blocks:
        return 0
    m = np.array([b.ravel() for b in blocks])
    norms = np.linalg.norm(m, axis=1)
    m = m[norms > 1e-12] / norms[norms > 1e-12, None]
    if not len(m):
        return 0
    s = np.linalg.svd(np.hstack([m.real, m.imag]), compute_uv=False)
    return int(np.sum(s > tol))


def density_ranks_by_svd(subspace: MaterializedCone, operators: Iterable) -> tuple[int, int]:
    """(full rank, region-family rank) of the density check by a real SVD
    of both families in block coordinates: (X + X^dagger) C and
    i (X - X^dagger) C for each region operator X, and the compressed
    family i C Y."""
    a_family = []
    for op in operators:
        v, vs = region_images(subspace, op)
        a_family += [v + vs, 1j * (v - vs)]
    return real_rank(a_family + compressed_hermitian_images(subspace)), real_rank(a_family)



def schmidt_density_ranks(coeffs: np.ndarray) -> tuple[int, int]:
    """``density_ranks``'s closed form with the rank r of C = `coeffs`
    (n x m) read from its singular values: n^2 - (n - r)^2 for the region
    family and that plus m^2 - (m - r)^2 for both."""
    n, m = coeffs.shape
    s = np.linalg.svd(coeffs, compute_uv=False)
    r = int(np.sum(s > SPAN_TOL * s.max(initial=0.0)))
    a_rank = n * n - (n - r) ** 2
    return a_rank + m * m - (m - r) ** 2, a_rank


def region_monomials(lat: Lattice, group: AbelianGroup, region: Region) -> list[AffineMap]:
    """Every edge monomial on the region's k edges, identity included:
    a shift and a character per edge, |G|^(2k) maps."""
    edges = sorted(region.edges)
    # packed index 0 is the identity, and characters share the elements' indices
    indices = digit_rows(group.order, len(edges)).tolist()
    shifts = [tuple((e, gi) for e, gi in zip(edges, idx) if gi) for idx in indices]
    phases = [tuple((e, ci) for e, ci in zip(edges, idx) if ci) for idx in indices]
    return [AffineMap(group, lat.n_edges, s, chars=p) for s in shifts for p in phases]


def weyl_label_count(monomials: Iterable[AffineMap]) -> int:
    """Distinct (shift, characters) labels of the maps and their adjoints,
    read from their normal forms with the global phase dropped."""
    labels = set()
    for m in monomials:
        for c in (canonical(m), canonical(m.adjoint())):
            labels.add((c.shifts, c.chars))
    return len(labels)

def monomial(lat: Lattice, group: AbelianGroup, shifts, chars) -> AffineMap:
    """Shift by each (edge, element index) pair, times each (edge, character
    index) pair's character of the edge value; identity factors (index 0)
    are dropped."""
    return AffineMap(
        group,
        lat.n_edges,
        shifts=tuple((edge, gi) for edge, gi in shifts if gi),
        chars=tuple(sorted((edge, ci) for edge, ci in chars if ci)),
    )


def max_cone_overlap(lat: Lattice, group: AbelianGroup, region: Region, f: AffineMap) -> float:
    """max |<M Omega|F Omega>| = max |omega(M^dagger F)| over the region's
    edge monomials M (a shift times a character on every region edge), by
    sweeping them. A term vanishes unless M^dagger F's shift s_F - s_M is
    flat, so all |G|^k shifts are filtered with one face-flux pass first;
    the surviving terms, with every one of the |G|^k characters, go to
    ``omega_expectations`` as one batch."""
    t, n = group.tables(), group.order
    edges = sorted(region.edges)
    digits = digit_rows(n, len(edges))
    rows = np.repeat(shift_rows(lat, [f]), len(digits), axis=0)
    rows[:, edges] = t["add"][rows[:, edges], t["neg"][digits]]
    all_chis = digits.tolist()
    ops = []
    for d in digits[~face_fluxes(lat, group, rows).any(axis=1)]:
        shifts = list(zip(edges, d.tolist()))
        for chis in all_chis:
            ops.append(monomial(lat, group, shifts, zip(edges, chis)).adjoint().compose(f))
    return max([0.0] + [abs(v) for v in omega_expectations(lat, group, ops)])


def deep_charge_detected(group: AbelianGroup, detectors: dict, ribbon: Ribbon, chi, c) -> bool:
    """Whether the charge pair (chi, c) at the start and its conjugate at
    the end trips some deep-exterior star or plaquette detector, by group
    arithmetic: the net character per vertex and the net flux label per
    face must be nontrivial somewhere a detector exists. Opposite endpoint
    charges at a shared vertex or face cancel."""
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


def _components(lat: Lattice, edges: Iterable[int]) -> int:
    """Connected components of the graph on all of the lattice's vertices
    with the given edges."""
    parent = list(range(lat.n_vertices))

    def root(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    count = lat.n_vertices
    for e in edges:
        a, b = (root(v) for v in lat.endpoint_table[e])
        if a != b:
            parent[a] = b
            count -= 1
    return count


def cone_shape(lat: Lattice, group: AbelianGroup, region: Region) -> tuple[int, int]:
    """(|G|^k, dim W) of H_Lambda, from the graph alone, without Omega. With
    c(S) the number of components of the graph (vertices, S), the subgroup
    of the |G|^(V-1) gradients vanishing on S has |G|^(c(S)-1) elements.
    W's basis is the cosets of K (vanishing on the region, c(Lambda)) among
    the exterior restrictions (|G|^(V - c(ext)) of them), so
    dim W = |G|^(V + 1 - c(Lambda) - c(ext))."""
    n, v = group.order, lat.n_vertices
    ext = set(lat.edges()) - region.edges
    dim_w = n ** (v + 1 - _components(lat, region.edges) - _components(lat, ext))
    return n ** len(region.edges), dim_w


# -- ground states -----------------------------------------------------------------


def _gradient_configs(lat: Lattice, group: AbelianGroup) -> np.ndarray:
    """Edge configurations of all vertex potentials with the root fixed."""
    t = group.tables()
    add, neg = t["add_u8"], t["neg_u8"]
    # every potential of the free vertices, the first least significant
    free = digit_rows(group.order, lat.n_vertices - 1)[:, ::-1]
    pots = np.zeros((len(free), lat.n_vertices), dtype=np.uint8)
    pots[:, 1:] = free
    configs = np.zeros((len(free), lat.n_edges), dtype=np.uint8)
    for e in lat.edges():
        tail, head = lat.edge_endpoints(e)
        configs[:, e] = add[pots[:, head], neg[pots[:, tail]]]
    return configs


def flat_connections(lat: Lattice, group: AbelianGroup) -> np.ndarray:
    """All flat configurations of a plane patch, one uint8 row per
    connection: the vertex-potential gradients. Refused, before anything is
    allocated, on a torus (whose flat set is the gradients shifted by each
    of the |G|^2 cocycles of ``sector_shift``) and above FLAT_ROWS_CAP
    rows."""
    if lat.is_torus:
        raise GroundStateError("flat_connections enumerates plane patches only")
    power = lat.n_vertices - 1
    if group.order**power > FLAT_ROWS_CAP:
        raise GroundStateError(
            f"flat-connection enumeration of {group.order}^{power} = {group.order**power}"
            f" rows on {lat.width}x{lat.height} is above the cap of {FLAT_ROWS_CAP}"
        )
    return _gradient_configs(lat, group)


def ground_state(lat: Lattice, group: AbelianGroup) -> SparseState:
    """Uniform superposition over flat connections (plane patches only: the
    torus ground space is degenerate)."""
    if lat.is_torus:
        raise GroundStateError("torus ground space is degenerate: ground_state builds plane patches")
    configs = flat_connections(lat, group)
    amps = np.full(len(configs), 1.0 / np.sqrt(len(configs)), dtype=np.complex128)
    return SparseState.from_terms(configs, amps, lat.n_edges, group.order)


def torus_flat_connections(lat: Lattice, group: AbelianGroup) -> np.ndarray:
    """Every flat torus configuration: each gradient plus each holonomy
    cocycle, the shift of ``sector_shift(lat, group, a, b)``, one uint8 row
    apiece."""
    power = lat.n_vertices + 1
    if group.order**power > FLAT_ROWS_CAP:
        raise GroundStateError(
            f"flat-connection enumeration of {group.order}^{power} = {group.order**power}"
            f" rows on {lat.width}x{lat.height} is above the cap of {FLAT_ROWS_CAP}"
        )
    grads = _gradient_configs(lat, group).astype(np.int64)
    add_table = group.tables()["add"]
    parts = []
    for hx in range(group.order):
        for hy in range(group.order):
            c0 = shift_rows(lat, [sector_shift(lat, group, hx, hy)])
            parts.append(add_table[grads, c0].astype(np.uint8))
    return np.concatenate(parts)


def ground_space(lat: Lattice, group: AbelianGroup) -> list[SparseState]:
    """Orthonormal basis of the joint +1 eigenspace of all complete star and
    plaquette projectors. On the torus: one uniform superposition per
    holonomy pair; on a plane patch the single flat-connection state."""
    if not lat.is_torus:
        return [ground_state(lat, group)]
    configs = torus_flat_connections(lat, group)
    hx, hy = torus_holonomies(lat, group, configs)
    out = []
    for a in range(group.order):
        for b in range(group.order):
            sel = configs[(hx == a) & (hy == b)]
            amps = np.full(len(sel), 1.0 / np.sqrt(len(sel)), dtype=np.complex128)
            out.append(SparseState.from_terms(sel, amps, lat.n_edges, group.order))
    return out


def multiples(group: AbelianGroup) -> np.ndarray:
    """Integer multiples over packed indices: ``mult[c, g]`` is g added to
    itself c times."""
    add = group.tables()["add"]
    mult = np.zeros((group.order, group.order), dtype=np.int64)
    for c in range(1, group.order):
        mult[c] = add[mult[c - 1], np.arange(group.order)]
    return mult


def potential_means(group: AbelianGroup, factors: list, vertices: Sequence[int]) -> list[complex]:
    """Per term (phase numerator, {delta form: target}, {vertex: character
    index}), the mean of delta * phase over every potential of `vertices`,
    by enumerating them: the reference for ``groundstate._system_means``."""
    t = group.tables()
    add, char_num, roots = t["add"], t["char_num"], t["roots"]
    mult = multiples(group)
    L = group.phase_denominator
    pots = dict(zip(vertices, digit_rows(group.order, len(vertices)).T))
    rows = group.order ** len(vertices)

    def value(form) -> np.ndarray:
        acc = np.zeros(rows, dtype=np.int64)
        for v, c in form:
            acc = add[acc, mult[c, pots[v]]]
        return acc

    means = []
    for pnum, deltas, chars in factors:
        alive = np.ones(rows, dtype=bool)
        for form, target in deltas.items():
            alive &= value(form) == target
        phase = np.full(rows, pnum, dtype=np.int64)
        for v, ci in chars.items():
            phase = (phase + char_num[ci, pots[v]]) % L
        means.append(complex(np.sum(roots[phase[alive]])) / rows)
    return means


def omega_expectation(lat: Lattice, group: AbelianGroup, op) -> complex:
    """<Ω|op|Ω> for one AffineMap or OpSum: a batch of one."""
    return omega_expectations(lat, group, [op])[0]


def omega_distance(lat: Lattice, group: AbelianGroup, f1: AffineMap, f2: AffineMap) -> float:
    """‖F₁Ω − F₂Ω‖ for one pair of maps: a batch of one."""
    return omega_distances(lat, group, [(f1, f2)])[0]


def all_configs(lat: Lattice, group: AbelianGroup) -> np.ndarray:
    """Every configuration of the patch, one uint8 row each (brute force,
    refused like any enumeration above 2^20 rows)."""
    return enumerate_configs(lat.edges(), lat.n_edges, group.order)


def count_flat_on_faces(lat: Lattice, group: AbelianGroup, faces: list[int]) -> int:
    """Brute-force count of the assignments of the edges bounding `faces`
    whose flux is trivial on each of them, from ``itertools.product`` and
    the per-face walk."""
    edges = edges_of_faces(lat, faces)
    values = list(itertools.product(range(group.order), repeat=len(edges)))
    rows = np.zeros((len(values), lat.n_edges), dtype=np.uint8)
    rows[:, edges] = np.array(values, dtype=np.uint8).reshape(len(values), len(edges))
    return int(np.sum(np.all([face_flux(lat, group, rows, f) == 0 for f in faces], axis=0)))


def face_flux(lat: Lattice, group: AbelianGroup, configs: np.ndarray, f: int) -> np.ndarray:
    """Oriented flux index around face f for each configuration row."""
    t = group.tables()
    add, neg = t["add"], t["neg"]
    acc = np.zeros(configs.shape[0], dtype=np.int64)
    for e, sign in lat.plaq_edges(f):
        col = configs[:, e].astype(np.int64)
        acc = add[acc, col if sign > 0 else neg[col]]
    return acc


def shift_rows(lat: Lattice, maps) -> np.ndarray:
    """The maps' shift patterns as dense configuration rows, one per map."""
    rows = np.zeros((len(maps), lat.n_edges), dtype=np.uint8)
    for r, m in enumerate(maps):
        for e, gi in m.shifts:
            rows[r, e] = gi
    return rows


def is_flat(lat: Lattice, group: AbelianGroup, configs: np.ndarray) -> np.ndarray:
    """Whether every face flux is trivial, per configuration row."""
    return ~np.any(face_fluxes(lat, group, configs), axis=1)


def torus_holonomies(
    lat: Lattice, group: AbelianGroup, configs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Holonomy indices along the y=0 horizontal and x=0 vertical cycles."""
    add = group.tables()["add"]
    hx = np.zeros(configs.shape[0], dtype=np.int64)
    for x in range(lat.width):
        hx = add[hx, configs[:, lat.edge_id("h", x, 0)].astype(np.int64)]
    hy = np.zeros(configs.shape[0], dtype=np.int64)
    for y in range(lat.height):
        hy = add[hy, configs[:, lat.edge_id("v", 0, y)].astype(np.int64)]
    return hx, hy


def in_flat_group(lat: Lattice, group: AbelianGroup, row: np.ndarray) -> bool:
    """Whether a one-row configuration lies in the group Ω is uniform over:
    flat, and on the torus also of trivial holonomy."""
    if face_fluxes(lat, group, row).any():
        return False
    if lat.is_torus:
        hx, hy = torus_holonomies(lat, group, row)
        return hx[0] == 0 and hy[0] == 0
    return True


def expectation(psi: SparseState, op) -> complex:
    """<psi|op|psi> / <psi|psi> on a materialized state, one term of op at a
    time: a single map cancels no amplitudes, while terms that cancel to
    below ``from_terms``' pruning threshold would drop rows from op psi."""
    nrm = inner(psi, psi)
    if nrm == 0:
        raise GroundStateError("expectation in the zero vector")
    return sum(c * inner(psi, OpSum.of(m).apply(psi)) for c, m in as_opsum(op).terms) / nrm


def ground_energy(lat: Lattice, region: Optional[Region] = None) -> float:
    """Energy of a state stabilized by every term of the Hamiltonian."""
    return -float(len(complete_stars(lat, region)) + len(complete_plaquettes(lat, region)))


# -- operators and charges ---------------------------------------------------------


def triangle_T(lat: Lattice, group: AbelianGroup, tri: Triangle, h: Element) -> AffineMap:
    """Direct-triangle projector: keeps the basis state when the edge value,
    read with the travel sign, equals h."""
    if tri.kind != "direct":
        raise OperatorError("triangle_T needs a direct triangle")
    coeffs = ((tri.edge, direct_flux_sign(lat, tri)),)
    return AffineMap(group, lat.n_edges, deltas=((coeffs, group.index_of(h)),))


def triangle_L(lat: Lattice, group: AbelianGroup, tri: Triangle, g: Element) -> AffineMap:
    """Dual-triangle shift: adds g to the crossed edge with the travel sign."""
    if tri.kind != "dual":
        raise OperatorError("triangle_L needs a dual triangle")
    gi = group.index_of(g)
    val = gi if dual_shift_sign(lat, tri) > 0 else group.index_tables[1][gi]
    if not val:
        return AffineMap.identity(group, lat.n_edges)
    return AffineMap(group, lat.n_edges, shifts=((tri.edge, val),))


def enumerated_deviation(a, b, n_edges: int) -> float:
    """Max |a - b| entry, with a's and b's terms summed per shift over every
    configuration of the diagonal edges, as ``ops_equal`` sums sums of
    several terms."""
    terms = [(0, c, m) for c, m in as_opsum(a).terms] + [(1, c, m) for c, m in as_opsum(b).terms]
    group = terms[0][2].group
    diagonal = set().union(*(m.diagonal_edges() for _, _, m in terms))
    configs = enumerate_configs(sorted(diagonal), n_edges, group.order)
    roots = group.tables()["roots"]
    buckets: dict[tuple, list] = {}
    for side, coeff, m in terms:
        alive, pnum = m.diagonal(configs)
        sums = buckets.setdefault(tuple(sorted((e, gi) for e, gi in m.shifts if gi)), [0.0, 0.0])
        sums[side] = sums[side] + np.where(alive, roots[pnum] * coeff, 0.0)
    return max(float(np.max(np.abs(np.subtract(*sums)))) for sums in buckets.values())


def phase_of_map(m: AffineMap) -> Optional[int]:
    """The exact phase numerator when the map is a scalar multiple of the
    identity, read off its normal form."""
    cm = canonical(m)
    if cm is None or cm.shifts or cm.deltas or cm.chars:
        return None
    return cm.phase


def commutator_by_products(a: AffineMap, b: AffineMap) -> Optional[int]:
    """lambda with a b = lambda b a for unitary maps, from the normal form of
    the product a b a* b* (None when it is not a scalar)."""
    return phase_of_map(a.compose(b).compose(a.adjoint()).compose(b.adjoint()))


def braiding_phase(
    lat: Lattice,
    group: AbelianGroup,
    label1: SectorLabel,
    label2: SectorLabel,
    pair: tuple[Ribbon, Ribbon],
) -> complex:
    """Scalar lambda with F1 F2 = lambda F2 F1 for the once-crossing ribbon
    `pair`: label1 rides its first, north ribbon and label2 its second, east
    one: the ``commutator_phase`` of two Weyl maps."""
    rho, sigma = pair
    f1 = ribbon_F_irrep(lat, group, rho, label1.chi, label1.c)
    f2 = ribbon_F_irrep(lat, group, sigma, label2.chi, label2.c)
    return complex(group.tables()["roots"][commutator_phase(f1, f2)])


def s_matrix_entry(lat: Lattice, group: AbelianGroup, label1: SectorLabel, label2: SectorLabel, geom) -> complex:
    """One pair's double-exchange scalar on the layout `geom`: label1's map on
    the spectator ribbon against label2's on the hat and the conjugate
    label's on the transport path, two ``commutator_phase``s."""
    north = ribbon_F_irrep(lat, group, geom.rho1, label1.chi, label1.c)
    hat = ribbon_F_irrep(lat, group, geom.rho2_hat, label2.chi, label2.c)
    back = ribbon_F_irrep(lat, group, geom.transport2, group.char_conj(label2.chi), group.inv(label2.c))
    phase = commutator_phase(north, hat) + commutator_phase(north, back)
    return complex(group.tables()["roots"][phase % group.phase_denominator])


def s_matrix_formula(group: AbelianGroup, label1: SectorLabel, label2: SectorLabel) -> complex:
    """Closed form: conj(chi1)(d) * conj(chi2)(c)."""
    return complex(
        np.conj(group.char_eval(label1.chi, label2.c))
        * np.conj(group.char_eval(label2.chi, label1.c))
    )


def charge_projector(
    lat: Lattice, group: AbelianGroup, s: Site, xi: Char, d: Element
) -> OpSum:
    """Detector of the charge (xi, d) sitting at site s."""
    bd = plaq_h(lat, group, s, d)
    terms = []
    for k in group.elements():
        coeff = complex(np.conj(group.char_eval(xi, k))) / group.order
        terms.append((coeff, star_g(lat, group, s, k).compose(bd)))
    return OpSum.weighted(terms)


def conjugate_label(group: AbelianGroup, label: SectorLabel) -> SectorLabel:
    return SectorLabel(group.char_conj(label.chi), group.inv(label.c))


def charged_state(
    lat: Lattice,
    group: AbelianGroup,
    label: SectorLabel,
    ribbon: Ribbon,
    omega: SparseState,
) -> SparseState:
    """Normalized state with charge `label` at the ribbon's start site and
    the conjugate charge at its end."""
    if ribbon.is_closed or ribbon.is_trivial:
        raise LatticeError("charged states need an open ribbon")
    psi = as_opsum(ribbon_F_irrep(lat, group, ribbon, label.chi, label.c)).apply(omega)
    return normalized(psi)


def charge_moments(
    lat: Lattice, group: AbelianGroup, s: Site, psi: SparseState
) -> dict[tuple[Element, Element], complex]:
    """<psi| A^k B^d |psi> / <psi|psi> for every pair (k, d), in one
    vectorized pass: the plaquette flux is read once and the star shift once
    per group element."""
    nrm = inner(psi, psi)
    flux = face_flux(lat, group, psi.configs, s.face)
    row_keys = keys(psi)
    mu: dict[tuple[Element, Element], complex] = {}
    for k in group.elements():
        _, _, shifted = star_g(lat, group, s, k).eval(psi.configs)
        buf = np.ascontiguousarray(shifted)
        skeys = buf.view(np.dtype((np.void, buf.shape[1]))).ravel()
        pos = np.searchsorted(row_keys, skeys)
        pos_c = np.clip(pos, 0, len(row_keys) - 1)
        hit = row_keys[pos_c] == skeys
        # term i contributes conj(amp at shifted config) * amp_i to mu(k, flux_i)
        contrib = np.zeros(len(row_keys), dtype=np.complex128)
        contrib[hit] = np.conj(psi.amps[pos_c[hit]]) * psi.amps[np.nonzero(hit)[0]]
        per_d = np.zeros(group.order, dtype=np.complex128)
        np.add.at(per_d, flux[hit], contrib[hit])
        for d_idx in range(group.order):
            mu[(k, group.element_at(d_idx))] = complex(per_d[d_idx] / nrm)
    return mu


def label_from_moments(
    group: AbelianGroup, mu: dict[tuple[Element, Element], complex]
) -> Optional[SectorLabel]:
    """The unique label whose charge projector has expectation 1, if any."""
    t = group.tables()
    roots, char_num = t["roots"], t["char_num"]
    elements = group.elements()
    for xi in group.characters():
        xi_roots = [roots[char_num[group.index_of(xi), group.index_of(k)]] for k in elements]
        for d in elements:
            val = sum(np.conj(r) * mu[(k, d)] for r, k in zip(xi_roots, elements)) / group.order
            if abs(val - 1.0) < 1e-9:
                return SectorLabel(xi, d)
    return None


def detect_charge(
    lat: Lattice, group: AbelianGroup, s: Site, psi: SparseState
) -> Optional[SectorLabel]:
    """The unique label whose charge projector fixes psi at s, if any."""
    return label_from_moments(group, charge_moments(lat, group, s, psi))


# -- ribbon deformations --------------------------------------------------------------


def shift_pattern(lat: Lattice, group: AbelianGroup, ribbon: Ribbon, h: Element) -> np.ndarray:
    """Configuration row holding the dual-edge shifts of the (h, e) operator."""
    return shift_rows(lat, [ribbon_F(lat, group, ribbon, h, group.identity())])


def flux_reading(lat: Lattice, group: AbelianGroup, ribbon: Ribbon, row: np.ndarray) -> Element:
    """Value of the ribbon's direct-flux expression on a configuration row."""
    m = ribbon_F(lat, group, ribbon, group.identity(), group.identity())
    add, neg, _ = group.index_tables
    values = row[0].tolist()
    acc = 0
    for coeffs, _ in m.deltas:
        for e, sign in coeffs:
            v = values[e]
            acc = add[acc][v if sign > 0 else neg[v]]
    return group.element_at(acc)


# a candidate ribbon is at most this many triangles longer than the shortest
PATH_SLACK = 8


def paths_between(lat: Lattice, s0: Site, s1: Site, max_len: int, node_cap: int) -> list[Ribbon]:
    """Ribbons from s0 to s1 of at most max_len positive triangles using no
    edge twice, depth first; the list is partial once node_cap moves are
    tried."""
    out = []
    stack = [(s0, (), frozenset())]
    visited = 0
    while stack:
        s, path, used = stack.pop()
        if len(path) >= max_len:
            continue
        for tri in positive_moves(lat, s, None):
            if tri.edge in used:
                continue
            visited += 1
            if visited > node_cap:
                return out
            new = path + (tri,)
            if tri.s1 == s1:
                out.append(Ribbon.from_triangles(new))
            else:
                stack.append((tri.s1, new, used | {tri.edge}))
    return out


def deformation_pair_by_shifts(lat: Lattice, group: AbelianGroup, r1: Ribbon, r2: Ribbon) -> bool:
    """``is_deformation_pair`` one group element at a time: for every h ≠ e
    the face fluxes of the two (h, e) shift patterns agree and neither flux
    expression reads the other's pattern; on the torus both flux expressions
    read every holonomy cocycle alike."""
    if r1.start != r2.start or r1.end != r2.end:
        return False
    for h in (g for g in group.elements() if g != group.identity()):
        s1 = shift_pattern(lat, group, r1, h)
        s2 = shift_pattern(lat, group, r2, h)
        fluxes = face_fluxes(lat, group, np.concatenate([s1, s2]))
        if not np.array_equal(fluxes[0], fluxes[1]):
            return False
        if flux_reading(lat, group, r2, s1) != group.identity():
            return False
        if flux_reading(lat, group, r1, s2) != group.identity():
            return False
    if lat.is_torus:
        for a in range(1, group.order):
            for hx, hy in ((a, 0), (0, a)):
                row = shift_rows(lat, [sector_shift(lat, group, hx, hy)])
                if flux_reading(lat, group, r1, row) != flux_reading(lat, group, r2, row):
                    return False
    return True


# -- lattice geometry ----------------------------------------------------------------


def boundary_edges(region: Region) -> frozenset[int]:
    """Edges neither in the region nor in its interior complement."""
    lat = region.lattice
    return frozenset(lat.edges()) - region.edges - region.interior_complement_edges()


def triangle_is_positive(lat: Lattice, tri: Triangle) -> bool:
    """True for the canonical orientation: face left of direct travel,
    vertex right of dual travel. The reversed partner of a positive triangle
    is negative and vice versa."""
    if tri.kind == "direct":
        tail, head = lat.edge_endpoints(tri.edge)
        along = (tri.s0.vertex, tri.s1.vertex) == (tail, head)
        # Walking ccw around the face keeps it on the left; the ccw walk
        # traverses each boundary edge with the sign reported by plaq_edges.
        sign = dict(lat.plaq_edges(tri.s0.face))[tri.edge]
        return (sign == +1) == along
    # Travel along the dual edge keeps the primal edge's head on its right.
    d_tail, d_head = lat.dual_faces(tri.edge)
    along = (tri.s0.face, tri.s1.face) == (d_tail, d_head)
    return along == (tri.s0.vertex == lat.edge_endpoints(tri.edge)[1])


def closed_dual_ribbon(lat: Lattice, s: Site) -> Ribbon:
    """The faces around s's vertex clockwise from s's face and back, joined
    by dual triangles; refused when a face is missing."""
    ring = lat.faces_at_vertex_cw(s.vertex)
    if None in ring:
        raise LatticeError(f"vertex {s.vertex} has an incomplete star")
    k = ring.index(s.face)
    order = [ring[(k + i) % 4] for i in range(5)]
    return Ribbon.from_triangles(
        make_triangle(lat, Site(s.vertex, f0), Site(s.vertex, f1)) for f0, f1 in zip(order, order[1:])
    )


def closed_direct_ribbon(lat: Lattice, s: Site) -> Ribbon:
    """The corners of s's face counterclockwise from s's vertex and back,
    joined by direct triangles."""
    corners = lat.face_corners_ccw(s.face)
    k = corners.index(s.vertex)
    order = [corners[(k + i) % 4] for i in range(5)]
    return Ribbon.from_triangles(
        make_triangle(lat, Site(v0, s.face), Site(v1, s.face)) for v0, v1 in zip(order, order[1:])
    )


def site_point(lat: Lattice, s: Site) -> tuple[float, float]:
    """Geometric anchor of a site: midway between vertex and face centre."""
    vx, vy = lat.vertex_xy(s.vertex)
    fx, fy = lat.face_xy(s.face)
    if lat.is_torus:
        # unwrap the face centre next to the vertex
        cx, cy = fx + 0.5, fy + 0.5
        if cx - vx > 1:
            cx -= lat.width
        if vx - cx > 1:
            cx += lat.width
        if cy - vy > 1:
            cy -= lat.height
        if vy - cy > 1:
            cy += lat.height
    else:
        cx, cy = fx + 0.5, fy + 0.5
    return (vx + cx) / 2.0, (vy + cy) / 2.0


def loop_encloses(loop: Ribbon, target: Site, lat: Lattice) -> bool:
    """Winding-number test of the loop's site polygon around the target
    anchor point (plane geometry; torus loops are unwrapped locally)."""
    pts = [site_point(lat, t.s0) for t in loop.triangles]
    if lat.is_torus:
        # unwrap consecutive points to the nearest images
        unwrapped = [pts[0]]
        for x, y in pts[1:]:
            px, py = unwrapped[-1]
            while x - px > lat.width / 2:
                x -= lat.width
            while px - x > lat.width / 2:
                x += lat.width
            while y - py > lat.height / 2:
                y -= lat.height
            while py - y > lat.height / 2:
                y += lat.height
            unwrapped.append((x, y))
        pts = unwrapped
        tx, ty = site_point(lat, target)
        px, py = pts[0]
        while tx - px > lat.width / 2:
            tx -= lat.width
        while px - tx > lat.width / 2:
            tx += lat.width
        while ty - py > lat.height / 2:
            ty -= lat.height
        while py - ty > lat.height / 2:
            ty += lat.height
    else:
        tx, ty = site_point(lat, target)
    winding = 0.0
    for (x0, y0), (x1, y1) in zip(pts, pts[1:] + pts[:1]):
        a0 = math.atan2(y0 - ty, x0 - tx)
        a1 = math.atan2(y1 - ty, x1 - tx)
        d = a1 - a0
        while d > math.pi:
            d -= 2 * math.pi
        while d < -math.pi:
            d += 2 * math.pi
        winding += d
    return abs(winding) > math.pi  # |winding| ~ 2*pi when enclosed


# -- move rows and ribbon search by edge search ----------------------------------------


def face_edge_between(lat: Lattice, f: int, v0: int, v1: int) -> Optional[int]:
    """The boundary edge of f joining two of its corners. On small tori a
    vertex pair can be joined by several edges; only the one on the face's
    own boundary makes a direct triangle."""
    for e, _ in lat.plaq_edges(f):
        if set(lat.edge_endpoints(e)) == {v0, v1}:
            return e
    return None


def edge_between_faces(lat: Lattice, v: int, f0: int, f1: int) -> int:
    common = {e for e, _ in lat.plaq_edges(f0)} & {e for e, _ in lat.plaq_edges(f1)}
    shared = [e for e in common if v in lat.edge_endpoints(e)]
    if len(shared) != 1:
        raise LatticeError("dual triangle needs faces adjacent across one edge at the vertex")
    return shared[0]


def direct_flux_sign(lat: Lattice, tri: Triangle) -> int:
    """Sign with which the edge value enters the flux accumulator: +1 when
    the travel runs against the edge orientation."""
    if tri.kind != "direct":
        raise LatticeError("flux sign is defined for direct triangles")
    return -1 if (tri.s0.vertex, tri.s1.vertex) == lat.endpoint_table[tri.edge] else +1


def dual_shift_sign(lat: Lattice, tri: Triangle) -> int:
    """Sign of the group shift applied to the crossed edge: +1 when the
    travel runs along the dual-edge orientation."""
    if tri.kind != "dual":
        raise LatticeError("shift sign is defined for dual triangles")
    faces = lat.dual_face_table[tri.edge]
    if faces is None:
        raise LatticeError(f"edge {tri.edge} lies on the patch rim")
    return +1 if (tri.s0.face, tri.s1.face) == faces else -1


def build_moves(lat: Lattice, s: Site, step: int) -> tuple[Triangle, ...]:
    """The direct, then the dual triangle from s to the next corner and face
    (step +1) or to the previous ones (step -1), each edge found by search
    and each sign from the orientations."""
    corners = lat.face_corners_ccw(s.face)
    other = corners[(corners.index(s.vertex) + step) % 4]
    e = face_edge_between(lat, s.face, s.vertex, other)
    tri = Triangle("direct", s, Site(other, s.face), e, 0)
    out = [Triangle(tri.kind, tri.s0, tri.s1, tri.edge, direct_flux_sign(lat, tri))]
    ring = lat.faces_at_vertex_cw(s.vertex)
    f_other = ring[(ring.index(s.face) + step) % 4]
    if f_other is not None:  # no face beyond a plane patch's rim
        e = edge_between_faces(lat, s.vertex, s.face, f_other)
        tri = Triangle("dual", s, Site(s.vertex, f_other), e, 0)
        out.append(Triangle(tri.kind, tri.s0, tri.s1, tri.edge, dual_shift_sign(lat, tri)))
    return tuple(out)


def reversed_moves(lat: Lattice, s: Site, allowed: Optional[frozenset[int]]) -> list[Triangle]:
    """Formal inverses of the positively oriented triangles arriving at s;
    they leave s across its incoming edge."""
    moves = lattice._table_moves(lat, s)[1]
    return list(moves) if allowed is None else [t for t in moves if t.edge in allowed]


def site_moves(
    lat: Lattice, s: Site, allowed: Optional[frozenset[int]], include_reversed: bool
) -> list[Triangle]:
    out = positive_moves(lat, s, allowed)
    if include_reversed:
        out.extend(reversed_moves(lat, s, allowed))
    return out


def site_bfs(lat, s0, s1, allowed, allow_reversed=False) -> Optional[list[Triangle]]:
    prev: dict[Site, Triangle] = {}
    seen = {s0}
    frontier = [s0]
    while frontier:
        nxt = []
        for s in frontier:
            for tri in site_moves(lat, s, allowed, allow_reversed):
                if tri.s1 in seen:
                    continue
                seen.add(tri.s1)
                prev[tri.s1] = tri
                if tri.s1 == s1:
                    out = []
                    cur = s1
                    while cur != s0:
                        out.append(prev[cur])
                        cur = prev[cur].s0
                    return out[::-1]
                nxt.append(tri.s1)
        frontier = nxt
    return None


def edge_disjoint_dfs(lat, s0, s1, allowed, allow_reversed, max_len) -> Optional[list[Triangle]]:
    visited = 0
    for depth in range(1, max_len + 1):
        stack: list[tuple[Site, list[Triangle], frozenset[int]]] = [(s0, [], frozenset())]
        cut = False
        while stack:
            s, path, used = stack.pop()
            if len(path) >= depth:
                cut = True
                continue
            for tri in reversed(site_moves(lat, s, allowed, allow_reversed)):
                if tri.edge in used:
                    continue
                visited += 1
                if visited > lattice.DFS_NODE_CAP:
                    raise LatticeError(
                        f"ribbon search from {s0} to {s1} stopped at the"
                        f" {lattice.DFS_NODE_CAP}-node cap"
                    )
                new_path = path + [tri]
                if tri.s1 == s1:
                    return new_path
                stack.append((tri.s1, new_path, used | {tri.edge}))
        if not cut:
            return None
    return None


def ribbon_between_by_sites(
    s0: Site,
    s1: Site,
    lat: Lattice,
    region: Optional[Region] = None,
    avoid_edges: Iterable[int] = (),
    allow_reversed: bool = False,
) -> Ribbon:
    """``ribbon_between`` through ``site_moves``, on the allowed edges
    (the region's or the lattice's, less `avoid_edges`) built per call."""
    for s in (s0, s1):
        lattice._table_moves(lat, s)
    allowed: Optional[frozenset[int]]
    if region is not None:
        allowed = frozenset(region.edges) - frozenset(avoid_edges)
    elif avoid_edges:
        allowed = frozenset(lat.edges()) - frozenset(avoid_edges)
    else:
        allowed = None
    if s0 == s1:
        return Ribbon.trivial(s0)
    path = site_bfs(lat, s0, s1, allowed, allow_reversed)
    if path is not None:
        try:
            return Ribbon.from_triangles(path)
        except LatticeError:
            path = edge_disjoint_dfs(lat, s0, s1, allowed, allow_reversed, 2 * lat.n_edges)
    if path is None:
        raise LatticeError(f"no ribbon from {s0} to {s1} within the region")
    return Ribbon.from_triangles(path)


# -- exterior ribbons as one list ------------------------------------------------------


def exterior_ribbons(lat: Lattice, region: Region) -> list[tuple[Ribbon, bool]]:
    """Every exterior ribbon of 2 to EXTERIOR_RIBBON_LEN triangles, with
    whether an endpoint sits at a detecting deep-exterior site."""
    comp = Region(lat, region.complement_edges())
    detecting = detecting_exterior_sites(lat, region)
    return [
        (r, r.start in detecting or r.end in detecting)
        for r in ribbons_in_region(lat, comp, EXTERIOR_RIBBON_LEN)
        if len(r) >= 2
    ]


def sample_exterior_ribbons(lat: Lattice, region: Region, rng, count: int) -> list[Ribbon]:
    picked = [r for r, deep in exterior_ribbons(lat, region) if deep]
    rng.shuffle(picked)
    return picked[:count]


def boundary_ribbons(lat: Lattice, region: Region) -> list[Ribbon]:
    out = []
    for r, deep in exterior_ribbons(lat, region):
        if deep or not (region.site_on_boundary(r.start) and region.site_on_boundary(r.end)):
            continue
        try:
            ribbon_between(r.start, r.end, lat, region, allow_reversed=True)
        except LatticeError:
            continue
        out.append(r)
    return out
