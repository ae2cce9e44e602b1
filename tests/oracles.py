"""Reference implementations the tests compare the package against.

Each function here is the direct, materialized or coordinate form of
something the package computes another way:

- ``inner``, ``norm``, ``add`` and the other vector operations, with
  ``gram_matrix`` and Gram-Schmidt (``orthonormal_coeffs``), are the
  linear algebra of ``SparseState``, which the package no longer needs;
- ``ground_space``, ``expectation`` and ``distance`` work on sparse
  amplitude vectors, for ``omega_expectation`` and ``omega_distance``;
  ``torus_flat_connections`` lists every flat torus connection, for the
  holonomy count of the groundstate experiment;
- ``charged_state``, ``charge_moments`` and ``detect_charge`` read charges
  off a materialized charged state, for ``omega_charge_moments``;
- ``charge_projector`` and ``conjugate_label`` are the textbook charge
  detector and antiparticle label;
- ``ground_energy`` counts the stabilizers, for exact diagonalization;
- ``triangle_T`` and ``triangle_L`` are the one-triangle operators, for
  ``ribbon_F``;
- ``triangle_is_positive`` and ``loop_encloses`` read orientations and
  windings from coordinates, for the move tables and ``closed_loop_around``;
- ``orthonormalize`` is plain Gram-Schmidt, for ``cone_subspace``;
- ``closure_rank`` grows the ribbon closure from materialized states with a
  pivoted Cholesky on their Gram matrix, for ``ribbon_closure_rank``.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence

import numpy as np
import scipy.sparse as sp

from qdlattice.duality import _nontrivial_labels, ribbons_in_region
from qdlattice.groundstate import (
    FLAT_ROWS_CAP,
    GroundStateError,
    _gradient_configs,
    _torus_cocycle,
    face_flux,
    ground_state,
    torus_holonomies,
)
from qdlattice.groups import AbelianGroup, Char, Element
from qdlattice.lattice import (
    Lattice,
    LatticeError,
    Region,
    Ribbon,
    Site,
    Triangle,
    direct_flux_sign,
    dual_shift_sign,
)
from qdlattice.operators import (
    AffineMap,
    OperatorError,
    OpSum,
    as_opsum,
    canonical,
    complete_plaquettes,
    complete_stars,
    plaq_h,
    ribbon_F_irrep,
    star_g,
)
from qdlattice.sectors import SectorLabel, _label_from_moments
from qdlattice.states import SparseState

SPAN_TOL = 1e-9


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
            for chi, c in _nontrivial_labels(group)
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


# -- ground states -----------------------------------------------------------------


def torus_flat_connections(lat: Lattice, group: AbelianGroup) -> np.ndarray:
    """Every flat torus configuration: each gradient plus each holonomy
    cocycle ``_torus_cocycle(lat, group, a, b)``, one uint8 row apiece."""
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
            c0 = _torus_cocycle(lat, group, hx, hy)
            parts.append(add_table[grads, c0[None, :]].astype(np.uint8))
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
    val = gi if dual_shift_sign(lat, tri) > 0 else group.index_tables()[1][gi]
    if not val:
        return AffineMap.identity(group, lat.n_edges)
    return AffineMap(group, lat.n_edges, shifts=((tri.edge, val),))


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


def detect_charge(
    lat: Lattice, group: AbelianGroup, s: Site, psi: SparseState
) -> Optional[SectorLabel]:
    """The unique label whose charge projector fixes psi at s, if any."""
    return _label_from_moments(group, charge_moments(lat, group, s, psi))


# -- lattice geometry ----------------------------------------------------------------


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
