"""Reference implementations the tests compare the package against.

Each function here is the direct, materialized or coordinate form of
something the package computes another way:

- ``ground_space``, ``expectation`` and ``distance`` work on sparse
  amplitude vectors, for ``omega_expectation`` and ``omega_distance``;
- ``charged_state``, ``charge_moments`` and ``detect_charge`` read charges
  off a materialized charged state, for ``omega_charge_moments``;
- ``charge_projector`` and ``conjugate_label`` are the textbook charge
  detector and antiparticle label;
- ``ground_energy`` counts the stabilizers, for exact diagonalization;
- ``triangle_T`` and ``triangle_L`` are the one-triangle operators, for
  ``ribbon_F``;
- ``triangle_is_positive`` and ``loop_encloses`` read orientations and
  windings from coordinates, for the move tables and ``closed_loop_around``;
- ``orthonormalize`` is plain Gram-Schmidt, for ``cone_subspace``.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional

import numpy as np

from qdlattice.groundstate import (
    GroundStateError,
    face_flux,
    flat_connections,
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
    complete_plaquettes,
    complete_stars,
    plaq_h,
    ribbon_F_irrep,
    star_g,
)
from qdlattice.sectors import SectorLabel, _label_from_moments
from qdlattice.states import SPAN_TOL, SparseState, inner, orthonormal_coeffs


# -- states ---------------------------------------------------------------------------


def distance(psi: SparseState, phi: SparseState) -> float:
    return psi.sub(phi).norm()


def orthonormalize(vectors: Iterable[SparseState], tol: float = SPAN_TOL) -> list[SparseState]:
    """Modified Gram-Schmidt; drops vectors whose residual norm is < tol."""
    return orthonormal_coeffs(vectors, tol)[0]


# -- ground states -----------------------------------------------------------------


def ground_space(lat: Lattice, group: AbelianGroup) -> list[SparseState]:
    """Orthonormal basis of the joint +1 eigenspace of all complete star and
    plaquette projectors. On the torus: one uniform superposition per
    holonomy pair; on a plane patch the single flat-connection state."""
    if not lat.is_torus:
        return [ground_state(lat, group)]
    configs = flat_connections(lat, group)
    hx, hy = torus_holonomies(lat, group, configs)
    out = []
    for a in range(group.order):
        for b in range(group.order):
            sel = configs[(hx == a) & (hy == b)]
            amps = np.full(len(sel), 1.0 / np.sqrt(len(sel)), dtype=np.complex128)
            out.append(SparseState.from_terms(sel, amps, lat.n_edges, group.order))
    return out


def expectation(psi: SparseState, op) -> complex:
    """<psi|op|psi> / <psi|psi> on a materialized state."""
    nrm = inner(psi, psi)
    if nrm == 0:
        raise GroundStateError("expectation in the zero vector")
    return inner(psi, as_opsum(op).apply(psi)) / nrm


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
    return psi.normalized()


def charge_moments(
    lat: Lattice, group: AbelianGroup, s: Site, psi: SparseState
) -> dict[tuple[Element, Element], complex]:
    """<psi| A^k B^d |psi> / <psi|psi> for every pair (k, d), in one
    vectorized pass: the plaquette flux is read once and the star shift once
    per group element."""
    norm = inner(psi, psi)
    flux = face_flux(lat, group, psi.configs, s.face)
    keys = psi.keys()
    mu: dict[tuple[Element, Element], complex] = {}
    for k in group.elements():
        _, _, shifted = star_g(lat, group, s, k).eval(psi.configs)
        buf = np.ascontiguousarray(shifted)
        skeys = buf.view(np.dtype((np.void, buf.shape[1]))).ravel()
        pos = np.searchsorted(keys, skeys)
        pos_c = np.clip(pos, 0, len(keys) - 1)
        hit = keys[pos_c] == skeys
        # term i contributes conj(amp at shifted config) * amp_i to mu(k, flux_i)
        contrib = np.zeros(len(keys), dtype=np.complex128)
        contrib[hit] = np.conj(psi.amps[pos_c[hit]]) * psi.amps[np.nonzero(hit)[0]]
        per_d = np.zeros(group.order, dtype=np.complex128)
        np.add.at(per_d, flux[hit], contrib[hit])
        for d_idx in range(group.order):
            mu[(k, group.element_at(d_idx))] = complex(per_d[d_idx] / norm)
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
