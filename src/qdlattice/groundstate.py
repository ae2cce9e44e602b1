"""Flat-connection enumeration, exact ground states, expectations.

A configuration is flat when the oriented product of edge values around
every complete face is trivial. On a plane patch every flat connection is a
vertex-potential gradient, so the flat set has exactly |G|^(V-1) elements
and the uniform superposition over it is the natural ground state. On a
torus each flat connection is a gradient plus a harmonic piece labelled by
the two holonomies, giving the |G|^2 ground-space sectors. Ω is the
zero-holonomy sector, again the uniform superposition over the gradients;
the sector with holonomies (a, b) is T_ab Ω, T_ab the pure shift by
``_torus_cocycle(lat, group, a, b)``. Gradients carry trivial holonomy, so
the torus ground-space dimension is the number of distinct holonomy pairs
among the |G|^2 flat cocycles, and no torus flat connection is enumerated.

Ω is therefore uniform over a group F (the gradients) and every ground-state
expectation is computed from that group, not from an amplitude vector. An
``AffineMap`` M acts as |c> -> delta(c) phase(c) |c + s>, so

    <Ω|M|Ω> = [s in F] * mean over vertex potentials φ of delta(dφ) phase(dφ).

s lies in F when every face flux of s is trivial and, on the torus, both
``torus_holonomies`` of s are trivial. M's delta and character expressions
are sums of edge values; on a gradient each one telescopes to an integer
combination of vertex potentials, so the mean runs over the potentials of
the vertices those combinations touch, with one of them fixed by the gauge
freedom. ``omega_expectation`` computes this (``OpSum`` by linearity) and
refuses, before enumerating, an enumeration of more than a capped number of
rows.

Distances need no vector either: for single maps,
‖F₁Ω − F₂Ω‖² = ω(F₁†F₁) + ω(F₂†F₂) − 2 Re ω(F₁†F₂) (``omega_distance``).
The deformation, transporter and torus stabilizer checks all measure their
distances this way; a torus sector vector is reached by composing with T_ab.

``ground_state`` still materializes Ω on a plane patch, for the Haag-duality
checks: ``cone_subspace`` reads its rows (not its amplitudes) to find the
cosets of the flat group, and the exterior ribbon images of the membership
and density checks are applied to it.
"""

from __future__ import annotations

import numpy as np

from .groups import AbelianGroup, Element
from .lattice import Lattice
from .operators import AffineMap, OpSum, as_opsum
from .states import SparseState

FLAT_BRUTE_CAP = 1 << 22
# rows flat_connections may enumerate: |G|^(V-1) gradients
FLAT_ROWS_CAP = 1 << 22
# vertex-potential rows one omega_expectation term may enumerate
OMEGA_ROWS_CAP = 1 << 20


class GroundStateError(ValueError):
    pass


def _gradient_configs(lat: Lattice, group: AbelianGroup) -> np.ndarray:
    """Edge configurations of all vertex potentials with the root fixed."""
    t = group.tables()
    add, neg = t["add"], t["neg"]
    n_free = lat.n_vertices - 1
    count = group.order**n_free
    idx = np.arange(count, dtype=np.int64)
    pots = np.zeros((count, lat.n_vertices), dtype=np.int64)
    for k in range(n_free):
        pots[:, k + 1] = (idx // group.order**k) % group.order
    configs = np.zeros((count, lat.n_edges), dtype=np.uint8)
    for e in lat.edges():
        tail, head = lat.edge_endpoints(e)
        configs[:, e] = add[pots[:, head], neg[pots[:, tail]]].astype(np.uint8)
    return configs


def _torus_cocycle(lat: Lattice, group: AbelianGroup, hx: int, hy: int) -> np.ndarray:
    """Flat configuration with holonomies (hx, hy) and zero potentials:
    hx on the x=0 column of h edges, hy on the y=0 row of v edges."""
    row = np.zeros(lat.n_edges, dtype=np.int64)
    for y in range(lat.height):
        row[lat.edge_id("h", 0, y)] = hx
    for x in range(lat.width):
        row[lat.edge_id("v", x, 0)] = hy
    return row


def sector_shift(lat: Lattice, group: AbelianGroup, a: int, b: int) -> AffineMap:
    """T_ab, the pure shift by ``_torus_cocycle(lat, group, a, b)``: T_ab Ω is
    the ground vector of the torus holonomy sector (a, b)."""
    row = _torus_cocycle(lat, group, a, b)
    return AffineMap(group, lat.n_edges, shifts=tuple((e, int(gi)) for e, gi in enumerate(row) if gi))


def flat_connections(lat: Lattice, group: AbelianGroup) -> np.ndarray:
    """All flat configurations of a plane patch, one uint8 row per
    connection: the vertex-potential gradients. Refused, before anything is
    allocated, above FLAT_ROWS_CAP rows, and on a torus, whose flat set is
    the gradients shifted by each of the |G|^2 cocycles of ``_torus_cocycle``."""
    if lat.is_torus:
        raise GroundStateError("flat_connections enumerates plane patches only")
    power = lat.n_vertices - 1
    if group.order**power > FLAT_ROWS_CAP:
        raise GroundStateError(
            f"flat-connection enumeration of {group.order}^{power} = {group.order**power}"
            f" rows on {lat.width}x{lat.height} is above the cap of {FLAT_ROWS_CAP}"
        )
    return _gradient_configs(lat, group)


def face_flux(lat: Lattice, group: AbelianGroup, configs: np.ndarray, f: int) -> np.ndarray:
    """Oriented flux index around face f for each configuration row."""
    t = group.tables()
    add, neg = t["add"], t["neg"]
    acc = np.zeros(configs.shape[0], dtype=np.int64)
    for e, sign in lat.plaq_edges(f):
        col = configs[:, e].astype(np.int64)
        acc = add[acc, col if sign > 0 else neg[col]]
    return acc

def face_fluxes(lat: Lattice, group: AbelianGroup, configs: np.ndarray) -> np.ndarray:
    """Oriented flux index of every face (columns, in face order) for each
    configuration row. All faces are walked at once, in uint8 like the
    configurations themselves."""
    t = group.tables()
    add, neg = t["add"].astype(np.uint8), t["neg"].astype(np.uint8)
    walks = np.array(lat.face_walks, dtype=np.int64).reshape(-1, 4, 2)
    flux = np.zeros((configs.shape[0], len(walks)), dtype=np.uint8)
    for j in range(4):
        col = configs[:, walks[:, j, 0]]
        flux = add[flux, np.where(walks[:, j, 1] > 0, col, neg[col])]
    return flux


def is_flat(lat: Lattice, group: AbelianGroup, configs: np.ndarray) -> np.ndarray:
    """Whether every face flux is trivial, per configuration row."""
    return ~np.any(face_fluxes(lat, group, configs), axis=1)


def all_configs(lat: Lattice, group: AbelianGroup) -> np.ndarray:
    """Every configuration of the patch (guarded brute-force oracle)."""
    n = group.order**lat.n_edges
    if n > FLAT_BRUTE_CAP:
        raise GroundStateError("configuration space too large for brute force")
    idx = np.arange(n, dtype=np.int64)
    configs = np.zeros((n, lat.n_edges), dtype=np.uint8)
    for e in lat.edges():
        configs[:, e] = (idx // group.order**e) % group.order
    return configs


def ground_state(lat: Lattice, group: AbelianGroup) -> SparseState:
    """Uniform superposition over flat connections (plane patches only: the
    torus ground space is degenerate)."""
    if lat.is_torus:
        raise GroundStateError("torus ground space is degenerate: ground_state builds plane patches")
    configs = flat_connections(lat, group)
    amps = np.full(len(configs), 1.0 / np.sqrt(len(configs)), dtype=np.complex128)
    return SparseState.from_terms(configs, amps, lat.n_edges, group.order)


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


def connection_projector(
    lat: Lattice, group: AbelianGroup, assignment: dict[int, Element]
) -> AffineMap:
    """Diagonal projector onto a fixed value of every listed edge."""
    if not assignment:
        raise GroundStateError("empty edge assignment")
    deltas = tuple(
        (((e, +1),), group.index_of(val)) for e, val in sorted(assignment.items())
    )
    return AffineMap(group, lat.n_edges, deltas=deltas)


def edges_of_faces(lat: Lattice, faces: list[int]) -> list[int]:
    out: set[int] = set()
    for f in faces:
        out.update(e for e, _ in lat.plaq_edges(f))
    return sorted(out)


def count_flat_on_faces(lat: Lattice, group: AbelianGroup, faces: list[int]) -> int:
    """Brute-force count of flat assignments of the edges bounding the given
    faces (the face-set flux constraints only)."""
    edges = edges_of_faces(lat, faces)
    n = group.order ** len(edges)
    if n > FLAT_BRUTE_CAP:
        raise GroundStateError("face set too large for brute force")
    idx = np.arange(n, dtype=np.int64)
    configs = np.zeros((n, lat.n_edges), dtype=np.uint8)
    for k, e in enumerate(edges):
        configs[:, e] = (idx // group.order**k) % group.order
    return int(np.sum(~np.any(face_fluxes(lat, group, configs)[:, faces], axis=1)))


def shift_row(lat: Lattice, m: AffineMap) -> np.ndarray:
    """m's shift pattern as a one-row configuration."""
    row = np.zeros((1, lat.n_edges), dtype=np.uint8)
    for e, gi in m.shifts:
        row[0, e] = gi
    return row


def in_flat_group(lat: Lattice, group: AbelianGroup, row: np.ndarray) -> bool:
    """Whether a one-row configuration lies in the group Ω is uniform over:
    flat, and on the torus also of trivial holonomy."""
    if face_fluxes(lat, group, row).any():
        return False
    if lat.is_torus:
        hx, hy = torus_holonomies(lat, group, row)
        return hx[0] == 0 and hy[0] == 0
    return True


def _vertex_form(lat: Lattice, group: AbelianGroup, coeffs) -> tuple[tuple[int, int], ...]:
    """An edge expression sum(sign * value(e)) evaluated on a gradient dφ, as
    sorted (vertex, multiplicity mod |G|) pairs with the zeros dropped."""
    acc: dict[int, int] = {}
    ends = lat.endpoint_table
    for e, sign in coeffs:
        tail, head = ends[e]
        acc[head] = acc.get(head, 0) + sign
        acc[tail] = acc.get(tail, 0) - sign
    return tuple(sorted((v, c % group.order) for v, c in acc.items() if c % group.order))


def _gradient_factors(lat: Lattice, group: AbelianGroup, m: AffineMap):
    """m's deltas and character phases as functions of the vertex
    potentials: (constant phase numerator, {form: delta target},
    {form: character}), or None when a constant delta fails."""
    L = group.phase_denominator
    char_num = group.tables()["char_num"]
    e_idx = group.index_of(group.identity())
    pnum = int(m.phase * L) % L
    deltas: dict[tuple, int] = {}
    for coeffs, target in m.deltas:
        form = _vertex_form(lat, group, coeffs)
        if not form:
            if target != e_idx:
                return None
        elif deltas.setdefault(form, target) != target:
            return None
    chars: dict[tuple, tuple] = {}
    for chi, coeffs, offset in m.chars:
        # chi(offset + expr) = chi(offset) chi(expr)
        pnum = (pnum + int(char_num[group.index_of(chi), offset])) % L
        form = _vertex_form(lat, group, coeffs)
        if form:
            chars[form] = group.char_mul(chars.get(form, group.identity()), chi)
    chars = {f: chi for f, chi in chars.items() if chi != group.identity()}
    return pnum, deltas, chars


def _potential_mean(group: AbelianGroup, factors, vertices: list[int]) -> complex:
    """Mean of delta * phase over all potentials of the touched vertices.
    Every form's multiplicities sum to zero, so a common shift of the
    potentials changes nothing and the first vertex is held at the identity."""
    pnum, deltas, chars = factors
    t = group.tables()
    add, mult, char_num, roots = t["add"], t["mult"], t["char_num"], t["roots"]
    L = group.phase_denominator
    n = group.order
    rows = n ** max(len(vertices) - 1, 0)
    idx = np.arange(rows, dtype=np.int64)
    e_idx = group.index_of(group.identity())
    pots = {v: ((idx // n**k) % n).astype(np.uint16) for k, v in enumerate(vertices[1:])}
    if vertices:
        pots[vertices[0]] = np.full(rows, e_idx, dtype=np.uint16)

    def value(form) -> np.ndarray:
        acc = np.full(rows, e_idx, dtype=np.int64)
        for v, c in form:
            acc = add[acc, mult[c, pots[v]]]
        return acc

    alive = np.ones(rows, dtype=bool)
    for form, target in deltas.items():
        alive &= value(form) == target
    phase = np.full(rows, pnum, dtype=np.int64)
    for form, chi in chars.items():
        phase = (phase + char_num[group.index_of(chi), value(form)]) % L
    return complex(np.sum(roots[phase[alive]])) / rows


def omega_expectation(lat: Lattice, group: AbelianGroup, op) -> complex:
    """<Ω|op|Ω> for an AffineMap or OpSum, computed from the flat-connection
    group (see the module docstring); Ω is the plane ground state or the
    zero-holonomy torus ground vector. Raises GroundStateError, before any
    enumeration, when a term would need more than OMEGA_ROWS_CAP potential
    rows."""
    terms = []
    for coeff, m in as_opsum(op).terms:
        if m.shifts and not in_flat_group(lat, group, shift_row(lat, m)):
            continue
        factors = _gradient_factors(lat, group, m)
        if factors is None:
            continue
        _, deltas, chars = factors
        vertices = sorted({v for form in (*deltas, *chars) for v, _ in form})
        k = max(len(vertices) - 1, 0)
        if group.order**k > OMEGA_ROWS_CAP:
            raise GroundStateError(
                f"ground-state expectation needs {group.order}^{k} = {group.order**k}"
                f" vertex-potential rows, above the cap of {OMEGA_ROWS_CAP}"
            )
        terms.append((coeff, factors, vertices))
    return complex(sum(c * _potential_mean(group, f, vs) for c, f, vs in terms))


def omega_distance(lat: Lattice, group: AbelianGroup, f1: AffineMap, f2: AffineMap) -> float:
    """‖F₁Ω − F₂Ω‖ without Ω: ω(F₁†F₁) + ω(F₂†F₂) − ω(F₁†F₂) − ω(F₂†F₁), in
    one ``omega_expectation`` call. For ribbon operators each term is a count
    of vertex potentials over their number, so two maps with the same image
    of Ω give exactly 0."""
    a1, a2 = f1.adjoint(), f2.adjoint()
    gram = OpSum.weighted(
        [(1, a1.compose(f1)), (1, a2.compose(f2)), (-1, a1.compose(f2)), (-1, a2.compose(f1))]
    )
    return float(np.sqrt(max(omega_expectation(lat, group, gram).real, 0.0)))
