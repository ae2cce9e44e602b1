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
combination of vertex potentials (a vertex form), so the mean runs over the
potentials of the vertices those forms touch, with one of them fixed by the
gauge freedom.

``omega_expectations(lat, group, ops)`` is the one implementation, and it
takes whole batches (``OpSum`` terms by linearity): every term's shift is
tested against F in one face-flux pass, every term is checked against a
capped number of potential rows before anything is enumerated, and the terms
are grouped by the vertices they touch, so that each vertex set's potentials
are enumerated once and each distinct form is evaluated on them once. Terms
that only test deltas on a shared set of forms, such as the connection
projectors of one edge set, read their counts off one histogram.

For a map without deltas the mean is 1 or 0: it is a product of one
character per vertex (``vertex_characters``), and 1 when all are trivial.

Distances need no vector either: for single maps,
‖F₁Ω − F₂Ω‖² = ω(F₁†F₁) + ω(F₂†F₂) − 2 Re ω(F₁†F₂) (``omega_distances``, one
batch for many pairs). The deformation, transporter and torus stabilizer
checks all measure their distances this way; a torus sector vector is
reached by composing with T_ab.

``ground_state`` still materializes Ω on a plane patch, but no check needs
it: only haag-check's cross-check on cones of at most 3 edges
(``duality.materialized_cross_check``) reads the cone block off its rows and
applies the boundary ribbons to it, against the flat-group forms. It stays
in the package because the benchmark's traced pass (perfbench/spans.py)
wraps ``SparseState.from_terms`` and ``OpSum.apply`` by name; Ω moves to the
test oracles once that recorder lives in the package (ROADMAP item 1).
"""

from __future__ import annotations

import numpy as np

from .groups import AbelianGroup, Element, codes, digit_rows
from .lattice import Lattice
from .operators import AffineMap, OpSum, as_opsum
from .states import SparseState

# rows flat_connections may enumerate: |G|^(V-1) gradients
FLAT_ROWS_CAP = 1 << 22
# vertex-potential rows one omega_expectations term may enumerate
OMEGA_ROWS_CAP = 1 << 20


class GroundStateError(ValueError):
    pass


def _potentials(group: AbelianGroup, n_free: int) -> np.ndarray:
    """Every assignment of group indices to n_free vertices, one uint8 row
    each, the first vertex least significant."""
    return digit_rows(group.order, n_free)[:, ::-1]


def _gradient_configs(lat: Lattice, group: AbelianGroup) -> np.ndarray:
    """Edge configurations of all vertex potentials with the root fixed."""
    t = group.tables()
    add, neg = t["add_u8"], t["neg_u8"]
    free = _potentials(group, lat.n_vertices - 1)
    pots = np.zeros((len(free), lat.n_vertices), dtype=np.uint8)
    pots[:, 1:] = free
    configs = np.zeros((len(free), lat.n_edges), dtype=np.uint8)
    for e in lat.edges():
        tail, head = lat.edge_endpoints(e)
        configs[:, e] = add[pots[:, head], neg[pots[:, tail]]]
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
    allocated, on a torus (whose flat set is the gradients shifted by each
    of the |G|^2 cocycles of ``_torus_cocycle``) and above FLAT_ROWS_CAP
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


def face_fluxes(lat: Lattice, group: AbelianGroup, configs: np.ndarray) -> np.ndarray:
    """Oriented flux index of every face (columns, in face order) for each
    configuration row. All faces are walked at once, in uint8 like the
    configurations themselves."""
    t = group.tables()
    add, neg = t["add_u8"], t["neg_u8"]
    edges, forward = lat.face_walks
    flux = np.zeros((configs.shape[0], len(edges)), dtype=np.uint8)
    for j in range(4):
        col = configs[:, edges[:, j]]
        flux = add[flux, np.where(forward[:, j], col, neg[col])]
    return flux


def is_flat(lat: Lattice, group: AbelianGroup, configs: np.ndarray) -> np.ndarray:
    """Whether every face flux is trivial, per configuration row."""
    return ~np.any(face_fluxes(lat, group, configs), axis=1)


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


def shift_rows(lat: Lattice, maps) -> np.ndarray:
    """The maps' shift patterns as configuration rows, one per map."""
    rows = np.zeros((len(maps), lat.n_edges), dtype=np.uint8)
    for r, m in enumerate(maps):
        for e, gi in m.shifts:
            rows[r, e] = gi
    return rows


def _in_flat_group(lat: Lattice, group: AbelianGroup, maps) -> np.ndarray:
    """Per map, whether its shift lies in the group Ω is uniform over: flat,
    and on the torus also of trivial holonomy. One face-flux pass for all
    maps that shift at all."""
    ok = np.ones(len(maps), dtype=bool)
    moved = [r for r, m in enumerate(maps) if m.shifts]
    if moved:
        rows = shift_rows(lat, [maps[r] for r in moved])
        flat = ~face_fluxes(lat, group, rows).any(axis=1)
        if lat.is_torus:
            hx, hy = torus_holonomies(lat, group, rows)
            flat &= (hx == 0) & (hy == 0)
        ok[moved] = flat
    return ok


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


def vertex_characters(lat: Lattice, group: AbelianGroup, maps) -> np.ndarray:
    """Per map, the character index of each vertex (columns, in vertex
    order) in its phases read on a gradient dφ: chi(sum c_v φ_v) puts
    chi^(c_v) on each vertex of the ``_vertex_form``."""
    add, mult = group.tables()["add"], group.tables()["mult"]
    out = np.zeros((len(maps), lat.n_vertices), dtype=np.int64)
    for r, m in enumerate(maps):
        for ci, coeffs, _ in m.chars:
            for v, c in _vertex_form(lat, group, coeffs):
                out[r, v] = add[out[r, v], mult[c, ci]]
    return out


def _gradient_factors(lat: Lattice, group: AbelianGroup, m: AffineMap, forms: dict):
    """m's deltas and character phases as functions of the vertex
    potentials: (constant phase numerator, {form: delta target},
    {form: character index}), or None when a constant delta fails. ``forms``
    memoizes ``_vertex_form`` by coefficient tuple."""

    def form_of(coeffs):
        if coeffs not in forms:
            forms[coeffs] = _vertex_form(lat, group, coeffs)
        return forms[coeffs]

    L = group.phase_denominator
    add, _, char_num = group.index_tables()
    pnum = m.phase
    deltas: dict[tuple, int] = {}
    for coeffs, target in m.deltas:
        form = form_of(coeffs)
        if not form:
            if target:
                return None
        elif deltas.setdefault(form, target) != target:
            return None
    chars: dict[tuple, int] = {}
    for ci, coeffs, offset in m.chars:
        # chi(offset + expr) = chi(offset) chi(expr)
        pnum = (pnum + char_num[ci][offset]) % L
        form = form_of(coeffs)
        if form:
            chars[form] = add[chars.get(form, 0)][ci]
    chars = {f: ci for f, ci in chars.items() if ci}
    return pnum, deltas, chars


def _potential_means(group: AbelianGroup, factors: list, vertices: tuple[int, ...]) -> list[complex]:
    """Per term, the mean of delta * phase over all potentials of the shared
    touched vertices. Every form's multiplicities sum to zero, so a common
    shift of the potentials changes nothing and the first vertex is held at
    the identity. The potentials are enumerated once and each distinct form
    is evaluated on them once. Terms that only test deltas, and share their
    forms with another such term, read their count of surviving potentials
    off one histogram of the joint form values."""
    t = group.tables()
    add, mult, char_num, roots = t["add"], t["mult"], t["char_num"], t["roots"]
    L = group.phase_denominator
    n = group.order
    free = _potentials(group, max(len(vertices) - 1, 0))
    rows = len(free)
    pots = {v: free[:, k] for k, v in enumerate(vertices[1:])}
    if vertices:
        pots[vertices[0]] = np.zeros(rows, dtype=np.uint8)
    values: dict[tuple, np.ndarray] = {}

    def value(form) -> np.ndarray:
        if form not in values:
            acc = np.zeros(rows, dtype=np.int64)
            for v, c in form:
                acc = add[acc, mult[c, pots[v]]]
            values[form] = acc.astype(np.uint8)
        return values[form]

    by_forms: dict[tuple, list[int]] = {}
    for j, (_, deltas, chars) in enumerate(factors):
        if not chars:
            by_forms.setdefault(tuple(deltas), []).append(j)
    counts: dict[int, int] = {}
    for forms, js in by_forms.items():
        if len(js) < 2:
            continue
        joint = np.zeros((rows, len(forms)), dtype=np.uint8)
        for i, form in enumerate(forms):
            joint[:, i] = value(form)
        code = codes(joint, range(len(forms)), n)
        hist = dict(zip(*(a.tolist() for a in np.unique(code, return_counts=True))))
        targets = np.array([[factors[j][1][form] for form in forms] for j in js])
        for j, target in zip(js, codes(targets, range(len(forms)), n).tolist()):
            counts[j] = hist.get(target, 0)

    # the same summands as below: counts[j] copies of one root
    sums: dict[tuple[int, int], complex] = {}
    means = []
    for j, (pnum, deltas, chars) in enumerate(factors):
        if j in counts:
            key = (counts[j], pnum)
            if key not in sums:
                sums[key] = complex(np.sum(np.full(counts[j], roots[pnum])))
            means.append(sums[key] / rows)
            continue
        alive = np.ones(rows, dtype=bool)
        for form, target in deltas.items():
            alive &= value(form) == target
        phase = np.full(rows, pnum, dtype=np.int64)
        for form, ci in chars.items():
            phase = (phase + char_num[ci, value(form)]) % L
        means.append(complex(np.sum(roots[phase[alive]])) / rows)
    return means


def omega_expectations(lat: Lattice, group: AbelianGroup, ops) -> list[complex]:
    """<Ω|op|Ω> for each AffineMap or OpSum in ops, computed from the
    flat-connection group (see the module docstring); Ω is the plane ground
    state or the zero-holonomy torus ground vector. All terms of all ops are
    tested for a shift in F in one face-flux pass, and terms touching the
    same vertices share one enumeration of their potentials. Raises
    GroundStateError, before any enumeration, when a term would need more
    than OMEGA_ROWS_CAP potential rows."""
    terms = [(i, coeff, m) for i, op in enumerate(ops) for coeff, m in as_opsum(op).terms]
    in_f = _in_flat_group(lat, group, [m for _, _, m in terms])
    forms: dict = {}
    kept = []
    for (i, coeff, m), ok in zip(terms, in_f):
        if not ok:
            continue
        factors = _gradient_factors(lat, group, m, forms)
        if factors is None:
            continue
        _, deltas, chars = factors
        vertices = tuple(sorted({v for form in (*deltas, *chars) for v, _ in form}))
        k = max(len(vertices) - 1, 0)
        if group.order**k > OMEGA_ROWS_CAP:
            raise GroundStateError(
                f"ground-state expectation needs {group.order}^{k} = {group.order**k}"
                f" vertex-potential rows, above the cap of {OMEGA_ROWS_CAP}"
            )
        kept.append((i, coeff, factors, vertices))
    by_vertices: dict[tuple, list[int]] = {}
    for j, (_, _, _, vertices) in enumerate(kept):
        by_vertices.setdefault(vertices, []).append(j)
    means: list = [None] * len(kept)
    for vertices, js in by_vertices.items():
        for j, mean in zip(js, _potential_means(group, [kept[j][2] for j in js], vertices)):
            means[j] = mean
    # each op sums its terms in order, from 0, as the builtin sum would
    out: list = [0] * len(ops)
    for (i, coeff, _, _), mean in zip(kept, means):
        out[i] = out[i] + coeff * mean
    return [complex(x) for x in out]


def omega_distances(lat: Lattice, group: AbelianGroup, pairs) -> list[float]:
    """‖F₁Ω − F₂Ω‖ without Ω for each pair (F₁, F₂) of maps:
    ω(F₁†F₁) + ω(F₂†F₂) − ω(F₁†F₂) − ω(F₂†F₁), all in one
    ``omega_expectations`` batch. For ribbon operators each term is a count
    of vertex potentials over their number, so two maps with the same image
    of Ω give exactly 0."""
    grams = []
    for f1, f2 in pairs:
        a1, a2 = f1.adjoint(), f2.adjoint()
        grams.append(
            OpSum.weighted(
                [(1, a1.compose(f1)), (1, a2.compose(f2)), (-1, a1.compose(f2)), (-1, a2.compose(f1))]
            )
        )
    return [float(np.sqrt(max(v.real, 0.0))) for v in omega_expectations(lat, group, grams)]
