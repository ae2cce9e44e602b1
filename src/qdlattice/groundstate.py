"""Exact ground-state expectations and distances from the flat-connection group.

A configuration is flat when the oriented product of edge values around
every complete face is trivial. On a plane patch every flat connection is a
vertex-potential gradient, so the flat set has exactly |G|^(V-1) elements
and the uniform superposition over it is the natural ground state. On a
torus each flat connection is a gradient plus a harmonic piece labelled by
the two holonomies, giving the |G|^2 ground-space sectors. Ω is the
zero-holonomy sector, again the uniform superposition over the gradients;
the sector with holonomies (a, b) is T_ab Ω, T_ab the pure shift
``sector_shift(lat, group, a, b)``. Gradients carry trivial holonomy, so
the torus ground-space dimension is the number of distinct holonomy pairs
among the |G|^2 flat cocycles, and no torus flat connection is enumerated.

Ω is therefore uniform over a group F (the gradients) and every ground-state
expectation is computed from that group, not from an amplitude vector. An
``AffineMap`` M acts as |c> -> delta(c) phase(c) |c + s>, so

    <Ω|M|Ω> = [s in F] * mean over vertex potentials φ of delta(dφ) phase(dφ).

s lies in F when its face fluxes and, on the torus, both holonomies are
trivial (``shift_fluxes``). M's delta expressions are sums of edge
values; on a gradient each one telescopes to an integer combination of
vertex potentials (a vertex form). M's character on an edge puts itself
on the edge's head and its inverse on its tail, one character per vertex
(``vertex_charges``). Ω is a stabilizer state,
so the mean is the solution count of a linear system over G times one root
of unity (Hostens, Dehaene and De Moor, PRA 71, 042315, 2005), and it is
solved, not enumerated: the delta forms are the rows of an integer matrix
A, one diagonal form P·A·Q = D decouples the potentials, and each
coordinate of each cyclic factor contributes a gcd and a phase
(``_system_means``). A map without deltas gives 1 or 0: 1 when every
vertex character is trivial.

``omega_expectations(lat, group, ops)`` is the one implementation, and it
takes whole batches (``OpSum`` terms by linearity): every term's shift is
tested against F by incidence over the maps' shifts, and the terms whose
delta systems have one integer matrix A in sorted-vertex column order, on
whatever vertices, such as deform's one-row pairs, share one diagonal form
and one numpy pass. Nothing is enumerated or capped.

Distances need no vector either: for single maps,
‖F₁Ω − F₂Ω‖² = ω(F₁†F₁) + ω(F₂†F₂) − 2 Re ω(F₁†F₂) (``omega_distances``, one
batch for many pairs), three maps per pair: ω(F₂†F₁) is the conjugate of
ω(F₁†F₂), and each ω(F†F) is read off ``operators.conjugated``. The
deformation, transporter and torus stabilizer checks all measure their
distances this way; a torus sector vector is reached by composing with
T_ab.

Nothing here builds Ω or lists a flat connection: the materialized Ω and
the flat-connection enumeration are test oracles (tests/oracles.py).
"""

from __future__ import annotations

import math

import numpy as np

from .groups import AbelianGroup
from .lattice import Lattice
from .operators import AffineMap, as_opsum, conjugated


class GroundStateError(ValueError):
    pass


def sector_shift(lat: Lattice, group: AbelianGroup, a: int, b: int) -> AffineMap:
    """T_ab, the pure shift by the flat configuration with holonomies (a, b)
    and zero potentials, a on the x=0 column of h edges and b on the y=0 row
    of v edges: T_ab Ω is the ground vector of the torus holonomy sector."""
    shifts = [(lat.edge_id("h", 0, y), a) for y in range(lat.height)]
    shifts += [(lat.edge_id("v", x, 0), b) for x in range(lat.width)]
    return AffineMap(group, lat.n_edges, shifts=tuple(sorted((e, gi) for e, gi in shifts if gi)))


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


def connection_projector(lat: Lattice, group: AbelianGroup, assignment: dict[int, int]) -> AffineMap:
    """Diagonal projector onto a fixed value, a packed index, of every listed edge."""
    if not assignment:
        raise GroundStateError("empty edge assignment")
    deltas = tuple((((e, +1),), gi) for e, gi in sorted(assignment.items()))
    return AffineMap(group, lat.n_edges, deltas=deltas)


def edges_of_faces(lat: Lattice, faces: list[int]) -> list[int]:
    out: set[int] = set()
    for f in faces:
        out.update(e for e, _ in lat.plaq_edges(f))
    return sorted(out)


def shift_fluxes(lat: Lattice, group: AbelianGroup, maps) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The nontrivial checks of the maps' shifts as (map, row, flux index)
    arrays, sorted: the face fluxes and, on the torus, the two holonomies
    (``lat.edge_checks``). A shift lies in Ω's group F exactly when its map
    has no row. Each shift entry is scattered, signed, onto its edge's rows
    (a padding sign 0 adds the identity) and summed per cyclic factor, so
    the cost follows the shift entries, not maps × faces."""
    owner = np.repeat(np.arange(len(maps)), [len(m.shifts) for m in maps])
    entries = np.array([v for m in maps for shift in m.shifts for v in shift], dtype=np.int64).reshape(-1, 2)
    rows, signs = (table[entries[:, 0]] for table in lat.edge_checks)
    values = np.where(signs > 0, entries[:, 1:], group.tables()["neg"][entries[:, 1:]] * (signs < 0))
    n_rows = lat.n_faces + 2 * lat.is_torus
    keys, fluxes = group.index_sums((owner[:, None] * n_rows + rows).ravel(), values.ravel())
    return keys // n_rows, keys % n_rows, fluxes


def vertex_charges(lat: Lattice, group: AbelianGroup, maps) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The maps' characters read on a gradient dφ as (map, vertex, character
    index) arrays, sorted, nontrivial entries only: chi_e(φ_head - φ_tail)
    puts chi_e on the edge's head and its inverse on its tail, summed per
    vertex (d0ᵀ z, as ``shift_fluxes`` is d1 x). A map without deltas has
    <Ω|M|Ω> ≠ 0 only when it has no row here and its shift lies in F."""
    owner = np.repeat(np.arange(len(maps)), [len(m.chars) for m in maps])
    entries = np.array([v for m in maps for char in m.chars for v in char], dtype=np.int64).reshape(-1, 2)
    ends = np.array(lat.endpoint_table, dtype=np.int64).reshape(-1, 2)[entries[:, 0]]
    values = np.stack([group.tables()["neg"][entries[:, 1]], entries[:, 1]], axis=1)
    keys, charges = group.index_sums((owner[:, None] * lat.n_vertices + ends).ravel(), values.ravel())
    return keys // lat.n_vertices, keys % lat.n_vertices, charges


def _delta_forms(lat: Lattice, group: AbelianGroup, m: AffineMap, forms: dict):
    """m's deltas as functions of the vertex potentials, {form: target}, or
    None when a constant delta fails: on a gradient an expression
    sum(sign * value(e)) telescopes to the sorted (vertex, multiplicity mod
    |G|) pairs of its form. ``forms`` memoizes the forms by expression."""
    out: dict[tuple, int] = {}
    ends = lat.endpoint_table
    for coeffs, target in m.deltas:
        if coeffs not in forms:
            acc: dict[int, int] = {}
            for e, sign in coeffs:
                tail, head = ends[e]
                acc[head] = acc.get(head, 0) + sign
                acc[tail] = acc.get(tail, 0) - sign
            forms[coeffs] = tuple(sorted((v, c % group.order) for v, c in acc.items() if c % group.order))
        form = forms[coeffs]
        if not form:
            if target:
                return None
        elif out.setdefault(form, target) != target:
            return None
    return out


def _diagonal_form(a: list, n_cols: int, transforms: bool = True) -> tuple[list[int], list[list[int]], list[list[int]]]:
    """(d, P, Q) with P·A·Q = diag(d) over the integers, P and Q unimodular
    (left empty without `transforms`), for A with rows `a` and n_cols
    columns: the Smith normal form without its divisor chain. Each pivot is
    the smallest nonzero entry left, reducing its row and column until clear."""
    m = len(a)
    A = [list(row) for row in a]
    P = [[int(i == j) for j in range(m * transforms)] for i in range(m)]
    Q = [[int(i == j) for j in range(n_cols)] for i in range(n_cols * transforms)]
    for t in range(min(m, n_cols)):
        while True:
            rest = [(abs(A[i][j]), i, j) for i in range(t, m) for j in range(t, n_cols) if A[i][j]]
            if not rest:
                break
            _, i, j = min(rest)
            A[t], A[i], P[t], P[i] = A[i], A[t], P[i], P[t]
            for row in A + Q:
                row[t], row[j] = row[j], row[t]
            p = A[t][t]
            for i in range(t + 1, m):
                q = A[i][t] // p
                if q:
                    A[i] = [x - q * y for x, y in zip(A[i], A[t])]
                    P[i] = [x - q * y for x, y in zip(P[i], P[t])]
            for j in range(t + 1, n_cols):
                q = A[t][j] // p
                if q:
                    for row in A + Q:
                        row[j] -= q * row[t]
            if not any(A[i][t] for i in range(t + 1, m)) and not any(A[t][t + 1 :]):
                break
    return [A[k][k] for k in range(min(m, n_cols))], P, Q


def subgroup_order(rows: list, n_cols: int, orders) -> int:
    """Order of the subgroup of ⊕_i Z_{n_i}^n_cols generated by the integer
    `rows` read in every cyclic factor Z_{n_i} (n_i in `orders`): with
    P·A·Q = diag(d) (``_diagonal_form``), Π_i Π_j n_i / gcd(d_j, n_i), the
    image of the diagonal map, since P and Q are invertible mod every n_i."""
    d = _diagonal_form(rows, n_cols, transforms=False)[0]
    return math.prod(n // math.gcd(dj, n) for n in orders for dj in d)


def _column_system(system: tuple, factors: list) -> tuple[tuple, tuple]:
    """A delta system's integer matrix A in sorted-vertex column order, one row
    per form, and its terms' (phase, {form: target}, {vertex: character}) as
    arrays in that order: phase numerators, targets, column characters, and
    alive, False where a nontrivial character sits off the system's vertices."""
    vertices = sorted({v for form in system for v, _ in form})
    col = {v: j for j, v in enumerate(vertices)}
    rows = tuple(tuple(dict(form).get(v, 0) for v in vertices) for form in system)
    targets = np.array([[ds[f] for f in system] for _, ds, _ in factors], dtype=np.int64)
    chars = np.zeros((len(factors), len(vertices)), dtype=np.int64)
    alive = np.ones(len(factors), dtype=bool)
    for r, (_, _, term_chars) in enumerate(factors):
        for v, ci in term_chars.items():
            if v in col:
                chars[r, col[v]] = ci
            elif ci:
                alive[r] = False
    pnum = np.array([p for p, _, _ in factors], dtype=np.int64)
    return rows, (pnum, targets.reshape(len(factors), len(system)), chars, alive)


def _system_means(group: AbelianGroup, rows: tuple, factors: tuple) -> list[complex]:
    """Per term of the arrays (phase numerators, targets, column characters,
    alive) of ``_column_system``, the mean of delta * phase over all vertex
    potentials φ, exactly. The system is A φ = t for A with integer `rows`;
    with P·A·Q = D and φ = Q ψ it reads D ψ = s for s = P t, and the column
    characters b read c·ψ for c = b·Q. Per cyclic factor Z_n, pivot d_j
    with g = gcd(d_j, n) gives (g/n) [g | s_j] [g | c_j] e^(2πi c_j ψ0_j / n)
    for d_j ψ0_j = s_j; a column without a pivot needs c_j = 0, a row
    without one s_j = 0."""
    t = group.tables()
    roots, digits = t["roots"], t["digits"]
    L = group.phase_denominator
    pnum, targets, chars, alive = (a.copy() for a in factors)
    d, P, Q = _diagonal_form(rows, chars.shape[1])
    # unimodular over the integers, so invertible mod every factor order
    P, Q = (np.array([[x % L for x in row] for row in M], dtype=np.int64).reshape(len(M), len(M)) for M in (P, Q))
    num = den = 1
    for i, n in enumerate(group.orders):
        s = digits[targets, i] @ P.T % n
        c = digits[chars, i] @ Q % n
        for j, dj in enumerate(d):
            g = math.gcd(dj, n)
            alive &= (s[:, j] % g == 0) & (c[:, j] % g == 0)
            num, den = num * g, den * n
            if g < n:
                psi0 = s[:, j] // g * pow(dj // g, -1, n // g) % (n // g)
                pnum += L // n * (c[:, j] * psi0 % n)
        alive &= ~(s[:, len(d) :] % n).any(axis=1) & ~(c[:, len(d) :] % n).any(axis=1)
    means = roots[pnum % L] * (num / den)
    return [complex(x) if ok else 0j for x, ok in zip(means.tolist(), alive.tolist())]


def omega_expectations(lat: Lattice, group: AbelianGroup, ops) -> list[complex]:
    """<Ω|op|Ω> for each AffineMap or OpSum in ops, computed from the
    flat-connection group (see the module docstring); Ω is the plane ground
    state or the zero-holonomy torus ground vector. All terms of all ops are
    tested for a shift in F at once (``shift_fluxes``), and the terms whose
    systems share a matrix (``_column_system``) are solved by one ``_system_means``."""
    terms = [(i, coeff, m) for i, op in enumerate(ops) for coeff, m in as_opsum(op).terms]
    in_f = np.ones(len(terms), dtype=bool)
    in_f[shift_fluxes(lat, group, [m for _, _, m in terms])[0]] = False
    forms: dict = {}
    kept = []
    by_system: dict[tuple, list[int]] = {}
    for (i, coeff, m), ok in zip(terms, in_f):
        deltas = _delta_forms(lat, group, m, forms) if ok else None
        if deltas is not None:
            by_system.setdefault(tuple(sorted(deltas)), []).append(len(kept))
            kept.append((i, coeff, m, deltas))
    charges: list[dict] = [{} for _ in kept]
    for j, v, ci in zip(*(a.tolist() for a in vertex_charges(lat, group, [k[2] for k in kept]))):
        charges[j][v] = ci
    by_matrix: dict[tuple, list] = {}
    for system, js in by_system.items():
        rows, factors = _column_system(system, [(kept[j][2].phase, kept[j][3], charges[j]) for j in js])
        by_matrix.setdefault(rows, []).append((js, factors))
    means: dict[int, complex] = {}
    for rows, solved in by_matrix.items():
        factors = tuple(np.concatenate(a) for a in zip(*(f for _, f in solved)))
        means.update(zip((j for js, _ in solved for j in js), _system_means(group, rows, factors)))
    # each op sums its terms in order, from 0, as the builtin sum would
    out: list = [0] * len(ops)
    for j, (i, coeff, _, _) in enumerate(kept):
        out[i] = out[i] + coeff * means[j]
    return [complex(x) for x in out]


def omega_distances(lat: Lattice, group: AbelianGroup, pairs) -> list[float]:
    """‖F₁Ω − F₂Ω‖ without Ω for each pair (F₁, F₂) of maps:
    ω(F₁*F₁) + ω(F₂*F₂) − 2 Re ω(F₁*F₂), all in one ``omega_expectations``
    batch of three maps per pair. ω(F*F) is read off ``conjugated(F, 1)``,
    and ω(F₂*F₁) is the conjugate of ω(F₁*F₂), so a pair costs one adjoint
    and one product. For ribbon operators each term is a count of vertex
    potentials over their number, so two maps with the same image of Ω give
    exactly 0."""
    maps = []
    for f1, f2 in pairs:
        one = AffineMap.identity(group, f1.n_edges)
        maps += [conjugated(f1, one), conjugated(f2, one), f1.adjoint().compose(f2)]
    w = omega_expectations(lat, group, maps)
    norms = [w[i].real + w[i + 1].real - 2 * w[i + 2].real for i in range(0, len(w), 3)]
    return [float(np.sqrt(max(v, 0.0))) for v in norms]
