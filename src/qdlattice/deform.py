"""Ribbon deformations: when two same-endpoint ribbons act identically on
the ground state.

Sliding a ribbon across faces and vertices while keeping its endpoints
leaves the operator's ground-state image unchanged. Two same-endpoint
ribbons are related by such moves exactly when neither threads through the
other: a shared edge used as a dual (shift) edge by one ribbon and a direct
(flux) edge by the other is a transversal crossing, and crossings change
the state by a detectable flux mismatch. Both halves of the dichotomy are
exercised by the tests.

The check below is syntactic. It compares the face fluxes created by the
two shift patterns (the excitation pattern must match at the endpoint
faces), the winding around the torus handles when applicable, and the
crossing obstruction read by each ribbon's flux expression on the other's
shift pattern. ``omega_distance`` measures the outcome, ‖F₁Ω − F₂Ω‖, from
ground-state expectations without building Ω.
"""

from __future__ import annotations

import random
from typing import Iterator, Optional

import numpy as np

from .groundstate import _torus_cocycle, face_fluxes, omega_expectation
from .groups import AbelianGroup, Element
from .lattice import Lattice, LatticeError, Ribbon, positive_moves, ribbon_between
from .operators import AffineMap, OpSum, ribbon_F


def shift_pattern(lat: Lattice, group: AbelianGroup, ribbon: Ribbon, h: Element) -> np.ndarray:
    """Configuration row holding the dual-edge shifts of the (h, e) operator."""
    row = np.zeros((1, lat.n_edges), dtype=np.uint8)
    m = ribbon_F(lat, group, ribbon, h, group.identity())
    for e, gi in m.shifts:
        row[0, e] = gi
    return row


def flux_reading(lat: Lattice, group: AbelianGroup, ribbon: Ribbon, row: np.ndarray) -> Element:
    """Value of the ribbon's direct-flux expression on a configuration row."""
    m = ribbon_F(lat, group, ribbon, group.identity(), group.identity())
    add, neg, _ = group.index_tables()
    values = row[0].tolist()
    acc = 0
    for coeffs, _ in m.deltas:
        for e, sign in coeffs:
            v = values[e]
            acc = add[acc][v if sign > 0 else neg[v]]
    return group.element_at(acc)


def is_deformation_pair(lat: Lattice, group: AbelianGroup, r1: Ribbon, r2: Ribbon) -> bool:
    """True when the two same-endpoint ribbons are crossing-free relatives,
    so their operators agree on every stabilized state."""
    if r1.start != r2.start or r1.end != r2.end:
        return False
    gens = [g for g in group.elements() if g != group.identity()]
    for h in gens:
        s1 = shift_pattern(lat, group, r1, h)
        s2 = shift_pattern(lat, group, r2, h)
        fluxes = face_fluxes(lat, group, np.concatenate([s1, s2]))
        if not np.array_equal(fluxes[0], fluxes[1]):
            return False
        # crossing obstruction: each flux expression must ignore the other's shifts
        if flux_reading(lat, group, r2, s1) != group.identity():
            return False
        if flux_reading(lat, group, r1, s2) != group.identity():
            return False
    if lat.is_torus:
        # equal winding: the flux expressions must agree on the handle cocycles
        for hx, hy in ((1, 0), (0, 1)):
            row = _torus_cocycle(lat, group, hx, hy).astype(np.uint8)[None, :]
            if flux_reading(lat, group, r1, row) != flux_reading(lat, group, r2, row):
                return False
    return True


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


PATH_NODE_CAP = 20000


def _paths_between(lat, s0, s1, max_len, node_cap=PATH_NODE_CAP):
    """(ribbons from s0 to s1 of at most max_len triangles using no edge
    twice, whether the search stopped at node_cap moves with a partial list)."""
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
                return out, True
            new = path + (tri,)
            if tri.s1 == s1:
                out.append(Ribbon.from_triangles(new))
            else:
                stack.append((tri.s1, new, used | {tri.edge}))
    return out, False


def sample_ribbon_pairs(
    lat: Lattice,
    group: AbelianGroup,
    rng: random.Random,
    count: int,
    deformations: bool = True,
    slack: int = 8,
    searches: Optional[list[bool]] = None,
) -> Iterator[tuple[Ribbon, Ribbon]]:
    """Seeded stream of same-endpoint ribbon pairs: proper deformations when
    `deformations`, crossing pairs otherwise. Each path search appends to
    `searches`, when given, whether it hit the node cap."""
    sites = list(lat.sites())
    produced = 0
    attempts = 0
    while produced < count and attempts < 400 * count:
        attempts += 1
        s0, s1 = rng.sample(sites, 2)
        try:
            base = ribbon_between(s0, s1, lat)
        except LatticeError:
            continue
        paths, capped = _paths_between(lat, s0, s1, len(base) + slack)
        if searches is not None:
            searches.append(capped)
        rng.shuffle(paths)
        for cand in paths:
            if cand.triangles == base.triangles:
                continue
            if is_deformation_pair(lat, group, base, cand) == deformations:
                yield base, cand
                produced += 1
                break
