"""Ribbon deformations: when two same-endpoint ribbons act identically on
the ground state.

Sliding a ribbon across faces and vertices while keeping its endpoints
leaves the operator's ground-state image unchanged. Two same-endpoint
ribbons are related by such moves exactly when neither threads through the
other: a shared edge used as a dual (shift) edge by one ribbon and a direct
(flux) edge by the other is a transversal crossing, and crossings change
the state by a detectable flux mismatch. Both halves of the dichotomy are
exercised by the tests.

The check below is syntactic and reads only the ribbons' signed edges
(``Ribbon.parts``). Each test compares n·h with zero for a group element h
and an integer n fixed by the geometry, which holds for every h exactly
when the group exponent (``phase_denominator``) divides n. The counts n are
each face's signed dual edges of the one ribbon minus the other's (the
face fluxes of their shift patterns), the two crossing numbers
(``crossing_number``: each flux expression must ignore the other's shifts)
and, on the torus, the difference of the two handle windings (the signed
flux edges where ``groundstate._torus_cocycle`` puts the holonomies).
``groundstate.omega_distances`` measures the outcome, ‖F₁Ω − F₂Ω‖, from
ground-state expectations without building Ω.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Iterator, Optional

from .groups import AbelianGroup
from .lattice import Lattice, LatticeError, Ribbon, positive_moves, ribbon_between


def crossing_number(reader: Ribbon, shifter: Ribbon) -> int:
    """Σ flux sign × dual sign over the edges `reader` reads as flux edges
    and `shifter` shifts as dual edges: `reader`'s flux expression reads
    n·h off the shift pattern of `shifter`'s (h, e) operator."""
    duals = dict(shifter.parts[1])
    return sum(sign * duals.get(e, 0) for e, sign in reader.parts[0])


def _pair_counts(lat: Lattice, r1: Ribbon, r2: Ribbon) -> list[int]:
    """The integers n of the deformation tests: per face r1's signed dual
    edges (+ where the dual edge points in, − where it leaves) minus r2's,
    the two crossing numbers and, on the torus, r1's handle windings (x = 0
    column of h edges, y = 0 row of v edges) minus r2's."""
    faces: Counter[int] = Counter()
    windings = [0, 0]
    for ribbon, weight in ((r1, 1), (r2, -1)):
        flux, duals = ribbon.parts
        for e, sign in duals:
            tail, head = lat.dual_face_table[e]
            faces[head] += weight * sign
            faces[tail] -= weight * sign
        if lat.is_torus:
            for e, sign in flux:
                kind, x, y = lat.edge_kind_xy(e)
                if (kind, x) == ("h", 0):
                    windings[0] += weight * sign
                elif (kind, y) == ("v", 0):
                    windings[1] += weight * sign
    return [*faces.values(), crossing_number(r2, r1), crossing_number(r1, r2), *windings]


def is_deformation_pair(lat: Lattice, group: AbelianGroup, r1: Ribbon, r2: Ribbon) -> bool:
    """True when the two same-endpoint ribbons are crossing-free relatives,
    so their operators agree on every stabilized state."""
    if r1.start != r2.start or r1.end != r2.end:
        return False
    return all(n % group.phase_denominator == 0 for n in _pair_counts(lat, r1, r2))


PATH_NODE_CAP = 20000
# a partner ribbon is at most this many triangles longer than its base
PATH_SLACK = 8


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
        paths, capped = _paths_between(lat, s0, s1, len(base) + PATH_SLACK)
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
