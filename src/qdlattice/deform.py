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
the two crossing numbers (``crossing_number``: each flux expression must
ignore the other's shifts) and, on the torus, the difference of the two
handle windings (the signed flux edges where ``groundstate.sector_shift``
puts the holonomies). The face fluxes of the two shift patterns need no
count of their own: a ribbon's dual triangles chain its start face to its
end face, so its signed dual edges per face telescope to [end] − [start],
the same for both ribbons of a pair. ``groundstate.omega_distances``
measures the outcome, ‖F₁Ω − F₂Ω‖, from ground-state expectations without
building Ω.

Pairs are sampled as detours: a shortest ribbon between two seeded sites
and the shortest ribbon between the same sites that avoids the edge of one
seeded interior triangle of the first. The first and last edges cannot be
avoided, since every positive move leaves a site across its one outgoing
edge and arrives across the target's one incoming edge.
"""

from __future__ import annotations

import random
from typing import Iterator

from .groups import AbelianGroup
from .lattice import Lattice, LatticeError, Ribbon, ribbon_between


def crossing_number(reader: Ribbon, shifter: Ribbon) -> int:
    """Σ flux sign × dual sign over the edges `reader` reads as flux edges
    and `shifter` shifts as dual edges: `reader`'s flux expression reads
    n·h off the shift pattern of `shifter`'s (h, e) operator."""
    duals = dict(shifter.parts[1])
    return sum(sign * duals.get(e, 0) for e, sign in reader.parts[0])


def _pair_counts(lat: Lattice, r1: Ribbon, r2: Ribbon) -> list[int]:
    """The integers n of the deformation tests: the two crossing numbers
    and, on the torus, r1's handle windings (x = 0 column of h edges, y = 0
    row of v edges) minus r2's."""
    windings = [0, 0]
    if lat.is_torus:
        for ribbon, weight in ((r1, 1), (r2, -1)):
            for e, sign in ribbon.parts[0]:
                kind, x, y = lat.edge_kind_xy(e)
                if (kind, x) == ("h", 0):
                    windings[0] += weight * sign
                elif (kind, y) == ("v", 0):
                    windings[1] += weight * sign
    return [crossing_number(r2, r1), crossing_number(r1, r2), *windings]


def is_deformation_pair(lat: Lattice, group: AbelianGroup, r1: Ribbon, r2: Ribbon) -> bool:
    """True when the two same-endpoint ribbons are crossing-free relatives,
    so their operators agree on every stabilized state."""
    if r1.start != r2.start or r1.end != r2.end:
        return False
    return all(n % group.phase_denominator == 0 for n in _pair_counts(lat, r1, r2))


def sample_ribbon_pairs(
    lat: Lattice,
    group: AbelianGroup,
    rng: random.Random,
    count: int,
    deformations: bool = True,
) -> Iterator[tuple[Ribbon, Ribbon]]:
    """Seeded stream of same-endpoint ribbon pairs: proper deformations when
    `deformations`, crossing pairs otherwise. Each pair is a shortest ribbon
    and its detour around the edge of a seeded interior triangle."""
    sites = list(lat.sites())
    produced = 0
    attempts = 0
    while produced < count and attempts < 400 * count:
        attempts += 1
        s0, s1 = rng.sample(sites, 2)
        try:
            base = ribbon_between(s0, s1, lat)
            if len(base) < 3:
                continue
            avoid = rng.choice(base.triangles[1:-1]).edge
            partner = ribbon_between(s0, s1, lat, avoid_edges={avoid})
        except LatticeError:
            continue
        if is_deformation_pair(lat, group, base, partner) == deformations:
            yield base, partner
            produced += 1
