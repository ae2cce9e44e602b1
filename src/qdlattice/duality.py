"""Finite-patch counterparts of the cone-algebra duality machinery.

The subspace H_Lambda is what the region's ribbon operators generate from
the ground state. Because the irreducible-representation ribbon operators
factor into single-triangle operators, that span equals the region's full
edge-operator span applied to the ground state, which factorizes:

    H_Lambda = C^(|G|^k) tensor W,

anything on the k region edges, tensored with W, the span of the ground
state's exterior restrictions. Omega is uniform over the group F of flat
connections, and its rows with fixed region values form a coset of the
subgroup vanishing on the region, so those restrictions are equal or
disjoint cosets: W's orthonormal basis w_j is one indicator per distinct
exterior coset. Omega = sum C[a, j] |a> tensor w_j, with a the
configuration of the region edges, and each region configuration restricts
to one coset, so every row of the block C holds at most one nonzero entry.

Every check below reads three integers of C, never its entries: its shape
(n, m) = (|G|^k, dim W) and its rank r, the number of its nonzero columns.
``cone_subspace`` counts them from F itself. A bucket a is a region value
r(d phi) of a gradient, and buckets a and b share a coset exactly when
a - b is the region value of a gradient vanishing on the exterior. A
spanning tree fixes the gauge of those gradients and labels each coset by
integer rows B over the free potentials, so m = |G|^(rows of B) and r is
the order of the subgroup the rows generate (``subgroup_order``). The
shape of H_Lambda follows from the graph alone: with c(S) the number of
components of the graph (vertices, S),
dim H_Lambda = |G|^(k + V + 1 - c(Lambda) - c(E minus Lambda)).

The region is a truncated cone as ``cone_make`` builds it: every region
edge is bulk, with a dual triangle on each side, as every edge of a cone
drawn on the infinite lattice is. The region index a is then the
configuration of all region edges.

The iterative ribbon-operator closure is kept as an independent count,
checked against dim H_Lambda on small cones (``ribbon_closure_rank``,
``small_cone_skip``). Ribbon operators are Weyl maps, and W Omega and
W' Omega are equal up to a phase or orthogonal (the stabilizer-state
rule): equal exactly when W^dagger W' has a flat shift and trivial vertex
characters. So the closure of Omega under the group H the ribbon
operators generate has dimension |Phi(H)|, with Phi the homomorphism to
face fluxes and vertex characters (``shift_fluxes``, ``vertex_charges``),
and Phi(H) is generated by the ribbon operators' images.

On top of the subspace sit the exterior-charge orthogonality check, the
boundary membership check and the real-linear density check mirroring the
commutant argument: self-adjoint region ribbon operators applied to the
ground state, plus i times self-adjoint exterior operators compressed to
H_Lambda, must span H_Lambda over the reals; dropping the compressed family
must leave a strict deficit. In block coordinates the families are X C
and i C Y for Hermitian X and Y (the compressed exterior operator
E_jk = 1 tensor |w_j><w_k| maps Omega to the block whose column j is
C[:, k]), and once the region operators are all of M_n both real ranks
follow from n, m and r alone: n^2 - (n - r)^2 for the region family and
that plus m^2 - (m - r)^2 for both, against the target 2 n m
(``density_ranks``). The region operators are all of M_n because every
region edge is bulk: a shift and a character on each of the k edges give
the |G|^(2k) monomials of a Weyl basis. The tests count their n^2
distinct labels; the check enumerates none of them. Exterior ribbon
operators need no family of their own:
P_Lambda (1 tensor Y) Omega = (1 tensor P_W Y P_W) Omega lies in the
compressed family. Neither exterior check builds Omega or enumerates
anything: the M Omega span H_Lambda, and for a Weyl map F (no deltas)
<M Omega|F Omega> = omega(M^dagger F) is 0 or a root of unity (the
stabilizer-state rule), nonzero when the shift is flat and every vertex of a
gradient gets a trivial character. So the maximum o over M is 1 when some M
cancels both F's endpoint flux and charge, and 0 otherwise
(``cone_overlaps``). The orthogonality check wants o = 0; the membership
check reads F Omega's distance to H_Lambda as sqrt(1 - o^2), exactly 0 or 1
(``membership_residuals``).

Both exterior checks draw from the exterior chains of 2 to
EXTERIOR_RIBBON_LEN triangles, enumerated as triangle tuples, and build a
``Ribbon`` only for a chain they keep. The caller finds the detecting
deep-exterior sites once per lattice and passes them to both checks.

Nothing here builds Omega or C: the materialized Omega, the block read off
its rows (``MaterializedCone``), region operators acting on that block and
the Gram-Schmidt closure grown from it are test oracles (tests/oracles.py).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .groundstate import shift_fluxes, vertex_charges
from .groups import AbelianGroup, subgroup_order
from .lattice import (
    Lattice,
    Region,
    Ribbon,
    Site,
    Triangle,
    components,
    joined_sites,
    positive_moves,
)
from .operators import AffineMap, OperatorError, canonical, ribbon_F_irrep
from .reports import Check
from .sectors import sector_labels

# the ribbon closure runs with ribbons of up to this many triangles and one
# fewer; equal counts certify that longer ribbons add nothing
CLOSURE_LENGTH_CAP = 6
# exterior ribbons of the orthogonality and membership checks: 2 to this
# many triangles
EXTERIOR_RIBBON_LEN = 6


class DualityError(ValueError):
    """A cone computation asked of a lattice it is not read on."""


# -- ribbon enumeration ------------------------------------------------------------


def _region_paths(
    lat: Lattice, edges: frozenset[int], max_len: int
) -> Iterator[tuple[Triangle, ...]]:
    """Every chain of 1 to max_len positively-oriented triangles on `edges`
    using no edge twice, depth first from each site in sorted order."""
    moves = {s: positive_moves(lat, s, edges) for s in lat.sites()}
    for s0 in sorted(moves):
        stack: list[tuple[Site, tuple[Triangle, ...], frozenset[int]]] = [(s0, (), frozenset())]
        while stack:
            s, path, used = stack.pop()
            for tri in moves[s]:
                if tri.edge in used:
                    continue
                new = path + (tri,)
                yield new
                if len(new) < max_len:
                    stack.append((tri.s1, new, used | {tri.edge}))


def ribbons_in_region(lat: Lattice, region: Region, max_len: int) -> list[Ribbon]:
    """All positively-oriented ribbons supported on the region's edges, up
    to the triangle-count cap."""
    return [Ribbon.from_triangles(p) for p in _region_paths(lat, region.edges, max_len)]


# -- the cone subspace in factorized coordinates -------------------------------------


@dataclass
class ConeSubspace:
    """H_Lambda = C^n tensor W by the counts of Omega's block C: its shape
    (n, m) = (|G|^k, dim W) and its rank r."""

    region: Region
    lat: Lattice
    group: AbelianGroup
    n: int
    m: int
    r: int

    @property
    def dim(self) -> int:
        return self.n * self.m


def cone_subspace(region: Region, lat: Lattice, group: AbelianGroup) -> ConeSubspace:
    """H_Lambda's counts n, m and r, from the flat group F of a plane patch,
    the gradients d phi: no state, block or element of F is built. Every
    region edge must carry a dual triangle, as on a cone from
    ``cone_make``: region operators then shift every region edge, and the
    region index is the configuration of all of them.

    Omega's rows with region values a (a bucket) form a coset of the
    gradients vanishing on the region, and two buckets restrict to the same
    exterior coset, one column of C, exactly when they differ by the region
    value of a gradient vanishing on the exterior: of a potential constant
    on each component of (V, E minus region). A bucket is a region value of
    the potentials on the touched vertices U (those on a region edge), with
    one vertex per component of (U, region) held at the identity: that fill
    map is injective on the remaining free potentials, so each bucket is one
    potential and each row of C has one nonzero entry. Its column is its
    potentials modulo functions constant on the region components plus
    functions constant on the exterior components. In the graph with a node
    per component of either kind and a link per touched vertex, joining its
    two components, those functions are gradients, and a spanning tree fixes
    their gauge: the class is read off the links outside the tree, one
    integer row of B over the free potentials each, so m = |G|^(links
    outside) and r is the order of the image of B (``subgroup_order``).
    Refused on a torus."""
    if lat.is_torus:
        raise DualityError("the cone subspace is read from the flat group of a plane patch")
    ends = [lat.edge_endpoints(e) for e in sorted(region.edges)]
    touched = sorted({v for pair in ends for v in pair})
    inner = components(lat.n_vertices, ends)
    exterior = (lat.edge_endpoints(e) for e in lat.edges() if e not in region.edges)
    outer = components(lat.n_vertices, exterior)
    links: dict[tuple[str, int], list] = {}
    for u in touched:
        a, b = ("in", inner[u]), ("out", outer[u])
        links.setdefault(a, []).append((u, b))
        links.setdefault(b, []).append((u, a))
    tree: list[tuple[int, tuple, tuple]] = []  # (link, known node, new node), in discovery order
    seen: set[tuple[str, int]] = set()
    for root in links:
        if root in seen:
            continue
        seen.add(root)
        stack = [root]
        while stack:
            x = stack.pop()
            for u, y in links[x]:
                if y not in seen:
                    seen.add(y)
                    tree.append((u, x, y))
                    stack.append(y)
    on_tree = {u for u, _, _ in tree}
    cycles = [u for u in touched if u not in on_tree]
    free = [u for u in touched if inner[u] != u]
    # each potential as an integer row over the free potentials
    zero = np.zeros(len(free), dtype=np.int64)
    pots = dict.fromkeys(touched, zero)
    pots.update(zip(free, np.eye(len(free), dtype=np.int64)))
    gauge = dict.fromkeys(links, zero)
    for u, x, y in tree:  # zero on every tree link
        gauge[y] = -(pots[u] + gauge[x])
    labels = [(pots[u] + gauge["in", inner[u]] + gauge["out", outer[u]]).tolist() for u in cycles]
    radix = group.order
    r = subgroup_order(labels, len(free), group.orders)
    return ConeSubspace(region, lat, group, radix ** len(ends), radix ** len(cycles), r)


def _closure_count(lat: Lattice, group: AbelianGroup, maps: list[AffineMap]) -> int:
    """|Phi(H)| for the group H that the Weyl maps `maps` generate on a
    plane patch: the order of the group generated by their face fluxes and
    vertex characters (``shift_fluxes``, ``vertex_charges``), counted
    per cyclic factor on their digits. The per-factor product is Phi(H)
    when H holds each map's part in each cyclic factor, as it does when the
    maps carry every label of a set closed under taking those parts, such as
    all nontrivial labels or all characters."""
    phi = np.zeros((len(maps), lat.n_faces + lat.n_vertices), dtype=np.int64)
    owner, face, flux = shift_fluxes(lat, group, maps)
    phi[owner, face] = flux
    owner, vertex, charge = vertex_charges(lat, group, maps)
    phi[owner, lat.n_faces + vertex] = charge
    phi = phi[:, phi.any(axis=0)]
    digits = group.tables()["digits"]
    count = 1
    for i, n in enumerate(group.orders):
        rows = {row for row in map(tuple, digits[phi, i].tolist()) if any(row)}
        count *= subgroup_order(sorted(rows), phi.shape[1], (n,))
    return count


def ribbon_closure_rank(subspace: ConeSubspace) -> tuple[int, int]:
    """Independent count of H_Lambda: the dimension of the span of W Omega
    over the group H that the region's ribbon operators generate,
    |Phi(H)| (``_closure_count``), for ribbons of up to
    CLOSURE_LENGTH_CAP - 1 and up to CLOSURE_LENGTH_CAP triangles with
    every nontrivial label. Equal counts certify cap stability; the count
    must match the factorized dimension. No state is built."""
    lat, group, region = subspace.lat, subspace.group, subspace.region
    labels = sector_labels(group)[1:]
    ranks = []
    for cap in (CLOSURE_LENGTH_CAP - 1, CLOSURE_LENGTH_CAP):
        maps = dict.fromkeys(
            canonical(ribbon_F_irrep(lat, group, r, chi, c))
            for r in ribbons_in_region(lat, region, cap)
            for chi, c in labels
        )
        ranks.append(_closure_count(lat, group, [m for m in maps if m is not None]))
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


def _exterior_paths(lat: Lattice, region: Region, detectors: dict) -> Iterator[tuple[tuple, bool]]:
    """Every exterior chain of 2 to EXTERIOR_RIBBON_LEN triangles, as a
    triangle tuple, with whether an endpoint is one of the detecting
    deep-exterior sites `detectors`. No ribbon is built."""
    for path in _region_paths(lat, region.complement_edges(), EXTERIOR_RIBBON_LEN):
        if len(path) >= 2:
            yield path, path[0].s0 in detectors or path[-1].s1 in detectors


def sample_exterior_ribbons(
    lat: Lattice, region: Region, detectors: dict, rng: random.Random, count: int
) -> list[Ribbon]:
    """Seeded exterior ribbons with at least one endpoint at a detecting
    deep-exterior site: the paths are shuffled, and only the `count` kept
    become ribbons."""
    picked = [path for path, deep in _exterior_paths(lat, region, detectors) if deep]
    rng.shuffle(picked)
    return [Ribbon.from_triangles(path) for path in picked[:count]]


def boundary_ribbons(lat: Lattice, region: Region, detectors: dict) -> list[Ribbon]:
    """All exterior ribbons whose endpoints both touch the region boundary,
    away from any deep detector, and are joinable by a ribbon inside the
    region: the cone-connectedness hypothesis under which
    boundary-connecting exterior states belong to the cone subspace. Each
    site's boundary membership is tested once, and the joinable ends of
    each start site come from one search (``joined_sites``)."""
    boundary = {s for s in lat.sites() if region.site_on_boundary(s)}
    candidates = [
        path
        for path, deep in _exterior_paths(lat, region, detectors)
        if not deep and path[0].s0 in boundary and path[-1].s1 in boundary
    ]
    ends: dict[Site, set[Site]] = {}
    for path in candidates:
        ends.setdefault(path[0].s0, set()).add(path[-1].s1)
    joined = {s0: joined_sites(lat, s0, s1s, region) for s0, s1s in ends.items()}
    return [Ribbon.from_triangles(path) for path in candidates if path[-1].s1 in joined[path[0].s0]]


def _detected_labels(group: AbelianGroup, detectors: dict, ribbon: Ribbon, labels) -> list:
    """The labels whose charge pair, (chi, c) at the start and its conjugate
    at the end, trips a deep detector: a nontrivial chi when the endpoint
    vertices differ (else the pair cancels) and an endpoint has a star
    detector, a nontrivial c likewise with faces and plaquette detectors."""
    e = group.identity()
    ends = [detectors.get(s, (False, False)) for s in (ribbon.start, ribbon.end)]
    star = ribbon.start.vertex != ribbon.end.vertex and any(st for st, _ in ends)
    plaq = ribbon.start.face != ribbon.end.face and any(pl for _, pl in ends)
    return [(chi, c) for chi, c in labels if (star and chi != e) or (plaq and c != e)]


def _absorbed(group: AbelianGroup, n_rows: int, n_nodes: int, entries, pairs) -> np.ndarray:
    """Per row of group indices on nodes, given as nontrivial (row, node,
    index) `entries`, whether it is a boundary on the graph with edges
    `pairs`: whether its sum on each component (a lone node is one) is trivial."""
    rows, nodes, values = entries
    component = np.array(components(n_nodes, pairs), dtype=np.int64)
    ok = np.ones(n_rows, dtype=bool)
    ok[group.index_sums(rows * n_nodes + component[nodes], values)[0] // n_nodes] = False
    return ok


def cone_overlaps(lat: Lattice, group: AbelianGroup, region: Region, maps) -> list[float]:
    """max |<M Omega|F Omega>| = max |omega(M^dagger F)| over the region's
    edge monomials M, for each map F without deltas on a plane patch: 1.0
    when some shift on the region makes F's shift flat (its face fluxes, read
    by incidence over the maps' shifts, are a boundary on the ``dual_faces``
    of the region's bulk edges) and some characters on it cancel F's
    ``vertex_charges``, and 0.0 otherwise."""
    if any(f.deltas for f in maps):
        raise OperatorError("cone overlaps need maps without deltas")
    if lat.is_torus:
        raise DualityError("cone overlaps are read on plane patches")
    edges = sorted(region.edges)
    duals = [lat.dual_faces(e) for e in edges]
    ok = _absorbed(group, len(maps), lat.n_faces, shift_fluxes(lat, group, maps), duals)
    ends = [lat.edge_endpoints(e) for e in edges]
    ok &= _absorbed(group, len(maps), lat.n_vertices, vertex_charges(lat, group, maps), ends)
    return [1.0 if x else 0.0 for x in ok]


def external_charge_orthogonality_check(
    region: Region,
    lat: Lattice,
    group: AbelianGroup,
    detectors: dict,
    rng: random.Random,
    samples: int = 100,
) -> Check:
    """Externally charged vectors must be orthogonal to H_Lambda: each
    sampled ribbon, with a seeded label a deep detector sees, must have
    ``cone_overlaps`` 0, read for all of them in one call. `detectors` is
    ``detecting_exterior_sites`` of the region."""
    nontrivial = sector_labels(group)[1:]
    maps = []
    for r in sample_exterior_ribbons(lat, region, detectors, rng, samples):
        labels = _detected_labels(group, detectors, r, nontrivial)
        if labels:
            chi, c = rng.choice(labels)
            maps.append(ribbon_F_irrep(lat, group, r, chi, c))
    worst = max(cone_overlaps(lat, group, region, maps), default=0.0)
    return Check.judged(
        "externally charged vectors orthogonal to the cone subspace",
        "externally charged vectors are orthogonal to the cone subspace",
        bool(maps) and worst <= 1e-9,
        worst,
        f"{len(maps)} ribbons with a detectable deep-exterior charge",
    )


def boundary_maps(
    region: Region, lat: Lattice, group: AbelianGroup, detectors: dict, rng: random.Random
) -> list[AffineMap]:
    """The irrep operator of every ``boundary_ribbons`` ribbon, each with a
    seeded nontrivial label. `detectors` is ``detecting_exterior_sites`` of
    the region."""
    nontrivial = sector_labels(group)[1:]
    return [
        ribbon_F_irrep(lat, group, r, *rng.choice(nontrivial))
        for r in boundary_ribbons(lat, region, detectors)
    ]


def membership_residuals(lat: Lattice, group: AbelianGroup, region: Region, maps) -> list[float]:
    """Distance from F Omega to H_Lambda for each map F without deltas,
    sqrt(max(0, 1 - o^2)) with o from one ``cone_overlaps`` call. The
    M Omega span H_Lambda, so o = 1 makes F Omega a phase times some
    M Omega and o = 0 makes it orthogonal to all of them: the residual is
    exactly 0.0 or 1.0."""
    return [float(np.sqrt(max(0.0, 1.0 - o * o))) for o in cone_overlaps(lat, group, region, maps)]


def boundary_membership_check(
    region: Region, lat: Lattice, group: AbelianGroup, maps: list[AffineMap]
) -> Check:
    """Exterior ribbons connecting two boundary sites must land inside
    H_Lambda: every map of ``boundary_maps`` must have
    ``membership_residuals`` 0. Neither Omega nor the subspace is built."""
    worst = max(membership_residuals(lat, group, region, maps), default=0.0)
    return Check.judged(
        "boundary-connecting exterior ribbons stay in the cone subspace",
        "charge-free exterior vectors lie in the cone subspace",
        bool(maps) and worst <= 1e-9,
        worst,
        f"all {len(maps)} boundary-to-boundary ribbons up to {EXTERIOR_RIBBON_LEN} triangles",
    )


def small_cone_skip(region: Region) -> str:
    """Why the ribbon closure does not run on this cone, or "" when it
    does: on at most 3 edges."""
    return "" if len(region.edges) <= 3 else "it runs on cones of at most 3 edges"


# -- the real-linear density check ---------------------------------------------------


def density_ranks(n: int, m: int, r: int) -> tuple[int, int]:
    """(real rank of both families, real rank of the region family) for
    Omega's block C of shape (n, m) and rank r, when the region family is
    every Hermitian n x n matrix X. The families are {X C} and {i C Y} for
    Hermitian m x m matrices Y. With C = U S V^dagger, U^dagger X C V = X' S
    where X' = U^dagger X U runs over every Hermitian matrix: the first r
    columns are free, n^2 - (n - r)^2 real directions, and the rest vanish.
    Likewise i C Y gives m^2 - (m - r)^2 directions on the first r rows. The
    two meet only on the r x r block, where H S = i S K for Hermitian H and
    K reads H_ab = i K_ab s_a / s_b, and Hermiticity then gives
    K_ba (s_a / s_b + s_b / s_a) = 0: they meet in 0 and the ranks add,
    whatever the spectrum."""
    a_rank = n * n - (n - r) ** 2
    return a_rank + m * m - (m - r) ** 2, a_rank


def self_adjoint_density_check(subspace: ConeSubspace) -> list[Check]:
    """Real-linear span of {X Omega : X self-adjoint region operator} and
    {i Y Omega : Y self-adjoint compressed exterior operator} must reach
    2 dim(H_Lambda); the first family alone must not. Both ranks follow from
    the shape and rank of Omega's block (``density_ranks``), since the region
    operators are all of M_n on the n = |G|^k region configurations: every
    region edge is bulk, so its shifts and characters give a Weyl basis."""
    n, m, r = subspace.n, subspace.m, subspace.r
    full_rank, a_rank = density_ranks(n, m, r)
    target = 2 * subspace.dim
    law = "self-adjoint parts plus i times compressed exterior parts span"
    source = f"from n = {n}, m = {m}, r = {r} (C's columns are disjoint)"
    return [
        Check.judged(
            "self-adjoint family spans the cone subspace over the reals",
            law,
            full_rank == target,
            float(target - full_rank),
            f"rank {full_rank} of target {target} {source}",
        ),
        Check.judged(
            "dropping the compressed exterior family leaves a deficit",
            law,
            a_rank < target,
            float(a_rank),
            f"rank {a_rank} < {target} {source}",
        ),
    ]

