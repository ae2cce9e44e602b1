"""Oriented square lattice patches: sites, triangles, ribbons, regions, cones.

Geometry and orientation conventions
------------------------------------

Vertices sit at integer points ``(x, y)`` with ``0 <= x < width`` and
``0 <= y < height``. Edges point right (``h`` edges, from ``(x,y)`` to
``(x+1,y)``) or up (``v`` edges, to ``(x,y+1)``). A face is the unit square
named by its lower-left corner. Dual edges cross primal edges and point from
the face on the right of the primal edge to the face on its left: duals of
``h`` edges point up, duals of ``v`` edges point left.

A *site* is a pair ``(vertex, adjacent face)``. A *direct triangle* travels
between two corners of one face along the edge joining them; it is
*positively oriented* when the shared face lies to the left of the travel
direction. A *dual triangle* travels between two faces around one shared
vertex, crossing the primal edge between the faces; it is positively oriented
when the shared vertex lies to the right of the travel direction. Negatively
oriented triangles are admitted as formal inverses (they arise from ribbon
inversion); the triangle operators read the travel direction, so every
formula below applies uniformly to both orientations.

Consequences used throughout the operator layer:

* the elementary closed direct ribbon around a face (all triangles positive)
  walks the face counterclockwise;
* the elementary closed dual ribbon around a vertex walks its faces
  clockwise;
* a direct triangle contributes the edge value to a flux accumulator with
  sign ``+`` when it travels against the edge orientation and ``-`` along it;
* a dual triangle shifts its crossed edge by ``+g`` when it travels along
  the dual-edge orientation and by ``-g`` against it.

The sign pair is the unique one (up to relabelling the group elements) for
which the plaquette operator built from the elementary closed direct ribbon
projects onto counterclockwise flux ``h``, while the ribbon-endpoint
commutation relations with star and plaquette operators come out in their
standard form. The star generator then shifts edges pointing out of the
vertex by the inverse group element and edges pointing in by the element
itself; the test-suite pins all of this down against the operator algebra
rather than trusting the prose above.

Site moves
----------

Every site has at most two positively oriented triangles leaving it (a
direct step to the next corner counterclockwise around its face, a dual step
to the next face clockwise around its vertex) and at most two reversed ones
(the formal inverses of the positive triangles arriving at it). The lattice
is frozen, so ``Lattice.move_table`` works these out from coordinates once,
on first use, and maps each site to its (positive, reversed) triangle tuples.
``positive_moves``, ``reversed_moves`` and ``site_moves`` read the table and
filter by the allowed edges only when a set is given; every ribbon search
(``ribbon_between``, deform's path sampler, the duality module's region
enumeration) goes through them. ``make_triangle`` picks the one move of its
first site that reaches its second. A site that is not on the lattice
raises ``LatticeError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple, Optional

__all__ = [
    "LatticeError",
    "Lattice",
    "Site",
    "Triangle",
    "Ribbon",
    "Region",
    "lattice_make",
    "parse_lattice",
    "format_lattice",
    "ribbon_concat",
    "ribbon_invert",
    "ribbon_between",
    "cone_make",
    "closed_loop_around",
]


class LatticeError(ValueError):
    """Bad lattice dimensions, missing stars/plaquettes, or unreachable sites."""


class Site(NamedTuple):
    vertex: int
    face: int


@dataclass(frozen=True)
class Lattice:
    """Square-lattice patch, plane (open) or torus (periodic)."""

    width: int
    height: int
    boundary: str  # "plane" | "torus"

    def __post_init__(self):
        if self.width < 2 or self.height < 2:
            raise LatticeError("lattice dimensions must be >= 2")
        if self.boundary not in ("plane", "torus"):
            raise LatticeError(f"unknown boundary {self.boundary!r}")

    # -- vertices ------------------------------------------------------------

    @property
    def is_torus(self) -> bool:
        return self.boundary == "torus"

    @property
    def n_vertices(self) -> int:
        return self.width * self.height

    def vertex_id(self, x: int, y: int) -> int:
        if self.is_torus:
            return (y % self.height) * self.width + (x % self.width)
        if not (0 <= x < self.width and 0 <= y < self.height):
            raise LatticeError(f"vertex ({x},{y}) outside plane patch")
        return y * self.width + x

    def vertex_xy(self, v: int) -> tuple[int, int]:
        return v % self.width, v // self.width

    # -- edges ---------------------------------------------------------------
    # h edges first (row-major), then v edges (row-major).

    @property
    def _h_cols(self) -> int:
        return self.width if self.is_torus else self.width - 1

    @property
    def _v_rows(self) -> int:
        return self.height if self.is_torus else self.height - 1

    @property
    def n_h_edges(self) -> int:
        return self._h_cols * self.height

    @property
    def n_edges(self) -> int:
        return self.n_h_edges + self.width * self._v_rows

    def edge_id(self, kind: str, x: int, y: int) -> int:
        if self.is_torus:
            x, y = x % self.width, y % self.height
        if kind == "h":
            if not (0 <= x < self._h_cols and 0 <= y < self.height):
                raise LatticeError(f"no h edge at ({x},{y})")
            return y * self._h_cols + x
        if kind == "v":
            if not (0 <= x < self.width and 0 <= y < self._v_rows):
                raise LatticeError(f"no v edge at ({x},{y})")
            return self.n_h_edges + y * self.width + x
        raise LatticeError(f"unknown edge kind {kind!r}")

    def edge_kind_xy(self, e: int) -> tuple[str, int, int]:
        if e < self.n_h_edges:
            return "h", e % self._h_cols, e // self._h_cols
        e -= self.n_h_edges
        return "v", e % self.width, e // self.width

    def edge_endpoints(self, e: int) -> tuple[int, int]:
        """(tail, head) vertex ids in the edge's own orientation."""
        kind, x, y = self.edge_kind_xy(e)
        if kind == "h":
            return self.vertex_id(x, y), self.vertex_id(x + 1, y)
        return self.vertex_id(x, y), self.vertex_id(x, y + 1)

    def edges(self) -> range:
        return range(self.n_edges)

    @cached_property
    def endpoint_table(self) -> tuple[tuple[int, int], ...]:
        """``edge_endpoints`` of every edge, in edge order (computed once)."""
        return tuple(self.edge_endpoints(e) for e in self.edges())

    # -- faces ---------------------------------------------------------------

    @property
    def _f_cols(self) -> int:
        return self.width if self.is_torus else self.width - 1

    @property
    def _f_rows(self) -> int:
        return self.height if self.is_torus else self.height - 1

    @property
    def n_faces(self) -> int:
        return self._f_cols * self._f_rows

    def face_id(self, x: int, y: int) -> int:
        if self.is_torus:
            x, y = x % self.width, y % self.height
        if not (0 <= x < self._f_cols and 0 <= y < self._f_rows):
            raise LatticeError(f"no face at ({x},{y})")
        return y * self._f_cols + x

    def face_xy(self, f: int) -> tuple[int, int]:
        return f % self._f_cols, f // self._f_cols

    def faces(self) -> range:
        return range(self.n_faces)

    def face_corners_ccw(self, f: int) -> list[int]:
        """Corner vertices counterclockwise from the lower-left one."""
        x, y = self.face_xy(f)
        return [
            self.vertex_id(x, y),
            self.vertex_id(x + 1, y),
            self.vertex_id(x + 1, y + 1),
            self.vertex_id(x, y + 1),
        ]

    # -- stars and plaquettes --------------------------------------------------

    def star_edges(self, v: int) -> list[int]:
        """The four edges at v (E, N, W, S order). Raises if incomplete."""
        x, y = self.vertex_xy(v)
        try:
            return [
                self.edge_id("h", x, y),
                self.edge_id("v", x, y),
                self.edge_id("h", x - 1, y),
                self.edge_id("v", x, y - 1),
            ]
        except LatticeError:
            raise LatticeError(f"vertex {v} has an incomplete star") from None

    def star_edges_partial(self, v: int) -> list[int]:
        """Whatever star edges exist at v (plane-patch boundary allowed)."""
        x, y = self.vertex_xy(v)
        out = []
        for kind, ex, ey in (("h", x, y), ("v", x, y), ("h", x - 1, y), ("v", x, y - 1)):
            try:
                out.append(self.edge_id(kind, ex, ey))
            except LatticeError:
                pass
        return out

    def has_full_star(self, v: int) -> bool:
        return len(self.star_edges_partial(v)) == 4

    def plaq_edges(self, f: int) -> list[tuple[int, int]]:
        """Face boundary as (edge, sign) counterclockwise from the lower-left
        corner; sign +1 when the edge orientation matches the ccw walk."""
        x, y = self.face_xy(f)
        return [
            (self.edge_id("h", x, y), +1),
            (self.edge_id("v", x + 1, y), +1),
            (self.edge_id("h", x, y + 1), -1),
            (self.edge_id("v", x, y), -1),
        ]

    @cached_property
    def face_walks(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """``plaq_edges`` of every face, in face order (computed once)."""
        return tuple(tuple(self.plaq_edges(f)) for f in self.faces())

    def plaq_edges_from(self, s: "Site") -> list[tuple[int, int]]:
        """Same walk, rotated to start at the site's vertex."""
        corners = self.face_corners_ccw(s.face)
        if s.vertex not in corners:
            raise LatticeError("site vertex is not a corner of its face")
        k = corners.index(s.vertex)
        walk = self.plaq_edges(s.face)
        return walk[k:] + walk[:k]

    # -- sites ------------------------------------------------------------------

    def faces_at_vertex_cw(self, v: int) -> list[Optional[int]]:
        """Faces around v clockwise from the north-east one; None if absent."""
        x, y = self.vertex_xy(v)
        out: list[Optional[int]] = []
        for fx, fy in ((x, y), (x, y - 1), (x - 1, y - 1), (x - 1, y)):
            try:
                out.append(self.face_id(fx, fy))
            except LatticeError:
                out.append(None)
        return out

    def site(self, vx: int, vy: int, fx: int, fy: int) -> Site:
        s = Site(self.vertex_id(vx, vy), self.face_id(fx, fy))
        if s.vertex not in self.face_corners_ccw(s.face):
            raise LatticeError("vertex and face are not adjacent")
        return s

    def sites(self) -> Iterator[Site]:
        for v in range(self.n_vertices):
            for f in self.faces_at_vertex_cw(v):
                if f is not None:
                    yield Site(v, f)

    @cached_property
    def move_table(self) -> dict[Site, tuple[tuple["Triangle", ...], tuple["Triangle", ...]]]:
        """(positive, reversed) triangles leaving every site, in the order
        ``positive_moves`` and ``reversed_moves`` give them (computed once)."""
        return {s: (_build_moves(self, s, +1), _build_moves(self, s, -1)) for s in self.sites()}

    # -- dual-edge orientation ----------------------------------------------------

    def dual_faces(self, e: int) -> tuple[int, int]:
        """(tail, head) faces of the dual edge crossing e: right face to left
        face of e. Raises on plane-patch rim edges with a single face."""
        kind, x, y = self.edge_kind_xy(e)
        try:
            if kind == "h":
                return self.face_id(x, y - 1), self.face_id(x, y)
            return self.face_id(x, y), self.face_id(x - 1, y)
        except LatticeError:
            raise LatticeError(f"edge {e} lies on the patch rim") from None

    @cached_property
    def dual_face_table(self) -> tuple[Optional[tuple[int, int]], ...]:
        """``dual_faces`` of every edge, None on the rim (computed once)."""
        out: list[Optional[tuple[int, int]]] = []
        for e in self.edges():
            try:
                out.append(self.dual_faces(e))
            except LatticeError:
                out.append(None)
        return tuple(out)

    def is_rim(self, e: int) -> bool:
        """Whether e lies on a plane patch's rim: one face, no dual triangle."""
        return self.dual_face_table[e] is None


@dataclass(frozen=True)
class Triangle:
    """One ribbon step. kind "direct": sites share the face and the travel
    runs between their vertices along `edge`; kind "dual": sites share the
    vertex and the travel runs between their faces across `edge`."""

    kind: str
    s0: Site
    s1: Site
    edge: int

    def reversed(self) -> "Triangle":
        return Triangle(self.kind, self.s1, self.s0, self.edge)


def _face_edge_between(lat: Lattice, f: int, v0: int, v1: int) -> Optional[int]:
    """The boundary edge of f joining two of its corners. On small tori a
    vertex pair can be joined by several edges; only the one on the face's
    own boundary makes a direct triangle."""
    for e, _ in lat.plaq_edges(f):
        if set(lat.edge_endpoints(e)) == {v0, v1}:
            return e
    return None


def make_triangle(lat: Lattice, s0: Site, s1: Site) -> Triangle:
    """The unique triangle from s0 to s1, when the sites are one step apart:
    one of s0's positive or reversed moves."""
    positive, reverse = _table_moves(lat, s0)
    for tri in positive + reverse:
        if tri.s1 == s1:
            return tri
    raise LatticeError(f"no triangle from {s0} to {s1}: the sites are not one step apart")


def _edge_between_faces(lat: Lattice, v: int, f0: int, f1: int) -> int:
    common = {e for e, _ in lat.plaq_edges(f0)} & {e for e, _ in lat.plaq_edges(f1)}
    shared = [e for e in common if v in lat.edge_endpoints(e)]
    if len(shared) != 1:
        raise LatticeError("dual triangle needs faces adjacent across one edge at the vertex")
    return shared[0]


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


@dataclass(frozen=True)
class Ribbon:
    """Chain of triangles with matching consecutive sites and pairwise
    distinct edges. The empty ribbon carries its (single) site explicitly."""

    triangles: tuple[Triangle, ...]
    start_site: Site

    def __post_init__(self):
        prev = self.start_site
        seen: set[int] = set()
        for t in self.triangles:
            if t.s0 != prev:
                raise LatticeError("consecutive triangle sites do not match")
            if t.edge in seen:
                raise LatticeError("ribbon triangles overlap on an edge")
            seen.add(t.edge)
            prev = t.s1

    @staticmethod
    def trivial(site: Site) -> "Ribbon":
        return Ribbon((), site)

    @staticmethod
    def from_triangles(triangles: Iterable[Triangle]) -> "Ribbon":
        ts = tuple(triangles)
        if not ts:
            raise LatticeError("use Ribbon.trivial for the empty ribbon")
        return Ribbon(ts, ts[0].s0)

    @property
    def start(self) -> Site:
        return self.start_site

    @property
    def end(self) -> Site:
        return self.triangles[-1].s1 if self.triangles else self.start_site

    @property
    def is_trivial(self) -> bool:
        return not self.triangles

    @property
    def is_closed(self) -> bool:
        return bool(self.triangles) and self.end == self.start

    def edges(self) -> set[int]:
        return {t.edge for t in self.triangles}

    def __len__(self) -> int:
        return len(self.triangles)


def ribbon_concat(r1: Ribbon, r2: Ribbon) -> Ribbon:
    if r1.end != r2.start:
        raise LatticeError("ribbon endpoints do not match")
    if r1.edges() & r2.edges():
        raise LatticeError("ribbons overlap")
    return Ribbon(r1.triangles + r2.triangles, r1.start)


def ribbon_invert(r: Ribbon) -> Ribbon:
    """Reverse the chain, formally inverting every triangle. An involution;
    swaps the endpoint sites."""
    return Ribbon(tuple(t.reversed() for t in reversed(r.triangles)), r.end)


# -- site moves and pathfinding -------------------------------------------------


def _build_moves(lat: Lattice, s: Site, step: int) -> tuple[Triangle, ...]:
    """Builder of ``Lattice.move_table``: the direct, then the dual triangle
    from s to the next corner and face (step +1, positively oriented) or to
    the previous ones (step -1, formal inverses of positive triangles)."""
    corners = lat.face_corners_ccw(s.face)
    other = corners[(corners.index(s.vertex) + step) % 4]
    e = _face_edge_between(lat, s.face, s.vertex, other)
    out = [Triangle("direct", s, Site(other, s.face), e)]
    ring = lat.faces_at_vertex_cw(s.vertex)
    f_other = ring[(ring.index(s.face) + step) % 4]
    if f_other is not None:  # no face beyond a plane patch's rim
        e = _edge_between_faces(lat, s.vertex, s.face, f_other)
        out.append(Triangle("dual", s, Site(s.vertex, f_other), e))
    return tuple(out)


def _table_moves(lat: Lattice, s: Site) -> tuple[tuple[Triangle, ...], tuple[Triangle, ...]]:
    try:
        return lat.move_table[s]
    except KeyError:
        raise LatticeError(f"{s} is not a site of the {format_lattice(lat)} lattice") from None


def _restrict(moves: tuple[Triangle, ...], allowed: Optional[frozenset[int]]) -> list[Triangle]:
    if allowed is None:
        return list(moves)
    return [t for t in moves if t.edge in allowed]


def positive_moves(lat: Lattice, s: Site, allowed: Optional[frozenset[int]]) -> list[Triangle]:
    """The (at most two) positively oriented triangles leaving s, direct
    first; restricted to `allowed` edges when given. Deterministic order.
    Both moves cross the site's single outgoing edge, one on each side."""
    return _restrict(_table_moves(lat, s)[0], allowed)


def reversed_moves(lat: Lattice, s: Site, allowed: Optional[frozenset[int]]) -> list[Triangle]:
    """Formal inverses of the positively oriented triangles arriving at s;
    they leave s across its incoming edge."""
    return _restrict(_table_moves(lat, s)[1], allowed)


def site_moves(
    lat: Lattice, s: Site, allowed: Optional[frozenset[int]], include_reversed: bool
) -> list[Triangle]:
    out = positive_moves(lat, s, allowed)
    if include_reversed:
        out.extend(reversed_moves(lat, s, allowed))
    return out


def ribbon_between(
    s0: Site,
    s1: Site,
    lat: Lattice,
    region: Optional["Region"] = None,
    avoid_edges: Iterable[int] = (),
    allow_reversed: bool = False,
) -> Ribbon:
    """Shortest ribbon from s0 to s1 staying on the region's edges; ties
    broken by the fixed move order. Positively oriented triangles only,
    unless `allow_reversed` admits formal inverses as well. Raises when no
    edge-disjoint path exists, or when either endpoint is not a site of
    the lattice."""
    for s in (s0, s1):
        _table_moves(lat, s)  # raises for a site that is not on the lattice
    allowed: Optional[frozenset[int]]
    if region is not None:
        allowed = frozenset(region.edges) - frozenset(avoid_edges)
    elif avoid_edges:
        allowed = frozenset(lat.edges()) - frozenset(avoid_edges)
    else:
        allowed = None
    if s0 == s1:
        return Ribbon.trivial(s0)
    # BFS over sites almost always yields edge-disjoint chains at these
    # sizes; fall back to a bounded DFS if overlap sneaks in.
    path = _site_bfs(lat, s0, s1, allowed, allow_reversed)
    if path is not None:
        try:
            return Ribbon.from_triangles(path)
        except LatticeError:
            pass
    path = _edge_disjoint_dfs(lat, s0, s1, allowed, allow_reversed, max_len=2 * lat.n_edges)
    if path is None:
        raise LatticeError(f"no ribbon from {s0} to {s1} within the region")
    return Ribbon.from_triangles(path)


def _site_bfs(lat, s0, s1, allowed, allow_reversed=False) -> Optional[list[Triangle]]:
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


def _edge_disjoint_dfs(
    lat, s0, s1, allowed, allow_reversed, max_len, node_cap: int = 500_000
) -> Optional[list[Triangle]]:
    # iterative deepening keeps the result shortest and deterministic;
    # the node cap bounds the blow-up when no path exists
    visited = 0
    for depth in range(1, max_len + 1):
        stack: list[tuple[Site, list[Triangle], frozenset[int]]] = [(s0, [], frozenset())]
        while stack:
            s, path, used = stack.pop()
            if len(path) >= depth:
                continue
            for tri in reversed(site_moves(lat, s, allowed, allow_reversed)):
                if tri.edge in used:
                    continue
                visited += 1
                if visited > node_cap:
                    return None
                new_path = path + [tri]
                if tri.s1 == s1:
                    return new_path
                stack.append((tri.s1, new_path, used | {tri.edge}))
    return None


# -- regions and cones ------------------------------------------------------------


@dataclass(frozen=True)
class Region:
    """A set of edges Lambda with the derived exterior decomposition:
    int(complement) drops every edge touching a vertex of Lambda, and the
    boundary is the leftover gap."""

    lattice: Lattice
    edges: frozenset[int]

    @property
    def vertices(self) -> frozenset[int]:
        out = set()
        for e in self.edges:
            out.update(self.lattice.edge_endpoints(e))
        return frozenset(out)

    def complement_edges(self) -> frozenset[int]:
        return frozenset(self.lattice.edges()) - self.edges

    def interior_complement_edges(self) -> frozenset[int]:
        touched = self.vertices
        return frozenset(
            e
            for e in self.complement_edges()
            if not (set(self.lattice.edge_endpoints(e)) & touched)
        )

    def boundary_edges(self) -> frozenset[int]:
        return frozenset(self.lattice.edges()) - self.edges - self.interior_complement_edges()

    # -- site membership ------------------------------------------------------

    def site_in(self, s: Site) -> bool:
        """Every edge at the site's vertex lies in the region."""
        star = self.lattice.star_edges_partial(s.vertex)
        return bool(star) and all(e in self.edges for e in star)

    def _site_halo(self, s: Site) -> set[int]:
        halo = set(self.lattice.star_edges_partial(s.vertex))
        halo.update(e for e, _ in self.lattice.plaq_edges(s.face))
        return halo

    def site_on_boundary(self, s: Site) -> bool:
        """Not inside, but its star or plaquette meets both the region and
        its complement."""
        if self.site_in(s):
            return False
        halo = self._site_halo(s)
        return any(e in self.edges for e in halo) and any(e not in self.edges for e in halo)

    def contains_ribbon(self, r: Ribbon) -> bool:
        return r.edges() <= self.edges

    def complement(self) -> "Region":
        return Region(self.lattice, self.complement_edges())


_CONE_DIRS = {"N": (0, 1), "E": (1, 0), "S": (0, -1), "W": (-1, 0)}


def cone_make(
    apex: tuple[int, int], dirs: Iterable[str], lat: Lattice, trim_rim: bool = True
) -> Region:
    """Truncated quadrant cone on a plane patch: the edges whose endpoints
    satisfy both half-plane constraints of the chosen pair of axis
    directions. With `trim_rim` (default) edges on the patch rim are
    dropped: they carry no dual triangle, so keeping them would give the
    region an artificially one-sided operator algebra that a cone drawn on
    the infinite lattice never has."""
    if lat.is_torus:
        raise LatticeError("cones are defined on plane patches")
    dd = [d.upper() for d in dirs]
    if (
        len(dd) != 2
        or len(set(dd)) != 2
        or any(d not in _CONE_DIRS for d in dd)
        or set(dd) in ({"N", "S"}, {"E", "W"})
    ):
        raise LatticeError(f"cone opening must be two perpendicular directions, got {dirs}")
    ax, ay = apex
    if not (0 < ax < lat.width - 1 and 0 < ay < lat.height - 1):
        raise LatticeError("cone apex must be interior to the patch")

    def inside(x: int, y: int) -> bool:
        ok = True
        for d in dd:
            dx, dy = _CONE_DIRS[d]
            ok = ok and (x - ax) * dx + (y - ay) * dy >= 0
        return ok

    edges = []
    for e in lat.edges():
        pts = [lat.vertex_xy(v) for v in lat.edge_endpoints(e)]
        if not all(inside(x, y) for x, y in pts):
            continue
        if not (trim_rim and lat.is_rim(e)):
            edges.append(e)
    return Region(lat, frozenset(edges))


def cone_from_spec(spec: dict, lat: Lattice) -> Region:
    """Cone from its JSON form, e.g. {"apex": [1, 1], "dirs": ["N", "E"]}."""
    try:
        apex = tuple(int(v) for v in spec["apex"])
        dirs = list(spec["dirs"])
    except (KeyError, TypeError, ValueError) as exc:
        raise LatticeError(f"malformed cone spec {spec!r}: {exc}") from None
    return cone_make(apex, dirs, lat)


def boundary(region: Region) -> frozenset[int]:
    return region.boundary_edges()


def site_in(region: Region, s: Site) -> bool:
    return region.site_in(s)


def site_on_boundary(region: Region, s: Site) -> bool:
    return region.site_on_boundary(s)


# -- closed loops ------------------------------------------------------------------


# Straight ribbons advance by alternating a direct and a dual triangle. The
# starting-site format per heading keeps the shared face on the travel's left:
#   E from (v(x,y),   f(x,y)):     direct to v(x+1,y), dual to f(x+1,y)
#   N from (v(x,y),   f(x-1,y)):   direct to v(x,y+1), dual to f(x-1,y+1)
#   W from (v(x,y),   f(x-1,y-1)): direct to v(x-1,y), dual to f(x-2,y-1)
#   S from (v(x,y),   f(x,y-1)):   direct to v(x,y-1), dual to f(x,y-2)

_HEADINGS = {
    "E": ((1, 0), (0, 0), (1, 0)),
    "N": ((0, 1), (-1, 0), (-1, 1)),
    "W": ((-1, 0), (-1, -1), (-2, -1)),
    "S": ((0, -1), (0, -1), (0, -2)),
}


def straight_start(lat: Lattice, x: int, y: int, heading: str) -> Site:
    (_, (fx, fy), _) = _HEADINGS[heading.upper()]
    return lat.site(x, y, x + fx, y + fy)


def straight_ribbon(
    lat: Lattice, x: int, y: int, heading: str, steps: int, drop_last_dual: bool = False
) -> Ribbon:
    """Straight ribbon of `steps` (direct, dual) pairs from vertex (x, y).
    With drop_last_dual the final dual triangle is omitted, which is the
    form that chains into a turn of a rectangular loop."""
    ((dx, dy), _, (gx, gy)) = _HEADINGS[heading.upper()]
    if steps < 1:
        raise LatticeError("straight ribbon needs at least one step")
    tris = []
    s = straight_start(lat, x, y, heading)
    cx, cy = x, y
    for k in range(steps):
        v_next = Site(lat.vertex_id(cx + dx, cy + dy), s.face)
        tris.append(make_triangle(lat, s, v_next))
        if k == steps - 1 and drop_last_dual:
            s = v_next
            break
        f_next = Site(v_next.vertex, lat.face_id(cx + gx, cy + gy))
        tris.append(make_triangle(lat, v_next, f_next))
        s = f_next
        cx, cy = cx + dx, cy + dy
    return Ribbon.from_triangles(tris)


def closed_loop_around(target: Site, radius: int, lat: Lattice) -> Ribbon:
    """Closed clockwise rectangular ribbon around the block of faces centred
    on the target vertex. Clockwise is the winding for which the loop charge
    projector detects the charge of a ribbon endpoint inside the block."""
    if radius < 1:
        raise LatticeError("loop radius must be >= 1")
    tx, ty = lat.vertex_xy(target.vertex)
    x0, y0 = tx - radius, ty - radius
    x1, y1 = tx + radius, ty + radius
    if lat.is_torus:
        if 2 * radius >= min(lat.width, lat.height):
            raise LatticeError("loop does not fit on the torus")
    elif not (0 <= x0 and x1 <= lat.width - 1 and 0 <= y0 and y1 <= lat.height - 1):
        raise LatticeError("loop does not fit on the patch")
    n = 2 * radius
    legs = [
        straight_ribbon(lat, x0, y0, "E", n, drop_last_dual=True),
        straight_ribbon(lat, x1, y0, "N", n, drop_last_dual=True),
        straight_ribbon(lat, x1, y1, "W", n, drop_last_dual=True),
        straight_ribbon(lat, x0, y1, "S", n, drop_last_dual=True),
    ]
    loop = legs[0]
    for leg in legs[1:]:
        loop = ribbon_concat(loop, leg)
    if not loop.is_closed:
        raise LatticeError("loop construction failed to close")
    return ribbon_invert(loop)


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


def lattice_make(width: int, height: int, boundary: str) -> Lattice:
    return Lattice(width, height, boundary)


def parse_lattice(spec: str) -> Lattice:
    """Parse specs like "4x4:torus" or "3x3:plane"."""
    s = spec.strip().lower()
    try:
        dims, _, bnd = s.partition(":")
        w, _, h = dims.partition("x")
        return Lattice(int(w), int(h), bnd or "plane")
    except (ValueError, LatticeError) as exc:
        raise LatticeError(f"malformed lattice spec {spec!r}: {exc}") from None


def format_lattice(lat: Lattice) -> str:
    return f"{lat.width}x{lat.height}:{lat.boundary}"
