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
is frozen, so the first lookup of a site checks that it is on the lattice
and stores its (positive, reversed) triangle tuples in ``Lattice.move_table``;
later lookups are one dict read. A row is read off positions, with no edge
search: a site's corner index i in its face gives the direct step (plaquette
edge i, or i - 1 stepping back), its index j around its vertex the dual step
(star edge j or j - 1, in E, S, W, N order). Each triangle carries its
operator sign from there, and ``Ribbon.parts`` reads a ribbon's signed edges
off its triangles once per ribbon. ``positive_moves`` reads the table,
filtering by the allowed edges only when a set is given. The shortest-ribbon
search (``ribbon_between``, which also builds deform's detours) walks the
rows breadth first, with a region's edges allowed and ``avoid_edges``
blocked, resuming the walk kept in ``Lattice.search_trees``, which
``joined_sites`` reads too, and keeps each ribbon or refusal read off a
walk in ``Lattice.ribbons`` (not the edge-disjoint fallback's outcomes).
``make_triangle`` picks the one move of its first site that reaches its
second. A site that is not on the lattice raises ``LatticeError``. A site's
elementary closed ribbons are stored alike, in ``Lattice.closed_walks``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple, Optional

import numpy as np

__all__ = [
    "LatticeError",
    "Lattice",
    "Site",
    "Triangle",
    "Ribbon",
    "Region",
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
    """Square-lattice patch, plane (open) or torus (periodic). Frozen, so
    its sizes and tables are worked out once, on first use."""

    width: int
    height: int
    boundary: str  # "plane" | "torus"

    def __post_init__(self):
        if self.width < 2 or self.height < 2:
            raise LatticeError("lattice dimensions must be >= 2")
        if self.boundary not in ("plane", "torus"):
            raise LatticeError(f"unknown boundary {self.boundary!r}")

    # -- vertices ------------------------------------------------------------

    @cached_property
    def is_torus(self) -> bool:
        return self.boundary == "torus"

    @cached_property
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

    @cached_property
    def _h_cols(self) -> int:
        return self.width if self.is_torus else self.width - 1

    @cached_property
    def _v_rows(self) -> int:
        return self.height if self.is_torus else self.height - 1

    @cached_property
    def n_h_edges(self) -> int:
        return self._h_cols * self.height

    @cached_property
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

    @cached_property
    def _f_cols(self) -> int:
        return self.width if self.is_torus else self.width - 1

    @cached_property
    def _f_rows(self) -> int:
        return self.height if self.is_torus else self.height - 1

    @cached_property
    def n_faces(self) -> int:
        return self._f_cols * self._f_rows

    def face_id(self, x: int, y: int) -> int:
        f = self._face_at(x, y)
        if f is None:
            raise LatticeError(f"no face at ({x},{y})")
        return f

    def _face_at(self, x: int, y: int) -> Optional[int]:
        """The face with lower-left corner (x, y), or None off a plane patch."""
        if self.is_torus:
            x, y = x % self.width, y % self.height
        elif not (0 <= x < self._f_cols and 0 <= y < self._f_rows):
            return None
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
    def face_walks(self) -> tuple[np.ndarray, np.ndarray]:
        """``plaq_edges`` of every face, in face order, as two (faces, 4)
        arrays: the edges, and whether each is walked along its orientation
        (computed once, read-only)."""
        walks = np.array([self.plaq_edges(f) for f in self.faces()], dtype=np.int64)
        walks = walks.reshape(-1, 4, 2)
        edges, forward = walks[:, :, 0], walks[:, :, 1] > 0
        edges.flags.writeable = forward.flags.writeable = False
        return edges, forward

    @cached_property
    def edge_checks(self) -> tuple[np.ndarray, np.ndarray]:
        """``face_walks`` read per edge, as two (edges, k) arrays: the check
        rows an edge's value enters, and its sign there (+1 along the walk,
        -1 against it, 0 for padding). Row f < n_faces is face f; on the
        torus rows n_faces and n_faces + 1 are the holonomy cycles, the y=0
        h edges and the x=0 v edges (computed once, read-only)."""
        checks: list[list] = [[] for _ in self.edges()]
        for f, (walk, forward) in enumerate(zip(*(a.tolist() for a in self.face_walks))):
            for e, along in zip(walk, forward):
                checks[e].append((f, 1 if along else -1))
        if self.is_torus:
            for x in range(self.width):
                checks[self.edge_id("h", x, 0)].append((self.n_faces, 1))
            for y in range(self.height):
                checks[self.edge_id("v", 0, y)].append((self.n_faces + 1, 1))
        k = max(map(len, checks))
        table = np.array([c + [(0, 0)] * (k - len(c)) for c in checks], dtype=np.int64)
        table.flags.writeable = False
        return table[:, :, 0], table[:, :, 1]

    # -- sites ------------------------------------------------------------------

    def faces_at_vertex_cw(self, v: int) -> list[Optional[int]]:
        """Faces around v clockwise from the north-east one; None if absent."""
        x, y = self.vertex_xy(v)
        return [self._face_at(fx, fy) for fx, fy in ((x, y), (x, y - 1), (x - 1, y - 1), (x - 1, y))]

    def site_at(self, v: int) -> Site:
        """v with the first face clockwise from the north-east one."""
        for f in self.faces_at_vertex_cw(v):
            if f is not None:
                return Site(v, f)
        raise LatticeError(f"vertex {v} touches no face")

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
        """(positive, reversed) triangles leaving each site looked up so far,
        direct before dual in each, the order every ribbon search tries them."""
        return {}

    @cached_property
    def closed_walks(self) -> dict[tuple[Site, str], "Ribbon"]:
        """Elementary closed ribbons built so far, by (site, triangle kind)."""
        return {}

    @cached_property
    def search_trees(self) -> dict[tuple, tuple[dict, list]]:
        """``_search_tree`` walks by (s0, region edges or None, blocked, allow_reversed): tree, frontier."""
        return {}

    @cached_property
    def ribbons(self) -> dict[tuple, Optional["Ribbon"]]:
        """``ribbon_between`` outcomes found so far, by (s0, s1, the region's
        edges or None, blocked edges, allow_reversed): the ribbon read off the
        search tree, or None where no site path joins the sites. Outcomes of
        the edge-disjoint fallback search are not kept (it reads the node
        cap)."""
        return {}

    # -- dual-edge orientation ----------------------------------------------------

    @cached_property
    def dual_face_table(self) -> tuple[Optional[tuple[int, int]], ...]:
        """(tail, head) faces of the dual edge crossing each edge: the face
        walked against the edge (on its right), then the one walked along it
        (``edge_checks``); None on a plane patch's rim (computed once)."""
        out: list[Optional[tuple[int, int]]] = []
        for rows, signs in zip(*(a.tolist() for a in self.edge_checks)):
            faces = {sign: f for f, sign in zip(rows, signs) if sign and f < self.n_faces}
            out.append((faces[-1], faces[1]) if len(faces) == 2 else None)
        return tuple(out)

    def dual_faces(self, e: int) -> tuple[int, int]:
        """``dual_face_table`` of e; raises on plane-patch rim edges."""
        if self.dual_face_table[e] is None:
            raise LatticeError(f"edge {e} lies on the patch rim")
        return self.dual_face_table[e]

    def is_rim(self, e: int) -> bool:
        """Whether e lies on a plane patch's rim: one face, no dual triangle."""
        return self.dual_face_table[e] is None


@dataclass(frozen=True)
class Triangle:
    """One ribbon step. kind "direct": sites share the face and the travel
    runs between their vertices along `edge`; kind "dual": sites share the
    vertex and the travel runs between their faces across `edge`. `sign` is
    the operator sign set by the move table that builds it: a direct step's
    flux sign, +1 when it travels against the edge orientation, or a dual
    step's shift sign, +1 when it travels along the dual-edge orientation.
    Reversal negates it."""

    kind: str
    s0: Site
    s1: Site
    edge: int
    sign: int

    def reversed(self) -> "Triangle":
        return Triangle(self.kind, self.s1, self.s0, self.edge, -self.sign)


def make_triangle(lat: Lattice, s0: Site, s1: Site) -> Triangle:
    """The unique triangle from s0 to s1, when the sites are one step apart:
    one of s0's positive or reversed moves."""
    positive, reverse = _table_moves(lat, s0)
    for tri in positive + reverse:
        if tri.s1 == s1:
            return tri
    raise LatticeError(f"no triangle from {s0} to {s1}: the sites are not one step apart")


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

    @cached_property
    def parts(self) -> tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]:
        """(flux, duals): the (edge, sign) pairs of the direct triangles and
        of the dual ones, in ribbon order, which is all a ribbon operator
        reads of the ribbon (computed once)."""
        flux = tuple((t.edge, t.sign) for t in self.triangles if t.kind == "direct")
        duals = tuple((t.edge, t.sign) for t in self.triangles if t.kind == "dual")
        return flux, duals

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


# star edges (kind, dx, dy) in E, S, W, N order: j lies between faces j, j + 1 of faces_at_vertex_cw
_STAR_ESWN = (("h", 0, 0), ("v", 0, -1), ("h", -1, 0), ("v", 0, 0))


def _build_moves(lat: Lattice, s: Site, step: int) -> tuple[Triangle, ...]:
    """Builder of ``Lattice.move_table``: the direct, then the dual triangle
    from s to the next corner and face (step +1, positively oriented) or to
    the previous ones (step -1, formal inverses of positive triangles), each
    with its sign. A step +1 walks the face counterclockwise, so the direct
    flux sign is -(walk sign) * step."""
    corners = lat.face_corners_ccw(s.face)
    i = corners.index(s.vertex)
    e, walk_sign = lat.plaq_edges(s.face)[i if step > 0 else i - 1]
    out = [Triangle("direct", s, Site(corners[(i + step) % 4], s.face), e, -walk_sign * step)]
    ring = lat.faces_at_vertex_cw(s.vertex)
    j = ring.index(s.face)
    f_other = ring[(j + step) % 4]
    if f_other is not None:  # no face beyond a plane patch's rim
        kind, dx, dy = _STAR_ESWN[j if step > 0 else j - 1]
        x, y = lat.vertex_xy(s.vertex)
        e = lat.edge_id(kind, x + dx, y + dy)
        sign = +1 if lat.dual_face_table[e] == (s.face, f_other) else -1
        out.append(Triangle("dual", s, Site(s.vertex, f_other), e, sign))
    return tuple(out)


def _table_moves(lat: Lattice, s: Site) -> tuple[tuple[Triangle, ...], tuple[Triangle, ...]]:
    """s's row of ``Lattice.move_table``, built on its first lookup."""
    try:
        return lat.move_table[s]
    except KeyError:
        if not (0 <= s.face < lat.n_faces and s.vertex in lat.face_corners_ccw(s.face)):
            raise LatticeError(f"{s} is not a site of the {format_lattice(lat)} lattice") from None
    row = lat.move_table[s] = (_build_moves(lat, s, +1), _build_moves(lat, s, -1))
    return row


def positive_moves(lat: Lattice, s: Site, allowed: Optional[frozenset[int]]) -> list[Triangle]:
    """The (at most two) positively oriented triangles leaving s, direct
    first; restricted to `allowed` edges when given. Deterministic order.
    Both moves cross the site's single outgoing edge, one on each side."""
    moves = _table_moves(lat, s)[0]
    return list(moves) if allowed is None else [t for t in moves if t.edge in allowed]


def ribbon_between(
    s0: Site,
    s1: Site,
    lat: Lattice,
    region: Optional["Region"] = None,
    avoid_edges: Iterable[int] = (),
    allow_reversed: bool = False,
) -> Ribbon:
    """Shortest ribbon from s0 to s1 staying on the region's edges and off
    `avoid_edges`; ties broken by the fixed move order. Positively oriented
    triangles only, unless `allow_reversed` admits formal inverses as well.
    Raises when no edge-disjoint path exists, when the search for one stops
    at DFS_NODE_CAP moves, or when either endpoint is not a site of the
    lattice."""
    allowed = None if region is None else region.edges
    blocked = frozenset(avoid_edges)
    key = (s0, s1, allowed, blocked, allow_reversed)
    if key in lat.ribbons:
        ribbon = lat.ribbons[key]
    else:
        for s in (s0, s1):
            _table_moves(lat, s)  # raises for a site that is not on the lattice
        if s0 == s1:
            return Ribbon.trivial(s0)
        tree = _search_tree(lat, s0, allowed, blocked, allow_reversed, s1)
        path, from_tree = _joining_path(lat, tree, s0, s1, allowed, blocked, allow_reversed)
        ribbon = None if path is None else Ribbon.from_triangles(path)
        if from_tree:
            lat.ribbons[key] = ribbon
    if ribbon is None:
        raise LatticeError(f"no ribbon from {s0} to {s1} within the region")
    return ribbon


def _search_tree(lat, s0, allowed, blocked, allow_reversed, target) -> dict:
    """Breadth-first tree of the sites reachable from s0, each with the
    triangle that first reached it (None at s0): table rows in order,
    positive moves before reversed ones, on edges in `allowed` (any edge
    when None) and not in `blocked`: the kept walk, resumed a level at a time
    until it holds `target` or its frontier runs out, which changes no first triangle."""
    tree, frontier = lat.search_trees.setdefault((s0, allowed, blocked, allow_reversed), ({s0: None}, [s0]))
    while frontier and target not in tree:
        frontier[:] = _next_level(lat, tree, frontier, allowed, blocked, allow_reversed)
    return tree


def _next_level(lat, tree, frontier, allowed, blocked, allow_reversed) -> list[Site]:
    """Adds the sites one move beyond `frontier` to `tree` and returns them."""
    nxt = []
    for s in frontier:
        pos, rev = _table_moves(lat, s)
        for tri in pos + rev if allow_reversed else pos:
            t, e = tri.s1, tri.edge
            if not (t in tree or e in blocked or (allowed is not None and e not in allowed)):
                tree[t] = tri
                nxt.append(t)
    return nxt


def _joining_path(lat, tree, s0, s1, allowed, blocked, allow_reversed) -> tuple[Optional[list[Triangle]], bool]:
    """The shortest edge-disjoint chain from s0 to s1, or None, and whether
    the tree alone decided it: the site path in s0's ``_search_tree``,
    which almost always crosses no edge twice at these sizes, else the
    fallback search's. Without any site path there is no edge-disjoint one
    either."""
    if s1 not in tree:
        return None, True
    path, s = [], s1
    while s != s0:
        path.append(tree[s])
        s = tree[s].s0
    if len({t.edge for t in path}) == len(path):
        return path[::-1], True
    return _edge_disjoint_dfs(lat, s0, s1, allowed, blocked, allow_reversed), False


def joined_sites(lat: Lattice, s0: Site, ends: Iterable[Site], region: "Region") -> set[Site]:
    """The sites of `ends` that ``ribbon_between`` with reversed moves joins
    to s0 on the region's edges, read off the one search tree of s0 that
    ``ribbon_between`` keeps too. Raises, as ``ribbon_between`` does, when
    the fallback search stops at its node cap."""
    args = (region.edges, frozenset(), True)
    return {s1 for s1 in ends if _joining_path(lat, _search_tree(lat, s0, *args, s1), s0, s1, *args)[0] is not None}


# moves the edge-disjoint fallback search may try before it gives up
DFS_NODE_CAP = 500_000


def _edge_disjoint_dfs(lat, s0, s1, allowed, blocked, allow_reversed) -> Optional[list[Triangle]]:
    # iterative deepening keeps the result shortest and deterministic; it
    # ends at a depth that cuts no chain, which saw every edge-disjoint
    # chain from s0, or at the node cap. Blocked edges start out as used.
    visited, depth, cut = 0, 0, True
    while cut:
        depth += 1
        stack: list[tuple[Site, list[Triangle], frozenset[int]]] = [(s0, [], blocked)]
        cut = False
        while stack:
            s, path, used = stack.pop()
            if len(path) >= depth:
                cut = True
                continue
            pos, rev = _table_moves(lat, s)
            for tri in reversed(pos + rev if allow_reversed else pos):
                if tri.edge in used or (allowed is not None and tri.edge not in allowed):
                    continue
                visited += 1
                if visited > DFS_NODE_CAP:
                    raise LatticeError(
                        f"ribbon search from {s0} to {s1} stopped at the"
                        f" {DFS_NODE_CAP}-node cap"
                    )
                new_path = path + [tri]
                if tri.s1 == s1:
                    return new_path
                stack.append((tri.s1, new_path, used | {tri.edge}))
    return None


def components(n: int, pairs) -> list[int]:
    """The component of each of n nodes in the graph whose edges are
    `pairs`, named by one of its nodes: a union-find with path halving, so
    a whole patch costs about one pass over its edges."""
    parent = list(range(n))

    def root(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for a, b in pairs:
        parent[root(b)] = root(a)
    return [root(v) for v in range(n)]


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


_CONE_DIRS = {"N": (0, 1), "E": (1, 0), "S": (0, -1), "W": (-1, 0)}


def cone_make(apex: tuple[int, int], dirs: Iterable[str], lat: Lattice) -> Region:
    """Truncated quadrant cone on a plane patch: the edges whose endpoints
    satisfy both half-plane constraints of the chosen pair of axis
    directions, less the edges on the patch rim. A rim edge carries no dual
    triangle, so keeping it would give the region an artificially one-sided
    operator algebra that a cone drawn on the infinite lattice never has;
    without them every cone edge is bulk, as ``duality.cone_subspace``
    requires."""
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
        if all(inside(x, y) for x, y in pts) and not lat.is_rim(e):
            edges.append(e)
    return Region(lat, frozenset(edges))


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
