import random
from dataclasses import replace

import pytest

from qdlattice import lattice
from qdlattice.lattice import (
    Lattice,
    LatticeError,
    Region,
    Ribbon,
    Site,
    Triangle,
    closed_loop_around,
    cone_make,
    make_triangle,
    parse_lattice,
    format_lattice,
    positive_moves,
    ribbon_between,
    ribbon_concat,
    ribbon_invert,
    straight_ribbon,
)

from qdlattice.operators import alpha_ribbon, beta_ribbon

from oracles import (
    boundary_edges,
    build_moves,
    closed_direct_ribbon,
    closed_dual_ribbon,
    direct_flux_sign,
    dual_shift_sign,
    loop_encloses,
    reversed_moves,
    ribbon_between_by_sites,
    site_bfs,
    site_moves,
    triangle_is_positive,
)


def test_edge_face_counts():
    assert Lattice(2, 2, "torus").n_edges == 8
    assert Lattice(2, 2, "torus").n_faces == 4
    assert Lattice(3, 3, "plane").n_edges == 12
    assert Lattice(3, 3, "plane").n_faces == 4
    assert Lattice(2, 2, "plane").n_edges == 4
    assert Lattice(2, 2, "plane").n_faces == 1


def test_dimension_guard():
    with pytest.raises(LatticeError):
        Lattice(1, 3, "plane")


def test_star_edges():
    torus = Lattice(2, 2, "torus")
    for v in range(torus.n_vertices):
        assert len(torus.star_edges(v)) == 4
    plane = Lattice(3, 3, "plane")
    assert len(plane.star_edges(plane.vertex_id(1, 1))) == 4
    with pytest.raises(LatticeError):
        plane.star_edges(plane.vertex_id(0, 0))


def test_plaq_edges_orientation():
    lat = Lattice(3, 3, "plane")
    f = lat.face_id(0, 0)
    walk = lat.plaq_edges(f)
    assert len(walk) == 4
    assert [sign for _, sign in walk] == [1, 1, -1, -1]


def test_triangle_construction_and_chirality():
    lat = Lattice(3, 3, "torus")
    f = lat.face_id(1, 1)
    corners = lat.face_corners_ccw(f)
    tri = make_triangle(lat, Site(corners[0], f), Site(corners[1], f))
    assert tri.kind == "direct"
    assert triangle_is_positive(lat, tri)
    assert not triangle_is_positive(lat, tri.reversed())
    v = corners[0]
    ring = [x for x in lat.faces_at_vertex_cw(v) if x is not None]
    dual = make_triangle(lat, Site(v, ring[0]), Site(v, ring[1]))
    assert dual.kind == "dual"
    with pytest.raises(LatticeError):
        make_triangle(lat, Site(corners[0], f), Site(corners[2], f))


def test_site_outgoing_edge_shared():
    # both positive moves from a site cross the same edge, one per side
    lat = Lattice(3, 3, "torus")
    for s in lat.sites():
        moves = positive_moves(lat, s, None)
        assert len(moves) == 2
        assert moves[0].edge == moves[1].edge
        assert {moves[0].kind, moves[1].kind} == {"direct", "dual"}


def test_ribbon_invariants():
    lat = Lattice(3, 3, "torus")
    s0 = Site(lat.vertex_id(0, 0), lat.face_id(0, 0))
    s1 = Site(lat.vertex_id(2, 1), lat.face_id(1, 1))
    rho = ribbon_between(s0, s1, lat)
    assert rho.start == s0 and rho.end == s1
    for a, b in zip(rho.triangles, rho.triangles[1:]):
        assert a.s1 == b.s0
    assert len(rho.edges()) == len(rho)


def test_ribbon_concat_rules():
    lat = Lattice(3, 3, "torus")
    s0 = Site(lat.vertex_id(0, 0), lat.face_id(0, 0))
    s1 = Site(lat.vertex_id(1, 1), lat.face_id(1, 1))
    s2 = Site(lat.vertex_id(2, 2), lat.face_id(2, 2))
    r1 = ribbon_between(s0, s1, lat)
    r2 = ribbon_between(s1, s2, lat, avoid_edges=r1.edges())
    both = ribbon_concat(r1, r2)
    assert both.start == s0 and both.end == s2
    trivial = Ribbon.trivial(s0)
    assert ribbon_concat(trivial, r1).triangles == r1.triangles
    assert ribbon_concat(r1, Ribbon.trivial(s1)).triangles == r1.triangles
    with pytest.raises(LatticeError):
        ribbon_concat(r2, r1)


def test_ribbon_concat_associative():
    lat = Lattice(4, 4, "torus")
    sites = [
        Site(lat.vertex_id(0, 0), lat.face_id(0, 0)),
        Site(lat.vertex_id(1, 1), lat.face_id(1, 1)),
        Site(lat.vertex_id(2, 2), lat.face_id(2, 2)),
        Site(lat.vertex_id(3, 3), lat.face_id(3, 3)),
    ]
    r1 = ribbon_between(sites[0], sites[1], lat)
    r2 = ribbon_between(sites[1], sites[2], lat, avoid_edges=r1.edges())
    r3 = ribbon_between(sites[2], sites[3], lat, avoid_edges=r1.edges() | r2.edges())
    a = ribbon_concat(ribbon_concat(r1, r2), r3)
    b = ribbon_concat(r1, ribbon_concat(r2, r3))
    assert a.triangles == b.triangles


def test_ribbon_invert_involution():
    lat = Lattice(3, 3, "torus")
    s0 = Site(lat.vertex_id(0, 0), lat.face_id(0, 0))
    s1 = Site(lat.vertex_id(1, 1), lat.face_id(1, 1))
    rho = ribbon_between(s0, s1, lat)
    bar = ribbon_invert(rho)
    assert bar.start == s1 and bar.end == s0
    assert ribbon_invert(bar).triangles == rho.triangles
    eps = Ribbon.trivial(s0)
    assert ribbon_invert(eps) == eps
    two = Ribbon(rho.triangles[:2], rho.start_site)
    bar2 = ribbon_invert(two)
    assert (bar2.start, bar2.end) == (two.end, two.start)


def test_ribbon_between_trivial_and_unreachable(monkeypatch):
    lat = Lattice(3, 3, "plane")
    s = Site(lat.vertex_id(1, 1), lat.face_id(1, 1))
    assert ribbon_between(s, s, lat).is_trivial
    other = Site(lat.vertex_id(0, 0), lat.face_id(0, 0))
    tiny = Region(lat, frozenset([0]))

    def unreachable(*args, **kwargs):
        raise AssertionError("edge-disjoint search run without a site path")

    # no site path within the region: refused without the fallback search
    monkeypatch.setattr(lattice, "_edge_disjoint_dfs", unreachable)
    with pytest.raises(LatticeError) as err:
        ribbon_between(s, other, lat, tiny)
    assert str(err.value) == f"no ribbon from {s} to {other} within the region"


def test_ribbon_between_reports_the_search_cap(monkeypatch):
    """The site path from (1, 0) to (1, 1) with reversed moves crosses edge
    7 twice, so the edge-disjoint search runs; stopped at its node cap, it
    says so rather than that no ribbon exists."""
    lat = Lattice(3, 3, "plane")
    s0 = Site(lat.vertex_id(1, 0), lat.face_id(0, 0))
    s1 = Site(lat.vertex_id(1, 1), lat.face_id(1, 0))
    with pytest.raises(LatticeError, match="overlap"):
        Ribbon.from_triangles(site_bfs(lat, s0, s1, None, True))
    assert len(ribbon_between(s0, s1, lat, allow_reversed=True)) == 4
    monkeypatch.setattr(lattice, "DFS_NODE_CAP", 3)
    with pytest.raises(LatticeError) as err:
        ribbon_between(s0, s1, lat, allow_reversed=True)
    assert str(err.value) == f"ribbon search from {s0} to {s1} stopped at the 3-node cap"


def test_edge_disjoint_search_stops_once_every_chain_is_seen(monkeypatch):
    """On the 12x12 plane the shortest site path with reversed moves from
    vertex (5, 5) at face (5, 5) to vertex (6, 5) at face (5, 4) crosses
    edge h(5, 5) twice, so on that one edge there is a site path but no
    edge-disjoint ribbon. The fallback search refuses the pair once a depth
    cuts no chain at its limit, within a 10-node cap, instead of deepening
    to 2 * 264 edges, about a thousand visits."""
    lat = Lattice(12, 12, "plane")
    s0 = Site(lat.vertex_id(5, 5), lat.face_id(5, 5))
    s1 = Site(lat.vertex_id(6, 5), lat.face_id(5, 4))
    path = site_bfs(lat, s0, s1, None, True)
    assert [t.edge for t in path] == [lat.edge_id("h", 5, 5)] * 2
    monkeypatch.setattr(lattice, "DFS_NODE_CAP", 10)
    with pytest.raises(LatticeError) as err:
        ribbon_between(s0, s1, lat, Region(lat, frozenset([path[0].edge])), allow_reversed=True)
    assert str(err.value) == f"no ribbon from {s0} to {s1} within the region"


def test_ribbon_random_walks_stay_valid():
    lat = Lattice(4, 4, "torus")
    rng = random.Random(2)
    for _ in range(50):
        s = rng.choice(list(lat.sites()))
        tris = []
        used = set()
        for _ in range(rng.randrange(1, 9)):
            options = [t for t in site_moves(lat, s, None, True) if t.edge not in used]
            if not options:
                break
            t = rng.choice(options)
            tris.append(t)
            used.add(t.edge)
            s = t.s1
        if tris:
            Ribbon.from_triangles(tris)  # must not raise


def test_straight_ribbon_headings():
    lat = Lattice(5, 5, "plane")
    for heading in "ENWS":
        r = straight_ribbon(
            lat, *{"E": (1, 2), "N": (2, 1), "W": (3, 2), "S": (2, 3)}[heading], heading, 2
        )
        assert len(r) == 4
        kinds = [t.kind for t in r.triangles]
        assert kinds == ["direct", "dual", "direct", "dual"]


def test_closed_loop():
    lat = Lattice(5, 5, "plane")
    target = Site(lat.vertex_id(2, 2), lat.face_id(2, 2))
    loop = closed_loop_around(target, 1, lat)
    assert loop.is_closed
    assert loop_encloses(loop, target, lat)
    corner = Site(lat.vertex_id(0, 0), lat.face_id(0, 0))
    assert not loop_encloses(loop, corner, lat)
    with pytest.raises(LatticeError):
        closed_loop_around(corner, 1, lat)
    with pytest.raises(LatticeError):
        closed_loop_around(target, 3, lat)


def test_region_boundary_gap():
    lat = Lattice(4, 4, "plane")
    cone = cone_make((1, 1), ["N", "E"], lat)
    boundary = boundary_edges(cone)
    interior = cone.interior_complement_edges()
    assert not (boundary & cone.edges)
    assert not (boundary & interior)
    assert boundary | interior | cone.edges == frozenset(lat.edges())


def test_cone_trims_rim_edges():
    lat = Lattice(3, 3, "plane")
    cone = cone_make((1, 1), ["N", "E"], lat)
    for e in cone.edges:
        lat.dual_faces(e)  # must not raise: every cone edge is bulk
    # the quadrant above (1, 1) holds 4 edges; the 2 on the top and right
    # rim are dropped
    assert cone.edges == {lat.edge_id("h", 1, 1), lat.edge_id("v", 1, 1)}


def test_cone_site_membership():
    lat = Lattice(5, 5, "plane")
    cone = cone_make((1, 1), ["N", "E"], lat)
    deep = Site(lat.vertex_id(3, 3), lat.face_id(3, 3))
    assert cone.site_in(deep)
    straddle = Site(lat.vertex_id(1, 3), lat.face_id(1, 3))
    assert cone.site_on_boundary(straddle) or cone.site_in(straddle)
    far = Site(lat.vertex_id(0, 0), lat.face_id(0, 0))
    assert not cone.site_in(far)
    assert not cone.site_on_boundary(far)


def test_cone_bad_specs():
    lat = Lattice(4, 4, "plane")
    with pytest.raises(LatticeError):
        cone_make((0, 0), ["N", "E"], lat)
    with pytest.raises(LatticeError):
        cone_make((1, 1), ["N", "S"], lat)
    with pytest.raises(LatticeError):
        cone_make((1, 1), ["N"], lat)
    with pytest.raises(LatticeError):
        cone_make((1, 1), ["N", "E"], Lattice(3, 3, "torus"))


def test_cone_ribbon_connectivity():
    # sites inside the cone are pairwise joinable within it once the cone is
    # large enough to hold at least two interior sites
    lat = Lattice(6, 6, "plane")
    cone = cone_make((1, 1), ["N", "E"], lat)
    inner_sites = [s for s in lat.sites() if cone.site_in(s)]
    assert len(inner_sites) >= 2
    for s0 in inner_sites[:4]:
        for s1 in inner_sites[:4]:
            if s0 == s1:
                continue
            rho = ribbon_between(s0, s1, lat, cone)
            assert rho.edges() <= cone.edges


def test_cone_boundary_pairs_connect_outside():
    lat = Lattice(6, 6, "plane")
    cone = cone_make((2, 2), ["N", "E"], lat)
    comp = Region(lat, cone.complement_edges())
    boundary_sites = [s for s in lat.sites() if cone.site_on_boundary(s)]
    rng = random.Random(0)
    pairs = 0
    for _ in range(12):
        s0, s1 = rng.sample(boundary_sites, 2)
        try:
            rho = ribbon_between(s0, s1, lat, comp, allow_reversed=True)
        except LatticeError:
            continue
        assert rho.edges() <= comp.edges
        pairs += 1
    assert pairs >= 6


def test_parse_lattice():
    lat = parse_lattice("4x4:torus")
    assert (lat.width, lat.height, lat.boundary) == (4, 4, "torus")
    assert format_lattice(lat) == "4x4:torus"
    assert parse_lattice("3x3:plane").boundary == "plane"
    with pytest.raises(LatticeError):
        parse_lattice("nonsense")


def test_cone_conditions_exhaustive():
    # on a patch whose cone holds several interior sites: any two in-cone
    # sites join inside the cone, any two boundary sites join inside the
    # cone after at most one exterior bridge triangle per end, and any two
    # boundary sites also join outside
    lat = Lattice(6, 6, "plane")
    cone = cone_make((1, 1), ["N", "E"], lat)
    cone_edges = frozenset(cone.edges)
    comp_edges = frozenset(cone.complement_edges())

    def component(start, allowed):
        seen = {start}
        frontier = [start]
        while frontier:
            nxt = []
            for s in frontier:
                for t in site_moves(lat, s, allowed, True):
                    if t.s1 not in seen:
                        seen.add(t.s1)
                        nxt.append(t.s1)
            frontier = nxt
        return seen

    inner = [s for s in lat.sites() if cone.site_in(s)]
    assert len(inner) >= 2
    reach0 = component(inner[0], cone_edges)
    assert all(s in reach0 for s in inner)

    boundary = [s for s in lat.sites() if cone.site_on_boundary(s)]
    bridged = {
        s: {s} | {t.s1 for t in site_moves(lat, s, comp_edges, True)} for s in boundary
    }
    mids = sorted({m for v in bridged.values() for m in v})
    reach = {m: component(m, cone_edges) for m in mids}
    for s0 in boundary:
        for s1 in boundary:
            if s0 == s1:
                continue
            assert any(m1 in reach[m0] for m0 in bridged[s0] for m1 in bridged[s1])

    # exterior connectivity: the boundary sites that can anchor exterior
    # ribbons at all (at least one exterior move in and one out) fall into
    # margin strips; all the sites of the two margin strips flanking the
    # cone meet in one component through the corner. Boundary sites whose
    # face points into the cone have no exterior moves: the halo meets the
    # complement but no ribbon can end there, at any patch size.
    anchors = [s for s in boundary if len(site_moves(lat, s, comp_edges, True)) >= 2]
    assert len(anchors) >= len(boundary) // 3
    comps = {}
    for s in anchors:
        comps.setdefault(frozenset(component(s, comp_edges)), []).append(s)
    largest = max(comps, key=lambda c: len(comps[c]))
    south = [s for s in anchors if lat.vertex_xy(s.vertex)[1] <= 1]
    west = [s for s in anchors if lat.vertex_xy(s.vertex)[0] <= 1]
    assert south and west
    assert all(s in largest for s in south)
    assert all(s in largest for s in west)


MOVE_LATTICES = [(w, h, b) for w, h in ((2, 2), (3, 3), (3, 4)) for b in ("plane", "torus")]


def _coordinate_sign(lat, t):
    """A triangle's operator sign from edge coordinates: a direct step
    against its edge's orientation, or a dual step along the dual edge's,
    gives +1."""
    if t.kind == "direct":
        return -1 if (t.s0.vertex, t.s1.vertex) == lat.edge_endpoints(t.edge) else +1
    return +1 if (t.s0.face, t.s1.face) == lat.dual_faces(t.edge) else -1


def _coordinate_triangle(lat, s0, s1):
    """The triangle from s0 to s1 worked out from coordinates, or None when
    the sites are not one step apart: a direct step along the boundary edge
    of their shared face that joins their vertices, or a dual step across
    the one edge at their shared vertex that their faces have in common,
    with the sign ``_coordinate_sign`` gives it."""
    if s0 == s1:
        return None
    if s0.face == s1.face:
        ends = {s0.vertex, s1.vertex}
        edges = [e for e, _ in lat.plaq_edges(s0.face) if set(lat.edge_endpoints(e)) == ends]
        kind = "direct"
    elif s0.vertex == s1.vertex:
        common = {e for e, _ in lat.plaq_edges(s0.face)} & {e for e, _ in lat.plaq_edges(s1.face)}
        edges = [e for e in common if s0.vertex in lat.edge_endpoints(e)]
        kind = "dual"
    else:
        return None
    if len(edges) != 1:
        return None
    tri = Triangle(kind, s0, s1, edges[0], 0)
    return replace(tri, sign=_coordinate_sign(lat, tri))


def _oracle_moves(lat, s):
    """(positive, reversed) moves at s from coordinates: the one-step
    triangles that triangle_is_positive accepts, leaving s or, reversed,
    arriving at s. Direct before dual, as positive_moves orders them."""
    out, back = [], []
    for t in lat.sites():
        tri = _coordinate_triangle(lat, s, t)
        if tri is not None and triangle_is_positive(lat, tri):
            out.append(tri)
        tri = _coordinate_triangle(lat, t, s)
        if tri is not None and triangle_is_positive(lat, tri):
            back.append(tri.reversed())
    return sorted(out, key=lambda t: t.kind), sorted(back, key=lambda t: t.kind)


@pytest.mark.parametrize("w,h,boundary", MOVE_LATTICES)
def test_move_table_matches_oracle(w, h, boundary):
    """Every site's move-table lookup equals the oracle's moves, and so do
    the table-backed moves, unrestricted and restricted to random edge
    subsets; make_triangle equals the coordinate triangle for every pair of
    sites. On the 2x2 torus two edges join some vertex pairs, so only the
    face's own boundary edge may be used."""
    lat = Lattice(w, h, boundary)
    rng = random.Random(w * 10 + h + (boundary == "torus"))
    for s in lat.sites():
        pos, rev = _oracle_moves(lat, s)
        assert lattice._table_moves(lat, s) == (tuple(pos), tuple(rev))
        assert positive_moves(lat, s, None) == pos
        assert reversed_moves(lat, s, None) == rev
        assert site_moves(lat, s, None, True) == pos + rev
        for _ in range(4):
            allowed = frozenset(e for e in lat.edges() if rng.random() < 0.5)
            assert positive_moves(lat, s, allowed) == [t for t in pos if t.edge in allowed]
            assert reversed_moves(lat, s, allowed) == [t for t in rev if t.edge in allowed]
        for t in lat.sites():
            want = _coordinate_triangle(lat, s, t)
            if want is None:
                with pytest.raises(LatticeError):
                    make_triangle(lat, s, t)
            else:
                assert make_triangle(lat, s, t) == want


def test_move_rows_are_built_per_site():
    """Looking up one site builds and stores that site's move row and no
    other; a later lookup returns the stored row, and a site that is not on
    the lattice stores nothing. The elementary closed ribbons are stored
    the same way, per site and kind."""
    lat = Lattice(7, 7, "plane")
    s = lat.site_at(lat.vertex_id(3, 3))
    assert lat.move_table == {}
    moves = positive_moves(lat, s, None)
    assert list(lat.move_table) == [s]
    assert lattice._table_moves(lat, s) is lat.move_table[s]
    assert list(lat.move_table[s][0]) == moves
    with pytest.raises(LatticeError, match="not a site"):
        positive_moves(lat, Site(s.vertex, lat.face_id(0, 0)), None)
    assert list(lat.move_table) == [s]
    alpha = alpha_ribbon(lat, s)
    assert alpha_ribbon(lat, s) is alpha
    assert list(lat.closed_walks) == [(s, "dual")]
    assert set(lat.move_table) == {t.s0 for t in alpha.triangles}


def test_moves_off_lattice_site_raise():
    lat = Lattice(3, 3, "torus")
    bad = Site(0, 4)  # face 4 = (1,1) has no corner at vertex 0
    good = Site(0, 0)
    msg = r"Site\(vertex=0, face=4\) is not a site of the 3x3:torus lattice"
    for call in (
        lambda: positive_moves(lat, bad, None),
        lambda: reversed_moves(lat, bad, frozenset(lat.edges())),
        lambda: ribbon_between(bad, good, lat),
        lambda: ribbon_between(good, bad, lat),
        lambda: ribbon_between(bad, bad, lat),
        lambda: make_triangle(lat, bad, good),
    ):
        with pytest.raises(LatticeError, match=msg):
            call()
    with pytest.raises(LatticeError, match="not a site"):
        positive_moves(Lattice(3, 3, "plane"), Site(100, 0), None)


@pytest.mark.parametrize("w,h,boundary", MOVE_LATTICES)
def test_sign_tables_match_coordinate_formulas(w, h, boundary):
    """The table-backed ribbon signs, and the sign each move carries, equal
    the ones worked out from edge coordinates, for every move and its
    reversal; a dual triangle across a plane patch's rim edge is refused as
    before."""
    lat = Lattice(w, h, boundary)
    for s in lat.sites():
        pos, rev = lattice._table_moves(lat, s)
        for tri in pos + rev:
            for t in (tri, tri.reversed()):
                want = _coordinate_sign(lat, t)
                assert t.sign == want
                if t.kind == "direct":
                    assert direct_flux_sign(lat, t) == want
                else:
                    assert dual_shift_sign(lat, t) == want
    rim = [e for e in lat.edges() if lat.is_rim(e)]
    assert bool(rim) == (boundary == "plane")
    site = next(lat.sites())
    for e in rim:
        with pytest.raises(LatticeError, match=f"edge {e} lies on the patch rim"):
            lat.dual_faces(e)
        with pytest.raises(LatticeError, match=f"edge {e} lies on the patch rim"):
            dual_shift_sign(lat, Triangle("dual", site, site, e, +1))


def _coordinate_parts(lat, ribbon):
    flux = tuple((t.edge, _coordinate_sign(lat, t)) for t in ribbon.triangles if t.kind == "direct")
    duals = tuple((t.edge, _coordinate_sign(lat, t)) for t in ribbon.triangles if t.kind == "dual")
    return flux, duals


@pytest.mark.parametrize("w,h,boundary", MOVE_LATTICES)
def test_ribbon_parts_match_coordinate_formulas(w, h, boundary):
    """Ribbon.parts equals the signed edges worked out from coordinates for
    searched ribbons with and without reversed moves, their inverses, and
    concatenations of a ribbon with one that continues it."""
    lat = Lattice(w, h, boundary)
    rng = random.Random(w * 100 + h + (boundary == "torus"))
    sites = list(lat.sites())
    checked = 0
    for _ in range(20):
        s0, s1, s2 = (rng.choice(sites) for _ in range(3))
        r1 = ribbon_between(s0, s1, lat, allow_reversed=rng.random() < 0.5)
        ribbons = [r1, ribbon_invert(r1)]
        try:
            r2 = ribbon_between(s1, s2, lat, avoid_edges=r1.edges(), allow_reversed=True)
        except LatticeError:
            pass
        else:
            ribbons.append(ribbon_concat(r1, r2))
        for r in ribbons:
            assert r.parts == _coordinate_parts(lat, r)
            checked += len(r)
    assert checked > 0


@pytest.mark.parametrize("w,h,boundary", MOVE_LATTICES)
def test_closed_site_ribbons_match_oracle(w, h, boundary):
    """alpha_ribbon and beta_ribbon, walked on the move table, equal the
    ribbons joined from the faces around the vertex and the corners of the
    face, on every site, and refuse the same sites with the same message."""
    lat = Lattice(w, h, boundary)
    refused = 0
    for s in lat.sites():
        for walk, oracle in ((alpha_ribbon, closed_dual_ribbon), (beta_ribbon, closed_direct_ribbon)):
            try:
                want = oracle(lat, s)
            except LatticeError as exc:
                refused += 1
                with pytest.raises(LatticeError, match=f"^{exc}$"):
                    walk(lat, s)
            else:
                assert walk(lat, s) == want
    assert bool(refused) == (boundary == "plane")


def _outcome(call):
    """A call's value, or its error's type and message."""
    try:
        return "value", call()
    except (LatticeError, ValueError) as exc:
        return type(exc), str(exc)


def test_move_rows_by_position_match_the_search_builder():
    """Every move row read off corner and ring positions equals the one
    found by searching the face's edges and the faces' shared edge, with
    signs from the edge orientations, for both steps of every site on
    plane and torus patches of 2..7 x 2..7, errors included."""
    cases = 0
    for w in range(2, 8):
        for h in range(2, 8):
            for boundary in ("plane", "torus"):
                lat = Lattice(w, h, boundary)
                for s in lat.sites():
                    for step in (+1, -1):
                        want = _outcome(lambda: build_moves(lat, s, step))
                        assert _outcome(lambda: lattice._build_moves(lat, s, step)) == want
                        cases += 1
    assert cases == 9360


RIBBON_SEARCH_LATTICES = [(3, 4, "plane"), (5, 5, "plane"), (3, 3, "torus"), (4, 4, "torus")]


@pytest.mark.parametrize("w,h,boundary", RIBBON_SEARCH_LATTICES)
def test_ribbon_between_matches_the_site_search(w, h, boundary, monkeypatch):
    """ribbon_between on the move-table rows, with avoided edges as a
    blocked set, returns the same ribbon or the same LatticeError as the
    search through site_moves on an allowed set built per call, for every
    ordered site pair. The pairs take turns through the eight combinations
    of avoided edges, a region and reversed moves, so each is run with and
    without each of them. Both fallback searches stop at a lowered node
    cap, which they must reach on the same move: a pair with a site path
    but no edge-disjoint ribbon otherwise costs each of them up to 0.25 s
    on the 4x4 torus before it is refused."""
    monkeypatch.setattr(lattice, "DFS_NODE_CAP", 150)
    lat = Lattice(w, h, boundary)
    rng = random.Random(w * 10 + h)
    sites = sorted(lat.sites())
    region = Region(lat, frozenset(e for e in lat.edges() if rng.random() < 0.7))
    combos, outcomes = set(), set()
    for k, (s0, s1) in enumerate((a, b) for a in sites for b in sites):
        avoid, in_region, reverse = bool(k & 1), bool(k & 2), bool(k & 4)
        kwargs = dict(
            region=region if in_region else None,
            avoid_edges=frozenset(rng.sample(range(lat.n_edges), 3)) if avoid else (),
            allow_reversed=reverse,
        )
        want = _outcome(lambda: ribbon_between_by_sites(s0, s1, lat, **kwargs))
        assert _outcome(lambda: ribbon_between(s0, s1, lat, **kwargs)) == want, (s0, s1, kwargs)
        combos.add((avoid, in_region, reverse))
        outcomes.add("value" if want[0] == "value" else want[1].split()[-1])
    assert len(combos) == 8
    assert outcomes == {"value", "region", "cap"}


def _memo_queries(lat, rng):
    """(s0, s1, region, avoided edges, allow_reversed) for every ordered
    site pair: on 3x3:plane with a random 70% region or none, reversed
    moves or not, and one random avoided edge or none; elsewhere with every
    single avoided edge."""
    sites = sorted(lat.sites())
    pairs = [(a, b) for a in sites for b in sites]
    if (lat.width, lat.height, lat.boundary) != (3, 3, "plane"):
        return [(a, b, None, frozenset([e]), False) for a, b in pairs for e in lat.edges()]
    region = Region(lat, frozenset(e for e in lat.edges() if rng.random() < 0.7))
    return [
        (a, b, r, avoid, reverse)
        for a, b in pairs
        for r in (None, region)
        for reverse in (False, True)
        for avoid in (frozenset(), frozenset([rng.randrange(lat.n_edges)]))
    ]


@pytest.mark.parametrize("w,h,boundary", [(3, 4, "plane"), (3, 3, "torus"), (3, 3, "plane")])
def test_ribbon_memo_matches_fresh_searches(w, h, boundary):
    """Every query, asked twice in a shuffled order on one lattice, gives
    the ribbon or the refusal message of the same search on a lattice that
    has kept no outcome; a query the memo holds returns the same ribbon
    object each time. The memo holds only ribbons and refusals."""
    lat, fresh = Lattice(w, h, boundary), Lattice(w, h, boundary)
    rng = random.Random(w * 10 + h)
    queries = _memo_queries(lat, rng) * 2
    rng.shuffle(queries)
    seen: dict = {}
    for s0, s1, region, avoid, reverse in queries:
        kwargs = dict(region=region, avoid_edges=avoid, allow_reversed=reverse)
        got = _outcome(lambda: ribbon_between(s0, s1, lat, **kwargs))
        fresh.ribbons.clear()
        fresh.search_trees.clear()
        assert got == _outcome(lambda: ribbon_between(s0, s1, fresh, **kwargs)), (s0, s1, kwargs)
        key = (s0, s1, region and region.edges, avoid, reverse)
        if got[0] == "value" and key in lat.ribbons and key in seen:
            assert got[1] is seen[key]
        seen.setdefault(key, got[1])
    values = list(lat.ribbons.values())
    assert all(v is None or isinstance(v, Ribbon) for v in values)
    assert None in values and any(v is not None for v in values)


@pytest.mark.parametrize("w,h,boundary", [(3, 3, "torus"), (3, 4, "plane"), (4, 4, "plane")])
def test_resumed_search_trees_match_fresh_searches(w, h, boundary):
    """Every ordered site pair, with a random region or none, random
    blocked edges or none and reversed moves or not, asked in a random
    order with ``joined_sites`` calls in between: each ribbon or refusal
    from the lattice's shared walks equals the one from a lattice that has
    kept nothing, and so does each set of joined sites. Some walks stop
    short of complete, so later queries resume them."""
    lat = Lattice(w, h, boundary)
    rng = random.Random(w * 100 + h)
    sites = sorted(lat.sites())
    regions = [None] + [Region(lat, frozenset(e for e in lat.edges() if rng.random() < 0.8)) for _ in range(2)]
    blocks = [frozenset(), frozenset(rng.sample(range(lat.n_edges), 2))]
    queries = [(a, b, rng.choice(regions), rng.choice(blocks), rng.random() < 0.5) for a in sites for b in sites]
    rng.shuffle(queries)
    partial = False
    for k, (s0, s1, region, avoid, reverse) in enumerate(queries):
        kwargs = dict(region=region, avoid_edges=avoid, allow_reversed=reverse)
        got = _outcome(lambda: ribbon_between(s0, s1, lat, **kwargs))
        assert got == _outcome(lambda: ribbon_between(s0, s1, Lattice(w, h, boundary), **kwargs)), (s0, s1, kwargs)
        partial |= any(frontier for _, frontier in lat.search_trees.values())
        if region is not None and k % 4 == 0:
            ends = rng.sample(sites, 5)
            want = _outcome(lambda: lattice.joined_sites(Lattice(w, h, boundary), s0, ends, region))
            assert _outcome(lambda: lattice.joined_sites(lat, s0, ends, region)) == want
    assert partial
