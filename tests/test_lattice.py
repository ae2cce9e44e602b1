import random

import pytest

from qdlattice.lattice import (
    LatticeError,
    Region,
    Ribbon,
    Site,
    Triangle,
    closed_loop_around,
    cone_make,
    direct_flux_sign,
    dual_shift_sign,
    lattice_make,
    loop_encloses,
    make_triangle,
    parse_lattice,
    format_lattice,
    positive_moves,
    reversed_moves,
    ribbon_between,
    ribbon_concat,
    ribbon_invert,
    site_moves,
    straight_ribbon,
    triangle_is_positive,
)


def test_edge_face_counts():
    assert lattice_make(2, 2, "torus").n_edges == 8
    assert lattice_make(2, 2, "torus").n_faces == 4
    assert lattice_make(3, 3, "plane").n_edges == 12
    assert lattice_make(3, 3, "plane").n_faces == 4
    assert lattice_make(2, 2, "plane").n_edges == 4
    assert lattice_make(2, 2, "plane").n_faces == 1


def test_dimension_guard():
    with pytest.raises(LatticeError):
        lattice_make(1, 3, "plane")


def test_star_edges():
    torus = lattice_make(2, 2, "torus")
    for v in range(torus.n_vertices):
        assert len(torus.star_edges(v)) == 4
    plane = lattice_make(3, 3, "plane")
    assert len(plane.star_edges(plane.vertex_id(1, 1))) == 4
    with pytest.raises(LatticeError):
        plane.star_edges(plane.vertex_id(0, 0))


def test_plaq_edges_orientation():
    lat = lattice_make(3, 3, "plane")
    f = lat.face_id(0, 0)
    walk = lat.plaq_edges(f)
    assert len(walk) == 4
    assert [sign for _, sign in walk] == [1, 1, -1, -1]
    s = Site(lat.vertex_id(1, 0), f)
    rotated = lat.plaq_edges_from(s)
    assert {e for e, _ in rotated} == {e for e, _ in walk}
    assert rotated[0][0] == lat.edge_id("v", 1, 0)


def test_triangle_construction_and_chirality():
    lat = lattice_make(3, 3, "torus")
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
    lat = lattice_make(3, 3, "torus")
    for s in lat.sites():
        moves = positive_moves(lat, s, None)
        assert len(moves) == 2
        assert moves[0].edge == moves[1].edge
        assert {moves[0].kind, moves[1].kind} == {"direct", "dual"}


def test_ribbon_invariants():
    lat = lattice_make(3, 3, "torus")
    s0 = Site(lat.vertex_id(0, 0), lat.face_id(0, 0))
    s1 = Site(lat.vertex_id(2, 1), lat.face_id(1, 1))
    rho = ribbon_between(s0, s1, lat)
    assert rho.start == s0 and rho.end == s1
    for a, b in zip(rho.triangles, rho.triangles[1:]):
        assert a.s1 == b.s0
    assert len(rho.edges()) == len(rho)


def test_ribbon_concat_rules():
    lat = lattice_make(3, 3, "torus")
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
    lat = lattice_make(4, 4, "torus")
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
    lat = lattice_make(3, 3, "torus")
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


def test_ribbon_between_trivial_and_unreachable():
    lat = lattice_make(3, 3, "plane")
    s = Site(lat.vertex_id(1, 1), lat.face_id(1, 1))
    assert ribbon_between(s, s, lat).is_trivial
    other = Site(lat.vertex_id(0, 0), lat.face_id(0, 0))
    tiny = Region(lat, frozenset([0]))
    with pytest.raises(LatticeError):
        ribbon_between(s, other, lat, tiny)


def test_ribbon_random_walks_stay_valid():
    lat = lattice_make(4, 4, "torus")
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
    lat = lattice_make(5, 5, "plane")
    for heading in "ENWS":
        r = straight_ribbon(
            lat, *{"E": (1, 2), "N": (2, 1), "W": (3, 2), "S": (2, 3)}[heading], heading, 2
        )
        assert len(r) == 4
        kinds = [t.kind for t in r.triangles]
        assert kinds == ["direct", "dual", "direct", "dual"]


def test_closed_loop():
    lat = lattice_make(5, 5, "plane")
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
    lat = lattice_make(4, 4, "plane")
    cone = cone_make((1, 1), ["N", "E"], lat)
    boundary = cone.boundary_edges()
    interior = cone.interior_complement_edges()
    assert not (boundary & cone.edges)
    assert not (boundary & interior)
    assert boundary | interior | cone.edges == frozenset(lat.edges())


def test_cone_trims_rim_edges():
    lat = lattice_make(3, 3, "plane")
    cone = cone_make((1, 1), ["N", "E"], lat)
    for e in cone.edges:
        lat.dual_faces(e)  # must not raise: every cone edge is bulk
    full = cone_make((1, 1), ["N", "E"], lat, trim_rim=False)
    assert cone.edges < full.edges


def test_cone_site_membership():
    lat = lattice_make(5, 5, "plane")
    cone = cone_make((1, 1), ["N", "E"], lat)
    deep = Site(lat.vertex_id(3, 3), lat.face_id(3, 3))
    assert cone.site_in(deep)
    straddle = Site(lat.vertex_id(1, 3), lat.face_id(1, 3))
    assert cone.site_on_boundary(straddle) or cone.site_in(straddle)
    far = Site(lat.vertex_id(0, 0), lat.face_id(0, 0))
    assert not cone.site_in(far)
    assert not cone.site_on_boundary(far)


def test_cone_bad_specs():
    lat = lattice_make(4, 4, "plane")
    with pytest.raises(LatticeError):
        cone_make((0, 0), ["N", "E"], lat)
    with pytest.raises(LatticeError):
        cone_make((1, 1), ["N", "S"], lat)
    with pytest.raises(LatticeError):
        cone_make((1, 1), ["N"], lat)
    with pytest.raises(LatticeError):
        cone_make((1, 1), ["N", "E"], lattice_make(3, 3, "torus"))


def test_cone_ribbon_connectivity():
    # sites inside the cone are pairwise joinable within it once the cone is
    # large enough to hold at least two interior sites
    lat = lattice_make(6, 6, "plane")
    cone = cone_make((1, 1), ["N", "E"], lat)
    inner_sites = [s for s in lat.sites() if cone.site_in(s)]
    assert len(inner_sites) >= 2
    for s0 in inner_sites[:4]:
        for s1 in inner_sites[:4]:
            if s0 == s1:
                continue
            rho = ribbon_between(s0, s1, lat, cone)
            assert cone.contains_ribbon(rho)


def test_cone_boundary_pairs_connect_outside():
    lat = lattice_make(6, 6, "plane")
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


def test_cone_from_spec():
    from qdlattice.lattice import cone_from_spec

    lat = lattice_make(4, 4, "plane")
    cone = cone_from_spec({"apex": [1, 1], "dirs": ["N", "E"]}, lat)
    assert cone.edges == cone_make((1, 1), ["N", "E"], lat).edges
    with pytest.raises(LatticeError):
        cone_from_spec({"apex": [1, 1]}, lat)


def test_cone_conditions_exhaustive():
    # on a patch whose cone holds several interior sites: any two in-cone
    # sites join inside the cone, any two boundary sites join inside the
    # cone after at most one exterior bridge triangle per end, and any two
    # boundary sites also join outside
    lat = lattice_make(6, 6, "plane")
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


def _coordinate_triangle(lat, s0, s1):
    """The triangle from s0 to s1 worked out from coordinates, or None when
    the sites are not one step apart: a direct step along the boundary edge
    of their shared face that joins their vertices, or a dual step across
    the one edge at their shared vertex that their faces have in common."""
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
    return Triangle(kind, s0, s1, edges[0]) if len(edges) == 1 else None


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
    """Table-backed moves equal the oracle's on every site, unrestricted and
    restricted to random edge subsets, and make_triangle equals the
    coordinate triangle for every pair of sites. On the 2x2 torus two edges
    join some vertex pairs, so only the face's own boundary edge may be used."""
    lat = lattice_make(w, h, boundary)
    rng = random.Random(w * 10 + h + (boundary == "torus"))
    assert set(lat.move_table) == set(lat.sites())
    for s in lat.sites():
        pos, rev = _oracle_moves(lat, s)
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


def test_moves_off_lattice_site_raise():
    lat = lattice_make(3, 3, "torus")
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
        positive_moves(lattice_make(3, 3, "plane"), Site(100, 0), None)


@pytest.mark.parametrize("w,h,boundary", MOVE_LATTICES)
def test_sign_tables_match_coordinate_formulas(w, h, boundary):
    """The table-backed ribbon signs equal the ones worked out from edge
    coordinates, for every move and its reversal; a dual triangle across a
    plane patch's rim edge is refused as before."""
    lat = lattice_make(w, h, boundary)
    for s in lat.sites():
        pos, rev = lat.move_table[s]
        for tri in pos + rev:
            for t in (tri, tri.reversed()):
                if t.kind == "direct":
                    along = (t.s0.vertex, t.s1.vertex) == lat.edge_endpoints(t.edge)
                    assert direct_flux_sign(lat, t) == (-1 if along else +1)
                else:
                    along = (t.s0.face, t.s1.face) == lat.dual_faces(t.edge)
                    assert dual_shift_sign(lat, t) == (+1 if along else -1)
    rim = [e for e in lat.edges() if lat.is_rim(e)]
    assert bool(rim) == (boundary == "plane")
    site = next(lat.sites())
    for e in rim:
        with pytest.raises(LatticeError, match=f"edge {e} lies on the patch rim"):
            lat.dual_faces(e)
        with pytest.raises(LatticeError, match=f"edge {e} lies on the patch rim"):
            dual_shift_sign(lat, Triangle("dual", site, site, e))
