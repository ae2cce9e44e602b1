"""Experiment drivers: each one runs a family of checks and fills a Report.

Experiments are deterministic given (group, lattice, seed); random choices
always come from an explicitly seeded generator echoed into the report.
"""

from __future__ import annotations

import itertools
import random
from typing import Callable

import numpy as np
import scipy.sparse.linalg as spla

from .deform import PATH_NODE_CAP, sample_ribbon_pairs
from .duality import (
    boundary_membership_check,
    cone_subspace,
    detecting_exterior_sites,
    external_charge_orthogonality_check,
    ribbon_closure_rank,
    self_adjoint_density_check,
)
from .groundstate import (
    GroundStateError,
    all_configs,
    face_fluxes,
    count_flat_on_faces,
    connection_projector,
    edges_of_faces,
    flat_connections,
    ground_state,
    is_flat,
    omega_distance,
    omega_expectation,
    sector_shift,
    shift_row,
    torus_holonomies,
)
from .groups import AbelianGroup, parse_group, format_group
from .lattice import (
    Lattice,
    LatticeError,
    Site,
    closed_loop_around,
    cone_make,
    format_lattice,
    parse_lattice,
    ribbon_between,
    ribbon_invert,
)
from .operators import (
    AffineMap,
    OpSum,
    as_opsum,
    alpha_ribbon,
    beta_ribbon,
    hamiltonian,
    ops_equal,
    plaq_h,
    plaq_proj,
    ribbon_F,
    ribbon_F_irrep,
    same_action,
    star_g,
    star_proj,
    to_matrix,
)
from .reports import Report, RunConfig
from .sectors import (
    SectorLabel,
    braiding_phase,
    fuse_labels,
    fusion_table,
    loop_projector_table,
    s_matrix_entry,
    s_matrix_formula,
    sector_distinguish,
    sector_labels,
    smatrix_geometry,
    transporter,
    truncate,
)


def _site_at(lat: Lattice, vx: int, vy: int) -> Site:
    v = lat.vertex_id(vx, vy)
    f = next(f for f in lat.faces_at_vertex_cw(v) if f is not None)
    return Site(v, f)


def _max_err(errors) -> float:
    errors = list(errors)
    return float(max(errors)) if errors else 0.0


# -- operator identity suite ---------------------------------------------------------


def run_verify(config: RunConfig, group: AbelianGroup, lat: Lattice) -> Report:
    """Exact operator identities of the ribbon calculus, checked entrywise
    on the joint support subspace."""
    rep = Report("verify", config.__dict__.copy())
    if not lat.is_torus:
        raise LatticeError("the identity suite expects a torus (complete stars everywhere)")
    ne = lat.n_edges
    elems = group.elements()
    chars = group.characters()
    ident = group.identity()
    s = _site_at(lat, 1, 1)
    s2 = _site_at(lat, 0, 1)

    # star and plaquette generator relations
    errs = []
    for g1, g2 in itertools.product(elems, repeat=2):
        a1, a2 = star_g(lat, group, s, g1), star_g(lat, group, s, g2)
        errs.append(ops_equal(a1.compose(a2), star_g(lat, group, s, group.mul(g1, g2)), ne))
        b1, b2 = plaq_h(lat, group, s, g1), plaq_h(lat, group, s, g2)
        prod = OpSum.of(b1.compose(b2))
        want = OpSum.of(b1) if g1 == g2 else OpSum.of(b1).scaled(0.0)
        errs.append(ops_equal(prod, want, ne))
        errs.append(ops_equal(a1.compose(b2), b2.compose(a1), ne))
    rep.add(
        "star and plaquette generator relations",
        "A^g A^g' = A^{gg'}, B^h B^h' = delta B^h, A^g B^h = B^h A^g",
        _max_err(errs) <= config.tol,
        _max_err(errs),
        "all group labels at one site",
    )

    errs = [
        ops_equal(
            star_g(lat, group, s, g1).compose(plaq_h(lat, group, s2, g2)),
            plaq_h(lat, group, s2, g2).compose(star_g(lat, group, s, g1)),
            ne,
        )
        for g1, g2 in itertools.product(elems, repeat=2)
    ]
    rep.add(
        "stars and plaquettes commute across sites",
        "[A_s, B_s'] = 0",
        _max_err(errs) <= config.tol,
        _max_err(errs),
    )

    # projector structure
    A = star_proj(lat, group, s)
    B = plaq_proj(lat, group, s)
    errs = [
        ops_equal(A.compose(A), A, ne),
        ops_equal(A.adjoint(), A, ne),
        ops_equal(B.compose(B), B, ne),
        ops_equal(B.adjoint(), B, ne),
    ]
    total = OpSum.weighted(
        (1.0, plaq_h(lat, group, s, h)) for h in elems
    )
    errs.append(ops_equal(total, OpSum.of(AffineMap.identity(group, ne)), ne))
    rep.add(
        "stabilizer projectors idempotent and self-adjoint",
        "A_s, B_s projectors; sum_h B^h = 1",
        _max_err(errs) <= config.tol,
        _max_err(errs),
    )

    # ribbon with both endpoints on the torus
    rho = ribbon_between(_site_at(lat, 0, 0), _site_at(lat, 2, 1), lat)
    s0, s1 = rho.start, rho.end

    errs = []
    for k, h, g in itertools.product(elems, repeat=3):
        F = as_opsum(ribbon_F(lat, group, rho, h, g))
        A0 = as_opsum(star_g(lat, group, s0, k))
        A1 = as_opsum(star_g(lat, group, s1, k))
        B0 = as_opsum(plaq_h(lat, group, s0, k))
        B1 = as_opsum(plaq_h(lat, group, s1, k))
        errs.append(
            ops_equal(A0 @ F, as_opsum(ribbon_F(lat, group, rho, h, group.mul(k, g))) @ A0, ne)
        )
        errs.append(
            ops_equal(
                A1 @ F,
                as_opsum(ribbon_F(lat, group, rho, h, group.mul(g, group.inv(k)))) @ A1,
                ne,
            )
        )
        errs.append(
            ops_equal(B0 @ F, F @ as_opsum(plaq_h(lat, group, s0, group.mul(k, h))), ne)
        )
        errs.append(
            ops_equal(
                B1 @ F, F @ as_opsum(plaq_h(lat, group, s1, group.mul(group.inv(h), k))), ne
            )
        )
    rep.add(
        "ribbon endpoint relations",
        "A^k_s0 F^{h,g} = F^{h,kg} A^k_s0 and the three companions",
        _max_err(errs) <= config.tol,
        _max_err(errs),
        f"ribbon of {len(rho)} triangles, all {len(elems)**3} label triples",
    )

    # product and adjoint rules in the group-element basis
    errs = []
    for g1, h1, g2, h2 in itertools.product(elems, repeat=4):
        lhs = as_opsum(ribbon_F(lat, group, rho, g1, h1)) @ as_opsum(
            ribbon_F(lat, group, rho, g2, h2)
        )
        want = as_opsum(ribbon_F(lat, group, rho, group.mul(g1, g2), h2))
        if h1 != h2:
            want = want.scaled(0.0)
        errs.append(ops_equal(lhs, want, ne))
    for g1, h1 in itertools.product(elems, repeat=2):
        errs.append(
            ops_equal(
                OpSum.of(ribbon_F(lat, group, rho, g1, h1).adjoint()),
                OpSum.of(ribbon_F(lat, group, rho, group.inv(g1), h1)),
                ne,
            )
        )
    rep.add(
        "ribbon product and adjoint rules",
        "F^{g,h} F^{k,l} = delta_{h,l} F^{gk,l}; (F^{h,g})* = F^{hbar,g}",
        _max_err(errs) <= config.tol,
        _max_err(errs),
    )

    # irreducible-representation basis: product rule, unitarity, decomposition
    errs = []
    for chi1, c1, chi2, c2 in itertools.product(chars, elems, chars, elems):
        lhs = as_opsum(ribbon_F_irrep(lat, group, rho, chi1, c1)) @ as_opsum(
            ribbon_F_irrep(lat, group, rho, chi2, c2)
        )
        rhs = as_opsum(
            ribbon_F_irrep(lat, group, rho, group.char_mul(chi1, chi2), group.mul(c1, c2))
        )
        errs.append(ops_equal(lhs, rhs, ne))
    for chi, c in itertools.product(chars, elems):
        F = ribbon_F_irrep(lat, group, rho, chi, c)
        errs.append(
            ops_equal(OpSum.of(F.compose(F.adjoint())), OpSum.of(AffineMap.identity(group, ne)), ne)
        )
    from .lattice import Ribbon

    k = max(1, len(rho) // 2)
    r1 = truncate(rho, k)
    r2 = Ribbon(rho.triangles[k:], rho.triangles[k].s0)
    for chi, c in itertools.product(chars, elems):
        lhs = as_opsum(ribbon_F_irrep(lat, group, rho, chi, c))
        rhs = as_opsum(ribbon_F_irrep(lat, group, r1, chi, c)) @ as_opsum(
            ribbon_F_irrep(lat, group, r2, chi, c)
        )
        errs.append(ops_equal(lhs, rhs, ne))
    rep.add(
        "irreducible-label ribbon rules",
        "F^{chi1,c} F^{chi2,d} = F^{chi1 chi2,cd}; unitarity; split ribbons factorize",
        _max_err(errs) <= config.tol,
        _max_err(errs),
    )

    # starting-site commutation in the irreducible basis
    errs = []
    for chi, c in itertools.product(chars, elems):
        F = as_opsum(ribbon_F_irrep(lat, group, rho, chi, c))
        errs.append(
            ops_equal(
                OpSum.of(ribbon_F_irrep(lat, group, rho, chi, c).adjoint()),
                OpSum.of(
                    ribbon_F_irrep(lat, group, rho, group.char_conj(chi), group.inv(c))
                ),
                ne,
            )
        )
        for k in elems:
            Ak = as_opsum(star_g(lat, group, s0, k))
            errs.append(
                ops_equal(Ak @ F, (F @ Ak).scaled(group.char_eval(chi, k)), ne)
            )
            Bk = as_opsum(plaq_h(lat, group, s0, k))
            errs.append(
                ops_equal(
                    Bk @ F,
                    F @ as_opsum(plaq_h(lat, group, s0, group.mul(k, group.inv(c)))),
                    ne,
                )
            )
    rep.add(
        "charge commutation at the starting site",
        "(F^{chi,c})* = F^{conj,inv}; A^k F = chi(k) F A^k; B^k F = F B^{k cbar}",
        _max_err(errs) <= config.tol,
        _max_err(errs),
    )

    # nontrivial charges fail to commute, trivial ones commute
    ok = True
    worst = 0.0
    A = star_proj(lat, group, s0)
    B = plaq_proj(lat, group, s0)
    for chi, c in itertools.product(chars, elems):
        F = as_opsum(ribbon_F_irrep(lat, group, rho, chi, c))
        comm_a = ops_equal(A @ F, F @ A, ne)
        comm_b = ops_equal(B @ F, F @ B, ne)
        if chi == ident:
            ok &= comm_a <= config.tol
            worst = max(worst, comm_a)
        else:
            ok &= comm_a > 0.1
        if c == ident:
            ok &= comm_b <= config.tol
            worst = max(worst, comm_b)
        else:
            ok &= comm_b > 0.1
    rep.add(
        "commuting with the endpoint stabilizers is equivalent to triviality",
        "[F^{chi,c}, A_s] = 0 iff chi = id; [F^{chi,c}, B_s] = 0 iff c = e",
        ok,
        worst,
        "both directions, exhaustive label sweep",
    )

    # extension by triangles when the charge allows it
    ok = True
    head = rho.triangles[0]
    tail = Ribbon(rho.triangles[1:], rho.triangles[1].s0)
    for chi, c in itertools.product(chars, elems):
        allowed = (head.kind == "direct" and chi == ident) or (
            head.kind == "dual" and c == ident
        )
        if allowed:
            ok &= same_action(
                ribbon_F_irrep(lat, group, rho, chi, c),
                ribbon_F_irrep(lat, group, tail, chi, c),
            )
    rep.add(
        "ribbons extend by triangles when the matching charge is trivial",
        "commuting charge implies F_rho = F_{tau rho}",
        ok,
        0.0,
    )

    # disjoint ribbons commute
    rho_b = ribbon_between(_site_at(lat, 0, 2), _site_at(lat, 2, 2), lat, avoid_edges=rho.edges())
    errs = []
    for g1, h1, g2, h2 in itertools.product(elems, repeat=4):
        Fa = as_opsum(ribbon_F(lat, group, rho, g1, h1))
        Fb = as_opsum(ribbon_F(lat, group, rho_b, g2, h2))
        errs.append(ops_equal(Fa @ Fb, Fb @ Fa, ne))
    rep.add(
        "disjoint ribbon operators commute",
        "[F_rho, F_sigma] = 0 for disjoint ribbons",
        _max_err(errs) <= config.tol,
        _max_err(errs),
    )

    # closed ribbons commute with every star and plaquette
    target = _site_at(lat, 1, 1)
    loop = closed_loop_around(target, 1, lat)
    ok = True
    for h, g in itertools.product(elems, repeat=2):
        F = ribbon_F(lat, group, loop, h, g)
        for v in range(lat.n_vertices):
            sv = _site_at(lat, *lat.vertex_xy(v))
            for k in elems:
                ok &= same_action(F.compose(star_g(lat, group, sv, k)), star_g(lat, group, sv, k).compose(F))
                ok &= same_action(F.compose(plaq_h(lat, group, sv, k)), plaq_h(lat, group, sv, k).compose(F))
    for h, g in itertools.product(elems, repeat=2):
        for base in (alpha_ribbon(lat, s), beta_ribbon(lat, s)):
            F = ribbon_F(lat, group, base, h, g)
            for k in elems:
                ok &= same_action(F.compose(star_g(lat, group, s2, k)), star_g(lat, group, s2, k).compose(F))
    rep.add(
        "closed ribbon operators commute with all stabilizer generators",
        "[F_closed, A^k] = 0 = [F_closed, B^k]",
        ok,
        0.0,
        f"loop of {len(loop)} triangles plus the elementary closed ribbons",
    )

    # crossing phase
    errs = []
    for l1, l2 in itertools.product(sector_labels(group), repeat=2):
        lam = braiding_phase(lat, group, l1, l2)
        pred = group.char_eval(l1.chi, l2.c) * group.char_eval(l2.chi, l1.c)
        errs.append(abs(lam - pred))
    rep.add(
        "once-crossing commutation phase",
        "F_rho^{chi,c} F_sigma^{xi,d} = chi(d) xi(c) F_sigma F_rho",
        _max_err(errs) <= config.tol,
        _max_err(errs),
        "all label pairs",
    )
    return rep


# -- ground state ----------------------------------------------------------------------


CROSS_CHECK_CAP = 1 << 20  # configurations the brute-force cross-checks may enumerate


def _skip_note(check: str, group: AbelianGroup, lat: Lattice) -> str:
    """Details for a cross-check dropped by its size condition; empty when
    the check runs."""
    if group.order**lat.n_edges <= CROSS_CHECK_CAP:
        return ""
    return f"{check} cross-check skipped: {group.order}^{lat.n_edges} configurations above 2^20"


def run_groundstate(config: RunConfig, group: AbelianGroup, lat: Lattice) -> Report:
    rep = Report("groundstate", config.__dict__.copy())
    if lat.is_torus:
        # gradients carry trivial holonomy, so the flat cocycle rows of the
        # sector shifts T_ab hold every holonomy pair of the flat connections
        pairs = itertools.product(range(group.order), repeat=2)
        rows = np.concatenate([shift_row(lat, sector_shift(lat, group, a, b)) for a, b in pairs])
        hx, hy = torus_holonomies(lat, group, rows[is_flat(lat, group, rows)])
        dim = len(np.unique(hx * group.order + hy))
        rep.add(
            "torus ground-space dimension",
            "degeneracy is the number of flat connections up to gauge",
            dim == group.order**2,
            abs(dim - group.order**2),
            f"dimension {dim}",
        )
        ed_skipped = _skip_note("exact diagonalization", group, lat)
        # the ground vector of holonomy sector (a, b) is T_ab Omega
        errs = []
        for a, b in itertools.product(range(group.order), repeat=2):
            T = sector_shift(lat, group, a, b)
            for v in range(lat.n_vertices):
                sv = _site_at(lat, *lat.vertex_xy(v))
                stabilizers = [star_g(lat, group, sv, g) for g in group.elements()]
                stabilizers.append(plaq_h(lat, group, sv, group.identity()))
                errs += [omega_distance(lat, group, X.compose(T), T) for X in stabilizers]
        rep.add(
            "ground vectors stabilized by all stars and plaquettes",
            "A^g psi = psi, B psi = psi",
            _max_err(errs) <= 1e-12,
            _max_err(errs),
            ed_skipped,
        )
        if not ed_skipped:
            H = to_matrix(hamiltonian(lat, group), lat)
            k = min(H.shape[0] - 2, 3 * group.order**2)
            # a fixed start vector keeps the report byte-reproducible
            v0 = np.random.default_rng(0).standard_normal(H.shape[0])
            vals = spla.eigsh(
                H.real.astype(np.float64), k=k, which="SA", v0=v0, return_eigenvectors=False
            )
            vals = np.sort(vals)
            e0 = -(lat.n_vertices + lat.n_faces)
            degeneracy = int(np.sum(np.abs(vals - e0) < 1e-8))
            rep.add(
                "exact diagonalization cross-check",
                "ground energy equals minus the stabilizer count; degeneracy matches",
                abs(vals[0] - e0) < 1e-8 and degeneracy == group.order**2,
                float(abs(vals[0] - e0)),
                f"energy {vals[0]:.6f}, degeneracy {degeneracy}",
            )
        return rep

    flats = flat_connections(lat, group)
    support = len(np.unique(flats, axis=0))
    brute_skipped = _skip_note("brute-force", group, lat)
    rep.add(
        "support equals the flat connections",
        "ground state is the uniform superposition over flat connections",
        support == len(flats),
        abs(support - len(flats)),
        f"{support} terms" + (f"; {brute_skipped}" if brute_skipped else ""),
    )
    if not brute_skipped:
        cfgs = all_configs(lat, group)
        brute = int(np.sum(is_flat(lat, group, cfgs)))
        rep.add(
            "flat enumeration matches brute force",
            "plumbing",
            brute == len(flats),
            abs(brute - len(flats)),
            f"{brute} flat of {len(cfgs)}",
        )
    errs = []
    for v in range(lat.n_vertices):
        if not lat.has_full_star(v):
            continue
        sv = _site_at(lat, *lat.vertex_xy(v))
        for g in group.elements():
            errs.append(abs(omega_expectation(lat, group, star_g(lat, group, sv, g)) - 1))
    for f in lat.faces():
        sf = Site(lat.face_corners_ccw(f)[0], f)
        errs.append(abs(omega_expectation(lat, group, plaq_h(lat, group, sf, group.identity())) - 1))
    rep.add(
        "stabilizer expectations equal one",
        "omega(A_s) = omega(B_s) = 1",
        _max_err(errs) <= 1e-12,
        _max_err(errs),
    )

    # connection projector values on a face set
    faces = [0] if lat.n_faces == 1 else [0, 1]
    edges = edges_of_faces(lat, faces)
    n_flat = count_flat_on_faces(lat, group, faces)
    assignments = list(itertools.product(group.elements(), repeat=len(edges)))
    rows = np.zeros((len(assignments), lat.n_edges), dtype=np.uint8)
    rows[:, edges] = [[group.index_of(val) for val in a] for a in assignments]
    flats = ~np.any(face_fluxes(lat, group, rows)[:, faces], axis=1)
    errs_flat, errs_nonflat = [], []
    for assignment, flat in zip(assignments, flats):
        sub = dict(zip(edges, assignment))
        val = omega_expectation(lat, group, connection_projector(lat, group, sub)).real
        if flat:
            errs_flat.append(abs(val - 1.0 / n_flat))
        else:
            errs_nonflat.append(abs(val))
    rep.add(
        "connection projector expectations",
        "omega(P_c) = 1/#flat for flat c and 0 otherwise",
        _max_err(errs_flat) <= 1e-12 and _max_err(errs_nonflat) <= 1e-12,
        max(_max_err(errs_flat), _max_err(errs_nonflat)),
        f"{len(errs_flat)} flat and {len(errs_nonflat)} non-flat assignments on {len(faces)} faces",
    )
    return rep


# -- deformation and inversion ------------------------------------------------------------


def run_deform(config: RunConfig, group: AbelianGroup, lat: Lattice, pairs: int = 200) -> Report:
    if lat.is_torus:
        # on the torus some crossing pairs act alike on the zero-holonomy
        # ground vector, so the negative control does not apply
        raise GroundStateError("torus ground space is degenerate: deform runs on plane patches")
    rep = Report("deform", config.__dict__.copy())
    rng = random.Random(config.seed)
    labels = [
        (chi, c)
        for chi in group.characters()
        for c in group.elements()
        if (chi, c) != (group.identity(), group.identity())
    ]
    errs = []
    count = 0
    searches: list[bool] = []
    for r1, r2 in sample_ribbon_pairs(lat, group, rng, pairs, deformations=True, searches=searches):
        h, g = rng.choice(labels)
        f1, f2 = ribbon_F(lat, group, r1, h, g), ribbon_F(lat, group, r2, h, g)
        errs.append(omega_distance(lat, group, f1, f2))
        count += 1
    rep.add(
        "deformation invariance on the ground state",
        "F_rho Omega = F_rho' Omega for same-endpoint deformations",
        count == pairs and _max_err(errs) <= 1e-10,
        _max_err(errs),
        f"{count} seeded ribbon pairs of {pairs} requested; {sum(searches)} of"
        f" {len(searches)} path searches hit the {PATH_NODE_CAP}-node cap",
    )

    # negative control: crossing pairs are detectably different
    control_pairs = 20
    bad = 0
    tried = 0
    for r1, r2 in sample_ribbon_pairs(lat, group, rng, control_pairs, deformations=False):
        tried += 1
        h, g = rng.choice([l for l in labels if l[0] != group.identity() and l[1] != group.identity()] or labels)
        f1, f2 = ribbon_F(lat, group, r1, h, g), ribbon_F(lat, group, r2, h, g)
        if omega_distance(lat, group, f1, f2) > 0.1:
            bad += 1
    rep.add(
        "crossing pairs break the naive invariance (negative control)",
        "plumbing",
        tried > 0 and bad == tried,
        float(tried - bad),
        f"{bad} of {tried} crossing pairs detectably differ; {tried} of {control_pairs} requested",
    )

    # inversion: the reversed ribbon with inverted labels acts identically
    errs = []
    struct_ok = True
    sites = list(lat.sites())
    for _ in range(40):
        sa, sb = rng.sample(sites, 2)
        try:
            r = ribbon_between(sa, sb, lat)
        except LatticeError:
            continue
        rbar = ribbon_invert(r)
        for h, g in rng.sample(labels, min(2, len(labels))):
            struct_ok &= same_action(
                ribbon_F(lat, group, r, h, g),
                ribbon_F(lat, group, rbar, group.inv(h), group.inv(g)),
            )
        # sandwiched expectation form with a local operator in between
        h, g = rng.choice(labels)
        l2, k2 = rng.choice(labels)
        full_sites = [x for x in sites if lat.has_full_star(x.vertex)]
        mid = rng.choice(full_sites)
        Aop = as_opsum(star_g(lat, group, mid, rng.choice(group.elements())))
        lhs = omega_expectation(
            lat,
            group,
            as_opsum(ribbon_F(lat, group, r, h, g)) @ Aop @ as_opsum(ribbon_F(lat, group, r, l2, k2)),
        )
        rhs = omega_expectation(
            lat,
            group,
            as_opsum(ribbon_F(lat, group, rbar, group.inv(h), group.inv(g)))
            @ Aop
            @ as_opsum(ribbon_F(lat, group, rbar, group.inv(l2), group.inv(k2))),
        )
        errs.append(abs(lhs - rhs))
    rep.add(
        "inversion identity",
        "omega(F_rho^{h,g} A F_sigma^{l,k}) = omega(F_rhobar^{hbar,gbar} A F_sigmabar^{lbar,kbar})",
        struct_ok and _max_err(errs) <= 1e-10,
        _max_err(errs),
        "reversed ribbons with inverted labels, sampled sandwiched operators",
    )
    return rep


# -- braiding and the S matrix ------------------------------------------------------------


def run_braid(config: RunConfig, group: AbelianGroup, lat: Lattice) -> Report:
    rep = Report("braid", config.__dict__.copy())
    labels = sector_labels(group)
    errs = []
    sym_errs = []
    for l1 in labels:
        for l2 in labels:
            lam = braiding_phase(lat, group, l1, l2)
            pred = group.char_eval(l1.chi, l2.c) * group.char_eval(l2.chi, l1.c)
            errs.append(abs(lam - pred))
            sym_errs.append(abs(lam - braiding_phase(lat, group, l2, l1)))
    rep.add(
        "one-crossing phase matches the character formula",
        "lambda = chi(d) xi(c)",
        _max_err(errs) <= config.tol,
        _max_err(errs),
        f"all {len(labels)**2} label pairs",
    )
    rep.add(
        "crossing phase is symmetric in the two labels",
        "chi(d) xi(c) symmetry",
        _max_err(sym_errs) <= config.tol,
        _max_err(sym_errs),
    )
    return rep


def run_smatrix(config: RunConfig, group: AbelianGroup, lat: Lattice) -> Report:
    rep = Report("smatrix", config.__dict__.copy())
    geom = smatrix_geometry(lat)
    labels = sector_labels(group)

    pairs = [(a, b) for a in labels for b in labels]
    sims = [s_matrix_entry(lat, group, a, b, geom) for a, b in pairs]

    errs = [abs(sim - s_matrix_formula(group, a, b)) for sim, (a, b) in zip(sims, pairs)]
    rep.add(
        "double-exchange table matches the closed formula",
        "S = conj(chi1)(d) conj(chi2)(c)",
        _max_err(errs) <= config.tol,
        _max_err(errs),
        f"{len(pairs)} entries, simulated via finite transporters",
    )

    rev = smatrix_geometry(lat, reversed_orientation=True)
    rev_errs = [
        abs(s_matrix_entry(lat, group, a, b, rev) - np.conj(s_matrix_formula(group, a, b)))
        for a, b in pairs[: min(len(pairs), 2 * len(labels))]
    ]
    rep.add(
        "reversed exchange orientation conjugates every entry (negative control)",
        "plumbing",
        _max_err(rev_errs) <= config.tol,
        _max_err(rev_errs),
    )

    def lab(l: SectorLabel) -> str:
        return f"chi{group.index_of(l.chi)}c{group.index_of(l.c)}"

    rows = []
    for a in labels:
        for b in labels:
            v = s_matrix_formula(group, a, b)
            rows.append([lab(a), lab(b), float(v.real), float(v.imag)])
    rep.tables["smatrix"] = {
        "columns": ["row", "col", "re", "im"],
        "rows": rows,
        "normalization": "unnormalized phase table; divide by the group order for the modular normalization",
    }
    rows_n = [[r[0], r[1], r[2] / group.order, r[3] / group.order] for r in rows]
    rep.tables["smatrix_normalized"] = {"columns": ["row", "col", "re", "im"], "rows": rows_n}
    return rep


# -- fusion ------------------------------------------------------------------------------


def run_fusion(config: RunConfig, group: AbelianGroup, lat: Lattice) -> Report:
    rep = Report("fusion", config.__dict__.copy())
    if not lat.is_torus:
        raise LatticeError("fusion measurements need complete detectors: use a torus")
    s0 = _site_at(lat, 1, 1)
    far = _site_at(lat, 2, 2) if lat.width > 2 else _site_at(lat, 0, 1)
    rho = ribbon_between(s0, far, lat)
    labels = sector_labels(group)
    table = fusion_table(lat, group, rho)
    mism = sum(1 for (a, b), measured in table.items() if measured != fuse_labels(group, a, b))
    rep.add(
        "operational fusion equals the label group law",
        "composite charges multiply componentwise",
        mism == 0,
        float(mism),
        f"all {len(labels)**2} ordered pairs measured with charge detectors",
    )
    conj_ok = all(
        fuse_labels(group, a, SectorLabel(group.char_conj(a.chi), group.inv(a.c)))
        == SectorLabel(group.identity(), group.identity())
        for a in labels
    )
    rep.add(
        "conjugate labels fuse to the vacuum",
        "(chi,c) x (conj chi, inv c) = (id, e)",
        conj_ok,
        0.0,
    )
    rows = [
        [
            f"chi{group.index_of(a.chi)}c{group.index_of(a.c)}",
            f"chi{group.index_of(b.chi)}c{group.index_of(b.c)}",
            f"chi{group.index_of(fuse_labels(group, a, b).chi)}c{group.index_of(fuse_labels(group, a, b).c)}",
        ]
        for a in labels
        for b in labels
    ]
    rep.tables["fusion"] = {"columns": ["a", "b", "a x b"], "rows": rows}
    return rep


# -- sector disjointness --------------------------------------------------------------------


def run_sectors(config: RunConfig, group: AbelianGroup, lat: Lattice) -> Report:
    rep = Report("sectors", config.__dict__.copy())
    if not lat.is_torus:
        raise LatticeError("sector distinguishability runs on a torus")
    target = _site_at(lat, 1, 1)
    # the far charge pair must land outside the detection loop: on a small
    # torus the far vertex sits on the loop's outer corner and the far face
    # in the unenclosed column
    far = Site(lat.vertex_id(0, 0), lat.face_id(lat.width - 1, lat.height - 1))
    labels = sector_labels(group)
    # one loop-projector expectation table over all charged states
    table = {
        l1: {k: abs(v) for k, v in row.items()}
        for l1, row in loop_projector_table(lat, group, labels, target, far).items()
    }
    worst_gap = 1.0
    found_all = True
    for i, l1 in enumerate(labels):
        for l2 in labels[i + 1 :]:
            gap = max(abs(table[l1][k] - table[l2][k]) for k in labels)
            found_all &= abs(gap - 1.0) <= config.tol
            worst_gap = min(worst_gap, gap)
    rep.add(
        "every unequal label pair is separated by a loop projector",
        "expectation gap |1 - 0| between sectors",
        found_all,
        abs(1.0 - worst_gap),
        f"{len(labels) * (len(labels) - 1) // 2} unordered pairs, worst gap {worst_gap:.6f}",
    )
    same = sector_distinguish(lat, group, labels[1], labels[1], target, far)
    rep.add(
        "equal labels admit no separating projector (negative control)",
        "plumbing",
        same.separator is None and same.gap <= config.tol,
        same.gap,
    )

    # transporter behaviour on a plane patch: ground state fixed, charge moved
    plat = Lattice(3, 3, "plane")
    s0 = _site_at(plat, 0, 0)
    try:
        rho1 = ribbon_between(s0, _site_at(plat, 2, 1), plat)
        rho2 = ribbon_between(
            s0, _site_at(plat, 1, 2), plat, avoid_edges=rho1.edges(), allow_reversed=True
        )
        n = min(len(rho1), len(rho2))
        r1n, r2n = truncate(rho1, n), truncate(rho2, n)
        ident = AffineMap.identity(group, plat.n_edges)
        local = star_g(plat, group, _site_at(plat, 1, 1), group.elements()[-1])
        errs = []
        intertwine_errs = []
        for label in labels[1:]:
            V = transporter(plat, group, label.chi, label.c, rho1, rho2, n)
            errs.append(omega_distance(plat, group, V, ident))
            # the transporter moves the dressed state of the first ribbon to
            # the second: V alpha1(A) Omega = alpha2(A) Omega for local A
            F1 = ribbon_F_irrep(plat, group, r1n, label.chi, label.c)
            F2 = ribbon_F_irrep(plat, group, r2n, label.chi, label.c)
            a1 = F1.compose(local).compose(F1.adjoint())
            a2 = F2.compose(local).compose(F2.adjoint())
            intertwine_errs.append(omega_distance(plat, group, V.compose(a1), a2))
        rep.add(
            "finite charge transporter fixes the ground state",
            "V_n Omega = Omega",
            _max_err(errs) <= 1e-10,
            _max_err(errs),
            f"all {len(labels) - 1} nontrivial labels, 3x3 plane patch",
        )
        rep.add(
            "transporter intertwines the dressed observables",
            "V_n alpha1(A) Omega = alpha2(A) Omega away from the connector",
            _max_err(intertwine_errs) <= 1e-10,
            _max_err(intertwine_errs),
        )
    except LatticeError as exc:
        rep.add(
            "finite charge transporter fixes the ground state",
            "V_n Omega = Omega",
            False,
            1.0,
            str(exc),
        )
    return rep


# -- Haag duality surrogates -------------------------------------------------------------


def run_haag(config: RunConfig, group: AbelianGroup, lat: Lattice) -> Report:
    rep = Report("haag-check", config.__dict__.copy())
    rng = random.Random(config.seed)
    apex = (1, 1)
    cone = cone_make(apex, ["N", "E"], lat)
    omega = ground_state(lat, group)
    sub = cone_subspace(cone, lat, group, omega)
    closure_runs = len(cone.edges) <= 3
    skipped = "; ribbon closure cross-check skipped: it runs on cones of at most 3 edges"
    skipped = "" if closure_runs else skipped
    rep.add(
        "cone subspace construction",
        "plumbing",
        sub.dim > 1,
        0.0,
        f"cone of {len(cone.edges)} edges, subspace dimension {sub.dim}{skipped}",
    )

    if closure_runs:
        r_lo, r_hi = ribbon_closure_rank(sub)
        rep.add(
            "ribbon closure reproduces the subspace and is cap-stable",
            "the ribbon algebra generates the region's edge operators",
            r_lo == r_hi == sub.dim,
            float(abs(r_hi - sub.dim)),
            f"closure ranks {(r_lo, r_hi)} vs dimension {sub.dim}",
        )

    # The orthogonality statement is contentful only when the deep exterior
    # carries a complete detector. On patches too small for that, run this
    # one check on the smallest enlargement that has one.
    checks_lat, checks_cone = lat, cone
    note = ""
    if not detecting_exterior_sites(lat, cone):
        checks_lat = Lattice(max(lat.width, 4), max(lat.height, 4), "plane")
        checks_cone = cone_make(
            (checks_lat.width - 2, checks_lat.height - 2), ["N", "E"], checks_lat
        )
        note = f" (run on {checks_lat.width}x{checks_lat.height}: the requested patch has no deep detector)"
    deep = external_charge_orthogonality_check(checks_cone, checks_lat, group, rng, samples=100)
    deep.details += note
    rep.checks.append(deep)
    rep.checks.append(
        boundary_membership_check(cone, lat, group, omega, sub, random.Random(config.seed + 2))
    )
    rep.checks += self_adjoint_density_check(
        cone, lat, group, omega, sub, random.Random(config.seed + 1), ribbon_cap=5
    )
    return rep


# -- split property surrogate -------------------------------------------------------------


def _random_local_op(
    lat: Lattice, group: AbelianGroup, edges: list[int], rng: random.Random
) -> OpSum:
    terms = []
    for _ in range(rng.randrange(1, 4)):
        m = AffineMap.identity(group, lat.n_edges)
        for e in rng.sample(edges, min(len(edges), rng.randrange(1, 3))):
            g = rng.choice(group.elements())
            chi = rng.choice(group.characters())
            shifts = ((e, group.index_of(g)),) if g != group.identity() else ()
            chars = (
                ((chi, ((e, 1),), group.index_of(group.identity())),)
                if chi != group.identity()
                else ()
            )
            m = AffineMap(group, lat.n_edges, shifts=shifts, chars=chars).compose(m)
        coeff = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        terms.append((coeff, m))
    return OpSum.weighted(terms)


def _separated_blocks(lat: Lattice) -> tuple[list[int], list[int]]:
    """Two edge blocks sharing no star and no plaquette."""

    def block(x0, y0):
        out = []
        for kind, x, y in (("h", x0, y0), ("v", x0, y0)):
            try:
                out.append(lat.edge_id(kind, x, y))
            except LatticeError:
                pass
        return out

    b1 = block(0, 0)
    b2 = block(lat.width - 2, lat.height - 2)
    v1 = {v for e in b1 for v in lat.edge_endpoints(e)}
    v2 = {v for e in b2 for v in lat.edge_endpoints(e)}
    assert not (v1 & v2)
    for f in lat.faces():
        fe = {e for e, _ in lat.plaq_edges(f)}
        assert not (fe & set(b1) and fe & set(b2)), "blocks share a plaquette"
    for v in range(lat.n_vertices):
        se = set(lat.star_edges_partial(v))
        assert not (se & set(b1) and se & set(b2)), "blocks share a star"
    return b1, b2


def run_split(config: RunConfig, group: AbelianGroup, lat: Lattice, samples: int = 100) -> Report:
    rep = Report("split-check", config.__dict__.copy())
    rng = random.Random(config.seed)
    b1, b2 = _separated_blocks(lat)
    errs = []
    for _ in range(samples):
        A = _random_local_op(lat, group, b1, rng)
        B = _random_local_op(lat, group, b2, rng)
        wa = omega_expectation(lat, group, A)
        wb = omega_expectation(lat, group, B)
        wab = omega_expectation(lat, group, A @ B)
        errs.append(abs(wab - wa * wb))
    rep.add(
        "ground state factorizes across separated regions",
        "omega(AB) = omega(A) omega(B) without shared stars or plaquettes",
        _max_err(errs) <= 1e-10,
        _max_err(errs),
        f"{samples} seeded operator pairs",
    )

    # negative control: overlapping supports correlate. B = A† on the same
    # edges makes omega(AB) - omega(A) omega(B) = ||A†Ω||^2 - |<Ω|A†Ω>|^2,
    # which vanishes only when A†Ω is parallel to Ω.
    worst = 0.0
    for _ in range(40):
        shared = sorted(set(b1) | {lat.edge_id("h", 0, 1) if lat.height > 2 else b1[0]})
        A = _random_local_op(lat, group, shared, rng)
        B = A.adjoint()
        wab = omega_expectation(lat, group, A @ B)
        worst = max(worst, abs(wab - omega_expectation(lat, group, A) * omega_expectation(lat, group, B)))
    rep.add(
        "adjacent supports do correlate (negative control)",
        "plumbing",
        worst > 1e-6,
        worst,
    )
    return rep


EXPERIMENTS: dict[str, Callable] = {
    "verify": run_verify,
    "groundstate": run_groundstate,
    "deform": run_deform,
    "braid": run_braid,
    "smatrix": run_smatrix,
    "fusion": run_fusion,
    "sectors": run_sectors,
    "haag-check": run_haag,
    "split-check": run_split,
}

DEFAULT_LATTICE = {
    "verify": "3x3:torus",
    "groundstate": "3x3:plane",
    "deform": "3x4:plane",
    "braid": "7x7:plane",
    "smatrix": "7x7:plane",
    "fusion": "3x3:torus",
    "sectors": "3x3:torus",
    "haag-check": "3x4:plane",
    "split-check": "4x4:plane",
}


def run_experiment(config: RunConfig) -> Report:
    if config.experiment not in EXPERIMENTS:
        raise ValueError(
            f"unknown experiment {config.experiment!r}; choose from {sorted(EXPERIMENTS)}"
        )
    group = parse_group(config.group)
    lattice_spec = config.lattice or DEFAULT_LATTICE[config.experiment]
    lat = parse_lattice(lattice_spec)
    config.lattice = format_lattice(lat)
    config.group = format_group(group)
    return EXPERIMENTS[config.experiment](config, group, lat)
