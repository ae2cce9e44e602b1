"""Experiment drivers: each one runs a family of checks and fills a Report.

Experiments are deterministic given (group, lattice, seed); random choices
always come from an explicitly seeded generator echoed into the report.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Callable

import numpy as np

from .deform import sample_ribbon_pairs
from .duality import (
    boundary_maps,
    boundary_membership_check,
    cone_subspace,
    detecting_exterior_sites,
    external_charge_orthogonality_check,
    ribbon_closure_rank,
    self_adjoint_density_check,
    small_cone_skip,
)
from .groundstate import (
    GroundStateError,
    face_fluxes,
    connection_projector,
    edges_of_faces,
    omega_distances,
    omega_expectations,
    sector_shift,
    shift_fluxes,
)
from .groups import AbelianGroup, digit_rows, format_group, parse_group
from .lattice import (
    Lattice,
    LatticeError,
    Site,
    closed_loop_around,
    components,
    cone_make,
    format_lattice,
    parse_lattice,
    ribbon_between,
    ribbon_invert,
)
from .operators import (
    MATRIX_DIM_CAP,
    AffineMap,
    OpSum,
    alpha_ribbon,
    as_opsum,
    beta_ribbon,
    conjugated,
    enumerate_configs,
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
    crossing_pair,
    fuse_labels,
    fusion_table,
    loop_projector_table,
    s_matrix_entries,
    s_matrix_formula,
    sector_distinguish,
    sector_labels,
    smatrix_geometry,
    transporter,
    truncate,
)


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
    s = lat.site_at(lat.vertex_id(1, 1))
    s2 = lat.site_at(lat.vertex_id(0, 1))

    def site_ops(site):
        """A^k and B^k at the site for every label k, built once."""
        return (
            {k: star_g(lat, group, site, k) for k in elems},
            {k: plaq_h(lat, group, site, k) for k in elems},
        )

    stars, plaqs = site_ops(s)
    stars2, plaqs2 = site_ops(s2)

    # star and plaquette generator relations
    errs = []
    for g1, g2 in itertools.product(elems, repeat=2):
        a1, a2 = stars[g1], stars[g2]
        errs.append(ops_equal(a1.compose(a2), stars[group.mul(g1, g2)], ne))
        b1, b2 = plaqs[g1], plaqs[g2]
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
        ops_equal(stars[g1].compose(plaqs2[g2]), plaqs2[g2].compose(stars[g1]), ne)
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
    total = OpSum.weighted((1.0, plaqs[h]) for h in elems)
    errs.append(ops_equal(total, OpSum.of(AffineMap.identity(group, ne)), ne))
    rep.add(
        "stabilizer projectors idempotent and self-adjoint",
        "A_s, B_s projectors; sum_h B^h = 1",
        _max_err(errs) <= config.tol,
        _max_err(errs),
    )

    # ribbon with both endpoints on the torus
    rho = ribbon_between(
        lat.site_at(lat.vertex_id(0, 0)), lat.site_at(lat.vertex_id(2, 1)), lat
    )
    s0, s1 = rho.start, rho.end
    stars0, plaqs0 = site_ops(s0)
    stars1, plaqs1 = site_ops(s1)

    errs = []
    for k, h, g in itertools.product(elems, repeat=3):
        F = as_opsum(ribbon_F(lat, group, rho, h, g))
        A0, A1 = as_opsum(stars0[k]), as_opsum(stars1[k])
        B0, B1 = as_opsum(plaqs0[k]), as_opsum(plaqs1[k])
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
        errs.append(ops_equal(B0 @ F, F @ as_opsum(plaqs0[group.mul(k, h)]), ne))
        errs.append(ops_equal(B1 @ F, F @ as_opsum(plaqs1[group.mul(group.inv(h), k)]), ne))
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
            Ak = as_opsum(stars0[k])
            errs.append(ops_equal(Ak @ F, (F @ Ak).scaled(group.char_eval(chi, k)), ne))
            Bk = as_opsum(plaqs0[k])
            errs.append(ops_equal(Bk @ F, F @ as_opsum(plaqs0[group.mul(k, group.inv(c))]), ne))
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
    rho_b = ribbon_between(
        lat.site_at(lat.vertex_id(0, 2)), lat.site_at(lat.vertex_id(2, 2)), lat, avoid_edges=rho.edges()
    )
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
    target = lat.site_at(lat.vertex_id(1, 1))
    loop = closed_loop_around(target, 1, lat)
    ok = True
    generators = [
        X for v in range(lat.n_vertices) for ops in site_ops(lat.site_at(v)) for X in ops.values()
    ]
    for h, g in itertools.product(elems, repeat=2):
        F = ribbon_F(lat, group, loop, h, g)
        for X in generators:
            ok &= same_action(F.compose(X), X.compose(F))
    for h, g in itertools.product(elems, repeat=2):
        for base in (alpha_ribbon(lat, s), beta_ribbon(lat, s)):
            F = ribbon_F(lat, group, base, h, g)
            for k in elems:
                ok &= same_action(F.compose(stars2[k]), stars2[k].compose(F))
    rep.add(
        "closed ribbon operators commute with all stabilizer generators",
        "[F_closed, A^k] = 0 = [F_closed, B^k]",
        ok,
        0.0,
        f"loop of {len(loop)} triangles plus the elementary closed ribbons",
    )

    # crossing phase
    errs = []
    pair = crossing_pair(lat)
    for l1, l2 in itertools.product(sector_labels(group), repeat=2):
        lam = braiding_phase(lat, group, l1, l2, pair)
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


def _skip_note(check: str, group: AbelianGroup, lat: Lattice) -> str:
    """Details for a cross-check dropped by its size condition; empty when
    the check runs."""
    if group.order**lat.n_edges <= MATRIX_DIM_CAP:
        return ""
    return f"{check} cross-check skipped: {group.order}^{lat.n_edges} configurations above 2^20"


def run_groundstate(config: RunConfig, group: AbelianGroup, lat: Lattice) -> Report:
    rep = Report("groundstate", config.__dict__.copy())
    if lat.is_torus:
        # gradients carry trivial holonomy, so the flat cocycles of the
        # sector shifts T_ab hold every holonomy pair of the flat connections
        pairs = digit_rows(group.order, 2).tolist()
        owner, row, flux = shift_fluxes(lat, group, [sector_shift(lat, group, a, b) for a, b in pairs])
        at = row >= lat.n_faces
        holonomies = np.zeros((len(pairs), 2), dtype=np.int64)
        holonomies[owner[at], row[at] - lat.n_faces] = flux[at]
        # a T_ab with a nontrivial face flux is not flat
        dim = len(set(map(tuple, np.delete(holonomies, owner[~at], axis=0).tolist())))
        rep.add(
            "torus ground-space dimension",
            "degeneracy is the number of flat connections up to gauge",
            dim == group.order**2,
            abs(dim - group.order**2),
            f"dimension {dim}",
        )
        ed_skipped = _skip_note("exact diagonalization", group, lat)
        # the ground vector of holonomy sector (a, b) is T_ab Omega
        stabilizers = []
        for v in range(lat.n_vertices):
            sv = lat.site_at(v)
            stabilizers += [star_g(lat, group, sv, g) for g in group.elements()]
            stabilizers.append(plaq_h(lat, group, sv, group.identity()))
        stabilized = []
        for a, b in pairs:
            T = sector_shift(lat, group, a, b)
            stabilized += [(X.compose(T), T) for X in stabilizers]
        errs = omega_distances(lat, group, stabilized)
        rep.add(
            "ground vectors stabilized by all stars and plaquettes",
            "A^g psi = psi, B psi = psi",
            _max_err(errs) <= 1e-12,
            _max_err(errs),
            ed_skipped,
        )
        if not ed_skipped:
            import scipy.sparse.linalg as spla  # only this cross-check needs scipy

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

    # |G|^(V - c) gradients for c components; all |G|^(E - F) flat
    # connections when the face fluxes are independent, as on a plane
    power = lat.n_vertices - len(set(components(lat.n_vertices, lat.endpoint_table)))
    support, flat_count = group.order**power, group.order ** (lat.n_edges - lat.n_faces)
    try:
        terms = f"{support} terms"
    except ValueError:  # more digits than the interpreter converts to text
        terms = f"{group.order}^{power} terms"
    brute_skipped = _skip_note("brute-force", group, lat)
    rep.add(
        "support equals the flat connections",
        "ground state is the uniform superposition over flat connections",
        support == flat_count,
        abs(support - flat_count),
        terms + (f"; {brute_skipped}" if brute_skipped else ""),
    )
    if not brute_skipped:
        cfgs = enumerate_configs(lat.edges()[::-1], lat.n_edges, group.order)
        brute = int(np.sum(~face_fluxes(lat, group, cfgs).any(axis=1)))
        rep.add(
            "flat enumeration matches brute force",
            "plumbing",
            brute == support,
            abs(brute - support),
            f"{brute} flat of {len(cfgs)}",
        )
    stabilizers = []
    for v in range(lat.n_vertices):
        if not lat.has_full_star(v):
            continue
        sv = lat.site_at(v)
        stabilizers += [star_g(lat, group, sv, g) for g in group.elements()]
    for f in lat.faces():
        sf = Site(lat.face_corners_ccw(f)[0], f)
        stabilizers.append(plaq_h(lat, group, sf, group.identity()))
    errs = [abs(val - 1) for val in omega_expectations(lat, group, stabilizers)]
    rep.add(
        "stabilizer expectations equal one",
        "omega(A_s) = omega(B_s) = 1",
        _max_err(errs) <= 1e-12,
        _max_err(errs),
    )

    # connection projector values on a face set
    faces = [0] if lat.n_faces == 1 else [0, 1]
    edges = edges_of_faces(lat, faces)
    rows = enumerate_configs(edges, lat.n_edges, group.order)
    flats = ~np.any(face_fluxes(lat, group, rows)[:, faces], axis=1)
    n_flat = int(np.sum(flats))
    projectors = [connection_projector(lat, group, dict(zip(edges, r))) for r in rows[:, edges].tolist()]
    errs_flat, errs_nonflat = [], []
    for val, flat in zip(omega_expectations(lat, group, projectors), flats):
        val = val.real
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


def _control_labels(group: AbelianGroup) -> list[SectorLabel]:
    """Labels of the crossing control: a nontrivial flux and a shift whose
    order is the group exponent. A pair crosses when the exponent does not
    divide one of its crossing counts n, and then n times such a shift is
    nonzero."""

    def order(g):
        return math.lcm(*(n // math.gcd(a, n) for a, n in zip(g, group.orders)))

    exponent = group.phase_denominator
    return [l for l in sector_labels(group) if l.c != group.identity() and order(l.chi) == exponent]


def run_deform(config: RunConfig, group: AbelianGroup, lat: Lattice, pairs: int = 200) -> Report:
    if lat.is_torus:
        # on the torus some crossing pairs act alike on the zero-holonomy
        # ground vector, so the negative control does not apply
        raise GroundStateError("torus ground space is degenerate: deform runs on plane patches")
    sites = list(lat.sites())
    full_sites = [x for x in sites if lat.has_full_star(x.vertex)]
    if not full_sites:
        raise LatticeError(
            f"{format_lattice(lat)} has no vertex with a complete star for the inversion check's star operator"
        )
    rep = Report("deform", config.__dict__.copy())
    rng = random.Random(config.seed)
    labels = sector_labels(group)[1:]
    deformed = []
    for r1, r2 in sample_ribbon_pairs(lat, group, rng, pairs, deformations=True):
        h, g = rng.choice(labels)
        deformed.append((ribbon_F(lat, group, r1, h, g), ribbon_F(lat, group, r2, h, g)))
    errs = omega_distances(lat, group, deformed)
    count = len(deformed)
    rep.add(
        "deformation invariance on the ground state",
        "F_rho Omega = F_rho' Omega for same-endpoint deformations",
        count == pairs and _max_err(errs) <= 1e-10,
        _max_err(errs),
        f"{count} seeded ribbon pairs of {pairs} requested",
    )

    # negative control: crossing pairs are detectably different
    control_pairs = 20
    control_labels = _control_labels(group)
    crossing = []
    for r1, r2 in sample_ribbon_pairs(lat, group, rng, control_pairs, deformations=False):
        h, g = rng.choice(control_labels)
        crossing.append((ribbon_F(lat, group, r1, h, g), ribbon_F(lat, group, r2, h, g)))
    tried = len(crossing)
    bad = sum(d > 0.1 for d in omega_distances(lat, group, crossing))
    rep.add(
        "crossing pairs break the naive invariance (negative control)",
        "plumbing",
        tried > 0 and bad == tried,
        float(tried - bad),
        f"{bad} of {tried} crossing pairs detectably differ; {tried} of {control_pairs} requested",
    )

    # inversion: the reversed ribbon with inverted labels acts identically
    sandwiches = []
    struct_ok = True
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
        mid = rng.choice(full_sites)
        Aop = as_opsum(star_g(lat, group, mid, rng.choice(group.elements())))
        sandwiches.append(
            as_opsum(ribbon_F(lat, group, r, h, g)) @ Aop @ as_opsum(ribbon_F(lat, group, r, l2, k2))
        )
        sandwiches.append(
            as_opsum(ribbon_F(lat, group, rbar, group.inv(h), group.inv(g)))
            @ Aop
            @ as_opsum(ribbon_F(lat, group, rbar, group.inv(l2), group.inv(k2)))
        )
    vals = omega_expectations(lat, group, sandwiches)
    errs = [abs(lhs - rhs) for lhs, rhs in zip(vals[::2], vals[1::2])]
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
    pair = crossing_pair(lat)
    lams = {(l1, l2): braiding_phase(lat, group, l1, l2, pair) for l1 in labels for l2 in labels}
    errs = []
    sym_errs = []
    for (l1, l2), lam in lams.items():
        pred = group.char_eval(l1.chi, l2.c) * group.char_eval(l2.chi, l1.c)
        errs.append(abs(lam - pred))
        sym_errs.append(abs(lam - lams[l2, l1]))
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
    sims = s_matrix_entries(lat, group, pairs, geom)

    errs = [abs(sim - s_matrix_formula(group, a, b)) for sim, (a, b) in zip(sims, pairs)]
    rep.add(
        "double-exchange table matches the closed formula",
        "S = conj(chi1)(d) conj(chi2)(c)",
        _max_err(errs) <= config.tol,
        _max_err(errs),
        f"{len(pairs)} entries, simulated via finite transporters",
    )

    rev = smatrix_geometry(lat, reversed_orientation=True)
    rev_pairs = pairs[: 2 * len(labels)]
    rev_errs = [
        abs(sim - np.conj(s_matrix_formula(group, a, b)))
        for sim, (a, b) in zip(s_matrix_entries(lat, group, rev_pairs, rev), rev_pairs)
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
    s0 = lat.site_at(lat.vertex_id(1, 1))
    far = lat.site_at(lat.vertex_id(2, 2) if lat.width > 2 else lat.vertex_id(0, 1))
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
    target = lat.site_at(lat.vertex_id(1, 1))
    # the far charge pair must land outside the detection loop: on a small
    # torus the far vertex sits on the loop's outer corner and the far face
    # in the unenclosed column
    far = Site(lat.vertex_id(0, 0), lat.face_id(lat.width - 1, lat.height - 1))
    labels = sector_labels(group)
    # one loop-projector expectation table over all charged states, and the
    # largest gap of each unordered pair of rows
    rows = loop_projector_table(lat, group, labels, target, far)
    table = np.abs([[rows[l1][k] for k in labels] for l1 in labels])
    gaps = np.concatenate([np.abs(table[i + 1 :] - table[i]).max(axis=1) for i in range(len(labels))])
    found_all = bool(np.all(np.abs(gaps - 1.0) <= config.tol))
    worst_gap = min(1.0, float(gaps.min()))
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
    s0 = plat.site_at(plat.vertex_id(0, 0))
    try:
        rho1 = ribbon_between(s0, plat.site_at(plat.vertex_id(2, 1)), plat)
        rho2 = ribbon_between(
            s0, plat.site_at(plat.vertex_id(1, 2)), plat, avoid_edges=rho1.edges(), allow_reversed=True
        )
        n = min(len(rho1), len(rho2))
        r1n, r2n = truncate(rho1, n), truncate(rho2, n)
        ident = AffineMap.identity(group, plat.n_edges)
        local = star_g(plat, group, plat.site_at(plat.vertex_id(1, 1)), group.elements()[-1])
        fixed, intertwined = [], []
        for label in labels[1:]:
            V = transporter(plat, group, label.chi, label.c, rho1, rho2, n)
            fixed.append((V, ident))
            # the transporter moves the dressed state of the first ribbon to
            # the second: V alpha1(A) Omega = alpha2(A) Omega for local A
            F1 = ribbon_F_irrep(plat, group, r1n, label.chi, label.c)
            F2 = ribbon_F_irrep(plat, group, r2n, label.chi, label.c)
            a1, a2 = conjugated(F1.adjoint(), local), conjugated(F2.adjoint(), local)
            intertwined.append((V.compose(a1), a2))
        dists = omega_distances(plat, group, fixed + intertwined)
        errs, intertwine_errs = dists[: len(fixed)], dists[len(fixed) :]
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
    # the block comes from the flat group, refused above its cap before
    # anything is enumerated
    sub = cone_subspace(cone, lat, group)
    detectors = detecting_exterior_sites(lat, cone)
    skip = small_cone_skip(cone, lat, group)
    rep.add(
        "cone subspace construction",
        "plumbing",
        sub.dim > 1,
        0.0,
        f"cone of {len(cone.edges)} edges, subspace dimension {sub.dim}"
        + (f"; ribbon closure check skipped: {skip}" if skip else ""),
    )

    if not skip:
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
    checks_detectors = detectors
    checks_lat, checks_cone = lat, cone
    note = ""
    if not detectors:
        checks_lat = Lattice(max(lat.width, 4), max(lat.height, 4), "plane")
        checks_cone = cone_make(
            (checks_lat.width - 2, checks_lat.height - 2), ["N", "E"], checks_lat
        )
        checks_detectors = detecting_exterior_sites(checks_lat, checks_cone)
        note = f" (run on {checks_lat.width}x{checks_lat.height}: the requested patch has no deep detector)"
    deep = external_charge_orthogonality_check(checks_cone, checks_lat, group, checks_detectors, rng)
    deep.details += note
    rep.checks.append(deep)
    boundary = boundary_maps(cone, lat, group, detectors, random.Random(config.seed + 2))
    rep.checks.append(boundary_membership_check(cone, lat, group, boundary))
    rep.checks += self_adjoint_density_check(sub)
    return rep


# -- split property surrogate -------------------------------------------------------------


def _random_local_op(
    lat: Lattice, group: AbelianGroup, edges: list[int], rng: random.Random
) -> OpSum:
    # each term is one map on 1 or 2 distinct edges: shifts sorted, characters
    # in sampling order, the map that composing single-edge maps gives
    terms = []
    for _ in range(rng.randrange(1, 4)):
        shifts, chars = [], []
        for e in rng.sample(edges, min(len(edges), rng.randrange(1, 3))):
            # packed indices: 0 is the identity, characters share the elements'
            gi, ci = rng.randrange(group.order), rng.randrange(group.order)
            if gi:
                shifts.append((e, gi))
            if ci:
                chars.append((ci, ((e, 1),), 0))
        m = AffineMap(group, lat.n_edges, shifts=tuple(sorted(shifts)), chars=tuple(chars))
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
    s1, s2 = set(b1), set(b2)
    plaquettes = ({e for e, _ in lat.plaq_edges(f)} for f in lat.faces())
    stars = (set(lat.star_edges_partial(v)) for v in range(lat.n_vertices))
    for kind, supports in (("star", stars), ("plaquette", plaquettes)):
        if any(sup & s1 and sup & s2 for sup in supports):
            raise LatticeError(
                f"the corner edge blocks of {format_lattice(lat)} share a {kind}: the factorization check needs them apart"
            )
    return b1, b2


def _triples(values: list) -> zip:
    """(ω(A), ω(B), ω(AB)) from a flat batch laid out as A, B, AB per pair."""
    return zip(values[::3], values[1::3], values[2::3])


def run_split(config: RunConfig, group: AbelianGroup, lat: Lattice, samples: int = 100) -> Report:
    rep = Report("split-check", config.__dict__.copy())
    rng = random.Random(config.seed)
    b1, b2 = _separated_blocks(lat)
    ops = []
    for _ in range(samples):
        A = _random_local_op(lat, group, b1, rng)
        B = _random_local_op(lat, group, b2, rng)
        ops += [A, B, A @ B]
    errs = [abs(wab - wa * wb) for wa, wb, wab in _triples(omega_expectations(lat, group, ops))]
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
    ops = []
    for _ in range(40):
        shared = sorted(set(b1) | {lat.edge_id("h", 0, 1) if lat.height > 2 else b1[0]})
        A = _random_local_op(lat, group, shared, rng)
        B = A.adjoint()
        ops += [A, B, A @ B]
    worst = 0.0
    for wa, wb, wab in _triples(omega_expectations(lat, group, ops)):
        worst = max(worst, abs(wab - wa * wb))
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
