"""Charge detection, sector distinguishability, transporters, fusion,
braiding and the modular S matrix.

Sector labels are pairs (character, group element). Charged states are
ribbon operators F applied to the ground state Ω; all sector data can be
extracted either operationally (detectors in charged states) or as exact
operator phases (braiding and the double exchange): the irrep ribbon
operators are Weyl maps, so two of them commute up to the phase of their
shifts and characters, without forming a product. A label sweep builds each
label's map once per ribbon and reads every pair's phase from one
``commutator_table`` of their ``weyl_rows``; the closed forms it is checked
against are ``character_products``. No charged state is built: a detector
X read on F Ω is the ground-state expectation of the charged-state
automorphism, <Ω|F† X F|Ω> / <Ω|F† F|Ω>, with each F† X F one map from
``operators.conjugated`` and all of a table's maps in one
``omega_expectations`` batch (fusion, loop projectors). Fusion reads its
charges as one array: the star moments of every F Ω against the character
table. The transporter checks compare images of Ω with ``omega_distances``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from .deform import crossing_number, is_deformation_pair
from .groups import AbelianGroup, Char, Element
from .lattice import (
    Lattice,
    LatticeError,
    Ribbon,
    Site,
    closed_loop_around,
    ribbon_between,
    ribbon_concat,
    straight_ribbon,
)
from .operators import (
    AffineMap,
    commutator_table,
    conjugated,
    loop_charge_projector,
    ribbon_F_irrep,
    star_g,
    weyl_rows,
)
from .groundstate import GroundStateError, omega_expectations, shift_fluxes


class SectorLabel(NamedTuple):
    chi: Char
    c: Element


def sector_labels(group: AbelianGroup) -> list[SectorLabel]:
    return [SectorLabel(chi, c) for chi in group.characters() for c in group.elements()]


def fuse_labels(group: AbelianGroup, a: SectorLabel, b: SectorLabel) -> SectorLabel:
    return SectorLabel(group.char_mul(a.chi, b.chi), group.mul(a.c, b.c))


# -- charge detection -----------------------------------------------------------------


def omega_charge_moments(
    lat: Lattice, group: AbelianGroup, s: Site, Fs: list[AffineMap]
) -> tuple[np.ndarray, np.ndarray]:
    """Star moments and flux at s of each state F Ω, without the state, in one
    ``omega_expectations`` batch of ``conjugated`` maps: row i of the
    (len(Fs) x |G|) moments is <Ω|F† A^k F|Ω> / <Ω|F† F|Ω> over the packed
    indices k, and fluxes[i] is a face flux index, read by incidence over the
    maps' shifts. F Ω lies on configurations c + shift(F) with c flat, and
    every face of the patch is complete, so the flux at s is that of F's
    shift on all of F Ω: the charge moment <A^k P_d> is the star moment for
    d = fluxes[i] and 0 for every other d."""
    stars = [AffineMap.identity(group, lat.n_edges)] + [star_g(lat, group, s, k) for k in group.elements()]
    vals = np.array(omega_expectations(lat, group, [conjugated(F, A) for F in Fs for A in stars]))
    vals = vals.reshape(len(Fs), len(stars))
    if not vals[:, 0].all():
        raise GroundStateError("the ribbon operator annihilates the ground state")
    owner, row, flux = shift_fluxes(lat, group, Fs)
    fluxes = np.zeros(len(Fs), dtype=np.int64)
    fluxes[owner[row == s.face]] = flux[row == s.face]
    return vals[:, 1:] / vals[:, :1], fluxes


# -- distinguishability ----------------------------------------------------------------


@dataclass(frozen=True)
class DistinguishResult:
    separator: Optional[SectorLabel]
    gap: float


def loop_projector_table(
    lat: Lattice,
    group: AbelianGroup,
    labels: list[SectorLabel],
    target: Site,
    far: Site,
) -> dict[SectorLabel, dict[SectorLabel, complex]]:
    """table[label][k] = <Ω|F† K_k F|Ω> / <Ω|F† F|Ω>: the loop charge
    projector K_k on the radius-1 loop around `target` in the charged state
    F Ω, F the irrep ribbon operator of `label` from `target` to `far` (the
    identity for the vacuum)."""
    loop = closed_loop_around(target, 1, lat)
    rho = ribbon_between(target, far, lat)
    projectors = {
        k: loop_charge_projector(lat, group, loop, k.chi, k.c) for k in sector_labels(group)
    }
    # the projectors share |G|^2 ribbon maps, one per (g, c): by linearity
    # each F† m F is read once and the terms summed with K's coefficients
    maps = [AffineMap.identity(group, lat.n_edges)]
    maps += dict.fromkeys(m for K in projectors.values() for _, m in K.terms)
    col = {m: j for j, m in enumerate(maps)}
    ops = []
    for label in labels:
        F = ribbon_F_irrep(lat, group, rho, label.chi, label.c)
        ops += [conjugated(F, m) for m in maps]
    vals = np.array(omega_expectations(lat, group, ops)).reshape(len(labels), len(maps)).tolist()
    return {
        label: {k: sum(c * means[col[m]] for c, m in K.terms) / means[0] for k, K in projectors.items()}
        for label, means in zip(labels, vals)
    }


def sector_distinguish(
    lat: Lattice,
    group: AbelianGroup,
    label1: SectorLabel,
    label2: SectorLabel,
    target: Site,
    far: Site,
) -> DistinguishResult:
    """Search the loop charge projectors for one whose expectation separates
    the two charged states with gap 1, the finite analogue of telling two
    superselection sectors apart by a distant measurement."""
    table = loop_projector_table(lat, group, [label1, label2], target, far)
    best: Optional[SectorLabel] = None
    best_gap = 0.0
    for k in sector_labels(group):
        gap = abs(table[label1][k] - table[label2][k])
        if gap > best_gap:
            best_gap = gap
            best = k
    return DistinguishResult(best if best_gap > 0.5 else None, float(best_gap))


# -- transporters ------------------------------------------------------------------------


def truncate(ribbon: Ribbon, n: int) -> Ribbon:
    if n < 1 or n > len(ribbon):
        raise LatticeError("truncation length out of range")
    return Ribbon(ribbon.triangles[:n], ribbon.start_site)


def transporter(
    lat: Lattice,
    group: AbelianGroup,
    chi: Char,
    c: Element,
    rho1: Ribbon,
    rho2: Ribbon,
    n: int,
) -> AffineMap:
    """Finite charge transporter between two same-start ribbons: the charge
    at the end of the first truncated ribbon is moved to the end of the
    second one, and the ground state is left invariant. The connector stays
    clear of both ribbons so the composite path is a proper deformation of
    the second ribbon."""
    if rho1.start != rho2.start:
        raise LatticeError("transporter needs ribbons starting at the same site")
    r1, r2 = truncate(rho1, min(n, len(rho1))), truncate(rho2, min(n, len(rho2)))
    if r1.triangles == r2.triangles:
        return AffineMap.identity(group, lat.n_edges)
    hat = ribbon_between(
        r1.end, r2.end, lat, avoid_edges=r1.edges() | r2.edges(), allow_reversed=True
    )
    if not is_deformation_pair(lat, group, ribbon_concat(r1, hat), r2):
        raise LatticeError("transporter path crosses the target ribbon")
    left = ribbon_F_irrep(lat, group, r2, chi, c)
    right = ribbon_F_irrep(
        lat, group, ribbon_concat(r1, hat), group.char_conj(chi), group.inv(c)
    )
    return left.compose(right)


# -- fusion ---------------------------------------------------------------------------------


def fusion_table(
    lat: Lattice,
    group: AbelianGroup,
    rho: Ribbon,
) -> dict[tuple[SectorLabel, SectorLabel], Optional[SectorLabel]]:
    """Operational fusion table: apply two ribbon operators along the same
    ribbon to the ground state and measure the composite charge at the start
    site (None where no label is definite). The charge projector of
    (xi, d) reads the mean of conj(xi(k)) mu(k, d), so one product of the
    star moments with the character table gives every xi at the one d that
    is not 0: the label is the first xi whose value is 1."""
    labels = sector_labels(group)
    ops = {l: ribbon_F_irrep(lat, group, rho, l.chi, l.c) for l in labels}
    pairs = [(a, b) for a in labels for b in labels]
    moments, fluxes = omega_charge_moments(lat, group, rho.start, [ops[a].compose(ops[b]) for a, b in pairs])
    t = group.tables()
    definite = np.abs(moments @ np.conj(t["roots"][t["char_num"]]).T / group.order - 1.0) < 1e-9
    elements = group.elements()
    return {
        pair: SectorLabel(elements[row.argmax()], elements[d]) if row.any() else None
        for pair, row, d in zip(pairs, definite, fluxes.tolist())
    }


# -- braiding ----------------------------------------------------------------------------------


def crossing_pair(lat: Lattice) -> tuple[Ribbon, Ribbon]:
    """Once-crossing pair at the centre (x, y): `steps` north from vertex
    (x+1, y-1), whose operator picks up the phase when commuted right, and east
    from (x-1, y). On a plane they need faces x-1..x+steps-1 (and the same
    rows), a side of 2*steps+1; a shorter torus side than `steps` folds them."""
    steps = 3
    kind, side = ("torus", steps) if lat.is_torus else ("plane patch", 2 * steps + 1)
    if min(lat.width, lat.height) < side:
        raise LatticeError(
            f"the crossing pair needs a {kind} of at least {side}x{side}, not {lat.width}x{lat.height}"
        )
    x, y = lat.width // 2, lat.height // 2
    rho = straight_ribbon(lat, x + 1, y - 1, "N", steps)
    sigma = straight_ribbon(lat, x - 1, y, "E", steps)
    return rho, sigma


def braiding_phases(
    lat: Lattice, group: AbelianGroup, labels: list[SectorLabel], pair: tuple[Ribbon, Ribbon]
) -> np.ndarray:
    """Scalars lambda[i, j] with F_i F_j = lambda F_j F_i for the once-crossing
    ribbon `pair` (``crossing_pair``): labels[i] rides the first, north
    ribbon and labels[j] the second, east one. Each label's irrep map is
    built once per ribbon, and the table is one ``commutator_table``."""
    rows = [weyl_rows([ribbon_F_irrep(lat, group, r, l.chi, l.c) for l in labels]) for r in pair]
    return group.tables()["roots"][commutator_table(group, *rows)]


def character_products(
    group: AbelianGroup, pairs: list[tuple[SectorLabel, SectorLabel]], conj: bool = False
) -> list[complex]:
    """Closed form chi1(c2) chi2(c1) of each label pair in the list `pairs`,
    or with both characters conjugated (the double-exchange entry): one
    product of Python complexes from the character table per pair, to the
    bit the product of two ``char_eval`` values (numpy's vectorized complex
    product rounds some pairs of roots differently)."""
    t = group.tables()
    table = t["roots"][t["char_num"]].tolist()
    if conj:
        table = [[v.conjugate() for v in row] for row in table]
    ix = {l: (group.index_of(l.chi), group.index_of(l.c)) for l in set(itertools.chain.from_iterable(pairs))}
    return [table[ix[a][0]][ix[b][1]] * table[ix[b][0]][ix[a][1]] for a, b in pairs]


# -- S matrix ------------------------------------------------------------------------------------


@dataclass(frozen=True)
class SMatrixGeometry:
    """Ribbon layout for the double-exchange simulation: alpha's ribbon runs
    north from the base row; beta's ribbon and its transported copy share a
    start to alpha's right, heading east and (under the base) west; the
    connector arcs over the top, crossing alpha's ribbon exactly once."""

    rho1: Ribbon  # alpha, north
    rho2_hat: Ribbon  # beta transported to the west
    transport2: Ribbon  # beta's ribbon, then its connector to the end of rho2_hat, crossing rho1 once


def smatrix_geometry(lat: Lattice, reversed_orientation: bool = False) -> SMatrixGeometry:
    """Explicit ribbon layout for the double exchange. Beta's ribbon and its
    transported copy head north, two columns right and left of alpha; the
    connector runs west above them, threading through alpha's ribbon exactly
    once. Alpha's ribbon runs south from the top: that relative orientation
    realizes moving beta's charge through the exchange on the side that
    reproduces the stated table. `reversed_orientation` runs alpha's ribbon
    north instead, which mirrors the exchange handedness and must conjugate
    every entry (negative control)."""
    if lat.is_torus or lat.width < 7 or lat.height < 7:
        raise LatticeError("double-exchange geometry needs a plane patch of at least 7x7")
    bx = lat.width // 2  # alpha's column
    by = 2  # base row
    n = 2  # beta truncation in steps
    top = lat.height - 1

    if reversed_orientation:
        rho1 = straight_ribbon(lat, bx, by, "N", top - by, drop_last_dual=True)
    else:
        rho1 = straight_ribbon(lat, bx, top, "S", top - by, drop_last_dual=True)
    rho2 = straight_ribbon(lat, bx + 2, by, "N", n, drop_last_dual=True)
    rho2_hat = straight_ribbon(lat, bx - 2, by, "N", n, drop_last_dual=True)
    kappa = straight_ribbon(lat, bx + 2, by + n, "W", 4)
    # wiring checks: the connector chains exactly onto the ribbon ends, and
    # beta's path crosses alpha's ribbon exactly once
    if kappa.start != rho2.end or kappa.end != rho2_hat.end:
        raise LatticeError("beta connector endpoints do not match")
    transport2 = ribbon_concat(rho2, kappa)
    if crossing_number(rho1, transport2) % 2 == 0:
        raise LatticeError("beta connector fails to cross alpha's ribbon")
    return SMatrixGeometry(rho1, rho2_hat, transport2)


def s_matrix_entries(
    lat: Lattice,
    group: AbelianGroup,
    pairs: list[tuple[SectorLabel, SectorLabel]],
    geom: SMatrixGeometry,
) -> list[complex]:
    """Double-exchange (monodromy) scalar of each pair of sectors, simulated
    with finite transporters on the layout `geom` (``smatrix_geometry``);
    the first label rides the north ribbon as the spectator. The exchange
    moves the second label's charge with V = hat transport, the irrep maps
    of its label on the hat ribbon and of the conjugate label on the
    transport path, and reads the phase of V* Fs V Fs*, Fs the spectator's
    map: the commutator phases of Fs with both factors of V. Moving the
    first charge instead, past the second's ribbon, would add nothing: no
    path of it shares an edge with that ribbon. The irrep map of each label
    on each ribbon is built once, and the phases are two
    ``commutator_table``s: the spectators against the hats and against the
    transports."""
    firsts = list(dict.fromkeys(a for a, _ in pairs))
    seconds = list(dict.fromkeys(b for _, b in pairs))

    def rows(ribbon: Ribbon, labels: list[SectorLabel]):
        return weyl_rows([ribbon_F_irrep(lat, group, ribbon, l.chi, l.c) for l in labels])

    north = rows(geom.rho1, firsts)
    back = [SectorLabel(group.char_conj(l.chi), group.inv(l.c)) for l in seconds]
    phases = commutator_table(group, north, rows(geom.rho2_hat, seconds))
    phases += commutator_table(group, north, rows(geom.transport2, back))
    table = group.tables()["roots"][phases % group.phase_denominator].tolist()
    row, col = {l: i for i, l in enumerate(firsts)}, {l: j for j, l in enumerate(seconds)}
    return [table[row[a]][col[b]] for a, b in pairs]
