"""Ribbon, star, plaquette and loop charge operators.

Every elementary operator here maps a configuration basis vector to at most
one basis vector with a unit-modulus coefficient. Such maps close under
composition and adjoints, so they get one exact normal form, ``AffineMap``:

* a group shift per touched edge (the dual-triangle action),
* affine delta constraints (the direct-triangle flux projections),
* character phases evaluated on affine flux expressions,
* one global phase.

Every field is a packed index or an integer: characters are packed indices
like elements (the dual group shares the presentation), and phases are
numerators mod the group's ``phase_denominator`` L, read through the
group's ``char_num`` and ``roots`` tables.

Sums with scalar coefficients (projectors, Hamiltonians) are ``OpSum``.
Operators are read row by row from ``AffineMap.eval``: on any set of
configurations a map is a monomial matrix, one target and one phase per
row. Operator identities are checked
exactly by ``ops_equal``, from normal forms or on the configurations of the
edges that deltas and characters read; ``commutator_phase`` needs neither,
and ``conjugated`` forms f* m f without an adjoint or a product. Only
the torus exact-diagonalization cross-check and the test oracles build
whole matrices (``support_matrix``, ``to_matrix``), so scipy is imported
there and not with the package.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

import numpy as np

from .groups import AbelianGroup, Char, Element, codes, digit_rows
from .lattice import Lattice, LatticeError, Region, Ribbon, Site, positive_moves

if TYPE_CHECKING:
    import scipy.sparse as sp

MATRIX_DIM_CAP = 1 << 20
CONFIG_BYTES_CAP = 1 << 26  # uint8 configuration rows x edges, checked before allocating

Coeffs = tuple[tuple[int, int], ...]  # ((edge, sign), ...), sign in {+1, -1}


class OperatorError(ValueError):
    """Operator construction or materialization is not admissible."""


def _fold_shift(shifts: dict[int, int], coeffs: Coeffs, add, neg) -> int:
    """Packed index of the sum of sign*shifts[edge] over the expression."""
    acc = 0
    for e, sign in coeffs:
        s = shifts.get(e, 0)
        acc = add[acc][s if sign > 0 else neg[s]]
    return acc


def commutator_phase(a: AffineMap, b: AffineMap) -> int:
    """Numerator lambda with a b = lambda b a for maps without deltas: a's characters
    read on b's shifts minus b's on a's (qudit X Z = omega Z X), additive in a and b."""
    if a.deltas or b.deltas:
        raise OperatorError("commutator phase needs maps without deltas")
    g = a.group
    add, neg, char_num = g.index_tables

    def picked_up(m: AffineMap, other: AffineMap) -> int:
        shifts = dict(other.shifts)
        return sum(char_num[ci][_fold_shift(shifts, coeffs, add, neg)] for ci, coeffs, _ in m.chars)

    return (picked_up(a, b) - picked_up(b, a)) % g.phase_denominator


@dataclass(frozen=True)
class AffineMap:
    """Basis map |m> -> phase(m) * delta(m) * |m + shift|."""

    group: AbelianGroup
    n_edges: int
    shifts: tuple[tuple[int, int], ...] = ()  # (edge, group index), sorted by edge
    deltas: tuple[tuple[Coeffs, int], ...] = ()  # (affine flux expression, target index)
    chars: tuple[tuple[int, Coeffs, int], ...] = ()  # (character index, flux expr, offset index)
    phase: int = 0  # global phase numerator mod group.phase_denominator

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def identity(group: AbelianGroup, n_edges: int) -> "AffineMap":
        return AffineMap(group, n_edges)

    # -- structure ------------------------------------------------------------

    def support(self) -> frozenset[int]:
        return self.diagonal_edges() | {e for e, _ in self.shifts}

    def diagonal_edges(self) -> frozenset[int]:
        """Edges read by the delta and character expressions: the only edges
        the coefficient phase(m) * delta(m) depends on."""
        out: set[int] = set()
        for coeffs, _ in self.deltas:
            out.update(e for e, _ in coeffs)
        for _, coeffs, _ in self.chars:
            out.update(e for e, _ in coeffs)
        return frozenset(out)

    # -- algebra ----------------------------------------------------------------

    def compose(self, first: "AffineMap") -> "AffineMap":
        """self after first (operator product self * first)."""
        g = self.group
        if g != first.group or self.n_edges != first.n_edges:
            raise OperatorError("maps live on different lattices or groups")
        add, neg, _ = g.index_tables
        shifts = dict(first.shifts)
        # self's constraints read the input already shifted by `first`
        new_deltas = list(first.deltas)
        for coeffs, target in self.deltas:
            new_deltas.append((coeffs, add[target][neg[_fold_shift(shifts, coeffs, add, neg)]]))
        new_chars = list(first.chars)
        for ci, coeffs, offset in self.chars:
            new_chars.append((ci, coeffs, add[offset][_fold_shift(shifts, coeffs, add, neg)]))
        for e, gi in self.shifts:
            shifts[e] = add[shifts.get(e, 0)][gi]
        new_shifts = tuple(sorted((e, v) for e, v in shifts.items() if v))
        return AffineMap(
            g,
            self.n_edges,
            new_shifts,
            tuple(new_deltas),
            tuple(new_chars),
            (self.phase + first.phase) % g.phase_denominator,
        )

    def adjoint(self) -> "AffineMap":
        g = self.group
        add, neg, _ = g.index_tables
        inv_shifts = tuple(sorted((e, neg[gi]) for e, gi in self.shifts))
        undo = dict(inv_shifts)
        new_deltas = tuple(
            (coeffs, add[target][neg[_fold_shift(undo, coeffs, add, neg)]])
            for coeffs, target in self.deltas
        )
        new_chars = tuple(
            (neg[ci], coeffs, add[offset][_fold_shift(undo, coeffs, add, neg)])
            for ci, coeffs, offset in self.chars
        )
        return AffineMap(
            g, self.n_edges, inv_shifts, new_deltas, new_chars, -self.phase % g.phase_denominator
        )

    # -- evaluation ----------------------------------------------------------------

    def eval(self, configs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(alive mask, phase numerators mod L, shifted configs) for given rows."""
        alive, pnum = self.diagonal(configs)
        add = self.group.tables()["add"]
        out = configs.copy()
        for e, gi in self.shifts:
            out[:, e] = add[out[:, e].astype(np.int64), gi].astype(configs.dtype)
        return alive, pnum, out

    def diagonal(self, configs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(alive mask, phase numerators mod L) for given rows: the map's
        coefficient on each row, without the shift."""
        t = self.group.tables()
        add, neg, char_num = t["add"], t["neg"], t["char_num"]
        n = configs.shape[0]
        alive = np.ones(n, dtype=bool)
        for coeffs, target in self.deltas:
            acc = np.zeros(n, dtype=np.int64)
            for e, sign in coeffs:
                col = configs[:, e].astype(np.int64)
                acc = add[acc, col if sign > 0 else neg[col]]
            alive &= acc == target
        L = self.group.phase_denominator
        pnum = np.full(n, self.phase, dtype=np.int64)
        for ci, coeffs, offset in self.chars:
            acc = np.full(n, offset, dtype=np.int64)
            for e, sign in coeffs:
                col = configs[:, e].astype(np.int64)
                acc = add[acc, col if sign > 0 else neg[col]]
            pnum = (pnum + char_num[ci, acc]) % L
        return alive, pnum


def conjugated(f: AffineMap, m: AffineMap) -> AffineMap:
    """f* m f in one pass, for any two maps: m reads the input shifted by f's
    shift, f's deltas hold at x and at x + m's shift, and each character of f,
    read at both, leaves the constant -chi(expr(m's shift)); f's shift,
    offsets and phase cancel."""
    g = m.group
    if g != f.group or m.n_edges != f.n_edges:
        raise OperatorError("maps live on different lattices or groups")
    add, neg, char_num = g.index_tables
    fs, ms = dict(f.shifts), dict(m.shifts)
    deltas = [(cs, add[t][neg[_fold_shift(fs, cs, add, neg)]]) for cs, t in m.deltas] + list(f.deltas)
    deltas += [(cs, add[t][neg[_fold_shift(ms, cs, add, neg)]]) for cs, t in f.deltas]
    chars = tuple((ci, cs, add[off][_fold_shift(fs, cs, add, neg)]) for ci, cs, off in m.chars)
    phase = m.phase - sum(char_num[ci][_fold_shift(ms, cs, add, neg)] for ci, cs, _ in f.chars)
    return AffineMap(g, m.n_edges, m.shifts, tuple(deltas), chars, phase % g.phase_denominator)


@dataclass(frozen=True)
class OpSum:
    """Finite linear combination of AffineMaps."""

    terms: tuple[tuple[complex, AffineMap], ...]

    @staticmethod
    def of(*maps: AffineMap) -> "OpSum":
        return OpSum(tuple((1.0 + 0.0j, m) for m in maps))

    @staticmethod
    def weighted(pairs: Iterable[tuple[complex, AffineMap]]) -> "OpSum":
        return OpSum(tuple((complex(c), m) for c, m in pairs))

    def __add__(self, other: "OpSum") -> "OpSum":
        return OpSum(self.terms + other.terms)

    def __sub__(self, other: "OpSum") -> "OpSum":
        return self + other.scaled(-1.0)

    def scaled(self, c: complex) -> "OpSum":
        return OpSum(tuple((a * c, m) for a, m in self.terms))

    def compose(self, first: "OpSum") -> "OpSum":
        return OpSum(
            tuple(
                (a * b, ma.compose(mb))
                for a, ma in self.terms
                for b, mb in first.terms
            )
        )

    def __matmul__(self, first: "OpSum") -> "OpSum":
        return self.compose(first)

    def adjoint(self) -> "OpSum":
        return OpSum(tuple((np.conj(a), m.adjoint()) for a, m in self.terms))

    def support(self) -> frozenset[int]:
        out: set[int] = set()
        for _, m in self.terms:
            out |= m.support()
        return frozenset(out)

    # -- action -----------------------------------------------------------------

    def apply(self, psi):
        """The sum applied to a ``SparseState``; no check calls it, but the
        benchmark's traced pass (perfbench/spans.py) wraps it by name."""
        from .states import SparseState

        if not self.terms:
            return SparseState.zero(psi.n_edges, psi.radix)
        group = self.terms[0][1].group
        roots = group.tables()["roots"]
        parts_c, parts_a = [], []
        for coeff, m in self.terms:
            alive, pnum, out = m.eval(psi.configs)
            if not alive.any():
                continue
            parts_c.append(out[alive])
            parts_a.append(psi.amps[alive] * roots[pnum[alive]] * coeff)
        if not parts_c:
            return SparseState.zero(psi.n_edges, psi.radix)
        return SparseState.from_terms(
            np.concatenate(parts_c), np.concatenate(parts_a), psi.n_edges, psi.radix
        )


def as_opsum(op) -> OpSum:
    if isinstance(op, AffineMap):
        return OpSum.of(op)
    if isinstance(op, OpSum):
        return op
    raise OperatorError(f"not an operator: {op!r}")


def canonical(m: AffineMap) -> Optional[AffineMap]:
    """Unique normal form of an AffineMap, or None for the zero operator.
    Two maps with equal normal forms are equal as operators; maps built from
    the same ribbon expressions compare completely."""
    g = m.group
    add, neg, char_num = g.index_tables

    def norm_expr(coeffs: Coeffs):
        cs = tuple(sorted(coeffs))
        if cs and cs[0][1] < 0:
            return tuple((e, -s) for e, s in cs), True
        return cs, False

    delta_map: dict[Coeffs, int] = {}
    for coeffs, target in m.deltas:
        cs, flipped = norm_expr(coeffs)
        t = neg[target] if flipped else target
        if not cs and t:
            return None  # empty expression can only hit the identity
        if not cs:
            continue
        if delta_map.setdefault(cs, t) != t:
            return None  # conflicting constraints annihilate everything

    # each character's constant part goes into the global phase, leaving chi
    # evaluated at the bare expression
    pnum = m.phase
    char_map: dict[Coeffs, int] = {}
    for ci, coeffs, offset in m.chars:
        pnum += char_num[ci][offset]
        cs, flipped = norm_expr(coeffs)
        if cs:
            char_map[cs] = add[char_map.get(cs, 0)][neg[ci] if flipped else ci]
    chars = tuple(sorted((ci, cs, 0) for cs, ci in char_map.items() if ci))
    return AffineMap(
        g,
        m.n_edges,
        tuple(sorted(m.shifts)),
        tuple(sorted(delta_map.items())),
        chars,
        pnum % g.phase_denominator,
    )


def same_action(a: AffineMap, b: AffineMap) -> bool:
    """Exact structural operator equality via normal forms."""
    return canonical(a) == canonical(b)


# -- matrix materialization --------------------------------------------------------


def enumerate_configs(edges: Sequence[int], n_edges: int, radix: int) -> np.ndarray:
    """All configurations supported on `edges`, zero elsewhere."""
    k = len(edges)
    n = radix**k
    nbytes = n * n_edges
    if n > MATRIX_DIM_CAP or nbytes > CONFIG_BYTES_CAP:
        raise OperatorError(
            f"support enumeration of {radix}^{k} = {n} rows x {n_edges} edges"
            f" ({nbytes} bytes) is above the cap of {MATRIX_DIM_CAP} rows"
            f" and {CONFIG_BYTES_CAP} bytes"
        )
    configs = np.zeros((n, n_edges), dtype=np.uint8)
    configs[:, list(edges)] = digit_rows(radix, k)
    return configs


def support_matrix(op, support: Sequence[int], n_edges: int) -> sp.csr_matrix:
    """Matrix of the operator on the configuration space of the given edges.

    Faithful for any operator whose support is contained in `support`: the
    action then factorizes as (matrix on support) tensor (identity)."""
    import scipy.sparse as sp

    opsum = as_opsum(op)
    if not opsum.terms:
        dim = 1
        return sp.csr_matrix((dim, dim), dtype=np.complex128)
    group = opsum.terms[0][1].group
    radix = group.order
    support = sorted(support)
    if not (opsum.support() <= set(support)):
        raise OperatorError("operator touches edges outside the requested support")
    configs = enumerate_configs(support, n_edges, radix)
    n = configs.shape[0]
    cols = np.arange(n, dtype=np.int64)
    roots = group.tables()["roots"]
    mats = []
    for coeff, m in opsum.terms:
        alive, pnum, out = m.eval(configs)
        rows = codes(out, support, radix)
        data = np.where(alive, roots[pnum] * coeff, 0.0)
        mats.append(sp.coo_matrix((data[alive], (rows[alive], cols[alive])), shape=(n, n)))
    total = mats[0].tocsr()
    for mtx in mats[1:]:
        total = total + mtx.tocsr()
    return total


def to_matrix(op, lat: Lattice) -> sp.csr_matrix:
    """Matrix over the full configuration space (refused above the cap)."""
    return support_matrix(op, list(lat.edges()), lat.n_edges)


def ops_equal(a, b, n_edges: int) -> float:
    """Max entrywise deviation between two operators on their joint support
    subspace (an operator identity holds iff this is ~0).

    A map sends |m> to c phase(m) delta(m) |m + s>, so in column m terms
    with different shifts s land on different rows, and the entry at
    (m + s, m) of a - b is the sum over the terms with shift s. That sum
    reads m only on the diagonal edges (those of delta and character
    expressions); shifted edges move the row but change no entry. The max
    |bucket sum| over the diagonal edges' configurations alone is therefore
    the max entry of support_matrix(a) - support_matrix(b), from |G|^d rows
    instead of |G|^k. One nonzero term a side, equal in coefficient and normal form: 0.0."""
    terms = [(0, c, m) for c, m in as_opsum(a).terms] + [(1, c, m) for c, m in as_opsum(b).terms]
    live = [(side, c, canonical(m)) for side, c, m in terms if c != 0]
    live = [t for t in live if t[2] is not None]
    if not live or [t[0] for t in live] == [0, 1] and live[0][1:] == live[1][1:]:
        return 0.0
    group = terms[0][2].group
    diagonal = set().union(*(m.diagonal_edges() for _, _, m in terms))
    configs = enumerate_configs(sorted(diagonal), n_edges, group.order)
    roots = group.tables()["roots"]
    # per shift, a's and b's sums kept apart: their difference rounds as the
    # difference of the two summed matrices does
    buckets: dict[tuple, list] = {}
    for side, coeff, m in terms:
        alive, pnum = m.diagonal(configs)
        shift = tuple(sorted((e, gi) for e, gi in m.shifts if gi))
        sums = buckets.setdefault(shift, [0.0, 0.0])
        sums[side] = sums[side] + np.where(alive, roots[pnum] * coeff, 0.0)
    return max(float(np.max(np.abs(np.subtract(*sums)))) for sums in buckets.values())


def _dual_shifts(group: AbelianGroup, duals: Coeffs, gi: int) -> tuple[tuple[int, int], ...]:
    """Sorted (edge, index) shifts by gi along each dual edge's sign, or by
    its inverse against it; none when gi is the identity."""
    if not gi:
        return ()
    neg = group.index_tables[1]
    return tuple(sorted((e, gi if sign > 0 else neg[gi]) for e, sign in duals))


def ribbon_F(lat: Lattice, group: AbelianGroup, ribbon: Ribbon, g: Element, h: Element) -> AffineMap:
    """Ribbon operator in the group-element basis: project the accumulated
    direct-edge flux onto h and shift every dual edge by g (with signs).
    The trivial ribbon gives the identity."""
    if ribbon.is_trivial:
        return AffineMap.identity(group, lat.n_edges)
    flux, duals = ribbon.parts
    shifts = _dual_shifts(group, duals, group.index_of(g))
    # with no direct triangles the empty flux expression makes this delta_{h,e}
    deltas = ((flux, group.index_of(h)),)
    return AffineMap(group, lat.n_edges, shifts, deltas)


def ribbon_F_irrep(
    lat: Lattice, group: AbelianGroup, ribbon: Ribbon, chi: Char, c: Element
) -> AffineMap:
    """Ribbon operator in the irreducible-representation basis: the sum over
    flux labels collapses on each basis state, leaving the phase
    conj(chi)(flux) and a dual shift by the inverse of c. Unitary."""
    if ribbon.is_trivial:
        raise OperatorError("irrep ribbon operators need a nonempty ribbon")
    flux, duals = ribbon.parts
    neg = group.index_tables[1]
    shifts = _dual_shifts(group, duals, neg[group.index_of(c)])
    ci = group.index_of(chi)
    chars = ((neg[ci], flux, 0),) if ci else ()
    return AffineMap(group, lat.n_edges, shifts, (), chars)


# -- site operators -------------------------------------------------------------------


def _closed_walk(lat: Lattice, s: Site, kind: str) -> Ribbon:
    """Four positive moves of the given kind from s: once around its vertex
    (dual) or its face (direct), built once per site in ``lat.closed_walks``."""
    if (s, kind) in lat.closed_walks:
        return lat.closed_walks[s, kind]
    tris = []
    site = s
    for _ in range(4):
        step = [t for t in positive_moves(lat, site, None) if t.kind == kind]
        if not step:  # no face beyond a plane patch's rim
            raise LatticeError(f"vertex {s.vertex} has an incomplete star")
        tris.append(step[0])
        site = step[0].s1
    ribbon = lat.closed_walks[s, kind] = Ribbon.from_triangles(tris)
    return ribbon


def alpha_ribbon(lat: Lattice, s: Site) -> Ribbon:
    """Smallest closed dual ribbon at s: clockwise around the vertex."""
    return _closed_walk(lat, s, "dual")


def beta_ribbon(lat: Lattice, s: Site) -> Ribbon:
    """Smallest closed direct ribbon at s: counterclockwise around the face."""
    return _closed_walk(lat, s, "direct")


def star_g(lat: Lattice, group: AbelianGroup, s: Site, g: Element) -> AffineMap:
    return ribbon_F(lat, group, alpha_ribbon(lat, s), g, group.identity())


def plaq_h(lat: Lattice, group: AbelianGroup, s: Site, h: Element) -> AffineMap:
    return ribbon_F(lat, group, beta_ribbon(lat, s), group.identity(), group.inv(h))


def star_proj(lat: Lattice, group: AbelianGroup, s: Site) -> OpSum:
    w = 1.0 / group.order
    return OpSum.weighted((w, star_g(lat, group, s, g)) for g in group.elements())


def plaq_proj(lat: Lattice, group: AbelianGroup, s: Site) -> OpSum:
    return OpSum.of(plaq_h(lat, group, s, group.identity()))


def loop_charge_projector(
    lat: Lattice, group: AbelianGroup, loop: Ribbon, sigma: Char, c: Element
) -> OpSum:
    """Projector onto total charge (sigma, c) enclosed by a closed ribbon."""
    if not loop.is_closed:
        raise OperatorError("loop charge projector needs a closed ribbon")
    terms = []
    for g in group.elements():
        coeff = complex(np.conj(group.char_eval(sigma, g))) / group.order
        terms.append((coeff, ribbon_F(lat, group, loop, g, c)))
    return OpSum.weighted(terms)


# -- Hamiltonian -------------------------------------------------------------------


def complete_stars(lat: Lattice, region: Optional[Region] = None) -> list[int]:
    out = []
    for v in range(lat.n_vertices):
        if not lat.has_full_star(v):
            continue
        if region is not None and not set(lat.star_edges(v)) <= region.edges:
            continue
        out.append(v)
    return out


def complete_plaquettes(lat: Lattice, region: Optional[Region] = None) -> list[int]:
    out = []
    for f in lat.faces():
        edges = {e for e, _ in lat.plaq_edges(f)}
        if region is not None and not edges <= region.edges:
            continue
        out.append(f)
    return out


def _site_at_face(lat: Lattice, f: int) -> Site:
    return Site(lat.face_corners_ccw(f)[0], f)


def hamiltonian(lat: Lattice, group: AbelianGroup, region: Optional[Region] = None) -> OpSum:
    """-sum(star projectors) - sum(plaquette projectors) over the complete
    stars and plaquettes (of the region, when one is given)."""
    stars = complete_stars(lat, region)
    plaqs = complete_plaquettes(lat, region)
    if not stars and not plaqs:
        raise OperatorError("region contains no complete star or plaquette")
    total = OpSum(())
    for v in stars:
        total = total + star_proj(lat, group, lat.site_at(v)).scaled(-1.0)
    for f in plaqs:
        total = total + plaq_proj(lat, group, _site_at_face(lat, f)).scaled(-1.0)
    return total
