"""Ribbon, star, plaquette and loop charge operators.

Every elementary operator here maps a configuration basis vector to at most
one basis vector with a unit-modulus coefficient. Such maps close under
composition and adjoints, so they get one exact normal form, ``AffineMap``:

* a group shift per touched edge (the dual-triangle action),
* affine delta constraints (the direct-triangle flux projections),
* a character per read edge: chi evaluated on sum_e s_e x_e + o is
  chi(o) prod_e chi^(s_e)(x_e), so any character phase is one character
  index per edge and a constant in the global phase,
* one global phase.

Every field is a packed index or an integer: characters are packed indices
like elements (the dual group shares the presentation), and phases are
numerators mod the group's ``phase_denominator`` L, read through the
group's ``char_num`` and ``roots`` tables. Shifts and characters are
sorted by edge, one entry per edge, none the identity.

Sums with scalar coefficients (projectors, Hamiltonians) are ``OpSum``.
Operators are read row by row from ``AffineMap.eval``: on any set of
configurations a map is a monomial matrix, one target and one phase per
row. Operator identities are checked exactly by ``ops_equal``: from
normal forms (complete without deltas), for one map a side from the
coefficient values the two attain (the image of their delta and character
rows, through ``groups.diagonal_form``), and otherwise on the
configurations of the edges that deltas and characters read.
``commutator_phase`` reads the phase relating a b and b a, or its absence,
off the two delta systems and the characters without forming either
product. A map's shifts and characters are an integer row (x | z) of
residues (``weyl_rows``), and where neither map's deltas read the other's
shift the phase of two maps is the symplectic form of their rows, so
``commutator_table`` reads a whole family of pairs as one integer product.
``conjugated`` forms f* m f without an adjoint or a product. Only
the torus exact-diagonalization cross-check and the test oracles build
whole matrices (``support_matrix``, ``to_matrix``), so scipy is imported
there and not with the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

import numpy as np

from .groups import AbelianGroup, Char, Element, codes, diagonal_form, digit_rows
from .lattice import Lattice, LatticeError, Region, Ribbon, Site, positive_moves

if TYPE_CHECKING:
    import scipy.sparse as sp

MATRIX_DIM_CAP = 1 << 20
CONFIG_BYTES_CAP = 1 << 26  # uint8 configuration rows x edges, checked before allocating
NO_PHASE = -1  # commutator_table's entry where no phase relates the two products

Coeffs = tuple[tuple[int, int], ...]  # ((edge, sign), ...), sign in {+1, -1}


class OperatorError(ValueError):
    """Operator construction or materialization is not admissible."""


def _moved_deltas(m: AffineMap, shifts: dict[int, int]) -> list[tuple[Coeffs, int]]:
    """m's deltas read on an input moved by `shifts`: expr(x + s) = t is expr(x) = t - expr(s)."""
    add, neg, _ = m.group.index_tables
    out = []
    for cs, t in m.deltas:
        for e, sign in cs:
            s = shifts.get(e, 0)
            t = add[t][neg[s] if sign > 0 else s]
        out.append((cs, t))
    return out


def _picked_up(m: AffineMap, shifts: dict[int, int]) -> int:
    """Phase numerator m's characters pick up on `shifts`: the sum of chi_e(s_e)."""
    char_num = m.group.index_tables[2]
    return sum(char_num[ci][shifts.get(e, 0)] for e, ci in m.chars)


def _normal_deltas(deltas: Iterable[tuple[Coeffs, int]], neg) -> Optional[dict[Coeffs, int]]:
    """A delta system as {normalized expression: target}, or None when it
    annihilates everything (a conflict, or an empty expression with a
    nonidentity target). An expression is normalized sorted, with a
    positive leading sign."""
    out: dict[Coeffs, int] = {}
    for coeffs, target in deltas:
        cs = tuple(sorted(coeffs))
        if cs and cs[0][1] < 0:
            cs, target = tuple((e, -s) for e, s in cs), neg[target]
        if not cs:
            if target:
                return None
            continue
        if out.setdefault(cs, target) != target:
            return None
    return out


def commutator_phase(a: AffineMap, b: AffineMap) -> Optional[int]:
    """Numerator lambda with a b = omega^lambda b a as normal forms, or None
    when no phase relates the two products; 0 when both are zero.

    a b keeps b's deltas and a's read on b's shift, b a the mirror system;
    their characters and shifts agree. When the two delta systems agree the
    products differ only by a's characters read on b's shifts minus b's on
    a's (qudit X Z = omega Z X), additive in a and b."""
    neg = a.group.index_tables[1]
    sa, sb = dict(a.shifts), dict(b.shifts)
    ab = _normal_deltas(list(b.deltas) + _moved_deltas(a, sb), neg)
    if ab != _normal_deltas(list(a.deltas) + _moved_deltas(b, sa), neg):
        return None
    if ab is None:
        return 0
    return (_picked_up(a, sb) - _picked_up(b, sa)) % a.group.phase_denominator


def weyl_rows(maps: Sequence[AffineMap]) -> tuple[np.ndarray, np.ndarray]:
    """(x, z) of the maps: the residues of each map's shifts and of its
    characters per edge, two (maps x edges x factors) integer arrays, zero
    off the map's edges. Deltas are not packed."""
    packed = np.zeros((2, len(maps), maps[0].n_edges), dtype=np.int64)
    for i, m in enumerate(maps):
        for side, entries in enumerate((m.shifts, m.chars)):
            for e, v in entries:
                packed[side, i, e] = v
    x, z = maps[0].group.tables()["digits"][packed]
    return x, z


def _reads_shift(maps: Sequence[AffineMap], x: np.ndarray) -> np.ndarray:
    """(maps x shifts) True where a delta expression of maps[i] reads a
    nonzero value on the shift with x row x[j]: the signed coefficient rows
    times the x rows, per cyclic factor."""
    owner = np.array([i for i, m in enumerate(maps) for _ in m.deltas], dtype=np.int64)
    signs = np.zeros((len(owner), x.shape[1]), dtype=np.int64)
    for r, (cs, _) in enumerate(d for m in maps for d in m.deltas):
        for e, sign in cs:
            signs[r, e] += sign
    reads = (signs @ x % maps[0].group.orders).any(axis=2)  # (shifts x rows)
    return (owner == np.arange(len(maps))[:, None]) @ reads.T


def commutator_table(maps_a: Sequence[AffineMap], maps_b: Sequence[AffineMap]) -> np.ndarray:
    """``commutator_phase`` of every pair of two families, NO_PHASE for
    None. Where each map's delta expressions read zero on the other's shift
    (``_reads_shift``), both products keep both delta systems unmoved: the
    entry is the symplectic form sum_i (L/n_i)(z_a x_b - x_a z_b) mod L of
    their ``weyl_rows``, one integer product for the whole table, or 0 when
    a normalized expression carries two targets, in one map or across the
    pair (both products are zero). The other pairs go to
    ``commutator_phase``."""
    group = maps_a[0].group
    L, neg = group.phase_denominator, group.index_tables[1]
    weight = np.array([L // n for n in group.orders])
    (xa, za), (xb, zb) = weyl_rows(maps_a), weyl_rows(maps_b)
    a = (np.concatenate((za, xa), axis=1) * weight).reshape(len(za), -1)
    b = np.concatenate((xb, -zb), axis=1).reshape(len(xb), -1)
    both = a.any(axis=0) & b.any(axis=0)  # the product needs only columns both families touch
    table = a[:, both] @ b[:, both].T % L
    if not any(m.deltas for m in (*maps_a, *maps_b)):
        return table
    systems = [[_normal_deltas(m.deltas, neg) for m in maps] for maps in (maps_a, maps_b)]
    zero = np.logical_or.outer(*([s is None for s in family] for family in systems))
    for cs in set.intersection(*({cs for s in family if s for cs in s} for family in systems)):
        ta, tb = (np.array([(s or {}).get(cs, -1) for s in family]) for family in systems)
        zero |= np.not_equal.outer(ta, tb) & np.logical_and.outer(ta >= 0, tb >= 0)
    table[zero] = 0
    for i, j in zip(*np.nonzero(_reads_shift(maps_a, xb) | _reads_shift(maps_b, xa).T)):
        lam = commutator_phase(maps_a[i], maps_b[j])
        table[i, j] = NO_PHASE if lam is None else lam
    return table


@dataclass(frozen=True)
class AffineMap:
    """Basis map |m> -> phase(m) * delta(m) * |m + shift|."""

    group: AbelianGroup
    n_edges: int
    shifts: tuple[tuple[int, int], ...] = ()  # (edge, group index), sorted by edge
    deltas: tuple[tuple[Coeffs, int], ...] = ()  # (affine flux expression, target index)
    chars: tuple[tuple[int, int], ...] = ()  # (edge, character index), sorted by edge
    phase: int = 0  # global phase numerator mod group.phase_denominator

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def identity(group: AbelianGroup, n_edges: int) -> "AffineMap":
        return AffineMap(group, n_edges)

    # -- structure ------------------------------------------------------------

    def support(self) -> frozenset[int]:
        return self.diagonal_edges() | {e for e, _ in self.shifts}

    def diagonal_edges(self) -> frozenset[int]:
        """Edges read by the delta expressions and the characters: the only edges
        the coefficient phase(m) * delta(m) depends on."""
        out: set[int] = set()
        for coeffs, _ in self.deltas:
            out.update(e for e, _ in coeffs)
        out.update(e for e, _ in self.chars)
        return frozenset(out)

    # -- algebra ----------------------------------------------------------------

    def compose(self, first: "AffineMap") -> "AffineMap":
        """self after first (operator product self * first)."""
        g = self.group
        if g != first.group or self.n_edges != first.n_edges:
            raise OperatorError("maps live on different lattices or groups")
        add = g.index_tables[0]
        shifts = dict(first.shifts)
        # self's deltas and characters read the input already shifted by
        # `first`: chi_e(x_e + s_e) leaves the constant chi_e(s_e)
        new_deltas = list(first.deltas) + _moved_deltas(self, shifts)
        phase = self.phase + first.phase + _picked_up(self, shifts)
        chars = first.chars or self.chars
        if first.chars and self.chars:
            merged = dict(first.chars)
            for e, ci in self.chars:
                merged[e] = add[merged.get(e, 0)][ci]
            chars = tuple(sorted((e, ci) for e, ci in merged.items() if ci))
        for e, gi in self.shifts:
            shifts[e] = add[shifts.get(e, 0)][gi]
        new_shifts = tuple(sorted((e, v) for e, v in shifts.items() if v))
        return AffineMap(g, self.n_edges, new_shifts, tuple(new_deltas), chars, phase % g.phase_denominator)

    def adjoint(self) -> "AffineMap":
        g = self.group
        neg = g.index_tables[1]
        inv_shifts = tuple(sorted((e, neg[gi]) for e, gi in self.shifts))
        new_deltas = tuple(_moved_deltas(self, dict(inv_shifts)))
        # conj(chi_e)(y_e - s_e) is chi_e^-1(y_e) times the constant chi_e(s_e)
        new_chars = tuple((e, neg[ci]) for e, ci in self.chars)
        phase = _picked_up(self, dict(self.shifts)) - self.phase
        return AffineMap(g, self.n_edges, inv_shifts, new_deltas, new_chars, phase % g.phase_denominator)

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
        pnum = np.full(n, self.phase, dtype=np.int64)
        for e, ci in self.chars:
            pnum += char_num[ci, configs[:, e]]
        return alive, pnum % self.group.phase_denominator


def conjugated(f: AffineMap, m: AffineMap) -> AffineMap:
    """f* m f in one pass, for any two maps: m reads the input shifted by f's
    shift, so each of its characters picks up chi_e(f's shift at e); f's
    deltas hold at x and at x + m's shift, and each character of f, read at
    both, leaves chi_e(m's shift at e)^-1. f's shift and phase cancel."""
    g = m.group
    if g != f.group or m.n_edges != f.n_edges:
        raise OperatorError("maps live on different lattices or groups")
    fs, ms = dict(f.shifts), dict(m.shifts)
    deltas = _moved_deltas(m, fs) + list(f.deltas) + _moved_deltas(f, ms)
    phase = m.phase + _picked_up(m, fs) - _picked_up(f, ms)
    return AffineMap(g, m.n_edges, m.shifts, tuple(deltas), m.chars, phase % g.phase_denominator)


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
    """Unique normal form of an AffineMap, or None for the zero operator:
    deltas normalized, shifts and characters sorted without identity
    entries. Two maps with equal normal forms are equal as operators; for
    maps without deltas the converse holds too."""
    g = m.group
    delta_map = _normal_deltas(m.deltas, g.index_tables[1])
    if delta_map is None:
        return None
    return AffineMap(
        g,
        m.n_edges,
        tuple(sorted(s for s in m.shifts if s[1])),
        tuple(sorted(delta_map.items())),
        tuple(sorted(c for c in m.chars if c[1])),
        m.phase % g.phase_denominator,
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


def _attained(group: AbelianGroup, maps: list[AffineMap]) -> tuple[np.ndarray, np.ndarray]:
    """(alive, phase numerators), two (maps x states) arrays: every distinct
    joint value of the maps' coefficients over all configurations, without
    enumerating them. Per cyclic factor Z_n, with R the rows of the delta
    expressions and of each map's characters on the diagonal edges and
    P·R·Q = diag(d) (``diagonal_form``), the columns of R·Q, column j of
    order n / gcd(d_j, n), generate the image of x -> R x as a direct sum,
    so each point is listed once; the factors' states then combine."""
    L, digits = group.phase_denominator, group.tables()["digits"]
    exprs = {cs: r for r, cs in enumerate(sorted({cs for m in maps for cs, _ in m.deltas}))}
    edges = {e: j for j, e in enumerate(sorted(set().union(*(m.diagonal_edges() for m in maps))))}
    E, K, D = len(exprs), len(maps), len(edges)
    R = np.zeros((E + K, D), dtype=np.int64)
    chars, want = np.zeros((K, D), dtype=np.int64), np.full((K, E), -1)
    for cs, r in exprs.items():
        for e, sign in cs:
            R[r, edges[e]] += sign
    for k, m in enumerate(maps):
        want[k, [exprs[cs] for cs, _ in m.deltas]] = [t for _, t in m.deltas]
        chars[k, [edges[e] for e, _ in m.chars]] = [ci for _, ci in m.chars]
    states = np.array([[1] * K + [m.phase for m in maps]])
    for i, n in enumerate(group.orders):
        R[E:] = digits[chars, i]
        d, _, Q = diagonal_form(R.tolist(), D)
        sizes = [n // math.gcd(dj, n) for dj in d]
        if math.prod(sizes) * len(states) > MATRIX_DIM_CAP:
            raise OperatorError(f"{math.prod(sizes)} x {len(states)} coefficient values are above the cap of {MATRIX_DIM_CAP}")
        gens = R @ np.array(Q, dtype=np.int64).reshape(D, D)
        points = np.zeros((1, E + K), dtype=np.int64)
        for j, size in enumerate(sizes):
            points = (points[:, None] + np.arange(size)[:, None] * gens[:, j]).reshape(-1, E + K) % n
        alive = ((points[:, None, :E] == digits[want, i]) | (want < 0)).all(axis=2)
        old, new = states[:, None], np.concatenate((alive, points[:, E:] * (L // n)), axis=1)
        joint = np.concatenate((old[..., :K] & new[..., :K], (old[..., K:] + new[..., K:]) % L), axis=2)
        states = np.array(sorted(set(map(tuple, joint.reshape(-1, 2 * K).tolist()))))
    return states[:, :K].T.astype(bool), states[:, K:].T


def ops_equal(a, b, n_edges: int) -> float:
    """Max entrywise deviation between two operators on their joint support
    subspace (an operator identity holds iff this is ~0).

    A map sends |m> to c phase(m) delta(m) |m + s>, so in column m terms
    with different shifts s land on different rows, and the entry at
    (m + s, m) of a - b is the sum over the terms with shift s. That sum
    reads m only on the diagonal edges (those of the delta expressions and
    the characters); shifted edges move the row but change no entry. The max
    |bucket sum| over the diagonal edges' configurations alone is therefore
    the max entry of support_matrix(a) - support_matrix(b), from |G|^d rows
    instead of |G|^k. One nonzero term a side, equal in coefficient and
    normal form: 0.0. At most one a side otherwise: the same values, each
    distinct one once, from the coefficients the maps attain together
    (``_attained``), so nothing is enumerated."""
    terms = [(0, c, m) for c, m in as_opsum(a).terms] + [(1, c, m) for c, m in as_opsum(b).terms]
    live = [(side, c, canonical(m)) for side, c, m in terms if c != 0]
    live = [t for t in live if t[2] is not None]
    sides = [t[0] for t in live]
    if not live or sides == [0, 1] and live[0][1:] == live[1][1:]:
        return 0.0
    group = terms[0][2].group
    if sides in ([0], [1], [0, 1]):
        terms = live
        coefficients = zip(*_attained(group, [m for _, _, m in live]))
    else:
        diagonal = set().union(*(m.diagonal_edges() for _, _, m in terms))
        configs = enumerate_configs(sorted(diagonal), n_edges, group.order)
        coefficients = (m.diagonal(configs) for _, _, m in terms)
    roots = group.tables()["roots"]
    # per shift, a's and b's sums kept apart: their difference rounds as the
    # difference of the two summed matrices does
    buckets: dict[tuple, list] = {}
    for (side, coeff, m), (alive, pnum) in zip(terms, coefficients):
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
    # conj(chi)(sum sign x_e) puts conj(chi)^sign on each flux edge (a
    # ribbon's edges are distinct)
    chars = tuple(sorted((e, neg[ci] if sign > 0 else ci) for e, sign in flux)) if ci else ()
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
