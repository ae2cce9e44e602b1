"""Finite abelian groups presented as products of cyclic groups, and their duals.

Elements and characters are both plain tuples of residues, one per cyclic
factor. A character ``chi`` evaluates as ``exp(2*pi*i * sum_j chi_j g_j / n_j)``;
the exponent is kept as an exact fraction of a full turn so that phase
comparisons are bit-reproducible, and converted to a complex double only on
demand. This is the only module that sees a phase as a fraction: the rest of
the package works on packed indices (elements and characters alike) and on
integer phase numerators mod ``phase_denominator``, through ``tables()``.
Integer systems over ⊕_i Z_{n_i} have one solver, ``diagonal_form``.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, reduce

import numpy as np

Element = tuple[int, ...]
Char = tuple[int, ...]

# configurations store one packed group index per edge in a uint8
MAX_ORDER = 255


class GroupError(ValueError):
    """Invalid group presentation or element/character shape mismatch."""


@dataclass(frozen=True)
class AbelianGroup:
    """Z_{n1} x ... x Z_{nk}; the empty product is the trivial group."""

    orders: tuple[int, ...]
    _tables: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        if any(n <= 1 for n in self.orders):
            raise GroupError(f"cyclic factors must have order >= 2, got {self.orders}")

    @cached_property
    def order(self) -> int:
        return math.prod(self.orders)

    @cached_property
    def phase_denominator(self) -> int:
        """lcm of the cyclic orders; every character phase is a multiple of 1/this."""
        return reduce(math.lcm, self.orders, 1)

    # -- element arithmetic ------------------------------------------------

    def identity(self) -> Element:
        return (0,) * len(self.orders)

    def _check(self, g: Element) -> Element:
        if len(g) != len(self.orders):
            raise GroupError(f"element {g} does not match factors {self.orders}")
        return g

    def mul(self, g: Element, h: Element) -> Element:
        self._check(g)
        self._check(h)
        return tuple((a + b) % n for a, b, n in zip(g, h, self.orders))

    def inv(self, g: Element) -> Element:
        self._check(g)
        return tuple((-a) % n for a, n in zip(g, self.orders))

    def elements(self) -> list[Element]:
        return list(itertools.product(*(range(n) for n in self.orders)))

    def characters(self) -> list[Char]:
        # The dual group has the same presentation, hence the same tuples.
        return self.elements()

    # -- index packing (mixed radix, used by the state layer) ---------------

    @cached_property
    def _packed(self) -> dict[Element, int]:
        return {g: i for i, g in enumerate(self.elements())}

    def index_of(self, g: Element) -> int:
        try:
            return self._packed[g]
        except (KeyError, TypeError):
            pass  # unreduced, unhashable or malformed: the checked route
        self._check(g)
        idx = 0
        for a, n in zip(g, self.orders):
            idx = idx * n + (a % n)
        return idx

    def element_at(self, idx: int) -> Element:
        out = []
        for n in reversed(self.orders):
            out.append(idx % n)
            idx //= n
        return tuple(reversed(out))

    # -- characters ----------------------------------------------------------

    def char_phase(self, chi: Char, g: Element) -> Fraction:
        """Exact phase of chi(g) in turns, reduced mod 1."""
        self._check(chi)
        self._check(g)
        return sum(
            (Fraction(c * a, n) for c, a, n in zip(chi, g, self.orders)),
            start=Fraction(0),
        ) % 1

    def char_eval(self, chi: Char, g: Element) -> complex:
        """chi(g) read from ``tables()``: the root of unity that
        ``phase_to_complex`` gives for ``char_phase(chi, g)``."""
        self._check(chi)
        self._check(g)
        t = self.tables()
        return complex(t["roots"][t["char_num"][self.index_of(chi), self.index_of(g)]])

    def char_mul(self, chi1: Char, chi2: Char) -> Char:
        return self.mul(chi1, chi2)

    def char_conj(self, chi: Char) -> Char:
        return self.inv(chi)

    # -- dense tables for the vectorized state/operator layer ----------------

    def tables(self) -> dict[str, np.ndarray]:
        """Cayley/negation tables over packed indices, each index's residues
        (``digits[g]``, one column per cyclic factor), plus per-character
        phase-numerator tables (units of 1/phase_denominator turns)."""
        if self._tables:
            return self._tables
        n = self.order
        elems = [self.element_at(i) for i in range(n)]
        add = np.empty((n, n), dtype=np.int64)
        neg = np.empty(n, dtype=np.int64)
        for i, g in enumerate(elems):
            neg[i] = self.index_of(self.inv(g))
            for j, h in enumerate(elems):
                add[i, j] = self.index_of(self.mul(g, h))
        L = self.phase_denominator
        char_num = np.empty((n, n), dtype=np.int64)
        for i, chi in enumerate(elems):
            for j, g in enumerate(elems):
                char_num[i, j] = int(self.char_phase(chi, g) * L) % L
        roots = np.array([phase_to_complex(Fraction(k, L)) for k in range(L)])
        digits = np.array(elems, dtype=np.int64).reshape(n, len(self.orders))
        self._tables.update(add=add, neg=neg, char_num=char_num, roots=roots, digits=digits)
        # uint8 copies for arithmetic on configuration rows (MAX_ORDER fits)
        self._tables.update(add_u8=add.astype(np.uint8), neg_u8=neg.astype(np.uint8))
        return self._tables

    def index_sums(self, keys: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The distinct keys, sorted, and the packed sum of the packed indices
        `values` at each, every cyclic factor summed mod its order; keys whose
        sum is the identity are dropped. It sorts, as ``np.unique`` imports
        numpy.ma."""
        order = np.argsort(keys)
        keys = keys[order]
        start = np.flatnonzero(keys != np.concatenate(([-1], keys[:-1])))  # where each key's run starts
        sums = np.add.reduceat(self.tables()["digits"][values[order]], start, axis=0) % self.orders
        packed = np.ravel_multi_index(tuple(sums.T), self.orders)
        return keys[start][packed != 0], packed[packed != 0]

    @cached_property
    def index_tables(self) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...], tuple[tuple[int, ...], ...]]:
        """``tables()``'s add, neg and char_num as nested Python tuples, for
        scalar arithmetic on packed indices (``add[i][j]``, ``neg[i]``,
        ``char_num[chi][g]``). The identity is index 0. An attribute, built
        on first use, so the scalar kernels pay one lookup per call."""
        t = self.tables()
        return (
            tuple(map(tuple, t["add"].tolist())),
            tuple(t["neg"].tolist()),
            tuple(map(tuple, t["char_num"].tolist())),
        )


def _pivot(A: list, t: int, n_cols: int):
    """(i, j) of the smallest nonzero |A[i][j]| with i, j >= t, the first
    in row order (the min of (|A[i][j]|, i, j)), or None. The scan ends at
    the first unit, so a 0/±1 matrix is searched a row at a time."""
    best = None
    for i in range(t, len(A)):
        for j in range(t, n_cols):
            v = abs(A[i][j])
            if v and (best is None or v < best[0]):
                best = v, i, j
                if v == 1:
                    return i, j
    return best and best[1:]


def diagonal_form(a: list, n_cols: int, transforms: bool = True) -> tuple[list[int], list[list[int]], list[list[int]]]:
    """(d, P, Q) with P·A·Q = diag(d) over the integers, P and Q unimodular
    (left empty without `transforms`), for A with rows `a` and n_cols
    columns: the Smith normal form without its divisor chain, the one
    solver over ⊕_i Z_{n_i}. Each pivot is the smallest nonzero entry left
    (``_pivot``), reducing its row and column until clear."""
    m = len(a)
    A = [list(row) for row in a]
    P = [[int(i == j) for j in range(m * transforms)] for i in range(m)]
    Q = [[int(i == j) for j in range(n_cols)] for i in range(n_cols * transforms)]
    for t in range(min(m, n_cols)):
        while True:
            pivot = _pivot(A, t, n_cols)
            if not pivot:
                break
            i, j = pivot
            A[t], A[i], P[t], P[i] = A[i], A[t], P[i], P[t]
            for row in A + Q:
                row[t], row[j] = row[j], row[t]
            p = A[t][t]
            for i in range(t + 1, m):
                q = A[i][t] // p
                if q:
                    A[i] = [x - q * y for x, y in zip(A[i], A[t])]
                    P[i] = [x - q * y for x, y in zip(P[i], P[t])]
            for j in range(t + 1, n_cols):
                q = A[t][j] // p
                if q:
                    for row in A + Q:
                        row[j] -= q * row[t]
            if not any(A[i][t] for i in range(t + 1, m)) and not any(A[t][t + 1 :]):
                break
    return [A[k][k] for k in range(min(m, n_cols))], P, Q


def subgroup_order(rows: list, n_cols: int, orders) -> int:
    """Order of the subgroup of ⊕_i Z_{n_i}^n_cols generated by the integer
    `rows` read in every cyclic factor Z_{n_i} (n_i in `orders`): with
    P·A·Q = diag(d) (``diagonal_form``), Π_i Π_j n_i / gcd(d_j, n_i), the
    image of the diagonal map, since P and Q are invertible mod every n_i."""
    d = diagonal_form(rows, n_cols, transforms=False)[0]
    return math.prod(n // math.gcd(dj, n) for n in orders for dj in d)


def digit_rows(radix: int, k: int) -> np.ndarray:
    """All radix^k rows of k mixed-radix digits as uint8, the first column
    most significant (the order of ``itertools.product``). Each column is
    written through a view of the output, so no wider temporary is made."""
    out = np.empty((radix**k, k), dtype=np.uint8)
    digits = np.arange(radix, dtype=np.uint8)[:, None]
    for j in range(k):
        out.reshape(radix**j, radix, radix ** (k - 1 - j), k)[:, :, :, j] = digits
    return out


def codes(configs: np.ndarray, columns, radix: int) -> np.ndarray:
    """Mixed-radix integer of each row's values on `columns`, the first
    column most significant: the inverse of ``digit_rows``."""
    out = np.zeros(len(configs), dtype=np.int64)
    for c in columns:
        out = out * radix + configs[:, c]
    return out


def phase_to_complex(turns: Fraction) -> complex:
    """exp(2*pi*i*turns) with exact values at the quarter turns."""
    t = turns % 1
    if t == 0:
        return 1.0 + 0.0j
    if t == Fraction(1, 2):
        return -1.0 + 0.0j
    if t == Fraction(1, 4):
        return 0.0 + 1.0j
    if t == Fraction(3, 4):
        return 0.0 - 1.0j
    angle = 2.0 * math.pi * float(t)
    return complex(math.cos(angle), math.sin(angle))


def group_make(orders: list[int] | tuple[int, ...]) -> AbelianGroup:
    return AbelianGroup(tuple(orders))


_GROUP_SPEC = re.compile(r"^z(\d+)(xz\d+)*$", re.IGNORECASE)


def parse_group(spec: str) -> AbelianGroup:
    """Parse specs like "z2", "z3", "z2xz2" (case-insensitive)."""
    s = spec.strip().lower()
    if not _GROUP_SPEC.match(s):
        raise GroupError(f"malformed group spec {spec!r}: expected z<n>(xz<m>)*")
    orders = tuple(int(part[1:]) for part in s.split("x"))
    if math.prod(orders) > MAX_ORDER:
        raise GroupError(
            f"group {spec!r} has order {math.prod(orders)}; edge configurations"
            f" are uint8, so the order must be at most {MAX_ORDER}"
        )
    return group_make(orders)


def format_group(group: AbelianGroup) -> str:
    return "x".join(f"z{n}" for n in group.orders) if group.orders else "z1"
