"""Finite abelian groups presented as products of cyclic groups, and their duals.

Elements and characters are both plain tuples of residues, one per cyclic
factor. A character ``chi`` evaluates as ``exp(2*pi*i * sum_j chi_j g_j / n_j)``;
the exponent is kept as an exact fraction of a full turn so that phase
comparisons are bit-reproducible, and converted to a complex double only on
demand.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce

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

    @property
    def order(self) -> int:
        return math.prod(self.orders)

    @property
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

    def index_of(self, g: Element) -> int:
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
        return phase_to_complex(self.char_phase(chi, g))

    def char_mul(self, chi1: Char, chi2: Char) -> Char:
        return self.mul(chi1, chi2)

    def char_conj(self, chi: Char) -> Char:
        return self.inv(chi)

    # -- dense tables for the vectorized state/operator layer ----------------

    def tables(self) -> dict[str, np.ndarray]:
        """Cayley/negation tables over packed indices, integer multiples
        (``mult[c, g]`` is g added to itself c times), plus per-character
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
        mult = np.zeros((n, n), dtype=np.int64)
        for c in range(1, n):
            mult[c] = add[mult[c - 1], np.arange(n)]
        L = self.phase_denominator
        char_num = np.empty((n, n), dtype=np.int64)
        for i, chi in enumerate(elems):
            for j, g in enumerate(elems):
                char_num[i, j] = int(self.char_phase(chi, g) * L) % L
        roots = np.array([phase_to_complex(Fraction(k, L)) for k in range(L)])
        self._tables.update(add=add, neg=neg, mult=mult, char_num=char_num, roots=roots)
        return self._tables

    def index_tables(self) -> tuple[tuple[tuple[int, ...], ...], tuple[int, ...], tuple[tuple[int, ...], ...]]:
        """``tables()``'s add, neg and char_num as nested Python tuples, for
        scalar arithmetic on packed indices (``add[i][j]``, ``neg[i]``,
        ``char_num[chi][g]``). The identity is index 0."""
        t = self.tables()
        if "index" not in t:
            t["index"] = (
                tuple(map(tuple, t["add"].tolist())),
                tuple(t["neg"].tolist()),
                tuple(map(tuple, t["char_num"].tolist())),
            )
        return t["index"]


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
