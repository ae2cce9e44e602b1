import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qdlattice.groups import (
    GroupError,
    codes,
    digit_rows,
    format_group,
    group_make,
    parse_group,
    phase_to_complex,
)


def test_group_make_orders():
    assert group_make([2]).order == 2
    assert group_make([2, 2]).order == 4
    assert group_make([]).order == 1


def test_invalid_order_rejected():
    with pytest.raises(GroupError):
        group_make([1])
    with pytest.raises(GroupError):
        group_make([2, 0])


def test_mul_inv_identity():
    z2 = group_make([2])
    assert z2.mul((1,), (1,)) == (0,)
    z3 = group_make([3])
    assert z3.inv((1,)) == (2,)
    z22 = group_make([2, 2])
    assert z22.mul((1, 0), (0, 1)) == (1, 1)
    assert z22.identity() == (0, 0)


def test_shape_mismatch():
    z2 = group_make([2])
    with pytest.raises(GroupError):
        z2.mul((1,), (1, 0))


def test_char_eval_values():
    z2 = group_make([2])
    assert z2.char_eval((1,), (1,)) == -1
    z3 = group_make([3])
    val = z3.char_eval((1,), (1,))
    assert abs(val - complex(math.cos(2 * math.pi / 3), math.sin(2 * math.pi / 3))) < 1e-15
    for g in z3.elements():
        assert z3.char_eval(z3.identity(), g) == 1
        assert z3.char_eval((1,), z3.identity()) == 1
    # the table lookup is bit-identical to converting the exact phase
    for orders in ([2], [3], [4], [2, 2], [2, 3], [6]):
        grp = group_make(orders)
        for chi, g in itertools.product(grp.elements(), repeat=2):
            assert grp.char_eval(chi, g) == phase_to_complex(grp.char_phase(chi, g))
    z6 = group_make([6])
    assert z6.char_eval((7,), (-1,)) == phase_to_complex(z6.char_phase((7,), (-1,)))
    with pytest.raises(GroupError):
        z6.char_eval((1, 0), (1,))


def test_char_mul_conj():
    z2 = group_make([2])
    assert z2.char_mul((1,), (1,)) == (0,)
    z4 = group_make([4])
    assert z4.char_conj((1,)) == (3,)
    z22 = group_make([2, 2])
    assert z22.char_mul((1, 0), (0, 1)) == (1, 1)


@given(st.sampled_from([(2,), (3,), (4,), (2, 2), (2, 3)]), st.data())
def test_characters_multiplicative(orders, data):
    grp = group_make(list(orders))
    elems = grp.elements()
    chi = data.draw(st.sampled_from(elems))
    g = data.draw(st.sampled_from(elems))
    h = data.draw(st.sampled_from(elems))
    lhs = grp.char_eval(chi, grp.mul(g, h))
    rhs = grp.char_eval(chi, g) * grp.char_eval(chi, h)
    assert abs(lhs - rhs) < 1e-12
    # exact at the level of phases
    assert (grp.char_phase(chi, grp.mul(g, h))) == (
        grp.char_phase(chi, g) + grp.char_phase(chi, h)
    ) % 1


@pytest.mark.parametrize("orders", [[2], [3], [4], [2, 2]])
def test_character_orthogonality(orders):
    grp = group_make(orders)
    for chi in grp.characters():
        total = sum(grp.char_eval(chi, g) for g in grp.elements())
        want = grp.order if chi == grp.identity() else 0.0
        assert abs(total - want) < 1e-12


@pytest.mark.parametrize("orders", [[2], [3], [2, 2]])
def test_dual_group_size(orders):
    grp = group_make(orders)
    assert len(grp.characters()) == grp.order


def test_index_packing_roundtrip():
    grp = group_make([2, 3])
    for i, g in enumerate(grp.elements()):
        assert grp.element_at(grp.index_of(g)) == g


def test_parse_group():
    assert parse_group("z2").orders == (2,)
    assert parse_group("Z3").orders == (3,)
    assert parse_group("z2xz2").orders == (2, 2)
    assert format_group(parse_group("z4xz2")) == "z4xz2"
    with pytest.raises(GroupError):
        parse_group("z1")
    with pytest.raises(GroupError):
        parse_group("zx2")


def test_roots_exact_at_quarter_turns():
    assert group_make([2]).tables()["roots"].tolist() == [1, -1]
    assert group_make([4]).tables()["roots"].tolist() == [1, 1j, -1, -1j]
    assert group_make([2]).tables()["roots"].imag.tolist() == [0.0, 0.0]


@pytest.mark.parametrize("orders", [[2], [3], [4], [2, 2], [2, 3], [2, 4]])
def test_roots_are_phase_to_complex_bit_for_bit(orders):
    """Every module reads phases as numerators k mod L through ``roots``:
    its entries must be exactly the exact-fraction values."""
    grp = group_make(orders)
    L = grp.phase_denominator
    roots = grp.tables()["roots"]
    assert len(roots) == L
    for k in range(L):
        assert roots[k].tobytes() == np.complex128(phase_to_complex(Fraction(k, L))).tobytes()


def test_parse_group_rejects_orders_beyond_uint8():
    assert parse_group("z255").order == 255
    for spec in ("z257", "z16xz16"):
        with pytest.raises(GroupError, match="must be at most 255"):
            parse_group(spec)


@given(st.integers(2, 5), st.integers(0, 6))
def test_digit_rows_match_itertools_product_and_codes_invert_them(radix, k):
    rows = digit_rows(radix, k)
    assert rows.dtype == np.uint8 and rows.shape == (radix**k, k)
    want = list(itertools.product(range(radix), repeat=k))
    assert [tuple(r) for r in rows.tolist()] == want
    assert np.array_equal(codes(rows, range(k), radix), np.arange(radix**k))
