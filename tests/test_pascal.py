"""Lower-triangular matrix algebra and the Pascal matrices."""

from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from comptri import (
    DimensionError,
    LowerTriangularMatrix,
    mat_mul,
    mat_pow,
    pascal_lower,
    shifted_pascal_inverse,
)


def test_pascal_entries():
    ell = pascal_lower(5)
    for i in range(1, 6):
        for j in range(1, 6):
            assert ell.entry(i, j) == (comb(i - 1, j - 1) if j <= i else 0)


def test_rows_storage():
    m = LowerTriangularMatrix([[1], [2, 3]])
    assert m.rows == ((1,), (2, 3))
    assert m.order == 2
    assert m.entry(2, 1) == 2
    assert m.entry(1, 2) == 0


def test_shape_validation():
    with pytest.raises(DimensionError):
        LowerTriangularMatrix(((1, 2),))
    with pytest.raises(DimensionError):
        LowerTriangularMatrix(())
    with pytest.raises(DimensionError):
        LowerTriangularMatrix(((1,), (2.5, 1)))


def test_bool_entries_rejected():
    with pytest.raises(DimensionError):
        LowerTriangularMatrix(((True,), (False, True)))


def test_entry_bounds():
    m = pascal_lower(3, 0)
    with pytest.raises(IndexError):
        m.entry(0, 1)
    with pytest.raises(IndexError):
        m.entry(1, 4)


def test_identity_is_neutral():
    ell = pascal_lower(6)
    assert mat_mul(ell, pascal_lower(6, 0)).rows == ell.rows
    assert mat_mul(pascal_lower(6, 0), ell).rows == ell.rows


def test_mismatched_orders():
    with pytest.raises(DimensionError):
        mat_mul(pascal_lower(3, 0), pascal_lower(4, 0))


def test_power_zero_and_one():
    ell = pascal_lower(5)
    assert mat_pow(ell, 0).rows == pascal_lower(5, 0).rows
    assert mat_pow(ell, 1).rows == ell.rows


def test_negative_power_rejected():
    with pytest.raises(ValueError):
        mat_pow(pascal_lower(2, 0), -1)


@pytest.mark.parametrize("order", (1, 4, 9, 14))
def test_power_closed_form(order):
    # the m-th Pascal power has entries m^(i-j) C(i-1, j-1)
    ell = pascal_lower(order)
    for m in range(7):
        power = mat_pow(ell, m)
        for i in range(1, order + 1):
            for j in range(1, i + 1):
                assert power.entry(i, j) == m ** (i - j) * comb(i - 1, j - 1)
        # pascal_lower builds the same power from that closed form
        assert pascal_lower(order, m).rows == power.rows
    # power 0 is the identity: ones on the diagonal, zeros below it
    assert pascal_lower(order, 0).rows == tuple(
        tuple(int(j == i) for j in range(1, i + 1)) for i in range(1, order + 1)
    )


def test_powers_compose():
    ell = pascal_lower(8)
    assert mat_mul(mat_pow(ell, 2), mat_pow(ell, 3)).rows == mat_pow(ell, 5).rows


@pytest.mark.parametrize("order", tuple(range(1, 11)))
def test_shifted_pascal_inverse(order):
    q, qinv = shifted_pascal_inverse(order)
    assert q.entry(order, 1) == order
    assert mat_mul(q, qinv).rows == pascal_lower(order, 0).rows
    assert mat_mul(qinv, q).rows == pascal_lower(order, 0).rows



def lower_matrices(order):
    entry = st.integers(-(2**70), 2**70)
    rows = st.tuples(*(st.lists(entry, min_size=i, max_size=i) for i in range(1, order + 1)))
    return rows.map(LowerTriangularMatrix)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.integers(1, 9).flatmap(lambda n: st.tuples(lower_matrices(n), lower_matrices(n))))
def test_product_matches_the_definition(pair):
    # entry (i, j) of a b is sum_{t=j}^{i} a(i, t) b(t, j)
    a, b = pair
    expected = tuple(
        tuple(sum(a.entry(i, t) * b.entry(t, j) for t in range(j, i + 1)) for j in range(1, i + 1))
        for i in range(1, a.order + 1)
    )
    assert mat_mul(a, b).rows == expected
