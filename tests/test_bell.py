"""Partial Bell polynomial values and the transform-of-arguments identity."""

from math import comb, factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from comptri import bell
from comptri import (
    ArithmeticFunction,
    InternalConsistencyError,
    InvalidSeedError,
    bell_invert_identity_check,
    bell_table,
    iterate_invert,
    make_seed,
)

# Classical specializations used as independent oracles: at x_i = 1 the
# polynomials give Stirling set numbers, at x_i = i! they give Lah numbers
# L(n,k) = C(n-1,k-1) n!/k!.
STIRLING2 = {(4, 2): 7, (5, 2): 15, (5, 3): 25, (6, 3): 90, (7, 3): 301}


def block_sizes(n):
    """The block sizes of each partition of {1..n}, one tuple per partition:
    element t joins one of the blocks so far or opens a new one."""
    partitions = [()]
    for _ in range(n):
        partitions = [
            sizes[:b] + (sizes[b] + 1,) + sizes[b + 1:]
            for sizes in partitions
            for b in range(len(sizes))
        ] + [sizes + (1,) for sizes in partitions]
    return partitions


def brute_bell_table(x, n_max):
    """B(n, k) as the sum, over the partitions of {1..n} into k blocks, of the
    product of x_(block size); it shares no step with either recurrence."""
    table = [[0] * (n + 1) for n in range(n_max + 1)]
    for n in range(n_max + 1):
        for sizes in block_sizes(n):
            table[n][len(sizes)] += prod(x[size - 1] for size in sizes)
    return table


def test_base_cases():
    assert bell_table([5], 0) == [[1]]
    assert bell_table([5, 1, 1], 3)[3][0] == 0
    assert bell_table([3, 1, 4, 1], 4)[4][4] == 3**4


def test_single_block():
    x = [2, 7, 1, 9]
    table = bell_table(x, 4)
    for n in range(1, 5):
        assert table[n][1] == x[n - 1]


@pytest.mark.parametrize(("n", "k"), sorted(STIRLING2))
def test_stirling_specialization(n, k):
    assert bell_table([1] * n, n)[n][k] == STIRLING2[(n, k)]


def test_lah_specialization():
    table = bell_table([factorial(i) for i in range(1, 9)], 8)
    for n in range(1, 9):
        for k in range(1, n + 1):
            assert table[n][k] == comb(n - 1, k - 1) * factorial(n) // factorial(k)


def test_spec_prefix_suffices():
    # B(n, k) reads only x_1..x_(n-k+1): B(3, 2) = 3 x_1 x_2 whatever x_3 is
    assert bell_table([1, 2, 0], 3)[3][2] == bell_table([1, 2, 99], 3)[3][2] == 6
    for n in range(1, 7):
        changed = [3, 1, 4, 1, 5, 9][: n - 1] + [-7]
        for k in range(2, n + 1):
            assert bell_table(changed, n)[n][k] == bell_table([3, 1, 4, 1, 5, 9], n)[n][k]


def test_homogeneity():
    x = [3, 1, 4, 1, 5, 9]
    scaled = [2**i * x[i - 1] for i in range(1, 7)]
    table, scaled_table = bell_table(x, 6), bell_table(scaled, 6)
    for n in range(1, 7):
        for k in range(1, n + 1):
            assert scaled_table[n][k] == 2**n * table[n][k]


def test_negative_arguments_allowed():
    assert bell_table([-1, 2, 0], 3)[3][2] == -6
    table = bell_table([-2, 3, -5, 7], 4)
    assert table[4][4] == (-2) ** 4


def test_table_matches_pointwise():
    # a zero argument, x_2 = 0, drops every partition with a block of two
    x = [2, 0, 3, 1, 4, 2]
    assert bell_table(x, 6) == brute_bell_table(x, 6)


@settings(derandomize=True, max_examples=80, deadline=None)
@given(st.lists(st.integers(-9, 9) | st.integers(-(2**65), 2**65), min_size=0, max_size=7))
def test_table_matches_set_partitions(x):
    assert bell_table(x, len(x)) == brute_bell_table(x, len(x))


def test_argument_validation():
    with pytest.raises(ValueError):
        bell_table([1, 2], 3)
    with pytest.raises(ValueError):
        bell_table([1.5, 2], 2)
    with pytest.raises(ValueError, match=r"^arguments must be integers, got True$"):
        bell_table([True, 2], 2)


def test_bell_triangle_checks_its_arguments_before_it_scales_them():
    # scaled by 1!, True would be the int 1; a short w would run off its end
    with pytest.raises(ValueError, match=r"^arguments must be integers, got True$"):
        bell.bell_triangle([True, 2], 2)
    with pytest.raises(ValueError, match=r"^need x_1\.\.x_3, got 2 arguments$"):
        bell.bell_triangle([1, 2], 3)
    assert bell.bell_triangle([1, 2, 9], 2).rows == ((1,), (2, 1))


@pytest.mark.parametrize("n_max", [2.5, True])
def test_table_refuses_an_order_that_is_not_an_int(n_max):
    # True would be read as the order 1
    with pytest.raises(ValueError, match=rf"^n_max must be an integer, got {n_max!r}$"):
        bell_table([1, 2, 3], n_max)
    with pytest.raises(ValueError, match=rf"^n_max must be an integer, got {n_max!r}$"):
        bell.bell_triangle([1, 2, 3], n_max)


def test_bell_triangle_refuses_an_inexact_scaling(monkeypatch):
    # Comtet's sum for c(3, 1) is 3 w_3 = 3; one too high, 1 * 4 is not divisible by 3
    sums = []

    def off_by_one(terms):
        sums.append(sum(terms))
        return sums[-1] + (len(sums) == 4)

    monkeypatch.setattr(bell, "sum", off_by_one, raising=False)
    with pytest.raises(InternalConsistencyError, match=r"^Comtet's sum for c\(3,1\) is not divisible by 3$"):
        bell.bell_triangle([1, 1, 1], 3)
    assert sums == [1, 2, 1, 3]


def scaled_bell_table(w, order):
    """(k!/n!) B_{n,k}(1! w_1, 2! w_2, ...) from bell_table, the Bell route's
    definition, with every scaling asserted exact."""
    table = bell_table([factorial(i) * v for i, v in enumerate(w[:order], start=1)], order)
    rows = []
    for n in range(1, order + 1):
        scaled = [divmod(table[n][k] * factorial(k), factorial(n)) for k in range(1, n + 1)]
        assert all(r == 0 for _, r in scaled)
        rows.append(tuple(q for q, _ in scaled))
    return tuple(rows)


@pytest.mark.parametrize("preset", ("ones", "fib", "odd", "natural", "ge2", "two_three"))
def test_bell_triangle_is_the_scaled_table_for_presets(preset):
    for m in (1, 2, 3):
        w = iterate_invert(make_seed(preset, 16), m - 1).values
        assert bell.bell_triangle(w, 16).rows == scaled_bell_table(w, 16)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(
    st.lists(st.just(0) | st.integers(0, 9) | st.integers(2**63, 2**64 - 1), min_size=1, max_size=16),
    st.booleans(),
)
def test_bell_triangle_is_the_scaled_table_for_custom_seeds(w, first_is_zero):
    if first_is_zero:
        w[0] = 0
    assert bell.bell_triangle(w, len(w)).rows == scaled_bell_table(w, len(w))


@pytest.mark.parametrize("preset", ("ones", "fib", "odd", "natural", "ge2", "two_three"))
def test_invert_identity_for_presets(preset):
    assert bell_invert_identity_check(make_seed(preset, 9).values, 9)


def test_invert_identity_for_explicit_seeds():
    assert bell_invert_identity_check([2, 0, 3, 1, 0, 2], 6)
    assert bell_invert_identity_check([1, 3, 3, 0, 1, 2, 0, 1], 8)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 9) | st.integers(2**63, 2**64 - 1), min_size=1, max_size=12))
def test_invert_identity_for_custom_seeds(values):
    assert bell_invert_identity_check(values, len(values))


def test_invert_identity_refuses_short_arguments():
    with pytest.raises(ValueError, match=r"need x_1\.\.x_5, got 2 arguments"):
        bell_invert_identity_check([1, 2], 5)
    assert bell_invert_identity_check([1, 2, 0, 3, 1, 9], 5)


def test_invert_identity_refuses_negative_arguments():
    # bell_table takes any integers, but the invert transform takes a seed
    assert bell_table([-1, 2], 2) == [[1], [0, -1], [0, 2, 1]]
    with pytest.raises(InvalidSeedError, match=r"got -1$"):
        bell_invert_identity_check([-1, 2], 2)


def test_invert_identity_at_order_zero_and_below():
    # at n_max = 0 there is no pair (n, k) to check; below it is a usage error
    assert bell_invert_identity_check([1, 2], 0)
    assert bell_invert_identity_check([], 0)
    with pytest.raises(ValueError, match=r"^n_max must be >= 0$"):
        bell_invert_identity_check([1], -1)


def test_invert_identity_detects_a_wrong_transform(monkeypatch):
    # a transform off by one in its last term breaks the identity in row n_max
    transform = bell.invert_transform

    def off_by_one(f):
        values = transform(f).values
        return ArithmeticFunction(values[:-1] + (values[-1] + 1,))

    monkeypatch.setattr(bell, "invert_transform", off_by_one)
    assert not bell_invert_identity_check(make_seed("fib", 8).values, 8)
