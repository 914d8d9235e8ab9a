"""Seed construction and the iterated invert transform."""

import pytest

from comptri import (
    ArithmeticFunction,
    InsufficientSeedError,
    InvalidSeedError,
    Preset,
    invert_transform,
    iterate_invert,
    make_seed,
    transform_via_triangle,
)

PRESETS = ("ones", "fib", "odd", "natural", "ge2", "two_three")

# Frozen from independent word enumeration: the transform of the FIB seed
# counts binary words with no 00 factor (1, 2, 3, 5, 8, ...), the transform
# of ONES counts all binary words (2^(n-1)), and the second transform of FIB
# at n = 4 counts ternary words of length 3 with isolated zeros, 27 - 5 = 22.
FIB_DEPTH1 = (1, 2, 3, 5, 8, 13, 21, 34)
ONES_DEPTH1 = (1, 2, 4, 8, 16)
FIB_DEPTH2_AT_4 = 22


def test_preset_prefixes():
    assert make_seed("ones", 5).values == (1, 1, 1, 1, 1)
    assert make_seed(Preset.FIB, 5).values == (1, 1, 0, 0, 0)
    assert make_seed("odd", 6).values == (1, 0, 1, 0, 1, 0)
    assert make_seed("natural", 4).values == (1, 2, 3, 4)
    assert make_seed("ge2", 5).values == (0, 1, 1, 1, 1)
    assert make_seed("two_three", 4).values == (0, 1, 1, 0)


def test_custom_seed_wraps_values():
    f = make_seed("custom", 3, [4, 0, 7])
    assert f.values == (4, 0, 7)
    assert f(1) == 4 and f(3) == 7


def test_custom_seed_requires_values():
    with pytest.raises(InvalidSeedError):
        make_seed("custom", 3)
    with pytest.raises(InvalidSeedError):
        make_seed("custom", 1, [])


def test_custom_seed_too_short():
    with pytest.raises(InsufficientSeedError):
        make_seed("custom", 5, [1, 2])


def test_explicit_values_need_custom_preset():
    with pytest.raises(InvalidSeedError):
        make_seed("ones", 3, [1, 2, 3])


def test_negative_entries_rejected():
    with pytest.raises(InvalidSeedError):
        ArithmeticFunction((1, -2))


def test_bool_entries_rejected():
    with pytest.raises(InvalidSeedError):
        ArithmeticFunction((True, False, True))


def test_empty_prefix_rejected():
    with pytest.raises(InvalidSeedError):
        ArithmeticFunction(())


def test_one_based_access():
    f = make_seed("natural", 4)
    assert [f(n) for n in range(1, 5)] == [1, 2, 3, 4]
    with pytest.raises(IndexError):
        f(0)
    with pytest.raises(IndexError):
        f(5)


def test_invert_transform_fib():
    assert invert_transform(make_seed("fib", 8)).values == FIB_DEPTH1


def test_invert_transform_ones():
    assert invert_transform(make_seed("ones", 5)).values == ONES_DEPTH1


def test_iterate_depth_zero_echoes_seed():
    f = make_seed("two_three", 6)
    assert iterate_invert(f, 0).values == f.values


def test_iterate_ones_gives_geometric_rows():
    f = make_seed("ones", 6)
    for m in range(1, 5):
        assert iterate_invert(f, m).values == tuple((m + 1) ** i for i in range(6))


def test_iterate_fib_depth_two():
    assert iterate_invert(make_seed("fib", 4), 2)(4) == FIB_DEPTH2_AT_4


def test_negative_depth_rejected():
    with pytest.raises(ValueError):
        iterate_invert(make_seed("ones", 3), -1)


@pytest.mark.parametrize("preset", PRESETS)
def test_first_term_is_fixed(preset):
    f0 = make_seed(preset, 8)
    for m in range(6):
        assert iterate_invert(f0, m)(1) == f0(1)


@pytest.mark.parametrize("preset", PRESETS)
def test_transform_dominates_input(preset):
    f = make_seed(preset, 12)
    g = invert_transform(f)
    assert all(g(n) >= f(n) for n in range(1, 13))


def test_iterates_compose():
    f0 = make_seed("natural", 8)
    assert iterate_invert(invert_transform(f0), 1).values == iterate_invert(f0, 2).values
    assert iterate_invert(iterate_invert(f0, 2), 3).values == iterate_invert(f0, 5).values


@pytest.mark.parametrize("preset", PRESETS)
def test_transform_via_triangle_agrees(preset):
    f0 = make_seed(preset, 12)
    for m in range(1, 5):
        fm = iterate_invert(f0, m)
        for n in range(1, 13):
            assert transform_via_triangle(f0, m, n) == fm(n)


def test_transform_via_triangle_validation():
    f0 = make_seed("ones", 4)
    with pytest.raises(ValueError):
        transform_via_triangle(f0, 0, 3)
    with pytest.raises(IndexError):
        transform_via_triangle(f0, 1, 5)
