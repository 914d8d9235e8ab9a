"""Seed construction and the iterated invert transform."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from comptri import (
    ArithmeticFunction,
    InvalidSeedError,
    OutputSizeError,
    Preset,
    check_output_size,
    invert_transform,
    iterate_invert,
    make_seed,
)
from seeds import CUSTOM_SEEDS, PRESETS

# Frozen from independent word enumeration: the transform of the FIB seed
# counts binary words with no 00 factor (1, 2, 3, 5, 8, ...), the transform
# of ONES counts all binary words (2^(n-1)), and the second transform of FIB
# at n = 4 counts ternary words of length 3 with isolated zeros, 27 - 5 = 22.
FIB_DEPTH1 = (1, 2, 3, 5, 8, 13, 21, 34)
ONES_DEPTH1 = (1, 2, 4, 8, 16)
FIB_DEPTH2_AT_4 = 22

PROPERTY = settings(derandomize=True, max_examples=100, deadline=None)


# each preset's f_0(i), written out here and not through its P/Q pair
PRESET_TERMS = {
    "ones": lambda i: 1,
    "fib": lambda i: int(i <= 2),
    "odd": lambda i: i % 2,
    "natural": lambda i: i,
    "ge2": lambda i: int(i >= 2),
    "two_three": lambda i: int(i in (2, 3)),
}


def test_preset_prefixes():
    assert make_seed("ones", 5).values == (1, 1, 1, 1, 1)
    assert make_seed(Preset.FIB, 5).values == (1, 1, 0, 0, 0)
    assert make_seed("odd", 6).values == (1, 0, 1, 0, 1, 0)
    assert make_seed("natural", 4).values == (1, 2, 3, 4)
    assert make_seed("ge2", 5).values == (0, 1, 1, 1, 1)
    assert make_seed("two_three", 4).values == (0, 1, 1, 0)
    for preset, term in PRESET_TERMS.items():
        assert make_seed(preset, 60).values == tuple(term(i) for i in range(1, 61)), preset


def largest_admitted_n(preset, m, cap=2000):
    """The largest N <= cap whose f_m(1..N) check_output_size admits; the bound grows with N."""
    lo, hi = 1, cap
    while lo < hi:
        mid = (lo + hi + 1) // 2
        try:
            check_output_size(mid, m, max(make_seed(preset, mid).values))
            lo = mid
        except OutputSizeError:
            hi = mid - 1
    return lo


@pytest.mark.parametrize("preset", PRESETS)
def test_preset_pair_transforms_as_its_prefix(preset):
    # the preset's own P/(Q - m P) against the unlabelled prefix's Q = 1 recurrence,
    # at the longest prefix the output-size rule admits
    for m in range(1, 5):
        f0 = make_seed(preset, largest_admitted_n(preset, m))
        assert iterate_invert(f0, m).values == iterate_invert(ArithmeticFunction(f0.values), m).values


@PROPERTY
@given(CUSTOM_SEEDS, st.sampled_from(PRESETS), st.integers(0, 5))
@example(ArithmeticFunction((1, 1, 1, 2)), "ones", 2)
@example(ArithmeticFunction((1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 13)), "natural", 3)
def test_a_mislabelled_seed_transforms_as_its_values(f0, preset, m):
    # a preset's label on other values must not select that preset's pair
    labelled = ArithmeticFunction(f0.values, preset)
    assert iterate_invert(labelled, m).values == iterate_invert(ArithmeticFunction(f0.values), m).values
    # depth 0 takes the general path, which expands f0's own values again
    assert iterate_invert(labelled, 0) == labelled


def test_custom_is_not_a_preset():
    assert len(Preset) == 6
    with pytest.raises(ValueError):
        make_seed("custom", 3)


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


@PROPERTY
@given(CUSTOM_SEEDS, st.integers(0, 5))
@example(ArithmeticFunction((0, 7, 0, 0, 0, 0)), 5)
def test_one_pass_equals_repeated_invert_steps(f0, m):
    stepped = f0
    for _ in range(m):
        stepped = invert_transform(stepped)
    assert iterate_invert(f0, m).values == stepped.values


@PROPERTY
@given(CUSTOM_SEEDS, st.integers(0, 5) | st.integers(6, 2**80))
@example(ArithmeticFunction((0, 0, 0)), 9)
def test_entry_bits_stay_within_the_predicted_bound(f0, m):
    bits = check_output_size(len(f0), m, max(f0.values))
    assert max(iterate_invert(f0, m).values).bit_length() <= bits


def test_output_size_rule():
    # the largest benchmark transform: natural seed, N = 800, m = 3
    assert check_output_size(800, 3, 800) == 9598
    # an all-zero seed is bounded as if its largest term were 1
    assert check_output_size(5, 4, 0) == check_output_size(5, 4, 1)
    # refused by the bits of one entry, then by the bits of all N entries
    with pytest.raises(OutputSizeError, match="12000 bits per entry"):
        check_output_size(2, 2**12000, 1)
    assert check_output_size(2000, 1, 1) * 2000 <= 2**24
    with pytest.raises(OutputSizeError, match="16777216 in all"):
        check_output_size(3000, 1, 1)
