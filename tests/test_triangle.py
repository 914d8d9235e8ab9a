"""Triangle construction, cross-checked against direct composition sums."""

import itertools
from math import comb, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from comptri import (
    ArithmeticFunction,
    InsufficientSeedError,
    OutputSizeError,
    closed_form,
    iterate_invert,
    make_seed,
    mat_mul,
    pascal_lower,
    triangle,
    triangle_bell,
    triangle_convolution,
    triangle_pascal,
    triangle_recurrence,
)
from comptri.triangle import ROUTES, disagreements
from seeds import PRESETS

# custom seeds f_0(1..N), N <= 16: digits, some 64-bit weights, f(1) may be 0
CUSTOM_SEEDS = st.lists(
    st.integers(0, 9) | st.integers(2**63, 2**64 - 1), min_size=1, max_size=16
).map(lambda values: ArithmeticFunction(tuple(values), "custom"))
DEPTHS = st.integers(1, 4)
# short custom seeds for the brute force: small values with zeros, f(1) may
# be 0, and 65-bit values
BRUTE_SEEDS = st.lists(
    st.integers(0, 3) | st.integers(2**64, 2**65 - 1), min_size=1, max_size=9
).map(lambda values: ArithmeticFunction(tuple(values), "custom"))
PROPERTY = settings(derandomize=True, max_examples=60, deadline=None)


def compositions(n, k):
    """All k-tuples of positive integers summing to n, by cut positions."""
    if k == 0:
        if n == 0:
            yield ()
        return
    for cuts in itertools.combinations(range(1, n), k - 1):
        bounds = (0,) + cuts + (n,)
        yield tuple(bounds[i + 1] - bounds[i] for i in range(k))


def weighted_count(f, n, k):
    return sum(prod(f(p) for p in parts) for parts in compositions(n, k))


def every_route(f0, m, order):
    """The rows of each route's triangle, by route name."""
    return {name: build(f0, m, order).rows for name, build in ROUTES.items()}


# Entries frozen from direct enumeration.  For depth 1 they are plain
# weighted composition counts; the depth-2 FIB row was confirmed both by the
# recurrence with transformed weights and by listing the 27 ternary words of
# length 3 with one letter 2 and no 00 factor (10 of them for k = 2).
def test_frozen_entries():
    assert triangle_recurrence(make_seed("fib", 5), 1, 5).entry(5, 3) == 3
    assert triangle_recurrence(make_seed("odd", 5), 1, 5).entry(5, 3) == 3
    assert triangle_recurrence(make_seed("natural", 3), 1, 3).entry(3, 2) == 4
    assert triangle_recurrence(make_seed("ge2", 5), 1, 5).entry(5, 2) == 2
    tri = triangle_recurrence(make_seed("fib", 4), 2, 4)
    assert tri.entry(4, 2) == 10
    assert tri.rows[3] == (5, 10, 6, 1)


@pytest.mark.parametrize("preset", PRESETS)
def test_depth_one_matches_composition_sums(preset):
    f0 = make_seed(preset, 9)
    tri = triangle_recurrence(f0, 1, 9)
    for n in range(1, 10):
        for k in range(1, n + 1):
            assert tri.entry(n, k) == weighted_count(f0, n, k)


@pytest.mark.parametrize("preset", PRESETS)
def test_depth_two_matches_composition_sums(preset):
    f0 = make_seed(preset, 8)
    w = iterate_invert(f0, 1)
    tri = triangle_recurrence(f0, 2, 8)
    for n in range(1, 9):
        for k in range(1, n + 1):
            assert tri.entry(n, k) == weighted_count(w, n, k)


# a fault in the recurrence's kernel reaches pascal's depth-1 base as well,
# so the two routes would go wrong together: check it by brute force
@PROPERTY
@given(BRUTE_SEEDS, st.integers(1, 2))
def test_recurrence_matches_composition_sums_on_custom_seeds(f0, m):
    w = iterate_invert(f0, m - 1)
    tri = triangle_recurrence(f0, m, len(f0))
    for n, row in enumerate(tri.rows, start=1):
        assert row == tuple(weighted_count(w, n, k) for k in range(1, n + 1))


@pytest.mark.parametrize("preset", PRESETS)
@pytest.mark.parametrize("m", (1, 2, 3, 2**40))
def test_four_routes_agree(preset, m):
    assert disagreements(every_route(make_seed(preset, 12), m, 12)) == []


@PROPERTY
@given(CUSTOM_SEEDS, DEPTHS)
def test_four_routes_agree_on_custom_seeds(f0, m):
    assert disagreements(every_route(f0, m, len(f0))) == []


# seeds whose support starts at s = 3 or later, so column k begins at row s k;
# the last has no support, so every route returns the zero triangle
LATE_SEEDS = (
    (0, 0, 3, 0, 7, 1, 0, 2, 9, 4),
    (0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1),
    (0, 0, 0, 2**64 - 1, 5, 0, 1, 2**63, 0),
    (0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 2),
    (0, 0, 0, 0),
)


@pytest.mark.parametrize("values", LATE_SEEDS)
@pytest.mark.parametrize("m", (1, 2, 3, 2**40))
def test_four_routes_agree_on_late_seeds(values, m):
    f0 = ArithmeticFunction(values)
    assert disagreements(every_route(f0, m, len(f0))) == []


def _reference(preset, m, order):
    """The depth-m triangle from closed forms, or from the recurrence for odd."""
    if preset == "odd":
        return triangle_recurrence(make_seed(preset, order), m, order).rows
    return tuple(
        tuple(closed_form(preset, m, n, k) for k in range(1, n + 1)) for n in range(1, order + 1)
    )


@pytest.mark.parametrize("preset", PRESETS)
def test_convolution_and_pascal_need_no_transformed_weights(preset, monkeypatch):
    # a transform that is wrong at every depth, 0 among them, breaks the routes
    # that read w, while the convolution route reads f_0 and the Pascal route
    # builds c_1 from f_0
    expected = _reference(preset, 2, 10)
    transform = triangle.iterate_invert

    def wrong(f, m):
        return ArithmeticFunction(tuple(v + 1 for v in transform(f, m).values))

    monkeypatch.setattr(triangle, "iterate_invert", wrong)
    f0 = make_seed(preset, 10)
    assert triangle_convolution(f0, 2, 10).rows == expected
    assert triangle_pascal(f0, 2, 10).rows == expected
    assert triangle_recurrence(f0, 2, 10).rows != expected
    assert triangle_bell(f0, 2, 10).rows != expected


@pytest.mark.parametrize("preset", PRESETS)
@pytest.mark.parametrize("m", (2, 3))
def test_convolution_and_bell_survive_a_broken_recurrence(preset, m, monkeypatch):
    expected = _reference(preset, m, 10)
    rows_from_weights = triangle._rows_from_weights

    def corrupted(w, order):
        rows = [list(row) for row in rows_from_weights(w, order)]
        rows[6][2] += 1
        return tuple(map(tuple, rows))

    monkeypatch.setattr(triangle, "_rows_from_weights", corrupted)
    f0 = make_seed(preset, 10)
    assert triangle_convolution(f0, m, 10).rows == expected
    assert triangle_bell(f0, m, 10).rows == expected
    assert triangle_recurrence(f0, m, 10).rows != expected
    assert triangle_pascal(f0, m, 10).rows != expected
    # the bad c_1(7, 3) under pascal's base reaches its c(7, k) for every k <= 3,
    # and the recurrence's own c(7, 3)
    found = disagreements(every_route(f0, m, 10))
    assert [(n, k) for n, k, _ in found] == [(7, 1), (7, 2), (7, 3)]
    for n, k, values in found:
        assert values["conv"] == values["bell"] == expected[n - 1][k - 1] != values["pascal"]
        assert (values["recurrence"] == values["pascal"]) == (k == 3)


@pytest.mark.parametrize("longer", ("recurrence", "pascal"))
def test_triangles_of_another_order_disagree(longer):
    # triangles that agree on their shared rows still differ when one has
    # another order, wherever in the dict it stands
    f0 = make_seed("fib", 4)
    triangles = every_route(f0, 2, 3)
    triangles[longer] = ROUTES[longer](f0, 2, 4).rows
    found = disagreements(triangles)
    assert [(n, k) for n, k, _ in found] == [(4, 1), (4, 2), (4, 3), (4, 4)]
    for n, k, values in found:
        assert values[longer] == triangles[longer][n - 1][k - 1]
        assert [name for name, v in values.items() if v is None] == [
            name for name in ROUTES if name != longer
        ]


@PROPERTY
@given(CUSTOM_SEEDS, DEPTHS)
def test_pascal_step_advances_depth(f0, m):
    # c_(m+1) = c_m L, with L the Pascal matrix
    order = len(f0)
    stepped = mat_mul(triangle_recurrence(f0, m, order), pascal_lower(order))
    assert stepped.rows == triangle_recurrence(f0, m + 1, order).rows


def test_boundary_conventions():
    # entries are stored for 1 <= k <= n <= order and read as zero above the
    # diagonal; the c(0, 0) and c(n, 0) conventions are not part of the table
    tri = triangle_recurrence(make_seed("fib", 6), 1, 6)
    assert tri.entry(3, 5) == 0
    for n, k in ((0, 0), (4, 0), (7, 1), (3, -1), (3, 7)):
        with pytest.raises(IndexError):
            tri.entry(n, k)


@pytest.mark.parametrize("preset", PRESETS)
def test_diagonal_and_first_column(preset):
    f0 = make_seed(preset, 10)
    for m in (1, 2, 3):
        w = iterate_invert(f0, m - 1)
        tri = triangle_recurrence(f0, m, 10)
        for n in range(1, 11):
            assert tri.entry(n, n) == w(1) ** n
            assert tri.entry(n, 1) == w(n)


def test_ones_triangle_is_binomial():
    tri = triangle_recurrence(make_seed("ones", 12), 1, 12)
    for n in range(1, 13):
        for k in range(1, n + 1):
            assert tri.entry(n, k) == comb(n - 1, k - 1)
    tri2 = triangle_recurrence(make_seed("ones", 8), 2, 8)
    for n in range(1, 9):
        for k in range(1, n + 1):
            assert tri2.entry(n, k) == 2 ** (n - k) * comb(n - 1, k - 1)


def test_support_vanishing():
    # parts >= 2 force k <= n/2 at every depth; parts in {2, 3} additionally
    # force k >= n/3 at depth 1
    for m in (1, 2, 3):
        tri = triangle_recurrence(make_seed("ge2", 14), m, 14)
        for n in range(1, 15):
            for k in range(n // 2 + 1, n + 1):
                assert tri.entry(n, k) == 0
        tri = triangle_recurrence(make_seed("two_three", 14), m, 14)
        for n in range(1, 15):
            for k in range(n // 2 + 1, n + 1):
                assert tri.entry(n, k) == 0
    tri = triangle_recurrence(make_seed("two_three", 14), 1, 14)
    for n in range(1, 15):
        for k in range(1, (n + 2) // 3):
            assert tri.entry(n, k) == 0


def test_insufficient_seed():
    with pytest.raises(InsufficientSeedError):
        triangle_recurrence(make_seed("ones", 4), 1, 5)


def test_order_cap():
    f0 = make_seed("ones", 65)
    for build in ROUTES.values():
        with pytest.raises(ValueError):
            build(f0, 1, 65)
        # the all-ones triangle is binomial up to the cap: c(64, 32) = C(63, 31)
        assert build(f0, 1, 64).entry(64, 32) == comb(63, 31)


def test_long_seed_is_cut_to_the_order(monkeypatch):
    # f(11) alone would break the size bound; the order-10 triangle never reads it
    long_seed = ArithmeticFunction((1,) * 10 + (2**12000,))
    for build in ROUTES.values():
        assert build(long_seed, 3, 10).rows == build(make_seed("ones", 10), 3, 10).rows
    lengths = []
    monkeypatch.setattr(triangle, "iterate_invert", lambda f, m: lengths.append(len(f)) or f)
    triangle_recurrence(make_seed("natural", 800), 3, 10)
    assert lengths == [10]


def test_output_size_bound_refuses_every_route():
    # entries of the all-ones order-20 triangle have up to 1 + 19 bitlen(m + 1) bits
    ones = make_seed("ones", 20)
    for build in ROUTES.values():
        with pytest.raises(OutputSizeError):
            build(ones, 2**700, 20)
        assert build(ones, 2**600, 20).order == 20
    with pytest.raises(OutputSizeError):
        triangle_recurrence(ArithmeticFunction((2**11999, 1)), 1, 2)


def test_depth_validation():
    f0 = make_seed("ones", 4)
    for build in ROUTES.values():
        with pytest.raises(ValueError):
            build(f0, 0, 4)


@pytest.mark.parametrize(
    ("m", "order", "message"),
    [(m, 4, f"depth m must be an integer, got {m!r}") for m in (True, 1.0, 1.5, "2")]
    + [(m, order, f"order must be an integer, got {order!r}") for order in (True, 3.0) for m in (1, 2)],
)
def test_every_route_refuses_a_non_integer_depth_or_order(m, order, message):
    # the routes share one gate, so each refuses the same input with one message
    for build in ROUTES.values():
        with pytest.raises(ValueError) as info:
            build(make_seed("ones", 4), m, order)
        assert str(info.value) == message
