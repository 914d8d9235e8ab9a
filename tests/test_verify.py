"""Identity sweeps that compute a value once still compare it wherever it is
used, and the weighted row sums hold for custom seeds and catch what the row
sums alone miss."""

from hypothesis import given, settings

from comptri import ArithmeticFunction, LowerTriangularMatrix, Preset, make_seed, pascal_lower, verify
from seeds import CUSTOM_SEEDS


def test_pascal_power_computed_once_is_compared_for_every_preset(monkeypatch):
    # a wrong L^2 fails the power relation at m = 3 once per preset, and the
    # closed-form check of L^2 at order 20
    mat_pow = verify.mat_pow

    def wrong_square(a, e):
        return pascal_lower(a.order, 5) if e == 2 else mat_pow(a, e)

    monkeypatch.setattr(verify, "mat_pow", wrong_square)
    result = verify.pascal_relations(16, 12, [20])
    assert result.checks == 66
    assert result.failures == (
        *(f"{preset.value}: power relation fails at m=3" for preset in Preset),
        "Pascal power m=2 at order 20 differs from the closed form",
    )


def test_a_transform_computed_once_is_compared_by_both_row_sum_sweeps(monkeypatch):
    # f_2 of ones one too high at n = 3 fails row 3 in both slices that read
    # it, (m, t) = (2, 1) and (1, 2); the suite builds each of the 30
    # (preset, m) triangles and transforms once
    iterate_invert, triangle_recurrence = verify.iterate_invert, verify.triangle_recurrence
    transforms, triangles = [], []

    def off_by_one(f0, m):
        transforms.append((f0.label, m))
        fm = iterate_invert(f0, m)
        if (f0.label, m) == ("ones", 2):
            return ArithmeticFunction(fm.values[:2] + (fm.values[2] + 1,) + fm.values[3:])
        return fm

    def counted(f0, m, order):
        triangles.append((f0.label, m))
        return triangle_recurrence(f0, m, order)

    monkeypatch.setattr(verify, "iterate_invert", off_by_one)
    monkeypatch.setattr(verify, "triangle_recurrence", counted)
    result = verify.suites()["row-sums"]()
    expected = sorted((preset.value, m) for preset in Preset for m in verify.DEPTHS)
    assert sorted(transforms) == sorted(triangles) == expected
    assert result.checks == 1800
    assert result.failures == (
        "ones d=2 t=1 n=3: weighted row sum != transform",
        "ones d=1 t=2 n=3: weighted row sum != transform",
    )


def full_range(order, depths):
    """Every (d, t) with t = 0..order-1, whose order values of t fix each row up to ``order``."""
    return [(d, t) for d in depths for t in range(order)]


@settings(derandomize=True, max_examples=60, deadline=None)
@given(CUSTOM_SEEDS)
def test_weighted_row_sums_hold_over_the_full_range_for_custom_seeds(seed):
    result = verify.weighted_row_sums([seed], len(seed), full_range(len(seed), range(1, 5)))
    assert result.checks == 4 * len(seed) ** 2
    assert result.failures == ()


def test_a_swap_that_keeps_the_row_sum_fails_only_off_t_1(monkeypatch):
    # c(3, 1) and c(3, 2) of ones swapped: row 3 still sums to f_1(3), but
    # each t != 1 weighs the two columns differently
    triangle_recurrence = verify.triangle_recurrence

    def swapped(f0, m, order):
        rows = [list(row) for row in triangle_recurrence(f0, m, order).rows]
        rows[2][0], rows[2][1] = rows[2][1], rows[2][0]
        return LowerTriangularMatrix(rows)

    monkeypatch.setattr(verify, "triangle_recurrence", swapped)
    seeds = [make_seed("ones", 6)]
    assert verify.weighted_row_sums(seeds, 6, [(1, 1)]).failures == ()
    assert verify.weighted_row_sums(seeds, 6, full_range(6, [1])).failures == tuple(
        f"ones d=1 t={t} n=3: weighted row sum != transform" for t in (0, 2, 3, 4, 5)
    )
