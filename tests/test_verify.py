"""Identity sweeps that compute a value once still compare it wherever it is used."""

from comptri import ArithmeticFunction, Preset, pascal_lower, verify


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
    # f_2 of ones one too high at n = 3 fails row 3 in both sweeps of the
    # suite, which computes each of the 30 (preset, m) transforms once
    iterate_invert = verify.iterate_invert
    calls = []

    def off_by_one(f0, m):
        calls.append((f0.label, m))
        fm = iterate_invert(f0, m)
        if (f0.label, m) == ("ones", 2):
            return ArithmeticFunction(fm.values[:2] + (fm.values[2] + 1,) + fm.values[3:])
        return fm

    monkeypatch.setattr(verify, "iterate_invert", off_by_one)
    result = verify.suites()["row-sums"]()
    assert sorted(calls) == sorted((preset.value, m) for preset in Preset for m in verify.DEPTHS)
    assert result.checks == 1800
    assert result.failures == (
        "ones m=2 n=3: row sum != transform",
        "ones m=2 n=3: depth-1 expansion != transform",
    )
