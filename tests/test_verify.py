"""Identity sweeps that compute a value once still compare it wherever it is used."""

from comptri import Preset, pascal_lower, verify


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
