"""Seed sequences and the iterated invert transform.

Everything here works on finite prefixes f(1), ..., f(N) of nonnegative
integer sequences, kept exact with Python integers.  The invert transform of
f is the sequence g with

    g(n) = f(n) + sum_{i=1}^{n-1} f(i) * g(n-i),

so g counts nonempty compositions (ordered sums) weighted by f over the
parts.  Iterating the transform m times sends f_0 to f_m; the prefix length
is preserved and f_m(1) = f_0(1) for every m.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import InsufficientSeedError, InvalidSeedError


class Preset(str, Enum):
    """Built-in seed functions f_0."""

    ONES = "ones"
    FIB = "fib"
    ODD = "odd"
    NATURAL = "natural"
    GE2 = "ge2"
    TWO_THREE = "two_three"
    CUSTOM = "custom"


def _preset_value(preset: Preset, i: int) -> int:
    if preset is Preset.ONES:
        return 1
    if preset is Preset.FIB:
        return 1 if i <= 2 else 0
    if preset is Preset.ODD:
        return i % 2
    if preset is Preset.NATURAL:
        return i
    if preset is Preset.GE2:
        return 0 if i == 1 else 1
    if preset is Preset.TWO_THREE:
        return 1 if i in (2, 3) else 0
    raise InvalidSeedError(f"preset {preset!r} has no formula")


@dataclass(frozen=True)
class ArithmeticFunction:
    """A finite prefix f(1..N) of a nonnegative integer sequence.

    Values are 1-based: f(n) is ``values[n - 1]``.  Instances are immutable
    and hashable.
    """

    values: tuple[int, ...]
    label: str = ""

    def __post_init__(self) -> None:
        vals = tuple(self.values)
        if not vals:
            raise InvalidSeedError("an arithmetic function needs at least f(1)")
        for v in vals:
            if isinstance(v, bool) or not isinstance(v, int) or v < 0:
                raise InvalidSeedError(f"entries must be nonnegative integers, got {v!r}")
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return len(self.values)

    def __call__(self, n: int) -> int:
        if not 1 <= n <= len(self.values):
            raise IndexError(f"f({n}) is outside the stored prefix 1..{len(self.values)}")
        return self.values[n - 1]


def make_seed(
    preset: Preset | str,
    n_terms: int,
    custom_values: list[int] | tuple[int, ...] | None = None,
) -> ArithmeticFunction:
    """Build the prefix f_0(1..n_terms) for a preset, or wrap an explicit list.

    CUSTOM requires ``custom_values``; its length must cover ``n_terms``.
    """
    preset = Preset(preset)
    if n_terms < 1:
        raise InvalidSeedError("n_terms must be at least 1")
    if preset is Preset.CUSTOM:
        if not custom_values:
            raise InvalidSeedError("a custom seed needs an explicit nonempty list")
        if len(custom_values) < n_terms:
            raise InsufficientSeedError(
                f"custom seed has {len(custom_values)} terms, {n_terms} requested"
            )
        return ArithmeticFunction(tuple(custom_values[:n_terms]), label=preset.value)
    if custom_values is not None:
        raise InvalidSeedError("explicit values are only valid with the custom preset")
    return ArithmeticFunction(
        tuple(_preset_value(preset, i) for i in range(1, n_terms + 1)),
        label=preset.value,
    )


def invert_transform(f: ArithmeticFunction) -> ArithmeticFunction:
    """One invert step: g(n) = f(n) + sum_{i=1}^{n-1} f(i) g(n-i)."""
    g: list[int] = []
    for n in range(1, len(f) + 1):
        total = f(n)
        for i in range(1, n):
            total += f(i) * g[n - i - 1]
        g.append(total)
    return ArithmeticFunction(tuple(g), label=f.label)


def iterate_invert(f0: ArithmeticFunction, m: int) -> ArithmeticFunction:
    """The m-th invert transform f_m; m = 0 returns f0 itself."""
    if m < 0:
        raise ValueError("the transform is only iterated forward, m must be >= 0")
    f = f0
    for _ in range(m):
        f = invert_transform(f)
    return f


def transform_via_triangle(f0: ArithmeticFunction, m: int, n: int) -> int:
    """f_m(n) recovered from the depth-1 triangle: sum_i m^(i-1) c_1(n, i).

    Independent of iterate_invert except for the shared seed; useful as a
    cross-check of both routes.
    """
    from .triangle import triangle_recurrence

    if m < 1:
        raise ValueError("m must be >= 1")
    if not 1 <= n <= len(f0):
        raise IndexError(f"n must lie in 1..{len(f0)}")
    tri = triangle_recurrence(f0, 1, n)
    return sum(m ** (i - 1) * tri.entry(n, i) for i in range(1, n + 1))
