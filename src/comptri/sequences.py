"""Seed sequences and the iterated invert transform.

Everything here works on finite prefixes f(1), ..., f(N) of nonnegative
integer sequences, kept exact with Python integers.  The invert transform of
f is the sequence g with

    g(n) = f(n) + sum_{i=1}^{n-1} f(i) * g(n-i),

so g counts nonempty compositions (ordered sums) weighted by f over the
parts.  Iterating the transform m times sends f_0 to f_m; the prefix length
is preserved and f_m(1) = f_0(1) for every m.

In generating functions one step is F -> F / (1 - F), so m steps give the
closed form F_m = F_0 / (1 - m F_0), that is

    f_m(n) = f_0(n) + m * sum_{i=1}^{n-1} f_0(i) * f_m(n-i).

Each preset is defined by its F_0 = P/Q (deg P <= 3, deg Q <= 2), so
F_m = P/D with D = Q - m P, and one recurrence, g(n) = p_n - sum_{i>=1}
d_i g(n-i), expands the seed (D = Q) and f_m in O(N deg D) steps.  A seed
takes its preset's pair only if its label names the preset and P/Q expands
to its values; any other is P = f_0, Q = 1, the closed form above, in
O(N nnz) steps whatever m is.  m = 0 is no special case: D = Q expands f_0
itself.  invert_transform keeps the one-step definition.  The check of f_m
that does not use the closed form is verify.weighted_row_sums,
sum_k c_d(n, k) t^(k-1) = f_(d-1+t)(n) on triangles built from the
depth-(d-1) weights: the row sums at t = 1 and the depth-one expansion at
d = 1.

entry_bits is the one output-size rule: it bounds the bit length of
f_m(1..N), and so of every triangle entry c_m(n, k) <= f_m(n).
check_output_size refuses a run whose entries, or all N of them, it puts
past MAX_ENTRY_BITS or MAX_OUTPUT_BITS, before any work starts.
"""

from __future__ import annotations

from enum import Enum
from itertools import zip_longest

from .errors import InvalidSeedError, OutputSizeError, check_integer, check_integers
from .records import Record, set_field

# str() of an int refuses more than 4300 decimal digits (about 14 300 bits)
MAX_ENTRY_BITS = 12_000
MAX_OUTPUT_BITS = 1 << 24


class Preset(str, Enum):
    """The six built-in seed functions f_0; an explicit f_0 is an ArithmeticFunction."""

    ONES = "ones"
    FIB = "fib"
    ODD = "odd"
    NATURAL = "natural"
    GE2 = "ge2"
    TWO_THREE = "two_three"


# each preset's F_0 = P/Q, as coefficients of x^0, x^1, ...
_RATIONAL = {
    "ones": ((0, 1), (1, -1)),
    "fib": ((0, 1, 1), (1,)),
    "odd": ((0, 1), (1, 0, -1)),
    "natural": ((0, 1), (1, -2, 1)),
    "ge2": ((0, 0, 1), (1, -1)),
    "two_three": ((0, 0, 1, 1), (1,)),
}


def _series(p: tuple[int, ...], d: tuple[int, ...], n_terms: int) -> tuple[int, ...]:
    """Coefficients 1..n_terms of P/D, for P(0) = 0 and D(0) = 1:
    g(n) = p_n - sum_{i>=1} d_i g(n-i), over the nonzero d_i only."""
    minus_d = [(i, -c) for i, c in enumerate(d) if i and c]
    g: list[int] = []
    for n in range(1, n_terms + 1):
        acc = p[n] if n < len(p) else 0
        for i, c in minus_d:
            if i >= n:
                break
            acc += c * g[n - i - 1]
        g.append(acc)
    return tuple(g)


class ArithmeticFunction(Record):
    """A finite prefix f(1..N) of a nonnegative integer sequence.

    Values are 1-based: f(n) is ``values[n - 1]``.  Instances are immutable
    and hashable.
    """

    __slots__ = ("values", "label")

    def __init__(self, values: tuple[int, ...], label: str = "") -> None:
        try:
            vals = tuple(values)
        except TypeError:
            raise InvalidSeedError(f"values must be a sequence of integers, got {values!r}") from None
        if not vals:
            raise InvalidSeedError("an arithmetic function needs at least f(1)")
        check_integers(vals, InvalidSeedError, "entries must be nonnegative integers", 0)
        if not isinstance(label, str):
            raise InvalidSeedError(f"label must be a string, got {label!r}")
        set_field(self, "values", vals)
        set_field(self, "label", label)

    def __len__(self) -> int:
        return len(self.values)

    def __call__(self, n: int) -> int:
        check_integer("n", n)
        if not 1 <= n <= len(self.values):
            raise IndexError(f"f({n}) is outside the stored prefix 1..{len(self.values)}")
        return self.values[n - 1]


def make_seed(preset: Preset | str, n_terms: int) -> ArithmeticFunction:
    """The prefix f_0(1..n_terms) of a preset; wrap an explicit f_0 in
    ArithmeticFunction instead."""
    preset = Preset(preset)
    check_integer("n_terms", n_terms)
    if n_terms < 1:
        raise InvalidSeedError("n_terms must be at least 1")
    return ArithmeticFunction(_series(*_RATIONAL[preset.value], n_terms), label=preset.value)


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
    """The m-th invert transform f_m = P/(Q - m P) for f0's F_0 = P/Q (see
    the module docstring); at m = 0, D = Q expands f0's own values."""
    check_integer("m", m, 0)
    pair = _RATIONAL.get(f0.label)
    if pair is None or _series(*pair, len(f0)) != f0.values:
        pair = (0, *f0.values), (1,)
    p, q = pair
    d = tuple(a - m * b for a, b in zip_longest(q, p, fillvalue=0))
    return ArithmeticFunction(_series(p, d, len(f0)), label=f0.label)


def entry_bits(n: int, m: int, top: int) -> int:
    """Bit bound b on f_m(1..n) for a seed with max f_0(1..n) = top.

    With T = max(1, top), f_m(n) <= T (1 + m T)^(n-1) by induction on the
    closed form, so b = bitlen(T) + (n-1) bitlen(m T + 1).  Every triangle
    entry c_m(n, k) is at most f_m(n), and each binomial weight of
    triangle_pascal is at most an entry of the all-ones seed's triangle,
    which T >= 1 covers, so b bounds them too.  It refuses no size: a
    caller compares b with MAX_ENTRY_BITS, the bound for one entry.
    """
    check_integer("n", n, 1)
    check_integer("m", m, 0)
    check_integer("top", top, 0)
    top = max(top, 1)
    return top.bit_length() + (n - 1) * (m * top + 1).bit_length()


def check_output_size(n: int, m: int, top: int) -> int:
    """entry_bits(n, m, top), once an entry of that many bits fits in
    MAX_ENTRY_BITS and n of them in MAX_OUTPUT_BITS; refuses a run whose
    output would be too large, before any work starts, with OutputSizeError
    (one text for both bounds, so a refusal reads the same whichever fails)."""
    bits = entry_bits(n, m, top)
    if bits > MAX_ENTRY_BITS or n * bits > MAX_OUTPUT_BITS:
        raise OutputSizeError(
            f"output-size bound exceeded: f_{m}(1..{n}) may need {bits} bits per entry, {n * bits} in all; "
            f"the bound is {MAX_ENTRY_BITS} bits per entry and {MAX_OUTPUT_BITS} in all"
        )
    return bits
