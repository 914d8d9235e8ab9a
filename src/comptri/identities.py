"""Closed forms for preset triangles and stand-alone identity checkers.

Each sum runs only over the indices where every binomial in its terms is in
support, 0 <= k <= n, so it calls math.comb directly; a sum with no such
index is 0, exactly where the triangle vanishes.  ``binom``, which returns 0
outside the support, serves the word-count checkers.
"""

from __future__ import annotations

import functools
from math import comb

from .records import Record, set_field
from .sequences import Preset, make_seed
from .triangle import triangle_recurrence

PolynomialZ = tuple[int, ...]


def binom(n: int, k: int) -> int:
    """C(n, k), defined as 0 whenever k < 0, n < 0 or k > n."""
    return comb(n, k) if 0 <= k <= n else 0


def closed_form(preset: Preset | str, m: int, n: int, k: int) -> int:
    """Explicit binomial value of the depth-m triangle entry c(n, k).

    Every preset has a depth-1 form; all but ODD extend to arbitrary depth
    as a polynomial in m - 1 (the depth-1 form is the m = 1 case).  ODD with
    m > 1 raises ValueError.
    """
    if type(preset) is not Preset:
        preset = Preset(preset)
    if m < 1:
        raise ValueError("depth m must be >= 1")
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    if preset is Preset.ONES:
        return m ** (n - k) * comb(n - 1, k - 1)
    if preset is Preset.FIB:  # C(j+k, n-j-k) needs 0 <= n-j-k <= j+k
        return sum((m - 1) ** j * comb(j + k - 1, k - 1) * comb(j + k, n - j - k)
                   for j in range(max(0, (n + 1) // 2 - k), n - k + 1))
    if preset is Preset.ODD:
        if m != 1:
            raise ValueError("no explicit form is available beyond depth 1")
        return 0 if (n - k) % 2 else comb((n - k) // 2 + k - 1, k - 1)
    if preset is Preset.NATURAL:  # C(n+i-1, 2i-1) needs i <= n
        return sum((m - 1) ** (i - k) * comb(i - 1, k - 1) * comb(n + i - 1, 2 * i - 1)
                   for i in range(k, n + 1))
    if preset is Preset.GE2:  # C(n-k-j-1, k+j-1) needs 0 <= k+j-1 <= n-k-j-1
        return sum((m - 1) ** j * comb(j + k - 1, k - 1) * comb(n - k - j - 1, k + j - 1)
                   for j in range(n // 2 - k + 1))
    if preset is Preset.TWO_THREE:  # C(k+j, n-2k-2j) needs 0 <= n-2k-2j <= k+j
        return sum((m - 1) ** j * comb(j + k - 1, k - 1) * comb(k + j, n - 2 * k - 2 * j)
                   for j in range(max(0, -(-n // 3) - k), n // 2 - k + 1))


class FormCheck(Record):
    """One comparison of a triangle entry against its closed form; immutable and hashable."""

    __slots__ = ("m", "n", "k", "engine", "formula")

    def __init__(self, m: int, n: int, k: int, engine: int, formula: int) -> None:
        set_field(self, "m", m)
        set_field(self, "n", n)
        set_field(self, "k", k)
        set_field(self, "engine", engine)
        set_field(self, "formula", formula)

    @property
    def ok(self) -> bool:
        return self.engine == self.formula


def check_closed_forms(preset: Preset | str, order: int) -> list[FormCheck]:
    """Compare recurrence-built triangles of depths 1-3 against the explicit forms.

    Results are ordered by (m, n, k).  Depths without a known form for the
    preset are skipped rather than failed.
    """
    preset = Preset(preset)
    results: list[FormCheck] = []
    for m in (1,) if preset is Preset.ODD else (1, 2, 3):
        tri = triangle_recurrence(make_seed(preset, order), m, order)
        for n, row in enumerate(tri.rows, start=1):
            for k, engine in enumerate(row, start=1):
                results.append(FormCheck(m, n, k, engine, closed_form(preset, m, n, k)))
    return results


def check_binomial_inversion(n: int, k: int) -> bool:
    """C(n-1, k-1) == sum_{j=1}^{k} (-1)^(j+k) C(k, j) C(n+j-1, n)."""
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    rhs = sum((-1) ** (j + k) * comb(k, j) * comb(n + j - 1, n) for j in range(1, k + 1))
    return comb(n - 1, k - 1) == rhs


def check_power_expansion(m: int, n: int, k: int) -> bool:
    """m^(n-k) C(n-1, k-1) == sum_j (m-1)^j C(n-1, k+j-1) C(k+j-1, j), m > 1."""
    if m <= 1:
        raise ValueError("defined for m > 1")
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    lhs = m ** (n - k) * comb(n - 1, k - 1)
    rhs = sum((m - 1) ** j * comb(n - 1, k + j - 1) * comb(k + j - 1, j) for j in range(n - k + 1))
    return lhs == rhs


def check_word_binomial(n: int, k: int, words: int) -> bool:
    """C(n+k-1, 2k-1) == ``words``, the number of ternary words of length
    n-1 that avoid the factor 01 and contain exactly k-1 twos."""
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    return binom(n + k - 1, 2 * k - 1) == words


# check_chebyshev asks for u_(n+k-2) once per pair (n, k), so for each degree
# many times; a result is a tuple, so no caller can change a cached value
@functools.lru_cache(maxsize=64)
def chebyshev_u(d: int) -> PolynomialZ:
    """Coefficients of the degree-d Chebyshev polynomial of the second kind,
    ascending by degree: u_0 = 1, u_1 = 2x, u_d = 2x u_(d-1) - u_(d-2)."""
    if d < 0:
        raise ValueError("degree must be >= 0")
    prev: PolynomialZ = (1,)
    if d == 0:
        return prev
    cur: PolynomialZ = (0, 2)
    for _ in range(d - 1):
        nxt = [0] + [2 * c for c in cur]
        for i, c in enumerate(prev):
            nxt[i] -= c
        prev, cur = cur, tuple(nxt)
    return cur


def check_chebyshev(n: int, k: int, words: int) -> bool:
    """|coefficient of x^(n-k) in u_(n+k-2)| == 2^(n-k) C(n-1, k-1), and both
    equal ``words``, the number of ternary words of length n-1 with exactly
    k-1 twos."""
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    magnitude = abs(chebyshev_u(n + k - 2)[n - k])
    closed = 2 ** (n - k) * binom(n - 1, k - 1)
    return magnitude == closed == words
