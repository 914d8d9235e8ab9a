"""Closed forms for preset triangles and stand-alone identity checkers.

Each preset's depth-m entry c(n, k), the coefficient of x^n in W^k for W the
series of w = f_(m-1), has one closed form, a polynomial in m - 1 valid at
every depth; at m = 1 only its (m-1)^0 terms remain, the depth-1 form.  Each
sum runs only over the indices where every binomial in its terms is in
support, 0 <= k <= n, so it calls math.comb directly; a sum with no such
index is 0, exactly where the triangle vanishes.  The word-count checkers
call math.comb as well: their guards keep both arguments nonnegative, and
math.comb is 0 past the support, k > n.
"""

from __future__ import annotations

import functools
from math import comb

from .errors import OutputSizeError, check_integer
from .sequences import MAX_ENTRY_BITS, Preset, entry_bits, make_seed
from .triangle import triangle_recurrence

PolynomialZ = tuple[int, ...]


def _form(preset: Preset, m: int, n: int, k: int) -> int:
    """c(n, k) of the preset at depth m >= 1, for 1 <= k <= n; the arguments are not checked."""
    if preset is Preset.ONES:
        return m ** (n - k) * comb(n - 1, k - 1)
    if preset is Preset.FIB:  # C(j+k, n-j-k) needs 0 <= n-j-k <= j+k
        return sum((m - 1) ** j * comb(j + k - 1, k - 1) * comb(j + k, n - j - k)
                   for j in range(max(0, (n + 1) // 2 - k), n - k + 1))
    if preset is Preset.ODD:  # W = x/(1-(m-1)x-x^2); C(j, n-k-j) needs 0 <= n-k-j <= j
        return sum((m - 1) ** (2 * j - n + k) * comb(k + j - 1, k - 1) * comb(j, n - k - j)
                   for j in range((n - k + 1) // 2, n - k + 1))
    if preset is Preset.NATURAL:  # C(n+i-1, 2i-1) needs i <= n
        return sum((m - 1) ** (i - k) * comb(i - 1, k - 1) * comb(n + i - 1, 2 * i - 1)
                   for i in range(k, n + 1))
    if preset is Preset.GE2:  # C(n-k-j-1, k+j-1) needs 0 <= k+j-1 <= n-k-j-1
        return sum((m - 1) ** j * comb(j + k - 1, k - 1) * comb(n - k - j - 1, k + j - 1)
                   for j in range(n // 2 - k + 1))
    # TWO_THREE: C(k+j, n-2k-2j) needs 0 <= n-2k-2j <= k+j
    return sum((m - 1) ** j * comb(j + k - 1, k - 1) * comb(k + j, n - 2 * k - 2 * j)
               for j in range(max(0, -(-n // 3) - k), n // 2 - k + 1))


def _check_entry(n: int, k: int) -> None:
    """Refuse an n or a k that is not an integer, or a pair outside 1 <= k <= n."""
    check_integer("n", n)
    check_integer("k", k)
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")


def closed_form(preset: Preset | str, m: int, n: int, k: int) -> int:
    """Explicit binomial value of the depth-m triangle entry c(n, k), for every integer m >= 1."""
    preset = Preset(preset)
    check_integer("depth m", m, 1)
    _check_entry(n, k)
    # c(n, k) <= f_m(n), so refuse an entry that could not be printed; top 1
    # first, so that the seed is built only for an n that can pass
    bits = entry_bits(n, m, 1)
    if bits <= MAX_ENTRY_BITS:
        bits = entry_bits(n, m, max(make_seed(preset, n).values))
    if bits > MAX_ENTRY_BITS:
        raise OutputSizeError(f"output-size bound exceeded: c_{m}({n}, {k}) may need {bits} bits; "
                              f"the bound is {MAX_ENTRY_BITS} bits per entry")
    return _form(preset, m, n, k)


def check_closed_forms(preset: Preset | str, order: int) -> list[bool | str]:
    """Compare recurrence-built triangles up to ``order`` against the preset's closed form.

    One outcome per entry, in (m, n, k) order: True where they agree, else
    the text of the failure.
    """
    preset = Preset(preset)
    check_integer("order", order)
    f0 = make_seed(preset, order)
    outcomes: list[bool | str] = []
    # depths 1-3, ODD at 1: perfbench pins the default verify at 6281 checks
    # (VERIFY_CHECKS), so every depth waits for an opt-in suite (ROADMAP item 2)
    for m in (1,) if preset is Preset.ODD else (1, 2, 3):
        tri = triangle_recurrence(f0, m, order)
        for n, row in enumerate(tri.rows, start=1):
            for k, engine in enumerate(row, start=1):
                formula = _form(preset, m, n, k)
                outcomes.append(engine == formula or (
                    f"{preset.value} m={m} n={n} k={k}: engine {engine} != formula {formula}"
                ))
    return outcomes


def check_binomial_inversion(n: int, k: int) -> bool:
    """C(n-1, k-1) == sum_{j=1}^{k} (-1)^(j+k) C(k, j) C(n+j-1, n)."""
    _check_entry(n, k)
    rhs = sum((-1) ** (j + k) * comb(k, j) * comb(n + j - 1, n) for j in range(1, k + 1))
    return comb(n - 1, k - 1) == rhs


def check_power_expansion(m: int, n: int, k: int) -> bool:
    """m^(n-k) C(n-1, k-1) == sum_j (m-1)^j C(n-1, k+j-1) C(k+j-1, j), m > 1."""
    check_integer("m", m, 2)
    _check_entry(n, k)
    lhs = m ** (n - k) * comb(n - 1, k - 1)
    rhs = sum((m - 1) ** j * comb(n - 1, k + j - 1) * comb(k + j - 1, j) for j in range(n - k + 1))
    return lhs == rhs


def check_word_binomial(n: int, k: int, words: int) -> bool:
    """C(n+k-1, 2k-1) == ``words``, the number of ternary words of length
    n-1 that avoid the factor 01 and contain exactly k-1 twos."""
    check_integer("n", n)
    check_integer("k", k)
    check_integer("words", words)
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    return comb(n + k - 1, 2 * k - 1) == words


# check_chebyshev asks for u_(n+k-2) once per pair (n, k), so for each degree
# many times; a result is a tuple, so no caller can change a cached value, and
# typed, so that True or 2.0 never reads the value cached for 1 or 2
@functools.lru_cache(maxsize=64, typed=True)
def chebyshev_u(d: int) -> PolynomialZ:
    """Coefficients of the degree-d Chebyshev polynomial of the second kind,
    ascending by degree: u_(-1) = 0, u_0 = 1, u_d = 2x u_(d-1) - u_(d-2)."""
    check_integer("degree", d, 0)
    prev: PolynomialZ = ()
    cur: PolynomialZ = (1,)
    for _ in range(d):
        nxt = [0] + [2 * c for c in cur]
        for i, c in enumerate(prev):
            nxt[i] -= c
        prev, cur = cur, tuple(nxt)
    return cur


def check_chebyshev(n: int, k: int, words: int) -> bool:
    """|coefficient of x^(n-k) in u_(n+k-2)| == 2^(n-k) C(n-1, k-1), and both
    equal ``words``, the number of ternary words of length n-1 with exactly
    k-1 twos."""
    _check_entry(n, k)
    check_integer("words", words)
    magnitude = abs(chebyshev_u(n + k - 2)[n - k])
    closed = 2 ** (n - k) * comb(n - 1, k - 1)
    return magnitude == closed == words
