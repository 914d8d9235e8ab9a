"""Binomial identities, closed forms, and the Chebyshev coefficient check."""

import time
from math import comb

import pytest

from comptri import (
    LowerTriangularMatrix,
    OutputSizeError,
    Restriction,
    WordModel,
    chebyshev_u,
    check_binomial_inversion,
    check_chebyshev,
    check_closed_forms,
    check_power_expansion,
    check_word_binomial,
    closed_form,
    count_words,
    make_seed,
    triangle_recurrence,
)
from comptri import identities, verify
from seeds import PRESETS

R = Restriction


CHEBYSHEV_SMALL = {
    0: (1,),
    1: (0, 2),
    2: (-1, 0, 4),
    3: (0, -4, 0, 8),
    4: (1, 0, -12, 0, 16),
    5: (0, 6, 0, -32, 0, 32),
}


@pytest.mark.parametrize("d", sorted(CHEBYSHEV_SMALL))
def test_chebyshev_small(d):
    assert chebyshev_u(d) == CHEBYSHEV_SMALL[d]


def test_chebyshev_structure():
    for d in range(12):
        coeffs = chebyshev_u(d)
        assert len(coeffs) == d + 1
        assert coeffs[d] == 2**d
        # only every other coefficient is nonzero
        assert all(coeffs[i] == 0 for i in range(d + 1) if (d - i) % 2)
        # classical evaluation at x = 1
        assert sum(coeffs) == d + 1


def test_chebyshev_validation():
    # chebyshev_u keeps its results, but never an error: each call raises anew
    for _ in range(3):
        with pytest.raises(ValueError):
            chebyshev_u(-1)
    assert chebyshev_u(5) is chebyshev_u(5)
    assert isinstance(chebyshev_u(5), tuple)


def test_binomial_inversion_sweep():
    for n in range(1, 15):
        for k in range(1, n + 1):
            assert check_binomial_inversion(n, k)


def test_power_expansion_sweep():
    for m in (2, 3, 4):
        for n in range(1, 13):
            for k in range(1, n + 1):
                assert check_power_expansion(m, n, k)


def test_power_expansion_needs_m_above_one():
    with pytest.raises(ValueError):
        check_power_expansion(1, 4, 2)


def test_word_binomial_sweep():
    for n in range(1, 10):
        for k in range(1, 10 - n + 1):
            words = count_words(WordModel(3, n - 1, R.AVOID_01, 2, k - 1))
            assert check_word_binomial(n, k, words)
            assert not check_word_binomial(n, k, words + 1)


def test_chebyshev_word_sweep():
    for n in range(1, 10):
        for k in range(1, min(n, 10 - n) + 1):
            words = count_words(WordModel(3, n - 1, R.NONE, 2, k - 1))
            assert check_chebyshev(n, k, words)
            assert not check_chebyshev(n, k, words + 1)


def test_closed_form_values():
    # ones: m^(n-k) C(n-1, k-1)
    assert closed_form("ones", 2, 5, 2) == 8 * comb(4, 1)
    # fib at depth 1: C(k, n-k)
    assert closed_form("fib", 1, 5, 3) == comb(3, 2)
    # odd at depth 1: zero unless n-k is even
    assert closed_form("odd", 1, 6, 3) == 0
    assert closed_form("odd", 1, 7, 3) == comb(4, 2)
    # natural: C(n+k-1, 2k-1)
    assert closed_form("natural", 1, 3, 2) == comb(4, 3)
    # ge2: C(n-k-1, k-1)
    assert closed_form("ge2", 1, 5, 2) == comb(2, 1)
    assert closed_form("ge2", 1, 5, 3) == 0
    # two_three: C(k, n-2k)
    assert closed_form("two_three", 1, 5, 2) == comb(2, 1)
    assert closed_form("two_three", 1, 7, 2) == 0


def test_closed_form_limits():
    with pytest.raises(ValueError):
        closed_form("custom", 1, 3, 2)
    with pytest.raises(ValueError):
        closed_form("ones", 0, 3, 2)
    with pytest.raises(ValueError):
        closed_form("ones", 1, 3, 4)


def test_closed_form_refuses_an_unprintable_entry_before_any_sum():
    # natural's sum at n = 40 000 would take minutes; the bound at top 1 refuses it at once
    start = time.perf_counter()
    with pytest.raises(OutputSizeError):
        closed_form("natural", 3, 40_000, 1)
    assert time.perf_counter() - start < 0.1
    # at n = 1500 the bound passes at top 1 but not at natural's top f_0(1500) = 1500
    assert closed_form("ones", 1, 1500, 1) == 1
    with pytest.raises(OutputSizeError):
        closed_form("natural", 1, 1500, 1)


def test_closed_form_bounds_one_entry_not_a_whole_prefix():
    # ones at m = 1 bounds c(n, 1) = 1 by 2n - 1 bits, the per-entry bound
    # alone: n = 2897 passes, though 2897 such entries exceed MAX_OUTPUT_BITS
    assert closed_form("ones", 1, 2897, 1) == 1
    assert closed_form("ones", 1, 6000, 1) == 1  # 11 999 bits
    # the refusal names the one entry and its bound, not a prefix's
    with pytest.raises(OutputSizeError) as refused:
        closed_form("ones", 1, 6001, 1)
    assert str(refused.value) == (
        "output-size bound exceeded: c_1(6001, 1) may need 12001 bits; the bound is 12000 bits per entry"
    )


def binom(n, k):
    return comb(n, k) if 0 <= k <= n else 0


def full_range_form(preset, m, n, k):
    """closed_form summed over the index ranges it used before each sum was cut
    to its support, so the terms outside it vanish only by binom's zeros."""
    if preset == "ones":
        return m ** (n - k) * binom(n - 1, k - 1)
    if preset == "fib":
        terms = ((m - 1) ** j * binom(j + k - 1, k - 1) * binom(j + k, n - j - k) for j in range(n - k + 1))
    if preset == "odd":
        # the exponent is negative only where C(j, n-k-j) is 0; max keeps the power an integer
        terms = (
            (m - 1) ** max(0, 2 * j - n + k) * binom(k + j - 1, k - 1) * binom(j, n - k - j) for j in range(n - k + 1)
        )
    if preset == "natural":
        terms = (
            (m - 1) ** (i - k) * binom(i - 1, k - 1) * binom(n + i - 1, 2 * i - 1) for i in range(k, n + 1)
        )
    if preset == "ge2":
        terms = (
            (m - 1) ** j * binom(j + k - 1, k - 1) * binom(n - k - j - 1, k + j - 1)
            for j in range(max(0, n // 2 - k) + 1)
        )
    if preset == "two_three":
        terms = (
            (m - 1) ** j * binom(j + k - 1, k - 1) * binom(k + j, n - 2 * k - 2 * j) for j in range(n // 2 + 1)
        )
    return sum(terms)


@pytest.mark.parametrize("preset", PRESETS)
def test_closed_form_grid(preset):
    # far past the verify suite's order 20 and m <= 3: a sum cut one term short
    # of its support differs somewhere here from the full range and the recurrence
    for m in range(1, 6):
        tri = triangle_recurrence(make_seed(preset, 40), m, 40)
        for n, row in enumerate(tri.rows, start=1):
            for k, entry in enumerate(row, start=1):
                assert closed_form(preset, m, n, k) == full_range_form(preset, m, n, k) == entry, (m, n, k)


def triangle_size(order):
    return order * (order + 1) // 2


@pytest.mark.parametrize("preset", PRESETS)
def test_closed_forms_match_engine(preset):
    outcomes = check_closed_forms(preset, 14)
    assert all(outcome is True for outcome in outcomes)
    assert len(outcomes) == (1 if preset == "odd" else 3) * triangle_size(14)


def test_closed_forms_report_order(monkeypatch):
    # a recurrence off by one at c(3, 2) of fib at m = 2 fails exactly that
    # entry, at its (m, n, k) position, with the text verify prints
    def off_by_one(f0, m, order):
        rows = [list(row) for row in triangle_recurrence(f0, m, order).rows]
        rows[2][1] += f0.label == "fib" and m == 2
        return LowerTriangularMatrix(rows)

    monkeypatch.setattr(identities, "triangle_recurrence", off_by_one)
    outcomes = check_closed_forms("fib", 4)
    keys = [(m, n, k) for m in (1, 2, 3) for n in range(1, 5) for k in range(1, n + 1)]
    text = "fib m=2 n=3 k=2: engine 5 != formula 4"
    assert outcomes == [text if key == (2, 3, 2) else True for key in keys]
    assert verify.closed_forms(4).failures == (text,)


def test_closed_forms_skip_unavailable_depths():
    # depths 1-3 for every preset but ODD, which is checked at depth 1 only
    for preset in PRESETS:
        outcomes = check_closed_forms(preset, 6)
        assert all(outcome is True for outcome in outcomes)
        assert len(outcomes) == (1 if preset == "odd" else 3) * triangle_size(6)


CLOSED_FORM_ARGUMENTS = {
    "float-m": (closed_form, ("ones", 1.5, 3, 2), "depth m must be an integer, got 1.5"),
    "bool-m": (closed_form, ("ones", True, 3, 2), "depth m must be an integer, got True"),
    "float-n": (closed_form, ("fib", 2, 5.0, 2), "n must be an integer, got 5.0"),
    "bool-k": (closed_form, ("fib", 2, 5, True), "k must be an integer, got True"),
    "bool-order": (check_closed_forms, ("ones", True), "order must be an integer, got True"),
    "float-order": (check_closed_forms, ("ones", 2.0), "order must be an integer, got 2.0"),
}


@pytest.mark.parametrize(("call", "args", "message"), CLOSED_FORM_ARGUMENTS.values(), ids=CLOSED_FORM_ARGUMENTS)
def test_closed_forms_check_their_arguments_before_any_work(monkeypatch, call, args, message):
    # a bool is not taken for 1, nor a float for an integer, and no triangle is built
    calls = []
    monkeypatch.setattr(identities, "triangle_recurrence", lambda *built: calls.append(built))
    with pytest.raises(ValueError) as info:
        call(*args)
    assert str(info.value) == message
    assert calls == []


def test_depth_one_reduction():
    # every m-sum collapses to its depth-1 form at m = 1
    for preset in PRESETS:
        tri = triangle_recurrence(make_seed(preset, 12), 1, 12)
        for n in range(1, 13):
            for k in range(1, n + 1):
                assert closed_form(preset, 1, n, k) == tri.entry(n, k)
