"""Argument guards raise their documented exception type and message."""

import numpy as np
import pytest

from comptri import (
    ArithmeticFunction,
    DimensionError,
    EnumerationBudgetError,
    InvalidSeedError,
    LowerTriangularMatrix,
    Restriction as R,
    WordModel,
    bell_table,
    chebyshev_u,
    check,
    check_binomial_inversion,
    check_chebyshev,
    check_output_size,
    check_power_expansion,
    check_word_binomial,
    closed_form,
    composition_to_word,
    iterate_invert,
    make_seed,
    mark_histogram,
    mat_pow,
    oracle_model,
    pascal_lower,
    shifted_pascal_inverse,
    triangle_recurrence,
    word_to_composition,
)
from comptri.errors import check_integer
from comptri.sequences import entry_bits


# one row per guard: call, exception type, message
GUARDS = {
    "bell_table-negative-n_max": (lambda: bell_table([1], -1), ValueError, "n_max must be >= 0"),
    "binomial_inversion-k-above-n": (
        lambda: check_binomial_inversion(2, 3), ValueError, "need 1 <= k <= n"
    ),
    "power_expansion-k-above-n": (
        lambda: check_power_expansion(2, 2, 3), ValueError, "need 1 <= k <= n"
    ),
    "word_binomial-n-zero": (
        lambda: check_word_binomial(0, 1, 0), ValueError, "need n >= 1 and k >= 1"
    ),
    "chebyshev-k-above-n": (lambda: check_chebyshev(2, 3, 0), ValueError, "need 1 <= k <= n"),
    "make_seed-no-terms": (
        lambda: make_seed("ones", 0), InvalidSeedError, "n_terms must be at least 1"
    ),
    "triangle_recurrence-order-zero": (
        lambda: triangle_recurrence(make_seed("ones", 3), 1, 0), ValueError, "order must be >= 1"
    ),
    "mark_histogram-marked-letter-outside": (
        lambda: mark_histogram(2, 3, R.NONE, 2),
        ValueError,
        "marked letter must belong to the alphabet",
    ),
    "oracle_model-n-zero": (lambda: oracle_model("ones", 1, 0), ValueError, "n must be >= 1"),
    "oracle_model-bool-depth": (
        lambda: oracle_model("fib", True, 3), ValueError, "depth m must be an integer, got True"
    ),
    "oracle_model-float-depth": (
        lambda: oracle_model("fib", 2.0, 4), ValueError, "depth m must be an integer, got 2.0"
    ),
    "oracle_model-float-n": (
        lambda: oracle_model("fib", 2, 4.0), ValueError, "n must be an integer, got 4.0"
    ),
    "make_seed-bool-terms": (
        lambda: make_seed("fib", True), ValueError, "n_terms must be an integer, got True"
    ),
    "make_seed-float-terms": (
        lambda: make_seed("fib", 3.0), ValueError, "n_terms must be an integer, got 3.0"
    ),
    "iterate_invert-bool-m": (
        lambda: iterate_invert(make_seed("fib", 3), True), ValueError, "m must be an integer, got True"
    ),
    "iterate_invert-float-m": (
        lambda: iterate_invert(make_seed("fib", 3), 1.0), ValueError, "m must be an integer, got 1.0"
    ),
    "pascal_lower-bool-order": (
        lambda: pascal_lower(True), ValueError, "order must be an integer, got True"
    ),
    "pascal_lower-bool-power": (
        lambda: pascal_lower(3, True), ValueError, "power must be an integer, got True"
    ),
    "entry-bool-index": (
        lambda: pascal_lower(3).entry(True, True), ValueError, "i must be an integer, got True"
    ),
    "shifted_pascal_inverse-bool-order": (
        lambda: shifted_pascal_inverse(True), ValueError, "order must be an integer, got True"
    ),
    "arithmetic_function-bool-n": (
        lambda: make_seed("fib", 5)(True), ValueError, "n must be an integer, got True"
    ),
    "mat_pow-bool-power": (
        lambda: mat_pow(pascal_lower(3), True), ValueError, "power must be an integer, got True"
    ),
    "mat_pow-float-power": (
        lambda: mat_pow(pascal_lower(3), 2.0), ValueError, "power must be an integer, got 2.0"
    ),
    "check_output_size-float-n": (
        lambda: check_output_size(3.0, 1, 1), ValueError, "n must be an integer, got 3.0"
    ),
    "entry_bits-bool-m": (
        lambda: entry_bits(3, True, 1), ValueError, "m must be an integer, got True"
    ),
    "check_output_size-float-top": (
        lambda: check_output_size(3, 1, 1.5), ValueError, "top must be an integer, got 1.5"
    ),
    "binomial_inversion-bool-n": (
        lambda: check_binomial_inversion(True, 1), ValueError, "n must be an integer, got True"
    ),
    "power_expansion-bool-n": (
        lambda: check_power_expansion(2, True, 1), ValueError, "n must be an integer, got True"
    ),
    "power_expansion-float-m": (
        lambda: check_power_expansion(2.0, 2, 1), ValueError, "m must be an integer, got 2.0"
    ),
    "word_binomial-float-n": (
        lambda: check_word_binomial(2.0, 1, 1), ValueError, "n must be an integer, got 2.0"
    ),
    "word_binomial-bool-words": (
        lambda: check_word_binomial(2, 1, True), ValueError, "words must be an integer, got True"
    ),
    "chebyshev-bool-n": (
        lambda: check_chebyshev(True, 1, 1), ValueError, "n must be an integer, got True"
    ),
    "chebyshev_u-bool-degree": (
        lambda: chebyshev_u(True), ValueError, "degree must be an integer, got True"
    ),
    "check-unknown-restriction": (
        lambda: check((0, 1), "none"), ValueError, "unknown restriction 'none'"
    ),
    "mark_histogram-unknown-restriction": (
        lambda: mark_histogram(2, 3, "none", 1), ValueError, "unknown restriction 'none'"
    ),
    "ArithmeticFunction-not-a-sequence": (
        lambda: ArithmeticFunction(5), InvalidSeedError, "values must be a sequence of integers, got 5"
    ),
    "LowerTriangularMatrix-not-rows": (
        lambda: LowerTriangularMatrix(5), DimensionError, "rows must be a sequence of integer rows, got 5"
    ),
    "WordModel-fractional-length": (
        lambda: WordModel(3, 2.5), ValueError, "length must be an integer, got 2.5"
    ),
    "WordModel-string-alphabet": (
        lambda: WordModel("3", 2), ValueError, "alphabet size must be an integer, got '3'"
    ),
    "WordModel-bool-marked-letter": (
        lambda: WordModel(3, 2, R.NONE, True), ValueError, "marked letter must be an integer, got True"
    ),
    "WordModel-fractional-marked-count": (
        lambda: WordModel(3, 2, R.NONE, 1, 1.5), ValueError, "marked count must be an integer, got 1.5"
    ),
    "WordModel-bool-marked-count": (
        lambda: WordModel(3, 2, R.NONE, 1, True), ValueError, "marked count must be an integer, got True"
    ),
    "WordModel-unknown-restriction": (
        lambda: WordModel(3, 2, "none"), ValueError, "unknown restriction 'none'"
    ),
    # each floor is check_integer's least, with its text "<name> must be >= <least>"
    "triangle_recurrence-depth-zero": (
        lambda: triangle_recurrence(make_seed("ones", 3), 0, 3), ValueError, "depth m must be >= 1"
    ),
    "closed_form-depth-zero": (lambda: closed_form("ones", 0, 3, 1), ValueError, "depth m must be >= 1"),
    "oracle_model-depth-zero": (lambda: oracle_model("ones", 0, 3), ValueError, "depth m must be >= 1"),
    "WordModel-empty-alphabet": (lambda: WordModel(0, 2), ValueError, "alphabet size must be >= 1"),
    "WordModel-negative-length": (lambda: WordModel(3, -1), ValueError, "length must be >= 0"),
    "WordModel-negative-marked-count": (
        lambda: WordModel(3, 2, R.NONE, 1, -1), ValueError, "marked count must be >= 0"
    ),
    "chebyshev_u-negative-degree": (lambda: chebyshev_u(-1), ValueError, "degree must be >= 0"),
    "closed_form-k-above-n": (lambda: closed_form("ones", 1, 2, 3), ValueError, "need 1 <= k <= n"),
    "iterate_invert-negative-m": (
        lambda: iterate_invert(make_seed("fib", 3), -1), ValueError, "m must be >= 0"
    ),
    "mat_pow-negative-power": (lambda: mat_pow(pascal_lower(3), -1), ValueError, "power must be >= 0"),
    "power_expansion-m-one": (lambda: check_power_expansion(1, 2, 1), ValueError, "m must be >= 2"),
    # the depth is checked whole, floor included, before the order
    "triangle_recurrence-depth-zero-before-float-order": (
        lambda: triangle_recurrence(make_seed("ones", 3), 0, 1.5), ValueError, "depth m must be >= 1"
    ),
    "check_integer-bool-with-floor": (
        lambda: check_integer("m", True, 2), ValueError, "m must be an integer, got True"
    ),
    "check_integer-below-floor": (lambda: check_integer("m", 1, 2), ValueError, "m must be >= 2"),
    "entry_bits-negative-n": (lambda: entry_bits(-5, 1, 1), ValueError, "n must be >= 1"),
    "check_output_size-negative-m": (lambda: check_output_size(3, -1, 1), ValueError, "m must be >= 0"),
    "entry_bits-negative-top": (lambda: entry_bits(3, 1, -1), ValueError, "top must be >= 0"),
    # an entry scan names its first bad entry under its caller's text and type
    "composition_to_word-bool-part": (
        lambda: composition_to_word([True, 2]), ValueError, "parts must be positive integers, got True"
    ),
    "composition_to_word-float-part": (
        lambda: composition_to_word([1.5]), ValueError, "parts must be positive integers, got 1.5"
    ),
    "word_to_composition-bool-letter": (
        lambda: word_to_composition((True, False, 1.0)), ValueError, "letters must be integers, got True"
    ),
    # numpy integers are not ints, so they are refused as the seed's entries are
    "composition_to_word-numpy-part": (
        lambda: composition_to_word(np.array([2, 3], np.int64)),
        ValueError,
        f"parts must be positive integers, got {np.int64(2)!r}",
    ),
    "word_to_composition-numpy-letter": (
        lambda: word_to_composition(np.array([0, 1, 0, 0], np.int64)),
        ValueError,
        f"letters must be integers, got {np.int64(0)!r}",
    ),
    "ArithmeticFunction-list-label": (
        lambda: ArithmeticFunction((1, 2, 3), label=["x"]), InvalidSeedError, "label must be a string, got ['x']"
    ),
    # a one-letter space has one word but still length + 1 histogram entries
    "mark_histogram-one-letter-over-budget": (
        lambda: mark_histogram(1, 10, R.ISOLATED_ZEROS, 0, budget=10),
        EnumerationBudgetError,
        "a histogram of 11 entries exceeds the budget 10",
    ),
}


@pytest.mark.parametrize(("call", "error", "message"), GUARDS.values(), ids=GUARDS)
def test_argument_guard(call, error, message):
    with pytest.raises(Exception) as info:
        call()
    assert (info.type, str(info.value)) == (error, message)
