"""Exact integer toolkit for weighted composition triangles.

The package computes triangles c(n, k) of composition counts weighted by
iterated invert transforms of a seed sequence, by four independent
algorithms, and verifies them against closed binomial forms, partial Bell
polynomials, Pascal-matrix algebra, and brute-force restricted-word
enumeration.
"""

from .bell import bell_invert_identity_check, bell_table
from .errors import (
    ComptriError,
    DimensionError,
    EnumerationBudgetError,
    InsufficientSeedError,
    InternalConsistencyError,
    InvalidSeedError,
    OutputSizeError,
)
from .identities import (
    binom,
    chebyshev_u,
    check_binomial_inversion,
    check_chebyshev,
    check_closed_forms,
    check_power_expansion,
    check_word_binomial,
    closed_form,
)
from .pascal import (
    LowerTriangularMatrix,
    mat_mul,
    mat_pow,
    pascal_lower,
    shifted_pascal_inverse,
)
from .sequences import (
    ArithmeticFunction,
    Preset,
    check_output_size,
    invert_transform,
    iterate_invert,
    make_seed,
)
from .triangle import (
    row_sum,
    transform_via_triangle,
    triangle_bell,
    triangle_convolution,
    triangle_pascal,
    triangle_recurrence,
)
from .words import (
    DEFAULT_BUDGET,
    Restriction,
    WordModel,
    check,
    composition_to_word,
    count_words,
    mark_histogram,
    mark_histograms,
    oracle_model,
    oracle_row,
    oracle_rows,
    word_to_composition,
)

__version__ = "0.1.0"

__all__ = [
    "ArithmeticFunction",
    "ComptriError",
    "DimensionError",
    "EnumerationBudgetError",
    "InsufficientSeedError",
    "InternalConsistencyError",
    "InvalidSeedError",
    "OutputSizeError",
    "LowerTriangularMatrix",
    "Preset",
    "Restriction",
    "WordModel",
    "DEFAULT_BUDGET",
    "bell_invert_identity_check",
    "bell_table",
    "binom",
    "chebyshev_u",
    "check",
    "check_binomial_inversion",
    "check_chebyshev",
    "check_closed_forms",
    "check_output_size",
    "check_power_expansion",
    "check_word_binomial",
    "closed_form",
    "composition_to_word",
    "count_words",
    "invert_transform",
    "iterate_invert",
    "make_seed",
    "mark_histogram",
    "mark_histograms",
    "mat_mul",
    "mat_pow",
    "oracle_model",
    "oracle_row",
    "oracle_rows",
    "pascal_lower",
    "row_sum",
    "shifted_pascal_inverse",
    "transform_via_triangle",
    "triangle_bell",
    "triangle_convolution",
    "triangle_pascal",
    "triangle_recurrence",
    "word_to_composition",
]
