"""Exact partial Bell polynomials at integer arguments.

B(n, k) here is the partial (incomplete) exponential Bell polynomial
B_{n,k}(x_1, ..., x_{n-k+1}) evaluated at integer arguments.  The table is
filled by Comtet's recurrence (L. Comtet, Advanced Combinatorics, 1974,
ch. III), which splits off the block that holds the element n,

    B(n, k) = sum_{i=0}^{n-k} C(n-1, i) * x_{i+1} * B(n-1-i, k-1),

with B(0, 0) = 1 and B(n, 0) = 0 for n >= 1.  It only adds and multiplies,
so integer arguments give exact integers and the table divides nowhere.

bell_triangle is the Bell route of the triangle module at w = f_(m-1),
c(n, k) = (k!/n!) B(n, k) at x_i = i! w_i.  It runs the same recurrence on
c itself, so its entries never carry the factorials that B(n, k) does.
bell_invert_identity_check compares bell_triangle(x) L, for the Pascal
matrix L, with bell_triangle(y), for y the invert transform of x.
"""

from __future__ import annotations

from math import comb
from operator import mul
from typing import Sequence

from .errors import InternalConsistencyError, check_integer, check_integers
from .pascal import LowerTriangularMatrix, mat_mul, pascal_lower
from .sequences import ArithmeticFunction, invert_transform


def _check_prefix(x: Sequence, n_max: int) -> None:
    """Refuse an n_max that is not an int >= 0, or fewer than n_max arguments."""
    check_integer("n_max", n_max, 0)
    if len(x) < n_max:
        raise ValueError(f"need x_1..x_{n_max}, got {len(x)} arguments")


def _check_arguments(x: Sequence, n_max: int) -> None:
    """_check_prefix, then refuse an argument x_1..x_{n_max} that is not an int, or is a bool."""
    _check_prefix(x, n_max)
    check_integers(x[:n_max], ValueError, "arguments must be integers")


def bell_table(x: Sequence[int], n_max: int) -> list[list[int]]:
    """Table of B(n, k) for 0 <= k <= n <= n_max, as ragged rows.

    ``x`` is 1-based: ``x[i - 1]`` plays the role of x_i.  Entries may be
    negative; they must be integers, and never ``bool``; so must ``n_max``.
    """
    _check_arguments(x, n_max)
    table: list[list[int]] = [[1]]
    for n in range(1, n_max + 1):
        # weights[i] = C(n-1, i) x_{i+1}, shared by every k of the row
        weights = [comb(n - 1, i) * x[i] for i in range(n)]
        row = [0]
        for k in range(1, n + 1):
            acc = 0
            for i in range(n - k + 1):
                acc += weights[i] * table[n - 1 - i][k - 1]
            row.append(acc)
        table.append(row)
    return table


def bell_triangle(w: Sequence[int], order: int) -> LowerTriangularMatrix:
    """c(n, k) = (k! / n!) B_{n,k}(1! w_1, 2! w_2, ...) for 1 <= k <= n <= order.

    That is the total w-weight of the compositions of n into k parts.  Each
    term of Comtet's recurrence at x_i = i! w_i is (n-1)!/(k-1)! times
    j w_j c(n-j, k-1), for j = i + 1, so with that factor divided out

        n c(n, k) = k sum_{j=1}^{n-k+1} j w_j c(n-j, k-1),

    and every division by n is exact; a remainder raises
    InternalConsistencyError.  ``w`` and ``order`` are checked as bell_table
    checks x and n_max.
    """
    _check_arguments(w, order)
    jw = [j * v for j, v in enumerate(w[:order], start=1)]
    # once row n - 1 is built, columns[k] lists c(i, k) for i from k up to
    # n - 1, column 0 being [1, 0, 0, ...]; read backwards, column k - 1 pairs
    # c(n - j, k - 1) with j w_j for j = 1..n-k+1
    columns: list[list[int]] = [[1]]
    rows = []
    for n in range(1, order + 1):
        row = []
        for k, column in enumerate(columns, start=1):
            q, r = divmod(k * sum(map(mul, jw, reversed(column))), n)
            if r:
                raise InternalConsistencyError(
                    f"Comtet's sum for c({n},{k}) is not divisible by {n}"
                )
            row.append(q)
        for column, c in zip(columns, (0, *row)):
            column.append(c)
        columns.append([row[-1]])
        rows.append(tuple(row))
    return LowerTriangularMatrix(rows)


def bell_invert_identity_check(x: Sequence[int], n_max: int) -> bool:
    """Check the argument-transform identity for all 1 <= k <= n <= n_max.

    With y the invert transform of x, the claim is

        k! B_{n,k}(1! y_1, 2! y_2, ...)
            = sum_{i=k}^{n} C(i-1, k-1) i! B_{n,i}(1! x_1, 2! x_2, ...).

    or Y = X L for the Pascal matrix L, with X(n, i) = i! B_{n,i}(1! x_1, ...)
    and Y(n, k) = k! B_{n,k}(1! y_1, ...).  Row n divided by n!, exactly, is
    bell_triangle(x) L = bell_triangle(y), which is compared.  Returns True
    iff every pair (n, k) in range satisfies it; at n_max = 0 there is none.

    Unlike bell_table, this needs x_1..x_{n_max} to be nonnegative integers:
    y comes from invert_transform, whose argument is an ArithmeticFunction,
    so a negative or non-integer argument raises InvalidSeedError.
    """
    _check_prefix(x, n_max)
    if n_max == 0:
        return True
    y = invert_transform(ArithmeticFunction(tuple(x[:n_max]))).values
    return mat_mul(bell_triangle(x, n_max), pascal_lower(n_max)).rows == bell_triangle(y, n_max).rows
