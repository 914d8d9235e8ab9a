"""Weighted composition triangles, built by four independent routes.

Fix a seed f_0 and a depth m >= 1, and let w = f_{m-1} be the (m-1)-st
invert transform of the seed.  The triangle entry c(n, k) is the total
weight of compositions of n into k ordered parts, each part i weighted by
w(i):

    c(n, k) = sum over (i_1, ..., i_k), i_t >= 1, i_1 + ... + i_k = n
              of w(i_1) * ... * w(i_k),

for 1 <= k <= n.  Every builder returns the triangle up to a given order
as a :class:`~comptri.pascal.LowerTriangularMatrix` with entry (n, k) equal
to c(n, k); the order is capped at ORDER_CAP, and a triangle whose
entries could outgrow sequences.check_output_size is refused before any
work.  Four algorithms compute the same triangle:

  * triangle_recurrence: peel off the first part,
        c(n, k) = sum_{i=1}^{n-k+1} w(i) c(n-i, k-1);
  * triangle_convolution: column k is the k-fold self-convolution of w,
        c(n, k) = [x^n] (sum_i w(i) x^i)^k;
  * triangle_bell: partial Bell polynomials at factorial-scaled arguments,
        c(n, k) = (k! / n!) B_{n,k}(1! w(1), 2! w(2), ...);
  * triangle_pascal: the depth-1 triangle times a Pascal-matrix power,
    c_m = c_1 L^(m-1), that is
        c(n, k) = sum_{i=k}^{n} (m-1)^(i-k) C(i-1, k-1) c_1(n, i),
    with L^(m-1) from pascal.pascal_lower and the product from
    pascal.mat_mul, which no other route calls.

All four read the same seed.  The recurrence, convolution and Bell routes
each apply the invert transform; triangle_pascal never does, but takes its
depth-1 base c_1 from triangle_recurrence at every m, and at m = 1 returns
that base, so there only three routes are independent.  Agreement across
the routes is still a strong consistency check.  The recurrence also
needs c(0, 0) = 1 and c(n, 0) = 0 for n >= 1; those conventions live only
in _rows_from_weights, which keeps column 0 while it fills the rows.
"""

from __future__ import annotations

from .bell import bell_table
from .errors import InsufficientSeedError, InternalConsistencyError
from .pascal import LowerTriangularMatrix, mat_mul, pascal_lower
from .sequences import ArithmeticFunction, check_output_size, iterate_invert

ORDER_CAP = 64


def _prefix(f0: ArithmeticFunction, m: int, order: int) -> ArithmeticFunction:
    """f0(1..order), once the order and the size of the depth-m triangle pass."""
    if m < 1:
        raise ValueError("depth m must be >= 1")
    if order < 1:
        raise ValueError("order must be >= 1")
    if order > ORDER_CAP:
        raise ValueError(f"order {order} exceeds the cap {ORDER_CAP}")
    if order > len(f0):
        raise InsufficientSeedError(
            f"order {order} needs f_0(1..{order}), seed stores {len(f0)} terms"
        )
    if order < len(f0):
        f0 = ArithmeticFunction(f0.values[:order], label=f0.label)
    check_output_size(order, m, max(f0.values))
    return f0


def _weights(f0: ArithmeticFunction, m: int, order: int) -> tuple[int, ...]:
    return iterate_invert(_prefix(f0, m, order), m - 1).values


def _rows_from_weights(w: tuple[int, ...], order: int) -> tuple[tuple[int, ...], ...]:
    # padded[n][k] = c(n, k) for 0 <= k <= n, so the recurrence can touch c(*, 0)
    padded: list[list[int]] = [[1]]
    for n in range(1, order + 1):
        row = [0]
        for k in range(1, n + 1):
            acc = 0
            for i in range(1, n - k + 2):
                acc += w[i - 1] * padded[n - i][k - 1]
            row.append(acc)
        padded.append(row)
    return tuple(tuple(row[1:]) for row in padded[1:])


def triangle_recurrence(f0: ArithmeticFunction, m: int, order: int) -> LowerTriangularMatrix:
    """Build the triangle by the first-part recurrence."""
    w = _weights(f0, m, order)
    return LowerTriangularMatrix(_rows_from_weights(w, order))


def _poly_mul_trunc(a: list[int], b: list[int], deg: int) -> list[int]:
    out = [0] * (deg + 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        top = min(len(b) - 1, deg - i)
        for j in range(top + 1):
            out[i + j] += ai * b[j]
    return out


def triangle_convolution(f0: ArithmeticFunction, m: int, order: int) -> LowerTriangularMatrix:
    """Build the triangle by truncated polynomial self-convolution."""
    w = _weights(f0, m, order)
    poly = [0] + list(w)
    power = [1] + [0] * order
    rows = [[0] * n for n in range(1, order + 1)]
    for k in range(1, order + 1):
        power = _poly_mul_trunc(power, poly, order)
        for n in range(k, order + 1):
            rows[n - 1][k - 1] = power[n]
    return LowerTriangularMatrix(rows)


def triangle_bell(f0: ArithmeticFunction, m: int, order: int) -> LowerTriangularMatrix:
    """Build the triangle from partial Bell polynomials.

    Every (k! / n!) scaling must divide exactly; a remainder raises
    InternalConsistencyError.
    """
    w = _weights(f0, m, order)
    fact = [1]
    for i in range(1, order + 1):
        fact.append(fact[-1] * i)
    table = bell_table([fact[i] * w[i - 1] for i in range(1, order + 1)], order)
    rows = []
    for n in range(1, order + 1):
        row = []
        for k in range(1, n + 1):
            q, r = divmod(table[n][k] * fact[k], fact[n])
            if r:
                raise InternalConsistencyError(
                    f"k!/n! scaling of B({n},{k}) is not exact"
                )
            row.append(q)
        rows.append(tuple(row))
    return LowerTriangularMatrix(rows)


def triangle_pascal(f0: ArithmeticFunction, m: int, order: int) -> LowerTriangularMatrix:
    """Build the depth-m triangle as c_1 L^(m-1), from the depth-1 triangle.

    At m = 1 the Pascal power is the identity, so it returns triangle_recurrence's
    triangle at half the cost; it is not an independent route there."""
    if m == 1:
        return triangle_recurrence(f0, 1, order)
    base = triangle_recurrence(_prefix(f0, m, order), 1, order)
    return mat_mul(base, pascal_lower(order, m - 1))


def row_sum(tri: LowerTriangularMatrix, n: int) -> int:
    """sum_k c(n, k), which equals f_m(n) for the triangle's seed and depth."""
    if not 1 <= n <= tri.order:
        raise IndexError(f"n must lie in 1..{tri.order}")
    return sum(tri.rows[n - 1])


def transform_via_triangle(f0: ArithmeticFunction, m: int, n: int) -> int:
    """f_m(n) recovered from the depth-1 triangle: sum_i m^(i-1) c_1(n, i).

    Independent of iterate_invert except for the shared seed; useful as a
    cross-check of both routes.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if not 1 <= n <= len(f0):
        raise IndexError(f"n must lie in 1..{len(f0)}")
    tri = triangle_recurrence(f0, 1, n)
    return sum(m ** (i - 1) * tri.entry(n, i) for i in range(1, n + 1))


def extended_binomial(f: ArithmeticFunction, k: int, n: int) -> int:
    """The f-weighted analogue of C(n+k-1, k-1): the entry c(n+k, k) with weights f.

    For f identically 1 this is the number of compositions of n+k into k
    parts, C(n+k-1, k-1).  Like the builders, n + k is capped at ORDER_CAP.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if n < 0:
        raise ValueError("n must be >= 0")
    return triangle_recurrence(f, 1, n + k).entry(n + k, k)
