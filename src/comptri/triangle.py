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
  * triangle_convolution: column k is C_k = W^k for W = sum_i w(i) x^i,
    read from f_0 alone: W = F_0 / (1 - (m-1) F_0) gives
    C_k = F_0 (C_{k-1} + (m-1) C_k), that is
        c(n, k) = sum_i f_0(i) (c(n-i, k-1) + (m-1) c(n-i, k));
  * triangle_bell: partial Bell polynomials at factorial-scaled arguments,
        c(n, k) = (k! / n!) B_{n,k}(1! w(1), 2! w(2), ...),
    which is bell.bell_triangle at w = f_(m-1).  It evaluates Comtet's
    recurrence for that table in triangle terms,
        n c(n, k) = k sum_j j w(j) c(n-j, k-1),
    dividing each entry by n, exactly; its terms carry a weight j that the
    first-part recurrence's lack;
  * triangle_pascal: the depth-1 triangle times a Pascal-matrix power,
    c_m = c_1 L^(m-1), that is
        c(n, k) = sum_{i=k}^{n} (m-1)^(i-k) C(i-1, k-1) c_1(n, i),
    with L^(m-1) from pascal.pascal_lower and the product from
    pascal.mat_mul, which no other route calls.

All four read the same seed.  The recurrence and Bell routes compute w
with iterate_invert.  The convolution route never computes w and uses only
the transform's closed form above, so at m >= 2 its sums differ from the
recurrence's; at m = 1 the (m-1) term drops out and it is the recurrence's
sum in another loop order.  triangle_pascal never applies the transform: its
depth-1 base c_1 is the recurrence's first-part sums over f_0, and at m = 1
it returns that base, so there only three routes are independent.
Agreement across the routes is still a strong consistency check.  The
recurrence and the convolution both need c(0, 0) = 1 and c(n, 0) = 0 for
n >= 1; each keeps its own column 0 while it fills the rows, so that
neither route's conventions can mask a bug in the other's.

ROUTES is the one table of the routes, by `comptri triangle --algo` name,
and disagreements the one comparison of their triangles.  `comptri triangle
--algo all` may build some routes in a forked child; see comptri.cli.
"""

from __future__ import annotations

from operator import mul

from .bell import bell_triangle
from .errors import InsufficientSeedError, check_integer
from .pascal import LowerTriangularMatrix, mat_mul, pascal_lower
from .sequences import ArithmeticFunction, check_output_size, iterate_invert

ORDER_CAP = 64


def _prefix(f0: ArithmeticFunction, m: int, order: int) -> ArithmeticFunction:
    """f0(1..order), once m and the order are integers >= 1 (errors.check_integer)
    and the order and the size of the depth-m triangle pass."""
    check_integer("depth m", m, 1)
    check_integer("order", order, 1)
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
    # once row n - 1 is built, columns[k] lists c(j, k) for j from k up to
    # n - 1, column 0 being [1, 0, 0, ...] so the recurrence can touch
    # c(*, 0); read backwards, column k - 1 pairs c(n - i, k - 1) with w(i)
    # for i = 1..n-k+1, so each entry is one dot product and no slice is copied
    columns: list[list[int]] = [[1]]
    rows = []
    for _ in range(order):
        row = tuple([sum(map(mul, w, reversed(column))) for column in columns])
        # c(n, 0) = 0 goes to column 0; the new column n starts at c(n, n)
        for column, c in zip(columns, (0, *row)):
            column.append(c)
        columns.append([row[-1]])
        rows.append(row)
    return tuple(rows)


def triangle_recurrence(f0: ArithmeticFunction, m: int, order: int) -> LowerTriangularMatrix:
    """Build the triangle by the first-part recurrence."""
    w = _weights(f0, m, order)
    return LowerTriangularMatrix(_rows_from_weights(w, order))


def triangle_convolution(f0: ArithmeticFunction, m: int, order: int) -> LowerTriangularMatrix:
    """Build the triangle column by column from f_0 alone, never from w.

    With F_0(x) = sum_i f_0(i) x^i, the weights' series is
    W = F_0 / (1 - (m-1) F_0), so W = F_0 (1 + (m-1) W) and column k,
    C_k = W^k, satisfies C_k = F_0 (C_{k-1} + (m-1) C_k).  Each entry is then
    one sum over the nonzero terms of the seed,

        c(n, k) = sum_i f_0(i) h(n - i),   h(j) = c(j, k-1) + (m-1) c(j, k),

    and h(n) takes its second term as soon as c(n, k) is known.  Every product
    is a seed value times an entry.  With s the least i where f_0(i) != 0,
    rows n < s k of column k are zero and are skipped; a seed with no nonzero
    term takes s = order + 1, so that no column is filled.
    """
    nonzero = [(i, v) for i, v in enumerate(_prefix(f0, m, order).values, start=1) if v]
    rows = [[0] * n for n in range(1, order + 1)]
    s = nonzero[0][0] if nonzero else order + 1
    # column[j] = c(j, 0): 1 at j = 0, else 0
    column = [1] + [0] * order
    for k in range(1, order // s + 1):
        # h starts as column k-1, which no later column reads
        h, column = column, [0] * (order + 1)
        low = s * (k - 1)  # h(j) = 0 for j < low
        for n in range(s * k, order + 1):
            acc = 0
            for i, v in nonzero:
                if n - i < low:
                    break
                acc += v * h[n - i]
            column[n] = acc
            rows[n - 1][k - 1] = acc
            h[n] += (m - 1) * acc
    return LowerTriangularMatrix(rows)


def triangle_bell(f0: ArithmeticFunction, m: int, order: int) -> LowerTriangularMatrix:
    """Build the triangle from partial Bell polynomials: bell.bell_triangle at w,
    Comtet's recurrence in triangle terms."""
    return bell_triangle(_weights(f0, m, order), order)


def triangle_pascal(f0: ArithmeticFunction, m: int, order: int) -> LowerTriangularMatrix:
    """Build the depth-m triangle as c_1 L^(m-1), c_1 being the first-part sums
    at w = f_0, the recurrence's own triangle at m = 1."""
    base = LowerTriangularMatrix(_rows_from_weights(_prefix(f0, m, order).values, order))
    return base if m == 1 else mat_mul(base, pascal_lower(order, m - 1))


# a module-level plain dict, whose values a tracer that wraps module
# attributes can wrap as well, so calls made through it stay visible
ROUTES = {
    "recurrence": triangle_recurrence,
    "conv": triangle_convolution,
    "bell": triangle_bell,
    "pascal": triangle_pascal,
}


def disagreements(triangles: dict[str, tuple]) -> list[tuple[int, int, dict[str, int]]]:
    """(n, k, {name: c(n, k)}) of each entry where the named triangles differ,
    in row-major order, or [] when they all agree.

    ``triangles`` maps names to the rows of lower-triangular matrices, row n
    holding n entries.  Whole triangles compare first, and entries are scanned
    only when one differs, up to the largest order; a triangle of smaller
    order reads None past its last row, so triangles that differ in order
    disagree there.
    """
    first, *others = triangles.values()
    if all(rows == first for rows in others):
        return []
    found = []
    for n in range(1, max(map(len, triangles.values())) + 1):
        for k in range(1, n + 1):
            values = {
                name: rows[n - 1][k - 1] if n <= len(rows) else None
                for name, rows in triangles.items()
            }
            if len(set(values.values())) > 1:
                found.append((n, k, values))
    return found
