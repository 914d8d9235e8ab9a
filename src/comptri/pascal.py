"""Exact lower-triangular integer matrices and Pascal-matrix helpers."""

from __future__ import annotations

from itertools import chain
from math import comb
from operator import mul

from .errors import DimensionError, check_integer
from .records import Record, set_field


class LowerTriangularMatrix(Record):
    """A square lower-triangular integer matrix stored as ragged rows.

    ``rows[i - 1][j - 1]`` holds entry (i, j) for 1 <= j <= i; entries above
    the diagonal are zero by construction and never stored.  Entries are
    ``int`` and never ``bool``.  The triangle builders return this type, with
    entry (n, k) equal to c(n, k).  Instances are immutable and hashable.
    """

    __slots__ = ("rows",)

    def __init__(self, rows: tuple[tuple[int, ...], ...]) -> None:
        try:
            rows = tuple(tuple(r) for r in rows)
        except TypeError:
            raise DimensionError(f"rows must be a sequence of integer rows, got {rows!r}") from None
        if not rows:
            raise DimensionError("a matrix needs at least order 1")
        # plain int entries pass on the set of their types, built in C; any
        # others are scanned entry by entry, which names the first bad one
        plain = set(map(type, chain.from_iterable(rows))) == {int}
        for i, row in enumerate(rows, start=1):
            if len(row) != i:
                raise DimensionError(f"row {i} must have {i} entries, got {len(row)}")
            if not plain:
                for v in row:
                    if isinstance(v, bool) or not isinstance(v, int):
                        raise DimensionError(f"entries must be integers, got {v!r}")
        set_field(self, "rows", rows)

    @property
    def order(self) -> int:
        return len(self.rows)

    def entry(self, i: int, j: int) -> int:
        """1-based entry (i, j); zero above the diagonal."""
        check_integer("i", i)
        check_integer("j", j)
        if not (1 <= i <= self.order and 1 <= j <= self.order):
            raise IndexError(f"({i}, {j}) is outside order {self.order}")
        return self.rows[i - 1][j - 1] if j <= i else 0


def pascal_lower(order: int, power: int = 1) -> LowerTriangularMatrix:
    """L**power for the Pascal matrix L, from its closed form: entry (i, j) is
    power^(i-j) C(i-1, j-1).  The default gives L itself, C(i-1, j-1), and
    power 0 the identity."""
    check_integer("order", order)
    check_integer("power", power)
    return LowerTriangularMatrix(
        tuple(
            tuple(power ** (i - j) * comb(i - 1, j - 1) for j in range(1, i + 1))
            for i in range(1, order + 1)
        )
    )


def mat_mul(a: LowerTriangularMatrix, b: LowerTriangularMatrix) -> LowerTriangularMatrix:
    if a.order != b.order:
        raise DimensionError(f"orders differ: {a.order} vs {b.order}")
    # cols[j] holds column j of b from its diagonal down, so entry (i, j) of
    # the product is one dot product of a's row i from column j on with it
    cols = [[row[j] for row in b.rows[j:]] for j in range(b.order)]
    return LowerTriangularMatrix(
        tuple(
            tuple(sum(map(mul, row[j:], cols[j])) for j in range(len(row)))
            for row in a.rows
        )
    )


def mat_pow(a: LowerTriangularMatrix, e: int) -> LowerTriangularMatrix:
    """a**e by repeated squaring; e = 0 gives the identity."""
    check_integer("power", e, 0)
    result = pascal_lower(a.order, 0)
    base = a
    while e:
        if e & 1:
            result = mat_mul(result, base)
        e >>= 1
        if e:
            base = mat_mul(base, base)
    return result


def shifted_pascal_inverse(order: int) -> tuple[LowerTriangularMatrix, LowerTriangularMatrix]:
    """The shifted Pascal matrix Q with entry (i, j) = C(i, j) and its inverse.

    The inverse has entries (-1)^(i+j) C(i, j); the pair multiplies to the
    identity in both orders.
    """
    check_integer("order", order)
    q = LowerTriangularMatrix(
        tuple(tuple(comb(i, j) for j in range(1, i + 1)) for i in range(1, order + 1))
    )
    qinv = LowerTriangularMatrix(
        tuple(
            tuple((-1) ** (i + j) * comb(i, j) for j in range(1, i + 1))
            for i in range(1, order + 1)
        )
    )
    return q, qinv
