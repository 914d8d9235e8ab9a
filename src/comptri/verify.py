"""Identity sweeps, shared by ``comptri verify`` and the acceptance tests.

Each sweep compares two independent routes to the same numbers over a
range of inputs and returns a :class:`Sweep` record.  Every bound is a
plain argument, so the CLI and the acceptance criteria run the same code
at their own bounds.  :func:`suites` names the CLI's suites and their
default bounds.

Sweeps call the checkers and builders through this module's names, so a
tracer that replaces a module attribute sees every call made in its own
process.  ``comptri verify`` runs some suites in a forked child (see
:mod:`comptri.cli`), and such a tracer does not see the calls made there.
"""

from __future__ import annotations

import functools
from operator import mul
from time import perf_counter
from typing import Callable, Iterable, Iterator, Sequence

from .bell import bell_invert_identity_check
from .identities import (
    check_binomial_inversion,
    check_chebyshev,
    check_closed_forms,
    check_power_expansion,
    check_word_binomial,
)
from .pascal import mat_mul, mat_pow, pascal_lower, shifted_pascal_inverse
from .records import Record, set_field
from .sequences import ArithmeticFunction, Preset, iterate_invert, make_seed
from .triangle import triangle_recurrence
from .words import DEFAULT_BUDGET, oracle_rows

DEPTHS = range(1, 6)


class Sweep(Record):
    """What one sweep did: its name, comparison count, failures and run time.

    Instances are immutable and hashable.
    """

    __slots__ = ("name", "checks", "failures", "elapsed_s")

    def __init__(self, name: str, checks: int, failures: tuple[str, ...], elapsed_s: float) -> None:
        set_field(self, "name", name)
        set_field(self, "checks", checks)
        set_field(self, "failures", failures)
        set_field(self, "elapsed_s", elapsed_s)


def _sweep(comparisons: Callable[..., Iterator[bool | str]]) -> Callable[..., Sweep]:
    """Turn a generator of comparisons into a sweep that runs them all.

    Each comparison yields True when it holds and a description of the
    failure when it does not; ``ok or f"..."`` formats failures only.
    """

    @functools.wraps(comparisons)
    def run(*args, **kwargs) -> Sweep:
        start = perf_counter()
        checks = 0
        failures: list[str] = []
        for outcome in comparisons(*args, **kwargs):
            checks += 1
            if outcome is not True:
                failures.append(outcome)
        return Sweep(comparisons.__name__, checks, tuple(failures), perf_counter() - start)

    return run


def combine(*sweeps: Sweep) -> Sweep:
    """One record for sweeps run one after another."""
    return Sweep(
        "+".join(s.name for s in sweeps),
        sum(s.checks for s in sweeps),
        tuple(f for s in sweeps for f in s.failures),
        sum(s.elapsed_s for s in sweeps),
    )


@_sweep
def weighted_row_sums(seeds: Sequence[ArithmeticFunction], n_max: int, pairs: Sequence[tuple[int, int]]):
    """sum_k c_d(n, k) t^(k-1) = f_(d-1+t)(n) for each seed, each (d, t) in
    ``pairs`` and n <= n_max.

    The slice t = 1 is the row sums, and d = 1 the depth-one expansion
    f_t(n) = sum_i t^(i-1) c_1(n, i).  Per seed, each distinct depth's triangle
    and each distinct transform is computed once, and a pair listed twice is
    compared twice."""
    for seed in seeds:
        triangles = {d: triangle_recurrence(seed, d, n_max) for d in dict.fromkeys(d for d, _ in pairs)}
        transforms = {j: iterate_invert(seed, j) for j in dict.fromkeys(d - 1 + t for d, t in pairs)}
        for d, t in pairs:
            powers = [t**i for i in range(n_max)]
            for n, row in enumerate(triangles[d].rows, start=1):
                yield sum(map(mul, row, powers)) == transforms[d - 1 + t](n) or (
                    f"{seed.label or list(seed.values)} d={d} t={t} n={n}: weighted row sum != transform"
                )


@_sweep
def binomial_identities(n_max: int, expansion_n_max: int):
    """The inversion identity for k <= n <= n_max, then the power expansion
    for 2 <= m <= 5 and k <= n <= expansion_n_max."""
    for n in range(1, n_max + 1):
        for k in range(1, n + 1):
            yield check_binomial_inversion(n, k) or f"inversion identity fails at n={n} k={k}"
    for m in range(2, 6):
        for n in range(1, expansion_n_max + 1):
            for k in range(1, n + 1):
                yield check_power_expansion(m, n, k) or (
                    f"power expansion fails at m={m} n={n} k={k}"
                )


@_sweep
def bell_identity(seeds: Sequence[ArithmeticFunction], n_max: int):
    """The Bell argument-transform identity up to n_max, once per seed."""
    for seed in seeds:
        yield bell_invert_identity_check(seed.values, n_max) or (
            f"Bell identity fails for {seed.label or list(seed.values)}"
        )


@_sweep
def pascal_relations(order: int, inverse_max: int, power_orders: Iterable[int]):
    """c_m = c_(m-1) L = c_1 L^(m-1) at ``order`` for the presets and m <= 4; the
    shifted Pascal inverse pair at orders 1..inverse_max; and L^m against its
    closed form m^(i-j) C(i-1, j-1) for m <= 6 at each of ``power_orders``."""
    ell = pascal_lower(order)
    # L^(m-1) for m = 2..4, the same for every preset
    powers = {m: mat_pow(ell, m - 1) for m in range(2, 5)}
    for preset in Preset:
        f0 = make_seed(preset, order)
        mats = [triangle_recurrence(f0, m, order) for m in range(1, 5)]
        for m in range(2, 5):
            yield mat_mul(mats[m - 2], ell).rows == mats[m - 1].rows or (
                f"{preset.value}: step relation fails at m={m}"
            )
            yield mat_mul(mats[0], powers[m]).rows == mats[m - 1].rows or (
                f"{preset.value}: power relation fails at m={m}"
            )
    for n in range(1, inverse_max + 1):
        q, qinv = shifted_pascal_inverse(n)
        yield mat_mul(q, qinv).rows == pascal_lower(n, 0).rows or (
            f"shifted Pascal inverse fails on the right at order {n}"
        )
        yield mat_mul(qinv, q).rows == pascal_lower(n, 0).rows or (
            f"shifted Pascal inverse fails on the left at order {n}"
        )
    for n in power_orders:
        ell_n = pascal_lower(n)
        for m in range(1, 7):
            yield mat_pow(ell_n, m).rows == pascal_lower(n, m).rows or (
                f"Pascal power m={m} at order {n} differs from the closed form"
            )


@_sweep
def closed_forms(order: int):
    """Recurrence triangles against the closed binomial forms, presets, m <= 3 (ODD m = 1), n <= order."""
    for preset in Preset:
        yield from check_closed_forms(preset, order)


@_sweep
def chebyshev(total: int, budget: int):
    """Chebyshev coefficients, closed form and word count agree for n + k <= total.

    One enumeration of the ternary words of length n-1, counted by twos,
    serves every k, and one growth of the word space serves every n."""
    for n, by_twos in enumerate(oracle_rows(Preset.ONES, 2, range(1, total), budget), start=1):
        for k in range(1, min(n, total - n) + 1):
            yield check_chebyshev(n, k, by_twos[k - 1]) or (
                f"Chebyshev coefficient check fails at n={n} k={k}"
            )


@_sweep
def word_binomial(total: int, budget: int):
    """C(n+k-1, 2k-1) equals the 01-avoiding ternary word count for n + k <= total.

    One enumeration per n serves every k, and one growth of the word space
    serves every n; no word of length n-1 has k-1 > n-1 twos."""
    for n, by_twos in enumerate(oracle_rows(Preset.NATURAL, 1, range(1, total), budget), start=1):
        for k in range(1, total - n + 1):
            words = by_twos[k - 1] if k <= n else 0
            yield check_word_binomial(n, k, words) or f"word-count identity fails at n={n} k={k}"


# the least cap at which a suite makes a comparison, where that is above 1:
# chebyshev and word-binomial sweep n + k <= total with n, k >= 1
LEAST_CAP = {"chebyshev": 2, "word-binomial": 2}


def suites(cap: int | None = None, budget: int = DEFAULT_BUDGET) -> dict[str, Callable[[], Sweep]]:
    """The ``comptri verify`` suites in report order, each ready to run.

    ``cap`` replaces every suite's main sweep bound, which is the suite's
    default when None; ``budget`` bounds each word space the word-counting
    suites enumerate.
    """

    def bound(default: int) -> int:
        return default if cap is None else cap

    return {
        # the row sums at m <= 5 and the depth-one expansion at t <= 5, each with (1, 1)
        "row-sums": lambda: weighted_row_sums(
            [make_seed(p, bound(30)) for p in Preset],
            bound(30),
            [(m, 1) for m in DEPTHS] + [(1, t) for t in DEPTHS],
        ),
        "binomial": lambda: binomial_identities(bound(20), min(bound(20), 18)),
        "bell": lambda: bell_identity([make_seed(p, bound(10)) for p in Preset], bound(10)),
        "pascal": lambda: pascal_relations(bound(16), min(bound(16), 12), [min(bound(20), 20)]),
        "closed-forms": lambda: closed_forms(bound(20)),
        "chebyshev": lambda: chebyshev(bound(16), budget),
        "word-binomial": lambda: word_binomial(bound(14), budget),
    }
