"""Acceptance sweep: one test and one printed verdict line per criterion.

Every comparison is exact integer equality.  Verdict lines bypass pytest's
output capture so they are always visible; each line reports the criterion
number, PASS or FAIL, the sweep, the number of comparisons, and the elapsed
time.  The last test plants one fault per criterion and checks that the
verdict fails and names the first failure.
"""

import contextlib
import itertools
import math
import random
import time

import pytest

from comptri import (
    ArithmeticFunction,
    LowerTriangularMatrix,
    Restriction,
    bell,
    check,
    composition_to_word,
    identities,
    make_seed,
    oracle_model,
    oracle_rows,
    triangle_recurrence,
    verify,
    word_to_composition,
)
from comptri.triangle import ROUTES, disagreements
from seeds import PRESETS

BUDGET = 1 << 26
# each criterion's comparison count, so that no criterion loses comparisons
CHECKS = {1: 24, 2: 900, 3: 1350, 4: 1682, 5: 3360, 6: 894, 7: 26, 8: 180, 9: 155, 10: 4131}


def _verdict(capsys, num, label, failures, checks, t0):
    status = "PASS" if not failures else "FAIL"
    line = f"criterion {num:2d} [{status}] {label}: {checks} comparisons, {time.perf_counter() - t0:.1f}s"
    if failures:
        line += f"; first failure: {failures[0]}"
    with capsys.disabled():
        print(line, flush=True)
    assert not failures, line
    assert checks == CHECKS[num], f"{line}; expected {CHECKS[num]} comparisons"


def test_criterion_01_four_way_agreement(capsys):
    t0 = time.perf_counter()
    failures, checks = [], 0
    for preset in PRESETS:
        f0 = make_seed(preset, 24)
        for m in (1, 2, 3, 4):
            found = disagreements({name: build(f0, m, 24).rows for name, build in ROUTES.items()})
            checks += 1
            if found:
                failures.append(f"{preset} m={m}, first (n, k, values) {found[0]}")
    _verdict(capsys, 1, "four triangle routes agree (presets, m<=4, N=24)", failures, checks, t0)


def test_criterion_02_row_sums(capsys):
    t0 = time.perf_counter()
    seeds = [make_seed(p, 30) for p in PRESETS]
    result = verify.weighted_row_sums(seeds, 30, [(m, 1) for m in verify.DEPTHS])
    _verdict(capsys, 2, "row sums equal the transform (presets, m<=5, n<=30)", result.failures, result.checks, t0)


def test_criterion_03_depth_one_expansion(capsys):
    t0 = time.perf_counter()
    seeds = [make_seed(p, 45) for p in PRESETS]
    result = verify.weighted_row_sums(seeds, 45, [(1, t) for t in verify.DEPTHS])
    _verdict(capsys, 3, "f_m(n) = sum_i m^(i-1) c_1(n,i) (presets, m<=5, n<=45)", result.failures, result.checks, t0)


def test_criterion_04_word_oracle(capsys):
    t0 = time.perf_counter()
    failures, checks = [], 0
    for preset in PRESETS:
        for m in (1, 2, 3):
            lo, hi = (5, 15) if preset == "ge2" else (1, 13)
            tri = triangle_recurrence(make_seed(preset, hi), m, hi)
            models = [oracle_model(preset, m, n) for n in range(lo, hi + 1)]
            ns = [n for n, model in enumerate(models, lo) if model.alphabet**model.length <= BUDGET]
            for n, counts in zip(ns, oracle_rows(preset, m, ns, BUDGET)):
                for k in range(1, n + 1):
                    checks += 1
                    if tri.entry(n, k) != counts[k - 1]:
                        failures.append(f"{preset} m={m} n={n} k={k}")
    _verdict(capsys, 4, "entries equal brute-force word counts (m<=3, length<=12)", failures, checks, t0)


def test_criterion_05_closed_forms(capsys):
    t0 = time.perf_counter()
    result = verify.closed_forms(20)
    _verdict(capsys, 5, "closed binomial forms match the engine (n<=20)", result.failures, result.checks, t0)


def test_criterion_06_binomial_identities(capsys):
    t0 = time.perf_counter()
    result = verify.binomial_identities(20, 18)
    _verdict(capsys, 6, "binomial identities (inversion n<=20; expansion m<=5, n<=18)", result.failures, result.checks, t0)


def test_criterion_07_bell_identity(capsys):
    t0 = time.perf_counter()
    rng = random.Random(90125)
    seeds = [make_seed(p, 10) for p in PRESETS] + [
        ArithmeticFunction(tuple(rng.randrange(4) for _ in range(10)), f"random seed {trial}")
        for trial in range(20)
    ]
    result = verify.bell_identity(seeds, 10)
    _verdict(capsys, 7, "Bell argument-transform identity (presets + 20 random seeds, n<=10)", result.failures, result.checks, t0)


def test_criterion_08_pascal_relations(capsys):
    t0 = time.perf_counter()
    result = verify.pascal_relations(16, 12, range(1, 21))
    _verdict(capsys, 8, "Pascal matrix relations (N=16 m<=4; inverse n<=12; powers m<=6, n<=20)", result.failures, result.checks, t0)


def test_criterion_09_chebyshev_and_word_identity(capsys):
    t0 = time.perf_counter()
    result = verify.combine(verify.chebyshev(16, BUDGET), verify.word_binomial(14, BUDGET))
    _verdict(capsys, 9, "Chebyshev coefficients and ternary word identity (n+k<=16 / <=14)", result.failures, result.checks, t0)


def test_criterion_10_bijection(capsys):
    t0 = time.perf_counter()
    failures, checks = [], 0

    def all_compositions(n):
        for k in range(1, n + 1):
            for cuts in itertools.combinations(range(1, n), k - 1):
                bounds = (0,) + cuts + (n,)
                yield tuple(bounds[i + 1] - bounds[i] for i in range(k))

    for n in range(1, 13):
        fib_words, ge2_words, tt_words = set(), set(), set()
        for parts in all_compositions(n):
            word = composition_to_word(parts)
            checks += 1
            if tuple(word_to_composition(word)) != parts:
                failures.append(f"round trip {parts}")
            if set(parts) <= {1, 2}:
                fib_words.add(word)
            if min(parts) >= 2:
                ge2_words.add(word)
            if set(parts) <= {2, 3}:
                tt_words.add(word)
        space = list(itertools.product((0, 1), repeat=n - 1))
        checks += 3
        if fib_words != {w for w in space if check(w, Restriction.ISOLATED_ZEROS)}:
            failures.append(f"fib image n={n}")
        if ge2_words != {
            w
            for w in space
            if w and w[0] == 0 and w[-1] == 0 and check(w, Restriction.ISOLATED_NONZEROS)
        }:
            failures.append(f"ge2 image n={n}")
        if tt_words != {w for w in space if check(w, Restriction.ZERO_FRAMED_BOUNDED)}:
            failures.append(f"two_three image n={n}")
    _verdict(capsys, 10, "composition bijection round-trips and image sets (n<=12)", failures, checks, t0)


class _QuietCapsys:
    """A capsys whose disabled() keeps capture on, so a planted FAIL line is not shown."""

    disabled = staticmethod(contextlib.nullcontext)


def _plus_one(build, n, k):
    """The triangle builder ``build`` with c(n, k) one too high."""

    def faulty(f0, m, order):
        rows = [list(row) for row in build(f0, m, order).rows]
        rows[n - 1][k - 1] += 1
        return LowerTriangularMatrix(rows)

    return faulty


def _swapped_at_depth_one(build):
    """``build`` with c_1(4, 1) and c_1(4, 2) swapped, which keeps every row sum."""

    def faulty(f0, m, order):
        rows = [list(row) for row in build(f0, m, order).rows]
        if m == 1:
            rows[3][0], rows[3][1] = rows[3][1], rows[3][0]
        return LowerTriangularMatrix(rows)

    return faulty


def _engine_rows_as_word_counts(preset, m, ns, budget):
    """The engine's rows in place of the word counts, c(3, 2) one too high; no word is enumerated."""
    for n in ns:
        row = triangle_recurrence(make_seed(preset, n), m, n).rows[-1]
        yield tuple(c + ((n, k) == (3, 2)) for k, c in enumerate(row, start=1))


def _plant(monkeypatch, num):
    """Plant criterion ``num``'s fault, each on a name the criterion reaches."""
    if num == 1:
        monkeypatch.setitem(ROUTES, "bell", _plus_one(ROUTES["bell"], 3, 2))
    elif num == 2:
        transform = verify.iterate_invert
        monkeypatch.setattr(verify, "iterate_invert", lambda f, j: ArithmeticFunction(
            tuple(v + (n == 5) for n, v in enumerate(transform(f, j).values, start=1))
        ))
    elif num == 3:
        monkeypatch.setattr(verify, "triangle_recurrence", _swapped_at_depth_one(verify.triangle_recurrence))
    elif num == 4:
        monkeypatch.setitem(globals(), "oracle_rows", _engine_rows_as_word_counts)
    elif num == 5:
        monkeypatch.setattr(identities, "triangle_recurrence", _plus_one(identities.triangle_recurrence, 2, 1))
    elif num == 6:
        monkeypatch.setattr(identities, "comb", lambda n, k: math.comb(n, k) + ((n, k) == (4, 2)))
    elif num == 7:
        transform = bell.invert_transform
        monkeypatch.setattr(bell, "invert_transform", lambda f: ArithmeticFunction(
            transform(f).values[:-1] + (transform(f).values[-1] + 1,)
        ))
    elif num == 8:
        power = verify.mat_pow
        monkeypatch.setattr(verify, "mat_pow", lambda a, e: power(a, 2 if e == 3 else e))
    elif num == 9:
        words = verify.oracle_rows
        monkeypatch.setattr(verify, "oracle_rows", lambda *args: (
            row if n != 3 else (row[0] + 1, *row[1:]) for n, row in enumerate(words(*args), start=1)
        ))
    else:
        decode = word_to_composition
        monkeypatch.setitem(globals(), "word_to_composition", lambda word: decode(word)[::-1])


# the first failure each planted fault makes its criterion report
FIRST_FAILURES = {
    1: "ones m=1, first (n, k, values) (3, 2, {'recurrence': 2, 'conv': 2, 'bell': 3, 'pascal': 2})",
    2: "ones d=1 t=1 n=5: weighted row sum != transform",
    3: "ones d=1 t=2 n=4: weighted row sum != transform",
    4: "ones m=1 n=3 k=2",
    5: "ones m=1 n=2 k=1: engine 2 != formula 1",
    6: "inversion identity fails at n=4 k=4",
    7: "Bell identity fails for ones",
    8: "ones: power relation fails at m=4",
    9: "Chebyshev coefficient check fails at n=3 k=1",
    10: "round trip (1, 2)",
}


@pytest.mark.parametrize("num", FIRST_FAILURES)
def test_a_planted_fault_fails_its_criterion(monkeypatch, num):
    criterion = next(test for name, test in globals().items() if name.startswith(f"test_criterion_{num:02d}_"))
    _plant(monkeypatch, num)
    with pytest.raises(AssertionError) as failed:
        criterion(_QuietCapsys)
    line = str(failed.value).splitlines()[0]
    assert line.startswith(f"criterion {num:2d} [FAIL] ")
    assert line.endswith(f"; first failure: {FIRST_FAILURES[num]}")
