"""Acceptance sweep: one test and one printed verdict line per criterion.

Every comparison is exact integer equality.  Verdict lines bypass pytest's
output capture so they are always visible; each line reports the criterion
number, PASS or FAIL, the sweep, the number of comparisons, and the elapsed
time.
"""

import itertools
import random
import time

from comptri import (
    ArithmeticFunction,
    Restriction,
    check,
    composition_to_word,
    make_seed,
    oracle_model,
    oracle_rows,
    triangle_recurrence,
    verify,
    word_to_composition,
)
from comptri.triangle import ROUTES, disagreements

PRESETS = ("ones", "fib", "odd", "natural", "ge2", "two_three")
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
