"""The benchmark's workloads: CLI calls made from a seed, and their checks.

Each workload is a list of ``Op`` (one ``comptri`` command line each) run
as a closed loop by one client, plus a check of every op's exit code and
stdout.  ``PREDICTED`` records the layer shares expected at the parent
commit, so a later change can state which numbers it should move.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

import numpy as np

from comptri.sequences import make_seed
from comptri.words import oracle_model

PRESETS = ("ones", "fib", "odd", "natural", "ge2", "two_three")

# Criterion 4 sweeps n <= 13 (n <= 15 for ge2) at budget 2**26, about 27 s
# per pass.  2**22 keeps every (preset, m) in the grid; the largest spaces,
# 4**11 words, still span four full 2**20-word chunks, and one pass
# enumerates 4.1e7 words in 5 to 7 s.
ORACLE_BUDGET = 1 << 22
ORDER = 64
TRANSFORM_N = 800
TRANSFORM_M = 3

VERIFY_STDOUT = (
    "row-sums: 1800 checks, 0 failures\n"
    "binomial: 894 checks, 0 failures\n"
    "bell: 6 checks, 0 failures\n"
    "pascal: 66 checks, 0 failures\n"
    "closed-forms: 3360 checks, 0 failures\n"
    "chebyshev: 64 checks, 0 failures\n"
    "word-binomial: 91 checks, 0 failures\n"
    "PASS: 6281 checks, 0 failures\n"
)
VERIFY_CHECKS = 6281
VERIFY_WORDS = 11_953_049

# Predicted layer shares at the parent commit, from which the per-layer
# metrics show a change's cause: (share, numerator metrics, denominator
# metrics, predicted value, end-to-end metrics it moves).  Each side is a
# sum of traced per-layer values; ``cli.main.busy_s`` is a traced pass's
# time inside comptri.  Why each workload was chosen is its ``why`` in
# BENCHMARK.json.
WALL = ("cli.main.busy_s",)
# time in the four triangle builders: triangle_pascal calls
# triangle_recurrence, and triangle_bell calls bell_table
BUILDERS = (
    "triangle.triangle_recurrence.self_s", "triangle.triangle_convolution.self_s",
    "triangle.triangle_bell.self_s", "bell.bell_table.busy_s", "triangle.triangle_pascal.self_s",
)
PREDICTED = {
    "oracle": [
        ("mark_histogram / wall", ("words.mark_histogram.busy_s",), WALL, 0.99,
         "wall_ref, words_per_s"),
        ("count_words / wall", ("words.count_words.busy_s",), WALL, 0.0, "none"),
        ("builders / wall", BUILDERS, WALL, 0.0, "none"),
    ],
    "algebra": [
        ("words / wall", ("words.mark_histogram.busy_s",), WALL, 0.0, "none"),
        ("bell + pascal / builders",
         ("triangle.triangle_bell.busy_s", "triangle.triangle_pascal.busy_s"), BUILDERS, 0.75,
         "entries_per_s"),
    ],
    "verify": [
        ("mark_histogram / wall", ("words.mark_histogram.busy_s",), WALL, 0.92, "wall_ref"),
    ],
}


@dataclass(frozen=True)
class Op:
    """One CLI call; ``seed`` and ``m`` tie triangles to transforms in the check."""

    argv: tuple[str, ...]
    kind: str
    seed: str = ""
    m: int = 0
    n: int = 0


def _oracle_top(preset: str, m: int) -> int:
    """Largest N within the grid whose every row fits the budget."""
    top = 3 if preset == "ge2" else 0
    for n in range(top + 1, (15 if preset == "ge2" else 13) + 1):
        model = oracle_model(preset, m, n)
        if model.alphabet**model.length > ORACLE_BUDGET:
            break
        top = n
    return top


def oracle_ops(rng: random.Random) -> list[Op]:
    ops = []
    for preset in PRESETS:
        for m in (1, 2, 3):
            n = _oracle_top(preset, m)
            argv = ("oracle", "--preset", preset, "--m", str(m), "--N", str(n),
                    "--budget", str(ORACLE_BUDGET))
            ops.append(Op(argv, "oracle", preset, m, n))
    rng.shuffle(ops)
    return ops


def custom_seeds(rng: random.Random) -> dict[str, list[int]]:
    """Two custom seeds f(1..64) with the same shape on every workload seed.

    ``small`` has digits 1..9 and ``wide`` 64-bit weights, so triangle
    entries grow to thousands of bits.  A quarter of each is zero, but never
    f(1): a zero f(1) empties half the triangle and would make the work, and
    so every timing, depend on the workload seed.
    """
    small = [rng.randint(1, 9) for _ in range(ORDER)]
    wide = [rng.getrandbits(63) | 1 << 63 for _ in range(ORDER)]
    for seed in (small, wide):
        for i in rng.sample(range(1, ORDER), ORDER // 4):
            seed[i] = 0
    return {"small": small, "wide": wide}


def algebra_ops(rng: random.Random) -> tuple[list[Op], dict[str, list[int]]]:
    customs = custom_seeds(rng)
    ops = []
    fmt = 0
    for seed in PRESETS + tuple(customs):
        for m in (1, 2, 3, 4):
            # Long transforms only on presets: on a custom seed the bit growth,
            # and so the cost, of f_3(1..800) varies twofold with f(1), f(2), ...
            tn = TRANSFORM_N if m == TRANSFORM_M and seed in PRESETS else ORDER
            for kind, n, extra in (("triangle", ORDER, ("--algo", "all")), ("transform", tn, ())):
                if seed in customs:
                    src = ("--seed", ",".join(map(str, customs[seed])))
                else:
                    src = ("--preset", seed)
                fmt ^= 1
                argv = (kind, *src, "--N", str(n), "--m", str(m), *extra,
                        "--format", ("csv", "json")[fmt])
                ops.append(Op(argv, kind, seed, m, n))
    rng.shuffle(ops)
    return ops, customs


def verify_ops(rng: random.Random) -> list[Op]:
    return [Op(("verify",), "verify")]


def make_ops(workload: str, seed: int) -> tuple[list[Op], dict[str, list[int]]]:
    rng = random.Random(seed)
    if workload == "oracle":
        return oracle_ops(rng), {}
    if workload == "algebra":
        return algebra_ops(rng)
    return verify_ops(rng), {}


BIGINT_SEED = [(i * 0x9E3779B97F4A7C15 + 12345) % (1 << 64) | 1 for i in range(1, 97)]


def bigint_work() -> None:
    """Twelve self-convolutions of 96 64-bit integers: interpreted big-integer work, 10-20 ms."""
    row = BIGINT_SEED
    for _ in range(12):
        row = [sum(row[j] * BIGINT_SEED[i - j] for j in range(i + 1)) for i in range(len(row))]


def array_work() -> None:
    """A mark histogram of the 4**9 words of length 9 with isolated zeros: numpy work, ~40 ms."""
    idx = np.arange(4**9, dtype=np.int64)
    digits = np.empty((4**9, 9), dtype=np.uint8)
    for pos in range(8, -1, -1):
        digits[:, pos] = idx % 4
        idx //= 4
    zeros = digits == 0
    mask = ~(zeros[:, :-1] & zeros[:, 1:]).any(axis=1)
    np.bincount((digits == 1).sum(axis=1)[mask], minlength=10)


# The reference work each workload's op times are divided by (see run.py):
# work of the kind that dominates the workload, since host slowdowns hit
# interpreted big-integer code and numpy array code differently.  Over 30 s
# windows of one 3-minute run on a 2 vCPU Xeon, the spread (q3 - q1) /
# median of oracle pass times was 0.066 raw, 0.086 divided by bigint_work
# and 0.011 divided by array_work; of algebra pass times 0.156 raw, 0.075
# divided by array_work and 0.036 divided by bigint_work.
REFERENCE = {"oracle": array_work, "algebra": bigint_work, "verify": array_work}


def reference_transform(f0: list[int], m: int) -> list[int]:
    """f_m from F_m = F_0 / (1 - m F_0), a different route than m invert steps."""
    nonzero = [(i, v) for i, v in enumerate(f0, start=1) if v]
    g: list[int] = []
    for n in range(1, len(f0) + 1):
        acc = 0
        for i, v in nonzero:
            if i >= n:
                break
            acc += v * g[n - i - 1]
        g.append(f0[n - 1] + m * acc)
    return g


def _parse_values(text: str) -> list[int]:
    if text.startswith("{"):
        return [int(v) for v in json.loads(text)["values"]]
    return [int(v) for v in text.split(",")]


def _parse_rows(text: str) -> list[list[int]]:
    if text.startswith("{"):
        return [[int(v) for v in row] for row in json.loads(text)["rows"]]
    rows: list[list[int]] = []
    for line in text.splitlines()[1:]:
        n, k, value = line.split(",")
        if int(k) == 1:
            rows.append([])
        rows[int(n) - 1].append(int(value))
    return rows


def summarize(op: Op, rc, out: str):
    """What ``check_pass`` needs of one op's result, so its stdout can be dropped.

    oracle and verify: whether stdout is right (oracle: one ``ok`` line per
    entry and no MISMATCH; verify: the exact expected suite lines).
    transform: the values printed; triangle: its row sums.  None when the
    op failed or its output does not parse.
    """
    if rc != 0:
        return None
    try:
        if op.kind == "oracle":
            start = 4 if op.seed == "ge2" else 1
            lines = out.splitlines()
            return (
                lines[:1] == ["n,k,engine,oracle,match"]
                and len(lines) == sum(range(start, op.n + 1)) + 1
                and all(line.endswith(",ok") for line in lines[1:])
            )
        if op.kind == "transform":
            return _parse_values(out)
        if op.kind == "triangle":
            rows = _parse_rows(out)
            if [len(r) for r in rows] != list(range(1, op.n + 1)):
                return None
            return [sum(r) for r in rows]
    except (ValueError, KeyError, IndexError):
        return None
    return out == VERIFY_STDOUT


def check_pass(ops: list[Op], summaries: list, customs: dict[str, list[int]]) -> list[bool]:
    """Whether each op was correct, from its ``summarize`` result.

    Every transform must equal the benchmark's own series for
    F_0 / (1 - m F_0), and every triangle row n must sum to f_m(n) printed
    by ``transform`` for the same seed and m.
    """
    transforms = {}
    for op, values in zip(ops, summaries):
        if op.kind == "transform" and values is not None:
            f0 = customs.get(op.seed) or list(make_seed(op.seed, op.n).values)
            if values == reference_transform(f0[: op.n], op.m):
                transforms[(op.seed, op.m)] = values
    ok = []
    for op, summary in zip(ops, summaries):
        if op.kind == "transform":
            ok.append((op.seed, op.m) in transforms)
        elif op.kind == "triangle":
            fm = transforms.get((op.seed, op.m))
            ok.append(summary is not None and fm is not None and summary == fm[: op.n])
        else:
            ok.append(summary is True)
    return ok


def oracle_words(op: Op) -> int:
    """Words in the spaces an oracle call requests: A**L for each row's model."""
    start = 4 if op.seed == "ge2" else 1
    models = [oracle_model(op.seed, op.m, n) for n in range(start, op.n + 1)]
    return sum(model.alphabet**model.length for model in models)


# rate metrics of each op kind, and the work units of one op: words in the
# spaces requested (verify's is a constant of its default bounds), triangle
# entries built by all four routes and compared, invert-transform terms,
# verify checks
RATES = (
    ("oracle", "words_per_s", oracle_words),
    ("triangle", "entries_per_s", lambda op: 4 * op.n * (op.n + 1) // 2),
    ("transform", "transform_terms_per_s", lambda op: op.n * op.m),
    ("verify", "words_per_s", lambda op: VERIFY_WORDS),
    ("verify", "checks_per_s", lambda op: VERIFY_CHECKS),
)
