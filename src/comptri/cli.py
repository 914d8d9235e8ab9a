"""Command-line frontend: transforms, triangles, word oracles, verification.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 enumeration
budget or output-size bound exceeded.  All output is UTF-8 with LF line
endings and is deterministic for a fixed invocation.

``triangle`` builds each route that --algo names from ``triangle.ROUTES``,
formats the first one's triangle once it is built, and prints that text only
if ``triangle.disagreements`` finds no entry where the routes differ.
``triangle --algo all`` and ``verify`` with no --suite hand the routes of
one split in _CHILD_ROUTES, or the suites in _CHILD_SUITES, to a child made
by os.fork when os.fork exists and more than one CPU is usable (the affinity
mask, else os.cpu_count()); otherwise, or if the fork fails, this process
does all the work.  The triangle's split reads the weights' bit bound, and
this process always builds and formats the printed recurrence.  A fork costs
about 1.7 ms, so a triangle at N=64 takes about as long as the slower side,
the formatting counted on this one.  The output, the exit code and the
reported failure are those of an in-process run.

Startup imports only what every command needs.  ``json`` is imported by the
``--format json`` branches, ``pickle`` by the commands that fork, and numpy
by word enumeration (see :mod:`comptri.words`), so a csv ``transform`` loads
none of them.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Sequence

from . import verify
from .errors import ComptriError, EnumerationBudgetError, OutputSizeError
from .sequences import ArithmeticFunction, Preset, check_output_size, entry_bits, iterate_invert, make_seed
from .triangle import ORDER_CAP, ROUTES, disagreements, triangle_recurrence
from .words import DEFAULT_BUDGET, oracle_rows

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

BUDGET_CAP = 1 << 30  # under half a minute at about 5e7 words/s

# `triangle --algo all` builds one split's routes in a forked child while this
# process builds and formats the others, the printed recurrence among them.  On
# narrow weights every route costs about the same, so bell stays here; on wide
# ones bell's and the recurrence's products by them dominate, so bell joins the
# child.  The split is wide when entry_bits' bound on the weights f_(m-1)
# exceeds _WIDE_BITS: at N=64 and m >= 2, b-bit custom seeds crossed over between
# bounds of 1343 and 1536 (b = 20 and 24), and at m = 1, whose bound is at most
# 127 bits, narrow was faster in 14 of 18 readings (BENCH_width_split.json).  A
# bound past the size cap picks a split too; the recurrence, built here, refuses it
_CHILD_ROUTES = {"narrow": ("conv", "pascal"), "wide": ("conv", "bell", "pascal")}
_WIDE_BITS = 1440
# `verify` with no --suite runs these suites in a forked child while it runs the
# others, word counting (and numpy) among them: 21.2 ms against 21.1 ms at default
# bounds (sums of each suite's median best of 15, 2 vCPUs; BENCH_general_path.json)
_CHILD_SUITES = ("bell", "pascal", "closed-forms")


class _IntRange(argparse.Action):
    """An integer flag with a floor and an optional cap; a value outside is a
    usage error that names the flag."""

    def __init__(self, option_strings, dest, floor: int, cap: int | None = None, **kwargs):
        super().__init__(option_strings, dest, type=int, **kwargs)
        self.floor = floor
        self.cap = cap

    def __call__(self, parser, namespace, value, option_string=None):
        if value < self.floor:
            parser.error(f"{option_string} must be at least {self.floor}")
        if self.cap is not None and value > self.cap:
            parser.error(f"{option_string} is capped at {self.cap}")
        setattr(namespace, self.dest, value)


def _resolve_seed(args: argparse.Namespace, parser: argparse.ArgumentParser):
    """Returns (seed, seed_repr, N); flag misuse becomes a usage error."""
    if args.seed is not None:
        if args.preset not in (None, "custom"):
            parser.error("--seed only combines with --preset custom")
        try:
            values = [int(part) for part in args.seed.split(",")]
        except ValueError:
            parser.error(f"could not parse {args.seed!r} as comma-separated integers")
        n = args.N if args.N is not None else len(values)
        if len(values) < n:
            parser.error(f"custom seed has {len(values)} terms, {n} requested")
        try:
            seed = ArithmeticFunction(tuple(values[:n]))
        except ComptriError as exc:
            parser.error(str(exc))
        return seed, values[:n], n
    if args.preset is None:
        parser.error("one of --preset or --seed is required")
    if args.preset == "custom":
        parser.error("the custom preset needs --seed")
    if args.N is None:
        parser.error("--N is required with --preset")
    # the bound grows with max f_0, which it floors at 1, so a prefix refused
    # at 1 is refused for every preset: check before building a long one
    check_output_size(args.N, args.m, 1)
    return make_seed(args.preset, args.N), args.preset, args.N


def _emit_sequence(seed_repr, m: int, n: int, values: Sequence[int], fmt: str) -> str:
    if fmt == "csv":
        return ",".join(str(v) for v in values) + "\n"
    if fmt == "json":
        import json

        doc = {"seed": seed_repr, "m": m, "N": n, "values": [str(v) for v in values]}
        return json.dumps(doc) + "\n"
    return "".join(f"{i} {v}\n" for i, v in enumerate(values, start=1))


def _emit_triangle(seed_repr, m: int, n: int, rows, fmt: str) -> str:
    if fmt == "json":
        import json

        doc = {"seed": seed_repr, "m": m, "N": n, "rows": [[str(v) for v in row] for row in rows]}
        return json.dumps(doc) + "\n"
    if fmt == "csv":
        lines = [f"{i},{j},{v}" for i, row in enumerate(rows, start=1) for j, v in enumerate(row, start=1)]
        return "\n".join(["n,k,value", *lines]) + "\n"
    return _emit_sequence(seed_repr, m, n, [v for row in rows for v in row], fmt)


def _cmd_transform(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    seed, seed_repr, n = _resolve_seed(args, parser)
    check_output_size(n, args.m, max(seed.values))
    values = iterate_invert(seed, args.m).values
    sys.stdout.write(_emit_sequence(seed_repr, args.m, n, values, args.format))
    return EXIT_OK


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_jobs(names, jobs) -> dict:
    """Maps each name to the result of ``jobs[name]()``, in order, up to the
    first job that raises, which maps to its exception."""
    done = {}
    for name in names:
        try:
            done[name] = jobs[name]()
        except Exception as exc:
            done[name] = exc
            break
    return done


def _run_forked(names, child, jobs) -> dict:
    """_run_jobs of ``child`` in a forked child and of the other names here,
    or _run_jobs(names, jobs) if os.fork fails.

    The child sends its result back through a pipe, writes nothing else and
    leaves only by os._exit.
    """
    import pickle  # only the forking commands need it, so startup does not pay for it

    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        return _run_jobs(names, jobs)
    if pid == 0:
        code = 1
        try:
            os.close(read)
            done = _run_jobs(child, jobs)
            # a result equal to an earlier one is sent as that object, which pickle writes once
            for name, result in done.items():
                done[name] = next(r for r in done.values() if type(r) is type(result) and r == result)
            with os.fdopen(write, "wb") as out:
                pickle.dump(done, out, pickle.HIGHEST_PROTOCOL)
            code = 0
        finally:
            os._exit(code)
    os.close(write)
    stream = os.fdopen(read, "rb")
    try:
        done = _run_jobs([name for name in names if name not in child], jobs)
        try:
            done.update(pickle.load(stream))
        except (EOFError, pickle.UnpicklingError):
            raise ComptriError(f"the process building {', '.join(child)} sent no result")
    finally:
        # closed first, so that a child blocked on a full pipe fails its write and exits
        stream.close()
        os.waitpid(pid, 0)
    return done


def _run_in_order(names, child_names, jobs):
    """Yields (name, result) of each job in ``names`` order, and raises the
    first failure in that order where its result would be.

    With os.fork and more than one usable CPU, a forked child runs the names
    in ``child_names`` while this process runs the rest, when both sides have
    some; otherwise, or if the fork fails, this process runs them all in
    order.  Each side stops at its own first failure, so the first failure
    in ``names`` order is the one an in-process run would raise.
    """
    forked = hasattr(os, "fork") and _usable_cpus() > 1
    child = [name for name in names if forked and name in child_names]
    done = _run_forked(names, child, jobs) if 0 < len(child) < len(names) else _run_jobs(names, jobs)
    for name in names:
        # a side that stopped early stopped at an earlier name, which raises first
        if isinstance(done[name], Exception):
            raise done[name]
        yield name, done[name]


def _cmd_triangle(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    seed, seed_repr, n = _resolve_seed(args, parser)
    names = list(ROUTES) if args.algo == "all" else [args.algo]
    jobs = {name: lambda build=ROUTES[name]: build(seed, args.m, n).rows for name in names}

    # formatted here as soon as it is built, while a forked child still builds
    def build_and_emit(build=jobs[names[0]]):
        rows = build()
        return rows, _emit_triangle(seed_repr, args.m, n, rows, args.format)

    jobs[names[0]] = build_and_emit
    split = "wide" if entry_bits(n, args.m - 1, max(seed.values)) > _WIDE_BITS else "narrow"
    triangles = dict(_run_in_order(names, _CHILD_ROUTES[split], jobs))
    triangles[names[0]], text = triangles[names[0]]
    found = disagreements(triangles)
    if found:
        for ni, ki, vals in found[:20]:
            detail = " ".join(f"{name}={v}" for name, v in vals.items())
            sys.stderr.write(f"disagreement at n={ni} k={ki}: {detail}\n")
        sys.stderr.write(f"{len(found)} disagreeing entries\n")
        return EXIT_FAIL
    sys.stdout.write(text)
    return EXIT_OK


def _cmd_oracle(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    preset = Preset(args.preset)
    # the GE2 word model starts at n = 4, so a shorter run would compare nothing
    start = 4 if preset is Preset.GE2 else 1
    if args.N < start:
        parser.error(f"--N must be at least {start} with --preset {preset.value}")
    seed = make_seed(preset, args.N)
    tri = triangle_recurrence(seed, args.m, args.N)
    lines = ["n,k,engine,oracle,match"]
    all_match = True
    # one growth of the word space serves every row; each row's budget is
    # checked before any work on it
    rows = oracle_rows(preset, args.m, range(start, args.N + 1), args.budget)
    for n in range(start, args.N + 1):
        try:
            counts = next(rows)
        except EnumerationBudgetError as exc:
            sys.stdout.write("\n".join(lines) + "\n")
            sys.stderr.write(f"budget exceeded at n={n}, k=1..{n}: {exc}\n")
            return EXIT_BUDGET
        for k, (engine, oracle) in enumerate(zip(tri.rows[n - 1], counts), start=1):
            match = "ok" if engine == oracle else "MISMATCH"
            if engine != oracle:
                all_match = False
            lines.append(f"{n},{k},{engine},{oracle},{match}")
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK if all_match else EXIT_FAIL


def _cmd_verify(args: argparse.Namespace, parser: argparse.ArgumentParser) -> int:
    suites = verify.suites(args.max, args.budget)
    names = [args.suite] if args.suite else list(suites)
    for name in names:
        least = verify.LEAST_CAP.get(name, 1)
        if args.max is not None and args.max < least:
            parser.error(
                f"--max must be at least {least}: the {name} suite compares nothing below it"
            )
    results = []
    for name, result in _run_in_order(names, _CHILD_SUITES, suites):
        results.append(result)
        sys.stdout.write(f"{name}: {result.checks} checks, {len(result.failures)} failures\n")
        for line in result.failures[:10]:
            sys.stderr.write(f"  {name}: {line}\n")
    total = verify.combine(*results)
    verdict = "FAIL" if total.failures else "PASS"
    sys.stdout.write(f"{verdict}: {total.checks} checks, {len(total.failures)} failures\n")
    return EXIT_FAIL if total.failures else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    """A newly built parser of every subcommand; ``main`` keeps the first one it builds."""
    parser = argparse.ArgumentParser(
        prog="comptri",
        description="Exact composition triangles, invert transforms, and word oracles.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    preset_names = [p.value for p in Preset]

    def add_seed_flags(p: argparse.ArgumentParser, n_cap: int | None = None) -> None:
        p.add_argument("--preset", choices=[*preset_names, "custom"], help="built-in seed f_0")
        p.add_argument("--seed", help="comma-separated integers for a custom seed")
        p.add_argument("--N", action=_IntRange, floor=1, cap=n_cap, help="prefix length")

    p = sub.add_parser("transform", help="print the m-th invert transform f_m(1..N)")
    add_seed_flags(p)
    p.add_argument("--m", action=_IntRange, floor=0, default=1, help="transform depth, 0 echoes the seed")
    p.add_argument("--format", choices=("csv", "json", "bfile"), default="csv")
    p.set_defaults(handler=_cmd_transform, parser=p)

    p = sub.add_parser("triangle", help="print the depth-m triangle c(n,k)")
    add_seed_flags(p, ORDER_CAP)
    p.add_argument("--m", action=_IntRange, floor=1, default=1, help="triangle depth, at least 1")
    p.add_argument("--algo", choices=(*ROUTES, "all"), default="recurrence")
    p.add_argument("--format", choices=("csv", "json", "bfile"), default="csv")
    p.set_defaults(handler=_cmd_triangle, parser=p)

    p = sub.add_parser("oracle", help="compare triangle entries against word counts")
    p.add_argument("--preset", choices=preset_names, required=True, help="built-in seed f_0")
    p.add_argument("--N", action=_IntRange, floor=1, cap=ORDER_CAP, required=True, help="prefix length")
    p.add_argument("--m", action=_IntRange, floor=1, default=1)
    p.add_argument("--budget", action=_IntRange, floor=1, cap=BUDGET_CAP, default=DEFAULT_BUDGET,
                   help="word-space bound")
    p.set_defaults(handler=_cmd_oracle, parser=p)

    p = sub.add_parser("verify", help="run the identity verification suites")
    p.add_argument("--suite", choices=sorted(verify.suites()), default=None, help="run one suite")
    p.add_argument("--max", action=_IntRange, floor=1, cap=ORDER_CAP, help="cap the suite's main sweep bound")
    p.add_argument("--budget", action=_IntRange, floor=1, cap=BUDGET_CAP, default=DEFAULT_BUDGET,
                   help="word-space bound")
    p.set_defaults(handler=_cmd_verify, parser=p)

    return parser


# main's parser, built on its first call and reused by every later one: building
# it takes about as long as a small command, and argparse keeps no state between parses
_parser: argparse.ArgumentParser | None = None


def main(argv: Sequence[str] | None = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.handler(args, args.parser)
    except (EnumerationBudgetError, OutputSizeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_BUDGET
    except (ComptriError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
