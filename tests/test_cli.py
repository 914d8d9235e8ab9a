"""Command-line behavior: formats, determinism, exit codes."""

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import comptri
from comptri import LowerTriangularMatrix, Preset, cli, triangle_pascal, verify
from comptri.cli import main
from comptri.errors import InternalConsistencyError
from comptri.triangle import ROUTES

SRC = str(Path(comptri.__file__).resolve().parents[1])


def run(capsys, *args):
    code = main(list(args))
    out, err = capsys.readouterr()
    return code, out, err


def test_transform_csv(capsys):
    code, out, err = run(capsys, "transform", "--preset", "ones", "--m", "2", "--N", "5")
    assert code == 0
    assert out == "1,3,9,27,81\n"


def test_transform_fib(capsys):
    code, out, _ = run(capsys, "transform", "--preset", "fib", "--m", "1", "--N", "5")
    assert code == 0
    assert out == "1,2,3,5,8\n"


def test_transform_depth_zero_echoes_seed(capsys):
    code, out, _ = run(capsys, "transform", "--preset", "two_three", "--m", "0", "--N", "6")
    assert code == 0
    assert out == "0,1,1,0,0,0\n"


def test_transform_json(capsys):
    code, out, _ = run(capsys, "transform", "--preset", "ones", "--m", "2", "--N", "4", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc == {"seed": "ones", "m": 2, "N": 4, "values": ["1", "3", "9", "27"]}


def test_transform_bfile(capsys):
    code, out, _ = run(capsys, "transform", "--preset", "fib", "--N", "4", "--format", "bfile")
    assert code == 0
    assert out == "1 1\n2 2\n3 3\n4 5\n"


def test_transform_custom_seed_defaults_length(capsys):
    code, out, _ = run(capsys, "transform", "--seed", "1,2,3")
    assert code == 0
    assert out == "1,3,8\n"


@pytest.mark.parametrize(
    ("command", "stdout"),
    [
        ("transform", "4,16,71\n"),
        ("triangle", "n,k,value\n1,1,4\n2,1,0\n2,2,16\n3,1,7\n3,2,0\n3,3,64\n"),
    ],
)
def test_preset_custom_spells_an_explicit_seed(capsys, command, stdout):
    assert run(capsys, command, "--seed", "4,0,7") == (0, stdout, "")
    assert run(capsys, command, "--preset", "custom", "--seed", "4,0,7") == (0, stdout, "")


def test_triangle_csv(capsys):
    code, out, _ = run(capsys, "triangle", "--preset", "ones", "--m", "1", "--N", "3")
    assert code == 0
    assert out == "n,k,value\n1,1,1\n2,1,1\n2,2,1\n3,1,1\n3,2,2\n3,3,1\n"


def test_triangle_json(capsys):
    code, out, _ = run(capsys, "triangle", "--preset", "fib", "--m", "2", "--N", "4", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["seed"] == "fib"
    assert doc["m"] == 2 and doc["N"] == 4
    assert doc["rows"] == [["1"], ["2", "1"], ["3", "4", "1"], ["5", "10", "6", "1"]]


def test_triangle_bfile(capsys):
    code, out, _ = run(capsys, "triangle", "--preset", "ones", "--N", "3", "--format", "bfile")
    assert code == 0
    assert out == "1 1\n2 1\n3 1\n4 1\n5 2\n6 1\n"


def test_triangle_single_entry(capsys):
    code, out, _ = run(capsys, "triangle", "--preset", "natural", "--m", "1", "--N", "1")
    assert code == 0
    assert out == "n,k,value\n1,1,1\n"


def wide_seed(rng_seed=64):
    """64 values of about 2**63, a quarter of them zero but never f(1): at m = 2
    each route's triangle pickles to far more than a pipe buffer holds."""
    rng = random.Random(rng_seed)
    seed = [rng.getrandbits(63) | 1 << 63 for _ in range(64)]
    for i in rng.sample(range(1, 64), 16):
        seed[i] = 0
    return ",".join(map(str, seed))


def one_cpu(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)


def no_fork(monkeypatch):
    monkeypatch.delattr(os, "fork")


def fork_fails(monkeypatch):
    def fork():
        raise OSError("no process to spare")

    monkeypatch.setattr(os, "fork", fork)


def forked(monkeypatch):
    # the child is used whenever os.fork exists, whatever this host's CPU count
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)


BUILD_PATHS = [forked, no_fork, one_cpu, fork_fails]


@pytest.mark.parametrize("path", BUILD_PATHS)
@pytest.mark.parametrize(
    "source",
    [("--preset", "odd", "--m", "3", "--N", "10"), ("--seed", wide_seed(), "--m", "2", "--N", "64")],
    ids=["odd", "wide"],
)
def test_triangle_all_algorithms_agree(capsys, monkeypatch, source, path):
    path(monkeypatch)
    code_all, out_all, err = run(capsys, "triangle", *source, "--algo", "all")
    code_one, out_one, _ = run(capsys, "triangle", *source)
    assert code_all == 0 and err == ""
    assert out_all == out_one


@pytest.mark.parametrize("path", BUILD_PATHS)
def test_each_route_alone_prints_what_all_prints(capsys, monkeypatch, path):
    path(monkeypatch)
    forks = []
    fork = getattr(os, "fork", None)
    if fork is not None:

        def spy():
            forks.append("fork")
            return fork()

        monkeypatch.setattr(os, "fork", spy)
    argv = ("triangle", "--preset", "odd", "--m", "3", "--N", "10", "--algo")
    expected = run(capsys, *argv, "all")
    forks_by_all = len(forks)
    assert expected[0] == 0
    for route in ROUTES:
        assert run(capsys, *argv, route) == expected
    # all forks, or tries to, on these paths; no single route does
    assert len(forks) == forks_by_all == (path in (forked, fork_fails))


def test_usable_cpus_reads_the_affinity_mask_then_the_cpu_count(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
    assert cli._usable_cpus() == 3
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert cli._usable_cpus() == 4
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert cli._usable_cpus() == 1


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def raise_inconsistency(seed, m, n):
    raise InternalConsistencyError(f"planted failure at N={n}")


@pytest.mark.parametrize("route", cli._CHILD_ROUTES)
def test_a_child_route_failure_reads_as_in_process(capsys, monkeypatch, route):
    monkeypatch.setitem(ROUTES, route, raise_inconsistency)
    argv = ("triangle", "--preset", "fib", "--m", "2", "--N", "9", "--algo")
    with monkeypatch.context() as inline:
        no_fork(inline)
        expected = run(capsys, *argv, "all")
    forked(monkeypatch)
    assert run(capsys, *argv, "all") == expected == (2, "", "error: planted failure at N=9\n")
    assert run(capsys, *argv, route) == expected
    assert_no_child_left()


def test_the_first_failure_in_builder_order_is_reported(capsys, monkeypatch):
    # pascal fails in this process, conv (earlier in ROUTES) in the child
    def raise_value_error(seed, m, n):
        raise ValueError("pascal failed")

    monkeypatch.setitem(ROUTES, "conv", raise_inconsistency)
    monkeypatch.setitem(ROUTES, "pascal", raise_value_error)
    forked(monkeypatch)
    argv = ("triangle", "--preset", "ones", "--m", "2", "--N", "4", "--algo", "all")
    assert run(capsys, *argv) == (2, "", "error: planted failure at N=4\n")
    assert_no_child_left()


def test_a_child_that_sends_nothing_is_an_error(capsys, monkeypatch):
    def die(seed, m, n):
        os._exit(1)

    monkeypatch.setitem(ROUTES, "bell", die)
    forked(monkeypatch)
    argv = ("triangle", "--preset", "ones", "--m", "2", "--N", "4", "--algo", "all")
    assert run(capsys, *argv) == (2, "", "error: the process building conv, bell sent no result\n")
    assert_no_child_left()


PARENT_FAILURE = """
import json, os, sys
from comptri import cli, triangle, verify
from comptri.errors import InternalConsistencyError
planted = {"InternalConsistencyError": InternalConsistencyError, "KeyboardInterrupt": KeyboardInterrupt}
def fail(*args):
    raise planted[sys.argv[1]]("planted failure")
def flood(*args):
    # distinct strings, since pickle writes a repeated object once
    return verify.Sweep("flood", 2000, tuple(f"{i:0100}" for i in range(2000)), 0.0)
triangle.ROUTES["recurrence"] = fail
verify.row_sums = fail
for name in sys.argv[3:]:
    setattr(verify, name, flood)
cli._usable_cpus = lambda: 2
try:
    code = cli.main(json.loads(sys.argv[2]))
except KeyboardInterrupt:
    code = "interrupted"
try:
    os.waitpid(-1, os.WNOHANG)
    left = True
except ChildProcessError:
    left = False
print(json.dumps([code, left]))
"""


def run_with_a_parent_failure(planted, argv, *floods):
    """(stderr, [exit code or "interrupted", whether a child is left]) of ``argv``
    in a subprocess where the recurrence route and the row-sums suite raise
    ``planted`` and each sweep named in ``floods`` returns 200 kB of failures.

    The subprocess has a timeout: a parent that waits for a child blocked on
    a full pipe hangs there instead of failing.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-c", PARENT_FAILURE, planted, json.dumps(argv), *floods],
        env=env, capture_output=True, text=True, timeout=30,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stderr, json.loads(proc.stdout)


PLANTED_IN_PARENT = pytest.mark.parametrize(
    ("planted", "code", "stderr"),
    [("InternalConsistencyError", 2, "error: planted failure\n"), ("KeyboardInterrupt", "interrupted", "")],
    ids=["error", "interrupt"],
)


@PLANTED_IN_PARENT
def test_a_parent_route_failure_leaves_no_child(planted, code, stderr):
    # each of the child's triangles pickles to more than a pipe buffer holds
    argv = ["triangle", "--seed", wide_seed(), "--m", "2", "--N", "64", "--algo", "all"]
    assert run_with_a_parent_failure(planted, argv) == (stderr, [code, False])


def plus_one(route, entries):
    """The builder ROUTES[route] with 1 added to each (n, k) in ``entries``."""
    route_build = ROUTES[route]

    def build(seed, m, n):
        rows = [list(row) for row in route_build(seed, m, n).rows]
        for i, j in entries:
            rows[i - 1][j - 1] += 1
        return LowerTriangularMatrix(tuple(map(tuple, rows)))

    return build


@pytest.mark.parametrize("path", BUILD_PATHS)
@pytest.mark.parametrize(
    ("route", "detail"),
    [("bell", "recurrence=4 conv=4 bell=5 pascal=4"), ("recurrence", "recurrence=5 conv=4 bell=4 pascal=4")],
    ids=["bell", "recurrence"],
)
def test_triangle_disagreement_is_reported(capsys, monkeypatch, path, route, detail):
    # the printed route's text is built before the routes are compared, and dropped
    path(monkeypatch)
    monkeypatch.setitem(ROUTES, route, plus_one(route, [(3, 2)]))
    assert run(capsys, "triangle", "--preset", "ones", "--m", "2", "--N", "4", "--algo", "all") == (
        1,
        "",
        f"disagreement at n=3 k=2: {detail}\n"
        "1 disagreeing entries\n",
    )


def test_triangle_disagreement_lists_the_first_twenty(capsys, monkeypatch):
    every = [(i, j) for i in range(1, 8) for j in range(1, i + 1)]
    monkeypatch.setitem(ROUTES, "bell", plus_one("bell", every))
    code, out, err = run(capsys, "triangle", "--preset", "ones", "--m", "2", "--N", "7", "--algo", "all")
    lines = err.splitlines()
    assert (code, out, len(lines)) == (1, "", 21)
    assert lines[0] == "disagreement at n=1 k=1: recurrence=1 conv=1 bell=2 pascal=1"
    assert lines[19].startswith("disagreement at n=6 k=5: ")
    assert lines[20] == "28 disagreeing entries"


@pytest.mark.parametrize("path", BUILD_PATHS)
def test_triangle_reports_a_route_of_another_order(capsys, monkeypatch, path):
    # every shared entry agrees, so only the extra row can tell them apart
    path(monkeypatch)

    def one_row_more(seed, m, n):
        rows = triangle_pascal(seed, m, n).rows
        return LowerTriangularMatrix(rows + (rows[-1] + (1,),))

    monkeypatch.setitem(ROUTES, "pascal", one_row_more)
    assert run(capsys, "triangle", "--preset", "ones", "--m", "2", "--N", "2", "--algo", "all") == (
        1,
        "",
        "disagreement at n=3 k=1: recurrence=None conv=None bell=None pascal=2\n"
        "disagreement at n=3 k=2: recurrence=None conv=None bell=None pascal=1\n"
        "disagreement at n=3 k=3: recurrence=None conv=None bell=None pascal=1\n"
        "3 disagreeing entries\n",
    )


@pytest.mark.parametrize("path", BUILD_PATHS)
def test_the_printed_triangle_is_formatted_once_in_this_process(capsys, monkeypatch, tmp_path, path):
    # each call of _emit_triangle, in this process or a forked child, appends its pid
    calls = tmp_path / "calls"
    calls.touch()
    emit = cli._emit_triangle

    def spy(*args):
        with calls.open("a") as log:
            log.write(f"{os.getpid()}\n")
        return emit(*args)

    monkeypatch.setattr(cli, "_emit_triangle", spy)
    path(monkeypatch)
    argv = ("triangle", "--preset", "fib", "--m", "2", "--N", "9", "--algo")
    for algo in ("all", "recurrence", "bell"):
        assert run(capsys, *argv, algo)[0] == 0
    # a failure after the printed route still formats it; a failure of that route does not
    monkeypatch.setitem(ROUTES, "pascal", raise_inconsistency)
    assert run(capsys, *argv, "all") == (2, "", "error: planted failure at N=9\n")
    monkeypatch.setitem(ROUTES, "recurrence", raise_inconsistency)
    assert run(capsys, *argv, "all") == (2, "", "error: planted failure at N=9\n")
    assert calls.read_text().split() == [str(os.getpid())] * 4
    assert_no_child_left()


def raise_planted():
    raise InternalConsistencyError("planted failure")


def typed(done):
    """Each result with its type; an exception, which crosses the pipe as a
    copy, as its type and args."""
    return {name: (type(v), v.args if isinstance(v, Exception) else v) for name, v in done.items()}


@pytest.mark.parametrize(
    ("first", "second", "sent_once"),
    [
        # built at each call, so only the child can make the pair one object
        (lambda: tuple(range(40)), lambda: tuple(range(40)), True),
        (lambda: 1, lambda: True, False),
        (lambda: 7, raise_planted, False),
    ],
    ids=["equal", "equal-of-two-types", "exception"],
)
def test_run_forked_returns_what_run_jobs_returns(first, second, sent_once):
    jobs = {"own": lambda: "here", "first": first, "second": second, "third": lambda: "after"}
    child = ["first", "second", "third"]
    done = cli._run_forked(child, ["own"], jobs)
    assert typed(done) == typed(cli._run_jobs(["own", *child], jobs))
    # the child sends an equal pair of one type as one object
    assert (done["first"] is done["second"]) == sent_once
    assert_no_child_left()


def test_triangle_custom_seed(capsys):
    code, out, _ = run(capsys, "triangle", "--seed", "1,1", "--m", "1", "--N", "2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["seed"] == [1, 1]
    assert doc["rows"] == [["1"], ["1", "1"]]


def test_json_and_csv_carry_identical_values(capsys):
    _, csv_out, _ = run(capsys, "triangle", "--preset", "ge2", "--m", "2", "--N", "6")
    _, json_out, _ = run(capsys, "triangle", "--preset", "ge2", "--m", "2", "--N", "6", "--format", "json")
    from_csv = [line.split(",")[2] for line in csv_out.splitlines()[1:]]
    from_json = [v for row in json.loads(json_out)["rows"] for v in row]
    assert from_csv == from_json


def test_output_is_deterministic(capsys):
    first = run(capsys, "triangle", "--preset", "natural", "--m", "2", "--N", "8", "--format", "json")
    second = run(capsys, "triangle", "--preset", "natural", "--m", "2", "--N", "8", "--format", "json")
    assert first == second


def test_oracle_all_match(capsys):
    code, out, _ = run(capsys, "oracle", "--preset", "fib", "--m", "2", "--N", "6")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,k,engine,oracle,match"
    assert len(lines) == 1 + 21
    assert all(line.endswith(",ok") for line in lines[1:])


def test_oracle_reports_a_mismatch(capsys, monkeypatch):
    # an oracle one too high at c(4, 2) fails that line and the run, and only them
    oracle_rows = cli.oracle_rows

    def off_by_one(preset, m, ns, budget):
        for n, counts in zip(ns, oracle_rows(preset, m, ns, budget)):
            counts = list(counts)
            if n == 4:
                counts[1] += 1
            yield counts

    monkeypatch.setattr(cli, "oracle_rows", off_by_one)
    code, out, _ = run(capsys, "oracle", "--preset", "fib", "--m", "2", "--N", "5")
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "n,k,engine,oracle,match"
    assert len(lines) == 1 + 15
    assert [line for line in lines[1:] if not line.endswith(",ok")] == ["4,2,10,11,MISMATCH"]


def test_oracle_ge2_starts_past_three(capsys):
    code, out, _ = run(capsys, "oracle", "--preset", "ge2", "--m", "1", "--N", "6")
    assert code == 0
    first = out.splitlines()[1]
    assert first.startswith("4,1,")


def test_oracle_rejects_custom(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["oracle", "--preset", "custom", "--seed", "1,1", "--N", "4"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_oracle_budget_exit(capsys):
    code, out, err = run(capsys, "oracle", "--preset", "fib", "--m", "1", "--N", "10", "--budget", "10")
    assert code == 3
    assert "budget" in err
    assert out.startswith("n,k,engine,oracle,match")


# a budget of 9 words cuts each run after the rows whose space fits it
BUDGET_CUTS = {
    "ones": ("1,1,1,1,ok 2,1,2,2,ok 2,2,1,1,ok 3,1,4,4,ok 3,2,4,4,ok 3,3,1,1,ok",
             "n=4, k=1..4: 3**3"),
    "fib": ("1,1,1,1,ok 2,1,2,2,ok 2,2,1,1,ok 3,1,3,3,ok 3,2,4,4,ok 3,3,1,1,ok",
            "n=4, k=1..4: 3**3"),
    "odd": ("1,1,1,1,ok 2,1,1,1,ok 2,2,1,1,ok 3,1,2,2,ok 3,2,2,2,ok 3,3,1,1,ok",
            "n=4, k=1..4: 3**3"),
    "natural": ("1,1,1,1,ok 2,1,3,3,ok 2,2,1,1,ok", "n=3, k=1..3: 4**2"),
    "ge2": ("4,1,2,2,ok 4,2,1,1,ok 4,3,0,0,ok 4,4,0,0,ok "
            "5,1,3,3,ok 5,2,2,2,ok 5,3,0,0,ok 5,4,0,0,ok 5,5,0,0,ok", "n=6, k=1..6: 3**3"),
    "two_three": ("1,1,0,0,ok 2,1,1,1,ok 2,2,0,0,ok 3,1,1,1,ok 3,2,0,0,ok 3,3,0,0,ok",
                  "n=4, k=1..4: 3**3"),
}


@pytest.mark.parametrize("preset", BUDGET_CUTS)
def test_oracle_budget_cut_is_golden(capsys, preset):
    # the rows before the first space over the budget, then that row's line
    code, out, err = run(capsys, "oracle", "--preset", preset, "--m", "2", "--N", "8", "--budget", "9")
    rows, cut = BUDGET_CUTS[preset]
    assert code == 3
    assert out == "n,k,engine,oracle,match\n" + rows.replace(" ", "\n") + "\n"
    assert err == f"budget exceeded at {cut} words exceeds the budget 9\n"


def test_usage_errors(capsys):
    for argv in (
        ["transform", "--m", "1"],
        ["transform", "--preset", "ones"],
        ["transform", "--preset", "custom"],
        ["transform", "--preset", "ones", "--seed", "1,2", "--N", "3"],
        ["transform", "--seed", "1,2,x"],
        ["transform", "--preset", "nope", "--N", "3"],
        ["triangle", "--preset", "ones", "--N", "80"],
        ["triangle", "--preset", "ones", "--N", "4", "--format", "xml"],
        ["oracle", "--preset", "fib", "--seed", "1,1", "--N", "4"],
        ["oracle", "--preset", "custom", "--N", "4"],
        ["oracle", "--preset", "fib"],
        ["verify", "--suite", "nonexistent"],
        ["verify", "--max", "0"],
        ["verify", "--suite", "binomial", "--max", "0"],
        ["verify", "--suite", "row-sums", "--max", "65"],
        ["verify", "--suite", "pascal", "--max", "70"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
    assert "--max is capped at 64" in err
    for argv, message in (
        (["transform", "--preset", "ones", "--N", "0"], "--N must be at least 1"),
        (["transform", "--seed", "1,2", "--N", "-1"], "--N must be at least 1"),
        (["triangle", "--preset", "ones", "--N", "0"], "--N must be at least 1"),
        (["oracle", "--preset", "fib", "--N", "0"], "--N must be at least 1"),
        (["oracle", "--preset", "fib", "--m", "0", "--N", "4"], "--m must be at least 1"),
        (["oracle", "--preset", "ge2", "--N", "1"], "--N must be at least 4"),
        (["oracle", "--preset", "ge2", "--N", "3"], "--N must be at least 4"),
        (["oracle", "--preset", "fib", "--N", "4", "--budget", "-1"], "--budget must be at least 1"),
        (["oracle", "--preset", "fib", "--N", "4", "--budget", "0"], "--budget must be at least 1"),
        (["verify", "--budget", "0"], "--budget must be at least 1"),
        (["verify", "--max", "0"], "--max must be at least 1"),
        (["transform", "--seed", "1,2", "--N", "5"], "custom seed has 2 terms, 5 requested"),
        (["oracle", "--preset", "ones", "--m", "1", "--N", "64", "--budget", "100000000000000000000"],
         "--budget is capped at 1073741824"),
        (["verify", "--suite", "chebyshev", "--max", "64", "--budget", "100000000000000000000"],
         "--budget is capped at 1073741824"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and message in err
    # a custom seed longer than the order cap, with no --N, stops in the builders
    code, out, err = run(capsys, "triangle", "--seed", ",".join(["1"] * 65))
    assert (code, out) == (2, "")
    assert "exceeds the cap 64" in err


def test_transform_negative_m(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["transform", "--preset", "ones", "--m", "-1", "--N", "3"])
    assert exc.value.code == 2
    assert "--m must be at least 0" in capsys.readouterr().err


def test_triangle_depth_zero_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["triangle", "--preset", "ones", "--m", "0", "--N", "3"])
    assert exc.value.code == 2
    assert "--m must be at least 1" in capsys.readouterr().err


def test_transform_past_the_size_bound_exits_3(capsys):
    code, out, err = run(capsys, "transform", "--preset", "natural", "--N", "800", "--m", "1" + "0" * 30)
    assert (code, out) == (3, "")
    assert err.startswith("error: output-size bound exceeded: ")
    assert "the bound is 12000 bits per entry and 16777216 in all" in err


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        (["transform", "--seed", "1,2", "--N", "3"], "custom seed has 2 terms, 3 requested"),
        (["transform", "--seed=-1,2", "--N", "2"], "entries must be nonnegative integers, got -1"),
        (["oracle", "--preset", "ge2", "--N", "2"], "--N must be at least 4 with --preset ge2"),
    ],
)
def test_handler_errors_print_their_subcommand_usage(capsys, argv, message):
    # as flag-range errors do: the usage and error lines name the subcommand
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"usage: comptri {argv[0]} [-h]")
    assert err.endswith(f"comptri {argv[0]}: error: {message}\n")


@pytest.mark.parametrize(
    ("argv", "stdout"),
    [
        (("transform", "--preset", "ones", "--m", "99999999999", "--N", "1"), "1\n"),
        (("triangle", "--preset", "ones", "--m", "99999999999", "--N", "1"), "n,k,value\n1,1,1\n"),
        (("oracle", "--preset", "ones", "--m", "99999999999", "--N", "1"),
         "n,k,engine,oracle,match\n1,1,1,1,ok\n"),
        (("transform", "--seed", "5,0,7", "--m", "99999999999"),
         "5,2499999999975,1249999999975000000000132\n"),
    ],
)
def test_huge_depth_returns_at_once(argv, stdout):
    # a subprocess with a timeout, so work that grows with m fails here instead of hanging
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-m", "comptri.cli", *argv],
        env=env, capture_output=True, text=True, timeout=10,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, stdout, "")


STARTUP_CHECK = """
import argparse, contextlib, io, sys
# every ArgumentParser made, the subcommands' included
made = []
init = argparse.ArgumentParser.__init__
argparse.ArgumentParser.__init__ = lambda self, *a, **kw: made.append(1) or init(self, *a, **kw)
import comptri
from comptri import cli
at_import = len(made)
cli.build_parser()
per_build = len(made) - at_import
# the records are plain classes, and pickle, json and numpy are imported only by
# the calls that fork, print json and enumerate words, so startup loads none of them
report = [sorted({"dataclasses", "inspect", "json", "numpy", "pickle"} & set(sys.modules))]
# each argument is one command line split at its spaces, so reading them imports nothing
for line in sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(line.split())
    report.append([code, "numpy" in sys.modules, "json" in sys.modules])
# parsers made by the import, by one build_parser() and by all the main calls together
report.append([at_import, per_build, len(made) - at_import - per_build])
import json
print(json.dumps(report))
"""


def test_only_word_enumeration_imports_numpy():
    # a fresh interpreter, so nothing this test session imported counts
    lines = [
        "transform --preset fib --N 12",
        "triangle --preset natural --N 12 --m 2 --algo all",
        "triangle --preset fib --N 6 --format bfile",
        "verify --suite bell",
        "transform --preset fib --N 12 --format json",
        "oracle --preset fib --N 6",
    ]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-c", STARTUP_CHECK, *lines],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.stderr == ""
    # json is loaded by the --format json call and numpy by the oracle, each first there
    assert json.loads(proc.stdout) == [
        [],
        [0, False, False],
        [0, False, False],
        [0, False, False],
        [0, False, False],
        [0, False, True],
        [0, True, True],
        # the import builds nothing, and the six main calls share one parser
        [0, 5, 5],
    ]


def test_main_builds_one_parser_per_process(capsys, monkeypatch):
    built = []
    build_parser = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build_parser())
    monkeypatch.setattr(cli, "_parser", None)
    assert run(capsys, "transform", "--preset", "ones", "--N", "2") == (0, "1,2\n", "")
    with pytest.raises(SystemExit) as exc:
        main(["transform", "--preset", "ones", "--N", "0"])
    assert exc.value.code == 2
    assert run(capsys, "triangle", "--seed", ",".join(["1"] * 65))[0] == 2
    assert run(capsys, "oracle", "--preset", "fib", "--N", "2")[0] == 0
    assert built == [1]


def test_build_parser_returns_a_new_parser_each_call(capsys):
    run(capsys, "transform", "--preset", "ones", "--N", "1")
    edited = cli.build_parser()
    assert edited is not cli.build_parser()
    # an edit to a parser build_parser returned does not reach the one main parses with
    edited.add_argument("--extra")
    argv = ["--extra", "1", "transform", "--preset", "ones", "--N", "1"]
    assert edited.parse_args(argv).extra == "1"
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_verify_single_suite(capsys):
    code, out, err = run(capsys, "verify", "--suite", "chebyshev", "--max", "8")
    assert code == 0
    assert out.splitlines()[0].startswith("chebyshev:")
    assert out.splitlines()[-1].startswith("PASS:")
    assert err == ""


@pytest.mark.parametrize("path", BUILD_PATHS)
def test_verify_default_bounds_output(capsys, monkeypatch, path):
    path(monkeypatch)
    assert run(capsys, "verify") == (
        0,
        "row-sums: 1800 checks, 0 failures\n"
        "binomial: 894 checks, 0 failures\n"
        "bell: 6 checks, 0 failures\n"
        "pascal: 66 checks, 0 failures\n"
        "closed-forms: 3360 checks, 0 failures\n"
        "chebyshev: 64 checks, 0 failures\n"
        "word-binomial: 91 checks, 0 failures\n"
        "PASS: 6281 checks, 0 failures\n",
        "",
    )


@pytest.mark.parametrize("path", BUILD_PATHS)
def test_verify_all_suites_small(capsys, monkeypatch, path):
    path(monkeypatch)
    assert run(capsys, "verify", "--max", "6") == (
        0,
        "row-sums: 360 checks, 0 failures\n"
        "binomial: 105 checks, 0 failures\n"
        "bell: 6 checks, 0 failures\n"
        "pascal: 54 checks, 0 failures\n"
        "closed-forms: 336 checks, 0 failures\n"
        "chebyshev: 9 checks, 0 failures\n"
        "word-binomial: 15 checks, 0 failures\n"
        "PASS: 885 checks, 0 failures\n",
        "",
    )


@pytest.mark.parametrize("path", BUILD_PATHS)
def test_verify_stops_at_the_word_budget(capsys, monkeypatch, path):
    # chebyshev, a suite of this process, fails after the child's suites
    path(monkeypatch)
    assert run(capsys, "verify", "--max", "6", "--budget", "20") == (
        3,
        "row-sums: 360 checks, 0 failures\n"
        "binomial: 105 checks, 0 failures\n"
        "bell: 6 checks, 0 failures\n"
        "pascal: 54 checks, 0 failures\n"
        "closed-forms: 336 checks, 0 failures\n",
        "error: 3**3 words exceeds the budget 20\n",
    )
    assert_no_child_left()


# the sweep each suite runs first, by its name in comptri.verify
SUITE_SWEEPS = {
    "row-sums": "row_sums",
    "binomial": "binomial_identities",
    "bell": "bell_identity",
    "pascal": "pascal_relations",
    "closed-forms": "closed_forms",
    "chebyshev": "chebyshev",
    "word-binomial": "word_binomial",
}


def test_every_suite_has_its_sweep_and_every_forked_name_exists():
    assert list(SUITE_SWEEPS) == list(verify.suites())
    assert set(cli._CHILD_SUITES) < set(verify.suites())
    assert set(cli._CHILD_ROUTES) < set(ROUTES)


def raise_planted(*args):
    raise InternalConsistencyError("planted failure")


@pytest.mark.parametrize("suite", SUITE_SWEEPS)
def test_a_suite_failure_reads_as_in_process(capsys, monkeypatch, suite):
    monkeypatch.setattr(verify, SUITE_SWEEPS[suite], raise_planted)
    with monkeypatch.context() as inline:
        no_fork(inline)
        expected = run(capsys, "verify", "--max", "6")
    forked(monkeypatch)
    before = list(verify.suites()).index(suite)
    assert run(capsys, "verify", "--max", "6") == expected
    code, out, err = expected
    assert (code, err) == (2, "error: planted failure\n")
    assert [line.split(":")[0] for line in out.splitlines()] == list(verify.suites())[:before]
    assert_no_child_left()


def test_a_suite_child_that_sends_nothing_is_an_error(capsys, monkeypatch):
    def die(*args):
        os._exit(1)

    monkeypatch.setattr(verify, SUITE_SWEEPS[cli._CHILD_SUITES[-1]], die)
    forked(monkeypatch)
    assert run(capsys, "verify", "--max", "6") == (
        2, "", f"error: the process building {', '.join(cli._CHILD_SUITES)} sent no result\n",
    )
    assert_no_child_left()


@PLANTED_IN_PARENT
def test_a_parent_suite_failure_leaves_no_child(planted, code, stderr):
    # each child suite sends 200 kB of failures while row-sums fails here
    floods = [SUITE_SWEEPS[suite] for suite in cli._CHILD_SUITES]
    assert run_with_a_parent_failure(planted, ["verify", "--max", "6"], *floods) == (stderr, [code, False])


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--max", "1"],
        ["verify", "--suite", "chebyshev", "--max", "1"],
        ["verify", "--suite", "word-binomial", "--max", "1"],
    ],
)
def test_verify_refuses_a_cap_that_compares_nothing(capsys, argv):
    # chebyshev and word-binomial compare nothing below --max 2, so a PASS
    # there would count no check of theirs
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "--max must be at least 2: the " in err


def test_least_caps_match_the_sweeps():
    for name in verify.suites():
        least = verify.LEAST_CAP.get(name, 1)
        assert verify.suites(least)[name]().checks > 0
        if least > 1:
            assert verify.suites(least - 1)[name]().checks == 0


def test_verify_reports_failures(capsys, monkeypatch):
    monkeypatch.setattr(verify, "check_chebyshev", lambda n, k, budget: n != 2)
    assert run(capsys, "verify", "--suite", "chebyshev", "--max", "6") == (
        1,
        "chebyshev: 9 checks, 2 failures\nFAIL: 9 checks, 2 failures\n",
        "  chebyshev: Chebyshev coefficient check fails at n=2 k=1\n"
        "  chebyshev: Chebyshev coefficient check fails at n=2 k=2\n",
    )


INTS = st.sampled_from([*range(-2, 7), 99999999999]).map(str)
# "custom" is not a Preset, but --preset custom is the spelling that goes with --seed
PRESETS = st.sampled_from([*(p.value for p in Preset), "custom"])
SEEDS = st.lists(INTS, min_size=1, max_size=6).map(",".join)
FORMATS = st.sampled_from(("csv", "json", "bfile"))
# each subcommand's size flags are always passed, so no example runs at default bounds
COMMANDS = {
    "transform": (("--N",), {"--preset": PRESETS, "--seed": SEEDS, "--m": INTS, "--format": FORMATS}),
    "triangle": (
        ("--N",),
        {"--preset": PRESETS, "--seed": SEEDS, "--m": INTS, "--format": FORMATS,
         "--algo": st.sampled_from((*ROUTES, "all"))},
    ),
    "oracle": (("--N", "--budget"), {"--preset": PRESETS, "--m": INTS}),
    "verify": (("--max", "--budget"), {"--suite": st.sampled_from(sorted(verify.suites()))}),
}
JUNK = st.sampled_from(("junk", "--junk", "-", "--", "1,x", "--seed")) | st.text(max_size=3)


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    size_flags, flags = COMMANDS[command]
    argv = [command]
    for flag in size_flags:
        argv += [flag, draw(INTS)]
    # each other flag is passed two times in three, and a junk token one time in four
    for flag, values in flags.items():
        if draw(st.integers(0, 2)):
            argv += [flag, draw(values)]
    if not draw(st.integers(0, 3)):
        argv.insert(draw(st.integers(1, len(argv))), draw(JUNK))
    return argv


def outcome(argv, fresh=False):
    """(exit code, stdout, stderr) of main(argv), from a newly built parser if ``fresh``."""
    kept = cli._parser
    if fresh:
        cli._parser = cli.build_parser()
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        if fresh:
            cli._parser = kept
    return code, out.getvalue(), err.getvalue()


@settings(derandomize=True, max_examples=120, deadline=None)
@given(argvs())
def test_every_argv_ends_in_a_documented_exit_code(argv):
    # main's parser has parsed every earlier example, so state left by any would show
    result = outcome(argv)
    assert result[0] in (0, 1, 2, 3)
    assert outcome(argv, fresh=True) == result


@pytest.mark.parametrize(
    "argv",
    [
        ["-h"],
        *([command, "-h"] for command in sorted(COMMANDS)),
        ["oracle", "--preset", "fib", "--N", "65"],
        ["transform", "--seed", "-1,2"],
        ["triangle", "--preset", "ones", "--N", "3", "--algo"],
        ["nope"],
    ],
)
def test_a_reused_parser_reads_columns_when_it_formats(monkeypatch, argv):
    results = {}
    for columns in ("200", "40", "200"):
        monkeypatch.setenv("COLUMNS", columns)
        # a parse that completes comes first, so state it left would show
        assert outcome(["transform", "--preset", "ones", "--N", "1"]) == (0, "1\n", "")
        result = outcome(argv)
        assert result[0] == (0 if "-h" in argv else 2)
        assert outcome(argv, fresh=True) == result
        assert results.setdefault(columns, result) == result
    if "-h" in argv:
        # help is wrapped at the width set when it is printed
        assert results["200"] != results["40"]
