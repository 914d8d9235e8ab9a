"""Command-line behavior: formats, determinism, exit codes."""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import comptri
from comptri import LowerTriangularMatrix, Preset, cli, triangle_bell, verify
from comptri.cli import main

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


def test_triangle_all_algorithms_agree(capsys):
    code_all, out_all, err = run(capsys, "triangle", "--preset", "odd", "--m", "3", "--N", "10", "--algo", "all")
    code_one, out_one, _ = run(capsys, "triangle", "--preset", "odd", "--m", "3", "--N", "10")
    assert code_all == 0 and err == ""
    assert out_all == out_one


def bell_plus_one(entries):
    """triangle_bell with 1 added to each (n, k) in ``entries``."""

    def build(seed, m, n):
        rows = [list(row) for row in triangle_bell(seed, m, n).rows]
        for i, j in entries:
            rows[i - 1][j - 1] += 1
        return LowerTriangularMatrix(tuple(map(tuple, rows)))

    return build


def test_triangle_disagreement_is_reported(capsys, monkeypatch):
    monkeypatch.setitem(cli._BUILDERS, "bell", bell_plus_one([(3, 2)]))
    assert run(capsys, "triangle", "--preset", "ones", "--m", "2", "--N", "4", "--algo", "all") == (
        1,
        "",
        "disagreement at n=3 k=2: recurrence=4 conv=4 bell=5 pascal=4\n"
        "1 disagreeing entries\n",
    )


def test_triangle_disagreement_lists_the_first_twenty(capsys, monkeypatch):
    every = [(i, j) for i in range(1, 8) for j in range(1, i + 1)]
    monkeypatch.setitem(cli._BUILDERS, "bell", bell_plus_one(every))
    code, out, err = run(capsys, "triangle", "--preset", "ones", "--m", "2", "--N", "7", "--algo", "all")
    lines = err.splitlines()
    assert (code, out, len(lines)) == (1, "", 21)
    assert lines[0] == "disagreement at n=1 k=1: recurrence=1 conv=1 bell=2 pascal=1"
    assert lines[19].startswith("disagreement at n=6 k=5: ")
    assert lines[20] == "28 disagreeing entries"


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
    oracle_row = cli.oracle_row

    def off_by_one(preset, m, n, budget):
        counts = list(oracle_row(preset, m, n, budget))
        if n == 4:
            counts[1] += 1
        return counts

    monkeypatch.setattr(cli, "oracle_row", off_by_one)
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
import contextlib, io, json, sys
import comptri
from comptri import cli
report = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    report.append([code, "numpy" in sys.modules])
print(json.dumps(report))
"""


def test_only_word_enumeration_imports_numpy():
    # a fresh interpreter, so nothing this test session imported counts
    argvs = [
        ["transform", "--preset", "fib", "--N", "12"],
        ["triangle", "--preset", "natural", "--N", "12", "--m", "2", "--algo", "all"],
        ["verify", "--suite", "bell"],
        ["oracle", "--preset", "fib", "--N", "6"],
    ]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-c", STARTUP_CHECK, json.dumps(argvs)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.stderr == ""
    assert json.loads(proc.stdout) == [[0, False], [0, False], [0, False], [0, True]]


def test_verify_single_suite(capsys):
    code, out, err = run(capsys, "verify", "--suite", "chebyshev", "--max", "8")
    assert code == 0
    assert out.splitlines()[0].startswith("chebyshev:")
    assert out.splitlines()[-1].startswith("PASS:")
    assert err == ""


def test_verify_default_bounds_output(capsys):
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


def test_verify_all_suites_small(capsys):
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
         "--algo": st.sampled_from(("recurrence", "conv", "bell", "pascal", "all"))},
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


@settings(derandomize=True, max_examples=120, deadline=None)
@given(argvs())
def test_every_argv_ends_in_a_documented_exit_code(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2, 3)
