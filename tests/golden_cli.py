"""The golden CLI corpus: a fixed list of argvs and a digest of what each prints.

Run from the repository root to rewrite the corpus file after an intended
change of output:

    PYTHONPATH=src python3 tests/golden_cli.py

``golden_cli.json`` maps each argv, joined as a shell would quote it, to
the SHA-256 of its exit code, stdout and stderr; tests/test_golden_cli.py
recomputes every digest.  Each argv runs in process through
``comptri.cli.main``, with COLUMNS fixed so that argparse's usage lines do
not depend on the terminal.  Help text is left out.

No argv reaches exit code 1 while the routes and identities hold; that
code is pinned by the tests that inject a fault (tests/test_cli.py).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shlex
import sys
from pathlib import Path

from comptri import cli
from seeds import PRESETS

CORPUS = Path(__file__).resolve().parent / "golden_cli.json"
FORMATS = ("csv", "json", "bfile")
# zeros, f(1) = 0, and a 65-bit value
CUSTOM = "0,3,0," + str(2**65) + ",1,0,2"
SUITES = ("row-sums", "binomial", "bell", "pascal", "closed-forms", "chebyshev", "word-binomial")
# the largest N at m = 3 whose every row fits a budget of 2**22 words: the
# spaces of 4**11 (natural: 5**9) words span several 2**20-word chunks
MULTI_CHUNK_N = {"ones": 12, "fib": 12, "odd": 12, "natural": 10, "ge2": 14, "two_three": 12}


def argvs() -> list[list[str]]:
    out: list[list[str]] = []
    for preset in PRESETS:
        for m in (0, 1, 2):
            out.append(["transform", "--preset", preset, "--m", str(m), "--N", "13"])
        # the benchmark's long transforms, with the largest entries any preset prints
        out.append(["transform", "--preset", preset, "--N", "800", "--m", "3"])
        for m in (1, 2, 3):
            for n in (1, 7, 13):
                out.append(["triangle", "--preset", preset, "--m", str(m), "--N", str(n), "--algo", "all"])
        for m in (1, 2):
            out.append(["oracle", "--preset", preset, "--m", str(m), "--N", "6"])
        out.append(["oracle", "--preset", preset, "--m", "2", "--N", "8", "--budget", "9"])
        out.append(["oracle", "--preset", preset, "--m", "3", "--N", str(MULTI_CHUNK_N[preset]),
                    "--budget", "4194304"])
    for fmt in FORMATS:
        out.append(["transform", "--preset", "fib", "--m", "2", "--N", "9", "--format", fmt])
        out.append(["triangle", "--preset", "natural", "--m", "2", "--N", "6", "--format", fmt])
        out.append(["transform", "--seed", CUSTOM, "--m", "2", "--format", fmt])
        out.append(["triangle", "--seed", CUSTOM, "--m", "2", "--algo", "all", "--format", fmt])
    for algo in ("recurrence", "conv", "bell", "pascal"):
        out.append(["triangle", "--preset", "ge2", "--m", "3", "--N", "10", "--algo", algo])
    for m in (0, 1, 2):
        out.append(["transform", "--seed", CUSTOM, "--m", str(m)])
    for m in (1, 2, 3):
        out.append(["triangle", "--preset", "custom", "--seed", CUSTOM, "--m", str(m), "--algo", "all"])
    out.append(["triangle", "--seed", CUSTOM, "--N", "5", "--m", "4", "--algo", "conv"])
    out.append(["verify"])
    out.append(["verify", "--max", "6"])
    for suite in SUITES:
        out.append(["verify", "--suite", suite, "--max", "6"])
    # exit code 2: usage errors caught by argparse, then a library error
    out.append(["triangle", "--preset", "fib"])
    out.append(["triangle", "--preset", "ones", "--N", "80"])
    out.append(["transform", "--seed", "1,2", "--N", "5"])
    out.append(["verify", "--suite", "chebyshev", "--max", "1"])
    out.append(["triangle", "--seed", ",".join(["1"] * 65)])
    # exit code 3: an output-size bound, and an enumeration budget in verify
    out.append(["transform", "--preset", "natural", "--N", "1300", "--m", "1"])
    out.append(["verify", "--suite", "word-binomial", "--budget", "100"])
    return out


def digest(argv: list[str]) -> str:
    """SHA-256 of [exit code, stdout, stderr] of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    columns = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns
    text = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(text.encode()).hexdigest()


def main() -> int:
    corpus = {shlex.join(argv): digest(argv) for argv in argvs()}
    CORPUS.write_text(json.dumps(corpus, indent=1) + "\n")
    sys.stdout.write(f"wrote {len(corpus)} digests to {CORPUS}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
