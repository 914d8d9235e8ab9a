"""comptri benchmark: one client drives ``comptri.cli.main`` in a closed loop.

Run from the repository root:

    python3 perfbench/run.py --workload oracle --seed 1 --seconds 30 --trace 0

The workloads (``oracle``, ``algebra``, ``verify``) are defined in
``workloads.py``.  A run first makes one untraced pass in a fresh
interpreter, which checks every output against independent references and
gives ``peak_rss_mb``.  In this process it then repeats the workload's
pass until ``--seconds`` have elapsed; every op here must print what it
printed in the fresh pass, byte for byte.  ``setup_s`` is the median of
fresh-interpreter samples taken before each pass.

Each op is followed by the workload's reference work
(``workloads.REFERENCE``): a fixed piece of work of the same kind as the
workload's own that calls no comptri code.  ``wall_ref`` is one pass's
time as a multiple of the reference's: the sum over the pass's ops of the
median of (op seconds / mean of the reference times just before and after
it).  On a shared host the speed of this work swings up to twofold within
a minute, and the op and the reference beside it slow together, so their
ratio holds steady where either time alone does not.  ``wall_s``, the sum
of each op's median seconds, and the workload's rates are printed in the
report lines.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json from
untraced passes; ``--trace 1`` alternates untraced and traced passes,
reports the per-layer metrics, checks that every traced pass counts the
same work, and writes every span to ``perfbench/out/``.  Human-readable
lines, with the workload-specific rates and ``fail_frac``, come first; the
last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_CODE = (
    "import time; t = time.perf_counter(); import comptri.cli; "
    "comptri.cli.build_parser(); print(time.perf_counter() - t)"
)
MIN_PASSES = 3


def timed(work) -> float:
    start = time.perf_counter()
    work()
    return time.perf_counter() - start


def setup_sample() -> float:
    """Seconds to import comptri.cli and build its parser in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=60,
    )
    return float(proc.stdout)


def call(cli, op) -> tuple[float, object, str]:
    """One CLI call: (seconds, exit code or None if it raised, stdout)."""
    out = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(list(op.argv))
    except (Exception, SystemExit):
        rc = None
    return time.perf_counter() - start, rc, out.getvalue()


def digest(rc, out: str) -> str:
    return f"{rc}:{hashlib.sha256(out.encode()).hexdigest()}"


def fresh_pass(workload: str, seed: int) -> None:
    """One untraced pass that keeps only what the check needs of each output.

    Run in a fresh interpreter, so its peak RSS is comptri's for one pass,
    as one CLI call after another would see it.  Prints one JSON object.
    """
    import workloads
    from comptri import cli

    ops, customs = workloads.make_ops(workload, seed)
    digests, summaries = [], []
    for op in ops:
        _, rc, out = call(cli, op)
        digests.append(digest(rc, out))
        summaries.append(workloads.summarize(op, rc, out))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    ok = workloads.check_pass(ops, summaries, customs)
    print(json.dumps({"peak_rss_mb": peak_rss_mb, "digests": digests, "ok": ok}))


def fresh_sample(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", "import run, sys; run.fresh_pass(sys.argv[1], int(sys.argv[2]))",
         workload, str(seed)],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(HERE)))),
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=120,
    )
    return json.loads(proc.stdout)


def run_pass(cli, ops, reference, tracer, first_op, deadline=math.inf):
    """Run the ops in turn, each followed by ``reference``; stop early once past ``deadline``.

    Returns per-op seconds, per-op seconds over the mean of the reference
    times just before and after the op, and a digest of each (exit code,
    stdout).
    """
    times, ratios, results = [], [], []
    ref = [timed(reference)]
    for i, op in enumerate(ops):
        if time.perf_counter() >= deadline:
            break
        tracer.op = first_op + i
        seconds, rc, out = call(cli, op)
        ref.append(timed(reference))
        times.append(seconds)
        ratios.append(2 * seconds / (ref[-2] + ref[-1]))
        results.append(digest(rc, out))
    return times, ratios, results


def op_medians(passes, column: int, n: int) -> list[float]:
    """Each op's median over passes of one column (0: seconds, 1: ratio); passes may be cut short."""
    samples = [[] for _ in range(n)]
    for p in passes:
        for i, v in enumerate(p[column]):
            samples[i].append(v)
    return [statistics.median(s) for s in samples]


def tail(samples):
    """(p, value) for the highest listed percentile with at least ten samples above it."""
    ordered = sorted(samples)
    best = None
    for p in (50, 75, 90, 95, 99, 99.9):
        rank = max(1, math.ceil(p / 100 * len(ordered)))
        if len(ordered) - rank >= 10:
            best = (p, ordered[rank - 1])
    return best


def line(name, unit, value, samples):
    """One metric: its value, then the median, top percentile and count of its samples."""
    hi = tail(samples)
    top = f"p{hi[0]:g} {hi[1]:.6g}" if hi else "no percentile has 10 samples above it"
    print(f"  {name:<22} {value:<13.6g} {unit:<4} samples: median {statistics.median(samples):.6g}, "
          f"{top}, n={len(samples)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("oracle", "algebra", "verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "comptri" / "cli.py").is_file():
        sys.stderr.write(f"error: no comptri sources under {SRC}; run from a repository checkout\n")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    from comptri import cli

    import workloads
    from spans import Tracer

    setup_sample()  # fills the page cache and __pycache__
    setup = [setup_sample(), setup_sample()]
    fresh = fresh_sample(args.workload, args.seed)
    ops, _ = workloads.make_ops(args.workload, args.seed)
    attempted, failed = len(ops), fresh["ok"].count(False)
    expected = [ok and d for ok, d in zip(fresh["ok"], fresh["digests"])]
    tracer = Tracer()
    pass_counts = []

    # The host's speed drifts within a run, so each timing is a median of
    # samples spread across it: setup_s takes one sample per pass, and a pass
    # time is the sum over its ops of each op's median.  Once MIN_PASSES
    # untraced passes are done, a pass may stop at the deadline mid-way.
    passes = {False: [], True: []}
    layer_times = []
    deadline = time.perf_counter() + args.seconds
    while True:
        setup.append(setup_sample())
        traced = args.trace == 1 and len(passes[False]) > len(passes[True])
        cut = args.trace == 0 and len(passes[False]) >= MIN_PASSES
        if traced:
            tracer.install()
        try:
            times, ratios, results = run_pass(cli, ops, workloads.REFERENCE[args.workload],
                                              tracer, attempted, deadline if cut else math.inf)
        finally:
            tracer.uninstall()
        attempted += len(results)
        failed += sum(res != ref for res, ref in zip(results, expected))
        passes[traced].append((times, ratios))
        if traced:
            layer, counts = tracer.take_pass()
            layer_times.append(layer)
            pass_counts.append(counts)
        done = len(passes[False]) >= MIN_PASSES
        if args.trace == 1:
            done = min(len(passes[False]), len(passes[True])) >= 2
        if done and time.perf_counter() >= deadline:
            break

    untraced = passes[False]
    full = [p for p in untraced if len(p[0]) == len(ops)]
    op_s = op_medians(untraced, 0, len(ops))
    wall_s, wall_ref = sum(op_s), sum(op_medians(untraced, 1, len(ops)))
    print(f"comptri benchmark: workload={args.workload} seed={args.seed} trace={args.trace} "
          f"ops/pass={len(ops)} passes={len(untraced) + len(passes[True])} "
          f"python={platform.python_version()} nproc={os.cpu_count()}")
    print("end-to-end (untraced passes; samples are whole passes):")
    line("setup_s", "s", statistics.median(setup), setup)
    line("wall_ref", "ref", wall_ref, [sum(p[1]) for p in full])
    line("wall_s", "s", wall_s, [sum(p[0]) for p in full])
    for kind, metric, size in workloads.RATES:
        mine = [i for i, op in enumerate(ops) if op.kind == kind]
        if mine:
            amount = sum(size(ops[i]) for i in mine)
            line(metric, "1/s", amount / sum(op_s[i] for i in mine),
                 [amount / sum(p[0][i] for i in mine) for p in full])
    peak_rss_mb = fresh["peak_rss_mb"]
    print(f"  {'peak_rss_mb':<22} {peak_rss_mb:<13.6g} MB   one untraced pass in a fresh process")
    print(f"  {'fail_frac':<22} {failed / attempted:<13.6g} 1    {failed} of {attempted} ops failed")

    values = {"setup_s": statistics.median(setup), "wall_ref": wall_ref, "peak_rss_mb": peak_rss_mb}
    counts_repeat = all(c == pass_counts[0] for c in pass_counts)
    metrics = spec["end_to_end"]
    if args.trace == 1:
        layer = {k: statistics.median(p[k] for p in layer_times) for k in layer_times[0]}
        traced_wall = sum(op_medians(passes[True], 0, len(ops)))
        traced_ref = sum(op_medians(passes[True], 1, len(ops)))
        values = {**pass_counts[0], **layer,
                  "trace.overhead_frac": traced_ref / wall_ref - 1}
        metrics = spec["per_layer"]
        print(f"per-layer (median of {len(layer_times)} traced passes, "
              f"traced wall_s {traced_wall:.6g} s; share = busy_s / traced wall_s):")
        for m in metrics:
            v = values.get(m["name"], 0)
            share = f"share {v / traced_wall:.3f}" if m["name"].endswith("busy_s") else ""
            print(f"  {m['name']:<40} {v:<14.6g} {m['unit']:<6} {share}")
        out_dir = ROOT / "perfbench" / "out"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
        with path.open("w") as fh:
            for op, sid, parent, name, t0, t1 in tracer.done:
                fh.write(json.dumps({"op": op, "id": sid, "parent": parent, "name": name,
                                     "start": t0, "end": t1}) + "\n")
        print(f"  {len(tracer.done)} spans written to {path.relative_to(ROOT)}")
        if not counts_repeat:
            print("  work counters differ between passes")
    result = {
        "correct": failed == 0 and counts_repeat,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in metrics
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
