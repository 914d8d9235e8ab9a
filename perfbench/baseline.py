"""Run the benchmark twice over ten seeds per workload and write perfbench/baseline.json.

From the repository root:

    python3 perfbench/baseline.py

Set A runs every workload of BENCHMARK.json untraced on seeds 1..10, then
set B on seeds 11..20, so the two sets are two runs of the same code.  For
each set and end-to-end metric the file records the values, their median
and quartiles, and the spread (q3 - q1) / median that BENCHMARK.json's
bound is compared with; for each metric it records how much worse set B's
median is than set A's, against the bound.  Traced runs on seeds 1 and 2
record the per-layer metrics, the layer shares measured beside those
predicted in workloads.PREDICTED, and which work counters differ between
the two seeds.  The file names the machine and the git commit measured.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
RUNS = 10
SETS = {"A": range(1, RUNS + 1), "B": range(RUNS + 1, 2 * RUNS + 1)}


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=600,
    )
    lines = proc.stdout.splitlines()
    return json.loads(lines[-1]), lines[:-1]


def machine() -> dict:
    model = platform.processor()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for text in cpuinfo.read_text().splitlines():
            if text.startswith("model name"):
                model = text.split(":", 1)[1].strip()
                break
    return {"nproc": os.cpu_count(), "cpu": model, "platform": platform.platform(),
            "python": platform.python_version()}


def git_sha() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except OSError:
        return "unknown"
    return proc.stdout.strip() or "unknown"


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(RUN.parent))
    import workloads

    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]
    results = {
        set_name: {name: [run(name, seed, seconds, 0) for seed in seeds] for name in names}
        for set_name, seeds in SETS.items()
    }
    doc = {"machine": machine(), "git_sha": git_sha(), "run_seconds": seconds,
           "seeds": {k: [v.start, v.stop - 1] for k, v in SETS.items()}, "workloads": {}}
    steady = True
    for name in names:
        sets = {k: {} for k in SETS}
        agreement = {}
        for metric in spec["end_to_end"]:
            m, bound = metric["name"], metric["bound"]
            for set_name in SETS:
                s = summary([r["metrics"][m]["value"] for r, _ in results[set_name][name]])
                sets[set_name][m] = s
                steady &= m == "setup_s" or s["spread"] <= bound
            a, b = sets["A"][m]["median"], sets["B"][m]["median"]
            worse = (b - a) / a if metric["better"] == "lower" else (a - b) / a
            agreement[m] = {"b_worse_than_a": worse, "bound": bound, "within": worse <= bound}
            steady &= worse <= bound
            print(f"{name:<8} {m:<12} median A {a:.6g} B {b:.6g} (B worse by {worse:+.4f}) "
                  f"spread A {sets['A'][m]['spread']:.4f} B {sets['B'][m]['spread']:.4f} "
                  f"(bound {bound})", flush=True)
        traced = [run(name, seed, seconds, 1) for seed in (1, 2)]
        layer = [{k: v["value"] for k, v in r["metrics"].items()} for r, _ in traced]
        counters = [m["name"] for m in spec["per_layer"] if m["unit"] in ("count", "bits")]
        shares = {}
        for label, num, den, predicted, _ in workloads.PREDICTED[name]:
            total = sum(layer[0][k] for k in den)
            measured = sum(layer[0][k] for k in num) / total if total else 0.0
            shares[label] = {"predicted": predicted, "measured": measured}
        every = [r for set_name in SETS for r, _ in results[set_name][name]]
        doc["workloads"][name] = {
            "correct": all(r["correct"] for r in every + [r for r, _ in traced]),
            "attempted": sum(r["attempted"] for r in every),
            "failed": sum(r["failed"] for r in every),
            "end_to_end": sets,
            "agreement": agreement,
            "report_seed1": results["A"][name][0][1],
            "report_seed2": results["A"][name][1][1],
            "per_layer_seed1": layer[0],
            "shares_seed1": shares,
            "counters_differing_between_seeds": [k for k in counters if layer[0][k] != layer[1][k]],
        }
    doc["within_bounds"] = steady
    (ROOT / "perfbench" / "baseline.json").write_text(json.dumps(doc, indent=1) + "\n")
    print("every spread and set B median within its bound" if steady
          else "some spread or set B median is outside its bound")
    return 0


if __name__ == "__main__":
    sys.exit(main())
