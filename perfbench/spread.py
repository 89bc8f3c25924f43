"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 1-10
    python3 perfbench/spread.py --seeds 1 --trace 1
    python3 perfbench/spread.py --seeds 1-10 --trajectory "label"

Runs ``run.py`` once per workload of BENCHMARK.json and seed, one run at a
time, with its ``run_seconds``.  For each metric it prints the median, the
quartiles of ``statistics.quantiles(n=4)`` and their distance as a share of
the median, next to the metric's bound.
``--trajectory LABEL`` appends the runs and their summary to
``trajectory.json``, the history that performance claims quote.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRAJECTORY = HERE / "trajectory.json"


def parse_seeds(text: str):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise RuntimeError("%s seed %d exited %d:\n%s"
                           % (workload, seed, out.returncode, out.stderr))
    lines = out.stdout.strip().splitlines()
    record = next(json.loads(line[len("record "):]) for line in lines
                  if line.startswith("record "))
    return {"seed": seed, "result": json.loads(lines[-1]), "record": record}


def summarize(runs, bounds) -> dict:
    summary = {}
    for name in runs[0]["result"]["metrics"]:
        values = [run["result"]["metrics"][name]["value"] for run in runs]
        median = statistics.median(values)
        entry = {"unit": runs[0]["result"]["metrics"][name]["unit"], "median": median}
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
            entry.update(q1=q1, q3=q3, spread=(q3 - q1) / median if median else None)
        if name in bounds:
            entry["bound"] = bounds[name]
        summary[name] = entry
    return summary


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trajectory", metavar="LABEL", default=None)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {}
    for workload in (w["name"] for w in bench["workloads"]):
        runs = [run_once(workload, seed, bench["run_seconds"], args.trace)
                for seed in parse_seeds(args.seeds)]
        failed = sum(run["result"]["failed"] for run in runs)
        attempted = sum(run["result"]["attempted"] for run in runs)
        summary = summarize(runs, bounds)
        report[workload] = {"runs": runs, "summary": summary}
        print("%s: %d runs, %d of %d items failed" % (workload, len(runs), failed, attempted))
        for name, entry in summary.items():
            spread = entry.get("spread")
            print("  %-40s median %14.6g %-6s spread %8s  bound %s" % (
                name, entry["median"], entry["unit"],
                "-" if spread is None else "%.4f" % spread, entry.get("bound", "-")))

    if args.trajectory:
        history = json.loads(TRAJECTORY.read_text()) if TRAJECTORY.exists() else []
        first = next(iter(report.values()))["runs"][0]["record"]
        history.append({
            "label": args.trajectory,
            "date": time.strftime("%Y-%m-%d", time.gmtime()),
            "commit": first["commit"],
            "source_sha256": first["source_sha256"],
            "environment": {key: first[key] for key in
                            ("python", "numpy", "scipy", "nproc", "cpus_usable")},
            "seconds": bench["run_seconds"],
            "trace": args.trace,
            "workloads": report,
        })
        TRAJECTORY.write_text(json.dumps(history, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
