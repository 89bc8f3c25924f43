"""Self-test of the benchmark: output contract and count repeatability.

    python3 perfbench/selftest.py

For every workload it runs ``run.py`` once untraced and twice traced at one
seed, with a short ``--seconds`` (runs are whole cycles, so counts do not
depend on it), and checks that

- no item failed and the last line carries exactly the end-to-end or
  per-layer metrics of BENCHMARK.json, with their units;
- every per-layer count (calls, points, grid points, segments, oracle
  levels, CSV rows and bytes) is identical in the two traced runs.

It also checks that a copy holding only BENCHMARK.json and ``perfbench/``
exits non-zero without printing a result.  Exits 1 when a check fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7
SECONDS = "2"

sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))
import tracing  # noqa: E402


def run(workload, trace, root=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", SECONDS, "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=600)


def result(workload, trace, expected):
    out = run(workload, trace)
    if out.returncode != 0:
        raise AssertionError("%s trace=%d exited %d: %s"
                             % (workload, trace, out.returncode, out.stderr))
    last = json.loads(out.stdout.strip().splitlines()[-1])
    if sorted(last) != ["attempted", "correct", "failed", "metrics"]:
        raise AssertionError("%s: result keys %s" % (workload, sorted(last)))
    if not last["correct"] or last["failed"] or last["attempted"] < 1:
        raise AssertionError("%s trace=%d: %d of %d items failed: %s"
                             % (workload, trace, last["failed"], last["attempted"], out.stderr))
    units = {name: entry["unit"] for name, entry in last["metrics"].items()}
    if units != expected:
        raise AssertionError("%s trace=%d: metrics %s, expected %s"
                             % (workload, trace, units, expected))
    return {name: entry["value"] for name, entry in last["metrics"].items()}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    failures = []
    for workload in (w["name"] for w in bench["workloads"]):
        try:
            result(workload, 0, end_to_end)
            first = result(workload, 1, per_layer)
            second = result(workload, 1, per_layer)
            differ = {name: (first[name], second[name]) for name in tracing.COUNTS
                      if first[name] != second[name]}
            if differ:
                raise AssertionError("%s: counts differ between traced runs: %s"
                                     % (workload, differ))
            print("PASS %s: metrics match BENCHMARK.json; %d counts repeat exactly"
                  % (workload, len(tracing.COUNTS)))
        except AssertionError as exc:
            failures.append(str(exc))
            print("FAIL %s" % exc)

    bare = ROOT / ".perfbench_selftest"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir()
        shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        out = run(bench["workloads"][0]["name"], 0, root=bare)
        if out.returncode == 0 or out.stdout.strip():
            failures.append("a copy without sources exited %d and printed %r"
                            % (out.returncode, out.stdout[-200:]))
            print("FAIL %s" % failures[-1])
        else:
            print("PASS a copy without sources exits %d without a result" % out.returncode)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
