"""End-to-end and per-layer benchmark of sharpdist.

    python3 perfbench/run.py --workload edge-sweep --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; sharpdist is imported from ``src/`` of
that checkout and nothing is installed.  Workloads (see ``workloads.py``):

- ``edge-sweep``: bounded, cutoff and broad-tail builds that refine to the
  4,194,305-point grid cap, and two-lump and spin-chain builds whose
  segments converge at 2,097,153 points;
- ``tail-sweep``: N-sweeps of stretched-exponential tails whose builds
  converge on 8,193 points;
- ``cli-export``: every CLI command, writing the CSV exports.

Each run imports sharpdist, generates the seed's inputs, and runs the
workload's item cycle as a closed loop (one caller, in one process on one
thread) in whole cycles until ``--seconds`` have passed.  Every item is
checked; a failed check counts against ``failed`` and its time is not a
success latency.  ``--trace 0`` reports the end-to-end metrics:
``setup_s``, the median of five set-ups (this process and four fresh
interpreters); ``items_per_s``, checked items per second of item time;
``item_ms.p50`` and ``item_ms.p_tail``, the median and the highest
percentile with ten items beyond it (the ``record`` line names that
percentile and the item count); ``peak_rss_mb``, with the item during
which it was reached named on the ``record`` line.  ``--trace
1`` runs untraced for half the time, then installs the per-layer spans of
``tracing.py`` and runs the other half; it reports the per-layer metrics
per cycle, so their counts repeat exactly at one seed, and the tracing
overhead.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

# pinned before numpy is imported, here and in the set-up probes
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

# Which temporaries are alive together, and so the peak RSS, depends on the
# str hash seed and on where the allocator's mappings land: one `fig1`
# export peaks at 309 or at 343-351 MB with those alone.  The benchmark
# re-executes itself once with one hash seed and, where the kernel offers
# it, without address randomization (a flag of this process, as in
# `setarch -R`), so that peak_rss_mb has one value per input.
HASH_SEED = "0"
ADDR_NO_RANDOMIZE = 0x0040000


def personality() -> int:
    """This process's execution domain flags, or -1 where there are none."""
    try:
        return ctypes.CDLL(None).personality(0xFFFFFFFF)
    except (OSError, AttributeError):
        return -1


if __name__ == "__main__":
    _reexec = os.environ.get("PYTHONHASHSEED") != HASH_SEED
    _persona = personality()
    if _persona != -1 and not _persona & ADDR_NO_RANDOMIZE:
        _reexec |= ctypes.CDLL(None).personality(_persona | ADDR_NO_RANDOMIZE) != -1
    if _reexec:
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, os.path.abspath(__file__)] + sys.argv[1:])

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"

WORKLOADS = ("edge-sweep", "tail-sweep", "cli-export")

# (name, unit) of every end-to-end metric the untraced run reports
END_TO_END = (
    ("setup_s", "s"),
    ("items_per_s", "1/s"),
    ("item_ms.p50", "ms"),
    ("item_ms.p_tail", "ms"),
    ("peak_rss_mb", "MB"),
)
SETUP_SAMPLES = 5   # set-ups per run: this process plus four probe processes
TAIL_BEYOND = 10    # items that must lie beyond the tail percentile


def setup(workload: str, seed: int):
    """Import sharpdist and generate the inputs; (items, seconds)."""
    t0 = time.perf_counter()
    import workloads
    items = workloads.make_items(workload, seed, WORKDIR)
    return items, time.perf_counter() - t0


def probe_setup(workload: str, seed: int) -> float:
    """Set-up time measured in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__)), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        capture_output=True, text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


@dataclass
class Loop:
    latencies: list = field(default_factory=list)  # seconds of each checked item
    busy: float = 0.0                              # seconds of every attempted item
    attempted: int = 0
    cycles: int = 0
    failures: list = field(default_factory=list)
    peak_rss_mb: float = 0.0
    peak_rss_item: str = ""                        # item during which the peak was reached

    @property
    def items_per_s(self) -> float:
        return len(self.latencies) / self.busy if self.busy > 0.0 else 0.0


def run_loop(items, seconds: float, tracer=None) -> Loop:
    """Closed loop over whole cycles of ``items`` until ``seconds`` have passed.

    Only ``item.run`` is timed; the checks and any tracing probes are not.
    """
    loop = Loop()
    start = time.perf_counter()
    while True:
        for item in items:
            loop.attempted += 1
            excluded = tracer.excluded if tracer else 0.0
            if tracer:
                tracer.active = True
            error = value = None
            t0 = time.perf_counter()
            try:
                value = item.run()
            except Exception as exc:  # a raising item is a failed item, not a failed run
                error = exc
            elapsed = time.perf_counter() - t0
            if tracer:
                tracer.active = False
                elapsed -= tracer.excluded - excluded
            loop.busy += elapsed
            if error is None:
                try:
                    item.check(value)
                except Exception as exc:  # CheckError, or output the check cannot read
                    error = exc
            value = None
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if rss_mb > loop.peak_rss_mb:
                loop.peak_rss_mb, loop.peak_rss_item = rss_mb, item.kind
            if error is None:
                loop.latencies.append(elapsed)
            else:
                loop.failures.append("%s: %s" % (item.kind, "".join(
                    traceback.format_exception_only(type(error), error)).strip()))
        loop.cycles += 1
        if time.perf_counter() - start >= seconds:
            return loop


def tail_percentile(latencies):
    """(percentile, value): the highest percentile with TAIL_BEYOND items beyond it."""
    ordered = sorted(latencies)
    index = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return 100.0 * (index + 1) / len(ordered), ordered[index]


def end_to_end(loop: Loop, setup_seconds):
    """(end-to-end metric values, percentile of item_ms.p_tail)."""
    if loop.latencies:
        pct, tail = tail_percentile(loop.latencies)
        p50 = statistics.median(loop.latencies)
    else:
        pct = tail = p50 = 0.0
    values = {
        "setup_s": statistics.median(setup_seconds),
        "items_per_s": loop.items_per_s,
        "item_ms.p50": 1e3 * p50,
        "item_ms.p_tail": 1e3 * tail,
        "peak_rss_mb": loop.peak_rss_mb,
    }
    return values, pct


def commit() -> str:
    try:
        out = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(workload: str, seed: int) -> dict:
    import numpy
    import scipy
    persona = personality()
    digest = hashlib.sha256()
    for path in sorted((SRC / "sharpdist").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "commit": commit(),
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "hash_seed": os.environ["PYTHONHASHSEED"],
        "address_randomization": None if persona == -1 else not persona & ADDR_NO_RANDOMIZE,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "sharpdist" / "__init__.py").is_file():
        print("error: no sharpdist sources under %s; run from a full checkout" % SRC,
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    items, own_setup = setup(args.workload, args.seed)
    import sharpdist
    if SRC not in Path(sharpdist.__file__).resolve().parents:
        print("error: imported %s, not the checkout's sources" % sharpdist.__file__,
              file=sys.stderr)
        return 2
    if args.setup_probe:
        print(repr(own_setup))
        return 0

    WORKDIR.mkdir(exist_ok=True)
    try:
        if args.trace:
            import tracing
            untraced = run_loop(items, args.seconds / 2.0)
            tracer = tracing.Tracer()
            tracing.install(tracer)
            traced = run_loop(items, args.seconds / 2.0, tracer)
            metrics = tracer.metrics(traced.cycles)
            metrics["trace.cycles"] = traced.cycles
            metrics["trace.items_per_s"] = traced.items_per_s
            metrics["trace.overhead_items_per_s"] = traced.items_per_s - untraced.items_per_s
            units = {name: unit for name, unit, _ in tracing.PER_LAYER}
            loops = (untraced, traced)
            record = {"untraced_items_per_s": untraced.items_per_s,
                      "span_cost_us": {key: 1e6 * value
                                       for key, value in tracer.cost.items()}}
        else:
            setups = [own_setup] + [probe_setup(args.workload, args.seed)
                                    for _ in range(SETUP_SAMPLES - 1)]
            loop = run_loop(items, args.seconds)
            metrics, pct = end_to_end(loop, setups)
            units = dict(END_TO_END)
            loops = (loop,)
            record = {"setup_samples_s": setups, "tail_percentile": pct,
                      "items": len(loop.latencies), "peak_rss_item": loop.peak_rss_item}
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)

    attempted = sum(loop.attempted for loop in loops)
    failures = [f for loop in loops for f in loop.failures]
    for failure in failures[:20]:
        print("FAILED %s" % failure, file=sys.stderr)
    record.update(environment(args.workload, args.seed), trace=args.trace,
                  seconds=args.seconds, attempted=attempted, failed=len(failures),
                  error_rate=len(failures) / attempted)

    print("%s seed=%d trace=%d: %d items attempted, %d failed, error_rate %g"
          % (args.workload, args.seed, args.trace, attempted, len(failures),
             record["error_rate"]))
    for name, value in metrics.items():
        note = ""
        if name == "item_ms.p_tail":
            note = "  (p%.2f of %d items)" % (record["tail_percentile"], record["items"])
        print("  %-40s %16.6g %s%s" % (name, value, units[name], note))
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
