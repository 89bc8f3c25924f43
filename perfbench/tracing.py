"""Per-layer spans and counters for the traced benchmark run.

``install`` replaces the public entry points of each sharpdist module with
wrappers defined here, so every number comes from the benchmark's own
files and the library is unchanged.  A span is timed only while an item
runs (``Tracer.active``) and only at its outermost entry: a ``Lumps``
profile calling its sub-profiles counts as one call into ``profiles``.
Its self time is its duration minus that of the spans it encloses.  Both
are net of the tracer's own cost, which ``Tracer.calibrate`` measures on
empty spans before the traced items run.

Density and amplitude methods are replaced on their classes rather than
wrapped in proxies.  ``summarize`` and ``lump_mass_fractions`` dispatch on
the profile's class, and the CLI builds its models and profiles itself, so
only a class-level wrapper leaves every branch as in the untraced run and
still sees every object.

Two probes run untraced after each traced build, outside every span and
item time: a rebuild at ``max_points=initial_points`` (one level, no
refinement) times the window search, and one rebuild per distinct input
under ``tracemalloc`` gives the peak traced memory of a build.
"""

from __future__ import annotations

import contextlib
import statistics
import sys
import time
import tracemalloc
from dataclasses import replace
from functools import wraps

import numpy as np

import sharpdist as sd
import sharpdist.cli  # noqa: F401  (makes sd.cli available)

# (name, unit, better) of every per-layer metric the traced run reports
PER_LAYER = (
    ("dos.ln_density.calls", "count", "lower"),
    ("dos.ln_density.points", "count", "lower"),
    ("dos.ln_density.s", "s", "lower"),
    ("profiles.ln_amp_sq.calls", "count", "lower"),
    ("profiles.ln_amp_sq.points", "count", "lower"),
    ("profiles.ln_amp_sq.s", "s", "lower"),
    ("distribution.build.calls", "count", "lower"),
    ("distribution.build.s", "s", "lower"),
    ("distribution.build.self_s", "s", "lower"),
    ("distribution.window_search.s", "s", "lower"),
    ("distribution.refine.s", "s", "lower"),
    ("distribution.grid_points", "count", "lower"),
    ("distribution.segments", "count", "lower"),
    ("distribution.build.peak_traced_mb", "MB", "lower"),
    ("distribution.moments.s", "s", "lower"),
    ("distribution.peak.s", "s", "lower"),
    ("distribution.summarize.s", "s", "lower"),
    ("distribution.prediction.s", "s", "lower"),
    ("scaling.sweep.s", "s", "lower"),
    ("scaling.fit_power_law.s", "s", "lower"),
    ("oracle.prepare_state.s", "s", "lower"),
    ("oracle.compare_discrete_continuum.s", "s", "lower"),
    ("oracle.levels", "count", "lower"),
    ("csvio.write_csv.s", "s", "lower"),
    ("csvio.rows", "count", "lower"),
    ("csvio.bytes", "count", "lower"),
    ("cli.main.s", "s", "lower"),
    ("trace.cycles", "count", "higher"),
    ("trace.items_per_s", "1/s", "higher"),
    ("trace.overhead_items_per_s", "1/s", "higher"),
)

# per-layer metrics that must repeat exactly across runs at one seed
COUNTS = tuple(name for name, unit, _ in PER_LAYER
               if unit == "count" and not name.startswith("trace."))


CALIBRATION_CALLS = 20000  # spans timed per calibration sample
CALIBRATION_SAMPLES = 7


class _Empty:
    def ln_density(self, energy):
        return energy


class Tracer:
    """Span totals and counters, kept in memory for one run.

    A span costs time of its own: the wrapper call, two clock reads and the
    bookkeeping.  ``calibrate`` measures that cost on empty spans, and each
    span's seconds are recorded net of it, for the span itself and for
    every span and re-entrant call it encloses.  Without this, the cost of
    about 21,000 scalar density and amplitude spans per tail-sweep cycle
    would read as time spent in those layers.
    """

    def __init__(self):
        self.active = False
        self.spans = {}      # name -> [calls, seconds, self seconds, points]
        self.counts = {}     # counter name -> total
        self.peak_mb = 0.0
        self.excluded = 0.0  # probe seconds, taken out of every open span
        # seconds of one span: seen from outside it, inside its own clock
        # reads, and of a re-entrant call that is passed through
        self.cost = {"outer": 0.0, "inner": 0.0, "reentrant": 0.0}
        self._stack = []     # open spans: [name, net seconds of enclosed spans, overhead]
        self._open = set()   # names on the stack
        self._peak_by_input = {}

    def count(self, name, value):
        self.counts[name] = self.counts.get(name, 0) + value

    def span(self, name, fn, args, kwargs, points=0):
        """Call ``fn`` inside span ``name``; (result, whether it was counted)."""
        if not self.active:
            return fn(*args, **kwargs), False
        if name in self._open:
            self._stack[-1][2] += self.cost["reentrant"]
            return fn(*args, **kwargs), False
        frame = [name, 0.0, 0.0]
        self._stack.append(frame)
        self._open.add(name)
        excluded0, t0 = self.excluded, time.perf_counter()
        try:
            return fn(*args, **kwargs), True
        finally:
            seconds = (time.perf_counter() - t0 - (self.excluded - excluded0)
                       - self.cost["inner"] - frame[2])
            self._stack.pop()
            self._open.discard(name)
            if self._stack:
                self._stack[-1][1] += seconds
                self._stack[-1][2] += frame[2] + self.cost["outer"]
            totals = self.spans.get(name)
            if totals is None:
                totals = self.spans[name] = [0, 0.0, 0.0, 0]
            totals[0] += 1
            totals[1] += seconds
            totals[2] += seconds - frame[1]
            totals[3] += points

    def calibrate(self):
        """Measure ``cost`` as the median over samples of empty spans."""
        empty = _Empty()
        bare = _Empty.ln_density
        traced = _method_span(self, "calibration", bare)

        def timed(method):
            t0 = time.perf_counter()
            for _ in range(CALIBRATION_CALLS):
                method(empty, 1.0)
            return time.perf_counter() - t0

        samples = {key: [] for key in self.cost}
        self.active = True
        try:
            for _ in range(CALIBRATION_SAMPLES):
                t_bare = timed(bare)
                self.spans = {}
                # inside an open span, as the density spans of a build are
                t_traced = self.span("calibration.parent", timed, (traced,), {})[0]
                t_inner = self.spans["calibration"][1]
                t_reentrant = self.span("calibration", timed, (traced,), {})[0]
                samples["outer"].append((t_traced - t_bare) / CALIBRATION_CALLS)
                samples["inner"].append(t_inner / CALIBRATION_CALLS)
                samples["reentrant"].append((t_reentrant - t_bare) / CALIBRATION_CALLS)
        finally:
            self.active = False
            self.spans, self._stack, self._open = {}, [], set()
        self.cost = {key: statistics.median(values) for key, values in samples.items()}

    @contextlib.contextmanager
    def probe(self):
        """Run extra work untraced, its time excluded from every open span."""
        active = self.active
        self.active = False
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.active = active
            self.excluded += time.perf_counter() - t0

    def probe_build(self, build, model, profile, policy):
        one_level = replace(policy, max_points=policy.initial_points)
        with self.probe():
            t0 = time.perf_counter()
            build(model, profile, one_level)
            self.count("distribution.window_search.s", time.perf_counter() - t0)
        key = (repr(model), repr(profile), policy)
        if key not in self._peak_by_input:
            with self.probe():
                tracemalloc.start()
                try:
                    build(model, profile, policy)
                    self._peak_by_input[key] = tracemalloc.get_traced_memory()[1] / 2**20
                finally:
                    tracemalloc.stop()
        self.peak_mb = max(self.peak_mb, self._peak_by_input[key])

    def metrics(self, cycles: int):
        """Per-layer metrics per workload cycle; a layer never entered reads 0.

        Every cycle does the same work, so a count divided by the number of
        cycles is exact.  The peak memory is a maximum and is not divided.
        """
        totals = dict(self.counts)
        for name, (calls, seconds, self_seconds, points) in self.spans.items():
            totals.update({name + ".calls": calls, name + ".s": seconds,
                           name + ".self_s": self_seconds, name + ".points": points})
        out = {name: totals.get(name, 0) / cycles for name, _, _ in PER_LAYER}
        out["distribution.refine.s"] = (out["distribution.build.s"]
                                        - out["distribution.window_search.s"])
        out["distribution.build.peak_traced_mb"] = self.peak_mb
        return out


def _replace_everywhere(original, replacement):
    """Rebind ``original`` in every sharpdist module that imported it by name."""
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").split(".")[0] != "sharpdist":
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)


def _function_span(tracer, name, fn):
    @wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.span(name, fn, args, kwargs)[0]
    return wrapper


def _method_span(tracer, name, method):
    @wraps(method)
    def wrapper(self, energy):
        if not tracer.active:
            return method(self, energy)
        return tracer.span(name, method, (self, energy), {}, points=np.size(energy))[0]
    return wrapper


def install(tracer: Tracer) -> None:
    """Calibrate ``tracer`` and route every traced sharpdist entry point through it."""
    tracer.calibrate()
    for cls in (sd.IdealGas, sd.IsingChain, sd.CustomEntropy):
        cls.ln_density = _method_span(tracer, "dos.ln_density", cls.__dict__["ln_density"])
    for cls in sd.profiles.profile_classes().values():
        cls.ln_amp_sq = _method_span(tracer, "profiles.ln_amp_sq", cls.__dict__["ln_amp_sq"])

    build = sd.distribution.build_distribution

    @wraps(build)
    def build_distribution(model, profile, policy=sd.DEFAULT_POLICY):
        dist, counted = tracer.span("distribution.build", build, (model, profile, policy), {})
        if counted:
            tracer.count("distribution.grid_points", dist.grid.size)
            tracer.count("distribution.segments", len(dist.segments))
            tracer.probe_build(build, model, profile, policy)
        return dist

    _replace_everywhere(build, build_distribution)

    write_csv = sd.csvio.write_csv

    @wraps(write_csv)
    def write_csv_traced(path, columns, rows, *args, **kwargs):
        if not tracer.active:
            return write_csv(path, columns, rows, *args, **kwargs)
        counted_rows = [0]

        def counting(rows):
            for row in rows:
                counted_rows[0] += 1
                yield row

        out, counted = tracer.span("csvio.write_csv", write_csv,
                                   (path, columns, counting(rows)) + args, kwargs)
        if counted:
            tracer.count("csvio.rows", counted_rows[0])
            tracer.count("csvio.bytes", out.stat().st_size)
        return out

    # cli binds write_csv at import, so it is rebound there as well
    _replace_everywhere(write_csv, write_csv_traced)

    prepare_state = sd.oracle.prepare_state

    @wraps(prepare_state)
    def prepare_state_traced(spectrum, *args, **kwargs):
        state, counted = tracer.span("oracle.prepare_state", prepare_state,
                                     (spectrum,) + args, kwargs)
        if counted:
            tracer.count("oracle.levels", len(spectrum))
        return state

    _replace_everywhere(prepare_state, prepare_state_traced)

    for name, fn in (
            ("distribution.moments", sd.distribution.moments),
            ("distribution.peak", sd.distribution.peak),
            ("distribution.summarize", sd.distribution.summarize),
            ("distribution.prediction", sd.distribution.tail_profile_prediction),
            ("distribution.prediction", sd.distribution.bounded_profile_prediction),
            ("scaling.sweep", sd.scaling.sweep),
            ("scaling.sweep", sd.scaling.sweep_point),
            ("scaling.fit_power_law", sd.scaling.fit_power_law),
            ("oracle.compare_discrete_continuum", sd.oracle.compare_discrete_continuum),
            ("cli.main", sd.cli.main)):
        _replace_everywhere(fn, _function_span(tracer, name, fn))
