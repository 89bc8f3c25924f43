"""Workload inputs, items and output checks for the sharpdist benchmark.

A workload is a cycle of items that the benchmark runs as a closed loop:
one caller, and the next item starts when the previous one has finished.
The seed picks every system size, tail exponent and phase seed; the library
only ever receives the generated models, profiles and command lines.

An item is a pair of callables.  ``run`` is the timed library work and
returns whatever ``check`` needs; ``check`` raises ``CheckError`` when an
output is wrong.  Every library call goes through a module attribute
(``sd.moments``, ``sd_cli.main``) so that the traced run, which replaces
those attributes, sees it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import random
import shutil
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import sharpdist as sd
import sharpdist.cli as sd_cli

# acceptance tolerances of the library's own test suite
MOMENT_TOL = 1e-6
RESIDUAL_TOL = 1e-9
BOUNDED_BAND = (1.00, 0.05)
BOUNDED_R2 = 0.999
TAIL_BAND = (0.50, 0.02)
DISCRETE_TOL = 1e-2
LUMP_TOL = 1e-6
BROAD_RATIO = 0.2


class CheckError(Exception):
    """An item produced a wrong output."""


@dataclass
class Item:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], None]


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def require_close(value: float, ref: float, tol: float, what: str) -> None:
    rel = abs(value - ref) / abs(ref)
    require(rel <= tol, "%s: %r vs closed form %r (rel err %.3g > %g)"
            % (what, value, ref, rel, tol))


# closed forms, the same formulas as the library's test oracles

def monomial_window_moments(p: Fraction):
    """Mean and width of the density E**p on [0, 1], in exact rationals."""
    mean = (p + 1) / (p + 2)
    var = (p + 1) / ((p + 3) * (p + 2) ** 2)
    return float(mean), math.sqrt(float(var))


def gamma_moments(shape: float, scale: float):
    return shape * scale, math.sqrt(shape) * scale


def two_lump_lower_fraction(p: int, lumps):
    masses = [(Fraction(hi) ** (p + 1) - Fraction(lo) ** (p + 1)) / (p + 1)
              for lo, hi in lumps]
    return float(masses[0] / sum(masses))


def strata_sizes(rng: random.Random, count: int, lo_decade=2.0, hi_decade=4.0):
    """One log-uniform size per equal slice of [1e2, 1e4], so a fit always spans it."""
    width = (hi_decade - lo_decade) / count
    return sorted({int(round(10.0 ** (lo_decade + width * (i + rng.random()))))
                   for i in range(count)})


# library items: build_distribution + moments + summarize

@dataclass
class Built:
    dist: object
    mean: float
    width: float
    summary: object
    prediction: object = None
    fit: object = None


def build_item(model, profile, prediction=False) -> Built:
    dist = sd.build_distribution(model, profile)
    mean, width = sd.moments(dist)
    summary = sd.summarize(dist)
    pred = sd.tail_profile_prediction(model, profile) if prediction else None
    return Built(dist, mean, width, summary, pred)


def check_built(out: Built) -> None:
    residual = out.dist.normalization_residual()
    require(residual < RESIDUAL_TOL, "normalization residual %.3g" % residual)
    require(math.isfinite(out.mean) and out.width > 0.0,
            "moments (%r, %r) not finite and positive" % (out.mean, out.width))


def check_fit(label, fit, band, min_r2=None) -> None:
    center, half = band
    require(abs(fit.kappa - center) <= half, "%s fit exponent %.4f outside %.2f+-%.2f"
            % (label, fit.kappa, center, half))
    if min_r2 is not None:
        require(fit.r_squared > min_r2, "%s fit r2 %.6f <= %g" % (label, fit.r_squared, min_r2))


def record(n, out: Built):
    return sd.SweepRecord(n, out.mean, out.width, out.width / out.mean)


class BoundedSweep:
    """One item per size, whose records end in one fit_power_law.

    The last item of the group fits the records that the group's items
    produced in the current cycle, inside its own timed region, and its
    check holds the fit to the bounded-profile band.
    """

    def __init__(self, label, sizes, make, check_one):
        self.label = label
        self.records = []
        self.items = []
        for i, n in enumerate(sizes):
            model, profile = make(n)
            last = i == len(sizes) - 1
            self.items.append(Item("%s N=%d" % (label, n),
                                   self._runner(n, model, profile, i == 0, last),
                                   self._checker(n, check_one, last)))

    def _runner(self, n, model, profile, first, last):
        def run():
            if first:
                self.records = []
            out = build_item(model, profile)
            self.records.append(record(n, out))
            if last:
                out.fit = sd.fit_power_law(self.records)
            return out
        return run

    def _checker(self, n, check_one, last):
        def check(out):
            check_built(out)
            check_one(n, out)
            if last:
                check_fit(self.label, out.fit, BOUNDED_BAND, BOUNDED_R2)
        return check


def _single(kind, model, profile, check_one) -> Item:
    def check(out):
        check_built(out)
        check_one(out)
    return Item(kind, lambda: build_item(model, profile), check)


def edge_sweep(rng: random.Random, workdir: Path):
    """Builds that refine far: bounded, cutoff and broad-tail builds to the
    4,194,305-point cap, two-lump and spin-chain segments to 2,097,153 points."""
    def uniform(n):
        return sd.IdealGas(n), sd.UniformWindow(0.0, 1.0)

    def check_uniform(n, out):
        ref_mean, ref_width = monomial_window_moments(Fraction(3 * n, 2))
        require_close(out.mean, ref_mean, MOMENT_TOL, "UniformWindow N=%d mean" % n)
        require_close(out.width, ref_width, MOMENT_TOL, "UniformWindow N=%d width" % n)

    def cutoff(n):
        return sd.IdealGas(n), sd.AlgebraicCutoff(0.3, 1.0, 2.0)

    def check_cutoff(out):
        require(0.0 < out.mean < 1.0, "AlgebraicCutoff mean %r outside (0, 1)" % out.mean)
        require(out.summary.mean_pred is not None, "no edge prediction for AlgebraicCutoff")

    uniform_group = BoundedSweep("UniformWindow", strata_sizes(rng, 4), uniform, check_uniform)
    cutoff_items = [_single("AlgebraicCutoff N=%d" % n, *cutoff(n), check_cutoff)
                    for n in strata_sizes(rng, 4)]

    lump_intervals = [(0.0, 0.5), (0.8, 1.0)]
    lower_ref = two_lump_lower_fraction(150, lump_intervals)

    def check_lumps(out):
        lower = sd.lump_mass_fractions(out.dist)[0]
        require_close(lower, lower_ref, LUMP_TOL, "two-lump lower mass")

    # the discrete-vs-continuum pair of the library's acceptance criterion 8
    band = 999.0
    ising_model = sd.IsingChain(1000, 1.0)
    ising_profile = sd.ExponentialCutoff(e0=-0.5 * band, e1=0.15 * band, gamma_exp=2.0,
                                         e_max=-0.2 * band)
    discrete = {}

    def check_ising(out):
        if not discrete:
            state = sd.prepare_state(sd.ising_chain_spectrum(1000, 1.0), ising_profile)
            discrete["moments"] = sd.state_moments(state)
        mean_d, width_d = discrete["moments"]
        require_close(out.mean, mean_d, DISCRETE_TOL, "IsingChain continuum mean")
        require_close(out.width, width_d, DISCRETE_TOL, "IsingChain continuum width")

    # eta = 3N/2 + 3 is the broad regime of acceptance criterion 6; its kink at
    # e_ref keeps the build on the grid cap like the bounded profiles
    n_broad = strata_sizes(rng, 1)[0]

    def check_broad(out):
        ratio = out.width / out.mean
        require(ratio > BROAD_RATIO, "AlgebraicTail ratio %.4g not broad" % ratio)

    return (uniform_group.items + cutoff_items + [
        _single("Lumps N=100", sd.IdealGas(100), sd.Lumps.uniform(lump_intervals), check_lumps),
        _single("IsingChain N=1000", ising_model, ising_profile, check_ising),
        _single("AlgebraicTail N=%d" % n_broad, sd.IdealGas(n_broad),
                sd.AlgebraicTail(decay=1.5 * n_broad + 3.0, e_ref=1.0), check_broad),
    ])


def tail_sweep(rng: random.Random, workdir: Path):
    """Stretched-exponential tails: every build converges on 8,193 points.

    One item is an N-sweep of width/mean: eight seed-drawn sizes, each built
    with its moments, summary and saddle-point prediction, then one fit.
    Items of a single 4 ms build would leave the tail percentile to host
    scheduling stalls.
    """
    items = []
    for scaling in sd.DELTA_SCALINGS:
        for kappa in (1.0, rng.uniform(1.0, 3.0)):
            label = "ExponentialTail[%s, kappa=%.4f]" % (scaling, kappa)
            builder = sd.exponential_tail_builder(kappa, scaling)
            inputs = [(n,) + builder(n) for n in strata_sizes(rng, 8)]

            def run(inputs=inputs):
                outs = [build_item(model, profile, prediction=True)
                        for _, model, profile in inputs]
                fit = sd.fit_power_law([record(n, out) for (n, _, _), out in zip(inputs, outs)])
                return outs, fit

            def check(value, inputs=inputs, kappa=kappa, label=label):
                outs, fit = value
                for (n, _, profile), out in zip(inputs, outs):
                    check_built(out)
                    require_close(out.summary.peak_energy, out.prediction.mean, MOMENT_TOL,
                                  "%s N=%d saddle-point peak" % (label, n))
                    require_close(out.width, out.prediction.width, 0.05,
                                  "%s N=%d curvature width" % (label, n))
                    if kappa == 1.0:
                        ref_mean, ref_width = gamma_moments(1.5 * n + 1.0, profile.delta)
                        what = "%s N=%d Gamma" % (label, n)
                        require_close(out.mean, ref_mean, MOMENT_TOL, what + " mean")
                        require_close(out.width, ref_width, MOMENT_TOL, what + " width")
                check_fit(label, fit, TAIL_BAND)

            items.append(Item(label, run, check))
    return items


# cli-export: in-process sharpdist.cli.main into a fresh directory per item

def read_csv(path: Path):
    """(comments, header, first data row) of one of the CLI's CSV files."""
    comments, rows = [], []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            comments.append(line[2:])
        else:
            rows.append(line.split(","))
    return comments, rows[0], dict(zip(rows[0], rows[1])) if len(rows) > 1 else {}


@dataclass
class CliResult:
    code: int
    out_dir: Path
    stdout: str
    stderr: str


class CliItem:
    """One command line; its files must match the first run of the same line."""

    def __init__(self, workdir: Path, argv, code, files, check_output):
        self.workdir, self.argv, self.code = workdir, list(argv), code
        self.files, self.check_output = tuple(files), check_output
        self.digests = None

    def run(self) -> CliResult:
        out_dir = Path(tempfile.mkdtemp(dir=self.workdir))
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = sd_cli.main(self.argv + ["--out", str(out_dir)])
        return CliResult(code, out_dir, stdout.getvalue(), stderr.getvalue())

    def check(self, res: CliResult) -> None:
        try:
            require(res.code == self.code, "%s exited %r, expected %r (stderr: %s)"
                    % (" ".join(self.argv), res.code, self.code, res.stderr.strip()))
            names = sorted(p.name for p in res.out_dir.iterdir())
            require(names == sorted(self.files), "%s wrote %s, expected %s"
                    % (" ".join(self.argv), names, sorted(self.files)))
            digests = {n: hashlib.sha256((res.out_dir / n).read_bytes()).hexdigest()
                       for n in names}
            self.check_output(res)
            if self.digests is None:
                self.digests = digests
            require(digests == self.digests,
                    "%s: files differ from the first identical run" % " ".join(self.argv))
        finally:
            shutil.rmtree(res.out_dir, ignore_errors=True)

    def item(self) -> Item:
        return Item(" ".join(self.argv), self.run, self.check)


def cli_export(rng: random.Random, workdir: Path):
    """Every CLI command once per cycle, including the CSV exports of W(E).

    Seven exponential-tail ``dist`` exports, each CSV-bound, make up the
    middle of the latency distribution, so ``item_ms.p50`` follows CSV
    writing.  Three full-grid ``dist`` exports hold the tail percentile
    for any run of 3 to 10 cycles, so it does not jump to another command
    when the run completes a cycle more or less.
    """
    phase_seed = rng.randrange(1 << 31)
    sweep_kappa = rng.uniform(1.0, 3.0)

    def dist_window(n):
        def check(res):
            _, _, row = read_csv(res.out_dir / "summary.csv")
            ref_mean, ref_width = monomial_window_moments(Fraction(3 * n, 2))
            require_close(float(row["E_mean"]), ref_mean, MOMENT_TOL, "dist N=%d mean" % n)
            require_close(float(row["dE"]), ref_width, MOMENT_TOL, "dist N=%d width" % n)
        return check

    def dist_tail(n):
        def check(res):
            _, _, row = read_csv(res.out_dir / "summary.csv")
            ref_mean, ref_width = gamma_moments(1.5 * n + 1.0, 1.0)
            require_close(float(row["E_mean"]), ref_mean, MOMENT_TOL, "dist tail N=%d mean" % n)
            require_close(float(row["dE"]), ref_width, MOMENT_TOL, "dist tail N=%d width" % n)
        return check

    def fig1(res):
        fractions = [line for line in res.stdout.splitlines()
                     if line.startswith("lump_fractions=")]
        require(len(fractions) == 1, "fig1 printed no lump fractions")
        lower = float(fractions[0].split("=", 1)[1].split(",")[0])
        require_close(lower, two_lump_lower_fraction(150, [(0.0, 0.5), (0.8, 1.0)]),
                      LUMP_TOL, "fig1 lower lump mass")

    def oracle(res):
        _, _, row = read_csv(res.out_dir / "comparison.csv")
        for key in ("mean_rel_diff", "dE_rel_diff"):
            require(float(row[key]) < DISCRETE_TOL, "oracle %s = %s" % (key, row[key]))

    def outcome(expected):
        def check(res):
            _, _, row = read_csv(res.out_dir / "failure_report.csv")
            require(row["outcome"] == expected,
                    "failure-demo outcome %r, expected %r" % (row["outcome"], expected))
        return check

    def diverges(res):
        require("DivergenceError" in res.stderr, "no DivergenceError reported on stderr")

    def scaling(res):
        comments, _, _ = read_csv(res.out_dir / "sweep.csv")
        fit = [c for c in comments if c.startswith("kappa=")]
        require(len(fit) == 1, "sweep.csv carries no fit line")
        kappa = float(fit[0].split(",")[0].split("=")[1])
        center, half = TAIL_BAND
        require(abs(kappa - center) <= half, "tail-saddle fit exponent %.4f" % kappa)

    fig1_files = ["fig1_%s_%s.csv" % (tag, kind)
                  for tag in ("bounded", "lumps") for kind in ("amp", "dist")]
    lines = [
        (["dist", "--set", "model.n=%d" % n], 0, ["distribution.csv", "summary.csv"],
         dist_window(n))
        for n in [100] + strata_sizes(rng, 2)
    ] + [
        (["dist", "--set", "model.n=%d" % n, "--set", "profile.variant=exponential-tail",
          "--set", "profile.delta=1.0", "--set", "profile.kappa=1.0"],
         0, ["distribution.csv", "summary.csv"], dist_tail(n))
        for n in [1000] + strata_sizes(rng, 6)
    ] + [
        (["fig1"], 0, fig1_files, fig1),
        (["oracle", "--set", "seed=%d" % phase_seed], 0,
         ["state.csv", "comparison.csv"], oracle),
        (["failure-demo"], 0, ["failure_report.csv"], outcome("broad")),
        (["failure-demo", "--set", "demo.eta=151.0"], 0, ["failure_report.csv"],
         outcome("divergent")),
        # a divergent profile given to dist is the documented exit-3 path
        (["dist", "--set", "profile.variant=algebraic-tail", "--set", "profile.eta=151.0"],
         3, [], diverges),
        (["scaling", "--set", "sweep.preset=tail-saddle",
          "--set", "sweep.kappa=%r" % sweep_kappa], 0, ["sweep.csv"], scaling),
    ]
    return [CliItem(workdir, argv, code, files, check).item()
            for argv, code, files, check in lines]


def make_items(workload: str, seed: int, workdir: Path):
    """The item cycle of ``workload`` for ``seed``; same seed, same inputs."""
    rng = random.Random("%s:%d" % (workload, seed))
    factory = {"edge-sweep": edge_sweep, "tail-sweep": tail_sweep,
               "cli-export": cli_export}[workload]
    return factory(rng, workdir)
