"""System-size sweeps of the sharpness ratio and power-law exponent fits.

A sweep builds one distribution per particle number N, records the ratio
width/mean, and an ordinary least-squares line through (ln N, ln ratio)
gives the scaling exponent: ratio ~ N**(-kappa_fit).  Builders encode how
the profile parameters scale with N; presets cover the fixed bounded
window and the three tail energy-scale conventions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distribution import DEFAULT_POLICY, build_distribution, moments
from .dos import IdealGas
from .errors import DivergenceError, EmptyOverlapError, FitError, NoMaximumError
from .profiles import AlgebraicTail, ExponentialTail, UniformWindow

DELTA_SCALINGS = ("constant", "saddle", "linear")


@dataclass(frozen=True)
class SweepRecord:
    n_particles: int
    mean: float
    width: float
    ratio: float


@dataclass(frozen=True)
class PowerLawFit:
    kappa: float
    intercept: float
    r_squared: float


@dataclass(frozen=True)
class FailureReport:
    """Outcome of a broad-or-divergent power-law tail demonstration run."""

    outcome: str          # "broad" | "divergent" | "sharp"
    ratio: float | None
    threshold: float
    detail: str


def sweep_point(builder, n_particles: int, policy=DEFAULT_POLICY) -> SweepRecord:
    """Build the distribution for one system size and record its moments."""
    model, profile = builder(n_particles)
    dist = build_distribution(model, profile, policy)
    mean, width = moments(dist)
    return SweepRecord(n_particles=n_particles, mean=mean, width=width, ratio=width / mean)


def sweep(builder, n_values, policy=DEFAULT_POLICY):
    """Sweep records over strictly increasing system sizes (at least 3).

    A size whose build diverges, has no maximum or misses the model's
    domain is skipped.  Returns ``(records, skipped)``, where ``skipped``
    holds one "N=<size> skipped: <reason>" note per skipped size.
    """
    n_values = [int(n) for n in n_values]
    if len(n_values) < 3:
        raise ValueError("need at least 3 system sizes")
    if any(b <= a for a, b in zip(n_values, n_values[1:])):
        raise ValueError("system sizes must be strictly increasing")
    records, skipped = [], []
    for n in n_values:
        try:
            records.append(sweep_point(builder, n, policy))
        except (DivergenceError, NoMaximumError, EmptyOverlapError) as exc:
            skipped.append("N=%d skipped: %s" % (n, exc))
    return records, skipped


def fit_power_law(records) -> PowerLawFit:
    """OLS of ln(ratio) on ln(N); kappa is minus the slope."""
    if len(records) < 3:
        raise FitError("need at least 3 records to fit")
    n = np.array([r.n_particles for r in records], dtype=float)
    ratio = np.array([r.ratio for r in records], dtype=float)
    if np.any(ratio <= 0.0):
        raise FitError("all ratios must be positive for a log-log fit")
    x = np.log(n)
    y = np.log(ratio)
    if np.ptp(x) == 0.0:
        raise FitError("degenerate sweep: all system sizes equal")
    xm, ym = x.mean(), y.mean()
    slope = float(np.sum((x - xm) * (y - ym)) / np.sum((x - xm) ** 2))
    intercept = float(ym - slope * xm)
    residual = y - (intercept + slope * x)
    ss_res = float(np.sum(residual ** 2))
    ss_tot = float(np.sum((y - ym) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return PowerLawFit(kappa=-slope, intercept=intercept, r_squared=r_squared)


def default_n_values(decade_lo: int = 2, decade_hi: int = 4, per_decade: int = 5):
    """Log-spaced integer system sizes, ``per_decade`` points per decade."""
    count = per_decade * (decade_hi - decade_lo) + 1
    raw = np.logspace(decade_lo, decade_hi, count)
    return tuple(sorted(set(int(round(v)) for v in raw)))


def bounded_window_builder(e_max: float = 1.0, ln_prefactor: float = 0.0):
    """Ideal gas under a fixed uniform window [0, e_max], any N."""
    def build(n_particles):
        return IdealGas(n_particles, ln_prefactor), UniformWindow(0.0, e_max)
    return build


def algebraic_tail_builder(eta: float, e_ref: float = 1.0):
    """Ideal gas under a fixed power-law amplitude tail.

    The combined weight decays as E**(3N/2 - eta), so growing N at fixed
    eta eventually crosses the integrability edge; sizes beyond it raise
    DivergenceError and are the intended demonstration.
    """
    def build(n_particles):
        return IdealGas(n_particles), AlgebraicTail(decay=eta, e_ref=e_ref)
    return build


def exponential_tail_builder(kappa: float, delta_scaling: str = "constant",
                             delta0: float = 1.0):
    """Ideal gas under a stretched-exponential tail whose scale grows with N.

    ``delta_scaling`` picks how the tail energy scale delta varies:
    "constant" keeps delta0, "saddle" grows it as N**((kappa-1)/kappa)
    (the choice that keeps the peak location extensive), "linear" as N.
    """
    if delta_scaling not in DELTA_SCALINGS:
        raise ValueError("unknown delta scaling %r; choose from %s"
                         % (delta_scaling, DELTA_SCALINGS))

    def build(n_particles):
        if delta_scaling == "constant":
            delta = delta0
        elif delta_scaling == "saddle":
            delta = delta0 * n_particles ** ((kappa - 1.0) / kappa)
        else:
            delta = delta0 * n_particles
        return IdealGas(n_particles), ExponentialTail(delta=delta, kappa=kappa)
    return build


def failure_mode_demo(model, eta: float, e_ref: float = 1.0, threshold: float = 0.2,
                      policy=DEFAULT_POLICY) -> FailureReport:
    """Demonstrate the tailored regime where the sharpness claim breaks.

    ``model`` runs under the power-law amplitude tail (E / e_ref)**-eta.  A
    tail that leaves the weight non-normalizable is "divergent"; otherwise
    the ratio width/mean is compared against ``threshold`` ("broad" or
    "sharp").  A stretched-exponential tail without a saddle point (kappa
    = 1/2 against a square-root entropy) fails differently: NoMaximumError
    from ``tail_profile_prediction`` and DivergenceError from the build.
    """
    try:
        dist = build_distribution(model, AlgebraicTail(decay=eta, e_ref=e_ref), policy)
    except DivergenceError as exc:
        return FailureReport("divergent", None, threshold, str(exc))
    mean, width = moments(dist)
    ratio = width / mean
    outcome = "broad" if ratio > threshold else "sharp"
    return FailureReport(outcome, ratio, threshold,
                         "windowed ratio %.4g vs threshold %g" % (ratio, threshold))
