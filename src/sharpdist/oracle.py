"""Exact discrete-sum computations on finite spectra.

This is the ground truth against which the continuum machinery is checked:
weights live on the exact levels, expectations are plain compensated sums,
and unitary phase evolution leaves every energy moment untouched by
construction.  Phases are carried explicitly even though no implemented
observable depends on them; they make stationarity a real property of the
data model and leave room for off-diagonal observables later.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distribution import DEFAULT_POLICY, build_distribution, moments
from .dos import DiscreteSpectrum
from .errors import EmptyOverlapError
from .numerics import log_sum_exp

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class DiscreteState:
    """Per-level log-weights (normalized) and phases over a discrete spectrum."""

    spectrum: DiscreteSpectrum
    ln_weights: np.ndarray
    phases: np.ndarray

    def __post_init__(self):
        lw = np.asarray(self.ln_weights, dtype=float)
        ph = np.asarray(self.phases, dtype=float)
        n = len(self.spectrum)
        if lw.shape != (n,) or ph.shape != (n,):
            raise ValueError("weights and phases must match the spectrum length")
        total = log_sum_exp(lw)
        if abs(total) > 1e-8:
            raise ValueError("log-weights are not normalized: logsumexp = %g" % total)
        lw.setflags(write=False)
        ph.setflags(write=False)
        object.__setattr__(self, "ln_weights", lw)
        object.__setattr__(self, "phases", ph)

    @property
    def populated_levels(self) -> int:
        return int(np.sum(np.isfinite(self.ln_weights)))


def prepare_state(spectrum: DiscreteSpectrum, profile, phase_seed: int = 0) -> DiscreteState:
    """Weights proportional to degeneracy times the profile at each level.

    The weight of a level depends on its energy only; phases are drawn
    uniformly in [0, 2*pi) from a seeded generator.
    """
    ln_w = spectrum.ln_degeneracies + np.asarray(profile.ln_amp_sq(spectrum.energies))
    total = log_sum_exp(ln_w)
    if not math.isfinite(total):
        raise EmptyOverlapError("profile support excludes every level of the spectrum")
    ln_w = ln_w - total
    ln_w = ln_w - log_sum_exp(ln_w)  # second pass polishes rounding
    rng = np.random.default_rng(phase_seed)
    phases = rng.uniform(0.0, TWO_PI, size=len(spectrum))
    return DiscreteState(spectrum=spectrum, ln_weights=ln_w, phases=phases)


def evolve_phases(state: DiscreteState, t: float) -> DiscreteState:
    """Unitary evolution for time t (hbar = 1): phases advance by -E_k t.

    Weights are shared untouched, which is exactly why every energy moment
    is stationary.
    """
    new_phases = np.mod(state.phases - state.spectrum.energies * t, TWO_PI)
    return DiscreteState(spectrum=state.spectrum, ln_weights=state.ln_weights,
                         phases=new_phases)


def expectation_of_energy_function(state: DiscreteState, f) -> float:
    """Sum of weight_k * f(E_k) over the levels, compensated summation.

    ``f`` is called once, on the array of level energies; a scalar result
    broadcasts.
    """
    return math.fsum(np.exp(state.ln_weights) * f(state.spectrum.energies))


def state_moments(state: DiscreteState):
    """(mean, width) of the discrete energy distribution, two-pass."""
    mean = expectation_of_energy_function(state, lambda e: e)
    var = expectation_of_energy_function(state, lambda e: (e - mean) ** 2)
    return mean, math.sqrt(var) if var > 0.0 else 0.0


@dataclass(frozen=True)
class DiscrepancyReport:
    """How far apart the discrete sum and the continuum quadrature land."""

    mean_discrete: float
    width_discrete: float
    mean_continuum: float
    width_continuum: float
    mean_rel_diff: float
    width_rel_diff: float
    populated_levels: int
    sub_resolution: bool


def _rel_diff(reference: float, other: float) -> float:
    if reference == 0.0:
        return 0.0 if other == 0.0 else math.inf
    return abs(reference - other) / abs(reference)


def compare_discrete_continuum(state: DiscreteState, profile, model,
                               policy=DEFAULT_POLICY) -> DiscrepancyReport:
    """Quantify the dense-spectrum approximation for one profile.

    ``state`` is the prepared state of ``profile`` on the exact levels
    (``prepare_state``); its phases do not enter any moment.  The same
    profile weighs the continuum model, and the report carries the relative
    moment discrepancies.  A state populating a single level (or with zero
    discrete width) is flagged sub-resolution: the continuum picture cannot
    be meaningful below the level spacing.
    """
    mean_d, width_d = state_moments(state)
    dist = build_distribution(model, profile, policy)
    mean_c, width_c = moments(dist)
    sub_resolution = state.populated_levels <= 1 or width_d == 0.0
    return DiscrepancyReport(
        mean_discrete=mean_d,
        width_discrete=width_d,
        mean_continuum=mean_c,
        width_continuum=width_c,
        mean_rel_diff=_rel_diff(mean_d, mean_c),
        width_rel_diff=_rel_diff(width_d, width_c) if not sub_resolution else math.inf,
        populated_levels=state.populated_levels,
        sub_resolution=sub_resolution,
    )
