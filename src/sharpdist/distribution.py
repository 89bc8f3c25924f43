"""Normalized energy distributions built in the log domain.

The distribution is the pointwise product of an amplitude profile and a
density of states, normalized by trapezoid quadrature through log-sum-exp
so that log-weights spanning thousands of nats never overflow or underflow.
One rule serves every integral: each segment's uniform step h gives the
weights h*(1/2, 1, ..., 1, 1/2) behind the refinement test, the
normalization, the moments and the segment masses.

Grid policy: each connected piece of (profile support intersected with the
model domain) receives its own uniform grid covering the region where the
local log-weight stays within ``window_nats`` of the piece's peak; the mass
outside that window is bounded by exp(-window_nats) of the piece total.
All pieces are refined together, doubling the resolution until the log
normalization moves by less than ``refine_tol`` between levels.  Keeping a
window per piece (rather than one global window) is what lets mass ratios
as small as 1e-40 between separated lumps come out right.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .errors import DivergenceError, DomainError, EmptyOverlapError, NoMaximumError
from .numerics import (LN2, bisect_crossing, bracket_root_geometric,
                       compensated_sum, golden_section_max, log_sum_exp,
                       newton_bisect_root)
from .profiles import ExponentialTail, Lumps

# a power-law tail must fall at least this much faster than 1/E to count as
# integrable; slopes at or above it raise DivergenceError
_SLOPE_MARGIN = 1e-6

# points of each linear and logarithmic scan that locates a piece's peak
_COARSE_POINTS = 2049
# doublings allowed while pushing a half-infinite piece's right edge out
_MAX_EXPAND_DOUBLINGS = 500


@dataclass(frozen=True)
class GridPolicy:
    """Controls for the adaptive grid construction."""

    initial_points: int = 4097
    max_points: int = 4_194_305
    refine_tol: float = 1e-10
    window_nats: float = 60.0

    def __post_init__(self):
        if self.initial_points < 9:
            raise ValueError("initial_points must be at least 9")
        if self.refine_tol <= 0.0 or self.window_nats <= 0.0:
            raise ValueError("refine_tol and window_nats must be positive")


DEFAULT_POLICY = GridPolicy()


@dataclass(frozen=True)
class Segment:
    """Index range [start, stop) of one support piece inside the grid arrays.

    ``step`` is the piece's uniform grid spacing, the h of its trapezoid rule.
    """

    start: int
    stop: int
    support_index: int
    left_at_edge: bool
    right_at_edge: bool
    step: float


@dataclass(frozen=True)
class _Window:
    lo: float
    hi: float
    support_index: int
    left_at_edge: bool
    right_at_edge: bool


@dataclass(frozen=True)
class EnergyDistribution:
    """Normalized log-density ln W(E) on a segmented grid."""

    grid: np.ndarray
    ln_w: np.ndarray
    ln_norm: float
    segments: tuple
    model: object
    profile: object
    policy: GridPolicy

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        w = np.asarray(self.ln_w, dtype=float)
        g.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "ln_w", w)

    @cached_property
    def point_masses(self) -> np.ndarray:
        """exp(ln_w) times each point's trapezoid weight h*(1/2, 1, ..., 1, 1/2)."""
        p = np.exp(self.ln_w)
        for seg in self.segments:
            p[seg.start:seg.stop] *= seg.step
            p[seg.start] *= 0.5
            p[seg.stop - 1] *= 0.5
        p.setflags(write=False)
        return p

    def normalization_residual(self) -> float:
        """|1 - trapezoid integral of exp(ln_w)| over the segmented grid."""
        return abs(compensated_sum(self.point_masses) - 1.0)

    def segment_ln_masses(self):
        """Log of the probability mass carried by each segment."""
        return [_segment_log_trapezoid(self.ln_w[seg.start:seg.stop], seg.step)
                for seg in self.segments]


@dataclass(frozen=True)
class PeakResult:
    energy: float
    at_boundary: bool


@dataclass(frozen=True)
class BoundedPrediction:
    """Edge-peak asymptotics for profiles with a finite upper support edge."""

    eps: float    # predicted shift of the mean below the edge, 1 / s'(e_edge)
    mean: float   # e_edge - eps
    width: float  # equal to eps in this approximation


@dataclass(frozen=True)
class TailPrediction:
    """Saddle-point location and curvature width for stretched-exponential tails."""

    mean: float
    width: float


@dataclass(frozen=True)
class DistributionSummary:
    mean: float
    width: float
    ratio: float
    peak_energy: float
    peak_at_boundary: bool
    eps_pred: float | None
    mean_pred: float | None
    width_pred: float | None
    entropy_at_mean: float


def _overlap_components(profile, model):
    dlo, dhi = model.domain()
    comps = []
    for idx, (slo, shi) in enumerate(profile.support()):
        lo, hi = max(slo, dlo), min(shi, dhi)
        if lo < hi:
            comps.append((lo, hi, idx))
    if not comps:
        raise EmptyOverlapError("profile support does not intersect the model domain")
    return comps


def _log_weight(model, profile):
    """The unnormalized log-weight E -> ln|a(E)|^2 + ln dGamma/dE."""
    def lnh(energy):
        return profile.ln_amp_sq(energy) + model.ln_density(energy)
    return lnh


def _checked(energies, values):
    """``values`` as an array, or DomainError naming the first NaN's energy.

    A NaN is no weight that can be integrated; unchecked, argmax would pick
    it as the peak and the piece would be dropped as weightless.
    """
    values = np.asarray(values)
    nan = np.isnan(values)
    if nan.any():
        raise DomainError("log-weight is NaN at E = %r"
                          % float(energies[int(np.argmax(nan))]))
    return values


def _grow_right_edge(lnh, lo, policy):
    """Finite right bound for a half-infinite piece, past the window cut.

    Doubles outward until the log-weight has fallen well below its running
    maximum.  Raises DivergenceError when it never falls (weight grows
    without bound) or when the terminal log-log slope is shallower than -1,
    in which case the mass integral cannot converge.
    """
    x = max(1.0, 2.0 * abs(lo))
    prev_v = lnh(x)
    best = prev_v
    for _ in range(_MAX_EXPAND_DOUBLINGS):
        x *= 2.0
        v = lnh(x)
        best = max(best, v)
        # strict-decrease guard: for log-weights of magnitude ~1e17 the
        # subtraction below would round back to best and fire on growth
        if v < best and v <= best - policy.window_nats - 10.0:
            slope = (v - prev_v) / LN2
            if slope >= -1.0 - _SLOPE_MARGIN:
                raise DivergenceError(
                    "tail falls like E^%.6g at E = %.6g; the normalization "
                    "integral does not converge" % (slope, x))
            return x
        prev_v = v
    raise DivergenceError(
        "log-weight never fell %g nats below its maximum within %d doublings; "
        "the distribution has no normalizable peak"
        % (policy.window_nats, _MAX_EXPAND_DOUBLINGS))


def _component_window(lnh, lo, hi, support_index, knots, policy):
    """Locate the peak of one support piece and cut its quadrature window."""
    half_infinite = math.isinf(hi)
    hi_eff = _grow_right_edge(lnh, lo, policy) if half_infinite else hi

    candidates = [np.linspace(lo, hi_eff, _COARSE_POINTS)]
    if lo >= 0.0 and hi_eff > 0.0:
        # log-spaced scan so peaks many decades below hi_eff are still seen
        gl = max(lo, hi_eff * 1e-15)
        if 0.0 < gl < hi_eff:
            candidates.append(np.geomspace(gl, hi_eff, _COARSE_POINTS))
    interior_knots = [k for k in knots if lo < k < hi_eff]
    if interior_knots:
        candidates.append(np.asarray(interior_knots, dtype=float))
    cand = np.unique(np.concatenate(candidates))
    vals = _checked(cand, lnh(cand))
    i = int(np.argmax(vals))
    if not np.isfinite(vals[i]):
        return None  # piece carries no weight at all

    bracket_lo = cand[max(i - 1, 0)]
    bracket_hi = cand[min(i + 1, cand.size - 1)]
    e_star, lnh_star = golden_section_max(lnh, bracket_lo, bracket_hi)
    if vals[i] > lnh_star:
        e_star, lnh_star = float(cand[i]), float(vals[i])

    if half_infinite:
        # the running-max threshold during growth may have been below the
        # true peak; push the edge further if the window is not yet closed
        guard = _MAX_EXPAND_DOUBLINGS
        while lnh(hi_eff) >= lnh_star - policy.window_nats and guard > 0:
            hi_eff *= 2.0
            guard -= 1
        if guard == 0:
            raise DivergenceError("window never closes on the right")

    target = lnh_star - policy.window_nats
    if lnh(lo) >= target:
        w_lo, left_edge = lo, True
    else:
        w_lo, left_edge = bisect_crossing(lnh, e_star, lo, target), False
    if not half_infinite and lnh(hi) >= target:
        w_hi, right_edge = hi, True
    else:
        w_hi, right_edge = bisect_crossing(lnh, e_star, hi_eff, target), False
    return _Window(w_lo, w_hi, support_index, left_edge, right_edge)


def _segment_grid(lo, hi, n, step):
    g = lo + step * np.arange(n)
    g[-1] = hi
    return g


def _segment_log_trapezoid(values, step):
    """ln of the uniform-step trapezoid integral of exp(values)."""
    m = float(np.max(values))
    if not math.isfinite(m):
        return -math.inf
    ex = np.exp(values - m)
    s = float(ex.sum()) - 0.5 * (float(ex[0]) + float(ex[-1]))
    if s <= 0.0:
        return -math.inf
    return m + math.log(s) + math.log(step)


def _refined_log_trapezoid(prev, mid_values, half_step):
    """Trapezoid at half the step from the previous value plus the midpoint sum.

    T(h/2) = T(h)/2 + (h/2) * sum over the new midpoints, carried in logs.
    """
    mid = log_sum_exp(mid_values)
    if mid == -math.inf:
        return prev - LN2
    return float(np.logaddexp(prev - LN2, math.log(half_step) + mid))


def build_distribution(model, profile, policy: GridPolicy = DEFAULT_POLICY) -> EnergyDistribution:
    """Construct the normalized energy distribution of ``profile`` times ``model``.

    Raises EmptyOverlapError when support and domain do not meet, and
    DivergenceError when the combined weight has no normalizable peak.
    """
    lnh = _log_weight(model, profile)
    comps = _overlap_components(profile, model)
    knots = profile.knots()
    windows = []
    for lo, hi, idx in comps:
        w = _component_window(lnh, lo, hi, idx, knots, policy)
        if w is not None:
            windows.append(w)
    if not windows:
        raise EmptyOverlapError("the combined log-weight is -inf everywhere on the overlap")
    windows.sort(key=lambda w: w.lo)

    n = policy.initial_points
    steps = [(w.hi - w.lo) / (n - 1) for w in windows]
    values = []
    for w, h in zip(windows, steps):
        g = _segment_grid(w.lo, w.hi, n, h)
        values.append(_checked(g, lnh(g)))
    seg_log_ints = [_segment_log_trapezoid(v, h) for v, h in zip(values, steps)]
    ln_norm = log_sum_exp(seg_log_ints)
    while 2 * (n - 1) + 1 <= policy.max_points:
        n = 2 * (n - 1) + 1
        # halving the step is exact, so even-index points of the refined grid
        # coincide bitwise with the previous level; values are reused and only
        # the new midpoints lo + h*(1, 3, 5, ...) are evaluated
        steps = [0.5 * h for h in steps]
        for k, (w, h) in enumerate(zip(windows, steps)):
            g_mid = w.lo + h * np.arange(1, n, 2)
            mid = _checked(g_mid, lnh(g_mid))
            v = np.empty(n)
            v[::2] = values[k]
            v[1::2] = mid
            values[k] = v
            seg_log_ints[k] = _refined_log_trapezoid(seg_log_ints[k], mid, h)
        ln_next = log_sum_exp(seg_log_ints)
        converged = abs(ln_next - ln_norm) < policy.refine_tol
        ln_norm = ln_next
        if converged:
            break

    ln_w = np.concatenate(values)
    ln_w -= ln_norm
    del values  # frees one grid's worth of memory before the grid is built
    grid = np.concatenate([_segment_grid(w.lo, w.hi, n, h) for w, h in zip(windows, steps)])
    segments = tuple(Segment(k * n, (k + 1) * n, w.support_index, w.left_at_edge,
                             w.right_at_edge, h)
                     for k, (w, h) in enumerate(zip(windows, steps)))
    if np.any(np.diff(grid) <= 0.0):
        raise RuntimeError("internal error: assembled grid is not strictly increasing")
    return EnergyDistribution(grid=grid, ln_w=ln_w, ln_norm=ln_norm,
                              segments=segments, model=model,
                              profile=profile, policy=policy)


def moments(dist: EnergyDistribution):
    """(mean, width) by two-pass compensated quadrature.

    The width comes from the central second moment directly, not from
    E[E^2] - mean^2, which cancels catastrophically for sharp peaks.
    """
    p = dist.point_masses
    total = compensated_sum(p)
    mean = compensated_sum(p * dist.grid) / total
    var = compensated_sum(p * (dist.grid - mean) ** 2) / total
    return mean, math.sqrt(var) if var > 0.0 else 0.0


def peak(dist: EnergyDistribution, rel_tol: float = 1e-10) -> PeakResult:
    """Location of the global maximum of ln W.

    Grid maxima sitting on a support edge are returned as boundary peaks;
    interior maxima are refined by golden-section search inside the
    bracketing grid cell.
    """
    i = int(np.argmax(dist.ln_w))
    seg = next(s for s in dist.segments if s.start <= i < s.stop)
    if i == seg.start and seg.left_at_edge:
        return PeakResult(float(dist.grid[i]), True)
    if i == seg.stop - 1 and seg.right_at_edge:
        return PeakResult(float(dist.grid[i]), True)
    lo = dist.grid[max(i - 1, seg.start)]
    hi = dist.grid[min(i + 1, seg.stop - 1)]
    e_star, v_star = golden_section_max(_log_weight(dist.model, dist.profile),
                                        float(lo), float(hi), rel_tol=rel_tol)
    if v_star < dist.ln_w[i] + dist.ln_norm:
        e_star = float(dist.grid[i])
    return PeakResult(e_star, False)


def bounded_profile_prediction(model, profile, reevaluate_at_mean: bool = False) -> BoundedPrediction:
    """Edge-peak prediction for a profile bounded above at e_edge.

    The mean sits a distance eps = 1 / s'(e_edge/N) below the edge and the
    width equals eps; both follow from expanding the log-weight at the edge.
    With ``reevaluate_at_mean`` the slope is re-evaluated once at the
    predicted mean instead of at the edge (an O(1/N) refinement).
    """
    e_edge = profile.upper_edge()
    n = model.n_particles
    _, d1, _ = model.entropy_derivatives(e_edge / n)
    if d1 <= 0.0:
        raise DomainError("model is not at positive temperature at the support edge")
    eps = 1.0 / d1
    if reevaluate_at_mean:
        _, d1, _ = model.entropy_derivatives((e_edge - eps) / n)
        if d1 <= 0.0:
            raise DomainError("model is not at positive temperature at the predicted mean")
        eps = 1.0 / d1
    return BoundedPrediction(eps=eps, mean=e_edge - eps, width=eps)


def tail_profile_prediction(model, profile: ExponentialTail) -> TailPrediction:
    """Saddle-point mean and curvature width for a stretched-exponential tail.

    The mean solves s'(E/N) = kappa E^(kappa-1) / delta^kappa on a bracket
    grown geometrically from delta (safeguarded Newton inside).  The width
    is the inverse square root of minus the curvature of the log-weight at
    that point.  kappa >= 1 guarantees a solution; shallower tails may
    raise NoMaximumError.
    """
    if not isinstance(profile, ExponentialTail):
        raise ValueError("tail prediction requires an exponential-tail profile")
    n = model.n_particles
    kap = profile.kappa
    dk = profile.delta ** kap

    def g(energy):
        return model.entropy_derivatives(energy / n)[1] - kap * energy ** (kap - 1.0) / dk

    def dg(energy):
        d2 = model.entropy_derivatives(energy / n)[2]
        return d2 / n - kap * (kap - 1.0) * energy ** (kap - 2.0) / dk

    lo, hi = bracket_root_geometric(g, profile.delta)
    mean = lo if lo == hi else newton_bisect_root(g, dg, lo, hi)
    curvature = dg(mean)
    if not curvature < 0.0:
        raise NoMaximumError("stationary point at E = %g is not a peak" % mean)
    return TailPrediction(mean=mean, width=1.0 / math.sqrt(-curvature))


def microcanonical_entropy(model, mean_energy: float) -> float:
    """ln of the state count at the mean energy, up to the model's additive constant."""
    return float(model.ln_density(mean_energy))


def lump_mass_fractions(dist: EnergyDistribution):
    """Probability mass carried by each lump of a lumps-profile distribution.

    Lumps that do not overlap the model domain contribute exactly 0. The
    returned fractions sum to 1 up to quadrature rounding.
    """
    if not isinstance(dist.profile, Lumps):
        raise ValueError("distribution was not built from a lumps profile")
    n_lumps = len(dist.profile.pieces)
    fractions = [0.0] * n_lumps
    for seg, lm in zip(dist.segments, dist.segment_ln_masses()):
        fractions[seg.support_index] += math.exp(lm)
    return fractions


def summarize(dist: EnergyDistribution) -> DistributionSummary:
    """Moments, peak, applicable analytic predictions, and entropy at the mean."""
    mean, width = moments(dist)
    pk = peak(dist)
    eps_pred = mean_pred = width_pred = None
    profile = dist.profile
    if profile.bounded_above():
        try:
            bp = bounded_profile_prediction(dist.model, profile)
            eps_pred, mean_pred, width_pred = bp.eps, bp.mean, bp.width
        except DomainError:
            pass
    elif isinstance(profile, ExponentialTail):
        try:
            tp = tail_profile_prediction(dist.model, profile)
            mean_pred, width_pred = tp.mean, tp.width
        except NoMaximumError:
            pass
    return DistributionSummary(
        mean=mean,
        width=width,
        ratio=width / mean,
        peak_energy=pk.energy,
        peak_at_boundary=pk.at_boundary,
        eps_pred=eps_pred,
        mean_pred=mean_pred,
        width_pred=width_pred,
        entropy_at_mean=microcanonical_entropy(dist.model, mean),
    )


def refine_once(dist: EnergyDistribution, factor: int = 4) -> EnergyDistribution:
    """Rebuild at a fixed resolution ``factor`` times the final grid of ``dist``.

    Used to verify grid stability of derived quantities; the rebuilt
    distribution performs no further adaptive refinement.
    """
    per_segment = dist.segments[0].stop - dist.segments[0].start
    n = factor * (per_segment - 1) + 1
    forced = replace(dist.policy, initial_points=n, max_points=n)
    return build_distribution(dist.model, dist.profile, forced)
