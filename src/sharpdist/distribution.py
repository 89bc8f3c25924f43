"""Normalized energy distributions built in the log domain.

The distribution is the pointwise product of an amplitude profile and a
density of states, normalized by quadrature through log-sum-exp so that
log-weights spanning thousands of nats never overflow or underflow.

One rule serves every integral: the trapezoid rule on each segment's
uniform step h with Gregory end corrections of order 6, which add
h*(-49/288, 77/240, -7/30, 73/720, -3/160) to the weights of the five
points at each end (the two sets add where they overlap).  The rule is
exact for polynomials up to degree 5 on any segment of at least 9 points,
and it is behind the refinement test, the normalization, the moments and
the segment masses alike.

Grid policy: each connected piece of (profile support intersected with the
model domain) receives a window covering the region where the local
log-weight stays within ``window_nats`` of the piece's peak; the mass
outside that window is bounded by exp(-window_nats) of the piece total.
The piece's peak and its window edges are found by k-section searches in
which each round is one vector call of the log-weight; a NaN on any probe
raises DomainError.  Each edge search starts from the cell of the peak
scan that straddles the cut on its side of the peak and stops within
1e-10 of the distance from the peak to that cell's far end, on the side
below the cut.  Each window is cut at the profile's knots that lie
strictly inside it, so no segment straddles a kink; the two sides of a
join share the knot.

Each segment's grid is uniform in its own ``Coordinate`` x: ``LOG`` (x =
ln E) where 0 < lo and hi/lo > ``_GEOMETRIC_SPAN``, else ``LINEAR`` (x =
E).  The segment's exact ends map to x, and every quadrature integrates
the weight times dE/dx over x.  All segments are refined together, halving
the step until the log normalization moves by less than ``refine_tol``
between levels; a build that reaches ``max_points`` per segment without
that raises ConvergenceError.  Keeping a window per piece (rather than one
global window) is what lets mass ratios as small as 1e-40 between
separated lumps come out right.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import (ConvergenceError, DivergenceError, DomainError,
                     EmptyOverlapError, NoMaximumError)
from .numerics import (LN2, bracket_root_geometric, compensated_sum,
                       log_sum_exp, newton_bisect_root)
from .profiles import ExponentialTail, Lumps

# a power-law tail must fall at least this much faster than 1/E to count as
# integrable; slopes at or above it raise DivergenceError
_SLOPE_MARGIN = 1e-6

# points of each linear and logarithmic scan that locates a piece's peak
_COARSE_POINTS = 2049
# doublings allowed while pushing a half-infinite piece's right edge out,
# and how many of them one log-weight call evaluates
_MAX_EXPAND_DOUBLINGS = 500
_DOUBLING_BLOCK = 16
# interior points of each round of the k-section maximum and crossing
# searches; a round shrinks the bracket 129-fold (maximum) or 258-fold
# (crossing), so a window edge and a maximum each take about 4 rounds
_SECTION_POINTS = 257
_SECTION_FRACTIONS = np.arange(1, _SECTION_POINTS + 1) / (_SECTION_POINTS + 1)
# a window edge search stops within this fraction of the distance from the
# peak to its bracket's below-target end; the e^-60 cut needs no finer edge
_EDGE_REL_TOL = 1e-10
# rounds allowed to either search: at 8 bits a round, enough to narrow any
# bracket of finite floats (2,098 binades from the largest to the smallest
# subnormal spacing) down to adjacent floats
_MAX_SECTION_ROUNDS = 270
# a segment whose hi/lo exceeds this (with lo > 0) is gridded uniformly in
# ln E: linear segments of the bounded, cutoff, lump and tail builds span at
# most about 1e3, the broad power-law tail beyond its knot about 5e8
_GEOMETRIC_SPAN = 1e6
# Gregory corrections of order 6 to the trapezoid weights of the five end
# points, in units of the step; the end weights become 95/288, 317/240,
# 23/30, 793/720, 157/160
_GREGORY = np.array([-49 / 288, 77 / 240, -7 / 30, 73 / 720, -3 / 160])


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
class Coordinate:
    """The variable x in which a segment's grid is uniform; LINEAR or LOG, pickled by name.

    ``to_x`` maps a segment end to x and ``to_e`` grid points x back to E.
    dE/dx comes in two forms, equal to rounding: ``ln_jacobian(x)``, added
    to the build's log-weights, and ``jacobian(E)``, which multiplies point
    weights.
    """

    name: str
    to_x: Callable = field(repr=False)
    to_e: Callable = field(repr=False)
    ln_jacobian: Callable = field(repr=False)
    jacobian: Callable = field(repr=False)

    def __reduce__(self):
        return self.name


LINEAR = Coordinate("LINEAR", to_x=lambda e: e, to_e=lambda x: x,
                    ln_jacobian=lambda x: 0.0, jacobian=lambda e: 1.0)
LOG = Coordinate("LOG", to_x=math.log, to_e=np.exp,
                 ln_jacobian=lambda x: x, jacobian=lambda e: e)


@dataclass(frozen=True)
class Segment:
    """One grid segment: the window [lo, hi] and its points [start, stop) in the grid arrays.

    The points are uniform in ``coordinate`` at spacing ``step``, set with start and stop
    at assembly.  Segments cut from one support piece share its ``support_index``.
    """

    lo: float
    hi: float
    support_index: int
    left_at_edge: bool
    right_at_edge: bool
    coordinate: Coordinate = LINEAR
    start: int = 0
    stop: int = 0
    step: float = 0.0


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
        for name in ("grid", "ln_w"):
            values = np.asarray(getattr(self, name), dtype=float)
            values.setflags(write=False)
            object.__setattr__(self, name, values)

    @cached_property
    def point_masses(self) -> np.ndarray:
        """exp(ln_w) times each point's quadrature weight in x and dE/dx."""
        p = np.exp(self.ln_w)
        for seg in self.segments:
            weights = np.full(seg.stop - seg.start, seg.step)
            weights[[0, -1]] *= 0.5
            weights[:5] += seg.step * _GREGORY
            weights[:-6:-1] += seg.step * _GREGORY
            weights *= seg.coordinate.jacobian(self.grid[seg.start:seg.stop])
            p[seg.start:seg.stop] *= weights
        p.setflags(write=False)
        return p

    def normalization_residual(self) -> float:
        """|1 - quadrature integral of exp(ln_w)| over the segmented grid."""
        return abs(compensated_sum(self.point_masses) - 1.0)

    def segment_masses(self):
        """The probability mass carried by each segment: its point masses, summed."""
        return [compensated_sum(self.point_masses[seg.start:seg.stop]) for seg in self.segments]


@dataclass(frozen=True)
class PeakResult:
    energy: float
    at_boundary: bool


@dataclass(frozen=True)
class BoundedPrediction:
    """Edge-peak asymptotics for profiles with a finite upper support edge."""

    eps: float    # the log-weight's decay length at the edge, 1 / s'(e_edge)
    mean: float   # e_edge - (m + 1) eps, m the profile's edge order
    width: float  # sqrt(m + 1) eps


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


def _probe(lnh, energies):
    """lnh at the array ``energies``, or DomainError naming the first NaN's energy.

    A NaN is no weight that can be integrated; unchecked, argmax would pick
    it as the peak, a crossing search would read it as below its target,
    and the piece would be dropped as weightless.
    """
    values = np.asarray(lnh(energies))
    nan = np.isnan(values)
    if nan.any():
        raise DomainError("log-weight is NaN at E = %r"
                          % float(energies[int(np.argmax(nan))]))
    return values


def _grow_right_edge(lnh, lo, policy):
    """(right bound past the window cut, best probe) for a half-infinite piece.

    Doubles outward until the log-weight has fallen well below its running
    maximum, evaluating _DOUBLING_BLOCK doublings per call and testing them
    in order; the best probe is the first doubling that reached that
    maximum.  Raises DivergenceError when it never falls (weight grows
    without bound) or when the terminal log-log slope is shallower than -1,
    in which case the mass integral cannot converge.
    """
    x0 = max(1.0, 2.0 * abs(lo))
    x_best, best, prev_v = x0, -math.inf, -math.inf
    for start in range(0, _MAX_EXPAND_DOUBLINGS + 1, _DOUBLING_BLOCK):
        stop = min(start + _DOUBLING_BLOCK, _MAX_EXPAND_DOUBLINGS + 1)
        xs = np.ldexp(x0, np.arange(start, stop))  # x0 * 2**j, exactly
        for x, v in zip(xs.tolist(), _probe(lnh, xs).tolist()):
            if v > best:
                x_best, best = x, v
            # strict-decrease guard: for log-weights of magnitude ~1e17 the
            # subtraction below would round back to best and fire on growth
            if v < best and v <= best - policy.window_nats - 10.0:
                slope = (v - prev_v) / LN2
                if slope >= -1.0 - _SLOPE_MARGIN:
                    raise DivergenceError(
                        "tail falls like E^%.6g at E = %.6g; the normalization "
                        "integral does not converge" % (slope, x))
                return x, x_best
            prev_v = v
    raise DivergenceError(
        "log-weight never fell %g nats below its maximum within %d doublings; "
        "the distribution has no normalizable peak"
        % (policy.window_nats, _MAX_EXPAND_DOUBLINGS))


def _section_points(a, b):
    """The points a + (b - a) * j / (_SECTION_POINTS + 1), j = 1 .. _SECTION_POINTS.

    Every point lies in [a, b]: where a and b are within a factor 2 of each
    other b - a is exact, and elsewhere the gap between the last point and
    b, |b - a| / 258, dwarfs any rounding.
    """
    return a + (b - a) * _SECTION_FRACTIONS


def _section_max(lnh, lo, hi, rel_tol=1e-10):
    """(argmax, max) of a unimodal log-weight on [lo, hi] by k-section.

    Each round evaluates lnh once, on _SECTION_POINTS interior points, and
    keeps the two cells around the best of them, until the bracket is no
    wider than ``rel_tol`` times its larger end magnitude (floored at 1).
    Where the top is flat to rounding and several points tie for the best,
    the middle one is kept, so the bracket closes on the centre of the flat
    top rather than on its left end.  Returns the best point of the last
    round that reached the overall best value.
    """
    a, b = float(lo), float(hi)
    x_best, v_best = a, -math.inf
    for _ in range(_MAX_SECTION_ROUNDS):
        t = _section_points(a, b)
        v = _probe(lnh, t)
        ties = np.flatnonzero(v == v.max())
        i = int(ties[ties.size // 2])
        if v[i] >= v_best:
            x_best, v_best = float(t[i]), float(v[i])
        a = float(t[i - 1]) if i > 0 else a
        b = float(t[i + 1]) if i + 1 < t.size else b
        if b - a <= rel_tol * max(abs(a), abs(b), 1.0):
            break
    return x_best, v_best


def _section_crossing(lnh, x_above, x_below, target, tol=0.0):
    """The below-side end of the crossing of ``target`` between x_above and x_below.

    Requires lnh(x_above) >= target > lnh(x_below), in either order on the
    axis.  Each round evaluates lnh once, on _SECTION_POINTS interior points,
    and keeps the cell in which the weight first drops below target seen
    from x_above.  It stops when the ends are at most ``tol`` apart or no
    float lies strictly between them, and returns the below-side end, so
    for a monotone lnh [x_above, result] holds all of the region above
    target and the result is at most ``tol`` beyond the float bisection
    returns (with ``tol=0``, that float itself).
    """
    a, b = float(x_above), float(x_below)
    for _ in range(_MAX_SECTION_ROUNDS):
        if abs(b - a) <= tol or math.nextafter(a, b) == b:
            break
        t = _section_points(a, b)
        below = _probe(lnh, t) < target
        j = int(np.argmax(below))
        if below[j]:
            a, b = (float(t[j - 1]) if j > 0 else a), float(t[j])
        else:
            a = float(t[-1])
    return b


def _component_window(lnh, lo, hi, support_index, knots, policy):
    """Locate the peak of one support piece and cut its quadrature window."""
    candidates = []
    if math.isinf(hi):
        # the growth's best probe joins the scan, so the scan's maximum is at
        # least the growth's and the window cut lies above lnh(hi_eff)
        hi_eff, x_best = _grow_right_edge(lnh, lo, policy)
        candidates.append(np.array([x_best]))
    else:
        hi_eff = hi
    candidates.append(np.linspace(lo, hi_eff, _COARSE_POINTS))
    if lo >= 0.0 and hi_eff > 0.0:
        # log-spaced scan so peaks many decades below hi_eff are still seen
        gl = max(lo, hi_eff * 1e-15)
        if 0.0 < gl < hi_eff:
            candidates.append(np.geomspace(gl, hi_eff, _COARSE_POINTS))
    interior_knots = [k for k in knots if lo < k < hi_eff]
    if interior_knots:
        candidates.append(np.asarray(interior_knots, dtype=float))
    cand = np.unique(np.concatenate(candidates))
    vals = _probe(lnh, cand)
    i = int(np.argmax(vals))
    if not np.isfinite(vals[i]):
        return None  # piece carries no weight at all

    bracket_lo = cand[max(i - 1, 0)]
    bracket_hi = cand[min(i + 1, cand.size - 1)]
    e_star, lnh_star = _section_max(lnh, bracket_lo, bracket_hi)
    if vals[i] > lnh_star:
        e_star, lnh_star = float(cand[i]), float(vals[i])

    target = lnh_star - policy.window_nats

    def crossing(x_above, x_below):
        return _section_crossing(lnh, x_above, x_below, target,
                                 _EDGE_REL_TOL * abs(e_star - x_below))

    # each edge search starts from the scan cell that straddles target on its
    # side of the peak (the scan points between it and the peak lie above
    # target); where that cell touches the peak, e_star is its inner end, as
    # the scan point beside a narrow peak may lie below target
    at = int(np.searchsorted(cand, e_star))  # cand[:at] lie left of the peak
    below = np.flatnonzero(vals < target)
    if vals[0] >= target:  # the scan's ends are exactly lo and hi_eff
        w_lo, left_edge = lo, True
    else:
        j = int(below[np.searchsorted(below, at) - 1])
        w_lo, left_edge = crossing(cand[j + 1] if j + 1 < at else e_star, cand[j]), False
    if vals[-1] >= target:  # never for a half-infinite piece: hi_eff lies below target
        w_hi, right_edge = hi, True
    else:
        j = int(below[np.searchsorted(below, at)])
        w_hi, right_edge = crossing(cand[j - 1] if j > at else e_star, cand[j]), False
    return Segment(w_lo, w_hi, support_index, left_edge, right_edge)


def _split_at_knots(window, knots):
    """``window`` cut at the knots strictly inside it; the pieces share each knot."""
    cuts = sorted({k for k in knots if window.lo < k < window.hi})
    bounds = [window.lo] + cuts + [window.hi]
    last = len(bounds) - 2
    return [replace(window, lo=a, hi=b,
                    left_at_edge=window.left_at_edge and i == 0,
                    right_at_edge=window.right_at_edge and i == last,
                    coordinate=LOG if 0.0 < a and b > _GEOMETRIC_SPAN * a else LINEAR)
            for i, (a, b) in enumerate(zip(bounds, bounds[1:]))]


def _segment_points(lo, hi, coordinate, n):
    """(x, E, step): n points from lo to hi, uniform in ``coordinate``.

    The ends are exactly lo and hi.  Halving the step is exact, so the points
    of n and of 2(n - 1) + 1 coincide bitwise at even indices.
    """
    x0, x1 = coordinate.to_x(lo), coordinate.to_x(hi)
    step = (x1 - x0) / (n - 1)
    x = x0 + step * np.arange(n)
    x[-1] = x1
    energies = coordinate.to_e(x)
    energies[0], energies[-1] = lo, hi
    return x, energies, step


def _segment_log_trapezoid(values, step):
    """ln of the uniform-step trapezoid integral of exp(values)."""
    m = float(np.max(values))
    if not math.isfinite(m):
        return -math.inf
    ex = np.exp(values - m)
    # at least 1/2, as one of the terms is exp(0) and at most half of it drops
    s = float(ex.sum()) - 0.5 * (float(ex[0]) + float(ex[-1]))
    return m + math.log(s) + math.log(step)


def _with_end_corrections(ln_trapezoid, values, step):
    """ln of the corrected integral of exp(values), from the log of its trapezoid sum.

    Only the first and last five ``values`` are read.  Every corrected weight
    is at least 95/144 of the trapezoid weight at its point, so the argument
    of log1p stays above -49/144.
    """
    if ln_trapezoid == -math.inf:
        return ln_trapezoid
    shift = math.log(step) - ln_trapezoid
    ratio = float(_GREGORY @ np.exp(values[:5] + shift)
                  + _GREGORY @ np.exp(values[:-6:-1] + shift))
    return ln_trapezoid + math.log1p(ratio)


def _segment_levels(lnh, seg, n):
    """Yield (log-weights, ln corrected integral) of ``seg`` at n, 2n - 1, 4n - 3, ... points.

    The integrand in x is the weight times dE/dx.  A level after the first
    evaluates lnh only at its new midpoints x0 + h*(1, 3, 5, ...), as the
    even-index points are the previous level's, bitwise; in logs, its
    trapezoid sum is T(h/2) = T(h)/2 + (h/2) * (sum over the midpoints).
    """
    x, energies, h = _segment_points(seg.lo, seg.hi, seg.coordinate, n)
    values = _probe(lnh, energies)
    f = values + seg.coordinate.ln_jacobian(x)
    ln_trap = _segment_log_trapezoid(f, h)
    while True:
        ln_int = _with_end_corrections(ln_trap, f, h)
        del x, energies, f  # only the log-weights stay alive between levels
        yield values, ln_int
        n = 2 * (n - 1) + 1
        x, energies, h = _segment_points(seg.lo, seg.hi, seg.coordinate, n)
        finer = np.empty(n)
        finer[::2], finer[1::2] = values, _probe(lnh, seg.coordinate.to_e(x[1::2]))
        values = finer
        f = values + seg.coordinate.ln_jacobian(x)
        ln_trap = float(np.logaddexp(ln_trap - LN2, math.log(h) + log_sum_exp(f[1::2])))


def _check_increasing(grid, segments):
    """Strictly increasing inside each segment; a join may repeat its knot."""
    ties = any(np.any(np.diff(grid[seg.start:seg.stop]) <= 0.0) for seg in segments)
    if ties or any(grid[b.start] < grid[a.stop - 1] for a, b in zip(segments, segments[1:])):
        raise RuntimeError("internal error: assembled grid is not strictly increasing")


def build_distribution(model, profile, policy: GridPolicy = DEFAULT_POLICY) -> EnergyDistribution:
    """Construct the normalized energy distribution of ``profile`` times ``model``.

    Raises EmptyOverlapError when support and domain do not meet,
    DivergenceError when the combined weight has no normalizable peak, and
    ConvergenceError when refinement reaches ``policy.max_points`` points
    per segment with the last |change of ln Z| still at or above
    ``policy.refine_tol``.  A build in which no halving fits under
    ``max_points`` (as with ``initial_points == max_points``) has a fixed
    resolution and is not tested for convergence.
    """
    lnh = _log_weight(model, profile)
    knots = profile.knots()
    windows = []
    for lo, hi, idx in _overlap_components(profile, model):
        w = _component_window(lnh, lo, hi, idx, knots, policy)
        if w is not None:
            windows.extend(_split_at_knots(w, knots))
    if not windows:
        raise EmptyOverlapError("the combined log-weight is -inf everywhere on the overlap")
    windows.sort(key=lambda w: w.lo)

    n = policy.initial_points
    levels = [_segment_levels(lnh, w, n) for w in windows]
    state = [next(level) for level in levels]  # (log-weights, ln integral) per segment
    ln_norm = log_sum_exp([ln_int for _, ln_int in state])
    delta = None
    while 2 * (n - 1) + 1 <= policy.max_points:
        n = 2 * (n - 1) + 1
        for k, level in enumerate(levels):
            state[k] = next(level)
        ln_next = log_sum_exp([ln_int for _, ln_int in state])
        delta = abs(ln_next - ln_norm)
        ln_norm = ln_next
        if delta < policy.refine_tol:
            break
    else:
        if delta is not None:
            raise ConvergenceError(
                "refinement stopped unconverged at %d points per segment: last "
                "|change of ln Z| = %.3g, refine_tol = %.3g"
                % (n, delta, policy.refine_tol))

    ln_w = np.concatenate([values for values, _ in state])
    ln_w -= ln_norm
    del levels, state  # frees one grid's worth of memory before the grid is built
    grids, segments = [], []
    for k, w in enumerate(windows):
        _, g, h = _segment_points(w.lo, w.hi, w.coordinate, n)
        grids.append(g)
        segments.append(replace(w, start=k * n, stop=(k + 1) * n, step=h))
    grid = np.concatenate(grids)
    _check_increasing(grid, segments)
    return EnergyDistribution(grid=grid, ln_w=ln_w, ln_norm=ln_norm,
                              segments=tuple(segments), model=model,
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
    interior maxima are refined by a k-section search of the log-weight
    inside the two grid cells around the grid maximum, each round one
    vector call on _SECTION_POINTS points.
    """
    i = int(np.argmax(dist.ln_w))
    seg = next(s for s in dist.segments if s.start <= i < s.stop)
    if (i == seg.start and seg.left_at_edge) or (i == seg.stop - 1 and seg.right_at_edge):
        return PeakResult(float(dist.grid[i]), True)
    lo = dist.grid[max(i - 1, seg.start)]
    hi = dist.grid[min(i + 1, seg.stop - 1)]
    e_star, v_star = _section_max(_log_weight(dist.model, dist.profile),
                                  float(lo), float(hi), rel_tol)
    if v_star < dist.ln_w[i] + dist.ln_norm:
        e_star = float(dist.grid[i])
    return PeakResult(e_star, False)


def bounded_profile_prediction(model, profile) -> BoundedPrediction:
    """Edge-peak prediction for a profile bounded above at e_edge.

    Near the edge |a|^2 ~ (e_edge - E)**m, m the profile's ``edge_order``,
    and the log-weight falls off below the edge over eps = 1 / s'(e_edge/N).
    Laplace's method at the endpoint (Watson's lemma) makes the distance
    e_edge - E a Gamma(m + 1, eps) variable to leading order: the mean sits
    (m + 1) eps below the edge and the width is sqrt(m + 1) eps.
    """
    e_edge = profile.upper_edge()
    shape = profile.edge_order + 1
    n = model.n_particles
    _, d1, _ = model.entropy_derivatives(e_edge / n)
    if d1 <= 0.0:
        raise DomainError("model is not at positive temperature at the support edge")
    eps = 1.0 / d1
    return BoundedPrediction(eps=eps, mean=e_edge - shape * eps, width=math.sqrt(shape) * eps)


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


def lump_mass_fractions(dist: EnergyDistribution):
    """Probability mass carried by each lump of a lumps-profile distribution.

    Lumps that do not overlap the model domain contribute exactly 0. The
    returned fractions sum to 1 up to quadrature rounding.
    """
    if not isinstance(dist.profile, Lumps):
        raise ValueError("distribution was not built from a lumps profile")
    fractions = [0.0] * len(dist.profile.pieces)
    for seg, mass in zip(dist.segments, dist.segment_masses()):
        fractions[seg.support_index] += mass
    return fractions


def summarize(dist: EnergyDistribution) -> DistributionSummary:
    """Moments, peak, applicable analytic predictions, and entropy at the mean.

    The entropy is ``model.ln_density(mean)``: ln of the state count there,
    up to the model's additive constant.
    """
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
        entropy_at_mean=float(dist.model.ln_density(mean)),
    )


def export_curve(dist: EnergyDistribution, max_rows=None):
    """(E, ln_w) of ``dist`` for a curve file of at most about ``max_rows`` rows.

    Each segment may take max_rows // (number of segments) rows, at least 3.
    A segment whose plain trapezoid rule over its points misses its mass by
    more than ``refine_tol`` is resampled on the largest 2**k + 1 points
    within that budget, with ln_w evaluated there, when those are more than
    the build's; a trapezoid over the file then still integrates to 1 closely.
    Every other segment is stride-decimated, always keeping its ends.  None
    or 0 exports the build grid itself.
    """
    if not max_rows:
        return dist.grid, dist.ln_w
    budget = max(3, int(max_rows) // len(dist.segments))
    n_fine = 2 ** ((budget - 1).bit_length() - 1) + 1
    lnh = _log_weight(dist.model, dist.profile)
    grids, ln_ws = [], []
    for seg, mass in zip(dist.segments, dist.segment_masses()):
        g = dist.grid[seg.start:seg.stop]
        lw = dist.ln_w[seg.start:seg.stop]
        n = g.size
        if n_fine > n and abs(float(np.trapezoid(np.exp(lw), g)) - mass) > dist.policy.refine_tol:
            _, g, _ = _segment_points(seg.lo, seg.hi, seg.coordinate, n_fine)
            lw = _probe(lnh, g) - dist.ln_norm
        else:
            stride = max(1, -(-(n - 1) // (budget - 1)))  # ceil division
            idx = np.arange(0, n, stride)
            if idx[-1] != n - 1:
                idx = np.append(idx, n - 1)
            g, lw = g[idx], lw[idx]
        grids.append(g)
        ln_ws.append(lw)
    return np.concatenate(grids), np.concatenate(ln_ws)


def refine_once(dist: EnergyDistribution, factor: int = 4) -> EnergyDistribution:
    """Rebuild at a fixed resolution ``factor`` times the final grid of ``dist``.

    Used to verify grid stability of derived quantities; the rebuilt
    distribution performs no further adaptive refinement.
    """
    per_segment = dist.segments[0].stop - dist.segments[0].start
    n = factor * (per_segment - 1) + 1
    forced = replace(dist.policy, initial_points=n, max_points=n)
    return build_distribution(dist.model, dist.profile, forced)
