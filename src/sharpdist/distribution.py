"""Normalized energy distributions built in the log domain.

The distribution is the pointwise product of an amplitude profile and a
density of states, normalized by quadrature through log-sum-exp so that
log-weights spanning thousands of nats never overflow or underflow.

One rule serves every integral: the trapezoid rule on each segment's
uniform step h with Gregory end corrections of order 6, which add
h*(-49/288, 77/240, -7/30, 73/720, -3/160) to the weights of the five
points at each end (the two sets add where they overlap).  The rule is
exact for polynomials up to degree 5 on any segment of at least 9 points.
The point masses and every refinement level's integral (``_ln_integral``)
take these weights times dE/dx.

Grid policy: each connected piece of (profile support intersected with the
model domain) receives a window covering the region where the local
log-weight stays within a fixed 60 nats (``_WINDOW_NATS``) of the piece's
peak; the mass outside that window is bounded by e^-60 of the piece total.
The piece's peak and its window edges are found by k-section searches in
which each round is one vector call of the log-weight, shared by both
edges; a NaN on any probe raises DomainError.  The highest piece peak is
the distribution's peak (on a tie, the lowest piece's), and one on a
support edge is that edge.  Each edge search starts from the cell of the
peak scan that straddles the cut on its side of the peak and stops within
1e-10 of the distance from the peak to that cell's far end, on the side
below the cut.  Each window is cut at the profile's knots strictly inside
it, so no segment straddles a kink; the two sides of a join share the knot.

Each segment's grid is uniform in its own ``Coordinate`` x, ``LINEAR`` (x
= E) or ``LOG`` (x = ln E); every quadrature integrates over x with each
point's weight times dE/dx.  ``_first_level`` evaluates the first round's
points in both in one call and chooses on every 4th of them, the 65-point
level.  Each segment is refined on its own until one halving changes its
integral by less than refine_tol / (number of segments) of Z, or raises
ConvergenceError at ``max_points`` or where a level's step would repeat an
energy.  Keeping a window per piece (rather than one global window) is what
lets mass ratios as small as 1e-40 between separated lumps come out right.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import (ConvergenceError, DivergenceError, DomainError,
                     EmptyOverlapError, NoMaximumError)
from .numerics import LN2, compensated_sum, log_sum_exp, newton_bisect_root
from .profiles import ExponentialTail, Lumps

# each piece's window keeps the region within this many nats of its peak
_WINDOW_NATS = 60.0
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
# the maximum search stops once its bracket is no wider than this fraction
# of its larger end magnitude (floored at 1)
_PEAK_REL_TOL = 1e-10
# rounds allowed to either search: at 8 bits a round, enough to narrow any
# bracket of finite floats (2,098 binades from the largest to the smallest
# subnormal spacing) down to adjacent floats
_MAX_SECTION_ROUNDS = 270
# a segment is gridded in ln E only where its first level's end corrections
# there are below this fraction of those in E
_LOG_GAIN = 0.5
# a segment's first round goes to this many points (the third level from a
# 65-point start), so two coarse levels that agree by accident never end it
_MIN_CONVERGED_POINTS = 257
# a segment whose change falls at least _JUMP_RATE-fold per halving takes
# several halvings at once, as if it fell at least as fast as _RULE_RATE,
# the order-6 rule's error
_JUMP_RATE, _RULE_RATE = 1 / 16, 1 / 64
# a level's step must exceed this many float spacings of x at a segment's ends
# (plus E's relative spacing in LOG): rounding moves a point by at most 2 of them
_MIN_STEP_SPACINGS = 4
# Gregory corrections of order 6 to the trapezoid weights of the five end
# points, in units of the step; the end weights become 95/288, 317/240,
# 23/30, 793/720, 157/160
_GREGORY = np.array([-49 / 288, 77 / 240, -7 / 30, 73 / 720, -3 / 160])
# the end weights minus 1: the trapezoid's halves plus the corrections
_END_EXCESS = _GREGORY - np.array([0.5, 0.0, 0.0, 0.0, 0.0])


@dataclass(frozen=True)
class GridPolicy:
    """Controls for the adaptive grid construction."""

    initial_points: int = 65
    max_points: int = 4_194_305
    refine_tol: float = 1e-10

    def __post_init__(self):
        if self.initial_points < 9:
            raise ValueError("initial_points must be at least 9")
        if self.initial_points != self.max_points < 2 * self.initial_points - 1:  # no halving fits
            raise ValueError("max_points must equal initial_points (a fixed grid) or be at "
                             "least 2 * initial_points - 1 = %d (one halving), got %d"
                             % (2 * self.initial_points - 1, self.max_points))
        if not 0.0 < self.refine_tol < math.inf:  # NaN fails too
            raise ValueError("refine_tol must be positive and finite, got %r" % self.refine_tol)


DEFAULT_POLICY = GridPolicy()


@dataclass(frozen=True)
class Coordinate:
    """The variable x in which a segment's grid is uniform; LINEAR or LOG, pickled by name.

    ``to_x`` maps a segment end to x, ``to_e`` grid points x back to E, and
    ``times_jacobian(f, E)`` multiplies values f at the points E in place by
    dE/dx, as every quadrature in x does.
    """

    name: str
    to_x: Callable = field(repr=False)
    to_e: Callable = field(repr=False)
    times_jacobian: Callable = field(repr=False)

    def __reduce__(self):
        return self.name


LINEAR = Coordinate("LINEAR", to_x=lambda e: e, to_e=lambda x: x,
                    times_jacobian=lambda f, e: None)
LOG = Coordinate("LOG", to_x=math.log, to_e=np.exp,
                 times_jacobian=lambda f, e: np.multiply(f, e, out=f))


@dataclass(frozen=True)
class Segment:
    """One grid segment: the window [lo, hi] and its points [start, stop) in the grid arrays.

    The points are uniform in ``coordinate`` at spacing ``step``, set with start and stop
    at assembly.  Segments cut from one support piece share its ``support_index``.
    """

    lo: float
    hi: float
    support_index: int
    coordinate: Coordinate = LINEAR
    start: int = 0
    stop: int = 0
    step: float = 0.0


@dataclass(frozen=True)
class PeakResult:
    energy: float
    at_boundary: bool


@dataclass(frozen=True)
class EnergyDistribution:
    """Normalized log-density ln W(E) on a segmented grid, and the location of its maximum."""

    grid: np.ndarray
    ln_w: np.ndarray
    ln_norm: float
    segments: tuple
    peak: PeakResult
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
            f = p[seg.start:seg.stop]
            seg.coordinate.times_jacobian(f, self.grid[seg.start:seg.stop])
            # both ends' excess weights come from the unweighted values: where
            # they meet (fewer than 10 points) they add
            head, tail = _END_EXCESS * f[:5], _END_EXCESS * f[:-6:-1]
            f[:5] += head
            f[:-6:-1] += tail
            f *= seg.step
        p.setflags(write=False)
        return p

    def normalization_residual(self) -> float:
        """|1 - quadrature integral of exp(ln_w)| over the segmented grid."""
        return abs(compensated_sum(self.point_masses) - 1.0)

    def segment_masses(self):
        """The probability mass carried by each segment: its point masses, summed."""
        return [compensated_sum(self.point_masses[seg.start:seg.stop]) for seg in self.segments]


@dataclass(frozen=True)
class Prediction:
    """Leading-order mean and width of W(E), from an edge or a saddle point."""

    mean: float
    width: float
    eps: float | None = None  # an edge's decay length 1 / s'(e_edge); None for a saddle


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
    if math.isnan(values.max()):  # the maximum is NaN exactly where a value is
        raise DomainError("log-weight is NaN at E = %r"
                          % float(energies[int(np.argmax(np.isnan(values)))]))
    return values


def _grow_right_edge(lnh, lo):
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
            if v < best and v <= best - _WINDOW_NATS - 10.0:
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
        % (_WINDOW_NATS, _MAX_EXPAND_DOUBLINGS))


def _section_points(a, b):
    """The points a + (b - a) * j / (_SECTION_POINTS + 1), j = 1 .. _SECTION_POINTS.

    Every point lies in [a, b]: where a and b are within a factor 2 of each
    other b - a is exact, and elsewhere the gap between the last point and
    b, |b - a| / 258, dwarfs any rounding.
    """
    return a + (b - a) * _SECTION_FRACTIONS


def _section_max(lnh, lo, hi):
    """(argmax, max) of a unimodal log-weight on [lo, hi] by k-section.

    Each round evaluates lnh once, on _SECTION_POINTS interior points, and
    keeps the two cells around the best of them, until the bracket is no
    wider than _PEAK_REL_TOL times its larger end magnitude (floored at 1).
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
        if b - a <= _PEAK_REL_TOL * max(abs(a), abs(b), 1.0):
            break
    return x_best, v_best


def _section_crossings(lnh, target, brackets):
    """The below-side end of the crossing of ``target`` in each (x_above, x_below, tol).

    Each bracket requires lnh(x_above) >= target > lnh(x_below), in either
    order on the axis.  Each round evaluates lnh once, on _SECTION_POINTS
    interior points of every bracket still open, and keeps in each the cell
    in which the weight first drops below target seen from x_above.  A
    bracket closes when its ends are at most ``tol`` apart or no float lies
    strictly between them, and gives its below-side end, so for a monotone
    lnh [x_above, result] holds all of its region above target and the
    result is at most ``tol`` beyond the float bisection returns (with
    ``tol=0``, that float itself).  Sharing the calls moves no result.
    """
    ends = [(float(a), float(b)) for a, b, _ in brackets]
    for _ in range(_MAX_SECTION_ROUNDS):
        live = [k for k, ((a, b), (_, _, tol)) in enumerate(zip(ends, brackets))
                if abs(b - a) > tol and math.nextafter(a, b) != b]
        if not live:
            break
        t = np.concatenate([_section_points(*ends[k]) for k in live])
        below = (_probe(lnh, t) < target).reshape(len(live), -1)
        for k, tk, bk in zip(live, t.reshape(len(live), -1), below):
            j = int(np.argmax(bk))
            if bk[j]:
                ends[k] = (float(tk[j - 1]) if j > 0 else ends[k][0]), float(tk[j])
            else:
                ends[k] = float(tk[-1]), ends[k][1]
    return [b for _, b in ends]


def _peak_scan(lo, hi, extra):
    """Sorted distinct points of ``extra`` and linear and (where lo >= 0) log scans of [lo, hi].

    The log scan, from max(lo, 1e-15 hi), sees peaks many decades below hi.
    These are bitwise np.unique's points over np.linspace and np.geomspace.
    """
    scans = [np.linspace(lo, hi, _COARSE_POINTS), np.asarray(extra, dtype=float)]
    gl = max(lo, hi * 1e-15)
    if lo >= 0.0 and 0.0 < gl < hi:
        scans.append(10.0 ** np.linspace(np.log10(gl), np.log10(hi), _COARSE_POINTS))
        scans[-1][0], scans[-1][-1] = gl, hi
    cand = np.concatenate(scans)
    cand.sort(kind="stable")  # merges the sorted runs
    return cand[np.concatenate(([True], cand[1:] != cand[:-1]))]


def _component_window(lnh, lo, hi, support_index, knots):
    """(window, peak, lnh at the peak) of one support piece, or None if it carries no weight.

    A peak on a support edge is that edge itself, a point of the scan.
    """
    if math.isinf(hi):
        # the growth's best probe joins the scan, so the scan's maximum is at
        # least the growth's and the window cut lies above lnh(hi_eff)
        hi_eff, x_best = _grow_right_edge(lnh, lo)
        extra = [x_best]
    else:
        hi_eff, extra = hi, []
    cand = _peak_scan(lo, hi_eff, extra + [k for k in knots if lo < k < hi_eff])
    vals = _probe(lnh, cand)
    i = int(np.argmax(vals))
    if not np.isfinite(vals[i]):
        return None  # piece carries no weight at all

    bracket_lo = cand[max(i - 1, 0)]
    bracket_hi = cand[min(i + 1, cand.size - 1)]
    e_star, lnh_star = _section_max(lnh, bracket_lo, bracket_hi)
    if vals[i] > lnh_star:
        e_star, lnh_star = float(cand[i]), float(vals[i])

    target = lnh_star - _WINDOW_NATS
    # each edge search starts from the scan cell that straddles target on its
    # side of the peak (the scan points between it and the peak lie above
    # target); where that cell touches the peak, e_star is its inner end, as
    # the scan point beside a narrow peak may lie below target.  Both edges
    # share each round's call.
    at = int(np.searchsorted(cand, e_star))  # cand[:at] lie left of the peak
    below = np.flatnonzero(vals < target)
    cut_lo, cut_hi = vals[0] < target, vals[-1] < target  # the scan's ends are lo and hi_eff
    brackets = []  # (x_above, x_below); hi_eff of a half-infinite piece is always below
    if cut_lo:
        j = int(below[np.searchsorted(below, at) - 1])
        brackets.append((cand[j + 1] if j + 1 < at else e_star, cand[j]))
    if cut_hi:
        j = int(below[np.searchsorted(below, at)])
        brackets.append((cand[j - 1] if j > at else e_star, cand[j]))
    edges = iter(_section_crossings(lnh, target, [(a, b, _EDGE_REL_TOL * abs(e_star - b))
                                                  for a, b in brackets]))
    w_lo, w_hi = next(edges) if cut_lo else lo, next(edges) if cut_hi else hi
    return (Segment(w_lo, w_hi, support_index),
            PeakResult(e_star, e_star == lo or e_star == hi), lnh_star)


def _split_at_knots(window, knots):
    """``window`` cut at the knots strictly inside it; the pieces share each knot."""
    cuts = sorted({k for k in knots if window.lo < k < window.hi})
    bounds = [window.lo] + cuts + [window.hi]
    return [replace(window, lo=a, hi=b) for a, b in zip(bounds, bounds[1:])]


def _segment_points(lo, hi, coordinate, n):
    """(E, step): n points from lo to hi, uniform in ``coordinate`` at spacing step.

    The ends are exactly lo and hi.  Halving the step is exact, so the points
    of n and of 2(n - 1) + 1 coincide bitwise at even indices.
    """
    x0, x1 = coordinate.to_x(lo), coordinate.to_x(hi)
    step = (x1 - x0) / (n - 1)
    x = x0 + step * np.arange(n)
    x[-1] = x1
    energies = coordinate.to_e(x)
    energies[0], energies[-1] = lo, hi
    return energies, step


def _ln_integral(values, coordinate, energies, step):
    """(ln of the integral of exp(values), |end corrections| / integral) on a segment's points.

    The point masses' sum: the plain sum, pairwise (ndarray.sum, whose
    rounding grows like log n), plus the end weights' excess.
    """
    m = float(values.max())
    if not math.isfinite(m):
        return -math.inf, 0.0
    f = values - m
    np.exp(f, out=f)
    coordinate.times_jacobian(f, energies)
    ends = f[:5] + f[:-6:-1]
    total = float(f.sum() + _END_EXCESS @ ends)
    return m + math.log(total * step), abs(float(_GREGORY @ ends)) / total


class _Refinement:
    """One segment's grid while it is refined: points, log-weights and ln integral.

    ``change`` is its last halving's change of the integral, relative to it;
    ``rate`` the factor by which changes fell per halving then.
    """

    def __init__(self, lnh, seg, energies, step, values):
        self.lnh, self.seg, self.change, self.rate = lnh, seg, None, None
        self._level(energies, step, values)

    def _level(self, energies, step, values):
        self.energies, self.step, self.values = energies, step, values
        self.ln_int, self.corrections = _ln_integral(values, self.seg.coordinate, energies, step)

    def halve(self, halvings, values=None):
        """Halve the step ``halvings`` times, evaluating every new point in one lnh call.

        The old points are those at every 2**halvings-th index of the new, bitwise;
        ``values``, lnh at all of the new points, makes no call.  The rate compares
        the last halving's change with the first's, or the last round's.
        """
        seg, stride, before = self.seg, 1 << halvings, self.ln_int
        n = (self.energies.size - 1) * stride + 1
        energies, h = _segment_points(seg.lo, seg.hi, seg.coordinate, n)
        _check_step(seg, h, n)
        if values is None:
            values = np.empty(n)
            values[::stride] = self.values
            new = energies[:-1].reshape(-1, stride)[:, 1:]
            values[:-1].reshape(-1, stride)[:, 1:] = _probe(self.lnh, new.ravel()).reshape(
                new.shape)
        coarse = (before if halvings == 1 else
                  _ln_integral(values[::2], seg.coordinate, energies[::2], 2.0 * h)[0])
        self._level(energies, h, values)
        earlier = abs(math.expm1(before - coarse)) if halvings > 1 else self.change
        self.change = abs(math.expm1(coarse - self.ln_int))
        self.rate = (self.change / earlier) ** (1.0 / max(halvings - 1, 1)) if earlier else None

    def next_halvings(self, share):
        """The halvings of the next round: those that bring ``change`` below ``share``.

        Their count assumes the faster of ``rate`` and _RULE_RATE, which the
        rule approaches from below, so it does not overshoot where halving once
        a round would stop; while changes fall less than _JUMP_RATE-fold a
        halving it is one.
        """
        if self.rate is None or self.rate > _JUMP_RATE:
            return 1
        rate = min(self.rate, _RULE_RATE)
        return max(1, math.ceil(math.log(share / self.change) / math.log(rate)))


def _room(n, max_points):  # the halvings of an n-point level that fit under max_points
    return ((max_points - 1) // (n - 1)).bit_length() - 1


def _check_step(seg, step, n):
    """ConvergenceError where points ``step`` apart in seg's coordinate could repeat an energy."""
    x_end = max(abs(seg.coordinate.to_x(seg.lo)), abs(seg.coordinate.to_x(seg.hi)))
    spacing = np.spacing(x_end) + (np.spacing(1.0) if seg.coordinate is LOG else 0.0)
    if step <= _MIN_STEP_SPACINGS * spacing:
        raise ConvergenceError("segment [%r, %r] cannot take %d points: their step %.3g in %s is "
                               "within %d float spacings (%.3g), so energies would repeat" % (
                                   seg.lo, seg.hi, n, step, seg.coordinate.name,
                                   _MIN_STEP_SPACINGS, spacing))


def _first_level(lnh, window, n, halvings, refine_tol) -> _Refinement:
    """``window``'s refinement through its first round, n points halved ``halvings`` times.

    One lnh call evaluates the round in E and, where lo > 0, in ln E.  On the
    n-point level (every 2**halvings-th point) LOG is kept only where its end
    corrections (the plain trapezoid's error) are below _LOG_GAIN times
    those in E, and those are at least ``refine_tol``.
    """
    stride, coordinates = 1 << halvings, (LINEAR, LOG) if window.lo > 0.0 else (LINEAR,)
    m = (n - 1) * stride + 1
    grids = [_segment_points(window.lo, window.hi, c, m) for c in coordinates]
    values = _probe(lnh, np.concatenate([e for e, _ in grids])).reshape(len(grids), m)
    levels = [_Refinement(lnh, replace(window, coordinate=c), e[::stride], h * stride, v[::stride])
              for c, (e, h), v in zip(coordinates, grids, values)]
    linear, log = levels[0], levels[-1]  # one level where lo <= 0, never below half itself
    k = int(refine_tol <= linear.corrections and log.corrections < _LOG_GAIN * linear.corrections)
    if halvings:
        levels[k].halve(halvings, values[k])
    else:
        _check_step(levels[k].seg, levels[k].step, n)
    return levels[k]


def build_distribution(model, profile, policy: GridPolicy = DEFAULT_POLICY) -> EnergyDistribution:
    """Construct the normalized energy distribution of ``profile`` times ``model``.

    Raises EmptyOverlapError when support and domain do not meet,
    DivergenceError when the combined weight has no normalizable peak, and
    ConvergenceError when a segment reaches ``policy.max_points`` points
    with its last change still at or above its share.  A build with
    ``initial_points == max_points`` has a fixed resolution and is not
    tested for convergence.
    """
    lnh = _log_weight(model, profile)
    knots = profile.knots()
    pieces = [piece for lo, hi, idx in _overlap_components(profile, model)
              if (piece := _component_window(lnh, lo, hi, idx, knots)) is not None]
    if not pieces:
        raise EmptyOverlapError("the combined log-weight is -inf everywhere on the overlap")
    windows = sorted((w for window, _, _ in pieces for w in _split_at_knots(window, knots)),
                     key=lambda w: w.lo)
    _, top, _ = max(pieces, key=lambda piece: piece[2])  # the first piece on a tie

    n0, cap = policy.initial_points, policy.max_points
    first = min(_room(n0, cap), max(1, ((_MIN_CONVERGED_POINTS - 2) // (n0 - 1)).bit_length()))
    refinements = [_first_level(lnh, w, n0, first, policy.refine_tol) for w in windows]
    share = policy.refine_tol / len(refinements)
    halvings = dict.fromkeys(range(len(refinements)) if first else ())  # segments in refinement
    while True:
        ln_norm = log_sum_exp([r.ln_int for r in refinements])
        for k in list(halvings):
            r = refinements[k]
            weight = math.exp(r.ln_int - ln_norm)  # its share of Z
            room = _room(r.energies.size, cap)
            if r.change * weight < share:
                del halvings[k]
            elif not room:
                raise ConvergenceError(
                    "refinement stopped unconverged at %d points per segment on [%r, %r]: last "
                    "|change of ln Z| = %.3g there, above its share %.3g of refine_tol = %.3g"
                    % (r.energies.size, r.seg.lo, r.seg.hi, r.change * weight, share,
                       policy.refine_tol))
            else:
                halvings[k] = min(room, r.next_halvings(share / weight))
        if not halvings:
            break
        for k, h in halvings.items():
            refinements[k].halve(h)

    ln_w = np.concatenate([r.values for r in refinements]) - ln_norm
    grid = np.concatenate([r.energies for r in refinements])
    segments, stop = [], 0
    for r in refinements:
        stop += r.energies.size
        segments.append(replace(r.seg, start=stop - r.energies.size, stop=stop, step=r.step))
    # a join may repeat its knot; _check_step keeps each segment increasing
    if any(grid[b.start] < grid[a.stop - 1] for a, b in zip(segments, segments[1:])):
        raise RuntimeError("internal error: assembled grid is not strictly increasing")
    return EnergyDistribution(grid=grid, ln_w=ln_w, ln_norm=ln_norm,
                              segments=tuple(segments), peak=top, model=model,
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


def peak(dist: EnergyDistribution) -> PeakResult:
    """Location of the global maximum of ln W: the highest piece peak the window search found.

    A maximum on a support edge is that edge and is flagged ``at_boundary``.
    """
    return dist.peak


def bounded_profile_prediction(model, profile) -> Prediction:
    """Edge-peak prediction for a profile bounded above at e_edge.

    Near the edge |a|^2 ~ (e_edge - E)**m, m the profile's ``edge_order``,
    and the log-weight falls off below the edge over eps = 1 / s'(e_edge/N).
    Laplace's method at the endpoint (Watson's lemma) makes the distance
    e_edge - E a Gamma(m + 1, eps) variable to leading order: the mean sits
    (m + 1) eps below the edge and the width is sqrt(m + 1) eps.
    """
    e_edge = profile.upper_edge()
    lo, hi = model.domain()
    if not lo < e_edge < hi:
        raise DomainError("support edge %g is not inside the model domain" % e_edge)
    shape = profile.edge_order + 1
    d1, _ = model.entropy_slopes(e_edge / model.n_particles)
    if d1 <= 0.0:
        raise DomainError("model is not at positive temperature at the support edge")
    eps = 1.0 / d1
    return Prediction(mean=e_edge - shape * eps, width=math.sqrt(shape) * eps, eps=eps)


def tail_profile_prediction(model, profile: ExponentialTail) -> Prediction:
    """Saddle-point mean and curvature width for a stretched-exponential tail.

    The mean solves g(E) = s'(E/N) - kappa E^(kappa-1) / delta^kappa = 0.
    One vector call of g on delta * 2**j, j = -200..200, inside the model
    domain, brackets it in the lowest cell where g falls from above 0 to 0
    or below, and safeguarded Newton solves inside.  The width is the
    inverse square root of minus the curvature of the log-weight at that
    point.  kappa >= 1 guarantees a solution; shallower tails may raise
    NoMaximumError.
    """
    if not isinstance(profile, ExponentialTail):
        raise ValueError("tail prediction requires an exponential-tail profile")
    n = model.n_particles
    kap = profile.kappa
    dk = profile.delta ** kap

    def g(energy):
        return model.entropy_slopes(energy / n)[0] - kap * energy ** (kap - 1.0) / dk

    def dg(energy):
        d2 = model.entropy_slopes(energy / n)[1]
        return d2 / n - kap * (kap - 1.0) * energy ** (kap - 2.0) / dk

    lo, hi = model.domain()
    x = np.ldexp(profile.delta, np.arange(-200, 201))
    x = x[(lo < x) & (x < hi)]
    with np.errstate(all="ignore"):
        gx = g(x)
    falls = np.flatnonzero((gx[:-1] > 0.0) & (gx[1:] <= 0.0))
    if falls.size == 0:
        raise NoMaximumError("no sign change within 200 doublings of delta = %g" % profile.delta)
    mean = newton_bisect_root(g, dg, x[falls[0]], x[falls[0] + 1])
    curvature = dg(mean)
    if not curvature < 0.0:
        raise NoMaximumError("stationary point at E = %g is not a peak" % mean)
    return Prediction(mean=mean, width=1.0 / math.sqrt(-curvature))


def lump_mass_fractions(dist: EnergyDistribution):
    """Probability mass carried by each lump of a lumps-profile distribution.

    Lumps that do not overlap the model domain contribute exactly 0. The
    returned fractions sum to 1 up to quadrature rounding.
    """
    if not isinstance(dist.profile, Lumps):
        raise ValueError("distribution was not built from a lumps profile")
    fractions = [0.0] * len(dist.profile.intervals)
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
    pred = Prediction(mean=None, width=None)
    try:
        if dist.profile.bounded_above():
            pred = bounded_profile_prediction(dist.model, dist.profile)
        elif isinstance(dist.profile, ExponentialTail):
            pred = tail_profile_prediction(dist.model, dist.profile)
    except (DomainError, NoMaximumError):
        pass
    return DistributionSummary(
        mean=mean,
        width=width,
        ratio=width / mean,
        peak_energy=pk.energy,
        peak_at_boundary=pk.at_boundary,
        eps_pred=pred.eps,
        mean_pred=pred.mean,
        width_pred=pred.width,
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
    or 0 exports the build grid itself; a negative ``max_rows`` raises
    ValueError.
    """
    if not max_rows:
        return dist.grid, dist.ln_w
    if max_rows < 0:
        raise ValueError("max_rows must not be negative, got %r" % max_rows)
    budget = max(3, int(max_rows) // len(dist.segments))
    n_fine = 2 ** ((budget - 1).bit_length() - 1) + 1
    lnh = _log_weight(dist.model, dist.profile)
    grids, ln_ws = [], []
    for seg, mass in zip(dist.segments, dist.segment_masses()):
        g = dist.grid[seg.start:seg.stop]
        lw = dist.ln_w[seg.start:seg.stop]
        n = g.size
        if n_fine > n and abs(float(np.trapezoid(np.exp(lw), g)) - mass) > dist.policy.refine_tol:
            g, _ = _segment_points(seg.lo, seg.hi, seg.coordinate, n_fine)
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


def refine_once(dist: EnergyDistribution) -> EnergyDistribution:
    """Rebuild at a fixed resolution, 4 times (or more) each segment's final grid in ``dist``.

    Every segment gets 4(n - 1) + 1 points, n the largest segment's count.
    Used to verify grid stability of derived quantities; the rebuilt
    distribution performs no further adaptive refinement.
    """
    n = 4 * (max(seg.stop - seg.start for seg in dist.segments) - 1) + 1
    forced = replace(dist.policy, initial_points=n, max_points=n)
    return build_distribution(dist.model, dist.profile, forced)
