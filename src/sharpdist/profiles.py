"""Squared-amplitude shapes |a(E)|^2 as log-scale functions with explicit support.

Every profile returns ln|a(E)|^2 up to an additive constant (``ln_scale``;
0 for the flat ``Lumps``, of which ``UniformWindow`` is the one-interval
case).  The normalization constant is never chosen here, it is fixed once
the shape is combined with a density of states.  Outside the declared
support the value is -inf.  Cutoff shapes vanish continuously at their
upper edge.

The bump-like cutoff shapes are defined symmetrically around their anchor
``e0`` (the distance |E - e0| enters the formula), so the support extends
below e0 exactly as far as the shape stays positive, down to 2*e0 - e_max.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .numerics import _finish, _on_interval, log_one_minus_exp

INF = math.inf


class AmplitudeProfile:
    """Interface shared by all profile variants."""

    # m in |a(E)|^2 ~ (e_edge - E)**m at the upper edge of a bounded support:
    # 0 for a hard cut, 1 where the shape has a simple zero
    edge_order = 0

    def ln_amp_sq(self, energy):
        """ln|a(E)|^2 (up to the additive constant), -inf outside support."""
        raise NotImplementedError

    def support(self):
        """List of (lo, hi) intervals where ln_amp_sq exceeds -inf."""
        raise NotImplementedError

    def knots(self):
        """Interior energies where the shape is only piecewise smooth."""
        return ()

    def bounded_above(self) -> bool:
        return math.isfinite(self.support()[-1][1])

    def upper_edge(self) -> float:
        hi = self.support()[-1][1]
        if not math.isfinite(hi):
            raise DomainError("profile support is not bounded above")
        return hi


@dataclass(frozen=True)
class AlgebraicCutoff(AmplitudeProfile):
    """Shape (e_max - e0)**alpha - |E - e0|**alpha, vanishing algebraically at e_max."""

    e0: float
    e_max: float
    alpha: float
    ln_scale: float = 0.0

    edge_order = 1

    def __post_init__(self):
        if not self.e_max > self.e0:
            raise ValueError("e_max must exceed e0")
        if not self.alpha > 0.0:
            raise ValueError("alpha must be positive")

    @property
    def _edge_pow(self) -> float:
        return (self.e_max - self.e0) ** self.alpha

    def support(self):
        return [(2.0 * self.e0 - self.e_max, self.e_max)]

    def knots(self):
        return (self.e0,)

    def ln_amp_sq(self, energy):
        e_arr = np.asarray(energy, dtype=float)
        u = np.abs(e_arr - self.e0)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            shape = self._edge_pow - u ** self.alpha
            positive = shape > 0.0
            vals = np.log(np.where(positive, shape, 1.0)) + self.ln_scale
        out = np.where(positive, vals, -np.inf)
        return _finish(e_arr, out)


@dataclass(frozen=True)
class ExponentialCutoff(AmplitudeProfile):
    """Shape exp(-(|E-e0|/e1)**gamma) minus its value at e_max, zero beyond.

    The difference of exponentials is taken through a stable log-space
    primitive; when the two terms cancel to working precision the value is
    -inf rather than garbage.
    """

    e0: float
    e1: float
    gamma_exp: float
    e_max: float
    ln_scale: float = 0.0

    edge_order = 1

    def __post_init__(self):
        if not self.e_max > self.e0:
            raise ValueError("e_max must exceed e0")
        if not self.e1 > 0.0:
            raise ValueError("e1 must be positive")
        if not self.gamma_exp > 0.0:
            raise ValueError("gamma must be positive")

    @property
    def _edge_exponent(self) -> float:
        return ((self.e_max - self.e0) / self.e1) ** self.gamma_exp

    def support(self):
        return [(2.0 * self.e0 - self.e_max, self.e_max)]

    def knots(self):
        return (self.e0,)

    def _stretched(self, e_arr):
        return (np.abs(e_arr - self.e0) / self.e1) ** self.gamma_exp

    def ln_amp_sq(self, energy):
        e_arr = np.asarray(energy, dtype=float)
        w = self._stretched(e_arr)
        inside = w < self._edge_exponent
        with np.errstate(divide="ignore", invalid="ignore"):
            gap = np.where(inside, w - self._edge_exponent, 0.0)
            vals = -w + log_one_minus_exp(gap) + self.ln_scale
        out = np.where(inside, vals, -np.inf)
        return _finish(e_arr, out)


@dataclass(frozen=True)
class ExponentialTail(AmplitudeProfile):
    """Stretched-exponential decay exp(-(E/delta)**kappa) on [0, inf)."""

    delta: float
    kappa: float
    ln_scale: float = 0.0

    def __post_init__(self):
        if not self.delta > 0.0:
            raise ValueError("delta must be positive")
        if not self.kappa > 0.0:
            raise ValueError("kappa must be positive")

    def support(self):
        return [(0.0, INF)]

    def ln_amp_sq(self, energy):
        return _on_interval(np.asarray(energy, dtype=float), (0.0, INF),
                            lambda e: self.ln_scale - (e / self.delta) ** self.kappa, 0.0)


@dataclass(frozen=True)
class AlgebraicTail(AmplitudeProfile):
    """Constant up to e_ref, then the power-law decay (E/e_ref)**(-decay)."""

    decay: float
    e_ref: float = 1.0
    ln_scale: float = 0.0

    def __post_init__(self):
        if not self.decay > 0.0:
            raise ValueError("decay exponent must be positive")
        if not self.e_ref > 0.0:
            raise ValueError("e_ref must be positive")

    def support(self):
        return [(0.0, INF)]

    def knots(self):
        return (self.e_ref,)

    def ln_amp_sq(self, energy):
        return _on_interval(np.asarray(energy, dtype=float), (0.0, INF), lambda e: self.ln_scale
                            - self.decay * np.log(np.maximum(e, self.e_ref) / self.e_ref), 0.0)


@dataclass(frozen=True)
class Lumps(AmplitudeProfile):
    """Flat shape on disjoint closed intervals: 0 on each, -inf between and outside them."""

    intervals: tuple

    def __post_init__(self):
        intervals = tuple((float(lo), float(hi)) for lo, hi in self.intervals)
        if not intervals:
            raise ValueError("need at least one lump")
        prev_hi = -INF
        for lo, hi in intervals:
            if not lo < hi:
                raise ValueError("lump interval [%g, %g] is empty" % (lo, hi))
            if lo <= prev_hi:
                raise ValueError("lump intervals must be sorted and pairwise disjoint")
            prev_hi = hi
        object.__setattr__(self, "intervals", intervals)

    @classmethod
    def uniform(cls, intervals):
        """Lumps flat on each of ``intervals``."""
        return cls(intervals)

    def support(self):
        return list(self.intervals)

    def ln_amp_sq(self, energy):
        e_arr = np.asarray(energy, dtype=float)
        least, most = e_arr.min(initial=INF), e_arr.max(initial=-INF)  # NaN when any is NaN
        if any(lo <= least and most <= hi for lo, hi in self.intervals):
            return _finish(e_arr, np.zeros(e_arr.shape))  # one lump holds every energy
        inside = np.zeros(e_arr.shape, dtype=bool)
        for lo, hi in self.intervals:
            inside |= (e_arr >= lo) & (e_arr <= hi)
        return _finish(e_arr, np.where(inside, 0.0, -np.inf))


def UniformWindow(e_min, e_max):
    """Flat shape on the closed interval [e_min, e_max]: the lumps profile of one interval."""
    if not e_max > e_min:
        raise ValueError("e_max must exceed e_min")
    return Lumps(((e_min, e_max),))


def profile_classes():
    """Mapping from variant name to profile class (a uniform window is a ``Lumps``)."""
    return {
        "algebraic-cutoff": AlgebraicCutoff,
        "exponential-cutoff": ExponentialCutoff,
        "exponential-tail": ExponentialTail,
        "algebraic-tail": AlgebraicTail,
        "lumps": Lumps,
    }
