"""Density-of-states models and exact discrete spectra.

All energies are dimensionless with k_B = 1.  Log state counts are defined
only up to an additive constant (the shell-width convention is absorbed at
normalization), so every normalized quantity downstream is unaffected by
the prefactor choices made here.

Models expose three things: ``ln_density(E)`` for the total system,
``entropy_derivatives(e)`` per particle (s, ds/de, d2s/de2), and a
``domain()`` interval outside which ``ln_density`` is -inf.  The two views
are tied together by ln_density(E) = N * s(E/N) + const.

``scipy.special`` supplies log-gamma and its derivatives for the spin
chain only; it is imported where the chain uses it, so ``import sharpdist``
does not load scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError
from .numerics import LN2, _finish, _on_half_line, central_difference

# relative step for finite-difference entropy derivatives of custom models
FD_RELATIVE_STEP = 1e-5


@dataclass(frozen=True)
class DiscreteSpectrum:
    """Exact (energy level, log-degeneracy) pairs of a finite system."""

    energies: np.ndarray
    ln_degeneracies: np.ndarray

    def __post_init__(self):
        e = np.asarray(self.energies, dtype=float)
        g = np.asarray(self.ln_degeneracies, dtype=float)
        if e.ndim != 1 or e.shape != g.shape or e.size == 0:
            raise ValueError("energies and ln_degeneracies must be equal-length 1-d arrays")
        if np.any(np.diff(e) <= 0.0):
            raise ValueError("energy levels must be strictly increasing")
        e.setflags(write=False)
        g.setflags(write=False)
        object.__setattr__(self, "energies", e)
        object.__setattr__(self, "ln_degeneracies", g)

    def __len__(self):
        return self.energies.size


def ising_chain_spectrum(n_particles: int, coupling: float = 1.0) -> DiscreteSpectrum:
    """Exact spectrum of the open, zero-field spin chain with nearest-neighbor coupling.

    With n sites there are n-1 bonds; k broken bonds give the level
    E_k = -J(n-1) + 2Jk with degeneracy 2 * C(n-1, k) (the 2 is the global
    spin flip).  Degeneracies are computed through log-gamma, so sizes up
    to ~1e6 sites are safe from overflow.
    """
    if n_particles < 2:
        raise ValueError("chain needs at least 2 sites")
    if coupling <= 0.0:
        raise ValueError("coupling must be positive")
    from scipy.special import gammaln
    k = np.arange(n_particles, dtype=float)
    energies = -coupling * (n_particles - 1) + 2.0 * coupling * k
    ln_g = LN2 + gammaln(n_particles) - gammaln(k + 1.0) - gammaln(n_particles - k)
    return DiscreteSpectrum(energies, ln_g)


@dataclass(frozen=True)
class IdealGas:
    """Monoatomic dilute gas: state count grows as E**(3N/2).

    ``ln_prefactor`` is the E-independent additive constant; it cancels in
    every normalized distribution and is kept only for entropy evaluation.
    """

    n_particles: int
    ln_prefactor: float = 0.0
    kind: str = field(default="ideal-gas", init=False, repr=False)

    def __post_init__(self):
        if self.n_particles < 2:
            raise ValueError("need at least 2 particles")

    @property
    def growth_exponent(self) -> float:
        return 1.5 * self.n_particles

    def domain(self):
        return (0.0, math.inf)

    def ln_density(self, energy):
        return _on_half_line(np.asarray(energy, dtype=float), False,
                             lambda e: self.growth_exponent * np.log(e) + self.ln_prefactor,
                             1.0)

    def entropy_derivatives(self, e: float):
        e = float(e)
        if e <= 0.0:
            raise DomainError("energy per particle must be positive")
        n = self.n_particles
        s = (self.growth_exponent * math.log(n * e) + self.ln_prefactor) / n
        return s, 1.5 / e, -1.5 / (e * e)


@dataclass(frozen=True)
class IsingChain:
    """Continuum view of the open chain: exact log-degeneracies interpolated in E.

    The bond-count index k = (E + J(n-1)) / (2J) is continued to real values
    through log-gamma, which passes exactly through every discrete level and
    is monotone on the positive-temperature half of the band.  The model
    domain is that half, [-J(n-1), 0]; the negative-temperature branch is
    only reachable through the discrete spectrum.
    """

    n_particles: int
    coupling: float = 1.0
    kind: str = field(default="ising-chain", init=False, repr=False)

    def __post_init__(self):
        if self.n_particles < 2:
            raise ValueError("chain needs at least 2 sites")
        if self.coupling <= 0.0:
            raise ValueError("coupling must be positive")

    @property
    def band_bottom(self) -> float:
        return -self.coupling * (self.n_particles - 1)

    def domain(self):
        return (self.band_bottom, 0.0)

    def _bond_index(self, e_arr):
        return (e_arr - self.band_bottom) / (2.0 * self.coupling)

    def ln_density(self, energy):
        from scipy.special import gammaln
        e_arr = np.asarray(energy, dtype=float)
        inside = (e_arr >= self.band_bottom) & (e_arr <= 0.0)
        k = np.where(inside, self._bond_index(e_arr), 0.0)
        n = self.n_particles
        vals = LN2 + gammaln(n) - gammaln(k + 1.0) - gammaln(n - k)
        out = np.where(inside, vals, -np.inf)
        return _finish(e_arr, out)

    def entropy_derivatives(self, e: float):
        from scipy.special import polygamma, psi
        e = float(e)
        energy = self.n_particles * e
        if not self.band_bottom <= energy <= 0.0:
            raise DomainError("energy outside the positive-temperature band")
        n = self.n_particles
        k = self._bond_index(np.asarray(energy, dtype=float))
        two_j = 2.0 * self.coupling
        s = float(self.ln_density(energy)) / n
        d_ln_g = (psi(n - k) - psi(k + 1.0)) / two_j
        d2_ln_g = -(polygamma(1, n - k) + polygamma(1, k + 1.0)) / (two_j * two_j)
        return s, float(d_ln_g), n * float(d2_ln_g)


@dataclass(frozen=True)
class CustomEntropy:
    """User-supplied entropy per particle s(e) with optional analytic derivatives.

    ``entropy`` must accept numpy arrays: ``ln_density`` calls it once on
    the array of per-particle energies (a scalar result broadcasts), and a
    callable that rejects arrays raises its own error.  The derivatives are
    called on floats; missing ones fall back to centered finite differences
    at a relative step of 1e-5, which is stable enough for the curvature
    terms entering width predictions.  The domain is given per particle.
    """

    n_particles: int
    entropy: Callable[[np.ndarray], np.ndarray]
    entropy_d1: Callable[[float], float] | None = None
    entropy_d2: Callable[[float], float] | None = None
    domain_per_particle: tuple = (0.0, math.inf)
    ln_prefactor: float = 0.0
    kind: str = field(default="custom-entropy", init=False, repr=False)

    def __post_init__(self):
        if self.n_particles < 2:
            raise ValueError("need at least 2 particles")
        lo, hi = self.domain_per_particle
        if not lo < hi:
            raise ValueError("empty entropy domain")

    def domain(self):
        lo, hi = self.domain_per_particle
        return (self.n_particles * lo, self.n_particles * hi)

    def ln_density(self, energy):
        e_arr = np.asarray(energy, dtype=float)
        lo, hi = self.domain()
        inside = (e_arr > lo) & (e_arr < hi)
        per = np.where(inside, e_arr / self.n_particles, 1.0)
        vals = self.n_particles * np.asarray(self.entropy(per), dtype=float) + self.ln_prefactor
        out = np.where(inside, vals, -np.inf)
        return _finish(e_arr, out)

    def entropy_derivatives(self, e: float):
        e = float(e)
        lo, hi = self.domain_per_particle
        if not lo < e < hi:
            raise DomainError("energy per particle outside the model domain")
        s = float(self.entropy(e))
        if self.entropy_d1 is not None and self.entropy_d2 is not None:
            return s, float(self.entropy_d1(e)), float(self.entropy_d2(e))
        step = FD_RELATIVE_STEP * (abs(e) if e != 0.0 else 1.0)
        d1, d2 = central_difference(lambda t: float(self.entropy(t)), e, step)
        if self.entropy_d1 is not None:
            d1 = float(self.entropy_d1(e))
        if self.entropy_d2 is not None:
            d2 = float(self.entropy_d2(e))
        return s, d1, d2
