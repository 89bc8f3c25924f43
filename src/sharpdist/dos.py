"""Density-of-states models and exact discrete spectra.

All energies are dimensionless with k_B = 1.  Log state counts are defined
only up to an additive constant (the shell-width convention is absorbed at
normalization), so every normalized quantity downstream is unaffected by
the prefactor choices made here.

Models expose three things: ``ln_density(E)`` for the total system,
``entropy_slopes(e)`` per particle (ds/de, d2s/de2), and a ``domain()``
interval outside which ``ln_density`` is -inf (the interval mask of
``numerics``: open at 0 for the gas, at both ends for a custom entropy).
The two views are tied together by ln_density(E) = N * s(E/N) + const.
Both take a float or an array and give floats for a float; the slopes do
not check the domain.

``scipy.special`` supplies log-gamma and its derivatives for the spin
chain only; it is imported where the chain uses it, so ``import sharpdist``
does not load scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .numerics import LN2, _finish, _float_or_array, _on_interval


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

    def __post_init__(self):
        if self.n_particles < 2:
            raise ValueError("need at least 2 particles")

    @property
    def growth_exponent(self) -> float:
        return 1.5 * self.n_particles

    def domain(self):
        return (0.0, math.inf)

    def ln_density(self, energy):
        return _on_interval(np.asarray(energy, dtype=float), self.domain(),
                            lambda e: self.growth_exponent * np.log(e) + self.ln_prefactor,
                            1.0, open_lo=True)

    def entropy_slopes(self, e):
        e = _float_or_array(e)
        return 1.5 / e, -1.5 / (e * e)


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
        n = self.n_particles

        def ln_g(e):
            k = self._bond_index(e)
            return LN2 + gammaln(n) - gammaln(k + 1.0) - gammaln(n - k)
        return _on_interval(np.asarray(energy, dtype=float), self.domain(), ln_g,
                            self.band_bottom)

    def entropy_slopes(self, e):
        from scipy.special import polygamma, psi
        e_arr = np.asarray(e, dtype=float)
        n = self.n_particles
        k = self._bond_index(n * e_arr)
        two_j = 2.0 * self.coupling
        d_ln_g = (psi(n - k) - psi(k + 1.0)) / two_j
        d2_ln_g = -(polygamma(1, n - k) + polygamma(1, k + 1.0)) / (two_j * two_j)
        return _finish(e_arr, d_ln_g), _finish(e_arr, n * d2_ln_g)


@dataclass(frozen=True)
class CustomEntropy:
    """User-supplied entropy per particle s(e) with its first two derivatives.

    All three must accept numpy arrays: ``ln_density`` calls ``entropy``
    once on the array of per-particle energies (a scalar result
    broadcasts), and a callable that rejects arrays raises its own error.
    ``entropy_slopes`` calls the derivatives on a Python float for a
    float, and on the whole array for an array.  The domain is given per
    particle.
    """

    n_particles: int
    entropy: Callable[[np.ndarray], np.ndarray]
    entropy_d1: Callable[[np.ndarray], np.ndarray]
    entropy_d2: Callable[[np.ndarray], np.ndarray]
    domain_per_particle: tuple = (0.0, math.inf)
    ln_prefactor: float = 0.0

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
        n = self.n_particles

        def ln_g(e):
            vals = n * np.asarray(self.entropy(e / n), dtype=float) + self.ln_prefactor
            return vals if vals.shape == e.shape else np.full(e.shape, vals)  # a scalar broadcasts
        # outside energies are evaluated at e = 1 per particle
        return _on_interval(np.asarray(energy, dtype=float), self.domain(), ln_g, float(n),
                            open_lo=True, open_hi=True)

    def entropy_slopes(self, e):
        e = _float_or_array(e)
        return _float_or_array(self.entropy_d1(e)), _float_or_array(self.entropy_d2(e))
