"""Closed-form reference values used as independent test oracles.

Everything in here is exact arithmetic (fractions, gamma identities), a
direct enumeration, or a log-weight term as written with full masking;
none of it touches the quadrature code under test.
"""

import math
from fractions import Fraction
from itertools import product

import numpy as np


def monomial_window_moments(p, e_max=1):
    """Mean and standard deviation of the density ~ E**p on [0, e_max].

    Computed with exact rationals: mean = e_max (p+1)/(p+2) and
    var = e_max^2 (p+1) / ((p+3)(p+2)^2).
    """
    p = Fraction(p)
    e_max = Fraction(e_max)
    mean = e_max * (p + 1) / (p + 2)
    var = e_max ** 2 * (p + 1) / ((p + 3) * (p + 2) ** 2)
    return float(mean), math.sqrt(float(var))


def monomial_window_ratio(p, e_max=1):
    """width/mean of the density ~ E**p on [0, e_max]: 1/sqrt((p+1)(p+3))."""
    p = Fraction(p)
    return 1.0 / math.sqrt(float((p + 1) * (p + 3)))


def gamma_moments(shape, scale=1.0):
    """Mean and standard deviation of a Gamma density: (k*theta, sqrt(k)*theta)."""
    return shape * scale, math.sqrt(shape) * scale


def algebraic_tail_mean(p, eta):
    """Mean of the density E**p on [0, 1] continued as E**(p - eta) beyond 1.

    Requires eta > p + 2:
    mean = (1/(p+2) + 1/(eta-p-2)) / (1/(p+1) + 1/(eta-p-1)), in exact rationals.
    """
    p, eta = Fraction(p), Fraction(eta)
    first = 1 / (p + 2) + 1 / (eta - p - 2)
    mass = 1 / (p + 1) + 1 / (eta - p - 1)
    return float(first / mass)


def monomial_interval_mass(p, lo, hi):
    """Exact integral of E**p over [lo, hi] as a Fraction."""
    p = int(p)
    lo, hi = Fraction(lo), Fraction(hi)
    return (hi ** (p + 1) - lo ** (p + 1)) / (p + 1)


def two_lump_lower_fraction(p, lumps):
    """Exact probability of the lowest lump for flat lumps over density E**p."""
    masses = [monomial_interval_mass(p, lo, hi) for lo, hi in lumps]
    return float(masses[0] / sum(masses))


def enumerate_open_chain(n_sites, coupling=1.0):
    """Energy histogram of the open spin chain by brute-force enumeration.

    Returns sorted (energy, count) pairs over all 2**n_sites configurations;
    feasible for small n only and completely independent of the binomial
    construction under test.
    """
    counts = {}
    for spins in product((-1, 1), repeat=n_sites):
        energy = -coupling * sum(spins[i] * spins[i + 1] for i in range(n_sites - 1))
        counts[energy] = counts.get(energy, 0) + 1
    return sorted(counts.items())


# The log-weight terms as written with full masking, the reference for the
# unmasked evaluation of energies that all lie inside the domain or support.

def masked_ideal_gas_ln_density(model, energy):
    e = np.asarray(energy, dtype=float)
    safe = np.where(e > 0.0, e, 1.0)
    return np.where(e > 0.0, model.growth_exponent * np.log(safe) + model.ln_prefactor,
                    -np.inf)


def masked_exponential_tail_ln_amp_sq(profile, energy):
    e = np.asarray(energy, dtype=float)
    scaled = np.where(e >= 0.0, e, 0.0) / profile.delta
    return np.where(e >= 0.0, profile.ln_scale - scaled ** profile.kappa, -np.inf)


def masked_ising_chain_ln_density(model, energy):
    from scipy.special import gammaln
    e = np.asarray(energy, dtype=float)
    inside = (e >= model.band_bottom) & (e <= 0.0)
    k = np.where(inside, (e - model.band_bottom) / (2.0 * model.coupling), 0.0)
    n = model.n_particles
    vals = math.log(2.0) + gammaln(n) - gammaln(k + 1.0) - gammaln(n - k)
    return np.where(inside, vals, -np.inf)


def masked_custom_entropy_ln_density(model, energy):
    """Open at both ends of the domain; outside energies evaluate s at 1 per particle."""
    e = np.asarray(energy, dtype=float)
    lo, hi = model.domain()
    inside = (e > lo) & (e < hi)
    per = np.where(inside, e / model.n_particles, 1.0)
    vals = model.n_particles * np.asarray(model.entropy(per), dtype=float) + model.ln_prefactor
    return np.where(inside, vals, -np.inf)


def masked_algebraic_tail_ln_amp_sq(profile, energy):
    e = np.asarray(energy, dtype=float)
    beyond = e > profile.e_ref
    safe = np.where(beyond, e, profile.e_ref)
    vals = np.where(beyond, -profile.decay * np.log(safe / profile.e_ref), 0.0)
    return np.where(e >= 0.0, vals + profile.ln_scale, -np.inf)


def masked_lumps_ln_amp_sq(profile, energy):
    e = np.asarray(energy, dtype=float)
    inside = np.zeros(e.shape, dtype=bool)
    for lo, hi in profile.intervals:
        inside |= (e >= lo) & (e <= hi)
    return np.where(inside, 0.0, -np.inf)


def assert_bitwise_as_masked(evaluate, masked, probes):
    """``evaluate`` equals ``masked`` bit for bit on three kinds of input.

    ``probes`` is an array of energies, as a build probes an overlap piece:
    all inside the domain or support, or across one of its gaps or ends.
    It is passed whole and as the strided view of every second point that
    grid refinement passes.  The mixed array holds -1, both zeros, NaN,
    both infinities and a subnormal; the 0-d array and the Python float
    must come back as floats.
    """
    def bits(values):
        return np.asarray(values, dtype=float).view(np.uint64)

    for energies in (probes, probes[1::2]):
        np.testing.assert_array_equal(bits(evaluate(energies)), bits(masked(energies)))
    mixed = np.array([-1.0, -0.0, 0.0, np.nan, np.inf, -np.inf, 5e-324, 2.5])
    values = evaluate(mixed)
    np.testing.assert_array_equal(bits(values), bits(masked(mixed)))
    assert values[3] == -np.inf  # NaN is outside
    for scalar in (np.array(float(probes[0])), float(probes[0]), -1.0, math.nan):
        value = evaluate(scalar)
        assert type(value) is float
        assert bits(value) == bits(masked(scalar))
