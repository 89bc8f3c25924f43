import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sharpdist import (CustomEntropy, DiscreteSpectrum, DomainError,
                       ExponentialTail, IdealGas, IsingChain, build_distribution,
                       ising_chain_spectrum)
from sharpdist.numerics import log_sum_exp

from oracles import (assert_bitwise_as_masked, enumerate_open_chain,
                     masked_ideal_gas_ln_density)


def test_ideal_gas_ln_density_basics():
    gas = IdealGas(2)
    assert gas.ln_density(1.0) == 0.0
    gas100 = IdealGas(100)
    assert gas100.ln_density(2.0) == pytest.approx(150.0 * math.log(2.0), rel=1e-14)
    assert gas100.ln_density(0.0) == -math.inf
    assert gas100.ln_density(-1.0) == -math.inf


@pytest.mark.parametrize("n_particles, ln_prefactor", [(2, 0.0), (1000, -37.25), (77, 1e4)])
def test_ideal_gas_ln_density_unmasked_inside_the_domain(n_particles, ln_prefactor):
    """All-positive energies skip the masking and still give the masked values bitwise."""
    gas = IdealGas(n_particles, ln_prefactor)
    assert_bitwise_as_masked(gas.ln_density,
                             lambda e: masked_ideal_gas_ln_density(gas, e),
                             np.geomspace(5e-324, 1e300, 1001))


def test_custom_entropy_reproduces_ideal_gas():
    # same physical model built through the entropy route: the per-particle
    # log entropy plus the prefactor that undoes the E -> E/N rescaling
    n = 100
    gas = IdealGas(n)
    custom = CustomEntropy(n, entropy=lambda e: 1.5 * np.log(e),
                           entropy_d1=lambda e: 1.5 / e,
                           entropy_d2=lambda e: -1.5 / (e * e),
                           ln_prefactor=1.5 * n * math.log(n))
    for energy in (0.5, 1.0, 2.0, 7.5):
        assert custom.ln_density(energy) == pytest.approx(gas.ln_density(energy), rel=1e-12)
    assert custom.ln_density(2.0) == pytest.approx(103.972, abs=5e-4)


def test_custom_entropy_is_called_on_arrays():
    """ln_density calls the entropy once, on the array of per-particle energies.

    An entropy built on ``math`` rejects the array, and the build raises
    that error.
    """
    with pytest.raises(TypeError, match="scalar"):
        build_distribution(CustomEntropy(100, entropy=lambda e: 2.0 * math.sqrt(e)),
                           ExponentialTail(delta=1.0, kappa=1.0))


def test_ideal_gas_entropy_derivatives():
    gas = IdealGas(100)
    s, d1, d2 = gas.entropy_derivatives(3.0)
    assert d1 == pytest.approx(0.5)
    assert 1.0 / d1 == pytest.approx(2.0)  # temperature
    _, _, d2 = gas.entropy_derivatives(1.0)
    assert d2 == pytest.approx(-1.5)
    with pytest.raises(DomainError):
        gas.entropy_derivatives(0.0)


@pytest.mark.parametrize("ln_prefactor", [0.0, -2.5])
def test_ideal_gas_entropy_matches_ln_density(ln_prefactor):
    gas = IdealGas(100, ln_prefactor=ln_prefactor)
    for e in (1e-3, 0.7, 3.0, 1e4):
        s, _, _ = gas.entropy_derivatives(e)
        assert s == pytest.approx(gas.ln_density(100 * e) / 100, rel=1e-15, abs=1e-15)


@settings(derandomize=True, max_examples=100)
@given(st.floats(min_value=1e-6, max_value=1e6))
def test_ideal_gas_doubling_identity(energy):
    gas = IdealGas(100)
    diff = gas.ln_density(2.0 * energy) - gas.ln_density(energy)
    assert diff == pytest.approx(150.0 * math.log(2.0), rel=1e-12)


@pytest.mark.parametrize("n_sites", [2, 3, 4, 5, 8])
def test_ising_spectrum_matches_enumeration(n_sites):
    """Binomial degeneracies vs brute-force enumeration of all 2**n configs."""
    spectrum = ising_chain_spectrum(n_sites, 1.0)
    expected = enumerate_open_chain(n_sites, 1.0)
    assert len(spectrum) == len(expected)
    for (e_level, ln_g), (e_exp, count) in zip(
            zip(spectrum.energies, spectrum.ln_degeneracies), expected):
        assert e_level == pytest.approx(e_exp)
        assert ln_g == pytest.approx(math.log(count), rel=1e-12)


def test_ising_spectrum_small_examples():
    s2 = ising_chain_spectrum(2, 1.0)
    assert list(s2.energies) == [-1.0, 1.0]
    assert list(s2.ln_degeneracies) == pytest.approx([math.log(2)] * 2)
    s3 = ising_chain_spectrum(3, 1.0)
    assert list(s3.energies) == [-2.0, 0.0, 2.0]
    assert list(s3.ln_degeneracies) == pytest.approx(
        [math.log(2), math.log(4), math.log(2)])


@pytest.mark.parametrize("n_sites", [2, 17, 1000, 100000])
def test_ising_total_count(n_sites):
    spectrum = ising_chain_spectrum(n_sites, 0.7)
    total_ln_count = log_sum_exp(spectrum.ln_degeneracies)
    assert total_ln_count == pytest.approx(n_sites * math.log(2.0), rel=1e-12)


@settings(derandomize=True, max_examples=50)
@given(st.integers(min_value=2, max_value=400),
       st.floats(min_value=0.1, max_value=10.0))
def test_ising_spectrum_symmetry(n_sites, coupling):
    spectrum = ising_chain_spectrum(n_sites, coupling)
    e = np.asarray(spectrum.energies)
    g = np.asarray(spectrum.ln_degeneracies)
    np.testing.assert_allclose(e + e[::-1], 0.0, atol=1e-9)
    np.testing.assert_allclose(g, g[::-1], rtol=1e-12)


def test_ising_midpoint_temperature_boundary():
    """ds/de vanishes at the band center, checked against a finite difference
    of the exact discrete log-degeneracy curve (symmetric, so the centered
    difference is exactly zero)."""
    n = 1001  # odd so the band center is a level
    spectrum = ising_chain_spectrum(n, 1.0)
    mid = (n - 1) // 2
    fd = (spectrum.ln_degeneracies[mid + 1] - spectrum.ln_degeneracies[mid - 1]) / (
        spectrum.energies[mid + 1] - spectrum.energies[mid - 1])
    assert fd == 0.0
    model = IsingChain(n, 1.0)
    _, d1, d2 = model.entropy_derivatives(0.0)
    assert abs(d1) < 1e-12
    assert d2 < 0.0


def test_ising_model_matches_spectrum_on_levels():
    n = 50
    spectrum = ising_chain_spectrum(n, 1.0)
    model = IsingChain(n, 1.0)
    for e_level, ln_g in zip(spectrum.energies, spectrum.ln_degeneracies):
        if e_level <= 0.0:
            assert model.ln_density(float(e_level)) == pytest.approx(float(ln_g), rel=1e-12)
    assert model.ln_density(1.0) == -math.inf  # negative-temperature side excluded


def test_custom_entropy_fd_matches_analytic():
    """Finite-difference fallback agrees with supplied derivatives.

    First derivatives meet 1e-6 relative outright.  The centered second
    difference at step 1e-5*e carries an irreducible rounding noise of
    about eps * |s| / h^2, so its bound includes that floor.
    """
    analytic = CustomEntropy(10, entropy=lambda e: 2.0 * e ** 0.5,
                             entropy_d1=lambda e: e ** -0.5,
                             entropy_d2=lambda e: -0.5 * e ** -1.5)
    fallback = CustomEntropy(10, entropy=lambda e: 2.0 * e ** 0.5)
    for e in (0.3, 1.0, 4.7, 120.0):
        s, d1a, d2a = analytic.entropy_derivatives(e)
        _, d1f, d2f = fallback.entropy_derivatives(e)
        assert d1f == pytest.approx(d1a, rel=1e-6)
        noise = 4.0 * 2.3e-16 * abs(s) / (1e-5 * e) ** 2
        assert d2f == pytest.approx(d2a, rel=1e-6, abs=noise)


def test_spectrum_validation():
    with pytest.raises(ValueError):
        ising_chain_spectrum(1, 1.0)
    with pytest.raises(ValueError):
        DiscreteSpectrum(np.array([0.0, 0.0]), np.array([0.0, 0.0]))
    with pytest.raises(ValueError):
        DiscreteSpectrum(np.array([1.0, 0.0]), np.array([0.0, 0.0]))
