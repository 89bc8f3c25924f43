import math

import numpy as np
import pytest

from sharpdist import (AlgebraicCutoff, EmptyOverlapError, ExponentialCutoff,
                       IsingChain, UniformWindow, compare_discrete_continuum,
                       evolve_phases, expectation_of_energy_function,
                       ising_chain_spectrum, prepare_state, state_moments)


def band_profile(n_sites, coupling=1.0):
    """Gaussian-like bump sitting inside the positive-temperature half band,
    with every energy scale proportional to the band width."""
    band = coupling * (n_sites - 1)
    return ExponentialCutoff(e0=-0.5 * band, e1=0.15 * band, gamma_exp=2.0,
                             e_max=-0.2 * band)


def compare_chain(n_sites, profile):
    """The discrete-continuum report of ``profile`` on the open chain of n_sites, J = 1."""
    state = prepare_state(ising_chain_spectrum(n_sites, 1.0), profile)
    return compare_discrete_continuum(state, profile, IsingChain(n_sites, 1.0))


def test_prepare_state_small_chain_weights():
    spectrum = ising_chain_spectrum(2, 1.0)
    state = prepare_state(spectrum, UniformWindow(-2.0, 2.0))
    np.testing.assert_allclose(np.exp(state.ln_weights), [0.5, 0.5], rtol=1e-12)

    spectrum3 = ising_chain_spectrum(3, 1.0)
    state3 = prepare_state(spectrum3, UniformWindow(-2.5, 2.5))
    np.testing.assert_allclose(np.exp(state3.ln_weights), [0.25, 0.5, 0.25], rtol=1e-12)


def test_window_excluding_top_level_gives_zero_weight():
    spectrum = ising_chain_spectrum(3, 1.0)
    state = prepare_state(spectrum, UniformWindow(-2.5, 1.0))
    assert state.ln_weights[-1] == -math.inf
    assert np.exp(state.ln_weights[-1]) == 0.0
    assert state.populated_levels == 2


def test_prepare_state_empty_overlap():
    spectrum = ising_chain_spectrum(3, 1.0)
    with pytest.raises(EmptyOverlapError):
        prepare_state(spectrum, UniformWindow(5.0, 6.0))


def test_expectations_full_window_chain():
    spectrum = ising_chain_spectrum(3, 1.0)
    state = prepare_state(spectrum, UniformWindow(-2.5, 2.5))
    assert expectation_of_energy_function(state, lambda e: e) == pytest.approx(0.0, abs=1e-15)
    assert expectation_of_energy_function(state, lambda e: e * e) == pytest.approx(2.0, rel=1e-12)
    assert expectation_of_energy_function(state, lambda e: 1.0) == pytest.approx(1.0, abs=1e-15)


def test_normalization_after_prepare_and_evolve():
    from scipy.special import logsumexp
    spectrum = ising_chain_spectrum(64, 1.0)
    state = prepare_state(spectrum, band_profile(64), phase_seed=3)
    assert abs(logsumexp(state.ln_weights)) < 1e-12
    evolved = evolve_phases(state, 17.3)
    assert abs(logsumexp(evolved.ln_weights)) < 1e-12


def test_evolution_identity_at_zero_time():
    spectrum = ising_chain_spectrum(10, 1.0)
    state = prepare_state(spectrum, UniformWindow(-9.0, 0.0), phase_seed=5)
    same = evolve_phases(state, 0.0)
    np.testing.assert_array_equal(same.phases, state.phases)
    np.testing.assert_array_equal(same.ln_weights, state.ln_weights)


def test_evolution_composes_additively_mod_two_pi():
    spectrum = ising_chain_spectrum(12, 1.0)
    state = prepare_state(spectrum, UniformWindow(-11.0, 0.0), phase_seed=7)
    a = evolve_phases(evolve_phases(state, 1.3), 2.9)
    b = evolve_phases(state, 1.3 + 2.9)
    two_pi = 2.0 * math.pi
    diff = np.mod(a.phases - b.phases + math.pi, two_pi) - math.pi
    np.testing.assert_allclose(diff, 0.0, atol=1e-9)


def test_moments_stationary_under_evolution():
    spectrum = ising_chain_spectrum(40, 1.0)
    for seed in range(8):
        state = prepare_state(spectrum, band_profile(40), phase_seed=seed)
        mean0, width0 = state_moments(state)
        for t in (0.1, 3.7, 120.0):
            evolved = evolve_phases(state, t)
            mean1, width1 = state_moments(evolved)
            assert abs(mean1 - mean0) <= 1e-12
            assert abs(width1 - width0) <= 1e-12


def test_expectation_order_independent():
    """fsum is exactly rounded, so any summation order gives the identical
    float; this is the point of using compensated summation here."""
    spectrum = ising_chain_spectrum(200, 1.0)
    state = prepare_state(spectrum, band_profile(200), phase_seed=0)
    mean = expectation_of_energy_function(state, lambda e: e)
    terms = np.exp(state.ln_weights) * np.asarray(spectrum.energies)
    rng = np.random.default_rng(42)
    for _ in range(5):
        order = rng.permutation(terms.size)
        assert math.fsum(terms[order]) == mean
    # f is called once on the level array; calling it per level gives the same sum
    per_level = np.array([(e - mean) ** 2 for e in spectrum.energies.tolist()])
    assert (expectation_of_energy_function(state, lambda e: (e - mean) ** 2)
            == math.fsum(np.exp(state.ln_weights) * per_level))


def test_compare_discrete_continuum_dense_chain():
    report = compare_chain(1000, band_profile(1000))
    assert report.mean_rel_diff < 1e-2
    assert report.width_rel_diff < 1e-2
    assert not report.sub_resolution


def test_compare_discrete_continuum_sparse_chain_degrades():
    dense = compare_chain(1000, band_profile(1000))
    sparse = compare_chain(10, band_profile(10))
    dense_disc = max(dense.mean_rel_diff, dense.width_rel_diff)
    sparse_disc = max(sparse.mean_rel_diff, sparse.width_rel_diff)
    assert sparse_disc > 10.0 * dense_disc


def test_compare_single_level_window_flagged_sub_resolution():
    report = compare_chain(10, UniformWindow(-5.5, -4.5))
    assert report.populated_levels == 1
    assert report.width_discrete == 0.0
    assert report.sub_resolution


def test_weights_depend_on_energy_only():
    """Two levels sharing an energy-dependent profile value keep the same
    weight per state: synthetic spectrum with equal degeneracies at mirror
    energies under a symmetric profile."""
    from sharpdist import DiscreteSpectrum
    spectrum = DiscreteSpectrum(np.array([-1.0, 0.0, 1.0]),
                                np.log(np.array([2.0, 4.0, 2.0])))
    profile = AlgebraicCutoff(e0=0.0, e_max=2.0, alpha=2.0)
    state = prepare_state(spectrum, profile)
    w = np.exp(state.ln_weights)
    # per-state weight = lump weight / degeneracy must match at equal |a(E)|^2
    assert w[0] / 2.0 == pytest.approx(w[2] / 2.0, rel=1e-12)
