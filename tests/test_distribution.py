import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sharpdist import (AlgebraicTail, CustomEntropy, DivergenceError,
                       DomainError, EmptyOverlapError, ExponentialTail,
                       GridPolicy, IdealGas, Lumps, UniformWindow,
                       bounded_profile_prediction, build_distribution,
                       lump_mass_fractions, microcanonical_entropy, moments,
                       peak, refine_once, summarize, tail_profile_prediction)
from sharpdist.numerics import compensated_sum

from oracles import (gamma_moments, monomial_window_moments,
                     two_lump_lower_fraction)


def build_checked(model, profile, policy=None):
    """Build and assert the normalization invariant every test relies on."""
    dist = build_distribution(model, profile, policy) if policy else build_distribution(model, profile)
    assert dist.normalization_residual() < 1e-9
    return dist


def flat_model(n=2):
    return CustomEntropy(n, entropy=lambda e, v: 0.0,
                         entropy_d1=lambda e, v: 0.0,
                         entropy_d2=lambda e, v: 0.0)


def test_uniform_window_monomial_normalization():
    dist = build_checked(IdealGas(100), UniformWindow(0.0, 1.0))
    # density ~ E**150 on [0, 1] integrates to 1/151
    assert dist.ln_norm == pytest.approx(math.log(1.0 / 151.0), abs=1e-8)
    mean, width = moments(dist)
    mean_ref, width_ref = monomial_window_moments(150)
    assert mean == pytest.approx(mean_ref, rel=1e-6)
    assert width == pytest.approx(width_ref, rel=1e-6)


def test_pointwise_identity_on_grid():
    dist = build_checked(IdealGas(100), UniformWindow(0.0, 1.0))
    direct = (dist.profile.ln_amp_sq(dist.grid)
              + dist.model.ln_density(dist.grid) - dist.ln_norm)
    finite = np.isfinite(dist.ln_w)
    np.testing.assert_array_equal(dist.ln_w[finite], direct[finite])


@pytest.mark.parametrize("n_particles", [10, 100, 1000])
def test_gamma_oracle_moments(n_particles):
    dist = build_checked(IdealGas(n_particles), ExponentialTail(delta=1.0, kappa=1.0))
    mean, width = moments(dist)
    mean_ref, width_ref = gamma_moments(1.5 * n_particles + 1)
    assert mean == pytest.approx(mean_ref, rel=1e-6)
    assert width == pytest.approx(width_ref, rel=1e-6)


def test_gamma_normalization_constant():
    from scipy.special import gammaln
    dist = build_checked(IdealGas(100), ExponentialTail(delta=1.0, kappa=1.0))
    assert dist.ln_norm == pytest.approx(float(gammaln(151.0)), abs=1e-8)


def test_two_narrow_lumps_are_point_masses():
    lumps = Lumps.uniform([(0.999, 1.001), (1.999, 2.001)])
    dist = build_checked(flat_model(), lumps)
    fractions = lump_mass_fractions(dist)
    assert fractions[0] == pytest.approx(0.5, abs=1e-6)
    assert fractions[1] == pytest.approx(0.5, abs=1e-6)
    mean, _ = moments(dist)
    assert mean == pytest.approx(1.5, rel=1e-9)  # midpoint of the lump centers


def test_peak_gamma_mode():
    dist = build_checked(IdealGas(100), ExponentialTail(delta=1.0, kappa=1.0))
    pk = peak(dist)
    assert not pk.at_boundary
    assert pk.energy == pytest.approx(150.0, rel=1e-6)


def test_peak_boundary_flag_for_uniform_window():
    dist = build_checked(IdealGas(100), UniformWindow(0.0, 1.0))
    pk = peak(dist)
    assert pk.at_boundary
    assert pk.energy == 1.0


def test_peak_stretched_tail():
    dist = build_checked(IdealGas(100), ExponentialTail(delta=1.0, kappa=2.0))
    pk = peak(dist)
    assert pk.energy == pytest.approx(math.sqrt(75.0), rel=1e-6)


@pytest.mark.parametrize("kappa", [1.0, 2.0, 3.0])
def test_peak_matches_stationarity_root(kappa):
    """Numeric peak against the independently solved stationarity condition."""
    model = IdealGas(100)
    profile = ExponentialTail(delta=1.0, kappa=kappa)
    dist = build_checked(model, profile)
    pred = tail_profile_prediction(model, profile)
    pk = peak(dist)
    assert abs(pk.energy - pred.mean) / pred.mean < 1e-6


def test_bounded_prediction_values():
    pred = bounded_profile_prediction(IdealGas(100), UniformWindow(0.0, 1.0))
    assert pred.eps == pytest.approx(1.0 / 150.0, rel=1e-12)
    assert pred.mean == pytest.approx(1.0 - 1.0 / 150.0, rel=1e-12)
    assert pred.width == pred.eps
    pred2 = bounded_profile_prediction(IdealGas(1000), UniformWindow(0.0, 1.0))
    assert pred2.eps == pytest.approx(1.0 / 1500.0, rel=1e-12)
    # the shift is a vanishing fraction of the edge as N grows
    assert pred2.eps < pred.eps / 9.9


def test_bounded_prediction_requires_bounded_profile():
    from sharpdist import DomainError
    with pytest.raises(DomainError):
        bounded_profile_prediction(IdealGas(100), ExponentialTail(delta=1.0, kappa=1.0))


def test_bounded_prediction_asymptotics_large_n():
    n = 10_000
    dist = build_checked(IdealGas(n), UniformWindow(0.0, 1.0))
    mean, _ = moments(dist)
    pred = bounded_profile_prediction(IdealGas(n), UniformWindow(0.0, 1.0))
    assert (1.0 - mean) / pred.eps == pytest.approx(1.0, abs=0.02)


def test_tail_prediction_exponential():
    model = IdealGas(100)
    pred = tail_profile_prediction(model, ExponentialTail(delta=1.0, kappa=1.0))
    assert pred.mean == pytest.approx(150.0, rel=1e-10)
    assert pred.width == pytest.approx(math.sqrt(150.0), rel=1e-10)
    pred2 = tail_profile_prediction(model, ExponentialTail(delta=1.0, kappa=2.0))
    assert pred2.mean == pytest.approx(math.sqrt(75.0), rel=1e-10)
    dist = build_checked(model, ExponentialTail(delta=1.0, kappa=2.0))
    _, width = moments(dist)
    assert pred2.width == pytest.approx(width, rel=0.05)


def test_tail_prediction_rejects_other_profiles():
    with pytest.raises(ValueError):
        tail_profile_prediction(IdealGas(100), UniformWindow(0.0, 1.0))


def test_microcanonical_entropy_values():
    gas = IdealGas(100)
    assert microcanonical_entropy(gas, 151.0) == pytest.approx(150.0 * math.log(151.0), rel=1e-12)
    assert microcanonical_entropy(gas, 1.0) == 0.0
    from sharpdist import IsingChain
    chain = IsingChain(1000, 1.0)
    s_mid = microcanonical_entropy(chain, 0.0)
    n_ln2 = 1000.0 * math.log(2.0)
    assert s_mid < n_ln2
    assert n_ln2 - s_mid < 10.0 * math.log(1000.0)


def test_lump_fractions_two_lump_concentration():
    lumps = Lumps.uniform([(0.0, 0.5), (0.8, 1.0)])
    dist = build_checked(IdealGas(100), lumps)
    fractions = lump_mass_fractions(dist)
    ref = two_lump_lower_fraction(150, [(0.0, 0.5), (0.8, 1.0)])
    assert fractions[0] == pytest.approx(ref, rel=1e-6)
    assert fractions[0] < 1e-40
    assert sum(fractions) == pytest.approx(1.0, abs=1e-9)


def test_single_lump_fraction_is_one():
    dist = build_checked(IdealGas(100), Lumps.uniform([(0.2, 0.9)]))
    assert lump_mass_fractions(dist) == [pytest.approx(1.0, abs=1e-9)]


@settings(derandomize=True, max_examples=60, deadline=None)
@given(lo=st.floats(min_value=0.0, max_value=1.0),
       widths=st.tuples(st.floats(min_value=0.01, max_value=1.0),
                        st.floats(min_value=0.01, max_value=1.0),
                        st.floats(min_value=0.01, max_value=1.0)),
       n_particles=st.integers(min_value=2, max_value=1000))
def test_segment_and_point_masses_share_one_trapezoid_rule(lo, widths, n_particles):
    """Segment masses, point masses and lump fractions all integrate to 1."""
    w0, gap, w1 = widths
    lumps = Lumps.uniform([(lo, lo + w0), (lo + w0 + gap, lo + w0 + gap + w1)])
    policy = GridPolicy(initial_points=65, max_points=1025)
    dist = build_distribution(IdealGas(n_particles), lumps, policy)
    segment_total = math.fsum(math.exp(lm) for lm in dist.segment_ln_masses())
    assert abs(segment_total - 1.0) < 1e-12
    assert abs(segment_total - compensated_sum(dist.point_masses)) < 1e-12
    assert abs(math.fsum(lump_mass_fractions(dist)) - 1.0) < 1e-12


# first-level grid step of a flat weight on [0.25, 1], whose build converges
# after one refinement; a band of half-width H/2048 around a grid point holds
# no other point of any level up to the default cap
_H = 0.75 / 4096


@pytest.mark.parametrize("profile, band", [
    (Lumps.uniform([(0.0, 0.5), (0.8, 1.0)]), (0.0, 0.5)),
    (UniformWindow(0.25, 1.0), (0.25 + (1001 - 1 / 2048) * _H, 0.25 + (1001 + 1 / 2048) * _H)),
    (UniformWindow(0.25, 1.0), (0.25 + (1001.5 - 1 / 2048) * _H, 0.25 + (1001.5 + 1 / 2048) * _H)),
], ids=["peak-scan", "first-level", "refinement-midpoints"])
def test_nan_log_weight_raises_domain_error(profile, band):
    """A NaN log-weight fails loudly at the first NaN energy, never reads as -inf.

    The first band is a whole lump, met by the peak scan (it used to come
    back with lump fraction 0).  The second holds one first-level grid point
    between scan points; the third holds one midpoint of the first
    refinement and no other grid point.
    """
    lo, hi = band
    model = CustomEntropy(2, entropy=lambda e, v: np.where((lo < 2.0 * e) & (2.0 * e < hi),
                                                           np.nan, 0.0))
    with pytest.raises(DomainError, match="NaN") as info:
        build_distribution(model, profile)
    energy = float(str(info.value).rsplit("=", 1)[1])
    assert lo < energy < hi


def test_lump_fractions_require_lumps_profile():
    dist = build_checked(IdealGas(100), UniformWindow(0.0, 1.0))
    with pytest.raises(ValueError):
        lump_mass_fractions(dist)


@pytest.mark.parametrize("shift", [-3.0, 0.5, 7.0])
def test_normalization_invariance_under_constant_shifts(shift):
    """Shifting ln K or ln C moves ln_norm by the same constant and nothing else."""
    base_model = IdealGas(100)
    base_profile = ExponentialTail(delta=1.0, kappa=1.0)
    ref = build_checked(base_model, base_profile)
    shifted = build_checked(IdealGas(100, ln_prefactor=shift),
                            ExponentialTail(delta=1.0, kappa=1.0, ln_scale=shift))
    assert shifted.ln_norm == pytest.approx(ref.ln_norm + 2.0 * shift, abs=1e-10)
    np.testing.assert_allclose(shifted.ln_w, ref.ln_w, atol=1e-12, rtol=0.0)
    m0, w0 = moments(ref)
    m1, w1 = moments(shifted)
    assert m1 == pytest.approx(m0, rel=1e-12)
    assert w1 == pytest.approx(w0, rel=1e-12)
    assert peak(shifted).energy == pytest.approx(peak(ref).energy, rel=1e-12)


def test_width_stable_under_grid_refinement():
    """A 4x denser grid moves the width by less than 1e-6 relative."""
    model = IdealGas(100)
    gamma_dist = build_checked(model, ExponentialTail(delta=1.0, kappa=1.0))
    _, w0 = moments(gamma_dist)
    _, w1 = moments(refine_once(gamma_dist, factor=4))
    assert abs(w1 - w0) / w0 < 1e-6

    loose = GridPolicy(refine_tol=1e-8)
    bounded = build_checked(model, UniformWindow(0.0, 1.0), loose)
    _, w0 = moments(bounded)
    _, w1 = moments(refine_once(bounded, factor=4))
    assert abs(w1 - w0) / w0 < 1e-6


def test_divergent_algebraic_tail_raises():
    with pytest.raises(DivergenceError):
        build_distribution(IdealGas(100), AlgebraicTail(decay=151.0, e_ref=1.0))
    # far below the integrability edge the log-weight grows forever
    with pytest.raises(DivergenceError):
        build_distribution(IdealGas(100), AlgebraicTail(decay=100.0, e_ref=1.0))


def test_empty_overlap_raises():
    with pytest.raises(EmptyOverlapError):
        build_distribution(IdealGas(100), UniformWindow(-2.0, -1.0))


def test_summary_fields():
    model = IdealGas(100)
    summary = summarize(build_checked(model, UniformWindow(0.0, 1.0)))
    assert summary.ratio == summary.width / summary.mean
    assert summary.peak_at_boundary
    assert summary.eps_pred == pytest.approx(1.0 / 150.0)
    assert summary.mean_pred == pytest.approx(1.0 - 1.0 / 150.0)
    assert summary.entropy_at_mean == pytest.approx(150.0 * math.log(summary.mean))

    tail_summary = summarize(build_checked(model, ExponentialTail(delta=1.0, kappa=1.0)))
    assert tail_summary.eps_pred is None
    assert tail_summary.mean_pred == pytest.approx(150.0, rel=1e-10)
    assert tail_summary.width_pred == pytest.approx(math.sqrt(150.0), rel=1e-10)


def test_ising_window_distribution():
    """The continuum chain model with a window inside the band normalizes too."""
    from sharpdist import IsingChain
    dist = build_checked(IsingChain(500, 1.0), UniformWindow(-300.0, -150.0))
    mean, width = moments(dist)
    assert -300.0 < mean < -150.0
    assert width > 0.0


def test_bounded_prediction_reevaluated_at_mean():
    """Re-evaluating the slope at the predicted mean shifts eps by O(1/N)."""
    model = IdealGas(100)
    window = UniformWindow(0.0, 1.0)
    edge = bounded_profile_prediction(model, window)
    refined = bounded_profile_prediction(model, window, reevaluate_at_mean=True)
    # slope at mean = 150 / (1 - 1/150): eps shrinks by exactly that factor
    assert refined.eps == pytest.approx(edge.eps * (1.0 - edge.eps), rel=1e-12)
    assert abs(refined.eps - edge.eps) / edge.eps < 2.0 / 150.0
