import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sharpdist import (DELTA_SCALINGS, CustomEntropy, ExponentialTail,
                       FitError, IdealGas, NoMaximumError, SweepRecord,
                       algebraic_tail_builder, bounded_window_builder,
                       default_n_values, exponential_tail_builder,
                       failure_mode_demo, fit_power_law, sweep,
                       tail_profile_prediction)

from oracles import monomial_window_ratio


def synthetic_records(prefactor, exponent, n_values=(100, 300, 1000, 3000)):
    return [SweepRecord(n, 1.0, 1.0, prefactor * n ** (-exponent)) for n in n_values]


def test_fit_exact_inverse_law():
    fit = fit_power_law(synthetic_records(7.0, 1.0))
    assert fit.kappa == pytest.approx(1.0, rel=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert math.exp(fit.intercept) == pytest.approx(7.0, rel=1e-10)


def test_fit_exact_half_law():
    fit = fit_power_law(synthetic_records(0.3, 0.5))
    assert fit.kappa == pytest.approx(0.5, rel=1e-12)


@settings(derandomize=True, max_examples=60)
@given(scale=st.floats(min_value=1e-6, max_value=1e6))
def test_fit_invariant_under_ratio_rescaling(scale):
    base = synthetic_records(2.0, 0.77)
    scaled = [SweepRecord(r.n_particles, r.mean, r.width, r.ratio * scale)
              for r in base]
    f0 = fit_power_law(base)
    f1 = fit_power_law(scaled)
    assert f1.kappa == pytest.approx(f0.kappa, rel=1e-9, abs=1e-12)
    assert f1.intercept == pytest.approx(f0.intercept + math.log(scale), rel=1e-9, abs=1e-9)


def test_fit_errors():
    with pytest.raises(FitError):
        fit_power_law(synthetic_records(1.0, 1.0, n_values=(100, 200)))
    with pytest.raises(FitError):
        fit_power_law([SweepRecord(100, 1.0, 1.0, 0.01)] * 4)
    bad = synthetic_records(1.0, 1.0)
    bad[1] = SweepRecord(300, 1.0, -1.0, -1e-3)
    with pytest.raises(FitError):
        fit_power_law(bad)


def test_sweep_validation():
    builder = bounded_window_builder(1.0)
    with pytest.raises(ValueError):
        sweep(builder, [100, 200])
    with pytest.raises(ValueError):
        sweep(builder, [100, 100, 200])


def test_bounded_sweep_matches_closed_form_and_fits_inverse_law():
    n_values = (100, 251, 631, 1585, 3981, 10000)
    records, skipped = sweep(bounded_window_builder(1.0), n_values)
    assert skipped == []
    for rec in records:
        ref = monomial_window_ratio(1.5 * rec.n_particles)
        assert rec.ratio == pytest.approx(ref, rel=1e-6)
    fit = fit_power_law(records)
    assert 0.95 <= fit.kappa <= 1.05
    assert fit.r_squared > 0.999


def test_gamma_sweep_matches_closed_form():
    records, skipped = sweep(exponential_tail_builder(1.0), (100, 316, 1000, 3162))
    assert skipped == []
    for rec in records:
        ref = 1.0 / math.sqrt(1.5 * rec.n_particles + 1.0)
        assert rec.ratio == pytest.approx(ref, rel=1e-6)
    fit = fit_power_law(records)
    assert fit.kappa == pytest.approx(0.5, abs=0.02)


@pytest.mark.parametrize("delta_scaling", DELTA_SCALINGS)
def test_tail_sweep_is_half_law_for_every_delta_scaling(delta_scaling):
    records, skipped = sweep(exponential_tail_builder(2.0, delta_scaling),
                             (100, 316, 1000, 3162))
    assert skipped == []
    fit = fit_power_law(records)
    assert 0.48 <= fit.kappa <= 0.52
    assert fit.r_squared > 0.999


def test_delta_scaling_moves_the_mean_but_not_the_ratio():
    """The tail scale is a pure unit of energy: it relocates the peak while
    leaving width/mean untouched, which is why every scaling fits the same
    exponent."""
    n = 400
    runs = [sweep(exponential_tail_builder(2.0, scaling), (100, 200, 400))
            for scaling in ("constant", "linear")]
    assert [skipped for _, skipped in runs] == [[], []]
    base, linear = (records[-1] for records, _ in runs)
    assert linear.mean == pytest.approx(base.mean * n, rel=1e-9)
    assert linear.ratio == pytest.approx(base.ratio, rel=1e-9)


def test_unknown_delta_scaling_rejected():
    with pytest.raises(ValueError):
        exponential_tail_builder(2.0, "quadratic")


def test_sweep_attaches_system_size_to_failures():
    # eta sits exactly on the integrability edge for the first size
    records, skipped = sweep(algebraic_tail_builder(eta=151.0), [100, 200, 400])
    assert records == []
    assert len(skipped) == 3
    for note, n in zip(skipped, (100, 200, 400)):
        assert note.startswith("N=%d skipped: " % n)


def test_algebraic_tail_builder_broadens_toward_the_edge():
    """At fixed eta the effective tail exponent eta - 3N/2 shrinks as N grows,
    so the sharpness ratio widens monotonically on the way to divergence."""
    records, skipped = sweep(algebraic_tail_builder(eta=160.0), [60, 80, 100])
    assert skipped == []
    ratios = [r.ratio for r in records]
    assert all(r > 0.0 for r in ratios)
    assert ratios[0] < ratios[1] < ratios[2]
    # the last size before the edge (3N/2 = 150, eta - p = 10) is much broader
    # than a bounded profile at the same size would be
    assert ratios[-1] > 5.0 * monomial_window_ratio(150)


def test_failure_demo_divergent_tail():
    report = failure_mode_demo(IdealGas(100), 151.0)
    assert report.outcome == "divergent"
    assert report.ratio is None


def test_failure_demo_broad_tail():
    report = failure_mode_demo(IdealGas(100), 153.0)
    assert report.outcome == "broad"
    assert report.ratio > 0.2


def test_sub_unit_kappa_tail_has_no_maximum():
    """With square-root entropy the kappa = 1/2 tail decays exactly as fast as
    the state count grows: the stationarity condition never changes sign."""
    sqrt_entropy = CustomEntropy(100, entropy=lambda e: 2.0 * np.sqrt(e),
                                 entropy_d1=lambda e: 1.0 / np.sqrt(e),
                                 entropy_d2=lambda e: -0.5 * e ** -1.5)
    with pytest.raises(NoMaximumError, match="doublings"):
        tail_profile_prediction(sqrt_entropy, ExponentialTail(delta=1.0, kappa=0.5))


def test_default_n_values_span_two_decades():
    values = default_n_values()
    assert values[0] == 100 and values[-1] == 10000
    assert len(values) == 11
    assert all(b > a for a, b in zip(values, values[1:]))
