import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sharpdist import (AlgebraicCutoff, AlgebraicTail, ExponentialCutoff,
                       ExponentialTail, Lumps, UniformWindow)


def test_algebraic_cutoff_values():
    prof = AlgebraicCutoff(e0=0.0, e_max=1.0, alpha=1.0)
    assert prof.ln_amp_sq(0.5) == pytest.approx(math.log(0.5), rel=1e-14)
    assert prof.ln_amp_sq(1.0) == -math.inf     # vanishes at the edge
    assert prof.ln_amp_sq(1.5) == -math.inf
    assert prof.ln_amp_sq(0.0) == pytest.approx(0.0)  # peak value ln(C) = ln 1
    assert prof.support() == [(-1.0, 1.0)]


def test_exponential_tail_values():
    prof = ExponentialTail(delta=1.0, kappa=1.0)
    assert prof.ln_amp_sq(3.0) == -3.0
    assert prof.ln_amp_sq(-0.5) == -math.inf
    assert prof.support() == [(0.0, math.inf)]
    assert not prof.bounded_above()


def test_uniform_window_values():
    prof = UniformWindow(0.0, 1.0)
    assert prof.ln_amp_sq(0.5) == 0.0
    assert prof.ln_amp_sq(1.5) == -math.inf
    assert prof.ln_amp_sq(1.0) == 0.0
    assert prof.support() == [(0.0, 1.0)]
    assert prof.upper_edge() == 1.0


@settings(derandomize=True, max_examples=80)
@given(alpha=st.floats(min_value=0.3, max_value=5.0),
       gamma=st.floats(min_value=0.3, max_value=5.0))
def test_cutoffs_monotone_decreasing_above_anchor(alpha, gamma):
    """Between the anchor and the upper edge both cutoff shapes only fall."""
    alg = AlgebraicCutoff(e0=0.0, e_max=1.0, alpha=alpha)
    expc = ExponentialCutoff(e0=0.0, e1=0.7, gamma_exp=gamma, e_max=1.0)
    grid = np.linspace(1e-4, 1.0 - 1e-4, 200)
    for prof in (alg, expc):
        vals = prof.ln_amp_sq(grid)
        assert np.all(np.diff(vals) < 0.0)


def test_exponential_cutoff_small_gap_stays_finite():
    """e1 far larger than the window: both stretched exponents are ~1e-24 and
    their difference survives only through the expm1 branch of the log
    difference (a plain log1p(-exp(...)) would round it to -inf everywhere)."""
    prof = ExponentialCutoff(e0=0.0, e1=1e6, gamma_exp=4.0, e_max=1.0)
    mid = prof.ln_amp_sq(0.5)
    # shape is W - w = (1 - 0.5**4) * 1e-24 up to rounding
    assert mid == pytest.approx(math.log((1.0 - 0.5 ** 4) * 1e-24), rel=1e-10)
    vals = prof.ln_amp_sq(np.linspace(-1.0, 1.0, 401))
    assert not np.any(np.isnan(vals))
    assert prof.ln_amp_sq(1.0) == -math.inf


def test_exponential_cutoff_total_cancellation_is_minus_inf():
    # points that round onto the edge exponent give -inf, never nan
    prof = ExponentialCutoff(e0=0.0, e1=0.05, gamma_exp=8.0, e_max=1.0)
    assert prof.ln_amp_sq(1.0 - 1e-18) == -math.inf  # rounds to e_max exactly
    grid = np.linspace(0.999999999999999, 1.0, 64)
    vals = prof.ln_amp_sq(grid)
    assert not np.any(np.isnan(vals))
    assert vals[-1] == -math.inf


def test_lumps_delegate_exactly():
    sub = AlgebraicCutoff(e0=0.0, e_max=1.0, alpha=2.0)
    lumps = Lumps(((0.1, 0.4, sub), (0.6, 0.9, sub)))
    for x in (0.15, 0.35, 0.7):
        assert lumps.ln_amp_sq(x) == sub.ln_amp_sq(x)
    assert lumps.ln_amp_sq(0.5) == -math.inf
    assert lumps.support() == [(0.1, 0.4), (0.6, 0.9)]


def test_lumps_uniform_support():
    lumps = Lumps.uniform([(0.0, 0.5), (0.8, 1.0)])
    assert lumps.support() == [(0.0, 0.5), (0.8, 1.0)]
    assert lumps.upper_edge() == 1.0


def test_construction_validation():
    with pytest.raises(ValueError):
        AlgebraicCutoff(e0=1.0, e_max=1.0, alpha=1.0)
    with pytest.raises(ValueError):
        AlgebraicCutoff(e0=0.0, e_max=1.0, alpha=0.0)
    with pytest.raises(ValueError):
        ExponentialCutoff(e0=0.0, e1=-1.0, gamma_exp=1.0, e_max=1.0)
    with pytest.raises(ValueError):
        ExponentialTail(delta=0.0, kappa=1.0)
    with pytest.raises(ValueError):
        AlgebraicTail(decay=-2.0)
    with pytest.raises(ValueError):
        UniformWindow(1.0, 1.0)
    with pytest.raises(ValueError):
        Lumps.uniform([(0.0, 0.6), (0.5, 1.0)])  # overlapping
    with pytest.raises(ValueError):
        Lumps.uniform([(0.8, 1.0), (0.0, 0.5)])  # out of order
    with pytest.raises(ValueError):
        Lumps(((0.0, 0.5, Lumps.uniform([(0.0, 0.5)])),))  # nested


def test_vectorized_matches_scalar():
    prof = ExponentialCutoff(e0=0.2, e1=0.5, gamma_exp=2.0, e_max=1.0)
    grid = np.linspace(-1.0, 1.5, 101)
    vec = prof.ln_amp_sq(grid)
    scal = np.array([prof.ln_amp_sq(float(x)) for x in grid])
    np.testing.assert_array_equal(vec, scal)
