import math
import pickle

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sharpdist import (AlgebraicCutoff, AlgebraicTail, ConvergenceError,
                       CustomEntropy, DivergenceError, DomainError,
                       EmptyOverlapError, ExponentialCutoff, ExponentialTail,
                       GridPolicy, IdealGas, IsingChain, Lumps, UniformWindow,
                       bounded_profile_prediction, build_distribution,
                       failure_mode_demo, lump_mass_fractions, model_from_config,
                       moments, peak, refine_once, summarize,
                       tail_profile_prediction)
from sharpdist.distribution import (_COARSE_POINTS, _PEAK_REL_TOL, _WINDOW_NATS,
                                    DEFAULT_POLICY, LINEAR, LOG, _component_window,
                                    _grow_right_edge, _log_weight, _peak_scan,
                                    _section_crossings, _section_max, _segment_points,
                                    export_curve)
from sharpdist import numerics
from sharpdist.numerics import compensated_sum, newton_bisect_root

from oracles import (algebraic_tail_mean, gamma_moments,
                     monomial_window_moments, two_lump_lower_fraction)


def build_checked(model, profile, policy=None):
    """Build and assert the normalization invariant every test relies on."""
    dist = build_distribution(model, profile, policy) if policy else build_distribution(model, profile)
    assert dist.normalization_residual() < 1e-9
    return dist


def flat_model(n=2):
    return CustomEntropy(n, entropy=lambda e: 0.0,
                         entropy_d1=lambda e: 0.0,
                         entropy_d2=lambda e: 0.0)


def _no_derivative(e):
    raise AssertionError("a build never calls the entropy derivatives")


def build_only_model(entropy, n=2):
    """A custom model whose entropy derivatives are never called."""
    return CustomEntropy(n, entropy=entropy, entropy_d1=_no_derivative,
                         entropy_d2=_no_derivative)


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


@pytest.mark.parametrize("model, profile", [
    (IdealGas(100), ExponentialTail(delta=1.0, kappa=1.0)),
    (IdealGas(100), ExponentialTail(delta=1.0, kappa=2.0)),
    (IdealGas(100), UniformWindow(0.0, 1.0)),
    (IdealGas(100), AlgebraicCutoff(0.3, 1.0, 2.0)),
    (IdealGas(100), Lumps.uniform([(0.0, 0.5), (0.8, 1.0)])),
    (IsingChain(1000, 1.0), ExponentialCutoff(-499.5, 149.85, 2.0, -199.8)),
    (IdealGas(100), AlgebraicTail(decay=153.0)),
], ids=["gamma", "stretched-tail", "uniform-window", "algebraic-cutoff", "two-lumps",
        "spin-chain", "broad-algebraic-tail"])
def test_peak_is_the_highest_point_of_the_build(model, profile):
    """No grid point lies above the peak's log-weight by more than rounding.

    A boundary peak is an end of the overlap of support and domain, exactly.
    """
    dist = build_checked(model, profile)
    pk = peak(dist)
    top = float(_log_weight(model, profile)(np.array([pk.energy]))[0])
    assert np.max(dist.ln_w + dist.ln_norm) - top <= 1e-12 * max(1.0, abs(top))
    dlo, dhi = model.domain()
    edges = {bound for lo, hi in profile.support() for bound in (max(lo, dlo), min(hi, dhi))}
    assert pk.at_boundary == (pk.energy in edges)


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


@pytest.mark.parametrize("profile, tol", [
    (AlgebraicCutoff(0.3, 1.0, 2.0), 1e-3),
    (ExponentialCutoff(e0=0.3, e1=0.1, gamma_exp=2.0, e_max=1.0), 1e-2),
])
def test_cutoff_prediction_has_a_simple_zero_at_the_edge(profile, tol):
    """A simple zero at e_max makes E_max - E Gamma(2, eps): gap 2 eps, width sqrt(2) eps."""
    n = 10_000
    model = IdealGas(n)
    mean, width = moments(build_checked(model, profile))
    pred = bounded_profile_prediction(model, profile)
    assert profile.edge_order == 1
    assert pred.eps == pytest.approx(1.0 / (1.5 * n), rel=1e-12)
    assert pred.mean == 1.0 - 2.0 * pred.eps
    assert pred.width == math.sqrt(2.0) * pred.eps
    assert abs((1.0 - mean) / (1.0 - pred.mean) - 1.0) < tol
    assert abs(width / pred.width - 1.0) < tol


def test_lumps_edge_order_is_that_of_the_last_lump_edge():
    assert UniformWindow(0.0, 1.0).edge_order == 0
    assert Lumps.uniform([(0.0, 0.5), (0.8, 1.0)]).edge_order == 0


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


def test_saddle_solve_stops_once_a_newton_step_has_converged():
    """A converged Newton step ends the saddle solve, also when it lands on a bracket end.

    For IdealGas(1000) x ExponentialTail(sqrt(1000), 2) the step lands on
    the root within an ulp, where g has just moved the bracket end; a solve
    that took only steps strictly inside the bracket bisected that bracket
    about 28 more times, 69 scalar slope calls in all (13 now).
    """
    calls = []

    class CountingGas(IdealGas):
        def entropy_slopes(self, e):
            calls.append(e)
            return super().entropy_slopes(e)

    pred = tail_profile_prediction(CountingGas(1000), ExponentialTail(math.sqrt(1000.0), 2.0))
    assert pred.mean == pytest.approx(math.sqrt(750000.0), rel=1e-15)
    scalar_calls = sum(isinstance(e, float) for e in calls)  # g, dg and the curvature
    assert scalar_calls <= 16


def test_saddle_solve_that_runs_out_of_steps_raises(monkeypatch):
    """One Newton step from the bracket [1024, 1536] reaches 1499.136; the root is 1500."""
    monkeypatch.setattr(numerics, "_MAX_NEWTON_ITER", 1)
    with pytest.raises(ConvergenceError,
                       match=r"after 1 steps: bracket \[1024\.0, 1536\.0\], last step 1536\.0 "
                             r"-> 1499\.136$"):
        tail_profile_prediction(IdealGas(1000), ExponentialTail(delta=1.0, kappa=1.0))


def test_newton_step_that_leaves_the_bracket_falls_back_to_bisection():
    """From x = 50, Newton on atan(x - 1) steps to about -3674, outside [0, 100]."""
    root = newton_bisect_root(lambda x: math.atan(x - 1.0),
                              lambda x: 1.0 / (1.0 + (x - 1.0) ** 2), 0.0, 100.0)
    assert root == pytest.approx(1.0, rel=1e-12)


def test_summary_drops_a_prediction_outside_the_model_domain():
    """The window's edge at 300 lies outside IsingChain(1000)'s domain [-999, 0]."""
    summary = summarize(build_checked(IsingChain(1000), UniformWindow(-300.0, 300.0)))
    assert (summary.eps_pred, summary.mean_pred, summary.width_pred) == (None, None, None)
    assert math.isfinite(summary.mean) and math.isfinite(summary.width)


def test_ln_density_values_are_log_state_counts():
    """The entropy at an energy, as summarize reports it: ln of the state count there."""
    gas = IdealGas(100)
    assert float(gas.ln_density(151.0)) == pytest.approx(150.0 * math.log(151.0), rel=1e-12)
    assert float(gas.ln_density(1.0)) == 0.0
    chain = IsingChain(1000, 1.0)
    s_mid = float(chain.ln_density(0.0))
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
    """Segment masses, point masses and lump fractions all integrate to 1.

    The build's ln Z and the point masses come from the one corrected
    trapezoid rule, and segment masses and lump fractions are sums of point
    masses, so all three agree with ln Z even on a fixed, coarse grid far
    from convergence.
    """
    w0, gap, w1 = widths
    lumps = Lumps.uniform([(lo, lo + w0), (lo + w0 + gap, lo + w0 + gap + w1)])
    policy = GridPolicy(initial_points=1025, max_points=1025)
    dist = build_distribution(IdealGas(n_particles), lumps, policy)
    segment_total = math.fsum(dist.segment_masses())
    assert abs(segment_total - 1.0) < 1e-12
    assert abs(segment_total - compensated_sum(dist.point_masses)) < 1e-12
    assert abs(math.fsum(lump_mass_fractions(dist)) - 1.0) < 1e-12


def test_segment_and_point_masses_agree_on_ln_e_segments():
    """On ln E segments the build's ln Z and the point masses agree.

    Both take their weights from one function, which multiplies the weights
    in ln E by the Jacobian E; the segment masses, sums of point masses,
    integrate to 1 against that ln Z on a fixed, coarse grid.  Broad
    algebraic tails decay = 3N/2 + 2.5 .. 10 reach past hi/lo = 1e6 beyond
    their knot for the slower decays, so some draws have an ln E segment.
    """
    coordinates = set()

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(n_particles=st.integers(min_value=2, max_value=5000),
           excess=st.floats(min_value=2.5, max_value=10.0))
    def check(n_particles, excess):
        profile = AlgebraicTail(decay=1.5 * n_particles + excess)
        policy = GridPolicy(initial_points=1025, max_points=1025)
        dist = build_distribution(IdealGas(n_particles), profile, policy)
        coordinates.update(seg.coordinate for seg in dist.segments)
        segment_total = math.fsum(dist.segment_masses())
        assert abs(segment_total - 1.0) < 1e-12
        assert abs(segment_total - compensated_sum(dist.point_masses)) < 1e-12

    check()
    assert LOG in coordinates


@pytest.mark.parametrize("profile, coordinates", [
    (AlgebraicTail(decay=153.0), [LINEAR, LOG]),
    (Lumps.uniform([(0.0, 0.5), (0.8, 1.0)]), [LINEAR, LINEAR]),
], ids=["ln-e-segment", "linear-only"])
def test_distribution_pickles_and_reprs_without_addresses(profile, coordinates):
    """A distribution survives pickling with its coordinates, which print by name."""
    dist = build_distribution(IdealGas(100), profile)
    assert [seg.coordinate for seg in dist.segments] == coordinates
    copy = pickle.loads(pickle.dumps(dist))
    np.testing.assert_array_equal(copy.grid, dist.grid)
    np.testing.assert_array_equal(copy.ln_w, dist.ln_w)
    assert copy.segments == dist.segments
    assert all(a.coordinate is b.coordinate for a, b in zip(copy.segments, dist.segments))
    assert not any("0x" in repr(seg) for seg in dist.segments)


def test_export_resamples_an_ln_e_segment_uniformly_in_ln_e():
    """The exported rows of an ln E segment span its exact ends, evenly in ln E.

    IdealGas(100) x AlgebraicTail(153) is linear up to its knot at 1 and
    gridded in ln E beyond it; a trapezoid over the exported rows in E
    still integrates to 1 closely.
    """
    dist = build_distribution(IdealGas(100), AlgebraicTail(decay=153.0))
    seg = dist.segments[-1]
    assert seg.coordinate is LOG
    energies, ln_w = export_curve(dist, 131073)
    rows = energies[np.flatnonzero(energies == seg.lo)[-1]:]
    assert rows[0] == seg.lo and rows[-1] == seg.hi
    spacing = np.diff(np.log(rows))
    assert np.max(np.abs(spacing / spacing[0] - 1.0)) < 1e-9
    assert abs(float(np.trapezoid(np.exp(ln_w), energies)) - 1.0) < 1e-6


# 3 + u + u^2 + u^3 + u^4 + u^5: degree 5, and positive for u >= -1
_QUINTIC = np.polynomial.Polynomial([3.0, 1.0, 1.0, 1.0, 1.0, 1.0])


@pytest.mark.parametrize("refine", [False, True], ids=["fixed", "one-halving"])
@pytest.mark.parametrize("geometric", [False, True], ids=["linear", "geometric"])
@pytest.mark.parametrize("n", [9, 10, 4097])
def test_gregory_rule_is_exact_for_quintics(n, geometric, refine):
    """The corrected trapezoid rule integrates every polynomial of degree <= 5 exactly.

    The build's ln Z, the point masses and the segment masses all go
    through it.  On a geometric segment the polynomial is in x = ln E: the
    weight is q(ln E) / E.  Exact to rounding for any n >= 9; at n = 9 the
    two sets of end corrections meet on the middle point and add there.
    """
    if geometric:
        lo, hi, scale = 1e-3, 1e4, 8.0

        def ln_density(e):
            return np.log(_QUINTIC((np.log(e) - 1.0) / scale)) - np.log(e)
        u = [(math.log(lo) - 1.0) / scale, (math.log(hi) - 1.0) / scale]
    else:
        lo, hi, scale = 0.5, 3.0, 1.0

        def ln_density(e):
            return np.log(_QUINTIC(e - 1.0))
        u = [lo - 1.0, hi - 1.0]
    exact = scale * (_QUINTIC.integ()(u[1]) - _QUINTIC.integ()(u[0]))
    model = build_only_model(lambda e: 0.5 * ln_density(2.0 * e))
    points = 2 * n - 1 if refine else n
    dist = build_distribution(model, UniformWindow(lo, hi),
                              GridPolicy(initial_points=n, max_points=points))
    assert [seg.coordinate for seg in dist.segments] == [LOG if geometric else LINEAR]
    assert dist.grid.size == points
    assert dist.ln_norm == pytest.approx(math.log(exact), abs=1e-13)
    assert dist.normalization_residual() < 1e-13
    assert dist.segment_masses()[0] == pytest.approx(1.0, abs=1e-13)


def test_unconverged_refinement_raises_convergence_error():
    """Reaching max_points with |change of ln Z| >= refine_tol fails loudly."""
    policy = GridPolicy(initial_points=9, max_points=17)
    with pytest.raises(ConvergenceError, match=r"17 points per segment.*\|change of ln Z\| = "):
        build_distribution(IdealGas(100), UniformWindow(0.0, 1.0), policy)
    # a fixed-resolution build does no refinement and is not tested
    fixed = GridPolicy(initial_points=17, max_points=17)
    assert build_distribution(IdealGas(100), UniformWindow(0.0, 1.0), fixed).grid.size == 17
    # the failure demo reports regimes of the profile, not of the grid
    with pytest.raises(ConvergenceError):
        failure_mode_demo(IdealGas(100), 153.0, policy=policy)


def test_settings_the_build_would_override_are_rejected():
    """A too-small first level or cap, a bad refine_tol or a negative row budget raises ValueError.

    A build capped below initial_points could not refine, so it could not
    test its convergence either.
    """
    with pytest.raises(ValueError, match="initial_points must be at least 9"):
        GridPolicy(initial_points=8)
    with pytest.raises(ValueError, match="max_points"):
        GridPolicy(initial_points=4097, max_points=100)
    for tol in (0.0, -1e-10, math.inf, math.nan):
        with pytest.raises(ValueError, match="refine_tol must be positive and finite"):
            GridPolicy(refine_tol=tol)
    dist = build_checked(IdealGas(100), UniformWindow(0.0, 1.0))
    with pytest.raises(ValueError, match="max_rows"):
        export_curve(dist, -1)


@pytest.mark.parametrize("n_particles", [100, 402])
def test_broad_algebraic_tail_mean_matches_closed_form(n_particles):
    """The broad tail (eta = 3N/2 + 3) keeps its kink at e_ref on the grid.

    Only the e^-60 window truncation remains, about 2e-9 relative.
    """
    p = 3 * n_particles // 2
    dist = build_checked(IdealGas(n_particles), AlgebraicTail(decay=p + 3.0, e_ref=1.0))
    mean, _ = moments(dist)
    assert mean == pytest.approx(algebraic_tail_mean(p, p + 3), rel=1e-6)


_REFINE_PROFILES = {
    "uniform": lambda n: UniformWindow(0.0, 1.0),
    "cutoff": lambda n: AlgebraicCutoff(0.3, 1.0, 2.0),
    "lumps": lambda n: Lumps.uniform([(0.0, 0.5), (0.8, 1.0)]),
    "exponential-tail": lambda n: ExponentialTail(delta=1.0, kappa=2.0),
    "broad-algebraic-tail": lambda n: AlgebraicTail(decay=1.5 * n + 3.0, e_ref=1.0),
}


@settings(derandomize=True, max_examples=25, deadline=None)
@given(kind=st.sampled_from(sorted(_REFINE_PROFILES)),
       n_particles=st.integers(min_value=2, max_value=5000))
def test_moments_stable_under_refine_once(kind, n_particles):
    """A 4x denser fixed grid moves neither mean nor width by 1e-9 relative."""
    model = IdealGas(n_particles)
    dist = build_checked(model, _REFINE_PROFILES[kind](n_particles))
    mean, width = moments(dist)
    mean4, width4 = moments(refine_once(dist))
    assert mean4 == pytest.approx(mean, rel=1e-9)
    assert width4 == pytest.approx(width, rel=1e-9)


# the points per segment of every build of each kind for N = 2 .. 5000 when
# all segments refined together from a shared 4,097-point start; no build
# may use more now
_SHARED_START_POINTS = {
    "uniform": 8193, "cutoff": 8193, "lumps": 8193, "exponential-tail": 8193,
    "broad-algebraic-tail": 8193, "algebraic-tail": 262145,
}
_GRID_PROFILES = {
    **_REFINE_PROFILES,
    "algebraic-tail": lambda n: AlgebraicTail(decay=1.5 * n + 10.0, e_ref=1.0),
}


@settings(derandomize=True, max_examples=30, deadline=None)
@given(kind=st.sampled_from(sorted(_GRID_PROFILES)),
       n_particles=st.integers(min_value=2, max_value=5000))
def test_per_segment_grids_agree_with_a_denser_grid_on_fewer_points(kind, n_particles):
    """Each segment stops at its own count, none above the shared start's.

    A fixed grid at least 4x denser moves neither mean nor width by 1e-10
    relative.
    """
    dist = build_checked(IdealGas(n_particles), _GRID_PROFILES[kind](n_particles))
    assert max(seg.stop - seg.start for seg in dist.segments) <= _SHARED_START_POINTS[kind]
    mean, width = moments(dist)
    mean4, width4 = moments(refine_once(dist))
    assert mean4 == pytest.approx(mean, rel=1e-10)
    assert width4 == pytest.approx(width, rel=1e-10)


_FIRST_ROUND_BUILDS = {
    "exponential-tail": lambda n: ExponentialTail(delta=1.0, kappa=1.0),
    "stretched-tail": lambda n: ExponentialTail(delta=1.0, kappa=2.0),
    "window": lambda n: UniformWindow(0.0, 1.0),
    "offset-window": lambda n: UniformWindow(0.25, 1.0),
    "lumps": lambda n: Lumps.uniform([(0.0, 0.5), (0.8, 1.0)]),
    "algebraic-tail": lambda n: AlgebraicTail(decay=1.5 * n + 10.0),
}


@settings(derandomize=True, max_examples=30, deadline=None)
@given(kind=st.sampled_from(sorted(_FIRST_ROUND_BUILDS)),
       n_particles=st.integers(min_value=2, max_value=2000))
@example(kind="algebraic-tail", n_particles=100)  # AlgebraicTail(160): a LOG segment
def test_first_round_keeps_the_coordinate_and_points_of_the_first_level(kind, n_particles):
    """The coordinate is chosen on the 65-point level inside the first round's points.

    Each segment keeps the coordinate of a fixed 65-point build, and every
    (n - 1)/64-th point of its final n-point grid is that build's, bitwise.
    """
    model, profile = IdealGas(n_particles), _FIRST_ROUND_BUILDS[kind](n_particles)
    dist = build_checked(model, profile)
    fixed = build_distribution(model, profile, GridPolicy(initial_points=65, max_points=65))
    assert len(dist.segments) == len(fixed.segments)
    for seg, ref in zip(dist.segments, fixed.segments):
        assert seg.coordinate is ref.coordinate
        grid = dist.grid[seg.start:seg.stop:(seg.stop - seg.start - 1) // 64]
        assert grid.tobytes() == fixed.grid[ref.start:ref.stop].tobytes()


def test_moderate_power_law_tail_is_gridded_in_ln_e():
    """IdealGas(100) x AlgebraicTail(160) reaches 403x beyond its knot.

    The segment there falls as E^-11, a power law that ln E makes an
    exponential; gridded in ln E it converges on at most 8,193 points where
    a grid uniform in E took 262,145.
    """
    dist = build_checked(IdealGas(100), AlgebraicTail(decay=160.0))
    assert [seg.coordinate for seg in dist.segments] == [LINEAR, LOG]
    assert max(seg.stop - seg.start for seg in dist.segments) <= 8193
    mean, _ = moments(dist)
    assert mean == pytest.approx(algebraic_tail_mean(150, 160), rel=1e-8)


def test_two_coarse_levels_that_agree_do_not_end_refinement():
    """A bump between the points of the 65- and 129-point levels is still integrated.

    The weight 1 + e^3 exp(-(E - c)^2 / (2 sigma^2)) on [0.25, 1], with c
    a point of the 257-point level only and sigma = 2e-4, reads exactly 1
    on both coarse levels, whose integrals then agree to the last bit.  The
    first change compared is that between 129 and 257 points, which sees
    the bump, so refinement goes on until it is resolved.
    """
    c, sigma = 0.25 + 101 * 0.75 / 256, 2e-4
    model = build_only_model(
        lambda e: 0.5 * np.log1p(np.exp(3.0 - (2.0 * e - c) ** 2 / (2.0 * sigma ** 2))))
    dist = build_checked(model, UniformWindow(0.25, 1.0))
    exact = 0.75 + math.exp(3.0) * sigma * math.sqrt(2.0 * math.pi)
    assert dist.ln_norm == pytest.approx(math.log(exact), abs=1e-9)
    assert dist.grid.size > 257


def _tilted_model(band=(0.0, 0.0)):
    """ln W = -100 E, NaN on the open ``band`` of energies.

    Under UniformWindow(0.25, 1) its window ends at the e^-60 cut near
    0.85, so its grid points, unlike those of a flat weight on the whole
    window, do not fall on the points of the peak scan of [0.25, 1].
    """
    lo, hi = band
    return build_only_model(
        lambda e: np.where((lo < 2.0 * e) & (2.0 * e < hi), np.nan, -100.0 * e))


_FIRST_POINTS = DEFAULT_POLICY.initial_points


def _grid_point_band(n, j):
    """A band around point j of the n-point grid of the tilted weight's segment.

    Its half-width, 2**-17 of the step there, keeps out every other point of
    every level up to the default cap.
    """
    seg = build_distribution(_tilted_model(), UniformWindow(0.25, 1.0)).segments[0]
    points, _ = _segment_points(seg.lo, seg.hi, seg.coordinate, n)
    half = (points[j + 1] - points[j]) / 2 ** 17
    return points[j] - half, points[j] + half


@pytest.mark.parametrize("profile, band", [
    (Lumps.uniform([(0.0, 0.5), (0.8, 1.0)]), lambda: (0.0, 0.5)),
    (UniformWindow(0.25, 1.0), lambda: _grid_point_band(_FIRST_POINTS, 20)),
    (UniformWindow(0.25, 1.0), lambda: _grid_point_band(2 * _FIRST_POINTS - 1, 41)),
], ids=["peak-scan", "first-level", "refinement-midpoints"])
def test_nan_log_weight_raises_domain_error(profile, band):
    """A NaN log-weight fails loudly at the first NaN energy, never reads as -inf.

    The first band is a whole lump, met by the peak scan (it used to come
    back with lump fraction 0).  The second holds one first-level grid point
    between scan points; the third holds one midpoint of the first
    refinement and no other grid point.
    """
    lo, hi = band()
    with pytest.raises(DomainError, match="NaN") as info:
        build_distribution(_tilted_model((lo, hi)), profile)
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


_SHIFTED_PROFILES = {
    "exponential-tail": lambda n, x, s: ExponentialTail(delta=10.0 ** (3.0 * x - 1.5),
                                                        kappa=1.0 + 2.0 * x, ln_scale=s),
    # from the broad regime of criterion 6 (eta = 3N/2 + 2) to a narrow one
    "algebraic-tail": lambda n, x, s: AlgebraicTail(decay=1.5 * n + 2.0 + 100.0 * x,
                                                    ln_scale=s),
    # alpha >= 1: below it the cusp at e0 keeps an N = 2 build from converging
    "algebraic-cutoff": lambda n, x, s: AlgebraicCutoff(0.3, 1.0, 1.0 + 3.0 * x, ln_scale=s),
}


@settings(derandomize=True, max_examples=40, deadline=None)
@given(n_particles=st.integers(min_value=2, max_value=3000),
       kind=st.sampled_from(sorted(_SHIFTED_PROFILES)),
       x=st.floats(min_value=0.0, max_value=1.0),
       c=st.floats(min_value=-1e4, max_value=1e4),
       d=st.floats(min_value=-1e4, max_value=1e4))
def test_additive_constants_move_only_ln_norm(n_particles, kind, x, c, d):
    """ln_prefactor + c and ln_scale + d leave ln_w as it was, to rounding.

    The grid keeps its points per segment, and each segment end stays within
    1e-9 of its distance from the peak: an edge is a comparison of the
    log-weight with the peak's minus 60 nats, and rounding may flip one
    where the two terms are large and cancel (the broad algebraic tail
    reaches 1e5 in each at N = 3000), moving the edge within its
    tolerance.  So the shifted ln_w is compared with the unshifted
    log-weight on the shifted grid, to rounding of the terms' magnitude.
    """
    model, profile = IdealGas(n_particles), _SHIFTED_PROFILES[kind](n_particles, x, 0.0)
    ref = build_checked(model, profile)
    shifted = build_checked(IdealGas(n_particles, ln_prefactor=c),
                            _SHIFTED_PROFILES[kind](n_particles, x, d))
    e_peak = peak(ref).energy
    assert len(shifted.segments) == len(ref.segments)
    for a, b in zip(ref.segments, shifted.segments):
        assert b.stop - b.start == a.stop - a.start
        for i, j in ((a.start, b.start), (a.stop - 1, b.stop - 1)):
            assert abs(shifted.grid[j] - ref.grid[i]) <= 1e-9 * abs(ref.grid[i] - e_peak)
    terms = np.abs(profile.ln_amp_sq(shifted.grid)) + np.abs(model.ln_density(shifted.grid))
    finite = np.isfinite(shifted.ln_w)
    expected = _log_weight(model, profile)(shifted.grid) - ref.ln_norm
    assert np.array_equal(finite, np.isfinite(expected))
    bound = 1e-14 * (terms[finite].max() + abs(c) + abs(d))
    assert np.max(np.abs(shifted.ln_w[finite] - expected[finite])) <= bound
    assert abs(shifted.ln_norm - ref.ln_norm - c - d) <= bound


@settings(derandomize=True, max_examples=25, deadline=None)
@given(n_particles=st.integers(min_value=2, max_value=3000),
       log_e_max=st.floats(min_value=-3.0, max_value=4.0))
def test_uniform_window_moments_scale_with_e_max(n_particles, log_e_max):
    """Under IdealGas x UniformWindow(0, e_max) the mean and width are e_max times those at 1.

    The window edge search has no absolute scale, so the grid scales too.
    """
    e_max = 10.0 ** log_e_max
    unit = build_checked(IdealGas(n_particles), UniformWindow(0.0, 1.0))
    scaled = build_checked(IdealGas(n_particles), UniformWindow(0.0, e_max))
    assert np.max(np.abs(scaled.grid - e_max * unit.grid)) <= 1e-9 * e_max
    mean_1, width_1 = moments(unit)
    mean, width = moments(scaled)
    assert mean == pytest.approx(e_max * mean_1, rel=1e-12)
    assert width == pytest.approx(e_max * width_1, rel=1e-12)


def test_width_stable_under_grid_refinement():
    """A 4x denser grid moves the width by less than 1e-6 relative."""
    model = IdealGas(100)
    gamma_dist = build_checked(model, ExponentialTail(delta=1.0, kappa=1.0))
    _, w0 = moments(gamma_dist)
    _, w1 = moments(refine_once(gamma_dist))
    assert abs(w1 - w0) / w0 < 1e-6

    loose = GridPolicy(refine_tol=1e-8)
    bounded = build_checked(model, UniformWindow(0.0, 1.0), loose)
    _, w0 = moments(bounded)
    _, w1 = moments(refine_once(bounded))
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


def test_summary_predicts_a_saddle_below_delta_in_a_bounded_domain():
    """delta = 1 lies above the saddle (E = 0.93), and delta * 2**5 lies past the domain."""
    model = model_from_config({"model.kind": "custom-entropy", "model.n": "2",
                               "model.form": "log", "model.coeff": "1.5",
                               "model.domain_hi": "10"})
    summary = summarize(build_checked(model, ExponentialTail(delta=1.0, kappa=4.0)))
    assert summary.mean_pred == pytest.approx(summary.peak_energy, rel=1e-6)
    assert summary.eps_pred is None and summary.width_pred > 0.0


def test_ising_window_distribution():
    """The continuum chain model with a window inside the band normalizes too."""
    dist = build_checked(IsingChain(500, 1.0), UniformWindow(-300.0, -150.0))
    mean, width = moments(dist)
    assert -300.0 < mean < -150.0
    assert width > 0.0


@settings(derandomize=True, max_examples=200, deadline=None)
@given(x_above=st.floats(min_value=-1e6, max_value=1e6),
       x_below=st.floats(min_value=-1e6, max_value=1e6),
       slope=st.floats(min_value=1e-3, max_value=1e3),
       cubic=st.booleans(),
       frac=st.floats(min_value=0.0, max_value=1.0, exclude_max=True))
def test_section_crossing_returns_the_below_side_float(x_above, x_below, slope, cubic, frac):
    """For a strictly monotone lnh the crossing is the float bisection returns.

    That is the one b with lnh(b) < target <= lnh(next float towards x_above).
    """
    assume(x_above != x_below)
    sign = 1.0 if x_above > x_below else -1.0

    def lnh(energy):
        # products only: np.power may round differently on arrays and scalars
        e = sign * np.asarray(energy, dtype=float)
        return slope * (e * e * e if cubic else e)

    f_above, f_below = float(lnh(x_above)), float(lnh(x_below))
    target = f_below + frac * (f_above - f_below)
    assume(f_below < target <= f_above)
    [b] = _section_crossings(lnh, target, [(x_above, x_below, 0.0)])
    assert lnh(b) < target <= lnh(math.nextafter(b, x_above))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(x_above=st.floats(min_value=-1e6, max_value=1e6),
       x_below=st.floats(min_value=-1e6, max_value=1e6),
       slope=st.floats(min_value=1e-3, max_value=1e3),
       cubic=st.booleans(),
       frac=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
       rel_tol=st.floats(min_value=1e-16, max_value=0.5))
def test_section_crossing_with_a_tolerance_stays_below_and_near(x_above, x_below, slope,
                                                                cubic, frac, rel_tol):
    """With tol > 0 the result is still below target, at most tol beyond the exact float.

    The float-exact crossing b0 (tol = 0) lies between x_above and b, so
    [x_above, b] keeps all of the region above target.
    """
    assume(x_above != x_below)
    sign = 1.0 if x_above > x_below else -1.0

    def lnh(energy):
        e = sign * np.asarray(energy, dtype=float)
        return slope * (e * e * e if cubic else e)

    f_above, f_below = float(lnh(x_above)), float(lnh(x_below))
    target = f_below + frac * (f_above - f_below)
    assume(f_below < target <= f_above)
    tol = rel_tol * abs(x_below - x_above)
    [b] = _section_crossings(lnh, target, [(x_above, x_below, tol)])
    [b0] = _section_crossings(lnh, target, [(x_above, x_below, 0.0)])
    assert lnh(b) < target
    assert min(x_above, b) <= b0 <= max(x_above, b)
    assert abs(b - b0) <= tol


@settings(derandomize=True, max_examples=200, deadline=None)
@given(top=st.floats(min_value=-1e4, max_value=1e4),
       slopes=st.tuples(st.floats(min_value=1e-3, max_value=1e3),
                        st.floats(min_value=1e-3, max_value=1e3)),
       cubic=st.booleans(),
       depth=st.floats(min_value=1e-3, max_value=1e3),
       inner=st.tuples(st.floats(min_value=0.0, max_value=0.99),
                       st.floats(min_value=0.0, max_value=0.99)),
       outer=st.tuples(st.floats(min_value=1.01, max_value=1e3),
                       st.floats(min_value=1.01, max_value=1e3)),
       rel_tol=st.just(0.0) | st.floats(min_value=1e-16, max_value=0.5))
def test_joint_edge_search_returns_the_floats_of_one_search_per_bracket(top, slopes, cubic,
                                                                        depth, inner, outer,
                                                                        rel_tol):
    """Both window edges share each round's call; each still lands on its own float.

    lnh rises to ``top`` and falls beyond it, at its own slope on each side,
    and each bracket straddles the target on its side, its ends at fractions
    ``inner`` and ``outer`` of the distance to the crossing.  Searched
    together or one at a time, each edge is the same float, at tol = 0 and
    tol > 0.
    """
    def lnh(energy):
        d = np.asarray(energy, dtype=float) - top
        d = d * d * d if cubic else d
        return np.where(d < 0.0, slopes[0] * d, -slopes[1] * d)

    target, brackets = -depth, []
    for side, slope, a, b in zip((-1.0, 1.0), slopes, inner, outer):
        reach = (depth / slope) ** (1.0 / 3.0 if cubic else 1.0)
        x_above, x_below = top + side * a * reach, top + side * b * reach
        brackets.append((x_above, x_below, rel_tol * abs(x_below - x_above)))
    assume(all(lnh(a) >= target > lnh(b) for a, b, _ in brackets))
    joint = _section_crossings(lnh, target, brackets)
    assert joint == [_section_crossings(lnh, target, [bracket])[0] for bracket in brackets]
    assert all(lnh(b) < target for b in joint)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(lo=st.just(0.0) | st.floats(min_value=-1e12, max_value=1e12).map(lambda x: x + 0.0),
       hi=st.integers(min_value=-80, max_value=80).map(lambda k: 2.0 ** k)
       | st.floats(min_value=-1e12, max_value=1e15),
       fractions=st.lists(st.floats(min_value=0.0, max_value=1.0), max_size=3))
def test_peak_scan_is_the_unique_union_of_linear_and_geometric_scans(lo, hi, fractions):
    """The merged scans are bitwise the points np.unique makes of np.linspace and np.geomspace.

    Extra points (knots, the growth's best probe) join, once each.
    """
    assume(lo < hi)
    extra = [lo + f * (hi - lo) for f in fractions]
    scans = [np.linspace(lo, hi, _COARSE_POINTS), np.asarray(extra, dtype=float)]
    gl = max(lo, hi * 1e-15)
    if lo >= 0.0 and 0.0 < gl < hi:
        scans.append(np.geomspace(gl, hi, _COARSE_POINTS))
    expected = np.unique(np.concatenate(scans))
    assert _peak_scan(lo, hi, extra).tobytes() == expected.tobytes()


@pytest.mark.parametrize("lnh, lo, hi, argmax", [
    (lambda e: -(e - 3.7) ** 2, 0.0, 10.0, 3.7),
    (lambda e: -1e-3 * (e + 1234.5) ** 2, -2000.0, 0.0, -1234.5),
    # the Gamma log-weight 150 ln E - E up to a constant, written about its
    # argmax; the plain form is flat to rounding within ~4e-8 relative of it
    (lambda e: 150.0 * np.log1p((e - 150.0) / 150.0) - (e - 150.0), 100.0, 200.0, 150.0),
], ids=["quadratic", "quadratic-negative", "gamma"])
def test_section_max_lands_within_rel_tol(lnh, lo, hi, argmax):
    x, v = _section_max(lnh, lo, hi)
    assert abs(x - argmax) <= _PEAK_REL_TOL * max(abs(argmax), 1.0)
    assert v == lnh(np.array([x]))[0]


def test_section_max_centres_a_flat_top():
    """On the plain Gamma log-weight the top is flat to rounding; no side wins.

    150 ln E - E stays within an ulp of its maximum over |E - 150| <~ 5.8e-6,
    3.9e-8 relative, so the points of the last rounds tie.  Over 40 brackets
    every result lies in that flat top, and the mean signed error is a tenth
    of it: always keeping the leftmost tie pulls the mean to -1e-8.
    """
    def lnh(e):
        return 150.0 * np.log(e) - e

    flat = math.sqrt(2.0 * 150.0 * np.spacing(lnh(150.0))) / 150.0
    errors = np.array([(_section_max(lnh, 150.0 * (0.6 + 0.0037 * k),
                                     150.0 * (1.4 - 0.0091 * k))[0] - 150.0) / 150.0
                       for k in range(40)])
    assert np.all(np.abs(errors) <= flat)
    assert abs(errors.mean()) <= 0.1 * flat


def test_nan_probe_in_the_window_search_raises_domain_error():
    """A NaN band around a window edge, between coarse-scan points, fails loudly.

    The band is centred on the left window edge of the clean build and is
    1000x narrower than the scan spacing there (2), so only a probe of the
    crossing search can meet it.  Read as below the target, it would move
    the edge into the band.
    """
    profile = ExponentialTail(delta=1.0, kappa=1.0)
    edge = float(build_distribution(IdealGas(1000), profile).grid[0])
    lo, hi = edge - 1e-3, edge + 1e-3

    def lnh(energy):
        e = np.asarray(energy, dtype=float)
        return np.where((lo < e) & (e < hi), np.nan, _log_weight(IdealGas(1000), profile)(e))

    with pytest.raises(DomainError, match="NaN") as info:
        _component_window(lnh, 0.0, math.inf, 0, ())
    energy = float(str(info.value).rsplit("=", 1)[1])
    assert lo < energy < hi


def test_window_of_a_peak_narrower_than_the_scan():
    """A peak missed by the scan gets its window from the located maximum.

    Every scan point lies more than 1e4 nats below the peak, so the scan
    points beside it are below the cut too; the edge searches start from
    the maximum instead and close on the crossings at x0 -+ sqrt(60e-12),
    to 1e-10 of the scan spacing 1/2048.
    """
    x0 = 0.50012345

    def lnh(energy):
        e = np.asarray(energy, dtype=float)
        return -1e12 * (e - x0) ** 2

    window, pk, lnh_peak = _component_window(lnh, 0.0, 1.0, 0, ())
    assert pk.energy == pytest.approx(x0, abs=1e-10) and not pk.at_boundary
    assert lnh_peak == float(lnh(pk.energy))
    half = math.sqrt(60e-12)
    assert window.lo == pytest.approx(x0 - half, abs=1e-10 / 2048)
    assert window.hi == pytest.approx(x0 + half, abs=1e-10 / 2048)
    assert lnh(window.lo) < -60.0 and lnh(window.hi) < -60.0


class _CountingModel:
    """A model that counts its ln_density calls, one per log-weight evaluation."""

    def __init__(self, model):
        self.model, self.n_particles, self.calls = model, model.n_particles, 0

    def domain(self):
        return self.model.domain()

    def ln_density(self, energy):
        self.calls += 1
        return self.model.ln_density(energy)


def test_window_search_and_peak_make_few_log_weight_calls():
    """Every probe of the window search is one vector call, and peak makes none.

    The tail's build makes 11: the right-edge growth 1, the peak scan 1,
    the maximum 4, both window edges 4 and the first level 1.  The edges
    share each round's call; each search starts from the peak-scan cell
    that straddles the cut and stops within 1e-10 of its distance from the
    peak.  The first level evaluates its first round's 257 points too, on
    which the tail converges.  The window's peak is its upper edge, so it
    needs no growth and one edge, and it converges one round later.  The
    edges searched one after the other made 16 and 12; searched from the
    peak to adjacent floats, 22; with one scalar call per golden-section,
    bisection or doubling step, 162.  The maximum the window search finds is
    the distribution's peak, so peak evaluates nothing.
    """
    for profile, peak_energy in ((ExponentialTail(delta=1.0, kappa=1.0), 1500.0),
                                 (UniformWindow(0.0, 1.0), 1.0)):
        model = _CountingModel(IdealGas(1000))
        dist = build_distribution(model, profile)
        assert model.calls <= 11
        model.calls = 0
        assert peak(dist).energy == pytest.approx(peak_energy, rel=1e-6)
        assert model.calls == 0


def _scalar_right_edge(lnh, lo):
    """Reference: the right-edge growth with one scalar log-weight call per doubling."""
    x = x_best = max(1.0, 2.0 * abs(lo))
    prev_v = best = float(lnh(x))
    for _ in range(500):
        x *= 2.0
        v = float(lnh(x))
        if v > best:
            x_best, best = x, v
        if v < best and v <= best - _WINDOW_NATS - 10.0:
            slope = (v - prev_v) / math.log(2.0)
            if slope >= -1.0 - 1e-6:
                raise DivergenceError(
                    "tail falls like E^%.6g at E = %.6g; the normalization "
                    "integral does not converge" % (slope, x))
            return x, x_best
        prev_v = v
    raise DivergenceError(
        "log-weight never fell %g nats below its maximum within %d doublings; "
        "the distribution has no normalizable peak" % (_WINDOW_NATS, 500))


@pytest.mark.parametrize("n_particles, profile", [
    (1000, ExponentialTail(delta=1.0, kappa=1.0)),
    (10, ExponentialTail(delta=1e-3, kappa=0.5)),
    (5000, ExponentialTail(delta=2.0, kappa=3.0)),
    (100, AlgebraicTail(decay=153.0)),
    (100, AlgebraicTail(decay=151.0)),
    (100, AlgebraicTail(decay=100.0)),
], ids=["gamma", "slow-stretched", "fast-stretched", "broad", "divergent", "growing"])
def test_grow_right_edge_matches_scalar_doubling(n_particles, profile):
    """Blocks of doublings stop where single doublings stop, or fail alike.

    Both report the same best probe: the first doubling at the running maximum.
    """
    lnh = _log_weight(IdealGas(n_particles), profile)

    def outcome(grow):
        try:
            return grow()
        except DivergenceError as exc:
            return str(exc)

    expected = outcome(lambda: _scalar_right_edge(lnh, 0.0))
    assert outcome(lambda: _grow_right_edge(lnh, 0.0)) == expected
