"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.  Every distribution built here is also registered for the
global normalization check in criterion 9.
"""

import math

import pytest

from sharpdist import (DELTA_SCALINGS, AlgebraicTail, DivergenceError,
                       ExponentialTail, IdealGas, IsingChain, Lumps,
                       UniformWindow, bounded_profile_prediction,
                       build_distribution, compare_discrete_continuum,
                       evolve_phases, expectation_of_energy_function,
                       exponential_tail_builder, fit_power_law,
                       ising_chain_spectrum, lump_mass_fractions, moments,
                       peak, prepare_state, sweep, tail_profile_prediction)
from sharpdist.cli import main as cli_main
from sharpdist.scaling import bounded_window_builder, default_n_values

from oracles import (gamma_moments, monomial_window_moments,
                     two_lump_lower_fraction)

_BUILT = []


def build_tracked(model, profile):
    dist = build_distribution(model, profile)
    _BUILT.append(dist)
    return dist


def report(number, ok, text):
    print("ACCEPTANCE %d %s: %s" % (number, "PASS" if ok else "FAIL", text))
    assert ok, text


def test_criterion_1_gamma_oracle():
    worst = 0.0
    for n in (10, 100, 1000):
        dist = build_tracked(IdealGas(n), ExponentialTail(delta=1.0, kappa=1.0))
        mean, width = moments(dist)
        mean_ref, width_ref = gamma_moments(1.5 * n + 1)
        worst = max(worst, abs(mean - mean_ref) / mean_ref,
                    abs(width - width_ref) / width_ref)
    report(1, worst < 1e-6,
           "gamma-shape oracle at N in {10,100,1000}: worst moment rel err %.3g (tol 1e-6)" % worst)


def test_criterion_2_bounded_window_oracle():
    worst = 0.0
    for n in (100, 1000):
        dist = build_tracked(IdealGas(n), UniformWindow(0.0, 1.0))
        mean, width = moments(dist)
        mean_ref, width_ref = monomial_window_moments(3 * n // 2)
        worst = max(worst, abs(mean - mean_ref) / mean_ref,
                    abs(width - width_ref) / width_ref)
    n_big = 10_000
    dist = build_tracked(IdealGas(n_big), UniformWindow(0.0, 1.0))
    mean_big, _ = moments(dist)
    eps_pred = bounded_profile_prediction(IdealGas(n_big), UniformWindow(0.0, 1.0)).eps
    assert eps_pred == pytest.approx(1.0 / 15000.0, rel=1e-12)
    edge_gap_ratio = (1.0 - mean_big) / eps_pred
    ok = worst < 1e-6 and abs(edge_gap_ratio - 1.0) < 0.02
    report(2, ok,
           "bounded-window oracle: worst moment rel err %.3g (tol 1e-6); "
           "(E_max - mean)/eps_pred = %.5f at N=1e4 (tol 2%%)" % (worst, edge_gap_ratio))


def test_criterion_3_scaling_band():
    n_values = default_n_values()
    records, skipped = sweep(bounded_window_builder(1.0), n_values)
    assert skipped == []
    bounded = fit_power_law(records)
    ok = abs(bounded.kappa - 1.0) <= 0.05 and bounded.r_squared > 0.999
    detail = ["bounded kappa=%.4f r2=%.6f" % (bounded.kappa, bounded.r_squared)]
    for delta_scaling in DELTA_SCALINGS:
        records, skipped = sweep(exponential_tail_builder(2.0, delta_scaling), n_values)
        assert skipped == []
        fit = fit_power_law(records)
        ok = ok and abs(fit.kappa - 0.5) <= 0.02
        detail.append("tail[%s] kappa=%.4f" % (delta_scaling, fit.kappa))
    report(3, ok, "scaling band: " + ", ".join(detail)
           + " (bounded 1.00+-0.05 r2>0.999, tails 0.50+-0.02)")


def test_criterion_4_tail_saddle_point():
    model = IdealGas(100)
    profile = ExponentialTail(delta=1.0, kappa=2.0)
    dist = build_tracked(model, profile)
    pk = peak(dist)
    peak_err = abs(pk.energy - math.sqrt(75.0)) / math.sqrt(75.0)
    _, width_numeric = moments(dist)
    width_pred = tail_profile_prediction(model, profile).width
    width_err = abs(width_pred - width_numeric) / width_numeric
    ok = peak_err < 1e-6 and width_err < 0.05
    report(4, ok,
           "tail saddle point: peak rel err %.3g (tol 1e-6), "
           "curvature width off by %.3g (tol 5%%)" % (peak_err, width_err))


def test_criterion_5_lumps_concentration():
    lumps = Lumps.uniform([(0.0, 0.5), (0.8, 1.0)])
    dist = build_tracked(IdealGas(100), lumps)
    fractions = lump_mass_fractions(dist)
    ref = two_lump_lower_fraction(150, [(0.0, 0.5), (0.8, 1.0)])
    ok = fractions[0] < 1e-40 and fractions[0] == pytest.approx(ref, rel=1e-6)
    report(5, ok,
           "lumps concentration: lower-lump mass %.3e (< 1e-40), "
           "oracle %.3e" % (fractions[0], ref))


def test_criterion_6_failure_modes():
    diverged = False
    try:
        build_distribution(IdealGas(100), AlgebraicTail(decay=151.0, e_ref=1.0))
    except DivergenceError:
        diverged = True
    dist = build_tracked(IdealGas(100), AlgebraicTail(decay=153.0, e_ref=1.0))
    mean, width = moments(dist)
    ratio = width / mean
    ok = diverged and ratio > 0.2
    report(6, ok,
           "failure modes: eta=3N/2+1 diverged=%s; eta=3N/2+3 ratio=%.3f (> 0.2)"
           % (diverged, ratio))


def test_criterion_7_stationarity():
    spectrum = ising_chain_spectrum(64, 1.0)
    window = UniformWindow(-40.0, -10.0)
    times = (0.0, 0.3, 1.0, 2.7, 5.5, 9.1, 17.0, 42.0, 137.0, 1001.0)
    powers = (1, 2, 3, 4)
    worst = 0.0
    for seed in range(100):
        state = prepare_state(spectrum, window, phase_seed=seed)
        base = [expectation_of_energy_function(state, lambda e, p=p: e ** p)
                for p in powers]
        for t in times:
            evolved = evolve_phases(state, t)
            for ref, p in zip(base, powers):
                now = expectation_of_energy_function(evolved, lambda e, p=p: e ** p)
                worst = max(worst, abs(now - ref))
    report(7, worst <= 1e-12,
           "stationarity: 100 seeds x 10 times, worst moment drift %.3g (tol 1e-12)" % worst)


def test_criterion_8_discrete_continuum_convergence():
    def band_profile(n):
        band = float(n - 1)
        from sharpdist import ExponentialCutoff
        return ExponentialCutoff(e0=-0.5 * band, e1=0.15 * band, gamma_exp=2.0,
                                 e_max=-0.2 * band)

    def compare(n):
        profile = band_profile(n)
        state = prepare_state(ising_chain_spectrum(n, 1.0), profile)
        return compare_discrete_continuum(state, profile, IsingChain(n, 1.0))

    dense, sparse = compare(1000), compare(10)
    dense_disc = max(dense.mean_rel_diff, dense.width_rel_diff)
    sparse_disc = max(sparse.mean_rel_diff, sparse.width_rel_diff)
    ok = dense_disc < 1e-2 and sparse_disc >= 10.0 * dense_disc
    report(8, ok,
           "discrete-continuum: N=1000 discrepancy %.3e (< 1e-2), "
           "N=10 discrepancy %.3e (>= 10x)" % (dense_disc, sparse_disc))


def test_criterion_9_normalization_and_determinism(tmp_path):
    assert _BUILT, "criterion 9 runs after the builds it audits"
    worst = max(d.normalization_residual() for d in _BUILT)

    out_a, out_b = tmp_path / "a", tmp_path / "b"
    args = ["dist", "--set", "model.n=10", "--set", "profile.variant=exponential-tail",
            "--set", "profile.delta=1.0", "--set", "profile.kappa=1.0"]
    assert cli_main(args + ["--out", str(out_a)]) == 0
    assert cli_main(args + ["--out", str(out_b)]) == 0
    identical = all((out_a / name).read_bytes() == (out_b / name).read_bytes()
                    for name in ("distribution.csv", "summary.csv"))

    ok = worst < 1e-9 and identical
    report(9, ok,
           "normalization residual %.3e over %d built distributions (tol 1e-9); "
           "byte-identical reruns: %s" % (worst, len(_BUILT), identical))
