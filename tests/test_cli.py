import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sharpdist import (AlgebraicCutoff, IdealGas, Lumps, UniformWindow,
                       build_distribution, cli, moments, numerics)
from sharpdist.cli import _COMMANDS, main
from sharpdist.configio import _Recording
from sharpdist.numerics import compensated_sum


def read_rows(path, column_names=None):
    """Parse one of our CSVs: (comments, header, rows as float lists)."""
    comments, header, rows = [], None, []
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            comments.append(line[2:])
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return comments, header, rows


def test_dist_default_run(tmp_path):
    assert main(["dist", "--out", str(tmp_path)]) == 0
    comments, header, rows = read_rows(tmp_path / "summary.csv")
    assert any(c == "model.n=100" for c in comments)       # effective config echoed
    assert any(c.startswith("sharpdist ") for c in comments)
    assert header == ["N", "E_mean", "dE", "ratio", "E_peak", "eps_pred",
                      "E_mean_pred", "dE_pred", "S"]
    row = dict(zip(header, rows[0]))
    assert float(row["ratio"]) == pytest.approx(6.579e-3, rel=1e-3)
    assert float(row["E_peak"]) == 1.0
    assert float(row["eps_pred"]) == pytest.approx(1.0 / 150.0)
    assert (tmp_path / "distribution.csv").is_file()


def test_dist_outputs_are_byte_identical(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["dist", "--out", str(out_a)]) == 0
    assert main(["dist", "--out", str(out_b)]) == 0
    for name in ("distribution.csv", "summary.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def assert_mass_column_normalized(path, e_mean):
    """The file's mass column sums to 1 within 1e-12 and its weighted mean is ``e_mean``."""
    _, header, rows = read_rows(path)
    assert header == ["E", "ln_w", "mass"]
    e = np.array([float(r[0]) for r in rows])
    mass = np.array([float(r[2]) for r in rows])
    total = compensated_sum(mass)
    assert abs(total - 1.0) <= 1e-12
    assert abs(compensated_sum(mass * e) / total / e_mean - 1.0) <= 1e-13


def test_dist_distribution_file_normalized(tmp_path):
    """Defaults, a tail, a LOG segment (AlgebraicTail(153)) and the spin-chain window."""
    for i, settings in enumerate([
            [],
            ["model.n=1000", "profile.variant=exponential-tail", "profile.delta=1.0",
             "profile.kappa=2.0"],
            ["profile.variant=algebraic-tail", "profile.eta=153"],
            ["model.kind=ising-chain", "model.n=1000", "profile.e_min=-300",
             "profile.e_max=300"]]):
        out = tmp_path / str(i)
        argv = ["dist", "--out", str(out)]
        for setting in settings:
            argv += ["--set", setting]
        assert main(argv) == 0
        _, header, rows = read_rows(out / "summary.csv")
        assert_mass_column_normalized(out / "distribution.csv",
                                      float(dict(zip(header, rows[0]))["E_mean"]))


def test_dist_config_file_and_overrides(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("model.n=10\nprofile.variant=exponential-tail\n"
                   "profile.delta=1.0\nprofile.kappa=1.0\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["dist", "--config", str(cfg), "--out", str(out)]) == 0
    _, header, rows = read_rows(out / "summary.csv")
    row = dict(zip(header, rows[0]))
    assert float(row["E_mean"]) == pytest.approx(16.0, rel=1e-9)
    assert float(row["dE_pred"]) == pytest.approx(math.sqrt(15.0), rel=1e-9)
    # flag overrides beat the file
    out2 = tmp_path / "out2"
    assert main(["dist", "--config", str(cfg), "--set", "model.n=100",
                 "--out", str(out2)]) == 0
    _, header2, rows2 = read_rows(out2 / "summary.csv")
    assert float(dict(zip(header2, rows2[0]))["E_mean"]) == pytest.approx(151.0, rel=1e-9)


def test_dist_missing_config_is_usage_error(tmp_path):
    assert main(["dist", "--config", str(tmp_path / "nope.cfg"),
                 "--out", str(tmp_path)]) == 2


def test_dist_divergent_profile_exits_nonzero(tmp_path, capsys):
    code = main(["dist", "--out", str(tmp_path),
                 "--set", "profile.variant=algebraic-tail",
                 "--set", "profile.eta=151.0"])
    assert code == 3
    assert "DivergenceError" in capsys.readouterr().err


def test_dist_unconverged_refinement_exits_4(tmp_path, capsys):
    code = main(["dist", "--out", str(tmp_path),
                 "--set", "grid.initial_points=9", "--set", "grid.max_points=17"])
    assert code == 4
    err = capsys.readouterr().err
    assert "ConvergenceError" in err and "17 points per segment" in err


def test_dist_non_integral_integer_key_is_config_error(tmp_path, capsys):
    assert main(["dist", "--out", str(tmp_path),
                 "--set", "grid.max_points=4097.9"]) == 2
    assert "grid.max_points" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["profile.kapa", "model.v", "grid.window_nats",
                                 "output.max_rows"])
def test_dist_unknown_key_is_usage_error(tmp_path, capsys, key):
    # profile.kapa is a typo; model.v is read by no model kind; the window
    # cut is a fixed 60 nats, not a setting; distribution files have no row cap
    out = tmp_path / "out"
    assert main(["dist", "--out", str(out), "--set", key + "=5"]) == 2
    assert "unknown config key for dist: %s" % key in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("setting, message", [
    ("grid.max_points=100", "max_points must equal initial_points (a fixed grid) or be at "
                            "least 2 * initial_points - 1 = 129 (one halving), got 100"),
    ("grid.initial_points=8", "initial_points must be at least 9"),
], ids=["max-points-below-initial", "initial-points-below-9"])
def test_dist_settings_the_build_would_override_are_config_errors(tmp_path, capsys,
                                                                  setting, message):
    out = tmp_path / "out"
    assert main(["dist", "--out", str(out), "--set", setting]) == 2
    assert message in capsys.readouterr().err
    assert not any(out.iterdir())


@pytest.mark.parametrize("initial, cap, code", [
    (4097, 8000, 2), (4097, 8192, 2), (65, 128, 2), (65, 66, 2),
    (4097, 4097, 0), (65, 129, 4),
])
def test_dist_grid_budget_that_fits_no_halving_is_a_config_error(tmp_path, capsys,
                                                                 initial, cap, code):
    """A cap between initial_points and one halving would return an untested grid.

    A cap equal to initial_points stays the fixed-resolution request, and a
    cap that fits one halving tests that halving (which fails here: exit 4).
    """
    out = tmp_path / "out"
    assert main(["dist", "--out", str(out), "--set", "grid.initial_points=%d" % initial,
                 "--set", "grid.max_points=%d" % cap]) == code
    if code == 2:
        err = capsys.readouterr().err
        assert "at least 2 * initial_points - 1 = %d" % (2 * initial - 1) in err
        assert not any(out.iterdir())


@pytest.mark.parametrize("setting", ["grid.refine_tol=inf", "grid.refine_tol=nan"],
                         ids=["inf", "nan"])
def test_dist_non_finite_refine_tol_is_a_config_error(tmp_path, capsys, monkeypatch, setting):
    """No build starts: inf exited 0 on an unrefined first round, NaN 2 after a partial build."""
    def no_build(*args):
        raise AssertionError("a config error must come before any build")

    monkeypatch.setattr(cli, "build_distribution", no_build)
    out = tmp_path / "out"
    assert main(["dist", "--out", str(out), "--set", setting]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "refine_tol must be positive and finite" in err
    assert list(out.iterdir()) == []


def test_dist_grid_below_the_float_spacing_exits_4(tmp_path, capsys):
    """N = 1e11 under the unit window narrows its one segment to [1 - 4e-10, 1].

    Its halvings would take the step below the float spacing at E = 1 and
    repeat energies (an internal error once, exit 1); the build stops
    before that level with a ConvergenceError naming the segment and the
    step, and writes nothing.
    """
    out = tmp_path / "out"
    assert main(["dist", "--out", str(out), "--set", "model.n=100000000000"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("ConvergenceError: segment [0.99999999") and ", 1.0]" in err
    assert "their step" in err and "energies would repeat" in err
    assert list(out.iterdir()) == []


def test_dist_spent_newton_cap_exits_4(tmp_path, capsys, monkeypatch):
    """summarize lets the saddle solve's ConvergenceError through: exit 4, no file."""
    monkeypatch.setattr(numerics, "_MAX_NEWTON_ITER", 1)
    out = tmp_path / "out"
    assert main(["dist", "--out", str(out), "--set", "model.n=1000",
                 "--set", "profile.variant=exponential-tail",
                 "--set", "profile.delta=1.0", "--set", "profile.kappa=1.0"]) == 4
    assert capsys.readouterr().err.startswith("ConvergenceError: Newton solve not converged")
    assert list(out.iterdir()) == []


def test_dist_prediction_outside_the_model_domain_is_written_as_nan(tmp_path):
    """The window's edge at 300 lies outside IsingChain(1000)'s domain [-999, 0]."""
    assert main(["dist", "--out", str(tmp_path), "--set", "model.kind=ising-chain",
                 "--set", "model.n=1000", "--set", "profile.e_min=-300",
                 "--set", "profile.e_max=300"]) == 0
    _, header, rows = read_rows(tmp_path / "summary.csv")
    row = dict(zip(header, rows[0]))
    assert [row[k] for k in ("eps_pred", "E_mean_pred", "dE_pred")] == ["nan"] * 3
    assert math.isfinite(float(row["E_mean"]))


def test_dist_writes_the_build_grid_with_its_point_masses(tmp_path):
    assert main(["dist", "--out", str(tmp_path)]) == 0
    _, _, rows = read_rows(tmp_path / "distribution.csv")
    dist = build_distribution(IdealGas(100), UniformWindow(0.0, 1.0))
    assert len(rows) == dist.grid.size == 4097
    for column, values in enumerate((dist.grid, dist.ln_w, dist.point_masses)):
        assert np.array_equal([float(r[column]) for r in rows], values)


@pytest.mark.parametrize("argv, message", [
    (["dist", "--set", "foo"], "usage error: --set expects key=value, got 'foo'"),
    (["scaling", "--set", "sweep.preset=bogus"],
     "usage error: unknown sweep preset 'bogus' (use bounded, tail-constant, "
     "tail-saddle, tail-linear or tail-algebraic)"),
    (["dist", "--set", "model.kind=custom-entropy", "--set", "model.form=cubic",
      "--set", "model.coeff=1.0"],
     "config error: unknown custom entropy form 'cubic' (use power or log)"),
], ids=["set-without-equals", "unknown-preset", "unknown-entropy-form"])
def test_usage_and_config_errors_exit_2_and_write_nothing(tmp_path, capsys, argv, message):
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == message + "\n"
    assert not out.exists() or list(out.iterdir()) == []


@pytest.mark.parametrize("setting", ["lumps.intervals=-2:-1", "curve_points=-1",
                                     "curve_points=0"],
                         ids=["lumps-outside-domain", "negative-curve-points",
                              "zero-curve-points"])
def test_fig1_config_error_leaves_no_partial_output(tmp_path, capsys, setting):
    """Both builds and the curve size come before fig1 writes any file."""
    out = tmp_path / "out"
    assert main(["fig1", "--out", str(out), "--set", setting]) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert list(out.iterdir()) == []


def test_dist_support_outside_the_domain_is_a_config_error(tmp_path, capsys):
    """EmptyOverlapError is a ValueError: exit 2, named on stderr, no file written."""
    out = tmp_path / "out"
    assert main(["dist", "--out", str(out),
                 "--set", "profile.e_min=-2", "--set", "profile.e_max=-1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "does not intersect" in err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["dist", "--set", "profile.variant=lumps", "--set", "profile.lumps=0.0:0.5:0.7"],
    ["fig1", "--set", "lumps.intervals=0.0:0.5:0.7"],
], ids=["dist", "fig1"])
def test_malformed_lump_interval_names_its_token(tmp_path, capsys, argv):
    assert main(argv + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "'0.0:0.5:0.7'" in err


def test_keys_of_the_chosen_model_kind_are_known(tmp_path):
    assert main(["dist", "--out", str(tmp_path),
                 "--set", "model.kind=custom-entropy", "--set", "model.form=log",
                 "--set", "model.coeff=1.5", "--set", "grid.max_points=65537"]) == 0


@pytest.mark.parametrize("argv, key", [
    (["dist", "--set", "seed=1"], "seed"),
    (["scaling", "--set", "curve_points=10"], "curve_points"),
    (["fig1", "--set", "output.max_rows=0"], "output.max_rows"),
    (["dist", "--set", "model.kind=custom-entropy", "--set", "model.form=log",
      "--set", "model.coeff=1.5", "--set", "model.v=2"], "model.v"),
], ids=["dist-seed", "scaling-curve-points", "fig1-max-rows", "custom-entropy-v"])
def test_keys_no_command_reads_are_usage_errors(tmp_path, capsys, argv, key):
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 2
    assert "unknown config key for %s: %s" % (argv[0], key) in capsys.readouterr().err
    assert not out.exists()


# small inputs for every command; scaling runs once per preset, since each
# preset reads its own sweep.* keys
_RECORDED_RUNS = {
    "dist": [{}],
    "scaling": [{"sweep.preset": preset, "sweep.n_list": "10,20,40"}
                for preset in ("bounded", "tail-constant", "tail-saddle", "tail-linear",
                               "tail-algebraic")],
    "oracle": [{"oracle.n": "40", "profile.e0": "-19.5", "profile.e1": "5.85",
                "profile.e_max": "-7.8"}],
    "fig1": [{"model.n": "10", "curve_points": "11"}],
    "failure-demo": [{}],
}


@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_every_default_key_is_read_by_its_command(tmp_path, command):
    defaults, run, _ = _COMMANDS[command]
    read = set()
    for overrides in _RECORDED_RUNS[command]:
        cfg = _Recording({**defaults, **overrides})
        run(cfg, tmp_path, [])   # no header: writing one would read every key
        read |= cfg.read
    assert sorted(set(defaults) - read) == []


def test_dist_nan_log_weight_is_config_error(tmp_path, capsys):
    # s = e**0.5 is NaN at the negative energies this custom domain admits
    with pytest.warns(RuntimeWarning, match="invalid value encountered"):
        code = main(["dist", "--out", str(tmp_path),
                     "--set", "model.kind=custom-entropy", "--set", "model.form=power",
                     "--set", "model.coeff=1.0", "--set", "model.exponent=0.5",
                     "--set", "model.domain_lo=-1.0", "--set", "profile.e_min=-1.0"])
    assert code == 2
    assert "NaN" in capsys.readouterr().err


def test_scaling_bounded_preset(tmp_path):
    assert main(["scaling", "--out", str(tmp_path),
                 "--set", "sweep.n_list=100,316,1000"]) == 0
    comments, header, rows = read_rows(tmp_path / "sweep.csv")
    assert header == ["N", "E_mean", "dE", "ratio"]
    assert len(rows) == 3
    fit_line = [c for c in comments if c.startswith("kappa=")]
    assert len(fit_line) == 1
    kappa = float(fit_line[0].split(",")[0].split("=")[1])
    assert kappa == pytest.approx(1.0, abs=0.05)


def test_scaling_tail_preset(tmp_path):
    assert main(["scaling", "--out", str(tmp_path),
                 "--set", "sweep.preset=tail-constant",
                 "--set", "sweep.kappa=1.0",
                 "--set", "sweep.n_list=100,316,1000"]) == 0
    comments, _, _ = read_rows(tmp_path / "sweep.csv")
    fit_line = [c for c in comments if c.startswith("kappa=")][0]
    kappa = float(fit_line.split(",")[0].split("=")[1])
    assert kappa == pytest.approx(0.5, abs=0.02)


def test_scaling_two_point_list_is_usage_error(tmp_path, capsys):
    assert main(["scaling", "--out", str(tmp_path),
                 "--set", "sweep.n_list=100,200"]) == 2
    assert "config error: need at least 3 system sizes" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


def test_scaling_repeated_size_is_config_error(tmp_path, capsys):
    assert main(["scaling", "--out", str(tmp_path),
                 "--set", "sweep.n_list=100,100,200"]) == 2
    assert "strictly increasing" in capsys.readouterr().err
    assert not (tmp_path / "sweep.csv").exists()


def test_scaling_annotates_failed_sizes(tmp_path):
    # eta fixed while N grows: sizes past the integrability edge are skipped
    # with an annotation and the fit still runs on the survivors
    assert main(["scaling", "--out", str(tmp_path),
                 "--set", "sweep.preset=tail-algebraic",
                 "--set", "sweep.eta=160.0",
                 "--set", "sweep.n_list=60,70,80,90,200"]) == 0
    comments, _, rows = read_rows(tmp_path / "sweep.csv")
    assert len(rows) == 4
    skipped = [c for c in comments if c.startswith("N=200 skipped:")]
    assert len(skipped) == 1
    assert any(c.startswith("kappa=") for c in comments)


def test_scaling_fails_when_too_few_points_survive(tmp_path, capsys):
    code = main(["scaling", "--out", str(tmp_path),
                 "--set", "sweep.preset=tail-algebraic",
                 "--set", "sweep.eta=160.0",
                 "--set", "sweep.n_list=60,70,200,400"])
    assert code == 3
    assert "fewer than 3 sweep points survived" in capsys.readouterr().err
    assert (tmp_path / "sweep.csv").is_file()  # diagnostics still written


def test_oracle_command(tmp_path):
    assert main(["oracle", "--out", str(tmp_path),
                 "--set", "oracle.n=100",
                 "--set", "profile.e0=-49.5", "--set", "profile.e1=14.85",
                 "--set", "profile.e_max=-19.8"]) == 0
    _, header, rows = read_rows(tmp_path / "comparison.csv")
    row = dict(zip(header, rows[0]))
    assert float(row["mean_rel_diff"]) < 1e-2
    assert row["sub_resolution"] == "false"
    _, sheader, srows = read_rows(tmp_path / "state.csv")
    assert sheader == ["k", "E", "ln_weight", "phase"]
    assert len(srows) == 100


def test_oracle_prepares_the_state_once(tmp_path, monkeypatch):
    import sharpdist.cli
    import sharpdist.oracle
    calls = []
    prepare = sharpdist.oracle.prepare_state

    def counting(*args, **kwargs):
        calls.append(args)
        return prepare(*args, **kwargs)

    monkeypatch.setattr(sharpdist.oracle, "prepare_state", counting)
    monkeypatch.setattr(sharpdist.cli, "prepare_state", counting)
    assert main(["oracle", "--out", str(tmp_path), "--set", "oracle.n=40",
                 "--set", "profile.e0=-19.5", "--set", "profile.e1=5.85",
                 "--set", "profile.e_max=-7.8"]) == 0
    assert len(calls) == 1


def test_oracle_seed_changes_phases_only(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    common = ["oracle", "--set", "oracle.n=40", "--set", "profile.e0=-19.5",
              "--set", "profile.e1=5.85", "--set", "profile.e_max=-7.8"]
    assert main(common + ["--out", str(out_a)]) == 0
    assert main(common + ["--set", "seed=9", "--out", str(out_b)]) == 0
    _, _, rows_a = read_rows(out_a / "state.csv")
    _, _, rows_b = read_rows(out_b / "state.csv")
    weights_a = [r[2] for r in rows_a]
    weights_b = [r[2] for r in rows_b]
    phases_a = [r[3] for r in rows_a]
    phases_b = [r[3] for r in rows_b]
    assert weights_a == weights_b
    assert phases_a != phases_b


def test_fig1_writes_paired_curves(tmp_path):
    assert main(["fig1", "--out", str(tmp_path)]) == 0
    for name in ("fig1_bounded_amp.csv", "fig1_bounded_dist.csv",
                 "fig1_lumps_amp.csv", "fig1_lumps_dist.csv"):
        assert (tmp_path / name).is_file()
    # distribution concentrates near the top of the highest populated region
    _, header, rows = read_rows(tmp_path / "fig1_lumps_dist.csv")
    e = np.array([float(r[0]) for r in rows])
    ln_w = np.array([float(r[1]) for r in rows])
    assert np.all(ln_w[e < 0.5] < math.log(1e-40))
    _, _, rows_b = read_rows(tmp_path / "fig1_bounded_dist.csv")
    e_b = np.array([float(r[0]) for r in rows_b])
    ln_w_b = np.array([float(r[1]) for r in rows_b])
    e_peak = e_b[np.argmax(ln_w_b)]
    assert 0.9 < e_peak <= 1.0
    for tag, profile in (("bounded", AlgebraicCutoff(0.3, 1.0, 2.0)),
                         ("lumps", Lumps.uniform([(0.0, 0.5), (0.8, 1.0)]))):
        e_mean, _ = moments(build_distribution(IdealGas(100), profile))
        assert_mass_column_normalized(tmp_path / ("fig1_%s_dist.csv" % tag), e_mean)


def test_fig1_lump_intervals_accept_a_trailing_comma(tmp_path):
    """fig1 parses lumps.intervals as profile.lumps does: a trailing comma is ignored.

    The files differ only in the echoed configuration of their headers.
    """
    plain, comma = tmp_path / "plain", tmp_path / "comma"
    assert main(["fig1", "--out", str(plain)]) == 0
    assert main(["fig1", "--set", "lumps.intervals=0.0:0.5,0.8:1.0,",
                 "--out", str(comma)]) == 0
    names = sorted(f.name for f in plain.iterdir())
    assert names == sorted(f.name for f in comma.iterdir())
    for name in names:
        header_a, *data_a = read_rows(plain / name)
        header_b, *data_b = read_rows(comma / name)
        assert data_a == data_b
        assert [c for c in header_a if not c.startswith("lumps.intervals=")] == \
            [c for c in header_b if not c.startswith("lumps.intervals=")]


def test_failure_demo_default(tmp_path):
    assert main(["failure-demo", "--out", str(tmp_path)]) == 0
    _, header, rows = read_rows(tmp_path / "failure_report.csv")
    row = dict(zip(header, rows[0]))
    assert row["outcome"] == "broad"
    assert float(row["ratio"]) > 0.2


def test_failure_demo_divergent(tmp_path):
    assert main(["failure-demo", "--out", str(tmp_path),
                 "--set", "demo.eta=151.0"]) == 0
    _, header, rows = read_rows(tmp_path / "failure_report.csv")
    assert dict(zip(header, rows[0]))["outcome"] == "divergent"


def test_dist_tail_prediction_below_delta_in_a_bounded_domain(tmp_path):
    """The saddle-point bracket is searched inside the domain, on both sides of delta.

    Here the saddle (E = 0.93) lies below delta = 1, and delta * 2**5 lies
    past the domain.
    """
    assert main(["dist", "--out", str(tmp_path),
                 "--set", "model.kind=custom-entropy", "--set", "model.form=log",
                 "--set", "model.coeff=1.5", "--set", "model.n=2",
                 "--set", "model.domain_hi=10", "--set", "profile.variant=exponential-tail",
                 "--set", "profile.delta=1.0", "--set", "profile.kappa=4.0"]) == 0
    _, header, rows = read_rows(tmp_path / "summary.csv")
    summary = dict(zip(header, map(float, rows[0])))
    assert summary["E_mean_pred"] == pytest.approx(summary["E_peak"], rel=1e-6)


def test_dist_sub_unit_kappa_tail_diverges(tmp_path, capsys):
    """Square-root entropy under a kappa = 1/2 tail has no peak: exit 3, no files."""
    assert main(["dist", "--out", str(tmp_path),
                 "--set", "model.kind=custom-entropy", "--set", "model.form=power",
                 "--set", "model.coeff=2.0", "--set", "model.exponent=0.5",
                 "--set", "profile.variant=exponential-tail",
                 "--set", "profile.delta=1.0", "--set", "profile.kappa=0.5"]) == 3
    assert "DivergenceError" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_out_dir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("SHARPDIST_OUT", str(tmp_path / "from_env"))
    assert main(["dist", "--set", "model.n=10",
                 "--set", "profile.variant=exponential-tail",
                 "--set", "profile.delta=1.0", "--set", "profile.kappa=1.0"]) == 0
    assert (tmp_path / "from_env" / "summary.csv").is_file()


def test_import_does_not_load_scipy():
    """scipy.special is loaded by the spin chain only, not by importing the package."""
    code = "import sys, sharpdist, sharpdist.cli; print('scipy' in sys.modules)"
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"
