"""Command-line front end: batch commands producing CSV and plot-ready data.

Commands: ``dist`` builds one distribution, ``scaling`` runs a system-size
sweep with a power-law fit, ``oracle`` compares discrete and continuum
moments on the spin chain, ``fig1`` emits paired amplitude/distribution
curves for a bounded profile and a two-lump profile, ``failure-demo`` runs
a power-law tail into its broad or divergent regime.  Each command is one
entry of ``_COMMANDS``: its defaults (the grid's are ``GridPolicy``'s), its
runner, which ``main`` hands the files' ``#`` header, and its help line.

Configuration precedence: ``--set key=value`` flags over the ``--config``
file over built-in defaults.  A key that is neither among the command's
defaults nor a parameter of the chosen model kind or profile variant is a
usage error (exit 2), raised before any file is written.  The effective
configuration is echoed into every output file header, and identical
configurations produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .configio import (_parse_lump_intervals, get_float, get_int, get_int_list,
                       get_str, keys_read, model_from_config, parse_kv_text,
                       profile_from_config)
from .csvio import (config_comments, write_amplitude_csv, write_csv,
                    write_distribution_csv, write_state_csv, write_summary_csv,
                    write_sweep_csv)
from .distribution import (DEFAULT_POLICY, GridPolicy, build_distribution,
                           lump_mass_fractions, summarize)
from .dos import IsingChain, ising_chain_spectrum
from .errors import ConvergenceError, DivergenceError, NoMaximumError
from .oracle import compare_discrete_continuum, prepare_state
from .profiles import AlgebraicCutoff, Lumps
from .scaling import (algebraic_tail_builder, bounded_window_builder,
                      default_n_values, exponential_tail_builder,
                      failure_mode_demo, fit_power_law, sweep)

OUT_DIR_ENV = "SHARPDIST_OUT"

GRID_DEFAULTS = {"grid." + k: str(v) for k, v in asdict(DEFAULT_POLICY).items()}

_MODEL_DEFAULTS = {"model.kind": "ideal-gas", "model.n": "100", "model.ln_prefactor": "0.0"}

DIST_DEFAULTS = {
    **_MODEL_DEFAULTS,
    "profile.variant": "uniform-window",
    "profile.e_min": "0.0",
    "profile.e_max": "1.0",
    "output.max_rows": "131073",
    **GRID_DEFAULTS,
}

SCALING_DEFAULTS = {
    "sweep.preset": "bounded",
    "sweep.n_list": ",".join(str(n) for n in default_n_values()),
    "sweep.e_max": "1.0",
    "sweep.kappa": "2.0",
    "sweep.delta0": "1.0",
    "sweep.eta": "160.0",
    "sweep.e_ref": "1.0",
    **GRID_DEFAULTS,
}

ORACLE_DEFAULTS = {
    "oracle.n": "1000",
    "oracle.j": "1.0",
    "profile.variant": "exponential-cutoff",
    "profile.e0": "-499.5",
    "profile.e1": "149.85",
    "profile.gamma": "2.0",
    "profile.e_max": "-199.8",
    "profile.ln_k": "0.0",
    "seed": "0",
    **GRID_DEFAULTS,
}

FIG1_DEFAULTS = {
    **_MODEL_DEFAULTS,
    "bounded.e0": "0.3",
    "bounded.e_max": "1.0",
    "bounded.alpha": "2.0",
    "bounded.ln_k": "0.0",
    "lumps.intervals": "0.0:0.5,0.8:1.0",
    "curve_points": "801",
    "output.max_rows": "131073",
    **GRID_DEFAULTS,
}

FAILURE_DEFAULTS = {
    "demo.eta": "153.0",
    "demo.e_ref": "1.0",
    "demo.threshold": "0.2",
    **_MODEL_DEFAULTS,
    **GRID_DEFAULTS,
}


class UsageError(Exception):
    pass


def _merge_config(command: str, config_path, set_items) -> dict:
    cfg = dict(_COMMANDS[command].defaults)
    if config_path is not None:
        path = Path(config_path)
        if not path.is_file():
            raise UsageError("config file not found: %s" % path)
        cfg.update(parse_kv_text(path.read_text(encoding="utf-8")))
    for item in set_items or ():
        if "=" not in item:
            raise UsageError("--set expects key=value, got %r" % item)
        key, value = item.split("=", 1)
        cfg[key.strip()] = value.strip()
    # a command that builds a model or a profile also accepts the parameters
    # of the chosen kind or variant
    known = set(_COMMANDS[command].defaults)
    if "model.kind" in known:
        known |= keys_read(model_from_config, cfg)
    if "profile.variant" in known:
        known |= keys_read(profile_from_config, cfg)
    unknown = sorted(set(cfg) - known)
    if unknown:
        raise UsageError("unknown config key%s for %s: %s"
                         % ("s" if len(unknown) > 1 else "", command, ", ".join(unknown)))
    return cfg


def _grid_policy(cfg) -> GridPolicy:
    return GridPolicy(initial_points=get_int(cfg, "grid.initial_points"),
                      max_points=get_int(cfg, "grid.max_points"),
                      refine_tol=get_float(cfg, "grid.refine_tol"))


def _out_dir(args) -> Path:
    out = args.out or os.environ.get(OUT_DIR_ENV) or "."
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def run_dist(cfg, out_dir: Path, comments: list) -> list:
    model = model_from_config(cfg)
    dist = build_distribution(model, profile_from_config(cfg), _grid_policy(cfg))
    summary = summarize(dist)
    files = [
        write_distribution_csv(out_dir / "distribution.csv", dist, comments,
                               max_rows=get_int(cfg, "output.max_rows")),
        write_summary_csv(out_dir / "summary.csv", model.n_particles, summary, comments),
    ]
    print("mean=%r width=%r ratio=%r" % (summary.mean, summary.width, summary.ratio))
    return files


def _scaling_builder(cfg):
    preset = get_str(cfg, "sweep.preset")
    if preset == "bounded":
        return bounded_window_builder(e_max=get_float(cfg, "sweep.e_max"))
    if preset == "tail-algebraic":
        return algebraic_tail_builder(eta=get_float(cfg, "sweep.eta"),
                                      e_ref=get_float(cfg, "sweep.e_ref"))
    if preset.startswith("tail-"):
        scaling_name = preset[len("tail-"):]
        return exponential_tail_builder(kappa=get_float(cfg, "sweep.kappa"),
                                        delta_scaling=scaling_name,
                                        delta0=get_float(cfg, "sweep.delta0"))
    raise UsageError("unknown sweep preset %r (use bounded, tail-constant, "
                     "tail-saddle, tail-linear or tail-algebraic)" % preset)


def run_scaling(cfg, out_dir: Path, comments: list) -> list:
    n_values = get_int_list(cfg, "sweep.n_list")
    records, skipped = sweep(_scaling_builder(cfg), n_values, _grid_policy(cfg))
    fit = None
    if len(records) >= 3:
        fit = fit_power_law(records)
        print("kappa_fit=%r r2=%r" % (fit.kappa, fit.r_squared))
    files = [write_sweep_csv(out_dir / "sweep.csv", records, fit, comments, skipped)]
    if fit is None:
        raise DivergenceError("fewer than 3 sweep points survived; no fit "
                              "(see sweep.csv for per-N diagnostics)")
    return files


def run_oracle(cfg, out_dir: Path, comments: list) -> list:
    n, coupling = get_int(cfg, "oracle.n"), get_float(cfg, "oracle.j")
    spectrum = ising_chain_spectrum(n, coupling)
    profile = profile_from_config(cfg)
    model = IsingChain(n_particles=n, coupling=coupling)
    state = prepare_state(spectrum, profile, phase_seed=get_int(cfg, "seed"))
    report = compare_discrete_continuum(state, profile, model, _grid_policy(cfg))
    row = (report.mean_discrete, report.width_discrete, report.mean_continuum,
           report.width_continuum, report.mean_rel_diff, report.width_rel_diff,
           report.populated_levels, report.sub_resolution)
    files = [
        write_state_csv(out_dir / "state.csv", state, comments),
        write_csv(out_dir / "comparison.csv",
                  ("E_mean_discrete", "dE_discrete", "E_mean_continuum",
                   "dE_continuum", "mean_rel_diff", "dE_rel_diff",
                   "populated_levels", "sub_resolution"),
                  [row], comments),
    ]
    print("mean_rel_diff=%r dE_rel_diff=%r" % (report.mean_rel_diff, report.width_rel_diff))
    return files


def run_fig1(cfg, out_dir: Path, comments: list) -> list:
    model = model_from_config(cfg)
    policy = _grid_policy(cfg)
    n_curve = get_int(cfg, "curve_points")
    if n_curve < 2:
        raise ValueError("curve_points must be at least 2, got %d" % n_curve)

    bounded = AlgebraicCutoff(e0=get_float(cfg, "bounded.e0"),
                              e_max=get_float(cfg, "bounded.e_max"),
                              alpha=get_float(cfg, "bounded.alpha"),
                              ln_scale=get_float(cfg, "bounded.ln_k"))
    lumps = Lumps.uniform(_parse_lump_intervals(get_str(cfg, "lumps.intervals")))

    profiles = (("bounded", bounded), ("lumps", lumps))
    # both builds, and the first export's check of the row budget, come before
    # any file is written, so a config error leaves no partial output
    dists = [build_distribution(model, profile, policy) for _, profile in profiles]
    files = []
    for (tag, profile), dist in zip(profiles, dists):
        dist_file = write_distribution_csv(out_dir / ("fig1_%s_dist.csv" % tag),
                                           dist, comments,
                                           max_rows=get_int(cfg, "output.max_rows"))
        lo = min(s[0] for s in profile.support())
        hi = max(s[1] for s in profile.support())
        curve_grid = np.linspace(max(lo, model.domain()[0]), hi, n_curve)
        files.append(write_amplitude_csv(out_dir / ("fig1_%s_amp.csv" % tag),
                                         profile, curve_grid, comments))
        files.append(dist_file)
        if tag == "lumps":
            fractions = lump_mass_fractions(dist)
            print("lump_fractions=%s" % ",".join(repr(f) for f in fractions))
    return files


def run_failure_demo(cfg, out_dir: Path, comments: list) -> list:
    report = failure_mode_demo(model_from_config(cfg), get_float(cfg, "demo.eta"),
                               get_float(cfg, "demo.e_ref"),
                               threshold=get_float(cfg, "demo.threshold"),
                               policy=_grid_policy(cfg))
    row = (report.outcome, report.ratio, report.threshold, report.detail)
    files = [write_csv(out_dir / "failure_report.csv",
                       ("outcome", "ratio", "threshold", "detail"),
                       [row], comments)]
    print("outcome=%s" % report.outcome)
    return files


class _Command(NamedTuple):
    defaults: dict
    run: Callable   # run(cfg, out_dir, comments) -> the paths written
    help: str


_COMMANDS = {
    "dist": _Command(DIST_DEFAULTS, run_dist,
                     "build one distribution and write distribution/summary CSVs"),
    "scaling": _Command(SCALING_DEFAULTS, run_scaling,
                        "sweep system sizes and fit the sharpness exponent"),
    "oracle": _Command(ORACLE_DEFAULTS, run_oracle,
                       "discrete vs continuum comparison on the spin chain"),
    "fig1": _Command(FIG1_DEFAULTS, run_fig1, "paired amplitude/distribution curves "
                     "for a bounded and a two-lump profile"),
    "failure-demo": _Command(FAILURE_DEFAULTS, run_failure_demo,
                             "broad or divergent regime of a power-law tail"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sharpdist",
        description="Energy-distribution sharpness toolkit: build distributions, "
                    "sweep system sizes, compare against exact spectra.")
    parser.add_argument("--version", action="version", version="sharpdist %s" % __version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--config", default=None, help="key=value config file")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       help="override one config entry (repeatable)")
        p.add_argument("--out", default=None,
                       help="output directory (default: $%s or .)" % OUT_DIR_ENV)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _merge_config(args.command, args.config, args.set)
        out_dir = _out_dir(args)
        files = _COMMANDS[args.command].run(
            cfg, out_dir, config_comments(__version__, args.command, cfg))
    except UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return 2
    except ValueError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except (DivergenceError, NoMaximumError, ConvergenceError) as exc:
        print("%s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 4 if isinstance(exc, ConvergenceError) else 3
    for f in files:
        print("wrote %s" % f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
