"""Deterministic CSV output with comment headers and atomic writes.

Files are UTF-8 with plain \\n line endings; ``#``-prefixed comment lines
carry provenance (tool version, command, effective config) and, for fits,
trailing metadata.  Floats are formatted with shortest round-trip repr, so
identical inputs produce byte-identical files.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .distribution import export_curve


def format_value(value) -> str:
    if value is None:
        return "nan"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, int):
        return str(value)
    text = str(value)
    if any(ch in text for ch in ",\"\n"):
        return '"%s"' % text.replace('"', '""')
    return text


def config_comments(tool_version: str, command: str, config: Mapping) -> list:
    lines = ["sharpdist %s" % tool_version, "command=%s" % command]
    lines.extend("%s=%s" % (k, config[k]) for k in sorted(config))
    return lines


def write_csv(path, columns: Sequence[str], rows: Iterable,
              comments: Sequence[str] = (), trailing_comments: Sequence[str] = ()) -> Path:
    """Write one CSV file atomically (temp file then rename)."""
    path = Path(path)
    parts = ["# %s\n" % c for c in comments]
    parts.append(",".join(columns) + "\n")
    for row in rows:
        parts.append(",".join(format_value(v) for v in row) + "\n")
    parts.extend("# %s\n" % c for c in trailing_comments)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text("".join(parts), encoding="utf-8", newline="\n")
    os.replace(tmp, path)
    return path


def write_spectrum_csv(path, spectrum, comments=()):
    rows = ((int(k), float(e), float(g))
            for k, (e, g) in enumerate(zip(spectrum.energies, spectrum.ln_degeneracies)))
    return write_csv(path, ("k", "E", "ln_g"), rows, comments)


def write_distribution_csv(path, dist, comments=(), max_rows=None):
    """Distribution curve as E,ln_w,w rows.

    ``max_rows`` caps the export per ``distribution.export_curve``: each
    segment is stride-decimated, or resampled on a finer uniform grid when
    its build grid is too coarse for a plain trapezoid over the file to
    integrate to 1; None or 0 writes the build grid.
    """
    import numpy as np
    grid, ln_w = export_curve(dist, max_rows)
    rows = ((float(e), float(lw), float(np.exp(lw)))
            for e, lw in zip(grid, ln_w))
    return write_csv(path, ("E", "ln_w", "w"), rows, comments)


def write_summary_csv(path, n_particles, summary, comments=()):
    row = (int(n_particles), summary.mean, summary.width, summary.ratio,
           summary.peak_energy, summary.eps_pred, summary.mean_pred,
           summary.width_pred, summary.entropy_at_mean)
    return write_csv(path, ("N", "E_mean", "dE", "ratio", "E_peak", "eps_pred",
                            "E_mean_pred", "dE_pred", "S"), [row], comments)


def write_sweep_csv(path, records, fit=None, comments=(), skipped=()):
    rows = ((r.n_particles, r.mean, r.width, r.ratio) for r in records)
    trailing = []
    trailing.extend(skipped)
    if fit is not None:
        trailing.append("kappa=%s, intercept=%s, r2=%s"
                        % (repr(fit.kappa), repr(fit.intercept), repr(fit.r_squared)))
    return write_csv(path, ("N", "E_mean", "dE", "ratio"), rows, comments, trailing)


def write_state_csv(path, state, comments=()):
    rows = ((int(k), float(e), float(lw), float(ph))
            for k, (e, lw, ph) in enumerate(zip(state.spectrum.energies,
                                                state.ln_weights, state.phases)))
    return write_csv(path, ("k", "E", "ln_weight", "phase"), rows, comments)


def write_amplitude_csv(path, profile, grid, comments=()):
    import numpy as np
    vals = np.asarray(profile.ln_amp_sq(grid))
    rows = ((float(e), float(la), float(np.exp(la))) for e, la in zip(grid, vals))
    return write_csv(path, ("E", "ln_amp_sq", "amp_sq"), rows, comments)
