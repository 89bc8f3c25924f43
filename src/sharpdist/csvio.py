"""Deterministic CSV output with comment headers and atomic writes.

Files are UTF-8 with plain \\n line endings; ``#``-prefixed comment lines
carry provenance (tool version, command, effective config) and, for fits,
trailing metadata.  Floats are formatted with shortest round-trip repr, so
identical inputs produce byte-identical files.

Rows are formatted and streamed to a temp file ``BLOCK_ROWS`` at a time,
and the temp file is renamed onto the target only once it is complete.
The array-backed writers format a column block at a time and hand
``write_csv`` each row as one joined line.  A distribution file is the
build grid itself, each point with its probability mass.
"""

from __future__ import annotations

import os
from itertools import islice
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

# rows formatted and written per block: a few hundred kB of text
BLOCK_ROWS = 8192


def format_value(value) -> str:
    if isinstance(value, np.generic):   # a numpy scalar is written as its Python value
        value = value.item()
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
    """Write one CSV file atomically (temp file then rename).

    ``rows`` is an iterable of row tuples (or of joined ``str`` lines),
    consumed and written ``BLOCK_ROWS`` rows at a time.  If anything
    raises, the temp file is removed and ``path`` is left as it was.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    rows = iter(rows)
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as f:
            f.write("".join("# %s\n" % c for c in comments))
            f.write(",".join(columns) + "\n")
            while True:
                block = [row if type(row) is str else ",".join(map(format_value, row))
                         for row in islice(rows, BLOCK_ROWS)]
                if not block:
                    break
                block.append("")   # so the block ends with a newline
                f.write("\n".join(block))
            f.write("".join("# %s\n" % c for c in trailing_comments))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    return path


def _array_rows(*columns):
    """A CSV line per row of equal-length 1-d arrays; cells as ``format_value`` writes them.

    Each column block maps ``float.__repr__`` (``str`` for integers) over its ``tolist()``.
    """
    formats = [str if c.dtype.kind in "iu" else float.__repr__ for c in columns]
    for start in range(0, len(columns[0]), BLOCK_ROWS):
        yield from map(",".join, zip(*(map(fmt, c[start:start + BLOCK_ROWS].tolist())
                                       for fmt, c in zip(formats, columns))))


def write_distribution_csv(path, dist, comments=()):
    """The build grid as E,ln_w,mass rows: ``dist.grid``, ``dist.ln_w`` and ``dist.point_masses``.

    ``mass`` is each point's quadrature weight times W, so the column sums
    to 1 and its E-weighted sum is the mean, with no second rule.
    """
    return write_csv(path, ("E", "ln_w", "mass"),
                     _array_rows(dist.grid, dist.ln_w, dist.point_masses), comments)


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
    spectrum = state.spectrum
    rows = _array_rows(np.arange(len(spectrum)), spectrum.energies,
                       state.ln_weights, state.phases)
    return write_csv(path, ("k", "E", "ln_weight", "phase"), rows, comments)


def write_amplitude_csv(path, profile, grid, comments=()):
    grid = np.asarray(grid, dtype=float)
    vals = np.asarray(profile.ln_amp_sq(grid))
    return write_csv(path, ("E", "ln_amp_sq", "amp_sq"), _array_rows(grid, vals, np.exp(vals)),
                     comments)
