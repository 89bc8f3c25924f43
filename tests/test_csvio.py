"""The CSV format contract: every byte of a file follows the per-cell rules below."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sharpdist import AlgebraicCutoff, UniformWindow, ising_chain_spectrum, prepare_state
from sharpdist import csvio


def reference_cell(value) -> str:
    """The per-cell rules, written out cell by cell as the format defines them."""
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


def lines_of(text):
    # compared as lists, a mismatch in a long file is reported by its first line
    return text.splitlines(keepends=True)


def reference_text(columns, rows, comments=(), trailing_comments=()) -> str:
    parts = ["# %s\n" % c for c in comments]
    parts.append(",".join(columns) + "\n")
    for row in rows:
        parts.append(",".join(reference_cell(v) for v in row) + "\n")
    parts.extend("# %s\n" % c for c in trailing_comments)
    return "".join(parts)


EDGE_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.2250738585072014e-308,
               1e16, 1e-5, 0.1, 123456789.0]
TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=6)
CELLS = st.one_of(st.floats(), st.sampled_from(EDGE_FLOATS), st.integers(), st.booleans(),
                  st.none(), TEXT, st.sampled_from(['a,b', 'say "hi"', '","', '""', 'x\ny']))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(st.integers(min_value=1, max_value=4).flatmap(
           lambda width: st.lists(st.tuples(*[CELLS] * width), max_size=12)),
       st.integers(min_value=1, max_value=5),
       st.lists(TEXT.filter(lambda t: "\n" not in t), max_size=2),
       st.lists(TEXT.filter(lambda t: "\n" not in t), max_size=2))
def test_file_text_follows_the_per_cell_rules(tmp_path_factory, rows, block, comments, trailing):
    width = len(rows[0]) if rows else 2
    columns = ["c%d" % i for i in range(width)]
    path = tmp_path_factory.mktemp("csv") / "out.csv"
    with mock.patch.object(csvio, "BLOCK_ROWS", block):
        out = csvio.write_csv(path, columns, iter(rows), comments, trailing)
    assert out == path
    assert path.read_bytes() == reference_text(columns, rows, comments, trailing).encode("utf-8")
    assert not path.with_name("out.csv.tmp").exists()


@pytest.mark.parametrize("value, cell", [
    (np.float64(0.1), "0.1"), (np.bool_(True), "true"), (np.bool_(False), "false"),
    (np.int64(-7), "-7"), (np.float64(math.nan), "nan"),
], ids=["float64", "bool-true", "bool-false", "int64", "float64-nan"])
def test_numpy_scalars_are_written_as_their_python_values(value, cell):
    """A numpy scalar cell follows the rule of its Python value, not its repr or str."""
    assert csvio.format_value(value) == cell == reference_cell(value.item())


BLOCK = csvio.BLOCK_ROWS


@pytest.mark.parametrize("n_rows", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1])
def test_amplitude_export_across_block_edges(tmp_path, n_rows):
    grid = np.linspace(-0.5, 1.2, n_rows)
    profile = AlgebraicCutoff(0.3, 1.0, 2.0)   # -inf, so w = 0.0, outside [-0.4, 1]
    path = csvio.write_amplitude_csv(tmp_path / "amp.csv", profile, grid, ["c=1"])
    vals = np.asarray(profile.ln_amp_sq(grid))
    rows = [(float(e), float(la), float(np.exp(la))) for e, la in zip(grid, vals)]
    expected = reference_text(("E", "ln_amp_sq", "amp_sq"), rows, ["c=1"])
    assert lines_of(path.read_text(encoding="utf-8")) == lines_of(expected)
    assert expected.count("\n") == 2 + n_rows


def test_state_export_one_row_past_a_block(tmp_path):
    state = prepare_state(ising_chain_spectrum(BLOCK + 1, 1.0), UniformWindow(-9000.0, 0.0),
                          phase_seed=5)
    path = csvio.write_state_csv(tmp_path / "state.csv", state)
    rows = [(k, float(e), float(lw), float(ph))
            for k, (e, lw, ph) in enumerate(zip(state.spectrum.energies,
                                                state.ln_weights, state.phases))]
    assert len(rows) == BLOCK + 1
    expected = reference_text(("k", "E", "ln_weight", "phase"), rows)
    assert lines_of(path.read_text(encoding="utf-8")) == lines_of(expected)


def failing_rows(n_good):
    for i in range(n_good):
        yield (float(i), i)
    raise RuntimeError("row source failed")


@pytest.mark.parametrize("existing", [False, True])
def test_rows_raising_partway_leave_no_file_behind(tmp_path, existing):
    """Blocks already streamed to the temp file must not survive a failed write."""
    path = tmp_path / "out.csv"
    if existing:
        path.write_text("old\n", encoding="utf-8")
    with mock.patch.object(csvio, "BLOCK_ROWS", 2):
        with pytest.raises(RuntimeError, match="row source failed"):
            csvio.write_csv(path, ("x", "n"), failing_rows(5), ["c=1"])
    assert not (tmp_path / "out.csv.tmp").exists()
    if existing:
        assert path.read_text(encoding="utf-8") == "old\n"
    else:
        assert sorted(tmp_path.iterdir()) == []
