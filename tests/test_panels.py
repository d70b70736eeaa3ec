import io
import pathlib
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import covreg as cr
from covreg.errors import (
    DuplicateAssetId,
    MissingValueError,
    ParseError,
    TooFewObservations,
    ValidationError,
)
from covreg.serialize import matrix_from_csv

CSV = "id,t0,t1,t2\nAAA,0.01,0.02,-0.01\nBBB,-0.02,0.00,0.03\n"


def test_load_basic_csv():
    panel = cr.loads_panel(CSV)
    assert panel.n_assets == 2
    assert panel.n_obs == 3
    assert panel.asset_ids == ("AAA", "BBB")
    np.testing.assert_array_equal(
        panel.returns, [[0.01, 0.02, -0.01], [-0.02, 0.00, 0.03]]
    )


@pytest.mark.parametrize("as_path", [str, pathlib.Path])
def test_load_from_path(tmp_path, as_path):
    p = tmp_path / "panel.csv"
    p.write_text(CSV)
    panel = cr.load_panel(as_path(p))
    np.testing.assert_array_equal(panel.returns, cr.loads_panel(CSV).returns)


def test_load_from_path_rejects_non_utf8(tmp_path):
    p = tmp_path / "panel.csv"
    p.write_bytes(b"\xff" + CSV.encode())
    with pytest.raises(ParseError, match="input is not UTF-8 text"):
        cr.load_panel(p)


def test_load_no_header_synthesizes_ids():
    panel = cr.loads_panel("0.01,0.02\n0.03,0.04\n", header=False)
    assert panel.asset_ids == ("A0001", "A0002")


def test_load_no_header_with_ids():
    panel = cr.loads_panel("X,0.01,0.02\nY,0.03,0.04\n", header=False)
    assert panel.asset_ids == ("X", "Y")


def test_missing_cell_rejected():
    with pytest.raises(MissingValueError):
        cr.loads_panel("id,t0,t1\nA,0.01,\nB,0.02,0.03\n")


def test_na_token_rejected():
    with pytest.raises(MissingValueError):
        cr.loads_panel("id,t0,t1\nA,0.01,NA\nB,0.02,0.03\n")


def test_non_numeric_cell_rejected():
    with pytest.raises(ParseError):
        cr.loads_panel("id,t0,t1\nA,0.01,oops\nB,0.02,0.03\n")


def test_ragged_rows_rejected():
    with pytest.raises(ParseError):
        cr.loads_panel("id,t0,t1\nA,0.01,0.02\nB,0.02\n")


def test_single_asset_rejected():
    with pytest.raises(ValidationError):
        cr.loads_panel("id,t0,t1\nA,0.01,0.02\n")


def test_single_observation_rejected():
    with pytest.raises(TooFewObservations):
        cr.loads_panel("id,t0\nA,0.01\nB,0.02\n")


def test_duplicate_ids_rejected():
    with pytest.raises(DuplicateAssetId):
        cr.loads_panel("id,t0,t1\nA,0.01,0.02\nA,0.03,0.04\n")


FINITE = st.floats(allow_nan=False, allow_infinity=False).map(repr)
CELL = st.one_of(
    FINITE,
    FINITE.map(lambda t: f" {t}  "),
    st.sampled_from(["", "NA", "N/A", "nan", "inf", "1e400", "oops", "x1"]),
)


@st.composite
def token_grids(draw):
    n_rows, n_cols = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    return [draw(st.lists(CELL, min_size=n_cols, max_size=n_cols))
            for _ in range(n_rows)]


def first_bad_cell(grid):
    for i, row in enumerate(grid):
        for j, token in enumerate(row):
            try:
                if np.isfinite(float(token)):
                    continue
            except ValueError:
                pass
            return i, j
    return None


def assert_one_cell_grammar(read, grid):
    bad = first_bad_cell(grid)
    if bad is None:
        np.testing.assert_array_equal(read(), [[float(t) for t in row] for row in grid])
    else:
        with pytest.raises(ParseError) as exc:
            read()
        assert str(exc.value).endswith(f"at row {bad[0]}, column {bad[1]}")


EOLS = ["\n", "\r\n", "\r"]
BOMS = ["", "\ufeff"]


@given(token_grids(), st.sampled_from(EOLS), st.sampled_from(BOMS))
@settings(max_examples=200)
def test_panel_and_matrix_share_one_cell_grammar(grid, eol, bom):
    header = "id," + ",".join(f"t{j}" for j in range(len(grid[0]))) + eol
    panel = bom + header + "".join(
        f"A{i}," + ",".join(row) + eol for i, row in enumerate(grid))
    assert_one_cell_grammar(lambda: cr.loads_panel(panel).returns, grid)
    if len(grid) == len(grid[0]):
        matrix = bom + "".join(",".join(row) + eol for row in grid)
        assert_one_cell_grammar(lambda: matrix_from_csv(matrix), grid)


@pytest.mark.parametrize("bom", BOMS, ids=["plain", "bom"])
@pytest.mark.parametrize("eol", EOLS, ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize("text, header", [(CSV, True), ("0.01,0.02\n0.03,0.05\n", False)],
                         ids=["header", "no-header"])
def test_same_bytes_same_panel_from_string_path_and_stdin(tmp_path, monkeypatch,
                                                          text, header, eol, bom):
    data = (bom + text.replace("\n", eol)).encode()
    path = tmp_path / "panel.csv"
    path.write_bytes(data)
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), newline="\n"))
    want = cr.loads_panel(text, header)
    for panel in (cr.loads_panel(data.decode(), header), cr.load_panel(path, header),
                  cr.load_panel("-", header)):
        np.testing.assert_array_equal(panel.returns, want.returns)
        assert panel.asset_ids == want.asset_ids


def test_demean_simple_rows():
    panel = cr.loads_panel("id,a,b,c\nX,1,2,3\nY,3,2,1\n")
    out = cr.demean(panel)
    np.testing.assert_allclose(out.x, [[-1, 0, 1], [1, 0, -1]], atol=1e-15)


def test_demean_constant_row_is_zero():
    panel = cr.loads_panel("id,a,b,c\nX,5,5,5\nY,1,2,3\n")
    out = cr.demean(panel)
    np.testing.assert_array_equal(out.x[0], [0.0, 0.0, 0.0])


panels = arrays(
    np.float64,
    st.tuples(st.integers(2, 8), st.integers(2, 12)),
    elements=st.floats(-1e6, 1e6, allow_nan=False, width=64),
)


@given(panels)
@settings(max_examples=100)
def test_demean_row_sums_vanish(data):
    panel = cr.ReturnsPanel(
        returns=data, asset_ids=tuple(f"A{i}" for i in range(data.shape[0]))
    )
    x = cr.demean(panel).x
    tol = 1e-10 * x.shape[1] * max(np.abs(x).max(), 1e-300)
    assert np.all(np.abs(x.sum(axis=1)) <= tol)


@given(panels)
@settings(max_examples=50)
def test_demean_idempotent(data):
    panel = cr.ReturnsPanel(
        returns=data, asset_ids=tuple(f"A{i}" for i in range(data.shape[0]))
    )
    once = cr.demean(panel).x
    twice = cr.demean(
        cr.ReturnsPanel(returns=once, asset_ids=panel.asset_ids)
    ).x
    scale = max(np.abs(once).max(), 1e-300)
    np.testing.assert_allclose(twice, once, rtol=0, atol=1e-12 * scale)


def test_panel_is_readonly():
    panel = cr.loads_panel(CSV)
    with pytest.raises(ValueError):
        panel.returns[0, 0] = 99.0
