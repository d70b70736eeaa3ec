import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import covreg as cr
from covreg import harness, serialize
from covreg.cli import METHOD_KEYS, main
from covreg.errors import ParseError
from covreg.serialize import factor_model_from_json_dict, matrix_from_csv

from conftest import collinear_rows

PANEL_CSV = (
    "id,t0,t1,t2,t3,t4\n"
    "AAA,0.010,0.020,-0.010,0.005,0.015\n"
    "BBB,-0.020,0.000,0.030,-0.010,0.010\n"
    "CCC,0.005,-0.015,0.010,0.020,-0.005\n"
)


@pytest.fixture
def panel_path(tmp_path):
    p = tmp_path / "panel.csv"
    p.write_text(PANEL_CSV)
    return str(p)


@pytest.fixture
def eval_panel_path(tmp_path):
    """5 assets x 40 observations, enough for a train/test split."""
    big = tmp_path / "big.csv"
    panel = cr.generate_panel(cr.SyntheticSpec(n_assets=5, n_obs=40, seed=3))
    rows = ["id," + ",".join(f"t{s}" for s in range(40))]
    for i, aid in enumerate(panel.asset_ids):
        rows.append(aid + "," + ",".join(repr(float(v)) for v in panel.returns[i]))
    big.write_text("\n".join(rows) + "\n")
    return str(big)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_scm_matches_library(panel_path, capsys):
    code, out, _ = run(capsys, "scm", "-i", panel_path)
    assert code == 0
    expected = cr.sample_covariance(cr.loads_panel(PANEL_CSV)).c
    np.testing.assert_allclose(matrix_from_csv(out), expected, rtol=1e-11)


def test_spectral_from_matrix(panel_path, tmp_path, capsys):
    code, out, _ = run(capsys, "scm", "-i", panel_path)
    mat = tmp_path / "scm.csv"
    mat.write_text(out)
    code, out, _ = run(capsys, "spectral", "-i", str(mat))
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 3
    assert payload["n_positive"] <= 3
    assert payload["eigenvalues"] == sorted(payload["eigenvalues"], reverse=True)


@pytest.mark.parametrize("matrix, n_positive", [
    ("2,1,0\n1,2,0\n0,0,1\n", 3), ("1,2\n2,4\n", 1), ("0,0,0\n0,0,0\n0,0,0\n", 0),
], ids=["full_rank", "rank_one", "zero"])
def test_spectral_threshold_follows_the_largest_eigenvalue(tmp_path, capsys, matrix, n_positive):
    mat = tmp_path / "m.csv"
    mat.write_text(matrix)
    code, out, _ = run(capsys, "spectral", "-i", str(mat))
    assert code == 0
    payload = json.loads(out)
    assert payload["n_positive"] == n_positive == len(payload["eigenvalues"])
    expected = 1e-10 * payload["eigenvalues"][0] if n_positive else 0.0
    assert payload["quasi_null_threshold"] == expected
    assert len(payload["components"]) == n_positive * payload["n"]


def test_shrink_q0_equals_scm_byte_for_byte(panel_path, capsys):
    _, scm_out, _ = run(capsys, "scm", "-i", panel_path)
    _, shrink_out, _ = run(
        capsys, "shrink", "-i", panel_path, "--q", "0", "--target", "diagonal"
    )
    assert shrink_out == scm_out


def test_shrink_emits_factor_model(panel_path, capsys):
    code, out, _ = run(
        capsys, "shrink", "-i", panel_path, "--q", "0.5", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["factor_model"]["q"] == 0.5
    n = payload["dense"]["n"]
    dense = np.array(payload["dense"]["data"]).reshape(n, n)
    fm = factor_model_from_json_dict(payload["factor_model"])
    np.testing.assert_allclose(cr.dense(fm), dense, atol=1e-12)


def test_truncate_fhat0_is_diagonal(panel_path, capsys):
    code, out, _ = run(
        capsys, "truncate", "-i", panel_path, "--f-hat", "0",
        "--target", "diagonal",
    )
    assert code == 0
    m = matrix_from_csv(out)
    off = m - np.diag(np.diag(m))
    assert np.abs(off).max() <= 1e-12 * np.abs(m).max()


def test_truncate_json_includes_nu(panel_path, capsys):
    code, out, _ = run(
        capsys, "truncate", "-i", panel_path, "--f-hat", "1", "--json"
    )
    payload = json.loads(out)
    assert payload["factor_model"]["f_hat"] == 1
    assert len(payload["factor_model"]["nu"]) == 3


def test_baiyin_deterministic(capsys):
    _, a, _ = run(capsys, "baiyin", "--n", "20", "--m", "80",
                  "--trials", "3", "--seed", "7")
    _, b, _ = run(capsys, "baiyin", "--n", "20", "--m", "80",
                  "--trials", "3", "--seed", "7")
    assert a == b
    payload = json.loads(a)
    assert payload["lambda_max_limit"] == 2.25


def test_eval_table_and_json(eval_panel_path, capsys):
    code, out, _ = run(
        capsys, "eval", "-i", eval_panel_path, "--split", "0.5",
        "--method", "shrink,q=0.5,target=diagonal",
        "--method", "truncated_pc,f_hat=1",
        "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["records"]) == 2
    code, out, _ = run(
        capsys, "eval", "-i", eval_panel_path, "--split", "0.5",
        "--method", "shrink,q=0.5",
    )
    assert code == 0
    assert "shrink" in out


def test_usage_error_exit_code(capsys):
    code, _, _ = run(capsys, "shrink")  # missing required args
    assert code == 1


def test_validation_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("id,t0,t1\nA,0.01,oops\nB,0.02,0.03\n")
    code, _, err = run(capsys, "scm", "-i", str(bad))
    assert code == 2
    assert "error:" in err


def test_numerical_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "flat.csv"
    bad.write_text("id,t0,t1,t2\nA,1,1,1\nB,1,2,3\n")
    code, _, err = run(capsys, "scm", "-i", str(bad))
    assert code == 3
    assert "error:" in err


def test_q_range_validated(panel_path, capsys):
    code, _, err = run(capsys, "shrink", "-i", panel_path, "--q", "1.5")
    assert code == 2


def test_no_header_mode(tmp_path, capsys):
    p = tmp_path / "nh.csv"
    p.write_text("0.01,0.02,-0.01\n-0.02,0.00,0.03\n")
    code, out, _ = run(capsys, "scm", "-i", str(p), "--no-header")
    assert code == 0
    assert matrix_from_csv(out).shape == (2, 2)


def test_output_file(panel_path, tmp_path, capsys):
    dest = tmp_path / "out.csv"
    code, out, _ = run(capsys, "scm", "-i", panel_path, "-o", str(dest))
    assert code == 0
    assert out == ""
    assert matrix_from_csv(dest.read_text()).shape == (3, 3)


def test_rho_auto_matches_estimate(panel_path, capsys):
    scm = cr.sample_covariance(cr.loads_panel(PANEL_CSV))
    rho = cr.estimate_rho(scm)
    code, out, _ = run(
        capsys, "shrink", "-i", panel_path, "--q", "1",
        "--target", "constant_correlation", "--rho", "auto", "--json",
    )
    assert code == 0
    payload = json.loads(out)
    n = payload["dense"]["n"]
    dense = np.array(payload["dense"]["data"]).reshape(n, n)
    expected = cr.dense(cr.constant_correlation_target(scm, rho))
    np.testing.assert_allclose(dense, expected, atol=1e-12)


def run_with_stdin(argv, stdin=""):
    """main() with stdin (str as UTF-8, or bytes) and stdout/stderr swapped (no fixtures)."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    data = stdin if isinstance(stdin, bytes) else stdin.encode("utf-8")
    sys.stdin = io.TextIOWrapper(io.BytesIO(data), newline="\n")  # as on POSIX: no translation
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def assert_one_line_error(code, err):
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("method", [
    "shrink,q=abc",
    "truncated_pc,f_hat=x",
    "truncated_pc,f_hat=1.5",
    "shrink,q",
    "shrink,q=0.5,",
    "shrink,qq=0.5",
    "shrink,target=constant_correlation,rho=abc",
    "shrink,target=bogus",
    "bogus,q=0.5",
    "shrink,q=0.5,q=0.7",
])
def test_malformed_method_spec_exits_2(panel_path, capsys, method):
    code, out, err = run(capsys, "eval", "-i", panel_path, "--method", method)
    assert out == ""
    assert_one_line_error(code, err)


def test_method_q_checked_before_the_input_is_read(tmp_path, capsys):
    missing = str(tmp_path / "missing.csv")
    code, out, err = run(capsys, "eval", "-i", missing, "--method", "shrink,q=1.5")
    assert (code, out, err) == (2, "", "error: q must be in [0, 1], got 1.5\n")


@pytest.mark.parametrize("method, message", [
    ("truncated_pc,f_hat=-1", "f_hat must be an int >= 0, got -1"),
    ("shrink,target=constant_correlation,rho=1.5", "rho must be in [0, 1), got 1.5"),
    ("shrink,q=0.5,rho=0.5", "rho applies only to the constant_correlation target, not diagonal"),
], ids=["f_hat", "rho", "rho_on_diagonal"])
def test_method_f_hat_and_rho_checked_before_the_input_is_read(tmp_path, capsys, method, message):
    missing = str(tmp_path / "missing.csv")
    code, out, err = run(capsys, "eval", "-i", missing, "--method", method)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv, message", [
    (["truncate", "--f-hat", "1", "--rho", "0.5"],
     "rho applies only to the constant_correlation target, not diagonal"),
    (["shrink", "--q", "0.5", "--rho", "0.5", "--target", "diagonal"],
     "rho applies only to the constant_correlation target, not diagonal"),
    (["truncate", "--f-hat", "1", "--rho", "7", "--target", "constant_correlation"],
     "rho must be in [0, 1), got 7.0"),
    (["shrink", "--q", "0.5", "--rho", "-0.1", "--target", "constant_correlation"],
     "rho must be in [0, 1), got -0.1"),
    (["shrink", "--q", "1.5"], "q must be in [0, 1], got 1.5"),
    (["truncate", "--f-hat", "-1"], "f_hat must be an int >= 0, got -1"),
], ids=["truncate_diagonal", "shrink_diagonal", "truncate_range", "shrink_range",
        "shrink_q", "truncate_f_hat"])
def test_cli_rho_checked_before_the_input_is_read(tmp_path, capsys, argv, message):
    # q and f_hat too: the flags form a MethodConfig, checked as eval checks its methods
    missing = str(tmp_path / "missing.csv")
    code, out, err = run(capsys, *argv, "-i", missing)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("argv, cfg", [
    (["shrink", "--q", "0.3", "--target", "constant_correlation"],
     harness.MethodConfig("shrink", q=0.3, target_kind="constant_correlation")),
    (["truncate", "--f-hat", "1", "--target", "constant_correlation", "--rho", "0.2"],
     harness.MethodConfig("truncated_pc", f_hat=1, target_kind="constant_correlation",
                          rho=0.2)),
], ids=["shrink", "truncate"])
def test_cli_factor_model_is_fit_methods(eval_panel_path, capsys, argv, cfg):
    # without --json the factor model is the whole of stderr
    code, _, err = run(capsys, *argv, "-i", eval_panel_path)
    scm = cr.sample_covariance(cr.load_panel(eval_panel_path))
    model, _, nu = harness.fit_method(scm, cr.spectral_decompose(scm), cfg)
    expected = (serialize.shrunk_to_json_dict(model, cfg.q) if nu is None
                else serialize.truncated_to_json_dict(model, cfg.f_hat, nu))
    assert (code, err) == (0, serialize.dumps(expected) + "\n")


@pytest.mark.parametrize("argv", [["shrink", "--q", "0.5"], ["truncate", "--f-hat", "1"]])
def test_cli_rho_auto_accepted_with_the_diagonal_target(panel_path, capsys, argv):
    _, default, _ = run(capsys, *argv, "-i", panel_path, "--json")
    code, auto, _ = run(capsys, *argv, "-i", panel_path, "--rho", "auto", "--json")
    assert code == 0 and auto == default


def test_methods_differing_only_in_rho_get_distinct_labels(eval_panel_path, capsys):
    spec = "shrink,q=0.5,target=constant_correlation"
    code, out, _ = run(capsys, "eval", "-i", eval_panel_path, "--method", spec + ",rho=0.1",
                       "--method", spec + ",rho=0.8", "--method", spec, "--json")
    assert code == 0
    labels = [r["label"] for r in json.loads(out)["records"]]
    assert labels == ["shrink(q=0.5,constant_correlation,rho=0.1)",
                      "shrink(q=0.5,constant_correlation,rho=0.8)",
                      "shrink(q=0.5,constant_correlation)"]


def test_repeated_method_key_named(panel_path, capsys):
    code, _, err = run(capsys, "eval", "-i", panel_path, "--method",
                       "shrink,target=diagonal,q=0.5,target=diagonal")
    assert_one_line_error(code, err)
    assert "key 'target' given twice" in err


def test_negative_baiyin_seed_exits_2(capsys):
    code, out, err = run(capsys, "baiyin", "--n", "8", "--m", "32", "--seed", "-1")
    assert out == ""
    assert_one_line_error(code, err)
    assert "seed" in err


def test_malformed_rho_exits_2(panel_path, capsys):
    code, _, err = run(capsys, "shrink", "-i", panel_path, "--q", "0.5",
                       "--target", "constant_correlation", "--rho", "abc")
    assert_one_line_error(code, err)


BAD_MATRICES = {
    "ragged": "1,0\n0\n",
    "rectangular": "1,0,0\n0,1,0\n",
    "non-numeric": "1,x\nx,1\n",
    "empty": "\n \n",
    "nan": "1,nan\nnan,1\n",
    "inf": "inf,0\n0,1\n",
}


@pytest.mark.parametrize("text", BAD_MATRICES.values(), ids=BAD_MATRICES.keys())
@pytest.mark.parametrize("argv", [
    ["spectral", "-i", "-"],
    ["shrink", "-i", "-", "--from-matrix", "--q", "0.5"],
    ["truncate", "-i", "-", "--from-matrix", "--f-hat", "0"],
])
def test_malformed_matrix_csv_exits_2(argv, text):
    with pytest.raises(ParseError):
        matrix_from_csv(text)
    code, out, err = run_with_stdin(argv, text)
    assert out == ""
    assert_one_line_error(code, err)
    assert "symmetric" not in err


@pytest.mark.parametrize("command", [["scm"], ["spectral"]])
def test_non_utf8_input_exits_2(tmp_path, capsys, command):
    path = tmp_path / "binary.csv"
    path.write_bytes(b"\xff\xfe\x00\x01not text\n")
    code, out, err = run(capsys, *command, "-i", str(path))
    assert out == ""
    assert_one_line_error(code, err)
    assert "UTF-8" in err


def test_non_utf8_stdin_exits_2():
    # a real pipe, decoded by a locale that would accept any byte: stdin's
    # bytes must still be read as UTF-8, as a file's are
    src = pathlib.Path(cr.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "covreg.cli", "scm", "-i", "-"],
        input=b"\xff\xfe\x00\x01not text\n", capture_output=True,
        env={**os.environ, "PYTHONPATH": str(src), "PYTHONIOENCODING": "latin-1"},
    )
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert proc.stderr == b"error: -: input is not UTF-8 text\n"


NO_HEADER_CSV = "".join(line.split(",", 1)[1] + "\n" for line in PANEL_CSV.splitlines()[1:])
SPD_CSV = "2,0.5,0\n0.5,1,0.25\n0,0.25,3\n"


@pytest.mark.parametrize("bom", ["", "\ufeff"], ids=["plain", "bom"])
@pytest.mark.parametrize("eol", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
@pytest.mark.parametrize("argv, text", [(["scm"], PANEL_CSV),
                                        (["scm", "--no-header"], NO_HEADER_CSV),
                                        (["spectral"], SPD_CSV)],
                         ids=["scm", "scm-no-header", "spectral"])
def test_same_bytes_same_output_from_path_and_stdin(tmp_path, argv, text, eol, bom):
    data = (bom + text.replace("\n", eol)).encode()
    path = tmp_path / "in.csv"
    path.write_bytes(data)
    want = run_with_stdin([*argv, "-i", "-"], text)
    assert want[0] == 0
    assert run_with_stdin([*argv, "-i", str(path)]) == want
    assert run_with_stdin([*argv, "-i", "-"], data) == want


def raise_on_constant(name):
    raise AssertionError(f"non-finite JSON constant {name}")


def test_every_json_output_is_strict(panel_path, eval_panel_path, tmp_path):
    matrix = tmp_path / "spd.csv"
    matrix.write_text(SPD_CSV)
    runs = [
        (["scm", "-i", panel_path, "--json"], "out"),
        (["spectral", "-i", str(matrix)], "out"),
        (["shrink", "-i", panel_path, "--q", "0.5", "--json"], "out"),
        (["shrink", "-i", panel_path, "--q", "0.5"], "err"),
        (["truncate", "-i", panel_path, "--f-hat", "1", "--json"], "out"),
        (["truncate", "-i", panel_path, "--f-hat", "1"], "err"),
        (["eval", "-i", eval_panel_path, "--json", *EVAL_METHODS], "out"),
        (["baiyin", "--n", "8", "--m", "32", "--trials", "2"], "out"),
    ]
    for argv, stream in runs:
        code, out, err = run_with_stdin(argv)
        assert code == 0, argv
        json.loads(out if stream == "out" else err, parse_constant=raise_on_constant)


def test_range_errors_come_from_the_library(panel_path, capsys):
    for argv in (["truncate", "-i", panel_path, "--f-hat", "-1"],
                 ["eval", "-i", panel_path, "--split", "1.5",
                  "--method", "shrink,q=0.5"]):
        code, _, err = run(capsys, *argv)
        assert_one_line_error(code, err)


def test_eval_scm_ridge_label_shows_fitted_q(eval_panel_path, capsys):
    code, out, _ = run(capsys, "eval", "-i", eval_panel_path,
                       "--method", "scm_ridge", "--json")
    assert code == 0
    assert json.loads(out)["records"][0]["label"] == "scm+ridge(q=0.01)"


def test_eval_table_columns_line_up_under_the_header(eval_panel_path, capsys):
    labels = ["scm+ridge(q=0.01)", "truncated_pc(f_hat=1,constant_correlation,rho=0.25)",
              "shrink(q=0.5,diagonal)"]
    methods = ["scm_ridge", "truncated_pc,f_hat=1,target=constant_correlation,rho=0.25",
               "shrink,q=0.5"]
    code, out, _ = run(capsys, "eval", "-i", eval_panel_path,
                       *[a for m in methods for a in ("--method", m)])
    assert code == 0
    header, rule, *rows = out.rstrip("\n").split("\n")
    assert rule == "-" * len(header)
    width = len(header) - 3 * 13  # the label column, then three 12-wide numbers
    assert header[:width].rstrip() == "method"
    for row, label in zip(rows, labels, strict=True):
        assert len(row) == len(header), row
        assert row[:width].rstrip() == label
        for name in ("in_err", "out_err", "real_var"):
            right = header.index(name) + len(name)  # each number ends under its header
            assert row[right - 13] == " " and row[right - 12:right].strip() and (
                right == len(row) or row[right] == " "), (row, name)


VALUE = st.one_of(
    st.sampled_from(["0", "0.5", "1", "2", "-1", "1e400", "nan", "auto", ""]),
    st.text(alphabet="0123456789.-+eEinfa_x ", max_size=6),
)
TOKEN = st.one_of(
    st.tuples(st.sampled_from(METHOD_KEYS + ("qq", "")), st.sampled_from(["=", ""]),
              VALUE).map("".join),
    st.tuples(st.just("target="),
              st.sampled_from(["diagonal", "constant_correlation", "x"])).map("".join),
)
METHOD_SPEC = st.one_of(
    st.tuples(st.sampled_from(["shrink", "scm_ridge", "truncated_pc", "bogus", ""]),
              st.lists(TOKEN, max_size=4)).map(lambda t: ",".join([t[0], *t[1]])),
    st.text(max_size=30),
)
CELL = st.one_of(
    st.sampled_from(["0", "1", "2", "-1", "0.5", "nan", "inf", "1e308", "", " ", "x"]),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
)
MATRIX_CSV = st.one_of(
    st.lists(st.lists(CELL, min_size=1, max_size=4), max_size=4).map(
        lambda rows: "".join(",".join(r) + "\n" for r in rows)),
    st.text(max_size=40),
)
EXIT_CODES = {0, 1, 2, 3}


def test_overflowing_matrix_reports_one_line(tmp_path):
    # a real process, so numpy warnings reach stderr as a user would see them
    big = tmp_path / "big.csv"
    big.write_text("1.7e308,1.7e308\n1.7e308,1.7e308\n")
    src = pathlib.Path(cr.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "covreg.cli", "spectral", "-i", str(big)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 2
    assert proc.stderr == "error: covariance has non-finite entries\n"


def run_cli_on_rows(tmp_path, rows, *argv):
    """covreg argv on rows written as a headerless panel CSV, RuntimeWarnings as errors."""
    big = tmp_path / "big.csv"
    big.write_text("\n".join(f"A{i}," + ",".join(map(repr, row))
                             for i, row in enumerate(rows.tolist())) + "\n")
    src = pathlib.Path(cr.__file__).resolve().parents[1]
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "covreg.cli", argv[0],
         "-i", str(big), "--no-header", *argv[1:]],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
    )


@pytest.mark.parametrize("argv", [["scm"], ["truncate", "--f-hat", "1"],
                                  ["eval", "--method", "shrink,q=0.5"]],
                         ids=["scm", "truncate", "eval"])
@pytest.mark.parametrize("shape", [(40, 12), (5, 40)], ids=["wide", "tall"])
def test_overflowing_panel_reports_one_line(tmp_path, argv, shape):
    # squares of cells near 1e160 overflow: the variances taken from X catch it
    rows = np.random.default_rng(5).standard_normal(shape) * 1e160
    proc = run_cli_on_rows(tmp_path, rows, *argv)
    assert proc.returncode == 2
    assert proc.stderr == "error: covariance has non-finite entries\n"


def assert_clean_exit(code, err):
    assert code in EXIT_CODES
    assert "Traceback" not in err
    if code in (2, 3):
        assert err.startswith("error: ") and err.count("\n") == 1, err


@settings(max_examples=150, deadline=None)
@given(spec=METHOD_SPEC)
def test_fuzz_method_spec(spec):
    code, _, err = run_with_stdin(["eval", "-i", "-", f"--method={spec}"], PANEL_CSV)
    assert_clean_exit(code, err)


@settings(max_examples=150, deadline=None)
@given(text=MATRIX_CSV,
       argv=st.sampled_from([["spectral"], ["shrink", "--from-matrix", "--q", "0.5"],
                             ["truncate", "--from-matrix", "--f-hat", "1"]]))
def test_fuzz_matrix_csv(text, argv):
    code, _, err = run_with_stdin([*argv, "-i", "-"], text)
    assert_clean_exit(code, err)


EVAL_METHODS = ("--method", "shrink,q=0.5", "--method", "shrink,q=0.5,target=constant_correlation",
                "--method", "truncated_pc,f_hat=1", "--method", "scm_ridge")


def assert_finite_records(stdout):
    for record in json.loads(stdout)["records"]:
        for field in ("in_sample_error", "out_of_sample_error", "leading_pc_overlap"):
            assert np.isfinite(record[field]), field
        assert record["realized_variance"] is None or np.isfinite(record["realized_variance"])


@pytest.mark.parametrize("shape", [(40, 12), (5, 40)], ids=["wide", "tall"])
def test_eval_near_1e100_reports_finite_records(tmp_path, shape):
    # off-diagonal Grams of C near 1e200 would overflow unless scaled by powers of 2
    rows = np.random.default_rng(5).standard_normal(shape) * 1e100
    proc = run_cli_on_rows(tmp_path, rows, "eval", "--json", *EVAL_METHODS)
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert_finite_records(proc.stdout)


# cells near 1e153: every variance, C entry and eigenvalue is finite, but
# s^2 of a singular value of X, and the gram root's R^T R, overflow
NEAR_1E153 = {
    "300x40": lambda rng: 1e153 * rng.standard_normal((300, 40)),
    "1000x40": lambda rng: 1e153 * rng.uniform(-1.0, 1.0, (1000, 40)),
}


@pytest.mark.parametrize("make", NEAR_1E153.values(), ids=NEAR_1E153.keys())
class TestWidePanelNear1e153:
    def test_shrink_dense_matches_factor_model(self, tmp_path, make):
        rows = make(np.random.default_rng(5))
        proc = run_cli_on_rows(tmp_path, rows, "shrink", "--q", "0.5", "--json")
        assert (proc.returncode, proc.stderr) == (0, "")
        out = json.loads(proc.stdout)
        model = factor_model_from_json_dict(out["factor_model"])
        assert model.n_factors == rows.shape[1] - 1
        # compared at 2^-1020 scale: Phi is diagonal, so 2^-510 Omega sqrt(Phi) is a root
        b = np.ldexp(model.loadings * np.sqrt(np.diag(model.fcm)), -510)
        want = np.diag(np.ldexp(model.specific_risk, -510) ** 2) + b @ b.T
        got = np.ldexp(np.reshape(out["dense"]["data"], want.shape), -1020)
        assert np.linalg.norm(got - want) <= 1e-8 * np.linalg.norm(want)

    def test_truncate_keeps_one_pc(self, tmp_path, make):
        proc = run_cli_on_rows(tmp_path, make(np.random.default_rng(5)),
                               "truncate", "--f-hat", "1", "--json")
        assert (proc.returncode, proc.stderr) == (0, "")
        assert json.loads(proc.stdout)["factor_model"]["f_hat"] == 1

    def test_eval_reports_finite_records(self, tmp_path, make):
        proc = run_cli_on_rows(tmp_path, make(np.random.default_rng(5)),
                               "eval", "--json", *EVAL_METHODS)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert_finite_records(proc.stdout)


def test_eval_record_beyond_float_range_exits_3(tmp_path):
    # every variance and eigenvalue is finite, but the out-of-sample error of
    # 1000 assets near 1e153 is not: one error line, no warning, no JSON.
    # The panel is the next draw after the two NEAR_1E153 panels
    rng = np.random.default_rng(5)
    for make in NEAR_1E153.values():
        make(rng)
    rows = 1e153 * rng.standard_normal((1000, 40))
    proc = run_cli_on_rows(tmp_path, rows, "eval", "--json", *EVAL_METHODS)
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == ("error: shrink(q=0.5,diagonal) out_of_sample_error"
                           " exceeds the float range\n")


@pytest.mark.parametrize("argv, code, err", [
    (["scm"], 0, ""),
    (["shrink", "--q", "0.5"], 2, "error: covariance has a non-finite eigenvalue\n"),
    (["truncate", "--f-hat", "1"], 2, "error: covariance has a non-finite eigenvalue\n"),
], ids=["scm", "shrink", "truncate"])
def test_variances_near_float_limit(tmp_path, argv, code, err):
    # sum_t x_it^2 overflows but each variance (up to 7.8e305) is finite; lambda_max is not
    rows = 9e152 * collinear_rows(np.random.default_rng(5), 400, 250)
    proc = run_cli_on_rows(tmp_path, rows, *argv)
    assert (proc.returncode, proc.stderr) == (code, err)
    if code == 0:
        assert np.isfinite(matrix_from_csv(proc.stdout)).all()


ROW_SUM_OVERFLOWS = {
    "sum": [[1.7e308, 1.7e308, -1.7e308], [1.0, 2.0, 4.0]],
    "constant": [[1.7e308, 1.7e308, 1.7e308], [1.0, 2.0, 4.0]],
}


@pytest.mark.parametrize("rows", ROW_SUM_OVERFLOWS.values(), ids=ROW_SUM_OVERFLOWS.keys())
@pytest.mark.parametrize("argv", [["scm"], ["shrink", "--q", "0.5"], ["truncate", "--f-hat", "1"]],
                         ids=["scm", "shrink", "truncate"])
def test_row_sum_overflow_exits_2(tmp_path, argv, rows):
    # every cell is finite but a row's sum is not: its mean, and so its demeaned row, is
    # non-finite. One error line, no RuntimeWarning, no output
    proc = run_cli_on_rows(tmp_path, np.array(rows), *argv)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == "error: covariance has non-finite entries\n"


@pytest.mark.parametrize("t", [40, 250], ids=["svd", "eigh"])
def test_overflowing_spectrum_rejected(tmp_path, t):
    # 400 near-collinear assets: each variance near 6.4e305 is finite, the
    # leading eigenvalue near 400 times that is not
    rows = 8e152 * collinear_rows(np.random.default_rng(11), 400, t)
    proc = run_cli_on_rows(tmp_path, rows, "shrink", "--q", "0.5", "--json")
    assert proc.returncode == 2
    assert proc.stderr == "error: covariance has a non-finite eigenvalue\n"
