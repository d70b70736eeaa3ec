"""The writers against per-entry references, and the symmetry they exploit.

``matrix_to_csv`` and ``dumps`` format a bitwise-symmetric square array
once per upper-triangle entry. These tests pin their bytes to those of
formatting every entry, and pin that every dense matrix the CLI writes
is bitwise symmetric, so the fast path is the one the CLI takes.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import covreg as cr
from covreg.errors import NumericalError
from covreg.regularizers import build_target, shrink_dense, truncated_pc_model
from covreg.serialize import (
    dumps,
    factor_model_to_json_dict,
    matrix_from_csv,
    matrix_to_csv,
    matrix_to_json_dict,
    spectral_to_json_dict,
)

from conftest import near_duplicate_rows, one_factor_rows, spread_variance_rows


def reference_csv(m) -> str:
    """Every entry formatted on its own, row by row."""
    m = np.atleast_2d(np.asarray(m, dtype=float))
    return "\n".join(",".join("%.12g" % v for v in row) for row in m) + "\n"


def reference_json(obj) -> str:
    """json.dumps of the payload with each array as its flat row-major list."""
    def plain(o):
        if isinstance(o, dict):
            return {k: plain(v) for k, v in o.items()}
        if isinstance(o, np.ndarray):
            return o.ravel().tolist()
        return o
    return json.dumps(plain(obj), allow_nan=False)


def scm_of(rows: np.ndarray) -> cr.SampleCovariance:
    panel = cr.ReturnsPanel(rows, tuple(f"A{i}" for i in range(rows.shape[0])))
    return cr.sample_covariance(cr.demean(panel))


def bits(m: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(m, dtype=float).view(np.int64)


def symmetric(rng, n: int) -> np.ndarray:
    b = rng.standard_normal((n, n))
    return b + b.T  # float addition commutes, so this is bitwise symmetric


def with_signed_zeros(rng) -> np.ndarray:
    """Equal under == to its transpose, but 0.0 faces -0.0 across the diagonal."""
    m = symmetric(rng, 5)
    m[0, 1], m[1, 0] = 0.0, -0.0
    m[3, 2], m[2, 3] = 0.0, -0.0
    m[4, 4] = -0.0
    return m


def with_extremes(rng) -> np.ndarray:
    m = symmetric(rng, 6)
    for (i, j), v in {(0, 1): 5e-324, (0, 2): -2.2250738585072e-309, (1, 3): 1e300,
                      (2, 4): -1e-300, (3, 5): 1.7976931348623157e308}.items():
        m[i, j] = m[j, i] = v
    m[5, 5] = 1e-300
    return m


CASES = {
    "symmetric": lambda rng: symmetric(rng, 7),
    "signed zeros": with_signed_zeros,
    "subnormal and 1e+-300": with_extremes,
    "1x1": lambda rng: np.array([[rng.standard_normal()]]),
    "NxK": lambda rng: rng.standard_normal((6, 3)),
    "Nx0": lambda rng: np.empty((4, 0)),
    "0xK": lambda rng: np.empty((0, 3)),
    "1-D": lambda rng: rng.standard_normal(5),
    "non-symmetric square": lambda rng: rng.standard_normal((5, 5)),
    "near-symmetric": lambda rng: np.where(np.eye(6, k=4) > 0, 0.5, symmetric(rng, 6)),
}


@pytest.mark.parametrize("make", CASES.values(), ids=CASES.keys())
def test_csv_matches_per_entry_format(rng, make):
    m = make(rng)
    assert matrix_to_csv(m) == reference_csv(m)


@pytest.mark.parametrize("make", CASES.values(), ids=CASES.keys())
def test_json_matches_json_dumps(rng, make):
    payload = {"dense": {"n": 3, "data": make(rng)}, "q": 0.25, "tags": ["a", 1.5]}
    assert dumps(payload) == reference_json(payload)


def test_signed_zeros_print_as_stored(rng):
    m = with_signed_zeros(rng)
    cells = [row.split(",") for row in matrix_to_csv(m).splitlines()]
    assert (cells[0][1], cells[1][0], cells[4][4]) == ("0", "-0", "-0")
    back = np.reshape(json.loads(dumps({"data": m}))["data"], m.shape)
    np.testing.assert_array_equal(np.signbit(back), np.signbit(m))


def test_csv_keeps_non_finite_entries(rng):
    m = symmetric(rng, 4)
    m[0, 2] = m[2, 0] = np.inf
    m[1, 3], m[3, 1] = np.nan, -np.inf
    assert matrix_to_csv(m) == reference_csv(m)


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("mirrored", [True, False], ids=["mirrored", "one-sided"])
def test_json_refuses_non_finite_array_entry(rng, value, mirrored):
    m = symmetric(rng, 4)
    m[1, 2] = value
    if mirrored:
        m[2, 1] = value
    with pytest.raises(ValueError) as want:
        reference_json({"data": m})
    with pytest.raises(NumericalError, match="cannot write JSON") as got:
        dumps({"n": 4, "data": m})
    assert str(got.value) == f"cannot write JSON: {want.value}"


def test_builders_write_what_the_flat_lists_wrote(rng):
    scm = scm_of(one_factor_rows(rng, 8, 5))
    spectral = cr.spectral_decompose(scm)
    model = truncated_pc_model(scm, spectral, build_target(scm, "diagonal"), 1)
    for payload in (matrix_to_json_dict(scm.c), spectral_to_json_dict(spectral),
                    factor_model_to_json_dict(model.base)):
        assert dumps(payload) == reference_json(payload)


SIGNED = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e300, -1e-300]),
)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 6), data=st.data())
def test_writers_match_references_on_near_symmetric_matrices(n, data):
    upper = data.draw(st.lists(SIGNED, min_size=n * n, max_size=n * n))
    m = np.reshape(upper, (n, n))
    m = np.where(np.triu(np.ones((n, n), dtype=bool)), m, m.T)
    flips = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                               max_size=2))
    for i, j in flips:  # break bitwise symmetry, sometimes only in the sign of a zero
        m[i, j] = -m[i, j]
    assert matrix_to_csv(m) == reference_csv(m)
    assert dumps({"data": m}) == reference_json({"data": m})


# ------------------------------------------------- the writers' precondition

STRESS = {
    "one-factor wide": lambda rng: one_factor_rows(rng, 60, 25),
    "one-factor tall": lambda rng: one_factor_rows(rng, 20, 80),
    "near duplicates": lambda rng: near_duplicate_rows(rng, 15, 40),
    "spread variances": lambda rng: spread_variance_rows(rng, 30, 50),
}


def cli_dense_outputs(rows: np.ndarray) -> dict:
    """Every dense N x N matrix the CLI writes for this panel."""
    scm = scm_of(rows)
    diagonal = build_target(scm, "diagonal")
    spectral = cr.spectral_decompose(scm)
    return {
        "scm": scm.c,
        "shrink diagonal": shrink_dense(scm, diagonal, 0.5),
        "shrink constant_correlation": shrink_dense(
            scm, build_target(scm, "constant_correlation"), 0.5),
        "truncate": cr.dense(truncated_pc_model(scm, spectral, diagonal, 1).base),
        "from matrix": cr.SampleCovariance.from_matrix(
            matrix_from_csv(matrix_to_csv(scm.c))).c,
    }


@pytest.mark.parametrize("scale", [1.0, 1e150, 1e-150])
@pytest.mark.parametrize("make", STRESS.values(), ids=STRESS.keys())
def test_every_dense_cli_output_is_bitwise_symmetric(rng, make, scale):
    for name, m in cli_dense_outputs(scale * make(rng)).items():
        assert m.shape == (m.shape[0],) * 2, name
        np.testing.assert_array_equal(bits(m), bits(m).T, err_msg=name)
