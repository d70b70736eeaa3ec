"""The one home of the CLI's file formats: matrix CSV and result JSON.

CSV matrices are dense, headerless, 12 significant digits. Their rows
and cells follow the numeric-CSV grammar of ``panels.csv_rows`` and
``panels.parse_cells``; this module adds only the square-shape rule.
JSON holds finite floats only, at full round-trip precision (repr).
"""

from __future__ import annotations

import json

import numpy as np

from .covariance import SpectralDecomposition
from .errors import NumericalError, ParseError
from .factors import FactorModel
from .panels import csv_rows, parse_cells
from .regularizers import ShrunkFactorModel, TruncatedPCModel

CSV_FORMAT = "%.12g"


def matrix_to_csv(m: np.ndarray) -> str:
    m = np.atleast_2d(np.asarray(m, dtype=float))
    return "\n".join(
        ",".join(CSV_FORMAT % v for v in row) for row in m
    ) + "\n"


def matrix_from_csv(text: str) -> np.ndarray:
    """Parse a headerless matrix CSV; ParseError unless square, rows and cells as panels."""
    rows = csv_rows(text)
    if not rows:
        raise ParseError("empty matrix")
    n = len(rows)
    for i, cells in enumerate(rows):
        if len(cells) != n:
            raise ParseError(f"matrix row {i} has {len(cells)} cells; {n} rows need {n}")
    return parse_cells(rows)


def matrix_to_json_dict(m: np.ndarray) -> dict:
    m = np.atleast_2d(np.asarray(m, dtype=float))
    return {"n": m.shape[0], "data": m.ravel().tolist()}


def spectral_to_json_dict(s: SpectralDecomposition) -> dict:
    return {
        "n": s.n_assets,
        "n_positive": s.n_positive,
        "eigenvalues": s.eigenvalues.tolist(),
        "components": s.components.ravel().tolist(),
        "quasi_null_threshold": s.quasi_null_threshold,
    }


def factor_model_to_json_dict(model: FactorModel) -> dict:
    return {
        "n": model.n_assets,
        "k": model.n_factors,
        "xi": model.specific_risk.tolist(),
        "omega": model.loadings.ravel().tolist(),
        "phi": model.fcm.ravel().tolist(),
    }


def factor_model_from_json_dict(d: dict) -> FactorModel:
    n, k = int(d["n"]), int(d["k"])
    return FactorModel(
        specific_risk=np.asarray(d["xi"], dtype=float),
        loadings=np.asarray(d["omega"], dtype=float).reshape(n, k),
        fcm=np.asarray(d["phi"], dtype=float).reshape(k, k),
    )


def shrunk_to_json_dict(model: ShrunkFactorModel) -> dict:
    out = factor_model_to_json_dict(model.base)
    out["q"] = model.q
    return out


def truncated_to_json_dict(model: TruncatedPCModel) -> dict:
    out = factor_model_to_json_dict(model.base)
    out["f_hat"] = model.f_hat
    out["nu"] = model.nu.tolist()
    return out


def dumps(obj: dict) -> str:
    """JSON text of obj; NumericalError on a non-finite float, which JSON cannot hold."""
    try:
        return json.dumps(obj, allow_nan=False)
    except ValueError as exc:
        raise NumericalError(f"cannot write JSON: {exc}") from None
