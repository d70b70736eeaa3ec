"""The one home of the CLI's file formats: matrix CSV and result JSON.

CSV matrices are dense, headerless, 12 significant digits. Their rows
and cells follow the numeric-CSV grammar of ``panels.csv_rows`` and
``panels.parse_cells``; this module adds only the square-shape rule.
JSON holds finite floats only, at full round-trip precision (repr).
``dumps`` takes float arrays as well as Python values and writes each
as the flat row-major list of its entries.

Both writers format a square, bitwise-symmetric array (every covariance
matrix the CLI writes) once per upper-triangle entry and copy the text
to the mirrored cell, so the output bytes are those of formatting every
entry.
"""

from __future__ import annotations

import json

import numpy as np

from .covariance import QUASI_NULL_REL, LowRank
from .errors import NumericalError, ParseError
from .factors import FactorModel
from .panels import csv_rows, parse_cells

CSV_FORMAT = "%.12g"


def _float_rows(a: np.ndarray, fmt, sep: str) -> list[str]:
    """Each row of the 2-D float array a as fmt of its entries joined by sep.

    A square a that is bitwise symmetric (int64 views, so 0.0 never
    stands in for -0.0) has each upper-triangle entry formatted once:
    row i takes its cells left of the diagonal from the rows above.
    """
    a = np.ascontiguousarray(a, dtype=float)
    n = a.shape[0]
    bits = a.view(np.int64)
    if a.shape != (n, n) or not np.array_equal(bits, bits.T):
        return [sep.join(map(fmt, row)) for row in a.tolist()]
    rows, tails = [], []  # tails[j]: row j's cells in columns i and up, last first
    for i in range(n):
        cells = list(map(fmt, a[i, i:].tolist()))
        rows.append(sep.join([t.pop() for t in tails] + cells))
        tails.append(cells[:0:-1])
    return rows


def matrix_to_csv(m: np.ndarray) -> str:
    rows = _float_rows(np.atleast_2d(m), CSV_FORMAT.__mod__, ",")
    rows.append("")  # the last newline with no copy of the text; no rows give "\n"
    return "\n".join(rows) or "\n"


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
    return {"n": m.shape[0], "data": m}


def spectral_to_json_dict(pcs: LowRank) -> dict:
    """spectral_decompose's pairs, one PC per row, with the threshold they were cut at."""
    n, f = pcs.w.shape
    return {
        "n": n,
        "n_positive": f,
        "eigenvalues": pcs.s,
        "components": pcs.w.T,
        # lambda_max is kept whenever it is > 0, and the threshold is 0 otherwise
        "quasi_null_threshold": QUASI_NULL_REL * (pcs.s[0] if f else 0.0),
    }


def factor_model_to_json_dict(model: FactorModel) -> dict:
    return {
        "n": model.n_assets,
        "k": model.n_factors,
        "xi": model.specific_risk,
        "omega": model.loadings,
        "phi": model.fcm,
    }


def factor_model_from_json_dict(d: dict) -> FactorModel:
    n, k = int(d["n"]), int(d["k"])
    return FactorModel(
        specific_risk=np.asarray(d["xi"], dtype=float),
        loadings=np.asarray(d["omega"], dtype=float).reshape(n, k),
        fcm=np.asarray(d["phi"], dtype=float).reshape(k, k),
    )


def shrunk_to_json_dict(model: FactorModel, q: float) -> dict:
    out = factor_model_to_json_dict(model)
    out["q"] = q
    return out


def truncated_to_json_dict(model: FactorModel, f_hat: int, nu: np.ndarray) -> dict:
    out = factor_model_to_json_dict(model)
    out["f_hat"] = f_hat
    out["nu"] = nu
    return out


def dumps(obj: dict) -> str:
    """JSON text of obj, as json.dumps writes it with a float array as its flat list.

    dict keys are str. NumericalError on a non-finite float, which JSON
    cannot hold; no text is made then.
    """
    pieces: list[str] = []
    _encode(obj, pieces)
    return "".join(pieces)


def _encode(obj, out: list[str]) -> None:
    if isinstance(obj, dict):
        out.append("{")
        for k, (key, value) in enumerate(obj.items()):
            out.append(f"{', ' if k else ''}{json.dumps(key)}: ")
            _encode(value, out)
        out.append("}")
    elif isinstance(obj, np.ndarray):
        bad = obj[~np.isfinite(obj)]
        if bad.size:  # json.dumps's own error on the first one, as for a list
            _encode(bad[0].item(), out)
        rows = _float_rows(np.atleast_2d(obj), repr, ", ") if obj.size else []
        out.append("[")
        for i, row in enumerate(rows):
            out += (", ", row) if i else (row,)
        out.append("]")
    else:
        try:
            out.append(json.dumps(obj, allow_nan=False))
        except ValueError as exc:
            raise NumericalError(f"cannot write JSON: {exc}") from None
