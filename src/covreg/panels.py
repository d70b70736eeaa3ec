"""Return-panel ingestion and serial demeaning.

Panels are N assets by M+1 time observations, oldest first. CSV layout:
one row per asset, asset id in the first column, one column per
observation, optional single header row. Missing values are a hard
error; there is no imputation path.

This module owns the one path from input to cells of every numeric CSV,
panels and ``serialize``'s matrices alike: ``read_text`` decodes,
``csv_rows`` splits rows and ``parse_cells`` parses cells.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import (
    DuplicateAssetId,
    MissingValueError,
    ParseError,
    TooFewObservations,
    ValidationError,
)

_MISSING_TOKENS = {"", "na", "n/a", "nan", "null", "none", "#n/a"}


@dataclass(frozen=True)
class ReturnsPanel:
    """Validated raw return panel, N x (M+1)."""

    returns: np.ndarray
    asset_ids: tuple[str, ...]

    def __post_init__(self):
        r = np.asarray(self.returns, dtype=float)
        r.setflags(write=False)
        object.__setattr__(self, "returns", r)
        object.__setattr__(self, "asset_ids", tuple(self.asset_ids))
        if r.ndim != 2:
            raise ValidationError("returns must be a 2-D array")
        n, t = r.shape
        if n < 2:
            raise ValidationError(f"need at least 2 assets, got {n}")
        if t < 2:
            raise TooFewObservations(f"need at least 2 observations, got {t}")
        if not np.all(np.isfinite(r)):
            raise MissingValueError("panel contains non-finite entries")
        if len(self.asset_ids) != n:
            raise ValidationError(
                f"{len(self.asset_ids)} asset ids for {n} rows"
            )
        if len(set(self.asset_ids)) != n:
            raise DuplicateAssetId("asset ids are not unique")

    @property
    def n_assets(self) -> int:
        return self.returns.shape[0]

    @property
    def n_obs(self) -> int:
        return self.returns.shape[1]


def demean(panel: ReturnsPanel) -> np.ndarray:
    """Read-only N x T panel less each asset's time-series mean.

    A second pass removes the rounding residue of the first subtraction
    so row sums vanish relative to the demeaned values themselves. A row
    whose sum overflows comes out non-finite, with no warning.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        x = panel.returns - panel.returns.mean(axis=1, keepdims=True)
        x = x - x.mean(axis=1, keepdims=True)
    x.setflags(write=False)
    return x


def parse_cells(rows: list[list[str]]) -> np.ndarray:
    """Non-empty, equal-length rows of CSV tokens -> float array.

    The one cell grammar of every numeric CSV: a cell must give a finite
    float(). Else the first bad cell in row-major order raises, naming its
    row and column (MissingValueError for _MISSING_TOKENS or non-finite).
    """
    try:
        data = np.fromiter(map(float, chain.from_iterable(rows)), dtype=float)
    except ValueError:
        data = None
    if data is not None and np.isfinite(data).all():
        return data.reshape(len(rows), -1)
    return np.array([[_parse_cell(token, i, j) for j, token in enumerate(cells)]
                     for i, cells in enumerate(rows)])


def _parse_cell(token: str, row: int, col: int) -> float:
    stripped, where = token.strip(), f"at row {row}, column {col}"
    if stripped.lower() in _MISSING_TOKENS:
        raise MissingValueError(f"missing value {where}")
    try:
        value = float(stripped)
    except ValueError:
        raise ParseError(f"non-numeric cell {stripped!r} {where}") from None
    if not np.isfinite(value):
        raise MissingValueError(f"non-finite value {where}")
    return value


def read_text(path) -> str:
    """UTF-8 text of a file, or of stdin's bytes for "-"; ParseError if not UTF-8."""
    try:
        if path == "-":
            return sys.stdin.buffer.read().decode("utf-8")
        with open(path, "rb") as fh:
            return fh.read().decode("utf-8")
    except UnicodeDecodeError:
        raise ParseError(f"{path}: input is not UTF-8 text") from None


def csv_rows(text: str) -> list[list[str]]:
    """Non-blank lines, split on commas, of text less a leading U+FEFF (BOM).

    A line ends at any line boundary of a str: \\n, \\r\\n and \\r read alike.
    """
    lines = text.removeprefix("\ufeff").splitlines()
    return [line.split(",") for line in lines if line.strip()]


def synthetic_ids(n: int) -> tuple[str, ...]:
    """The ids A0001, A0002, ... of n assets that have none of their own."""
    return tuple(f"A{i + 1:04d}" for i in range(n))


def load_panel(path, header: bool = True) -> ReturnsPanel:
    """Read a panel CSV from a path, or from stdin for "-"; see loads_panel."""
    return loads_panel(read_text(path), header)


def loads_panel(text: str, header: bool = True) -> ReturnsPanel:
    """Parse a panel from CSV text, rows as csv_rows.

    With header=False the first column still holds asset ids unless the
    first row's first cell parses as a number, in which case ids are
    synthesized as A0001, A0002, ...
    """
    rows = csv_rows(text)[1 if header else 0:]
    if not rows:
        raise ParseError("no data rows")

    width = len(rows[0])
    for i, cells in enumerate(rows):
        if len(cells) != width:
            raise ParseError(f"row {i} has {len(cells)} cells, expected {width}")

    ids_present = header
    if not header:  # "no header" panels may be bare numbers with no id column
        try:
            float(rows[0][0].strip())
        except ValueError:
            ids_present = True

    if ids_present:
        asset_ids = [cells[0].strip() for cells in rows]
        data_cells = [cells[1:] for cells in rows]
    else:
        asset_ids = synthetic_ids(len(rows))
        data_cells = rows

    if not data_cells[0]:
        raise TooFewObservations("no observation columns")

    return ReturnsPanel(returns=parse_cells(data_cells), asset_ids=tuple(asset_ids))
