"""Panel ingestion, centering and sample autocovariance computation.

A panel is stored as a p x n matrix with rows indexing variables and columns
indexing time, so every downstream formula reads exactly as in the estimation
equations. CSV files are assumed to hold one time point per row by default.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, DimensionError, FormatError


def _frozen(a: np.ndarray) -> np.ndarray:
    """``a`` if it is a read-only float array owning its memory, else a read-only copy."""
    fresh = isinstance(a, np.ndarray) and a.base is None and not a.flags.writeable
    if fresh and a.dtype == float:
        return a
    out = np.array(a, dtype=float)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class TimeSeriesPanel:
    """Observed p-variate series of length n, optionally de-meaned per row.

    ``mean_x`` holds the subtracted row means (zeros when uncentered) so that
    forecasts can be shifted back to the original scale.
    """

    values: np.ndarray
    mean_x: np.ndarray
    var_names: tuple[str, ...] = ()

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2:
            raise DimensionError("panel values must be a 2-d matrix")
        p, n = values.shape
        if p < 1:
            raise DimensionError("panel needs at least one variable")
        if n < 2:
            raise DimensionError(f"panel needs at least 2 time points, got {n}")
        if not np.all(np.isfinite(values)):
            raise DataError("panel contains non-finite values")
        mean_x = np.asarray(self.mean_x, dtype=float)
        if mean_x.shape != (p,):
            raise DimensionError("mean_x must have one entry per variable")
        if np.any(mean_x != 0.0):
            row_sums = np.abs(values.sum(axis=1))
            if np.any(row_sums > 1e-9 * n):
                raise DataError("centered panel rows do not sum to zero")
        names = tuple(self.var_names) if self.var_names else tuple(
            f"x{i + 1}" for i in range(p)
        )
        if len(names) != p:
            raise DimensionError("var_names length must equal the number of variables")
        object.__setattr__(self, "values", _frozen(values))
        object.__setattr__(self, "mean_x", _frozen(mean_x))
        object.__setattr__(self, "var_names", names)

    @property
    def p(self) -> int:
        return self.values.shape[0]

    @property
    def n(self) -> int:
        return self.values.shape[1]

    def window(self, n_vars: int | None = None, n_obs: int | None = None) -> "TimeSeriesPanel":
        """Sub-panel on the first ``n_vars`` variables and ``n_obs`` time points."""
        n_vars = self.p if n_vars is None else n_vars
        n_obs = self.n if n_obs is None else n_obs
        return TimeSeriesPanel(
            self.values[:n_vars, :n_obs],
            np.zeros(n_vars),
            self.var_names[:n_vars],
        )

    def time_slice(self, start: int, stop: int) -> "TimeSeriesPanel":
        """Sub-panel on time points ``start:stop`` (0-based, half-open)."""
        return TimeSeriesPanel(
            self.values[:, start:stop], np.zeros(self.p), self.var_names
        )


@dataclass(frozen=True)
class AcvSequence:
    """Autocovariance matrices at lags 0..max_lag.

    Negative lags are never stored: the estimator defines them through
    transposition, so ``at(-k)`` returns ``at(k).T``. A writeable array or a
    view is copied, so it stays the caller's; ``adopt`` takes a fresh stack.
    """

    matrices: np.ndarray  # (max_lag + 1, p, p)

    def __post_init__(self):
        mats = _frozen(self.matrices)
        if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
            raise DimensionError("ACV storage must be a stack of square matrices")
        if not np.all(np.isfinite(mats)):
            raise DataError("ACV matrices contain non-finite values")
        object.__setattr__(self, "matrices", mats)

    @classmethod
    def adopt(cls, mats: np.ndarray) -> "AcvSequence":
        """The sequence of a float stack the package just made, frozen in place, not copied."""
        mats.flags.writeable = False
        return cls(mats)

    @property
    def max_lag(self) -> int:
        return self.matrices.shape[0] - 1

    @property
    def p(self) -> int:
        return self.matrices.shape[1]

    def at(self, lag: int) -> np.ndarray:
        if abs(lag) > self.max_lag:
            raise DimensionError(
                f"lag {lag} outside stored range -{self.max_lag}..{self.max_lag}"
            )
        if lag >= 0:
            return self.matrices[lag]
        return self.matrices[-lag].T


def _parse_csv(path: str) -> tuple[np.ndarray, tuple[str, ...]]:
    """Parse a numeric CSV with an optional single header row."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh]
    except OSError as err:
        raise FormatError(f"cannot read {path}: {err}") from None
    rows = [ln for ln in lines if ln != ""]
    if not rows:
        raise FormatError(f"{path}: file is empty")

    def try_row(cells: list[str]) -> list[float] | None:
        try:
            return [float(c) for c in cells]
        except ValueError:
            return None

    header: tuple[str, ...] = ()
    first = [c.strip() for c in rows[0].split(",")]
    start = 0
    if try_row(first) is None:
        header = tuple(first)
        start = 1
    parsed: list[list[float]] = []
    width = None
    for r, ln in enumerate(rows[start:], start=start + 1):
        cells = [c.strip() for c in ln.split(",")]
        if width is None:
            width = len(cells)
        elif len(cells) != width:
            raise FormatError(f"{path}: row {r} has {len(cells)} fields, expected {width}")
        vals = []
        for col, cell in enumerate(cells, start=1):
            try:
                vals.append(float(cell))
            except ValueError:
                raise FormatError(
                    f"{path}: row {r}, column {col}: cannot parse {cell!r} as a number"
                ) from None
        parsed.append(vals)
    if not parsed:
        raise FormatError(f"{path}: no data rows")
    data = np.array(parsed, dtype=float)
    return data, header


def load_panel(path: str, transpose: bool = False, center: bool = True) -> TimeSeriesPanel:
    """Read a CSV file into a panel.

    File rows are time points unless ``transpose`` is set, in which case rows
    are variables already. With ``center`` the row means are subtracted and
    recorded in ``mean_x``.
    """
    data, header = _parse_csv(path)
    if transpose:
        values = data
        names: tuple[str, ...] = ()
    else:
        values = data.T
        names = header
    if not np.all(np.isfinite(values)):
        bad = np.argwhere(~np.isfinite(values))
        i, t = bad[0]
        raise DataError(f"{path}: non-finite value for variable {i + 1} at time {t + 1}")
    if values.shape[1] < 2:
        raise DimensionError(
            f"{path}: need at least 2 time points, got {values.shape[1]}"
        )
    if center:
        mean_x = values.mean(axis=1)
        values = values - mean_x[:, None]
    else:
        mean_x = np.zeros(values.shape[0])
    return TimeSeriesPanel(values, mean_x, names)


def sample_acv(panel: TimeSeriesPanel, max_lag: int) -> AcvSequence:
    """Sample autocovariances at lags 0..max_lag with divisor n at every lag.

    The lag-k matrix averages outer products of the series against its k-step
    future, which keeps the Bartlett-smoothed spectral estimate positive
    semi-definite downstream.
    """
    if max_lag < 0:
        raise DimensionError("max_lag must be non-negative")
    if max_lag >= panel.n:
        raise DimensionError(
            f"max_lag {max_lag} too large for n = {panel.n} time points"
        )
    x = panel.values
    n = panel.n
    mats = np.empty((max_lag + 1, panel.p, panel.p))
    for lag in range(max_lag + 1):
        if lag == 0:
            mats[0] = x @ x.T / n
        else:
            mats[lag] = x[:, :-lag] @ x[:, lag:].T / n
    return AcvSequence.adopt(mats)
