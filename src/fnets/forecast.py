"""Multi-step forecasting of the common and idiosyncratic components.

The common component is predicted through the static-representation formula:
cross-covariance at the horizon times the pseudo-inverse projection built
from the leading eigenpairs of the common lag-0 covariance, built once at fit
time so that a forecast is matrix products only. The idiosyncratic component
iterates the fitted VAR, feeding forecasts back in as they become available.
Sample means are re-added at the end.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DataError, DimensionError
from .panel import AcvSequence, TimeSeriesPanel
from .var import VarFit


@dataclass(frozen=True)
class ForecastResult:
    """Forecasts past the end of ``panel``. The panel's in-sample split into
    common and idiosyncratic parts is computed when first read, so a forecast
    keeps no p x n array alive."""

    horizon: int
    forecast: np.ndarray  # (horizon, p) combined, means re-added
    common_forecast: np.ndarray  # (horizon, p)
    idio_forecast: np.ndarray  # (horizon, p)
    predictor: CommonPredictor
    panel: TimeSeriesPanel

    @property
    def r_used(self) -> int:
        return self.predictor.r_used

    @property
    def rank_warning(self) -> str | None:
        return self.predictor.rank_warning

    @cached_property
    def common_insample(self) -> np.ndarray:  # (p, n)
        return forecast_common_restricted(self.predictor, self.panel, 0)[0]

    @cached_property
    def idio_insample(self) -> np.ndarray:  # (p, n)
        return self.panel.values - self.common_insample


@dataclass(frozen=True)
class CommonPredictor:
    """Common-component predictor; rank zero gives zero-width arrays, which
    predict zeros through the same products."""

    basis: np.ndarray  # (p, r_used) retained leading eigenvectors E of Gamma_chi(0)
    inv_vals: np.ndarray  # (r_used,) reciprocals of their eigenvalues
    cross: np.ndarray  # (depth, p, r_used) Gamma_chi(-a) E for a = 1..depth
    rank_warning: str | None = None

    @property
    def r_used(self) -> int:
        return self.basis.shape[1]


def common_predictor(acv_chi: AcvSequence, r: int, depth: int) -> CommonPredictor:
    """Predictor of rank ``r`` for horizons up to ``depth`` from the common ACV.

    Leading eigenvalues below 1e-10 of the largest are dropped, with a warning.
    """
    p = acv_chi.p
    if r < 0 or r > p:
        raise DimensionError(f"factor number {r} outside 0..{p}")
    if depth > acv_chi.max_lag:
        raise DimensionError(
            f"depth {depth} beyond stored common autocovariance lag {acv_chi.max_lag}"
        )
    cov0 = acv_chi.at(0)
    vals, vecs = np.linalg.eigh((cov0 + cov0.T) / 2.0)
    lead = vals[::-1][:r]
    if r and lead[0] <= 0.0:
        raise DataError("common covariance has no positive eigenvalue to retain")
    keep = lead > 1e-10 * vals[-1]
    warning = None
    r_used = int(keep.sum())
    if r_used < r:
        warning = f"dropped {r - r_used} near-zero eigenvalues; rank reduced to {r_used}"
    # C-contiguous, like the arrays read back from a document, so both
    # forecast through the same products bit for bit.
    basis = np.ascontiguousarray(vecs[:, ::-1][:, :r][:, keep])
    cross = acv_chi.matrices[1 : depth + 1].transpose(0, 2, 1) @ basis
    return CommonPredictor(basis, 1.0 / lead[keep], cross, warning)


def forecast_common_restricted(
    predictor: CommonPredictor, panel: TimeSeriesPanel, horizon: int
) -> tuple[np.ndarray, np.ndarray]:
    """In-sample common component (p x n) and its horizon forecasts (horizon x p).

    At horizon zero the estimator reduces to the orthogonal projection on the
    retained eigenvectors, which is what the in-sample matrix holds.
    """
    basis = predictor.basis
    if panel.p != basis.shape[0]:
        raise DimensionError(
            f"panel has {panel.p} variables but the model stores {basis.shape[0]}"
        )
    if horizon < 0:
        raise DimensionError("horizon must be non-negative")
    if horizon > predictor.cross.shape[0]:
        raise DimensionError(
            f"horizon {horizon} beyond the stored bandwidth {predictor.cross.shape[0]}"
        )
    insample = basis @ (basis.T @ panel.values)
    weights = predictor.inv_vals * (basis.T @ panel.values[:, -1])
    return insample, predictor.cross[:horizon] @ weights


def forecast_idio(fit: VarFit, xi_insample: np.ndarray, horizon: int) -> np.ndarray:
    """Iterated best linear predictor of the VAR component, horizon x p."""
    if horizon < 1:
        raise DimensionError("horizon must be at least 1")
    p, n = xi_insample.shape
    d = fit.order
    if n < d:
        raise DimensionError(f"need at least {d} in-sample points, have {n}")
    lag_mats = fit.lag_matrices()
    preds: list[np.ndarray] = []
    for a in range(1, horizon + 1):
        acc = np.zeros(p)
        for lag in range(1, d + 1):
            step = a - lag
            if step >= 1:
                acc += lag_mats[lag - 1] @ preds[step - 1]
            else:
                acc += lag_mats[lag - 1] @ xi_insample[:, n + step - 1]
        preds.append(acc)
    return np.vstack(preds)


def combine_forecasts(
    common_fc: np.ndarray,
    idio_fc: np.ndarray,
    predictor: CommonPredictor,
    panel: TimeSeriesPanel,
) -> ForecastResult:
    """Stack the component forecasts and restore the panel's sample means."""
    if common_fc.shape != idio_fc.shape:
        raise DimensionError("component forecasts must have equal shapes")
    if panel.mean_x.shape != (common_fc.shape[1],):
        raise DimensionError("mean vector length must match the variable count")
    forecast = common_fc + idio_fc + panel.mean_x[None, :]
    return ForecastResult(common_fc.shape[0], forecast, common_fc, idio_fc, predictor, panel)
