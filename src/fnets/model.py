"""End-to-end fitting pipeline, the model type and its JSON document.

``fit`` chains the three estimation steps with all tuning procedures and
returns a ``FittedModel``; ``to_document``/``from_document`` round-trip its
estimated quantities through a JSON schema at full double precision, so a
reloaded model forecasts bit for bit like the one kept in memory.
"""
from __future__ import annotations

import datetime
import json
import os
import tempfile
from dataclasses import dataclass, replace

import numpy as np

from .errors import DataError, DimensionError, UsageError
from .factor_number import (
    FactorNumberSelection,
    select_factor_number_er,
    select_factor_number_ic,
)
from .forecast import (
    CommonPredictor,
    ForecastResult,
    combine_forecasts,
    common_predictor,
    forecast_common_restricted,
    forecast_idio,
)
from .panel import TimeSeriesPanel, sample_acv
from .precision import PrecisionFit, precision_fit
from .spectral import default_bandwidth, factor_adjust
from .threshold_select import adaptive_threshold
from .tuning import (
    TuningResult,
    cv_delta,
    cv_var,
    ebic_var,
    eta_grid,
    fit_precision,
    fit_var,
    lambda_grid,
    segment_moments,
)
from .var import VarFit, build_yule_walker, innovation_covariance, threshold_matrix

SCHEMA_VERSION = 3


@dataclass(frozen=True)
class FittedModel:
    """Estimated model: what the document stores, plus the fit-time panel
    and tuning records, which are ``None`` on a model loaded from JSON.

    ``r_forecast`` is the static rank chosen for the common-component
    ``predictor``, which holds horizons up to ``bandwidth``; both are fixed
    at fit time.
    """

    model_kind: str
    q_or_r: int
    r_forecast: int
    bandwidth: int
    var_fit: VarFit
    predictor: CommonPredictor
    precision: PrecisionFit | None
    mean_x: np.ndarray
    input_path: str | None = None
    panel: TimeSeriesPanel | None = None
    q_selection: FactorNumberSelection | None = None
    var_tuning: TuningResult | None = None
    eta_tuning: TuningResult | None = None

    @property
    def p(self) -> int:
        return self.mean_x.size


def fit(
    panel: TimeSeriesPanel,
    restricted: bool = False,
    q: int | None = None,
    q_method: str = "ic",
    ic_variant: int = 5,
    bandwidth: int | None = None,
    orders: tuple[int, ...] = (1,),
    method: str = "lasso",
    tuning: str = "cv",
    alpha: float = 0.0,
    n_folds: int = 1,
    path_length: int = 10,
    threshold: str | float = "off",
    lrpc: bool = True,
    lrpc_adaptive: bool = False,
    input_path: str | None = None,
) -> FittedModel:
    """Run factor adjustment, sparse VAR estimation and precision estimation.

    ``q`` pins the factor number; otherwise it is selected by the requested
    method. ``threshold`` is "off", "adaptive" or a non-negative number (or
    numeric string) applied to the coefficient matrix. With ``lrpc`` the
    innovation and long-run precision matrices are estimated with the
    constraint width tuned by the divergence validation score. Every option
    is checked before any numerical work; a bad value raises ``UsageError``.
    """
    model_kind = "restricted" if restricted else "unrestricted"
    if method not in ("lasso", "ds"):
        raise UsageError(f"unknown estimation method {method!r}")
    if tuning not in ("cv", "ebic"):
        raise UsageError(f"unknown tuning method {tuning!r}")
    if q_method not in ("ic", "er"):
        raise UsageError(f"unknown factor-number method {q_method!r}")
    if ic_variant not in range(1, 7):
        raise UsageError(f"information criterion variant {ic_variant!r} outside 1..6")
    if threshold not in ("off", "adaptive"):
        try:
            threshold = float(threshold)
        except (TypeError, ValueError):
            raise UsageError(
                f"--threshold must be 'off', 'adaptive' or a number, got {threshold!r}"
            ) from None
        if not threshold >= 0:
            raise UsageError("threshold must be non-negative")
    for name, count in (("path length", path_length), ("fold count", n_folds)):
        if count < 1:
            raise UsageError(f"{name} must be at least 1, got {count}")
    if not 0 <= alpha < np.inf:
        raise UsageError(f"alpha must be finite and non-negative, got {alpha}")
    orders = tuple(sorted(set(int(o) for o in orders)))
    if not orders or orders[0] < 1:
        raise UsageError("candidate orders must be positive integers")
    m = default_bandwidth(panel.n) if bandwidth is None else bandwidth
    if m < 1 or m > panel.n - 1:
        raise DimensionError(f"bandwidth {m} outside 1..{panel.n - 1}")
    flat = np.flatnonzero(np.ptp(panel.values, axis=1) == 0.0)
    if flat.size:
        names = ", ".join(panel.var_names[i] for i in flat)
        raise DataError(f"constant series: {names}; drop them before fitting")

    # One full-sample ACV for the ladders' top rungs and the factor adjustment.
    acv_x = sample_acv(panel, max(m, max(orders)))
    q_selection = None
    if q is None:
        if q_method == "ic":
            q_selection = select_factor_number_ic(
                panel, model_kind=model_kind, variant=ic_variant, acv_x=acv_x
            )
        else:
            q_selection = select_factor_number_er(panel, model_kind=model_kind)
        q_used = q_selection.q_hat
    else:
        if q < 0 or q > panel.p:
            raise DimensionError(f"factor number {q} outside 0..{panel.p}")
        q_used = q

    factor = factor_adjust(panel, model_kind, q_used, m, max(orders), acv_x)
    systems = {d: build_yule_walker(factor.acv_xi, d) for d in orders}
    # Static rank of the common-component predictor: the restricted model's
    # factor number, otherwise selected on the lag-0 covariance.
    if q_used == 0 or model_kind == "restricted":
        r_forecast = q_used
    else:
        r_forecast = select_factor_number_ic(panel, "restricted", acv_x=acv_x).q_hat
    predictor = common_predictor(factor.acv_chi, r_forecast, m)
    del factor, acv_x  # from here on only the systems and the predictor are read

    grid = lambda_grid(systems[max(orders)], path_length, method)
    moments = None
    if tuning == "cv" or lrpc:
        moments = segment_moments(panel, model_kind, q_used, n_folds, bandwidth, orders)
    if tuning == "cv":
        var_tuning = cv_var(moments, panel.n, method, grid)
    else:
        var_tuning = ebic_var(systems, panel.n, method, grid, alpha)
    d_hat = var_tuning.selected_order
    lam_hat = var_tuning.selected_lambda
    # The refit sees the whole sample, so the penalty tuned on the shorter
    # training segments is shrunk by the square-root sample-size ratio.
    lam_refit = lam_hat * var_tuning.refit_scale

    var_fit = fit_var(systems[d_hat], method, lam_refit)
    gamma_hat = innovation_covariance(systems[d_hat], var_fit.beta)
    if threshold == "adaptive":
        threshold = adaptive_threshold(var_fit.beta, panel.p * panel.p * d_hat)
    var_fit = replace(
        var_fit, innovation_cov=gamma_hat, threshold=None if threshold == "off" else threshold
    )

    precision = None
    eta_tuning = None
    if lrpc:
        grid_eta = eta_grid(gamma_hat, path_length)
        eta_tuning = cv_delta(
            moments, panel.n, method, lam_hat, d_hat, grid_eta, adaptive=lrpc_adaptive
        )
        eta_hat = eta_tuning.selected_lambda * eta_tuning.refit_scale
        delta = fit_precision(gamma_hat, eta_hat, panel.n, lrpc_adaptive)
        precision = precision_fit(var_fit, delta, eta_hat, lrpc_adaptive)

    return FittedModel(
        model_kind=model_kind,
        q_or_r=q_used,
        r_forecast=r_forecast,
        bandwidth=m,
        var_fit=var_fit,
        predictor=predictor,
        precision=precision,
        mean_x=panel.mean_x,
        input_path=input_path,
        panel=panel,
        q_selection=q_selection,
        var_tuning=var_tuning,
        eta_tuning=eta_tuning,
    )


def nonzero_report(model: FittedModel) -> tuple[int, int]:
    """Surviving coefficient count over the full parameter count."""
    beta = model.var_fit.beta
    if model.var_fit.threshold is not None:
        beta = threshold_matrix(beta, model.var_fit.threshold)
    return int(np.count_nonzero(beta)), beta.size


def report(model: FittedModel) -> str:
    """Human-readable fit summary."""
    lines = [
        "Factor-adjusted VAR model",
        f"n: {'not stored' if model.panel is None else model.panel.n}, p: {model.p}",
        f"Factor model: {model.model_kind}",
        f"Factor number: {model.q_or_r}",
    ]
    if model.q_selection is not None:
        method = model.q_selection.method
        lines.append(f"Factor number selection method: {method}")
        if method == "ic":
            lines.append(f"Information criterion: IC{model.q_selection.ic_variant}")
        if model.q_selection.stability_warning:
            lines.append(f"Factor number warning: {model.q_selection.stability_warning}")
    lines += [
        f"Kernel bandwidth: {model.bandwidth}",
        f"VAR order: {model.var_fit.order}",
        f"VAR estimation method: {model.var_fit.method}",
    ]
    if model.var_tuning is not None:
        lines.append(f"Tuning method: {model.var_tuning.method}")
        paths = ((model.var_tuning, "penalties"), (model.eta_tuning, "widths"))
        walked = [f"{sum(t.solved)} of {t.score_surface.size} {what}" for t, what in paths if t]
        lines.append("Tuning path: " + ", ".join(walked))
    t = model.var_fit.threshold
    lines.append(f"Threshold: {'none' if t is None else repr(float(t))}")
    nnz, total = nonzero_report(model)
    lines.append(f"Non-zero entries: {nnz}/{total}")
    lines.append(f"LRPC: {'true' if model.precision is not None else 'false'}")
    if model.precision is not None:
        lines.append(f"LRPC adaptive: {'true' if model.precision.adaptive else 'false'}")
    return "\n".join(lines) + "\n"


def _matrix(a: np.ndarray | None) -> list | None:
    return None if a is None else np.asarray(a, dtype=float).tolist()


def to_document(model: FittedModel) -> dict:
    """Serialisable description of the fitted model."""
    var_block = {
        "order": model.var_fit.order,
        "method": model.var_fit.method,
        "lambda": model.var_fit.lam,
        "beta": _matrix(model.var_fit.beta),
        "Gamma_hat": _matrix(model.var_fit.innovation_cov),
        "threshold": model.var_fit.threshold,
    }
    lrpc_block = None
    if model.precision is not None:
        lrpc_block = {
            "eta": model.precision.eta,
            "adaptive": model.precision.adaptive,
            "Delta": _matrix(model.precision.innovation_precision),
            "Omega": _matrix(model.precision.longrun_precision),
        }
    pred = model.predictor
    return {
        "schema_version": SCHEMA_VERSION,
        "model_kind": model.model_kind,
        "q_or_r": model.q_or_r,
        "r_forecast": model.r_forecast,
        "bandwidth": model.bandwidth,
        "var": var_block,
        "lrpc": lrpc_block,
        "predictor": {
            "basis": _matrix(pred.basis),
            "inv_vals": _matrix(pred.inv_vals),
            "cross": _matrix(pred.cross),
            "rank_warning": pred.rank_warning,
        },
        "mean_x": model.mean_x.tolist(),
        "provenance": {
            "input": model.input_path,
            "created": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        },
    }


def _numeric_block(name: str, value) -> np.ndarray:
    """A document's numeric field as a finite float array, else ``UsageError``."""
    try:
        block = np.asarray(value, dtype=float)
    except (TypeError, ValueError):
        raise UsageError(f"model document field {name} is not a numeric array") from None
    if not np.all(np.isfinite(block)):
        raise UsageError(f"model document field {name} has a non-finite entry")
    return block


def from_document(doc: dict) -> FittedModel:
    """Model from its JSON document, without the panel and tuning records.

    A missing field, a numeric block that is ragged, holds a non-finite entry
    or disagrees with the coefficient matrix on the variable count p, or an
    asymmetric ``lrpc.Delta`` raises ``UsageError`` naming it.
    """
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise UsageError(
            f"unsupported model schema {doc.get('schema_version')!r}; expected"
            f" {SCHEMA_VERSION}: refit the model to write a current document"
        )
    try:
        var_block, pred_block = doc["var"], doc["predictor"]
        var_fit = VarFit(
            order=int(var_block["order"]),
            beta=_numeric_block("var.beta", var_block["beta"]),
            method=var_block["method"],
            lam=float(var_block["lambda"]),
            innovation_cov=_numeric_block("var.Gamma_hat", var_block["Gamma_hat"]),
            threshold=None if var_block["threshold"] is None else float(var_block["threshold"]),
        )
        predictor = CommonPredictor(
            basis=_numeric_block("predictor.basis", pred_block["basis"]),
            inv_vals=_numeric_block("predictor.inv_vals", pred_block["inv_vals"]),
            cross=_numeric_block("predictor.cross", pred_block["cross"]),
            rank_warning=pred_block["rank_warning"],
        )
        mean_x = _numeric_block("mean_x", doc["mean_x"])
        lrpc = doc.get("lrpc")
        delta = None if lrpc is None else _numeric_block("lrpc.Delta", lrpc["Delta"])
        p = var_fit.beta.shape[-1] if var_fit.beta.ndim == 2 else 0
        r = predictor.basis.shape[-1] if predictor.basis.ndim == 2 else 0
        for name, shape, want in (
            ("var.beta", var_fit.beta.shape, (p * var_fit.order, p)),
            ("var.Gamma_hat", var_fit.innovation_cov.shape, (p, p)),
            ("predictor.basis", predictor.basis.shape, (p, r)),
            ("predictor.inv_vals", predictor.inv_vals.shape, (r,)),
            ("predictor.cross", predictor.cross.shape, (int(doc["bandwidth"]), p, r)),
            ("mean_x", mean_x.shape, (p,)),
            ("lrpc.Delta", (p, p) if delta is None else delta.shape, (p, p)),
        ):
            if shape != want:
                raise UsageError(f"model document field {name} has shape {shape}, not {want}")
        precision = None
        if lrpc is not None:
            try:
                precision = precision_fit(
                    var_fit, delta, float(lrpc["eta"]), bool(lrpc["adaptive"])
                )
            except DataError as err:  # asymmetric; finiteness is checked above
                raise UsageError(f"model document field lrpc.Delta: {err}") from None
        return FittedModel(
            model_kind=doc["model_kind"],
            q_or_r=int(doc["q_or_r"]),
            r_forecast=int(doc["r_forecast"]),
            bandwidth=int(doc["bandwidth"]),
            var_fit=var_fit,
            predictor=predictor,
            precision=precision,
            mean_x=mean_x,
            input_path=doc["provenance"]["input"],
        )
    except KeyError as err:
        raise UsageError(f"model document has no field {err.args[0]!r}") from None


def write_json(path: str, payload: dict | str | bytes) -> None:
    """Atomic write: temp file in the target directory, then rename."""
    if isinstance(payload, dict):
        data = json.dumps(payload, indent=1).encode("utf-8")
    elif isinstance(payload, str):
        data = payload.encode("utf-8")
    else:
        data = payload
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def predict(model: FittedModel, panel: TimeSeriesPanel, horizon: int) -> ForecastResult:
    """Forecast ``horizon`` steps past the end of ``panel``.

    The common component applies the predictor stored at fit time to this
    panel, so nothing is re-estimated and a reloaded model forecasts like the
    one kept in memory. Another variable count raises ``DimensionError``.
    It reads only the last max(order, 2) points (a panel needs two).
    """
    tail = panel.time_slice(panel.n - min(panel.n, max(model.var_fit.order, 2)), panel.n)
    common_is, common_fc = forecast_common_restricted(model.predictor, tail, horizon)
    idio_fc = forecast_idio(model.var_fit, tail.values - common_is, horizon)
    return combine_forecasts(common_fc, idio_fc, model.predictor, panel)


def predict_model(model: FittedModel, horizon: int) -> ForecastResult:
    """Forecast from the end of the panel the model was fitted on."""
    return predict(model, model.panel, horizon)


predict_document = predict
