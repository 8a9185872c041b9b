"""Workload definitions and the benchmark operation.

One operation on a simulated panel runs, in order: ``model.fit``; the
Granger network and, when the model has partial correlations, the pc/lrpc
networks; ``to_document``, a JSON round-trip and ``from_document``; and
``predict_document`` at horizons 1, 2 and 3. The panel is simulated with
``HOLDOUT`` extra time points that the fit never sees, so the forecasts can
be scored against them.
"""
from __future__ import annotations

import inspect
import json
import time
from dataclasses import dataclass, field

import numpy as np

from fnets import model, networks, simulate, var
from fnets.panel import TimeSeriesPanel
from fnets.var import threshold_matrix

N, Q = 500, 2  # fit length and factor number of every simulated panel
HORIZONS = (1, 2, 3)
HOLDOUT = max(HORIZONS)
FISTA_CAP = inspect.signature(var.lasso_fista).parameters["max_iter"].default


@dataclass(frozen=True)
class Workload:
    name: str
    p: int
    restricted: bool  # static factor data (sim_restricted) and a restricted fit
    fit_kwargs: dict = field(default_factory=dict)
    panels: int = 1  # distinct simulated panels per run, cycled through

    def fit(self, panel: TimeSeriesPanel):
        return model.fit(panel, restricted=self.restricted, **self.fit_kwargs)


# Panel counts: an untraced run fits each panel at least twice, so cheap
# workloads get more panels and steadier accuracy medians. restricted_p50
# has six, so that its median over panels is not moved by up to two
# restricted fits that diverge, which it therefore hides (see NOTES.md).
WORKLOADS = {
    w.name: w
    for w in (
        Workload("clime_p100", p=100, restricted=False, panels=1,
                 fit_kwargs=dict(method="lasso", tuning="cv", lrpc=True)),
        Workload("dantzig_p50", p=50, restricted=False, panels=3,
                 fit_kwargs=dict(method="ds", tuning="cv", orders=(1,), lrpc=False)),
        Workload("spectral_p200", p=200, restricted=False, panels=1,
                 fit_kwargs=dict(method="lasso", tuning="cv", lrpc=False)),
        Workload("restricted_p50", p=50, restricted=True, panels=6,
                 fit_kwargs=dict(method="lasso", tuning="cv", threshold="adaptive",
                                 lrpc=False)),
        Workload("aclime_p50", p=50, restricted=False, panels=5,
                 fit_kwargs=dict(method="lasso", tuning="cv", lrpc=True,
                                 lrpc_adaptive=True)),
    )
}


@dataclass(frozen=True)
class Case:
    """One simulated panel plus the truth the benchmark scores against."""

    seed: int
    panel: TimeSeriesPanel  # first n points, centred
    holdout: np.ndarray  # (HOLDOUT, p) raw points after the panel
    a1: np.ndarray  # true lag-1 transition matrix


def simulate_case(w: Workload, seed: int, n: int = N, p: int | None = None) -> Case:
    spec = simulate.SimSpec(n=n + HOLDOUT, p=w.p if p is None else p, q=Q, seed=seed)
    sim = simulate.sim_var(spec)
    common = simulate.sim_restricted(spec) if w.restricted else simulate.sim_unrestricted(spec)
    x = sim.data + common
    fit_part = x[:, :n]
    mean = fit_part.mean(axis=1)
    panel = TimeSeriesPanel(fit_part - mean[:, None], mean)
    return Case(seed=seed, panel=panel, holdout=x[:, n:].T.copy(), a1=sim.a_matrices[0])


@dataclass
class OpResult:
    fit_s: float
    predict_s: list[float]
    forecasts: dict[int, np.ndarray]
    var_err_f: float
    sq_err: float  # summed squared h-step forecast errors, h in HORIZONS
    sq_err_mean: float  # the same for the in-sample mean as the forecast
    diverged: bool  # final lasso ran to the iteration cap on a clipped Gram matrix


class CheckFailed(Exception):
    """An operation returned output that fails a benchmark check."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def run_op(w: Workload, case: Case) -> tuple[OpResult, object]:
    """One timed operation; returns its result and the in-memory model."""
    panel = case.panel
    t0 = time.perf_counter()
    fitted = w.fit(panel)
    fit_s = time.perf_counter() - t0

    var_fit = fitted.var_fit
    t = var_fit.threshold or 0.0
    networks.extract_granger(var_fit, t)
    prec = fitted.precision
    if prec is not None:
        for kind, mat in (("pc", prec.partial_cor), ("lrpc", prec.longrun_partial_cor)):
            if mat is not None:
                networks.extract_undirected(mat, 0.0, kind)

    doc = model.from_document(json.loads(json.dumps(model.to_document(fitted))))

    predict_s, forecasts = [], {}
    for h in HORIZONS:
        t0 = time.perf_counter()
        res = model.predict_document(doc, panel, h)
        predict_s.append(time.perf_counter() - t0)
        forecasts[h] = res.forecast

    _require(bool(np.all(np.isfinite(var_fit.beta))), "beta not finite")
    _require(bool(np.all(np.isfinite(var_fit.innovation_cov))), "Gamma_hat not finite")
    for h, fc in forecasts.items():
        _require(fc.shape == (h, panel.p), f"forecast h={h} has shape {fc.shape}")
        _require(bool(np.all(np.isfinite(fc))), f"forecast h={h} not finite")

    a1_hat = var_fit.lag_matrix(1)
    if var_fit.threshold is not None:
        a1_hat = threshold_matrix(a1_hat, var_fit.threshold)
    err = np.array([forecasts[h][h - 1] - case.holdout[h - 1] for h in HORIZONS])
    err_mean = np.array([case.holdout[h - 1] - panel.mean_x for h in HORIZONS])
    result = OpResult(
        fit_s=fit_s,
        predict_s=predict_s,
        forecasts=forecasts,
        var_err_f=simulate.metrics(a1_hat, case.a1).l_f,
        sq_err=float(np.sum(err**2)),
        sq_err_mean=float(np.sum(err_mean**2)),
        diverged=var_fit.gram_clipped and len(var_fit.objective_trace) == FISTA_CAP,
    )
    return result, fitted


def check_reload_identity(fitted, result: OpResult) -> None:
    """Forecasts from the reloaded document equal in-memory ones bit for bit."""
    for h, fc in result.forecasts.items():
        ref = model.predict_model(fitted, h).forecast
        _require(np.array_equal(ref, fc), f"reloaded forecast h={h} differs from predict_model")


def check_repeat(first: OpResult, again: OpResult) -> None:
    """A repeated operation on the same panel reproduces the first bit for bit."""
    for h, fc in first.forecasts.items():
        _require(np.array_equal(fc, again.forecasts[h]), f"repeat forecast h={h} differs")
