"""Joint selection of the VAR order and penalties by rolling validation or
an extended information criterion, and of the precision constraint width by a
matrix-divergence validation score.

Each fold is a contiguous block whose first half trains and second half
tests; the score plugs train-set coefficients into test-set moments, so it
approximates out-of-sample prediction error without observing the latent
process.
"""
from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import DataError, DimensionError, NumericalError, SolverError, UsageError
from .panel import TimeSeriesPanel
from .precision import aclime, aclime_step_one, clime
from .spectral import default_bandwidth, factor_adjust
from .threshold_select import adaptive_threshold
from .var import (
    VarFit,
    YuleWalkerSystem,
    build_yule_walker,
    dantzig_lp,
    innovation_covariance,
    lasso_fista,
    threshold_matrix,
)


@dataclass(frozen=True)
class Fold:
    train: range
    test: range


@dataclass(frozen=True)
class TuningResult:
    method: str  # "cv" | "ebic"
    grid: np.ndarray  # descending candidate penalties
    orders: tuple[int, ...]
    score_surface: np.ndarray  # (len(orders), len(grid)); skipped points inf
    solved: tuple[int, ...]  # grid points solved per row, a prefix of the grid
    selected_lambda: float
    selected_order: int
    # Penalties scale with 1/sqrt(sample size); a value tuned on the training
    # segments transfers to a full-sample refit through this factor.
    refit_scale: float = 1.0


@dataclass(frozen=True)
class SegmentMoments:
    """Yule-Walker systems of one fold's training and test segments, by order."""

    n_train: int
    train: dict[int, YuleWalkerSystem]
    test: dict[int, YuleWalkerSystem]


def _refit_scale(moments: list[SegmentMoments], n: int) -> float:
    mean_train = sum(s.n_train for s in moments) / len(moments)
    return math.sqrt(mean_train / n)


def make_folds(n: int, n_folds: int) -> list[Fold]:
    """Contiguous folds, each split into a leading train and trailing test half."""
    if n_folds < 1:
        raise DimensionError("need at least one fold")
    width = math.ceil(n / n_folds)
    folds = []
    prev = 0
    for l in range(1, n_folds + 1):
        stop = min(l * width, n)
        if stop <= prev:
            raise DimensionError(f"fold {l} is empty; too many folds for n = {n}")
        train_stop = math.ceil((prev + stop) / 2)
        if train_stop <= prev or train_stop >= stop:
            raise DimensionError(f"fold {l} too short to split into train and test")
        folds.append(Fold(train=range(prev, train_stop), test=range(train_stop, stop)))
        prev = stop
    return folds


def segment_moments(
    panel: TimeSeriesPanel,
    model_kind: str,
    q: int,
    n_folds: int,
    bandwidth: int | None,
    orders: tuple[int, ...],
) -> list[SegmentMoments]:
    """Yule-Walker system at each of ``orders`` for every fold's training and
    test segments, factor-adjusted at ``bandwidth`` or each segment's default
    when it is None. Every validation score reads these, so each segment is
    adjusted once and each system built once; the autocovariances are dropped."""
    out = []
    for fold in make_folds(panel.n, n_folds):
        systems = []
        for seg in (fold.train, fold.test):
            sub = panel.time_slice(seg.start, seg.stop)
            m = default_bandwidth(sub.n) if bandwidth is None else bandwidth
            acv_xi = factor_adjust(sub, model_kind, q, m, max(orders)).acv_xi
            systems.append({d: build_yule_walker(acv_xi, d) for d in orders})
            del acv_xi  # freed before the next segment is adjusted
        out.append(SegmentMoments(len(fold.train), *systems))
    return out


def fit_var(
    sys: YuleWalkerSystem,
    method: str,
    lam: float,
    bases: dict[int, np.ndarray] | None = None,
) -> VarFit:
    """Sparse VAR solve by the named method: "lasso" (FISTA) or "ds" (simplex).

    ``bases`` warm-starts the Dantzig selector's column programmes along a
    penalty path on one moment system; the lasso ignores it.
    """
    if method == "lasso":
        return lasso_fista(sys, lam)
    if method == "ds":
        return dantzig_lp(sys, lam, bases)
    raise UsageError(f"unknown estimation method {method!r}")


def fit_precision(
    gamma: np.ndarray,
    eta: float,
    n: int,
    adaptive: bool,
    step_one: np.ndarray | None = None,
    bases: dict[int, np.ndarray] | None = None,
) -> np.ndarray:
    """Innovation precision by adaptive (sample size ``n``) or plain CLIME.

    ``step_one`` passes in the adaptive diagonal estimates; ``bases``
    warm-starts the column programmes along a width path on one ``gamma``.
    """
    if adaptive:
        return aclime(gamma, eta, n, step_one, bases)
    return clime(gamma, eta, bases)


def _innovation_quadform(sys: YuleWalkerSystem, beta: np.ndarray) -> np.ndarray:
    """Innovation covariance implied by ``beta`` under the moments of ``sys``."""
    cross = sys.cross
    mat = (
        sys.gram[: sys.p, : sys.p]
        - beta.T @ cross
        - cross.T @ beta
        + beta.T @ sys.gram @ beta
    )
    return (mat + mat.T) / 2.0


def _geometric_grid(top: float, path_length: int, zero_message: str) -> np.ndarray:
    """Descending geometric grid from ``top`` to top/100."""
    if path_length < 1:
        raise DimensionError("path length must be positive")
    if top == 0.0:
        raise DataError(zero_message)
    return np.geomspace(top, top / 100.0, path_length)


def lambda_grid(sys: YuleWalkerSystem, path_length: int, method: str) -> np.ndarray:
    """Descending geometric penalty grid anchored at the zero-solution bound."""
    top = float(np.max(np.abs(sys.cross))) * (2.0 if method == "lasso" else 1.0)
    zero = "all moment cross terms are zero; penalty grid degenerate"
    return _geometric_grid(top, path_length, zero)


def eta_grid(gamma: np.ndarray, path_length: int) -> np.ndarray:
    """Descending geometric grid for the precision constraint width."""
    zero = "covariance estimate is zero; constraint grid degenerate"
    return _geometric_grid(float(np.max(np.abs(gamma))), path_length, zero)


def _walk(
    method: str,
    grid: np.ndarray,
    rows: dict[int, list[Callable[[float, dict], float]]],
    refit_scale: float = 1.0,
) -> TuningResult:
    """Walk a descending grid once per order, the keys of ``rows`` in
    ascending order, and select the minimum, with ties toward smaller order,
    then larger penalty.

    At each point every fold callback of the order's row solves with that
    fold's own warm bases, and the fold scores are summed in fold order (an
    infinite one ends the sum). A row stops after the first point where its
    score has risen at two consecutive finite points, s[i-2] < s[i-1] < s[i];
    its later points are skipped and score infinity.
    """
    grid = np.asarray(grid, dtype=float)
    orders = tuple(sorted(rows))
    scores = np.full((len(orders), len(grid)), np.inf)
    solved = [len(grid)] * len(orders)
    for oi, folds in enumerate(rows[d] for d in orders):
        bases: list[dict[int, np.ndarray]] = [{} for _ in folds]
        for gi, value in enumerate(grid):
            total = 0.0
            for score, warm in zip(folds, bases):
                total += score(float(value), warm)
                if not np.isfinite(total):
                    break
            scores[oi, gi] = total
            s = scores[oi, max(gi - 2, 0) : gi + 1]
            if len(s) == 3 and np.all(np.isfinite(s)) and s[0] < s[1] < s[2]:
                solved[oi] = gi + 1
                break
    o_idx, g_idx = np.unravel_index(int(np.argmin(scores)), scores.shape)
    return TuningResult(
        method=method, grid=grid, orders=orders, score_surface=scores, solved=tuple(solved),
        selected_lambda=float(grid[g_idx]), selected_order=orders[o_idx], refit_scale=refit_scale,
    )


def _cv_var_score(seg: SegmentMoments, order: int, method: str, lam: float, bases: dict) -> float:
    beta = fit_var(seg.train[order], method, lam, bases).beta
    return float(np.trace(_innovation_quadform(seg.test[order], beta)))


def cv_var(
    moments: list[SegmentMoments],
    n: int,
    method: str,
    grid: np.ndarray,
) -> TuningResult:
    """Rolling validation over the penalty grid and the candidate orders,
    which are those of the segment moments of an n-point panel."""
    rows = {
        d: [partial(_cv_var_score, seg, d, method) for seg in moments] for d in moments[0].train
    }
    return _walk("cv", grid, rows, _refit_scale(moments, n))


def _cv_delta_score(seg: SegmentMoments, method: str, lam: float, order: int, adaptive: bool):
    sys_tr = seg.train[order]
    beta_tr = fit_var(sys_tr, method, lam).beta
    gamma_tr = innovation_covariance(sys_tr, beta_tr)
    gamma_te = _innovation_quadform(seg.test[order], beta_tr)
    sign_te = np.linalg.slogdet(gamma_te)[0]
    n_tr = seg.n_train
    try:
        step_one = aclime_step_one(gamma_tr, n_tr) if adaptive else None
    except SolverError:  # every width of the fold would fail with it
        return lambda eta, bases: np.inf

    def score(eta: float, bases: dict) -> float:
        try:
            delta = fit_precision(gamma_tr, eta, n_tr, adaptive, step_one, bases)
        except SolverError:
            return np.inf
        sign, logdet = np.linalg.slogdet(delta)
        if sign <= 0 and sign * sign_te <= 0:
            return np.inf
        return float(np.trace(delta @ gamma_te)) - logdet

    return score


def cv_delta(
    moments: list[SegmentMoments],
    n: int,
    method: str,
    lam: float,
    order: int,
    grid: np.ndarray,
    adaptive: bool = False,
) -> TuningResult:
    """Constraint-width selection by the matrix divergence between the
    train-set precision and the test-set innovation covariance.

    The test covariance G plugs the train-set coefficients into the test-set
    moments, the same quadratic form the coefficient validation score traces.
    A width with precision D scores tr(D G) - log|det D|, the Stein
    divergence tr(D G) - log det(D G) - p plus log|det G| + p, a term that
    does not depend on the width. The score is finite where the divergence
    is, det(D G) > 0, and also wherever det D > 0, so an indefinite G does not
    rule out a positive definite D. Other candidates, and those whose column
    programmes are infeasible, score infinity. Every column is warm-started
    from its previous optimal basis along the walk; the adaptive first step,
    which does not depend on the width, runs once per fold. ``moments`` are
    as in :func:`cv_var`, with systems at ``order``.
    """
    folds = [_cv_delta_score(seg, method, lam, order, adaptive) for seg in moments]
    result = _walk("cv", grid, {order: folds}, _refit_scale(moments, n))
    if not np.any(np.isfinite(result.score_surface)):
        raise NumericalError("no valid constraint-width candidate; widen the grid")
    return result


def log_binomial(total: int, chosen: int) -> float:
    """log of the binomial coefficient via log-gamma."""
    if chosen < 0 or chosen > total:
        raise DimensionError(f"cannot choose {chosen} from {total}")
    return (
        math.lgamma(total + 1) - math.lgamma(chosen + 1) - math.lgamma(total - chosen + 1)
    )


def ebic_var(
    systems: dict[int, YuleWalkerSystem],
    n: int,
    method: str,
    grid: np.ndarray,
    alpha: float = 0.0,
) -> TuningResult:
    """Extended information criterion over the penalty grid and orders.

    ``systems`` holds the fit's own full-sample Yule-Walker system at each
    candidate order, estimated from n observations. Coefficients are
    hard-thresholded at the adaptive threshold before the support is counted
    and the quadratic loss evaluated.
    """
    p = next(iter(systems.values())).p

    def score(order: int, lam: float, bases: dict) -> float:
        fit = fit_var(systems[order], method, lam, bases)
        beta = threshold_matrix(fit.beta, adaptive_threshold(fit.beta, p * p * order))
        s = int(np.count_nonzero(beta))
        loss = float(np.trace(_innovation_quadform(systems[order], beta)))
        return (
            n / 2.0 * math.log(max(loss, np.finfo(float).tiny))
            + s * math.log(n)
            + 2.0 * alpha * log_binomial(order * p * p, s)
        )

    return _walk("ebic", grid, {d: [partial(score, d)] for d in systems})
