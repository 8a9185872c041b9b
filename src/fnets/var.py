"""Sparse estimation of the idiosyncratic VAR from Yule-Walker moments.

The stacked coefficient matrix solves a regularised moment equation built
from factor-adjusted autocovariances: an l1-penalised quadratic programme
(solved with FISTA) or a constrained l1 minimisation in the Dantzig-selector
family (solved column-wise as linear programmes).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionError, NumericalError
from .panel import AcvSequence
from .simplex import solve_l1_box


@dataclass(frozen=True)
class YuleWalkerSystem:
    """Block-Toeplitz moment system for a candidate VAR order.

    ``gram`` is the (p*order) x (p*order) matrix of lagged autocovariances and
    ``cross`` stacks the lag 1..order autocovariances into (p*order) x p; the
    leading p x p block of ``gram`` is the lag-0 autocovariance.
    """

    order: int
    gram: np.ndarray
    cross: np.ndarray

    @property
    def p(self) -> int:
        return self.cross.shape[1]

    @cached_property
    def prepared(self) -> tuple[np.ndarray, float, bool]:
        """Symmetrised gram matrix clipped to the PSD cone, the Lipschitz
        constant of the lasso gradient, and whether the clip changed anything.

        The factor adjustment can leave negative eigenvalues; one below
        -1e-12 times the largest is real and clipped, anything smaller is
        rounding noise and left alone. An exactly symmetric gram matrix, as
        :func:`build_yule_walker` makes, is used as it is, with no copy.
        Computed once per system, so a penalty path pays for one
        eigendecomposition.
        """
        gram_sym = self.gram
        if not np.array_equal(gram_sym, gram_sym.T):
            gram_sym = (gram_sym + gram_sym.T) / 2.0
        vals, vecs = np.linalg.eigh(gram_sym)
        top = float(vals[-1])
        clipped = bool(vals[0] < -1e-12 * top)
        if clipped:
            return (vecs * np.maximum(vals, 0.0)) @ vecs.T, 2.0 * max(top, 0.0), True
        return gram_sym, 2.0 * top, False


@dataclass(frozen=True)
class VarFit:
    """Estimated VAR coefficients plus tuning metadata.

    ``beta`` is (p*order) x p; rows (k-1)p..kp hold the transpose of the
    lag-k transition matrix.
    """

    order: int
    beta: np.ndarray
    method: str  # "lasso" | "ds"
    lam: float
    innovation_cov: np.ndarray | None = None
    threshold: float | None = None
    objective_trace: tuple[float, ...] = ()
    gram_clipped: bool = False

    @property
    def p(self) -> int:
        return self.beta.shape[1]

    def lag_matrix(self, lag: int) -> np.ndarray:
        """Transition matrix for one lag, 1-based."""
        if lag < 1 or lag > self.order:
            raise DimensionError(f"lag {lag} outside 1..{self.order}")
        p = self.p
        return self.beta[(lag - 1) * p : lag * p, :].T

    def lag_matrices(self) -> list[np.ndarray]:
        return [self.lag_matrix(k) for k in range(1, self.order + 1)]


def build_yule_walker(acv_xi: AcvSequence, order: int) -> YuleWalkerSystem:
    """Assemble the moment system at the given VAR order."""
    if order < 1:
        raise DimensionError("VAR order must be positive")
    if acv_xi.max_lag < order:
        raise DimensionError(
            f"need autocovariances up to lag {order}, have {acv_xi.max_lag}"
        )
    p = acv_xi.p
    gram = np.empty((p * order, p * order))
    for i in range(order):
        for j in range(order):
            gram[i * p : (i + 1) * p, j * p : (j + 1) * p] = acv_xi.at(i - j)
    cross = np.vstack([acv_xi.at(lag) for lag in range(1, order + 1)])
    return YuleWalkerSystem(order=order, gram=gram, cross=cross)


def _soft(x: np.ndarray, cut: float) -> np.ndarray:
    return np.sign(x) * np.maximum(np.abs(x) - cut, 0.0)


def lasso_fista(
    sys: YuleWalkerSystem,
    lam: float,
    max_iter: int = 200,
    tol: float = 1e-4,
) -> VarFit:
    """Accelerated proximal-gradient solve of the l1-penalised moment fit.

    The quadratic part has gradient 2 (gram @ M - cross); its Lipschitz
    constant is twice the top eigenvalue of the gram matrix, which is read,
    clipped to the PSD cone, from ``sys.prepared``. The objective
    sum(M * (gram @ M - 2 cross)) + lam |M|_1 is tracked to stop once its
    relative change falls below ``tol``; the best iterate is returned.
    """
    if lam <= 0:
        raise DimensionError("lasso penalty must be positive")
    gram, lip, clipped = sys.prepared
    cross = sys.cross
    if lip <= 0.0:
        # Zero quadratic part: penalty alone is minimised at zero.
        return VarFit(
            order=sys.order,
            beta=np.zeros_like(cross),
            method="lasso",
            lam=lam,
            objective_trace=(0.0,),
            gram_clipped=clipped,
        )
    step = 1.0 / lip
    m_prev = np.zeros_like(cross)
    y = m_prev
    t_prev = 1.0
    trace: list[float] = []
    best = m_prev
    best_obj = obj_prev = 0.0
    for _ in range(max_iter):
        grad = 2.0 * (gram @ y - cross)
        m_new = _soft(y - step * grad, lam * step)
        t_new = (1.0 + np.sqrt(1.0 + 4.0 * t_prev**2)) / 2.0
        y = m_new + ((t_prev - 1.0) / t_new) * (m_new - m_prev)
        obj = float(np.sum(m_new * (gram @ m_new - 2.0 * cross)))
        obj += lam * float(np.abs(m_new).sum())
        if not np.isfinite(obj):
            raise NumericalError("lasso objective became non-finite")
        trace.append(obj)
        if obj < best_obj:
            best_obj = obj
            best = m_new
        rel = abs(obj - obj_prev) / max(1.0, abs(obj_prev))
        m_prev, t_prev, obj_prev = m_new, t_new, obj
        if rel < tol:
            break
    return VarFit(
        order=sys.order,
        beta=best,
        method="lasso",
        lam=lam,
        objective_trace=tuple(trace),
        gram_clipped=clipped,
    )


def kkt_residual(sys: YuleWalkerSystem, beta: np.ndarray, lam: float) -> float:
    """Worst stationarity violation of the l1-penalised fit at ``beta``."""
    grad = 2.0 * ((sys.gram + sys.gram.T) / 2.0 @ beta - sys.cross)
    active = beta != 0.0
    res_active = np.abs(grad + lam * np.sign(beta))[active]
    res_zero = np.maximum(np.abs(grad) - lam, 0.0)[~active]
    worst = 0.0
    if res_active.size:
        worst = max(worst, float(res_active.max()))
    if res_zero.size:
        worst = max(worst, float(res_zero.max()))
    return worst


def dantzig_lp(
    sys: YuleWalkerSystem, lam: float, bases: dict[int, np.ndarray] | None = None
) -> VarFit:
    """Column-wise l1 minimisation under a sup-norm moment constraint.

    ``bases`` carries each column's optimal basis from one penalty to the
    next (see :func:`solve_l1_box`).
    """
    if lam <= 0:
        raise DimensionError("constraint width must be positive")
    beta = solve_l1_box(sys.gram, sys.cross, lam, bases)
    return VarFit(order=sys.order, beta=beta, method="ds", lam=lam)


def threshold_matrix(mat: np.ndarray, t: float) -> np.ndarray:
    """Zero every entry with modulus at or below ``t`` (strict keep rule)."""
    if t < 0:
        raise DimensionError("threshold must be non-negative")
    mat = np.asarray(mat, dtype=float)
    return np.where(np.abs(mat) > t, mat, 0.0)


def innovation_covariance(sys: YuleWalkerSystem, beta: np.ndarray) -> np.ndarray:
    """Innovation covariance of the VAR with coefficients ``beta`` fitted to
    ``sys``, symmetrised by averaging."""
    raw = sys.gram[: sys.p, : sys.p] - beta.T @ sys.cross
    return (raw + raw.T) / 2.0
