"""Innovation and long-run precision matrices with their partial correlations.

The innovation precision is estimated column-by-column as the l1-minimal
solution of a sup-norm-constrained linear system (a CLIME-type programme),
optionally with entry-adaptive constraint widths, then symmetrised by keeping
the smaller-modulus entry of each mirror pair. The long-run precision follows
by congruence with the VAR lag polynomial evaluated at one; ``precision_fit``
builds it and both partial-correlation matrices from an estimate in one step.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DimensionError, SolverError
from .simplex import solve_l1_box, solve_l1_general
from .var import VarFit


@dataclass(frozen=True)
class PrecisionFit:
    """Precision estimates and the derived partial-correlation matrices, each
    of the latter ``None`` where its precision's diagonal is not positive."""

    innovation_precision: np.ndarray  # symmetric p x p
    eta: float
    adaptive: bool
    longrun_precision: np.ndarray
    lag_polynomial_at_one: np.ndarray
    partial_cor: np.ndarray | None
    longrun_partial_cor: np.ndarray | None


def _check_symmetric(mat: np.ndarray, what: str) -> np.ndarray:
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DimensionError(f"{what} must be square")
    if not np.all(np.isfinite(mat)):
        raise DataError(f"{what} contains non-finite values")
    if np.max(np.abs(mat - mat.T)) > 1e-8 * max(1.0, np.max(np.abs(mat))):
        raise DataError(f"{what} is not symmetric")
    return mat


def symmetrise_min_modulus(mat: np.ndarray) -> np.ndarray:
    """For each mirror pair keep the smaller-modulus entry (ties keep the upper)."""
    mat = np.asarray(mat, dtype=float)
    chosen = np.where(np.abs(mat) <= np.abs(mat.T), mat, mat.T)
    return np.triu(chosen) + np.triu(chosen, 1).T


def _clime_columns(
    mat: np.ndarray,
    widths: float | np.ndarray,
    bases: dict[int, np.ndarray] | None,
    stage: str,
) -> np.ndarray:
    """Column programmes min |b|_1 s.t. |mat b - e_j| <= widths, symmetrised;
    a failing column raises ``SolverError`` prefixed by ``stage``."""
    try:
        raw = solve_l1_box(mat, np.eye(mat.shape[0]), widths, bases)
    except SolverError as err:
        raise SolverError(f"{stage}{err}") from err
    return symmetrise_min_modulus(raw)


def clime(
    gamma: np.ndarray, eta: float, bases: dict[int, np.ndarray] | None = None
) -> np.ndarray:
    """Constrained l1-minimal inverse of ``gamma`` at constraint width ``eta``.

    ``bases`` carries each column's optimal basis from one width to the next
    (see :func:`solve_l1_box`).
    """
    gamma = _check_symmetric(gamma, "covariance estimate")
    if eta <= 0:
        raise DimensionError("constraint width must be positive")
    return _clime_columns(gamma, eta, bases, "precision ")


def aclime_step_one(gamma: np.ndarray, n: int) -> np.ndarray:
    """Truncated diagonal estimates that calibrate the adaptive widths.

    Each column's residual is bounded by a width proportional to the
    column's own diagonal unknown, linearised by moving that term to the
    constraint matrix. The result does not depend on the second-step width.
    """
    gamma = _check_symmetric(gamma, "covariance estimate")
    p = gamma.shape[0]
    if p < 2:
        raise DimensionError("adaptive estimator needs p >= 2")
    if n < 2:
        raise DimensionError("adaptive estimator needs n >= 2")
    diag = np.diag(gamma)
    if np.any(diag <= 0):
        raise DataError("covariance diagonal must be positive")
    star = gamma + np.eye(p) / n
    eta1 = 2.0 * math.sqrt(math.log(p) / n)
    eye = np.eye(p)

    step1_diag = np.empty(p)
    for j in range(p):
        bound = eta1 * np.maximum(diag, diag[j])
        shift = np.zeros((p, p))
        shift[:, j] = bound
        f_mat = np.vstack([star - shift, -(star + shift), -eye[j][None, :]])
        h = np.concatenate([eye[:, j], -eye[:, j], [-1e-10]])
        try:
            col = solve_l1_general(f_mat, h)
        except SolverError as err:
            raise SolverError(f"adaptive step 1, column {j + 1}: {err}") from err
        step1_diag[j] = col[j]

    cut = math.sqrt(n / math.log(p))
    return np.where(np.abs(diag) <= cut, step1_diag, math.sqrt(math.log(p) / n))


def aclime(
    gamma: np.ndarray,
    eta2: float,
    n: int,
    step_one: np.ndarray | None = None,
    bases: dict[int, np.ndarray] | None = None,
) -> np.ndarray:
    """Adaptive two-step variant with entry-dependent constraint widths.

    The diagonal estimates of :func:`aclime_step_one` (computed here unless
    ``step_one`` passes them in) calibrate the widths of the second step, a
    CLIME programme on ``gamma + I/n``; ``bases`` warm-starts it as in
    :func:`clime`.
    """
    gamma = _check_symmetric(gamma, "covariance estimate")
    if eta2 <= 0:
        raise DimensionError("constraint width must be positive")
    if step_one is None:
        step_one = aclime_step_one(gamma, n)
    p = gamma.shape[0]
    widths = eta2 * np.sqrt(np.outer(np.diag(gamma), step_one))
    return _clime_columns(gamma + np.eye(p) / n, widths, bases, "adaptive step 2, ")


def partial_correlations(mat: np.ndarray) -> np.ndarray:
    """Negated scaled off-diagonals of a precision matrix, unit diagonal."""
    mat = _check_symmetric(mat, "precision matrix")
    d = np.diag(mat)
    if np.any(d <= 0):
        raise DataError("precision diagonal must be positive")
    scale = np.sqrt(np.outer(d, d))
    out = -mat / scale
    np.fill_diagonal(out, 1.0)
    return out


def precision_fit(
    var_fit: VarFit, delta: np.ndarray, eta: float, adaptive: bool
) -> PrecisionFit:
    """Complete precision block from the innovation precision ``delta``.

    The long-run precision is 2*pi * A(1)' Delta A(1) with A(1) = I - sum of
    lags. Estimated precision matrices are not forced positive definite; a
    matrix whose diagonal is not strictly positive has no partial
    correlations, and its field is ``None`` rather than failing the fit.
    """
    delta = _check_symmetric(delta, "innovation precision")
    a_one = np.eye(delta.shape[0])
    for lag_mat in var_fit.lag_matrices():
        a_one = a_one - lag_mat
    omega = 2.0 * np.pi * a_one.T @ delta @ a_one
    omega = (omega + omega.T) / 2.0
    pc, lrpc = (
        partial_correlations(mat) if np.all(np.diag(mat) > 0) else None
        for mat in (delta, omega)
    )
    return PrecisionFit(delta, eta, adaptive, omega, a_one, pc, lrpc)
