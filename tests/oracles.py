"""Independent reference implementations used to freeze expected values.

Everything here is deliberately naive (double loops, exhaustive enumeration)
and shares no code with the package paths it checks.
"""
from __future__ import annotations

import itertools
import math

import numpy as np

from fnets.errors import DimensionError, NumericalError, SolverError, UsageError
from fnets.factor_number import FactorNumberSelection, _subsample_schedule, default_q_max, ic_table
from fnets.panel import TimeSeriesPanel, sample_acv
from fnets.precision import aclime_step_one
from fnets.spectral import default_bandwidth, spectral_matrices
from fnets.threshold_select import adaptive_threshold
from fnets.tuning import TuningResult, fit_precision, fit_var, log_binomial
from fnets.var import VarFit, YuleWalkerSystem, innovation_covariance, threshold_matrix


def naive_acv(x: np.ndarray, lag: int) -> np.ndarray:
    """Double-loop sample autocovariance with divisor n."""
    p, n = x.shape
    out = np.zeros((p, p))
    for t in range(lag, n):
        for i in range(p):
            for j in range(p):
                out[i, j] += x[i, t - lag] * x[j, t]
    return out / n


def naive_spectral(acvs: list[np.ndarray], m: int, omega: float) -> np.ndarray:
    """Direct kernel-weighted Fourier sum; acvs[k] is the lag-k matrix."""
    p = acvs[0].shape[0]
    out = np.zeros((p, p), dtype=complex)
    for lag in range(-m, m + 1):
        w = 1.0 - abs(lag) / m
        g = acvs[lag] if lag >= 0 else acvs[-lag].T
        out += w * g * np.exp(-1j * lag * omega)
    return out / (2.0 * np.pi)


def naive_factor_adjust(acvs: list[np.ndarray], m: int, q: int) -> np.ndarray:
    """Common-component autocovariances at lags 0..m by dynamic PCA.

    Every frequency 2*pi*k/(2m+1), k = -m..m, gets its own spectral matrix and
    eigendecomposition; the q leading eigenpairs are summed back with
    exp(i lag w) weights. Returned complex, so callers can see that the
    imaginary part cancels.
    """
    p = acvs[0].shape[0]
    out = np.zeros((m + 1, p, p), dtype=complex)
    for k in range(-m, m + 1):
        omega = 2.0 * np.pi * k / (2 * m + 1)
        vals, vecs = np.linalg.eigh(naive_spectral(acvs, m, omega))
        common = np.zeros((p, p), dtype=complex)
        for j in range(p - q, p):  # eigh sorts ascending
            common += vals[j] * np.outer(vecs[:, j], np.conj(vecs[:, j]))
        for lag in range(m + 1):
            out[lag] += common * np.exp(1j * lag * omega)
    return out * (2.0 * np.pi / (2 * m + 1))


def min_l1_over_polytope(f_mat: np.ndarray, h: np.ndarray) -> tuple[float, np.ndarray]:
    """Exhaustive minimiser of |v|_1 over {v: f_mat v <= h}.

    Candidate points fix a subset of coordinates at zero and make the
    remaining degrees of freedom active on constraint faces; every optimum of
    this piecewise-linear programme is of that form.
    """
    f_mat = np.asarray(f_mat, dtype=float)
    h = np.asarray(h, dtype=float)
    rows, d = f_mat.shape
    best_val = np.inf
    best_x = None
    for n_zero in range(d + 1):
        for zeros in itertools.combinations(range(d), n_zero):
            free = d - n_zero
            for active in itertools.combinations(range(rows), free):
                mat = np.zeros((d, d))
                rhs = np.zeros(d)
                for r, zi in enumerate(zeros):
                    mat[r, zi] = 1.0
                for r, ai in enumerate(active):
                    mat[n_zero + r] = f_mat[ai]
                    rhs[n_zero + r] = h[ai]
                if abs(np.linalg.det(mat)) < 1e-10:
                    continue
                x = np.linalg.solve(mat, rhs)
                if np.all(f_mat @ x <= h + 1e-9):
                    val = float(np.abs(x).sum())
                    if val < best_val - 1e-12:
                        best_val = val
                        best_x = x
    return best_val, best_x


def dantzig_column_oracle(gram: np.ndarray, target: np.ndarray, lam: float):
    """Brute-force min |m|_1 s.t. |gram m - target|_inf <= lam."""
    f_mat = np.vstack([gram, -gram])
    h = np.concatenate([target + lam, lam - target])
    return min_l1_over_polytope(f_mat, h)


def clime_column_oracle(gamma: np.ndarray, j: int, eta: float):
    e = np.zeros(gamma.shape[0])
    e[j] = 1.0
    return dantzig_column_oracle(gamma, e, eta)


def aclime_oracle(gamma: np.ndarray, eta2: float, n: int) -> np.ndarray:
    """Replay of the adaptive two-step procedure with brute-force solves."""
    p = gamma.shape[0]
    diag = np.diag(gamma)
    star = gamma + np.eye(p) / n
    eta1 = 2.0 * np.sqrt(np.log(p) / n)
    eye = np.eye(p)
    step1 = np.empty(p)
    for j in range(p):
        bound = eta1 * np.maximum(diag, diag[j])
        shift = np.zeros((p, p))
        shift[:, j] = bound
        f_mat = np.vstack([star - shift, -(star + shift), -eye[j][None, :]])
        h = np.concatenate([eye[:, j], -eye[:, j], [-1e-10]])
        _, x = min_l1_over_polytope(f_mat, h)
        step1[j] = x[j]
    cut = np.sqrt(n / np.log(p))
    trunc = np.where(np.abs(diag) <= cut, step1, np.sqrt(np.log(p) / n))
    raw = np.empty((p, p))
    for j in range(p):
        widths = eta2 * np.sqrt(diag * trunc[j])
        f_mat = np.vstack([star, -star])
        h = np.concatenate([eye[:, j] + widths, widths - eye[:, j]])
        _, x = min_l1_over_polytope(f_mat, h)
        raw[:, j] = x
    out = raw.copy()
    for i in range(p):
        for j in range(p):
            if abs(raw[j, i]) < abs(raw[i, j]):
                out[i, j] = raw[j, i]
    return out


def coordinate_descent_lasso(gram: np.ndarray, cross: np.ndarray, lam: float,
                             sweeps: int = 4000) -> np.ndarray:
    """Cyclic coordinate descent on tr(M'GM - 2M'g) + lam |M|_1."""
    k, p = cross.shape
    m = np.zeros((k, p))
    for _ in range(sweeps):
        delta = 0.0
        for i in range(k):
            for j in range(p):
                resid = cross[i, j] - gram[i] @ m[:, j] + gram[i, i] * m[i, j]
                new = np.sign(resid) * max(abs(resid) - lam / 2.0, 0.0) / gram[i, i]
                delta = max(delta, abs(new - m[i, j]))
                m[i, j] = new
        if delta < 1e-13:
            break
    return m


def hermitian_embedding_eigvals(h: np.ndarray) -> np.ndarray:
    """Eigenvalues of a Hermitian matrix via its real 2p x 2p embedding."""
    re, im = h.real, h.imag
    big = np.block([[re, -im], [im, re]])
    return np.linalg.eigvalsh(big)


def cusum_statistics(ratio: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """Loop evaluation of the width-weighted rate change-point statistic.

    Interval i (1-based, 2..M) runs from candidate i-1 to candidate i; its
    drop is the fall of ``ratio`` across it and its width the grid spacing.
    At each split k = 2..M-1 the drops and widths of intervals 2..k and
    k+1..M are summed separately and scored as D log(D / W), with 0 log 0 = 0.
    The returned array is indexed k-2.
    """
    m_pts = len(candidates)
    drops = [float(ratio[i - 2] - ratio[i - 1]) for i in range(2, m_pts + 1)]
    widths = [float(candidates[i - 1] - candidates[i - 2]) for i in range(2, m_pts + 1)]
    out = []
    for k in range(2, m_pts):
        value = 0.0
        for lo, hi in ((2, k), (k + 1, m_pts)):
            d_sum = sum(drops[i - 2] for i in range(lo, hi + 1))
            w_sum = sum(widths[i - 2] for i in range(lo, hi + 1))
            if d_sum > 0.0:
                value += d_sum * math.log(d_sum / w_sum)
        out.append(value)
    return np.array(out)


# The lasso solver with its own eigendecomposition per call and the trace form
# of the objective. The package solver reads a prepared gram matrix and takes
# the objective from gram @ M, and must reproduce these iterates bit for bit.
def _objective(gram, cross, m, lam):
    quad = float(np.trace(m.T @ gram @ m - 2.0 * m.T @ cross))
    return quad + lam * float(np.abs(m).sum())


def _soft(x: np.ndarray, cut: float) -> np.ndarray:
    return np.sign(x) * np.maximum(np.abs(x) - cut, 0.0)


def reference_lasso_fista(
    sys: YuleWalkerSystem,
    lam: float,
    max_iter: int = 200,
    tol: float = 1e-4,
) -> VarFit:
    """Accelerated proximal-gradient solve of the l1-penalised moment fit.

    The quadratic part has gradient 2 (gram @ M - cross); its Lipschitz
    constant is twice the top eigenvalue of the gram matrix. The gram matrix
    is clipped to the PSD cone first, since the factor adjustment can leave
    slightly negative eigenvalues.
    """
    if lam <= 0:
        raise DimensionError("lasso penalty must be positive")
    gram_sym = (sys.gram + sys.gram.T) / 2.0
    vals, vecs = np.linalg.eigh(gram_sym)
    clipped = bool(vals[0] < 0.0)
    if clipped:
        gram = (vecs * np.maximum(vals, 0.0)) @ vecs.T
        lip = 2.0 * max(float(vals[-1]), 0.0)
    else:
        gram = gram_sym
        lip = 2.0 * float(vals[-1])
    if lip <= 0.0:
        # Zero quadratic part: penalty alone is minimised at zero.
        beta = np.zeros_like(sys.cross)
        return VarFit(
            order=sys.order,
            beta=beta,
            method="lasso",
            lam=lam,
            objective_trace=(_objective(gram, sys.cross, beta, lam),),
            gram_clipped=clipped,
        )
    cross = sys.cross
    step = 1.0 / lip
    m_prev = np.zeros_like(cross)
    y = m_prev
    t_prev = 1.0
    trace: list[float] = []
    best = m_prev
    best_obj = _objective(gram, cross, m_prev, lam)
    obj_prev = best_obj
    for _ in range(max_iter):
        grad = 2.0 * (gram @ y - cross)
        m_new = _soft(y - step * grad, lam * step)
        t_new = (1.0 + np.sqrt(1.0 + 4.0 * t_prev**2)) / 2.0
        y = m_new + ((t_prev - 1.0) / t_new) * (m_new - m_prev)
        obj = _objective(gram, cross, m_new, lam)
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


# Full-grid tuning: every grid point solved, in the loop order the package
# used before its tuning paths stopped at the turn. The solvers are the
# package's; the walk, scoring and selection are not.


def _quadform(sys: YuleWalkerSystem, beta: np.ndarray) -> np.ndarray:
    cross = sys.cross
    mat = sys.gram[: sys.p, : sys.p] - beta.T @ cross - cross.T @ beta + beta.T @ sys.gram @ beta
    return (mat + mat.T) / 2.0


def _full_grid_result(method, grid, orders, scores, refit_scale=1.0) -> TuningResult:
    """First minimum in row-major order: smaller order, then larger penalty."""
    o_idx, g_idx = divmod(int(np.argmin(scores)), scores.shape[1])
    return TuningResult(
        method, np.asarray(grid, dtype=float), orders, scores,
        (len(grid),) * len(orders), float(grid[g_idx]), orders[o_idx], refit_scale,
    )


def _refit_scale(moments, n: int) -> float:
    return math.sqrt(sum(s.n_train for s in moments) / len(moments) / n)


def full_grid_cv_var(moments, n: int, method: str, grid: np.ndarray) -> TuningResult:
    """Rolling validation solving every grid point: for each fold, for each
    order, one warm-started pass over the whole grid, scores added per fold."""
    orders = tuple(sorted(moments[0].train))
    scores = np.zeros((len(orders), len(grid)))
    for seg in moments:
        for oi, order in enumerate(orders):
            bases: dict = {}
            for gi, lam in enumerate(grid):
                beta = fit_var(seg.train[order], method, float(lam), bases).beta
                scores[oi, gi] += float(np.trace(_quadform(seg.test[order], beta)))
    return _full_grid_result("cv", grid, orders, scores, _refit_scale(moments, n))


def full_grid_cv_delta(moments, n, method, lam, order, grid, adaptive=False) -> TuningResult:
    """Width validation solving every grid point, fold after fold; a width
    that scores infinity on one fold is not solved on later ones."""
    scores = np.zeros(len(grid))
    for seg in moments:
        sys_tr = seg.train[order]
        beta_tr = fit_var(sys_tr, method, lam).beta
        gamma_tr = innovation_covariance(sys_tr, beta_tr)
        gamma_te = _quadform(seg.test[order], beta_tr)
        sign_te = np.linalg.slogdet(gamma_te)[0]
        step_one = None
        if adaptive and np.any(np.isfinite(scores)):
            try:
                step_one = aclime_step_one(gamma_tr, seg.n_train)
            except SolverError:
                scores[:] = np.inf
                continue
        bases: dict = {}
        for gi, eta in enumerate(grid):
            if not np.isfinite(scores[gi]):
                continue
            try:
                delta = fit_precision(gamma_tr, float(eta), seg.n_train, adaptive, step_one, bases)
            except SolverError:
                scores[gi] = np.inf
                continue
            sign, logdet = np.linalg.slogdet(delta)
            if sign <= 0 and sign * sign_te <= 0:
                scores[gi] = np.inf
                continue
            scores[gi] += float(np.trace(delta @ gamma_te)) - logdet
    if not np.any(np.isfinite(scores)):
        raise NumericalError("no valid constraint-width candidate; widen the grid")
    return _full_grid_result("cv", grid, (order,), scores[None, :], _refit_scale(moments, n))


def full_grid_ebic_var(systems, n, method, grid, alpha=0.0) -> TuningResult:
    """Extended information criterion at every grid point of every order."""
    orders = tuple(sorted(systems))
    p = systems[orders[0]].p
    scores = np.zeros((len(orders), len(grid)))
    for oi, order in enumerate(orders):
        bases: dict = {}
        for gi, lam in enumerate(grid):
            fit = fit_var(systems[order], method, float(lam), bases)
            beta = threshold_matrix(fit.beta, adaptive_threshold(fit.beta, p * p * order))
            s = int(np.count_nonzero(beta))
            loss = float(np.trace(_quadform(systems[order], beta)))
            scores[oi, gi] = (
                n / 2.0 * math.log(max(loss, np.finfo(float).tiny))
                + s * math.log(n)
                + 2.0 * alpha * log_binomial(order * p * p, s)
            )
    return _full_grid_result("ebic", grid, orders, scores)


def first_turn(row: np.ndarray) -> int:
    """Points of a full-grid score row up to the first index i whose score has
    risen at two consecutive finite points; the whole row if none has."""
    for i in range(2, len(row)):
        a, b, c = row[i - 2 : i + 1]
        if np.all(np.isfinite((a, b, c))) and a < b < c:
            return i + 1
    return len(row)


def per_window_summary(
    panel: TimeSeriesPanel, model_kind: str, m: int | None = None
) -> tuple[np.ndarray, int]:
    """Per-index eigenvalue summary of a whole panel, from its own ACV.

    Unrestricted: eigenvalues of the spectral density averaged over the
    Fourier grid, from the m+1 frequencies w >= 0 (Sigma(-w) has the same
    ones). Restricted: eigenvalues of the lag-0 sample covariance.
    Returns the descending summary and the bandwidth actually used (0 when
    restricted).
    """
    if model_kind == "restricted":
        cov = sample_acv(panel, 0).at(0)
        vals = np.linalg.eigvalsh((cov + cov.T) / 2.0)[::-1]
        return vals, 0
    if model_kind != "unrestricted":
        raise UsageError(f"unknown model kind {model_kind!r}")
    if m is None:
        m = default_bandwidth(panel.n)
    m = min(m, panel.n - 1)
    acv = sample_acv(panel, m)
    vals = np.linalg.eigvalsh(spectral_matrices(acv, m))[:, ::-1]
    return (vals[0] + 2.0 * vals[1:].sum(axis=0)) / (2 * m + 1), m


def per_window_select_factor_number_ic(
    panel: TimeSeriesPanel,
    model_kind: str = "unrestricted",
    variant: int = 5,
    q_max: int | None = None,
    c_max: float = 3.0,
    grid_size: int = 200,
) -> FactorNumberSelection:
    """Criterion-based selection with the constant tuned on nested sub-panels,
    each sub-panel copied out with ``panel.window`` and its ACV computed on
    its own (the ladder as it was before the running-sum pass).

    For every c on the grid the criterion is minimised on each of ten nested
    sub-panels; the variance of those ten selections traces out stable
    intervals, and the estimate is read off at the start of the second
    zero-variance interval (the first one is the degenerate small-c regime).
    """
    n, p = panel.n, panel.p
    schedule = _subsample_schedule(n, p)
    if any(n_l < 3 or p_l < 1 for n_l, p_l in schedule):
        raise DimensionError("panel too small for the subsample schedule")
    q_bar = default_q_max(n, p) if q_max is None else q_max
    q_bar = max(0, min(q_bar, min(p_l for _, p_l in schedule) - 1))
    c_grid = np.linspace(c_max / grid_size, c_max, grid_size)

    selections = np.empty((len(schedule), grid_size), dtype=int)
    for idx, (n_l, p_l) in enumerate(schedule):
        sub = panel.window(p_l, n_l)
        summary, m_l = per_window_summary(sub, model_kind)
        # Ties go to the smaller candidate.
        selections[idx] = np.argmin(
            ic_table(summary, c_grid, variant, model_kind, n_l, p_l, m_l, q_bar), axis=1
        )

    s_of_c = selections.var(axis=0, ddof=1)
    q_by_c = selections[-1]  # the last ladder level is the full panel

    zero = s_of_c <= 1e-12
    runs: list[tuple[int, int]] = []
    start = None
    for i, flag in enumerate(zero):
        if flag and start is None:
            start = i
        elif not flag and start is not None:
            runs.append((start, i - 1))
            start = None
    if start is not None:
        runs.append((start, grid_size - 1))

    warning = None
    if len(runs) >= 2:
        c_idx = runs[1][0]
    elif len(runs) == 1:
        c_idx = runs[0][1]
        warning = "single stability interval; used its last grid point"
    else:
        c_idx = int(np.argmin(s_of_c))
        warning = "no zero-variance interval; used the minimum-variance point"

    return FactorNumberSelection(
        method="ic",
        model_kind=model_kind,
        q_hat=int(q_by_c[c_idx]),
        q_max=q_bar,
        ic_variant=variant,
        c_grid=c_grid,
        q_by_c=q_by_c,
        s_of_c=s_of_c,
        c_hat=float(c_grid[c_idx]),
        stability_warning=warning,
    )
