"""Factor-number selection: penalised criteria with stability tuning, and
an eigenvalue-ratio rule.

Six information criteria trade the averaged tail eigenvalue mass of the
spectral density (or of the lag-0 covariance in the restricted model) against
a penalty scaled by a constant c. The constant is tuned by re-running the
selection over a ladder of nested sub-panels and picking the second interval
of c where the selections stop varying. The ratio rule simply maximises the
eigengap ratio of consecutive frequency-summed eigenvalues.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, UsageError
from .panel import AcvSequence, TimeSeriesPanel, sample_acv
from .spectral import _frequency_blocks, default_bandwidth, spectral_matrices

_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class FactorNumberSelection:
    method: str  # "ic" | "er"
    model_kind: str  # "unrestricted" | "restricted"
    q_hat: int
    q_max: int
    ic_variant: int | None = None
    c_grid: np.ndarray | None = None
    q_by_c: np.ndarray | None = None  # full-sample selection per c
    s_of_c: np.ndarray | None = None  # subsample selection variance per c
    c_hat: float | None = None
    er_curve: np.ndarray | None = None  # ratio per candidate 1..q_max
    stability_warning: str | None = None


def eigenvalue_summary(acv: AcvSequence, m: int) -> np.ndarray:
    """Per-index eigenvalue summary used by all selection rules, descending.

    Bandwidth m >= 1 (unrestricted): eigenvalues of the spectral density of
    ``acv`` averaged over the Fourier grid, from the m+1 frequencies w >= 0
    (Sigma(-w) has the same ones). m = 0 (restricted): eigenvalues of the
    lag-0 covariance.
    """
    if m == 0:
        cov = acv.at(0)
        return np.linalg.eigvalsh((cov + cov.T) / 2.0)[::-1]
    blocks = _frequency_blocks(m, acv.p)
    vals = np.concatenate([np.linalg.eigvalsh(spectral_matrices(acv, m, b)) for b in blocks])
    vals = vals[:, ::-1]
    return (vals[0] + 2.0 * vals[1:].sum(axis=0)) / (2 * m + 1)


def _bandwidth(model_kind: str, n: int) -> int:
    """Bandwidth of the summary of n points: the default, or 0 when restricted."""
    if model_kind not in ("unrestricted", "restricted"):
        raise UsageError(f"unknown model kind {model_kind!r}")
    return 0 if model_kind == "restricted" else default_bandwidth(n)


def _penalty(variant: int, model_kind: str, n: int, p: int, m: int) -> float:
    if model_kind == "restricted":
        if variant in (1, 2, 4, 5):
            return (n + p) / (n * p) * math.log(n * p / (n + p))
        if variant in (3, 6):
            low = min(n, p)
            return math.log(low) / low
        raise DimensionError(f"criterion variant {variant} outside 1..6")
    base = min(p, m**2, math.sqrt(n / m))
    if variant in (1, 4):
        return (m**-2 + math.sqrt(m / n) + 1.0 / p) * math.log(base)
    if variant in (2, 5):
        return base**-0.5
    if variant in (3, 6):
        return math.log(base) / base
    raise DimensionError(f"criterion variant {variant} outside 1..6")


def ic_table(
    eigen_summary: np.ndarray,
    c_grid: np.ndarray,
    variant: int,
    model_kind: str,
    n: int,
    p: int,
    m: int,
    q_max: int,
) -> np.ndarray:
    """Criterion at every constant in ``c_grid`` (rows) and candidate factor
    number 0..``q_max`` (columns)."""
    if q_max < 0 or q_max > p:
        raise DimensionError(f"candidate {q_max} outside 0..{p}")
    bs = np.arange(q_max + 1)
    tails = np.array(
        [float(np.sum(eigen_summary[b:])) / p for b in bs]
    )
    if variant >= 4:
        tails = np.log(np.maximum(tails, _TINY))
    pen = _penalty(variant, model_kind, n, p, m)
    return tails[None, :] + c_grid[:, None] * bs[None, :] * pen


def default_q_max(n: int, p: int) -> int:
    return min(50, int(math.isqrt(min(n - 1, p))))


def _subsample_schedule(n: int, p: int, levels: int = 10) -> list[tuple[int, int]]:
    step = n // 20
    out = []
    for level in range(1, levels + 1):
        n_l = n - (levels - level) * step
        p_l = int(math.floor(3 * p / 4 + level * p / 40))
        out.append((n_l, p_l))
    return out


def ic_ladder(
    panel: TimeSeriesPanel, model_kind: str = "unrestricted", acv_x: AcvSequence | None = None
) -> list[tuple[int, int, int, np.ndarray]]:
    """(n_l, p_l, m_l, eigenvalue summary) of each sub-panel ``panel.window(p_l, n_l)``
    of the ten-rung schedule, the whole panel last; no criterion variant changes them.

    A window is a prefix and is not re-centred, so below the top its ACV is
    s[:m_l+1, :p_l, :p_l] / n_l of one buffer of running lag sums s[k] = sum_t x_t x_{t+k}'
    grown in time. The top, the whole panel, reads ``acv_x`` when that reaches lag m_top.
    """
    schedule = _subsample_schedule(panel.n, panel.p)
    if any(n_l < 3 or p_l < 1 for n_l, p_l in schedule):
        raise DimensionError("panel too small for the subsample schedule")
    lags = [_bandwidth(model_kind, n_l) for n_l, _ in schedule]
    x = panel.values
    sums = np.zeros((lags[-2] + 1, panel.p, panel.p))
    done = 0  # time points summed so far
    ladder = []
    for (n_l, p_l), m_l in zip(schedule[:-1], lags[:-1]):
        for k in range(len(sums)):  # the pairs (x_t, x_{t+k}) with done <= t + k < n_l
            lo = max(done - k, 0)
            sums[k] += x[:, lo : n_l - k] @ x[:, lo + k : n_l].T
        done = n_l
        summary = eigenvalue_summary(AcvSequence.adopt(sums[: m_l + 1, :p_l, :p_l] / n_l), m_l)
        ladder.append((n_l, p_l, m_l, summary))
    del sums
    if acv_x is None or acv_x.max_lag < lags[-1]:
        acv_x = sample_acv(panel, lags[-1])
    return ladder + [(*schedule[-1], lags[-1], eigenvalue_summary(acv_x, lags[-1]))]


def ic_selection(
    ladder: list, model_kind: str = "unrestricted", variant: int = 5, q_max: int | None = None,
    c_max: float = 3.0, grid_size: int = 200,
) -> FactorNumberSelection:
    """Criterion ``variant`` on an ``ic_ladder`` of ``model_kind``, its constant
    tuned on the nested sub-panels.

    For every c on the grid the criterion is minimised on each of ten nested
    sub-panels; the variance of those ten selections traces out stable
    intervals, and the estimate is read off at the start of the second
    zero-variance interval (the first one is the degenerate small-c regime).
    """
    n, p = ladder[-1][:2]
    q_bar = default_q_max(n, p) if q_max is None else q_max
    q_bar = max(0, min(q_bar, min(p_l for _, p_l, _, _ in ladder) - 1))
    c_grid = np.linspace(c_max / grid_size, c_max, grid_size)

    selections = np.empty((len(ladder), grid_size), dtype=int)
    for idx, (n_l, p_l, m_l, summary) in enumerate(ladder):
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


def select_factor_number_ic(
    panel: TimeSeriesPanel, model_kind: str = "unrestricted", variant: int = 5,
    q_max: int | None = None, c_max: float = 3.0, grid_size: int = 200,
    acv_x: AcvSequence | None = None,
) -> FactorNumberSelection:
    """``ic_selection`` on the panel's ``ic_ladder``; ``acv_x``, the panel's own
    sample ACV, serves the ladder's top rung if deep enough."""
    ladder = ic_ladder(panel, model_kind, acv_x)
    return ic_selection(ladder, model_kind, variant, q_max, c_max, grid_size)


def select_factor_number_er(
    panel: TimeSeriesPanel,
    model_kind: str = "unrestricted",
    q_max: int | None = None,
) -> FactorNumberSelection:
    """Eigenvalue-ratio selection: maximise the consecutive eigengap ratio."""
    n, p = panel.n, panel.p
    q_bar = default_q_max(n, p) if q_max is None else q_max
    q_bar = max(1, q_bar)
    if q_bar >= p:
        raise DimensionError(f"candidate bound {q_bar} must be below p = {p}")
    m = _bandwidth(model_kind, n)
    summary = eigenvalue_summary(sample_acv(panel, m), m)
    # Ratios of summed eigenvalues equal ratios of averaged ones.
    curve = summary[:q_bar] / np.maximum(summary[1 : q_bar + 1], _TINY)
    q_hat = int(np.argmax(curve)) + 1
    return FactorNumberSelection(
        method="er",
        model_kind=model_kind,
        q_hat=q_hat,
        q_max=q_bar,
        er_curve=curve,
    )
