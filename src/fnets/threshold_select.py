"""Data-driven hard-threshold selection via a change point in the edge ratio.

Estimated coefficient matrices are dense with many near-zero entries; a gap
separates genuine edges from noise. Scanning an exponentially growing grid of
candidate thresholds, the edge-to-non-edge ratio drops fast below the gap and
slowly above it. The kink is located as the single change in that rate of
decline, fitted on the grid with every interval weighted by its width: the
ratio drop over an interval is modelled as proportional to the interval's
width, with one rate below the split and another above it, and the split with
the largest likelihood wins. The reported threshold sits at the centre of the
stretch of candidates that keep the same entries as the split, so that it lies
inside the gap rather than against its noise end.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, DimensionError


@dataclass(frozen=True)
class ThresholdSelection:
    """Grid, intermediate statistics and the selected threshold.

    Arrays follow the candidate grid: ``ratio[k]`` matches ``candidates[k]``
    and ``cusum[k]`` is the change-point statistic of the split at the 1-based
    candidate k+2 (splits run over candidates 2..M-1; see ``select_threshold``).
    ``threshold`` is the geometric centre of the constant-support stretch that
    holds ``candidates[selected_index - 1]``, so it is generally not that
    candidate, but it keeps exactly the same entries.
    """

    candidates: np.ndarray  # (M,)
    ratio: np.ndarray  # (M,)
    cusum: np.ndarray  # (M-2,)
    selected_index: int  # 1-based index k* into the candidate grid
    threshold: float
    denominator: int


def candidate_grid(mat: np.ndarray, grid_size: int = 100) -> np.ndarray:
    """Zero followed by a geometric sweep up to the largest modulus.

    The sweep starts at the smallest nonzero modulus but never more than two
    decades below the top. An unbounded start would make the first intervals
    arbitrarily narrow, and the difference quotients over them would dwarf
    the change point the scan is meant to find.
    """
    if grid_size < 4:
        raise DimensionError("threshold grid needs at least 4 candidates")
    mags = np.abs(np.asarray(mat, dtype=float))
    nonzero = mags[mags > 0.0]
    if nonzero.size == 0:
        raise DataError("cannot build a threshold grid for an all-zero matrix")
    hi = float(mags.max())
    lo = max(float(nonzero.min()), hi / 100.0)
    if hi / lo < 1.0 + 1e-12:
        lo = hi / 100.0
    grid = np.concatenate([[0.0], np.geomspace(lo, hi, grid_size - 1)])
    grid[-1] = hi
    return grid


def select_threshold(
    mat: np.ndarray, denominator: int, grid_size: int = 100
) -> ThresholdSelection:
    """Pick the adaptive threshold for ``mat`` with ``denominator`` candidate cells.

    For each split ``k`` (1-based, 2..M-1) the statistic is

        D_L log(D_L / W_L) + D_R log(D_R / W_R),  with 0 log 0 = 0,

    where ``D_L = ratio_1 - ratio_k`` and ``W_L = t_k - t_1`` are the ratio drop
    and the grid width left of ``t_k``, and ``D_R = ratio_k - ratio_M``,
    ``W_R = t_M - t_k`` those right of it. ``selected_index`` is its argmax;
    the smallest k wins a tie. The returned ``threshold`` is the geometric
    centre of the run of candidates whose support equals that of
    ``candidates[selected_index - 1]``, with the lower end clamped at
    ``candidates[1]``; it keeps exactly the entries that candidate keeps.
    """
    mat = np.asarray(mat, dtype=float)
    grid = candidate_grid(mat, grid_size)
    mags = np.abs(mat).ravel()
    counts = (mags[None, :] > grid[:, None]).sum(axis=1)
    if denominator < counts[0]:
        raise DimensionError(
            f"denominator {denominator} smaller than the unthresholded support {counts[0]}"
        )
    ratio = counts / np.maximum(denominator - counts, 1)
    inner = slice(1, -1)  # candidates 2..M-1, the admissible splits
    stat = _rate_term(ratio[0] - ratio[inner], grid[inner] - grid[0]) + _rate_term(
        ratio[inner] - ratio[-1], grid[-1] - grid[inner]
    )
    k_star = int(2 + np.argmax(stat))
    flat = np.flatnonzero(counts == counts[k_star - 1])
    lo = max(int(flat[0]), 1)
    return ThresholdSelection(
        candidates=grid,
        ratio=ratio,
        cusum=stat,
        selected_index=k_star,
        threshold=float(np.sqrt(grid[lo] * grid[flat[-1]])),
        denominator=denominator,
    )


def adaptive_threshold(mat: np.ndarray, denominator: int) -> float:
    """The ``select_threshold`` value for ``mat``, or 0 when ``mat`` is all zero."""
    if np.all(np.asarray(mat) == 0.0):
        return 0.0
    return select_threshold(mat, denominator).threshold


def _rate_term(drop: np.ndarray, width: np.ndarray) -> np.ndarray:
    """``drop * log(drop / width)`` elementwise, taking 0 log 0 as 0."""
    out = np.zeros_like(drop)
    pos = drop > 0.0
    out[pos] = drop[pos] * np.log(drop[pos] / width[pos])
    return out
