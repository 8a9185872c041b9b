"""Bartlett-kernel spectral density estimation and factor adjustment.

The factor-driven component is removed in the frequency domain: smooth the
sample autocovariances into spectral density matrices on the Fourier grid,
keep the leading eigenpairs at every frequency, transform back, and subtract.
Sigma(-w) is the conjugate of Sigma(w), so everything runs on the half grid
w >= 0 and no negative frequency is ever formed.
A time-domain variant projects on the leading eigenvectors of the lag-0
covariance instead, for the restricted (static) factor model.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, UsageError
from .panel import AcvSequence, TimeSeriesPanel, sample_acv


@dataclass(frozen=True)
class FactorAdjustment:
    """Autocovariance triple (observed, common, idiosyncratic); spectra are not kept."""

    acv_x: AcvSequence
    acv_chi: AcvSequence
    acv_xi: AcvSequence


def default_bandwidth(n: int) -> int:
    """Kernel bandwidth floor(4 (n / log n)^(1/3)), clamped to [1, n-1]."""
    if n <= 2:
        raise DimensionError(f"bandwidth rule needs n >= 3, got {n}")
    m = math.floor(4.0 * (n / math.log(n)) ** (1.0 / 3.0))
    return max(1, min(m, n - 1))


def fourier_frequencies(m: int) -> np.ndarray:
    """The half grid 2*pi*k/(2m+1) for k = 0..m."""
    return 2.0 * np.pi * np.arange(m + 1) / (2 * m + 1)


# Frequencies per spectral block once p >= _ITERATIVE_MIN_P. A block of 4 and its
# real buffer hold 2/3 of a real ACV stack at m = 17, the whole grid 3 stacks. One
# ladder rung's summary (n = 500, one BLAS thread) took 14 / 74 / 428 ms at p = 100
# / 200 / 400, the whole grid 14 / 77 / 484 ms and blocks of 1 15 / 98 / 593 ms.
# Below that one block holds the whole grid (at most 2.7 MB at m = 17): blocks of
# 4 took 1.29 / 1.07 / 1.02 times its time per summary at p = 20 / 50 / 79.
_FREQ_BLOCK = 4


def _frequency_blocks(m: int, p: int) -> list[slice]:
    """The half grid k = 0..m in consecutive blocks of frequencies (see _FREQ_BLOCK)."""
    size = _FREQ_BLOCK if p >= _ITERATIVE_MIN_P else m + 1
    return [slice(k, k + size) for k in range(0, m + 1, size)]


def spectral_matrices(acv: AcvSequence, m: int, block: slice = slice(None)) -> np.ndarray:
    """Bartlett-smoothed spectral density matrices at the half-grid frequencies
    ``block`` selects (all m+1 by default), (K, p, p).

    Sigma(w) = [G(0) + sum_l w_l (cos(lw) (G_l + G_l') + i sin(lw) (G_l' - G_l))]
    / 2pi, as two real products over lags, with 1/2pi in the kernel weights.
    """
    if m < 1:
        raise DimensionError("bandwidth must be positive")
    if acv.max_lag < m:
        raise DimensionError(
            f"need autocovariances up to lag {m}, have {acv.max_lag}"
        )
    p = acv.p
    lags = np.arange(1, m)  # the kernel weight vanishes at lag m
    weight = (1.0 - lags / m) / (2.0 * np.pi)
    arg = np.outer(fourier_frequencies(m), lags)
    cos, sin = np.cos(arg)[block] * weight, np.sin(arg)[block] * weight
    stack = acv.matrices[1:m].reshape(m - 1, p * p)
    out = np.empty((len(cos), p, p), dtype=complex)
    part = (cos @ stack).reshape(len(cos), p, p)
    np.add(part, part.transpose(0, 2, 1), out=out.real)
    out.real += acv.at(0) / (2.0 * np.pi)
    np.matmul(sin, stack, out=part.reshape(len(cos), p * p))
    np.subtract(part.transpose(0, 2, 1), part, out=out.imag)
    return out


def bartlett_spectral_density(
    acv: AcvSequence, m: int
) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of the spectral density on the half grid, leading pair first.

    Returns eigenvalues (m+1, p), descending, and eigenvectors (m+1, p, p)
    as matching columns.
    """
    vals = np.empty((m + 1, acv.p))
    vecs = np.empty((m + 1, acv.p, acv.p), dtype=complex)
    for block in _frequency_blocks(m, acv.p):
        vals[block], vecs[block] = np.linalg.eigh(spectral_matrices(acv, m, block))
    return vals[:, ::-1], vecs[:, :, ::-1]


# Below p = 80 the full eigh beats the iteration, whose cost is mostly per-call
# overhead. Median ms per 18-frequency stack of a simulated q = 2 panel (n = 500,
# one BLAS thread, x86-64), eigh against iteration: p = 50 6.3/14.3,
# p = 70 12.8/15.4, p = 80 16.8/15.7, p = 100 27.7/15.6, p = 200 220/46.
_ITERATIVE_MIN_P = 80
# A converging frequency takes 9-15 sweeps; 40 cost less than one p = 200 eigh.
_MAX_SWEEPS = 40


def _leading_pairs(stack, q: int) -> tuple[np.ndarray, np.ndarray]:
    """The q >= 1 leading eigenpairs of each Hermitian matrix in ``stack``, an
    array or any iterable of matrices in frequency order.

    Block subspace iteration with a Rayleigh-Ritz step on q + 2 columns.
    Frequency 0 starts from the leading eigenvectors of Sigma(0), which is
    real, and every later one from the block the frequency before it ended
    with. A frequency is accepted once each of its q Ritz residuals
    |S v - lambda v| is at most 1e-10 lambda_1. One that is not accepted
    within _MAX_SWEEPS sweeps has no clear gap below lambda_q, so it and
    every frequency after it take the full ``eigh``. Returns eigenvalues
    (K, q), descending, and eigenvectors (K, p, q), up to phase.
    """
    vals, vecs = [], []
    basis = None
    stalled = False
    for mat in stack:
        if basis is None:
            width = min(len(mat), q + 2)
            basis = np.linalg.eigh(mat.real)[1][:, : -width - 1 : -1].astype(complex)
        for _ in range(0 if stalled else _MAX_SWEEPS):
            image = mat @ basis
            theta, rot = np.linalg.eigh(np.conj(basis.T) @ image)
            theta, rot = theta[::-1], rot[:, ::-1]
            basis, image = basis @ rot, image @ rot
            resid = np.linalg.norm(image[:, :q] - basis[:, :q] * theta[:q], axis=0)
            if np.all(resid <= 1e-10 * theta[0]):
                break
            basis = np.linalg.qr(image)[0]
        else:  # not accepted, or an earlier frequency was not
            stalled = True
            theta, basis = np.linalg.eigh(mat)
            theta, basis = theta[::-1], basis[:, ::-1]
        vals.append(theta[:q])
        vecs.append(basis[:, :q].copy())  # not a view that keeps a full eigh basis
    return np.array(vals), np.array(vecs)


def factor_adjust_unrestricted(
    panel: TimeSeriesPanel, q: int, m: int | None = None, acv_x: AcvSequence | None = None
) -> FactorAdjustment:
    """Frequency-domain factor adjustment with q dynamic factors.

    The common spectrum V diag(lambda) V^H keeps the q leading eigenpairs per
    frequency, from ``_leading_pairs`` once p >= _ITERATIVE_MIN_P; its
    inverse transform over the full grid folds onto the half grid as
    G(l) = 2pi/(2m+1) [Re S(0) + 2 sum_{k>=1} (cos(l w_k) Re S(w_k)
    - sin(l w_k) Im S(w_k))]. ``acv_x``, if given, is the panel's ACV to lag m.
    """
    if m is None:
        m = default_bandwidth(panel.n)
    if q < 0 or q > panel.p:
        raise DimensionError(f"factor number {q} outside 0..{panel.p}")
    p = panel.p
    acv_x = sample_acv(panel, m) if acv_x is None else acv_x
    if q == 0 or p < _ITERATIVE_MIN_P:
        vals, vecs = bartlett_spectral_density(acv_x, m)
        vals, lead = vals[:, :q], vecs[:, :, :q]
    else:
        stream = (mat for b in _frequency_blocks(m, p) for mat in spectral_matrices(acv_x, m, b))
        vals, lead = _leading_pairs(stream, q)
    k = np.arange(m + 1)
    arg = np.outer(k, fourier_frequencies(m))  # rows are lags 0..m
    # Each w > 0 also stands for -w.
    weight = np.where(k == 0, 1.0, 2.0) * (2.0 * np.pi / (2 * m + 1))
    cos, sin = np.cos(arg) * weight, np.sin(arg) * weight
    scaled, adjoint = lead * vals[:, None, :], np.conj(lead.transpose(0, 2, 1))
    # The common spectrum in row blocks of about _FREQ_BLOCK p^2 entries.
    rows = max(1, _FREQ_BLOCK * p // (m + 1))
    chi = np.empty((m + 1, p, p))
    for i in range(0, p, rows):
        common = (scaled[:, i : i + rows] @ adjoint).reshape(m + 1, -1)
        chi[:, i : i + rows] = (cos @ common.real - sin @ common.imag).reshape(m + 1, -1, p)
    del common  # freed before the subtraction allocates a stack
    acv_chi = AcvSequence.adopt(chi)
    acv_xi = AcvSequence.adopt(acv_x.matrices - chi)
    return FactorAdjustment(acv_x, acv_chi, acv_xi)


def factor_adjust_restricted(
    panel: TimeSeriesPanel, r: int, max_lag: int, acv_x: AcvSequence | None = None
) -> FactorAdjustment:
    """Time-domain factor adjustment by the projection P on r static eigenvectors:
    G_chi(l) = P G_x(l) P, and G_xi(l) = (I - P) G_x(l) (I - P) is the ACV of the
    residual series (I - P) x, which ``predict`` treats as the idiosyncratic part;
    ``acv_x``, if given, is the panel's ACV to ``max_lag``."""
    if r < 0 or r > panel.p:
        raise DimensionError(f"factor number {r} outside 0..{panel.p}")
    if max_lag < 1 or max_lag > panel.n - 1:
        raise DimensionError(f"max_lag {max_lag} outside 1..{panel.n - 1}")
    acv_x = sample_acv(panel, max_lag) if acv_x is None else acv_x
    cov = acv_x.at(0)
    _, vecs = np.linalg.eigh((cov + cov.T) / 2.0)
    lead_vecs = vecs[:, ::-1][:, :r]
    proj = lead_vecs @ lead_vecs.T
    resid = np.eye(panel.p) - proj
    acv_chi = AcvSequence.adopt(proj @ acv_x.matrices @ proj)
    acv_xi = AcvSequence.adopt(resid @ acv_x.matrices @ resid)
    return FactorAdjustment(acv_x, acv_chi, acv_xi)


def factor_adjust(
    panel: TimeSeriesPanel, model_kind: str, q: int, m: int, min_lag: int,
    acv_x: AcvSequence | None = None,
) -> FactorAdjustment:
    """Factor adjustment of either kind, to lag max(m, min_lag).

    ``m`` is the kernel bandwidth; ``min_lag`` the deepest lag the VAR needs;
    ``acv_x``, when given, the panel's sample ACV to that lag.
    ``model_kind`` is "unrestricted" or "restricted"; another raises ``UsageError``.
    """
    if model_kind not in ("unrestricted", "restricted"):
        raise UsageError(f"unknown model kind {model_kind!r}")
    lag = max(m, min_lag)
    if lag > panel.n - 1:
        raise DimensionError(f"bandwidth/lag depth {lag} too large for n = {panel.n}")
    if model_kind == "restricted":
        return factor_adjust_restricted(panel, q, lag, acv_x)
    return factor_adjust_unrestricted(panel, q, lag, acv_x)
