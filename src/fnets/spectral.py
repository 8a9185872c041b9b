"""Bartlett-kernel spectral density estimation and factor adjustment.

The factor-driven component is removed in the frequency domain: smooth the
sample autocovariances into spectral density matrices on the Fourier grid,
keep the leading eigenpairs at every frequency, transform back, and subtract.
A time-domain variant projects on the leading eigenvectors of the lag-0
covariance instead, for the restricted (static) factor model.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NumericalError
from .panel import AcvSequence, TimeSeriesPanel, sample_acv, _frozen


@dataclass(frozen=True)
class SpectralEstimate:
    """Spectral density matrices on the 2m+1 Fourier frequencies.

    ``matrices[k]`` is the Hermitian estimate at frequency ``frequencies[k]``;
    eigenvalues are stored in descending order with matching eigenvector
    columns, phase-fixed so the largest-modulus component is real positive.
    The pairs at -w mirror those at w: equal eigenvalues, conjugate vectors.
    """

    bandwidth_m: int
    frequencies: np.ndarray  # (2m+1,)
    matrices: np.ndarray  # (2m+1, p, p) complex
    eigenvalues: np.ndarray  # (2m+1, p) descending
    eigenvectors: np.ndarray  # (2m+1, p, p) columns

    @property
    def p(self) -> int:
        return self.matrices.shape[1]


@dataclass(frozen=True)
class FactorAdjustment:
    """Autocovariance triple (observed, common, idiosyncratic); spectra are not kept."""

    q_or_r: int
    model_kind: str  # "unrestricted" | "restricted"
    acv_x: AcvSequence
    acv_chi: AcvSequence
    acv_xi: AcvSequence
    static_eigvecs: np.ndarray | None = None  # (p, r), restricted only

    @property
    def p(self) -> int:
        return self.acv_x.p


def default_bandwidth(n: int) -> int:
    """Kernel bandwidth floor(4 (n / log n)^(1/3)), clamped to [1, n-1]."""
    if n <= 2:
        raise DimensionError(f"bandwidth rule needs n >= 3, got {n}")
    m = math.floor(4.0 * (n / math.log(n)) ** (1.0 / 3.0))
    return max(1, min(m, n - 1))


def fourier_frequencies(m: int) -> np.ndarray:
    """The grid 2*pi*k/(2m+1) for k = -m..m."""
    k = np.arange(-m, m + 1)
    return 2.0 * np.pi * k / (2 * m + 1)


def spectral_matrices(acv: AcvSequence, m: int) -> np.ndarray:
    """Bartlett-smoothed spectral density matrices, stacked over the grid.

    Sigma(w) = [G(0) + sum_l w_l (cos(lw) (G_l + G_l') + i sin(lw) (G_l' - G_l))]
    / 2pi, as two real products over lags, for w >= 0 only; the negative
    half of the grid is its conjugate mirror.
    """
    if m < 1:
        raise DimensionError("bandwidth must be positive")
    if acv.max_lag < m:
        raise DimensionError(
            f"need autocovariances up to lag {m}, have {acv.max_lag}"
        )
    p = acv.p
    lags = np.arange(1, m)  # the kernel weight vanishes at lag m
    g = (1.0 - lags / m)[:, None, None] * acv.matrices[1:m]
    gt = g.transpose(0, 2, 1)
    arg = np.outer(fourier_frequencies(m)[m:], lags)
    real = np.cos(arg) @ (g + gt).reshape(m - 1, p * p) + acv.at(0).ravel()
    imag = np.sin(arg) @ (gt - g).reshape(m - 1, p * p)
    half = (real + 1j * imag).reshape(m + 1, p, p) / (2.0 * np.pi)
    return np.concatenate([np.conj(half[:0:-1]), half])


def _fix_phase(vecs: np.ndarray) -> np.ndarray:
    """Rotate each eigenvector so its largest-modulus entry is real positive."""
    idx = np.argmax(np.abs(vecs), axis=-2)[..., None, :]
    pivot = np.take_along_axis(vecs, idx, axis=-2)
    mod = np.abs(pivot)
    mod[mod == 0.0] = 1.0
    return vecs * (np.conj(pivot) / mod)


def bartlett_spectral_density(acv: AcvSequence, m: int) -> SpectralEstimate:
    """Estimate the spectral density and eigendecompose it on w >= 0.

    Sigma(-w) = conj Sigma(w), so the pairs at -w are mirrored from those at
    w; conjugation keeps the phase convention.
    """
    mats = spectral_matrices(acv, m)
    vals, vecs = np.linalg.eigh(mats[m:])
    vals = vals[:, ::-1]
    vecs = _fix_phase(vecs[:, :, ::-1])
    return SpectralEstimate(
        bandwidth_m=m,
        frequencies=_frozen(fourier_frequencies(m)),
        matrices=mats,
        eigenvalues=np.concatenate([vals[:0:-1], vals]),
        eigenvectors=np.concatenate([np.conj(vecs[:0:-1]), vecs]),
    )


def dynamic_pca_common(spec: SpectralEstimate, q: int) -> SpectralEstimate:
    """Rank-q reconstruction of the spectral density from its leading eigenpairs."""
    p = spec.p
    if q < 0 or q > p:
        raise DimensionError(f"factor number {q} outside 0..{p}")
    vals = spec.eigenvalues.copy()
    vals[:, q:] = 0.0
    v = spec.eigenvectors[:, :, :q]
    mats = (v * vals[:, None, :q]) @ np.conj(v.transpose(0, 2, 1))
    return SpectralEstimate(
        bandwidth_m=spec.bandwidth_m,
        frequencies=spec.frequencies,
        matrices=mats,
        eigenvalues=vals,
        eigenvectors=spec.eigenvectors,
    )


def inverse_ft_acv(spec: SpectralEstimate, label: str = "chi") -> AcvSequence:
    """Invert the finite Fourier transform back to autocovariances at lags 0..m."""
    m = spec.bandwidth_m
    n_freq, p = spec.matrices.shape[:2]
    phases = np.exp(1j * np.arange(m + 1)[:, None] * spec.frequencies[None, :])
    mats = (phases @ spec.matrices.reshape(n_freq, -1)).reshape(m + 1, p, p) * (
        2.0 * np.pi / (2 * m + 1)
    )
    residue = float(np.max(np.abs(mats.imag))) if mats.size else 0.0
    if residue > 1e-6:
        raise NumericalError(
            f"inverse transform left imaginary residue {residue:.3e}"
        )
    return AcvSequence(label, m, mats.real)


def factor_adjust_unrestricted(
    panel: TimeSeriesPanel, q: int, m: int | None = None
) -> FactorAdjustment:
    """Frequency-domain factor adjustment with q dynamic factors."""
    if m is None:
        m = default_bandwidth(panel.n)
    if q < 0 or q > panel.p:
        raise DimensionError(f"factor number {q} outside 0..{panel.p}")
    acv_x = sample_acv(panel, m)
    spec_chi = dynamic_pca_common(bartlett_spectral_density(acv_x, m), q)
    acv_chi = inverse_ft_acv(spec_chi, "chi")
    acv_xi = AcvSequence("xi", m, acv_x.matrices - acv_chi.matrices)
    return FactorAdjustment(
        q_or_r=q,
        model_kind="unrestricted",
        acv_x=acv_x,
        acv_chi=acv_chi,
        acv_xi=acv_xi,
    )


def factor_adjust_restricted(
    panel: TimeSeriesPanel, r: int, max_lag: int
) -> FactorAdjustment:
    """Time-domain factor adjustment projecting on r static eigenvectors."""
    if r < 0 or r > panel.p:
        raise DimensionError(f"factor number {r} outside 0..{panel.p}")
    if max_lag < 1 or max_lag > panel.n - 1:
        raise DimensionError(f"max_lag {max_lag} outside 1..{panel.n - 1}")
    acv_x = sample_acv(panel, max_lag)
    cov = acv_x.at(0)
    _, vecs = np.linalg.eigh((cov + cov.T) / 2.0)
    vecs = _fix_phase(vecs[:, ::-1].astype(complex)).real
    lead_vecs = vecs[:, :r]
    proj = lead_vecs @ lead_vecs.T
    chi = proj @ acv_x.matrices @ proj
    acv_chi = AcvSequence("chi", max_lag, chi)
    acv_xi = AcvSequence("xi", max_lag, acv_x.matrices - chi)
    return FactorAdjustment(
        q_or_r=r,
        model_kind="restricted",
        acv_x=acv_x,
        acv_chi=acv_chi,
        acv_xi=acv_xi,
        static_eigvecs=lead_vecs,
    )


def factor_adjust(
    panel: TimeSeriesPanel, model_kind: str, q: int, m: int, min_lag: int
) -> FactorAdjustment:
    """Factor adjustment of either kind, to lag max(m, min_lag).

    ``m`` is the kernel bandwidth; ``min_lag`` the deepest lag the VAR needs.
    """
    lag = max(m, min_lag)
    if lag > panel.n - 1:
        raise DimensionError(f"bandwidth/lag depth {lag} too large for n = {panel.n}")
    if model_kind == "restricted":
        return factor_adjust_restricted(panel, q, lag)
    return factor_adjust_unrestricted(panel, q, lag)
