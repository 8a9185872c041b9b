import numpy as np
import pytest

from conftest import make_panel
from fnets.errors import DimensionError, UsageError
from fnets.panel import AcvSequence, sample_acv
from fnets.spectral import (
    bartlett_spectral_density,
    default_bandwidth,
    factor_adjust,
    factor_adjust_restricted,
    factor_adjust_unrestricted,
    fourier_frequencies,
    spectral_matrices,
)
from oracles import (
    hermitian_embedding_eigvals,
    naive_acv,
    naive_factor_adjust,
    naive_spectral,
)


def scalar_acv(values):
    arr = np.array(values, dtype=float).reshape(-1, 1, 1)
    return AcvSequence(arr)


class TestDefaultBandwidth:
    def test_reference_sizes(self):
        # floor(4 (n / ln n)^(1/3)) evaluated directly
        for n in (200, 500, 1000):
            expect = int(np.floor(4.0 * (n / np.log(n)) ** (1 / 3)))
            assert default_bandwidth(n) == expect
        assert default_bandwidth(500) == 17
        assert default_bandwidth(200) == 13

    def test_clamped_small_n(self):
        assert default_bandwidth(3) == 2

    def test_rejects_tiny_n(self):
        with pytest.raises(DimensionError):
            default_bandwidth(2)


class TestBartlett:
    def test_white_noise_flat_spectrum(self):
        acv = scalar_acv([1.0, 0.0, 0.0, 0.0])
        mats = spectral_matrices(acv, 3)
        assert mats.shape == (4, 1, 1)  # the half grid w_0..w_3
        assert np.allclose(mats, 1.0 / (2 * np.pi))

    def test_bandwidth_one_kernel_endpoint(self):
        acv = scalar_acv([2.0, 0.7])
        assert np.allclose(spectral_matrices(acv, 1), 2.0 / (2 * np.pi))

    def test_scalar_fourier_sum(self):
        acv = scalar_acv([1.0, 0.5, 0.0])
        at_zero = spectral_matrices(acv, 2)[0][0, 0]  # frequency index k = 0
        assert at_zero == pytest.approx(1.5 / (2 * np.pi), abs=1e-12)

    def test_matches_naive_sum(self, rng):
        for p, n, m in ((3, 60, 6), (40, 200, 17)):
            x = rng.standard_normal((p, n))
            acv = sample_acv(make_panel(x), m)
            mats = spectral_matrices(acv, m)
            acvs = list(acv.matrices)
            freqs = fourier_frequencies(m)
            assert np.allclose(freqs, 2 * np.pi * np.arange(m + 1) / (2 * m + 1))
            for k, omega in enumerate(freqs):
                ref = naive_spectral(acvs, m, omega)
                assert np.max(np.abs(mats[k] - ref)) <= 1e-12

    def test_insufficient_lags(self):
        acv = scalar_acv([1.0, 0.5])
        with pytest.raises(DimensionError):
            bartlett_spectral_density(acv, 2)

    def test_invariants_random_panels(self, rng):
        for _ in range(100):
            p = int(rng.integers(1, 5))
            n = int(rng.integers(10, 40))
            x = rng.standard_normal((p, n))
            m = min(default_bandwidth(n), n - 1)
            acv = sample_acv(make_panel(x), m)
            mats = spectral_matrices(acv, m)
            vals, vecs = bartlett_spectral_density(acv, m)
            assert vals.shape == (m + 1, p) and vecs.shape == (m + 1, p, p)
            herm = np.max(np.abs(mats - np.conj(np.transpose(mats, (0, 2, 1)))))
            assert herm <= 1e-10
            assert vals.min() >= -1e-8
            assert np.all(np.diff(vals, axis=1) <= 1e-12)
            gram = np.einsum("kij,kil->kjl", np.conj(vecs), vecs)
            assert np.max(np.abs(gram - np.eye(p))) <= 1e-8

    def test_eigensolver_against_embedding(self, rng):
        for _ in range(25):
            p = int(rng.integers(2, 9))
            a = rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p))
            h = (a + np.conj(a.T)) / 2.0
            vals = np.linalg.eigvalsh(h)
            doubled = hermitian_embedding_eigvals(h)
            assert np.max(np.abs(np.repeat(vals, 2) - doubled)) <= 1e-9
            w, v = np.linalg.eigh(h)
            recon = (v * w) @ np.conj(v.T)
            assert np.max(np.abs(recon - h)) <= 1e-9


class TestDynamicPca:
    def test_full_rank_reconstruction(self, rng):
        x = rng.standard_normal((4, 50))
        acv = sample_acv(make_panel(x), 5)
        vals, vecs = bartlett_spectral_density(acv, 5)
        recon = (vecs * vals[:, None, :]) @ np.conj(vecs.transpose(0, 2, 1))
        assert np.max(np.abs(recon - spectral_matrices(acv, 5))) <= 1e-10

    def test_leading_eigenpair_diagonal(self):
        acv = AcvSequence(np.array([np.diag([3.0, 1.0]), np.zeros((2, 2))]))
        vals, vecs = bartlett_spectral_density(acv, 1)
        assert np.allclose(vals, np.array([3.0, 1.0]) / (2 * np.pi))
        assert np.allclose(np.abs(vecs[:, :, 0]), [1.0, 0.0])

    def test_too_many_factors(self, rng):
        panel = make_panel(rng.standard_normal((2, 20)))
        with pytest.raises(DimensionError):
            factor_adjust_unrestricted(panel, 3, 3)


class TestInverseFt:
    def test_constant_spectrum(self, rng):
        # At bandwidth 1 the kernel keeps only lag 0, so the spectrum is
        # G(0) / 2pi at every frequency and its inverse has no lag-1 part.
        panel = make_panel(rng.standard_normal((2, 40)))
        fa = factor_adjust_unrestricted(panel, 2, 1)
        assert np.max(np.abs(fa.acv_chi.at(0) - fa.acv_x.at(0))) <= 1e-12
        assert np.max(np.abs(fa.acv_chi.at(1))) <= 1e-12


class TestFactorAdjust:
    def test_unknown_model_kind_rejected(self, rng):
        panel = make_panel(rng.standard_normal((3, 50)))
        with pytest.raises(UsageError, match="unknown model kind 'static'"):
            factor_adjust(panel, "static", 1, 4, 1)

    def test_unrestricted_q_zero(self, rng):
        panel = make_panel(rng.standard_normal((3, 50)))
        fa = factor_adjust_unrestricted(panel, 0, 4)
        assert np.max(np.abs(fa.acv_xi.matrices - fa.acv_x.matrices)) == 0.0

    def test_unrestricted_full_q_leaves_kernel_complement(self, rng):
        panel = make_panel(rng.standard_normal((3, 60)))
        m = 5
        fa = factor_adjust_unrestricted(panel, 3, m)
        for lag in range(m + 1):
            w = 1.0 - lag / m
            expect = (1.0 - w) * fa.acv_x.at(lag)
            assert np.max(np.abs(fa.acv_xi.at(lag) - expect)) <= 1e-9
        assert np.max(np.abs(fa.acv_xi.at(0))) <= 1e-9

    def test_pipeline_decomposition_oracle(self, rng):
        # Against dynamic PCA over the full grid, including q = 0 and q = p.
        for p, m, q in ((1, 2, 0), (1, 2, 1), (3, 1, 1), (3, 4, 0), (3, 4, 3),
                        (5, 7, 1), (5, 7, 2), (6, 5, 6)):
            x = rng.standard_normal((p, 80)) + rng.standard_normal((p, 1)) * rng.standard_normal(80)
            panel = make_panel(x, center=True)
            fa = factor_adjust_unrestricted(panel, q, m)
            ref = naive_factor_adjust([naive_acv(panel.values, lag) for lag in range(m + 1)], m, q)
            assert np.max(np.abs(fa.acv_chi.matrices - ref)) <= 1e-12
            # Stored as the difference, so this direction is exact.
            assert np.array_equal(fa.acv_xi.matrices, fa.acv_x.matrices - fa.acv_chi.matrices)

    def test_restricted_r_zero_and_full(self, rng):
        panel = make_panel(rng.standard_normal((4, 60)))
        none = factor_adjust_restricted(panel, 0, 3)
        assert np.max(np.abs(none.acv_xi.matrices - none.acv_x.matrices)) == 0.0
        full = factor_adjust_restricted(panel, 4, 3)
        assert np.max(np.abs(full.acv_xi.matrices)) <= 1e-10

    def test_restricted_xi_is_residual_series_acv(self, rng):
        panel = make_panel(rng.standard_normal((5, 80)), center=True)
        fa = factor_adjust_restricted(panel, 2, 3)
        lead = np.linalg.eigh(fa.acv_x.at(0))[1][:, ::-1][:, :2]
        resid = panel.values - lead @ (lead.T @ panel.values)
        for lag in range(4):
            assert np.max(np.abs(fa.acv_xi.at(lag) - naive_acv(resid, lag))) <= 1e-12

    def test_restricted_hand_projection(self):
        # Uncorrelated rows with variances 4 and 1: the leading static
        # eigenvector is the first axis, so the projector is diag(1, 0).
        x = np.array([[2.0, -2.0] * 4, [1.0, 1.0, -1.0, -1.0] * 2])
        assert np.array_equal(naive_acv(x, 0), np.diag([4.0, 1.0]))
        fa = factor_adjust_restricted(make_panel(x), 1, 1)
        keep = np.diag([1.0, 0.0])
        assert np.max(np.abs(fa.acv_chi.at(0) - np.diag([4.0, 0.0]))) <= 1e-12
        assert np.max(np.abs(fa.acv_chi.at(1) - keep @ naive_acv(x, 1) @ keep)) <= 1e-12

    def test_restricted_projection_explicit_values(self):
        vec = np.array([2.0, 1.0]) / np.sqrt(5.0)
        x = np.outer(vec, [3.0, -1.0, 2.0, -4.0, 1.0, -1.0])
        panel = make_panel(x)
        fa = factor_adjust_restricted(panel, 1, 1)
        assert np.max(np.abs(fa.acv_xi.matrices)) <= 1e-12
