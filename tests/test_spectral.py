import numpy as np
import pytest

from conftest import make_panel
from fnets.errors import DimensionError
from fnets.panel import AcvSequence, sample_acv
from fnets.spectral import (
    bartlett_spectral_density,
    default_bandwidth,
    dynamic_pca_common,
    factor_adjust_restricted,
    factor_adjust_unrestricted,
    fourier_frequencies,
    inverse_ft_acv,
)
from oracles import hermitian_embedding_eigvals, naive_spectral


def scalar_acv(values):
    arr = np.array(values, dtype=float).reshape(-1, 1, 1)
    return AcvSequence("x", arr.shape[0] - 1, arr)


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
        spec = bartlett_spectral_density(acv, 3)
        assert np.allclose(spec.matrices, 1.0 / (2 * np.pi))

    def test_bandwidth_one_kernel_endpoint(self):
        acv = scalar_acv([2.0, 0.7])
        spec = bartlett_spectral_density(acv, 1)
        assert np.allclose(spec.matrices, 2.0 / (2 * np.pi))

    def test_scalar_fourier_sum(self):
        acv = scalar_acv([1.0, 0.5, 0.0])
        spec = bartlett_spectral_density(acv, 2)
        at_zero = spec.matrices[2][0, 0]  # frequency index k = 0
        assert at_zero == pytest.approx(1.5 / (2 * np.pi), abs=1e-12)

    def test_matches_naive_sum(self, rng):
        for p, n, m in ((3, 60, 6), (40, 200, 17)):
            x = rng.standard_normal((p, n))
            acv = sample_acv(make_panel(x), m)
            spec = bartlett_spectral_density(acv, m)
            acvs = list(acv.matrices)
            for k, omega in enumerate(fourier_frequencies(m)):
                ref = naive_spectral(acvs, m, omega)
                assert np.max(np.abs(spec.matrices[k] - ref)) <= 1e-12

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
            spec = bartlett_spectral_density(sample_acv(make_panel(x), m), m)
            mats = spec.matrices
            herm = np.max(np.abs(mats - np.conj(np.transpose(mats, (0, 2, 1)))))
            assert herm <= 1e-10
            assert spec.eigenvalues.min() >= -1e-8
            flipped = np.conj(mats[::-1])
            assert np.max(np.abs(mats - flipped)) <= 1e-10
            assert np.all(np.diff(spec.eigenvalues, axis=1) <= 1e-12)
            vecs = spec.eigenvectors
            gram = np.einsum("kij,kil->kjl", np.conj(vecs), vecs)
            assert np.max(np.abs(gram - np.eye(p))) <= 1e-8
            # The pairs at -w are the conjugates of those at w.
            assert np.array_equal(spec.eigenvalues[::-1], spec.eigenvalues)
            assert np.array_equal(vecs[::-1], np.conj(vecs))

    def test_eigenvector_phase_deterministic(self, rng):
        x = rng.standard_normal((4, 50))
        spec = bartlett_spectral_density(sample_acv(make_panel(x), 5), 5)
        for k in range(spec.matrices.shape[0]):
            for j in range(4):
                v = spec.eigenvectors[k, :, j]
                pivot = v[np.argmax(np.abs(v))]
                assert abs(pivot.imag) <= 1e-12
                assert pivot.real > 0

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
    def test_zero_factors(self):
        acv = scalar_acv([1.0, 0.5, 0.2, 0.0])
        spec = bartlett_spectral_density(acv, 3)
        common = dynamic_pca_common(spec, 0)
        assert np.all(common.matrices == 0)

    def test_full_rank_reconstruction(self, rng):
        x = rng.standard_normal((4, 50))
        spec = bartlett_spectral_density(sample_acv(make_panel(x), 5), 5)
        common = dynamic_pca_common(spec, 4)
        assert np.max(np.abs(common.matrices - spec.matrices)) <= 1e-10

    def test_leading_eigenpair_diagonal(self):
        mats = np.tile(np.diag([3.0, 1.0]).astype(complex), (3, 1, 1))
        from fnets.spectral import SpectralEstimate

        vals = np.tile(np.array([3.0, 1.0]), (3, 1))
        vecs = np.tile(np.eye(2, dtype=complex), (3, 1, 1))
        spec = SpectralEstimate(1, fourier_frequencies(1), mats, vals, vecs)
        common = dynamic_pca_common(spec, 1)
        assert np.allclose(common.matrices, np.diag([3.0, 0.0]))

    def test_eigenvalue_prefix_property(self, rng):
        for _ in range(20):
            x = rng.standard_normal((4, 40))
            spec = bartlett_spectral_density(sample_acv(make_panel(x), 4), 4)
            q = int(rng.integers(0, 5))
            common = dynamic_pca_common(spec, q)
            if q > 0:
                assert np.max(np.abs(common.eigenvalues[:, :q] - spec.eigenvalues[:, :q])) <= 1e-9
            assert np.all(common.eigenvalues[:, q:] == 0)

    def test_too_many_factors(self, rng):
        spec = bartlett_spectral_density(
            sample_acv(make_panel(rng.standard_normal((2, 20))), 3), 3
        )
        with pytest.raises(DimensionError):
            dynamic_pca_common(spec, 3)


class TestInverseFt:
    def test_constant_spectrum(self):
        from fnets.spectral import SpectralEstimate

        m = 3
        c = np.array([[2.0, 0.5], [0.5, 1.0]], dtype=complex)
        mats = np.tile(c, (2 * m + 1, 1, 1))
        vals, vecs = np.linalg.eigh(mats)
        spec = SpectralEstimate(
            m, fourier_frequencies(m), mats, vals[:, ::-1], vecs[:, :, ::-1]
        )
        acv = inverse_ft_acv(spec)
        assert np.max(np.abs(acv.at(0) - 2 * np.pi * c.real)) <= 1e-10
        for lag in range(1, m + 1):
            assert np.max(np.abs(acv.at(lag))) <= 1e-10

    def test_round_trip_recovers_kernel_weighted_acv(self, rng):
        x = rng.standard_normal((3, 80))
        m = 5
        acv = sample_acv(make_panel(x), m)
        spec = bartlett_spectral_density(acv, m)
        back = inverse_ft_acv(dynamic_pca_common(spec, 3))
        for lag in range(m + 1):
            w = 1.0 - lag / m
            assert np.max(np.abs(back.at(lag) - w * acv.at(lag))) <= 1e-9

    def test_zero_spectrum(self):
        from fnets.spectral import SpectralEstimate

        m = 2
        mats = np.zeros((5, 2, 2), dtype=complex)
        spec = SpectralEstimate(
            m,
            fourier_frequencies(m),
            mats,
            np.zeros((5, 2)),
            np.tile(np.eye(2, dtype=complex), (5, 1, 1)),
        )
        acv = inverse_ft_acv(spec)
        assert np.all(acv.matrices == 0)

    def test_imaginary_residue_rejected(self):
        # Break conjugate symmetry across frequencies: the inverse transform
        # of a one-sided spike is genuinely complex.
        from fnets.errors import NumericalError
        from fnets.spectral import SpectralEstimate

        m = 2
        mats = np.zeros((5, 1, 1), dtype=complex)
        mats[4, 0, 0] = 1.0  # only the positive frequency carries mass
        spec = SpectralEstimate(
            m,
            fourier_frequencies(m),
            mats,
            np.zeros((5, 1)),
            np.ones((5, 1, 1), dtype=complex),
        )
        with pytest.raises(NumericalError):
            inverse_ft_acv(spec)


class TestFactorAdjust:
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
        panel = make_panel(rng.standard_normal((5, 200)), center=True)
        m = 7
        fa = factor_adjust_unrestricted(panel, 1, m)
        acv = sample_acv(panel, m)
        spec = bartlett_spectral_density(acv, m)
        common = dynamic_pca_common(spec, 1)
        chi = inverse_ft_acv(common)
        assert np.max(np.abs(fa.acv_chi.matrices - chi.matrices)) <= 1e-10
        # Stored as the difference, so this direction is exact.
        assert np.array_equal(fa.acv_xi.matrices, fa.acv_x.matrices - fa.acv_chi.matrices)
        assert np.max(np.abs(fa.acv_x.matrices - (fa.acv_chi.matrices + fa.acv_xi.matrices))) <= 1e-10

    def test_restricted_r_zero_and_full(self, rng):
        panel = make_panel(rng.standard_normal((4, 60)))
        none = factor_adjust_restricted(panel, 0, 3)
        assert np.max(np.abs(none.acv_xi.matrices - none.acv_x.matrices)) == 0.0
        full = factor_adjust_restricted(panel, 4, 3)
        assert np.max(np.abs(full.acv_xi.matrices)) <= 1e-10

    def test_restricted_hand_projection(self):
        # Axis-aligned eigenvectors: projector keeps the first coordinate only.
        mats = np.array([np.diag([4.0, 1.0]), np.eye(2)])
        acv = AcvSequence("x", 1, mats)
        from fnets.spectral import _fix_phase  # reuse the sign convention

        cov = acv.at(0)
        vals, vecs = np.linalg.eigh(cov)
        assert vals[::-1][0] == 4.0
        panel = make_panel(np.array([[1.0, -1.0, 1.0, -1.0], [0.5, -0.5, 0.5, -0.5]]))
        fa = factor_adjust_restricted(panel, 1, 1)
        proj = fa.static_eigvecs @ fa.static_eigvecs.T
        expect_chi = proj @ fa.acv_x.at(1) @ proj
        assert np.max(np.abs(fa.acv_chi.at(1) - expect_chi)) <= 1e-12

    def test_restricted_projection_explicit_values(self):
        vec = np.array([2.0, 1.0]) / np.sqrt(5.0)
        x = np.outer(vec, [3.0, -1.0, 2.0, -4.0, 1.0, -1.0])
        panel = make_panel(x)
        fa = factor_adjust_restricted(panel, 1, 1)
        assert np.max(np.abs(fa.acv_xi.matrices)) <= 1e-12
