import tracemalloc

import numpy as np
import pytest

from conftest import make_panel
from fnets import factor_number, spectral
from fnets.errors import DimensionError, UsageError
from fnets.panel import AcvSequence, sample_acv
from fnets.simulate import SimSpec, sim_unrestricted, sim_var
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


def common_spectrum(vals, vecs):
    return (vecs * vals[:, None, :]) @ np.conj(vecs.transpose(0, 2, 1))


def gapped_stack(rng, p, count, lead):
    """Hermitian stack with leading eigenvalues ``lead`` over a bulk in [0.5, 1],
    real at index 0 and rotating slowly with the index, as a spectrum does."""
    vals = np.concatenate([lead, rng.uniform(0.5, 1.0, p - len(lead))])
    basis = np.linalg.qr(rng.standard_normal((p, p)))[0].astype(complex)
    a = rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p))
    w, v = np.linalg.eigh(0.05 * (a + np.conj(a.T)))
    rot = (v * np.exp(1j * w)) @ np.conj(v.T)  # exp(0.05i H) is unitary
    stack = []
    for _ in range(count):
        stack.append((basis * vals) @ np.conj(basis.T))
        basis = rot @ basis
    return np.array(stack)


@pytest.fixture(scope="module")
def wide_panel():
    """A simulated factor panel above the iteration's crossover in p."""
    spec = SimSpec(n=300, p=120, q=2, seed=5)
    assert spec.p >= spectral._ITERATIVE_MIN_P
    return make_panel(sim_var(spec).data + sim_unrestricted(spec), center=True)


class TestLeadingPairs:
    @pytest.mark.parametrize("q", (1, 2, 4))
    def test_gapped_stacks_match_eigh(self, rng, q, monkeypatch):
        eigh = np.linalg.eigh
        for p in (30, 100):
            stack = gapped_stack(rng, p, 8, np.linspace(40.0, 10.0, q))
            full = []
            monkeypatch.setattr(
                np.linalg, "eigh", lambda a: full.append(a.shape[-1] == p) or eigh(a)
            )
            vals, vecs = spectral._leading_pairs(stack, q)
            monkeypatch.undo()
            assert sum(full) == 1  # only the start: no frequency fell back
            full_vals, full_vecs = np.linalg.eigh(stack)
            ref = common_spectrum(full_vals[:, ::-1][:, :q], full_vecs[:, :, ::-1][:, :, :q])
            got = common_spectrum(vals, vecs)
            assert np.max(np.abs(got - ref)) <= 1e-9 * np.max(np.abs(ref))
            assert np.allclose(vals, full_vals[:, ::-1][:, :q], rtol=1e-12, atol=0.0)

    def test_panel_matches_eigh_and_oracle(self, wide_panel, monkeypatch):
        calls = []
        leading = spectral._leading_pairs
        monkeypatch.setattr(
            spectral, "_leading_pairs", lambda s, q: calls.append(q) or leading(s, q)
        )
        m = default_bandwidth(wide_panel.n)
        fa = factor_adjust_unrestricted(wide_panel, 2, m)
        assert calls == [2]
        vals, vecs = bartlett_spectral_density(fa.acv_x, m)
        got = common_spectrum(*leading(spectral_matrices(fa.acv_x, m), 2))
        ref = common_spectrum(vals[:, :2], vecs[:, :, :2])
        assert np.max(np.abs(got - ref)) <= 1e-9 * np.max(np.abs(ref))
        oracle = naive_factor_adjust(list(fa.acv_x.matrices), m, 2)
        scale = np.max(np.abs(oracle))
        assert np.max(np.abs(fa.acv_chi.matrices - oracle)) <= 1e-9 * scale

    def test_q_zero_above_crossover(self, wide_panel, monkeypatch):
        monkeypatch.setattr(spectral, "_leading_pairs", None)  # must not be called
        fa = factor_adjust_unrestricted(wide_panel, 0, 6)
        assert np.max(np.abs(fa.acv_chi.matrices)) == 0.0
        assert np.array_equal(fa.acv_xi.matrices, fa.acv_x.matrices)

    def test_repeat_calls_bit_identical(self, wide_panel):
        first = factor_adjust_unrestricted(wide_panel, 2, 8)
        second = factor_adjust_unrestricted(wide_panel, 2, 8)
        assert np.array_equal(first.acv_chi.matrices, second.acv_chi.matrices)

    def test_no_gap_falls_back_to_eigh(self, rng, monkeypatch):
        # lambda_2 to lambda_5 within 0.2% of each other: the block of q + 2
        # columns converges like lambda_5 / lambda_2, too slowly for the sweep
        # cap, so index 1 and every index after it take the full eigh.
        stack = gapped_stack(rng, 100, 6, np.array([40.0, 20.0, 19.99, 19.98, 19.97]))
        full = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(
            np.linalg, "eigh", lambda a: full.append(a.shape[-1] == 100) or eigh(a)
        )
        vals, vecs = spectral._leading_pairs(stack, 2)
        assert sum(full) == 1 + 5  # the start at index 0, then indices 1..5
        monkeypatch.undo()
        ref_vals, ref_vecs = np.linalg.eigh(stack[1:])
        assert np.array_equal(vals[1:], ref_vals[:, ::-1][:, :2])
        assert np.array_equal(vecs[1:], ref_vecs[:, :, ::-1][:, :, :2])

    def test_below_crossover_is_full_eigh_reconstruction(self, rng):
        p, m, q = 20, 7, 2
        assert p < spectral._ITERATIVE_MIN_P
        x = rng.standard_normal((p, 200)) + rng.standard_normal((p, 1)) * rng.standard_normal(200)
        panel = make_panel(x, center=True)
        fa = factor_adjust_unrestricted(panel, q, m)
        vals, vecs = bartlett_spectral_density(sample_acv(panel, m), m)
        common = common_spectrum(vals[:, :q], vecs[:, :, :q]).reshape(m + 1, p * p)
        k = np.arange(m + 1)
        arg = np.outer(k, fourier_frequencies(m))
        weight = np.where(k == 0, 1.0, 2.0) * (2.0 * np.pi / (2 * m + 1))
        chi = (np.cos(arg) * weight) @ common.real - (np.sin(arg) * weight) @ common.imag
        assert np.array_equal(fa.acv_chi.matrices, chi.reshape(m + 1, p, p))


class TestSpectralMemory:
    """The spectral layer holds the ACV stacks plus one block of frequencies:
    traced peaks above the inputs, in real ACV stacks of (m+1) p^2 doubles."""

    @pytest.fixture(scope="class")
    def panel_acv(self):
        spec = SimSpec(n=500, p=100, q=2, seed=3)
        panel = make_panel(sim_var(spec).data + sim_unrestricted(spec), center=True)
        assert panel.p >= spectral._ITERATIVE_MIN_P
        return panel, sample_acv(panel, default_bandwidth(panel.n))

    @staticmethod
    def peak_stacks(acv, call):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            call()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        return peak / acv.matrices.nbytes

    def test_eigenvalue_summary(self, panel_acv):
        _, acv = panel_acv
        call = lambda: factor_number.eigenvalue_summary(acv, acv.max_lag)  # noqa: E731
        assert self.peak_stacks(acv, call) <= 1.5

    def test_factor_adjust_with_its_two_output_stacks(self, panel_acv):
        panel, acv = panel_acv
        call = lambda: factor_adjust_unrestricted(panel, 2, acv.max_lag, acv)  # noqa: E731
        assert self.peak_stacks(acv, call) <= 3.0
