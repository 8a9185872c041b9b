import numpy as np
import pytest

from conftest import make_panel
from fnets.errors import DimensionError
from fnets.forecast import (
    CommonPredictor,
    combine_forecasts,
    common_predictor,
    forecast_common_restricted,
    forecast_idio,
)
from fnets.panel import AcvSequence, TimeSeriesPanel
from fnets.simulate import SimSpec, sim_var
from fnets.spectral import factor_adjust_restricted, factor_adjust_unrestricted
from fnets.var import VarFit


class TestCommonRestricted:
    def test_full_rank_projection_is_identity(self, rng):
        x = rng.standard_normal((3, 40))
        panel = make_panel(x, center=True)
        fa = factor_adjust_restricted(panel, 3, 2)
        pred = common_predictor(fa.acv_chi, 3, 2)
        insample, fc = forecast_common_restricted(pred, panel, 0)
        assert np.max(np.abs(insample - panel.values)) <= 1e-10
        assert fc.shape == (0, 3)
        assert pred.r_used == 3

    def test_projection_identity_restricted_pipeline(self, rng):
        # Gamma_chi(0) E M^-1 E' equals the plain projector E E'.
        x = rng.standard_normal((5, 100))
        panel = make_panel(x, center=True)
        fa = factor_adjust_restricted(panel, 2, 3)
        cov0 = fa.acv_chi.at(0)
        vals, vecs = np.linalg.eigh(cov0)
        vals, vecs = vals[::-1][:2], vecs[:, ::-1][:, :2]
        lhs = cov0 @ vecs @ np.diag(1.0 / vals) @ vecs.T
        assert np.max(np.abs(lhs - vecs @ vecs.T)) <= 1e-9

    def test_zero_cross_covariance_forecasts_zero(self):
        mats = np.stack([np.diag([4.0, 1.0]), np.zeros((2, 2))])
        acv = AcvSequence(mats)
        panel = make_panel(np.array([[1.0, 2.0], [0.5, -0.5]]))
        _, fc = forecast_common_restricted(common_predictor(acv, 2, 1), panel, 1)
        assert np.max(np.abs(fc)) == 0.0

    def test_hand_axis_aligned_case(self):
        mats = np.stack([np.diag([4.0, 0.0]), np.array([[2.0, 0.0], [0.0, 0.0]])])
        acv = AcvSequence(mats)
        panel = make_panel(np.array([[0.0, 1.0], [0.0, 0.0]]))
        pred = common_predictor(acv, 1, 1)
        _, fc = forecast_common_restricted(pred, panel, 1)
        assert pred.r_used == 1
        assert fc[0] == pytest.approx([0.5, 0.0])

    def test_near_zero_eigenvalues_dropped_with_warning(self, rng):
        vec = rng.standard_normal(4)
        x = np.outer(vec, rng.standard_normal(50))
        panel = make_panel(x, center=True)
        fa = factor_adjust_restricted(panel, 2, 2)
        pred = common_predictor(fa.acv_chi, 2, 2)
        forecast_common_restricted(pred, panel, 1)
        assert pred.r_used == 1
        assert pred.rank_warning is not None

    def test_horizon_beyond_lags(self, rng):
        panel = make_panel(rng.standard_normal((2, 30)))
        fa = factor_adjust_restricted(panel, 1, 2)
        with pytest.raises(DimensionError):
            forecast_common_restricted(common_predictor(fa.acv_chi, 1, 2), panel, 3)
        with pytest.raises(DimensionError):
            common_predictor(fa.acv_chi, 1, 3)


class TestIdioForecast:
    def test_one_step_single_lag(self):
        a1 = np.array([[0.5, 0.1], [0.0, 0.3]])
        fit = VarFit(order=1, beta=a1.T, method="lasso", lam=0.1)
        xi = np.array([[1.0, 2.0], [0.0, -1.0]])
        fc = forecast_idio(fit, xi, 1)
        assert np.allclose(fc[0], a1 @ xi[:, -1])

    def test_two_step_composes(self):
        a1 = np.array([[0.5, 0.1], [0.2, 0.3]])
        fit = VarFit(order=1, beta=a1.T, method="lasso", lam=0.1)
        xi = np.array([[1.0, 2.0], [0.0, -1.0]])
        fc = forecast_idio(fit, xi, 2)
        assert np.allclose(fc[1], a1 @ a1 @ xi[:, -1], atol=1e-12)

    def test_scalar_two_lags(self):
        beta = np.array([[0.5], [0.25]])  # lags stacked: A1 = 0.5, A2 = 0.25
        fit = VarFit(order=2, beta=beta, method="lasso", lam=0.1)
        xi = np.array([[2.0, 1.0]])  # xi_{n-1} = 2, xi_n = 1
        fc = forecast_idio(fit, xi, 1)
        assert fc[0, 0] == pytest.approx(0.5 * 1.0 + 0.25 * 2.0)

    def test_stable_var_decays(self):
        hits = 0
        for seed in range(20):
            sim = sim_var(SimSpec(n=100, p=5, q=0, var_order=1, seed=seed))
            comp = np.max(np.abs(np.linalg.eigvals(sim.a_matrices[0])))
            if comp >= 1:
                continue
            fit = VarFit(order=1, beta=sim.a_matrices[0].T, method="lasso", lam=0.1)
            fc = forecast_idio(fit, sim.data, 50)
            if np.linalg.norm(fc[49]) <= np.linalg.norm(fc[0]) + 1e-12:
                hits += 1
        assert hits >= 18

    def test_horizon_must_be_positive(self):
        fit = VarFit(order=1, beta=np.zeros((2, 2)), method="lasso", lam=0.1)
        with pytest.raises(DimensionError):
            forecast_idio(fit, np.zeros((2, 5)), 0)


def rank_zero(p, depth=1):
    return CommonPredictor(np.zeros((p, 0)), np.zeros(0), np.zeros((depth, p, 0)))


class TestCombine:
    def test_mean_only(self):
        panel = TimeSeriesPanel(np.zeros((2, 5)), np.array([3.0, 4.0]))
        out = combine_forecasts(np.zeros((1, 2)), np.zeros((1, 2)), rank_zero(2), panel)
        assert out.forecast.tolist() == [[3.0, 4.0]]

    def test_exact_reassembly(self, rng):
        cfc = rng.standard_normal((2, 3))
        ifc = rng.standard_normal((2, 3))
        mean = rng.standard_normal(3)
        panel = TimeSeriesPanel(np.zeros((3, 10)), mean)
        out = combine_forecasts(cfc, ifc, rank_zero(3), panel)
        assert np.array_equal(out.forecast, cfc + ifc + mean[None, :])
        assert out.horizon == 2

    def test_shape_mismatch(self):
        panel = TimeSeriesPanel(np.zeros((2, 5)), np.zeros(2))
        with pytest.raises(DimensionError):
            combine_forecasts(np.zeros((1, 2)), np.zeros((2, 2)), rank_zero(2), panel)

    def test_insample_split_computed_when_read(self, rng):
        # A forecast keeps no p x n array until its in-sample parts are read.
        x = rng.standard_normal((4, 60))
        panel = TimeSeriesPanel(x - x.mean(1, keepdims=True), x.mean(1))
        pred = common_predictor(factor_adjust_restricted(panel, 2, 2).acv_chi, 2, 2)
        out = combine_forecasts(np.zeros((1, 4)), np.zeros((1, 4)), pred, panel)
        assert "common_insample" not in vars(out) and "idio_insample" not in vars(out)
        insample, _ = forecast_common_restricted(pred, panel, 0)
        assert np.array_equal(out.common_insample, insample)
        assert np.array_equal(out.idio_insample, panel.values - insample)


class TestShiftEquivariance:
    def test_constant_shift_moves_forecast_by_shift(self):
        from fnets import model as model_mod

        sim = sim_var(SimSpec(n=150, p=4, q=0, var_order=1, seed=9))
        base = make_panel(sim.data, center=True)
        shift = np.array([1.0, -2.0, 0.5, 3.0])
        shifted = make_panel(sim.data + shift[:, None], center=True)
        m1 = model_mod.fit(base, q=0, orders=(1,), lrpc=False)
        m2 = model_mod.fit(shifted, q=0, orders=(1,), lrpc=False)
        f1 = model_mod.predict_model(m1, 2)
        f2 = model_mod.predict_model(m2, 2)
        assert np.max(np.abs((f2.forecast - f1.forecast) - shift[None, :])) <= 1e-9
