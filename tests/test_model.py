import dataclasses
import functools
import json
import weakref

import numpy as np
import pytest

from conftest import make_panel
from fnets import factor_number, spectral, tuning
from fnets import model as model_mod
from fnets.errors import DataError, DimensionError, UsageError
from fnets.factor_number import select_factor_number_ic
from fnets.panel import TimeSeriesPanel, sample_acv
from fnets.precision import PrecisionFit
from fnets.simulate import SimSpec, metrics, sim_restricted, sim_unrestricted, sim_var
from fnets.spectral import default_bandwidth, factor_adjust, spectral_matrices
from fnets.var import YuleWalkerSystem, build_yule_walker
from oracles import per_window_select_factor_number_ic


@pytest.fixture(scope="module")
def small_model():
    spec = SimSpec(n=220, p=6, q=1, seed=21)
    x = sim_var(spec).data + sim_unrestricted(spec)
    panel = make_panel(x, center=True)
    return model_mod.fit(panel, q=1, orders=(1, 2), lrpc=True, input_path="panel.csv")


@pytest.fixture(scope="module")
def ranked_model():
    """Like ``small_model`` but with a common-component predictor of rank 1."""
    spec = SimSpec(n=220, p=6, q=1, seed=3)
    x = sim_var(spec).data + sim_unrestricted(spec)
    return model_mod.fit(make_panel(x, center=True), q=1, orders=(1, 2), lrpc=True)


class TestFit:
    def test_report_fields(self, small_model):
        text = model_mod.report(small_model)
        for label in ("Factor number:", "VAR order:", "Non-zero entries:", "LRPC:"):
            assert label in text

    def test_invalid_method(self):
        panel = make_panel(np.random.default_rng(0).standard_normal((4, 60)))
        with pytest.raises(UsageError):
            model_mod.fit(panel, q=0, method="ridge")

    def test_invalid_order(self):
        panel = make_panel(np.random.default_rng(0).standard_normal((4, 60)))
        with pytest.raises(UsageError):
            model_mod.fit(panel, q=0, orders=(0,))

    def test_fixed_threshold_recorded(self):
        panel = make_panel(np.random.default_rng(3).standard_normal((4, 80)))
        fitted = model_mod.fit(panel, q=0, orders=(1,), threshold=0.05, lrpc=False)
        assert fitted.var_fit.threshold == 0.05

    def test_forecast_rank_unrestricted(self, small_model):
        expect = select_factor_number_ic(small_model.panel, "restricted").q_hat
        assert small_model.r_forecast == expect

    def test_forecast_rank_restricted_and_zero(self):
        spec = SimSpec(n=200, p=6, q=1, seed=5)
        panel = make_panel(sim_var(spec).data + sim_restricted(spec), center=True)
        restricted = model_mod.fit(panel, restricted=True, q=1, lrpc=False)
        assert restricted.r_forecast == 1
        var_only = model_mod.fit(panel, q=0, lrpc=False)
        assert var_only.r_forecast == 0

    def test_constant_series_is_data_error(self, monkeypatch):
        spec = SimSpec(n=300, p=20, seed=1)
        x = sim_var(spec).data + sim_unrestricted(spec)
        x[5] = 3.0
        panel = make_panel(x, center=True)

        def fail(*args, **kwargs):
            raise AssertionError("a constant series must be rejected before q selection")

        monkeypatch.setattr(model_mod, "select_factor_number_ic", fail)
        with pytest.raises(DataError, match="constant series: x6;"):
            model_mod.fit(panel)

    @pytest.mark.parametrize(
        "kwargs",
        (
            dict(threshold="adaptve"),
            dict(threshold=-0.1),
            dict(threshold="-1"),
            dict(threshold=float("nan")),
            dict(q=1, q_method="bogus"),
            dict(ic_variant=9),
            dict(ic_variant=0),
            dict(path_length=0),
            dict(n_folds=0),
            dict(alpha=-1.0, tuning="ebic"),
            dict(alpha=float("nan")),
        ),
        ids=(
            "threshold-typo", "threshold-negative", "threshold-negative-string",
            "threshold-nan", "q-method", "ic-variant-9", "ic-variant-0",
            "path-length-0", "folds-0", "alpha-negative", "alpha-nan",
        ),
    )
    def test_bad_option_rejected_before_numerical_work(self, kwargs, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("options must be checked before any numerical work")

        monkeypatch.setattr(model_mod, "select_factor_number_ic", fail)
        monkeypatch.setattr(model_mod, "factor_adjust", fail)
        panel = make_panel(np.random.default_rng(0).standard_normal((4, 60)))
        with pytest.raises(UsageError):
            model_mod.fit(panel, **kwargs)

    def test_numeric_threshold_string_accepted(self):
        panel = make_panel(np.random.default_rng(3).standard_normal((4, 80)))
        fitted = model_mod.fit(panel, q=0, orders=(1,), threshold="0.05", lrpc=False)
        assert fitted.var_fit.threshold == 0.05

    @pytest.mark.parametrize("seed", (103, 106, 108))
    def test_restricted_fits_with_rank_deficient_moments(self, seed):
        # Gamma_xi has r zero eigenvalues under the static projection: the
        # Dantzig programmes must stay feasible and the lasso bounded. The
        # relative errors of A_1 measured 0.44-0.51 on these seeds.
        spec = SimSpec(n=500, p=50, seed=seed)
        sim = sim_var(spec)
        panel = make_panel(sim.data + sim_restricted(spec), center=True)
        for kwargs in (dict(method="ds", lrpc=False), dict(method="lasso", lrpc=True)):
            fitted = model_mod.fit(panel, restricted=True, **kwargs)
            err = metrics(fitted.var_fit.lag_matrix(1), sim.a_matrices[0]).l_f
            assert err < 0.6

    def test_precision_invariants(self, small_model):
        prec = small_model.precision
        delta = prec.innovation_precision
        omega = prec.longrun_precision
        assert np.max(np.abs(delta - delta.T)) <= 1e-10
        assert np.max(np.abs(omega - omega.T)) <= 1e-10
        a_one = prec.lag_polynomial_at_one
        recomputed = 2.0 * np.pi * a_one.T @ delta @ a_one
        assert np.max(np.abs(omega - (recomputed + recomputed.T) / 2.0)) <= 1e-10
        assert np.all(np.diag(prec.partial_cor) == 1.0)
        assert np.all(np.diag(prec.longrun_partial_cor) == 1.0)
        assert np.array_equal(prec.partial_cor, prec.partial_cor.T)


class TestDocument:
    def test_round_trip_matrices_exact(self, small_model):
        doc = model_mod.to_document(small_model)
        loaded = model_mod.from_document(json.loads(json.dumps(doc)))
        assert np.array_equal(loaded.var_fit.beta, small_model.var_fit.beta)
        assert np.array_equal(
            loaded.var_fit.innovation_cov, small_model.var_fit.innovation_cov
        )
        for field in dataclasses.fields(PrecisionFit):
            got = getattr(loaded.precision, field.name)
            want = getattr(small_model.precision, field.name)
            assert want is not None, field.name
            assert type(got) is type(want), field.name
            assert np.array_equal(got, want), field.name
        assert np.array_equal(loaded.mean_x, small_model.panel.mean_x)
        for name in ("basis", "inv_vals", "cross"):
            got = getattr(loaded.predictor, name)
            want = getattr(small_model.predictor, name)
            assert np.array_equal(got, want) and got.shape == want.shape
            assert got.flags.c_contiguous and want.flags.c_contiguous
        assert loaded.predictor.rank_warning == small_model.predictor.rank_warning
        assert loaded.q_or_r == small_model.q_or_r
        assert loaded.r_forecast == small_model.r_forecast
        assert loaded.input_path == "panel.csv"
        assert loaded.panel is None and loaded.var_tuning is None

    def test_schema_version_checked(self, small_model):
        doc = model_mod.to_document(small_model)
        doc["schema_version"] = 99
        with pytest.raises(UsageError):
            model_mod.from_document(doc)

    def test_version_one_document_rejected(self, small_model):
        # A v1 document lacks the forecast rank; it must be refitted.
        doc = model_mod.to_document(small_model)
        doc["schema_version"] = 1
        del doc["r_forecast"]
        with pytest.raises(UsageError, match="refit"):
            model_mod.from_document(doc)

    def test_version_two_document_rejected(self, small_model):
        # A v2 document lacks the common-component predictor.
        doc = model_mod.to_document(small_model)
        doc["schema_version"] = 2
        del doc["predictor"]
        with pytest.raises(UsageError, match="refit"):
            model_mod.from_document(doc)

    def test_report_on_loaded_model(self, small_model):
        loaded = model_mod.from_document(
            json.loads(json.dumps(model_mod.to_document(small_model)))
        )
        text = model_mod.report(loaded)
        assert "n: not stored, p: 6" in text
        # The tuning records are not stored, so their lines are absent.
        assert set(text.splitlines()[2:]) <= set(model_mod.report(small_model).splitlines())

    @pytest.mark.parametrize(
        "field, breaks",
        (
            ("'predictor'", lambda doc: doc.pop("predictor")),
            ("'beta'", lambda doc: doc["var"].pop("beta")),
            ("mean_x", lambda doc: doc["mean_x"].pop()),
            ("var.beta", lambda doc: doc["var"].update(order=2)),
            ("var.Gamma_hat", lambda doc: doc["var"]["Gamma_hat"].pop()),
            ("predictor.basis", lambda doc: doc["predictor"]["basis"].pop()),
            ("lrpc.Delta", lambda doc: doc["lrpc"].update(Delta=np.eye(5).tolist())),
            (
                "predictor.cross",
                lambda doc: doc["predictor"].update(cross=doc["predictor"]["cross"][:1]),
            ),
            ("predictor.inv_vals", lambda doc: doc["predictor"]["inv_vals"].append(1.0)),
        ),
        ids=(
            "no-predictor", "no-beta", "short-mean_x", "order-mismatch",
            "short-Gamma_hat", "short-basis", "small-Delta", "one-lag-cross", "long-inv_vals",
        ),
    )
    def test_malformed_document_names_the_field(self, small_model, field, breaks):
        doc = json.loads(json.dumps(model_mod.to_document(small_model)))
        breaks(doc)
        with pytest.raises(UsageError, match=field):
            model_mod.from_document(doc)

    @pytest.mark.parametrize(
        "field",
        (
            "var.beta", "var.Gamma_hat", "predictor.basis", "predictor.inv_vals",
            "predictor.cross", "mean_x", "lrpc.Delta",
        ),
    )
    def test_non_finite_block_names_the_field(self, ranked_model, field):
        doc = json.loads(json.dumps(model_mod.to_document(ranked_model)))
        parent, key = doc, field
        if "." in field:
            head, key = field.split(".")
            parent = doc[head]
        block = np.asarray(parent[key])
        assert block.size > 0
        block.flat[block.size // 2] = np.nan
        parent[key] = block.tolist()
        with pytest.raises(UsageError, match=f"{field} has a non-finite entry"):
            model_mod.from_document(doc)

    @pytest.mark.parametrize("entry", ("x", [1.0, 2.0]))
    def test_non_numeric_block_names_the_field(self, small_model, entry):
        doc = json.loads(json.dumps(model_mod.to_document(small_model)))
        doc["var"]["Gamma_hat"][1][0] = entry
        with pytest.raises(UsageError, match="var.Gamma_hat is not a numeric array"):
            model_mod.from_document(doc)

    def test_asymmetric_delta_names_the_field(self, small_model):
        doc = json.loads(json.dumps(model_mod.to_document(small_model)))
        doc["lrpc"]["Delta"][0][1] += 1.0
        with pytest.raises(UsageError, match="lrpc.Delta: .* not symmetric"):
            model_mod.from_document(doc)

    def test_document_with_seed_still_loads(self, small_model):
        doc = json.loads(json.dumps(model_mod.to_document(small_model)))
        doc["provenance"]["seed"] = 111
        assert model_mod.from_document(doc).p == small_model.p

    def test_document_has_provenance(self, small_model):
        doc = model_mod.to_document(small_model)
        assert doc["provenance"]["input"] == "panel.csv"
        assert "created" in doc["provenance"]


class TestPredict:
    def test_predict_reads_only_the_last_order_points(self, small_model, monkeypatch):
        # Overwriting every point before the last `order` leaves the forecast
        # unchanged, and both component forecasts are handed the tail only.
        panel = small_model.panel
        d = small_model.var_fit.order
        head = np.random.default_rng(5).standard_normal((panel.p, panel.n - d))
        moved = TimeSeriesPanel(np.hstack([head, panel.values[:, -d:]]), np.zeros(panel.p))
        widths = []
        inner = model_mod.forecast_idio

        def spy(fit, xi, horizon):
            widths.append(xi.shape[1])
            return inner(fit, xi, horizon)

        monkeypatch.setattr(model_mod, "forecast_idio", spy)
        base = model_mod.predict(small_model, TimeSeriesPanel(panel.values, np.zeros(panel.p)), 3)
        fc = model_mod.predict(small_model, moved, 3)
        assert np.array_equal(fc.forecast, base.forecast)
        assert widths == [max(d, 2)] * 2

    def test_horizon_guards(self, small_model):
        with pytest.raises(DimensionError):
            model_mod.predict_model(small_model, 0)
        with pytest.raises(DimensionError):
            model_mod.predict_model(small_model, small_model.bandwidth + 1)

    def test_decomposition_identities(self, small_model):
        fc = model_mod.predict_model(small_model, 2)
        assert np.array_equal(
            fc.forecast,
            fc.common_forecast + fc.idio_forecast + small_model.panel.mean_x[None, :],
        )
        assert np.array_equal(
            fc.idio_insample, small_model.panel.values - fc.common_insample
        )

    def test_var_only_forecast_has_zero_common(self):
        sim = sim_var(SimSpec(n=150, p=5, q=0, seed=4))
        panel = make_panel(sim.data, center=True)
        fitted = model_mod.fit(panel, q=0, orders=(1,), lrpc=False)
        fc = model_mod.predict_model(fitted, 2)
        assert np.all(fc.common_forecast == 0.0)
        assert fc.r_used == 0

    def test_wrong_variable_count(self, small_model):
        panel = make_panel(np.random.default_rng(1).standard_normal((5, 80)), center=True)
        with pytest.raises(DimensionError, match="5 variables"):
            model_mod.predict(small_model, panel, 1)

    def test_predict_does_no_factor_adjustment(self, monkeypatch):
        # orders deeper than the bandwidth: the fit's own common component,
        # not one re-estimated at another kernel bandwidth, drives predict.
        spec = SimSpec(n=300, p=10, q=1, seed=2)
        panel = make_panel(sim_var(spec).data + sim_unrestricted(spec), center=True)
        fitted = model_mod.fit(panel, q=1, bandwidth=2, orders=(1, 3), lrpc=False)
        loaded = model_mod.from_document(
            json.loads(json.dumps(model_mod.to_document(fitted)))
        )

        def fail(*args, **kwargs):
            raise AssertionError("predict must not re-run the factor adjustment")

        monkeypatch.setattr(model_mod, "factor_adjust", fail)
        for h in (1, 2):
            in_memory = model_mod.predict_model(fitted, h)
            reloaded = model_mod.predict(loaded, panel, h)
            assert np.array_equal(in_memory.forecast, reloaded.forecast)
            assert np.array_equal(in_memory.common_insample, reloaded.common_insample)

    def test_predict_reuses_fitted_rank(self, small_model, monkeypatch):
        loaded = model_mod.from_document(
            json.loads(json.dumps(model_mod.to_document(small_model)))
        )

        def fail(*args, **kwargs):
            raise AssertionError("predict must not re-select the rank")

        monkeypatch.setattr(model_mod, "select_factor_number_ic", fail)
        in_memory = model_mod.predict_model(small_model, 2)
        reloaded = model_mod.predict(loaded, small_model.panel, 2)
        assert np.array_equal(in_memory.forecast, reloaded.forecast)
        assert in_memory.r_used == reloaded.r_used


class TestMomentSystems:
    """Each (sample, order) Yule-Walker system is built once per fit."""

    @staticmethod
    def _panel():
        spec = SimSpec(n=300, p=10, q=1, seed=2)
        return make_panel(sim_var(spec).data + sim_unrestricted(spec), center=True)

    def test_lrpc_cv_fit_builds_three_systems(self, monkeypatch):
        # One full-sample system and one per segment, shared by cv_var and cv_delta.
        built = []

        def counted(acv, order):
            built.append(order)
            return build_yule_walker(acv, order)

        monkeypatch.setattr(model_mod, "build_yule_walker", counted)
        monkeypatch.setattr(tuning, "build_yule_walker", counted)
        model_mod.fit(self._panel(), q=1, orders=(1,), lrpc=True)
        assert built == [1, 1, 1]

    def test_ebic_fit_prepares_each_gram_once(self, monkeypatch):
        prepare = YuleWalkerSystem.prepared.func
        prepared = []

        def counted(sys):
            prepared.append(sys.order)
            return prepare(sys)

        spy = functools.cached_property(counted)
        spy.__set_name__(YuleWalkerSystem, "prepared")
        monkeypatch.setattr(YuleWalkerSystem, "prepared", spy)
        model_mod.fit(self._panel(), q=1, tuning="ebic", orders=(1, 2), lrpc=False)
        assert sorted(prepared) == [1, 2]

    def test_full_sample_adjustment_freed_before_segments(self, monkeypatch):
        refs = []
        freed = []

        def adjust(*args):
            out = factor_adjust(*args)
            refs.append(weakref.ref(out))
            return out

        def segments(*args):
            freed.extend(ref() is None for ref in refs)
            return tuning.segment_moments(*args)

        monkeypatch.setattr(model_mod, "factor_adjust", adjust)
        monkeypatch.setattr(model_mod, "segment_moments", segments)
        model_mod.fit(self._panel(), q=1, orders=(1,), lrpc=True)
        assert freed == [True]


class TestSharedAcv:
    """``fit`` computes the full-sample ACV once, for both ladders' top rungs
    and the factor adjustment."""

    @staticmethod
    def _panel(restricted):
        spec = SimSpec(n=300, p=20, q=2, seed=5)
        common = sim_restricted(spec) if restricted else sim_unrestricted(spec)
        return make_panel(sim_var(spec).data + common, center=True)

    @pytest.mark.parametrize("restricted", [False, True])
    @pytest.mark.parametrize("shift", [3, -3])
    def test_estimates_equal_per_window_fit(self, monkeypatch, restricted, shift):
        # A bandwidth above the ladder's top one leaves a deeper ACV to share;
        # one below it makes the top rung compute its own.
        panel = self._panel(restricted)
        kwargs = dict(restricted=restricted, orders=(1, 2), lrpc=False,
                      bandwidth=default_bandwidth(panel.n) + shift)
        got = model_mod.fit(panel, **kwargs)

        def per_window(panel, *args, acv_x=None, **kw):
            return per_window_select_factor_number_ic(panel, *args, **kw)

        monkeypatch.setattr(model_mod, "select_factor_number_ic", per_window)
        monkeypatch.setattr(model_mod, "factor_adjust", lambda *args: factor_adjust(*args[:5]))
        want = model_mod.fit(panel, **kwargs)
        assert got.q_selection.q_hat == want.q_selection.q_hat
        assert np.array_equal(got.q_selection.s_of_c, want.q_selection.s_of_c)
        assert (got.r_forecast, got.var_fit.order, got.var_fit.lam) == (
            want.r_forecast, want.var_fit.order, want.var_fit.lam)
        assert np.array_equal(got.var_fit.beta, want.var_fit.beta)

    @pytest.mark.parametrize("restricted", [False, True])
    def test_one_full_sample_acv_pass(self, monkeypatch, restricted):
        panel = self._panel(restricted)
        full, stacks = [], []

        def acv_spy(sample, max_lag):
            if sample.n == panel.n:
                full.append(max_lag)
            return sample_acv(sample, max_lag)

        def spectral_spy(acv, m, *block):
            stacks.append(m)
            return spectral_matrices(acv, m, *block)

        for mod in (model_mod, factor_number, spectral):
            monkeypatch.setattr(mod, "sample_acv", acv_spy)
        for mod in (factor_number, spectral):
            monkeypatch.setattr(mod, "spectral_matrices", spectral_spy)
        model_mod.fit(panel, restricted=restricted, lrpc=False)
        assert full == [default_bandwidth(panel.n)]
        if restricted:
            assert stacks == []  # the restricted ladder reads lag-0 covariances only

    def test_report_prints_stability_warning(self):
        spec = SimSpec(n=100, p=10, q=2, seed=20)
        panel = make_panel(sim_var(spec).data + sim_restricted(spec), center=True)
        fitted = model_mod.fit(panel, restricted=True, lrpc=False)
        warning = fitted.q_selection.stability_warning
        assert warning == "single stability interval; used its last grid point"
        assert f"Factor number warning: {warning}\n" in model_mod.report(fitted)
        pinned = model_mod.fit(panel, restricted=True, q=fitted.q_or_r, lrpc=False)
        assert "Factor number warning" not in model_mod.report(pinned)
