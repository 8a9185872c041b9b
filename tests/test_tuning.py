import math

import numpy as np
import pytest

from conftest import make_panel
from fnets import tuning
from fnets.errors import DataError, DimensionError, UsageError
from fnets.panel import AcvSequence, TimeSeriesPanel
from fnets.model import fit
from fnets.precision import aclime, aclime_step_one
from fnets.simulate import SimSpec, sim_unrestricted, sim_var
from fnets.spectral import default_bandwidth, factor_adjust, factor_adjust_unrestricted
from fnets.tuning import (
    cv_delta,
    cv_var,
    ebic_var,
    eta_grid,
    lambda_grid,
    log_binomial,
    make_folds,
    SegmentMoments,
    segment_moments,
)
from fnets.var import build_yule_walker
from oracles import (
    first_turn,
    full_grid_cv_delta,
    full_grid_cv_var,
    full_grid_ebic_var,
)


def oracle_panel(seed, n=200, p=10, d=1):
    sim = sim_var(SimSpec(n=n, p=p, q=0, var_order=d, seed=seed))
    return make_panel(sim.data, center=True)


def var_moments(panel, orders, n_folds=1):
    """Segment moments of a factor-free panel at each segment's default bandwidth."""
    return segment_moments(panel, "unrestricted", 0, n_folds, None, orders)


class TestMakeFolds:
    def test_single_fold_even(self):
        folds = make_folds(100, 1)
        assert folds[0].train == range(0, 50)
        assert folds[0].test == range(50, 100)

    def test_single_fold_odd(self):
        folds = make_folds(101, 1)
        assert folds[0].train == range(0, 51)
        assert folds[0].test == range(51, 101)

    def test_two_folds(self):
        folds = make_folds(100, 2)
        assert folds[0].train == range(0, 25)
        assert folds[0].test == range(25, 50)
        assert folds[1].train == range(50, 75)
        assert folds[1].test == range(75, 100)

    def test_partition_property(self):
        for n, n_folds in ((57, 3), (200, 4), (33, 2)):
            folds = make_folds(n, n_folds)
            covered = []
            for f in folds:
                assert f.train.stop == f.test.start
                assert f.train.start < f.train.stop < f.test.stop
                covered.extend(f.train)
                covered.extend(f.test)
            assert covered == list(range(n))

    def test_too_many_folds(self):
        with pytest.raises(DimensionError):
            make_folds(5, 5)


class TestGrids:
    def test_lasso_grid_geometry(self):
        class Sys:
            cross = np.array([[1.0], [-0.25]])

        grid = lambda_grid(Sys(), 3, "lasso")
        assert np.allclose(grid, [2.0, 0.2, 0.02])

    def test_ds_grid_top_is_sup_norm(self):
        class Sys:
            cross = np.array([[0.7], [-0.9]])

        grid = lambda_grid(Sys(), 5, "ds")
        assert grid[0] == pytest.approx(0.9)
        assert grid[-1] == pytest.approx(0.009)

    def test_singleton(self):
        class Sys:
            cross = np.array([[0.5]])

        assert lambda_grid(Sys(), 1, "lasso").tolist() == [1.0]

    def test_zero_cross_rejected(self):
        class Sys:
            cross = np.zeros((2, 1))

        with pytest.raises(DataError):
            lambda_grid(Sys(), 5, "lasso")

    def test_eta_grid(self):
        grid = eta_grid(np.array([[2.0, 0.1], [0.1, 1.0]]), 3)
        assert np.allclose(grid, [2.0, 0.2, 0.02])


class TestCvVar:
    def test_singleton_grid_returned(self):
        panel = oracle_panel(0)
        fa = factor_adjust_unrestricted(panel, 0)
        sys = build_yule_walker(fa.acv_xi, 1)
        tr = cv_var(var_moments(panel, (1,)), panel.n, "lasso", np.array([0.3]))
        assert tr.selected_lambda == 0.3
        assert tr.selected_order == 1
        assert tr.score_surface.shape == (1, 1)

    def test_order_one_recovered_majority(self):
        hits = 0
        for seed in range(10):
            panel = oracle_panel(seed)
            fa = factor_adjust_unrestricted(panel, 0)
            grid = lambda_grid(build_yule_walker(fa.acv_xi, 4), 10, "lasso")
            tr = cv_var(var_moments(panel, (1, 2, 3, 4)), panel.n, "lasso", grid)
            hits += tr.selected_order == 1
        assert hits >= 7

    def test_unknown_method_usage_error(self):
        panel = oracle_panel(0)
        with pytest.raises(UsageError):
            cv_var(var_moments(panel, (1,)), panel.n, "ridge", np.array([0.3]))

    def test_reproducible(self):
        panel = oracle_panel(4)
        fa = factor_adjust_unrestricted(panel, 0)
        grid = lambda_grid(build_yule_walker(fa.acv_xi, 2), 5, "lasso")
        a = cv_var(var_moments(panel, (1, 2)), panel.n, "lasso", grid)
        b = cv_var(var_moments(panel, (1, 2)), panel.n, "lasso", grid)
        assert np.array_equal(a.score_surface, b.score_surface)
        assert a.selected_lambda == b.selected_lambda

    def test_near_zero_lambda_attains_grid_minimum(self):
        # Noiseless AR data, singleton order: the selected lambda's score sits
        # within 1e-6 of the best score on the grid (sanity anchor).
        panel = oracle_panel(2, n=300)
        fa = factor_adjust_unrestricted(panel, 0)
        sys = build_yule_walker(fa.acv_xi, 1)
        grid = np.array([0.5, 0.05, 1e-8])
        tr = cv_var(var_moments(panel, (1,)), panel.n, "lasso", grid)
        best = tr.score_surface.min()
        chosen = tr.score_surface[0, list(grid).index(tr.selected_lambda)]
        assert chosen <= best + 1e-6


class TestCvDelta:
    def test_divergence_floor_at_truth(self):
        gamma = np.array([[2.0, 0.3], [0.3, 1.0]])
        delta = np.linalg.inv(gamma)
        prod = delta @ gamma
        val = np.trace(prod) - math.log(np.linalg.det(prod)) - 2
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_scaled_divergence_value(self):
        p = 3
        gamma = np.eye(p) * 1.7
        delta = 2.0 * np.linalg.inv(gamma)
        prod = delta @ gamma
        val = np.trace(prod) - math.log(np.linalg.det(prod)) - p
        assert val == pytest.approx(p * (2 - math.log(2) - 1), abs=1e-12)

    def test_singleton_grid(self):
        panel = oracle_panel(1)
        tr = cv_delta(var_moments(panel, (1,)), panel.n, "lasso", 0.2, 1, np.array([0.4]))
        assert tr.selected_lambda == 0.4

    def test_selects_reasonable_eta(self):
        panel = oracle_panel(3)
        grid = np.geomspace(1.0, 0.01, 8)
        tr = cv_delta(var_moments(panel, (1,)), panel.n, "lasso", 0.15, 1, grid)
        assert tr.selected_lambda in grid
        finite = np.isfinite(tr.score_surface[0])
        assert finite.any()

    def test_indefinite_test_form_still_scores(self):
        # A penalty above the zero-solution bound gives beta = 0, so the test
        # form is the test segment's lag-0 matrix: indefinite, det < 0.
        panel = oracle_panel(3, p=3)
        train = var_moments(panel, (1,))[0].train
        test = {1: build_yule_walker(
            AcvSequence(np.stack([np.diag([1.0, 0.8, -0.2]), np.zeros((3, 3))])), 1
        )}
        lam = 4.0 * float(np.max(np.abs(train[1].cross)))
        grid = eta_grid(train[1].gram, 5)
        tr = cv_delta([SegmentMoments(100, train, test)], panel.n, "lasso", lam, 1, grid)
        assert np.isfinite(tr.score_surface).any()
        assert tr.selected_lambda in grid

    def test_score_is_stein_divergence_plus_width_free_term(self, monkeypatch):
        panel = oracle_panel(3)
        moments = var_moments(panel, (1,))
        deltas = []
        fit_precision = tuning.fit_precision

        def spy(*args):
            delta = fit_precision(*args)
            deltas.append(delta)
            return delta

        monkeypatch.setattr(tuning, "fit_precision", spy)
        grid = np.geomspace(0.5, 0.02, 6)
        tr = cv_delta(moments, panel.n, "lasso", 0.15, 1, grid)
        seg = moments[0]
        beta = tuning.fit_var(seg.train[1], "lasso", 0.15).beta
        gamma_te = tuning._innovation_quadform(seg.test[1], beta)
        p = gamma_te.shape[0]
        stein = []
        for delta in deltas:
            prod = delta @ gamma_te
            stein.append(np.trace(prod) - np.linalg.slogdet(prod)[1] - p)
        # The walk stops once the score has turned: only the solved widths
        # are fitted, and the identity holds at each of them.
        solved = tr.solved[0]
        shift = tr.score_surface[0, :solved] - np.array(stein)
        assert len(deltas) == solved
        assert np.all(np.isinf(tr.score_surface[0, solved:]))
        assert np.all(np.isfinite(shift))
        assert shift == pytest.approx(np.linalg.slogdet(gamma_te)[1] + p, abs=1e-9)

    def test_aclime_step_one_once_per_fold(self, monkeypatch):
        panel = oracle_panel(3)
        calls = []

        def counted(gamma, n):
            calls.append(n)
            return aclime_step_one(gamma, n)

        monkeypatch.setattr(tuning, "aclime_step_one", counted)
        grid = np.geomspace(1.0, 0.01, 6)
        moments = var_moments(panel, (1,), n_folds=2)
        tr = cv_delta(moments, panel.n, "lasso", 0.15, 1, grid, adaptive=True)
        assert calls == [50, 50]
        assert np.isfinite(tr.score_surface).any()

    def test_passed_step_one_is_bit_identical(self):
        a = np.random.default_rng(4).standard_normal((6, 6))
        gamma = a @ a.T / 6 + 0.5 * np.eye(6)
        inline = aclime(gamma, 0.3, 120)
        passed = aclime(gamma, 0.3, 120, aclime_step_one(gamma, 120))
        assert np.array_equal(inline, passed)


class TestSegmentBandwidth:
    def test_unknown_model_kind_rejected(self):
        with pytest.raises(UsageError, match="unknown model kind 'static'"):
            segment_moments(oracle_panel(1), "static", 0, 1, None, (1,))

    @staticmethod
    def _segment_bandwidths(monkeypatch, bandwidth):
        spec = SimSpec(n=300, p=10, q=1, seed=2)
        panel = make_panel(sim_var(spec).data + sim_unrestricted(spec), center=True)
        seen = []

        def spy(sub, model_kind, q, m, min_lag):
            seen.append((sub.n, m))
            return factor_adjust(sub, model_kind, q, m, min_lag)

        monkeypatch.setattr(tuning, "factor_adjust", spy)
        fit(panel, q=1, bandwidth=bandwidth, orders=(1,), lrpc=True)
        return seen

    def test_user_bandwidth_reaches_every_segment(self, monkeypatch):
        # One training and one test segment, adjusted once for cv_var and
        # cv_delta together.
        seen = self._segment_bandwidths(monkeypatch, 2)
        assert seen == [(150, 2)] * 2

    def test_default_bandwidth_per_segment(self, monkeypatch):
        seen = self._segment_bandwidths(monkeypatch, None)
        assert seen == [(150, default_bandwidth(150))] * 2
        assert default_bandwidth(150) != default_bandwidth(300)


class TestEbic:
    def test_log_binomial_against_exact(self):
        assert log_binomial(50, 5) == pytest.approx(math.log(2118760), abs=1e-10)
        assert log_binomial(10, 0) == 0.0
        assert log_binomial(4, 2) == pytest.approx(math.log(6), abs=1e-12)

    def test_alpha_zero_drops_binomial_term(self):
        panel = oracle_panel(5)
        fa = factor_adjust_unrestricted(panel, 0)
        systems = {d: build_yule_walker(fa.acv_xi, d) for d in (1, 2)}
        grid = lambda_grid(systems[2], 4, "lasso")
        t0 = ebic_var(systems, panel.n, "lasso", grid, alpha=0.0)
        full = full_grid_ebic_var(systems, panel.n, "lasso", grid, alpha=0.0)
        for row, k, expect in zip(t0.score_surface, t0.solved, full.score_surface):
            assert np.all(np.isfinite(row[:k]))
            assert np.array_equal(row[:k], expect[:k])

    def test_support_non_increasing_in_alpha(self):
        panel = oracle_panel(6)
        fa = factor_adjust_unrestricted(panel, 0)
        systems = {d: build_yule_walker(fa.acv_xi, d) for d in (1, 2)}
        grid = lambda_grid(systems[2], 6, "lasso")
        sizes = []
        for alpha in (0.0, 0.5, 1.0):
            tr = ebic_var(systems, panel.n, "lasso", grid, alpha=alpha)
            sys = build_yule_walker(fa.acv_xi, tr.selected_order)
            from fnets.var import lasso_fista, threshold_matrix
            from fnets.threshold_select import select_threshold

            fit = lasso_fista(sys, tr.selected_lambda)
            if np.any(fit.beta != 0):
                t_ada = select_threshold(fit.beta, panel.p**2 * tr.selected_order).threshold
                s = int(np.count_nonzero(threshold_matrix(fit.beta, t_ada)))
            else:
                s = 0
            sizes.append(s)
        assert sizes[0] >= sizes[1] >= sizes[2]

    def test_scores_the_fit_bandwidth(self):
        # At the top of the lambda grid beta is zero, so the score is
        # n/2 log tr Gamma_xi(0) of the adjustment at the fit's bandwidth,
        # not at the default one (m = 14 for n = 300).
        spec = SimSpec(n=300, p=20, seed=3)
        panel = make_panel(sim_var(spec).data + sim_unrestricted(spec), center=True)
        model = fit(panel, q=2, tuning="ebic", bandwidth=6, lrpc=False)
        gamma0 = factor_adjust(panel, "unrestricted", 2, 6, 1).acv_xi.at(0)
        expect = panel.n / 2.0 * math.log(np.trace(gamma0))
        assert model.var_tuning.score_surface[0, 0] == pytest.approx(expect, rel=1e-12)


def synthetic_walk(*rows):
    """Walk fixed score surfaces: ``rows`` holds one list of per-fold score
    arrays per order. Returns the result and the grid indices each fold of
    each row was asked to solve."""
    grid = np.geomspace(1.0, 0.01, len(rows[0][0]))
    index = {float(v): i for i, v in enumerate(grid)}
    asked = [[[] for _ in folds] for folds in rows]

    def fold(oi, k, values):
        def score(value, bases):
            asked[oi][k].append(index[value])
            return values[index[value]]

        return score

    callbacks = {
        oi + 1: [fold(oi, k, v) for k, v in enumerate(folds)] for oi, folds in enumerate(rows)
    }
    return tuning._walk("cv", grid, callbacks), asked


class TestPathWalker:
    def test_stops_two_points_after_the_minimum(self):
        row = [9.0, 7.0, 4.0, 5.0, 6.0, 8.0, 9.0, 10.0]
        tr, asked = synthetic_walk([row])
        assert tr.solved == (5,)
        assert asked == [[[0, 1, 2, 3, 4]]]
        assert np.array_equal(tr.score_surface[0, :5], row[:5])
        assert np.all(np.isinf(tr.score_surface[0, 5:]))
        assert tr.selected_lambda == tr.grid[2]

    def test_two_minima_keep_the_first(self):
        # The walk is not the full-grid argmin on a surface that turns twice:
        # a lower minimum after two rises is never solved.
        row = [5.0, 4.0, 3.0, 4.0, 5.0, 1.0, 6.0, 7.0]
        tr, _ = synthetic_walk([row])
        assert tr.solved == (5,)
        assert tr.selected_lambda == tr.grid[2]
        assert int(np.argmin(row)) == 5

    def test_plateau_and_single_rise_do_not_stop(self):
        row = [5.0, 4.0, 4.0, 4.5, 4.0, 4.0, 4.2, 3.0, 3.5]
        tr, _ = synthetic_walk([row])
        assert tr.solved == (9,)
        assert tr.selected_lambda == tr.grid[7]

    def test_infinite_scores_never_count_as_a_rise(self):
        head = [np.inf, np.inf, 3.0, 2.0, 1.0, 2.0, 3.0, 4.0, 5.0]
        tr, _ = synthetic_walk([head])
        assert tr.solved == (7,)
        assert tr.selected_lambda == tr.grid[4]
        # An infinite point breaks a run of rises: 2 < inf and inf < 4 are
        # not rises, so the walk goes on to the next three finite rises.
        middle = [3.0, 2.0, np.inf, 4.0, 5.0, 6.0, 7.0, 8.0]
        tr, _ = synthetic_walk([middle])
        assert tr.solved == (6,)
        assert tr.selected_lambda == tr.grid[1]
        # Nor does a rise into an infeasible point end the walk.
        into = [4.0, 3.0, 3.5, np.inf, 3.6, 3.7, 2.0, 3.0, 4.0]
        tr, _ = synthetic_walk([into])
        assert tr.solved == (9,)
        assert tr.selected_lambda == tr.grid[6]

    def test_rows_stop_on_their_own(self):
        early = [3.0, 2.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        late = [5.0, 4.0, 3.0, 2.0, 1.0, 0.5, 0.6, 0.7]
        tr, asked = synthetic_walk([early], [late])
        assert tr.solved == (5, 8)
        assert [len(a[0]) for a in asked] == [5, 8]
        assert (tr.selected_order, tr.selected_lambda) == (2, tr.grid[5])

    def test_folds_summed_before_the_stop(self):
        rising = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0])
        falling = np.array([10.0, 8.0, 6.0, 4.0, 2.0, 1.0, 1.5, 3.0])
        assert first_turn(rising) == 3
        tr, asked = synthetic_walk([rising, falling])
        total = rising + falling
        assert tr.solved == (first_turn(total),) == (8,)
        assert np.array_equal(tr.score_surface[0], total)
        assert asked[0][0] == asked[0][1] == list(range(8))

    def test_infinite_fold_skips_later_folds_at_that_point(self):
        first = np.array([1.0, np.inf, 1.0, 1.0])
        second = np.array([2.0, 2.0, 2.0, 2.0])
        tr, asked = synthetic_walk([first, second])
        assert asked[0] == [[0, 1, 2, 3], [0, 2, 3]]
        assert np.array_equal(tr.score_surface[0], [3.0, np.inf, 3.0, 3.0])

    @pytest.mark.parametrize("method", ["lasso", "ds"])
    @pytest.mark.parametrize("n_folds", [1, 2])
    def test_cv_var_matches_full_grid_on_solved_prefix(self, method, n_folds):
        panel = oracle_panel(4, n=300)
        moments = var_moments(panel, (1, 2, 3), n_folds)
        grid = lambda_grid(moments[0].train[3], 10, method)
        tr = cv_var(moments, panel.n, method, grid)
        full = full_grid_cv_var(moments, panel.n, method, grid)
        self._assert_prefix_of(tr, full)

    @pytest.mark.parametrize("adaptive", [False, True])
    @pytest.mark.parametrize("n_folds", [1, 2])
    def test_cv_delta_matches_full_grid_on_solved_prefix(self, adaptive, n_folds):
        panel = oracle_panel(3, n=300)
        moments = var_moments(panel, (1,), n_folds)
        grid = eta_grid(moments[0].train[1].gram, 10)
        tr = cv_delta(moments, panel.n, "lasso", 0.1, 1, grid, adaptive)
        full = full_grid_cv_delta(moments, panel.n, "lasso", 0.1, 1, grid, adaptive)
        self._assert_prefix_of(tr, full)

    @pytest.mark.parametrize("method", ["lasso", "ds"])
    def test_ebic_matches_full_grid_on_solved_prefix(self, method):
        panel = oracle_panel(6)
        fa = factor_adjust_unrestricted(panel, 0)
        systems = {d: build_yule_walker(fa.acv_xi, d) for d in (1, 2)}
        grid = lambda_grid(systems[2], 10, method)
        tr = ebic_var(systems, panel.n, method, grid, alpha=0.5)
        self._assert_prefix_of(tr, full_grid_ebic_var(systems, panel.n, method, grid, 0.5))

    @staticmethod
    def _assert_prefix_of(tr, full):
        # Unimodal surfaces: every solved score is the full grid's, bit for
        # bit, the walk stops at the first turn, and the selection is equal.
        assert tr.solved == tuple(first_turn(row) for row in full.score_surface)
        assert sum(tr.solved) < full.score_surface.size
        for row, k, expect in zip(tr.score_surface, tr.solved, full.score_surface):
            assert np.array_equal(row[:k], expect[:k])
            assert np.all(np.isinf(row[k:]))
        assert tr.selected_lambda == full.selected_lambda
        assert tr.selected_order == full.selected_order
        assert tr.refit_scale == full.refit_scale

    def test_lp_count_is_p_times_solved_plus_refit(self, monkeypatch):
        # Lasso VAR, plain CLIME, one fold: every linear programme is a
        # precision column, p per solved width plus p for the final refit.
        from fnets import simplex

        spec = SimSpec(n=300, p=20, q=2, seed=1)
        panel = make_panel(sim_var(spec).data + sim_unrestricted(spec), center=True)
        calls = []
        solve_lp = simplex.solve_lp

        def counted(*args):
            calls.append(1)
            return solve_lp(*args)

        monkeypatch.setattr(simplex, "solve_lp", counted)
        model = fit(panel, q=2, orders=(1,), lrpc=True)
        solved = model.eta_tuning.solved[0]
        assert solved < 10
        assert len(calls) == 20 * (solved + 1)


class TestFitMatchesFullGrid:
    """A fit whose three tuning paths walk to their turn equals the fit that
    solves every grid point, on panels whose score surfaces are unimodal."""

    @staticmethod
    def _fit_both(monkeypatch, panel, **kw):
        import fnets.model as model_mod

        out = []
        for oracle in (False, True):
            with monkeypatch.context() as patch:
                if oracle:
                    patch.setattr(model_mod, "cv_var", full_grid_cv_var)
                    patch.setattr(model_mod, "cv_delta", full_grid_cv_delta)
                    patch.setattr(model_mod, "ebic_var", full_grid_ebic_var)
                try:
                    out.append(fit(panel, q=2, orders=(1, 2), lrpc=True, **kw))
                except Exception as err:  # the same failure on both sides
                    out.append(repr(err))
        return out

    @staticmethod
    def _panel(seed):
        spec = SimSpec(n=200, p=20, q=2, seed=seed)
        return make_panel(sim_var(spec).data + sim_unrestricted(spec), center=True)

    @pytest.mark.parametrize(
        "seed,tuning_method,n_folds,method,adaptive,restricted",
        [
            (1, "cv", 1, "lasso", False, False),
            (2, "cv", 1, "ds", True, False),
            (3, "cv", 1, "lasso", True, False),
            (1, "cv", 2, "ds", False, False),
            (2, "cv", 2, "lasso", False, False),
            (3, "cv", 2, "ds", True, False),
            (1, "ebic", 1, "ds", False, False),
            (111, "ebic", 1, "lasso", False, False),
            (112, "ebic", 1, "ds", False, True),
            (113, "ebic", 1, "lasso", False, True),
        ],
    )
    def test_identical_estimates(
        self, monkeypatch, seed, tuning_method, n_folds, method, adaptive, restricted
    ):
        walked, full = self._fit_both(
            monkeypatch,
            self._panel(seed),
            tuning=tuning_method,
            n_folds=n_folds,
            method=method,
            lrpc_adaptive=adaptive,
            restricted=restricted,
        )
        if isinstance(walked, str) or isinstance(full, str):
            assert walked == full
            return
        assert sum(walked.var_tuning.solved) < walked.var_tuning.score_surface.size
        for stage in ("var_tuning", "eta_tuning"):
            a, b = getattr(walked, stage), getattr(full, stage)
            assert (a.selected_lambda, a.selected_order) == (b.selected_lambda, b.selected_order)
        assert np.array_equal(walked.var_fit.beta, full.var_fit.beta)
        assert walked.precision.eta == full.precision.eta
        assert np.array_equal(
            walked.precision.innovation_precision, full.precision.innovation_precision
        )
