import math

import numpy as np
import pytest

from conftest import make_panel
from fnets import factor_number
from fnets.errors import DimensionError, UsageError
from fnets.factor_number import (
    _subsample_schedule,
    default_q_max,
    eigenvalue_summary,
    ic_table,
    select_factor_number_er,
    select_factor_number_ic,
)
from fnets.panel import TimeSeriesPanel, sample_acv
from fnets.simulate import SimSpec, sim_unrestricted, sim_var
from fnets.spectral import default_bandwidth
from ladder_matrix import FAST, mismatch
from oracles import naive_spectral


def flagship_panel(seed, n=500, p=50):
    spec = SimSpec(n=n, p=p, q=2, seed=seed)
    x = sim_var(spec).data + sim_unrestricted(spec)
    return make_panel(x, center=True)


def ic_value(summary, b, c, variant, model_kind, n, p, m):
    """The criterion at one constant and candidate, read from the table."""
    return ic_table(summary, np.array([c]), variant, model_kind, n, p, m, b)[0, b]


class TestIcValue:
    def test_no_penalty_at_zero_candidates(self):
        summary = np.array([4.0, 2.0, 1.0])
        v_raw = ic_value(summary, 0, 5.0, 2, "unrestricted", 100, 3, 5)
        assert v_raw == pytest.approx(7.0 / 3.0)
        v_log = ic_value(summary, 0, 5.0, 5, "unrestricted", 100, 3, 5)
        assert v_log == pytest.approx(math.log(7.0 / 3.0))

    def test_variant5_penalty_value(self):
        # min(p, m^2, sqrt(n/m))^(-1/2) at n=500, p=50, m=17
        summary = np.ones(50)
        base = ic_value(summary, 0, 1.0, 5, "unrestricted", 500, 50, 17)
        with_b = ic_value(summary, 1, 1.0, 5, "unrestricted", 500, 50, 17)
        pen = with_b - (math.log(49.0 / 50.0) - math.log(1.0)) - base
        expect = min(50.0, 17.0**2, math.sqrt(500.0 / 17.0)) ** -0.5
        assert expect == pytest.approx(0.4294, abs=2e-4)
        assert pen == pytest.approx(expect, abs=1e-12)

    def test_restricted_variant4_penalty(self):
        summary = np.ones(10)
        n, p = 100, 10
        base = ic_value(summary, 0, 1.0, 4, "restricted", n, p, 0)
        got = ic_value(summary, 2, 1.0, 4, "restricted", n, p, 0)
        tail_change = math.log(8.0 / 10.0) - math.log(1.0)
        pen = got - base - tail_change
        expect = 2.0 * (n + p) / (n * p) * math.log(n * p / (n + p))
        assert expect == pytest.approx(0.4856, abs=2e-4)
        assert pen == pytest.approx(expect, abs=1e-12)

    def test_variants_one_and_three_penalties(self):
        summary = np.ones(20)
        n, p, m = 400, 20, 12
        base_val = min(p, m * m, math.sqrt(n / m))
        pens = {
            1: (m**-2 + math.sqrt(m / n) + 1 / p) * math.log(base_val),
            3: math.log(base_val) / base_val,
        }
        for variant, expect in pens.items():
            lo = ic_value(summary, 0, 1.0, variant, "unrestricted", n, p, m)
            hi = ic_value(summary, 1, 1.0, variant, "unrestricted", n, p, m)
            tail_change = (19.0 / 20.0) - 1.0
            assert hi - lo - tail_change == pytest.approx(expect, abs=1e-12)

    def test_candidate_out_of_range(self):
        with pytest.raises(DimensionError):
            ic_value(np.ones(3), 4, 1.0, 5, "unrestricted", 100, 3, 5)


class TestSelectIc:
    def test_flagship_design_recovers_two_factors(self):
        sel = select_factor_number_ic(flagship_panel(11), variant=5)
        assert sel.q_hat == 2

    def test_pure_noise_reaches_zero(self):
        hits = 0
        for seed in range(10):
            rng = np.random.default_rng(seed)
            panel = make_panel(rng.standard_normal((20, 1000)), center=True)
            sel = select_factor_number_ic(panel, variant=5)
            if sel.q_hat == 0:
                hits += 1
            assert sel.q_by_c[-1] == 0  # large-penalty limit
        assert hits >= 6

    def test_rank_one_panel(self):
        hits = 0
        for seed in range(10):
            rng = np.random.default_rng(100 + seed)
            common = rng.standard_normal(600)
            x = np.tile(common, (15, 1)) + 0.01 * rng.standard_normal((15, 600))
            sel = select_factor_number_ic(make_panel(x, center=True), variant=5)
            hits += sel.q_hat == 1
        assert hits >= 6

    def test_selection_monotone_in_c(self):
        sel = select_factor_number_ic(flagship_panel(3), variant=5)
        assert np.all(np.diff(sel.q_by_c) <= 0)

    def test_summary_equals_full_grid_mean(self):
        panel = flagship_panel(11)
        m = default_bandwidth(panel.n)
        acv = sample_acv(panel, m)
        summary = eigenvalue_summary(acv, m)
        acvs = list(acv.matrices)
        mats = [naive_spectral(acvs, m, 2 * np.pi * k / (2 * m + 1)) for k in range(-m, m + 1)]
        ref = np.linalg.eigvalsh(np.array(mats))[:, ::-1].mean(axis=0)
        assert np.max(np.abs(summary - ref) / np.abs(ref)) <= 1e-10

    def test_tiny_c_selects_max(self):
        panel = flagship_panel(7, n=300, p=30)
        m = default_bandwidth(panel.n)
        summary = eigenvalue_summary(sample_acv(panel, m), m)
        assert np.all(np.diff(summary) < 0)
        sel = select_factor_number_ic(panel, variant=5, c_max=1e-9, grid_size=1)
        assert sel.q_hat == sel.q_max

    def test_variance_nonnegative(self):
        sel = select_factor_number_ic(flagship_panel(5, n=300, p=30), variant=5)
        assert np.all(sel.s_of_c >= 0)

    def test_unknown_model_kind_rejected(self):
        panel = make_panel(np.random.default_rng(2).standard_normal((5, 80)))
        with pytest.raises(UsageError, match="unknown model kind 'static'"):
            select_factor_number_ic(panel, model_kind="static")

    def test_subsample_schedule_guard(self):
        # p = 1 makes the early ladder levels empty in the cross-section.
        with pytest.raises(DimensionError):
            select_factor_number_ic(make_panel(np.random.default_rng(0).standard_normal((1, 50))))


class TestLadderPass:
    """The ladder reads every sub-panel's ACV off one running-sum pass."""

    @pytest.mark.parametrize("n, p, seed, kind", FAST)
    def test_matches_per_window_oracle(self, n, p, seed, kind):
        # The whole matrix: PYTHONPATH=src:tests python tests/ladder_matrix.py
        assert mismatch(n, p, seed, kind) is None

    @pytest.mark.parametrize("kind", ["unrestricted", "restricted"])
    @pytest.mark.parametrize("n, p", [(60, 80), (5, 8), (120, 10)])
    def test_window_acvs_equal_their_own(self, monkeypatch, n, p, kind):
        # p > n; and n = 5, where the bandwidth rule gives 5 and is clamped to 4.
        panel = make_panel(np.random.default_rng(n + p).standard_normal((p, n)), center=True)
        seen = []

        def spy(acv, m):
            seen.append((acv.matrices.copy(), m))
            return eigenvalue_summary(acv, m)

        monkeypatch.setattr(factor_number, "eigenvalue_summary", spy)
        select_factor_number_ic(panel, model_kind=kind)
        schedule = _subsample_schedule(n, p)
        assert len(seen) == len(schedule)
        for (mats, m), (n_l, p_l) in zip(seen, schedule):
            assert m == (0 if kind == "restricted" else min(default_bandwidth(n_l), n_l - 1))
            want = sample_acv(panel.window(p_l, n_l), m).matrices
            assert mats.shape == want.shape
            assert np.max(np.abs(mats - want)) <= 1e-12 * np.max(np.abs(want))
        if n == 5 and kind == "unrestricted":
            assert {m for _, m in seen} == {4}

    def test_given_full_sample_acv_serves_the_top_rung(self, monkeypatch):
        panel = flagship_panel(4, n=300, p=30)
        m = default_bandwidth(panel.n)
        own = select_factor_number_ic(panel)
        calls = []
        monkeypatch.setattr(factor_number, "sample_acv", lambda *a: calls.append(a) or sample_acv(*a))
        for lag in (m, m + 3):
            shared = select_factor_number_ic(panel, acv_x=sample_acv(panel, lag))
            assert np.array_equal(shared.q_by_c, own.q_by_c)
            assert np.array_equal(shared.s_of_c, own.s_of_c)
        assert calls == []
        select_factor_number_ic(panel, acv_x=sample_acv(panel, m - 1))  # too shallow
        assert [lag for _, lag in calls] == [m]


class TestSelectEr:
    def test_hand_ratio_curve(self):
        # Eigen summaries (10, 5, 0.5, 0.4, 0.3): ratios (2, 10, 1.25, 4/3).
        ratios = np.array([10.0, 5.0, 0.5, 0.4, 0.3])
        curve = ratios[:4] / ratios[1:5]
        assert np.allclose(curve, [2.0, 10.0, 1.25, 4.0 / 3.0])
        assert int(np.argmax(curve)) + 1 == 2

    def test_tie_breaks_to_first(self):
        curve = np.array([3.0, 3.0])
        assert int(np.argmax(curve)) + 1 == 1

    def test_flagship_design_majority(self):
        hits = sum(
            select_factor_number_er(flagship_panel(20 + s)).q_hat == 2
            for s in range(10)
        )
        assert hits >= 8

    def test_scale_invariance(self):
        panel = flagship_panel(9, n=300, p=30)
        sel1 = select_factor_number_er(panel)
        scaled = TimeSeriesPanel(panel.values * 7.5, np.zeros(panel.p))
        sel2 = select_factor_number_er(scaled)
        assert sel1.q_hat == sel2.q_hat
        assert np.allclose(sel1.er_curve, sel2.er_curve, rtol=1e-10)

    def test_q_max_bound(self):
        panel = make_panel(np.random.default_rng(1).standard_normal((3, 50)))
        with pytest.raises(DimensionError):
            select_factor_number_er(panel, q_max=3)


class TestRestricted:
    def test_static_rank_structures_agree(self):
        # Static rank-q constructions: restricted and unrestricted selectors
        # see the same eigengap.
        hits = 0
        for seed in range(10):
            rng = np.random.default_rng(300 + seed)
            load = rng.standard_normal((25, 2))
            factors = rng.standard_normal((2, 700))
            x = load @ factors + 0.3 * rng.standard_normal((25, 700))
            panel = make_panel(x, center=True)
            r_sel = select_factor_number_er(panel, model_kind="restricted")
            u_sel = select_factor_number_er(panel, model_kind="unrestricted")
            hits += r_sel.q_hat == u_sel.q_hat
        assert hits >= 8

    def test_restricted_summary_is_covariance_spectrum(self, rng):
        panel = make_panel(rng.standard_normal((6, 80)), center=True)
        acv = sample_acv(panel, 0)
        summary = eigenvalue_summary(acv, 0)
        cov = acv.at(0)
        assert np.allclose(summary, np.linalg.eigvalsh(cov)[::-1])

    def test_default_q_max(self):
        assert default_q_max(500, 50) == 7
        assert default_q_max(10_000, 10_000) == 50
