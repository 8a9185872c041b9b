"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Lines are written to the real stdout so they stay visible under pytest's
capture; run with ``pytest tests/test_acceptance.py -v`` for the full record.
Statistical criteria use fixed seeds, so results are reproducible.
"""
import math
import sys
import time

import numpy as np
import pytest

from conftest import make_panel
from fnets import model as model_mod
from fnets.factor_number import select_factor_number_er, select_factor_number_ic
from fnets.forecast import common_predictor, forecast_common_restricted, forecast_idio
from fnets.panel import TimeSeriesPanel, load_panel, sample_acv
from fnets.precision import aclime, clime
from fnets.simplex import solve_l1_box
from fnets.simulate import SimSpec, sim_unrestricted, sim_var, tpr_at_fpr, metrics
from fnets.spectral import (
    bartlett_spectral_density,
    default_bandwidth,
    factor_adjust_restricted,
    factor_adjust_unrestricted,
    spectral_matrices,
)
from fnets.threshold_select import select_threshold
from fnets.tuning import cv_var, lambda_grid, segment_moments
from fnets.var import (
    VarFit,
    YuleWalkerSystem,
    build_yule_walker,
    dantzig_lp,
    lasso_fista,
    threshold_matrix,
)
from oracles import aclime_oracle, dantzig_column_oracle, naive_acv


def _report(num: int, name: str, ok: bool, detail: str) -> bool:
    line = f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    import conftest

    conftest.ACCEPTANCE_LINES.append(line)
    return ok


def flagship_panels(count=20, n=500, p=50):
    panels = []
    for rep in range(count):
        spec = SimSpec(n=n, p=p, q=2, var_order=1, seed=1000 + rep)
        x = sim_var(spec).data + sim_unrestricted(spec)
        panels.append(make_panel(x, center=True))
    return panels


@pytest.fixture(scope="module")
def flagship():
    return flagship_panels()


def test_c01_factor_number_ic(flagship):
    t0 = time.time()
    hits = sum(
        select_factor_number_ic(panel, variant=5).q_hat == 2 for panel in flagship
    )
    elapsed = time.time() - t0
    ok = hits >= 16 and elapsed <= 300
    assert _report(
        1, "factor number by criterion+stability", ok, f"{hits}/20 correct, {elapsed:.0f}s"
    )


def test_c02_factor_number_er(flagship):
    hits = sum(select_factor_number_er(panel).q_hat == 2 for panel in flagship)
    assert _report(2, "factor number by eigenvalue ratio", ok := hits >= 16, f"{hits}/20 correct")


def _order_selection(n, p, d, method, reps, seed_base):
    hits = 0
    for rep in range(reps):
        sim = sim_var(SimSpec(n=n, p=p, q=0, var_order=d, seed=seed_base + rep))
        panel = make_panel(sim.data, center=True)
        fa = factor_adjust_unrestricted(panel, 0)
        grid = lambda_grid(build_yule_walker(fa.acv_xi, 4), 10, method)
        moments = segment_moments(panel, "unrestricted", 0, 1, None, (1, 2, 3, 4))
        tr = cv_var(moments, panel.n, method, grid)
        hits += tr.selected_order == d
    return hits


def test_c03_var_order_by_cv():
    lasso1 = _order_selection(200, 10, 1, "lasso", 20, 3000)
    ds1 = _order_selection(200, 10, 1, "ds", 20, 3000)
    lasso3 = _order_selection(200, 20, 3, "lasso", 20, 3000)
    ok = lasso1 >= 14 and ds1 >= 15 and lasso3 >= 15
    assert _report(
        3,
        "VAR order by validation",
        ok,
        f"lasso d=1 {lasso1}/20 (need 14), ds d=1 {ds1}/20 (need 15), lasso d=3 {lasso3}/20 (need 15)",
    )


@pytest.fixture(scope="module")
def support_fits():
    fits = []
    for rep in range(10):
        spec = SimSpec(n=200, p=50, q=2, var_order=1, seed=4000 + rep)
        sim = sim_var(spec)
        panel = make_panel(sim.data + sim_unrestricted(spec), center=True)
        fitted = model_mod.fit(panel, q=2, orders=(1,), lrpc=False)
        fits.append((fitted.var_fit.lag_matrix(1), sim.a_matrices[0]))
    return fits


def test_c04_support_recovery(support_fits):
    tprs = [tpr_at_fpr(est, truth, 0.05) for est, truth in support_fits]
    mean_tpr = float(np.mean(tprs))
    assert _report(
        4, "support recovery at 5% FPR", mean_tpr >= 0.90, f"mean TPR {mean_tpr:.4f} (need 0.90)"
    )


def test_c05_estimation_error(support_fits):
    lfs = [metrics(est, truth).l_f for est, truth in support_fits]
    mean_lf = float(np.mean(lfs))
    ok = 0.45 <= mean_lf <= 0.80
    assert _report(
        5, "relative Frobenius error", ok, f"mean L_F {mean_lf:.4f} (need [0.45, 0.80])"
    )


def test_c06_solver_oracles():
    rng = np.random.default_rng(6000)

    worst_fista = 0.0
    for _ in range(100):
        k = int(rng.integers(1, 6))
        p = int(rng.integers(1, 4))
        diag = rng.uniform(0.5, 3.0, k)
        cross = rng.standard_normal((k, p))
        lam = float(rng.uniform(0.05, 0.8))
        sys = YuleWalkerSystem(order=1, gram=np.diag(diag), cross=cross)
        fit = lasso_fista(sys, lam, max_iter=20000, tol=1e-15)
        closed = np.sign(cross) * np.maximum(np.abs(cross) - lam / 2.0, 0.0) / diag[:, None]
        worst_fista = max(worst_fista, float(np.max(np.abs(fit.beta - closed))))
    ok_a = worst_fista <= 1e-5

    worst_ds = 0.0
    for _ in range(100):
        d = int(rng.integers(1, 5))
        a = rng.standard_normal((d, d))
        gram = a @ a.T + 0.3 * np.eye(d)
        target = rng.standard_normal(d)
        lam = float(rng.uniform(0.05, 0.5))
        got = solve_l1_box(gram, target, np.full(d, lam))
        ref, _ = dantzig_column_oracle(gram, target, lam)
        worst_ds = max(worst_ds, abs(float(np.abs(got).sum()) - ref))
    ok_b = worst_ds <= 1e-6

    worst_clime = float(np.max(np.abs(clime(np.eye(6), 0.1) - 0.9 * np.eye(6))))
    ok_c = worst_clime <= 1e-8

    worst_aclime = 0.0
    for _ in range(20):
        p = int(rng.integers(2, 4))
        a = rng.standard_normal((p, p))
        gamma = a @ a.T + 0.6 * np.eye(p)
        gamma = (gamma + gamma.T) / 2.0
        eta2 = float(rng.uniform(0.3, 0.8))
        n = int(rng.integers(50, 200))
        got = aclime(gamma, eta2, n)
        ref = aclime_oracle(gamma, eta2, n)
        worst_aclime = max(worst_aclime, float(np.max(np.abs(got - ref))))
    ok_d = worst_aclime <= 1e-6

    ok = ok_a and ok_b and ok_c and ok_d
    assert _report(
        6,
        "solver oracles",
        ok,
        f"fista {worst_fista:.1e}, ds {worst_ds:.1e}, clime {worst_clime:.1e}, aclime {worst_aclime:.1e}",
    )


def test_c07_spectral_correctness():
    rng = np.random.default_rng(7000)
    x = rng.standard_normal((2, 2000))
    panel = make_panel(x, center=True)
    m = default_bandwidth(2000)
    mats = spectral_matrices(sample_acv(panel, m), m)
    target = np.eye(2) / (2.0 * np.pi)
    devs = np.array([float(np.max(np.abs(mat - target))) for mat in mats])
    # Mean over all 2m+1 frequencies: each w > 0 also stands for -w.
    mean_dev = float(devs[0] + 2.0 * devs[1:].sum()) / (2 * m + 1)
    ok_flat = mean_dev <= 0.15

    ok_inv = True
    for _ in range(100):
        p = int(rng.integers(1, 5))
        n = int(rng.integers(10, 40))
        xp = rng.standard_normal((p, n))
        mm = min(default_bandwidth(n), n - 1)
        acv = sample_acv(make_panel(xp), mm)
        sp = spectral_matrices(acv, mm)
        vals, _ = bartlett_spectral_density(acv, mm)
        herm = float(np.max(np.abs(sp - np.conj(np.transpose(sp, (0, 2, 1))))))
        ok_inv &= herm <= 1e-10 and vals.min() >= -1e-8

    ok = ok_flat and ok_inv
    assert _report(
        7,
        "spectral estimator",
        ok,
        f"mean max deviation {mean_dev:.4f} (need <= 0.15), invariants {'ok' if ok_inv else 'violated'}",
    )


def test_c08_threshold_gap():
    strict = realized = 0
    for rep in range(20):
        rng = np.random.default_rng(8000 + rep)
        vals = np.concatenate(
            [
                rng.uniform(0.2, 0.5, 60) * rng.choice([-1, 1], 60),
                rng.uniform(1e-4, 0.01, 40) * rng.choice([-1, 1], 40),
            ]
        )
        flat = np.zeros(2500)
        flat[rng.choice(2500, 100, replace=False)] = vals
        mat = flat.reshape(50, 50)
        sel = select_threshold(mat, denominator=2500, grid_size=100)
        if 0.01 < sel.threshold < 0.2:
            strict += 1
        mags = np.abs(vals)
        if mags[mags < 0.1].max() < sel.threshold < mags[mags > 0.1].min():
            realized += 1
    ok = strict >= 18
    assert _report(
        8,
        "adaptive threshold inside the gap",
        ok,
        f"strict (0.01,0.2): {strict}/20 (need 18); realized gap: {realized}/20",
    )


def test_c09_forecast_identities(tmp_path):
    rng = np.random.default_rng(9000)

    x = rng.standard_normal((4, 60))
    panel = make_panel(x, center=True)
    fa = factor_adjust_restricted(panel, 4, 3)
    insample, _ = forecast_common_restricted(common_predictor(fa.acv_chi, 4, 3), panel, 0)
    ok_a = float(np.max(np.abs(insample - panel.values))) <= 1e-10

    a1 = rng.uniform(-0.3, 0.3, (3, 3))
    fit = VarFit(order=1, beta=a1.T, method="lasso", lam=0.1)
    xi = rng.standard_normal((3, 30))
    fc = forecast_idio(fit, xi, 2)
    ok_b = float(np.max(np.abs(fc[1] - a1 @ a1 @ xi[:, -1]))) <= 1e-12

    from fnets.cli import main

    panel_path = str(tmp_path / "panel.csv")
    model_path = str(tmp_path / "model.json")
    fc1 = str(tmp_path / "fc1.csv")
    fc2 = str(tmp_path / "fc2.csv")
    assert main(["simulate", "--kind", "factor-var", "--n", "250", "--p", "6",
                 "--seed", "17", "--out", panel_path]) == 0
    assert main(["fit", panel_path, "--q", "1", "--no-lrpc", "--out", model_path]) == 0
    assert main(["forecast", "--model", model_path, "--ahead", "2", "--out", fc1]) == 0
    assert main(["forecast", "--model", model_path, "--ahead", "2", "--out", fc2]) == 0
    cli_text = open(fc1).read()
    ok_c = cli_text == open(fc2).read()

    loaded = load_panel(panel_path, center=True)
    fitted = model_mod.fit(loaded, q=1, lrpc=False)
    in_proc = model_mod.predict_model(fitted, 2)
    got = np.array(
        [[float(v) for v in ln.split(",")] for ln in cli_text.strip().splitlines()[1:]]
    )
    ok_c = ok_c and np.array_equal(got, in_proc.forecast)

    ok = ok_a and ok_b and ok_c
    assert _report(
        9,
        "forecast identities",
        ok,
        f"projection {'ok' if ok_a else 'bad'}, iterate {'ok' if ok_b else 'bad'}, "
        f"round-trip {'bit-exact' if ok_c else 'mismatch'}",
    )


def test_c10_aclime_vs_clime():
    tpr_c, tpr_a = [], []
    for rep in range(10):
        spec = SimSpec(
            n=200, p=50, q=2, var_order=1, innovation_cov="banded", seed=10_000 + rep
        )
        sim = sim_var(spec)
        panel = make_panel(sim.data + sim_unrestricted(spec), center=True)
        plain = model_mod.fit(panel, q=2, orders=(1,), lrpc=True, lrpc_adaptive=False)
        adaptive = model_mod.fit(panel, q=2, orders=(1,), lrpc=True, lrpc_adaptive=True)
        tpr_c.append(
            tpr_at_fpr(plain.precision.innovation_precision, sim.delta, 0.05, "offdiag")
        )
        tpr_a.append(
            tpr_at_fpr(adaptive.precision.innovation_precision, sim.delta, 0.05, "offdiag")
        )
    mean_c, mean_a = float(np.mean(tpr_c)), float(np.mean(tpr_a))
    ok = mean_a >= mean_c - 0.02
    assert _report(
        10,
        "adaptive vs plain precision recovery",
        ok,
        f"ACLIME {mean_a:.4f} vs CLIME {mean_c:.4f} (need ACLIME >= CLIME - 0.02)",
    )


def test_c11_invariant_suite():
    rng = np.random.default_rng(11_000)
    failures = []

    for case in range(100):
        x = rng.standard_normal((5, 20))
        acv = sample_acv(make_panel(x), 3)
        for lag in range(4):
            if float(np.max(np.abs(acv.at(lag) - naive_acv(x, lag)))) > 1e-12:
                failures.append(f"acv oracle case {case}")
                break
        g0 = acv.at(0)
        if not np.array_equal(g0, g0.T) or np.linalg.eigvalsh(g0).min() < -1e-12:
            failures.append(f"acv psd case {case}")
        if not all(np.array_equal(acv.at(-k), acv.at(k).T) for k in range(4)):
            failures.append(f"acv transpose case {case}")

    for case in range(100):
        x = rng.standard_normal((4, 25))
        centered = x - x.mean(axis=1, keepdims=True)
        again = centered - centered.mean(axis=1, keepdims=True)
        if float(np.max(np.abs(again - centered))) > 1e-12:
            failures.append(f"centering case {case}")

    for case in range(100):
        seq = sample_acv(make_panel(rng.standard_normal((3, 30))), 3)
        sys = build_yule_walker(seq, 3)
        if not np.array_equal(sys.gram, sys.gram.T):
            failures.append(f"gram symmetry case {case}")

    for case in range(100):
        seq = sample_acv(make_panel(rng.standard_normal((2, 40))), 2)
        sys = build_yule_walker(seq, 2)
        lam = float(rng.uniform(0.05, 0.5))
        fit = dantzig_lp(sys, lam)
        if float(np.max(np.abs(sys.gram @ fit.beta - sys.cross))) > lam + 1e-8:
            failures.append(f"ds feasibility case {case}")

    for case in range(100):
        mat = rng.standard_normal((4, 4))
        t_lo, t_hi = sorted(rng.uniform(0, 1, 2))
        if np.count_nonzero(threshold_matrix(mat, t_hi)) > np.count_nonzero(
            threshold_matrix(mat, t_lo)
        ):
            failures.append(f"threshold monotone case {case}")

    from fnets.precision import partial_correlations, symmetrise_min_modulus

    for case in range(100):
        mat = rng.standard_normal((4, 4))
        out = symmetrise_min_modulus(mat)
        cap = np.maximum(np.abs(mat), np.abs(mat.T))
        if not np.array_equal(out, out.T) or np.any(np.abs(out) > cap + 1e-15):
            failures.append(f"symmetrise case {case}")
        a = rng.standard_normal((3, 3))
        pd_mat = a @ a.T + 0.3 * np.eye(3)
        pc = partial_correlations((pd_mat + pd_mat.T) / 2.0)
        if np.any(np.abs(pc) > 1.0 + 1e-10) or not np.array_equal(pc, pc.T):
            failures.append(f"partial correlation case {case}")

    ok = not failures
    assert _report(
        11,
        "invariant property suite",
        ok,
        "9 invariant families x 100 cases" if ok else "; ".join(failures[:3]),
    )
