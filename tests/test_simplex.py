import numpy as np
import pytest

from conftest import make_panel
from fnets.errors import SolverError
from fnets.panel import sample_acv
from fnets.simplex import solve_l1_box, solve_l1_general, solve_lp
from fnets.simulate import SimSpec, sim_var
from fnets.tuning import eta_grid, fit_var, lambda_grid
from fnets.var import build_yule_walker, innovation_covariance
from oracles import dantzig_column_oracle, min_l1_over_polytope


class TestSolveLp:
    def test_textbook_instance(self):
        # min -3x - 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 -> (2, 6)
        c = np.array([-3.0, -5.0])
        a = np.array([[1.0, 0.0], [0.0, 2.0], [3.0, 2.0]])
        b = np.array([4.0, 12.0, 18.0])
        x = solve_lp(c, a, b)
        assert np.allclose(x, [2.0, 6.0], atol=1e-9)

    def test_negative_rhs_needs_phase_one(self):
        # min x + y s.t. -x <= -2, -y <= -3 -> (2, 3)
        c = np.array([1.0, 1.0])
        a = np.array([[-1.0, 0.0], [0.0, -1.0]])
        b = np.array([-2.0, -3.0])
        assert np.allclose(solve_lp(c, a, b), [2.0, 3.0], atol=1e-9)

    def test_infeasible_detected(self):
        # x <= 1 and -x <= -2 cannot both hold.
        with pytest.raises(SolverError):
            solve_lp(np.array([1.0]), np.array([[1.0], [-1.0]]), np.array([1.0, -2.0]))

    def test_unbounded_detected(self):
        with pytest.raises(SolverError):
            solve_lp(np.array([-1.0]), np.array([[-1.0]]), np.array([0.0]))

    def test_degenerate_instance_terminates(self):
        # Many redundant constraints through the origin.
        c = np.array([-1.0, -1.0])
        a = np.array([[1.0, 1.0], [2.0, 2.0], [1.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
        b = np.array([1.0, 2.0, 1.0, 1.0, 1.0])
        x = solve_lp(c, a, b)
        assert x.sum() == pytest.approx(1.0, abs=1e-9)

    def test_random_against_enumeration(self, rng):
        for _ in range(60):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(1, 5))
            a = rng.standard_normal((m, n))
            b = rng.standard_normal(m) + 1.0
            c = rng.standard_normal(n) ** 2 + 0.1  # positive costs keep it bounded
            # Enumerate over x >= 0 explicitly to get the oracle optimum.
            f_mat = np.vstack([a, -np.eye(n)])
            h = np.concatenate([b, np.zeros(n)])
            feasible = np.all(b >= -1e-12)
            try:
                x = solve_lp(c, a, b)
            except SolverError:
                assert not feasible
                continue
            val, _ = _lp_oracle(c, f_mat, h, n)
            assert c @ x == pytest.approx(val, abs=1e-7)

    def test_mixed_signs_against_enumeration(self, rng):
        # Mixed-sign c needs the primal phase after the dual one; the x <= 3
        # rows keep every instance bounded, so each is optimal or infeasible.
        outcomes = {"optimal": 0, "infeasible": 0}
        for _ in range(300):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(1, 5))
            a = np.vstack([rng.standard_normal((m, n)), np.eye(n)])
            b = np.concatenate([rng.standard_normal(m), np.full(n, 3.0)])
            c = rng.standard_normal(n)
            val, _ = _lp_oracle(c, np.vstack([a, -np.eye(n)]), np.append(b, np.zeros(n)), n)
            if not np.isfinite(val):
                with pytest.raises(SolverError):
                    solve_lp(c, a, b)
                outcomes["infeasible"] += 1
                continue
            x = solve_lp(c, a, b)
            assert c @ x == pytest.approx(val, abs=1e-7)
            assert np.all(a @ x <= b + 1e-8) and np.all(x >= -1e-8)
            outcomes["optimal"] += 1
        assert min(outcomes.values()) > 50

    def test_cycling_instance_terminates(self):
        # Chvatal's instance, on which steepest pricing with smallest-label
        # ties cycles through degenerate vertices; the Bland fallback ends it.
        c = np.array([-10.0, 57.0, 9.0, 24.0])
        a = np.array([[0.5, -5.5, -2.5, 9.0], [0.5, -1.5, -0.5, 1.0], [1.0, 0.0, 0.0, 0.0]])
        b = np.array([0.0, 0.0, 1.0])
        assert np.allclose(solve_lp(c, a, b), [1.0, 0.0, 1.0, 0.0], atol=1e-9)


def _box_programmes(gram, targets, widths_grid):
    """The split-variable box LPs (c, A, b) that ``solve_l1_box`` builds."""
    a_ub = np.block([[gram, -gram], [-gram, gram]])
    c = np.ones(a_ub.shape[1])
    for width in widths_grid:
        for target in targets.T:
            yield c, a_ub, np.concatenate([target + width, width - target])


class TestStrongDuality:
    """Primal and dual optima of the pipeline's programmes sum to zero.

    For min c@x s.t. A x <= b, x >= 0 the dual is min b@y s.t. -A'y <= c,
    y >= 0, so c@x + b@y = 0 at the optima. The primal solve runs the dual
    phase; the dual solve, whose costs b have mixed signs, the primal one.
    """

    @staticmethod
    def _check(programmes):
        infeasible = 0
        for c, a, b in programmes:
            try:
                x = solve_lp(c, a, b)
            except SolverError:
                # An infeasible primal has an unbounded dual.
                with pytest.raises(SolverError):
                    solve_lp(b, -a.T, c)
                infeasible += 1
                continue
            y = solve_lp(b, -a.T, c)
            assert abs(c @ x + b @ y) <= 1e-8 * max(1.0, abs(c @ x))
            assert np.all(a @ x <= b + 1e-8) and np.all(x >= 0.0)
            assert np.all(-a.T @ y <= c + 1e-8) and np.all(y >= 0.0)
        return infeasible

    def test_clime_and_ds_programmes_p20(self):
        sim = sim_var(SimSpec(n=300, p=20, seed=3))
        acv = sample_acv(make_panel(sim.data, center=True), 2)
        sys1 = build_yule_walker(acv, 1)
        gamma = innovation_covariance(acv, fit_var(sys1, "lasso", lambda_grid(sys1, 10, "ds")[5]))
        assert self._check(_box_programmes(gamma, np.eye(20), eta_grid(gamma, 10))) == 0
        sys2 = build_yule_walker(acv, 2)
        ds = _box_programmes(sys2.gram, sys2.cross, lambda_grid(sys2, 10, "ds"))
        assert self._check(ds) == 0

    def test_singular_covariance_infeasible_both_ways(self, rng):
        # A rank-10 covariance at p=20: e_j is out of its range, so the
        # narrow constraint widths admit no solution.
        draws = rng.standard_normal((10, 20))
        gamma = draws.T @ draws / 10
        assert self._check(_box_programmes(gamma, np.eye(20), eta_grid(gamma, 10))) > 0


def _lp_oracle(c, f_mat, h, n):
    """Enumerate active sets for min c@x over f_mat x <= h (last n rows are x >= 0)."""
    import itertools

    rows = f_mat.shape[0]
    best, best_x = np.inf, None
    for active in itertools.combinations(range(rows), n):
        mat = f_mat[list(active)]
        if abs(np.linalg.det(mat)) < 1e-10:
            continue
        x = np.linalg.solve(mat, h[list(active)])
        if np.all(f_mat @ x <= h + 1e-9):
            val = float(c @ x)
            if val < best:
                best, best_x = val, x
    return best, best_x


class TestL1Solvers:
    def test_box_matches_oracle(self, rng):
        for _ in range(60):
            d = int(rng.integers(1, 4))
            a = rng.standard_normal((d, d))
            gram = a @ a.T + 0.3 * np.eye(d)
            target = rng.standard_normal(d)
            lam = float(rng.uniform(0.05, 0.6))
            got = solve_l1_box(gram, target, np.full(d, lam))
            val, _ = dantzig_column_oracle(gram, target, lam)
            assert np.abs(got).sum() == pytest.approx(val, abs=1e-7)
            assert np.max(np.abs(gram @ got - target)) <= lam + 1e-8

    def test_general_matches_oracle(self, rng):
        for _ in range(40):
            d = int(rng.integers(1, 4))
            rows = int(rng.integers(d, 2 * d + 2))
            f_mat = rng.standard_normal((rows, d))
            interior = rng.standard_normal(d)
            h = f_mat @ interior + rng.uniform(0.1, 1.0, rows)
            got = solve_l1_general(f_mat, h)
            val, _ = min_l1_over_polytope(f_mat, h)
            assert np.abs(got).sum() == pytest.approx(val, abs=1e-7)
            assert np.all(f_mat @ got <= h + 1e-8)
