import numpy as np
import pytest

from conftest import make_panel
from fnets import precision, simplex, var
from fnets.errors import SolverError
from fnets.panel import sample_acv
from fnets.precision import aclime, aclime_step_one, clime
from fnets.simplex import solve_l1_box, solve_l1_general, solve_lp
from fnets.simulate import SimSpec, sim_var
from fnets.tuning import eta_grid, fit_var, lambda_grid
from fnets.var import build_yule_walker, dantzig_lp, innovation_covariance
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
        gamma = innovation_covariance(sys1, fit_var(sys1, "lasso", lambda_grid(sys1, 10, "ds")[5]).beta)
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


def _p20_programmes():
    """The p = 20 CLIME covariance and order-2 DS system of the duality test."""
    sim = sim_var(SimSpec(n=300, p=20, seed=3))
    acv = sample_acv(make_panel(sim.data, center=True), 2)
    sys1 = build_yule_walker(acv, 1)
    gamma = innovation_covariance(sys1, fit_var(sys1, "lasso", lambda_grid(sys1, 10, "ds")[5]).beta)
    return gamma, build_yule_walker(acv, 2)


def _reduced_costs(c, a, basis):
    """Reduced costs of the nonbasic variables of ``basis`` for [A, I]."""
    m, n = a.shape
    full_a = np.hstack([a, np.eye(m)])
    full_c = np.concatenate([c, np.zeros(m)])
    nonbasic = np.setdiff1d(np.arange(n + m), basis)
    tab = np.linalg.solve(full_a[:, basis], full_a[:, nonbasic])
    return full_c[nonbasic] - full_c[basis] @ tab


class TestWarmStartedPaths:
    """Each column re-solved from its previous optimal basis along a width path.

    Degenerate programmes have several optimal vertices, so warm and cold
    solves are compared on the l1 objective, and every warm vertex on
    feasibility.
    """

    @staticmethod
    def _checked(monkeypatch, module):
        """Replace ``module.solve_l1_box`` by one that checks each warm solve
        against a cold solve of the same programme."""
        solved = []

        def checked(a_mat, rhs, widths, bases=None):
            assert bases is not None
            try:
                warm = solve_l1_box(a_mat, rhs, widths, bases)
            except SolverError:
                with pytest.raises(SolverError):
                    solve_l1_box(a_mat, rhs, widths)
                raise
            cold = solve_l1_box(a_mat, rhs, widths)
            bound = np.broadcast_to(widths, rhs.shape)
            assert np.all(np.abs(a_mat @ warm - rhs) <= bound + 1e-8)
            l1_warm, l1_cold = np.abs(warm).sum(axis=0), np.abs(cold).sum(axis=0)
            assert np.all(np.abs(l1_warm - l1_cold) <= 1e-9 * np.maximum(1.0, l1_cold))
            solved.append(rhs.shape[1])
            return warm

        monkeypatch.setattr(module, "solve_l1_box", checked)
        return solved

    def test_clime_path_p20(self, monkeypatch):
        gamma, _ = _p20_programmes()
        solved = self._checked(monkeypatch, precision)
        bases = {}
        for eta in eta_grid(gamma, 10):
            clime(gamma, float(eta), bases)
        assert solved == [20] * 10
        # The path left each column at a basis with structurals in it.
        assert all(np.any(labels < 40) for labels in bases.values())

    def test_aclime_step_two_path_p20(self, monkeypatch):
        gamma, _ = _p20_programmes()
        step_one = aclime_step_one(gamma, 150)
        solved = self._checked(monkeypatch, precision)
        bases = {}
        for eta in eta_grid(gamma, 10):
            try:
                aclime(gamma, float(eta), 150, step_one, bases)
            except SolverError:
                pass  # the cold solve was checked to fail as well
        assert len(solved) >= 8

    def test_dantzig_path_p20(self, monkeypatch):
        _, sys2 = _p20_programmes()
        solved = self._checked(monkeypatch, var)
        bases = {}
        for lam in lambda_grid(sys2, 10, "ds"):
            dantzig_lp(sys2, float(lam), bases)
        assert solved == [20] * 10

    def test_one_solve_per_column_per_grid_point(self, monkeypatch):
        gamma, sys2 = _p20_programmes()
        calls = []
        inner = simplex.solve_lp

        def counted(*args, **kwargs):
            calls.append(1)
            return inner(*args, **kwargs)

        monkeypatch.setattr(simplex, "solve_lp", counted)
        for fit, grid in (
            (lambda eta, bases: clime(gamma, eta, bases), eta_grid(gamma, 10)),
            (lambda lam, bases: dantzig_lp(sys2, lam, bases), lambda_grid(sys2, 10, "ds")),
        ):
            bases = {}
            for value in grid:
                calls.clear()
                fit(float(value), bases)
                assert len(calls) == 20

    def test_foreign_dual_infeasible_basis_falls_back(self, rng):
        # An optimal basis of one box programme, handed to another of the
        # same shape whose reduced costs at that basis are negative.
        d = 6
        c = np.ones(2 * d)
        found = 0
        for _ in range(50):
            grams = []
            for _ in range(2):
                draws = rng.standard_normal((d, d))
                grams.append(draws @ draws.T + 0.3 * np.eye(d))
            a1, a2 = (np.block([[g, -g], [-g, g]]) for g in grams)
            target = rng.standard_normal(d)
            b = np.concatenate([target + 0.1, 0.1 - target])
            basis = 2 * d + np.arange(2 * d)
            solve_lp(c, a1, b, basis)
            try:
                costs = _reduced_costs(c, a2, basis)
            except np.linalg.LinAlgError:
                continue
            if costs.min() >= -1e-6:
                continue
            found += 1
            got = solve_lp(c, a2, b, basis)
            cold = solve_lp(c, a2, b)
            assert c @ got == pytest.approx(c @ cold, rel=1e-9)
            assert np.all(a2 @ got <= b + 1e-8) and np.all(got >= 0.0)
            # The basis now names an optimal vertex of the second programme.
            assert _reduced_costs(c, a2, basis).min() >= -1e-9
        assert found >= 10

    def test_invalid_basis_falls_back(self):
        # A repeated label leaves no square basis matrix to rebuild from.
        c = np.array([1.0, 1.0])
        a = np.array([[-1.0, 0.0], [0.0, -1.0]])
        b = np.array([-2.0, -3.0])
        basis = np.array([0, 0])
        assert np.allclose(solve_lp(c, a, b, basis), [2.0, 3.0], atol=1e-9)
        assert sorted(basis.tolist()) == [0, 1]


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
