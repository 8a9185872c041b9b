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


def _one_sided(a, lower, upper):
    """The rows lower <= a v <= upper as f v <= h, for the enumeration oracle."""
    lo, up = np.isfinite(lower), np.isfinite(upper)
    return np.vstack([a[up], -a[lo]]), np.concatenate([upper[up], -lower[lo]])


class TestSolveLp:
    def test_negative_rhs_needs_phase_one(self):
        # v1 >= 2 and v2 >= 3: both rows start infeasible at v = 0, and the
        # dual simplex leaves the all-logical start with no phase one.
        v = solve_lp(np.eye(2), np.array([2.0, 3.0]), np.full(2, np.inf))
        assert np.allclose(v, [2.0, 3.0], atol=1e-9)

    def test_infeasible_detected(self):
        # v <= 1 and v >= 2 cannot both hold, as ranged or as one-sided rows.
        with pytest.raises(SolverError):
            solve_lp(np.ones((2, 1)), np.array([0.0, 2.0]), np.array([1.0, 3.0]))
        with pytest.raises(SolverError):
            solve_lp(np.array([[1.0], [-1.0]]), np.full(2, -np.inf), np.array([1.0, -2.0]))

    def test_degenerate_instance_terminates(self):
        # Redundant rows, and two rows through the origin active at the optimum.
        a = np.array([[1.0, 1.0], [2.0, 2.0], [1.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
        lower = np.array([1.0, 2.0, 1.0, 0.0, 0.0])
        upper = np.array([3.0, 6.0, np.inf, 1.0, 1.0])
        v = solve_lp(a, lower, upper)
        assert np.abs(v).sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(v >= -1e-12)

    def test_random_against_enumeration(self, rng):
        outcomes = {"optimal": 0, "infeasible": 0}
        for _ in range(200):
            d = int(rng.integers(1, 4))
            k = int(rng.integers(1, 6))
            a = rng.standard_normal((k, d))
            centre = 2.0 * rng.standard_normal(k)
            lower = centre - rng.uniform(0.0, 1.0, k)
            upper = centre + rng.uniform(0.0, 1.0, k)
            lower[rng.random(k) < 0.3] = -np.inf  # some one-sided rows
            val, _ = min_l1_over_polytope(*_one_sided(a, lower, upper))
            if not np.isfinite(val):
                with pytest.raises(SolverError):
                    solve_lp(a, lower, upper)
                outcomes["infeasible"] += 1
                continue
            v = solve_lp(a, lower, upper)
            assert np.abs(v).sum() == pytest.approx(val, abs=1e-7)
            assert np.all(a @ v >= lower - 1e-8) and np.all(a @ v <= upper + 1e-8)
            outcomes["optimal"] += 1
        assert min(outcomes.values()) > 30

    def test_cycling_instance_terminates(self, rng, monkeypatch):
        # Integer rows along a few shared directions, some of zero width, make
        # many pivots degenerate. At a stall limit of 1 each degenerate pivot
        # reaches the switch to Bland's rule, which the limit records, and
        # every instance still ends at the enumerated optimum.
        reached = []

        class Limit(int):
            def __le__(self, stall):  # evaluates ``stall >= _STALL_LIMIT``
                reached.append(stall >= int(self))
                return reached[-1]

        monkeypatch.setattr(simplex, "_STALL_LIMIT", Limit(1))
        for _ in range(300):
            d, k = int(rng.integers(2, 4)), int(rng.integers(3, 7))
            directions = rng.integers(-1, 2, (int(rng.integers(1, 3)), d))
            a = (directions[rng.integers(0, directions.shape[0], k)] * rng.integers(1, 3, (k, 1)))
            a = (a + (rng.random((k, d)) < 0.2) * rng.integers(-1, 2, (k, d))).astype(float)
            centre = rng.integers(-1, 2, k).astype(float)
            lower, upper = centre - rng.integers(0, 2, k), centre + rng.integers(0, 2, k)
            val, _ = min_l1_over_polytope(*_one_sided(a, lower, upper))
            if not np.isfinite(val):
                with pytest.raises(SolverError):
                    solve_lp(a, lower, upper)
                continue
            assert np.abs(solve_lp(a, lower, upper)).sum() == pytest.approx(val, abs=1e-7)
        assert sum(reached) >= 20


class TestStrongDuality:
    """Every vertex comes with row duals y that prove it optimal.

    For min |v|_1 s.t. lower <= A v <= upper the dual is max sum(lower y+ -
    upper y-) s.t. |A'y|_inf <= 1. The checks here are tighter than the
    solver's own certificate and add complementary slackness: y_j > 0 only
    on a row at its lower bound, y_j < 0 only on a row at its upper.
    """

    @staticmethod
    def _checked(monkeypatch):
        seen = []
        inner = simplex._certify

        def check(a, lower, upper, v, y):
            inner(a, lower, upper, v, y)
            act = a @ v
            tol = 1e-9 * max(1.0, np.abs(np.concatenate([lower, upper])).max())
            assert np.all(act >= lower - tol) and np.all(act <= upper + tol)
            assert np.abs(a.T @ y).max(initial=0.0) <= 1.0 + 1e-9
            dual = lower[y > 0] @ y[y > 0] + upper[y < 0] @ y[y < 0]
            assert dual == pytest.approx(np.abs(v).sum(), rel=1e-9, abs=1e-12)
            assert np.all(act[y > 0] <= lower[y > 0] + tol)
            assert np.all(act[y < 0] >= upper[y < 0] - tol)
            seen.append(v.size)

        monkeypatch.setattr(simplex, "_certify", check)
        return seen

    def test_clime_and_ds_programmes_p20(self, monkeypatch):
        # Every grid point of the CLIME, ACLIME step-two and DS programmes,
        # solved cold and along warm-started paths.
        gamma, sys2 = _p20_programmes()
        step_one = aclime_step_one(gamma, 150)
        seen = self._checked(monkeypatch)
        for warm in (False, True):
            bases = [{} if warm else None for _ in range(3)]
            for eta in eta_grid(gamma, 10):
                clime(gamma, float(eta), bases[0])
                aclime(gamma, float(eta), 150, step_one, bases[1])
            for lam in lambda_grid(sys2, 10, "ds"):
                dantzig_lp(sys2, float(lam), bases[2])
        # DS at order 2 has 40 unknowns per column.
        assert seen == ([20] * 400 + [40] * 200) * 2

    def test_certificate_rejects_a_suboptimal_vertex(self):
        # v = (2, 2) satisfies v1 + v2 >= 2 but is not optimal: no dual closes
        # the gap, while the optimum (1, 1) closes it with y = 1.
        a, lower, upper = np.ones((1, 2)), np.array([2.0]), np.array([np.inf])
        simplex._certify(a, lower, upper, np.array([1.0, 1.0]), np.array([1.0]))
        with pytest.raises(SolverError, match="duality"):
            simplex._certify(a, lower, upper, np.array([2.0, 2.0]), np.array([1.0]))
        with pytest.raises(SolverError, match="feasibility"):
            simplex._certify(a, lower, upper, np.array([0.5, 0.5]), np.array([1.0]))

    def test_singular_covariance_infeasible_both_ways(self, rng):
        # A rank-10 covariance at p=20: e_j is out of its range, so narrow
        # widths admit no solution. By Farkas' lemma the rows |gamma v - e_j|
        # <= eta are infeasible exactly when some y with gamma y = 0 has
        # y_j - eta |y|_1 > 0, i.e. when eta * m_j < 1 for m_j = min |y|_1
        # over gamma y = 0, y_j = 1: itself an l1 programme.
        draws = rng.standard_normal((10, 20))
        gamma = draws.T @ draws / 10
        span = np.linalg.eigh(gamma)[1][:, 10:]
        infeasible = 0
        for j in range(20):
            rows = np.vstack([span.T, np.eye(20)[j]])
            fix = np.append(np.zeros(10), 1.0)
            m_j = np.abs(solve_lp(rows, fix, fix)).sum()
            for eta in eta_grid(gamma, 10):
                if abs(eta * m_j - 1.0) < 1e-6:
                    continue
                if eta * m_j < 1.0:
                    with pytest.raises(SolverError):
                        solve_l1_box(gamma, np.eye(20)[:, j], eta)
                    infeasible += 1
                else:
                    solve_l1_box(gamma, np.eye(20)[:, j], eta)
        assert infeasible > 0


def _p20_programmes():
    """The p = 20 CLIME covariance and order-2 DS system of the duality test."""
    sim = sim_var(SimSpec(n=300, p=20, seed=3))
    acv = sample_acv(make_panel(sim.data, center=True), 2)
    sys1 = build_yule_walker(acv, 1)
    gamma = innovation_covariance(sys1, fit_var(sys1, "lasso", lambda_grid(sys1, 10, "ds")[5]).beta)
    return gamma, build_yule_walker(acv, 2)


def _state_duals(a, labels):
    """Row duals of a warm state: 0 on the basic logicals, and on the other
    rows the solution of (A'y)_i = +1 or -1 for each basic v_i above or
    below 0."""
    d = a.shape[1]
    v_labels = labels[labels < 2 * d]
    rows = np.setdiff1d(np.arange(a.shape[0]), labels - 2 * d)
    y = np.zeros(a.shape[0])
    y[rows] = np.linalg.solve(a[np.ix_(rows, v_labels % d)].T, np.where(v_labels < d, 1.0, -1.0))
    return y


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
        # The optimal state of one box programme, handed to another of the
        # same shape at which its row duals break |A'y|_inf <= 1.
        d = 6
        found = 0
        for _ in range(150):
            grams = []
            for _ in range(2):
                draws = rng.standard_normal((d, d))
                grams.append(draws @ draws.T + 0.3 * np.eye(d))
            target = rng.standard_normal(d)
            lower, upper = target - 0.1, target + 0.1
            state = 2 * d + np.arange(d)
            solve_lp(grams[0], lower, upper, state)
            try:
                breach = np.abs(grams[1].T @ _state_duals(grams[1], state)).max() - 1.0
            except np.linalg.LinAlgError:
                continue
            if breach <= 1e-6:
                continue
            found += 1
            got = solve_lp(grams[1], lower, upper, state)
            cold = solve_lp(grams[1], lower, upper)
            assert np.abs(got).sum() == pytest.approx(np.abs(cold).sum(), rel=1e-9)
            assert np.all(np.abs(grams[1] @ got - target) <= 0.1 + 1e-8)
            # The state now names an optimal vertex of the second programme.
            assert np.abs(grams[1].T @ _state_duals(grams[1], state)).max() <= 1.0 + 1e-9
        assert found >= 10

    def test_invalid_basis_falls_back(self):
        # A repeated label leaves no square block to rebuild from.
        basis = np.array([0, 0])
        v = solve_lp(np.eye(2), np.array([2.0, 3.0]), np.full(2, np.inf), basis)
        assert np.allclose(v, [2.0, 3.0], atol=1e-9)
        assert sorted(basis.tolist()) == [0, 1]


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
