import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fnets.errors import DataError
from fnets.precision import (
    aclime,
    clime,
    partial_correlations,
    precision_fit,
    symmetrise_min_modulus,
)
from fnets.var import VarFit
from oracles import aclime_oracle, clime_column_oracle


class TestClime:
    def test_identity_shrinkage(self):
        delta = clime(np.eye(5), 0.1)
        assert np.max(np.abs(delta - 0.9 * np.eye(5))) <= 1e-8

    def test_wide_constraint_gives_zero(self):
        delta = clime(np.eye(3), 1.0)
        assert np.all(delta == 0.0)

    def test_diagonal_closed_form(self, rng):
        for _ in range(10):
            d = rng.uniform(0.5, 3.0, 4)
            eta = float(rng.uniform(0.05, 0.4))
            delta = clime(np.diag(d), eta)
            expect = np.diag(np.maximum(1.0 - eta, 0.0) / d)
            assert np.max(np.abs(delta - expect)) <= 1e-8

    def test_feasibility_before_symmetrisation(self, rng):
        for _ in range(20):
            a = rng.standard_normal((4, 4))
            gamma = a @ a.T + 0.5 * np.eye(4)
            eta = float(rng.uniform(0.05, 0.5))
            raw = np.empty((4, 4))
            from fnets.simplex import solve_l1_box

            for j in range(4):
                raw[:, j] = solve_l1_box(gamma, np.eye(4)[:, j], np.full(4, eta))
            assert np.max(np.abs(gamma @ raw - np.eye(4))) <= eta + 1e-8

    def test_matches_enumeration_small(self, rng):
        for _ in range(15):
            a = rng.standard_normal((3, 3))
            gamma = a @ a.T + 0.4 * np.eye(3)
            gamma = (gamma + gamma.T) / 2.0
            eta = float(rng.uniform(0.05, 0.4))
            fit = clime(gamma, eta)
            raw_l1 = []
            from fnets.simplex import solve_l1_box

            for j in range(3):
                col = solve_l1_box(gamma, np.eye(3)[:, j], np.full(3, eta))
                val, _ = clime_column_oracle(gamma, j, eta)
                assert np.abs(col).sum() == pytest.approx(val, abs=1e-6)


class TestSymmetrise:
    def test_smaller_modulus_wins(self):
        out = symmetrise_min_modulus(np.array([[1.0, 0.5], [0.2, 1.0]]))
        assert out[0, 1] == out[1, 0] == 0.2

    def test_symmetric_input_unchanged(self, rng):
        mat = rng.standard_normal((4, 4))
        mat = (mat + mat.T) / 2.0
        assert np.array_equal(symmetrise_min_modulus(mat), mat)

    def test_tie_keeps_upper_entry(self):
        out = symmetrise_min_modulus(np.array([[1.0, -0.3], [0.3, 1.0]]))
        assert out[0, 1] == out[1, 0] == -0.3

    @given(arrays(np.float64, (4, 4), elements=st.floats(-2, 2)))
    @settings(max_examples=100, deadline=None)
    def test_symmetric_and_no_larger(self, mat):
        out = symmetrise_min_modulus(mat)
        assert np.array_equal(out, out.T)
        cap = np.maximum(np.abs(mat), np.abs(mat.T))
        assert np.all(np.abs(out) <= cap + 1e-15)


class TestAclime:
    def test_eta1_formula(self):
        assert 2 * math.sqrt(math.log(4) / 100) == pytest.approx(0.2355, abs=2e-4)

    def test_identity_matches_oracle(self):
        got = aclime(np.eye(3), 0.5, 100)
        ref = aclime_oracle(np.eye(3), 0.5, 100)
        assert np.max(np.abs(got - ref)) <= 1e-6

    def test_diagonal_truncation_rule(self):
        # A huge diagonal entry gets replaced by sqrt(log p / n) in step one.
        gamma = np.diag([1e6, 1.0, 1.0, 1.0])
        n, p = 100, 4
        cut = math.sqrt(n / math.log(p))
        assert 1e6 > cut
        expect = math.sqrt(math.log(p) / n)
        assert expect == pytest.approx(0.1177, abs=2e-4)
        assert aclime(gamma, 0.5, n).shape == (p, p)

    def test_random_matches_oracle(self, rng):
        for _ in range(8):
            a = rng.standard_normal((3, 3))
            gamma = a @ a.T + 0.6 * np.eye(3)
            gamma = (gamma + gamma.T) / 2.0
            got = aclime(gamma, 0.6, 80)
            ref = aclime_oracle(gamma, 0.6, 80)
            assert np.max(np.abs(got - ref)) <= 1e-6

    def test_nonpositive_diagonal_rejected(self):
        gamma = np.diag([1.0, -0.5])
        with pytest.raises(DataError):
            aclime(gamma, 0.5, 50)


class TestLongrunPrecision:
    def test_zero_transitions(self):
        fit = VarFit(order=1, beta=np.zeros((3, 3)), method="lasso", lam=0.1)
        out = precision_fit(fit, np.eye(3) * 2.0, 0.1, False)
        assert np.max(np.abs(out.longrun_precision - 2 * np.pi * 2.0 * np.eye(3))) <= 1e-12

    def test_scalar_value(self):
        fit = VarFit(order=1, beta=np.array([[0.5]]), method="lasso", lam=0.1)
        out = precision_fit(fit, np.array([[2.0]]), 0.1, False)
        assert out.longrun_precision[0, 0] == pytest.approx(np.pi)

    def test_psd_preserved(self, rng):
        for _ in range(20):
            a = rng.standard_normal((3, 3))
            delta = a @ a.T + 0.1 * np.eye(3)
            beta = rng.uniform(-0.3, 0.3, (3, 3))
            fit = VarFit(order=1, beta=beta, method="lasso", lam=0.1)
            out = precision_fit(fit, delta, 0.1, False)
            assert np.linalg.eigvalsh(out.longrun_precision).min() >= -1e-10

    def test_definitional_recomputation(self, rng):
        beta = rng.uniform(-0.2, 0.2, (4, 2))
        fit = VarFit(order=2, beta=beta, method="ds", lam=0.1)
        delta = np.eye(2) + 0.1
        out = precision_fit(fit, delta, 0.1, False)
        a_one = out.lag_polynomial_at_one
        expect = 2 * np.pi * a_one.T @ delta @ a_one
        assert np.max(np.abs(out.longrun_precision - (expect + expect.T) / 2)) <= 1e-10

    def test_every_field_filled(self, rng):
        a = rng.standard_normal((3, 3))
        delta = a @ a.T + 0.5 * np.eye(3)
        fit = VarFit(order=1, beta=rng.uniform(-0.3, 0.3, (3, 3)), method="lasso", lam=0.1)
        out = precision_fit(fit, delta, 0.25, True)
        assert np.array_equal(out.innovation_precision, delta)
        assert (out.eta, out.adaptive) == (0.25, True)
        assert np.array_equal(out.lag_polynomial_at_one, np.eye(3) - fit.lag_matrix(1))
        assert np.array_equal(out.partial_cor, partial_correlations(delta))
        assert np.array_equal(
            out.longrun_partial_cor, partial_correlations(out.longrun_precision)
        )

    def test_asymmetric_delta_rejected(self):
        fit = VarFit(order=1, beta=np.zeros((2, 2)), method="lasso", lam=0.1)
        with pytest.raises(DataError, match="innovation precision"):
            precision_fit(fit, np.array([[1.0, 0.5], [0.0, 1.0]]), 0.1, False)


class TestPartialCorrelations:
    def test_two_by_two(self):
        out = partial_correlations(np.array([[1.0, 0.5], [0.5, 1.0]]))
        assert out[0, 1] == pytest.approx(-0.5)
        assert out[0, 0] == out[1, 1] == 1.0

    def test_diagonal_input(self):
        out = partial_correlations(np.diag([2.0, 3.0, 4.0]))
        assert np.array_equal(out, np.eye(3))

    def test_scaled_formula(self):
        # -M_ij / sqrt(M_ii M_jj) evaluated by hand: -(-2)/sqrt(4*1) = 1.
        out = partial_correlations(np.array([[4.0, -2.0], [-2.0, 1.0]]))
        assert out[0, 1] == pytest.approx(1.0)

    def test_nonpositive_diagonal_rejected(self):
        with pytest.raises(DataError):
            partial_correlations(np.array([[0.0, 0.1], [0.1, 1.0]]))

    def test_pipeline_guard_on_bad_diagonal(self):
        bad = np.array([[-0.5, 0.1], [0.1, 1.0]])
        fit = VarFit(order=1, beta=np.zeros((2, 2)), method="lasso", lam=0.1)
        prec = precision_fit(fit, bad, 0.1, False)
        assert prec.partial_cor is None
        assert prec.longrun_partial_cor is None
        assert np.array_equal(prec.longrun_precision, 2 * np.pi * bad)

    def test_infeasible_column_named(self):
        from fnets.errors import SolverError

        singular = np.array([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(SolverError, match="column 1"):
            clime(singular, 0.01)

    def test_bounded_for_positive_definite(self, rng):
        for _ in range(100):
            a = rng.standard_normal((4, 4))
            mat = a @ a.T + 0.2 * np.eye(4)
            mat = (mat + mat.T) / 2.0
            assert np.linalg.eigvalsh(mat).min() > 0
            out = partial_correlations(mat)
            assert np.all(np.abs(out) <= 1.0 + 1e-12)
            assert np.array_equal(out, out.T)
