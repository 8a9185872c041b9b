import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from fnets.errors import DimensionError
from fnets.panel import AcvSequence
from fnets.var import (
    YuleWalkerSystem,
    build_yule_walker,
    dantzig_lp,
    innovation_covariance,
    kkt_residual,
    lasso_fista,
    threshold_matrix,
)
from fnets.tuning import lambda_grid
from oracles import coordinate_descent_lasso, dantzig_column_oracle, reference_lasso_fista


def scalar_seq(values):
    arr = np.array(values, dtype=float).reshape(-1, 1, 1)
    return AcvSequence(arr)


def random_system(rng, p=3, order=2, n=120):
    """A well-conditioned moment system from a synthetic stable VAR."""
    from conftest import make_panel
    from fnets.panel import sample_acv

    a = rng.uniform(-0.25, 0.25, (p, p))
    x = np.zeros((p, n + 50))
    eps = rng.standard_normal((p, n + 50))
    for t in range(1, n + 50):
        x[:, t] = a @ x[:, t - 1] + eps[:, t]
    acv = sample_acv(make_panel(x[:, 50:]), order)
    return AcvSequence(acv.matrices)


class TestYuleWalker:
    def test_single_block(self):
        seq = scalar_seq([1.0, 0.5])
        sys = build_yule_walker(seq, 1)
        assert sys.gram.tolist() == [[1.0]]
        assert sys.cross.tolist() == [[0.5]]

    def test_two_block_scalar(self):
        seq = scalar_seq([1.0, 0.5, 0.25])
        sys = build_yule_walker(seq, 2)
        assert sys.gram.tolist() == [[1.0, 0.5], [0.5, 1.0]]
        assert sys.cross.tolist() == [[0.5], [0.25]]

    def test_gram_exactly_symmetric(self, rng):
        for _ in range(30):
            seq = random_system(rng, p=3, order=3)
            sys = build_yule_walker(seq, 3)
            assert np.array_equal(sys.gram, sys.gram.T)

    def test_insufficient_lags(self):
        with pytest.raises(DimensionError):
            build_yule_walker(scalar_seq([1.0, 0.5]), 2)


class TestLassoFista:
    def test_zero_above_penalty_bound(self, rng):
        sys = build_yule_walker(random_system(rng), 2)
        lam = 2.0 * np.max(np.abs(sys.cross)) + 1e-6
        fit = lasso_fista(sys, lam)
        assert np.all(fit.beta == 0.0)

    def test_scalar_closed_form(self):
        sys = build_yule_walker(scalar_seq([1.0, 0.5]), 1)
        fit = lasso_fista(sys, 0.2, max_iter=2000, tol=1e-14)
        assert fit.beta[0, 0] == pytest.approx(0.4, abs=1e-6)

    def test_diagonal_closed_form_verified_by_oracle(self):
        gram = np.diag([1.0, 2.0])
        cross = np.array([[0.5], [0.2]])
        seq_sys = YuleWalkerSystem(order=1, gram=gram, cross=cross)
        fit = lasso_fista(seq_sys, 0.2, max_iter=5000, tol=1e-15)
        oracle = coordinate_descent_lasso(gram, cross, 0.2)
        closed = np.sign(cross) * np.maximum(np.abs(cross) - 0.1, 0) / np.diag(gram)[:, None]
        assert np.max(np.abs(oracle - closed)) <= 1e-10
        assert np.max(np.abs(fit.beta - closed)) <= 1e-6

    def test_objective_endpoint_dominance(self, rng):
        for _ in range(20):
            sys = build_yule_walker(random_system(rng), 2)
            lam = float(rng.uniform(0.05, 0.5))
            fit = lasso_fista(sys, lam)
            trace = fit.objective_trace
            at_zero = 0.0
            assert trace[-1] <= at_zero + 1e-12 or min(trace) <= at_zero + 1e-12
            final = min(trace)
            assert final <= trace[0] + 1e-12

    def test_kkt_residual_small_instances(self, rng):
        for _ in range(20):
            sys = build_yule_walker(random_system(rng, p=2, order=1), 1)
            lam = float(rng.uniform(0.1, 0.4))
            fit = lasso_fista(sys, lam, max_iter=5000, tol=1e-14)
            assert kkt_residual(sys, fit.beta, lam) <= 1e-4

    def test_matches_coordinate_descent(self, rng):
        for _ in range(10):
            sys = build_yule_walker(random_system(rng, p=3, order=1), 1)
            lam = float(rng.uniform(0.05, 0.3))
            fit = lasso_fista(sys, lam, max_iter=8000, tol=1e-15)
            oracle = coordinate_descent_lasso(sys.gram, sys.cross, lam)
            assert np.max(np.abs(fit.beta - oracle)) <= 1e-5


def system_with_spectrum(rng, vals):
    """Order-1 moment system whose symmetric gram matrix has eigenvalues ``vals``."""
    k = len(vals)
    vecs, _ = np.linalg.qr(rng.standard_normal((k, k)))
    gram = (vecs * np.asarray(vals)) @ vecs.T
    return YuleWalkerSystem(order=1, gram=(gram + gram.T) / 2.0, cross=0.3 * np.eye(k))


class TestPreparedGram:
    def test_matches_reference_solver_bit_for_bit(self, rng):
        for order in (1, 2):
            for shift in (0.0, 0.05):
                for _ in range(5):
                    sys = build_yule_walker(random_system(rng, p=3, order=order), order)
                    if shift:
                        # A real negative eigenvalue, so both solvers clip.
                        low = np.linalg.eigvalsh(sys.gram)[0]
                        sys = YuleWalkerSystem(
                            order=order,
                            gram=sys.gram - (low + shift) * np.eye(sys.gram.shape[0]),
                            cross=sys.cross,
                        )
                    for lam in lambda_grid(sys, 4, "lasso")[1:]:
                        ref = reference_lasso_fista(sys, float(lam))
                        fit = lasso_fista(sys, float(lam))
                        assert fit.gram_clipped is ref.gram_clipped is bool(shift)
                        assert np.array_equal(fit.beta, ref.beta)
                        assert len(fit.objective_trace) == len(ref.objective_trace)

    def test_one_eigendecomposition_per_system(self, rng, monkeypatch):
        calls = []
        eigh = np.linalg.eigh

        def counted(a, *args, **kwargs):
            calls.append(a.shape)
            return eigh(a, *args, **kwargs)

        sys = build_yule_walker(random_system(rng, p=3, order=2), 2)
        monkeypatch.setattr(np.linalg, "eigh", counted)
        for lam in lambda_grid(sys, 10, "lasso"):
            lasso_fista(sys, float(lam))
        assert calls == [(6, 6)]

    def test_rounding_level_negative_eigenvalue_is_not_clipped(self, rng):
        sys = system_with_spectrum(rng, [2.0, 1.0, -1e-15])
        gram, lip, clipped = sys.prepared
        assert not clipped
        assert np.array_equal(gram, sys.gram)
        assert lip == pytest.approx(4.0, rel=1e-12)
        assert not lasso_fista(sys, 0.1).gram_clipped

    def test_negative_eigenvalue_is_clipped(self, rng):
        sys = system_with_spectrum(rng, [2.0, 1.0, -0.1])
        gram, lip, clipped = sys.prepared
        assert clipped
        vals = np.linalg.eigvalsh(gram)
        assert vals[0] >= -1e-12
        assert vals[1:] == pytest.approx([1.0, 2.0], rel=1e-12)
        assert lip == pytest.approx(4.0, rel=1e-12)
        assert lasso_fista(sys, 0.1).gram_clipped


class TestDantzig:
    def test_zero_when_origin_feasible(self, rng):
        sys = build_yule_walker(random_system(rng), 2)
        lam = np.max(np.abs(sys.cross)) + 1e-9
        fit = dantzig_lp(sys, lam)
        assert np.all(fit.beta == 0.0)

    def test_scalar_interval(self):
        sys = build_yule_walker(scalar_seq([1.0, 0.5]), 1)
        fit = dantzig_lp(sys, 0.2)
        assert fit.beta[0, 0] == pytest.approx(0.3, abs=1e-9)

    def test_matches_vertex_enumeration(self, rng):
        for _ in range(30):
            p = int(rng.integers(1, 3))
            order = int(rng.integers(1, 3))
            if p * order > 4:
                continue
            sys = build_yule_walker(random_system(rng, p=p, order=order), order)
            lam = float(rng.uniform(0.05, 0.4))
            fit = dantzig_lp(sys, lam)
            for j in range(p):
                val, _ = dantzig_column_oracle(sys.gram, sys.cross[:, j], lam)
                assert np.abs(fit.beta[:, j]).sum() == pytest.approx(val, abs=1e-6)

    def test_feasibility_invariant(self, rng):
        for _ in range(20):
            sys = build_yule_walker(random_system(rng), 2)
            lam = float(rng.uniform(0.02, 0.5))
            fit = dantzig_lp(sys, lam)
            assert np.max(np.abs(sys.gram @ fit.beta - sys.cross)) <= lam + 1e-8

    def test_l1_dominance_over_lasso(self, rng):
        for _ in range(10):
            sys = build_yule_walker(random_system(rng, p=2, order=1), 1)
            lam = float(rng.uniform(0.05, 0.3))
            ds = dantzig_lp(sys, lam)
            las = lasso_fista(sys, lam, max_iter=5000, tol=1e-14)
            if np.max(np.abs(sys.gram @ las.beta - sys.cross)) <= lam:
                assert np.abs(ds.beta).sum() <= np.abs(las.beta).sum() + 1e-6


class TestThreshold:
    def test_hand_case(self):
        mat = np.array([[0.5, 0.01], [0.0, -0.3]])
        out = threshold_matrix(mat, 0.1)
        assert out.tolist() == [[0.5, 0.0], [0.0, -0.3]]

    def test_zero_threshold_keeps_nonzeros(self):
        mat = np.array([[0.5, 0.0], [-0.2, 0.1]])
        assert np.array_equal(threshold_matrix(mat, 0.0), mat)

    def test_max_threshold_clears_all(self):
        mat = np.array([[0.5, -0.7], [0.2, 0.1]])
        assert np.all(threshold_matrix(mat, np.abs(mat).max()) == 0.0)

    @given(
        arrays(np.float64, (3, 3), elements=st.floats(-1, 1)),
        st.floats(0, 0.5),
        st.floats(0, 0.5),
    )
    @settings(max_examples=100, deadline=None)
    def test_support_monotone_in_threshold(self, mat, t1, t2):
        lo, hi = sorted((t1, t2))
        assert np.count_nonzero(threshold_matrix(mat, hi)) <= np.count_nonzero(
            threshold_matrix(mat, lo)
        )


class TestInnovationCovariance:
    def test_zero_beta(self, rng):
        seq = random_system(rng)
        sys = build_yule_walker(seq, 1)
        from fnets.var import VarFit

        fit = VarFit(order=1, beta=np.zeros_like(sys.cross), method="lasso", lam=1.0)
        out = innovation_covariance(sys, fit.beta)
        assert np.max(np.abs(out - (seq.at(0) + seq.at(0).T) / 2.0)) <= 1e-15

    def test_scalar_value(self):
        seq = scalar_seq([1.0, 0.5])
        from fnets.var import VarFit

        fit = VarFit(order=1, beta=np.array([[0.5]]), method="lasso", lam=0.1)
        sys = build_yule_walker(seq, fit.order)
        assert innovation_covariance(sys, fit.beta)[0, 0] == pytest.approx(0.75)

    def test_exact_symmetry(self, rng):
        seq = random_system(rng)
        sys = build_yule_walker(seq, 2)
        fit = lasso_fista(sys, 0.1)
        out = innovation_covariance(sys, fit.beta)
        assert np.array_equal(out, out.T)
