import json

import numpy as np
import pytest

from fnets.errors import DataError, UsageError
from fnets.networks import export, extract_granger, extract_undirected
from fnets.var import VarFit


def fit_from_lags(*lag_mats):
    beta = np.vstack([a.T for a in lag_mats])
    return VarFit(order=len(lag_mats), beta=beta, method="lasso", lam=0.1)


class TestGranger:
    def test_zero_coefficients_empty(self):
        graph = extract_granger(fit_from_lags(np.zeros((2, 2))), 0.0)
        assert graph.edges == ()
        assert graph.directed

    def test_direction_cause_to_effect(self):
        a1 = np.array([[0.0, 0.3], [0.0, 0.0]])
        graph = extract_granger(fit_from_lags(a1), 0.0)
        assert graph.edges == (("2", "1", 0.3),)

    def test_any_lag_disjunction(self):
        a1 = np.zeros((2, 2))
        a2 = np.zeros((2, 2))
        a2[0, 1] = 0.4
        graph = extract_granger(fit_from_lags(a1, a2), 0.0)
        assert graph.edges == (("2", "1", 0.4),)

    def test_weight_is_max_over_lags(self):
        a1 = np.zeros((2, 2))
        a1[0, 1] = -0.2
        a2 = np.zeros((2, 2))
        a2[0, 1] = 0.5
        graph = extract_granger(fit_from_lags(a1, a2), 0.0)
        assert graph.edges == (("2", "1", 0.5),)

    def test_edge_count_matches_support(self, rng):
        for _ in range(20):
            a1 = np.where(rng.random((4, 4)) < 0.4, rng.standard_normal((4, 4)), 0.0)
            t = 0.3
            graph = extract_granger(fit_from_lags(a1), t)
            from fnets.var import threshold_matrix

            assert len(graph.edges) == np.count_nonzero(threshold_matrix(a1, t))


class TestUndirected:
    def test_identity_empty(self):
        graph = extract_undirected(np.eye(3), 0.0, "pc")
        assert graph.edges == ()
        assert not graph.directed

    def test_single_edge(self):
        mat = np.array([[1.0, -0.5], [-0.5, 1.0]])
        graph = extract_undirected(mat, 0.1, "pc")
        assert graph.edges == (("1", "2", -0.5),)

    def test_full_suppression(self):
        mat = np.array([[1.0, -0.5], [-0.5, 1.0]])
        graph = extract_undirected(mat, 0.5, "lrpc")
        assert graph.edges == ()

    def test_asymmetric_rejected(self):
        mat = np.array([[1.0, 0.2], [0.1, 1.0]])
        with pytest.raises(DataError):
            extract_undirected(mat, 0.0, "pc")

    def test_no_self_loops_no_duplicates(self, rng):
        a = rng.standard_normal((5, 5))
        mat = (a + a.T) / 2.0
        graph = extract_undirected(mat, 0.2, "pc")
        seen = set()
        for src, dst, _ in graph.edges:
            assert src != dst
            assert (src, dst) not in seen and (dst, src) not in seen
            seen.add((src, dst))


class TestExport:
    def test_empty_digraph_dot(self):
        graph = extract_granger(fit_from_lags(np.zeros((2, 2))), 0.0)
        text = export(graph, "dot").decode()
        assert text.startswith("digraph fnets {")
        assert '"1";' in text and '"2";' in text
        assert "->" not in text

    def test_single_undirected_edge_dot(self):
        mat = np.array([[1.0, -0.5], [-0.5, 1.0]])
        graph = extract_undirected(mat, 0.1, "pc")
        text = export(graph, "dot").decode()
        assert "graph fnets {" in text
        assert '"1" -- "2" [weight=-0.5];' in text

    def test_edgelist_csv(self):
        a1 = np.array([[0.0, 0.3], [0.0, 0.0]])
        graph = extract_granger(fit_from_lags(a1), 0.0)
        text = export(graph, "edgelist_csv").decode()
        assert text == "from,to,weight\n2,1,0.3\n"

    def test_matrix_csv_round_trip_values(self):
        mat = np.array([[1.0, -0.5], [-0.5, 1.0]])
        graph = extract_undirected(mat, 0.1, "pc")
        text = export(graph, "matrix_csv").decode()
        rows = [list(map(float, ln.split(","))) for ln in text.strip().splitlines()]
        assert np.array_equal(np.array(rows), graph.weight_matrix)

    def test_json_round_trip(self, rng):
        a = rng.standard_normal((4, 4))
        graph = extract_undirected((a + a.T) / 2.0, 0.3, "lrpc")
        back = json.loads(export(graph, "json").decode())
        assert back["kind"] == graph.kind
        assert tuple(back["nodes"]) == graph.nodes
        assert [tuple(edge) for edge in back["edges"]] == list(graph.edges)
        assert np.array_equal(np.asarray(back["weight_matrix"]), graph.weight_matrix)

    def test_deterministic_edge_order(self, rng):
        a1 = rng.standard_normal((5, 5))
        graph = extract_granger(fit_from_lags(a1), 0.5)
        order = [(int(s), int(d)) for s, d, _ in graph.edges]
        assert order == sorted(order)

    def test_unknown_format(self):
        graph = extract_undirected(np.eye(2), 0.0, "pc")
        with pytest.raises(UsageError):
            export(graph, "xml")

    def test_dot_is_parseable_structure(self):
        a1 = np.array([[0.0, 0.3], [-0.4, 0.0]])
        graph = extract_granger(fit_from_lags(a1), 0.0)
        lines = export(graph, "dot").decode().strip().splitlines()
        assert lines[0] == "digraph fnets {"
        assert lines[-1] == "}"
        assert all(ln.endswith(";") for ln in lines[1:-1])
