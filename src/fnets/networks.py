"""Materialise networks from fitted objects and serialise them.

Three graphs share one container: the directed graph of cross-lag coefficient
support (edge cause -> effect, weight the largest absolute coefficient across
lags), and the two undirected partial-correlation graphs. Exports are plain
text formats pinned byte-for-byte by golden tests: DOT, edge-list CSV, weight
matrix CSV and JSON.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import DataError, DimensionError, UsageError
from .var import VarFit, threshold_matrix


@dataclass(frozen=True)
class NetworkGraph:
    kind: str  # "granger" | "pc" | "lrpc"
    directed: bool
    nodes: tuple[str, ...]
    edges: tuple[tuple[str, str, float], ...]  # (from, to, weight)
    weight_matrix: np.ndarray  # (p, p); [effect, cause] for the directed kind


def _node_labels(p: int, names: tuple[str, ...] | None) -> tuple[str, ...]:
    if names:
        if len(names) != p:
            raise DimensionError("node label count must equal the variable count")
        if len(set(names)) != p:
            raise DataError("node labels must be unique")
        return tuple(names)
    return tuple(str(i + 1) for i in range(p))


def extract_granger(
    fit: VarFit, t: float = 0.0, names: tuple[str, ...] | None = None
) -> NetworkGraph:
    """Directed graph of thresholded coefficient support.

    An edge runs from the causing variable to the affected one whenever any
    lag carries a surviving coefficient; its weight is the largest surviving
    modulus across lags.
    """
    stacked = np.stack([threshold_matrix(a, t) for a in fit.lag_matrices()])
    weights = np.max(np.abs(stacked), axis=0)
    p = fit.p
    labels = _node_labels(p, names)
    # Iteration order is (cause, effect), so the edge list is already sorted.
    edges = []
    for cause in range(p):
        for effect in range(p):
            w = weights[effect, cause]
            if w != 0.0:
                edges.append((labels[cause], labels[effect], float(w)))
    return NetworkGraph(
        kind="granger",
        directed=True,
        nodes=labels,
        edges=tuple(edges),
        weight_matrix=weights,
    )


def extract_undirected(
    mat: np.ndarray, t: float, kind: str, names: tuple[str, ...] | None = None
) -> NetworkGraph:
    """Undirected graph from a symmetric (long-run) partial-correlation matrix."""
    if kind not in ("pc", "lrpc"):
        raise DataError(f"unknown undirected network kind {kind!r}")
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DimensionError("network matrix must be square")
    if np.max(np.abs(mat - mat.T)) > 1e-8:
        raise DataError("undirected network needs a symmetric matrix")
    p = mat.shape[0]
    labels = _node_labels(p, names)
    weights = threshold_matrix(mat, t)
    np.fill_diagonal(weights, 0.0)
    edges = []
    for i in range(p):
        for j in range(i + 1, p):
            if weights[i, j] != 0.0:
                edges.append((labels[i], labels[j], float(weights[i, j])))
    return NetworkGraph(
        kind=kind,
        directed=False,
        nodes=labels,
        edges=tuple(edges),
        weight_matrix=weights,
    )


def _fmt(x: float) -> str:
    return repr(float(x))


def _to_dot(graph: NetworkGraph) -> str:
    head = "digraph" if graph.directed else "graph"
    arrow = "->" if graph.directed else "--"
    lines = [f"{head} fnets {{"]
    for node in graph.nodes:
        lines.append(f'  "{node}";')
    for src, dst, w in graph.edges:
        lines.append(f'  "{src}" {arrow} "{dst}" [weight={_fmt(w)}];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _to_edgelist(graph: NetworkGraph) -> str:
    lines = ["from,to,weight"]
    for src, dst, w in graph.edges:
        lines.append(f"{src},{dst},{_fmt(w)}")
    return "\n".join(lines) + "\n"


def _to_matrix_csv(graph: NetworkGraph) -> str:
    lines = [",".join(_fmt(v) for v in row) for row in graph.weight_matrix]
    return "\n".join(lines) + "\n"


def _to_json(graph: NetworkGraph) -> str:
    doc = {
        "kind": graph.kind,
        "directed": graph.directed,
        "nodes": list(graph.nodes),
        "edges": [[src, dst, w] for src, dst, w in graph.edges],
        "weight_matrix": graph.weight_matrix.tolist(),
    }
    return json.dumps(doc, indent=1) + "\n"


_WRITERS = {
    "dot": _to_dot,
    "edgelist_csv": _to_edgelist,
    "matrix_csv": _to_matrix_csv,
    "json": _to_json,
}


def export(graph: NetworkGraph, fmt: str) -> bytes:
    """Serialise the graph in one of the supported text formats."""
    writer = _WRITERS.get(fmt)
    if writer is None:
        raise UsageError(
            f"unknown export format {fmt!r}; choose from {sorted(_WRITERS)}"
        )
    return writer(graph).encode("utf-8")
