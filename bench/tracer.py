"""In-memory span tracer that wraps public fnets functions from outside.

fnets modules import each other's functions by name (``from .x import y``),
so a function is reachable through every module that imported it. The tracer
replaces each binding of a traced function, in every loaded ``fnets`` module,
with one wrapper, and restores the originals on exit. ``src/`` is not edited.

A span is (name, start, end, parent, op): ``parent`` is the index of the
enclosing traced call (-1 at the top) and ``op`` the benchmark operation it
belongs to. A span's self time is its duration minus the durations of its
direct children.
"""
from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
import time
from collections import defaultdict
from dataclasses import fields, is_dataclass

import numpy as np

from workloads import FISTA_CAP

# "<module>.<function>" under the fnets package, in layer order.
TRACED = (
    "simplex.solve_lp",
    "precision.clime",
    "precision.aclime",
    "tuning.cv_delta",
    "tuning.cv_var",
    "var.dantzig_lp",
    "var.lasso_fista",
    "panel.sample_acv",
    "spectral.spectral_matrices",
    "spectral.bartlett_spectral_density",
    "spectral.factor_adjust_unrestricted",
    "spectral.factor_adjust_restricted",
    "factor_number.select_factor_number_ic",
    "threshold_select.select_threshold",
    "forecast.forecast_common_restricted",
    "forecast.forecast_idio",
    "model.fit",
    "model.predict",
    "model.to_document",
    "model.from_document",
    "networks.extract_granger",
    "networks.extract_undirected",
)


def array_bytes(obj) -> int:
    """Bytes of every numpy buffer reachable from ``obj``, each buffer once.

    Walks dataclass fields, tuples, lists and dict values; views count the
    array that owns their memory.
    """
    seen_obj: set[int] = set()
    seen_buf: set[int] = set()
    total = 0
    stack = [obj]
    while stack:
        cur = stack.pop()
        if id(cur) in seen_obj:
            continue
        seen_obj.add(id(cur))
        if isinstance(cur, np.ndarray):
            owner = cur
            while isinstance(owner.base, np.ndarray):
                owner = owner.base
            if id(owner) not in seen_buf:
                seen_buf.add(id(owner))
                total += owner.nbytes
        elif is_dataclass(cur) and not isinstance(cur, type):
            stack.extend(getattr(cur, f.name) for f in fields(cur))
        elif isinstance(cur, (tuple, list)):
            stack.extend(cur)
        elif isinstance(cur, dict):
            stack.extend(cur.values())
    return total


def _fnets_modules():
    import fnets

    for info in pkgutil.iter_modules(fnets.__path__):
        importlib.import_module(f"fnets.{info.name}")
    return [m for name, m in sorted(sys.modules.items())
            if name == "fnets" or name.startswith("fnets.")]


class Tracer:
    """Context manager: patch on enter, restore on exit, keep spans in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.stats: dict[tuple[int, str], float] = defaultdict(float)
        self.bindings: dict[str, list[str]] = {}
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- patching -------------------------------------------------------
    def __enter__(self):
        modules = _fnets_modules()
        for target in TRACED:
            mod_name, func_name = target.split(".")
            original = getattr(sys.modules[f"fnets.{mod_name}"], func_name)
            wrapper = self._wrap(target, original)
            self.bindings[target] = []
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
                        self.bindings[target].append(f"{mod.__name__}.{attr}")
        return self

    def __exit__(self, *exc):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()
        return False

    def _wrap(self, name, fn):
        probe = getattr(self, "_probe_" + name.split(".")[1], None)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.op]
            spans.append(span)
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if probe is not None:
                probe(out)
            return out

        return wrapper

    # -- counters read from return values ---------------------------------
    def _add(self, key, value):
        self.stats[(self.op, key)] += value

    def _probe_lasso_fista(self, fit):
        iters = len(fit.objective_trace)
        self._add("var.lasso_fista.iters", iters)
        self._add("var.lasso_fista.cap_hits", int(iters == FISTA_CAP))
        self._add("var.lasso_fista.gram_clipped", int(fit.gram_clipped))

    def _probe_cv_delta(self, result):
        self._add(
            "tuning.cv_delta.infeasible",
            float(np.mean(~np.isfinite(result.score_surface))),
        )

    def _probe_fit(self, model):
        self._add("model.retained_mb", array_bytes(model) / 2**20)

    # -- summaries ----------------------------------------------------------
    def per_op(self) -> dict[int, dict[str, float]]:
        """Per operation: ``<name>.calls``, ``<name>.self_s`` and probe counters."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for i, (name, start, end, _, op) in enumerate(self.spans):
            out[op][f"{name}.calls"] += 1
            out[op][f"{name}.self_s"] += (end - start) - child[i]
        for (op, key), value in self.stats.items():
            out[op][key] += value
        return {op: dict(v) for op, v in out.items()}

    def dump(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "op": o}
            for n, s, e, p, o in self.spans
        ]
