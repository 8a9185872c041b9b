"""Self-test of the benchmark's tracer.

Run from the repository root:

    python3 -m pytest -q bench/test_bench.py

The LP counts below are exact: one ``solve_lp`` per column of every CLIME or
Dantzig-selector programme, over the tuning grid plus the final refit.
"""
import inspect
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from fnets import model  # noqa: E402
from tracer import TRACED, Tracer, _fnets_modules, array_bytes  # noqa: E402
from workloads import WORKLOADS, run_op, simulate_case  # noqa: E402

SEED = 1
PATH_LENGTH = inspect.signature(model.fit).parameters["path_length"].default


def _originals():
    out = {}
    for target in TRACED:
        mod_name, func_name = target.split(".")
        out[target] = getattr(sys.modules[f"fnets.{mod_name}"], func_name)
    return out


def test_every_binding_is_wrapped_and_restored():
    originals = _originals()
    with Tracer() as tracer:
        for target, original in originals.items():
            left = [f"{m.__name__}.{a}" for m in _fnets_modules()
                    for a, v in vars(m).items() if v is original]
            assert left == [], f"{target} still reachable unwrapped via {left}"
            assert f"fnets.{target}" in tracer.bindings[target]
        # Imported by name elsewhere, so more than one binding each.
        assert "fnets.tuning.clime" in tracer.bindings["precision.clime"]
        assert "fnets.factor_number.sample_acv" in tracer.bindings["panel.sample_acv"]
    for target, original in originals.items():
        mod_name, func_name = target.split(".")
        assert getattr(sys.modules[f"fnets.{mod_name}"], func_name) is original


def test_self_times_partition_top_level_spans():
    w = WORKLOADS["dantzig_p50"]
    with Tracer() as tracer:
        tracer.op = 0
        run_op(w, simulate_case(w, SEED, n=200, p=12))
    stats = tracer.per_op()[0]
    self_total = sum(v for k, v in stats.items() if k.endswith(".self_s"))
    top_total = sum(e - s for _, s, e, parent, _ in tracer.spans if parent == -1)
    assert stats["model.fit.calls"] == 1
    assert all(v >= -1e-9 for k, v in stats.items() if k.endswith(".self_s"))
    assert self_total == pytest.approx(top_total, rel=1e-9)


@pytest.mark.parametrize(
    "name, expected",
    [
        ("clime_p100", WORKLOADS["clime_p100"].p * (PATH_LENGTH + 1)),
        ("dantzig_p50", WORKLOADS["dantzig_p50"].p * (PATH_LENGTH + 1)),
        ("spectral_p200", 0),
    ],
)
def test_lp_counts(name, expected):
    w = WORKLOADS[name]
    with Tracer() as tracer:
        tracer.op = 0
        run_op(w, simulate_case(w, SEED))
    stats = tracer.per_op()[0]
    assert stats.get("simplex.solve_lp.calls", 0) == expected
    if name == "clime_p100":
        assert expected == 1100
        assert stats["precision.clime.calls"] == PATH_LENGTH + 1
    if name == "dantzig_p50":
        assert expected == 550
        assert stats["var.dantzig_lp.calls"] == PATH_LENGTH + 1


def test_array_bytes_counts_each_buffer_once():
    base = np.zeros(1000)
    view = base[10:20]
    assert array_bytes((base, view, [base], {"a": view})) == base.nbytes
