"""fnets benchmark: fit/forecast time, accuracy and memory per workload.

Usage, from the repository root:

    python3 bench/run.py --workload clime_p100 --seed 1 --seconds 20 --trace 0

``--trace 0`` measures untraced operations and prints the end-to-end
metrics; ``--trace 1`` alternates traced and untraced operations and prints
the per-layer metrics plus the tracing overhead. The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. Environment, sample counts and, for traced runs,
the raw spans are written to ``.bench_out/`` in the repository root.
"""
from __future__ import annotations

import os
import sys
import time

_START = time.perf_counter()
# Pin BLAS to one thread before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 3
WARMUP_N, WARMUP_P, WARMUP_SEED = 200, 20, 0


def metric_units(key: str) -> dict[str, str]:
    """Metric name -> unit for ``end_to_end`` or ``per_layer`` in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[key]}


def git_commit() -> str | None:
    """HEAD commit of the checkout, or None outside a git repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(np) -> dict:
    blas = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ[v] for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": git_commit(),
    }


def case_seeds(np, seed: int, count: int) -> list[int]:
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def failure(seed: int, op: int, err: Exception) -> dict:
    return {"seed": seed, "op": op, "error": f"{type(err).__name__}: {err}",
            "traceback": traceback.format_exc()}


def median(xs):
    return statistics.median(xs) if xs else None


def panel_mean(ops: list[dict], key: str) -> float | None:
    """Median of ``key`` over each panel's operations, averaged over panels.

    Averaging per-panel medians keeps the panel mix fixed however many
    operations fit in the window.
    """
    by_panel: dict[int, list[float]] = {}
    for o in ops:
        by_panel.setdefault(o["panel"], []).append(o[key])
    if not by_panel:
        return None
    return statistics.fmean(statistics.median(v) for v in by_panel.values())


def measure(w, cases, seconds: float, tracer):
    """Run operations until the next one would overrun ``seconds``.

    Untraced, panel k = op mod K and every panel runs at least twice, so
    every panel's repeat is checked. Traced, each panel runs twice in a row,
    traced then untraced, so the pair gives the tracing overhead on identical
    work. Returns the number of operations attempted, the log of those that
    succeeded, the first result and model per panel, and the failures.
    """
    from workloads import check_repeat, run_op

    per_panel = 2 if tracer else 1
    min_ops = 2 if tracer else 2 * len(cases)
    ops, failures, walls = [], [], []
    first: dict[int, tuple] = {}  # panel index -> (op index, result, model)
    start = time.perf_counter()
    i = 0
    while i < min_ops or time.perf_counter() - start + statistics.median(walls) <= seconds:
        k = (i // per_panel) % len(cases)
        traced = tracer is not None and i % 2 == 0
        t0 = time.perf_counter()
        try:
            if traced:
                tracer.op = i
                with tracer:
                    res, fitted = run_op(w, cases[k])
            else:
                res, fitted = run_op(w, cases[k])
            if k in first:
                check_repeat(first[k][1], res)
            else:
                first[k] = (i, res, fitted)
        except Exception as err:  # a failed operation is counted; the run goes on
            failures.append(failure(cases[k].seed, i, err))
        else:
            ops.append({"op": i, "panel": k, "traced": traced, "fit_s": res.fit_s,
                        "predict_s": statistics.fmean(res.predict_s),
                        "predict_calls_s": res.predict_s, "diverged": res.diverged})
        # Drop this operation's model before the next one, so peak memory
        # does not depend on how many operations fit in the window.
        res = fitted = None
        walls.append(time.perf_counter() - t0)
        i += 1
    return i, ops, first, failures


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "fnets")):
        print(f"fnets sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import numpy as np
    from tracer import Tracer
    from workloads import WORKLOADS, check_reload_identity, run_op, simulate_case

    import_s = time.perf_counter() - _START
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    seeds = case_seeds(np, args.seed, w.panels)

    # Set-up: simulate the panels and run one warm-up operation on a small
    # panel, several times; report the median plus the one-off import. The
    # warm-up panel has a fixed seed, so its cost does not vary with --seed.
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        cases = [simulate_case(w, s) for s in seeds]
        run_op(w, simulate_case(w, WARMUP_SEED, n=WARMUP_N, p=min(w.p, WARMUP_P)))
        setup_times.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(setup_times)

    tracer = Tracer() if args.trace else None
    attempted, ops, first, failures = measure(w, cases, args.seconds, tracer)

    # Outside the timed window: reloaded-document forecasts must match the
    # in-memory model's forecasts bit for bit.
    for k, (op, res, fitted) in sorted(first.items()):
        try:
            check_reload_identity(fitted, res)
        except Exception as err:
            failures.append(failure(cases[k].seed, op, err))
    failed = len({f["op"] for f in failures})

    plain = [o for o in ops if not o["traced"]]
    if tracer is None:
        units = metric_units("end_to_end")
        firsts = [res for _, res, _ in first.values()]
        metrics = {
            "fit_s": panel_mean(plain, "fit_s"),
            "predict_s": panel_mean(plain, "predict_s"),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_share": (attempted - failed) / attempted,
            "var_err_f": median([r.var_err_f for r in firsts]),
            "forecast_rel_rmse": median([(r.sq_err / r.sq_err_mean) ** 0.5 for r in firsts]),
        }
    else:
        units = metric_units("per_layer")
        per_op = tracer.per_op()
        traced = [o for o in ops if o["traced"]]
        metrics = {name: median([stats.get(name, 0.0) for stats in per_op.values()])
                   for name in units if name != "trace.overhead_s"}
        metrics["trace.overhead_s"] = (
            panel_mean(traced, "fit_s") - panel_mean(plain, "fit_s")
            if traced and plain else None)
    # A metric with no sample is reported as 0: nothing of that kind was
    # measured. That happens only when operations failed, so correct is false.
    assert failures or None not in metrics.values(), metrics
    metrics = {k: 0.0 if v is None else v for k, v in metrics.items()}

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    out_path = os.path.join(
        OUT_DIR, f"{w.name}-seed{args.seed}-trace{args.trace}.json")
    record = {"workload": w.name, "seed": args.seed, "seconds": args.seconds,
              "environment": environment(np), "panel_seeds": seeds,
              "setup_repeats_s": setup_times, "import_s": import_s,
              "failures": failures, "ops": ops, "result": result}
    if tracer is not None:
        record["bindings"] = tracer.bindings
        record["spans"] = tracer.dump()
    with open(out_path, "w") as fh:
        json.dump(record, fh)

    print("environment " + json.dumps(record["environment"]))
    print("samples " + json.dumps({"ops": attempted, "panels": len(cases),
                                   "fit_s": len(plain),
                                   "predict_s": sum(len(o["predict_calls_s"]) for o in plain),
                                   "diverged_panels": sum(r.diverged for _, r, _ in first.values())}))
    for f in failures:
        print(f"FAILED seed={f['seed']} op={f['op']} {f['error']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
