"""Command-line front end: fit, simulate, factors, forecast, export.

Every command reads/writes plain CSV or JSON files; model state travels
through the JSON document produced by ``fit``. Exit codes: 0 success, 2 usage
error, 3 data/format error, 4 numerical or solver failure.
"""
from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import model as model_mod
from .errors import FnetsError, UsageError
from .factor_number import ic_ladder, ic_selection, select_factor_number_er
from .networks import export, extract_granger, extract_undirected
from .panel import TimeSeriesPanel, load_panel
from .simulate import SimSpec, sim_restricted, sim_unrestricted, sim_var
from .threshold_select import select_threshold
from .var import threshold_matrix


def _fmt(x: float) -> str:
    return repr(float(x))


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        model_mod.write_json(path, text)


def _panel_csv(values: np.ndarray, names: tuple[str, ...]) -> str:
    """Panel as CSV with rows = time points and a header of variable names."""
    lines = [",".join(names)]
    for t in range(values.shape[1]):
        lines.append(",".join(_fmt(v) for v in values[:, t]))
    return "\n".join(lines) + "\n"


def _add_panel_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("data", help="input CSV (rows are time points by default)")
    sub.add_argument("--transpose", action="store_true", help="rows are variables")
    sub.add_argument("--no-center", action="store_true", help="skip de-meaning")


def _cmd_fit(args: argparse.Namespace) -> int:
    if args.q is not None and args.er:
        raise UsageError("--q fixes the factor number; it conflicts with --er")
    panel = load_panel(args.data, transpose=args.transpose, center=not args.no_center)
    fitted = model_mod.fit(
        panel,
        restricted=args.restricted,
        q=args.q,
        q_method="er" if args.er else "ic",
        ic_variant=args.ic_variant,
        bandwidth=args.bandwidth,
        orders=tuple(args.var_order),
        method=args.method,
        tuning=args.tuning,
        alpha=args.alpha,
        n_folds=args.folds,
        path_length=args.path_length,
        threshold=args.threshold,
        lrpc=not args.no_lrpc,
        lrpc_adaptive=args.lrpc_adaptive,
        input_path=args.data,
    )
    sys.stdout.write(model_mod.report(fitted))
    if args.out:
        model_mod.write_json(args.out, model_mod.to_document(fitted))
    if args.dump_tuning:
        rows = ["stage,order,parameter,score"]
        for stage, tun in (("var", fitted.var_tuning), ("lrpc", fitted.eta_tuning)):
            for oi, order in enumerate(tun.orders if tun is not None else ()):
                for gi in range(tun.solved[oi]):  # skipped points are not listed
                    score = _fmt(tun.score_surface[oi, gi])
                    rows.append(f"{stage},{order},{_fmt(tun.grid[gi])},{score}")
        _write_text(args.dump_tuning, "\n".join(rows) + "\n")
    return 0


def _cmd_threshold(args: argparse.Namespace) -> int:
    fitted = _load_model(args.model)
    beta = fitted.var_fit.beta
    p = fitted.p
    sel = select_threshold(beta, p * p * fitted.var_fit.order, args.grid_size)
    nnz = int(np.count_nonzero(threshold_matrix(beta, sel.threshold)))
    sys.stdout.write(
        "Thresholded matrix\n"
        f"Threshold: {_fmt(sel.threshold)}\n"
        f"Non-zero entries: {nnz}/{p * p * fitted.var_fit.order}\n"
    )
    if args.dump:
        rows = ["t,ratio,cusum"]
        for k, t in enumerate(sel.candidates):
            cus = ""
            if 1 <= k <= sel.candidates.size - 2:
                cus = _fmt(sel.cusum[k - 1])
            rows.append(f"{_fmt(t)},{_fmt(sel.ratio[k])},{cus}")
        _write_text(args.dump, "\n".join(rows) + "\n")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    spec = SimSpec(
        n=args.n,
        p=args.p,
        q=args.q,
        var_order=args.order,
        link_prob=args.link_prob,
        coeff=args.coeff,
        innovation_cov=args.innovations,
        heavy=args.heavy,
        seed=args.seed,
    )
    names = tuple(f"x{i + 1}" for i in range(args.p))
    truth: dict = {"kind": args.kind, "seed": args.seed}
    if args.kind == "var":
        sim = sim_var(spec)
        data = sim.data
        truth["A"] = sim.a_matrices.tolist()
        truth["Delta"] = sim.delta.tolist()
        truth["Omega"] = sim.omega().tolist()
    elif args.kind == "unrestricted":
        data = sim_unrestricted(spec)
    elif args.kind == "restricted":
        data = sim_restricted(spec)
    elif args.kind == "factor-var":
        sim = sim_var(spec)
        data = sim.data + sim_unrestricted(spec)
        truth["A"] = sim.a_matrices.tolist()
        truth["Delta"] = sim.delta.tolist()
        truth["Omega"] = sim.omega().tolist()
    else:
        raise UsageError(f"unknown simulation kind {args.kind!r}")
    _write_text(args.out, _panel_csv(data, names))
    if args.truth:
        model_mod.write_json(args.truth, truth)
    return 0


def _cmd_factors(args: argparse.Namespace) -> int:
    panel = load_panel(args.data, transpose=args.transpose, center=not args.no_center)
    kind = "restricted" if args.restricted else "unrestricted"
    lines = ["Factor number selection", f"Factor model: {kind}"]
    if args.method == "ic":
        lines.append("Method: information criterion")
        lines.append("Number of factors:")
        variants = [args.variant] if args.variant else range(1, 7)
        ladder = ic_ladder(panel, kind)
        for variant in variants:
            sel = ic_selection(ladder, kind, variant)
            lines.append(f"IC{variant}: {sel.q_hat}")
            if sel.stability_warning:
                lines.append(f"  warning: {sel.stability_warning}")
        if args.dump:
            dump_sel = ic_selection(ladder, kind, args.variant or 5)
            rows = ["c,q_hat,s_of_c"]
            for c, qc, sc in zip(dump_sel.c_grid, dump_sel.q_by_c, dump_sel.s_of_c):
                rows.append(f"{_fmt(c)},{int(qc)},{_fmt(sc)}")
            _write_text(args.dump, "\n".join(rows) + "\n")
    else:
        sel = select_factor_number_er(panel, model_kind=kind)
        lines.append("Method: eigenvalue ratio")
        lines.append(
            "ER curve: "
            + ", ".join(f"{b + 1}: {v:.4f}" for b, v in enumerate(sel.er_curve))
        )
        lines.append(f"Number of factors: {sel.q_hat}")
        if args.dump:
            rows = ["b,er"]
            for b, v in enumerate(sel.er_curve):
                rows.append(f"{b + 1},{_fmt(v)}")
            _write_text(args.dump, "\n".join(rows) + "\n")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def _load_model(path: str) -> model_mod.FittedModel:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise UsageError(f"model file {path!r} does not exist") from None
    except json.JSONDecodeError as err:
        raise UsageError(f"model file {path!r} is not valid JSON: {err}") from None
    return model_mod.from_document(doc)


def _model_panel(fitted: model_mod.FittedModel, args: argparse.Namespace) -> TimeSeriesPanel:
    """The forecast panel, centred on its own means if the fit panel was."""
    path = args.newdata or args.data or fitted.input_path
    if path is None:
        raise UsageError("no panel available: pass --data or --newdata")
    return load_panel(path, transpose=args.transpose, center=bool(np.any(fitted.mean_x)))


def _cmd_forecast(args: argparse.Namespace) -> int:
    fitted = _load_model(args.model)
    panel = _model_panel(fitted, args)
    result = model_mod.predict(fitted, panel, args.ahead)
    lines = [",".join(panel.var_names)]
    for row in result.forecast:
        lines.append(",".join(_fmt(v) for v in row))
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    fitted = _load_model(args.model)
    t = args.threshold
    if t is None:
        t = fitted.var_fit.threshold if args.type == "granger" else 0.0
        t = 0.0 if t is None else t
    if args.type == "granger":
        graph = extract_granger(fitted.var_fit, t)
    elif args.type in ("pc", "lrpc"):
        if fitted.precision is None:
            raise UsageError("model document has no precision block")
        mat = (
            fitted.precision.partial_cor
            if args.type == "pc"
            else fitted.precision.longrun_partial_cor
        )
        if mat is None:
            raise UsageError(
                f"{args.type} network undefined: the stored precision matrix has a"
                " non-positive diagonal"
            )
        graph = extract_undirected(mat, t, args.type)
    else:
        raise UsageError(f"unknown network type {args.type!r}")
    payload = export(graph, args.format)
    if args.out is None or args.out == "-":
        sys.stdout.write(payload.decode("utf-8"))
    else:
        model_mod.write_json(args.out, payload)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fnets",
        description="Factor-adjusted sparse VAR estimation, networks and forecasting",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    fit_p = subs.add_parser("fit", help="run the full estimation pipeline")
    _add_panel_args(fit_p)
    fit_p.add_argument("--restricted", action="store_true", help="static factor model")
    fit_p.add_argument("--q", type=int, default=None, help="fix the factor number")
    fit_p.add_argument("--er", action="store_true", help="select q by eigenvalue ratio")
    fit_p.add_argument("--ic-variant", type=int, default=5, choices=range(1, 7))
    fit_p.add_argument(
        "--var-order", type=int, nargs="+", default=[1], help="candidate orders"
    )
    fit_p.add_argument("--method", choices=("lasso", "ds"), default="lasso")
    fit_p.add_argument("--tuning", choices=("cv", "ebic"), default="cv")
    fit_p.add_argument("--alpha", type=float, default=0.0, help="ebic penalty constant")
    fit_p.add_argument("--folds", type=int, default=1)
    fit_p.add_argument("--path-length", type=int, default=10)
    fit_p.add_argument("--threshold", default="off", help="off | adaptive | value")
    fit_p.add_argument("--no-lrpc", action="store_true")
    fit_p.add_argument("--lrpc-adaptive", action="store_true")
    fit_p.add_argument("--bandwidth", type=int, default=None)
    fit_p.add_argument("--out", default=None, help="write the model JSON here")
    fit_p.add_argument(
        "--dump-tuning", default=None, help="CSV of the solved points of each tuning path"
    )
    fit_p.set_defaults(func=_cmd_fit)

    sim_p = subs.add_parser("simulate", help="generate synthetic panels")
    sim_p.add_argument(
        "--kind",
        choices=("var", "unrestricted", "restricted", "factor-var"),
        default="factor-var",
    )
    sim_p.add_argument("--n", type=int, required=True)
    sim_p.add_argument("--p", type=int, required=True)
    sim_p.add_argument("--q", type=int, default=2)
    sim_p.add_argument("--order", type=int, default=1)
    sim_p.add_argument("--link-prob", type=float, default=None)
    sim_p.add_argument("--coeff", type=float, default=0.275)
    sim_p.add_argument("--innovations", choices=("identity", "banded"), default="identity")
    sim_p.add_argument("--heavy", action="store_true")
    sim_p.add_argument("--seed", type=int, default=111)
    sim_p.add_argument("--out", default=None, help="panel CSV (stdout by default)")
    sim_p.add_argument("--truth", default=None, help="write true A/Delta/Omega JSON here")
    sim_p.set_defaults(func=_cmd_simulate)

    fac_p = subs.add_parser("factors", help="factor number selection report")
    _add_panel_args(fac_p)
    fac_p.add_argument("--method", choices=("ic", "er"), default="ic")
    fac_p.add_argument("--restricted", action="store_true")
    fac_p.add_argument("--variant", type=int, default=None, choices=range(1, 7))
    fac_p.add_argument("--dump", default=None, help="CSV dump of the tuning curves")
    fac_p.set_defaults(func=_cmd_factors)

    fc_p = subs.add_parser("forecast", help="forecast from a saved model")
    fc_p.add_argument("--model", required=True, help="model JSON from fit --out")
    fc_p.add_argument("--data", default=None, help="original panel CSV")
    fc_p.add_argument("--newdata", default=None, help="forecast from this panel instead")
    fc_p.add_argument("--transpose", action="store_true")
    fc_p.add_argument("--ahead", type=int, default=1)
    fc_p.add_argument("--out", default=None, help="forecast CSV (stdout by default)")
    fc_p.set_defaults(func=_cmd_forecast)

    exp_p = subs.add_parser("export", help="export an estimated network")
    exp_p.add_argument("--model", required=True)
    exp_p.add_argument("--type", choices=("granger", "pc", "lrpc"), required=True)
    exp_p.add_argument(
        "--format",
        choices=("dot", "edgelist_csv", "matrix_csv", "json"),
        default="dot",
    )
    exp_p.add_argument("--threshold", type=float, default=None)
    exp_p.add_argument("--out", default=None)
    exp_p.set_defaults(func=_cmd_export)

    thr_p = subs.add_parser(
        "threshold", help="adaptive threshold selection for a fitted model"
    )
    thr_p.add_argument("--model", required=True)
    thr_p.add_argument("--grid-size", type=int, default=100)
    thr_p.add_argument("--dump", default=None, help="CSV dump of the scan statistics")
    thr_p.set_defaults(func=_cmd_threshold)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FnetsError as err:
        sys.stderr.write(f"fnets: {err}\n")
        return err.exit_code


if __name__ == "__main__":
    sys.exit(main())
