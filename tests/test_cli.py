import json
import os

import numpy as np
import pytest

from fnets import factor_number
from fnets.cli import main
from fnets.simulate import SimSpec, sim_restricted, sim_var
from oracles import first_turn


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def panel_csv(tmp_path):
    path = str(tmp_path / "panel.csv")
    code = main(
        [
            "simulate",
            "--kind",
            "factor-var",
            "--n",
            "300",
            "--p",
            "8",
            "--seed",
            "7",
            "--out",
            path,
        ]
    )
    assert code == 0
    return path


class TestExitCodes:
    def test_error_classes_carry_exit_codes(self):
        from fnets.errors import (
            DataError,
            DimensionError,
            FormatError,
            NumericalError,
            SolverError,
            UsageError,
        )

        assert UsageError.exit_code == 2
        assert FormatError.exit_code == 3
        assert DataError.exit_code == 3
        assert DimensionError.exit_code == 3
        assert NumericalError.exit_code == 4
        assert SolverError.exit_code == 4


class TestSimulateCommand:
    def test_writes_panel_and_truth(self, tmp_path, capsys):
        panel = str(tmp_path / "x.csv")
        truth = str(tmp_path / "truth.json")
        code, _, _ = run(
            capsys,
            "simulate",
            "--kind",
            "var",
            "--n",
            "50",
            "--p",
            "4",
            "--seed",
            "3",
            "--out",
            panel,
            "--truth",
            truth,
        )
        assert code == 0
        with open(truth) as fh:
            doc = json.load(fh)
        assert np.asarray(doc["A"]).shape == (1, 4, 4)
        assert np.asarray(doc["Delta"]).shape == (4, 4)
        assert np.asarray(doc["Omega"]).shape == (4, 4)
        lines = open(panel).read().strip().splitlines()
        assert lines[0] == "x1,x2,x3,x4"
        assert len(lines) == 51

    def test_deterministic_given_seed(self, tmp_path, capsys):
        a = str(tmp_path / "a.csv")
        b = str(tmp_path / "b.csv")
        run(capsys, "simulate", "--kind", "var", "--n", "30", "--p", "3", "--seed", "5", "--out", a)
        run(capsys, "simulate", "--kind", "var", "--n", "30", "--p", "3", "--seed", "5", "--out", b)
        assert open(a).read() == open(b).read()


class TestFitCommand:
    def test_default_fit_report(self, panel_csv, tmp_path, capsys):
        model = str(tmp_path / "model.json")
        code, out, _ = run(
            capsys, "fit", panel_csv, "--q", "2", "--no-lrpc", "--out", model
        )
        assert code == 0
        assert "Factor number: 2" in out
        assert "VAR order: 1" in out
        assert "Non-zero entries:" in out
        doc = json.loads(open(model).read())
        assert doc["schema_version"] == 3
        assert doc["model_kind"] == "unrestricted"
        assert np.asarray(doc["var"]["beta"]).shape == (8, 8)
        assert doc["lrpc"] is None

    def test_default_run_on_flagship_design(self, tmp_path, capsys):
        panel = str(tmp_path / "flagship.csv")
        run(
            capsys, "simulate", "--kind", "factor-var", "--n", "500", "--p", "50",
            "--seed", "111", "--out", panel,
        )
        code, out, _ = run(capsys, "fit", panel, "--no-lrpc")
        assert code == 0
        assert "Factor number: 2" in out
        assert "VAR order: 1" in out

    def test_conflicting_flags_usage_error(self, panel_csv, capsys):
        code, _, err = run(capsys, "fit", panel_csv, "--q", "2", "--er")
        assert code == 2
        assert "conflict" in err

    def test_missing_file_data_error(self, capsys):
        code, _, err = run(capsys, "fit", "/nonexistent/file.csv")
        assert code != 0

    def test_var_only_path(self, panel_csv, tmp_path, capsys):
        model = str(tmp_path / "m.json")
        code, out, _ = run(
            capsys, "fit", panel_csv, "--q", "0", "--no-lrpc", "--out", model
        )
        assert code == 0
        assert "Factor number: 0" in out

    def test_ebic_and_restricted_paths(self, panel_csv, capsys):
        code, out, _ = run(
            capsys, "fit", panel_csv, "--q", "1", "--no-lrpc",
            "--tuning", "ebic", "--var-order", "1", "2", "--restricted",
        )
        assert code == 0
        assert "Factor model: restricted" in out
        assert "Tuning method: ebic" in out

    def test_constant_series_data_error(self, panel_csv, capsys):
        rows = [line.split(",") for line in open(panel_csv).read().splitlines()]
        for row in rows[1:]:
            row[4] = "3.0"
        with open(panel_csv, "w") as fh:
            fh.write("\n".join(",".join(row) for row in rows) + "\n")
        code, _, err = run(capsys, "fit", panel_csv)
        assert code == 3
        assert "constant series: x5;" in err

    def test_ds_method_path(self, panel_csv, capsys):
        code, out, _ = run(
            capsys, "fit", panel_csv, "--q", "0", "--no-lrpc", "--method", "ds"
        )
        assert code == 0
        assert "VAR estimation method: ds" in out

    def test_lrpc_block_present(self, panel_csv, tmp_path, capsys):
        model = str(tmp_path / "m.json")
        code, out, _ = run(capsys, "fit", panel_csv, "--q", "1", "--out", model)
        assert code == 0
        doc = json.loads(open(model).read())
        assert doc["lrpc"] is not None
        assert "LRPC: true" in out
        delta = np.asarray(doc["lrpc"]["Delta"])
        assert np.array_equal(delta, delta.T)

    @pytest.mark.parametrize("flag", ("--folds", "--path-length"))
    def test_zero_count_usage_error(self, panel_csv, capsys, flag):
        code, _, err = run(capsys, "fit", panel_csv, flag, "0")
        assert code == 2
        assert "must be at least 1, got 0" in err

    def test_bad_threshold_usage_error(self, panel_csv, capsys):
        code, _, err = run(capsys, "fit", panel_csv, "--q", "0", "--threshold", "adaptve")
        assert code == 2
        assert "--threshold must be 'off', 'adaptive' or a number, got 'adaptve'" in err

    def test_adaptive_threshold_reported(self, panel_csv, capsys):
        code, out, _ = run(
            capsys, "fit", panel_csv, "--q", "0", "--no-lrpc", "--threshold", "adaptive"
        )
        assert code == 0
        line = [ln for ln in out.splitlines() if ln.startswith("Non-zero")][0]
        nnz, total = map(int, line.split(":")[1].split("/"))
        assert nnz <= total


class TestForecastCommand:
    def test_round_trip_bit_exact(self, panel_csv, tmp_path, capsys):
        model = str(tmp_path / "model.json")
        run(capsys, "fit", panel_csv, "--q", "1", "--no-lrpc", "--out", model)
        out1 = str(tmp_path / "fc1.csv")
        out2 = str(tmp_path / "fc2.csv")
        code, _, _ = run(capsys, "forecast", "--model", model, "--ahead", "2", "--out", out1)
        assert code == 0
        run(capsys, "forecast", "--model", model, "--ahead", "2", "--out", out2)
        assert open(out1).read() == open(out2).read()

    def test_in_process_equality(self, panel_csv, tmp_path, capsys):
        from fnets import model as model_mod
        from fnets.panel import load_panel

        model = str(tmp_path / "model.json")
        run(capsys, "fit", panel_csv, "--q", "1", "--no-lrpc", "--out", model)
        out = str(tmp_path / "fc.csv")
        run(capsys, "forecast", "--model", model, "--ahead", "1", "--out", out)
        panel = load_panel(panel_csv, center=True)
        fitted = model_mod.fit(panel, q=1, lrpc=False, input_path=panel_csv)
        fc = model_mod.predict_model(fitted, 1)
        rows = open(out).read().strip().splitlines()
        got = np.array([float(v) for v in rows[1].split(",")])
        assert np.array_equal(got, fc.forecast[0])

    def test_newdata_uses_stored_model(self, panel_csv, tmp_path, capsys):
        from fnets import model as model_mod
        from fnets.panel import load_panel

        model = str(tmp_path / "model.json")
        run(capsys, "fit", panel_csv, "--q", "1", "--no-lrpc", "--out", model)
        new_csv = str(tmp_path / "new.csv")
        run(capsys, "simulate", "--kind", "factor-var", "--n", "250", "--p", "8",
            "--seed", "8", "--out", new_csv)
        out = str(tmp_path / "fc.csv")
        code, _, _ = run(
            capsys, "forecast", "--model", model, "--newdata", new_csv,
            "--ahead", "2", "--out", out,
        )
        assert code == 0
        loaded = model_mod.from_document(json.loads(open(model).read()))
        expect = model_mod.predict(loaded, load_panel(new_csv), 2).forecast
        rows = open(out).read().strip().splitlines()[1:]
        got = np.array([[float(v) for v in row.split(",")] for row in rows])
        assert np.array_equal(got, expect)

    def test_newdata_wrong_variable_count(self, panel_csv, tmp_path, capsys):
        model = str(tmp_path / "model.json")
        run(capsys, "fit", panel_csv, "--q", "1", "--no-lrpc", "--out", model)
        new_csv = str(tmp_path / "new.csv")
        run(capsys, "simulate", "--kind", "var", "--n", "60", "--p", "5",
            "--seed", "8", "--out", new_csv)
        code, _, err = run(
            capsys, "forecast", "--model", model, "--newdata", new_csv, "--ahead", "1"
        )
        assert code == 3
        assert "5 variables" in err

    def test_shape_contract(self, panel_csv, tmp_path, capsys):
        model = str(tmp_path / "model.json")
        run(capsys, "fit", panel_csv, "--q", "0", "--no-lrpc", "--out", model)
        out = str(tmp_path / "fc.csv")
        code, _, _ = run(capsys, "forecast", "--model", model, "--ahead", "1", "--out", out)
        assert code == 0
        rows = open(out).read().strip().splitlines()
        assert len(rows) == 2
        assert len(rows[1].split(",")) == 8

    @pytest.mark.parametrize("command", ("forecast", "export"))
    def test_document_without_predictor_usage_error(self, panel_csv, tmp_path, capsys, command):
        model = str(tmp_path / "model.json")
        run(capsys, "fit", panel_csv, "--q", "1", "--no-lrpc", "--out", model)
        doc = json.loads(open(model).read())
        del doc["predictor"]
        with open(model, "w") as fh:
            json.dump(doc, fh)
        extra = ("--ahead", "1") if command == "forecast" else ("--type", "granger")
        code, _, err = run(capsys, command, "--model", model, *extra)
        assert code == 2
        assert "'predictor'" in err

    def test_document_with_short_mean_x_usage_error(self, panel_csv, tmp_path, capsys):
        model = str(tmp_path / "model.json")
        run(capsys, "fit", panel_csv, "--q", "1", "--no-lrpc", "--out", model)
        doc = json.loads(open(model).read())
        doc["mean_x"].pop()
        with open(model, "w") as fh:
            json.dump(doc, fh)
        code, _, err = run(capsys, "forecast", "--model", model, "--ahead", "1")
        assert code == 2
        assert "mean_x" in err

    def test_document_with_nan_beta_usage_error(self, panel_csv, tmp_path, capsys):
        model = str(tmp_path / "model.json")
        run(capsys, "fit", panel_csv, "--q", "1", "--no-lrpc", "--out", model)
        doc = json.loads(open(model).read())
        doc["var"]["beta"][0][0] = float("nan")
        with open(model, "w") as fh:
            json.dump(doc, fh)
        code, _, err = run(capsys, "forecast", "--model", model, "--ahead", "1")
        assert code == 2
        assert "var.beta" in err

    def test_missing_model_usage_error(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "forecast", "--model", str(tmp_path / "nope.json"), "--ahead", "1"
        )
        assert code == 2


class TestExportCommand:
    def test_dot_export(self, panel_csv, tmp_path, capsys):
        model = str(tmp_path / "model.json")
        run(capsys, "fit", panel_csv, "--q", "0", "--no-lrpc", "--out", model)
        out = str(tmp_path / "g.dot")
        code, _, _ = run(
            capsys, "export", "--model", model, "--type", "granger", "--format", "dot", "--out", out
        )
        assert code == 0
        text = open(out).read()
        assert text.startswith("digraph fnets {")
        assert text.rstrip().endswith("}")

    def test_lrpc_json_export(self, panel_csv, tmp_path, capsys):
        model = str(tmp_path / "model.json")
        run(capsys, "fit", panel_csv, "--q", "1", "--out", model)
        out = str(tmp_path / "net.json")
        code, _, _ = run(
            capsys,
            "export", "--model", model, "--type", "lrpc", "--format", "json",
            "--threshold", "0.05", "--out", out,
        )
        assert code == 0
        doc = json.loads(open(out).read())
        assert doc["kind"] == "lrpc"
        assert not doc["directed"]

    def test_pc_requires_lrpc_block(self, panel_csv, tmp_path, capsys):
        model = str(tmp_path / "model.json")
        run(capsys, "fit", panel_csv, "--q", "0", "--no-lrpc", "--out", model)
        code, _, err = run(capsys, "export", "--model", model, "--type", "pc")
        assert code == 2
        assert "precision" in err


class TestThresholdCommand:
    def test_report_and_dump(self, panel_csv, tmp_path, capsys):
        model = str(tmp_path / "model.json")
        run(capsys, "fit", panel_csv, "--q", "0", "--no-lrpc", "--out", model)
        dump = str(tmp_path / "scan.csv")
        code, out, _ = run(capsys, "threshold", "--model", model, "--dump", dump)
        assert code == 0
        assert "Threshold:" in out
        assert "Non-zero entries:" in out
        lines = open(dump).read().strip().splitlines()
        assert lines[0] == "t,ratio,cusum"
        assert len(lines) == 101
        # first and last candidates have no CUSUM value
        assert lines[1].endswith(",")
        assert lines[-1].endswith(",")


class TestTuningDump:
    @staticmethod
    def _path_counts(out):
        # "Tuning path: 9 of 20 penalties, 7 of 10 widths" -> [(9, 20), (7, 10)]
        line = next(ln for ln in out.splitlines() if ln.startswith("Tuning path: "))
        parts = line[len("Tuning path: "):].split(", ")
        return [tuple(int(w) for w in part.split()[0:3:2]) for part in parts]

    def test_fit_dump_tuning(self, panel_csv, tmp_path, capsys):
        # The dump lists the solved points of each path, no skipped ones: per
        # stage and order a prefix of the grid that ends at the grid's end or
        # at the first point where the score has risen twice in a row.
        dump = str(tmp_path / "scores.csv")
        code, out, _ = run(
            capsys, "fit", panel_csv, "--q", "1", "--var-order", "1", "2",
            "--dump-tuning", dump,
        )
        assert code == 0
        lines = open(dump).read().strip().splitlines()
        assert lines[0] == "stage,order,parameter,score"
        (var_solved, var_total), (lrpc_solved, lrpc_total) = self._path_counts(out)
        assert (var_total, lrpc_total) == (20, 10)  # 2 orders x 10 penalties, 10 widths
        var_rows = [ln for ln in lines[1:] if ln.startswith("var,")]
        lrpc_rows = [ln for ln in lines[1:] if ln.startswith("lrpc,")]
        assert len(var_rows) == var_solved < var_total
        assert len(lrpc_rows) == lrpc_solved <= lrpc_total
        paths = {}
        for ln in lines[1:]:
            stage, order, param, score = ln.split(",")
            paths.setdefault((stage, order), []).append((float(param), float(score)))
        assert sorted(paths) == [("lrpc", "1"), ("var", "1"), ("var", "2")]
        for (stage, _), rows in paths.items():
            params, scores = np.array(rows).T
            assert np.all(np.diff(params) < 0)
            grid = np.geomspace(params[0], params[0] / 100.0, 10)
            assert np.allclose(params, grid[: len(params)], rtol=1e-12)
            assert first_turn(scores) == len(scores)  # no turn before the last point
            if len(scores) < 10:
                assert scores[-3] < scores[-2] < scores[-1]

    def test_report_without_lrpc_counts_penalties_only(self, panel_csv, capsys):
        code, out, _ = run(capsys, "fit", panel_csv, "--q", "1", "--no-lrpc")
        assert code == 0
        [(solved, total)] = self._path_counts(out)
        assert 3 <= solved <= total == 10
        assert f"Tuning path: {solved} of 10 penalties\n" in out


class TestFactorsCommand:
    def test_ic_report_lists_variants(self, panel_csv, capsys):
        code, out, _ = run(capsys, "factors", panel_csv)
        assert code == 0
        for variant in range(1, 7):
            assert f"IC{variant}:" in out

    def test_one_ladder_for_all_variants(self, panel_csv, capsys, monkeypatch):
        rungs = []
        summary = factor_number.eigenvalue_summary
        monkeypatch.setattr(
            factor_number, "eigenvalue_summary", lambda *a: rungs.append(a) or summary(*a)
        )
        code, out, _ = run(capsys, "factors", panel_csv)
        assert code == 0 and out.count("IC") == 6
        assert len(rungs) == 10  # one ten-rung ladder

    def test_er_report(self, panel_csv, capsys):
        code, out, _ = run(capsys, "factors", panel_csv, "--method", "er")
        assert code == 0
        assert "eigenvalue ratio" in out
        assert "Number of factors:" in out

    def test_restricted_flag(self, panel_csv, capsys):
        code, out, _ = run(capsys, "factors", panel_csv, "--restricted", "--variant", "5")
        assert code == 0
        assert "Factor model: restricted" in out
        assert "IC5:" in out

    def test_stability_warning_under_its_ic_line(self, tmp_path, capsys):
        spec = SimSpec(n=100, p=10, q=2, seed=20)
        path = str(tmp_path / "static.csv")
        np.savetxt(path, (sim_var(spec).data + sim_restricted(spec)).T, delimiter=",")
        code, out, _ = run(capsys, "factors", path, "--restricted")
        assert code == 0
        warning = "  warning: single stability interval; used its last grid point\n"
        assert f"IC5: 3\n{warning}" in out
        code, out, _ = run(capsys, "factors", path)
        assert code == 0 and "warning" not in out

    def test_dump_csv(self, panel_csv, tmp_path, capsys):
        dump = str(tmp_path / "curve.csv")
        code, _, _ = run(capsys, "factors", panel_csv, "--variant", "5", "--dump", dump)
        assert code == 0
        lines = open(dump).read().strip().splitlines()
        assert lines[0] == "c,q_hat,s_of_c"
        assert len(lines) == 201
