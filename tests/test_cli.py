import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import shiftcal
from shiftcal import bench, generate
from shiftcal.cli import main
from shiftcal.matrixio import (
    RAW_MAGIC,
    dump_json,
    load_labels,
    load_matrix,
    load_probabilities,
    save_labels,
    save_matrix,
    stored_probabilities,
)


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def task_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("task")
    code = run(
        "gen-synth", "--out", out, "--dimension", 3, "--classes", 2,
        "--spacing", 2.0, "--shift", 0.8, "--t-true", 2.0,
        "--n-source", 600, "--n-target", 400, "--seed", 4,
    )
    assert code == 0
    return out


def read_json(path):
    with open(path) as handle:
        return json.load(handle)


class TestGenSynth:
    def test_file_set_and_manifest(self, task_dir):
        manifest = read_json(task_dir / "manifest.json")
        assert manifest["schema_version"] == 4
        assert manifest["kind"] == "synthetic_task"
        assert manifest["n_source_train"] == 480
        assert manifest["n_source_val"] == 120
        for stem, name in manifest["files"].items():
            assert (task_dir / name).is_file(), stem
        assert manifest["files"]["target_labels"].endswith(".csv")
        assert manifest["files"]["true_weights"].endswith(".csv")
        logits = load_matrix(task_dir / manifest["files"]["source_val_logits"])
        assert logits.shape == (120, 2)

    def test_rerun_is_byte_identical(self, task_dir, tmp_path):
        again = tmp_path / "again"
        run(
            "gen-synth", "--out", again, "--dimension", 3, "--classes", 2,
            "--spacing", 2.0, "--shift", 0.8, "--t-true", 2.0,
            "--n-source", 600, "--n-target", 400, "--seed", 4,
        )
        names = sorted(p.name for p in task_dir.iterdir())
        assert names == sorted(p.name for p in again.iterdir())
        for name in names:
            assert (task_dir / name).read_bytes() == (again / name).read_bytes(), name

    def test_dimension_zero_exits_two(self, tmp_path, capsys):
        out = tmp_path / "task"
        assert run("gen-synth", "--out", out, "--dimension", 0, "--classes", 0) == 2
        assert "dimension must be at least 1, got 0" in capsys.readouterr().err
        assert not out.exists()

    def test_f32_format_round_trips(self, task_dir, tmp_path):
        raw = tmp_path / "raw"
        code = run(
            "gen-synth", "--out", raw, "--dimension", 3, "--classes", 2,
            "--spacing", 2.0, "--shift", 0.8, "--t-true", 2.0,
            "--n-source", 600, "--n-target", 400, "--seed", 4, "--format", "f32",
        )
        assert code == 0
        manifest = read_json(raw / "manifest.json")
        assert manifest["files"]["target_logits"].endswith(".f32")
        # labels stay exact text regardless of the matrix format
        assert manifest["files"]["target_labels"].endswith(".csv")
        blob = (raw / manifest["files"]["target_logits"]).read_bytes()
        assert blob[:4] == RAW_MAGIC
        dense = load_matrix(task_dir / "target_logits.csv")
        compact = load_matrix(raw / manifest["files"]["target_logits"])
        assert compact.shape == dense.shape
        assert np.allclose(compact, dense, rtol=1e-6, atol=1e-6)
        assert np.array_equal(compact, dense.astype(np.float32).astype(np.float64))


class TestWeights:
    def test_writes_column_and_report(self, task_dir, tmp_path):
        wfile = tmp_path / "w.csv"
        report = tmp_path / "w.json"
        code = run(
            "weights",
            "--source-features", task_dir / "source_train_features.csv",
            "--target-features", task_dir / "target_features.csv",
            "--eval-features", task_dir / "source_val_features.csv",
            "--out", wfile, "--report", report, "--seed", 0,
        )
        assert code == 0
        values = load_matrix(wfile)
        assert values.shape == (120, 1)
        assert np.all(values >= 0.0)
        payload = read_json(report)
        assert payload["kind"] == "weight_fit"
        assert payload["num_eval"] == 120
        assert payload["weights"]["max"] == values.max()

    def test_deterministic_outputs(self, task_dir, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            path = tmp_path / name
            run(
                "weights",
                "--source-features", task_dir / "source_train_features.csv",
                "--target-features", task_dir / "target_features.csv",
                "--eval-features", task_dir / "source_val_features.csv",
                "--out", path, "--seed", 3,
            )
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]


class TestCalibrate:
    def test_temperature_fit_apply_and_evaluate_agree(self, task_dir, tmp_path):
        fit_json = tmp_path / "fit.json"
        probs_csv = tmp_path / "probs.csv"
        code = run(
            "calibrate", "--method", "temp",
            "--logits", task_dir / "source_val_logits.csv",
            "--labels", task_dir / "source_val_labels.csv",
            "--apply", task_dir / "target_logits.csv",
            "--apply-labels", task_dir / "target_labels.csv",
            "--probs-out", probs_csv, "--out", fit_json,
        )
        assert code == 0
        fit = read_json(fit_json)
        assert fit["kind"] == "calibration_fit"
        assert fit["fit"]["method"] == "temp"
        assert fit["fit"]["temperature"] > 0.0
        eval_json = tmp_path / "eval.json"
        code = run(
            "evaluate", "--probs", probs_csv,
            "--labels", task_dir / "target_labels.csv", "--out", eval_json,
        )
        assert code == 0
        evaluation = read_json(eval_json)
        assert fit["applied"]["metrics"] == evaluation["metrics"]

    def test_f32_probabilities_agree_with_evaluate(self, task_dir, tmp_path):
        fit_json = tmp_path / "fit.json"
        probs_f32 = tmp_path / "probs.f32"
        run(
            "calibrate", "--method", "temp",
            "--logits", task_dir / "source_val_logits.csv",
            "--labels", task_dir / "source_val_labels.csv",
            "--apply", task_dir / "target_logits.csv",
            "--apply-labels", task_dir / "target_labels.csv",
            "--probs-out", probs_f32, "--out", fit_json,
        )
        eval_json = tmp_path / "eval.json"
        run(
            "evaluate", "--probs", probs_f32,
            "--labels", task_dir / "target_labels.csv", "--out", eval_json,
        )
        fit = read_json(fit_json)
        evaluation = read_json(eval_json)
        # storage rounding to f32 changes the numbers; both sides must
        # score the file as written, so they still agree exactly
        assert fit["applied"]["metrics"] == evaluation["metrics"]

    def test_transcal_with_estimated_weights_inline(self, task_dir, tmp_path):
        fit_json = tmp_path / "fit.json"
        code = run(
            "calibrate", "--method", "transcal",
            "--logits", task_dir / "source_val_logits.csv",
            "--labels", task_dir / "source_val_labels.csv",
            "--source-features", task_dir / "source_train_features.csv",
            "--target-features", task_dir / "target_features.csv",
            "--eval-features", task_dir / "source_val_features.csv",
            "--out", fit_json,
        )
        assert code == 0
        fit = read_json(fit_json)["fit"]
        assert fit["mode"] == "cv_serial"
        assert 0.0 <= fit["lambda_star"] <= 1.0
        assert fit["diagnostics"]["freeze_lambda"] is False
        assert set(fit["diagnostics"]["renyi_raw"]) == {"0.5", "1.0", "2.0"}
        assert set(fit["coefficients"]) == {"eta", "cov_u_t", "var_t", "flags"}

    def test_transcal_variants_differ_in_reported_mode(self, task_dir, tmp_path):
        wfile = tmp_path / "w.csv"
        run(
            "weights",
            "--source-features", task_dir / "source_train_features.csv",
            "--target-features", task_dir / "target_features.csv",
            "--eval-features", task_dir / "source_val_features.csv",
            "--out", wfile,
        )
        reports = {}
        for method in ("transcal", "transcal-no-bias", "transcal-no-variance"):
            out = tmp_path / f"{method}.json"
            code = run(
                "calibrate", "--method", method,
                "--logits", task_dir / "source_val_logits.csv",
                "--labels", task_dir / "source_val_labels.csv",
                "--weights", wfile, "--out", out,
            )
            assert code == 0
            reports[method] = read_json(out)["fit"]
        assert reports["transcal"]["mode"] == "cv_serial"
        assert reports["transcal-no-bias"]["lambda_star"] == 1.0
        assert reports["transcal-no-variance"]["mode"] == "plain_iwece"

    def test_oracle_method(self, task_dir, tmp_path):
        out = tmp_path / "oracle.json"
        code = run(
            "calibrate", "--method", "oracle",
            "--logits", task_dir / "target_logits.csv",
            "--labels", task_dir / "target_labels.csv",
            "--out", out,
        )
        assert code == 0
        fit = read_json(out)["fit"]
        assert fit["method"] == "oracle"
        assert fit["temperature"] > 0.0

    def test_vector_scaling_method(self, task_dir, tmp_path):
        out = tmp_path / "vec.json"
        probs = tmp_path / "vec_probs.csv"
        code = run(
            "calibrate", "--method", "vector",
            "--logits", task_dir / "source_val_logits.csv",
            "--labels", task_dir / "source_val_labels.csv",
            "--apply", task_dir / "target_logits.csv",
            "--probs-out", probs, "--out", out,
        )
        assert code == 0
        fit = read_json(out)["fit"]
        assert len(fit["scale"]) == 2
        assert len(fit["bias"]) == 2
        rows = load_matrix(probs)
        assert np.allclose(rows.sum(axis=1), 1.0, atol=1e-9)

    def test_weights_rejected_for_unweighted_method(self, task_dir, tmp_path, capsys):
        wfile = tmp_path / "w.csv"
        save_matrix(wfile, np.ones((120, 1)))
        cases = (
            ("temp", ["--weights", wfile], "does not take importance weights"),
            ("temp", ["--source-features", task_dir / "source_train_features.csv"],
             "does not take importance weights"),
            # weights and feature files together are ambiguous, even when a file is missing
            ("cpcs", ["--weights", wfile, "--source-features", tmp_path / "nonexistent.csv"],
             "pass either --weights or the --source-features"),
        )
        for method, extra, message in cases:
            code = run(
                "calibrate", "--method", method,
                "--logits", task_dir / "source_val_logits.csv",
                "--labels", task_dir / "source_val_labels.csv",
                *extra, "--out", tmp_path / "fit.json",
            )
            assert code == 2
            assert message in capsys.readouterr().err
            assert not (tmp_path / "fit.json").exists()

    def test_weighted_method_without_weights_or_features(self, task_dir, tmp_path):
        code = run(
            "calibrate", "--method", "transcal",
            "--logits", task_dir / "source_val_logits.csv",
            "--labels", task_dir / "source_val_labels.csv",
            "--out", tmp_path / "fit.json",
        )
        assert code == 2

    def test_probs_out_without_apply(self, task_dir, tmp_path):
        code = run(
            "calibrate", "--method", "temp",
            "--logits", task_dir / "source_val_logits.csv",
            "--labels", task_dir / "source_val_labels.csv",
            "--probs-out", tmp_path / "p.csv", "--out", tmp_path / "fit.json",
        )
        assert code == 2

    @pytest.mark.parametrize(
        "method", [m for m in bench.ALL_METHODS if bench.METHODS[m].needs_weights]
    )
    def test_zero_weights_degenerate_exit_code(self, task_dir, tmp_path, method):
        wfile = tmp_path / "zeros.csv"
        save_matrix(wfile, np.zeros((120, 1)))
        code = run(
            "calibrate", "--method", method,
            "--logits", task_dir / "source_val_logits.csv",
            "--labels", task_dir / "source_val_labels.csv",
            "--weights", wfile, "--out", tmp_path / "fit.json",
        )
        assert code == 3

    @pytest.mark.parametrize("method", ["temp", "vector", "matrix", "transcal"])
    def test_apply_with_another_class_count_exits_two(self, task_dir, tmp_path, method, capsys):
        wider = tmp_path / "wider_logits.csv"
        save_matrix(wider, np.random.default_rng(0).standard_normal((50, 3)))
        weights = ["--weights", task_dir / "true_weights.csv"] if method == "transcal" else []
        code = run(
            "calibrate", "--method", method,
            "--logits", task_dir / "source_val_logits.csv",
            "--labels", task_dir / "source_val_labels.csv", *weights,
            "--apply", wider, "--out", tmp_path / "fit.json",
        )
        assert code == 2
        err = capsys.readouterr().err
        assert f"{wider} has 3 classes, but the fit on {task_dir / 'source_val_logits.csv'} has 2" in err
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "fit.json").exists()

    @pytest.mark.parametrize(
        "method", [m for m in bench.ALL_METHODS if bench.METHODS[m].needs_weights]
    )
    @pytest.mark.parametrize("huge", ["all_1e307", "one_1e200"])
    def test_overflowing_weights_degenerate_exit_code(self, task_dir, tmp_path, method, huge):
        # all at 1e307 the weight sum overflows; one at 1e200 overflows the sum of squares
        weights = np.full((120, 1), 1e307) if huge == "all_1e307" else np.ones((120, 1))
        if huge == "one_1e200":
            weights[0, 0] = 1e200
        wfile = tmp_path / "huge.csv"
        save_matrix(wfile, weights)
        code = run(
            "calibrate", "--method", method,
            "--logits", task_dir / "source_val_logits.csv",
            "--labels", task_dir / "source_val_labels.csv",
            "--weights", wfile, "--out", tmp_path / "fit.json",
        )
        assert code == 3

    @pytest.mark.parametrize(
        "method", [m for m in bench.ALL_METHODS if bench.METHODS[m].needs_weights]
    )
    def test_one_huge_finite_weight_exits_three(self, tmp_path, capsys, method):
        # the gen-synth task at seed 3 (K = 3, 120 validation rows), with every
        # weight 1 but one at 1e100: sum and sum of squares stay finite, but
        # the Kish ESS (sum w)^2 / sum w^2 is about 1, below the floor of 2
        assert run("gen-synth", "--out", tmp_path, "--n-source", 600, "--seed", 3) == 0
        weights = np.ones((120, 1))
        weights[0, 0] = 1e100
        save_matrix(tmp_path / "huge.csv", weights)
        out = tmp_path / "fit.json"
        code = run(
            "calibrate", "--method", method,
            "--logits", tmp_path / "source_val_logits.csv",
            "--labels", tmp_path / "source_val_labels.csv",
            "--weights", tmp_path / "huge.csv", "--out", out,
        )
        assert code == 3
        assert "Kish effective sample size 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("method", [m for m in bench.ALL_METHODS if m != "uncalibrated"])
    def test_one_class_logits_exit_two(self, tmp_path, capsys, method):
        logits, labels, weights = tmp_path / "logits.csv", tmp_path / "labels.csv", tmp_path / "w.csv"
        save_matrix(logits, np.linspace(-1.0, 1.0, 50)[:, None])
        save_labels(labels, np.zeros(50, dtype=np.int64))
        save_matrix(weights, np.ones((50, 1)))
        extra = ("--weights", weights) if bench.METHODS[method].needs_weights else ()
        out = tmp_path / "fit.json"
        code = run("calibrate", "--method", method, "--logits", logits, "--labels", labels, *extra, "--out", out)
        assert code == 2
        assert "logits must be a 2-d array with at least two classes" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("method", ["vector", "matrix"])
    def test_one_class_labels_have_no_affine_minimizer(self, tmp_path, capsys, method):
        logits, labels = tmp_path / "logits.csv", tmp_path / "labels.csv"
        save_matrix(logits, np.random.default_rng(0).standard_normal((200, 3)))
        save_labels(labels, np.zeros(200, dtype=np.int64))
        out = tmp_path / "fit.json"
        code = run("calibrate", "--method", method, "--logits", logits, "--labels", labels, "--out", out)
        assert code == 3
        assert f"{method} scaling has no minimizer: every label is class 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("method", bench.ALL_METHODS)
    def test_every_method_fits_and_applies(self, task_dir, tmp_path, method):
        spec = bench.METHODS[method]
        split = "target" if spec.on_target else "source_val"
        base = [
            "calibrate", "--method", method,
            "--logits", task_dir / f"{split}_logits.csv",
            "--labels", task_dir / f"{split}_labels.csv",
            "--apply", task_dir / "target_logits.csv",
            "--apply-labels", task_dir / "target_labels.csv",
            "--probs-out", tmp_path / "probs.csv", "--out", tmp_path / "fit.json",
        ]
        with_weights = base + ["--weights", task_dir / "true_weights.csv"]
        # weights are required exactly by the methods that need them
        right, wrong = (with_weights, base) if spec.needs_weights else (base, with_weights)
        assert run(*wrong) == 2
        assert run(*right) == 0
        report = read_json(tmp_path / "fit.json")
        assert report["applied"]["metrics"]["num_samples"] == 400
        if "temperature" in report["fit"]:
            probs = load_matrix(tmp_path / "probs.csv")
            logits = load_matrix(task_dir / "target_logits.csv")
            rows = np.arange(probs.shape[0])
            assert np.array_equal(probs[rows, logits.argmax(axis=1)], probs.max(axis=1))
        if method == "uncalibrated":
            assert report["fit"]["temperature"] == 1.0

    def test_cpcs_rejects_negative_label(self, task_dir, tmp_path):
        labels = load_labels(task_dir / "source_val_labels.csv")
        labels[0] = -1
        bad = tmp_path / "labels.csv"
        save_labels(bad, labels)
        code = run(
            "calibrate", "--method", "cpcs",
            "--logits", task_dir / "source_val_logits.csv",
            "--labels", bad, "--weights", task_dir / "true_weights.csv",
            "--out", tmp_path / "fit.json",
        )
        assert code == 2


class TestEvaluate:
    def test_report_shape_and_weighted_ece(self, task_dir, tmp_path):
        probs_csv = tmp_path / "probs.csv"
        run(
            "calibrate", "--method", "temp",
            "--logits", task_dir / "source_val_logits.csv",
            "--labels", task_dir / "source_val_labels.csv",
            "--apply", task_dir / "source_val_logits.csv",
            "--probs-out", probs_csv, "--out", tmp_path / "fit.json",
        )
        plain = tmp_path / "plain.json"
        run(
            "evaluate", "--probs", probs_csv,
            "--labels", task_dir / "source_val_labels.csv", "--out", plain,
        )
        report = read_json(plain)
        assert report["kind"] == "evaluation"
        assert "weighted_ece" not in report
        table = report["reliability"]
        assert len(table["counts"]) == 15
        assert sum(table["counts"]) == 120
        # two-class confidences never fall below one half, so low bins
        # are empty and their accuracy serializes as null
        assert table["accuracy"][0] is None
        weighted = tmp_path / "weighted.json"
        run(
            "evaluate", "--probs", probs_csv,
            "--labels", task_dir / "source_val_labels.csv",
            "--weights", task_dir / "true_weights.csv", "--out", weighted,
        )
        report_w = read_json(weighted)
        assert report_w["weighted_ece"] >= 0.0
        assert report_w["metrics"] == report["metrics"]

    def test_rerun_byte_identical(self, task_dir, tmp_path):
        probs_csv = tmp_path / "probs.csv"
        run(
            "calibrate", "--method", "temp",
            "--logits", task_dir / "source_val_logits.csv",
            "--labels", task_dir / "source_val_labels.csv",
            "--apply", task_dir / "target_logits.csv",
            "--probs-out", probs_csv, "--out", tmp_path / "fit.json",
        )
        outs = []
        for name in ("e1.json", "e2.json"):
            path = tmp_path / name
            run(
                "evaluate", "--probs", probs_csv,
                "--labels", task_dir / "target_labels.csv", "--out", path,
            )
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]


class TestDiagnose:
    def test_histogram_and_renyi_keys(self, task_dir, tmp_path):
        out = tmp_path / "diag.json"
        code = run(
            "diagnose", "--weights", task_dir / "true_weights.csv",
            "--histogram-bins", 8, "--out", out,
        )
        assert code == 0
        report = read_json(out)
        assert report["kind"] == "weight_diagnostics"
        assert report["num_weights"] == 120
        hist = report["histogram"]
        assert len(hist["edges"]) == 9
        assert len(hist["counts"]) == 8
        assert sum(hist["counts"]) == 120
        assert hist["edges"][0] == 0.0
        assert hist["edges"][-1] == report["max"]
        assert set(report["renyi"]) == {"0.5", "1.0", "2.0"}

    def test_overflowing_order_is_null(self, tmp_path):
        weights = np.ones((120, 1))
        weights[0, 0] = 1e200
        save_matrix(tmp_path / "w.csv", weights)
        out = tmp_path / "diag.json"
        assert run("diagnose", "--weights", tmp_path / "w.csv", "--out", out) == 0
        assert read_json(out)["renyi"]["0.5"] is None

    def test_custom_alphas(self, task_dir, tmp_path):
        out = tmp_path / "diag.json"
        run(
            "diagnose", "--weights", task_dir / "true_weights.csv",
            "--alphas", "1,3", "--out", out,
        )
        assert set(read_json(out)["renyi"]) == {"1.0", "3.0"}

    def test_an_order_listed_twice_exits_two(self, task_dir, tmp_path, capsys):
        """1 and 1.0 are one order, which the report would key once as "1.0"."""
        out = tmp_path / "diag.json"
        code = run("diagnose", "--weights", task_dir / "true_weights.csv", "--alphas", "1,1.0,2", "--out", out)
        assert code == 2
        assert "order 1.0 is listed more than once" in capsys.readouterr().err
        assert not out.exists()


class TestBench:
    def test_small_grid_runs_and_repeats(self, tmp_path):
        args = (
            "bench", "--n-source", 400, "--n-target", 300,
            "--seeds", "0,1", "--shifts", "0,1", "--scales", "1",
            "--t-trues", "2", "--methods", "uncalibrated,temp,transcal",
        )
        first, second = tmp_path / "b1.json", tmp_path / "b2.json"
        assert run(*args, "--out", first) == 0
        assert run(*args, "--out", second) == 0
        assert first.read_bytes() == second.read_bytes()
        payload = read_json(first)
        assert payload["kind"] == "benchmark"
        assert len(payload["records"]) == 4  # 2 scenarios x 2 seeds
        summary = payload["summary"]
        assert set(summary["by_scenario"]) == {"shift0_scale1_t2", "shift1_scale1_t2"}
        for cell in summary["by_scenario"].values():
            assert set(cell) == {"uncalibrated", "temp", "transcal"}

    def test_unknown_method_rejected(self, tmp_path):
        code = run(
            "bench", "--methods", "temp,bogus", "--seeds", "0",
            "--shifts", "0", "--scales", "1", "--t-trues", "1",
            "--n-source", 50, "--n-target", 50, "--out", tmp_path / "b.json",
        )
        assert code == 2

    SMALL_GRID = ("--seeds", "0", "--shifts", "0", "--scales", "1", "--t-trues", "1", "--n-source", 60, "--n-target", 50)

    def test_empty_method_items_are_dropped(self, tmp_path):
        first, second = tmp_path / "b1.json", tmp_path / "b2.json"
        assert run("bench", "--methods", ",temp,,uncalibrated,", *self.SMALL_GRID, "--out", first) == 0
        assert run("bench", "--methods", "temp,uncalibrated", *self.SMALL_GRID, "--out", second) == 0
        assert read_json(first)["settings"]["methods"] == ["temp", "uncalibrated"]
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("methods", ["temp,temp", "temp,uncalibrated,temp"])
    def test_a_method_listed_twice_exits_two(self, tmp_path, capsys, methods):
        out = tmp_path / "b.json"
        assert run("bench", "--methods", methods, *self.SMALL_GRID, "--out", out) == 2
        assert "method 'temp' is listed more than once" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value, named",
        [
            ("--seeds", "0,0", "seed 0"),
            ("--shifts", "0,1,1.0", "scenario 'shift1_scale1_t1'"),
            ("--t-trues", "1,2,1", "scenario 'shift0_scale1_t1'"),
        ],
    )
    def test_a_seed_or_scenario_listed_twice_exits_two(self, tmp_path, capsys, flag, value, named):
        """A repeated seed or grid value would be run twice and counted twice in the means."""
        grid = {"--seeds": "0", "--shifts": "0", "--scales": "1", "--t-trues": "1", flag: value}
        out = tmp_path / "b.json"
        args = [item for pair in grid.items() for item in pair]
        assert run("bench", *args, "--methods", "temp", "--n-source", 50, "--n-target", 50, "--out", out) == 2
        assert f"{named} is listed more than once" in capsys.readouterr().err
        assert not out.exists()

    def test_run_grid_rejects_a_repeated_seed_or_scenario_name(self):
        scenarios = bench.default_grid(shifts=(0.0,), scales=(1.0,), temperatures=(1.0,))
        with pytest.raises(ValueError, match="seed 3 is listed more than once"):
            bench.run_grid(scenarios=scenarios, seeds=(3, 1, 3), n_source=50, n_target=50, methods=("temp",))
        with pytest.raises(ValueError, match="scenario 'shift0_scale1_t1' is listed more than once"):
            bench.run_grid(scenarios=scenarios * 2, seeds=(0,), n_source=50, n_target=50, methods=("temp",))

    @pytest.mark.parametrize("flag", ["--seeds", "--shifts", "--scales", "--t-trues", "--methods"])
    def test_empty_grid_argument_exits_two(self, tmp_path, flag):
        grid = {"--seeds": "0", "--shifts": "0", "--scales": "1", "--t-trues": "1"}
        grid[flag] = ""
        out = tmp_path / "b.json"
        args = [item for pair in grid.items() for item in pair]
        assert run("bench", *args, "--n-source", 50, "--n-target", 50, "--out", out) == 2
        assert not out.exists()

    def test_dimension_zero_exits_two(self, tmp_path, capsys):
        out = tmp_path / "b.json"
        grid = ("--seeds", "0", "--shifts", "0", "--scales", "1", "--t-trues", "1")
        code = run("bench", "--dimension", 0, "--classes", 0, *grid,
                   "--n-source", 50, "--n-target", 50, "--out", out)
        assert code == 2
        assert "dimension must be at least 1, got 0" in capsys.readouterr().err
        assert not out.exists()

    def test_every_method_entry_carries_the_calibrate_fit_block(self, tmp_path):
        """A method's bench entry, less its name and metrics, is the fit block of
        ``calibrate`` on the same split, with weights estimated the same way."""
        (_, scenario), = bench.default_grid(shifts=(1.0,), scales=(1.0,), temperatures=(2.0,))
        n, seed = 300, 5
        dump_json(tmp_path / "record.json", bench.run_single(scenario, n, n, seed, bench.ALL_METHODS))
        entries = read_json(tmp_path / "record.json")["methods"]
        task = generate(scenario, n, n, seed)
        for name in ("source_train", "source_val", "target"):
            save_matrix(tmp_path / f"{name}_features.csv", getattr(task, name))
        for name in ("source_val", "target"):
            save_matrix(tmp_path / f"{name}_logits.csv", getattr(task, f"{name}_logits"))
            save_labels(tmp_path / f"{name}_labels.csv", getattr(task, f"{name}_labels"))
        features = [
            "--source-features", tmp_path / "source_train_features.csv",
            "--target-features", tmp_path / "target_features.csv",
            "--eval-features", tmp_path / "source_val_features.csv", "--seed", seed,
        ]
        for method, spec in bench.METHODS.items():
            split = "target" if spec.on_target else "source_val"
            out = tmp_path / f"{method}.json"
            assert run(
                "calibrate", "--method", method, "--logits", tmp_path / f"{split}_logits.csv",
                "--labels", tmp_path / f"{split}_labels.csv",
                *(features if spec.needs_weights else []), "--out", out,
            ) == 0
            fit = read_json(out)["fit"]
            assert fit.pop("method") == method
            entry = {k: v for k, v in entries[method].items() if k not in ("method", "target", "source_val")}
            assert entry == fit, method

    def test_run_grid_rejects_empty_methods(self):
        scenarios = bench.default_grid(shifts=(0.0,), scales=(1.0,), temperatures=(1.0,))
        with pytest.raises(ValueError):
            bench.run_grid(scenarios=scenarios, seeds=(0,), n_source=50, n_target=50, methods=())


class TestErrorPaths:
    def test_missing_file_exits_two(self, tmp_path):
        code = run(
            "evaluate", "--probs", tmp_path / "nope.csv",
            "--labels", tmp_path / "nope2.csv", "--out", tmp_path / "e.json",
        )
        assert code == 2

    def test_a_probability_above_one_exits_two_naming_the_file(self, task_dir, tmp_path, capsys):
        probs = np.full((120, 2), 0.5)
        probs[3] = [1.0000000000001, 0.0]
        bad = tmp_path / "above-one.csv"
        save_matrix(bad, probs)
        code = run("evaluate", "--probs", bad, "--labels", task_dir / "source_val_labels.csv",
                   "--out", tmp_path / "e.json")
        assert code == 2
        assert f"{bad}: probabilities outside [0, 1]" in capsys.readouterr().err
        assert not (tmp_path / "e.json").exists()

    def test_bad_method_is_an_argparse_error(self, task_dir, tmp_path):
        with pytest.raises(SystemExit) as info:
            run(
                "calibrate", "--method", "bogus",
                "--logits", task_dir / "source_val_logits.csv",
                "--labels", task_dir / "source_val_labels.csv",
                "--out", tmp_path / "fit.json",
            )
        assert info.value.code == 2

    def test_malformed_weight_file_exits_two(self, task_dir, tmp_path):
        wide = tmp_path / "wide.csv"
        save_matrix(wide, np.ones((4, 2)))
        code = run("diagnose", "--weights", wide, "--out", tmp_path / "d.json")
        assert code == 2

    @pytest.mark.parametrize("command", ["calibrate", "evaluate", "diagnose"])
    def test_negative_weight_exits_two(self, task_dir, tmp_path, capsys, command):
        weights = load_matrix(task_dir / "true_weights.csv")
        weights[1, 0] = -1.0
        bad = tmp_path / "bad.csv"
        save_matrix(bad, weights)
        probs = tmp_path / "probs.csv"
        save_matrix(probs, np.full((weights.shape[0], 2), 0.5))
        argv = {
            "calibrate": (
                "calibrate", "--method", "cpcs",
                "--logits", task_dir / "source_val_logits.csv",
                "--labels", task_dir / "source_val_labels.csv",
            ),
            "evaluate": ("evaluate", "--probs", probs, "--labels", task_dir / "source_val_labels.csv"),
            "diagnose": ("diagnose",),
        }[command]
        code = run(*argv, "--weights", bad, "--out", tmp_path / "report.json")
        assert code == 2
        assert "weights must be finite and non-negative" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("case", ["0", "-1", "calibrate_bins_0", "empty_alphas"])
    def test_histogram_bins_below_one_exit_two(self, task_dir, tmp_path, capsys, case):
        # the same holds for the other count arguments: calibrate --bins and diagnose --alphas
        weights = ("--weights", task_dir / "true_weights.csv")
        argv, message = {
            "0": (("diagnose", *weights, "--histogram-bins", 0), "--histogram-bins must be at least 1, got 0"),
            "-1": (("diagnose", *weights, "--histogram-bins", -1), "--histogram-bins must be at least 1, got -1"),
            "calibrate_bins_0": (
                (
                    "calibrate", "--method", "temp", "--bins", 0,
                    "--logits", task_dir / "source_val_logits.csv",
                    "--labels", task_dir / "source_val_labels.csv",
                ),
                "bins must be a positive integer, got 0",
            ),
            "empty_alphas": (("diagnose", *weights, "--alphas", ","), "--alphas must list at least one order"),
        }[case]
        out = tmp_path / "report.json"
        code = run(*argv, "--out", out)
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestMatrixIO:
    @pytest.mark.parametrize("shape", [(-1, 1), (-1, 4)], ids=["one_column", "four_columns"])
    def test_csv_bytes_match_a_pure_python_writer(self, tmp_path, shape):
        rng = np.random.default_rng(29)
        spread = rng.standard_normal(396) * 10.0 ** rng.integers(-300, 301, size=396)
        edge = [0.0, -0.0, 5e-324, 1e-320, np.finfo(np.float64).max, -np.finfo(np.float64).max, 0.1, 1 / 3]
        values = np.concatenate([edge, spread]).reshape(shape)
        want = "".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in values.tolist())
        path = tmp_path / "m.csv"
        save_matrix(path, values)
        assert path.read_bytes() == want.encode("ascii")
        back = load_matrix(path)
        assert np.array_equal(back, values)
        assert np.array_equal(np.signbit(back), np.signbit(values))

    @pytest.mark.parametrize("scale", [1.0, 30.0, 300.0])
    def test_written_csv_probabilities_are_the_ones_in_memory(self, tmp_path, scale):
        """``calibrate --probs-out`` scores a CSV from memory instead of reading it
        back: softmax rows, with their zeros and subnormals, round-trip bit for bit."""
        logits = np.random.default_rng(31).standard_normal((400, 10)) * scale
        probs = shiftcal.softmax_with_temperature(logits, 1.0).probs
        path = tmp_path / "p.csv"
        save_matrix(path, probs)
        assert np.array_equal(load_matrix(path).view(np.uint64), probs.view(np.uint64))
        assert np.array_equal(stored_probabilities(probs, path), load_probabilities(path))

    @pytest.mark.parametrize(
        "loader, text, message",
        [
            (load_matrix, "# written by hand\n1,2\n", "could not convert string '# written by hand'"),
            (load_labels, "0\n# trailer\n", "the number of columns changed"),
            (load_matrix, "1,2\n3,4,5\n", "the number of columns changed from 2 to 3"),
            (load_labels, "0 1\n", "labels must be a single column"),
            (load_matrix, "", "empty matrix file"),
            (load_labels, "\n\n", "empty label file"),
            (load_labels, "1.5\n", "could not convert string '1.5'"),
        ],
        ids=[
            "matrix_comment",
            "labels_comment",
            "matrix_ragged",
            "labels_two_columns",
            "matrix_empty",
            "labels_blank",
            "labels_float",
        ],
    )
    def test_bad_text_raises_value_error_naming_the_path(self, tmp_path, recwarn, loader, text, message):
        path = tmp_path / "bad.csv"
        path.write_text(text, encoding="ascii")
        with pytest.raises(ValueError) as info:
            loader(path)
        assert str(info.value).startswith(f"{path}: ")
        assert message in str(info.value)
        assert not recwarn.list

    def test_integer_via_float_deprecation_is_a_parse_error(self, tmp_path, monkeypatch):
        # numpy 1.x loadtxt truncates "1.7" to 1 for an integer dtype and only warns
        def truncating_loadtxt(fh, **kwargs):
            warnings.warn("loadtxt(): Parsing an integer via a float is deprecated.", DeprecationWarning)
            return np.array([[1], [0]], dtype=np.int64)

        path = tmp_path / "labels.csv"
        path.write_text("1.7\n0.2\n", encoding="ascii")
        monkeypatch.setattr(np, "loadtxt", truncating_loadtxt)
        with pytest.raises(ValueError, match="Parsing an integer via a float") as info:
            load_labels(path)
        assert str(info.value).startswith(f"{path}: ")

    @pytest.mark.parametrize("suffix", [".csv", ".f32"])
    def test_non_finite_entries_name_the_file(self, tmp_path, suffix):
        values = np.zeros((3, 2))
        values[1, 1] = np.nan
        path = tmp_path / f"nan{suffix}"
        save_matrix(path, values)
        with pytest.raises(ValueError, match=re.escape(f"{path}: matrix contains non-finite entries")):
            load_matrix(path)

    @pytest.mark.parametrize("loader", [load_matrix, load_labels], ids=["matrix", "labels"])
    def test_missing_file_message_is_the_os_error(self, tmp_path, loader):
        path = tmp_path / "nope.csv"
        with pytest.raises(FileNotFoundError, match="No such file or directory") as info:
            loader(path)
        assert str(path) in str(info.value)


class TestPublicApi:
    def test_every_exported_name_resolves(self):
        modules = [shiftcal] + [
            importlib.import_module(f"shiftcal.{info.name}")
            for info in pkgutil.iter_modules(shiftcal.__path__)
            if info.name != "__main__"
        ]
        for module in modules:
            for name in getattr(module, "__all__", ()):
                assert hasattr(module, name), f"{module.__name__}.__all__ lists missing {name!r}"


class TestInstalledEntryPoint:
    def test_console_script_runs(self, tmp_path):
        """The declared `shiftcal` script, run as its own process, works.

        The wrapper written here is the one an installer writes for a
        `[project.scripts]` entry, so the test needs no install step and
        runs the tree under test, never a copy that happens to be on PATH.
        """
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        with open(pyproject, "rb") as handle:
            target = tomllib.load(handle)["project"]["scripts"]["shiftcal"]
        module, _, func = target.partition(":")
        exe = tmp_path / "bin" / "shiftcal"
        exe.parent.mkdir()
        exe.write_text(
            f"#!{sys.executable}\n"
            "import sys\n"
            f"from {module} import {func}\n"
            f"sys.exit({func}())\n"
        )
        exe.chmod(0o755)
        src = Path(shiftcal.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")])
        ))
        result = subprocess.run(
            [str(exe), "gen-synth", "--out", str(tmp_path / "t"),
             "--n-source", "40", "--n-target", "20", "--dimension", "2",
             "--classes", "2", "--seed", "1"],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert result.returncode == 0, result.stderr
        assert (tmp_path / "t" / "manifest.json").is_file()


class TestNoScipyAtRuntime:
    # run in a fresh interpreter, because this one already has scipy loaded
    SCRIPT = """
import json, sys

def loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

seen = []

def run(*argv):
    code = shiftcal.cli.main([str(a) for a in argv])
    seen.append([" ".join(str(a) for a in argv).replace(out, "OUT"), code, loaded()])

import shiftcal
seen.append(["import shiftcal", 0, loaded()])
import shiftcal.cli
out = sys.argv[1]
task = out + "/task"
run("gen-synth", "--out", task, "--dimension", 3, "--classes", 3,
    "--n-source", 300, "--n-target", 200, "--seed", 2)
files = json.load(open(task + "/manifest.json"))["files"]
f = {stem: task + "/" + name for stem, name in files.items()}
inline = ["--source-features", f["source_train_features"], "--target-features", f["target_features"]]
for method, spec in shiftcal.bench.METHODS.items():
    split = "target" if spec.on_target else "source_val"
    fit = ["--method", method, "--logits", f[split + "_logits"], "--labels", f[split + "_labels"],
           "--apply", f["target_logits"], "--apply-labels", f["target_labels"]]
    weights = ["--weights", f["true_weights"]] if spec.needs_weights else []
    run("calibrate", *fit, *weights, "--probs-out", out + "/" + method + ".csv",
        "--out", out + "/" + method + ".json")
    if spec.needs_weights:
        run("calibrate", *fit, *inline, "--eval-features", f["source_val_features"],
            "--out", out + "/" + method + "-inline.json")
run("evaluate", "--probs", out + "/cpcs.csv", "--labels", f["target_labels"],
    "--out", out + "/eval.json")
run("diagnose", "--weights", f["true_weights"], "--out", out + "/diag.json")
run("weights", *inline, "--eval-features", f["source_val_features"], "--out", out + "/w.csv")
run("bench", "--n-source", 200, "--n-target", 150, "--seeds", 0, "--shifts", 1,
    "--scales", 1, "--t-trues", 2, "--methods", ",".join(shiftcal.bench.ALL_METHODS),
    "--out", out + "/bench.json")
print(json.dumps(seen))
"""

    def test_no_command_loads_any_scipy_module(self, tmp_path):
        """numpy is the only runtime dependency: importing the package and
        running every command, the domain classifier included, loads no
        module of scipy."""
        src = Path(shiftcal.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")])
        ))
        result = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, str(tmp_path)],
            capture_output=True, text=True, timeout=120, env=env,
        )
        assert result.returncode == 0, result.stderr
        seen = json.loads(result.stdout.splitlines()[-1])
        weighted = sum(spec.needs_weights for spec in bench.METHODS.values())
        assert len(seen) == 1 + 1 + len(bench.METHODS) + weighted + 4
        assert {step.split()[0] for step, _, _ in seen} == {
            "import", "gen-synth", "calibrate", "evaluate", "diagnose", "weights", "bench",
        }
        assert [(step, code, modules) for step, code, modules in seen if code or modules] == []


class TestReadme:
    def test_method_table_lists_the_registry(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        table = readme.split("Methods accepted by `calibrate --method`:")[1].split("\n\n")[1]
        rows = [line.split("`")[1] for line in table.splitlines() if line.startswith("| `")]
        assert tuple(rows) == bench.ALL_METHODS

    def test_quick_start_runs_and_lands_where_the_prose_says(self, capsys):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("## Quick start")[1]
        code = section.split("```python\n")[1].split("```")[0]
        stated = re.search(r"lands\s+at (\d+\.\d+)", section).group(1)
        exec(compile(code, "README.md", "exec"), {})
        t_star = float(capsys.readouterr().out.split()[0])
        assert f"{t_star:.2f}" == stated
