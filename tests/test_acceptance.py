"""Acceptance gate: ten end-to-end checks, one per shipped guarantee.

Each test owns one criterion and prints a single PASS line with its key
margin; run ``pytest -v -s tests/test_acceptance.py`` to see them. The
scenario-grid criteria share the session-scoped ``sweep`` fixture from
conftest so the grid is benchmarked once.
"""

import json
import time

import numpy as np

import shiftcal as sc
from shiftcal import (
    ProbabilitySet,
    ShiftScenario,
    apply_control_variate,
    brier,
    ece,
    generate,
    nll,
    per_sample_residuals,
    renyi_diagnostic,
    serial_control_variate,
    softmax_with_temperature,
    true_renyi,
    weighted_ece,
)
from shiftcal.cli import main as cli_main

from conftest import SWEEP_N_SOURCE, SWEEP_N_TARGET, mean_over_runs
from oracles import brute_brier, brute_ece, brute_nll, random_probability_rows

TEMPERATURE_FAMILY = (
    "temp",
    "cpcs",
    "transcal",
    "transcal-no-bias",
    "transcal-no-variance",
    "oracle",
)


def shift_norm(cell) -> float:
    return float(np.linalg.norm(cell["scenario"].shift))


def test_criterion_01_metrics_match_brute_force_oracles():
    start = time.monotonic()
    rng = np.random.default_rng(20260818)
    for _ in range(1000):
        n = int(rng.integers(1, 51))
        k = int(rng.integers(2, 6))
        rows = random_probability_rows(rng, n, k)
        labels = rng.integers(0, k, size=n)
        weights = rng.random(n) + 1e-3
        probs = ProbabilitySet.from_probabilities(np.array(rows))
        label_list = labels.tolist()

        assert ece(probs, labels) == brute_ece(rows, label_list, 15)
        assert weighted_ece(probs, labels, weights) == brute_ece(
            rows, label_list, 15, weights.tolist()
        )
        assert abs(nll(probs, labels) - brute_nll(rows, label_list)) < 1e-12
        assert abs(nll(probs, labels, mean=True) - brute_nll(rows, label_list, mean=True)) < 1e-12
        assert abs(brier(probs, labels) - brute_brier(rows, label_list)) < 1e-12
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    print(f"PASS 01 metric oracle equivalence: 1000 instances in {elapsed:.1f}s")


def test_criterion_02_temperature_methods_never_change_predictions(sweep):
    checked = 0
    for cell in sweep.values():
        for run in cell["runs"]:
            task = generate(cell["scenario"], SWEEP_N_SOURCE, SWEEP_N_TARGET, run["seed"])
            raw_argmax = np.argmax(task.target_logits, axis=1)
            uncal = ProbabilitySet.from_probabilities(
                softmax_with_temperature(task.target_logits, 1.0).probs
            ).predictions
            assert np.array_equal(uncal, raw_argmax)
            for method in TEMPERATURE_FAMILY:
                t = run["methods"][method]["temperature"]
                recovered = ProbabilitySet.from_probabilities(
                    softmax_with_temperature(task.target_logits, t).probs
                ).predictions
                assert np.array_equal(recovered, uncal), (method, run["seed"])
                checked += 1
    print(f"PASS 02 accuracy invariance: {checked} method fits, all predictions unchanged")


def test_criterion_03_true_weights_transport_source_residuals():
    start = time.monotonic()
    worst = 0.0
    for name, scenario in sc.default_grid():
        if float(np.linalg.norm(scenario.shift)) > 1.0 + 1e-9:
            continue
        gaps = []
        for seed in range(10):
            # source size chosen so the validation split is exactly 10000
            task = generate(scenario, 12499, 10000, seed, val_fraction=0.8)
            assert task.true_weights.shape == (10000,)
            src = softmax_with_temperature(task.source_val_logits, 1.0)
            tgt = softmax_with_temperature(task.target_logits, 1.0)
            weighted_mean = float(
                np.mean(task.true_weights * per_sample_residuals(src, task.source_val_labels))
            )
            target_mean = float(np.mean(per_sample_residuals(tgt, task.target_labels)))
            gaps.append(abs(weighted_mean - target_mean))
        mean_gap = float(np.mean(gaps))
        worst = max(worst, mean_gap)
        assert mean_gap <= 0.02, (name, mean_gap)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(f"PASS 03 importance sampling identity: worst mean gap {worst:.4f} in {elapsed:.1f}s")


def test_criterion_04_temperature_recovery(sweep, sweep_build_seconds):
    worst_transcal = worst_oracle = 0.0
    for name, cell in sweep.items():
        if shift_norm(cell) > 1.0 + 1e-9:
            continue
        t_true = cell["scenario"].distortion_temperature
        mean_transcal = mean_over_runs(cell, "transcal", ("temperature",))
        mean_oracle = mean_over_runs(cell, "oracle", ("temperature",))
        rel_t = abs(mean_transcal - t_true) / t_true
        rel_o = abs(mean_oracle - t_true) / t_true
        worst_transcal = max(worst_transcal, rel_t)
        worst_oracle = max(worst_oracle, rel_o)
        assert rel_t <= 0.20, (name, mean_transcal, t_true)
        assert rel_o <= 0.10, (name, mean_oracle, t_true)
    assert sweep_build_seconds < 300.0
    print(
        "PASS 04 temperature recovery: worst relative error "
        f"transcal {worst_transcal:.3f}, oracle {worst_oracle:.3f}, "
        f"grid built in {sweep_build_seconds:.0f}s"
    )


def test_criterion_05_target_error_ordering(sweep):
    shifted = [cell for cell in sweep.values() if shift_norm(cell) > 0.0]
    means = {
        method: float(
            np.mean([mean_over_runs(cell, method, ("target", "ece")) for cell in shifted])
        )
        for method in ("oracle", "transcal", "temp", "uncalibrated")
    }
    assert means["oracle"] <= means["transcal"] + 0.005, means
    assert means["transcal"] <= means["temp"] + 0.005, means
    assert means["temp"] <= means["uncalibrated"] + 0.005, means
    print(
        "PASS 05 target error ordering: "
        + " <= ".join(f"{m} {means[m]:.4f}" for m in ("oracle", "transcal", "temp", "uncalibrated"))
    )


def test_criterion_06_control_variates_shrink_bootstrap_spread():
    start = time.monotonic()
    worst_serial = worst_single = 0.0
    shifted = [
        (name, scenario)
        for name, scenario in sc.default_grid()
        if float(np.linalg.norm(scenario.shift)) > 0.0
    ]
    for index, (name, scenario) in enumerate(shifted):
        spreads = []
        for seed in range(10):
            task = generate(scenario, 6000, 10, seed)
            probs = softmax_with_temperature(
                task.source_val_logits, scenario.distortion_temperature
            )
            conf = probs.confidences
            correct = (probs.predictions == task.source_val_labels).astype(np.float64)
            w = task.true_weights
            n = conf.shape[0]
            rng = np.random.default_rng((606, index, seed))
            estimates = np.empty((200, 3))
            for b in range(200):
                idx = rng.integers(0, n, size=n)
                u = w[idx] * np.abs(correct[idx] - conf[idx])
                plain = float(u.mean())
                single, _, _ = apply_control_variate(u, w[idx], 1.0)
                serial, _ = serial_control_variate(
                    u, w[idx], correct[idx], float(conf[idx].mean())
                )
                estimates[b] = (plain, single, serial)
            spreads.append(estimates.std(axis=0))
        plain_sd, single_sd, serial_sd = np.mean(spreads, axis=0)
        worst_serial = max(worst_serial, serial_sd / single_sd)
        worst_single = max(worst_single, single_sd / plain_sd)
        assert serial_sd <= single_sd * 1.05, (name, serial_sd, single_sd)
        assert single_sd <= plain_sd * 1.05, (name, single_sd, plain_sd)
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    print(
        "PASS 06 bootstrap spread ordering: worst ratios "
        f"serial/single {worst_serial:.3f}, single/plain {worst_single:.3f} in {elapsed:.1f}s"
    )


def test_criterion_07_fitted_coefficient_dominates_sampled_ones():
    rng = np.random.default_rng(707)
    for _ in range(100):
        n = int(rng.integers(5, 200))
        t = rng.standard_normal(n) * rng.uniform(0.5, 2.0)
        u = rng.uniform(-1.0, 1.0) * t + rng.standard_normal(n)
        tau = float(rng.normal())
        _, adjusted, _ = apply_control_variate(u, t, tau)
        fitted_var = np.var(adjusted)
        for _ in range(20):
            eta = float(rng.uniform(-4.0, 4.0))
            assert fitted_var <= np.var(u + eta * (t - tau))
    print("PASS 07 fitted coefficient optimality: 100 instances x 20 candidates, exact dominance")


def test_criterion_08_lambda_tames_weights_and_reduces_bias(sweep):
    taming_checks = 0
    for cell in sweep.values():
        for run in cell["runs"]:
            raw_max = run["weights"]["max"]
            if raw_max < 1.0:
                continue
            for method in ("transcal", "transcal-no-bias", "transcal-no-variance"):
                post = run["methods"][method]["diagnostics"]["max_weight_transformed"]
                assert post <= raw_max, (method, post, raw_max)
                taming_checks += 1

    heavy = {name: cell for name, cell in sweep.items() if abs(shift_norm(cell) - 1.5) < 1e-9}
    assert heavy
    witnesses = []
    for name, cell in heavy.items():
        lam_mean = mean_over_runs(cell, "transcal", ("lambda_star",))
        ece_full = mean_over_runs(cell, "transcal", ("target", "ece"))
        ece_frozen = mean_over_runs(cell, "transcal-no-bias", ("target", "ece"))
        if lam_mean < 1.0 and ece_full <= ece_frozen + 0.005:
            witnesses.append((name, lam_mean, ece_full, ece_frozen))
    assert witnesses, "no heavy-shift scenario shows the bias reduction"
    name, lam_mean, ece_full, ece_frozen = witnesses[0]
    print(
        f"PASS 08 bias taming: {taming_checks} weight-max checks; {name}: "
        f"mean lambda* {lam_mean:.3f}, ece {ece_full:.4f} vs frozen {ece_frozen:.4f} "
        f"({len(witnesses)}/{len(heavy)} heavy scenarios qualify)"
    )


def test_criterion_09_weight_moments_match_closed_form_divergences():
    # source size chosen so the validation split is exactly 50000
    unit_shift = ShiftScenario.axis_aligned(dimension=1, num_classes=1, shift_magnitude=1.0)
    task = generate(unit_shift, 62499, 10, seed=909, val_fraction=0.8)
    assert task.true_weights.shape == (50000,)
    worst = 0.0
    for alpha in (0.5, 1.0):
        estimate = renyi_diagnostic(task.true_weights, alpha)
        want = true_renyi(unit_shift, alpha + 1.0)
        rel = abs(estimate - want) / want
        worst = max(worst, rel)
        assert rel <= 0.05, (alpha, estimate, want)

    # the heaviest order needs a milder shift for the moment estimator to
    # concentrate at this sample size; see the sixth-moment growth rate
    mild_shift = ShiftScenario.axis_aligned(dimension=1, num_classes=1, shift_magnitude=0.7)
    task = generate(mild_shift, 62499, 10, seed=909, val_fraction=0.8)
    estimate = renyi_diagnostic(task.true_weights, 2.0)
    want = true_renyi(mild_shift, 3.0)
    rel = abs(estimate - want) / want
    worst = max(worst, rel)
    assert rel <= 0.05, (estimate, want)

    no_shift = ShiftScenario.axis_aligned(dimension=1, num_classes=1, shift_magnitude=0.0)
    task = generate(no_shift, 2500, 10, seed=11, val_fraction=0.8)
    assert np.all(task.true_weights == 1.0)
    for alpha in (0.5, 1.0, 2.0):
        assert abs(renyi_diagnostic(task.true_weights, alpha) - 1.0) <= 1e-6
    print(f"PASS 09 moment diagnostic: worst relative error {worst:.4f}, no-shift exact")


def test_criterion_10_cli_determinism_and_round_trip(tmp_path):
    def run(*argv):
        code = cli_main([str(a) for a in argv])
        assert code == 0, argv

    def rerun_identical(argv, outputs):
        # reports may embed their own output paths, so determinism means
        # rerunning the identical command line over the same destinations
        before = {path: path.read_bytes() for path in outputs}
        run(*argv)
        for path, blob in before.items():
            assert path.read_bytes() == blob, path.name

    task_dir = tmp_path / "task"
    gen = (
        "gen-synth", "--out", task_dir, "--dimension", 3, "--classes", 2,
        "--spacing", 2.0, "--shift", 1.0, "--t-true", 2.0,
        "--n-source", 600, "--n-target", 400, "--seed", 7,
    )
    run(*gen)
    rerun_identical(gen, sorted(task_dir.iterdir()))

    w_csv, w_json = tmp_path / "w.csv", tmp_path / "w.json"
    weights = (
        "weights",
        "--source-features", task_dir / "source_train_features.csv",
        "--target-features", task_dir / "target_features.csv",
        "--eval-features", task_dir / "source_val_features.csv",
        "--out", w_csv, "--report", w_json, "--seed", 7,
    )
    run(*weights)
    rerun_identical(weights, [w_csv, w_json])

    fit_json, probs_csv = tmp_path / "fit.json", tmp_path / "probs.csv"
    calibrate = (
        "calibrate", "--method", "transcal",
        "--logits", task_dir / "source_val_logits.csv",
        "--labels", task_dir / "source_val_labels.csv",
        "--weights", w_csv,
        "--apply", task_dir / "target_logits.csv",
        "--apply-labels", task_dir / "target_labels.csv",
        "--probs-out", probs_csv, "--out", fit_json,
    )
    run(*calibrate)
    rerun_identical(calibrate, [fit_json, probs_csv])

    eval_json = tmp_path / "evaluation.json"
    evaluate = (
        "evaluate", "--probs", probs_csv,
        "--labels", task_dir / "target_labels.csv", "--out", eval_json,
    )
    run(*evaluate)
    rerun_identical(evaluate, [eval_json])

    diag_json = tmp_path / "diagnostics.json"
    diagnose = ("diagnose", "--weights", w_csv, "--out", diag_json)
    run(*diagnose)
    rerun_identical(diagnose, [diag_json])

    bench_json = tmp_path / "bench.json"
    bench = (
        "bench", "--n-source", 300, "--n-target", 200, "--seeds", "0,1",
        "--shifts", "0,1", "--scales", "1", "--t-trues", "2",
        "--methods", "uncalibrated,temp", "--out", bench_json,
    )
    run(*bench)
    rerun_identical(bench, [bench_json])

    with open(fit_json) as handle:
        fit = json.load(handle)
    with open(eval_json) as handle:
        evaluation = json.load(handle)
    assert fit["applied"]["metrics"] == evaluation["metrics"]
    print("PASS 10 determinism and round trip: all six commands byte-identical, metrics agree")
