"""Digest every file the CLI writes over a fixed set of runs.

Usage::

    PYTHONPATH=src python scripts/report_digests.py OUT_DIR > digests.txt

OUT_DIR must be empty or absent. The script calls ``shiftcal.cli.main``
in-process (whichever ``shiftcal`` the import path finds) for:

* ``gen-synth`` as CSV at K = 3 and K = 10, and as f32 at K = 3;
* ``gen-synth`` once more as f32 at K = 3, d = 40, with 6000 source and
  3000 target rows, so that every split's densities and posteriors span
  several generation blocks (the tasks above fit each split in one);
* ``weights --report``;
* ``calibrate --apply --apply-labels --probs-out`` for every method in
  ``bench.ALL_METHODS`` on each task, weighted methods both with the true
  weight file and with inline feature files;
* ``evaluate`` with and without weights, and ``diagnose``;
* ``calibrate --method transcal`` on the K = 3 task with ``--bins 7``, and
  with a weight file whose every other entry is 0, so that some bins hold
  samples but no weight;
* ``calibrate --method temp --apply`` and ``--method cpcs --apply`` on the
  K = 3 source-validation split plus one correctly predicted row
  [1e308, -1e308, 0] of weight 1, whose logit range overflows float64;
* ``bench --seeds 0,1`` with every method on a small grid, and once more
  with only the three transcal variants in reverse order, a check that
  the order of the fits that share a search state changes no report;
* in-process fits on the K = 3 and K = 10 source-validation splits:
  ``optimize_transcal`` in both modes, with free and frozen lambda, at 7
  and 15 bins, with the true weights and (K = 3) the half-zero weights,
  once more with control variates on K = 3 labels set to the predicted
  class, so that constant correctness is flagged, plus
  ``fit_temperature_nll``, ``fit_cpcs_temperature`` and
  ``transcal_objective`` with the true weights in both modes at lambda 0,
  0.5 and 1, each at T_MIN, T_MAX and two temperatures between them, and (K = 3)
  ``fit_temperature_nll`` on those all-correct labels, on rows of tied
  logits, on the split's first row repeated and labelled with its
  prediction, and on that first row alone, ``fit_cpcs_temperature`` on the
  K = 3 split plus a misclassified row [1e308, -1e308, 0] labelled 1 and
  on a small random task whose weighted Brier score has three local
  minima (``multimodal_task``), and ``serial_control_variate`` on the
  K = 3 split's weighted confidence gaps, once with its correctness and
  once with the all-correct labels' constant one, and the three transcal
  variants on the K = 3 split, then the K = 10 split, then the K = 3 split
  again, so that the fits of one split share a search state and the
  return to the first split rebuilds the one the second split replaced;
* ``fit_cpcs_temperature`` and the three transcal variants on a generated
  K = 10 split of 3000 validation rows, whose transcal grid and cpcs scan
  each take several batches of the working-set budget (the splits above
  fit in one);
* the ``repr`` of each in-process result, search trace included, goes to
  ``fits/<name>.txt``;
* a list of bad inputs, each printed with its exit code and stderr.

An uncaught exception is recorded as ``exit 1: <Type>: <message>``, the
way the console script fails, so a tree that crashes still gets a digest.

It prints ``sha256  relative/path`` for every file under OUT_DIR, then the
temperature, lambda and value of each in-process fit and the four values of
each ``transcal_objective`` setting, then one line per bad input. OUT_DIR is
replaced by ``OUT_DIR`` in stderr, but reports that record file paths still
hold it, so two trees compare only when both runs use the same OUT_DIR path.
To check that a change leaves the reports unchanged, run it on both trees
and diff::

    PYTHONPATH=../base/src python scripts/report_digests.py /tmp/digests > base.txt
    rm -rf /tmp/digests
    PYTHONPATH=src python scripts/report_digests.py /tmp/digests > head.txt
    diff base.txt head.txt
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
from pathlib import Path

import numpy as np

import shiftcal
from shiftcal import bench, cli
from shiftcal.matrixio import load_labels, load_matrix, save_labels, save_matrix
from shiftcal.scaling import T_MAX, T_MIN, fit_cpcs_temperature, fit_temperature_nll
from shiftcal.transcal import EstimatorMode, optimize_transcal, serial_control_variate, transcal_objective

# name, gen-synth flags, matrix suffix
TASKS = (
    ("k3", ["--dimension", "4", "--classes", "3", "--n-source", "600", "--n-target", "400"], ".csv"),
    ("k10", ["--dimension", "10", "--classes", "10", "--n-source", "1000", "--n-target", "500"], ".csv"),
    ("k3f32", ["--dimension", "4", "--classes", "3", "--n-source", "600", "--n-target", "400",
               "--format", "f32"], ".f32"),
)

# the search's bounds and two temperatures inside them
OBJECTIVE_TEMPERATURES = (T_MIN, 0.7, 2.5, T_MAX)

TRANSCAL_VARIANTS = (("transcal", EstimatorMode.CV_SERIAL, False),
                     ("transcal-no-bias", EstimatorMode.CV_SERIAL, True),
                     ("transcal-no-variance", EstimatorMode.PLAIN_IWECE, False))


def run(out: Path, argv: list) -> tuple[int, str]:
    """Exit code and stderr of one CLI call; argparse errors count as exits."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli.main([str(a) for a in argv])
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # the console script would print a traceback and exit 1
            code = 1
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
    return code, err.getvalue().replace(str(out), "OUT_DIR")


def checked(out: Path, argv: list) -> None:
    code, err = run(out, argv)
    if code != 0:
        raise SystemExit(f"{' '.join(map(str, argv))} exited {code}: {err}")


def good_runs(out: Path) -> None:
    for name, flags, ext in TASKS:
        d = out / name
        checked(out, ["gen-synth", "--out", d, "--seed", "3", *flags])
        features = [
            "--source-features", d / f"source_train_features{ext}",
            "--target-features", d / f"target_features{ext}",
            "--eval-features", d / f"source_val_features{ext}",
        ]
        checked(out, ["weights", *features, "--out", d / "est_weights.csv", "--report", d / "weights.json"])
        for method in bench.ALL_METHODS:
            spec = bench.METHODS[method]
            split = "target" if spec.on_target else "source_val"
            fit = ["calibrate", "--method", method,
                   "--logits", d / f"{split}_logits{ext}", "--labels", d / f"{split}_labels.csv"]
            variants = {"": []}
            if spec.needs_weights:
                variants = {"-wfile": ["--weights", d / "true_weights.csv"], "-inline": features}
            for tag, extra in variants.items():
                stem = d / f"{method}{tag}"
                checked(out, [*fit, *extra,
                              "--apply", d / f"target_logits{ext}",
                              "--apply-labels", d / "target_labels.csv",
                              "--probs-out", f"{stem}_probs{ext}", "--out", f"{stem}.json"])
        # source-validation probabilities, so the weight files line up for evaluate
        checked(out, ["calibrate", "--method", "temp",
                      "--logits", d / f"source_val_logits{ext}", "--labels", d / "source_val_labels.csv",
                      "--apply", d / f"source_val_logits{ext}", "--probs-out", d / f"val_probs{ext}",
                      "--out", d / "val_fit.json"])
        scored = ["evaluate", "--probs", d / f"val_probs{ext}", "--labels", d / "source_val_labels.csv"]
        checked(out, [*scored, "--out", d / "eval.json"])
        checked(out, [*scored, "--weights", d / "true_weights.csv", "--out", d / "eval_weighted.json"])
        checked(out, [*scored, "--weights", d / "est_weights.csv", "--bins", "10",
                      "--out", d / "eval_est.json"])
        checked(out, ["diagnose", "--weights", d / "true_weights.csv", "--out", d / "diag.json"])
        checked(out, ["diagnose", "--weights", d / "est_weights.csv", "--alphas", "0.5,2,4",
                      "--histogram-bins", "7", "--out", d / "diag_est.json"])
    # 2**17 budget elements over K * d = 120 give generation blocks of 1092 rows
    checked(out, ["gen-synth", "--out", out / "k3blocks", "--seed", "4", "--dimension", "40", "--classes", "3",
                  "--n-source", "6000", "--n-target", "3000", "--format", "f32"])
    d = out / "k3"
    transcal = ["calibrate", "--method", "transcal",
                "--logits", d / "source_val_logits.csv", "--labels", d / "source_val_labels.csv",
                "--apply", d / "target_logits.csv", "--apply-labels", d / "target_labels.csv"]
    checked(out, [*transcal, "--weights", d / "true_weights.csv", "--bins", "7",
                  "--out", d / "transcal-bins7.json"])
    half_zero = load_matrix(d / "true_weights.csv")
    half_zero[::2] = 0.0
    save_matrix(d / "half_zero_weights.csv", half_zero)
    checked(out, [*transcal, "--weights", d / "half_zero_weights.csv",
                  "--out", d / "transcal-half-zero.json"])
    # %.17g round-trips 1e308 and -1e308
    save_matrix(d / "overflow_logits.csv",
                np.vstack([load_matrix(d / "source_val_logits.csv"), [[1e308, -1e308, 0.0]]]))
    save_labels(d / "overflow_labels.csv", np.r_[load_labels(d / "source_val_labels.csv"), 0])
    save_matrix(d / "overflow_weights.csv", np.r_[load_matrix(d / "true_weights.csv")[:, 0], 1.0][:, None])
    for method, extra in (("temp", []), ("cpcs", ["--weights", d / "overflow_weights.csv"])):
        checked(out, ["calibrate", "--method", method, *extra,
                      "--logits", d / "overflow_logits.csv", "--labels", d / "overflow_labels.csv",
                      "--apply", d / "target_logits.csv", "--apply-labels", d / "target_labels.csv",
                      "--out", d / f"{method}-overflow-row.json"])
    checked(out, ["bench", "--out", out / "bench.json", "--seeds", "0,1",
                  "--methods", ",".join(bench.ALL_METHODS), "--n-source", "600", "--n-target", "600",
                  "--shifts", "0,1.5", "--scales", "1,1.2", "--t-trues", "2"])
    checked(out, ["bench", "--out", out / "bench-reversed.json", "--seeds", "0,1",
                  "--methods", "transcal-no-variance,transcal-no-bias,transcal",
                  "--n-source", "600", "--n-target", "600",
                  "--shifts", "0,1.5", "--scales", "1,1.2", "--t-trues", "2"])


def multimodal_task(seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A small random weighted task; at seed 2937 (22 rows, K = 5) the weighted
    Brier score has three local minima in t."""
    rng = np.random.default_rng(seed)
    n = rng.integers(10, 300)
    k = rng.integers(2, 6)
    logits = rng.standard_normal((n, k)) * rng.uniform(0.5, 4.0)
    if seed % 3 == 0:
        labels = rng.integers(0, k, n)
    else:
        cum = np.cumsum(shiftcal.softmax_with_temperature(logits, rng.uniform(0.3, 3.0)).probs, axis=1)
        cum[:, -1] = 1.0
        labels = (rng.random(n)[:, None] < cum).argmax(axis=1)
    return logits, labels, rng.lognormal(0.0, rng.choice([0.5, 1.0, 2.0]), n)


def fit_runs(out: Path) -> list[str]:
    """Write the repr of every in-process fit to ``fits/``; return one summary line per fit."""
    fits = out / "fits"
    fits.mkdir()
    lines = []

    def record(name: str, result, summary: str) -> None:
        (fits / f"{name}.txt").write_text(repr(result) + "\n", encoding="utf-8")
        lines.append(f"fit {name}: {summary}")

    def record_transcal(name: str, sol) -> None:
        record(name, sol, f"t={sol.t_star.t!r} lambda={sol.lambda_star!r} "
                          f"value={sol.objective_value!r} evaluations={len(sol.trace)}")

    for task, weight_files in (("k3", ("true", "half_zero")), ("k10", ("true",))):
        d = out / task
        logits = load_matrix(d / "source_val_logits.csv")
        labels = load_labels(d / "source_val_labels.csv")
        true_weights = load_matrix(d / "true_weights.csv")[:, 0]
        temperatures = {
            "nll": fit_temperature_nll(logits, labels),
            "cpcs": fit_cpcs_temperature(logits, labels, true_weights),
        }
        for method, fit in temperatures.items():
            record(f"{task}-{method}", fit, f"t={fit.t!r} degenerate={fit.degenerate!r}")
        for weights_name in weight_files:
            weights = load_matrix(d / f"{weights_name}_weights.csv")[:, 0]
            for bins in (7, 15):
                for mode in EstimatorMode:
                    for freeze in (False, True):
                        sol = optimize_transcal(logits, labels, weights, mode, bins, freeze)
                        name = f"{task}-{weights_name}-bins{bins}-{mode.value}{'-frozen' if freeze else ''}"
                        record_transcal(name, sol)
        for mode in EstimatorMode:
            for lam in (0.0, 0.5, 1.0):
                values = [transcal_objective(logits, labels, true_weights, t, lam, mode)
                          for t in OBJECTIVE_TEMPERATURES]
                lines.append(f"fit {task}-true-objective-{mode.value}-lambda{lam:g}: values={values!r}")
        if task == "k3":
            all_correct = np.argmax(logits, axis=1)
            record_transcal("k3-true-bins15-cv_serial-all-correct",
                            optimize_transcal(logits, all_correct, true_weights))
            # minima beyond a bound: all-correct labels, rows of tied logits,
            # identical rows predicted right, and one row
            tied = np.repeat(logits[:, :1], logits.shape[1], axis=1)
            identical = (np.repeat(logits[:1], len(labels), axis=0), np.full(len(labels), all_correct[0]))
            # a misclassified row whose label logit is float max below the row max
            overflow = (np.vstack([logits, [1e308, -1e308, 0.0]]), np.r_[labels, 1], np.r_[true_weights, 1.0])
            for name, fit in (("nll-all-correct", fit_temperature_nll(logits, all_correct)),
                              ("nll-tied-rows", fit_temperature_nll(tied, labels)),
                              ("nll-identical-rows", fit_temperature_nll(*identical)),
                              ("nll-one-row", fit_temperature_nll(logits[:1], labels[:1])),
                              ("cpcs-overflow-row", fit_cpcs_temperature(*overflow))):
                record(f"k3-{name}", fit, f"t={fit.t!r} degenerate={fit.degenerate!r}")
            conf = shiftcal.softmax_with_temperature(logits, 1.0).confidences
            for name, truth in (("varying", labels), ("constant", all_correct)):
                correct = (all_correct == truth).astype(np.float64)
                result = serial_control_variate(true_weights * np.abs(correct - conf), true_weights,
                                                correct, float(conf.mean()))
                record(f"k3-serial_cv-{name}-correctness", result, f"estimate={result[0]!r}")
    for step, task in enumerate(("k3", "k10", "k3")):
        d = out / task
        split = (load_matrix(d / "source_val_logits.csv"), load_labels(d / "source_val_labels.csv"),
                 load_matrix(d / "true_weights.csv")[:, 0])
        for method, mode, freeze in TRANSCAL_VARIANTS:
            record_transcal(f"split{step}-{task}-{method}", optimize_transcal(*split, mode, 15, freeze))
    fit = fit_cpcs_temperature(*multimodal_task(2937))
    record("multimodal-2937-cpcs", fit, f"t={fit.t!r} degenerate={fit.degenerate!r}")
    # 2**17 budget elements over 3000 rows * K = 10 give batches of 4 temperatures:
    # 13 for the transcal grid and 3 for the cpcs scan
    scenario = shiftcal.ShiftScenario.axis_aligned(10, 10, spacing=2.0, shift_magnitude=1.0,
                                                   distortion_temperature=2.0)
    task = shiftcal.generate(scenario, 6000, 10, 3, 0.5)
    split = (task.source_val_logits, task.source_val_labels, task.true_weights)
    fit = fit_cpcs_temperature(*split)
    record("k10batches-cpcs", fit, f"t={fit.t!r} degenerate={fit.degenerate!r}")
    for method, mode, freeze in TRANSCAL_VARIANTS:
        record_transcal(f"k10batches-{method}", optimize_transcal(*split, mode, 15, freeze))
    return lines


def bad_runs(out: Path) -> list[tuple[str, int, str]]:
    d = out / "k3"
    bad = out / "bad"
    bad.mkdir()
    negative = np.ones((120, 1))
    negative[1, 0] = -1.0
    np.savetxt(bad / "negative.csv", negative, fmt="%.17g")
    np.savetxt(bad / "zeros.csv", np.zeros((120, 1)), fmt="%.17g")
    huge = np.ones((120, 1))
    huge[0, 0] = 1e200
    np.savetxt(bad / "huge.csv", huge, fmt="%.17g")
    # sum and sum of squares stay finite, but the Kish ESS is about 1
    huge[0, 0] = 1e100
    np.savetxt(bad / "one-sample.csv", huge, fmt="%.17g")
    np.savetxt(bad / "overflowing.csv", np.full((120, 1), 1e307), fmt="%.17g")
    np.savetxt(bad / "wide.csv", np.ones((4, 2)), fmt="%.17g", delimiter=",")
    (bad / "ragged.csv").write_text("0.5,0.5\n0.25,0.25,0.5\n", encoding="ascii")
    np.savetxt(bad / "one-class.csv", np.linspace(-1.0, 1.0, 50)[:, None], fmt="%.17g")
    np.savetxt(bad / "one-class-labels.csv", np.zeros(50, dtype=np.int64), fmt="%d")
    np.savetxt(bad / "zero-labels.csv", np.zeros(120, dtype=np.int64), fmt="%d")
    nan = np.zeros((120, 3))
    nan[0, 0] = np.nan
    save_matrix(bad / "nan.f32", nan)
    fit = ["calibrate", "--logits", d / "source_val_logits.csv", "--labels", d / "source_val_labels.csv"]
    weights = ["--weights", d / "true_weights.csv"]
    cases = {
        "diagnose-histogram-bins-0": ["diagnose", *weights, "--histogram-bins", "0"],
        "diagnose-histogram-bins-neg": ["diagnose", *weights, "--histogram-bins", "-1"],
        "diagnose-negative-weight": ["diagnose", "--weights", bad / "negative.csv"],
        "diagnose-wide-weights": ["diagnose", "--weights", bad / "wide.csv"],
        "diagnose-empty-alphas": ["diagnose", *weights, "--alphas", ","],
        "diagnose-huge-weight": ["diagnose", "--weights", bad / "huge.csv"],
        "temp-with-weights": [*fit, "--method", "temp", *weights],
        "temp-with-features": [*fit, "--method", "temp", "--source-features", d / "source_train_features.csv"],
        "cpcs-weights-and-features": [*fit, "--method", "cpcs", *weights, "--source-features", "/nonexistent"],
        "cpcs-negative-weight": [*fit, "--method", "cpcs", "--weights", bad / "negative.csv"],
        "cpcs-zero-weights": [*fit, "--method", "cpcs", "--weights", bad / "zeros.csv"],
        "cpcs-overflowing-weights": [*fit, "--method", "cpcs", "--weights", bad / "overflowing.csv"],
        "cpcs-one-sample-weight": [*fit, "--method", "cpcs", "--weights", bad / "one-sample.csv"],
        "transcal-no-weights": [*fit, "--method", "transcal"],
        "transcal-zero-weights": [*fit, "--method", "transcal", "--weights", bad / "zeros.csv"],
        "transcal-huge-weight": [*fit, "--method", "transcal", "--weights", bad / "huge.csv"],
        "transcal-one-sample-weight": [*fit, "--method", "transcal", "--weights", bad / "one-sample.csv"],
        "transcal-no-bias-one-sample-weight": [*fit, "--method", "transcal-no-bias",
                                               "--weights", bad / "one-sample.csv"],
        "transcal-bins-0": [*fit, "--method", "transcal", *weights, "--bins", "0"],
        "temp-bins-0": [*fit, "--method", "temp", "--bins", "0"],
        "temp-one-class": ["calibrate", "--method", "temp", "--logits", bad / "one-class.csv",
                           "--labels", bad / "one-class-labels.csv"],
        "vector-one-class-labels": ["calibrate", "--method", "vector", "--logits", d / "source_val_logits.csv",
                                    "--labels", bad / "zero-labels.csv"],
        "matrix-one-class-labels": ["calibrate", "--method", "matrix", "--logits", d / "source_val_logits.csv",
                                    "--labels", bad / "zero-labels.csv"],
        "calibrate-f32-nan": ["calibrate", "--method", "temp", "--logits", bad / "nan.f32",
                              "--labels", d / "source_val_labels.csv"],
        "gen-synth-dimension-0": ["gen-synth", "--dimension", "0", "--classes", "0"],
        "probs-out-without-apply": [*fit, "--method", "temp", "--probs-out", bad / "p.csv"],
        "apply-class-mismatch": [*fit, "--method", "temp", "--apply", out / "k10" / "target_logits.csv"],
        "evaluate-missing-file": ["evaluate", "--probs", bad / "nope.csv", "--labels", bad / "nope.csv"],
        "evaluate-ragged-probs": ["evaluate", "--probs", bad / "ragged.csv", "--labels", d / "target_labels.csv"],
    }
    results = []
    for name, argv in cases.items():
        code, err = run(out, [*argv, "--out", bad / f"{name}.json"])
        results.append((name, code, err))
    return results


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    out = Path(argv[0]).resolve()
    if out.exists() and any(out.iterdir()):
        print(f"{out} is not empty", file=sys.stderr)
        return 2
    out.mkdir(parents=True, exist_ok=True)
    print(f"shiftcal from {Path(shiftcal.__file__).parent}", file=sys.stderr)
    good_runs(out)
    fits = fit_runs(out)
    bad = bad_runs(out)
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        print(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(out)}")
    for line in fits:
        print(line)
    for name, code, err in bad:
        print(f"bad {name}: exit {code}: {' | '.join(err.strip().splitlines())}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
