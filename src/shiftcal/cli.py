"""Command-line interface.

Subcommands cover the full pipeline: ``gen-synth`` writes a synthetic
shift task to disk, ``weights`` estimates importance weights from feature
files, ``calibrate`` fits a calibration method and optionally applies it,
``evaluate`` scores stored probabilities against labels, ``diagnose``
summarizes a weight vector, and ``bench`` runs the scenario grid.

All reports are JSON with sorted keys, two-space indentation, a
``schema_version`` field and no timestamps, so identical inputs produce
byte-identical outputs. Exit codes: 0 on success, 2 for invalid inputs or
arguments, 3 when a computation degenerates numerically.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import bench as benchmod
from .errors import DegeneracyError
from .matrixio import (
    dump_json,
    is_raw_path,
    load_labels,
    load_matrix,
    load_probabilities,
    save_labels,
    save_matrix,
    stored_probabilities,
)
from .metrics import ProbabilitySet, _num_bins, check_weights, metric_report, reliability_bins, weighted_ece
from .synthshift import ShiftScenario, generate
from .transcal import renyi_diagnostic

SCHEMA_VERSION = 4


def _list_of(kind: type, noun: str):
    """An argparse type for comma-separated ``kind`` values, called ``noun`` in its error."""

    def parse(text: str) -> list:
        try:
            return [kind(p) for p in text.split(",") if p != ""]
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected comma-separated {noun}, got {text!r}")

    return parse


_float_list, _int_list = _list_of(float, "numbers"), _list_of(int, "integers")
_name_list = _list_of(str, "names")


def _load_weights(path) -> np.ndarray:
    values = load_matrix(path)
    if values.shape[1] != 1:
        raise ValueError(f"{path}: weights must be a single-column file")
    return check_weights(values[:, 0])


def _write_report(path, kind: str, payload: dict) -> None:
    payload = dict(payload)
    payload["schema_version"] = SCHEMA_VERSION
    payload["kind"] = kind
    dump_json(path, payload)


# ---------------------------------------------------------------- gen-synth


def _cmd_gen_synth(args) -> int:
    scenario = ShiftScenario.axis_aligned(
        dimension=args.dimension,
        num_classes=args.classes,
        spacing=args.spacing,
        shift_magnitude=args.shift,
        variance_scale=args.variance_scale,
        distortion_temperature=args.t_true,
    )
    task = generate(scenario, args.n_source, args.n_target, args.seed, args.val_fraction)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    suffix = ".f32" if args.format == "f32" else ".csv"

    files = {}

    def put(stem: str, writer, payload, fixed_suffix: str | None = None) -> None:
        name = stem + (fixed_suffix if fixed_suffix else suffix)
        writer(out / name, payload)
        files[stem] = name

    put("source_train_features", save_matrix, task.source_train)
    put("source_val_features", save_matrix, task.source_val)
    put("target_features", save_matrix, task.target)
    put("source_train_logits", save_matrix, task.source_train_logits)
    put("source_val_logits", save_matrix, task.source_val_logits)
    put("target_logits", save_matrix, task.target_logits)
    # labels and oracle weights stay in exact text form regardless of --format
    put("source_train_labels", save_labels, task.source_train_labels, ".csv")
    put("source_val_labels", save_labels, task.source_val_labels, ".csv")
    put("target_labels", save_labels, task.target_labels, ".csv")
    put("true_weights", save_matrix, task.true_weights.reshape(-1, 1), ".csv")

    manifest = {
        "scenario": {
            "dimension": scenario.dimension,
            "num_classes": scenario.num_classes,
            "spacing": args.spacing,
            "shift_magnitude": args.shift,
            "variance_scale": args.variance_scale,
            "distortion_temperature": args.t_true,
        },
        "seed": args.seed,
        "n_source": args.n_source,
        "n_target": args.n_target,
        "val_fraction": args.val_fraction,
        "n_source_train": task.source_train.shape[0],
        "n_source_val": task.source_val.shape[0],
        "format": args.format,
        "files": files,
        "notes": "target_labels are for evaluation only; no fitting step reads them",
    }
    _write_report(out / "manifest.json", "synthetic_task", manifest)
    print(out / "manifest.json")
    return 0


# ------------------------------------------------------------------ weights


def _cmd_weights(args) -> int:
    source = load_matrix(args.source_features)
    target = load_matrix(args.target_features)
    eval_features = load_matrix(args.eval_features)
    classifier, weights = benchmod.estimate_task_weights(source, target, eval_features, args.seed)
    save_matrix(args.out, weights.reshape(-1, 1))
    if args.report:
        _write_report(
            args.report,
            "weight_fit",
            {
                "num_source": int(source.shape[0]),
                "num_target": int(target.shape[0]),
                "num_balanced": max(source.shape[0], target.shape[0]),
                "num_eval": int(eval_features.shape[0]),
                "seed": args.seed,
                "classifier": {
                    "converged": classifier.converged,
                    "iterations": classifier.iterations,
                    "final_loss": classifier.final_loss,
                    "l2_strength": classifier.l2_strength,
                },
                "weights": {
                    "file": str(args.out),
                    "max": float(weights.max()),
                    "mean": float(weights.mean()),
                    "min": float(weights.min()),
                },
            },
        )
    print(args.out)
    return 0


# ---------------------------------------------------------------- calibrate


def _feature_files(args) -> tuple:
    return (args.source_features, args.target_features, args.eval_features)


def _resolve_weights(args) -> np.ndarray:
    trio = _feature_files(args)
    if args.weights:
        if any(trio):
            raise ValueError(
                "pass either --weights or the --source-features, --target-features "
                "and --eval-features files, not both"
            )
        return _load_weights(args.weights)
    if not all(trio):
        raise ValueError(
            f"method {args.method!r} needs --weights, or --source-features, "
            "--target-features and --eval-features to estimate them"
        )
    return benchmod.estimate_task_weights(
        load_matrix(args.source_features),
        load_matrix(args.target_features),
        load_matrix(args.eval_features),
        args.seed,
    )[1]


def _cmd_calibrate(args) -> int:
    _num_bins(args.bins)
    logits = load_matrix(args.logits)
    labels = load_labels(args.labels)
    method = benchmod.METHODS[args.method]

    weights = None
    if method.needs_weights:
        weights = _resolve_weights(args)
    elif args.weights or any(_feature_files(args)):
        raise ValueError(f"method {args.method!r} does not take importance weights")

    fitted = method.fit(logits, labels, weights, args.bins)
    report: dict = {"num_bins": args.bins, "fit": {"method": args.method, **fitted.describe()}}

    if args.apply or args.probs_out or args.apply_labels:
        if not args.apply:
            raise ValueError("--probs-out and --apply-labels require --apply LOGITS_FILE")
        apply_logits = load_matrix(args.apply)
        if apply_logits.shape[1] != logits.shape[1]:
            raise ValueError(
                f"{args.apply} has {apply_logits.shape[1]} classes, but the fit on "
                f"{args.logits} has {logits.shape[1]}"
            )
        probs = benchmod.apply_fit(fitted, apply_logits)
        applied: dict = {"num_samples": probs.num_samples}
        if args.probs_out:
            save_matrix(args.probs_out, probs.probs)
            applied["probabilities_file"] = str(args.probs_out)
            # metrics reflect the file as written: f32 storage rounds, so that file is
            # read back; %.17g CSV text round-trips float64 exactly, so the values in
            # memory are the ones written
            written = (
                load_probabilities(args.probs_out)
                if is_raw_path(args.probs_out)
                else stored_probabilities(probs.probs, args.probs_out)
            )
            probs = ProbabilitySet.from_probabilities(written)
        if args.apply_labels:
            apply_labels = load_labels(args.apply_labels)
            applied["metrics"] = metric_report(probs, apply_labels, args.bins)
        report["applied"] = applied

    _write_report(args.out, "calibration_fit", report)
    print(args.out)
    return 0


# ----------------------------------------------------------------- evaluate


def _cmd_evaluate(args) -> int:
    probs = ProbabilitySet.from_probabilities(load_probabilities(args.probs))
    labels = load_labels(args.labels)
    report: dict = {"metrics": metric_report(probs, labels, args.bins)}
    table = reliability_bins(probs, labels, args.bins)
    report["reliability"] = {
        "counts": table.counts,
        "accuracy": table.accuracy,
        "confidence": table.confidence,
    }
    if args.weights:
        weights = _load_weights(args.weights)
        report["weighted_ece"] = weighted_ece(probs, labels, weights, args.bins)
    _write_report(args.out, "evaluation", report)
    print(args.out)
    return 0


# ----------------------------------------------------------------- diagnose


def _cmd_diagnose(args) -> int:
    if args.histogram_bins < 1:
        raise ValueError(f"--histogram-bins must be at least 1, got {args.histogram_bins}")
    if not args.alphas:
        raise ValueError("--alphas must list at least one order")
    benchmod._listed_once("order", args.alphas)
    values = _load_weights(args.weights)
    top = float(values.max())
    # histogram edges span [0, max] exactly; degenerate all-zero vectors use [0, 1]
    edges = np.linspace(0.0, top if top > 0.0 else 1.0, args.histogram_bins + 1)
    counts, _ = np.histogram(values, bins=edges)
    report = {
        "num_weights": int(values.shape[0]),
        "max": top,
        "min": float(values.min()),
        "mean": float(values.mean()),
        "renyi": {str(float(a)): renyi_diagnostic(values, a) for a in args.alphas},
        "histogram": {"edges": edges, "counts": counts},
    }
    _write_report(args.out, "weight_diagnostics", report)
    print(args.out)
    return 0


# -------------------------------------------------------------------- bench


def _cmd_bench(args) -> int:
    scenarios = benchmod.default_grid(
        dimension=args.dimension,
        num_classes=args.classes,
        spacing=args.spacing,
        shifts=tuple(args.shifts),
        scales=tuple(args.scales),
        temperatures=tuple(args.t_trues),
    )
    payload = benchmod.run_grid(
        scenarios=scenarios,
        seeds=tuple(args.seeds),
        n_source=args.n_source,
        n_target=args.n_target,
        methods=tuple(args.methods),
        bins=args.bins,
    )
    _write_report(args.out, "benchmark", payload)
    print(args.out)
    return 0


# ------------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shiftcal",
        description="Post-hoc classifier calibration under covariate shift.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-synth", help="generate a synthetic covariate-shift task")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--dimension", type=int, default=4)
    p.add_argument("--classes", type=int, default=3)
    p.add_argument("--spacing", type=float, default=2.0)
    p.add_argument("--shift", type=float, default=1.0, help="shift magnitude along the first axis")
    p.add_argument("--variance-scale", type=float, default=1.0)
    p.add_argument("--t-true", type=float, default=2.0, help="distortion temperature")
    p.add_argument("--n-source", type=int, default=2000)
    p.add_argument("--n-target", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--val-fraction", type=float, default=0.2)
    p.add_argument("--format", choices=("csv", "f32"), default="csv")
    p.set_defaults(func=_cmd_gen_synth)

    p = sub.add_parser("weights", help="estimate importance weights from feature files")
    p.add_argument("--source-features", required=True, help="source training features")
    p.add_argument("--target-features", required=True)
    p.add_argument("--eval-features", required=True, help="features the weights are computed for")
    p.add_argument("--out", required=True, help="output weight file (single column)")
    p.add_argument("--report", help="optional JSON fit report")
    p.add_argument("--seed", type=int, default=0, help="seed for balancing resample")
    p.set_defaults(func=_cmd_weights)

    p = sub.add_parser("calibrate", help="fit a calibration method on held-out logits")
    p.add_argument("--method", required=True, choices=benchmod.ALL_METHODS)
    p.add_argument("--logits", required=True, help="fitting logits (target split for oracle)")
    p.add_argument("--labels", required=True, help="fitting labels (target split for oracle)")
    p.add_argument("--weights", help="importance weight file for weighted methods")
    p.add_argument("--source-features", help="estimate weights: source training features")
    p.add_argument("--target-features", help="estimate weights: target features")
    p.add_argument("--eval-features", help="estimate weights: features of the fitting split")
    p.add_argument("--seed", type=int, default=0, help="seed for balancing resample")
    p.add_argument("--bins", type=int, default=15)
    p.add_argument("--apply", help="logits file to push through the fitted map")
    p.add_argument("--apply-labels", help="labels for the applied split, adds metrics")
    p.add_argument("--probs-out", help="where to write the applied probabilities")
    p.add_argument("--out", required=True, help="JSON fit report")
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("evaluate", help="score stored probabilities against labels")
    p.add_argument("--probs", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--weights", help="optional weight file, adds weighted ECE")
    p.add_argument("--bins", type=int, default=15)
    p.add_argument("--out", required=True, help="JSON evaluation report")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("diagnose", help="summarize an importance weight vector")
    p.add_argument("--weights", required=True)
    p.add_argument("--alphas", type=_float_list, default=[0.5, 1.0, 2.0])
    p.add_argument("--histogram-bins", type=int, default=20)
    p.add_argument("--out", required=True, help="JSON diagnostics report")
    p.set_defaults(func=_cmd_diagnose)

    p = sub.add_parser("bench", help="run the synthetic benchmark grid")
    p.add_argument("--out", required=True, help="JSON benchmark report")
    p.add_argument("--n-source", type=int, default=2000)
    p.add_argument("--n-target", type=int, default=2000)
    p.add_argument("--seeds", type=_int_list, default=[0, 1, 2])
    p.add_argument("--methods", type=_name_list, default=list(benchmod.DEFAULT_METHODS))
    p.add_argument("--bins", type=int, default=15)
    p.add_argument("--dimension", type=int, default=4)
    p.add_argument("--classes", type=int, default=3)
    p.add_argument("--spacing", type=float, default=2.0)
    p.add_argument("--shifts", type=_float_list, default=[0.0, 0.5, 1.0, 1.5])
    p.add_argument("--scales", type=_float_list, default=[1.0, 1.2])
    p.add_argument("--t-trues", type=_float_list, default=[1.0, 2.0, 3.0])
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DegeneracyError as exc:
        print(f"degeneracy: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
