"""The four benchmark workloads.

A workload builds its inputs from the run seed when it is constructed
(that is the untimed set-up), then serves ops by index: ``run(i)`` is the
timed call into shiftcal and ``check(i, out)`` verifies the outputs and
returns the quality of every calibrator the op fitted. Op ``i`` always
sees the same inputs for a given seed, so a prefix of ops is a fixed
sample: the first ``reference_ops`` ops always run (untimed if the timed
phase ends before them) and give the quality metrics; the first
``trace_ops`` ops make up the traced pass and its layer counts.

``block`` ops form one balanced unit of the op mix (one of each method, or
one of each shift magnitude); the timed phase only stops on a block
boundary so every run measures the same mix.

All shiftcal calls made by ``run`` go through ``api``, the benchmark's call
table, or through ``shiftcal.bench`` / ``shiftcal.cli``; the traced pass
wraps exactly those call sites.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import shiftcal as sc
from shiftcal import bench, cli
from shiftcal.metrics import ROW_SUM_TOL
from shiftcal.scaling import T_MAX, T_MIN
from shiftcal.transcal import EstimatorMode

BINS = 15

# The acceptance sweep's method list (tests/conftest.py SWEEP_METHODS).
SWEEP_METHODS = (
    "uncalibrated",
    "temp",
    "cpcs",
    "transcal",
    "transcal-no-bias",
    "transcal-no-variance",
    "oracle",
)
TEMPERATURE_METHODS = ("temp", "cpcs", "transcal", "transcal-no-bias", "transcal-no-variance")
TRANSCAL_VARIANTS = {
    "transcal": (EstimatorMode.CV_SERIAL, False),
    "transcal-no-bias": (EstimatorMode.CV_SERIAL, True),
    "transcal-no-variance": (EstimatorMode.PLAIN_IWECE, False),
}


def make_api() -> SimpleNamespace:
    """The benchmark's own call table into shiftcal (traced entry by entry)."""
    return SimpleNamespace(
        run_single=bench.run_single,
        cli_main=cli.main,
        fit_temperature_nll=sc.fit_temperature_nll,
        fit_cpcs_temperature=sc.fit_cpcs_temperature,
        optimize_transcal=sc.optimize_transcal,
        softmax_with_temperature=sc.softmax_with_temperature,
        fit_vector_scaling=sc.fit_vector_scaling,
        fit_matrix_scaling=sc.fit_matrix_scaling,
        apply_affine_scaling=sc.apply_affine_scaling,
        metric_report=sc.metric_report,
    )


def fit_quality(method: str, target_ece: float, t: float | None = None, t_true: float | None = None) -> dict:
    entry = {"method": method, "target_ece": float(target_ece)}
    if t is not None and t_true is not None:
        entry["t_rel_err"] = abs(t / t_true - 1.0)
    return entry


def probability_errors(probs: np.ndarray, logits: np.ndarray | None, t: float | None) -> list[str]:
    """Row sums, temperature range and (for temperature maps) the unchanged argmax."""
    errors = []
    if not np.all(np.isfinite(probs)):
        errors.append("non-finite probabilities")
    worst = float(np.max(np.abs(probs.sum(axis=1) - 1.0)))
    if worst > ROW_SUM_TOL:
        errors.append(f"row sum off by {worst:.3g} > {ROW_SUM_TOL:g}")
    if t is not None:
        if not T_MIN <= t <= T_MAX:
            errors.append(f"temperature {t!r} outside [{T_MIN}, {T_MAX}]")
        # the logit argmax must still hold a row maximum (ties in probability allowed)
        rows = np.arange(probs.shape[0])
        top = probs[rows, np.argmax(logits, axis=1)]
        moved = int(np.count_nonzero(top < probs.max(axis=1)))
        if moved:
            errors.append(f"temperature map changed the argmax of {moved} rows")
    return errors


def ece_errors(value: float) -> list[str]:
    return [] if 0.0 <= value <= 1.0 else [f"ECE {value!r} outside [0, 1]"]


def k10_tasks(seed: int, count: int, n_val: int, n_target: int) -> list:
    """``count`` K = 10, d = 10 tasks; shift, variance scale and t_true vary across them."""
    tasks = []
    for k in range(count):
        scenario = sc.ShiftScenario.axis_aligned(
            dimension=10,
            num_classes=10,
            spacing=2.0,
            shift_magnitude=(0.5, 1.0, 1.5, 2.0)[k % 4],
            variance_scale=(1.0, 1.2)[k // 4 % 2],
            distortion_temperature=(2.0, 3.0)[k // 8 % 2],
        )
        # only the validation and target splits are used; val_fraction 0.5 keeps
        # the unused training split small
        tasks.append(sc.generate(scenario, 2 * n_val, n_target, seed * 1000 + k, val_fraction=0.5))
    return tasks


class Sweep:
    """One ``run_single`` per op on the default grid with the acceptance sweep's methods.

    Rows per split are the ``shiftcal bench`` default (2000), not the
    acceptance sweep's 6000, so that a run holds about 30 ops.
    """

    block = 4
    reference_ops = 28
    trace_ops = 12
    n_rows = 2000

    def __init__(self, api, seed: int, workdir: Path) -> None:
        self.api = api
        self.seed = seed
        grid = bench.default_grid()
        shifts = 4
        per_shift = len(grid) // shifts
        # shift magnitude varies fastest, so every block of four covers all four
        self.order = [grid[(j % shifts) * per_shift + j // shifts] for j in range(len(grid))]
        self.captured: list = []
        original = bench.softmax_with_temperature

        @functools.wraps(original)
        def capture(logits, temperature):
            probs = original(logits, temperature)
            self.captured.append((logits, temperature, probs))
            return probs

        # output check hook: keeps references only; the checks run after the op
        bench.softmax_with_temperature = capture

    def task_seed(self, i: int) -> int:
        return self.seed * 1000 + i

    def run(self, i: int):
        self.captured.clear()
        _, scenario = self.order[i % len(self.order)]
        return self.api.run_single(
            scenario, self.n_rows, self.n_rows, self.task_seed(i), methods=SWEEP_METHODS
        )

    def check(self, i: int, record):
        errors = []
        for logits, t, probs in self.captured:
            errors += probability_errors(probs.probs, logits, float(t))
        if len(self.captured) != 2 * len(SWEEP_METHODS):
            errors.append(f"expected {2 * len(SWEEP_METHODS)} softmax calls, saw {len(self.captured)}")
        t_true = record["true_temperature"]
        fits = []
        for method in SWEEP_METHODS[1:]:  # "uncalibrated" fits nothing
            entry = record["methods"][method]
            errors += ece_errors(entry["target"]["ece"])
            fits.append(fit_quality(method, entry["target"]["ece"], entry["temperature"], t_true))
        self.captured.clear()
        return errors, fits


class FitK10:
    """Temperature-family fits on pregenerated K = 10 tasks with true weights."""

    methods = TEMPERATURE_METHODS
    block = len(TEMPERATURE_METHODS)
    tasks_in_pool = 18
    reference_ops = tasks_in_pool * block
    trace_ops = 6 * block
    n_val = 3000
    n_target = 5000

    def __init__(self, api, seed: int, workdir: Path) -> None:
        self.api = api
        self.tasks = k10_tasks(seed, self.tasks_in_pool, self.n_val, self.n_target)

    def run(self, i: int):
        api = self.api
        task = self.tasks[(i // self.block) % len(self.tasks)]
        method = self.methods[i % self.block]
        logits, labels, weights = task.source_val_logits, task.source_val_labels, task.true_weights
        if method == "temp":
            t = api.fit_temperature_nll(logits, labels).t
        elif method == "cpcs":
            t = api.fit_cpcs_temperature(logits, labels, weights).t
        else:
            mode, freeze = TRANSCAL_VARIANTS[method]
            t = api.optimize_transcal(logits, labels, weights, mode=mode, bins=BINS, freeze_lambda=freeze).t_star.t
        probs = api.softmax_with_temperature(task.target_logits, t)
        report = api.metric_report(probs, task.target_labels, BINS)
        return method, task, t, probs, report

    def check(self, i: int, out):
        method, task, t, probs, report = out
        errors = probability_errors(probs.probs, task.target_logits, t) + ece_errors(report["ece"])
        t_true = task.scenario.distortion_temperature
        return errors, [fit_quality(method, report["ece"], t, t_true)]


class AffineK10:
    """Vector and matrix scaling at K = 10: fit, then apply to the target."""

    methods = ("vector", "matrix")
    block = 2
    # with 12 tasks target_ece.mean spread by 0.20 (IQR / median) over ten seeds, with 18 by 0.13
    tasks_in_pool = 18
    reference_ops = tasks_in_pool * block
    trace_ops = 8
    n_val = 1000
    n_target = 10000

    def __init__(self, api, seed: int, workdir: Path) -> None:
        self.api = api
        self.tasks = k10_tasks(seed, self.tasks_in_pool, self.n_val, self.n_target)

    def run(self, i: int):
        api = self.api
        task = self.tasks[(i // self.block) % len(self.tasks)]
        method = self.methods[i % self.block]
        fit = api.fit_vector_scaling if method == "vector" else api.fit_matrix_scaling
        param = fit(task.source_val_logits, task.source_val_labels)
        return method, task, param, api.apply_affine_scaling(task.target_logits, param)

    def check(self, i: int, out):
        method, task, param, probs = out
        # an affine map may reorder classes: check predictions against its own output
        errors = probability_errors(probs.probs, None, None)
        rows = np.arange(probs.num_samples)
        if np.any(probs.probs[rows, probs.predictions] < probs.probs.max(axis=1)):
            errors.append("predictions are not the row argmax")
        if not np.isfinite(param.final_loss):
            errors.append("non-finite final loss")
        value = sc.ece(probs, task.target_labels, BINS)
        return errors + ece_errors(value), [fit_quality(method, value)]


class CliCsv:
    """In-process ``gen-synth`` -> ``calibrate`` (cpcs, true weights) -> ``evaluate`` chain on CSV files.

    Ops come in pairs that share a task seed, so the second chain of each
    pair must reproduce the first one's reports byte for byte.
    """

    block = 2
    reference_ops = 36
    trace_ops = 12
    n_rows = 3000
    reports = ("manifest.json", "fit.json", "eval.json")

    def __init__(self, api, seed: int, workdir: Path) -> None:
        self.api = api
        self.seed = seed
        self.dir = workdir
        self.digests: dict[int, str] = {}

    def chain_seed(self, i: int) -> int:
        return self.seed * 1000 + i // 2

    def commands(self, i: int) -> list[list[str]]:
        d = str(self.dir)
        return [
            ["gen-synth", "--out", d, "--format", "csv", "--dimension", "10", "--classes", "10",
             "--shift", "1.0", "--t-true", "2.0", "--val-fraction", "0.5", "--n-source", str(self.n_rows),
             "--n-target", str(self.n_rows), "--seed", str(self.chain_seed(i))],
            ["calibrate", "--method", "cpcs", "--logits", f"{d}/source_val_logits.csv",
             "--labels", f"{d}/source_val_labels.csv", "--weights", f"{d}/true_weights.csv",
             "--apply", f"{d}/target_logits.csv", "--apply-labels", f"{d}/target_labels.csv",
             "--probs-out", f"{d}/target_probs.csv", "--out", f"{d}/fit.json"],
            ["evaluate", "--probs", f"{d}/target_probs.csv", "--labels", f"{d}/target_labels.csv",
             "--out", f"{d}/eval.json"],
        ]

    def run(self, i: int):
        codes = []
        messages = io.StringIO()
        with contextlib.redirect_stdout(messages), contextlib.redirect_stderr(messages):
            for argv in self.commands(i):
                codes.append(self.api.cli_main(argv))
                if codes[-1] != 0:
                    break
        return codes, messages.getvalue()

    def check(self, i: int, out):
        codes, messages = out
        if codes != [0, 0, 0]:
            return [f"exit codes {codes}: {messages.strip()}"], []
        blobs = [(self.dir / name).read_bytes() for name in self.reports]
        digest = hashlib.sha256(b"\0".join(blobs)).hexdigest()
        first = self.digests.setdefault(self.chain_seed(i), digest)
        errors = [] if digest == first else ["reports differ from the first chain with this seed"]
        fit = json.loads(blobs[1])["fit"]
        evaluation = json.loads(blobs[2])["metrics"]
        probs = np.loadtxt(self.dir / "target_probs.csv", delimiter=",", ndmin=2)
        logits = np.loadtxt(self.dir / "target_logits.csv", delimiter=",", ndmin=2)
        errors += probability_errors(probs, logits, fit["temperature"]) + ece_errors(evaluation["ece"])
        return errors, [fit_quality("cpcs", evaluation["ece"])]


WORKLOADS = {"sweep": Sweep, "fit_k10": FitK10, "affine_k10": AffineK10, "cli_csv": CliCsv}
