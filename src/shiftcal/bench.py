"""End-to-end benchmark on synthetic shift tasks.

One benchmark run generates a task, estimates importance weights from
features alone, fits each requested calibration method on the source
validation split (the oracle alone may touch target labels), and scores
every method on the target split. The default grid crosses shift
magnitude, target variance scale and distortion temperature so the
no-shift column doubles as a sanity check: there the closed-form weights
are exactly one.

The three transcal variants fit the same validation split, so they share
its scored temperatures without being handed anything; the ``transcal``
module docstring says how.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .density_ratio import (
    DomainClassifier,
    estimate_weights,
    train_domain_classifier,
    upsample_balance,
)
from .metrics import ProbabilitySet, metric_report
from .scaling import (
    TemperatureParam,
    apply_affine_scaling,
    fit_cpcs_temperature,
    fit_matrix_scaling,
    fit_oracle_temperature,
    fit_temperature_nll,
    fit_vector_scaling,
    softmax_with_temperature,
)
from .synthshift import GeneratedTask, ShiftScenario, generate
from .transcal import EstimatorMode, optimize_transcal, renyi_diagnostic

__all__ = [
    "ALL_METHODS",
    "DEFAULT_METHODS",
    "METHODS",
    "Method",
    "apply_fit",
    "default_grid",
    "run_grid",
    "run_single",
]


@dataclass(frozen=True)
class Method:
    """One calibration method as ``bench`` and the ``calibrate`` command run it.

    Every method's fit takes the one signature
    ``fit(logits, labels, weights, bins)`` and returns a result whose
    ``describe()`` gives the fit's report fields and whose ``temperature``
    tells ``apply_fit`` how to apply it. The transcal variants fitted on
    one split in a row share their scores by themselves (see the
    ``transcal`` module docstring). ``needs_weights`` methods need importance
    weights for the fitting rows; the others ignore ``weights``. An
    ``on_target`` method fits on labelled target data.
    """

    fit: Callable
    needs_weights: bool = False
    on_target: bool = False


# Entries look the layer functions up in this module's globals at call time,
# so a function replaced here (as the benchmark's tracer does) is the one
# both bench and the CLI run.
def _transcal(mode: EstimatorMode, freeze_lambda: bool) -> Method:
    return Method(
        lambda logits, labels, weights, bins: optimize_transcal(
            logits, labels, weights, mode=mode, bins=bins, freeze_lambda=freeze_lambda
        ),
        needs_weights=True,
    )


METHODS = {
    "uncalibrated": Method(lambda logits, labels, weights, bins: TemperatureParam(t=1.0)),
    "temp": Method(lambda logits, labels, weights, bins: fit_temperature_nll(logits, labels)),
    "vector": Method(lambda logits, labels, weights, bins: fit_vector_scaling(logits, labels)),
    "matrix": Method(lambda logits, labels, weights, bins: fit_matrix_scaling(logits, labels)),
    "cpcs": Method(
        lambda logits, labels, weights, bins: fit_cpcs_temperature(logits, labels, weights),
        needs_weights=True,
    ),
    "transcal": _transcal(EstimatorMode.CV_SERIAL, False),
    "transcal-no-bias": _transcal(EstimatorMode.CV_SERIAL, True),
    "transcal-no-variance": _transcal(EstimatorMode.PLAIN_IWECE, False),
    "oracle": Method(
        lambda logits, labels, weights, bins: fit_oracle_temperature(logits, labels),
        on_target=True,
    ),
}
ALL_METHODS = tuple(METHODS)
DEFAULT_METHODS = ("uncalibrated", "temp", "cpcs", "transcal", "oracle")


def apply_fit(fitted, logits: np.ndarray) -> ProbabilitySet:
    """Push logits through a map returned by a ``METHODS`` entry's ``fit``.

    A fit whose ``temperature`` is a number is a softmax at that
    temperature; an affine fit, whose ``temperature`` is None, is its map.
    """
    t = fitted.temperature
    return apply_affine_scaling(logits, fitted) if t is None else softmax_with_temperature(logits, t)


def default_grid(
    dimension: int = 4,
    num_classes: int = 3,
    spacing: float = 2.0,
    shifts: tuple = (0.0, 0.5, 1.0, 1.5),
    scales: tuple = (1.0, 1.2),
    temperatures: tuple = (1.0, 2.0, 3.0),
) -> list[tuple[str, ShiftScenario]]:
    """Named scenario grid: shift magnitude x variance scale x distortion."""
    grid = []
    for shift in shifts:
        for scale in scales:
            for t_true in temperatures:
                name = f"shift{shift:g}_scale{scale:g}_t{t_true:g}"
                scenario = ShiftScenario.axis_aligned(
                    dimension=dimension,
                    num_classes=num_classes,
                    spacing=spacing,
                    shift_magnitude=shift,
                    variance_scale=scale,
                    distortion_temperature=t_true,
                )
                grid.append((name, scenario))
    return grid


def estimate_task_weights(
    source, target, eval_features, seed: int
) -> tuple[DomainClassifier, np.ndarray]:
    """Feature-only weight pipeline: balance the splits, train, score ``eval_features``.

    Shared by ``run_single`` and the ``weights`` and ``calibrate`` commands.
    Both balanced splits have max(n_source, n_target) rows.
    """
    balanced_source, balanced_target = upsample_balance(source, target, seed)
    classifier = train_domain_classifier(balanced_source, balanced_target)
    return classifier, estimate_weights(classifier, eval_features)


def _fit_entry(method: str, task: GeneratedTask, weights: np.ndarray | None, bins: int) -> dict:
    """The ``calibrate`` report's fit block, plus the fit's metrics on both splits."""
    spec = METHODS[method]
    if spec.on_target:
        fitted = spec.fit(task.target_logits, task.target_labels, None, bins)
    else:
        fitted = spec.fit(task.source_val_logits, task.source_val_labels, weights, bins)
    return {
        "method": method,
        **fitted.describe(),
        "target": metric_report(apply_fit(fitted, task.target_logits), task.target_labels, bins),
        "source_val": metric_report(
            apply_fit(fitted, task.source_val_logits), task.source_val_labels, bins
        ),
    }


def run_single(
    scenario: ShiftScenario,
    n_source: int,
    n_target: int,
    seed: int,
    methods: tuple = DEFAULT_METHODS,
    bins: int = 15,
) -> dict:
    """Run the full pipeline once and score every method on the target split.

    ``methods`` must name each method at most once.
    """
    for i, method in enumerate(methods):
        if method not in METHODS:
            raise ValueError(f"unknown method {method!r}; choose from {ALL_METHODS}")
        if method in methods[:i]:
            raise ValueError(f"method {method!r} is listed more than once")
    task = generate(scenario, n_source, n_target, seed)
    weights = None
    record: dict = {
        "seed": int(seed),
        "n_source": int(n_source),
        "n_target": int(n_target),
        "true_temperature": float(scenario.distortion_temperature),
    }
    if any(METHODS[m].needs_weights for m in methods):
        classifier, weights = estimate_task_weights(
            task.source_train, task.target, task.source_val, seed
        )
        record["weights"] = {
            "max": float(weights.max()),
            "mean": float(weights.mean()),
            "renyi_2": renyi_diagnostic(weights, 1.0),
            "classifier_converged": bool(classifier.converged),
        }
    record["methods"] = {m: _fit_entry(m, task, weights, bins) for m in methods}
    return record


def run_grid(
    scenarios: list[tuple[str, ShiftScenario]] | None = None,
    seeds: tuple = (0, 1, 2),
    n_source: int = 2000,
    n_target: int = 2000,
    methods: tuple = DEFAULT_METHODS,
    bins: int = 15,
) -> dict:
    """Benchmark every scenario x seed cell and aggregate target errors.

    The summary reports, per scenario and per method, the target expected
    calibration error averaged over seeds, plus an overall average. The
    iteration order is deterministic so reports are byte-identical across
    reruns.
    """
    scenarios = default_grid() if scenarios is None else scenarios
    if len(seeds) == 0 or len(scenarios) == 0 or len(methods) == 0:
        raise ValueError("the benchmark needs at least one seed, one scenario and one method")
    records = []
    by_scenario: dict = {}
    for name, scenario in scenarios:
        cell_records = []
        for seed in seeds:
            rec = run_single(scenario, n_source, n_target, seed, methods=methods, bins=bins)
            rec["scenario"] = name
            rec["shift_magnitude"] = float(np.linalg.norm(scenario.shift))
            rec["variance_scale"] = float(scenario.variance_scale)
            records.append(rec)
            cell_records.append(rec)
        by_scenario[name] = {
            m: float(np.mean([r["methods"][m]["target"]["ece"] for r in cell_records]))
            for m in methods
        }
    overall = {
        m: float(np.mean([by_scenario[name][m] for name, _ in scenarios])) for m in methods
    }
    return {
        "settings": {
            "seeds": [int(s) for s in seeds],
            "n_source": int(n_source),
            "n_target": int(n_target),
            "methods": list(methods),
            "num_bins": int(bins),
            "num_scenarios": len(scenarios),
        },
        "records": records,
        "summary": {"by_scenario": by_scenario, "overall_mean_target_ece": overall},
    }
