"""Synthetic covariate-shift tasks with analytically known density ratios.

Features are drawn from Gaussian-mixture marginals: the source mixes
isotropic class components, the target uses the same components translated
by a shift vector and with rescaled variance. Labels for BOTH domains are
sampled from one shared conditional, the posterior of the source-form
mixture, so the conditional label distribution is identical across domains
by construction. Logits are the shared conditional's log-posterior scaled
by a distortion temperature t_true, making t_true the temperature that
restores calibration on either domain, and making the marginal ratio
q(x)/p(x) available in closed form for oracle comparisons.

Densities and posteriors stack the differences from each point to each
class mean, a (rows, K, d) array, so they run on blocks of rows sized by
the package's working-set budget (``metrics._in_batches``): a split's
working set is O(n (K + d)) plus that budget, not O(n K d), and every
value is the one a single block would give. The blocks fill one array
per split, and ``generate`` scales each split's posterior into its logits
in place, so a split's posterior is held once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .metrics import _in_batches, _row_max, _row_sums

__all__ = [
    "GeneratedTask",
    "ShiftScenario",
    "generate",
    "label_stream_seed",
    "sample_labels",
    "true_renyi",
    "true_weight",
]

_LABEL_STREAMS = {"source": 1, "target": 2}


def label_stream_seed(task_seed: int, split: str) -> tuple[int, int]:
    """Derived seed for a split's label stream, independent of feature draws."""
    if split not in _LABEL_STREAMS:
        raise ValueError(f"split must be one of {sorted(_LABEL_STREAMS)}, got {split!r}")
    return (int(task_seed), _LABEL_STREAMS[split])


@dataclass
class ShiftScenario:
    """Gaussian-mixture covariate-shift scenario with closed-form ratios.

    Attributes
    ----------
    class_means : ndarray of shape (K, d)
        Component means of the source mixture; class priors are uniform.
    class_variance : float
        Isotropic component variance of the source mixture.
    shift : ndarray of shape (d,)
        Translation applied to every component mean in the target.
    variance_scale : float
        Multiplier on the component variance in the target.
    distortion_temperature : float
        Scale applied to the calibrated log-posterior to form raw logits.
    """

    class_means: np.ndarray
    class_variance: float
    shift: np.ndarray
    variance_scale: float
    distortion_temperature: float

    def __post_init__(self) -> None:
        self.class_means = np.ascontiguousarray(self.class_means, dtype=np.float64)
        if self.class_means.ndim != 2 or self.class_means.shape[0] < 1:
            raise ValueError("class_means must have shape (K, d) with K >= 1")
        self.shift = np.ascontiguousarray(self.shift, dtype=np.float64)
        if self.shift.shape != (self.class_means.shape[1],):
            raise ValueError("shift must be a length-d vector")
        if not (self.class_variance > 0.0 and math.isfinite(self.class_variance)):
            raise ValueError("class_variance must be positive")
        if not (self.variance_scale > 0.0 and math.isfinite(self.variance_scale)):
            raise ValueError("variance_scale must be positive")
        if not (self.distortion_temperature > 0.0 and math.isfinite(self.distortion_temperature)):
            raise ValueError("distortion_temperature must be positive")
        if not np.all(np.isfinite(self.class_means)) or not np.all(np.isfinite(self.shift)):
            raise ValueError("scenario parameters contain non-finite entries")

    @classmethod
    def axis_aligned(
        cls,
        dimension: int,
        num_classes: int,
        spacing: float = 1.0,
        shift_magnitude: float = 0.0,
        variance_scale: float = 1.0,
        distortion_temperature: float = 1.0,
    ) -> "ShiftScenario":
        """Scenario with class mean k at spacing * e_k and shift along e_0.

        Components have unit variance; build the dataclass directly for
        another ``class_variance`` or shift direction.
        """
        if dimension < 1:
            raise ValueError(f"dimension must be at least 1, got {dimension}")
        if num_classes > dimension:
            raise ValueError(
                "axis-aligned layout needs num_classes <= dimension; "
                "pass explicit class_means otherwise"
            )
        means = np.zeros((num_classes, dimension))
        for k in range(num_classes):
            means[k, k] = spacing
        direction = np.zeros(dimension)
        direction[0] = 1.0
        return cls(
            class_means=means,
            class_variance=1.0,
            shift=shift_magnitude * direction,
            variance_scale=variance_scale,
            distortion_temperature=distortion_temperature,
        )

    @property
    def dimension(self) -> int:
        return int(self.class_means.shape[1])

    @property
    def num_classes(self) -> int:
        return int(self.class_means.shape[0])

    def _log_mixture(self, means: np.ndarray, variance: float, x: np.ndarray) -> np.ndarray:
        d = self.dimension
        sq = _row_sums((x[:, None, :] - means[None, :, :]) ** 2)[..., 0]
        log_comp = -sq / (2.0 * variance) - 0.5 * d * math.log(2.0 * math.pi * variance)
        m = _row_max(log_comp)
        return m[:, 0] + np.log(_row_sums(np.exp(log_comp - m))[:, 0]) - math.log(self.num_classes)

    def log_density_source(self, x: np.ndarray) -> np.ndarray:
        rows = partial(self._log_mixture, self.class_means, self.class_variance)
        return _in_batches(rows, _as_points(x, self.dimension), self.class_means.size)

    def log_density_target(self, x: np.ndarray) -> np.ndarray:
        means, variance = self.class_means + self.shift, self.variance_scale * self.class_variance
        rows = partial(self._log_mixture, means, variance)
        return _in_batches(rows, _as_points(x, self.dimension), self.class_means.size)

    def log_posterior(self, x: np.ndarray) -> np.ndarray:
        """Log of the shared labeling conditional p(y | x), rows normalized."""
        return _in_batches(self._log_posterior_rows, _as_points(x, self.dimension), self.class_means.size)

    def _log_posterior_rows(self, x: np.ndarray) -> np.ndarray:
        sq = _row_sums((x[:, None, :] - self.class_means[None, :, :]) ** 2)[..., 0]
        logits = -sq / (2.0 * self.class_variance)
        logits -= _row_max(logits)
        logits -= np.log(_row_sums(np.exp(logits)))
        return logits


@dataclass
class GeneratedTask:
    """One sampled task: features, logits, labels and oracle weights.

    ``source_train``, ``source_val`` and ``target`` are the splits' float64
    feature matrices of shape (n, d). ``target_labels`` exists for
    evaluation only; no fitting operation in this package accepts it.
    ``true_weights`` holds the closed-form ratio q(x)/p(x) on the source
    validation split.
    """

    scenario: ShiftScenario
    seed: int
    source_train: np.ndarray
    source_train_logits: np.ndarray
    source_train_labels: np.ndarray
    source_val: np.ndarray
    source_val_logits: np.ndarray
    source_val_labels: np.ndarray
    target: np.ndarray
    target_logits: np.ndarray
    target_labels: np.ndarray
    true_weights: np.ndarray


def _as_points(x, dimension: int) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 0:
        x = x.reshape(1, 1)
    elif x.ndim == 1:
        # a single point when it matches the dimension, else a column of 1-d points
        x = x.reshape(1, -1) if x.shape[0] == dimension else x.reshape(-1, 1)
    if x.ndim != 2 or x.shape[1] != dimension:
        raise ValueError(f"points must have dimension {dimension}, got shape {x.shape}")
    if not np.isfinite(x).all():
        rows = np.flatnonzero(~np.isfinite(x).all(axis=1))
        more = " ..." if rows.size > 5 else ""
        raise ValueError(f"points must be finite, got non-finite rows {rows[:5].tolist()}{more}")
    return x


def sample_labels(scenario: ShiftScenario, features, seed) -> np.ndarray:
    """Draw labels from the shared conditional, reproducibly for a given seed."""
    return _draw_labels(scenario.log_posterior(features), seed)


def _draw_labels(log_posterior: np.ndarray, seed) -> np.ndarray:
    """One label per row of ``log_posterior``, by inverse-CDF draws from ``seed``'s stream."""
    cumulative = np.exp(log_posterior)
    np.cumsum(cumulative, axis=1, out=cumulative)
    cumulative[:, -1] = 1.0
    draws = np.random.default_rng(seed).random(log_posterior.shape[0])
    return (draws[:, None] < cumulative).argmax(axis=1).astype(np.int64)


def generate(
    scenario: ShiftScenario,
    n_source: int,
    n_target: int,
    seed: int,
    val_fraction: float = 0.2,
) -> GeneratedTask:
    """Sample a full task: source train/val splits, target split, oracle weights.

    The source sample is split in order, the first (1 - val_fraction)
    share for training and the remainder for validation; each split is a
    plain float64 array. Feature draws consume the task seed's main stream;
    labels come from per-domain derived streams (see ``label_stream_seed``),
    so ``sample_labels`` on the target features, or on the stacked source
    train and validation features, reproduces them exactly. Logits are
    distortion_temperature times the shared conditional's log-posterior.
    """
    if n_source < 2 or n_target < 1:
        raise ValueError("need n_source >= 2 and n_target >= 1")
    if not (0.0 < val_fraction < 1.0):
        raise ValueError("val_fraction must lie in (0, 1)")
    n_train = int(n_source * (1.0 - val_fraction))
    n_val = n_source - n_train
    if n_train < 1 or n_val < 1:
        raise ValueError("split leaves an empty source partition")

    rng = np.random.default_rng(seed)
    k, d = scenario.num_classes, scenario.dimension
    sigma = math.sqrt(scenario.class_variance)

    comp_s = rng.integers(0, k, size=n_source)
    x_source = scenario.class_means[comp_s] + sigma * rng.standard_normal((n_source, d))
    comp_t = rng.integers(0, k, size=n_target)
    x_target = (
        scenario.class_means[comp_t]
        + scenario.shift
        + math.sqrt(scenario.variance_scale) * sigma * rng.standard_normal((n_target, d))
    )

    posterior_source = scenario.log_posterior(x_source)
    posterior_target = scenario.log_posterior(x_target)
    y_source = _draw_labels(posterior_source, label_stream_seed(seed, "source"))
    y_target = _draw_labels(posterior_target, label_stream_seed(seed, "target"))

    # once the labels are drawn, each posterior is scaled into its logits in place
    t_true = scenario.distortion_temperature
    logits_source = np.multiply(posterior_source, t_true, out=posterior_source)
    logits_target = np.multiply(posterior_target, t_true, out=posterior_target)

    x_train, x_val = x_source[:n_train], x_source[n_train:]
    true_w = np.exp(true_log_weight(scenario, x_val))

    return GeneratedTask(
        scenario=scenario,
        seed=int(seed),
        source_train=x_train,
        source_train_logits=logits_source[:n_train],
        source_train_labels=y_source[:n_train],
        source_val=x_val,
        source_val_logits=logits_source[n_train:],
        source_val_labels=y_source[n_train:],
        target=x_target,
        target_logits=logits_target,
        target_labels=y_target,
        true_weights=true_w,
    )


def true_log_weight(scenario: ShiftScenario, x) -> np.ndarray:
    """Closed-form log density ratio log q(x) - log p(x)."""
    return scenario.log_density_target(x) - scenario.log_density_source(x)


def true_weight(scenario: ShiftScenario, x) -> np.ndarray:
    """Closed-form density ratio q(x)/p(x) at the given points."""
    return np.exp(true_log_weight(scenario, x))


def true_renyi(scenario: ShiftScenario, alpha: float) -> float:
    """Closed-form exponentiated Renyi divergence d_alpha(q || p).

    Only single-component scenarios (K = 1) admit a closed form; the
    moment integral must converge, which for variance scale s requires
    alpha + (1 - alpha) * s > 0. The order alpha = 1 is the
    Kullback-Leibler limit.
    """
    alpha = float(alpha)
    if not (alpha > 0.0 and math.isfinite(alpha)):
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    if scenario.num_classes != 1:
        raise ValueError(
            "closed-form Renyi divergence requires a single-component "
            "scenario (num_classes == 1)"
        )
    d = scenario.dimension
    s = scenario.variance_scale
    sq_shift = float(scenario.shift @ scenario.shift)
    sigma2 = scenario.class_variance
    if alpha == 1.0:
        divergence = sq_shift / (2.0 * sigma2) + 0.5 * d * (s - 1.0 - math.log(s))
        return math.exp(divergence)
    c = alpha + (1.0 - alpha) * s
    if c <= 0.0:
        raise ValueError(
            f"Renyi integral of order {alpha} diverges for variance scale {s}"
        )
    divergence = (
        alpha * sq_shift / (2.0 * sigma2 * c)
        - d / (2.0 * (alpha - 1.0)) * math.log(c)
        - 0.5 * d * math.log(s)
    )
    return math.exp(divergence)
