"""Importance-weight estimation from a source/target domain discriminator.

A binary logistic regression H(x) = P(domain = source | x) is trained on
balanced, standardized feature splits; the density-ratio estimate for a
point is then w(x) = (1 - H(x)) / H(x). Weights are evaluated on the
source validation split, never on the discriminator's training data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .metrics import check_weights

__all__ = [
    "DomainClassifier",
    "DomainClassifierConfig",
    "FeatureSet",
    "WeightVector",
    "estimate_weights",
    "lambda_transform",
    "train_domain_classifier",
    "upsample_balance",
]

DOMAIN_TAGS = ("source_train", "source_val", "target")
H_CLAMP = 1e-6
# backtracking halves a Newton step at most this many times before the fit gives up
MAX_HALVINGS = 60


@dataclass
class FeatureSet:
    """A feature matrix tagged with the split it came from."""

    features: np.ndarray
    domain: str

    def __post_init__(self) -> None:
        self.features = _as_features(self.features)
        if self.domain not in DOMAIN_TAGS:
            raise ValueError(f"domain must be one of {DOMAIN_TAGS}, got {self.domain!r}")

    @property
    def num_samples(self) -> int:
        return int(self.features.shape[0])

    @property
    def dimension(self) -> int:
        return int(self.features.shape[1])


@dataclass
class DomainClassifierConfig:
    """Training settings for the domain discriminator.

    ``l2_strength`` of None selects 1/n with n the pooled sample count.
    The fit stops when the gradient norm drops below
    ``gradient_tolerance`` or after ``max_iterations`` Newton steps.
    """

    l2_strength: float | None = None
    max_iterations: int = 5000
    gradient_tolerance: float = 1e-6

    def __post_init__(self) -> None:
        if self.l2_strength is not None and self.l2_strength < 0.0:
            raise ValueError("l2_strength must be non-negative")
        if self.max_iterations < 1 or self.gradient_tolerance <= 0.0:
            raise ValueError("invalid domain classifier configuration")


@dataclass
class DomainClassifier:
    """Fitted logistic discriminator with its standardization statistics."""

    weights: np.ndarray
    bias: float
    feature_mean: np.ndarray
    feature_std: np.ndarray
    l2_strength: float
    iterations: int
    converged: bool
    final_loss: float

    def predict_source_probability(self, features: np.ndarray) -> np.ndarray:
        """H(x) = P(domain = source | x) for rows of ``features``."""
        x = _as_features(features)
        if x.shape[1] != self.weights.shape[0]:
            raise ValueError(
                f"feature dimension {x.shape[1]} does not match classifier "
                f"dimension {self.weights.shape[0]}"
            )
        standardized = (x - self.feature_mean) / self.feature_std
        return expit(standardized @ self.weights + self.bias)


@dataclass
class WeightVector:
    """Importance weights plus provenance of the lambda transform."""

    values: np.ndarray
    kind: str = "raw"
    lambda_used: float | None = None
    max_weight: float = math.nan

    def __post_init__(self) -> None:
        self.values = check_weights(self.values)
        if self.kind not in ("raw", "lambda_transformed"):
            raise ValueError(f"unknown weight kind {self.kind!r}")
        if math.isnan(self.max_weight):
            self.max_weight = float(self.values.max())


def _as_features(obj) -> np.ndarray:
    """The one validation path for feature matrices: 2-d, non-empty, finite."""
    if isinstance(obj, FeatureSet):
        return obj.features
    x = np.ascontiguousarray(obj, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] < 1:
        raise ValueError("features must be a non-empty 2-d array")
    if not np.all(np.isfinite(x)):
        raise ValueError("features contain non-finite entries")
    return x


def upsample_balance(source_features, target_features, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Resample the smaller split with replacement until both match.

    Equal-sized inputs are returned unchanged without consuming any
    randomness. Sampling is seeded and reproducible.
    """
    source = _as_features(source_features)
    target = _as_features(target_features)
    if source.shape[1] != target.shape[1]:
        raise ValueError("source and target feature dimensions differ")
    n_s, n_t = source.shape[0], target.shape[0]
    if n_s == n_t:
        return source, target
    rng = np.random.default_rng(seed)
    if n_s < n_t:
        source = source[rng.integers(0, n_s, size=n_t)]
    else:
        target = target[rng.integers(0, n_t, size=n_s)]
    return source, target


def train_domain_classifier(
    source_features,
    target_features,
    config: DomainClassifierConfig | None = None,
) -> DomainClassifier:
    """Train the source-vs-target discriminator by damped Newton (IRLS) steps.

    Source rows carry domain label 1, target rows 0. Features are
    standardized to zero mean and unit variance using the pooled inputs;
    the statistics are stored on the classifier so new points are mapped
    through the same transform. The loss is mean binary cross-entropy plus
    an L2 penalty on the weights (bias unpenalized).

    Each step solves the (d+1)x(d+1) system H delta = g for the Newton
    direction (least squares when H is singular) and halves the step
    length until the loss is finite and does not rise. The fit converges
    when the gradient norm drops below ``gradient_tolerance``; it stops
    unconverged after ``max_iterations`` steps, or when no step length
    down to 2**-MAX_HALVINGS gives an acceptable loss.
    """
    config = config or DomainClassifierConfig()
    source = _as_features(source_features)
    target = _as_features(target_features)
    if source.shape[1] != target.shape[1]:
        raise ValueError("source and target feature dimensions differ")

    x = np.vstack([source, target])
    y = np.concatenate([np.ones(source.shape[0]), np.zeros(target.shape[0])])
    n, d = x.shape
    mean = x.mean(axis=0)
    std = x.std(axis=0)
    std = np.where(std == 0.0, 1.0, std)
    xs = (x - mean) / std
    l2 = config.l2_strength if config.l2_strength is not None else 1.0 / n

    def loss_at(theta: np.ndarray) -> tuple[float, np.ndarray]:
        # theta packs the feature weights with the bias last
        w = theta[:d]
        margins = xs @ w + theta[d]
        # log(1 + exp(m)) - y*m, numerically stable for large |m|
        loss = float(np.mean(np.logaddexp(0.0, margins) - y * margins))
        return loss + 0.5 * l2 * float(w @ w), margins

    penalty = np.full(d + 1, l2)
    penalty[d] = 0.0
    theta = np.zeros(d + 1)
    loss, margins = loss_at(theta)
    converged = False
    iterations = 0
    for _ in range(config.max_iterations):
        iterations += 1
        p = expit(margins)
        residual = (p - y) / n
        grad = np.append(xs.T @ residual, residual.sum()) + penalty * theta
        if math.sqrt(float(grad @ grad)) < config.gradient_tolerance:
            converged = True
            break
        curvature = p * (1.0 - p) / n
        weighted = xs.T * curvature
        hess = np.empty((d + 1, d + 1))
        hess[:d, :d] = weighted @ xs
        hess[:d, d] = hess[d, :d] = weighted.sum(axis=1)
        hess[d, d] = curvature.sum()
        hess += np.diag(penalty)
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(hess, grad, rcond=None)[0]
        alpha = 1.0
        for _ in range(MAX_HALVINGS + 1):
            cand = theta - alpha * step
            # an overflowing trial step is expected here and rejected below
            with np.errstate(over="ignore", invalid="ignore"):
                cand_loss, cand_margins = loss_at(cand)
            if math.isfinite(cand_loss) and cand_loss <= loss:
                break
            alpha *= 0.5
        else:
            break  # no step length gave a finite, non-increasing loss
        theta, loss, margins = cand, cand_loss, cand_margins

    return DomainClassifier(
        weights=theta[:d],
        bias=float(theta[d]),
        feature_mean=mean,
        feature_std=std,
        l2_strength=float(l2),
        iterations=iterations,
        converged=converged,
        final_loss=loss,
    )


def estimate_weights(classifier: DomainClassifier, features) -> WeightVector:
    """Density-ratio weights w(x) = (1 - H(x)) / H(x) on evaluation features.

    H is clamped to [1e-6, 1 - 1e-6] before the ratio, bounding the
    weights away from 0 and infinity.
    """
    h = classifier.predict_source_probability(features)
    h = np.clip(h, H_CLAMP, 1.0 - H_CLAMP)
    values = (1.0 - h) / h
    return WeightVector(values=values, kind="raw", lambda_used=None)


def lambda_transform(weights: WeightVector, lam: float) -> WeightVector:
    """Elementwise power w^lam with lam in [0, 1].

    lam = 1 returns the raw weights unchanged; lam = 0 flattens them to 1.
    Whenever the raw maximum is at least 1, the transformed maximum cannot
    exceed it. Only raw vectors may be transformed.
    """
    if not isinstance(weights, WeightVector):
        raise ValueError("lambda_transform expects a WeightVector")
    if weights.kind != "raw":
        raise ValueError("weights were already lambda-transformed")
    lam = float(lam)
    if not (0.0 <= lam <= 1.0):
        raise ValueError(f"lambda must lie in [0, 1], got {lam}")
    values = np.power(weights.values, lam)
    return WeightVector(values=values, kind="lambda_transformed", lambda_used=lam)
