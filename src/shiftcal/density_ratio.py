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


@dataclass
class FeatureSet:
    """A feature matrix tagged with the split it came from."""

    features: np.ndarray
    domain: str

    def __post_init__(self) -> None:
        self.features = np.ascontiguousarray(self.features, dtype=np.float64)
        if self.features.ndim != 2 or self.features.shape[0] < 1:
            raise ValueError("features must be a non-empty 2-d array")
        if not np.all(np.isfinite(self.features)):
            raise ValueError("features contain non-finite entries")
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
    ``gradient_tolerance`` or after ``max_iterations`` update attempts.
    """

    l2_strength: float | None = None
    learning_rate: float = 0.1
    max_iterations: int = 5000
    gradient_tolerance: float = 1e-6

    def __post_init__(self) -> None:
        if self.l2_strength is not None and self.l2_strength < 0.0:
            raise ValueError("l2_strength must be non-negative")
        if self.learning_rate <= 0.0 or self.max_iterations < 1 or self.gradient_tolerance <= 0.0:
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
    """Train the source-vs-target discriminator by full-batch gradient descent.

    Source rows carry domain label 1, target rows 0. Features are
    standardized to zero mean and unit variance using the pooled inputs;
    the statistics are stored on the classifier so new points are mapped
    through the same transform. The loss is mean binary cross-entropy plus
    an L2 penalty on the weights (bias unpenalized). The learning rate
    halves whenever a step would increase the loss.
    """
    config = config or DomainClassifierConfig()
    source = _as_features(source_features)
    target = _as_features(target_features)
    if source.shape[1] != target.shape[1]:
        raise ValueError("source and target feature dimensions differ")

    x = np.vstack([source, target])
    y = np.concatenate([np.ones(source.shape[0]), np.zeros(target.shape[0])])
    n = x.shape[0]
    mean = x.mean(axis=0)
    std = x.std(axis=0)
    std = np.where(std == 0.0, 1.0, std)
    xs = (x - mean) / std
    l2 = config.l2_strength if config.l2_strength is not None else 1.0 / n

    def loss_and_grad(w: np.ndarray, b: float) -> tuple[float, np.ndarray, float]:
        margins = xs @ w + b
        # log(1 + exp(m)) - y*m, numerically stable for large |m|
        loss = float(np.mean(np.logaddexp(0.0, margins) - y * margins))
        loss += 0.5 * l2 * float(w @ w)
        residual = (expit(margins) - y) / n
        grad_w = xs.T @ residual + l2 * w
        grad_b = float(residual.sum())
        return loss, grad_w, grad_b

    w = np.zeros(x.shape[1])
    b = 0.0
    lr = config.learning_rate
    loss, grad_w, grad_b = loss_and_grad(w, b)
    converged = False
    iterations = 0
    for _ in range(config.max_iterations):
        iterations += 1
        grad_norm = math.sqrt(float(grad_w @ grad_w) + grad_b * grad_b)
        if grad_norm < config.gradient_tolerance:
            converged = True
            break
        cand_w = w - lr * grad_w
        cand_b = b - lr * grad_b
        cand_loss, cand_grad_w, cand_grad_b = loss_and_grad(cand_w, cand_b)
        if cand_loss > loss:
            lr *= 0.5
            if lr < 1e-30:
                break
            continue
        w, b = cand_w, cand_b
        loss, grad_w, grad_b = cand_loss, cand_grad_w, cand_grad_b

    return DomainClassifier(
        weights=w,
        bias=b,
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
