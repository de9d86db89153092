"""Importance-weight estimation from a source/target domain discriminator.

A binary logistic regression H(x) = P(domain = source | x) is trained on
balanced, standardized feature splits; the density-ratio estimate for a
point is then w(x) = (1 - H(x)) / H(x). Weights are evaluated on the
source validation split, never on the discriminator's training data.

The fit has no settings: the L2 strength is 1/n for n pooled rows, and
it runs the package's one damped Newton driver (``newton.damped_newton``,
shared with vector and matrix scaling), which stops at GRADIENT_TOLERANCE
or after MAX_NEWTON_STEPS steps. The classifier supplies the direction
from its dense Hessian.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .metrics import check_array
from .newton import damped_newton

__all__ = [
    "DomainClassifier",
    "estimate_weights",
    "train_domain_classifier",
    "upsample_balance",
]

H_CLAMP = 1e-6


def _sigmoid(margins: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-m)), which keeps the relative precision of small H that (1 - H) / H needs."""
    with np.errstate(over="ignore"):  # exp(-m) overflows below m = -709, giving exactly 0
        return 1.0 / (1.0 + np.exp(-margins))


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
        x = check_array(features, "features", 2)
        if x.shape[1] != self.weights.shape[0]:
            raise ValueError(
                f"feature dimension {x.shape[1]} does not match classifier "
                f"dimension {self.weights.shape[0]}"
            )
        standardized = (x - self.feature_mean) / self.feature_std
        return _sigmoid(standardized @ self.weights + self.bias)


def upsample_balance(source_features, target_features, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Resample the smaller split with replacement until both match.

    Equal-sized inputs are returned unchanged without consuming any
    randomness. Sampling is seeded and reproducible.
    """
    source = check_array(source_features, "features", 2)
    target = check_array(target_features, "features", 2)
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


def train_domain_classifier(source_features, target_features) -> DomainClassifier:
    """Train the source-vs-target discriminator by damped Newton (IRLS) steps.

    Source rows carry domain label 1, target rows 0. Features are
    standardized to zero mean and unit variance using the pooled inputs;
    the statistics are stored on the classifier so new points are mapped
    through the same transform. The loss is mean binary cross-entropy plus
    an L2 penalty of strength 1/n on the weights (bias unpenalized), for n
    pooled rows.

    Each step solves the (d+1)x(d+1) system H delta = g for the Newton
    direction (least squares when H is singular); ``newton.damped_newton``
    halves the step length until the loss is finite and does not rise. The
    fit converges when the gradient norm drops below GRADIENT_TOLERANCE; it
    stops unconverged after MAX_NEWTON_STEPS steps, or when no step length
    down to 2**-MAX_HALVINGS gives an acceptable loss.
    """
    source = check_array(source_features, "features", 2)
    target = check_array(target_features, "features", 2)
    if source.shape[1] != target.shape[1]:
        raise ValueError("source and target feature dimensions differ")

    x = np.vstack([source, target])
    y = np.concatenate([np.ones(source.shape[0]), np.zeros(target.shape[0])])
    n, d = x.shape
    mean = x.mean(axis=0)
    # a constant column can get a rounding-sized std (3.5e-16 for 0.1), which
    # would blow up any new value in it; such columns keep unit scale
    std = np.where(x.max(axis=0) == x.min(axis=0), 1.0, x.std(axis=0))
    xs = (x - mean) / std
    l2 = 1.0 / n

    def loss_at(theta: np.ndarray) -> tuple[float, np.ndarray]:
        # theta packs the feature weights with the bias last
        w = theta[:d]
        margins = xs @ w + theta[d]
        # log(1 + exp(m)) - y*m, numerically stable for large |m|
        loss = float(np.mean(np.logaddexp(0.0, margins) - y * margins))
        return loss + 0.5 * l2 * float(w @ w), _sigmoid(margins)

    penalty = np.full(d + 1, l2)
    penalty[d] = 0.0

    def gradient(theta: np.ndarray, p: np.ndarray) -> np.ndarray:
        residual = (p - y) / n
        return np.append(xs.T @ residual, residual.sum()) + penalty * theta

    def direction(theta: np.ndarray, p: np.ndarray, grad: np.ndarray) -> np.ndarray:
        curvature = p * (1.0 - p) / n
        weighted = xs.T * curvature
        hess = np.empty((d + 1, d + 1))
        hess[:d, :d] = weighted @ xs
        hess[:d, d] = hess[d, :d] = weighted.sum(axis=1)
        hess[d, d] = curvature.sum()
        hess += np.diag(penalty)
        try:
            return np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            return np.linalg.lstsq(hess, grad, rcond=None)[0]

    fit = damped_newton(np.zeros(d + 1), loss_at, gradient, direction)
    return DomainClassifier(
        weights=fit.x[:d],
        bias=float(fit.x[d]),
        feature_mean=mean,
        feature_std=std,
        l2_strength=float(l2),
        iterations=fit.iterations,
        converged=fit.converged,
        final_loss=fit.loss,
    )


def estimate_weights(classifier: DomainClassifier, features) -> np.ndarray:
    """Density-ratio weights w(x) = (1 - H(x)) / H(x) on evaluation features.

    Returns a 1-d float64 array with one weight per row of ``features``.
    H is clamped to [1e-6, 1 - 1e-6] before the ratio, bounding the
    weights away from 0 and infinity.
    """
    h = classifier.predict_source_probability(features)
    h = np.clip(h, H_CLAMP, 1.0 - H_CLAMP)
    return (1.0 - h) / h
