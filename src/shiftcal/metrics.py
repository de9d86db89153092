"""Calibration metrics for categorical probability predictions.

Binning convention used everywhere in this package: B equal-width bins on
[0, 1], where bin m (1-indexed) covers ((m - 1)/B, m/B]. Bins are closed on
the right; a confidence of exactly 0 is assigned to bin 1. Empty bins
contribute nothing to the expected calibration error. Ties in a row argmax
resolve to the lowest class index.

Accumulation order is fixed (per-bin sums in sample order, cross-bin
reductions in bin index order) so results are reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ProbabilitySet",
    "ReliabilityBins",
    "bin_indices",
    "brier",
    "ece",
    "metric_report",
    "nll",
    "per_sample_residuals",
    "reliability_bins",
    "weighted_ece",
]

PROB_CLAMP = 1e-12
ROW_SUM_TOL = 1e-9


def _num_bins(bins: int) -> int:
    if not isinstance(bins, (int, np.integer)) or bins < 1:
        raise ValueError(f"bins must be a positive integer, got {bins!r}")
    return int(bins)


@dataclass
class ProbabilitySet:
    """Probability rows with cached argmax predictions and row confidences.

    Attributes
    ----------
    probs : ndarray of shape (n, K)
        Per-class probabilities; each row sums to 1 within ``ROW_SUM_TOL``.
    predictions : ndarray of shape (n,)
        Index of a maximal entry per row (lowest index on ties).
    confidences : ndarray of shape (n,)
        Maximum probability per row, ``probs[i, predictions[i]]``; derived on
        construction, so constructors pass only ``probs`` and ``predictions``.
    """

    probs: np.ndarray
    predictions: np.ndarray
    confidences: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.confidences = self.probs[np.arange(self.probs.shape[0]), self.predictions]

    @classmethod
    def from_probabilities(cls, probs: np.ndarray) -> "ProbabilitySet":
        """Validate a probability matrix and attach argmax statistics.

        Rows of ``probs`` (shape (n, K)) must be finite, lie in [0, 1] and
        sum to 1 within 1e-9. The prediction is the first row maximum.
        """
        probs = check_array(probs, "probs", 2)
        if np.any(probs < 0.0) or np.any(probs > 1.0):
            raise ValueError("probabilities must lie in [0, 1]")
        row_sums = probs.sum(axis=1)
        worst = float(np.max(np.abs(row_sums - 1.0)))
        if worst > ROW_SUM_TOL:
            raise ValueError(
                f"probability rows must sum to 1 within {ROW_SUM_TOL:g} "
                f"(worst deviation {worst:.3g})"
            )
        return cls(probs=probs, predictions=np.argmax(probs, axis=1))

    @property
    def num_samples(self) -> int:
        return int(self.probs.shape[0])

    @property
    def num_classes(self) -> int:
        return int(self.probs.shape[1])


@dataclass
class ReliabilityBins:
    """Per-bin reliability summary.

    ``counts`` holds the (possibly weighted) mass per bin; ``accuracy`` and
    ``confidence`` are NaN for empty bins, which contribute nothing to
    ``ece``.
    """

    num_bins: int
    counts: np.ndarray
    accuracy: np.ndarray
    confidence: np.ndarray
    ece: float


def check_array(values, name: str, ndim: int) -> np.ndarray:
    """The one rank and finiteness check for arrays from outside the program.

    Returns ``values`` as a C-contiguous float64 array of rank ``ndim``.
    Raises ValueError naming ``name`` when the rank is wrong, any dimension
    is 0, or an entry is non-finite.
    """
    values = np.asarray(values, dtype=np.float64, order="C")
    if values.ndim != ndim or 0 in values.shape:
        raise ValueError(f"{name} must be a non-empty {ndim}-d array")
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{name} contains non-finite entries")
    return values


def check_labels(labels: np.ndarray, num_classes: int, n: int) -> np.ndarray:
    """Validate class labels: shape (n,), integer-valued, in [0, num_classes).

    Returns them as int64.
    """
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise ValueError(f"labels must have shape ({n},), got {labels.shape}")
    if not np.issubdtype(labels.dtype, np.integer):
        as_int = labels.astype(np.int64, copy=True)
        if not np.all(as_int == labels):
            raise ValueError("labels must be integers")
        labels = as_int
    labels = labels.astype(np.int64, copy=False)
    if labels.min() < 0 or labels.max() >= num_classes:
        raise ValueError(f"labels must lie in [0, {num_classes})")
    return labels


def check_weights(weights, n: int | None = None) -> np.ndarray:
    """Validate importance weights given as a 1-d array-like.

    Returns a non-empty 1-d float64 array of finite, non-negative values,
    of length ``n`` when ``n`` is given. What an all-zero vector means is
    left to the caller.
    """
    values = check_array(weights, "weights", 1)
    if n is not None and values.shape[0] != n:
        raise ValueError(f"weights must have length {n}, got {values.shape[0]}")
    if np.any(values < 0.0):
        raise ValueError("weights must be finite and non-negative")
    return values


def bin_indices(confidences: np.ndarray, bins: int = 15) -> np.ndarray:
    """Map confidences in [0, 1] to 0-based bin indices.

    Bin m (0-based) covers (m/B, (m + 1)/B]; exactly 0 maps to bin 0.
    """
    num_bins = _num_bins(bins)
    confidences = np.asarray(confidences, dtype=np.float64)
    edges = np.arange(num_bins + 1) / num_bins
    idx = np.searchsorted(edges, confidences, side="left") - 1
    return np.clip(idx, 0, num_bins - 1)


def _bin_statistics(
    idx, weights, weighted_correct, weighted_confidences, num_bins: int
) -> tuple[np.ndarray, ...]:
    """Weighted (mass, accuracy, mean confidence) of each bin, given 0-based bins ``idx``.

    ``weighted_correct`` and ``weighted_confidences`` are the per-sample
    products of the weights with correctness and with confidence.
    Accuracy and confidence are NaN in bins with no mass.
    """
    mass = np.bincount(idx, weights=weights, minlength=num_bins)
    occupied = mass > 0.0
    acc_sum = np.bincount(idx, weights=weighted_correct, minlength=num_bins)
    conf_sum = np.bincount(idx, weights=weighted_confidences, minlength=num_bins)
    accuracy = np.divide(acc_sum, mass, out=np.full(num_bins, np.nan), where=occupied)
    confidence = np.divide(conf_sum, mass, out=np.full(num_bins, np.nan), where=occupied)
    return mass, accuracy, confidence


def reliability_bins(
    probs: ProbabilitySet,
    labels: np.ndarray,
    bins: int = 15,
    weights: np.ndarray | None = None,
) -> ReliabilityBins:
    """Bin predictions by confidence and summarize accuracy per bin.

    Parameters
    ----------
    probs : ProbabilitySet
        Predictions to evaluate.
    labels : array_like of shape (n,)
        Integer class labels in [0, K).
    bins : int
        Number of equal-width confidence bins.
    weights : array_like of shape (n,), optional
        Non-negative per-sample weights; unit weights when omitted.
        Weights must not all be zero.

    Returns
    -------
    ReliabilityBins
        Weighted per-bin counts, accuracies, confidences and the expected
        calibration error computed from them.
    """
    num_bins = _num_bins(bins)
    n = probs.num_samples
    labels = check_labels(labels, probs.num_classes, n)
    if weights is None:
        weights = np.ones(n, dtype=np.float64)
    else:
        weights = check_weights(weights, n)

    correct = (probs.predictions == labels).astype(np.float64)
    idx = bin_indices(probs.confidences, num_bins)
    mass, accuracy, confidence = _bin_statistics(
        idx, weights, weights * correct, weights * probs.confidences, num_bins
    )

    total = 0.0
    for m in range(num_bins):
        total += mass[m]
    if total <= 0.0:
        raise ValueError("weights sum to zero; nothing to bin")

    value = 0.0
    for m in range(num_bins):
        if mass[m] > 0.0:
            value += (mass[m] / total) * abs(accuracy[m] - confidence[m])
    return ReliabilityBins(
        num_bins=num_bins,
        counts=mass,
        accuracy=accuracy,
        confidence=confidence,
        ece=value,
    )


def ece(probs: ProbabilitySet, labels: np.ndarray, bins: int = 15) -> float:
    """Expected calibration error with equal-width right-closed bins.

    Sum over bins of (bin count / n) times the absolute gap between bin
    accuracy and bin mean confidence.
    """
    return reliability_bins(probs, labels, bins).ece


def weighted_ece(
    probs: ProbabilitySet,
    labels: np.ndarray,
    weights: np.ndarray,
    bins: int = 15,
) -> float:
    """Importance-weighted expected calibration error.

    Per-bin accuracy and confidence are weighted means; the bin mass is the
    bin's weight share of the total weight. With unit weights this equals
    ``ece`` exactly (identical code path).
    """
    return reliability_bins(probs, labels, bins, weights=weights).ece


def _nll_sum(label_probs: np.ndarray) -> float:
    """-sum(log p) over the true-label probabilities, each clamped below at ``PROB_CLAMP``."""
    return -float(np.sum(np.log(np.maximum(label_probs, PROB_CLAMP))))


def nll(probs: ProbabilitySet, labels: np.ndarray, mean: bool = False) -> float:
    """Negative log-likelihood of the true labels.

    Summed over samples by default; ``mean=True`` divides by n. Predicted
    probabilities are clamped below at ``PROB_CLAMP`` before the log.
    """
    n = probs.num_samples
    labels = check_labels(labels, probs.num_classes, n)
    total = _nll_sum(probs.probs[np.arange(n), labels])
    if mean:
        return total / n
    return total


def _brier_rows(diff: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per-sample Brier scores sum_k (p_ik - 1[k = y_i])^2 / K; overwrites the rows ``diff``."""
    diff[np.arange(diff.shape[0]), labels] -= 1.0
    np.square(diff, out=diff)
    return diff.sum(axis=1) / diff.shape[1]


def brier(probs: ProbabilitySet, labels: np.ndarray) -> float:
    """Brier score: mean over samples of the per-class squared error / K."""
    labels = check_labels(labels, probs.num_classes, probs.num_samples)
    return float(_brier_rows(probs.probs.copy(), labels).mean())


def per_sample_residuals(probs: ProbabilitySet, labels: np.ndarray) -> np.ndarray:
    """Per-sample calibration residual |1(prediction correct) - confidence|.

    A bin-free surrogate for the per-sample contribution to calibration
    error; each value lies in [0, 1].
    """
    n = probs.num_samples
    labels = check_labels(labels, probs.num_classes, n)
    correct = (probs.predictions == labels).astype(np.float64)
    return np.abs(correct - probs.confidences)


def metric_report(
    probs: ProbabilitySet, labels: np.ndarray, bins: int = 15
) -> dict:
    """All scalar metrics for one evaluation split, as a JSON-ready dict."""
    n = probs.num_samples
    labels = check_labels(labels, probs.num_classes, n)
    accuracy = float((probs.predictions == labels).mean())
    return {
        "num_samples": int(n),
        "num_classes": int(probs.num_classes),
        "num_bins": _num_bins(bins),
        "accuracy": accuracy,
        "mean_confidence": float(probs.confidences.mean()),
        "ece": ece(probs, labels, bins),
        "nll_sum": nll(probs, labels, mean=False),
        "nll_mean": nll(probs, labels, mean=True),
        "brier": brier(probs, labels),
    }
