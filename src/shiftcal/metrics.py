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
# float64 elements a stacked temporary may hold at once: the package's one working-set
# budget, read by ``_in_batches`` alone. Passes that stack one block per temperature or
# per row (transcal's grid, the cpcs scan, synthshift's distance stacks) run through it.
# 2**17 (1 MiB) beat 2**15 for the transcal grid at K = 10, n = 3000 and at
# K = 3, n = 1000 on a 2-core host, and 2**16 to 2**19 were within noise of each other
_BATCH_ELEMENTS = 2**17


def _in_batches(fn, x: np.ndarray, footprint: int) -> np.ndarray:
    """``fn(x)``, computed on consecutive slices of ``max(1, _BATCH_ELEMENTS // footprint)``
    entries of ``x`` for an ``fn`` that touches ``footprint`` float64 elements per entry.

    Each slice's results are written into their rows of one output array,
    so the stacked temporaries stay within the working-set budget. Row i of
    ``fn``'s result must depend on entry i of ``x`` alone; then the slices
    change no bit. A first slice that covers ``x`` is returned as ``fn``
    gave it.
    """
    step = max(1, _BATCH_ELEMENTS // footprint)
    block = fn(x[:step])
    if x.shape[0] <= step:
        return block
    out = np.empty(x.shape[:1] + block.shape[1:], dtype=block.dtype)
    out[:step] = block
    for i in range(step, x.shape[0], step):
        out[i : i + step] = fn(x[i : i + step])
    return out


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
        worst = float(np.max(np.abs(_row_sums(probs) - 1.0)))
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
    """Map confidences in [0, 1] to 0-based bin indices, elementwise for any shape.

    Bin m (0-based) covers (m/B, (m + 1)/B]; exactly 0 maps to bin 0. The
    index is the number of inner edges m/B (0 < m < B) below c, the value
    ``np.searchsorted(np.arange(1, B) / B, c, side="left")`` gives, for
    every c in [0, 1]. Values below 0 or above 1 land in the first or last
    bin.
    """
    num_bins = _num_bins(bins)
    confidences = np.asarray(confidences, dtype=np.float64)
    # with IEEE rounding, c > fl(m/B) implies c > m/B and so fl(c * B) >= m:
    # floor(c * B) is never below the index, and at most one above it, when
    # c lies on or just under the guessed bin's lower edge
    lower_edges = np.empty(num_bins)
    lower_edges[0], lower_edges[1:] = -np.inf, np.arange(1, num_bins) / num_bins
    index = np.asarray((confidences * num_bins).astype(np.intp))
    np.maximum(index, 0, out=index)
    np.minimum(index, num_bins - 1, out=index)
    index -= confidences <= lower_edges[index]
    return index


def _bin_sums(idx, num_bins: int, *values) -> list[np.ndarray]:
    """Per-bin sums of each array in ``values``, in sample order, given 0-based bins ``idx``."""
    return [np.bincount(idx, weights=v, minlength=num_bins) for v in values]


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
    weights = np.ones(n) if weights is None else check_weights(weights, n)
    return _reliability_bins(probs, labels, num_bins, weights)


def _reliability_bins(
    probs: ProbabilitySet, labels: np.ndarray, num_bins: int, weights: np.ndarray
) -> ReliabilityBins:
    """``reliability_bins`` on labels, bin count and weights that are already validated."""
    correct = (probs.predictions == labels).astype(np.float64)
    idx = bin_indices(probs.confidences, num_bins)
    mass, acc_sum, conf_sum = _bin_sums(
        idx, num_bins, weights, weights * correct, weights * probs.confidences
    )
    occupied = mass > 0.0
    accuracy = np.divide(acc_sum, mass, out=np.full(num_bins, np.nan), where=occupied)
    confidence = np.divide(conf_sum, mass, out=np.full(num_bins, np.nan), where=occupied)

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


def _row_sums(x: np.ndarray) -> np.ndarray:
    """``x.sum(axis=-1, keepdims=True)`` bit for bit, for ``x`` with no negative zeros.

    numpy sums each row of a last axis in its own inner-loop call: a row
    shorter than 8 sequentially from 0, a longer one pairwise, starting
    from eight running sums ``((r0+r1)+(r2+r3)) + ((r4+r5)+(r6+r7))`` and
    then adding the columns after them one at a time. Below 16 columns each
    running sum is a single column, so adding whole columns in that order
    gives the same bits without a call per row, which costs more than the
    softmax's ``exp`` at K = 3 and three times it at K = 10. Longer rows
    take numpy's sum itself.
    """
    k = x.shape[-1]
    if k >= 16:
        return x.sum(axis=-1, keepdims=True)
    columns = [x[..., j : j + 1] for j in range(k)]
    if k < 8:
        sums, rest = columns[0].copy(), columns[1:]
    else:
        sums = columns[0] + columns[1]
        sums += columns[2] + columns[3]
        upper = columns[4] + columns[5]
        upper += columns[6] + columns[7]
        sums += upper
        rest = columns[8:]
    for column in rest:
        sums += column
    return sums


def _row_max(x: np.ndarray) -> np.ndarray:
    """``x.max(axis=-1, keepdims=True)`` bit for bit.

    numpy reduces each row of a last axis in its own inner-loop call, so
    below 32 columns a running ``np.maximum`` over whole columns is faster:
    at 3 000 rows (numpy 2.4), 4-18x for K = 2 to 8, 2-4x for K = 10 to
    24 and 1.8-2.2x for K = 26 to 31, with a stack of four such arrays
    likewise. From 32 columns on the gain is gone: numpy's max took
    0.45-0.82x the column passes' time at K = 32 stacked and K = 65, and
    between them the two alternate, so those widths take numpy's max.
    A maximum is the same whatever the order but for the sign of a zero
    maximum, and numpy's order depends on the CPU's vector width, so rows
    whose maximum is zero take numpy's max itself.
    """
    if x.shape[-1] >= 32:
        return x.max(axis=-1, keepdims=True)
    top = x[..., :1].copy()
    for j in range(1, x.shape[-1]):
        np.maximum(top, x[..., j : j + 1], out=top)
    zero = top[..., 0] == 0.0
    if zero.any():
        top[zero] = x[zero].max(axis=-1, keepdims=True)
    return top


def _nll_sum(label_probs: np.ndarray) -> np.ndarray:
    """-sum(log p) over the last axis of true-label probabilities, each clamped below at ``PROB_CLAMP``."""
    return -np.sum(np.log(np.maximum(label_probs, PROB_CLAMP)), axis=-1)


def nll(probs: ProbabilitySet, labels: np.ndarray, mean: bool = False) -> float:
    """Negative log-likelihood of the true labels.

    Summed over samples by default; ``mean=True`` divides by n. Predicted
    probabilities are clamped below at ``PROB_CLAMP`` before the log.
    """
    n = probs.num_samples
    labels = check_labels(labels, probs.num_classes, n)
    total = float(_nll_sum(probs.probs[np.arange(n), labels]))
    if mean:
        return total / n
    return total


def _brier_rows(diff: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per-sample Brier scores sum_k (p_ik - 1[k = y_i])^2 / K; overwrites the rows ``diff``.

    Rows run along the last axis, so ``diff`` may stack one (n, K) block per temperature.
    """
    diff[..., np.arange(diff.shape[-2]), labels] -= 1.0
    np.square(diff, out=diff)
    return _row_sums(diff)[..., 0] / diff.shape[-1]


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
    """All scalar metrics for one evaluation split, as a JSON-ready dict.

    Each value equals its public metric (``ece``, ``nll``, ``brier``) bit
    for bit; the labels are checked once and the NLL summed once.
    """
    n = probs.num_samples
    labels = check_labels(labels, probs.num_classes, n)
    num_bins = _num_bins(bins)
    nll_sum = float(_nll_sum(probs.probs[np.arange(n), labels]))
    return {
        "num_samples": int(n),
        "num_classes": int(probs.num_classes),
        "num_bins": num_bins,
        "accuracy": float((probs.predictions == labels).mean()),
        "mean_confidence": float(probs.confidences.mean()),
        "ece": _reliability_bins(probs, labels, num_bins, np.ones(n)).ece,
        "nll_sum": nll_sum,
        "nll_mean": nll_sum / n,
        "brier": float(_brier_rows(probs.probs.copy(), labels).mean()),
    }
