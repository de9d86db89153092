"""Independent brute-force reference implementations used by the tests.

Everything here is deliberately naive pure Python over lists so that it
shares no code path with the package. Accumulation order mirrors the
documented convention (per-bin sums in sample order, cross-bin reductions
in bin index order) so the equal-width binning metrics can be compared
bit for bit.
"""

import math


def brute_argmax_lowest(row):
    best = 0
    for j in range(1, len(row)):
        if row[j] > row[best]:
            best = j
    return best


def brute_bin_index(confidence, num_bins):
    """Right-closed equal-width bins; confidence 0 falls into the first."""
    edges = [k / num_bins for k in range(num_bins + 1)]
    k = 0
    while k <= num_bins and edges[k] < confidence:
        k += 1
    # k is now the first edge index with edges[k] >= confidence
    idx = k - 1
    if idx < 0:
        idx = 0
    if idx > num_bins - 1:
        idx = num_bins - 1
    return idx


def brute_reliability(probs_rows, labels, num_bins, weights=None):
    """Per-bin weighted counts, accuracies, confidences and the ECE."""
    n = len(probs_rows)
    if weights is None:
        weights = [1.0] * n
    preds = [brute_argmax_lowest(row) for row in probs_rows]
    confs = [probs_rows[i][preds[i]] for i in range(n)]
    correct = [1.0 if preds[i] == labels[i] else 0.0 for i in range(n)]
    idx = [brute_bin_index(confs[i], num_bins) for i in range(n)]

    weight_sum = [0.0] * num_bins
    acc_sum = [0.0] * num_bins
    conf_sum = [0.0] * num_bins
    for m in range(num_bins):
        for i in range(n):
            if idx[i] == m:
                weight_sum[m] += weights[i]
    for m in range(num_bins):
        for i in range(n):
            if idx[i] == m:
                acc_sum[m] += weights[i] * correct[i]
    for m in range(num_bins):
        for i in range(n):
            if idx[i] == m:
                conf_sum[m] += weights[i] * confs[i]

    total = 0.0
    for m in range(num_bins):
        total += weight_sum[m]

    accuracy = [math.nan] * num_bins
    confidence = [math.nan] * num_bins
    value = 0.0
    for m in range(num_bins):
        if weight_sum[m] > 0.0:
            accuracy[m] = acc_sum[m] / weight_sum[m]
            confidence[m] = conf_sum[m] / weight_sum[m]
            value += (weight_sum[m] / total) * abs(accuracy[m] - confidence[m])
    return weight_sum, accuracy, confidence, value


def brute_ece(probs_rows, labels, num_bins, weights=None):
    return brute_reliability(probs_rows, labels, num_bins, weights)[3]


def brute_nll(probs_rows, labels, mean=False):
    total = 0.0
    for i, row in enumerate(probs_rows):
        p = row[labels[i]]
        if p < 1e-12:
            p = 1e-12
        total -= math.log(p)
    if mean:
        return total / len(probs_rows)
    return total


def brute_brier(probs_rows, labels):
    n = len(probs_rows)
    k = len(probs_rows[0])
    total = 0.0
    for i, row in enumerate(probs_rows):
        s = 0.0
        for j in range(k):
            target = 1.0 if j == labels[i] else 0.0
            s += (row[j] - target) ** 2
        total += s / k
    return total / n


def brute_residuals(probs_rows, labels):
    out = []
    for i, row in enumerate(probs_rows):
        pred = brute_argmax_lowest(row)
        correct = 1.0 if pred == labels[i] else 0.0
        out.append(abs(correct - row[pred]))
    return out


def random_probability_rows(rng, n, k):
    """Dirichlet-ish rows via normalized exponentials, as plain lists."""
    raw = rng.random((n, k)) + 1e-3
    rows = []
    for i in range(n):
        s = float(raw[i].sum())
        rows.append([float(v) / s for v in raw[i]])
    return rows


def objective_samples(confidences, correct, weights, num_bins):
    """Per-sample contributions to the binned weighted calibration gap.

    Mirrors the optimizer's sample construction: weighted per-bin accuracy
    and confidence gaps, attributed back to samples, scaled by the weight.
    The plain mean of the result is the binned weighted error estimate
    with importance mass 1/n.
    """
    n = len(confidences)
    idx = [brute_bin_index(c, num_bins) for c in confidences]
    weight_sum = [0.0] * num_bins
    acc_sum = [0.0] * num_bins
    conf_sum = [0.0] * num_bins
    for i in range(n):
        weight_sum[idx[i]] += weights[i]
        acc_sum[idx[i]] += weights[i] * correct[i]
        conf_sum[idx[i]] += weights[i] * confidences[i]
    gaps = [0.0] * num_bins
    for m in range(num_bins):
        if weight_sum[m] > 0.0:
            gaps[m] = abs(acc_sum[m] / weight_sum[m] - conf_sum[m] / weight_sum[m])
    return [weights[i] * gaps[idx[i]] for i in range(n)]


def kish_ess(weights):
    """Kish effective sample size (sum w)^2 / sum w^2."""
    total = sum(float(w) for w in weights)
    return total * total / sum(float(w) * float(w) for w in weights)
