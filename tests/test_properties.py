"""Invariances of the fits, metrics and storage, checked on generated inputs.

Tasks are small (n <= 300, K from 2 to 5) and hypothesis runs
derandomized with a bounded number of examples, so every run checks the
same inputs. Fits are compared up to the search tolerance: reordering or
repeating rows changes the floating-point summation order, which can move
the temperature on a flat objective by a few 1e-5 but not beyond
2 * SEARCH_TOL. Relabelling the classes does the same to the softmax row
sums.
"""

import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftcal import (
    ece,
    fit_cpcs_temperature,
    fit_temperature_nll,
    optimize_transcal,
    softmax_with_temperature,
    weighted_ece,
)
from shiftcal.matrixio import load_probabilities, save_matrix
from shiftcal.metrics import ROW_SUM_TOL, bin_indices
from shiftcal.scaling import SEARCH_TOL, T_MAX, T_MIN

SEEDS = st.integers(0, 2**32 - 1)
CLASSES = st.integers(2, 5)
LOG_TEMPERATURES = st.floats(math.log(T_MIN), math.log(T_MAX))


def task(seed, n, k):
    """Logits, labels drawn from their softmax at a random temperature, and lognormal weights."""
    rng = np.random.default_rng(seed)
    logits = rng.standard_normal((n, k)) * rng.uniform(0.5, 4.0)
    probs = softmax_with_temperature(logits, rng.uniform(0.5, 3.0)).probs
    cum = np.cumsum(probs, axis=1)
    cum[:, -1] = 1.0
    labels = (rng.random(n)[:, None] < cum).argmax(axis=1)
    return logits, labels, rng.lognormal(0.0, 0.5, size=n), rng


def _transcal(logits, labels, weights):
    solution = optimize_transcal(logits, labels, weights)
    return solution.t_star.t, solution.lambda_star


FITS = {
    "temp": lambda logits, labels, weights: (fit_temperature_nll(logits, labels).t, None),
    "cpcs": lambda logits, labels, weights: (fit_cpcs_temperature(logits, labels, weights).t, None),
    "transcal": _transcal,
}


@settings(derandomize=True, max_examples=40, deadline=None)
@given(seed=SEEDS, n=st.integers(10, 300), k=CLASSES, method=st.sampled_from(sorted(FITS)))
def test_row_order_and_repetition_leave_the_fit_unchanged(seed, n, k, method):
    logits, labels, weights, rng = task(seed, n, k)
    fit = FITS[method]
    t_star, lambda_star = fit(logits, labels, weights)
    perm = rng.permutation(n)
    variants = {
        "permuted": (logits[perm], labels[perm], weights[perm]),
        "repeated": (np.vstack([logits, logits]), np.concatenate([labels, labels]),
                     np.concatenate([weights, weights])),
    }
    for name, inputs in variants.items():
        t_again, lambda_again = fit(*inputs)
        assert abs(t_again - t_star) <= 2 * SEARCH_TOL, (name, t_star, t_again)
        assert lambda_again == lambda_star, (name, lambda_star, lambda_again)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(seed=SEEDS, n=st.integers(10, 300), k=CLASSES, method=st.sampled_from(sorted(FITS)))
def test_class_relabelling_leaves_the_fit_unchanged(seed, n, k, method):
    logits, labels, weights, rng = task(seed, n, k)
    fit = FITS[method]
    t_star, lambda_star = fit(logits, labels, weights)
    order = rng.permutation(k)
    if np.array_equal(order, np.arange(k)):
        order = order[::-1]
    # new column j is old class order[j], so old label c becomes the j with order[j] == c
    relabel = np.argsort(order)
    t_again, lambda_again = fit(logits[:, order], relabel[labels], weights)
    assert abs(t_again - t_star) <= 2 * SEARCH_TOL, (t_star, t_again)
    assert lambda_again == lambda_star, (lambda_star, lambda_again)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    seed=SEEDS,
    n=st.integers(1, 300),
    k=CLASSES,
    scale=st.sampled_from((0.01, 1.0, 30.0, 300.0)),
    log_t=LOG_TEMPERATURES,
)
def test_temperature_maps_keep_the_argmax(seed, n, k, scale, log_t):
    logits = np.random.default_rng(seed).standard_normal((n, k)) * scale
    probs = softmax_with_temperature(logits, math.exp(log_t))
    assert np.array_equal(np.argmax(probs.probs, axis=1), np.argmax(logits, axis=1))
    assert np.array_equal(probs.predictions, np.argmax(logits, axis=1))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(seed=SEEDS, n=st.integers(1, 300), k=CLASSES, bins=st.integers(1, 30), log_t=LOG_TEMPERATURES)
def test_unit_weights_give_the_unweighted_ece(seed, n, k, bins, log_t):
    logits, labels, _, _ = task(seed, n, k)
    probs = softmax_with_temperature(logits, math.exp(log_t))
    assert weighted_ece(probs, labels, np.ones(n), bins) == ece(probs, labels, bins)


@settings(derandomize=True, max_examples=40, deadline=None)
@given(confidences=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=50))
def test_bin_index_counts_the_inner_edges_below(confidences):
    for bins in range(1, 101):
        edges = np.arange(bins + 1) / bins  # 0, the inner edges m/B and 1
        c = np.concatenate([confidences, edges, np.nextafter(edges, -1.0), np.nextafter(edges, 2.0)])
        c = c[(c >= 0.0) & (c <= 1.0)]
        want = np.searchsorted(np.arange(1, bins) / bins, c, side="left")
        assert np.array_equal(bin_indices(c, bins), want), bins


@settings(derandomize=True, max_examples=40, deadline=None)
@given(
    seed=SEEDS,
    n=st.integers(1, 300),
    k=CLASSES,
    scale=st.sampled_from((0.01, 1.0, 30.0, 300.0)),
    log_t=LOG_TEMPERATURES,
)
def test_f32_probabilities_read_back_as_probabilities(seed, n, k, scale, log_t):
    logits = np.random.default_rng(seed).standard_normal((n, k)) * scale
    probs = softmax_with_temperature(logits, math.exp(log_t)).probs
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "probs.f32"
        save_matrix(path, probs)
        stored = load_probabilities(path)
    assert np.all(stored >= 0.0)
    assert np.max(np.abs(stored.sum(axis=1) - 1.0)) <= ROW_SUM_TOL
