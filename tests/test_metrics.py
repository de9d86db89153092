import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftcal import (
    AffineScaleParam,
    ProbabilitySet,
    apply_affine_scaling,
    apply_control_variate,
    bin_indices,
    brier,
    ece,
    fit_cpcs_temperature,
    fit_matrix_scaling,
    fit_oracle_temperature,
    fit_temperature_nll,
    fit_vector_scaling,
    metric_report,
    nll,
    optimize_transcal,
    per_sample_residuals,
    reliability_bins,
    serial_control_variate,
    softmax_with_temperature,
    train_domain_classifier,
    transcal_objective,
    upsample_balance,
    weighted_ece,
)

from shiftcal import metrics
from shiftcal.metrics import _row_max, _row_sums, check_labels

from oracles import (
    brute_bin_index,
    brute_brier,
    brute_ece,
    brute_nll,
    brute_reliability,
    brute_residuals,
    random_probability_rows,
)


def pset(rows):
    return ProbabilitySet.from_probabilities(np.asarray(rows, dtype=np.float64))


class TestBinIndices:
    def test_zero_confidence_joins_first_bin(self):
        assert bin_indices(np.array([0.0]), 15).tolist() == [0]

    def test_one_lands_in_last_bin(self):
        assert bin_indices(np.array([1.0]), 15).tolist() == [14]

    def test_out_of_range_values_land_in_the_end_bins(self):
        assert bin_indices(np.array([-7.0, -0.5, -1e-300, 1.0 + 1e-12, 3.0]), 4).tolist() == [0, 0, 0, 3, 3]

    def test_right_closed_edges(self):
        # an exact edge k/B belongs to the bin it closes
        for b in (1, 2, 15, 10):
            for k in range(1, b + 1):
                edge = k / b
                assert bin_indices(np.array([edge]), b)[0] == k - 1
                if edge + 1e-9 <= 1.0:
                    assert bin_indices(np.array([edge + 1e-9]), b)[0] == k

    def test_matches_brute_force_on_random_and_boundary_values(self):
        rng = np.random.default_rng(7)
        for b in (1, 2, 3, 7, 15):
            edges = [k / b for k in range(b + 1)]
            conf = np.concatenate([rng.random(200), np.array(edges)])
            got = bin_indices(conf, b)
            want = [brute_bin_index(float(c), b) for c in conf]
            assert got.tolist() == want

    def test_rejects_bad_bin_counts(self):
        with pytest.raises(ValueError):
            bin_indices(np.array([0.5]), 0)
        with pytest.raises(ValueError):
            bin_indices(np.array([0.5]), -3)


LOGITS = np.array([[2.0, 0.5, -1.0], [0.0, 1.0, 0.5], [1.5, 1.5, 0.0], [-0.5, 0.0, 2.0]])
LABELS = np.array([0, 1, 0, 2])
UNIT = np.ones(4)
FEATURES = np.arange(8.0).reshape(4, 2)
VECTOR_MAP = AffineScaleParam(scale=np.ones(3), bias=np.zeros(3), kind="vector")

# every public entry point that takes an array from outside the program:
# (call with the array under test, the argument's name, a valid value for it)
ARRAY_ENTRY_POINTS = {
    "softmax_with_temperature": (lambda a: softmax_with_temperature(a, 1.5), "logits", LOGITS),
    "fit_temperature_nll": (lambda a: fit_temperature_nll(a, LABELS), "logits", LOGITS),
    "fit_oracle_temperature": (lambda a: fit_oracle_temperature(a, LABELS), "logits", LOGITS),
    "fit_cpcs_temperature": (lambda a: fit_cpcs_temperature(a, LABELS, UNIT), "logits", LOGITS),
    "fit_cpcs_temperature-weights": (lambda a: fit_cpcs_temperature(LOGITS, LABELS, a), "weights", UNIT),
    "fit_vector_scaling": (lambda a: fit_vector_scaling(a, LABELS), "logits", LOGITS),
    "fit_matrix_scaling": (lambda a: fit_matrix_scaling(a, LABELS), "logits", LOGITS),
    "apply_affine_scaling": (lambda a: apply_affine_scaling(a, VECTOR_MAP), "logits", LOGITS),
    "optimize_transcal": (lambda a: optimize_transcal(a, LABELS, UNIT), "logits", LOGITS),
    "optimize_transcal-weights": (lambda a: optimize_transcal(LOGITS, LABELS, a), "weights", UNIT),
    "transcal_objective": (lambda a: transcal_objective(a, LABELS, UNIT, 1.0, 0.5), "logits", LOGITS),
    "apply_control_variate": (lambda a: apply_control_variate(a, UNIT, 1.0), "u_samples", UNIT),
    "serial_control_variate": (lambda a: serial_control_variate(a, UNIT, UNIT, 0.5), "u_samples", UNIT),
    "upsample_balance": (lambda a: upsample_balance(a, FEATURES, seed=0), "features", FEATURES),
    "train_domain_classifier": (lambda a: train_domain_classifier(FEATURES, a), "features", FEATURES),
    "from_probabilities": (ProbabilitySet.from_probabilities, "probs", np.full((4, 3), 1.0 / 3.0)),
}


def bad_arrays(good):
    """A NaN entry, each way of being empty, and the wrong rank."""
    nan = good.copy()
    nan.flat[-1] = math.nan
    cases = {"nan": nan, "no_rows": good[:0]}
    if good.ndim == 2:
        cases["no_columns"] = good[:, :0]
        cases["rank_1"] = good[0]
    else:
        cases["rank_2"] = good[None, :]
    return cases


class TestCheckArray:
    @pytest.mark.parametrize(
        "entry, case",
        [
            (entry, case)
            for entry, (_, _, good) in ARRAY_ENTRY_POINTS.items()
            for case in bad_arrays(good)
        ],
    )
    def test_every_entry_point_names_the_bad_argument(self, entry, case):
        call, name, good = ARRAY_ENTRY_POINTS[entry]
        call(good)
        with pytest.raises(ValueError, match=f"^{name} (must be a non-empty|contains non-finite)"):
            call(bad_arrays(good)[case])


class TestProbabilitySet:
    def test_rejects_rows_not_summing_to_one(self):
        with pytest.raises(ValueError):
            pset([[0.6, 0.5]])

    def test_accepts_rows_within_tolerance(self):
        p = pset([[0.5 + 4e-10, 0.5]])
        assert p.num_samples == 1

    def test_rejects_negative_and_nonfinite(self):
        with pytest.raises(ValueError):
            pset([[1.2, -0.2]])
        with pytest.raises(ValueError):
            pset([[math.nan, 1.0]])

    def test_argmax_tie_takes_lowest_class(self):
        p = pset([[0.4, 0.4, 0.2], [0.25, 0.5, 0.25]])
        assert p.predictions.tolist() == [0, 1]
        assert p.confidences.tolist() == [0.4, 0.5]


class TestEce:
    def test_single_bin_value_is_accuracy_confidence_gap(self):
        # all confidences fall in one bin, so the gap is exact
        p = pset([[0.61, 0.39], [0.62, 0.38], [0.63, 0.37]])
        labels = np.array([0, 1, 0])
        expected = abs(2.0 / 3.0 - (0.61 + 0.62 + 0.63) / 3.0)
        assert ece(p, labels) == expected

    def test_perfectly_calibrated_two_bins(self):
        # constant-confidence groups whose accuracy equals the confidence
        rows = [[0.8, 0.2]] * 5 + [[0.6, 0.4]] * 5
        labels = np.array([0, 0, 0, 0, 1, 0, 0, 0, 1, 1])
        p = pset(rows)
        assert ece(p, labels, bins=5) < 1e-15

    def test_empty_bins_contribute_nothing(self):
        p = pset([[1.0, 0.0]])
        assert ece(p, np.array([0]), bins=15) == 0.0
        assert ece(p, np.array([1]), bins=15) == 1.0

    def test_matches_brute_force_bitwise(self):
        rng = np.random.default_rng(11)
        for _ in range(250):
            n = int(rng.integers(1, 51))
            k = int(rng.integers(2, 6))
            b = int(rng.integers(1, 16))
            rows = random_probability_rows(rng, n, k)
            labels = rng.integers(0, k, size=n)
            got = ece(pset(rows), labels, bins=b)
            want = brute_ece(rows, labels.tolist(), b)
            assert got == want

    def test_weighted_matches_brute_force_bitwise(self):
        rng = np.random.default_rng(13)
        for _ in range(250):
            n = int(rng.integers(1, 51))
            k = int(rng.integers(2, 6))
            b = int(rng.integers(1, 16))
            rows = random_probability_rows(rng, n, k)
            labels = rng.integers(0, k, size=n)
            weights = rng.random(n) * 3.0
            weights[0] = max(weights[0], 1e-3)
            got = weighted_ece(pset(rows), labels, weights, bins=b)
            want = brute_ece(rows, labels.tolist(), b, weights.tolist())
            assert got == want

    def test_unit_weights_equal_unweighted_bitwise(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            n = int(rng.integers(1, 60))
            k = int(rng.integers(2, 5))
            rows = np.asarray(random_probability_rows(rng, n, k))
            labels = rng.integers(0, k, size=n)
            p = pset(rows)
            assert weighted_ece(p, labels, np.ones(n)) == ece(p, labels)

    def test_weight_scaling_invariance(self):
        rng = np.random.default_rng(19)
        rows = random_probability_rows(rng, 40, 3)
        labels = rng.integers(0, 3, size=40)
        w = rng.random(40) + 0.1
        p = pset(rows)
        a = weighted_ece(p, labels, w)
        b = weighted_ece(p, labels, w * 7.5)
        assert abs(a - b) < 1e-12

    def test_rejects_all_zero_weights(self):
        p = pset([[0.7, 0.3]])
        with pytest.raises(ValueError):
            weighted_ece(p, np.array([0]), np.zeros(1))

    def test_rejects_negative_weights_and_bad_length(self):
        p = pset([[0.7, 0.3], [0.4, 0.6]])
        labels = np.array([0, 1])
        with pytest.raises(ValueError):
            weighted_ece(p, labels, np.array([1.0, -0.5]))
        with pytest.raises(ValueError):
            weighted_ece(p, labels, np.ones(3))

    def test_rejects_out_of_range_labels(self):
        p = pset([[0.7, 0.3]])
        with pytest.raises(ValueError):
            ece(p, np.array([2]))
        with pytest.raises(ValueError):
            ece(p, np.array([-1]))


class TestReliabilityBins:
    def test_structure_and_recompute(self):
        rng = np.random.default_rng(23)
        rows = random_probability_rows(rng, 80, 4)
        labels = rng.integers(0, 4, size=80)
        p = pset(rows)
        rb = reliability_bins(p, labels, 15)
        assert rb.num_bins == 15
        assert rb.counts.sum() == 80.0
        empty = rb.counts == 0
        assert np.all(np.isnan(rb.accuracy[empty]))
        occupied = ~empty
        assert np.all(rb.accuracy[occupied] >= 0.0)
        assert np.all(rb.accuracy[occupied] <= 1.0)

    def test_matches_brute_force_tables(self):
        rng = np.random.default_rng(29)
        rows = random_probability_rows(rng, 50, 3)
        labels = rng.integers(0, 3, size=50)
        rb = reliability_bins(pset(rows), labels, 10)
        counts, acc, conf, value = brute_reliability(rows, labels.tolist(), 10)
        assert rb.counts.tolist() == counts
        assert rb.ece == value
        for m in range(10):
            if counts[m] > 0:
                assert rb.accuracy[m] == acc[m]
                assert rb.confidence[m] == conf[m]


class TestNll:
    def test_pinned_values(self):
        p = pset([[0.5, 0.5]])
        assert nll(p, np.array([0])) == -math.log(0.5)
        p2 = pset([[0.25, 0.75], [0.25, 0.75]])
        assert abs(nll(p2, np.array([1, 0])) - (-math.log(0.75) - math.log(0.25))) < 1e-12
        assert abs(nll(p2, np.array([1, 0]), mean=True) - nll(p2, np.array([1, 0])) / 2) < 1e-15

    def test_zero_probability_is_clamped(self):
        p = pset([[1.0, 0.0]])
        assert nll(p, np.array([1])) == -math.log(1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            n = int(rng.integers(1, 51))
            k = int(rng.integers(2, 6))
            rows = random_probability_rows(rng, n, k)
            labels = rng.integers(0, k, size=n)
            got = nll(pset(rows), labels)
            want = brute_nll(rows, labels.tolist())
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


class TestRowSums:
    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        leading=st.sampled_from(((1,), (300,), (7,), (5, 40), (2, 30), (3, 9), (2, 3, 4))),
        specials=st.booleans(),
    )
    def test_equal_numpy_row_sums_bitwise(self, seed, leading, specials):
        """Column adds in numpy's order must give its last-axis sums bit for bit, for K = 1 to 20."""
        rng = np.random.default_rng(seed)
        for k in range(1, 21):
            x = np.exp(rng.standard_normal(leading + (k,)) * 20.0)
            if specials:
                x.flat[rng.integers(0, x.size, size=3)] = rng.choice([0.0, np.inf, np.nan], size=3)
            assert np.array_equal(_row_sums(x), x.sum(axis=-1, keepdims=True), equal_nan=True), k


class TestInBatches:
    @pytest.mark.parametrize(
        "n,footprint,calls",
        [
            (5, 1000, 1),  # x shorter than a step of 8
            (24, 1000, 3),  # an exact multiple of the step
            (25, 1000, 4),  # a ragged tail
            (4, 9000, 4),  # a footprint above the budget: one entry per step
        ],
    )
    def test_equals_the_unbatched_call(self, monkeypatch, n, footprint, calls):
        """Each case equals ``fn(x)`` bit for bit, in the number of calls to ``fn`` it sets."""
        monkeypatch.setattr(metrics, "_BATCH_ELEMENTS", 8000)
        x = np.random.default_rng(n).standard_normal((n, 3)) * 10.0
        seen = []

        def fn(block):
            seen.append(block.shape[0])
            return np.exp(block) / block.sum(axis=1, keepdims=True)

        want = fn(x)
        seen.clear()
        got = metrics._in_batches(fn, x, footprint)
        assert len(seen) == calls and sum(seen) == n
        assert got.shape == want.shape and np.array_equal(got.view(np.uint64), want.view(np.uint64))


class TestRowMax:
    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        leading=st.sampled_from(((1,), (300,), (7,), (5, 40), (2, 30), (3, 9), (2, 3, 4))),
        zeros=st.booleans(),
    )
    def test_equal_numpy_row_max_bitwise(self, seed, leading, zeros):
        """A running column maximum must give numpy's last-axis max bit for bit,
        the sign of a zero maximum included, on either side of 32 columns."""
        rng = np.random.default_rng(seed)
        for k in (1, 2, 3, 8, 10, 15, 16, 31, 32, 65):
            x = rng.standard_normal(leading + (k,)) * 10.0
            if zeros:
                # rows of signed zeros and negatives, so that many maxima are 0.0 or -0.0
                x = np.where(rng.random(x.shape) < 0.5, -np.abs(x), rng.choice([0.0, -0.0], size=x.shape))
            got, want = _row_max(x), x.max(axis=-1, keepdims=True)
            assert got.shape == want.shape, k
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), k


class TestBrier:
    def test_pinned_value(self):
        p = pset([[0.8, 0.2]])
        assert abs(brier(p, np.array([0])) - 0.04) < 1e-15

    def test_perfect_prediction_scores_zero(self):
        p = pset([[1.0, 0.0, 0.0]])
        assert brier(p, np.array([0])) == 0.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(37)
        for _ in range(100):
            n = int(rng.integers(1, 51))
            k = int(rng.integers(2, 6))
            rows = random_probability_rows(rng, n, k)
            labels = rng.integers(0, k, size=n)
            got = brier(pset(rows), labels)
            want = brute_brier(rows, labels.tolist())
            assert abs(got - want) <= 1e-12


class TestResiduals:
    def test_pinned_values(self):
        p = pset([[0.7, 0.3], [0.2, 0.8]])
        res = per_sample_residuals(p, np.array([0, 0]))
        assert res.tolist() == [1.0 - 0.7, 0.8]

    def test_matches_brute_force(self):
        rng = np.random.default_rng(41)
        rows = random_probability_rows(rng, 60, 4)
        labels = rng.integers(0, 4, size=60)
        got = per_sample_residuals(pset(rows), labels)
        assert got.tolist() == brute_residuals(rows, labels.tolist())

    def test_bounded_in_unit_interval(self):
        rng = np.random.default_rng(43)
        rows = random_probability_rows(rng, 200, 5)
        labels = rng.integers(0, 5, size=200)
        res = per_sample_residuals(pset(rows), labels)
        assert np.all(res >= 0.0)
        assert np.all(res <= 1.0)

    def test_single_bin_constant_correctness_mean_equals_gap(self):
        # with every prediction correct and all confidences in one bin the
        # mean residual coincides with the binned accuracy-confidence gap
        p = pset([[0.91, 0.09], [0.93, 0.07], [0.95, 0.05]])
        labels = np.array([0, 0, 0])
        res = per_sample_residuals(p, labels)
        assert abs(res.mean() - ece(p, labels)) < 1e-15


class TestMetricReport:
    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 300),
        k=st.integers(2, 10),
        bins=st.sampled_from((1, 7, 15, 40)),
    )
    def test_every_field_is_its_public_metric_bitwise(self, seed, n, k, bins):
        rng = np.random.default_rng(seed)
        p = pset(random_probability_rows(rng, n, k))
        labels = rng.integers(0, k, size=n)
        rep = metric_report(p, labels, bins)
        assert rep["nll_sum"] == nll(p, labels)
        assert rep["nll_mean"] == nll(p, labels, mean=True)
        assert rep["ece"] == ece(p, labels, bins)
        assert rep["brier"] == brier(p, labels)

    def test_labels_checked_once(self, monkeypatch):
        rng = np.random.default_rng(53)
        p = pset(random_probability_rows(rng, 40, 3))
        calls = []

        def counted(*args):
            calls.append(1)
            return check_labels(*args)

        monkeypatch.setattr(metrics, "check_labels", counted)
        metric_report(p, rng.integers(0, 3, size=40))
        assert len(calls) == 1

    def test_fields_and_consistency(self):
        rng = np.random.default_rng(47)
        rows = random_probability_rows(rng, 30, 3)
        labels = rng.integers(0, 3, size=30)
        p = pset(rows)
        rep = metric_report(p, labels, 15)
        assert rep["num_samples"] == 30
        assert rep["num_classes"] == 3
        assert rep["num_bins"] == 15
        assert rep["ece"] == ece(p, labels, 15)
        assert rep["nll_sum"] == nll(p, labels)
        assert rep["nll_mean"] == nll(p, labels, mean=True)
        assert rep["brier"] == brier(p, labels)
        assert 0.0 <= rep["accuracy"] <= 1.0
