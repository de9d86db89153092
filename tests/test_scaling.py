import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftcal import (
    DegeneracyError,
    ProbabilitySet,
    ShiftScenario,
    apply_affine_scaling,
    brier,
    fit_cpcs_temperature,
    fit_matrix_scaling,
    fit_oracle_temperature,
    fit_temperature_nll,
    fit_vector_scaling,
    generate,
    nll,
    softmax_with_temperature,
)
from shiftcal import scaling
from shiftcal.metrics import _brier_rows
from shiftcal.scaling import (
    SEARCH_TOL,
    T_MAX,
    T_MIN,
    TemperatureParam,
    _GRID_SIZE,
    _minimize_temperature,
    _softmax_terms,
)


def random_logits(rng, n, k, scale=3.0):
    return rng.standard_normal((n, k)) * scale


class TestSoftmaxWithTemperature:
    def test_pinned_two_class(self):
        p = softmax_with_temperature(np.array([[math.log(2.0), 0.0]]), 1.0)
        assert abs(p.probs[0, 0] - 2.0 / 3.0) < 1e-15
        assert abs(p.probs[0, 1] - 1.0 / 3.0) < 1e-15

    def test_high_temperature_flattens(self):
        p = softmax_with_temperature(np.array([[5.0, -5.0, 0.0]]), 1e6)
        assert np.allclose(p.probs, 1.0 / 3.0, atol=1e-5)

    def test_predictions_come_from_raw_logits(self):
        rng = np.random.default_rng(3)
        logits = random_logits(rng, 500, 4)
        base = softmax_with_temperature(logits, 1.0).predictions
        for t in (0.05, 0.5, 2.0, 50.0, 100.0):
            p = softmax_with_temperature(logits, t)
            assert np.array_equal(p.predictions, base)
            assert np.array_equal(p.predictions, np.argmax(logits, axis=1))

    def test_rows_are_valid_probabilities(self):
        rng = np.random.default_rng(5)
        logits = random_logits(rng, 100, 5, scale=20.0)
        p = softmax_with_temperature(logits, 0.05)
        assert np.allclose(p.probs.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(p.probs >= 0.0)

    def test_rejects_bad_temperature_and_logits(self):
        with pytest.raises(ValueError):
            softmax_with_temperature(np.array([[1.0, 2.0]]), 0.0)
        with pytest.raises(ValueError):
            softmax_with_temperature(np.array([[1.0, 2.0]]), -1.0)
        with pytest.raises(ValueError):
            softmax_with_temperature(np.array([[math.inf, 0.0]]), 1.0)
        with pytest.raises(ValueError):
            softmax_with_temperature(np.array([1.0, 2.0]), 1.0)


def search_objective(fit, *args):
    """The objective ``fit`` hands to the temperature search engine."""
    seen = []

    def record(objective, batch):
        seen.append(objective)
        return 1.0, 0.0, False

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scaling, "_minimize_temperature", record)
        fit(*args)
    return seen[0]


class TestPrecomputedRowMax:
    """Temperature paths shift by rowmax / t from the raw logits' row max,
    and the NLL and Brier objectives skip the public ProbabilitySet; all of
    it must equal the public path bit for bit."""

    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 300),
        k=st.integers(2, 5),
        scaled_row=st.booleans(),
    )
    def test_objectives_equal_the_public_metrics(self, seed, n, k, scaled_row):
        rng = np.random.default_rng(seed)
        logits = random_logits(rng, n, k)
        if scaled_row:
            logits[0] *= 300.0  # a row far from zero exercises the max shift
        labels = rng.integers(0, k, size=n)
        w = rng.lognormal(0.0, 1.0, size=n)
        nll_objective = search_objective(fit_temperature_nll, logits, labels)
        cpcs_objective = search_objective(fit_cpcs_temperature, logits, labels, w)
        for t in (T_MIN, 0.37, 1.0, 2.7, T_MAX):
            probs = softmax_with_temperature(logits, t)
            z, sums = _softmax_terms(logits / t)
            assert np.array_equal(probs.probs, z / sums)
            assert nll_objective(np.array([t]))[0] == nll(probs, labels)
            brier_rows = _brier_rows(probs.probs.copy(), labels)
            assert cpcs_objective(np.array([t]))[0] == float(np.dot(w, brier_rows)) / float(w.sum())


def temperature_batch(rng, size):
    """``size`` log-uniform temperatures in [T_MIN, T_MAX], the bounds included."""
    t = np.exp(rng.uniform(math.log(T_MIN), math.log(T_MAX), size))
    t[0], t[-1] = T_MIN, T_MAX
    return t


def nll_and_brier_objectives(seed, n, k):
    """The objectives ``temp`` and ``cpcs`` hand the engine on a generated task."""
    rng = np.random.default_rng(seed)
    logits = random_logits(rng, n, k)
    logits[0] *= 300.0
    labels = rng.integers(0, k, size=n)
    w = rng.lognormal(0.0, 1.0, size=n)
    return (
        search_objective(fit_temperature_nll, logits, labels),
        search_objective(fit_cpcs_temperature, logits, labels, w),
    )


class TestBatchedGrid:
    """The engine evaluates the grid in batches of temperatures. A batch
    must give every temperature's one-at-a-time value bit for bit, and the
    search result must not depend on the batch size."""

    @settings(derandomize=True, max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 300),
        k=st.integers(2, 10),
        size=st.sampled_from((2, 7, 50)),
    )
    def test_a_batch_equals_one_temperature_at_a_time(self, seed, n, k, size):
        t = temperature_batch(np.random.default_rng(seed), size)
        for objective in nll_and_brier_objectives(seed, n, k):
            want = np.array([objective(t[i : i + 1])[0] for i in range(size)])
            assert np.array_equal(objective(t), want)

    @settings(derandomize=True, max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 300), k=st.integers(2, 10))
    def test_the_search_does_not_depend_on_the_batch(self, seed, n, k):
        for objective in nll_and_brier_objectives(seed, n, k):
            one = _minimize_temperature(objective, 1)
            for batch in (3, 7, 50):
                assert _minimize_temperature(objective, batch) == one


class TestTemperatureParam:
    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            TemperatureParam(t=0.0)
        with pytest.raises(ValueError):
            TemperatureParam(t=math.nan)


class TestFitTemperature:
    def test_never_above_any_grid_point(self):
        rng = np.random.default_rng(7)
        logits = random_logits(rng, 300, 3)
        labels = rng.integers(0, 3, size=300)
        param = fit_temperature_nll(logits, labels)

        def objective(t):
            return nll(softmax_with_temperature(logits, t), labels)

        grid = np.exp(np.linspace(math.log(T_MIN), math.log(T_MAX), _GRID_SIZE))
        best_grid = min(objective(t) for t in grid)
        assert objective(param.t) <= best_grid

    def test_recovers_distortion_on_sampled_labels(self):
        # labels drawn from softmax(logits / 2), so T near 2 minimizes NLL
        rng = np.random.default_rng(11)
        logits = random_logits(rng, 6000, 4, scale=2.0)
        probs = softmax_with_temperature(logits, 2.0).probs
        cum = np.cumsum(probs, axis=1)
        cum[:, -1] = 1.0
        labels = (rng.random(6000)[:, None] < cum).argmax(axis=1)
        param = fit_temperature_nll(logits, labels)
        assert 1.7 < param.t < 2.3
        assert not param.degenerate

    def test_improves_or_matches_unit_temperature(self):
        rng = np.random.default_rng(13)
        logits = random_logits(rng, 400, 5)
        labels = rng.integers(0, 5, size=400)
        param = fit_temperature_nll(logits, labels)
        before = nll(softmax_with_temperature(logits, 1.0), labels)
        after = nll(softmax_with_temperature(logits, param.t), labels)
        assert after <= before

    def test_degenerate_constant_input(self):
        logits = np.tile(np.array([[0.3, -0.1]]), (10, 1))
        labels = np.zeros(10, dtype=int)
        param = fit_temperature_nll(logits, labels)
        assert param.degenerate
        assert param.t == T_MAX

    def test_oracle_is_same_fit_on_given_split(self):
        rng = np.random.default_rng(17)
        logits = random_logits(rng, 200, 3)
        labels = rng.integers(0, 3, size=200)
        a = fit_temperature_nll(logits, labels)
        b = fit_oracle_temperature(logits, labels)
        assert a.t == b.t
        assert a.degenerate == b.degenerate


class TestCpcs:
    def test_unit_weights_match_unweighted_brier_search(self):
        rng = np.random.default_rng(19)
        logits = random_logits(rng, 500, 3)
        labels = rng.integers(0, 3, size=500)
        w = np.ones(500)
        param = fit_cpcs_temperature(logits, labels, w)

        def objective(t):
            return brier(softmax_with_temperature(logits, t), labels)

        grid = np.exp(np.linspace(math.log(T_MIN), math.log(T_MAX), _GRID_SIZE))
        assert objective(param.t) <= min(objective(t) for t in grid) + 1e-12

    def test_accepts_weight_vector_and_array_identically(self):
        rng = np.random.default_rng(23)
        logits = random_logits(rng, 300, 4)
        labels = rng.integers(0, 4, size=300)
        w = rng.random(300) + 0.2
        a = fit_cpcs_temperature(logits, labels, w)
        b = fit_cpcs_temperature(logits, labels, w.tolist())
        assert a.t == b.t

    def test_weights_steer_the_fit(self):
        # two halves distorted by different temperatures; weighting one half
        # pulls the fitted temperature toward that half's optimum
        rng = np.random.default_rng(29)
        base = random_logits(rng, 4000, 3, scale=2.0)
        logits = np.vstack([base[:2000] * 3.0, base[2000:] * 0.5])
        probs = np.exp(base - np.log(np.exp(base).sum(axis=1, keepdims=True)))
        cum = np.cumsum(probs, axis=1)
        cum[:, -1] = 1.0
        labels = (rng.random(4000)[:, None] < cum).argmax(axis=1)
        w_first = np.concatenate([np.ones(2000) * 50.0, np.ones(2000) * 0.02])
        w_second = np.concatenate([np.ones(2000) * 0.02, np.ones(2000) * 50.0])
        t_first = fit_cpcs_temperature(logits, labels, w_first).t
        t_second = fit_cpcs_temperature(logits, labels, w_second).t
        assert t_first > t_second

    def test_rejects_bad_weights(self):
        logits = np.array([[1.0, 0.0], [0.0, 1.0]])
        labels = np.array([0, 1])
        with pytest.raises(ValueError):
            fit_cpcs_temperature(logits, labels, np.array([1.0, -1.0]))
        with pytest.raises(DegeneracyError):
            fit_cpcs_temperature(logits, labels, np.zeros(2))


class TestTemperatureFitsValidateLabels:
    # numpy would read a -1 label as the last class; tied logits take the
    # fit's early-return path, which must validate too
    BAD_LABELS = {
        "negative": np.full(4, -1),
        "equal_to_k": np.full(4, 2),
        "one_short": np.zeros(3, dtype=int),
    }

    @pytest.mark.parametrize("case", sorted(BAD_LABELS))
    def test_cpcs_rejects_bad_labels(self, case):
        logits = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 0.5], [0.3, 0.1]])
        with pytest.raises(ValueError):
            fit_cpcs_temperature(logits, self.BAD_LABELS[case], np.ones(4))

    @pytest.mark.parametrize("case", sorted(BAD_LABELS))
    def test_nll_rejects_bad_labels_on_tied_logits(self, case):
        logits = np.tile(np.array([[0.3, -0.1]]), (4, 1))
        with pytest.raises(ValueError):
            fit_temperature_nll(logits, self.BAD_LABELS[case])


class TestAffineScaling:
    def test_vector_identity_when_already_calibrated(self):
        # labels drawn from the softmax itself leave little to improve
        rng = np.random.default_rng(31)
        logits = random_logits(rng, 3000, 3, scale=1.5)
        probs = np.exp(logits - np.log(np.exp(logits).sum(axis=1, keepdims=True)))
        cum = np.cumsum(probs, axis=1)
        cum[:, -1] = 1.0
        labels = (rng.random(3000)[:, None] < cum).argmax(axis=1)
        param = fit_vector_scaling(logits, labels)
        assert param.kind == "vector"
        assert param.final_loss <= param.initial_loss
        assert np.all(np.abs(param.scale - 1.0) < 0.2)

    def test_vector_loss_decreases_on_miscalibrated_input(self):
        rng = np.random.default_rng(37)
        logits = random_logits(rng, 2000, 4, scale=2.0)
        probs = softmax_with_temperature(logits, 2.5).probs
        cum = np.cumsum(probs, axis=1)
        cum[:, -1] = 1.0
        labels = (rng.random(2000)[:, None] < cum).argmax(axis=1)
        param = fit_vector_scaling(logits, labels)
        assert param.final_loss < param.initial_loss

    def test_matrix_shapes_and_improvement(self):
        rng = np.random.default_rng(41)
        logits = random_logits(rng, 1500, 3, scale=2.0)
        labels = rng.integers(0, 3, size=1500)
        param = fit_matrix_scaling(logits, labels)
        assert param.kind == "matrix"
        assert param.scale.shape == (3, 3)
        assert param.bias.shape == (3,)
        assert param.final_loss <= param.initial_loss

    @pytest.mark.parametrize("fit", [fit_vector_scaling, fit_matrix_scaling], ids=["vector", "matrix"])
    def test_k10_fits_converge_to_a_stationary_point(self, fit):
        scenario = ShiftScenario.axis_aligned(10, 10, spacing=2.0, shift_magnitude=1.0, distortion_temperature=2.0)
        task = generate(scenario, 5000, 500, 3, 0.2)
        logits, labels = task.source_val_logits, task.source_val_labels
        assert logits.shape == (1000, 10)
        param = fit(logits, labels)
        assert param.converged
        # gradient of the mean NLL in (scale, bias), from a plain log-softmax
        z = logits * param.scale + param.bias if param.kind == "vector" else logits @ param.scale.T + param.bias
        p = np.exp(z - z.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        p[np.arange(len(labels)), labels] -= 1.0
        p /= len(labels)
        grad_scale = (p * logits).sum(axis=0) if param.kind == "vector" else p.T @ logits
        assert max(np.abs(grad_scale).max(), np.abs(p.sum(axis=0)).max()) < 5e-4

    def test_apply_uses_transformed_logits_for_predictions(self):
        # a sign flip in the vector scale reverses the ranking
        param_type = fit_vector_scaling(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([0, 1]))
        flipped = type(param_type)(
            scale=np.array([-1.0, 1.0]),
            bias=np.zeros(2),
            kind="vector",
        )
        out = apply_affine_scaling(np.array([[3.0, 1.0]]), flipped)
        assert out.predictions.tolist() == [1]

    def test_matrix_apply_matches_manual_transform(self):
        param = fit_vector_scaling(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([0, 1]))
        logits = np.array([[0.5, -0.5], [2.0, 1.0]])
        out = apply_affine_scaling(logits, param)
        manual = logits * param.scale + param.bias
        expected = np.exp(manual - np.log(np.exp(manual).sum(axis=1, keepdims=True)))
        assert np.allclose(out.probs, expected, atol=1e-12)

    def test_rejects_mismatched_labels(self):
        with pytest.raises(ValueError):
            fit_vector_scaling(np.array([[1.0, 0.0]]), np.array([2]))


class TestDegeneracySignaling:
    def test_affine_overflow_raises_degeneracy(self):
        # gigantic logits overflow the softmax cross-entropy immediately
        logits = np.full((4, 2), 1e308)
        logits[:, 1] = -1e308
        labels = np.array([1, 1, 1, 1])
        with pytest.raises((DegeneracyError, ValueError)):
            fit_vector_scaling(logits, labels)
