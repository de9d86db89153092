import math
import tracemalloc
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

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
from shiftcal import metrics, scaling
from shiftcal.bench import default_grid
from shiftcal.metrics import _BATCH_ELEMENTS, ROW_SUM_TOL, _brier_rows
from shiftcal.newton import GRADIENT_TOLERANCE
from shiftcal.scaling import (
    SEARCH_TOL,
    T_MAX,
    T_MIN,
    TemperatureParam,
    _temperature,
)
from shiftcal.transcal import _GRID_SIZE, EstimatorMode, TransCalState, _minimize_temperature, _split

from oracles import kish_ess


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

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        logits=arrays(
            np.float64,
            st.tuples(st.integers(2, 20), st.integers(2, 6)),
            elements=st.floats(-1e308, 1e308) | st.sampled_from((-1e308, 1e308)),
        ),
        t=st.floats(T_MIN, T_MAX),
    )
    def test_rows_stay_finite_for_logits_up_to_float_max(self, logits, t):
        """Logit ranges that overflow float64 still give finite rows summing to 1,
        and the transcal fit's confidences are the public ones, bit for bit."""
        p = softmax_with_temperature(logits, t)
        assert np.all(np.isfinite(p.probs))
        assert np.max(np.abs(p.probs.sum(axis=1) - 1.0)) <= ROW_SUM_TOL
        n = logits.shape[0]
        state = TransCalState(*_split(logits, np.zeros(n, dtype=int), np.ones(n), 15))
        assert np.array_equal(state.confidences(np.array([t]))[0], p.confidences)


def weighted_brier(logits, labels, w, t):
    """The public weighted Brier score sum(w_i * bs_i) / sum(w_i) at temperature t."""
    rows = _brier_rows(softmax_with_temperature(logits, t).probs.copy(), labels)
    return float(np.dot(w, rows)) / float(w.sum())


def cpcs_scores(logits, labels, w):
    """Every (t, value) pair ``cpcs`` scores in one fit, or None after checking
    that weights with a Kish effective sample size below 2 raise instead of
    reaching a score."""
    if kish_ess(w) < 2.0:
        with pytest.raises(DegeneracyError, match="Kish effective sample size"):
            fit_cpcs_temperature(logits, labels, w)
        return None
    seen = []
    scores = scaling._weighted_brier

    def record(shifted, labels, weights, t):
        values = scores(shifted, labels, weights, t)
        seen.extend(zip(t.tolist(), values.tolist()))
        return values

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(scaling, "_weighted_brier", record)
        fit_cpcs_temperature(logits, labels, w)
    return seen


class TestPrecomputedRowMax:
    """Temperature paths divide the logits minus their row max, computed once
    per fit, by t, and the Brier scan skips the public ProbabilitySet;
    all of it must equal the public path bit for bit."""

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
        scored = cpcs_scores(logits, labels, w)
        for t in (T_MIN, 0.37, 1.0, 2.7, T_MAX):
            probs = softmax_with_temperature(logits, t)
            # the standard max-shift softmax: shift by the row max, then scale
            z = np.exp((logits - logits.max(axis=1, keepdims=True)) / t)
            assert np.array_equal(probs.probs, z / z.sum(axis=1, keepdims=True))
            want = weighted_brier(logits, labels, w, t)
            assert scaling._weighted_brier(scaling._shifted(logits), labels, w, np.array([t]))[0] == want
        if scored is not None:
            # the scan's 12 grid points, then at least one refined root
            assert len(scored) > 12
            for t, value in scored:
                assert value == weighted_brier(logits, labels, w, t)


def temperature_batch(rng, size):
    """``size`` log-uniform temperatures in [T_MIN, T_MAX], the bounds included."""
    t = np.exp(rng.uniform(math.log(T_MIN), math.log(T_MAX), size))
    t[0], t[-1] = T_MIN, T_MAX
    return t


def transcal_objective_builder(seed, n, k):
    """A function building, on a generated task, the objective ``optimize_transcal``
    hands the engine, each time on a fresh state so that no value comes from
    another call's memo; None where the weights do not reach a Kish effective
    sample size of 2."""
    rng = np.random.default_rng(seed)
    logits = random_logits(rng, n, k)
    logits[0] *= 300.0
    labels = rng.integers(0, k, size=n)
    w = rng.lognormal(0.0, 1.0, size=n)
    if kish_ess(w) < 2.0:
        return None
    mode = (EstimatorMode.CV_SERIAL, EstimatorMode.PLAIN_IWECE)[seed % 2]

    def build():
        state = TransCalState(*_split(logits, labels, w, 15))
        return partial(state.scores, state.rule_lambda, mode)

    return build


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
        build = transcal_objective_builder(seed, n, k)
        if build is not None:
            want = np.array([build()(t[i : i + 1])[0] for i in range(size)])
            assert np.array_equal(build()(t), want)

    @settings(derandomize=True, max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 300), k=st.integers(2, 10))
    def test_the_search_does_not_depend_on_the_batch(self, seed, n, k):
        build = transcal_objective_builder(seed, n, k)
        if build is None:
            return
        searches = []
        for batch in (1, 3, 7, 50):
            with pytest.MonkeyPatch.context() as patch:
                # a footprint of one element per temperature makes the batch _BATCH_ELEMENTS
                patch.setattr(metrics, "_BATCH_ELEMENTS", batch)
                searches.append(_minimize_temperature(build(), 1))
        assert all(search == searches[0] for search in searches)


def sampled_task(seed, n, k, scale, t_true):
    """Gaussian logits times ``scale`` and labels drawn from softmax(logits / t_true)."""
    rng = np.random.default_rng(seed)
    logits = random_logits(rng, n, k, scale)
    cum = np.cumsum(softmax_with_temperature(logits, t_true).probs, axis=1)
    cum[:, -1] = 1.0
    return logits, (rng.random(n)[:, None] < cum).argmax(axis=1)


def public_nll(logits, labels, t):
    return nll(softmax_with_temperature(logits, t), labels)


def counted_passes(patch):
    """Count the passes the NLL fit makes over the rows from here on."""
    count = [0]
    derivatives = scaling._nll_derivatives

    def counting(*args):
        count[0] += 1
        return derivatives(*args)

    patch.setattr(scaling, "_nll_derivatives", counting)
    return count


class TestNllNewton:
    """``fit_temperature_nll`` solves for beta = 1 / t by safeguarded Newton
    steps on the slope of the mean NLL."""

    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 300),
        k=st.integers(2, 6),
        beta=st.sampled_from((0.05, 0.4, 1.0, 1.7)),
    )
    def test_derivatives_match_the_public_nll(self, seed, n, k, beta):
        """The pass's slope is the central difference of the public mean NLL
        in beta, and its curvature mean Var_p(L) under the public softmax."""
        logits, labels = sampled_task(seed, n, k, 2.0, 1.0)
        rows = np.arange(n)
        shifted = logits - logits.max(axis=1, keepdims=True)
        slope, curvature = scaling._nll_derivatives(shifted, shifted[rows, labels], beta)
        probs = softmax_with_temperature(logits, 1.0 / beta).probs
        # the public NLL clamps tiny probabilities, where it is no longer the NLL being solved
        assert probs[rows, labels].min() > 1e-9
        h = 1e-5 * beta

        def mean_nll(b):
            return public_nll(logits, labels, 1.0 / b) / n

        difference = (mean_nll(beta + h) - mean_nll(beta - h)) / (2.0 * h)
        assert abs(slope - difference) <= 1e-7 * (1.0 + abs(slope))
        centred = logits - (probs * logits).sum(axis=1, keepdims=True)
        variance = float((probs * centred * centred).sum(axis=1).mean())
        assert abs(curvature - variance) <= 1e-10 * variance

    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 300),
        k=st.integers(2, 6),
        scale=st.floats(0.1, 5.0),
        t_true=st.floats(0.2, 10.0),
    )
    def test_matches_the_grid_search_on_the_public_nll(self, seed, n, k, scale, t_true):
        """The fit lands within SEARCH_TOL of the engine's search on the public
        NLL, never above its NLL, with the same bound flag."""
        logits, labels = sampled_task(seed, n, k, scale, t_true)
        param = fit_temperature_nll(logits, labels)

        def objective(t):
            return np.array([public_nll(logits, labels, ti) for ti in t])

        search = _minimize_temperature(objective, 1)
        assert abs(param.t - search.t) <= SEARCH_TOL
        reference = public_nll(logits, labels, search.t)
        assert public_nll(logits, labels, param.t) <= reference + 1e-12 * reference
        assert param.degenerate == _temperature(search.t).degenerate

    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(50, 300),
        k=st.integers(2, 6),
        scale=st.floats(0.5, 3.0),
        t_true=st.floats(0.5, 5.0),
    )
    def test_is_equivariant_to_logit_scale(self, seed, n, k, scale, t_true):
        """fit(c * L) = c * fit(L) wherever both minima lie inside the bounds."""
        logits, labels = sampled_task(seed, n, k, scale, t_true)
        base = fit_temperature_nll(logits, labels)
        for c in (2.0**-3, 1.37, 2.0, 3.0):
            if base.degenerate or not T_MIN < c * base.t < T_MAX:
                continue
            scaled = fit_temperature_nll(c * logits, labels)
            assert not scaled.degenerate
            assert abs(scaled.t - c * base.t) <= 1e-6 * c * base.t

    @pytest.mark.parametrize(
        "case, t",
        [("all_correct", T_MIN), ("all_wrong", T_MAX), ("tied_rows", T_MIN), ("tied_rows_one_label", T_MIN)],
    )
    def test_minima_beyond_a_bound_return_it_flagged(self, case, t):
        """All-correct labels make the NLL fall without end as t shrinks,
        labels at every row's smallest logit as t grows, and rows of tied
        logits make it flat: a search preferring the smaller of tied
        temperatures gives T_MIN. None may return a silent interior t."""
        rng = np.random.default_rng(23)
        logits = random_logits(rng, 200, 4)
        labels = {"all_correct": logits.argmax(axis=1), "all_wrong": logits.argmin(axis=1)}.get(case)
        if case.startswith("tied_rows"):
            logits = np.repeat(logits[:, :1], 4, axis=1)
            labels = np.zeros(200, dtype=int) if case == "tied_rows_one_label" else rng.integers(0, 4, size=200)
        with pytest.MonkeyPatch.context() as patch:
            passes = counted_passes(patch)
            param = fit_temperature_nll(logits, labels)
        assert (param.t, param.degenerate) == (t, True)
        assert passes[0] <= 4

    def test_an_overflowing_slope_gives_t_max_without_a_warning(self):
        """Two misclassified rows [1e308, -1e308, 0] labelled 1 put their label
        logit float max below the row max, so the slope's row sum overflows
        to +inf at every beta: the minimum lies beyond T_MAX."""
        rng = np.random.default_rng(29)
        logits = np.vstack([random_logits(rng, 200, 3), [[1e308, -1e308, 0.0]] * 2])
        labels = np.r_[rng.integers(0, 3, size=200), 1, 1]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert fit_temperature_nll(logits, labels) == TemperatureParam(100.0, degenerate=True)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 400),
        k=st.integers(2, 8),
        scale=st.floats(0.05, 30.0),
        t_true=st.floats(0.1, 20.0),
    )
    def test_passes_are_bounded(self, seed, n, k, scale, t_true):
        with pytest.MonkeyPatch.context() as patch:
            passes = counted_passes(patch)
            fit_temperature_nll(*sampled_task(seed, n, k, scale, t_true))
        assert passes[0] <= 12

    @pytest.mark.parametrize("cell", range(0, 24, 5))
    def test_sweep_splits_take_few_passes(self, cell):
        """``temp`` and ``oracle`` on default-grid tasks of 2000 rows per split."""
        _, scenario = default_grid()[cell]
        task = generate(scenario, 2000, 2000, cell, 0.5)
        for logits, labels in (
            (task.source_val_logits, task.source_val_labels),
            (task.target_logits, task.target_labels),
        ):
            with pytest.MonkeyPatch.context() as patch:
                passes = counted_passes(patch)
                param = fit_temperature_nll(logits, labels)
            assert not param.degenerate
            assert passes[0] <= 10


class TestSearchRecord:
    """``_minimize_temperature`` reports what it did: every (t, value) pair it
    evaluated, in order, and a best pair it picked from them."""

    @pytest.mark.parametrize("nan_at", [None, 0, 10])
    @pytest.mark.parametrize("footprint", [1, 2**15 // 7, 2**15])
    @pytest.mark.parametrize("step", [0.0, 0.05, 1.0])
    def test_the_record_is_what_the_objective_saw(self, step, footprint, nan_at):
        """On a quantized parabola in log t with its minimum at t = 2, ties
        everywhere when ``step`` > 0, and a NaN at grid point ``nan_at``:
        the value is the least non-NaN one seen, at the smallest t among
        ties, and ``refined`` says whether it is below every grid value,
        which no value is below a NaN one."""
        seen = []
        grid = np.exp(np.linspace(math.log(T_MIN), math.log(T_MAX), _GRID_SIZE))

        def objective(t):
            v = (np.log(t) - math.log(2.0)) ** 2
            if step:
                v = np.floor(v / step) * step
            if nan_at is not None:
                v[t == grid[nan_at]] = math.nan
            seen.extend(zip(t.tolist(), v.tolist()))
            return v

        search = _minimize_temperature(objective, footprint)
        assert np.array_equal(search.evaluations, seen, equal_nan=True)  # NaN != NaN in a list
        assert [i for i, (_, v) in enumerate(seen) if math.isnan(v)] == [nan_at] * (nan_at is not None)
        finite = [(v, t) for t, v in seen if not math.isnan(v)]
        assert (search.value, search.t) == min(finite)
        assert search.refined == all(search.value < v for _, v in seen[:_GRID_SIZE])
        assert search.refined == (step == 0.0 and nan_at is None)
        assert _temperature(search.t).degenerate is False
        assert 50 < len(seen) <= 79


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
        """Identical rows, all predicted right: the NLL falls as t falls, so the
        minimum lies beyond T_MIN."""
        logits = np.tile(np.array([[0.3, -0.1]]), (10, 1))
        labels = np.zeros(10, dtype=int)
        param = fit_temperature_nll(logits, labels)
        assert param.degenerate
        assert param.t == T_MIN

    @pytest.mark.parametrize(
        "logits, labels, bound",
        [
            ([[0.3, -0.1]], [0], T_MIN),  # one row, predicted right
            ([[0.3, -0.1]], [1], T_MAX),  # one row, predicted wrong
            ([[0.2, 0.2, 0.2]] * 4, [2] * 4, T_MIN),  # tied logits, one label: a flat NLL
        ],
    )
    def test_a_minimum_beyond_a_bound_returns_that_bound(self, logits, labels, bound):
        param = fit_temperature_nll(np.array(logits), np.array(labels))
        assert param == TemperatureParam(t=bound, degenerate=True)

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

    def test_weights_on_fewer_than_two_samples_raise(self):
        # sum and sum of squares stay finite, but one weight carries the fit:
        # Kish ESS (sum w)^2 / sum w^2 is about 1
        rng = np.random.default_rng(31)
        logits = random_logits(rng, 120, 3)
        labels = rng.integers(0, 3, size=120)
        w = np.ones(120)
        w[0] = 1e100
        with pytest.raises(DegeneracyError, match="Kish effective sample size 1"):
            fit_cpcs_temperature(logits, labels, w)
        # two equal weights are two samples
        w = np.zeros(120)
        w[:2] = 1.0
        assert fit_cpcs_temperature(logits, labels, w).t > 0.0


def multimodal_task(seed):
    """A small random weighted task; on some seeds the weighted Brier score has
    two or three local minima in t."""
    rng = np.random.default_rng(seed)
    n = rng.integers(10, 300)
    k = rng.integers(2, 6)
    logits = rng.standard_normal((n, k)) * rng.uniform(0.5, 4.0)
    if seed % 3 == 0:
        labels = rng.integers(0, k, n)
    else:
        cum = np.cumsum(softmax_with_temperature(logits, rng.uniform(0.3, 3.0)).probs, axis=1)
        cum[:, -1] = 1.0
        labels = (rng.random(n)[:, None] < cum).argmax(axis=1)
    return logits, labels, rng.lognormal(0.0, rng.choice([0.5, 1.0, 2.0]), n)


class TestCpcsSolve:
    """``fit_cpcs_temperature`` scans a log grid, then solves for beta = 1 / t
    around every local minimum of the scan with the NLL fit's Newton solve."""

    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 300),
        k=st.integers(2, 6),
        beta=st.sampled_from((0.05, 0.4, 1.0, 1.7)),
    )
    def test_derivatives_match_the_public_weighted_brier(self, seed, n, k, beta):
        """The pass's slope and curvature are the central first and second
        differences of the public weighted Brier score in beta."""
        logits, labels = sampled_task(seed, n, k, 2.0, 1.0)
        w = np.random.default_rng(seed).lognormal(0.0, 1.0, size=n)
        shifted = logits - logits.max(axis=1, keepdims=True)
        slope, curvature = scaling._brier_derivatives(shifted, labels, w / w.sum(), beta)

        def score(b):
            return weighted_brier(logits, labels, w, 1.0 / b)

        h = 1e-5 * beta
        difference = (score(beta + h) - score(beta - h)) / (2.0 * h)
        assert abs(slope - difference) <= 1e-8 * (1.0 + abs(slope))
        h = 1e-3 * beta
        second = (score(beta + h) - 2.0 * score(beta) + score(beta - h)) / (h * h)
        assert abs(curvature - second) <= 1e-5 * (1.0 + abs(curvature))

    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(50, 300),
        k=st.integers(2, 6),
        scale=st.floats(0.5, 3.0),
        t_true=st.floats(0.5, 5.0),
        sigma=st.sampled_from((0.0, 0.5, 1.0)),
    )
    def test_is_equivariant_to_logit_scale(self, seed, n, k, scale, t_true, sigma):
        """fit(c * L) = c * fit(L) wherever both minima lie inside the bounds."""
        logits, labels = sampled_task(seed, n, k, scale, t_true)
        w = np.random.default_rng(seed).lognormal(0.0, sigma, size=n)
        base = fit_cpcs_temperature(logits, labels, w)
        for c in (2.0**-3, 1.37, 2.0, 3.0):
            if base.degenerate or not T_MIN < c * base.t < T_MAX:
                continue
            scaled = fit_cpcs_temperature(c * logits, labels, w)
            assert not scaled.degenerate
            assert abs(scaled.t - c * base.t) <= 1e-6 * c * base.t

    @pytest.mark.parametrize("seed", [385, 520, 601, 1812, 2937])
    def test_several_minima_give_the_best_one(self, seed):
        """On tasks with two or three local minima the fit is never above the
        best point of a 50-point log grid: a solve from beta = 1 alone lands
        on a worse minimum on each of them."""
        logits, labels, w = multimodal_task(seed)
        param = fit_cpcs_temperature(logits, labels, w)
        grid = np.exp(np.linspace(math.log(T_MIN), math.log(T_MAX), _GRID_SIZE))
        best = min(weighted_brier(logits, labels, w, t) for t in grid)
        assert weighted_brier(logits, labels, w, param.t) <= best + 1e-12
        derivatives = partial(scaling._brier_derivatives, scaling._shifted(logits), labels, w / w.sum())
        alone = 1.0 / scaling._solve_beta(derivatives, 1.0 / T_MAX, 1.0 / T_MIN, 1.0)
        assert weighted_brier(logits, labels, w, param.t) < weighted_brier(logits, labels, w, alone)

    @pytest.mark.parametrize("label", [1, 2])
    def test_a_row_whose_logit_range_overflows_fits_without_a_warning(self, label):
        """A misclassified row [1e308, -1e308, 0] puts its label logit up to float
        max below the row max, where d_y^2 overflows; its softmax is [1, 0, 0]
        at every t, so it adds nothing to the slope and the fit stays put."""
        rng = np.random.default_rng(37)
        logits, labels = sampled_task(37, 300, 3, 2.0, 1.5)
        w = rng.lognormal(0.0, 0.5, size=300)
        base = fit_cpcs_temperature(logits, labels, w)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            param = fit_cpcs_temperature(
                np.vstack([logits, [1e308, -1e308, 0.0]]), np.r_[labels, label], np.r_[w, 1.0]
            )
        assert type(param.t) is float and type(param.degenerate) is bool
        assert not param.degenerate
        assert abs(param.t - base.t) <= 1e-6 * base.t

    def test_shares_the_nll_solve(self):
        """Both temperature fits run ``_solve_beta``: ``temp`` once, ``cpcs``
        once per local minimum of its scan."""
        calls = []
        solve = scaling._solve_beta

        def record(derivatives, lo, hi, beta):
            calls.append(derivatives.func.__name__)
            return solve(derivatives, lo, hi, beta)

        logits, labels = sampled_task(41, 300, 4, 2.0, 2.0)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(scaling, "_solve_beta", record)
            fit_temperature_nll(logits, labels)
            fit_cpcs_temperature(logits, labels, np.ones(300))
        assert calls == ["_nll_derivatives", "_brier_derivatives"]

    @pytest.mark.parametrize("cell", range(0, 24, 5))
    def test_sweep_splits_take_few_passes(self, cell):
        """``cpcs`` on default-grid tasks of 2000 rows per split, true weights."""
        _, scenario = default_grid()[cell]
        task = generate(scenario, 2000, 2000, cell, 0.5)
        passes = [0]
        derivatives = scaling._brier_derivatives

        def counting(*args):
            passes[0] += 1
            return derivatives(*args)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(scaling, "_brier_derivatives", counting)
            param = fit_cpcs_temperature(task.source_val_logits, task.source_val_labels, task.true_weights)
        assert not param.degenerate
        assert passes[0] <= 8


class TestBatchedScan:
    """The cpcs scan scores its temperatures in batches sized by the working-set
    budget; the batches must change no value and bound the stacked softmax."""

    def k10_split(self, n):
        scenario = ShiftScenario.axis_aligned(10, 10, spacing=2.0, shift_magnitude=1.0, distortion_temperature=2.0)
        task = generate(scenario, 2 * n, 10, 3, 0.5)
        return task.source_val_logits, task.source_val_labels, task.true_weights

    def test_batches_equal_one_temperature_at_a_time(self):
        logits, labels, w = self.k10_split(3000)
        shifted = scaling._shifted(logits)
        grid = np.geomspace(T_MIN, T_MAX, scaling._SCAN_SIZE)
        batch = _BATCH_ELEMENTS // logits.size
        assert 1 < batch < grid.size  # the budget splits this scan
        stacks = []
        softmax_terms = scaling._softmax_terms

        def record(z):
            stacks.append(z.shape[0])
            return softmax_terms(z)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(scaling, "_softmax_terms", record)
            values = scaling._weighted_brier(shifted, labels, w, grid)
        assert sum(stacks) == grid.size and len(stacks) == -(-grid.size // batch)
        assert max(stacks) * logits.size <= _BATCH_ELEMENTS
        alone = np.concatenate([scaling._weighted_brier(shifted, labels, w, grid[i : i + 1]) for i in range(grid.size)])
        assert np.array_equal(values, alone)

    @pytest.mark.parametrize("budget", [1, 2 * 300 * 4, 5 * 300 * 4 + 1])
    def test_any_budget_gives_the_same_fit(self, budget):
        rng = np.random.default_rng(7)
        logits, labels = sampled_task(7, 300, 4, 2.0, 1.5)
        w = rng.lognormal(0.0, 1.0, size=300)
        want = fit_cpcs_temperature(logits, labels, w)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(metrics, "_BATCH_ELEMENTS", budget)
            assert fit_cpcs_temperature(logits, labels, w) == want

    def test_fit_memory_stays_below_the_unbatched_scan(self):
        """At K = 10, n = 3000 one (12, n, K) scan stack would hold 2.9 MB."""
        logits, labels, w = self.k10_split(3000)
        fit_cpcs_temperature(logits[:10], labels[:10], w[:10])
        tracemalloc.start()
        try:
            fit_cpcs_temperature(logits, labels, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < scaling._SCAN_SIZE * logits.size * 8


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


AFFINE_FITS = {"vector": fit_vector_scaling, "matrix": fit_matrix_scaling}


def affine_nll(logits, labels, scale, bias):
    """Mean NLL of softmax(scale o logits + bias) from a plain log-softmax."""
    z = logits * scale + bias if scale.ndim == 1 else logits @ scale.T + bias
    z = z - z.max(axis=1, keepdims=True)
    log_p = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    return float(-log_p[np.arange(len(labels)), labels].mean())


def lbfgsb_reference(logits, labels, kind):
    """scipy's L-BFGS-B with its default options from the identity map: the affine fits' former solver."""
    from scipy.optimize import minimize

    n, k = logits.shape
    identity = np.ones(k) if kind == "vector" else np.eye(k)
    onehot = np.eye(k)[labels]

    def loss_and_grad(x):
        scale, bias = x[:-k].reshape(identity.shape), x[-k:]
        z = logits * scale + bias if kind == "vector" else logits @ scale.T + bias
        p = np.exp(z - z.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        d = (p - onehot) / n
        grad_scale = (d * logits).sum(axis=0) if kind == "vector" else d.T @ logits
        return affine_nll(logits, labels, scale, bias), np.concatenate([grad_scale.ravel(), d.sum(axis=0)])

    x0 = np.concatenate([identity.ravel(), np.zeros(k)])
    return minimize(loss_and_grad, x0, jac=True, method="L-BFGS-B")


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
        assert max(np.abs(grad_scale).max(), np.abs(p.sum(axis=0)).max()) < GRADIENT_TOLERANCE

    @pytest.mark.parametrize("kind", ["vector", "matrix"])
    @pytest.mark.parametrize("k", [3, 10])
    def test_final_loss_is_at_most_the_lbfgsb_reference(self, kind, k):
        scenario = ShiftScenario.axis_aligned(max(k, 4), k, spacing=2.0, shift_magnitude=1.0, distortion_temperature=2.0)
        task = generate(scenario, 5000, 500, 3, 0.2)
        logits, labels = task.source_val_logits, task.source_val_labels
        param = AFFINE_FITS[kind](logits, labels)
        reference = lbfgsb_reference(logits, labels, kind)
        ours = affine_nll(logits, labels, param.scale, param.bias)
        assert ours == pytest.approx(param.final_loss, rel=1e-12, abs=0.0)
        assert ours <= reference.fun

    def test_matrix_scaling_at_k65_stays_far_below_a_dense_hessian(self):
        # the K(K+1) = 4290 parameters would need a (K(K+1))**2 float64 Hessian: 147 MB.
        # Features in 5 dimensions keep the 2000 rows' logits low-rank, so a minimizer
        # exists: full-rank logits with more parameters than rows are separable
        k = 65
        rng = np.random.default_rng(5)
        scenario = ShiftScenario(
            class_means=1.5 * rng.standard_normal((k, 5)), class_variance=1.0,
            shift=np.zeros(5), variance_scale=1.0, distortion_temperature=2.0,
        )
        task = generate(scenario, 10000, 10, 0, 0.2)
        assert task.source_val_logits.shape == (2000, k)
        tracemalloc.start()
        try:
            param = fit_matrix_scaling(task.source_val_logits, task.source_val_labels)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert param.converged
        assert param.final_loss < param.initial_loss
        assert peak < (k * (k + 1)) ** 2 * 8 / 10

    @pytest.mark.parametrize("kind", ["vector", "matrix"])
    def test_one_class_labels_have_no_minimizer(self, kind):
        logits = np.random.default_rng(0).standard_normal((200, 3))
        with pytest.raises(DegeneracyError, match=f"{kind} scaling has no minimizer: every label is class 2"):
            AFFINE_FITS[kind](logits, np.full(200, 2))

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
