import dataclasses
import itertools
import math
import re
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from shiftcal import (
    DegeneracyError,
    EstimatorMode,
    ShiftScenario,
    apply_control_variate,
    generate,
    optimize_transcal,
    renyi_diagnostic,
    serial_control_variate,
    softmax_with_temperature,
    transcal_objective,
)
from shiftcal import bench, metrics, transcal
from shiftcal.metrics import bin_indices
from shiftcal.scaling import T_MAX, T_MIN, _softmax_terms
from shiftcal.transcal import TransCalState, _minimize_temperature, _shared_state, _split

from oracles import kish_ess, objective_samples


def fresh(call, *args, **kwargs):
    """``call(*args, **kwargs)`` on an empty state slot, so that it scores every value it reads."""
    transcal._shared = None
    return call(*args, **kwargs)


def sampled_task(rng, n=300, k=4, t_true=2.0):
    """Logits plus labels drawn from their tempered softmax."""
    logits = rng.standard_normal((n, k)) * 2.0
    probs = softmax_with_temperature(logits, t_true).probs
    cum = np.cumsum(probs, axis=1)
    cum[:, -1] = 1.0
    labels = (rng.random(n)[:, None] < cum).argmax(axis=1)
    weights = rng.lognormal(0.0, 0.5, size=n)
    return logits, labels, weights


def normalized_power(weights, lam):
    """w^lam over its mean, formed as the package does: from w / max(w), with
    zero weights kept at zero for every lambda."""
    w = np.asarray(weights, dtype=np.float64)
    flat = np.power(w / w.max(), lam, where=w > 0.0, out=np.zeros(w.shape))
    return flat / flat.mean()


def oracle_u(logits, labels, weights, t, lam, bins=15):
    probs = softmax_with_temperature(logits, t)
    conf = probs.confidences
    correct = (probs.predictions == np.asarray(labels)).astype(np.float64)
    wl = normalized_power(weights, lam)
    return np.array(
        objective_samples(conf.tolist(), correct.tolist(), wl.tolist(), bins)
    ), wl, conf, correct


class TestApplyControlVariate:
    def test_pinned_exact_adjustment(self):
        u = np.array([1.0, 2.0, 3.0])
        t = np.array([1.0, 2.0, 3.0])
        estimate, adjusted, coeffs = apply_control_variate(u, t, 2.0)
        assert coeffs.eta == -1.0
        assert adjusted.tolist() == [2.0, 2.0, 2.0]
        assert estimate == 2.0
        assert coeffs.flags == ()

    def test_constant_variate_flagged_and_untouched(self):
        u = np.array([1.0, 5.0, 3.0])
        t = np.ones(3) * 4.0
        estimate, adjusted, coeffs = apply_control_variate(u, t, 4.0)
        assert estimate == u.mean()
        assert np.array_equal(adjusted, u)
        assert coeffs.flags == ("constant_variate",)
        assert coeffs.eta == 0.0

    def test_a_spread_at_rounding_level_counts_as_constant(self):
        """Samples one ulp apart have a variance at rounding level; eta = -Cov / Var
        would scale the rounding of mean(t) - tau by about 1 / sd(t)."""
        u = np.array([1.0, 5.0, 3.0, 2.0])
        t = np.array([4.0, np.nextafter(4.0, 5.0), 4.0, np.nextafter(4.0, 3.0)])
        estimate, adjusted, coeffs = apply_control_variate(u, t, 4.0 + 1e-15)
        assert estimate == u.mean()
        assert np.array_equal(adjusted, u)
        assert coeffs.flags == ("constant_variate",)
        assert coeffs.eta == coeffs.var_t == 0.0

    def test_a_rare_correctness_indicator_is_a_variate(self):
        """A 0/1 variate has a variance of at least about 1 / n, far above rounding."""
        n = 100_000
        t = np.zeros(n)
        t[7] = 1.0
        u = np.linspace(0.0, 1.0, n)
        _, _, coeffs = apply_control_variate(u, t, 0.5)
        assert coeffs.flags == ()
        assert coeffs.var_t == float(np.mean((t - t.mean()) ** 2))

    def test_never_increases_variance(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(3, 60))
            t = rng.standard_normal(n)
            u = 0.5 * t + rng.standard_normal(n)
            _, adjusted, _ = apply_control_variate(u, t, 0.0)
            assert np.var(adjusted) <= np.var(u) + 1e-12

    def test_fitted_coefficient_beats_random_ones(self):
        rng = np.random.default_rng(5)
        u = rng.standard_normal(50)
        t = u * 0.7 + rng.standard_normal(50) * 0.3
        _, adjusted, coeffs = apply_control_variate(u, t, 0.0)
        for _ in range(50):
            eta = rng.uniform(-3.0, 3.0)
            assert np.var(adjusted) <= np.var(u + eta * t)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            apply_control_variate(np.array([1.0]), np.array([1.0, 2.0]), 0.0)
        with pytest.raises(ValueError):
            apply_control_variate(np.array([np.nan]), np.array([1.0]), 0.0)
        with pytest.raises(ValueError):
            apply_control_variate(np.array([1.0]), np.array([1.0]), math.inf)


class TestSerialControlVariate:
    def test_pinned_two_stage_values(self):
        u = np.array([1.0, 2.0, 3.0, 4.0])
        w = np.array([1.0, 1.0, 2.0, 2.0])
        r = np.array([1.0, 0.0, 1.0, 0.0])
        estimate, (weight_stage, correctness_stage) = serial_control_variate(u, w, r, 0.5)
        assert weight_stage.eta == -2.0
        assert correctness_stage.eta == 1.0
        assert estimate == 1.5

    def test_constant_correctness_skips_stage_two(self):
        u = np.array([1.0, 2.0, 3.0, 4.0])
        w = np.array([1.0, 1.0, 2.0, 2.0])
        r = np.ones(4)
        estimate, (weight_stage, correctness_stage) = serial_control_variate(u, w, r, 0.9)
        stage1, _, _ = apply_control_variate(u, w, 1.0)
        assert estimate == stage1
        assert weight_stage.flags == ()
        assert correctness_stage.flags == ("constant_variate",)
        assert correctness_stage.eta == 0.0

    def test_accepts_weight_vector(self):
        u = np.array([1.0, 2.0, 3.0, 4.0])
        w = np.array([1.0, 1.0, 2.0, 2.0])
        r = np.array([1.0, 0.0, 1.0, 0.0])
        a, _ = serial_control_variate(u, w, r, 0.5)
        b, _ = serial_control_variate(u, w.tolist(), r, 0.5)
        assert a == b

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 300),
        sigma=st.one_of(st.just(0.0), st.floats(0.1, 3.0)),
        correctness=st.sampled_from(("varying", "all right", "all wrong")),
    )
    @example(seed=0, n=2, sigma=0.0, correctness="varying")
    def test_is_two_chained_single_stages(self, seed, n, sigma, correctness):
        """The estimator is ``apply_control_variate`` of the samples with the
        weights against 1, chained into ``apply_control_variate`` of the
        adjusted samples with correctness against tau, bit for bit. Constant
        correctness returns the stage-one estimate; sigma = 0 gives constant
        weights."""
        rng = np.random.default_rng(seed)
        w = rng.lognormal(0.0, sigma, size=n)
        u = w * rng.uniform(size=n)
        r = {
            "varying": (rng.random(n) < 0.7).astype(np.float64),
            "all right": np.ones(n),
            "all wrong": np.zeros(n),
        }[correctness]
        tau = float(rng.uniform(0.3, 1.0))
        estimate, stages = serial_control_variate(u, w, r, tau)
        stage_one, adjusted, weight_stage = apply_control_variate(u, w, 1.0)
        stage_two, _, correctness_stage = apply_control_variate(adjusted, r, tau)
        assert repr(stages) == repr((weight_stage, correctness_stage))
        constant = bool(np.all(r == r[0]))
        assert correctness_stage.flags == (("constant_variate",) if constant else ())
        assert weight_stage.flags == (("constant_variate",) if sigma == 0.0 else ())
        assert repr(estimate) == repr(stage_one if constant else stage_two)


class TestTranscalObjective:
    def test_plain_mode_matches_brute_force_samples(self):
        rng = np.random.default_rng(19)
        logits, labels, weights = sampled_task(rng, n=150)
        for t, lam in ((0.8, 1.0), (2.5, 0.4), (1.0, 0.0)):
            u, _, _, _ = oracle_u(logits, labels, weights, t, lam)
            got = transcal_objective(
                logits, labels, weights, t, lam, mode=EstimatorMode.PLAIN_IWECE
            )
            assert abs(got - u.mean()) < 1e-12

    def test_serial_mode_matches_the_correctness_correction(self):
        rng = np.random.default_rng(23)
        logits, labels, weights = sampled_task(rng, n=200)
        t, lam = 1.4, 0.6
        u, _, conf, correct = oracle_u(logits, labels, weights, t, lam)
        want, _, _ = apply_control_variate(u, correct, float(conf.mean()))
        got = transcal_objective(logits, labels, weights, t, lam, mode="cv_serial")
        assert abs(got - want) < 1e-12

    def test_lambda_zero_ignores_weights(self):
        rng = np.random.default_rng(31)
        logits, labels, weights = sampled_task(rng, n=120)
        got = transcal_objective(
            logits, labels, weights, 1.3, 0.0, mode=EstimatorMode.PLAIN_IWECE
        )
        unit = transcal_objective(
            logits, labels, np.ones_like(weights), 1.3, 1.0, mode=EstimatorMode.PLAIN_IWECE
        )
        assert got == unit

    def test_objective_confidences_match_the_public_softmax_bitwise(self):
        rng = np.random.default_rng(41)
        logits, labels, weights = sampled_task(rng, n=200, k=10)
        logits[0] *= 300.0  # a row far from zero exercises the max shift
        state = TransCalState(*_split(logits, labels, weights, 15))
        for t in (0.05, 0.37, 1.0, 2.7, 100.0):
            want = softmax_with_temperature(logits, t).confidences
            assert np.array_equal(state.confidences(np.array([t]))[0], want)

    def test_all_modes_run_and_are_finite(self):
        rng = np.random.default_rng(37)
        logits, labels, weights = sampled_task(rng, n=90)
        for mode in EstimatorMode:
            v = transcal_objective(logits, labels, weights, 1.1, 0.7, mode=mode)
            assert math.isfinite(v)

    def test_bins_of_zero_weight_samples_contribute_nothing(self):
        """A bin holding only zero-weight samples has no accuracy or confidence;
        its samples get u = 0, so the estimate stays finite (pinned values).
        Zero weights stay zero at lambda = 0 too."""
        rng = np.random.default_rng(1)
        logits, labels, weights = sampled_task(rng)
        weights[::2] = 0.0
        pinned = {
            (1.0, 1.0): 0.18722127949017237,
            (0.3, 0.5): 0.35434241742296935,
            (5.0, 0.0): 0.1813558430949718,
        }
        for (t, lam), want in pinned.items():
            idx = bin_indices(softmax_with_temperature(logits, t).confidences)
            mass = np.bincount(idx, weights=weights, minlength=15)
            assert np.any((np.bincount(idx, minlength=15) > 0) & (mass == 0.0))
            assert transcal_objective(logits, labels, weights, t, lam) == want

    @pytest.mark.parametrize(
        "weights, message",
        [
            (np.zeros(50), "importance weights are all zero"),
            (np.full(50, 1e307), "importance weights overflow"),
            (np.r_[1e100, np.ones(49)], "Kish effective sample size 1"),
        ],
        ids=["all_zero", "overflowing_sum", "one_huge_weight"],
    )
    def test_massless_weights_raise_like_the_search(self, weights, message):
        logits, labels, _ = sampled_task(np.random.default_rng(83), n=50, k=3)
        with pytest.raises(DegeneracyError, match=message):
            transcal_objective(logits, labels, weights, 1.0, 0.5)
        with pytest.raises(DegeneracyError, match=message):
            optimize_transcal(logits, labels, weights)

    def test_validation(self):
        logits = np.array([[1.0, 0.0], [0.0, 1.0]])
        labels = np.array([0, 1])
        w = np.ones(2)
        with pytest.raises(ValueError):
            transcal_objective(logits, labels, w, -1.0, 0.5)
        with pytest.raises(ValueError):
            transcal_objective(logits, labels, w, 1.0, 1.5)
        with pytest.raises(ValueError):
            transcal_objective(logits[:, :1], labels, w, 1.0, 0.5)

    def test_bins_and_weight_length_checked_like_the_metrics(self):
        logits = np.array([[1.0, 0.0], [0.0, 1.0], [2.0, 0.5]])
        labels = np.array([0, 1, 1])
        w = np.ones(3)
        fits = (
            lambda weights, bins: transcal_objective(logits, labels, weights, 1.0, 0.5, bins=bins),
            lambda weights, bins: optimize_transcal(logits, labels, weights, bins=bins),
        )
        for fit in fits:
            for bins in (2.5, 0, -1):
                with pytest.raises(ValueError, match="bins must be a positive integer"):
                    fit(w, bins)
            with pytest.raises(ValueError, match="weights must have length 3, got 2"):
                fit(np.ones(2), 15)


class TestOptimizeTranscal:
    def test_reported_value_is_exact_reevaluation(self):
        rng = np.random.default_rng(41)
        logits, labels, weights = sampled_task(rng, n=400)
        for mode in (EstimatorMode.CV_SERIAL, EstimatorMode.PLAIN_IWECE):
            sol = optimize_transcal(logits, labels, weights, mode=mode)
            again = transcal_objective(logits, labels, weights, sol.t_star.t, sol.lambda_star, mode=mode)
            assert again == sol.objective_value
            assert (sol.coefficients is None) == (mode is EstimatorMode.PLAIN_IWECE)

    def test_deterministic(self):
        rng = np.random.default_rng(43)
        logits, labels, weights = sampled_task(rng, n=250)
        a = optimize_transcal(logits, labels, weights)
        b = fresh(optimize_transcal, logits, labels, weights)
        assert a.t_star.t == b.t_star.t
        assert a.lambda_star == b.lambda_star
        assert a.objective_value == b.objective_value
        assert a.trace == b.trace

    def test_freeze_lambda_pins_lambda_at_one(self):
        rng = np.random.default_rng(47)
        logits, labels, weights = sampled_task(rng, n=200)
        sol = optimize_transcal(logits, labels, weights, freeze_lambda=True)
        state = _shared_state(logits, labels, weights, 15)
        assert sol.lambda_star == 1.0
        assert sol.diagnostics["freeze_lambda"] is True
        assert sol.diagnostics["grid_evaluations"] == 50
        # every traced temperature was scored at lambda = 1, and at no other lambda
        assert list(state.memo) == [1.0]
        assert set(state.memo[1.0]) == {t for t, _ in sol.trace}

    def test_grid_size_and_trace_budget(self):
        rng = np.random.default_rng(53)
        logits, labels, weights = sampled_task(rng, n=150)
        sol = optimize_transcal(logits, labels, weights)
        state = _shared_state(logits, labels, weights, 15)
        assert sol.diagnostics["grid_evaluations"] == 50
        assert len(sol.trace) == sol.diagnostics["total_evaluations"]
        # 50 grid points, two golden-section seeds and at most 27 steps (each
        # shrinks the log-t bracket by 1 / phi), at the fit's one lambda
        assert 50 < len(sol.trace) <= 79
        assert list(state.memo) == [sol.lambda_star]
        assert set(state.memo[sol.lambda_star]) == {t for t, _ in sol.trace}

    def test_frozen_lambda_is_the_shared_temperature_engine(self):
        rng = np.random.default_rng(67)
        logits, labels, weights = sampled_task(rng, n=300)
        for mode in EstimatorMode:
            sol = optimize_transcal(logits, labels, weights, mode=mode, freeze_lambda=True)
            want = _minimize_temperature(
                lambda ts: np.array(
                    [transcal_objective(logits, labels, weights, t, 1.0, mode=mode) for t in ts]
                ),
                1,
            ).t
            assert sol.t_star.t == want

    @pytest.mark.parametrize("zero_every_other", [False, True])
    @pytest.mark.parametrize("sigma", [0.0, 0.3, 0.8, 1.2, 2.0, 3.0])
    def test_lambda_star_is_the_largest_lambda_keeping_half_the_sample(self, sigma, zero_every_other):
        """Brute force of the rule: the largest lambda on the 11-point grid
        whose w^lambda, zero weights kept at zero, keeps a Kish ESS of at
        least m / 2, with m the count of nonzero weights, whatever the mode
        or temperature; the frozen fit keeps 1."""
        logits, labels, _ = sampled_task(np.random.default_rng(73), n=300)
        weights = np.random.default_rng(74).lognormal(0.0, sigma, size=300)
        if zero_every_other:
            weights[::2] = 0.0
        nonzero = weights > 0.0
        want = 0.0
        for lam in np.linspace(0.0, 1.0, 11).tolist():
            flat = np.power(weights[nonzero], lam)
            if flat.sum() ** 2 / np.dot(flat, flat) >= nonzero.sum() / 2:
                want = lam
        for mode in EstimatorMode:
            assert optimize_transcal(logits, labels, weights, mode=mode).lambda_star == want
            assert optimize_transcal(logits, labels, weights, mode, freeze_lambda=True).lambda_star == 1.0

    def test_lambda_rule_closed_forms(self):
        logits, labels, _ = sampled_task(np.random.default_rng(75), n=10)
        # unit weights keep ESS = n at every lambda
        assert optimize_transcal(logits, labels, np.ones(10)).lambda_star == 1.0
        # two of ten weights at 25: ESS(w) = 58^2 / 1258 = 2.67 and
        # ESS(w^0.6) = 4.60 fall below n / 2 = 5, ESS(w^0.5) = 18^2 / 58 = 5.59 does not
        weights = np.r_[25.0, 25.0, np.ones(8)]
        assert kish_ess(weights) < 5.0 <= kish_ess(np.sqrt(weights))
        assert optimize_transcal(logits, labels, weights).lambda_star == 0.5
        # half the weights 0 and the rest equal: ESS = m = n / 2 at every lambda
        assert optimize_transcal(logits, labels, np.r_[np.zeros(5), np.full(5, 3.0)]).lambda_star == 1.0

    def test_confidences_computed_once_per_temperature(self, monkeypatch):
        rng = np.random.default_rng(79)
        logits, labels, weights = sampled_task(rng, n=200)
        calls = []

        def counted(z):
            calls.append(z.shape[0])
            return _softmax_terms(z)

        monkeypatch.setattr(transcal, "_softmax_terms", counted)
        sol = optimize_transcal(logits, labels, weights)
        temperatures = {t for t, _ in sol.trace}
        # at most one pass per searched temperature, and each scored once;
        # t* is read from the memo, not scored again
        assert len(calls) <= len(temperatures)
        assert sum(calls) == len(temperatures)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("method", [name for name, m in bench.METHODS.items() if m.needs_weights] + ["temp"])
    def test_a_row_whose_logit_range_overflows_changes_nothing(self, method, seed):
        """A correctly predicted row [1e308, -1e308, 0] overflows L - rowmax. It
        has confidence 1 at every temperature, so its fit is bit for bit that
        of a merely large row [1e5, -1e5, 0], and within 1e-6 of the fit
        without it: the row adds 0 to the NLL slope and the Brier sum. For the
        transcal variants it also enters the correctness variate's mean, so
        there the agreement with the split without it is close, not exact."""
        logits, labels, weights = sampled_task(np.random.default_rng(seed), n=200, k=3)
        fit = bench.METHODS[method].fit

        def with_row(row):
            return np.vstack([logits, [row]]), np.r_[labels, 0], np.r_[weights, 1.0], 15

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = fit(*with_row([1e308, -1e308, 0.0]))
        assert repr(got) == repr(fit(*with_row([1e5, -1e5, 0.0])))
        without = fit(logits, labels, weights, 15)
        assert not got.describe()["degenerate"]
        assert abs(got.temperature - without.temperature) <= 1e-6 * without.temperature

    def test_constant_objective_breaks_ties_downward(self):
        # identical logit values give constant confidence 1/K and a zero
        # gap, so every temperature ties at zero and the first grid point
        # must win: the smallest temperature
        logits = np.zeros((6, 3))
        labels = np.array([0, 1, 2, 0, 1, 2])
        weights = np.ones(6)
        sol = optimize_transcal(logits, labels, weights)
        assert sol.objective_value == 0.0
        assert sol.lambda_star == 1.0
        assert np.isclose(sol.t_star.t, T_MIN, rtol=1e-12)
        assert sol.t_star.degenerate

    def test_solution_beats_or_ties_every_trace_entry(self):
        rng = np.random.default_rng(59)
        logits, labels, weights = sampled_task(rng, n=300)
        sol = optimize_transcal(logits, labels, weights)
        best_traced = min(v for _, v in sol.trace)
        assert sol.objective_value <= best_traced + 1e-12

    def test_diagnostics_payload(self):
        rng = np.random.default_rng(61)
        logits, labels, weights = sampled_task(rng, n=120)
        sol = optimize_transcal(logits, labels, weights)
        d = sol.diagnostics
        assert d["max_weight_raw"] == weights.max()
        assert set(d["renyi_raw"]) == {"0.5", "1.0", "2.0"}
        assert d["max_weight_transformed"] <= max(d["max_weight_raw"], 1.0) + 1e-12
        assert isinstance(d["refined"], bool)

    def test_flags_are_python_bools_when_the_grid_point_wins(self):
        # the K = 3 gen-synth task at seed 1 with its true weights: at 15 bins
        # without control variates no golden-section step beats the grid
        scenario = ShiftScenario.axis_aligned(
            dimension=4, num_classes=3, spacing=2.0, shift_magnitude=1.0, distortion_temperature=2.0
        )
        task = generate(scenario, 600, 400, 1)
        sol = optimize_transcal(
            task.source_val_logits, task.source_val_labels, task.true_weights, EstimatorMode.PLAIN_IWECE, 15
        )
        assert sol.diagnostics["refined"] is False
        assert type(sol.t_star.degenerate) is bool
        assert type(sol.diagnostics["refined"]) is bool

    def test_all_zero_weights_degenerate(self):
        logits = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        labels = np.array([0, 1, 0])
        with pytest.raises(DegeneracyError):
            optimize_transcal(logits, labels, np.zeros(3))


def generated_task(seed, n, k, zero_every_other, all_correct):
    """``sampled_task`` at a drawn size, optionally with half the weights 0 or every label right."""
    logits, labels, weights = sampled_task(np.random.default_rng(seed), n=n, k=k)
    if zero_every_other:
        weights[::2] = 0.0
    if all_correct:
        labels = np.argmax(logits, axis=1)
    return logits, labels, weights


def raises_below_two_samples(logits, labels, weights, **kwargs) -> bool:
    """Whether the weights' Kish ESS is below 2, after checking that the fit then raises."""
    if kish_ess(weights) >= 2.0:
        return False
    with pytest.raises(DegeneracyError, match="Kish effective sample size"):
        optimize_transcal(logits, labels, weights, **kwargs)
    return True


class TestOneLambdaPerPass:
    """A pass scores the fit's one lambda at a batch of temperatures; each
    value must be the explicit-lambda objective, bit for bit, and the
    sample-level estimate on self-normalized samples up to rounding. Draws
    whose weights rest on fewer than two samples (n = 2 or 3 with every
    other weight 0, or two unequal weights) must raise instead."""

    @settings(derandomize=True, max_examples=8, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 300),
        k=st.integers(2, 5),
        zero_every_other=st.booleans(),
        all_correct=st.booleans(),
        mode=st.sampled_from(EstimatorMode),
        bins=st.sampled_from((7, 15)),
    )
    @example(seed=1, n=300, k=4, zero_every_other=True, all_correct=False,
             mode=EstimatorMode.CV_SERIAL, bins=15)
    @example(seed=2, n=150, k=3, zero_every_other=False, all_correct=True,
             mode=EstimatorMode.CV_SERIAL, bins=15)
    @example(seed=3, n=200, k=5, zero_every_other=True, all_correct=False,
             mode=EstimatorMode.PLAIN_IWECE, bins=7)
    @example(seed=7, n=3, k=3, zero_every_other=True, all_correct=False,
             mode=EstimatorMode.CV_SERIAL, bins=15)
    def test_every_trace_value_is_the_explicit_lambda_objective(
        self, seed, n, k, zero_every_other, all_correct, mode, bins
    ):
        logits, labels, weights = generated_task(seed, n, k, zero_every_other, all_correct)
        if raises_below_two_samples(logits, labels, weights, mode=mode, bins=bins):
            return
        sol = optimize_transcal(logits, labels, weights, mode=mode, bins=bins)
        assert sol.diagnostics["grid_evaluations"] == 50
        for t, v in sol.trace:
            args = (logits, labels, weights, t, sol.lambda_star)
            assert v == transcal_objective(*args, mode=mode, bins=bins)

    @settings(derandomize=True, max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 300),
        k=st.integers(2, 5),
        zero_every_other=st.booleans(),
        all_correct=st.booleans(),
        t=st.sampled_from((0.05, 0.6, 1.0, 2.5, 40.0)),
        lam=st.sampled_from((0.0, 0.3, 0.7, 1.0)),
    )
    @example(seed=4, n=300, k=4, zero_every_other=True, all_correct=True, t=1.0, lam=1.0)
    @example(seed=4, n=300, k=4, zero_every_other=True, all_correct=False, t=1.0, lam=0.0)
    def test_values_match_the_sample_level_corrections(
        self, seed, n, k, zero_every_other, all_correct, t, lam
    ):
        """A state's estimates at one lambda are the sample-level ones on that
        lambda's self-normalized oracle samples u: their mean, and
        ``apply_control_variate`` of u with correctness against the mean
        confidence, with its coefficients. Per-bin sums round differently
        from per-sample ones, so values agree to a relative 1e-12. A
        covariance near 0 is a sum of larger products u_i * (r_i - mean r),
        so it is held to 1e-12 of their Cauchy-Schwarz bound rms(u) * sd(r),
        and eta = -Cov / Var to that bound over Var. All-correct labels, a
        constant variate, and the zero coefficient they imply are exact."""
        logits, labels, weights = generated_task(seed, n, k, zero_every_other, all_correct)
        if kish_ess(weights) < 2.0:
            with pytest.raises(DegeneracyError, match="Kish effective sample size"):
                _split(logits, labels, weights, 15)
            return
        state = TransCalState(*_split(logits, labels, weights, 15))
        constant = bool(np.all(state.correct == state.correct[0]))
        assert constant or not all_correct

        def close(got, want, scale=0.0):
            return got == want or abs(got - want) <= 1e-12 * max(abs(want), scale)

        u, wl, conf, correct = oracle_u(logits, labels, weights, t, lam)
        assert np.array_equal(state.terms(lam)[0], wl)
        want, _, coeffs = apply_control_variate(u, correct, float(conf.mean()))
        modes = (EstimatorMode.PLAIN_IWECE, EstimatorMode.CV_SERIAL)
        plain, value = (state.scores(lam, mode, np.array([t]))[0] for mode in modes)
        got = state.coefficients(lam, t)
        assert close(plain, u.mean())
        assert close(value, want)
        assert got.var_t == coeffs.var_t
        bound = math.sqrt(np.mean(np.square(u))) * correct.std()
        assert close(got.cov_u_t, coeffs.cov_u_t, bound)
        assert close(got.eta, coeffs.eta, bound / (coeffs.var_t or 1.0))
        assert [f.name for f in dataclasses.fields(got)] == ["eta", "cov_u_t", "var_t", "flags"]
        assert got.flags == coeffs.flags == (("constant_variate",) if constant else ())
        if constant:
            assert got.eta == got.cov_u_t == 0.0 and value == plain

    @settings(derandomize=True, max_examples=50, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 300),
        sigma=st.floats(0.1, 3.0),
        lam=st.one_of(st.just(0.0), st.floats(0.05, 1.0), st.floats(1e-17, 3e-16)),
    )
    def test_self_normalization_voids_the_weight_stage(self, seed, n, sigma, lam):
        """Why the search has no weight stage: on self-normalized positive
        weights w~, ``serial_control_variate``'s stage one (its estimate
        when correctness is constant) adds eta * (mean w~ - 1) to mean(u),
        and mean w~ is 1 to rounding. eta grows as 1 / sd(w~).
        At lambda = 0 w~ is constant, and for lambda * sigma below about
        1e-15 its spread is at rounding level, so the variate counts as
        constant and eta = 0. Between that and lambda * sigma of about
        1e-4, w^lambda are distinct but so close that eta times the
        rounding error of mean w~ exceeds 1e-12 of mean(u), so lambda * sigma
        stays at least 0.005 unless it is below 1e-15."""
        rng = np.random.default_rng(seed)
        wl = normalized_power(rng.lognormal(0.0, sigma, size=n), lam)
        u = wl * rng.uniform(size=n)
        stage_one, (_, correctness_stage) = serial_control_variate(u, wl, np.ones(n), 0.5)
        assert correctness_stage.flags == ("constant_variate",)
        assert abs(stage_one - u.mean()) <= 1e-12 * abs(u.mean())


class TestBatchedTemperatures:
    """The search hands the objective a batch of temperatures at once;
    every value and moment must be the one-temperature one, bit for bit,
    and no search result may depend on the batch size."""

    @settings(derandomize=True, max_examples=12, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 300),
        k=st.integers(2, 10),
        zero_every_other=st.booleans(),
        all_correct=st.booleans(),
        frozen=st.booleans(),
        size=st.sampled_from((2, 7, 50)),
        bins=st.sampled_from((1, 7, 15)),
    )
    @example(seed=4, n=300, k=4, zero_every_other=True, all_correct=True, frozen=False, size=50, bins=15)
    def test_a_batch_equals_one_temperature_at_a_time(
        self, seed, n, k, zero_every_other, all_correct, frozen, size, bins
    ):
        logits, labels, weights = generated_task(seed, n, k, zero_every_other, all_correct)
        if raises_below_two_samples(logits, labels, weights, bins=bins):
            return
        state = TransCalState(*_split(logits, labels, weights, bins))
        lam = 1.0 if frozen else 0.6
        rng = np.random.default_rng(seed)
        t = np.exp(rng.uniform(math.log(T_MIN), math.log(T_MAX), size))
        t[0], t[-1] = T_MIN, T_MAX
        batch = state.estimates(lam, t)
        singles = [state.estimates(lam, t[i : i + 1]) for i in range(size)]
        assert len(batch) == 4  # plain, corrected, and the correctness variate's eta and Cov
        for j, array in enumerate(batch):
            assert np.array_equal(array, np.concatenate([single[j] for single in singles]))

    @settings(derandomize=True, max_examples=6, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 300),
        k=st.integers(2, 10),
        zero_every_other=st.booleans(),
        all_correct=st.booleans(),
        mode=st.sampled_from(EstimatorMode),
        frozen=st.booleans(),
    )
    def test_the_search_does_not_depend_on_the_batch(
        self, seed, n, k, zero_every_other, all_correct, mode, frozen
    ):
        logits, labels, weights = generated_task(seed, n, k, zero_every_other, all_correct)
        if raises_below_two_samples(logits, labels, weights, mode=mode, freeze_lambda=frozen):
            return
        fits = {}
        for batch in (1, 3, 7, 50):
            with pytest.MonkeyPatch.context() as patch:
                # the search's footprint is logits.size elements per temperature
                patch.setattr(metrics, "_BATCH_ELEMENTS", batch * logits.size)
                fits[batch] = repr(
                    fresh(optimize_transcal, logits, labels, weights, mode=mode, freeze_lambda=frozen)
                )
        assert all(fit == fits[1] for fit in fits.values())


VARIANTS = {
    "transcal": (EstimatorMode.CV_SERIAL, False),
    "transcal-no-bias": (EstimatorMode.CV_SERIAL, True),
    "transcal-no-variance": (EstimatorMode.PLAIN_IWECE, False),
}


class TestSharedState:
    """Fits on one split in a row read temperatures the others scored, through
    the module's one state slot; each solution must equal a fresh fit's, trace
    included, in any order and after any other split."""

    @staticmethod
    def assert_same_fit(got, want):
        assert got.t_star == want.t_star
        assert got.lambda_star == want.lambda_star
        assert got.objective_value == want.objective_value
        assert got.coefficients == want.coefficients
        assert got.diagnostics == want.diagnostics
        assert got.trace == want.trace

    @staticmethod
    def counting_passes(patch) -> list[int]:
        """Patch ``TransCalState.estimates`` to record the batch size of every pass."""
        estimates, scored = TransCalState.estimates, []

        def counted(state, lam, t):
            scored.append(t.shape[0])
            return estimates(state, lam, t)

        patch.setattr(TransCalState, "estimates", counted)
        return scored

    @settings(derandomize=True, max_examples=10, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 300),
        k=st.integers(2, 5),
        zero_every_other=st.booleans(),
        bins=st.sampled_from((7, 15)),
    )
    @example(seed=5, n=300, k=4, zero_every_other=True, bins=15)
    @example(seed=6, n=300, k=3, zero_every_other=False, bins=15)
    def test_every_order_of_the_variants_equals_fresh_fits(self, seed, n, k, zero_every_other, bins):
        logits, labels, weights = generated_task(seed, n, k, zero_every_other, False)
        if raises_below_two_samples(logits, labels, weights, bins=bins):
            return
        fits = {
            name: fresh(optimize_transcal, logits, labels, weights, mode, bins, frozen)
            for name, (mode, frozen) in VARIANTS.items()
        }
        for order in itertools.permutations(VARIANTS):
            transcal._shared = None
            for name in order:
                mode, frozen = VARIANTS[name]
                got = optimize_transcal(logits, labels, weights, mode, bins, frozen)
                self.assert_same_fit(got, fits[name])

    @settings(derandomize=True, max_examples=6, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 400),
        k=st.integers(2, 5),
        zero_every_other=st.booleans(),
        sigma=st.sampled_from((0.5, 1.5)),
    )
    @example(seed=2, n=400, k=3, zero_every_other=False, sigma=1.5)
    def test_what_gets_scored_does_not_depend_on_the_order(self, seed, n, k, zero_every_other, sigma):
        """Every pass forms both estimates, so the variants on one split score
        each (lambda, t) their searches visit exactly once, in every order."""
        logits, labels, _ = generated_task(seed, n, k, zero_every_other, False)
        weights = np.random.default_rng(seed).lognormal(0.0, sigma, size=n)
        if zero_every_other:
            weights[::2] = 0.0
        if raises_below_two_samples(logits, labels, weights):
            return
        for order in itertools.permutations(VARIANTS):
            visited = set()
            with pytest.MonkeyPatch.context() as patch:
                scored = self.counting_passes(patch)
                transcal._shared = None
                for name in order:
                    mode, frozen = VARIANTS[name]
                    sol = optimize_transcal(logits, labels, weights, mode, 15, frozen)
                    visited.update((sol.lambda_star, t) for t, _ in sol.trace)
            assert sum(scored) == len(visited)

    def test_a_bit_equal_copy_of_the_split_scores_nothing(self, monkeypatch):
        logits, labels, weights = sampled_task(np.random.default_rng(89), n=60, k=3)
        scored = self.counting_passes(monkeypatch)
        first = optimize_transcal(logits, labels, weights)
        assert sum(scored) == len(first.trace)
        scored.clear()
        again = optimize_transcal(logits.copy(), labels.tolist(), list(weights), bins=15)
        assert scored == []
        self.assert_same_fit(again, first)

    def test_the_slot_serves_only_a_bit_equal_split(self):
        """Another bin count, correctness or weight vector, even one that only
        flips the sign of a zero weight, gets a state of its own, and the fit
        on it is a fresh fit's."""
        logits, labels, weights = sampled_task(np.random.default_rng(89), n=60, k=3)
        weights[0] = 0.0
        optimize_transcal(logits, labels, weights)
        kept = transcal._shared
        wrong = (np.argmax(logits, axis=1) + 1) % 3
        signed = weights.copy()
        signed[0] = -0.0
        for args, bins in (
            ((logits, wrong, weights), 15),
            ((logits, labels, signed), 15),
            ((logits, labels, weights), 7),
        ):
            transcal._shared = kept
            got = optimize_transcal(*args, bins=bins)
            assert transcal._shared is not kept
            self.assert_same_fit(got, fresh(optimize_transcal, *args, bins=bins))
        # adding a constant to a row leaves its shifted logits, and so the state, as they were
        transcal._shared = kept
        optimize_transcal(logits + 0.0, labels, weights)
        assert transcal._shared is kept

    def test_arrays_changed_in_place_miss_the_slot(self, monkeypatch):
        """The state compares a split against its own copies, so logits or
        weights changed in place after a fit are scored afresh."""
        logits, labels, weights = sampled_task(np.random.default_rng(91), n=80, k=3)
        optimize_transcal(logits, labels, weights)
        logits[3, 1] += 0.5
        scored = self.counting_passes(monkeypatch)
        got = optimize_transcal(logits, labels, weights)
        assert sum(scored) == len(got.trace)
        self.assert_same_fit(got, fresh(optimize_transcal, logits, labels, weights))
        scored.clear()
        weights[::5] *= 3.0
        got = optimize_transcal(logits, labels, weights, freeze_lambda=True)
        assert sum(scored) == len(got.trace)
        self.assert_same_fit(got, fresh(optimize_transcal, logits, labels, weights, freeze_lambda=True))

    def test_an_invalid_split_after_a_valid_one_raises_its_own_error(self):
        logits, labels, weights = sampled_task(np.random.default_rng(93), n=60, k=3)
        nan_logits = logits.copy()
        nan_logits[0, 0] = np.nan
        for args, bins in (
            ((logits, labels, np.zeros(60)), 15),
            ((logits, labels, weights[:59]), 15),
            ((logits, labels, weights), 0),
            ((nan_logits, labels, weights), 15),
            ((logits, labels + 3, weights), 15),
            ((logits, labels, None), 15),
        ):
            with pytest.raises((ValueError, DegeneracyError)) as alone:
                fresh(optimize_transcal, *args, bins=bins)
            valid = optimize_transcal(logits, labels, weights)
            kept = transcal._shared
            for call in (optimize_transcal, lambda *a, bins: transcal_objective(*a, 1.0, 0.5, bins=bins)):
                with pytest.raises(type(alone.value), match=re.escape(str(alone.value))):
                    call(*args, bins=bins)
                assert transcal._shared is kept
            self.assert_same_fit(optimize_transcal(logits, labels, weights), valid)

    def test_splits_a_b_a_equal_fresh_fits(self):
        """Only the last split is kept: returning to split A after B rebuilds
        its state, and every fit is a fresh fit's, trace included."""
        rng = np.random.default_rng(95)
        splits = {name: sampled_task(rng, n=120, k=4) for name in "AB"}
        fits = {
            (split, name): fresh(optimize_transcal, *splits[split], mode, 15, frozen)
            for split in splits
            for name, (mode, frozen) in VARIANTS.items()
        }
        transcal._shared = None
        for split in "ABA":
            for name, (mode, frozen) in VARIANTS.items():
                self.assert_same_fit(optimize_transcal(*splits[split], mode, 15, frozen), fits[split, name])

    def test_threads_on_two_splits_get_fresh_fits(self):
        """No lock guards the slot: threads fitting two splits at once replace
        each other's states, and every fit must still be a fresh fit's."""
        rng = np.random.default_rng(99)
        splits = [sampled_task(rng, n=80, k=3) for _ in range(2)]
        fits = {
            (i, name): repr(fresh(optimize_transcal, *splits[i], mode, 15, frozen))
            for i in range(2)
            for name, (mode, frozen) in VARIANTS.items()
        }
        got = []

        def work(first):
            for step in range(6):
                i = (first + step) % 2
                for name, (mode, frozen) in VARIANTS.items():
                    got.append(((i, name), repr(optimize_transcal(*splits[i], mode, 15, frozen))))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(j % 2,)) for j in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(got) == 4 * 6 * len(VARIANTS)
        assert all(fit == fits[key] for key, fit in got)

    def test_the_shared_state_validates_the_split(self, monkeypatch):
        """``_shared_state`` raises what a fit raises, and the transcal fits of
        one ``run_single`` build one state between them."""
        logits, labels, _ = sampled_task(np.random.default_rng(97), n=60, k=3)
        for weights, bins in ((np.zeros(60), 15), (None, 15), (np.ones(60), 0)):
            with pytest.raises((ValueError, DegeneracyError)) as fitted:
                optimize_transcal(logits, labels, weights, bins=bins)
            with pytest.raises(type(fitted.value), match=re.escape(str(fitted.value))):
                _shared_state(logits, labels, weights, bins)
        built = []

        class Counted(TransCalState):
            def __init__(self, *args):
                built.append(args)
                super().__init__(*args)

        monkeypatch.setattr(transcal, "TransCalState", Counted)
        transcal._shared = None
        scenario = ShiftScenario.axis_aligned(dimension=2, num_classes=2, shift_magnitude=0.5)
        bench.run_single(scenario, 200, 200, seed=0, methods=("uncalibrated", "temp", "oracle"))
        assert built == []
        bench.run_single(scenario, 200, 200, seed=0, methods=("uncalibrated", "transcal", "transcal-no-bias"))
        assert len(built) == 1

    def test_a_run_without_transcal_leaves_the_slot_empty(self):
        """Only transcal fits fill the slot: ``run_single`` reads the weights'
        Renyi diagnostic with ``renyi_diagnostic``, the value a state holds."""
        scenario = ShiftScenario.axis_aligned(dimension=2, num_classes=2, shift_magnitude=0.5)
        record = bench.run_single(scenario, 200, 200, seed=0, methods=("cpcs",))
        assert transcal._shared is None
        task = generate(scenario, 200, 200, 0)
        weights = bench.estimate_task_weights(task.source_train, task.target, task.source_val, 0)[1]
        state = _shared_state(task.source_val_logits, task.source_val_labels, weights, 15)
        assert record["weights"]["renyi_2"] == state.renyi_raw["1.0"]


class TestRenyiDiagnostic:
    def test_unit_weights_give_exactly_one(self):
        w = np.ones(50)
        for alpha in (0.5, 1.0, 2.0):
            assert renyi_diagnostic(w, alpha) == 1.0

    def test_monotone_in_order_for_mean_one_weights(self):
        # monotonicity in the order holds when the sample mean is one,
        # the normalization a genuine density-ratio sample satisfies
        rng = np.random.default_rng(71)
        w = rng.lognormal(0.0, 0.7, size=400)
        w /= w.mean()
        values = [renyi_diagnostic(w, a) for a in (0.5, 1.0, 2.0)]
        assert values[0] <= values[1] * (1 + 1e-9)
        assert values[1] <= values[2] * (1 + 1e-9)

    def test_overflow_returns_infinity(self):
        w = np.array([1e200, 1e200, 1.0])
        assert renyi_diagnostic(w, 2.0) == math.inf
        # at order 0.5 the moment mean(w^1.5) stays finite and its square overflows
        one_huge = np.ones(120)
        one_huge[0] = 1e200
        assert renyi_diagnostic(one_huge, 0.5) == math.inf

    def test_accepts_weight_vector(self):
        w = np.array([0.5, 1.5, 2.0])
        assert renyi_diagnostic(w.tolist(), 1.0) == renyi_diagnostic(w, 1.0)

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            renyi_diagnostic(np.ones(3), 0.0)
        with pytest.raises(ValueError):
            renyi_diagnostic(np.ones(3), -1.0)
