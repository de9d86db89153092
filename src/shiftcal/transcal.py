"""Importance-weighted calibration-error estimation and temperature search.

Per-sample contributions u_i to the weighted calibration error are
optionally corrected by control variates with known expectations: the
paper's ``serial_control_variate`` regresses out the importance weights
(mean 1 under the source) and then the correctness indicator (mean equal
to the mean confidence when the model is calibrated).

The search flattens the weights to w^lambda, keeping zero weights at
zero, and self-normalizes them, w~ = w^lambda / mean(w^lambda) (Owen,
*Monte Carlo theory, methods and examples*, ch. 8-9), so a fit does not
depend on the weights' scale. Self-normalization is the ratio estimator
that uses the weights' known mean, so it is the weight variate: a weight
stage would add eta * (mean w~ - 1), 0 to rounding. The search's
``CV_SERIAL`` thus regresses out correctness alone. Lambda is fixed from
the weights before the temperature search: ``_ess_lambda`` takes the
largest lambda on an 11-point grid over [0, 1] whose flattened weights
keep a Kish effective sample size (sum w^lambda)^2 / sum w^(2 lambda) of
at least m / 2, with m the count of nonzero weights, that is
mean(w~^2) <= 2 n / m: the weights may at most double the variance of an
unweighted mean over the samples they keep (the d_2 term of Cortes,
Mansour & Mohri, NeurIPS 2010). The temperature is then searched at that
lambda by ``_minimize_temperature`` on log t over [T_MIN, T_MAX]: a
50-point log-spaced grid brackets the optimum, golden-section search
refines it to SEARCH_TOL in t, and the returned temperature is never
worse than any grid point. The objective is piecewise smooth at best
(argmax, binning, absolute values), so the search is derivative-free.

The engine only searches: it asks the objective for the whole grid in
one call, then for each golden-section step, and returns a ``_Search``,
its record of what it evaluated and found. ``TransCalState.scores``
splits what it must score into passes through ``metrics._in_batches``,
batches of as many temperatures as keep a pass within the working-set
budget all stacked passes share: numpy call overhead, not arithmetic,
dominates one temperature at a few hundred rows, and a batch that
outgrows the cache loses again. A pass (``TransCalState.estimates``)
reduces the samples once, with one ``bincount`` per sum over bin indices
offset by temperature, to the per-bin sums ``metrics._reliability_bins``
forms, and returns one row of four numbers per temperature; what does
not depend on t is computed once per fit. The batch changes no value:
elementwise operations ignore position, every reduction runs over the
last axis, and ``bincount`` adds each bin's samples in sample order
whatever its offset. The estimate and covariance are sums over bins,
where ``apply_control_variate`` on the self-normalized samples, the
sample-level reference, sums over samples, so the two agree to rounding.

A ``TransCalState`` holds one validated fitting split: its shifted
logits (``scaling._shifted``), correctness, weights and bin count, and,
per lambda, the per-sample terms and a memo of every scored row. Every
pass forms the plain and the corrected estimates, at O(B * (bins + n))
beyond the softmax, and a mode only picks the column a fit reads. The
module keeps the state of the last split a fit ran on, and
``_shared_state`` hands it to the next fit whose validated split matches
it bit for bit. So variants fitted on one split in a row share their
scores without being handed anything: each scores only the temperatures
no fit at its lambda has scored, whatever their order. ``transcal`` and
``transcal-no-variance`` share theirs, and so does ``transcal-no-bias``
when the rule's lambda is 1. Only the last split is remembered: fits
that alternate between splits rebuild its state each time, and the kept
state, an O(n * K) copy of the split plus its memo, stays in memory
until a fit on another split replaces it. ``transcal_objective`` builds
a state of its own for each call and keeps nothing. A fit reads eta and
Cov at t* from the memo's row, so t* is never scored again. Sharing is
exact for the reasons batching is: each value of a pass depends only on
its own temperature, and a trace records a value read from the memo as
it records a scored one.

No lock guards the slot. A call reads it once and works on the state it
got, whatever the slot holds afterwards, and a state's caches only ever
gain the values any pass would compute for them, so two threads on one
state can at worst score a temperature twice.
"""

from __future__ import annotations

import enum
import math
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from functools import cached_property, partial
from typing import NamedTuple

import numpy as np

from .metrics import _bin_sums, _in_batches, _num_bins, bin_indices, check_array, check_weights
from .scaling import (
    SEARCH_TOL,
    T_MAX,
    T_MIN,
    TemperatureParam,
    _check_fit_inputs,
    _require_weight_mass,
    _shifted,
    _softmax_terms,
    _temperature,
)

__all__ = [
    "ControlVariateCoefficients",
    "EstimatorMode",
    "TransCalSolution",
    "TransCalState",
    "apply_control_variate",
    "optimize_transcal",
    "renyi_diagnostic",
    "serial_control_variate",
    "transcal_objective",
]


class EstimatorMode(enum.Enum):
    """Variance reduction for the weighted-error estimate.

    ``PLAIN_IWECE`` uses no control variates. ``CV_SERIAL`` is the paper's
    serial correction; on self-normalized weights, which make the weight
    variate void, it regresses out correctness alone.
    """

    PLAIN_IWECE = "plain_iwece"
    CV_SERIAL = "cv_serial"


@dataclass(frozen=True)
class ControlVariateCoefficients:
    """One correction stage's coefficient eta = -Cov(u, t) / Var(t) and the
    moments behind it. ``flags`` holds ``constant_variate`` when the
    variate counts as constant and eta is 0."""

    eta: float
    cov_u_t: float
    var_t: float
    flags: tuple[str, ...] = ()


@dataclass
class TransCalSolution:
    """The temperature optimum at the fit's one lambda, with its search trace:
    every (t, value) pair the search evaluated, in evaluation order."""

    t_star: TemperatureParam
    lambda_star: float
    objective_value: float
    mode: EstimatorMode
    coefficients: ControlVariateCoefficients | None
    trace: list[tuple[float, float]] = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)

    @property
    def temperature(self) -> float:
        return self.t_star.t

    def describe(self) -> dict:
        """The fit's report fields, as ``calibrate`` and ``bench`` write them; the trace is left out."""
        fields = {
            **self.t_star.describe(),
            "lambda_star": self.lambda_star,
            "objective_value": self.objective_value,
            "mode": self.mode.value,
            "diagnostics": self.diagnostics,
        }
        if self.coefficients is not None:
            fields["coefficients"] = asdict(self.coefficients)
        return fields


class _Variate(NamedTuple):
    """What every adjustment reuses of a control variate's samples t: their
    mean, the samples minus it, and the mean square of those."""

    mean: float
    centred: np.ndarray
    var: float


def _mean(x: np.ndarray) -> np.ndarray:
    """Means over the last axis: ``np.mean``'s own sum and division, without its Python wrapper."""
    return x.sum(axis=-1) / x.shape[-1]


def _variate(t: np.ndarray) -> _Variate:
    """The variate of the samples ``t``, with a variance of 0 when their spread
    is at rounding level: a standard deviation at most n * eps * max|t|, the
    rounding error that bounds their computed mean (Higham, *Accuracy and
    Stability of Numerical Algorithms*, 4.2), cannot be told from rounding,
    and a correction by it would scale that rounding by 1 / sd(t)."""
    mean = _mean(t)
    centred = t - mean
    var = _mean(centred * centred)
    resolution = t.shape[0] * np.finfo(float).eps * float(np.abs(t).max())
    return _Variate(mean, centred, 0.0 if var <= resolution * resolution else var)


def _stage(mean, cov, variate: _Variate, tau) -> tuple[np.ndarray, np.ndarray]:
    """One correction stage, given the mean of u and Cov(u, t), each per estimate.

    The optimal coefficient is eta = -Cov(u, t) / Var(t) and the corrected
    estimate is mean + eta * (t_mean - tau), the mean of the adjusted
    samples u_i + eta * (t_i - tau). A variate with zero variance, which
    includes one at rounding level (see ``_variate``), leaves the mean,
    with eta = 0. tau broadcasts against the estimates. Returns
    the estimates and eta.
    """
    if variate.var == 0.0:
        return mean, np.zeros_like(cov)
    eta = -cov / variate.var
    return mean + eta * (variate.mean - tau), eta


def _coefficients(eta, cov, var) -> ControlVariateCoefficients:
    """The coefficients of one correction stage, flagged when its variate is constant."""
    flags = ("constant_variate",) if var == 0.0 else ()
    return ControlVariateCoefficients(eta=float(eta), cov_u_t=float(cov), var_t=float(var), flags=flags)


def apply_control_variate(
    u_samples: np.ndarray, t_samples: np.ndarray, tau: float
) -> tuple[float, np.ndarray, ControlVariateCoefficients]:
    """Regression-adjust samples with one control variate of known mean tau.

    The optimal coefficient is eta = -Cov(u, t) / Var(t); the adjusted
    samples are u_i + eta * (t_i - tau) and the returned estimate is their
    mean. A variate with zero variance, or with a spread at rounding level
    (a standard deviation of at most n * eps * max|t|), leaves the samples
    unchanged and is flagged. Adjusted samples are returned so corrections
    can be chained.
    This is the sample-level reference for the transcal search, which
    forms the same covariances from per-bin sums instead.

    Conditioning: for a variate whose spread is above rounding level but
    tiny against its mean, eta grows as 1 / sd(t) and multiplies the
    rounding error of mean(t) - tau, so the estimate loses accuracy there.
    """
    u = check_array(u_samples, "u_samples", 1)
    t = check_array(t_samples, "t_samples", 1)
    if u.shape != t.shape:
        raise ValueError("u_samples and t_samples must have the same length")
    tau = float(tau)
    if not math.isfinite(tau):
        raise ValueError("tau must be finite")
    variate = _variate(t)
    u_mean = _mean(u)
    cov = _mean((u - u_mean) * variate.centred)
    estimate, eta = _stage(u_mean, cov, variate, tau)
    return float(estimate), u + eta * (t - tau), _coefficients(eta, cov, variate.var)


def serial_control_variate(
    u_samples: np.ndarray,
    weights: np.ndarray,
    correctness: np.ndarray,
    mean_confidence: float,
) -> tuple[float, tuple[ControlVariateCoefficients, ControlVariateCoefficients]]:
    """Two chained ``apply_control_variate`` stages: the weights, then correctness.

    Stage one adjusts the samples with the importance weights against
    their known source mean of 1. Stage two adjusts the stage-one samples
    with the correctness indicator against ``mean_confidence``, the value
    correctness would average to under perfect calibration. Constant
    correctness (all right or all wrong) flags stage two and returns
    stage one's estimate. ``weights`` is a 1-d array of raw weights, one
    per sample. Returns the estimate and both stages' coefficients. This
    is the paper's estimator; the transcal search, whose self-normalized
    weights have mean one exactly, runs stage two alone.

    Conditioning: each stage's eta = -Cov / Var grows as 1 / sd(t) for a
    variate whose spread is tiny against its mean, such as weights that
    are nearly constant without being constant, and multiplies the
    rounding error of mean(t) - tau, so the estimate loses accuracy there.
    """
    estimate, adjusted, weight_stage = apply_control_variate(u_samples, weights, 1.0)
    corrected, _, correctness_stage = apply_control_variate(adjusted, correctness, mean_confidence)
    if correctness_stage.var_t != 0.0:
        estimate = corrected
    return estimate, (weight_stage, correctness_stage)


_LAMBDAS = tuple(np.linspace(0.0, 1.0, 11).tolist())


def _normalized_power(weights: np.ndarray, lam: float) -> np.ndarray:
    """w^lam divided by its mean, from w / max(w): the power never overflows, and
    weights scaled by a power of two give the same values, bit for bit. Zero
    weights stay zero at every lambda, 0 included."""
    flat = np.power(weights / weights.max(), lam, where=weights > 0.0, out=np.zeros(weights.shape))
    return flat / _mean(flat)


def _ess_lambda(weights: np.ndarray) -> float:
    """The largest lambda in linspace(0, 1, 11) whose flattened weights w^lambda
    keep a Kish effective sample size of at least m / 2, with m the count of
    nonzero weights.

    The Kish ESS of w^lambda is (sum w^lambda)^2 / sum w^(2 lambda), so the
    condition is mean(w~^2) <= 2 n / m for the self-normalized weights w~.
    Lambda = 0 always qualifies, with ESS = m.
    """
    bound = 2.0 * weights.shape[0] / np.count_nonzero(weights)
    return next(
        lam for lam in reversed(_LAMBDAS) if _mean(np.square(_normalized_power(weights, lam))) <= bound
    )


_GRID_SIZE = 50


class _Search(NamedTuple):
    """What ``_minimize_temperature`` found: the best temperature and its value,
    whether its value is below every grid value, and every (t, value) pair
    evaluated, in evaluation order."""

    t: float
    value: float
    refined: bool
    evaluations: list[tuple[float, float]]


def _minimize_temperature(objective) -> _Search:
    """Grid bracket plus golden-section refinement of a vectorized objective over t.

    ``objective`` maps a 1-d array of temperatures to a 1-d array of values.
    The whole grid is scored in one call, then each golden-section step as
    one temperature; how a call is split into passes is the objective's
    business. The result is the best of all evaluated points, so its value
    is never above any grid value. Ties prefer the smaller temperature; NaN
    loses to any number.
    """
    grid = np.exp(np.linspace(math.log(T_MIN), math.log(T_MAX), _GRID_SIZE))
    evaluations: list[tuple[float, float]] = []
    best = 0  # the position in ``evaluations`` of the best pair so far

    def record(t: list[float], values: list[float]) -> None:
        nonlocal best
        for t_new, v_new in zip(t, values):
            evaluations.append((t_new, v_new))
            best_t, best_v = evaluations[best]
            if (v_new, t_new) < (best_v, best_t) or math.isnan(v_new) < math.isnan(best_v):
                best = len(evaluations) - 1

    def at(t_log: float) -> float:
        t = math.exp(t_log)
        value = objective(np.array([t])).item()
        record([t], [value])
        return value

    record(grid.tolist(), objective(grid).tolist())
    a, b = math.log(grid[max(best - 1, 0)]), math.log(grid[min(best + 1, _GRID_SIZE - 1)])
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc = at(c)
    fd = at(d)
    # each step shrinks the log-t bracket by invphi, so the loop ends
    while math.exp(b) - math.exp(a) > SEARCH_TOL:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = at(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = at(d)
    t, value = evaluations[best]
    return _Search(
        t=t,
        value=value,
        refined=all(value < v for _, v in evaluations[:_GRID_SIZE]),
        evaluations=evaluations,
    )


def _split(logits, labels, weights, bins) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """A fitting split, validated, as what a ``TransCalState`` is computed from:
    the shifted logits, each row's 0/1 correctness, the weights and the bin
    count. Raises what every transcal call raises for an invalid split."""
    logits, labels = _check_fit_inputs(logits, labels)
    weights = check_weights(weights, logits.shape[0])
    num_bins = _num_bins(bins)
    _require_weight_mass(weights)
    correct = (np.argmax(logits, axis=1) == labels).astype(np.float64)
    return _shifted(logits), correct, weights, num_bins


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two C-contiguous float64 arrays hold the same bits; -0.0 is not 0.0."""
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TransCalState:
    """One fitting split and the scores the transcal fits on it share.

    It is built from what ``_split`` returns, weights the state owns
    included, and keeps the raw weights' Renyi diagnostics (computed once,
    at first use) and, per lambda (1 for the frozen fits, the
    ``_ess_lambda`` rule's for the others), the per-sample ``terms`` and
    ``memo``, which maps each scored temperature to its row of the
    ``estimates`` pass that scored it: plain, corrected, eta and Cov.
    ``_shared_state`` keeps the last fitted split's; the module docstring
    says why sharing is exact.
    """

    def __init__(self, shifted: np.ndarray, correct: np.ndarray, weights: np.ndarray, num_bins: int):
        self.shifted = shifted
        self.correct = correct
        self.weights = weights
        self.num_bins = num_bins
        self.correct_variate = _variate(correct)
        self._terms: dict[float, tuple[np.ndarray, np.ndarray]] = {}
        self.memo: defaultdict[float, dict[float, list[float]]] = defaultdict(dict)

    def holds(self, shifted: np.ndarray, correct: np.ndarray, weights: np.ndarray, num_bins: int) -> bool:
        """Whether the state was built from these arrays and bin count, bit for bit."""
        mine = (self.shifted, self.correct, self.weights)
        return self.num_bins == num_bins and all(map(_same_bits, mine, (shifted, correct, weights)))

    @cached_property
    def rule_lambda(self) -> float:
        return _ess_lambda(self.weights)

    @cached_property
    def renyi_raw(self) -> dict[str, float]:
        """``renyi_diagnostic`` of the raw weights at alpha = 0.5, 1 and 2, keyed by alpha."""
        return {str(a): renyi_diagnostic(self.weights, a) for a in (0.5, 1.0, 2.0)}

    def terms(self, lam: float) -> tuple[np.ndarray, np.ndarray]:
        """The self-normalized weights w~ at ``lam`` and w~ * correct, the
        per-sample terms of S1 and S2, built at first use."""
        if lam not in self._terms:
            weights = _normalized_power(self.weights, lam)
            self._terms[lam] = (weights, weights * self.correct)
        return self._terms[lam]

    def confidences(self, t: np.ndarray) -> np.ndarray:
        """Top-class softmax probabilities, one row per temperature in ``t``."""
        # the predicted class's shifted exponential is exp(0) = 1, so its
        # softmax probability is 1 / row sum, with no gather and no full matrix
        with np.errstate(over="ignore"):
            return 1.0 / _softmax_terms(self.shifted / t[:, None, None])[1][..., 0]

    def estimates(self, lam: float, t: np.ndarray) -> np.ndarray:
        """One (B, 4) row per temperature in ``t``: the plain and corrected estimates
        at ``lam``, and the correctness variate's eta and Cov behind the corrected one.

        A sample in confidence bin m contributes u_i = w~_i * gap_m, with
        gap_m = |A_m - C_m| the gap between the bin's w~-weighted accuracy
        and mean confidence, so the per-bin sums S1, S2 and S3 of w~,
        w~ * r and w~ * conf, with r the correctness, give:

        - plain = sum_m gap_m * S1_m / n, the binned importance-weighted
          calibration error with mass convention 1/n;
        - Cov(u, r) = sum_m gap_m * (S2_m - mean r * S1_m) / n, and the
          correctness variate's estimate against the mean confidence,
          which is the plain one when correctness is constant. It is the
          only variate: self-normalization is the weight variate.

        Offsetting the bin indices of temperature b by b * bins puts every
        temperature's bins into one ``bincount`` per sum; a bin of
        zero-weight samples has no accuracy or confidence and gets gap 0.
        Nothing here reads or fills the memo.
        """
        size = t.shape[0]
        conf = self.confidences(t)
        shape = (size, self.num_bins)
        offsets = np.arange(size)[:, None] * self.num_bins
        flat = (bin_indices(conf, self.num_bins) + offsets).ravel()
        mass_term, correct_term = self.terms(lam)
        terms = (np.tile(mass_term, size), np.tile(correct_term, size), (mass_term * conf).ravel())
        mass, correct_sum, conf_sum = (
            sums.reshape(shape) for sums in _bin_sums(flat, math.prod(shape), *terms)
        )
        occupied = mass > 0.0
        accuracy = np.divide(correct_sum, mass, out=np.zeros(shape), where=occupied)
        gap = np.abs(accuracy - np.divide(conf_sum, mass, out=np.zeros(shape), where=occupied))
        n = mass_term.shape[0]
        plain = (gap * mass).sum(axis=-1) / n
        correctness = self.correct_variate
        cov = (gap * (correct_sum - correctness.mean * mass)).sum(axis=-1) / n
        corrected, eta = _stage(plain, cov, correctness, _mean(conf))
        return np.array((plain, corrected, eta, cov)).T

    def scores(self, lam: float, mode: EstimatorMode, t: np.ndarray) -> np.ndarray:
        """The mode's estimate at ``lam`` and each temperature in ``t``.

        The temperatures the memo lacks are scored through
        ``metrics._in_batches``, each row is remembered, and every value is
        then read from the memo; the kernel is batch-invariant, so a
        remembered value is the one a fresh pass would give, bit for bit.
        """
        memo, keys = self.memo[lam], t.tolist()
        missing = [key for key in keys if key not in memo]
        if missing:
            rows = _in_batches(partial(self.estimates, lam), np.array(missing), self.shifted.size)
            memo.update(zip(missing, rows.tolist()))
        column = int(mode is EstimatorMode.CV_SERIAL)
        return np.array([memo[key][column] for key in keys])


# the state of the last split a transcal fit ran on; see ``_shared_state``
_shared: TransCalState | None = None


def _shared_state(logits, labels, weights, bins: int = 15) -> TransCalState:
    """The ``TransCalState`` of a fitting split, validated as a fit validates it.

    The state of the last split a fit ran on is kept and returned when the
    validated split matches it bit for bit: its shifted logits, correctness,
    weights (the state compares against its own copy, so arrays changed in
    place since do not match) and bin count, which are all a state is
    computed from. Otherwise the kept state is dropped and a fresh one
    built and kept in its place.
    """
    global _shared
    shifted, correct, weights, num_bins = _split(logits, labels, weights, bins)
    state = _shared
    if state is None or not state.holds(shifted, correct, weights, num_bins):
        _shared = state = None  # the old state goes before its successor is built
        state = _shared = TransCalState(shifted, correct, weights.copy(), num_bins)
    return state


def transcal_objective(
    logits: np.ndarray,
    labels: np.ndarray,
    weights,
    t: float,
    lam: float,
    mode: EstimatorMode | str = EstimatorMode.CV_SERIAL,
    bins: int = 15,
) -> float:
    """Evaluate the optimizer's estimate of target calibration error at an explicit lambda.

    The raw weights are flattened by w^lam and self-normalized to mean one,
    the binned weighted gap is decomposed into per-sample contributions,
    and the mode's control-variate correction is applied. Weights without
    usable mass raise DegeneracyError as in ``optimize_transcal``.
    """
    mode = EstimatorMode(mode)
    state = TransCalState(*_split(logits, labels, weights, bins))
    if not (0.0 <= float(lam) <= 1.0):
        raise ValueError(f"lambda must lie in [0, 1], got {lam}")
    return float(state.scores(float(lam), mode, np.array([TemperatureParam(float(t)).t]))[0])


def optimize_transcal(
    logits: np.ndarray,
    labels: np.ndarray,
    weights,
    mode: EstimatorMode | str = EstimatorMode.CV_SERIAL,
    bins: int = 15,
    freeze_lambda: bool = False,
) -> TransCalSolution:
    """Search the temperature minimizing the corrected estimate at one lambda.

    Lambda comes from the weights alone, before the search: ``_ess_lambda``'s
    rule, or 1 with ``freeze_lambda`` (the no-bias-reduction variant);
    ``mode=PLAIN_IWECE`` drops the variance correction instead. The
    temperature search is ``_minimize_temperature``, a grid bracket plus
    golden-section refinement; ties resolve to the smaller temperature.
    The search is deterministic and every evaluation is recorded in the
    trace as (t, value), whether it was scored or read from the memo.

    Fits on one split in a row share their scored temperatures through
    ``_shared_state``, which changes no result; the last fitted split's
    state stays in memory until a fit on another split replaces it.
    Weights without usable mass (all zero, an overflowing sum or sum of
    squares, or a Kish effective sample size below 2) raise DegeneracyError.
    """
    mode = EstimatorMode(mode)
    state = _shared_state(logits, labels, weights, bins)
    lam = 1.0 if freeze_lambda else state.rule_lambda
    search = _minimize_temperature(partial(state.scores, lam, mode))
    *_, eta, cov = state.memo[lam][search.t]  # the search scored t*
    cv = None if mode is EstimatorMode.PLAIN_IWECE else _coefficients(eta, cov, state.correct_variate.var)
    diagnostics = {
        "max_weight_raw": float(state.weights.max()),
        # the max of w^lambda before self-normalization, which never exceeds max(w, 1)
        "max_weight_transformed": float(np.power(state.weights, lam).max()),
        "renyi_raw": dict(state.renyi_raw),
        "grid_evaluations": _GRID_SIZE,
        "total_evaluations": len(search.evaluations),
        "refined": search.refined,
        "freeze_lambda": bool(freeze_lambda),
    }
    return TransCalSolution(
        t_star=_temperature(search.t),
        lambda_star=lam,
        objective_value=search.value,
        mode=mode,
        coefficients=cv,
        trace=search.evaluations,
        diagnostics=diagnostics,
    )


def renyi_diagnostic(weights, alpha: float) -> float:
    """Empirical exponentiated Renyi divergence of order alpha + 1.

    Computes (mean of w^(alpha + 1))^(1/alpha) over source-drawn weights,
    the sample version of the divergence term governing the variance of
    importance-weighted estimates. Unit weights give exactly 1. Returns
    +inf when the power moment or its final power overflows.
    """
    values = check_weights(weights)
    alpha = float(alpha)
    if not (alpha > 0.0 and math.isfinite(alpha)):
        raise ValueError(f"alpha must be positive and finite, got {alpha}")
    with np.errstate(over="ignore"):
        moment = float(np.mean(np.power(values, alpha + 1.0)))
    try:
        return moment ** (1.0 / alpha)
    except OverflowError:
        return math.inf
