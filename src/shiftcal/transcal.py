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
lambda by ``scaling._minimize_temperature``, the grid and golden-section
engine it shares with ``cpcs``; the objective is piecewise smooth at best
(argmax, binning, absolute values), so the search is derivative-free.

Each pass scores a batch of B temperatures, the batch
``scaling._minimize_temperature`` hands the objective. A contribution is
u_i = w~_i * gap_m for the sample's confidence bin m, so every sum the
estimate and the correction need is a per-bin sum times gap_m. A pass
therefore reduces the samples once, with ``bincount`` over bin indices
offset by temperature, to three per-bin sums S1, S2 and S3 of w~,
w~ * correctness and w~ * confidence, which give gap_m = |S2/S1 - S3/S1|.
Everything after that works on (B, bins) arrays (see
``TransCalState.estimates``); what does not depend on t is computed
once per fit. The batch changes no value: elementwise operations do
not depend on position, every reduction runs over the last axis, and
``bincount`` adds each bin's samples in sample order whatever its offset.

S1 to S3, and so the gaps, are the sums ``metrics._bin_statistics``
forms. The estimate and covariance are sums over bins of those sums,
where ``apply_control_variate`` on the self-normalized samples, the
sample-level reference, sums over samples, so the two agree to rounding.

A ``TransCalState`` validates one fitting split when it is built and
holds its shifted logits (``scaling._shifted``) and, per lambda, the
per-sample terms and a memo of every scored temperature. Every pass forms
the plain and the corrected estimates, at O(B * (bins + n)) beyond the
softmax, and a mode only picks which one a fit reads. So fits that share
a state score only the temperatures no fit at their lambda has scored,
whatever their order: ``transcal`` and ``transcal-no-variance`` share
theirs, and so does ``transcal-no-bias`` when the rule's lambda is 1.
The search engine reports the value at t* and every (t, value) pair it
evaluated, and a fit reads its coefficients at t* from the memo, so t*
is never scored again. Sharing is exact for the reasons batching is:
each value of a pass depends only on its own temperature.
"""

from __future__ import annotations

import enum
import math
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from functools import cached_property, partial
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .metrics import _bin_sums, _num_bins, bin_indices, check_array, check_weights
from .scaling import (
    _GRID_SIZE,
    TemperatureParam,
    _check_fit_inputs,
    _minimize_temperature,
    _require_weight_mass,
    _shifted,
    _softmax_terms,
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
    """Fitted control-variate coefficients and the moments behind them.

    A single-variate correction, such as the transcal search's correctness
    variate, fills the t1 fields, and ``eta2`` and the t2 moments stay
    None. ``flags`` records degeneracies (constant variates).
    """

    eta1: float
    eta2: float | None = None
    cov_u_t1: float = 0.0
    var_t1: float = 0.0
    cov_u_t2: float | None = None
    var_t2: float | None = None
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


def _adjust(u: np.ndarray, variate: _Variate, tau) -> tuple[float, float, float]:
    """Regression-adjust the samples ``u`` with a control variate of known mean tau.

    Cov(u, t) is the mean of the centred products of the samples; the
    estimate and eta are ``_stage``'s. Returns the estimate, eta and
    Cov(u, t).
    """
    u_mean = _mean(u)
    cov = _mean((u - u_mean) * variate.centred)
    estimate, eta = _stage(u_mean, cov, variate, tau)
    return estimate, eta, cov


def _coefficients(eta, cov, var) -> ControlVariateCoefficients:
    """The coefficients of one correction stage, flagged when its variate is constant."""
    return ControlVariateCoefficients(
        eta1=float(eta),
        cov_u_t1=float(cov),
        var_t1=float(var),
        flags=("constant_variate",) if var == 0.0 else (),
    )


def _check_samples(u_samples, t_samples) -> tuple[np.ndarray, np.ndarray]:
    u = check_array(u_samples, "u_samples", 1)
    t = check_array(t_samples, "t_samples", 1)
    if u.shape != t.shape:
        raise ValueError("u_samples and t_samples must have the same length")
    return u, t


def _check_tau(tau) -> float:
    tau = float(tau)
    if not math.isfinite(tau):
        raise ValueError("tau must be finite")
    return tau


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
    """
    u, t = _check_samples(u_samples, t_samples)
    tau = _check_tau(tau)
    variate = _variate(t)
    estimate, eta, cov = _adjust(u, variate, tau)
    return float(estimate), u + eta * (t - tau), _coefficients(eta, cov, variate.var)


def serial_control_variate(
    u_samples: np.ndarray,
    weights: np.ndarray,
    correctness: np.ndarray,
    mean_confidence: float,
) -> tuple[float, ControlVariateCoefficients]:
    """Two-stage correction: first the weight variate, then correctness.

    Stage one adjusts with the importance weights against their known
    source mean of 1. Stage two adjusts the stage-one residual samples
    with the correctness indicator against ``mean_confidence``, the value
    correctness would average to under perfect calibration. Constant
    correctness (all right or all wrong) skips stage two with a flag.
    ``weights`` is a 1-d array of raw weights, one per sample. This is
    the paper's estimator; the transcal search, whose self-normalized
    weights have mean one exactly, skips stage one and applies
    ``apply_control_variate`` with correctness to its samples.
    """
    u, w = _check_samples(u_samples, weights)
    _, r = _check_samples(u, correctness)
    tau = _check_tau(mean_confidence)
    weight_variate, correct_variate = _variate(w), _variate(r)
    est1, eta1, cov1 = _adjust(u, weight_variate, 1.0)
    est2, eta2, cov2 = _adjust(u + eta1 * (w - 1.0), correct_variate, tau)
    var1, var2 = float(weight_variate.var), float(correct_variate.var)
    skipped = var2 == 0.0
    return float(est1 if skipped else est2), ControlVariateCoefficients(
        eta1=float(eta1),
        eta2=None if skipped else float(eta2),
        cov_u_t1=float(cov1),
        var_t1=var1,
        cov_u_t2=float(cov2),
        var_t2=var2,
        flags=(("constant_variate",) if var1 == 0.0 else ())
        + (("constant_correctness",) if skipped else ()),
    )


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


class TransCalState:
    """One fitting split and the scores the transcal fits on it share.

    Building a state validates the split and raises what a fit without one
    would. It keeps the checked arrays, the raw weights' Renyi diagnostics
    (computed once, at first use) and, per lambda (1 for the frozen fits,
    the ``_ess_lambda`` rule's for the others), the per-sample ``terms`` and
    ``memo``, which maps each scored temperature to ``(arrays, b)``: entry b
    of every (B,) array of the ``estimates`` pass that scored it. Pass it to
    ``optimize_transcal`` as ``state`` with the very arrays and bins it was
    built from, and do not modify those arrays while it is in use. The
    module docstring says why sharing is exact.
    """

    def __init__(self, logits, labels, weights, bins: int = 15):
        self._arguments = (logits, labels, weights)
        logits, labels = _check_fit_inputs(logits, labels)
        self.weights = check_weights(weights, logits.shape[0])
        self.num_bins = _num_bins(bins)
        _require_weight_mass(self.weights)
        self.shifted = _shifted(logits)
        self.correct = (np.argmax(logits, axis=1) == labels).astype(np.float64)
        self.correct_variate = _variate(self.correct)
        self._terms: dict[float, tuple[np.ndarray, np.ndarray]] = {}
        self.memo: defaultdict[float, dict[float, tuple[tuple, int]]] = defaultdict(dict)

    @cached_property
    def rule_lambda(self) -> float:
        return _ess_lambda(self.weights)

    @cached_property
    def renyi_raw(self) -> dict[str, float]:
        """``renyi_diagnostic`` of the raw weights at alpha = 0.5, 1 and 2, keyed by alpha."""
        return {str(a): renyi_diagnostic(self.weights, a) for a in (0.5, 1.0, 2.0)}

    def built_from(self, logits, labels, weights, bins) -> bool:
        """Whether the state was built from these arrays and bin count."""
        same = all(a is b for a, b in zip(self._arguments, (logits, labels, weights)))
        return self.num_bins == _num_bins(bins) and same

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

    def estimates(self, lam: float, t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The plain and corrected estimates at ``lam`` and each temperature in ``t``,
        and the correctness variate's eta and Cov behind the corrected ones, as (B,) arrays.

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
        return plain, corrected, eta, cov

    def scores(self, lam: float, mode: EstimatorMode, t: np.ndarray) -> np.ndarray:
        """The mode's estimate at ``lam`` and each temperature in ``t``.

        The temperatures the memo lacks are scored in one pass, and every
        value is then read from the memo; the kernel is batch-invariant, so
        a remembered value is the one a fresh pass would give, bit for bit.
        """
        memo, keys = self.memo[lam], t.tolist()
        missing = [key for key in keys if key not in memo]
        if missing:
            arrays = self.estimates(lam, np.array(missing))
            memo.update(zip(missing, zip(repeat(arrays), range(len(missing)))))
        cv = mode is EstimatorMode.CV_SERIAL
        return np.array([entry[cv][b] for entry, b in map(memo.__getitem__, keys)])

    def coefficients(self, lam: float, t: float) -> ControlVariateCoefficients:
        """The correctness variate's coefficients at a temperature the memo holds."""
        (*_, eta, cov), b = self.memo[lam][t]
        return _coefficients(eta[b], cov[b], self.correct_variate.var)


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
    state = TransCalState(logits, labels, weights, bins)
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
    state: TransCalState | None = None,
) -> TransCalSolution:
    """Search the temperature minimizing the corrected estimate at one lambda.

    Lambda comes from the weights alone, before the search: ``_ess_lambda``'s
    rule, or 1 with ``freeze_lambda`` (the no-bias-reduction variant);
    ``mode=PLAIN_IWECE`` drops the variance correction instead. The
    temperature search is ``scaling._minimize_temperature``, the engine
    the weighted temperature fits share; ties resolve to the smaller
    temperature.
    The search is deterministic and every evaluation is recorded in the
    trace as (t, value), whether it was scored or read from the memo.

    ``state`` is a ``TransCalState`` built from these same arguments; fits
    that share one score each temperature once. It changes no result, and
    without it each call builds its own. Weights without usable mass (all
    zero, an overflowing sum or sum of squares, or a Kish effective sample
    size below 2) raise DegeneracyError.
    """
    mode = EstimatorMode(mode)
    if state is None:
        state = TransCalState(logits, labels, weights, bins)
    elif not state.built_from(logits, labels, weights, bins):
        raise ValueError(
            "state was built from other inputs; build one TransCalState per fitting split"
        )
    lam = 1.0 if freeze_lambda else state.rule_lambda
    search = _minimize_temperature(partial(state.scores, lam, mode), state.shifted.size)
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
        t_star=TemperatureParam(t=search.t, degenerate=search.at_bound),
        lambda_star=lam,
        objective_value=search.value,
        mode=mode,
        coefficients=None if mode is EstimatorMode.PLAIN_IWECE else state.coefficients(lam, search.t),
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
