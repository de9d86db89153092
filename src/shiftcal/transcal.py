"""Importance-weighted calibration-error estimation and temperature search.

The estimator family shares one structure: per-sample contributions u_i to
the weighted calibration error, optionally corrected by control variates
with known expectations. Two variates are available, the transformed
importance weights (expectation 1 under the source marginal) and the
correctness indicator (expectation equal to the mean confidence when the
model is calibrated). They are applied serially: the second stage adjusts
the residuals of the first. The weight-flattening exponent lambda is
profiled out on an 11-point grid over [0, 1], and the temperature is
searched on that profile by ``scaling._minimize_temperature``, the engine
every temperature fit shares; the objective is piecewise smooth at best
(argmax, binning, absolute values), so the search is derivative-free.

Each pass scores all 11 lambdas at a batch of B temperatures, the batch
``scaling._minimize_temperature`` hands the profile. A contribution is
u_i = w_i^lambda * gap_m for the sample's confidence bin m, so every sum
the estimate and both corrections need is a per-bin sum times gap_m. A
pass therefore reduces the samples once, with ``bincount`` over bin
indices offset by (temperature, lambda) row, to four per-bin sums: S1, S2
and S3 of w^lambda, w^lambda * correctness and w^lambda * confidence,
which give gap_m = |S2/S1 - S3/S1|, and S4 of
w^lambda * (w^lambda - mean w^lambda). Everything after that works on
(B, lambdas, bins) arrays (see ``_ObjectiveContext.estimates``).
Everything that does not depend on t is computed once per fit: the
(11, n) rows of w^lambda and their products, their (B, 11, n) tiles, both
variates' moments and the cross sum of w^lambda - 1 with centred
correctness. The batch changes no value: elementwise operations do not
depend on position, every reduction runs over the last axis, and
``bincount`` adds each bin's samples in sample order whatever its offset.

S1 to S3, and so the gaps, are the sums ``metrics._bin_statistics``
forms. The estimates and covariances are sums over bins of those sums,
where a sample-level evaluation sums over samples, so they agree with
``apply_control_variate`` and ``serial_control_variate``, the
sample-level references, to rounding, not bit for bit.

A ``TransCalState`` holds one fitting split's contexts and a memo of each
scored temperature: the 11 corrected estimates with their control-variate
moments, and the 11 plain estimates. Fits that share a state score only
the temperatures their mode is missing. The variants of the paper's
ablation fit the same split, so ``transcal-no-variance`` reads most of its
path from ``transcal``'s plain estimates, ``transcal-no-bias`` reads the
lambda = 1 column, and every fit reads its coefficients at t* instead of
scoring t* again. Sharing is exact for the reasons batching is: each value
of a pass depends only on its own temperature and lambda, so the
lambda = 1 row of the 11-lambda context is the 1-lambda context's row, bit
for bit.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .metrics import _bin_sums, _num_bins, bin_indices, check_array, check_weights
from .scaling import (
    _GRID_SIZE,
    TemperatureParam,
    _check_fit_inputs,
    _grid_batch,
    _minimize_temperature,
    _require_weight_mass,
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

_LAMBDA_GRID_SIZE = 11


class EstimatorMode(enum.Enum):
    """Variance reduction for the weighted-error estimate.

    ``PLAIN_IWECE`` uses no control variates; ``CV_SERIAL`` applies the
    weight variate, then the correctness variate to its residuals.
    """

    PLAIN_IWECE = "plain_iwece"
    CV_SERIAL = "cv_serial"


@dataclass(frozen=True)
class ControlVariateCoefficients:
    """Fitted control-variate coefficients and the moments behind them.

    ``eta2`` and the t2 moments are None for single-variate corrections.
    ``flags`` records degeneracies (constant variates).
    """

    eta1: float
    eta2: float | None = None
    cov_u_t1: float = 0.0
    var_t1: float = 0.0
    cov_u_t2: float | None = None
    var_t2: float | None = None
    cov_t1_t2: float | None = None
    flags: tuple[str, ...] = ()


@dataclass
class TransCalSolution:
    """Joint (temperature, lambda) optimum with its search trace."""

    t_star: TemperatureParam
    lambda_star: float
    objective_value: float
    mode: EstimatorMode
    coefficients: ControlVariateCoefficients | None
    trace: list[tuple[float, float, float]] = field(default_factory=list)
    diagnostics: dict = field(default_factory=dict)


class _Variate(NamedTuple):
    """Rows of a control variate t and the moments every adjustment reuses.

    ``t`` has one row per estimate, or one row shared by all of them;
    ``mean``, ``centred`` and ``var`` are its row means, its rows minus
    their means and the mean squares of the centred rows.
    """

    t: np.ndarray
    mean: np.ndarray
    centred: np.ndarray
    var: np.ndarray


def _row_means(x: np.ndarray) -> np.ndarray:
    """Means over the last axis: ``np.mean``'s own sum and division, without its Python wrapper."""
    return x.sum(axis=-1) / x.shape[-1]


def _variate(t: np.ndarray) -> _Variate:
    t = np.atleast_2d(t)
    mean = _row_means(t)
    centred = t - mean[:, None]
    return _Variate(t, mean, centred, _row_means(centred * centred))


def _stage(mean: np.ndarray, cov: np.ndarray, variate: _Variate, tau) -> tuple[np.ndarray, np.ndarray]:
    """One correction stage, given the row means of u and Cov(u, t) per row.

    The optimal coefficient is eta = -Cov(u, t) / Var(t) and the corrected
    estimate is mean + eta * (t_mean - tau), the mean of the adjusted
    samples u_i + eta * (t_i - tau). A row whose variate has zero variance
    keeps its mean, with eta = 0. The variate's moments and tau broadcast
    against the rows. Returns the estimates and eta.
    """
    constant = variate.var == 0.0
    eta = np.divide(-cov, variate.var, out=np.zeros_like(cov), where=~constant)
    return np.where(constant, mean, mean + eta * (variate.mean - tau)), eta


def _adjust(u: np.ndarray, variate: _Variate, tau) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Regression-adjust each row of ``u`` with its control-variate row of known mean tau.

    Cov(u, t) is the row mean of the centred products of the samples; the
    estimates and eta are ``_stage``'s. Returns per row the estimates, eta
    and Cov(u, t).
    """
    u_mean = _row_means(u)
    cov = _row_means((u - u_mean[:, None]) * variate.centred)
    estimates, eta = _stage(u_mean, cov, variate, tau)
    return estimates, eta, cov


def _adjusted(u: np.ndarray, eta: np.ndarray, excess: np.ndarray) -> np.ndarray:
    """The adjusted samples u_i + eta * (t_i - tau), given the variate's rows minus tau."""
    return u + eta[:, None] * excess


def _serial_coefficients(
    row: int, weights: _Variate, correctness: _Variate, moments: tuple[np.ndarray, ...]
) -> ControlVariateCoefficients:
    eta1, cov1, eta2, cov2 = (float(m[row]) for m in moments)
    var1, var2 = float(weights.var[row]), float(correctness.var[0])
    skipped = var2 == 0.0
    return ControlVariateCoefficients(
        eta1=eta1,
        eta2=None if skipped else eta2,
        cov_u_t1=cov1,
        var_t1=var1,
        cov_u_t2=cov2,
        var_t2=var2,
        flags=(("constant_variate",) if var1 == 0.0 else ())
        + (("constant_correctness",) if skipped else ()),
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
    mean. A variate with zero variance leaves the samples unchanged and is
    flagged. Adjusted samples are returned so corrections can be chained.
    This is the sample-level reference for the transcal search, which
    forms the same covariances from per-bin sums instead.
    """
    u, t = _check_samples(u_samples, t_samples)
    tau = _check_tau(tau)
    variate = _variate(t)
    estimates, eta, cov = _adjust(u[None, :], variate, tau)
    var = float(variate.var[0])
    coeffs = ControlVariateCoefficients(
        eta1=float(eta[0]),
        cov_u_t1=float(cov[0]),
        var_t1=var,
        flags=("constant_variate",) if var == 0.0 else (),
    )
    return float(estimates[0]), _adjusted(u[None, :], eta, variate.t - tau)[0], coeffs


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
    ``weights`` is a 1-d array of the (possibly lambda-flattened) weights,
    one per sample. This is the sample-level reference for the transcal
    search's ``CV_SERIAL`` estimates.
    """
    u, w = _check_samples(u_samples, weights)
    _, r = _check_samples(u, correctness)
    tau = _check_tau(mean_confidence)
    weight_variate, correct_variate = _variate(w), _variate(r)
    est1, eta1, cov1 = _adjust(u[None, :], weight_variate, 1.0)
    residuals = _adjusted(u[None, :], eta1, weight_variate.t - 1.0)
    est2, eta2, cov2 = _adjust(residuals, correct_variate, tau)
    estimates = est1 if correct_variate.var[0] == 0.0 else est2
    return float(estimates[0]), _serial_coefficients(
        0, weight_variate, correct_variate, (eta1, cov1, eta2, cov2)
    )


class _FitInputs(NamedTuple):
    """A fitting split validated once, shared by the contexts of every lambda set."""

    logits: np.ndarray
    rowmax: np.ndarray
    correct: np.ndarray
    correct_variate: _Variate
    weights: np.ndarray
    num_bins: int


def _fit_inputs(logits, labels, weights, bins) -> _FitInputs:
    """Validate a fitting split; weights without usable mass raise DegeneracyError."""
    logits, labels = _check_fit_inputs(logits, labels)
    weights = check_weights(weights, logits.shape[0])
    num_bins = _num_bins(bins)
    _require_weight_mass(weights)
    correct = (np.argmax(logits, axis=1) == labels).astype(np.float64)
    rowmax = logits.max(axis=1, keepdims=True)
    return _FitInputs(logits, rowmax, correct, _variate(correct), weights, num_bins)


def _holds(entry: tuple | None, cv: bool) -> bool:
    """Whether a memo entry has the corrected estimates (``cv``) or the plain ones."""
    return entry is not None and len(entry[0]) > cv


class _ObjectiveContext:
    """Everything a fit's (t, lambda) evaluations share, computed once per fit.

    Row r of every (lambdas, n) array belongs to ``lambdas[r]``: the weight
    variate's rows w^lambda and their moments. One evaluation scores every
    lambda at each of a batch of temperatures; ``batch`` is the largest
    batch the engine hands it, and (batch, lambdas, n) tiles of the
    per-sample terms of S1, S2 and S4 feed the ``bincount`` of a whole
    batch. ``estimates`` says how the four per-bin sums give the estimates.

    ``memo`` maps each scored temperature to ``(arrays, b)``: row b of
    every (B, lambdas) array of the pass that scored it. ``arrays`` holds
    the plain estimates, and after a ``CV_SERIAL`` pass also the corrected
    estimates and the (eta, Cov) of both correction stages; a
    ``CV_SERIAL`` pass replaces a plain entry.
    """

    def __init__(self, inputs: _FitInputs, lambdas):
        self.inputs = inputs
        self.logits, self.rowmax, self.correct, self.correct_variate, self.weights, self.num_bins = inputs
        self.lambdas = tuple(lambdas)
        n, k = self.logits.shape
        self.batch = _grid_batch(max(len(self.lambdas), k) * n)
        self.memo: dict[float, tuple[tuple[np.ndarray, ...], int]] = {}

    @cached_property
    def weight_variate(self) -> _Variate:
        """The weight variate, whose rows are the flattened weights w^lambda."""
        rows = np.empty((len(self.lambdas), self.weights.shape[0]))
        for row, lam in enumerate(self.lambdas):
            np.power(self.weights, lam, out=rows[row])
        return _variate(rows)

    @property
    def flattened(self) -> np.ndarray:
        return self.weight_variate.t

    @cached_property
    def tiles(self) -> tuple[np.ndarray, np.ndarray]:
        """(batch, lambdas, n) copies of w^lambda, w^lambda * correct and
        w^lambda * (w^lambda - mean w^lambda), stacked, and the
        (batch, lambdas, 1) bin offsets of every (temperature, lambda) row."""
        weights = self.weight_variate
        rows = (weights.t, weights.t * self.correct, weights.t * weights.centred)
        tiles = np.empty((len(rows), self.batch, *weights.t.shape))
        for tile, values in zip(tiles, rows):
            tile[:] = values
        offsets = (np.arange(self.batch * len(self.lambdas)) * self.num_bins).reshape(
            self.batch, len(self.lambdas), 1
        )
        return tiles, offsets

    @cached_property
    def cross(self) -> np.ndarray:
        """Sum over samples of (w^lambda - 1) * (correct - mean correct), per lambda."""
        return ((self.flattened - 1.0) * self.correct_variate.centred).sum(axis=-1)

    def confidences(self, t: np.ndarray) -> np.ndarray:
        """Top-class softmax probabilities, one row per temperature in ``t``."""
        # the predicted class's shifted exponential is exp(0) = 1, so its
        # softmax probability is 1 / row sum, with no gather and no full matrix
        t = t[:, None, None]
        return 1.0 / _softmax_terms(self.logits / t, self.rowmax / t)[1][..., 0]

    def estimates(
        self, t: np.ndarray, mode: EstimatorMode
    ) -> tuple[np.ndarray, tuple | None, np.ndarray]:
        """The mode's (B, lambdas) estimates at each temperature in ``t``, the
        control-variate moments behind them, and the plain estimates.

        Entry [b, r] belongs to t[b] and lam = ``lambdas[r]``. A sample in
        confidence bin m contributes u_i = w_i^lam * gap_m, with
        gap_m = |A_m - C_m| the gap between the bin's w^lam-weighted
        accuracy and mean confidence, so the per-bin sums S1, S2, S3 and
        S4 of w^lam, w^lam * r, w^lam * conf and
        w^lam * (w^lam - mean w^lam), with r the correctness, give:

        - plain = sum_m gap_m * S1_m / n, the binned importance-weighted
          calibration error with mass convention 1/n;
        - Cov(u, w^lam) = sum_m gap_m * S4_m / n, and stage one's estimate;
        - Cov(stage-one residuals, r) = (sum_m gap_m * (S2_m - mean r * S1_m)
          + eta1 * ``cross``) / n, and stage two's estimate, which is stage
          one's when correctness is constant.

        Offsetting the bin indices of (temperature, lambda) row k by
        k * bins puts every row's bins into one ``bincount`` per sum; a
        bin of zero-weight samples has no accuracy or confidence and gets
        gap 0. Nothing here reads or fills the memo.
        """
        size, cv = t.shape[0], mode is EstimatorMode.CV_SERIAL
        conf = self.confidences(t)
        tiles, offsets = self.tiles
        wl = self.flattened
        shape = (size, len(self.lambdas), self.num_bins)
        flat = (bin_indices(conf, self.num_bins)[:, None, :] + offsets[:size]).ravel()
        terms = [tiles[0, :size], tiles[1, :size], wl * conf[:, None, :]]
        if cv:
            terms.append(tiles[2, :size])
        mass, correct_sum, conf_sum, *spread = (
            sums.reshape(shape)
            for sums in _bin_sums(flat, math.prod(shape), *(term.ravel() for term in terms))
        )
        occupied = mass > 0.0
        accuracy = np.divide(correct_sum, mass, out=np.zeros(shape), where=occupied)
        gap = np.abs(accuracy - np.divide(conf_sum, mass, out=np.zeros(shape), where=occupied))
        n = wl.shape[1]
        plain = (gap * mass).sum(axis=-1) / n
        if not cv:
            return plain, None, plain
        cov1 = (gap * spread[0]).sum(axis=-1) / n
        est1, eta1 = _stage(plain, cov1, self.weight_variate, 1.0)
        correctness = self.correct_variate
        residual_cov = (gap * (correct_sum - correctness.mean[0] * mass)).sum(axis=-1)
        cov2 = (residual_cov + eta1 * self.cross) / n
        values, eta2 = _stage(est1, cov2, correctness, _row_means(conf)[:, None])
        return values, (eta1, cov1, eta2, cov2), plain

    def scores(self, t: np.ndarray, mode: EstimatorMode) -> np.ndarray:
        """The mode's (B, lambdas) estimates at each temperature in ``t``.

        Only the temperatures whose memo entry lacks the mode's estimates are
        scored, in one pass; the kernel is batch-invariant, so a remembered
        value is the one a fresh pass would give, bit for bit.
        """
        cv = mode is EstimatorMode.CV_SERIAL
        keys = t.tolist()
        missing = [key for key in keys if not _holds(self.memo.get(key), cv)]
        if missing:
            fresh = len(missing) == len(keys)
            values, moments, plain = self.estimates(t if fresh else np.array(missing), mode)
            arrays = (plain, values, *moments) if cv else (plain,)
            self.memo.update(zip(missing, zip(repeat(arrays), range(len(missing)))))
            if fresh:
                return values
        return np.array([arrays[cv][b] for arrays, b in map(self.memo.__getitem__, keys)])

    def at(
        self, t: float, row: int, mode: EstimatorMode
    ) -> tuple[float, ControlVariateCoefficients | None]:
        """Estimate and control-variate coefficients at t for ``lambdas[row]``, from the memo."""
        self.scores(np.array([t]), mode)
        arrays, b = self.memo[t]
        if mode is EstimatorMode.PLAIN_IWECE:
            return float(arrays[0][b, row]), None
        return float(arrays[1][b, row]), _serial_coefficients(
            row, self.weight_variate, self.correct_variate, tuple(m[b] for m in arrays[2:])
        )


_LAMBDAS = tuple(np.linspace(0.0, 1.0, _LAMBDA_GRID_SIZE).tolist())


class TransCalState:
    """The scores the transcal fits on one fitting split share.

    Holds the validated inputs, the 11-lambda context of the free-lambda
    fits, the 1-lambda context of the frozen ones (built on first use) and
    their memos. Pass it to ``optimize_transcal`` as ``state`` with the very
    arrays and bins it was built from, and do not modify those arrays while
    it is in use. A frozen fit first copies the lambda = 1 column of what
    the free fits scored. The module docstring says why sharing is exact.
    """

    def __init__(self, logits, labels, weights, bins: int = 15):
        self._arrays = (logits, labels, weights)
        self.full = _ObjectiveContext(_fit_inputs(logits, labels, weights, bins), _LAMBDAS)

    @cached_property
    def frozen(self) -> _ObjectiveContext:
        return _ObjectiveContext(self.full.inputs, (1.0,))

    def built_from(self, logits, labels, weights, bins) -> bool:
        """Whether the state was built from these very arrays and this bin count."""
        same = all(a is b for a, b in zip(self._arrays, (logits, labels, weights)))
        return same and _num_bins(bins) == self.full.num_bins

    def context(self, freeze_lambda: bool) -> _ObjectiveContext:
        return self.frozen if freeze_lambda else self.full

    def scores(self, t: np.ndarray, mode: EstimatorMode, freeze_lambda: bool) -> np.ndarray:
        """The (B, lambdas) estimates of the fit's context, read from the memos where they can be."""
        if freeze_lambda and self.full.memo:
            # copy the lambda = 1 column of what the free fits scored
            cv = mode is EstimatorMode.CV_SERIAL
            shared, own = self.full.memo, self.frozen.memo
            for key in t.tolist():
                entry = shared.get(key)
                if _holds(entry, cv) and not _holds(own.get(key), cv):
                    arrays, b = entry
                    own[key] = (tuple(a[:, len(_LAMBDAS) - 1 :] for a in arrays), b)
        return self.context(freeze_lambda).scores(t, mode)


def transcal_objective(
    logits: np.ndarray,
    labels: np.ndarray,
    weights,
    t: float,
    lam: float,
    mode: EstimatorMode | str = EstimatorMode.CV_SERIAL,
    bins: int = 15,
) -> float:
    """Evaluate the optimizer's estimate of target calibration error.

    The raw weights are flattened by w^lam, the binned weighted gap is
    decomposed into per-sample contributions, and the mode's
    control-variate correction is applied. All-zero weights, and weights
    whose sum or sum of squares overflows, raise DegeneracyError as in
    ``optimize_transcal``.
    """
    mode = EstimatorMode(mode)
    ctx = _ObjectiveContext(_fit_inputs(logits, labels, weights, bins), (float(lam),))
    if not (0.0 <= ctx.lambdas[0] <= 1.0):
        raise ValueError(f"lambda must lie in [0, 1], got {lam}")
    return ctx.at(TemperatureParam(float(t)).t, 0, mode)[0]


def optimize_transcal(
    logits: np.ndarray,
    labels: np.ndarray,
    weights,
    mode: EstimatorMode | str = EstimatorMode.CV_SERIAL,
    bins: int = 15,
    freeze_lambda: bool = False,
    state: TransCalState | None = None,
) -> TransCalSolution:
    """Search temperature and lambda minimizing the corrected estimate.

    The temperature search is ``scaling._minimize_temperature``, the engine
    every temperature fit shares, run on the lambda profile
    f(t) = min over lambda in linspace(0, 1, 11) of the estimate at
    (t, lambda); each f(t) scores all 11 lambdas in one pass. Ties resolve
    to the smaller temperature, then the smaller lambda; lambda* is the
    profile's minimizer at t*. ``freeze_lambda`` pins lambda at 1 so only
    the temperature is searched (the no-bias-reduction variant);
    ``mode=PLAIN_IWECE`` drops the variance correction instead. The search
    is deterministic and every (t, lambda) evaluation is recorded in the
    trace, whether it was scored or read from the memo.

    ``state`` is a ``TransCalState`` built from these same arguments; fits
    that share one score each temperature once. It changes no result, and
    without it each call builds its own.
    """
    mode = EstimatorMode(mode)
    if state is None:
        state = TransCalState(logits, labels, weights, bins)
    elif not state.built_from(logits, labels, weights, bins):
        raise ValueError(
            "state was built from other inputs; build one TransCalState per fitting split"
        )
    ctx = state.context(freeze_lambda)
    lambdas = ctx.lambdas
    values = ctx.weights

    trace: list[tuple[float, float, float]] = []
    profile_row: dict[float, int] = {}

    def profile(t: np.ndarray) -> np.ndarray:
        at_t = state.scores(t, mode, freeze_lambda)
        best = np.argmin(at_t, axis=1)  # the first minimum: the smaller lambda on ties
        for t_b, row, best_b in zip(t.tolist(), at_t.tolist(), best.tolist()):
            trace.extend(zip([t_b] * len(lambdas), lambdas, row))
            profile_row[t_b] = best_b
        return at_t[np.arange(t.shape[0]), best]

    chosen_t, best_v, at_bound = _minimize_temperature(profile, ctx.batch)
    chosen = profile_row[chosen_t]
    grid_evaluations = _GRID_SIZE * len(lambdas)

    objective_value, coefficients = ctx.at(chosen_t, chosen, mode)
    diagnostics = {
        "max_weight_raw": float(values.max()),
        "max_weight_transformed": float(ctx.flattened[chosen].max()),
        "renyi_raw": {str(a): renyi_diagnostic(values, a) for a in (0.5, 1.0, 2.0)},
        "grid_evaluations": grid_evaluations,
        "total_evaluations": len(trace),
        "refined": best_v < min(v for _, _, v in trace[:grid_evaluations]),
        "freeze_lambda": bool(freeze_lambda),
    }
    return TransCalSolution(
        t_star=TemperatureParam(t=chosen_t, degenerate=at_bound),
        lambda_star=lambdas[chosen],
        objective_value=objective_value,
        mode=mode,
        coefficients=coefficients,
        trace=trace,
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
