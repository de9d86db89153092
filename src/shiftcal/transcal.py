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
``scaling._minimize_temperature`` hands the profile. Everything that does
not depend on t is computed once per fit: the (11, n) rows of w^lambda,
w^lambda * correctness and w^lambda - 1, their (B, 11, n) tiles, and the
moments of both control variates. A pass is then one confidence
computation, three ``bincount`` calls over bin indices offset by
(temperature, lambda) row, and row-wise moments for both correction
stages. Only stage one forms adjusted samples, because stage two's are
never read. The batch changes no value: elementwise operations do not
depend on position, every reduction runs over the last axis, and
``bincount`` adds each bin's samples in sample order whatever its offset.
``apply_control_variate`` and ``serial_control_variate`` are the one-row,
one-temperature case of the same row-wise kernel.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .metrics import _bin_statistics, _num_bins, bin_indices, check_array, check_weights
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


def _adjust(u: np.ndarray, variate: _Variate, tau) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Regression-adjust each row of ``u`` with its control-variate row of known mean tau.

    Rows run along the last axis of ``u``; the variate's rows broadcast
    against the leading axes, and so does ``tau``. The optimal coefficient
    is eta = -Cov(u, t) / Var(t); the adjusted samples are
    u_i + eta * (t_i - tau) (see ``_adjusted``) and the estimate is their
    mean, u_mean + eta * (t_mean - tau). A row whose variate has zero
    variance keeps its mean, with eta = 0. Returns per row the estimates,
    eta and Cov(u, t).
    """
    u_mean = _row_means(u)
    cov = _row_means((u - u_mean[..., None]) * variate.centred)
    constant = variate.var == 0.0
    eta = np.divide(-cov, variate.var, out=np.zeros_like(cov), where=~constant)
    estimates = np.where(constant, u_mean, u_mean + eta * (variate.mean - tau))
    return estimates, eta, cov


def _adjusted(u: np.ndarray, eta: np.ndarray, excess: np.ndarray) -> np.ndarray:
    """The adjusted samples u_i + eta * (t_i - tau), given the variate's rows minus tau."""
    return u + eta[..., None] * excess


def _serial(
    u: np.ndarray,
    weights: _Variate,
    weight_excess: np.ndarray,
    correctness: _Variate,
    mean_confidence,
) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """Two-stage estimates per row of ``u``, and the (eta, Cov) of each stage.

    Stage one adjusts with the weight variate against its known source
    mean of 1, and ``weight_excess`` is its rows minus 1; stage two adjusts
    the stage-one residuals with the shared correctness row against
    ``mean_confidence``. Constant correctness skips stage two.
    """
    est1, eta1, cov1 = _adjust(u, weights, 1.0)
    est2, eta2, cov2 = _adjust(_adjusted(u, eta1, weight_excess), correctness, mean_confidence)
    estimates = est1 if correctness.var[0] == 0.0 else est2
    return estimates, (eta1, cov1, eta2, cov2)


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
    This is the one-row case of the row-wise adjustment the transcal
    search runs on every lambda at once.
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
    one per sample.
    """
    u, w = _check_samples(u_samples, weights)
    _, r = _check_samples(u, correctness)
    tau = _check_tau(mean_confidence)
    weight_variate, correct_variate = _variate(w), _variate(r)
    estimates, moments = _serial(
        u[None, :], weight_variate, weight_variate.t - 1.0, correct_variate, tau
    )
    return float(estimates[0]), _serial_coefficients(0, weight_variate, correct_variate, moments)


class _ObjectiveContext:
    """Everything a fit's (t, lambda) evaluations share, computed once per fit.

    Row r of every (lambdas, n) array belongs to ``lambdas[r]``: the
    flattened weights w^lambda, their products with correctness, their
    excess over 1 and the weight variate's moments. One evaluation scores
    every lambda at each of a batch of temperatures; ``batch`` is the
    largest batch the engine hands it, and the (batch, lambdas, n) tiles
    feed the bin statistics of a whole batch. Weights without usable mass
    are rejected before any of it is built.
    """

    def __init__(self, logits: np.ndarray, labels: np.ndarray, weights, bins: int, lambdas):
        logits, labels = _check_fit_inputs(logits, labels)
        self.weights = check_weights(weights, logits.shape[0])
        self.num_bins = _num_bins(bins)
        _require_weight_mass(self.weights)
        self.logits = logits
        self.rowmax = logits.max(axis=1, keepdims=True)
        self.correct = (np.argmax(logits, axis=1) == labels).astype(np.float64)
        self.correct_variate = _variate(self.correct)
        self.lambdas = tuple(lambdas)
        self.batch = _grid_batch(max(len(self.lambdas), logits.shape[1]) * logits.shape[0])

    @cached_property
    def tiles(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(batch, lambdas, n) copies of w^lambda and w^lambda * correct, and the
        (batch, lambdas, 1) bin offsets of every (temperature, lambda) row.

        Slice 0 of each tile is the fit's own rows, so a batch of one copies nothing.
        """
        shape = (self.batch, len(self.lambdas), self.weights.shape[0])
        weight_tile, correct_tile = np.empty(shape), np.empty(shape)
        for row, lam in enumerate(self.lambdas):
            np.power(self.weights, lam, out=weight_tile[0, row])
        np.multiply(weight_tile[0], self.correct, out=correct_tile[0])
        weight_tile[1:] = weight_tile[0]
        correct_tile[1:] = correct_tile[0]
        offsets = (np.arange(shape[0] * shape[1]) * self.num_bins).reshape(shape[0], shape[1], 1)
        return weight_tile, correct_tile, offsets

    @property
    def flattened(self) -> np.ndarray:
        return self.tiles[0][0]

    @cached_property
    def excess(self) -> np.ndarray:
        return self.flattened - 1.0

    @cached_property
    def weight_variate(self) -> _Variate:
        return _variate(self.flattened)

    def confidences(self, t: np.ndarray) -> np.ndarray:
        """Top-class softmax probabilities, one row per temperature in ``t``."""
        # the predicted class's shifted exponential is exp(0) = 1, so its
        # softmax probability is 1 / row sum, with no gather and no full matrix
        t = t[:, None, None]
        return 1.0 / _softmax_terms(self.logits / t, self.rowmax / t)[1][..., 0]

    def samples(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-sample contributions at each temperature in ``t``, and the mean confidences.

        Entry [b, r] of the (B, lambdas, n) contributions holds
        u_i = w_i^lam * |A_m - C_m| for the sample's confidence bin at
        t[b], where lam = ``lambdas[r]`` and A_m and C_m are the bin's
        accuracy and mean confidence weighted by w^lam. The mean of a row is
        the binned importance-weighted calibration error with mass
        convention 1/n. Offsetting the bin indices of (temperature, lambda)
        row k by k * bins puts every row's bins into one ``bincount``. The
        mean confidences have shape (B, 1).
        """
        size = t.shape[0]
        conf = self.confidences(t)
        weight_tile, correct_tile, offsets = self.tiles
        flat = (bin_indices(conf, self.num_bins)[:, None, :] + offsets[:size]).ravel()
        wl = self.flattened
        mass, accuracy, confidence = _bin_statistics(
            flat,
            weight_tile[:size].ravel(),
            correct_tile[:size].ravel(),
            (wl * conf[:, None, :]).ravel(),
            size * wl.shape[0] * self.num_bins,
        )
        # a bin of zero-weight samples has NaN statistics but contributes u = 0
        gap = np.where(mass > 0.0, np.abs(accuracy - confidence), 0.0)
        return wl * gap[flat].reshape(size, *wl.shape), _row_means(conf)[:, None]

    def estimates(self, t: np.ndarray, mode: EstimatorMode) -> tuple[np.ndarray, tuple | None]:
        """The mode's (B, lambdas) estimates at each temperature in ``t``, and the
        control-variate moments behind them."""
        u, mean_confidence = self.samples(t)
        if mode is EstimatorMode.PLAIN_IWECE:
            return _row_means(u), None
        return _serial(u, self.weight_variate, self.excess, self.correct_variate, mean_confidence)

    def at(
        self, t: float, row: int, mode: EstimatorMode
    ) -> tuple[float, ControlVariateCoefficients | None]:
        """Estimate and control-variate coefficients at t for ``lambdas[row]``."""
        values, moments = self.estimates(np.array([t]), mode)
        if moments is None:
            return float(values[0, row]), None
        return float(values[0, row]), _serial_coefficients(
            row, self.weight_variate, self.correct_variate, tuple(m[0] for m in moments)
        )


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
    ctx = _ObjectiveContext(logits, labels, weights, bins, (float(lam),))
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
    trace.
    """
    mode = EstimatorMode(mode)
    lambdas = (1.0,) if freeze_lambda else tuple(np.linspace(0.0, 1.0, _LAMBDA_GRID_SIZE).tolist())
    ctx = _ObjectiveContext(logits, labels, weights, bins, lambdas)
    values = ctx.weights

    trace: list[tuple[float, float, float]] = []
    profile_row: dict[float, int] = {}

    def profile(t: np.ndarray) -> np.ndarray:
        at_t = ctx.estimates(t, mode)[0]
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
