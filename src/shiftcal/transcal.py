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
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .metrics import _bin_statistics, _num_bins, bin_indices, check_array, check_weights
from .scaling import (
    _GRID_SIZE,
    TemperatureParam,
    _check_fit_inputs,
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


def apply_control_variate(
    u_samples: np.ndarray, t_samples: np.ndarray, tau: float
) -> tuple[float, np.ndarray, ControlVariateCoefficients]:
    """Regression-adjust samples with one control variate of known mean tau.

    The optimal coefficient is eta = -Cov(u, t) / Var(t); the adjusted
    samples are u_i + eta * (t_i - tau) and the returned estimate is their
    mean. A variate with zero variance leaves the samples unchanged and is
    flagged. Adjusted samples are returned so corrections can be chained.
    """
    u = check_array(u_samples, "u_samples", 1)
    t = check_array(t_samples, "t_samples", 1)
    if u.shape != t.shape:
        raise ValueError("u_samples and t_samples must have the same length")
    tau = float(tau)
    if not math.isfinite(tau):
        raise ValueError("tau must be finite")
    u_mean, t_mean = float(u.mean()), float(t.mean())
    dt = t - t_mean
    cov, var = float(((u - u_mean) * dt).mean()), float((dt * dt).mean())
    if var == 0.0:
        coeffs = ControlVariateCoefficients(
            eta1=0.0, cov_u_t1=cov, var_t1=var, flags=("constant_variate",)
        )
        return u_mean, u.copy(), coeffs
    eta = -cov / var
    adjusted = u + eta * (t - tau)
    estimate = u_mean + eta * (t_mean - tau)
    coeffs = ControlVariateCoefficients(eta1=eta, cov_u_t1=cov, var_t1=var)
    return estimate, adjusted, coeffs


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
    est1, adjusted, c1 = apply_control_variate(u_samples, weights, 1.0)
    est2, _, c2 = apply_control_variate(adjusted, correctness, mean_confidence)
    skipped = "constant_variate" in c2.flags
    coeffs = ControlVariateCoefficients(
        eta1=c1.eta1,
        eta2=None if skipped else c2.eta1,
        cov_u_t1=c1.cov_u_t1,
        var_t1=c1.var_t1,
        cov_u_t2=c2.cov_u_t1,
        var_t2=c2.var_t1,
        flags=c1.flags + (("constant_correctness",) if skipped else ()),
    )
    return (est1 if skipped else est2), coeffs


class _ObjectiveContext:
    """Precomputed arrays for repeated (t, lambda) objective evaluations."""

    def __init__(self, logits: np.ndarray, labels: np.ndarray, weights, bins: int):
        logits, labels = _check_fit_inputs(logits, labels)
        self.weights = check_weights(weights, logits.shape[0])
        self.num_bins = _num_bins(bins)
        self.logits = logits
        self.correct = (np.argmax(logits, axis=1) == labels).astype(np.float64)

    def confidences(self, t: float) -> np.ndarray:
        # the predicted class's shifted exponential is exp(0) = 1, so its
        # softmax probability is 1 / row sum, with no gather and no full matrix
        return 1.0 / _softmax_terms(self.logits / t)[1][:, 0]

    def binned(self, t: float) -> tuple[np.ndarray, np.ndarray]:
        """Confidences at temperature t and their bin indices, shared by every lambda."""
        conf = self.confidences(t)
        return conf, bin_indices(conf, self.num_bins)

    def components(
        self, binned: tuple[np.ndarray, np.ndarray], wl: np.ndarray, mode: EstimatorMode
    ) -> tuple[float, ControlVariateCoefficients | None]:
        """Corrected estimate at ``binned(t)`` with flattened weights wl = w^lambda.

        The per-sample contributions are u_i = w_i^lam * |A_m - C_m| for
        the sample's confidence bin, where A_m and C_m are the bin's
        weighted accuracy and weighted mean confidence. The mean of u is
        the binned importance-weighted calibration error with mass
        convention 1/n; the mode's control variates then correct it.
        """
        conf, idx = binned
        mass, accuracy, confidence = _bin_statistics(idx, wl, self.correct, conf, self.num_bins)
        # a bin of zero-weight samples has NaN statistics but contributes u = 0
        u = wl * np.where(mass > 0.0, np.abs(accuracy - confidence), 0.0)[idx]
        if mode is EstimatorMode.PLAIN_IWECE:
            return float(u.mean()), None
        return serial_control_variate(u, wl, self.correct, float(conf.mean()))

    def at(
        self, t: float, lam: float, mode: EstimatorMode
    ) -> tuple[float, ControlVariateCoefficients | None]:
        return self.components(self.binned(t), np.power(self.weights, lam), mode)


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
    control-variate correction is applied.
    """
    mode = EstimatorMode(mode)
    ctx = _ObjectiveContext(logits, labels, weights, bins)
    if not (0.0 <= float(lam) <= 1.0):
        raise ValueError(f"lambda must lie in [0, 1], got {lam}")
    return ctx.at(TemperatureParam(float(t)).t, float(lam), mode)[0]


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
    (t, lambda). Ties resolve to the smaller temperature, then the smaller
    lambda; lambda* is the profile's minimizer at t*. ``freeze_lambda``
    pins lambda at 1 so only the temperature is searched (the
    no-bias-reduction variant); ``mode=PLAIN_IWECE`` drops the variance
    correction instead. The search is deterministic and every (t, lambda)
    evaluation is recorded in the trace.
    """
    mode = EstimatorMode(mode)
    ctx = _ObjectiveContext(logits, labels, weights, bins)
    values = ctx.weights
    _require_weight_mass(values)

    lambdas = (1.0,) if freeze_lambda else tuple(np.linspace(0.0, 1.0, _LAMBDA_GRID_SIZE).tolist())
    flattened = [np.power(values, lam) for lam in lambdas]
    trace: list[tuple[float, float, float]] = []
    profile_lambda: dict[float, float] = {}

    def profile(t: float) -> float:
        t = float(t)
        binned = ctx.binned(t)
        best_v, best_lam = math.inf, lambdas[0]
        for lam, wl in zip(lambdas, flattened):
            v = ctx.components(binned, wl, mode)[0]
            trace.append((t, lam, v))
            if v < best_v:
                best_v, best_lam = v, lam
        profile_lambda[t] = best_lam
        return best_v

    chosen_t, best_v, at_bound = _minimize_temperature(profile)
    chosen_lam = profile_lambda[chosen_t]
    grid_evaluations = _GRID_SIZE * len(lambdas)

    objective_value, coefficients = ctx.at(chosen_t, chosen_lam, mode)
    diagnostics = {
        "max_weight_raw": float(values.max()),
        "max_weight_transformed": float(np.power(values, chosen_lam).max()),
        "renyi_raw": {str(a): renyi_diagnostic(values, a) for a in (0.5, 1.0, 2.0)},
        "grid_evaluations": grid_evaluations,
        "total_evaluations": len(trace),
        "refined": best_v < min(v for _, _, v in trace[:grid_evaluations]),
        "freeze_lambda": bool(freeze_lambda),
    }
    return TransCalSolution(
        t_star=TemperatureParam(t=chosen_t, degenerate=at_bound),
        lambda_star=chosen_lam,
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
