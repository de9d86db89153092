"""Post-hoc calibration maps fitted on held-out logits.

Both temperature fits solve for beta = 1 / t with one safeguarded Newton
iteration, ``_solve_beta``: it takes a function giving the objective's
slope and curvature in beta, a beta bracket and a start point, and each
pass over the rows gives both derivatives.

- The plain NLL temperature (``temp`` and ``oracle``) is the root of a
  monotone slope: the mean NLL of softmax(beta * logits) is convex in
  beta, so ``fit_temperature_nll`` solves once over [1 / T_MAX, 1 / T_MIN]
  from beta = 1.
- The importance-weighted Brier score (``cpcs``) is not convex in beta and
  can have several local minima. ``fit_cpcs_temperature`` scores a
  12-point log grid over [T_MIN, T_MAX] in batches of temperatures sized
  by the working-set budget ``metrics._BATCH_ELEMENTS``, solves between
  the neighbours of every local minimum of that grid, and returns the
  best of the grid points and the roots, so its temperature is never
  worse than a scanned one.

The grid and golden-section engine of the transcal fits, whose binned
objective is not smooth, lives in ``transcal``.

An objective evaluation does only the work that depends on t. Inputs are
validated and shifted by their row maxima (``_shifted``) once per fit;
every temperature path divides or multiplies that one array. The Brier
scan builds no ``ProbabilitySet``. Softmax and Brier row sums over fewer
than 16 classes are column adds in numpy's own order, sequential below 8
classes and pairwise from 8 on (``metrics._row_sums``), so the scan's
values are the public weighted Brier score's, bit for bit.

Vector and matrix scaling minimize the mean NLL of softmax(scale o logits +
bias), which is convex, from the identity map on the package's one damped
Newton driver (``newton.damped_newton``, shared with the domain
classifier). Preconditioned conjugate gradients on Hessian-vector products
give each Newton direction (see ``_fit_affine``), so a step costs O(n K^2)
and memory stays O(n K + K^2): no Hessian of the K(K+1) matrix-scaling
parameters is ever formed. Labels of a single class have no minimizer and
raise DegeneracyError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import DegeneracyError
from .metrics import (
    _BATCH_ELEMENTS,
    ProbabilitySet,
    _brier_rows,
    _row_sums,
    check_array,
    check_labels,
    check_weights,
)
from .newton import conjugate_gradient, damped_newton

__all__ = [
    "AffineScaleParam",
    "T_MAX",
    "T_MIN",
    "TemperatureParam",
    "apply_affine_scaling",
    "fit_cpcs_temperature",
    "fit_matrix_scaling",
    "fit_oracle_temperature",
    "fit_temperature_nll",
    "fit_vector_scaling",
    "softmax_with_temperature",
]

T_MIN = 0.05
T_MAX = 100.0
# a fitted temperature within SEARCH_TOL of a bound is flagged degenerate; the
# transcal search also stops its golden-section steps at SEARCH_TOL in t
SEARCH_TOL = 1e-4
# the beta solve stops once a step moves beta by at most _BETA_RTOL of it, or after
# _MAX_PASSES passes over the rows (bisection alone narrows [_BETA_MIN, _BETA_MAX]
# that far in about 30)
_BETA_MIN, _BETA_MAX = 1.0 / T_MAX, 1.0 / T_MIN
_BETA_RTOL = 1e-8
_MAX_PASSES = 100
# log-spaced temperatures the cpcs fit scores before it solves
_SCAN_SIZE = 12


@dataclass
class TemperatureParam:
    """A fitted softmax temperature. ``degenerate`` flags boundary or ill-posed fits."""

    t: float
    degenerate: bool = False

    def __post_init__(self) -> None:
        if not (math.isfinite(self.t) and self.t > 0.0):
            raise ValueError(f"temperature must be positive and finite, got {self.t!r}")

    @property
    def temperature(self) -> float:
        return self.t

    def describe(self) -> dict:
        """The fit's report fields, as ``calibrate`` and ``bench`` write them."""
        return {"temperature": self.t, "degenerate": self.degenerate}


@dataclass
class AffineScaleParam:
    """Class-wise affine recalibration: softmax(scale o logits + bias).

    The shape of ``scale`` picks the map: (K,) applies it elementwise
    (vector scaling), (K, K) as a matrix product (matrix scaling). ``kind``
    only names the fit, "vector" or "matrix".
    """

    scale: np.ndarray
    bias: np.ndarray
    kind: str
    iterations: int = 0
    converged: bool = False
    initial_loss: float = math.nan
    final_loss: float = math.nan
    temperature = None  # not a field: an affine map has no single temperature

    def describe(self) -> dict:
        """The fit's report fields, as ``calibrate`` and ``bench`` write them."""
        return {
            "scale": self.scale,
            "bias": self.bias,
            "iterations": self.iterations,
            "converged": self.converged,
            "initial_loss": self.initial_loss,
            "final_loss": self.final_loss,
        }


def _shifted(logits: np.ndarray) -> np.ndarray:
    """The logits minus their row max, floored at -float max: shift once, then
    scale by 1 / t (Blanchard, Higham & Higham, *IMA J. Numer. Anal.* 2021).

    The floor keeps a row whose logit range overflows finite, where -inf
    would make 0 * -inf = NaN in the NLL slope. Scaling may still overflow
    an entry to -inf, whose exponential is the 0 it underflows to anyway.
    """
    with np.errstate(over="ignore"):
        shifted = logits - logits.max(axis=1, keepdims=True)
    return np.maximum(shifted, -np.finfo(float).max, out=shifted)


def _softmax_terms(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Exponentials of the rows of ``z``, whose max is 0, and their row sums.

    Rows run along the last axis, so ``z`` may stack one (n, K) block per
    temperature. Overwrites ``z``: exponentiates it in place and returns
    ``(z, z.sum(axis=-1, keepdims=True))``, summed by ``_row_sums``. The
    softmax is ``z / sums``.
    """
    np.exp(z, out=z)
    return z, _row_sums(z)


def _affine_map(logits: np.ndarray, scale: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """scale o logits + bias: elementwise for a (K,) scale, a matrix product for (K, K)."""
    return logits * scale + bias if scale.ndim == 1 else logits @ scale.T + bias


def _check_fit_inputs(logits, labels) -> tuple[np.ndarray, np.ndarray]:
    """Validated logits with at least two classes, and one in-range label per row."""
    logits = check_array(logits, "logits", 2)
    if logits.shape[1] < 2:
        raise ValueError("logits must be a 2-d array with at least two classes")
    return logits, check_labels(labels, logits.shape[1], logits.shape[0])


def softmax_with_temperature(logits: np.ndarray, temperature: float) -> ProbabilitySet:
    """Softmax of logits / temperature; the row argmax is that of the raw logits.

    Dividing by a positive temperature never changes the row ranking, so
    predictions (and hence accuracy) are unchanged; only confidences move.
    """
    logits = check_array(logits, "logits", 2)
    t = TemperatureParam(float(temperature)).t
    with np.errstate(over="ignore"):
        p, sums = _softmax_terms(_shifted(logits) / t)
    p /= sums
    return ProbabilitySet(probs=p, predictions=np.argmax(logits, axis=1))


def _nll_derivatives(shifted: np.ndarray, label_shifted: np.ndarray, beta: float) -> tuple[float, float]:
    """First and second derivatives in beta of the mean NLL of softmax(beta * logits).

    ``shifted`` holds the logits minus their row max and ``label_shifted``
    its label column. The slope is mean(E_p[L] - L_y) and the curvature
    mean(Var_p(L)) >= 0, with p = softmax(beta * L): one pass over the rows
    gives both. Shifting by the row max changes neither, and keeps every
    exponential at most 1.
    """
    # row sums as a product with ones: faster than .sum(axis=1) on a narrow (n, K) array
    ones = np.ones(shifted.shape[1])
    with np.errstate(over="ignore"):
        e = np.exp(beta * shifted)
    sums = e @ ones
    e *= shifted
    mean = (e @ ones) / sums
    e *= shifted
    n = shifted.shape[0]
    # misclassified rows whose label logit is -float max below their max can overflow
    # this sum: +inf is then the slope, and the fit returns T_MAX flagged degenerate
    with np.errstate(over="ignore"):
        slope = float((mean - label_shifted).sum()) / n
    curvature = float(((e @ ones) / sums - mean * mean).sum()) / n
    return slope, curvature


def _solve_beta(derivatives, lo: float, hi: float, beta: float) -> float:
    """The minimum in beta of a smooth objective on [lo, hi], by safeguarded Newton steps.

    ``derivatives`` maps beta to the objective's slope and curvature there,
    from one pass over the rows. A safeguarded Newton iteration (rtsafe:
    Press et al., *Numerical Recipes*, 9.4) starts at ``beta`` and takes
    its steps on log beta, since a temperature is a scale. Every evaluated
    beta narrows a bracket: a beta whose slope is at most 0 becomes its
    lower end, one whose slope is positive its upper end. A Newton step
    that leaves the bracket, or is longer than half the last step, bisects
    the bracket (in log beta) instead, unless it heads towards an end whose
    slope is not known yet: the solve evaluates that end, and returns it as
    it is if its slope points outward. The iteration stops once a step
    moves beta by at most ``_BETA_RTOL`` of it.

    Each bisection keeps a non-positive slope at the lower end and a
    positive one at the upper end, so the root it closes in on is a local
    minimum even where the objective is not convex; a zero curvature, or
    a negative one, only makes the step a bisection.
    """
    lo_end, hi_end = lo, hi
    lo_seen = hi_seen = False
    last_step = math.inf
    for _ in range(_MAX_PASSES):
        slope, curvature = derivatives(beta)
        if slope <= 0.0:  # the minimum lies at a larger beta, or the objective is flat
            if beta == hi_end:
                return beta
            lo, lo_seen = beta, True
        else:
            if beta == lo_end:
                return beta
            hi, hi_seen = beta, True
        # a Newton step on log beta: from beta = 1 a step on beta itself often
        # leaves the bracket when the root is near, and then costs more passes
        if curvature > 0.0:
            step = -slope / (beta * curvature)
        else:
            step = math.inf if slope <= 0.0 else -math.inf
        if math.log(lo / beta) <= step <= math.log(hi / beta) and abs(step) <= 0.5 * last_step:
            target = beta * math.exp(step)
        # the step leaves the bracket or is longer than half the last one, as
        # steps towards a minimum beyond an end are: try that end, else bisect
        elif step > 0.0 and not hi_seen:
            target = hi
        elif step < 0.0 and not lo_seen:
            target = lo
        else:
            target = math.sqrt(lo * hi)
        last_step, beta = abs(math.log(target / beta)), target
        if last_step <= _BETA_RTOL:
            break
    return beta


def _temperature(t: float) -> TemperatureParam:
    """A fitted temperature, flagged degenerate within SEARCH_TOL of a bound."""
    return TemperatureParam(t=t, degenerate=not T_MIN + SEARCH_TOL < t < T_MAX - SEARCH_TOL)


def fit_temperature_nll(logits: np.ndarray, labels: np.ndarray) -> TemperatureParam:
    """Fit the temperature minimizing NLL on held-out logits.

    The mean NLL of softmax(beta * logits) is convex in beta = 1 / t, so its
    minimum is the root of its slope, which never falls as beta grows.
    ``_solve_beta`` finds that root in [1 / T_MAX, 1 / T_MIN], starting at
    beta = 1; each pass over the rows gives the slope and curvature
    together (``_nll_derivatives``). A minimum beyond a bound returns the
    bound, flagged degenerate: all-correct separable labels give T_MIN
    this way, labels that are every row's smallest logit T_MAX.

    Rows whose logits are all tied make the NLL flat; the fit returns
    T_MIN, flagged degenerate, as a search that prefers the smaller of
    tied temperatures would. A minimum within SEARCH_TOL of a bound is
    flagged too.
    """
    logits, labels = _check_fit_inputs(logits, labels)
    shifted = _shifted(logits)
    label_shifted = shifted[np.arange(shifted.shape[0]), labels]
    derivatives = partial(_nll_derivatives, shifted, label_shifted)
    return _temperature(1.0 / _solve_beta(derivatives, _BETA_MIN, _BETA_MAX, 1.0))


def fit_oracle_temperature(target_logits: np.ndarray, target_labels: np.ndarray) -> TemperatureParam:
    """Fit a temperature directly on labeled evaluation-domain data.

    An upper reference: the same NLL search as ``fit_temperature_nll`` run
    on the domain where calibration is measured.
    """
    return fit_temperature_nll(target_logits, target_labels)


def _require_weight_mass(w: np.ndarray) -> None:
    """Raise DegeneracyError unless sum(w) is positive, sum(w) and sum(w**2) are
    finite, and the Kish effective sample size (sum w)^2 / sum(w**2) is at least 2."""
    top = float(w.max())
    if top == 0.0:
        raise DegeneracyError("importance weights are all zero")
    with np.errstate(over="ignore"):
        if not (math.isfinite(float(w.sum())) and math.isfinite(float(np.dot(w, w)))):
            raise DegeneracyError(
                "importance weights overflow: their sum or sum of squares is not finite"
            )
    scaled = w / top
    ess = float(scaled.sum()) ** 2 / float(np.dot(scaled, scaled))
    if ess < 2.0:
        raise DegeneracyError(
            f"importance weights rest on fewer than two samples: Kish effective sample size {ess:.3g}"
        )


def _weighted_brier(shifted: np.ndarray, labels: np.ndarray, weights: np.ndarray, t: np.ndarray) -> np.ndarray:
    """sum(w_i * bs_i) / sum(w_i) at each temperature in ``t``, with bs_i the
    Brier score of row i under softmax(shifted / t).

    Temperatures are scored in consecutive batches of
    ``_BATCH_ELEMENTS // shifted.size`` (at least 1), so a batch's (B, n, K)
    stack stays within the working-set budget; each value depends only on
    its own temperature, so the batch changes no bit.
    """
    batch = max(1, _BATCH_ELEMENTS // shifted.size)
    values = []
    for i in range(0, t.shape[0], batch):
        with np.errstate(over="ignore"):
            p, sums = _softmax_terms(shifted / t[i : i + batch, None, None])
        p /= sums
        # one dot per temperature: a matrix-vector product could sum in another order
        values += [np.dot(weights, row) for row in _brier_rows(p, labels)]
    return np.array(values) / float(weights.sum())


def _brier_derivatives(
    shifted: np.ndarray, labels: np.ndarray, shares: np.ndarray, beta: float
) -> tuple[float, float]:
    """First and second derivatives in beta of the weighted Brier score of softmax(beta * logits).

    ``shifted`` holds the logits minus their row max and ``shares`` the
    weights divided by their sum. With p = softmax(beta * L) and
    d = L - E_p[L], p' = p * d and p'' = p * (d^2 - Var_p L), so a row's
    Brier score sum_k (p_k - y_k)^2 / K has the slope
    (2 / K) * (sum_k p_k^2 d_k - p_y d_y) and the curvature
    (2 / K) * (2 sum_k p_k^2 d_k^2 - Var_p L * sum_k p_k^2 - p_y d_y^2 + p_y Var_p L).
    One pass over the rows gives both. The label terms are gathered from
    the (n, K) products p * d and p * d * d, which are 0 wherever p is 0:
    d_y itself can be -float max, whose square overflows.
    """
    n, k = shifted.shape
    # row sums as a product with ones: faster than .sum(axis=1) on a narrow (n, K) array
    ones = np.ones(k)
    with np.errstate(over="ignore"):
        p = np.exp(beta * shifted)
    p /= (p @ ones)[:, None]
    d = shifted - ((p * shifted) @ ones)[:, None]
    pd = p * d
    pdd = pd * d
    variance = pdd @ ones
    rows = np.arange(n)
    slope = (p * pd) @ ones - pd[rows, labels]
    curvature = 2.0 * ((pd * pd) @ ones) - variance * ((p * p) @ ones)
    curvature += p[rows, labels] * variance - pdd[rows, labels]
    return 2.0 / k * float(shares @ slope), 2.0 / k * float(shares @ curvature)


def fit_cpcs_temperature(logits: np.ndarray, labels: np.ndarray, weights) -> TemperatureParam:
    """Fit a temperature minimizing the importance-weighted Brier score.

    The objective is sum(w_i * bs_i) / sum(w_i) where bs_i is the
    per-sample Brier score at the candidate temperature. It is not convex
    in beta = 1 / t and can have several local minima, so the fit scores
    a ``_SCAN_SIZE``-point log grid over [T_MIN, T_MAX]
    (``_weighted_brier``), and around every local minimum g_i of that grid
    runs ``_solve_beta`` on the slope and curvature of
    ``_brier_derivatives`` between 1 / g_(i+1) and 1 / g_(i-1), from
    1 / g_i. It returns the lowest (value, t) of the grid points and the
    roots, so the result is never worse than a scanned temperature and
    ties go to the smaller t.

    Weight vectors concentrated on few samples can drive the optimum to a
    bound; the degenerate flag reports that. All-zero weights, weights
    whose sum or sum of squares overflows, and weights with a Kish
    effective sample size below 2 raise DegeneracyError.
    """
    logits, labels = _check_fit_inputs(logits, labels)
    w = check_weights(weights, logits.shape[0])
    _require_weight_mass(w)
    shifted = _shifted(logits)
    grid = np.geomspace(T_MIN, T_MAX, _SCAN_SIZE).tolist()
    values = _weighted_brier(shifted, labels, w, np.array(grid)).tolist()
    derivatives = partial(_brier_derivatives, shifted, labels, w / float(w.sum()))
    last = _SCAN_SIZE - 1
    roots = [
        1.0 / _solve_beta(derivatives, 1.0 / grid[min(i + 1, last)], 1.0 / grid[max(i - 1, 0)], 1.0 / grid[i])
        for i, v in enumerate(values)
        if (i == 0 or v < values[i - 1]) and (i == last or v <= values[i + 1])
    ]
    root_values = _weighted_brier(shifted, labels, w, np.array(roots)).tolist()
    _, t = min(zip(values + root_values, grid + roots))
    return _temperature(t)


def _softmax_nll(transformed: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross-entropy of softmax(transformed), and that softmax.

    Overwrites ``transformed``. The label's shifted logit is taken before
    ``_softmax_terms`` exponentiates the rows in place, so the loss is
    ``log(row sum) - shifted label logit`` and never the log of an
    underflowed probability.

    Overflow is not a programming error here: a non-finite loss is the
    divergence signal that rejects a trial step or raises DegeneracyError.
    """
    n = transformed.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        transformed -= transformed.max(axis=1, keepdims=True)
        label_shifted = transformed[np.arange(n), labels]
        probs, sums = _softmax_terms(transformed)
        loss = float((np.log(sums[:, 0]) - label_shifted).sum()) / n
        probs /= sums
    return loss, probs


def _fit_affine(logits: np.ndarray, labels: np.ndarray, kind: str) -> AffineScaleParam:
    """Minimize the mean NLL of softmax(scale o logits + bias) by Newton-CG from the identity map.

    The parameters form one array ``theta`` on which the map z(theta) is
    linear: (2, K) rows [scale, bias] for vector scaling, and the (K, K+1)
    block [W, b] acting on x = [logits, 1] for matrix scaling. ``push``
    evaluates z at a direction and ``pull`` is its adjoint, so the
    gradient is pull(P - Y) / n and a Hessian-vector product
    pull(P o dz - P o rowsum(P o dz)) / n with dz = push(v): one pass over
    the rows each, and no Hessian is ever formed.

    Conjugate gradients (``newton.conjugate_gradient``) solve each Newton
    system of the shared damped Newton driver. Vector scaling is
    preconditioned by the inverse of each class's 2 x 2 Hessian block over
    its scale and bias: when a class's logits sit far from zero, those two
    columns are nearly collinear, which the Hessian diagonal cannot undo.
    Matrix scaling is preconditioned by the Kronecker-factored curvature
    V -> A⁺ V M⁻¹ with A = mean(diag p - p pᵀ) and M = xᵀx / n (Martens &
    Grosse, ICML 2015).

    Adding one vector to every class's row of ``theta`` (only the bias row,
    for vector scaling) leaves the loss unchanged, so both preconditioners
    re-centre their output to zero class mean: the iterates stay on the
    identity map's coset, with sum(bias) = 0 and, for matrix scaling, the
    columns of W - I summing to 0.
    """
    logits, labels = _check_fit_inputs(logits, labels)
    if np.all(labels == labels[0]):
        raise DegeneracyError(
            f"{kind} scaling has no minimizer: every label is class {labels[0]}"
        )
    n, k = logits.shape
    rows = np.arange(n)
    # column sums as a product with ones: several times faster than .sum(axis=0)
    # on a narrow (n, K) array
    ones_n = np.ones(n)
    if kind == "vector":
        identity = np.stack([np.ones(k), np.zeros(k)])

        def push(v: np.ndarray) -> np.ndarray:
            return logits * v[0] + v[1]

        def pull(d: np.ndarray) -> np.ndarray:
            return np.stack([ones_n @ (d * logits), ones_n @ d])

        def preconditioner(probs: np.ndarray):
            curvature = probs * (1.0 - probs)
            weighted = curvature * logits
            # each class's 2 x 2 Hessian block [[ss, sb], [sb, bb]] over its scale and bias.
            # Curvature below the float resolution of the largest counts as that
            # resolution (with none at all, as 1), and so does a determinant below
            # that of ss * bb: rounding-sized entries must not blow up a residual
            eps = np.finfo(float).eps
            ss, sb, bb = ones_n @ (weighted * logits) / n, ones_n @ weighted / n, ones_n @ curvature / n
            floor = eps * max(ss.max(), bb.max()) or 1.0
            np.maximum(ss, floor, out=ss)
            np.maximum(bb, floor, out=bb)
            det = np.maximum(ss * bb - sb * sb, eps * ss * bb)

            def precondition(r: np.ndarray) -> np.ndarray:
                rs, rb = r.reshape(identity.shape)
                v = np.stack([bb * rs - sb * rb, ss * rb - sb * rs]) / det
                v[1] -= v[1].mean()
                return v.ravel()

            return precondition

    else:
        x = np.hstack([logits, np.ones((n, 1))])
        identity = np.eye(k, k + 1)
        m_inv = np.linalg.pinv(x.T @ x / n, hermitian=True)

        def push(v: np.ndarray) -> np.ndarray:
            return x @ v.T

        def pull(d: np.ndarray) -> np.ndarray:
            return d.T @ x

        def preconditioner(probs: np.ndarray):
            # A annihilates the unit vector u along ones. A + u uᵀ has eigenvalue 1 there
            # instead of a rounding-sized one that pinv might invert, and A's inverse on
            # the complement of u, where the re-centred residuals lie
            a = np.diag(ones_n @ probs) / n - probs.T @ probs / n
            a_inv = np.linalg.pinv(a + 1.0 / k, hermitian=True)

            def precondition(r: np.ndarray) -> np.ndarray:
                v = a_inv @ r.reshape(identity.shape) @ m_inv
                v -= v.mean(axis=0)
                return v.ravel()

            return precondition

    def loss_at(theta: np.ndarray) -> tuple[float, np.ndarray]:
        return _softmax_nll(push(theta.reshape(identity.shape)), labels)

    def gradient(theta: np.ndarray, probs: np.ndarray) -> np.ndarray:
        residual = probs.copy()
        residual[rows, labels] -= 1.0
        return pull(residual).ravel() / n

    def direction(theta: np.ndarray, probs: np.ndarray, grad: np.ndarray) -> np.ndarray:
        def hessian_product(v: np.ndarray) -> np.ndarray:
            dz = push(v.reshape(identity.shape))
            dz -= np.einsum("ij,ij->i", probs, dz)[:, None]
            dz *= probs
            return pull(dz).ravel() / n

        return conjugate_gradient(hessian_product, preconditioner(probs), grad)

    initial_loss, _ = loss_at(identity.ravel())
    if not math.isfinite(initial_loss):
        raise DegeneracyError(f"{kind} scaling diverged: non-finite loss at the identity map")
    fit = damped_newton(identity.ravel(), loss_at, gradient, direction)
    theta = fit.x.reshape(identity.shape)
    return AffineScaleParam(
        scale=theta[0] if kind == "vector" else theta[:, :k],
        bias=theta[1] if kind == "vector" else theta[:, k],
        kind=kind,
        iterations=fit.iterations,
        converged=fit.converged,
        initial_loss=initial_loss,
        final_loss=fit.loss,
    )


def fit_vector_scaling(logits: np.ndarray, labels: np.ndarray) -> AffineScaleParam:
    """Fit per-class scale and bias minimizing NLL (Newton-CG from the identity map).

    Labels of a single class have no minimizer and raise DegeneracyError.
    """
    return _fit_affine(logits, labels, "vector")


def fit_matrix_scaling(logits: np.ndarray, labels: np.ndarray) -> AffineScaleParam:
    """Fit a full K x K transform and bias minimizing NLL (Newton-CG from the identity map).

    Labels of a single class have no minimizer and raise DegeneracyError.
    """
    return _fit_affine(logits, labels, "matrix")


def apply_affine_scaling(logits: np.ndarray, param: AffineScaleParam) -> ProbabilitySet:
    """Apply a fitted affine recalibration map to logits.

    Unlike temperature scaling, the affine map can reorder classes, so
    predictions come from the transformed logits.
    """
    logits = check_array(logits, "logits", 2)
    z = _affine_map(logits, param.scale, param.bias)
    z -= z.max(axis=1, keepdims=True)
    p, sums = _softmax_terms(z)
    p /= sums
    return ProbabilitySet(probs=p, predictions=np.argmax(p, axis=1))
