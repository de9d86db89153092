"""Post-hoc calibration maps fitted on held-out logits.

The plain NLL temperature (``temp`` and ``oracle``) is the root of a
monotone slope: the mean NLL of softmax(logits / t) is convex in 1 / t, so
``fit_temperature_nll`` runs a bracketed Newton iteration on 1 / t that
needs a handful of passes over the rows, each on the logits minus their
row maxima.

The weighted temperature fits (``cpcs`` and the transcal variants) run one
search engine, ``_minimize_temperature``, on log t over [T_MIN, T_MAX]: a
50-point log-spaced grid brackets the optimum, golden-section search
refines it to SEARCH_TOL in t, and the returned temperature is never worse
than any grid point. Their objectives need not be smooth (transcal bins
its confidences), so the search is derivative-free.

An objective maps a 1-d array of temperatures to a 1-d array of values.
The engine evaluates the grid in consecutive slices of ``batch``
temperatures and each golden-section step as a 1-element array. A fit
picks its batch with ``_grid_batch`` from the float64 elements one
temperature touches (n * K for every temperature objective), so that a
batch's arrays stay near ``_BATCH_ELEMENTS``: numpy call overhead, not
arithmetic, dominates one temperature at a few hundred rows, and a batch
that outgrows the cache loses again. Batching never changes a value:
elementwise IEEE operations do not depend on an element's position, and
every reduction runs over the last axis, which sums each row in the same
order whatever the leading axes.

An objective evaluation does only the work that depends on t. Inputs are
validated and shifted by their row maxima (``_shifted``) once per fit;
every temperature path divides that one array by t. The Brier objective
builds no ``ProbabilitySet``. Softmax and Brier row sums over fewer than
16 classes are column adds in numpy's own order, sequential below 8
classes and pairwise from 8 on (``metrics._row_sums``). The transcal
objective scores its one lambda in one pass per batch of temperatures
(see ``transcal``).

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

import numpy as np

from .errors import DegeneracyError
from .metrics import (
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
SEARCH_TOL = 1e-4
_GRID_SIZE = 50
# float64 elements per grid batch: about 256 KiB, so a batch stays in cache
_BATCH_ELEMENTS = 2**15
# the NLL fit solves for beta = 1 / t in [_BETA_MIN, _BETA_MAX]; it stops once a step
# moves beta by at most _BETA_RTOL of it, or after _MAX_PASSES passes over the rows
# (bisection alone narrows the whole bracket that far in about 30)
_BETA_MIN, _BETA_MAX = 1.0 / T_MAX, 1.0 / T_MIN
_BETA_RTOL = 1e-8
_MAX_PASSES = 100


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


def _grid_batch(footprint: int) -> int:
    """Temperatures per grid batch for a fit that touches ``footprint`` float64 elements per temperature."""
    return max(1, _BATCH_ELEMENTS // footprint)


def _minimize_temperature(objective, batch: int) -> tuple[float, float, bool]:
    """Grid bracket plus golden-section refinement of a vectorized objective over t.

    ``objective`` maps a 1-d array of temperatures to a 1-d array of values.
    The grid is evaluated in consecutive slices of ``batch`` temperatures,
    each golden-section step as one temperature. Returns (t_star, value,
    hit_bound). The returned value is the best of all evaluated points, so
    it is never above any grid value. Ties prefer the smaller temperature.
    """
    grid = np.exp(np.linspace(math.log(T_MIN), math.log(T_MAX), _GRID_SIZE))
    values = np.concatenate(
        [objective(grid[i : i + batch]) for i in range(0, _GRID_SIZE, batch)]
    )
    best_i = 0
    for i in range(1, _GRID_SIZE):  # the first strict minimum; np.argmin would pick a NaN
        if values[i] < values[best_i]:
            best_i = i
    best_t, best_v = grid[best_i], values[best_i]

    def at(t_log: float) -> float:
        return objective(np.array([math.exp(t_log)]))[0]

    lo = grid[max(best_i - 1, 0)]
    hi = grid[min(best_i + 1, _GRID_SIZE - 1)]
    a, b = math.log(lo), math.log(hi)
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc = at(c)
    fd = at(d)
    for t_log, v in ((c, fc), (d, fd)):
        if v < best_v or (v == best_v and math.exp(t_log) < best_t):
            best_t, best_v = math.exp(t_log), v
    iters = 0
    while math.exp(b) - math.exp(a) > SEARCH_TOL and iters < 200:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = at(c)
            t_new, v_new = math.exp(c), fc
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = at(d)
            t_new, v_new = math.exp(d), fd
        if v_new < best_v or (v_new == best_v and t_new < best_t):
            best_t, best_v = t_new, v_new
        iters += 1
    hit_bound = best_t <= T_MIN + SEARCH_TOL or best_t >= T_MAX - SEARCH_TOL
    return float(best_t), float(best_v), bool(hit_bound)


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
    slope = float((mean - label_shifted).sum()) / n
    curvature = float(((e @ ones) / sums - mean * mean).sum()) / n
    return slope, curvature


def fit_temperature_nll(logits: np.ndarray, labels: np.ndarray) -> TemperatureParam:
    """Fit the temperature minimizing NLL on held-out logits.

    The mean NLL of softmax(beta * logits) is convex in beta = 1 / t, so its
    minimum is the root of its slope, which never falls as beta grows. A
    safeguarded Newton iteration (rtsafe: Press et al., *Numerical Recipes*,
    9.4) finds that root in [1 / T_MAX, 1 / T_MIN], starting at beta = 1;
    each pass over the rows gives the slope and curvature together
    (``_nll_derivatives``). Newton steps are taken on log beta, since a
    temperature is a scale. Every evaluated beta narrows a bracket around
    the root. A Newton step that leaves the bracket, or is longer than half
    the last step, bisects the bracket (in log beta) instead, unless it
    heads towards a bound whose slope is not known yet: the fit evaluates
    that bound, and if the minimum lies beyond it returns the bound,
    flagged degenerate. All-correct separable labels give T_MIN this way,
    labels that are every row's smallest logit T_MAX. The iteration stops
    once a step moves beta by at most ``_BETA_RTOL`` of it.

    Degenerate input (all logit rows identical and all labels identical)
    returns the upper temperature bound with the degenerate flag set.
    Rows whose logits are all tied make the NLL flat; the fit returns
    T_MIN, flagged degenerate, as a search that prefers the smaller of
    tied temperatures would. A minimum within SEARCH_TOL of a bound is
    flagged too.
    """
    logits, labels = _check_fit_inputs(logits, labels)
    if np.all(logits == logits[0]) and np.all(labels == labels[0]):
        return TemperatureParam(t=T_MAX, degenerate=True)
    shifted = _shifted(logits)
    label_shifted = shifted[np.arange(shifted.shape[0]), labels]
    lo, hi = _BETA_MIN, _BETA_MAX
    lo_seen = hi_seen = False
    beta, last_step = 1.0, math.inf
    for _ in range(_MAX_PASSES):
        slope, curvature = _nll_derivatives(shifted, label_shifted, beta)
        if slope <= 0.0:  # the minimum lies at a larger beta, or the NLL is flat
            if beta == _BETA_MAX:
                return TemperatureParam(t=T_MIN, degenerate=True)
            lo, lo_seen = beta, True
        else:
            if beta == _BETA_MIN:
                return TemperatureParam(t=T_MAX, degenerate=True)
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
        # steps towards a minimum beyond a bound are: try that bound, else bisect
        elif step > 0.0 and not hi_seen:
            target = hi
        elif step < 0.0 and not lo_seen:
            target = lo
        else:
            target = math.sqrt(lo * hi)
        last_step, beta = abs(math.log(target / beta)), target
        if last_step <= _BETA_RTOL:
            break
    t = 1.0 / beta
    return TemperatureParam(t=t, degenerate=not T_MIN + SEARCH_TOL < t < T_MAX - SEARCH_TOL)


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


def fit_cpcs_temperature(logits: np.ndarray, labels: np.ndarray, weights) -> TemperatureParam:
    """Fit a temperature minimizing the importance-weighted Brier score.

    The objective is sum(w_i * bs_i) / sum(w_i) where bs_i is the
    per-sample Brier score at the candidate temperature. Weight vectors
    concentrated on few samples can drive the optimum to a bound; the
    degenerate flag reports that. All-zero weights, weights whose sum or
    sum of squares overflows, and weights with a Kish effective sample size
    below 2 raise DegeneracyError.
    """
    logits, labels = _check_fit_inputs(logits, labels)
    w = check_weights(weights, logits.shape[0])
    _require_weight_mass(w)
    w_total = float(w.sum())
    shifted = _shifted(logits)

    def objective(t: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):
            p, sums = _softmax_terms(shifted / t[:, None, None])
        p /= sums
        # one dot per temperature: a matrix-vector product could sum in another order
        return np.array([np.dot(w, row) for row in _brier_rows(p, labels)]) / w_total

    t_star, _, hit_bound = _minimize_temperature(objective, _grid_batch(logits.size))
    return TemperatureParam(t=t_star, degenerate=hit_bound)


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
