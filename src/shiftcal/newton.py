"""One damped Newton driver for the package's smooth convex fits.

The domain classifier (``density_ratio``) and vector and matrix scaling
(``scaling``) minimize a convex mean loss by the same loop: take a Newton
direction, halve the step until the loss is finite and does not rise, and
stop once the gradient norm is below GRADIENT_TOLERANCE. They differ only
in how they find the direction: the classifier solves its dense
(d+1)x(d+1) system, and the affine fits run preconditioned conjugate
gradients on Hessian-vector products (``conjugate_gradient``), which never
forms the Hessian (truncated Newton: Nocedal & Wright, *Numerical
Optimization*, ch. 7).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GRADIENT_TOLERANCE",
    "MAX_HALVINGS",
    "MAX_NEWTON_STEPS",
    "NewtonResult",
    "conjugate_gradient",
    "damped_newton",
]

# a fit converges once the gradient norm is below GRADIENT_TOLERANCE,
# and stops unconverged after MAX_NEWTON_STEPS Newton steps
GRADIENT_TOLERANCE = 1e-6
MAX_NEWTON_STEPS = 5000
# backtracking halves a Newton step at most this many times before the fit gives up
MAX_HALVINGS = 60


@dataclass
class NewtonResult:
    """Where ``damped_newton`` stopped: the point, its loss, and how it got there."""

    x: np.ndarray
    loss: float
    iterations: int
    converged: bool


def damped_newton(x: np.ndarray, loss_at, gradient, direction) -> NewtonResult:
    """Minimize a convex loss over the 1-d parameter vector ``x`` by damped Newton steps.

    ``loss_at(x)`` returns ``(loss, cache)``; ``gradient(x, cache)`` returns
    the gradient there, and ``direction(x, cache, grad)`` the Newton step
    that ``x - step`` takes. ``cache`` carries whatever the last two share
    with the loss (margins, probabilities). Each iteration first checks the
    gradient norm against GRADIENT_TOLERANCE, so ``iterations`` counts
    gradients, the converged one included. A step is halved until the loss
    is finite and not above the current one; the fit stops unconverged when
    no length down to 2**-MAX_HALVINGS gives one, or after MAX_NEWTON_STEPS.
    """
    loss, cache = loss_at(x)
    converged = False
    iterations = 0
    for _ in range(MAX_NEWTON_STEPS):
        iterations += 1
        grad = gradient(x, cache)
        if math.sqrt(float(grad @ grad)) < GRADIENT_TOLERANCE:
            converged = True
            break
        step = direction(x, cache, grad)
        alpha = 1.0
        for _ in range(MAX_HALVINGS + 1):
            cand = x - alpha * step
            # an overflowing trial step is expected here and rejected below
            with np.errstate(over="ignore", invalid="ignore"):
                cand_loss, cand_cache = loss_at(cand)
            if math.isfinite(cand_loss) and cand_loss <= loss:
                break
            alpha *= 0.5
        else:
            break  # no step length gave a finite, non-increasing loss
        x, loss, cache = cand, cand_loss, cand_cache
    return NewtonResult(x=x, loss=loss, iterations=iterations, converged=converged)


def conjugate_gradient(hessian_product, precondition, grad: np.ndarray) -> np.ndarray:
    """Preconditioned conjugate gradients for the Newton step s with H s = grad.

    ``hessian_product(v)`` returns H v and ``precondition(r)`` an
    approximation of H⁺ r; both act on 1-d vectors shaped like ``grad``,
    and the preconditioner must be symmetric and positive semi-definite.
    The iteration stops once the residual norm is at most
    min(0.5, sqrt(|g|)) * |g|, the forcing term that keeps Newton's
    convergence superlinear (Nocedal & Wright, Theorem 7.2), or after as
    many steps as ``grad`` has entries. A direction of no curvature, which
    only rounding can produce on a convex loss, ends it early; if that is
    the first direction, the preconditioned gradient is the step.
    """
    g_norm = math.sqrt(float(grad @ grad))
    forcing = min(0.5, math.sqrt(g_norm)) * g_norm
    step = np.zeros_like(grad)
    residual = grad.copy()
    z = precondition(residual)
    d = z
    rz = float(residual @ z)
    for j in range(grad.size):
        hd = hessian_product(d)
        curvature = float(d @ hd)
        if not curvature > 0.0:
            return step if j else z
        a = rz / curvature
        step += a * d
        residual -= a * hd
        if math.sqrt(float(residual @ residual)) <= forcing:
            break
        z = precondition(residual)
        rz, rz_old = float(residual @ z), rz
        d = z + (rz / rz_old) * d
    return step
