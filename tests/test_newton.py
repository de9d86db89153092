import math

import numpy as np
import pytest

from shiftcal.newton import conjugate_gradient


@pytest.mark.parametrize("g_scale", [1e-6, 1e-2, 10.0])
def test_conjugate_gradient_meets_the_forcing_term(g_scale):
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.standard_normal((30, 30)))
    hessian = (q * np.logspace(-1, 1, 30)) @ q.T
    grad = g_scale * rng.standard_normal(30)
    calls = []

    def product(v):
        calls.append(v)
        return hessian @ v

    step = conjugate_gradient(product, lambda r: r / np.diag(hessian), grad)
    g_norm = np.linalg.norm(grad)
    assert np.linalg.norm(grad - hessian @ step) <= min(0.5, math.sqrt(g_norm)) * g_norm
    assert len(calls) <= grad.size
