"""Laguerre polynomials, their weighted norms and Gauss-Laguerre quadrature.

Everything here is classical special-function machinery used by the analytic
solver (wavefunction evaluation, normalization integrals).  Polynomials are
evaluated by the three-term recurrence in the degree, which is stable on
x >= 0; the explicit power series is kept in the test suite as an oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LaguerreSpec:
    """Degree and order of a generalized Laguerre polynomial L_n^(alpha)."""

    degree: int
    order: float

    def __post_init__(self):
        if self.degree < 0 or self.degree != int(self.degree):
            raise ValueError(f"degree must be a nonnegative integer, got {self.degree!r}")
        if not self.order > -1.0:
            raise ValueError(
                f"order must exceed -1 for an integrable weight, got {self.order!r}"
            )


def _prepare_argument(x):
    arr = np.asarray(x, dtype=float)
    if np.any(arr < 0):
        raise ValueError("Laguerre argument must be nonnegative")
    return arr, arr.ndim == 0


def laguerre(spec: LaguerreSpec, x):
    """Evaluate L_n^(alpha)(x) for scalar or array x >= 0."""
    arr, scalar = _prepare_argument(x)
    n, alpha = spec.degree, spec.order
    prev = np.ones_like(arr)
    if n == 0:
        return float(prev) if scalar else prev
    cur = 1.0 + alpha - arr
    for k in range(1, n):
        prev, cur = cur, ((2.0 * k + 1.0 + alpha - arr) * cur - (k + alpha) * prev) / (k + 1.0)
    return float(cur) if scalar else cur


def laguerre_derivative(spec: LaguerreSpec, x):
    """d/dx L_n^(alpha)(x), via d/dx L_n^(alpha) = -L_{n-1}^(alpha+1)."""
    arr, scalar = _prepare_argument(x)
    if spec.degree == 0:
        zero = np.zeros_like(arr)
        return float(zero) if scalar else zero
    val = -laguerre(LaguerreSpec(spec.degree - 1, spec.order + 1.0), arr)
    return float(val) if scalar else val


def laguerre_second_derivative(spec: LaguerreSpec, x):
    """d^2/dx^2 L_n^(alpha)(x) = L_{n-2}^(alpha+2)(x), zero for n < 2."""
    arr, scalar = _prepare_argument(x)
    if spec.degree < 2:
        zero = np.zeros_like(arr)
        return float(zero) if scalar else zero
    val = laguerre(LaguerreSpec(spec.degree - 2, spec.order + 2.0), arr)
    return float(val) if scalar else val


def laguerre_weighted_norm(degree: int, order: float) -> float:
    """The first-moment norm integral of a generalized Laguerre polynomial:

        integral_0^inf x^(alpha+1) e^(-x) [L_n^(alpha)(x)]^2 dx
            = (2n + alpha + 1) Gamma(n + alpha + 1) / n!

    This is the integral produced when normalizing the radial components,
    whose squared prefactor carries one power of x beyond the weight.
    """
    spec = LaguerreSpec(degree, order)  # validates the arguments
    n, alpha = spec.degree, spec.order
    return (2.0 * n + alpha + 1.0) * math.exp(math.lgamma(n + alpha + 1.0) - math.lgamma(n + 1.0))


def gauss_laguerre(n_nodes: int = 128, order: float = 0.0):
    """Nodes and weights for integral_0^inf x^order e^(-x) phi(x) dx.

    With the order matched to the polynomial being integrated the rule is
    exact for polynomial phi up to degree 2*n_nodes - 1, which covers every
    normalization and orthogonality integral used here.
    """
    if n_nodes < 1:
        raise ValueError("n_nodes must be positive")
    if not order > -1.0:
        raise ValueError(f"order must exceed -1, got {order!r}")
    from scipy.special import roots_genlaguerre  # here, not at the top: slow to import

    nodes, weights = roots_genlaguerre(n_nodes, order)
    return nodes, weights
