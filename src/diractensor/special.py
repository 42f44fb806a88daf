"""Orthonormal Laguerre functions and Gauss-Laguerre quadrature.

The closed-form radial components are built on the orthonormal Laguerre
functions

    psi_n^(alpha)(x) = sqrt(n! / Gamma(n + alpha + 1)) x^(alpha/2) e^(-x/2) L_n^(alpha)(x),

which stay of order 1 in magnitude for every degree and every order
alpha >= 0, so no Gamma ratio, power x^p or polynomial value that could
overflow is ever formed.
They are evaluated by their three-term recurrence in the degree (DLMF 18.9.1
rescaled; Gil, Segura & Temme, Numerical Methods for Special Functions,
SIAM 2007, ch. 4), started from psi_0 in log form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def require_degree(name, value):
    if value < 0 or value != int(value):
        raise ValueError(f"{name} must be a nonnegative integer, got {value!r}")


@dataclass(frozen=True)
class LaguerreSpec:
    """Degree and order of a generalized Laguerre polynomial L_n^(alpha)."""

    degree: int
    order: float

    def __post_init__(self):
        require_degree("degree", self.degree)
        if not self.order > -1.0:
            raise ValueError(
                f"order must exceed -1 for an integrable weight, got {self.order!r}"
            )


def _laguerre_functions(spec: LaguerreSpec, x):
    """Yield (psi_k, psi_(k-1)) at x >= 0 for k = 0 .. spec.degree, psi_(-1) = 0:

        psi_0 = exp(alpha/2 ln x - x/2 - lgamma(alpha + 1)/2),
        psi_(k+1) = [(2k + 1 + alpha - x) psi_k - sqrt(k (k + alpha)) psi_(k-1)]
                    / sqrt((k + 1)(k + 1 + alpha)).

    At x = 0, psi_k is 1 for alpha = 0 (L_k^(0)(0) = 1) and 0 for alpha > 0.
    Where psi_0 underflows (near the origin at large alpha, and in the far
    tail) every psi_k is 0.0, its float64 value to well below 1e-300.
    """
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("Laguerre argument must be nonnegative")
    alpha = spec.order
    with np.errstate(divide="ignore"):
        power = alpha * np.log(x) if alpha != 0.0 else 0.0  # x^0 = 1, also at x = 0
        cur = np.exp(0.5 * (power - x - math.lgamma(alpha + 1.0)))
    prev = np.zeros_like(cur)
    yield cur, prev
    for k in range(spec.degree):
        step = (2.0 * k + 1.0 + alpha - x) * cur - math.sqrt(k * (k + alpha)) * prev
        prev, cur = cur, step / math.sqrt((k + 1.0) * (k + 1.0 + alpha))
        yield cur, prev


def laguerre_function(spec: LaguerreSpec, x):
    """The orthonormal Laguerre functions (psi_n, psi_(n-1)) at x >= 0,
    n = spec.degree, with psi_(-1) = 0."""
    for pair in _laguerre_functions(spec, x):
        pass
    return pair


def laguerre_function_rule(spec: LaguerreSpec):
    """The N = n + 1 point Gauss rule for integral_0^inf F(x) dx, n = spec.degree,
    exact when F is x^alpha e^(-x) times a polynomial of degree <= 2n + 1
    (such as x psi_n^2), and psi_n at its nodes: (nodes, weights, psi_n).

    The nodes are the zeros of L_N^(alpha): the eigenvalues of the Jacobi
    matrix with diagonal 2k + alpha + 1 and off-diagonal -sqrt(k (k + alpha)),
    k < N.  The weights are the Christoffel numbers 1 / sum_(k<N) psi_k(x)^2,
    so no Gamma(alpha + 1)-sized factor is formed; they are inf at nodes where
    every psi_k underflows (x >~ 1,490 at alpha = 0, so N >~ 370).
    """
    alpha = spec.order
    k = np.arange(spec.degree + 1, dtype=float)
    off = -np.sqrt(k[1:] * (k[1:] + alpha))
    x = np.linalg.eigvalsh(np.diag(2.0 * k + alpha + 1.0) + np.diag(off, 1) + np.diag(off, -1))
    squares = 0.0
    for psi, _ in _laguerre_functions(spec, x):
        squares = squares + psi * psi
    with np.errstate(divide="ignore", over="ignore"):
        return x, 1.0 / squares, psi


def gauss_laguerre(n_nodes: int = 128, order: float = 0.0):
    """Nodes and weights for integral_0^inf x^order e^(-x) phi(x) dx, exact
    for polynomial phi up to degree 2*n_nodes - 1.  The weights sum to
    Gamma(order + 1), inf in float64 from order ~ 171 on; integrals of the
    orthonormal functions use :func:`laguerre_function_rule` instead, whose
    inf weights are 0.0 here (below ~1e-300 of the total)."""
    if n_nodes < 1:
        raise ValueError("n_nodes must be positive")
    x, weights, _ = laguerre_function_rule(LaguerreSpec(n_nodes - 1, order))
    power_weight = np.exp(order * np.log(x) - x)
    return x, np.multiply(weights, power_weight, out=np.zeros_like(x), where=np.isfinite(weights))
