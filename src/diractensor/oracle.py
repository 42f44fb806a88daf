"""Independent numerical verification of the radial bound-state problem.

Two pieces of machinery, both blind to the closed-form solutions:

* an eigensolver for the second-order radial equations.  Substituting
  x = ln r and v = u / sqrt(r) turns u'' = [A/r^2 + B/r - lambda] u into
  v'' = [S^2 + B r - lambda r^2] v with S^2 = A + 1/4.  ``solve_bound_level``
  takes a first estimate of the level from a Sturm count on the three-point
  form of that equation, a symmetric tridiagonal pencil (LAPACK ``stebz``),
  then finds it with ``shoot_eigenvalue``: Numerov shooting on a grid boxed
  for that estimate (``core.level_extent``), with node-count bisection to
  keep the level and a matching-defect Newton step, taken from either side
  of the level, to refine it; one outward march per trial lambda serves
  both the node count and the match.  The converged iterate's own two sweeps
  give the returned level's node count, and the counts at the bracket ends
  are marched only where the search leaves Newton's path: at a bisection
  step, a bisection exit or an error.  Where two Newton steps in a row
  predict the next correction within the tolerance, the last candidate is
  returned without the step that would only confirm it.  A march solves
  for w = f y, whose Numerov band has a unit diagonal: each shot allocates
  that band once, and a march rewrites one row of it and makes one BLAS
  ``tbsv`` call.
  The match point comes from the root of the quadratic S^2 + B r - lambda
  r^2, and the matching defect and Newton denominator from dot products
  over the two sweeps, with no joined copy.  The pencil and every shot
  start at the inner end of ``core.level_extent``, below which no level of
  the channel rises within e^(-30) of its value at its turning points: the
  regular solution grows like r^S there, and marching through that dead
  region changes no level;

* an outward RK4 integrator for the coupled first-order (g, f) system, used
  to confirm decay at the analytic energies and divergence away from them;
  the sign of the tail of a growing solution tells on which side of a level
  its energy lies, so two energies bracket the |E| = M special states.  The
  system is linear and the step schedule depends on r alone, so each step is
  a fixed 2x2 matrix; the integrator forms these in float64 a chunk at a
  time, multiplies them by one prefix scan per chunk and carries the state
  across chunk boundaries with an exact power-of-two renormalisation.
  Several energies can share one scan on the first one's schedule, each
  with its own matrices and state.

The separation eigenvalue is lambda = E^2 - M^2 - b^2, negative for every
bound state since |E| < sqrt(M^2 + b^2).  In rho = |b| r and mu = lambda / b^2
the second-order equation holds neither M nor |b| (``_unit``): the pencil and
the shots of ``solve_bound_level`` solve it there, and b enters only where
lambda, E and the grid's radii are formed from mu.  ``shoot_eigenvalue`` works
in the units it is given, and the first-order integrator in r, since its
coupled system depends on M/|b|.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .core import (
    Channel,
    Component,
    ModelParams,
    RadialSamples,
    angular_strength,
    box_radius,
    equation_constants,
    level_extent,
)

__all__ = [
    "ShootingConfig",
    "EigenResult",
    "IntegrationReport",
    "ShootingError",
    "NoBracketError",
    "ConvergenceError",
    "NodeMismatchError",
    "shoot_eigenvalue",
    "solve_bound_level",
    "integrate_first_order",
    "count_sign_changes",
]


class ShootingError(RuntimeError):
    """Base class for eigensolver failures."""


class NoBracketError(ShootingError):
    """The requested level does not exist inside the lambda bracket."""


class ConvergenceError(ShootingError):
    """The eigenvalue iteration hit its cap before reaching tolerance."""


class NodeMismatchError(ShootingError):
    """Converged solution has the wrong node count (Sturm ordering broken)."""


@dataclass(frozen=True)
class ShootingConfig:
    """Domain, grid and search window for one eigenvalue hunt."""

    r_min: float
    r_max: float
    step_count: int
    lambda_bracket: tuple[float, float]
    tolerance: float

    def __post_init__(self):
        if not (0.0 < self.r_min < self.r_max):
            raise ValueError("need 0 < r_min < r_max")
        if self.step_count < 32:
            raise ValueError("step_count must be at least 32")
        lo, hi = self.lambda_bracket
        if not lo <= hi:
            raise ValueError("lambda_bracket must be ordered (lo <= hi)")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")


@dataclass(frozen=True)
class EigenResult:
    """Converged separation eigenvalue and its energy pair.

    ``sweeps`` counts the Numerov marches of the search, ``steps`` the
    Numerov steps those marches took and ``newton_steps`` the
    matching-defect Newton corrections it computed; all three depend on the
    inputs only.  ``r_min``, ``r_max`` and ``step_count`` give the grid of
    the shot that found the level.  From ``solve_bound_level``, lambda_ / b^2,
    r |b|, the work counters and ``step_count`` are those of the problem in
    units of 1/|b|, which (sgn(b), kappa_bar, component, n) fix.  ``seconds``
    is the wall time of the whole solve and ``pencil_seconds`` the part of it
    spent estimating the level (0.0 from ``shoot_eigenvalue``, which takes no
    estimate); these two are the only fields that are not deterministic.
    """

    lambda_: float
    energy_pair: tuple[float, float]
    node_count: int
    sweeps: int
    newton_steps: int
    steps: int
    r_min: float
    r_max: float
    step_count: int
    seconds: float = 0.0
    pencil_seconds: float = 0.0


def _numerov_march(f: np.ndarray, y0: float, y1: float, band: np.ndarray) -> np.ndarray:
    """Solve the Numerov three-term recurrence given the first two values.

    In w = f y the recurrence f[i+1] y[i+1] = (12 - 10 f[i]) y[i] - f[i-1] y[i-1]
    reads w[i+1] - (12/f[i] - 10) w[i] + w[i-1] = 0: a lower-triangular band
    with a unit diagonal and a second subdiagonal of ones, handed to the BLAS
    triangular solver, told the diagonal is unit, instead of a Python loop.
    ``band`` is a Fortran-order (3, N) array, the layout BLAS reads, with
    N >= f.size - 2 and ones in its last row.  The march rewrites only the
    first subdiagonal of its leading f.size - 2 columns, which f2py passes
    without a copy, solves for w in place and returns y = w / f.
    """
    from scipy.linalg.blas import dtbsv  # here, not at the top: scipy is slow to import

    n = f.size
    w = np.zeros(n)
    w[0], w[1] = f[0] * y0, f[1] * y1
    if n > 2:
        count = n - 2
        ab = band[:, :count]
        # -(12/f - 10) = -2 - 12 (1 - f)/f: 1 - f is exact, and only the sum
        # with 2 rounds at the scale of the coefficient
        excess = np.subtract(1.0, f[2 : n - 1])
        excess /= f[2 : n - 1]
        excess *= 12.0
        np.subtract(-2.0, excess, out=ab[1, : count - 1])
        w[2] = (2.0 + (1.0 - f[1]) / f[1] * 12.0) * w[1] - w[0]
        if count > 1:
            w[3] = -w[1]
        dtbsv(2, ab, w, offx=2, lower=1, diag=1, overwrite_x=1)
    y = np.divide(w, f, out=w)
    y[0], y[1] = y0, y1
    return y


def _sign_changes(v: np.ndarray) -> np.ndarray:
    """Mask of strict sign changes between neighbours, found by comparing signs
    rather than multiplying, which under- or overflows at extreme magnitudes.
    Exact zeros break runs and NaN never changes sign."""
    pos, neg = v > 0.0, v < 0.0
    return (pos[1:] & neg[:-1]) | (neg[1:] & pos[:-1])


def count_sign_changes(values) -> int:
    """Strict sign changes between consecutive samples (exact zeros break runs)."""
    return int(np.count_nonzero(_sign_changes(np.asarray(values, dtype=float))))


class _ShootingWorkspace:
    """Grid-dependent arrays shared by every lambda evaluation of one search.

    ``band`` is the Fortran-order Numerov band of ``_numerov_march``, sized
    for a march over the whole grid and allocated once per shot: its unit
    diagonal and second subdiagonal of ones never change, and each march
    rewrites only the first subdiagonal of the columns it uses.
    """

    def __init__(self, params: ModelParams, channel: Channel, component: Component,
                 config: ShootingConfig):
        n = config.step_count
        x = np.linspace(math.log(config.r_min), math.log(config.r_max), n + 1)
        self.h = (x[-1] - x[0]) / n
        self.r = np.exp(x)
        self.r2 = self.r * self.r
        s2, self.B = equation_constants(params.b, channel.kappa_bar, component)
        self.S = math.sqrt(s2)
        self.base = self.S * self.S + self.B * self.r
        ddx12 = self.h * self.h / 12.0
        if ddx12 * float(np.max(np.abs(self.base))) > 0.5:
            raise ValueError("grid too coarse for the Numerov step on this domain")
        self.f_base = 1.0 - ddx12 * self.base
        self.f_lam = ddx12 * self.r2
        self.band = np.ones((3, n - 1), order="F")
        # two-term series start of the regular solution, v ~ r^S (1 + c1 r)
        c1 = self.B / (1.0 + 2.0 * self.S)
        start = 1e-100
        self.v0 = start * (1.0 + c1 * self.r[0])
        self.v1 = start * math.exp(self.S * self.h) * (1.0 + c1 * self.r[1])
        margin = max(4, int(round(math.log(2.0) / self.h)))
        self.idx_lo = margin
        self.idx_hi = n - margin
        self.sweeps = 0
        self.steps = 0

    def _march(self, f: np.ndarray, y0: float, y1: float) -> np.ndarray:
        self.sweeps += 1
        self.steps += f.size - 1
        return _numerov_march(f, y0, y1, self.band)

    def coeffs(self, lam: float) -> np.ndarray:
        f = self.f_lam * lam
        f += self.f_base
        return f

    def sweep(self, lam: float) -> tuple[np.ndarray, np.ndarray]:
        """Coefficients at ``lam`` and the outward sweep over the whole domain."""
        f = self.coeffs(lam)
        return f, self.outward(f, f.size - 1)

    def match_index(self, lam: float) -> int:
        """The last grid index where Q = S^2 + B r - lambda r^2 < 0, or mid-grid
        where there is none, kept ``idx_lo``..``idx_hi`` from the ends.

        Every trial lambda is negative, so Q is convex in r and negative only
        between its roots.  With B >= 0, or a discriminant B^2 + 4 lambda S^2
        below -1e-12 B^2, Q stays positive by far more than its rounding
        error.  Otherwise ``searchsorted`` places the outer root on the grid,
        and the test ``base - lambda r2 < 0`` at that point and one point out
        confirms it, so the index is the one the test gives over the whole
        grid; where they disagree, which rounding can bring about only within
        a few ulp of a root, the whole grid is tested.
        """
        m = -1
        disc = self.B * self.B + 4.0 * lam * (self.S * self.S)
        if self.B < 0.0 and disc >= -1e-12 * self.B * self.B:
            root = (math.sqrt(max(disc, 0.0)) - self.B) / (-2.0 * lam)
            m = int(self.r.searchsorted(root)) - 1
            if not ((m < 0 or self.base[m] - lam * self.r2[m] < 0.0)
                    and (m + 1 == self.r.size or not self.base[m + 1] - lam * self.r2[m + 1] < 0.0)):
                inside = np.flatnonzero(self.base - lam * self.r2 < 0.0)
                m = int(inside[-1]) if inside.size else -1
        if m < 0:
            m = self.r.size // 2
        return min(max(m, self.idx_lo), self.idx_hi)

    def outward(self, f: np.ndarray, upto: int) -> np.ndarray:
        y = self._march(f[: upto + 1], self.v0, self.v1)
        if not np.isfinite(y).all():
            y = self._march(f[: upto + 1], self.v0 * 1e-150, self.v1 * 1e-150)
            if not np.isfinite(y).all():
                raise ShootingError("outward sweep overflowed even after rescaling")
        return y

    def inward(self, f: np.ndarray, downto: int) -> np.ndarray:
        tail = f[downto:][::-1]
        y1 = (12.0 - 10.0 * tail[0]) / tail[1]  # treats the value beyond r_max as 0
        y = self._march(tail, 1.0, y1)
        if not np.isfinite(y).all():
            raise ShootingError("inward sweep overflowed")
        return y[::-1]


def _match_point(ws: _ShootingWorkspace, lam: float, f: np.ndarray,
                 outward: np.ndarray) -> tuple[int, np.ndarray]:
    """The match index at ``lam`` (coefficients ``f``), moved off any node of
    either sweep, and the inward sweep from one point inside it.

    Forward substitution makes the outward march up to any index a prefix of
    the whole-domain march, so ``outward`` is cut rather than marched again.
    """
    m = ws.match_index(lam)
    for shift in (0, 1, -1, 2, -2, 3):
        mm = min(max(m + shift, ws.idx_lo), ws.idx_hi)
        inward = ws.inward(f, mm - 1)
        if outward[mm] != 0.0 and inward[1] != 0.0:
            return mm, inward
    raise ShootingError("could not place the match point away from a node")


def _weighted_square(piece: np.ndarray, scale: float, r: np.ndarray) -> float:
    """sum of (r piece / scale)^2, with one temporary."""
    scaled = piece / scale
    scaled *= r
    return float(scaled @ scaled)


def _matching_defect(ws: _ShootingWorkspace, f: np.ndarray, outward: np.ndarray, m: int,
                     inward: np.ndarray) -> tuple[float, float]:
    """Matching defect F and Newton denominator h^2 sum r^2 y^2 of the solution
    y joined at ``m``: outward / outward[m] up to m, inward / inward[1]
    beyond.  Both come from the two pieces, so the join is never formed."""
    defect = (f[m - 1] * (outward[m - 1] / outward[m]) + f[m + 1] * (inward[2] / inward[1])
              - (12.0 - 10.0 * f[m]))
    weight = (_weighted_square(outward[:m], outward[m], ws.r[:m]) + ws.r2[m]
              + _weighted_square(inward[2:], inward[1], ws.r[m + 1:]))
    return float(defect), ws.h * ws.h * float(weight)


def _joined_node_count(outward: np.ndarray, m: int, inward: np.ndarray) -> int:
    """Nodes of the solution joined at ``m``: outward / outward[m] up to m,
    inward / inward[1] beyond.  ``_match_point`` makes both divisors
    nonzero, and scaling a piece by one nonzero number keeps each of its
    sign changes, so the pieces are counted as they are, joined at m."""
    return count_sign_changes(outward[: m + 1]) + count_sign_changes(inward[1:])


def shoot_eigenvalue(
    params: ModelParams,
    channel: Channel,
    component: Component,
    node_target: int,
    config: ShootingConfig,
) -> EigenResult:
    """Find the level whose interior solution carries ``node_target`` nodes.

    Bisection on the node count of the regular solution (counted over the
    whole domain) brackets the level.  Wherever the count puts lambda next to
    the level, at ``node_target`` (below it) or ``node_target + 1`` (above
    it), the mismatch of the two Numerov sweeps at the outer turning point
    drives a Newton correction delta-lambda = -F / (h^2 sum w y^2), kept only
    when it lands inside the bracket.  Newton from both sides converges
    quadratically; from one side only, the convex defect makes each step
    overshoot and the bisection that follows merely halves the error.  One
    outward march per trial lambda serves both the count and the match.
    The iterate whose |delta-lambda| meets the tolerance is returned; its
    node count is that of the solution its own two sweeps join, and a
    bisection exit marches that pair at the midpoint.  The counts at the
    bracket ends are marched only before a bisection step, a bisection exit
    or an error: Newton steps that meet the tolerance inside the bracket
    have found a level there, at two sweeps a step.
    A Newton step whose correction delta misses the tolerance may still end
    the search, returning its candidate lambda + delta unmarched: when the
    step before it was a Newton step too (no bisection in between), the
    correction delta^2 / |previous delta| that their contraction predicts
    for the next step is within the tolerance, the candidate lies inside the
    bracket with no bisection exit due, and the solution joined at lambda
    already has ``node_target`` nodes.  The next step would march at that
    candidate only to confirm it, and where the prediction holds it returns
    that same float; the rule adds no constant.
    Raises NoBracketError when the bracket contains no such level (the b = 0
    case in particular), ConvergenceError on iteration cap,
    NodeMismatchError if the converged solution violates Sturm ordering.
    """
    start = time.perf_counter()
    if node_target < 0:
        raise ValueError("node_target must be nonnegative")
    bottom, top = lo, hi = config.lambda_bracket
    if not (lo < hi < 0.0):
        raise NoBracketError(
            f"bound levels need a bracket inside lambda < 0; got ({lo}, {hi})"
        )
    ws = _ShootingWorkspace(params, channel, component, config)
    ends_counted = False

    def count_ends():
        # the zero count of the regular solution over the whole domain equals
        # the number of boxed levels strictly below lambda (Sturm oscillation)
        nonlocal ends_counted
        if not ends_counted:
            ends_counted = True
            if count_sign_changes(ws.sweep(top)[1]) <= node_target:
                raise NoBracketError(
                    f"no level with {node_target} nodes below the bracket top {top}")
            if count_sign_changes(ws.sweep(bottom)[1]) > node_target:
                raise NoBracketError(
                    f"the bracket floor {bottom} already lies above the {node_target}-node level")

    lam = 0.5 * (lo + hi)
    best: Optional[float] = None
    newton_steps = 0
    previous = math.nan  # the Newton correction that gave lam, NaN after a bisection
    for _ in range(300):
        f, outward = ws.sweep(lam)
        count = count_sign_changes(outward)
        if count > node_target:
            hi = lam
        else:
            lo = lam
        candidate = delta = math.nan  # fails the bracket test below: bisect
        if count - node_target in (0, 1):
            m, inward = _match_point(ws, lam, f, outward)
            defect, denom = _matching_defect(ws, f, outward, m, inward)
            newton_steps += 1
            delta = -defect / denom
            if abs(delta) <= config.tolerance:
                best, found = lam, _joined_node_count(outward, m, inward)
                break
            candidate = lam + delta
        if not lo < candidate < hi:
            count_ends()
            candidate, delta = 0.5 * (lo + hi), math.nan
        lam = candidate
        if hi - lo <= config.tolerance:
            count_ends()
            best = 0.5 * (lo + hi)
            f, outward = ws.sweep(best)
            found = _joined_node_count(outward, *_match_point(ws, best, f, outward))
            break
        # the contraction of two Newton steps in a row predicts the next
        # correction, delta^2 / |previous|; within the tolerance, the step
        # that would march at lam only to confirm it is not taken
        if (delta * delta <= config.tolerance * abs(previous)
                and _joined_node_count(outward, m, inward) == node_target):
            best, found = lam, node_target
            break
        previous = delta
    if best is None:
        count_ends()
        raise ConvergenceError(
            f"eigenvalue iteration did not reach tolerance {config.tolerance} "
            f"(bracket [{lo}, {hi}])"
        )
    if found != node_target:
        count_ends()
        raise NodeMismatchError(
            f"converged solution has {found} nodes, expected {node_target}"
        )
    e2 = best + params.mass**2 + params.b_squared
    e = math.sqrt(max(e2, 0.0))
    return EigenResult(
        lambda_=best,
        energy_pair=(e, -e),
        node_count=found,
        sweeps=ws.sweeps,
        newton_steps=newton_steps,
        steps=ws.steps,
        r_min=config.r_min,
        r_max=config.r_max,
        step_count=config.step_count,
        seconds=time.perf_counter() - start,
    )


# interior points of the pencil that estimates a level, shots of its polish,
# and the fewest Numerov steps a shot keeps above the inner end of its box
_PENCIL_POINTS = 300
_MAX_SHOTS = 3
_MIN_EDGE_STEPS = 64


def _unit(params: ModelParams) -> tuple[ModelParams, float]:
    """The problem in units of 1/|b|, which is the one at b = sgn(b), and b^2.

    In rho = |b| r and mu = lambda / b^2, v'' = (S^2 + 2 b kappa_bar r -
    lambda r^2) v reads v'' = (S^2 + 2 sgn(b) kappa_bar rho - mu rho^2) v.
    b = 0 has no window (NoBracketError), and a b^2 past float64 raises
    ``ModelParams.b_squared``'s OverflowError.
    """
    if params.b == 0.0:
        raise NoBracketError("b = 0: the bound-state window M <= |E| < M* is empty")
    return replace(params, b=math.copysign(1.0, params.b)), params.b_squared


def _pencil_levels(
    params: ModelParams,
    channel: Channel,
    component: Component,
    levels: range,
) -> list[float]:
    """Blind estimates of the separation eigenvalues of the ``levels``, a
    range of consecutive node counts, from one Sturm-count bisection.

    The pencil is built on the problem in units of 1/|b| (``_unit``), and
    returns lambda = b^2 mu.  There the slowest decay rate of the deepest
    such level is about gamma_seed = 1 / (2 levels[-1] + 3), which fixes a
    generous seed box reaching 30/gamma_seed.  On that box, started at the
    inner end of ``level_extent`` at the seed, mu = -gamma_seed^2, but not
    below 1e-6/gamma_seed, with Dirichlet ends, the three-point form of
    -v'' + (S^2 + B rho) v = mu rho^2 v (x = ln rho, B = 2 sgn(b) kappa_bar),
    scaled by 1/rho on each side, is the symmetric tridiagonal matrix with
    d_i = (2/h^2 + S^2 + B rho_i) / rho_i^2 and e_i = -1/(h^2 rho_i rho_{i+1}).
    LAPACK ``stebz`` bisects its Sturm count (Kahan bisection) for the
    eigenvalues levels[0] + 1 .. levels[-1] + 1 in one call.  Its tolerance
    is absolute, 1e-9 in mu: the default one scales with the norm of the
    matrix, about 1e16, and merges levels.  Every estimate must lie below
    the window top mu = -1e-8.
    """
    from scipy.linalg.lapack import dstebz  # here, not at the top: scipy is slow to import

    if levels[0] < 0:
        raise ValueError("node_target must be nonnegative")
    deepest = levels[-1]
    if deepest >= _PENCIL_POINTS:
        raise NoBracketError(f"a {_PENCIL_POINTS}-point pencil has no {deepest}-node level")
    unit, scale = _unit(params)
    s2, coulomb = equation_constants(unit.b, channel.kappa_bar, component)
    gamma_seed = 1.0 / (2.0 * deepest + 3.0)
    rho_lo = max(1e-6 / gamma_seed, level_extent(s2, coulomb, -gamma_seed**2)[0])
    x = np.linspace(math.log(rho_lo), math.log(30.0 / gamma_seed), _PENCIL_POINTS + 2)
    h2 = (x[1] - x[0]) ** 2
    rho = np.exp(x[1:-1])
    d = (2.0 / h2 + s2 + coulomb * rho) / (rho * rho)
    e = -1.0 / (h2 * rho[:-1] * rho[1:])
    m, w, _, _, info = dstebz(d, e, 2, 0.0, 0.0, levels[0] + 1, deepest + 1, 1e-9, "E")
    if info != 0 or m != len(levels) or not w[m - 1] < -1e-8:
        raise NoBracketError(f"the pencil puts no {deepest}-node level below the "
                             "window top -1e-8 b^2")
    return (scale * w[:m]).tolist()


def _shot_config(
    unit: ModelParams,
    channel: Channel,
    component: Component,
    mu_box: float,
    step_count: int,
) -> ShootingConfig:
    """Grid and bracket of one shot of the problem in units of 1/|b|
    (``unit``, from ``_unit``), boxed by ``level_extent`` at ``mu_box``.

    ``step_count`` steps of equal width in ln rho span the nominal box from
    1e-6/sqrt(-mu_box) to the outer end, e^(-30) past the outer turning
    point; those below the inner end are not marched, though at least
    ``_MIN_EDGE_STEPS`` are kept, and the points kept are the nominal grid's,
    so the level does not move.  The shot stops at 1e-10 in mu."""
    rho_lo = 1e-6 / math.sqrt(-mu_box)
    edge, rho_max = level_extent(*equation_constants(unit.b, channel.kappa_bar, component), mu_box)
    h = math.log(rho_max / rho_lo) / step_count
    skip = max(0, min(int(math.log(max(edge, rho_lo) / rho_lo) / h), step_count - _MIN_EDGE_STEPS))
    return ShootingConfig(
        r_min=rho_lo * math.exp(skip * h),
        r_max=rho_max,
        step_count=step_count - skip,
        lambda_bracket=(1.5 * mu_box, 0.5 * mu_box),
        tolerance=1e-10,
    )


def solve_bound_level(
    params: ModelParams,
    channel: Channel,
    component: Component,
    node_target: int,
    step_count: int = 6000,
    *,
    estimate: Optional[float] = None,
) -> EigenResult:
    """Estimate the level blind with a Sturm count on a tridiagonal pencil
    (``_pencil_levels``), then shoot it with Numerov.

    Both solve the problem in units of 1/|b| (``_unit``), and b enters once,
    where its level mu and radii rho become lambda = b^2 mu,
    E = sqrt(lambda + M^2 + b^2), r_min = rho_min / |b| and r_max = rho_max / |b|.
    A negative ``estimate`` of lambda passed in, such as one of a channel's
    ladder of estimates from one pencil, takes the place of the pencil; the
    result's ``pencil_seconds`` is then 0.0.
    The shot's box is set by ``level_extent`` at the estimate's mu: nominally
    from rho_min = 1e-6/sqrt(-mu), over which ``step_count`` sets the step,
    to rho_max, e^(-30) past the outer turning point of a level there.  The
    steps below the inner end, where every level of the channel is still
    e^(-30) below its value at its turning points, are not marched; the
    result's ``r_min`` and ``step_count`` give the grid the shot marched.
    Its bracket is (1.5, 0.5) times the estimate; whatever the estimate, the
    shot's node count keeps it on the ``node_target`` level or it raises a
    ShootingError.  A shot that lands more than 10% from the mu that set its
    box was boxed for another level, so it is re-boxed from its own mu and
    shot again; ConvergenceError after three shots.  The result's sweeps,
    steps and Newton steps are the totals over all shots, and its seconds
    the wall time of the estimate and every shot."""
    start = time.perf_counter()
    unit, scale = _unit(params)
    if estimate is None:
        mu_box = _pencil_levels(unit, channel, component, range(node_target, node_target + 1))[0]
        pencil_seconds = time.perf_counter() - start
    elif estimate < 0.0:
        mu_box, pencil_seconds = estimate / scale, 0.0
    else:
        raise ValueError(f"every bound lambda is negative, got the estimate {estimate}")
    sweeps = steps = newton_steps = 0
    for _ in range(_MAX_SHOTS):
        config = _shot_config(unit, channel, component, mu_box, step_count)
        shot = shoot_eigenvalue(unit, channel, component, node_target, config)
        sweeps += shot.sweeps
        steps += shot.steps
        newton_steps += shot.newton_steps
        if abs(shot.lambda_ - mu_box) <= 0.1 * abs(mu_box):
            e = math.sqrt(max(scale * shot.lambda_ + params.mass**2 + scale, 0.0))
            return replace(shot, lambda_=scale * shot.lambda_, energy_pair=(e, -e),
                           r_min=shot.r_min / abs(params.b), r_max=shot.r_max / abs(params.b),
                           sweeps=sweeps, steps=steps, newton_steps=newton_steps,
                           seconds=time.perf_counter() - start, pencil_seconds=pencil_seconds)
        mu_box = shot.lambda_
    raise ConvergenceError(
        f"the {node_target}-node level still moved more than 10% from its box "
        f"after {_MAX_SHOTS} shots (last lambda/b^2 {mu_box})"
    )


@dataclass(frozen=True)
class IntegrationReport:
    """Growth/decay diagnostic of one outward pass of the first-order system.

    ``steps`` counts the RK4 steps of the pass and ``renormalizations`` the
    block boundaries at which the marching state was rescaled; both depend on
    the inputs only.  ``seconds``, the wall time of the whole integration, is
    the only field that is not deterministic.
    """

    energy: float
    lambda_: float
    decay_ratio: float
    classification: str  # "bound" or "growing"
    peak_radius: float
    renormalizations: int
    steps: int
    seconds: float = 0.0


# Step matrices are formed and multiplied at most _CHUNK_STEPS at a time, so the
# working memory is bounded by the chunk, not by the step count.  One scan runs
# over each chunk, and the state is renormalised once per chunk.  A step grows
# the state by about e^fineness at most, so _MAX_FINENESS keeps one chunk's
# growth below e^512, inside float64's range.  The step schedule comes from
# the phase integral tabulated on _PHASE_POINTS points.
_CHUNK_STEPS = 2048
_MAX_FINENESS = 0.25
_PHASE_POINTS = 1025
_BOUND_DECAY = 1e-3  # largest tail / peak amplitude of a bound march


def _compose(later: np.ndarray, earlier: np.ndarray) -> np.ndarray:
    """D of (I + later)(I + earlier) = I + D for 2x2 matrices stored as (2, 2, ...) arrays.

    D = earlier + later + later @ earlier keeps increments far below 1 that
    forming the product of I + D would round away.
    """
    return earlier + later + (later[:, :1] * earlier[0] + later[:, 1:] * earlier[1])


def _renormalised(g: np.ndarray, f: np.ndarray):
    """(g, f) rescaled exactly by powers of two to max(|g|, |f|) in [1/2, 1),
    elementwise, and the exponents."""
    shift = np.frexp(np.maximum(abs(g), abs(f)))[1]
    return np.ldexp(g, -shift), np.ldexp(f, -shift), shift


def _rk4_step_deltas(r, h, kb, b, mp, mm) -> np.ndarray:
    """D = P - I for the RK4 step matrices P of (g, f)' = A(r) (g, f).

    A(r) = -w Z + N with w = kb / r + b, Z = diag(1, -1) and the constant
    N = [[0, M + E], [M - E, 0]].  Since A(u) A(v) = (u v + pm) I + (v - u) Z N
    with pm = (M + E)(M - E), the four RK4 stages collapse to
    D = h/6 (c_I I + c_Z Z + c_N N + c_J Z N).  A zero coupling M -/+ E
    leaves D exactly triangular, so the decoupled component of a special
    state stays exactly zero.
    """
    w0, wm, w1 = kb / r + b, kb / (r + h / 2) + b, kb / (r + h) + b
    pm = mp * mm
    qm = wm * wm + pm  # A(r + h/2)^2 = qm I
    s = h * h * qm / 4
    outer = w0 + w1
    c_z = -(outer * (1 + 2 * s) + 4 * wm)
    c_n = 6 + 4 * s
    c_i = h * (qm + wm * outer + 2 * pm + s * (w0 * w1 + pm))
    c_j = h * (w0 - w1) * (1 + s)
    return h / 6 * np.array([[c_i + c_z, (c_n + c_j) * mp], [(c_n - c_j) * mm, c_i - c_z]])


class _Recorder:
    """Amplitude peak and radial samples of the marching state.

    States arrive in runs, in order of increasing r, each run carrying the
    log of the scale factor its states are stored under.  Each sample target
    is consumed by the first state with r >= target * (1 - 1e-12), and each
    state is recorded once: targets that fall between the same two steps
    share one sample, so there may be fewer samples than targets.
    """

    def __init__(self, targets: np.ndarray):
        self.thresholds = targets * (1.0 - 1e-12)
        self.r = np.empty(targets.size)
        self.g = np.empty(targets.size)
        self.f = np.empty(targets.size)
        self.log_scale = np.empty(targets.size)
        self.consumed = 0
        self.taken = 0
        self.peak_log = -math.inf
        self.peak_radius = math.nan

    def visit(self, r: np.ndarray, g: np.ndarray, f: np.ndarray, log_scale: float):
        with np.errstate(divide="ignore"):
            amp_log = np.log(np.hypot(g, f)) + log_scale
        i = int(np.argmax(amp_log))
        if amp_log[i] > self.peak_log:
            self.peak_log = float(amp_log[i])
            self.peak_radius = float(r[i])
        idx = np.searchsorted(r, self.thresholds[self.consumed:], side="left")
        idx = idx[idx < r.size]
        self.consumed += idx.size
        idx = np.unique(idx)
        fill = slice(self.taken, self.taken + idx.size)
        self.r[fill], self.g[fill], self.f[fill] = r[idx], g[idx], f[idx]
        self.log_scale[fill] = log_scale
        self.taken = fill.stop


def integrate_first_order(
    params: ModelParams,
    channel: Channel,
    energy_value: float,
    sample_count: int = 800,
    fineness: float = 5e-4,
) -> tuple[RadialSamples, IntegrationReport]:
    """Integrate the coupled (g, f) system outward at a given trial energy.

    Starts from the two-term series of the regular solution at r_min and
    marches a fourth-order Runge-Kutta scheme whose steps advance the phase
    integral of the local variation rate (power-law rise plus oscillation or
    decay) by ``fineness`` each.  The system is linear and the schedule
    depends on r alone, so every step is a fixed 2x2 matrix P = I + D.  The
    matrices of one chunk of steps are formed at once, and a work-efficient
    scan (Blelloch 1990) over the chunk, padded with identity steps to a power
    of two, first multiplies neighbouring pairs up to the chunk's product,
    composing in the form
    (I + D_b)(I + D_a) = I + D_a + D_b + D_b D_a, which keeps the small
    increments that rounding I + D would drop; the pair products then carry
    the chunk's start state down to every step, whose amplitude feeds the
    peak and the samples.  The state crosses the chunk in one step and is
    renormalised by a power of two, an exact rescaling.  Memory is bounded by
    the chunk, not by the step count, and ``fineness`` may not exceed 0.25,
    so that the state grows by at most about e^512 within one chunk.  The
    samples sit at the first step at or past each of ``sample_count``
    log-spaced radii; where the steps are sparser than those radii, one step
    serves several of them and is sampled once, so fewer samples come back.
    They are scaled by the peak of sqrt(g^2 + f^2) over every step, which
    reads 1.

    The box reaches r_max = 30/gamma, or further where the r^p tail, p =
    |b kappa_bar| / gamma, is still within e^(-20) of its peak there.  A
    true bound energy decays to a tiny fraction of the peak by r_max; a
    detuned one is flagged as growing, and the sign of its tail tells on
    which side of the level it lies.  The march is in float64: the rounding
    of E and the roundoff of the steps seed the growing solution, which
    amplifies them by roughly e^30 over the box, so a bound energy decays to
    about 1e-5 of the peak at worst; past the last sample within 1e-3 of the
    peak that solution may change sign, and a bound march counts no nodes
    there.  At E = M or E = -M one coupling M -/+ E is exactly zero, every
    step matrix is triangular and one component stays exactly zero, at any
    fineness: the discrete edge level lies exactly at +/-M, so a bracket of
    it is resolved by the growth over the box, not by the step, and may be
    marched at the coarsest fineness.  The
    series start r_min^|kappa_bar|, which underflows float64 once |kappa_bar|
    nears 50, is carried as a mantissa and a power of two.  The default
    ``fineness`` keeps the truncation error per step near the roundoff level.
    This is ``_march_first_order`` with one energy.
    """
    return _march_first_order(params, channel, (energy_value,), sample_count, fineness)[0]


def _march_first_order(
    params: ModelParams,
    channel: Channel,
    energies: tuple[float, ...],
    sample_count: int,
    fineness: float,
) -> list[tuple[RadialSamples, IntegrationReport]]:
    """``integrate_first_order`` at several trial energies in one scan, on the
    box and step schedule of the first: the samples and report of each, in
    order.

    The schedule depends on r alone, so each chunk's radii are placed once,
    and the step matrices of all the energies are formed, composed and
    applied side by side along one more axis.  Each energy keeps its own
    start state, power-of-two exponent, peak, samples and classification, so
    its results are those of a march of that energy alone on the first one's
    schedule, and the first energy's results are bit for bit those of
    ``integrate_first_order``.  Every report counts the scan's steps and
    carries its wall time.
    """
    start = time.perf_counter()
    kb, b = channel.kappa_bar, params.b
    angular = max(abs(angular_strength(kb, "upper")), abs(angular_strength(kb, "lower")))
    if not 0.0 < fineness <= _MAX_FINENESS:
        raise ValueError(f"fineness must lie in (0, {_MAX_FINENESS}], got {fineness!r}")
    energies = np.asarray(energies, dtype=float)
    lams = energies * energies - params.mass**2 - params.b_squared
    lam = float(lams[0])
    gamma_ref = math.sqrt(-lam) if lam < 0.0 else max(abs(b), 0.1 * params.mass)
    r_lo = 1e-6 / gamma_ref
    r_hi = max(30.0 / gamma_ref, box_radius(gamma_ref, abs(b * kb) / gamma_ref, 20.0))

    # step k ends where the phase integral of the variation rate reaches k * fineness
    abs_b, abs_kb = abs(b), abs(kb)
    x = np.linspace(math.log(r_lo), math.log(r_hi), _PHASE_POINTS)
    rx = np.exp(x)
    rate_dx = (1.0 + abs_kb + np.sqrt(abs(lam) * rx * rx + 2.0 * abs_b * abs_kb * rx + angular)
               + (abs_b + gamma_ref) * rx)
    phase = np.concatenate(([0.0], np.cumsum(0.5 * (rate_dx[1:] + rate_dx[:-1]) * np.diff(x))))
    steps = max(1, math.ceil(phase[-1] / fineness))

    # one row per energy: states are (energy,) arrays, step matrices (2, 2, energy, step)
    count = energies.size
    mp, mm = params.mass + energies[:, None], params.mass - energies[:, None]

    # series start: the dominant component carries the lower power of r, whose
    # power of two goes to the exponent; the state is (g, f) * 2**exponent
    power = abs_kb * math.log2(r_lo)
    lead = 2.0 ** (power - math.floor(power))
    if kb < 0:
        g = np.full(count, lead * (1.0 - b * r_lo))
        f = mm[:, 0] / (1.0 - 2.0 * kb) * lead * r_lo
    else:
        f = np.full(count, lead * (1.0 + b * r_lo))
        g = mp[:, 0] / (1.0 + 2.0 * kb) * lead * r_lo
    g, f, shift = _renormalised(g, f)
    exponent = math.floor(power) + shift

    ln2 = math.log(2.0)
    targets = np.geomspace(r_lo, r_hi, sample_count)
    recorders = [_Recorder(targets) for _ in range(count)]
    renorms = np.zeros(count, dtype=int)
    for k0 in range(0, steps, _CHUNK_STEPS):
        k1 = min(k0 + _CHUNK_STEPS, steps)
        n = k1 - k0
        r = np.exp(np.interp(np.arange(k0, k1 + 1) * fineness, phase, x))
        if k0 == 0:
            r[0] = r_lo
        if k1 == steps:
            r[-1] = r_hi
        r = np.minimum(r, r_hi)
        d = np.zeros((2, 2, count, 1 << (n - 1).bit_length()))  # padding steps are identities
        d[..., :n] = _rk4_step_deltas(r[:-1], np.diff(r), kb, b, mp, mm)

        # up-sweep: products of 2, 4, ... consecutive steps, up to the chunk's product
        levels = [d]
        while levels[-1].shape[-1] > 1:
            levels.append(_compose(levels[-1][..., 1::2], levels[-1][..., ::2]))
        (t00, t01), (t10, t11) = levels.pop()[..., 0]

        # down-sweep: the state before every step from the chunk's start state
        y = np.stack((g, f))[..., None]
        for level in reversed(levels):
            earlier = level[..., ::2]
            after = y + (earlier[:, 0] * y[0] + earlier[:, 1] * y[1])
            y = np.stack((y, after), axis=-1).reshape(2, count, -1)
        for i, recorder in enumerate(recorders):
            recorder.visit(r[:-1], y[0, i, :n], y[1, i, :n], exponent[i] * ln2)

        g, f = g + (t00 * g + t01 * f), f + (t10 * g + t11 * f)
        g, f, shift = _renormalised(g, f)
        exponent += shift
        renorms += shift != 0

    seconds = time.perf_counter() - start
    results = []
    for i, recorder in enumerate(recorders):
        recorder.visit(np.array([r_hi]), g[i : i + 1], f[i : i + 1], exponent[i] * ln2)
        amp2_end = float(g[i] * g[i] + f[i] * f[i])
        end_log = 0.5 * math.log(amp2_end) + exponent[i] * ln2 if amp2_end > 0.0 else -math.inf
        peak_log = recorder.peak_log
        decay_ratio = math.exp(end_log - peak_log) if peak_log > -math.inf else math.inf
        lam = float(lams[i])
        classification = "bound" if (lam < 0.0 and decay_ratio < _BOUND_DECAY) else "growing"

        taken = slice(recorder.taken)
        rr = recorder.r[taken]
        scales = np.exp(recorder.log_scale[taken] - peak_log)
        gg = recorder.g[taken] * scales
        ff = recorder.f[taken] * scales
        counted = slice(None)
        if classification == "bound":  # the roundoff-seeded growing tail may change sign
            amp = np.hypot(gg, ff)
            counted = slice(np.flatnonzero(amp >= _BOUND_DECAY * amp.max())[-1] + 1)
        samples = RadialSamples(
            r=rr,
            g=gg,
            f=ff,
            node_count_g=count_sign_changes(gg[counted]),
            node_count_f=count_sign_changes(ff[counted]),
        )
        report = IntegrationReport(
            energy=float(energies[i]),
            lambda_=lam,
            decay_ratio=decay_ratio,
            classification=classification,
            peak_radius=recorder.peak_radius,
            renormalizations=int(renorms[i]),
            steps=steps,
            seconds=seconds,
        )
        results.append((samples, report))
    return results
