"""Independent numerical verification of the radial bound-state problem.

Two pieces of machinery, both blind to the closed-form solutions:

* a shooting eigensolver for the second-order radial equations, run as
  Numerov integration on a logarithmic grid (substituting x = ln r and
  v = u / sqrt(r) turns u'' = [A/r^2 + B/r - lambda] u into
  v'' = [S^2 + B r - lambda r^2] v with S^2 = A + 1/4), with node-count
  bisection to pick the level and a matching-defect Newton step to refine it;

* an outward RK4 integrator for the coupled first-order (g, f) system, used
  to confirm decay at the analytic energies, divergence away from them, and
  the vanishing component of the |E| = M special states.  The system is
  linear and the step schedule depends on r alone, so each step is a fixed
  2x2 matrix; the integrator forms these in extended precision a chunk at a
  time, multiplies them by a prefix scan within short blocks and carries the
  state across block boundaries with an exact power-of-two renormalisation.

The separation eigenvalue is lambda = E^2 - M^2 - b^2, negative for every
bound state since |E| < sqrt(M^2 + b^2).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.linalg.blas import dtbsv

from .core import (
    Channel,
    Component,
    ModelParams,
    RadialSamples,
    angular_strength,
)

__all__ = [
    "ShootingConfig",
    "EigenResult",
    "IntegrationReport",
    "ShootingError",
    "NoBracketError",
    "ConvergenceError",
    "NodeMismatchError",
    "effective_potential",
    "shoot_eigenvalue",
    "default_shooting_config",
    "solve_bound_level",
    "integrate_first_order",
    "count_nodes",
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
    match_point: float
    lambda_bracket: tuple[float, float]
    tolerance: float

    def __post_init__(self):
        if not (0.0 < self.r_min < self.match_point < self.r_max):
            raise ValueError("need 0 < r_min < match_point < r_max")
        if self.step_count < 32:
            raise ValueError("step_count must be at least 32")
        lo, hi = self.lambda_bracket
        if not lo <= hi:
            raise ValueError("lambda_bracket must be ordered (lo <= hi)")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")


@dataclass(frozen=True)
class EigenResult:
    """Converged separation eigenvalue and its energy pair."""

    lambda_: float
    energy_pair: tuple[float, float]
    node_count: int
    converged: bool
    residual: float


def effective_potential(params: ModelParams, channel: Channel, component: Component) -> Callable:
    """V(r) = kb*(kb +/- 1)/r^2 + 2*b*kb/r entering -u'' + V u = lambda u."""
    angular = angular_strength(channel.kappa_bar, component)
    coulomb = 2.0 * params.b * channel.kappa_bar

    def potential(r):
        arr = np.asarray(r, dtype=float)
        if np.any(arr <= 0):
            raise ValueError("the radial coordinate must be positive")
        val = angular / (arr * arr) + coulomb / arr
        return float(val) if np.ndim(r) == 0 else val

    return potential


def _numerov_march(f: np.ndarray, y0: float, y1: float) -> np.ndarray:
    """Solve the Numerov three-term recurrence given the first two values.

    The recurrence f[i+1] y[i+1] = (12 - 10 f[i]) y[i] - f[i-1] y[i-1] is a
    lower-triangular banded system, handed to the BLAS triangular solver
    instead of a Python loop.
    """
    n = f.size
    y = np.empty(n)
    y[0], y[1] = y0, y1
    if n == 2:
        return y
    count = n - 2
    ab = np.zeros((3, count))
    ab[0] = f[2:]
    if count > 1:
        ab[1, : count - 1] = -(12.0 - 10.0 * f[2 : n - 1])
    if count > 2:
        ab[2, : count - 2] = f[2 : n - 2]
    rhs = np.zeros(count)
    rhs[0] = (12.0 - 10.0 * f[1]) * y1 - f[0] * y0
    if count > 1:
        rhs[1] = -f[1] * y1
    y[2:] = dtbsv(2, ab, rhs, lower=1)
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


def count_nodes(samples: RadialSamples, component: Component = "upper") -> int:
    """Interior node count of one sampled component, ignoring boundary zeros.

    Warns when a sign change shows no small value near the crossing, the
    signature of an undersampled oscillation.
    """
    names = {"upper": "g", "lower": "f", "g": "g", "f": "f"}
    if component not in names:
        raise ValueError(f"component must be 'upper' or 'lower', got {component!r}")
    y = np.asarray(getattr(samples, names[component]), dtype=float)
    nonzero = np.nonzero(y != 0.0)[0]
    if nonzero.size == 0:
        return 0
    yy = y[nonzero[0] : nonzero[-1] + 1]
    crossings = np.nonzero(_sign_changes(yy))[0]
    scale = float(np.max(np.abs(yy)))
    for i in crossings:
        lo, hi = max(i - 3, 0), min(i + 5, yy.size)
        local = float(np.max(np.abs(yy[lo:hi])))
        if local > 1e-12 * scale and min(abs(yy[i]), abs(yy[i + 1])) > 0.25 * local:
            warnings.warn(
                f"sign change near grid index {nonzero[0] + i} never approaches zero; "
                "the sampling looks too coarse there",
                RuntimeWarning,
                stacklevel=2,
            )
    return int(crossings.size)


class _ShootingWorkspace:
    """Grid-dependent arrays shared by every lambda evaluation of one search."""

    def __init__(self, params: ModelParams, channel: Channel, component: Component,
                 config: ShootingConfig):
        n = config.step_count
        x = np.linspace(math.log(config.r_min), math.log(config.r_max), n + 1)
        self.h = (x[-1] - x[0]) / n
        self.r = np.exp(x)
        self.r2 = self.r * self.r
        self.S = math.sqrt(angular_strength(channel.kappa_bar, component) + 0.25)
        self.B = 2.0 * params.b * channel.kappa_bar
        self.base = self.S * self.S + self.B * self.r
        ddx12 = self.h * self.h / 12.0
        if ddx12 * float(np.max(np.abs(self.base))) > 0.5:
            raise ValueError("grid too coarse for the Numerov step on this domain")
        self.f_base = 1.0 - ddx12 * self.base
        self.f_lam = ddx12 * self.r2
        self.ddx12 = ddx12
        # two-term series start of the regular solution, v ~ r^S (1 + c1 r)
        c1 = self.B / (1.0 + 2.0 * self.S)
        start = 1e-100
        self.v0 = start * (1.0 + c1 * self.r[0])
        self.v1 = start * math.exp(self.S * self.h) * (1.0 + c1 * self.r[1])
        margin = max(4, int(round(math.log(2.0) / self.h)))
        self.idx_lo = margin
        self.idx_hi = n - margin

    def coeffs(self, lam: float) -> np.ndarray:
        return self.f_base + lam * self.f_lam

    def match_index(self, lam: float) -> int:
        inside = np.nonzero(self.base - lam * self.r2 < 0.0)[0]
        m = int(inside[-1]) if inside.size else (self.f_base.size // 2)
        return min(max(m, self.idx_lo), self.idx_hi)

    def outward(self, f: np.ndarray, upto: int) -> np.ndarray:
        y = _numerov_march(f[: upto + 1], self.v0, self.v1)
        if not np.all(np.isfinite(y)):
            y = _numerov_march(f[: upto + 1], self.v0 * 1e-150, self.v1 * 1e-150)
            if not np.all(np.isfinite(y)):
                raise ShootingError("outward sweep overflowed even after rescaling")
        return y

    def inward(self, f: np.ndarray, downto: int) -> np.ndarray:
        tail = f[downto:][::-1]
        y1 = (12.0 - 10.0 * tail[0]) / tail[1]  # treats the value beyond r_max as 0
        y = _numerov_march(tail, 1.0, y1)
        if not np.all(np.isfinite(y)):
            raise ShootingError("inward sweep overflowed")
        return y[::-1]


def _matched_solution(ws: _ShootingWorkspace, lam: float):
    """Join outward and inward sweeps at the turning point.

    Returns (combined y normalized to 1 at the match index, match index,
    matching defect F, Newton denominator).
    """
    f = ws.coeffs(lam)
    m = ws.match_index(lam)
    for shift in (0, 1, -1, 2, -2, 3):
        mm = min(max(m + shift, ws.idx_lo), ws.idx_hi)
        left = ws.outward(f, mm + 1)
        right = ws.inward(f, mm - 1)
        if left[mm] != 0.0 and right[1] != 0.0:
            m = mm
            break
    else:
        raise ShootingError("could not place the match point away from a node")
    left = left / left[m]
    right = right / right[1]
    y = np.concatenate((left[:m], [1.0], right[2:]))
    defect = f[m - 1] * left[m - 1] + f[m + 1] * right[2] - (12.0 - 10.0 * f[m])
    denom = ws.h * ws.h * float(np.sum(ws.r2 * y * y))
    return y, m, float(defect), denom


def shoot_eigenvalue(
    params: ModelParams,
    channel: Channel,
    component: Component,
    node_target: int,
    config: ShootingConfig,
) -> EigenResult:
    """Find the level whose interior solution carries ``node_target`` nodes.

    Bisection on the node count of the regular solution (counted up to the
    outer turning point) brackets the level; once the count matches, the
    mismatch of the two Numerov sweeps at the turning point drives a Newton
    correction delta-lambda = -F / (h^2 sum w y^2).  Raises NoBracketError
    when the bracket contains no such level (the b = 0 case in particular),
    ConvergenceError on iteration cap, NodeMismatchError if the converged
    solution violates Sturm ordering.
    """
    if node_target < 0:
        raise ValueError("node_target must be nonnegative")
    lo, hi = config.lambda_bracket
    if not (lo < hi < 0.0):
        raise NoBracketError(
            f"bound levels need a bracket inside lambda < 0; got ({lo}, {hi})"
        )
    ws = _ShootingWorkspace(params, channel, component, config)

    def nodes_at(lam: float) -> int:
        # full-domain sweep: the zero count of the regular solution equals the
        # number of boxed levels strictly below lam (Sturm oscillation)
        f = ws.coeffs(lam)
        return count_sign_changes(ws.outward(f, f.size - 1))

    if nodes_at(hi) <= node_target:
        raise NoBracketError(
            f"no level with {node_target} nodes below the bracket top {hi}"
        )
    if nodes_at(lo) > node_target:
        raise NoBracketError(
            f"the bracket floor {lo} already lies above the {node_target}-node level"
        )

    lam = 0.5 * (lo + hi)
    best: Optional[float] = None
    for _ in range(300):
        count = nodes_at(lam)
        if count > node_target:
            hi = lam
        else:
            lo = lam
        if count == node_target:
            _, _, defect, denom = _matched_solution(ws, lam)
            delta = -defect / denom
            if abs(delta) <= config.tolerance:
                best = min(max(lam + delta, lo), hi)
                break
            candidate = lam + delta
            lam = candidate if lo < candidate < hi else 0.5 * (lo + hi)
        else:
            lam = 0.5 * (lo + hi)
        if hi - lo <= config.tolerance:
            best = 0.5 * (lo + hi)
            break
    if best is None:
        raise ConvergenceError(
            f"eigenvalue iteration did not reach tolerance {config.tolerance} "
            f"(bracket [{lo}, {hi}])"
        )

    y, m, defect, _ = _matched_solution(ws, best)
    found = count_sign_changes(y)
    if found != node_target:
        raise NodeMismatchError(
            f"converged solution has {found} nodes, expected {node_target}"
        )
    f = ws.coeffs(best)
    scale = abs(f[m - 1] * y[m - 1]) + abs(f[m + 1] * y[m + 1]) + abs(12.0 - 10.0 * f[m])
    e2 = best + params.mass**2 + params.b**2
    e = math.sqrt(max(e2, 0.0))
    return EigenResult(
        lambda_=best,
        energy_pair=(e, -e),
        node_count=found,
        converged=True,
        residual=abs(defect) / scale,
    )


def _outer_radius(gamma: float, tail_exponent: float) -> float:
    """Box radius at which the WKB tail sits e^(-30) below its peak.

    The decaying solution behaves like r^p e^(-gamma r) with the Coulomb
    exponent p = |b kappa_bar| / gamma; for large p the polynomial factor
    postpones the decay well beyond 30/gamma, so the plain rule undersizes
    the box and the Dirichlet wall shifts the eigenvalue visibly.
    """
    p = max(tail_exponent, 0.0)
    target = 30.0 + p - (p * math.log(p) if p > 0 else 0.0)
    t = 30.0 + 2.0 * p
    for _ in range(4):
        t = target + (p * math.log(t) if p > 0 else 0.0)
    return t / gamma


def default_shooting_config(
    params: ModelParams,
    channel: Channel,
    component: Component,
    node_target: int,
    step_count: int = 6000,
) -> ShootingConfig:
    """Search domain seeded from coarse scales only.

    The slowest conceivable decay rate over admissible channels is about
    |b| / (2 n + 3), which fixes a generous first-pass box; the bracket spans
    the whole physical window -b^2 < lambda < 0.
    """
    angular_strength(channel.kappa_bar, component)  # rejects |kappa_bar| <= 1/2
    b = abs(params.b)
    if b == 0.0:
        raise NoBracketError("b = 0: the bound-state window M <= |E| < M* is empty")
    gamma_seed = b / (2.0 * (node_target + 1.0) + 1.0)
    r_min = 1e-6 / gamma_seed
    r_max = 30.0 / gamma_seed
    return ShootingConfig(
        r_min=r_min,
        r_max=r_max,
        step_count=step_count,
        match_point=math.sqrt(r_min * r_max),
        lambda_bracket=(-b * b * (1.0 + 1e-6), -b * b * 1e-8),
        tolerance=1e-10 * b * b,
    )


def solve_bound_level(
    params: ModelParams,
    channel: Channel,
    component: Component,
    node_target: int,
    step_count: int = 6000,
) -> EigenResult:
    """Shoot in two passes.  The first only locates the level, so it runs on
    a coarser grid; the second rescales r_min = 1e-6/gamma and the box radius
    to the decay rate gamma = sqrt(-lambda) found by the first and re-solves
    with a tightened bracket."""
    config = default_shooting_config(params, channel, component, node_target, min(3000, step_count))
    located = shoot_eigenvalue(params, channel, component, node_target, config)
    gamma = math.sqrt(-located.lambda_)
    r_min = 1e-6 / gamma
    r_max = _outer_radius(gamma, abs(params.b * channel.kappa_bar) / gamma)
    config = ShootingConfig(
        r_min=r_min,
        r_max=r_max,
        step_count=step_count,
        match_point=math.sqrt(r_min * r_max),
        lambda_bracket=(1.5 * located.lambda_, 0.5 * located.lambda_),
        tolerance=config.tolerance,
    )
    return shoot_eigenvalue(params, channel, component, node_target, config)


@dataclass(frozen=True)
class IntegrationReport:
    """Growth/decay diagnostic of one outward pass of the first-order system.

    ``steps`` counts the RK4 steps of the pass and ``renormalizations`` the
    block boundaries at which the marching state was rescaled; both depend on
    the inputs only.
    """

    energy: float
    lambda_: float
    decay_ratio: float
    classification: str  # "bound" or "growing"
    peak_radius: float
    renormalizations: int
    steps: int


# Step matrices are formed and multiplied at most _CHUNK_STEPS at a time, so the
# working memory is bounded by the chunk, not by the step count.  The scan runs
# within blocks of _BLOCK_STEPS steps (a power of two); the state is carried
# across block boundaries one at a time and renormalised there.  The step
# schedule comes from the phase integral tabulated on _PHASE_POINTS points.
_CHUNK_STEPS = 2048
_BLOCK_STEPS = 64
_PHASE_POINTS = 1025


def _compose(later: np.ndarray, earlier: np.ndarray) -> np.ndarray:
    """D of (I + later)(I + earlier) = I + D for 2x2 matrices stored as (2, 2, ...) arrays.

    D = earlier + later + later @ earlier keeps increments far below 1 that
    forming the product of I + D would round away.
    """
    return earlier + later + (later[:, :1] * earlier[0] + later[:, 1:] * earlier[1])


def _renormalised(g, f):
    """(g, f) rescaled exactly by a power of two to max(|g|, |f|) in [1/2, 1), and the exponent."""
    shift = int(np.frexp(max(abs(g), abs(f)))[1])
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

    States arrive in runs, in order of increasing r, each state carrying the
    log of the scale factor it is stored under.  A sample target is filled by
    the first state with r >= target * (1 - 1e-12).
    """

    def __init__(self, targets: np.ndarray):
        self.thresholds = targets * (1.0 - 1e-12)
        self.r = np.empty(targets.size)
        self.g = np.empty(targets.size)
        self.f = np.empty(targets.size)
        self.log_scale = np.empty(targets.size)
        self.taken = 0
        self.peak_log = -math.inf
        self.peak_radius = math.nan

    def visit(self, r: np.ndarray, g: np.ndarray, f: np.ndarray, log_scale: np.ndarray):
        g, f = g.astype(float), f.astype(float)
        with np.errstate(divide="ignore"):
            amp_log = 0.5 * np.log(g * g + f * f) + log_scale
        i = int(np.argmax(amp_log))
        if amp_log[i] > self.peak_log:
            self.peak_log = float(amp_log[i])
            self.peak_radius = float(r[i])
        idx = np.searchsorted(r, self.thresholds[self.taken:], side="left")
        idx = idx[idx < r.size]
        fill = slice(self.taken, self.taken + idx.size)
        self.r[fill], self.g[fill], self.f[fill] = r[idx], g[idx], f[idx]
        self.log_scale[fill] = log_scale[idx]
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
    matrices of one chunk of steps are formed at once in extended precision.
    Within each block of steps a work-efficient scan (Blelloch 1990) first
    multiplies neighbouring pairs up to the block product, composing in the
    form (I + D_b)(I + D_a) = I + D_a + D_b + D_b D_a, which keeps the small
    increments that rounding I + D would drop; the state then crosses the
    block in one step and is renormalised by a power of two, an exact
    rescaling; finally the pair products carry the block's start state down
    to every step, whose amplitude feeds the peak and the samples.  Memory
    is bounded by the chunk, not by the step count.

    Extended precision matters because any local error injected near the
    turning point gets amplified by the growing solution, roughly exp(30)
    over the default domain, and the 64-bit floor of ~1e-16 would leave a
    visible spurious tail at r_max.  A true bound energy decays to a tiny
    fraction of the peak by r_max = 30/gamma; a detuned one is flagged as
    growing.  The default ``fineness`` keeps the truncation error per step at
    the extended-precision roundoff level.
    """
    kb_f = channel.kappa_bar
    angular = max(abs(angular_strength(kb_f, "upper")), abs(angular_strength(kb_f, "lower")))
    if not fineness > 0.0:
        raise ValueError("fineness must be positive")
    lam = energy_value * energy_value - params.mass**2 - params.b**2
    gamma_ref = math.sqrt(-lam) if lam < 0.0 else max(abs(params.b), 0.1 * params.mass)
    r_lo = 1e-6 / gamma_ref
    r_hi = 30.0 / gamma_ref

    # step k ends where the phase integral of the variation rate reaches k * fineness
    abs_b, abs_kb = abs(params.b), abs(kb_f)
    x = np.linspace(math.log(r_lo), math.log(r_hi), _PHASE_POINTS)
    rx = np.exp(x)
    rate_dx = (1.0 + abs_kb + np.sqrt(abs(float(lam)) * rx * rx + 2.0 * abs_b * abs_kb * rx + angular)
               + (abs_b + gamma_ref) * rx)
    phase = np.concatenate(([0.0], np.cumsum(0.5 * (rate_dx[1:] + rate_dx[:-1]) * np.diff(x))))
    steps = max(1, math.ceil(phase[-1] / fineness))

    ld = np.longdouble
    kb, b, e_val = ld(kb_f), ld(params.b), ld(energy_value)
    mp, mm = ld(params.mass) + e_val, ld(params.mass) - e_val

    # series start: the dominant component carries the lower power of r
    r0 = ld(r_lo)
    if kb_f < 0:
        g = r0 ** (-kb) * (1.0 - b * r0)
        f = mm / (1.0 - 2.0 * kb) * r0 ** (1.0 - kb)
    else:
        f = r0**kb * (1.0 + b * r0)
        g = mp / (1.0 + 2.0 * kb) * r0 ** (1.0 + kb)

    g, f, exponent = _renormalised(g, f)  # the state is (g, f) * 2**exponent
    ln2 = math.log(2.0)
    recorder = _Recorder(np.geomspace(r_lo, r_hi, sample_count))
    renorms = 0
    for k0 in range(0, steps, _CHUNK_STEPS):
        k1 = min(k0 + _CHUNK_STEPS, steps)
        n = k1 - k0
        r = np.exp(np.interp(np.arange(k0, k1 + 1) * fineness, phase, x))
        if k0 == 0:
            r[0] = r_lo
        if k1 == steps:
            r[-1] = r_hi
        r = np.minimum(r, r_hi).astype(ld)
        blocks = -(-n // _BLOCK_STEPS)
        d = np.zeros((2, 2, blocks * _BLOCK_STEPS), dtype=ld)  # padding steps are identities
        d[..., :n] = _rk4_step_deltas(r[:-1], np.diff(r), kb, b, mp, mm)

        # up-sweep: products of 2, 4, ... consecutive steps, up to one per block
        levels = [d.reshape(2, 2, blocks, _BLOCK_STEPS)]
        while levels[-1].shape[-1] > 1:
            levels.append(_compose(levels[-1][..., 1::2], levels[-1][..., ::2]))
        totals = levels.pop().reshape(4, blocks).tolist()

        start = np.empty((2, blocks), dtype=ld)
        start_exponent = np.empty(blocks)
        for j, (t00, t01, t10, t11) in enumerate(zip(*totals)):
            start[0, j], start[1, j], start_exponent[j] = g, f, exponent
            g, f = g + (t00 * g + t01 * f), f + (t10 * g + t11 * f)
            g, f, shift = _renormalised(g, f)
            exponent += shift
            renorms += shift != 0

        # down-sweep: the state before every step of a block from its start state
        y = start[:, :, None]
        for level in reversed(levels):
            earlier = level[..., ::2]
            after = y + (earlier[:, 0] * y[0] + earlier[:, 1] * y[1])
            y = np.stack((y, after), axis=-1).reshape(2, blocks, -1)
        y = y.reshape(2, -1)[:, :n]
        recorder.visit(r[:-1], y[0], y[1], np.repeat(start_exponent * ln2, _BLOCK_STEPS)[:n])
    recorder.visit(np.array([r_hi]), np.array([g]), np.array([f]), np.array([exponent * ln2]))

    amp2_end = float(g * g + f * f)
    end_log = 0.5 * math.log(amp2_end) + exponent * ln2 if amp2_end > 0.0 else -math.inf
    peak_log = recorder.peak_log
    decay_ratio = math.exp(end_log - peak_log) if peak_log > -math.inf else math.inf
    classification = "bound" if (lam < 0.0 and decay_ratio < 1e-3) else "growing"

    taken = slice(recorder.taken)
    rr = recorder.r[taken]
    scales = np.exp(recorder.log_scale[taken] - peak_log)
    gg = recorder.g[taken] * scales
    ff = recorder.f[taken] * scales
    norm = float(np.trapezoid(gg * gg + ff * ff, rr))
    if classification == "bound" and norm > 0.0:
        gg = gg / math.sqrt(norm)
        ff = ff / math.sqrt(norm)
        norm = 1.0
    samples = RadialSamples(
        r=rr,
        g=gg,
        f=ff,
        node_count_g=count_sign_changes(gg),
        node_count_f=count_sign_changes(ff),
        l2_norm=norm,
    )
    report = IntegrationReport(
        energy=energy_value,
        lambda_=lam,
        decay_ratio=decay_ratio,
        classification=classification,
        peak_radius=recorder.peak_radius,
        renormalizations=renorms,
        steps=steps,
    )
    return samples, report
