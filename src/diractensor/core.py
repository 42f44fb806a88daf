"""Quantum numbers and model parameters for the tensor-coupled radial Dirac problem.

Conventions (natural units, hbar = c = 1):

* ``mass`` is the fermion mass M > 0; ``b`` (constant tensor strength) shares
  its unit, ``a`` (Coulomb-like tensor strength) is dimensionless.
* ``kappa`` is the integer spin-orbit quantum number of the central-field
  Dirac spinor: kappa = -(ell + 1) for spin aligned with orbital momentum
  (j = ell + 1/2), kappa = +ell for anti-aligned (j = ell - 1/2).  kappa = 0
  does not occur.
* Only the shifted combination ``kappa_bar = kappa + a`` enters energies and
  wavefunctions.  Bound states exist iff ``b * kappa_bar < 0`` and
  ``|kappa_bar| > 1/2``; every bound energy obeys
  ``M <= |E| < M* = sqrt(M**2 + b**2)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Optional

import numpy as np

Component = Literal["upper", "lower"]
Branch = Literal["particle", "antiparticle"]

#: Sign of the energy root selected by each branch.
BRANCH_SIGN = {"particle": 1.0, "antiparticle": -1.0}


class UnboundChannelError(ValueError):
    """A bound state was requested for a channel that supports none."""


def _require_finite(name, value):
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class ModelParams:
    """Radial tensor potential U(r) = a/r + b acting on a fermion of mass M;
    each field is stored as a float, so the tables built from it hold floats."""

    mass: float
    a: float
    b: float

    def __post_init__(self):
        for name in ("mass", "a", "b"):
            _require_finite(name, getattr(self, name))
            object.__setattr__(self, name, float(getattr(self, name)))
        if self.mass <= 0:
            raise ValueError(f"mass must be positive, got {self.mass!r}")

    @property
    def effective_mass(self) -> float:
        """M* = sqrt(M**2 + b**2), the strict upper bound of bound |E|."""
        return math.hypot(self.mass, self.b)

    @property
    def b_squared(self) -> float:
        """b**2, or OverflowError naming b where that is past float64's range."""
        try:
            return self.b**2
        except OverflowError:
            raise OverflowError(f"b^2 is past float64's range at b = {self.b!r}") from None


@dataclass(frozen=True)
class Channel:
    """One spin-orbit channel: kappa together with its shifted kappa_bar.

    ``kappa_bar`` must equal ``kappa + a`` with the same floating-point
    rounding as :meth:`from_kappa` uses; build channels through it rather
    than by hand.  j, ell and the spin alignment follow from kappa.
    """

    kappa: int
    kappa_bar: float

    def __post_init__(self):
        if self.kappa == 0:
            raise ValueError("kappa = 0 is not an allowed Dirac quantum number")

    @classmethod
    def from_kappa(cls, kappa: int, a: float = 0.0) -> "Channel":
        return cls(int(kappa), int(kappa) + float(a))

    @property
    def spin_aligned(self) -> bool:
        """Spin along the orbital momentum, j = ell + 1/2: kappa < 0."""
        return self.kappa < 0

    @property
    def ell_upper(self) -> int:
        """Orbital momentum of the upper component."""
        return -self.kappa - 1 if self.kappa < 0 else self.kappa

    @property
    def j(self) -> float:
        """Total angular momentum |kappa| - 1/2."""
        return abs(self.kappa) - 0.5


def bound_states_exist(params: ModelParams, channel: Channel) -> bool:
    """True iff the channel binds: b * kappa_bar < 0 and |kappa_bar| > 1/2.

    The window 0 < |kappa_bar| <= 1/2 is excluded (the node numbers of the
    two spinor components cannot both be integers there), and kappa_bar = 0
    never binds.
    """
    if channel.kappa + params.a != channel.kappa_bar:
        raise ValueError(
            f"channel (kappa={channel.kappa}, kappa_bar={channel.kappa_bar}) "
            f"was built for a different Coulomb strength than a={params.a}"
        )
    kb = channel.kappa_bar
    return params.b * kb < 0.0 and abs(kb) > 0.5


def angular_strength(kappa_bar: float, component: Component) -> float:
    """kappa_bar*(kappa_bar +/- 1), the 1/r^2 strength in the second-order equation
    of the upper (+) or lower (-) component.  Raises UnboundChannelError for
    |kappa_bar| <= 1/2, where the centrifugal term degenerates and no level exists."""
    if abs(kappa_bar) <= 0.5:
        raise UnboundChannelError(
            f"|kappa_bar| = {abs(kappa_bar)} <= 1/2: the centrifugal term degenerates, "
            "no level exists"
        )
    if component == "upper":
        return kappa_bar * (kappa_bar + 1.0)
    if component == "lower":
        return kappa_bar * (kappa_bar - 1.0)
    raise ValueError(f"component must be 'upper' or 'lower', got {component!r}")


def n_bar(kappa_bar: float, n_g: int) -> float:
    """Principal-like number n_g + 1/2 + |1/2 + kappa_bar| (upper-component
    index); from the lower-component index it is n_bar(-kappa_bar, n_f)."""
    return n_g + 0.5 + abs(0.5 + kappa_bar)


def lower_degree(kappa_bar, n_g):
    """The node law, n_f = n_g - 1 for kappa_bar < -1/2 and n_g + 1 for kappa_bar > 1/2."""
    return n_g - 1 if kappa_bar < 0 else n_g + 1


def equation_constants(b: float, kappa_bar: float, component: Component) -> tuple[float, float]:
    """S^2 = kappa_bar (kappa_bar +/- 1) + 1/4 and B = 2 b kappa_bar of a component's
    second-order equation in x = ln r and v = u / sqrt(r): v'' = (S^2 + B r - lambda r^2) v."""
    return angular_strength(kappa_bar, component) + 0.25, 2.0 * b * kappa_bar


def level_extent(s2: float, coulomb: float, lam: float,
                 suppression: float = 30.0) -> tuple[float, float]:
    """The radii below and beyond which a level of v'' = Q v, Q = S^2 + B r -
    lam r^2 in x = ln r (S^2 and B from ``equation_constants``), at lam < 0,
    lies e^(-suppression) or more below its value at its turning points, in
    the unit of length that B and lam are given in.

    The solutions of that equation grow or decay by the WKB exponent, the
    integral of sqrt(Q) dx.  Every inner turning point lies above S^2/|B|,
    and the exponent from r up to there is at least S (ln(4/t) - 2),
    t = |B| r / S^2: so the inner end is 4 S^2/|B| e^(-2 - suppression/S),
    held below (1 + 2S)/(2|B|) so that the series start r^S (1 + c1 r),
    c1 = B/(1 + 2S), adds no node.  It is 0 where B >= 0, and where S is
    small it lies absurdly low or underflows to 0, so callers put a floor
    under it.  The outer end is where the exponent from the outer root of Q
    (its minimum where it has none) reaches ``suppression``: Newton steps on
    sqrt(Q) - k ln(2 sqrt(m Q) + 2 m r - beta) + S ln(P/r), the
    antiderivative of sqrt(Q)/r, with m = -lam, beta = |B|,
    k = beta/(2 sqrt(m)) and P = 2 S sqrt(Q) + beta r - 2 S^2."""
    s, beta, m = math.sqrt(s2), abs(coulomb), -lam
    inner = min(4.0 * s * s * math.exp(-2.0 - suppression / s), 0.5 + s) / beta if coulomb < 0 else 0.0
    root_m, disc, centre = math.sqrt(m), beta * beta - 4.0 * m * s2, beta / (2.0 * m)
    k, e = beta / (2.0 * root_m), math.sqrt(abs(disc))
    # G at the outer root is (S - k) ln e, written to be 0 at a double root
    base = -disc / (2.0 * root_m * (beta + 2.0 * s * root_m)) * math.log(e) if disc else 0.0
    start = centre + e / (2.0 * m) if disc >= 0.0 else centre
    if disc < 0.0:  # G at the minimum of Q
        base += e / (2.0 * root_m) + s * math.log(beta / (2.0 * s * root_m + e))
    r = start + suppression / root_m
    for _ in range(50):
        root_q = math.sqrt(m * (r - centre) ** 2 - 0.25 * disc / m)
        t = beta * r - 2.0 * s2  # P / r, free of cancellation where t < 0 (only if disc < 0)
        p = (2.0 * s * root_q + t) / r if t >= 0.0 else -disc * r / (2.0 * s * root_q - t)
        g = root_q - k * math.log(2.0 * root_m * root_q + 2.0 * m * r - beta) + s * math.log(p)
        step = (g - base - suppression) * r / root_q
        r = max(r - step, 0.5 * (start + r))
        if abs(step) <= 1e-12 * r:
            break
    return inner, r


def box_radius(gamma: float, tail_exponent: float, suppression: float) -> float:
    """Radius at which the bound-state tail r^p e^(-gamma r) has fallen
    e^(-suppression) below its peak, p = |b kappa_bar| / gamma the Coulomb
    exponent.

    The tail peaks at r = p / gamma, so for large p the polynomial factor
    postpones the decay well beyond suppression / gamma, and a box of that
    plain size would cut the state off near its peak.
    """
    p = max(tail_exponent, 0.0)
    target = suppression + p - (p * math.log(p) if p > 0 else 0.0)
    t = suppression + 2.0 * p
    for _ in range(4):
        t = target + (p * math.log(t) if p > 0 else 0.0)
    return t / gamma


@dataclass(frozen=True)
class BoundState:
    """One bound level.

    ``n_g``/``n_f`` are the polynomial degrees (= node counts) of the upper
    and lower radial components.  Exactly one of them is None for the special
    |E| = M states, whose corresponding component vanishes identically.
    """

    channel: Channel
    energy: float
    branch: Branch
    gamma: float
    effective_mass: float
    n_g: Optional[int] = None
    n_f: Optional[int] = None

    def __post_init__(self):
        if self.gamma <= 0:
            raise ValueError(f"decay rate gamma must be positive, got {self.gamma!r}")
        if abs(self.energy) >= self.effective_mass:
            raise ValueError(
                f"|E| = {abs(self.energy)!r} must stay below the effective mass "
                f"{self.effective_mass!r}"
            )
        if self.n_g is None and self.n_f is None:
            raise ValueError("at least one of n_g, n_f must index the state")
        if self.n_g is not None and self.n_f is not None:
            kb = self.channel.kappa_bar
            expected = lower_degree(kb, self.n_g)
            if self.n_f != expected:
                raise ValueError(
                    f"node law violated: n_f={self.n_f} but n_g={self.n_g} with "
                    f"kappa_bar={kb} demands n_f={expected}"
                )

    @property
    def n_bar(self) -> float:
        """Principal-like number; |E| depends only on |kappa_bar| / n_bar."""
        kb = self.channel.kappa_bar
        if self.n_g is not None:
            return n_bar(kb, self.n_g)
        return n_bar(-kb, self.n_f)

    @property
    def is_special(self) -> bool:
        """True for the nodeless |E| = M states, whose vanishing component has
        no degree."""
        return self.n_g is None or self.n_f is None


@dataclass(frozen=True)
class RadialSamples:
    """Sampled radial components g(r), f(r) on a finite, strictly increasing grid."""

    r: np.ndarray
    g: np.ndarray
    f: np.ndarray
    node_count_g: int
    node_count_f: int

    def __post_init__(self):
        r = np.asarray(self.r, dtype=float)
        g = np.asarray(self.g, dtype=float)
        f = np.asarray(self.f, dtype=float)
        if not (r.shape == g.shape == f.shape) or r.ndim != 1 or r.size < 2:
            raise ValueError("r, g, f must be 1-d arrays of one common length >= 2")
        if not np.all(np.isfinite(r)):
            raise ValueError("the radial grid must be finite")
        if r[0] <= 0:
            raise ValueError("the radial grid must start at r > 0")
        if np.any(np.diff(r) <= 0):
            raise ValueError("the radial grid must be strictly increasing")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "f", f)
