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
            expected = self.n_g - 1 if kb < 0 else self.n_g + 1
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
        """True for the nodeless |E| = M states with one vanishing component."""
        kb = self.channel.kappa_bar
        return (self.n_g == 0 and kb < -0.5) or (self.n_f == 0 and kb > 0.5)


@dataclass(frozen=True)
class RadialSamples:
    """Sampled radial components g(r), f(r) on a finite, strictly increasing grid."""

    r: np.ndarray
    g: np.ndarray
    f: np.ndarray
    node_count_g: int
    node_count_f: int
    l2_norm: float

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
