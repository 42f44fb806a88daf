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


class ZeroKappaBarError(UnboundChannelError):
    """kappa_bar = 0: the would-be level sits exactly at the effective-mass
    edge and is not normalizable, so no state is ever returned for it."""


def _require_finite(name, value):
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class ModelParams:
    """Radial tensor potential U(r) = a/r + b acting on a fermion of mass M."""

    mass: float
    a: float
    b: float

    def __post_init__(self):
        _require_finite("mass", self.mass)
        _require_finite("a", self.a)
        _require_finite("b", self.b)
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
    rounding as the construction helpers use; build channels through
    :meth:`from_kappa` or :meth:`from_j` rather than by hand.
    """

    kappa: int
    kappa_bar: float
    j: float
    ell_upper: int
    spin_aligned: bool

    def __post_init__(self):
        if self.kappa == 0:
            raise ValueError("kappa = 0 is not an allowed Dirac quantum number")
        if self.spin_aligned:
            ok = self.kappa == -(self.ell_upper + 1) and self.j == self.ell_upper + 0.5
        else:
            ok = self.kappa == self.ell_upper and self.j == self.ell_upper - 0.5
        if not ok:
            raise ValueError(
                f"inconsistent channel: kappa={self.kappa}, j={self.j}, "
                f"ell_upper={self.ell_upper}, spin_aligned={self.spin_aligned}"
            )

    @classmethod
    def from_kappa(cls, kappa: int, a: float = 0.0) -> "Channel":
        kappa = int(kappa)
        if kappa == 0:
            raise ValueError("kappa = 0 is not an allowed Dirac quantum number")
        if kappa < 0:
            ell = -kappa - 1
            return cls(kappa, kappa + a, ell + 0.5, ell, True)
        ell = kappa
        return cls(kappa, kappa + a, ell - 0.5, ell, False)

    @classmethod
    def from_j(cls, j: float, spin_aligned: bool, a: float = 0.0) -> "Channel":
        if round(2 * j) != 2 * j or j <= 0 or int(round(2 * j)) % 2 == 0:
            raise ValueError(f"j must be a positive half-integer, got {j!r}")
        kappa = int(round(j + 0.5))
        if spin_aligned:
            kappa = -kappa
        return cls.from_kappa(kappa, a)


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


@dataclass(frozen=True)
class KappaRange:
    """Open half-line of admissible integer kappa for one sign of b."""

    side: Literal["below", "above"]
    threshold: float

    def contains(self, kappa: int) -> bool:
        if kappa == 0 or kappa != int(kappa):
            return False
        if self.side == "below":
            return kappa < self.threshold
        return kappa > self.threshold

    def integers(self, lo: int, hi: int) -> list[int]:
        """Admissible integers within [lo, hi]."""
        return [k for k in range(lo, hi + 1) if self.contains(k)]

    def describe(self) -> str:
        op = "<" if self.side == "below" else ">"
        return f"integer kappa {op} {self.threshold} (kappa != 0)"


def kappa_range(params: ModelParams) -> KappaRange:
    """Half-line of kappa values whose channels bind for the given b sign.

    b > 0 binds kappa < -a - 1/2 (kappa_bar < -1/2); b < 0 binds
    kappa > -a + 1/2.  b = 0 is rejected: no channel binds at all.
    """
    if params.b == 0:
        raise UnboundChannelError(
            "b = 0 supports no bound channels (the 1/r tensor term alone does not bind)"
        )
    if params.b > 0:
        return KappaRange("below", -params.a - 0.5)
    return KappaRange("above", -params.a + 0.5)


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
            return self.n_g + 0.5 + abs(0.5 + kb)
        return self.n_f + 0.5 + abs(0.5 - kb)

    @property
    def is_special(self) -> bool:
        """True for the nodeless |E| = M states with one vanishing component."""
        kb = self.channel.kappa_bar
        return (self.n_g == 0 and kb < -0.5) or (self.n_f == 0 and kb > 0.5)


@dataclass(frozen=True)
class RadialSamples:
    """Sampled radial components g(r), f(r) on a strictly increasing grid."""

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
        if r[0] <= 0:
            raise ValueError("the radial grid must start at r > 0")
        if np.any(np.diff(r) <= 0):
            raise ValueError("the radial grid must be strictly increasing")
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "f", f)
