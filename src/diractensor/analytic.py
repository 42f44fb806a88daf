"""Closed-form bound states of the Dirac equation with tensor potential a/r + b.

The first-order radial system for the upper/lower components g, f,

    [d/dr + kappa_bar/r + b] g = (M + E) f,
    [d/dr - kappa_bar/r - b] f = (M - E) g,        kappa_bar = kappa + a,

decouples into two second-order equations that map onto a Schroedinger
problem in a singular Coulomb potential Z/r + beta/(2 m r^2).  Both radial
components come out as (2*gamma*r)^p * exp(-gamma*r) * L_n^(alpha)(2*gamma*r)
with

    E = +/- sqrt(M^2 + b^2 * [1 - (kappa_bar / n_bar)^2]),
    n_bar = n_g + 1/2 + |1/2 + kappa_bar|,
    gamma = |b * kappa_bar| / n_bar,

valid whenever b*kappa_bar < 0 and |kappa_bar| > 1/2.  The node counts obey
n_f = n_g - 1 for kappa_bar < -1/2 and n_f = n_g + 1 for kappa_bar > +1/2.
The nodeless edge levels pin |E| = M exactly and lose one component entirely:
E = +M with f = 0 for kappa_bar < -1/2 (b > 0), and the mirror E = -M with
g = 0 for kappa_bar > +1/2 (b < 0); they are infinitely degenerate across
admissible kappa_bar.  Charge conjugation flips (a, b, kappa_bar, E) jointly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable, Literal, Optional

import numpy as np

from .core import (
    BRANCH_SIGN,
    BoundState,
    Branch,
    Channel,
    Component,
    ModelParams,
    RadialSamples,
    UnboundChannelError,
    ZeroKappaBarError,
    angular_strength,
    bound_states_exist,
)
from .special import (
    LaguerreSpec,
    gauss_laguerre,
    laguerre,
    laguerre_derivative,
    laguerre_second_derivative,
    laguerre_weighted_norm,
)

__all__ = [
    "SingularCoulombMap",
    "WavefunctionForm",
    "SpectrumRow",
    "ConjugationPair",
    "ConjugationReport",
    "n_bar",
    "decay_rate",
    "energy",
    "bound_state",
    "special_state",
    "wavefunctions",
    "state_wavefunctions",
    "sample_state",
    "norm_quadrature",
    "spectrum",
    "nonrelativistic_binding",
    "charge_conjugate",
    "conjugation_report",
    "no_bound_states",
    "map_to_singular_coulomb",
]


def _require_bound(params: ModelParams, channel: Channel) -> float:
    """Validate the existence conditions and return kappa_bar."""
    kb = channel.kappa_bar
    if kb == 0.0:
        raise ZeroKappaBarError(
            "kappa_bar = 0: |E| would sit exactly at the effective mass, "
            "which is not a normalizable state"
        )
    if not bound_states_exist(params, channel):
        raise UnboundChannelError(
            f"no bound states for kappa={channel.kappa}, kappa_bar={kb}, b={params.b}: "
            "need b*kappa_bar < 0 and |kappa_bar| > 1/2"
        )
    return kb


def n_bar(kappa_bar: float, n_g: int) -> float:
    """Principal-like number n_g + 1/2 + |1/2 + kappa_bar| (upper-component index)."""
    return n_g + 0.5 + abs(0.5 + kappa_bar)


def decay_rate(params: ModelParams, kappa_bar: float, n_g: int) -> float:
    """Exponential decay rate gamma = |b*kappa_bar| / n_bar of the level."""
    return abs(params.b * kappa_bar) / n_bar(kappa_bar, n_g)


def energy(params: ModelParams, channel: Channel, n_g: int, branch: Branch = "particle", dtype=float):
    """Bound-state energy E = sign * sqrt(M^2 + b^2 [1 - (kappa_bar/n_bar)^2]).

    The nodeless kappa_bar < -1/2 level (n_g = 0) is excluded here: it pins
    E = +M with an identically vanishing lower component and is produced by
    :func:`special_state` instead.  Passing ``dtype=numpy.longdouble``
    evaluates the closed form in extended precision, which matters only when
    feeding eigenvalue-sensitive numerics like the outward integrator.
    """
    kb = _require_bound(params, channel)
    if n_g < 0 or n_g != int(n_g):
        raise ValueError(f"n_g must be a nonnegative integer, got {n_g!r}")
    if branch not in BRANCH_SIGN:
        raise ValueError(f"branch must be 'particle' or 'antiparticle', got {branch!r}")
    if kb < -0.5 and n_g == 0:
        raise ValueError(
            "n_g = 0 with kappa_bar < -1/2 is the special |E| = M level; "
            "use special_state()"
        )
    if dtype is float:
        ratio = kb / n_bar(kb, n_g)
        magnitude = math.sqrt(params.mass**2 + params.b**2 * (1.0 - ratio * ratio))
        return BRANCH_SIGN[branch] * magnitude
    ratio = dtype(kb) / dtype(n_bar(kb, n_g))
    one = dtype(1.0)
    magnitude = np.sqrt(dtype(params.mass) ** 2 + dtype(params.b) ** 2 * (one - ratio * ratio))
    return dtype(BRANCH_SIGN[branch]) * magnitude


def special_state(params: ModelParams, channel: Channel) -> BoundState:
    """The nodeless |E| = M level with one identically vanishing component.

    kappa_bar < -1/2 (so b > 0): E = +M, lower component f = 0,
    g proportional to r^(-kappa_bar) e^(-|b| r).  kappa_bar > +1/2 (b < 0):
    the mirror state with E = -M and zero upper component.  Every admissible
    kappa_bar yields the same energy, an infinitely degenerate family.
    """
    upper = _require_bound(params, channel) < -0.5  # g survives and f = 0, else the mirror
    return BoundState(
        channel=channel,
        energy=params.mass if upper else -params.mass,
        branch="particle" if upper else "antiparticle",
        gamma=abs(params.b),
        effective_mass=params.effective_mass,
        n_g=0 if upper else None,
        n_f=None if upper else 0,
    )


def bound_state(params: ModelParams, channel: Channel, n_g: int, branch: Branch = "particle") -> BoundState:
    """Regular (non-special) bound level indexed by the upper-component degree."""
    e = energy(params, channel, n_g, branch)
    kb = channel.kappa_bar
    n_f = n_g - 1 if kb < -0.5 else n_g + 1
    return BoundState(
        channel=channel,
        energy=e,
        branch=branch,
        gamma=decay_rate(params, kb, n_g),
        effective_mass=params.effective_mass,
        n_g=n_g,
        n_f=n_f,
    )


@dataclass(frozen=True)
class WavefunctionForm:
    """One radial component, amplitude * (2*gamma*r)^p * e^(-gamma*r) * L_n^(alpha).

    ``amplitude`` carries all sign factors and the inter-component ratio; the
    pair of forms returned by :func:`wavefunctions` is normalized so that
    integral (g^2 + f^2) dr = 1.
    """

    prefactor_exponent: float
    laguerre: LaguerreSpec
    gamma: float
    amplitude: float

    def __call__(self, r):
        x = 2.0 * self.gamma * np.asarray(r, dtype=float)
        val = self.amplitude * x**self.prefactor_exponent * np.exp(-0.5 * x) * laguerre(self.laguerre, x)
        return float(val) if np.ndim(r) == 0 else val

    def derivative(self, r):
        """Exact d/dr of the component (shifted-order Laguerre identity)."""
        p = self.prefactor_exponent
        x = 2.0 * self.gamma * np.asarray(r, dtype=float)
        L = laguerre(self.laguerre, x)
        dL = laguerre_derivative(self.laguerre, x)
        val = (
            self.amplitude
            * 2.0
            * self.gamma
            * np.exp(-0.5 * x)
            * x ** (p - 1.0)
            * (p * L - 0.5 * x * L + x * dL)
        )
        return float(val) if np.ndim(r) == 0 else val

    def second_derivative(self, r):
        """Exact d^2/dr^2 of the component."""
        p = self.prefactor_exponent
        x = 2.0 * self.gamma * np.asarray(r, dtype=float)
        L = laguerre(self.laguerre, x)
        dL = laguerre_derivative(self.laguerre, x)
        d2L = laguerre_second_derivative(self.laguerre, x)
        poly = p * (p - 1.0) * L + p * x * (2.0 * dL - L) + x * x * (0.25 * L - dL + d2L)
        val = self.amplitude * (2.0 * self.gamma) ** 2 * np.exp(-0.5 * x) * x ** (p - 2.0) * poly
        return float(val) if np.ndim(r) == 0 else val

    def squared_norm(self) -> float:
        """integral_0^inf (component)^2 dr via the closed-form moment integral."""
        if self.amplitude == 0.0:
            return 0.0
        h = laguerre_weighted_norm(self.laguerre.degree, self.laguerre.order)
        return self.amplitude**2 * h / (2.0 * self.gamma)


def _component_ratio(params: ModelParams, kb: float, n_g: int, e: float) -> float:
    """Amplitude of f relative to g, with the printed sign conventions."""
    m = params.mass
    root = math.sqrt(abs((m - e) / (m + e)))
    if kb < -0.5:
        return -math.copysign(1.0, m + e) * root / math.sqrt(n_g * (n_g - 2.0 * kb))
    return -math.sqrt((n_g + 1.0) * (n_g + 1.0 + 2.0 * kb)) * math.copysign(1.0, m - e) * root


def wavefunctions(
    params: ModelParams, channel: Channel, n_g: int, branch: Branch = "particle"
) -> tuple[WavefunctionForm, WavefunctionForm]:
    """Both radial components of the level indexed by the upper degree n_g.

    Unit total norm integral (g^2 + f^2) dr = 1 with positive upper-component
    amplitude.  For kappa_bar < -1/2 with n_g = 0 only the particle branch
    exists (E = +M, f identically 0); requesting its antiparticle twin raises,
    since the E = -M edge belongs to the conjugate family.
    """
    kb = _require_bound(params, channel)
    if n_g < 0:
        raise ValueError(f"n_g must be nonnegative, got {n_g!r}")
    if kb < -0.5 and n_g == 0:
        if branch != "particle":
            raise ValueError(
                "E = -M with kappa_bar < -1/2 is not normalizable; the mirror "
                "special state lives in the charge-conjugated family"
            )
        state = special_state(params, channel)
    else:
        state = bound_state(params, channel, n_g, branch)
    return state_wavefunctions(params, state)


def state_wavefunctions(params: ModelParams, state: BoundState) -> tuple[WavefunctionForm, WavefunctionForm]:
    """Unit-norm radial forms for any BoundState, including both special families.

    A special state's missing component (n_g or n_f of None) gets amplitude 0.
    """
    kb = state.channel.kappa_bar
    if kb < 0:
        p_g, alpha_g, p_f, alpha_f = -kb, -1.0 - 2.0 * kb, 1.0 - kb, 1.0 - 2.0 * kb
    else:
        p_g, alpha_g, p_f, alpha_f = 1.0 + kb, 1.0 + 2.0 * kb, kb, 2.0 * kb - 1.0
    g_spec = LaguerreSpec(state.n_g or 0, alpha_g)
    f_spec = LaguerreSpec(state.n_f or 0, alpha_f)
    gamma = state.gamma
    if state.n_g is None:
        amp_g = 0.0
        amp_f = math.sqrt(2.0 * gamma / laguerre_weighted_norm(0, alpha_f))
    else:
        ratio = 0.0 if state.n_f is None else _component_ratio(params, kb, state.n_g, state.energy)
        h_g = laguerre_weighted_norm(g_spec.degree, alpha_g)
        h_f = laguerre_weighted_norm(f_spec.degree, alpha_f) if ratio != 0.0 else 0.0
        amp_g = math.sqrt(2.0 * gamma / (h_g + ratio**2 * h_f))
        amp_f = ratio * amp_g
    return WavefunctionForm(p_g, g_spec, gamma, amp_g), WavefunctionForm(p_f, f_spec, gamma, amp_f)


def norm_quadrature(g_form: WavefunctionForm, f_form: WavefunctionForm) -> float:
    """integral (g^2 + f^2) dr by order-matched Gauss-Laguerre quadrature.

    Each component contributes amplitude^2/(2 gamma) * integral x^(alpha+1)
    e^(-x) L_n^2 dx, evaluated with the weight x^alpha so the remaining
    integrand x L_n^2 is a polynomial of degree 2n + 1, which the n + 1 node
    rule integrates exactly.
    """
    total = 0.0
    for form in (g_form, f_form):
        if form.amplitude == 0.0:
            continue
        spec = form.laguerre
        x, w = gauss_laguerre(spec.degree + 1, spec.order)
        vals = laguerre(spec, x)
        total += form.amplitude**2 * float(np.sum(w * x * vals * vals)) / (2.0 * form.gamma)
    return total


def sample_state(
    params: ModelParams,
    state: BoundState,
    r,
) -> RadialSamples:
    """Evaluate the state's components on a grid and collect node metadata."""
    from .oracle import count_sign_changes  # local import keeps oracle optional here

    r = np.asarray(r, dtype=float)
    g_form, f_form = state_wavefunctions(params, state)
    g = g_form(r)
    f = f_form(r)
    norm = float(np.trapezoid(g * g + f * f, r))
    return RadialSamples(
        r=r,
        g=g,
        f=f,
        node_count_g=count_sign_changes(g),
        node_count_f=count_sign_changes(f),
        l2_norm=norm,
    )


def default_radial_grid(state: BoundState, points: int = 1200) -> np.ndarray:
    """Log-spaced grid spanning the rise at the origin and the decaying tail."""
    return np.geomspace(1e-7 / state.gamma, 30.0 / state.gamma, points)


@dataclass(frozen=True)
class SpectrumRow:
    """One (channel, level) record; an unbound channel's row sets only kappa and kappa_bar."""

    kappa: int
    kappa_bar: float
    n_g: Optional[int] = None
    n_f: Optional[int] = None
    n_bar: Optional[float] = None
    energy: Optional[float] = None
    e_over_m: Optional[float] = None
    branch: Optional[Branch] = None
    is_special: bool = False
    bound: bool = False


def _row_from_state(params: ModelParams, state: BoundState) -> SpectrumRow:
    return SpectrumRow(
        kappa=state.channel.kappa,
        kappa_bar=state.channel.kappa_bar,
        n_g=state.n_g,
        n_f=state.n_f,
        n_bar=state.n_bar,
        energy=state.energy,
        e_over_m=state.energy / params.mass,
        branch=state.branch,
        is_special=state.is_special,
        bound=True,
    )


def spectrum(
    params: ModelParams,
    kappas: Iterable[int],
    n_max: int,
    branch: Literal["particle", "antiparticle", "both"] = "particle",
) -> list[SpectrumRow]:
    """Enumerate levels for the requested channels.

    Levels are indexed by the degree of the component that starts at zero
    nodes in each family (n_g for kappa_bar < -1/2, n_f for kappa_bar > 1/2),
    running 0..n_max; the index-0 entry is the special |E| = M state and
    appears only on the branch that carries it.  Non-binding channels are
    recorded as single unbound rows.  Rows are sorted by (|kappa_bar|,
    kappa_bar, n_bar, branch) so conjugated spectra align row by row.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    branches: tuple[Branch, ...]
    if branch == "both":
        branches = ("particle", "antiparticle")
    elif branch in ("particle", "antiparticle"):
        branches = (branch,)
    else:
        raise ValueError(f"branch must be 'particle', 'antiparticle' or 'both', got {branch!r}")

    rows = []
    for kappa in kappas:
        channel = Channel.from_kappa(kappa, params.a)
        if not bound_states_exist(params, channel):
            rows.append(SpectrumRow(kappa=channel.kappa, kappa_bar=channel.kappa_bar))
            continue
        kb = channel.kappa_bar
        for level in range(n_max + 1):
            if level == 0:
                state = special_state(params, channel)
                if state.branch in branches:
                    rows.append(_row_from_state(params, state))
                continue
            n_g = level if kb < -0.5 else level - 1
            for br in branches:
                rows.append(_row_from_state(params, bound_state(params, channel, n_g, br)))

    def key(row: SpectrumRow):
        return (
            abs(row.kappa_bar),
            row.kappa_bar,
            row.n_bar if row.n_bar is not None else -1.0,
            row.branch or "",
        )

    return sorted(rows, key=key)


def nonrelativistic_binding(params: ModelParams, channel: Channel, n_g: int) -> float:
    """Leading binding energy E - M for |b| << M:

        (b^2 / 2M) * [1 - kappa_bar^2 / (n_g + 1/2 + |kappa_bar + 1/2|)^2].

    The spin-orbit dependence survives this limit, unlike for vector or
    scalar couplings.
    """
    kb = _require_bound(params, channel)
    if n_g < 0:
        raise ValueError("n_g must be nonnegative")
    ratio = kb / n_bar(kb, n_g)
    return 0.5 * (params.b**2 / params.mass) * (1.0 - ratio * ratio)


def charge_conjugate(params: ModelParams) -> ModelParams:
    """Parameters seen by the charge-conjugated (antifermion) problem: the
    tensor potential flips sign, so a -> -a and b -> -b."""
    return ModelParams(mass=params.mass, a=-params.a, b=-params.b)


@dataclass(frozen=True)
class ConjugationPair:
    kappa_bar: float
    n_bar: float
    branch: Branch
    energy: float
    conjugate_energy: float

    @property
    def deviation(self) -> float:
        return abs(self.energy + self.conjugate_energy)


@dataclass(frozen=True)
class ConjugationReport:
    """State-by-state check of E(a, b) = -E'(-a, -b) under kappa_bar -> -kappa_bar,
    branch flip, and preserved n_bar."""

    pairs: tuple[ConjugationPair, ...]
    max_deviation: float
    complete: bool


def conjugation_report(params: ModelParams, kappas: Iterable[int], n_max: int) -> ConjugationReport:
    kappas = list(kappas)
    base = [row for row in spectrum(params, kappas, n_max, "both") if row.bound]
    conj_params = charge_conjugate(params)
    conj_rows = [
        row for row in spectrum(conj_params, [-k for k in kappas], n_max, "both") if row.bound
    ]
    flip = {"particle": "antiparticle", "antiparticle": "particle"}
    lookup = {(row.kappa_bar, row.n_bar, row.branch): row for row in conj_rows}

    pairs = []
    matched = set()
    complete = True
    for row in base:
        key = (-row.kappa_bar, row.n_bar, flip[row.branch])
        partner = lookup.get(key)
        if partner is None:
            complete = False
            continue
        matched.add(key)
        pairs.append(
            ConjugationPair(
                kappa_bar=row.kappa_bar,
                n_bar=row.n_bar,
                branch=row.branch,
                energy=row.energy,
                conjugate_energy=partner.energy,
            )
        )
    if len(matched) != len(conj_rows):
        complete = False
    max_dev = max((p.deviation for p in pairs), default=0.0)
    return ConjugationReport(pairs=tuple(pairs), max_deviation=max_dev, complete=complete)


def no_bound_states(params: ModelParams) -> bool:
    """True iff the potential binds nothing at all, i.e. b = 0.

    Without the constant term the second-order equations reduce to free
    Bessel form for any a, so no square-integrable level exists.
    """
    return params.b == 0.0


@dataclass(frozen=True)
class SingularCoulombMap:
    """Identification of one second-order radial equation with a Schroedinger
    problem in the singular Coulomb potential Z/r + beta/(2 m r^2).

    ``m_map`` is a bookkeeping mass with no physical meaning; it cancels in
    every energy.  ``epsilon`` is filled when a level index is supplied.
    """

    Z: float
    beta: float
    S: float
    epsilon: Optional[float]
    component: Component
    m_map: float

    def epsilon_at(self, level: int) -> float:
        """Mapped eigenvalue -m Z^2 / (2 (level + 1/2 + S)^2)."""
        if level < 0:
            raise ValueError("level must be nonnegative")
        return -self.m_map * self.Z**2 / (2.0 * (level + 0.5 + self.S) ** 2)

    def energy_pair(self, params: ModelParams, level: int) -> tuple[float, float]:
        """Dirac energies +/- sqrt(M^2 + b^2 + 2 m epsilon); m_map cancels."""
        e2 = params.mass**2 + params.b**2 + 2.0 * self.m_map * self.epsilon_at(level)
        e = math.sqrt(e2)
        return (e, -e)

    @property
    def binds(self) -> bool:
        return self.Z < 0.0 and self.beta > -0.25


def map_to_singular_coulomb(
    params: ModelParams,
    channel: Channel,
    component: Component,
    level: Optional[int] = None,
    m_map: float = 1.0,
) -> SingularCoulombMap:
    """Map the chosen component's second-order equation onto the singular
    Coulomb problem: Z = b*kappa_bar/m, beta = kappa_bar*(kappa_bar +/- 1)
    (orbital bookkeeping l = 0), epsilon = (E^2 - M^2 - b^2)/(2m)."""
    if m_map <= 0:
        raise ValueError("m_map must be positive")
    kb = channel.kappa_bar
    beta = angular_strength(kb, component)
    m = SingularCoulombMap(
        Z=params.b * kb / m_map,
        beta=beta,
        S=math.sqrt(beta + 0.25),
        epsilon=None,
        component=component,
        m_map=m_map,
    )
    if level is not None:
        m = replace(m, epsilon=m.epsilon_at(level))
    return m
