"""Closed-form bound states of the Dirac equation with tensor potential a/r + b.

The first-order radial system for the upper/lower components g, f,

    [d/dr + kappa_bar/r + b] g = (M + E) f,
    [d/dr - kappa_bar/r - b] f = (M - E) g,        kappa_bar = kappa + a,

decouples into two second-order equations that map onto a Schroedinger
problem in a singular Coulomb potential Z/r + beta/(2 m r^2).  Both radial
components come out as (2*gamma*r)^((alpha+1)/2) * exp(-gamma*r) *
L_n^(alpha)(2*gamma*r), evaluated as sqrt(x) times the orthonormal Laguerre
function psi_n^(alpha)(x), x = 2*gamma*r, with

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
from dataclasses import dataclass
from typing import Iterable, Literal

import numpy as np

from .core import (
    BRANCH_SIGN,
    BoundState,
    Branch,
    Channel,
    ModelParams,
    RadialSamples,
    UnboundChannelError,
    bound_states_exist,
    equation_constants,
    level_extent,
    lower_degree,
    n_bar,
)
from .special import LaguerreSpec, laguerre_function, laguerre_function_rule, require_degree

__all__ = [
    "WavefunctionForm",
    "energy",
    "bound_state",
    "special_state",
    "wavefunctions",
    "state_wavefunctions",
    "sample_state",
    "norm_quadrature",
    "residuals",
    "spectrum",
    "nonrelativistic_binding",
    "charge_conjugate",
]


def _require_bound(params: ModelParams, channel: Channel) -> float:
    """Validate the existence conditions and return kappa_bar."""
    kb = channel.kappa_bar
    if not bound_states_exist(params, channel):
        raise UnboundChannelError(
            f"no bound states for kappa={channel.kappa}, kappa_bar={kb}, b={params.b}: "
            "need b*kappa_bar < 0 and |kappa_bar| > 1/2"
        )
    return kb


def _require_resolved(params: ModelParams, channel: Channel) -> float:
    """``_require_bound``, and a window M <= |E| < M* that float64 resolves:
    at |b| below about 1e-8 M, M* = sqrt(M^2 + b^2) rounds to M and no
    energy fits below it."""
    kb = _require_bound(params, channel)
    if params.effective_mass == params.mass:
        raise ValueError(f"M* = sqrt(M^2 + b^2) rounds to M = {params.mass!r} at b/M = "
                         f"{params.b / params.mass!r}: float64 cannot resolve the window M <= |E| < M*")
    return kb


def energy(params: ModelParams, channel: Channel, n_g: int, branch: Branch = "particle") -> float:
    """Bound-state energy E = sign * sqrt(M^2 + b^2 [1 - (kappa_bar/n_bar)^2]).

    The nodeless kappa_bar < -1/2 level (n_g = 0) is excluded here: it pins
    E = +M with an identically vanishing lower component and is produced by
    :func:`special_state` instead.
    """
    kb = _require_resolved(params, channel)
    require_degree("n_g", n_g)
    if branch not in BRANCH_SIGN:
        raise ValueError(f"branch must be 'particle' or 'antiparticle', got {branch!r}")
    if kb < -0.5 and n_g == 0:
        raise ValueError(
            "n_g = 0 with kappa_bar < -1/2 is the special |E| = M level; "
            "use special_state()"
        )
    return BRANCH_SIGN[branch] * math.sqrt(_radicand(params, kb / n_bar(kb, n_g)))


def _radicand(params: ModelParams, ratio):
    """E^2 = M^2 + b^2 (1 - ratio^2) at ratio = kappa_bar / n_bar, for a float
    or elementwise over an array: each operation is correctly rounded either
    way, so :func:`energy` and :func:`spectrum` agree bit for bit."""
    return params.mass**2 + params.b_squared * (1.0 - ratio * ratio)


def _magnitudes(params: ModelParams, kappa_bar, n_g):
    """n_bar, |E| and |E|/M of the levels (kappa_bar, n_g), elementwise over
    numpy arrays and bit for bit :func:`energy`'s; an E^2 past float64's
    range is inf without a warning, as float arithmetic gives it.  Every
    |E| < M* has |E|/M <= M*/M, so where M*/M is past float64's range (b/M
    beyond about 1e308) OverflowError is raised, not an inf |E|/M written."""
    if math.isinf(params.effective_mass / params.mass):
        raise OverflowError(f"M*/M is past float64's range at M = {params.mass!r}, "
                            f"b = {params.b!r}: no |E|/M can be written")
    nb = n_bar(kappa_bar, n_g)
    with np.errstate(over="ignore"):
        magnitude = np.sqrt(_radicand(params, kappa_bar / nb))
        return nb, magnitude, magnitude / params.mass


def special_state(params: ModelParams, channel: Channel) -> BoundState:
    """The nodeless |E| = M level with one identically vanishing component.

    kappa_bar < -1/2 (so b > 0): E = +M, lower component f = 0,
    g proportional to r^(-kappa_bar) e^(-|b| r).  kappa_bar > +1/2 (b < 0):
    the mirror state with E = -M and zero upper component.  Every admissible
    kappa_bar yields the same energy, an infinitely degenerate family.
    """
    upper = _require_resolved(params, channel) < -0.5  # g survives and f = 0, else the mirror
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
    """The bound level indexed by the upper-component degree n_g.

    For kappa_bar < -1/2, n_g = 0 is the E = +M edge state of
    :func:`special_state` (f identically 0).  Only the particle branch
    exists there: its antiparticle twin E = -M is not normalizable, and the
    mirror edge state belongs to the charge-conjugated family.
    """
    kb = channel.kappa_bar
    if kb < -0.5 and n_g == 0:
        state = special_state(params, channel)
        if branch != "particle":
            raise ValueError(
                "E = -M with kappa_bar < -1/2 is not normalizable; the mirror "
                "special state lives in the charge-conjugated family"
            )
        return state
    return BoundState(
        channel=channel,
        energy=energy(params, channel, n_g, branch),
        branch=branch,
        gamma=abs(params.b * kb) / n_bar(kb, n_g),
        effective_mass=params.effective_mass,
        n_g=n_g,
        n_f=lower_degree(kb, n_g),
    )


_X_MAX = float(np.finfo(float).max)


@dataclass(frozen=True)
class WavefunctionForm:
    """One radial component, amplitude * sqrt(x) * psi_n^(alpha)(x), x = 2*gamma*r.

    psi_n^(alpha) is the orthonormal Laguerre function of :mod:`.special`, so
    the component is (2*gamma*r)^((alpha+1)/2) e^(-gamma*r) L_n^(alpha)(2*gamma*r)
    up to a constant factor, and integral x psi_n^2 dx = 2n + alpha + 1.
    ``amplitude`` carries all sign factors and the inter-component ratio; the
    pair of forms returned by :func:`wavefunctions` is normalized so that
    integral (g^2 + f^2) dr = 1.
    """

    laguerre: LaguerreSpec
    gamma: float
    amplitude: float

    def _terms(self, r):
        """x = 2*gamma*r, held finite (the component is 0.0 there), and the
        pair psi_n(x), psi_(n-1)(x)."""
        with np.errstate(over="ignore"):
            x = np.minimum(2.0 * self.gamma * np.asarray(r, dtype=float), _X_MAX)
        return (x, *laguerre_function(self.laguerre, x))

    def __call__(self, r):
        """The component at ``r``; 0.0 where it lies below float64's range."""
        x, psi, _ = self._terms(r)
        val = self.amplitude * np.sqrt(x) * psi
        return float(val) if np.ndim(r) == 0 else val

    def derivatives(self, r):
        """The component and its exact first and second r-derivatives at
        r > 0, from one evaluation of the pair psi_n, psi_(n-1):
        d/dx [sqrt(x) psi_n] = [((alpha + 1)/2 + n - x/2) psi_n
                                - sqrt(n (n + alpha)) psi_(n-1)] / sqrt(x),
        and from the Whittaker equation that u = sqrt(x) psi_n obeys,
        u'' = [(alpha^2 - 1)/(4 x^2) - (2n + alpha + 1)/(2x) + 1/4] u."""
        n, alpha = self.laguerre.degree, self.laguerre.order
        x, psi, prev = self._terms(r)
        root_x = np.sqrt(x)
        du = ((0.5 * (alpha + 1.0) + n - 0.5 * x) * psi - math.sqrt(n * (n + alpha)) * prev) / root_x
        u = root_x * psi
        d2u = (0.25 * (alpha * alpha - 1.0) * (u / x) - (n + 0.5 * (alpha + 1.0)) * u) / x + 0.25 * u
        vals = (self.amplitude * root_x * psi, self.amplitude * 2.0 * self.gamma * du,
                self.amplitude * (2.0 * self.gamma) ** 2 * d2u)
        return tuple(map(float, vals)) if np.ndim(r) == 0 else vals


def _component_ratio(mass: float, kb: float, e: float) -> float:
    """Amplitude of f relative to g on the orthonormal basis, with the printed
    sign conventions."""
    sign = math.copysign(1.0, mass + e if kb < -0.5 else mass - e)
    return -sign * math.sqrt(abs((mass - e) / (mass + e)))


def wavefunctions(
    params: ModelParams, channel: Channel, n_g: int, branch: Branch = "particle"
) -> tuple[WavefunctionForm, WavefunctionForm]:
    """Both radial components of the level :func:`bound_state` selects.

    Unit total norm integral (g^2 + f^2) dr = 1 with positive upper-component
    amplitude.
    """
    return state_wavefunctions(params, bound_state(params, channel, n_g, branch))


def state_wavefunctions(params: ModelParams, state: BoundState) -> tuple[WavefunctionForm, WavefunctionForm]:
    """Unit-norm radial forms for any BoundState, including both special families.

    A special state's missing component (n_g or n_f of None) gets amplitude 0.
    Each component's Laguerre order is alpha = 2S, S its exponent at the origin.
    """
    kb = state.channel.kappa_bar
    alpha_g, alpha_f = (2.0 * equation_constants(params.b, kb, c)[0] for c in ("upper", "lower"))
    g_spec = LaguerreSpec(state.n_g or 0, alpha_g)
    f_spec = LaguerreSpec(state.n_f or 0, alpha_f)
    if state.n_g is None:
        weight_g, weight_f = 0.0, 1.0
    elif state.n_f is None:
        weight_g, weight_f = 1.0, 0.0
    else:
        weight_g, weight_f = 1.0, _component_ratio(params.mass, kb, state.energy)
    moment = weight_g**2 * (2.0 * g_spec.degree + alpha_g + 1.0) + weight_f**2 * (
        2.0 * f_spec.degree + alpha_f + 1.0
    )
    amplitude = math.sqrt(2.0 * state.gamma / moment)
    return (
        WavefunctionForm(g_spec, state.gamma, weight_g * amplitude),
        WavefunctionForm(f_spec, state.gamma, weight_f * amplitude),
    )


def norm_quadrature(g_form: WavefunctionForm, f_form: WavefunctionForm) -> float:
    """integral (g^2 + f^2) dr by Gauss quadrature, independent of the
    closed-form amplitudes' moment 2n + alpha + 1.

    Each component contributes amplitude^2/(2 gamma) * integral x psi_n^2 dx.
    That integrand is x^alpha e^(-x) times a polynomial of degree 2n + 1, so
    the (n + 1)-node rule of :func:`.special.laguerre_function_rule`
    integrates it exactly.  From about n = 370 (order 0) some of that rule's
    weights overflow, and OverflowError is raised rather than a NaN returned.
    """
    total = 0.0
    for form in (g_form, f_form):
        if form.amplitude == 0.0:
            continue
        x, w, psi = laguerre_function_rule(form.laguerre)
        if not np.isfinite(w).all():
            raise OverflowError(
                f"Gauss weights overflow at degree {form.laguerre.degree}: every psi_k "
                "underflows at the outer nodes, so the norm is not representable"
            )
        total += form.amplitude**2 * float(np.sum(w * x * psi * psi)) / (2.0 * form.gamma)
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
    return RadialSamples(
        r=r,
        g=g,
        f=f,
        node_count_g=count_sign_changes(g),
        node_count_f=count_sign_changes(f),
    )


def residuals(params: ModelParams, state: BoundState,
              forms: tuple[WavefunctionForm, WavefunctionForm], r) -> float:
    """Worst residual of the first- and second-order radial equations on the
    grid ``r`` for ``forms``, the state's pair from :func:`state_wavefunctions`,
    relative to the larger component's peak there.  The second-order ones
    read -u'' + V u = lambda u, lambda = E^2 - M^2 - b^2,
    V = (S^2 - 1/4)/r^2 + B/r with S and B from ``equation_constants``."""
    r = np.asarray(r, dtype=float)
    g_form, f_form = forms
    g, dg, d2g = g_form.derivatives(r)
    f, df, d2f = f_form.derivatives(r)
    scale = max(float(np.max(np.abs(g))), float(np.max(np.abs(f))))
    if scale == 0.0:
        return 0.0
    kb = state.channel.kappa_bar
    m, b, e = params.mass, params.b, state.energy
    w = kb / r + b
    lam = e * e - m * m - b * b
    (s_up, coulomb), (s_lo, _) = (equation_constants(b, kb, c) for c in ("upper", "lower"))
    v_up = (s_up * s_up - 0.25) / (r * r) + coulomb / r
    v_lo = (s_lo * s_lo - 0.25) / (r * r) + coulomb / r
    worst = max(
        np.max(np.abs(dg + w * g - (m + e) * f)),
        np.max(np.abs(df - w * f - (m - e) * g)),
        np.max(np.abs(d2g - (v_up - lam) * g)),
        np.max(np.abs(d2f - (v_lo - lam) * f)),
    )
    return float(worst) / scale


def default_radial_grid(state: BoundState, points: int = 1200) -> np.ndarray:
    """Log-spaced grid over the state's extent: ``level_extent`` of each
    component that does not vanish, at lambda = -gamma^2 and the b that binds
    the state, |b| = gamma n_bar / |kappa_bar|.  Where S is small that inner
    end lies absurdly low or underflows to 0, so the grid starts no lower than
    1e-7/gamma."""
    kb, gamma = state.channel.kappa_bar, state.gamma
    b = -math.copysign(gamma * state.n_bar / abs(kb), kb)
    inner, outer = zip(*[level_extent(*equation_constants(b, kb, component), -gamma * gamma)
                         for component, degree in (("upper", state.n_g), ("lower", state.n_f))
                         if degree is not None])
    return np.geomspace(max(min(inner), 1e-7 / gamma), max(outer), points)


_SPECTRUM_KEYS = ("kappa", "kappa_bar", "n_g", "n_f", "n_bar", "energy", "e_over_m", "branch",
                  "is_special", "bound")
_BRANCH_RANK = {None: 0, "antiparticle": 1, "particle": 2}  # as "", "antiparticle", "particle" sort


def spectrum(
    params: ModelParams,
    kappas: Iterable[int],
    n_max: int,
    branch: Literal["particle", "antiparticle", "both"] = "particle",
) -> dict[str, list]:
    """The levels of the requested channels as columns: a dict from each of
    kappa, kappa_bar, n_g, n_f, n_bar, energy, e_over_m, branch, is_special
    and bound to a list holding one value per row.

    Levels are indexed by the degree of the component that starts at zero
    nodes in each family (n_g for kappa_bar < -1/2, n_f for kappa_bar > 1/2),
    running 0..n_max; the index-0 entry is the special |E| = M state and
    appears only on the branch that carries it.  A non-binding channel is one
    unbound row: kappa and kappa_bar, None in the other cells and both flags
    False.  Rows are sorted stably by (|kappa_bar|, kappa_bar, n_bar, branch),
    an unbound row's n_bar counting as -1 and its branch as "", so conjugated
    spectra align row by row and rows with equal keys keep the order of
    ``kappas``.  Each channel's ladder n = 1..n_max is one numpy pass, and
    every energy equals :func:`energy`'s bit for bit.  A level at |E| >= M*
    raises :class:`BoundState`'s ValueError, the first such level first, and
    a binding channel at a b/M where M* rounds to M raises before any level;
    where M*/M is past float64's range, its regular levels raise OverflowError.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    branches = {"particle": ("particle",), "antiparticle": ("antiparticle",),
                "both": ("particle", "antiparticle")}.get(branch)
    if branches is None:
        raise ValueError(f"branch must be 'particle', 'antiparticle' or 'both', got {branch!r}")

    table = {key: [] for key in _SPECTRUM_KEYS}

    def add(rows: int, **cells):  # a list holds one value per row, a scalar fills the rows
        for key, column in table.items():
            value = cells.get(key, False if key in ("is_special", "bound") else None)
            column += value if isinstance(value, list) else [value] * rows

    levels = np.arange(1, n_max + 1)
    signs = [BRANCH_SIGN[br] for br in branches]
    mstar = params.effective_mass
    for kappa in kappas:
        channel = Channel.from_kappa(kappa, params.a)
        kb = channel.kappa_bar
        if not bound_states_exist(params, channel):
            add(1, kappa=channel.kappa, kappa_bar=kb)
            continue
        edge = special_state(params, channel)
        if edge.branch in branches:
            add(1, kappa=channel.kappa, kappa_bar=kb, n_g=edge.n_g, n_f=edge.n_f, n_bar=edge.n_bar,
                energy=edge.energy, e_over_m=edge.energy / params.mass, branch=edge.branch,
                is_special=edge.is_special, bound=True)
        if not n_max:
            continue
        n_g = levels if kb < -0.5 else levels - 1
        nb, magnitude, per_mass = _magnitudes(params, kb, n_g)
        failed = (abs(params.b * kb) / nb <= 0.0) | (magnitude >= mstar)  # BoundState's guard
        if failed.any():  # the first failing level raises BoundState's own ValueError
            bound_state(params, channel, int(n_g[failed.argmax()]), branches[0])
        e = np.multiply.outer(magnitude, signs).ravel()
        add(e.size, kappa=channel.kappa, kappa_bar=kb, n_g=np.repeat(n_g, len(signs)).tolist(),
            n_f=np.repeat(lower_degree(kb, n_g), len(signs)).tolist(),
            n_bar=np.repeat(nb, len(signs)).tolist(), energy=e.tolist(),
            e_over_m=np.multiply.outer(per_mass, signs).ravel().tolist(),
            branch=list(branches) * n_max, bound=True)

    kappa_bar = np.array(table["kappa_bar"], dtype=float)
    n_bar_key = np.nan_to_num(np.array(table["n_bar"], dtype=float), nan=-1.0)  # None -> nan -> -1
    rank = list(map(_BRANCH_RANK.get, table["branch"]))
    order = np.lexsort((rank, n_bar_key, kappa_bar, np.abs(kappa_bar)))  # last key sorts first
    return {key: np.array(column, dtype=object)[order].tolist() for key, column in table.items()}


def nonrelativistic_binding(params: ModelParams, channel: Channel, n_g: int) -> float:
    """Leading binding energy E - M for |b| << M:

        (b^2 / 2M) * [1 - kappa_bar^2 / (n_g + 1/2 + |kappa_bar + 1/2|)^2].

    The spin-orbit dependence survives this limit, unlike for vector or
    scalar couplings.
    """
    kb = _require_bound(params, channel)
    require_degree("n_g", n_g)
    ratio = kb / n_bar(kb, n_g)
    return 0.5 * (params.b_squared / params.mass) * (1.0 - ratio * ratio)


def charge_conjugate(params: ModelParams) -> ModelParams:
    """Parameters seen by the charge-conjugated (antifermion) problem: the
    tensor potential flips sign, so a -> -a and b -> -b."""
    return ModelParams(mass=params.mass, a=-params.a, b=-params.b)
