import math
import warnings
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
import pytest
from scipy.integrate import quad

from diractensor import (
    Channel,
    LaguerreSpec,
    ModelParams,
    UnboundChannelError,
    bound_state,
    bound_states_exist,
    charge_conjugate,
    energy,
    nonrelativistic_binding,
    norm_quadrature,
    sample_state,
    special_state,
    spectrum,
    state_wavefunctions,
    wavefunctions,
)
from diractensor.analytic import (
    WavefunctionForm,
    _require_bound,
    default_radial_grid,
    residuals,
)
from diractensor.core import Component, n_bar

from conjugation import bound_levels, conjugation_mismatch


def channel_for(kappa, a=0.0):
    return Channel.from_kappa(kappa, a)


PARAMS_POS = ModelParams(1.0, 0.0, 1.0)
PARAMS_NEG = ModelParams(1.0, 0.0, -1.0)


def _energy_factored(params: ModelParams, channel: Channel, n_g: int) -> float:
    """|E| from the factored radicands; must agree with energy() to roundoff."""
    kb = _require_bound(params, channel)
    b2 = params.b**2
    if kb < -0.5:
        num = n_g * (n_g - 2.0 * kb)
        den = (n_g - kb) ** 2
    else:
        num = (n_g + 1.0) * (n_g + 1.0 + 2.0 * kb)
        den = (n_g + 1.0 + kb) ** 2
    return math.sqrt(params.mass**2 + b2 * num / den)


class TestEnergy:
    def test_canonical_level(self):
        # kb=-1, n_g=1: E = sqrt(7)/2, confirmed by the shooting oracle in test_oracle
        assert energy(PARAMS_POS, channel_for(-1), 1) == pytest.approx(
            1.3228756555322954, rel=1e-15
        )

    def test_mirror_family_degenerate_level(self):
        # kb=+1 with b=-1, n_g=0 (n_f=1) shares n_bar=2 and hence the energy
        assert energy(PARAMS_NEG, channel_for(1), 0) == pytest.approx(
            1.3228756555322954, rel=1e-15
        )

    def test_antiparticle_branch_sign(self):
        e = energy(PARAMS_POS, channel_for(-1), 1, "antiparticle")
        assert e == -energy(PARAMS_POS, channel_for(-1), 1)

    def test_limit_approaches_effective_mass(self):
        e = energy(PARAMS_POS, channel_for(-1), 10**6)
        assert 0 < PARAMS_POS.effective_mass - e < 1e-9

    @pytest.mark.parametrize("kb_target, b", [(-1.5, 1.0), (-2.0, 1.0), (-3.7, 1.0), (-10.0, 1.0),
                                              (1.5, -1.0), (2.0, -1.0), (3.7, -1.0), (10.0, -1.0)])
    def test_matches_factored_forms(self, kb_target, b):
        kappa = -1 if kb_target < 0 else 1
        a = kb_target - kappa
        params = ModelParams(1.0, a, b)
        ch = channel_for(kappa, a)
        for n_g in range(0, 9):
            if kb_target < 0 and n_g == 0:
                continue
            direct = energy(params, ch, n_g)
            assert direct == pytest.approx(_energy_factored(params, ch, n_g), rel=1e-13)

    def test_rejects_unbound_channel(self):
        with pytest.raises(UnboundChannelError):
            energy(PARAMS_POS, channel_for(1), 1)

    def test_rejects_excluded_window(self):
        params = ModelParams(1.0, 0.7, 1.0)
        with pytest.raises(UnboundChannelError):
            energy(params, channel_for(-1, 0.7), 1)

    def test_kappa_bar_zero_rejected(self):
        params = ModelParams(1.0, 1.0, 1.0)
        with pytest.raises(UnboundChannelError):
            energy(params, channel_for(-1, 1.0), 1)

    def test_nodeless_level_redirected_to_special_state(self):
        with pytest.raises(ValueError, match="special"):
            energy(PARAMS_POS, channel_for(-1), 0)


class TestSpecialState:
    def test_positive_family(self):
        st = special_state(PARAMS_POS, channel_for(-1))
        assert st.energy == 1.0  # exactly M
        assert st.gamma == 1.0  # |b|
        assert st.n_g == 0 and st.n_f is None
        assert st.branch == "particle"

    def test_mirror_family(self):
        st = special_state(PARAMS_NEG, channel_for(2))
        assert st.energy == -1.0
        assert st.n_f == 0 and st.n_g is None
        assert st.branch == "antiparticle"

    def test_infinite_degeneracy(self):
        a = -6.5
        params = ModelParams(1.0, a, 1.0)
        st1 = special_state(PARAMS_POS, channel_for(-1))
        st2 = special_state(params, channel_for(-1, a))  # kappa_bar = -7.5
        assert st1.energy == st2.energy == 1.0

    def test_rejects_nonbinding(self):
        with pytest.raises(UnboundChannelError):
            special_state(PARAMS_POS, channel_for(2))

    def test_bound_state_at_the_edge_is_the_special_state(self):
        edge = special_state(PARAMS_POS, channel_for(-1))
        assert bound_state(PARAMS_POS, channel_for(-1), 0) == edge
        with pytest.raises(ValueError, match="not normalizable"):
            bound_state(PARAMS_POS, channel_for(-1), 0, "antiparticle")


class TestWavefunctions:
    def test_special_state_has_zero_lower_amplitude(self):
        g, f = wavefunctions(PARAMS_POS, channel_for(-1), 0)
        assert f.amplitude == 0.0
        assert g.amplitude > 0
        # g ~ r e^(-r): exponent (alpha + 1)/2 of (2 gamma r) is -kappa_bar = 1, gamma = |b|
        assert g.laguerre == LaguerreSpec(0, 1.0)
        assert g.gamma == 1.0

    def test_special_state_antiparticle_twin_rejected(self):
        with pytest.raises(ValueError):
            wavefunctions(PARAMS_POS, channel_for(-1), 0, "antiparticle")

    def test_mirror_special_state_zero_upper(self):
        st = special_state(PARAMS_NEG, channel_for(2))
        g, f = state_wavefunctions(PARAMS_NEG, st)
        assert g.amplitude == 0.0
        assert f.amplitude > 0
        assert f.laguerre.order == 3.0  # f ~ (2 gamma r)^kappa_bar, (alpha + 1)/2 = 2

    @pytest.mark.parametrize(
        "params, kappa, a, n_g, branch",
        [
            (PARAMS_POS, -1, 0.0, 1, "particle"),
            (PARAMS_POS, -2, 0.0, 1, "particle"),
            (PARAMS_POS, -2, 0.0, 4, "antiparticle"),
            (PARAMS_NEG, 1, 0.0, 0, "particle"),
            (PARAMS_NEG, 3, 0.0, 2, "antiparticle"),
            (ModelParams(1.0, 0.5, 1.0), -3, 0.5, 2, "particle"),
            (ModelParams(1.0, -0.5, -2.0), 2, -0.5, 1, "particle"),
            (ModelParams(2.0, 0.0, 0.5), -1, 0.0, 3, "particle"),
        ],
    )
    def test_first_order_system_residuals(self, params, kappa, a, n_g, branch):
        # the two components must satisfy the coupled first-order equations
        ch = channel_for(kappa, a)
        e = energy(params, ch, n_g, branch)
        g, f = wavefunctions(params, ch, n_g, branch)
        r = np.geomspace(0.01, 30.0, 400)
        kb = ch.kappa_bar
        dg, df = g.derivatives(r)[1], f.derivatives(r)[1]
        res_up = dg + (kb / r + params.b) * g(r) - (params.mass + e) * f(r)
        res_lo = df - (kb / r + params.b) * f(r) - (params.mass - e) * g(r)
        scale = max(np.max(np.abs(g(r))), np.max(np.abs(f(r))))
        assert np.max(np.abs(res_up)) < 1e-9 * scale
        assert np.max(np.abs(res_lo)) < 1e-9 * scale

    def test_residual_gate_can_fail(self):
        # verify's residual gate (< 1e-8 on its window) passes the closed form
        # and fails the same state with its energy 1e-6 off
        state = bound_state(PARAMS_POS, channel_for(-3), 2)
        r = np.geomspace(0.01, 30.0, 120)
        assert residuals(PARAMS_POS, state, state_wavefunctions(PARAMS_POS, state), r) < 1e-8
        detuned = replace(state, energy=state.energy * (1.0 + 1e-6))
        assert residuals(PARAMS_POS, detuned, state_wavefunctions(PARAMS_POS, detuned), r) > 1e-8

    def test_unit_norm_by_quadrature(self):
        for params, kappa, a, n_g in [
            (PARAMS_POS, -1, 0.0, 1),
            (PARAMS_POS, -4, 0.0, 3),
            (PARAMS_NEG, 2, 0.0, 2),
            (ModelParams(1.0, 0.5, 1.0), -2, 0.5, 1),
        ]:
            ch = channel_for(kappa, a)
            g, f = wavefunctions(params, ch, n_g)
            assert norm_quadrature(g, f) == pytest.approx(1.0, abs=1e-12)
            total, _ = quad(lambda rr: g(rr) ** 2 + f(rr) ** 2, 0.0, 300.0, limit=400)
            assert total == pytest.approx(1.0, abs=1e-9)
        # degree 150: a fixed 128-node rule is no longer exact here and read 0.44
        g, f = wavefunctions(PARAMS_POS, channel_for(-1), 150)
        assert norm_quadrature(g, f) == pytest.approx(1.0, abs=1e-12)

    def test_overflowing_norm_weights_raise(self):
        # degree 400: psi_0 underflows at the outer Gauss nodes, their weights
        # 1 / sum psi_k^2 are inf, and inf * 0 would make the norm nan
        g, f = wavefunctions(PARAMS_POS, channel_for(-1), 400)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match="degree 400"):
                norm_quadrature(g, f)

    def test_node_counts_match_degrees(self):
        cases = [
            (PARAMS_POS, -2, 0.0, 3, 3, 2),
            (PARAMS_POS, -1, 0.0, 2, 2, 1),
            (PARAMS_NEG, 2, 0.0, 1, 1, 2),
            (PARAMS_NEG, 1, 0.0, 0, 0, 1),
        ]
        for params, kappa, a, n_g, want_g, want_f in cases:
            st = bound_state(params, channel_for(kappa, a), n_g)
            samples = sample_state(params, st, default_radial_grid(st, 3000))
            assert (samples.node_count_g, samples.node_count_f) == (want_g, want_f)

    def test_tail_past_the_decay_underflow_is_zero(self):
        # e^(-x/2) underflows from x ~ 1490, and (2 gamma r)^7 would overflow from
        # x ~ 1e103; 2 gamma r itself overflows at r = 1.5e308 with gamma = 3/4
        g, f = wavefunctions(PARAMS_POS, channel_for(-6), 2)
        assert f.laguerre.order == 13.0  # f ~ (2 gamma r)^7
        r = np.array([1e4, 1e106, 1e300, 1.5e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert g(r).tolist() == [0.0] * 4 and f(r).tolist() == [0.0] * 4
            assert f(1e300) == 0.0
            # at r = 1e3, x^(11/2) e^(-x/2) ~ e^(-710) is still a float64
            assert 0.0 < g(1e3) < 1e-300

    def test_value_where_the_power_alone_would_overflow(self):
        # at x = 1000, x^120 overflows float64 and e^(-x/2) = e^(-500); the
        # component (x^120 e^(-x/2) L_1^239(x) up to its constant) is finite
        g = WavefunctionForm(LaguerreSpec(1, 239.0), 0.5, 1.0)
        x = 1000.0
        log_value = (120.0 * math.log(x) - 0.5 * x + math.log(x - 240.0)
                     - 0.5 * (math.lgamma(241.0) - math.lgamma(2.0)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = g(x)
            assert np.isfinite(g(np.array([1.0, 10.0, x]))).all()
        assert value == pytest.approx(-math.exp(log_value), rel=1e-12)

    def test_derivatives_stay_finite_in_the_far_tail(self):
        # at r = 1e300, e^(-x/2) underflows where a power x^p would overflow
        for form in wavefunctions(ModelParams(1.0, 0.0, 1.0), Channel.from_kappa(-2), 1):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                _, first, second = form.derivatives([10.0, 1e300])
            assert np.all(np.isfinite(first)) and np.all(np.isfinite(second))
            assert first[1] == 0.0 and second[1] == 0.0 and first[0] != 0.0

    def test_amplitude_ratio_vanishes_at_special_limit(self):
        # the lower component scales like sqrt(|M - E| / |M + E|), zero at E = M
        g, f = wavefunctions(PARAMS_POS, channel_for(-1), 0)
        r = np.geomspace(0.01, 10.0, 50)
        assert np.all(f(r) == 0.0)


class TestSpectrum:
    def test_fig1_style_table(self):
        table = spectrum(PARAMS_POS, range(-10, 0), 4)
        assert len(table["kappa"]) == 50
        first = {key: column[0] for key, column in table.items()}
        assert (first["kappa"], first["n_g"], first["e_over_m"]) == (-1, 0, 1.0)
        assert first["is_special"] and first["bound"]
        # sorted by |kappa_bar| then n_bar
        keys = [(abs(kb), kb, nb) for kb, nb in zip(table["kappa_bar"], table["n_bar"])]
        assert keys == sorted(keys)

    def test_unbound_channels_recorded(self):
        table = spectrum(PARAMS_POS, [1, -1], 1)
        unbound = [i for i, bound in enumerate(table["bound"]) if not bound]
        assert len(unbound) == 1 and table["kappa"][unbound[0]] == 1
        assert table["energy"][unbound[0]] is None

    def test_b_zero_all_unbound(self):
        params = ModelParams(1.0, 0.0, 0.0)
        table = spectrum(params, [-2, -1, 1, 2], 2)
        assert all(not bound for bound in table["bound"])

    def test_both_branches(self):
        table = spectrum(PARAMS_POS, [-1], 2, "both")
        particle = [e for e, br in zip(table["energy"], table["branch"]) if br == "particle"]
        anti = [e for e, br in zip(table["energy"], table["branch"]) if br == "antiparticle"]
        assert len(particle) == 3  # special + two regular
        assert len(anti) == 2  # no antiparticle twin of the special level
        assert all(e < 0 for e in anti)

    def test_energy_window(self):
        table = spectrum(PARAMS_POS, range(-10, 0), 4, "both")
        mstar = PARAMS_POS.effective_mass
        for e, bound in zip(table["energy"], table["bound"]):
            if bound:
                assert 1.0 <= abs(e) < mstar

    def test_a_independence_of_spectrum(self):
        # only kappa_bar enters: (kappa=-1, a=0) and (kappa=-3, a=2) coincide
        rows_a = spectrum(PARAMS_POS, [-1], 3)
        params_shifted = ModelParams(1.0, 2.0, 1.0)
        rows_b = spectrum(params_shifted, [-3], 3)
        assert rows_a["energy"] == rows_b["energy"]

    def test_columns_keyed_by_field_names(self):
        table = spectrum(PARAMS_POS, [-2, 1], 3, "both")
        assert list(table) == ["kappa", "kappa_bar", "n_g", "n_f", "n_bar", "energy", "e_over_m",
                               "branch", "is_special", "bound"]
        assert {len(column) for column in table.values()} == {1 + 1 + 3 * 2}

    def test_guard_raises_for_the_first_level_past_the_effective_mass(self):
        # at b/M = 1e-4 the deep levels round onto M* = hypot(M, b), which
        # BoundState rejects; the table raises the first such level's error
        params, channel = ModelParams(1, 0, 1e-4), channel_for(-1)
        spectrum(params, [-1], 5000)
        for n_g in range(1, 10001):
            try:
                bound_state(params, channel, n_g)
            except ValueError as exc:
                first = str(exc)
                break
        else:
            pytest.fail("no level up to n_g = 10000 reached the effective mass")
        assert "must stay below the effective mass" in first
        with pytest.raises(ValueError, match="must stay below the effective mass") as raised:
            spectrum(params, [-1], 10000)
        assert str(raised.value) == first


class TestNonRelativisticLimit:
    def test_frozen_example(self):
        params = ModelParams(1000.0, 0.0, 1.0)
        val = nonrelativistic_binding(params, channel_for(-1), 1)
        assert val == pytest.approx(3.75e-4, rel=1e-12)
        exact = energy(params, channel_for(-1), 1) - params.mass
        assert val == pytest.approx(exact, rel=1e-5)  # next correction is O((b/M)^2)

    def test_special_input_gives_zero(self):
        assert nonrelativistic_binding(PARAMS_POS, channel_for(-1), 0) == 0.0

    @pytest.mark.parametrize("n_g", [1.5, -1])
    def test_rejects_the_levels_energy_rejects(self, n_g):
        params, channel = ModelParams(1.0, 0.0, 0.01), channel_for(-2)
        with pytest.raises(ValueError, match="nonnegative integer"):
            energy(params, channel, n_g)
        with pytest.raises(ValueError, match="nonnegative integer"):
            nonrelativistic_binding(params, channel, n_g)

    def test_supremum_is_half_b2_over_m(self):
        params = ModelParams(1.0, 0.0, 0.1)
        cap = 0.5 * params.b**2 / params.mass
        values = [nonrelativistic_binding(params, channel_for(-1), n) for n in (1, 10, 1000)]
        assert all(v < cap for v in values)
        assert values[-1] == pytest.approx(cap, rel=1e-5)


class TestChargeConjugation:
    def test_flips_potential(self):
        params = ModelParams(1.0, 0.5, 1.0)
        conj = charge_conjugate(params)
        assert (conj.a, conj.b) == (-0.5, -1.0)

    def test_involution(self):
        params = ModelParams(1.0, 0.7, -2.0)
        assert charge_conjugate(charge_conjugate(params)) == params

    @pytest.mark.parametrize("a", [0.0, 0.5, 1.3])
    def test_spectra_related_exactly(self, a):
        params = ModelParams(1.0, a, 1.0)
        assert conjugation_mismatch(params, [k for k in range(-6, 7) if k != 0], 3) == set()

    def test_special_states_map_onto_each_other(self):
        edge = {key: e for key, e in bound_levels(PARAMS_POS, [-1], 2).items() if abs(e) == 1.0}
        conj = bound_levels(charge_conjugate(PARAMS_POS), [1], 2)
        assert edge == {(-1.0, 1.0, "particle"): 1.0}
        assert conj[(1.0, 1.0, "antiparticle")] == -1.0

    @pytest.mark.parametrize("control", [
        {"sign": 1.0},
        {"flip": {"particle": "particle", "antiparticle": "antiparticle"}},
    ], ids=["no_energy_flip", "no_branch_flip"])
    def test_check_can_fail(self, control):
        # the relation without its energy or its branch flip does not hold
        kappas = [k for k in range(-6, 7) if k != 0]
        for a in (0.0, 0.5, 1.3):
            assert conjugation_mismatch(ModelParams(1.0, a, 1.0), kappas, 3, **control)


class TestDegeneracy:
    def test_equal_ratio_equal_energy(self):
        # |kb|/n_bar = 1/2 for (kb=-1, n_g=1) and (kb=-2, n_g=2)
        e1 = energy(PARAMS_POS, channel_for(-1), 1)
        e2 = energy(PARAMS_POS, channel_for(-2), 2)
        assert e1 == e2

    def test_across_families(self):
        e1 = energy(PARAMS_POS, channel_for(-1), 1)
        e2 = energy(PARAMS_NEG, channel_for(1), 0)
        assert e1 == pytest.approx(e2, rel=1e-15)


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
    (orbital bookkeeping l = 0), epsilon = (E^2 - M^2 - b^2)/(2m).  An
    independent route to the closed-form energies, so it maps only the
    channels that ``bound_states_exist`` says bind."""
    if m_map <= 0:
        raise ValueError("m_map must be positive")
    if not bound_states_exist(params, channel):
        raise UnboundChannelError(f"kappa_bar = {channel.kappa_bar} does not bind at b = {params.b}")
    kb = channel.kappa_bar
    beta = kb * (kb + 1.0) if component == "upper" else kb * (kb - 1.0)
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


class TestSingularCoulombMap:
    def test_identification_upper(self):
        m = map_to_singular_coulomb(PARAMS_POS, channel_for(-1), "upper")
        assert m.Z == -1.0  # b*kb/m_map with m_map=1
        assert m.beta == 0.0  # kb*(kb+1) at kb=-1
        assert m.S == 0.5
        assert m.binds

    def test_s_matches_half_shifted_kappa_bar(self):
        m = map_to_singular_coulomb(PARAMS_POS, channel_for(-2), "upper")
        assert m.beta == 2.0
        assert m.S == pytest.approx(1.5, rel=1e-15)  # |kb + 1/2|

    def test_lower_component_beta(self):
        m = map_to_singular_coulomb(PARAMS_NEG, channel_for(2), "lower")
        assert m.beta == 2.0  # kb*(kb-1) at kb=2
        assert m.S == pytest.approx(1.5, rel=1e-15)  # |1/2 - kb|

    @pytest.mark.parametrize("m_map", [0.5, 1.0, 2.0])
    def test_bookkeeping_mass_cancels(self, m_map):
        m = map_to_singular_coulomb(PARAMS_POS, channel_for(-2), "upper", m_map=m_map)
        e_plus, e_minus = m.energy_pair(PARAMS_POS, 1)
        assert e_plus == pytest.approx(energy(PARAMS_POS, channel_for(-2), 1), rel=1e-14)
        assert e_minus == -e_plus

    def test_epsilon_identification(self):
        m = map_to_singular_coulomb(PARAMS_POS, channel_for(-2), "upper", level=1, m_map=2.0)
        e = energy(PARAMS_POS, channel_for(-2), 1)
        assert m.epsilon == pytest.approx((e**2 - 1.0 - 1.0) / (2.0 * 2.0), rel=1e-13)

    def test_rejects_degenerate_window(self):
        params = ModelParams(1.0, 0.5, 1.0)
        with pytest.raises(UnboundChannelError):
            map_to_singular_coulomb(params, channel_for(-1, 0.5), "upper")

    def test_rejects_bad_m_map(self):
        with pytest.raises(ValueError):
            map_to_singular_coulomb(PARAMS_POS, channel_for(-1), "upper", m_map=0.0)


class TestGammaInvariant:
    def test_decay_rate_formula(self):
        # gamma = |b kb| / (n_g + 1/2 + |1/2 + kb|)
        st = bound_state(PARAMS_POS, channel_for(-2), 3)
        assert st.gamma == pytest.approx(2.0 / (3 + 0.5 + 1.5), rel=1e-15)
        assert n_bar(-2.0, 3) == 5.0
