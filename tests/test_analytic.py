import math

import numpy as np
import pytest
from scipy.integrate import quad

from diractensor import (
    Channel,
    ModelParams,
    UnboundChannelError,
    ZeroKappaBarError,
    bound_state,
    charge_conjugate,
    conjugation_report,
    energy,
    map_to_singular_coulomb,
    no_bound_states,
    nonrelativistic_binding,
    norm_quadrature,
    sample_state,
    special_state,
    spectrum,
    state_wavefunctions,
    wavefunctions,
)
from diractensor.analytic import _require_bound, default_radial_grid, n_bar


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

    def test_kappa_bar_zero_dedicated_error(self):
        params = ModelParams(1.0, 1.0, 1.0)
        with pytest.raises(ZeroKappaBarError):
            energy(params, channel_for(-1, 1.0), 1)

    def test_nodeless_level_redirected_to_special_state(self):
        with pytest.raises(ValueError, match="special"):
            energy(PARAMS_POS, channel_for(-1), 0)

    def test_extended_precision_path(self):
        e64 = energy(PARAMS_POS, channel_for(-1), 1)
        eld = energy(PARAMS_POS, channel_for(-1), 1, dtype=np.longdouble)
        assert float(eld) == pytest.approx(e64, rel=1e-15)
        assert abs(float(eld * eld) - 7.0 / 4.0) < 1e-18 or abs(e64 * e64 - 7.0 / 4.0) < 1e-15


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


class TestWavefunctions:
    def test_special_state_has_zero_lower_amplitude(self):
        g, f = wavefunctions(PARAMS_POS, channel_for(-1), 0)
        assert f.amplitude == 0.0
        assert g.amplitude > 0
        # g ~ r e^(-r): exponent of (2 gamma r) is -kappa_bar = 1, gamma = |b|
        assert g.prefactor_exponent == 1.0
        assert g.gamma == 1.0
        assert g.laguerre.degree == 0

    def test_special_state_antiparticle_twin_rejected(self):
        with pytest.raises(ValueError):
            wavefunctions(PARAMS_POS, channel_for(-1), 0, "antiparticle")

    def test_mirror_special_state_zero_upper(self):
        st = special_state(PARAMS_NEG, channel_for(2))
        g, f = state_wavefunctions(PARAMS_NEG, st)
        assert g.amplitude == 0.0
        assert f.amplitude > 0
        assert f.prefactor_exponent == 2.0  # kappa_bar

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
        res_up = g.derivative(r) + (kb / r + params.b) * g(r) - (params.mass + e) * f(r)
        res_lo = f.derivative(r) - (kb / r + params.b) * f(r) - (params.mass - e) * g(r)
        scale = max(np.max(np.abs(g(r))), np.max(np.abs(f(r))))
        assert np.max(np.abs(res_up)) < 1e-9 * scale
        assert np.max(np.abs(res_lo)) < 1e-9 * scale

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

    def test_amplitude_ratio_vanishes_at_special_limit(self):
        # the lower component scales like sqrt(|M - E| / |M + E|), zero at E = M
        g, f = wavefunctions(PARAMS_POS, channel_for(-1), 0)
        r = np.geomspace(0.01, 10.0, 50)
        assert np.all(f(r) == 0.0)


class TestSpectrum:
    def test_fig1_style_table(self):
        rows = spectrum(PARAMS_POS, range(-10, 0), 4)
        assert len(rows) == 50
        first = rows[0]
        assert (first.kappa, first.n_g, first.e_over_m) == (-1, 0, 1.0)
        assert first.is_special and first.bound
        # sorted by |kappa_bar| then n_bar
        keys = [(abs(r.kappa_bar), r.kappa_bar, r.n_bar) for r in rows]
        assert keys == sorted(keys)

    def test_unbound_channels_recorded(self):
        rows = spectrum(PARAMS_POS, [1, -1], 1)
        unbound = [r for r in rows if not r.bound]
        assert len(unbound) == 1 and unbound[0].kappa == 1
        assert unbound[0].energy is None

    def test_b_zero_all_unbound(self):
        params = ModelParams(1.0, 0.0, 0.0)
        rows = spectrum(params, [-2, -1, 1, 2], 2)
        assert all(not r.bound for r in rows)
        assert no_bound_states(params)

    def test_both_branches(self):
        rows = spectrum(PARAMS_POS, [-1], 2, "both")
        particle = [r for r in rows if r.branch == "particle"]
        anti = [r for r in rows if r.branch == "antiparticle"]
        assert len(particle) == 3  # special + two regular
        assert len(anti) == 2  # no antiparticle twin of the special level
        assert all(r.energy < 0 for r in anti)

    def test_energy_window(self):
        rows = spectrum(PARAMS_POS, range(-10, 0), 4, "both")
        mstar = PARAMS_POS.effective_mass
        for row in rows:
            if row.bound:
                assert 1.0 <= abs(row.energy) < mstar

    def test_a_independence_of_spectrum(self):
        # only kappa_bar enters: (kappa=-1, a=0) and (kappa=-3, a=2) coincide
        rows_a = spectrum(PARAMS_POS, [-1], 3)
        params_shifted = ModelParams(1.0, 2.0, 1.0)
        rows_b = spectrum(params_shifted, [-3], 3)
        assert [r.energy for r in rows_a] == [r.energy for r in rows_b]


class TestNonRelativisticLimit:
    def test_frozen_example(self):
        params = ModelParams(1000.0, 0.0, 1.0)
        val = nonrelativistic_binding(params, channel_for(-1), 1)
        assert val == pytest.approx(3.75e-4, rel=1e-12)
        exact = energy(params, channel_for(-1), 1) - params.mass
        assert val == pytest.approx(exact, rel=1e-5)  # next correction is O((b/M)^2)

    def test_special_input_gives_zero(self):
        assert nonrelativistic_binding(PARAMS_POS, channel_for(-1), 0) == 0.0

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
        report = conjugation_report(params, [k for k in range(-6, 7) if k != 0], 3)
        assert report.complete
        assert report.max_deviation == 0.0
        assert len(report.pairs) > 0

    def test_special_states_map_onto_each_other(self):
        report = conjugation_report(PARAMS_POS, [-1], 2)
        edge = [p for p in report.pairs if abs(p.energy) == 1.0]
        assert edge and all(p.conjugate_energy == -p.energy for p in edge)


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
