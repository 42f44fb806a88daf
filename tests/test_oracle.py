import math
import tracemalloc
import warnings
from typing import Callable

import numpy as np
import pytest

from diractensor import (
    Channel,
    Component,
    ModelParams,
    NoBracketError,
    RadialSamples,
    ShootingConfig,
    UnboundChannelError,
    bound_state,
    count_nodes,
    count_sign_changes,
    default_shooting_config,
    effective_potential,
    energy,
    integrate_first_order,
    sample_state,
    shoot_eigenvalue,
    solve_bound_level,
    special_state,
    state_wavefunctions,
)
from diractensor.analytic import default_radial_grid
from diractensor.core import angular_strength
from diractensor.oracle import _rk4_step_deltas

PARAMS_POS = ModelParams(1.0, 0.0, 1.0)
PARAMS_NEG = ModelParams(1.0, 0.0, -1.0)


def effective_potential_general(params: ModelParams, channel: Channel, component: Component) -> Callable:
    """Same potential built from the raw tensor field U = a/r + b.

    Uses the unshifted kappa and the full kappa(kappa +/- 1)/r^2
    + 2*kappa*U/r -/+ U' + U^2 combination (minus b^2 to line up with the
    lambda = E^2 - M^2 - b^2 convention); regression target for the
    specialized form, ``diractensor.oracle.effective_potential``.
    """
    angular_strength(channel.kappa_bar, component)  # rejects |kappa_bar| <= 1/2
    kappa = float(channel.kappa)
    a, b = params.a, params.b
    sign_up = -1.0 if component == "upper" else 1.0
    if component not in ("upper", "lower"):
        raise ValueError(f"component must be 'upper' or 'lower', got {component!r}")
    angular = kappa * (kappa + 1.0) if component == "upper" else kappa * (kappa - 1.0)

    def potential(r):
        arr = np.asarray(r, dtype=float)
        if np.any(arr <= 0):
            raise ValueError("the radial coordinate must be positive")
        u = a / arr + b
        u_prime = -a / (arr * arr)
        val = angular / (arr * arr) + 2.0 * kappa * u / arr + sign_up * u_prime + u * u - b * b
        return float(val) if np.ndim(r) == 0 else val

    return potential


class TestEffectivePotential:
    def test_vanishing_centrifugal_term(self):
        # kb = -1 upper: kb*(kb+1) = 0, so V = 2 b kb / r exactly
        v = effective_potential(PARAMS_POS, Channel.from_kappa(-1), "upper")
        for r in (0.1, 1.0, 10.0):
            assert v(r) == -2.0 / r

    def test_lower_component_value(self):
        params = ModelParams(1.0, 0.0, -1.0)
        v = effective_potential(params, Channel.from_kappa(2), "lower")
        assert v(1.0) == pytest.approx(2.0 - 4.0, rel=1e-15)

    def test_rejects_nonpositive_radius(self):
        v = effective_potential(PARAMS_POS, Channel.from_kappa(-1), "upper")
        with pytest.raises(ValueError):
            v(0.0)
        with pytest.raises(ValueError):
            v(np.array([1.0, -2.0]))

    def test_rejects_degenerate_channel(self):
        params = ModelParams(1.0, 0.5, 1.0)
        with pytest.raises(UnboundChannelError):
            effective_potential(params, Channel.from_kappa(-1, 0.5), "upper")

    @pytest.mark.parametrize("a", [0.0, 0.5, -2.0])
    @pytest.mark.parametrize("kappa", [-2, 1, 3])
    @pytest.mark.parametrize("component", ["upper", "lower"])
    def test_general_form_matches_specialized(self, a, kappa, component):
        # the raw tensor-field combination must collapse to the kappa_bar form
        params = ModelParams(1.0, a, 1.0)
        ch = Channel.from_kappa(kappa, a)
        if abs(ch.kappa_bar) <= 0.5:
            pytest.skip("degenerate window")
        v_special = effective_potential(params, ch, component)
        v_general = effective_potential_general(params, ch, component)
        for r in (0.1, 1.0, 10.0):
            assert v_general(r) == pytest.approx(v_special(r), rel=1e-12, abs=1e-12)


class TestShootEigenvalue:
    def test_canonical_level(self):
        # lambda = E^2 - M^2 - b^2 = -1/4 for the sqrt(7)/2 level
        res = solve_bound_level(PARAMS_POS, Channel.from_kappa(-1), "upper", 1)
        assert res.converged
        assert res.lambda_ == pytest.approx(-0.25, abs=1e-8)
        assert res.node_count == 1
        assert res.energy_pair[0] == pytest.approx(math.sqrt(7) / 2, abs=1e-8)
        assert res.energy_pair[1] == -res.energy_pair[0]

    def test_special_level_pins_lambda_at_minus_b2(self):
        res = solve_bound_level(PARAMS_POS, Channel.from_kappa(-1), "upper", 0)
        assert res.lambda_ == pytest.approx(-1.0, abs=1e-8)
        assert res.energy_pair[0] == pytest.approx(1.0, abs=1e-8)

    def test_mirror_family_same_lambda(self):
        res = solve_bound_level(PARAMS_NEG, Channel.from_kappa(1), "upper", 0)
        assert res.lambda_ == pytest.approx(-0.25, abs=1e-8)

    def test_component_consistency(self):
        # paired (n_g, n_f) levels share the eigenvalue across the two equations
        up = solve_bound_level(PARAMS_POS, Channel.from_kappa(-2), "upper", 2)
        lo = solve_bound_level(PARAMS_POS, Channel.from_kappa(-2), "lower", 1)
        assert up.lambda_ == pytest.approx(lo.lambda_, abs=1e-7)

    def test_sturm_ordering(self):
        ch = Channel.from_kappa(-2)
        lams = [solve_bound_level(PARAMS_POS, ch, "upper", n).lambda_ for n in range(5)]
        assert all(a < b for a, b in zip(lams, lams[1:]))

    def test_grid_refinement_order(self):
        # global error must drop by ~2^4 per step halving
        ch = Channel.from_kappa(-2)
        reference = solve_bound_level(PARAMS_POS, ch, "upper", 3, step_count=16000).lambda_
        err_coarse = solve_bound_level(PARAMS_POS, ch, "upper", 3, step_count=2000).lambda_ - reference
        err_fine = solve_bound_level(PARAMS_POS, ch, "upper", 3, step_count=4000).lambda_ - reference
        assert abs(err_coarse) / abs(err_fine) > 10.0

    def test_agreement_with_analytic_sample(self):
        for kappa, a, b, n in [(-3, 0.5, 1.0, 2), (2, -0.5, -2.0, 1), (-1, 0.0, 0.5, 4)]:
            params = ModelParams(1.0, a, b)
            ch = Channel.from_kappa(kappa, a)
            res = solve_bound_level(params, ch, "upper", n)
            assert res.energy_pair[0] == pytest.approx(energy(params, ch, n), abs=1e-8)

    def test_b_zero_finds_nothing(self):
        # no square-integrable level with |E| < M exists without the constant term
        config = ShootingConfig(
            r_min=1e-6, r_max=60.0, step_count=4000, match_point=1.0,
            lambda_bracket=(-0.99, -1e-4), tolerance=1e-9,
        )
        for a in (0.0, 0.5):
            params = ModelParams(1.0, a, 0.0)
            for kappa in (-3, -2, -1, 1, 2, 3):
                ch = Channel.from_kappa(kappa, a)
                if abs(ch.kappa_bar) <= 0.5:
                    continue
                for node_target in range(3):
                    with pytest.raises(NoBracketError):
                        shoot_eigenvalue(params, ch, "upper", node_target, config)

    def test_degenerate_bracket_rejected(self):
        ch = Channel.from_kappa(-1)
        config = ShootingConfig(
            r_min=1e-6, r_max=60.0, step_count=4000, match_point=1.0,
            lambda_bracket=(-1e-9, -1e-9), tolerance=1e-9,
        )
        with pytest.raises(NoBracketError):
            shoot_eigenvalue(PARAMS_POS, ch, "upper", 0, config)

    def test_bracket_must_contain_level(self):
        ch = Channel.from_kappa(-1)
        config = ShootingConfig(
            r_min=1e-6, r_max=60.0, step_count=4000, match_point=1.0,
            lambda_bracket=(-0.26, -0.24), tolerance=1e-10,
        )
        # the window holds the one-node level but not the three-node one
        res = shoot_eigenvalue(PARAMS_POS, ch, "upper", 1, config)
        assert res.lambda_ == pytest.approx(-0.25, abs=1e-8)
        with pytest.raises(NoBracketError):
            shoot_eigenvalue(PARAMS_POS, ch, "upper", 3, config)

    def test_default_config_rejects_b_zero(self):
        with pytest.raises(NoBracketError):
            default_shooting_config(ModelParams(1.0, 0.0, 0.0), Channel.from_kappa(-1), "upper", 0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ShootingConfig(r_min=1.0, r_max=0.5, step_count=4000, match_point=0.7,
                           lambda_bracket=(-1.0, -0.1), tolerance=1e-9)
        with pytest.raises(ValueError):
            ShootingConfig(r_min=1e-6, r_max=60.0, step_count=4000, match_point=1.0,
                           lambda_bracket=(-0.1, -1.0), tolerance=1e-9)
        with pytest.raises(ValueError):
            ShootingConfig(r_min=1e-6, r_max=60.0, step_count=4, match_point=1.0,
                           lambda_bracket=(-1.0, -0.1), tolerance=1e-9)


class TestIntegrateFirstOrder:
    def test_bound_energy_decays(self):
        # extended-precision closed-form energy: the tail reaches the roundoff
        # floor of the growing-mode contamination, far below 1e-6 of the peak
        ch = Channel.from_kappa(-1)
        e = energy(PARAMS_POS, ch, 1, dtype=np.longdouble)
        samples, report = integrate_first_order(PARAMS_POS, ch, e)
        assert report.classification == "bound"
        assert report.decay_ratio < 1e-6
        assert (samples.node_count_g, samples.node_count_f) == (1, 0)

    def test_float64_energy_decays_to_its_quantization_floor(self):
        # with E rounded to 64-bit the eigenvalue detuning ~1e-16 seeds the
        # growing solution; amplified over the domain it caps the decay near
        # 1e-5 of the peak for the most tightly bound small-|kappa_bar| level
        ch = Channel.from_kappa(-1)
        e = energy(PARAMS_POS, ch, 1)
        _, report = integrate_first_order(PARAMS_POS, ch, e)
        assert report.classification == "bound"
        assert report.decay_ratio < 2e-5

    def test_mirror_family_decays(self):
        ch = Channel.from_kappa(1)
        e = energy(PARAMS_NEG, ch, 0, dtype=np.longdouble)
        _, report = integrate_first_order(PARAMS_NEG, ch, e)
        assert report.classification == "bound"
        assert report.decay_ratio < 1e-6

    def test_detuned_energy_grows(self):
        ch = Channel.from_kappa(-1)
        e = energy(PARAMS_POS, ch, 1)
        _, report = integrate_first_order(PARAMS_POS, ch, 1.01 * e)
        assert report.classification == "growing"
        assert report.decay_ratio > 1e-3

    def test_energy_outside_window_grows(self):
        ch = Channel.from_kappa(-1)
        _, report = integrate_first_order(PARAMS_POS, ch, 1.5 * PARAMS_POS.effective_mass)
        assert report.classification == "growing"

    def test_special_state_lower_component_stays_zero(self):
        ch = Channel.from_kappa(-1)
        st = special_state(PARAMS_POS, ch)
        samples, report = integrate_first_order(PARAMS_POS, ch, st.energy, fineness=5e-3)
        assert report.classification == "bound"
        assert np.max(np.abs(samples.f)) == 0.0
        assert np.max(np.abs(samples.g)) > 0.0

    def test_mirror_special_state_upper_component_stays_zero(self):
        ch = Channel.from_kappa(2)
        st = special_state(PARAMS_NEG, ch)
        samples, report = integrate_first_order(PARAMS_NEG, ch, st.energy, fineness=5e-3)
        assert np.max(np.abs(samples.g)) == 0.0
        assert np.max(np.abs(samples.f)) > 0.0


class TestFirstOrderPropagator:
    def test_step_matrices_match_scalar_rk4(self):
        # reference: one RK4 step of (g, f)' = A(r)(g, f), stage by stage, applied
        # to each unit vector; the closed-form step matrix must reproduce it
        ld = np.longdouble
        rng = np.random.default_rng(7)
        tolerance = 64 * np.finfo(ld).eps
        for _ in range(20):
            kb, b, mp, mm = (ld(v) for v in rng.uniform(-4.0, 4.0, 4))
            r = np.exp(rng.uniform(-12.0, 4.0, 3)).astype(ld)
            h = r * rng.uniform(1e-4, 5e-2, 3).astype(ld)
            d = _rk4_step_deltas(r, h, kb, b, mp, mm)

            def rhs(x, y):
                w = kb / x + b
                return np.array([-w * y[0] + mp * y[1], w * y[1] + mm * y[0]])

            for i in range(3):
                for column in range(2):
                    y = np.zeros(2, dtype=ld)
                    y[column] = 1
                    k1 = rhs(r[i], y)
                    k2 = rhs(r[i] + h[i] / 2, y + h[i] / 2 * k1)
                    k3 = rhs(r[i] + h[i] / 2, y + h[i] / 2 * k2)
                    k4 = rhs(r[i] + h[i], y + h[i] * k3)
                    increment = h[i] / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
                    scale = np.max(np.abs(increment))
                    assert np.max(np.abs(d[:, column, i] - increment)) <= tolerance * scale

    @pytest.mark.parametrize("kappa,level", [(-1, None), (-3, 2), (2, None)])
    def test_samples_follow_closed_form(self, kappa, level):
        # shape only: both are scaled to agree at the peak of the closed form
        params = PARAMS_POS if kappa < 0 else PARAMS_NEG
        ch = Channel.from_kappa(kappa)
        if level is None:
            st = special_state(params, ch)
            e = st.energy
        else:
            st = bound_state(params, ch, level)
            e = energy(params, ch, level, dtype=np.longdouble)
        samples, report = integrate_first_order(params, ch, e, sample_count=240, fineness=2e-2)
        assert report.classification == "bound"
        g_form, f_form = state_wavefunctions(params, st)
        g, f = g_form(samples.r), f_form(samples.r)
        main, main_form = (samples.g, g) if kappa < 0 else (samples.f, f)
        peak = np.argmax(np.abs(main_form))
        c = main_form[peak] / main[peak]
        inner = samples.r < 0.5 * samples.r[-1]
        err = max(np.max(np.abs(c * samples.g - g)[inner]), np.max(np.abs(c * samples.f - f)[inner]))
        assert err <= 1e-9 * abs(main_form[peak])

    def test_rejects_nonpositive_fineness(self):
        ch = Channel.from_kappa(-1)
        for fineness in (0.0, -1e-2):
            with pytest.raises(ValueError):
                integrate_first_order(PARAMS_POS, ch, 1.0, fineness=fineness)

    def test_step_count_is_deterministic(self):
        ch = Channel.from_kappa(-1)
        e = special_state(PARAMS_POS, ch).energy
        steps = [integrate_first_order(PARAMS_POS, ch, e, sample_count=240, fineness=2e-2)[1].steps
                 for _ in range(2)]
        assert steps[0] == steps[1]
        # the per-step scalar march placed 7381 steps on this domain
        assert abs(steps[0] - 7381) <= 0.02 * 7381

    def test_memory_bounded_by_chunk(self):
        # about 361k steps; keeping per-step arrays for all of them would need
        # tens of megabytes
        ch = Channel.from_kappa(-1)
        e = energy(PARAMS_POS, ch, 1, dtype=np.longdouble)
        tracemalloc.start()
        try:
            _, report = integrate_first_order(PARAMS_POS, ch, e)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.steps > 300_000
        assert peak <= 8e6


class TestCountSignChanges:
    def test_tiny_values_do_not_underflow(self):
        # the product 1e-200 * -1e-200 underflows to -0.0 and hid this change
        assert count_sign_changes([1e-200, -1e-200, 1e-200]) == 2

    def test_huge_values_do_not_overflow(self):
        # outward Numerov sweeps of high levels reach magnitudes like these
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert count_sign_changes([1e200, -1e200, 1e300, 2.0]) == 2

    def test_zeros_break_runs_and_nan_never_changes_sign(self):
        assert count_sign_changes([1.0, 0.0, -1.0, math.nan, 1.0, -1.0]) == 1


class TestCountNodes:
    def test_special_state_is_nodeless(self):
        st = special_state(PARAMS_POS, Channel.from_kappa(-1))
        samples = sample_state(PARAMS_POS, st, default_radial_grid(st, 1500))
        assert count_nodes(samples, "upper") == 0
        assert count_nodes(samples, "lower") == 0  # identically zero component

    def test_node_law_negative_family(self):
        st = bound_state(PARAMS_POS, Channel.from_kappa(-2), 3)
        samples = sample_state(PARAMS_POS, st, default_radial_grid(st, 3000))
        assert count_nodes(samples, "upper") == 3
        assert count_nodes(samples, "lower") == 2

    def test_node_law_positive_family(self):
        st = bound_state(PARAMS_NEG, Channel.from_kappa(2), 1)
        samples = sample_state(PARAMS_NEG, st, default_radial_grid(st, 3000))
        assert count_nodes(samples, "upper") == 1
        assert count_nodes(samples, "lower") == 2

    def test_boundary_zeros_ignored(self):
        r = np.linspace(0.1, 1.0, 7)
        g = np.array([0.0, 1.0, 0.1, -0.1, -1.0, 0.2, 0.0])
        samples = RadialSamples(r=r, g=g, f=np.zeros(7), node_count_g=2,
                                node_count_f=0, l2_norm=1.0)
        assert count_nodes(samples, "upper") == 2

    def test_undersampling_warning(self):
        st = bound_state(PARAMS_POS, Channel.from_kappa(-1), 4)
        g_form, f_form = state_wavefunctions(PARAMS_POS, st)
        coarse = np.linspace(3.0, 40.0, 9)
        samples = RadialSamples(r=coarse, g=g_form(coarse), f=f_form(coarse),
                                node_count_g=0, node_count_f=0, l2_norm=1.0)
        with pytest.warns(RuntimeWarning, match="coarse"):
            count_nodes(samples, "upper")

    def test_rejects_unknown_component(self):
        st = special_state(PARAMS_POS, Channel.from_kappa(-1))
        samples = sample_state(PARAMS_POS, st, default_radial_grid(st, 100))
        with pytest.raises(ValueError):
            count_nodes(samples, "middle")
