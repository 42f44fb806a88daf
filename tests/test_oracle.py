import math
import tracemalloc
import warnings
from dataclasses import replace
from typing import Callable

import numpy as np
import pytest

from diractensor import (
    Channel,
    Component,
    ConvergenceError,
    EigenResult,
    ModelParams,
    NoBracketError,
    ShootingConfig,
    ShootingError,
    UnboundChannelError,
    bound_state,
    count_sign_changes,
    energy,
    integrate_first_order,
    shoot_eigenvalue,
    solve_bound_level,
    special_state,
    state_wavefunctions,
)
from diractensor import oracle
from diractensor.core import angular_strength, equation_constants, level_extent
from diractensor.oracle import _rk4_step_deltas, _ShootingWorkspace

PARAMS_POS = ModelParams(1.0, 0.0, 1.0)
PARAMS_NEG = ModelParams(1.0, 0.0, -1.0)


def effective_potential(params: ModelParams, channel: Channel, component: Component) -> Callable:
    """V(r) = kb*(kb +/- 1)/r^2 + 2*b*kb/r entering -u'' + V u = lambda u, the
    potential ``diractensor.analytic.residuals`` writes out."""
    angular = angular_strength(channel.kappa_bar, component)
    coulomb = 2.0 * params.b * channel.kappa_bar

    def potential(r):
        arr = np.asarray(r, dtype=float)
        if np.any(arr <= 0):
            raise ValueError("the radial coordinate must be positive")
        val = angular / (arr * arr) + coulomb / arr
        return float(val) if np.ndim(r) == 0 else val

    return potential


def effective_potential_general(params: ModelParams, channel: Channel, component: Component) -> Callable:
    """Same potential built from the raw tensor field U = a/r + b.

    Uses the unshifted kappa and the full kappa(kappa +/- 1)/r^2
    + 2*kappa*U/r -/+ U' + U^2 combination (minus b^2 to line up with the
    lambda = E^2 - M^2 - b^2 convention); regression target for the
    specialized form, ``effective_potential``.
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

    def test_work_counters_pinned(self):
        # one shot from the pencil estimate, started at the inner edge: an
        # outward and an inward sweep per Newton step, and no other; the last
        # Newton candidate is returned without a step that only confirms it
        for _ in range(2):
            res = solve_bound_level(PARAMS_POS, Channel.from_kappa(-3), "upper", 2)
            assert (res.sweeps, res.newton_steps, res.steps) == (6, 3, 18946)
            assert res.step_count == 5752

    @pytest.mark.parametrize("kappa, n", [(-1, 0), (-1, 4), (-3, 2), (-5, 5)])
    def test_newton_path_marches_two_sweeps_per_step(self, kappa, n, monkeypatch):
        # a level found by Newton steps alone marches no bracket end and no
        # final pair, and its last candidate may come back unmarched; marched
        # at the returned level itself, the Newton correction is within the
        # tolerance and the joined solution has n nodes
        ch = Channel.from_kappa(kappa)
        [lam] = oracle._pencil_levels(PARAMS_POS, ch, "upper", range(n, n + 1))
        config = oracle._shot_config(PARAMS_POS, ch, "upper", lam, 6000)
        swept = []
        sweep = _ShootingWorkspace.sweep
        monkeypatch.setattr(_ShootingWorkspace, "sweep",
                            lambda ws, at: swept.append(at) or sweep(ws, at))
        res = shoot_eigenvalue(PARAMS_POS, ch, "upper", n, config)
        assert res.sweeps == 2 * res.newton_steps == 2 * len(swept)
        assert not set(config.lambda_bracket) & set(swept)
        assert res.node_count == n
        ws = _ShootingWorkspace(PARAMS_POS, ch, "upper", config)
        f, outward = sweep(ws, res.lambda_)
        m, inward = oracle._match_point(ws, res.lambda_, f, outward)
        defect, denom = oracle._matching_defect(ws, f, outward, m, inward)
        assert abs(defect / denom) <= config.tolerance
        assert oracle._joined_node_count(outward, m, inward) == n

    def test_slow_contraction_never_stops_early(self, monkeypatch):
        # corrections that only halve each step: the candidate after a
        # correction of (1, 2] tolerances may come back unmarched, since the
        # next correction is half of it, but no level at which the correction
        # still exceeds the tolerance may (a rule that predicted the next
        # correction quadratically would return one)
        ch = Channel.from_kappa(-3)
        config = oracle._shot_config(PARAMS_POS, ch, "upper", 1.02 * self.LAMBDA_2, 6000)
        level = shoot_eigenvalue(PARAMS_POS, ch, "upper", 2, config).lambda_
        swept = []
        sweep = _ShootingWorkspace.sweep
        monkeypatch.setattr(_ShootingWorkspace, "sweep",
                            lambda ws, at: swept.append(at) or sweep(ws, at))
        monkeypatch.setattr(oracle, "_matching_defect",
                            lambda *args: (0.5 * (swept[-1] - level), 1.0))
        res = shoot_eigenvalue(PARAMS_POS, ch, "upper", 2, config)
        assert res.newton_steps > 20 and res.node_count == 2
        assert abs(0.5 * (res.lambda_ - level)) <= config.tolerance
        assert res.lambda_ not in swept  # the early stop was taken, where it may be

    # the two-node level of kappa = -3 at b = 1: -b^2 (kappa_bar / n_bar)^2, n_bar = 5
    LAMBDA_2 = -0.36

    @pytest.mark.parametrize("factors, end", [((1.2, 1.05), "top"), ((0.95, 0.8), "floor")])
    def test_bracket_beside_the_level_raises(self, factors, end, monkeypatch):
        ch = Channel.from_kappa(-3)
        config = replace(oracle._shot_config(PARAMS_POS, ch, "upper", self.LAMBDA_2, 6000),
                         lambda_bracket=tuple(f * self.LAMBDA_2 for f in factors))
        # the first iterate's count puts it next to the level, as inside a
        # bracket that holds it; only the count at a bracket end tells
        ws = _ShootingWorkspace(PARAMS_POS, ch, "upper", config)
        assert count_sign_changes(ws.sweep(0.5 * sum(config.lambda_bracket))[1]) in (2, 3)
        marches = []
        march = oracle._numerov_march
        monkeypatch.setattr(oracle, "_numerov_march",
                            lambda *args: marches.append(1) or march(*args))
        with pytest.raises(NoBracketError, match=f"bracket {end}"):
            shoot_eigenvalue(PARAMS_POS, ch, "upper", 2, config)
        # at the first step off Newton's path, not after bisecting the bracket away
        assert len(marches) <= 5

    def test_wall_times_are_reported(self):
        # the only fields that may differ between two identical solves
        ch = Channel.from_kappa(-3)
        res = solve_bound_level(PARAMS_POS, ch, "upper", 2)
        assert 0.0 < res.pencil_seconds < res.seconds
        again = solve_bound_level(PARAMS_POS, ch, "upper", 2)
        assert replace(again, seconds=res.seconds, pencil_seconds=res.pencil_seconds) == res
        config = ShootingConfig(r_min=res.r_min, r_max=res.r_max, step_count=res.step_count,
                                lambda_bracket=(1.5 * res.lambda_, 0.5 * res.lambda_),
                                tolerance=1e-10)
        shot = shoot_eigenvalue(PARAMS_POS, ch, "upper", 2, config)
        assert shot.seconds > 0.0 and shot.pencil_seconds == 0.0
        _, report = integrate_first_order(PARAMS_POS, ch, 1.0, sample_count=240, fineness=2e-2)
        assert report.seconds > 0.0

    # kappa_bar and b of opposite signs, so that the channel binds
    EDGE_CASES = [(-3, 1.0), (-7, 1.7), (-20, 0.8), (30, -1.3)]

    @pytest.mark.parametrize("n", [0, 5, 14])
    @pytest.mark.parametrize("kappa, b", EDGE_CASES)
    def test_inner_edge_leaves_the_level_unchanged(self, kappa, b, n):
        # the shot from the inner edge marches the tail of the nominal grid,
        # whose first point is 1e-6/gamma, and finds the same level; like the
        # shots of solve_bound_level, it solves the problem in units of 1/|b|
        params, ch = oracle._unit(ModelParams(1.0, 0.0, b))[0], Channel.from_kappa(kappa)
        [mu_box] = oracle._pencil_levels(params, ch, "upper", range(n, n + 1))
        edge = oracle._shot_config(params, ch, "upper", mu_box, 6000)
        nominal = replace(edge, r_min=1e-6 / math.sqrt(-mu_box), step_count=6000)
        skip = nominal.step_count - edge.step_count
        h = math.log(nominal.r_max / nominal.r_min) / nominal.step_count
        assert math.log(edge.r_min / nominal.r_min) == pytest.approx(skip * h, rel=1e-12, abs=1e-12)
        assert math.log(edge.r_max / edge.r_min) / edge.step_count == pytest.approx(h, rel=1e-12)
        from_edge = shoot_eigenvalue(params, ch, "upper", n, edge)
        from_floor = shoot_eigenvalue(params, ch, "upper", n, nominal)
        assert from_edge.node_count == from_floor.node_count == n
        assert abs(from_edge.lambda_ - from_floor.lambda_) <= 1e-12 * abs(from_floor.lambda_)
        assert (from_edge.steps < from_floor.steps) == (skip > 0)
        if abs(kappa) >= 7:
            assert skip > 0

    @pytest.mark.parametrize("b", [1e-3, 1.0, 1e3, -1.0])
    def test_inner_edge_lies_30_e_folds_below_every_turning_point(self, b):
        # the inner end of level_extent, at any lambda: at
        # t = |B| r / S^2 the WKB integral of sqrt(S^2 - |B| r) dr / r up to
        # the lowest turning point S^2/|B| is S (ln((1 + U)^2 / t) - 2 U),
        # U = sqrt(1 - t)
        from scipy.integrate import quad

        # S = |kappa_bar + 1/2| (upper) or |kappa_bar - 1/2| (lower), so S = s
        kappa_sign, component = (-1.0, "upper") if b > 0 else (1.0, "lower")
        for i, s in enumerate(np.linspace(0.5, 60.0, 240)):
            kappa_bar = kappa_sign * (s + 0.5)
            kappa = round(kappa_bar)
            ch = Channel.from_kappa(kappa, kappa_bar - kappa)
            big_b = abs(2.0 * b * ch.kappa_bar)
            s_ch = math.sqrt(angular_strength(ch.kappa_bar, component) + 0.25)
            assert s_ch == pytest.approx(s, rel=1e-12)
            s2, coulomb = equation_constants(b, ch.kappa_bar, component)
            [r_e] = {level_extent(s2, coulomb, lam, 30.0)[0] for lam in (-b * b, -1e-3 * b * b)}
            t = big_b * r_e / (s_ch * s_ch)
            u = math.sqrt(1.0 - t)
            wkb = s_ch * (math.log((1.0 + u) ** 2 / t) - 2.0 * u)
            assert wkb >= 30.0 * (1.0 - 1e-12), s  # equality as t -> 0, up to rounding
            if i % 60 == 0 or s == 60.0:
                top = s_ch * s_ch / big_b
                by_quad, _ = quad(lambda r: math.sqrt(max(s_ch**2 - big_b * r, 0.0)) / r,
                                  r_e, top, limit=200, points=[top * 1e-3, top * 0.5])
                assert by_quad == pytest.approx(wkb, rel=1e-8)

    def test_inner_edge_keeps_the_series_start_positive(self):
        # 1 + c1 r >= 1/2 at the edge, c1 = B / (1 + 2 S), so the two start
        # values share their sign and the start adds no node (the bound is
        # met with equality where the second term sets the edge, up to rounding)
        for b in np.geomspace(1e-3, 1e3, 13):
            for size in np.linspace(0.55, 200.0, 160):
                for sign, component in ((-1.0, "upper"), (1.0, "lower")):
                    params = ModelParams(1.0, 0.0, -sign * b)
                    kappa = sign * round(size)
                    ch = Channel.from_kappa(kappa, sign * size - kappa)
                    s_ch = math.sqrt(angular_strength(ch.kappa_bar, component) + 0.25)
                    c1 = 2.0 * params.b * ch.kappa_bar / (1.0 + 2.0 * s_ch)
                    s2, coulomb = equation_constants(params.b, ch.kappa_bar, component)
                    r_e = level_extent(s2, coulomb, -0.5 * b * b, 30.0)[0]
                    assert 1.0 + c1 * r_e >= 0.5 - 1e-12, (b, size, component)

    def test_a_channel_that_cannot_bind_keeps_the_floor(self):
        # with b kappa_bar > 0 (B >= 0) there is no inner end: the shot
        # marches its whole nominal grid from 1e-6/gamma
        unit, ch = oracle._unit(PARAMS_POS)[0], Channel.from_kappa(3)
        assert level_extent(*equation_constants(unit.b, ch.kappa_bar, "upper"), -0.25)[0] == 0.0
        config = oracle._shot_config(unit, ch, "upper", -0.25, 6000)
        assert (config.r_min, config.step_count) == (1e-6 / 0.5, 6000)
        binding = oracle._shot_config(unit, Channel.from_kappa(-3), "upper", -0.25, 6000)
        assert binding.r_min > config.r_min and binding.step_count < 6000

    # two (b, a) pairs of each sign of b; kappa takes the sign that binds
    LADDER_PARAMS = [ModelParams(1.0, 0.0, 1.0), ModelParams(1.0, -0.6, 1.7),
                     ModelParams(1.0, 0.3, -0.8), ModelParams(1.0, -0.2, -1.4)]

    @pytest.mark.parametrize("params", LADDER_PARAMS, ids=lambda p: f"b={p.b}_a={p.a}")
    @pytest.mark.parametrize("size", [1, 7, 20, 40])
    def test_deep_ladder_matches_closed_forms(self, params, size):
        # at |kappa| = 40 and n >= 20, 6000 steps leave |dE| up to 3.4e-7,
        # a grid-accuracy limit of the shot, not of the estimate
        ch = Channel.from_kappa(size if params.b < 0 else -size, params.a)
        for n in range(0, 31, 5):
            steps = 24000 if size == 40 and n >= 20 else 6000
            res = solve_bound_level(params, ch, "upper", n, step_count=steps)
            assert res.node_count == n
            assert abs(res.energy_pair[0] - abs(bound_state(params, ch, n).energy)) <= 1e-7, n

    def test_estimate_off_by_40_percent_is_reboxed(self, monkeypatch):
        ch = Channel.from_kappa(-3)
        exact = energy(PARAMS_POS, ch, 2)
        true_lam = exact**2 - PARAMS_POS.mass**2 - PARAMS_POS.b**2
        shots = []

        def recorded(*args):
            shots.append(shoot_eigenvalue(*args))
            return shots[-1]

        monkeypatch.setattr(oracle, "shoot_eigenvalue", recorded)
        res = solve_bound_level(PARAMS_POS, ch, "upper", 2, estimate=1.4 * true_lam)
        assert len(shots) == 2
        assert res.pencil_seconds == 0.0
        assert abs(res.energy_pair[0] - exact) <= 1e-8
        assert res.sweeps == sum(shot.sweeps for shot in shots)
        assert res.steps == sum(shot.steps for shot in shots)
        assert res.newton_steps == sum(shot.newton_steps for shot in shots)
        # the grid reported is the final shot's
        assert (res.r_min, res.r_max, res.step_count) == (
            shots[-1].r_min, shots[-1].r_max, shots[-1].step_count)
        assert shots[0].r_max != shots[-1].r_max

    @pytest.mark.parametrize("params, kappa", [(PARAMS_POS, -1), (PARAMS_POS, -3),
                                               (ModelParams(1.0, 0.5, 1.7), -4),
                                               (PARAMS_NEG, 2), (ModelParams(1.0, 0.0, 1e3), -2)])
    def test_next_levels_estimate_keeps_the_node_target(self, params, kappa):
        # level n + 1's ladder estimate fed to level n: the shot's node count
        # keeps it on the n-node level, or it fails; it never returns level n + 1
        ch = Channel.from_kappa(kappa, params.a)
        ladder = oracle._pencil_levels(params, ch, "upper", range(6))
        for n in range(5):
            exact = abs(bound_state(params, ch, n).energy)
            try:
                res = solve_bound_level(params, ch, "upper", n, estimate=ladder[n + 1])
            except ShootingError:
                continue
            assert res.node_count == n
            assert abs(res.energy_pair[0] - exact) <= 1e-7 * max(1.0, abs(params.b))

    def test_estimate_must_be_negative(self):
        for estimate in (0.0, 0.25, math.nan):
            with pytest.raises(ValueError):
                solve_bound_level(PARAMS_POS, Channel.from_kappa(-3), "upper", 2, estimate=estimate)

    def test_ladder_is_one_pencil_per_range(self):
        # one Sturm bisection for levels 0..n_max, boxed for the deepest level;
        # the one-level pencil is the range of one level
        ch = Channel.from_kappa(-3)
        ladder = oracle._pencil_levels(PARAMS_POS, ch, "upper", range(5))
        assert len(ladder) == 5 and all(a < b < 0.0 for a, b in zip(ladder, ladder[1:]))
        [deepest] = oracle._pencil_levels(PARAMS_POS, ch, "upper", range(4, 5))
        assert abs(ladder[4] - deepest) <= 2e-9  # the bisection's absolute tolerance 1e-9 b^2
        exact = [bound_state(PARAMS_POS, ch, n).energy ** 2 - 2.0 for n in range(5)]
        assert all(abs(est - lam) <= 0.1 * abs(lam) for est, lam in zip(ladder, exact))
        with pytest.raises(ValueError):
            oracle._pencil_levels(PARAMS_POS, ch, "upper", range(-1, 3))
        with pytest.raises(NoBracketError):
            oracle._pencil_levels(PARAMS_POS, ch, "upper", range(0, 300))

    def test_shot_that_never_settles_raises(self, monkeypatch):
        configs = []

        def drifting(params, channel, component, node_target, config):
            # lands 30% below the lambda that set the box, every time
            configs.append(config)
            lam = 0.65 * sum(config.lambda_bracket)
            return EigenResult(lambda_=lam, energy_pair=(1.0, -1.0), node_count=node_target,
                               sweeps=1, newton_steps=1, steps=100, r_min=config.r_min,
                               r_max=config.r_max, step_count=config.step_count)

        monkeypatch.setattr(oracle, "shoot_eigenvalue", drifting)
        with pytest.raises(ConvergenceError):
            solve_bound_level(PARAMS_POS, Channel.from_kappa(-3), "upper", 2)
        assert len(configs) == 3

    def test_pencil_rejects_levels_it_cannot_hold(self, capfd):
        ch = Channel.from_kappa(-3)
        with pytest.raises(ValueError):
            solve_bound_level(PARAMS_POS, ch, "upper", -1)
        for n in (150, 300):  # above the window top, and beyond the pencil
            with pytest.raises(NoBracketError):
                solve_bound_level(PARAMS_POS, ch, "upper", n)
        assert capfd.readouterr() == ("", "")  # no LAPACK parameter complaint

    def test_matching_reuses_a_prefix_of_the_counting_sweep(self):
        # the outward march up to m + 1 must be bit for bit the head of the
        # whole-domain march, since the match cuts it instead of marching
        ch = Channel.from_kappa(-3)
        # the seed box of the two-node level: gamma_seed = b/7
        config = ShootingConfig(r_min=7e-6, r_max=210.0, step_count=3000,
                                lambda_bracket=(-1.000001, -1e-8), tolerance=1e-10)
        ws = _ShootingWorkspace(PARAMS_POS, ch, "upper", config)
        for lam in np.linspace(*config.lambda_bracket, 9):
            f, whole = ws.sweep(lam)
            for m in (ws.idx_lo, ws.match_index(lam), ws.idx_hi):
                np.testing.assert_array_equal(ws.outward(f, m + 1), whole[: m + 2])

    def test_b_zero_finds_nothing(self):
        # no square-integrable level with |E| < M exists without the constant term
        config = ShootingConfig(
            r_min=1e-6, r_max=60.0, step_count=4000,
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
            r_min=1e-6, r_max=60.0, step_count=4000,
            lambda_bracket=(-1e-9, -1e-9), tolerance=1e-9,
        )
        with pytest.raises(NoBracketError):
            shoot_eigenvalue(PARAMS_POS, ch, "upper", 0, config)

    def test_bracket_must_contain_level(self):
        ch = Channel.from_kappa(-1)
        config = ShootingConfig(
            r_min=1e-6, r_max=60.0, step_count=4000,
            lambda_bracket=(-0.26, -0.24), tolerance=1e-10,
        )
        # the window holds the one-node level but not the three-node one
        res = shoot_eigenvalue(PARAMS_POS, ch, "upper", 1, config)
        assert res.lambda_ == pytest.approx(-0.25, abs=1e-8)
        with pytest.raises(NoBracketError):
            shoot_eigenvalue(PARAMS_POS, ch, "upper", 3, config)

    def test_pencil_rejects_b_zero(self):
        with pytest.raises(NoBracketError):
            solve_bound_level(ModelParams(1.0, 0.0, 0.0), Channel.from_kappa(-1), "upper", 0)

    @pytest.mark.parametrize("n", [0, 4])
    @pytest.mark.parametrize("component", ["upper", "lower"])
    @pytest.mark.parametrize("sign, channel", [(1.0, Channel.from_kappa(-2)),
                                               (-1.0, Channel.from_kappa(2, 0.5))])
    def test_every_b_solves_the_problem_at_the_sign_of_b(self, sign, channel, component, n):
        # in rho = |b| r and mu = lambda / b^2 the equation holds neither M nor
        # |b|: the pencil and the solve answer the b = sgn(b) problem at every
        # scale float64 holds b^2 at, and only lambda, E and the radii scale
        def ulps(value, reference):
            return abs(value - reference) / np.spacing(abs(reference))

        params = ModelParams(1.0, channel.kappa_bar - channel.kappa, sign)
        ladder = oracle._pencil_levels(params, channel, component, range(n + 1))
        ref = solve_bound_level(params, channel, component, n)
        assert ref.node_count == n
        for size in (1e-150, 1e-100, 1e-3, 1e3, 1e80, 1e150):
            b = sign * size
            scaled = replace(params, b=b)
            mus = [lam / (b * b) for lam in oracle._pencil_levels(scaled, channel, component,
                                                                  range(n + 1))]
            assert max(map(ulps, mus, ladder)) <= 4, b
            res = solve_bound_level(scaled, channel, component, n)
            assert ulps(res.lambda_ / (b * b), ref.lambda_) <= 4, b
            assert ulps(res.r_max * size, ref.r_max) <= 4, b
            assert ((res.node_count, res.sweeps, res.steps, res.newton_steps, res.step_count)
                    == (n, ref.sweeps, ref.steps, ref.newton_steps, ref.step_count)), b
        for b in (1e200, -1e200):  # b^2 overflows: an error, not lambda = -inf or E = nan
            with pytest.raises(OverflowError):
                oracle._pencil_levels(replace(params, b=b), channel, component, range(n + 1))
            with pytest.raises(OverflowError):
                solve_bound_level(replace(params, b=b), channel, component, n)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ShootingConfig(r_min=1.0, r_max=0.5, step_count=4000,
                           lambda_bracket=(-1.0, -0.1), tolerance=1e-9)
        with pytest.raises(ValueError):
            ShootingConfig(r_min=1e-6, r_max=60.0, step_count=4000,
                           lambda_bracket=(-0.1, -1.0), tolerance=1e-9)
        with pytest.raises(ValueError):
            ShootingConfig(r_min=1e-6, r_max=60.0, step_count=4,
                           lambda_bracket=(-1.0, -0.1), tolerance=1e-9)


def reference_march(f, y0, y1):
    """The Numerov recurrence f[i+1] y[i+1] = (12 - 10 f[i]) y[i] - f[i-1] y[i-1],
    one step at a time in extended precision."""
    f = f.astype(np.longdouble)
    y = [np.longdouble(y0), np.longdouble(y1)]
    for i in range(1, f.size - 1):
        y.append(((12 - 10 * f[i]) * y[i] - f[i - 1] * y[i - 1]) / f[i + 1])
    return np.array(y)


def reference_match(ws, f, outward, m, inward):
    """The joined solution, matching defect and Newton denominator formed from
    normalised full-length copies, as the search once did."""
    left = outward[: m + 2] / outward[m]
    right = inward / inward[1]
    y = np.concatenate((left[:m], [1.0], right[2:]))
    defect = f[m - 1] * left[m - 1] + f[m + 1] * right[2] - (12.0 - 10.0 * f[m])
    return y, float(defect), ws.h * ws.h * float(np.sum(ws.r2 * y * y))


# eight channels that bind (b kappa_bar < 0) and two that do not (B > 0, so
# Q > 0 everywhere), both signs of b
MATCH_CHANNELS = [(ModelParams(1.0, 0.0, 1.0), -1), (ModelParams(1.0, 0.0, 1.0), -3),
                  (ModelParams(1.0, 0.5, 1.7), -7), (ModelParams(1.0, -0.6, 0.8), -20),
                  (ModelParams(1.0, 0.0, -1.0), 1), (ModelParams(1.0, 0.3, -1.4), 4),
                  (ModelParams(1.0, -0.2, -0.5), 12), (ModelParams(1.0, 0.0, -1.3), 30),
                  (ModelParams(1.0, 0.0, 1.0), 2), (ModelParams(1.0, 0.0, -1.0), -2)]


def array_match_index(ws, lam):
    """max{i : base_i - lambda r2_i < 0} over the whole grid, mid-grid where
    the set is empty, clamped to idx_lo..idx_hi."""
    inside = np.flatnonzero(ws.base - lam * ws.r2 < 0.0)
    m = int(inside[-1]) if inside.size else ws.r.size // 2
    return min(max(m, ws.idx_lo), ws.idx_hi)


def match_workspace(params, kappa, step_count=3000):
    ch = Channel.from_kappa(kappa, params.a)
    gamma_seed = abs(params.b) / 7.0
    config = ShootingConfig(r_min=1e-6 / gamma_seed, r_max=30.0 / gamma_seed,
                            step_count=step_count, lambda_bracket=(-params.b**2, -1e-8),
                            tolerance=1e-10)
    return _ShootingWorkspace(params, ch, "upper", config)


class TestNumerovMarch:
    @pytest.mark.parametrize("params, kappa", [MATCH_CHANNELS[i] for i in (0, 1, 2, 4, 5)])
    def test_unit_diagonal_march_matches_the_recurrence(self, params, kappa):
        # both directions, midway between neighbouring levels, where no sweep
        # overflows; on 400 steps the rounding of the march stays below 4e-13
        # of the largest value marched so far (it grows with the step count)
        ws = match_workspace(params, kappa, step_count=400)
        ch = Channel.from_kappa(kappa, params.a)
        levels = np.array([bound_state(params, ch, n).energy ** 2 for n in range(6)])
        for lam in 0.5 * (levels[:-1] + levels[1:]) - params.mass**2 - params.b**2:
            f = ws.coeffs(lam)
            for coeffs, y0, y1 in ((f, ws.v0, ws.v1),
                                   (f[::-1], 1.0, (12.0 - 10.0 * f[-1]) / f[-2])):
                got = oracle._numerov_march(coeffs, y0, y1, ws.band)
                want = reference_march(coeffs, y0, y1)
                assert np.isfinite(want).all()
                envelope = np.maximum.accumulate(np.abs(want))
                assert float(np.max(np.abs(got - want) / envelope)) <= 1e-12, lam
                assert (got[0], got[1]) == (y0, y1)

    # kappa_bar = -0.544, so S = 0.044 and f = 1 - O(1e-9) near the inner edge
    NEAR_EDGE = ModelParams(1.0, -1.5444336669909182, 1.8806005627202096)

    def test_coupling_row_rounds_once_at_its_scale(self):
        # 12/f - 10 in float64 errs by up to half an ulp of 12, 9e-16, and
        # with f this close to 1 the error runs coherently along the grid;
        # -2 - 12 (1 - f)/f rounds once, by half an ulp of the coefficient
        # the shots of solve_bound_level march the problem in units of 1/|b|
        ch = Channel.from_kappa(1, self.NEAR_EDGE.a)
        unit, scale = oracle._unit(self.NEAR_EDGE)
        mu = -3.5366584765 / scale
        config = oracle._shot_config(unit, ch, "upper", mu, 6000)
        ws = _ShootingWorkspace(unit, ch, "upper", config)
        f = ws.coeffs(mu)
        oracle._numerov_march(f, ws.v0, ws.v1, ws.band)
        row = ws.band[1, : f.size - 3]
        want = 10 - 12 / f[2:-1].astype(np.longdouble)
        assert np.all(np.abs(row - want) <= 0.501 * np.spacing(np.abs(row)))
        assert 1.0 - f[2] < 1e-8

    def test_near_edge_channel_level_is_not_moved_by_rounding(self):
        # the coherent rounding of 12/f - 10 put this level 5.9e-10 off; the
        # closed form and an extended-precision march both put it within 3e-10
        ch = Channel.from_kappa(1, self.NEAR_EDGE.a)
        res = solve_bound_level(self.NEAR_EDGE, ch, "upper", 0)
        assert abs(res.energy_pair[0] - special_state(self.NEAR_EDGE, ch).energy) <= 3e-10

    def test_band_rows_left_by_a_longer_march_do_not_leak(self):
        ws = match_workspace(*MATCH_CHANNELS[1])
        f = ws.coeffs(-0.3)
        short = f[:700]

        def fresh(coeffs):
            return oracle._numerov_march(coeffs, 1.0, 1.1, np.ones((3, coeffs.size), order="F"))

        for coeffs in (f, short, f[::-1], short, f):
            np.testing.assert_array_equal(oracle._numerov_march(coeffs, 1.0, 1.1, ws.band),
                                          fresh(coeffs))
        assert np.all(ws.band[[0, 2]] == 1.0)

    @pytest.mark.parametrize("params, kappa", MATCH_CHANNELS)
    def test_match_index_is_the_last_point_inside_the_turning_point(self, params, kappa):
        ws = match_workspace(params, kappa)
        lams = list(np.linspace(-1.5, -1e-4, 60) * params.b**2)
        # outer roots exactly on grid points, a few ulp either side, and the double root
        for i in range(0, ws.r.size, 97):
            r = ws.r[i]
            lams += [-(ws.S**2 + ws.B * r) / r**2 * (1.0 + e) for e in (0.0, 2e-16, -2e-16)]
        # near the double root, where the two turning points close in
        double = -ws.B**2 / (4.0 * ws.S**2)
        lams += [double * (1.0 + sign * 10.0**-k) for k in range(1, 16) for sign in (1, -1)]
        for lam in lams:
            if lam < 0.0:
                assert ws.match_index(lam) == array_match_index(ws, lam), lam

    def test_match_index_follows_the_array_test_where_it_disagrees_with_the_root(self):
        # rounding in base - lambda r2 could move the last point inside by one
        # from where the root puts it; the array test decides
        ws = match_workspace(*MATCH_CHANNELS[1])
        lam = -0.2
        m = array_match_index(ws, lam)
        assert ws.idx_lo < m < ws.idx_hi
        for i, shift in ((m, 1e-9), (m + 1, -1e-9)):
            saved = ws.base[i]
            ws.base[i] = lam * ws.r2[i] + shift * ws.S**2
            assert ws.match_index(lam) == array_match_index(ws, lam) != m
            ws.base[i] = saved
        assert ws.match_index(lam) == m

    @pytest.mark.parametrize("params, kappa", MATCH_CHANNELS[:4])
    def test_defect_and_denominator_match_the_joined_reference(self, params, kappa):
        ws = match_workspace(params, kappa)
        for lam in np.linspace(-0.95, -0.05, 7) * params.b**2:
            f, outward = ws.sweep(lam)
            m, inward = oracle._match_point(ws, lam, f, outward)
            y, defect, denom = reference_match(ws, f, outward, m, inward)
            got_defect, got_denom = oracle._matching_defect(ws, f, outward, m, inward)
            assert got_defect == pytest.approx(defect, rel=1e-13, abs=0.0)
            assert got_denom == pytest.approx(denom, rel=1e-13, abs=0.0)
            assert oracle._joined_node_count(outward, m, inward) == count_sign_changes(y)

    # lambda = -1 grows the solution by about e^r beyond its turning point
    OVERFLOW_PARAMS, OVERFLOW_CHANNEL = ModelParams(1.0, 0.0, 1.0), Channel.from_kappa(-1)

    def overflow_workspace(self, r_max):
        config = ShootingConfig(r_min=1e-3, r_max=r_max, step_count=20000,
                                lambda_bracket=(-1.5, -0.5), tolerance=1e-10)
        return _ShootingWorkspace(self.OVERFLOW_PARAMS, self.OVERFLOW_CHANNEL, "upper", config)

    def test_outward_overflow_is_rescued_by_a_smaller_start(self):
        # e^1000 overflows from the 1e-100 start but not from 1e-250
        ws = self.overflow_workspace(1000.0)
        f = ws.coeffs(-1.0)
        assert not np.isfinite(oracle._numerov_march(f, ws.v0, ws.v1, ws.band)).all()
        y = ws.outward(f, f.size - 1)
        assert np.isfinite(y).all() and np.max(np.abs(y)) > 1e150
        assert y[0] == ws.v0 * 1e-150
        assert (ws.sweeps, ws.steps) == (2, 2 * (f.size - 1))

    def test_outward_overflow_from_both_starts_raises(self):
        ws = self.overflow_workspace(1500.0)  # e^1500 overflows from 1e-250 too
        with pytest.raises(ShootingError, match="even after rescaling"):
            ws.sweep(-1.0)
        assert ws.sweeps == 2

    def test_inward_overflow_raises(self):
        ws = self.overflow_workspace(1000.0)
        f = ws.coeffs(-1.0)
        ws.inward(f, f.size - 500)  # a short inward sweep stays finite
        with pytest.raises(ShootingError, match="inward sweep overflowed"):
            ws.inward(f, ws.idx_lo)


class TestIntegrateFirstOrder:
    @pytest.mark.parametrize("params,kappa,level", [(PARAMS_POS, -1, 1), (PARAMS_NEG, 1, 0)],
                             ids=["kappa-1", "mirror-kappa1"])
    def test_float64_energy_decays_to_its_quantization_floor(self, params, kappa, level):
        # with E rounded to 64-bit the eigenvalue detuning ~1e-16 and the
        # roundoff of the march seed the growing solution; amplified over the
        # domain they cap the decay near 1e-5 of the peak for the most tightly
        # bound small-|kappa_bar| levels.  That solution takes over the far
        # tail, where it may add a sign change; the node counts stop short of it
        ch = Channel.from_kappa(kappa)
        st = bound_state(params, ch, level)
        samples, report = integrate_first_order(params, ch, energy(params, ch, level))
        assert report.classification == "bound"
        assert report.decay_ratio < 2e-5
        assert (samples.node_count_g, samples.node_count_f) == (st.n_g, st.n_f)

    @pytest.mark.parametrize("b,a,kappa,level", [
        (1.0, 0.0, -3, 2), (2.0, -0.5, -1, 3), (0.5, 0.0, -2, 4), (-2.0, -0.5, 3, 1),
    ])
    def test_bound_node_counts_are_the_levels(self, b, a, kappa, level):
        # on each of these the roundoff-seeded growing solution changes the
        # sign of both components in the far tail, at 1e-8 to 2e-6 of the peak
        params = ModelParams(1.0, a, b)
        ch = Channel.from_kappa(kappa, a)
        st = bound_state(params, ch, level)
        for sample_count in (240, 800, 3000):
            samples, report = integrate_first_order(params, ch, st.energy, sample_count=sample_count)
            assert report.classification == "bound"
            assert (samples.node_count_g, samples.node_count_f) == (st.n_g or 0, st.n_f or 0)

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

    @pytest.mark.parametrize("kappa,level", [(-1, None), (-3, 2), (2, None), (-60, None),
                                             (20, None)])
    def test_samples_follow_closed_form(self, kappa, level):
        # shape only: both are scaled to agree at the peak of the closed form
        params = PARAMS_POS if kappa < 0 else PARAMS_NEG
        ch = Channel.from_kappa(kappa)
        if level is None:
            st = special_state(params, ch)
            e = st.energy
        else:
            st = bound_state(params, ch, level)
            e = st.energy
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

    @pytest.mark.parametrize("fineness, sample_count", [(0.1, 800), (0.25, 240)])
    def test_steps_sparser_than_samples_are_sampled_once(self, fineness, sample_count):
        # several sample radii fall between the same two steps here, and a
        # repeated radius would fail RadialSamples
        samples, report = integrate_first_order(PARAMS_POS, Channel.from_kappa(-1), 1.0,
                                                sample_count=sample_count, fineness=fineness)
        assert report.classification == "bound"
        assert np.all(np.diff(samples.r) > 0)
        assert 2 <= samples.r.size < sample_count
        assert samples.f.size == samples.r.size and np.all(samples.f == 0.0)

    def test_rejects_nonpositive_fineness(self):
        ch = Channel.from_kappa(-1)
        for fineness in (0.0, -1e-2):
            with pytest.raises(ValueError):
                integrate_first_order(PARAMS_POS, ch, 1.0, fineness=fineness)

    def test_coarsest_fineness_stays_finite_within_a_chunk(self):
        # the state is renormalised once per 2048-step chunk; at fineness 0.25
        # the edge state at kappa = -60 rises by ~e^250 within one chunk
        ch = Channel.from_kappa(-60)
        e = special_state(PARAMS_POS, ch).energy
        samples, report = integrate_first_order(PARAMS_POS, ch, e, sample_count=240, fineness=0.25)
        assert report.classification == "bound"
        assert np.all(np.isfinite(samples.g)) and np.all(samples.f == 0.0)
        assert math.isfinite(report.peak_radius) and 0.0 < report.decay_ratio < 1e-3
        with pytest.raises(ValueError, match="fineness"):
            integrate_first_order(PARAMS_POS, ch, e, sample_count=240, fineness=0.3)

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
        e = energy(PARAMS_POS, ch, 1)
        tracemalloc.start()
        try:
            _, report = integrate_first_order(PARAMS_POS, ch, e)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.steps > 300_000
        assert peak <= 8e6


def assert_same_march(got, want):
    """Samples and report of two first-order marches agree bit for bit, apart
    from the wall time."""
    (samples, report), (want_samples, want_report) = got, want
    for name in ("r", "g", "f"):
        np.testing.assert_array_equal(getattr(samples, name), getattr(want_samples, name))
    assert ((samples.node_count_g, samples.node_count_f)
            == (want_samples.node_count_g, want_samples.node_count_f))
    assert replace(report, seconds=0.0) == replace(want_report, seconds=0.0)


class TestFirstOrderBatch:
    """Several energies marched in one scan on the first one's step schedule."""

    # (params, kappa, level or None for the edge state, factor on its energy,
    # sample_count, fineness), as the single-energy tests above march them
    SINGLE_CASES = [
        (PARAMS_POS, -1, 1, 1.0, 240, 2e-2),
        (PARAMS_POS, -1, 1, 1.01, 800, 2e-2),
        (PARAMS_POS, -1, None, 1.0, 800, 5e-3),
        (PARAMS_NEG, 2, None, 1.0, 800, 5e-3),
        (PARAMS_POS, -3, 2, 1.0, 240, 2e-2),
        (PARAMS_POS, -60, None, 1.0, 240, 0.25),
        (PARAMS_POS, -1, None, 1.0, 800, 0.1),
    ]

    @pytest.mark.parametrize("params, kappa, level, factor, sample_count, fineness", SINGLE_CASES)
    def test_first_energy_is_the_single_march(self, params, kappa, level, factor, sample_count,
                                              fineness):
        # another energy beside it changes nothing of the first one's march
        ch = Channel.from_kappa(kappa)
        st = special_state(params, ch) if level is None else bound_state(params, ch, level)
        e = factor * st.energy
        alone = integrate_first_order(params, ch, e, sample_count=sample_count, fineness=fineness)
        batch = oracle._march_first_order(params, ch, (e, 1.2 * e), sample_count, fineness)
        assert len(batch) == 2
        assert_same_march(batch[0], alone)

    # the edge pair's step size, and one that takes several 2048-step chunks
    PAIR_CASES = [(-1, 0.25), (-5, 0.25), (2, 0.25), (-1, 0.02)]

    @pytest.mark.parametrize("kappa, fineness", PAIR_CASES)
    @pytest.mark.parametrize("factor", [1.0, 1.0 + 1e-9])
    def test_energies_of_one_schedule_march_as_alone(self, kappa, fineness, factor):
        # E and -E share lambda, and so the box and the step schedule: each
        # energy of the pair, with its own start state, growth and powers of
        # two, is bit for bit its own march
        params = PARAMS_POS if kappa < 0 else PARAMS_NEG
        ch = Channel.from_kappa(kappa)
        e = factor * special_state(params, ch).energy
        pair = oracle._march_first_order(params, ch, (e, -e), 240, fineness)
        for energy_value, march in zip((e, -e), pair):
            assert_same_march(march, integrate_first_order(params, ch, energy_value, 240, fineness))

    @pytest.mark.parametrize("kappa, fineness", PAIR_CASES)
    def test_each_energy_of_an_edge_pair_marches_alone(self, kappa, fineness):
        # the edge bracket's pair E_c (1 -/+ 1e-9): the march of either
        # energy is the same whatever is marched beside it, so it is that
        # energy's own march on the pair's schedule; at fineness 0.02 it
        # carries the states across several 2048-step chunks
        params = PARAMS_POS if kappa < 0 else PARAMS_NEG
        ch = Channel.from_kappa(kappa)
        e = special_state(params, ch).energy
        low, high = e * (1.0 - 1e-9), e * (1.0 + 1e-9)
        pair = oracle._march_first_order(params, ch, (low, high), 2, fineness)
        trio = oracle._march_first_order(params, ch, (low, 1.01 * e, high), 2, fineness)
        assert_same_march(pair[0], integrate_first_order(params, ch, low, 2, fineness))
        assert_same_march(trio[0], pair[0])
        assert_same_march(trio[2], pair[1])
        steps = {report.steps for _, report in pair + trio}
        assert len(steps) == 1 and (fineness == 0.25 or steps.pop() > 3 * 2048)
        # both grow, and the tails of both components change sign across the level
        assert [report.classification for _, report in pair] == ["growing", "growing"]
        tails = [(samples.g[-1], samples.f[-1]) for samples, _ in pair]
        assert [count_sign_changes(tail) for tail in zip(*tails)] == [1, 1]
        # the same classification and tail signs as the high energy's own schedule
        own, own_report = integrate_first_order(params, ch, high, 2, fineness)
        assert own_report.classification == "growing"
        assert np.array_equal(np.sign((own.g[-1], own.f[-1])), np.sign(tails[1]))


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
        assert count_sign_changes([0.0, 1.0, 0.1, -0.1, -1.0, 0.2, 0.0]) == 2  # zeros at the ends
