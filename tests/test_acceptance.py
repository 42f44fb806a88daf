"""Acceptance suite: every criterion as one test, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  The oracle grid (M = 1, |b| in {0.5, 1, 2},
a in {0, +/-0.5, +/-2}, valid kappa in {+/-1..+/-5}, levels n <= 4) is shared
by several criteria and computed once.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from diractensor import (
    Channel,
    ModelParams,
    NoBracketError,
    ShootingConfig,
    bound_state,
    bound_states_exist,
    energy,
    integrate_first_order,
    nonrelativistic_binding,
    sample_state,
    shoot_eigenvalue,
    solve_bound_level,
    special_state,
    spectrum,
    state_wavefunctions,
)
from diractensor import oracle
from diractensor.analytic import default_radial_grid
from diractensor.cli import main as cli_main

from conjugation import bound_levels, conjugation_mismatch

GOLDEN_DIR = Path(__file__).parent / "golden"

B_GRID = (0.5, 1.0, 2.0, -0.5, -1.0, -2.0)
A_GRID = (0.0, 0.5, -0.5, 2.0, -2.0)
KAPPAS = tuple(k for k in range(-5, 6) if k != 0)
N_MAX = 4


def iter_channels():
    for b in B_GRID:
        for a in A_GRID:
            params = ModelParams(1.0, a, b)
            for kappa in KAPPAS:
                channel = Channel.from_kappa(kappa, a)
                if bound_states_exist(params, channel):
                    yield params, channel


@pytest.fixture(scope="module")
def oracle_grid():
    records = []
    for params, channel in iter_channels():
        for level in range(N_MAX + 1):
            if channel.kappa_bar < -0.5 and level == 0:
                state = special_state(params, channel)
            else:
                state = bound_state(params, channel, level)
            shot = solve_bound_level(params, channel, "upper", level)
            records.append((params, channel, level, state, shot))
    return records


def test_criterion_1_oracle_agreement(oracle_grid):
    """Shooting eigenvalues reproduce every closed-form energy to 1e-7."""
    deltas = [abs(abs(state.energy) - shot.energy_pair[0])
              for _, _, _, state, shot in oracle_grid]
    worst = max(deltas)
    print(f"\n[{'PASS' if worst <= 1e-7 else 'FAIL'}] criterion 1: "
          f"max |E_analytic - E_shoot| = {worst:.3e} <= 1e-7 "
          f"over {len(deltas)} states")
    assert worst <= 1e-7


def test_shooting_work_per_level(oracle_grid):
    """One shot from the pencil estimate, with Newton converging from both
    sides of the level, marched from the channel's inner edge: few sweeps
    per level, and few steps per sweep.

    Newton steps taken from below the level only, each overshoot followed by
    a bisection, take 69 Numerov sweeps per level on this grid.  Marching
    every sweep from 1e-6/gamma takes 42,566 Numerov steps per level.  A shot
    that also counts both bracket ends up front, or marches its final node
    count again after Newton has converged, takes 9.1 sweeps per level, and
    with both 11.1 sweeps and 33,285 steps.  Marching the last Newton
    candidate only to confirm it, where the two steps before it already
    predict a correction within the tolerance, takes 7.13 sweeps and
    18,643 steps.
    """
    mean = sum(shot.sweeps for *_, shot in oracle_grid) / len(oracle_grid)
    steps = sum(shot.steps for *_, shot in oracle_grid) / len(oracle_grid)
    print(f"\n[{'PASS' if mean <= 6.0 and steps <= 15500 else 'FAIL'}] shooting work: "
          f"{mean:.2f} Numerov sweeps per level <= 6.0 and {steps:.0f} Numerov steps "
          f"per level <= 15500 over {len(oracle_grid)} levels")
    assert mean <= 6.0
    assert steps <= 15500


def test_ladder_estimates_give_the_one_level_solves(oracle_grid):
    """verify shoots every level of a channel from one pencil for levels
    0..n_max; on every binding channel of the default grid that finds the
    level each one-level pencil finds."""
    worst = 0.0
    for params, channel, level, _, single in oracle_grid:
        if level == 0:
            ladder = oracle._pencil_levels(params, channel, "upper", range(N_MAX + 1))
        shot = solve_bound_level(params, channel, "upper", level, estimate=ladder[level])
        assert shot.node_count == single.node_count == level
        assert shot.pencil_seconds == 0.0
        worst = max(worst, abs(shot.energy_pair[0] - single.energy_pair[0]))
    print(f"\n[{'PASS' if worst <= 1e-10 else 'FAIL'}] ladder estimates: "
          f"max |E_ladder - E_one_level| = {worst:.3e} <= 1e-10 over {len(oracle_grid)} levels")
    assert worst <= 1e-10


def test_criterion_2_special_states():
    """|E| = M levels have one component that stays numerically zero.

    At exactly |E| = M the integrator's step matrices are triangular, so the
    leakage bound alone cannot fail; the same check at the detuned energy
    E (1 + 1e-6) must flag the state as growing, with leakage far above it.
    """

    def leakage(channel, samples):
        main, zero = (samples.g, samples.f) if channel.kappa_bar < 0 else (samples.f, samples.g)
        return float(np.max(np.abs(zero)) / np.max(np.abs(main)))

    checked = 0
    worst_ratio = 0.0
    least_detuned_ratio = math.inf
    for params, channel in iter_channels():
        state = special_state(params, channel)
        assert abs(state.energy) == params.mass  # exact, not approximate
        samples, report = integrate_first_order(
            params, channel, state.energy, sample_count=240, fineness=2e-2
        )
        assert report.classification == "bound"
        worst_ratio = max(worst_ratio, leakage(channel, samples))
        detuned_samples, detuned = integrate_first_order(
            params, channel, state.energy * (1.0 + 1e-6), sample_count=240, fineness=2e-2
        )
        assert detuned.classification == "growing", (params, channel.kappa_bar)
        least_detuned_ratio = min(least_detuned_ratio, leakage(channel, detuned_samples))
        checked += 1
    print(f"\n[{'PASS' if worst_ratio <= 1e-8 else 'FAIL'}] criterion 2: "
          f"vanishing-component leakage = {worst_ratio:.3e} <= 1e-8 "
          f"over {checked} special states (both families); detuned control "
          f"E(1 + 1e-6): all growing, leakage >= {least_detuned_ratio:.3e}")
    assert worst_ratio <= 1e-8
    assert least_detuned_ratio > 1e-8


def test_criterion_3_energy_window():
    """Randomized draws: every bound energy obeys M <= |E| < sqrt(M^2+b^2)."""
    rng = np.random.default_rng(20240811)
    draws = 0
    while draws < 1000:
        mass = float(rng.uniform(0.2, 5.0))
        a = float(rng.uniform(-3.0, 3.0))
        b = float(rng.uniform(0.05, 3.0)) * (1 if rng.random() < 0.5 else -1)
        kappa = int(rng.integers(1, 9)) * (1 if rng.random() < 0.5 else -1)
        params = ModelParams(mass, a, b)
        channel = Channel.from_kappa(kappa, a)
        if not bound_states_exist(params, channel):
            continue
        level = int(rng.integers(0, 13))
        if channel.kappa_bar < -0.5 and level == 0:
            state = special_state(params, channel)
        else:
            branch = "particle" if rng.random() < 0.5 else "antiparticle"
            state = bound_state(params, channel, level, branch)
        assert mass <= abs(state.energy) < params.effective_mass
        draws += 1
    print(f"\n[PASS] criterion 3: M <= |E| < M* held for {draws} randomized bound states")


def test_criterion_4_node_law(oracle_grid):
    """Sampled node counts equal (n_g, n_f) with n_f = n_g -/+ 1 per family."""
    checked = 0
    for params, channel, level, state, _ in oracle_grid:
        samples = sample_state(params, state, default_radial_grid(state, 2400))
        expected_g = state.n_g if state.n_g is not None else 0
        expected_f = state.n_f if state.n_f is not None else 0
        assert samples.node_count_g == expected_g, (channel.kappa_bar, level)
        assert samples.node_count_f == expected_f, (channel.kappa_bar, level)
        if state.n_g is not None and state.n_f is not None:
            offset = -1 if channel.kappa_bar < -0.5 else 1
            assert state.n_f == state.n_g + offset
        checked += 1
    print(f"\n[PASS] criterion 4: node law (n_f = n_g -/+ 1) held for {checked} states")


def test_criterion_5_residuals(oracle_grid):
    """Analytic wavefunctions satisfy the radial equations to 1e-8 relative."""
    regular = [rec for rec in oracle_grid if rec[3].n_g is not None and rec[3].n_f is not None]
    stride = max(1, len(regular) // 50)
    picked = regular[::stride][:50]
    r = np.geomspace(0.01, 30.0, 400)
    worst = 0.0
    for params, channel, _, state, _ in picked:
        g_form, f_form = state_wavefunctions(params, state)
        g, dg, d2g = g_form.derivatives(r)
        f, df, d2f = f_form.derivatives(r)
        kb, m, b, e = channel.kappa_bar, params.mass, params.b, state.energy
        scale = max(np.max(np.abs(g)), np.max(np.abs(f)))
        lam = e * e - m * m - b * b
        first_up = np.max(np.abs(dg + (kb / r + b) * g - (m + e) * f))
        first_lo = np.max(np.abs(df - (kb / r + b) * f - (m - e) * g))
        second_up = np.max(np.abs(
            d2g - (kb * (kb + 1) / r**2 + 2 * b * kb / r - lam) * g))
        second_lo = np.max(np.abs(
            d2f - (kb * (kb - 1) / r**2 + 2 * b * kb / r - lam) * f))
        worst = max(worst, max(first_up, first_lo, second_up, second_lo) / scale)
    print(f"\n[{'PASS' if worst < 1e-8 else 'FAIL'}] criterion 5: "
          f"max relative residual of the radial equations = {worst:.3e} < 1e-8 "
          f"over {len(picked)} states")
    assert worst < 1e-8


def test_criterion_6_charge_conjugation(tmp_path):
    """Conjugated spectra match under (kappa_bar, branch) -> (-kappa_bar, -branch)."""
    mismatched, levels = {}, 0
    for b in (0.5, 1.0, 2.0):
        for a in A_GRID:
            params = ModelParams(1.0, a, b)
            mismatch = conjugation_mismatch(params, KAPPAS, N_MAX)
            if mismatch:
                mismatched[(a, b)] = sorted(mismatch)[:4]
            levels += len(bound_levels(params, KAPPAS, N_MAX))
    fig1 = tmp_path / "fig1.csv"
    fig2 = tmp_path / "fig2.csv"
    assert cli_main(["spectrum", "--preset", "fig1", "--out", str(fig1)]) == 0
    assert cli_main(["spectrum", "--preset", "fig2", "--out", str(fig2)]) == 0
    rows1 = fig1.read_text().splitlines()[1:]
    rows2 = fig2.read_text().splitlines()[1:]
    for line1, line2 in zip(rows1, rows2):
        e1 = line1.split(",")[5]
        e2 = line2.split(",")[5]
        assert e1 == e2  # the energy columns agree byte for byte
    ok = not mismatched
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion 6: conjugation bijection complete over "
          f"{levels} levels with zero energy mismatch; "
          f"fig1 <-> fig2 energies byte-identical")
    assert ok, mismatched


def test_criterion_7_nonrelativistic_limit():
    """Binding energies at b/M = 1e-3 match the quadratic-in-b form to 5e-6."""
    worst = 0.0
    checked = 0
    for sign in (1.0, -1.0):
        b = 1e-3 * sign
        for a in A_GRID:
            params = ModelParams(1.0, a, b)
            for kappa in KAPPAS:
                channel = Channel.from_kappa(kappa, a)
                if not bound_states_exist(params, channel):
                    continue
                first = 1 if channel.kappa_bar < -0.5 else 0
                for n_g in range(first, N_MAX + 1):
                    exact = energy(params, channel, n_g) - params.mass
                    approx = nonrelativistic_binding(params, channel, n_g)
                    worst = max(worst, abs(exact - approx) / exact)
                    checked += 1
    print(f"\n[{'PASS' if worst <= 5e-6 else 'FAIL'}] criterion 7: "
          f"nonrelativistic binding deviation = {worst:.3e} <= 5e-6 "
          f"over {checked} states at |b|/M = 1e-3")
    assert worst <= 5e-6


def test_criterion_8_no_binding_without_constant_term():
    """b = 0: shooting finds no square-integrable level with |E| < M."""
    config = ShootingConfig(
        r_min=1e-6, r_max=60.0, step_count=4000,
        lambda_bracket=(-0.99, -1e-4), tolerance=1e-9,
    )
    attempts = 0
    for a in (0.0, 0.5, -0.5):
        params = ModelParams(1.0, a, 0.0)
        for kappa in KAPPAS:
            channel = Channel.from_kappa(kappa, a)
            if abs(channel.kappa_bar) <= 0.5:
                continue
            for node_target in range(3):
                with pytest.raises(NoBracketError):
                    shoot_eigenvalue(params, channel, "upper", node_target, config)
                attempts += 1
    print(f"\n[PASS] criterion 8: no bound state found in {attempts} b = 0 searches")


def test_criterion_9_degeneracy(oracle_grid):
    """States sharing |kappa_bar|/n_bar (and |b|) share |E| to 1e-13."""
    groups: dict = {}
    for params, channel, _, state, _ in oracle_grid:
        ratio = abs(channel.kappa_bar) / state.n_bar
        key = (abs(params.b), round(ratio, 12))
        groups.setdefault(key, []).append(abs(state.energy))
    worst = 0.0
    degenerate = 0
    for energies in groups.values():
        if len(energies) > 1:
            degenerate += 1
            worst = max(worst, (max(energies) - min(energies)) / max(energies))
    # the flagship pair: (kappa_bar=-1, n_g=1, b=1) vs (kappa_bar=+1, n_g=0, b=-1)
    e_left = energy(ModelParams(1.0, 0.0, 1.0), Channel.from_kappa(-1), 1)
    e_right = energy(ModelParams(1.0, 0.0, -1.0), Channel.from_kappa(1), 0)
    assert abs(e_left - e_right) <= 1e-13 * e_left
    assert e_left == pytest.approx(math.sqrt(7) / 2, rel=1e-15)
    ok = worst <= 1e-13
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion 9: max spread within "
          f"{degenerate} degenerate groups = {worst:.3e} <= 1e-13; "
          f"E/M = sqrt(7)/2 pair confirmed")
    assert ok


@pytest.mark.parametrize("preset", ["fig1", "fig2", "fig3a", "fig3b"])
def test_criterion_10_figure_data_regression(preset, tmp_path):
    """Preset outputs are byte-identical to the committed golden files."""
    golden = GOLDEN_DIR / f"{preset}.csv"
    assert golden.exists(), f"golden file missing: {golden}"
    out = tmp_path / f"{preset}.csv"
    command = "spectrum" if preset in ("fig1", "fig2") else "fig3"
    assert cli_main([command, "--preset", preset, "--out", str(out)]) == 0
    identical = out.read_bytes() == golden.read_bytes()
    print(f"\n[{'PASS' if identical else 'FAIL'}] criterion 10: {preset} dataset "
          f"byte-identical to golden file")
    assert identical
