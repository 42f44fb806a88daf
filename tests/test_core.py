import dataclasses
import importlib
import math
import pkgutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import diractensor
from diractensor import (
    BoundState,
    Channel,
    ModelParams,
    RadialSamples,
    UnboundChannelError,
    bound_states_exist,
    energy,
    special_state,
    spectrum,
)
from diractensor.core import equation_constants, level_extent


def channel_from_j(j: float, spin_aligned: bool, a: float = 0.0) -> Channel:
    """The channel of total angular momentum j: kappa = -(j + 1/2) with the
    spin aligned, +(j + 1/2) anti-aligned."""
    if round(2 * j) != 2 * j or j <= 0 or int(round(2 * j)) % 2 == 0:
        raise ValueError(f"j must be a positive half-integer, got {j!r}")
    kappa = int(round(j + 0.5))
    if spin_aligned:
        kappa = -kappa
    return Channel.from_kappa(kappa, a)


class TestModelParams:
    def test_effective_mass(self):
        p = ModelParams(mass=1.0, a=0.0, b=1.0)
        assert p.effective_mass == pytest.approx(math.sqrt(2.0), rel=1e-15)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_mass(self, bad):
        with pytest.raises(ValueError):
            ModelParams(mass=bad, a=0.0, b=1.0)

    def test_int_fields_are_stored_as_floats(self):
        # so a table built from them holds floats: the edge level's energy
        # is 1.0 and every kappa_bar a float, as from float-built params
        params = ModelParams(1, 0, 1)
        assert [type(v) for v in (params.mass, params.a, params.b)] == [float] * 3
        assert params == ModelParams(1.0, 0.0, 1.0)
        assert hash(params) == hash(ModelParams(1.0, 0.0, 1.0))
        assert type(Channel.from_kappa(-1, 0).kappa_bar) is float
        table = spectrum(params, [-1, -2], 1, "both")
        for name in ("kappa_bar", "n_bar", "energy", "e_over_m"):
            assert {type(v) for v in table[name]} == {float}, name
        assert table == spectrum(ModelParams(1.0, 0.0, 1.0), [-1, -2], 1, "both")

    def test_rejects_nonfinite_strengths(self):
        with pytest.raises(ValueError):
            ModelParams(mass=1.0, a=math.inf, b=0.0)
        with pytest.raises(ValueError):
            ModelParams(mass=1.0, a=0.0, b=math.nan)


class TestChannel:
    @pytest.mark.parametrize(
        "kappa, ell, j, aligned",
        [(-1, 0, 0.5, True), (1, 1, 0.5, False), (-2, 1, 1.5, True), (2, 2, 1.5, False),
         (-5, 4, 4.5, True), (3, 3, 2.5, False)],
    )
    def test_kappa_to_j_ell(self, kappa, ell, j, aligned):
        ch = Channel.from_kappa(kappa)
        assert (ch.ell_upper, ch.j, ch.spin_aligned) == (ell, j, aligned)

    @pytest.mark.parametrize("kappa", [k for k in range(-12, 13) if k != 0])
    def test_roundtrip_through_j(self, kappa):
        ch = Channel.from_kappa(kappa, a=0.3)
        back = channel_from_j(ch.j, ch.spin_aligned, a=0.3)
        assert back == ch

    def test_kappa_zero_rejected(self):
        with pytest.raises(ValueError):
            Channel.from_kappa(0)

    def test_from_j_validates(self):
        with pytest.raises(ValueError):
            channel_from_j(1.0, True)  # integer j is not allowed
        with pytest.raises(ValueError):
            channel_from_j(-0.5, True)

    def test_stores_kappa_and_kappa_bar_only(self):
        # j, ell and the spin alignment are derived, so they cannot disagree with kappa
        ch = Channel(-3, -2.5)
        assert [f.name for f in dataclasses.fields(ch)] == ["kappa", "kappa_bar"]
        assert (ch.j, ch.ell_upper, ch.spin_aligned) == (2.5, 2, True)
        with pytest.raises(ValueError):
            Channel(0, 0.5)

    def test_kappa_bar_shift(self):
        ch = Channel.from_kappa(-1, a=0.7)
        assert ch.kappa_bar == -1 + 0.7


class TestBoundStatesExist:
    def test_binding_channel(self):
        p = ModelParams(1.0, 0.0, 1.0)
        assert bound_states_exist(p, Channel.from_kappa(-1, 0.0)) is True

    def test_wrong_sign(self):
        p = ModelParams(1.0, 0.0, 1.0)
        assert bound_states_exist(p, Channel.from_kappa(1, 0.0)) is False

    def test_excluded_window(self):
        # |kappa_bar| = 0.3 falls in the forbidden band 0 < |kappa_bar| < 1/2
        p = ModelParams(1.0, 0.7, 1.0)
        assert bound_states_exist(p, Channel.from_kappa(-1, 0.7)) is False

    def test_half_edge_excluded(self):
        p = ModelParams(1.0, 0.5, 1.0)
        assert bound_states_exist(p, Channel.from_kappa(-1, 0.5)) is False

    def test_kappa_bar_zero(self):
        p = ModelParams(1.0, 1.0, 1.0)
        assert bound_states_exist(p, Channel.from_kappa(-1, 1.0)) is False

    def test_b_zero_never_binds(self):
        p = ModelParams(1.0, 0.0, 0.0)
        for kappa in (-3, -1, 1, 3):
            assert bound_states_exist(p, Channel.from_kappa(kappa, 0.0)) is False

    def test_mismatched_channel_rejected(self):
        p = ModelParams(1.0, 0.5, 1.0)
        with pytest.raises(ValueError):
            bound_states_exist(p, Channel.from_kappa(-1, 0.0))

    @pytest.mark.parametrize("a", [0.0, 0.5, -1.3, 2.0])
    @pytest.mark.parametrize("b", [0.7, -0.7, 2.0])
    def test_conjugation_symmetry(self, a, b):
        # existence is invariant under (b, kappa_bar) -> (-b, -kappa_bar)
        p = ModelParams(1.0, a, b)
        q = ModelParams(1.0, -a, -b)
        for kappa in range(-6, 7):
            if kappa == 0:
                continue
            assert bound_states_exist(p, Channel.from_kappa(kappa, a)) == bound_states_exist(
                q, Channel.from_kappa(-kappa, -a)
            )


class TestKappaRange:
    """The binding rule read as a range of kappa: b > 0 binds kappa < -a - 1/2,
    b < 0 binds kappa > -a + 1/2, and b = 0 binds nothing."""

    @staticmethod
    def binding(params, lo, hi):
        return [k for k in range(lo, hi + 1)
                if k != 0 and bound_states_exist(params, Channel.from_kappa(k, params.a))]

    def test_positive_b(self):
        assert self.binding(ModelParams(1.0, 0.0, 1.0), -10, 10) == list(range(-10, 0))

    def test_negative_b(self):
        assert self.binding(ModelParams(1.0, 0.0, -1.0), -10, 10) == list(range(1, 11))

    def test_shifted_by_a_brute_force(self):
        # independent enumeration of the existence predicate on [-5, 5]
        p = ModelParams(1.0, -2.0, 1.0)
        brute = [
            k for k in range(-5, 6)
            if k != 0 and p.b * (k + p.a) < 0 and abs(k + p.a) > 0.5
        ]
        assert brute == [k for k in range(-5, 6) if k != 0 and k <= 1]
        assert self.binding(p, -5, 5) == brute

    @pytest.mark.parametrize("a", [0.0, 0.5, -0.5, 2.0, -2.0, 1.3, -3.7])
    @pytest.mark.parametrize("b", [1.0, -1.0, 0.25])
    def test_agrees_with_existence_predicate(self, a, b):
        # the half-line of the rule, the predicate and the channels that
        # spectrum binds are one set of kappa on [-50, 50]
        p = ModelParams(1.0, a, b)
        kappas = [k for k in range(-50, 51) if k != 0]
        half_line = [k for k in kappas if (k < -a - 0.5 if b > 0 else k > -a + 0.5)]
        assert self.binding(p, -50, 50) == half_line, (a, b)
        table = spectrum(p, kappas, 1, "both")
        bound = sorted({k for k, ok in zip(table["kappa"], table["bound"]) if ok})
        assert bound == half_line, (a, b)

    def test_b_zero_rejected(self):
        p = ModelParams(1.0, 0.0, 0.0)
        assert self.binding(p, -50, 50) == []
        for kappa in (-1, 1):
            with pytest.raises(UnboundChannelError):
                energy(p, Channel.from_kappa(kappa), 1)
            with pytest.raises(UnboundChannelError):
                special_state(p, Channel.from_kappa(kappa))


def wkb_exponent(s: float, coulomb: float, mu: float, lo: float, hi: float) -> float:
    """integral of sqrt(Q) dx, Q = s^2 + coulomb rho - mu rho^2, x = ln rho, from
    lo to hi by the trapezoid rule on 2e5 points in x."""
    x = np.linspace(math.log(lo), math.log(hi), 200_001)
    rho = np.exp(x)
    root_q = np.sqrt(np.maximum(s * s + coulomb * rho - mu * rho * rho, 0.0))
    return float(np.sum(0.5 * (root_q[1:] + root_q[:-1]) * np.diff(x)))


def outer_start(s: float, coulomb: float, mu: float) -> float:
    """The outer root of Q, or the minimum of Q where it has no real root."""
    disc = coulomb * coulomb + 4.0 * mu * s * s
    return (-coulomb + math.sqrt(max(disc, 0.0))) / (-2.0 * mu)


class TestEquationConstants:
    @settings(derandomize=True, max_examples=500, deadline=None)
    @given(kappa_bar=st.floats(-1e150, 1e150), b=st.floats(-1e3, 1e3))
    def test_exponent_is_the_half_shifted_kappa_bar(self, kappa_bar, b):
        # S^2 - 1/4 is the 1/r^2 strength kappa_bar (kappa_bar +/- 1) of the
        # equation for u to a few ulp of their magnitude, and wherever a
        # family exists 2S is, bit for bit, the Laguerre order the closed
        # forms wrote out for it
        (s_up, coulomb), (s_lo, _) = (equation_constants(b, kappa_bar, c) for c in ("upper", "lower"))
        assert coulomb == 2.0 * b * kappa_bar
        for s, strength in ((s_up, kappa_bar * (kappa_bar + 1.0)),
                            (s_lo, kappa_bar * (kappa_bar - 1.0))):
            assert s >= 0.0
            magnitude = s * s + 0.25
            assert abs((s * s - 0.25) - strength) <= 4.0 * np.spacing(magnitude), (s, strength)
        if kappa_bar <= -0.5:
            assert (2.0 * s_up, 2.0 * s_lo) == (-1.0 - 2.0 * kappa_bar, 1.0 - 2.0 * kappa_bar)
        if kappa_bar >= 0.5:
            assert (2.0 * s_up, 2.0 * s_lo) == (1.0 + 2.0 * kappa_bar, 2.0 * kappa_bar - 1.0)

    def test_rejects_an_unknown_component(self):
        with pytest.raises(ValueError, match="component"):
            equation_constants(1.0, -2.0, "middle")


class TestLevelExtent:
    # in units of 1/|b|, with b of the sign that binds each kappa_bar
    @pytest.mark.parametrize("kappa_bar", [1.5, -1.5, -5.0, 20.0, -20.0, -97.74])
    @pytest.mark.parametrize("component", ["upper", "lower"])
    @pytest.mark.parametrize("suppression", [5.0, 30.0])
    def test_outer_end_lies_suppression_past_the_outer_turning_point(self, kappa_bar, component,
                                                                    suppression):
        b = -math.copysign(1.0, kappa_bar)
        s, coulomb = equation_constants(b, kappa_bar, component)
        # shallow to deep, the closed-form levels n_bar = |kappa_bar| + n among
        # them, and past mu = -B^2 / (4 S^2), where Q has no real root
        for mu in [-4.0, -1.0, -0.3, -1e-2, -1e-4,
                   *(-(kappa_bar / (abs(kappa_bar) + n)) ** 2 for n in (1, 12, 60))]:
            inner, outer = level_extent(s, coulomb, mu, suppression)
            start = outer_start(s, coulomb, mu)
            assert 0.0 < inner < start < outer
            exponent = wkb_exponent(s, coulomb, mu, start, outer)
            assert exponent == pytest.approx(suppression, abs=1e-6), mu

    @pytest.mark.parametrize("mu", [-1.21, -1.21 * (1.0 + 1e-9), -1.21 * (1.0 - 1e-9)])
    def test_a_double_root_gives_finite_ordered_ends(self, mu):
        # kappa_bar = -5.5, upper: S = 5 and B = -11, so Q = (1.1 rho - 5)^2 at mu = -1.21
        s, coulomb = equation_constants(1.0, -5.5, "upper")
        assert (s, coulomb) == (5.0, -11.0)
        inner, outer = level_extent(s, coulomb, mu, 30.0)
        assert math.isfinite(outer) and 0.0 < inner < 5.0 / 1.1 < outer
        assert outer == pytest.approx(level_extent(s, coulomb, -1.21, 30.0)[1], rel=1e-6)
        start = outer_start(s, coulomb, mu)
        assert wkb_exponent(s, coulomb, mu, start, outer) == pytest.approx(30.0, abs=1e-6)

    def test_no_real_root_is_measured_from_the_minimum(self):
        # kappa_bar = -1.5, upper: S = 1, B = -3, and Q > 0 for mu < -9/4
        s, coulomb = equation_constants(1.0, -1.5, "upper")
        for mu in (-2.26, -4.0, -100.0):
            inner, outer = level_extent(s, coulomb, mu, 30.0)
            minimum = coulomb / (2.0 * mu)
            assert math.isfinite(outer) and 0.0 < inner < minimum < outer
            assert wkb_exponent(s, coulomb, mu, minimum, outer) == pytest.approx(30.0, abs=1e-6)

    def test_a_channel_that_cannot_bind_has_no_inner_end(self):
        # b kappa_bar > 0: B > 0 and no level; the outer end is that of -B
        for kappa_bar, b in ((3.0, 1.0), (-3.0, -1.0)):
            s, coulomb = equation_constants(b, kappa_bar, "upper")
            inner, outer = level_extent(s, coulomb, -0.25, 30.0)
            assert inner == 0.0
            assert outer == level_extent(s, -coulomb, -0.25, 30.0)[1]

    def test_a_zero_exponent_has_no_inner_end(self):
        # kappa_bar = -1/2, upper: S = 0, where the inner end 4 S^2/|B|
        # e^(-2 - suppression/S) is 0, not a division by zero; the outer end
        # is measured as at any S
        s, coulomb = equation_constants(1.0, -0.5, "upper")
        assert (s, coulomb) == (0.0, -1.0)
        for mu in (-1.0, -1e-2):
            inner, outer = level_extent(s, coulomb, mu, 30.0)
            start = outer_start(s, coulomb, mu)
            assert inner == 0.0 and 0.0 < start < outer
            assert wkb_exponent(s, coulomb, mu, start, outer) == pytest.approx(30.0, abs=1e-6)

    def test_the_ends_scale_with_the_unit_of_length(self):
        # Q = S^2 + B r - lam r^2 at (B, lam) = (|b| B_1, b^2 mu) is Q at
        # (B_1, mu) in rho = |b| r, so the radii are those in rho over |b|
        s, coulomb = equation_constants(1.0, -4.0, "upper")
        for b in (1e-3, 0.7, 1e4):
            scaled = level_extent(*equation_constants(b, -4.0, "upper"), -0.3 * b * b)
            assert scaled == pytest.approx([end / b for end in level_extent(s, coulomb, -0.3)],
                                           rel=1e-10)



class TestBoundStateInvariants:
    def test_energy_window_enforced(self):
        ch = Channel.from_kappa(-1, 0.0)
        with pytest.raises(ValueError):
            BoundState(channel=ch, energy=1.5, branch="particle", gamma=1.0,
                       effective_mass=math.sqrt(2.0), n_g=1, n_f=0)

    def test_node_law_enforced(self):
        ch = Channel.from_kappa(-2, 0.0)
        with pytest.raises(ValueError):
            BoundState(channel=ch, energy=1.2, branch="particle", gamma=0.5,
                       effective_mass=math.sqrt(2.0), n_g=2, n_f=3)

    def test_n_bar_and_special_flag(self):
        ch = Channel.from_kappa(-2, 0.0)
        st = BoundState(channel=ch, energy=1.0, branch="particle", gamma=1.0,
                        effective_mass=math.sqrt(2.0), n_g=0, n_f=None)
        assert st.n_bar == 2.0
        assert st.is_special

    def test_gamma_positive(self):
        ch = Channel.from_kappa(-1, 0.0)
        with pytest.raises(ValueError):
            BoundState(channel=ch, energy=1.0, branch="particle", gamma=0.0,
                       effective_mass=math.sqrt(2.0), n_g=0)


class TestRadialSamples:
    def test_validates_grid(self):
        r = np.array([0.1, 0.2, 0.3])
        g = np.zeros(3)
        with pytest.raises(ValueError):
            RadialSamples(r=np.array([0.0, 0.1, 0.2]), g=g, f=g,
                          node_count_g=0, node_count_f=0)
        with pytest.raises(ValueError):
            RadialSamples(r=r[::-1].copy(), g=g, f=g,
                          node_count_g=0, node_count_f=0)
        with pytest.raises(ValueError):
            RadialSamples(r=r, g=np.zeros(2), f=g,
                          node_count_g=0, node_count_f=0)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_rejects_nonfinite_radii(self, bad):
        # neither r[0] <= 0 nor a step <= 0 holds for NaN, and inf ends an increasing grid
        g = np.zeros(3)
        for r in (np.array([0.1, 0.2, bad]), np.array([bad, 0.1, 0.2])):
            with pytest.raises(ValueError, match="finite"):
                RadialSamples(r=r, g=g, f=g, node_count_g=0, node_count_f=0)


MODULES = [diractensor] + [importlib.import_module(f"diractensor.{info.name}")
                           for info in pkgutil.iter_modules(diractensor.__path__)]


@pytest.mark.parametrize("module", MODULES, ids=lambda module: module.__name__)
def test_every_exported_name_resolves(module):
    # a stale __all__ entry would fail only at ``from module import *``
    exported = getattr(module, "__all__", ())
    assert [name for name in exported if not hasattr(module, name)] == []
