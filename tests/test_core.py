import dataclasses
import importlib
import math
import pkgutil

import numpy as np
import pytest

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
