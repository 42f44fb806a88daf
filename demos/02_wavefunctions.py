"""Radial wavefunctions: closed forms, normalization, nodes, special states.

Both components come out as (2 gamma r)^((alpha+1)/2) e^(-gamma r)
L_n^(alpha)(2 gamma r), evaluated as amplitude * sqrt(x) * psi_n^(alpha)(x),
x = 2 gamma r, with psi the orthonormal Laguerre function; the pair is
normalized to unit total probability.  The nodeless edge states
pin |E| = M exactly and lose one component identically.
"""

import numpy as np

from diractensor import (
    Channel,
    ModelParams,
    bound_state,
    norm_quadrature,
    sample_state,
    special_state,
    state_wavefunctions,
    wavefunctions,
)
from diractensor.analytic import default_radial_grid

params = ModelParams(mass=1.0, a=0.0, b=1.0)
channel = Channel.from_kappa(-2)

print("=" * 64)
print("1. A regular level: kappa_bar = -2, n_g = 2")
print("=" * 64)
state = bound_state(params, channel, 2)
g_form, f_form = wavefunctions(params, channel, 2)
print(f"E = {state.energy!r}, decay rate gamma = {state.gamma!r}")
for name, form in (("g", g_form), ("f", f_form)):
    spec = form.laguerre
    print(f"{name}: amplitude {form.amplitude:+.6f} * sqrt(x) * psi_{spec.degree}^({spec.order})(x)"
          f"  ~  (2 g r)^{(spec.order + 1) / 2} * exp(-g r) * L_{spec.degree}^({spec.order})")
print(f"unit norm check (Gauss-Laguerre): {norm_quadrature(g_form, f_form)!r}")

samples = sample_state(params, state, default_radial_grid(state, 2000))
print(f"node counts: g has {samples.node_count_g} (expect n_g = 2), "
      f"f has {samples.node_count_f} (expect n_f = n_g - 1 = 1)")

print()
print("=" * 64)
print("2. The special state: n_g = 0, kappa_bar < -1/2, b > 0")
print("=" * 64)
edge = special_state(params, channel)
ge, fe = state_wavefunctions(params, edge)
print(f"E = {edge.energy!r}  (exactly M), gamma = |b| = {edge.gamma!r}")
print(f"g ~ r^{(ge.laguerre.order + 1) / 2} e^-|b|r  (nodeless), lower component amplitude = {fe.amplitude!r}")
print("any admissible kappa_bar < -1/2 gives the same energy: infinite degeneracy")

print()
print("=" * 64)
print("3. The mirror family: kappa_bar > 1/2 needs b < 0")
print("=" * 64)
mirror_params = ModelParams(mass=1.0, a=0.0, b=-1.0)
mirror = special_state(mirror_params, Channel.from_kappa(2))
gm, fm = state_wavefunctions(mirror_params, mirror)
print(f"E = {mirror.energy!r}  (exactly -M), zero upper component: amplitude = {gm.amplitude!r}")
print(f"f ~ r^{(fm.laguerre.order + 1) / 2} e^-|b|r with n_f = {mirror.n_f}")

print()
print("=" * 64)
print("4. Sampled profile of the kappa_bar = -1, n_g = 1 level")
print("=" * 64)
st = bound_state(params, Channel.from_kappa(-1), 1)
r = np.linspace(0.4, 12.0, 30)
s = sample_state(params, st, r)
print(f"{'r':>6} {'g(r)':>12} {'f(r)':>12}")
for rr, gg, ff in zip(s.r[::3], s.g[::3], s.f[::3]):
    bar = "#" * int(44 * abs(gg) / np.max(np.abs(s.g)))
    print(f"{rr:>6.2f} {gg:>12.6f} {ff:>12.6f}  {bar}")
