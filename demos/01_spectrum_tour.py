"""Tour of the bound spectrum of the tensor potential U(r) = a/r + b.

Which channels bind, how the levels fill the window M <= |E| < sqrt(M^2+b^2),
and why states with equal |kappa_bar| / n_bar are exactly degenerate.
Natural units, hbar = c = 1, and M = 1 throughout.
"""

import numpy as np

from diractensor import (
    Channel,
    ModelParams,
    bound_states_exist,
    energy,
    kappa_range,
    spectrum,
)

params = ModelParams(mass=1.0, a=0.0, b=1.0)

print("=" * 64)
print("1. Binding condition: b * kappa_bar < 0 and |kappa_bar| > 1/2")
print("=" * 64)
print(f"with a = {params.a}, b = {params.b} the admissible channels are")
print("  ", kappa_range(params).describe())
for kappa in (-3, -2, -1, 1, 2, 3):
    ch = Channel.from_kappa(kappa, params.a)
    tag = "binds" if bound_states_exist(params, ch) else "does not bind"
    print(f"  kappa = {kappa:+d}  (j = {ch.j}, ell = {ch.ell_upper}, "
          f"{'aligned' if ch.spin_aligned else 'anti-aligned'}):  {tag}")

print()
print("=" * 64)
print("2. The first levels of each aligned channel (E/M)")
print("=" * 64)
table = spectrum(params, range(-4, 0), n_max=4)  # columns: one list per field
print(f"{'kappa':>6} {'n_g':>4} {'n_bar':>6} {'E/M':>18}  note")
for kappa, n_g, nb, e_over_m, special in zip(
    table["kappa"], table["n_g"], table["n_bar"], table["e_over_m"], table["is_special"]
):
    note = "special |E| = M, zero lower component" if special else ""
    print(f"{kappa:>6} {str(n_g):>4} {nb:>6.1f} {e_over_m:>18.15f}  {note}")

print()
print("every |E| sits strictly below the effective mass "
      f"M* = sqrt(1 + b^2) = {params.effective_mass:.15f}")

print()
print("=" * 64)
print("3. Degeneracy: |E| depends on kappa_bar and n_g only through")
print("   the ratio |kappa_bar| / n_bar,  n_bar = n_g + 1/2 + |1/2 + kappa_bar|")
print("=" * 64)
pairs = [(-1, 1), (-2, 2), (-3, 3), (-4, 4)]
print("the ratio is 1/2 for all of these, so one energy serves them all:")
for kappa, n_g in pairs:
    e = energy(params, Channel.from_kappa(kappa), n_g)
    print(f"  kappa_bar = {kappa:+d}, n_g = {n_g}:  E = {e!r}")

print()
print("=" * 64)
print("4. Only kappa_bar = kappa + a matters, not the split")
print("=" * 64)
shifted = ModelParams(mass=1.0, a=2.0, b=1.0)
e_plain = energy(params, Channel.from_kappa(-1, 0.0), 1)
e_shift = energy(shifted, Channel.from_kappa(-3, 2.0), 1)
print(f"  (kappa = -1, a = 0)  ->  E = {e_plain!r}")
print(f"  (kappa = -3, a = 2)  ->  E = {e_shift!r}")
print(f"  identical: {e_plain == e_shift}")
