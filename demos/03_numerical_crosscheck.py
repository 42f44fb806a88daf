"""Independent verification: shooting eigensolver vs the closed forms.

The second-order radial equations are solved numerically (a Sturm-count
estimate on a tridiagonal pencil, then Numerov on a log grid with node-count
bisection and matching-defect Newton refinement) with no input from the
analytic spectrum beyond quantum numbers.  The outward integration
of the coupled first-order system then confirms decay at the closed-form
energies and divergence away from them, and brackets the E = M level by
the sign of its tail.
"""

import numpy as np

from diractensor import (
    Channel,
    ModelParams,
    NoBracketError,
    ShootingConfig,
    energy,
    integrate_first_order,
    shoot_eigenvalue,
    solve_bound_level,
    special_state,
)

params = ModelParams(mass=1.0, a=0.0, b=1.0)
channel = Channel.from_kappa(-1)

print("=" * 68)
print("1. Eigenvalues of the upper-component equation, kappa_bar = -1")
print("   (lambda = E^2 - M^2 - b^2 < 0 for every bound state)")
print("=" * 68)
print(f"{'nodes':>5} {'lambda (shooting)':>20} {'E (shooting)':>16} {'E (closed form)':>16}")
for n in range(5):
    res = solve_bound_level(params, channel, "upper", n)
    e_ref = 1.0 if n == 0 else energy(params, channel, n)
    print(f"{res.node_count:>5} {res.lambda_:>20.12f} {res.energy_pair[0]:>16.12f} {e_ref:>16.12f}")
print("the n = 0 line is the special state: lambda = -b^2, E = M exactly")

print()
print("=" * 68)
print("2. Decay diagnostic of the outward first-order integration")
print("=" * 68)
e_exact = energy(params, channel, 1)
for label, e_try in [
    ("closed-form energy", e_exact),
    ("detuned by +1%", e_exact * 1.01),
    ("detuned by -1%", e_exact * 0.99),
]:
    _, report = integrate_first_order(params, channel, e_try)
    print(f"  {label:<22} -> {report.classification:<8} "
          f"(amplitude at r_max / peak = {report.decay_ratio:.2e})")

print()
print("=" * 68)
print("3. Special state: the lower component never turns on, and a level")
print("   lies within 1e-9 of E = M")
print("=" * 68)
edge = special_state(params, channel)
samples, report = integrate_first_order(params, channel, edge.energy, fineness=5e-3)
print(f"  integrated at E = M: max |f| = {float(np.max(np.abs(samples.f)))!r}, "
      f"max |g| = {np.max(np.abs(samples.g)):.4f}  ({report.classification})")
signs = []
for label, side in [("M (1 - 1e-9)", 1.0 - 1e-9), ("M (1 + 1e-9)", 1.0 + 1e-9)]:
    samples, report = integrate_first_order(params, channel, edge.energy * side,
                                            sample_count=2, fineness=0.1)
    signs.append("+" if samples.g[-1] > 0 else "-")
    print(f"  integrated at E = {label}: {report.classification}, tail of g at r_max {signs[-1]}")
flips = "changes" if signs[0] != signs[1] else "does not change"
print(f"the tail {flips} sign across the bracket; it changes across every level")

print()
print("=" * 68)
print("4. Without the constant term (b = 0) nothing binds")
print("=" * 68)
free = ModelParams(mass=1.0, a=0.0, b=0.0)
config = ShootingConfig(
    r_min=1e-6, r_max=60.0, step_count=4000,
    lambda_bracket=(-0.99, -1e-4), tolerance=1e-9,
)
for kappa in (-2, -1, 1, 2):
    ch = Channel.from_kappa(kappa)
    try:
        shoot_eigenvalue(free, ch, "upper", 0, config)
        verdict = "unexpected bound state!"
    except NoBracketError:
        verdict = "no square-integrable state with |E| < M"
    print(f"  kappa = {kappa:+d}: {verdict}")
