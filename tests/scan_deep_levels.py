"""Deep-level scans of the Numerov oracle against the closed forms.

Each scan shoots ``solve_bound_level(params, channel, "upper", n)`` on its
levels and compares |E| with ``bound_state``'s, skipping channels that do not
bind and the |E| = M edge levels.  A level passes at |dE| <= 1e-7 (verify's
gate), misses silently above it, or raises: a ``ShootingError`` is typed,
anything else untyped.

* ``probe``: M = 1; sign of b +/-1; log10 |b| uniform on [-3, 3]; a uniform
  on [-2, 2]; kappa = +/-round(10^u), u uniform on [0, 2]; n = floor(10^v) - 1,
  v uniform on [0, 2]; numpy ``default_rng`` seeds 1-5, 300 draws each, drawn
  one draw at a time in that order.  ``tests/test_oracle.py`` runs it as a
  ratchet.
* ``wide``: b in +/-{0.01, 0.3, 3, 300}, a in {-0.45, 0, 0.7}, kappa in
  +/-{1, 2, 4, 12, 60}, n in {0, 9, ..., 99, 110, 130, 160}.

Run from the repository root (each scan takes a few seconds)::

    PYTHONPATH=src python tests/scan_deep_levels.py [probe] [wide]

It prints, per scan, the levels, the pass / silent / typed / untyped counts,
the Numerov sweeps and Newton steps of the levels that returned, and the
pencil points of every solve; then the levels shot more than once (re-boxed)
and the levels that returned from a pencil built twice (more pencil points
than the one build of 120 + 12 n).
"""

from __future__ import annotations

import math
import sys
import time
from collections import Counter

import numpy as np

from diractensor import (Channel, ModelParams, ShootingError, bound_state, bound_states_exist,
                         oracle, solve_bound_level)

GATE = 1e-7


def _binding_levels(draws):
    """(key, params, channel, n) of the draws (key, M, a, b, kappa, n) that
    bind and are not edge levels, with their closed-form |E|."""
    for key, mass, a, b, kappa, n in draws:
        params, channel = ModelParams(mass, a, b), Channel.from_kappa(kappa, a)
        if not bound_states_exist(params, channel):
            continue
        state = bound_state(params, channel, n)
        if not state.is_special:
            yield key, params, channel, n, abs(state.energy)


def probe_levels():
    """Item 14's probe of the ROADMAP: keys (seed, draw index)."""
    def draws():
        for seed in range(1, 6):
            rng = np.random.default_rng(seed)
            for i in range(300):
                b_sign = float(rng.choice([-1.0, 1.0]))
                log_b = rng.uniform(-3.0, 3.0)
                a = rng.uniform(-2.0, 2.0)
                kappa_sign = float(rng.choice([-1.0, 1.0]))
                u = rng.uniform(0.0, 2.0)
                v = rng.uniform(0.0, 2.0)
                yield ((seed, i), 1.0, float(a), b_sign * 10.0**log_b,
                       int(kappa_sign * round(10.0**u)), int(math.floor(10.0**v)) - 1)
    return list(_binding_levels(draws()))


def wide_levels():
    """The wide scan: keys (b, a, kappa, n)."""
    ns = [*range(0, 100, 9), 110, 130, 160]
    draws = (((b, a, kappa, n), 1.0, a, b, kappa, n)
             for b in (0.01, 0.3, 3.0, 300.0, -0.01, -0.3, -3.0, -300.0)
             for a in (-0.45, 0.0, 0.7)
             for kappa in (1, 2, 4, 12, 60, -1, -2, -4, -12, -60)
             for n in ns)
    return list(_binding_levels(draws))


def classify(params, channel, n, expected):
    """("pass" | "silent" | "typed" | "untyped", the solve or the exception)."""
    try:
        result = solve_bound_level(params, channel, "upper", n)
    except ShootingError as exc:
        return "typed", exc
    except Exception as exc:  # the scan counts what a typed error should have been
        return "untyped", exc
    return ("pass" if abs(result.energy_pair[0] - expected) <= GATE else "silent"), result


def scan(levels) -> dict:
    """Outcome per key, the totals of the solves that returned, and the
    counts of levels shot more than once and of pencils built twice."""
    outcomes, work, shots = {}, Counter(), []
    shoot = oracle.shoot_eigenvalue

    def counted(*args):
        shots.append(args)
        return shoot(*args)

    oracle.shoot_eigenvalue = counted  # solve_bound_level calls it by this name
    try:
        for key, params, channel, n, expected in levels:
            shots.clear()
            outcome, detail = classify(params, channel, n, expected)
            outcomes[key] = outcome
            work["reshot"] += len(shots) > 1
            if not isinstance(detail, Exception):
                work.update(sweeps=detail.sweeps, newton_steps=detail.newton_steps,
                            pencil_points=detail.pencil_points)
                one_build = oracle._PENCIL_BASE + oracle._PENCIL_PER_NODE * n
                work["rebuilt"] += detail.pencil_points > one_build
    finally:
        oracle.shoot_eigenvalue = shoot
    return {"outcomes": outcomes, "work": work}


def main(argv) -> int:
    scans = {"probe": probe_levels, "wide": wide_levels}
    for name in argv or list(scans):
        start = time.perf_counter()
        result = scan(scans[name]())
        counts = Counter(result["outcomes"].values())
        work = result["work"]
        print(f"{name}: {len(result['outcomes'])} levels, "
              + " / ".join(f"{counts[o]} {o}" for o in ("pass", "silent", "typed", "untyped"))
              + f"; {work['sweeps']} sweeps, {work['newton_steps']} Newton steps, "
              f"{work['pencil_points']} pencil points; {work['reshot']} levels shot more than "
              f"once, {work['rebuilt']} pencils built twice; {time.perf_counter() - start:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
