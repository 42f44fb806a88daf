"""The closed forms over the whole binding domain, not only the tested grid.

A derandomised property test draws M in [0.1, 10], a in [-3, 3],
|b| in [1e-3, 1e2] (log-uniform, either sign), |kappa| <= 200 and level
index n <= 100, and checks every drawn level for finite values, unit norm by
the independent Gauss rule, the radial-equation residuals on a window scaled
by the decay rate gamma, and the energy window M <= |E| < M*.  Node counts
are not checked here: sampling deep levels needs a box and a density of its
own.
"""

import math
import warnings

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from diractensor import (
    Channel,
    ModelParams,
    bound_state,
    bound_states_exist,
    norm_quadrature,
    special_state,
    state_wavefunctions,
)
from diractensor.analytic import residuals
from diractensor.core import box_radius


@st.composite
def levels(draw):
    mass = draw(st.floats(0.1, 10.0))
    a = draw(st.floats(-3.0, 3.0))
    b = draw(st.sampled_from([1.0, -1.0])) * 10.0 ** draw(st.floats(-3.0, 2.0))
    magnitude = draw(st.integers(1, 200))
    params = ModelParams(mass, a, b)
    # b > 0 binds kappa_bar < -1/2, b < 0 binds kappa_bar > 1/2
    channel = Channel.from_kappa(-magnitude if b > 0 else magnitude, a)
    assume(bound_states_exist(params, channel))
    level = draw(st.integers(0, 100))
    if level == 0:
        return params, special_state(params, channel)
    n_g = level if channel.kappa_bar < 0 else level - 1
    branch = draw(st.sampled_from(["particle", "antiparticle"]))
    return params, bound_state(params, channel, n_g, branch)


@settings(derandomize=True, max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(levels())
def test_closed_forms_hold_over_the_binding_domain(level):
    params, state = level
    assert params.mass <= abs(state.energy) < params.effective_mass
    gamma = state.gamma
    r = np.geomspace(0.01 / gamma, box_radius(gamma, abs(params.b * state.channel.kappa_bar) / gamma, 30.0), 200)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        forms = state_wavefunctions(params, state)
        for form in forms:
            for values in (form(r), *form.derivatives(r)):
                assert np.all(np.isfinite(values))
        norm = norm_quadrature(*forms)
        residual = residuals(params, state, forms, r)
    assert math.isfinite(norm) and abs(norm - 1.0) <= 1e-12
    assert residual < 1e-8
