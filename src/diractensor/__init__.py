"""Bound states of the Dirac equation with a radial tensor potential a/r + b.

Closed-form spectra and radial wavefunctions for every binding channel,
together with an independent shooting eigensolver used to verify them.
"""

from .core import (
    BRANCH_SIGN,
    BoundState,
    Branch,
    Channel,
    Component,
    ModelParams,
    RadialSamples,
    UnboundChannelError,
    bound_states_exist,
    n_bar,
)
from .special import LaguerreSpec, gauss_laguerre
from .analytic import (
    WavefunctionForm,
    bound_state,
    charge_conjugate,
    default_radial_grid,
    energy,
    nonrelativistic_binding,
    norm_quadrature,
    sample_state,
    special_state,
    spectrum,
    state_wavefunctions,
    wavefunctions,
)
from .oracle import (
    ConvergenceError,
    EigenResult,
    IntegrationReport,
    NoBracketError,
    NodeMismatchError,
    ShootingConfig,
    ShootingError,
    count_sign_changes,
    integrate_first_order,
    shoot_eigenvalue,
    solve_bound_level,
)

__version__ = "0.1.0"
