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
    KappaRange,
    ModelParams,
    RadialSamples,
    UnboundChannelError,
    ZeroKappaBarError,
    bound_states_exist,
    kappa_range,
)
from .special import (
    LaguerreSpec,
    gauss_laguerre,
    laguerre,
    laguerre_derivative,
    laguerre_second_derivative,
    laguerre_weighted_norm,
    log_gamma,
)
from .analytic import (
    ConjugationPair,
    ConjugationReport,
    SingularCoulombMap,
    SpectrumRow,
    WavefunctionForm,
    bound_state,
    charge_conjugate,
    conjugation_report,
    decay_rate,
    default_radial_grid,
    energy,
    map_to_singular_coulomb,
    n_bar,
    no_bound_states,
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
    count_nodes,
    count_sign_changes,
    default_shooting_config,
    effective_potential,
    integrate_first_order,
    shoot_eigenvalue,
    solve_bound_level,
)

__version__ = "0.1.0"
