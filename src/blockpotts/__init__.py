"""Block spin Potts model toolkit.

Exact Gibbs computations for small systems, a heat-bath sampler for large
ones, large-deviation rate functions and their maximizers, the closed-form
phase transition for uniform blocks, and verification of explicit
log-Sobolev constants and concentration bounds.
"""

__version__ = "0.1.0"

from .equilibria import (
    EquilibriumReport,
    Phase,
    SearchOptions,
    classify_phase,
    critical_residual,
    critical_temperature,
    equilibrium_matrices,
    gradient_G,
    maximize_G,
    phi,
    potts_fixed_point_u,
    structure_certificate,
    two_column_landscape,
    two_column_matrix,
)
from .errors import (
    CapacityError,
    ConditionNotMetError,
    InvalidInputError,
    NonConvergenceError,
)
from .exact import (
    ConfigurationDistribution,
    ExactDistribution,
    count_matrix_support,
    enumerate_block_compositions,
    exact_distribution,
    exact_observable_distribution,
    full_configuration_distribution,
)
from .glauber import ChainSummary, run_chain, tail_estimate
from .lsi import (
    ConfigWorkspace,
    LsiConstants,
    LsiSuiteReport,
    asymptotic_constants,
    concentration_report,
    entropy_functional,
    gamma1_exact,
    gamma1_floor,
    gamma2_asymptotic,
    interdependence_matrix_exact,
    lsi_condition,
    lsi_constants,
    matrix_norms,
    verify_lsi_suite,
)
from .model import (
    BlockStructure,
    ModelParams,
    count_matrix,
    interaction_field,
    interaction_form,
    model_to_json,
)
from .rates import (
    RateEvaluation,
    free_energy_G,
    potts_functional,
    rate_I,
    rate_J,
    rate_J_prime,
    relative_entropy,
)
