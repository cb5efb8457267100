"""Phase-twisted Euler partial products on discs in the critical strip.

Evaluate Dirichlet-series Euler products, approximate non-vanishing analytic
targets by finite twisted partial products via greedy Hilbert-space
steering, and verify the finite checkable pieces: disc-norm identities,
log-factor tail bounds, short-interval prime sums, winding-number zero
counts, and torus volume estimates.
"""

from .analysis import (
    Circle,
    ContourZeroError,
    DiscGrid,
    HypothesisReport,
    RoucheResult,
    SurveyResult,
    disc_error_survey,
    fit_c0,
    hypothesis_sum,
    min_modulus,
    rouche_check,
    zero_count,
)
from .approx import (
    ApproximationProblem,
    ApproximationResult,
    ApproximationStall,
    ApproximationState,
    InvalidProblem,
    PoolExhausted,
    RefineStage,
    RefineStall,
    StepCapReached,
    approximate,
    contract_target,
    greedy_rearrange,
    init_residual,
    product_target,
    refine_sequence,
)
from .factors import (
    BranchTrackingError,
    EulerFactorSpec,
    FactorDomainError,
    HypothesisError,
    LogFactor,
    PhaseAssignment,
    PrimeBlockPartition,
    QUARTER_GRID,
    custom_spec,
    dirichlet_spec,
    eval_factor,
    factor_value,
    hypothesis_window,
    load_custom_spec,
    log_factor,
    log_tail_bound,
    partial_product,
    partial_product_exact,
    partial_product_grid,
    partition_blocks,
    save_custom_spec,
    trivial_phases,
    zeta_spec,
)
from .hardy import (
    ExpPairing,
    H2Element,
    TargetZeroError,
    disc_quadrature,
    exp_pairing_quadrature,
    h2_norm,
    inner_product,
    log_target,
    quadrature_inner_product,
    quadrature_norm,
)
from .primes import primes_up_to
from .torus import (
    EquidistributionResult,
    SlabCheck,
    ball_volume_mc,
    equidistribution_test,
    exact_ball_volume,
    orbit_point,
    slab_bound_check,
    tikhonov_distance,
)

__version__ = "0.1.0"
