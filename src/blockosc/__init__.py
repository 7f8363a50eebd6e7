"""Barrier combinatorics, block norms, and limit models over exact rationals.

The package works entirely at desk scale: infinite objects (ground sets,
barriers, limit norms) are represented by closed descriptors, and every
reported number is a Fraction.
"""

from .barriers import (
    Associated,
    BarrierDescriptor,
    Cube,
    Quotient,
    Restrict,
    RankResult,
    Schreier,
    Sum,
    check_axioms,
    contains,
    empirical_rank,
    enumerate_up_to,
    front,
    rank,
    sperner_violations,
)
from .blocks import (
    Block,
    BlockFamily,
    block_compare,
    block_sort_key,
    enumerate_blocks,
    from_concat,
    to_concat,
)
from .errors import (
    InsufficientBlocksError,
    InvalidArgumentError,
    NoFrontFoundError,
    NotInSumError,
    NotStabilizedError,
    SchemaError,
)
from .models import (
    BarrierSequenceDescriptor,
    ModelValue,
    Section6Report,
    consistency_check,
    eights_sequence,
    equivalence_constants,
    model_eval,
    spreading_check,
    two_two_eights_sequence,
    verify_section6,
)
from .normspace import (
    LpNorm,
    NormSpec,
    SupFamily,
    SupNorm,
    SupTerm,
    Vector,
    check_seminorm_axioms,
    degenerate_limit_demo,
    dk_distance,
    even_pair_fixture,
    mn_norm_spec,
    nonneg_grid,
    norm_eval,
    norm_eval_detailed,
    section6_spec,
    signed_grid,
    spec_evaluator,
)
from .closedform import (
    eights_block_value,
    flat_norm_sorted,
    model_value_8,
    model_value_228,
    pair_pair_eight_block_value,
    tail_reduced_block_value,
    two_pair_block_value,
)
from .ordinals import AT_LEAST_OMEGA_OMEGA, OrdinalCNF
from .oscillation import (
    AsymptoticReport,
    OscillationReport,
    StableSubsequenceResult,
    ToleranceSchedule,
    asymptotic_stability_check,
    find_stable_subsequence,
    oscillation_gap,
    psi_eval,
)
from .ramsey import (
    Coloring,
    DiagonalReport,
    MetricResult,
    MonochromeWitness,
    RamseyResult,
    builtin_coloring,
    diagonal_stabilize,
    find_monochromatic,
    metric_stabilize,
)
from .sets import (
    Arithmetic,
    CofiniteAfter,
    FiniteSet,
    PrefixThen,
    SetGenerator,
    evens,
    lex_key,
    naturals,
    odds,
)

__version__ = "0.1.0"
