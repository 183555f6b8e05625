"""Bipartite entanglement measures, convex-roof extensions, and LOCC audits."""

from .linalg import (
    eigh_desc,
    partial_trace,
    partial_transpose,
    reshape_to_coefficient_matrix,
    schmidt,
    schmidt_lambdas,
    trace_norm,
    trace_out,
    transpose_side,
)
from .locc import (
    BranchState,
    InvalidTree,
    LoccNode,
    MonotonicityAudit,
    audit_monotonicity,
    run_tree,
    validate_tree,
)
from .measures import (
    MeasureSpec,
    concurrence_pure,
    decreasing_counterpart,
    entanglement_entropy_pure,
    entanglement_number_pure,
    geometric_measure_alternating,
    geometric_measure_pure,
    make_objective,
    measure_sup,
    measure_value,
    negativity_pure,
    negativity_via_partial_transpose,
    p_number_pure,
    purity_deficit,
    schatten_deficit,
    schmidt_power_deficit,
    von_neumann_entropy,
)
from .roof import (
    Ensemble,
    RoofProblem,
    RoofResult,
    channel_entropy,
    concave_roof,
    ensemble_from_isometry,
    solve_roof,
    solve_roof_custom,
)
from .states import (
    BipartiteDims,
    DensityOperator,
    InvariantViolation,
    PureState,
    SchmidtDecomposition,
)
from .twoqubit import concurrence, entanglement_of_formation

__version__ = "0.1.0"
