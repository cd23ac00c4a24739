"""Branch-and-bound worst-case optimal join engine and uniform answer sampler."""

from .binary import (
    BitLayout,
    bin_constraints,
    bin_query,
    bin_value,
    debin_row,
    make_layout,
)
from .constraints import (
    ConstraintSet,
    CyclicConstraintsError,
    DegreeConstraint,
    IncompatibleOrderError,
    cardinality_constraints,
    check_compatible,
    compatible_order,
    dependency_graph,
    functional_dependency,
    guard_relations,
    resolve_order,
    validate,
)
from .core import (
    Dictionary,
    JoinQuery,
    Relation,
    encode_instance,
    filter_relation,
    project,
)
from .enumerator import EnumerationStats, wcj, wcj_binarised
from .estimators import (
    EstimatorContext,
    FractionalCover,
    InfeasibleCoverError,
    build_agm_context,
    build_pm_context,
    solve_cover_card,
    solve_cover_degree,
    verify_estimator,
)
from .index import Cursors, bit_width, build
from .oracle import chi_square_uniformity, nested_loop_join, prefix_counts
from .sampler import (
    EmptyAnswerSetError,
    Sampler,
    SamplerStats,
    WorkBudgetError,
    children_values,
    sample_once,
)

__all__ = [name for name in dir() if not name.startswith("_")]
