"""Oblique projections, reduced solutions and minimal-seminorm interpolants
for positive semidefinite weights on finite-dimensional spaces.

The package turns the geometry of a PSD weight ``A`` and a subspace ``S``
into executable, property-tested operations: the weight-Hermitian
projection family onto ``S`` with its minimal member, reduced solutions of
``A X = B``, the Hilbert structure on the range of ``A^{1/2}`` with its
canonical chart projection and operator extensions, and weighted
least-squares interpolants with singular weights.
"""

from .errors import (
    DimensionMismatch,
    Error,
    Incompatible,
    InconsistentDiagnostics,
    NoSolution,
    NotExtendable,
    NotInRange,
    NotPsd,
    PreconditionError,
    RangeMismatch,
    Singular,
    WeightMismatch,
)
from .linalg import (
    DEFAULT_TOL,
    ObliqueProjection,
    PsdOperator,
    Subspace,
    Tolerance,
    complement,
    contains,
    intersect,
    moore_penrose,
    nullspace_of,
    numerical_rank,
    spectral_norm,
    subspace_equal,
    subspace_from_span,
    subspace_sum,
)
from .douglas import (
    ReducedSolution,
    least_squares_solution,
    minimal_lambda,
    range_inclusion,
    reduced_solution,
)
from .oblique import (
    BlockDecomposition,
    CompatibilityReport,
    block_decompose,
    chain_respects_implications,
    compatibility_diagnostics,
    degenerate_overlap,
    is_compatible,
    is_weight_hermitian,
    projection_family_member,
    weighted_projection,
    weighted_projection_invertible,
    weighted_projection_pinv,
)
from .oprange import (
    RangeSpaceProjection,
    RangeVector,
    chart_basis,
    chart_coords,
    chart_extension,
    in_weight_range,
    is_chart_extendable,
    lift,
    range_inner,
    range_norm,
    range_space_projection,
    unchart,
)
from .interpolant import (
    SplineResult,
    seminorm,
    spline,
    spline_by_normal_equations,
    spline_with_weight,
)

__version__ = "0.1.0"
