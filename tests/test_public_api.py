"""Snapshot of the public surface: adding or removing a public name changes
this file, so the change shows up in review."""

import types

import obliqueproj
from obliqueproj import PsdOperator, RangeSpaceProjection, linalg

PACKAGE = [
    "BlockDecomposition",
    "CompatibilityReport",
    "DEFAULT_TOL",
    "DimensionMismatch",
    "Error",
    "Incompatible",
    "InconsistentDiagnostics",
    "NoSolution",
    "NotExtendable",
    "NotInRange",
    "NotPsd",
    "ObliqueProjection",
    "PreconditionError",
    "PsdOperator",
    "RangeMismatch",
    "RangeSpaceProjection",
    "RangeVector",
    "ReducedSolution",
    "Singular",
    "SplineResult",
    "Subspace",
    "Tolerance",
    "WeightMismatch",
    "block_decompose",
    "chain_respects_implications",
    "chart_basis",
    "chart_coords",
    "chart_extension",
    "compatibility_diagnostics",
    "complement",
    "contains",
    "degenerate_overlap",
    "in_weight_range",
    "intersect",
    "is_chart_extendable",
    "is_compatible",
    "is_weight_hermitian",
    "least_squares_solution",
    "lift",
    "minimal_lambda",
    "moore_penrose",
    "nullspace_of",
    "numerical_rank",
    "projection_family_member",
    "range_inclusion",
    "range_inner",
    "range_norm",
    "range_space_projection",
    "reduced_solution",
    "seminorm",
    "spectral_norm",
    "spline",
    "spline_by_normal_equations",
    "spline_with_weight",
    "subspace_equal",
    "subspace_from_span",
    "subspace_sum",
    "unchart",
    "weighted_projection",
    "weighted_projection_invertible",
    "weighted_projection_pinv",
]

MEMBERS = {
    PsdOperator: ["dim", "from_matrix", "null_subspace", "range_proj", "range_subspace", "sqrt"],
    RangeSpaceProjection: [
        "apply",
        "complement_density",
        "coord_matrix",
        "decompositions",
        "extension",
        "extension_matches",
        "induced",
        "null_image",
        "projected_range",
        "range_image",
        "weight",
        "weight_image",
    ],
}

LINALG = [
    "DEFAULT_TOL",
    "ObliqueProjection",
    "PsdOperator",
    "Subspace",
    "Tolerance",
    "as_matrix",
    "as_vector",
    "complement",
    "contains",
    "intersect",
    "moore_penrose",
    "nullspace_of",
    "numerical_rank",
    "spectral_norm",
    "subspace_equal",
    "subspace_from_span",
    "subspace_sum",
]


def test_package_names():
    # Submodules are left out: they become attributes of the package only
    # once something imports them.
    names = sorted(
        name
        for name, value in vars(obliqueproj).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == PACKAGE


def test_linalg_all():
    assert sorted(linalg.__all__) == LINALG
    assert all(hasattr(linalg, name) for name in linalg.__all__)


def test_class_members():
    # the public methods and derived fields of the weight and the chart
    for cls, members in MEMBERS.items():
        assert sorted(name for name in vars(cls) if not name.startswith("_")) == members
