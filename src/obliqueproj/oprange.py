"""The Hilbert structure carried by the range of the weight's square root.

The range ``R(A^{1/2})`` carries an inner product making ``A^{1/2}`` a
coisometry: the norm of ``u`` is the norm of its minimal-norm preimage
(the *witness* ``w = (A^{1/2})^+ u``, orthogonal to the nullspace).  In
finite dimension this range space is realized isometrically by witness
coordinates in the eigenbasis of the weight, so the exotic inner product
becomes the ordinary one and all identities become plain matrix identities.

In that chart live the canonical orthogonal projection onto the image of S
(which exists whether or not the pair is compatible), and the extensions of
ambient operators that leave the weight's nullspace invariant.  The module
exposes both, plus the identities tying them to the weighted projection:
the extension of the weighted projection *is* the chart projection, and the
chart projection maps the weight's range onto the image of S exactly when
the pair is compatible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InconsistentDiagnostics, NotExtendable, NotInRange, WeightMismatch
from .linalg import (
    DEFAULT_TOL,
    PsdOperator,
    Subspace,
    Tolerance,
    as_matrix,
    as_vector,
    complement,
    intersect,
    subspace_equal,
    subspace_from_span,
    subspace_sum,
)
from .oblique import _cross, _equal_in_range, _split_range, _sqrt_image
from .oblique import is_compatible, weighted_projection


@dataclass(frozen=True)
class RangeVector:
    """A vector of the weight's range with its membership certificate.

    ``witness`` is the unique preimage of ``ambient`` under ``A^{1/2}``
    that is orthogonal to the nullspace; its Euclidean norm is the range
    space norm of ``ambient``.
    """

    weight: PsdOperator
    ambient: np.ndarray
    witness: np.ndarray


def in_weight_range(weight: PsdOperator, u, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Membership test against R(A)."""
    u = as_vector(u, weight.dim)
    gap = u - weight.range_proj @ u
    return float(np.linalg.norm(gap)) <= tol.eq_abs * (1.0 + float(np.linalg.norm(u)))


def lift(weight: PsdOperator, u, tol: Tolerance = DEFAULT_TOL) -> RangeVector:
    """Certify ``u`` as a member of the range space and attach its witness.

    Raises
    ------
    NotInRange
        If ``u`` is farther from R(A) than ``eq_abs * (1 + ||u||)``.
    """
    u = as_vector(u, weight.dim)
    if not in_weight_range(weight, u, tol):
        raise NotInRange("the vector is not in the range of the weight within tolerance")
    vr = chart_basis(weight)
    return RangeVector(weight, u, vr @ ((vr.T @ u) / _root(weight)))


def range_inner(x: RangeVector, y: RangeVector) -> float:
    """Range-space inner product: plain inner product of the witnesses."""
    if x.weight is not y.weight and not np.array_equal(x.weight.base, y.weight.base):
        raise WeightMismatch("range vectors are governed by different weights")
    return float(x.witness @ y.witness)


def range_norm(x: RangeVector) -> float:
    """Range-space norm, the minimum norm over all preimages."""
    return float(np.linalg.norm(x.witness))


def chart_basis(weight: PsdOperator) -> np.ndarray:
    """Orthonormal ambient basis of the chart (leading eigenvectors)."""
    return weight.eigvecs[:, : weight.rank]


def _root(weight: PsdOperator) -> np.ndarray:
    # Λ^{1/2}: in the chart, A^{1/2} acts as the diagonal of these values.
    return np.sqrt(weight.eigvals[: weight.rank])


def chart_coords(weight: PsdOperator, u, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Chart coordinates of a range vector (length = rank of the weight)."""
    return chart_basis(weight).T @ lift(weight, u, tol).witness


def chart_image(weight: PsdOperator, columns, tol: Tolerance = DEFAULT_TOL) -> Subspace:
    """Chart image of the span of given ambient range vectors."""
    cols = as_matrix(columns, rows=weight.dim)
    coords = (chart_basis(weight).T @ cols) / _root(weight)[:, None]
    return subspace_from_span(coords, tol)


def unchart(weight: PsdOperator, coords) -> np.ndarray:
    """Ambient range vector represented by chart coordinates."""
    coords = as_vector(coords, weight.rank)
    return weight.sqrt @ (chart_basis(weight) @ coords)


@dataclass(frozen=True)
class RangeSpaceProjection:
    """The orthogonal projection, in the chart, onto the image of a subspace.

    ``coord_matrix`` is symmetric idempotent (orthogonality in the range
    space equals symmetry in the witness chart); ``range_image`` is the
    chart image of ``A^{1/2}(S)`` and ``null_image`` its orthocomplement,
    the chart image of ``S^perp ∩ R(A^{1/2})``.
    """

    weight: PsdOperator
    target: Subspace
    coord_matrix: np.ndarray
    range_image: Subspace
    null_image: Subspace

    def apply(self, x: RangeVector) -> RangeVector:
        """Project a certified range vector; the result lies in the image of S."""
        if x.weight is not self.weight and not np.array_equal(
            x.weight.base, self.weight.base
        ):
            raise WeightMismatch("the range vector is governed by a different weight")
        vr = chart_basis(self.weight)
        witness = vr @ (self.coord_matrix @ (vr.T @ x.witness))
        return RangeVector(self.weight, self.weight.sqrt @ witness, witness)


def range_space_projection(
    weight: PsdOperator, span: Subspace, tol: Tolerance = DEFAULT_TOL
) -> RangeSpaceProjection:
    """The chart-orthogonal projection onto the closure of the image of S.

    Exists for every pair, compatible or not.  The chart image of the
    target is spanned by the coordinates of ``A^{1/2} S``, which are
    ``Λ^{1/2} C`` with ``C = V_r^T B_S``.
    """
    image = _sqrt_image(weight, _cross(weight, span), tol)
    return RangeSpaceProjection(
        weight=weight,
        target=span,
        coord_matrix=image.projector(),
        range_image=image,
        null_image=complement(image),
    )


def is_chart_extendable(weight: PsdOperator, operator, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Whether an ambient operator extends to the chart: it maps N(A) into N(A).

    The other extension condition, ``R(B^T A^{1/2}) ⊆ R(A^{1/2})``, holds
    for every operator in finite dimension and is not evaluated.
    """
    b = as_matrix(operator, rows=weight.dim, cols=weight.dim)
    image_of_null = b @ weight.null_subspace.basis
    scale = 1.0 + float(np.linalg.norm(image_of_null))
    return float(np.linalg.norm(weight.range_proj @ image_of_null)) <= tol.eq_abs * scale


def chart_extension(
    weight: PsdOperator, operator, tol: Tolerance = DEFAULT_TOL
) -> np.ndarray:
    """Chart matrix of the operator induced on the range space.

    The induced operator ``C`` satisfies ``C . chart(A x) = chart(A B x)``
    for every ``x`` and is the unique chart operator doing so.  Realized as
    ``A^{1/2} B (A^{1/2})^+`` in chart coordinates,
    ``Λ^{1/2} (V_r^T B V_r) Λ^{-1/2}``.

    Raises
    ------
    NotExtendable
        If the operator does not leave the nullspace of the weight invariant.
    """
    b = as_matrix(operator, rows=weight.dim, cols=weight.dim)
    if not is_chart_extendable(weight, b, tol):
        raise NotExtendable("the operator does not map the weight's nullspace into itself")
    vr, root = chart_basis(weight), _root(weight)
    return root[:, None] * (vr.T @ b @ vr) / root


def extension_matches_projection(
    weight: PsdOperator, span: Subspace, tol: Tolerance = DEFAULT_TOL
) -> bool:
    """Whether the extension of the weighted projection is the chart projection.

    True for every compatible pair; this is the bridge identity between the
    ambient oblique picture and the range-space orthogonal picture.
    Propagates ``Incompatible`` from the projection construction.
    """
    extended = chart_extension(weight, weighted_projection(weight, span, tol).matrix, tol)
    return _extension_matches(extended, range_space_projection(weight, span, tol), tol)


def _extension_matches(extended: np.ndarray, proj: RangeSpaceProjection, tol: Tolerance) -> bool:
    scale = 1.0 + float(np.linalg.norm(proj.coord_matrix))
    return float(np.linalg.norm(extended - proj.coord_matrix)) <= 10.0 * tol.eq_abs * scale


def chart_projected_range(
    weight: PsdOperator, span: Subspace, tol: Tolerance = DEFAULT_TOL
) -> tuple[Subspace, bool]:
    """Image of R(A) under the chart projection, mapped back to ambient space.

    Returns the subspace and whether it equals ``A(S)``; the equality holds
    exactly when the pair is compatible.  Both are compared in chart
    coordinates: the image is ``Λ^{1/2}`` applied to the chart image of S,
    and ``A(S)`` is ``V_r R(Λ C)`` (rank cutoff anchored at ``λ_1``).
    """
    return _projected_range(range_space_projection(weight, span, tol), tol)


def _projected_range(proj: RangeSpaceProjection, tol: Tolerance) -> tuple[Subspace, bool]:
    weight = proj.weight
    image = subspace_from_span(_root(weight)[:, None] * proj.range_image.basis, tol)
    target = Subspace(weight.rank, _split_range(weight, _cross(weight, proj.target), tol)[0])
    ambient = Subspace(weight.dim, chart_basis(weight) @ image.basis)
    return ambient, _equal_in_range(image, target, weight.dim, tol)


def induced_projection(
    weight: PsdOperator, span: Subspace, tol: Tolerance = DEFAULT_TOL
) -> np.ndarray:
    """The ambient idempotent obtained by conjugating the chart projection.

    Composes the inverse of the weight on its range, the chart projection
    and the weight; requires (and, in finite dimension, automatically has)
    the chart projection mapping R(A) into R(A).  For a compatible pair it
    equals the range projector times the weighted projection.  Formed as
    ``V_r Λ^{-1/2} P Λ^{1/2} V_r^T`` from the chart projection ``P``.
    """
    return _induced(range_space_projection(weight, span, tol))


def _induced(proj: RangeSpaceProjection) -> np.ndarray:
    vr, root = chart_basis(proj.weight), _root(proj.weight)
    return (vr / root) @ proj.coord_matrix @ (root[:, None] * vr.T)


def complement_density_check(
    weight: PsdOperator, span: Subspace, tol: Tolerance = DEFAULT_TOL
) -> bool:
    """Two equivalent density statements about ``S^perp ∩ R(A)`` in the chart.

    The closure of ``S^perp ∩ R(A)`` fills the orthocomplement of the image
    of S exactly when ``A(S) + S^perp ∩ R(A)`` is dense in the range space;
    in finite dimension density means equality and both sides are evaluated
    as chart-subspace identities.

    Raises
    ------
    InconsistentDiagnostics
        If the two equivalent statements disagree numerically.
    """
    return _complement_density(range_space_projection(weight, span, tol), tol)


def _complement_density(proj: RangeSpaceProjection, tol: Tolerance) -> bool:
    perp_meet_range = intersect(complement(proj.target), proj.weight.range_subspace, tol)
    chart_perp = chart_image(proj.weight, perp_meet_range.basis, tol)
    closure_fills = subspace_equal(chart_perp, proj.null_image, tol)
    total = subspace_sum(proj.range_image, chart_perp, tol)
    sum_dense = total.dim == proj.weight.rank
    if closure_fills != sum_dense:
        raise InconsistentDiagnostics("the closure identity and the dense-sum identity disagree")
    return closure_fills


def compatibility_decompositions(
    weight: PsdOperator, span: Subspace, tol: Tolerance = DEFAULT_TOL
) -> tuple[bool, bool, bool]:
    """Three equivalent decomposition conditions for compatibility.

    i) the block criterion; ii) ``R(A^{1/2})`` splits into the sqrt image of
    S plus its orthocomplement within the range; iii) ``R(A)`` splits into
    ``A(S)`` plus ``S^perp ∩ R(A)``, with ``A(S)`` closed inside ``R(A)``.
    All three agree, and agree with :func:`is_compatible`, on every
    well-conditioned input.
    """
    rng = weight.range_subspace
    first = is_compatible(weight, span, tol)
    scale = float(weight.eigvals[0]) if weight.eigvals.size else 0.0

    chart = _sqrt_image(weight, _cross(weight, span), tol)
    image_sqrt = Subspace(weight.dim, chart_basis(weight) @ chart.basis)
    split_sqrt = subspace_sum(
        image_sqrt, intersect(complement(image_sqrt), rng, tol), tol
    )
    second = subspace_equal(split_sqrt, rng, tol)

    image = subspace_from_span(weight.base @ span.basis, tol, scale=scale)
    split = subspace_sum(image, intersect(complement(span), rng, tol), tol)
    third = subspace_equal(split, rng, tol) and subspace_equal(
        intersect(image, rng, tol), image, tol
    )
    return first, second, third
