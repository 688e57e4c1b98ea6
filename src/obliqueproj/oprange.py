"""The Hilbert structure carried by the range of the weight's square root.

The range ``R(A^{1/2})`` carries an inner product making ``A^{1/2}`` a
coisometry: the norm of ``u`` is the norm of its minimal-norm preimage
(the *witness* ``w = (A^{1/2})^+ u``, orthogonal to the nullspace).  In
finite dimension this range space is realized isometrically by witness
coordinates in the eigenbasis of the weight, so the exotic inner product
becomes the ordinary one and all identities become plain matrix identities.

In that chart lives the canonical orthogonal projection onto the image of
S, which exists whether or not the pair is compatible, and the pair is
compatible exactly when that one projection behaves well.
:class:`RangeSpaceProjection` is it, built once per pair from the pair
geometry of :mod:`~obliqueproj.oblique`, and every range-space identity is
one of its fields, computed on first read: ``range_image`` (the chart image
of ``A^{1/2} S``, read off the pair record's one rank decision),
``extension_matches`` (the extension of the weighted projection *is* the
chart projection), ``projected_range`` (the chart projection maps R(A)
onto ``A S`` exactly when the pair is compatible), ``induced``,
``complement_density`` and ``decompositions``.  The extensions of ambient
operators that leave the weight's nullspace invariant live in the chart
too (:func:`chart_extension`).
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
    _agree,
    _cached,
    _equal,
    _frobenius,
    _norm,
    _norms,
    _operator_norm,
    _readonly,
    _within,
    as_matrix,
    as_vector,
    complement,
    intersect,
    subspace_equal,
    subspace_from_span,
    subspace_sum,
)
from .oblique import _Geometry


@dataclass(frozen=True)
class RangeVector:
    """A vector of the weight's range with its membership certificate.

    ``witness`` is the unique preimage of ``ambient`` under ``A^{1/2}``
    that is orthogonal to the nullspace; its Euclidean norm is the range
    space norm of ``ambient``.  Both are read-only views, shared as a
    :class:`~obliqueproj.linalg.Subspace` basis is; :func:`lift` passes a copy.
    """

    weight: PsdOperator
    ambient: np.ndarray
    witness: np.ndarray

    def __post_init__(self):
        for name in ("ambient", "witness"):
            object.__setattr__(self, name, _readonly(getattr(self, name)))


def in_weight_range(weight: PsdOperator, u, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Membership test against R(A)."""
    u = as_vector(u, weight.dim)
    return bool(_in_range(weight, u[:, None], tol)[0])


def _in_range(weight: PsdOperator, u: np.ndarray, tol: Tolerance) -> np.ndarray:
    # The test of in_weight_range() on each column of an (n, m) block.
    gap = u - weight.range_proj @ u
    return _within(_norms(gap, 0), 1.0 + _norms(u, 0), tol)


def lift(weight: PsdOperator, u, tol: Tolerance = DEFAULT_TOL) -> RangeVector:
    """Certify ``u`` as a member of the range space and attach its witness.

    The range vector holds a copy of ``u``, which later writes do not reach.

    Raises
    ------
    NotInRange
        If ``u`` is farther from R(A) than ``eq_abs * (1 + ||u||)``.
    """
    u = as_vector(u, weight.dim).copy()
    return RangeVector(weight, u, _witnesses(weight, u[:, None], tol)[:, 0])


def _witnesses(weight: PsdOperator, u: np.ndarray, tol: Tolerance) -> np.ndarray:
    # lift() on each column of an (n, m) block: the witnesses as columns,
    # V_r ((V_r^T u) / Λ^{1/2}).  Raises NotInRange if any column fails.
    if not _in_range(weight, u, tol).all():
        raise NotInRange("the vector is not in the range of the weight within tolerance")
    vr = chart_basis(weight)
    return vr @ ((vr.T @ u) / weight._root[:, None])


def _same_weight(x: PsdOperator, y: PsdOperator) -> bool:
    # One weight: the same object, or two holding an equal matrix.
    return x is y or np.array_equal(x.base, y.base)


def range_inner(x: RangeVector, y: RangeVector) -> float:
    """Range-space inner product: plain inner product of the witnesses."""
    if not _same_weight(x.weight, y.weight):
        raise WeightMismatch("range vectors are governed by different weights")
    return float(x.witness @ y.witness)


def range_norm(x: RangeVector) -> float:
    """Range-space norm, the minimum norm over all preimages."""
    return _norm(x.witness)


def chart_basis(weight: PsdOperator) -> np.ndarray:
    """Orthonormal ambient basis of the chart (leading eigenvectors)."""
    return weight.eigvecs[:, : weight.rank]


def chart_coords(weight: PsdOperator, u, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Chart coordinates of a range vector (length = rank of the weight)."""
    return chart_basis(weight).T @ lift(weight, u, tol).witness


def unchart(weight: PsdOperator, coords) -> np.ndarray:
    """Ambient range vector represented by chart coordinates."""
    coords = as_vector(coords, weight.rank)
    return weight.sqrt @ (chart_basis(weight) @ coords)


@dataclass(frozen=True)
class RangeSpaceProjection:
    """The orthogonal projection, in the chart, onto the image of a subspace.

    Holds one pair geometry and computes every field on first read.  With
    ``C_ρ = U_ρ Σ_ρ W_ρ^T`` the part of ``C = V_r^T B_S`` that the pair's one
    rank decision keeps, ``range_image`` is the chart image
    ``R(Λ^{1/2} C_ρ)`` of ``A^{1/2} S``, read off the geometry's SVD of
    ``Λ^{1/2} U_ρ``; ``coord_matrix`` is its projector, symmetric
    idempotent (orthogonality in the range space equals symmetry in the
    witness chart); ``null_image`` is its orthocomplement, the chart image
    of ``S^perp ∩ R(A^{1/2})``.
    ``weight_image`` is ``A S`` in R^n, from the columns of ``A B_S`` (rank
    cutoff anchored at ``λ_1``).
    """

    geometry: _Geometry

    @property
    def weight(self) -> PsdOperator:
        return self.geometry.weight

    @_cached
    def range_image(self) -> Subspace:
        return Subspace(self.weight.rank, self.geometry.root_svd[0])

    @_cached
    def coord_matrix(self) -> np.ndarray:
        return self.range_image.projector()

    @_cached
    def null_image(self) -> Subspace:
        return complement(self.range_image)

    @_cached
    def weight_image(self) -> Subspace:
        g = self.geometry
        return subspace_from_span(g.weight.base @ g.span.basis, g.tol, scale=_operator_norm(g.weight))

    def apply(self, x: RangeVector) -> RangeVector:
        """Project a certified range vector; the result lies in the image of S."""
        if not _same_weight(x.weight, self.weight):
            raise WeightMismatch("the range vector is governed by a different weight")
        vr = chart_basis(self.weight)
        witness = vr @ (self.coord_matrix @ (vr.T @ x.witness))
        return RangeVector(self.weight, self.weight.sqrt @ witness, witness)

    @_cached
    def extension(self) -> np.ndarray:
        """:func:`chart_extension` of the weighted projection.

        Raises ``Incompatible`` if the weighted projection does not exist.
        """
        return chart_extension(self.weight, self.geometry.projection.matrix, self.geometry.tol)

    @_cached
    def extension_matches(self) -> bool:
        """Whether the extension of the weighted projection is the chart projection.

        True for every compatible pair; this is the bridge identity between
        the ambient oblique picture and the range-space orthogonal picture.
        """
        gap = _norm(self.extension - self.coord_matrix)
        return _agree(gap, self.geometry.tol, 1.0 + _norm(self.coord_matrix))

    @_cached
    def projected_range(self) -> tuple[Subspace, bool]:
        """Image of R(A) under the chart projection, mapped back to ambient space.

        With whether it equals ``A(S)``; the equality holds exactly when the
        pair is compatible.  Both are compared in chart coordinates: the
        image is ``Λ^{1/2}`` applied to the chart image of S, and ``A(S)`` is
        ``V_r R(Λ C)`` (rank cutoff anchored at ``λ_1``).
        """
        weight, tol = self.weight, self.geometry.tol
        image = subspace_from_span(weight._root[:, None] * self.range_image.basis, tol)
        target = Subspace(weight.rank, self.geometry.split[0])
        ambient = Subspace(weight.dim, chart_basis(weight) @ image.basis)
        return ambient, _equal(image, target, weight.dim, tol)

    @_cached
    def induced(self) -> np.ndarray:
        """The ambient idempotent obtained by conjugating the chart projection.

        Composes the inverse of the weight on its range, the chart projection
        and the weight; requires (and, in finite dimension, automatically
        has) the chart projection mapping R(A) into R(A).  For a compatible
        pair it equals the range projector times the weighted projection.
        Formed as ``V_r Λ^{-1/2} P Λ^{1/2} V_r^T``.
        """
        vr, root = chart_basis(self.weight), self.weight._root
        return (vr / root) @ self.coord_matrix @ (root[:, None] * vr.T)

    @_cached
    def _perp_in_range(self) -> np.ndarray:
        # S^perp ∩ R(A) = V_r N(C^T), held in R^r: the left directions of C
        # whose sine lies under the cutoff of intersect(), and those past its
        # columns.  Read off the geometry's SVD of C, not off a residual.
        g = self.geometry
        return complement(Subspace(g.weight.rank, g.cross_left[:, : g.kept])).basis

    @_cached
    def complement_density(self) -> bool:
        """Two equivalent density statements about ``S^perp ∩ R(A)`` in the chart.

        The closure of ``S^perp ∩ R(A)`` fills the orthocomplement of the
        image of S exactly when ``A(S) + S^perp ∩ R(A)`` is dense in the range
        space; in finite dimension density means equality and both sides are
        evaluated as subspace identities in R^r.

        Raises ``InconsistentDiagnostics`` if the two statements disagree
        numerically.
        """
        weight, tol = self.weight, self.geometry.tol
        chart_perp = subspace_from_span(self._perp_in_range / weight._root[:, None], tol)
        closure_fills = subspace_equal(chart_perp, self.null_image, tol)
        sum_dense = subspace_sum(self.range_image, chart_perp, tol).dim == weight.rank
        if closure_fills != sum_dense:
            raise InconsistentDiagnostics("the closure identity and the dense-sum identity disagree")
        return closure_fills

    @_cached
    def decompositions(self) -> tuple[bool, bool, bool]:
        """Three equivalent decomposition conditions for compatibility.

        i) the block criterion; ii) ``R(A^{1/2})`` splits into the sqrt image
        of S plus its orthocomplement within the range; iii) ``R(A)`` splits
        into ``A(S)`` plus ``S^perp ∩ R(A)``, with ``A(S)`` closed inside
        ``R(A)``, in R^n from the columns of ``A B_S``.  All three agree on
        every well-conditioned input.  ii holds by construction and is not
        evaluated: in R^r, ``null_image`` is the complement of
        ``range_image``, and a subspace plus its complement is all of R^r.
        """
        g = self.geometry
        weight, tol = g.weight, g.tol
        rng, image = weight.range_subspace, self.weight_image
        perp = Subspace(weight.dim, chart_basis(weight) @ self._perp_in_range)
        third = subspace_equal(subspace_sum(image, perp, tol), rng, tol) and subspace_equal(
            intersect(image, rng, tol), image, tol
        )
        return g.shift is not None, True, third


def is_chart_extendable(weight: PsdOperator, operator, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Whether an ambient operator extends to the chart: it maps N(A) into N(A).

    Decided by ``||P_R(A) B V_0||_F <= eq_abs ||B||_F``, with ``V_0`` the
    basis of N(A), so that ``c B`` reads as ``B`` at every scale ``c``.  The other extension condition, ``R(B^T A^{1/2}) ⊆ R(A^{1/2})``, holds
    for every operator in finite dimension and is not evaluated.
    """
    b = as_matrix(operator, rows=weight.dim, cols=weight.dim)
    return bool(_extendable(weight, b[None], tol)[0])


def _extendable(weight: PsdOperator, b: np.ndarray, tol: Tolerance) -> np.ndarray:
    # The test of is_chart_extendable() on each operator of an (m, n, n)
    # stack: ||P_R(A) B V_0|| held to ||B||, so that it reads alike at every
    # scale of B.
    image_of_null = weight.range_proj @ (b @ weight.null_subspace.basis)
    return _within(_frobenius(image_of_null), _frobenius(b), tol)


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
    return _chart_extensions(weight, b[None], tol)[0]


def _chart_extensions(weight: PsdOperator, b: np.ndarray, tol: Tolerance) -> np.ndarray:
    # chart_extension() of each operator of an (m, n, n) stack, as an
    # (m, r, r) stack.  Raises NotExtendable if any operator fails.
    if not _extendable(weight, b, tol).all():
        raise NotExtendable("the operator does not map the weight's nullspace into itself")
    vr, root = chart_basis(weight), weight._root
    return root[:, None] * (vr.T @ b @ vr) / root


def range_space_projection(
    weight: PsdOperator, span: Subspace, tol: Tolerance = DEFAULT_TOL
) -> RangeSpaceProjection:
    """The chart-orthogonal projection onto the closure of the image of S.

    Exists for every pair, compatible or not.  Builds the pair geometry,
    which decomposes nothing until a field is read: ``range_image`` takes
    the two SVDs the weighted projection takes, of ``C`` and ``Λ^{1/2} U_ρ``.
    """
    return RangeSpaceProjection(_Geometry(weight, span, tol))

