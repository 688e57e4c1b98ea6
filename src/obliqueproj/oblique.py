"""Weighted-Hermitian projections for a PSD weight A and a subspace S.

A projection Q with range S is Hermitian for the semi-inner product
``(x, y) -> <Ax, y>`` exactly when ``A Q = Q^T A``, equivalently when its
nullspace lies inside ``A^{-1}(S^perp)``.  The pair (A, S) is *compatible*
when such a projection exists, which in finite dimension is always the
case.  The distinguished member ``P`` with nullspace
``A^{-1}(S^perp) (-) N``, where ``N = S ∩ N(A)``, has minimal operator norm
in the family; the whole family is ``P`` plus an arbitrary map from
``S^perp`` into ``N``.

Three constructions of ``P`` are provided: the block/reduced-solution
assembly (default), the pseudoinverse formula, and the closed formula for
invertible weights.  They agree within tolerance and are cross-checked in
the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import douglas
from .errors import (
    DimensionMismatch,
    Incompatible,
    InconsistentDiagnostics,
    RangeMismatch,
    Singular,
)
from .linalg import (
    DEFAULT_TOL,
    ObliqueProjection,
    PsdOperator,
    Subspace,
    Tolerance,
    _meet_coordinates,
    _rank_from_values,
    _sine_svd,
    _split_rows,
    as_matrix,
    complement,
    contains,
    intersect,
    moore_penrose,
    nullspace_of,
    numerical_rank,
    subspace_equal,
    subspace_from_span,
)


@dataclass(frozen=True)
class BlockDecomposition:
    """2x2 block form of the weight in the frame (basis of S, basis of S^perp).

    ``a`` is the S-to-S block, ``b`` the S^perp-to-S block and ``c`` the
    S^perp-to-S^perp block; reassembling ``[[a, b], [b^T, c]]`` in the frame
    recovers the weight.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    frame: tuple[Subspace, Subspace]

    def reassemble(self) -> np.ndarray:
        bs, bp = self.frame[0].basis, self.frame[1].basis
        return (
            bs @ self.a @ bs.T
            + bs @ self.b @ bp.T
            + bp @ self.b.T @ bs.T
            + bp @ self.c @ bp.T
        )


@dataclass(frozen=True)
class CompatibilityReport:
    """Full diagnostic record for a pair (A, S).

    ``chain`` holds six necessary conditions for compatibility, evaluated as
    finite-dimensional subspace predicates; in exact arithmetic all are true
    and they respect the implications 1->2->4->5, 2<->3, 5<->6.  Under
    aggressive tolerances individual flags can fail, which makes the report
    a health check for numerically ill-posed inputs.

    ``projected_pair_compatible`` and ``shifted_pair_compatible`` record
    that compatibility is insensitive to projecting S onto the range of the
    weight, or to enlarging S by the weight's nullspace.

    Every field is evaluated in the weight's eigen coordinates: with
    ``A = V_r Λ V_r^T`` and ``C = V_r^T B_S``, a subspace of R(A) is held
    by its coordinates in R^r, and one containing N(A) by those of its part
    in R(A).  Nothing n x n is decomposed.

    1. ``compatible``: ``a X = b`` is solvable, or ``S ⊆ N(A)`` (coupling 0).
    2. ``A S = V_r R(Λ C)`` (rank cutoff anchored at ``λ_1``) equals its
       intersection with R(A), taken in R^r.
    3. The preimage of ``A S``, ``N(A) ⊕ V_r N(U_perp^T Λ)`` with ``U_perp``
       a basis of ``R(Λ C)^perp`` in R^r, equals
       ``S + N(A) = N(A) ⊕ V_r R(C)``; the N(A) parts coincide, so the two
       are compared in R^r with the bound of ``subspace_equal`` in R^n.
    4. As 2 for ``A^{1/2} S = V_r R(Λ^{1/2} C)`` (anchored at ``sqrt(λ_1)``).
    5. ``S + N(A)`` has dimension ``dim S + dim N(A) - dim(S ∩ N(A))``.
    6. The projection ``V_r R(C)`` of S onto R(A) has dimension
       ``dim S - dim(S ∩ N(A))``.  ``R(C)`` takes the rank cutoff of
       ``C`` relative to 1, so 5 and 6 read the same rank.

    ``sum_check`` is ``(n - r) + rank[C, N(C^T Λ)] == n``, the dimension
    of ``S + A^{-1}(S^perp)``.  Both re-checks reduce to the range inclusion
    ``R(U^T Λ U_c) ⊆ R(U^T Λ U)``, with ``U`` a basis of ``R(C)`` and
    ``U_c`` of its complement in R^r: the N(A) blocks of either pair add
    only zero blocks to the coupling equation.
    """

    compatible: bool
    degenerate: Subspace
    preimage_of_complement: Subspace
    coupling: np.ndarray | None
    projection: ObliqueProjection | None
    chain: tuple[bool, bool, bool, bool, bool, bool]
    sum_check: bool
    projected_pair_compatible: bool
    shifted_pair_compatible: bool


def _check_pair(weight: PsdOperator, span: Subspace) -> None:
    if weight.dim != span.ambient_dim:
        raise DimensionMismatch(
            f"weight acts on R^{weight.dim} but the subspace lives in R^{span.ambient_dim}"
        )


def block_decompose(weight: PsdOperator, span: Subspace) -> BlockDecomposition:
    """Represent the weight in the orthonormal frame adapted to ``span``.

    The frame is pinned by the canonical orthonormalization of the inputs,
    so results are reproducible bit for bit for identical input data.
    """
    geometry = _geometry(weight, span, DEFAULT_TOL)
    bp = geometry.perp.basis
    return BlockDecomposition(geometry.a, geometry.rows @ bp, bp.T @ weight.base @ bp, (span, geometry.perp))


def is_compatible(weight: PsdOperator, span: Subspace, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Whether some projection onto ``span`` is Hermitian for the weight.

    Decided by the range inclusion ``R(b) ⊆ R(a)`` of the block entries,
    which is equivalent to ``a X = b`` being solvable and to
    ``H = S + A^{-1}(S^perp)``; in finite dimension it always holds.  The
    residual ``||a a^+ b - b||`` is held to ``eq_abs * ||B_S^T A||_F``, not to
    ``eq_abs * ||b||``, as ``b`` is roundoff on an A-invariant S that meets
    N(A).  When ``S ⊆ N(A)`` the blocks vanish and no test is made.
    """
    return _geometry(weight, span, tol).shift is not None


def _cross(weight: PsdOperator, span: Subspace) -> np.ndarray:
    # C = V_r^T B_S, the coordinates of S in the leading eigenvectors V_r.
    return weight.eigvecs[:, : weight.rank].T @ span.basis


def _sqrt_image(weight: PsdOperator, cross: np.ndarray, tol: Tolerance) -> Subspace:
    # A^{1/2} S = V_r R(Λ^{1/2} C), held in the coordinates of V_r; the rank
    # cutoff is anchored at ||A^{1/2}|| = sqrt(λ_1).
    root = np.sqrt(weight.eigvals[: weight.rank])
    return subspace_from_span(root[:, None] * cross, tol, scale=float(root[0]) if root.size else 0.0)


def _overlap(
    weight: PsdOperator, span: Subspace, tol: Tolerance
) -> tuple[Subspace, np.ndarray, np.ndarray, np.ndarray]:
    # The singular values of C = V_r^T B_S, with V_r the leading
    # eigenvectors, are the sines of the principal angles between S and
    # N(A); returns N, C, and the left singular vectors and singular values
    # of C.
    cross = _cross(weight, span)
    left, sines, vt = _sine_svd(cross)
    return Subspace(weight.dim, span.basis @ _meet_coordinates(sines, vt, tol)), cross, left, sines


def degenerate_overlap(weight: PsdOperator, span: Subspace, tol: Tolerance = DEFAULT_TOL) -> Subspace:
    """The overlap ``N = S ∩ N(A)`` that parametrizes the projection family.

    Read off the cached eigenvectors with the angle cutoff of
    :func:`~obliqueproj.linalg.intersect`.
    """
    _check_pair(weight, span)
    return _overlap(weight, span, tol)[0]


@dataclass(frozen=True)
class _Geometry:
    """A pair (A, S) decomposed once, and only as far as it is read.

    :func:`_geometry` computes the core, all :func:`spline_with_weight`
    reads: ``a = B_S^T A B_S``, ``a^+``, the overlap from the SVD of
    ``C = V_r^T B_S`` and ``shift = a^+ (B_S^T A - a B_S^T) = D B_perp^T``
    (None if ``a X = b`` is unsolvable).  On first read: ``split``
    (``R(Λ C)``, ``N(C^T Λ)``), ``preimage`` and ``projection``, for
    :func:`weighted_projection`; ``perp`` (a complete QR) and ``coupling =
    a^+ b`` where that frame is published (diagnostics, family members);
    ``sqrt_image`` (``R(Λ^{1/2} C)``) for the diagnostics and the
    range-space chart.
    """

    weight: PsdOperator
    span: Subspace
    tol: Tolerance
    rows: np.ndarray  # B_S^T A
    a: np.ndarray
    a_pinv: np.ndarray  # a^+, or 0 where the coupling is 0
    shift: np.ndarray | None
    overlap: Subspace  # N = S ∩ N(A)
    cross: np.ndarray  # C = V_r^T B_S
    cross_left: np.ndarray  # left singular vectors of C
    cross_sines: np.ndarray  # singular values of C

    @cached_property
    def perp(self) -> Subspace:
        return complement(self.span)

    @cached_property
    def coupling(self) -> np.ndarray | None:
        return None if self.shift is None else self.a_pinv @ (self.rows @ self.perp.basis)

    @cached_property
    def split(self) -> tuple[np.ndarray, np.ndarray]:
        return _split_range(self.weight, self.cross, self.tol)

    @cached_property
    def preimage(self) -> Subspace:
        return _preimage(self.weight, self.split[1])

    @cached_property
    def sqrt_image(self) -> Subspace:
        return _sqrt_image(self.weight, self.cross, self.tol)

    @cached_property
    def projection(self) -> ObliqueProjection:
        shift, weight, bs = self._solved_shift(), self.weight, self.span.basis
        n, r = weight.dim, weight.rank
        # A^{-1}(S^perp) (-) N: N is taken out of N(A) in the coordinates of N(A).
        v0 = weight.eigvecs[:, r:]
        rest = v0 @ complement(Subspace(n - r, v0.T @ self.overlap.basis)).basis
        # preimage.basis ends with V_r·N(C^T Λ), the part outside N(A)
        null = Subspace(n, np.hstack([rest, self.preimage.basis[:, n - r :]]))
        return ObliqueProjection(bs @ (bs.T + shift), self.span, null)

    def _solved_shift(self) -> np.ndarray:
        if self.shift is None:
            raise Incompatible("the coupling equation between the blocks of the weight is unsolvable")
        return self.shift

    def apply(self, x: np.ndarray) -> np.ndarray:
        """``P x`` for the minimal projection ``P``, without forming ``P``."""
        return self.span.basis @ (self.span.basis.T @ x + self._solved_shift() @ x)

    def member(self, coefficients) -> ObliqueProjection:
        """The family member ``P + N t B_perp^T`` of :func:`projection_family_member`."""
        t = as_matrix(coefficients, rows=self.overlap.dim, cols=self.perp.dim)
        bp = self.perp.basis
        matrix = self.projection.matrix + self.overlap.basis @ t @ bp.T
        # N(Q) = R((I - Q) B_perp), whose columns have singular values >= 1.
        null = np.linalg.qr(bp - matrix @ bp)[0]
        return ObliqueProjection(matrix, self.span, Subspace(self.weight.dim, null))

    def diagnostics(self) -> CompatibilityReport:
        """The report of :func:`compatibility_diagnostics`."""
        weight, span, tol = self.weight, self.span, self.tol
        compatible = self.shift is not None
        n, r = weight.dim, weight.rank
        lam = weight.eigvals[:r]
        scale = float(lam[0]) if r else 0.0
        whole = Subspace(r, np.eye(r))
        # The projection of S onto R(A), V_r R(C): the singular values of C
        # are those of P_R(A) B_S, so the cutoff relative to 1 is theirs.
        kept = _rank_from_values(self.cross_sines, tol, scale=1.0)
        projected = Subspace(r, self.cross_left[:, :kept])
        image, coupled = Subspace(r, self.split[0]), self.split[1]
        image_sqrt = self.sqrt_image
        pulled = nullspace_of(coupled.T * lam, tol, scale=scale)
        closed = kept == span.dim - self.overlap.dim
        chain = (
            compatible,
            _equal_in_range(intersect(image, whole, tol), image, n, tol),
            _equal_in_range(pulled, projected, n, tol),
            _equal_in_range(intersect(image_sqrt, whole, tol), image_sqrt, n, tol),
            closed,
            closed,
        )
        spread = numerical_rank(np.hstack([self.cross, coupled]), tol)
        rows = projected.basis.T * lam
        shift_invariant = douglas.range_inclusion(
            rows @ complement(projected).basis, rows @ projected.basis, tol
        )
        return CompatibilityReport(
            compatible=compatible,
            degenerate=self.overlap,
            preimage_of_complement=self.preimage,
            coupling=self.coupling,
            projection=self.projection if compatible else None,
            chain=chain,
            sum_check=(n - r) + spread == n,
            projected_pair_compatible=shift_invariant,
            shifted_pair_compatible=shift_invariant,
        )


def _split_range(weight: PsdOperator, cross: np.ndarray, tol: Tolerance) -> tuple[np.ndarray, np.ndarray]:
    # With A = V_r Λ V_r^T, a vector V_r y + z (z in N(A)) lies in
    # A^{-1}(S^perp) exactly when C^T Λ y = 0.  One SVD of that product
    # splits R^r into its row space R(Λ C), the coordinates of A S, and its
    # nullspace.  The rank cutoff is anchored at ||A|| = λ_1, as for
    # preimage().
    scale = float(weight.eigvals[0]) if weight.dim else 0.0
    return _split_rows(cross.T * weight.eigvals[: weight.rank], tol, scale)


def _preimage(weight: PsdOperator, coupled: np.ndarray) -> Subspace:
    # N(A) ⊕ V_r·coupled
    r = weight.rank
    return Subspace(weight.dim, np.hstack([weight.eigvecs[:, r:], weight.eigvecs[:, :r] @ coupled]))


def _geometry(weight: PsdOperator, span: Subspace, tol: Tolerance) -> _Geometry:
    _check_pair(weight, span)
    rows = span.basis.T @ weight.base
    a = rows @ span.basis
    overlap, cross, left, sines = _overlap(weight, span, tol)
    # S ⊆ N(A) within the angle cutoff makes A B_S = 0 (the blocks are
    # roundoff), and S = R^n leaves no b: either way the coupling is 0.
    exact = overlap.dim == span.dim or span.dim == weight.dim
    a_pinv = np.zeros_like(a) if exact else moore_penrose(a, tol)
    gap = rows - a @ span.basis.T  # b B_perp^T
    shift = a_pinv @ gap
    # ||a D - b|| against ||B_S^T A||, not ||b||: b is roundoff on an A-invariant S.
    if not exact and np.linalg.norm(a @ shift - gap) > tol.eq_abs * np.linalg.norm(rows):
        shift = None
    return _Geometry(weight, span, tol, rows, a, a_pinv, shift, overlap, cross, left, sines)


def weighted_projection(
    weight: PsdOperator, span: Subspace, tol: Tolerance = DEFAULT_TOL
) -> ObliqueProjection:
    """The minimal-norm weight-Hermitian projection onto ``span``.

    ``[I, d; 0, 0]`` in the frame of :func:`block_decompose`, ``d`` the
    reduced solution of ``a X = b``, assembled with no basis of S^perp as
    ``B_S (B_S^T + a^+ (B_S^T A - a B_S^T))``; the certified nullspace
    ``A^{-1}(S^perp) (-) N`` is read off the weight's cached eigenvectors.
    No regularization is applied to a nearly singular ``a`` block, since
    that would change the nullspace of the result.

    Raises
    ------
    Incompatible
        If the coupling equation is numerically unsolvable.
    """
    return _geometry(weight, span, tol).projection


def weighted_projection_invertible(
    weight: PsdOperator, span: Subspace, tol: Tolerance = DEFAULT_TOL
) -> ObliqueProjection:
    """Closed formula ``P (P A P + (I-P) A (I-P))^{-1} A`` for invertible weights.

    Raises
    ------
    Singular
        If the weight does not have full numerical rank.
    """
    _check_pair(weight, span)
    if weight.rank < weight.dim:
        raise Singular("the closed formula requires a weight of full rank")
    p = span.projector()
    q = np.eye(weight.dim) - p
    middle = p @ weight.base @ p + q @ weight.base @ q
    matrix = p @ np.linalg.solve(middle, weight.base)
    return ObliqueProjection(matrix, span, nullspace_of(matrix, tol))


def weighted_projection_pinv(
    weight: PsdOperator, span: Subspace, tol: Tolerance = DEFAULT_TOL
) -> ObliqueProjection:
    """Pseudoinverse construction ``(P A P)^+ P A`` plus the overlap projector.

    ``(P A P)^+ P A`` is the minimal-norm projection onto ``S (-) N``; adding
    the orthogonal projector onto ``N`` recovers the full projection.  Always
    applicable in finite dimension, where ``P A P`` has closed range.
    """
    _check_pair(weight, span)
    p = span.projector()
    reduced = moore_penrose(p @ weight.base @ p, tol) @ (p @ weight.base)
    overlap = degenerate_overlap(weight, span, tol)
    matrix = reduced + overlap.projector()
    return ObliqueProjection(matrix, span, nullspace_of(matrix, tol))


def is_weight_hermitian(
    projection: ObliqueProjection,
    weight: PsdOperator,
    span: Subspace,
    tol: Tolerance = DEFAULT_TOL,
) -> bool:
    """Whether ``A Q = Q^T A`` for a projection ``Q`` with range ``span``.

    Both the algebraic test and the equivalent nullspace containment
    ``N(Q) ⊆ A^{-1}(S^perp)`` are evaluated; they must agree, otherwise the
    inputs are pathologically conditioned.

    Raises
    ------
    RangeMismatch
        If the projection's range is not ``span``.
    InconsistentDiagnostics
        If the two equivalent tests disagree numerically.
    """
    _check_pair(weight, span)
    if not subspace_equal(projection.range, span, tol):
        raise RangeMismatch("the projection's range differs from the given subspace")
    a, q = weight.base, projection.matrix
    scale = 1.0 + float(np.linalg.norm(a))
    algebraic = float(np.linalg.norm(a @ q - q.T @ a)) <= tol.eq_abs * scale
    # A^{-1}(S^perp), read off the eigenvectors as for the minimal projection.
    pre = _preimage(weight, _split_range(weight, _cross(weight, span), tol)[1])
    containment = contains(pre, projection.nullspace, tol)
    if algebraic != containment:
        raise InconsistentDiagnostics(
            "the algebraic symmetry test and the nullspace containment test disagree"
        )
    return algebraic


def projection_family_member(
    weight: PsdOperator,
    span: Subspace,
    coefficients,
    tol: Tolerance = DEFAULT_TOL,
) -> ObliqueProjection:
    """A member of the family of weight-Hermitian projections onto ``span``.

    The family is the minimal projection plus an arbitrary map from
    ``S^perp`` into the overlap ``N = S ∩ N(A)``; ``coefficients`` is that
    map as a ``(dim N, n - dim S)`` matrix in the stored orthonormal bases.
    When the overlap is trivial the family is a singleton and only an empty
    coefficient matrix is accepted.
    """
    return _geometry(weight, span, tol).member(coefficients)


def _equal_in_range(s1: Subspace, s2: Subspace, n: int, tol: Tolerance) -> bool:
    # subspace_equal() for subspaces of R(A) held in the coordinates of V_r:
    # V_r has orthonormal columns, so the projector distance is that of the
    # subspaces of R^n, and so is the bound.
    return float(np.linalg.norm(s1.projector() - s2.projector())) <= tol.eq_abs * n


def compatibility_diagnostics(
    weight: PsdOperator, span: Subspace, tol: Tolerance = DEFAULT_TOL
) -> CompatibilityReport:
    """Evaluate the full compatibility diagnostic record for (A, S).

    See :class:`CompatibilityReport` for the coordinates each field is
    evaluated in.
    """
    return _geometry(weight, span, tol).diagnostics()


def chain_respects_implications(chain: tuple[bool, ...]) -> bool:
    """Whether six diagnostic flags respect 1->2->4->5, 2<->3 and 5<->6."""
    c1, c2, c3, c4, c5, c6 = chain
    implications = (not c1 or c2) and (not c2 or c4) and (not c4 or c5)
    return implications and c2 == c3 and c5 == c6
