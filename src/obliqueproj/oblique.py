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
    _apart,
    _cached,
    _equal,
    _frobenius,
    _norm,
    _operator_norm,
    _rank_from_values,
    _ranked_svd,
    _readonly,
    _reflectors,
    _Reflectors,
    _svd,
    _within,
    as_matrix,
    contains,
    moore_penrose,
    nullspace_of,
    subspace_equal,
)


@dataclass(frozen=True)
class BlockDecomposition:
    """2x2 block form of the weight in the frame (basis of S, basis of S^perp).

    ``a`` is the S-to-S block, ``b`` the S^perp-to-S block and ``c`` the
    S^perp-to-S^perp block; reassembling ``[[a, b], [b^T, c]]`` in the frame
    recovers the weight.  The blocks are held as read-only views.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    frame: tuple[Subspace, Subspace]

    def __post_init__(self):
        for name in ("a", "b", "c"):
            object.__setattr__(self, name, _readonly(getattr(self, name)))

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
    aggressive tolerances flags 1, 3, 5 and 6 can fail, which makes the
    report a health check for numerically ill-posed inputs; flags 2 and 4
    hold by construction and are not evaluated.

    Every field is evaluated in the weight's eigen coordinates: with
    ``A = V_r Λ V_r^T`` and ``C = V_r^T B_S``, a subspace of R(A) is held
    by its coordinates in R^r, and one containing N(A) by those of its part
    in R(A).  Nothing n x n is decomposed.

    1. ``compatible``: ``a X = b`` is solvable, or ``S ⊆ N(A)`` (coupling 0).
    2. ``A S`` is closed inside R(A): its intersection with R(A) is itself.
       In the coordinates of V_r, ``A S = V_r R(Λ C)`` is a subspace of
       R^r, whose intersection with R^r is exact, so the flag is True.
    3. The preimage of ``A S`` equals ``S + N(A) = N(A) ⊕ V_r R(C)``.
       With ``Y`` and ``K`` orthonormal bases of ``R(Λ C)`` and
       ``N(C^T Λ)``, which split R^r orthogonally, the preimage is
       ``N(A) ⊕ V_r N(K^T Λ)`` and ``N(K^T Λ) = Λ^{-1} R(Y)``, whose basis
       is the Q of one reduced QR of ``Λ^{-1} Y``.  The N(A) parts
       coincide, so the two are compared in R^r with the bound of
       ``subspace_equal`` in R^n.
    4. As 2 for ``A^{1/2} S = V_r R(Λ^{1/2} C)``; True for the same reason.
    5. ``S + N(A)`` has dimension ``dim S + dim N(A) - dim(S ∩ N(A))``.
    6. The projection ``V_r R(C)`` of S onto R(A) has dimension
       ``dim S - dim(S ∩ N(A))``.  ``R(C)`` takes the rank cutoff of
       ``C`` relative to 1, so 5 and 6 read the same rank.

    ``sum_check`` states ``S + A^{-1}(S^perp) = R^n``, that is
    ``(n - r) + rank[C, K] == n``.  As
    ``[C, K] = [Y, K] [[Y^T C, 0], [K^T C, I]]``, this is
    ``rank(Y^T C) == ρ = dim A S``, with the cutoff relative to 1 of flags 5
    and 6 (``||Y^T C|| <= 1``).  It holds by construction, since
    ``σ_min(Y^T C) >= σ_ρ(Λ C) / λ_1 >= rank_rel``, so like flags 2 and 4
    it is True and not evaluated.

    ``projected_pair_compatible`` and ``shifted_pair_compatible`` record
    that compatibility survives projecting S onto R(A) and enlarging S by
    N(A).  Both reduce to ``R(U^T Λ U_c) ⊆ R(U^T Λ U)``, with ``U`` an
    orthonormal basis of ``R(C)`` and ``U_c`` of its complement in R^r, as
    the N(A) blocks add only zero blocks to the coupling equation.  Since
    ``σ_min(U^T Λ U) >= λ_r >= rank_rel λ_1 >= rank_rel σ_1(U^T Λ U)``,
    ``U^T Λ U`` has full rank under the cutoff, so both are True and not
    evaluated; a solve could read False only by roundoff, at a condition
    number up to ``1 / rank_rel``.

    ``coupling``, when not None, is held as a read-only view.
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

    def __post_init__(self):
        if self.coupling is not None:
            object.__setattr__(self, "coupling", _readonly(self.coupling))


def block_decompose(weight: PsdOperator, span: Subspace) -> BlockDecomposition:
    """Represent the weight in the orthonormal frame adapted to ``span``.

    The frame is pinned by the canonical orthonormalization of the inputs,
    so results are reproducible bit for bit for identical input data.
    """
    perp = _Geometry(weight, span, DEFAULT_TOL).perp
    rows = span.basis.T @ weight.base
    bp = perp.basis
    return BlockDecomposition(rows @ span.basis, rows @ bp, bp.T @ weight.base @ bp, (span, perp))


def is_compatible(weight: PsdOperator, span: Subspace, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Whether some projection onto ``span`` is Hermitian for the weight.

    Decided by Douglas' range inclusion ``R(b) ⊆ R(a)`` of the block
    entries, which is equivalent to ``a X = b`` being solvable and to
    ``H = S + A^{-1}(S^perp)``; in finite dimension it always holds.  The
    solve and its feasibility test are those of :mod:`~obliqueproj.douglas`,
    with the residual ``||a a^+ b - b||`` held to ``eq_abs * ||B_S^T A||_F``,
    not to ``eq_abs * ||b||``, as ``b`` is roundoff on an A-invariant S that
    meets N(A).  When ``S ⊆ N(A)`` or ``S = R^n`` the blocks vanish and no
    test is made.
    """
    return _Geometry(weight, span, tol).shift is not None


def degenerate_overlap(weight: PsdOperator, span: Subspace, tol: Tolerance = DEFAULT_TOL) -> Subspace:
    """The overlap ``N = S ∩ N(A)`` that parametrizes the projection family.

    Read off the cached eigenvectors with the angle cutoff of
    :func:`~obliqueproj.linalg.intersect`.
    """
    return _Geometry(weight, span, tol).overlap


@dataclass(frozen=True)
class _Geometry:
    """A pair (A, S) and every quantity derived from it, each a field.

    One rule: construction checks the dimensions and computes nothing else,
    and every field is computed on its first read and kept.  Every public
    pair function, the identity battery and the CLI read one record, so each
    field is computed at most once per call, and only if it is read.
    With ``A = V_r Λ V_r^T``, ``B_S`` the basis of S and ``a = B_S^T A B_S``:

    - ``cross``, ``C = V_r^T B_S``; from one SVD of it, ``cross_left``,
      ``cross_sines`` (the sines of the principal angles between S and
      N(A)) and ``overlap``, ``N = S ∩ N(A)``;
    - ``shift = a^+ (B_S^T A - a B_S^T) = D B_perp^T``, the solve of
      :mod:`~obliqueproj.douglas`, None if its test finds ``a X = b``
      unsolvable;
    - ``split``, ``R(Λ C)`` and ``N(C^T Λ)``, from one SVD of ``C^T Λ``,
      and ``preimage``, ``A^{-1}(S^perp)``;
    - ``projection``, the minimal projection with its certified nullspace;
    - ``reflectors``, those of ``B_S`` (one raw QR, compact WY), ``perp``,
      the basis ``B_perp`` they give, and ``coupling = shift B_perp = a^+ b``,
      applied through them;
    - the cross-check oracles: ``pinv_strip``, ``(P_S A P_S)^+ P_S A``, the
      minimal projection onto ``S (-) N``; ``pinv_matrix``, that plus
      ``P_N``; and ``invertible_matrix``, the closed formula;
    - ``hermitian_anchor``, ``1 + ||A||``, the anchor of the residual rule on
      ``||A Q - Q^T A||``, which :meth:`hermitian_gaps` forms.
    """

    weight: PsdOperator
    span: Subspace
    tol: Tolerance

    def __post_init__(self):
        if self.weight.dim != self.span.ambient_dim:
            raise DimensionMismatch(
                f"weight acts on R^{self.weight.dim} but the subspace lives in R^{self.span.ambient_dim}"
            )

    @_cached
    def cross(self) -> np.ndarray:
        return self.weight.eigvecs[:, : self.weight.rank].T @ self.span.basis

    @_cached
    def _cross_svd(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # With r < dim S the columns of B_S beyond r have sine zero: the
        # full SVD keeps their right singular vectors.
        return _svd(self.cross, full_matrices=self.cross.shape[0] < self.cross.shape[1])

    @_cached
    def cross_left(self) -> np.ndarray:
        return self._cross_svd[0]

    @_cached
    def cross_sines(self) -> np.ndarray:
        return self._cross_svd[1]

    @_cached
    def overlap(self) -> Subspace:
        # At most dim N(A) = n - r sines lie below 1, so the angle cutoff
        # 2 rank_rel < 1 keeps N inside N(A).
        _, sines, vt = self._cross_svd
        return Subspace(self.weight.dim, self.span.basis @ vt[_apart(sines, self.tol) :].T)

    @_cached
    def shift(self) -> np.ndarray | None:
        weight, bs = self.weight, self.span.basis
        rows = bs.T @ weight.base
        a = rows @ bs
        gap = rows - a @ bs.T  # b B_perp^T
        # S ⊆ N(A) within the angle cutoff makes A B_S = 0 (the blocks are
        # roundoff), and S = R^n leaves no b: either way the coupling is 0.
        if self.overlap.dim == self.span.dim or self.span.dim == weight.dim:
            return np.zeros_like(a) @ gap
        # Douglas' solve of a X = gap, its residual held to ||B_S^T A||, not
        # to ||b||: b is roundoff on an A-invariant S.
        shift, _, feasible = douglas._solve(a, gap, self.tol, gate=False, anchor=_norm(rows))
        return shift if feasible else None

    @_cached
    def split(self) -> tuple[np.ndarray, np.ndarray]:
        # A vector V_r y + z (z in N(A)) lies in A^{-1}(S^perp) exactly when
        # C^T Λ y = 0.  One SVD of that product splits R^r into its row
        # space R(Λ C), the coordinates of A S, and its nullspace.  The rank
        # cutoff is anchored at ||A|| = λ_1.
        product = self.cross.T * self.weight.eigvals[: self.weight.rank]
        _, _, vt, r = _ranked_svd(product, self.tol, _operator_norm(self.weight), full_matrices=True)
        return vt[:r].T, vt[r:].T

    @_cached
    def preimage(self) -> Subspace:
        # N(A) ⊕ V_r N(C^T Λ)
        v, r = self.weight.eigvecs, self.weight.rank
        return Subspace(self.weight.dim, np.hstack([v[:, r:], v[:, :r] @ self.split[1]]))

    @_cached
    def projection(self) -> ObliqueProjection:
        shift, weight, bs = self._solved_shift(), self.weight, self.span.basis
        n, r = weight.dim, weight.rank
        # A^{-1}(S^perp) (-) N: N is taken out of N(A) in the coordinates of
        # N(A), by the reflectors of V_0^T N applied to V_0.
        v0 = weight.eigvecs[:, r:]
        rest = _reflectors(v0.T @ self.overlap.basis).apply_perp(v0)
        # preimage.basis ends with V_r·N(C^T Λ), the part outside N(A)
        null = Subspace(n, np.hstack([rest, self.preimage.basis[:, n - r :]]))
        return ObliqueProjection(bs @ (bs.T + shift), self.span, null)

    @_cached
    def reflectors(self) -> _Reflectors:
        return _reflectors(self.span.basis)

    @_cached
    def perp(self) -> Subspace:
        return Subspace(self.span.ambient_dim, self.reflectors.perp())

    @_cached
    def coupling(self) -> np.ndarray | None:
        # shift B_perp = a^+ b - a^+ a B_S^T B_perp = a^+ b, as B_S^T B_perp = 0
        return None if self.shift is None else self.reflectors.apply_perp(self.shift)

    @_cached
    def pinv_strip(self) -> np.ndarray:
        p = self.span.projector()
        pa = p @ self.weight.base
        return moore_penrose(pa @ p, self.tol) @ pa

    @_cached
    def pinv_matrix(self) -> np.ndarray:
        return self.pinv_strip + self.overlap.projector()

    @_cached
    def invertible_matrix(self) -> np.ndarray:
        weight = self.weight
        if weight.rank < weight.dim:
            raise Singular("the closed formula requires a weight of full rank")
        p = self.span.projector()
        q = np.eye(weight.dim) - p
        return p @ np.linalg.solve(p @ weight.base @ p + q @ weight.base @ q, weight.base)

    @_cached
    def hermitian_anchor(self) -> float:
        return 1.0 + _norm(self.weight.base)

    def hermitian_gaps(self, q: np.ndarray) -> np.ndarray:
        """``||A Q - Q^T A||`` of each matrix of an ``(m, n, n)`` stack; on a
        one-member stack, ``np.linalg.norm`` of the 2-D residual, bit for bit."""
        return _frobenius(self.weight.base @ q - q.transpose(0, 2, 1) @ self.weight.base)

    def _solved_shift(self) -> np.ndarray:
        if self.shift is None:
            raise Incompatible("the coupling equation between the blocks of the weight is unsolvable")
        return self.shift

    def apply(self, x: np.ndarray) -> np.ndarray:
        """``P x`` for the minimal projection ``P``, without forming ``P``; ``x``
        is a vector or an ``(m, n, 1)`` stack of them."""
        return self.span.basis @ (self.span.basis.T @ x + self._solved_shift() @ x)

    def member(self, coefficients) -> ObliqueProjection:
        """The family member ``P + N t B_perp^T`` of :func:`projection_family_member`."""
        t = as_matrix(coefficients, rows=self.overlap.dim, cols=self.perp.dim)
        bp = self.perp.basis
        matrix = self.projection.matrix + self.overlap.basis @ t @ bp.T
        # N(Q) = R((I - Q) B_perp), whose columns have singular values >= 1.
        null = np.linalg.qr(bp - matrix @ bp)[0]
        return ObliqueProjection(matrix, self.span, Subspace(self.weight.dim, null))

    def is_hermitian(self, projection: ObliqueProjection) -> bool:
        """The test of :func:`is_weight_hermitian`."""
        tol = self.tol
        if not subspace_equal(projection.range, self.span, tol):
            raise RangeMismatch("the projection's range differs from the given subspace")
        algebraic = _within(float(self.hermitian_gaps(projection.matrix[None])[0]), self.hermitian_anchor, tol)
        containment = contains(self.preimage, projection.nullspace, tol)
        if algebraic != containment:
            raise InconsistentDiagnostics(
                "the algebraic symmetry test and the nullspace containment test disagree"
            )
        return algebraic

    def diagnostics(self) -> CompatibilityReport:
        """The report of :func:`compatibility_diagnostics`."""
        span, tol = self.span, self.tol
        compatible = self.shift is not None
        n, r = self.weight.dim, self.weight.rank
        lam = self.weight.eigvals[:r]
        # The projection of S onto R(A), V_r R(C): the singular values of C
        # are those of P_R(A) B_S, so the cutoff relative to 1 is theirs.
        kept = _rank_from_values(self.cross_sines, tol, scale=1.0)
        projected = Subspace(r, self.cross_left[:, :kept])
        # Flag 3 from Y = R(Λ C); see CompatibilityReport.
        image = self.split[0]
        pulled = Subspace(r, np.linalg.qr(image / lam[:, None])[0] if image.size else image)
        closed = kept == span.dim - self.overlap.dim
        # Flags 2 and 4, sum_check and the re-checks are theorems; see CompatibilityReport.
        chain = (compatible, True, _equal(pulled, projected, n, tol), True, closed, closed)
        return CompatibilityReport(
            compatible=compatible,
            degenerate=self.overlap,
            preimage_of_complement=self.preimage,
            coupling=self.coupling,
            projection=self.projection if compatible else None,
            chain=chain,
            sum_check=True,
            projected_pair_compatible=True,
            shifted_pair_compatible=True,
        )


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
    return _Geometry(weight, span, tol).projection


def weighted_projection_invertible(
    weight: PsdOperator, span: Subspace, tol: Tolerance = DEFAULT_TOL
) -> ObliqueProjection:
    """Closed formula ``P (P A P + (I-P) A (I-P))^{-1} A`` for invertible weights.

    Raises
    ------
    Singular
        If the weight does not have full numerical rank.
    """
    return _certified(_Geometry(weight, span, tol).invertible_matrix, span, tol)


def weighted_projection_pinv(
    weight: PsdOperator, span: Subspace, tol: Tolerance = DEFAULT_TOL
) -> ObliqueProjection:
    """Pseudoinverse construction ``(P A P)^+ P A`` plus the overlap projector.

    ``(P A P)^+ P A`` is the minimal-norm projection onto ``S (-) N``; adding
    the orthogonal projector onto ``N`` recovers the full projection.  Always
    applicable in finite dimension, where ``P A P`` has closed range.
    """
    return _certified(_Geometry(weight, span, tol).pinv_matrix, span, tol)


def _certified(matrix: np.ndarray, span: Subspace, tol: Tolerance) -> ObliqueProjection:
    # A projection onto span with its nullspace from one SVD of its matrix.
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
    inputs are pathologically conditioned.  ``A^{-1}(S^perp)`` is read off
    the eigenvectors as for the minimal projection.

    Raises
    ------
    RangeMismatch
        If the projection's range is not ``span``.
    InconsistentDiagnostics
        If the two equivalent tests disagree numerically.
    """
    return _Geometry(weight, span, tol).is_hermitian(projection)


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
    return _Geometry(weight, span, tol).member(coefficients)


def compatibility_diagnostics(
    weight: PsdOperator, span: Subspace, tol: Tolerance = DEFAULT_TOL
) -> CompatibilityReport:
    """Evaluate the full compatibility diagnostic record for (A, S).

    See :class:`CompatibilityReport` for the coordinates each field is
    evaluated in.
    """
    return _Geometry(weight, span, tol).diagnostics()


def chain_respects_implications(chain: tuple[bool, ...]) -> bool:
    """Whether six diagnostic flags respect 1->2->4->5, 2<->3 and 5<->6."""
    c1, c2, c3, c4, c5, c6 = chain
    implications = (not c1 or c2) and (not c2 or c4) and (not c4 or c5)
    return implications and c2 == c3 and c5 == c6
