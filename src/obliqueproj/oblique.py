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
    and they respect the implications 1->2->4->5, 2<->3, 5<->6.  Flags 1 and
    3 are evaluated; flags 2, 4, 5 and 6 hold by construction and are not.

    Every field is evaluated in the weight's eigen coordinates: with
    ``A = V_r Λ V_r^T`` and ``C = V_r^T B_S = U Σ W^T``, a subspace of R(A)
    is held by its coordinates in R^r, and one containing N(A) by those of
    its part in R(A).  Nothing n x n is decomposed.  The pair has one rank
    decision, ρ = dim A S, by the angle rule on the sines Σ (see
    ``_Geometry``): ``C_ρ = U_ρ Σ_ρ W_ρ^T`` is the part of S kept in R(A),
    and the rest spans the overlap ``N = S ∩ N(A)``.

    1. ``compatible``: the certificate on the dropped part,
       ``||A N||_F = ||Λ U_N Σ_N||_F <= eq_abs ||A||``; within it the
       coupling is solvable by construction.  Its sines lie under
       ``2 rank_rel``, so it holds whenever
       ``2 rank_rel sqrt(dim N) <= eq_abs``, at the default tolerances for
       dim N up to 2500.
    2. ``A S`` is closed inside R(A): its intersection with R(A) is itself.
       In the coordinates of V_r, ``A S = V_r R(Λ C_ρ)`` is a subspace of
       R^r, whose intersection with R^r is exact, so the flag is True.
    3. The preimage of ``A S`` equals ``S + N(A) = N(A) ⊕ V_r R(U_ρ)``.
       With ``Y`` and ``K`` orthonormal bases of ``R(Λ U_ρ)`` and its
       complement, which split R^r from one QR of ``Λ U_ρ``, the preimage
       is ``N(A) ⊕ V_r N(K^T Λ)`` and ``N(K^T Λ) = Λ^{-1} R(Y)``, whose
       basis is the Q of one reduced QR of ``Λ^{-1} Y``.  The N(A) parts
       coincide, so the two are compared in R^r with the bound of
       ``subspace_equal`` in R^n.
    4. As 2 for ``A^{1/2} S = V_r R(Λ^{1/2} C_ρ)``; True for the same reason.
    5. ``S + N(A)`` has dimension ``dim S + dim N(A) - dim(S ∩ N(A))``.
    6. The projection ``V_r R(U_ρ)`` of S onto R(A) has dimension
       ``dim S - dim(S ∩ N(A))``.  Both 5 and 6 compare ρ with
       ``dim S - dim N = ρ``, so they are True.

    ``sum_check`` states ``S + A^{-1}(S^perp) = R^n``, that is
    ``(n - r) + rank[U_ρ, K] == n``.  As
    ``[U_ρ, K] = [Y, K] [[Y^T U_ρ, 0], [K^T U_ρ, I]]``, this is
    ``rank(Y^T U_ρ) == ρ``, which holds by construction, since
    ``σ_min(Y^T U_ρ) >= λ_r / λ_1 >= rank_rel``; like flags 2 and 4 it is
    True and not evaluated.

    ``projected_pair_compatible`` and ``shifted_pair_compatible`` record
    that compatibility survives projecting S onto R(A) and enlarging S by
    N(A).  Both reduce to ``R(U^T Λ U_c) ⊆ R(U^T Λ U)``, with ``U = U_ρ``
    and ``U_c`` its complement in R^r, as the N(A) blocks add only zero
    blocks to the coupling equation.  Since
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

    In finite dimension one always exists.  The pair record decides one
    rank, that of S's image in R(A), by the angle rule, and on the part it
    keeps the coupling ``a X = b`` of the weight's blocks is solvable by
    construction.  What is left to decide is whether the part it drops, the
    overlap ``N``, is roundoff under the weight: False exactly when
    ``||A N||_F > eq_abs ||A||``, which needs ``rank_rel > eq_abs / 2``.
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
    With ``A = V_r Λ V_r^T`` and ``B_S`` the basis of S:

    - ``cross``, ``C = V_r^T B_S = U Σ W^T``; from one SVD of it,
      ``cross_left``, ``cross_sines`` (the sines of the principal angles
      between S and N(A)), ``kept``, the pair's one rank decision
      ``ρ = dim A S`` by the angle rule on those sines, and ``overlap``,
      ``N = S ∩ N(A) = B_S W_N`` from the dropped part;
    - ``root_svd``, the reduced SVD of ``Λ^{1/2} U_ρ`` (full column rank),
      whose left factor is the chart image ``R(Λ^{1/2} C_ρ)`` of ``A^{1/2} S``;
    - ``shift``, ``a^+ (B_S^T A - a B_S^T)`` for ``a = B_S^T A B_S``, from
      the kept part ``C_ρ = U_ρ Σ_ρ W_ρ^T`` in square-root form:
      ``G_ρ^+ Λ^{1/2} V_r^T - W_ρ W_ρ^T B_S^T``, ``G_ρ = Λ^{1/2} C_ρ``,
      through ``root_svd``; None when ``||A N||_F`` fails its certificate
      ``eq_abs ||A||``;
    - ``split``, ``R(Λ C_ρ)`` and its complement in R^r, from one QR of
      ``Λ U_ρ`` with no cutoff, and ``preimage``, ``A^{-1}(S^perp)``;
    - ``projection``, the minimal projection with its certified nullspace,
      whose dimensions add up to n;
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
    def kept(self) -> int:
        # The pair's one rank decision, dim S - dim N, by the angle rule.
        return _apart(self.cross_sines, self.tol)

    @_cached
    def overlap(self) -> Subspace:
        # At most dim N(A) = n - r sines lie below 1, so the angle cutoff
        # 2 rank_rel < 1 keeps N inside N(A).
        return Subspace(self.weight.dim, self.span.basis @ self._cross_svd[2][self.kept :].T)

    @_cached
    def shift(self) -> np.ndarray | None:
        weight, bs, rho, r = self.weight, self.span.basis, self.kept, self.weight.rank
        _, sines, vt = self._cross_svd
        # The certificate on the dropped part N = B_S W_N: ||A N|| =
        # ||Λ U_N Σ_N||, held to ||A||.  Within it A N is roundoff, the
        # pair is (A, S) with N in N(A), and the coupling below solves it.
        if rho < sines.size:
            dropped = weight.eigvals[:r, None] * self.cross_left[:, rho:] * sines[rho:]
            if not _within(_norm(dropped), _operator_norm(weight), self.tol):
                return None
        # a^+ (B_S^T A - a B_S^T) = G_ρ^+ Λ^{1/2} V_r^T - W_ρ W_ρ^T B_S^T for
        # G = Λ^{1/2} C cut to G_ρ = M Σ_ρ W_ρ^T, M = Λ^{1/2} U_ρ: so G_ρ^+ =
        # W_ρ Σ_ρ^{-1} M^+, and M^+ = Z s^{-1} Q^T from M's reduced SVD.
        q, s, zt = self.root_svd
        wt = vt[:rho]
        solve = (zt.T / (sines[:rho, None] * s)) @ (q.T * weight._root)
        return wt.T @ (solve @ weight.eigvecs[:, :r].T - wt @ bs.T)

    @_cached
    def root_svd(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # M = Λ^{1/2} U_ρ is r x ρ with σ_min >= sqrt(λ_r) > 0: no rank to decide.
        return _svd(self.weight._root[:, None] * self.cross_left[:, : self.kept])

    @_cached
    def split(self) -> tuple[np.ndarray, np.ndarray]:
        # A vector V_r y + z (z in N(A)) lies in A^{-1}(S^perp) exactly when
        # C_ρ^T Λ y = 0.  Λ C_ρ = Λ U_ρ Σ_ρ W_ρ^T, and Λ U_ρ has full column
        # rank ρ, so the reflectors of one QR of it split R^r into R(Λ C_ρ),
        # the coordinates Y of A S, and its complement K, with no cutoff.
        reflectors = _reflectors(self.weight.eigvals[: self.weight.rank, None] * self.cross_left[:, : self.kept])
        return reflectors.columns(0, reflectors.k), reflectors.perp()

    @_cached
    def preimage(self) -> Subspace:
        # N(A) ⊕ V_r N(C_ρ^T Λ)
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
        # preimage.basis ends with V_r·N(C_ρ^T Λ), the part outside N(A)
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
            raise Incompatible("the overlap S ∩ N(A) is not null under the weight within tolerance")
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
        compatible, tol = self.shift is not None, self.tol
        n, r = self.weight.dim, self.weight.rank
        lam = self.weight.eigvals[:r]
        # Flag 3: Λ^{-1} Y against the projection V_r R(C_ρ) of S onto R(A).
        projected = Subspace(r, self.cross_left[:, : self.kept])
        image = self.split[0]
        pulled = Subspace(r, np.linalg.qr(image / lam[:, None])[0] if image.size else image)
        # Flags 2, 4, 5 and 6, sum_check and the re-checks are theorems; see CompatibilityReport.
        chain = (compatible, True, _equal(pulled, projected, n, tol), True, True, True)
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
    ``B_S (B_S^T + a^+ (B_S^T A - a B_S^T))``; ``a^+`` is taken in
    square-root form on the part of S that the pair's one rank decision
    keeps in R(A) (see ``_Geometry``), never from ``a`` itself, whose
    forming squares the condition number.  The certified nullspace
    ``A^{-1}(S^perp) (-) N`` is read off the weight's cached eigenvectors,
    and its dimension is ``n - dim S``.

    Raises
    ------
    Incompatible
        If the overlap ``N`` the rank decision drops fails its certificate
        ``||A N||_F <= eq_abs ||A||``; see :func:`is_compatible`.
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
