"""Numerical substrate: tolerances, pseudoinverses, subspaces and projections.

Everything downstream works on plain float64 numpy arrays.  Subspaces are
canonicalized to orthonormal bases at construction (no lazy spans), which
makes every invariant checkable at module boundaries.  All public objects
are immutable values and all operations are pure functions, so unrestricted
concurrent use is safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatch, NotPsd

__all__ = [
    "Tolerance",
    "DEFAULT_TOL",
    "Subspace",
    "PsdOperator",
    "ObliqueProjection",
    "as_matrix",
    "as_vector",
    "spectral_norm",
    "numerical_rank",
    "subspace_from_span",
    "nullspace_of",
    "complement",
    "intersect",
    "subspace_sum",
    "contains",
    "subspace_equal",
    "moore_penrose",
]


@dataclass(frozen=True)
class Tolerance:
    """Numerical thresholds shared by every operation.

    Parameters
    ----------
    rank_rel : float
        Relative singular-value cutoff for rank decisions; a singular value
        sitting exactly at ``rank_rel * sigma_max`` still counts toward the
        rank (exclusion is strict).  Intersections map it onto principal
        angles: two directions meet when the sine of their angle lies
        strictly below ``2 * rank_rel``, and a sine exactly at the cutoff
        keeps them apart (see :func:`intersect`).
    eq_abs : float
        Absolute threshold for matrix/vector equality tests.
    psd_neg : float
        Magnitude below which negative eigenvalues are clipped to zero.
    """

    rank_rel: float = 1e-10
    eq_abs: float = 1e-8
    psd_neg: float = 1e-10

    def __post_init__(self):
        for name in ("rank_rel", "eq_abs", "psd_neg"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ValueError(f"{name} must lie strictly in (0, 1), got {value!r}")


DEFAULT_TOL = Tolerance()


def as_matrix(values, rows: int | None = None, cols: int | None = None) -> np.ndarray:
    """Validate and convert input to a finite float64 2-D array."""
    m = np.asarray(values, dtype=float)
    if m.ndim != 2:
        raise DimensionMismatch(f"expected a 2-D matrix, got ndim={m.ndim}")
    if rows is not None and m.shape[0] != rows:
        raise DimensionMismatch(f"expected {rows} rows, got {m.shape[0]}")
    if cols is not None and m.shape[1] != cols:
        raise DimensionMismatch(f"expected {cols} columns, got {m.shape[1]}")
    if m.size and not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite (no NaN/Inf)")
    return m


def as_vector(values, dim: int | None = None) -> np.ndarray:
    """Validate and convert input to a finite float64 1-D array."""
    v = np.asarray(values, dtype=float).reshape(-1)
    if dim is not None and v.shape[0] != dim:
        raise DimensionMismatch(f"expected a vector of length {dim}, got {v.shape[0]}")
    if v.size and not np.all(np.isfinite(v)):
        raise ValueError("vector entries must be finite (no NaN/Inf)")
    return v


def spectral_norm(m) -> float:
    """Largest singular value; 0.0 for empty matrices."""
    m = as_matrix(m)
    if m.size == 0:
        return 0.0
    return float(np.linalg.norm(m, 2))


def _frobenius(stack: np.ndarray) -> np.ndarray:
    # np.linalg.norm() of each matrix of an (m, ...) stack, bit for bit: it
    # takes each norm as one dot product of the flattened matrix, and so
    # does a 1 x k by k x 1 matmul.
    flat = stack.reshape(len(stack), 1, -1)
    return np.sqrt(flat @ flat.transpose(0, 2, 1))[:, 0, 0]


def _rank_from_values(s: np.ndarray, tol: Tolerance, scale: float | None = None) -> int | np.ndarray:
    # Ties at the cutoff are included in the rank (deterministic behaviour).
    # ``scale`` anchors the cutoff for matrices formed as products, whose own
    # largest singular value may be pure cancellation noise.  ``s`` is one
    # row of values in descending order, or an (m, k) stack of rows from a
    # stacked SVD, which gives an array of m ranks.
    if s.shape[-1] == 0:
        return np.zeros(s.shape[:-1], dtype=int) if s.ndim > 1 else 0
    lead = s[..., 0]
    anchor = lead if scale is None else np.maximum(lead, scale)
    kept = np.count_nonzero(s.T >= tol.rank_rel * anchor, axis=0 if s.ndim > 1 else None)
    ranks = kept * (lead > 0.0)
    return ranks if s.ndim > 1 else int(ranks)


def numerical_rank(m, tol: Tolerance = DEFAULT_TOL) -> int:
    """Count singular values above the relative cutoff ``rank_rel * sigma_max``."""
    m = as_matrix(m)
    if m.size == 0 or not m.any():
        return 0
    s = np.linalg.svd(m, compute_uv=False)
    return _rank_from_values(s, tol)


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=float)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Subspace:
    """A subspace of R^n held as an orthonormal basis.

    ``basis`` has shape ``(ambient_dim, dim)`` with orthonormal columns; the
    zero subspace is represented by a ``(n, 0)`` basis.
    """

    ambient_dim: int
    basis: np.ndarray

    def __post_init__(self):
        b = as_matrix(self.basis, rows=self.ambient_dim)
        object.__setattr__(self, "basis", _readonly(b))

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def projector(self) -> np.ndarray:
        """The orthogonal projector matrix onto this subspace."""
        return self.basis @ self.basis.T


def subspace_from_span(
    vectors, tol: Tolerance = DEFAULT_TOL, *, scale: float | None = None
) -> Subspace:
    """Subspace spanned by the columns of ``vectors`` (may be rank deficient).

    ``scale`` optionally anchors the rank cutoff; pass the norm of the
    original operator when the columns are images under it, so that columns
    consisting of cancellation noise do not inflate the dimension.
    """
    v = as_matrix(vectors)
    n = v.shape[0]
    if v.shape[1] == 0 or not v.any():
        return Subspace(n, np.zeros((n, 0)))
    u, s, _ = np.linalg.svd(v, full_matrices=False)
    r = _rank_from_values(s, tol, scale)
    return Subspace(n, u[:, :r])


def nullspace_of(m, tol: Tolerance = DEFAULT_TOL, *, scale: float | None = None) -> Subspace:
    """Orthonormal basis of the nullspace of a matrix.

    ``scale`` anchors the rank cutoff as in :func:`subspace_from_span`.
    """
    m = as_matrix(m)
    return Subspace(m.shape[1], _split_rows(m, tol, scale)[1])


def _split_rows(m: np.ndarray, tol: Tolerance, scale: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    # Orthonormal bases of the row space and of the nullspace of ``m``, as
    # columns, from one complete SVD with the cutoff of nullspace_of().
    n = m.shape[1]
    if m.size == 0 or not m.any():
        return np.zeros((n, 0)), np.eye(n)
    _, s, vt = np.linalg.svd(m, full_matrices=True)
    r = _rank_from_values(s, tol, scale)
    return vt[:r].T, vt[r:].T


def complement(s: Subspace) -> Subspace:
    """Orthogonal complement S^perp: Householder reflectors, compact WY; same
    frame as the complete QR.

    The trailing ``n - k`` columns of ``Q = H_1 ... H_k = I - V T V^T``, with
    ``V`` the reflectors of a QR of the basis and ``T`` from the forward
    recurrence of LAPACK ``dlarft`` (Schreiber & Van Loan, SIAM J. Sci.
    Stat. Comput. 10, 1989).  They equal the trailing columns of the
    complete QR up to roundoff, without forming its n x n factor.  A
    reflector with ``tau = 0`` is the identity and adds a zero column to T.
    With ``k = 0`` there is no reflector and with ``k = n`` no trailing
    column, so neither factorizes anything.
    """
    n, k = s.ambient_dim, s.dim
    if k in (0, n):
        return Subspace(n, np.eye(n, n - k))
    h, tau = np.linalg.qr(s.basis, mode="raw")
    # V, unit lower trapezoidal, overwrites R in the n x k array LAPACK returned.
    v = h.T
    v[:k] = np.tril(v[:k], -1)
    np.fill_diagonal(v, 1.0)
    gram = v.T @ v
    t = np.diag(tau)
    for i in range(1, k):
        t[:i, i] = -tau[i] * (t[:i, :i] @ gram[:i, i])
    # Q [0; I_{n-k}] = [0; I_{n-k}] - V T V[k:]^T, formed in the buffer of the
    # product so that no n x (n-k) temporary is held beside it; 0 - x, not
    # -x, leaves +0.0 where the product is zero.
    q = v @ (t @ v[k:].T)
    np.subtract(0.0, q, out=q)
    q[k:].flat[:: n - k + 1] += 1.0
    return Subspace(n, q)


def _check_same_ambient(s1: Subspace, s2: Subspace) -> None:
    if s1.ambient_dim != s2.ambient_dim:
        raise DimensionMismatch(
            f"ambient dimensions differ: {s1.ambient_dim} vs {s2.ambient_dim}"
        )


def _sine_svd(residual: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    # ``residual`` holds what is left of an orthonormal basis after the
    # other subspace is projected out, in any orthonormal coordinates; its
    # singular values are the sines of the principal angles (columns beyond
    # its row count have sine zero).  Returns its SVD with every right
    # singular vector.  A residual that is exactly zero has every sine zero
    # and needs no decomposition.
    rows, cols = residual.shape
    if rows == 0 or cols == 0 or not residual.any():
        return np.zeros((rows, 0)), np.zeros(0), np.eye(cols)
    return np.linalg.svd(residual, full_matrices=rows < cols)


def _apart(sines: np.ndarray, tol: Tolerance) -> int:
    # The angle cutoff of intersect(): the number of principal angles whose
    # sine is at or above 2 * rank_rel, so that their directions stay apart.
    return int(np.count_nonzero(sines >= 2.0 * tol.rank_rel))


def _meet_coordinates(sines: np.ndarray, vt: np.ndarray, tol: Tolerance) -> np.ndarray:
    # From _sine_svd(): the combinations of the basis whose sine lies
    # strictly below the cutoff, as orthonormal columns.
    return vt[_apart(sines, tol):].T


def intersect(s1: Subspace, s2: Subspace, tol: Tolerance = DEFAULT_TOL) -> Subspace:
    """Intersection, read off the principal angles between the subspaces.

    With ``B1`` the basis of the smaller subspace (``s1`` on a tie) and
    ``B2`` the other, the singular values of ``B1 - B2 (B2^T B1)`` are the
    sines of the principal angles, accurate for small angles (Björck &
    Golub, Math. Comp. 27, 1973).  The right singular vectors whose sine
    lies strictly below ``2 * rank_rel`` span the intersection; a sine
    exactly at the cutoff keeps its direction out.  This is the rank
    decision on the sum of the complements: a direction meeting at angle
    ``theta`` leaves a singular value of about ``theta / sqrt(2)`` there,
    against a cutoff of about ``rank_rel * sqrt(2)``, and a singular value
    at a cutoff counts toward the rank of the sum.
    """
    _check_same_ambient(s1, s2)
    if s1.dim > s2.dim:
        s1, s2 = s2, s1
    b1, b2 = s1.basis, s2.basis
    _, sines, vt = _sine_svd(b1 - b2 @ (b2.T @ b1))
    return Subspace(s1.ambient_dim, b1 @ _meet_coordinates(sines, vt, tol))


def subspace_sum(s1: Subspace, s2: Subspace, tol: Tolerance = DEFAULT_TOL) -> Subspace:
    """Span of the union of the two bases."""
    _check_same_ambient(s1, s2)
    return subspace_from_span(np.hstack([s1.basis, s2.basis]), tol)


def contains(outer: Subspace, inner: Subspace, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Whether ``inner`` is contained in ``outer`` within tolerance."""
    _check_same_ambient(outer, inner)
    if inner.dim == 0:
        return True
    return bool(_contains_bases(outer, inner.basis, tol))


def _contains_bases(outer: Subspace, bases: np.ndarray, tol: Tolerance) -> np.ndarray:
    # The test of contains() on an orthonormal (n, m) basis, or on a stack of
    # them, one verdict each; zero columns leave the residual unchanged.
    residual = bases - outer.projector() @ bases
    return np.linalg.norm(residual, axis=(-2, -1)) <= tol.eq_abs * outer.ambient_dim


def subspace_equal(s1: Subspace, s2: Subspace, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Basis-independent equality: Frobenius distance between projectors."""
    _check_same_ambient(s1, s2)
    gap = np.linalg.norm(s1.projector() - s2.projector())
    return float(gap) <= tol.eq_abs * s1.ambient_dim


@dataclass(frozen=True)
class ObliqueProjection:
    """An idempotent matrix with certified range and nullspace subspaces."""

    matrix: np.ndarray
    range: Subspace
    nullspace: Subspace

    def __post_init__(self):
        n = self.range.ambient_dim
        object.__setattr__(self, "matrix", _readonly(as_matrix(self.matrix, n, n)))

    def verify(self, tol: Tolerance = DEFAULT_TOL) -> bool:
        """Check idempotency and the range/nullspace certificates."""
        p, n = self.matrix, self.range.ambient_dim
        ok = np.linalg.norm(p @ p - p) <= tol.eq_abs * n
        ok &= np.linalg.norm(p @ self.range.basis - self.range.basis) <= tol.eq_abs * n
        ok &= np.linalg.norm(p @ self.nullspace.basis) <= tol.eq_abs * n
        ok &= self.range.dim + self.nullspace.dim == n
        return bool(ok)


def moore_penrose(w, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Moore-Penrose pseudoinverse via SVD with the relative rank cutoff.

    Satisfies the four Penrose identities within tolerance; characterized by
    ``W W+ = P_{R(W)}`` and ``W+ W = P_{R(W^T)}``.
    """
    w = as_matrix(w)
    if w.size == 0 or not w.any():
        return np.zeros((w.shape[1], w.shape[0]))
    u, s, vt = np.linalg.svd(w, full_matrices=False)
    r = _rank_from_values(s, tol)
    return (vt[:r].T / s[:r]) @ u[:, :r].T


@dataclass(frozen=True)
class PsdOperator:
    """A symmetric positive semidefinite matrix with cached spectral data.

    :meth:`from_matrix` performs one eigendecomposition and derives the
    numerical rank.  The square root, the pseudoinverses, the range projector
    and the range and null subspaces are derived on first read and kept
    read-only: the chart helpers and the battery read them, the projection,
    diagnostics and spline entry points do not.  In finite dimension the
    ranges of ``A`` and ``A^{1/2}`` coincide, spanned by the leading eigenvectors.
    """

    base: np.ndarray
    eigvals: np.ndarray
    eigvecs: np.ndarray
    rank: int

    def __post_init__(self):
        for name in ("base", "eigvals", "eigvecs"):
            object.__setattr__(self, name, _readonly(np.asarray(getattr(self, name), dtype=float)))

    @property
    def dim(self) -> int:
        return self.base.shape[0]

    @cached_property
    def range_subspace(self) -> Subspace:
        return Subspace(self.dim, self.eigvecs[:, : self.rank])

    @cached_property
    def sqrt(self) -> np.ndarray:
        vr = self.range_subspace.basis
        return _readonly((vr * np.sqrt(self.eigvals[: self.rank])) @ vr.T)

    @cached_property
    def pinv(self) -> np.ndarray:
        vr = self.range_subspace.basis
        return _readonly((vr / self.eigvals[: self.rank]) @ vr.T)

    @cached_property
    def sqrt_pinv(self) -> np.ndarray:
        vr = self.range_subspace.basis
        return _readonly((vr / np.sqrt(self.eigvals[: self.rank])) @ vr.T)

    @cached_property
    def range_proj(self) -> np.ndarray:
        return _readonly(self.range_subspace.projector())

    @cached_property
    def null_subspace(self) -> Subspace:
        return Subspace(self.dim, self.eigvecs[:, self.rank :])

    @classmethod
    def from_matrix(cls, matrix, tol: Tolerance = DEFAULT_TOL) -> "PsdOperator":
        """Build from a symmetric PSD matrix.

        Raises
        ------
        NotPsd
            If the matrix is not symmetric within ``eq_abs`` or has an
            eigenvalue below ``-psd_neg``.  Eigenvalues in ``(-psd_neg, 0)``
            are clipped to zero.
        """
        m = as_matrix(matrix)
        n = m.shape[0]
        if m.shape[1] != n:
            raise DimensionMismatch(f"weight matrix must be square, got {m.shape}")
        scale = 1.0 + float(np.linalg.norm(m))
        if np.linalg.norm(m - m.T) > tol.eq_abs * scale:
            raise NotPsd("weight matrix is not symmetric within tolerance")
        w, v = np.linalg.eigh((m + m.T) / 2.0)
        w, v = w[::-1], v[:, ::-1]
        if w.size and w[-1] < -tol.psd_neg:
            raise NotPsd(f"weight matrix has negative eigenvalue {w[-1]:.3e}")
        w = np.clip(w, 0.0, None)
        r = _rank_from_values(w, tol)
        # Eigenvalues under the rank cutoff are solver noise around zero;
        # zeroing them keeps the square root exactly null on the computed
        # nullspace (sqrt would otherwise amplify 1e-16 noise to 1e-8).
        w[r:] = 0.0
        return cls(base=m, eigvals=w, eigvecs=v, rank=r)


def _operator_norm(weight: PsdOperator) -> float:
    # ||A|| = λ_1, the anchor of rank cutoffs on products with A; 0.0 for
    # the operator on R^0.
    return float(weight.eigvals[0]) if weight.dim else 0.0
