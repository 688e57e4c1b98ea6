"""Numerical substrate: tolerances, pseudoinverses, subspaces and projections.

Everything downstream works on plain float64 numpy arrays.  A subspace is
held as an orthonormal basis (no lazy spans), which makes every invariant
checkable at module boundaries.  ``Subspace(n, basis)`` trusts the caller's
basis to be orthonormal; :func:`subspace_from_span` and the subspace readers
of :mod:`~obliqueproj.io` canonicalize arbitrary spanning columns into one.
All public objects are immutable values and all operations are pure
functions, so unrestricted concurrent use is safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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

    Every accept/reject decision, in the library as in the identity
    battery's records and the CLI checks, is one of four rules, each one
    private function of this module:

    - rank: a singular value at or above ``rank_rel`` times the anchor (the
      largest one, or the norm of the operator of a product) counts, a tie
      included;
    - angle: two directions meet when the sine of their principal angle
      lies strictly below ``2 * rank_rel``; a tie keeps them apart;
    - residual: a norm passes at or under ``eq_abs`` times an anchor fixed
      by the test, a tie passing; the agreement of two constructions of
      one quantity has a slack of 10 over its anchor (1, unless the
      quantity names its own);
    - sign: a value of a PSD quantity down to ``-psd_neg`` times an anchor
      (1, or ``λ_1 ||x||^2`` for a quadratic form ``x^T A x``) clips to
      zero, a tie included; a more negative one raises ``NotPsd``.

    ``rank_rel`` lies in (0, 0.5): at 0.5 the angle cutoff reaches 1 and
    orthogonal directions would meet.  ``eq_abs`` and ``psd_neg`` lie in (0, 1).
    """

    rank_rel: float = 1e-10
    eq_abs: float = 1e-8
    psd_neg: float = 1e-10

    def __post_init__(self):
        for name, upper in (("rank_rel", 0.5), ("eq_abs", 1.0), ("psd_neg", 1.0)):
            value = getattr(self, name)
            if not 0.0 < value < upper:
                raise ValueError(f"{name} must lie strictly in (0, {upper:g}), got {value!r}")


DEFAULT_TOL = Tolerance()


class _cached:
    """A field computed on first read and kept in the instance ``__dict__``.

    ``functools.cached_property`` without its lock: the value is stored the
    same way, so a frozen dataclass can hold it and later reads find it
    before the descriptor; an exception on a first read stores nothing, and
    the next read computes again.  Concurrent first reads of one field may
    each compute the same value.
    """

    def __init__(self, compute):
        self.compute, self.name, self.__doc__ = compute, compute.__name__, compute.__doc__

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.compute(instance)
        return value


_FLOAT = np.dtype(float)


def _real(values, kind: str) -> np.ndarray:
    # float64 values, a float64 array as itself; complex input raises.
    if type(values) is np.ndarray and values.dtype is _FLOAT:
        return values
    a = np.asarray(values)
    if np.iscomplexobj(a):
        raise ValueError(f"{kind} entries must be real, got {a.dtype}")
    return a.astype(float, copy=False)


def as_matrix(values, rows: int | None = None, cols: int | None = None) -> np.ndarray:
    """Validate and convert input to a finite float64 2-D array; complex input raises ValueError."""
    m = _real(values, "matrix")
    if m.ndim != 2:
        raise DimensionMismatch(f"expected a 2-D matrix, got ndim={m.ndim}")
    if rows is not None and m.shape[0] != rows:
        raise DimensionMismatch(f"expected {rows} rows, got {m.shape[0]}")
    if cols is not None and m.shape[1] != cols:
        raise DimensionMismatch(f"expected {cols} columns, got {m.shape[1]}")
    if m.size and not np.isfinite(m).all():
        raise ValueError("matrix entries must be finite (no NaN/Inf)")
    return m


def as_vector(values, dim: int | None = None) -> np.ndarray:
    """Validate and convert input to a finite float64 1-D array; complex input raises ValueError."""
    v = _real(values, "vector")
    if v.ndim != 1:
        v = v.reshape(-1)
    if dim is not None and v.shape[0] != dim:
        raise DimensionMismatch(f"expected a vector of length {dim}, got {v.shape[0]}")
    if v.size and not np.isfinite(v).all():
        raise ValueError("vector entries must be finite (no NaN/Inf)")
    return v


def spectral_norm(m) -> float:
    """Largest singular value; 0.0 for empty matrices."""
    m = as_matrix(m)
    if m.size == 0:
        return 0.0
    return float(np.linalg.norm(m, 2))


def _norm(x: np.ndarray) -> float:
    # np.linalg.norm(x) of a real float array, bit for bit: numpy takes it as
    # the square root of one dot product of the array flattened in memory
    # order, and so does this, without the wrapper.
    flat = x.ravel(order="K")
    return math.sqrt(flat.dot(flat))


def _norms(x: np.ndarray, axis) -> np.ndarray:
    # np.linalg.norm(x, axis=axis) of a real float array, bit for bit: numpy
    # takes the norms along one axis, or of each matrix over two, as this
    # square root of one add.reduce of the squares, without the wrapper.
    return np.sqrt(np.add.reduce(x * x, axis=axis))


def _frobenius(stack: np.ndarray) -> np.ndarray:
    # np.linalg.norm() of each matrix of an (m, ...) stack, bit for bit: it
    # takes each norm as one dot product of the flattened matrix, and so
    # does a 1 x k by k x 1 matmul.
    flat = stack.reshape(len(stack), 1, -1)
    return np.sqrt(flat @ flat.transpose(0, 2, 1))[:, 0, 0]


def _rank_from_values(s: np.ndarray, tol: Tolerance, scale: float | None = None) -> int:
    # Ties at the cutoff are included in the rank (deterministic behaviour).
    # ``scale`` anchors the cutoff for matrices formed as products, whose own
    # largest singular value may be pure cancellation noise.  ``s`` is one
    # row of values in descending order.
    if not s.size or not s[0] > 0.0:
        return 0
    anchor = s[0] if scale is None else np.maximum(s[0], scale)
    return int(np.count_nonzero(s >= tol.rank_rel * anchor))


def _svd(m: np.ndarray, *, full_matrices=False, compute_uv=True):
    # The guarded SVD: ``(u, s, vt)``, ``u`` and ``vt`` None without vectors.
    # An empty or exactly zero matrix has no nonzero singular value and is
    # not decomposed: ``u`` has no column, ``s`` is empty and ``vt`` is I.
    if m.size == 0 or not m.any():
        return np.zeros((m.shape[0], 0)), np.zeros(0), np.eye(m.shape[1])
    svd = np.linalg.svd(m, full_matrices=full_matrices, compute_uv=compute_uv)
    return svd if compute_uv else (None, svd, None)


def _ranked_svd(m: np.ndarray, tol: Tolerance, scale=None, *, full_matrices=False, compute_uv=True):
    # The rank rule on a matrix: ``(u, s, vt, r)``, its guarded SVD and its rank.
    u, s, vt = _svd(m, full_matrices=full_matrices, compute_uv=compute_uv)
    return u, s, vt, _rank_from_values(s, tol, scale)


def _apart(sines: np.ndarray, tol: Tolerance) -> int:
    # The angle rule of intersect(): the number of principal angles whose
    # sine is at or above 2 * rank_rel, so that their directions stay apart.
    return int(np.count_nonzero(sines >= 2.0 * tol.rank_rel))


def _within(residual, anchor, tol: Tolerance, slack: float = 1.0):
    # The residual rule: a norm, or an array of them, passes at or under
    # slack * eq_abs * anchor.
    return residual <= slack * tol.eq_abs * anchor


def _agree(gap, tol: Tolerance, anchor=1.0):
    # The residual rule on the gap between two constructions of one
    # quantity: a slack of 10 over the anchor.
    return _within(gap, anchor, tol, slack=10.0)


def _clip_sign(values, tol: Tolerance, message: str, *, first: bool = False, anchor=1.0):
    # The sign rule on the values of a PSD quantity: down to -psd_neg times
    # the anchor (1, unless the quantity names its own, or one per value)
    # they are roundoff and clip to zero; a more negative value raises
    # NotPsd with ``message`` formatted with the least such value, or with
    # ``first`` with the first one in row order, as a loop would.
    # values - floor < 0 exactly when values < floor: a difference of two
    # floats rounds to zero only when they are equal, and keeps its sign.
    floor = -tol.psd_neg * anchor
    if np.minimum.reduce(values - floor, axis=None, initial=0.0) < 0.0:
        offending = np.ravel(values)[np.ravel(np.less(values, floor))]
        raise NotPsd(message.format(offending[0] if first else offending.min()))
    return np.maximum(values, 0.0)


def numerical_rank(m, tol: Tolerance = DEFAULT_TOL) -> int:
    """Count singular values above the relative cutoff ``rank_rel * sigma_max``."""
    return _ranked_svd(as_matrix(m), tol, compute_uv=False)[3]


def _readonly(a: np.ndarray) -> np.ndarray:
    # A read-only view; the array handed in keeps its flags and is not copied.
    view = np.ascontiguousarray(a, dtype=float).view()
    view.setflags(write=False)
    return view


@dataclass(frozen=True)
class Subspace:
    """A subspace of R^n held as an orthonormal basis.

    ``basis`` has shape ``(ambient_dim, dim)`` with orthonormal columns; the
    zero subspace is represented by a ``(n, 0)`` basis.  A C-contiguous
    float64 ``basis`` is shared as a read-only view; it keeps its own flags.
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
    u, _, _, r = _ranked_svd(v, tol, scale)
    return Subspace(v.shape[0], u[:, :r])


def nullspace_of(m, tol: Tolerance = DEFAULT_TOL, *, scale: float | None = None) -> Subspace:
    """Orthonormal basis of the nullspace of a matrix.

    ``scale`` anchors the rank cutoff as in :func:`subspace_from_span`.
    """
    m = as_matrix(m)
    _, _, vt, r = _ranked_svd(m, tol, scale, full_matrices=True)
    return Subspace(m.shape[1], vt[r:].T)


def complement(s: Subspace) -> Subspace:
    """Orthogonal complement S^perp: the trailing columns of the complete QR
    of the basis, up to roundoff, formed from its Householder reflectors
    (:class:`_Reflectors`) without the n x n orthogonal factor."""
    return Subspace(s.ambient_dim, _reflectors(s.basis).perp())


@dataclass(frozen=True)
class _Reflectors:
    """The Householder reflectors of a QR of an n x k basis, compact WY.

    ``Q = H_1 ... H_k = I - V T V^T``, with ``V`` unit lower trapezoidal and
    ``T`` upper triangular from the forward recurrence of LAPACK ``dlarft``
    (Schreiber & Van Loan, SIAM J. Sci. Stat. Comput. 10, 1989).  The
    trailing ``n - k`` columns ``B_perp`` of ``Q`` are a basis of the
    complement: :meth:`perp` forms them, :meth:`apply_perp` multiplies by
    them without forming them, and :meth:`columns` forms any run of columns
    of ``Q``.  With ``k = 0`` there is no reflector and
    with ``k = n`` no trailing column; neither factorizes anything.
    """

    k: int
    v: np.ndarray
    t: np.ndarray

    def columns(self, start: int, stop: int) -> np.ndarray:
        """Columns ``start:stop`` of ``Q``, ``I[:, start:stop] - V T V[start:stop]^T``."""
        v = self.v
        if not self.t.size:
            return np.eye(v.shape[0], stop - start, -start)
        # Formed in the buffer of the product, so that no temporary of its
        # size is held beside it; 0 - x, not -x, leaves +0.0 where it is zero.
        q = v @ (self.t @ v[start:stop].T)
        np.subtract(0.0, q, out=q)
        q[start:stop].flat[:: stop - start + 1] += 1.0
        return q

    def perp(self) -> np.ndarray:
        """``B_perp = [0; I_{n-k}] - V T V[k:]^T``."""
        return self.columns(self.k, self.v.shape[0])

    def apply_perp(self, x: np.ndarray) -> np.ndarray:
        """``x B_perp = x[:, k:] - ((x V) T) V[k:]^T``, without forming ``B_perp``."""
        k = self.k
        if not self.t.size:
            return x[:, k:]
        # in the buffer of the product, as perp() does
        y = ((x @ self.v) @ self.t) @ self.v[k:].T
        return np.subtract(x[:, k:], y, out=y)


def _reflectors(basis: np.ndarray) -> _Reflectors:
    # One raw QR; V overwrites R in the n x k array LAPACK returned, and T
    # takes one column per reflector (a reflector with tau = 0 is the
    # identity and adds a zero column).
    n, k = basis.shape
    if k in (0, n):
        return _Reflectors(k, np.zeros((n, 0)), np.zeros((0, 0)))
    h, tau = np.linalg.qr(basis, mode="raw")
    v = h.T
    for i in range(k - 1):
        v[i, i + 1 :] = 0.0
    v[:k].flat[:: k + 1] = 1.0
    gram = v.T @ v
    t = np.zeros((k, k))
    t.flat[:: k + 1] = tau
    for i in range(1, k):
        t[:i, i] = -tau[i] * (t[:i, :i] @ gram[:i, i])
    return _Reflectors(k, v, t)


def _check_same_ambient(s1: Subspace, s2: Subspace) -> None:
    if s1.ambient_dim != s2.ambient_dim:
        raise DimensionMismatch(
            f"ambient dimensions differ: {s1.ambient_dim} vs {s2.ambient_dim}"
        )


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
    # n x dim s1 with n >= dim s1, so the reduced SVD has every right
    # singular vector; an exactly zero residual has every sine zero.
    _, sines, vt = _svd(b1 - b2 @ (b2.T @ b1))
    # the right singular vectors whose sine lies strictly below the cutoff
    return Subspace(s1.ambient_dim, b1 @ vt[_apart(sines, tol) :].T)


def subspace_sum(s1: Subspace, s2: Subspace, tol: Tolerance = DEFAULT_TOL) -> Subspace:
    """Span of the union of the two bases."""
    _check_same_ambient(s1, s2)
    return subspace_from_span(np.hstack([s1.basis, s2.basis]), tol)


def contains(outer: Subspace, inner: Subspace, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Whether ``inner`` is contained in ``outer`` within tolerance."""
    _check_same_ambient(outer, inner)
    return bool(_contains_bases(outer, inner.basis, tol))


def _contains_bases(outer: Subspace, bases: np.ndarray, tol: Tolerance) -> np.ndarray:
    # The test of contains() on an orthonormal (n, m) basis, or on a stack of
    # them, one verdict each; zero columns leave the residual unchanged.
    residual = bases - outer.projector() @ bases
    return _within(_norms(residual, (-2, -1)), outer.ambient_dim, tol)


def subspace_equal(s1: Subspace, s2: Subspace, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Basis-independent equality: Frobenius distance between projectors."""
    _check_same_ambient(s1, s2)
    return _equal(s1, s2, s1.ambient_dim, tol)


def _equal(s1: Subspace, s2: Subspace, n: int, tol: Tolerance) -> bool:
    # The test of subspace_equal() with the bound of R^n, also for subspaces
    # of R(A) held in the coordinates of V_r: V_r has orthonormal columns,
    # so their projector distance is that of the subspaces of R^n.
    return _within(_norm(s1.projector() - s2.projector()), n, tol)


@dataclass(frozen=True)
class ObliqueProjection:
    """An idempotent matrix, held as :class:`Subspace` holds its basis, with certified range and nullspace."""

    matrix: np.ndarray
    range: Subspace
    nullspace: Subspace

    def __post_init__(self):
        _check_same_ambient(self.range, self.nullspace)
        n = self.range.ambient_dim
        object.__setattr__(self, "matrix", _readonly(as_matrix(self.matrix, n, n)))

    def verify(self, tol: Tolerance = DEFAULT_TOL) -> bool:
        """Check idempotency and the range/nullspace certificates."""
        p, n, rb = self.matrix, self.range.ambient_dim, self.range.basis
        gaps = (p @ p - p, p @ rb - rb, p @ self.nullspace.basis)
        ok = all(_within(_norm(g), n, tol) for g in gaps)
        return ok and self.range.dim + self.nullspace.dim == n


def moore_penrose(w, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Moore-Penrose pseudoinverse via SVD with the relative rank cutoff.

    Satisfies the four Penrose identities within tolerance; characterized by
    ``W W+ = P_{R(W)}`` and ``W+ W = P_{R(W^T)}``.
    """
    u, s, vt, r = _ranked_svd(as_matrix(w), tol)
    return (vt[:r].T / s[:r]) @ u[:, :r].T


@dataclass(frozen=True)
class PsdOperator:
    """A symmetric positive semidefinite matrix with cached spectral data.

    :meth:`from_matrix` performs one eigendecomposition and derives the
    numerical rank.  The square root, the range projector and the range and
    null subspaces are derived on first read and kept read-only: the chart
    helpers and the battery read them; the projection, diagnostics and spline
    entry points read none.  So is ``_root``, the square roots ``Λ^{1/2}``
    of the kept eigenvalues, the one place they are taken: in the chart,
    ``A^{1/2}`` acts as their diagonal.  In finite dimension the ranges of
    ``A`` and ``A^{1/2}`` coincide, spanned by the leading eigenvectors.
    Built directly, it shares the arrays passed as a :class:`Subspace` basis
    is shared; :meth:`from_matrix` keeps its own copy of the caller's matrix.
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

    @_cached
    def range_subspace(self) -> Subspace:
        return Subspace(self.dim, self.eigvecs[:, : self.rank])

    @_cached
    def _root(self) -> np.ndarray:
        return _readonly(np.sqrt(self.eigvals[: self.rank]))

    @_cached
    def sqrt(self) -> np.ndarray:
        vr = self.range_subspace.basis
        return _readonly((vr * self._root) @ vr.T)

    @_cached
    def range_proj(self) -> np.ndarray:
        return _readonly(self.range_subspace.projector())

    @_cached
    def null_subspace(self) -> Subspace:
        return Subspace(self.dim, self.eigvecs[:, self.rank :])

    @classmethod
    def from_matrix(cls, matrix, tol: Tolerance = DEFAULT_TOL) -> "PsdOperator":
        """Build from a symmetric PSD matrix.

        ``base`` is a copy of the caller's ``matrix``, whose flags stay as they are.

        Raises
        ------
        NotPsd
            If the matrix is not symmetric within ``eq_abs`` or has an
            eigenvalue below ``-psd_neg``.  Eigenvalues in ``[-psd_neg, 0)``
            are clipped to zero.
        """
        m = as_matrix(matrix)
        n = m.shape[0]
        if m.shape[1] != n:
            raise DimensionMismatch(f"weight matrix must be square, got {m.shape}")
        # On m times 2^-e, max|m| < 2^e: the scaling is exact, so it moves no
        # decision, and no square in the norms and no sum overflows.
        e = max(math.frexp(np.abs(m).max(initial=0.0))[1], 0)
        s = m * 2.0**-e
        if not _within(_norm(s - s.T), 2.0**-e + _norm(s), tol):
            raise NotPsd("weight matrix is not symmetric within tolerance")
        s = (s + s.T) * 2.0 ** (e - 1)  # (m + m^T) / 2
        w, v = np.linalg.eigh(s)
        w = _clip_sign(w[::-1], tol, "weight matrix has negative eigenvalue {:.3e}")
        v = v[:, ::-1]
        r = _rank_from_values(w, tol)
        # Eigenvalues under the rank cutoff are solver noise around zero;
        # zeroing them keeps the square root exactly null on the computed
        # nullspace (sqrt would otherwise amplify 1e-16 noise to 1e-8).
        w[r:] = 0.0
        # copied after eigh to stay off its peak
        return cls(base=m.copy(), eigvals=w, eigvecs=v, rank=r)


def _operator_norm(weight: PsdOperator) -> float:
    # ||A|| = λ_1, the anchor of rank cutoffs on products with A; 0.0 for
    # the operator on R^0.
    return float(weight.eigvals[0]) if weight.dim else 0.0
