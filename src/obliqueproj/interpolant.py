"""Minimal-seminorm interpolants: least squares with a singular PSD weight.

For a factor ``T`` with ``A = T^T T``, the interpolants of ``x`` along a
subspace ``S`` are the minimizers of ``||T z||`` over the affine set
``x + S`` (equivalently, of the seminorm ``|z|_A``).  The minimizer set is
an affine subspace ``z* + N`` with ``N = S ∩ N(A)``; it collapses to a
point exactly when that overlap is trivial, and the minimal-Euclidean-norm
member is ``(I - P) x`` for the weighted projection ``P`` onto ``S``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    PsdOperator,
    Subspace,
    Tolerance,
    _clip_sign,
    _operator_norm,
    _readonly,
    as_matrix,
    as_vector,
    intersect,
    moore_penrose,
    nullspace_of,
)
from .oblique import _Geometry

_NEGATIVE_FORM = "the quadratic form is negative ({:.3e}); the weight is not PSD"


@dataclass(frozen=True)
class SplineResult:
    """Outcome of a minimal-seminorm interpolation.

    ``minimizer`` is the minimal-Euclidean-norm optimum, ``value`` the
    attained seminorm, ``unique`` whether the optimum set is a single point,
    and ``freedom`` the subspace ``S ∩ N(A)`` of directions along which the
    optimum is degenerate (the full solution set is ``minimizer + freedom``).
    ``minimizer`` is held as a read-only view.
    """

    minimizer: np.ndarray
    value: float
    unique: bool
    freedom: Subspace

    def __post_init__(self):
        object.__setattr__(self, "minimizer", _readonly(self.minimizer))


def seminorm(weight: PsdOperator, x, tol: Tolerance = DEFAULT_TOL) -> float:
    """The seminorm ``|x|_A = <Ax, x>^{1/2}`` induced by the weight.

    Quadratic forms in ``[-psd_neg λ_1 ||x||^2, 0)`` are clipped to zero,
    with ``λ_1 = ||A||``; anything more negative raises ``NotPsd``.
    """
    x = as_vector(x, weight.dim)
    form, anchor = float(x @ (weight.base @ x)), _operator_norm(weight) * float(x @ x)
    return float(np.sqrt(_clip_sign(form, tol, _NEGATIVE_FORM, anchor=anchor)))


def spline(t_factor, span: Subspace, x, tol: Tolerance = DEFAULT_TOL) -> SplineResult:
    """Minimize ``||T (x + s)||`` over ``s`` in the subspace.

    The weight is always formed as ``T^T T``; use :func:`spline_with_weight`
    to pass a PSD weight directly.  The minimizer is ``(I - P) x`` for the
    weighted projection ``P``, which is the unique optimum of minimal
    Euclidean norm.  The optimum set is nonempty for every ``x`` exactly
    when the pair (weight, subspace) is compatible, which finite dimension
    guarantees.  ``x`` already in the subspace is a normal degenerate case
    (zero minimizer), not an error.
    """
    t = as_matrix(t_factor, cols=span.ambient_dim)
    x = as_vector(x, span.ambient_dim)
    return _spline(_Geometry(PsdOperator.from_matrix(t.T @ t, tol), span, tol), x)


def spline_with_weight(
    weight: PsdOperator, span: Subspace, x, tol: Tolerance = DEFAULT_TOL
) -> SplineResult:
    """Entry point taking the PSD weight, equivalent to ``T = A^{1/2}``.

    Works on the weight's own eigendecomposition; nothing is decomposed again.
    """
    x = as_vector(x, span.ambient_dim)
    return _spline(_Geometry(weight, span, tol), x)


def _spline(geometry: _Geometry, x: np.ndarray) -> SplineResult:
    """The interpolant of a validated ``x`` on a pair already decomposed.

    The minimizer is ``x - P x``, applied through ``geometry.apply`` without
    forming ``P``; its seminorm, the overlap and the uniqueness verdict are
    read off the same geometry.
    """
    minimizer = x - geometry.apply(x)
    freedom = geometry.overlap
    return SplineResult(
        minimizer=minimizer,
        value=seminorm(geometry.weight, minimizer, geometry.tol),
        unique=freedom.dim == 0,
        freedom=freedom,
    )


def spline_by_normal_equations(t_factor, span: Subspace, x, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Independent solver for the same minimization, used to validate :func:`spline`.

    Solves ``min_c ||T (x + B c)||`` by pseudoinverse normal equations over
    the coefficient vector, then picks the minimal-Euclidean-norm member of
    the optimum set (the set is an affine translate of ``S ∩ N(T)``).  The
    pseudoinverse of ``T B``, ``N(T)`` and ``S ∩ N(T)`` do not depend on
    ``x`` and are factorized once; only the coefficients, the optimum and
    its projection onto ``S ∩ N(T)`` are formed from ``x``.
    """
    t = as_matrix(t_factor, cols=span.ambient_dim)
    x = as_vector(x, span.ambient_dim)
    return _normal_equations(t, span, tol).solve(x)


@dataclass(frozen=True)
class _NormalEquations:
    """The ``x``-independent part of :func:`spline_by_normal_equations`:
    the factor ``T``, the basis ``B`` of ``S``, the pseudoinverse of ``T B``
    and the orthogonal projector onto ``S ∩ N(T)``."""

    t: np.ndarray
    basis: np.ndarray
    pinv: np.ndarray
    freedom: np.ndarray

    def solve(self, x: np.ndarray) -> np.ndarray:
        """The minimal-Euclidean-norm optimum for a validated ``x``, a vector
        or an ``(m, n, 1)`` stack of them."""
        coeff = self.pinv @ (-(self.t @ x))
        optimum = x + self.basis @ coeff
        return optimum - self.freedom @ optimum


def _normal_equations(t: np.ndarray, span: Subspace, tol: Tolerance) -> _NormalEquations:
    pinv = moore_penrose(t @ span.basis, tol)
    freedom = intersect(span, nullspace_of(t, tol), tol).projector()
    return _NormalEquations(t, span.basis, pinv, freedom)
