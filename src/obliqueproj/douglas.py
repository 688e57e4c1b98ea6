"""Reduced solutions of the operator equation ``A X = B``.

The equation is solvable exactly when the column space of ``B`` is contained
in the column space of ``A``; among all solutions there is a unique one,
the reduced solution, whose rows live in the row space of ``A`` and whose
nullspace coincides with that of ``B``.  Its squared spectral norm equals
the least ``lam`` with ``B B^T <= lam A A^T``.  With closed ranges (always,
in finite dimension) the reduced solution is ``A^+ B``.

Every function here reads one solve, in which one pseudoinverse of ``A``
gives ``D = A^+ B``, its residual and the feasibility verdict.  This module
is the one home of that verdict, which the identity battery's
``reduced_solutions_coincide`` takes too.  The coupling of a weight's blocks
is not solved here: the pair record of :mod:`~obliqueproj.oblique` forms it
from the overlap's own SVD, on which it is solvable by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NoSolution
from .linalg import DEFAULT_TOL, Tolerance, _norm, _readonly, _within, as_matrix, moore_penrose, spectral_norm

__all__ = ["ReducedSolution", "range_inclusion", "reduced_solution",
           "least_squares_solution", "minimal_lambda"]


@dataclass(frozen=True)
class ReducedSolution:
    """Solution ``D`` of ``A X = B`` with minimality certificate.

    ``norm_sq`` is the squared spectral norm of ``D`` (the least ``lam``
    with ``B B^T <= lam A A^T``); ``residual`` is ``||A D - B||_F``.
    ``matrix`` is held as a read-only view.
    """

    matrix: np.ndarray
    norm_sq: float
    residual: float

    def __post_init__(self):
        object.__setattr__(self, "matrix", _readonly(self.matrix))


def _operands(a, b) -> tuple[np.ndarray, np.ndarray]:
    a, b = as_matrix(a), as_matrix(b)
    if a.shape[0] != b.shape[0]:
        raise DimensionMismatch(
            f"row counts differ: A has {a.shape[0]}, B has {b.shape[0]}"
        )
    return a, b


def _solve(a: np.ndarray, b: np.ndarray, tol: Tolerance, gate: bool) -> tuple[np.ndarray, float, bool]:
    # (D, residual, feasible) for D = A^+ B.
    return _checked(a, moore_penrose(a, tol) @ b, b, tol, gate)


def _checked(
    a: np.ndarray, d: np.ndarray, b: np.ndarray, tol: Tolerance, gate: bool
) -> tuple[np.ndarray, float, bool]:
    # (D, residual, feasible) for D = A^+ B formed by the caller: the test on
    # ||A D - B|| = ||(I - A A^+) B||, anchored at ||B||; gated, an
    # infeasible system raises NoSolution.
    residual = _norm(a @ d - b)
    feasible = _within(residual, _norm(b), tol)
    if gate and not feasible:
        raise NoSolution("R(B) is not contained in R(A); the equation AX=B is unsolvable")
    return d, residual, feasible


def _solution(a, b, tol: Tolerance, gate: bool) -> tuple[ReducedSolution, bool]:
    # One solve and the spectral norm of its D, with the feasibility verdict.
    d, residual, feasible = _solve(*_operands(a, b), tol, gate)
    return ReducedSolution(d, spectral_norm(d) ** 2, residual), feasible


def range_inclusion(b, a, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Whether the column space of ``b`` is contained in that of ``a``.

    Decided by the projector residual ``||(I - A A^+) B|| <= eq_abs ||B||``,
    which is equivalent to ``rank([A | B]) = rank(A)`` under the same cutoff.
    """
    return _solve(*_operands(a, b), tol, gate=False)[2]


def reduced_solution(a, b, tol: Tolerance = DEFAULT_TOL) -> ReducedSolution:
    """The reduced solution ``D = A^+ B`` of ``A X = B``.

    One pseudoinverse of ``A`` gives both ``D`` and the feasibility test of
    :func:`range_inclusion`; near-feasible systems are rejected rather than
    silently least-squares-solved (use :func:`least_squares_solution` to
    opt into the fallback explicitly).

    Raises
    ------
    NoSolution
        If the range inclusion fails, i.e. the equation is unsolvable.
    """
    return _solution(a, b, tol, gate=True)[0]


def least_squares_solution(a, b, tol: Tolerance = DEFAULT_TOL) -> ReducedSolution:
    """``A^+ B`` from the same solve, without the feasibility gate.

    When the equation is unsolvable this is only a least-squares minimizer
    of ``||A X - B||``, not a reduced solution; the nonzero ``residual``
    field records the defect.
    """
    return _solution(a, b, tol, gate=False)[0]


def minimal_lambda(a, b, tol: Tolerance = DEFAULT_TOL) -> float:
    """The least ``lam > 0`` with ``B B^T <= lam A A^T``.

    The ``norm_sq`` of :func:`reduced_solution`, which the infimum equals,
    rather than a semidefinite search; an independent PSD-pencil check is
    kept as a test oracle only.
    """
    return reduced_solution(a, b, tol).norm_sq
