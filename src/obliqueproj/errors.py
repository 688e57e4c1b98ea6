"""Exception types raised by the library.

Every error that signals a violated mathematical precondition derives from
:class:`PreconditionError`, so callers (and the CLI) can distinguish "your
inputs do not satisfy the hypothesis of the operation" from programming
errors such as shape mismatches.
"""


class Error(Exception):
    """Base class for all library errors."""


class DimensionMismatch(Error):
    """Operands have incompatible shapes or ambient dimensions."""


class PreconditionError(Error):
    """A mathematical precondition of the requested operation fails."""


class NotPsd(PreconditionError):
    """A matrix expected to be symmetric positive semidefinite is not."""


class NoSolution(PreconditionError):
    """The operator equation has no solution (range inclusion fails)."""


class Incompatible(PreconditionError):
    """No weighted-Hermitian projection with the requested range is
    certified within tolerance: the directions of S that the angle rule
    places in N(A) are not null under the weight, ``||A N||_F > eq_abs
    ||A||``.  In finite dimension every pair is compatible; this needs a
    ``rank_rel`` above ``eq_abs / 2``."""


class Singular(PreconditionError):
    """An operation requiring full numerical rank received a singular matrix."""


class RangeMismatch(PreconditionError):
    """A projection does not have the range the operation requires."""


class WeightMismatch(PreconditionError):
    """Two range vectors are governed by different weights."""


class NotInRange(PreconditionError):
    """A vector does not belong to the range of the weight (within tolerance)."""


class NotExtendable(PreconditionError):
    """An operator does not leave the weight's nullspace invariant, so it
    induces no operator on the range space."""


class InconsistentDiagnostics(Error):
    """Two tests that must agree by theory disagreed numerically.

    This signals pathological conditioning of the inputs (or a bug), never
    a property of well-posed data.
    """
