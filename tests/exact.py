"""An exact reference for integer pairs, in rational arithmetic.

Every other check of the suite compares float64 with float64.  Here the
answers are exact: the pair is built from integers, and the reference
computes in ``fractions.Fraction`` from the stdlib.  This module imports
nothing of ``obliqueproj`` and no numpy linear algebra, so it can arbitrate
the library's decisions; ``rng`` is any object with numpy's
``Generator.integers``.

A matrix is a list of rows.  :func:`make_integer_pair` takes ``A = F F^T``
with ``F`` an integer n x r matrix, so ``A`` is exactly PSD of rank
``rank F``, and S spanned by integer columns, ``overlap`` of them integer
vectors of ``N(A)``.  Every entry is an integer below ``2^53`` in
magnitude, so the float64 input the library sees carries no rounding.  The
minimal weight-Hermitian projection is then rational,

    P = (P_S A P_S)^+ P_S A + P_N,   N = S ∩ N(A),

with each pseudoinverse taken from a full-rank factorization
``M = B C`` (``B`` the pivot columns of ``M``, ``C`` the nonzero rows of
its reduced row echelon form): ``M^+ = C^T (C C^T)^{-1} (B^T B)^{-1} B^T``.

``p`` makes a pair adversarial: F's columns are scaled by ``10^j`` with
``j <= p // 2``, and each overlap direction ``v`` is tilted to
``10^p v + e`` with ``e`` in ``{-1, 0, 1}^n``, so it lies near N(A) but,
unless ``e = 0``, not in it.  ``p = 0`` draws the benign family.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm

EXACT_LIMIT = 2**53


def transpose(m: list, cols: int) -> list:
    """The transpose of a matrix with ``cols`` columns (needed when it has no row)."""
    return [list(column) for column in zip(*m)] if m else [[] for _ in range(cols)]


def _integral(m: list) -> tuple[int, list]:
    # (d, d m) with d the least common denominator of the entries of m
    d = lcm(*(Fraction(x).denominator for row in m for x in row))
    return d, [[int(x * d) for x in row] for row in m]


def matmul(a: list, b: list, cols: int) -> list:
    """``a b``, with ``cols`` the number of columns of ``b``; the sums run
    over integers, with one common denominator per factor."""
    (da, ia), (db, ib) = _integral(a), _integral(b)
    bt = transpose(ib, cols)
    return [[Fraction(sum(x * y for x, y in zip(row, column)), da * db) for column in bt] for row in ia]


def rref(m: list, cols: int) -> tuple[list, list]:
    """The reduced row echelon form of ``m`` over the rationals, and its pivot columns."""
    rows = [[Fraction(x) for x in row] for row in m]
    pivots, top = [], 0
    for c in range(cols):
        lead = next((i for i in range(top, len(rows)) if rows[i][c]), None)
        if lead is None:
            continue
        rows[top], rows[lead] = rows[lead], rows[top]
        pivot = rows[top][c]
        rows[top] = [x / pivot for x in rows[top]]
        for i, row in enumerate(rows):
            if i != top and row[c]:
                factor = row[c]
                rows[i] = [x - factor * y for x, y in zip(row, rows[top])]
        pivots.append(c)
        top += 1
    return rows[:top], pivots


def rank(m: list, cols: int) -> int:
    return len(rref(m, cols)[1])


def nullspace(m: list, cols: int) -> list:
    """A basis of ``N(m)`` as integer columns, one list per vector."""
    reduced, pivots = rref(m, cols)
    basis = []
    for free in (c for c in range(cols) if c not in pivots):
        v = [Fraction(0)] * cols
        v[free] = Fraction(1)
        for row, c in zip(reduced, pivots):
            v[c] = -row[free]
        scale = lcm(*(x.denominator for x in v))
        basis.append([int(x * scale) for x in v])
    return basis


def inverse(m: list) -> list:
    """The inverse of an invertible square matrix, by Gauss-Jordan elimination."""
    n = len(m)
    augmented = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    reduced, pivots = rref(augmented, 2 * n)
    assert pivots[:n] == list(range(n)), "singular matrix"
    return [row[n:] for row in reduced]


def pinv(m: list, rows: int, cols: int) -> list:
    """The Moore-Penrose pseudoinverse of a ``rows x cols`` matrix, from a full-rank factorization."""
    reduced, pivots = rref(m, cols)
    if not pivots:
        return [[Fraction(0)] * rows for _ in range(cols)]
    r = len(pivots)
    b = [[row[c] for c in pivots] for row in m]
    ct, bt = transpose(reduced, cols), transpose(b, r)
    left = matmul(ct, inverse(matmul(reduced, ct, r)), r)
    right = matmul(inverse(matmul(bt, b, r)), bt, rows)
    return matmul(left, right, rows)


def projector(columns: list, n: int) -> list:
    """The orthogonal projector onto the span of integer vectors of length ``n``."""
    b = transpose(columns, n)
    return matmul(b, pinv(b, n, len(columns)), n)


@dataclass(frozen=True)
class ExactPair:
    """An integer pair: the weight ``a = f f^T`` and the spanning vectors of S.

    ``f`` and ``a`` are lists of integer rows, ``span`` a list of integer
    vectors.  Every property is exact.
    """

    n: int
    f: list
    a: list
    span: list

    @cached_property
    def rank(self) -> int:
        """The rank of ``A``, that of ``F``."""
        return rank(self.f, len(self.f[0]))

    @cached_property
    def span_dim(self) -> int:
        return rank(self.span, self.n)

    @cached_property
    def overlap(self) -> list:
        """A basis of ``N = S ∩ N(A)`` as integer vectors: the ``B c`` for
        ``c`` in ``N(A B)``, ``B`` the spanning vectors as columns, less
        those that depend on the others (``B`` may be rank deficient)."""
        k = len(self.span)
        image = matmul(self.a, transpose(self.span, self.n), k)
        vectors = [
            [sum(x * v[i] for x, v in zip(c, self.span)) for i in range(self.n)] for c in nullspace(image, k)
        ]
        return [vectors[i] for i in rref(transpose(vectors, self.n), len(vectors))[1]]

    @cached_property
    def projection(self) -> list:
        """The minimal weight-Hermitian projection onto S, as rational rows."""
        n = self.n
        ps = projector(self.span, n)
        ps_a = matmul(ps, self.a, n)
        strip = matmul(pinv(matmul(ps_a, ps, n), n, n), ps_a, n)
        p_n = projector(self.overlap, n)
        return [[x + y for x, y in zip(row, other)] for row, other in zip(strip, p_n)]


def _integers(rng, low: int, high: int, size) -> list:
    # rng.integers(low, high + 1, size) as nested Python ints
    return rng.integers(low, high + 1, size=size).tolist()


def make_integer_pair(rng, n: int, r: int, k: int, overlap: int, p: int = 0) -> ExactPair:
    """A random integer pair on R^n: ``F`` n x r with entries in [-3, 3],
    S spanned by k integer vectors of which ``min(overlap, n - rank F)``
    lie in N(A) (tilted off it when ``p > 0``) and the rest have entries in
    [-3, 3].  The vectors may be dependent; :attr:`ExactPair.span_dim` is
    the dimension of their span."""
    f = _integers(rng, -3, 3, (n, r))
    if p > 0:
        scales = [10 ** j for j in _integers(rng, 0, p // 2, r)]
        f = [[x * s for x, s in zip(row, scales)] for row in f]
    a = [[int(x) for x in row] for row in matmul(f, transpose(f, r), n)]
    null = nullspace(transpose(f, r), n)
    span = []
    for _ in range(min(overlap, len(null), k)):
        coefficients = _integers(rng, -2, 2, len(null))
        v = [sum(c * z[i] for c, z in zip(coefficients, null)) for i in range(n)]
        if p > 0:
            v = [10**p * x + e for x, e in zip(v, _integers(rng, -1, 1, n))]
        span.append(v)
    span += _integers(rng, -3, 3, (k - len(span), n))
    assert all(abs(x) < EXACT_LIMIT for m in (a, span) for row in m for x in row)
    return ExactPair(n, f, a, span)


def integer_family(rng, count: int, p: int = 0):
    """``count`` pairs of :func:`make_integer_pair` with n in 2..6 and r, k
    and the overlap drawn uniformly in their ranges."""
    for _ in range(count):
        n = int(rng.integers(2, 7))
        r, k = int(rng.integers(0, n + 1)), int(rng.integers(0, n + 1))
        yield make_integer_pair(rng, n, r, k, int(rng.integers(0, k + 1)), p)
