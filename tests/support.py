"""Shared instance generators and independent oracles for the test suite."""

import numpy as np

from obliqueproj import (
    DEFAULT_TOL,
    InconsistentDiagnostics,
    NotContained,
    ObliqueProjection,
    PsdOperator,
    Subspace,
    chart_basis,
    complement,
    contains,
    intersect,
    is_compatible,
    moore_penrose,
    nullspace_of,
    range_inclusion,
    spectral_norm,
    subspace_equal,
    subspace_from_span,
    subspace_sum,
)
from obliqueproj import oprange
from obliqueproj.linalg import as_matrix
from obliqueproj.report import SAMPLES, _record


def random_orthogonal(rng, n):
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return q


def make_psd(rng, n, rank):
    """Random PSD matrix with the given rank; nonzero eigenvalues in [0.5, 2]."""
    q = random_orthogonal(rng, n)
    ev = np.zeros(n)
    ev[:rank] = rng.uniform(0.5, 2.0, size=rank)
    return PsdOperator.from_matrix((q * ev) @ q.T)


def make_subspace(rng, n, k) -> Subspace:
    if k == 0:
        return Subspace(n, np.zeros((n, 0)))
    return subspace_from_span(rng.normal(size=(n, k)))


def make_pair(rng, n=None, rank=None, k=None):
    """Random (weight, subspace) pair over dims 2..8 and all ranks."""
    if n is None:
        n = int(rng.integers(2, 9))
    if rank is None:
        rank = int(rng.integers(0, n + 1))
    if k is None:
        k = int(rng.integers(0, n + 1))
    return make_psd(rng, n, rank), make_subspace(rng, n, k)


def nullspace_preserving(rng, weight):
    """Random operator mapping the weight's nullspace into itself."""
    n, r = weight.dim, weight.rank
    v = weight.eigvecs
    block = np.zeros((n, n))
    block[:r, :r] = rng.normal(size=(r, r))
    block[r:, r:] = rng.normal(size=(n - r, n - r))
    block[r:, :r] = rng.normal(size=(n - r, r))  # range part may leak into nullspace
    return v @ block @ v.T


def make_overlapping_pair(rng, n, rank, k, overlap):
    """A PSD weight of the given rank and a k-dimensional S meeting its
    nullspace in exactly ``overlap`` dimensions."""
    q = random_orthogonal(rng, n)
    ev = np.zeros(n)
    ev[:rank] = rng.uniform(0.5, 2.0, size=rank)
    inside = q[:, rank:] @ rng.normal(size=(n - rank, overlap))
    span = subspace_from_span(np.hstack([inside, rng.normal(size=(n, k - overlap))]))
    return PsdOperator.from_matrix((q * ev) @ q.T), span


def make_invariant_pair(rng):
    """A weight ``Q diag(ev) Q^T`` of rank 1..n-1 (n 3..8) and an A-invariant
    S < R^n: a rotation of at least one leading and at least one trailing
    column of Q, so S meets both R(A) and N(A)."""
    n = int(rng.integers(3, 9))
    rank = int(rng.integers(1, n))
    q = random_orthogonal(rng, n)
    ev = np.zeros(n)
    ev[:rank] = rng.uniform(0.5, 2.0, size=rank)
    lead = int(rng.integers(1, min(rank, n - 2) + 1))
    trail = int(rng.integers(1, min(n - rank, n - 1 - lead) + 1))
    columns = np.hstack([q[:, :lead], q[:, rank : rank + trail]])
    span = subspace_from_span(columns @ random_orthogonal(rng, lead + trail))
    return PsdOperator.from_matrix((q * ev) @ q.T), span


def projection_by_frame(weight, span, tol=DEFAULT_TOL):
    """The coupling ``a^+ b`` and the minimal projection ``B_S (B_S^T + D B_perp^T)``
    in the frame of S and its complement from :func:`complement` (Householder
    reflectors, compact WY; same frame as the complete QR), with no
    solvability test."""
    bs, bp = span.basis, complement(span).basis
    rows = bs.T @ weight.base
    coupling = moore_penrose(rows @ bs, tol) @ (rows @ bp)
    return coupling, bs @ (bs.T + coupling @ bp.T)


def singular_values_by_eig(m):
    """Singular values via the eigenvalues of M^T M (independent of SVD)."""
    m = np.asarray(m, dtype=float)
    ev = np.linalg.eigvalsh(m.T @ m)
    return np.sqrt(np.clip(ev, 0.0, None))[::-1]


def intersection_by_nullspace(b1, b2):
    """Brute-force intersection oracle: common vectors from the nullspace of
    the stacked system ``b1 alpha = b2 beta``."""
    import scipy.linalg

    if b1.shape[1] == 0 or b2.shape[1] == 0:
        return np.zeros((b1.shape[0], 0))
    stacked = np.hstack([b1, -b2])
    null = scipy.linalg.null_space(stacked)
    return b1 @ null[: b1.shape[1]]


def column_space_contained(b, a, tol=1e-8):
    """Column-space inclusion oracle via numpy's matrix_rank."""
    ra = np.linalg.matrix_rank(a, tol=tol)
    rab = np.linalg.matrix_rank(np.hstack([a, b]), tol=tol)
    return rab == ra


def min_lambda_by_pencil(a, b, lo=0.0, hi=None, iters=80):
    """PSD-pencil oracle: bisect the least lam with lam A A^T - B B^T >= 0."""
    aat = a @ a.T
    bbt = b @ b.T
    if hi is None:
        hi = 1.0
        while np.linalg.eigvalsh(hi * aat - bbt).min() < -1e-12 and hi < 1e12:
            hi *= 2.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if np.linalg.eigvalsh(mid * aat - bbt).min() >= -1e-12:
            hi = mid
        else:
            lo = mid
    return hi


def seminorm_grid_min(t, basis, x, radius=3.0, rounds=4, points=81):
    """Iteratively refined grid scan of ``||T (x + B c)||`` over the box
    ``|c_i| <= radius``; supports 1-D and 2-D coefficient spaces."""
    k = basis.shape[1]
    assert k in (1, 2)
    center = np.zeros(k)
    width = radius
    best = np.inf
    for _ in range(rounds):
        axes = [np.linspace(c - width, c + width, points) for c in center]
        if k == 1:
            grid = axes[0].reshape(1, -1)
        else:
            g0, g1 = np.meshgrid(axes[0], axes[1], indexing="ij")
            grid = np.vstack([g0.ravel(), g1.ravel()])
        values = np.linalg.norm(t @ (x[:, None] + basis @ grid), axis=0)
        idx = int(np.argmin(values))
        best = float(values[idx])
        center = grid[:, idx]
        width *= 2.0 / (points - 1)
    return best, center


# Generic subspace operations in R^n on the library's kernel.  The library
# reads these subspaces off the pair geometry in eigen coordinates; these
# compose them from complements and intersections instead.


def preimage(w, s, tol=DEFAULT_TOL):
    """The preimage ``{x : Wx in S}``, the nullspace of ``C^T W``.

    ``C`` is an orthonormal basis of ``S^perp``, so ``C^T W`` has the
    singular values of ``P_{S^perp} W``.  The rank decision on the product
    is anchored at the norm of ``W``, so an invariant subspace (where the
    product cancels to roundoff) is handled correctly.
    """
    w = as_matrix(w, rows=s.ambient_dim, cols=s.ambient_dim)
    return nullspace_of(complement(s).basis.T @ w, tol, scale=spectral_norm(w))


def subtract(s, inner, tol=DEFAULT_TOL):
    """The relative complement ``S (-) N = S ∩ N^perp``; requires N ⊆ S."""
    if not contains(s, inner, tol):
        raise NotContained("the subtracted subspace is not contained in the first")
    return intersect(s, complement(inner), tol)


def chart_image(weight, columns, tol=DEFAULT_TOL):
    """Chart image of the span of given ambient range vectors."""
    cols = as_matrix(columns, rows=weight.dim)
    coords = (chart_basis(weight).T @ cols) / np.sqrt(weight.eigvals[: weight.rank])[:, None]
    return subspace_from_span(coords, tol)


# Reference subspace kernel built from full SVDs and n x n projectors,
# independent of the library's QR and principal-angle kernel.


def complement_by_svd(s):
    """S^perp as the trailing left singular vectors of a full SVD of the basis."""
    n, k = s.ambient_dim, s.dim
    if k == 0:
        return Subspace(n, np.eye(n))
    if k == n:
        return Subspace(n, np.zeros((n, 0)))
    u, _, _ = np.linalg.svd(s.basis, full_matrices=True)
    return Subspace(n, u[:, k:])


def complement_by_complete_qr(s):
    """S^perp as the trailing columns of a complete QR of the basis: the frame
    :func:`complement` builds from the Householder reflectors, here read off
    the n x n orthogonal factor LAPACK forms."""
    n, k = s.ambient_dim, s.dim
    if k == 0:
        return Subspace(n, np.eye(n))
    if k == n:
        return Subspace(n, np.zeros((n, 0)))
    q, _ = np.linalg.qr(s.basis, mode="complete")
    return Subspace(n, q[:, k:])


def intersect_by_complements(s1, s2, tol=DEFAULT_TOL):
    """Intersection as the complement of the sum of the complements."""
    joined = np.hstack([complement_by_svd(s1).basis, complement_by_svd(s2).basis])
    return complement_by_svd(subspace_from_span(joined, tol))


def preimage_by_projector(w, s, tol=DEFAULT_TOL):
    """``{x : Wx in S}`` as the nullspace of the n x n product ``P_{S^perp} W``."""
    blocker = complement_by_svd(s).projector() @ w
    return nullspace_of(blocker, tol, scale=spectral_norm(w))


def ortho_projector(s):
    """Orthogonal projection onto ``s`` (symmetric idempotent)."""
    return ObliqueProjection(s.projector(), s, complement(s))


def friedrichs_angle(s1, s2, tol=DEFAULT_TOL):
    """Cosine of the Friedrichs angle between two subspaces.

    The common intersection is removed before measuring, so the result is 0
    whenever either subspace coincides with the intersection.  (The Dixmier
    convention keeps the intersection and would return 1 for overlapping
    subspaces.)  A cosine below 1 is equivalent to the sum being closed,
    which is automatic in finite dimension; the value quantifies the
    relative position, as in Szyld's identity for the norm of a projection.
    """
    assert s1.ambient_dim == s2.ambient_dim
    meet = intersect(s1, s2, tol)
    if meet.dim:
        r1 = intersect(s1, complement(meet), tol)
        r2 = intersect(s2, complement(meet), tol)
    else:
        r1, r2 = s1, s2
    if r1.dim == 0 or r2.dim == 0:
        return 0.0
    cosines = np.linalg.svd(r1.basis.T @ r2.basis, compute_uv=False)
    return float(min(1.0, cosines[0]))


def subtract_by_complements(s, inner, tol=DEFAULT_TOL):
    """``S (-) N`` as the intersection of S with the complement of N."""
    assert contains(s, inner, tol)
    return intersect_by_complements(s, complement_by_svd(inner), tol)


def rotated_pair(rng, n, k1, k2, meet, sine):
    """Subspaces of R^n of dims k1 and k2 that share ``meet`` directions exactly
    and one more direction up to an angle with the given sine; every other
    principal angle is a right angle.  Needs ``meet < min(k1, k2)`` and
    ``k1 + k2 - meet <= n``."""
    q = random_orthogonal(rng, n)
    shared, tilt, other = q[:, :meet], q[:, meet], q[:, n - 1]
    only1 = q[:, meet + 1 : k1]
    only2 = q[:, k1 : k1 + k2 - meet - 1]
    tilted = np.sqrt(1.0 - sine**2) * tilt + sine * other
    s1 = Subspace(n, np.column_stack([shared, tilt, only1]))
    s2 = Subspace(n, np.column_stack([shared, tilted, only2]))
    return s1, s2


def compatible_by_blocks(weight, span, tol=DEFAULT_TOL):
    """Compatibility as the range inclusion ``R(b) ⊆ R(a)`` of the blocks
    ``a = B_S^T A B_S`` and ``b = B_S^T A B_perp``, in the frame of
    :func:`complement_by_svd`."""
    rows = span.basis.T @ weight.base
    return range_inclusion(rows @ complement_by_svd(span).basis, rows @ span.basis, tol)


def diagnostics_by_subspaces(weight, span, tol=DEFAULT_TOL):
    """The fields of ``compatibility_diagnostics`` from the generic subspace
    kernel in R^n: images, preimages, sums and intersections of subspaces of
    R^n, and the coupling equation solved again for the projected pair
    ``P_R(A) S`` and the shifted pair ``S + N(A)``."""
    null, rng = weight.null_subspace, weight.range_subspace
    overlap = intersect(span, null, tol)
    pre = preimage(weight.base, complement(span), tol)
    compatible = compatible_by_blocks(weight, span, tol)
    scale = float(weight.eigvals[0]) if weight.eigvals.size else 0.0
    image = subspace_from_span(weight.base @ span.basis, tol, scale=scale)
    image_sqrt = subspace_from_span(weight.sqrt @ span.basis, tol, scale=np.sqrt(scale))
    projected = subspace_from_span(weight.range_proj @ span.basis, tol, scale=1.0)
    shifted = subspace_sum(span, null, tol)
    # 2/4: the image (resp. sqrt image) of S is closed inside the range;
    # 3: pulling the image back recovers S + N(A); 5: S + N(A) has the
    # dimension of a closed sum; 6: the projection of S onto the range has
    # the consistent dimension.
    chain = (
        compatible,
        subspace_equal(intersect(image, rng, tol), image, tol),
        subspace_equal(preimage(weight.base, image, tol), shifted, tol),
        subspace_equal(intersect(image_sqrt, rng, tol), image_sqrt, tol),
        shifted.dim == span.dim + null.dim - overlap.dim,
        projected.dim == span.dim - overlap.dim,
    )
    return {
        "compatible": compatible,
        "degenerate": overlap,
        "preimage_of_complement": pre,
        "chain": chain,
        "sum_check": subspace_sum(span, pre, tol).dim == weight.dim,
        "projected_pair_compatible": compatible_by_blocks(weight, projected, tol),
        "shifted_pair_compatible": compatible_by_blocks(weight, shifted, tol),
    }


# The range-space chart from n x n products of the weight's square root and
# pseudoinverses, independent of the library's eigen-coordinate formulas.


def in_sqrt_range_by_pinv(weight, u, tol=DEFAULT_TOL):
    """Membership in R(A^{1/2}) by the residual of ``A^{1/2} (A^{1/2})^+ u``."""
    gap = u - weight.sqrt @ (weight.sqrt_pinv @ u)
    return float(np.linalg.norm(gap)) <= tol.eq_abs * (1.0 + float(np.linalg.norm(u)))


def chart_extension_by_products(weight, b):
    """``A^{1/2} B (A^{1/2})^+`` pushed into chart coordinates."""
    vr = weight.eigvecs[:, : weight.rank]
    return vr.T @ (weight.sqrt @ b @ weight.sqrt_pinv) @ vr


def chart_image_of_span_by_products(weight, span, tol=DEFAULT_TOL):
    """Chart coordinates of ``A^{1/2} S``, rank cutoff anchored at ``||A^{1/2}||``."""
    vr = weight.eigvecs[:, : weight.rank]
    sqrt_scale = float(np.sqrt(weight.eigvals[0])) if weight.eigvals.size else 0.0
    return subspace_from_span(vr.T @ (weight.sqrt @ span.basis), tol, scale=sqrt_scale)


def chart_projected_range_by_products(weight, span, tol=DEFAULT_TOL):
    """The chart projection applied to R(A), mapped back to R^n, and whether
    it equals ``A S``; both as subspaces of R^n."""
    vr = weight.eigvecs[:, : weight.rank]
    coord = chart_image_of_span_by_products(weight, span, tol).projector()
    range_coords = vr.T @ (weight.sqrt_pinv @ vr)
    image = subspace_from_span(weight.sqrt @ vr @ (coord @ range_coords), tol)
    scale = float(weight.eigvals[0]) if weight.eigvals.size else 0.0
    target = subspace_from_span(weight.base @ span.basis, tol, scale=scale)
    return image, subspace_equal(image, target, tol)


def induced_projection_by_products(weight, span, tol=DEFAULT_TOL):
    """``A^+ (A^{1/2} V_r P V_r^T (A^{1/2})^+) A`` for the chart projection P."""
    vr = weight.eigvecs[:, : weight.rank]
    coord = chart_image_of_span_by_products(weight, span, tol).projector()
    return weight.pinv @ (weight.sqrt @ vr @ coord @ vr.T @ weight.sqrt_pinv) @ weight.base


def complement_density_by_complements(weight, span, tol=DEFAULT_TOL):
    """The two density statements of ``RangeSpaceProjection.complement_density``
    with ``S^perp ∩ R(A)`` intersected in R^n from the complement of S in
    R^n, against the chart image of :func:`chart_image_of_span_by_products`.

    Raises ``InconsistentDiagnostics`` if the two statements disagree."""
    vr = weight.eigvecs[:, : weight.rank]
    root = np.sqrt(weight.eigvals[: weight.rank])
    image = chart_image_of_span_by_products(weight, span, tol)
    perp_meet_range = intersect(complement(span), weight.range_subspace, tol)
    chart_perp = subspace_from_span((vr.T @ perp_meet_range.basis) / root[:, None], tol)
    closure_fills = subspace_equal(chart_perp, complement(image), tol)
    sum_dense = subspace_sum(image, chart_perp, tol).dim == weight.rank
    if closure_fills != sum_dense:
        raise InconsistentDiagnostics("the closure identity and the dense-sum identity disagree")
    return closure_fills


def decompositions_by_subspaces(weight, span, tol=DEFAULT_TOL):
    """The three flags of ``RangeSpaceProjection.decompositions`` from
    subspaces of R^n: ii) ``A^{1/2} S`` plus its complement within R(A), and
    iii) ``A S`` plus ``S^perp ∩ R(A)``, each intersected with R(A) through
    an n x n complement.  Flag i is :func:`is_compatible`."""
    rng = weight.range_subspace
    vr = weight.eigvecs[:, : weight.rank]
    image_sqrt = Subspace(weight.dim, vr @ chart_image_of_span_by_products(weight, span, tol).basis)
    split_sqrt = subspace_sum(image_sqrt, intersect(complement(image_sqrt), rng, tol), tol)
    scale = float(weight.eigvals[0]) if weight.eigvals.size else 0.0
    image = subspace_from_span(weight.base @ span.basis, tol, scale=scale)
    split = subspace_sum(image, intersect(complement(span), rng, tol), tol)
    third = subspace_equal(split, rng, tol) and subspace_equal(intersect(image, rng, tol), image, tol)
    return is_compatible(weight, span, tol), subspace_equal(split_sqrt, rng, tol), third


# The identity battery's sampled checks as loops, one sample at a time, as the
# battery evaluated them before it drew each check's samples as one array.


def hermitian_tests_agree_by_loop(rng, geometry, hermitian_bound):
    """``hermitian_tests_agree`` from one ``subspace_from_span`` and one
    ``contains`` per sampled projection."""
    span, tol, a = geometry.span, geometry.tol, geometry.weight.base
    n, pre = span.ambient_dim, geometry.preimage
    bs, bp = span.basis, geometry.perp.basis
    disagreements = 0
    for _ in range(SAMPLES):
        x = rng.normal(size=(span.dim, n - span.dim))
        q = bs @ bs.T + bs @ x @ bp.T
        algebraic = float(np.linalg.norm(a @ q - q.T @ a)) <= hermitian_bound
        null_q = subspace_from_span(bp - bs @ x, tol)
        containment = contains(pre, null_q, tol)
        disagreements += algebraic != containment
    return _record("hermitian_tests_agree", disagreements == 0, disagreements)


def chart_isometry_by_loop(rng, weight, tol):
    """``chart_isometry`` from two public ``lift`` calls per sample."""
    n, a, eq = weight.dim, weight.base, tol.eq_abs
    worst = 0.0
    for _ in range(SAMPLES):
        x, y = rng.normal(size=n), rng.normal(size=n)
        lhs = oprange.range_inner(
            oprange.lift(weight, a @ x, tol), oprange.lift(weight, a @ y, tol)
        )
        rhs = float(x @ (a @ y))
        worst = max(worst, abs(lhs - rhs) / (1.0 + abs(rhs)))
    return _record("chart_isometry", worst <= eq, worst)


def witness_minimal_norm_by_loop(rng, weight, tol):
    """``witness_minimal_norm`` from one public ``lift`` call per sample."""
    n, a, eq = weight.dim, weight.base, tol.eq_abs
    worst = 0.0
    for _ in range(SAMPLES):
        u = a @ rng.normal(size=n)
        lifted = oprange.lift(weight, u, tol)
        noise = weight.null_subspace.basis @ rng.normal(size=n - weight.rank)
        worst = max(worst, oprange.range_norm(lifted) - float(np.linalg.norm(lifted.witness + noise)))
    return _record("witness_minimal_norm", worst <= eq, worst)


def norm_minimality_by_loop(rng, geometry):
    """``norm_minimality`` from one ``member`` and one ``spectral_norm`` per
    sampled family member."""
    span, overlap, eq = geometry.span, geometry.overlap, geometry.tol.eq_abs
    n, p = span.ambient_dim, geometry.projection.matrix
    if overlap.dim:
        p_norm = spectral_norm(p)
        worst = 0.0
        for _ in range(SAMPLES):
            t = rng.normal(size=(overlap.dim, n - span.dim))
            worst = max(worst, p_norm - spectral_norm(geometry.member(t).matrix))
        return _record("norm_minimality", worst <= eq, worst)
    return _record("norm_minimality", True, applicable=False)


def family_extension_constant_by_loop(rng, geometry, ext_p):
    """``family_extension_constant`` from one ``member`` and one public
    ``chart_extension`` per sampled family member."""
    weight, span, overlap, tol = geometry.weight, geometry.span, geometry.overlap, geometry.tol
    n, eq = span.ambient_dim, tol.eq_abs
    worst = 0.0
    for _ in range(20):
        t = rng.normal(size=(overlap.dim, n - span.dim))
        member = geometry.member(t).matrix
        worst = max(worst, float(np.linalg.norm(oprange.chart_extension(weight, member, tol) - ext_p)))
    return _record("family_extension_constant", worst <= 10 * eq, worst)
