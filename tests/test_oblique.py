import re

import numpy as np
import pytest

from obliqueproj import (
    DimensionMismatch,
    Error,
    ObliqueProjection,
    PsdOperator,
    RangeMismatch,
    Singular,
    Tolerance,
    block_decompose,
    chain_respects_implications,
    cli,
    compatibility_diagnostics,
    complement,
    degenerate_overlap,
    Incompatible,
    intersect,
    io,
    is_compatible,
    is_weight_hermitian,
    moore_penrose,
    projection_family_member,
    range_space_projection,
    reduced_solution,
    spectral_norm,
    spline_with_weight,
    subspace_equal,
    subspace_from_span,
    subspace_sum,
    weighted_projection,
    weighted_projection_invertible,
    weighted_projection_pinv,
)
from obliqueproj.report import identity_battery
from support import (
    make_invariant_pair,
    make_pair,
    make_psd,
    make_subspace,
    ortho_projector,
    preimage,
    subtract,
)

RANK1 = PsdOperator.from_matrix(np.ones((2, 2)))
DEGENERATE = PsdOperator.from_matrix(np.diag([0.0, 1.0]))
SPAN_E1 = subspace_from_span(np.array([[1.0], [0.0]]))


class TestBlockDecompose:
    def test_identity_weight(self):
        rng = np.random.default_rng(31)
        s = make_subspace(rng, 4, 2)
        blocks = block_decompose(PsdOperator.from_matrix(np.eye(4)), s)
        np.testing.assert_allclose(blocks.a, np.eye(2), atol=1e-12)
        np.testing.assert_allclose(blocks.b, np.zeros((2, 2)), atol=1e-12)
        np.testing.assert_allclose(blocks.c, np.eye(2), atol=1e-12)

    def test_aligned_diagonal(self):
        blocks = block_decompose(PsdOperator.from_matrix(np.diag([1.0, 2.0])), SPAN_E1)
        np.testing.assert_allclose(blocks.a, [[1.0]])
        np.testing.assert_allclose(blocks.b, [[0.0]])
        np.testing.assert_allclose(blocks.c, [[2.0]])

    def test_eigenbasis_conjugation(self):
        a = PsdOperator.from_matrix(np.array([[2.0, 1.0], [1.0, 2.0]]))
        s = subspace_from_span(np.array([[1.0], [1.0]]))
        blocks = block_decompose(a, s)
        # oracle: conjugate by the explicit frame and read the blocks off
        frame = np.hstack([blocks.frame[0].basis, blocks.frame[1].basis])
        conjugated = frame.T @ a.base @ frame
        np.testing.assert_allclose(conjugated, np.diag([3.0, 1.0]), atol=1e-12)
        np.testing.assert_allclose(blocks.a, [[3.0]], atol=1e-12)
        np.testing.assert_allclose(blocks.b, [[0.0]], atol=1e-12)
        np.testing.assert_allclose(blocks.c, [[1.0]], atol=1e-12)

    def test_reassembly(self):
        rng = np.random.default_rng(32)
        for _ in range(20):
            weight, span = make_pair(rng)
            blocks = block_decompose(weight, span)
            np.testing.assert_allclose(blocks.reassemble(), weight.base, atol=1e-10)
            for diag in (blocks.a, blocks.c):
                ev = np.linalg.eigvalsh((diag + diag.T) / 2) if diag.size else np.array([])
                assert ev.size == 0 or ev.min() > -1e-10


class TestIsCompatible:
    def test_always_true_in_finite_dimension(self):
        # finite-dimensional pairs are automatically compatible
        rng = np.random.default_rng(33)
        for _ in range(50):
            weight, span = make_pair(rng)
            assert is_compatible(weight, span)

    def test_zero_weight(self):
        weight = PsdOperator.from_matrix(np.zeros((2, 2)))
        assert is_compatible(weight, SPAN_E1)

    def test_rank_one_coupling(self):
        assert is_compatible(RANK1, SPAN_E1)
        report = compatibility_diagnostics(RANK1, SPAN_E1)
        np.testing.assert_allclose(report.coupling, [[1.0]], atol=1e-12)

    def test_agrees_with_direct_sum_test(self):
        rng = np.random.default_rng(34)
        for _ in range(50):
            weight, span = make_pair(rng)
            pre = preimage(weight.base, complement(span))
            direct = subspace_sum(span, pre).dim == weight.dim
            assert is_compatible(weight, span) == direct


class TestWeightedProjection:
    def test_identity_weight_gives_orthogonal(self):
        rng = np.random.default_rng(35)
        s = make_subspace(rng, 3, 2)
        proj = weighted_projection(PsdOperator.from_matrix(np.eye(3)), s)
        np.testing.assert_allclose(proj.matrix, ortho_projector(s).matrix, atol=1e-10)

    def test_rank_one(self):
        proj = weighted_projection(RANK1, SPAN_E1)
        np.testing.assert_allclose(proj.matrix, [[1.0, 1.0], [0.0, 0.0]], atol=1e-12)
        # oracle: both weighted-symmetry products equal the weight itself
        np.testing.assert_allclose(RANK1.base @ proj.matrix, np.ones((2, 2)), atol=1e-12)
        np.testing.assert_allclose(proj.matrix.T @ RANK1.base, np.ones((2, 2)), atol=1e-12)

    def test_degenerate_weight(self):
        proj = weighted_projection(DEGENERATE, SPAN_E1)
        np.testing.assert_allclose(proj.matrix, np.diag([1.0, 0.0]), atol=1e-12)
        # oracle: the space splits as S plus (preimage minus overlap)
        pre = preimage(DEGENERATE.base, complement(SPAN_E1))
        overlap = degenerate_overlap(DEGENERATE, SPAN_E1)
        assert subspace_equal(overlap, SPAN_E1)
        assert pre.dim == 2
        expected_null = subtract(pre, overlap)
        assert subspace_equal(proj.nullspace, expected_null)
        assert subspace_equal(proj.nullspace, subspace_from_span(np.array([[0.0], [1.0]])))

    def test_numerically_incompatible_raises(self):
        # an aggressive rank cutoff can truncate the diagonal block below the
        # coupling it must carry; the construction refuses rather than
        # regularizing
        weight = PsdOperator.from_matrix(
            np.array([[1.0, 0.0, 0.0], [0.0, 0.01, 0.1], [0.0, 0.1, 1.0]])
        )
        span = subspace_from_span(np.eye(3)[:, :2])
        for rank_rel in (0.25, 0.49):
            with pytest.raises(Incompatible):
                weighted_projection(weight, span, Tolerance(rank_rel=rank_rel))

    def test_projection_laws(self):
        rng = np.random.default_rng(36)
        for _ in range(40):
            weight, span = make_pair(rng)
            proj = weighted_projection(weight, span)
            n = weight.dim
            p = proj.matrix
            assert np.linalg.norm(p @ p - p) <= 1e-8
            scale = 1 + np.linalg.norm(weight.base)
            assert np.linalg.norm(weight.base @ p - p.T @ weight.base) <= 1e-8 * scale
            assert subspace_equal(subspace_from_span(p), span) or span.dim == 0
            assert proj.range.dim + proj.nullspace.dim == n
            assert proj.verify()


class TestInvertibleFormula:
    def test_identity(self):
        rng = np.random.default_rng(37)
        s = make_subspace(rng, 3, 1)
        proj = weighted_projection_invertible(PsdOperator.from_matrix(np.eye(3)), s)
        np.testing.assert_allclose(proj.matrix, s.projector(), atol=1e-10)

    def test_aligned_diagonal(self):
        proj = weighted_projection_invertible(PsdOperator.from_matrix(np.diag([1.0, 2.0])), SPAN_E1)
        np.testing.assert_allclose(proj.matrix, np.diag([1.0, 0.0]), atol=1e-12)

    def test_coupled(self):
        weight = PsdOperator.from_matrix(np.array([[2.0, 1.0], [1.0, 1.0]]))
        proj = weighted_projection_invertible(weight, SPAN_E1)
        np.testing.assert_allclose(proj.matrix, [[1.0, 0.5], [0.0, 0.0]], atol=1e-12)
        # cross-check against the block construction
        np.testing.assert_allclose(proj.matrix, weighted_projection(weight, SPAN_E1).matrix, atol=1e-10)

    def test_rejects_singular(self):
        with pytest.raises(Singular):
            weighted_projection_invertible(DEGENERATE, SPAN_E1)


class TestPinvFormula:
    def test_identity(self):
        rng = np.random.default_rng(38)
        s = make_subspace(rng, 3, 2)
        proj = weighted_projection_pinv(PsdOperator.from_matrix(np.eye(3)), s)
        np.testing.assert_allclose(proj.matrix, s.projector(), atol=1e-10)

    def test_degenerate(self):
        proj = weighted_projection_pinv(DEGENERATE, SPAN_E1)
        np.testing.assert_allclose(proj.matrix, np.diag([1.0, 0.0]), atol=1e-12)

    def test_rank_one(self):
        proj = weighted_projection_pinv(RANK1, SPAN_E1)
        np.testing.assert_allclose(proj.matrix, [[1.0, 1.0], [0.0, 0.0]], atol=1e-12)

    def test_agreement_everywhere(self):
        rng = np.random.default_rng(39)
        for _ in range(40):
            weight, span = make_pair(rng)
            direct = weighted_projection(weight, span).matrix
            viapinv = weighted_projection_pinv(weight, span).matrix
            assert np.linalg.norm(direct - viapinv) <= 1e-7
            if weight.rank == weight.dim:
                viainv = weighted_projection_invertible(weight, span).matrix
                assert np.linalg.norm(direct - viainv) <= 1e-7


class TestHermitianCheck:
    def test_orthogonal_identity_weight(self):
        s = SPAN_E1
        q = ortho_projector(s)
        assert is_weight_hermitian(q, PsdOperator.from_matrix(np.eye(2)), s)

    def test_true_case(self):
        q = ObliqueProjection(
            np.array([[1.0, 1.0], [0.0, 0.0]]),
            SPAN_E1,
            subspace_from_span(np.array([[1.0], [-1.0]])),
        )
        # oracle: both products equal [[1,1],[1,1]]
        np.testing.assert_allclose(RANK1.base @ q.matrix, q.matrix.T @ RANK1.base)
        assert is_weight_hermitian(q, RANK1, SPAN_E1)

    def test_false_case(self):
        q = ObliqueProjection(
            np.diag([1.0, 0.0]), SPAN_E1, subspace_from_span(np.array([[0.0], [1.0]]))
        )
        # oracle: direct multiplication gives different products
        assert not np.allclose(RANK1.base @ q.matrix, q.matrix.T @ RANK1.base)
        assert not is_weight_hermitian(q, RANK1, SPAN_E1)

    def test_range_mismatch(self):
        q = ortho_projector(subspace_from_span(np.array([[0.0], [1.0]])))
        with pytest.raises(RangeMismatch):
            is_weight_hermitian(q, RANK1, SPAN_E1)


class TestSubspaceInsideNullspace:
    """S ⊆ N(A) makes ``A B_S = 0``: every projection onto S is Hermitian for
    the weight, and the minimal one is the orthogonal projector."""

    def test_blocks_of_roundoff(self):
        # The coupling blocks a and b are 4e-17 and 1e-16 here; solving
        # a X = b with them decides compatibility on noise.
        rng = np.random.default_rng(25)
        n = int(rng.integers(2, 9))
        rank = int(rng.integers(1, n))
        tol = Tolerance(rank_rel=1e-4)
        weight = PsdOperator.from_matrix(make_psd(rng, n, rank).base, tol)
        span = weight.null_subspace
        assert is_compatible(weight, span, tol)
        assert compatibility_diagnostics(weight, span, tol).compatible
        proj = weighted_projection(weight, span, tol)
        assert proj.verify(tol)
        np.testing.assert_allclose(proj.matrix, span.projector(), atol=1e-12)
        x = rng.normal(size=n)
        minimizer = spline_with_weight(weight, span, x, tol).minimizer
        np.testing.assert_allclose(minimizer, x - span.projector() @ x, atol=1e-12)

    def test_minimal_projection_is_orthogonal(self):
        rng = np.random.default_rng(26)
        for _ in range(40):
            n = int(rng.integers(2, 9))
            weight = make_psd(rng, n, int(rng.integers(0, n)))
            null = weight.null_subspace.basis
            k = int(rng.integers(1, null.shape[1] + 1))
            span = subspace_from_span(null @ rng.normal(size=(null.shape[1], k)))
            proj = weighted_projection(weight, span)
            assert proj.verify()
            assert np.linalg.norm(proj.matrix - span.projector()) <= 1e-12


class TestInvariantSubspace:
    """An A-invariant S that meets both R(A) and N(A): ``b = B_S^T A B_perp``
    cancels to roundoff while ``a`` is singular.  The pair is compatible and
    the minimal projection is the orthogonal projector onto S."""

    def test_minimal_projection_is_orthogonal(self):
        for seed in range(300):
            weight, span = make_invariant_pair(np.random.default_rng(seed))
            assert is_compatible(weight, span)
            proj = weighted_projection(weight, span)
            assert proj.verify()
            assert np.linalg.norm(proj.matrix - span.projector()) <= 1e-12

    def test_battery_passes(self):
        for seed in range(0, 300, 10):
            weight, span = make_invariant_pair(np.random.default_rng(seed))
            assert all(check["pass"] for check in identity_battery(weight, span))


class TestProjectionFamily:
    def test_zero_coefficients(self):
        rng = np.random.default_rng(40)
        weight, span = make_pair(rng, n=4, rank=2, k=3)
        overlap = degenerate_overlap(weight, span)
        t = np.zeros((overlap.dim, 4 - span.dim))
        member = projection_family_member(weight, span, t)
        np.testing.assert_allclose(member.matrix, weighted_projection(weight, span).matrix, atol=1e-12)

    def test_trivial_overlap_forces_singleton(self):
        weight = PsdOperator.from_matrix(np.eye(2))
        member = projection_family_member(weight, SPAN_E1, np.zeros((0, 1)))
        np.testing.assert_allclose(member.matrix, np.diag([1.0, 0.0]))
        with pytest.raises(DimensionMismatch):
            projection_family_member(weight, SPAN_E1, np.ones((1, 1)))

    @pytest.mark.parametrize("t", [-1.0, 0.5, 3.0])
    def test_degenerate_family_line(self, t):
        member = projection_family_member(DEGENERATE, SPAN_E1, np.array([[t]]))
        np.testing.assert_allclose(member.matrix, [[1.0, t], [0.0, 0.0]], atol=1e-12)
        # every member stays Hermitian for the weight
        np.testing.assert_allclose(
            DEGENERATE.base @ member.matrix, member.matrix.T @ DEGENERATE.base, atol=1e-12
        )

    def test_members_are_hermitian_projections(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            weight, span = make_pair(rng)
            overlap = degenerate_overlap(weight, span)
            t = rng.normal(size=(overlap.dim, weight.dim - span.dim))
            member = projection_family_member(weight, span, t)
            p = member.matrix
            assert np.linalg.norm(p @ p - p) <= 1e-8
            assert is_weight_hermitian(member, weight, span)

    def test_norm_minimality(self):
        rng = np.random.default_rng(42)
        count = 0
        while count < 15:
            weight, span = make_pair(rng)
            overlap = degenerate_overlap(weight, span)
            if overlap.dim == 0:
                continue
            count += 1
            base_norm = spectral_norm(weighted_projection(weight, span).matrix)
            for _ in range(30):
                t = rng.normal(size=(overlap.dim, weight.dim - span.dim))
                member = projection_family_member(weight, span, t)
                assert base_norm <= spectral_norm(member.matrix) + 1e-10

    def test_family_parametrization_exhausts_solutions(self):
        # every solution of the coupling equation (equivalently, every
        # weight-Hermitian projection with the prescribed range) is the
        # minimal projection plus a map from S-perp into the overlap
        rng = np.random.default_rng(49)
        for _ in range(20):
            weight, span = make_pair(rng)
            blocks = block_decompose(weight, span)
            bs, bp = blocks.frame[0].basis, blocks.frame[1].basis
            d = reduced_solution(blocks.a, blocks.b).matrix
            slack = np.eye(span.dim) - moore_penrose(blocks.a) @ blocks.a
            overlap = degenerate_overlap(weight, span)
            for _ in range(10):
                x = d + slack @ rng.normal(size=d.shape)
                q = bs @ bs.T + bs @ x @ bp.T
                assert np.linalg.norm(weight.base @ q - q.T @ weight.base) < 1e-7
                recovered_t = overlap.basis.T @ bs @ (x - d)
                member = projection_family_member(weight, span, recovered_t)
                np.testing.assert_allclose(member.matrix, q, atol=1e-8)


class TestDiagnostics:
    def test_identity_weight(self):
        rng = np.random.default_rng(43)
        span = make_subspace(rng, 3, 2)
        report = compatibility_diagnostics(PsdOperator.from_matrix(np.eye(3)), span)
        assert report.compatible and report.sum_check
        assert all(report.chain)
        assert report.degenerate.dim == 0

    def test_projected_subspace_case(self):
        weight = PsdOperator.from_matrix(np.diag([1.0, 0.0]))
        span = subspace_from_span(np.array([[1.0], [1.0]]))
        report = compatibility_diagnostics(weight, span)
        assert all(report.chain)
        projected = subspace_from_span(weight.range_proj @ span.basis)
        assert subspace_equal(projected, SPAN_E1)
        assert is_compatible(weight, SPAN_E1)
        assert report.projected_pair_compatible and report.shifted_pair_compatible

    def test_zero_weight(self):
        weight = PsdOperator.from_matrix(np.zeros((2, 2)))
        report = compatibility_diagnostics(weight, SPAN_E1)
        assert all(report.chain)
        # the projection degenerates to the orthogonal one with nullspace S-perp
        np.testing.assert_allclose(report.projection.matrix, np.diag([1.0, 0.0]), atol=1e-12)
        assert subspace_equal(report.projection.nullspace, subspace_from_span(np.array([[0.0], [1.0]])))
        assert subspace_equal(report.preimage_of_complement, subspace_from_span(np.eye(2)))

    def test_chain_all_true_and_consistent(self):
        rng = np.random.default_rng(44)
        for _ in range(40):
            weight, span = make_pair(rng)
            report = compatibility_diagnostics(weight, span)
            assert all(report.chain)
            assert chain_respects_implications(report.chain)
            assert report.compatible == report.sum_check

    def test_implications_hold_under_degraded_tolerance(self):
        rng = np.random.default_rng(45)
        for rank_rel in (1e-10, 1e-7, 1e-4):
            tol = Tolerance(rank_rel=rank_rel)
            for _ in range(15):
                n = int(rng.integers(2, 7))
                weight = make_psd(rng, n, int(rng.integers(0, n + 1)))
                span = make_subspace(rng, n, int(rng.integers(0, n + 1)))
                report = compatibility_diagnostics(weight, span, tol)
                assert chain_respects_implications(report.chain)


class TestStructuralIdentities:
    def test_sqrt_image_decomposition(self):
        # applying the square root to the compatibility splitting of the space
        rng = np.random.default_rng(46)
        for _ in range(25):
            weight, span = make_pair(rng)
            image = subspace_from_span(weight.sqrt @ span.basis, scale=np.sqrt(weight.eigvals[0]))
            meet = intersect(complement(image), weight.range_subspace)
            assert subspace_equal(subspace_sum(image, meet), weight.range_subspace)

    def test_two_reduced_solutions_coincide(self):
        # the compressed equation and the sqrt-factor equation share their
        # reduced solution, which is the projection stripped of the overlap
        rng = np.random.default_rng(47)
        for _ in range(25):
            weight, span = make_pair(rng)
            p = span.projector()
            q1 = reduced_solution(p @ weight.base @ p, p @ weight.base).matrix
            m_proj = subspace_from_span(
                weight.sqrt @ span.basis, scale=np.sqrt(weight.eigvals[0])
            ).projector()
            q2 = reduced_solution(weight.sqrt @ p, m_proj @ weight.sqrt).matrix
            assert np.linalg.norm(q1 - q2) <= 1e-7
            stripped = weighted_projection(weight, span).matrix - degenerate_overlap(
                weight, span
            ).projector()
            assert np.linalg.norm(q1 - stripped) <= 1e-7

    def test_trivial_overlap_split(self):
        # with trivial overlap the space is the direct sum of S and A(S)-perp
        rng = np.random.default_rng(48)
        checked = 0
        while checked < 20:
            weight, span = make_pair(rng)
            if degenerate_overlap(weight, span).dim:
                continue
            checked += 1
            image_perp = complement(
                subspace_from_span(weight.base @ span.basis, scale=weight.eigvals[0])
            )
            assert span.dim + image_perp.dim == weight.dim
            assert intersect(span, image_perp).dim == 0


class TestCoarseTolerance:
    """A coarse rank_rel keeps the overlap inside N(A), as at most
    dim N(A) = n - r sines lie below the angle cutoff 2 rank_rel < 1.  From
    0.5 on the cutoff would pass every sine, and Tolerance refuses it."""

    COARSE = (0.3, 0.49)
    REFUSED = (0.5, 0.6, 0.9)

    @staticmethod
    def pairs(tol):
        # A = I_2 with S = span(e_1), which meets no null direction, and
        # small random pairs at every rank
        rng = np.random.default_rng([1400, round(10 * tol.rank_rel)])
        drawn = [make_pair(rng) for _ in range(40)]
        identity = PsdOperator.from_matrix(np.eye(2), tol)
        return [(identity, SPAN_E1)] + [(PsdOperator.from_matrix(w.base, tol), s) for w, s in drawn]

    @staticmethod
    def entry_points(weight, span, tol):
        n, rng = weight.dim, np.random.default_rng(0)
        overlap = degenerate_overlap(weight, span, tol)
        return (
            lambda: is_compatible(weight, span, tol),
            lambda: weighted_projection(weight, span, tol),
            lambda: weighted_projection_pinv(weight, span, tol),
            lambda: weighted_projection_invertible(weight, span, tol),
            lambda: compatibility_diagnostics(weight, span, tol),
            lambda: spline_with_weight(weight, span, rng.normal(size=n), tol),
            lambda: projection_family_member(weight, span, np.zeros((overlap.dim, n - span.dim)), tol),
            lambda: block_decompose(weight, span),
            lambda: range_space_projection(weight, span, tol).extension_matches,
            lambda: range_space_projection(weight, span, tol).projected_range,
            lambda: range_space_projection(weight, span, tol).induced,
            lambda: range_space_projection(weight, span, tol).complement_density,
            lambda: range_space_projection(weight, span, tol).decompositions,
            lambda: identity_battery(weight, span, tol),
        )

    def test_identity_weight(self):
        # N(A) = 0, so nothing of S meets it, whatever the cutoff
        tol = Tolerance(rank_rel=0.49)
        weight = PsdOperator.from_matrix(np.eye(2), tol)
        assert degenerate_overlap(weight, SPAN_E1, tol).dim == 0
        spline = spline_with_weight(weight, SPAN_E1, np.array([1.0, 2.0]), tol)
        assert spline.unique and spline.freedom.dim == 0
        projection = weighted_projection(weight, SPAN_E1, tol)
        np.testing.assert_allclose(projection.matrix, np.diag([1.0, 0.0]), atol=1e-15)
        assert projection.nullspace.dim == 1
        report = compatibility_diagnostics(weight, SPAN_E1, tol)
        assert report.compatible and report.degenerate.dim == 0

    @staticmethod
    def refusal(rank_rel):
        return f"rank_rel must lie strictly in (0, 0.5), got {rank_rel}"

    @pytest.mark.parametrize("rank_rel", REFUSED)
    def test_refused(self, rank_rel):
        with pytest.raises(ValueError, match=rf"^{re.escape(self.refusal(rank_rel))}$"):
            Tolerance(rank_rel=rank_rel)

    @pytest.mark.parametrize("rank_rel", REFUSED)
    def test_cli_refuses(self, rank_rel, tmp_path, capsys):
        a, s = tmp_path / "a.json", tmp_path / "s.json"
        io.save_obj(io.matrix_to_obj(np.eye(2)), a)
        io.save_obj(io.subspace_to_obj(SPAN_E1), s)
        assert cli.main(["compat", f"--input-a={a}", f"--input-s={s}", f"--tol-rank={rank_rel}"]) == 2
        streams = capsys.readouterr()
        assert (streams.out, streams.err) == ("", f"error: {self.refusal(rank_rel)}\n")

    @pytest.mark.parametrize("rank_rel", COARSE)
    def test_overlap_stays_inside_the_nullspace(self, rank_rel):
        tol = Tolerance(rank_rel=rank_rel)
        for weight, span in self.pairs(tol):
            overlap = degenerate_overlap(weight, span, tol)
            assert overlap.dim <= min(span.dim, weight.dim - weight.rank)
            for call in self.entry_points(weight, span, tol):
                try:
                    call()
                except Error:
                    pass

    @pytest.mark.parametrize("rank_rel", COARSE)
    def test_cli_raises_only_library_errors(self, rank_rel, tmp_path):
        tol = Tolerance(rank_rel=rank_rel)
        for i, (weight, span) in enumerate(self.pairs(tol)[:12]):
            files = {
                "a": tmp_path / f"a{i}.json",
                "s": tmp_path / f"s{i}.json",
                "b": tmp_path / f"b{i}.json",
                "x": tmp_path / f"x{i}.json",
            }
            io.save_obj(io.matrix_to_obj(weight.base), files["a"])
            io.save_obj(io.subspace_to_obj(span), files["s"])
            io.save_obj(io.matrix_to_obj(weight.base @ span.basis), files["b"])
            io.save_obj(io.matrix_to_obj(np.ones((weight.dim, 1))), files["x"])
            inputs = {key: str(path) for key, path in files.items()}
            for command in ("compat", "project", "douglas", "interpolate", "oprange", "report"):
                job = cli.JobSpec(command, inputs, tol)
                try:
                    cli.run(job)
                except Error:
                    pass
                argv = [command, *(f"--input-{key}={path}" for key, path in inputs.items())]
                assert cli.main([*argv, f"--tol-rank={rank_rel}", f"--output={tmp_path / 'out.json'}"]) != 2
