import ast
import inspect

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from obliqueproj import (
    DimensionMismatch,
    NotPsd,
    PsdOperator,
    Subspace,
    Tolerance,
    complement,
    contains,
    intersect,
    moore_penrose,
    nullspace_of,
    numerical_rank,
    seminorm,
    subspace_equal,
    subspace_from_span,
    subspace_sum,
)
from obliqueproj import douglas, interpolant, linalg, oblique, oprange
from obliqueproj.linalg import (
    _agree,
    _clip_sign,
    _contains_bases,
    _norm,
    _norms,
    _rank_from_values,
    _reflectors,
    _within,
)
from support import (
    NotContained,
    complement_by_compact_wy,
    complement_by_complete_qr,
    friedrichs_angle,
    intersection_by_nullspace,
    make_psd,
    make_subspace,
    ortho_projector,
    preimage,
    singular_values_by_eig,
    subtract,
    weight_pinv,
)

EPS = np.finfo(float).eps
E1 = np.array([[1.0], [0.0]])
E2 = np.array([[0.0], [1.0]])


def span(*cols):
    return subspace_from_span(np.column_stack([np.asarray(c, dtype=float) for c in cols]))


class TestTolerance:
    def test_defaults(self):
        tol = Tolerance()
        assert tol.rank_rel == 1e-10 and tol.eq_abs == 1e-8 and tol.psd_neg == 1e-10

    @pytest.mark.parametrize("bad", [0.0, 1.0, -1e-3, 2.0])
    def test_bounds_enforced(self, bad):
        with pytest.raises(ValueError):
            Tolerance(rank_rel=bad)

    def test_orthogonal_lines_stay_apart_up_to_one_half(self):
        # the angle cutoff 2 rank_rel stays under 1 on the whole domain
        e1, e2 = subspace_from_span(np.eye(3)[:, :1]), subspace_from_span(np.eye(3)[:, 1:2])
        assert intersect(e1, e2, Tolerance(rank_rel=np.nextafter(0.5, 0.0))).dim == 0


class TestNumericalRank:
    def test_identity(self):
        assert numerical_rank(np.eye(3)) == 3

    def test_zero(self):
        assert numerical_rank(np.zeros((2, 2))) == 0

    def test_rank_one(self):
        m = np.ones((2, 2))
        # oracle: singular values from an independent eigen-solver are {2, 0}
        s = singular_values_by_eig(m)
        np.testing.assert_allclose(s, [2.0, 0.0], atol=1e-12)
        assert numerical_rank(m) == 1

    def test_tie_is_included(self):
        # a singular value sitting exactly at the cutoff counts toward the rank
        tol = Tolerance(rank_rel=0.25)
        assert numerical_rank(np.diag([4.0, 1.0]), tol) == 2
        assert numerical_rank(np.diag([4.0, 0.999]), tol) == 1

    @pytest.mark.parametrize("scale", [None, 1.0])
    def test_stack_ranks_each_row(self, scale):
        # The rule on one row of values, each row of the former stacked
        # test: ties at the cutoff, zero rows and rows of noise under an
        # anchoring scale, against a count over the row.
        rng = np.random.default_rng(4)
        rows = np.abs(rng.normal(size=(40, 6))) * 10.0 ** rng.integers(-14, 1, size=(40, 6))
        rows = -np.sort(-rows, axis=1)
        rows[0] = 0.0
        rows[1] = [4.0, 1.0, 1.0, 0.999, 0.0, 0.0]
        tol = Tolerance(rank_rel=0.25)
        for t in (tol, Tolerance()):
            for row in rows:
                anchor = row[0] if scale is None else max(row[0], scale)
                expected = sum(value >= t.rank_rel * anchor for value in row) if row[0] > 0.0 else 0
                assert _rank_from_values(row, t, scale) == expected
        assert [_rank_from_values(row, tol) for row in rows[:2]] == [0, 3]
        assert _rank_from_values(np.zeros(0), tol) == 0
        # the quietest nonzero row keeps no value under the anchor 1, and its
        # lead under its own
        quiet = rows[np.argmin(np.where(rows[:, 0] > 0.0, rows[:, 0], np.inf))]
        assert 0.0 < quiet[0] < 1e-8
        assert (_rank_from_values(quiet, tol, scale) == 0) == (scale is not None)


class TestResidualRule:
    def test_tie_passes(self):
        tol = Tolerance(eq_abs=0.25)
        assert _within(1.0, 4.0, tol) and not _within(np.nextafter(1.0, 2.0), 4.0, tol)
        assert _within(2.5, 1.0, tol, slack=10.0)
        assert not _within(np.nextafter(2.5, 3.0), 1.0, tol, slack=10.0)

    @pytest.mark.parametrize("slack", [1.0, 10.0])
    def test_array_decides_each_item(self, slack):
        # The rule on an array of residuals and anchors is the rule on each
        # pair: ties, zero residuals and zero anchors.
        rng = np.random.default_rng(5)
        tol = Tolerance(eq_abs=0.25)
        anchors = rng.uniform(0.0, 4.0, size=40)
        residuals = slack * 0.25 * anchors * rng.uniform(0.5, 1.5, size=40)
        anchors[:3] = [0.0, 0.0, 4.0]
        residuals[:3] = [0.0, 1e-300, slack]
        verdicts = _within(residuals, anchors, tol, slack)
        one_by_one = [_within(float(r), float(a), tol, slack) for r, a in zip(residuals, anchors)]
        assert verdicts.tolist() == one_by_one
        assert verdicts[:3].tolist() == [True, False, True]

    def test_agreement_is_a_slack_of_ten_over_the_anchor(self):
        tol = Tolerance(eq_abs=0.25)
        assert _agree(2.5, tol) and not _agree(np.nextafter(2.5, 3.0), tol)
        assert _agree(5.0, tol, 2.0) and not _agree(np.nextafter(5.0, 6.0), tol, 2.0)
        gaps = np.array([0.0, 2.5, 2.6])
        assert _agree(gaps, tol).tolist() == _within(gaps, 1.0, tol, slack=10.0).tolist() == [True, True, False]

    def test_stacked_and_per_column_forms(self):
        # contains() on a stack of bases and in_weight_range() on a block of
        # columns give the verdicts of one call per item.
        rng = np.random.default_rng(6)
        tol = Tolerance(eq_abs=1e-3)
        outer = make_subspace(rng, 5, 3)
        inside = outer.basis @ np.linalg.qr(rng.normal(size=(3, 2)))[0]
        bases = [np.linalg.qr(inside + 10.0 ** -e * rng.normal(size=(5, 2)))[0] for e in range(1, 7)]
        verdicts = _contains_bases(outer, np.stack(bases), tol)
        assert verdicts.tolist() == [contains(outer, Subspace(5, b), tol) for b in bases]
        assert 0 < np.count_nonzero(verdicts) < len(bases)
        weight = make_psd(rng, 5, 3)
        u = weight.base @ rng.normal(size=(5, 6)) + 10.0 ** -np.arange(1.0, 7.0) * rng.normal(size=(5, 6))
        verdicts = oprange._in_range(weight, u, tol)
        assert verdicts.tolist() == [oprange.in_weight_range(weight, col, tol) for col in u.T]
        assert 0 < np.count_nonzero(verdicts) < 6


class TestNorm:
    SIZES = (0, 1, 2, 8, 64, 512)
    SCALES = (1e-300, 1.0, 1e150, 1e154, 1e155, 1e300)

    @staticmethod
    def layouts(rng, size):
        """1-D and 2-D arrays of ``size`` rows: C and Fortran order,
        transposed and strided views."""
        v = rng.normal(size=2 * size)
        m = rng.normal(size=(2 * size, 6))
        c = np.ascontiguousarray(m[:size, :3])
        return [v[:size], v[::2], c, np.asfortranarray(c), c.T, m[::2, ::2], m[::2, ::2].T]

    @pytest.mark.parametrize("size", SIZES)
    def test_equals_numpy_bit_for_bit(self, size):
        rng = np.random.default_rng([9, size])
        overflowed = set()
        for x in self.layouts(rng, size):
            for scale in self.SCALES:
                # both warn alike on an overflow of the dot product
                with np.errstate(over="ignore"):
                    expected = np.linalg.norm(scale * x)
                    got = _norm(scale * x)
                assert np.float64(got).tobytes() == expected.tobytes(), (x.shape, x.strides, scale)
                if np.isinf(got):
                    overflowed.add(scale)
        # the sum of squares overflows to inf past about 1e154
        assert overflowed >= ({1e155, 1e300} if size else set()) and 1e150 not in overflowed

    @pytest.mark.parametrize("size", SIZES)
    def test_norms_along_axes_equal_numpy_bit_for_bit(self, size):
        # the column norms of a block and the norms of each matrix of a
        # stack, as the library takes them
        rng = np.random.default_rng([10, size])
        block = rng.normal(size=(size, 7))
        stack = rng.normal(size=(5, size, 3))
        cases = [(block, 0), (block, 1), (block.T, 0), (np.asfortranarray(block), 0), (block[::2], 0),
                 (stack, (-2, -1)), (stack.transpose(0, 2, 1), (-2, -1)), (stack[0], (-2, -1))]
        for x, axis in cases:
            for scale in self.SCALES:
                with np.errstate(over="ignore"):
                    expected = np.linalg.norm(scale * x, axis=axis)
                    got = _norms(scale * x, axis)
                assert type(got) is type(expected) and got.shape == expected.shape
                assert got.tobytes() == expected.tobytes(), (x.shape, axis, scale)

    def test_empty_and_zero(self):
        assert _norm(np.zeros((0, 3))) == 0.0 and _norm(np.zeros((2, 2))) == 0.0
        assert np.float64(_norm(np.array([-0.0]))).tobytes() == np.linalg.norm(np.array([-0.0])).tobytes()


class TestSignRule:
    def test_tie_clips(self):
        tol = Tolerance(psd_neg=0.25)
        assert _clip_sign(np.array([1.0, -0.25]), tol, "{}").tolist() == [1.0, 0.0]
        assert _clip_sign(-0.25, tol, "{}") == 0.0
        with pytest.raises(NotPsd, match="^least -2.500e-01$"):
            _clip_sign(np.array([1.0, np.nextafter(-0.25, -1.0)]), tol, "least {:.3e}")

    def test_array_decides_as_each_value(self):
        # An array clips as its values do one by one, and raises exactly when
        # one of them would, with its least value in the message.
        rng = np.random.default_rng(7)
        tol = Tolerance()
        values = rng.normal(scale=1e-10, size=40)
        values[:2] = [-1e-10, 0.0]
        kept = values[values >= -1e-10]
        assert _clip_sign(kept, tol, "{}").tolist() == [float(_clip_sign(v, tol, "{}")) for v in kept]
        for v in values[values < -1e-10]:
            with pytest.raises(NotPsd):
                _clip_sign(v, tol, "{}")
        with pytest.raises(NotPsd) as raised:
            _clip_sign(values, tol, "{:.17g}")
        assert str(raised.value) == f"{values.min():.17g}"

    def test_first_names_the_first_offender_in_row_order(self):
        tol = Tolerance(psd_neg=0.25)
        values = np.array([1.0, -0.25, np.nextafter(-0.25, -1.0), -3.0, -0.5])
        with pytest.raises(NotPsd) as raised:
            _clip_sign(values, tol, "{:.17g}", first=True)
        # the tie at -psd_neg clips; the next value is the first offender,
        # not the least one, which the plain rule names
        assert str(raised.value) == f"{np.nextafter(-0.25, -1.0):.17g}"
        with pytest.raises(NotPsd, match="^-3$"):
            _clip_sign(values, tol, "{:.17g}")
        with pytest.raises(NotPsd, match="^-1$"):
            _clip_sign(np.array([[0.0, -1.0], [-5.0, 0.0]]), tol, "{:.17g}", first=True)
        with pytest.raises(NotPsd, match="^-2$"):
            _clip_sign(-2.0, tol, "{:.17g}", first=True)

    def test_first_clips_as_the_plain_rule(self):
        # With no value under -psd_neg, first changes nothing: ties at the
        # cutoff, zeros, NaN and scalars.
        rng = np.random.default_rng(8)
        tol = Tolerance()
        values = rng.normal(scale=1e-10, size=40)
        values = values[values >= -1e-10]
        values[:3] = [-1e-10, 0.0, -0.0]
        for v in (values, values.reshape(-1, 1), np.append(values, np.nan), -1e-10, 0.5):
            np.testing.assert_array_equal(_clip_sign(v, tol, "{}", first=True), _clip_sign(v, tol, "{}"))
        assert _clip_sign(np.array([-0.25, 1.0]), Tolerance(psd_neg=0.25), "{}", first=True).tolist() == [0.0, 1.0]

    def test_messages(self):
        with pytest.raises(NotPsd, match=r"^weight matrix has negative eigenvalue -1\.000e\+00$"):
            PsdOperator.from_matrix(-np.eye(2))
        message = r"^the quadratic form is negative \(-2\.000e\+00\); the weight is not PSD$"
        with pytest.raises(NotPsd, match=message):
            seminorm(PsdOperator(-np.eye(2), -np.ones(2), np.eye(2), 0), np.ones(2))


def test_library_modules_decide_through_linalg():
    # Outside linalg, the library modules read neither threshold of the
    # residual and sign rules; they call the rules.  Docstrings do not count.
    def thresholds_read(module):
        tree = ast.parse(inspect.getsource(module))
        return [
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr in ("eq_abs", "psd_neg")
        ]

    for module in (oblique, oprange, douglas, interpolant):
        assert thresholds_read(module) == [], module.__name__
    # the walk sees the reads where the rules live
    assert set(thresholds_read(linalg)) == {"eq_abs", "psd_neg"}


class TestSubspaceFromSpan:
    def test_duplicate_column(self):
        s = span([1, 0], [1, 0])
        assert s.dim == 1
        assert contains(s, span([1, 0]))

    def test_empty(self):
        s = subspace_from_span(np.zeros((2, 0)))
        assert s.dim == 0 and s.ambient_dim == 2

    def test_full_plane(self):
        vecs = np.array([[1.0, 1.0], [1.0, -1.0]])
        assert np.linalg.matrix_rank(vecs) == 2  # oracle
        assert subspace_from_span(vecs).dim == 2

    def test_orthonormal_basis(self):
        s = span([3, 4], [1, 1])
        np.testing.assert_allclose(s.basis.T @ s.basis, np.eye(s.dim), atol=1e-12)


class TestComplement:
    def test_axis(self):
        assert subspace_equal(complement(span([1, 0])), span([0, 1]))

    def test_full_space(self):
        assert complement(span([1, 0], [0, 1])).dim == 0

    def test_diagonal_line(self):
        c = complement(span([1, 1]))
        # oracle: every returned column orthogonal to the input
        assert abs(c.basis[:, 0] @ np.array([1.0, 1.0]) / np.sqrt(2)) < 1e-12
        assert subspace_equal(c, span([1, -1]))

    @staticmethod
    def assert_complete_qr_frame(s):
        # The columns of the complete QR's frame entrywise, not only its
        # subspace: orthonormal, orthogonal to S and read-only.
        n, k = s.ambient_dim, s.dim
        c, oracle = complement(s).basis, complement_by_complete_qr(s).basis
        bound = 10 * n * EPS
        assert c.shape == oracle.shape == (n, n - k)
        assert np.max(np.abs(c - oracle), initial=0.0) <= bound
        assert np.max(np.abs(c.T @ c - np.eye(n - k)), initial=0.0) <= bound
        assert np.max(np.abs(s.basis.T @ c), initial=0.0) <= bound
        assert not c.flags.writeable

    @staticmethod
    def draw(rng, n, k, axes):
        if axes:  # signed coordinate axes: some reflectors have tau = 0
            columns = rng.permutation(n)[:k]
            return Subspace(n, np.eye(n)[:, columns] * rng.choice([-1.0, 1.0], size=k))
        return make_subspace(rng, n, k)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 64), st.floats(0.0, 1.0), st.booleans(), st.integers(0, 2**32 - 1))
    def test_matches_the_complete_qr(self, n, share, axes, seed):
        rng = np.random.default_rng(seed)
        s = self.draw(rng, n, round(share * n), axes)
        self.assert_complete_qr_frame(s)
        self.assert_formed_as_the_oracle(s)

    @staticmethod
    def assert_formed_as_the_oracle(s):
        # The reflector kernel builds V and T without np.tril and np.diag;
        # the basis it forms is the oracle's, bit for bit.
        c, oracle = complement(s).basis, complement_by_compact_wy(s).basis
        assert c.shape == oracle.shape and c.dtype == oracle.dtype
        assert c.tobytes() == oracle.tobytes()

    @pytest.mark.parametrize("axes", [False, True])
    def test_formed_bit_for_bit_at_every_k(self, axes):
        rng = np.random.default_rng(17 + axes)
        for n in range(1, 17):
            for k in range(n + 1):
                self.assert_formed_as_the_oracle(self.draw(rng, n, k, axes))

    @staticmethod
    def assert_applied_as_formed(s, x):
        # x B_perp through the reflectors, against the product with the
        # formed basis: the same frame, so they differ by roundoff only.
        n, k = s.ambient_dim, s.dim
        applied, formed = _reflectors(s.basis).apply_perp(x), x @ complement(s).basis
        assert applied.shape == formed.shape == (x.shape[0], n - k)
        bound = 2 * n * EPS * np.linalg.norm(x)
        assert np.max(np.abs(applied - formed), initial=0.0) <= bound

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 64),
        st.floats(0.0, 1.0),
        st.booleans(),
        st.integers(1, 6),
        st.integers(-8, 8),
        st.integers(0, 2**32 - 1),
    )
    def test_applied_form_matches_the_formed_basis(self, n, share, axes, rows, scale, seed):
        rng = np.random.default_rng(seed)
        s = self.draw(rng, n, round(share * n), axes)
        self.assert_applied_as_formed(s, rng.normal(size=(rows, n)) * 10.0**scale)

    @pytest.mark.parametrize(
        "n, axes, identity",
        [(3, [0], [True]), (4, [0], [True]), (3, [0, 2], [True, False]), (5, [0, 2], [True, False])],
    )
    def test_coordinate_axes(self, n, axes, identity):
        # span(e_1) and span(e_1, e_3): the first reflector is the identity (tau = 0)
        s = Subspace(n, np.eye(n)[:, axes])
        assert np.array_equal(np.linalg.qr(s.basis, mode="raw")[1] == 0.0, identity)
        self.assert_complete_qr_frame(s)
        self.assert_formed_as_the_oracle(s)
        rest = [i for i in range(n) if i not in axes]
        assert subspace_equal(complement(s), Subspace(n, np.eye(n)[:, rest]))

    @pytest.mark.parametrize(
        "n, k", [(1, 0), (1, 1), (2, 1), (5, 0), (5, 1), (5, 4), (5, 5), (64, 0), (64, 1), (64, 63), (64, 64)]
    )
    def test_edge_dimensions(self, n, k):
        rng = np.random.default_rng(n + k)
        s = make_subspace(rng, n, k)
        self.assert_complete_qr_frame(s)
        self.assert_formed_as_the_oracle(s)
        x = rng.normal(size=(2, n))
        self.assert_applied_as_formed(s, x)
        if k in (0, n):  # the identity, or no column at all
            assert np.array_equal(_reflectors(s.basis).apply_perp(x), x[:, k:])


class TestIntersect:
    def test_self(self):
        s = span([1, 2], [0, 1])
        assert subspace_equal(intersect(s, s), s)

    def test_axes(self):
        assert intersect(span([1, 0]), span([0, 1])).dim == 0

    def test_plane_overlap(self):
        s1 = subspace_from_span(np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))
        s2 = subspace_from_span(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]))
        got = intersect(s1, s2)
        # oracle: solve for common vectors through the stacked nullspace
        common = intersection_by_nullspace(s1.basis, s2.basis)
        expected = subspace_from_span(common)
        assert subspace_equal(got, expected)
        assert subspace_equal(got, subspace_from_span(np.array([[0.0], [1.0], [0.0]])))

    def test_ambient_mismatch(self):
        with pytest.raises(DimensionMismatch):
            intersect(span([1, 0]), subspace_from_span(np.eye(3)))


class TestSubspaceSum:
    def test_with_zero(self):
        s = span([1, 2])
        zero = subspace_from_span(np.zeros((2, 0)))
        assert subspace_equal(subspace_sum(s, zero), s)

    def test_axes_fill_plane(self):
        assert subspace_sum(span([1, 0]), span([0, 1])).dim == 2

    def test_diagonals_fill_plane(self):
        stacked = np.array([[1.0, 1.0], [1.0, -1.0]])
        assert np.linalg.matrix_rank(stacked) == 2  # oracle
        assert subspace_sum(span([1, 1]), span([1, -1])).dim == 2


class TestSubtract:
    def test_minus_zero(self):
        s = span([1, 1])
        zero = subspace_from_span(np.zeros((2, 0)))
        assert subspace_equal(subtract(s, zero), s)

    def test_minus_self(self):
        s = span([1, 1])
        assert subtract(s, s).dim == 0

    def test_orthogonal_split(self):
        s12 = subspace_from_span(np.eye(3)[:, :2])
        got = subtract(s12, subspace_from_span(np.eye(3)[:, :1]))
        assert subspace_equal(got, subspace_from_span(np.eye(3)[:, 1:2]))

    def test_not_contained(self):
        with pytest.raises(NotContained):
            subtract(span([1, 0]), span([0, 1]))


class TestPreimage:
    def test_identity(self):
        s = span([1, 2])
        assert subspace_equal(preimage(np.eye(2), s), s)

    def test_zero_map(self):
        assert preimage(np.zeros((2, 2)), span([1, 0])).dim == 2

    def test_partial(self):
        w = np.diag([1.0, 0.0])
        got = preimage(w, span([0, 1]))
        # oracle: brute force over the coordinate basis vectors
        e1_in = np.allclose((np.eye(2) - span([0, 1]).projector()) @ w @ [1, 0], 0)
        e2_in = np.allclose((np.eye(2) - span([0, 1]).projector()) @ w @ [0, 1], 0)
        assert (e1_in, e2_in) == (False, True)
        assert subspace_equal(got, span([0, 1]))

    def test_contains_nullspace(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = int(rng.integers(2, 7))
            w = rng.normal(size=(n, n))
            s = make_subspace(rng, n, int(rng.integers(0, n + 1)))
            assert contains(preimage(w, s), nullspace_of(w))

    def test_rank_nullity(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            n = int(rng.integers(2, 7))
            w = rng.normal(size=(n, n))
            s = make_subspace(rng, n, int(rng.integers(0, n + 1)))
            blocker = complement(s).projector() @ w
            assert preimage(w, s).dim == n - np.linalg.matrix_rank(blocker, tol=1e-10)


class TestOrthoProjector:
    def test_axis(self):
        np.testing.assert_allclose(ortho_projector(span([1, 0])).matrix, np.diag([1.0, 0.0]))

    def test_full(self):
        np.testing.assert_allclose(ortho_projector(span([1, 0], [0, 1])).matrix, np.eye(2))

    def test_diagonal_line(self):
        expected = np.full((2, 2), 0.5)  # oracle: basis @ basis.T by hand
        np.testing.assert_allclose(ortho_projector(span([1, 1])).matrix, expected, atol=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 5), st.integers(0, 5), st.integers(0, 2**32 - 1))
    def test_projector_laws(self, n, k, seed):
        s = make_subspace(np.random.default_rng(seed), n, min(k, n))
        p = ortho_projector(s).matrix
        assert np.linalg.norm(p @ p - p) < 1e-10
        assert np.linalg.norm(p - p.T) < 1e-12
        assert abs(np.trace(p) - s.dim) < 1e-10


class TestMoorePenrose:
    def test_identity(self):
        np.testing.assert_allclose(moore_penrose(np.eye(2)), np.eye(2))

    def test_diagonal(self):
        np.testing.assert_allclose(moore_penrose(np.diag([2.0, 0.0])), np.diag([0.5, 0.0]))

    def test_rank_one(self):
        got = moore_penrose(np.ones((2, 2)))
        np.testing.assert_allclose(got, np.full((2, 2), 0.25), atol=1e-12)
        # oracle: the four Penrose identities, checked numerically
        w = np.ones((2, 2))
        assert np.allclose(w @ got @ w, w)
        assert np.allclose(got @ w @ got, got)
        assert np.allclose((w @ got).T, w @ got)
        assert np.allclose((got @ w).T, got @ w)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 2**32 - 1))
    def test_penrose_identities_random(self, rows, cols, seed):
        rng = np.random.default_rng(seed)
        w = rng.normal(size=(rows, cols))
        pinv = moore_penrose(w)
        bound = 10 * 1e-8
        assert np.linalg.norm(w @ pinv @ w - w) < bound
        assert np.linalg.norm(pinv @ w @ pinv - pinv) < bound
        assert np.linalg.norm((w @ pinv).T - w @ pinv) < bound
        assert np.linalg.norm((pinv @ w).T - pinv @ w) < bound

    def test_against_scipy(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            w = rng.normal(size=(int(rng.integers(1, 7)), int(rng.integers(1, 7))))
            np.testing.assert_allclose(moore_penrose(w), scipy.linalg.pinv(w), atol=1e-9)

    def test_projector_characterization(self):
        rng = np.random.default_rng(12)
        w = rng.normal(size=(5, 3)) @ rng.normal(size=(3, 6))  # rank 3
        pinv = moore_penrose(w)
        np.testing.assert_allclose(w @ pinv, scipy.linalg.orth(w) @ scipy.linalg.orth(w).T, atol=1e-9)
        np.testing.assert_allclose(pinv @ w, scipy.linalg.orth(w.T) @ scipy.linalg.orth(w.T).T, atol=1e-9)


class TestFriedrichsAngle:
    def test_orthogonal(self):
        assert friedrichs_angle(span([1, 0]), span([0, 1])) == 0.0

    def test_equal_subspaces(self):
        s = span([1, 2])
        assert friedrichs_angle(s, s) == 0.0

    def test_diagonal_vs_axis(self):
        s1, s2 = span([1, 0]), span([1, 1])
        got = friedrichs_angle(s1, s2)
        # oracle: direct maximization of <x, y> over unit vectors of each span
        # (both are lines, so the unit vectors are +-basis)
        best = abs(float(s1.basis[:, 0] @ s2.basis[:, 0]))
        assert abs(got - best) < 1e-12
        assert abs(got - 1 / np.sqrt(2)) < 1e-12

    def test_against_scipy_principal_angles(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            n = int(rng.integers(2, 7))
            s1 = make_subspace(rng, n, int(rng.integers(1, n + 1)))
            s2 = make_subspace(rng, n, int(rng.integers(1, n + 1)))
            if intersect(s1, s2).dim:
                continue  # scipy keeps intersection angles; compare on trivial meets
            angles = scipy.linalg.subspace_angles(s1.basis, s2.basis)
            np.testing.assert_allclose(friedrichs_angle(s1, s2), np.cos(angles.min()), atol=1e-9)


class TestDeMorgan:
    def test_complement_of_sum(self):
        rng = np.random.default_rng(14)
        for _ in range(30):
            n = int(rng.integers(2, 8))
            s1 = make_subspace(rng, n, int(rng.integers(0, n + 1)))
            s2 = make_subspace(rng, n, int(rng.integers(0, n + 1)))
            lhs = complement(subspace_sum(s1, s2))
            rhs = intersect(complement(s1), complement(s2))
            assert subspace_equal(lhs, rhs)


class TestPsdOperator:
    def test_spectral_cache_invariants(self):
        rng = np.random.default_rng(15)
        for _ in range(25):
            n = int(rng.integers(1, 8))
            a = make_psd(rng, n, int(rng.integers(0, n + 1)))
            np.testing.assert_allclose(a.sqrt @ a.sqrt, a.base, atol=1e-10)
            np.testing.assert_allclose(a.base @ weight_pinv(a) @ a.base, a.base, atol=1e-10)
            np.testing.assert_allclose(a.eigvecs.T @ a.eigvecs, np.eye(n), atol=1e-12)
            assert np.all(a.eigvals >= 0) and np.all(np.diff(a.eigvals) <= 1e-15)
            # range of the operator equals range of its square root
            assert subspace_equal(a.range_subspace, subspace_from_span(a.sqrt))

    def test_rejects_negative(self):
        with pytest.raises(NotPsd):
            PsdOperator.from_matrix(-np.eye(2))

    def test_rejects_asymmetric(self):
        with pytest.raises(NotPsd):
            PsdOperator.from_matrix(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_clips_roundoff_negatives(self):
        a = PsdOperator.from_matrix(np.diag([1.0, -1e-12]))
        assert a.eigvals[-1] == 0.0 and a.rank == 1

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            PsdOperator.from_matrix(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("c", [1.0, 1e154, 1e300, 8e307, 9e307, 1.7e308])
    def test_large_finite_weights_keep_their_spectrum(self, c):
        # (m + m^T) / 2 overflowed past about 9e307 and left rank 0; pytest
        # turns the RuntimeWarning of an overflow into an error.
        a = PsdOperator.from_matrix(c * np.eye(3))
        assert a.rank == 3
        np.testing.assert_allclose(a.eigvals, c, rtol=1e-14)

    @pytest.mark.parametrize("c", [1.0, 1e150, 1e160, 1e300])
    def test_rejects_asymmetric_at_every_scale(self, c):
        # The anchor 1 + ||m|| overflowed past ||m|| ~ 1.3e154 and let every
        # matrix through.
        with pytest.raises(NotPsd):
            PsdOperator.from_matrix(c * np.array([[1.0, 1.0], [0.0, 1.0]]))


class TestEqualityHelpers:
    def test_basis_independence(self):
        s1 = span([1, 1])
        s2 = span([-2, -2])
        assert subspace_equal(s1, s2)
        assert contains(s1, s2) and contains(s2, s1)

    def test_strictness(self):
        assert not subspace_equal(span([1, 0]), span([1, 1]))


class TestProjectionCertificates:
    def test_verify_accepts_valid(self):
        assert ortho_projector(span([1, 1])).verify()

    def test_verify_rejects_broken(self):
        from obliqueproj import ObliqueProjection

        broken = ObliqueProjection(np.full((2, 2), 0.3), span([1, 0]), span([0, 1]))
        assert not broken.verify()

    def test_nullspace_from_another_space_raises(self):
        from obliqueproj import ObliqueProjection

        with pytest.raises(DimensionMismatch):
            ObliqueProjection(np.eye(2), Subspace(2, np.eye(2)), Subspace(3, np.zeros((3, 0))))
