"""Decomposition budgets of the entry points, counted at numpy.

``np.linalg.norm(m, 2)`` calls the ``svd`` bound inside ``numpy.linalg._linalg``
rather than ``np.linalg.svd``, so both bindings are counted.  A budget counts
factorizations, not calls: a stacked call on an input of shape (..., m, n)
factorizes ``prod(shape[:-2])`` matrices.
"""

import inspect
import math

import numpy as np
import numpy.linalg._linalg as np_linalg_impl
import pytest

import obliqueproj
from obliqueproj import (
    DEFAULT_TOL,
    PsdOperator,
    block_decompose,
    linalg,
    oblique,
    oprange,
    chart_extension,
    cli,
    compatibility_diagnostics,
    degenerate_overlap,
    is_compatible,
    is_weight_hermitian,
    projection_family_member,
    range_inclusion,
    range_space_projection,
    reduced_solution,
    spline,
    spline_with_weight,
    weighted_projection,
    weighted_projection_invertible,
    weighted_projection_pinv,
)
from obliqueproj.report import identity_battery
from support import make_overlapping_pair

N = 24


class Calls(dict):
    """Input shapes per decomposition kind, with (mode, shape) for QR, and
    in ``values_only`` the input shapes of the SVDs that skip the vectors."""

    values_only: list

    def factorizations(self, kind: str) -> int:
        shapes = [entry[1] if kind == "qr" else entry for entry in self[kind]]
        return sum(math.prod(shape[:-2]) for shape in shapes)


@pytest.fixture
def counted(monkeypatch):
    """Records the input shape of every SVD and eigh numpy performs, and the
    mode and input shape of every QR."""
    calls = Calls(svd=[], eigh=[], qr=[])
    calls.values_only = []
    svd, eigh, qr = np.linalg.svd, np.linalg.eigh, np.linalg.qr

    def counting_svd(a, *args, **kwargs):
        calls["svd"].append(np.shape(a))
        if not kwargs.get("compute_uv", True):
            calls.values_only.append(np.shape(a))
        return svd(a, *args, **kwargs)

    def counting_eigh(a, *args, **kwargs):
        calls["eigh"].append(np.shape(a))
        return eigh(a, *args, **kwargs)

    def counting_qr(a, mode="reduced"):
        calls["qr"].append((mode, np.shape(a)))
        return qr(a, mode=mode)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    monkeypatch.setattr(np_linalg_impl, "svd", counting_svd)
    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    monkeypatch.setattr(np.linalg, "qr", counting_qr)
    return calls


def qr_of_n_rows(calls, n=N):
    """The (mode, shape) of every QR of an input of n-row matrices.  A
    complete QR builds an n x n orthogonal factor; a raw one returns only
    the reflectors."""
    return [(mode, shape) for mode, shape in calls["qr"] if shape[-2] == n]


@pytest.fixture(scope="module")
def pair():
    # rank n/2, dim S = n/3, and S meets N(A) in n/8 dimensions
    rng = np.random.default_rng(2024)
    weight, span = make_overlapping_pair(rng, N, N // 2, N // 3, N // 8)
    return weight, span, rng.normal(size=N)


def test_weighted_projection_budget(pair, counted):
    weight, span, _ = pair
    weighted_projection(weight, span)
    # C, and M = Λ^{1/2} U_ρ for the shift; the split is one raw QR of Λ U_ρ
    assert counted.factorizations("svd") == 2
    assert counted["eigh"] == []
    assert (N, N) not in counted["svd"]
    # P = B_S (B_S^T + G_ρ^+ Λ^{1/2} V_r^T - W_ρ W_ρ^T B_S^T) needs no basis of S^perp
    assert qr_of_n_rows(counted) == []


def test_block_decompose_budget(pair, counted):
    # The blocks read B_S^T A and the complement from the pair geometry's
    # reflectors only, so neither C nor a is decomposed.
    weight, span, _ = pair
    block_decompose(weight, span)
    assert counted["svd"] == []
    assert counted["eigh"] == []
    assert counted["qr"] == [("raw", (N, span.dim))]


@pytest.fixture
def formed(monkeypatch):
    """The row count of every complement basis the library forms; each one,
    public complement() included, comes from _Reflectors.perp."""
    rows = []
    perp = linalg._Reflectors.perp

    def recording_perp(self):
        basis = perp(self)
        rows.append(basis.shape[0])
        return basis

    monkeypatch.setattr(linalg._Reflectors, "perp", recording_perp)
    return rows


def test_compatibility_diagnostics_budget(pair, counted, formed):
    weight, span, _ = pair
    report = compatibility_diagnostics(weight, span)
    assert all(report.chain) and report.sum_check
    assert counted["eigh"] == []
    # the report publishes the coupling in the frame of S^perp, which it
    # applies through the Householder reflectors of B_S: one raw QR, no
    # n x n orthogonal factor and no n x (n - k) basis of S^perp; this also
    # shows the QR counter sees the library's calls
    assert qr_of_n_rows(counted) == [("raw", (N, span.dim))]
    assert [shape for mode, shape in qr_of_n_rows(counted) if mode == "complete"] == []
    # nor any other complement basis but K, the split's complement of
    # R(Λ U_ρ) in R^r: the shifted-pair re-checks are theorems and solve no
    # inclusion in R^r
    assert formed == [weight.rank]
    # no n x n input, which also rules out spectral_norm(A)
    assert (N, N) not in counted["svd"]
    # C and M = Λ^{1/2} U_ρ; flags 2, 4, 5 and 6, the sum check and both
    # re-checks hold by construction
    assert counted.factorizations("svd") == 2
    k, r = span.dim, weight.rank
    rho = N - report.preimage_of_complement.dim  # dim A(S); N(A) ⊕ V_r K has N - ρ
    assert 0 < rho < r
    assert counted.values_only == []
    # flag 3 and the sum check factorize none of K^T Λ, [C, K] and Y^T C,
    # with K the (r - ρ)-column basis of N(C^T Λ) and Y that of R(Λ C)
    assert (r - rho, r) not in counted["svd"]
    assert (r, k + r - rho) not in counted["svd"]
    assert (rho, k) not in counted["svd"]
    # the split takes one raw QR of Λ U_ρ, and flag 3 one reduced QR of
    # Λ^{-1} Y; both have r rows
    assert ("raw", (r, rho)) in counted["qr"]
    assert ("reduced", (r, rho)) in counted["qr"]
    # the counter sees a complement basis the library forms
    linalg.complement(span)
    assert formed == [weight.rank, N]


def test_compatibility_diagnostics_evaluates_no_chart_image(pair, counted):
    # The chart image of A^{1/2} S takes no SVD of its own: the diagnostics
    # take C's and that of M = Λ^{1/2} U_ρ, whose left factor it is, and a
    # chart read on the same pair record takes none.
    weight, span, _ = pair
    geometry = oblique._Geometry(weight, span, DEFAULT_TOL)
    rho = N - geometry.diagnostics().preimage_of_complement.dim
    assert counted["svd"] == [(weight.rank, span.dim), (weight.rank, rho)]
    assert oprange.RangeSpaceProjection(geometry).range_image.dim == rho
    assert len(counted["svd"]) == 2


def test_is_weight_hermitian_reads_the_eigenvectors(pair, counted):
    weight, span, _ = pair
    projection = weighted_projection(weight, span)
    counted["svd"].clear()
    assert is_weight_hermitian(projection, weight, span)
    assert counted["eigh"] == []
    assert counted.factorizations("svd") == 1
    assert (N, N) not in counted["svd"]


def test_spline_with_weight_reuses_the_eigendecomposition(pair, counted):
    weight, span, x = pair
    result = spline_with_weight(weight, span, x)
    assert result.freedom.dim == N // 8
    assert counted["eigh"] == []
    # C and M = Λ^{1/2} U_ρ; no projection, nullspace or split of R^r
    assert counted.factorizations("svd") == 2
    assert qr_of_n_rows(counted) == []


def test_from_matrix_makes_one_eigh(pair, counted):
    weight, _, _ = pair
    rebuilt = PsdOperator.from_matrix(weight.base)
    assert counted == {"svd": [], "eigh": [(N, N)], "qr": []}
    # the n x n products are derived on first read, not formed here
    assert not {"sqrt", "range_proj"} & set(vars(rebuilt))


def test_one_pseudoinverse_per_solve(counted):
    rng = np.random.default_rng(7)
    a = rng.normal(size=(6, 3)) @ rng.normal(size=(3, 5))
    b = a @ rng.normal(size=(5, 2))
    assert range_inclusion(b, a)
    assert counted.factorizations("svd") == 1
    reduced_solution(a, b)
    # the pseudoinverse, then the spectral norm of the solution
    assert counted["svd"][1:] == [a.shape, (5, 2)]


def test_identity_battery_budget(pair, counted):
    # The battery decomposes the pair once and takes the projection, the
    # overlap, the preimage, the diagnostics, every family member and the
    # chart projection from that one value; the 20 spline samples read their
    # interpolants off it too, and their normal-equation oracle factorizes
    # T B_S, N(T) and S ∩ N(T) once per battery, not once per sample.  One
    # SVD of P gives both its rank and its null space, and the pseudoinverse
    # construction, compared by its matrix only, reads the overlap off the
    # geometry and certifies no nullspace.  Its solve of P_S A P_S X = P_S A
    # is also q1 of reduced_solutions_coincide, so P_S A P_S is factorized
    # once, and neither Douglas solve there takes a spectral norm.
    weight, span, _ = pair
    assert all(check["pass"] for check in identity_battery(weight, span))
    assert counted["eigh"] == []
    assert counted.factorizations("svd") == 116
    # N(P), ||P||, P_S A P_S once, A^{1/2} P_S and N(A^{1/2})
    assert counted["svd"].count((N, N)) == 5
    # norm_minimality takes the spectral norms of its 100 family members
    # from one stacked values-only call.
    assert len(counted["svd"]) == 17
    assert (100, N, N) in counted.values_only
    # hermitian_tests_agree takes its 100 null spaces from one stacked
    # reduced QR, with no SVD and no rank rule.  The only other QR of N-row
    # input is the raw one of B_S, whose reflectors give both S^perp (the
    # sampled projections and family members) and the diagnostics'
    # coupling; the other five act on r = rank A rows (r = n - r here, so
    # this includes the reflectors of V_0^T N in N(A)), among them the
    # split's raw QR of Λ U_ρ and the diagnostics' reduced QR for flag 3.
    assert qr_of_n_rows(counted) == [("raw", (N, span.dim)), ("reduced", (100, N, N - span.dim))]
    assert len(counted["qr"]) == 7
    assert all(shape[-2] == weight.rank for mode, shape in counted["qr"] if shape[-2] != N)


def test_identity_battery_budget_without_overlap(counted, monkeypatch):
    # With S ∩ N(A) = 0 the battery also evaluates trivial_overlap_split,
    # which reads A S in R^n off the chart projection, as the decomposition
    # conditions do: one SVD of the (N, dim S) matrix A B_S.
    rng = np.random.default_rng(2024)
    weight, span = make_overlapping_pair(rng, N, N // 2, N // 3, 0)
    image = weight.base @ span.basis
    of_image = []
    svd = np.linalg.svd

    def recording_svd(a, *args, **kwargs):
        of_image.append(np.array_equal(a, image))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording_svd)
    records = {check["name"]: check for check in identity_battery(weight, span)}
    assert all(check["pass"] for check in records.values())
    assert records["trivial_overlap_split"]["applicable"]
    assert of_image.count(True) == 1
    # 16 in the battery and one in make_overlapping_pair's subspace load
    assert counted.factorizations("svd") == 17


def test_identity_battery_builds_one_chart(pair, counted, monkeypatch):
    # One pair geometry for the battery, read by the 20 spline samples as by
    # every other check; one chart image of A^{1/2} S, read by every chart
    # identity off the record's SVD of Λ^{1/2} U_ρ, so C's is the one SVD of
    # an (r, dim S) input: Λ^{1/2} C is not decomposed.
    builds = []
    geometry = oblique._Geometry

    def counting_geometry(*args):
        builds.append(args)
        return geometry(*args)

    monkeypatch.setattr(oblique, "_Geometry", counting_geometry)
    weight, span, _ = pair
    assert all(check["pass"] for check in identity_battery(weight, span))
    assert len(builds) == 1
    assert counted["svd"].count((weight.rank, span.dim)) == 1


@pytest.fixture
def builds(monkeypatch):
    """Every pair geometry constructed, wherever the constructor is bound."""
    built = []
    init = oblique._Geometry.__init__

    def counting_init(self, *args):
        built.append(self)
        init(self, *args)

    monkeypatch.setattr(oblique._Geometry, "__init__", counting_init)
    return built


# Each public pair function on (weight, span, x, the minimal projection);
# the closed formula takes a full-rank weight.
PAIR_CALLS = {
    "block_decompose": lambda w, s, x, q: block_decompose(w, s),
    "compatibility_diagnostics": lambda w, s, x, q: compatibility_diagnostics(w, s),
    "degenerate_overlap": lambda w, s, x, q: degenerate_overlap(w, s),
    "identity_battery": lambda w, s, x, q: identity_battery(w, s),
    "is_compatible": lambda w, s, x, q: is_compatible(w, s),
    "is_weight_hermitian": lambda w, s, x, q: is_weight_hermitian(q, w, s),
    "projection_family_member": lambda w, s, x, q: projection_family_member(
        w, s, np.ones((N // 8, N - s.dim))
    ),
    "range_space_projection": lambda w, s, x, q: range_space_projection(w, s).extension_matches,
    "spline": lambda w, s, x, q: spline(w.sqrt, s, x),
    "spline_with_weight": lambda w, s, x, q: spline_with_weight(w, s, x),
    "weighted_projection": lambda w, s, x, q: weighted_projection(w, s),
    "weighted_projection_invertible": lambda w, s, x, q: weighted_projection_invertible(
        PsdOperator.from_matrix(w.base + np.eye(N)), s
    ),
    "weighted_projection_pinv": lambda w, s, x, q: weighted_projection_pinv(w, s),
}


def test_pair_calls_cover_every_pair_function():
    # Every public function taking a subspace, but the normal-equation
    # oracle, which factorizes T B_S and decomposes no pair.
    takes_span = {
        name
        for name, obj in vars(obliqueproj).items()
        if inspect.isfunction(obj) and "span" in inspect.signature(obj).parameters
    }
    assert takes_span | {"identity_battery"} == set(PAIR_CALLS) | {"spline_by_normal_equations"}


@pytest.mark.parametrize("name", sorted(PAIR_CALLS))
def test_each_pair_function_builds_one_geometry(pair, builds, name):
    weight, span, x = pair
    projection = weighted_projection(weight, span)
    builds.clear()
    PAIR_CALLS[name](weight, span, x, projection)
    assert len(builds) == 1


@pytest.mark.parametrize(
    "stage, code",
    [("compat", 0), ("interpolate", 0), ("oprange", 0), ("project", 0), ("project pinv", 0),
     ("project invertible", 0), ("singular invertible", 3), ("report", 0)],
)
def test_each_cli_pair_command_builds_one_geometry(workloads, tmp_path, builds, stage, code):
    round_ = workloads._make_round(np.random.default_rng(0), tmp_path, "count", 8)
    argvs = {inv.stage: inv.argv for inv in round_.invocations}
    argvs["report"] = ["report", *argvs["compat"][1:]]
    builds.clear()
    assert cli.main(argvs[stage]) == code
    assert len(builds) == 1


def test_chart_image_reads_the_pair_records_two_svds(pair, counted):
    # The chart image of A^{1/2} S is the left factor of the SVD of
    # Λ^{1/2} U_ρ that the shift reads too, after C's, which decides ρ; it
    # takes no rank of its own.
    weight, span, _ = pair
    image = range_space_projection(weight, span).range_image
    assert counted["svd"] == [(weight.rank, span.dim), (weight.rank, image.dim)]
    assert image.dim == span.dim - degenerate_overlap(weight, span).dim
    assert counted["eigh"] == [] and counted["qr"] == []


def test_cli_oprange_decomposes_the_pair_once(workloads, tmp_path, counted):
    # One pair geometry and one chart projection serve the whole report;
    # S^perp ∩ R(A) is read in R^r, so no n x n complement is formed.
    round_ = workloads._make_round(np.random.default_rng(0), tmp_path, "count", 64)
    (argv,) = [inv.argv for inv in round_.invocations if inv.stage == "oprange"]
    for calls in counted.values():
        calls.clear()  # making the inputs decomposes too
    assert cli.main(argv) == 0
    assert counted["eigh"] == [(64, 64)]
    # the subspace load, C, M = Λ^{1/2} U_ρ (the chart image and the shift),
    # and the checks' own evaluations: the projected range, S^perp ∩ R(A)
    # in the chart and its sum with the image
    assert counted.factorizations("svd") == 6
    # the subspace load is the only SVD of a 64-row input
    assert [shape for shape in counted["svd"] if shape[0] == 64] == [(64, 64 // 3)]
    assert qr_of_n_rows(counted, 64) == []


def test_cli_project_block_splits_the_pair_once(workloads, tmp_path, counted):
    # The block projection and the Hermitian check read A^{-1}(S^perp) off
    # one pair geometry, so R^r is split once.
    round_ = workloads._make_round(np.random.default_rng(0), tmp_path, "count", 64)
    (argv,) = [inv.argv for inv in round_.invocations if inv.stage == "project"]
    assert argv[argv.index("--formula") + 1] == "block"
    for calls in counted.values():
        calls.clear()
    assert cli.main(argv) == 0
    assert counted["eigh"] == [(64, 64)]
    # the subspace load, C and M = Λ^{1/2} U_ρ; the pinv agreement check's
    # pseudoinverse, which reads the overlap off the geometry and, as it
    # compares matrices only, certifies no nullspace
    assert counted.factorizations("svd") == 4
    dim_s, rank = 64 // 3, 64 // 2
    assert counted["svd"].count((rank, dim_s)) == 1
    assert counted["svd"].count((64, 64)) == 1  # the pseudoinverse of P A P


def test_cli_project_pinv_reads_the_overlap_off_the_geometry(workloads, tmp_path, counted):
    # The chosen pseudoinverse construction certifies its nullspace; it and
    # the block agreement check read one pair geometry, so the SVD of C is
    # taken once.
    round_ = workloads._make_round(np.random.default_rng(0), tmp_path, "count", 64)
    (argv,) = [inv.argv for inv in round_.invocations if inv.stage == "project pinv"]
    assert argv[argv.index("--formula") + 1] == "pinv"
    for calls in counted.values():
        calls.clear()
    assert cli.main(argv) == 0
    assert counted["eigh"] == [(64, 64)]
    # the subspace load, C and M = Λ^{1/2} U_ρ; the pseudoinverse of P A P
    # and the nullspace of the result
    assert counted.factorizations("svd") == 5
    dim_s, rank = 64 // 3, 64 // 2
    assert counted["svd"].count((rank, dim_s)) == 1
    assert counted["svd"].count((64, 64)) == 2


def test_cli_project_invertible_certifies_only_its_own_nullspace(workloads, tmp_path, counted):
    # On a full-rank weight the closed formula certifies its nullspace, and
    # the pseudoinverse agreement check, which reads the overlap off the
    # pair geometry, certifies none.
    round_ = workloads._make_round(np.random.default_rng(0), tmp_path, "count", 64)
    (argv,) = [inv.argv for inv in round_.invocations if inv.stage == "project invertible"]
    assert argv[argv.index("--formula") + 1] == "invertible"
    for calls in counted.values():
        calls.clear()
    assert cli.main(argv) == 0
    assert counted["eigh"] == [(64, 64)]
    # the subspace load, the nullspace of the closed formula's matrix, then
    # C (r = n), M = Λ^{1/2} U_ρ (ρ = dim S) and the pseudoinverse of P A P
    dim_s = 64 // 3
    assert counted["svd"] == [(64, dim_s), (64, 64), (64, dim_s), (64, dim_s), (64, 64)]


def test_cli_project_invertible_on_a_singular_weight_decomposes_no_pair(workloads, tmp_path, counted):
    # The closed formula refuses a singular weight before the pair geometry
    # is built: the weight's eigh and the subspace load are all it costs.
    round_ = workloads._make_round(np.random.default_rng(0), tmp_path, "count", 64)
    (argv,) = [inv.argv for inv in round_.invocations if inv.stage == "singular invertible"]
    assert argv[argv.index("--formula") + 1] == "invertible"
    for calls in counted.values():
        calls.clear()
    assert cli.main(argv) == 3
    assert counted["eigh"] == [(64, 64)]
    assert counted["svd"] == [(64, 64 // 3)]
    assert counted["qr"] == []


def test_cli_douglas_solves_once(workloads, tmp_path, counted):
    # The verdict, the solution and the minimal lambda are read off one
    # solve: one pseudoinverse of A and one spectral norm of D.
    round_ = workloads._make_round(np.random.default_rng(0), tmp_path, "count", 64)
    (argv,) = [inv.argv for inv in round_.invocations if inv.stage == "douglas"]
    for calls in counted.values():
        calls.clear()
    assert cli.main(argv) == 0
    assert counted["eigh"] == []
    assert counted["svd"] == [(64, 64), (64, 8)]


def test_chart_helpers_take_no_square_svd(pair, counted):
    weight, span, _ = pair
    projection = weighted_projection(weight, span)
    chart_extension(weight, projection.matrix)
    chart = oprange.range_space_projection(weight, span)
    chart.induced
    chart.projected_range
    assert chart.extension_matches
    assert counted["eigh"] == []
    assert (N, N) not in counted["svd"]
