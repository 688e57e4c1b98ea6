"""One home per decision rule, checked on the source of the library.

Every tolerance decision goes through one of the four rule functions of
``obliqueproj.linalg`` (rank, angle, residual, sign; see ``Tolerance``), so
a later change of anchors or a trace of the decisions has one place to act.
Three checks keep it so, a fourth keeps one home for each pair
decomposition, a fifth keeps the dispatch of small calls down, three more
keep one home for a rule or a factor that several modules read, and a
ninth and a tenth keep one rank decision per pair:

- outside ``linalg.py`` no module reads a threshold field of a
  ``Tolerance`` (``eq_abs``, ``rank_rel``, ``psd_neg``); the one exception
  is the ``tolerances`` block of ``cli.run``, which publishes them;
- inside ``linalg.py`` ``np.linalg.svd`` is called only by the guarded SVD
  ``_svd``, which every rank and angle decision reads;
- outside ``linalg.py`` every ``np.linalg.svd`` call asks for the singular
  values only (``compute_uv=False``), so no module takes a rank decision on
  a raw SVD;
- outside ``oblique.py`` the only private names of ``oblique`` that are
  read are the pair geometry ``_Geometry``, whose fields hold every
  quantity of a pair, and ``_certified``, so a helper that decomposes a
  pair beside the geometry shows in review;
- no module uses ``functools.cached_property``, whose first read takes a
  lock on Python 3.11, nor calls ``np.linalg.norm`` with one argument:
  fields are ``linalg._cached``, a residual norm is ``linalg._norm``, the
  norms of a stack are ``linalg._frobenius`` and the 2-norm is
  ``linalg.spectral_norm``;
- outside ``linalg.py`` no module passes a ``slack`` to ``_within`` or calls
  ``np.linalg.norm`` at all, and inside it only ``_agree``, the agreement
  bound of two constructions, passes a slack: the norms along an axis are
  ``linalg._norms``;
- outside ``douglas.py`` no function both takes a pseudoinverse solve
  (``moore_penrose``, ``np.linalg.pinv`` or ``np.linalg.lstsq``) and
  applies the residual rule, so Douglas' feasibility test of ``A X = B``,
  which decides the compatibility of a pair, has one home;
- ``oprange.py`` takes no square root: ``Λ^{1/2}`` is the cached field
  ``PsdOperator._root``, which ``PsdOperator.sqrt`` reads too;
- ``oblique.py`` imports neither ``douglas`` nor the rank rule
  (``_rank_from_values``, ``_ranked_svd``), and the pair record
  ``_Geometry`` decides one rank, by the angle rule ``_apart`` on the sines
  of C, and takes two guarded SVDs: C's and that of ``Λ^{1/2} U_ρ``, which
  has full column rank.  They also give the shift, and the chart image of
  ``A^{1/2} S`` is the left factor of the second;
- outside ``oblique.py`` no module reads the pair record's raw ``cross``,
  ``C = V_r^T B_S``, so no chart quantity takes a rank of C beside the
  record's.

The CLI ``douglas`` check ``lambda_matches_norm_sq`` compares with a
literal ``1e-6``, not a tolerance field, so the first check does not see
it.  It is a placeholder that reads True on every feasible input; making it
an independent check (ROADMAP item 6) is where its bound gets decided.
"""

import ast
from pathlib import Path

import obliqueproj

PACKAGE = Path(obliqueproj.__file__).resolve().parent
FIELDS = {"eq_abs", "rank_rel", "psd_neg"}


def parsed(name: str) -> ast.Module:
    return ast.parse((PACKAGE / name).read_text(), filename=name)


def published_tolerances(cli: ast.Module) -> set[int]:
    """The ids of the attribute reads inside the ``tolerances`` block of
    ``run`` in the parsed ``cli.py``."""
    (run,) = [node for node in cli.body if isinstance(node, ast.FunctionDef) and node.name == "run"]
    blocks = [
        value
        for node in ast.walk(run)
        if isinstance(node, ast.Dict)
        for key, value in zip(node.keys, node.values)
        if isinstance(key, ast.Constant) and key.value == "tolerances"
    ]
    assert len(blocks) == 1
    return {id(node) for node in ast.walk(blocks[0]) if isinstance(node, ast.Attribute)}


def test_no_module_but_linalg_reads_a_threshold():
    reads, published = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "linalg.py":
            continue
        tree = parsed(path.name)
        allowed = published_tolerances(tree) if path.name == "cli.py" else set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in FIELDS:
                (published if id(node) in allowed else reads).append((path.name, node.lineno, node.attr))
    assert reads == []
    # the walk sees the reads the CLI publishes
    assert sorted(attr for _, _, attr in published) == sorted(FIELDS)


def test_linalg_calls_the_svd_only_in_the_guarded_svd():
    callers = [
        (function.name, node.lineno)
        for function in ast.walk(parsed("linalg.py"))
        if isinstance(function, ast.FunctionDef)
        for node in ast.walk(function)
        if isinstance(node, ast.Call)
        and ast.unparse(node.func) == "np.linalg.svd"
    ]
    assert [name for name, _ in callers] == ["_svd"]



def values_only(call: ast.Call) -> bool:
    return any(
        kw.arg == "compute_uv" and isinstance(kw.value, ast.Constant) and kw.value.value is False
        for kw in call.keywords
    )


def test_no_module_but_linalg_takes_singular_vectors():
    calls = [
        (path.name, node.lineno, values_only(node))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "linalg.py"
        for node in ast.walk(parsed(path.name))
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "np.linalg.svd"
    ]
    assert [(name, line) for name, line, kept in calls if not kept] == []
    # the walk sees the values-only SVD of the battery's norm_minimality
    assert ("report.py", True) in [(name, kept) for name, _, kept in calls]


def oblique_private_reads(tree: ast.Module) -> set[str]:
    """The private names of ``oblique`` a parsed module imports from it or
    reads as attributes of it."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "oblique":
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Attribute) and ast.unparse(node.value) == "oblique":
            names.add(node.attr)
    return {name for name in names if name.startswith("_")}


def test_no_module_reads_a_pair_helper_beside_the_geometry():
    reads = {
        path.name: oblique_private_reads(parsed(path.name))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "oblique.py"
    }
    assert set().union(*reads.values()) == {"_Geometry", "_certified"}
    # the walk sees both forms of read
    assert "_Geometry" in reads["oprange.py"] and "_Geometry" in reads["report.py"]


def slow_dispatch(tree: ast.Module) -> list[tuple[int, str]]:
    """The uses of ``functools.cached_property`` and the one-argument
    ``np.linalg.norm`` calls of a parsed module, with their lines."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            found += [(node.lineno, alias.name) for alias in node.names if alias.name == "cached_property"]
        elif isinstance(node, ast.Attribute) and ast.unparse(node) == "functools.cached_property":
            found.append((node.lineno, "functools.cached_property"))
        elif (
            isinstance(node, ast.Call)
            and ast.unparse(node.func) in ("np.linalg.norm", "numpy.linalg.norm")
            and len(node.args) == 1
            and not node.keywords
        ):
            found.append((node.lineno, ast.unparse(node.func)))
    return found


def test_no_module_takes_a_locked_field_or_the_wrapped_norm():
    found = {path.name: slow_dispatch(parsed(path.name)) for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: uses for name, uses in found.items() if uses} == {}
    # the walk sees each form, and passes the norms that take an order or an axis
    planted = ast.parse(
        "from functools import cached_property\n"
        "import functools\n"
        "functools.cached_property\n"
        "np.linalg.norm(x)\n"
        "numpy.linalg.norm(x)\n"
        "np.linalg.norm(x, 2)\n"
        "np.linalg.norm(x, axis=0)\n"
    )
    assert [line for line, _ in slow_dispatch(planted)] == [1, 3, 4, 5]


def calls(tree: ast.AST, function: str = "") -> list[tuple[int, str, str, ast.Call]]:
    """``(line, enclosing function, called name, node)`` of every call in a
    parsed module; the enclosing function is "" at module level."""
    found = []
    for child in ast.iter_child_nodes(tree):
        if isinstance(child, ast.Call):
            found.append((child.lineno, function, ast.unparse(child.func), child))
        found += calls(child, child.name if isinstance(child, ast.FunctionDef) else function)
    return found


def slack_or_norm(tree: ast.Module) -> list[tuple[int, str]]:
    """The calls of a parsed module that pass a slack to ``_within`` or
    call ``np.linalg.norm``, with their lines and enclosing functions."""
    return sorted(
        (line, function)
        for line, function, called, node in calls(tree)
        if called.rpartition(".")[2] == "_within"
        and (len(node.args) > 3 or any(kw.arg == "slack" for kw in node.keywords))
        or called in ("np.linalg.norm", "numpy.linalg.norm")
    )


def test_no_module_but_linalg_passes_a_slack_or_calls_the_numpy_norm():
    found = {
        path.name: slack_or_norm(parsed(path.name)) for path in sorted(PACKAGE.glob("*.py")) if path.name != "linalg.py"
    }
    assert {name: uses for name, uses in found.items() if uses} == {}
    # inside linalg only the agreement bound passes a slack, and only the
    # 2-norm calls numpy's norm
    inside = {function for _, function in slack_or_norm(parsed("linalg.py"))}
    assert inside == {"_agree", "spectral_norm"}
    # the walk sees each form, in a function or at module level
    planted = ast.parse(
        "def f():\n"
        "    _within(g, 1.0, tol, slack=10.0)\n"
        "    linalg._within(g, 1.0, tol, 10.0)\n"
        "    _within(g, 1.0, tol)\n"
        "np.linalg.norm(x, axis=0)\n"
        "numpy.linalg.norm(x, 2)\n"
    )
    assert [line for line, _ in slack_or_norm(planted)] == [2, 3, 5, 6]


PSEUDOINVERSES = {"moore_penrose", "np.linalg.pinv", "np.linalg.lstsq"}


def feasibility_tests(tree: ast.Module) -> list[str]:
    """The functions of a parsed module that take a pseudoinverse solve and
    apply the residual rule."""
    called: dict[str, set[str]] = {}
    for _, function, name, _ in calls(tree):
        called.setdefault(function, set()).add(name.rpartition(".")[2] if name.endswith("_within") else name)
    return [function for function, names in called.items() if names & PSEUDOINVERSES and "_within" in names]


def test_no_module_but_douglas_tests_a_solve():
    found = {
        path.name: feasibility_tests(parsed(path.name))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "douglas.py"
    }
    assert {name: functions for name, functions in found.items() if functions} == {}
    # douglas holds both halves, and the walk sees a solve tested in one
    # function, but not a solve or a test alone
    assert {"moore_penrose", "_within"} <= {name for _, _, name, _ in calls(parsed("douglas.py"))}
    planted = ast.parse(
        "def shift(a, b, tol):\n"
        "    d = moore_penrose(a, tol) @ b\n"
        "    return _within(_norm(a @ d - b), _norm(b), tol)\n"
        "def lstsq(a, b, tol):\n"
        "    return linalg._within(_norm(a @ np.linalg.lstsq(a, b)[0] - b), 1.0, tol)\n"
        "def solve(a, b):\n"
        "    return np.linalg.pinv(a) @ b\n"
        "def test(r, tol):\n"
        "    return _within(r, 1.0, tol)\n"
    )
    assert feasibility_tests(planted) == ["shift", "lstsq"]


def square_roots(tree: ast.Module) -> list[int]:
    """The lines of a parsed module that take a square root: a call of a
    ``sqrt`` or of ``np.power``, or a power of 0.5."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and ast.unparse(node.func).rpartition(".")[2] in ("sqrt", "power")
        or isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Pow)
        and isinstance(node.right, ast.Constant)
        and node.right.value == 0.5
    )


def test_oprange_takes_no_square_root():
    assert square_roots(parsed("oprange.py")) == []
    # it reads the cached factor, and the walk sees each form but a read of
    # the weight's square-root matrix
    assert "weight._root" in (PACKAGE / "oprange.py").read_text()
    planted = ast.parse(
        "np.sqrt(weight.eigvals[: weight.rank])\n"
        "math.sqrt(x)\n"
        "np.power(w, 0.5)\n"
        "w ** 0.5\n"
        "weight.sqrt @ x\n"
    )
    assert square_roots(planted) == [1, 2, 3, 4]


RANK_RULES = {"_rank_from_values", "_ranked_svd"}


def pair_rank_decisions(tree: ast.Module) -> tuple[set[str], list[str]]:
    """The names a parsed ``oblique.py`` imports of ``douglas`` and of the
    rank rule, and the calls inside ``_Geometry`` that decide a rank, take
    a guarded SVD or solve through ``douglas``, in source order."""
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
    (geometry,) = [node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "_Geometry"]
    decisions = [
        name
        for node in ast.walk(geometry)
        if isinstance(node, ast.Call)
        for name in [ast.unparse(node.func)]
        if name in RANK_RULES | {"_apart", "_svd"} or name.startswith("douglas.")
    ]
    return imported & (RANK_RULES | {"douglas"}), decisions


def test_the_pair_record_takes_one_rank_decision():
    imported, decisions = pair_rank_decisions(parsed("oblique.py"))
    assert imported == set()
    assert sorted(decisions) == ["_apart", "_svd", "_svd"]
    # the walk sees an import of douglas or of the rank rule, and a rank or
    # a solve decided inside the pair record, but not outside it
    planted = ast.parse(
        "from . import douglas\n"
        "from .linalg import _apart, _ranked_svd\n"
        "class _Geometry:\n"
        "    def split(self):\n"
        "        return _ranked_svd(self.cross, self.tol)\n"
        "    def shift(self):\n"
        "        return douglas._solve(a, gap, self.tol, gate=False)\n"
        "def outside(m, tol):\n"
        "    return _rank_from_values(m, tol)\n"
    )
    assert pair_rank_decisions(planted) == ({"douglas", "_ranked_svd"}, ["_ranked_svd", "douglas._solve"])


def raw_cross_reads(tree: ast.Module) -> list[int]:
    """The lines of a parsed module that read an attribute ``cross``, the
    pair record's raw ``C = V_r^T B_S``."""
    return sorted(node.lineno for node in ast.walk(tree) if isinstance(node, ast.Attribute) and node.attr == "cross")


def test_no_module_but_oblique_reads_the_raw_cross():
    reads = {
        path.name: raw_cross_reads(parsed(path.name))
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "oblique.py"
    }
    assert {name: lines for name, lines in reads.items() if lines} == {}
    # the record reads it for its own SVD, and the walk sees a read of C
    # itself but not one of the factors of its SVD
    assert raw_cross_reads(parsed("oblique.py"))
    planted = ast.parse(
        "subspace_from_span(root[:, None] * self.geometry.cross, tol)\n"
        "Subspace(g.weight.rank, g.cross_left[:, : g.kept])\n"
    )
    assert raw_cross_reads(planted) == [1]
