"""One home per decision rule, checked on the source of the library.

Every tolerance decision goes through one of the four rule functions of
``obliqueproj.linalg`` (rank, angle, residual, sign; see ``Tolerance``), so
a later change of anchors or a trace of the decisions has one place to act.
Three checks keep it so, a fourth keeps one home for each pair
decomposition, and a fifth keeps the dispatch of small calls down:

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
  ``linalg.spectral_norm``.

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
