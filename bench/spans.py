"""Spans and counters around the library's public functions, from outside it.

Nothing under ``src/`` knows about this module.  ``Tracer.install`` replaces
every binding of each wrapped function in the package's modules: a module
that did ``from .linalg import complement`` holds its own reference, and
``oprange.is_chart_extendable`` imports ``douglas.range_inclusion`` at call
time, so patching one name would let internal calls escape.
``Tracer.binding_check`` proves coverage with the interpreter's profiler.

Two levels of instrumentation:

``count``
    numpy's SVD and eigh and the four entry points only, so decompositions
    per entry call are known with next to no overhead;
``span``
    additionally a timed span around every public function of every layer.

Decompositions are counted at numpy.  ``np.linalg.norm(m, 2)`` calls the
module-internal ``svd`` of ``numpy.linalg._linalg``, which a wrapper on
``np.linalg.svd`` never sees, so that binding is wrapped too and its calls
are tallied as ``linalg.spectral_norm.svd_calls``: in this library only
``linalg.spectral_norm`` reaches it.

Spans are aggregated per name as they close (calls, total time, self time,
decompositions underneath) instead of being stored one by one; one pass
of ``small-many`` opens hundreds of thousands of them.
"""

from __future__ import annotations

import functools
import os
import sys
import time
import types
from collections import Counter

import numpy as np
import numpy.linalg._linalg as np_linalg_impl

PACKAGE = "obliqueproj"
LAYERS = ("linalg", "douglas", "oblique", "oprange", "interpolant", "report", "io", "cli")
ENTRIES = (
    "oblique.weighted_projection",
    "oblique.compatibility_diagnostics",
    "interpolant.spline_with_weight",
    "report.identity_battery",
)
# Input validators run inside nearly every call; a span on them would cost
# more than everything it measures.
UNTRACED = frozenset({"linalg.as_matrix", "linalg.as_vector"})
IO_READS = frozenset({"io.load_matrix", "io.load_vector", "io.load_subspace"})
IO_WRITES = frozenset({"io.save_obj"})
DECOMPOSITIONS = "decompositions"


def svd_gflop(shape, compute_uv: bool, full_matrices: bool) -> float:
    """Operation count of one Golub-Reinsch SVD, computed from the shape.

    Counts from Golub & Van Loan, *Matrix Computations*, 4th ed., Fig. 8.6.1,
    with ``m >= n`` the larger and smaller dimension.
    """
    m, n = max(shape[-2:]), min(shape[-2:])
    if not compute_uv:
        flops = 4 * m * n * n - 4 * n**3 / 3
    elif full_matrices:
        flops = 4 * m * m * n + 8 * m * n * n + 9 * n**3
    else:
        flops = 14 * m * n * n + 8 * n**3
    return float(np.prod(shape[:-2], dtype=float)) * flops / 1e9


def public_functions(module) -> dict:
    """``{"layer.name": function}`` for the functions a module defines publicly."""
    layer = module.__name__.rpartition(".")[2]
    return {
        f"{layer}.{name}": obj
        for name, obj in vars(module).items()
        if isinstance(obj, types.FunctionType)
        and obj.__module__ == module.__name__
        and not name.startswith("_")
        and f"{layer}.{name}" not in UNTRACED
    }


class Tracer:
    """Aggregated spans and counters; installs and removes its own wrappers."""

    def __init__(self):
        # span name -> [calls, total seconds, self seconds, decompositions inside]
        self.stats: dict[str, list] = {}
        self.counts: Counter = Counter()
        self._stack: list[list[float]] = []
        self._raised: list[BaseException | None] = [None]
        self._patches: list[tuple[object, str, object]] = []
        self.wrapped: dict[str, types.FunctionType] = {}

    def reset(self) -> None:
        self.stats.clear()
        self.counts.clear()
        self._raised[0] = None

    # -- wrappers ---------------------------------------------------------

    def _span(self, name: str, fn, nbytes=None):
        stats, stack, counts, raised = self.stats, self._stack, self.counts, self._raised
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            child = [0.0]
            stack.append(child)
            before = counts[DECOMPOSITIONS]
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                # Counted once, at the innermost span it leaves.
                if exc is not raised[0]:
                    raised[0] = exc
                    counts[f"errors.{type(exc).__name__}.count"] += 1
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                entry = stats.get(name)
                if entry is None:
                    entry = stats[name] = [0, 0.0, 0.0, 0]
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - child[0]
                entry[3] += counts[DECOMPOSITIONS] - before
            if nbytes is not None:
                nbytes(args)
            return result

        return wrapper

    def _svd(self, fn, hidden: bool):
        counts = self.counts

        def svd(a, full_matrices=True, compute_uv=True, hermitian=False):
            counts[DECOMPOSITIONS] += 1
            counts["linalg.svd.calls"] += 1
            if hidden:
                counts["linalg.spectral_norm.svd_calls"] += 1
            if compute_uv and full_matrices:
                counts["linalg.svd_full.calls"] += 1
            counts["linalg.svd.gflop_computed"] += svd_gflop(np.shape(a), compute_uv, full_matrices)
            return fn(a, full_matrices=full_matrices, compute_uv=compute_uv, hermitian=hermitian)

        return svd

    def _eigh(self, fn):
        counts = self.counts

        def eigh(a, UPLO="L"):
            counts[DECOMPOSITIONS] += 1
            counts["linalg.eigh.calls"] += 1
            return fn(a, UPLO=UPLO)

        return eigh

    def _file_size(self, key: str, position: int):
        counts = self.counts

        def record(args):
            counts[key] += os.path.getsize(args[position])

        return record

    # -- installation -----------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self, level: str) -> None:
        """Wrap numpy's decompositions and the library at ``level``."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        if level not in ("count", "span"):
            raise ValueError(f"unknown trace level {level!r}")
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        targets = {}
        for layer in LAYERS:
            for name, fn in public_functions(sys.modules[f"{PACKAGE}.{layer}"]).items():
                if level == "span" or name in ENTRIES:
                    targets[name] = fn
        self.wrapped = dict(targets)
        by_id = {}
        for name, fn in targets.items():
            nbytes = None
            if name in IO_READS:
                nbytes = self._file_size("io.bytes_read", 0)
            elif name in IO_WRITES:
                nbytes = self._file_size("io.bytes_written", 1)
            by_id[id(fn)] = (fn, self._span(name, fn, nbytes))
        for module in modules:
            for attr, obj in list(vars(module).items()):
                hit = by_id.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(module, attr, hit[1])
        if level == "span":
            psd = sys.modules[f"{PACKAGE}.linalg"].PsdOperator
            from_matrix = vars(psd)["from_matrix"].__func__
            self.wrapped["linalg.PsdOperator.from_matrix"] = from_matrix
            self._patch(psd, "from_matrix",
                        classmethod(self._span("linalg.PsdOperator.from_matrix", from_matrix)))

        svd, hidden_svd, eigh = np.linalg.svd, np_linalg_impl.svd, np.linalg.eigh
        svd, hidden_svd, eigh = self._svd(svd, False), self._svd(hidden_svd, True), self._eigh(eigh)
        if level == "span":
            svd = self._span("linalg.svd", svd)
            hidden_svd = self._span("linalg.svd", hidden_svd)
            eigh = self._span("linalg.eigh", eigh)
        self._patch(np.linalg, "svd", svd)
        self._patch(np_linalg_impl, "svd", hidden_svd)
        self._patch(np.linalg, "eigh", eigh)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)
        self.wrapped = {}
        self._raised[0] = None

    def binding_check(self, call) -> list[str]:
        """Run ``call`` under the profiler; name functions that ran outside their span.

        The profiler sees every execution of an original function's code; a
        wrapped function whose executions outnumber its span's calls was
        reached through a binding the tracer missed.
        """
        codes = {fn.__code__: name for name, fn in self.wrapped.items()}
        seen = Counter()

        def profiler(frame, event, arg):
            if event == "call":
                name = codes.get(frame.f_code)
                if name is not None:
                    seen[name] += 1

        before = {name: self.stats.get(name, [0])[0] for name in codes.values()}
        sys.setprofile(profiler)
        try:
            call()
        finally:
            sys.setprofile(None)
        return sorted(name for name in codes.values()
                      if seen[name] != self.stats.get(name, [0])[0] - before[name])
