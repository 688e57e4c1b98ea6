"""JSON file formats shared by the library and the CLI.

A matrix is ``{"rows": n, "cols": m, "data": [row-major doubles]}``.
A subspace is ``{"ambient": n, "span": <matrix>}``; the spanning columns are
canonicalized to an orthonormal basis on load.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

import numpy as np

from .linalg import DEFAULT_TOL, Subspace, Tolerance, as_matrix, subspace_from_span


class FormatError(ValueError):
    """Malformed matrix or subspace document."""


def matrix_to_obj(matrix) -> dict:
    m = as_matrix(matrix)
    return {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "data": m.ravel().tolist(),
    }


def matrix_from_obj(obj) -> np.ndarray:
    if not isinstance(obj, dict):
        raise FormatError("matrix document must be a JSON object")
    try:
        rows, cols, data = obj["rows"], obj["cols"], obj["data"]
    except KeyError as exc:
        raise FormatError(f"matrix document is missing key {exc}") from exc
    if not isinstance(rows, int) or not isinstance(cols, int) or rows < 0 or cols < 0:
        raise FormatError("rows/cols must be nonnegative integers")
    if not isinstance(data, list) or len(data) != rows * cols:
        raise FormatError(f"data must be a list of {rows * cols} numbers")
    try:
        m = np.array(data, dtype=float).reshape(rows, cols)
    except (TypeError, ValueError) as exc:
        raise FormatError(f"matrix data is not numeric: {exc}") from exc
    if m.size and not np.all(np.isfinite(m)):
        raise FormatError("matrix data contains NaN/Inf")
    return m


def vector_from_obj(obj) -> np.ndarray:
    m = matrix_from_obj(obj)
    if m.shape[1] != 1:
        raise FormatError(f"expected a single-column matrix as vector, got {m.shape}")
    return m.ravel()


def vector_to_obj(v) -> dict:
    return matrix_to_obj(np.asarray(v, dtype=float).reshape(-1, 1))


def subspace_to_obj(s: Subspace) -> dict:
    return {"ambient": int(s.ambient_dim), "span": matrix_to_obj(s.basis)}


def subspace_from_obj(obj, tol: Tolerance = DEFAULT_TOL) -> Subspace:
    if not isinstance(obj, dict):
        raise FormatError("subspace document must be a JSON object")
    try:
        ambient, span = obj["ambient"], obj["span"]
    except KeyError as exc:
        raise FormatError(f"subspace document is missing key {exc}") from exc
    m = matrix_from_obj(span)
    if not isinstance(ambient, int) or m.shape[0] != ambient:
        raise FormatError("span rows must equal the declared ambient dimension")
    return subspace_from_span(m, tol)


def _load_json(path) -> object:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path} is not valid JSON: {exc}") from exc


def load_matrix(path) -> np.ndarray:
    return matrix_from_obj(_load_json(path))


def load_vector(path) -> np.ndarray:
    return vector_from_obj(_load_json(path))


def load_subspace(path, tol: Tolerance = DEFAULT_TOL) -> Subspace:
    return subspace_from_obj(_load_json(path), tol)


# _strip() leaves float list i as [float(i)]; no other value renders so.
_MARKER = re.compile(r"\[(\n *)(\d+)\.0\n")


def _strip(node, floats: list, path: set):
    # Not a recursive closure: that cycle would keep ``floats`` alive until gc.
    # ``path`` holds the ids of the containers above ``node``, as json's
    # encoder keeps its markers, so a cycle raises json's error.
    if isinstance(node, (list, tuple)):
        if node and all(isinstance(v, float) for v in node) and all(map(math.isfinite, node)):
            floats.append(node)
            return [float(len(floats) - 1)]
    elif not isinstance(node, dict):
        return node
    if id(node) in path:
        raise ValueError("Circular reference detected")
    path.add(id(node))
    if isinstance(node, dict):
        out = {key: _strip(value, floats, path) for key, value in node.items()}
    else:
        out = [_strip(value, floats, path) for value in node]
    path.remove(id(node))
    return out


def dumps(obj) -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)``, byte for byte.

    The stdlib encodes in Python when ``indent`` is set, so the lists of
    finite floats are taken out, the rest is dumped, and each list is
    spliced back in at its marker's indentation as one ``join`` of reprs.
    """
    floats = []

    def splice(match) -> str:  # match[1] is the newline and indentation of the items
        return "[" + match[1] + ("," + match[1]).join(map(float.__repr__, floats[int(match[2])])) + "\n"

    return _MARKER.sub(splice, json.dumps(_strip(obj, floats, set()), indent=2, sort_keys=True))


def save_obj(obj, path) -> None:
    Path(path).write_text(dumps(obj) + "\n")
