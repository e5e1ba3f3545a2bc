"""JSON schemas for sheaves, cochains, point clouds and signal segments.

Matrices serialize as row-major nested lists. Readers also accept an SPD
value in the compact ``{"log_upper": [...]}`` form holding the
sqrt(2)-scaled upper-triangular entries of its logarithm. All writers
produce deterministic output (sorted keys, repr-style floats), so re-running
a command yields byte-identical files.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager

import numpy as np

from .covgraph import Segment
from .errors import ParseError
from .euclid import EuclidSheaf
from .sheaf import SheafGraph
from .spd import as_spd, sym_exp, vec_to_sym
from .stream import PointCloud


def load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
                         f"{exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc.reason}") from None


@contextmanager
def _parsing(what: str):
    """Report a lookup, type or value error while reading a `what` object as ParseError."""
    try:
        yield
    except ParseError:
        raise
    except KeyError as exc:
        raise ParseError(f"malformed {what} object: missing {exc}") from None
    except (TypeError, ValueError, AttributeError) as exc:
        raise ParseError(f"malformed {what} object: {exc}") from None


def _dump_json(obj, path: str | None = None) -> str:
    """The package's one JSON text format: returned, and written with a
    trailing newline to `path` when one is given."""
    text = json.dumps(obj, indent=2, sort_keys=True)
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return text


# ---------------------------------------------------------------------------
# matrices


def matrix_to_json(A) -> list:
    return np.asarray(A, dtype=np.float64).tolist()


def matrix_from_json(obj, n_expected: int | None = None) -> np.ndarray:
    """Parse either a nested-list matrix or a {"log_upper": [...]} SPD value.

    Entries that are not numbers, ragged rows and log values whose
    exponential overflows raise :class:`ParseError`.
    """
    if isinstance(obj, dict):
        if "log_upper" not in obj:
            raise ParseError("matrix object must carry a 'log_upper' field")
        vec = _float_array(obj["log_upper"], "log_upper")
        n = int((math.isqrt(8 * vec.size + 1) - 1) // 2)
        if vec.ndim != 1 or n * (n + 1) // 2 != vec.size:
            raise ParseError(f"log_upper of shape {vec.shape} is not a triangular vector")
        if n_expected is not None and n != n_expected:
            raise ParseError(f"log_upper encodes a {n}x{n} matrix, expected {n_expected}")
        try:
            return sym_exp(vec_to_sym(vec, n))
        except OverflowError as exc:
            raise ParseError(f"log_upper value out of range: {exc}") from None
    A = _float_array(obj, "matrix")
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ParseError(f"expected a square matrix, got shape {A.shape}")
    if n_expected is not None and A.shape[0] != n_expected:
        raise ParseError(f"expected a {n_expected}x{n_expected} matrix, got {A.shape[0]}")
    return A


def _float_array(obj, what: str) -> np.ndarray:
    try:
        return np.asarray(obj, dtype=np.float64)
    except (ValueError, TypeError) as exc:
        raise ParseError(f"malformed {what}: {exc}") from None


# ---------------------------------------------------------------------------
# sheaves and cochains


def sheaf_to_json(sheaf: SheafGraph | EuclidSheaf, cochain0: dict | None = None,
                  path: str | None = None) -> str:
    edges = [
        {
            "tail": t,
            "head": h,
            "map_tail": matrix_to_json(mt),
            "map_head": matrix_to_json(mh),
        }
        for (t, h), (mt, mh) in zip(sheaf.edges, sheaf.maps)
    ]
    obj = {"n_stalk": sheaf.n_stalk, "vertices": list(sheaf.vertices), "edges": edges}
    if cochain0 is not None:
        obj["cochain0"] = [[v, matrix_to_json(cochain0[v])] for v in sheaf.vertices]
    return _dump_json(obj, path)


def _n_stalk(obj) -> int:
    n = obj["n_stalk"]
    if type(n) is not int or n < 1:  # `type(n) is int` also rejects bools
        raise ParseError(f"n_stalk must be a positive integer, got {n!r}")
    return n


def _pairs(entries, what: str) -> list:
    """The entries of a list of two-element lists such as [id, value] or [tail, head]."""
    if not (isinstance(entries, list)
            and all(isinstance(entry, list) and len(entry) == 2 for entry in entries)):
        raise ParseError(f"{what} must be a list of two-element lists")
    return entries


def _as_id(v):
    if isinstance(v, str) or type(v) is int:  # `type(v) is int` also rejects bools
        return v
    raise ParseError(f"vertex ids must be strings or integers, got {type(v).__name__}")


def _cochain_values(entries, n: int, what: str) -> dict:
    """Validated SPD values of [id, value] entries, each id at most once."""
    values = {}
    for v, val in _pairs(entries, what):
        v = _as_id(v)
        if v in values:
            raise ParseError(f"{what} names vertex {v!r} twice")
        values[v] = as_spd(matrix_from_json(val, n))
    return values


def load_sheaf(path: str) -> tuple[SheafGraph, dict | None]:
    obj = load_json(path)
    with _parsing("sheaf"):
        n = _n_stalk(obj)
        vertices = [_as_id(v) for v in obj["vertices"]]
        edges, maps = [], []
        for e in obj["edges"]:
            edges.append((_as_id(e["tail"]), _as_id(e["head"])))
            maps.append((matrix_from_json(e["map_tail"], n),
                         matrix_from_json(e["map_head"], n)))
        entries = obj.get("cochain0")
        cochain = None if entries is None else _cochain_values(entries, n, "cochain0")
    sheaf = SheafGraph(n, vertices, edges, maps)
    if cochain is not None and set(cochain) != set(sheaf.vertices):
        odd = sorted(map(str, set(cochain) ^ set(sheaf.vertices)))
        raise ParseError(f"cochain0 does not name each vertex once: it misses or adds {odd}")
    return sheaf, cochain


def cochain0_to_json(n_stalk: int, cochain: dict, path: str | None = None) -> str:
    obj = {"n_stalk": n_stalk, "values": [[v, matrix_to_json(X)] for v, X in cochain.items()]}
    return _dump_json(obj, path)


# ---------------------------------------------------------------------------
# point clouds


def load_cloud(path: str) -> PointCloud:
    obj = load_json(path)
    with _parsing("point-cloud"):
        ids = [_as_id(v["id"]) for v in obj["vertices"]]
        points = [v["xyz"] for v in obj["vertices"]]
        edges = [(_as_id(t), _as_id(h)) for t, h in _pairs(obj.get("edges", []), "edges")]
    if not ids:
        raise ParseError("point cloud has no vertices")
    points = _float_array(points, "point coordinates")
    if points.shape != (len(ids), 3):
        raise ParseError("every vertex 'xyz' must hold three numbers")
    return PointCloud(points, edges, ids=ids)


# ---------------------------------------------------------------------------
# segments and edge weights


def load_segments(path: str) -> list[Segment]:
    obj = load_json(path)
    with _parsing("segments"):  # also InvalidInputError from Segment
        segs = [Segment(s["data"], s["t_mid"], s["f_mid"]) for s in obj["segments"]]
    if not segs:
        raise ParseError("segments file contains no segments")
    return segs


def weights_to_json(edges, weights, path: str | None = None) -> str:
    obj = {"edges": [[t, h] for t, h in edges], "weights": [float(w) for w in weights]}
    return _dump_json(obj, path)
