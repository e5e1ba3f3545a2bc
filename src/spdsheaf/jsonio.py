"""JSON schemas for sheaves, cochains, point clouds and signal segments.

Matrices serialize as row-major nested lists, the one form of a restriction
map and of a cochain value. A reader takes JSON numbers only where a number
belongs, and names the edge or vertex of a malformed matrix.

Every writer returns one line of JSON, with sorted keys and repr-style floats,
and :func:`write_text` writes every output file: reruns are byte-identical.
``python -m json.tool FILE`` prints one indented.
"""

from __future__ import annotations

import json
from contextlib import contextmanager

import numpy as np

from .covgraph import Segment
from .errors import InvalidInputError, ParseError
from .euclid import EuclidSheaf
from .sheaf import SheafGraph
from .spd import as_spd, sym_dim
from .stream import PointCloud


def load_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
                             f"{exc.msg}") from exc
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text: {exc.reason}") from None
        except RecursionError:
            raise ParseError(f"{path}: JSON nested too deeply") from None
        except ValueError as exc:  # an integer literal past sys.get_int_max_str_digits()
            raise ParseError(f"{path}: unreadable JSON number: "
                             f"{str(exc).split(';')[0]}") from None


@contextmanager
def _parsing(what: str):
    """Report a lookup, type, value or overflow error in a `what` object as ParseError."""
    try:
        yield
    except ParseError:
        raise
    except KeyError as exc:
        raise ParseError(f"malformed {what} object: missing {exc}") from None
    except (TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise ParseError(f"malformed {what} object: {exc}") from None


def _dump_json(obj) -> str:
    """The package's one JSON text format."""
    return json.dumps(obj, sort_keys=True)


def write_text(path: str, text: str) -> None:
    """Write `text` and a newline to `path`: the package's one file writer."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


# ---------------------------------------------------------------------------
# numbers and matrices


def _float_array(obj, what: str) -> np.ndarray:
    """A JSON number, or lists nested around numbers, as a float array.
    Strings, booleans and null are not numbers."""
    items = [obj]
    while items:
        nested = []
        for x in items:
            if type(x) is list:
                nested += x
            elif type(x) is not float and type(x) is not int:  # `is int` also rejects bools
                raise ParseError(f"malformed {what}: expected numbers, got {type(x).__name__}")
        items = nested
    try:
        return np.asarray(obj, dtype=np.float64)
    except (ValueError, OverflowError) as exc:
        raise ParseError(f"malformed {what}: {exc}") from None


def _square_matrix(obj, n: int, what: str) -> np.ndarray:
    """The nested-list n x n matrix `obj`; every error names it as `what`."""
    if type(obj) is not list:
        raise ParseError(f"{what} must be a nested list, got {type(obj).__name__}")
    A = _float_array(obj, what)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ParseError(f"{what}: expected a square matrix, got shape {A.shape}")
    if A.shape[0] != n:
        raise ParseError(f"{what}: expected a {n}x{n} matrix, got {A.shape[0]}")
    return A


# ---------------------------------------------------------------------------
# sheaves and cochains


def sheaf_to_json(sheaf: SheafGraph | EuclidSheaf, cochain0: dict | None = None) -> str:
    maps = np.asarray(sheaf.maps, dtype=np.float64).tolist()
    edges = [{"tail": t, "head": h, "map_tail": mt, "map_head": mh}
             for (t, h), (mt, mh) in zip(sheaf.edges, maps)]
    obj = {"n_stalk": sheaf.n_stalk, "vertices": list(sheaf.vertices), "edges": edges}
    if cochain0 is not None:
        obj["cochain0"] = [[v, np.asarray(cochain0[v], dtype=np.float64).tolist()]
                           for v in sheaf.vertices]
    return _dump_json(obj)


def _n_stalk(obj) -> int:
    n = obj["n_stalk"]
    if type(n) is not int or n < 1:  # `type(n) is int` also rejects bools
        raise ParseError(f"n_stalk must be a positive integer, got {n!r}")
    return n


def _list(obj, key: str) -> list:
    """The JSON list stored under `key`."""
    if not isinstance(obj[key], list):
        raise ParseError(f"'{key}' must be a list, got {type(obj[key]).__name__}")
    return obj[key]


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


def _cochain_values(entries, n: int) -> dict:
    """The values of `cochain0`'s [id, value] entries, each id once, floored by one as_spd."""
    values = {}
    for v, val in _pairs(entries, "cochain0"):
        v = _as_id(v)
        if v in values:
            raise ParseError(f"cochain0 names vertex {v!r} twice")
        values[v] = _square_matrix(val, n, f"cochain0 vertex {v!r}")
    return dict(zip(values, as_spd(np.array(list(values.values()))))) if values else values


def load_sheaf(path: str) -> tuple[SheafGraph, dict | None]:
    obj = load_json(path)
    with _parsing("sheaf"):
        n = _n_stalk(obj)
        vertices = [_as_id(v) for v in _list(obj, "vertices")]
        edge_objs = _list(obj, "edges")
        try:  # every map in one conversion; per map below to name the bad one
            maps = _float_array([[e["map_tail"], e["map_head"]] for e in edge_objs], "maps")
            per_map = maps.shape != (len(edge_objs), 2, n, n)
        except (KeyError, TypeError, ParseError):
            per_map = True
        edges, maps = [], [] if per_map else maps
        for e in edge_objs:
            edges.append((_as_id(e["tail"]), _as_id(e["head"])))
            if per_map:
                maps.append(tuple(_square_matrix(e[key], n, f"edge {edges[-1]} {key}")
                                  for key in ("map_tail", "map_head")))
        entries = obj.get("cochain0")
        cochain = None if entries is None else _cochain_values(entries, n)
    sheaf = SheafGraph(n, vertices, edges, maps)
    if cochain is not None and set(cochain) != set(sheaf.vertices):
        odd = sorted(map(str, set(cochain) ^ set(sheaf.vertices)))
        raise ParseError(f"cochain0 does not name each vertex once: it misses or adds {odd}")
    return sheaf, cochain


def _sections_to_json(sheaf: SheafGraph, summary: dict) -> str:
    """The `sections` report of `sheaf` from the per-component blocks of
    :func:`~spdsheaf.sheaf.section_space_summary`.

    The text is byte for byte :func:`_dump_json` of the dense report, whose
    basis columns each hold ``log_upper``, every vertex id as a string key
    mapped to its m entries, and ``edge_residuals``, one norm per edge. A
    column is zero off its component, and so is its coboundary, whose norm
    there is ``+0.0``. So every column starts from the rows of zeros of all
    vertices, in sorted key order and encoded once per report, and from
    ``0.0`` on every edge; only its component's rows and residuals are
    encoded, by :func:`_dump_json`. The ids 1 and "1" would share a key, so
    such a pair is rejected.
    """
    clash = sorted({str(v) for v in sheaf.vertices if isinstance(v, int)} & set(sheaf.vertices))
    if clash:
        raise InvalidInputError(f"vertex ids {clash} are given both as integers and as strings")
    names = [str(v) for v in sheaf.vertices]
    order = sorted(range(len(names)), key=names.__getitem__)
    slot = np.empty(len(order), dtype=np.intp)
    slot[order] = np.arange(len(order))
    keys = [_dump_json(name) + ": " for name in names]
    m = sym_dim(sheaf.n_stalk)
    zero_rows = [keys[i] + _dump_json([0.0] * m) for i in order]
    columns = []
    for pos, edges, block, residuals in summary["sections"]:
        rows_at, keys_at = slot[pos].tolist(), [keys[i] for i in pos]
        flat = np.moveaxis(block, -1, 0).reshape(block.shape[2], -1)  # column, then vertex
        for values, norms in zip(flat.tolist(), residuals.tolist()):
            rows, norm_texts = zero_rows.copy(), ["0.0"] * sheaf.n_edges
            texts = _float_texts(values)
            for i, (r, key) in enumerate(zip(rows_at, keys_at)):
                rows[r] = f"{key}[{', '.join(texts[i * m:(i + 1) * m])}]"
            if edges:
                for k, text in zip(edges, _float_texts(norms)):
                    norm_texts[k] = text
            columns.append(f'{{"edge_residuals": [{", ".join(norm_texts)}], '
                           f'"log_upper": {{{", ".join(rows)}}}}}')
    counts = dict(summary, n_stalk=sheaf.n_stalk, n_vertices=sheaf.n_vertices,
                  n_edges=sheaf.n_edges)
    del counts["sections"]
    # "basis" sorts before every other key of the report
    return f'{{"basis": [{", ".join(columns)}], ' + _dump_json(counts)[1:]


def _float_texts(values: list) -> list[str]:
    """The JSON text of each float of a non-empty list, from one encoding of
    the list: no float's text holds the separator ``", "``."""
    return _dump_json(values)[1:-1].split(", ")


def cochain0_to_json(ids, values: np.ndarray) -> str:
    """The 0-cochain holding the (|V|, n, n) stack `values` on the vertex ids `ids`."""
    obj = {"n_stalk": values.shape[-1], "values": [[v, X] for v, X in zip(ids, values.tolist())]}
    return _dump_json(obj)


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
        segs = [Segment(_float_array(s["data"], "segment data"),
                        *_float_array([s["t_mid"], s["f_mid"]], "segment midpoints").tolist())
                for s in obj["segments"]]
    if not segs:
        raise ParseError("segments file contains no segments")
    return segs


def weights_to_json(edges, weights) -> str:
    obj = {"edges": [[t, h] for t, h in edges], "weights": [float(w) for w in weights]}
    return _dump_json(obj)
