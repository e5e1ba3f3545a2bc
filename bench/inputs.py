"""Seeded input generators for the benchmark workloads.

Every generator is a pure function of its seed: the same seed gives
byte-identical files. Nothing here imports ``spdsheaf``; the program under
test only ever sees the files written here.
"""

from __future__ import annotations

import json
import math

import numpy as np

N_STALK = 3
SYM_DIM = N_STALK * (N_STALK + 1) // 2

# Component kinds of a generated sections file and the kernel dimension each
# contributes: a tree is free at its root (all of Sym_3); a gauge component
# has cycle holonomy rotating about one axis by an angle away from 0 and pi,
# which fixes span{I, e_z e_z^T}; generic orthogonal maps around two or more
# independent cycles fix only multiples of the identity.
PLANTED_DIM = {"tree": SYM_DIM, "gauge": 2, "generic": 1}

# (kind, vertices, chords) per component of one sections file
SECTIONS_LAYOUT = (
    ("tree", 24, 0),
    ("tree", 16, 0),
    ("gauge", 32, 3),
    ("gauge", 28, 2),
    ("gauge", 20, 1),
    ("generic", 32, 4),
    ("generic", 28, 3),
    ("generic", 20, 2),
)


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True) + "\n"


def random_orthogonal(rng, n: int = N_STALK) -> np.ndarray:
    """Haar-distributed orthogonal matrix (QR with the sign of diag R fixed)."""
    Q, R = np.linalg.qr(rng.normal(size=(n, n)))
    return Q * np.sign(np.diag(R))


def rot_z(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _component_edges(rng, first: int, size: int, chords: int) -> tuple[list, list]:
    """Random recursive spanning tree plus `chords` extra edges, randomly oriented.

    Returns (tree edges, chord edges) as (tail, head) pairs of global ids.
    """
    tree = []
    for i in range(1, size):
        tree.append((first + int(rng.integers(0, i)), first + i))
    extra = []
    while len(extra) < chords:
        u, v = (first + int(x) for x in rng.integers(0, size, size=2))
        if u != v:
            extra.append((u, v))

    def orient(e):
        return e if rng.random() < 0.5 else (e[1], e[0])

    return [orient(e) for e in tree], [orient(e) for e in extra]


def sheaf_instance(seed: int, layout=SECTIONS_LAYOUT) -> dict:
    """One n=3 sheaf with planted per-component section spaces.

    Returns ``{"json": text, "vertices", "edges", "maps", "kernel_dim",
    "components"}``; ``maps[k]`` is the (M_tail, M_head) pair of edge k.
    """
    rng = np.random.default_rng(seed)
    vertices, edges, maps = [], [], []
    kernel_dim = 0
    first = 0
    for kind, size, chords in layout:
        ids = list(range(first, first + size))
        tree, extra = _component_edges(rng, first, size, chords)
        if kind == "gauge":
            # M_tail = R_e G_t^T, M_head = R_e A_e^T G_h^T makes the edge
            # transport M_head^T M_tail = G_h A_e G_t^T. With A_e = R_z(phi_h -
            # phi_t + psi_e) the phases telescope around every cycle, so the
            # holonomy of the cycle closed by chord e is R_z(+-psi_e).
            gauge = {v: random_orthogonal(rng) for v in ids}
            phase = {v: float(rng.uniform(0.0, 2.0 * math.pi)) for v in ids}
            for k, (t, h) in enumerate(tree + extra):
                psi = 0.0
                if k >= len(tree):
                    psi = float(rng.uniform(0.3, math.pi - 0.3)) * float(rng.choice((-1.0, 1.0)))
                R = random_orthogonal(rng)
                A = rot_z(phase[h] - phase[t] + psi)
                maps.append((R @ gauge[t].T, R @ A.T @ gauge[h].T))
        else:
            maps.extend((random_orthogonal(rng), random_orthogonal(rng))
                        for _ in tree + extra)
        vertices.extend(ids)
        edges.extend(tree + extra)
        kernel_dim += PLANTED_DIM[kind]
        first += size
    obj = {
        "n_stalk": N_STALK,
        "vertices": vertices,
        "edges": [
            {"tail": t, "head": h, "map_tail": mt.tolist(), "map_head": mh.tolist()}
            for (t, h), (mt, mh) in zip(edges, maps)
        ],
    }
    return {
        "json": _dump(obj),
        "vertices": vertices,
        "edges": edges,
        "maps": maps,
        "kernel_dim": kernel_dim,
        "components": len(layout),
    }


def knn_cloud(seed: int, n_points: int, k: int = 4) -> dict:
    """Gaussian point cloud in R^3 with symmetrized k-nearest-neighbour edges.

    Returns ``{"json": text, "points": (N, 3) array, "edges": [(i, j)]}``.
    """
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n_points, 3))
    d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1)
    np.fill_diagonal(d2, np.inf)
    near = np.argsort(d2, axis=1, kind="stable")[:, :k]
    pairs = sorted({(min(i, int(j)), max(i, int(j))) for i in range(n_points) for j in near[i]})
    obj = {
        "vertices": [{"id": i, "xyz": pts[i].tolist()} for i in range(n_points)],
        "edges": [list(e) for e in pairs],
    }
    return {"json": _dump(obj), "points": pts, "edges": pairs}
