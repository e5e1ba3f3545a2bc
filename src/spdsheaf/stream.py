"""Geometric diffusion stream: coordinate lifting, equivariant frames,
learned restriction maps, layered SPD sheaf convolution, pooling and rank
diagnostics.

The stream turns a 3D point cloud into near-rank-one SPD matrices (direction
outer products plus a small ridge), optionally canonicalizes them with
per-vertex equivariant frames so downstream outputs are invariant to rigid
motions, and then applies sheaf-Laplacian updates in the log domain. Layer
parameters are evaluated at seeded random values; the only trained component
is a convex logistic readout on pooled descriptors.

A stream cochain is one (|V|, 3, 3) array whose rows follow ``pc.ids``. It
holds SPD values in lifting, canonicalization and the diffusion runs, and
logarithms in the convolution layer, the rank trace and pooling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DomainError, InvalidInputError
from .euclid import embed_phi
from .sheaf import SheafGraph, _cochain_stack, _log_update, diffusion_step
from .spd import (
    RE_EIG_DELTA,
    _erank_of_spectra,
    _from_spectrum,
    _log_power_mean,
    as_sym,
    cayley,
    skew_from_params,
    spd_log,
    sym_dim,
    sym_to_vec,
)

# Pairs per block of the minimum pairwise distance: a block holds
# _PAIR_BLOCK / N rows against N columns, so its memory does not grow with N.
_PAIR_BLOCK = 1 << 15

_HIDDEN = 32  # width of the sheaf learner's hidden layer
_KNN, _K_FALLBACK = 3, 2  # neighbours of k-NN vertices and of radius-isolated ones

#: Guards the lift's direction normalization; a centroid point lifts to EIG_FLOOR I.
EPS_DIR = 1e-8


class PointCloud:
    """Vertex coordinates in R^3 plus an undirected edge list.

    The topology is one identity-map :class:`SheafGraph` with 3x3 stalks,
    built and validated once: ``ids`` and ``edges`` read from it, and the
    stream swaps new maps into it instead of rebuilding it.
    """

    __slots__ = ("points", "graph", "ids", "edges")

    def __init__(self, points, edges, ids=None):
        self.points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
        if not np.all(np.isfinite(self.points)):
            raise InvalidInputError("point cloud has non-finite coordinates")
        if self.points.shape[0] == 0:
            raise InvalidInputError("point cloud is empty")
        # lifting divides by centroid distances and framing by distances
        # between points, which are at most twice the largest centroid
        # distance: no square of either may overflow
        with np.errstate(over="ignore", invalid="ignore"):
            centered = self.points - self.points.mean(axis=0)
            reach = 2.0 * np.max(np.linalg.norm(centered, axis=1))
            if not np.isfinite(reach * reach):
                raise InvalidInputError("point cloud coordinates are too large: "
                                        "squared distances overflow")
        ids = tuple(ids) if ids is not None else range(self.points.shape[0])
        if len(ids) != self.points.shape[0]:
            raise InvalidInputError("one id per point required")
        self.graph = SheafGraph.identity_maps(3, ids, edges)
        self.ids, self.edges = self.graph.vertices, self.graph.edges

    @property
    def n_points(self) -> int:
        return self.points.shape[0]


def knn_edges(points) -> list[tuple[int, int]]:
    """Symmetrized 3-nearest-neighbour edges on positional indices."""
    d2 = _squared_distances(points)
    return _edge_list(np.zeros(d2.shape, dtype=bool), d2, np.arange(d2.shape[0]), _KNN)


def geometric_graph(points, radius: float) -> list[tuple[int, int]]:
    """Radius graph; vertices left isolated get their 2 nearest neighbours."""
    d2 = _squared_distances(points)
    near = d2 <= radius**2
    return _edge_list(near, d2, np.flatnonzero(~near.any(axis=1)), _K_FALLBACK)


def _squared_distances(points) -> np.ndarray:
    """(N, N) squared distances between points, with an infinite diagonal."""
    pts = np.asarray(points, dtype=np.float64)
    d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1)
    np.fill_diagonal(d2, np.inf)
    return d2


def _edge_list(adj, d2, rows, k: int) -> list[tuple[int, int]]:
    """Sorted pairs i < j of the symmetrized adjacency ``adj``, after each of
    ``rows`` is linked to its k nearest other vertices (fewer if N <= k)."""
    k = min(k, d2.shape[0] - 1)
    if k > 0:
        adj[rows[:, None], np.argsort(d2[rows], axis=1)[:, :k]] = True
    tails, heads = np.nonzero(np.triu(adj | adj.T, 1))
    return list(zip(tails.tolist(), heads.tolist()))


# ---------------------------------------------------------------------------
# lifting and frames


def lift_coordinates(pc: PointCloud) -> np.ndarray:
    """Centroid-centered unit directions lifted to near-rank-one SPD matrices.

    ``X_v = embed_phi(u)`` with ``u = (p_v - centroid)/(||.|| + EPS_DIR)``,
    one (|V|, 3, 3) stack in ``pc.ids`` order. Exactly translation invariant;
    points at the centroid degrade gracefully to ``EIG_FLOOR I``.
    """
    centered = pc.points - pc.points.mean(axis=0)
    norms = np.linalg.norm(centered, axis=1, keepdims=True)
    return embed_phi(centered / (norms + EPS_DIR))


def local_frame(pc: PointCloud) -> tuple[np.ndarray, np.ndarray]:
    """Per-vertex equivariant orthonormal frames, with degeneracy flags.

    Returns a (|V|, 3, 3) frame stack and a (|V|,) boolean flag array, both
    in ``pc.ids`` order.

    Columns: normalized centroid displacement, Gram-Schmidt of the summed
    unit neighbour directions, and their cross product. Under a global
    rotation R the frame maps to R times itself, so ``M^T X M`` is rotation
    invariant. Degenerate geometry (no displacement, no neighbours, collinear
    directions) falls back to the least-aligned canonical axis and sets the
    vertex flag.
    """
    def dot(a, b):
        # (N, 1) row-wise products, each rounded as np.dot rounds one pair
        return (a[:, None, :] @ b[:, :, None])[:, 0]

    tails, heads = pc.graph._tails, pc.graph._heads
    d = pc.points[heads] - pc.points[tails]
    nd = np.sqrt(dot(d, d))
    d = np.divide(d, nd, out=np.zeros_like(d), where=nd > 0)  # zero-length edges add 0
    # each vertex sums its terms in edge order: +d at the tail, -d at the head
    agg = np.zeros((pc.n_points, 3))
    np.add.at(agg, np.column_stack([tails, heads]).ravel(), np.stack([d, -d], 1).reshape(-1, 3))
    centered = pc.points - pc.points.mean(axis=0)
    flags = np.sqrt(dot(centered, centered)) < 1e-12
    v1 = np.where(flags, np.eye(3)[0], centered)
    v1 /= np.sqrt(dot(v1, v1))
    v2 = agg - dot(agg, v1) * v1
    collinear = np.sqrt(dot(v2, v2)) < 1e-8 * np.maximum(1.0, np.sqrt(dot(agg, agg)))
    axis = np.eye(3)[np.argmin(np.abs(v1), axis=1)]
    v2 = np.where(collinear, axis - dot(axis, v1) * v1, v2)
    v2 /= np.sqrt(dot(v2, v2))
    return np.stack([v1, v2, np.cross(v1, v2)], axis=-1), (flags | collinear)[:, 0]


def canonicalize(sigma: np.ndarray, frames: np.ndarray) -> np.ndarray:
    """Express each stalk value in its local frame: ``M^T X M``, row by row."""
    sigma, frames = np.asarray(sigma, dtype=np.float64), np.asarray(frames, dtype=np.float64)
    if sigma.shape != frames.shape:
        raise InvalidInputError(f"cochain of shape {sigma.shape} and frames of shape "
                                f"{frames.shape} differ")
    return np.swapaxes(frames, -1, -2) @ sigma @ frames


# ---------------------------------------------------------------------------
# layer parameters


@dataclass(frozen=True)
class LayerParams:
    """Seed matrix for the learnable isometry plus sheaf-learner MLP weights.

    The MLP maps concatenated endpoint features (2 * n(n+1)/2) through one
    tanh hidden layer of width 32 to two heads of n(n-1)/2 skew parameters,
    one per endpoint map. ``isometry`` is ``learnable_isometry(w_q)``,
    computed once at construction.
    """

    w_q: np.ndarray
    mlp_w1: np.ndarray
    mlp_b1: np.ndarray
    mlp_w2: np.ndarray
    mlp_b2: np.ndarray
    isometry: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("w_q", "mlp_w1", "mlp_b1", "mlp_w2", "mlp_b2"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if not np.all(np.isfinite(arr)):
                raise InvalidInputError(f"layer parameter {name} has non-finite entries")
            object.__setattr__(self, name, arr)
        n = self.w_q.shape[0]
        if self.w_q.shape != (n, n):
            raise InvalidInputError("isometry seed must be square")
        if self.mlp_w2.shape[0] != 2 * (n * (n - 1) // 2):
            raise InvalidInputError(
                "sheaf MLP must emit n(n-1)/2 skew parameters per endpoint map")
        object.__setattr__(self, "isometry", learnable_isometry(self.w_q))

    @property
    def n(self) -> int:
        return self.w_q.shape[0]

    @classmethod
    def random(cls, n: int, rng=None) -> "LayerParams":
        rng = np.random.default_rng(rng)
        feat = sym_dim(n)
        skew = n * (n - 1) // 2
        return cls(
            w_q=rng.normal(size=(n, n)),
            mlp_w1=rng.normal(size=(_HIDDEN, 2 * feat)) / math.sqrt(2 * feat),
            mlp_b1=rng.normal(size=_HIDDEN) * 0.1,
            mlp_w2=rng.normal(size=(2 * skew, _HIDDEN)) / math.sqrt(_HIDDEN),
            mlp_b2=rng.normal(size=2 * skew) * 0.1,
        )

    @classmethod
    def identity(cls, n: int) -> "LayerParams":
        feat = sym_dim(n)
        skew = n * (n - 1) // 2
        return cls(
            w_q=np.eye(n),
            mlp_w1=np.zeros((_HIDDEN, 2 * feat)),
            mlp_b1=np.zeros(_HIDDEN),
            mlp_w2=np.zeros((2 * skew, _HIDDEN)),
            mlp_b2=np.zeros(2 * skew),
        )


def learnable_isometry(W) -> np.ndarray:
    """Orthogonalize a full-rank seed by QR with column signs fixed positive.

    The sign fix (multiplying Q by sign(diag R)) makes the map a continuous
    function of W wherever the diagonal of R stays away from zero. A
    rank-deficient seed is perturbed and retried.
    """
    W = np.asarray(W, dtype=np.float64)
    n = W.shape[0]
    if np.linalg.matrix_rank(W) < n:
        W = W + 1e-8 * np.eye(n)
    Q, R = np.linalg.qr(W)
    signs = np.sign(np.diag(R))
    signs[signs == 0] = 1.0
    return Q * signs


def sheaf_learner(params: LayerParams, h_u, h_v) -> tuple[np.ndarray, np.ndarray]:
    """Orthogonal restriction maps for edges from concatenated endpoint features.

    ``h_u`` and ``h_v`` are one feature vector each, giving one (n, n) map
    per endpoint, or (E, f) stacks with one row per edge, giving (E, n, n)
    map stacks. One hidden-layer MLP produces two heads of skew parameters;
    each head is antisymmetrized into S and mapped through the Cayley
    transform, so both outputs are exactly orthogonal. Zero weights give
    identity maps.
    """
    h_u = np.asarray(h_u, dtype=np.float64)
    h_v = np.asarray(h_v, dtype=np.float64)
    if h_u.ndim not in (1, 2) or h_u.shape[:-1] != h_v.shape[:-1] or h_u.ndim != h_v.ndim:
        raise InvalidInputError(
            "endpoint features must be two vectors or two (E, f) stacks, "
            f"got shapes {h_u.shape} and {h_v.shape}")
    z = np.concatenate([h_u, h_v], axis=-1)
    if z.shape[-1] != params.mlp_w1.shape[1]:
        raise InvalidInputError(
            f"feature dimension mismatch: got {z.shape[-1]}, expected {params.mlp_w1.shape[1]}")
    hidden = np.tanh(z @ params.mlp_w1.T + params.mlp_b1)
    logits = hidden @ params.mlp_w2.T + params.mlp_b2
    n = params.n
    heads = logits.reshape(logits.shape[:-1] + (2, n * (n - 1) // 2))
    maps = cayley(skew_from_params(heads, n))
    return maps[..., 0, :, :], maps[..., 1, :, :]


# ---------------------------------------------------------------------------
# the convolution layer


def spd_sheaf_layer(pc: PointCloud, logs: np.ndarray, params: LayerParams) -> np.ndarray:
    """One SPD sheaf convolution layer on a (|V|, 3, 3) stack of logs; returns
    the new log stack.

    Steps: regenerate restriction maps from the input logs as node features,
    add the per-vertex log-Laplacian update (eigenvalues normalized to
    [-1, 1]) of the logs conjugated by the orthogonal isometry Q (``Q log X
    Q^T = log(Q X Q^T)``), and floor the log spectrum of the sum (ReEig): a
    log eigenvalue w > 0 passes, any other becomes ``RE_EIG_DELTA * i`` for
    its 1-based descending position i. The learned maps replace the identity
    maps of ``pc.graph``. The input must be finite and symmetric; a mapping
    keyed by vertex id is accepted too.
    """
    graph = pc.graph
    logs = as_sym(_cochain_stack(logs, graph.vertices))
    feats = sym_to_vec(logs)
    sheaf = graph._with_maps(*sheaf_learner(params, feats[graph._tails], feats[graph._heads]))

    Q = params.isometry
    w, V = np.linalg.eigh(logs + _log_update(sheaf, Q @ logs @ Q.T))
    # eigh sorts ascending, so the last eigenvalue has descending position 1
    return _from_spectrum(np.where(w > 0.0, w, RE_EIG_DELTA * np.arange(w.shape[-1], 0, -1)), V)


# ---------------------------------------------------------------------------
# rank diagnostics


@dataclass
class TraceRow:
    layer: int
    mean_erank: float
    mean_lambda2: float
    min_pairwise_lem: float

    def as_csv(self) -> str:
        return (f"{self.layer},{self.mean_erank!r},{self.mean_lambda2!r},"
                f"{self.min_pairwise_lem!r}")


@dataclass
class RankTrace:
    """Per-layer effective-rank diagnostics of a diffusion run."""

    rows: list

    def to_csv(self) -> str:
        lines = ["layer,mean_erank,mean_lambda2,min_pairwise_lem"]
        lines += [r.as_csv() for r in self.rows]
        return "\n".join(lines) + "\n"


def trace_row(logs: np.ndarray, layer: int) -> TraceRow:
    """Summary statistics of one (|V|, n, n) stack of logs: eranks, second
    eigenvalues, spread.

    One ``eigvalsh`` of the logs gives their spectra w. The effective rank
    reads ``exp(w - max w)``, which has the same normalized spectrum; the
    second eigenvalue ``exp(w_2)`` reads ``inf``, with no warning and no
    exception, once w_2 passes about 709. The minimum pairwise log-Euclidean
    distance is that of the flattened logs (Arsigny et al. 2007).
    """
    logs = as_sym(logs)
    if logs.ndim != 3:
        raise InvalidInputError(f"expected a (|V|, n, n) stack of logs, got shape {logs.shape}")
    N = logs.shape[0]
    w = np.linalg.eigvalsh(logs)
    eranks = _erank_of_spectra(np.exp(w - w[:, -1:]))
    with np.errstate(over="ignore"):
        lam2 = np.mean(np.exp(w[:, -2])) if logs.shape[-1] > 1 else np.nan
    min_lem = _min_pairwise_distance(logs.reshape(N, -1)) if N > 1 else 0.0
    return TraceRow(
        layer=layer,
        mean_erank=float(np.mean(eranks)),
        mean_lambda2=float(lam2),
        min_pairwise_lem=min_lem,
    )


def _min_pairwise_distance(flat: np.ndarray) -> float:
    """Minimum Euclidean distance between two distinct rows of ``flat``."""
    N = flat.shape[0]
    rows = max(1, _PAIR_BLOCK // N)
    best = np.inf
    for a in range(0, N - 1, rows):
        b = min(a + rows, N - 1)
        # block entry (r, c) is the pair (a + r, a + 1 + c); c < r repeats a pair
        d = np.linalg.norm(flat[a:b, None, :] - flat[None, a + 1:, :], axis=-1)
        d[np.tril_indices(b - a, -1, N - a - 1)] = np.inf
        best = min(best, float(np.min(d)))
    return best


def run_layers(pc: PointCloud, logs: np.ndarray,
               params_list: Sequence[LayerParams]) -> tuple[np.ndarray, RankTrace]:
    """Apply a stack of convolution layers to a stack of logs; returns the last
    layer's logs and the trace of the input and of every layer's output."""
    rows = [trace_row(logs, 0)]
    for i, params in enumerate(params_list, 1):
        logs = spd_sheaf_layer(pc, logs, params)
        rows.append(trace_row(logs, i))
    return logs, RankTrace(rows)


def pooled_descriptor(logs: np.ndarray) -> np.ndarray:
    """vec_upper(2 log mean exp(logs / 2)) of a (k, n, n) stack of logs: the log of
    the power-Euclidean mean at theta = 1/2 of their values (Arsigny et al. 2007),
    invariant under row permutations and free of exp overflow."""
    logs = as_sym(logs)
    if logs.ndim != 3 or len(logs) == 0:
        raise InvalidInputError(f"expected a nonempty (k, n, n) log stack, got shape {logs.shape}")
    return sym_to_vec(_log_power_mean(logs, 0.5))


def geometric_descriptor(pc: PointCloud, params_list: Sequence[LayerParams],
                         frame_invariant: bool = True) -> np.ndarray:
    """Full pipeline: lift, optionally canonicalize, convolve, pool.

    Lifting is :func:`lift_coordinates` and pooling at theta = 1/2.
    With ``frame_invariant`` the lifted states are expressed in their
    equivariant local frames, making the descriptor invariant under rigid
    motions of the cloud; without it the descriptor lives in the task frame
    and retains the absolute second-order orientation structure.
    """
    sigma = lift_coordinates(pc)
    if frame_invariant:
        frames, _ = local_frame(pc)
        sigma = canonicalize(sigma, frames)
    logs = spd_log(sigma)
    for params in params_list:
        logs = spd_sheaf_layer(pc, logs, params)
    return pooled_descriptor(logs)


# ---------------------------------------------------------------------------
# plain diffusion runs (depth robustness experiments)


def diffusion_run(pc: PointCloud, layers: int, seed: int,
                  identity_maps: bool = False, residual: bool = True,
                  normalize: bool = True) -> tuple[np.ndarray, RankTrace]:
    """Iterate plain sheaf diffusion on a cloud lifted by :func:`lift_coordinates`.

    Restriction maps are resampled per layer (random special-orthogonal via
    the Cayley transform of random skew matrices) unless ``identity_maps`` is
    set. Deterministic for a fixed seed.
    """
    rng = np.random.default_rng(seed)
    sigma = lift_coordinates(pc)
    rows = [trace_row(spd_log(sigma), 0)]
    sheaf = pc.graph
    for i in range(1, layers + 1):
        if not identity_maps:
            # one block draws the same normals as per-edge (tail, head) draws
            A = rng.normal(size=(len(pc.edges), 2, 3, 3))
            maps = cayley(A - np.swapaxes(A, -1, -2))
            sheaf = pc.graph._with_maps(maps[:, 0], maps[:, 1])
        sigma = diffusion_step(sheaf, sigma, normalize=normalize, residual=residual)
        rows.append(trace_row(spd_log(sigma), i))
    return sigma, RankTrace(rows)


# ---------------------------------------------------------------------------
# convex readout


@dataclass
class ProbeResult:
    train_accuracy: float
    test_accuracy: float


def linear_probe(train_x, train_y, test_x, test_y) -> ProbeResult:
    """Logistic readout trained by 2000 full-batch gradient steps of size 0.5.

    Features are standardized with training statistics; the objective is the
    binary cross-entropy plus (1e-4 / 2) ||w||^2 on the non-bias weights. It
    is convex, so zero initialization makes the result deterministic.
    """
    X = np.asarray(train_x, dtype=np.float64)
    y = np.asarray(train_y, dtype=np.float64).ravel()
    Xt = np.asarray(test_x, dtype=np.float64)
    yt = np.asarray(test_y, dtype=np.float64).ravel()
    # not np.unique, which imports numpy.ma (15 ms); all-NaN labels are one class, as there
    if y.size == 0 or np.all(y == y[0]) or np.all(np.isnan(y)):
        raise DomainError("probe requires at least two classes in the training labels")
    if not np.all((y == 0.0) | (y == 1.0)):
        raise InvalidInputError("labels must be 0/1")

    mu = X.mean(axis=0)
    sd = X.std(axis=0)
    sd[sd < 1e-12] = 1.0
    Z = np.hstack([np.ones((X.shape[0], 1)), (X - mu) / sd])
    Zt = np.hstack([np.ones((Xt.shape[0], 1)), (Xt - mu) / sd])

    w = np.zeros(Z.shape[1])
    for _ in range(2000):
        p = 1.0 / (1.0 + np.exp(-(Z @ w)))
        grad = Z.T @ (p - y) / Z.shape[0]
        grad[1:] += 1e-4 * w[1:]
        w -= 0.5 * grad

    def acc(M, labels):
        return float(np.mean(((M @ w) > 0).astype(float) == labels))

    return ProbeResult(train_accuracy=acc(Z, y), test_accuracy=acc(Zt, yt))


# ---------------------------------------------------------------------------
# synthetic planarity task


def planar_cloud(rng, planar: bool) -> PointCloud:
    """Sample 8 to 20 points with 3-NN edges: near-coplanar (x, y at scale 0.5,
    z at 0.02) when ``planar``, else isotropic at scale 0.5."""
    n = int(rng.integers(8, 21))
    if planar:
        pts = np.column_stack([
            rng.normal(scale=0.5, size=n),
            rng.normal(scale=0.5, size=n),
            rng.normal(scale=0.02, size=n),
        ])
    else:
        pts = rng.normal(scale=0.5, size=(n, 3))
    return PointCloud(pts, knn_edges(pts))


def planarity_experiment(seed: int, n_per_class: int = 200,
                         n_layers: int = 2) -> tuple[dict, dict]:
    """Descriptor + probe run for the planar-vs-isotropic task, and its control.

    Descriptors live in the task frame (no per-vertex canonicalization): the
    classes are defined relative to a fixed plane, so the probe measures how
    much second-order orientation structure the diffusion stream preserves.
    Half of each class trains the readout, half is held out. Returns
    ``(run, control)``: the chance-level permutation control reuses the
    run's clouds, descriptors and split, and permutes only the labels.
    """
    rng = np.random.default_rng(seed)
    params = [LayerParams.random(3, rng=rng) for _ in range(n_layers)]
    descriptors, labels = [], []
    for label, planar in ((0, False), (1, True)):
        for _ in range(n_per_class):
            pc = planar_cloud(rng, planar)
            descriptors.append(
                geometric_descriptor(pc, params, frame_invariant=False))
            labels.append(label)
    X = np.asarray(descriptors)
    y = np.asarray(labels, dtype=float)

    order = rng.permutation(len(y))
    X, y = X[order], y[order]
    half = len(y) // 2

    def fit(shuffled: bool, labels: np.ndarray) -> dict:
        probe = linear_probe(X[:half], labels[:half], X[half:], labels[half:])
        return {"seed": seed, "n_per_class": n_per_class, "layers": n_layers,
                "shuffled": shuffled, "train_accuracy": probe.train_accuracy,
                "test_accuracy": probe.test_accuracy}

    return fit(False, y), fit(True, y[rng.permutation(len(y))])
