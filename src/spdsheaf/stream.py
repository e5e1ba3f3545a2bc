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
holds SPD values in lifting, canonicalization and the output of a diffusion
run, and logarithms in the convolution layer, the diffusion steps, the rank
trace and pooling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import DomainError, InvalidInputError
from .euclid import embed_phi
from .sheaf import SheafGraph, _clamped_eigh, _log_update, diffusion_step
from .spd import (
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

# Vertices per disjoint union of clouds that the descriptor routine runs its
# layers on: enough to spread per-call costs over many small clouds, few enough
# that the probe's peak memory stays flat in the number of clouds.
_UNION_VERTICES = 256

_HIDDEN = 32  # width of the sheaf learner's hidden layer
_KNN, _K_FALLBACK = 3, 2  # neighbours of k-NN vertices and of radius-isolated ones

#: Guards the lift's direction normalization; a centroid point lifts to EIG_FLOOR I.
EPS_DIR = 1e-8

#: Floor spacing of the layer's ReEig: a floored log eigenvalue at descending
#: position i becomes i * RE_EIG_DELTA.
RE_EIG_DELTA = 0.1


class PointCloud:
    """Vertex coordinates in R^3, an (N, 3) array, plus an undirected edge list.

    The topology is one identity-map :class:`SheafGraph` with 3x3 stalks,
    checked once, here: ``ids`` and ``edges`` read from it, and the stream
    gives it new maps, unchecked, instead of rebuilding it.
    """

    __slots__ = ("points", "graph", "ids", "edges")

    def __init__(self, points, edges, ids=None):
        self.points = np.asarray(points, dtype=np.float64)
        if self.points.ndim != 2 or self.points.shape[1] != 3:
            raise InvalidInputError(f"point coordinates must be an (N, 3) array, "
                                    f"got shape {self.points.shape}")
        if self.points.shape[0] == 0:
            raise InvalidInputError("point cloud is empty")
        _check_coordinates(self.points)
        ids = tuple(ids) if ids is not None else range(self.points.shape[0])
        if len(ids) != self.points.shape[0]:
            raise InvalidInputError("one id per point required")
        self.graph = SheafGraph.identity_maps(3, ids, edges)
        self.ids, self.edges = self.graph.vertices, self.graph.edges

    @property
    def n_points(self) -> int:
        return self.points.shape[0]


def _check_coordinates(points: np.ndarray) -> None:
    """Reject (N, d) points that are not finite, or so far apart that a
    squared distance between them overflows."""
    if not np.all(np.isfinite(points)):
        raise InvalidInputError("point cloud has non-finite coordinates")
    if len(points) == 0:
        return
    # lifting divides by centroid distances, and framing and the neighbour
    # graph by distances between points, which are at most twice the largest
    # centroid distance: no square of either may overflow
    with np.errstate(over="ignore", invalid="ignore"):
        reach = 2.0 * np.max(np.linalg.norm(points - points.mean(axis=0), axis=1))
        if not np.isfinite(reach * reach):
            raise InvalidInputError("point cloud coordinates are too large: "
                                    "squared distances overflow")


def geometric_graph(points, radius: float) -> list[tuple[int, int]]:
    """Radius graph on (N, d) points; vertices left isolated get their 2
    nearest neighbours. An infinite radius gives the complete graph."""
    if not radius >= 0.0:
        raise InvalidInputError(f"radius must be non-negative, got {radius}")
    points = np.asarray(points, dtype=np.float64)
    _check_coordinates(points)
    tails, heads = _knn_pairs([points], _K_FALLBACK, radius)
    return list(zip(tails.tolist(), heads.tolist()))


def _knn_pairs(clouds: Sequence[np.ndarray], k: int = _KNN,
               radius: float | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Symmetrized edges of each (n_i, d) cloud's radius graph (none without a
    radius), plus an edge from each point it leaves isolated to its
    min(k, n_i - 1) nearest others, as end positions ``tails < heads`` in the
    clouds' disjoint union, cloud by cloud in row-major order. One padded
    (C, n_max, n_max) pass, the padding and diagonal infinite; the stable sort
    of the isolated rows sends equal distances to the lower index, so no batch
    changes a cloud's edges."""
    sizes = np.array([len(pts) for pts in clouds])
    n_max = int(sizes.max())
    real = np.arange(n_max) < sizes[:, None]
    both = real[:, :, None] & real[:, None, :]
    flat = np.concatenate(clouds)
    pts = np.zeros((len(clouds), n_max, flat.shape[1]))
    pts[real] = flat
    d2 = np.sum((pts[:, :, None, :] - pts[:, None, :, :]) ** 2, axis=-1)
    d2[~both | np.eye(n_max, dtype=bool)] = np.inf
    adj = both & (d2 <= radius**2) if radius is not None else np.zeros(d2.shape, dtype=bool)
    c, i = np.nonzero(real & ~adj.any(axis=-1))
    k = max(min(k, n_max - 1), 0)
    nearest = np.argsort(d2[c, i], axis=-1, kind="stable")[:, :k]
    row, r = np.nonzero(np.arange(k) < sizes[c, None] - 1)
    adj[c[row], i[row], nearest[row, r]] = True
    c, i, j = np.nonzero(np.triu(adj | np.swapaxes(adj, 1, 2), 1))
    offsets = np.cumsum(sizes) - sizes
    return offsets[c] + i, offsets[c] + j


# ---------------------------------------------------------------------------
# lifting and frames


def lift_coordinates(pc: PointCloud) -> np.ndarray:
    """Centroid-centered unit directions lifted to near-rank-one SPD matrices.

    ``X_v = embed_phi(u)`` with ``u = (p_v - centroid)/(||.|| + EPS_DIR)``,
    one (|V|, 3, 3) stack in ``pc.ids`` order. Exactly translation invariant;
    points at the centroid degrade gracefully to ``EIG_FLOOR I``.
    """
    return _lift(pc.points - pc.points.mean(axis=0))


def _lift(centered: np.ndarray) -> np.ndarray:
    """:func:`lift_coordinates` of centred points, row by row."""
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
    return _frames(pc.points, pc.points - pc.points.mean(axis=0), pc.graph)


def _frames(points: np.ndarray, centered: np.ndarray,
            graph: SheafGraph) -> tuple[np.ndarray, np.ndarray]:
    """:func:`local_frame` of stacked points, their centred copies and a graph
    on their positions. Each vertex reads only its own edges, in edge order,
    so the frames of a disjoint union of clouds are each cloud's own."""
    def dot(a, b):
        # (N, 1) row-wise products, each rounded as np.dot rounds one pair
        return (a[:, None, :] @ b[:, :, None])[:, 0]

    tails, heads = graph._tails, graph._heads
    d = points[heads] - points[tails]
    nd = np.sqrt(dot(d, d))
    d = np.divide(d, nd, out=np.zeros_like(d), where=nd > 0)  # zero-length edges add 0
    # each vertex sums its terms in edge order: +d at the tail, -d at the head
    agg = np.zeros((len(points), 3))
    np.add.at(agg, np.column_stack([tails, heads]).ravel(), np.stack([d, -d], 1).reshape(-1, 3))
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
    def random(cls, n: int, rng: np.random.Generator) -> "LayerParams":
        feat = sym_dim(n)
        skew = n * (n - 1) // 2
        return cls(
            w_q=rng.normal(size=(n, n)),
            mlp_w1=rng.normal(size=(_HIDDEN, 2 * feat)) / math.sqrt(2 * feat),
            mlp_b1=rng.normal(size=_HIDDEN) * 0.1,
            mlp_w2=rng.normal(size=(2 * skew, _HIDDEN)) / math.sqrt(_HIDDEN),
            mlp_b2=rng.normal(size=2 * skew) * 0.1,
        )


def learnable_isometry(W) -> np.ndarray:
    """Orthogonalize a square seed by QR with column signs fixed positive.

    Householder QR gives an orthogonal Q for every square W, rank-deficient
    ones too. The sign fix (multiplying Q by sign(diag R), a zero sign
    counting as +1) makes the map a continuous function of W wherever the
    diagonal of R stays away from zero.
    """
    Q, R = np.linalg.qr(np.asarray(W, dtype=np.float64))
    signs = np.sign(np.diag(R))
    signs[signs == 0] = 1.0
    return Q * signs


def sheaf_learner(params: LayerParams, h_u, h_v) -> tuple[np.ndarray, np.ndarray]:
    """Orthogonal restriction maps for edges from concatenated endpoint features.

    ``h_u`` and ``h_v`` are (E, f) stacks with one row per edge, giving
    (E, n, n) map stacks. One hidden-layer MLP produces two heads of skew
    parameters; each head is antisymmetrized into S and mapped through the
    Cayley transform, so both outputs are exactly orthogonal. Zero weights
    give identity maps.
    """
    h_u = np.asarray(h_u, dtype=np.float64)
    h_v = np.asarray(h_v, dtype=np.float64)
    if h_u.ndim != 2 or h_v.ndim != 2 or len(h_u) != len(h_v):
        raise InvalidInputError("endpoint features must be two (E, f) stacks of one length, "
                                f"got shapes {h_u.shape} and {h_v.shape}")
    z = np.concatenate([h_u, h_v], axis=-1)
    if z.shape[-1] != params.mlp_w1.shape[1]:
        raise InvalidInputError(
            f"feature dimension mismatch: got {z.shape[-1]}, expected {params.mlp_w1.shape[1]}")
    hidden = np.tanh(z @ params.mlp_w1.T + params.mlp_b1)
    logits = hidden @ params.mlp_w2.T + params.mlp_b2
    n = params.n
    heads = logits.reshape(len(logits), 2, n * (n - 1) // 2)
    maps = cayley(skew_from_params(heads, n))
    return maps[:, 0], maps[:, 1]


# ---------------------------------------------------------------------------
# the convolution layer


def spd_sheaf_layer(graph: SheafGraph, logs: np.ndarray, params: LayerParams) -> np.ndarray:
    """One SPD sheaf convolution layer on `graph` and a (|V|, 3, 3) stack of
    logs; returns the new log stack.

    Steps: regenerate restriction maps from the input logs as node features,
    add the per-vertex log-Laplacian update (eigenvalues normalized to
    [-1, 1]) of the logs conjugated by the orthogonal isometry Q (``Q log X
    Q^T = log(Q X Q^T)``), and floor the log spectrum of the sum (ReEig): a
    log eigenvalue w > 0 passes, any other becomes ``RE_EIG_DELTA * i`` for
    its 1-based descending position i. The learned maps replace `graph`'s
    maps. The input must be finite and symmetric.
    """
    logs = as_sym(logs)
    n = graph.n_stalk
    if logs.shape != (graph.n_vertices, n, n):
        raise InvalidInputError(f"expected a ({graph.n_vertices}, {n}, {n}) stack of logs, "
                                f"got shape {logs.shape}")
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
    mean_erank: float
    mean_lambda2: float
    min_pairwise_lem: float


@dataclass
class RankTrace:
    """Per-layer effective-rank diagnostics of a diffusion run: row i is layer i."""

    rows: list

    def to_csv(self) -> str:
        lines = ["layer,mean_erank,mean_lambda2,min_pairwise_lem"]
        lines += [f"{i},{r.mean_erank!r},{r.mean_lambda2!r},{r.min_pairwise_lem!r}"
                  for i, r in enumerate(self.rows)]
        return "\n".join(lines)


def trace_row(logs: np.ndarray) -> TraceRow:
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
    return TraceRow(float(np.mean(eranks)), float(lam2), min_lem)


# Rounding bound of the GEMM distances. With u = eps / 2, gamma_k = k u / (1 - k u)
# (a k-term dot product in any order errs by at most gamma_k times the sum of
# the |terms|; Higham, *Accuracy and Stability of Numerical Algorithms*, ch. 3),
# D entries per row, x = fl(f - c) the centred rows and P = |x_i|^2 + |x_j|^2:
# 1. d2 = fl(fl(s_i + s_j) - 2 fl(x_i.x_j)) is |x_i - x_j|^2 within
#    (2 gamma_D + 3u) P: gamma_D P from s_i and s_j, gamma_D P from the doubled
#    dot product (|x_i.x_j| <= P / 2), 3u P from the two additions.
# 2. Rounding x moves x_i - x_j off f_i - f_j by at most u (|x_i| + |x_j|) <=
#    u sqrt(2P); both distances are below sqrt(2P), so their squares differ by
#    at most 4u P.
# 3. norm rounds the D differences, their squares, their sum and the square
#    root: norm^2 = |f_i - f_j|^2 (1 + theta) with |theta| <= gamma_{D+4}, which
#    is within 2 gamma_{D+4} P since |f_i - f_j|^2 <= 2P.
# That is (4D + 15) u P to first order. Forming d2 - bound and d2 + bound
# rounds each by less than 2u P, and one more u P covers the second-order terms
# and the computed S = s_i + s_j >= (1 - gamma_D) P: the bound is (4D + 18) u S.
# Entries small enough to underflow add at most 2^-1075 per product, and the
# two sides make 5D products: 3D smallest subnormals cover them.


def _min_pairwise_distance(flat: np.ndarray) -> float:
    """Minimum Euclidean distance between two distinct rows of ``flat``:
    bitwise the least ``np.linalg.norm(flat[i] - flat[j], axis=-1)``, i < j.

    Squared distances come by GEMM on the mean-centred rows x, one block of
    rows at a time: d2 = s_i + s_j - 2 x_i.x_j with s_i = |x_i|^2. Every pair
    whose d2, less its rounding bound, is not above the least d2 plus bound
    seen so far is recomputed by ``norm``.
    """
    N, D = flat.shape
    x = flat - flat.mean(axis=0)
    s = np.einsum("ij,ij->i", x, x)
    slope = (4 * D + 18) * np.finfo(np.float64).eps / 2
    floor = 3 * D * np.finfo(np.float64).smallest_subnormal
    rows = max(1, _PAIR_BLOCK // N)
    best = upper = np.inf
    for a in range(0, N - 1, rows):
        b = min(a + rows, N - 1)
        # block entry (r, c) is the pair (a + r, a + 1 + c); c < r repeats a pair
        S = s[a:b, None] + s[None, a + 1:]
        d2 = S - 2.0 * (x[a:b] @ x[a + 1:].T)
        slack = slope * S + floor
        pair = np.arange(N - a - 1) >= np.arange(b - a)[:, None]
        upper = min(upper, float(np.min(d2 + slack, where=pair, initial=np.inf)))
        # a NaN d2 (overflowing entries) is never ruled out
        r, c = np.nonzero(pair & ~(d2 - slack > upper))
        if r.size:
            d = np.linalg.norm(flat[a + r] - flat[a + 1 + c], axis=-1)
            best = min(best, float(np.min(d)))
    return best


def run_layers(pc: PointCloud, logs: np.ndarray,
               params_list: Sequence[LayerParams]) -> tuple[np.ndarray, RankTrace]:
    """Apply a stack of convolution layers to a stack of logs; returns the last
    layer's logs and the trace of the input and of every layer's output."""
    rows = [trace_row(logs)]
    for params in params_list:
        logs = spd_sheaf_layer(pc.graph, logs, params)
        rows.append(trace_row(logs))
    return logs, RankTrace(rows)


def geometric_descriptor(pc: PointCloud, params_list: Sequence[LayerParams]) -> np.ndarray:
    """Full pipeline: lift, canonicalize, convolve, pool.

    Lifting is :func:`lift_coordinates` and pooling at theta = 1/2. The
    lifted states are expressed in their equivariant local frames, making
    the descriptor invariant under rigid motions of the cloud.
    """
    return _describe_chunk([pc.points], pc.graph, params_list, frame_invariant=True)[0]


def _descriptors(clouds: Iterable[np.ndarray], params_list: Sequence[LayerParams]) -> np.ndarray:
    """The probe's (m, 6) descriptor rows, one per (n_i, 3) cloud of points
    on its 3-NN graph, in the task frame: they keep the absolute
    second-order orientation structure.

    The clouds are read one chunk at a time: consecutive clouds with at most
    _UNION_VERTICES points in all (a larger cloud is a chunk of its own).
    Each chunk is one graph, with no per-cloud object and no check.
    """
    rows = []
    for chunk in _chunks(clouds):
        union = SheafGraph._identity_union(3, sum(map(len, chunk)), *_knn_pairs(chunk))
        rows.append(_describe_chunk(chunk, union, params_list, frame_invariant=False))
    return np.concatenate(rows)


def _chunks(clouds: Iterable[np.ndarray]) -> Iterator[list[np.ndarray]]:
    chunk, size = [], 0
    for pts in clouds:
        if chunk and size + len(pts) > _UNION_VERTICES:
            yield chunk
            chunk, size = [], 0
        chunk.append(pts)
        size += len(pts)
    if chunk:
        yield chunk


def _describe_chunk(clouds: list[np.ndarray], union: SheafGraph,
                    params_list: Sequence[LayerParams], frame_invariant: bool) -> np.ndarray:
    """One descriptor row per (n_i, 3) cloud of points; ``union`` is the graph
    on their stacked positions. Each cloud is centred on its own centroid,
    then the chunk is lifted, framed when ``frame_invariant``, and run
    through the layers at once; pooling takes one power mean per cloud."""
    centered = np.concatenate([pts - pts.mean(axis=0) for pts in clouds])
    sigma = _lift(centered)
    if frame_invariant:
        sigma = canonicalize(sigma, _frames(np.concatenate(clouds), centered, union)[0])
    logs = spd_log(sigma)
    for params in params_list:
        logs = spd_sheaf_layer(union, logs, params)
    sizes = [len(pts) for pts in clouds]
    return sym_to_vec(_log_power_mean(logs, 0.5, np.cumsum([0] + sizes[:-1])))


# ---------------------------------------------------------------------------
# plain diffusion runs (depth robustness experiments)


def diffusion_run(pc: PointCloud, layers: int, seed: int,
                  identity_maps: bool = False, residual: bool = True,
                  normalize: bool = True) -> tuple[np.ndarray, RankTrace]:
    """Iterate plain sheaf diffusion on a cloud lifted by :func:`lift_coordinates`.

    Restriction maps are resampled per layer (random special-orthogonal via
    the Cayley transform of random skew matrices) unless ``identity_maps`` is
    set. Deterministic for a fixed seed. The run holds logs: one log of the
    lift, one :func:`diffusion_step` and one trace row per layer, and the
    values of the last logs at the end.
    """
    rng = np.random.default_rng(seed)
    sigma = lift_coordinates(pc)
    logs = spd_log(sigma)
    rows = [trace_row(logs)]
    sheaf = pc.graph
    for _ in range(layers):
        if not identity_maps:
            # one block draws the same normals as per-edge (tail, head) draws
            A = rng.normal(size=(len(pc.edges), 2, 3, 3))
            maps = cayley(A - np.swapaxes(A, -1, -2))
            sheaf = pc.graph._with_maps(maps[:, 0], maps[:, 1])
        logs = diffusion_step(sheaf, logs, normalize=normalize, residual=residual)
        rows.append(trace_row(logs))
    if layers:
        # a fresh eigh of the clamped logs strays past the box by rounding
        # (about 1e-14), which exp would turn into about 1e-10 at 1e4
        w, V = _clamped_eigh(logs)
        sigma = _from_spectrum(np.exp(w), V)
    return sigma, RankTrace(rows)


# ---------------------------------------------------------------------------
# convex readout


def _fit_readouts(train_x, train_Y: np.ndarray, test_x,
                  test_Y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Logistic readouts, one per column of the (n, k) 0/1 label matrices,
    each fit to the optimum of its objective by :func:`_readout_weights`;
    returns the (k,) train and test accuracies.

    Features are standardized with training statistics, and the k fits share
    the features and the standardization. Columns are checked in order.
    """
    X = np.asarray(train_x, dtype=np.float64)
    Xt = np.asarray(test_x, dtype=np.float64)
    for y in train_Y.T:
        # not np.unique, which imports numpy.ma (15 ms)
        if y.size == 0 or np.all(y == y[0]):
            raise DomainError("probe requires at least two classes in the training labels")

    mu = X.mean(axis=0)
    sd = X.std(axis=0)
    sd[sd < 1e-12] = 1.0
    Z = np.hstack([np.ones((X.shape[0], 1)), (X - mu) / sd])
    Zt = np.hstack([np.ones((Xt.shape[0], 1)), (Xt - mu) / sd])
    W = _readout_weights(Z, train_Y)

    def acc(M, labels):
        return np.mean(((M @ W) > 0).astype(float) == labels, axis=0)

    return acc(Z, train_Y), acc(Zt, test_Y)


def _readout_weights(Z: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """The (d, k) minimizers, one per column of the (n, k) labels ``Y``, of the
    mean binary cross-entropy of ``sigmoid(Z @ w)`` plus (1e-4 / 2) ||w[1:]||^2;
    column 0 of the (n, d) design ``Z`` is the unregularized bias.

    The objective is strongly convex, so damped Newton from zero weights
    reaches the one minimizer (Boyd & Vandenberghe, Convex Optimization,
    section 9.5): one d x d solve per iteration, and the step halved until
    the objective falls by a quarter of its predicted decrease. Once the
    Newton decrement g^T H^-1 g is at most 1e-12 the fit takes one last full
    step, which quadratic convergence makes safe and which leaves a gradient
    near rounding, and stops; it also stops after 50 iterations. A smaller
    decrement bound would sit below the objective's rounding, where no
    halved step passes the test.
    """
    n, d = Z.shape
    ridge = np.full(d, 1e-4)
    ridge[0] = 0.0

    def objective(w, y):
        t = Z @ w
        return np.mean(np.logaddexp(0.0, t) - y * t) + 0.5 * (ridge @ (w * w))

    W = np.zeros((d, Y.shape[1]))
    for w, y in zip(W.T, Y.T):
        f = objective(w, y)
        for _ in range(50):
            # exp(-logaddexp(0, -t)) is the sigmoid without an overflow
            p = np.exp(-np.logaddexp(0.0, -(Z @ w)))
            g = Z.T @ (p - y) / n + ridge * w
            H = (Z.T * (p * (1.0 - p))) @ Z / n + np.diag(ridge)
            step = np.linalg.solve(H, g)
            decrement = g @ step
            if decrement <= 1e-12:
                w -= step  # a view: writes W's column
                break
            s = 1.0
            for _ in range(40):
                trial = objective(w - s * step, y)
                if trial <= f - 0.25 * s * decrement:
                    break
                s *= 0.5
            else:
                break  # no step gets past the objective's rounding
            w -= s * step
            f = trial
    return W


# ---------------------------------------------------------------------------
# synthetic planarity task


def planar_cloud(rng, planar: bool) -> np.ndarray:
    """Sample an (n, 3) array of 8 to 20 points: near-coplanar (x, y at scale
    0.5, z at 0.02) when ``planar``, else isotropic at scale 0.5. The probe
    joins them by 3-NN edges per chunk (:func:`_descriptors`)."""
    n = int(rng.integers(8, 21))
    if planar:
        pts = np.column_stack([
            rng.normal(scale=0.5, size=n),
            rng.normal(scale=0.5, size=n),
            rng.normal(scale=0.02, size=n),
        ])
    else:
        pts = rng.normal(scale=0.5, size=(n, 3))
    return pts


def planarity_experiment(seed: int, n_per_class: int = 200,
                         n_layers: int = 2) -> tuple[dict, dict]:
    """Descriptor + probe run for the planar-vs-isotropic task, and its control.

    Descriptors live in the task frame (no per-vertex canonicalization): the
    classes are defined relative to a fixed plane, so the probe measures how
    much second-order orientation structure the diffusion stream preserves.
    Half of each class trains the readout (a random floor(n_per_class / 2)
    clouds of it), the rest is held out. Returns ``(run, control)``: the
    chance-level permutation control reuses the run's clouds, descriptors
    and split, and permutes the labels within the training half and within
    the test half, so that each half keeps both classes. Needs
    ``n_per_class >= 2``.
    """
    if n_per_class < 2:
        raise InvalidInputError(f"the probe needs at least 2 clouds per class, got {n_per_class}")
    rng = np.random.default_rng(seed)
    params = [LayerParams.random(3, rng=rng) for _ in range(n_layers)]
    # every cloud is drawn before the split, in class order; the descriptor
    # routine reads them one chunk at a time and draws nothing itself
    clouds = (planar_cloud(rng, planar) for planar in (False, True) for _ in range(n_per_class))
    X = _descriptors(clouds, params)
    y = np.repeat([0.0, 1.0], n_per_class)

    half = n_per_class // 2
    orders = [c * n_per_class + rng.permutation(n_per_class) for c in (0, 1)]
    train = np.concatenate([order[:half] for order in orders])
    test = np.concatenate([order[half:] for order in orders])
    Y_train = np.column_stack([y[train], rng.permutation(y[train])])
    Y_test = np.column_stack([y[test], rng.permutation(y[test])])
    train_acc, test_acc = _fit_readouts(X[train], Y_train, X[test], Y_test)
    return tuple({"seed": seed, "n_per_class": n_per_class, "layers": n_layers,
                  "shuffled": shuffled, "train_accuracy": float(a), "test_accuracy": float(b)}
                 for shuffled, a, b in zip((False, True), train_acc, test_acc))
