"""SPD-valued cellular sheaves on graphs.

A sheaf attaches the SPD cone to every vertex and edge of a (multi)graph and
an orthogonal congruence ``P -> M P M^T`` to every incidence. The coboundary
measures per-edge disagreement in the log domain, its adjoint (with respect
to the log-domain Frobenius pairing) aggregates edge values back to vertices,
and the Laplacian is literally the composition of the two.

Sign convention: the tail of an oriented edge carries ``+`` in both the
coboundary and the adjoint (incidence index 0 for the tail, 1 for the head).
This is the unique choice under which the stated adjoint formula satisfies
the Green identity ``<d sigma, tau> = <sigma, d^T tau>`` verbatim.
"""

from __future__ import annotations

import copy
from collections import deque
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import InvalidInputError
from .spd import (
    EIG_FLOOR,
    ORTH_TOL,
    _expm_stack,
    _logm_stack,
    _sym_part,
    conj_operator,
    sym_dim,
    sym_exp,
    sym_to_vec,
    vec_to_sym,
)

#: Singular values below NULL_TOL * sigma_max count as zero in rank decisions.
NULL_TOL = 1e-8

# Cochain0: mapping vertex id -> SPD array. Cochain1: sequence aligned with edges.
Cochain0 = Mapping[object, np.ndarray]
Cochain1 = Sequence[np.ndarray]


class _OrthGraph:
    """Graph + stalk dimension + per-edge orthogonal restriction maps.

    ``edges[k] = (tail, head)`` is an oriented edge; ``maps[k]`` holds the
    pair ``(M_tail, M_head)`` of orthogonal matrices mapping the endpoint
    stalks into the edge stalk. Parallel edges are allowed, self-loops are
    not. Instances are immutable after construction.

    The maps are stored once, as read-only (E, n, n) tail and head stacks;
    ``maps`` holds views into them. The tail and head vertex positions of
    every edge are stored as index arrays, so operators never rebuild them.
    """

    __slots__ = ("n_stalk", "vertices", "edges", "_vindex",
                 "_tails", "_heads", "_tail_maps", "_head_maps")

    def __init__(self, n_stalk, vertices, edges, maps):
        self.n_stalk = int(n_stalk)
        self.vertices = tuple(vertices)
        self.edges = tuple((t, h) for t, h in edges)
        self._vindex = {v: i for i, v in enumerate(self.vertices)}
        n = self.n_stalk
        try:
            stack = np.array(list(maps), dtype=np.float64)
        except (ValueError, TypeError) as exc:
            raise InvalidInputError(
                f"restriction maps must be pairs of equal shape: {exc}") from None
        if stack.size == 0 and not self.edges and n > 0:
            stack = np.zeros((0, 2, n, n))
        self._validate(stack)
        self._tail_maps = np.ascontiguousarray(stack[:, 0])
        self._head_maps = np.ascontiguousarray(stack[:, 1])
        self._tails = np.array([self._vindex[t] for t, _ in self.edges], dtype=int)
        self._heads = np.array([self._vindex[h] for _, h in self.edges], dtype=int)
        for arr in (self._tail_maps, self._head_maps, self._tails, self._heads):
            arr.setflags(write=False)

    def _with_maps(self, tail_maps, head_maps):
        """This topology with new, unvalidated (E, n, n) map stacks; the vertex
        index and endpoint arrays are shared, not rebuilt."""
        graph = copy.copy(self)
        graph._tail_maps, graph._head_maps = (
            np.array(M, dtype=np.float64, order="C") for M in (tail_maps, head_maps))
        for arr in (graph._tail_maps, graph._head_maps):
            arr.setflags(write=False)
        graph.n_stalk = graph._tail_maps.shape[-1]
        return graph

    def __repr__(self):
        return (f"{type(self).__name__}(n_stalk={self.n_stalk}, |V|={self.n_vertices}, "
                f"|E|={self.n_edges})")

    def _validate(self, stack: np.ndarray):
        n = self.n_stalk
        if n < 1:
            raise InvalidInputError("stalk dimension must be positive")
        if len(self._vindex) != len(self.vertices):
            raise InvalidInputError("duplicate vertex ids")
        if stack.shape[:2] != (len(self.edges), 2):
            raise InvalidInputError("one (map_tail, map_head) pair required per edge")
        for k, (t, h) in enumerate(self.edges):
            if t == h:
                raise InvalidInputError(f"self-loop at vertex {t!r}")
            if t not in self._vindex or h not in self._vindex:
                raise InvalidInputError(f"edge {k} references unknown vertex")
        if stack.shape[2:] != (n, n):
            raise InvalidInputError(f"map shape {stack.shape[2:]} != ({n}, {n})")
        finite = np.all(np.isfinite(stack), axis=(1, 2, 3))
        if not np.all(finite):
            raise InvalidInputError(
                f"edge {np.argmin(finite)}: restriction map has non-finite entries")
        err = np.linalg.norm(np.swapaxes(stack, -1, -2) @ stack - np.eye(n), axis=(-2, -1))
        bad = np.flatnonzero(np.any(err > ORTH_TOL, axis=1))
        if bad.size:
            raise InvalidInputError(f"edge {bad[0]}: restriction map is not orthogonal")

    @classmethod
    def identity_maps(cls, n_stalk: int, vertices: Iterable, edges: Iterable):
        """Sheaf whose restriction maps are all the identity."""
        edges = tuple(edges)
        return cls(n_stalk, vertices, edges,
                   np.broadcast_to(np.eye(n_stalk), (len(edges), 2, n_stalk, n_stalk)))

    @property
    def maps(self) -> tuple:
        """``(M_tail, M_head)`` per edge: read-only views into the map stacks."""
        return tuple(zip(self._tail_maps, self._head_maps))

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def vertex_index(self, v) -> int:
        return self._vindex[v]


class SheafGraph(_OrthGraph):
    """SPD-stalk sheaf: the restriction maps act by congruence ``P -> M P M^T``."""

    __slots__ = ()

    def incidence_index(self, v, edge_idx: int) -> int:
        """0 if v is the tail of the edge, 1 if the head."""
        t, h = self.edges[edge_idx]
        if v == t:
            return 0
        if v == h:
            return 1
        raise InvalidInputError(f"vertex {v!r} is not incident to edge {edge_idx}")


# ---------------------------------------------------------------------------
# cochain helpers


def _stack_cochain0(vertices: Sequence, n: int, sigma: Cochain0) -> np.ndarray:
    """Stack the values of `sigma` at `vertices`, in that order, as (|V|, n, n)."""
    out = np.empty((len(vertices), n, n))
    for i, v in enumerate(vertices):
        if v not in sigma:
            raise InvalidInputError(f"cochain is missing vertex {v!r}")
        X = np.asarray(sigma[v], dtype=np.float64)
        if X.shape != (n, n):
            raise InvalidInputError(f"vertex {v!r}: value shape {X.shape} != ({n}, {n})")
        out[i] = X
    return out


def _check_cochain1(sheaf: SheafGraph, tau: Cochain1) -> np.ndarray:
    n = sheaf.n_stalk
    tau = list(tau)
    if len(tau) != sheaf.n_edges:
        raise InvalidInputError(f"cochain has {len(tau)} edge values, expected {sheaf.n_edges}")
    out = np.empty((sheaf.n_edges, n, n))
    for k, Y in enumerate(tau):
        Y = np.asarray(Y, dtype=np.float64)
        if Y.shape != (n, n):
            raise InvalidInputError(f"edge {k}: value shape {Y.shape} != ({n}, {n})")
        out[k] = Y
    return out


def identity_cochain0(sheaf: SheafGraph) -> dict:
    I = np.eye(sheaf.n_stalk)
    return {v: I.copy() for v in sheaf.vertices}


# ---------------------------------------------------------------------------
# coboundary, adjoint, Laplacian


def _coboundary_logs(sheaf: SheafGraph, logs: np.ndarray) -> np.ndarray:
    """Per-edge log-domain coboundary from (..., |V|, n, n) stacked vertex logs."""
    Mt, Mh = sheaf._tail_maps, sheaf._head_maps
    Tt = Mt @ logs[..., sheaf._tails, :, :] @ np.swapaxes(Mt, -1, -2)
    Th = Mh @ logs[..., sheaf._heads, :, :] @ np.swapaxes(Mh, -1, -2)
    return _sym_part(Tt - Th)


def coboundary(sheaf: SheafGraph, sigma: Cochain0) -> list[np.ndarray]:
    """Coboundary: per oriented edge, exp(log F_tail(s_tail) - log F_head(s_head)).

    The result is the identity cochain exactly when sigma is a global section.
    """
    stack = _stack_cochain0(sheaf.vertices, sheaf.n_stalk, sigma)
    if sheaf.n_edges == 0:
        return []
    T = _coboundary_logs(sheaf, _logm_stack(stack))
    return list(_expm_stack(T))


def _adjoint_logs(sheaf: SheafGraph, tau_logs: np.ndarray) -> np.ndarray:
    """Per-vertex log-domain adjoint from stacked edge logs."""
    n = sheaf.n_stalk
    acc = np.zeros((sheaf.n_vertices, n, n))
    Mt, Mh = sheaf._tail_maps, sheaf._head_maps
    pulled_t = np.swapaxes(Mt, -1, -2) @ tau_logs @ Mt
    pulled_h = np.swapaxes(Mh, -1, -2) @ tau_logs @ Mh
    np.add.at(acc, sheaf._tails, pulled_t)
    np.add.at(acc, sheaf._heads, -pulled_h)
    return _sym_part(acc)


def adjoint(sheaf: SheafGraph, tau: Cochain1) -> dict:
    """Adjoint of the coboundary: exp of the signed pulled-back edge logs.

    Satisfies the Green identity against :func:`coboundary` under
    :func:`cochain_pairing`. Vertices with no incident edges receive the
    identity (empty sum).
    """
    stack = _check_cochain1(sheaf, tau)
    out = _expm_stack(_adjoint_logs(sheaf, _logm_stack(stack)))
    return {v: out[i] for i, v in enumerate(sheaf.vertices)}


def laplacian(sheaf: SheafGraph, sigma: Cochain0) -> dict:
    """Sheaf Laplacian, implemented as adjoint(coboundary(sigma))."""
    return adjoint(sheaf, coboundary(sheaf, sigma))


def _laplacian_logs(sheaf: SheafGraph, logs: np.ndarray) -> np.ndarray:
    return _adjoint_logs(sheaf, _coboundary_logs(sheaf, logs))


def cochain_pairing(a, b) -> float:
    """Sum of per-cell log-domain Frobenius pairings of two cochains."""
    if isinstance(a, Mapping) != isinstance(b, Mapping):
        raise InvalidInputError("cannot pair a 0-cochain with a 1-cochain")
    if isinstance(a, Mapping):
        if set(a) != set(b):
            raise InvalidInputError("cochains are defined on different vertex sets")
        a, b = list(a.values()), [b[k] for k in a]
    else:
        a, b = list(a), list(b)
        if len(a) != len(b):
            raise InvalidInputError("cochains are defined on different edge sets")
    if not a:
        return 0.0
    values = [np.asarray(x, dtype=float) for x in a + b]
    shapes = {X.shape for X in values}
    shape = values[0].shape
    if len(shapes) > 1 or len(shape) != 2 or shape[0] != shape[1]:
        raise InvalidInputError(
            f"cochain values must share one square shape, got {sorted(shapes)}")
    logs = _logm_stack(np.stack(values))
    return float(np.sum(logs[:len(a)] * logs[len(a):]))


# ---------------------------------------------------------------------------
# the dense log-domain operator


def coboundary_matrix(sheaf: SheafGraph) -> np.ndarray:
    """Dense matrix B with ``vec(log coboundary(sigma)) = B vec(log sigma)``.

    Acts on the sqrt(2)-scaled upper-triangular vectorization, so Euclidean
    inner products of vectors equal the cochain pairings. Shape
    (|E| m, |V| m) with m = n(n+1)/2.
    """
    return _incidence_matrix(sheaf, conj_operator(sheaf._tail_maps),
                             conj_operator(sheaf._head_maps))


def _incidence_matrix(sheaf: _OrthGraph, blocks_t: np.ndarray,
                      blocks_h: np.ndarray) -> np.ndarray:
    """Dense (|E| m, |V| m) matrix with +blocks_t[k] at (edge k, its tail) and
    -blocks_h[k] at (edge k, its head), from (E, m, m) block stacks."""
    m = blocks_t.shape[-1]
    B = np.zeros((sheaf.n_edges, m, sheaf.n_vertices, m))
    rows = np.arange(sheaf.n_edges)
    B[rows, :, sheaf._tails, :] += blocks_t
    B[rows, :, sheaf._heads, :] -= blocks_h
    return B.reshape(sheaf.n_edges * m, sheaf.n_vertices * m)


def log_cochain0_vec(sheaf: SheafGraph, sigma: Cochain0) -> np.ndarray:
    """Concatenated vec(log sigma_v) in vertex order."""
    stack = _stack_cochain0(sheaf.vertices, sheaf.n_stalk, sigma)
    return sym_to_vec(_logm_stack(stack)).ravel()


def log_cochain1_vec(sheaf: SheafGraph, tau: Cochain1) -> np.ndarray:
    stack = _check_cochain1(sheaf, tau)
    return sym_to_vec(_logm_stack(stack)).ravel()


def cochain0_from_vec(sheaf: SheafGraph, vec) -> dict:
    """Exponentiate a stacked log-domain vector back into a 0-cochain."""
    n, m = sheaf.n_stalk, sym_dim(sheaf.n_stalk)
    vec = np.asarray(vec, dtype=np.float64).reshape(sheaf.n_vertices, m)
    return {v: sym_exp(vec_to_sym(vec[i], n)) for i, v in enumerate(sheaf.vertices)}


def nullspace(A: np.ndarray, tol: float = NULL_TOL) -> np.ndarray:
    """Orthonormal nullspace basis (columns) via SVD with a relative cutoff.

    The cutoff is ``tol * max(sigma_max, 1)``. The floor at 1 matters when
    A is zero up to rounding, as for the conjugation-minus-identity
    operators of identity holonomies: relative to a sigma_max near 1e-16,
    rounding noise would count as rank. Every operator passed here has unit
    scale (orthogonal conjugations) or sigma_max >= sqrt(2) (a Euclidean
    coboundary with at least one edge), so the floor changes no other cutoff.

    A tall A (rows >= cols) gets the thin SVD, which computes no U columns
    beyond its rank and gives the same ``Vh``; a wide A needs the full ``Vh``
    for its nullspace rows.
    """
    if A.shape[0] == 0:
        return np.eye(A.shape[1])
    _, s, Vh = np.linalg.svd(A, full_matrices=A.shape[0] < A.shape[1])
    rank = int(np.sum(s > tol * max(s[0], 1.0))) if s.size else 0
    return Vh[rank:].T.copy()


def _sections_from_holonomy(sheaf: SheafGraph, tol: float) -> tuple[int, list, np.ndarray]:
    """Component count, per-component fixed dimensions and the kernel basis.

    On a component C a log-domain section is fixed by its value S at the
    root: every vertex v of C carries the tree transport ``W_v S W_v^T``, and
    S must be fixed by every cycle holonomy of C. For an orthonormal basis F
    of that fixed space (:func:`holonomy_fixed_space`), the basis columns are
    ``conj_operator(W_v) F / sqrt(|C|)`` stacked over v in C and zero
    elsewhere. They are orthonormal with no QR: conjugation by an orthogonal
    W_v is an isometry of the scaled coordinates, so each of the |C| vertex
    blocks of two columns of C pairs to ``<F_i, F_j> / |C|``, and columns of
    different components have disjoint supports. ``tol`` is the cutoff of
    the holonomy nullspaces; no operator on all |V| m coordinates is built.
    """
    if not 0 < tol < 1:  # also rejects NaN
        raise InvalidInputError(f"tolerance must lie in (0, 1), got {tol}")
    comps, W, reps = _spanning_forest(sheaf)
    n, m = sheaf.n_stalk, sym_dim(sheaf.n_stalk)
    fixed = [holonomy_fixed_space(r, n, tol) for r in reps]
    dims = [F.shape[1] for F in fixed]
    basis = np.zeros((sheaf.n_vertices, m, sum(dims)))
    blocks = conj_operator(W)
    col = 0
    for pos, F in zip(comps, fixed):
        basis[pos, :, col:col + F.shape[1]] = blocks[pos] @ F / np.sqrt(len(pos))
        col += F.shape[1]
    return len(comps), dims, basis.reshape(sheaf.n_vertices * m, col)


def global_sections(sheaf: SheafGraph, tol: float = NULL_TOL) -> np.ndarray:
    """Orthonormal basis (columns) of the log-domain kernel of the coboundary.

    Built per component from the holonomy fixed space and the tree
    transports (see :func:`_sections_from_holonomy`), ordered by component.
    Exponentiating any combination of basis columns via
    :func:`cochain0_from_vec` yields a 0-cochain whose coboundary is the
    identity on every edge.
    """
    return _sections_from_holonomy(sheaf, tol)[2]


def sheaf_index(sheaf: SheafGraph) -> int:
    """dim ker(coboundary) - dim ker(adjoint) = (|V| - |E|) * n(n+1)/2.

    By rank-nullity both kernels lose the same rank r from |V| m and |E| m,
    so the index needs no factorization and no tolerance.
    """
    return (sheaf.n_vertices - sheaf.n_edges) * sym_dim(sheaf.n_stalk)


# ---------------------------------------------------------------------------
# holonomy


def edge_transport(sheaf: SheafGraph, edge_idx: int) -> np.ndarray:
    """Transport tail-stalk logs to head-stalk logs: ``M_head^T M_tail``."""
    return sheaf._head_maps[edge_idx].T @ sheaf._tail_maps[edge_idx]


def _spanning_forest(sheaf: _OrthGraph) -> tuple[list[list[int]], np.ndarray, list[list]]:
    """Components, tree transports and cycle holonomies in one O(|V| + |E|) pass.

    Each component is searched breadth-first from its first vertex and lists
    its vertex positions in increasing order. ``W[i]`` carries the root stalk
    to vertex position i along the tree; ``W`` is one (|V|, n, n) stack.
    ``reps[c]`` holds the representatives of :func:`holonomy_reps` for
    component c, one per non-tree edge, in edge order.
    """
    n_v = sheaf.n_vertices
    ends = list(zip(sheaf._tails.tolist(), sheaf._heads.tolist()))
    incident: list[list] = [[] for _ in range(n_v)]
    for k, (t, h) in enumerate(ends):
        incident[t].append((k, h, False))
        incident[h].append((k, t, True))
    comp_of = [-1] * n_v
    W = np.empty((n_v, sheaf.n_stalk, sheaf.n_stalk))
    tree = [False] * sheaf.n_edges
    n_comps = 0
    for root in range(n_v):
        if comp_of[root] >= 0:
            continue
        comp_of[root], W[root] = n_comps, np.eye(sheaf.n_stalk)
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for k, w, reverse in incident[u]:
                if comp_of[w] >= 0:
                    continue
                T = edge_transport(sheaf, k)
                W[w] = (T.T if reverse else T) @ W[u]
                comp_of[w] = n_comps
                tree[k] = True
                queue.append(w)
        n_comps += 1
    comps: list[list[int]] = [[] for _ in range(n_comps)]
    for i, c in enumerate(comp_of):
        comps[c].append(i)
    reps: list[list] = [[] for _ in range(n_comps)]
    for k, (t, h) in enumerate(ends):
        if not tree[k]:
            reps[comp_of[t]].append(W[h].T @ edge_transport(sheaf, k) @ W[t])
    return comps, W, reps


def connected_components(sheaf: SheafGraph) -> list[list]:
    """Vertex lists of the connected components, each in vertex order."""
    return [[sheaf.vertices[i] for i in comp] for comp in _spanning_forest(sheaf)[0]]


def holonomy_reps(sheaf: SheafGraph) -> list[np.ndarray]:
    """Based holonomy of each fundamental cycle of a connected sheaf.

    For a chord e = (u, v) with tree transports W, the representative is
    ``W_v^T T_e W_u``: the orthogonal matrix a root-stalk log accumulates
    around the corresponding cycle. Trees return an empty list.
    """
    comps, _, reps = _spanning_forest(sheaf)
    if len(comps) != 1:
        raise InvalidInputError("holonomy_reps requires a connected graph; split per component")
    return reps[0]


def holonomy_fixed_space(reps: Sequence[np.ndarray], n: int | None = None,
                         tol: float = NULL_TOL) -> np.ndarray:
    """Orthonormal basis of {A in Sym_n : rho A rho^T = A for all rho}.

    Computed as the joint nullspace of the stacked conjugation-minus-identity
    operators on symmetric-matrix coordinates. With no representatives the
    whole of Sym_n is returned (n must then be given).
    """
    reps = list(reps)
    if not reps:
        if n is None:
            raise InvalidInputError("n is required when the representation list is empty")
        return np.eye(sym_dim(n))
    ops = conj_operator(np.stack(reps))
    m = ops.shape[-1]
    return nullspace((ops - np.eye(m)).reshape(-1, m), tol)


def section_space_summary(sheaf: SheafGraph, tol: float = NULL_TOL) -> dict:
    """Every number of a sections report, from one spanning-forest pass.

    ``kernel_dim`` is the total of the per-component holonomy fixed
    dimensions by construction. Besides the counts: ``basis`` as from
    :func:`global_sections` and ``edge_residuals``, the (kernel_dim, |E|)
    Frobenius norms of the log-domain coboundary of each basis column.
    """
    n_comps, fixed_dims, basis = _sections_from_holonomy(sheaf, tol)
    n, m = sheaf.n_stalk, sym_dim(sheaf.n_stalk)
    logs = vec_to_sym(basis.T.reshape(basis.shape[1], sheaf.n_vertices, m), n)
    residuals = np.linalg.norm(_coboundary_logs(sheaf, logs), axis=(-2, -1))
    return {
        "kernel_dim": int(basis.shape[1]),
        "index": sheaf_index(sheaf),
        "components": n_comps,
        "holonomy_fixed_dims": fixed_dims,
        "holonomy_fixed_total": int(sum(fixed_dims)),
        "basis": basis,
        "edge_residuals": residuals,
    }


# ---------------------------------------------------------------------------
# diffusion


def _log_update(sheaf: SheafGraph, logs: np.ndarray, normalize: bool = True) -> np.ndarray:
    """Per-vertex log-Laplacian update of stacked logs.

    With `normalize` each vertex's update is divided by max(1, its spectral
    radius), which caps the radius at 1 and leaves small updates untouched.
    """
    delta = _laplacian_logs(sheaf, logs)
    if normalize:
        radii = np.max(np.abs(np.linalg.eigvalsh(delta)), axis=-1)
        delta /= np.maximum(1.0, radii)[:, None, None]
    return delta


def diffusion_step(sheaf: SheafGraph, sigma: Cochain0, normalize: bool = True,
                   residual: bool = True) -> dict:
    """One Lie-group diffusion update ``X_v <- exp(log X_v + D_v)``.

    ``D_v`` is the log-domain Laplacian output at v, optionally rescaled so
    its spectral radius is at most 1 (division by max(1, radius), which
    leaves already-small updates untouched). With ``residual=False`` the
    update drops the ``log X_v`` term and returns ``exp(D_v)`` alone. Output
    eigenvalues are clamped into [EIG_FLOOR, 1/EIG_FLOOR] = [1e-4, 1e4], which
    keeps states log-representable across deep runs.
    """
    logs = _logm_stack(_stack_cochain0(sheaf.vertices, sheaf.n_stalk, sigma))
    delta = _log_update(sheaf, logs, normalize)
    new_logs = logs + delta if residual else delta
    # the clamp bounds the otherwise unbounded residual drift of deep runs
    # without touching states in the normal operating box
    w, V = np.linalg.eigh(new_logs)
    w = np.clip(w, np.log(EIG_FLOOR), -np.log(EIG_FLOOR))
    out = _sym_part((V * np.exp(w)[..., None, :]) @ np.swapaxes(V, -1, -2))
    return {v: out[i] for i, v in enumerate(sheaf.vertices)}
