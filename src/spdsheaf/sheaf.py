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

A 0-cochain is a Mapping keyed by vertex id, a 1-cochain a sequence aligned
with the edges, and either may be one (..., k, n, n) array with optional
leading batch axes. :func:`_cochain_stack` validates every input once; an
array in gives an array out, a Mapping or sequence a dict or list.
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
    _from_spectrum,
    _sym_part,
    conj_operator,
    spd_log,
    sym_dim,
    sym_exp,
    vec_to_sym,
)

#: Singular values below NULL_TOL * sigma_max count as zero in rank decisions.
NULL_TOL = 1e-8

# Cochain0: mapping vertex id -> SPD array. Cochain1: sequence aligned with edges.
Cochain0 = Mapping[object, np.ndarray] | np.ndarray
Cochain1 = Sequence[np.ndarray] | np.ndarray


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


# ---------------------------------------------------------------------------
# the cochain boundary


def _vertex_values(cochain: Mapping, vertices: Sequence) -> list:
    """The values of a 0-cochain mapping in vertex order; its keys must be
    exactly the vertex ids."""
    if len(cochain) != len(vertices) or any(v not in cochain for v in vertices):
        raise InvalidInputError(f"cochain keys differ from the vertex ids by "
                                f"{sorted(map(repr, set(cochain) ^ set(vertices)))}")
    return [cochain[v] for v in vertices]


def _cochain_stack(cochain, cells: Sequence | int | None, n: int | None = None) -> np.ndarray:
    """The one validated conversion of a cochain to a (..., k, n, n) float stack.

    A Mapping must be keyed by exactly the vertex ids ``cells``; a sequence
    must hold ``cells`` values (an edge count, or None for any count); an
    ndarray has shape (..., k, n, n) in vertex or edge order. The values
    must be finite and square, and n x n when n is given.
    """
    batched = isinstance(cochain, np.ndarray)
    if not batched:
        if isinstance(cochain, Mapping) == (cells is None or isinstance(cells, int)):
            raise InvalidInputError("a 0-cochain is a mapping keyed by vertex id and a "
                                    "1-cochain a sequence aligned with the edges")
        if isinstance(cochain, Mapping):
            cochain = _vertex_values(cochain, cells)
        cochain = list(cochain) or np.empty((0, n or 0, n or 0))
    try:
        stack = np.asarray(cochain, dtype=np.float64)
    except (ValueError, TypeError) as exc:
        raise InvalidInputError(f"cochain values must share one square shape: {exc}") from None
    k = len(cells) if isinstance(cells, Sequence) else cells
    if (stack.ndim < 3 or (stack.ndim > 3 and not batched) or stack.shape[-1] != stack.shape[-2]
            or k not in (None, stack.shape[-3]) or n not in (None, stack.shape[-1])):
        raise InvalidInputError(f"expected (..., {k}, {n}, {n}) values of one square shape, "
                                f"got {stack.shape}")
    if not np.all(np.isfinite(stack)):
        raise InvalidInputError("cochain has non-finite values")
    return stack


# ---------------------------------------------------------------------------
# coboundary, adjoint, Laplacian


def _coboundary_logs(sheaf: SheafGraph, logs: np.ndarray) -> np.ndarray:
    """Per-edge log-domain coboundary from (..., |V|, n, n) stacked vertex logs."""
    Mt, Mh = sheaf._tail_maps, sheaf._head_maps
    Tt = Mt @ logs[..., sheaf._tails, :, :] @ np.swapaxes(Mt, -1, -2)
    Th = Mh @ logs[..., sheaf._heads, :, :] @ np.swapaxes(Mh, -1, -2)
    return _sym_part(Tt - Th)


def coboundary(sheaf: SheafGraph, sigma: Cochain0) -> list[np.ndarray] | np.ndarray:
    """Coboundary: per oriented edge, exp(log F_tail(s_tail) - log F_head(s_head)).

    The result is the identity cochain exactly when sigma is a global section.
    A Mapping gives a list; an (..., |V|, n, n) array an (..., |E|, n, n) array.
    """
    stack = _cochain_stack(sigma, sheaf.vertices, sheaf.n_stalk)
    out = sym_exp(_coboundary_logs(sheaf, spd_log(stack)))
    return out if isinstance(sigma, np.ndarray) else list(out)


def _adjoint_logs(sheaf: SheafGraph, tau_logs: np.ndarray) -> np.ndarray:
    """Per-vertex log-domain adjoint from (..., |E|, n, n) stacked edge logs:
    one segment sum on a vertex-first view, so whatever the batch axes each
    vertex adds its tail terms, then its negated head terms, in edge order."""
    Mt, Mh = sheaf._tail_maps, sheaf._head_maps
    pulled_t = np.swapaxes(Mt, -1, -2) @ tau_logs @ Mt
    pulled_h = np.swapaxes(Mh, -1, -2) @ tau_logs @ Mh
    acc = np.zeros(tau_logs.shape[:-3] + (sheaf.n_vertices,) + tau_logs.shape[-2:])
    by_vertex = np.moveaxis(acc, -3, 0)
    np.add.at(by_vertex, sheaf._tails, np.moveaxis(pulled_t, -3, 0))
    np.add.at(by_vertex, sheaf._heads, -np.moveaxis(pulled_h, -3, 0))
    return _sym_part(acc)


def adjoint(sheaf: SheafGraph, tau: Cochain1) -> dict | np.ndarray:
    """Adjoint of the coboundary: exp of the signed pulled-back edge logs.

    Satisfies the Green identity against :func:`coboundary` under
    :func:`cochain_pairing`. Vertices with no incident edges receive the
    identity (empty sum). A sequence gives a dict keyed by vertex; an
    (..., |E|, n, n) array an (..., |V|, n, n) array.
    """
    stack = _cochain_stack(tau, sheaf.n_edges, sheaf.n_stalk)
    out = sym_exp(_adjoint_logs(sheaf, spd_log(stack)))
    return out if isinstance(tau, np.ndarray) else dict(zip(sheaf.vertices, out))


def laplacian(sheaf: SheafGraph, sigma: Cochain0) -> dict | np.ndarray:
    """Sheaf Laplacian, implemented as adjoint(coboundary(sigma))."""
    return adjoint(sheaf, coboundary(sheaf, sigma))


def cochain_pairing(a, b) -> float | np.ndarray:
    """Sum of per-cell log-domain Frobenius pairings of two cochains.

    Both are Mappings keyed by the same vertex ids, or sequences or arrays
    of one shape (..., k, n, n); arrays with leading batch axes give an
    array of the batch shape, all else a float.
    """
    if isinstance(a, Mapping) != isinstance(b, Mapping):
        raise InvalidInputError("cannot pair a 0-cochain with a 1-cochain")
    A = _cochain_stack(a, list(a) if isinstance(a, Mapping) else None)
    B = _cochain_stack(b, list(a) if isinstance(a, Mapping) else A.shape[-3], A.shape[-1])
    if A.shape != B.shape:
        raise InvalidInputError(f"cochains of shapes {A.shape} and {B.shape} do not pair")
    total = np.sum(spd_log(A) * spd_log(B), axis=(-3, -2, -1))
    return float(total) if total.ndim == 0 else total


# ---------------------------------------------------------------------------
# the dense log-domain operator


def coboundary_matrix(sheaf: SheafGraph) -> np.ndarray:
    """Dense matrix B with ``vec(log coboundary(sigma)) = B vec(log sigma)``.

    Acts on the sqrt(2)-scaled upper-triangular vectorization, so Euclidean
    inner products of vectors equal the cochain pairings. Shape
    (|E| m, |V| m) with m = n(n+1)/2, blocks +conj_operator(M_tail) at each
    edge's tail and -conj_operator(M_head) at its head.
    """
    m = sym_dim(sheaf.n_stalk)
    B = np.zeros((sheaf.n_edges, m, sheaf.n_vertices, m))
    rows = np.arange(sheaf.n_edges)
    B[rows, :, sheaf._tails, :] += conj_operator(sheaf._tail_maps)
    B[rows, :, sheaf._heads, :] -= conj_operator(sheaf._head_maps)
    return B.reshape(sheaf.n_edges * m, sheaf.n_vertices * m)


def cochain0_from_vec(sheaf: SheafGraph, vec) -> dict:
    """Exponentiate a stacked log-domain vector back into a 0-cochain."""
    n, m = sheaf.n_stalk, sym_dim(sheaf.n_stalk)
    vec = np.asarray(vec, dtype=np.float64).reshape(sheaf.n_vertices, m)
    return dict(zip(sheaf.vertices, sym_exp(vec_to_sym(vec, n))))


def nullspace(A: np.ndarray, tol: float = NULL_TOL) -> np.ndarray:
    """Orthonormal nullspace basis (columns) via SVD with a relative cutoff.

    The cutoff is ``tol * max(sigma_max, 1)``. The floor at 1 matters when
    A is zero up to rounding, as for the action-minus-identity operators of
    identity holonomies: relative to a sigma_max near 1e-16, rounding noise
    would count as rank. Inside the package only :func:`_fixed_space` calls
    it, on stacked orthogonal-minus-identity operators, which have unit
    scale: every block has its singular values in [0, 2].

    A tall A (rows >= cols) gets the thin SVD, which computes no U columns
    beyond its rank and gives the same ``Vh``; a wide A needs the full ``Vh``
    for its nullspace rows.
    """
    if A.shape[0] == 0:
        return np.eye(A.shape[1])
    _, s, Vh = np.linalg.svd(A, full_matrices=A.shape[0] < A.shape[1])
    rank = int(np.sum(s > tol * max(s[0], 1.0))) if s.size else 0
    return Vh[rank:].T.copy()


def _fixed_space(ops: np.ndarray, tol: float) -> np.ndarray:
    """Orthonormal basis of the common fixed space of a (k, m, m) stack of
    orthogonal operators: the nullspace of the stacked ``ops - I``."""
    m = ops.shape[-1]
    return nullspace((ops - np.eye(m)).reshape(-1, m), tol)


def _sections_from_holonomy(sheaf: _OrthGraph, tol: float, act) -> tuple[int, list, np.ndarray]:
    """Component count, per-component fixed dimensions and the kernel basis.

    ``act`` maps (..., n, n) orthogonal stacks to their action on the stalk:
    :func:`~spdsheaf.spd.conj_operator` on the log-domain stalk Sym_n, the
    identity on a vector stalk R^n. On a component C a section is fixed by
    its root value S: every vertex v of C carries ``act(W_v) S`` for its tree
    transport W_v, and S must be fixed by every cycle holonomy of C. For an
    orthonormal basis F of that fixed space (:func:`_fixed_space`), the basis
    columns are ``act(W_v) F / sqrt(|C|)`` stacked over v in C and zero
    elsewhere. They are orthonormal with no QR: an orthogonal action is an
    isometry, so each of the |C| vertex blocks of two columns of C pairs to
    ``<F_i, F_j> / |C|``, and components have disjoint supports. ``tol`` is
    the cutoff of the holonomy nullspaces; no operator on all |V| m
    coordinates is built.
    """
    if not 0 < tol < 1:  # also rejects NaN
        raise InvalidInputError(f"tolerance must lie in (0, 1), got {tol}")
    comps, W, reps = _spanning_forest(sheaf)
    blocks = act(W)
    m = blocks.shape[-1]
    fixed = [_fixed_space(act(np.stack(r)), tol) if r else np.eye(m) for r in reps]
    dims = [F.shape[1] for F in fixed]
    basis = np.zeros((sheaf.n_vertices, m, sum(dims)))
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
    return _sections_from_holonomy(sheaf, tol, conj_operator)[2]


def sheaf_index(sheaf: SheafGraph) -> int:
    """dim ker(coboundary) - dim ker(adjoint) = (|V| - |E|) * n(n+1)/2.

    By rank-nullity both kernels lose the same rank r from |V| m and |E| m,
    so the index needs no factorization and no tolerance.
    """
    return (sheaf.n_vertices - sheaf.n_edges) * sym_dim(sheaf.n_stalk)


# ---------------------------------------------------------------------------
# holonomy


def _spanning_forest(sheaf: _OrthGraph) -> tuple[list[list[int]], np.ndarray, list[list]]:
    """Components, tree transports and cycle holonomies in one O(|V| + |E|) pass.

    Each component is searched breadth-first from its first vertex and lists
    its vertex positions in increasing order. ``W[i]`` carries the root stalk
    to vertex position i along the tree; ``W`` is one (|V|, n, n) stack.
    ``reps[c]`` holds the representatives of :func:`holonomy_reps` for
    component c, one per non-tree edge, in edge order.
    """
    # T[k] = M_head^T M_tail carries edge k's tail-stalk logs to its head stalk
    T = np.swapaxes(sheaf._head_maps, -1, -2) @ sheaf._tail_maps
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
                W[w] = (T[k].T if reverse else T[k]) @ W[u]
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
            reps[comp_of[t]].append(W[h].T @ T[k] @ W[t])
    return comps, W, reps


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


def holonomy_fixed_space(reps: Sequence[np.ndarray], n: int | None = None) -> np.ndarray:
    """Orthonormal basis of {A in Sym_n : rho A rho^T = A for all rho}.

    Computed as the joint nullspace, at the cutoff NULL_TOL, of the stacked
    conjugation-minus-identity operators on symmetric-matrix coordinates.
    With no representatives the whole of Sym_n is returned (n must then be
    given).
    """
    reps = list(reps)
    if not reps:
        if n is None:
            raise InvalidInputError("n is required when the representation list is empty")
        return np.eye(sym_dim(n))
    return _fixed_space(conj_operator(np.stack(reps)), NULL_TOL)


def section_space_summary(sheaf: SheafGraph, tol: float = NULL_TOL) -> dict:
    """Every number of a sections report, from one spanning-forest pass.

    ``kernel_dim`` is the total of the per-component holonomy fixed
    dimensions by construction. Besides the counts: ``basis`` as from
    :func:`global_sections` and ``edge_residuals``, the (kernel_dim, |E|)
    Frobenius norms of the log-domain coboundary of each basis column.
    """
    n_comps, fixed_dims, basis = _sections_from_holonomy(sheaf, tol, conj_operator)
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
    delta = _adjoint_logs(sheaf, _coboundary_logs(sheaf, logs))
    if normalize:
        radii = np.max(np.abs(np.linalg.eigvalsh(delta)), axis=-1)
        delta /= np.maximum(1.0, radii)[..., None, None]
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
    logs = spd_log(_cochain_stack(sigma, sheaf.vertices, sheaf.n_stalk))
    delta = _log_update(sheaf, logs, normalize)
    new_logs = logs + delta if residual else delta
    # the clamp bounds the otherwise unbounded residual drift of deep runs
    # without touching states in the normal operating box
    w, V = np.linalg.eigh(new_logs)
    out = _from_spectrum(np.exp(np.clip(w, np.log(EIG_FLOOR), -np.log(EIG_FLOOR))), V)
    return out if isinstance(sigma, np.ndarray) else dict(zip(sheaf.vertices, out))
