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

from collections import deque
from itertools import chain, repeat
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import InvalidInputError
from .spd import (
    EIG_FLOOR,
    ORTH_TOL,
    _from_spectrum,
    _sym_part,
    as_sym,
    conj_operator,
    spd_log,
    sym_dim,
    sym_exp,
    vec_to_sym,
)

#: Singular values below NULL_TOL * sigma_max count as zero in rank decisions.
NULL_TOL = 1e-8

# Cochain0: mapping vertex id -> SPD (or, for diffusion_step, log) array.
# Cochain1: sequence aligned with edges.
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
    The constructor and :meth:`identity_maps` check their input; graphs made
    from valid parts go through :meth:`_from_arrays`, in this module only.
    """

    __slots__ = ("n_stalk", "vertices", "edges", "_tails", "_heads", "_tail_maps", "_head_maps")

    def __init__(self, n_stalk, vertices, edges, maps):
        self._fill(*_checked_parts(n_stalk, vertices, edges, maps))

    @classmethod
    def _from_arrays(cls, *parts):
        """The one trusted constructor: a graph from valid parts (see :meth:`_fill`)."""
        return cls.__new__(cls)._fill(*parts)

    def _with_maps(self, tail_maps, head_maps):
        """This topology with new (E, n, n) map stacks, unchecked; the rest is shared."""
        return self._from_arrays(self.vertices, self.edges, self._tails, self._heads,
                                 tail_maps, head_maps)

    @classmethod
    def _recast(cls, graph: _OrthGraph):
        """`graph` as a `cls`, unchecked: its topology shared, its maps copied."""
        return cls._from_arrays(graph.vertices, graph.edges, graph._tails, graph._heads,
                                graph._tail_maps, graph._head_maps)

    @classmethod
    def _identity_union(cls, n_stalk: int, n_vertices: int, tails, heads):
        """Identity-map graph on the vertices 0 .. n_vertices - 1 with the edges
        ``(tails[k], heads[k])``, unchecked: the probe's disjoint union of the
        clouds it drew, whose k-NN builder yields distinct in-range ends."""
        eye = np.broadcast_to(np.eye(n_stalk), (len(tails), n_stalk, n_stalk))
        return cls._from_arrays(tuple(range(n_vertices)),
                                tuple(zip(tails.tolist(), heads.tolist())), tails, heads, eye, eye)

    def _fill(self, vertices, edges, tails, heads, tail_maps, head_maps):
        """Set every slot, unchecked: vertex and edge tuples, the endpoint
        position arrays and the map stacks, stored as read-only copies."""
        self.vertices, self.edges = vertices, edges
        self._tails, self._heads = tails, heads
        self._tail_maps, self._head_maps = (
            np.array(M, dtype=np.float64, order="C") for M in (tail_maps, head_maps))
        for arr in (self._tails, self._heads, self._tail_maps, self._head_maps):
            arr.setflags(write=False)
        self.n_stalk = self._tail_maps.shape[-1]
        return self

    def __repr__(self):
        return (f"{type(self).__name__}(n_stalk={self.n_stalk}, |V|={self.n_vertices}, "
                f"|E|={self.n_edges})")

    @classmethod
    def identity_maps(cls, n_stalk: int, vertices: Iterable, edges: Iterable):
        """Sheaf whose restriction maps are all the identity; only its topology is checked."""
        return cls._from_arrays(*_checked_parts(n_stalk, vertices, edges))

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


class SheafGraph(_OrthGraph):
    """SPD-stalk sheaf: the restriction maps act by congruence ``P -> M P M^T``."""

    __slots__ = ()


def _checked_parts(n_stalk, vertices, edges, maps=None) -> tuple:
    """The public constructors' one validation, in order: n small enough for its
    arrays to have a byte count, maps of one shape, n >= 1, distinct ids, one
    map pair per edge, no self-loop or unknown id (one lookup of all ends, -1 if
    unknown; the first failing edge is named), then n x n, finite, orthogonal
    maps. No maps means identities, unchecked. Returns _fill's parts."""
    n, vertices, edges = int(n_stalk), tuple(vertices), tuple((t, h) for t, h in edges)
    # the largest per-stalk array is conj_operator's (n(n+1)/2, n, n) basis stack
    if n * (n + 1) // 2 * n * n * 8 > np.iinfo(np.intp).max:
        raise InvalidInputError(f"stalk dimension {n} is too large: its (n(n+1)/2, n, n) "
                                f"array would exceed the address space")
    stack = None
    if maps is not None:
        try:
            stack = np.array(maps if isinstance(maps, np.ndarray) else list(maps),
                             dtype=np.float64)
        except (ValueError, TypeError) as exc:
            raise InvalidInputError(
                f"restriction maps must be pairs of equal shape: {exc}") from None
        if stack.size == 0 and not edges and n > 0:
            stack = np.zeros((0, 2, n, n))
    if n < 1:
        raise InvalidInputError("stalk dimension must be positive")
    vindex = dict(zip(vertices, range(len(vertices))))
    if len(vindex) != len(vertices):
        raise InvalidInputError("duplicate vertex ids")
    if stack is not None and stack.shape[:2] != (len(edges), 2):
        raise InvalidInputError("one (map_tail, map_head) pair required per edge")
    ends = np.fromiter(map(vindex.get, chain.from_iterable(edges), repeat(-1)),
                       dtype=int, count=2 * len(edges)).reshape(-1, 2)
    tails, heads = np.ascontiguousarray(ends.T)
    bad = (tails == heads) | (tails < 0) | (heads < 0)
    if np.any(bad):
        k = int(np.argmax(bad))
        # distinct unknown ids share the -1, so only equal ids make a loop
        if edges[k][0] == edges[k][1] or tails[k] == heads[k] >= 0:
            raise InvalidInputError(f"self-loop at vertex {edges[k][0]!r}")
        raise InvalidInputError(f"edge {k} references unknown vertex")
    if stack is None:
        eye = np.broadcast_to(np.eye(n), (len(edges), n, n))
        return vertices, edges, tails, heads, eye, eye
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
    return vertices, edges, tails, heads, stack[:, 0], stack[:, 1]


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
    return _edge_differences(sheaf._tail_maps, sheaf._head_maps, sheaf._tails, sheaf._heads,
                             logs)


def _edge_differences(Mt: np.ndarray, Mh: np.ndarray, tails: np.ndarray, heads: np.ndarray,
                      logs: np.ndarray) -> np.ndarray:
    """``sym(M_t L_t M_t^T - M_h L_h M_h^T)`` per edge, from (E, n, n) maps, the
    edges' end positions in `logs` and (..., k, n, n) logs: the coboundary's
    one arithmetic."""
    Tt = Mt @ logs[..., tails, :, :] @ np.swapaxes(Mt, -1, -2)
    Th = Mh @ logs[..., heads, :, :] @ np.swapaxes(Mh, -1, -2)
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


def nullspace(A: np.ndarray) -> np.ndarray:
    """Orthonormal nullspace basis (columns) via SVD with a relative cutoff.

    The cutoff is ``NULL_TOL * max(sigma_max, 1)``. The floor at 1 matters when
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
    rank = int(np.sum(s > NULL_TOL * max(s[0], 1.0))) if s.size else 0
    return Vh[rank:].T.copy()


def _fixed_space(ops: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the common fixed space of a (k, m, m) stack of
    orthogonal operators: the nullspace of the stacked ``ops - I``, which is
    all of R^m when k = 0."""
    m = ops.shape[-1]
    return nullspace((ops - np.eye(m)).reshape(-1, m))


def _sections_from_holonomy(sheaf: _OrthGraph, act) -> list[tuple[list, np.ndarray]]:
    """The kernel basis of the coboundary, one block of columns per component.

    ``act`` maps (..., n, n) orthogonal stacks to their action on the stalk:
    :func:`~spdsheaf.spd.conj_operator` on the log-domain stalk Sym_n, the
    identity on a vector stalk R^n. On a component C a section is fixed by
    its root value S: every vertex v of C carries ``act(W_v) S`` for its tree
    transport W_v, and S must be fixed by every cycle holonomy of C. For an
    orthonormal basis F of that fixed space (:func:`_fixed_space`), C has the
    (|C|, m, f_C) block ``act(W_v) F / sqrt(|C|)`` over v in C: its f_C basis
    columns restricted to C, where they are zero elsewhere. Returns
    ``(positions, block)`` per component, components and positions in the
    order of :func:`_spanning_forest`. The columns are orthonormal with no
    QR: an orthogonal action is an isometry, so each of the |C| vertex blocks
    of two columns of C pairs to ``<F_i, F_j> / |C|``, and components have
    disjoint supports. Nothing of size |V| m x kernel_dim is built.
    """
    comps, W, reps = _spanning_forest(sheaf)
    blocks = act(W)
    return [(pos, blocks[pos] @ _fixed_space(act(np.reshape(r, (-1,) + W.shape[1:])))
             / np.sqrt(len(pos)))
            for pos, r in zip(comps, reps)]


def _dense_basis(sections: list[tuple[list, np.ndarray]]) -> np.ndarray:
    """The blocks of :func:`_sections_from_holonomy` as one (|V| m, kernel_dim)
    basis: columns in component order, vertex position i in rows i m to
    (i + 1) m, and zero off each column's component."""
    n_vertices = sum(len(pos) for pos, _ in sections)
    m = sections[0][1].shape[1] if sections else 0
    basis = np.zeros((n_vertices, m, sum(block.shape[2] for _, block in sections)))
    col = 0
    for pos, block in sections:
        basis[pos, :, col:col + block.shape[2]] = block
        col += block.shape[2]
    return basis.reshape(n_vertices * m, col)


def global_sections(sheaf: SheafGraph) -> np.ndarray:
    """Orthonormal basis (columns) of the log-domain kernel of the coboundary.

    Built per component from the holonomy fixed space and the tree
    transports (see :func:`_sections_from_holonomy`), ordered by component.
    Exponentiating any combination of basis columns via
    :func:`cochain0_from_vec` yields a 0-cochain whose coboundary is the
    identity on every edge.
    """
    return _dense_basis(_sections_from_holonomy(sheaf, conj_operator))


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
    The representatives must be finite, square and of one size, equal to n
    when n is given. With no representatives the whole of Sym_n is returned
    (n must then be given).
    """
    reps = list(reps)
    if not reps and (n is None or n < 1):
        raise InvalidInputError("a positive n is required when the representation list is empty")
    return _fixed_space(conj_operator(_cochain_stack(reps, None, n)))


def section_space_summary(sheaf: SheafGraph) -> dict:
    """Every number of a sections report, from one spanning-forest pass.

    ``kernel_dim`` is the total of the per-component holonomy fixed
    dimensions by construction. Besides the counts, ``sections`` holds one
    tuple ``(vertices, edges, block, residuals)`` per component, in the
    column order of :func:`global_sections`: the component's vertex and edge
    positions as increasing lists, its (|C|, m, f_C) block of basis columns
    (see :func:`_sections_from_holonomy`; the columns are zero off C), and
    the (f_C, |E_C|) Frobenius norms of the log-domain coboundary of those
    columns on its edges. On every other edge that coboundary is zero. Time
    and memory are linear in the graph: every step works on one component,
    and nothing of size |V| x kernel_dim is built.
    """
    sections = _sections_from_holonomy(sheaf, conj_operator)
    fixed_dims = [block.shape[2] for _, block in sections]
    # an edge lies in its tail's component; `local` numbers each component's vertices from 0
    comp, local = np.empty((2, sheaf.n_vertices), dtype=np.intp)
    for c, (pos, _) in enumerate(sections):
        comp[pos], local[pos] = c, np.arange(len(pos))
    edge_comp = comp[sheaf._tails]
    edge_lists = np.split(np.argsort(edge_comp, kind="stable"),
                          np.cumsum(np.bincount(edge_comp, minlength=len(sections)))[:-1])
    parts = []
    for (pos, block), edges in zip(sections, edge_lists):
        logs = vec_to_sym(np.moveaxis(block, -1, 0), sheaf.n_stalk)
        delta = _edge_differences(sheaf._tail_maps[edges], sheaf._head_maps[edges],
                                  local[sheaf._tails[edges]], local[sheaf._heads[edges]], logs)
        parts.append((pos, edges.tolist(), block, np.linalg.norm(delta, axis=(-2, -1))))
    return {
        "kernel_dim": sum(fixed_dims),
        "index": sheaf_index(sheaf),
        "components": len(sections),
        "holonomy_fixed_dims": fixed_dims,
        "holonomy_fixed_total": sum(fixed_dims),
        "sections": parts,
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


def _clamped_eigh(logs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs ``(w, V)`` of a log stack, w clipped into the diffusion box
    [log EIG_FLOOR, -log EIG_FLOOR]: the one clamp of diffusion states and
    of the values a run hands back."""
    w, V = np.linalg.eigh(logs)
    return np.clip(w, np.log(EIG_FLOOR), -np.log(EIG_FLOOR)), V


def diffusion_step(sheaf: SheafGraph, logs: Cochain0, normalize: bool = True,
                   residual: bool = True) -> dict | np.ndarray:
    """One Lie-group diffusion update of logs, ``L_v <- L_v + D_v``.

    ``D_v`` is the log-domain Laplacian output at v, optionally rescaled so
    its spectral radius is at most 1 (division by max(1, radius), which
    leaves already-small updates untouched). With ``residual=False`` the
    update drops the ``L_v`` term and returns ``D_v`` alone. Output log
    eigenvalues are clipped into [log EIG_FLOOR, -log EIG_FLOOR], so the
    states' values stay in [1e-4, 1e4] across deep runs.
    """
    stack = as_sym(_cochain_stack(logs, sheaf.vertices, sheaf.n_stalk))
    delta = _log_update(sheaf, stack, normalize)
    # the clamp bounds the otherwise unbounded residual drift of deep runs
    # without touching states in the normal operating box
    out = _from_spectrum(*_clamped_eigh(stack + delta if residual else delta))
    return out if isinstance(logs, np.ndarray) else dict(zip(sheaf.vertices, out))
