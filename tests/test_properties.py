"""Property tests: the sections summary and basis of both stalk kinds, the
Green identity and coboundary linearity against the brute-force oracles, and
the stacked operators against one call per cochain.

Random multigraphs with parallel edges, isolated vertices and several
components carry maps ``(R_e G_t^T, R_e A_e^T G_h^T)``: the edge transport is
``G_h A_e G_t^T``, so the twists A_e (identity, signed permutation or generic
rotation) decide the cycle holonomies and the kernel ranges from full to
trivial.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spdsheaf import SheafGraph, adjoint, coboundary, cochain_pairing, diffusion_step, laplacian
from spdsheaf.euclid import EuclidSheaf, euclid_sections
from spdsheaf.sheaf import _spanning_forest, global_sections, section_space_summary
from spdsheaf.verify import (
    _oracle_euclid_operator,
    _oracle_nullity,
    _oracle_operator,
    frustrated_two_cycle,
    oracle_green,
    oracle_linearity,
    random_orthogonal,
    random_spd_stack,
)

TWISTS = ("flat", "signed", "generic")


def _twist(kind: str, n: int, rng) -> np.ndarray:
    if kind == "flat":
        return np.eye(n)
    if kind == "signed":
        return np.eye(n)[rng.permutation(n)] * rng.choice((-1.0, 1.0), size=n)
    return random_orthogonal(n, rng)


@st.composite
def multigraph_sheaves(draw) -> SheafGraph:
    n = draw(st.sampled_from((1, 2, 3)))
    n_v = draw(st.integers(1, 7))
    # head = tail + offset (mod |V|) with offset >= 1: never a self-loop
    offsets = st.tuples(st.integers(0, n_v - 1), st.integers(1, max(n_v - 1, 1)))
    edges = [] if n_v == 1 else [
        (t, (t + d) % n_v)
        for t, d in draw(st.lists(offsets, min_size=n_v // 2, max_size=n_v + 2))]
    allowed = draw(st.sampled_from((TWISTS[:1], TWISTS[:2], TWISTS)))
    kinds = draw(st.lists(st.sampled_from(allowed), min_size=len(edges), max_size=len(edges)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gauge = [random_orthogonal(n, rng) for _ in range(n_v)]
    maps = []
    for (t, h), kind in zip(edges, kinds):
        A, R = _twist(kind, n, rng), random_orthogonal(n, rng)
        maps.append((R @ gauge[t].T, R @ A.T @ gauge[h].T))
    return SheafGraph(n, range(n_v), edges, maps)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(multigraph_sheaves())
def test_section_summary_matches_oracles(sheaf):
    summary = section_space_summary(sheaf)
    B = _oracle_operator(sheaf)
    dim_b = _oracle_nullity(B)
    assert summary["kernel_dim"] == summary["holonomy_fixed_total"] == dim_b
    assert summary["index"] == dim_b - _oracle_nullity(B.T)
    assert summary["edge_residuals"].shape == (dim_b, sheaf.n_edges)
    assert np.all(summary["edge_residuals"] <= 1e-7)
    comps = _spanning_forest(sheaf)[0]  # vertex positions; the ids are range(|V|)
    assert summary["components"] == len(comps)
    assert sorted(v for comp in comps for v in comp) == list(sheaf.vertices)
    assert all(comp == sorted(comp) for comp in comps)
    label = {v: c for c, comp in enumerate(comps) for v in comp}
    assert all(label[t] == label[h] for t, h in sheaf.edges)


def _assert_spans_oracle_kernel(basis, B):
    """The basis is orthonormal and spans the nullspace of the oracle's own
    SVD of its dense operator B."""
    dim = _oracle_nullity(B)
    null = np.linalg.svd(B)[2][B.shape[1] - dim:] if B.shape[0] else np.eye(B.shape[1])
    assert basis.shape == (B.shape[1], dim)
    assert np.max(np.abs(basis.T @ basis - np.eye(dim)), initial=0.0) <= 1e-12
    assert np.max(np.abs(basis @ basis.T - null.T @ null), initial=0.0) <= 1e-10


def _assert_basis_spans_oracle_kernel(sheaf):
    """The transported basis spans the kernel of the probed dense operator."""
    _assert_spans_oracle_kernel(global_sections(sheaf), _oracle_operator(sheaf))


def _assert_euclid_basis_spans_oracle_kernel(sheaf):
    """With the same maps acting on vectors, the Euclidean basis spans the
    kernel of the oracle's dense vector operator."""
    esheaf = EuclidSheaf(sheaf.n_stalk, sheaf.vertices, sheaf.edges, sheaf.maps)
    _assert_spans_oracle_kernel(euclid_sections(esheaf), _oracle_euclid_operator(esheaf))


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(multigraph_sheaves())
def test_section_basis_matches_oracle_nullspace(sheaf):
    _assert_basis_spans_oracle_kernel(sheaf)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(multigraph_sheaves())
def test_euclid_basis_matches_oracle_nullspace(sheaf):
    _assert_euclid_basis_spans_oracle_kernel(sheaf)


def _edge_case_sheaf(case: str) -> SheafGraph:
    rng = np.random.default_rng(3)
    if case == "no_edges":
        return SheafGraph(2, range(3), [], [])
    if case == "one_vertex":
        return SheafGraph(3, [0], [], [])
    if case == "isolated_vertices":
        edges = [(0, 1), (1, 2), (2, 0)]
        return SheafGraph(2, range(5), edges,
                          [(random_orthogonal(2, rng), random_orthogonal(2, rng)) for _ in edges])
    if case == "parallel_edges":
        edges = [(0, 1), (0, 1), (1, 0), (1, 2)]
        return SheafGraph(3, range(3), edges,
                          [(random_orthogonal(3, rng), random_orthogonal(3, rng)) for _ in edges])
    if case == "n_1":
        edges = [(0, 1), (1, 2), (2, 0), (2, 3)]
        return SheafGraph(1, range(4), edges, [(np.eye(1), np.eye(1))] * len(edges))
    # gauge-trivial: maps (G_t^T, G_h^T), so every holonomy is I up to rounding
    G = [random_orthogonal(3, rng) for _ in range(4)]
    edges = [(0, 1), (1, 2), (2, 0), (2, 3), (3, 0)]
    return SheafGraph(3, range(4), edges, [(G[t].T, G[h].T) for t, h in edges])


EDGE_CASES = ["no_edges", "one_vertex", "isolated_vertices", "parallel_edges", "n_1",
              "gauge_trivial_cycles"]


@pytest.mark.parametrize("case", EDGE_CASES)
def test_section_basis_edge_cases(case):
    sheaf = _edge_case_sheaf(case)
    _assert_basis_spans_oracle_kernel(sheaf)
    summary = section_space_summary(sheaf)
    assert np.all(summary["edge_residuals"] <= 1e-7)
    if case == "gauge_trivial_cycles":
        assert summary["kernel_dim"] == 6


@pytest.mark.parametrize("case", EDGE_CASES + ["frustrated_two_cycle"])
def test_euclid_basis_edge_cases(case):
    sheaf = frustrated_two_cycle() if case == "frustrated_two_cycle" else _edge_case_sheaf(case)
    _assert_euclid_basis_spans_oracle_kernel(sheaf)


def _per_edge_forest(sheaf) -> tuple[np.ndarray, list[list]]:
    """Tree transports W and chord holonomies from one ``M_head^T M_tail``
    product per edge visit, in the breadth-first order of _spanning_forest."""
    n_v, n = sheaf.n_vertices, sheaf.n_stalk
    pos = {v: i for i, v in enumerate(sheaf.vertices)}
    ends = [(pos[t], pos[h]) for t, h in sheaf.edges]
    incident = [[] for _ in range(n_v)]
    for k, (t, h) in enumerate(ends):
        incident[t].append((k, h, False))
        incident[h].append((k, t, True))

    def transport(k):
        M_tail, M_head = sheaf.maps[k]
        return M_head.T @ M_tail

    W, comp, tree, n_comps = np.empty((n_v, n, n)), [-1] * n_v, set(), 0
    for root in range(n_v):
        if comp[root] >= 0:
            continue
        comp[root], W[root] = n_comps, np.eye(n)
        queue = [root]
        for u in queue:  # the list grows while it is read: breadth first
            for k, w, reverse in incident[u]:
                if comp[w] < 0:
                    T = transport(k)
                    W[w] = (T.T if reverse else T) @ W[u]
                    comp[w] = n_comps
                    tree.add(k)
                    queue.append(w)
        n_comps += 1
    reps = [[] for _ in range(n_comps)]
    for k, (t, h) in enumerate(ends):
        if k not in tree:
            reps[comp[t]].append(W[h].T @ transport(k) @ W[t])
    return W, reps


def _assert_forest_matches_per_edge_products(sheaf):
    _, W, reps = _spanning_forest(sheaf)
    W_ref, reps_ref = _per_edge_forest(sheaf)
    assert np.array_equal(W, W_ref)
    assert len(reps) == len(reps_ref)
    for got, want in zip(reps, reps_ref):
        assert len(got) == len(want)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(multigraph_sheaves())
def test_spanning_forest_matches_per_edge_products(sheaf):
    """The stacked edge transports give W and the holonomies bitwise equal to
    one product per edge visit."""
    _assert_forest_matches_per_edge_products(sheaf)


@pytest.mark.parametrize("case", EDGE_CASES + ["frustrated_two_cycle"])
def test_spanning_forest_matches_per_edge_products_edge_cases(case):
    sheaf = frustrated_two_cycle() if case == "frustrated_two_cycle" else _edge_case_sheaf(case)
    _assert_forest_matches_per_edge_products(sheaf)


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(multigraph_sheaves(), st.integers(0, 2**31 - 1))
def test_green_and_linearity_on_multigraphs(sheaf, seed):
    for verdict in (oracle_green(sheaf, trials=10, seed=seed),
                    oracle_linearity(sheaf, trials=3, seed=seed)):
        assert verdict.passed, verdict


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(multigraph_sheaves(), st.integers(1, 3), st.integers(0, 2**31 - 1))
@example(_edge_case_sheaf("no_edges"), 2, 0)
@example(_edge_case_sheaf("parallel_edges"), 1, 1)
@example(_edge_case_sheaf("parallel_edges"), 3, 2)
def test_stacked_operators_equal_separate_calls(sheaf, batch, seed):
    """One call on a (B, |V|, n, n) or (B, |E|, n, n) stack is bitwise equal
    to B separate dict or list calls, for each operator and the diffusion step."""
    rng = np.random.default_rng(seed)
    n, nv, ne = sheaf.n_stalk, sheaf.n_vertices, sheaf.n_edges
    sigma = random_spd_stack(n, batch * nv, rng).reshape(batch, nv, n, n)
    tau = random_spd_stack(n, batch * ne, rng).reshape(batch, ne, n, n)
    d, a, lap = coboundary(sheaf, sigma), adjoint(sheaf, tau), laplacian(sheaf, sigma)
    green = cochain_pairing(d, tau), cochain_pairing(sigma, a)
    step = diffusion_step(sheaf, sigma)
    assert d.shape == tau.shape and a.shape == lap.shape == step.shape == sigma.shape
    assert green[0].shape == green[1].shape == (batch,)
    for b in range(batch):
        cochain, edge_values = dict(zip(sheaf.vertices, sigma[b])), list(tau[b])
        assert np.array_equal(np.reshape(coboundary(sheaf, cochain), (ne, n, n)), d[b])
        assert np.array_equal(np.stack(list(adjoint(sheaf, edge_values).values())), a[b])
        assert np.array_equal(np.stack(list(laplacian(sheaf, cochain).values())), lap[b])
        assert np.array_equal(np.stack(list(diffusion_step(sheaf, cochain).values())), step[b])
        assert cochain_pairing(coboundary(sheaf, cochain), edge_values) == green[0][b]
        assert cochain_pairing(cochain, adjoint(sheaf, edge_values)) == green[1][b]
