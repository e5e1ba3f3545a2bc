"""Sheaf operators: hand-computed small cases plus dense-operator oracles."""

import ast
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import spdsheaf as s
from spdsheaf import verify
from spdsheaf.errors import InvalidInputError
from spdsheaf.euclid import EuclidSheaf
from spdsheaf.sheaf import (
    _coboundary_logs,
    _dense_basis,
    _spanning_forest,
    cochain0_from_vec,
    section_space_summary,
)
from spdsheaf.spd import conj_operator, sym_to_vec, vec_to_sym
from spdsheaf.verify import (
    oracle_holonomy,
    random_cochain0,
    random_orthogonal,
    random_sheaf,
    random_spd,
    random_spd_stack,
)


def rotation2(angle):
    c, si = math.cos(angle), math.sin(angle)
    return np.array([[c, -si], [si, c]])


def path_sheaf(n_stalk, k):
    return s.SheafGraph.identity_maps(n_stalk, range(k), [(i, i + 1) for i in range(k - 1)])


def log_vec(stack):
    """Concatenated scaled vectorization of the logs of a (k, n, n) SPD stack."""
    return sym_to_vec(np.stack([s.spd_log(X) for X in stack])).ravel()


# ---------------------------------------------------------------------------
# construction


@pytest.mark.parametrize("cls", [s.SheafGraph, EuclidSheaf])
def test_construction_validation(cls):
    I = np.eye(2)
    with pytest.raises(InvalidInputError):
        cls(2, [0, 1], [(0, 0)], [(I, I)])  # self-loop
    with pytest.raises(InvalidInputError):
        cls(2, [0, 1], [(0, 2)], [(I, I)])  # unknown vertex
    with pytest.raises(InvalidInputError):
        cls(2, [0, 1], [(0, 1)], [(2 * I, I)])  # not orthogonal
    with pytest.raises(InvalidInputError, match="non-finite"):
        cls(2, [0, 1], [(0, 1)], [(np.diag([np.nan, 1.0]), I)])
    with pytest.raises(InvalidInputError, match="shape"):
        cls(2, [0, 1], [(0, 1)], [(np.eye(3), np.eye(3))])  # wrong map shape
    with pytest.raises(InvalidInputError):
        cls(2, [0, 1], [(0, 1)], [(I, np.eye(3))])  # ragged pair
    with pytest.raises(InvalidInputError):
        cls(2, [0, 1], [(0, 1)], [(I, I), (I, I)])  # one pair too many
    R = rotation2(0.3)
    sheaf = cls(2, ["a", "b", "c"], [("a", "b"), ("c", "b"), ("a", "b")],
                [(I, R), (R.T, I), (R, R.T)])
    assert sheaf._tails.tolist() == [sheaf.vertices.index(t) for t, _ in sheaf.edges]
    assert sheaf._heads.tolist() == [sheaf.vertices.index(h) for _, h in sheaf.edges]
    assert sheaf._tail_maps.shape == sheaf._head_maps.shape == (3, 2, 2)
    for k, (mt, mh) in enumerate(sheaf.maps):
        assert np.array_equal(sheaf._tail_maps[k], mt)
        assert np.array_equal(sheaf._head_maps[k], mh)
        assert not mt.flags.writeable and not mh.flags.writeable
    for arr in (sheaf._tails, sheaf._heads, sheaf._tail_maps, sheaf._head_maps):
        assert not arr.flags.writeable


def _checked_by_edge_loop(n_stalk, vertices, edges, maps):
    """The graph constructor's checks as they were written with one Python
    pass over the edges: the reference of the array checks, in order and
    message for message. Returns the tail and head positions."""
    n, vertices = int(n_stalk), tuple(vertices)
    edges = tuple((t, h) for t, h in edges)
    vindex = {v: i for i, v in enumerate(vertices)}
    try:
        stack = np.array(list(maps), dtype=np.float64)
    except (ValueError, TypeError) as exc:
        raise InvalidInputError(
            f"restriction maps must be pairs of equal shape: {exc}") from None
    if stack.size == 0 and not edges and n > 0:
        stack = np.zeros((0, 2, n, n))
    if n < 1:
        raise InvalidInputError("stalk dimension must be positive")
    if len(vindex) != len(vertices):
        raise InvalidInputError("duplicate vertex ids")
    if stack.shape[:2] != (len(edges), 2):
        raise InvalidInputError("one (map_tail, map_head) pair required per edge")
    for k, (t, h) in enumerate(edges):
        if t == h:
            raise InvalidInputError(f"self-loop at vertex {t!r}")
        if t not in vindex or h not in vindex:
            raise InvalidInputError(f"edge {k} references unknown vertex")
    if stack.shape[2:] != (n, n):
        raise InvalidInputError(f"map shape {stack.shape[2:]} != ({n}, {n})")
    finite = np.all(np.isfinite(stack), axis=(1, 2, 3))
    if not np.all(finite):
        raise InvalidInputError(
            f"edge {np.argmin(finite)}: restriction map has non-finite entries")
    err = np.linalg.norm(np.swapaxes(stack, -1, -2) @ stack - np.eye(n), axis=(-2, -1))
    bad = np.flatnonzero(np.any(err > 1e-10, axis=1))
    if bad.size:
        raise InvalidInputError(f"edge {bad[0]}: restriction map is not orthogonal")
    return [vindex[t] for t, _ in edges], [vindex[h] for _, h in edges]


def _outcome(build, *args):
    """The (exception type, message) a build raises, or ("ok", its value)."""
    try:
        return "ok", build(*args)
    except Exception as exc:  # noqa: BLE001 - the comparison is the point
        return type(exc), str(exc)


def _malformed_graph(rng):
    """A random graph on mixed int and str ids with up to three faults, each
    at a random position: a self-loop, an unknown id, two distinct unknown
    ids, a duplicate id, a missing or extra map pair, a NaN or a
    non-orthogonal map, maps of the wrong size, a ragged pair or a
    nonpositive stalk dimension."""
    n = int(rng.integers(1, 4))
    pool = [0, 1, 2, 7, "a", "b", "1", "x"]
    vertices = [pool[i] for i in rng.permutation(len(pool))[:int(rng.integers(2, 7))]]
    edges = []
    for _ in range(int(rng.integers(1, 7))):
        i, j = rng.choice(len(vertices), size=2, replace=False)
        edges.append((vertices[i], vertices[j]))
    maps = [[random_orthogonal(n, rng), random_orthogonal(n, rng)] for _ in edges]
    for _ in range(int(rng.integers(0, 4))):
        fault, k = int(rng.integers(0, 11)), int(rng.integers(0, len(edges)))
        t, h = edges[k]
        side = int(rng.integers(0, 2))
        if fault == 0:
            edges[k] = (t, t)
        elif fault == 1:
            edges[k] = (t, "unknown") if side else (99, h)
        elif fault == 2:
            edges[k] = (98, 99) if side else ("p", "q")
        elif fault == 3:
            vertices.insert(int(rng.integers(0, len(vertices) + 1)),
                            vertices[int(rng.integers(0, len(vertices)))])
        elif fault == 4 and maps:
            del maps[k % len(maps)]
        elif fault == 5:
            maps.insert(k, [np.eye(n), np.eye(n)])
        elif fault == 6 and maps:
            maps[k % len(maps)][side] = np.full((n, n), np.nan)
        elif fault == 7 and maps:
            maps[k % len(maps)][side] = maps[k % len(maps)][side] * (1.0 + 1e-6)
        elif fault == 8:
            maps = [[np.eye(n + 1), np.eye(n + 1)] for _ in maps]
        elif fault == 9 and maps:
            maps[k % len(maps)][side] = np.eye(n + 1)
        elif fault == 10:
            n = 0
    return n, vertices, edges, maps


_GRAPH_MESSAGES = ("stalk dimension must be positive", "duplicate vertex ids",
                   "one (map_tail, map_head) pair required per edge", "self-loop at vertex",
                   "references unknown vertex", "map shape", "non-finite entries",
                   "is not orthogonal", "pairs of equal shape")


def test_array_graph_checks_match_the_edge_loop():
    rng = np.random.default_rng(2026)
    reached = set()
    for _ in range(600):
        n, vertices, edges, maps = _malformed_graph(rng)
        expected = _outcome(_checked_by_edge_loop, n, vertices, edges, maps)
        got = _outcome(s.SheafGraph, n, vertices, edges, maps)
        if expected[0] == "ok":
            assert got[0] == "ok", got
            assert (got[1]._tails.tolist(), got[1]._heads.tolist()) == expected[1]
        else:
            assert got == expected
            reached |= {m for m in _GRAPH_MESSAGES if m in expected[1]}
        # identity maps pass the map checks, so only the topology can fail
        eye = [[np.eye(max(n, 0))] * 2 for _ in edges]
        expected = _outcome(_checked_by_edge_loop, n, vertices, edges, eye)
        got = _outcome(s.SheafGraph.identity_maps, n, vertices, edges)
        assert got[0] == expected[0] and (got[0] == "ok" or got[1] == expected[1])
    assert reached == set(_GRAPH_MESSAGES)


@pytest.mark.parametrize("edge, message", [
    ((5, 6), "edge 0 references unknown vertex"),  # both ends look up to the same -1
    ((5, 5), "self-loop at vertex 5"),
    ((0, 0), "self-loop at vertex 0"),
    ((0, "0"), "edge 0 references unknown vertex"),
])
def test_unknown_ends_are_not_a_self_loop(edge, message):
    I = np.eye(2)
    with pytest.raises(InvalidInputError) as exc:
        s.SheafGraph(2, [0, 1], [edge], [(I, I)])
    assert str(exc.value) == message
    with pytest.raises(InvalidInputError) as exc:
        s.SheafGraph.identity_maps(2, [0, 1], [edge])
    assert str(exc.value) == message


def test_parallel_edges_allowed():
    I = np.eye(1)
    sheaf = s.SheafGraph(1, [0, 1], [(0, 1), (0, 1)], [(I, I), (-I, I)])
    assert sheaf.n_edges == 2


def test_identity_union_is_a_graph_on_positions():
    # the probe joins its clouds' k-NN edges, offset into one numbering
    tails, heads = np.array([0, 0, 1, 3, 4, 5]), np.array([1, 2, 2, 4, 5, 6])
    union = s.SheafGraph._identity_union(2, 7, tails, heads)
    assert type(union) is s.SheafGraph and union.n_stalk == 2
    assert union.vertices == (0, 1, 2, 3, 4, 5, 6)
    assert union.edges == ((0, 1), (0, 2), (1, 2), (3, 4), (4, 5), (5, 6))
    assert union._tails is tails and union._heads is heads
    for stack in (union._tail_maps, union._head_maps):
        np.testing.assert_array_equal(stack, np.broadcast_to(np.eye(2), (6, 2, 2)))
        assert not stack.flags.writeable
    # the checked constructor takes the same topology to the same operators
    checked = s.SheafGraph.identity_maps(2, range(7), union.edges)
    sigma = random_spd_stack(2, 7, np.random.default_rng(41))
    np.testing.assert_array_equal(s.laplacian(union, sigma), s.laplacian(checked, sigma))


# ---------------------------------------------------------------------------
# coboundary


def test_coboundary_constant_section_identity_maps():
    sheaf = path_sheaf(2, 4)
    P = random_spd(2, np.random.default_rng(0))
    out = s.coboundary(sheaf, {v: P for v in sheaf.vertices})
    for Y in out:
        np.testing.assert_allclose(Y, np.eye(2), atol=1e-12)


def test_coboundary_single_edge_tail_positive():
    sheaf = path_sheaf(2, 2)
    sigma = {0: np.diag([math.e, 1.0]), 1: np.eye(2)}
    (Y,) = s.coboundary(sheaf, sigma)
    np.testing.assert_allclose(Y, np.diag([math.e, 1.0]), atol=1e-12)


def test_coboundary_matches_dense_operator():
    rng = np.random.default_rng(1)
    for _ in range(10):
        sheaf = random_sheaf(3, 7, 3, rng)
        sigma = random_spd_stack(3, sheaf.n_vertices, rng)
        B = s.coboundary_matrix(sheaf)
        lhs = B @ log_vec(sigma)
        rhs = log_vec(s.coboundary(sheaf, sigma))
        assert np.max(np.abs(lhs - rhs)) <= 1e-9


def test_coboundary_missing_vertex():
    sheaf = path_sheaf(2, 3)
    with pytest.raises(InvalidInputError):
        s.coboundary(sheaf, {0: np.eye(2), 1: np.eye(2)})


def test_coboundary_group_linearity():
    rng = np.random.default_rng(2)
    for _ in range(100):
        n = int(rng.integers(2, 4))
        sheaf = random_sheaf(n, int(rng.integers(2, 8)), 2, rng)
        sigma, tau = random_cochain0(sheaf, rng), random_cochain0(sheaf, rng)
        combo = {v: s.group_op(sigma[v], tau[v]) for v in sheaf.vertices}
        for L, A, B in zip(s.coboundary(sheaf, combo), s.coboundary(sheaf, sigma),
                           s.coboundary(sheaf, tau)):
            assert s.dist_lem(L, s.group_op(A, B)) <= 1e-9


# ---------------------------------------------------------------------------
# adjoint


def test_adjoint_identity_cochain():
    sheaf = random_sheaf(2, 5, 2, np.random.default_rng(3))
    out = s.adjoint(sheaf, [np.eye(2)] * sheaf.n_edges)
    for Y in out.values():
        np.testing.assert_allclose(Y, np.eye(2), atol=1e-12)


def test_adjoint_isolated_vertex_gets_identity():
    I = np.eye(2)
    sheaf = s.SheafGraph(2, [0, 1, 2], [(0, 1)], [(I, I)])
    out = s.adjoint(sheaf, [np.diag([math.e, 1.0])])
    np.testing.assert_allclose(out[2], np.eye(2), atol=1e-14)
    # tail positive, head negative
    np.testing.assert_allclose(s.spd_log(out[0]), np.diag([1.0, 0.0]), atol=1e-12)
    np.testing.assert_allclose(s.spd_log(out[1]), np.diag([-1.0, 0.0]), atol=1e-12)


def test_green_identity_random():
    rng = np.random.default_rng(4)
    for _ in range(20):
        sheaf = random_sheaf(int(rng.integers(2, 4)), int(rng.integers(2, 12)), 3, rng)
        for _ in range(5):
            sigma = random_cochain0(sheaf, rng)
            tau = list(random_spd_stack(sheaf.n_stalk, sheaf.n_edges, rng))
            lhs = s.cochain_pairing(s.coboundary(sheaf, sigma), tau)
            rhs = s.cochain_pairing(sigma, s.adjoint(sheaf, tau))
            assert abs(lhs - rhs) <= 1e-8


# ---------------------------------------------------------------------------
# Laplacian


def test_laplacian_is_adjoint_of_coboundary():
    rng = np.random.default_rng(5)
    sheaf = random_sheaf(2, 6, 2, rng)
    sigma = random_cochain0(sheaf, rng)
    expected = s.adjoint(sheaf, s.coboundary(sheaf, sigma))
    out = s.laplacian(sheaf, sigma)
    for v in sheaf.vertices:
        np.testing.assert_array_equal(out[v], expected[v])


def test_laplacian_global_section_maps_to_identity():
    rng = np.random.default_rng(6)
    sheaf = random_sheaf(2, 6, 0, rng)  # tree: transported sections exist
    basis = s.global_sections(sheaf)
    assert basis.shape[1] >= 1
    section = cochain0_from_vec(sheaf, 0.7 * basis[:, 0])
    for Y in s.laplacian(sheaf, section).values():
        assert s.dist_lem(Y, np.eye(2)) <= 1e-7


def test_laplacian_two_node_hand_computation():
    sheaf = path_sheaf(2, 2)
    sigma = {0: np.diag([math.e, 1.0]), 1: np.eye(2)}
    out = s.laplacian(sheaf, sigma)
    np.testing.assert_allclose(s.spd_log(out[0]), np.diag([1.0, 0.0]), atol=1e-12)
    np.testing.assert_allclose(s.spd_log(out[1]), np.diag([-1.0, 0.0]), atol=1e-12)


def test_laplacian_matches_gram_operator():
    rng = np.random.default_rng(7)
    for _ in range(5):
        sheaf = random_sheaf(3, 6, 3, rng)
        sigma = random_spd_stack(3, sheaf.n_vertices, rng)
        B = s.coboundary_matrix(sheaf)
        lhs = B.T @ B @ log_vec(sigma)
        rhs = log_vec(s.laplacian(sheaf, sigma))
        assert np.max(np.abs(lhs - rhs)) <= 1e-9


def test_identity_maps_reduce_to_graph_laplacian():
    rng = np.random.default_rng(8)
    edges = [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]
    sheaf = s.SheafGraph.identity_maps(2, range(4), edges)
    B = s.coboundary_matrix(sheaf)
    L_graph = np.zeros((4, 4))
    for t, h in edges:
        L_graph[t, t] += 1
        L_graph[h, h] += 1
        L_graph[t, h] -= 1
        L_graph[h, t] -= 1
    np.testing.assert_allclose(B.T @ B, np.kron(L_graph, np.eye(s.sym_dim(2))),
                               atol=1e-12)


# ---------------------------------------------------------------------------
# pairing


def test_cochain_pairing_examples():
    rng = np.random.default_rng(9)
    sheaf = random_sheaf(2, 4, 1, rng)
    sigma = random_cochain0(sheaf, rng)
    assert abs(s.cochain_pairing(sigma, {v: np.eye(2) for v in sheaf.vertices})) <= 1e-12
    total = sum(np.linalg.norm(s.spd_log(X)) ** 2 for X in sigma.values())
    assert abs(s.cochain_pairing(sigma, sigma) - total) <= 1e-9
    tau = random_cochain0(sheaf, rng)
    rho = random_cochain0(sheaf, rng)
    combo = {v: s.group_op(tau[v], rho[v]) for v in sheaf.vertices}
    assert abs(s.cochain_pairing(sigma, combo)
               - s.cochain_pairing(sigma, tau) - s.cochain_pairing(sigma, rho)) <= 1e-9


def test_cochain_pairing_mismatch():
    sheaf = path_sheaf(2, 3)
    sigma = random_cochain0(sheaf, np.random.default_rng(10))
    with pytest.raises(InvalidInputError):
        s.cochain_pairing(sigma, {0: np.eye(2)})
    with pytest.raises(InvalidInputError):
        s.cochain_pairing(sigma, [np.eye(2)])


@pytest.mark.parametrize("bad", [np.eye(3), np.ones((2, 3)), np.ones(2), np.eye(2)[None]])
def test_cochain_pairing_rejects_mismatched_value_shapes(bad):
    sheaf = path_sheaf(2, 3)
    rng = np.random.default_rng(11)
    sigma = random_cochain0(sheaf, rng)
    other = {**sigma, 2: bad}
    with pytest.raises(InvalidInputError, match="square shape"):
        s.cochain_pairing(sigma, other)
    tau = list(random_spd_stack(2, sheaf.n_edges, rng))
    with pytest.raises(InvalidInputError, match="square shape"):
        s.cochain_pairing(tau, [tau[0], bad])
    # every value of both cochains the same non-square shape
    with pytest.raises(InvalidInputError, match="square shape"):
        s.cochain_pairing([np.ones((2, 3))], [np.ones((2, 3))])


@pytest.mark.parametrize("bad", ["nan", "inf", "unknown_key"])
@pytest.mark.parametrize("entry", ["coboundary", "adjoint", "laplacian", "diffusion_step",
                                   "cochain_pairing"])
def test_operators_reject_invalid_cochains(entry, bad):
    """Each operator validates its cochain once, at the one boundary:
    non-finite values and keys that are not vertices raise instead of
    giving NaN or being ignored, for dicts, lists and stacked arrays."""
    sheaf = path_sheaf(2, 2)
    I = np.eye(2)
    if bad == "unknown_key":
        sigma, tau = {0: I, 1: 2 * I, "x": "junk"}, [I, "junk"]
        stacks = []
    else:
        X = np.diag([float(bad), 1.0])
        sigma, tau = {0: X, 1: I}, [X]
        stacks = [(np.stack([X, I]), np.stack([X])), (np.stack([I, X])[None], np.stack([X])[None])]
    call = {
        "coboundary": lambda sigma, tau: s.coboundary(sheaf, sigma),
        "adjoint": lambda sigma, tau: s.adjoint(sheaf, tau),
        "laplacian": lambda sigma, tau: s.laplacian(sheaf, sigma),
        "diffusion_step": lambda sigma, tau: s.diffusion_step(sheaf, sigma),
        "cochain_pairing": lambda sigma, tau: s.cochain_pairing(sigma, sigma),
    }[entry]
    for args in [(sigma, tau)] + stacks:
        with pytest.raises(InvalidInputError):
            call(*args)


# ---------------------------------------------------------------------------
# dense operator structure


def test_coboundary_matrix_identity_sheaf_blocks():
    sheaf = path_sheaf(2, 3)
    B = s.coboundary_matrix(sheaf)
    m = s.sym_dim(2)
    incidence = np.array([[1.0, -1.0, 0.0], [0.0, 1.0, -1.0]])
    np.testing.assert_allclose(B, np.kron(incidence, np.eye(m)), atol=1e-14)


def test_coboundary_matrix_conjugation_block():
    R = rotation2(0.81)
    sheaf = s.SheafGraph(2, [0, 1], [(0, 1)], [(np.eye(2), R)])
    B = s.coboundary_matrix(sheaf)
    m = s.sym_dim(2)
    np.testing.assert_allclose(B[:, :m], np.eye(m), atol=1e-14)
    np.testing.assert_allclose(B[:, m:], -conj_operator(R), atol=1e-14)


def test_coboundary_matrix_no_edges():
    sheaf = s.SheafGraph(2, [0, 1], [], [])
    assert s.coboundary_matrix(sheaf).shape == (0, 2 * s.sym_dim(2))


# ---------------------------------------------------------------------------
# global sections


def test_sections_single_vertex():
    sheaf = s.SheafGraph(3, [0], [], [])
    assert s.global_sections(sheaf).shape[1] == s.sym_dim(3)


def test_sections_identity_tree_dimension():
    for n in (2, 3):
        sheaf = path_sheaf(n, 5)
        basis = s.global_sections(sheaf)
        assert basis.shape[1] == s.sym_dim(n)
        # orthonormal columns
        np.testing.assert_allclose(basis.T @ basis, np.eye(basis.shape[1]), atol=1e-10)
        section = cochain0_from_vec(sheaf, basis @ np.arange(1.0, basis.shape[1] + 1))
        for Y in s.coboundary(sheaf, section):
            assert s.dist_lem(Y, np.eye(n)) <= 1e-7


def test_sections_three_cycle_quarter_turn():
    R = rotation2(math.pi / 2)
    I = np.eye(2)
    sheaf = s.SheafGraph(2, [0, 1, 2], [(0, 1), (1, 2), (2, 0)],
                         [(I, I), (I, I), (R, I)])
    basis = s.global_sections(sheaf)
    # brute force: symmetric A with R A R^T = A for the quarter turn
    fixed = s.holonomy_fixed_space([R], 2)
    assert basis.shape[1] == fixed.shape[1] == 1


# ---------------------------------------------------------------------------
# index


def test_index_examples():
    assert s.sheaf_index(path_sheaf(3, 2)) == 6
    tri = s.SheafGraph.identity_maps(2, range(3), [(0, 1), (1, 2), (2, 0)])
    assert s.sheaf_index(tri) == 0


def test_index_formula_random():
    rng = np.random.default_rng(11)
    for i in range(50):
        n = int(rng.integers(2, 4))
        sheaf = random_sheaf(n, int(rng.integers(2, 9)), int(rng.integers(0, 4)), rng,
                             connected=(i % 2 == 0))
        expected = (sheaf.n_vertices - sheaf.n_edges) * s.sym_dim(n)
        assert s.sheaf_index(sheaf) == expected


# ---------------------------------------------------------------------------
# holonomy


def test_holonomy_tree_empty():
    assert s.holonomy_reps(path_sheaf(2, 4)) == []


def test_holonomy_identity_cycle():
    sheaf = s.SheafGraph.identity_maps(2, range(4), [(0, 1), (1, 2), (2, 3), (3, 0)])
    (rep,) = s.holonomy_reps(sheaf)
    np.testing.assert_allclose(rep, np.eye(2), atol=1e-12)


def test_holonomy_single_rotation_conjugate():
    R = rotation2(0.4)
    I = np.eye(2)
    sheaf = s.SheafGraph(2, [0, 1, 2], [(0, 1), (1, 2), (2, 0)],
                         [(I, I), (I, I), (R, I)])
    (rep,) = s.holonomy_reps(sheaf)
    # conjugate to R: same rotation angle
    assert abs(np.trace(rep) - np.trace(R)) <= 1e-10
    assert np.linalg.norm(rep.T @ rep - np.eye(2)) <= 1e-10


def test_holonomy_requires_connected():
    I = np.eye(2)
    sheaf = s.SheafGraph(2, [0, 1, 2, 3], [(0, 1), (2, 3)], [(I, I), (I, I)])
    with pytest.raises(InvalidInputError):
        s.holonomy_reps(sheaf)
    assert section_space_summary(sheaf)["components"] == 2


def test_connected_components_in_vertex_order():
    # the spanning forest lists each component's vertex positions in order;
    # the sections report counts and orders its basis columns by component
    I = np.eye(2)
    sheaf = s.SheafGraph(2, range(5), [(0, 1), (1, 3), (0, 2)], [(I, I)] * 3)
    assert _spanning_forest(sheaf)[0] == [[0, 1, 2, 3], [4]]
    sheaf = s.SheafGraph(2, ["z", "a", "m", "b"], [("b", "z"), ("a", "m")], [(I, I)] * 2)
    assert _spanning_forest(sheaf)[0] == [[0, 3], [1, 2]]
    summary = section_space_summary(sheaf)
    assert summary["components"] == 2 and summary["holonomy_fixed_dims"] == [3, 3]
    support = np.abs(s.global_sections(sheaf).reshape(4, 3, 6)).sum(axis=1) > 0
    assert support.T.tolist() == [[True, False, False, True]] * 3 + [[False, True, True, False]] * 3


def test_holonomy_fixed_space_examples():
    assert s.holonomy_fixed_space([], 2).shape[1] == s.sym_dim(2)
    # reflection: diagonal matrices are fixed
    assert s.holonomy_fixed_space([np.diag([1.0, -1.0])]).shape[1] == 2
    # generic rotations in n=3: only multiples of the identity survive
    rng = np.random.default_rng(12)
    reps = [random_orthogonal(3, rng) for _ in range(3)]
    fixed = s.holonomy_fixed_space(reps, 3)
    assert fixed.shape[1] == 1
    S = vec_to_sym(fixed[:, 0], 3)
    np.testing.assert_allclose(S, S[0, 0] * np.eye(3), atol=1e-8)


@pytest.mark.parametrize("reps, n, match", [
    ([np.eye(3)], 2, r"got \(1, 3, 3\)"),
    ([np.eye(2), np.eye(3)], None, "one square shape"),
    ([np.diag([np.nan, 1.0])], 2, "non-finite"),
    ([np.ones((2, 3))], None, r"one square shape, got \(1, 2, 3\)"),
    ([], None, "positive n"),
])
def test_holonomy_fixed_space_rejects_bad_representatives(reps, n, match):
    with pytest.raises(InvalidInputError, match=match):
        s.holonomy_fixed_space(reps, n)


def test_gauge_trivial_cycle_fixes_all_of_sym():
    # maps (G_t^T, G_h^T) from per-vertex gauges: every cycle holonomy is the
    # identity up to rounding, so nothing of Sym_3 may count as rank
    rng = np.random.default_rng(5)
    G = [random_orthogonal(3, rng) for _ in range(3)]
    edges = [(0, 1), (1, 2), (2, 0)]
    sheaf = s.SheafGraph(3, range(3), edges, [(G[t].T, G[h].T) for t, h in edges])
    summary = section_space_summary(sheaf)
    assert summary["kernel_dim"] == summary["holonomy_fixed_total"] == 6
    assert oracle_holonomy(sheaf).passed


def test_kernel_dim_equals_fixed_space_dim():
    """The holonomy fixed-space dimension, which `global_sections` returns,
    equals the nullity of the oracle's own SVD of the probed operator."""
    rng = np.random.default_rng(13)
    for _ in range(25):
        n = int(rng.integers(2, 4))
        sheaf = random_sheaf(n, int(rng.integers(2, 8)), int(rng.integers(0, 3)), rng)
        dim_kernel = s.global_sections(sheaf).shape[1]
        assert dim_kernel == verify._oracle_nullity(verify._oracle_operator(sheaf))


def test_section_space_summary_disconnected():
    I = np.eye(2)
    sheaf = s.SheafGraph(2, [0, 1, 2, 3], [(0, 1), (2, 3)], [(I, I), (I, I)])
    summary = section_space_summary(sheaf)
    assert summary["components"] == 2
    assert summary["kernel_dim"] == summary["holonomy_fixed_total"] == 2 * s.sym_dim(2)
    assert summary["index"] == 2 * s.sym_dim(2)


def _orthogonal_stack(count, rng):
    Q, R = np.linalg.qr(rng.normal(size=(count, 3, 3)))
    return Q * np.sign(np.diagonal(R, axis1=-2, axis2=-1))[:, None, :]


def _planted_gauge_sheaf(n_vertices, n_chords, rng):
    """Connected n=3 sheaf whose cycle holonomies all rotate about one axis.

    Maps ``(R_e G_t^T, R_e A_e^T G_h^T)`` give the edge transport
    ``G_h A_e G_t^T``; with ``A_e = R_z(phi_h - phi_t + psi_e)`` the phases
    telescope around a cycle, so a chord with psi_e away from 0 and pi closes
    a cycle with holonomy conjugate to R_z(+-psi_e). The fixed space is then
    span{I, a a^T} for the rotation axis a: a kernel of dimension 2.
    """
    child = np.arange(1, n_vertices)
    tails = np.concatenate([rng.integers(0, child), rng.integers(0, n_vertices, n_chords)])
    heads = np.concatenate([child, (tails[n_vertices - 1:]
                                    + rng.integers(1, n_vertices, n_chords)) % n_vertices])
    flip = rng.random(tails.size) < 0.5
    tails, heads = np.where(flip, heads, tails), np.where(flip, tails, heads)
    gauge = _orthogonal_stack(n_vertices, rng)
    phase = rng.uniform(0.0, 2.0 * math.pi, n_vertices)
    psi = np.concatenate([np.zeros(n_vertices - 1), rng.uniform(0.3, math.pi - 0.3, n_chords)
                          * rng.choice((-1.0, 1.0), n_chords)])
    angle = phase[heads] - phase[tails] + psi
    A = np.zeros((tails.size, 3, 3))
    A[:, 0, 0] = A[:, 1, 1] = np.cos(angle)
    A[:, 1, 0], A[:, 0, 1], A[:, 2, 2] = np.sin(angle), -np.sin(angle), 1.0
    R = _orthogonal_stack(tails.size, rng)
    Gt, Gh = (np.swapaxes(gauge[ends], -1, -2) for ends in (tails, heads))
    maps = np.stack([R @ Gt, R @ np.swapaxes(A, -1, -2) @ Gh], axis=1)
    return s.SheafGraph(3, range(n_vertices), zip(tails.tolist(), heads.tolist()), maps)


def test_sections_of_a_ten_thousand_vertex_gauge_sheaf():
    # the dense operator would be 66 000 x 60 000 (about 32 GB); the
    # transported holonomy fixed space needs one 6006 x 6 nullspace
    sheaf = _planted_gauge_sheaf(10_000, 1_001, np.random.default_rng(8))
    summary = section_space_summary(sheaf)
    assert summary["components"] == 1
    assert summary["kernel_dim"] == summary["holonomy_fixed_total"] == 2
    basis, residuals = _densified(sheaf, summary)
    assert residuals.shape == (2, 11_000)
    assert np.max(residuals) <= 1e-7
    np.testing.assert_allclose(basis.T @ basis, np.eye(2), atol=1e-12)


def _densified(sheaf, summary) -> tuple[np.ndarray, np.ndarray]:
    """The (|V| m, kernel_dim) basis and the (kernel_dim, |E|) residuals of a
    summary's per-component blocks, zero off each column's component."""
    basis = _dense_basis([(pos, block) for pos, _, block, _ in summary["sections"]])
    residuals = np.zeros((basis.shape[1], sheaf.n_edges))
    col = 0
    for _, edges, _, norms in summary["sections"]:
        residuals[col:col + len(norms), edges] = norms
        col += len(norms)
    return basis, residuals


def _dense_residuals(sheaf) -> np.ndarray:
    """The residuals as the dense path took them: the log-domain coboundary of
    every column of :func:`global_sections` on every edge."""
    basis = s.global_sections(sheaf)
    columns = basis.T.reshape(basis.shape[1], sheaf.n_vertices, s.sym_dim(sheaf.n_stalk))
    return np.linalg.norm(_coboundary_logs(sheaf, vec_to_sym(columns, sheaf.n_stalk)),
                          axis=(-2, -1))


def test_section_blocks_densify_to_the_dense_basis_and_residuals_bitwise():
    rng = np.random.default_rng(34)
    for n in (1, 2, 3, 4):
        for extra in (0, 1, 3):
            sheaf = random_sheaf(n, int(rng.integers(1, 12)), extra, rng, connected=False)
            sheaf = s.SheafGraph(n, [*sheaf.vertices, "isolated"], sheaf.edges, sheaf.maps)
            summary = section_space_summary(sheaf)
            basis, residuals = _densified(sheaf, summary)
            assert basis.tobytes() == s.global_sections(sheaf).tobytes()
            assert residuals.tobytes() == _dense_residuals(sheaf).tobytes()
            positions = [v for pos, _, _, _ in summary["sections"] for v in pos]
            edges = [k for _, edges, _, _ in summary["sections"] for k in edges]
            assert sorted(positions) == list(range(sheaf.n_vertices))
            assert sorted(edges) == list(range(sheaf.n_edges))


def test_section_summary_is_linear_in_the_graph():
    # 500 components of 20 vertices and 2 chords: kernel_dim 500, so a dense
    # (|V| m, kernel_dim) basis would take 10^4 * 6 * 500 * 8 B = 0.22 GiB
    rng = np.random.default_rng(21)
    parts = [random_sheaf(3, 20, 2, rng) for _ in range(500)]
    sheaf = s.SheafGraph(3, range(20 * len(parts)),
                         [(20 * c + t, 20 * c + h)
                          for c, g in enumerate(parts)
                          for t, h in zip(g._tails.tolist(), g._heads.tolist())],
                         np.concatenate([np.stack([g._tail_maps, g._head_maps], 1) for g in parts]))
    tracemalloc.start()
    try:
        summary = section_space_summary(sheaf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert summary["components"] == len(summary["sections"]) == 500
    assert summary["kernel_dim"] == summary["holonomy_fixed_total"] >= 500
    assert max(np.max(norms, initial=0.0) for *_, norms in summary["sections"]) <= 1e-7
    assert peak < 32 * 2**20, f"summary peak {peak / 2**20:.1f} MB"


# ---------------------------------------------------------------------------
# diffusion


def test_diffusion_global_section_is_fixed_point():
    rng = np.random.default_rng(14)
    sheaf = random_sheaf(2, 5, 0, rng)
    basis = s.global_sections(sheaf)
    section = cochain0_from_vec(sheaf, 0.5 * basis[:, 0])
    logs = {v: s.spd_log(X) for v, X in section.items()}
    out = s.diffusion_step(sheaf, logs, normalize=False)
    for v in sheaf.vertices:
        np.testing.assert_allclose(out[v], logs[v], atol=1e-11)


def test_diffusion_two_node_shift():
    sheaf = path_sheaf(2, 2)
    logs = {0: np.diag([1.0, 0.0]), 1: np.zeros((2, 2))}
    out = s.diffusion_step(sheaf, logs, normalize=False)
    np.testing.assert_allclose(out[0], np.diag([2.0, 0.0]), atol=1e-11)
    np.testing.assert_allclose(out[1], np.diag([-1.0, 0.0]), atol=1e-11)


def test_diffusion_step_rejects_asymmetric_logs():
    sheaf = path_sheaf(2, 2)
    logs = np.zeros((2, 2, 2))
    logs[0, 0, 1] = 1e-6
    with pytest.raises(InvalidInputError, match="not symmetric"):
        s.diffusion_step(sheaf, logs)


def test_diffusion_step_rejects_logs_whose_symmetrization_overflows():
    sheaf = path_sheaf(2, 2)
    with pytest.raises(InvalidInputError, match="non-finite"):
        s.diffusion_step(sheaf, np.full((2, 2, 2), 1e308))


def test_diffusion_normalization_caps_update():
    rng = np.random.default_rng(15)
    sheaf = random_sheaf(3, 6, 3, rng)
    stack = random_spd_stack(3, sheaf.n_vertices, rng, spread=100.0)
    from spdsheaf.sheaf import _log_update

    logs = s.spd_log(stack)
    raw = _log_update(sheaf, logs, normalize=False)
    assert np.max(np.abs(np.linalg.eigvalsh(raw))) > 1.0  # the cap is exercised
    delta = _log_update(sheaf, logs)
    assert np.max(np.abs(np.linalg.eigvalsh(delta))) <= 1.0 + 1e-12
    out = s.diffusion_step(sheaf, dict(zip(sheaf.vertices, logs)), normalize=True)
    # the output logs lie in the clamp box [log 1e-4, log 1e4]
    for L in out.values():
        w = np.linalg.eigvalsh(L)
        assert np.log(1e-4) - 1e-12 <= w.min() and w.max() <= np.log(1e4) + 1e-12


# ---------------------------------------------------------------------------
# one kernel algorithm


def _enclosing_functions(tree, match) -> set:
    """Names of the functions (``<module>`` for top-level code) whose bodies
    hold a node for which ``match`` is true."""
    found = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if match(child):
                found.add(owner)
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if inner else owner)

    visit(tree, "<module>")
    return found


def test_only_the_core_modules_build_graphs_unchecked():
    """The trusted graph constructor, the slot filler that serves it, any bare
    ``__new__`` that could skip a check and the id -> position dict, which
    only a builder reads, appear only in sheaf. Every other module builds a
    graph through the checking constructors or, in euclid and stream only,
    through the sheaf-side helpers, and none spells out the graph's parts."""
    names = ("_from_arrays", "_fill", "__new__", "_vindex")

    def trusted(node):
        return ((isinstance(node, ast.Attribute) and node.attr in names)
                or (isinstance(node, ast.Constant) and node.value in names))

    users = set()
    for path in sorted(Path(s.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        users |= {(path.stem, f) for f in _enclosing_functions(tree, trusted)}
    assert {module for module, _ in users} == {"sheaf"}, users
    assert {("sheaf", "__init__"), ("sheaf", "identity_maps"), ("sheaf", "_with_maps"),
            ("sheaf", "_recast"), ("sheaf", "_identity_union")} <= users

    # the helpers that build a graph without a check (the map swap takes any
    # maps) serve only the core modules: file input (jsonio, cli), covgraph
    # and the oracles build graphs through the checking constructors
    helpers = ("_with_maps", "_recast", "_identity_union")

    def unchecked(node):
        return ((isinstance(node, ast.Attribute) and node.attr in helpers)
                or (isinstance(node, ast.Constant) and node.value in helpers))

    callers = set()
    for path in sorted(Path(s.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        callers |= {(path.stem, f) for f in _enclosing_functions(tree, unchecked)}
    modules = {module for module, _ in callers}
    assert modules <= {"sheaf", "euclid", "stream"}, callers
    assert not modules & {"jsonio", "cli", "covgraph", "verify"}
    assert {("euclid", "matched_spd_sheaf"), ("stream", "spd_sheaf_layer"),
            ("stream", "diffusion_run")} <= callers

    # the probe's union of the clouds it drew is built by stream alone
    def union(node):
        return isinstance(node, ast.Attribute) and node.attr == "_identity_union"

    union_callers = set()
    for path in sorted(Path(s.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        union_callers |= {(path.stem, f) for f in _enclosing_functions(tree, union)}
    assert union_callers == {("stream", "_descriptors")}, union_callers


def test_one_kernel_algorithm_in_the_primary_code():
    """Outside the oracles, only ``sheaf.nullspace`` runs an SVD and only
    ``sheaf._fixed_space`` calls it: every kernel in the package, of either
    stalk kind, is a holonomy fixed space, never a dense-operator SVD."""
    def is_svd(node):
        return ((isinstance(node, ast.Attribute) and node.attr == "svd")
                or (isinstance(node, ast.Name) and node.id == "svd"))

    def calls_nullspace(node):
        return isinstance(node, ast.Call) and (
            getattr(node.func, "id", None) == "nullspace"
            or getattr(node.func, "attr", None) == "nullspace")

    svd_users, nullspace_callers = set(), set()
    sources = sorted(Path(s.__file__).parent.glob("*.py"))
    assert {p.name for p in sources} >= {"sheaf.py", "euclid.py", "verify.py"}
    for path in sources:
        if path.name == "verify.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        svd_users |= {(path.stem, f) for f in _enclosing_functions(tree, is_svd)}
        nullspace_callers |= {(path.stem, f)
                              for f in _enclosing_functions(tree, calls_nullspace)}
    assert svd_users == {("sheaf", "nullspace")}
    assert nullspace_callers == {("sheaf", "_fixed_space")}
