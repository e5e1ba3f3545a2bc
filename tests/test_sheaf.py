"""Sheaf operators: hand-computed small cases plus dense-operator oracles."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

import spdsheaf as s
from spdsheaf import verify
from spdsheaf.errors import InvalidInputError
from spdsheaf.euclid import EuclidSheaf
from spdsheaf.sheaf import _spanning_forest, cochain0_from_vec, section_space_summary
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
    assert sheaf._tails.tolist() == [sheaf.vertex_index(t) for t, _ in sheaf.edges]
    assert sheaf._heads.tolist() == [sheaf.vertex_index(h) for _, h in sheaf.edges]
    assert sheaf._tail_maps.shape == sheaf._head_maps.shape == (3, 2, 2)
    for k, (mt, mh) in enumerate(sheaf.maps):
        assert np.array_equal(sheaf._tail_maps[k], mt)
        assert np.array_equal(sheaf._head_maps[k], mh)
        assert not mt.flags.writeable and not mh.flags.writeable
    for arr in (sheaf._tails, sheaf._heads, sheaf._tail_maps, sheaf._head_maps):
        assert not arr.flags.writeable


def test_parallel_edges_allowed():
    I = np.eye(1)
    sheaf = s.SheafGraph(1, [0, 1], [(0, 1), (0, 1)], [(I, I), (-I, I)])
    assert sheaf.n_edges == 2


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
    support = np.abs(summary["basis"].reshape(4, 3, 6)).sum(axis=1) > 0
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
    assert summary["edge_residuals"].shape == (2, 11_000)
    assert np.max(summary["edge_residuals"]) <= 1e-7
    basis = summary["basis"]
    np.testing.assert_allclose(basis.T @ basis, np.eye(2), atol=1e-12)


# ---------------------------------------------------------------------------
# diffusion


def test_diffusion_global_section_is_fixed_point():
    rng = np.random.default_rng(14)
    sheaf = random_sheaf(2, 5, 0, rng)
    basis = s.global_sections(sheaf)
    section = cochain0_from_vec(sheaf, 0.5 * basis[:, 0])
    out = s.diffusion_step(sheaf, section, normalize=False)
    for v in sheaf.vertices:
        np.testing.assert_allclose(out[v], section[v], atol=1e-11)


def test_diffusion_two_node_shift():
    sheaf = path_sheaf(2, 2)
    sigma = {0: np.diag([math.e, 1.0]), 1: np.eye(2)}
    out = s.diffusion_step(sheaf, sigma, normalize=False)
    np.testing.assert_allclose(s.spd_log(out[0]), np.diag([2.0, 0.0]), atol=1e-11)
    np.testing.assert_allclose(s.spd_log(out[1]), np.diag([-1.0, 0.0]), atol=1e-11)


def test_diffusion_normalization_caps_update():
    rng = np.random.default_rng(15)
    sheaf = random_sheaf(3, 6, 3, rng)
    stack = random_spd_stack(3, sheaf.n_vertices, rng, spread=100.0)
    sigma = dict(zip(sheaf.vertices, stack))
    from spdsheaf.sheaf import _log_update

    logs = s.spd_log(stack)
    raw = _log_update(sheaf, logs, normalize=False)
    assert np.max(np.abs(np.linalg.eigvalsh(raw))) > 1.0  # the cap is exercised
    delta = _log_update(sheaf, logs)
    assert np.max(np.abs(np.linalg.eigvalsh(delta))) <= 1.0 + 1e-12
    out = s.diffusion_step(sheaf, sigma, normalize=True)
    for Y in out.values():
        assert np.linalg.eigvalsh(Y).min() > 0


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
