"""Euclidean sheaves, the embedding bridge, and the generalization theorems."""

import numpy as np
import pytest

import spdsheaf as s
from spdsheaf import euclid
from spdsheaf.errors import InvalidInputError, NotApplicableError
from spdsheaf.euclid import EuclidSheaf, embed_phi, vec_cochain_from_vec
from spdsheaf.sheaf import section_space_summary
from spdsheaf.spd import sym_to_vec
from spdsheaf.verify import (
    _oracle_euclid_operator,
    frustrated_two_cycle,
    random_euclid_sheaf,
    random_orthogonal,
    random_spd,
)


def identity_path(n, k):
    return EuclidSheaf.identity_maps(n, range(k), [(i, i + 1) for i in range(k - 1)])


# ---------------------------------------------------------------------------
# coboundary and sections


def test_euclid_coboundary_rejects_non_finite_values():
    sheaf = identity_path(2, 2)
    for bad in (np.nan, np.inf):
        with pytest.raises(InvalidInputError, match="non-finite"):
            s.check_kernel_correspondence(sheaf, {0: [bad, 0.0], 1: [0.0, 0.0]})


def test_euclid_coboundary_rejects_unknown_vertex_keys():
    sheaf = identity_path(2, 2)
    x = {0: [1.0, 0.0], 1: [0.0, 0.0]}
    with pytest.raises(InvalidInputError, match="'x'"):
        s.check_kernel_correspondence(sheaf, {**x, "x": [0.0, 0.0]})
    with pytest.raises(InvalidInputError, match="keys differ"):
        s.check_kernel_correspondence(sheaf, {0: x[0]})


def test_euclid_coboundary_matches_matrix():
    rng = np.random.default_rng(0)
    sheaf = random_euclid_sheaf(3, 6, 2, rng)
    x = {v: rng.normal(size=3) for v in sheaf.vertices}
    B = _oracle_euclid_operator(sheaf)
    vals = euclid._check_vec_cochain(sheaf, x)
    rhs = euclid._vec_coboundary(sheaf, vals, sheaf._tail_maps, sheaf._head_maps)
    np.testing.assert_allclose(B @ vals.ravel(), rhs.ravel(), atol=1e-12)


def test_euclid_sections_dimensions():
    assert s.euclid_sections(identity_path(3, 5)).shape[1] == 3
    assert s.euclid_sections(frustrated_two_cycle()).shape[1] == 0
    no_edges = EuclidSheaf(2, [0, 1, 2], [], [])
    assert s.euclid_sections(no_edges).shape[1] == 6


# ---------------------------------------------------------------------------
# the embedding


def test_embed_phi_spectrum():
    np.testing.assert_allclose(embed_phi(np.zeros(3)), 1e-4 * np.eye(3),
                               atol=1e-18)
    P = embed_phi(np.array([1.0, 0.0, 0.0]))
    np.testing.assert_allclose(P, np.diag([1 + 1e-4, 1e-4, 1e-4]), atol=1e-15)
    x = np.array([0.3, -0.8, 0.52])
    w = np.sort(np.linalg.eigvalsh(embed_phi(x)))[::-1]
    np.testing.assert_allclose(w[0], x @ x + 1e-4, atol=1e-12)
    np.testing.assert_allclose(w[1:], [1e-4, 1e-4], atol=1e-15)
    X = np.random.default_rng(3).normal(size=(2, 4, 3))
    out = embed_phi(X)
    assert out.shape == (2, 4, 3, 3)
    for idx in np.ndindex(2, 4):
        assert np.array_equal(out[idx], embed_phi(X[idx]))
    # the last axis is the vector: an (n, 1) column is n one-vectors
    col = np.array([[1.0], [-2.0], [3.0]])
    assert np.array_equal(embed_phi(col), (col ** 2 + 1e-4)[..., None])


def test_embed_phi_erank_near_one():
    x = np.array([1.0, 0.0, 0.0])
    assert s.erank(embed_phi(x)) <= 1.05


def test_embedding_equivariance():
    rng = np.random.default_rng(1)
    for _ in range(30):
        M = random_orthogonal(3, rng)
        x = rng.normal(size=3)
        lhs = embed_phi(M @ x)
        rhs = s.congruence(M, embed_phi(x))
        assert np.max(np.abs(lhs - rhs)) <= 1e-10


def test_pullback_identity():
    rng = np.random.default_rng(2)
    for _ in range(20):
        M = random_orthogonal(3, rng)
        Sigma = random_spd(3, rng)
        x, y = rng.normal(size=3), rng.normal(size=3)
        lhs = x @ (M @ Sigma @ M.T) @ y
        rhs = (M.T @ x) @ Sigma @ (M.T @ y)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_matched_spd_sheaf_reuses_maps():
    rng = np.random.default_rng(3)
    esheaf = random_euclid_sheaf(3, 5, 1, rng)
    ssheaf = s.matched_spd_sheaf(esheaf)
    assert ssheaf.edges == esheaf.edges
    for (mt, mh), (nt, nh) in zip(esheaf.maps, ssheaf.maps):
        np.testing.assert_array_equal(mt, nt)
        np.testing.assert_array_equal(mh, nh)


# ---------------------------------------------------------------------------
# kernel correspondence


def test_correspondence_constant_section_identity_tree():
    esheaf = identity_path(3, 4)
    x = {v: np.array([0.5, -1.0, 2.0]) for v in esheaf.vertices}
    report = s.check_kernel_correspondence(esheaf, x)
    assert report.spd_section
    assert report.converse_mode == "entrywise"
    assert report.converse_pass


def test_correspondence_on_computed_basis():
    rng = np.random.default_rng(4)
    for _ in range(10):
        esheaf = random_euclid_sheaf(3, 6, 0, rng)
        basis = s.euclid_sections(esheaf)
        assert basis.shape[1] >= 1
        for col in range(basis.shape[1]):
            x = vec_cochain_from_vec(esheaf, basis[:, col])
            report = s.check_kernel_correspondence(esheaf, x)
            assert report.forward_max_residual <= 1e-7
            # generic orthogonal maps: converse only determined up to gauge
            assert report.converse_mode in ("entrywise", "gauge_class_only")


def test_forward_inclusion_elementwise():
    rng = np.random.default_rng(5)
    esheaf = random_euclid_sheaf(2, 5, 1, rng)
    ssheaf = s.matched_spd_sheaf(esheaf)
    basis = s.euclid_sections(esheaf)
    for col in range(basis.shape[1]):
        for Y in s.coboundary(ssheaf, embed_phi(basis[:, col].reshape(-1, 2))):
            assert s.dist_lem(Y, np.eye(2)) <= 1e-7


def test_frustrated_cycle_quotients_line_bundle():
    esheaf = frustrated_two_cycle()
    # no Euclidean section exists
    assert s.euclid_sections(esheaf).shape[1] == 0
    # yet the embedded cochain from x = (1, 1) is an SPD section: signs cancel
    x = {0: np.array([1.0]), 1: np.array([1.0])}
    report = s.check_kernel_correspondence(esheaf, x)
    assert report.spd_section
    assert report.converse_mode == "entrywise"
    assert report.converse_pass
    # and the SPD kernel is genuinely larger
    assert s.global_sections(s.matched_spd_sheaf(esheaf)).shape[1] >= 1


# ---------------------------------------------------------------------------
# strictness


def test_strictness_witness_identity_path():
    sheaf = s.SheafGraph.identity_maps(3, range(4), [(0, 1), (1, 2), (2, 3)])
    witness = s.strictness_witness(sheaf)
    for X in witness.values():
        np.testing.assert_allclose(X, np.diag([1.0, 2.0, 3.0]), atol=1e-12)
    for Y in s.coboundary(sheaf, witness):
        assert s.dist_lem(Y, np.eye(3)) <= 1e-7


def test_strictness_witness_transported():
    rng = np.random.default_rng(6)
    esheaf = random_euclid_sheaf(3, 6, 0, rng)  # tree with random maps
    sheaf = s.matched_spd_sheaf(esheaf)
    witness = s.strictness_witness(sheaf)
    for X in witness.values():
        w = np.sort(np.linalg.eigvalsh(X))
        np.testing.assert_allclose(w, [1.0, 2.0, 3.0], atol=1e-9)
    for Y in s.coboundary(sheaf, witness):
        assert s.dist_lem(Y, np.eye(3)) <= 1e-7


def test_witness_outside_embedding_image():
    # embedded vectors have at most two distinct eigenvalues
    rng = np.random.default_rng(7)
    for _ in range(20):
        x = rng.normal(size=3)
        w = np.sort(np.linalg.eigvalsh(embed_phi(x)))
        distinct = 1 + int(np.sum(np.diff(w) > 1e-8))
        assert distinct <= 2


def test_witness_requires_trivial_holonomy_and_dim():
    R = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    I = np.eye(3)
    cyc = s.SheafGraph(3, [0, 1, 2], [(0, 1), (1, 2), (2, 0)], [(I, I), (I, I), (R, I)])
    with pytest.raises(NotApplicableError):
        s.strictness_witness(cyc)
    small = s.SheafGraph.identity_maps(2, range(2), [(0, 1)])
    with pytest.raises(NotApplicableError):
        s.strictness_witness(small)


def test_index_jump_identity_forest():
    # per component, SPD kernel gains n(n+1)/2 - n = n(n-1)/2 over Euclidean
    for n in (2, 3, 4):
        esheaf = identity_path(n, 5)
        ssheaf = s.matched_spd_sheaf(esheaf)
        jump = s.global_sections(ssheaf).shape[1] - s.euclid_sections(esheaf).shape[1]
        assert jump == n * (n - 1) // 2
    # two components double the jump
    esheaf = EuclidSheaf.identity_maps(3, range(6), [(0, 1), (1, 2), (3, 4), (4, 5)])
    ssheaf = s.matched_spd_sheaf(esheaf)
    jump = s.global_sections(ssheaf).shape[1] - s.euclid_sections(esheaf).shape[1]
    assert jump == 2 * 3


def test_embedded_kernel_contained_in_spd_kernel():
    rng = np.random.default_rng(8)
    for _ in range(10):
        esheaf = random_euclid_sheaf(3, 5, 1, rng)
        ssheaf = s.matched_spd_sheaf(esheaf)
        basis = s.euclid_sections(esheaf)
        spd_basis = s.global_sections(ssheaf)
        for col in range(basis.shape[1]):
            x = vec_cochain_from_vec(esheaf, basis[:, col])
            vec = np.concatenate([
                sym_to_vec(s.spd_log(embed_phi(x[v]))) for v in ssheaf.vertices])
            # membership: projection onto the kernel basis reproduces the vector
            proj = spd_basis @ (spd_basis.T @ vec)
            assert np.linalg.norm(proj - vec) <= 1e-7 * max(1.0, np.linalg.norm(vec))


@pytest.mark.parametrize("eps", [1e-7, 1e-6, 1e-3])
def test_small_cycle_rotation_is_nontrivial_holonomy(eps):
    # a two-edge cycle whose holonomy turns the (x, y) plane by eps: only the
    # z axis is fixed in R^3, and only span{I_xy, e_z e_z^T} in Sym_3; a
    # null-space cutoff that counts eps as zero fixes everything
    c, si = np.cos(eps), np.sin(eps)
    R = np.array([[c, -si, 0.0], [si, c, 0.0], [0.0, 0.0, 1.0]])
    I = np.eye(3)
    esheaf = EuclidSheaf(3, [0, 1], [(0, 1), (0, 1)], [(I, I), (R, I)])
    ssheaf = s.matched_spd_sheaf(esheaf)
    assert s.euclid_sections(esheaf).shape[1] == 1
    assert s.global_sections(ssheaf).shape[1] == 2
    assert section_space_summary(ssheaf)["kernel_dim"] == 2
