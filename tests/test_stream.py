"""Geometric stream: lifting, frames, layers, pooling, probe machinery."""

import ast
import dataclasses
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import spdsheaf as s
from spdsheaf import sheaf as sheaf_module
from spdsheaf import stream
from spdsheaf.cli import main
from spdsheaf.errors import DomainError, InvalidInputError
from spdsheaf.spd import _log_power_mean, sym_to_vec
from spdsheaf.stream import (
    RE_EIG_DELTA,
    LayerParams,
    PointCloud,
    canonicalize,
    geometric_graph,
    learnable_isometry,
    planar_cloud,
    planarity_experiment,
    run_layers,
    sheaf_learner,
    spd_sheaf_layer,
    trace_row,
)
from spdsheaf.verify import random_orthogonal, random_spd


# zero weights: identity restriction maps and isometry
IDENTITY_PARAMS = LayerParams(w_q=np.eye(3), mlp_w1=np.zeros((stream._HIDDEN, 12)),
                              mlp_b1=np.zeros(stream._HIDDEN),
                              mlp_w2=np.zeros((6, stream._HIDDEN)), mlp_b2=np.zeros(6))


def knn_edges(pts) -> list[tuple[int, int]]:
    """The 3-NN edge list of one cloud: the batched builder's one-cloud case."""
    tails, heads = stream._knn_pairs([np.asarray(pts, dtype=np.float64)])
    return list(zip(tails.tolist(), heads.tolist()))


def cloud(seed=0, n=10, radius=0.9):
    rng = np.random.default_rng(seed)
    pts = rng.normal(scale=0.7, size=(n, 3))
    return PointCloud(pts, geometric_graph(pts, radius=radius))


def rotation3(rng):
    M = random_orthogonal(3, rng)
    return M if np.linalg.det(M) > 0 else -M


# ---------------------------------------------------------------------------
# lifting


def test_lift_symmetric_pair():
    pc = PointCloud([[1.0, 2.0, 3.0], [-1.0, -2.0, -3.0]], [(0, 1)])
    sigma = s.lift_coordinates(pc)
    np.testing.assert_allclose(sigma[0], sigma[1], atol=1e-12)
    assert s.erank(sigma[0]) <= 1.05


def test_lift_centroid_point():
    pc = PointCloud([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]],
                    [(0, 1), (0, 2)])
    sigma = s.lift_coordinates(pc)
    np.testing.assert_allclose(sigma[0], 1e-4 * np.eye(3), atol=1e-12)
    assert s.erank(sigma[0]) >= 2.99


def test_lift_is_phi_of_the_unit_directions():
    pc = cloud(4)
    centered = pc.points - pc.points.mean(axis=0)
    u = centered / (np.linalg.norm(centered, axis=1, keepdims=True) + 1e-8)
    expected = u[:, :, None] * u[:, None, :] + 1e-4 * np.eye(3)
    assert np.array_equal(s.lift_coordinates(pc), expected)


def test_lift_translation_invariant():
    pc = cloud(1)
    sigma = s.lift_coordinates(pc)
    shifted = PointCloud(pc.points + np.array([5.0, -3.0, 11.0]), pc.edges)
    sigma2 = s.lift_coordinates(shifted)
    for v in pc.ids:
        np.testing.assert_allclose(sigma[v], sigma2[v], atol=1e-12)


# ---------------------------------------------------------------------------
# local frames


def test_frames_orthogonal_and_equivariant():
    pc = cloud(2)
    frames, flags = s.local_frame(pc)
    assert not any(flags)
    for M in frames:
        assert np.linalg.norm(M.T @ M - np.eye(3)) <= 1e-10
    rng = np.random.default_rng(3)
    R = rotation3(rng)
    rotated = PointCloud(pc.points @ R.T, pc.edges)
    frames2, _ = s.local_frame(rotated)
    for v in pc.ids:
        np.testing.assert_allclose(frames2[v], R @ frames[v], atol=1e-8)


def test_canonicalize_is_the_per_row_product_and_checks_shapes():
    pc = cloud(6)
    sigma, frames = s.lift_coordinates(pc), s.local_frame(pc)[0]
    out = canonicalize(sigma, frames)
    assert np.array_equal(out, [M.T @ X @ M for X, M in zip(sigma, frames)])
    with pytest.raises(InvalidInputError, match="differ"):
        canonicalize(sigma[:-1], frames)


def test_canonicalized_lift_rotation_invariant():
    pc = cloud(4)
    rng = np.random.default_rng(5)
    base = canonicalize(s.lift_coordinates(pc), s.local_frame(pc)[0])
    for _ in range(5):
        R = rotation3(rng)
        pc2 = PointCloud(pc.points @ R.T, pc.edges)
        out = canonicalize(s.lift_coordinates(pc2), s.local_frame(pc2)[0])
        for v in pc.ids:
            assert np.max(np.abs(out[v] - base[v])) <= 1e-8


def _count_checks(monkeypatch) -> list:
    """The stalk dimension of every graph check: every public graph
    constructor validates in ``sheaf._checked_parts``, once."""
    calls, check = [], sheaf_module._checked_parts

    def counted(*args):
        calls.append(args[0])
        return check(*args)

    monkeypatch.setattr(sheaf_module, "_checked_parts", counted)
    return calls


def test_cloud_topology_is_one_graph(monkeypatch):
    pc = cloud(28, n=12)
    assert pc.ids == pc.graph.vertices and pc.edges == pc.graph.edges
    checks = _count_checks(monkeypatch)
    rng = np.random.default_rng(29)
    run_layers(pc, s.spd_log(s.lift_coordinates(pc)),
               [LayerParams.random(3, rng=rng) for _ in range(3)])
    assert checks == []
    for identity_maps in (False, True):
        s.diffusion_run(pc, layers=16, seed=3, identity_maps=identity_maps)
    assert checks == []
    s.SheafGraph(3, pc.ids, pc.edges, pc.graph.maps)
    s.SheafGraph.identity_maps(3, pc.ids, pc.edges)
    assert checks == [3, 3]


def test_probe_makes_no_graph_check_and_one_union_per_chunk(monkeypatch):
    # the probe draws points, not clouds: no PointCloud and no graph check
    # per cloud, and one graph per chunk of clouds
    draw, clouds = stream.planar_cloud, []
    monkeypatch.setattr(stream, "planar_cloud",
                        lambda rng, planar: clouds.append(draw(rng, planar)) or clouds[-1])
    sizes, union = [], s.SheafGraph._identity_union
    monkeypatch.setattr(s.SheafGraph, "_identity_union",
                        lambda n, N, *ends: sizes.append(N) or union(n, N, *ends))
    built, init = [], PointCloud.__init__
    monkeypatch.setattr(PointCloud, "__init__",
                        lambda self, *a, **kw: built.append(1) or init(self, *a, **kw))
    checks = _count_checks(monkeypatch)
    planarity_experiment(301, n_per_class=40, n_layers=2)
    assert len(clouds) == 80 and checks == [] and built == []
    assert len(sizes) == _chunk_count([len(pts) for pts in clouds]) < 80
    assert sum(sizes) == sum(len(pts) for pts in clouds)


def test_swapped_maps_share_the_topology():
    pc = cloud(30, n=9)
    rng = np.random.default_rng(31)
    A = rng.normal(size=(len(pc.edges), 2, 3, 3))
    maps = s.cayley(A - np.swapaxes(A, -1, -2))
    swapped = pc.graph._with_maps(maps[:, 0], maps[:, 1])
    assert swapped._tails is pc.graph._tails and swapped._heads is pc.graph._heads
    assert swapped.edges is pc.edges
    assert swapped.vertices == pc.ids and swapped.edges == pc.edges
    assert len(swapped.maps) == len(pc.edges)
    for k, (mt, mh) in enumerate(swapped.maps):
        np.testing.assert_array_equal(mt, maps[k, 0])
        np.testing.assert_array_equal(mh, maps[k, 1])
        assert not mt.flags.writeable and not mh.flags.writeable
    for mt, mh in pc.graph.maps:  # the cloud keeps its identity maps
        np.testing.assert_array_equal(mt, np.eye(3))
        np.testing.assert_array_equal(mh, np.eye(3))
    expected = maps.copy()
    maps[:] = 0.0  # the swapped graph owns copies
    np.testing.assert_array_equal(swapped._tail_maps, expected[:, 0])
    np.testing.assert_array_equal(swapped._head_maps, expected[:, 1])


@pytest.mark.parametrize("ids, edges, message", [
    ([0, 1, 0], [(0, 1)], "duplicate vertex ids"),
    ([0, 1, 2], [(0, 3)], "unknown vertex"),
    ([0, 1, 2], [(1, 1)], "self-loop"),
])
def test_cloud_topology_validated(ids, edges, message):
    with pytest.raises(InvalidInputError, match=message):
        PointCloud(np.zeros((3, 3)), edges, ids=ids)


@pytest.mark.parametrize("shape", [(2, 6), (3, 2), (6,)])
def test_cloud_points_must_be_n_by_3(shape):
    # (2, 6) and (3, 2) hold 12 and 6 numbers, a whole number of points
    with pytest.raises(InvalidInputError, match=r"\(N, 3\) array"):
        PointCloud(np.zeros(shape), [])


def test_trace_row_rejects_logs_whose_symmetrization_overflows():
    with pytest.raises(InvalidInputError, match="non-finite"):
        trace_row(np.full((4, 3, 3), 1e308))


def test_frames_collinear_fallback():
    pts = [[1.0, 0, 0], [2.0, 0, 0], [3.0, 0, 0]]
    pc = PointCloud(pts, [(0, 1), (1, 2)])
    frames, flags = s.local_frame(pc)
    assert any(flags)
    for M in frames:
        assert np.linalg.norm(M.T @ M - np.eye(3)) <= 1e-10


def _loop_frames(pc):
    """Per-vertex loop reference for local_frame."""
    centered = pc.points - pc.points.mean(axis=0)
    neighbors = [[] for _ in pc.ids]
    for t, h in zip(pc.graph._tails.tolist(), pc.graph._heads.tolist()):
        neighbors[t].append(h)
        neighbors[h].append(t)
    frames = np.empty((pc.n_points, 3, 3))
    flags = np.zeros(pc.n_points, dtype=bool)
    for i in range(pc.n_points):
        u = centered[i]
        if np.linalg.norm(u) < 1e-12:
            u = np.array([1.0, 0.0, 0.0])
            flags[i] = True
        v1 = u / np.linalg.norm(u)
        agg = np.zeros(3)
        for j in neighbors[i]:
            d = pc.points[j] - pc.points[i]
            if np.linalg.norm(d) > 0:
                agg += d / np.linalg.norm(d)
        v2 = agg - np.dot(agg, v1) * v1
        if np.linalg.norm(v2) < 1e-8 * max(1.0, np.linalg.norm(agg)):
            axis = np.zeros(3)
            axis[np.argmin(np.abs(v1))] = 1.0
            v2 = axis - np.dot(axis, v1) * v1
            flags[i] = True
        v2 = v2 / np.linalg.norm(v2)
        frames[i] = np.column_stack([v1, v2, np.cross(v1, v2)])
    return frames, flags


_FRAME_CLOUDS = {
    # vertex 2 sits at the centroid
    "centroid_vertex": ([[1.0, 0, 0], [-1.0, 0, 0], [0, 0, 0], [0, 1.0, 2.0], [0, -1.0, -2.0]],
                        [(0, 2), (1, 2), (2, 3), (3, 4), (0, 3)]),
    "isolated_vertex": ([[0.3, 0.1, 0], [1.0, 0.5, 0.2], [-0.4, 0.9, 1.1], [2.0, -1.0, 0.5]],
                        [(0, 1), (1, 2)]),
    # points 1 and 2 coincide, so edge (1, 2) has length 0
    "duplicate_points": ([[0.3, 0.1, 0], [1.0, 0.5, 0.2], [1.0, 0.5, 0.2], [-0.7, 0.2, 0.9]],
                         [(0, 1), (1, 2), (2, 3), (0, 3)]),
    "collinear_neighbours": ([[1.0, 0, 0], [2.0, 0, 0], [3.0, 0, 0], [0, 1.0, 1.0]],
                             [(0, 1), (1, 2), (0, 2)]),
    "one_point": ([[0.3, 0.1, 0.2]], []),
}


@pytest.mark.parametrize("case", sorted(_FRAME_CLOUDS))
def test_frames_match_vertex_loop(case):
    pc = PointCloud(*_FRAME_CLOUDS[case])
    frames, flags = s.local_frame(pc)
    ref_frames, ref_flags = _loop_frames(pc)
    np.testing.assert_array_equal(flags, ref_flags)
    np.testing.assert_allclose(frames, ref_frames, rtol=0, atol=1e-12)
    if case in ("centroid_vertex", "collinear_neighbours", "one_point"):
        assert flags.any()


def test_frames_match_vertex_loop_on_random_clouds():
    rng = np.random.default_rng(23)
    for _ in range(40):
        n = int(rng.integers(1, 15))
        pts = rng.normal(size=(n, 3))
        pc = PointCloud(pts, geometric_graph(pts, radius=float(rng.uniform(0.2, 1.5))))
        frames, flags = s.local_frame(pc)
        ref_frames, ref_flags = _loop_frames(pc)
        np.testing.assert_array_equal(flags, ref_flags)
        np.testing.assert_allclose(frames, ref_frames, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# parameterizations


def test_learnable_isometry():
    np.testing.assert_allclose(learnable_isometry(np.eye(3)), np.eye(3), atol=1e-14)
    W = np.diag([-2.0, 3.0, 1.0])
    Q = learnable_isometry(W)
    np.testing.assert_allclose(np.abs(Q), np.eye(3), atol=1e-12)
    # sign-fix convention: the implied triangular factor has nonnegative diagonal
    assert np.all(np.diag(Q.T @ W) >= 0)
    rng = np.random.default_rng(7)
    for _ in range(20):
        W = rng.normal(size=(3, 3))
        Q = learnable_isometry(W)
        assert np.linalg.norm(Q.T @ Q - np.eye(3)) <= 1e-10
        assert np.all(np.diag(Q.T @ W) >= -1e-12)
    # QR orthogonalizes rank-deficient seeds too, with no perturbation
    for W in (np.zeros((3, 3)), np.ones((3, 3)), np.diag([1.0, 0.0, 2.0]),
              rng.normal(size=(3, 2)) @ rng.normal(size=(2, 3))):
        Q = learnable_isometry(W)
        assert np.linalg.norm(Q.T @ Q - np.eye(3)) <= 1e-10
        assert np.all(np.diag(Q.T @ W) >= -1e-12)


def test_sheaf_learner_zero_weights_identity():
    params = IDENTITY_PARAMS
    h = np.zeros((1, 6))
    Mt, Mh = sheaf_learner(params, h, h)
    np.testing.assert_allclose(Mt, np.eye(3)[None], atol=1e-14)
    np.testing.assert_allclose(Mh, np.eye(3)[None], atol=1e-14)


def test_sheaf_learner_independent_heads():
    rng = np.random.default_rng(8)
    params = LayerParams.random(3, rng=rng)
    h = rng.normal(size=(1, 6))
    (Mt,), (Mh,) = sheaf_learner(params, h, h)  # same inputs, two heads
    assert np.linalg.norm(Mt - Mh) > 1e-6
    for M in (Mt, Mh):
        assert np.linalg.norm(M.T @ M - np.eye(3)) <= 1e-10
    with pytest.raises(InvalidInputError):
        sheaf_learner(params, np.zeros((1, 5)), np.zeros((1, 6)))


def test_sheaf_learner_stack_matches_rows():
    rng = np.random.default_rng(24)
    params = LayerParams.random(3, rng=rng)
    # larger output weights take the maps far from the identity
    params = dataclasses.replace(params, mlp_w2=3.0 * params.mlp_w2, mlp_b2=3.0 * params.mlp_b2)
    H_u, H_v = rng.normal(size=(2, 9, 6))
    Mt, Mh = sheaf_learner(params, H_u, H_v)
    assert Mt.shape == Mh.shape == (9, 3, 3)
    for e in range(9):
        (mt,), (mh,) = sheaf_learner(params, H_u[e:e + 1], H_v[e:e + 1])
        # one matmul over the stack sums in another order than per row
        np.testing.assert_allclose(Mt[e], mt, rtol=0, atol=1e-13)
        np.testing.assert_allclose(Mh[e], mh, rtol=0, atol=1e-13)
    Mt, Mh = sheaf_learner(params, H_u[:0], H_v[:0])
    assert Mt.shape == Mh.shape == (0, 3, 3)


@pytest.mark.parametrize("h_u, h_v", [
    (np.zeros((4, 5)), np.zeros((4, 6))),
    (np.zeros((4, 6)), np.zeros((3, 6))),
    (np.zeros(6), np.zeros((1, 6))),
    (np.zeros((2, 2, 6)), np.zeros((2, 2, 6))),
    (np.zeros(6), np.zeros(6)),
])
def test_sheaf_learner_rejects_mismatched_stacks(h_u, h_v):
    with pytest.raises(InvalidInputError):
        sheaf_learner(IDENTITY_PARAMS, h_u, h_v)


# ---------------------------------------------------------------------------
# convolution layer


def _re_eig_log(P):
    """Reference ReEig in the SPD domain, then the log: an eigenvalue of P that
    is at most 1 becomes exp(0.1 i), i its 1-based position in descending order."""
    w, V = np.linalg.eigh(P)
    w, V = w[::-1], V[:, ::-1]
    w = np.where(w > 1.0, w, np.exp(0.1 * np.arange(1, w.size + 1)))
    return (V * np.log(w)) @ V.T


def test_layer_identity_params_global_section():
    # identity maps and isometry make a constant cochain a global section,
    # so the update is exactly 0 and the layer is ReEig alone
    pc = cloud(9)
    P = random_spd(3, np.random.default_rng(10))
    logs = np.broadcast_to(s.spd_log(P), (len(pc.ids), 3, 3))
    out = spd_sheaf_layer(pc.graph, logs, IDENTITY_PARAMS)
    assert out.shape == (len(pc.ids), 3, 3)
    for row in out:
        np.testing.assert_allclose(row, _re_eig_log(P), atol=1e-9)


def test_layer_re_eig_floor_examples():
    # a log eigenvalue <= 0 at descending position i becomes 0.1 i; a positive
    # one passes even below its floor
    pc = cloud(9)
    for spectrum, floored in [([1.1, 3.0, 4.0], np.log([1.1, 3.0, 4.0])),
                              ([0.5, 0.1, 0.2], [0.1, 0.3, 0.2]),
                              ([3.0, 0.5, 1.0], [math.log(3.0), 0.3, 0.2])]:
        logs = np.broadcast_to(np.diag(np.log(spectrum)), (len(pc.ids), 3, 3))
        out = spd_sheaf_layer(pc.graph, logs, IDENTITY_PARAMS)
        for row in out:
            np.testing.assert_allclose(row, np.diag(floored), atol=1e-12)


def count_eigs(monkeypatch) -> dict:
    """Counts of np.linalg.eigh and eigvalsh calls from here on."""
    calls = {"eigh": 0, "eigvalsh": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(np.linalg, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def test_layer_makes_one_eigh_and_one_eigvalsh(monkeypatch):
    pc = cloud(19, n=8)
    params = LayerParams.random(3, rng=np.random.default_rng(20))
    logs = s.spd_log(s.lift_coordinates(pc))
    calls = count_eigs(monkeypatch)
    spd_sheaf_layer(pc.graph, logs, params)
    assert calls == {"eigh": 1, "eigvalsh": 1}


@pytest.mark.parametrize("L", [0, 1, 4])
def test_run_layers_makes_one_eigh_and_two_eigvalsh_per_layer(monkeypatch, L):
    # one eigh and one eigvalsh per layer, one eigvalsh per trace row
    pc = cloud(19, n=8)
    rng = np.random.default_rng(20)
    params = [LayerParams.random(3, rng=rng) for _ in range(L)]
    logs = s.spd_log(s.lift_coordinates(pc))
    calls = count_eigs(monkeypatch)
    run_layers(pc, logs, params)
    assert calls == {"eigh": L, "eigvalsh": 2 * L + 1}


@pytest.mark.parametrize("identity_maps", [False, True])
@pytest.mark.parametrize("L", [0, 1, 4])
def test_diffusion_run_eigendecomposition_count(monkeypatch, L, identity_maps):
    # one eigh and one eigvalsh per step, one eigvalsh per trace row, one log
    # of the lift and, after any step, one eigh for the values
    pc = cloud(19, n=8)
    calls = count_eigs(monkeypatch)
    s.diffusion_run(pc, layers=L, seed=3, identity_maps=identity_maps)
    assert calls == {"eigh": L + 1 + (L > 0), "eigvalsh": 2 * L + 1}


@pytest.mark.parametrize("L", [0, 1, 5])
def test_diffusion_run_steps_and_traces_its_logs(monkeypatch, L):
    # a benchmark counts diffusion_step by name and reads trace_row's first
    # positional argument as the stack it traces
    steps, traced = [], []
    step, row = stream.diffusion_step, stream.trace_row

    def counted_step(*args, **kwargs):
        steps.append(step(*args, **kwargs))
        return steps[-1]

    def counted_row(*args, **kwargs):
        traced.append(args[0])
        return row(*args, **kwargs)

    monkeypatch.setattr(stream, "diffusion_step", counted_step)
    monkeypatch.setattr(stream, "trace_row", counted_row)
    pc = cloud(19, n=8)
    s.diffusion_run(pc, layers=L, seed=3)
    assert len(steps) == L and len(traced) == L + 1
    np.testing.assert_array_equal(traced[0], s.spd_log(s.lift_coordinates(pc)))
    assert all(logs is out for logs, out in zip(traced[1:], steps))


@pytest.mark.parametrize("seed", [1, 5])
def test_diffusion_run_values_stay_in_the_clamp_box(seed):
    # the values come from the last clamp's spectrum clipped again: a plain
    # exp of the last logs re-derives the spectrum and can leave the box by
    # about 1e-10 at 1e4
    pts = np.random.default_rng(seed).normal(size=(60, 3))
    pc = PointCloud(pts, knn_edges(pts))
    for kwargs, capped in (({}, True), ({"identity_maps": True, "residual": False}, False)):
        final, _ = s.diffusion_run(pc, layers=16, seed=seed, **kwargs)
        w = np.linalg.eigvalsh(final)
        slack = 1e-14 * np.max(np.abs(w))
        assert 1e-4 - slack <= w.min() and w.max() <= 1e4 + slack
        if capped:  # the plain run reaches both ends of the box
            assert w.max() >= 1e4 - slack and w.min() <= 1e-4 + slack


@pytest.mark.parametrize("bad", ["asymmetric", "nan"])
def test_layer_rejects_asymmetric_or_nan_logs(bad):
    pc = cloud(21, n=6)
    logs = s.spd_log(s.lift_coordinates(pc))
    if bad == "asymmetric":
        logs[2, 0, 1] += 1e-6
    else:
        logs[2, 1, 1] = np.nan
    with pytest.raises(InvalidInputError):
        spd_sheaf_layer(pc.graph, logs, IDENTITY_PARAMS)


@pytest.mark.parametrize("form", ["batched", "wrong_n"])
def test_layer_takes_one_log_stack(form):
    # the logs are one (|V|, n, n) array in vertex order
    pc = cloud(21, n=6)
    logs = s.spd_log(s.lift_coordinates(pc))
    bad = {"batched": logs[None], "wrong_n": logs[:, :2, :2]}[form]
    with pytest.raises(InvalidInputError):
        spd_sheaf_layer(pc.graph, bad, IDENTITY_PARAMS)


def _layer_reference(edges, logs, params):
    """The layer rebuilt from public operators: learned maps on a checked
    sheaf, the Laplacian of the values conjugated by Q, its per-vertex
    division by max(1, spectral radius) and the documented floor of the sum."""
    feats = sym_to_vec(logs)
    tails, heads = np.array(edges).T
    maps = np.stack(sheaf_learner(params, feats[tails], feats[heads]), axis=1)
    sheaf = s.SheafGraph(3, range(len(logs)), edges, maps)
    Q = params.isometry
    delta = s.spd_log(s.laplacian(sheaf, Q @ s.sym_exp(logs) @ Q.T))
    radii = np.max(np.abs(np.linalg.eigvalsh(delta)), axis=-1)
    w, V = np.linalg.eigh(logs + delta / np.maximum(1.0, radii)[:, None, None])
    # a log eigenvalue w <= 0 becomes RE_EIG_DELTA times its descending position
    w = np.where(w > 0.0, w, RE_EIG_DELTA * np.arange(3, 0, -1))
    return (V * w[:, None, :]) @ np.swapaxes(V, -1, -2)


def test_layer_matches_a_reference_from_public_operators():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        pts = rng.normal(scale=0.7, size=(12, 3))
        edges = geometric_graph(pts, radius=0.9)
        A = rng.normal(size=(12, 3, 3))
        logs = A + np.swapaxes(A, -1, -2)
        logs *= rng.uniform(0.2, 1.5) / np.max(np.abs(logs))
        params = LayerParams.random(3, rng=rng)
        out = spd_sheaf_layer(s.SheafGraph.identity_maps(3, range(12), edges), logs, params)
        ref = _layer_reference(edges, logs, params)
        assert np.max(np.abs(out - ref)) <= 1e-7 * np.max(np.abs(ref)), seed


def test_layer_raises_erank():
    pc = cloud(11, n=6)
    rng = np.random.default_rng(12)
    logs = s.spd_log(canonicalize(s.lift_coordinates(pc), s.local_frame(pc)[0]))
    base = trace_row(logs).mean_erank
    out = spd_sheaf_layer(pc.graph, logs, LayerParams.random(3, rng=rng))
    assert trace_row(out).mean_erank - base >= 1.2


def test_layer_rotation_invariance():
    pc = cloud(13, n=8)
    rng = np.random.default_rng(14)
    params = [LayerParams.random(3, rng=rng)]
    base = s.geometric_descriptor(pc, params)
    for _ in range(5):
        R = rotation3(rng)
        t = rng.normal(size=3)
        pc2 = PointCloud(pc.points @ R.T + t, pc.edges)
        assert np.max(np.abs(s.geometric_descriptor(pc2, params) - base)) <= 1e-7


# ---------------------------------------------------------------------------
# pooling and traces


def _pooled(logs):
    """The descriptor's pooling of one (k, 3, 3) log stack, as a 6-vector."""
    return sym_to_vec(_log_power_mean(logs, 0.5, [0])[0])


def test_pooled_descriptor_examples():
    # the logs of identity values pool to 0, and equal logs pool to themselves
    np.testing.assert_allclose(_pooled(np.zeros((4, 3, 3))), np.zeros(6), atol=1e-12)
    L = s.spd_log(random_spd(3, np.random.default_rng(15)))
    np.testing.assert_allclose(_pooled(np.stack([L] * 4)), sym_to_vec(L), atol=1e-10)


def _eigh_map(X, f):
    """V diag(f(w)) V^T of one symmetric matrix, independent of the package."""
    w, V = np.linalg.eigh(X)
    return (V * f(w)) @ V.T


def test_pooled_descriptor_is_the_power_mean_of_the_values():
    rng = np.random.default_rng(24)
    for k in (1, 2, 7):
        logs = s.spd_log(np.stack([random_spd(3, rng) for _ in range(k)]))
        # the values' square roots exp(L / 2), their mean M, and log M**2
        mean = np.mean([_eigh_map(L, lambda w: np.exp(w / 2)) for L in logs], axis=0)
        ref = _eigh_map(mean, lambda w: 2 * np.log(w))
        np.testing.assert_allclose(_pooled(logs), sym_to_vec(ref),
                                   rtol=0, atol=1e-12)


def test_pooled_descriptor_does_not_overflow():
    # diagonal logs with entries up to 1500, whose exp overflows float64: the
    # pooled log is diagonal too, with 2 log mean exp(d / 2) on the diagonal
    diag = np.array([[1500.0, 3.0, -2.0], [1490.0, 700.0, 1.0], [0.5, 1200.0, 900.0],
                     [-30.0, 1199.0, 899.0]])
    top = diag.max(axis=0)
    pooled = top + 2.0 * np.log(np.mean(np.exp((diag - top) / 2), axis=0))
    np.testing.assert_allclose(_pooled(diag[:, :, None] * np.eye(3)),
                               sym_to_vec(np.diag(pooled)), rtol=1e-13, atol=1e-12)


@pytest.mark.parametrize("frame_invariant", [True, False])
def test_descriptor_makes_five_eighs_at_two_layers(monkeypatch, frame_invariant):
    # one log after the lift, one per layer, one stacked eigh and one log in pooling
    pc = cloud(27, n=8)
    rng = np.random.default_rng(28)
    params = [LayerParams.random(3, rng=rng) for _ in range(2)]
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda *a, **k: calls.append(1) or eigh(*a, **k))
    stream._describe_chunk([pc.points], pc.graph, params, frame_invariant)
    assert len(calls) == 5


def _batch_of_clouds() -> list:
    """Planar-task point arrays around a 1-point cloud, a 2-point cloud and a
    cloud larger than one chunk."""
    rng = np.random.default_rng(29)
    clouds = [planar_cloud(rng, i % 2 == 0) for i in range(40)]
    clouds[3:3] = [np.array([[0.3, 0.2, 0.1]]), rng.normal(scale=0.5, size=(2, 3))]
    clouds.insert(20, rng.normal(scale=0.5, size=(stream._UNION_VERTICES + 40, 3)))
    return clouds


def _union_of(chunk) -> s.SheafGraph:
    """The probe's graph on a chunk of point arrays."""
    return s.SheafGraph._identity_union(3, sum(map(len, chunk)), *stream._knn_pairs(chunk))


@pytest.mark.parametrize("frame_invariant", [True, False])
def test_descriptor_rows_do_not_depend_on_the_batch(frame_invariant):
    clouds = _batch_of_clouds()
    chunks = list(stream._chunks(iter(clouds)))
    sizes = [[len(pts) for pts in chunk] for chunk in chunks]
    assert len(sizes) >= 4 and [stream._UNION_VERTICES + 40] in sizes
    assert [1] not in sizes and [2] not in sizes
    params = [LayerParams.random(3, rng=np.random.default_rng(30)) for _ in range(2)]
    rows = np.concatenate([stream._describe_chunk(chunk, _union_of(chunk), params,
                                                  frame_invariant) for chunk in chunks])
    assert rows.shape == (len(clouds), 6)
    if not frame_invariant:  # the probe's path
        assert np.array_equal(stream._descriptors(iter(clouds), params), rows)
    for pts, row in zip(clouds, rows):
        # the cloud alone, on its checked 3-NN graph
        pc = PointCloud(pts, knn_edges(pts))
        alone = stream._describe_chunk([pc.points], pc.graph, params, frame_invariant)[0]
        assert np.max(np.abs(row - alone)) <= 1e-12 * np.max(np.abs(alone))


def test_frames_of_a_union_are_each_clouds_own():
    # frames on a disjoint union of clouds, isolated vertices, a centroid
    # vertex, coincident points and collinear neighbours among them, equal
    # each cloud's local_frame bitwise
    rng = np.random.default_rng(33)
    pcs = [PointCloud(*_FRAME_CLOUDS[case]) for case in sorted(_FRAME_CLOUDS)]
    for _ in range(6):
        pts = rng.normal(size=(int(rng.integers(1, 15)), 3))
        pcs.append(PointCloud(pts, geometric_graph(pts, radius=float(rng.uniform(0.2, 1.5)))))
    offsets = np.cumsum([0] + [pc.n_points for pc in pcs])
    union = s.SheafGraph._identity_union(
        3, offsets[-1], np.concatenate([pc.graph._tails + o for pc, o in zip(pcs, offsets)]),
        np.concatenate([pc.graph._heads + o for pc, o in zip(pcs, offsets)]))
    clouds = [pc.points for pc in pcs]
    centered = np.concatenate([pts - pts.mean(axis=0) for pts in clouds])
    frames, flags = stream._frames(np.concatenate(clouds), centered, union)
    assert np.array_equal(frames, np.concatenate([s.local_frame(pc)[0] for pc in pcs]))
    assert np.array_equal(flags, np.concatenate([s.local_frame(pc)[1] for pc in pcs]))


def test_pooled_descriptor_permutation_invariant():
    rng = np.random.default_rng(16)
    values = [random_spd(3, rng) for _ in range(5)]
    logs = np.stack(values)  # any symmetric stack is a stack of logs
    perm = rng.permutation(5)
    a, b = _pooled(logs), _pooled(logs[perm])
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_pooled_descriptor_rejects_a_mean_singular_to_working_precision():
    # three commuting logs whose power mean has exact eigenvalues spanning
    # e^100: its smallest computed eigenvalue is rounding noise
    R = random_orthogonal(3, np.random.default_rng(0))
    spectra = [(600.0, 3.0, -2.0), (590.0, 300.0, 1.0), (0.5, 500.0, 400.0)]
    logs = np.stack([R @ np.diag(d) @ R.T for d in spectra])
    logs = 0.5 * (logs + np.swapaxes(logs, -1, -2))
    with pytest.raises(DomainError, match="singular to working precision"):
        _pooled(logs)
    # pooled per segment, the same stack fails behind a segment that pools
    segmented = np.concatenate([np.zeros((2, 3, 3)), logs])
    np.testing.assert_array_equal(_log_power_mean(segmented[:2], 0.5, [0]), np.zeros((1, 3, 3)))
    with pytest.raises(DomainError, match="singular to working precision"):
        _log_power_mean(segmented, 0.5, [0, 2])


def test_rank_trace_columns():
    pc = cloud(17, n=8)
    logs0 = s.spd_log(s.lift_coordinates(pc))
    row0 = trace_row(logs0)
    assert row0.mean_erank <= 1.05
    assert abs(row0.mean_lambda2 - 1e-4) <= 1e-6
    rng = np.random.default_rng(18)
    final, trace = run_layers(pc, logs0, [LayerParams.random(3, rng=rng)])
    # the mean erank recomputes from the values of the final logs
    eranks = [s.erank(s.sym_exp(final[v])) for v in pc.ids]
    np.testing.assert_allclose(trace.rows[1].mean_erank, np.mean(eranks), rtol=1e-12, atol=0)
    csv = trace.to_csv().splitlines()
    assert csv[0] == "layer,mean_erank,mean_lambda2,min_pairwise_lem"
    # row i of the trace is layer i, in the first column
    assert [line.split(",")[0] for line in csv[1:]] == ["0", "1"]
    assert csv[2] == ",".join(["1", *(repr(getattr(trace.rows[1], name))
                                      for name in csv[0].split(",")[1:])])


@pytest.mark.parametrize("block", [None, 5])
@pytest.mark.parametrize("N", [1, 2, 7, 40])
def test_trace_row_matches_pairwise_reference(N, block, monkeypatch):
    if block is not None:  # several row blocks per distance matrix
        monkeypatch.setattr(stream, "_PAIR_BLOCK", block)
    rng = np.random.default_rng(N)
    values = [random_spd(3, rng) for _ in range(N)]
    row = trace_row(s.spd_log(np.stack(values)))
    eranks = [s.erank(X) for X in values]
    lam2 = [np.sort(np.linalg.eigvalsh(X))[-2] for X in values]
    min_lem = min((s.dist_lem(values[i], values[j])
                   for i in range(N) for j in range(i + 1, N)), default=0.0)
    np.testing.assert_allclose(row.mean_erank, np.mean(eranks), rtol=1e-12, atol=0)
    np.testing.assert_allclose(row.mean_lambda2, np.mean(lam2), rtol=1e-12, atol=0)
    np.testing.assert_allclose(row.min_pairwise_lem, min_lem, rtol=1e-12, atol=0)


def _brute_min_distance(flat):
    # norm along axis -1 sums the squares pairwise, as the trace does; without
    # an axis it takes a dot product, which can differ in the last place
    i, j = np.triu_indices(len(flat), 1)
    return float(np.min(np.linalg.norm(flat[i] - flat[j], axis=-1)))


@pytest.mark.parametrize("block", [None, 7])
@pytest.mark.parametrize("N", [2, 3, 61, 300])
def test_min_pairwise_distance_equals_brute_force(N, block, monkeypatch):
    if block is not None:  # several row blocks, down to one row each
        monkeypatch.setattr(stream, "_PAIR_BLOCK", block)
    rng = np.random.default_rng(N)
    base = rng.normal(size=(N, 9))
    duplicate = base.copy()
    duplicate[-1] = duplicate[(N - 1) // 2]
    # rows k on a line exactly 1 apart, odd k nudged one ulp: near ties that
    # the GEMM distances cannot order
    ladder = np.zeros((N, 9))
    ladder[:, 4] = np.arange(N)
    ladder[1::2, 4] = np.nextafter(ladder[1::2, 4], np.inf)
    ladder = ladder[rng.permutation(N)]
    cases = {
        "random": base,
        "duplicate": duplicate,
        "ladder": ladder,
        "offset": 1e6 + base,
        "offset_ladder": 1e6 + ladder,
        "tiny": 1e-170 * base,
    }
    for name, flat in cases.items():
        got = stream._min_pairwise_distance(flat)
        assert got == _brute_min_distance(flat), name
        if N <= 61:  # the literal pair loop
            assert got == min(float(np.linalg.norm(flat[i] - flat[j], axis=-1))
                              for i in range(N) for j in range(i + 1, N)), name
    assert stream._min_pairwise_distance(duplicate) == 0.0


def test_trace_row_lambda2_is_accurate_for_ill_conditioned_values():
    # eigvalsh of the values resolves 1.0001e-4 next to 1e4 only to about
    # eps * 1e4 absolute; the logs carry it to relative rounding
    R = random_orthogonal(3, np.random.default_rng(6))
    logs = R @ np.diag(np.log([1e-4, 1.0001e-4, 1e4])) @ R.T
    row = trace_row(0.5 * (logs + logs.T)[None])
    np.testing.assert_allclose(row.mean_lambda2, 1.0001e-4, rtol=1e-13, atol=0)


def test_run_layers_stays_finite_past_exp_overflow():
    # the logs grow past 709, where their values overflow float64
    rng = np.random.default_rng(5)
    pts = planar_cloud(rng, True)
    pc = PointCloud(pts, knn_edges(pts))
    params = [LayerParams.random(3, rng=rng) for _ in range(800)]
    final, trace = run_layers(pc, s.spd_log(s.lift_coordinates(pc)), params)
    assert np.max(np.linalg.eigvalsh(final)) > 709.8
    assert np.all(np.isfinite(final)) and len(trace.rows) == 801
    assert all(np.isfinite(r.mean_erank) and np.isfinite(r.min_pairwise_lem)
               for r in trace.rows)
    assert trace.rows[-1].mean_lambda2 == np.inf


def test_trace_rows_only_where_asked(monkeypatch):
    calls = []
    original = stream.trace_row

    def counted(logs):
        calls.append(logs.shape)
        return original(logs)

    monkeypatch.setattr(stream, "trace_row", counted)
    planarity_experiment(seed=1, n_per_class=3)
    assert calls == []
    pc = cloud(26, n=6)
    rng = np.random.default_rng(27)
    run_layers(pc, s.spd_log(s.lift_coordinates(pc)),
               [LayerParams.random(3, rng=rng) for _ in range(3)])
    assert calls == [(6, 3, 3)] * 4


def test_isometry_once_per_layer_params(monkeypatch):
    calls = []
    original = stream.learnable_isometry

    def counted(W):
        calls.append(1)
        return original(W)

    monkeypatch.setattr(stream, "learnable_isometry", counted)
    # any n_per_class >= 2 gives each half of the split both classes
    planarity_experiment(seed=2, n_per_class=4, n_layers=2)
    assert len(calls) == 2


def test_single_point_trace_is_graceful():
    pc = PointCloud([[0.3, 0.2, 0.1]], [])
    final, trace = s.diffusion_run(pc, layers=2, seed=1)
    assert len(trace.rows) == 3
    assert trace.rows[-1].min_pairwise_lem == 0.0


# ---------------------------------------------------------------------------
# diffusion runs


def test_diffusion_run_deterministic():
    pc = cloud(19)
    a, ta = s.diffusion_run(pc, layers=4, seed=5)
    b, tb = s.diffusion_run(pc, layers=4, seed=5)
    for v in pc.ids:
        np.testing.assert_array_equal(a[v], b[v])
    assert ta.to_csv() == tb.to_csv()


def test_diffusion_run_heterogeneous_vs_identity_control():
    rng = np.random.default_rng(38)
    pts = rng.normal(scale=0.7, size=(10, 3))
    pc = PointCloud(pts, geometric_graph(pts, radius=0.8))
    _, het = s.diffusion_run(pc, layers=32, seed=42)
    _, ctrl = s.diffusion_run(pc, layers=32, seed=42, identity_maps=True,
                              residual=False)
    assert het.rows[-1].min_pairwise_lem >= 0.01
    assert ctrl.rows[-1].min_pairwise_lem < 1e-3


# ---------------------------------------------------------------------------
# probe


def _fit_separable():
    rng = np.random.default_rng(20)
    X0 = rng.normal(size=(50, 4)) + np.array([3.0, 0, 0, 0])
    X1 = rng.normal(size=(50, 4)) - np.array([3.0, 0, 0, 0])
    X = np.vstack([X0, X1])
    y = np.array([0.0] * 50 + [1.0] * 50)
    return stream._fit_readouts(X, y[:, None], X, y[:, None])


def _fit_chance_labels():
    rng = np.random.default_rng(21)
    X = rng.normal(size=(200, 4))
    y = rng.integers(0, 2, size=200).astype(float)
    Y = y[:, None]
    return stream._fit_readouts(X[:100], Y[:100], X[100:], Y[100:])


def test_linear_probe_separable():
    train, _ = _fit_separable()
    assert train.tolist() == [1.0]


def test_linear_probe_shuffled_labels_chance():
    _, test = _fit_chance_labels()
    assert abs(test[0] - 0.5) <= 0.15


@pytest.mark.parametrize("fit", [_fit_separable, _fit_chance_labels,
                                 lambda: planarity_experiment(301, n_per_class=40)],
                         ids=["separable", "chance_labels", "probe_seed_301"])
def test_readout_weights_are_at_the_optimum(monkeypatch, fit):
    fits, weights = [], stream._readout_weights
    monkeypatch.setattr(stream, "_readout_weights",
                        lambda Z, Y: fits.append((Z, Y, weights(Z, Y))) or fits[-1][2])
    fit()
    (Z, Y, W), = fits
    # the gradient of mean BCE + (1e-4 / 2) ||W[1:]||^2, the bias unregularized
    P = 0.5 * (1.0 + np.tanh(0.5 * (Z @ W)))
    grad = Z.T @ (P - Y) / len(Z)
    grad[1:] += 1e-4 * W[1:]
    assert np.all(np.linalg.norm(grad, axis=0) <= 1e-8), np.linalg.norm(grad, axis=0)


def test_linear_probe_single_class_error():
    X = np.zeros((10, 3))
    Y = np.zeros((10, 1))
    with pytest.raises(DomainError):
        stream._fit_readouts(X, Y, X, Y)


def test_planarity_experiment_smoke():
    res, ctrl = planarity_experiment(seed=5, n_per_class=25)
    assert res["test_accuracy"] >= 0.8
    assert abs(ctrl["test_accuracy"] - 0.5) <= 0.25


def _count_calls(monkeypatch, module, names):
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _original=getattr(module, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return calls


def test_planarity_experiment_draws_each_cloud_and_lifts_each_chunk_once(monkeypatch,
                                                                         tmp_path):
    # 8 clouds of at most 20 points make one chunk, lifted at once
    names = ["planar_cloud", "lift_coordinates", "_lift", "_knn_pairs"]
    calls = _count_calls(monkeypatch, stream, names)
    planarity_experiment(seed=3, n_per_class=4)
    assert calls == {"planar_cloud": 8, "lift_coordinates": 0, "_lift": 1, "_knn_pairs": 1}
    # the probe command describes each repeat's clouds once for run and control
    assert main(["probe", "--seed", "3", "--repeats", "2", "--samples", "4",
                 "--out", str(tmp_path / "probe.json")]) == 0
    assert calls == {"planar_cloud": 24, "lift_coordinates": 0, "_lift": 3, "_knn_pairs": 3}


def _chunk_count(sizes) -> int:
    """Chunks of consecutive clouds with at most _UNION_VERTICES vertices in all."""
    chunks, room = 0, 0
    for n in sizes:
        if n > room:
            chunks, room = chunks + 1, stream._UNION_VERTICES
        room -= n
    return chunks


def test_planarity_experiment_counts_calls_per_chunk(monkeypatch):
    # per chunk: one log of the lift, one eigh and one eigvalsh per layer, and
    # two eigh in pooling; not 5 eigh and 2 layers per cloud
    draw, clouds = stream.planar_cloud, []
    monkeypatch.setattr(stream, "planar_cloud",
                        lambda rng, planar: clouds.append(draw(rng, planar)) or clouds[-1])
    layers = _count_calls(monkeypatch, stream, ["spd_sheaf_layer"])
    eigs = count_eigs(monkeypatch)
    planarity_experiment(0, n_per_class=200)
    chunks = _chunk_count([len(pts) for pts in clouds])
    assert len(clouds) == 400 and chunks == 23
    assert layers == {"spd_sheaf_layer": 2 * chunks}
    assert eigs == {"eigh": 5 * chunks, "eigvalsh": 2 * chunks}


def test_planarity_memory_does_not_grow_with_the_number_of_clouds():
    peaks = []
    for n_per_class in (40, 200):
        tracemalloc.start()
        try:
            planarity_experiment(0, n_per_class=n_per_class)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0], peaks


def test_planarity_experiment_pairs_run_and_control():
    run, control = planarity_experiment(seed=4, n_per_class=6, n_layers=1)
    assert (run["shuffled"], control["shuffled"]) == (False, True)
    for r in (run, control):
        assert (r["seed"], r["n_per_class"], r["layers"]) == (4, 6, 1)


@pytest.mark.parametrize("n_per_class", [2, 3])
def test_planarity_split_keeps_both_classes_in_each_half(monkeypatch, n_per_class):
    fits, fit = [], stream._fit_readouts
    monkeypatch.setattr(stream, "_fit_readouts",
                        lambda *args: fits.append(args) or fit(*args))
    planarity_experiment(seed=1, n_per_class=n_per_class, n_layers=1)
    (_, Y_train, _, Y_test), = fits
    half = n_per_class // 2
    # both label columns, real and shuffled, hold each class half and half
    assert np.all(Y_train.sum(axis=0) == half) and len(Y_train) == 2 * half
    assert np.all(Y_test.sum(axis=0) == n_per_class - half)
    assert len(Y_test) == 2 * (n_per_class - half)
    with pytest.raises(InvalidInputError, match="at least 2 clouds per class"):
        planarity_experiment(seed=1, n_per_class=1)


# ---------------------------------------------------------------------------
# graph helpers


def test_graph_builders():
    rng = np.random.default_rng(22)
    pts = rng.normal(size=(9, 3))
    edges = knn_edges(pts)
    degree = np.zeros(9)
    for i, j in edges:
        assert i < j
        degree[i] += 1
        degree[j] += 1
    assert degree.min() >= 3
    edges = geometric_graph(pts, radius=0.1)  # sparse: fallback keeps degrees > 0
    degree = np.zeros(9)
    for i, j in edges:
        degree[i] += 1
        degree[j] += 1
    assert degree.min() >= 1


def _edges_by_row_loops(pts, radius=None):
    """Reference edge lists, built one row at a time: 3 nearest neighbours of
    every vertex, or a radius graph with 2 for each vertex it leaves isolated.
    Equal distances go to the lower index."""
    N = len(pts)
    d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1)
    np.fill_diagonal(d2, np.inf)
    pairs = set()
    if radius is not None:
        pairs = {(i, j) for i in range(N) for j in range(i + 1, N) if d2[i, j] <= radius**2}
        degree = np.zeros(N, dtype=int)
        for i, j in pairs:
            degree[i] += 1
            degree[j] += 1
        k, rows = 2, [i for i in range(N) if degree[i] == 0]
    else:
        k, rows = 3, range(N)
    for i in rows:
        for j in np.argsort(d2[i], kind="stable")[:min(k, N - 1)]:
            pairs.add((min(i, int(j)), max(i, int(j))))
    return sorted(pairs)


_LATTICE = np.stack(np.meshgrid(*[np.arange(3.0)] * 3, indexing="ij"), -1).reshape(-1, 3)


def test_graph_builders_match_row_loops():
    rng = np.random.default_rng(32)
    for trial in range(40):
        if trial % 2:
            pts = rng.normal(size=(int(rng.integers(2, 30)), 3))
        else:  # equal distances: ties in every sort
            pts = _LATTICE[rng.permutation(27)[:int(rng.integers(2, 28))]]
        assert knn_edges(pts) == _edges_by_row_loops(pts)
        for radius in (0.1, 1.0, 1.5):
            edges = geometric_graph(pts, radius)
            assert edges == _edges_by_row_loops(pts, radius=radius)
            assert all(i < j for i, j in edges)
    # two far points: the fallback never pairs a vertex with itself
    assert geometric_graph(np.array([[0.0, 0, 0], [5.0, 0, 0]]), 1.0) == [(0, 1)]
    # (N, 2) clouds, one point and no point: the builder takes its width from the input
    for pts in (rng.normal(size=(17, 2)), _LATTICE[:9, 1:], np.zeros((1, 3)), np.zeros((0, 3))):
        assert knn_edges(pts) == _edges_by_row_loops(pts)
        for radius in (0.1, 1.0, 1.5):
            assert geometric_graph(pts, radius) == _edges_by_row_loops(pts, radius=radius)


def test_geometric_graph_sorts_only_the_rows_its_radius_leaves_isolated(monkeypatch):
    sorted_rows = []
    argsort = np.argsort
    monkeypatch.setattr(np, "argsort", lambda a, *args, **kwargs: (
        sorted_rows.append(a.shape[:-1]) or argsort(a, *args, **kwargs)))
    # a unit cluster of 6 points and 3 points far from it and from each other
    pts = np.concatenate([np.random.default_rng(3).uniform(size=(6, 3)),
                          [[10.0, 0, 0], [0, 10.0, 0], [0, 0, 10.0]]])
    edges = geometric_graph(pts, radius=2.0)
    assert sorted_rows == [(3,)]
    assert {(i, j) for i in range(6) for j in range(i + 1, 6)} <= set(edges)
    sorted_rows.clear()
    geometric_graph(pts, radius=20.0)
    assert sorted_rows == [(0,)]


def test_geometric_graph_rejects_a_negative_or_nan_radius_and_takes_inf():
    pts = np.random.default_rng(4).normal(size=(7, 3))
    for radius in (-0.8, -np.inf, np.nan):
        with pytest.raises(InvalidInputError, match="radius"):
            geometric_graph(pts, radius)
    assert geometric_graph(pts, np.inf) == [(i, j) for i in range(7) for j in range(i + 1, 7)]


@pytest.mark.parametrize("bad, match", [(np.nan, "non-finite"), (np.inf, "non-finite"),
                                        (1e200, "too large")])
def test_geometric_graph_rejects_non_finite_and_overflowing_points(bad, match):
    # the PointCloud check, before any distance is formed: no NaN point gets
    # fallback neighbours and no squared distance overflows with a warning
    for d in (3, 2):
        pts = np.zeros((3, d))
        pts[1:, 0] = [bad, 1.0]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidInputError, match=match):
                geometric_graph(pts, 0.5)
    assert geometric_graph(np.zeros((0, 2)), 0.5) == geometric_graph([[1e200, 0.0]], 0.5) == []


def test_only_knn_pairs_selects_neighbours():
    # one neighbour builder in the stream: nothing outside it may sort
    tree = ast.parse(Path(stream.__file__).read_text(encoding="utf-8"))

    def sorts(root):
        return [node for node in ast.walk(root) if isinstance(node, (ast.Attribute, ast.Name))
                and getattr(node, "attr", getattr(node, "id", None)) in ("argsort", "argpartition")]

    knn, = [fn for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef) and fn.name == "_knn_pairs"]
    assert sorts(knn) and len(sorts(tree)) == len(sorts(knn))


def _batches(rng):
    """Batches of clouds for the padded k-NN: mixed sizes, 27-point lattice
    subsets (ties in every sort), 1- to 3-point clouds and one cloud larger
    than a chunk."""
    for _ in range(10):
        yield [rng.normal(size=(int(rng.integers(1, 25)), 3)) for _ in range(rng.integers(1, 12))]
        yield [_LATTICE[rng.permutation(27)[:int(rng.integers(1, 28))]]
               for _ in range(rng.integers(1, 12))]
        yield [rng.normal(size=(int(rng.integers(1, 4)), 3)) for _ in range(rng.integers(1, 12))]
    yield [rng.normal(size=(n, 3)) for n in (3, stream._UNION_VERTICES + 40, 1, 12)]


def test_batched_knn_matches_row_loops_per_cloud():
    # each cloud's pairs, offset by the points before it, in cloud order;
    # padding and the other clouds change no tie, and no radius links padding
    rng = np.random.default_rng(34)
    for clouds in _batches(rng):
        offsets = np.cumsum([0] + [len(pts) for pts in clouds])
        for k, radius in ((stream._KNN, None), (stream._K_FALLBACK, 0.5),
                          (stream._K_FALLBACK, np.inf)):
            tails, heads = stream._knn_pairs(clouds, k, radius)
            expected = [(i + o, j + o) for pts, o in zip(clouds, offsets)
                        for i, j in _edges_by_row_loops(pts, radius=radius)]
            assert list(zip(tails.tolist(), heads.tolist())) == expected
