"""Time-frequency covariance graph construction against brute force."""

import math

import numpy as np
import pytest

import spdsheaf as s
from spdsheaf.covgraph import Segment, TFGraphConfig, build_tf_graph, segment_covariance
from spdsheaf.errors import DomainError, InvalidInputError
from spdsheaf.verify import random_orthogonal


def make_segments(rng, k=8, channels=3, samples=40, t_step=0.5, bands=(10.0, 20.0)):
    segs = []
    for i in range(k):
        segs.append(Segment(rng.normal(size=(channels, samples)),
                            t_mid=t_step * (i // 2), f_mid=bands[i % 2]))
    return segs


def brute_force_edges(segs, cfg):
    covs = [segment_covariance(x, cfg.shrinkage, cfg.normalize_samples) for x in segs]
    out = {}
    for i in range(len(segs)):
        for j in range(len(segs)):
            if i == j:
                continue
            dt = segs[j].t_mid - segs[i].t_mid
            df = abs(segs[j].f_mid - segs[i].f_mid)
            if not (0.0 <= dt <= cfg.eps1 and df <= cfg.eps2):
                continue
            d2 = s.dist_airm(covs[i], covs[j]) ** 2
            if d2 < cfg.eps:
                out[(i, j)] = np.exp(-d2 / cfg.bandwidth)
    return out


# ---------------------------------------------------------------------------
# covariance


def test_segment_covariance_single_channel():
    seg = Segment([[1.0, 2.0]], t_mid=0.0, f_mid=1.0)
    np.testing.assert_allclose(segment_covariance(seg, 0.0), [[5.0]], atol=1e-14)
    np.testing.assert_allclose(segment_covariance(seg, 1e-3), [[5.0 * 1.001]],
                               atol=1e-12)


def test_segment_covariance_orthogonal_rows_diagonal():
    X = np.array([[1.0, 1.0, 0.0, 0.0], [0.0, 0.0, 1.0, -1.0]])
    S = segment_covariance(Segment(X, 0.0, 1.0), 0.0)
    np.testing.assert_allclose(S, np.diag([2.0, 2.0]), atol=1e-14)


def test_segment_covariance_rank_deficient_shrinkage():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(5, 2))  # more channels than samples
    S = segment_covariance(Segment(X, 0.0, 1.0), 1e-3)
    assert np.linalg.eigvalsh(S).min() > 0


def test_segment_covariance_zero_without_shrinkage():
    with pytest.raises(DomainError):
        segment_covariance(Segment(np.zeros((2, 4)), 0.0, 1.0), 0.0)


def test_segment_covariance_sample_normalization():
    seg = Segment([[1.0, 2.0]], t_mid=0.0, f_mid=1.0)
    np.testing.assert_allclose(segment_covariance(seg, 0.0, normalize_samples=True),
                               [[2.5]], atol=1e-14)


@pytest.mark.parametrize("shrinkage", [-1e-3, math.nan, math.inf])
def test_shrinkage_has_one_check(shrinkage):
    seg = Segment([[1.0, 2.0]], t_mid=0.0, f_mid=1.0)
    with pytest.raises(InvalidInputError, match="shrinkage must be finite and nonnegative"):
        segment_covariance(seg, shrinkage)
    with pytest.raises(InvalidInputError, match="shrinkage must be finite and nonnegative"):
        TFGraphConfig(eps1=1.0, eps2=1.0, eps=1.0, bandwidth=1.0, shrinkage=shrinkage)


@pytest.mark.parametrize("normalize_samples", [False, True])
def test_segment_covariance_rejects_overflowing_data(normalize_samples):
    # X X^T overflows to inf, and shrinkage turns its off-diagonal zeros into NaN
    seg = Segment([[1e200, 0.0], [0.0, 1e200]], t_mid=0.0, f_mid=1.0)
    with pytest.raises(InvalidInputError, match="too large"):
        segment_covariance(seg, 1e-3, normalize_samples)


# ---------------------------------------------------------------------------
# graph construction


def test_two_identical_segments_weight_one():
    rng = np.random.default_rng(1)
    data = rng.normal(size=(3, 30))
    segs = [Segment(data, 0.0, 10.0), Segment(data.copy(), 0.4, 10.0)]
    cfg = TFGraphConfig(eps1=1.0, eps2=1.0, eps=1.0, bandwidth=1.0)
    result = build_tf_graph(segs, cfg)
    assert result.sheaf.edges == ((0, 1),)
    np.testing.assert_allclose(result.weights, [1.0], atol=1e-12)


def test_out_of_window_no_edges():
    rng = np.random.default_rng(2)
    segs = [Segment(rng.normal(size=(2, 20)), 0.0, 10.0),
            Segment(rng.normal(size=(2, 20)), 0.2, 40.0)]
    cfg = TFGraphConfig(eps1=1.0, eps2=5.0, eps=100.0, bandwidth=1.0)
    assert build_tf_graph(segs, cfg).sheaf.n_edges == 0


def test_matches_brute_force():
    rng = np.random.default_rng(3)
    segs = make_segments(rng, k=10)
    cfg = TFGraphConfig(eps1=0.6, eps2=12.0, eps=6.0, bandwidth=2.0)
    result = build_tf_graph(segs, cfg)
    expected = brute_force_edges(segs, cfg)
    assert set(result.sheaf.edges) == set(expected)
    for (t, h), w in zip(result.sheaf.edges, result.weights):
        assert abs(w - expected[(t, h)]) <= 1e-10


def test_matches_per_pair_distances_in_any_segment_order():
    # unsorted midpoints, tails with empty windows and a gate that drops some
    # window pairs; one distance call per tail must give the per-pair graph
    rng = np.random.default_rng(8)
    segs = [Segment(rng.normal(size=(4, 30)), t_mid=rng.uniform(0, 3),
                    f_mid=rng.uniform(5, 25)) for _ in range(24)]
    cfg = TFGraphConfig(eps1=1.0, eps2=8.0, eps=1.0, bandwidth=2.0)
    result = build_tf_graph(segs, cfg)
    expected = brute_force_edges(segs, cfg)
    assert 0 < len(expected) < sum(
        0.0 <= b.t_mid - a.t_mid <= cfg.eps1 and abs(b.f_mid - a.f_mid) <= cfg.eps2
        for a in segs for b in segs if a is not b)
    assert set(result.sheaf.edges) == set(expected)
    assert result.sheaf.n_edges == len(expected)
    for (t, h), w in zip(result.sheaf.edges, result.weights):
        assert abs(w - expected[(t, h)]) <= 1e-15


def test_weights_in_unit_interval_and_monotone():
    rng = np.random.default_rng(4)
    segs = make_segments(rng, k=8)
    cfg = TFGraphConfig(eps1=2.0, eps2=30.0, eps=50.0, bandwidth=3.0)
    result = build_tf_graph(segs, cfg)
    assert result.sheaf.n_edges > 0
    covs = {i: segment_covariance(x, cfg.shrinkage) for i, x in enumerate(segs)}
    pairs = [(s.dist_airm(covs[t], covs[h]), w)
             for (t, h), w in zip(result.sheaf.edges, result.weights)]
    for d, w in pairs:
        assert 0.0 < w <= 1.0
    pairs.sort()
    for (d1, w1), (d2, w2) in zip(pairs, pairs[1:]):
        assert w1 >= w2 - 1e-12


def test_orientation_forward_in_time():
    rng = np.random.default_rng(5)
    segs = [Segment(rng.normal(size=(2, 30)), t_mid=0.1 * i, f_mid=10.0)
            for i in range(6)]
    cfg = TFGraphConfig(eps1=1.0, eps2=1.0, eps=100.0, bandwidth=5.0)
    result = build_tf_graph(segs, cfg)
    assert result.sheaf.n_edges > 0
    for t, h in result.sheaf.edges:
        assert segs[t].t_mid <= segs[h].t_mid


def test_edge_set_invariant_under_channel_mixing():
    rng = np.random.default_rng(6)
    segs = make_segments(rng, k=8)
    cfg = TFGraphConfig(eps1=0.6, eps2=12.0, eps=8.0, bandwidth=2.0)
    base = build_tf_graph(segs, cfg)
    M = random_orthogonal(3, rng)
    mixed = [Segment(M @ x.data, x.t_mid, x.f_mid) for x in segs]
    out = build_tf_graph(mixed, cfg)
    assert out.sheaf.edges == base.sheaf.edges
    np.testing.assert_allclose(out.weights, base.weights, atol=1e-8)


def test_subnormal_bandwidth_gives_zero_weights_without_warning():
    # -d2 / 1e-310 overflows to -inf for every distinct pair; tier-1 turns the
    # RuntimeWarning that would raise into an error
    segs = make_segments(np.random.default_rng(12), k=4)
    cfg = TFGraphConfig(eps1=1.0, eps2=100.0, eps=100.0, bandwidth=1e-310)
    result = build_tf_graph(segs, cfg)
    assert result.weights and all(w == 0.0 for w in result.weights)


def test_config_validation():
    with pytest.raises(InvalidInputError):
        TFGraphConfig(eps1=-1.0, eps2=0.0, eps=1.0, bandwidth=1.0)
    with pytest.raises(InvalidInputError):
        TFGraphConfig(eps1=0.0, eps2=0.0, eps=0.0, bandwidth=1.0)
    with pytest.raises(InvalidInputError):
        build_tf_graph([], TFGraphConfig(eps1=1.0, eps2=1.0, eps=1.0, bandwidth=1.0))
