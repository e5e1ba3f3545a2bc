"""Acceptance suite: every headline property at its stated tolerance.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or on
failure). Tolerances are pinned here, not configurable.
"""

import time

import numpy as np
import pytest

import spdsheaf as s
from spdsheaf.covgraph import SHRINKAGE
from spdsheaf.euclid import SECTION_TOL, vec_cochain_from_vec
from spdsheaf.spd import EIG_FLOOR
from spdsheaf.stream import (
    LayerParams,
    PointCloud,
    canonicalize,
    geometric_graph,
    planarity_experiment,
    run_layers,
    trace_row,
)
from spdsheaf.verify import (
    SuiteConfig,
    frustrated_two_cycle,
    oracle_green,
    random_cochain0,
    random_euclid_sheaf,
    random_orthogonal,
    random_sheaf,
    random_spd,
    run_suite,
)


def report(num, name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d} ({name}): {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_01_isometry():
    t0 = time.monotonic()
    rng = np.random.default_rng(42)
    worst = 0.0
    for n in (2, 3, 5):
        for _ in range(200):
            M = random_orthogonal(n, rng)
            X, Y = random_spd(n, rng), random_spd(n, rng)
            MX, MY = M @ X @ M.T, M @ Y @ M.T
            worst = max(worst,
                        abs(s.dist_airm(MX, MY) - s.dist_airm(X, Y)),
                        abs(s.dist_lem(MX, MY) - s.dist_lem(X, Y)))
    elapsed = time.monotonic() - t0
    report(1, "isometry", worst <= 1e-8 and elapsed < 5.0,
           f"max residual {worst:.3e} (tol 1e-8), {elapsed:.1f}s (< 5s)")


def test_criterion_02_coboundary_linearity():
    rng = np.random.default_rng(43)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 4))
        sheaf = random_sheaf(n, int(rng.integers(2, 11)), int(rng.integers(0, 4)), rng)
        sigma, tau = random_cochain0(sheaf, rng), random_cochain0(sheaf, rng)
        combo = {v: s.group_op(sigma[v], tau[v]) for v in sheaf.vertices}
        for L, A, B in zip(s.coboundary(sheaf, combo), s.coboundary(sheaf, sigma),
                           s.coboundary(sheaf, tau)):
            worst = max(worst, s.dist_lem(L, s.group_op(A, B)))
    report(2, "coboundary linearity", worst <= 1e-9,
           f"max per-edge LEM residual {worst:.3e} (tol 1e-9)")


def test_criterion_03_green_identity():
    rng = np.random.default_rng(44)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 4))
        sheaf = random_sheaf(n, int(rng.integers(2, 13)), int(rng.integers(0, 4)), rng)
        v = oracle_green(sheaf, seed=int(rng.integers(0, 2**31)))
        worst = max(worst, v.max_residual)
    report(3, "Green identity", worst <= 1e-8,
           f"max residual {worst:.3e} over 50 sheaves x 100 pairs (tol 1e-8)")


def test_criterion_04_hodge_equality():
    rng = np.random.default_rng(45)
    dims_ok = True
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 4))
        sheaf = random_sheaf(n, int(rng.integers(2, 9)), int(rng.integers(0, 4)), rng)
        B = s.coboundary_matrix(sheaf)
        basis = s.global_sections(sheaf)
        from spdsheaf.sheaf import cochain0_from_vec, nullspace

        dim_b = nullspace(B).shape[1]
        dim_g = nullspace(B.T @ B).shape[1]
        dims_ok = dims_ok and (dim_b == dim_g == basis.shape[1])
        for col in range(basis.shape[1]):
            section = cochain0_from_vec(sheaf, basis[:, col])
            for Y in s.laplacian(sheaf, section).values():
                worst = max(worst, s.dist_lem(Y, np.eye(n)))
    report(4, "Hodge-type equality", dims_ok and worst <= 1e-7,
           f"kernel dims equal: {dims_ok}, max Laplacian residual {worst:.3e} (tol 1e-7)")


def test_criterion_05_index_formula():
    rng = np.random.default_rng(46)
    ok = True
    for i in range(50):
        n = int(rng.integers(2, 4))
        sheaf = random_sheaf(n, int(rng.integers(2, 9)), int(rng.integers(0, 4)), rng,
                             connected=(i % 2 == 0))
        expected = (sheaf.n_vertices - sheaf.n_edges) * s.sym_dim(n)
        ok = ok and (s.sheaf_index(sheaf) == expected)
    report(5, "index formula", ok, "index == (|V|-|E|) n(n+1)/2 on 50 graphs")


def test_criterion_06_holonomy_characterization():
    rng = np.random.default_rng(47)
    ok = True
    nontrivial = 0
    for i in range(50):
        n = int(rng.integers(2, 4))
        extra = 2 if i < 30 else 0
        sheaf = random_sheaf(n, int(rng.integers(2, 9)), extra, rng, connected=True)
        reps = s.holonomy_reps(sheaf)
        if any(np.linalg.norm(r - np.eye(n)) > 1e-8 for r in reps):
            nontrivial += 1
        dim_kernel = s.global_sections(sheaf).shape[1]
        dim_fixed = s.holonomy_fixed_space(reps, n).shape[1]
        ok = ok and (dim_kernel == dim_fixed)
    report(6, "holonomy characterization", ok and nontrivial >= 10,
           f"kernel dim == fixed-space dim on 50 sheaves, {nontrivial} nontrivial (>= 10)")


def test_criterion_07_correspondence_strictness():
    rng = np.random.default_rng(48)
    worst = 0.0
    witnesses_ok = True
    for i in range(20):
        n = int(rng.integers(2, 5))
        identity = i % 2 == 0
        esheaf = random_euclid_sheaf(n, int(rng.integers(2, 8)),
                                     0 if identity else int(rng.integers(0, 3)),
                                     rng, identity_maps=identity)
        ssheaf = s.matched_spd_sheaf(esheaf)
        basis = s.euclid_sections(esheaf)
        for col in range(basis.shape[1]):
            x = vec_cochain_from_vec(esheaf, basis[:, col])
            rep = s.check_kernel_correspondence(esheaf, x)
            worst = max(worst, rep.forward_max_residual)
        reps = s.holonomy_reps(ssheaf)
        trivial = all(np.linalg.norm(r - np.eye(n)) <= 1e-8 for r in reps)
        if trivial and n >= 3:
            assert SECTION_TOL == 1e-7  # the witness's section bound
            witness = s.strictness_witness(ssheaf)
            for X in witness.values():
                w = np.sort(np.linalg.eigvalsh(X))
                witnesses_ok = witnesses_ok and (1 + np.sum(np.diff(w) > 1e-6)) > 2
    fr = frustrated_two_cycle()
    dim_e = s.euclid_sections(fr).shape[1]
    dim_s = s.global_sections(s.matched_spd_sheaf(fr)).shape[1]
    report(7, "correspondence + strictness",
           worst <= 1e-7 and witnesses_ok and dim_e == 0 and dim_s >= 1,
           f"forward residual {worst:.3e} (tol 1e-7), witnesses ok: {witnesses_ok}, "
           f"frustrated cycle kernels euclid={dim_e} spd={dim_s}")


def test_criterion_08_second_order_emergence():
    t0 = time.monotonic()
    layer0_ok = True
    gains = []
    for seed in range(100):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(8, 21))
        pts = rng.normal(scale=0.7, size=(n, 3))
        pc = PointCloud(pts, geometric_graph(pts, radius=0.8))
        assert EIG_FLOOR == 1e-4  # the lift's ridge
        logs = s.spd_log(canonicalize(s.lift_coordinates(pc), s.local_frame(pc)[0]))
        row0 = trace_row(logs)
        layer0_ok = layer0_ok and row0.mean_erank <= 1.05
        _, trace = run_layers(pc, logs, [LayerParams.random(3, rng=rng)])
        gains.append(trace.rows[1].mean_erank - trace.rows[0].mean_erank)
    frac = float(np.mean(np.asarray(gains) >= 0.15))
    elapsed = time.monotonic() - t0
    report(8, "second-order emergence",
           layer0_ok and frac >= 0.9 and elapsed < 30.0,
           f"layer-0 erank <= 1.05: {layer0_ok}, gain >= 0.15 in {frac:.0%} of seeds, "
           f"{elapsed:.1f}s (< 30s)")


def test_criterion_09_depth_robustness():
    rng = np.random.default_rng(38)
    pts = rng.normal(scale=0.7, size=(10, 3))
    pc = PointCloud(pts, geometric_graph(pts, radius=0.8))
    _, het = s.diffusion_run(pc, layers=32, seed=42)
    _, ctrl = s.diffusion_run(pc, layers=32, seed=42, identity_maps=True,
                              residual=False)
    h = het.rows[-1].min_pairwise_lem
    c = ctrl.rows[-1].min_pairwise_lem
    report(9, "depth robustness", h >= 0.01 and c < 1e-3,
           f"heterogeneous min pairwise LEM {h:.3e} (>= 0.01), "
           f"identity/no-residual control {c:.3e} (< 1e-3)")


def test_criterion_10_rigid_motion_invariance():
    rng = np.random.default_rng(49)
    pts = rng.normal(scale=0.7, size=(12, 3))
    pc = PointCloud(pts, geometric_graph(pts, radius=0.9))
    params = [LayerParams.random(3, rng=rng) for _ in range(2)]
    base = s.geometric_descriptor(pc, params)
    worst = 0.0
    for _ in range(100):
        R = random_orthogonal(3, rng)
        if np.linalg.det(R) < 0:
            R = -R
        t = rng.normal(scale=2.0, size=3)
        moved = PointCloud(pc.points @ R.T + t, pc.edges)
        worst = max(worst, float(np.max(np.abs(
            s.geometric_descriptor(moved, params) - base))))
    report(10, "rigid-motion invariance", worst <= 1e-7,
           f"max descriptor difference {worst:.3e} over 100 motions (tol 1e-7)")


def test_criterion_11_frechet_derivative():
    rng = np.random.default_rng(50)
    worst = 0.0
    h = 1e-5
    for i in range(100):
        gap = 1e-6 if i % 5 == 0 else float(np.exp(rng.uniform(-3, 1)))
        Q = random_orthogonal(3, rng)
        lam = np.array([1.0, 1.0 + gap, 2.5 + rng.uniform(0, 1)])
        P = (Q * lam) @ Q.T
        A = rng.normal(size=(3, 3))
        V = 0.5 * (A + A.T)
        fd = (s.spd_log(P + h * V) - s.spd_log(P - h * V)) / (2 * h)
        D = s.frechet_log(P, V)
        worst = max(worst, np.linalg.norm(D - fd) / np.linalg.norm(fd))
    report(11, "Frechet derivative of log", worst <= 1e-5,
           f"max relative error vs central differences {worst:.3e} (tol 1e-5)")


def test_criterion_12_planarity_probe():
    rng = np.random.default_rng(51)
    seeds = [int(rng.integers(0, 2**31)) for _ in range(3)]
    pairs = [planarity_experiment(seed, n_per_class=200) for seed in seeds]
    accs = [run["test_accuracy"] for run, _ in pairs]
    ctrl = [control["test_accuracy"] for _, control in pairs]
    mean_acc = float(np.mean(accs))
    mean_ctrl = float(np.mean(ctrl))
    report(12, "planarity probe", mean_acc >= 0.90 and abs(mean_ctrl - 0.5) <= 0.1,
           f"test accuracy {mean_acc:.3f} (>= 0.90) over seeds {accs}, "
           f"shuffle control {mean_ctrl:.3f} (0.5 +/- 0.1)")


def test_criterion_13_covariance_graph_brute_force():
    rng = np.random.default_rng(52)
    segs = [s.Segment(rng.normal(size=(4, 50)),
                      t_mid=0.25 * (i // 4), f_mid=(8.0, 12.0, 16.0, 20.0)[i % 4])
            for i in range(20)]
    cfg = s.TFGraphConfig(eps1=0.6, eps2=4.5, eps=8.0, bandwidth=2.0)
    result = s.build_tf_graph(segs, cfg)

    # brute force with its own covariance and distance computations: raw
    # X X^T plus trace shrinkage, and the affine-invariant distance from the
    # generalized eigenvalues of the pencil (A, B)
    assert SHRINKAGE == 1e-3  # the covariances' ridge

    def cov(seg):
        S = seg.data @ seg.data.T
        return S + SHRINKAGE * (np.trace(S) / S.shape[0]) * np.eye(S.shape[0])

    def d2_airm(A, B):
        lam = np.linalg.eigvals(np.linalg.solve(A, B))
        return float(np.sum(np.log(lam.real) ** 2))

    covs = [cov(x) for x in segs]
    expected = {}
    for i in range(20):
        for j in range(20):
            if i == j:
                continue
            dt = segs[j].t_mid - segs[i].t_mid
            df = abs(segs[j].f_mid - segs[i].f_mid)
            if 0.0 <= dt <= cfg.eps1 and df <= cfg.eps2:
                d2 = d2_airm(covs[i], covs[j])
                if d2 < cfg.eps:
                    expected[(i, j)] = np.exp(-d2 / cfg.bandwidth)
    edges_ok = set(result.sheaf.edges) == set(expected)
    worst = max((abs(w - expected[e])
                 for e, w in zip(result.sheaf.edges, result.weights)), default=0.0)
    report(13, "covariance graph", edges_ok and worst <= 1e-10 and len(expected) > 0,
           f"edge set match: {edges_ok} ({len(expected)} edges), "
           f"max weight deviation {worst:.3e} (tol 1e-10)")


def test_criterion_14_verify_suite():
    t0 = time.monotonic()
    verdicts, code = run_suite(SuiteConfig())
    elapsed = time.monotonic() - t0
    verdicts2, code2 = run_suite(SuiteConfig())
    deterministic = code == code2 and all(
        a.max_residual == b.max_residual for a, b in zip(verdicts, verdicts2))
    report(14, "verify suite", code == 0 and deterministic and elapsed <= 60.0,
           f"exit {code}, deterministic: {deterministic}, {elapsed:.1f}s (<= 60s)")
