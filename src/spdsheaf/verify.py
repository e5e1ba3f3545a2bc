"""Independent brute-force oracles for every theorem-level property.

Each oracle recomputes its target through a code path that shares nothing
with the primary implementation beyond elementary eigendecomposition: the
dense log-domain operator is rebuilt here by probing basis matrices with raw
numpy products, logs come from this module's own ``np.linalg.eigh`` calls,
and kernel dimensions from its own SVD calls. The oracle vectorizes with its
own stacked helpers: ``_ovec`` and its inverse ``_ounvec`` map whole
(..., n, n) stacks at once, and the Green oracle draws, logs and vectorizes
all values of a block of trials in one pass (``random_spd_stack``,
``_oracle_log_vecs``) and calls the public operators once per block, on its
(trials, k, n, n) stacks; only the oracle's own residual arithmetic stays
per trial. The suite runner wires the oracles to deterministic seeded
instance generators and reports one verdict per check.

Every verdict is held to the fixed tolerance of its check in ``TOLERANCES``;
no oracle and no suite configuration can move it. An oracle folds its
residuals with :func:`_worst`, so a NaN residual reaches :class:`Verdict`,
which rejects it, instead of being dropped by the builtin ``max``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError
from .euclid import (
    EuclidSheaf,
    check_kernel_correspondence,
    matched_spd_sheaf,
    strictness_witness,
    vec_cochain_from_vec,
)
from .sheaf import (
    SheafGraph,
    adjoint,
    coboundary,
    cochain_pairing,
    global_sections,
    holonomy_fixed_space,
    holonomy_reps,
    laplacian,
    sheaf_index,
)
from .spd import dist_airm, dist_lem, group_op, sym_exp

ALL_CHECKS = ("isometry", "linearity", "green", "hodge", "index", "holonomy",
              "correspondence")

TOLERANCES = {
    "isometry": 1e-8,
    "linearity": 1e-9,
    "green": 1e-8,
    "hodge": 1e-7,
    "index": 0.0,
    "holonomy": 0.0,
    "correspondence": 1e-7,
}

# The suite's adversarial-spread Green instances (eigenvalue ratio 1e3) are
# held to this looser bound: their residual is rescaled by
# TOLERANCES["green"] / GREEN_SPREAD_TOLERANCE before it is folded in.
GREEN_SPREAD_TOLERANCE = 1e-6


@dataclass
class Verdict:
    """Outcome of one check: pass iff the worst residual is within tolerance."""

    check: str
    trials: int
    max_residual: float
    tolerance: float
    seed: int
    passed: bool = field(init=False)

    def __post_init__(self):
        if not np.isfinite(self.max_residual):
            raise InvalidInputError(f"check {self.check}: non-finite residual")
        self.passed = self.max_residual <= self.tolerance


# ---------------------------------------------------------------------------
# seeded instance generators


def _cayley(A: np.ndarray) -> np.ndarray:
    """Special-orthogonal (..., n, n) stack: Cayley transform of A's skew part."""
    S = A - np.swapaxes(A, -1, -2)
    I = np.eye(A.shape[-1])
    return np.linalg.solve(I - 0.5 * S, I + 0.5 * S)


def random_orthogonal(n: int, rng) -> np.ndarray:
    """Special-orthogonal sample via the Cayley transform of a random skew matrix."""
    return _cayley(rng.normal(size=(n, n)))


def random_spd_stack(n: int, count: int, rng, spread: float = 10.0) -> np.ndarray:
    """(count, n, n) stack of random SPD matrices with eigenvalue ratio up to
    `spread`: bit for bit the values, and the generator state, of `count`
    successive :func:`random_spd` draws."""
    half = 0.5 * math.log(spread)
    A = np.empty((count, n, n))
    u = np.empty((count, n))
    for k in range(count):
        A[k] = rng.normal(size=(n, n))
        u[k] = rng.uniform(-half, half, size=n)
    Q = _cayley(A)
    P = (Q * np.exp(u)[:, None, :]) @ np.swapaxes(Q, -1, -2)
    return 0.5 * (P + np.swapaxes(P, -1, -2))


def random_spd(n: int, rng, spread: float = 10.0) -> np.ndarray:
    """Random SPD matrix with eigenvalue ratio up to `spread`."""
    return random_spd_stack(n, 1, rng, spread)[0]


def random_graph(n_vertices: int, extra_edges: int, rng,
                 connected: bool = True) -> list[tuple[int, int]]:
    """Random tree (or forest) plus `extra_edges` random chords."""
    edges = []
    for v in range(1, n_vertices):
        if connected or rng.random() < 0.8:
            u = int(rng.integers(0, v))
            edges.append((u, v) if rng.random() < 0.5 else (v, u))
    for _ in range(extra_edges):
        if n_vertices < 2:
            break
        u, v = rng.choice(n_vertices, size=2, replace=False)
        edges.append((int(u), int(v)))
    return edges


def random_sheaf(n_stalk: int, n_vertices: int, extra_edges: int, rng,
                 identity_maps: bool = False, connected: bool = True) -> SheafGraph:
    edges = random_graph(n_vertices, extra_edges, rng, connected)
    if identity_maps:
        return SheafGraph.identity_maps(n_stalk, range(n_vertices), edges)
    maps = [(random_orthogonal(n_stalk, rng), random_orthogonal(n_stalk, rng))
            for _ in edges]
    return SheafGraph(n_stalk, range(n_vertices), edges, maps)


def random_euclid_sheaf(n_stalk: int, n_vertices: int, extra_edges: int, rng,
                        identity_maps: bool = False) -> EuclidSheaf:
    edges = random_graph(n_vertices, extra_edges, rng, connected=True)
    if identity_maps:
        return EuclidSheaf.identity_maps(n_stalk, range(n_vertices), edges)
    maps = [(random_orthogonal(n_stalk, rng), random_orthogonal(n_stalk, rng))
            for _ in edges]
    return EuclidSheaf(n_stalk, range(n_vertices), edges, maps)


def random_cochain0(sheaf: SheafGraph, rng, spread: float = 10.0) -> dict:
    values = random_spd_stack(sheaf.n_stalk, sheaf.n_vertices, rng, spread)
    return dict(zip(sheaf.vertices, values))


def frustrated_two_cycle() -> EuclidSheaf:
    """Two vertices joined by a plain edge and a sign-flipped edge (n = 1)."""
    I = np.eye(1)
    return EuclidSheaf(1, (0, 1), [(0, 1), (0, 1)], [(I, I), (-I, I)])


# ---------------------------------------------------------------------------
# oracle-local linear algebra (independent of the primary implementation)


def _otriu(n: int) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray]:
    """Row-major upper-triangle indices of an n x n matrix and its diagonal mask."""
    iu = np.triu_indices(n)
    return iu, iu[0] == iu[1]


def _ovec(S: np.ndarray) -> np.ndarray:
    """(..., m) isometric vectorization of a (..., n, n) symmetric stack:
    the upper triangle, off-diagonal entries scaled by sqrt 2."""
    iu, diag = _otriu(S.shape[-1])
    return S[..., iu[0], iu[1]] * np.where(diag, 1.0, math.sqrt(2.0))


def _ounvec(x: np.ndarray, n: int) -> np.ndarray:
    """Inverse of :func:`_ovec`: (..., m) vectors to (..., n, n) symmetric stacks."""
    iu, diag = _otriu(n)
    vals = x * np.where(diag, 1.0, 1.0 / math.sqrt(2.0))
    S = np.zeros(x.shape[:-1] + (n, n))
    S[..., iu[0], iu[1]] = vals
    S[..., iu[1], iu[0]] = vals
    return S


def _obasis(n: int) -> np.ndarray:
    """(m, n, n) orthonormal basis of the symmetric matrices, in _ovec order."""
    return _ounvec(np.eye(n * (n + 1) // 2), n)


def _oracle_log_vecs(P: np.ndarray) -> np.ndarray:
    """(..., m) vectorized matrix logs of a (..., n, n) stack of SPD values."""
    w, V = np.linalg.eigh(0.5 * (P + np.swapaxes(P, -1, -2)))
    return _ovec((V * np.log(w)[..., None, :]) @ np.swapaxes(V, -1, -2))


def _oracle_operator(sheaf: SheafGraph) -> np.ndarray:
    """Dense log-domain coboundary operator rebuilt by basis probing."""
    n = sheaf.n_stalk
    basis = _obasis(n)
    m = len(basis)
    B = np.zeros((sheaf.n_edges * m, sheaf.n_vertices * m))
    for k, ((t, h), (Mt, Mh)) in enumerate(zip(sheaf.edges, sheaf.maps)):
        it = sheaf.vertex_index(t)
        ih = sheaf.vertex_index(h)
        B[k * m:(k + 1) * m, it * m:(it + 1) * m] += _ovec(Mt @ basis @ Mt.T).T
        B[k * m:(k + 1) * m, ih * m:(ih + 1) * m] -= _ovec(Mh @ basis @ Mh.T).T
    return B


def _oracle_nullity(A: np.ndarray, tol: float = 1e-8) -> int:
    if A.shape[0] == 0:
        return A.shape[1]
    s = np.linalg.svd(A, compute_uv=False)
    rank = int(np.sum(s > tol * s[0])) if s.size and s[0] > 0 else 0
    return A.shape[1] - rank


def _oracle_euclid_operator(sheaf: EuclidSheaf) -> np.ndarray:
    n = sheaf.n_stalk
    B = np.zeros((sheaf.n_edges * n, sheaf.n_vertices * n))
    for k, ((t, h), (Mt, Mh)) in enumerate(zip(sheaf.edges, sheaf.maps)):
        it = sheaf.vertex_index(t)
        ih = sheaf.vertex_index(h)
        B[k * n:(k + 1) * n, it * n:(it + 1) * n] += Mt
        B[k * n:(k + 1) * n, ih * n:(ih + 1) * n] -= Mh
    return B


# ---------------------------------------------------------------------------
# oracles


def _worst(residuals) -> float:
    """Largest of some scalar and 1-D residuals, 0.0 for none. A NaN among
    them is the result: the builtin ``max(0.0, nan)`` is 0.0."""
    return float(np.max(np.hstack([0.0, *residuals])))


def oracle_isometry(sheaf: SheafGraph, trials: int = 200, seed: int = 0) -> Verdict:
    """Both metrics must be invariant under congruence by the sheaf's maps."""
    rng = np.random.default_rng(seed)
    n = sheaf.n_stalk
    maps = [M for mm in sheaf.maps for M in mm] or [np.eye(n)]
    residuals = []
    for t in range(trials):
        M = maps[t % len(maps)]
        X = random_spd(n, rng)
        Y = random_spd(n, rng)
        MX = M @ X @ M.T
        MY = M @ Y @ M.T
        residuals += [abs(dist_airm(MX, MY) - dist_airm(X, Y)),
                      abs(dist_lem(MX, MY) - dist_lem(X, Y))]
    return Verdict("isometry", trials, _worst(residuals), TOLERANCES["isometry"], seed)


def oracle_linearity(sheaf: SheafGraph, trials: int = 3, seed: int = 0) -> Verdict:
    """Coboundary must commute with the group operation, edge by edge."""
    rng = np.random.default_rng(seed)
    residuals = []
    for _ in range(trials):
        sigma = random_spd_stack(sheaf.n_stalk, sheaf.n_vertices, rng)
        tau = random_spd_stack(sheaf.n_stalk, sheaf.n_vertices, rng)
        combo = np.stack([group_op(X, Y) for X, Y in zip(sigma, tau)])
        ds, dt, lhs = coboundary(sheaf, np.stack([sigma, tau, combo]))
        residuals += [dist_lem(L, group_op(A, Bv)) for L, A, Bv in zip(lhs, ds, dt)]
    return Verdict("linearity", trials, _worst(residuals), TOLERANCES["linearity"], seed)


_GREEN_BLOCK = 256  # matrices oracle_green draws at once, so memory is flat in trials


def oracle_green(sheaf: SheafGraph, trials: int = 100, seed: int = 0,
                 spread: float = 10.0) -> Verdict:
    """Green identity, cross-checked against the probed dense operator."""
    rng = np.random.default_rng(seed)
    B = _oracle_operator(sheaf)
    nv, ne, n = sheaf.n_vertices, sheaf.n_edges, sheaf.n_stalk
    m = n * (n + 1) // 2
    # each trial draws its vertex values, then its edge values, block by block
    block = max(1, _GREEN_BLOCK // max(1, nv + ne))
    worst = 0.0
    for start in range(0, trials, block):
        count = min(block, trials - start)
        values = random_spd_stack(n, count * (nv + ne), rng, spread).reshape(count, nv + ne, n, n)
        logs = _oracle_log_vecs(values)
        zs = logs[:, :nv].reshape(count, nv * m)
        zt = logs[:, nv:].reshape(count, ne * m)
        sigma, tau = values[:, :nv], values[:, nv:]
        lhs = cochain_pairing(coboundary(sheaf, sigma), tau)
        rhs = cochain_pairing(sigma, adjoint(sheaf, tau))
        mat_lhs = np.array([(B @ zs[t]) @ zt[t] for t in range(count)])
        mat_rhs = np.array([zs[t] @ (B.T @ zt[t]) for t in range(count)])
        worst = _worst([worst, np.abs(lhs - rhs), np.abs(lhs - mat_lhs),
                        np.abs(rhs - mat_rhs)])
    return Verdict("green", trials, worst, TOLERANCES["green"], seed)


def oracle_hodge(sheaf: SheafGraph, seed: int = 0) -> Verdict:
    """ker of the operator equals ker of its Gram matrix; sections are harmonic."""
    B = _oracle_operator(sheaf)
    dim_b = _oracle_nullity(B)
    # The Gram spectrum is sigma^2: a cutoff of 1e-8 there (1e-4 on sigma)
    # miscounts sheaves with sigma_min/sigma_max < 1e-4 (hodge seeds 33, 38).
    # Over seeds 0-120, Gram rounding peaks at 2.9e-16 and the smallest
    # nonzero sigma^2 is 5.7e-9 (relative), three decades either side of 1e-12.
    dim_g = _oracle_nullity(B.T @ B, tol=1e-12)
    basis = global_sections(sheaf)
    n = sheaf.n_stalk
    logs = _ounvec(basis.T.reshape(basis.shape[1], sheaf.n_vertices, n * (n + 1) // 2), n)
    sections = np.array([[sym_exp(S) for S in col] for col in logs]).reshape(logs.shape)
    Y = laplacian(sheaf, sections).reshape(-1, n, n)
    w = np.linalg.eigvalsh(0.5 * (Y + np.swapaxes(Y, -1, -2)))
    # a nonpositive eigenvalue has no real log: NaN, without numpy's warning
    log_w = np.log(np.where(w > 0.0, w, np.nan))
    residuals = [abs(dim_b - dim_g), abs(basis.shape[1] - dim_b),
                 np.sqrt(np.sum(log_w ** 2, axis=-1))]
    return Verdict("hodge", basis.shape[1] + 1, _worst(residuals), TOLERANCES["hodge"], seed)


def oracle_index(sheaf: SheafGraph, seed: int = 0) -> Verdict:
    """Primary and probed-operator indices must equal (|V|-|E|) n(n+1)/2."""
    m = sheaf.n_stalk * (sheaf.n_stalk + 1) // 2
    expected = (sheaf.n_vertices - sheaf.n_edges) * m
    B = _oracle_operator(sheaf)
    dim_b = _oracle_nullity(B)
    dim_bt = _oracle_nullity(B.T)
    worst = max(abs(sheaf_index(sheaf) - expected), abs((dim_b - dim_bt) - expected))
    return Verdict("index", 1, float(worst), TOLERANCES["index"], seed)


def oracle_holonomy(sheaf: SheafGraph, seed: int = 0) -> Verdict:
    """SVD kernel dimension equals the holonomy fixed-space dimension."""
    dim_svd = _oracle_nullity(_oracle_operator(sheaf))
    reps = holonomy_reps(sheaf)
    dim_fixed = holonomy_fixed_space(reps, sheaf.n_stalk).shape[1]
    return Verdict("holonomy", len(reps) + 1, float(abs(dim_svd - dim_fixed)),
                   TOLERANCES["holonomy"], seed)


def oracle_correspondence(esheaf: EuclidSheaf, seed: int = 0) -> Verdict:
    """Embedded Euclidean sections must be SPD sections; strictness where defined."""
    ssheaf = matched_spd_sheaf(esheaf)
    Be = _oracle_euclid_operator(esheaf)
    # oracle-owned Euclidean kernel
    if Be.shape[0] == 0:
        basis = np.eye(Be.shape[1])
    else:
        _, s, Vh = np.linalg.svd(Be)
        rank = int(np.sum(s > 1e-8 * s[0])) if s.size and s[0] > 0 else 0
        basis = Vh[rank:].T
    residuals = []
    trials = basis.shape[1]
    I = np.eye(esheaf.n_stalk)
    for col in range(basis.shape[1]):
        x = vec_cochain_from_vec(esheaf, basis[:, col])
        report = check_kernel_correspondence(esheaf, x, spd_sheaf=ssheaf)
        residuals.append(report.forward_max_residual)
        if report.converse_mode == "entrywise" and report.converse_max_residual is not None:
            residuals.append(report.converse_max_residual)
    if esheaf.n_stalk >= 3:
        reps = holonomy_reps(ssheaf)
        if all(np.linalg.norm(r - I) <= 1e-8 for r in reps):
            witness = strictness_witness(ssheaf)
            residuals += [dist_lem(Y, I) for Y in coboundary(ssheaf, witness)]
            for X in witness.values():
                w = np.sort(np.linalg.eigvalsh(X))
                distinct = 1 + int(np.sum(np.diff(w) > 1e-6))
                if distinct <= 2:
                    residuals.append(1.0)
            trials += 1
    return Verdict("correspondence", trials, _worst(residuals),
                   TOLERANCES["correspondence"], seed)


# ---------------------------------------------------------------------------
# suite runner


@dataclass(frozen=True)
class SuiteConfig:
    """Which checks to run, at what sizes, under which seed.

    The checks and every size are validated on construction, so a config
    read from JSON needs no other check. Tolerances are not configurable:
    each check is held to its entry in ``TOLERANCES``.
    """

    checks: tuple = ALL_CHECKS
    seed: int = 42
    stalk_dims: tuple = (2, 3)
    trials: int = 100
    n_instances: int = 50
    max_vertices: int = 10
    extra_edges: int = 3
    dump_dir: str | None = None

    def __post_init__(self):
        if not (isinstance(self.checks, (list, tuple))
                and all(isinstance(c, str) for c in self.checks)):
            raise InvalidInputError(f"checks must be a list of check names, got {self.checks!r}")
        unknown = [c for c in self.checks if c not in ALL_CHECKS]
        if unknown:
            raise InvalidInputError(f"unknown check name(s): {unknown}")
        # `type(x) is int` also rejects bools, which JSON `true` loads as
        for name, low in (("seed", 0), ("trials", 1), ("n_instances", 1),
                          ("max_vertices", 2), ("extra_edges", 0)):
            value = getattr(self, name)
            if type(value) is not int or value < low:
                raise InvalidInputError(f"{name} must be an integer >= {low}, got {value!r}")
        if not (isinstance(self.stalk_dims, (list, tuple)) and self.stalk_dims
                and all(type(n) is int and n >= 1 for n in self.stalk_dims)):
            raise InvalidInputError(f"stalk dimensions must be integers >= 1, "
                                    f"got {self.stalk_dims!r}")


def _dump_failure(config: SuiteConfig, check: str, instance, count: int):
    if config.dump_dir is None:
        return
    import os

    from . import jsonio

    os.makedirs(config.dump_dir, exist_ok=True)
    path = os.path.join(config.dump_dir, f"failed_{check}_{count}.json")
    if instance is not None:
        jsonio.sheaf_to_json(instance, path=path)


def _instance_sizes(config: SuiteConfig, rng) -> tuple[int, int, int]:
    n = int(rng.choice(config.stalk_dims))
    nv = int(rng.integers(2, config.max_vertices + 1))
    extra = int(rng.integers(0, config.extra_edges + 1))
    return n, nv, extra


def _run_check(config: SuiteConfig, check: str) -> Verdict:
    # each check draws from its own stream spawned from the suite seed
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=config.seed, spawn_key=(ALL_CHECKS.index(check),)))
    tol = TOLERANCES[check]
    seed = config.seed
    worst = 0.0
    trials = 0
    failures = 0

    def fold(verdict: Verdict, instance) -> None:
        nonlocal worst, trials, failures
        worst = max(worst, verdict.max_residual)  # finite: Verdict rejects NaN
        trials += verdict.trials
        if not verdict.passed:
            _dump_failure(config, check, instance, failures)
            failures += 1

    if check == "isometry":
        for n in (2, 3, 5):
            sheaf = random_sheaf(n, 4, 2, rng)
            sub_seed = int(rng.integers(0, 2**31))
            fold(oracle_isometry(sheaf, trials=200, seed=sub_seed), sheaf)
    elif check == "linearity":
        for _ in range(100):
            n, nv, extra = _instance_sizes(config, rng)
            sheaf = random_sheaf(min(n, 3), nv, extra, rng)
            sub_seed = int(rng.integers(0, 2**31))
            fold(oracle_linearity(sheaf, trials=3, seed=sub_seed), sheaf)
    elif check == "green":
        for i in range(config.n_instances):
            n, nv, extra = _instance_sizes(config, rng)
            sheaf = random_sheaf(n, min(nv + 2, 12), extra, rng)
            sub_seed = int(rng.integers(0, 2**31))
            # every tenth instance uses adversarial eigenvalue spread, with
            # its residual rescaled to the looser tolerance it is held to
            adversarial = i % 10 == 0
            v = oracle_green(sheaf, trials=config.trials, seed=sub_seed,
                             spread=1e3 if adversarial else 10.0)
            scale = tol / GREEN_SPREAD_TOLERANCE if adversarial else 1.0
            fold(Verdict(check, v.trials, v.max_residual * scale, tol, sub_seed), sheaf)
    elif check == "hodge":
        for _ in range(config.n_instances):
            n, nv, extra = _instance_sizes(config, rng)
            sheaf = random_sheaf(n, nv, extra, rng)
            fold(oracle_hodge(sheaf, seed=seed), sheaf)
    elif check == "index":
        for i in range(config.n_instances):
            n, nv, extra = _instance_sizes(config, rng)
            sheaf = random_sheaf(n, nv, extra, rng, connected=(i % 2 == 0))
            fold(oracle_index(sheaf, seed=seed), sheaf)
    elif check == "holonomy":
        # the acceptance contract wants >= 10 instances with nontrivial cycle
        # holonomy at the default size, fewer for smaller configs, and none
        # with 1x1 stalks, whose special-orthogonal maps are all +1
        quota = min(10, max(1, config.n_instances // 5)) if max(config.stalk_dims) > 1 else 0
        nontrivial = 0
        for i in range(config.n_instances):
            n, nv, _ = _instance_sizes(config, rng)
            extra = 2 if i < max(30, 3 * quota) else 0
            sheaf = random_sheaf(n, nv, extra, rng, connected=True)
            reps = holonomy_reps(sheaf)
            if any(np.linalg.norm(r - np.eye(n)) > 1e-8 for r in reps):
                nontrivial += 1
            fold(oracle_holonomy(sheaf, seed=seed), sheaf)
        if nontrivial < quota:
            fold(Verdict(check, 1, float(quota - nontrivial), tol, seed), None)
    elif check == "correspondence":
        esheaf = frustrated_two_cycle()
        dim_e = _oracle_nullity(_oracle_euclid_operator(esheaf))
        dim_s = _oracle_nullity(_oracle_operator(matched_spd_sheaf(esheaf)))
        fold(Verdict(check, 1, float(dim_e != 0 or dim_s < 1), tol, seed), esheaf)
        for i in range(config.n_instances // 2):
            n = int(rng.choice((2, 3, 4)))
            nv = int(rng.integers(2, config.max_vertices + 1))
            identity = i % 3 == 0
            extra = 0 if identity else int(rng.integers(0, 3))
            esheaf = random_euclid_sheaf(n, nv, extra, rng, identity_maps=identity)
            sub_seed = int(rng.integers(0, 2**31))
            fold(oracle_correspondence(esheaf, seed=sub_seed), esheaf)

    return Verdict(check, trials, float(worst), tol, seed)


def run_suite(config: SuiteConfig | None = None) -> tuple[list[Verdict], int]:
    """Run the configured checks; exit code 1 if any verdict fails."""
    config = config or SuiteConfig()
    verdicts = [_run_check(config, c) for c in config.checks]
    return verdicts, int(not all(v.passed for v in verdicts))
