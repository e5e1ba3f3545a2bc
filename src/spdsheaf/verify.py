"""Independent brute-force oracles for every theorem-level property.

Each oracle recomputes its target through a code path that shares nothing
with the primary implementation beyond elementary eigendecomposition: the
dense log-domain operator is rebuilt here by probing basis matrices with raw
numpy products, logs come from this module's own ``np.linalg.eigh`` calls,
and kernel dimensions from its own SVD calls; one edge loop builds the
probed SPD operator and the vector one. The oracle vectorizes with its own
stacked helpers: ``_ovec`` and its inverse ``_ounvec`` map whole (..., n, n)
stacks at once, and the Green oracle draws, logs and vectorizes the values of
all its trials in one pass (``random_spd_stack``, ``_oracle_log_vecs``) and
calls the public operators once, on its (trials, k, n, n) stacks. Residual
arithmetic is stacked too: the ``spd`` metrics and group operation are called
once per instance, on whole stacks. The suite runner draws every instance
from deterministic seeded generators and binds it to its oracle, and to the
seed drawn for it, as a picklable zero-argument call. It runs those calls on
forked worker processes (``SPD_SHEAF_THREADS`` of them, else one per usable
CPU) and folds the verdicts in draw order into one verdict per check, so its
outputs are the same at every worker count. A check is written once: its
entry in ``TOLERANCES``, its branch in ``_draw`` and its ``oracle_*``.

Every verdict takes the fixed tolerance of its check from ``TOLERANCES``
itself; no oracle, caller or suite configuration can move it. Oracles and
the suite runner fold residuals with :func:`_worst`, so a NaN residual
reaches :class:`Verdict`, where it fails the check, instead of being dropped
by the builtin ``max``.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import thread_cap
from .errors import InvalidInputError
from .euclid import (
    SECTION_TOL,
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

TOLERANCES = {
    "isometry": 1e-8,
    "linearity": 1e-9,
    "green": 1e-8,
    "hodge": 1e-7,
    "index": 0.0,
    "holonomy": 0.0,
    "correspondence": SECTION_TOL,
}

# The key order of TOLERANCES is the suite's check order, and a check's position
# is the spawn key of its instance stream: a new check goes at the end.
ALL_CHECKS = tuple(TOLERANCES)

# The suite's adversarial-spread Green instances (eigenvalue ratio 1e3) are
# held to this looser bound: their residual is rescaled by
# TOLERANCES["green"] / GREEN_SPREAD_TOLERANCE before it is folded in.
GREEN_SPREAD_TOLERANCE = 1e-6


@dataclass
class Verdict:
    """Outcome of one check: pass iff the worst residual is within the
    check's tolerance, its entry in ``TOLERANCES``.

    A NaN residual compares false, so it fails the check. A check's verdict
    carries the suite seed, an oracle's the seed it drew from, or None.
    """

    check: str
    trials: int
    max_residual: float
    seed: int | None = None
    tolerance: float = field(init=False)
    passed: bool = field(init=False)

    def __post_init__(self):
        self.tolerance = TOLERANCES[self.check]
        self.passed = bool(self.max_residual <= self.tolerance)


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
    successive one-matrix draws (:func:`random_spd` at spread 10)."""
    half = 0.5 * math.log(spread)
    A = np.empty((count, n, n))
    U = np.empty((count, n))
    for k in range(count):
        rng.standard_normal(out=A[k])
        rng.random(out=U[k])
    # the arithmetic of rng.normal (0 + 1 z) and rng.uniform (low + (high - low) x)
    A += 0.0
    u = -half + (half - -half) * U
    Q = _cayley(A)
    P = (Q * np.exp(u)[:, None, :]) @ np.swapaxes(Q, -1, -2)
    return 0.5 * (P + np.swapaxes(P, -1, -2))


def random_spd(n: int, rng) -> np.ndarray:
    """Random SPD matrix with eigenvalue ratio up to 10."""
    return random_spd_stack(n, 1, rng)[0]


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
                 identity_maps: bool = False, connected: bool = True,
                 sheaf_cls=SheafGraph) -> SheafGraph | EuclidSheaf:
    """A `sheaf_cls` on a :func:`random_graph`, with identity or random maps."""
    edges = random_graph(n_vertices, extra_edges, rng, connected)
    if identity_maps:
        return sheaf_cls.identity_maps(n_stalk, range(n_vertices), edges)
    # one block draws the same normals as two random_orthogonal calls per edge
    maps = _cayley(rng.normal(size=(len(edges), 2, n_stalk, n_stalk)))
    return sheaf_cls(n_stalk, range(n_vertices), edges, maps)


def random_euclid_sheaf(n_stalk: int, n_vertices: int, extra_edges: int, rng,
                        identity_maps: bool = False) -> EuclidSheaf:
    return random_sheaf(n_stalk, n_vertices, extra_edges, rng, identity_maps,
                        sheaf_cls=EuclidSheaf)


def random_cochain0(sheaf: SheafGraph, rng) -> dict:
    values = random_spd_stack(sheaf.n_stalk, sheaf.n_vertices, rng)
    return dict(zip(sheaf.vertices, values))


def frustrated_two_cycle() -> EuclidSheaf:
    """Two vertices joined by a plain edge and a sign-flipped edge (n = 1)."""
    I = np.eye(1)
    return EuclidSheaf(1, (0, 1), [(0, 1), (0, 1)], [(I, I), (-I, I)])


# ---------------------------------------------------------------------------
# oracle-local linear algebra (independent of the primary implementation)


@functools.lru_cache(maxsize=None)
def _otriu(n: int) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray]:
    """Read-only upper-triangle indices of an n x n matrix and diagonal mask, per n."""
    iu = np.triu_indices(n)
    diag = iu[0] == iu[1]
    for a in (*iu, diag):
        a.flags.writeable = False
    return iu, diag


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


def _oracle_incidence(sheaf, blocks, m: int) -> np.ndarray:
    """Dense (|E| m, |V| m) coboundary: per edge, +tail block at its tail, -head at its head."""
    B = np.zeros((sheaf.n_edges * m, sheaf.n_vertices * m))
    index = {v: i for i, v in enumerate(sheaf.vertices)}
    for k, ((t, h), (bt, bh)) in enumerate(zip(sheaf.edges, blocks)):
        it, ih = index[t], index[h]
        B[k * m:(k + 1) * m, it * m:(it + 1) * m] += bt
        B[k * m:(k + 1) * m, ih * m:(ih + 1) * m] -= bh
    return B


def _oracle_operator(sheaf: SheafGraph) -> np.ndarray:
    """Dense log-domain coboundary operator rebuilt by basis probing."""
    basis = _obasis(sheaf.n_stalk)
    blocks = [(_ovec(Mt @ basis @ Mt.T).T, _ovec(Mh @ basis @ Mh.T).T)
              for Mt, Mh in sheaf.maps]
    return _oracle_incidence(sheaf, blocks, len(basis))


def _oracle_euclid_operator(sheaf: EuclidSheaf) -> np.ndarray:
    """Dense vector coboundary operator: the maps themselves are the blocks."""
    return _oracle_incidence(sheaf, sheaf.maps, sheaf.n_stalk)


def _oracle_rank(s: np.ndarray, tol: float = 1e-8) -> int:
    """Number of the descending singular values ``s`` above ``tol * s[0]``."""
    return int(np.sum(s > tol * s[0])) if s.size and s[0] > 0 else 0


def _oracle_nullity(A: np.ndarray, tol: float = 1e-8) -> int:
    if A.shape[0] == 0:
        return A.shape[1]
    return A.shape[1] - _oracle_rank(np.linalg.svd(A, compute_uv=False), tol)


def _nontrivial_holonomy(reps, n: int) -> bool:
    """Whether some holonomy representative lies more than 1e-8 from I_n."""
    return any(np.linalg.norm(r - np.eye(n)) > 1e-8 for r in reps)


# ---------------------------------------------------------------------------
# oracles


def _worst(residuals) -> float:
    """Largest of some scalar and 1-D residuals, 0.0 for none. A NaN among
    them is the result: the builtin ``max(0.0, nan)`` is 0.0."""
    return float(np.max(np.hstack([0.0, *residuals])))


def oracle_isometry(sheaf: SheafGraph, seed: int) -> Verdict:
    """Both metrics must be invariant under congruence by the sheaf's maps, in 200 trials."""
    trials = 200
    rng = np.random.default_rng(seed)
    n = sheaf.n_stalk
    # tail and head map of each edge in turn, as in `sheaf.maps`
    maps = np.reshape(sheaf.maps, (-1, n, n)) if sheaf.n_edges else np.eye(n)[None]
    M = maps[np.arange(trials) % len(maps)]
    # the X, Y draws of each trial in turn, bitwise the alternating random_spd draws
    XY = random_spd_stack(n, 2 * trials, rng)
    X, Y = XY[0::2], XY[1::2]
    MX = M @ X @ np.swapaxes(M, -1, -2)
    MY = M @ Y @ np.swapaxes(M, -1, -2)
    residuals = [np.abs(dist_airm(MX, MY) - dist_airm(X, Y)),
                 np.abs(dist_lem(MX, MY) - dist_lem(X, Y))]
    return Verdict("isometry", trials, _worst(residuals), seed)


def oracle_linearity(sheaf: SheafGraph, seed: int) -> Verdict:
    """Coboundary must commute with the group operation, edge by edge, in 3 trials."""
    trials = 3
    n, nv = sheaf.n_stalk, sheaf.n_vertices
    # each trial's sigma, then its tau: bitwise the successive per-trial draws
    values = random_spd_stack(n, 2 * trials * nv, np.random.default_rng(seed))
    sigma, tau = np.moveaxis(values.reshape(trials, 2, nv, n, n), 1, 0)
    ds, dt, lhs = coboundary(sheaf, np.stack([sigma, tau, group_op(sigma, tau)]))
    residuals = dist_lem(lhs, group_op(ds, dt))  # (trials, |E|): one row per trial
    return Verdict("linearity", trials, _worst(residuals), seed)


def oracle_green(sheaf: SheafGraph, seed: int, spread: float = 10.0) -> Verdict:
    """Green identity, cross-checked against the probed dense operator, in 100 trials."""
    trials = 100
    rng = np.random.default_rng(seed)
    B = _oracle_operator(sheaf)
    nv, ne, n = sheaf.n_vertices, sheaf.n_edges, sheaf.n_stalk
    m = n * (n + 1) // 2
    # each trial draws its vertex values, then its edge values
    values = random_spd_stack(n, trials * (nv + ne), rng, spread).reshape(trials, nv + ne, n, n)
    logs = _oracle_log_vecs(values)
    zs = logs[:, :nv].reshape(trials, nv * m)
    zt = logs[:, nv:].reshape(trials, ne * m)
    sigma, tau = values[:, :nv], values[:, nv:]
    lhs = cochain_pairing(coboundary(sheaf, sigma), tau)
    rhs = cochain_pairing(sigma, adjoint(sheaf, tau))
    mat_lhs = np.array([(B @ zs[t]) @ zt[t] for t in range(trials)])
    mat_rhs = np.array([zs[t] @ (B.T @ zt[t]) for t in range(trials)])
    residuals = [np.abs(lhs - rhs), np.abs(lhs - mat_lhs), np.abs(rhs - mat_rhs)]
    return Verdict("green", trials, _worst(residuals), seed)


def oracle_hodge(sheaf: SheafGraph) -> Verdict:
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
    Y = laplacian(sheaf, sym_exp(logs)).reshape(-1, n, n)
    w = np.linalg.eigvalsh(0.5 * (Y + np.swapaxes(Y, -1, -2)))
    # a nonpositive eigenvalue has no real log: NaN, without numpy's warning
    log_w = np.log(np.where(w > 0.0, w, np.nan))
    residuals = [abs(dim_b - dim_g), abs(basis.shape[1] - dim_b),
                 np.sqrt(np.sum(log_w ** 2, axis=-1))]
    return Verdict("hodge", basis.shape[1] + 1, _worst(residuals))


def oracle_index(sheaf: SheafGraph) -> Verdict:
    """Primary and probed-operator indices must equal (|V|-|E|) n(n+1)/2."""
    m = sheaf.n_stalk * (sheaf.n_stalk + 1) // 2
    expected = (sheaf.n_vertices - sheaf.n_edges) * m
    B = _oracle_operator(sheaf)
    dim_b = _oracle_nullity(B)
    dim_bt = _oracle_nullity(B.T)
    worst = max(abs(sheaf_index(sheaf) - expected), abs((dim_b - dim_bt) - expected))
    return Verdict("index", 1, float(worst))


def oracle_holonomy(sheaf: SheafGraph) -> Verdict:
    """SVD kernel dimension equals the holonomy fixed-space dimension."""
    dim_svd = _oracle_nullity(_oracle_operator(sheaf))
    reps = holonomy_reps(sheaf)
    dim_fixed = holonomy_fixed_space(reps, sheaf.n_stalk).shape[1]
    return Verdict("holonomy", len(reps) + 1, float(abs(dim_svd - dim_fixed)))


def oracle_correspondence(esheaf: EuclidSheaf) -> Verdict:
    """Embedded Euclidean sections must be SPD sections; strictness where defined."""
    Be = _oracle_euclid_operator(esheaf)
    # oracle-owned Euclidean kernel
    if Be.shape[0] == 0:
        basis = np.eye(Be.shape[1])
    else:
        _, s, Vh = np.linalg.svd(Be)
        basis = Vh[_oracle_rank(s):].T
    residuals = []
    trials = basis.shape[1]
    I = np.eye(esheaf.n_stalk)
    for col in range(basis.shape[1]):
        x = vec_cochain_from_vec(esheaf, basis[:, col])
        report = check_kernel_correspondence(esheaf, x)
        residuals.append(report.forward_max_residual)
        if report.converse_mode == "entrywise" and report.converse_max_residual is not None:
            residuals.append(report.converse_max_residual)
    if esheaf.n_stalk >= 3:
        ssheaf = matched_spd_sheaf(esheaf)
        if not _nontrivial_holonomy(holonomy_reps(ssheaf), esheaf.n_stalk):
            witness = strictness_witness(ssheaf)
            residuals.append(dist_lem(coboundary(ssheaf, witness), I))
            # eigvalsh sorts ascending; a value with <= 2 distinct eigenvalues fails
            values = np.stack(list(witness.values()))
            gaps = np.diff(np.linalg.eigvalsh(values), axis=-1) > 1e-6
            if np.any(np.sum(gaps, axis=-1) <= 1):
                residuals.append(1.0)
            trials += 1
    return Verdict("correspondence", trials, _worst(residuals))


# ---------------------------------------------------------------------------
# suite runner


# the suite's stalk dimensions, instances per check, and vertex and extra-edge bounds
_STALK_DIMS, _N_INSTANCES, _MAX_VERTICES, _EXTRA_EDGES = (2, 3), 50, 10, 3


@dataclass(frozen=True)
class SuiteConfig:
    """Which checks to run, under which seed, and where to dump failures.

    The checks and the seed are validated on construction. Sizes and
    tolerances are not configurable: the suite is sized by the module
    constants, and each check is held to its entry in ``TOLERANCES``.
    """

    checks: tuple = ALL_CHECKS
    seed: int = 42
    dump_dir: str | None = None

    def __post_init__(self):
        if not (isinstance(self.checks, (list, tuple)) and self.checks
                and all(isinstance(c, str) for c in self.checks)):
            raise InvalidInputError(
                f"checks must be a nonempty list of check names, got {self.checks!r}")
        unknown = [c for c in self.checks if c not in ALL_CHECKS]
        if unknown:
            raise InvalidInputError(f"unknown check name(s): {unknown}")
        if len(set(self.checks)) < len(self.checks):
            raise InvalidInputError(f"each check may be named once, got {list(self.checks)}")
        # `type(x) is int` also rejects bools
        if type(self.seed) is not int or self.seed < 0:
            raise InvalidInputError(f"seed must be an integer >= 0, got {self.seed!r}")


def _dump_failure(config: SuiteConfig, check: str, instance, count: int):
    if config.dump_dir is None:
        return
    from . import jsonio

    os.makedirs(config.dump_dir, exist_ok=True)
    path = os.path.join(config.dump_dir, f"failed_{check}_{count}.json")
    if instance is not None:
        jsonio.write_text(path, jsonio.sheaf_to_json(instance))


def _instance_sizes(rng) -> tuple[int, int, int]:
    n = int(rng.choice(_STALK_DIMS))
    nv = int(rng.integers(2, _MAX_VERTICES + 1))
    extra = int(rng.integers(0, _EXTRA_EDGES + 1))
    return n, nv, extra


def _adversarial_green(sheaf: SheafGraph, seed: int) -> Verdict:
    """:func:`oracle_green` at eigenvalue spread 1e3, its residual rescaled to
    the looser tolerance such instances are held to."""
    v = oracle_green(sheaf, seed, spread=1e3)
    return Verdict("green", v.trials,
                   v.max_residual * (TOLERANCES["green"] / GREEN_SPREAD_TOLERANCE), seed)


def _draw(config: SuiteConfig, check: str):
    """Yield one ``(instance, job)`` pair per oracle call of `check`, in order.

    A job is a picklable zero-argument call that returns the instance's
    :class:`Verdict`: an oracle bound to its instance (and to the seed drawn
    for it), or a verdict decided here, in the drawing process. Every draw
    happens here, so the jobs are pure and can run in any process.
    """
    # each check draws from its own stream spawned from the suite seed
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=config.seed, spawn_key=(ALL_CHECKS.index(check),)))
    if check == "isometry":
        for n in (2, 3, 5):
            sheaf = random_sheaf(n, 4, 2, rng)
            yield sheaf, partial(oracle_isometry, sheaf, int(rng.integers(0, 2**31)))
    elif check == "linearity":
        for _ in range(100):
            n, nv, extra = _instance_sizes(rng)
            sheaf = random_sheaf(min(n, 3), nv, extra, rng)
            yield sheaf, partial(oracle_linearity, sheaf, int(rng.integers(0, 2**31)))
    elif check == "green":
        for i in range(_N_INSTANCES):
            n, nv, extra = _instance_sizes(rng)
            sheaf = random_sheaf(n, min(nv + 2, 12), extra, rng)
            # every tenth instance uses adversarial eigenvalue spread
            oracle = _adversarial_green if i % 10 == 0 else oracle_green
            yield sheaf, partial(oracle, sheaf, int(rng.integers(0, 2**31)))
    elif check == "hodge":
        for _ in range(_N_INSTANCES):
            n, nv, extra = _instance_sizes(rng)
            sheaf = random_sheaf(n, nv, extra, rng)
            yield sheaf, partial(oracle_hodge, sheaf)
    elif check == "index":
        for i in range(_N_INSTANCES):
            n, nv, extra = _instance_sizes(rng)
            sheaf = random_sheaf(n, nv, extra, rng, connected=(i % 2 == 0))
            yield sheaf, partial(oracle_index, sheaf)
    elif check == "holonomy":
        # the acceptance contract wants >= 10 instances with nontrivial cycle holonomy
        quota = _N_INSTANCES // 5
        nontrivial = 0
        for i in range(_N_INSTANCES):
            n, nv, _ = _instance_sizes(rng)
            extra = 2 if i < 3 * quota else 0
            sheaf = random_sheaf(n, nv, extra, rng, connected=True)
            if _nontrivial_holonomy(holonomy_reps(sheaf), n):
                nontrivial += 1
            yield sheaf, partial(oracle_holonomy, sheaf)
        if nontrivial < quota:
            yield None, partial(Verdict, check, 1, float(quota - nontrivial))
    elif check == "correspondence":
        esheaf = frustrated_two_cycle()
        dim_e = _oracle_nullity(_oracle_euclid_operator(esheaf))
        dim_s = _oracle_nullity(_oracle_operator(matched_spd_sheaf(esheaf)))
        yield esheaf, partial(Verdict, check, 1, float(dim_e != 0 or dim_s < 1))
        for i in range(_N_INSTANCES // 2):
            n = int(rng.choice((2, 3, 4)))
            nv = int(rng.integers(2, _MAX_VERTICES + 1))
            identity = i % 3 == 0
            extra = 0 if identity else int(rng.integers(0, 3))
            esheaf = random_euclid_sheaf(n, nv, extra, rng, identity_maps=identity)
            # the oracle draws nothing, but this draw keeps later instances where they were
            rng.integers(0, 2**31)
            yield esheaf, partial(oracle_correspondence, esheaf)


def _call(job) -> Verdict:
    return job()


def _fold(config: SuiteConfig, check: str, results) -> Verdict:
    """One verdict for `check` from its ``(instance, verdict)`` results, in
    draw order, dumping each failing instance."""
    worst = 0.0
    trials = 0
    failures = 0
    for instance, verdict in results:
        worst = _worst([worst, verdict.max_residual])
        trials += verdict.trials
        if not verdict.passed:
            _dump_failure(config, check, instance, failures)
            failures += 1
    return Verdict(check, trials, worst, config.seed)


def _evaluate_all(jobs: list) -> list[Verdict]:
    """The verdicts of `jobs`, in order, on up to SPD_SHEAF_THREADS (else the
    usable CPUs) forked worker processes; in-process for one worker or where
    processes cannot be forked. A pooled job pickles its oracle by reference,
    so an oracle patched in for a test must be importable to run pooled."""
    cap = thread_cap()
    if cap is None:
        cap = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(cap or 1, len(jobs))
    if workers > 1:
        # imported here, so that no other subcommand pays for these imports
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        if "fork" in multiprocessing.get_all_start_methods():
            fork = multiprocessing.get_context("fork")
            with ProcessPoolExecutor(workers, mp_context=fork) as pool:
                return list(pool.map(_call, jobs))
    return list(map(_call, jobs))


def run_suite(config: SuiteConfig | None = None) -> tuple[list[Verdict], int]:
    """Run the configured checks; exit code 1 if any verdict fails.

    This process draws every instance, the oracle calls run on worker
    processes (:func:`_evaluate_all`), and this process folds their verdicts
    in draw order: verdicts and failure dumps are the same at every worker
    count.
    """
    config = config or SuiteConfig()
    drawn = {check: list(_draw(config, check)) for check in config.checks}
    results = iter(_evaluate_all([job for pairs in drawn.values() for _, job in pairs]))
    verdicts = [_fold(config, check, [(instance, next(results)) for instance, _ in pairs])
                for check, pairs in drawn.items()]
    return verdicts, int(not all(v.passed for v in verdicts))
