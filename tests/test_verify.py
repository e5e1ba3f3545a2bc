"""Oracle suite: trivial instances, determinism, corruption detection."""

import math
import os

import numpy as np
import pytest

import spdsheaf as s
from spdsheaf import verify
from spdsheaf.errors import DomainError, InvalidInputError
from spdsheaf.verify import (
    ALL_CHECKS,
    TOLERANCES,
    SuiteConfig,
    Verdict,
    frustrated_two_cycle,
    oracle_correspondence,
    oracle_green,
    oracle_hodge,
    oracle_holonomy,
    oracle_index,
    oracle_isometry,
    oracle_linearity,
    random_euclid_sheaf,
    random_graph,
    random_orthogonal,
    random_sheaf,
    random_spd,
    random_spd_stack,
    run_suite,
)


def identity_sheaf(n=3, k=5):
    return s.SheafGraph.identity_maps(n, range(k), [(i, i + 1) for i in range(k - 1)])


def test_verdict_invariants():
    v = Verdict("green", 10, 1e-12, 0)
    assert v.passed and v.tolerance == TOLERANCES["green"] == 1e-8
    v = Verdict("green", 10, 1e-6, 0)
    assert not v.passed
    assert Verdict("green", 10, float("nan"), 0).passed is False


def test_verdict_takes_no_tolerance(monkeypatch):
    # the tolerance is the check's, so no caller can loosen it
    with pytest.raises(TypeError):
        Verdict("green", 1, 0.0, 1e-3, 0)
    with pytest.raises(TypeError):
        Verdict("green", 1, 0.0, 0, tolerance=1e-3)
    monkeypatch.setattr(verify, "_N_INSTANCES", 4)
    verdicts, _ = run_suite(SuiteConfig())
    assert [v.check for v in verdicts] == list(ALL_CHECKS)
    assert all(v.tolerance == TOLERANCES[v.check] for v in verdicts)


def test_oracle_green_identity_sheaf():
    v = oracle_green(identity_sheaf(), seed=0)
    assert v.max_residual <= 1e-12


def test_oracle_green_adversarial_spread():
    rng = np.random.default_rng(1)
    sheaf = random_sheaf(3, 8, 3, rng)
    v = oracle_green(sheaf, seed=2, spread=1e3)
    assert v.max_residual <= 1e-6


def _reference_spd(n, rng, spread):
    """One Cayley orthogonal sample and one eigenvalue draw, one matrix at a time."""
    A = rng.normal(size=(n, n))
    S = A - A.T
    I = np.eye(n)
    Q = np.linalg.solve(I - 0.5 * S, I + 0.5 * S)
    half = 0.5 * math.log(spread)
    P = (Q * np.exp(rng.uniform(-half, half, size=n))) @ Q.T
    return 0.5 * (P + P.T)


@pytest.mark.parametrize("spread", [10.0, 1e3])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_random_spd_stack_matches_successive_draws(n, spread):
    rngs = [np.random.default_rng(n) for _ in range(3)]
    stack = random_spd_stack(n, 7, rngs[0], spread)
    singles = np.stack([random_spd_stack(n, 1, rngs[1], spread)[0] for _ in range(7)])
    reference = np.stack([_reference_spd(n, rngs[2], spread) for _ in range(7)])
    assert stack.shape == (7, n, n)
    assert np.array_equal(stack, singles) and np.array_equal(stack, reference)
    # the generator is left in the same state: the next draws are equal
    nxt = [random_spd_stack(n, 1, rng, spread)[0] for rng in rngs]
    assert np.array_equal(nxt[0], nxt[1]) and np.array_equal(nxt[0], nxt[2])


@pytest.mark.parametrize("count", [0, 1, 7])
@pytest.mark.parametrize("spread", [10.0, 1e3])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_random_spd_stack_draws_are_the_normal_and_uniform_draws(monkeypatch, n, spread,
                                                                 count):
    # the Cayley input and the eigenvalue logs are bitwise those of a loop of
    # rng.normal(size=(n, n)) and rng.uniform(-h, h, size=n) calls
    rng, ref = np.random.default_rng(10 * n + count), np.random.default_rng(10 * n + count)
    half = 0.5 * math.log(spread)
    draws = [(ref.normal(size=(n, n)), ref.uniform(-half, half, size=n)) for _ in range(count)]
    seen = {}

    def recorded(name, f):
        def call(x):
            seen[name] = x.copy()
            return f(x)
        return call

    monkeypatch.setattr(verify, "_cayley", recorded("A", verify._cayley))
    monkeypatch.setattr(verify.np, "exp", recorded("u", np.exp))
    random_spd_stack(n, count, rng, spread)
    monkeypatch.undo()
    A = np.reshape([a for a, _ in draws], (count, n, n))
    u = np.reshape([u for _, u in draws], (count, n))
    assert seen["A"].tobytes() == A.tobytes() and seen["u"].tobytes() == u.tobytes()
    assert rng.bit_generator.state == ref.bit_generator.state


@pytest.mark.parametrize("n", [1, 2, 3])
def test_random_sheaf_maps_match_per_edge_draws(n):
    # one block of normals for all maps equals a tail and a head draw per edge
    rngs = [np.random.default_rng(n) for _ in range(2)]
    sheaf = random_sheaf(n, 7, 3, rngs[0])
    assert list(sheaf.edges) == random_graph(7, 3, rngs[1])
    for mt, mh in sheaf.maps:
        assert np.array_equal(mt, random_orthogonal(n, rngs[1]))
        assert np.array_equal(mh, random_orthogonal(n, rngs[1]))
    assert rngs[0].random() == rngs[1].random()


def test_oracle_green_draws_every_trial_in_one_stack(monkeypatch):
    sheaf = random_sheaf(3, 6, 2, np.random.default_rng(12))
    nv, ne = sheaf.n_vertices, sheaf.n_edges
    seen = []

    def recording(sheaf, sigma):
        seen.append(sigma.copy())
        return s.coboundary(sheaf, sigma)

    monkeypatch.setattr(verify, "coboundary", recording)
    assert oracle_green(sheaf, seed=5).passed
    # one stacked coboundary call on all 100 trials, not one per trial
    assert [d.shape for d in seen] == [(100, nv, 3, 3)]
    # each trial draws its vertex values, then its edge values
    values = random_spd_stack(3, 100 * (nv + ne), np.random.default_rng(5))
    assert np.array_equal(seen[0], values.reshape(100, nv + ne, 3, 3)[:, :nv])


def test_oracle_green_calls_the_operators_once(monkeypatch):
    sheaf = random_sheaf(2, 5, 1, np.random.default_rng(14))
    calls = {name: 0 for name in ("coboundary", "adjoint", "cochain_pairing")}

    def counting(name):
        primary = getattr(verify, name)

        def wrapper(*args):
            calls[name] += 1
            return primary(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(verify, name, counting(name))
    assert oracle_green(sheaf, seed=2).passed
    assert calls == {"coboundary": 1, "adjoint": 1, "cochain_pairing": 2}
    calls.update(coboundary=0)
    assert oracle_linearity(sheaf, seed=2).passed
    assert calls["coboundary"] == 1


def _perturb_adjoint(monkeypatch):
    """Make the primary adjoint seen by the oracles scale its last vertex value."""
    primary = verify.adjoint

    def perturbed(sheaf, tau):
        out = primary(sheaf, tau)  # (trials, |V|, n, n): scale the last vertex
        out[..., -1, :, :] *= 1.01
        return out

    monkeypatch.setattr(verify, "adjoint", perturbed)


def test_oracle_green_detects_perturbed_adjoint(monkeypatch):
    rng = np.random.default_rng(7)
    sheaf = random_sheaf(2, 6, 3, rng)
    assert sheaf.n_vertices != sheaf.n_edges
    assert oracle_green(sheaf, seed=3).passed
    _perturb_adjoint(monkeypatch)
    assert not oracle_green(sheaf, seed=3).passed


def _negate_laplacian(monkeypatch):
    primary = verify.laplacian

    def negated(sheaf, sigma):
        out = primary(sheaf, sigma)  # (sections, |V|, n, n): -I at the last vertex
        out[..., -1, :, :] = -np.eye(sheaf.n_stalk)
        return out

    monkeypatch.setattr(verify, "laplacian", negated)


def test_oracle_hodge_rejects_nan_residual(monkeypatch):
    """A Laplacian value with a negative eigenvalue has no real log; its NaN
    residual must reach Verdict and fail it, not be dropped by the fold."""
    sheaf = random_sheaf(2, 5, 0, np.random.default_rng(0))
    assert oracle_hodge(sheaf).passed
    _negate_laplacian(monkeypatch)
    v = oracle_hodge(sheaf)
    assert math.isnan(v.max_residual) and v.passed is False


@pytest.mark.parametrize("cap", ["1", "2"])
def test_run_suite_nan_residual_exits_1_and_dumps(tmp_path, monkeypatch, cap):
    monkeypatch.setenv("SPD_SHEAF_THREADS", cap)
    _negate_laplacian(monkeypatch)
    monkeypatch.setattr(verify, "_N_INSTANCES", 3)
    config = SuiteConfig(checks=("index", "hodge"), dump_dir=str(tmp_path))
    verdicts, code = run_suite(config)
    assert code == 1
    assert [v.check for v in verdicts] == ["index", "hodge"]
    assert verdicts[0].passed
    assert math.isnan(verdicts[1].max_residual) and verdicts[1].passed is False
    assert sorted(os.listdir(tmp_path)) == [f"failed_hodge_{i}.json" for i in range(3)]


def _failing_oracle(sheaf):
    # at module scope, so that a pooled job can pickle it by reference
    raise DomainError(f"oracle failed in process {os.getpid()}")


def test_run_suite_leaves_no_worker_and_passes_on_a_worker_error(monkeypatch):
    """The pool is shut down when the suite returns or raises, and an
    oracle's exception in a worker reaches the caller as it does in-process."""
    import multiprocessing

    monkeypatch.setattr(verify, "_N_INSTANCES", 3)
    monkeypatch.setenv("SPD_SHEAF_THREADS", "2")
    assert run_suite(SuiteConfig(checks=("index", "hodge")))[1] == 0
    assert multiprocessing.active_children() == []

    monkeypatch.setattr(verify, "oracle_index", _failing_oracle)
    for cap in ("1", "2"):
        monkeypatch.setenv("SPD_SHEAF_THREADS", cap)
        with pytest.raises(DomainError, match="oracle failed") as raised:
            run_suite(SuiteConfig(checks=("index",)))
        # at 2 workers the oracle ran in another process
        assert (str(os.getpid()) in str(raised.value)) == (cap == "1")
        assert multiprocessing.active_children() == []


def test_every_job_is_a_picklable_zero_argument_call(monkeypatch):
    """A job runs in any process: unpickled, it returns the verdict it
    returns in place, for its own check. Only the drawing oracles take a seed."""
    import pickle

    monkeypatch.setattr(verify, "_N_INSTANCES", 5)
    for check in ALL_CHECKS:
        jobs = [job for _, job in verify._draw(SuiteConfig(), check)]
        assert jobs
        for job in jobs:
            verdict = job()
            assert isinstance(verdict, Verdict) and verdict.check == check
            assert pickle.loads(pickle.dumps(job))() == verdict
    sheaf = random_sheaf(2, 5, 2, np.random.default_rng(9))
    for oracle in (oracle_hodge, oracle_index, oracle_holonomy):
        assert oracle(sheaf).seed is None
    assert oracle_correspondence(frustrated_two_cycle()).seed is None


def test_worst_keeps_nan_wherever_it_comes():
    assert verify._worst([]) == 0.0
    assert verify._worst([1e-3, np.array([2e-3, 5e-4])]) == 2e-3
    for residuals in ([float("nan"), 1.0], [1.0, float("nan")],
                      [0.5, np.array([0.1, np.nan])]):
        assert math.isnan(verify._worst(residuals))


def test_ovec_round_trips_stacks():
    rng = np.random.default_rng(8)
    for n in range(1, 5):
        A = rng.normal(size=(3, 2, n, n))
        S = A + np.swapaxes(A, -1, -2)
        x = verify._ovec(S)
        assert x.shape == (3, 2, n * (n + 1) // 2)
        np.testing.assert_allclose(verify._ounvec(x, n), S, rtol=1e-15)
        # isometric: Frobenius inner products are Euclidean ones
        np.testing.assert_allclose(np.sum(x[0, 0] * x[1, 1]), np.sum(S[0, 0] * S[1, 1]),
                                   rtol=1e-13)


def test_oracle_triangle_indices_are_cached_and_read_only():
    iu, diag = verify._otriu(3)
    assert verify._otriu(3)[0] is iu and verify._otriu(3)[1] is diag
    assert np.array_equal(iu[1], np.triu_indices(3)[1])
    assert np.array_equal(diag, iu[0] == iu[1])
    for a in (*iu, diag):
        with pytest.raises(ValueError):
            a[0] = 1


def test_oracle_hodge_cases():
    no_edges = s.SheafGraph(2, [0, 1], [], [])
    assert oracle_hodge(no_edges).passed
    assert oracle_hodge(identity_sheaf()).passed
    rng = np.random.default_rng(3)
    assert oracle_hodge(random_sheaf(2, 7, 3, rng)).passed


def test_oracle_index_and_holonomy():
    assert oracle_index(identity_sheaf()).passed
    rng = np.random.default_rng(4)
    for _ in range(5):
        sheaf = random_sheaf(2, 6, 2, rng)
        assert oracle_index(sheaf).passed
        assert oracle_holonomy(sheaf).passed


def test_oracle_correspondence_instances():
    assert oracle_correspondence(frustrated_two_cycle()).passed
    rng = np.random.default_rng(5)
    assert oracle_correspondence(
        random_euclid_sheaf(3, 5, 0, rng, identity_maps=True)).passed


def test_oracle_isometry_draws_are_the_alternating_random_spd_draws():
    """One stacked draw of 2 * trials values, split into X = [0::2] and
    Y = [1::2], is bitwise the per-trial X, Y draws and leaves the same state."""
    for n in (1, 2, 3, 5):
        stacked, single = np.random.default_rng(n), np.random.default_rng(n)
        XY = random_spd_stack(n, 2 * 7, stacked)
        pairs = [(random_spd(n, single), random_spd(n, single)) for _ in range(7)]
        assert np.array_equal(XY[0::2], [X for X, _ in pairs])
        assert np.array_equal(XY[1::2], [Y for _, Y in pairs])
        assert stacked.bit_generator.state == single.bit_generator.state


def test_oracle_isometry_matches_a_per_trial_reference():
    sheaf = random_sheaf(3, 4, 2, np.random.default_rng(21))
    rng = np.random.default_rng(3)
    maps = [M for mm in sheaf.maps for M in mm]
    worst = 0.0
    for t in range(200):
        M, X, Y = maps[t % len(maps)], random_spd(3, rng), random_spd(3, rng)
        MX, MY = M @ X @ M.T, M @ Y @ M.T
        worst = max(worst, abs(s.dist_airm(MX, MY) - s.dist_airm(X, Y)),
                    abs(s.dist_lem(MX, MY) - s.dist_lem(X, Y)))
    v = oracle_isometry(sheaf, seed=3)
    assert v.trials == 200 and abs(v.max_residual - worst) <= 1e-15


def test_oracle_isometry_detects_corruption():
    I = np.eye(2)
    bad = np.array([[1.0, 0.3], [0.0, 1.0]])  # invertible, not orthogonal
    corrupted = s.SheafGraph.identity_maps(2, [0, 1], [(0, 1)])._with_maps([I], [bad])
    v = oracle_isometry(corrupted, seed=0)
    assert not v.passed


def test_run_suite_deterministic_and_green(monkeypatch):
    monkeypatch.setattr(verify, "_N_INSTANCES", 5)
    config = SuiteConfig()
    verdicts, code = run_suite(config)
    assert code == 0
    assert [v.check for v in verdicts] == list(ALL_CHECKS)
    verdicts2, _ = run_suite(config)
    for a, b in zip(verdicts, verdicts2):
        assert a.max_residual == b.max_residual
        assert a.trials == b.trials


def test_run_suite_subset_and_unknown_check(monkeypatch):
    monkeypatch.setattr(verify, "_N_INSTANCES", 5)
    verdicts, code = run_suite(SuiteConfig(checks=("index",)))
    assert code == 0 and len(verdicts) == 1
    with pytest.raises(InvalidInputError):
        run_suite(SuiteConfig(checks=("bogus",)))


_BAD_SUITE_FIELDS = {"seed_bool": {"seed": True}, "check_not_a_string": {"checks": [{}]},
                     "checks_string": {"checks": "index"}, "checks_empty": {"checks": ()},
                     "checks_repeated": {"checks": ("index", "hodge", "index")}}


@pytest.mark.parametrize("case", sorted(_BAD_SUITE_FIELDS))
def test_suite_config_rejects_wrong_types_and_ranges(case):
    with pytest.raises(InvalidInputError):
        SuiteConfig(**_BAD_SUITE_FIELDS[case])


@pytest.mark.parametrize("cap", ["1", "2"])
def test_run_suite_failing_check_exits_1_and_dumps(tmp_path, monkeypatch, cap):
    monkeypatch.setenv("SPD_SHEAF_THREADS", cap)
    _perturb_adjoint(monkeypatch)
    monkeypatch.setattr(verify, "_N_INSTANCES", 3)
    config = SuiteConfig(checks=("green",), dump_dir=str(tmp_path))
    verdicts, code = run_suite(config)
    assert code == 1
    assert not verdicts[0].passed
    dumps = sorted(f for f in os.listdir(tmp_path) if f.startswith("failed_green"))
    assert dumps == [f"failed_green_{i}.json" for i in range(3)]
    # dumped instance replays through the loader
    from spdsheaf import jsonio

    sheaf, _ = jsonio.load_sheaf(os.path.join(tmp_path, dumps[0]))
    assert sheaf.n_edges > 0


def test_oracle_linearity_random():
    rng = np.random.default_rng(6)
    v = oracle_linearity(random_sheaf(3, 6, 2, rng), seed=1)
    assert v.passed and v.trials == 3


_ORACLE_HELPERS = ("_otriu", "_ovec", "_ounvec", "_obasis", "_oracle_log_vecs",
                   "_oracle_incidence", "_oracle_operator", "_oracle_nullity",
                   "_oracle_euclid_operator")
_PLAIN_GRAPH_FIELDS = {"edges", "maps", "n_stalk", "n_vertices", "n_edges", "vertices"}


def test_oracle_helpers_share_no_primary_code():
    """The oracle-local helpers use no name imported from the primary modules
    and read a sheaf only through its plain graph fields, and the oracles
    reach the primary code only through its public names: no private kernel
    such as ``_coboundary_logs`` or ``_from_spectrum`` (function bodies are
    inspected; type annotations are not code paths)."""
    import ast
    import inspect

    from spdsheaf import euclid, sheaf, spd, verify
    from spdsheaf.sheaf import _OrthGraph

    tree = ast.parse(inspect.getsource(verify))
    primary = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level == 1
               and node.module in ("sheaf", "spd", "euclid") for alias in node.names}
    assert {"coboundary", "SheafGraph", "EuclidSheaf", "sym_exp"} <= primary
    graph_attrs = {name for cls in (_OrthGraph, s.SheafGraph, euclid.EuclidSheaf)
                   for name in list(vars(cls)) + list(cls.__slots__)}
    forbidden = graph_attrs - _PLAIN_GRAPH_FIELDS
    assert {"_tails", "_heads", "_tail_maps", "_head_maps"} <= forbidden
    funcs = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    for name in _ORACLE_HELPERS:
        nodes = [n for stmt in funcs[name].body for n in ast.walk(stmt)]
        names = {n.id for n in nodes if isinstance(n, ast.Name)}
        attrs = {n.attr for n in nodes if isinstance(n, ast.Attribute)}
        assert not names & primary, (name, names & primary)
        assert not attrs & forbidden, (name, attrs & forbidden)
    private = {name for module in (sheaf, spd, euclid) for name in vars(module)
               if name.startswith("_") and not name.startswith("__")}
    private |= {name for name in primary | graph_attrs
                if name.startswith("_") and not name.startswith("__")}
    assert {"_coboundary_logs", "_adjoint_logs", "_from_spectrum", "_tails", "_from_arrays",
            "_with_maps", "_fill", "_checked_parts"} <= private
    oracles = [name for name in funcs if name.startswith("oracle_")]
    assert len(oracles) == len(ALL_CHECKS)
    for name in oracles:
        nodes = [n for stmt in funcs[name].body for n in ast.walk(stmt)]
        used = ({n.id for n in nodes if isinstance(n, ast.Name)}
                | {n.attr for n in nodes if isinstance(n, ast.Attribute)})
        assert not used & private, (name, used & private)
