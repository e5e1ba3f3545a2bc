"""SPD geometry kernel: frozen examples plus seeded property loops."""

import math

import numpy as np
import pytest

import spdsheaf as s
import spdsheaf.spd as spd_module
from spdsheaf.errors import DomainError, InvalidInputError
from spdsheaf.spd import (
    EIG_FLOOR,
    as_orth,
    as_spd,
    as_sym,
    conj_operator,
    sym_eig,
    sym_to_vec,
    vec_to_sym,
)
from spdsheaf.verify import random_orthogonal, random_spd, random_spd_stack


def random_sym(n, rng, scale=1.0):
    A = rng.normal(scale=scale, size=(n, n))
    return 0.5 * (A + A.T)


# ---------------------------------------------------------------------------
# sym_eig


def test_sym_eig_identity():
    w, V = sym_eig(np.eye(3))
    np.testing.assert_allclose(w, [1.0, 1.0, 1.0])


def test_sym_eig_sorted_descending_diag():
    w, V = sym_eig(np.diag([3.0, 2.0, 1.0]))
    np.testing.assert_allclose(w, [3.0, 2.0, 1.0])
    np.testing.assert_allclose(np.abs(V), np.eye(3), atol=1e-12)


def test_sym_eig_reconstruction():
    rng = np.random.default_rng(0)
    S = random_sym(5, rng)
    w, V = sym_eig(S)
    err = np.linalg.norm(V @ np.diag(w) @ V.T - S) / np.linalg.norm(S)
    assert err <= 1e-10


def test_sym_eig_rejects_nonfinite():
    A = np.eye(2)
    A[0, 1] = np.nan
    with pytest.raises(InvalidInputError):
        sym_eig(A)


# ---------------------------------------------------------------------------
# log / exp round trips


def test_spd_log_identity_and_diag():
    np.testing.assert_allclose(s.spd_log(np.eye(3)), np.zeros((3, 3)), atol=1e-14)
    np.testing.assert_allclose(
        s.spd_log(np.diag([math.e, 1.0, 1.0])), np.diag([1.0, 0.0, 0.0]), atol=1e-14)


def test_sym_exp_zero_and_diag():
    np.testing.assert_allclose(s.sym_exp(np.zeros((3, 3))), np.eye(3), atol=1e-14)
    np.testing.assert_allclose(
        s.sym_exp(np.diag([1.0, 0.0, 0.0])), np.diag([math.e, 1.0, 1.0]), atol=1e-14)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_exp_log_round_trip(n):
    rng = np.random.default_rng(n)
    for _ in range(200):
        P = random_spd_stack(n, 1, rng, spread=1e3)[0]
        Q = s.sym_exp(s.spd_log(P))
        assert np.linalg.norm(Q - P) / np.linalg.norm(P) <= 1e-9
        S = random_sym(n, rng)
        np.testing.assert_allclose(s.spd_log(s.sym_exp(S)), S, atol=1e-9)


def test_spd_log_rejects_nonpositive():
    with pytest.raises(DomainError):
        s.spd_log(np.diag([1.0, -0.5]))


def test_sym_exp_overflow():
    with pytest.raises(OverflowError):
        s.sym_exp(np.diag([800.0, 0.0]))


def test_sym_exp_reaches_the_float_range():
    # exp(709.08) is about 8.8e307: representable, and so is its symmetrized
    # sum 2 exp(709.08); exp(709.1) doubled would overflow
    Q = random_orthogonal(3, np.random.default_rng(0))
    with np.errstate(over="raise", invalid="raise"):
        top = s.sym_exp(Q @ np.diag([709.08, 1.0, 2.0]) @ Q.T)
        mean = s.power_euclidean_mean([np.diag([1e305, 1.0]), np.diag([1e305, 2.0])], 0.5)
    assert np.all(np.isfinite(top))
    np.testing.assert_allclose(np.linalg.eigvalsh(top)[-1], math.exp(709.08), rtol=1e-12)
    np.testing.assert_allclose(mean, np.diag([1e305, ((1 + math.sqrt(2)) / 2) ** 2]),
                               rtol=1e-12, atol=1e-12)
    with pytest.raises(OverflowError):
        s.sym_exp(Q @ np.diag([709.1, 1.0, 2.0]) @ Q.T)


# ---------------------------------------------------------------------------
# group structure


def test_group_identity_and_inverse():
    rng = np.random.default_rng(1)
    P = random_spd(3, rng)
    np.testing.assert_allclose(s.group_op(P, np.eye(3)), P, atol=1e-11)
    # the inverse is exp(-log P)
    np.testing.assert_allclose(s.group_op(P, s.sym_exp(-s.spd_log(P))), np.eye(3), atol=1e-9)
    np.testing.assert_allclose(s.sym_exp(-s.spd_log(np.diag([2.0, 0.5]))), np.diag([0.5, 2.0]),
                               atol=1e-12)


def test_group_commuting_diagonals():
    np.testing.assert_allclose(
        s.group_op(np.diag([2.0, 3.0]), np.diag([5.0, 0.5])), np.diag([10.0, 1.5]),
        atol=1e-12)


def test_group_abelian_and_associative():
    rng = np.random.default_rng(2)
    for _ in range(50):
        P, Q, R = (random_spd(3, rng) for _ in range(3))
        np.testing.assert_allclose(s.group_op(P, Q), s.group_op(Q, P), atol=1e-9)
        np.testing.assert_allclose(
            s.group_op(s.group_op(P, Q), R), s.group_op(P, s.group_op(Q, R)), atol=1e-9)
        # log is a homomorphism onto addition
        np.testing.assert_allclose(
            s.spd_log(s.group_op(P, Q)), s.spd_log(P) + s.spd_log(Q), atol=1e-9)


def test_group_dimension_mismatch():
    with pytest.raises(InvalidInputError):
        s.group_op(np.eye(2), np.eye(3))


@pytest.mark.parametrize("fn", [s.group_op, s.dist_airm, s.dist_lem, s.pairing])
def test_pair_functions_name_both_shapes_on_mismatch(fn):
    with pytest.raises(InvalidInputError, match=r"\(2, 2\) vs \(3, 3\)"):
        fn(np.eye(2), np.eye(3))
    with pytest.raises(InvalidInputError, match=r"\(2, 3, 3\) vs \(4, 3, 3\)"):
        fn(np.broadcast_to(np.eye(3), (2, 3, 3)), np.broadcast_to(np.eye(3), (4, 3, 3)))


@pytest.mark.parametrize("fn", [s.dist_airm, s.dist_lem, s.pairing])
def test_pair_functions_broadcast_and_answer_in_kind(fn):
    rng = np.random.default_rng(19)
    X = random_spd_stack(3, 6, rng).reshape(2, 3, 3, 3)
    Y = random_spd(3, rng)
    assert type(fn(X[0, 0], Y)) is float
    out = fn(X, Y)
    assert out.shape == (2, 3)
    for idx in np.ndindex(2, 3):
        np.testing.assert_allclose(out[idx], fn(X[idx], Y), rtol=1e-12, atol=1e-14)
    # a single first argument broadcasts too; all three are symmetric
    np.testing.assert_allclose(fn(Y, X[0]), out[0], rtol=1e-10)


# ---------------------------------------------------------------------------
# power means


def test_power_euclidean_mean():
    rng = np.random.default_rng(4)
    P = random_spd(3, rng)
    np.testing.assert_allclose(s.power_euclidean_mean([P, P, P], 0.5), P, atol=1e-10)
    np.testing.assert_allclose(
        s.power_euclidean_mean([np.diag([4.0]), np.diag([16.0])], 0.5),
        np.diag([9.0]), atol=1e-12)
    Q = random_spd(3, rng)
    np.testing.assert_allclose(s.power_euclidean_mean([P, Q], 1.0), 0.5 * (P + Q),
                               atol=1e-12)
    with pytest.raises(InvalidInputError):
        s.power_euclidean_mean([], 0.5)
    with pytest.raises(InvalidInputError):
        s.power_euclidean_mean([P], 1.5)
    with pytest.raises(InvalidInputError):
        s.power_euclidean_mean([np.ones(2), np.ones(2)], 0.5)


def _eigh_power(X, theta):
    """X**theta from one eigendecomposition, independent of the package."""
    w, V = np.linalg.eigh(X)
    return (V * w**theta) @ V.T


def test_power_euclidean_mean_matches_per_matrix_powers():
    rng = np.random.default_rng(11)
    mats = [random_spd(3, rng) for _ in range(6)]
    for theta in (0.25, 0.5, 1.0):
        reference = _eigh_power(np.mean([_eigh_power(X, theta) for X in mats], axis=0),
                                1.0 / theta)
        np.testing.assert_allclose(s.power_euclidean_mean(mats, theta), reference,
                                   rtol=1e-12, atol=0)
    with pytest.raises(DomainError):
        s.power_euclidean_mean([mats[0], -mats[1]], 0.5)


# ---------------------------------------------------------------------------
# metrics and pairing


def test_distance_examples():
    X = random_spd(3, np.random.default_rng(5))
    assert s.dist_airm(X, X) <= 1e-12
    assert s.dist_lem(X, X) <= 1e-12
    assert abs(s.dist_airm(np.eye(3), np.diag([math.e**2, 1.0, 1.0])) - 2.0) <= 1e-12
    assert abs(s.dist_lem(np.eye(2), np.diag([math.e, math.e])) - math.sqrt(2)) <= 1e-12


@pytest.mark.parametrize("n", [2, 3, 5])
def test_congruence_invariance_of_both_metrics(n):
    rng = np.random.default_rng(n + 10)
    for _ in range(50):
        M = random_orthogonal(n, rng)
        X, Y = random_spd(n, rng), random_spd(n, rng)
        MX, MY = s.congruence(M, X), s.congruence(M, Y)
        assert abs(s.dist_airm(MX, MY) - s.dist_airm(X, Y)) <= 1e-8
        assert abs(s.dist_lem(MX, MY) - s.dist_lem(X, Y)) <= 1e-8


def test_pairing_properties():
    rng = np.random.default_rng(6)
    X, Y1, Y2 = (random_spd(3, rng) for _ in range(3))
    assert abs(s.pairing(np.eye(3), X)) <= 1e-12
    assert abs(s.pairing(X, X) - np.linalg.norm(s.spd_log(X)) ** 2) <= 1e-10
    # bilinear over the group operation
    assert abs(s.pairing(X, s.group_op(Y1, Y2))
               - s.pairing(X, Y1) - s.pairing(X, Y2)) <= 1e-9
    # positive definite: zero exactly at the identity
    assert s.pairing(X, X) > 0


def test_congruence_log_commutes():
    rng = np.random.default_rng(7)
    M = random_orthogonal(4, rng)
    P = random_spd(4, rng)
    np.testing.assert_allclose(s.spd_log(s.congruence(M, P)),
                               M @ s.spd_log(P) @ M.T, atol=1e-9)
    np.testing.assert_allclose(s.congruence(np.eye(4), P), P, atol=1e-14)
    # permutations reorder the diagonal
    perm = np.eye(3)[[2, 0, 1]]
    np.testing.assert_allclose(s.congruence(perm, np.diag([1.0, 2.0, 3.0])),
                               np.diag([3.0, 1.0, 2.0]), atol=1e-14)


def test_congruence_homomorphism():
    rng = np.random.default_rng(8)
    M = random_orthogonal(3, rng)
    P, Q = random_spd(3, rng), random_spd(3, rng)
    np.testing.assert_allclose(
        s.congruence(M, s.group_op(P, Q)),
        s.group_op(s.congruence(M, P), s.congruence(M, Q)), atol=1e-9)


def test_congruence_rejects_non_orthogonal():
    with pytest.raises(InvalidInputError):
        s.congruence(np.diag([2.0, 1.0]), np.eye(2))


# ---------------------------------------------------------------------------
# Cayley transform


def test_cayley_examples():
    np.testing.assert_allclose(s.cayley(np.zeros((3, 3))), np.eye(3), atol=1e-14)
    M = s.cayley(np.array([[0.0, 2.0], [-2.0, 0.0]]))
    np.testing.assert_allclose(M, [[0.0, 1.0], [-1.0, 0.0]], atol=1e-12)


def test_cayley_orthogonal_det_one():
    rng = np.random.default_rng(9)
    for _ in range(50):
        A = rng.normal(size=(3, 3))
        M = s.cayley(A - A.T)
        assert np.linalg.norm(M.T @ M - np.eye(3)) <= 1e-10
        assert abs(np.linalg.det(M) - 1.0) <= 1e-10


def test_cayley_smooth():
    rng = np.random.default_rng(10)
    A = rng.normal(size=(3, 3))
    S = A - A.T
    E = rng.normal(size=(3, 3))
    E = E - E.T
    base = s.cayley(S)
    for h in (1e-3, 1e-4, 1e-5):
        step = np.linalg.norm(s.cayley(S + h * E) - base)
        assert step <= 10.0 * h * np.linalg.norm(E)


def test_cayley_rejects_non_skew():
    with pytest.raises(InvalidInputError):
        s.cayley(np.eye(2))


def test_cayley_stack_matches_per_matrix():
    rng = np.random.default_rng(25)
    A = rng.normal(size=(2, 5, 4, 4))
    S = A - np.swapaxes(A, -1, -2)
    M = s.cayley(S)
    assert M.shape == S.shape
    for idx in np.ndindex(2, 5):
        np.testing.assert_allclose(M[idx], s.cayley(S[idx]), rtol=0, atol=1e-15)
    S[1, 3, 0, 0] = 1.0  # one non-skew matrix in the stack
    with pytest.raises(InvalidInputError):
        s.cayley(S)


# ---------------------------------------------------------------------------
# Frechet derivative of log


def test_frechet_log_at_identity_and_diagonal():
    rng = np.random.default_rng(11)
    V = random_sym(3, rng)
    np.testing.assert_allclose(s.frechet_log(np.eye(3), V), V, atol=1e-12)
    P = np.diag([2.0, 5.0, 9.0])
    Vd = np.diag([1.0, 2.0, 3.0])
    np.testing.assert_allclose(s.frechet_log(P, Vd),
                               np.diag([1 / 2.0, 2 / 5.0, 3 / 9.0]), atol=1e-12)


def test_frechet_log_linear_in_direction():
    rng = np.random.default_rng(12)
    P = random_spd(3, rng)
    V, W = random_sym(3, rng), random_sym(3, rng)
    np.testing.assert_allclose(
        s.frechet_log(P, 2.0 * V + 0.5 * W),
        2.0 * s.frechet_log(P, V) + 0.5 * s.frechet_log(P, W), atol=1e-10)


# gaps 1e-9 and 0 fall below the 1e-8 relative switch to the close-eigenvalue branch
@pytest.mark.parametrize("gap", [1.0, 1e-3, 1e-6, 1e-9, 0.0])
def test_frechet_log_matches_central_differences(gap):
    rng = np.random.default_rng(13)
    for _ in range(20):
        Q = random_orthogonal(3, rng)
        lam = np.array([1.0, 1.0 + gap, 2.5])
        P = (Q * lam) @ Q.T
        V = random_sym(3, rng)
        h = 1e-5
        fd = (s.spd_log(P + h * V) - s.spd_log(P - h * V)) / (2 * h)
        D = s.frechet_log(P, V)
        assert np.linalg.norm(D - fd) / np.linalg.norm(fd) <= 1e-5


# ---------------------------------------------------------------------------
# eigenvalue-domain maps


def test_erank_examples():
    assert abs(s.erank(np.eye(3)) - 3.0) <= 1e-12
    lam = 1.0
    eps = 1e-9
    assert s.erank(np.diag([lam, eps, eps])) <= 1.001
    # two equal eigenvalues and one vanishing: entropy limit gives 2
    assert abs(s.erank(np.diag([1.0, 1.0, 1e-300])) - 2.0) <= 1e-9
    assert 1.0 <= s.erank(random_spd(4, np.random.default_rng(14))) <= 4.0


def test_clamp_spd():
    # as_spd floors the eigenvalues of its input at EIG_FLOOR
    out = as_spd(np.diag([1.0, -0.5]))
    np.testing.assert_allclose(out, np.diag([1.0, 1e-4]), atol=1e-15)
    P = np.diag([2.0, 3.0])
    assert as_spd(P) is not P
    np.testing.assert_allclose(as_spd(P), P)  # exact when above floor
    rng = np.random.default_rng(15)
    S = random_sym(4, rng)
    w = np.linalg.eigvalsh(as_spd(S))
    assert w.min() >= 1e-4 - 1e-15
    # in a stack, only the matrices below the floor are rebuilt
    Q = random_spd(4, rng)
    out = as_spd(np.stack([Q, S, Q]))
    assert np.array_equal(out[0], as_spd(Q)) and np.array_equal(out[2], out[0])
    np.testing.assert_allclose(out[1], as_spd(S), rtol=0, atol=1e-15)


# ---------------------------------------------------------------------------
# vectorization


def test_sym_vec_round_trip_and_isometry():
    rng = np.random.default_rng(16)
    S = random_sym(4, rng)
    v = sym_to_vec(S)
    assert v.shape == (s.sym_dim(4),)
    np.testing.assert_allclose(vec_to_sym(v, 4), S, atol=1e-14)
    assert abs(np.dot(v, v) - np.sum(S * S)) <= 1e-12


def test_triangle_indices_are_shared_and_read_only():
    from spdsheaf.spd import _triu_scale

    iu, scale = _triu_scale(3)
    assert _triu_scale(3)[0] is iu and _triu_scale(3)[1] is scale
    assert np.array_equal(iu[0], np.triu_indices(3)[0])
    for a in (*iu, scale):
        with pytest.raises(ValueError):
            a[0] = 7
    # the vectorization never writes through the shared arrays
    S = random_sym(3, np.random.default_rng(17))
    np.testing.assert_array_equal(vec_to_sym(sym_to_vec(S), 3), S)
    assert np.array_equal(scale, np.where(iu[0] == iu[1], 1.0, math.sqrt(2.0)))


def test_conj_operator_matches_congruence():
    rng = np.random.default_rng(17)
    M = random_orthogonal(3, rng)
    S = random_sym(3, rng)
    np.testing.assert_allclose(conj_operator(M) @ sym_to_vec(S),
                               sym_to_vec(M @ S @ M.T), atol=1e-12)
    # orthogonal input gives an orthogonal operator
    C = conj_operator(M)
    np.testing.assert_allclose(C.T @ C, np.eye(6), atol=1e-12)


def test_validated_constructors():
    with pytest.raises(InvalidInputError):
        as_sym(np.array([[0.0, 1.0], [0.0, 0.0]]))
    P = as_spd(np.diag([1.0, -1.0]))
    assert np.linalg.eigvalsh(P).min() >= EIG_FLOOR - 1e-15
    with pytest.raises(InvalidInputError):
        as_orth(np.diag([2.0, 1.0]))


@pytest.mark.parametrize("M", [np.full((2, 2), 1e308), np.diag([1.0, -1.7e308])])
def test_as_sym_rejects_a_symmetrization_that_overflows(M):
    # finite entries whose sum A + A^T overflows leave inf in the symmetric part
    with pytest.raises(InvalidInputError, match="non-finite"):
        as_sym(M)
    with pytest.raises(InvalidInputError, match="non-finite"):
        as_spd(np.stack([np.eye(2), M]))


def test_conj_operator_takes_stacks():
    rng = np.random.default_rng(18)
    Ms = np.stack([random_orthogonal(3, rng) for _ in range(5)]).reshape(5, 1, 3, 3)
    C = conj_operator(Ms)
    assert C.shape == (5, 1, 6, 6)
    for k in range(5):
        assert np.array_equal(C[k, 0], conj_operator(Ms[k, 0]))


def _fixed(X):
    """The fixed second argument of a pair function: SPD and symmetric, not diagonal."""
    n = X.shape[-1]
    return np.diag(np.linspace(0.5, 2.0, n)) + 0.1


_SPD_ERRORS = {"nan": InvalidInputError, "indefinite": DomainError}
_ORTH_ERRORS = {"nan": InvalidInputError, "scaled": InvalidInputError}

# name -> (function, input domain, error of each bad matrix kind)
_STACK_CASES = {
    "spd_log": (s.spd_log, "spd", _SPD_ERRORS),
    "sym_exp": (s.sym_exp, "sym", {"nan": InvalidInputError, "overflow": OverflowError}),
    "sym_eig": (sym_eig, "sym", {"nan": InvalidInputError}),
    "as_sym": (as_sym, "sym", {"nan": InvalidInputError, "asymmetric": InvalidInputError}),
    "as_spd": (as_spd, "sym", {"nan": InvalidInputError, "asymmetric": InvalidInputError}),
    "as_orth": (as_orth, "orth", _ORTH_ERRORS),
    "is_signed_permutation": (spd_module.is_signed_permutation, "orth", {}),
    "group_op": (lambda P: s.group_op(P, _fixed(P)), "spd", _SPD_ERRORS),
    "dist_airm": (lambda X: s.dist_airm(X, _fixed(X)), "spd", _SPD_ERRORS),
    "dist_lem": (lambda X: s.dist_lem(X, _fixed(X)), "spd", _SPD_ERRORS),
    "pairing": (lambda X: s.pairing(X, _fixed(X)), "spd", _SPD_ERRORS),
    "congruence": (lambda M: s.congruence(M, _fixed(M)), "orth", _ORTH_ERRORS),
    "cayley": (s.cayley, "skew", {"nan": InvalidInputError, "asymmetric": InvalidInputError}),
    "frechet_log": (lambda P: s.frechet_log(P, _fixed(P)), "spd", _SPD_ERRORS),
    "erank": (s.erank, "spd", _SPD_ERRORS),
    "conj_operator": (conj_operator, "orth", {}),
}

def test_is_signed_permutation_per_matrix():
    P = -np.eye(3)[[2, 0, 1]]
    R = random_orthogonal(3, np.random.default_rng(20))
    assert spd_module.is_signed_permutation(P) is True
    assert spd_module.is_signed_permutation(R) is False
    assert spd_module.is_signed_permutation(np.stack([P, R, np.eye(3)])).tolist() == [
        True, False, True]


# public callables of spdsheaf.spd that take no (n, n) matrix
_NON_MATRIX = {"sym_dim", "sym_to_vec", "vec_to_sym", "skew_from_params", "power_euclidean_mean"}


def test_every_matrix_function_has_a_stack_case():
    public = {name for name, obj in vars(spd_module).items()
              if callable(obj) and not name.startswith("_")
              and getattr(obj, "__module__", None) == spd_module.__name__}
    assert _NON_MATRIX <= public
    assert public - _NON_MATRIX == set(_STACK_CASES)


def _bad_matrix(kind, n):
    M = np.eye(n)
    if kind == "asymmetric":
        M[0, 1] = 1e-6
    else:
        M[0, 0] = {"nan": np.nan, "indefinite": -1.0, "overflow": 800.0, "scaled": 2.0}[kind]
    return M


def _domain_stack(domain, n, rng):
    if domain == "spd":
        return random_spd_stack(n, 10, rng, spread=100.0)
    if domain == "orth":
        return np.stack([random_orthogonal(n, rng) for _ in range(10)])
    if domain == "skew":
        A = rng.normal(size=(10, n, n))
        return A - np.swapaxes(A, -1, -2)
    return np.stack([random_sym(n, rng) for _ in range(10)])


def _comparable(name, result):
    """The float arrays to compare; eigenvectors are fixed only up to sign."""
    parts = [result[0], np.abs(result[1])] if name == "sym_eig" else [result]
    return [np.asarray(p, dtype=np.float64) for p in parts]


@pytest.mark.parametrize("n", [2, 3, 5])
@pytest.mark.parametrize("name", sorted(_STACK_CASES))
def test_spectral_functions_take_stacks(name, n):
    fn, domain, bad_kinds = _STACK_CASES[name]
    rng = np.random.default_rng(n)
    X = _domain_stack(domain, n, rng).reshape(2, 5, n, n)
    out = fn(X)
    for idx in np.ndindex(2, 5):
        for got, want in zip(_comparable(name, out), _comparable(name, fn(X[idx]))):
            # a stacked product may round in another order than a single one
            np.testing.assert_allclose(got[idx], want, rtol=1e-12,
                                       atol=1e-12 * np.max(np.abs(want)))
    for kind, error in bad_kinds.items():
        stack = X.copy()
        stack[1, 3] = _bad_matrix(kind, n)
        with pytest.raises(error):
            fn(stack[1, 3])
        with pytest.raises(error):
            fn(stack)
