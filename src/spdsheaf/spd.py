"""Dense small-matrix SPD geometry kernel.

Points on the SPD manifold, their symmetric logarithms, and orthogonal
matrices are all plain float64 ``numpy`` arrays. Every operation is a pure
function; eigendecomposition (``numpy.linalg.eigh``) is the single backend
for logarithms, exponentials and power means, which is the right trade-off
for the small stalk dimensions this package targets (n <= 13).

Every matrix function takes one (n, n) matrix or a (..., n, n) stack and
answers in kind: a matrix for a matrix, a float (or bool) for one matrix
and an array of the batch shape for a stack. The two arguments of a pair
function share n and broadcast over their leading axes. A stack holding a
bad matrix raises the error that matrix raises alone. Every spectral map
``V diag(f(w)) V^T`` is rebuilt by one helper.

The Lie group structure used throughout is the log-Euclidean one:
``group_op(P, Q) = exp(log P + log Q)`` with identity ``I`` and inverse
``exp(-log P)`` (``sym_exp(-spd_log(P))``), which makes the SPD cone an
abelian group.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Sequence

import numpy as np

from .errors import DomainError, InvalidInputError

#: Eigenvalue floor of validated SPD construction and of diffusion outputs.
EIG_FLOOR = 1e-4

#: Maximum asymmetry accepted by the validated symmetric constructor.
SYM_ATOL = 1e-12

#: Maximum ||M^T M - I||_F for a matrix to count as orthogonal.
ORTH_TOL = 1e-10

#: Maximum distance of |M| from its rounding for a signed permutation.
SIGNED_PERM_TOL = 1e-10

# Largest eigenvalue whose exp() keeps V diag(exp(w)) V^T and the sum in
# _sym_part finite: log(float64 max / 2), about 709.09 (exp alone overflows
# above 709.78).
_EXP_MAX = math.log(np.finfo(np.float64).max / 2)

_SQRT2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# validated constructors


def _square_stack(A, name: str = "matrix") -> np.ndarray:
    """Validated (..., n, n) stack of finite square matrices."""
    A = np.asarray(A, dtype=np.float64)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2]:
        raise InvalidInputError(f"{name} must be square, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise InvalidInputError(f"{name} has non-finite entries")
    return A


def _square_pair(X, Y) -> tuple[np.ndarray, np.ndarray]:
    """Two validated square stacks of one n whose leading axes broadcast."""
    X, Y = _square_stack(X), _square_stack(Y)
    try:
        if X.shape[-1] == Y.shape[-1]:
            np.broadcast_shapes(X.shape[:-2], Y.shape[:-2])
            return X, Y
    except ValueError:
        pass
    raise InvalidInputError(f"dimension mismatch: {X.shape} vs {Y.shape}")


def _per_matrix(values: np.ndarray) -> float | bool | np.ndarray:
    """A Python scalar for one matrix, the array of the batch shape for a stack."""
    return values.item() if values.ndim == 0 else values


def as_sym(A) -> np.ndarray:
    """Validated symmetric matrix or stack: checks asymmetry <= SYM_ATOL, symmetrizes.

    Finiteness is checked once, on the symmetrized stack: every non-finite
    entry of A leaves one there, and so does a pair of finite entries whose
    sum overflows (about 9e307 and up).
    """
    A = np.asarray(A, dtype=np.float64)
    if A.ndim < 2 or A.shape[-1] != A.shape[-2]:
        raise InvalidInputError(f"symmetric matrix must be square, got shape {A.shape}")
    At = np.swapaxes(A, -1, -2)
    with np.errstate(over="ignore", invalid="ignore"):
        S = 0.5 * (A + At)
        if not np.all(np.isfinite(S)):
            raise InvalidInputError("symmetric matrix has non-finite entries")
        if np.max(np.abs(A - At), initial=0.0) > SYM_ATOL:
            raise InvalidInputError("matrix is not symmetric within tolerance")
    return S


def as_spd(A) -> np.ndarray:
    """Validated SPD construction: symmetrize and floor eigenvalues at EIG_FLOOR = 1e-4.

    This is the entry point for values coming from outside (files, raw
    covariances, user input). Internal operations whose outputs are SPD by
    construction do not re-clamp. A matrix already SPD above the floor comes
    back as its symmetrization, with no reconstruction error; in a stack,
    only the matrices below the floor are rebuilt.
    """
    S = as_sym(A)
    w, V = np.linalg.eigh(S)
    low = w[..., 0] < EIG_FLOOR
    if not np.any(low):
        return S
    return np.where(low[..., None, None], _from_spectrum(np.maximum(w, EIG_FLOOR), V), S)


def as_orth(M) -> np.ndarray:
    """Validated orthogonal matrix or stack (||M^T M - I||_F <= ORTH_TOL)."""
    M = _square_stack(M, "orthogonal matrix")
    err = np.max(np.linalg.norm(np.swapaxes(M, -1, -2) @ M - np.eye(M.shape[-1]),
                                axis=(-2, -1)), initial=0.0)
    if err > ORTH_TOL:
        raise InvalidInputError(f"matrix is not orthogonal: ||M^T M - I||_F = {err:.3e}")
    return M


def is_signed_permutation(M) -> bool | np.ndarray:
    """True where M is a permutation matrix up to entry signs (within SIGNED_PERM_TOL)."""
    A = np.abs(np.asarray(M, dtype=np.float64))
    R = np.round(A)
    integral = np.max(np.abs(A - R), axis=(-2, -1)) <= SIGNED_PERM_TOL
    return _per_matrix(integral & np.all(R.sum(axis=-2) == 1, axis=-1)
                       & np.all(R.sum(axis=-1) == 1, axis=-1))


# ---------------------------------------------------------------------------
# spectral calculus


def sym_eig(S) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition ``(w, V)`` of a symmetric matrix or stack,
    eigenvalues descending: ``V[..., :, k]`` is the unit eigenvector for
    ``w[..., k]``.

    The input is symmetrized first; its asymmetry is not checked.
    """
    w, V = np.linalg.eigh(_sym_part(_square_stack(S, "symmetric matrix")))
    return w[..., ::-1], V[..., ::-1]


def _sym_part(A: np.ndarray) -> np.ndarray:
    return 0.5 * (A + np.swapaxes(A, -1, -2))


def _from_spectrum(w: np.ndarray, V: np.ndarray) -> np.ndarray:
    """The symmetric ``V diag(w) V^T`` of (..., n) values and (..., n, n) vectors."""
    return _sym_part((V * w[..., None, :]) @ np.swapaxes(V, -1, -2))


def spd_log(P) -> np.ndarray:
    """Matrix logarithm of an SPD matrix or stack (symmetric output).

    Raises DomainError if any eigenvalue is <= 0; validated constructors are
    responsible for flooring, so no clamping happens here.
    """
    w, V = sym_eig(P)
    if np.min(w, initial=np.inf) <= 0.0:
        raise DomainError(f"matrix is not positive definite (min eigenvalue {np.min(w):.3e})")
    return _from_spectrum(np.log(w), V)


def sym_exp(S) -> np.ndarray:
    """Matrix exponential of a symmetric matrix or stack (SPD output)."""
    w, V = sym_eig(S)
    if np.max(w, initial=-np.inf) > _EXP_MAX:
        raise OverflowError(f"matrix exponential overflows (max eigenvalue {np.max(w):.3e})")
    return _from_spectrum(np.exp(w), V)


# ---------------------------------------------------------------------------
# Lie group operations


def group_op(P, Q) -> np.ndarray:
    """Abelian group operation ``exp(log P + log Q)``."""
    P, Q = _square_pair(P, Q)
    return sym_exp(spd_log(P) + spd_log(Q))


# ---------------------------------------------------------------------------
# metrics and pairings


def dist_airm(X, Y) -> float | np.ndarray:
    """Affine-invariant distance ``||log(X^{-1/2} Y X^{-1/2})||_F``."""
    X, Y = _square_pair(X, Y)
    w, V = sym_eig(X)
    if np.min(w, initial=np.inf) <= 0.0:
        raise DomainError("first argument is not positive definite")
    ixh = (V / np.sqrt(w)[..., None, :]) @ np.swapaxes(V, -1, -2)
    cw = np.linalg.eigvalsh(_sym_part(ixh @ Y @ ixh))
    if np.min(cw, initial=np.inf) <= 0.0:
        raise DomainError("second argument is not positive definite")
    return _per_matrix(np.sqrt(np.sum(np.log(cw) ** 2, axis=-1)))


def dist_lem(X, Y) -> float | np.ndarray:
    """Log-Euclidean distance ``||log X - log Y||_F``."""
    X, Y = _square_pair(X, Y)
    return _per_matrix(np.linalg.norm(spd_log(X) - spd_log(Y), axis=(-2, -1)))


def pairing(X, Y) -> float | np.ndarray:
    """Log-domain pairing ``<log X, log Y>_F``.

    Bilinear over the group operation in each argument; ``pairing(X, X)`` is
    ``||log X||_F**2``, zero exactly when X is the identity.
    """
    X, Y = _square_pair(X, Y)
    return _per_matrix(np.sum(spd_log(X) * spd_log(Y), axis=(-2, -1)))


def congruence(M, P) -> np.ndarray:
    """Orthogonal congruence ``M P M^T`` (an isometry of both metrics)."""
    M, P = _square_pair(as_orth(M), P)
    return _sym_part(M @ P @ np.swapaxes(M, -1, -2))


# ---------------------------------------------------------------------------
# orthogonal parameterizations


def cayley(S) -> np.ndarray:
    """Scaled Cayley transform ``(I - S/2)^{-1} (I + S/2)`` of a skew matrix.

    Accepts one matrix or a (..., n, n) stack, each of which must be skew.
    The output is exactly orthogonal with determinant +1; for real skew input
    the resolvent is always nonsingular.
    """
    S = _square_stack(S, "skew matrix")
    St = np.swapaxes(S, -1, -2)
    asym = np.max(np.abs(S + St), axis=(-2, -1), initial=0.0)
    scale = np.max(np.abs(S), axis=(-2, -1), initial=0.0)
    if np.any(asym > 1e-10 * (1.0 + scale)):
        raise InvalidInputError("input is not skew-symmetric")
    S = 0.5 * (S - St)
    I = np.eye(S.shape[-1])
    return np.linalg.solve(I - 0.5 * S, I + 0.5 * S)


def skew_from_params(params, n: int) -> np.ndarray:
    """Fill the strictly lower triangle with ``params`` and antisymmetrize.

    A (..., n(n-1)/2) stack of parameter rows gives a (..., n, n) stack.
    """
    params = np.asarray(params, dtype=np.float64)
    k = n * (n - 1) // 2
    if params.ndim == 0 or params.shape[-1] != k:
        raise InvalidInputError(
            f"expected {k} skew parameters for n={n}, got shape {params.shape}")
    L = np.zeros(params.shape[:-1] + (n, n))
    il = np.tril_indices(n, -1)
    L[..., il[0], il[1]] = params
    return L - np.swapaxes(L, -1, -2)


# ---------------------------------------------------------------------------
# derivatives and eigenvalue-domain maps


def frechet_log(P, V) -> np.ndarray:
    """Directional derivative of the matrix logarithm at P in direction V.

    Daleckii-Krein formula in the eigenbasis of P: the coefficient for the
    (i, j) entry is the divided difference ``(log l_i - log l_j)/(l_i - l_j)``
    when the gap exceeds ``1e-8 * max(l_i, l_j)`` and ``1/l_i`` otherwise.
    """
    P, V = _square_pair(P, as_sym(V))
    w, U = sym_eig(P)
    if np.min(w, initial=np.inf) <= 0.0:
        raise DomainError("base point is not positive definite")
    wi, wj = w[..., :, None], w[..., None, :]
    gap = wi - wj
    with np.errstate(divide="ignore", invalid="ignore"):
        K = (np.log(wi) - np.log(wj)) / gap
    K = np.where(np.abs(gap) <= 1e-8 * np.maximum(wi, wj), 1.0 / wi, K)
    Ut = np.swapaxes(U, -1, -2)
    return _sym_part(U @ (K * (Ut @ V @ U)) @ Ut)


def erank(P) -> float | np.ndarray:
    """Effective rank: exp of the entropy of the normalized eigenvalue spectrum.

    1 for nearly rank-one matrices, n for isotropic ones. Uses 0*log 0 = 0.
    """
    return _per_matrix(_erank_of_spectra(np.linalg.eigvalsh(as_sym(P))))


def _erank_of_spectra(w: np.ndarray) -> np.ndarray:
    """Effective ranks of a (..., n) stack of eigenvalue rows."""
    total = np.sum(w, axis=-1, keepdims=True)
    if np.min(w, initial=0.0) < 0.0 or np.any(total <= 0.0):
        raise DomainError("effective rank requires a PSD matrix with positive trace")
    lam = w / total
    nz = lam > 0.0
    plogp = np.where(nz, lam * np.log(np.where(nz, lam, 1.0)), 0.0)
    return np.exp(-np.sum(plogp, axis=-1))


def power_euclidean_mean(mats: Sequence[np.ndarray] | np.ndarray, theta: float) -> np.ndarray:
    """Power-Euclidean mean ``((1/k) sum X_i**theta)**(1/theta)``, 0 < theta <= 1,
    of a sequence or (k, n, n) stack of SPD matrices."""
    if not (0.0 < theta <= 1.0):
        raise InvalidInputError("theta must lie in (0, 1]")
    try:
        stack = np.asarray(mats, dtype=np.float64)
    except (ValueError, TypeError):
        raise InvalidInputError("matrices must share a common dimension") from None
    if stack.ndim != 3 or len(stack) == 0:
        raise InvalidInputError(f"expected a nonempty (k, n, n) stack, got shape {stack.shape}")
    return sym_exp(_log_power_mean(spd_log(stack), theta, [0])[0])


def _log_power_mean(logs: np.ndarray, theta: float, starts: Sequence[int]) -> np.ndarray:
    """Logs of the power-Euclidean means of the values of the segments
    ``logs[starts[i]:starts[i + 1]]`` of an (N, n, n) log stack, one (n, n)
    row per segment: ``log mean exp(theta logs) / theta``. ``starts`` must
    rise strictly from 0, so no segment is empty. Each segment's spectra of
    ``theta logs`` are shifted down by their top eigenvalue c before the exp
    and ``c I`` is added back after the log, so no exp overflows.

    Forming a shifted mean M rounds its entry (i, j) by about eps
    sqrt(M_ii M_jj), which moves its smallest eigenvalue, with unit
    eigenvector v, by about eps s for s = (sum_i |v_i| sqrt(M_ii))^2. Raises
    DomainError when that eigenvalue is at most 1e-10 s: its log would be
    rounding noise. For rotated eigenvectors s is of the order of the largest
    eigenvalue; for axis-aligned ones it is the eigenvalue itself.
    """
    starts = np.asarray(starts, dtype=np.intp)
    sizes = np.diff(starts, append=len(logs))
    w, V = np.linalg.eigh(theta * logs)
    c = np.maximum.reduceat(w[:, -1], starts)
    shifted = _from_spectrum(np.exp(w - np.repeat(c, sizes)[:, None]), V)
    mean = np.add.reduceat(shifted, starts, axis=0) / sizes[:, None, None]
    w, V = sym_eig(mean)
    noise = np.sum(np.abs(V[..., -1]) * np.sqrt(np.diagonal(mean, axis1=-2, axis2=-1)),
                   axis=-1) ** 2
    bad = np.flatnonzero(w[:, -1] <= 1e-10 * noise)
    if bad.size:
        i = bad[0]
        raise DomainError(f"power mean is singular to working precision (smallest "
                          f"eigenvalue {w[i, -1]:.3e}, rounding scale {noise[i]:.3e})")
    return (_from_spectrum(np.log(w), V) + c[:, None, None] * np.eye(logs.shape[-1])) / theta


# ---------------------------------------------------------------------------
# isometric vectorization of Sym_n


def sym_dim(n: int) -> int:
    """Dimension n(n+1)/2 of the space of symmetric n x n matrices."""
    return n * (n + 1) // 2


@lru_cache(maxsize=None)
def _triu_scale(n: int) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray]:
    """Read-only upper-triangle indices of an n x n matrix and their isometry
    scales, built once per n."""
    iu = np.triu_indices(n)
    scale = np.where(iu[0] == iu[1], 1.0, _SQRT2)
    for a in (*iu, scale):
        a.flags.writeable = False
    return iu, scale


def sym_to_vec(S) -> np.ndarray:
    """Upper-triangular vectorization with sqrt(2)-scaled off-diagonals.

    The scaling makes the Euclidean inner product of vectors equal the
    Frobenius pairing of the matrices.
    """
    S = np.asarray(S, dtype=np.float64)
    iu, scale = _triu_scale(S.shape[-1])
    return S[..., iu[0], iu[1]] * scale


def vec_to_sym(v, n: int) -> np.ndarray:
    """Inverse of :func:`sym_to_vec`."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape[-1] != sym_dim(n):
        raise InvalidInputError(f"expected {sym_dim(n)} components for n={n}")
    iu, scale = _triu_scale(n)
    S = np.zeros(v.shape[:-1] + (n, n))
    S[..., iu[0], iu[1]] = v / scale
    S[..., iu[1], iu[0]] = S[..., iu[0], iu[1]]
    return S


def conj_operator(M) -> np.ndarray:
    """Matrix of ``S -> M S M^T`` acting on :func:`sym_to_vec` coordinates.

    Accepts one matrix or a (..., n, n) stack, giving (..., m, m) operators.
    Orthogonal M gives an orthogonal operator, since the vectorization is an
    isometry for the Frobenius inner product.
    """
    M = np.asarray(M, dtype=np.float64)[..., None, :, :]
    n = M.shape[-1]
    iu, scale = _triu_scale(n)
    m = sym_dim(n)
    # column k is vec(M E_k M^T) for the k-th scaled basis matrix E_k
    E = np.zeros((m, n, n))
    idx = np.arange(m)
    E[idx, iu[0], iu[1]] = 1.0 / scale
    E[idx, iu[1], iu[0]] = 1.0 / scale
    out = M @ E @ np.swapaxes(M, -1, -2)
    return np.swapaxes(sym_to_vec(out), -1, -2)
