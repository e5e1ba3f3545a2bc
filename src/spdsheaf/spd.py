"""Dense small-matrix SPD geometry kernel.

Points on the SPD manifold, their symmetric logarithms, and orthogonal
matrices are all plain float64 ``numpy`` arrays. Every operation is a pure
function; eigendecomposition (``numpy.linalg.eigh``) is the single backend
for logarithms, exponentials and matrix powers, which is the right trade-off
for the small stalk dimensions this package targets (n <= 13).

The spectral functions ``as_sym``, ``sym_eig``, ``spd_log``, ``sym_exp``,
``spd_power``, ``tg_re_eig`` and ``cayley`` take one (n, n) matrix or a
(..., n, n) stack and answer in kind; a stack holding a bad matrix raises
the error that matrix raises alone. Every spectral map
``V diag(f(w)) V^T`` is rebuilt by one helper. The metrics, the pairing,
``congruence``, ``frechet_log`` and ``clamp_spd`` take single matrices.

The Lie group structure used throughout is the log-Euclidean one:
``group_op(P, Q) = exp(log P + log Q)`` with identity ``I`` and inverse
``exp(-log P)``, which makes the SPD cone an abelian group.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DomainError, InvalidInputError

#: Eigenvalue floor of validated SPD construction and of diffusion outputs.
EIG_FLOOR = 1e-4

#: Maximum asymmetry accepted by the validated symmetric constructor.
SYM_ATOL = 1e-12

#: Maximum ||M^T M - I||_F for a matrix to count as orthogonal.
ORTH_TOL = 1e-10

# exp() overflows float64 slightly above this eigenvalue.
_EXP_MAX = 700.0

_SQRT2 = math.sqrt(2.0)


class SpectralDecomp(NamedTuple):
    """Eigendecomposition with eigenvalues sorted descending.

    ``eigenvectors[..., :, k]`` is the unit eigenvector for
    ``eigenvalues[..., k]``; the input is recovered as ``V @ diag(w) @ V.T``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


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


def _square(A, name: str = "matrix") -> np.ndarray:
    A = _square_stack(A, name)
    if A.ndim != 2:
        raise InvalidInputError(f"{name} must be square, got shape {A.shape}")
    return A


def _square_pair(X, Y) -> tuple[np.ndarray, np.ndarray]:
    """Two validated square matrices of one shape."""
    X, Y = _square(X), _square(Y)
    if X.shape != Y.shape:
        raise InvalidInputError(f"dimension mismatch: {X.shape} vs {Y.shape}")
    return X, Y


def as_sym(A) -> np.ndarray:
    """Validated symmetric matrix or stack: checks asymmetry <= SYM_ATOL, symmetrizes."""
    A = _square_stack(A, "symmetric matrix")
    if np.max(np.abs(A - np.swapaxes(A, -1, -2)), initial=0.0) > SYM_ATOL:
        raise InvalidInputError("matrix is not symmetric within tolerance")
    return _sym_part(A)


def as_spd(A) -> np.ndarray:
    """Validated SPD construction: symmetrize and clamp eigenvalues at EIG_FLOOR = 1e-4.

    This is the entry point for values coming from outside (files, raw
    covariances, user input). Internal operations whose outputs are SPD by
    construction do not re-clamp.
    """
    return clamp_spd(as_sym(A))


def as_orth(M) -> np.ndarray:
    """Validated orthogonal matrix (||M^T M - I||_F <= ORTH_TOL)."""
    M = _square(M, "orthogonal matrix")
    n = M.shape[0]
    err = np.linalg.norm(M.T @ M - np.eye(n))
    if err > ORTH_TOL:
        raise InvalidInputError(f"matrix is not orthogonal: ||M^T M - I||_F = {err:.3e}")
    return M


def is_signed_permutation(M, tol: float = 1e-10) -> bool:
    """True if M is a permutation matrix up to entry signs."""
    M = np.asarray(M, dtype=np.float64)
    A = np.abs(M)
    if np.max(np.abs(A - np.round(A))) > tol:
        return False
    A = np.round(A)
    return bool(np.all(A.sum(axis=0) == 1) and np.all(A.sum(axis=1) == 1))


# ---------------------------------------------------------------------------
# spectral calculus


def sym_eig(S) -> SpectralDecomp:
    """Eigendecomposition of a symmetric matrix or stack, eigenvalues descending.

    The input is symmetrized first; its asymmetry is not checked.
    """
    w, V = np.linalg.eigh(_sym_part(_square_stack(S, "symmetric matrix")))
    return SpectralDecomp(w[..., ::-1], V[..., ::-1])


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


def spd_power(P, theta: float) -> np.ndarray:
    """Matrix power ``V diag(w**theta) V^T`` of an SPD matrix or stack."""
    if not np.isfinite(theta):
        raise InvalidInputError("power exponent must be finite")
    w, V = sym_eig(P)
    if np.min(w, initial=np.inf) <= 0.0:
        raise DomainError("matrix power requires positive eigenvalues")
    return _from_spectrum(w**theta, V)


# ---------------------------------------------------------------------------
# Lie group operations


def group_op(P, Q) -> np.ndarray:
    """Abelian group operation ``exp(log P + log Q)``."""
    P, Q = _square_pair(P, Q)
    return sym_exp(spd_log(P) + spd_log(Q))


def group_inv(P) -> np.ndarray:
    """Group inverse ``exp(-log P)``."""
    return sym_exp(-spd_log(P))


# ---------------------------------------------------------------------------
# metrics and pairings


def dist_airm(X, Y) -> float:
    """Affine-invariant distance ``||log(X^{-1/2} Y X^{-1/2})||_F``."""
    X, Y = _square_pair(X, Y)
    w, V = sym_eig(X)
    if np.min(w) <= 0.0:
        raise DomainError("first argument is not positive definite")
    ixh = (V / np.sqrt(w)) @ V.T
    C = _sym_part(ixh @ Y @ ixh)
    cw = np.linalg.eigvalsh(C)
    if np.min(cw) <= 0.0:
        raise DomainError("second argument is not positive definite")
    return float(np.sqrt(np.sum(np.log(cw) ** 2)))


def dist_lem(X, Y) -> float:
    """Log-Euclidean distance ``||log X - log Y||_F``."""
    X, Y = _square_pair(X, Y)
    return float(np.linalg.norm(spd_log(X) - spd_log(Y)))


def pairing(X, Y) -> float:
    """Log-domain pairing ``<log X, log Y>_F``.

    Bilinear over the group operation in each argument; ``pairing(X, X)`` is
    ``||log X||_F**2``, zero exactly when X is the identity.
    """
    X, Y = _square_pair(X, Y)
    return float(np.sum(spd_log(X) * spd_log(Y)))


def congruence(M, P) -> np.ndarray:
    """Orthogonal congruence ``M P M^T`` (an isometry of both metrics)."""
    M = as_orth(M)
    P = _square(P)
    if M.shape != P.shape:
        raise InvalidInputError("dimension mismatch")
    return _sym_part(M @ P @ M.T)


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
    try:
        return np.linalg.solve(I - 0.5 * S, I + 0.5 * S)
    except np.linalg.LinAlgError as exc:  # unreachable for real skew S
        raise InvalidInputError("Cayley resolvent is singular") from exc


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
    V = as_sym(V)
    w, U = sym_eig(_square(P, "SPD matrix"))
    if np.min(w) <= 0.0:
        raise DomainError("base point is not positive definite")
    gap = w[:, None] - w[None, :]
    close = np.abs(gap) <= 1e-8 * np.maximum(w[:, None], w[None, :])
    with np.errstate(divide="ignore", invalid="ignore"):
        K = (np.log(w)[:, None] - np.log(w)[None, :]) / gap
    K[close] = (1.0 / w[:, None] * np.ones_like(K))[close]
    A = U.T @ V @ U
    return _sym_part(U @ (K * A) @ U.T)


def tg_re_eig(P, delta: float = 0.1) -> np.ndarray:
    """Eigenvalue-domain nonlinearity flooring non-dominant eigenvalues.

    Eigenvalues with positive logarithm pass through; the others are replaced
    by distinct floors ``exp(delta * i)`` where i is the 1-based index over
    eigenvalues sorted descending. Accepts one matrix or a (..., n, n) stack.
    """
    w, V = sym_eig(P)
    if np.min(w, initial=np.inf) <= 0.0:
        raise DomainError("input is not positive definite")
    idx = np.arange(1, w.shape[-1] + 1, dtype=np.float64)
    return _from_spectrum(np.where(np.log(w) > 0.0, w, np.exp(delta * idx)), V)


def erank(P) -> float:
    """Effective rank: exp of the entropy of the normalized eigenvalue spectrum.

    1 for nearly rank-one matrices, n for isotropic ones. Uses 0*log 0 = 0.
    """
    return float(_erank_of_spectra(np.linalg.eigvalsh(as_sym(_square(P)))))


def _erank_of_spectra(w: np.ndarray) -> np.ndarray:
    """Effective ranks of a (..., n) stack of eigenvalue rows."""
    total = np.sum(w, axis=-1, keepdims=True)
    if np.min(w, initial=0.0) < 0.0 or np.any(total <= 0.0):
        raise DomainError("effective rank requires a PSD matrix with positive trace")
    lam = w / total
    nz = lam > 0.0
    plogp = np.where(nz, lam * np.log(np.where(nz, lam, 1.0)), 0.0)
    return np.exp(-np.sum(plogp, axis=-1))


def clamp_spd(S, eps: float = EIG_FLOOR) -> np.ndarray:
    """Floor the eigenvalues of a symmetric matrix at `eps`.

    Returns the input unchanged (no reconstruction error) when it is already
    SPD above the floor.
    """
    S = _sym_part(_square(S, "symmetric matrix"))
    w, V = np.linalg.eigh(S)
    if w[0] >= eps:
        return S
    return _from_spectrum(np.maximum(w, eps), V)


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
    return spd_power(np.mean(spd_power(stack, theta), axis=0), 1.0 / theta)


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
