"""Vector-stalk sheaves and the Euclidean-to-SPD embedding bridge.

The embedding ``phi(x) = x x^T + eps I`` lifts a vector sheaf to an SPD sheaf
with the same orthogonal maps reused as congruence actions. It carries global
sections to global sections, and the SPD side has strictly more of them: any
parallel-transported matrix with three or more distinct eigenvalues is a
section outside the image of the embedding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import InvalidInputError, NotApplicableError
from .sheaf import (
    SheafGraph,
    _OrthGraph,
    _dense_basis,
    _sections_from_holonomy,
    _spanning_forest,
    _vertex_values,
    coboundary,
)
from .spd import EIG_FLOOR, _sym_part, dist_lem, is_signed_permutation

VecCochain0 = Mapping[object, np.ndarray]

#: Largest log-Euclidean edge residual of an SPD cochain that counts as a section.
SECTION_TOL = 1e-7


class EuclidSheaf(_OrthGraph):
    """Cellular sheaf with R^n stalks and orthogonal restriction maps.

    Shares its graph core with :class:`~spdsheaf.sheaf.SheafGraph`; the maps
    act on vectors instead of by congruence.
    """

    __slots__ = ()


def _check_vec_cochain(sheaf: EuclidSheaf, x: VecCochain0) -> np.ndarray:
    """The (|V|, n) stack of a vector 0-cochain: a Mapping keyed by exactly
    the vertex ids, with finite length-n values."""
    if not isinstance(x, Mapping):
        raise InvalidInputError("a vector 0-cochain is a mapping keyed by vertex id")
    values = _vertex_values(x, sheaf.vertices)
    n = sheaf.n_stalk
    out = np.empty((sheaf.n_vertices, n))
    for i, (v, xv) in enumerate(zip(sheaf.vertices, values)):
        xv = np.asarray(xv, dtype=np.float64).ravel()
        if xv.size != n:
            raise InvalidInputError(f"vertex {v!r}: expected length-{n} vector")
        out[i] = xv
    if not np.all(np.isfinite(out)):
        raise InvalidInputError("cochain has non-finite values")
    return out


def _vec_coboundary(sheaf: EuclidSheaf, vals: np.ndarray, tail_maps: np.ndarray,
                    head_maps: np.ndarray) -> np.ndarray:
    """(|E|, n) stack of ``M_tail x_tail - M_head x_head`` for a (|V|, n) stack."""
    return (tail_maps @ vals[sheaf._tails, :, None]
            - head_maps @ vals[sheaf._heads, :, None])[..., 0]


def euclid_sections(sheaf: EuclidSheaf) -> np.ndarray:
    """Orthonormal basis (columns) of the kernel of the vector coboundary.

    The holonomy pass of :func:`~spdsheaf.sheaf.global_sections` with the
    maps acting on R^n by themselves: per component, the vectors fixed by
    every cycle holonomy, carried to each vertex by its tree transport and
    ordered by component.
    """
    return _dense_basis(_sections_from_holonomy(sheaf, np.asarray))


def vec_cochain_from_vec(sheaf: EuclidSheaf, vec) -> dict:
    n = sheaf.n_stalk
    vec = np.asarray(vec, dtype=np.float64).reshape(sheaf.n_vertices, n)
    return {v: vec[i].copy() for i, v in enumerate(sheaf.vertices)}


# ---------------------------------------------------------------------------
# the embedding


def embed_phi(x) -> np.ndarray:
    """Rank-one-plus-ridge embedding ``x x^T + eps I`` into the SPD cone, with
    the ridge eps fixed at EIG_FLOOR.

    Takes one length-n vector or a (..., n) stack and gives (..., n, n): the
    last axis is the vector, so an (n, 1) column is n one-vectors.
    Eigenvalues are ``||x||^2 + eps`` once and ``eps`` with multiplicity
    n - 1, so the image consists of matrices with at most two distinct
    eigenvalues.
    """
    x = np.atleast_1d(np.asarray(x, dtype=np.float64))
    return x[..., :, None] * x[..., None, :] + EIG_FLOOR * np.eye(x.shape[-1])


def matched_spd_sheaf(sheaf: EuclidSheaf) -> SheafGraph:
    """SPD sheaf with the same topology and the same orthogonal maps, unchecked."""
    return SheafGraph._recast(sheaf)


# ---------------------------------------------------------------------------
# correspondence checks


@dataclass
class CorrespondenceReport:
    """Machine-readable outcome of the kernel-correspondence check."""

    forward_max_residual: float
    spd_section: bool
    converse_mode: str  # "entrywise" | "gauge_class_only" | "not_triggered"
    converse_max_residual: float | None
    converse_pass: bool | None


def check_kernel_correspondence(sheaf: EuclidSheaf, x: VecCochain0) -> CorrespondenceReport:
    """Check that the embedding carries sections to sections, edge by edge.

    Forward: every edge of the SPD coboundary of the cochain embedded
    vertexwise by :func:`embed_phi` must be within log-Euclidean distance
    SECTION_TOL of the identity. Converse: when the SPD coboundary is the identity
    and every map commutes with the entrywise absolute value (signed
    permutations, for which |M z| = |M| |z|), the vector coboundary of |x|
    under the unsigned maps |M| must vanish — the line-bundle quotient. For
    other maps only the gauge class is determined and the converse is
    reported as not checkable.
    """
    vals = _check_vec_cochain(sheaf, x)
    delta = coboundary(matched_spd_sheaf(sheaf), embed_phi(vals))
    fwd_max = float(np.max(dist_lem(delta, np.eye(sheaf.n_stalk)), initial=0.0))
    spd_section = fwd_max <= SECTION_TOL

    mode = "not_triggered"
    conv_max = None
    conv_pass = None
    if spd_section:
        tails, heads = sheaf._tail_maps, sheaf._head_maps
        if np.all(is_signed_permutation(np.stack([tails, heads]))):
            mode = "entrywise"
            resid = _vec_coboundary(sheaf, np.abs(vals), np.abs(tails), np.abs(heads))
            conv_max = float(np.max(np.linalg.norm(resid, axis=-1), initial=0.0))
            conv_pass = conv_max <= SECTION_TOL
        else:
            mode = "gauge_class_only"
    return CorrespondenceReport(
        forward_max_residual=fwd_max,
        spd_section=spd_section,
        converse_mode=mode,
        converse_max_residual=conv_max,
        converse_pass=conv_pass,
    )


def strictness_witness(sheaf: SheafGraph) -> dict:
    """A global section with >= 3 distinct eigenvalues, hence outside the embedding image.

    Requires trivial holonomy (all cycle representatives equal to the
    identity) and stalk dimension >= 3. The witness is diag(1, ..., n)
    parallel-transported from a root in each component; orthogonal transport
    preserves the eigenvalue multiset, so every vertex value stays outside
    the embedding's two-eigenvalue image. Its edge residuals must be within
    SECTION_TOL of the identity.
    """
    n = sheaf.n_stalk
    if n < 3:
        raise NotApplicableError("strictness witness requires stalk dimension >= 3")
    P = np.diag(np.arange(1.0, n + 1.0))
    _, W, reps = _spanning_forest(sheaf)
    if any(np.linalg.norm(rho - np.eye(n)) > 1e-8 for comp in reps for rho in comp):
        raise NotApplicableError("sheaf has nontrivial holonomy")
    values = _sym_part(W @ P @ np.swapaxes(W, -1, -2))
    resid = np.max(dist_lem(coboundary(sheaf, values), np.eye(n)), initial=0.0)
    if resid > SECTION_TOL:
        raise AssertionError(f"transported witness failed the section check ({resid:.3e})")
    return dict(zip(sheaf.vertices, values))
