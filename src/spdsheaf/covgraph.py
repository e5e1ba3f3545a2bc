"""Time-frequency covariance graphs for multichannel signals.

Each node is the (shrinkage-regularized) covariance of one band-passed
temporal segment; edges connect segment pairs that are close on the
time-frequency plane (one-sided in time, two-sided in frequency) and close
under the affine-invariant metric, weighted by an RBF kernel on that
distance. The output plugs directly into the sheaf machinery as an
identity-map sheaf with an SPD 0-cochain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidInputError
from .sheaf import SheafGraph
from .spd import _sym_part, dist_airm


class Segment:
    """One channels x samples signal block with its time/frequency midpoints."""

    __slots__ = ("data", "t_mid", "f_mid")

    def __init__(self, data, t_mid: float, f_mid: float):
        self.data = np.asarray(data, dtype=np.float64)
        if self.data.ndim != 2 or self.data.shape[1] < 1:
            raise InvalidInputError("segment data must be a channels x samples array")
        if not np.all(np.isfinite(self.data)):
            raise InvalidInputError("segment data has non-finite entries")
        self.t_mid, self.f_mid = float(t_mid), float(f_mid)
        if not np.all(np.isfinite([self.t_mid, self.f_mid])):
            raise InvalidInputError("segment midpoints t_mid, f_mid must be finite")

    @property
    def n_channels(self) -> int:
        return self.data.shape[0]


@dataclass(frozen=True)
class TFGraphConfig:
    """Windowing, gating and weighting parameters for the graph builder.

    eps1/eps2 bound the time/frequency window, eps gates on squared
    affine-invariant distance, bandwidth is the RBF kernel scale, shrinkage
    regularizes the covariances. `normalize_samples` divides each covariance
    by its sample count (off by default; distances are scale sensitive).
    """

    eps1: float
    eps2: float
    eps: float
    bandwidth: float
    shrinkage: float = 1e-3
    normalize_samples: bool = False

    def __post_init__(self):
        # written as `not (x >= 0)` so that NaN fails every check
        if not (self.eps1 >= 0 and self.eps2 >= 0):
            raise InvalidInputError("window widths eps1, eps2 must be nonnegative")
        if not (self.eps > 0 and self.bandwidth > 0):
            raise InvalidInputError("eps and bandwidth must be positive")
        _check_shrinkage(self.shrinkage)


def _check_shrinkage(shrinkage: float):
    if not 0 <= shrinkage < np.inf:  # NaN fails too
        raise InvalidInputError("shrinkage must be finite and nonnegative")


def segment_covariance(seg: Segment, shrinkage: float = TFGraphConfig.shrinkage,
                       normalize_samples: bool = False) -> np.ndarray:
    """Covariance ``X X^T`` regularized by trace-scaled shrinkage.

    Adds ``shrinkage * tr(S)/n * I``, which keeps rank-deficient segments
    (more channels than samples) strictly positive definite. Data too large
    for ``X X^T`` to be finite raise InvalidInputError.
    """
    _check_shrinkage(shrinkage)
    X = seg.data
    with np.errstate(over="ignore", invalid="ignore"):
        S = _sym_part(X @ X.T)
        if normalize_samples:
            S = S / X.shape[1]
        n = S.shape[0]
        S = S + shrinkage * (np.trace(S) / n) * np.eye(n)
    if not np.all(np.isfinite(S)):
        raise InvalidInputError("segment covariance overflows: the data are too large")
    if np.min(np.linalg.eigvalsh(S)) <= 0.0:
        raise DomainError(
            "segment covariance is not positive definite; increase shrinkage")
    return S


@dataclass
class TFGraphResult:
    """Sheaf-ready graph, node covariances and per-edge weights."""

    sheaf: SheafGraph
    cochain: dict
    weights: list


def build_tf_graph(segments, cfg: TFGraphConfig) -> TFGraphResult:
    """Build the oriented, RBF-weighted covariance graph of a segment list.

    Edges run from the earlier to the later segment (forward in time) when
    both the locality window and the squared-distance gate pass; weights are
    ``exp(-d_airm^2 / bandwidth)``. Vertices keep the input order; the edge
    list is sorted by the (t_mid, f_mid) keys of its endpoints.
    """
    segments = list(segments)
    if not segments:
        raise InvalidInputError("at least one segment is required")
    n_ch = segments[0].n_channels
    if any(s.n_channels != n_ch for s in segments):
        raise InvalidInputError("all segments must share the channel count")

    covs = np.array([segment_covariance(s, cfg.shrinkage, cfg.normalize_samples)
                     for s in segments])
    k = len(segments)
    # window: j later than or simultaneous with i, within eps1 in time and
    # eps2 in frequency
    t = np.array([s.t_mid for s in segments])
    f = np.array([s.f_mid for s in segments])
    dt = t[None, :] - t[:, None]
    window = (0.0 <= dt) & (dt <= cfg.eps1) & (np.abs(f[None, :] - f[:, None]) <= cfg.eps2)
    np.fill_diagonal(window, False)
    raw_edges = []
    # one dist_airm call per tail, against the stack of its window: each tail
    # is eigendecomposed once and memory stays O(k n_ch^2) for any window
    for i, row in enumerate(window):
        j = np.flatnonzero(row)
        d2 = dist_airm(covs[i], covs[j]) ** 2
        gate = d2 < cfg.eps
        # a subnormal bandwidth sends -d2 / bandwidth to -inf: the weight 0 is right
        with np.errstate(over="ignore"):
            j, w = j[gate], np.exp(-d2[gate] / cfg.bandwidth)
        raw_edges += zip([i] * j.size, j.tolist(), w.tolist())

    def sort_key(entry):
        i, j, _ = entry
        return (segments[i].t_mid, segments[i].f_mid,
                segments[j].t_mid, segments[j].f_mid, i, j)

    raw_edges.sort(key=sort_key)
    edges = [(i, j) for i, j, _ in raw_edges]
    weights = [w for _, _, w in raw_edges]
    sheaf = SheafGraph.identity_maps(n_ch, range(k), edges)
    cochain = dict(enumerate(covs))
    return TFGraphResult(sheaf=sheaf, cochain=cochain, weights=weights)
