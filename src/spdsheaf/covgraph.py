"""Time-frequency covariance graphs for multichannel signals.

Each node is the covariance of one band-passed temporal segment plus a
fixed trace-scaled ridge (``SHRINKAGE``); edges connect segment pairs that
are close on the time-frequency plane (one-sided in time, two-sided in
frequency) and close under the affine-invariant metric, weighted by an RBF
kernel on that distance. The output plugs directly into the sheaf machinery
as an identity-map sheaf with an SPD 0-cochain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidInputError
from .sheaf import SheafGraph
from .spd import _sym_part, dist_airm

SHRINKAGE = 1e-3  # ridge weight of the shrinkage toward tr(S)/n * I (Ledoit & Wolf 2004)


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
    affine-invariant distance, bandwidth is the RBF kernel scale. The
    covariances take no parameter: each carries the fixed ``SHRINKAGE`` ridge.
    """

    eps1: float
    eps2: float
    eps: float
    bandwidth: float

    def __post_init__(self):
        # written as `not (x >= 0)` so that NaN fails every check
        if not (self.eps1 >= 0 and self.eps2 >= 0):
            raise InvalidInputError("window widths eps1, eps2 must be nonnegative")
        if not (self.eps > 0 and self.bandwidth > 0):
            raise InvalidInputError("eps and bandwidth must be positive")


def segment_covariance(seg: Segment) -> np.ndarray:
    """Covariance ``X X^T`` plus the ridge ``SHRINKAGE * tr(S)/n * I``.

    The ridge keeps rank-deficient segments (more channels than samples)
    positive definite, so only data whose squares underflow raise
    DomainError; data too large for ``X X^T`` to be finite raise
    InvalidInputError.
    """
    X = seg.data
    with np.errstate(over="ignore", invalid="ignore"):
        S = _sym_part(X @ X.T)
        n = S.shape[0]
        S = S + SHRINKAGE * (np.trace(S) / n) * np.eye(n)
    if not np.all(np.isfinite(S)):
        raise InvalidInputError("segment covariance overflows: the data are too large")
    if np.min(np.linalg.eigvalsh(S)) <= 0.0:
        raise DomainError("segment covariance is singular: the data are zero or too small")
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

    covs = np.array([segment_covariance(s) for s in segments])
    k = len(segments)
    # window: j later than or simultaneous with i, within eps1 in time and
    # eps2 in frequency; a gap that overflows to ±inf compares right
    t = np.array([s.t_mid for s in segments])
    f = np.array([s.f_mid for s in segments])
    with np.errstate(over="ignore"):
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
