"""Cellular sheaves with SPD matrix stalks.

Five layers of machinery, bottom to top:

- :mod:`spdsheaf.spd` — dense SPD geometry: log/exp calculus, the abelian
  group operation, metrics, pairings, Cayley/QR orthogonal parameterizations.
- :mod:`spdsheaf.sheaf` — SPD-valued cellular sheaves: coboundary, adjoint,
  Laplacian, global sections, index, holonomy, diffusion.
- :mod:`spdsheaf.euclid` — vector-stalk sheaves and the rank-one-plus-ridge
  embedding bridge, including the strict-generalization witness.
- :mod:`spdsheaf.stream` — the geometric diffusion stream: coordinate
  lifting, equivariant frames, learned restriction maps, convolution layers,
  pooling and rank diagnostics.
- :mod:`spdsheaf.covgraph` — time-frequency covariance graphs for
  multichannel signals.

:mod:`spdsheaf.verify` checks every theorem-level property against
independent brute-force oracles; ``spd-sheaf`` (see :mod:`spdsheaf.cli`)
exposes everything on the command line.

The package re-exports the names that the acceptance suite and the demos
use through it, and nothing else; every other name is imported from its
module. Importing the package does not load :mod:`spdsheaf.verify`.
"""

import os as _os

#: Environment variable capping internal (BLAS) parallelism.
THREAD_ENV = "SPD_SHEAF_THREADS"


def thread_cap() -> int | None:
    """The thread cap in ``SPD_SHEAF_THREADS``: None when unset.

    Raises ValueError when the value is not a positive integer.
    """
    raw = _os.environ.get(THREAD_ENV)
    if raw is None:
        return None
    cap = int(raw)
    if cap < 1:
        raise ValueError(f"{THREAD_ENV} must be positive, got {cap}")
    return cap


def _cap_blas_threads():
    # BLAS libraries read their thread counts once, when numpy loads them, so
    # this runs before the first numpy import below. An invalid value is left
    # for the command line to report with exit code 2.
    try:
        cap = thread_cap()
    except ValueError:
        return
    if cap is not None:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            _os.environ.setdefault(var, str(cap))


_cap_blas_threads()

from .spd import (  # noqa: E402
    cayley,
    congruence,
    dist_airm,
    dist_lem,
    erank,
    frechet_log,
    group_op,
    pairing,
    power_euclidean_mean,
    spd_log,
    sym_dim,
    sym_exp,
)
from .sheaf import (  # noqa: E402
    SheafGraph,
    adjoint,
    coboundary,
    coboundary_matrix,
    cochain_pairing,
    diffusion_step,
    global_sections,
    holonomy_fixed_space,
    holonomy_reps,
    laplacian,
    sheaf_index,
)
from .euclid import (  # noqa: E402
    check_kernel_correspondence,
    euclid_sections,
    matched_spd_sheaf,
    strictness_witness,
)
from .stream import diffusion_run, geometric_descriptor, lift_coordinates, local_frame  # noqa: E402
from .covgraph import Segment, TFGraphConfig, build_tf_graph  # noqa: E402

__version__ = "0.1.0"
