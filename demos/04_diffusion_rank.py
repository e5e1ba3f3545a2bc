"""Rank emergence and depth robustness of the geometric diffusion stream.

Lifted point clouds start effectively rank one (directions plus a tiny
ridge). One convolution layer with seeded random parameters already pushes
the mean effective rank well above 1 - the aggregation of non-collinear
neighbour directions fills out the spectrum. Over 32 plain diffusion layers,
per-layer random restriction maps keep node states apart, while the
identity-map, non-residual control collapses them onto a common matrix.
"""

import numpy as np

import spdsheaf as s
from spdsheaf.stream import (
    LayerParams,
    PointCloud,
    canonicalize,
    geometric_graph,
    run_layers,
    trace_row,
)

rng = np.random.default_rng(38)
pts = rng.normal(scale=0.7, size=(10, 3))
pc = PointCloud(pts, geometric_graph(pts, radius=0.8))
print(f"cloud: {pc.n_points} points, {len(pc.edges)} edges")

# lift and canonicalize, then apply two random layers to the logs
logs = s.spd_log(canonicalize(s.lift_coordinates(pc), s.local_frame(pc)[0]))
print("layer 0 mean erank:", round(trace_row(logs, 0).mean_erank, 4))

params = [LayerParams.random(3, rng=rng) for _ in range(2)]
_, trace = run_layers(pc, logs, params)
for row in trace.rows:
    print(f"  layer {row.layer}: mean erank {row.mean_erank:.3f}, "
          f"mean lambda2 {row.mean_lambda2:.4f}")

# depth robustness: heterogeneous maps vs the identity/no-residual control
_, het = s.diffusion_run(pc, layers=32, seed=42)
_, ctrl = s.diffusion_run(pc, layers=32, seed=42, identity_maps=True,
                          residual=False)
print("\nmin pairwise LEM distance between node states:")
for layer in (0, 8, 16, 32):
    print(f"  layer {layer:2d}: heterogeneous {het.rows[layer].min_pairwise_lem:9.3e}"
          f"   identity control {ctrl.rows[layer].min_pairwise_lem:9.3e}")

# the trace exports as plot-ready CSV
print("\ntrace CSV head:")
print("\n".join(het.to_csv().splitlines()[:4]))
