"""Sheaf operators on a small graph: coboundary, Laplacian, sections, holonomy.

A 3-cycle with a quarter-turn rotation on one edge has a one-dimensional
space of global sections (only multiples of the identity direction survive
the holonomy), while the identity-map version keeps the full symmetric
space. The kernel of the Laplacian always equals the kernel of the
coboundary, and both are predicted exactly by the holonomy fixed space.
"""

import math

import numpy as np

import spdsheaf as s
from spdsheaf.sheaf import cochain0_from_vec

I2 = np.eye(2)
R = np.array([[0.0, -1.0], [1.0, 0.0]])  # 90 degree rotation

cycle_identity = s.SheafGraph.identity_maps(2, range(3), [(0, 1), (1, 2), (2, 0)])
cycle_twisted = s.SheafGraph(2, range(3), [(0, 1), (1, 2), (2, 0)],
                             [(I2, I2), (I2, I2), (R, I2)])

for name, sheaf in (("identity cycle", cycle_identity),
                    ("quarter-turn cycle", cycle_twisted)):
    basis = s.global_sections(sheaf)
    reps = s.holonomy_reps(sheaf)
    fixed = s.holonomy_fixed_space(reps, 2)
    print(f"{name}: kernel dim {basis.shape[1]}, holonomy fixed dim {fixed.shape[1]},"
          f" index {s.sheaf_index(sheaf)}")

# Exponentiate a kernel vector: its coboundary is the identity on every edge
basis = s.global_sections(cycle_twisted)
section = cochain0_from_vec(cycle_twisted, 1.3 * basis[:, 0])
residuals = [s.dist_lem(Y, I2) for Y in s.coboundary(cycle_twisted, section)]
print("section coboundary residuals:", [f"{r:.2e}" for r in residuals])

# The Green identity relates coboundary and adjoint through the pairing
rng = np.random.default_rng(1)


def random_state():
    A = rng.normal(size=(2, 2))
    return s.sym_exp(0.4 * (A + A.T))


sigma = {v: random_state() for v in cycle_twisted.vertices}
tau = [random_state() for _ in range(3)]
lhs = s.cochain_pairing(s.coboundary(cycle_twisted, sigma), tau)
rhs = s.cochain_pairing(sigma, s.adjoint(cycle_twisted, tau))
print(f"Green identity: <d sigma, tau> = {lhs:.6f}, <sigma, d^T tau> = {rhs:.6f}")

# A hand-checkable Laplacian: path with one excited node
path = s.SheafGraph.identity_maps(2, range(2), [(0, 1)])
excited = {0: np.diag([math.e, 1.0]), 1: I2}
out = s.laplacian(path, excited)
print("Laplacian logs on a 2-path:",
      np.diag(s.spd_log(out[0])), np.diag(s.spd_log(out[1])))

# Diffusion moves logs along the Laplacian direction
stepped = s.diffusion_step(path, {v: s.spd_log(X) for v, X in excited.items()},
                           normalize=False)
print("after one diffusion step:", np.diag(stepped[0]), np.diag(stepped[1]))
