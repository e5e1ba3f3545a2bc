"""A tour of the SPD geometry kernel.

The SPD cone carries an abelian group structure: map matrices to their
logarithms, add there, and map back. Both classical metrics (affine-invariant
and log-Euclidean) are invariant under orthogonal congruence, which is what
makes congruence the right notion of restriction map later on.
"""

import numpy as np

import spdsheaf as s

rng = np.random.default_rng(0)

# Two random SPD matrices via exp of random symmetric matrices
A = rng.normal(size=(3, 3))
P = s.sym_exp(0.5 * (A + A.T))
B = rng.normal(size=(3, 3))
Q = s.sym_exp(0.3 * (B + B.T))

print("log/exp round trip error:",
      np.linalg.norm(s.sym_exp(s.spd_log(P)) - P))

# The group operation is commutative and the logarithm is a homomorphism
print("commutativity:", np.linalg.norm(s.group_op(P, Q) - s.group_op(Q, P)))
print("log homomorphism:",
      np.linalg.norm(s.spd_log(s.group_op(P, Q)) - s.spd_log(P) - s.spd_log(Q)))
print("P (.) P^{-1} = I:", np.linalg.norm(s.group_op(P, s.sym_exp(-s.spd_log(P))) - np.eye(3)))

# Distances: both metrics are congruence invariant
skew = rng.normal(size=(3, 3))
M = s.cayley(skew - skew.T)
print("\nCayley output orthogonality:", np.linalg.norm(M.T @ M - np.eye(3)))
print("AIRM invariance:",
      abs(s.dist_airm(s.congruence(M, P), s.congruence(M, Q)) - s.dist_airm(P, Q)))
print("LEM invariance:",
      abs(s.dist_lem(s.congruence(M, P), s.congruence(M, Q)) - s.dist_lem(P, Q)))

# The log-domain pairing is bilinear over the group operation
R = s.sym_exp(0.2 * np.eye(3))
print("\npairing bilinearity:",
      abs(s.pairing(P, s.group_op(Q, R)) - s.pairing(P, Q) - s.pairing(P, R)))

# Directional derivative of the logarithm vs central finite differences
V = rng.normal(size=(3, 3))
V = 0.5 * (V + V.T)
h = 1e-5
fd = (s.spd_log(P + h * V) - s.spd_log(P - h * V)) / (2 * h)
print("Frechet-log vs finite differences:",
      np.linalg.norm(s.frechet_log(P, V) - fd) / np.linalg.norm(fd))

# Eigenvalue-domain utilities
print("\nerank of the identity (isotropic):", s.erank(np.eye(3)))
print("erank of a near-rank-one matrix:",
      s.erank(np.diag([1.0, 1e-4, 1e-4])))
print("power-Euclidean mean of {diag(4), diag(16)} at theta=0.5:",
      s.power_euclidean_mean([np.diag([4.0]), np.diag([16.0])], 0.5)[0, 0])
