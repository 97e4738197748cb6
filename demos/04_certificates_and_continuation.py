"""Uniqueness certificates and continuation toward boundary eigenpairs.

After a solve, the eigenpair can carry one of four certificates:

  contraction            rho(A) < 1, uniqueness for free
  jacobian_irreducible   irreducible DF(u) in the non-expansive regime
  kernel_dim_one         one final class of DF(u)'s pattern, A irreducible
  dirr                   summed powers of DF(u) fill one block: maximality

When no positive eigenvector exists, the delta-shift F + delta * 1 always has
one, and driving delta -> 0 walks to a maximal *nonnegative* eigenpair.  The
defective matrix [[1,1],[0,1]] is the classic case: its only eigenvector
(1, 0) sits on the boundary, and the shifted eigenvectors approach it with
eigenvalue products decreasing strictly as delta shrinks.  Its inner solves
slow down like delta^(-1/2); with the default schedule (down to 1e-8) the
continuation stops before a shift whose predicted iteration count exceeds
max_iter / 2, and says so in a message.
"""

import numpy as np

from mhspectral import (
    DeltaSchedule,
    NormSpec,
    SolverConfig,
    certify_uniqueness,
    delta_continuation,
    irrex_map,
    linear_map,
    max_example_map,
    motivating_map,
    power_method,
)


def certify(F, weights=None, d=None):
    d = d or F.shape.d
    cfg = SolverConfig(norms=NormSpec.euclidean(d), weights=weights)
    rep = power_method(F, None, cfg)
    cert = certify_uniqueness(F, rep)
    print(f"{F.label:18s} -> {cert.kind}")
    for key, val in cert.data.items():
        print(f"{'':20s}{key} = {val}")
    return cert


print("=== certificates ===")
certify(motivating_map())
certify(linear_map(np.array([[1.0, 2.0], [3.0, 4.0]])))
# a continuum of eigenvectors: the kink at the computed one blocks every
# derivative-based certificate, faithfully reported as 'none'
certify(max_example_map(0.3))
# reducible Jacobian at the fixed point, yet two summed powers fill block 0
certify(irrex_map(), weights=np.array([0.5, 0.5]))

print("\n=== delta-continuation on the defective matrix [[1,1],[0,1]] ===")
F = linear_map([[1.0, 1.0], [0.0, 1.0]])
cfg = SolverConfig(
    norms=NormSpec.euclidean(1),
    max_iter=20_000,
    delta_schedule=DeltaSchedule(delta0=1.0, factor=0.5, floor=9e-7),
)
rep = delta_continuation(F, cfg)
print(f"{'delta':>12s} {'r_b(F^(delta))':>18s}")
for delta, r in rep.delta_trace[::4]:
    print(f"{delta:12.3e} {r:18.12f}")
print("final eigenvector:", rep.eigenpair.x.blocks[0], " (approaching (1, 0))")
print("extrapolated r   :", rep.r_extrapolated, " (the true spectral radius is 1)")

print("\n=== the same matrix with the default schedule (floor 1e-8) ===")
rep = delta_continuation(F, SolverConfig(norms=NormSpec.euclidean(1)))
print("status           :", rep.status, f"after {rep.iterations} iterations")
print("last delta       :", f"{rep.delta_trace[-1][0]:.3e}")
for message in rep.messages:
    print("message          :", message)
print("extrapolated r   :", rep.r_extrapolated)
