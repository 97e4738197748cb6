"""The normalized power method and its monotone Collatz-Wielandt brackets.

Each iterate yields a lower and an upper bound on the weighted spectral
radius r_b; with weights satisfying A^T b <= b the lower trace never
decreases and the upper trace never increases, so the pair gives a rigorous
online error bar.  Shown on four problems: the two-block power map (a strict
contraction), a nonnegative-matrix Perron pair, a period-2 matrix on which
plain steps cycle until lazy steps take over, and an l^4 singular pair whose
limit matches a brute-force grid search.
"""

import numpy as np

from mhspectral import (
    NormSpec,
    ProductVector,
    SolverConfig,
    bonsall_estimate,
    cw_bounds,
    linear_map,
    motivating_map,
    normalize,
    power_method,
    pq_singular_map,
)


def run(F, cfg, x0=None, label=None):
    rep = power_method(F, x0, cfg)
    print(f"--- {label or F.label}: {rep.status} after {rep.iterations} iterations")
    tr = rep.bracket_trace
    for k in (0, 1, 2, 5, 10):
        if k < len(tr):
            lo, hi = tr[k]
            print(f"  k={k:3d}   lower={lo:.12f}   upper={hi:.12f}")
    lo, hi = tr[-1]
    print(f"  final   lower={lo:.12f}   upper={hi:.12f}")
    print(f"  lambda = {rep.eigenpair.lam}   r_b = {rep.eigenpair.r_b:.12f}")
    return rep


# strict contraction: rho(A) = 1/2 so the iteration halves the Hilbert
# distance to the eigenvector at every step
F = motivating_map()
norms = NormSpec.euclidean(2)
cfg = SolverConfig(norms=norms, weights=np.array([0.25, 1.0]))
x0 = normalize(ProductVector([[1.0, 2.0], [3.0, 1.0]]), norms)
rep = run(F, cfg, x0)
print("  exact r_b = 2^(5/16) =", 2 ** (5 / 16))
# the log gap of bracket k is the Hilbert distance from x_k to x_{k+1}: each
# step shrinks it by at least C = max_i (A^T b)_i / b_i, here rho(A) = 1/2,
# and the last gap bounds the distance from the returned eigenvector to the
# exact one
gaps = [np.log(hi / lo) for lo, hi in rep.bracket_trace]
print(f"  contraction checked: {rep.envelope_ok}   error radius: {rep.error_radius:.2e}")
print("  gap ratios:", ["%.3f" % (g1 / g0) for g0, g1 in zip(gaps[:6], gaps[1:7])],
      " rate bound rho(A) =", rep.rate_bound)

# the same brackets at an arbitrary test vector, no iteration needed
lo, hi = cw_bounds(F, normalize(ProductVector([[0.6, 0.8], [0.6, 0.8]]), norms), [0.25, 1.0])
print(f"  one-shot CW bracket at a test vector: [{lo:.6f}, {hi:.6f}]\n")

# classical Perron pair of a positive matrix
rng = np.random.default_rng(1)
M = rng.uniform(0.5, 2.0, (5, 5))
rep = run(linear_map(M), SolverConfig(norms=NormSpec.euclidean(1)))
print("  dense eigensolver says rho(M) =", max(np.linalg.eigvals(M).real), "\n")

# a period-2 matrix: plain steps swap its two ratios forever, so the bracket
# gap stalls at once; from there on every step is lazy, (F(x) o x)^{1/2},
# which has F's eigenvectors and converges, with the bracket still F's own
P2 = np.array([[0.0, 0.27], [0.99, 0.0]])
rep = run(linear_map(P2), SolverConfig(norms=NormSpec.euclidean(1)), label="period-2 matrix, default settings")
print(" ", rep.messages[0])
print("  max |eig| =", max(abs(np.linalg.eigvals(P2))), "\n")

# l^{4,4} singular pair: r_b^3 equals the maximum of <x, My> over unit l^4 spheres
M2 = np.array([[1.0, 2.0], [3.0, 4.0]])
rep = run(
    pq_singular_map(M2, 4, 4),
    SolverConfig(norms=NormSpec.lp(4, 2), weights=np.array([0.5, 0.5])),
)
a = np.arange(0.0, 1.0 + 1e-12, 1e-3)
sphere = np.stack([a, (1.0 - a**4) ** 0.25])
print("  grid-search maximum of <x, My>:", float(np.max(sphere.T @ M2 @ sphere)))
print("  r_b^3                        :", rep.eigenpair.r_b ** 3, "\n")

# orbit-growth (Bonsall) estimate of the same radius for the linear map
est = bonsall_estimate(linear_map(M), ProductVector([np.ones(5)]), [1.0], 400, NormSpec.euclidean(1))
print("orbit-growth estimate of rho(M) at m=400:", est)
