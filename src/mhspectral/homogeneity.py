"""Spectral analysis of nonnegative homogeneity matrices.

Provides the spectral radius, the left Perron weight vector, the contraction
weight search for strictly sub-unit spectral radii, the metric Lipschitz bound
max_i (A^T b)_i / b_i, and the pattern irreducibility / primitivity tests,
which search the digraph of the pattern of A instead of taking its powers.

The spectral radius and Perron vector are computed by power iteration that is
accelerated through repeated squaring: B = A + shift*I is squared in a
renormalized log scale, so the Collatz-Wielandt style bracket

    max_i (B^k)_ii ^{1/k}  <=  rho(B)  <=  ||B^k||_inf ^{1/k}

closes geometrically even for reducible or defective matrices, where the
vanilla iteration stalls.  The diagonal shift is removed exactly at the end
(the spectrum of a nonnegative matrix translates under +shift*I).
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import _digraph

__all__ = [
    "PerronStructureError",
    "WeightSearchResult",
    "spectral_radius",
    "perron_weights",
    "contraction_weights",
    "lipschitz_bound",
    "is_irreducible",
    "is_primitive",
    "wielandt_bound",
]


class PerronStructureError(ValueError):
    """Raised when no strictly positive left Perron vector can be produced."""


@dataclasses.dataclass(frozen=True)
class WeightSearchResult:
    """Positive weights b with A^T b <= r b; ``exact`` when r = rho(A)."""

    b: np.ndarray
    r: float
    exact: bool


def _check_nonneg_square(A) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("need a square matrix")
    if np.any(A < 0.0) or not np.all(np.isfinite(A)):
        raise ValueError("matrix must be nonnegative and finite")
    return A


def spectral_radius(A, tol: float = 1e-13, shift: float = 1e-8) -> float:
    """Spectral radius of a nonnegative matrix to ``tol`` relative accuracy."""
    A = _check_nonneg_square(A)
    d = A.shape[0]
    if d == 1:
        return float(A[0, 0])
    M = A + shift * np.eye(d)
    k, logscale = 1, 0.0  # invariant: B^k = exp(logscale) * M
    log_upper = log_lower = None
    for _ in range(64):
        rowmax = float(np.max(M.sum(axis=1)))
        diagmax = float(np.max(np.diagonal(M)))
        log_upper = (logscale + np.log(rowmax)) / k
        log_lower = (logscale + np.log(diagmax)) / k if diagmax > 0.0 else -np.inf
        if log_upper - log_lower <= tol:
            return max(float(np.exp(0.5 * (log_upper + log_lower))) - shift, 0.0)
        scaled = M / rowmax
        M = scaled @ scaled
        logscale = 2.0 * (logscale + np.log(rowmax))
        k *= 2
    mid = log_upper if not np.isfinite(log_lower) else 0.5 * (log_upper + log_lower)
    return max(float(np.exp(mid)) - shift, 0.0)


def perron_weights(
    A, tol: float = 1e-10, shift: float = 1e-8, positivity_ratio: float = 1e-12
) -> np.ndarray:
    """Left Perron vector b in the open simplex with A^T b = rho(A) b.

    Raises :class:`PerronStructureError` when the limit vector is not strictly
    positive (reducible matrices with deficient Perron structure); callers then
    fall back to :func:`contraction_weights`.
    """
    A = _check_nonneg_square(A)
    d = A.shape[0]
    if d == 1:
        return np.ones(1)
    rho = spectral_radius(A)
    M = (A + shift * np.eye(d)).T
    b = np.full(d, 1.0 / d)
    for _ in range(64):
        v = M @ np.ones(d)
        v_sum = v.sum()
        if not np.isfinite(v_sum) or v_sum <= 0.0:
            break
        v = v / v_sum
        if np.max(np.abs(v - b)) < 1e-16:
            b = v
            break
        b = v
        scaled = M / np.max(M)
        M = scaled @ scaled
    if b.min() <= positivity_ratio * b.max():
        raise PerronStructureError(
            "A^T has no strictly positive Perron eigenvector at this accuracy"
        )
    residual = float(np.max(np.abs(A.T @ b - rho * b)))
    if residual > tol * max(1.0, rho):
        raise PerronStructureError(
            f"left Perron residual {residual:.3g} exceeds tolerance {tol:.3g}"
        )
    return b


def contraction_weights(A, margin_tol: float = 1e-12) -> WeightSearchResult:
    """Positive weights b and r in [rho(A), 1) with A^T b <= r b, for rho(A) < 1.

    Uses the true left Perron vector when it is strictly positive (r = rho(A),
    exact); otherwise bisects the all-ones rank-one inflation A + t * 11^T down
    to a t with rho still below 1 and takes that matrix's Perron vector.
    """
    A = _check_nonneg_square(A)
    d = A.shape[0]
    rho = spectral_radius(A)
    if rho >= 1.0 - 1e-12:
        raise ValueError(f"contraction weight search needs rho(A) < 1, got {rho:.6g}")
    try:
        b = perron_weights(A)
        if np.all(A.T @ b <= rho * b + margin_tol):
            return WeightSearchResult(b, rho, True)
    except PerronStructureError:
        pass
    target = 0.5 * (1.0 + rho)
    t = (1.0 - rho) / (2.0 * d)
    for _ in range(200):
        r_t = spectral_radius(A + t)
        if r_t < target:
            break
        t *= 0.5
    else:  # pragma: no cover - continuity of rho guarantees termination
        raise RuntimeError("inflation bisection failed to find rho(A + t) < 1")
    b = perron_weights(A + t)
    r = spectral_radius(A + t)
    if not np.all(A.T @ b <= r * b + margin_tol):  # pragma: no cover - self check
        raise RuntimeError("contraction weight postcondition A^T b <= r b failed")
    return WeightSearchResult(b, r, False)


def lipschitz_bound(A, b) -> float:
    """Metric Lipschitz constant C = max_i (A^T b)_i / b_i; always >= rho(A)."""
    A = _check_nonneg_square(A)
    b = np.asarray(b, dtype=float)
    if b.shape != (A.shape[0],) or np.any(b <= 0.0):
        raise ValueError("b must be a strictly positive vector matching A")
    return float(np.max(A.T @ b / b))


def _pattern(A, pattern_tol: float) -> np.ndarray:
    return np.asarray(A, dtype=float) > pattern_tol


def is_irreducible(A, pattern_tol: float = 1e-12) -> bool:
    """Pattern irreducibility, equivalently (I + A)^{n-1} entrywise positive.

    Decided as strong connectivity of the pattern digraph: a forward and a
    reverse breadth-first search from one node, O(n^2) on the dense pattern.
    """
    A = _check_nonneg_square(A)
    return _digraph.strongly_connected(_pattern(A, pattern_tol))


def wielandt_bound(n: int) -> int:
    """Largest exponent needed to witness primitivity: (n-1)^2 + 1."""
    return (n - 1) ** 2 + 1


def is_primitive(A, pattern_tol: float = 1e-12) -> bool:
    """Pattern primitivity, equivalently some power up to the Wielandt bound is all-positive.

    Decided as irreducibility plus period 1, the period being the gcd of
    level(u) + 1 - level(v) over the edges for breadth-first levels from one
    node: three searches and one pass over the edges, O(n^2).  A 1 x 1 zero
    pattern is irreducible but not primitive.
    """
    A = _check_nonneg_square(A)
    return _digraph.primitive(_pattern(A, pattern_tol))
