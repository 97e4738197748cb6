"""Spectral analysis of nonnegative homogeneity matrices.

Provides the spectral radius, the left Perron weight vector, the contraction
weight search for strictly sub-unit spectral radii, the metric Lipschitz bound
max_i (A^T b)_i / b_i, and the pattern irreducibility / primitivity tests,
which search the digraph of the pattern of A instead of taking its powers.

:func:`analyze_homogeneity` is the one regime and weight policy, cached per
map as ``MapInstance.analysis`` and read by the solver, the certificates and
the CLI: rho(A) below, at or above 1, and the automatic weights for it.

The spectral radius and the Perron vectors come from the Collatz-Wielandt
principle: for a nonnegative A and any positive v,

    min_i (A v)_i / v_i  <=  rho(A)  <=  max_i (A v)_i / v_i.

When the pattern of A is irreducible (strongly connected), Perron-Frobenius
gives a simple positive Perron vector, and the eigenvector of ``eig`` for the
eigenvalue of largest real part, taken in absolute value, is a candidate for
it.  rho(A) is the midpoint of that enclosure once it is ``tol`` narrow, and
the left Perron vector is the candidate of A^T once it passes the positivity
and residual checks; a period-2 matrix such as [[0, a], [b, 0]] is answered
by one O(d^3) step.  Everything else -- reducible or defective A, or a
candidate that fails its check -- falls back to power iteration accelerated
by repeated squaring: B = A + shift*I is squared in a renormalized log scale,
so the bracket

    max_i (B^k)_ii ^{1/k}  <=  rho(B)  <=  ||B^k||_inf ^{1/k}

closes geometrically where the vanilla iteration stalls (slowly, like
log 2 / k, when A is periodic).  The diagonal shift is removed exactly at the
end (the spectrum of a nonnegative matrix translates under +shift*I).
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Optional

import numpy as np

from . import _digraph

__all__ = [
    "HomogeneityAnalysis",
    "PerronStructureError",
    "WeightSearchResult",
    "analyze_homogeneity",
    "spectral_radius",
    "perron_weights",
    "contraction_weights",
    "lipschitz_bound",
    "is_irreducible",
    "is_primitive",
    "wielandt_bound",
]

# |rho(A) - 1| up to this counts as rho(A) = 1, the non-expansive regime
_REGIME_TOL = 1e-9


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


def _cw_enclosure(M: np.ndarray, v: np.ndarray) -> tuple[float, float]:
    """(min, max) of (M v) / v, which encloses rho(M) for M >= 0 and v > 0."""
    q = (M @ v) / v
    return float(q.min()), float(q.max())


def _perron_candidate(M: np.ndarray) -> Optional[np.ndarray]:
    """|eigenvector| of the eigenvalue of M with the largest real part, or None.

    Only a candidate for the right Perron vector: callers accept it through a
    check on M itself.
    """
    try:
        w, V = np.linalg.eig(M)
    except np.linalg.LinAlgError:
        return None
    return np.abs(V[:, np.argmax(w.real)])


def spectral_radius(A, tol: float = 1e-13, shift: float = 1e-8) -> float:
    """Spectral radius of a nonnegative matrix to ``tol`` relative accuracy.

    Irreducible A (strongly connected pattern of A > 0) has a positive right
    Perron vector, and for its candidate v the Collatz-Wielandt enclosure
    [min (Av/v), max (Av/v)] contains rho(A); once it is ``tol`` narrow its
    midpoint is the answer.  Reducible A, or a candidate that does not close
    the enclosure, goes to the repeated-squaring bracket.
    """
    A = _check_nonneg_square(A)
    if A.shape[0] == 1:
        return float(A[0, 0])
    if _digraph.strongly_connected(A > 0):
        v = _perron_candidate(A)
        if v is not None and v.min() > 0.0:
            lo, hi = _cw_enclosure(A, v)
            if hi - lo <= tol * hi:
                return 0.5 * (lo + hi)
    return _radius_by_squaring(A, tol, shift)


def _radius_by_squaring(A: np.ndarray, tol: float, shift: float) -> float:
    """rho(A) from the diagonal and row-sum bracket of renormalized powers of A + shift*I."""
    d = A.shape[0]
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

    Irreducible A takes the Perron candidate of A^T (see :func:`spectral_radius`)
    when the column sums of A + shift*I are not already uniform; the repeated
    squaring of (A + shift*I)^T answers reducible A and any candidate that
    fails the positivity or residual check.  Raises
    :class:`PerronStructureError` when that answer is not strictly positive
    (reducible matrices with deficient Perron structure) or leaves a residual
    above ``tol * max(1, rho)``; callers then fall back to
    :func:`contraction_weights`.
    """
    A = _check_nonneg_square(A)
    return _perron_weights(A, spectral_radius(A), tol, shift, positivity_ratio)


def _perron_defect(A: np.ndarray, b: np.ndarray, rho: float, tol, positivity_ratio) -> Optional[str]:
    """Why b is not an acceptable left Perron vector of A, or None."""
    if not b.min() > positivity_ratio * b.max():
        return "A^T has no strictly positive Perron eigenvector at this accuracy"
    residual = float(np.max(np.abs(A.T @ b - rho * b)))
    if not residual <= tol * max(1.0, rho):
        return f"left Perron residual {residual:.3g} exceeds tolerance {tol:.3g}"
    return None


def _perron_weights(
    A: np.ndarray, rho: float, tol=1e-10, shift=1e-8, positivity_ratio=1e-12
) -> np.ndarray:
    """:func:`perron_weights` of a checked A whose spectral radius is ``rho``."""
    d = A.shape[0]
    if d == 1:
        return np.ones(1)
    if _digraph.strongly_connected(A > 0):
        sums = (A + shift * np.eye(d)).T @ np.ones(d)
        b = sums / sums.sum()
        # uniform column sums make the squaring's first pass its answer
        if not np.max(np.abs(b - 1.0 / d)) < 1e-16:
            v = _perron_candidate(A.T)
            b = None if v is None else v / v.sum()
        if b is not None and _perron_defect(A, b, rho, tol, positivity_ratio) is None:
            return b
    b = _perron_by_squaring(A, shift)
    defect = _perron_defect(A, b, rho, tol, positivity_ratio)
    if defect is not None:
        raise PerronStructureError(defect)
    return b


def _perron_by_squaring(A: np.ndarray, shift: float) -> np.ndarray:
    """Normalized (A + shift*I)^T-power image of the ones vector, by repeated squaring."""
    d = A.shape[0]
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
    return b


def contraction_weights(A, margin_tol: float = 1e-12) -> WeightSearchResult:
    """Positive weights b and r in [rho(A), 1) with A^T b <= r b, for rho(A) < 1.

    Uses the true left Perron vector when it is strictly positive (r = rho(A),
    exact); otherwise bisects the all-ones rank-one inflation A + t * 11^T down
    to a t with rho still below 1 and takes that matrix's Perron vector.
    Raises ``ValueError`` unless :func:`analyze_homogeneity` puts A in the
    strict contraction regime.
    """
    analysis = analyze_homogeneity(A)
    if analysis.regime != "strict_contraction":
        raise ValueError(
            f"contraction weight search needs rho(A) < 1, got {analysis.rho:.17g} ({analysis.regime})"
        )
    return _contraction_weights(analysis.A, analysis.rho, margin_tol)


def _contraction_weights(A: np.ndarray, rho: float, margin_tol: float = 1e-12) -> WeightSearchResult:
    """:func:`contraction_weights` of a checked A whose spectral radius is ``rho`` < 1."""
    try:
        b = _perron_weights(A, rho)
        if np.all(A.T @ b <= rho * b + margin_tol):
            return WeightSearchResult(b, rho, True)
    except PerronStructureError:
        pass
    target = 0.5 * (1.0 + rho)
    t = (1.0 - rho) / (2.0 * A.shape[0])
    for _ in range(200):
        r = spectral_radius(A + t)
        if r < target:
            break
        t *= 0.5
    else:  # pragma: no cover - continuity of rho guarantees termination
        raise RuntimeError("inflation bisection failed to find rho(A + t) < 1")
    b = _perron_weights(A + t, r)
    if not np.all(A.T @ b <= r * b + margin_tol):  # pragma: no cover - self check
        raise RuntimeError("contraction weight postcondition A^T b <= r b failed")
    return WeightSearchResult(b, r, False)


@dataclasses.dataclass(frozen=True)
class HomogeneityAnalysis:
    """rho(A), its regime, and the automatic solver weights for that regime.

    ``auto_weights`` is computed on first access: ``(b, None)`` with the
    contraction weights (strict contraction) or the left Perron vector
    (non-expansive), ``(None, reason)`` when no strictly positive b with
    A^T b <= b exists, and ``(None, None)`` in the expansive regime.
    """

    A: np.ndarray = dataclasses.field(repr=False, compare=False)
    rho: float
    regime: str

    @functools.cached_property
    def auto_weights(self) -> tuple[Optional[np.ndarray], Optional[str]]:
        if self.regime == "expansive":
            return None, None
        try:
            if self.regime == "strict_contraction":
                b = _contraction_weights(self.A, self.rho).b
            else:
                b = _perron_weights(self.A, self.rho)
        except PerronStructureError as exc:
            return None, f"no positive weights with A^T b <= b ({exc})"
        b.setflags(write=False)
        return b, None


def analyze_homogeneity(A) -> HomogeneityAnalysis:
    """rho(A) and its regime; the only place the rho(A) = 1 tolerance is applied."""
    A = _check_nonneg_square(A)
    rho = spectral_radius(A)
    if rho < 1.0 - _REGIME_TOL:
        regime = "strict_contraction"
    elif rho <= 1.0 + _REGIME_TOL:
        regime = "non_expansive"
    else:
        regime = "expansive"
    return HomogeneityAnalysis(A, rho, regime)


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
