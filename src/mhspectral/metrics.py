"""Blockwise ratio extrema and weighted Hilbert / Thompson metrics.

Both metrics live on the open cone K_{++}.  For a positive weight vector b,

    mu_b(x, y)     = sum_i b_i * ln( M_i(x/y) / m_i(x/y) )
    mubar_b(x, y)  = sum_i b_i * ln( max{ M_i(x/y), M_i(y/x) } )

where M_i / m_i are the per-block maxima / minima of entrywise ratios.  All
ratio logs are taken as log(x) - log(y) coordinatewise, so enormous or tiny
entries never overflow an intermediate quotient.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .cones import ProductVector, ShapeSpec, _check_same_shape, as_weight_vector

__all__ = [
    "POSITIVITY_FLOOR",
    "RatioExtrema",
    "ratio_extrema",
    "hilbert_metric",
    "thompson_metric",
]

#: Entries at or below this magnitude count as nonpositive for metric purposes;
#: the metrics have no boundary extension.
POSITIVITY_FLOOR = 1e-300


@dataclasses.dataclass(frozen=True)
class RatioExtrema:
    """Per-block maxima M_i(x/y) and minima m_i(x/y) of entrywise ratios."""

    maxima: np.ndarray
    minima: np.ndarray


def _require_interior(flat: np.ndarray, name: str):
    if np.minimum.reduce(flat, axis=None) <= POSITIVITY_FLOOR:
        raise ValueError(f"{name} must be strictly positive (entry <= {POSITIVITY_FLOOR:g})")


def _log_ratio_extrema(x: np.ndarray, y: np.ndarray, shape: ShapeSpec):
    """Per-block (min, max) of log(x) - log(y) over buffers laid out as ``shape``.

    The one blockwise ratio kernel: ``x`` and ``y`` are flat buffers or
    stacks of them (one per row), either or both; the extrema are reduced
    along the last axis.  Zero entries of x give -inf (and a divide warning,
    which a caller admitting them silences).
    """
    diff = np.log(x)
    diff -= np.log(y)
    starts = shape._starts
    return np.minimum.reduceat(diff, starts, -1), np.maximum.reduceat(diff, starts, -1)


def _weighted_sum(w: np.ndarray, v: np.ndarray):
    """sum_i w_i v_i along the last axis, added left to right like a Python loop.

    ``np.dot`` and pairwise sums round differently; the + 0.0 mirrors the
    loop's 0.0 start, which turns a lone -0.0 into 0.0.
    """
    return np.add.accumulate((w * v).T)[-1] + 0.0


def _log_bracket(y: np.ndarray, x: np.ndarray, shape: ShapeSpec, w: np.ndarray):
    """(sum_i w_i min_i, sum_i w_i max_i) of log(y) - log(x).

    The log Collatz-Wielandt bracket of one power step, for flat buffers laid
    out as ``shape``; for stacks of one-block buffers (one step per row) the
    two ends are arrays, one entry per row, each that row's bracket to the
    last bit.  The weighted extrema are formed in place and each end is
    added left to right, so it equals ``_weighted_sum`` of the same extrema
    to the last bit.  One block weights its two extrema as scalars: the
    same one product plus the loop's 0.0 start, without the array steps.
    """
    lo, hi = _log_ratio_extrema(y, x, shape)
    if lo.ndim == 2:
        w0 = w.item(0)
        return lo[:, 0] * w0 + 0.0, hi[:, 0] * w0 + 0.0
    if len(lo) == 1:
        w0 = w.item(0)
        return w0 * lo.item(0) + 0.0, w0 * hi.item(0) + 0.0
    lo *= w
    hi *= w
    return np.add.accumulate(lo)[-1] + 0.0, np.add.accumulate(hi)[-1] + 0.0


def ratio_extrema(x: ProductVector, y: ProductVector) -> RatioExtrema:
    """Blockwise max and min of x/y; y must be strictly positive, x nonnegative.

    The sandwich m(x/y) (x) y <=_K x <=_K M(x/y) (x) y holds componentwise.
    """
    _check_same_shape(x, y)
    if np.minimum.reduce(y.flat) <= 0.0:
        raise ValueError("y has a zero entry; ratios need y in K_++")
    if np.minimum.reduce(x.flat) < 0.0:
        raise ValueError("x must be nonnegative")
    with np.errstate(divide="ignore"):
        lo, hi = _log_ratio_extrema(x.flat, y.flat, x.shape)
    return RatioExtrema(np.exp(hi), np.exp(lo))


def hilbert_metric(x: ProductVector, y: ProductVector, b) -> float:
    """Weighted Hilbert (projective) metric on K_{++}.

    Vanishes exactly when every block of x is a positive multiple of the
    corresponding block of y; invariant under blockwise rescaling of either
    argument.
    """
    _check_same_shape(x, y)
    _require_interior(x.flat, "x")
    _require_interior(y.flat, "y")
    w = as_weight_vector(b, x.d)
    lo, hi = _log_ratio_extrema(x.flat, y.flat, x.shape)
    return float(_weighted_sum(w, hi - lo))


def thompson_metric(x: ProductVector, y: ProductVector, b) -> float:
    """Weighted Thompson metric on K_{++}: a genuine metric, zero iff x == y."""
    _check_same_shape(x, y)
    _require_interior(x.flat, "x")
    _require_interior(y.flat, "y")
    w = as_weight_vector(b, x.d)
    lo, hi = _log_ratio_extrema(x.flat, y.flat, x.shape)
    return float(_weighted_sum(w, np.maximum(hi, -lo)))
