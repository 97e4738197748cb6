"""Spectral analysis of nonnegative homogeneity matrices.

Provides the spectral radius, the left Perron weight vector, the contraction
weight search for strictly sub-unit spectral radii, the metric Lipschitz bound
max_i (A^T b)_i / b_i, and the pattern irreducibility / primitivity tests,
which search the digraph of the pattern of A instead of taking its powers.

:func:`analyze_homogeneity` is the one regime and weight policy, cached per
map as ``MapInstance.analysis`` and read by the solver, the certificates and
the CLI: rho(A) below, at or above 1, and the automatic weights for it.

Each distinct A of at most 64 x 64 that :func:`analyze_homogeneity` sees is
analysed once per process.  A bounded memo keeps its
:class:`HomogeneityAnalysis`, the one read-only record of A -- rho(A), the
regime, the left and right Perron vectors, the contraction weights, and the
pattern irreducibility and primitivity, each computed on first use from a
private read-only copy of A -- and :func:`spectral_radius`,
:func:`perron_weights` and :func:`contraction_weights` answer from it, bit
for bit what they would compute.  The memo holds at most 128 records and
drops the oldest first; the record of a 64 x 64 A takes about 35 KB, so the
memo never exceeds about 4.5 MB.  It lives in the process, so
each ``--jobs`` worker of the CLI has its own: a single-document CLI run
gains nothing, while a batch file or a library loop that analyses the same A
again finds its record.  Matrices that were never analysed -- the inflations
A + t of the weight search, the Jacobians of the certificates -- and anything
larger than 64 x 64 are computed afresh every time and never stored.

One kernel gives the spectral radius of a nonnegative M and its right Perron
vector (the left one of A is the right one of A^T).  rho(M) is the first of

- the common row sum c, when M 1 = c 1: the positive vector 1 forces
  c = rho(M);
- the largest radius of the diagonal blocks of the classes (the strongly
  connected components of the pattern M > 0), when there are several: M is
  block triangular under a permutation (Berman & Plemmons, *Nonnegative
  Matrices in the Mathematical Sciences*, ch. 2), and a 1 x 1 class is its
  own entry;
- for irreducible M, the midpoint of the Collatz-Wielandt enclosure

      min_i (M v)_i / v_i  <=  rho(M)  <=  max_i (M v)_i / v_i

  of the candidate v, the absolute eigenvector of ``eig`` for the eigenvalue
  of largest real part, once it is 1e-13 narrow; a period-2 matrix such as
  [[0, a], [b, 0]] is answered by one O(d^3) step;
- else power iteration accelerated by repeated squaring: B = M / s + 1e-8 I,
  s the largest row sum of M, is squared in a renormalized log scale, so the
  bracket

      max_i (B^k)_ii ^{1/k}  <=  rho(B)  <=  ||B^k||_inf ^{1/k}

  closes geometrically where the vanilla iteration stalls (slowly, like
  log 2 / k, when M is periodic).  The shift is relative to s, so the answer
  scales with M, and it is removed exactly at the end (the spectrum of a
  nonnegative matrix translates under the shift).

The Perron vector is the first of the uniform vector (uniform row sums), the
normalized candidate of an irreducible M, and the normalized row sums of the
squaring's power once they stop changing, that is strictly positive and
leaves a residual |M v - rho v| of at most 1e-10 * max(1, rho).
"""

from __future__ import annotations

import dataclasses
import functools
import threading
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
# relative width at which a rho(A) bracket is closed
_RADIUS_TOL = 1e-13
# the diagonal shift of the squaring, relative to the largest row sum
_SHIFT = 1e-8
# largest Perron residual |A^T b - rho b|, relative to max(1, rho)
_PERRON_TOL = 1e-10
# a Perron vector whose min/max ratio is at most this is not positive
_POSITIVITY_RATIO = 1e-12
# slack allowed in A^T b <= r b
_MARGIN_TOL = 1e-12
# entries up to this are zeros of a pattern
_PATTERN_TOL = 1e-12


class PerronStructureError(ValueError):
    """Raised when no strictly positive left Perron vector can be produced."""


@dataclasses.dataclass(frozen=True)
class WeightSearchResult:
    """Positive weights b with A^T b <= r b; ``exact`` when r = rho(A)."""

    b: np.ndarray
    r: float
    exact: bool


def _finite_nonneg(M: np.ndarray) -> bool:
    """Every entry is finite and nonnegative; a NaN fails.  Two passes, no temporaries."""
    return M.min(initial=0.0) >= 0.0 and M.max(initial=0.0) < np.inf


def _check_pattern_source(A) -> np.ndarray:
    """A as a float array, refused unless square, nonnegative and finite."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("need a square matrix")
    if not _finite_nonneg(A):
        raise ValueError("matrix must be nonnegative and finite")
    return A


def _check_nonneg_square(A) -> np.ndarray:
    """:func:`_check_pattern_source`, also refusing the 0 x 0 matrix, which has no spectral radius."""
    A = _check_pattern_source(A)
    if not A.size:
        raise ValueError("need a nonempty matrix: a 0 x 0 matrix has no spectral radius")
    return A


# ---------------------------------------------------------------------------
# the Perron kernel
# ---------------------------------------------------------------------------


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


def _radius(M: np.ndarray) -> float:
    """:func:`spectral_radius` of a checked M, computed afresh."""
    sums = M.sum(axis=1)
    if sums.min() == sums.max():  # M 1 = c 1 with 1 > 0 forces c = rho(M)
        return float(sums[0])
    classes = _digraph.classes(M > 0.0)
    if len(classes) > 1:  # block triangular up to a permutation
        return max(float(M[c[0], c[0]]) if len(c) == 1 else _radius(M[np.ix_(c, c)]) for c in classes)
    v = _perron_candidate(M)
    if v is not None and v.min() > 0.0:
        lo, hi = _cw_enclosure(M, v)
        if hi - lo <= _RADIUS_TOL * hi:
            return 0.5 * (lo + hi)
    return _by_squaring(M)[0]


def _perron_vector(M: np.ndarray, rho: float):
    """Read-only right Perron vector of a checked M in the open simplex, or the error that refuses it."""
    d = M.shape[0]
    sums = M.sum(axis=1)
    v = None
    if sums.min() == sums.max():
        v = np.full(d, 1.0 / d)
    elif _digraph.strongly_connected(M > 0.0):
        v = _perron_candidate(M)
        if v is not None:
            v = v / v.sum()
    if v is None or _perron_defect(M, v, rho) is not None:
        v = _by_squaring(M)[1]
        defect = _perron_defect(M, v, rho)
        if defect is not None:
            return PerronStructureError(defect)
    v.setflags(write=False)
    return v


def _perron_defect(M: np.ndarray, v: np.ndarray, rho: float) -> Optional[str]:
    """Why v is not an acceptable right Perron vector of M, or None."""
    if not v.min() > _POSITIVITY_RATIO * v.max():
        return "A^T has no strictly positive Perron eigenvector at this accuracy"
    residual = float(np.max(np.abs(M @ v - rho * v)))
    if not residual <= _PERRON_TOL * max(1.0, rho):
        return f"left Perron residual {residual:.3g} exceeds tolerance {_PERRON_TOL:.3g}"
    return None


def _by_squaring(M: np.ndarray) -> tuple[float, np.ndarray]:
    """rho(M), and the normalized row sums of powers of M / s + 1e-8 I, by repeated squaring.

    s is the largest row sum of M, which must be positive.  rho comes from
    the first bracket that is 1e-13 narrow (or from the last one), the vector
    once it changes by less than 1e-16.
    """
    s = float(M.sum(axis=1).max())
    B = M / s + _SHIFT * np.eye(M.shape[0])
    k, logscale = 1, 0.0  # invariant: (M / s + 1e-8 I)^k = exp(logscale) * B
    log_rho = v = None
    for _ in range(64):
        rows = B.sum(axis=1)
        rowmax = float(rows.max())
        if log_rho is None:
            diagmax = float(np.max(np.diagonal(B)))
            log_upper = (logscale + np.log(rowmax)) / k
            log_lower = (logscale + np.log(diagmax)) / k if diagmax > 0.0 else -np.inf
            if log_upper - log_lower <= _RADIUS_TOL:
                log_rho = 0.5 * (log_upper + log_lower)
        w = rows / rows.sum()
        settled = v is not None and np.max(np.abs(w - v)) < 1e-16
        v = w
        if settled and log_rho is not None:
            break
        scaled = B / rowmax
        B = scaled @ scaled
        logscale = 2.0 * (logscale + np.log(rowmax))
        k *= 2
    if log_rho is None:
        log_rho = log_upper if not np.isfinite(log_lower) else 0.5 * (log_upper + log_lower)
    return s * max(float(np.exp(log_rho)) - _SHIFT, 0.0), v


# ---------------------------------------------------------------------------
# the record of A and the per-A memo
# ---------------------------------------------------------------------------


class HomogeneityAnalysis:
    """The read-only record of one A: rho(A), its regime, the solver weights and the pattern facts.

    ``A`` is the record's private read-only copy, and every other fact is
    computed from it on first use.  ``auto_weights`` is ``(b, None)`` with
    the contraction weights (strict contraction) or the left Perron vector
    (non-expansive), ``(None, reason)`` when no strictly positive b with
    A^T b <= b exists, and ``(None, None)`` in the expansive regime.
    ``irreducible`` and ``primitive`` are :func:`is_irreducible` and
    :func:`is_primitive` of A.  Setting an attribute raises
    ``AttributeError``.
    """

    def __init__(self, A: np.ndarray, rho: Optional[float] = None):
        self.__dict__["A"] = A
        if rho is not None:
            self.__dict__["rho"] = rho

    def __setattr__(self, name, value):
        raise AttributeError("HomogeneityAnalysis is read-only")

    def __delattr__(self, name):
        raise AttributeError("HomogeneityAnalysis is read-only")

    def __repr__(self):
        return f"HomogeneityAnalysis(d={self.A.shape[0]}, rho={self.rho!r}, regime={self.regime!r})"

    @functools.cached_property
    def rho(self) -> float:
        return _radius(self.A)

    @functools.cached_property
    def regime(self) -> str:
        """``strict_contraction``, ``non_expansive`` or ``expansive``: rho(A) below, at or above 1."""
        if self.rho < 1.0 - _REGIME_TOL:
            return "strict_contraction"
        if self.rho <= 1.0 + _REGIME_TOL:
            return "non_expansive"
        return "expansive"

    @functools.cached_property
    def auto_weights(self) -> tuple[Optional[np.ndarray], Optional[str]]:
        if self.regime == "expansive":
            return None, None
        try:
            if self.regime == "strict_contraction":
                b = self._contraction.b
            else:
                b = _unless_error(self._left)
        except PerronStructureError as exc:
            return None, f"no positive weights with A^T b <= b ({exc})"
        return b, None

    @functools.cached_property
    def irreducible(self) -> bool:
        return _digraph.strongly_connected(self.A > _PATTERN_TOL)

    @functools.cached_property
    def primitive(self) -> bool:
        return self.irreducible and _digraph.period(self.A > _PATTERN_TOL) == 1

    @property
    def right_perron(self) -> Optional[np.ndarray]:
        """Read-only right Perron vector of A in the open simplex, or None when none is positive."""
        c = self._right
        return None if isinstance(c, PerronStructureError) else c

    @functools.cached_property
    def _left(self):
        """The read-only left Perron vector of A, or the error that refused it."""
        return _perron_vector(self.A.T, self.rho)

    @functools.cached_property
    def _right(self):
        return _perron_vector(self.A, self.rho)

    @functools.cached_property
    def _contraction(self) -> WeightSearchResult:
        """:func:`contraction_weights`, read only when rho(A) < 1; ``b`` is read-only.

        The inflations A + t of the bisection are never recorded.
        """
        A, rho = self.A, self.rho
        b = self._left
        if not isinstance(b, PerronStructureError) and np.all(A.T @ b <= rho * b + _MARGIN_TOL):
            return WeightSearchResult(b, rho, True)
        target = 0.5 * (1.0 + rho)
        t = (1.0 - rho) / (2.0 * A.shape[0])
        for _ in range(200):
            r = spectral_radius(A + t)
            if r < target:
                break
            t *= 0.5
        else:  # pragma: no cover - continuity of rho guarantees termination
            raise RuntimeError("inflation bisection failed to find rho(A + t) < 1")
        b = _unless_error(_perron_vector((A + t).T, r))
        if not np.all(A.T @ b <= r * b + _MARGIN_TOL):  # pragma: no cover - self check
            raise RuntimeError("contraction weight postcondition A^T b <= r b failed")
        return WeightSearchResult(b, r, False)


def _unless_error(value):
    """A cached Perron vector, or a fresh raise of the error cached in its place."""
    if isinstance(value, PerronStructureError):
        raise PerronStructureError(*value.args)
    return value


_MEMO_MAX_D = 64
_MEMO_SIZE = 128

# (d, the bytes of the C-ordered float64 A) -> the record of A, oldest first;
# at most _MEMO_SIZE records of d <= _MEMO_MAX_D.  A record keeps A once (its
# array shares the key's bytes, 32 KiB at d = 64), three d-vectors and three
# flags: about 35 KB, and the memo at most about 4.5 MB.
_MEMO: dict[tuple[int, bytes], HomogeneityAnalysis] = {}
_MEMO_LOCK = threading.Lock()


def _recall(A: np.ndarray) -> Optional[HomogeneityAnalysis]:
    """The memo's record of a checked A, or None."""
    d = A.shape[0]
    if d > _MEMO_MAX_D:
        return None
    return _MEMO.get((d, A.tobytes()))


def _remember(A: np.ndarray) -> Optional[HomogeneityAnalysis]:
    """The memo's record of a checked A, made on first sight; None above the size cap.

    The record computes on its own read-only C-ordered copy of A, so equal
    matrices get identical answers whatever their type, dtype or layout, and
    a later change to the caller's array changes none of them.
    """
    d = A.shape[0]
    if d > _MEMO_MAX_D:
        return None
    key = (d, A.tobytes())
    record = _MEMO.get(key)
    if record is None:
        with _MEMO_LOCK:  # threads may share the memo: one record per key, the bound kept
            record = _MEMO.get(key)
            if record is None:
                if len(_MEMO) >= _MEMO_SIZE:
                    del _MEMO[next(iter(_MEMO))]
                record = _MEMO[key] = HomogeneityAnalysis(np.frombuffer(key[1]).reshape(d, d))
    return record


# ---------------------------------------------------------------------------
# the public interface
# ---------------------------------------------------------------------------


def spectral_radius(A) -> float:
    """Spectral radius of a nonnegative matrix to 1e-13 relative accuracy.

    The common row sum when all row sums are equal; the largest radius of
    the diagonal blocks of the classes of A > 0 when there are several; for
    irreducible A the midpoint of the Collatz-Wielandt enclosure
    [min (Av/v), max (Av/v)] of the ``eig`` candidate v, once it is 1e-13
    narrow; else the repeated-squaring bracket of A / s + 1e-8 I, s the
    largest row sum (see the module docstring).  A 0 x 0 matrix raises
    ``ValueError``.

    A matrix that :func:`analyze_homogeneity` has seen in this process is
    answered from its memo record, bit for bit the value computed afresh.
    The memo is bounded, one per process (each ``--jobs`` worker has its own)
    and only for d <= 64: a single-document CLI run gains nothing from it, a
    batch file does (see the module docstring).
    """
    A = _check_nonneg_square(A)
    record = _recall(A)
    return _radius(A) if record is None else record.rho


def perron_weights(A) -> np.ndarray:
    """Left Perron vector b in the open simplex with A^T b = rho(A) b.

    The uniform vector when the column sums of A are equal; for irreducible
    A the normalized ``eig`` candidate of A^T (see :func:`spectral_radius`);
    else, or when that candidate fails the check, the normalized row sums of
    a high power of A^T / s + 1e-8 I, by the same repeated squaring.  Raises
    :class:`PerronStructureError` when no such answer is strictly positive
    (its smallest entry at most 1e-12 times its largest: reducible matrices
    with deficient Perron structure) with a residual |A^T b - rho b| of at
    most 1e-10 * max(1, rho); callers then fall back to
    :func:`contraction_weights`.

    A matrix that :func:`analyze_homogeneity` has seen in this process is
    answered from its memo record (d <= 64, bounded, one per process: see
    :func:`spectral_radius`); the result is a fresh copy either way.
    """
    A = _check_nonneg_square(A)
    record = _recall(A) or HomogeneityAnalysis(A)
    return np.array(_unless_error(record._left))


def contraction_weights(A) -> WeightSearchResult:
    """Positive weights b and r in [rho(A), 1) with A^T b <= r b, for rho(A) < 1.

    Uses the true left Perron vector when it is strictly positive (r = rho(A),
    exact); otherwise bisects the all-ones rank-one inflation A + t * 11^T down
    to a t with rho still below 1 and takes that matrix's Perron vector.
    Raises ``ValueError`` unless :func:`analyze_homogeneity` puts A in the
    strict contraction regime.  ``b`` is a fresh copy.
    """
    analysis = analyze_homogeneity(A)
    if analysis.regime != "strict_contraction":
        raise ValueError(
            f"contraction weight search needs rho(A) < 1, got {analysis.rho:.17g} ({analysis.regime})"
        )
    res = analysis._contraction
    return dataclasses.replace(res, b=np.array(res.b))


def analyze_homogeneity(A) -> HomogeneityAnalysis:
    """The record of A: rho(A), its regime and the automatic weights.

    The record's ``regime`` is the only place the rho(A) = 1 tolerance is
    applied.

    A d x d matrix with d <= 64 gets (or finds) its record in the memo, so a
    second analysis of an equal matrix -- the same homogeneity matrix parsed
    again by another document of a batch file, say -- returns the same
    record, with rho(A), the weights and the pattern facts.  The memo is
    bounded and one per process, so each ``--jobs`` worker has its own, and a
    single-document CLI run gains nothing from it (see the module docstring).
    rho(A) is read through :func:`spectral_radius` either way; a larger A
    gets a one-off record.
    """
    return _analysis(_check_nonneg_square(A))


def _analysis(A: np.ndarray) -> HomogeneityAnalysis:
    """:func:`analyze_homogeneity` of a nonempty square float A known to be finite and nonnegative.

    No input check of its own: for an A that ``_check_nonneg_square`` or
    ``maps.check_homogeneity_matrix`` passed.  rho(A) is still read through
    :func:`spectral_radius`, whose check is then the only one.
    """
    record = _remember(A)
    if record is None:  # above the memo's size cap: a one-off record of a private copy
        A = np.array(A)
        A.setflags(write=False)
        return HomogeneityAnalysis(A, spectral_radius(A))
    spectral_radius(record.A)  # computes the record's rho, or reads it
    return record


def lipschitz_bound(A, b) -> float:
    """Metric Lipschitz constant C = max_i (A^T b)_i / b_i; always >= rho(A)."""
    A = _check_nonneg_square(A)
    b = np.asarray(b, dtype=float)
    if b.shape != (A.shape[0],) or not np.all((0.0 < b) & (b < np.inf)):
        raise ValueError("b must be a strictly positive vector matching A")
    return float(np.max(A.T @ b / b))


def is_irreducible(A) -> bool:
    """Pattern irreducibility, equivalently (I + A)^{n-1} entrywise positive.

    The pattern holds the entries above 1e-12.  Decided as strong
    connectivity of the pattern digraph: one component in Tarjan's search,
    O(n^2) on the dense pattern.  The 0 x 0 pattern is irreducible
    vacuously.
    """
    A = _check_pattern_source(A)
    return _digraph.strongly_connected(A > _PATTERN_TOL)


def wielandt_bound(n: int) -> int:
    """Largest exponent needed to witness primitivity: (n-1)^2 + 1."""
    return (n - 1) ** 2 + 1


def is_primitive(A) -> bool:
    """Pattern primitivity, equivalently some power up to the Wielandt bound is all-positive.

    The pattern holds the entries above 1e-12.  Decided as irreducibility
    plus period 1, the period being the gcd of depth(u) + 1 - depth(v) over
    the edges for the depths of the search tree: two searches and one pass
    over the edges, O(n^2).  A 1 x 1 zero pattern is irreducible but not
    primitive; the 0 x 0 pattern is primitive vacuously.
    """
    A = _check_pattern_source(A)
    return _digraph.primitive(A > _PATTERN_TOL)
