"""Spectral analysis of nonnegative homogeneity matrices.

Provides the spectral radius, the left Perron weight vector, the contraction
weight search for strictly sub-unit spectral radii, the metric Lipschitz bound
max_i (A^T b)_i / b_i, and the pattern irreducibility / primitivity tests,
which search the digraph of the pattern of A instead of taking its powers.

:func:`analyze_homogeneity` is the one regime and weight policy, cached per
map as ``MapInstance.analysis`` and read by the solver, the certificates and
the CLI: rho(A) below, at or above 1, and the automatic weights for it.

Each distinct A of at most 64 x 64 that :func:`analyze_homogeneity` sees is
analysed once per process.  A bounded memo keeps one record per such A --
rho(A), the left and right Perron vectors, the contraction weights, and the
pattern irreducibility and primitivity, each computed on first use from a
private read-only copy of A -- and :func:`spectral_radius`,
:func:`perron_weights` and :func:`contraction_weights` answer from it, bit
for bit what they would compute.  The memo holds at most 128 records and
drops the oldest first; the record of a 64 x 64 A takes about 35 KB, so the
memo never exceeds about 4.5 MB.  It lives in the process, so
each ``--jobs`` worker of the CLI has its own: a single-document CLI run
gains nothing, while a batch file or a library loop that analyses the same A
again reads its record.  Matrices that were never analysed -- the inflations
A + t of the weight search, the Jacobians of the certificates -- and anything
larger than 64 x 64 are computed afresh every time and never stored.

The spectral radius and the Perron vectors come from the Collatz-Wielandt
principle: for a nonnegative A and any positive v,

    min_i (A v)_i / v_i  <=  rho(A)  <=  max_i (A v)_i / v_i.

When the pattern of A is irreducible (strongly connected), Perron-Frobenius
gives a simple positive Perron vector, and the eigenvector of ``eig`` for the
eigenvalue of largest real part, taken in absolute value, is a candidate for
it.  rho(A) is the midpoint of that enclosure once it is 1e-13 narrow, and
the left Perron vector is the candidate of A^T once it passes the positivity
and residual checks; a period-2 matrix such as [[0, a], [b, 0]] is answered
by one O(d^3) step.  Everything else -- reducible or defective A, or a
candidate that fails its check -- falls back to power iteration accelerated
by repeated squaring: B = A + 1e-8 I is squared in a renormalized log scale,
so the bracket

    max_i (B^k)_ii ^{1/k}  <=  rho(B)  <=  ||B^k||_inf ^{1/k}

closes geometrically where the vanilla iteration stalls (slowly, like
log 2 / k, when A is periodic).  The diagonal shift is removed exactly at the
end (the spectrum of a nonnegative matrix translates under the shift).
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
# the diagonal shift of the squaring loops
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


# ---------------------------------------------------------------------------
# the per-A memo
# ---------------------------------------------------------------------------

_MEMO_MAX_D = 64
_MEMO_SIZE = 128


class _Facts:
    """Facts about one checked A, each computed on first use.

    ``left`` and ``right`` hold the read-only Perron vector of A^T and of A,
    or the :class:`PerronStructureError` that computing it raised.
    """

    def __init__(self, A: np.ndarray, rho: Optional[float] = None):
        self.A = A
        if rho is not None:
            self.rho = rho

    @functools.cached_property
    def connected(self) -> bool:
        """Strong connectivity of the pattern A > 0, which picks the Perron candidate path."""
        return _digraph.strongly_connected(self.A > 0.0)

    @functools.cached_property
    def rho(self) -> float:
        return _radius(self.A, self.connected)

    @functools.cached_property
    def left(self):
        return _perron_or_error(self.A, self.rho, self.connected)

    @functools.cached_property
    def right(self):
        # A^T > 0 is strongly connected exactly when A > 0 is
        return _perron_or_error(self.A.T, self.rho, self.connected)

    @functools.cached_property
    def contraction(self) -> WeightSearchResult:
        """:func:`contraction_weights`, read only when rho(A) < 1; ``b`` is read-only.

        The inflations A + t of the bisection are never recorded.
        """
        A, rho = self.A, self.rho
        b = self.left
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
        b = _left_perron(A + t, r)
        if not np.all(A.T @ b <= r * b + _MARGIN_TOL):  # pragma: no cover - self check
            raise RuntimeError("contraction weight postcondition A^T b <= r b failed")
        b.setflags(write=False)
        return WeightSearchResult(b, r, False)

    @functools.cached_property
    def irreducible(self) -> bool:
        return _digraph.strongly_connected(self.A > _PATTERN_TOL)

    @functools.cached_property
    def primitive(self) -> bool:
        if not self.A.shape[0]:
            return True
        return self.irreducible and _digraph.period(self.A > _PATTERN_TOL) == 1


def _perron_or_error(M: np.ndarray, rho: float, connected: bool):
    """Read-only left Perron vector of M, or the error it raised."""
    try:
        b = _left_perron(M, rho, connected)
    except PerronStructureError as exc:
        return exc
    b.setflags(write=False)
    return b


def _unless_error(value):
    """A cached Perron vector, or a fresh raise of the error cached in its place."""
    if isinstance(value, PerronStructureError):
        raise PerronStructureError(*value.args)
    return value


# (d, the bytes of the C-ordered float64 A) -> the record of A, oldest first;
# at most _MEMO_SIZE records of d <= _MEMO_MAX_D.  A record keeps A once (its
# array shares the key's bytes, 32 KiB at d = 64), three d-vectors and three
# flags: about 35 KB, and the memo at most about 4.5 MB.
_MEMO: dict[tuple[int, bytes], _Facts] = {}
_MEMO_LOCK = threading.Lock()


def _recall(A: np.ndarray) -> Optional[_Facts]:
    """The memo's record of a checked A, or None."""
    d = A.shape[0]
    if d > _MEMO_MAX_D:
        return None
    return _MEMO.get((d, A.tobytes()))


def _remember(A: np.ndarray) -> Optional[_Facts]:
    """The memo's record of a checked A, made on first sight; None above the size cap.

    The record computes on its own read-only C-ordered copy of A, so equal
    matrices get identical answers whatever their type, dtype or layout, and
    a later change to the caller's array changes none of them.
    """
    d = A.shape[0]
    if d > _MEMO_MAX_D:
        return None
    key = (d, A.tobytes())
    facts = _MEMO.get(key)
    if facts is None:
        with _MEMO_LOCK:  # threads may share the memo: one record per key, the bound kept
            facts = _MEMO.get(key)
            if facts is None:
                if len(_MEMO) >= _MEMO_SIZE:
                    del _MEMO[next(iter(_MEMO))]
                facts = _MEMO[key] = _Facts(np.frombuffer(key[1]).reshape(d, d))
    return facts


# ---------------------------------------------------------------------------
# spectral radius and Perron vectors
# ---------------------------------------------------------------------------


def spectral_radius(A) -> float:
    """Spectral radius of a nonnegative matrix to 1e-13 relative accuracy.

    Irreducible A (strongly connected pattern of A > 0) has a positive right
    Perron vector, and for its candidate v the Collatz-Wielandt enclosure
    [min (Av/v), max (Av/v)] contains rho(A); once it is 1e-13 narrow its
    midpoint is the answer.  Reducible A, or a candidate that does not close
    the enclosure, goes to the repeated-squaring bracket.

    A matrix that :func:`analyze_homogeneity` has seen in this process is
    answered from its memo record, bit for bit the value computed afresh.
    The memo is bounded, one per process (each ``--jobs`` worker has its own)
    and only for d <= 64: a single-document CLI run gains nothing from it, a
    batch file does (see the module docstring).
    """
    A = _check_nonneg_square(A)
    facts = _recall(A)
    if facts is not None:
        return facts.rho
    return _radius(A)


def _radius(A: np.ndarray, connected: Optional[bool] = None) -> float:
    """:func:`spectral_radius` of a checked A; ``connected`` is that of A > 0 when known."""
    if A.shape[0] == 1:
        return float(A[0, 0])
    if connected is None:
        connected = _digraph.strongly_connected(A > 0.0)
    if connected:
        v = _perron_candidate(A)
        if v is not None and v.min() > 0.0:
            lo, hi = _cw_enclosure(A, v)
            if hi - lo <= _RADIUS_TOL * hi:
                return 0.5 * (lo + hi)
    return _radius_by_squaring(A)


def _radius_by_squaring(A: np.ndarray) -> float:
    """rho(A) from the diagonal and row-sum bracket of renormalized powers of A + 1e-8 I."""
    d = A.shape[0]
    M = A + _SHIFT * np.eye(d)
    k, logscale = 1, 0.0  # invariant: B^k = exp(logscale) * M
    log_upper = log_lower = None
    for _ in range(64):
        rowmax = float(np.max(M.sum(axis=1)))
        diagmax = float(np.max(np.diagonal(M)))
        log_upper = (logscale + np.log(rowmax)) / k
        log_lower = (logscale + np.log(diagmax)) / k if diagmax > 0.0 else -np.inf
        if log_upper - log_lower <= _RADIUS_TOL:
            return max(float(np.exp(0.5 * (log_upper + log_lower))) - _SHIFT, 0.0)
        scaled = M / rowmax
        M = scaled @ scaled
        logscale = 2.0 * (logscale + np.log(rowmax))
        k *= 2
    mid = log_upper if not np.isfinite(log_lower) else 0.5 * (log_upper + log_lower)
    return max(float(np.exp(mid)) - _SHIFT, 0.0)


def perron_weights(A) -> np.ndarray:
    """Left Perron vector b in the open simplex with A^T b = rho(A) b.

    Irreducible A takes the Perron candidate of A^T (see :func:`spectral_radius`)
    when the column sums of A + 1e-8 I are not already uniform; the repeated
    squaring of (A + 1e-8 I)^T answers reducible A and any candidate that
    fails the positivity or residual check.  Raises
    :class:`PerronStructureError` when that answer is not strictly positive
    (its smallest entry at most 1e-12 times its largest: reducible matrices
    with deficient Perron structure) or leaves a residual above
    1e-10 * max(1, rho); callers then fall back to :func:`contraction_weights`.

    A matrix that :func:`analyze_homogeneity` has seen in this process is
    answered from its memo record (d <= 64, bounded, one per process: see
    :func:`spectral_radius`); the result is a fresh copy either way.
    """
    A = _check_nonneg_square(A)
    facts = _recall(A) or _Facts(A)
    return np.array(_unless_error(facts.left))


def _perron_defect(A: np.ndarray, b: np.ndarray, rho: float) -> Optional[str]:
    """Why b is not an acceptable left Perron vector of A, or None."""
    if not b.min() > _POSITIVITY_RATIO * b.max():
        return "A^T has no strictly positive Perron eigenvector at this accuracy"
    residual = float(np.max(np.abs(A.T @ b - rho * b)))
    if not residual <= _PERRON_TOL * max(1.0, rho):
        return f"left Perron residual {residual:.3g} exceeds tolerance {_PERRON_TOL:.3g}"
    return None


def _left_perron(A: np.ndarray, rho: float, connected: Optional[bool] = None) -> np.ndarray:
    """The left Perron vector of a checked A whose spectral radius is ``rho``, computed afresh.

    ``connected`` is the strong connectivity of A > 0 when known.
    """
    d = A.shape[0]
    if d == 1:
        return np.ones(1)
    if connected is None:
        connected = _digraph.strongly_connected(A > 0.0)
    if connected:
        sums = (A + _SHIFT * np.eye(d)).T @ np.ones(d)
        b = sums / sums.sum()
        # uniform column sums make the squaring's first pass its answer
        if not np.max(np.abs(b - 1.0 / d)) < 1e-16:
            v = _perron_candidate(A.T)
            b = None if v is None else v / v.sum()
        if b is not None and _perron_defect(A, b, rho) is None:
            return b
    b = _perron_by_squaring(A)
    defect = _perron_defect(A, b, rho)
    if defect is not None:
        raise PerronStructureError(defect)
    return b


def _perron_by_squaring(A: np.ndarray) -> np.ndarray:
    """Normalized (A + 1e-8 I)^T-power image of the ones vector, by repeated squaring."""
    d = A.shape[0]
    M = (A + _SHIFT * np.eye(d)).T
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
    res = analysis._facts.contraction
    return dataclasses.replace(res, b=np.array(res.b))


@dataclasses.dataclass(frozen=True)
class HomogeneityAnalysis:
    """rho(A), its regime, and the automatic solver weights for that regime.

    ``auto_weights`` is computed on first access: ``(b, None)`` with the
    contraction weights (strict contraction) or the left Perron vector
    (non-expansive), ``(None, reason)`` when no strictly positive b with
    A^T b <= b exists, and ``(None, None)`` in the expansive regime.
    ``irreducible``, ``primitive`` and ``right_perron`` are facts of A read
    from its record, each computed once.
    """

    A: np.ndarray = dataclasses.field(repr=False, compare=False)
    rho: float
    regime: str
    _facts: _Facts = dataclasses.field(repr=False, compare=False)

    @functools.cached_property
    def auto_weights(self) -> tuple[Optional[np.ndarray], Optional[str]]:
        if self.regime == "expansive":
            return None, None
        try:
            if self.regime == "strict_contraction":
                b = self._facts.contraction.b
            else:
                b = _unless_error(self._facts.left)
        except PerronStructureError as exc:
            return None, f"no positive weights with A^T b <= b ({exc})"
        return b, None

    @property
    def irreducible(self) -> bool:
        """:func:`is_irreducible` of A."""
        return self._facts.irreducible

    @property
    def primitive(self) -> bool:
        """:func:`is_primitive` of A."""
        return self._facts.primitive

    @property
    def right_perron(self) -> Optional[np.ndarray]:
        """Read-only right Perron vector of A in the open simplex, or None when none is positive."""
        c = self._facts.right
        return None if isinstance(c, PerronStructureError) else c


def analyze_homogeneity(A) -> HomogeneityAnalysis:
    """rho(A) and its regime; the only place the rho(A) = 1 tolerance is applied.

    A d x d matrix with d <= 64 gets (or finds) its record in the memo, so a
    second analysis of an equal matrix -- the same homogeneity matrix parsed
    again by another document of a batch file, say -- reuses rho(A), the
    weights and the pattern facts.  The memo is bounded and one per process,
    so each ``--jobs`` worker has its own, and a single-document CLI run gains
    nothing from it (see the module docstring).  rho(A) is read through
    :func:`spectral_radius` either way; a larger A gets a one-off record.
    """
    A = _check_nonneg_square(A)
    facts = _remember(A)
    if facts is not None:
        rho = spectral_radius(facts.A)
    else:  # above the memo's size cap: a one-off record of a private copy
        A = np.array(A)
        A.setflags(write=False)
        rho = spectral_radius(A)
        facts = _Facts(A, rho)
    if rho < 1.0 - _REGIME_TOL:
        regime = "strict_contraction"
    elif rho <= 1.0 + _REGIME_TOL:
        regime = "non_expansive"
    else:
        regime = "expansive"
    return HomogeneityAnalysis(facts.A, rho, regime, facts)


def lipschitz_bound(A, b) -> float:
    """Metric Lipschitz constant C = max_i (A^T b)_i / b_i; always >= rho(A)."""
    A = _check_nonneg_square(A)
    b = np.asarray(b, dtype=float)
    if b.shape != (A.shape[0],) or np.any(b <= 0.0):
        raise ValueError("b must be a strictly positive vector matching A")
    return float(np.max(A.T @ b / b))


def is_irreducible(A) -> bool:
    """Pattern irreducibility, equivalently (I + A)^{n-1} entrywise positive.

    The pattern holds the entries above 1e-12.  Decided as strong
    connectivity of the pattern digraph: one component in Tarjan's search,
    O(n^2) on the dense pattern.
    """
    A = _check_nonneg_square(A)
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
    primitive.
    """
    A = _check_nonneg_square(A)
    return _digraph.primitive(A > _PATTERN_TOL)
