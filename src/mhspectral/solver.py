"""Normalized power iteration with monotone Collatz-Wielandt brackets.

The iteration renormalizes every block after each application of the map,

    x^{k+1}_i = F_i(x^k) / ||F_i(x^k)||,

and tracks the two weighted ratio products

    lower_k = prod_i min_j (F_{i,j}(x^k) / x^k_{i,j}) ^ {b_i}
    upper_k = prod_i max_j (F_{i,j}(x^k) / x^k_{i,j}) ^ {b_i},

which bracket the weighted spectral radius r_b whenever A^T b <= b, the lower
trace nondecreasing and the upper nonincreasing.  Iteration stops once the log
bracket gap drops below the (scale-free) tolerance.

Weight selection (``F.analysis``, see :func:`~mhspectral.analyze_homogeneity`):
for rho(A) < 1 any contraction weights work and the iterates converge at the
linear rate rho(A); for rho(A) = 1 the left Perron vector of A is required,
and convergence additionally needs a primitive Jacobian pattern at the
eigenvector.  For rho(A) > 1 no guarantee from the underlying theory applies
and auto-solving refuses.  (The cited convergence-rate statement is phrased
with "A b < b" where the bracket statements use "A^T b <= b"; the solver
follows the transpose form throughout and attaches the rate envelope exactly
when rho(A) < 1.)

Also here: the raw Collatz-Wielandt bound functions, an orbit-growth estimate
of the Bonsall radius, a warm-started delta-continuation toward maximal
eigenpairs, and the uniqueness / maximality certificates.
"""

from __future__ import annotations

import collections
import dataclasses
import math
from typing import Optional

import numpy as np

from . import _digraph
from .cones import (
    NormSpec,
    ProductVector,
    ShapeSpec,
    _norm_kernel,
    _wrap,
    as_weight_vector,
    block_norms,
    normalize,
    ones_vector,
    weighted_norm_product,
)
from .homogeneity import (
    PerronStructureError,
    _cw_enclosure,
    _perron_weights,
    is_irreducible,
    spectral_radius,
    wielandt_bound,
)
from .maps import EigenPair, MapInstance, evaluate, has_kink, jacobian_at
from .metrics import _hilbert_trace, _log_bracket

__all__ = [
    "ExpansiveMapError",
    "SolverConfig",
    "DeltaSchedule",
    "Certificate",
    "SolveReport",
    "cw_bounds",
    "power_method",
    "bonsall_estimate",
    "delta_continuation",
    "certify_uniqueness",
    "check_dirr",
    "find_dirr",
    "residual",
    "CONVERGED",
    "BRACKET_CONVERGED_CYCLING",
    "MAX_ITER",
    "DIVERGED",
]

CONVERGED = "converged"
BRACKET_CONVERGED_CYCLING = "bracket_converged_cycling"
MAX_ITER = "max_iter"
DIVERGED = "diverged"


class ExpansiveMapError(ValueError):
    """Auto-solving refused: rho(A) > 1 lies outside the contractive theory."""


@dataclasses.dataclass(frozen=True)
class DeltaSchedule:
    """Geometric shift schedule delta0, delta0*factor, ... down to floor."""

    delta0: float = 1.0
    factor: float = 0.5
    floor: float = 1e-8

    def values(self) -> list[float]:
        if not (self.delta0 > 0.0 and self.floor > 0.0 and 0.0 < self.factor < 1.0):
            raise ValueError("need delta0, floor > 0 and factor in (0, 1)")
        if self.floor > self.delta0:
            raise ValueError("floor exceeds delta0")
        out, delta = [], self.delta0
        while delta >= self.floor * (1.0 - 1e-12):
            out.append(delta)
            delta *= self.factor
        return out


@dataclasses.dataclass
class SolverConfig:
    norms: NormSpec
    tol: float = 1e-10
    max_iter: int = 10_000
    weights: Optional[np.ndarray] = None  # None selects weights from A
    cycle_window: int = 2
    delta_schedule: DeltaSchedule = dataclasses.field(default_factory=DeltaSchedule)
    keep_iterates: bool = True

    def __post_init__(self):
        if not self.tol > 0.0:
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.cycle_window < 1:
            raise ValueError("cycle_window must be >= 1")


@dataclasses.dataclass(frozen=True)
class Certificate:
    """Outcome of the uniqueness / maximality analysis of a solved eigenpair.

    ``kind`` is one of ``contraction`` (strict contraction regime),
    ``jacobian_irreducible``, ``kernel_dim_one``, ``dirr`` (summed-powers
    positivity, a maximality certificate), or ``none``.
    """

    kind: str
    data: dict


@dataclasses.dataclass
class SolveReport:
    eigenpair: Optional[EigenPair]
    status: str
    iterations: int
    bracket_trace: list
    weights: np.ndarray
    residual: Optional[float] = None
    rate_bound: Optional[float] = None
    certificate: Optional[Certificate] = None
    iterates: Optional[list] = None
    metric_trace: Optional[list] = None
    envelope_ok: Optional[bool] = None
    messages: list = dataclasses.field(default_factory=list)
    delta_trace: Optional[list] = None
    r_extrapolated: Optional[float] = None


def _resolve_weights(F: MapInstance, weights, messages: list) -> np.ndarray:
    """Explicit weights pass through with a check; otherwise ``F.analysis`` decides."""
    if weights is not None:
        b = as_weight_vector(weights, F.shape.d)
        slack = F.A.T @ b - b
        if np.any(slack > 1e-12):
            messages.append(
                "warning: supplied weights violate A^T b <= b; bracket "
                "monotonicity is not guaranteed"
            )
        return b
    analysis = F.analysis
    if analysis.regime == "expansive":
        raise ExpansiveMapError(
            f"rho(A) = {analysis.rho:.6g} > 1: the expansive regime carries no existence, "
            "uniqueness, or bracket guarantees; supply explicit weights to iterate anyway"
        )
    b, reason = analysis.auto_weights
    if b is None:
        raise PerronStructureError(reason)
    return b


def _relative_residual_inf(y: ProductVector, lam: np.ndarray, x: ProductVector) -> float:
    """max_i ||y_i - lam_i x_i||_inf / ||lam_i x_i||_inf, inf when some lam_i x_i is 0."""
    lx = x.shape._spread(lam) * x.flat
    starts = x.shape._starts
    scale = np.maximum.reduceat(np.abs(lx), starts)
    if (scale == 0.0).any():
        return math.inf
    # fmax skips a NaN block, as the max over blocks did
    per_block = np.maximum.reduceat(np.abs(y.flat - lx), starts) / scale
    return float(np.fmax.reduce(per_block, initial=0.0))


def residual(F: MapInstance, x: ProductVector, lam, norms: NormSpec, floor: float = 1e-15) -> float:
    """Eigen-equation defect max_i ||F_i(x) - lam_i x_i|| / max(lam_i, floor)."""
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    y = evaluate(F, x)
    defect = ProductVector.from_flat(y.flat - x.shape._spread(lam) * x.flat, x.shape)
    norms_vec = block_norms(defect, norms)
    return float(np.max(norms_vec / np.maximum(lam, floor)))


def _exp(v: float) -> float:
    """math.exp, but +inf where the result lies beyond the double range."""
    try:
        return math.exp(v)
    except OverflowError:
        return math.inf


def cw_bounds(F: MapInstance, x: ProductVector, b) -> tuple[float, float]:
    """Collatz-Wielandt bracket (lower, upper) of r_b at the test vector x.

    The lower bound restricts the per-block minima to the support of x and is
    finite on all of K_{+,0}; the upper bound needs x strictly positive and is
    reported as +inf otherwise.  A bound beyond the double range is +inf.
    """
    w = as_weight_vector(b, F.shape.d)
    if not x.is_semipos():
        raise ValueError("x must have a nonzero block-wise nonnegative part")
    y = evaluate(F, x)
    log_lo = 0.0
    lo_zero = False
    for wi, yb, xb in zip(w, y.blocks, x.blocks):
        mask = xb > 0.0
        ratios = yb[mask] / xb[mask]
        m = float(ratios.min())
        if m == 0.0:
            lo_zero = True
        else:
            log_lo += wi * math.log(m)
    lower = 0.0 if lo_zero else _exp(log_lo)
    if x.is_pos():
        log_hi = 0.0
        for wi, yb, xb in zip(w, y.blocks, x.blocks):
            log_hi += wi * math.log(float(np.max(yb / xb)))
        upper = _exp(log_hi)
    else:
        upper = math.inf
    return lower, upper


def power_method(F: MapInstance, x0: Optional[ProductVector], cfg: SolverConfig) -> SolveReport:
    """Run the normalized iteration from x0 (all-ones start when None).

    Returns the eigenpair with lambda_i = ||F_i(x)|| at the normalized fixed
    point, the full bracket trace, and, in the strict-contraction regime, the
    a-priori convergence envelope checked a posteriori against the converged
    eigenvector.
    """
    norms = cfg.norms
    if norms.d != F.shape.d:
        raise ValueError("norm spec does not match the map shape")
    messages: list[str] = []
    b = _resolve_weights(F, cfg.weights, messages)
    norm_of = _norm_kernel(F.shape, norms)
    one_block = F.shape.d == 1
    x = normalize(x0 if x0 is not None else ones_vector(F.shape), norms)
    if not x.is_pos():
        raise ValueError("starting vector must be strictly positive")

    analysis = F.analysis
    rate_bound = analysis.rho if analysis.regime == "strict_contraction" else None
    trace: list[tuple[float, float]] = []
    iterates = [x] if cfg.keep_iterates else None
    recent = collections.deque([x], maxlen=cfg.cycle_window + 1)
    status, eigenpair, res_val = MAX_ITER, None, None
    iterations = 0

    for _ in range(cfg.max_iter):
        try:
            y = evaluate(F, x)
        except ValueError as exc:
            status = DIVERGED
            messages.append(f"evaluation failed: {exc}")
            break
        iterations += 1
        yf = y.flat
        # y in the open cone: one min pass rules out zeros and NaN; the
        # diagnostics run only on failure and keep their order (NaN first)
        y_min = np.minimum.reduce(yf)
        if not y_min > 0.0:
            status = DIVERGED
            finite = np.isfinite(yf).all()
            messages.append("iterate left the open cone" if finite else "non-finite iterate")
            break
        log_lo, log_hi = _log_bracket(yf, x.flat, y.shape, b)
        # x is finite and positive, so log_hi is finite whenever y is, and an
        # infinite entry of y makes it infinite or NaN
        if not log_hi < math.inf and not np.isfinite(yf).all():
            status = DIVERGED
            messages.append("non-finite iterate")
            break
        trace.append((_exp(log_lo), _exp(log_hi)))
        lam = norm_of(yf)
        if log_hi - log_lo < cfg.tol:
            res = _relative_residual_inf(y, lam, x)
            if res < 10.0 * cfg.tol:
                eigenpair = EigenPair(x, lam, _weighted_product(lam, b))
                status, res_val = CONVERGED, res
                break
            if len(recent) > cfg.cycle_window:
                past = recent[0]
                dist_cycle = _inf_dist(x, past)
                dist_step = _inf_dist(x, recent[-2]) if len(recent) >= 2 else math.inf
                if dist_cycle < 1e-10 and dist_step > 10.0 * dist_cycle:
                    candidate = _cycle_average(list(recent)[1:], norms)
                    y_c = evaluate(F, candidate)
                    ylam = norm_of(y_c.flat)
                    res_c = _relative_residual_inf(y_c, ylam, candidate)
                    if res_c < 10.0 * cfg.tol:
                        eigenpair = EigenPair(candidate, ylam, _weighted_product(ylam, b))
                        status, res_val = BRACKET_CONVERGED_CYCLING, res_c
                        messages.append("period-2 cycling averaged out")
                        break
        # lam holds one norm per block of y, the length a scaling needs; one
        # block scales by one numpy scalar, the same product per entry without
        # the array division and the min pass over the factors (a numpy
        # scalar, so that a norm underflowing to 0 still gives inf)
        if one_block:
            inv_min = 1.0 / lam[0]
            x = _wrap(yf * inv_min, y.shape)
        else:
            inv = 1.0 / lam
            inv_min = np.minimum.reduce(inv)
            x = _wrap(y.shape._spread(inv) * yf, y.shape)
        # a rescaled entry can underflow to 0 only if the smallest entry times
        # the smallest factor does; then the iterate is checked in full
        if not y_min * inv_min > 0.0 and not x.is_pos():
            status = DIVERGED
            messages.append("iterate left the open cone")
            break
        recent.append(x)
        if cfg.keep_iterates:
            iterates.append(x)

    if status == MAX_ITER and trace:
        y = evaluate(F, x)
        lam = norm_of(y.flat)
        eigenpair = EigenPair(x, lam, _weighted_product(lam, b))
        res_val = _relative_residual_inf(y, lam, x)
        messages.append("bracket did not close within max_iter")

    report = SolveReport(
        eigenpair=eigenpair,
        status=status,
        iterations=iterations,
        bracket_trace=trace,
        weights=b,
        residual=res_val,
        rate_bound=rate_bound,
        iterates=iterates,
        messages=messages,
    )
    if (
        status == CONVERGED
        and rate_bound is not None
        and cfg.keep_iterates
        and eigenpair is not None
        and eigenpair.x.is_pos()
    ):
        mu = _hilbert_trace(iterates, eigenpair.x, b)
        report.metric_trace = mu
        bound0 = mu[0] / (1.0 - rate_bound)
        report.envelope_ok = all(
            mu_k <= rate_bound**k * bound0 + 1e-9 for k, mu_k in enumerate(mu)
        )
    return report


def _weighted_product(lam: np.ndarray, b: np.ndarray) -> float:
    if np.any(lam <= 0.0):
        return 0.0
    return float(np.exp(np.dot(b, np.log(lam))))


def _inf_dist(x: ProductVector, y: ProductVector) -> float:
    return float(np.maximum.reduce(np.abs(x.flat - y.flat)))


def _cycle_average(vectors, norms) -> ProductVector:
    mean = np.mean([v.flat for v in vectors], axis=0)
    return normalize(ProductVector.from_flat(mean, vectors[0].shape), norms)


def bonsall_estimate(F: MapInstance, x: ProductVector, b, m: int, norms: NormSpec) -> float:
    """Orbit-growth estimate |||F^m(x)|||_b^{1/m} via renormalized iterates.

    Growth factors are accumulated in log space while the iterate itself stays
    on S_+; the telescoped product equals |||F^m(x)|||_b exactly when
    A^T b = b, and in general converges to the weighted eigenvalue product of
    the limiting eigenpair whenever the normalized iteration converges.
    """
    if m < 1:
        raise ValueError("need at least one iteration")
    w = as_weight_vector(b, F.shape.d)
    if not x.is_pos():
        raise ValueError("x must be strictly positive")
    acc = 0.0
    cur = x
    for _ in range(m):
        y = evaluate(F, cur)
        if not np.all(np.isfinite(y.flat)):
            raise ValueError("overflow despite renormalization")
        growth = weighted_norm_product(y, w, norms)
        if growth <= 0.0:
            raise ValueError("orbit hit the cone boundary")
        acc += math.log(growth)
        cur = normalize(y, norms)
    return float(math.exp(acc / m))


def _aitken(values: list[float]) -> float:
    if len(values) < 3:
        return values[-1]
    r1, r2, r3 = values[-3], values[-2], values[-1]
    denom = (r3 - r2) - (r2 - r1)
    if abs(denom) < 1e-300:
        return r3
    extrap = r3 - (r3 - r2) ** 2 / denom
    return float(extrap)


def delta_continuation(F: MapInstance, cfg: SolverConfig) -> SolveReport:
    """Solve the shifted maps F^{(delta)} down a geometric schedule.

    Each shifted map has a strictly positive eigenpair; the weighted
    eigenvalue products decrease strictly with delta, and the warm-started
    sequence approaches a maximal eigenpair of F itself.  Inner tolerances
    tighten proportionally to delta (floored at 1e-13, below which doubles
    cannot resolve the log bracket gap).  Reports the last eigenpair, the
    (delta, r_b) trace, and an extrapolated limit of the r_b sequence.
    """
    from .maps import shifted  # local import keeps module load order simple

    messages: list[str] = []
    b = _resolve_weights(F, cfg.weights, messages)
    schedule = cfg.delta_schedule.values()
    floor = cfg.delta_schedule.floor
    x = ones_vector(F.shape)
    delta_trace: list[tuple[float, float]] = []
    pairs: list[EigenPair] = []
    total_iters = 0
    last_report = None

    for delta in schedule:
        Fd = shifted(F, delta, cfg.norms)
        inner_tol = min(1e-3, max(cfg.tol, cfg.tol * delta / floor, 1e-13))
        inner = dataclasses.replace(
            cfg, tol=inner_tol, weights=b, keep_iterates=False
        )
        rep = power_method(Fd, x, inner)
        total_iters += rep.iterations
        last_report = rep
        if rep.status not in (CONVERGED, BRACKET_CONVERGED_CYCLING):
            messages.append(
                f"inner solve failed to close its bracket at delta={delta:g} "
                f"(status {rep.status}); returning partial results"
            )
            return SolveReport(
                eigenpair=rep.eigenpair,
                status=rep.status,
                iterations=total_iters,
                bracket_trace=rep.bracket_trace,
                weights=b,
                residual=rep.residual,
                messages=messages + rep.messages,
                delta_trace=delta_trace,
            )
        delta_trace.append((delta, rep.eigenpair.r_b))
        pairs.append(rep.eigenpair)
        x = rep.eigenpair.x

    r_values = [r for _, r in delta_trace]
    if any(r_values[i] <= r_values[i + 1] for i in range(len(r_values) - 1)):
        messages.append(
            "warning: r_b(F^(delta)) failed to decrease strictly along the "
            "descending schedule"
        )
    return SolveReport(
        eigenpair=pairs[-1],
        status=CONVERGED,
        iterations=total_iters,
        bracket_trace=last_report.bracket_trace,
        weights=b,
        residual=last_report.residual,
        messages=messages,
        delta_trace=delta_trace,
        r_extrapolated=_aitken(r_values),
    )


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------


def _dirr_pattern(L, shape: ShapeSpec, pattern_tol: float) -> np.ndarray:
    L = np.asarray(L, dtype=float)
    if L.shape != (shape.total, shape.total):
        raise ValueError("L does not match the shape's total dimension")
    return L > pattern_tol


def check_dirr(L, i: int, tau: int, shape: ShapeSpec, pattern_tol: float = 1e-12) -> bool:
    """Summed-powers positivity: block i of sum_{k<=tau} L^k w > 0 for all w >= 0.

    Exact at pattern level: with P the boolean pattern of L, the condition
    holds iff rows of block i in P or P^2 or ... or P^tau are all ones, i.e.
    every node of block i reaches every node by a walk of length 1..tau.
    Decided by a layered search over walk lengths that stops once the reach
    sets stop growing: at most min(tau, n + 1) layers of O(nnz) set unions.
    """
    L = np.asarray(L, dtype=float)
    if tau < 1:
        raise ValueError("tau must be >= 1")
    if not (0 <= i < shape.d):
        raise ValueError(f"block index {i} out of range")
    P = _dirr_pattern(L, shape, pattern_tol)
    # the summed powers only grow with tau, so block i is full at tau iff it
    # is full at some tau' <= tau
    return _digraph.first_full_block(P, [shape.block_slices()[i]], tau) is not None


def find_dirr(L, shape: ShapeSpec, pattern_tol: float = 1e-12):
    """Smallest tau, then lowest block, satisfying check_dirr, as (block, tau).

    Returns None when no block qualifies within the Wielandt bound.  One
    layered search serves every tau and every block (see check_dirr).
    """
    P = _dirr_pattern(L, shape, pattern_tol)
    return _digraph.first_full_block(P, shape.block_slices(), wielandt_bound(shape.total))


# |rho(L) - 1| up to this counts as rho(L) = 1 in the certificates
_RHO_L_TOL = 1e-6


def _rho_L(F: MapInstance, u: ProductVector, L_pos: np.ndarray) -> float:
    """rho(L_pos), from one Collatz-Wielandt matvec whenever that decides rho = 1.

    Euler's identity blockwise, sum_{r in block j} dF_k/dx_r x_r = A_ij F_k(x)
    for k in block i, gives L (c (x) u) = (A c) (x) u at the eigenpair, where
    c (x) u scales block j of u by c_j.  With c the right Perron vector of A,
    v = c (x) u is a positive vector with L v = rho(A) v up to the eigen
    residual, and for any nonnegative matrix and positive v

        min_k (L_pos v)_k / v_k  <=  rho(L_pos)  <=  max_k (L_pos v)_k / v_k.

    When the whole enclosure lies within the rho = 1 band its midpoint is
    returned.  Otherwise -- no positive right Perron vector of A, an enclosure
    straddling a band edge or one outside the band -- the answer is
    ``spectral_radius(L_pos)``, as if the enclosure had not been tried.
    """
    try:
        c = _perron_weights(F.A.T, F.analysis.rho)
    except PerronStructureError:
        return spectral_radius(L_pos)
    lo, hi = _cw_enclosure(L_pos, F.shape._spread(c) * u.flat)
    if 1.0 - _RHO_L_TOL <= lo and hi <= 1.0 + _RHO_L_TOL:
        return 0.5 * (lo + hi)
    return spectral_radius(L_pos)


def certify_uniqueness(F: MapInstance, report: SolveReport, pattern_tol: float = 1e-12) -> Certificate:
    """Strongest certificate backing uniqueness (or maximality) of the eigenpair.

    Order of preference: strict contraction (rho(A) < 1, no further checks);
    then, in the non-expansive regime with L = lambda^{-1}-scaled Jacobian at
    the eigenvector and rho(L) = 1 up to 1e-6: irreducible pattern of L;
    one-dimensional kernel of I - L (requires A itself irreducible); summed
    powers positivity (maximality only).  Non-differentiable maps at kink
    points yield ``none`` with a reason.

    rho(L) comes from the Collatz-Wielandt enclosure of one matvec with the
    test vector c (x) u, c the right Perron vector of A: an enclosure inside
    [1 - 1e-6, 1 + 1e-6] reports its midpoint, and every other case falls
    back to ``spectral_radius`` of the clipped L (see ``_rho_L``).  The
    patterns tested are those of the clipped L, free of the scale of F.
    """
    rho_A, regime = F.analysis.rho, F.analysis.regime
    if regime == "strict_contraction":
        return Certificate("contraction", {"rho_A": rho_A})
    if regime == "expansive":
        return Certificate("none", {"reason": f"expansive regime rho(A)={rho_A:.6g}"})
    if report.eigenpair is None:
        return Certificate("none", {"reason": "no eigenpair available"})
    u, lam = report.eigenpair.x, report.eigenpair.lam
    if not u.is_pos():
        return Certificate("none", {"reason": "eigenvector touches the cone boundary"})
    if np.any(lam <= 0.0):
        return Certificate("none", {"reason": "eigenvalue vector has zero entries"})
    if not F.differentiable and has_kink(F, u):
        return Certificate(
            "none", {"reason": "map is not differentiable at the eigenvector (kink)"}
        )
    L_pos = np.clip(jacobian_at(F, u) / F.shape._spread(lam)[:, None], 0.0, None)
    rho_L = _rho_L(F, u, L_pos)
    data = {"rho_A": rho_A, "rho_L": rho_L}
    if abs(rho_L - 1.0) > _RHO_L_TOL:
        data["reason"] = "rho(lambda^{-1} DF(u)) is not 1"
        return Certificate("none", data)
    if is_irreducible(L_pos, pattern_tol):
        data["df_irreducible"] = True
        return Certificate("jacobian_irreducible", data)
    data["df_irreducible"] = False
    N = F.shape.total
    if N >= 2 and is_irreducible(F.A, pattern_tol):
        sv = np.linalg.svd(np.eye(N) - L_pos, compute_uv=False)
        gap = float(sv[-2] / max(sv[-1], 1e-300))
        data["sv_gap_ratio"] = gap
        if gap > 1e6:
            return Certificate("kernel_dim_one", data)
    hit = find_dirr(L_pos, F.shape, pattern_tol)
    if hit is not None:
        data["block"] = hit[0]
        data["tau"] = hit[1]
        data["note"] = (
            "maximality certificate: boundary eigenpairs have strictly "
            "smaller weighted eigenvalue product"
        )
        return Certificate("dirr", data)
    data["reason"] = "no certificate validated"
    return Certificate("none", data)
