"""Normalized power iteration with monotone Collatz-Wielandt brackets.

The iteration renormalizes every block after each application of the map,

    x^{k+1}_i = F_i(x^k) / ||F_i(x^k)||,

and tracks the two weighted ratio products

    lower_k = prod_i min_j (F_{i,j}(x^k) / x^k_{i,j}) ^ {b_i}
    upper_k = prod_i max_j (F_{i,j}(x^k) / x^k_{i,j}) ^ {b_i},

which bracket the weighted spectral radius r_b whenever A^T b <= b, the lower
trace nondecreasing and the upper nonincreasing.  Iteration stops once the log
bracket gap drops below the (scale-free) tolerance.

Weight selection: for rho(A) < 1 any contraction weights work and the iterates
converge at the linear rate rho(A); for rho(A) = 1 the left Perron vector of A
is required, and convergence additionally needs a primitive Jacobian pattern
at the eigenvector.  For rho(A) > 1 no guarantee from the underlying theory
applies and auto-solving refuses.  (The cited convergence-rate statement is
phrased with "A b < b" where the bracket statements use "A^T b <= b"; the
solver follows the transpose form throughout and attaches the rate envelope
exactly when rho(A) < 1.)

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
    as_weight_vector,
    block_norms,
    normalize,
    ones_vector,
    scale_blocks,
    weighted_norm_product,
)
from .homogeneity import (
    PerronStructureError,
    contraction_weights,
    is_irreducible,
    perron_weights,
    spectral_radius,
    wielandt_bound,
)
from .maps import EigenPair, MapInstance, evaluate, has_kink, jacobian_at
from .metrics import hilbert_metric

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

_RHO_ONE_TOL = 1e-9


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


def _resolve_weights(A: np.ndarray, weights, messages: list) -> np.ndarray:
    """Solver weight policy keyed on rho(A); explicit weights pass through."""
    d = A.shape[0]
    if weights is not None:
        b = as_weight_vector(weights, d)
        slack = A.T @ b - b
        if np.any(slack > 1e-12):
            messages.append(
                "warning: supplied weights violate A^T b <= b; bracket "
                "monotonicity is not guaranteed"
            )
        return b
    rho = spectral_radius(A)
    if rho < 1.0 - _RHO_ONE_TOL:
        return contraction_weights(A).b
    if rho <= 1.0 + _RHO_ONE_TOL:
        try:
            return perron_weights(A)
        except PerronStructureError as exc:
            raise PerronStructureError(
                f"no positive weights with A^T b <= b ({exc})"
            ) from exc
    raise ExpansiveMapError(
        f"rho(A) = {rho:.6g} > 1: the expansive regime carries no existence, "
        "uniqueness, or bracket guarantees; supply explicit weights to iterate "
        "anyway"
    )


def _log_weighted_ratio_bounds(y: ProductVector, x: ProductVector, b: np.ndarray):
    lo = hi = 0.0
    for bi, yb, xb in zip(b, y.blocks, x.blocks):
        with np.errstate(divide="ignore"):
            diff = np.log(yb) - np.log(xb)
        lo += bi * diff.min()
        hi += bi * diff.max()
    return lo, hi


def _relative_residual_inf(y: ProductVector, lam: np.ndarray, x: ProductVector) -> float:
    worst = 0.0
    for li, yb, xb in zip(lam, y.blocks, x.blocks):
        scale = float(np.max(np.abs(li * xb)))
        if scale == 0.0:
            return math.inf
        worst = max(worst, float(np.max(np.abs(yb - li * xb))) / scale)
    return worst


def residual(F: MapInstance, x: ProductVector, lam, norms: NormSpec, floor: float = 1e-15) -> float:
    """Eigen-equation defect max_i ||F_i(x) - lam_i x_i|| / max(lam_i, floor)."""
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    y = evaluate(F, x)
    defect = ProductVector([yb - li * xb for li, yb, xb in zip(lam, y.blocks, x.blocks)])
    norms_vec = block_norms(defect, norms)
    return float(np.max(norms_vec / np.maximum(lam, floor)))


def cw_bounds(F: MapInstance, x: ProductVector, b) -> tuple[float, float]:
    """Collatz-Wielandt bracket (lower, upper) of r_b at the test vector x.

    The lower bound restricts the per-block minima to the support of x and is
    finite on all of K_{+,0}; the upper bound needs x strictly positive and is
    reported as +inf otherwise.
    """
    w = as_weight_vector(b, F.shape.d)
    if not x.is_semipos():
        raise ValueError("x must have a nonzero block-wise nonnegative part")
    y = evaluate(F, x)
    log_lo = 0.0
    lo_zero = False
    for yb, xb in zip(y.blocks, x.blocks):
        if not np.any(xb > 0.0):
            raise ValueError("x has a zero block")
    for wi, yb, xb in zip(w, y.blocks, x.blocks):
        mask = xb > 0.0
        ratios = yb[mask] / xb[mask]
        m = float(ratios.min())
        if m == 0.0:
            lo_zero = True
        else:
            log_lo += wi * math.log(m)
    lower = 0.0 if lo_zero else float(math.exp(log_lo))
    if x.is_pos():
        log_hi = 0.0
        for wi, yb, xb in zip(w, y.blocks, x.blocks):
            log_hi += wi * math.log(float(np.max(yb / xb)))
        upper = float(math.exp(log_hi))
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
    b = _resolve_weights(F.A, cfg.weights, messages)
    x = normalize(x0 if x0 is not None else ones_vector(F.shape), norms)
    if not x.is_pos():
        raise ValueError("starting vector must be strictly positive")

    rho = spectral_radius(F.A)
    rate_bound = rho if rho < 1.0 - _RHO_ONE_TOL else None
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
        ycat = y.concat()
        if not np.all(np.isfinite(ycat)):
            status = DIVERGED
            messages.append("non-finite iterate")
            break
        if not y.is_pos():
            status = DIVERGED
            messages.append("iterate left the open cone")
            break
        log_lo, log_hi = _log_weighted_ratio_bounds(y, x, b)
        trace.append((math.exp(log_lo), math.exp(log_hi)))
        lam = block_norms(y, norms)
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
                    ylam = block_norms(evaluate(F, candidate), norms)
                    res_c = _relative_residual_inf(evaluate(F, candidate), ylam, candidate)
                    if res_c < 10.0 * cfg.tol:
                        eigenpair = EigenPair(candidate, ylam, _weighted_product(ylam, b))
                        status, res_val = BRACKET_CONVERGED_CYCLING, res_c
                        messages.append("period-2 cycling averaged out")
                        break
        x = scale_blocks(1.0 / lam, y)
        recent.append(x)
        if cfg.keep_iterates:
            iterates.append(x)

    if status == MAX_ITER and trace:
        lam = block_norms(evaluate(F, x), norms)
        eigenpair = EigenPair(x, lam, _weighted_product(lam, b))
        res_val = _relative_residual_inf(evaluate(F, x), lam, x)
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
        u = eigenpair.x
        mu = [hilbert_metric(xk, u, b) for xk in iterates]
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
    return max(float(np.max(np.abs(a - c))) for a, c in zip(x.blocks, y.blocks))


def _cycle_average(vectors, norms) -> ProductVector:
    blocks = [np.mean([v.blocks[i] for v in vectors], axis=0) for i in range(vectors[0].d)]
    return normalize(ProductVector(blocks), norms)


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
        if not np.all(np.isfinite(y.concat())):
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
    b = _resolve_weights(F.A, cfg.weights, messages)
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


def certify_uniqueness(F: MapInstance, report: SolveReport, pattern_tol: float = 1e-12) -> Certificate:
    """Strongest certificate backing uniqueness (or maximality) of the eigenpair.

    Order of preference: strict contraction (rho(A) < 1, no further checks);
    then, in the non-expansive regime with L = lambda^{-1}-scaled Jacobian at
    the eigenvector and rho(L) = 1 up to 1e-6: irreducible Jacobian pattern;
    one-dimensional kernel of I - L (requires A itself irreducible); summed
    powers positivity (maximality only).  Non-differentiable maps at kink
    points yield ``none`` with a reason.
    """
    rho_A = spectral_radius(F.A)
    if rho_A < 1.0 - _RHO_ONE_TOL:
        return Certificate("contraction", {"rho_A": rho_A})
    if rho_A > 1.0 + _RHO_ONE_TOL:
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
    J = jacobian_at(F, u)
    L = J.copy()
    for k, rows in enumerate(F.shape.block_slices()):
        L[rows] /= lam[k]
    L_pos = np.clip(L, 0.0, None)
    rho_L = spectral_radius(L_pos)
    data = {"rho_A": rho_A, "rho_L": rho_L}
    if abs(rho_L - 1.0) > 1e-6:
        data["reason"] = "rho(lambda^{-1} DF(u)) is not 1"
        return Certificate("none", data)
    if is_irreducible(J, pattern_tol):
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
