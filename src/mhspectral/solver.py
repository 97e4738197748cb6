"""Normalized power iteration with monotone Collatz-Wielandt brackets.

The iteration renormalizes every block after each application of the map,

    x^{k+1}_i = F_i(x^k) / ||F_i(x^k)||,

and tracks the two weighted ratio products

    lower_k = prod_i min_j (F_{i,j}(x^k) / x^k_{i,j}) ^ {b_i}
    upper_k = prod_i max_j (F_{i,j}(x^k) / x^k_{i,j}) ^ {b_i},

which bracket the weighted spectral radius r_b whenever A^T b <= b, the lower
trace nondecreasing and the upper nonincreasing.  Iteration stops once the log
bracket gap drops below the (scale-free) tolerance.  The start vector is
checked once (F's block sizes, finite, strictly positive once normalized)
and the first step evaluates F there through ``evaluate``; every later
iterate is the loop's own rescaled F(x) (or lazy step), a flat buffer checked
strictly positive, to which the loop applies F's flat kernel (``maps._kernel``)
with no input check and no vector built.  A built-in map's kernel is its own; a
user's evaluator is adapted inside ``maps``, and what it returns is still
checked.  The eigenvector is the one vector built, over the buffer the
evaluator last saw.  The steps run in blocks: a block runs its steps back to
back and then checks them, one log bracket for all of them, and reports what
checking each step as it is taken would have.

Weight selection (``F.analysis``, see :func:`~mhspectral.analyze_homogeneity`):
for rho(A) < 1 any contraction weights work and the iterates converge at the
linear rate rho(A); for rho(A) = 1 the left Perron vector of A is required,
and plain steps converge only where the Jacobian pattern at the eigenvector
is primitive.  So there, from the first step whose log bracket gap equals the
last one's to 1e-12 relative, every step rescales the lazy step
G(x) = (F(x) o x)^{1/2} = sqrt(F(x)) sqrt(x) instead, and a message names
that step.  G is order-preserving with A_G = (A + I) / 2 (A^T b <= b gives
A_G^T b <= b), its bracket is the square root of F's, G(u) = mu u iff
F(u) = mu^2 u, and its pattern, F's plus the diagonal, is primitive where F's
is irreducible; the bracket, the stop and residual tests and lambda stay F's
own.  The strict regime keeps plain steps: G would contract only at
(C + 1) / 2.  For rho(A) > 1 no guarantee from the underlying theory applies
and auto-solving refuses.  (The cited convergence-rate statement is phrased
with "A b < b" where the bracket statements use "A^T b <= b"; the solver
follows the transpose form throughout.)

The convergence theorem makes F a C-contraction in the weighted Hilbert
metric mu_b, with C = max_i (A^T b)_i / b_i, whenever C < 1.  The log bracket
gap of one step, log(upper_k / lower_k), is mu_b(x^k, x^{k+1}), so a
converged solve with C < 1 checks the contraction gap_{k+1} <= C gap_k from
its bracket trace alone and bounds mu_b(x, u*) <= gap_K / (1 - C) at the
returned x (Banach).

Also here: the raw Collatz-Wielandt bound functions, an orbit-growth estimate
of the Bonsall radius, a warm-started delta-continuation toward maximal
eigenpairs, and the uniqueness / maximality certificates.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Optional

import numpy as np

from . import _digraph
from .cones import (
    NormSpec,
    ProductVector,
    ShapeSpec,
    _norm_kernel,
    _selector_norm,
    _weighted_product,
    _wrap,
    as_weight_vector,
    normalize,
    ones_vector,
)
from .homogeneity import (
    _PATTERN_TOL,
    PerronStructureError,
    _cw_enclosure,
    spectral_radius,
    wielandt_bound,
)
from .maps import EigenPair, MapInstance, _kernel, evaluate, has_kink, jacobian_at, shifted
from .metrics import _log_bracket, _log_ratio_extrema, _weighted_sum

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
    "MAX_ITER",
    "DIVERGED",
]

CONVERGED = "converged"
MAX_ITER = "max_iter"
DIVERGED = "diverged"

# slack of the contraction check gap_{k+1} <= C gap_k on the bracket trace:
# the log of a ratio of two rounded bracket ends is off by a few ulps
_CONTRACTION_SLACK = 1e-12

# the most shifts a delta schedule may ask for; the default one has 27
_MAX_SHIFTS = 10_000

# the smallest normal double, below which a lazy iterate has left the open cone
_TINY = float(np.finfo(float).tiny)

# types of a real and an integral setting (bool is refused apart); faster to test than numbers' ABCs
_INTEGRAL = (int, np.integer)
_REAL = (float, np.floating) + _INTEGRAL


class ExpansiveMapError(ValueError):
    """Auto-solving refused: rho(A) > 1 lies outside the contractive theory."""


@dataclasses.dataclass(frozen=True)
class DeltaSchedule:
    """Geometric shift schedule delta0, delta0*factor, ... down to floor.

    Checked when made (ValueError): finite delta0 >= floor > 0, factor in
    (0, 1), at most 10 000 shifts.
    """

    delta0: float = 1.0
    factor: float = 0.5
    floor: float = 1e-8

    def __post_init__(self):
        if not (math.inf > self.delta0 > 0.0 and self.floor > 0.0 and 0.0 < self.factor < 1.0):
            raise ValueError("need finite delta0, floor > 0 and factor in (0, 1)")
        if self.floor > self.delta0:
            raise ValueError("floor exceeds delta0")
        count = (math.log(self.floor) - math.log(self.delta0)) / math.log(self.factor) + 1.0
        if count > _MAX_SHIFTS:
            raise ValueError(f"the schedule asks for about {count:.3g} shifts, more than {_MAX_SHIFTS}")

    def values(self) -> list[float]:
        out, delta = [], self.delta0
        while delta >= self.floor * (1.0 - 1e-12):
            out.append(delta)
            delta *= self.factor
        return out


@dataclasses.dataclass(frozen=True)
class SolverConfig:
    """Settings of a solve, checked when made (ValueError): a finite tol > 0,
    an integer max_iter >= 1 (not a bool), and None (weights from A) or
    finite positive weights, one per block of norms, kept as a read-only float
    array of the config's own, so later writes to the caller's array do not
    reach it."""

    norms: NormSpec
    tol: float = 1e-10
    max_iter: int = 10_000
    weights: Optional[np.ndarray] = None
    delta_schedule: DeltaSchedule = DeltaSchedule()  # immutable, so one instance serves every config

    def __post_init__(self):
        if type(self.tol) is bool or not isinstance(self.tol, _REAL) or not 0.0 < self.tol < math.inf:
            raise ValueError(f"tol must be a finite number > 0, got {self.tol!r}")
        if type(self.max_iter) is bool or not isinstance(self.max_iter, _INTEGRAL) or self.max_iter < 1:
            raise ValueError(f"max_iter must be an integer >= 1, got {self.max_iter!r}")
        if self.weights is not None:
            w = as_weight_vector(self.weights, self.norms.d)
            if w.flags.writeable or w.base is not None:  # not yet a config's own frozen array
                w = w.copy()
                w.setflags(write=False)
            object.__setattr__(self, "weights", w)


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
    envelope_ok: Optional[bool] = None
    error_radius: Optional[float] = None
    messages: list = dataclasses.field(default_factory=list)
    delta_trace: Optional[list] = None
    r_extrapolated: Optional[float] = None


def _resolve_weights(F: MapInstance, weights, messages: list) -> np.ndarray:
    """Explicit (checked) weights pass through, warning if A^T b <= b fails; else F.analysis decides."""
    if weights is not None:
        if np.any(F.A.T @ weights - weights > 1e-12):
            messages.append(
                "warning: supplied weights violate A^T b <= b; bracket "
                "monotonicity is not guaranteed"
            )
        return weights
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


def _relative_residual_inf(yf: np.ndarray, lam: np.ndarray | float, xf: np.ndarray, shape: ShapeSpec) -> float:
    """max_i ||y_i - lam_i x_i||_inf / ||lam_i x_i||_inf, inf when some lam_i x_i is 0.

    y and x are the buffers of two vectors of shape.  One block may pass its
    lam as a float.
    """
    lx = shape._spread(lam) * xf
    starts = shape._starts
    scale = np.maximum.reduceat(np.abs(lx), starts)
    if (scale == 0.0).any():
        return math.inf
    # fmax skips a NaN block, as the max over blocks did
    per_block = np.maximum.reduceat(np.abs(yf - lx), starts) / scale
    return float(np.fmax.reduce(per_block, initial=0.0))


# an overflow makes the defect infinite or NaN, which the caller sees: no warning
@np.errstate(over="ignore", invalid="ignore")
def residual(F: MapInstance, x: ProductVector, lam, norms: NormSpec) -> float:
    """Eigen-equation defect max_i ||F_i(x) - lam_i x_i|| / max(lam_i, 1e-15).

    ``lam`` holds one eigenvalue per block of x.
    """
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    if lam.shape != (x.shape.d,):
        raise ValueError(f"lam must hold one entry per block ({x.shape.d}), got shape {lam.shape}")
    y = evaluate(F, x)
    norms_vec = _norm_kernel(x.shape, norms)(y.flat - x.shape._spread(lam) * x.flat)
    return float(np.max(norms_vec / np.maximum(lam, 1e-15)))


def _exp(v: float) -> float:
    """math.exp, but +inf where the result lies beyond the double range."""
    try:
        return math.exp(v)
    except OverflowError:
        return math.inf


def cw_bounds(F: MapInstance, x: ProductVector, b) -> tuple[float, float]:
    """Collatz-Wielandt bracket (lower, upper) of r_b at the test vector x.

    At a strictly positive x this is the power step's bracket, bit for bit:
    ``power_method`` appends ``cw_bounds(F, x_k, b)`` to its trace at every
    iterate x_k.  The lower bound restricts the per-block minima to the
    support of x and is finite on all of K_{+,0}; the upper bound needs x
    strictly positive and is reported as +inf otherwise.  A bound beyond the
    double range is +inf, and a zero block of F(x) makes it 0.
    """
    w = as_weight_vector(b, F.shape.d)
    if not x.is_semipos():
        raise ValueError("x must have a nonzero block-wise nonnegative part")
    y = evaluate(F, x)
    with np.errstate(divide="ignore"):
        if x.is_pos():
            log_lo, log_hi = _log_bracket(y.flat, x.flat, x.shape, w)
            return _exp(log_lo), _exp(log_hi)
        # off the support of x the ratio is +inf, which no block minimum takes
        off = x.flat == 0.0
        lo, _ = _log_ratio_extrema(np.where(off, math.inf, y.flat), np.where(off, 1.0, x.flat), x.shape)
    return _exp(_weighted_sum(w, lo)), math.inf


def power_method(F: MapInstance, x0: Optional[ProductVector], cfg: SolverConfig) -> SolveReport:
    """Run the normalized iteration from x0 (all-ones start when None).

    Returns the eigenpair with lambda_i = ||F_i(x)|| at the normalized fixed
    point and the full bracket trace.  A converged solve whose weights give
    C = max_i (A^T b)_i / b_i < 1 also reads its log bracket gaps
    gap_k = mu_b(x^k, x^{k+1}) off the trace: ``envelope_ok`` tells whether
    every step contracted, gap_{k+1} <= C gap_k (up to 1e-12), and
    ``error_radius`` = gap_K / (1 - C) bounds mu_b(x, u*) from the returned x
    to the fixed point.  Otherwise both are None.

    The start vector is checked once, by ``_checked_start``, and the first
    step evaluates F there through ``evaluate``.  Every later iterate is the
    loop's own rescaled F(x), a buffer checked strictly positive, so the
    loop applies F's flat kernel to it without ``evaluate``'s shape and
    domain checks; a user's evaluator still has its output checked.  The
    eigenvector wraps the buffer the evaluator last saw.

    The checks of the steps run per block of steps (see ``_power_steps``):
    the report, ``iterations`` (the steps to the stop) included, is the one
    a loop checking every step as it is taken makes, bit for bit, but F may
    be evaluated up to B - 1 times past the stopping step, for blocks of at
    most B = 64 steps.  F is never evaluated at the iterate after a failed
    step.
    """
    return _power_steps(F, x0, cfg, *_solve_setup(F, cfg))


def _solve_setup(F: MapInstance, cfg: SolverConfig) -> tuple[np.ndarray, Callable, list]:
    """The weights, block-norm kernel and opening messages of a solve of F under cfg."""
    norm_of = _norm_kernel(F.shape, cfg.norms)  # checks the norms against F's shape first
    messages: list[str] = []
    return _resolve_weights(F, cfg.weights, messages), norm_of, messages


def _checked_start(x: ProductVector, shape: ShapeSpec, norms: NormSpec) -> ProductVector:
    """x normalized under norms, checked as the start of a solve on shape (ValueError):
    the map's block sizes, finite entries, strictly positive once normalized."""
    if x.shape is not shape and x.shape != shape:
        raise ValueError(f"starting vector has block sizes {x.shape.sizes}, the map {shape.sizes}")
    if not np.isfinite(x.flat).all():
        raise ValueError("starting vector entries must be finite")
    x = normalize(x, norms)
    if not x.is_pos():
        raise ValueError("starting vector must be strictly positive")
    return x


# a block runs at most this many steps before it checks them, and holds at
# most this many floats (4 KB) in each of its stacked buffers, so they stay in
# the first-level cache.  A map of more than about 100 entries takes no
# blocks: its steps' numpy work outweighs the Python work a block saves, and
# a block's buffers would only evict the caller's data
_BLOCK_STEPS = 64
_BLOCK_FLOATS = 1 << 9
# the fewest steps a block runs before its open step: one stacked log bracket
# of fewer rows costs about as much as their one-row brackets
_MIN_RUN = 4
# the most entries of a buffer whose smallest entry a run reads off its list
_SHORT = 16


# an overflow in F(x) or in a block norm ends the solve as diverged, with a
# message, so numpy need not warn of it
@np.errstate(over="ignore")
def _power_steps(F: MapInstance, x0, cfg: SolverConfig, b: np.ndarray, norm_of, messages: list) -> SolveReport:
    """The loop of ``power_method``, after its weights and norm kernel.

    ``b`` is the resolved weight vector, ``norm_of`` the block-norm kernel
    of ``cfg.norms`` on F's shape, and ``messages`` the messages so far.
    The iterates are flat buffers; a vector is built for the eigenvector
    only.

    The steps run in blocks.  A block of B steps first runs them back to
    back (the run), each only evaluating F, taking the block norms and
    rescaling.  A step whose block norms have no finite scale, or whose next
    iterate is not strictly positive (lazy: not a normal double), ends the
    run, so F is never applied to the iterate after a failed step.  Then
    (the check) one log bracket of the stacked (B - 1, N) buffers of the
    steps before the run's last gives their brackets, and one pass over them in
    order appends each to the trace until one stalls or closes (its gap
    below ``tol``).  That step, or else the run's last, is the open step:
    it is made in full, with every test of a step-by-step loop in that
    loop's order, on its own one-row buffers, and the run's later steps are
    dropped.  A one-step block is the open step alone, at the cost of a
    step-by-step loop's step.

    The first 20 steps are one-step blocks.  Then a block has the steps
    predicted to bring the gap below ``tol`` at the ratio of the last two
    gaps, at most a quarter of the steps so far (so an early misprediction
    wastes little), ``_BLOCK_STEPS`` and ``_BLOCK_FLOATS / N``, and it runs
    only with more than ``_MIN_RUN`` steps.  So the report, ``iterations``
    (the steps to the stop) included, is the one the step-by-step loop
    makes, and F is evaluated at most B - 1 times past the stopping step.
    """
    shape, inf, tol, max_iter = F.shape, math.inf, cfg.tol, cfg.max_iter
    x = _checked_start(ones_vector(shape) if x0 is None else x0, shape, cfg.norms)
    xf, kernel = x.flat, _kernel(F)
    spread = shape._spread
    # one block takes its norm as a float, the kernel's one entry without
    # the length-1 array
    block_norm = _selector_norm(*cfg.norms.selectors[0]) if shape.d == 1 else None
    # the smallest entry of a buffer: a short one's is read off its list,
    # which costs less than a numpy reduction's call.  A NaN can hide from
    # the list's min, but not from the block norms or the bracket
    smallest = np.minimum.reduce if shape.total > _SHORT else lambda v: min(v.tolist())

    def run(xf, size, lazy):
        """The run of a block of ``size`` steps from xf: (xs, ys, yf, error).

        xs[k] is the iterate of step k, ys[k] its image and xs[k + 1] the
        next iterate.  A step whose block norms have no finite scale, or
        whose next iterate is not in the open cone (a test that also rules
        out zeros and NaN in y), is the open one, and so is the last: the run
        stops there, and yf is its image.  An evaluation that raises ends the
        run as ``error``, with yf None.
        """
        xs, ys, last = [xf], [], size - 1
        for i in range(size):
            try:
                yf = kernel(xf)
            except ValueError as exc:
                return xs, ys, None, exc
            # the square roots of a lazy step need y > 0 first
            if i == last or lazy and not smallest(yf) > 0.0:
                break
            zf = np.sqrt(yf) * np.sqrt(xf) if lazy else yf
            if block_norm is not None:
                lam = block_norm(zf)
                if not (0.0 < lam < inf and 1.0 / lam < inf):
                    break
                xf = (1.0 / lam) * zf
            else:
                # a NaN norm, which a Python min or max can pass over, makes
                # the sum NaN
                lam = norm_of(zf)
                lam_list = lam.tolist()
                lam_min = min(lam_list)
                if not (lam_min > 0.0 and 1.0 / lam_min < inf and sum(lam_list) < inf):
                    break
                xf = spread(1.0 / lam) * zf
            if not (smallest(xf) >= _TINY if lazy else smallest(xf) > 0.0):
                break
            ys.append(yf)
            xs.append(xf)
        return xs, ys, yf, None

    analysis = F.analysis
    rate_bound = analysis.rho if analysis.regime == "strict_contraction" else None
    # at rho(A) = 1 a stalled log bracket gap makes every later step lazy
    watch, lazy, last_gap, prev_gap = analysis.regime == "non_expansive", False, inf, inf
    trace: list[tuple[float, float]] = []
    status, eigenpair, res_val = None, None, None
    iterations = 0

    while iterations < max_iter:
        # the block: one step, or the steps that would bring the gap below
        # tol at the ratio of the last two gaps, at most a quarter of the
        # steps so far.  A gap already below tol (its residual test failed)
        # may close at the next step: one step
        size, yf = iterations >> 2, None
        if last_gap < tol:
            size = 1
        elif size > _MIN_RUN:
            size = min(size, _BLOCK_STEPS, _BLOCK_FLOATS // shape.total, max_iter - iterations)
            if last_gap < prev_gap < inf:
                rate = math.log(last_gap) - math.log(prev_gap)
                if rate < 0.0:
                    size = min(size, math.ceil((math.log(tol) - math.log(last_gap)) / rate))
        if size > _MIN_RUN:
            xs, ys, yf, error = run(xf, size, lazy)
            # check: one log bracket of the steps before the open one, read
            # row by row.  Each passed all but the stall and closure tests in
            # the run; the first that stalls or closes is made in full below
            # instead of the open one, and the run's later steps are dropped
            bounds = ()
            if ys:
                los, his = _log_bracket(np.array(ys), np.array(xs[:-1]), shape, b)
                bounds = zip(los.tolist(), his.tolist())
            k = 0
            for log_lo, log_hi in bounds:
                gap = log_hi - log_lo
                if gap < tol or watch and abs(gap - last_gap) <= 1e-12 * gap:
                    yf, error = ys[k], None
                    break
                trace.append((_exp(log_lo), _exp(log_hi)))
                prev_gap, last_gap = last_gap, gap
                k += 1
            iterations += k
            xf = xs[k]
            if error is not None:
                status = DIVERGED
                messages.append(f"evaluation failed: {error}")
                break

        # the open step, made in full
        if yf is None:
            # the first step applies F through the public evaluate, so a
            # wrapper of evaluate (a profiler's, say) sees every solve; every
            # later iterate is the loop's own rescaled image, strictly
            # positive and of F's shape, so F's flat kernel applies to it
            # with no input check
            try:
                yf = kernel(xf) if iterations else evaluate(F, x).flat
            except ValueError as exc:
                status = DIVERGED
                messages.append(f"evaluation failed: {exc}")
                break
        iterations += 1
        # y in the open cone: one min pass rules out zeros, and NaN here or
        # in the bracket's upper end; the diagnostics run only on failure
        # and keep their order (NaN first)
        y_min = smallest(yf)
        if not y_min > 0.0:
            status = DIVERGED
            messages.append("iterate left the open cone" if np.isfinite(yf).all() else "non-finite iterate")
            break
        log_lo, log_hi = _log_bracket(yf, xf, shape, b)
        # x is finite and positive, so log_hi is finite whenever y is, and an
        # infinite entry of y makes it infinite or NaN
        if not log_hi < inf and not np.isfinite(yf).all():
            status = DIVERGED
            messages.append("non-finite iterate")
            break
        trace.append((_exp(log_lo), _exp(log_hi)))
        gap = log_hi - log_lo
        if watch and abs(gap - last_gap) <= 1e-12 * gap:
            watch, lazy = False, True
            messages.append(f"bracket gap stalled: lazy steps (F(x) x)^(1/2) from step {iterations}")
        prev_gap, last_gap = last_gap, gap
        # the step rescales F(x), or G(x) once lazy: two square roots, as the
        # product can underflow where they do not
        zf = np.sqrt(yf) * np.sqrt(xf) if lazy else yf
        # lam holds one norm per block of z (F's own unless lazy), a float for one block
        if block_norm is not None:
            lam = lam_min = lam_max = block_norm(zf)
        else:
            lam = norm_of(zf)
            lam_list = lam.tolist()
            lam_min, lam_max = min(lam_list), max(lam_list)
        # a block norm can overflow though every entry is finite, or underflow
        # to 0, or so near 0 that its reciprocal overflows, though every entry
        # is positive; that block has no finite scale, so the solve stops
        # here, before the convergence test reads lam or a division by it
        if not (lam_min > 0.0 and 1.0 / lam_min < inf and lam_max < inf):
            status = DIVERGED
            messages.append("iterate left the open cone" if lam_max < inf else "block norm overflowed")
            break
        if gap < tol:
            lam_F = norm_of(yf) if lazy else lam
            res = _relative_residual_inf(yf, lam_F, xf, shape)
            if res < 10.0 * tol:
                lam_F = np.atleast_1d(lam_F)
                eigenpair = EigenPair(_wrap(xf, shape), lam_F, _weighted_product(lam_F, b))
                status, res_val = CONVERGED, res
                break
        # one block scales by one float: spread passes it through
        xf = spread(1.0 / lam) * zf
        # a rescaled entry of F(x) can underflow to 0 only if the smallest
        # entry times the smallest factor 1 / max(lam) does; then the iterate
        # is checked in full.  A lazy iterate is checked always, against the
        # smallest normal double: its square roots never reach 0, but an
        # entry drifting to 0 parks at the smallest subnormal
        if lazy:
            left = not smallest(xf) >= _TINY
        else:
            left = not y_min * (1.0 / lam_max) > 0.0 and not smallest(xf) > 0.0
        if left:
            status = DIVERGED
            messages.append("iterate left the open cone")
            break

    if status is None:
        status = MAX_ITER
        u = _wrap(xf, shape)
        y = evaluate(F, u)
        lam = norm_of(y.flat)
        eigenpair = EigenPair(u, lam, _weighted_product(lam, b))
        res_val = _relative_residual_inf(y.flat, lam, u.flat, shape)
        messages.append("bracket did not close within max_iter")

    report = SolveReport(
        eigenpair=eigenpair,
        status=status,
        iterations=iterations,
        bracket_trace=trace,
        weights=b,
        residual=res_val,
        rate_bound=rate_bound,
        messages=messages,
    )
    if status == CONVERGED:
        C = float(np.max(F.A.T @ b / b))
        if C < 1.0:
            # a bracket end beyond the double range leaves its gap unknown: +inf
            gaps = [math.log(hi / lo) if lo > 0.0 and hi < inf else inf for lo, hi in trace]
            report.envelope_ok = all(
                g1 <= C * g0 + _CONTRACTION_SLACK for g0, g1 in zip(gaps, gaps[1:])
            )
            report.error_radius = gaps[-1] / (1.0 - C)
    return report


def bonsall_estimate(F: MapInstance, x: ProductVector, b, m: int, norms: NormSpec) -> float:
    """Orbit-growth estimate |||F^m(x)|||_b^{1/m} via renormalized iterates.

    Growth factors are accumulated in log space while the iterate itself stays
    on S_+; the telescoped product equals |||F^m(x)|||_b exactly when
    A^T b = b, and in general converges to the weighted eigenvalue product of
    the limiting eigenpair whenever the normalized iteration converges.
    Every step evaluates F through ``evaluate``, which checks the iterate
    against F's domain.
    """
    if m < 1:
        raise ValueError("need at least one iteration")
    w = as_weight_vector(b, F.shape.d)
    if not x.is_pos():
        raise ValueError("x must be strictly positive")
    shape = F.shape
    norm_of = _norm_kernel(shape, norms)
    acc = 0.0
    for _ in range(m):
        yf = evaluate(F, x).flat
        if not np.all(np.isfinite(yf)):
            raise ValueError("overflow despite renormalization")
        # one set of block norms gives the growth factor and the rescale
        ns = norm_of(yf)
        growth = _weighted_product(ns, w)
        if growth <= 0.0:
            raise ValueError("orbit hit the cone boundary")
        acc += math.log(growth)
        x = _wrap(shape._spread(1.0 / ns) * yf, shape)
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


def _geometric_guess(x: ProductVector, x_prev: Optional[ProductVector]) -> ProductVector:
    """Warm start x * (x / x_prev), entrywise, for the next shift of a schedule.

    A log-linear extrapolation of the eigenvector along the geometric
    schedule: exact for entries that scale like a power of delta.  Without a
    previous vector, or where an entry of the guess is 0, inf or NaN, the
    start is x itself; bit-identical x and x_prev give back x bit for bit.
    """
    if x_prev is None:
        return x
    with np.errstate(all="ignore"):  # a guess out of range falls back below
        guess = x.flat * (x.flat / x_prev.flat)
    if not (np.minimum.reduce(guess) > 0.0 and np.maximum.reduce(guess) < math.inf):
        return x
    return _wrap(guess, x.shape)


def delta_continuation(F: MapInstance, cfg: SolverConfig) -> SolveReport:
    """Solve the shifted maps F^{(delta)} down a geometric schedule.

    Each shifted map has a strictly positive eigenpair; the weighted
    eigenvalue products decrease strictly with delta, and the sequence
    approaches a maximal eigenpair of F itself.  The first shift starts from
    all-ones (``cfg`` has no start vector, so a caller's x0 is not used); the
    second from the first eigenvector; every later one from the geometric
    guess x_k * (x_k / x_{k-1}) of the last two eigenvectors (see
    ``_geometric_guess``).  Inner tolerances tighten proportionally to delta
    (floored at 1e-13, below which doubles cannot resolve the log bracket
    gap).

    Budget stop: with n_{k-1}, n_k the inner iteration counts of the last two
    shifts, the next shift is predicted to take n_k^2 / n_{k-1}.  A shift
    whose prediction exceeds max_iter / 2 is not started; the solve ends
    ``converged`` at the last pair, with a message naming the delta not tried
    and its predicted count.  Counts that stay flat below max_iter / 2 never
    trigger it.

    An inner solve that still fails returns the last converged pair, its
    residual and bracket trace, and the extrapolation of the converged
    prefix, under the inner status and a "partial results" message; when the
    first shift fails, its own pair (if any), residual and trace, with no
    extrapolation.

    Reports the last eigenpair, the (delta, r_b) trace, and an Aitken
    extrapolation of the r_b sequence.
    """
    # every shifted map has F's A and shape: each inner solve would resolve
    # the same weights, with the same warning, and build the same norm kernel
    b, norm_of, messages = _solve_setup(F, cfg)
    floor = cfg.delta_schedule.floor
    delta_trace: list[tuple[float, float]] = []
    counts: list[int] = []  # inner iterations of the converged shifts
    total_iters = 0
    # the reports of the last converged shift and the eigenvector before it
    status, last, x_prev = CONVERGED, None, None

    for delta in cfg.delta_schedule.values():
        if len(counts) >= 2:
            predicted = counts[-1] ** 2 / counts[-2]
            if predicted > cfg.max_iter / 2:
                messages.append(
                    f"stopped before delta={delta:g}: its inner solve was predicted "
                    f"to take {predicted:.0f} iterations, more than max_iter/2 "
                    f"= {cfg.max_iter / 2:g}"
                )
                break
        x0 = ones_vector(F.shape) if last is None else _geometric_guess(last.eigenpair.x, x_prev)
        Fd = shifted(F, delta, cfg.norms)
        inner_tol = min(1e-3, max(cfg.tol, cfg.tol * delta / floor, 1e-13))
        inner = dataclasses.replace(cfg, tol=inner_tol)
        # messages holds only the setup's messages until the loop breaks
        rep = _power_steps(Fd, x0, inner, b, norm_of, list(messages))
        total_iters += rep.iterations
        if rep.status != CONVERGED:
            own = rep.messages[len(messages):]  # the inner report's, after the setup's
            messages.append(
                f"inner solve failed to close its bracket at delta={delta:g} "
                f"(status {rep.status}); returning partial results"
            )
            status = rep.status
            messages += own
            # a failed first shift leaves its own pair, trace and residual
            if last is None:
                last = rep
            break
        delta_trace.append((delta, rep.eigenpair.r_b))
        counts.append(rep.iterations)
        x_prev = None if last is None else last.eigenpair.x
        last = rep

    r_values = [r for _, r in delta_trace]
    if any(r_values[i] <= r_values[i + 1] for i in range(len(r_values) - 1)):
        messages.append(
            "warning: r_b(F^(delta)) failed to decrease strictly along the "
            "descending schedule"
        )
    return SolveReport(
        eigenpair=last.eigenpair,
        status=status,
        iterations=total_iters,
        bracket_trace=last.bracket_trace,
        weights=b,
        residual=last.residual,
        messages=messages,
        delta_trace=delta_trace,
        r_extrapolated=_aitken(r_values) if r_values else None,
    )


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------


def _dirr_pattern(L, shape: ShapeSpec) -> np.ndarray:
    L = np.asarray(L, dtype=float)
    if L.shape != (shape.total, shape.total):
        raise ValueError("L does not match the shape's total dimension")
    return L > _PATTERN_TOL


def check_dirr(L, i: int, tau: int, shape: ShapeSpec) -> bool:
    """Summed-powers positivity: block i of sum_{k<=tau} L^k w > 0 for all w >= 0.

    Exact at pattern level: with P the boolean pattern of L (its entries
    above 1e-12), the condition holds iff rows of block i in P or P^2 or ...
    or P^tau are all ones, i.e. every node of block i reaches every node by a
    walk of length 1..tau.
    Decided by a layered search over walk lengths that stops once the reach
    sets stop growing: at most min(tau, n + 1) layers of O(nnz) set unions.
    """
    L = np.asarray(L, dtype=float)
    if tau < 1:
        raise ValueError("tau must be >= 1")
    if not (0 <= i < shape.d):
        raise ValueError(f"block index {i} out of range")
    P = _dirr_pattern(L, shape)
    # the summed powers only grow with tau, so block i is full at tau iff it
    # is full at some tau' <= tau
    return _digraph.first_full_block(P, [shape.block_slices()[i]], tau) is not None


def find_dirr(L, shape: ShapeSpec):
    """Smallest tau, then lowest block, satisfying check_dirr, as (block, tau).

    Returns None when no block qualifies within the Wielandt bound.  One
    layered search serves every tau and every block (see check_dirr).
    """
    P = _dirr_pattern(L, shape)
    return _digraph.first_full_block(P, shape.block_slices(), wielandt_bound(shape.total))


# |rho(L) - 1| up to this counts as rho(L) = 1 in the certificates
_RHO_L_TOL = 1e-6


def _rho_L(F: MapInstance, u: ProductVector, L_pos: np.ndarray) -> tuple[float, bool]:
    """rho(L_pos), from one Collatz-Wielandt matvec whenever that decides rho = 1.

    Euler's identity blockwise, sum_{r in block j} dF_k/dx_r x_r = A_ij F_k(x)
    for k in block i, gives L (c (x) u) = (A c) (x) u at the eigenpair, where
    c (x) u scales block j of u by c_j.  With c the right Perron vector of A,
    v = c (x) u is a positive vector with L v = rho(A) v up to the eigen
    residual, and for any nonnegative matrix and positive v

        min_k (L_pos v)_k / v_k  <=  rho(L_pos)  <=  max_k (L_pos v)_k / v_k.

    When the whole enclosure lies within the rho = 1 band its midpoint is
    returned, with True: v is a positive witness of L_pos v = v.  Otherwise --
    no positive right Perron vector of A, an enclosure straddling a band edge
    or one outside the band -- the answer is ``spectral_radius(L_pos)``, as if
    the enclosure had not been tried, with False.
    """
    c = F.analysis.right_perron
    if c is None:
        return spectral_radius(L_pos), False
    lo, hi = _cw_enclosure(L_pos, F.shape._spread(c) * u.flat)
    if 1.0 - _RHO_L_TOL <= lo and hi <= 1.0 + _RHO_L_TOL:
        return 0.5 * (lo + hi), True
    return spectral_radius(L_pos), False


def certify_uniqueness(F: MapInstance, report: SolveReport) -> Certificate:
    """Strongest certificate backing uniqueness (or maximality) of the eigenpair.

    Order of preference: strict contraction (rho(A) < 1, no further checks);
    then, in the non-expansive regime with L = lambda^{-1}-scaled Jacobian at
    the eigenvector and rho(L) = 1 up to 1e-6: irreducible pattern of L;
    one-dimensional kernel of I - L (requires A itself irreducible); summed
    powers positivity (maximality only).  Non-differentiable maps at kink
    points yield ``none`` with a reason, and so does an eigenpair at which
    the kink test or the Jacobian cannot be formed, or L is not finite.

    rho(L) comes from the Collatz-Wielandt enclosure of one matvec with the
    test vector c (x) u, c the right Perron vector of A: an enclosure inside
    [1 - 1e-6, 1 + 1e-6] reports its midpoint, and every other case falls
    back to ``spectral_radius`` of the clipped L (see ``_rho_L``).  The
    patterns tested are those of the clipped L, free of the scale of F: its
    entries above 1e-12.  One pass over the strong components of that pattern
    answers both of its questions: L is irreducible when it has one
    component, and the kernel test counts its final classes.

    The kernel test is a graph count and needs the enclosure's positive
    witness v, L v = v: then diag(v)^{-1} L diag(v) is row-stochastic, and the
    eigenvalue 1 of a stochastic matrix is semisimple with multiplicity the
    number of final classes of its digraph (Berman & Plemmons 1994, ch. 2, 8).
    So dim ker(I - L) = 1 iff the pattern of L has one final class, counted in
    O(nnz).  Without the witness (rho(L) from ``spectral_radius``) the kernel
    test does not certify, and the search goes on to summed powers.
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
    # a kink test or Jacobian that cannot be formed, or an L beyond the
    # double range, ends the search with a reason, and an enclosure end beyond
    # it fails its band test, so numpy need not warn of either
    with np.errstate(all="ignore"):
        try:
            if not F.differentiable and has_kink(F, u):
                return Certificate("none", {"reason": "map is not differentiable at the eigenvector (kink)"})
            J = jacobian_at(F, u)
        except ValueError as exc:
            return Certificate("none", {"rho_A": rho_A, "reason": f"no Jacobian at the eigenvector: {exc}"})
        L_pos = np.clip(J / F.shape._spread(lam)[:, None], 0.0, None)
        # an L with an infinite or NaN entry falls back to ``spectral_radius``, which refuses it
        try:
            rho_L, witnessed = _rho_L(F, u, L_pos)
        except ValueError as exc:
            return Certificate("none", {"rho_A": rho_A, "reason": f"no rho(lambda^{{-1}} DF(u)): {exc}"})
    data = {"rho_A": rho_A, "rho_L": rho_L}
    if abs(rho_L - 1.0) > _RHO_L_TOL:
        data["reason"] = "rho(lambda^{-1} DF(u)) is not 1"
        return Certificate("none", data)
    components, final_classes = _digraph.class_counts(L_pos > _PATTERN_TOL)
    if components == 1:
        data["df_irreducible"] = True
        return Certificate("jacobian_irreducible", data)
    data["df_irreducible"] = False
    if F.analysis.irreducible:
        if witnessed:
            data["final_classes"] = final_classes
            if final_classes == 1:
                return Certificate("kernel_dim_one", data)
        else:
            data["kernel_test"] = "no positive witness of L v = v"
    hit = find_dirr(L_pos, F.shape)
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
