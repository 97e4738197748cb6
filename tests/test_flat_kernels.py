"""The flat-buffer blockwise kernels against the per-block loops they replace.

The reference routines below are the library's former implementations, one
Python loop over the blocks each.  The kernels now run on ``ProductVector.flat``
with ``np.repeat`` / ``ufunc.reduceat`` and a left-to-right weighted sum, and
every output must equal the loop's to the last bit, signed zeros included,
because reports print floats with 17 significant digits.  The same holds for
one step of the power iteration against its former form (checked evaluator
outputs, a checked ``matrix_power_scale`` per shifted evaluation, two weighted
sums and a checked rescale), and for the whole power loop, which checks its
steps in blocks, against the former loop that checked each step as it took
it: the same report, every ending included, and a user's evaluator never
called at the iterate after a failed step.
"""

import copy
import math
import pickle

import numpy as np
import pytest

from mhspectral import (
    DeltaSchedule,
    NormSpec,
    ProductVector,
    ShapeSpec,
    SolverConfig,
    block_norms,
    delta_continuation,
    hilbert_metric,
    linear_map,
    matrix_power_scale,
    motivating_map,
    normalize,
    power_method,
    pq_singular_map,
    ratio_extrema,
    residual,
    scale_blocks,
    shifted,
    singular_map,
    tensor_eigen_map,
    thompson_metric,
)
from mhspectral import cones, maps, metrics, solver
from mhspectral.maps import MapInstance, evaluate
from mhspectral.metrics import POSITIVITY_FLOOR


# ---------------------------------------------------------------------------
# reference loops
# ---------------------------------------------------------------------------


def _ref_block_norm(sel, v):
    kind, val = sel
    av = np.abs(v)
    if kind == "phi":
        return float(np.dot(av, val))
    if val == math.inf:
        return float(av.max())
    if val == 1.0:
        return float(av.sum())
    if val == 2.0:
        return float(np.sqrt(np.dot(v, v)))
    return float(np.sum(av**val) ** (1.0 / val))


def _ref_block_norms(blocks, norms):
    return np.array([_ref_block_norm(sel, blk) for sel, blk in zip(norms.selectors, blocks)])


def _ref_scale_blocks(a, blocks):
    return [a[i] * blk for i, blk in enumerate(blocks)]


def _ref_predicates(blocks):
    nonneg = all(b.min() >= 0.0 for b in blocks)
    return {
        "is_nonneg": nonneg,
        "is_semipos": nonneg and all(b.max() > 0.0 for b in blocks),
        "is_pos": all(b.min() > 0.0 for b in blocks),
        "approx_pos": all(b.min() > 1e-14 for b in blocks),
    }


def _ref_log_weighted_ratio_bounds(yblocks, xblocks, b):
    lo = hi = 0.0
    for bi, yb, xb in zip(b, yblocks, xblocks):
        with np.errstate(divide="ignore"):
            diff = np.log(yb) - np.log(xb)
        lo += bi * diff.min()
        hi += bi * diff.max()
    return lo, hi


def _ref_ratio_extrema(xblocks, yblocks):
    maxima, minima = [], []
    for xb, yb in zip(xblocks, yblocks):
        with np.errstate(divide="ignore"):
            diff = np.log(xb) - np.log(yb)
        maxima.append(np.exp(diff.max()))
        minima.append(np.exp(diff.min()))
    return np.array(maxima), np.array(minima)


def _ref_metric(xblocks, yblocks, w, thompson):
    total = 0.0
    for wi, xb, yb in zip(w, xblocks, yblocks):
        diff = np.log(xb) - np.log(yb)
        total += wi * (max(diff.max(), -diff.min()) if thompson else diff.max() - diff.min())
    return float(total)


def _ref_relative_residual_inf(yblocks, lam, xblocks):
    worst = 0.0
    for li, yb, xb in zip(lam, yblocks, xblocks):
        scale = float(np.max(np.abs(li * xb)))
        if scale == 0.0:
            return math.inf
        worst = max(worst, float(np.max(np.abs(yb - li * xb))) / scale)
    return worst


def _ref_residual(F, x, lam, norms, floor=1e-15):
    y = evaluate(F, x)
    defect = [yb - li * xb for li, yb, xb in zip(lam, y.blocks, x.blocks)]
    return float(np.max(_ref_block_norms(defect, norms) / np.maximum(lam, floor)))


def _ref_fd_jacobian(F, u, mode):
    def perturbed(i, j, h):
        blocks = [blk.copy() for blk in u.blocks]
        blocks[i][j] += h
        return ProductVector(blocks)

    total = u.shape.total
    f0 = evaluate(F, u).concat() if mode != "central" else None
    J = np.empty((total, total))
    col = 0
    for i, blk in enumerate(u.blocks):
        for j in range(blk.size):
            h = maps._FD_STEP * max(1.0, abs(blk[j]))
            h = min(h, 0.5 * blk[j]) if mode != "forward" else h
            if mode == "central":
                fp = evaluate(F, perturbed(i, j, h)).concat()
                fm = evaluate(F, perturbed(i, j, -h)).concat()
                J[:, col] = (fp - fm) / (2.0 * h)
            elif mode == "forward":
                J[:, col] = (evaluate(F, perturbed(i, j, h)).concat() - f0) / h
            else:
                J[:, col] = (f0 - evaluate(F, perturbed(i, j, -h)).concat()) / h
            col += 1
    return J


# the former power-iteration step: constructor-built evaluator outputs, a
# checked matrix_power_scale per shifted evaluation, two weighted sums and a
# checked rescale


def _former_builtin_evaluator(kind, M, p=None, q=None):
    if kind == "linear":
        return lambda x: ProductVector([M @ x.blocks[0]])
    if kind == "singular":
        return lambda z: ProductVector([M @ z.blocks[1], M.T @ z.blocks[0]])
    if kind == "pq_singular":
        sp, sq = 1.0 / (p - 1.0), 1.0 / (q - 1.0)
        return lambda z: ProductVector([(M @ z.blocks[1]) ** sp, (M.T @ z.blocks[0]) ** sq])
    s = 1.0 / (p - 1.0)
    return lambda x: ProductVector([_former_tensor_contract(M, x.blocks[0]) ** s])


def _former_tensor_contract(T, v):
    """(T . v^{m-1})_j = sum_{j2..jm} T[j, j2, .., jm] v_{j2} ... v_{jm}."""
    out = T
    for _ in range(T.ndim - 1):
        out = np.tensordot(out, v, axes=([out.ndim - 1], [0]))
    return out


def _former_matrix_power_scale(alpha, B):
    B = np.asarray(B, dtype=float)
    a = np.atleast_1d(np.asarray(alpha, dtype=float))
    if np.any(a < 0.0):
        raise ValueError("scaling entries must be nonnegative")
    if np.all(a > 0.0):
        return np.exp(B @ np.log(a))
    zero = a == 0.0
    if np.any(B[:, zero] < 0.0):
        raise ValueError("zero base with negative exponent")
    log_a = np.where(zero, 0.0, np.log(np.where(zero, 1.0, a)))
    out = np.exp(B @ log_a)
    out[(B[:, zero] > 0.0).any(axis=1)] = 0.0
    return out


def _former_map(F, evaluator):
    """F's structure with the former evaluator."""
    return MapInstance(shape=F.shape, A=F.A, evaluator=evaluator, label="former", domain=F.domain)


def _former_shifted(F, delta, norms):
    def ev(x):
        y = F.evaluator(x)
        shift = delta * _former_matrix_power_scale(_ref_block_norms(x.blocks, norms), F.A)
        return ProductVector([yb + si for yb, si in zip(y.blocks, shift)])

    return _former_map(F, ev)


def _former_normalize(x, norms):
    return ProductVector(_ref_scale_blocks(1.0 / _ref_block_norms(x.blocks, norms), x.blocks))


def _former_step(F, x, b, norms):
    """(y, log_lo, log_hi, lam, next x) of one iteration as the loop used to do it."""
    y = evaluate(F, x)
    lo_i, hi_i = metrics._log_ratio_extrema(y.flat, x.flat, y.shape)
    log_lo, log_hi = metrics._weighted_sum(b, lo_i), metrics._weighted_sum(b, hi_i)
    lam = _ref_block_norms(y.blocks, norms)
    return y, log_lo, log_hi, lam, scale_blocks(1.0 / lam, y)


def _former_iterates(F, x0, b, norms, k):
    xs, trace = [_former_normalize(x0, norms)], []
    for _ in range(k):
        _, log_lo, log_hi, _, x = _former_step(F, xs[-1], b, norms)
        trace.append((math.exp(log_lo), math.exp(log_hi)))
        xs.append(x)
    return xs, trace


def _former_continuation(F, norms, b, schedule, tol, max_iter):
    """delta_continuation's path through the former step, plain steps only (no case stalls into lazy ones).

    Each shift after the second starts from the geometric guess
    x_k * (x_k / x_{k-1}), block by block, or from x_k where the guess has an
    entry that is 0, inf or NaN.
    """
    x, converged, delta_trace = ProductVector([np.ones(n) for n in F.shape.sizes]), [], []
    for delta in schedule.values():
        Fd = _former_shifted(F, delta, norms)
        inner_tol = min(1e-3, max(tol, tol * delta / schedule.floor, 1e-13))
        if len(converged) >= 2:
            guess = [xb * (xb / pb) for xb, pb in zip(converged[-1].blocks, converged[-2].blocks)]
            if all(np.all((g > 0.0) & np.isfinite(g)) for g in guess):
                x = ProductVector(guess)
        x, trace = _former_normalize(x, norms), []
        for _ in range(max_iter):
            y, log_lo, log_hi, lam, x_next = _former_step(Fd, x, b, norms)
            trace.append((math.exp(log_lo), math.exp(log_hi)))
            if log_hi - log_lo < inner_tol and solver._relative_residual_inf(y.flat, lam, x.flat, x.shape) < 10.0 * inner_tol:
                break
            x = x_next
        else:
            raise AssertionError("the reference inner solve did not converge")
        converged.append(x)
        delta_trace.append((delta, float(np.exp(np.dot(b, np.log(lam))))))
    return x, lam, trace, delta_trace


# ---------------------------------------------------------------------------
# seeded cases
# ---------------------------------------------------------------------------


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _random_shape(rng, d, uniform):
    if uniform:
        return ShapeSpec((int(rng.integers(1, 10)),) * d)
    return ShapeSpec(tuple(int(n) for n in rng.integers(1, 10, d)))


def _random_selectors(rng, shape):
    sels = []
    for n in shape.sizes:
        pick = int(rng.integers(0, 5))
        sels.append(rng.uniform(0.2, 3.0, n) if pick == 4 else [1.0, 2.0, 3.0, math.inf][pick])
    return sels


def _cases(seed=2018):
    """(shape, rng) over d = 1..12, ragged and uniform block sizes 1..9."""
    rng = np.random.default_rng(seed)
    for d in range(1, 13):
        for uniform in (True, False):
            for _ in range(4):
                yield _random_shape(rng, d, uniform), rng


def _vector(rng, shape, low=0.05, high=3.0):
    scale = 10.0 ** rng.uniform(-3, 3, shape.d)
    return ProductVector([rng.uniform(low, high, n) * s for n, s in zip(shape.sizes, scale)])


def _power_map(shape, a=0.5):
    """F_i(x) = (x_{i+1 mod d} reversed, cycled to length n_i) ** a; A = a * cyclic shift."""
    d = shape.d
    A = np.zeros((d, d))
    A[np.arange(d), (np.arange(d) + 1) % d] = a
    perm = [(i + 1) % d for i in range(d)]

    def ev(x):
        blocks = x.blocks
        return ProductVector([np.resize(blocks[perm[i]][::-1], n) ** a for i, n in enumerate(shape.sizes)])

    return MapInstance(shape=shape, A=A, evaluator=ev, label="test-power")


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------


class TestBlockwiseKernels:
    def test_block_norms(self):
        for shape, rng in _cases():
            x = ProductVector([rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3) for n in shape.sizes])
            for norms in (NormSpec.euclidean(shape.d), NormSpec(_random_selectors(rng, shape))):
                assert _same_bits(block_norms(x, norms), _ref_block_norms(x.blocks, norms))

    def test_scale_blocks_and_add(self):
        for shape, rng in _cases():
            x, y = _vector(rng, shape), _vector(rng, shape)
            a = rng.uniform(0.0, 3.0, shape.d)
            want = _ref_scale_blocks(a, x.blocks)
            assert _same_bits(scale_blocks(a, x).flat, np.concatenate(want))
            assert _same_bits((x + y).flat, np.concatenate([p + q for p, q in zip(x.blocks, y.blocks)]))

    def test_predicates(self):
        for shape, rng in _cases():
            blocks = [rng.uniform(-0.3, 1.0, n) for n in shape.sizes]
            for _ in range(int(rng.integers(0, 3))):
                i = int(rng.integers(0, shape.d))
                blocks[i][int(rng.integers(0, shape.sizes[i]))] = rng.choice([0.0, -0.0, 1e-20])
            if rng.random() < 0.3:
                i = int(rng.integers(0, shape.d))
                blocks[i] = np.zeros(shape.sizes[i])
            if rng.random() < 0.5:
                blocks = [np.abs(b) for b in blocks]
            x = ProductVector(blocks)
            got = {name: getattr(x, name)() for name in ("is_nonneg", "is_semipos", "is_pos", "approx_pos")}
            assert got == _ref_predicates(x.blocks)

    def test_log_ratio_bounds_and_ratio_extrema(self):
        for shape, rng in _cases():
            x, y = _vector(rng, shape), _vector(rng, shape)
            b = rng.uniform(0.01, 1.0, shape.d)
            lo_i, hi_i = metrics._log_ratio_extrema(y.flat, x.flat, y.shape)
            ref_lo, ref_hi = _ref_log_weighted_ratio_bounds(y.blocks, x.blocks, b)
            assert _same_bits(metrics._weighted_sum(b, lo_i), ref_lo)
            assert _same_bits(metrics._weighted_sum(b, hi_i), ref_hi)
            # a zero entry in x gives a -inf minimum
            xz = ProductVector([np.where(rng.random(n) < 0.2, 0.0, blk) for n, blk in zip(shape.sizes, x.blocks)])
            ext = ratio_extrema(xz, y)
            ref_max, ref_min = _ref_ratio_extrema(xz.blocks, y.blocks)
            assert _same_bits(ext.maxima, ref_max) and _same_bits(ext.minima, ref_min)

    def test_hilbert_and_thompson(self):
        for shape, rng in _cases():
            x, y = _vector(rng, shape), _vector(rng, shape)
            b = rng.uniform(0.01, 1.0, shape.d)
            for got, thompson in ((hilbert_metric(x, y, b), False), (thompson_metric(x, y, b), True)):
                want = _ref_metric(x.blocks, y.blocks, b, thompson)
                assert type(got) is float and _same_bits(got, want)
            assert _same_bits(thompson_metric(x, x, b), _ref_metric(x.blocks, x.blocks, b, True))
            assert _same_bits(hilbert_metric(x, x, b), 0.0)

    def test_weighted_sum_keeps_the_loops_zero_start(self):
        # the loop starts from 0.0, so an all -0.0 sum is 0.0, not -0.0
        out = metrics._weighted_sum(np.array([1.0, 2.0]), np.array([-0.0, -0.0]))
        assert _same_bits(out, 0.0)

    def test_relative_residual_and_residual(self):
        for shape, rng in _cases():
            F = _power_map(shape)
            x, y = _vector(rng, shape), _vector(rng, shape)
            lam = rng.uniform(0.1, 3.0, shape.d)
            assert _same_bits(
                solver._relative_residual_inf(y.flat, lam, x.flat, shape), _ref_relative_residual_inf(y.blocks, lam, x.blocks)
            )
            for norms in (NormSpec.euclidean(shape.d), NormSpec(_random_selectors(rng, shape))):
                assert _same_bits(residual(F, x, lam, norms), _ref_residual(F, x, lam, norms))
            zero = lam.copy()
            zero[int(rng.integers(0, shape.d))] = 0.0
            assert solver._relative_residual_inf(y.flat, zero, x.flat, shape) == math.inf

    def test_envelope_trace(self):
        # the log gap of bracket k is the Hilbert distance of x_k to x_{k+1}
        for F, G, norms, x0 in _step_cases():
            b = np.linspace(0.5, 1.0, F.shape.d)
            rep = power_method(F, x0, SolverConfig(norms=norms, tol=1e-300, max_iter=4, weights=b))
            xs, _ = _former_iterates(G, x0, b, norms, 4)
            for (lo, hi), x, y in zip(rep.bracket_trace, xs, xs[1:]):
                mu = hilbert_metric(x, y, b)
                assert abs(math.log(hi / lo) - mu) <= 1e-13 * max(1.0, mu)

    def test_envelope_trace_of_a_solve(self):
        F = motivating_map()
        norms = NormSpec.euclidean(2)
        # all-ones is the fixed point; this start takes 35 steps
        x0 = normalize(ProductVector([[1.0, 2.0], [3.0, 1.0]]), norms)
        rep = power_method(F, x0, SolverConfig(norms=norms))
        b = rep.weights
        C = float(np.max(F.A.T @ b / b))
        gaps = [math.log(hi / lo) for lo, hi in rep.bracket_trace]
        assert rep.envelope_ok and all(g1 <= C * g0 + 1e-12 for g0, g1 in zip(gaps, gaps[1:]))
        assert _same_bits(rep.error_radius, gaps[-1] / (1.0 - C))
        # x_j ends the solve cut at j steps, and x_K is one step past the
        # converged x_{K-1}; each gap is mu_b(x_j, x_{j+1})
        xs = [normalize(x0, norms)] + [
            power_method(F, x0, SolverConfig(norms=norms, max_iter=j)).eigenpair.x
            for j in range(1, rep.iterations)
        ]
        xs.append(normalize(evaluate(F, rep.eigenpair.x), norms))
        assert len(xs) == len(gaps) + 1
        for gap, x, y in zip(gaps, xs, xs[1:]):
            mu = _ref_metric(x.blocks, y.blocks, b, False)
            assert abs(gap - mu) <= 1e-13 * max(1.0, mu)

    def test_envelope_trace_checks_interior_in_call_order(self):
        # hilbert_metric checks x before y
        good = ProductVector([[1.0, 2.0], [1.0]])
        tiny = ProductVector([[1.0, POSITIVITY_FLOOR], [1.0]])
        with pytest.raises(ValueError, match="^x must"):
            hilbert_metric(tiny, tiny, [1.0, 1.0])
        with pytest.raises(ValueError, match="^y must"):
            hilbert_metric(good, tiny, [1.0, 1.0])
        with pytest.raises(ValueError, match="^x must"):
            hilbert_metric(tiny, good, [1.0, 1.0])

    def test_finite_difference_jacobians(self):
        rng = np.random.default_rng(11)
        for sizes in ((3,), (2, 2), (1, 4, 2), (3, 3, 3)):
            shape = ShapeSpec(sizes)
            F = _power_map(shape, a=0.7)
            u = _vector(rng, shape, 0.2, 2.0)
            for mode in ("central", "forward", "backward"):
                assert _same_bits(maps._fd_jacobian(F, u, mode), _ref_fd_jacobian(F, u, mode))
        F = maps.max_example_map(0.3)
        u = ProductVector([[1.0, 0.5, 0.3]])
        for mode in ("central", "forward", "backward"):
            assert _same_bits(maps._fd_jacobian(F, u, mode), _ref_fd_jacobian(F, u, mode))


def _hex(values):
    return [float(v).hex() for v in np.ravel(values)]


def _step_cases(seed=1805):
    """(new map, former map, norms, start) with d = 1, 2 and 60, each also delta-shifted."""
    rng = np.random.default_rng(seed)
    for _ in range(3):
        n, m = int(rng.integers(2, 8)), int(rng.integers(2, 8))
        M, R = rng.uniform(0.05, 2.0, (n, n)), rng.uniform(0.05, 2.0, (n, m))
        T, p, q = rng.uniform(0.05, 2.0, (n, n, n)), rng.uniform(1.5, 4.0), rng.uniform(1.5, 4.0)
        pairs = [
            (linear_map(M), _former_builtin_evaluator("linear", M)),
            (tensor_eigen_map(T, p), _former_builtin_evaluator("tensor", T, p)),
            (singular_map(R), _former_builtin_evaluator("singular", R)),
            (pq_singular_map(R, p, q), _former_builtin_evaluator("pq_singular", R, p, q)),
        ]
        for sizes in ((3,) * 60, tuple(int(k) for k in rng.integers(1, 6, 60))):
            F = _power_map(ShapeSpec(sizes), a=float(rng.uniform(0.3, 0.9)))
            pairs.append((F, F.evaluator))
        for F, former_ev in pairs:
            G = _former_map(F, former_ev)
            choices = [NormSpec.euclidean(F.shape.d), NormSpec(_random_selectors(rng, F.shape))]
            if F.shape.d == 1:  # one block: every selector kind
                n = F.shape.total
                choices[1:] = [NormSpec([p]) for p in (1.0, 3.0, math.inf)] + [NormSpec([rng.uniform(0.2, 3.0, n)])]
            for norms in choices:
                x0 = _vector(rng, F.shape)
                yield F, G, norms, x0
                delta = float(10.0 ** rng.uniform(-6, 0))
                yield shifted(F, delta, norms), _former_shifted(G, delta, norms), norms, x0


class TestLeanIterationStep:
    """One power_method iteration against the former step, bit for bit."""

    def test_builtin_and_shifted_evaluations(self):
        for F, G, norms, x0 in _step_cases():
            x = _former_normalize(x0, norms)
            got, want = evaluate(F, x), evaluate(G, x)
            assert got.shape == want.shape and _same_bits(got.flat, want.flat)
            assert not got.flat.flags.writeable

    def test_log_bracket(self):
        for shape, rng in _cases():
            x, y = _vector(rng, shape), _vector(rng, shape)
            b = rng.uniform(0.01, 1.0, shape.d)
            want = _ref_log_weighted_ratio_bounds(y.blocks, x.blocks, b)
            lo_i, hi_i = metrics._log_ratio_extrema(y.flat, x.flat, shape)
            former = (metrics._weighted_sum(b, lo_i), metrics._weighted_sum(b, hi_i))
            got = metrics._log_bracket(y.flat, x.flat, shape, b)
            assert _same_bits(got, want) and _same_bits(got, former)
        # the loop's 0.0 start: all -0.0 terms sum to 0.0
        one = ProductVector([[1.0, 1.0], [2.0]])
        assert _same_bits(metrics._log_bracket(one.flat, one.flat, one.shape, np.ones(2)), [0.0, 0.0])

    def test_power_method_iterates_and_brackets(self):
        for F, G, norms, x0 in _step_cases():
            k = 4
            b = np.linspace(0.5, 1.0, F.shape.d)
            rep = power_method(F, x0, SolverConfig(norms=norms, tol=1e-300, max_iter=k, weights=b))
            xs, trace = _former_iterates(G, x0, b, norms, k)
            assert rep.status == "max_iter" and rep.iterations == k
            assert _hex(rep.bracket_trace) == _hex(trace)
            # x_j ends the solve cut at j steps
            for j in range(1, k + 1):
                cut = power_method(F, x0, SolverConfig(norms=norms, tol=1e-300, max_iter=j, weights=b))
                assert _same_bits(cut.eigenpair.x.flat, xs[j].flat)
            assert _same_bits(rep.eigenpair.x.flat, xs[k].flat)
            lam = _ref_block_norms(evaluate(G, xs[-1]).blocks, norms)
            assert _same_bits(rep.eigenpair.lam, lam)

    def test_shifted_at_a_zero_norm_block(self):
        rng = np.random.default_rng(4)
        R = rng.uniform(0.1, 1.0, (2, 3))
        sing = singular_map(R)
        norms = NormSpec.euclidean(2)
        F = shifted(sing, 0.5, norms)
        G = _former_shifted(_former_map(sing, _former_builtin_evaluator("singular", R)), 0.5, norms)
        for x in (ProductVector([[0.0, 0.0], [1.0, 2.0, 0.5]]), ProductVector([[0.0, 3.0], [0.0, 0.0, 0.0]])):
            got = evaluate(F, x)
            assert _same_bits(got.flat, evaluate(G, x).flat)
            # 0^0 = 1 on the diagonal, 0^1 = 0 off it: the shift of one block is 0
            assert (got.flat == evaluate(sing, x).flat).any()
        M = rng.uniform(0.1, 1.0, (3, 3))
        lin, norms = linear_map(M), NormSpec.euclidean(1)
        F = shifted(lin, 0.5, norms)
        G = _former_shifted(_former_map(lin, _former_builtin_evaluator("linear", M)), 0.5, norms)
        zero = ProductVector([[0.0, 0.0, 0.0]])
        got = evaluate(F, zero)
        assert _same_bits(got.flat, evaluate(G, zero).flat) and _same_bits(got.flat, [0.0, 0.0, 0.0])

    def test_matrix_power_scale(self):
        rng = np.random.default_rng(9)
        for d in (1, 2, 5, 60):
            B = rng.uniform(0.0, 2.0, (d, d)) * (rng.random((d, d)) < 0.6)
            for _ in range(5):
                a = rng.uniform(0.0, 3.0, d) * (rng.random(d) < 0.8)
                assert _same_bits(matrix_power_scale(a, B), _former_matrix_power_scale(a, B))
        with pytest.raises(ValueError, match="zero base"):
            matrix_power_scale([0.0, 1.0], [[-1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="nonnegative"):
            matrix_power_scale([-1.0, 1.0], np.eye(2))
        with pytest.raises(ValueError, match="length 2"):
            matrix_power_scale([1.0, 1.0, 1.0], np.eye(2))
        with pytest.raises(ValueError, match="square"):
            matrix_power_scale([1.0, 1.0], np.ones((2, 3)))

    def test_short_delta_continuation(self):
        M = np.array([[1.0, 1.0], [0.0, 1.0]])
        norms = NormSpec.euclidean(1)
        schedule = DeltaSchedule(1.0, 0.5, 1e-3)
        cfg = SolverConfig(norms=norms, delta_schedule=schedule)
        F = linear_map(M)
        rep = delta_continuation(F, cfg)
        G = _former_map(F, _former_builtin_evaluator("linear", M))
        x, lam, trace, delta_trace = _former_continuation(G, norms, rep.weights, schedule, cfg.tol, cfg.max_iter)
        assert rep.status == "converged" and len(rep.delta_trace) == len(schedule.values())
        assert _hex(rep.bracket_trace) == _hex(trace)
        assert _hex(rep.eigenpair.x.flat) == _hex(x.flat)
        assert _hex(rep.eigenpair.lam) == _hex(lam)
        assert _hex(rep.delta_trace) == _hex(delta_trace)
        assert _hex(rep.eigenpair.r_b) == _hex(delta_trace[-1][1])


class TestOneBlockAndNormKernels:
    """The one-block bracket and the once-built norm kernel against the former step."""

    def test_norm_kernel_matches_the_loop_under_every_selector(self):
        rng = np.random.default_rng(23)
        kinds = [1.0, 2.0, 3.0, math.inf, "phi"]
        for sizes in ((1,), (5,), (3, 3, 3), (1, 4, 2), (2,) * 60):
            shape = ShapeSpec(sizes)
            for kind in kinds:
                norms = NormSpec([rng.uniform(0.2, 3.0, n) if kind == "phi" else kind for n in sizes])
                kernel = cones._norm_kernel(shape, norms)
                for _ in range(5):
                    x = ProductVector([rng.normal(size=n) * 10.0 ** rng.uniform(-3, 3) for n in sizes])
                    want = _ref_block_norms(x.blocks, norms)
                    assert _same_bits(kernel(x.flat), want) and _same_bits(block_norms(x, norms), want)

    def test_norm_kernel_checks_the_spec_once_with_the_same_errors(self):
        shape = ShapeSpec((2, 3))
        for norms, message in (
            (NormSpec.euclidean(3), "block count"),
            (NormSpec([2.0, [1.0, 1.0]]), "phi weight length mismatch in block 1"),
        ):
            with pytest.raises(ValueError, match=message):
                cones._norm_kernel(shape, norms)
            with pytest.raises(ValueError, match=message):
                block_norms(ProductVector([[1.0, 2.0], [3.0, 4.0, 5.0]]), norms)
        with pytest.raises(ValueError, match="phi weight length mismatch in block 0"):
            NormSpec([[1.0, 1.0]]).block_norm(0, np.ones(3))

    def test_one_block_bracket(self):
        rng = np.random.default_rng(31)
        for n in (1, 2, 7, 160):
            shape = ShapeSpec((n,))
            for _ in range(20):
                x, y = _vector(rng, shape), _vector(rng, shape)
                b = rng.uniform(0.01, 100.0, 1)
                lo_i, hi_i = metrics._log_ratio_extrema(y.flat, x.flat, shape)
                want = (metrics._weighted_sum(b, lo_i), metrics._weighted_sum(b, hi_i))
                got = metrics._log_bracket(y.flat, x.flat, shape, b)
                assert _same_bits(got, want)
                assert _same_bits(got, _ref_log_weighted_ratio_bounds(y.blocks, x.blocks, b))
        # a product underflowing to -0.0 still ends as the loop's 0.0
        one = ShapeSpec((2,))
        x, y = np.array([1.0, 1.0]), np.array([1.0 - 2.0**-53, 1.0])
        got = metrics._log_bracket(y, x, one, np.array([1e-310]))
        assert _same_bits(got, [0.0, 0.0])
        assert _same_bits(got, _ref_log_weighted_ratio_bounds([y], [x], [1e-310]))


# ---------------------------------------------------------------------------
# storage
# ---------------------------------------------------------------------------


class TestFlatStorage:
    def test_blocks_are_read_only_views_of_one_buffer(self):
        for sizes in ((3,), (2, 3), (1, 1, 4)):
            x = ProductVector([np.arange(n, dtype=float) + 1.0 for n in sizes])
            assert x.flat.flags.c_contiguous and not x.flat.flags.writeable
            assert x.shape == ShapeSpec(sizes) and x.d == len(sizes)
            for blk in x.blocks:
                assert not blk.flags.writeable
                assert blk is x.flat or blk.base is x.flat
                with pytest.raises(ValueError):
                    blk[0] = 7.0
            with pytest.raises(AttributeError):
                x.flat = np.zeros(sum(sizes))

    def test_constructor_and_from_flat_copy_their_input(self):
        src = [np.array([1.0, 2.0]), np.array([3.0])]
        x = ProductVector(src)
        src[0][0] = 99.0
        assert x.blocks[0][0] == 1.0
        single = np.array([1.0, 2.0])
        y = ProductVector([single])
        single[0] = 99.0
        assert y.flat[0] == 1.0
        buf = np.array([1.0, 2.0, 3.0])
        z = ProductVector.from_flat(buf, ShapeSpec((2, 1)))
        buf[0] = 99.0
        assert z.flat[0] == 1.0

    def test_concat_returns_a_copy(self):
        x = ProductVector([[1.0, 2.0], [3.0]])
        out = x.concat()
        out[0] = 99.0
        assert x.flat[0] == 1.0 and x.blocks[0][0] == 1.0

    def test_pickle_and_deepcopy_round_trip(self):
        x = ProductVector([[1.0, 2.0], [3.0]])
        norms = NormSpec([2, [0.5, 1.5], math.inf])
        for clone in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x), copy.copy(x)):
            assert clone == x and clone.shape == x.shape and not clone.flat.flags.writeable
        for clone in (pickle.loads(pickle.dumps(norms)), copy.deepcopy(norms)):
            assert repr(clone) == repr(norms)
            assert _same_bits(block_norms(ProductVector([[3.0, 4.0], [1.0, 1.0], [2.0]]), clone), [5.0, 2.0, 2.0])
        rep = power_method(motivating_map(), None, SolverConfig(norms=NormSpec.euclidean(2)))
        again = pickle.loads(pickle.dumps(rep))
        assert again.eigenpair.x == rep.eigenpair.x and again.bracket_trace == rep.bracket_trace
        assert again.envelope_ok and again.error_radius == rep.error_radius

    def test_equal_vectors_hash_equal(self):
        x, y = ProductVector([[0.0, 1.0]]), ProductVector([[-0.0, 1.0]])
        assert x == y and hash(x) == hash(y) and len({x, y}) == 1
        assert ProductVector([[1.0], [2.0]]) != ProductVector([[1.0, 2.0]])


class TestConstructor:
    """One concatenate, then one validation: the former per-block checks and messages."""

    @pytest.mark.parametrize("blocks", [
        [[1.0], []],
        [[1.0, 2.0], [[3.0]]],
        [[[1.0, 2.0]], [[3.0, 4.0]]],
        [1.0, 2.0],
        [[1.0], 2.0],
        [np.float64(1.0)],
    ])
    def test_bad_blocks(self, blocks):
        with pytest.raises(ValueError, match="^each block must be a nonempty 1-d array$"):
            ProductVector(blocks)

    @pytest.mark.parametrize("blocks", [
        [[1 + 2j]],
        [[1.0], [2j]],
        [{"a": 1.0}],
        [[1.0], [[2.0], [3.0, 4.0]]],
        [["1.5", "2"]],
        [["ab"]],
        [[2**70], [1.0]],
        [[1.0, None]],
    ])
    def test_odd_blocks_convert_or_fail_as_asarray_does(self, blocks):
        # the former constructor: np.asarray(blk, dtype=float) per block
        try:
            want = np.concatenate([np.asarray(blk, dtype=float) for blk in blocks])
        except (TypeError, ValueError) as exc:
            with pytest.raises(type(exc)) as got:
                ProductVector(blocks)
            assert str(got.value) == str(exc)
        else:
            assert _same_bits(ProductVector(blocks).flat, want)

    @pytest.mark.parametrize("blocks", [[], (), iter([])])
    def test_no_blocks(self, blocks):
        with pytest.raises(ValueError, match="^a product vector needs at least one block$"):
            ProductVector(blocks)

    def test_inputs_convert_like_asarray(self):
        from fractions import Fraction

        x = ProductVector(iter([(1, 2), np.array([True]), [Fraction(1, 4)], np.arange(2, dtype=np.float32)]))
        assert x.shape.sizes == (2, 1, 1, 2) and x.flat.dtype == np.float64
        assert _same_bits(x.flat, [1.0, 2.0, 1.0, 0.25, 0.0, 1.0])
        assert ProductVector(np.ones((3, 2))) == ProductVector([[1.0, 1.0]] * 3)

    def test_uniform_blocks_are_row_views(self):
        for sizes in ((3,) * 60, (1, 1), (4, 4, 4)):
            x = ProductVector([np.arange(n, dtype=float) + 10.0 * i for i, n in enumerate(sizes)])
            rows = x.flat.reshape(len(sizes), sizes[0])
            assert len(x.blocks) == len(sizes) and x.blocks is x.blocks
            for blk, row in zip(x.blocks, rows):
                assert blk.base is x.flat and not blk.flags.writeable and _same_bits(blk, row)


class TestKernelProperties:
    """The same identities on hypothesis-drawn shapes, selectors and values."""

    def test_kernels_match_the_loops(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        sel = st.one_of(st.sampled_from([1.0, 2.0, 3.0, math.inf]), st.just("phi"))
        positive = st.floats(1e-3, 1e3)

        @hypothesis.settings(max_examples=150, deadline=None)
        @hypothesis.given(
            st.lists(st.tuples(st.integers(1, 9), sel), min_size=1, max_size=12),
            st.data(),
        )
        def check(blocks, data):
            sizes = [n for n, _ in blocks]
            vals = lambda: [data.draw(st.lists(positive, min_size=n, max_size=n)) for n in sizes]
            x, y = ProductVector(vals()), ProductVector(vals())
            b = np.array(data.draw(st.lists(st.floats(1e-3, 1.0), min_size=len(sizes), max_size=len(sizes))))
            selectors = [np.ones(n) if s == "phi" else s for n, s in blocks]
            for norms in (NormSpec(selectors), NormSpec.euclidean(len(sizes))):
                assert _same_bits(block_norms(x, norms), _ref_block_norms(x.blocks, norms))
            assert _same_bits(scale_blocks(b, x).flat, np.concatenate(_ref_scale_blocks(b, x.blocks)))
            lo_i, hi_i = metrics._log_ratio_extrema(y.flat, x.flat, x.shape)
            ref_lo, ref_hi = _ref_log_weighted_ratio_bounds(y.blocks, x.blocks, b)
            assert _same_bits([metrics._weighted_sum(b, lo_i), metrics._weighted_sum(b, hi_i)], [ref_lo, ref_hi])
            assert _same_bits(hilbert_metric(x, y, b), _ref_metric(x.blocks, y.blocks, b, False))
            assert _same_bits(thompson_metric(x, y, b), _ref_metric(x.blocks, y.blocks, b, True))
            assert _same_bits(
                solver._relative_residual_inf(y.flat, b, x.flat, x.shape), _ref_relative_residual_inf(y.blocks, b, x.blocks)
            )
            assert _same_bits(hilbert_metric(y, y, b), _ref_metric(y.blocks, y.blocks, b, False))

        check()


# ---------------------------------------------------------------------------
# the power loop in blocks against the step-by-step loop
# ---------------------------------------------------------------------------


def _former_power_steps(F, x0, cfg):
    """``power_method`` as the former loop made it: one step, then all of its tests.

    Returns the report (without the fields set after the loop) and the
    iterates x_0, x_1, ..., the iterate of each step taken and then the last
    rescaled one.
    """
    b, norm_of, messages = solver._solve_setup(F, cfg)
    shape, inf = F.shape, math.inf
    x = solver._checked_start(cones.ones_vector(shape) if x0 is None else x0, shape, cfg.norms)
    xf, kernel = x.flat, maps._kernel(F)
    block_norm = cones._selector_norm(*cfg.norms.selectors[0]) if shape.d == 1 else None
    analysis = F.analysis
    watch, lazy, last_gap = analysis.regime == "non_expansive", False, inf
    trace, iterates = [], [xf]
    status, eigenpair, res_val, iterations = solver.MAX_ITER, None, None, 0
    with np.errstate(over="ignore"):
        for _ in range(cfg.max_iter):
            try:
                yf = kernel(xf) if iterations else evaluate(F, x).flat
            except ValueError as exc:
                status = solver.DIVERGED
                messages.append(f"evaluation failed: {exc}")
                break
            iterations += 1
            y_min = np.minimum.reduce(yf)
            if not y_min > 0.0:
                status = solver.DIVERGED
                messages.append("iterate left the open cone" if np.isfinite(yf).all() else "non-finite iterate")
                break
            log_lo, log_hi = metrics._log_bracket(yf, xf, shape, b)
            if not log_hi < inf and not np.isfinite(yf).all():
                status = solver.DIVERGED
                messages.append("non-finite iterate")
                break
            trace.append((solver._exp(log_lo), solver._exp(log_hi)))
            gap = log_hi - log_lo
            if watch and abs(gap - last_gap) <= 1e-12 * gap:
                watch, lazy = False, True
                messages.append(f"bracket gap stalled: lazy steps (F(x) x)^(1/2) from step {iterations}")
            last_gap = gap
            zf = np.sqrt(yf) * np.sqrt(xf) if lazy else yf
            if block_norm is not None:
                lam = lam_min = lam_max = block_norm(zf)
            else:
                lam = norm_of(zf)
                lam_min, lam_max = min(lam.tolist()), max(lam.tolist())
            if not (lam_min > 0.0 and 1.0 / lam_min < inf and lam_max < inf):
                status = solver.DIVERGED
                messages.append("iterate left the open cone" if lam_max < inf else "block norm overflowed")
                break
            if gap < cfg.tol:
                lam_F = norm_of(yf) if lazy else lam
                res = solver._relative_residual_inf(yf, lam_F, xf, shape)
                if res < 10.0 * cfg.tol:
                    lam_F = np.atleast_1d(lam_F)
                    eigenpair = maps.EigenPair(cones._wrap(xf.copy(), shape), lam_F, cones._weighted_product(lam_F, b))
                    status, res_val = solver.CONVERGED, res
                    break
            xf = shape._spread(1.0 / lam) * zf
            iterates.append(xf)
            if lazy:
                left = not np.minimum.reduce(xf) >= solver._TINY
            else:
                left = not y_min * (1.0 / lam_max) > 0.0 and not np.minimum.reduce(xf) > 0.0
            if left:
                status = solver.DIVERGED
                messages.append("iterate left the open cone")
                break
    if status == solver.MAX_ITER and trace:
        u = cones._wrap(xf.copy(), shape)
        y = evaluate(F, u)
        lam = norm_of(y.flat)
        eigenpair = maps.EigenPair(u, lam, cones._weighted_product(lam, b))
        res_val = solver._relative_residual_inf(y.flat, lam, u.flat, shape)
        messages.append("bracket did not close within max_iter")
    report = solver.SolveReport(eigenpair, status, iterations, trace, b, res_val, messages=messages)
    return report, iterates


def _report_bits(rep):
    """A solve report's loop fields, floats in hex."""
    ep = rep.eigenpair
    pair = None if ep is None else (_hex(ep.x.flat), _hex(ep.lam), _hex(ep.r_b))
    res = None if rep.residual is None else _hex(rep.residual)
    return rep.status, rep.iterations, _hex(rep.bracket_trace), rep.messages, res, pair, _hex(rep.weights)


def _blocked(F, x0, cfg):
    """power_method, and the stacked iterates of each stacked log bracket it took (a block ran those steps back to back)."""
    stacked = []
    bracket = solver._log_bracket

    def spy(y, x, shape, w):
        if np.ndim(y) == 2:
            stacked.append(x)
        return bracket(y, x, shape, w)

    solver._log_bracket = spy
    try:
        return power_method(F, x0, cfg), stacked
    finally:
        solver._log_bracket = bracket


def _check_against_former(F, x0, cfg, blocks=True):
    """The blocked solve is the former loop's, bit for bit, and its trace is cw_bounds at the former iterates.

    ``blocks`` True asserts that some steps ran in a block, False that none did, None neither.
    """
    rep, stacked = _blocked(F, x0, cfg)
    former, iterates = _former_power_steps(F, x0, cfg)
    assert _report_bits(rep) == _report_bits(former)
    for k in range(len(rep.bracket_trace)):
        x_k = cones._wrap(iterates[k].copy(), F.shape)
        assert _hex(rep.bracket_trace[k]) == _hex(solver.cw_bounds(F, x_k, rep.weights))
    if blocks is not None:
        assert bool(stacked) == blocks, "no step ran in a block" if blocks else "steps ran in a block"
    return rep


class _Faulty:
    """A user's evaluator F_i(x) = M_i x_{i+1 mod d}, recording its calls, with one fault at the iterate ``at``.

    ``kind`` is what it returns there: an image with a zero entry, an
    infinite or NaN entry, entries whose norms overflow, or it raises.  It
    raises if it is ever called on a vector that is not strictly positive and
    finite, which only the iterate after a failed step can be.
    """

    def __init__(self, Ms, at=None, kind=None):
        self.Ms, self.at, self.kind, self.calls = Ms, at, kind, []

    def __call__(self, x):
        self.calls.append(x)
        if not (np.minimum.reduce(x.flat) > 0.0 and np.isfinite(x.flat).all()):
            raise ValueError("called on the iterate after a failed step")
        blocks = [M @ x.blocks[(i + 1) % len(self.Ms)] for i, M in enumerate(self.Ms)]
        if self.at is not None and x.flat.tobytes() == self.at:
            if self.kind == "raise":
                raise ValueError("fault")
            # in the last entry of the last block, where a NaN hides from a
            # Python min over the block norms
            blocks[-1] = blocks[-1].copy()
            blocks[-1][-1] = {"zero": 0.0, "inf": math.inf, "nan": math.nan, "huge": 1.5e308}[self.kind]
            if self.kind == "huge":
                blocks[-1][:] = 1.5e308
        return ProductVector(blocks)


def _faulty_map(Ms, at=None, kind=None):
    d = len(Ms)
    A = np.zeros((d, d))
    A[np.arange(d), (np.arange(d) + 1) % d] = 1.0
    ev = _Faulty(Ms, at, kind)
    return MapInstance(shape=ShapeSpec(tuple(M.shape[0] for M in Ms)), A=A, evaluator=ev, label="faulty"), ev


def _near_identity(rng, n, eps):
    return np.eye(n) + eps * rng.uniform(0.05, 1.0, (n, n))


def _block_cyclic(rng, n, eps):
    """[[0, B], [C, 0]] with B, C = I + eps R: irreducible of period 2, so plain steps stall into lazy ones."""
    Z = np.zeros((n, n))
    return np.block([[Z, _near_identity(rng, n, eps)], [_near_identity(rng, n, eps), Z]])


class TestBlockedPowerLoop:
    """The power loop checks its steps in blocks and reports what the step-by-step loop reported."""

    def test_drawn_maps_match_the_former_loop(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        @hypothesis.settings(max_examples=60, deadline=None)
        @hypothesis.given(
            st.sampled_from(["linear", "shifted", "singular", "pq_singular", "ring", "cyclic"]),
            st.integers(0, 2**32 - 1),
            st.floats(-14.0, -6.0),
            st.integers(1, 400),
            st.booleans(),
        )
        def check(kind, seed, log_tol, max_iter, random_start):
            rng = np.random.default_rng(seed)
            n, eps = int(rng.integers(2, 6)), float(10.0 ** rng.uniform(-1.5, 0.0))
            if kind in ("linear", "shifted"):
                F = linear_map(_near_identity(rng, n, eps))
                norms = NormSpec([[1.0, 2.0, 3.0, math.inf][int(rng.integers(4))]])
                if kind == "shifted":
                    F = shifted(F, float(10.0 ** rng.uniform(-8, -1)), norms)
            elif kind == "singular":
                F, norms = singular_map(_near_identity(rng, n, eps)), NormSpec.euclidean(2)
            elif kind == "pq_singular":
                p, q = rng.uniform(2.0, 4.0, 2)
                F, norms = pq_singular_map(_near_identity(rng, n, eps), p, q), NormSpec([p, q])
            elif kind == "ring":
                d = int(rng.integers(2, 6))
                F, _ = _faulty_map([_near_identity(rng, n, eps) for _ in range(d)])
                norms = NormSpec(_random_selectors(rng, F.shape))
            else:
                F, norms = linear_map(_block_cyclic(rng, n, eps)), NormSpec.euclidean(1)
            x0 = _vector(rng, F.shape) if random_start else None
            cfg = SolverConfig(norms=norms, tol=10.0**log_tol, max_iter=max_iter)
            _check_against_former(F, x0, cfg, blocks=None)

        check()

    def test_convergence_inside_a_block(self):
        rng = np.random.default_rng(11)
        # a map of two blocks runs no blocks of steps
        for F, norms, blocks in ((linear_map(_near_identity(rng, 4, 0.05)), NormSpec([2.0]), True),
                                 (singular_map(_near_identity(rng, 3, 0.05)), NormSpec([1.0, math.inf]), False)):
            rep = _check_against_former(F, None, SolverConfig(norms=norms, tol=1e-12), blocks)
            assert rep.status == "converged" and rep.iterations > 100

    @pytest.mark.parametrize("max_iter", [37, 101, 257])
    def test_max_iter_inside_a_block(self, max_iter):
        # the Jordan block: the gap falls like 1/k, and no step closes the bracket
        F = linear_map([[1.0, 1.0], [0.0, 1.0]])
        rep = _check_against_former(F, None, SolverConfig(norms=NormSpec([2.0]), max_iter=max_iter))
        assert rep.status == "max_iter" and rep.iterations == max_iter

    def test_lazy_switch_inside_a_block(self):
        F = linear_map(_block_cyclic(np.random.default_rng(0), 3, 0.3))
        cfg = SolverConfig(norms=NormSpec([2.0]))
        rep = _check_against_former(F, None, cfg)
        assert rep.status == "converged"
        step = int(rep.messages[0].rsplit(" ", 1)[1])
        assert step > 4 * (solver._MIN_RUN + 1), rep.messages
        # lazy steps run in no block: every stacked bracket starts at or before the stall step
        _, stacked = _blocked(F, None, cfg)
        _, iterates = _former_power_steps(F, None, cfg)
        index = {x.tobytes(): k for k, x in enumerate(iterates)}
        assert stacked and all(index[xs[0].tobytes()] < step for xs in stacked)

    def test_lazy_underflow_inside_a_block(self):
        # the eigenvector lies on the boundary: a lazy iterate's second entry
        # drifts under the smallest normal double
        F = linear_map([[2.0, 0.0], [0.0, 1.0]])
        rep = _check_against_former(F, None, SolverConfig(norms=NormSpec([2.0])), blocks=False)
        assert rep.status == "diverged" and rep.messages[-1] == "iterate left the open cone"
        assert rep.iterations > 1000

    @pytest.mark.parametrize("kind, message", [
        ("zero", "iterate left the open cone"),
        ("inf", "non-finite iterate"),
        ("nan", "non-finite iterate"),
        ("huge", "block norm overflowed"),
        ("raise", "evaluation failed: fault"),
    ])
    # buffers of 3 and 9 entries, whose smallest entry is a Python min, and of 24
    @pytest.mark.parametrize("d, n", [(1, 3), (3, 3), (2, 12)])
    def test_each_failure_inside_a_block(self, kind, message, d, n):
        rng = np.random.default_rng(d)
        Ms = [_near_identity(rng, n, 0.1) for _ in range(d)]
        norms = NormSpec.euclidean(d)
        cfg = SolverConfig(norms=norms, tol=1e-14, weights=np.full(d, 1.0 / d))
        F, _ = _faulty_map(Ms)
        _, iterates = _former_power_steps(F, None, cfg)
        at = 60  # the step that fails, well inside a block
        assert len(iterates) > at
        F, ev = _faulty_map(Ms, iterates[at - 1].tobytes(), kind)
        rep = _check_against_former(F, None, cfg, blocks=d == 1)
        assert rep.status == "diverged" and rep.messages[-1] == message
        assert rep.iterations == at - (kind == "raise")

    def test_a_failed_step_wins_over_a_later_evaluation_that_raises(self):
        # the image at step 60 has a zero entry; the evaluator raises on the
        # iterate after it, which it must never see
        rng = np.random.default_rng(7)
        Ms = [_near_identity(rng, 3, 0.1)]
        cfg = SolverConfig(norms=NormSpec([2.0]), tol=1e-14)
        F, _ = _faulty_map(Ms)
        _, iterates = _former_power_steps(F, None, cfg)
        F, ev = _faulty_map(Ms, iterates[59].tobytes(), "zero")
        rep = _check_against_former(F, None, cfg)
        assert rep.status == "diverged" and rep.messages == ["iterate left the open cone"]
        assert rep.iterations == 60
        assert all(np.minimum.reduce(x.flat) > 0.0 for x in ev.calls)


class TestBlockedEvaluatorCalls:
    """What a user's evaluator sees from a solve whose steps run in blocks."""

    @pytest.mark.parametrize("d, eps", [(1, 0.05), (2, 0.1), (4, 0.3)])
    def test_calls_past_the_stop_and_the_eigenvector(self, d, eps):
        rng = np.random.default_rng(d)
        F, ev = _faulty_map([_near_identity(rng, 3, eps) for _ in range(d)])
        rep, stacked = _blocked(F, None, SolverConfig(norms=NormSpec.euclidean(d), tol=1e-13))
        # only a one-block map runs blocks of steps
        assert rep.status == "converged" and bool(stacked) == (d == 1)
        # one call per step up to the stop, the first at the start vector
        stop = rep.iterations
        past = len(ev.calls) - stop
        assert 0 <= past <= solver._BLOCK_STEPS - 1
        assert rep.eigenpair.x.flat is ev.calls[stop - 1].flat
        # every call but the first saw the rescaled image of the one before
        for k in range(1, stop):
            assert np.minimum.reduce(ev.calls[k].flat) > 0.0

    @pytest.mark.parametrize("kind", ["zero", "inf", "nan", "huge", "raise"])
    def test_never_called_after_a_failed_step(self, kind):
        rng = np.random.default_rng(5)
        Ms = [_near_identity(rng, 3, 0.1) for _ in range(2)]
        cfg = SolverConfig(norms=NormSpec.euclidean(2), tol=1e-14, weights=np.full(2, 0.5))
        F, _ = _faulty_map(Ms)
        _, iterates = _former_power_steps(F, None, cfg)
        F, ev = _faulty_map(Ms, iterates[69].tobytes(), kind)
        rep = power_method(F, None, cfg)
        assert rep.status == "diverged"
        # the faulty step is the last call: nothing after it was evaluated
        assert ev.calls[-1].flat.tobytes() == iterates[69].tobytes() and len(ev.calls) == 70

    def test_a_dropped_step_that_raises_is_not_reported(self):
        # the gap stalls at a step inside a block whose run went on with a
        # plain step; that step's evaluation raises, but the stall drops it
        M = _block_cyclic(np.random.default_rng(0), 3, 0.3)
        cfg = SolverConfig(norms=NormSpec([2.0]))
        F, _ = _faulty_map([M])
        former, iterates = _former_power_steps(F, None, cfg)
        stall = int(former.messages[0].rsplit(" ", 1)[1])
        y = M @ iterates[stall - 1]
        plain = (1.0 / cones._euclidean_norm(y)) * y  # the plain step the former loop never took
        F, ev = _faulty_map([M], plain.tobytes(), "raise")
        rep = _check_against_former(F, None, cfg)
        assert rep.status == "converged"
        assert any(x.flat.tobytes() == plain.tobytes() for x in ev.calls), "the run stopped at the stalled step"
