"""The flat-buffer blockwise kernels against the per-block loops they replace.

The reference routines below are the library's former implementations, one
Python loop over the blocks each.  The kernels now run on ``ProductVector.flat``
with ``np.repeat`` / ``ufunc.reduceat`` and a left-to-right weighted sum, and
every output must equal the loop's to the last bit, signed zeros included,
because reports print floats with 17 significant digits.  The same holds for
one step of the power iteration against its former form (checked evaluator
outputs, a checked ``matrix_power_scale`` per shifted evaluation, two weighted
sums and a checked rescale).
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


def _ref_cycle_average_blocks(vectors):
    return [np.mean([v.blocks[i] for v in vectors], axis=0) for i in range(vectors[0].d)]


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
    return lambda x: ProductVector([maps._tensor_contract(M, x.blocks[0]) ** s])


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
    """delta_continuation's path through the former step (no cycle averaging)."""
    x, delta_trace = ProductVector([np.ones(n) for n in F.shape.sizes]), []
    for delta in schedule.values():
        Fd = _former_shifted(F, delta, norms)
        inner_tol = min(1e-3, max(tol, tol * delta / schedule.floor, 1e-13))
        x, trace = _former_normalize(x, norms), []
        for _ in range(max_iter):
            y, log_lo, log_hi, lam, x_next = _former_step(Fd, x, b, norms)
            trace.append((math.exp(log_lo), math.exp(log_hi)))
            if log_hi - log_lo < inner_tol and solver._relative_residual_inf(y, lam, x) < 10.0 * inner_tol:
                break
            x = x_next
        else:
            raise AssertionError("the reference inner solve did not converge")
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
                solver._relative_residual_inf(y, lam, x), _ref_relative_residual_inf(y.blocks, lam, x.blocks)
            )
            for norms in (NormSpec.euclidean(shape.d), NormSpec(_random_selectors(rng, shape))):
                assert _same_bits(residual(F, x, lam, norms), _ref_residual(F, x, lam, norms))
            zero = lam.copy()
            zero[int(rng.integers(0, shape.d))] = 0.0
            assert solver._relative_residual_inf(y, zero, x) == math.inf

    def test_inf_dist_and_cycle_average(self):
        for shape, rng in _cases():
            vs = [_vector(rng, shape) for _ in range(int(rng.integers(1, 5)))]
            want = max(float(np.max(np.abs(a - c))) for a, c in zip(vs[0].blocks, vs[-1].blocks))
            assert _same_bits(solver._inf_dist(vs[0], vs[-1]), want)
            norms = NormSpec.euclidean(shape.d)
            ref_blocks = _ref_cycle_average_blocks(vs)
            ref_norms = _ref_block_norms(ref_blocks, norms)
            want = np.concatenate(_ref_scale_blocks(1.0 / ref_norms, ref_blocks))
            assert _same_bits(solver._cycle_average(vs, norms).flat, want)

    def test_envelope_trace(self):
        for shape, rng in _cases():
            xs = [_vector(rng, shape) for _ in range(int(rng.integers(1, 6)))]
            u = _vector(rng, shape)
            b = rng.uniform(0.01, 1.0, shape.d)
            want = [_ref_metric(x.blocks, u.blocks, b, False) for x in xs]
            got = metrics._hilbert_trace(xs, u, b)
            assert all(type(v) is float for v in got)
            assert _same_bits(got, want)

    def test_envelope_trace_of_a_solve(self):
        F = motivating_map()
        rep = power_method(F, None, SolverConfig(norms=NormSpec.euclidean(2)))
        assert rep.envelope_ok
        u, b = rep.eigenpair.x, rep.weights
        assert _same_bits(rep.metric_trace, [_ref_metric(x.blocks, u.blocks, b, False) for x in rep.iterates])

    def test_envelope_trace_checks_interior_in_call_order(self):
        # the same first error as one hilbert_metric(x, u, b) call per iterate
        good = ProductVector([[1.0, 2.0], [1.0]])
        tiny = ProductVector([[1.0, POSITIVITY_FLOOR], [1.0]])
        with pytest.raises(ValueError, match="^x must"):
            metrics._hilbert_trace([tiny, good], tiny, [1.0, 1.0])
        with pytest.raises(ValueError, match="^y must"):
            metrics._hilbert_trace([good, tiny], tiny, [1.0, 1.0])
        with pytest.raises(ValueError, match="^x must"):
            metrics._hilbert_trace([good, tiny], good, [1.0, 1.0])

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
            assert len(rep.iterates) == k + 1
            for got, want in zip(rep.iterates, xs):
                assert _same_bits(got.flat, want.flat)
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
        assert again.eigenpair.x == rep.eigenpair.x and again.iterates == rep.iterates

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
                solver._relative_residual_inf(y, b, x), _ref_relative_residual_inf(y.blocks, b, x.blocks)
            )
            assert _same_bits(metrics._hilbert_trace([x, y], y, b), [
                _ref_metric(x.blocks, y.blocks, b, False), _ref_metric(y.blocks, y.blocks, b, False)
            ])

        check()
