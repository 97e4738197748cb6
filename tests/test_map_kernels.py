"""Flat map kernels, the power loop on buffers, and the user-evaluator adapter.

Every built-in map evaluates through a flat kernel (``maps._kernel``), and
``power_method`` applies it to its own buffers after the first step.  The
references below are the worked maps' and closures' former vector
evaluators, copied as they were: each kernel must give their bits, and the
bits of ``evaluate``.  A user's evaluator reaches the loop through an adapter
that checks its output; a solve through it must equal the built-in path bit
for bit.
"""

import dataclasses
import math
import sys

import numpy as np
import pytest

from mhspectral import (
    DeltaSchedule,
    NormSpec,
    ProductVector,
    ShapeSpec,
    SolverConfig,
    block_norms,
    bonsall_estimate,
    compose,
    delta_continuation,
    dual,
    hadamard,
    irrex_map,
    linear_map,
    matrix_power_scale,
    max_example_map,
    motivating_map,
    nonirr_map,
    power_method,
    pq_singular_map,
    scale_blocks,
    shifted,
    singular_map,
    tensor_eigen_map,
    tight_map,
    weighted_sum,
)
from mhspectral import cones, maps
from mhspectral.maps import MapInstance, evaluate

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# the former vector evaluators
# ---------------------------------------------------------------------------


def _former_max_example(eps):
    def ev(x):
        a, b, c = x.blocks[0]
        return ProductVector([[max(a, b, c), max(eps * a, b), max(eps * b, c)]])

    return ev


def _former_motivating(x):
    s, t = x.blocks[0]
    u, v = x.blocks[1]
    return ProductVector([[u * u, v * v], [s ** 0.125, t ** 0.125]])


def _former_nonirr(x):
    s, t = x.blocks[0]
    u, v = x.blocks[1]
    return ProductVector([[s, t], [max(s, v) ** 0.5, max(t, u) ** 0.5]])


def _former_irrex(x):
    s, t = x.blocks[0]
    u, v = x.blocks[1]
    st_ = (s * t) ** 0.25
    uv = (u * v) ** 0.5
    return ProductVector([[st_ * u ** 0.5, st_ * v ** 0.5], [uv, uv]])


def _former_tight(A, sizes):
    def ev(x):
        heads = np.array([blk[0] for blk in x.blocks])
        vals = matrix_power_scale(heads, A)
        return ProductVector([np.full(n, vals[i]) for i, n in enumerate(sizes)])

    return ev


def _former_compose(fF, fG):
    return lambda x: fF(fG(x))


def _former_hadamard(fF, fG):
    def ev(x):
        fx, gx = fF(x), fG(x)
        return ProductVector.from_flat(fx.flat * gx.flat, fx.shape)

    return ev


def _former_weighted_sum(F, G, fF, fG, D, norms, xi=None):
    D = np.asarray(D, dtype=float)

    def ev(x):
        N = block_norms(x, norms) if xi is None else np.array([f(x) for f in xi])
        fx = scale_blocks(matrix_power_scale(N, D - F.A), fF(x))
        gx = scale_blocks(matrix_power_scale(N, D - G.A), fG(x))
        return fx + gx

    return ev


def _former_shifted(F, fF, delta, norms):
    A = F.A

    def ev(x):
        y = fF(x)
        if F.shape.d == 1:
            n = norms.block_norm(0, x.flat)
            scale = np.exp(A.item(0) * np.log(n)) if n > 0.0 else cones._power_scale(np.array([n]), A)
            return ProductVector.from_flat(y.flat + delta * scale, y.shape)
        shift = delta * cones._power_scale(block_norms(x, norms), A)
        return ProductVector.from_flat(y.flat + y.shape._spread(shift), y.shape)

    return ev


def _former_dual(fF):
    def ev(x):
        out = fF(ProductVector.from_flat(1.0 / x.flat, x.shape))
        if not out.is_pos():
            raise ValueError("dual map hit the cone boundary")
        return ProductVector.from_flat(1.0 / out.flat, out.shape)

    return ev


def _user(F):
    """F behind a user's evaluator: no flat kernel of its own."""
    return dataclasses.replace(F, evaluator=lambda x: F.evaluator(x), label=f"user({F.label})")


def _block_sums(d):
    return [lambda x, i=i: float(x.blocks[i].sum()) for i in range(d)]


# ---------------------------------------------------------------------------
# cases: (map, former evaluator), every family, worked map and closure
# ---------------------------------------------------------------------------


def _leaves(rng):
    """Groups of (map, former evaluator) of one shape each."""
    M = rng.uniform(0.05, 2.0, (3, 3))
    T = rng.uniform(0.05, 2.0, (3, 3, 3))
    one = [
        # the families' kernel is the multilinear form's own (see test_multilinear)
        (linear_map(M), None),
        (tensor_eigen_map(T, 2.5), None),
        (max_example_map(0.3), _former_max_example(0.3)),
    ]
    R, S = rng.uniform(0.05, 2.0, (2, 2)), rng.uniform(0.05, 2.0, (2, 3))
    B = np.array([[0.2, 0.5], [0.7, 0.1]])
    square = [
        (motivating_map(), _former_motivating),
        (nonirr_map(), _former_nonirr),
        (irrex_map(), _former_irrex),
        (singular_map(R), None),
        (pq_singular_map(R, 3.0, 1.5), None),
        (tight_map(B, (2, 2)), _former_tight(B, (2, 2))),
    ]
    ragged = [
        (singular_map(S), None),
        (pq_singular_map(S, 1.25, 4.0), None),
        (tight_map(B, (2, 3)), _former_tight(B, (2, 3))),
    ]
    groups = []
    for group in (one, square, ragged):
        group = [(F, F.evaluator if ev is None else ev) for F, ev in group]
        F, ev = group[0]
        group.append((_user(F), ev))
        groups.append(group)
    return groups


def _cases(seed=2026):
    rng = np.random.default_rng(seed)
    out = []
    for group in _leaves(rng):
        out += group
        d = group[0][0].shape.d
        norm_choices = [NormSpec.euclidean(d), NormSpec([1.0] * d), NormSpec([math.inf] * d)]
        for k, (F, fF) in enumerate(group):
            G, fG = group[(k + 1) % len(group)]
            norms = norm_choices[k % 3]
            delta = float(10.0 ** rng.uniform(-6, 0))
            out.append((shifted(F, delta, norms), _former_shifted(F, fF, delta, norms)))
            out.append((compose(F, G), _former_compose(fF, fG)))
            out.append((hadamard(F, G), _former_hadamard(fF, fG)))
            D = np.maximum(F.A, G.A) + 0.25
            out.append((weighted_sum(F, G, D, norms), _former_weighted_sum(F, G, fF, fG, D, norms)))
            xi = _block_sums(d)
            out.append((weighted_sum(F, G, D, norms, xi), _former_weighted_sum(F, G, fF, fG, D, norms, xi)))
            out.append((dual(F), _former_dual(fF)))
        # closures of closures
        (F, fF), (G, fG) = group[0], group[-1]
        norms = norm_choices[0]
        C = compose(F, G)
        S, fS = shifted(C, 0.125, norms), _former_shifted(C, _former_compose(fF, fG), 0.125, norms)
        out.append((S, fS))
        out.append((dual(S), _former_dual(fS)))
        out.append((shifted(dual(G), 0.5, norms), _former_shifted(G, _former_dual(fG), 0.5, norms)))
    return out


CASES = _cases()


def _point(rng, shape):
    scale = 10.0 ** rng.uniform(-2, 2, shape.d)
    return ProductVector([rng.uniform(0.05, 3.0, n) * s for n, s in zip(shape.sizes, scale)])


def _check_kernel(F, former, x):
    got = maps._kernel(F)(x.flat)
    assert _same_bits(got, evaluate(F, x).flat), F.label
    assert _same_bits(got, former(x).flat), F.label


class TestKernels:
    def test_every_builtin_map_has_a_flat_kernel(self):
        for F, _ in CASES:
            assert isinstance(maps._kernel(F), maps._Adapter) == F.label.startswith("user("), F.label

    def test_kernels_match_evaluate_and_the_former_evaluators(self):
        rng = np.random.default_rng(7)
        for F, former in CASES:
            for _ in range(5):
                _check_kernel(F, former, _point(rng, F.shape))

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(st.data())
    def test_kernels_on_drawn_points(self, data):
        F, former = CASES[data.draw(st.integers(0, len(CASES) - 1))]
        entries = st.floats(1e-3, 1e3, allow_nan=False, allow_infinity=False)
        x = ProductVector([data.draw(st.lists(entries, min_size=n, max_size=n)) for n in F.shape.sizes])
        _check_kernel(F, former, x)

    def test_evaluator_output_is_read_only(self):
        rng = np.random.default_rng(3)
        for F, _ in CASES:
            assert not F.evaluator(_point(rng, F.shape)).flat.flags.writeable

    def test_adapter_checks_the_output(self):
        F = MapInstance(shape=ShapeSpec((2,)), A=[[1.0]], evaluator=lambda x: np.ones(2), label="bare")
        with pytest.raises(ValueError, match="bare returned a ndarray, not a ProductVector"):
            maps._kernel(F)(np.ones(2))
        with pytest.raises(ValueError, match="bare returned a ndarray"):
            evaluate(shifted(F, 0.5, NormSpec.euclidean(1)), ProductVector([[1.0, 1.0]]))


# ---------------------------------------------------------------------------
# the power loop through the adapter
# ---------------------------------------------------------------------------


def _hex(values):
    return [float(v).hex() for v in np.ravel(values)]


def _same_report(got, want):
    assert got.status == want.status and got.iterations == want.iterations
    assert _hex(got.bracket_trace) == _hex(want.bracket_trace)
    assert _same_bits(got.eigenpair.x.flat, want.eigenpair.x.flat)
    assert _same_bits(got.eigenpair.lam, want.eigenpair.lam)
    assert _hex([got.eigenpair.r_b, got.residual]) == _hex([want.eigenpair.r_b, want.residual])
    for field in ("messages", "rate_bound", "envelope_ok", "error_radius", "delta_trace", "r_extrapolated"):
        assert getattr(got, field) == getattr(want, field), field


# all-ones is the motivating map's fixed point; this start takes 35 steps
_START = ProductVector([[1.0, 2.0], [3.0, 1.0]])

_SOLVE_MAPS = [
    (motivating_map, 2),
    (lambda: linear_map([[1.0, 1.0], [0.0, 1.0]]), 1),
    (lambda: linear_map([[0.0, 0.27], [0.99, 0.0]]), 1),
    (lambda: singular_map([[1.0, 2.0, 0.0], [0.0, 1.0, 3.0]]), 2),
    (lambda: tensor_eigen_map(np.arange(1.0, 9.0).reshape(2, 2, 2), 3.0), 1),
]


class TestAdapterPath:
    @pytest.mark.parametrize("make, d", _SOLVE_MAPS)
    def test_user_evaluator_solves_bit_identically(self, make, d):
        F = make()
        G = dataclasses.replace(F, evaluator=lambda x: F.evaluator(x))
        assert isinstance(maps._kernel(G), maps._Adapter) and not isinstance(maps._kernel(F), maps._Adapter)
        cfg = SolverConfig(norms=NormSpec.euclidean(d), delta_schedule=DeltaSchedule(1.0, 0.5, 1e-3))
        _same_report(power_method(G, None, cfg), power_method(F, None, cfg))
        _same_report(delta_continuation(G, cfg), delta_continuation(F, cfg))

    def test_the_eigenvector_is_the_vector_the_evaluator_last_saw(self):
        # what a user's evaluator caches on a vector (its blocks, say) serves
        # the certificate's evaluations at the eigenvector too
        F, seen = motivating_map(), []
        G = dataclasses.replace(F, evaluator=lambda x: seen.append(x) or F.evaluator(x))
        rep = power_method(G, _START, SolverConfig(norms=NormSpec.euclidean(2)))
        assert rep.status == "converged" and rep.iterations > 20
        assert rep.eigenpair.x is seen[-1]
        seen.clear()
        rep = power_method(G, _START, SolverConfig(norms=NormSpec.euclidean(2), max_iter=3))
        assert rep.status == "max_iter" and rep.eigenpair.x is seen[-1]


# ---------------------------------------------------------------------------
# no vector per step
# ---------------------------------------------------------------------------


def _vectors_built(run):
    """(result, the number of ``_wrap`` calls and ``ProductVector.__init__`` calls while run() ran)."""
    targets = {cones._wrap.__code__, ProductVector.__init__.__code__}
    count = 0

    def hook(frame, event, arg):
        nonlocal count
        if event == "call" and frame.f_code in targets:
            count += 1

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        result = run()
    finally:
        sys.setprofile(previous)
    return result, count


class TestNoVectorPerStep:
    def test_a_shifted_linear_solve_builds_no_vector_per_step(self):
        F = shifted(linear_map([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0]]), 1e-6, NormSpec.euclidean(1))
        counts = {}
        for steps in (5, 50):
            cfg = SolverConfig(norms=NormSpec.euclidean(1), tol=1e-300, max_iter=steps)
            rep, counts[steps] = _vectors_built(lambda: power_method(F, None, cfg))
            assert rep.status == "max_iter" and rep.iterations == steps
        # the start and its normalization, the first step through evaluate,
        # then the eigenvector and its evaluation at max_iter
        assert counts[50] == counts[5] <= 6

    def test_a_converged_solve_builds_no_vector_per_step(self):
        F = motivating_map()
        cfg = SolverConfig(norms=NormSpec.euclidean(2))
        rep, count = _vectors_built(lambda: power_method(F, _START, cfg))
        assert rep.status == "converged" and rep.iterations > 20
        assert count <= 5


# ---------------------------------------------------------------------------
# bonsall_estimate on the kernel
# ---------------------------------------------------------------------------


def _former_bonsall(F, x, b, m, norms):
    w = cones.as_weight_vector(b, F.shape.d)
    norm_of = cones._norm_kernel(F.shape, norms)
    acc, cur = 0.0, x
    for _ in range(m):
        y = evaluate(F, cur)
        if not np.all(np.isfinite(y.flat)):
            raise ValueError("overflow despite renormalization")
        ns = norm_of(y.flat)
        growth = cones._weighted_product(ns, w)
        if growth <= 0.0:
            raise ValueError("orbit hit the cone boundary")
        acc += math.log(growth)
        cur = ProductVector.from_flat(y.shape._spread(1.0 / ns) * y.flat, y.shape)
    return float(math.exp(acc / m))


def _turning(F, bad, after=2, domain="cone"):
    """F's evaluator, returning ``bad`` from call ``after + 1`` on."""
    calls = []

    def ev(x):
        calls.append(1)
        return F.evaluator(x) if len(calls) <= after else ProductVector([bad])

    return MapInstance(shape=F.shape, A=F.A, evaluator=ev, label="turning", domain=domain)


class TestBonsall:
    def test_bit_for_bit(self):
        rng = np.random.default_rng(5)
        for F, _ in CASES[::3]:
            x = _point(rng, F.shape)
            b = rng.uniform(0.2, 1.0, F.shape.d)
            norms = NormSpec.euclidean(F.shape.d)
            for m in (1, 2, 17):
                assert bonsall_estimate(F, x, b, m, norms).hex() == _former_bonsall(F, x, b, m, norms).hex()

    @pytest.mark.parametrize(
        "bad, domain, message",
        [
            ([1.0, -1.0, 1.0], "cone", "negative input entries"),
            ([1.0, 0.0, 1.0], "interior", "turning is only defined on strictly positive vectors"),
            ([1.0, 1.0], "cone", "shape mismatch: map (3,), output (2,)"),
        ],
    )
    def test_errors_as_before(self, bad, domain, message):
        F = linear_map(np.triu(np.ones((3, 3))))
        x, norms = ProductVector([[1.0, 2.0, 3.0]]), NormSpec.euclidean(1)
        for estimate in (bonsall_estimate, _former_bonsall):
            with pytest.raises(ValueError, match=message.replace("(", r"\(").replace(")", r"\)")):
                estimate(_turning(F, bad, domain=domain), x, [1.0], 5, norms)


# ---------------------------------------------------------------------------
# checked A: shifts and the multilinear layout cache
# ---------------------------------------------------------------------------


class TestCheckedA:
    def test_shifted_takes_the_checked_A(self, monkeypatch):
        F = motivating_map()
        calls = []
        check = maps.check_homogeneity_matrix
        monkeypatch.setattr(maps, "check_homogeneity_matrix", lambda A, d: calls.append(1) or check(A, d))
        for delta in (1.0, 0.5, 0.25):
            assert shifted(F, delta, NormSpec.euclidean(2)).A is F.A
        assert dual(F).A is F.A and calls == []
        # a user's A is checked, also another map's
        MapInstance(shape=F.shape, A=F.A, evaluator=F.evaluator, label="same")
        assert len(calls) == 1
        with pytest.raises(ValueError, match="finite and nonnegative"):
            MapInstance(shape=F.shape, A=[[0.0, -1.0], [1.0, 0.0]], evaluator=F.evaluator, label="bad")
        with pytest.raises(ValueError, match="must be 1x1"):
            MapInstance(shape=ShapeSpec((2,)), A=F.A, evaluator=F.evaluator, label="bad")

    def test_multilinear_layout_is_cached(self):
        info = maps._layout.cache_info()
        rng = np.random.default_rng(1)
        F, G = linear_map(rng.uniform(0.1, 1.0, (3, 3))), linear_map(rng.uniform(0.1, 1.0, (5, 5)))
        assert F.A is G.A and not F.A.flags.writeable
        assert maps._layout.cache_info().hits >= info.hits + 1
        assert maps._layout.cache_info().maxsize == 64
        blocks, A = maps._layout((0, 1), (3.0, 1.5))
        assert isinstance(blocks, tuple) and A is pq_singular_map(np.ones((2, 4)), 3.0, 1.5).A
        np.testing.assert_array_equal(A, [[0.0, 0.5], [2.0, 0.0]])
        with pytest.raises(ValueError, match="every exponent p must be > 1"):
            pq_singular_map(np.ones((2, 2)), 1.0, 2.0)
