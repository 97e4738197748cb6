"""The one rule of the closure algebra, and the closures' kernels against their former code.

Every closure derives its flags from its parts: differentiable when every
part is (and its norms, where a norm factor uses them), exact when every
part is, on the open cone when a part is or when it is a dual, with a
Jacobian when every part has one, and sharing its one part's A and
``analysis`` when that A is the part's own.  The former kernels below are the
library's code before the closures shared one constructor and the block
powers one kernel; the new code must give their floats to the last bit.
"""

import math

import numpy as np
import pytest

from mhspectral import (
    NormSpec,
    ProductVector,
    ShapeSpec,
    compose,
    dual,
    hadamard,
    linear_map,
    matrix_power_scale,
    max_example_map,
    motivating_map,
    nonirr_map,
    shifted,
    singular_map,
    tensor_eigen_map,
    tight_map,
    weighted_sum,
)
from mhspectral import cones, maps
from mhspectral.cones import _wrap

# kind -> (shape, builder from an rng, differentiable, exact, has a Jacobian)
_LEAVES = {
    "linear": ((2,), lambda rng: linear_map(rng.uniform(0.2, 2.0, (2, 2))), True, True, True),
    "tensor_eigen": ((2,), lambda rng: tensor_eigen_map(rng.uniform(0.2, 2.0, (2, 2, 2)), 3.0), True, True, True),
    "max_example": ((3,), lambda rng: max_example_map(0.3), False, True, False),
    "linear3": ((3,), lambda rng: linear_map(rng.uniform(0.2, 2.0, (3, 3))), True, True, True),
    "motivating": ((2, 2), lambda rng: motivating_map(), True, True, True),
    "nonirr": ((2, 2), lambda rng: nonirr_map(), False, False, False),
    "singular": ((2, 2), lambda rng: singular_map(rng.uniform(0.2, 2.0, (2, 2))), True, True, True),
}
_SELECTORS = (1.0, 2.0, 3.0, math.inf, "phi")


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _norms(shape, picks):
    return NormSpec([np.linspace(0.5, 2.0, n) if s == "phi" else s for n, s in zip(shape.sizes, picks)])


class TestClosureRule:
    def test_flags_domain_and_A_follow_the_parts(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        def draw_map(data, rng, sizes, depth):
            """(map, expected (differentiable, exact, domain, A, has Jacobian)) of a drawn tree on sizes."""
            kinds = [k for k, leaf in _LEAVES.items() if leaf[0] == sizes]
            ops = ["leaf"] + (["compose", "hadamard", "weighted_sum", "shifted", "dual"] if depth else [])
            op = data.draw(st.sampled_from(ops))
            if op == "leaf":
                _, build, smooth, exact, has_jac = _LEAVES[data.draw(st.sampled_from(kinds))]
                F = build(rng)
                return F, (smooth, exact, "cone", F.A, has_jac)
            F, (sF, eF, dF, AF, jF) = draw_map(data, rng, sizes, depth - 1)
            if op in ("shifted", "dual"):
                if op == "dual":
                    G = dual(F)
                    want = (sF, eF, "interior", AF, jF)
                else:
                    norms = _norms(F.shape, [data.draw(st.sampled_from(_SELECTORS)) for _ in sizes])
                    G = shifted(F, data.draw(st.floats(1e-3, 10.0)), norms)
                    want = (sF and norms.is_smooth_interior(), eF, dF, AF, False)
                assert G.A is F.A and G.analysis is F.analysis
                return G, want
            H, (sH, eH, dH, AH, jH) = draw_map(data, rng, sizes, depth - 1)
            domain = "interior" if "interior" in (dF, dH) else "cone"
            if op == "compose":
                return compose(F, H), (sF and sH, eF and eH, domain, AF @ AH, jF and jH)
            if op == "hadamard":
                return hadamard(F, H), (sF and sH, eF and eH, domain, AF + AH, jF and jH)
            D = np.maximum(AF, AH) + data.draw(st.sampled_from([0.0, 0.5]))
            norms = _norms(F.shape, [data.draw(st.sampled_from(_SELECTORS)) for _ in sizes])
            smooth = sF and sH and norms.is_smooth_interior()
            return weighted_sum(F, H, D, norms), (smooth, eF and eH, domain, D, False)

        @hypothesis.settings(max_examples=150, deadline=None)
        @hypothesis.given(st.data(), st.sampled_from([(2,), (3,), (2, 2)]), st.integers(0, 2**32 - 1))
        def check(data, sizes, seed):
            M, (smooth, exact, domain, A, has_jac) = draw_map(data, np.random.default_rng(seed), sizes, 2)
            assert M.differentiable is smooth and M.homogeneity_exact is exact and M.domain == domain
            assert _same_bits(M.A, A) and (M.jacobian is not None) is has_jac
            x = ProductVector([np.linspace(0.5, 1.5, n) for n in sizes])
            assert np.all(np.isfinite(M(x).flat))

        check()

    def test_two_part_closures_refuse_two_shapes(self):
        F, G = linear_map(np.ones((2, 2))), motivating_map()
        H = linear_map(np.ones((3, 3)))
        for build in (compose, hadamard, lambda F, G: weighted_sum(F, G, [[1.0]], NormSpec.euclidean(1))):
            for other in (G, H):
                with pytest.raises(ValueError, match="maps must share one shape"):
                    build(F, other)


# ---------------------------------------------------------------------------
# the former code
# ---------------------------------------------------------------------------


def _former_weighted_sum_kernel(F, G, D, norms):
    shape = F.shape
    functionals = cones._norm_kernel(shape, norms)
    DA, DB = D - F.A, D - G.A
    kF, kG, spread = maps._kernel(F), maps._kernel(G), shape._spread

    def kernel(flat):
        N = functionals(flat)
        fx = spread(matrix_power_scale(N, DA)) * kF(flat)
        gx = spread(matrix_power_scale(N, DB)) * kG(flat)
        return fx + gx

    return kernel


def _former_shifted_kernel(F, delta, norms):
    A, shape, kF = F.A, F.shape, maps._kernel(F)
    norm_of = cones._norm_kernel(shape, norms)
    if shape.d == 1:
        norm, a = cones._selector_norm(*norms.selectors[0]), A.item(0)

        def kernel(flat):
            y = kF(flat)
            n = norm(flat)
            scale = np.exp(a * np.log(n)) if n > 0.0 else cones._power_scale(np.array([n]), A)
            return y + delta * scale

        return kernel
    spread = shape._spread
    return lambda flat: kF(flat) + spread(delta * cones._power_scale(norm_of(flat), A))


def _former_tight(A, shape):
    A = np.asarray(A, dtype=float)

    def kernel(flat):
        return np.repeat(matrix_power_scale(flat[shape._starts], A), shape.sizes)

    def jac(x):
        heads = np.array([blk[0] for blk in x.blocks])
        vals = matrix_power_scale(heads, A)
        J = np.zeros((shape.total, shape.total))
        head_cols = np.cumsum([0] + list(shape.sizes))[:-1]
        row = 0
        for i, n in enumerate(shape.sizes):
            for _ in range(n):
                J[row, head_cols] = A[i] * vals[i] / heads
                row += 1
        return J

    return kernel, jac


def _former_compose_jacobian(F, G):
    return lambda x: F.jacobian(G.evaluator(x)) @ G.jacobian(x)


def _former_hadamard_jacobian(F, G):
    def jac(x):
        fx, gx = F.evaluator(x).concat(), G.evaluator(x).concat()
        return gx[:, None] * F.jacobian(x) + fx[:, None] * G.jacobian(x)

    return jac


def _former_dual_jacobian(F):
    def jac(x):
        inner = _wrap(1.0 / x.flat, x.shape)
        out = F.evaluator(inner).concat()
        J = F.jacobian(inner)
        return (out ** -2.0)[:, None] * J * (x.concat() ** -2.0)[None, :]

    return jac


def _parts(rng):
    """Pairs of smooth maps of one shape: one block of 1, 2 and 3 entries, two blocks of 2."""
    for n in (1, 2, 3):
        yield linear_map(rng.uniform(0.2, 2.0, (n, n))), tensor_eigen_map(rng.uniform(0.2, 2.0, (n,) * 3), 2.5)
    yield motivating_map(), singular_map(rng.uniform(0.2, 2.0, (2, 2)))
    M = rng.uniform(0.2, 2.0, (2, 3))
    yield singular_map(M), maps.pq_singular_map(M, 3.0, 1.5)


def _points(rng, shape, zero_block=True):
    """Positive points over six decades, and one with a zero block where zero_block."""
    for _ in range(6):
        yield _wrap(rng.uniform(0.05, 3.0, shape.total) * 10.0 ** rng.uniform(-3, 3), shape)
    if zero_block:
        flat = rng.uniform(0.05, 3.0, shape.total)
        flat[shape._slices[-1]] = 0.0
        yield _wrap(flat, shape)


class TestFormerCode:
    def test_weighted_sum_and_shift_kernels(self):
        rng = np.random.default_rng(2019)
        for F, G in _parts(rng):
            shape = F.shape
            for picks in [[s] * shape.d for s in _SELECTORS] + [list(rng.choice(_SELECTORS, shape.d))]:
                norms = _norms(shape, [s if s == "phi" else float(s) for s in picks])
                for extra in (0.0, 0.5):
                    D = np.maximum(F.A, G.A) + extra
                    new = weighted_sum(F, G, D, norms).evaluator.kernel
                    former = _former_weighted_sum_kernel(F, G, D, norms)
                    for x in _points(rng, shape):
                        assert _same_bits(new(x.flat), former(x.flat))
                for delta in (1e-6, 0.5, 3.0):
                    new, former = shifted(F, delta, norms).evaluator.kernel, _former_shifted_kernel(F, delta, norms)
                    for x in _points(rng, shape):
                        assert _same_bits(new(x.flat), former(x.flat))

    @pytest.mark.parametrize(
        "A, sizes",
        [
            ([[0.5]], (2,)),
            ([[1.0]], (5,)),
            ([[1.0, 0.5], [0.0, 0.5]], (2, 3)),
            ([[0.0, 2.0], [0.125, 0.0]], (2, 2)),
            ([[0.3, 0.0, 0.7], [0.0, 1.0, 0.0], [0.2, 0.2, 0.2]], (4, 2, 3)),
        ],
    )
    def test_tight_kernel_and_jacobian(self, A, sizes):
        rng = np.random.default_rng(7)
        shape, T = ShapeSpec(sizes), tight_map(A, sizes)
        former_kernel, former_jac = _former_tight(A, shape)
        for x in _points(rng, shape, zero_block=False):
            assert _same_bits(T.evaluator.kernel(x.flat), former_kernel(x.flat))
            assert _same_bits(T.jacobian(x), former_jac(x))
        # a zero head takes the 0^0 = 1 branch in the blocks whose row of A
        # skips it, and gives 0 in the others
        for k in range(shape.d):
            flat = rng.uniform(0.5, 2.0, shape.total)
            flat[shape._starts[k]] = 0.0
            assert _same_bits(T.evaluator.kernel(flat), former_kernel(flat))
        assert _same_bits(T.evaluator.kernel(np.zeros(shape.total)), former_kernel(np.zeros(shape.total)))

    def test_closure_jacobians(self):
        rng = np.random.default_rng(2020)
        for F, G in _parts(rng):
            cases = [
                (compose(F, G).jacobian, _former_compose_jacobian(F, G)),
                (hadamard(F, G).jacobian, _former_hadamard_jacobian(F, G)),
                (dual(F).jacobian, _former_dual_jacobian(F)),
                (compose(dual(G), F).jacobian, _former_compose_jacobian(dual(G), F)),
                (hadamard(dual(F), dual(G)).jacobian, _former_hadamard_jacobian(dual(F), dual(G))),
                (dual(hadamard(F, G)).jacobian, _former_dual_jacobian(hadamard(F, G))),
            ]
            for x in _points(rng, F.shape, zero_block=False):
                for new, former in cases:
                    assert _same_bits(new(x), former(x))
