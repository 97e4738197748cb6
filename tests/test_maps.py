"""Map families, closure algebra, and structure verification."""

import dataclasses

import numpy as np
import pytest

from mhspectral import (
    MapInstance,
    NormSpec,
    ProductVector,
    ShapeSpec,
    block_norms,
    compose,
    dual,
    euler_residual,
    evaluate,
    hadamard,
    has_kink,
    irrex_map,
    linear_map,
    matrix_power_scale,
    max_example_map,
    motivating_map,
    nonirr_map,
    numeric_jacobian,
    ones_vector,
    pq_singular_map,
    random_interior,
    scale_blocks,
    shifted,
    singular_map,
    tensor_eigen_map,
    tight_map,
    verify_multihomogeneous,
    verify_order_preserving,
    weighted_sum,
)

IRREX_DF1 = np.array(
    [
        [0.25, 0.25, 0.5, 0.0],
        [0.25, 0.25, 0.0, 0.5],
        [0.0, 0.0, 0.5, 0.5],
        [0.0, 0.0, 0.5, 0.5],
    ]
)

def _verified_builtins(rng):
    """Built-ins that are genuinely multi-homogeneous (nonirr_map is not)."""
    M = rng.uniform(0.3, 2.0, (3, 3))
    R = rng.uniform(0.3, 2.0, (2, 3))
    T = rng.uniform(0.2, 1.5, (3, 3, 3))
    return [
        linear_map(M),
        singular_map(R),
        pq_singular_map(R, 3.0, 5.0),
        tensor_eigen_map(T, 4.0),
        max_example_map(0.4),
        motivating_map(),
        irrex_map(),
        tight_map([[0.5, 0.5], [0.25, 0.75]], (2, 2)),
    ]

class TestEvaluate:
    def test_motivating_fixed_point_at_ones(self):
        F = motivating_map()
        x = ones_vector(F.shape)
        assert evaluate(F, x) == x

    def test_max_example_fixed_and_nonfixed(self):
        F = max_example_map(0.3)
        fixed = ProductVector([[1.0, 0.5, 0.7]])
        assert evaluate(F, fixed) == fixed
        moved = evaluate(F, ProductVector([[1.0, 0.2, 0.5]]))
        np.testing.assert_allclose(moved.blocks[0], [1.0, 0.3, 0.5])

    def test_linear_is_matrix_product(self):
        rng = np.random.default_rng(0)
        M = rng.uniform(0, 2, (4, 4)) + np.eye(4)
        F = linear_map(M)
        x = random_interior(F.shape, rng)
        np.testing.assert_allclose(evaluate(F, x).blocks[0], M @ x.blocks[0])

    def test_negative_input_rejected(self):
        with pytest.raises(ValueError):
            evaluate(motivating_map(), ProductVector([[1, -1], [1, 1]]))

class TestFamilyConstruction:
    def test_declared_matrices(self):
        assert motivating_map().A.tolist() == [[0.0, 2.0], [0.125, 0.0]]
        assert singular_map([[1.0]]).A.tolist() == [[0.0, 1.0], [1.0, 0.0]]
        s = 1.0 / 3.0
        np.testing.assert_allclose(
            pq_singular_map([[1.0, 2.0], [3.0, 4.0]], 4, 4).A, [[0, s], [s, 0]]
        )
        np.testing.assert_allclose(tensor_eigen_map(np.ones((2, 2, 2)), 3.0).A, [[1.0]])
        assert linear_map(np.eye(2)).A.tolist() == [[1.0]]

    def test_family_validation(self):
        with pytest.raises(ValueError, match="zero row"):
            linear_map([[0, 0], [1, 1]])
        with pytest.raises(ValueError, match="column"):
            singular_map([[1, 0], [1, 0]])
        with pytest.raises(ValueError):
            pq_singular_map(np.ones((2, 2)), 1.0, 4.0)
        with pytest.raises(ValueError, match="slice"):
            tensor_eigen_map(np.array([[0.0, 0.0], [1.0, 1.0]]), 2.5)
        with pytest.raises(ValueError):
            max_example_map(1.0)
        with pytest.raises(ValueError, match=">= 2"):
            tight_map([[1.0]], (1,))

    def test_pq_two_two_reduces_to_singular(self):
        rng = np.random.default_rng(1)
        M = rng.uniform(0.2, 2.0, (3, 2))
        F, G = pq_singular_map(M, 2, 2), singular_map(M)
        z = random_interior(F.shape, rng)
        np.testing.assert_allclose(evaluate(F, z).concat(), evaluate(G, z).concat())

    def test_singular_is_bit_identical_to_the_pair_map(self):
        # singular_map is pq_singular_map at p = q = 2: the exponents 1/(p-1)
        # are exactly 1, so its values and Jacobian are those of the closed
        # forms (My, M^T x) and [[0, M], [M^T, 0]] to the last bit
        rng = np.random.default_rng(11)
        for _ in range(300):
            m, n = (int(k) for k in rng.integers(1, 7, 2))
            M = rng.uniform(0.0, 2.0, (m, n)) * (rng.random((m, n)) < 0.7)
            M[np.arange(m), rng.integers(0, n, m)] += 0.5
            M[rng.integers(0, m, n), np.arange(n)] += 0.5
            F = singular_map(M)
            z = random_interior(F.shape, rng, 0.0, 3.0)
            x, y = z.blocks
            want = np.concatenate((M @ y, M.T @ x))
            J = np.zeros((m + n, m + n))
            J[:m, m:], J[m:, :m] = M, M.T
            assert evaluate(F, z).flat.tobytes() == want.tobytes()
            assert F.jacobian(z).tobytes() == J.tobytes()
            assert F.label == f"singular({m}x{n})"
            assert F.A.tolist() == [[0.0, 1.0], [1.0, 0.0]]

    def test_tensor_order_two_reduces_to_powered_linear(self):
        rng = np.random.default_rng(2)
        M = rng.uniform(0.2, 2.0, (3, 3))
        F = tensor_eigen_map(M, 3.0)
        x = random_interior(F.shape, rng)
        np.testing.assert_allclose(
            evaluate(F, x).blocks[0], (M @ x.blocks[0]) ** 0.5, rtol=1e-14
        )

    def test_tensor_homogeneity_row(self):
        # order 3 with p = 3 is exactly 1-homogeneous
        T = np.random.default_rng(3).uniform(0.1, 1.0, (2, 2, 2))
        assert tensor_eigen_map(T, 3.0).A.tolist() == [[1.0]]

class TestVerification:
    def test_builtins_multihomogeneous(self):
        rng = np.random.default_rng(4)
        for F in _verified_builtins(rng):
            rep = verify_multihomogeneous(F, samples=300, tol=1e-9, seed=11)
            assert rep.passed, (F.label, rep.max_deviation)

    def test_corrupted_matrix_fails(self):
        F = motivating_map()
        bad = dataclasses.replace(F, A=np.array([[0.0, 2.0], [0.5, 0.0]]))
        assert not verify_multihomogeneous(bad, samples=50, seed=1).passed

    def test_tight_random_admissible(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            A = rng.uniform(0.05, 1.2, (3, 3))
            F = tight_map(A, (2, 2, 3))
            assert verify_multihomogeneous(F, samples=100, seed=2).passed

    def test_builtins_order_preserving(self):
        rng = np.random.default_rng(6)
        for F in _verified_builtins(rng) + [nonirr_map()]:
            rep = verify_order_preserving(F, samples=300, seed=7)
            assert rep.passed, F.label

    def test_order_preservation_negative_controls(self):
        diff = MapInstance(
            shape=ShapeSpec((2,)),
            A=[[1.0]],
            evaluator=lambda x: ProductVector(
                [[abs(x.blocks[0][0] - x.blocks[0][1]) + 0.1, x.blocks[0][1]]]
            ),
            label="difference-map",
        )
        assert not verify_order_preserving(diff, samples=200, seed=8).passed
        M = np.array([[1.0, -0.5], [0.5, 1.0]])
        M.setflags(write=False)
        signed = MapInstance(
            shape=ShapeSpec((2,)),
            A=[[1.0]],
            evaluator=lambda x: ProductVector([M @ x.blocks[0]]),
            label="signed-linear",
        )
        assert not verify_order_preserving(signed, samples=200, seed=9).passed

    def test_positivity_on_interior(self):
        rng = np.random.default_rng(7)
        for F in _verified_builtins(rng):
            for _ in range(50):
                assert evaluate(F, random_interior(F.shape, rng)).is_pos(), F.label

class TestAlgebra:
    def test_compose_of_linear_is_linear_product(self):
        rng = np.random.default_rng(8)
        M, N = rng.uniform(0.2, 2, (3, 3)), rng.uniform(0.2, 2, (3, 3))
        H = compose(linear_map(M), linear_map(N))
        x = random_interior(H.shape, rng)
        np.testing.assert_allclose(
            evaluate(H, x).blocks[0], (M @ N) @ x.blocks[0], rtol=1e-13
        )

    def test_compose_homogeneity_is_product(self):
        F = motivating_map()
        H = compose(F, F)
        np.testing.assert_allclose(H.A, F.A @ F.A)
        assert verify_multihomogeneous(H, samples=200, seed=3).passed
        cube = compose(H, F)
        np.testing.assert_allclose(cube.A, np.linalg.matrix_power(np.asarray(F.A), 3))
        assert verify_multihomogeneous(cube, samples=200, seed=4).passed

    def test_hadamard_homogeneity_is_sum(self):
        F, G = motivating_map(), irrex_map()
        H = hadamard(F, G)
        np.testing.assert_allclose(H.A, F.A + G.A)
        assert verify_multihomogeneous(H, samples=200, seed=5).passed

    def test_weighted_sum_dominating_matrix(self):
        F, G = motivating_map(), irrex_map()
        D = np.maximum(F.A, G.A) + 0.25
        norms = NormSpec.euclidean(2)
        H = weighted_sum(F, G, D, norms)
        np.testing.assert_allclose(H.A, D)
        assert verify_multihomogeneous(H, samples=200, seed=6).passed
        with pytest.raises(ValueError, match="dominate"):
            weighted_sum(F, G, np.asarray(F.A) * 0.5 + 0.01, norms)

    def test_weighted_sum_reduces_to_sum_on_slice(self):
        F, G = motivating_map(), irrex_map()
        norms = NormSpec.euclidean(2)
        D = np.maximum(F.A, G.A) + 0.1
        H = weighted_sum(F, G, D, norms)
        rng = np.random.default_rng(9)
        from mhspectral import normalize

        x = normalize(random_interior(F.shape, rng), norms)
        np.testing.assert_allclose(
            evaluate(H, x).concat(),
            evaluate(F, x).concat() + evaluate(G, x).concat(),
            rtol=1e-12,
        )

    def test_weighted_sum_default_functionals_are_the_block_norms(self):
        F, G = motivating_map(), irrex_map()
        D = np.maximum(F.A, G.A) + 0.3
        norms = NormSpec([3.0, [1.0, 2.0]])
        H = weighted_sum(F, G, D, norms)
        x = random_interior(F.shape, np.random.default_rng(4))
        N = block_norms(x, norms)
        want = scale_blocks(matrix_power_scale(N, D - F.A), evaluate(F, x)) + scale_blocks(
            matrix_power_scale(N, D - G.A), evaluate(G, x)
        )
        assert evaluate(H, x).flat.tobytes() == want.flat.tobytes()
        # a spec that does not fit the shape is refused when the map is built
        for bad, msg in ((NormSpec.euclidean(1), "block count"), (NormSpec([2.0, [1.0]]), "phi weight")):
            with pytest.raises(ValueError, match=msg):
                weighted_sum(F, G, D, bad)

    def test_weighted_sum_user_functionals(self):
        F, G = motivating_map(), irrex_map()
        D = np.maximum(F.A, G.A) + 0.2
        norms = NormSpec.euclidean(2)
        block_sums = [
            lambda x: float(np.sum(x.blocks[0])),
            lambda x: float(np.sum(x.blocks[1])),
        ]
        H = weighted_sum(F, G, D, norms, xi=block_sums)
        assert verify_multihomogeneous(H, samples=100, seed=12).passed
        global_max = [lambda x: float(max(b.max() for b in x.blocks))] * 2
        with pytest.raises(ValueError, match="spot check"):
            weighted_sum(F, G, D, norms, xi=global_max)

    def test_shifted_keeps_matrix_and_adds_delta_on_slice(self):
        F = motivating_map()
        norms = NormSpec.euclidean(2)
        Fd = shifted(F, 0.7, norms)
        np.testing.assert_allclose(Fd.A, F.A)
        assert verify_multihomogeneous(Fd, samples=200, seed=7).passed
        rng = np.random.default_rng(10)
        from mhspectral import normalize

        x = normalize(random_interior(F.shape, rng), norms)
        np.testing.assert_allclose(
            evaluate(Fd, x).concat(), evaluate(F, x).concat() + 0.7, rtol=1e-12
        )
        with pytest.raises(ValueError):
            shifted(F, 0.0, norms)

    def test_shifted_maps_semipositive_into_interior(self):
        F = motivating_map()
        Fd = shifted(F, 0.5, NormSpec.euclidean(2))
        x = ProductVector([[1, 0], [0, 1]])
        assert evaluate(Fd, x).is_pos()

class TestDualMap:
    def test_involution(self):
        rng = np.random.default_rng(11)
        F = motivating_map()
        G = dual(dual(F))
        for _ in range(30):
            x = random_interior(F.shape, rng)
            np.testing.assert_allclose(
                evaluate(G, x).concat(), evaluate(F, x).concat(), rtol=1e-12
            )

    def test_homogeneity_matrix_preserved(self):
        F = dual(motivating_map())
        np.testing.assert_allclose(F.A, motivating_map().A)
        assert verify_multihomogeneous(F, samples=200, seed=8).passed

    def test_boundary_rejected(self):
        F = dual(linear_map(np.eye(2) + 1.0))
        with pytest.raises(ValueError):
            evaluate(F, ProductVector([[1.0, 0.0]]))

class TestJacobians:
    def test_irrex_analytic_matrix_at_ones(self):
        F = irrex_map()
        J = numeric_jacobian(F, ones_vector(F.shape))
        np.testing.assert_allclose(J, IRREX_DF1, atol=1e-6)

    def test_linear_jacobian_is_matrix(self):
        rng = np.random.default_rng(12)
        M = rng.uniform(0.2, 2.0, (4, 4))
        F = linear_map(M)
        J = numeric_jacobian(F, random_interior(F.shape, rng))
        np.testing.assert_allclose(J, M, atol=1e-7)

    def test_numeric_matches_analytic(self):
        rng = np.random.default_rng(13)
        for F in _verified_builtins(rng):
            if F.jacobian is None:
                continue
            u = random_interior(F.shape, rng, 0.5, 1.5)
            Jn, Ja = numeric_jacobian(F, u), F.jacobian(u)
            scale = np.maximum(np.abs(Ja), 1.0)
            assert np.max(np.abs(Jn - Ja) / scale) < 1e-6, F.label

    def test_jacobians_entrywise_nonnegative(self):
        rng = np.random.default_rng(14)
        for F in _verified_builtins(rng):
            u = random_interior(F.shape, rng, 0.5, 1.5)
            assert numeric_jacobian(F, u).min() >= -1e-8, F.label

    def test_kink_detection(self):
        F = max_example_map(0.3)
        assert has_kink(F, ProductVector([[1.0, 1.0, 1.0]]))
        # away from all ties the max map is locally affine
        assert not has_kink(F, ProductVector([[1.0, 0.5, 0.7]]))

class TestEulerIdentity:
    def test_differentiable_builtins(self):
        rng = np.random.default_rng(15)
        for F in _verified_builtins(rng):
            if not F.differentiable:
                continue
            for _ in range(10):
                x = random_interior(F.shape, rng, 0.5, 1.5)
                assert euler_residual(F, x) < 1e-6, F.label

    def test_linear_exact(self):
        rng = np.random.default_rng(16)
        F = linear_map(rng.uniform(0.2, 2.0, (4, 4)))
        assert euler_residual(F, random_interior(F.shape, rng)) < 1e-10

    def test_finite_difference_path(self):
        # strip the analytic Jacobian so the identity is checked by differencing
        F = dataclasses.replace(motivating_map(), jacobian=None)
        rng = np.random.default_rng(17)
        x = random_interior(F.shape, rng, 0.5, 1.5)
        assert euler_residual(F, x) < 1e-6

    def test_corrupted_matrix_is_detected(self):
        F = dataclasses.replace(motivating_map(), A=np.array([[0.0, 2.0], [0.6, 0.0]]))
        rng = np.random.default_rng(18)
        x = random_interior(F.shape, rng, 0.5, 1.5)
        assert euler_residual(F, x) > 1e-2


def _exact_builtins():
    """One map of every built-in family with ``homogeneity_exact``: all but nonirr."""
    rng = np.random.default_rng(19)
    M = rng.uniform(0.3, 2.0, (3, 3))
    R = rng.uniform(0.3, 2.0, (2, 3))
    lin, ten = linear_map(M), tensor_eigen_map(rng.uniform(0.2, 1.5, (3, 3, 3)), 4.0)
    return [
        lin,
        singular_map(R),
        pq_singular_map(R, 3.0, 5.0),
        ten,
        max_example_map(0.4),
        motivating_map(),
        irrex_map(),
        tight_map([[0.5, 0.5], [0.25, 0.75]], (2, 2)),
        compose(lin, ten),
        hadamard(lin, ten),
        weighted_sum(lin, ten, [[1.0]], NormSpec.euclidean(1)),
        shifted(motivating_map(), 0.5, NormSpec.euclidean(2)),
        dual(pq_singular_map(R, 3.0, 5.0)),
    ]


class TestEulerIdentityProperty:
    """euler_residual is near 0 at hypothesis-drawn interior points of every exact family."""

    MAPS = _exact_builtins()
    # max_example is piecewise linear: off its kinks the identity holds.  Its
    # points come from a grid on which two untied pieces differ by far more
    # than the difference step, and the tied points are skipped.
    GRID = [k / 64.0 for k in range(32, 97)]

    def test_every_exact_family_is_drawn(self):
        from mhspectral.cli import _FAMILIES

        assert not nonirr_map().homogeneity_exact
        assert all(F.homogeneity_exact for F in self.MAPS)
        assert {F.label.split("(")[0] for F in self.MAPS} == set(_FAMILIES) - {"nonirr"}

    def test_residual_near_zero(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        @hypothesis.settings(max_examples=200, deadline=None)
        @hypothesis.given(st.sampled_from(range(len(self.MAPS))), st.data())
        def check(index, data):
            F = self.MAPS[index]
            value = st.sampled_from(self.GRID) if not F.differentiable else st.floats(0.5, 1.5)
            flat = data.draw(st.lists(value, min_size=F.shape.total, max_size=F.shape.total))
            x = ProductVector.from_flat(np.array(flat), F.shape)
            if not F.differentiable:
                hypothesis.assume(not has_kink(F, x))
            # analytic Jacobians to rounding, central differences to 1e-8
            tol = 1e-12 if F.jacobian is not None else 1e-8
            assert euler_residual(F, x) <= tol, F.label

        check()
