"""Block-vector arithmetic, the scaling algebra, norms, and the partial order."""

import math
import warnings

import numpy as np
import pytest

from mhspectral import (
    NormSpec,
    ProductVector,
    ShapeSpec,
    block_norms,
    matrix_power_scale,
    normalize,
    partial_order_compare,
    scale_blocks,
    weighted_norm_product,
)


class TestShapeSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            ShapeSpec(())
        with pytest.raises(ValueError):
            ShapeSpec((2, 0))
        s = ShapeSpec((2, 3))
        assert s.d == 2 and s.total == 5
        assert s.nodes() == [(0, 0), (0, 1), (1, 0), (1, 1), (1, 2)]

    def test_flat_round_trip(self):
        s = ShapeSpec((2, 3))
        x = ProductVector([[1, 2], [3, 4, 5]])
        assert ProductVector.from_flat(x.concat(), s) == x


class TestPredicates:
    def test_implication_chain(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            blocks = [rng.uniform(-0.2, 1.0, n) for n in (2, 3)]
            if rng.random() < 0.3:
                blocks[0][0] = 0.0
            x = ProductVector(blocks)
            if x.is_pos():
                assert x.is_semipos()
            if x.is_semipos():
                assert x.is_nonneg()

    def test_boundary_cases(self):
        assert ProductVector([[0, 1], [1, 0]]).is_semipos()
        assert not ProductVector([[0, 0], [1, 1]]).is_semipos()
        assert not ProductVector([[1e-20, 1], [1, 1]]).approx_pos()
        assert ProductVector([[1e-20, 1], [1, 1]]).is_pos()


class TestScaleBlocks:
    def test_identity_scaling(self):
        x = ProductVector([[1, 2], [3, 4]])
        assert scale_blocks([1, 1], x) == x

    def test_zero_annihilates_block(self):
        x = ProductVector([[1, 2], [3, 4]])
        assert scale_blocks([0, 1], x) == ProductVector([[0, 0], [3, 4]])

    def test_direct_evaluation(self):
        x = ProductVector([[1, 1], [1, 2]])
        assert scale_blocks([2, 3], x) == ProductVector([[2, 2], [3, 6]])

    def test_associativity(self):
        # IEEE multiplication reassociates within one ulp, so "exact" here
        # means equality up to a single rounding of each entry
        rng = np.random.default_rng(1)
        for _ in range(100):
            x = ProductVector([rng.uniform(0, 2, 2), rng.uniform(0, 2, 3)])
            a, b = rng.uniform(0.1, 3, 2), rng.uniform(0.1, 3, 2)
            lhs = scale_blocks(a, scale_blocks(b, x))
            rhs = scale_blocks(a * b, x)
            for lb, rb in zip(lhs.blocks, rhs.blocks):
                np.testing.assert_allclose(lb, rb, rtol=5e-16)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            scale_blocks([1, 2, 3], ProductVector([[1], [2]]))


class TestMatrixPowerScale:
    def test_identity_matrix(self):
        np.testing.assert_allclose(
            matrix_power_scale([2, 3], np.eye(2)), [2, 3], rtol=1e-12
        )

    def test_fractional_exponent(self):
        out = matrix_power_scale([4, 2], [[0, 2], [0.125, 0]])
        np.testing.assert_allclose(out, [4.0, 4**0.125], rtol=1e-12)
        assert abs(out[1] - 1.189207115002721) < 1e-12

    def test_exponent_addition_identity(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            a = rng.uniform(0.2, 5, 3)
            B, C = rng.uniform(-2, 2, (3, 3)), rng.uniform(-2, 2, (3, 3))
            lhs = matrix_power_scale(a, B) * matrix_power_scale(a, C)
            np.testing.assert_allclose(lhs, matrix_power_scale(a, B + C), rtol=1e-12)

    def test_exponent_product_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            a = rng.uniform(0.2, 5, 3)
            B, C = rng.uniform(-1.5, 1.5, (3, 3)), rng.uniform(-1.5, 1.5, (3, 3))
            lhs = matrix_power_scale(matrix_power_scale(a, C), B)
            np.testing.assert_allclose(lhs, matrix_power_scale(a, B @ C), rtol=1e-12)

    def test_base_product_identity(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            a, b = rng.uniform(0.2, 5, 3), rng.uniform(0.2, 5, 3)
            B = rng.uniform(-2, 2, (3, 3))
            lhs = matrix_power_scale(a * b, B)
            rhs = matrix_power_scale(a, B) * matrix_power_scale(b, B)
            np.testing.assert_allclose(lhs, rhs, rtol=1e-12)

    def test_zero_base_conventions(self):
        # 0^0 = 1 so a vanished coordinate with zero exponent contributes nothing
        out = matrix_power_scale([0, 2], [[0, 1], [2, 0]])
        np.testing.assert_allclose(out, [2.0, 0.0])
        with pytest.raises(ValueError):
            matrix_power_scale([0, 2], [[-0.5, 1], [0, 1]])
        with pytest.raises(ValueError):
            matrix_power_scale([-1, 2], np.eye(2))


class TestBlockNorms:
    def test_pythagorean(self):
        x = ProductVector([[3, 4], [1, 0]])
        np.testing.assert_allclose(block_norms(x, NormSpec([2, 2])), [5, 1])

    def test_sup_norm(self):
        x = ProductVector([[1, 1], [1, 1]])
        np.testing.assert_allclose(block_norms(x, NormSpec([math.inf, math.inf])), [1, 1])

    def test_mixed_exponents(self):
        x = ProductVector([[1, 2], [3, 4]])
        np.testing.assert_allclose(block_norms(x, NormSpec([1, 2])), [3, 5])

    def test_weighted_l1(self):
        x = ProductVector([[1, 2]])
        np.testing.assert_allclose(block_norms(x, NormSpec([[2.0, 0.5]])), [3.0])

    @pytest.mark.parametrize("blocks", [[[1e200, 1e200]], [[1e200, 1e200], [3.0, 4.0]], [[1e300, 1.0, 1e300]]])
    def test_euclidean_norm_does_not_overflow_when_it_fits(self, blocks):
        # the sum of squares overflows; the norm is a finite double.  Two
        # blocks of one size take the stacked path, the others the per-block one
        ns = block_norms(ProductVector(blocks), NormSpec.euclidean(len(blocks)))
        expected = [max(b) * math.sqrt(sum((v / max(b)) ** 2 for v in b)) for b in blocks]
        np.testing.assert_allclose(ns, expected, rtol=1e-15)
        assert block_norms(ProductVector([[1.5e308, 1.5e308]]), NormSpec.euclidean(1))[0] == math.inf

    @pytest.mark.parametrize("sizes", [(5,), (3, 3, 3), (2, 4)])
    def test_finite_euclidean_norms_keep_their_bits(self, sizes):
        rng = np.random.default_rng(9)
        for _ in range(20):
            blocks = [rng.uniform(0.0, 1.0, n) * 10.0 ** rng.uniform(-150.0, 150.0) for n in sizes]
            ns = block_norms(ProductVector(blocks), NormSpec.euclidean(len(sizes)))
            assert ns.tolist() == [math.sqrt(np.dot(b, b)) for b in blocks]

    @pytest.mark.parametrize("scale", [4e153, 6e153, 9e153, 1.2e154])
    def test_stacked_norms_near_the_overflow_keep_their_bits(self, scale):
        # sums of squares on both sides of half the largest double, and past
        # the largest in the last case: the stacked kernel and its per-block
        # fallback give the norms of the dot kernel, with no warning
        blocks = [np.array([scale, scale]), np.array([scale, 1.0])]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ns = block_norms(ProductVector(blocks), NormSpec.euclidean(2))
        assert ns[1] == math.sqrt(np.vdot(blocks[1], blocks[1]))
        expected = math.sqrt(np.vdot(blocks[0], blocks[0]))
        assert ns[0] == (expected if expected < math.inf else scale * math.sqrt(2.0))

    def test_invalid_exponent(self):
        with pytest.raises(ValueError):
            NormSpec([0.5])
        with pytest.raises(ValueError):
            NormSpec([[1.0, -1.0]])


class TestNormalize:
    def test_idempotent(self):
        norms = NormSpec([2, 2])
        x = normalize(ProductVector([[1, 2], [3, 4]]), norms)
        again = normalize(x, norms)
        for lb, rb in zip(again.blocks, x.blocks):
            np.testing.assert_allclose(lb, rb, rtol=5e-16)

    def test_direct(self):
        out = normalize(ProductVector([[3, 4], [0, 2]]), NormSpec([2, 2]))
        np.testing.assert_allclose(out.blocks[0], [0.6, 0.8])
        np.testing.assert_allclose(out.blocks[1], [0.0, 1.0])

    def test_huge_entries_normalize(self):
        out = normalize(ProductVector([[1e300, 1e300], [3.0, 4.0]]), NormSpec([2, 2]))
        np.testing.assert_allclose(out.flat, [0.5**0.5, 0.5**0.5, 0.6, 0.8], rtol=1e-15)

    def test_zero_block_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            normalize(ProductVector([[0, 0], [1, 1]]), NormSpec([2, 2]))


class TestWeightedNormProduct:
    def test_unit_on_slice(self):
        norms = NormSpec([2, 2])
        x = normalize(ProductVector([[1, 5], [2, 1]]), norms)
        assert abs(weighted_norm_product(x, [0.3, 0.7], norms) - 1.0) < 1e-14

    def test_direct_value(self):
        x = ProductVector([[2, 0], [0, 3]])
        val = weighted_norm_product(x, [0.5, 0.5], NormSpec([math.inf, math.inf]))
        assert abs(val - math.sqrt(6)) < 1e-14

    def test_scaling_law(self):
        rng = np.random.default_rng(5)
        norms = NormSpec([2, 1])
        for _ in range(200):
            x = ProductVector([rng.uniform(0.1, 2, 2), rng.uniform(0.1, 2, 3)])
            b = rng.uniform(0.2, 2, 2)
            alpha = rng.uniform(0.1, 4, 2)
            lhs = weighted_norm_product(scale_blocks(alpha, x), b, norms)
            rhs = weighted_norm_product(x, b, norms) * np.prod(alpha**b)
            np.testing.assert_allclose(lhs, rhs, rtol=1e-12)


class TestPartialOrder:
    def test_classifications(self):
        x = ProductVector([[1, 1], [1, 1]])
        assert partial_order_compare(x, x) == "eq"
        assert partial_order_compare(x, ProductVector([[1, 1], [1, 2]])) == "lneq"
        assert partial_order_compare(x, ProductVector([[2, 2], [2, 2]])) == "lt"
        assert partial_order_compare(ProductVector([[2, 2], [2, 2]]), x) == "gt"
        assert (
            partial_order_compare(
                ProductVector([[0, 2], [1, 1]]), ProductVector([[1, 1], [2, 2]])
            )
            == "incomparable"
        )
