"""Spectral radius, Perron / contraction weights, and pattern tests."""

import numpy as np
import pytest

from mhspectral import (
    HomogeneityAnalysis,
    PerronStructureError,
    analyze_homogeneity,
    contraction_weights,
    is_irreducible,
    is_primitive,
    irrex_map,
    jacobian_at,
    lipschitz_bound,
    ones_vector,
    perron_weights,
    spectral_radius,
)
from mhspectral import homogeneity

MOTIVATING_A = np.array([[0.0, 2.0], [0.125, 0.0]])


class TestSpectralRadius:
    def test_worked_values(self):
        assert abs(spectral_radius(MOTIVATING_A) - 0.5) < 1e-12
        assert abs(spectral_radius(np.eye(3)) - 1.0) < 1e-12
        assert abs(spectral_radius([[0, 1 / 3], [1 / 3, 0]]) - 1 / 3) < 1e-12

    def test_defective_and_reducible(self):
        assert abs(spectral_radius([[1, 1], [0, 1]]) - 1.0) < 1e-12
        assert abs(spectral_radius([[1, 0], [0, 0.5]]) - 1.0) < 1e-12
        assert spectral_radius([[0, 1], [0, 0]]) < 1e-12

    def test_against_dense_eigensolver(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            d = rng.integers(2, 7)
            A = rng.uniform(0, 3, (d, d))
            if rng.random() < 0.5:
                A[rng.random((d, d)) < 0.4] = 0.0
                A += 1e-3 * np.eye(d)  # keep rows nonzero
            exact = float(np.max(np.abs(np.linalg.eigvals(A))))
            assert abs(spectral_radius(A) - exact) <= 1e-11 * max(1.0, exact)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            spectral_radius([[1, -1], [0, 1]])
        with pytest.raises(ValueError):
            spectral_radius([[1, 2, 3]])


class TestPerronWeights:
    def test_motivating_left_vector(self):
        b = perron_weights(MOTIVATING_A)
        np.testing.assert_allclose(b, [0.2, 0.8], rtol=1e-12)
        np.testing.assert_allclose(MOTIVATING_A.T @ b, 0.5 * b, atol=1e-12)

    def test_identity_gives_uniform(self):
        np.testing.assert_allclose(perron_weights(np.eye(3)), np.full(3, 1 / 3))

    def test_random_irreducible_residual(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            d = rng.integers(2, 6)
            A = rng.uniform(0.05, 2.0, (d, d))
            b = perron_weights(A)
            rho = spectral_radius(A)
            assert b.min() > 0 and abs(b.sum() - 1.0) < 1e-12
            assert np.max(np.abs(A.T @ b - rho * b)) < 1e-10 * max(1.0, rho)

    def test_deficient_structure_raises(self):
        with pytest.raises(PerronStructureError):
            perron_weights([[0.5, 1.0], [0.0, 0.5]])


class TestContractionWeights:
    def test_motivating_exact(self):
        res = contraction_weights(MOTIVATING_A)
        assert res.exact
        np.testing.assert_allclose(res.b, [0.2, 0.8], rtol=1e-12)
        assert abs(res.r - 0.5) < 1e-12

    def test_inflation_fallback_is_self_validating(self):
        A = np.array([[0.5, 1.0], [0.0, 0.5]])
        res = contraction_weights(A)
        assert not res.exact
        assert res.b.min() > 0 and res.r < 1.0
        assert np.all(A.T @ res.b <= res.r * res.b + 1e-12)

    def test_diagonal(self):
        res = contraction_weights(np.diag([0.9, 0.9]))
        np.testing.assert_allclose(res.b, [0.5, 0.5])
        assert abs(res.r - 0.9) < 1e-12 and res.exact

    def test_requires_contraction(self):
        with pytest.raises(ValueError):
            contraction_weights(np.eye(2))


def _count_radius_calls(monkeypatch) -> list:
    keys = []
    original = homogeneity.spectral_radius

    def counting(M, *args, **kwargs):
        keys.append(np.asarray(M, dtype=float).tobytes())
        return original(M, *args, **kwargs)

    monkeypatch.setattr(homogeneity, "spectral_radius", counting)
    return keys


class TestContractionWeightsRadiusCalls:
    def test_exact_path_one_radius(self, monkeypatch):
        keys = _count_radius_calls(monkeypatch)
        contraction_weights(MOTIVATING_A)
        assert len(keys) == 1

    def test_inflation_path_measures_each_matrix_once(self, monkeypatch):
        keys = _count_radius_calls(monkeypatch)
        res = contraction_weights([[0.5, 1.0], [0.0, 0.5]])
        assert not res.exact
        assert len(keys) >= 2 and len(keys) == len(set(keys))


class TestAnalyzeHomogeneity:
    def test_regimes(self):
        assert analyze_homogeneity(MOTIVATING_A).regime == "strict_contraction"
        assert analyze_homogeneity(np.eye(2)).regime == "non_expansive"
        assert analyze_homogeneity(np.eye(2) * (1.0 + 5e-10)).regime == "non_expansive"
        assert analyze_homogeneity(np.eye(2) * (1.0 - 5e-9)).regime == "strict_contraction"
        expansive = analyze_homogeneity([[2.0]])
        assert expansive.regime == "expansive" and expansive.rho == 2.0
        assert expansive.auto_weights == (None, None)

    def test_auto_weights_follow_regime(self):
        b, reason = analyze_homogeneity(MOTIVATING_A).auto_weights
        assert reason is None
        np.testing.assert_array_equal(b, contraction_weights(MOTIVATING_A).b)
        b, reason = analyze_homogeneity(np.eye(3)).auto_weights
        np.testing.assert_array_equal(b, perron_weights(np.eye(3)))
        with pytest.raises(ValueError):
            b[0] = 1.0  # cached and shared, so read-only

    def test_missing_positive_weights_keep_the_reason(self):
        b, reason = analyze_homogeneity([[1.0, 0.0], [0.0, 0.5]]).auto_weights
        assert b is None
        assert reason.startswith("no positive weights with A^T b <= b (")

    def test_weights_are_lazy_and_cached(self, monkeypatch):
        keys = _count_radius_calls(monkeypatch)
        F = irrex_map()
        analysis = F.analysis
        assert isinstance(analysis, HomogeneityAnalysis) and F.analysis is analysis
        assert len(keys) == 1 and "auto_weights" not in vars(analysis)
        assert analysis.auto_weights is analysis.auto_weights
        assert len(keys) == 1


class TestLipschitzBound:
    def test_worked_values(self):
        assert abs(lipschitz_bound(MOTIVATING_A, [0.25, 1.0]) - 0.5) < 1e-14
        assert abs(lipschitz_bound(np.eye(2), [0.3, 0.7]) - 1.0) < 1e-14

    def test_dominates_spectral_radius(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            d = rng.integers(2, 6)
            A = rng.uniform(0, 2, (d, d)) + 1e-3 * np.eye(d)
            b = rng.uniform(0.1, 2.0, d)
            assert lipschitz_bound(A, b) >= spectral_radius(A) - 1e-10

    def test_minimum_attained_at_perron_vector(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            d = rng.integers(2, 6)
            A = rng.uniform(0.05, 2.0, (d, d))
            assert abs(lipschitz_bound(A, perron_weights(A)) - spectral_radius(A)) < 1e-9


class TestPatterns:
    def test_two_cycle(self):
        P = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert is_irreducible(P)
        assert not is_primitive(P)

    def test_fibonacci_is_primitive(self):
        assert is_primitive([[1.0, 1.0], [1.0, 0.0]])

    def test_irrex_jacobian_not_irreducible(self):
        F = irrex_map()
        J = jacobian_at(F, ones_vector(F.shape))
        assert not is_irreducible(J)

    def test_primitive_implies_irreducible(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            d = rng.integers(2, 7)
            P = (rng.random((d, d)) < 0.3).astype(float)
            if is_primitive(P):
                assert is_irreducible(P)
