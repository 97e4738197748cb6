"""Power method, Collatz-Wielandt bounds, continuation, and certificates."""

import dataclasses
import math
import re
import warnings

import numpy as np
import pytest

from mhspectral import (
    DeltaSchedule,
    EigenPair,
    ExpansiveMapError,
    NormSpec,
    PerronStructureError,
    ProductVector,
    SolveReport,
    SolverConfig,
    bonsall_estimate,
    certify_uniqueness,
    check_dirr,
    compose,
    cw_bounds,
    delta_continuation,
    evaluate,
    find_dirr,
    hilbert_metric,
    irrex_map,
    jacobian_at,
    linear_map,
    max_example_map,
    motivating_map,
    normalize,
    power_method,
    pq_singular_map,
    random_interior,
    residual,
    scale_blocks,
    shifted,
    singular_map,
    tensor_eigen_map,
    tight_map,
)
from mhspectral import homogeneity, solver
from mhspectral.cones import ShapeSpec
from mhspectral.maps import MapInstance

MOTIVATING_LAMBDA = np.array([2.0**-0.5, 2.0 ** (7.0 / 16.0)])
MOTIVATING_RB = 2.0 ** (5.0 / 16.0)  # with weights (1/4, 1)

def _cfg(d, **kw):
    return SolverConfig(norms=NormSpec.euclidean(d), **kw)

class TestCwBounds:
    def test_equal_at_eigenvector(self):
        F = motivating_map()
        rep = power_method(F, None, _cfg(2, weights=np.array([0.25, 1.0])))
        lo, hi = cw_bounds(F, rep.eigenpair.x, [0.25, 1.0])
        assert abs(lo - hi) < 1e-9
        assert abs(lo - MOTIVATING_RB) < 1e-9

    def test_frozen_hand_values(self):
        # direct evaluation of the ratio products at ((0.6,0.8),(0.6,0.8)):
        # block ratios (0.6, 0.8) and (0.6^{-7/8}, 0.8^{-7/8})
        F = motivating_map()
        x = ProductVector([[0.6, 0.8], [0.6, 0.8]])
        lo, hi = cw_bounds(F, x, [0.25, 1.0])
        assert abs(lo - 0.6**0.25 * 0.8 ** (-7 / 8)) < 1e-13
        assert abs(hi - 0.8**0.25 * 0.6 ** (-7 / 8)) < 1e-13
        assert abs(lo - 1.069877548700771) < 1e-12
        assert abs(hi - 1.478734320388528) < 1e-12
        assert lo < MOTIVATING_RB < hi

    def test_fixed_point_of_max_map(self):
        F = max_example_map(0.5)
        lo, hi = cw_bounds(F, ProductVector([[1.0, 1.0, 1.0]]), [1.0])
        assert lo == hi == 1.0

    def test_boundary_vector_gives_finite_lower_infinite_upper(self):
        F = max_example_map(0.5)
        lo, hi = cw_bounds(F, ProductVector([[1.0, 0.0, 0.5]]), [1.0])
        assert math.isfinite(lo) and hi == math.inf

    def test_zero_block_rejected(self):
        F = motivating_map()
        with pytest.raises(ValueError):
            cw_bounds(F, ProductVector([[0.0, 0.0], [1.0, 1.0]]), [0.25, 1.0])

    def test_zero_output_block_gives_zero_bounds(self):
        # the second block of F(x) is identically 0: every ratio product is 0
        F = MapInstance(
            shape=ShapeSpec((2, 1)),
            A=np.eye(2),
            evaluator=lambda x: ProductVector([x.blocks[0], [0.0]]),
            label="zero block",
        )
        assert cw_bounds(F, ProductVector([[1.0, 2.0], [1.0]]), [0.5, 0.5]) == (0.0, 0.0)
        assert cw_bounds(F, ProductVector([[1.0, 0.0], [1.0]]), [0.5, 0.5]) == (0.0, math.inf)

class TestPowerMethod:
    def test_motivating_hand_fixed_point(self):
        F = motivating_map()
        x0 = normalize(ProductVector([[1, 2], [3, 1]]), NormSpec.euclidean(2))
        rep = power_method(F, x0, _cfg(2, weights=np.array([0.25, 1.0])))
        assert rep.status == "converged"
        for blk in rep.eigenpair.x.blocks:
            np.testing.assert_allclose(blk, [2**-0.5, 2**-0.5], atol=1e-10)
        np.testing.assert_allclose(rep.eigenpair.lam, MOTIVATING_LAMBDA, rtol=1e-10)
        assert abs(rep.eigenpair.r_b - MOTIVATING_RB) < 1e-9

    def test_linear_perron_pair_against_dense_solver(self):
        rng = np.random.default_rng(0)
        M = rng.uniform(0.5, 2.0, (3, 3))
        rep = power_method(linear_map(M), None, _cfg(1, tol=1e-12))
        w, V = np.linalg.eig(M)
        i = int(np.argmax(w.real))
        v = np.abs(V[:, i].real)
        v /= np.linalg.norm(v)
        np.testing.assert_allclose(rep.eigenpair.x.blocks[0], v, atol=1e-10)
        assert abs(rep.eigenpair.lam[0] - w.real[i]) < 1e-10

    def test_pq_grid_search_oracle(self):
        M = np.array([[1.0, 2.0], [3.0, 4.0]])
        F = pq_singular_map(M, 4, 4)
        cfg = SolverConfig(norms=NormSpec.lp(4, 2), weights=np.array([0.5, 0.5]))
        rep = power_method(F, None, cfg)
        a = np.arange(0.0, 1.0 + 1e-12, 1e-3)
        sphere = np.stack([a, (1.0 - a**4) ** 0.25])
        grid_max = float(np.max(sphere.T @ M @ sphere))
        assert abs(rep.eigenpair.r_b**3 - grid_max) < 1e-4

    def test_singular_with_cycle_robust_stopping(self):
        rng = np.random.default_rng(1)
        M = rng.uniform(0.5, 2.0, (4, 3))
        F = singular_map(M)
        x0 = normalize(random_interior(F.shape, rng), NormSpec.euclidean(2))
        rep = power_method(F, x0, _cfg(2, weights=np.array([0.5, 0.5])))
        assert rep.status == "converged"
        U, S, Vt = np.linalg.svd(M)
        np.testing.assert_allclose(rep.eigenpair.x.blocks[0], np.abs(U[:, 0]), atol=1e-8)
        np.testing.assert_allclose(rep.eigenpair.x.blocks[1], np.abs(Vt[0]), atol=1e-8)
        assert abs(rep.eigenpair.r_b - S[0]) < 1e-8

    def test_bracket_traces_monotone_and_valid(self):
        F = motivating_map()
        x0 = normalize(ProductVector([[1, 2], [3, 1]]), NormSpec.euclidean(2))
        rep = power_method(F, x0, _cfg(2, weights=np.array([0.25, 1.0])))
        lo = np.array([t[0] for t in rep.bracket_trace])
        hi = np.array([t[1] for t in rep.bracket_trace])
        assert np.all(np.diff(lo) >= -1e-12)
        assert np.all(np.diff(hi) <= 1e-12)
        assert np.all(lo <= rep.eigenpair.r_b + 1e-9)
        assert np.all(hi >= rep.eigenpair.r_b - 1e-9)

    def test_contraction_envelope_and_stepwise_bound(self):
        F = motivating_map()
        b = np.array([0.25, 1.0])
        norms = NormSpec.euclidean(2)
        x0 = normalize(ProductVector([[1, 2], [3, 1]]), norms)
        rep = power_method(F, x0, _cfg(2, weights=b, tol=1e-13))
        assert rep.rate_bound is not None and abs(rep.rate_bound - 0.5) < 1e-12
        assert rep.envelope_ok
        # polish the reference eigenvector: each application halves its error,
        # so the 1e-12 stepwise slack is not eaten by the reference itself
        u = rep.eigenpair.x
        for _ in range(8):
            u = normalize(evaluate(F, u), norms)
        assert hilbert_metric(rep.eigenpair.x, u, b) <= rep.error_radius + 1e-12
        # the solver's iterates x_0 .. x_{K-1}: x_j ends a solve cut at j steps
        xs = [normalize(x0, norms)] + [
            power_method(F, x0, _cfg(2, weights=b, tol=1e-13, max_iter=j)).eigenpair.x
            for j in range(1, rep.iterations)
        ]
        mu = [hilbert_metric(xk, u, b) for xk in xs]
        for k in range(len(mu) - 1):
            assert mu[k + 1] <= 0.5 * mu[k] + 1e-12

    def test_scale_freedom_of_start(self):
        F = motivating_map()
        norms = NormSpec.euclidean(2)
        x0 = normalize(ProductVector([[1, 2], [3, 1]]), norms)
        u1 = power_method(F, x0, _cfg(2)).eigenpair.x
        u2 = power_method(F, scale_blocks([7.0, 0.02], x0), _cfg(2)).eigenpair.x
        np.testing.assert_allclose(u1.concat(), u2.concat(), atol=1e-12)

    def test_dual_linear_eigenvector_is_inverse_perron(self):
        from mhspectral import dual

        rng = np.random.default_rng(21)
        M = rng.uniform(0.5, 2.0, (4, 4))
        rep = power_method(dual(linear_map(M)), None, _cfg(1, tol=1e-12))
        w, V = np.linalg.eig(M)
        i = int(np.argmax(w.real))
        inv = 1.0 / np.abs(V[:, i].real)
        inv /= np.linalg.norm(inv)
        np.testing.assert_allclose(rep.eigenpair.x.blocks[0], inv, atol=1e-10)
        assert abs(rep.eigenpair.lam[0] - 1.0 / w.real[i]) < 1e-10

    def test_all_ones_tensor_uniform_eigenvector(self):
        F = tensor_eigen_map(np.ones((2, 2, 2)), 4.0)
        x0 = normalize(ProductVector([[0.9, 0.2]]), NormSpec.euclidean(1))
        rep = power_method(F, x0, _cfg(1))
        np.testing.assert_allclose(
            rep.eigenpair.x.blocks[0], [2**-0.5, 2**-0.5], atol=1e-10
        )

    def test_expansive_refusal_and_explicit_weight_override(self):
        F = tight_map([[1.2, 0.3], [0.1, 1.1]], (2, 2))
        with pytest.raises(ExpansiveMapError):
            power_method(F, None, _cfg(2))
        rep = power_method(F, None, _cfg(2, weights=np.array([0.5, 0.5]), max_iter=50))
        assert any("A^T b <= b" in m for m in rep.messages)

    def test_expansive_refusal_prints_rho_in_full(self):
        # at 6 digits rho = 1 + 2e-9 read "rho(A) = 1 > 1"
        F = tight_map([[1.0 + 2e-9]], (2,))
        with pytest.raises(ExpansiveMapError) as err:
            power_method(F, None, _cfg(1))
        printed = re.search(r"rho\(A\) = (\S+) > 1", str(err.value)).group(1)
        assert float(printed) == F.analysis.rho > 1.0

    def test_no_positive_weights_message(self):
        F = irrex_map()
        with pytest.raises(PerronStructureError, match="no positive weights"):
            power_method(F, None, _cfg(2))
        rep = power_method(F, None, _cfg(2, weights=np.array([0.5, 0.5])))
        assert rep.status == "converged"
        np.testing.assert_allclose(rep.eigenpair.lam, [1.0, 1.0], atol=1e-9)

    @pytest.mark.parametrize("x0", [ProductVector([[1.0, 1.0, 1.0]]), ProductVector([[1.0], [1.0]])])
    def test_start_vector_of_another_shape_is_refused(self, x0):
        F = linear_map([[1.0, 2.0], [3.0, 1.0]])
        message = f"starting vector has block sizes {x0.shape.sizes}, the map (2,)"
        with pytest.raises(ValueError, match=re.escape(message)):
            power_method(F, x0, _cfg(1))

    def test_max_iter_status(self):
        # Jordan block: no positive eigenvector, and the bracket gap shrinks
        # like 1/k, so it never stalls into lazy steps
        F = linear_map([[1.0, 1.0], [0.0, 1.0]])
        rng = np.random.default_rng(2)
        x0 = normalize(random_interior(F.shape, rng), NormSpec.euclidean(1))
        rep = power_method(F, x0, _cfg(1, max_iter=80))
        assert rep.status == "max_iter"
        assert rep.iterations == 80

class TestSolverInputs:
    """Each solver input is checked once, when the object that owns it is made."""

    @pytest.mark.parametrize(
        "kw",
        [
            {"tol": math.inf},
            {"tol": math.nan},
            {"tol": 0.0},
            {"tol": -1e-3},
            {"tol": True},
            {"tol": "1e-3"},
            {"max_iter": 2.5},
            {"max_iter": True},
            {"max_iter": 0},
            {"max_iter": "7"},
            {"weights": [0.5]},
            {"weights": np.array([0.5, 0.5, 0.5])},
            {"weights": [0.5, 0.0]},
            {"weights": [0.5, math.nan]},
        ],
        ids=repr,
    )
    def test_solver_config_refuses(self, kw):
        with pytest.raises(ValueError):
            _cfg(2, **kw)

    def test_solver_config_keeps_its_own_weights(self):
        w = np.array([1.0, 4.0])
        cfg = _cfg(2, weights=w)
        w[:] = [0.0, math.nan]  # the caller's array is still the caller's
        assert cfg.weights.tolist() == [1.0, 4.0]
        with pytest.raises(ValueError, match="read-only"):
            cfg.weights[0] = 0.0

    def test_solver_config_stores_checked_weights(self):
        cfg = _cfg(2, tol=1e-8, max_iter=np.int64(50), weights=[1, 4])
        assert cfg.weights.dtype == float and cfg.weights.tolist() == [1.0, 4.0]
        assert dataclasses.replace(cfg, tol=1e-3).weights is cfg.weights
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.tol = math.inf

    @pytest.mark.parametrize(
        "delta0, factor, floor",
        [(1.0, 3.0, 1e-8), (1.0, 1.0, 1e-8), (1.0, 0.0, 1e-8), (math.inf, 0.5, 1e-8), (1.0, 0.5, 0.0),
         (1.0, 0.5, 2.0), (math.nan, 0.5, 1e-8), (1.0, 1.0 - 1e-12, 1e-8)],
    )
    def test_delta_schedule_refuses_when_made(self, delta0, factor, floor):
        with pytest.raises(ValueError):
            DeltaSchedule(delta0, factor, floor)

    @pytest.mark.parametrize(
        "x0, message",
        [
            (ProductVector([[1.0, math.inf]]), "must be finite"),
            (ProductVector([[1.0, math.nan]]), "must be finite"),
            (ProductVector([[1.0, 0.0]]), "strictly positive"),
            (ProductVector([[1.0, -2.0]]), "strictly positive"),
            (ProductVector([[-1.0, -2.0]]), "strictly positive"),
            (ProductVector([[0.0, 0.0]]), "identically zero"),
        ],
    )
    def test_start_vector_refused_without_a_warning(self, x0, message):
        F = linear_map([[1.0, 2.0], [3.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                power_method(F, x0, _cfg(1))
            with pytest.raises(ValueError, match=message):
                solver._checked_start(x0, F.shape, NormSpec.euclidean(1))

    def test_checked_start_is_the_normalized_vector(self):
        x = solver._checked_start(ProductVector([[3.0, 4.0]]), ShapeSpec((2,)), NormSpec([1.0]))
        assert x.flat.tolist() == [3.0 / 7.0, 4.0 / 7.0]


class TestResidualOperation:
    @pytest.mark.parametrize(
        "F, lam",
        [
            (linear_map([[1, 2], [3, 1]]), [1.0, 2.0]),
            (linear_map([[1, 2], [3, 1]]), []),
            (linear_map([[1, 2], [3, 1]]), [[1.0]]),
            (motivating_map(), [1.0]),
            (motivating_map(), [1.0, 1.0, 1.0]),
        ],
    )
    def test_lam_needs_one_entry_per_block(self, F, lam):
        x = ProductVector([np.ones(n) for n in F.shape.sizes])
        with pytest.raises(ValueError, match="one entry per block"):
            residual(F, x, lam, NormSpec.euclidean(F.shape.d))

    def test_exact_eigenpair_is_zero(self):
        F = motivating_map()
        norms = NormSpec.euclidean(2)
        rep = power_method(F, None, _cfg(2))
        lam = rep.eigenpair.lam
        assert residual(F, rep.eigenpair.x, lam, norms) < 1e-12

    def test_identity_linear_fixes_every_slice_point(self):
        rng = np.random.default_rng(20)
        F = linear_map(np.eye(3))
        norms = NormSpec.euclidean(1)
        for _ in range(20):
            x = normalize(random_interior(F.shape, rng, 0.0, 1.0), norms)
            assert residual(F, x, [1.0], norms) == 0.0

    def test_identity_singular_canonical_pair(self):
        # any canonical coordinate pair is an eigenpair of the identity's
        # singular map, with unit eigenvalue vector
        F = singular_map(np.eye(3))
        norms = NormSpec.euclidean(2)
        e1 = ProductVector([[1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        assert residual(F, e1, [1.0, 1.0], norms) == 0.0

    def test_increases_with_perturbation(self):
        F = motivating_map()
        norms = NormSpec.euclidean(2)
        rep = power_method(F, None, _cfg(2))
        u, lam = rep.eigenpair.x, rep.eigenpair.lam
        vals = []
        for eps in (1e-4, 1e-2):
            bumped = ProductVector([blk * (1 + eps * np.arange(len(blk))) for blk in u.blocks])
            vals.append(residual(F, normalize(bumped, norms), lam, norms))
        assert 0 < vals[0] < vals[1]

class TestCwSandwich:
    def _sample_boundary(self, shape, norms, rng):
        while True:
            blocks = [rng.uniform(0.0, 1.0, n) for n in shape.sizes]
            for blk in blocks:
                blk[rng.random(blk.size) < 0.3] = 0.0
            x = ProductVector(blocks)
            if x.is_semipos():
                return normalize(x, norms)

    def test_bounds_bracket_rb(self):
        rng = np.random.default_rng(3)
        cases = [
            (motivating_map(), NormSpec.euclidean(2), None),
            (pq_singular_map(np.array([[1.0, 2.0], [3.0, 4.0]]), 4, 4), NormSpec.lp(4, 2), np.array([0.5, 0.5])),
            (tensor_eigen_map(rng.uniform(0.2, 1.5, (3, 3, 3)), 4.0), NormSpec.euclidean(1), None),
            (linear_map(rng.uniform(0.5, 2.0, (4, 4))), NormSpec.euclidean(1), None),
        ]
        for F, norms, w in cases:
            cfg = SolverConfig(norms=norms, weights=w)
            rep = power_method(F, None, cfg)
            assert rep.status == "converged", F.label
            r_b, b = rep.eigenpair.r_b, rep.weights
            for _ in range(200):
                v = self._sample_boundary(F.shape, norms, rng)
                lo, _ = cw_bounds(F, v, b)
                assert lo <= r_b + 1e-9, F.label
                u = normalize(random_interior(F.shape, rng, 0.05, 1.0), norms)
                _, hi = cw_bounds(F, u, b)
                assert hi >= r_b - 1e-9, F.label

class TestBonsall:
    def test_exact_match_with_direct_orbit_norm(self):
        # for d = 1 and b = 1 the renormalized accumulation telescopes exactly
        rng = np.random.default_rng(4)
        M = rng.uniform(0.5, 2.0, (4, 4))
        F = linear_map(M)
        norms = NormSpec.euclidean(1)
        x = ProductVector([np.ones(4)])
        for m in (1, 3, 7):
            est = bonsall_estimate(F, x, [1.0], m, norms)
            direct = np.linalg.norm(np.linalg.matrix_power(M, m) @ np.ones(4)) ** (1 / m)
            assert abs(est - direct) < 1e-12 * direct

    def test_gelfand_limit_for_linear(self):
        rng = np.random.default_rng(5)
        M = rng.uniform(0.5, 2.0, (4, 4))
        F = linear_map(M)
        norms = NormSpec.euclidean(1)
        rho = float(np.max(np.abs(np.linalg.eigvals(M))))
        x = ProductVector([np.ones(4)])
        errs = [abs(bonsall_estimate(F, x, [1.0], m, norms) - rho) for m in (50, 200, 800)]
        assert errs[-1] < errs[0]
        assert errs[-1] < 1e-2 * rho

    def test_fixed_point_gives_one(self):
        F = max_example_map(0.3)
        norms = NormSpec.lp(math.inf, 1)
        x = ProductVector([[1.0, 0.5, 0.7]])
        for m in (1, 5, 20):
            assert abs(bonsall_estimate(F, x, [1.0], m, norms) - 1.0) < 1e-14

    def test_motivating_cross_method_agreement(self):
        # starting at the converged eigenvector every growth factor equals r_b,
        # so the estimate agrees with the power method to machine precision;
        # from a generic start the geometric mean converges only at rate 1/m.
        F = motivating_map()
        norms = NormSpec.euclidean(2)
        rep = power_method(F, None, SolverConfig(norms=norms))
        b = rep.weights
        r_b = rep.eigenpair.r_b
        est = bonsall_estimate(F, rep.eigenpair.x, b, 200, norms)
        assert abs(est - r_b) < 1e-6
        est_generic = bonsall_estimate(F, ProductVector([[1, 2], [3, 1]]), b, 200, norms)
        assert abs(est_generic - r_b) < 1e-2

class TestDeltaContinuation:
    def test_defective_linear_limit(self):
        F = linear_map([[1.0, 1.0], [0.0, 1.0]])
        cfg = SolverConfig(
            norms=NormSpec.euclidean(1),
            max_iter=20_000,
            delta_schedule=DeltaSchedule(1.0, 0.5, 9e-7),
        )
        rep = delta_continuation(F, cfg)
        assert rep.status == "converged"
        rs = [r for _, r in rep.delta_trace]
        assert all(rs[i] > rs[i + 1] for i in range(len(rs) - 1))  # increasing in delta
        last_delta = rep.delta_trace[-1][0]
        assert last_delta <= 1e-6
        assert rep.eigenpair.x.blocks[0][1] < 1e-3
        assert abs(rep.r_extrapolated - 1.0) < 1e-3

    def test_agrees_with_direct_solve_for_contraction(self):
        F = motivating_map()
        cfg = SolverConfig(norms=NormSpec.euclidean(2))
        rep = delta_continuation(F, cfg)
        direct = power_method(F, None, cfg)
        assert abs(rep.r_extrapolated - direct.eigenpair.r_b) < 1e-8
        assert (
            max(
                np.max(np.abs(a - b))
                for a, b in zip(rep.eigenpair.x.blocks, direct.eigenpair.x.blocks)
            )
            < 1e-6
        )

    def test_fixed_shift_eigenvector_strictly_positive(self):
        F = linear_map([[1.0, 1.0], [0.0, 1.0]])
        norms = NormSpec.euclidean(1)
        Fd = shifted(F, 0.25, norms)
        rep = power_method(Fd, None, SolverConfig(norms=norms))
        assert rep.status == "converged"
        assert rep.eigenpair.x.is_pos()

    def test_partial_results_on_inner_failure(self):
        F = linear_map([[1.0, 1.0], [0.0, 1.0]])
        cfg = SolverConfig(
            norms=NormSpec.euclidean(1),
            max_iter=8,  # far too few iterations for the small deltas
            delta_schedule=DeltaSchedule(1.0, 0.5, 1e-4),
        )
        rep = delta_continuation(F, cfg)
        assert rep.status == "max_iter"
        assert any("partial results" in m for m in rep.messages)
        assert rep.delta_trace is not None

    def test_failed_first_shift_reports_its_own_pair(self):
        F = linear_map([[1.0, 1.0], [0.0, 1.0]])
        cfg = SolverConfig(norms=NormSpec.euclidean(1), max_iter=2)
        rep = delta_continuation(F, cfg)
        first = power_method(shifted(F, 1.0, cfg.norms), None, dataclasses.replace(cfg, tol=1e-3))
        assert first.status == rep.status == "max_iter"
        assert rep.delta_trace == [] and rep.r_extrapolated is None
        assert rep.eigenpair.x.flat.tobytes() == first.eigenpair.x.flat.tobytes()
        assert rep.bracket_trace == first.bracket_trace and rep.residual == first.residual
        assert rep.iterations == first.iterations == 2
        assert rep.messages[1:] == first.messages and "partial results" in rep.messages[0]

    def test_failed_inner_solve_repeats_no_setup_message(self):
        F = singular_map([[1.0, 2.0], [3.0, 1.0]])
        rep = delta_continuation(F, SolverConfig(norms=NormSpec.euclidean(2), max_iter=1, weights=[1.0, 2.0]))
        assert rep.status == "max_iter"
        assert [m.split(";")[0] for m in rep.messages] == [
            "warning: supplied weights violate A^T b <= b",
            "inner solve failed to close its bracket at delta=1 (status max_iter)",
            "bracket did not close within max_iter",
        ]

    def test_stalled_shift_returns_the_last_converged_pair(self):
        # default schedule: delta = 1 (inner tol 1e-3) converges within 5
        # iterations, delta = 1/2 does not
        F = linear_map([[1.0, 1.0], [0.0, 1.0]])
        cfg = SolverConfig(norms=NormSpec.euclidean(1), max_iter=5)
        rep = delta_continuation(F, cfg)
        first = power_method(
            shifted(F, 1.0, cfg.norms), None,
            SolverConfig(norms=cfg.norms, tol=1e-3, max_iter=5, weights=rep.weights),
        )
        assert first.status == "converged"
        assert rep.status == "max_iter"
        assert any("delta=0.5" in m and "partial results" in m for m in rep.messages)
        assert rep.delta_trace == [(1.0, first.eigenpair.r_b)]
        assert rep.eigenpair.x.flat.tobytes() == first.eigenpair.x.flat.tobytes()
        assert rep.residual == first.residual and rep.bracket_trace == first.bracket_trace
        assert rep.r_extrapolated == first.eigenpair.r_b
        assert rep.iterations == first.iterations + 5
        from mhspectral.cli import run_solve

        code, doc = run_solve({
            "map": {"family": "linear", "params": {"matrix": [[1.0, 1.0], [0.0, 1.0]]}},
            "solver": {"method": "continuation", "max_iter": 5},
        })
        assert code == 3 and doc["status"] == "max_iter" and doc["r_extrapolated"] == rep.r_extrapolated

    def test_default_schedule_stops_before_a_shift_that_cannot_converge(self):
        F = linear_map([[1.0, 1.0], [0.0, 1.0]])
        cfg = SolverConfig(norms=NormSpec.euclidean(1))
        rep = delta_continuation(F, cfg)
        assert rep.status == "converged"
        stops = [m for m in rep.messages if m.startswith("stopped before delta=")]
        assert len(stops) == 1 and "predicted" in stops[0] and "max_iter/2" in stops[0]
        assert rep.delta_trace[-1][0] > cfg.delta_schedule.floor
        assert abs(rep.r_extrapolated - 1.0) < 1e-3
        assert rep.residual <= 10.0 * cfg.tol
        assert rep.iterations < 20_000

    def test_seeded_irreducible_linear_maps_extrapolate_to_the_spectral_radius(self):
        rng = np.random.default_rng(11)
        primitive = imprimitive = 0
        while primitive + imprimitive < 40:
            n = int(rng.integers(1, 8))
            M = rng.uniform(0.0, 1.0, (n, n)) * (rng.uniform(size=(n, n)) < rng.uniform(0.3, 1.0))
            if not (M.sum(axis=1).all() and homogeneity.is_irreducible(M)):
                continue
            rho = float(np.max(np.abs(np.linalg.eigvals(M))))
            rep = delta_continuation(linear_map(M), SolverConfig(norms=NormSpec.euclidean(1)))
            assert rep.status == "converged"
            stopped = any(m.startswith("stopped before delta=") for m in rep.messages)
            err = abs(rep.r_extrapolated - rho) / rho
            if homogeneity.is_primitive(M):
                primitive += 1
                assert not stopped and err <= 1e-8, (M, rep.messages, err)
            else:
                # a period-2 M: the shifted solves slow down like 1/delta, the
                # budget stop ends the schedule near delta = 1e-4, and the
                # extrapolation is only as good as the inner tolerance there
                imprimitive += 1
                assert stopped and err <= 1e-4, (M, rep.messages, err)
        assert imprimitive == 2

    def test_a_schedule_of_too_many_shifts_is_refused(self):
        # about 1.8e13 and 184 198 shifts: refused from the closed-form
        # count, before any list is built
        for factor in (1.0 - 1e-12, 0.9999):
            with pytest.raises(ValueError, match="shifts, more than 10000"):
                DeltaSchedule(1.0, factor, 1e-8).values()
        assert len(DeltaSchedule().values()) == 27
        assert 9000 < len(DeltaSchedule(1.0, 0.998, 1e-8).values()) < 10_000

    @pytest.mark.parametrize(
        "F, norms, schedule, weights",
        [
            (linear_map([[1.0, 1.0], [0.0, 1.0]]), NormSpec.euclidean(1), DeltaSchedule(1.0, 0.5, 1e-4), None),
            (linear_map([[1.0, 1.0], [0.0, 1.0]]), NormSpec([[0.5, 2.0]]), DeltaSchedule(1.0, 0.5, 1e-3), None),
            (linear_map([[0.0, 0.27], [0.99, 0.0]]), NormSpec([math.inf]), DeltaSchedule(1.0, 0.5, 1e-3), None),
            (motivating_map(), NormSpec.euclidean(2), DeltaSchedule(), None),
            # weights with A^T b > b: every inner solve warns, as power_method does
            (motivating_map(), NormSpec.euclidean(2), DeltaSchedule(1.0, 0.5, 1e-3), np.array([1.0, 1.0])),
            (singular_map([[1.0, 2.0, 0.0], [0.0, 1.0, 3.0]]), NormSpec([1.0, 3.0]), DeltaSchedule(1.0, 0.5, 1e-3), None),
        ],
    )
    def test_every_inner_solve_is_power_method_on_the_shifted_map(self, monkeypatch, F, norms, schedule, weights):
        # the inner solves share one weight resolution and one norm kernel;
        # each must still be the public solve of its shifted map, bit for bit
        inner = []
        steps = solver._power_steps

        def recording(Fd, x0, cfg, b, norm_of, messages):
            rep = steps(Fd, x0, cfg, b, norm_of, messages)
            inner.append((x0, cfg, rep))
            return rep

        monkeypatch.setattr(solver, "_power_steps", recording)
        cfg = SolverConfig(norms=norms, delta_schedule=schedule, weights=weights)
        rep = delta_continuation(F, cfg)
        monkeypatch.undo()
        assert rep.status == "converged" and len(inner) == len(rep.delta_trace)
        for (delta, r_b), (x0, inner_cfg, got) in zip(rep.delta_trace, inner):
            # the inner config is the caller's but for its tolerance
            assert inner_cfg == dataclasses.replace(cfg, tol=inner_cfg.tol)
            want = power_method(shifted(F, delta, norms), x0, inner_cfg)
            assert got.eigenpair.r_b == r_b == want.eigenpair.r_b
            assert got.eigenpair.x.flat.tobytes() == want.eigenpair.x.flat.tobytes()
            assert got.eigenpair.lam.tobytes() == want.eigenpair.lam.tobytes()
            for field in ("status", "iterations", "bracket_trace", "residual", "rate_bound",
                          "envelope_ok", "error_radius", "messages"):
                assert getattr(got, field) == getattr(want, field), field
        assert rep.bracket_trace == inner[-1][2].bracket_trace

    def test_geometric_guess(self):
        x_prev, x = ProductVector([[0.5, 0.25]]), ProductVector([[0.25, 0.0625]])
        # entries that scale like a power of delta are predicted exactly
        assert solver._geometric_guess(x, x_prev).flat.tolist() == [0.125, 0.015625]
        assert solver._geometric_guess(x, None) is x
        same = solver._geometric_guess(x, ProductVector([[0.25, 0.0625]]))
        assert same.flat.tobytes() == x.flat.tobytes()
        # a guess that underflows to 0, or overflows to inf, falls back to x
        x_small = ProductVector([[1e-200, 1.0]])
        assert solver._geometric_guess(x_small, ProductVector([[1e200, 1.0]])) is x_small
        x_large = ProductVector([[1e200, 1.0]])
        assert solver._geometric_guess(x_large, ProductVector([[1e-200, 1.0]])) is x_large

class TestCertificates:
    def test_motivating_contraction(self):
        F = motivating_map()
        rep = power_method(F, None, _cfg(2))
        cert = certify_uniqueness(F, rep)
        assert cert.kind == "contraction"
        assert abs(cert.data["rho_A"] - 0.5) < 1e-12

    def test_positive_linear_jacobian_irreducible(self):
        rng = np.random.default_rng(6)
        F = linear_map(rng.uniform(0.5, 2.0, (4, 4)))
        rep = power_method(F, None, _cfg(1))
        cert = certify_uniqueness(F, rep)
        assert cert.kind == "jacobian_irreducible"
        assert abs(cert.data["rho_L"] - 1.0) < 1e-6

    def test_max_example_none_due_to_kink(self):
        F = max_example_map(0.3)
        rep = power_method(F, None, _cfg(1))
        cert = certify_uniqueness(F, rep)
        assert cert.kind == "none"
        assert "kink" in cert.data["reason"] or "differentiable" in cert.data["reason"]

    def test_irrex_dirr_certificate(self):
        F = irrex_map()
        rep = power_method(F, None, _cfg(2, weights=np.array([0.5, 0.5])))
        cert = certify_uniqueness(F, rep)
        assert cert.kind == "dirr"
        assert (cert.data["block"], cert.data["tau"]) == (0, 2)
        assert cert.data["df_irreducible"] is False

    def test_kernel_dim_one_with_reducible_jacobian(self):
        # one-homogeneous map with irreducible A but block-triangular Jacobian
        # pattern: x -> (x1, (x1 x2)^{1/2}) on a single 2-entry block has
        # DF(1) = [[1,0],[1/2,1/2]]; its pattern has one final class, {x1}, so
        # the kernel of I - L is the Perron direction alone and the kernel
        # certificate applies where irreducibility of DF fails.
        from mhspectral import MapInstance

        def ev(x):
            a, b = x.blocks[0]
            return ProductVector([[a, (a * b) ** 0.5]])

        F = MapInstance(shape=ShapeSpec((2,)), A=[[1.0]], evaluator=ev, label="triangular")
        rep = power_method(F, None, _cfg(1))
        cert = certify_uniqueness(F, rep)
        assert cert.kind == "kernel_dim_one"
        assert cert.data["final_classes"] == 1
        # the singular-value gap of I - L, the test the class count replaced
        u, lam = rep.eigenpair.x, rep.eigenpair.lam
        L = np.clip(jacobian_at(F, u) / lam[0], 0.0, None)
        sv = np.linalg.svd(np.eye(2) - L, compute_uv=False)
        assert sv[-2] / max(sv[-1], 1e-300) > 1e6

    @staticmethod
    def _stochastic_similar(rng, final, transient):
        """L = D S D^{-1}, S row-stochastic and block-triangular, with its classes.

        The classes are dense positive blocks; the ``transient`` ones come first
        and send 0.05-0.9 of each row's mass to nodes of later classes, and the
        ``final`` ones keep all of it.  So S has exactly ``final`` final classes,
        and L (D 1) = D 1 with D 1 > 0.
        """
        sizes = rng.integers(1, 5, transient + final)
        starts = np.concatenate([[0], np.cumsum(sizes)])
        n = int(starts[-1])
        S = np.zeros((n, n))
        for k in range(transient + final):
            rows = slice(starts[k], starts[k + 1])
            inner = rng.uniform(0.1, 1.0, (sizes[k], sizes[k]))
            S[rows, rows] = inner / inner.sum(axis=1, keepdims=True)
            if k < transient:
                later = n - starts[k + 1]
                out = rng.uniform(0.1, 1.0, (sizes[k], later)) * (rng.uniform(size=(sizes[k], later)) < 0.5)
                out[np.arange(sizes[k]), rng.integers(0, later, sizes[k])] += 1.0
                leak = rng.uniform(0.05, 0.9, (sizes[k], 1))
                S[rows, rows] *= 1.0 - leak
                S[rows, starts[k + 1]:] = leak * out / out.sum(axis=1, keepdims=True)
        D = rng.uniform(0.5, 2.0, n)
        return D[:, None] * S / D[None, :], D

    @staticmethod
    def _report_at(u):
        """A converged one-block report with eigenvector u and eigenvalue 1."""
        return SolveReport(
            eigenpair=EigenPair(u, np.array([1.0]), 1.0),
            status=solver.CONVERGED,
            iterations=0,
            bracket_trace=[],
            weights=np.ones(1),
        )

    def test_final_class_count_agrees_with_the_singular_value_gap(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        @hypothesis.settings(max_examples=80, deadline=None)
        @hypothesis.given(
            seed=st.integers(0, 2**32 - 1), final=st.integers(1, 3), transient=st.integers(1, 3)
        )
        def check(seed, final, transient):
            L, D = self._stochastic_similar(np.random.default_rng(seed), final, transient)
            F = linear_map(L)
            u = normalize(ProductVector([D]), NormSpec.euclidean(1))
            cert = certify_uniqueness(F, self._report_at(u))
            assert cert.data["df_irreducible"] is False
            assert cert.data["final_classes"] == final
            sv = np.linalg.svd(np.eye(L.shape[0]) - L, compute_uv=False)
            # the smallest singular value floored at rounding level, not at the
            # former 1e-300: a final class of one node makes a row of I - L
            # exactly 0, and sv[-1] = 0 next to a rounding-size sv[-2] would
            # read as a huge gap with two or three final classes
            gap = sv[-2] / max(sv[-1], np.finfo(float).eps * sv[0])
            assert (cert.kind == "kernel_dim_one") == (gap > 1e6), (final, gap)

        check()

    def test_kernel_test_needs_a_positive_witness(self):
        # one final class, but u is 1e-3 off the eigenvector: the enclosure
        # leaves the band, spectral_radius decides rho(L) = 1, and without a
        # witness v the class count does not certify
        L, D = self._stochastic_similar(np.random.default_rng(7), 1, 2)
        F = linear_map(L)
        u = normalize(ProductVector([D * (1.0 + 1e-3 * np.arange(D.size))]), NormSpec.euclidean(1))
        lo, hi = homogeneity._cw_enclosure(L, u.flat)
        assert not (1.0 - 1e-6 <= lo and hi <= 1.0 + 1e-6)
        cert = certify_uniqueness(F, self._report_at(u))
        assert abs(cert.data["rho_L"] - 1.0) < 1e-6
        assert "final_classes" not in cert.data
        assert cert.data["kernel_test"] == "no positive witness of L v = v"
        assert cert.kind == "none" and cert.data["reason"] == "no certificate validated"

    def test_kernel_dim_one_at_n160_takes_no_svd(self, monkeypatch):
        # [[B1, C], [0, B2]] with rho(B2) = 1.5 rho(B1): a reducible pattern
        # whose one final class is B2's, as the large sparse benchmark builds it
        rng = np.random.default_rng(160)
        h = 80

        def block():
            B = rng.uniform(0.5, 1.5, (h, h)) * (rng.uniform(size=(h, h)) < 0.05)
            perm = rng.permutation(h)
            B[perm, np.roll(perm, -1)] += rng.uniform(0.5, 1.5, h)
            B[np.arange(h), np.arange(h)] += 0.5
            return B

        B1, B2 = block(), block()
        B2 *= 1.5 * np.max(np.abs(np.linalg.eigvals(B1))) / np.max(np.abs(np.linalg.eigvals(B2)))
        C = rng.uniform(0.5, 1.5, (h, h)) * (rng.uniform(size=(h, h)) < 0.025)
        C[0, 0] += 1.0
        F = linear_map(np.block([[B1, C], [np.zeros((h, h)), B2]]))
        rep = power_method(F, None, _cfg(1))
        assert rep.status == "converged"

        def no_svd(*args, **kwargs):
            raise AssertionError("np.linalg.svd called")

        monkeypatch.setattr(np.linalg, "svd", no_svd)
        cert = certify_uniqueness(F, rep)
        assert cert.kind == "kernel_dim_one" and cert.data["final_classes"] == 1

class TestCheckDirr:
    IRREX_L = np.array(
        [
            [0.25, 0.25, 0.5, 0.0],
            [0.25, 0.25, 0.0, 0.5],
            [0.0, 0.0, 0.5, 0.5],
            [0.0, 0.0, 0.5, 0.5],
        ]
    )

    def test_irrex_block_zero(self):
        shape = ShapeSpec((2, 2))
        assert not check_dirr(self.IRREX_L, 0, 1, shape)
        assert check_dirr(self.IRREX_L, 0, 2, shape)
        assert find_dirr(self.IRREX_L, shape) == (0, 2)

    def test_two_singleton_blocks(self):
        shape = ShapeSpec((1, 1))
        L = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert not check_dirr(L, 0, 1, shape)
        assert check_dirr(L, 0, 2, shape)

    def test_primitive_pattern_at_wielandt_bound(self):
        shape = ShapeSpec((2,))
        L = np.array([[1.0, 1.0], [1.0, 0.0]])
        bound = (shape.total - 1) ** 2 + 1
        assert check_dirr(L, 0, bound, shape)


class TestHomogeneityAnalysisReuse:
    @staticmethod
    def _count_radius_of(monkeypatch, A):
        """Wrap spectral_radius in both namespaces that call it; count calls on A."""
        seen = []
        original = homogeneity.spectral_radius

        def counting(M, *args, **kwargs):
            if np.array_equal(np.asarray(M, dtype=float), A):
                seen.append(1)
            return original(M, *args, **kwargs)

        monkeypatch.setattr(homogeneity, "spectral_radius", counting)
        monkeypatch.setattr(solver, "spectral_radius", counting)
        return seen

    def test_auto_weights_compute_rho_of_A_once(self, monkeypatch):
        F = motivating_map()
        seen = self._count_radius_of(monkeypatch, F.A)
        rep = power_method(F, None, _cfg(2))
        cert = certify_uniqueness(F, rep)
        assert len(seen) == 1
        np.testing.assert_allclose(rep.weights, [0.2, 0.8], rtol=1e-12)
        assert rep.rate_bound == F.analysis.rho
        assert cert.kind == "contraction"

    def test_continuation_measures_rho_of_A_once(self, monkeypatch):
        from mhspectral.cli import run_solve

        seen = self._count_radius_of(monkeypatch, motivating_map().A)
        code, rep = run_solve({"map": {"family": "motivating"}, "solver": {"method": "continuation"}})
        assert code == 0 and len(rep["delta_trace"]) > 20
        # every shifted map of the schedule shares the base map's analysis
        assert len(seen) == 1

    def test_explicit_weights_run_no_weight_search(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("weight search ran for explicit weights")

        homogeneity._MEMO.clear()  # no weights recorded from an earlier test
        monkeypatch.setattr(homogeneity, "_perron_vector", forbidden)
        F = motivating_map()
        seen = self._count_radius_of(monkeypatch, F.A)
        rep = power_method(F, None, _cfg(2, weights=np.array([0.25, 1.0])))
        cert = certify_uniqueness(F, rep)
        assert len(seen) == 1
        assert abs(rep.rate_bound - 0.5) < 1e-12
        assert cert.kind == "contraction"


class TestEvaluateCounts:
    """Every evaluation of a solve, counted at the map's evaluator, wherever the loop calls it."""

    @staticmethod
    def _counting(F):
        calls = []

        def ev(x):
            calls.append(1)
            return F.evaluator(x)

        return dataclasses.replace(F, evaluator=ev), calls

    def test_max_iter_tail_evaluates_once(self):
        F, calls = self._counting(linear_map([[1, 2, 0.5], [0.3, 1, 1], [2, 0.1, 1]]))
        rep = power_method(F, None, _cfg(1, max_iter=3))
        assert rep.status == "max_iter" and rep.iterations == 3
        assert len(calls) == 4

    def test_lazy_steps_evaluate_once(self):
        # block 2 is swapped every step; its tiny weight lets the bracket
        # close, and the stalled gap starts lazy steps, which average the swap
        F, calls = self._counting(MapInstance(
            shape=ShapeSpec((1, 2)),
            A=np.eye(2),
            evaluator=lambda x: ProductVector([x.blocks[0], x.blocks[1][::-1]]),
            label="swap",
        ))
        x0 = ProductVector([[1.0], [1.0, 2.0]])
        rep = power_method(F, x0, _cfg(2, weights=np.array([1.0, 1e-13])))
        assert rep.status == "converged" and rep.iterations == 3
        assert rep.messages == ["bracket gap stalled: lazy steps (F(x) x)^(1/2) from step 2"]
        np.testing.assert_allclose(rep.eigenpair.x.blocks[1], [2**-0.5, 2**-0.5])
        assert len(calls) == 3


class TestDivergencePaths:
    """Statuses and messages of an iteration that leaves the open cone."""

    @staticmethod
    def _map_turning_bad(bad, after=2):
        """A slowly converging linear map on R^3 whose output turns ``bad`` after ``after`` calls.

        ``bad`` is a list of entries, an exception to raise, or the output itself.
        """
        M = np.triu(np.ones((3, 3)))
        calls = []

        def ev(x):
            calls.append(1)
            if len(calls) <= after:
                return ProductVector([M @ x.flat])
            if isinstance(bad, Exception):
                raise bad
            return ProductVector([bad]) if isinstance(bad, list) else bad

        return MapInstance(shape=ShapeSpec((3,)), A=[[1.0]], evaluator=ev, label="turning-bad")

    def _solve(self, F):
        return power_method(F, None, _cfg(1, weights=np.array([1.0])))

    def test_evaluation_failed(self):
        rep = self._solve(self._map_turning_bad(ValueError("boom")))
        assert rep.status == solver.DIVERGED and rep.eigenpair is None
        assert rep.iterations == 2 and len(rep.bracket_trace) == 2
        assert rep.messages == ["evaluation failed: boom"]

    @pytest.mark.parametrize(
        "bad, message",
        [
            ([1.0, math.nan, 1.0], "non-finite iterate"),
            ([1.0, math.inf, 1.0], "non-finite iterate"),
            ([-math.inf, 1.0, 1.0], "non-finite iterate"),
            ([1.0, 0.0, 1.0], "iterate left the open cone"),
            ([1.0, -0.5, 1.0], "iterate left the open cone"),
            # a NaN and a zero together: the non-finite check runs first
            ([0.0, math.nan, 1.0], "non-finite iterate"),
            ([math.nan, 0.0, 1.0], "non-finite iterate"),
        ],
    )
    def test_bad_iterate(self, bad, message):
        rep = self._solve(self._map_turning_bad(bad))
        assert rep.status == solver.DIVERGED and rep.eigenpair is None
        # the bad evaluation counts as an iteration but adds no bracket
        assert rep.iterations == 3 and len(rep.bracket_trace) == 2
        assert rep.messages == [message]

    def test_bad_first_iterate(self):
        rep = self._solve(self._map_turning_bad([1.0, 0.0, 1.0], after=0))
        assert rep.status == solver.DIVERGED
        assert rep.iterations == 1 and rep.bracket_trace == []

    @pytest.mark.parametrize("after", [0, 2])
    @pytest.mark.parametrize(
        "bad, message",
        [
            ([1.0, 1.0], "shape mismatch: map (3,), output (2,)"),
            ([1.0, 1.0, 1.0, 1.0], "shape mismatch: map (3,), output (4,)"),
            (ProductVector([[1.0], [1.0, 1.0]]), "shape mismatch: map (3,), output (1, 2)"),
            (np.ones(3), "turning-bad returned a ndarray, not a ProductVector of shape (3,)"),
        ],
    )
    def test_evaluator_output_of_another_shape(self, bad, message, after):
        rep = self._solve(self._map_turning_bad(bad, after))
        assert rep.status == solver.DIVERGED and rep.eigenpair is None
        assert rep.iterations == after and len(rep.bracket_trace) == after
        assert rep.messages == [f"evaluation failed: {message}"]
        x = ProductVector([[1.0, 2.0, 3.0]])
        with pytest.raises(ValueError, match=re.escape(message)):
            evaluate(self._map_turning_bad(bad, after=0), x)
        with pytest.raises(ValueError, match=re.escape(message)):
            cw_bounds(self._map_turning_bad(bad, after=0), x, [1.0])

    @pytest.mark.parametrize(
        "wrap",
        [
            lambda G: shifted(G, 0.5, NormSpec.euclidean(1)),
            lambda G: compose(G, linear_map(np.eye(3))),
            lambda G: compose(linear_map(np.eye(3)), G),
        ],
        ids=["shifted", "compose-outer", "compose-inner"],
    )
    @pytest.mark.parametrize(
        "bad, message",
        [
            ([1.0, 1.0], "shape mismatch: map (3,), output (2,)"),
            (ProductVector([[1.0], [1.0, 1.0]]), "shape mismatch: map (3,), output (1, 2)"),
            (np.ones(3), "turning-bad returned a ndarray, not a ProductVector of shape (3,)"),
        ],
    )
    def test_evaluator_output_of_another_shape_inside_a_closure(self, wrap, bad, message):
        # the closure's flat kernel checks its user part's output at every step
        rep = self._solve(wrap(self._map_turning_bad(bad)))
        assert rep.status == solver.DIVERGED and rep.eigenpair is None
        assert rep.iterations == 2 and len(rep.bracket_trace) == 2
        assert rep.messages == [f"evaluation failed: {message}"]

    def test_evaluate_keeps_its_domain_checks(self):
        F = linear_map([[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(ValueError, match="shape mismatch"):
            evaluate(F, ProductVector([[1.0], [1.0]]))
        with pytest.raises(ValueError, match="shape mismatch"):
            evaluate(F, ProductVector([[1.0, 1.0, 1.0]]))
        with pytest.raises(ValueError, match="negative input"):
            evaluate(F, ProductVector([[1.0, -1e-300]]))
        assert evaluate(F, ProductVector([[0.0, 0.0]])) == ProductVector([[0.0, 0.0]])
        from mhspectral import dual

        G = dual(F)
        with pytest.raises(ValueError, match="strictly positive"):
            evaluate(G, ProductVector([[1.0, 0.0]]))
        with pytest.raises(ValueError, match="strictly positive"):
            evaluate(G, ProductVector([[1.0, -1.0]]))


class TestBracketOverflow:
    """An upper bound beyond the double range is +inf, not an OverflowError."""

    F = linear_map([[1.0, 1.0], [1.0, 1.0]])
    x0 = ProductVector([[1.0, 1e-10]])

    def test_cw_bounds(self):
        lower, upper = cw_bounds(self.F, self.x0, [800.0])
        assert upper == math.inf
        assert lower == math.exp(800.0 * math.log(1.0 + 1e-10))

    def test_power_method_goes_on_and_closes_on_the_log_gap(self):
        rep = power_method(self.F, self.x0, _cfg(1, weights=np.array([800.0])))
        assert rep.status == "converged"
        assert rep.bracket_trace[0][1] == math.inf and math.isfinite(rep.bracket_trace[0][0])
        assert all(math.isfinite(v) for pair in rep.bracket_trace[1:] for v in pair)
        np.testing.assert_allclose(rep.eigenpair.lam, [2.0])
        assert rep.eigenpair.r_b == pytest.approx(2.0**800, rel=1e-12)

    def test_a_gap_beyond_the_double_range_leaves_the_contraction_check_standing(self):
        # A = [[1/2]], so C = 1/2 whatever the weight; the lower end of the
        # first bracket underflows to 0, and its gap is unknown
        F = _ring_map(ShapeSpec((2,)), [np.array([[1.0, 1.0], [1e-40, 1e-40]])], 0.5)
        rep = power_method(F, None, _cfg(1, weights=np.array([800.0])))
        assert rep.status == "converged" and rep.bracket_trace[0][0] == 0.0
        assert rep.envelope_ok and 0.0 <= rep.error_radius < 1e-9


def _radius_sizes(monkeypatch):
    """Wrap spectral_radius in both namespaces that call it; record each operand's size."""
    sizes = []
    original = homogeneity.spectral_radius

    def recording(M, *args, **kwargs):
        sizes.append(np.shape(M)[0])
        return original(M, *args, **kwargs)

    monkeypatch.setattr(homogeneity, "spectral_radius", recording)
    monkeypatch.setattr(solver, "spectral_radius", recording)
    return sizes


class TestRhoLEnclosure:
    """rho(L) from one Collatz-Wielandt matvec, and the spectral_radius fallback."""

    @staticmethod
    def _assert_encloses(M, v):
        lo, hi = homogeneity._cw_enclosure(M, v)
        rho = homogeneity.spectral_radius(M)
        slack = 1e-10 * (1.0 + rho)
        assert lo <= rho + slack and rho <= hi + slack, (lo, rho, hi)

    @pytest.mark.parametrize("seed", range(5))
    def test_encloses_spectral_radius(self, seed):
        rng = np.random.default_rng([seed, 20])
        n = 7
        dense = rng.uniform(0.1, 2.0, (n, n))
        sparse = dense * (rng.uniform(size=(n, n)) < 0.25)
        reducible = np.triu(dense)
        zero_rows = dense.copy()
        zero_rows[rng.choice(n, 2, replace=False)] = 0.0
        for M in (dense, sparse, reducible, zero_rows):
            for v in (rng.uniform(0.01, 10.0, n), np.exp(rng.normal(0.0, 3.0, n))):
                self._assert_encloses(M, v)

    def test_encloses_spectral_radius_property(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")
        hnp = pytest.importorskip("hypothesis.extra.numpy")
        entry = st.one_of(st.just(0.0), st.floats(1e-3, 10.0))

        @hypothesis.settings(max_examples=60, deadline=None)
        @hypothesis.given(st.integers(1, 8).flatmap(lambda n: st.tuples(
            hnp.arrays(float, (n, n), elements=entry),
            hnp.arrays(float, n, elements=st.floats(1e-3, 1e3)),
        )))
        def check(drawn):
            self._assert_encloses(*drawn)

        check()

    def test_positive_linear_decides_without_spectral_radius_on_L(self, monkeypatch):
        rng = np.random.default_rng(21)
        F = linear_map(rng.uniform(0.5, 2.0, (6, 6)))
        sizes = _radius_sizes(monkeypatch)
        rep = power_method(F, None, _cfg(1))
        cert = certify_uniqueness(F, rep)
        assert cert.kind == "jacobian_irreducible"
        assert abs(cert.data["rho_L"] - 1.0) < 1e-9
        assert sizes == [1]  # rho(A) of the 1 x 1 homogeneity matrix only

    def test_straddling_enclosure_falls_back(self, monkeypatch):
        # the defective [[1,1],[0,1]] near its boundary eigenvector (1, 0), as
        # the delta-continuation leaves it: rho(L) = 1/lambda lies outside the
        # band, yet the enclosure's upper end is within it
        M = np.array([[1.0, 1.0], [0.0, 1.0]])
        F = linear_map(M)
        u = normalize(ProductVector([[1.0, 1e-3]]), NormSpec.euclidean(1))
        lam = np.array([np.linalg.norm(M @ u.flat)])
        L_pos = M / lam[0]
        lo, hi = homogeneity._cw_enclosure(L_pos, u.flat)
        assert lo < 1.0 - 1e-6 <= hi <= 1.0 + 1e-6
        report = SolveReport(
            eigenpair=EigenPair(u, lam, float(lam[0])),
            status=solver.CONVERGED,
            iterations=0,
            bracket_trace=[],
            weights=np.ones(1),
        )
        F.analysis  # measured before the count starts
        sizes = _radius_sizes(monkeypatch)
        cert = certify_uniqueness(F, report)
        assert sizes == [2]
        assert cert.kind == "none" and cert.data["reason"] == "rho(lambda^{-1} DF(u)) is not 1"
        assert cert.data["rho_L"] == homogeneity.spectral_radius(L_pos)

    def test_no_positive_right_perron_vector_falls_back(self, monkeypatch):
        F = tight_map([[1.0, 0.5], [0.0, 0.5]], (2, 3))
        assert isinstance(homogeneity._perron_vector(F.A, F.analysis.rho), PerronStructureError)
        assert F.analysis.right_perron is None
        rep = power_method(F, None, _cfg(2, weights=np.array([0.5, 0.5])))
        sizes = _radius_sizes(monkeypatch)
        cert = certify_uniqueness(F, rep)
        assert sizes == [5]
        assert cert.kind == "none" and cert.data["reason"] == "no certificate validated"
        assert abs(cert.data["rho_L"] - 1.0) < 1e-6

    @pytest.mark.parametrize("scale", [1.0, 1e-13, 1e13])
    def test_jacobian_irreducible_is_scale_free(self, scale):
        M = np.random.default_rng(6).uniform(0.5, 2.0, (4, 4))
        F = linear_map(scale * M)
        rep = power_method(F, None, _cfg(1))
        cert = certify_uniqueness(F, rep)
        assert cert.kind == "jacobian_irreducible"
        assert cert.data["df_irreducible"] is True


class TestRescaleUnderflow:
    """A rescaled iterate with an entry rounded to zero ends the loop at once."""

    @staticmethod
    def _map_turning(out, after=2, sizes=(3,)):
        """A linear map on R^3 whose output is the fixed ``out`` after ``after`` calls."""
        M = np.triu(np.ones((3, 3)))
        calls = []

        def ev(x):
            calls.append(1)
            if len(calls) <= after:
                return ProductVector([M @ x.flat])
            return ProductVector(out)

        return MapInstance(shape=ShapeSpec(sizes), A=np.eye(len(sizes)), evaluator=ev, label="turning")

    def test_underflow_to_zero_diverges_before_the_next_log(self):
        # y is positive and finite, but 1e-180 / ||y|| is below the subnormal range
        F = self._map_turning([[1e150, 1e-180, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = power_method(F, None, _cfg(1, weights=np.array([1.0])))
        assert rep.status == solver.DIVERGED and rep.eigenpair is None
        assert rep.messages == ["iterate left the open cone"]
        # the underflowing step keeps its (finite) bracket but not its iterate
        assert rep.iterations == 3 and len(rep.bracket_trace) == 3
        assert all(math.isfinite(v) for pair in rep.bracket_trace for v in pair)
        # the iterates before it, x_1 and x_2, end the solves cut there
        for j in (1, 2):
            F = self._map_turning([[1e150, 1e-180, 1.0]])
            cut = power_method(F, None, _cfg(1, weights=np.array([1.0]), max_iter=j))
            assert cut.status == solver.MAX_ITER and cut.eigenpair.x.is_pos()

    @pytest.mark.parametrize("sizes", [(2,), (2, 2)])
    @pytest.mark.parametrize("p, tiny", [(2.0, 1e-170), (math.inf, 1e-320)])
    def test_zero_block_norm_diverges_at_once(self, sizes, p, tiny):
        # every entry of the last output block is positive, yet its norm
        # underflows to 0 (Euclidean) or to a subnormal whose reciprocal
        # overflows (max norm): the solve ends there, with no division by it
        def ev(x):
            *head, last = x.blocks
            return ProductVector([2.0 * b + b[::-1] for b in head] + [np.array([tiny, 2 * tiny]) * last.sum()])

        F = MapInstance(shape=ShapeSpec(sizes), A=np.eye(len(sizes)), evaluator=ev, label="tiny")
        cfg = SolverConfig(norms=NormSpec([p] * len(sizes)), weights=np.ones(len(sizes)))
        rep = power_method(F, None, cfg)
        assert rep.status == solver.DIVERGED and rep.eigenpair is None
        assert rep.messages == ["iterate left the open cone"]
        assert rep.iterations == 1 and len(rep.bracket_trace) == 1
        assert all(math.isfinite(v) for v in rep.bracket_trace[0])

    def test_a_small_product_of_extremes_alone_does_not_diverge(self):
        # y_min * min(1/lam) underflows at the first step, yet every entry
        # rescales to about 1/3 or 2/3; the second step converges
        F = self._map_turning([[1e-200, 2e-200], [1e200, 2e200]], after=0, sizes=(2, 2))
        cfg = SolverConfig(norms=NormSpec.lp(1.0, 2), weights=np.array([1.0, 1.0]))
        rep = power_method(F, None, cfg)
        assert rep.status == "converged" and rep.iterations == 2
        np.testing.assert_allclose(rep.eigenpair.x.flat, [1 / 3, 2 / 3, 1 / 3, 2 / 3], rtol=1e-15)
        np.testing.assert_allclose(rep.eigenpair.lam, [3e-200, 3e200], rtol=1e-15)

    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_overflowing_block_norm_diverges_before_the_convergence_test(self, p):
        # every entry of F(x) is finite (1e308 from the 1-norm start, 1.4e308
        # from the 2-norm one) but the block norm overflows; the bracket has
        # closed, so only the norm check keeps the step from reading as
        # converged with lambda = inf
        F = linear_map([[1e308, 1e308], [1e308, 1e308]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = power_method(F, None, SolverConfig(norms=NormSpec.lp(p, 1)))
        assert rep.status == solver.DIVERGED and rep.eigenpair is None
        assert rep.messages == ["block norm overflowed"] and rep.residual is None
        assert rep.iterations == 1 and len(rep.bracket_trace) == 1

    @pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
    def test_block_norms_that_fit_converge(self, p):
        # F(x) has entries near 1.4e200, whose squares overflow, yet every
        # norm fits: each norm converges to lambda = 2e200
        F = linear_map([[1e200, 1e200], [1e200, 1e200]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = power_method(F, None, SolverConfig(norms=NormSpec.lp(p, 1)))
        assert rep.status == solver.CONVERGED
        np.testing.assert_allclose(rep.eigenpair.lam, [2e200], rtol=1e-14)

    def test_pq_singular_graph_report_document(self):
        import json
        import pathlib

        from mhspectral import cli

        golden = pathlib.Path(__file__).resolve().parent / "data" / "graph_reports.json"
        doc = json.loads(golden.read_text())["pq_singular"]["doc"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, report = cli.run_solve(doc)
        text = cli.dump_json(report)
        # no positive eigenvector: the gap stalls at 0.366 from step 2, and
        # the lazy steps drift to the boundary until an entry is subnormal
        assert code == 4 and report["status"] == "diverged"
        assert report["messages"] == [
            "bracket gap stalled: lazy steps (F(x) x)^(1/2) from step 3",
            "iterate left the open cone",
        ]
        assert report["iterations"] == 2573 and len(report["bracket_trace"]) == 2573
        assert "Infinity" not in text and "NaN" not in text

    def test_lazy_drift_to_the_boundary_stops_at_the_subnormal_floor(self):
        # the eigenvector (1, 0) of diag(2, 1) lies on the boundary; the lazy
        # steps halve the log of the second entry's share, whose square roots
        # would park at 5e-324 for good, so the solve ends before max_iter
        F = linear_map([[2.0, 0.0], [0.0, 1.0]])
        rep = power_method(F, None, _cfg(1))
        assert rep.status == solver.DIVERGED and rep.iterations < 3000
        assert rep.messages == [
            "bracket gap stalled: lazy steps (F(x) x)^(1/2) from step 2",
            "iterate left the open cone",
        ]


def _block_cyclic(rng, sizes):
    """A matrix of positive blocks from node group i to group i + 1 mod p, p = len(sizes) >= 2.

    Its pattern is irreducible with period p, so plain power steps cycle.
    """
    starts = np.cumsum((0, *sizes))
    M = np.zeros((starts[-1], starts[-1]))
    for i in range(len(sizes)):
        j = (i + 1) % len(sizes)
        M[starts[i]:starts[i + 1], starts[j]:starts[j + 1]] = rng.uniform(0.05, 2.0, (sizes[i], sizes[j]))
    return M


def _perron(M):
    """max |eig| of a nonnegative irreducible M, and its positive eigenvector of unit 2-norm."""
    w, V = np.linalg.eig(M)
    v = np.abs(V[:, np.argmax(w.real)].real)
    return float(np.max(np.abs(w))), v / np.linalg.norm(v)


class TestLazySteps:
    """At rho(A) = 1 a stalled bracket gap switches the loop to lazy steps (F(x) x)^(1/2)."""

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("period", [2, 3, 4, 5])
    def test_block_cyclic_linear_converges_to_the_perron_pair(self, period, seed):
        rng = np.random.default_rng(seed)
        M = _block_cyclic(rng, rng.integers(1, 4, period))
        rep = power_method(linear_map(M), None, _cfg(1))
        assert rep.status == "converged"
        assert rep.messages[0].startswith("bracket gap stalled: lazy steps")
        rho, v = _perron(M)
        assert abs(rep.eigenpair.lam[0] - rho) <= 1e-10 * rho
        np.testing.assert_allclose(rep.eigenpair.x.flat, v, rtol=0, atol=1e-8)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_cyclic_order_3_tensor_converges(self, n):
        # T_{i, i+1, i+1} = t_i alone: F_i(x) = (t_i x_{i+1}^2)^{1/2} = sqrt(t_i) x_{i+1},
        # the linear map of diag(sqrt(t)) times the n-cycle
        t = np.random.default_rng(n).uniform(0.05, 2.0, n)
        T = np.zeros((n, n, n))
        C = np.zeros((n, n))
        for i in range(n):
            T[i, (i + 1) % n, (i + 1) % n] = t[i]
            C[i, (i + 1) % n] = math.sqrt(t[i])
        rep = power_method(tensor_eigen_map(T, 3.0), None, _cfg(1))
        assert rep.status == "converged"
        if n == 2:
            assert rep.iterations == 3
        rho, v = _perron(C)
        assert abs(rep.eigenpair.lam[0] - rho) <= 1e-10 * rho
        np.testing.assert_allclose(rep.eigenpair.x.flat, v, rtol=0, atol=1e-8)

    def test_singular_of_the_identity_converges_to_equal_blocks(self):
        # F(x, y) = (y, x): every (u, u) is an eigenvector with lambda = (1, 1)
        F = singular_map(np.eye(2))
        x0 = normalize(random_interior(F.shape, np.random.default_rng(2)), NormSpec.euclidean(2))
        rep = power_method(F, x0, _cfg(2))
        assert rep.status == "converged"
        np.testing.assert_allclose(rep.eigenpair.lam, [1.0, 1.0], rtol=1e-10)
        x, y = rep.eigenpair.x.blocks
        np.testing.assert_allclose(x, y, rtol=0, atol=1e-8)


def _ring_map(shape, mats, a):
    """F_i(x) = (M_i x_{i+1 mod d}) ** a with positive M_i; A = a * cyclic shift."""
    d = shape.d
    A = np.zeros((d, d))
    A[np.arange(d), (np.arange(d) + 1) % d] = a

    def ev(x):
        blocks = x.blocks
        return ProductVector([(mats[i] @ blocks[(i + 1) % d]) ** a for i in range(d)])

    return MapInstance(shape=shape, A=A, evaluator=ev, label="ring")


class TestBracketInvariants:
    """The loop's Collatz-Wielandt invariants on hypothesis-drawn maps, norms and starts."""

    @staticmethod
    def _draw_case(st, data):
        sizes = data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=3), "sizes")
        shape = ShapeSpec(tuple(sizes))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), "seed"))
        mats = [rng.uniform(0.05, 2.0, (n, sizes[(i + 1) % len(sizes)])) for i, n in enumerate(sizes)]
        a = data.draw(st.floats(0.3, 0.9), "a")
        selectors = []
        for n in sizes:
            kind = data.draw(st.sampled_from([1.0, 2.0, 3.0, math.inf, "phi"]))
            selectors.append(rng.uniform(0.2, 3.0, n) if kind == "phi" else kind)
        x0 = ProductVector([rng.uniform(0.05, 3.0, n) * 10.0 ** rng.uniform(-3, 3) for n in sizes])
        return _ring_map(shape, mats, a), NormSpec(selectors), x0, a, rng

    def test_cw_bounds_sandwich_and_trace(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        @hypothesis.settings(max_examples=30, deadline=None)
        @hypothesis.given(st.data())
        def check(data):
            F, norms, x0, _, rng = self._draw_case(st, data)
            rep = power_method(F, x0, SolverConfig(norms=norms))
            assert rep.status == "converged"
            r_b, b = rep.eigenpair.r_b, rep.weights
            lo, hi = cw_bounds(F, rep.eigenpair.x, b)
            assert lo <= r_b * (1.0 + 1e-12) and hi >= r_b * (1.0 - 1e-12)
            for _ in range(5):
                lo, hi = cw_bounds(F, normalize(random_interior(F.shape, rng, 0.05, 2.0), norms), b)
                assert lo <= r_b * (1.0 + 1e-12) and hi >= r_b * (1.0 - 1e-12)
            # bracket k is the CW bracket of the k-th iterate, bit for bit
            x = normalize(x0, norms)
            for pair in rep.bracket_trace:
                assert pair == cw_bounds(F, x, b)
                x = normalize(evaluate(F, x), norms)

        check()

    def test_bracket_trace_is_cw_bounds_of_the_iterates(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        @hypothesis.settings(max_examples=60, deadline=None)
        @hypothesis.given(st.data())
        def check(data):
            family = data.draw(st.sampled_from(["linear", "block_cyclic", "singular", "pq_singular",
                                                "tensor_eigen"]))
            rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), "seed"))
            m, n = data.draw(st.integers(1, 4), "m"), data.draw(st.integers(1, 4), "n")
            # p, q >= 2 and p >= 3 keep rho(A) <= 1, so the solver picks the weights
            if family == "linear":
                F = linear_map(rng.uniform(0.05, 2.0, (n, n)))
            elif family == "block_cyclic":
                # imprimitive: the gap stalls within the 20 steps, so the
                # trace runs across the switch to lazy steps
                F = linear_map(_block_cyclic(rng, rng.integers(1, 3, m + 1)))
            elif family == "singular":
                F = singular_map(rng.uniform(0.05, 2.0, (m, n)))
            elif family == "pq_singular":
                p, q = data.draw(st.floats(2.0, 4.0), "p"), data.draw(st.floats(2.0, 4.0), "q")
                F = pq_singular_map(rng.uniform(0.05, 2.0, (m, n)), p, q)
            else:
                F = tensor_eigen_map(rng.uniform(0.05, 2.0, (n, n, n)), data.draw(st.floats(3.0, 5.0), "p"))
            kinds = [data.draw(st.sampled_from([1.0, 2.0, 3.0, math.inf, "phi"])) for _ in F.shape.sizes]
            norms = NormSpec([rng.uniform(0.2, 3.0, k) if kind == "phi" else kind
                              for kind, k in zip(kinds, F.shape.sizes)])
            # the delta-shift of a one-block (linear, tensor_eigen) or a
            # two-block (singular, pq_singular) base
            if data.draw(st.booleans(), "shift"):
                F = shifted(F, 10.0 ** data.draw(st.floats(-6.0, 0.0), "log10 delta"), norms)
            x0 = ProductVector([rng.uniform(0.05, 3.0, k) for k in F.shape.sizes])
            rep = power_method(F, x0, SolverConfig(norms=norms, max_iter=20))
            b = rep.weights
            # x_k is the iterate a solve cut after k steps returns
            x = normalize(x0, norms)
            for k, pair in enumerate(rep.bracket_trace):
                if k > 0:
                    x = power_method(F, x0, SolverConfig(norms=norms, max_iter=k)).eigenpair.x
                assert pair == cw_bounds(F, x, b)

        check()

    def test_bracket_gaps_bound_the_distance_to_the_fixed_point(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        @hypothesis.settings(max_examples=20, deadline=None)
        @hypothesis.given(st.data())
        def check(data):
            # rho(A) = a < 1: the auto weights give C < 1
            F, norms, x0, _, _ = self._draw_case(st, data)
            rep = power_method(F, x0, SolverConfig(norms=norms))
            assert rep.status == "converged" and rep.envelope_ok
            b = rep.weights
            fixed = power_method(F, rep.eigenpair.x, SolverConfig(norms=norms, tol=1e-14, weights=b))
            assert fixed.status == "converged"
            assert hilbert_metric(rep.eigenpair.x, fixed.eigenpair.x, b) <= rep.error_radius + 1e-12

        check()

    @pytest.mark.parametrize(
        "F, weights",
        [
            # C = max_i (A^T b)_i / b_i = 2 for A = [[0, 2], [1/8, 0]]
            (motivating_map(), np.array([1.0, 1.0])),
            # auto Perron weights of a 1-homogeneous map: C = 1
            (linear_map([[0.5, 0.5], [0.5, 0.5]]), None),
        ],
    )
    def test_no_envelope_without_a_contraction(self, F, weights):
        rep = power_method(F, None, SolverConfig(norms=NormSpec.euclidean(F.shape.d), weights=weights))
        assert rep.status == "converged"
        assert rep.envelope_ok is None and rep.error_radius is None

    def test_brackets_are_monotone_under_weights_with_At_b_le_b(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        @hypothesis.settings(max_examples=30, deadline=None)
        @hypothesis.given(st.data())
        def check(data):
            F, norms, x0, a, _ = self._draw_case(st, data)
            d = F.shape.d
            # entries in [a, 1] give (A^T b)_j = a b_{j-1} <= a <= b_j
            b = np.array(data.draw(st.lists(st.floats(a, 1.0), min_size=d, max_size=d), "b"))
            assert np.all(F.A.T @ b <= b)
            rep = power_method(F, x0, SolverConfig(norms=norms, weights=b))
            assert rep.status == "converged" and rep.messages == []
            lo = np.array([pair[0] for pair in rep.bracket_trace])
            hi = np.array([pair[1] for pair in rep.bracket_trace])
            assert np.all(lo[1:] >= lo[:-1] * (1.0 - 1e-12))
            assert np.all(hi[1:] <= hi[:-1] * (1.0 + 1e-12))

        check()
