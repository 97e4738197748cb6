"""Power method, Collatz-Wielandt bounds, continuation, and certificates."""

import math
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
    cw_bounds,
    delta_continuation,
    evaluate,
    find_dirr,
    hilbert_metric,
    irrex_map,
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
        assert rep.status in ("converged", "bracket_converged_cycling")
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
        mu = [hilbert_metric(xk, u, b) for xk in rep.iterates]
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

    def test_no_positive_weights_message(self):
        F = irrex_map()
        with pytest.raises(PerronStructureError, match="no positive weights"):
            power_method(F, None, _cfg(2))
        rep = power_method(F, None, _cfg(2, weights=np.array([0.5, 0.5])))
        assert rep.status == "converged"
        np.testing.assert_allclose(rep.eigenpair.lam, [1.0, 1.0], atol=1e-9)

    def test_max_iter_status(self):
        # permutation singular pair: iterates swap forever without converging
        F = singular_map(np.eye(2))
        rng = np.random.default_rng(2)
        x0 = normalize(random_interior(F.shape, rng), NormSpec.euclidean(2))
        rep = power_method(F, x0, _cfg(2, weights=np.array([0.5, 0.5]), max_iter=80))
        assert rep.status == "max_iter"
        assert rep.iterations == 80

class TestResidualOperation:
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
        # DF(1) = [[1,0],[1/2,1/2]]; kernel of I - L is spanned by (the Perron
        # direction), so the rank-gap certificate applies where irreducibility
        # of DF fails.
        from mhspectral import MapInstance

        def ev(x):
            a, b = x.blocks[0]
            return ProductVector([[a, (a * b) ** 0.5]])

        F = MapInstance(shape=ShapeSpec((2,)), A=[[1.0]], evaluator=ev, label="triangular")
        rep = power_method(F, None, _cfg(1))
        cert = certify_uniqueness(F, rep)
        assert cert.kind == "kernel_dim_one"
        assert cert.data["sv_gap_ratio"] > 1e6

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

        monkeypatch.setattr(homogeneity, "_contraction_weights", forbidden)
        monkeypatch.setattr(homogeneity, "_perron_weights", forbidden)
        F = motivating_map()
        seen = self._count_radius_of(monkeypatch, F.A)
        rep = power_method(F, None, _cfg(2, weights=np.array([0.25, 1.0])))
        cert = certify_uniqueness(F, rep)
        assert len(seen) == 1
        assert abs(rep.rate_bound - 0.5) < 1e-12
        assert cert.kind == "contraction"


class TestEvaluateCounts:
    @staticmethod
    def _count_evaluate(monkeypatch):
        calls = []

        def counting(F, x):
            calls.append(1)
            return evaluate(F, x)

        monkeypatch.setattr(solver, "evaluate", counting)
        return calls

    def test_max_iter_tail_evaluates_once(self, monkeypatch):
        calls = self._count_evaluate(monkeypatch)
        F = linear_map([[1, 2, 0.5], [0.3, 1, 1], [2, 0.1, 1]])
        rep = power_method(F, None, _cfg(1, max_iter=3))
        assert rep.status == "max_iter" and rep.iterations == 3
        assert len(calls) == 4

    def test_cycle_average_evaluates_once(self, monkeypatch):
        # block 2 is swapped every step; its tiny weight lets the bracket close
        F = MapInstance(
            shape=ShapeSpec((1, 2)),
            A=np.eye(2),
            evaluator=lambda x: ProductVector([x.blocks[0], x.blocks[1][::-1]]),
            label="swap",
        )
        calls = self._count_evaluate(monkeypatch)
        x0 = ProductVector([[1.0], [1.0, 2.0]])
        rep = power_method(F, x0, _cfg(2, weights=np.array([1.0, 1e-13])))
        assert rep.status == "bracket_converged_cycling" and rep.iterations == 3
        np.testing.assert_allclose(rep.eigenpair.x.blocks[1], [2**-0.5, 2**-0.5])
        assert len(calls) == 4


class TestDivergencePaths:
    """Statuses and messages of an iteration that leaves the open cone."""

    @staticmethod
    def _map_turning_bad(bad, after=2):
        """A slowly converging linear map on R^3 whose output turns ``bad`` after ``after`` calls.

        ``bad`` is a list of entries or an exception to raise.
        """
        M = np.triu(np.ones((3, 3)))
        calls = []

        def ev(x):
            calls.append(1)
            if len(calls) <= after:
                return ProductVector([M @ x.flat])
            if isinstance(bad, Exception):
                raise bad
            return ProductVector([bad])

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
        with pytest.raises(PerronStructureError):
            homogeneity._perron_weights(F.A.T, F.analysis.rho)
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
        assert len(rep.iterates) == 3 and all(x.is_pos() for x in rep.iterates)

    def test_a_small_product_of_extremes_alone_does_not_diverge(self):
        # y_min * min(1/lam) underflows at the first step, yet every entry
        # rescales to about 1/3 or 2/3; the second step converges
        F = self._map_turning([[1e-200, 2e-200], [1e200, 2e200]], after=0, sizes=(2, 2))
        cfg = SolverConfig(norms=NormSpec.lp(1.0, 2), weights=np.array([1.0, 1.0]))
        rep = power_method(F, None, cfg)
        assert rep.status == "converged" and rep.iterations == 2
        np.testing.assert_allclose(rep.eigenpair.x.flat, [1 / 3, 2 / 3, 1 / 3, 2 / 3], rtol=1e-15)
        np.testing.assert_allclose(rep.eigenpair.lam, [3e-200, 3e200], rtol=1e-15)

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
        assert code == 4 and report["status"] == "diverged"
        assert report["messages"] == ["iterate left the open cone"]
        assert report["iterations"] == 1355 and len(report["bracket_trace"]) == 1355
        assert "Infinity" not in text and "NaN" not in text


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
            # bracket k is the CW bracket of the k-th iterate
            for x, pair in zip(rep.iterates, rep.bracket_trace):
                np.testing.assert_allclose(pair, cw_bounds(F, x, b), rtol=1e-12, atol=0.0)

        check()

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
