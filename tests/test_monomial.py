"""Monomial maps F_k(x) = c_k prod_l x_l^{E_kl} against their closed form.

In log coordinates a monomial map is affine, log F(x) = log c + E log x, so
its eigenproblem F(x) = lambda (x) x is one linear system (``closed_form``).
``motivating_map``, ``irrex_map`` and ``tight_map`` are presets of the one
builder, ``maps._monomial``; their former hand-written formulas stay here as
references, within a few rounding errors of the builder's kernel and
Jacobian.
"""

import math

import numpy as np
import pytest

from mhspectral import (
    NormSpec,
    SolverConfig,
    build_graph,
    build_dual_graph,
    euler_residual,
    hilbert_metric,
    irrex_map,
    maps,
    motivating_map,
    numeric_jacobian,
    power_method,
    random_interior,
    spectral_radius,
    verify_multihomogeneous,
    verify_order_preserving,
)
from mhspectral.cones import _wrap

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

EPS = float(np.finfo(float).eps)


def closed_form(E, sizes, c=None):
    """The eigenpair (x, lambda) of the monomial map of E, c, from one linear solve.

    With y = log x and ell = log lambda, F(x) = lambda (x) x reads
    (E - I) y - P ell = -log c, P spreading ell over the blocks; one row per
    block fixes the sum of y over that block to 0.
    """
    E = np.asarray(E, dtype=float)
    N, d = E.shape[0], len(sizes)
    blocks = np.repeat(np.arange(d), sizes)
    P = (blocks[:, None] == np.arange(d)).astype(float)
    M = np.block([[E - np.eye(N), -P], [P.T, np.zeros((d, d))]])
    rhs = np.concatenate([np.zeros(N) if c is None else -np.log(c), np.zeros(d)])
    z = np.linalg.solve(M, rhs)
    return _wrap(np.exp(z[:N]), maps._shape_of(tuple(sizes))), np.exp(z[N:])


def _draw(rng, sizes, rho=None, low=0.05):
    """A random multi-homogeneous E of block sizes ``sizes``, scaled to rho(A) = rho when given.

    Per pair of blocks (i, j), every row of block i holds a permutation of one
    segment over block j, so the rows' block sums agree exactly; some
    segments are zero, never a whole row.  Nonzero entries lie in [low, 1]
    before the scaling.
    """
    d, N = len(sizes), sum(sizes)
    segments = [[rng.uniform(low, 1.0, n) * (rng.random(n) < 0.6) for n in sizes] for _ in range(d)]
    for row in segments:
        if not any(seg.any() for seg in row):
            row[rng.integers(d)][0] = rng.uniform(low, 1.0)
    if rho is not None:
        A = [[math.fsum(seg) for seg in row] for row in segments]
        segments = [[seg * (rho / spectral_radius(A)) for seg in row] for row in segments]
    ends = np.cumsum(sizes)
    E = np.zeros((N, N))
    for i, n in enumerate(sizes):
        for k in range(ends[i] - n, ends[i]):
            for j, m in enumerate(sizes):
                E[k, ends[j] - m:ends[j]] = rng.permutation(segments[i][j])
    return E


def _distance_within_radius(rep, x):
    """The solve's mu_b distance from the exact x is at most its ``error_radius``, up to rounding.

    The radius bounds the distance in exact arithmetic.  In floats the last
    bracket gap is off by a few eps, which the radius scales by 1 / (1 - C)
    (C = ``rate_bound``), and the closed form by the rounding of its log x:
    over 6 000 seeded draws the excess stayed under 5.2 eps of that scale.
    A solve whose last bracket gap is 0 in floats reports a radius of 0.
    """
    slack = 16 * EPS * sum(rep.weights) * (1.0 / (1.0 - rep.rate_bound) + np.abs(np.log(x.flat)).max())
    return hilbert_metric(rep.eigenpair.x, x, rep.weights) <= rep.error_radius + slack


_SIZES = st.lists(st.integers(1, 4), min_size=1, max_size=3)
_SEEDS = st.integers(0, 2**32 - 1)
_SETTINGS = hypothesis.settings(max_examples=60, deadline=None)


class TestClosedForm:
    @_SETTINGS
    @hypothesis.given(_SIZES, _SEEDS)
    def test_solve_matches_within_its_error_radius(self, sizes, seed):
        rng = np.random.default_rng(seed)
        E, c = _draw(rng, sizes, rho=0.9), rng.uniform(0.2, 5.0, sum(sizes))
        F = maps._monomial(E, sizes, c)
        assert abs(spectral_radius(F.A) - 0.9) < 1e-12
        rep = power_method(F, None, SolverConfig(norms=NormSpec.euclidean(len(sizes)), tol=1e-13))
        assert rep.status == "converged" and rep.error_radius is not None
        x, lam = closed_form(E, sizes, c)
        assert _distance_within_radius(rep, x)
        # the exact pair is one: F(x) = lambda (x) x to rounding
        np.testing.assert_allclose(maps._kernel(F)(x.flat), np.repeat(lam, sizes) * x.flat, rtol=1e-12)

    @_SETTINGS
    @hypothesis.given(_SIZES, _SEEDS)
    def test_jacobian_and_euler_identity(self, sizes, seed):
        rng = np.random.default_rng(seed)
        F = maps._monomial(_draw(rng, sizes, rho=0.9), sizes, rng.uniform(0.2, 5.0, sum(sizes)))
        x = random_interior(F.shape, rng)
        J, Jn = F.jacobian(x), numeric_jacobian(F, x)
        np.testing.assert_allclose(J, Jn, rtol=1e-6, atol=1e-6 * np.abs(J).max())
        assert euler_residual(F, x) <= 1e-12
        assert verify_multihomogeneous(F, samples=20).passed
        assert verify_order_preserving(F, samples=20).passed

    @_SETTINGS
    @hypothesis.given(_SIZES, _SEEDS)
    def test_patterns_are_what_probing_finds(self, sizes, seed):
        # probing misses slopes under graphs._SLOPE_TOL = 0.01: exponents are >= 0.05
        rng = np.random.default_rng(seed)
        E = _draw(rng, sizes)
        F = maps._monomial(E, sizes, rng.uniform(0.2, 5.0, sum(sizes)))
        assert np.array_equal(F.edge_oracle, E > 0.0)
        assert F.dual_edge_oracle is F.edge_oracle
        assert np.array_equal(build_graph(F, mode="probe").pattern, F.edge_oracle)
        assert np.array_equal(build_dual_graph(F, mode="probe").pattern, F.dual_edge_oracle)

    def test_zero_inputs_keep_zero_to_the_zero(self):
        # E_kl = 0 leaves x_l out of F_k, where exp(E @ log x) would give NaN
        F = maps._monomial([[0.5, 0.0], [0.0, 2.0]], (1, 1), [3.0, 0.5])
        assert F.evaluator.kernel(np.array([0.0, 2.0])).tolist() == [0.0, 2.0]
        assert F.evaluator.kernel(np.array([4.0, 0.0])).tolist() == [6.0, 0.0]


class TestRefusals:
    @pytest.mark.parametrize(
        "E, sizes, c, match",
        [
            (np.eye(3), (2, 2), None, "must be 4x4"),
            (np.ones((2, 3)), (2,), None, "must be 2x2"),
            ([[1.0, -0.5], [0.5, 0.5]], (2,), None, "finite and nonnegative"),
            ([[1.0, math.nan], [0.5, 0.5]], (2,), None, "finite and nonnegative"),
            ([[1.0, math.inf], [0.5, 0.5]], (2,), None, "finite and nonnegative"),
            ([[1.0, 0.0], [0.5, 0.25]], (2,), None, "unequal block sums"),
            ([[0.0, 1.0, 0.0], [0.0, 0.5, 0.5], [1.0, 0.0, 0.0]], (2, 1), None, "unequal block sums"),
            ([[0.0, 1.0], [0.0, 0.0]], (1, 1), None, "needs a positive entry"),
            (np.eye(2), (2,), [1.0], "2 finite positive"),
            (np.eye(2), (2,), [1.0, 0.0], "2 finite positive"),
            (np.eye(2), (2,), [1.0, -1.0], "2 finite positive"),
            (np.eye(2), (2,), [1.0, math.inf], "2 finite positive"),
            (np.eye(2), (2,), [1.0, math.nan], "2 finite positive"),
        ],
    )
    def test_refused(self, E, sizes, c, match):
        with pytest.raises(ValueError, match=match):
            maps._monomial(E, sizes, c)

    def test_block_sums_are_exact_in_any_order(self):
        # 0.1 + 0.2 + 0.3 != 0.3 + 0.2 + 0.1 in floats, but fsum agrees
        F = maps._monomial([[0.1, 0.2, 0.3], [0.3, 0.2, 0.1], [0.2, 0.3, 0.1]], (3,))
        assert F.A.tolist() == [[math.fsum([0.1, 0.2, 0.3])]]


# ---------------------------------------------------------------------------
# the presets against their former hand-written formulas
# ---------------------------------------------------------------------------


def _former_motivating(flat):
    s, t, u, v = flat
    return np.array([u * u, v * v, s ** 0.125, t ** 0.125])


def _former_motivating_jacobian(flat):
    s, t, u, v = flat
    J = np.zeros((4, 4))
    J[0, 2], J[1, 3] = 2.0 * u, 2.0 * v
    J[2, 0], J[3, 1] = 0.125 * s ** (-0.875), 0.125 * t ** (-0.875)
    return J


def _former_irrex(flat):
    s, t, u, v = flat
    st_, uv = (s * t) ** 0.25, (u * v) ** 0.5
    return np.array([st_ * u ** 0.5, st_ * v ** 0.5, uv, uv])


def _former_irrex_jacobian(flat):
    s, t, u, v = flat
    f = _former_irrex(flat)
    return np.array([
        [f[0] / (4 * s), f[0] / (4 * t), f[0] / (2 * u), 0.0],
        [f[1] / (4 * s), f[1] / (4 * t), 0.0, f[1] / (2 * v)],
        [0.0, 0.0, f[2] / (2 * u), f[2] / (2 * v)],
        [0.0, 0.0, f[3] / (2 * u), f[3] / (2 * v)],
    ])


_FORMER_EDGES = {
    "motivating": {(0, 2), (1, 3), (2, 0), (3, 1)},
    "irrex": {(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 3), (2, 2), (2, 3), (3, 2), (3, 3)},
}


class TestPresets:
    @pytest.mark.parametrize(
        "F, kernel, jacobian, A",
        [
            (motivating_map(), _former_motivating, _former_motivating_jacobian, [[0.0, 2.0], [0.125, 0.0]]),
            (irrex_map(), _former_irrex, _former_irrex_jacobian, [[0.5, 0.5], [0.0, 1.0]]),
        ],
    )
    def test_within_four_eps_of_the_former_formulas(self, F, kernel, jacobian, A):
        assert F.A.tolist() == A
        assert {tuple(e) for e in np.argwhere(F.edge_oracle).tolist()} == _FORMER_EDGES[F.label]
        assert F.dual_edge_oracle is F.edge_oracle
        rng = np.random.default_rng(11)
        for _ in range(200):
            flat = rng.uniform(0.05, 3.0, 4) * 10.0 ** rng.uniform(-3, 3, 4)
            np.testing.assert_allclose(F.evaluator.kernel(flat), kernel(flat), rtol=4 * EPS, atol=0.0)
            np.testing.assert_allclose(F.jacobian(_wrap(flat, F.shape)), jacobian(flat), rtol=4 * EPS, atol=0.0)
        assert F.evaluator.kernel(np.zeros(4)).tolist() == [0.0] * 4

    def test_built_once_per_process(self):
        F, G = motivating_map(), motivating_map()
        assert F is not G and F.evaluator.kernel is G.evaluator.kernel and F.A is G.A
        assert irrex_map().evaluator.kernel is irrex_map().evaluator.kernel

    def test_closed_form_of_motivating(self):
        rep = power_method(motivating_map(), None, SolverConfig(norms=NormSpec.euclidean(2), tol=1e-13))
        x, _ = closed_form(maps._MOTIVATING, (2, 2))
        assert _distance_within_radius(rep, x)
