"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with ``pytest -v -s tests/test_acceptance.py`` to see one line per
criterion.  Tolerances are pinned here and nowhere else.
"""

import math
import time

import numpy as np

from mhspectral import (
    DeltaSchedule,
    NormSpec,
    ProductVector,
    build_dual_graph,
    build_graph,
    certify_uniqueness,
    check_dirr,
    check_existence_condition,
    compose,
    cw_bounds,
    delta_continuation,
    evaluate,
    hadamard,
    hilbert_metric,
    irrex_map,
    is_irreducible,
    is_strongly_connected,
    linear_map,
    max_example_map,
    motivating_map,
    nonirr_map,
    normalize,
    numeric_jacobian,
    ones_vector,
    power_method,
    pq_singular_map,
    random_interior,
    shifted,
    singular_map,
    spectral_radius,
    tensor_eigen_map,
    thompson_metric,
    tight_map,
    verify_multihomogeneous,
    weighted_sum,
)
from mhspectral.cones import ShapeSpec
from mhspectral.maps import euler_residual
from mhspectral.solver import SolverConfig

MOTIVATING_A = np.array([[0.0, 2.0], [0.125, 0.0]])
IRREX_DF1 = np.array(
    [
        [0.25, 0.25, 0.5, 0.0],
        [0.25, 0.25, 0.0, 0.5],
        [0.0, 0.0, 0.5, 0.5],
        [0.0, 0.0, 0.5, 0.5],
    ]
)


def _passed(n, text):
    print(f"[acceptance {n}] {text}: PASS")


def _interior_(shape, norms, rng, low=0.05, high=1.0):
    return normalize(random_interior(shape, rng, low, high), norms)


def _boundary_(shape, norms, rng):
    while True:
        blocks = [rng.uniform(0.0, 1.0, n) for n in shape.sizes]
        for blk in blocks:
            blk[rng.random(blk.size) < 0.3] = 0.0
        x = ProductVector(blocks)
        if x.is_semipos():
            return normalize(x, norms)


def test_criterion_1_motivating_example_reproduction():
    t_start = time.perf_counter()
    F = motivating_map()
    b = np.array([0.25, 1.0])

    assert abs(spectral_radius(F.A) - 0.5) <= 1e-12
    np.testing.assert_allclose(MOTIVATING_A.T @ b, 0.5 * b, atol=1e-12)

    # the four-coordinate pair treated as one block: ln 2 before, ln 4 after
    x = ProductVector([[1.0, 1.0, 1.0, 1.0]])
    y = ProductVector([[1.0, 1.0, 1.0, 2.0]])
    two = ShapeSpec((2, 2))
    fx = ProductVector([evaluate(F, ProductVector.from_flat(x.concat(), two)).concat()])
    fy = ProductVector([evaluate(F, ProductVector.from_flat(y.concat(), two)).concat()])
    assert abs(hilbert_metric(x, y, [1.0]) - math.log(2)) <= 1e-12
    assert abs(thompson_metric(x, y, [1.0]) - math.log(2)) <= 1e-12
    assert abs(hilbert_metric(fx, fy, [1.0]) - math.log(4)) <= 1e-12
    assert abs(thompson_metric(fx, fy, [1.0]) - math.log(4)) <= 1e-12

    rng = np.random.default_rng(2026)
    for _ in range(1000):
        p = random_interior(F.shape, rng, 0.1, 3.0)
        q = random_interior(F.shape, rng, 0.1, 3.0)
        lhs = hilbert_metric(evaluate(F, p), evaluate(F, q), b)
        assert lhs <= 0.5 * hilbert_metric(p, q, b) + 1e-10

    norms = NormSpec.euclidean(2)
    x0 = normalize(ProductVector([[1.0, 2.0], [3.0, 1.0]]), norms)
    rep = power_method(F, x0, SolverConfig(norms=norms, weights=b))
    assert rep.status == "converged"
    assert rep.envelope_ok
    u = rep.eigenpair.x
    mu0 = hilbert_metric(x0, u, b)
    # the iterates x_0 .. x_{K-1} before the converged step, by a reference loop
    xk = x0
    for k in range(rep.iterations):
        assert hilbert_metric(xk, u, b) <= 0.5**k * mu0 / 0.5 + 1e-12
        xk = normalize(evaluate(F, xk), norms)
    elapsed = time.perf_counter() - t_start
    assert elapsed < 1.0
    _passed(1, f"motivating example reproduced in {elapsed:.3f}s")


def test_criterion_2_collatz_wielandt_suite():
    rng = np.random.default_rng(7)
    cases = [
        ("motivating", motivating_map(), NormSpec.euclidean(2), None),
        (
            "pq_singular(4,4)",
            pq_singular_map(np.array([[1.0, 2.0], [3.0, 4.0]]), 4, 4),
            NormSpec.lp(4, 2),
            np.array([0.5, 0.5]),
        ),
        (
            "tensor(m=3,p=4)",
            tensor_eigen_map(rng.uniform(0.2, 1.5, (3, 3, 3)), 4.0),
            NormSpec.euclidean(1),
            None,
        ),
        ("linear", linear_map(rng.uniform(0.5, 2.0, (4, 4))), NormSpec.euclidean(1), None),
    ]
    for name, F, norms, w in cases:
        rep = power_method(F, None, SolverConfig(norms=norms, weights=w))
        assert rep.status == "converged", name
        r_b, b = rep.eigenpair.r_b, rep.weights
        for _ in range(1000):
            v = _boundary_(F.shape, norms, rng)
            lower, _ = cw_bounds(F, v, b)
            assert lower <= r_b + 1e-9, name
        for _ in range(1000):
            uu = _interior_(F.shape, norms, rng)
            _, upper = cw_bounds(F, uu, b)
            assert upper >= r_b - 1e-9, name
        lo_star, hi_star = cw_bounds(F, rep.eigenpair.x, b)
        assert abs(lo_star - hi_star) <= 1e-9, name
        assert abs(lo_star - r_b) <= 1e-9, name
    _passed(2, "CW bounds bracket r_b on 4 families, 1000 samples per side")


def test_criterion_3_oracle_equivalence():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(2, 51))
        M = rng.uniform(0.5, 2.0, (n, n))
        rep = power_method(
            linear_map(M),
            None,
            SolverConfig(norms=NormSpec.euclidean(1), tol=1e-13),
        )
        w, V = np.linalg.eig(M)
        i = int(np.argmax(w.real))
        v = np.abs(V[:, i].real)
        v /= np.linalg.norm(v)
        assert np.max(np.abs(rep.eigenpair.x.blocks[0] - v)) <= 1e-10
        assert abs(rep.eigenpair.lam[0] - w.real[i]) <= 1e-10 * max(1.0, w.real[i])

    for _ in range(20):
        m, n = int(rng.integers(2, 51)), int(rng.integers(2, 51))
        M = rng.uniform(0.5, 2.0, (m, n))
        F = singular_map(M)
        norms = NormSpec.euclidean(2)
        x0 = normalize(random_interior(F.shape, rng), norms)
        rep = power_method(
            F, x0, SolverConfig(norms=norms, weights=np.array([0.5, 0.5]), tol=1e-12)
        )
        assert rep.status == "converged"
        U, S, Vt = np.linalg.svd(M)
        assert np.max(np.abs(rep.eigenpair.x.blocks[0] - np.abs(U[:, 0]))) <= 1e-8
        assert np.max(np.abs(rep.eigenpair.x.blocks[1] - np.abs(Vt[0]))) <= 1e-8
        assert abs(rep.eigenpair.r_b - S[0]) <= 1e-8 * max(1.0, S[0])

    M = np.array([[1.0, 2.0], [3.0, 4.0]])
    rep = power_method(
        pq_singular_map(M, 4, 4),
        None,
        SolverConfig(norms=NormSpec.lp(4, 2), weights=np.array([0.5, 0.5])),
    )
    a = np.arange(0.0, 1.0 + 1e-12, 1e-3)
    sphere = np.stack([a, (1.0 - a**4) ** 0.25])
    grid_max = float(np.max(sphere.T @ M @ sphere))
    assert abs(rep.eigenpair.r_b**3 - grid_max) <= 1e-4
    _passed(3, "Perron/SVD/grid-search oracles matched at stated tolerances")


def test_criterion_4_bracket_monotonicity():
    rng = np.random.default_rng(13)
    families = [
        (motivating_map(), NormSpec.euclidean(2), None),
        (linear_map(rng.uniform(0.5, 2.0, (4, 4))), NormSpec.euclidean(1), None),
        (singular_map(rng.uniform(0.5, 2.0, (3, 4))), NormSpec.euclidean(2), np.array([0.5, 0.5])),
        (
            pq_singular_map(rng.uniform(0.5, 2.0, (3, 3)), 4, 4),
            NormSpec.lp(4, 2),
            np.array([0.5, 0.5]),
        ),
        (tensor_eigen_map(rng.uniform(0.2, 1.5, (3, 3, 3)), 4.0), NormSpec.euclidean(1), None),
        (tight_map([[0.4, 0.3], [0.2, 0.5]], (2, 2)), NormSpec.euclidean(2), None),
        (max_example_map(0.3), NormSpec.lp(math.inf, 1), None),
    ]
    # block-cyclic matrices of period 2 to 4, 2 x 2 positive blocks from group
    # i to group i + 1: imprimitive, so their brackets run into lazy steps
    cyc = np.random.default_rng(14)
    for p in (2, 3, 4):
        pattern = np.kron(np.roll(np.eye(p), 1, axis=1), np.ones((2, 2)))
        families.append((linear_map(pattern * cyc.uniform(0.5, 2.0, (2 * p, 2 * p))), NormSpec.euclidean(1), None))
    runs = violations = 0
    for F, norms, w in families:
        for _ in range(15):
            x0 = normalize(random_interior(F.shape, rng, 0.2, 2.0), norms)
            rep = power_method(
                F, x0, SolverConfig(norms=norms, weights=w, max_iter=400)
            )
            runs += 1
            lo = np.array([t[0] for t in rep.bracket_trace])
            hi = np.array([t[1] for t in rep.bracket_trace])
            violations += int(np.any(np.diff(lo) < -1e-12))
            violations += int(np.any(np.diff(hi) > 1e-12))
    assert runs >= 100
    assert violations == 0
    _passed(4, f"monotone brackets over {runs} randomized runs, zero violations")


def test_criterion_5_graph_suite():
    timings = {}

    t0 = time.perf_counter()
    g = build_graph(nonirr_map())
    assert check_existence_condition(g)
    assert not is_strongly_connected(g)
    gd = build_dual_graph(nonirr_map())
    assert gd.edges == frozenset({((0, 0), (0, 0)), ((0, 1), (0, 1))})
    timings["nonirr"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    eps = 0.3
    F = max_example_map(eps)
    assert is_strongly_connected(build_graph(F))
    for bb in (eps, (eps + 1) / 2, 1.0):
        for cc in (eps, (eps + 1) / 2, 1.0):
            v = ProductVector([[1.0, bb, cc]])
            assert evaluate(F, v) == v
    timings["max_example"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    rng = np.random.default_rng(17)
    M = rng.uniform(0.2, 1.0, (5, 5))
    M[rng.random((5, 5)) < 0.5] = 0.0
    M += np.diag(rng.uniform(0.2, 1.0, 5))
    expected = frozenset(((0, int(k)), (0, int(j))) for k, j in zip(*np.nonzero(M > 0)))
    assert build_graph(linear_map(M), "probe").edges == expected
    R = rng.uniform(0.2, 1.0, (3, 4))
    R[0, 2] = 0.0
    gb = build_graph(singular_map(R), "probe")
    bi = frozenset(
        e
        for k, j in zip(*np.nonzero(R > 0))
        for e in (((0, int(k)), (1, int(j))), ((1, int(j)), (0, int(k))))
    )
    assert gb.edges == bi
    timings["linear/singular"] = time.perf_counter() - t0

    assert all(dt < 1.0 for dt in timings.values()), timings
    _passed(5, "graph suite verdicts and exact patterns, each under 1s")


def test_criterion_6_certificates():
    F = motivating_map()
    rep = power_method(F, None, SolverConfig(norms=NormSpec.euclidean(2)))
    assert certify_uniqueness(F, rep).kind == "contraction"

    rng = np.random.default_rng(19)
    L = linear_map(rng.uniform(0.5, 2.0, (4, 4)))
    repL = power_method(L, None, SolverConfig(norms=NormSpec.euclidean(1)))
    assert certify_uniqueness(L, repL).kind == "jacobian_irreducible"

    Fi = irrex_map()
    J = numeric_jacobian(Fi, ones_vector(Fi.shape))
    np.testing.assert_allclose(J, IRREX_DF1, atol=1e-6)
    assert not is_irreducible(IRREX_DF1)
    assert check_dirr(IRREX_DF1, 0, 2, Fi.shape)

    Fm = max_example_map(0.3)
    repM = power_method(Fm, None, SolverConfig(norms=NormSpec.euclidean(1)))
    assert certify_uniqueness(Fm, repM).kind == "none"
    _passed(6, "contraction / jacobian_irreducible / dirr / none issued as derived")


def test_criterion_7_delta_continuation():
    F = linear_map([[1.0, 1.0], [0.0, 1.0]])
    cfg = SolverConfig(
        norms=NormSpec.euclidean(1),
        max_iter=20_000,
        delta_schedule=DeltaSchedule(1.0, 0.5, 9e-7),
    )
    rep = delta_continuation(F, cfg)
    assert rep.status == "converged"
    rs = [r for _, r in rep.delta_trace]
    assert all(rs[i] > rs[i + 1] for i in range(len(rs) - 1))  # strict increase in delta
    last_delta, _ = rep.delta_trace[-1]
    assert last_delta <= 1e-6
    assert rep.eigenpair.x.blocks[0][1] < 1e-3
    assert abs(rep.r_extrapolated - 1.0) < 1e-3

    G = motivating_map()
    cfgG = SolverConfig(norms=NormSpec.euclidean(2))
    cont = delta_continuation(G, cfgG)
    direct = power_method(G, None, cfgG)
    assert abs(cont.r_extrapolated - direct.eigenpair.r_b) <= 1e-8
    _passed(7, "continuation monotone in delta; defective limit and contraction agreement")


def test_criterion_8_map_algebra_homogeneity():
    F, G = motivating_map(), irrex_map()
    norms = NormSpec.euclidean(2)
    composed = compose(F, G)
    np.testing.assert_allclose(composed.A, np.asarray(F.A) @ np.asarray(G.A))
    product = hadamard(F, G)
    np.testing.assert_allclose(product.A, np.asarray(F.A) + np.asarray(G.A))
    shift = shifted(F, 0.6, norms)
    np.testing.assert_allclose(shift.A, F.A)
    D = np.maximum(np.asarray(F.A), np.asarray(G.A)) + 0.25
    summed = weighted_sum(F, G, D, norms)
    np.testing.assert_allclose(summed.A, D)
    for H in (composed, product, shift, summed):
        report = verify_multihomogeneous(H, samples=1000, tol=1e-9, seed=23)
        assert report.passed, (H.label, report.max_deviation)
    _passed(8, "compose/hadamard/shifted/weighted_sum audits at 1e-9, 1000 samples each")


def test_criterion_9_euler_identity():
    rng = np.random.default_rng(29)
    families = [
        linear_map(rng.uniform(0.5, 2.0, (4, 4))),
        singular_map(rng.uniform(0.5, 2.0, (3, 4))),
        pq_singular_map(rng.uniform(0.5, 2.0, (3, 3)), 4, 4),
        tensor_eigen_map(rng.uniform(0.2, 1.5, (3, 3, 3)), 4.0),
        motivating_map(),
        irrex_map(),
        tight_map([[0.5, 0.5], [0.25, 0.75]], (2, 2)),
    ]
    for F in families:
        assert F.differentiable
        for _ in range(100):
            x = random_interior(F.shape, rng, 0.3, 2.0)
            assert euler_residual(F, x) < 1e-6, F.label
    _passed(9, "Euler identity below 1e-6 at 100 random points per family")
