"""Spectral radius, Perron / contraction weights, and pattern tests."""

import functools
import warnings

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


@pytest.fixture
def cold_memo():
    """An empty per-A memo, so that a count sees every computation again."""
    homogeneity._MEMO.clear()


@pytest.mark.usefixtures("cold_memo")
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


def test_contraction_weights_decides_by_the_regime():
    # rho = 1 - 5e-11 is rho(A) = 1 under the one regime threshold
    with pytest.raises(ValueError, match="non_expansive"):
        contraction_weights([[0.0, 1.0 - 1e-10], [1.0, 0.0]])
    A = np.array([[0.0, 1.0 - 1e-8], [1.0, 0.0]])
    res = contraction_weights(A)
    assert res.exact and res.r < 1.0 - 1e-9
    assert np.all(A.T @ res.b <= res.r * res.b + 1e-12)


def _irreducible(rng, d: int, period: int) -> np.ndarray:
    """Random nonnegative d x d matrix with a strongly connected pattern of the given period."""
    group = np.arange(d) % period
    rng.shuffle(group)
    allowed = group[None, :] == (group[:, None] + 1) % period
    A = rng.uniform(0.1, 10.0, (d, d)) * allowed * (rng.uniform(size=(d, d)) < 0.6)
    # every node of a group reaches the next group's first node and is reached
    # from the previous group's first node: a strongly connected pattern
    members = [np.flatnonzero(group == g) for g in range(period)]
    for g in range(period):
        nxt = members[(g + 1) % period]
        A[members[g], nxt[0]] += 1.0
        A[members[g][0], nxt] += 1.0
    return A


def _reducible(rng, d: int, defective: bool) -> np.ndarray:
    """Random nonnegative block upper triangular d x d matrix, permuted."""
    k = int(rng.integers(1, d))
    A = rng.uniform(0.1, 3.0, (d, d)) * (rng.uniform(size=(d, d)) < 0.7)
    A[k:, :k] = 0.0
    if defective:  # equal diagonal blocks joined by a positive coupling: a Jordan block
        A[:k, :k] = A[k:, k:] = 0.0
        A[:k, :k][np.diag_indices(k)] = A[k:, k:][np.diag_indices(d - k)] = 1.0
        A[0, k] += 1.0
    perm = rng.permutation(d)
    return A[np.ix_(perm, perm)]


def _classes(A) -> list[list[int]]:
    """Classes of the pattern A > 0 from a dense transitive closure, not from a graph search."""
    d = A.shape[0]
    R = (A > 0.0) | np.eye(d, dtype=bool)
    for _ in range(d):
        R |= (R.astype(int) @ R.astype(int)) > 0
    return [list(c) for c in {tuple(np.flatnonzero(row)) for row in R & R.T}]


def _given(check, max_examples: int, **draws):
    """Run check on a drawn rng seed and drawn integers in the given (low, high) ranges."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    strategies = {k: st.integers(*v) for k, v in draws.items()}
    settings = hypothesis.settings(max_examples=max_examples, deadline=None)
    settings(hypothesis.given(seed=st.integers(0, 2**32 - 1), **strategies)(check))()


class TestPerronKernelProperties:
    """The enclosure path on irreducible A, and the squaring loops on everything else."""

    _given = staticmethod(functools.partial(_given, max_examples=120))

    def test_enclosure_contains_rho_of_irreducible_matrices(self):
        def check(seed, d, period):
            rng = np.random.default_rng(seed)
            A = _irreducible(rng, max(d, period), period)
            exact = float(np.max(np.abs(np.linalg.eigvals(A))))
            v = homogeneity._perron_candidate(A)
            lo, hi = homogeneity._cw_enclosure(A, v)
            slack = 1e-12 * exact
            assert lo <= exact + slack and exact <= hi + slack, (lo, exact, hi)
            assert abs(spectral_radius(A) - exact) <= 1e-12 * exact

        self._given(check, d=(2, 12), period=(1, 5))

    def test_reducible_and_defective_take_the_squaring_bit_for_bit(self):
        # rho of a reducible A is that of its classes; its Perron vectors are
        # the uniform one or the squaring's, never the candidate's
        def check(seed, d, defective):
            rng = np.random.default_rng(seed)
            A = _reducible(rng, d, bool(defective))
            assert not is_irreducible(A)
            rho = spectral_radius(A)
            assert rho == max(spectral_radius(A[np.ix_(c, c)]) for c in _classes(A))
            try:
                b = perron_weights(A)
            except PerronStructureError:
                return
            sums = A.sum(axis=0)
            if sums.min() == sums.max():
                assert np.array_equal(b, np.full(d, 1.0 / d))
            else:
                assert np.array_equal(b, homogeneity._by_squaring(A.T)[1])

        self._given(check, d=(2, 8), defective=(0, 1))

    def test_perron_weights_postconditions(self):
        def check(seed, d, period):
            rng = np.random.default_rng(seed)
            A = _irreducible(rng, max(d, period), period)
            b = perron_weights(A)
            rho = spectral_radius(A)
            assert b.min() > 1e-12 * b.max() and abs(b.sum() - 1.0) < 1e-12
            assert np.max(np.abs(A.T @ b - rho * b)) <= 1e-10 * max(1.0, rho)

        self._given(check, d=(2, 12), period=(1, 5))


class TestRadiusByStructure:
    """Row sums, the class structure and the relative shift: scale-free radii."""

    _given = staticmethod(functools.partial(_given, max_examples=60))

    def test_reducible_radius_is_the_largest_class_radius(self):
        def check(seed, d, defective, scale):
            rng = np.random.default_rng(seed)
            s = (1e-300, 1.0, 1e300)[scale]
            A = _reducible(rng, d, bool(defective)) * s
            classes = _classes(A)
            rho = spectral_radius(A)
            if all(len(c) == 1 for c in classes):
                assert rho == np.diagonal(A).max()
            else:
                radii = [float(np.max(np.abs(np.linalg.eigvals(A[np.ix_(c, c)] / s)))) * s for c in classes]
                assert abs(rho - max(radii)) <= 1e-12 * max(radii), (rho, radii)
            if s == 1.0:  # eigvals of a Jordan block err by about sqrt(eps)
                exact = float(np.max(np.abs(np.linalg.eigvals(A))))
                assert abs(rho - exact) <= (1e-7 if defective else 1e-11) * exact

        self._given(check, d=(2, 8), defective=(0, 1), scale=(0, 2))

    def test_spread_irreducible_matrices_at_any_scale(self):
        # entries over 10^-8 .. 10^8: the eig candidate often misses its
        # enclosure, and the squaring answers
        def check(seed, d, period, exponent):
            rng = np.random.default_rng(seed)
            n = max(d, period)
            A = _irreducible(rng, n, period) * 10.0 ** rng.uniform(-8.0, 8.0, (n, n)) * 10.0**exponent
            exact = float(np.max(np.abs(np.linalg.eigvals(A))))
            assert abs(spectral_radius(A) - exact) <= 1e-10 * exact

        self._given(check, d=(2, 8), period=(1, 4), exponent=(-100, 100))

    def test_reducible_extremes_are_exact(self):
        for A, rho in (
            ([[1e-300, 1e-300], [0.0, 1e-300]], 1e-300),
            ([[1e-10, 1.0], [0.0, 2e-10]], 2e-10),
            ([[1e300, 1e300], [0.0, 1e300]], 1e300),
        ):
            assert spectral_radius(A) == rho

    def test_a_failed_candidate_scales(self):
        A = np.array([[0.0, 1.0, 1e4], [1e-5, 0.0, 1e-7], [1e4, 1e-7, 0.0]])
        lo, hi = homogeneity._cw_enclosure(A, homogeneity._perron_candidate(A))
        assert hi - lo > 1e-13 * hi  # the squaring answers
        rho = spectral_radius(A)
        assert abs(rho - float(np.max(np.abs(np.linalg.eigvals(A))))) <= 1e-13 * rho
        for e in range(-250, 251, 25):
            assert abs(spectral_radius(A * 10.0**e) - rho * 10.0**e) <= 1e-13 * rho * 10.0**e, e

    def test_uniform_row_sums_give_the_row_sum_and_the_uniform_vector(self):
        A = np.array([[1.0, 2.0, 3.0], [3.0, 1.0, 2.0], [2.0, 3.0, 1.0]])
        homogeneity._MEMO.clear()
        assert spectral_radius(A) == 6.0
        assert np.array_equal(perron_weights(A), np.full(3, 1.0 / 3.0))
        analysis = analyze_homogeneity(A)
        assert analysis.rho == 6.0 and np.array_equal(analysis.right_perron, np.full(3, 1.0 / 3.0))
        # reducible, with uniform row sums but not column sums: the right
        # vector is uniform, and no left one is positive
        B = np.array([[1.0, 1.0], [0.0, 2.0]])
        assert spectral_radius(B) == 2.0
        assert np.array_equal(analyze_homogeneity(B).right_perron, [0.5, 0.5])
        with pytest.raises(PerronStructureError):
            perron_weights(B)


class TestRecord:
    def test_one_record_per_matrix(self):
        homogeneity._MEMO.clear()
        assert analyze_homogeneity(MOTIVATING_A) is analyze_homogeneity(MOTIVATING_A.tolist())
        ring = np.roll(np.eye(65), 1, axis=1) * 0.5  # above the memo's size cap
        assert analyze_homogeneity(ring) is not analyze_homogeneity(ring)

    def test_read_only(self):
        analysis = analyze_homogeneity(MOTIVATING_A)
        for name in ("A", "rho", "regime", "auto_weights", "irreducible", "primitive", "right_perron", "other"):
            with pytest.raises(AttributeError):
                setattr(analysis, name, None)
        analysis.auto_weights
        with pytest.raises(AttributeError):
            del analysis.auto_weights
        assert analysis.rho == 0.5 and analysis.auto_weights[0] is not None

    def test_repr(self):
        assert repr(analyze_homogeneity(MOTIVATING_A)) == (
            "HomogeneityAnalysis(d=2, rho=0.5, regime='strict_contraction')"
        )


def test_empty_matrices_are_refused():
    Z = np.zeros((0, 0))
    for f in (spectral_radius, perron_weights, contraction_weights, analyze_homogeneity):
        with pytest.raises(ValueError, match="nonempty"):
            f(Z)
    with pytest.raises(ValueError, match="nonempty"):
        lipschitz_bound(Z, np.ones(0))


_NOT_FINITE_NONNEG = "matrix must be nonnegative and finite"
_NOT_SQUARE = "need a square matrix"
_EMPTY = "need a nonempty matrix: a 0 x 0 matrix has no spectral radius"
# each refusal of the one input check, the 0 x 0 matrix in its own column
# (is_irreducible takes it: the empty pattern is irreducible vacuously)
_REFUSED = [
    ([[1.0, float("nan")], [1.0, 1.0]], _NOT_FINITE_NONNEG, _NOT_FINITE_NONNEG),
    ([[1.0, 1.0], [float("inf"), 1.0]], _NOT_FINITE_NONNEG, _NOT_FINITE_NONNEG),
    ([[-float("inf"), 1.0], [1.0, 1.0]], _NOT_FINITE_NONNEG, _NOT_FINITE_NONNEG),
    ([[1.0, -1e-300], [1.0, 1.0]], _NOT_FINITE_NONNEG, _NOT_FINITE_NONNEG),
    ([[float("nan"), -1.0], [float("inf"), 1.0]], _NOT_FINITE_NONNEG, _NOT_FINITE_NONNEG),
    (np.ones((2, 3)), _NOT_SQUARE, _NOT_SQUARE),
    (np.ones(2), _NOT_SQUARE, _NOT_SQUARE),
    (np.ones((2, 2, 2)), _NOT_SQUARE, _NOT_SQUARE),
    (np.zeros((0, 0)), _EMPTY, None),
]


@pytest.mark.parametrize("A, message, irreducible_message", _REFUSED)
def test_the_input_check_refuses_with_its_messages_and_warns_of_nothing(A, message, irreducible_message):
    calls = {
        spectral_radius: message,
        analyze_homogeneity: message,
        lambda A: lipschitz_bound(A, [1.0, 1.0]): message,
        is_irreducible: irreducible_message,
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a RuntimeWarning would raise in place of the ValueError
        for f, want in calls.items():
            if want is None:
                assert f(A) is True
                continue
            with pytest.raises(ValueError) as info:
                f(A)
            assert str(info.value) == want


@pytest.mark.parametrize("b", [[float("nan")], [float("inf")], [-float("inf")], [0.0]])
def test_lipschitz_bound_refuses_weights_that_are_not_finite_and_positive(b):
    with pytest.raises(ValueError, match="strictly positive vector"):
        lipschitz_bound([[1.0]], b)


def _ulps(x: float, exact: float) -> float:
    return abs(x - exact) / np.spacing(exact)


class TestClosedForms:
    """rho of the period-2 and ring homogeneity matrices to within 4 ulp of the closed form."""

    def test_singular_and_motivating(self):
        from mhspectral import motivating_map, singular_map

        M = np.random.default_rng(7).uniform(0.1, 1.0, (3, 5))
        assert _ulps(singular_map(M).analysis.rho, 1.0) <= 4
        assert _ulps(motivating_map().analysis.rho, 0.5) <= 4

    @pytest.mark.parametrize("p", [1.5, 3.0, 4.0, 5.0])
    @pytest.mark.parametrize("q", [3.0, 4.0, 5.0, 7.5])
    def test_pq_singular(self, p, q):
        from mhspectral import pq_singular_map

        F = pq_singular_map(np.ones((2, 3)), p, q)
        assert _ulps(F.analysis.rho, ((p - 1.0) * (q - 1.0)) ** -0.5) <= 4

    def test_ring(self):
        d = 60
        A = np.zeros((d, d))
        A[np.arange(d), (np.arange(d) + 1) % d] = 0.95
        assert _ulps(analyze_homogeneity(A).rho, 0.95) <= 4


@pytest.mark.usefixtures("cold_memo")
def test_cli_families_skip_the_squaring_for_irreducible_A(monkeypatch):
    """No squaring loop runs on an irreducible A (or A^T) over analyze, solve and certify."""
    import copy
    import json
    import pathlib

    from mhspectral import cli

    seen = []
    original = homogeneity._by_squaring

    def counting(M):
        seen.append(np.array(M))
        return original(M)

    monkeypatch.setattr(homogeneity, "_by_squaring", counting)
    golden = pathlib.Path(__file__).resolve().parent / "data" / "graph_reports.json"
    irreducible = 0
    for family, entry in json.loads(golden.read_text()).items():
        doc = entry["doc"]
        A = cli.parse_instance(copy.deepcopy(doc)).map.A
        seen.clear()
        cli.run_analyze(copy.deepcopy(doc))
        try:
            _, solved = cli.run_solve(copy.deepcopy(doc))
        except cli.InstanceError:
            solved = None
        if solved is not None and solved["eigenvector"] is not None:
            cli.run_certify(copy.deepcopy(doc), json.loads(cli.dump_json(solved)))
        if A.shape[0] > 1 and is_irreducible(A):
            irreducible += 1
            hits = [M for M in seen if M.shape == A.shape and (np.array_equal(M, A) or np.array_equal(M, A.T))]
            assert not hits, family
    assert irreducible >= 5


def _drawn(rng, d: int, kind: int) -> np.ndarray:
    """A nonnegative d x d matrix: sparse random, irreducible of period 2, or reducible."""
    if kind == 0 or d == 1:
        return rng.uniform(0.0, 2.0, (d, d)) * (rng.uniform(size=(d, d)) < 0.6)
    if kind == 1:
        return _irreducible(rng, d, 2)
    return _reducible(rng, d, defective=kind == 3)


def _facts_of(A) -> dict:
    """Every memoized answer about A through the public interface, errors as their text."""
    analysis = analyze_homogeneity(A)
    out = {
        "rho": analysis.rho,
        "radius": spectral_radius(A),
        "auto_weights": analysis.auto_weights,
        "irreducible": analysis.irreducible,
        "primitive": analysis.primitive,
        "right_perron": analysis.right_perron,
    }
    try:
        out["perron"] = perron_weights(A)
    except PerronStructureError as exc:
        out["perron"] = str(exc)
    if analysis.regime == "strict_contraction":
        res = contraction_weights(A)
        out["contraction"] = (res.b, res.r, res.exact)
    return out


def _assert_identical(x, y):
    """x and y agree bit for bit, through dicts, tuples and lists."""
    if isinstance(x, dict):
        assert x.keys() == y.keys()
        for key in x:
            _assert_identical(x[key], y[key])
    elif isinstance(x, (tuple, list)):
        assert len(x) == len(y)
        for a, b in zip(x, y):
            _assert_identical(a, b)
    elif isinstance(x, np.ndarray):
        assert isinstance(y, np.ndarray) and (x.dtype, x.shape) == (y.dtype, y.shape)
        assert x.tobytes() == y.tobytes()
    elif isinstance(x, float):
        assert type(y) is float and x.hex() == y.hex()
    else:
        assert type(x) is type(y) and x == y


class TestMemo:
    """One record per distinct analysed A: the same answers, bit for bit, as without it."""

    _given = staticmethod(functools.partial(_given, max_examples=40))

    def test_cached_answers_equal_the_fresh_ones(self):
        def check(seed, d, kind):
            A = _drawn(np.random.default_rng(seed), d, kind)
            homogeneity._MEMO.clear()
            rho = spectral_radius(A)
            fresh = {
                "radius": rho,
                "irreducible": is_irreducible(A),
                "primitive": is_primitive(A),
            }
            try:
                fresh["perron"] = perron_weights(A)
            except PerronStructureError as exc:
                fresh["perron"] = str(exc)
            right = homogeneity._perron_vector(A, rho)
            fresh["right_perron"] = None if isinstance(right, PerronStructureError) else right
            assert not homogeneity._MEMO  # no analysis yet, so no record
            cold = _facts_of(A)  # fills the record
            assert len(homogeneity._MEMO) == 1
            warm = _facts_of(A)  # reads it
            for key, value in fresh.items():
                _assert_identical(cold[key], value)
            _assert_identical(cold, warm)
            homogeneity._MEMO.clear()
            _assert_identical(_facts_of(A), warm)

        self._given(check, d=(1, 6), kind=(0, 3))

    def test_mutating_the_callers_array_changes_no_answer(self):
        def check(seed, d, kind):
            A = _drawn(np.random.default_rng(seed), d, kind)
            homogeneity._MEMO.clear()
            mine = A.copy()
            analysis = analyze_homogeneity(mine)
            before = _facts_of(A)
            mine += 1.0
            mine[0, 0] = 0.0
            _assert_identical(_facts_of(A), before)
            assert analysis.A is not mine and np.array_equal(analysis.A, A)
            assert analysis.auto_weights is not None and not analysis.A.flags.writeable

        self._given(check, d=(1, 6), kind=(0, 3))

    def test_equal_matrices_in_any_form_get_identical_answers(self):
        def check(seed, d):
            A = np.random.default_rng(seed).integers(0, 4, (d, d)).astype(float)
            forms = [A.tolist(), A.astype(int), np.asfortranarray(A), np.ascontiguousarray(A.T).T]
            homogeneity._MEMO.clear()
            expected = _facts_of(A)
            for form in forms:
                _assert_identical(_facts_of(form), expected)
                homogeneity._MEMO.clear()
                _assert_identical(_facts_of(form), expected)

        self._given(check, d=(1, 6))

    def test_cached_arrays_are_read_only_or_copies(self):
        homogeneity._MEMO.clear()
        analysis = analyze_homogeneity(MOTIVATING_A)
        for b in (analysis.auto_weights[0], analysis.right_perron, analysis.A):
            assert not b.flags.writeable
        fresh = perron_weights(MOTIVATING_A)
        fresh[0] = 7.0
        assert perron_weights(MOTIVATING_A)[0] != 7.0
        res = contraction_weights(MOTIVATING_A)
        res.b[0] = 7.0
        assert contraction_weights(MOTIVATING_A).b[0] != 7.0

    def test_pattern_facts_use_the_pattern_tolerance(self):
        homogeneity._MEMO.clear()
        for A in ([[0.0, 1e-13], [1.0, 0.0]], [[1e-13, 1.0], [1.0, 0.0]], [[0.5, 1e-13], [0.0, 0.5]]):
            analysis = analyze_homogeneity(A)
            assert analysis.irreducible == is_irreducible(A)
            assert analysis.primitive == is_primitive(A)
        assert not analyze_homogeneity([[0.0, 1e-13], [1.0, 0.0]]).irreducible

    def test_large_and_throwaway_matrices_add_no_record(self):
        from mhspectral import certify_uniqueness, linear_map, power_method, tight_map
        from mhspectral.cones import NormSpec
        from mhspectral.solver import SolverConfig

        homogeneity._MEMO.clear()
        ring = np.roll(np.eye(65), 1, axis=1) * 0.5
        assert analyze_homogeneity(ring).auto_weights[0] is not None
        assert abs(spectral_radius(ring) - 0.5) < 1e-12 and not homogeneity._MEMO

        A = np.array([[0.5, 1.0], [0.0, 0.5]])  # no positive Perron vector: the bisection
        assert not contraction_weights(A).exact
        assert list(homogeneity._MEMO) == [(2, A.tobytes())]

        for F, weights in (
            (linear_map(np.random.default_rng(5).uniform(0.5, 2.0, (4, 4))), None),
            # no positive right Perron vector: rho of the 5 x 5 L_pos itself
            (tight_map([[1.0, 0.5], [0.0, 0.5]], (2, 3)), np.array([0.5, 0.5])),
        ):
            homogeneity._MEMO.clear()
            cfg = SolverConfig(norms=NormSpec.euclidean(F.shape.d), weights=weights)
            rep = power_method(F, None, cfg)
            cert = certify_uniqueness(F, rep)
            assert "rho_L" in cert.data
            assert list(homogeneity._MEMO) == [(F.shape.d, F.A.tobytes())]

    def test_the_memo_is_bounded(self):
        homogeneity._MEMO.clear()
        for k in range(homogeneity._MEMO_SIZE + 5):
            analyze_homogeneity([[0.5 + k / 1000.0]])
        assert len(homogeneity._MEMO) == homogeneity._MEMO_SIZE
        assert (1, np.array([[0.5]]).tobytes()) not in homogeneity._MEMO

    def test_threads_share_the_memo_without_losing_a_record(self):
        import sys
        import threading

        matrices = [np.array([[0.0, 0.5 + k / 1000.0], [0.5, 0.1]]) for k in range(homogeneity._MEMO_SIZE + 40)]
        homogeneity._MEMO.clear()
        expected = [analyze_homogeneity(A).auto_weights[0] for A in matrices]
        homogeneity._MEMO.clear()
        wrong = []

        def work(offset):
            for k in range(len(matrices)):
                j = (k + offset) % len(matrices)
                analysis = analyze_homogeneity(matrices[j])
                if not np.array_equal(analysis.auto_weights[0], expected[j]):
                    wrong.append(j)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(17 * i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not wrong
        assert len(homogeneity._MEMO) == homogeneity._MEMO_SIZE
        assert all(k == (f.A.shape[0], f.A.tobytes()) for k, f in homogeneity._MEMO.items())
