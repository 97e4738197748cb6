"""The families' index-graph patterns against the edge-set builders they replace.

The reference routines below are the library's former oracle builders: each
returned a frozenset of ((k, l), (i, j)) node pairs, built entry by entry in
Python.  The families now hand out one read-only boolean N x N pattern in
block-major node order, and its edges must be exactly the former set, for the
primal and the dual graph alike.
"""

import numpy as np
import pytest

from mhspectral import (
    MapInstance,
    ShapeSpec,
    irrex_map,
    linear_map,
    max_example_map,
    motivating_map,
    nonirr_map,
    pq_singular_map,
    singular_map,
    tensor_eigen_map,
    tight_map,
)

# ---------------------------------------------------------------------------
# reference builders
# ---------------------------------------------------------------------------


def _ref_linear_edges(M):
    return frozenset(((0, int(k)), (0, int(j))) for k, j in zip(*np.nonzero(M > 0)))


def _ref_linear_dual_edges(M):
    edges = []
    for k in range(M.shape[0]):
        support = np.nonzero(M[k] > 0)[0]
        if support.size == 1:
            edges.append(((0, k), (0, int(support[0]))))
    return frozenset(edges)


def _ref_bipartite_edges(M):
    rows, cols = np.nonzero(M > 0)
    fwd = (((0, int(k)), (1, int(j))) for k, j in zip(rows, cols))
    bwd = (((1, int(j)), (0, int(k))) for k, j in zip(rows, cols))
    return frozenset(fwd) | frozenset(bwd)


def _ref_bipartite_dual_edges(M):
    edges = []
    for k in range(M.shape[0]):
        support = np.nonzero(M[k] > 0)[0]
        if support.size == 1:
            edges.append(((0, k), (1, int(support[0]))))
    for j in range(M.shape[1]):
        support = np.nonzero(M[:, j] > 0)[0]
        if support.size == 1:
            edges.append(((1, j), (0, int(support[0]))))
    return frozenset(edges)


def _ref_tensor_edges(T):
    n = T.shape[0]
    edges, dual_edges = [], []
    for j in range(n):
        idx = np.argwhere(T[j] > 0.0)
        present = set(int(r) for r in idx.ravel())
        everywhere = set(range(n))
        for row in idx:
            everywhere &= set(int(r) for r in row)
        edges.extend(((0, j), (0, r)) for r in present)
        dual_edges.extend(((0, j), (0, r)) for r in everywhere)
    return frozenset(edges), frozenset(dual_edges)


_MAX_EXAMPLE_EDGES = frozenset(
    {
        ((0, 0), (0, 0)), ((0, 0), (0, 1)), ((0, 0), (0, 2)),
        ((0, 1), (0, 0)), ((0, 1), (0, 1)),
        ((0, 2), (0, 1)), ((0, 2), (0, 2)),
    }
)
_MOTIVATING_EDGES = frozenset(
    {((0, 0), (1, 0)), ((0, 1), (1, 1)), ((1, 0), (0, 0)), ((1, 1), (0, 1))}
)
_NONIRR_EDGES = frozenset(
    {
        ((0, 0), (0, 0)), ((0, 1), (0, 1)),
        ((1, 0), (0, 0)), ((1, 0), (1, 1)),
        ((1, 1), (0, 1)), ((1, 1), (1, 0)),
    }
)
_NONIRR_DUAL_EDGES = frozenset({((0, 0), (0, 0)), ((0, 1), (0, 1))})
_IRREX_EDGES = frozenset(
    {
        ((0, 0), (0, 0)), ((0, 0), (0, 1)), ((0, 0), (1, 0)),
        ((0, 1), (0, 0)), ((0, 1), (0, 1)), ((0, 1), (1, 1)),
        ((1, 0), (1, 0)), ((1, 0), (1, 1)),
        ((1, 1), (1, 0)), ((1, 1), (1, 1)),
    }
)


def _ref_tight_edges(A, shape):
    return frozenset(
        ((i, j), (l, 0))
        for i, n in enumerate(shape.sizes)
        for j in range(n)
        for l in range(shape.d)
        if A[i, l] > 0.0
    )


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _edges(F, pattern):
    assert isinstance(pattern, np.ndarray) and pattern.dtype == bool
    assert pattern.shape == (F.shape.total,) * 2
    assert not pattern.flags.writeable
    nodes = F.shape.nodes()
    return frozenset((nodes[a], nodes[b]) for a, b in np.argwhere(pattern).tolist())


def _assert_oracles(F, edges, dual_edges):
    assert _edges(F, F.edge_oracle) == edges, F.label
    assert _edges(F, F.dual_edge_oracle) == dual_edges, F.label


def _sparse(rng, shape, density):
    return rng.uniform(0.1, 2.0, shape) * (rng.random(shape) < density)


def _matrices(rng, square):
    """Seeded nonnegative matrices with no zero row or column.

    Each density comes with and without forced single-support rows and
    columns, the entries that make dual edges.
    """
    for density in (0.05, 0.2, 0.5, 1.0):
        for single in (False, True):
            for _ in range(6):
                m = int(rng.integers(1, 10))
                n = m if square else int(rng.integers(1, 10))
                M = _sparse(rng, (m, n), density)
                if single:
                    M[rng.random(m) < 0.4] = 0.0
                    M[:, rng.random(n) < 0.4] = 0.0
                M[np.arange(m), rng.integers(0, n, m)] += 0.5
                if not square:
                    M[rng.integers(0, m, n), np.arange(n)] += 0.5
                yield M


class TestFamilyPatterns:
    def test_linear(self):
        rng = np.random.default_rng(61)
        for M in _matrices(rng, square=True):
            _assert_oracles(linear_map(M), _ref_linear_edges(M), _ref_linear_dual_edges(M))

    def test_singular_and_pq_singular(self):
        rng = np.random.default_rng(62)
        for M in _matrices(rng, square=False):
            edges, dual_edges = _ref_bipartite_edges(M), _ref_bipartite_dual_edges(M)
            _assert_oracles(singular_map(M), edges, dual_edges)
            _assert_oracles(pq_singular_map(M, 3.0, 1.5), edges, dual_edges)

    def test_tensor_orders_two_to_four(self):
        rng = np.random.default_rng(63)
        for order in (2, 3, 4):
            for density in (0.02, 0.1, 0.3, 1.0):
                for _ in range(8):
                    n = int(rng.integers(1, 6))
                    T = _sparse(rng, (n,) * order, density)
                    for j in range(n):  # a nonzero slice per row
                        T[(j,) + tuple(rng.integers(0, n, order - 1))] += 0.5
                    _assert_oracles(tensor_eigen_map(T, 2.5), *_ref_tensor_edges(T))

    def test_order_two_tensor_is_the_linear_pattern(self):
        rng = np.random.default_rng(64)
        for M in _matrices(rng, square=True):
            F, G = tensor_eigen_map(M, 3.0), linear_map(M)
            assert np.array_equal(F.edge_oracle, G.edge_oracle)
            assert np.array_equal(F.dual_edge_oracle, G.dual_edge_oracle)

    def test_worked_maps(self):
        _assert_oracles(max_example_map(0.3), _MAX_EXAMPLE_EDGES, frozenset())
        _assert_oracles(motivating_map(), _MOTIVATING_EDGES, _MOTIVATING_EDGES)
        _assert_oracles(nonirr_map(), _NONIRR_EDGES, _NONIRR_DUAL_EDGES)
        _assert_oracles(irrex_map(), _IRREX_EDGES, _IRREX_EDGES)
        for A, sizes in (
            ([[0.5, 0.5], [0.25, 0.75]], (2, 2)),
            ([[0.5, 0.0], [0.0, 0.75]], (2, 3)),
            ([[0.5, 0.2, 0.0], [0.0, 0.1, 0.3], [1.0, 0.0, 0.0]], (2, 2, 3)),
        ):
            F = tight_map(A, sizes)
            edges = _ref_tight_edges(F.A, F.shape)
            _assert_oracles(F, edges, edges)


class TestMapInstanceValidation:
    def _instance(self, **oracles):
        shape = ShapeSpec((2, 1))
        return MapInstance(shape=shape, A=np.eye(2), evaluator=lambda x: x, label="id", **oracles)

    @pytest.mark.parametrize("name", ["edge_oracle", "dual_edge_oracle"])
    @pytest.mark.parametrize(
        "bad",
        [
            np.zeros((2, 2), dtype=bool),
            np.zeros((3, 4), dtype=bool),
            np.zeros((3, 3)),
            np.zeros((3, 3), dtype=np.int8),
            frozenset({((0, 0), (1, 0))}),
            [[True] * 3] * 3,
        ],
        ids=["small", "non-square", "float", "int", "edge-set", "list"],
    )
    def test_wrong_shape_or_dtype_raises(self, name, bad):
        with pytest.raises(ValueError, match=name):
            self._instance(**{name: bad})

    def test_writable_pattern_is_copied_read_only(self):
        P = np.eye(3, dtype=bool)
        F = self._instance(edge_oracle=P, dual_edge_oracle=P)
        assert not F.edge_oracle.flags.writeable and not F.dual_edge_oracle.flags.writeable
        P[0, 1] = True  # the caller's array stays theirs
        assert P.flags.writeable and not F.edge_oracle[0, 1]
        assert np.array_equal(F.edge_oracle, np.eye(3, dtype=bool))
