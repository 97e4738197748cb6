"""Index graphs, probe/oracle agreement, and the path existence condition."""

import dataclasses
import itertools
import math

import numpy as np
import pytest

from mhspectral import (
    IndexGraph,
    MapInstance,
    ProductVector,
    ShapeSpec,
    build_dual_graph,
    build_graph,
    check_existence_condition,
    irrex_map,
    is_strongly_connected,
    linear_map,
    max_example_map,
    motivating_map,
    nonirr_map,
    pq_singular_map,
    probe_vector,
    singular_map,
    tensor_eigen_map,
    tight_map,
)

NONIRR_EDGES = frozenset(
    {
        ((0, 0), (0, 0)),
        ((0, 1), (0, 1)),
        ((1, 0), (0, 0)),
        ((1, 0), (1, 1)),
        ((1, 1), (0, 1)),
        ((1, 1), (1, 0)),
    }
)


def _graph_from_edges(shape, edges):
    index = {node: idx for idx, node in enumerate(shape.nodes())}
    pattern = np.zeros((shape.total, shape.total), dtype=bool)
    for src, dst in edges:
        pattern[index[src], index[dst]] = True
    return IndexGraph(shape, pattern, "oracle")


def _existence_bruteforce(g):
    """Literal quantifier form: every target, every choice tuple, some block."""
    shape = g.shape
    idx = {node: k for k, node in enumerate(shape.nodes())}
    adj = g.adjacency()
    n = adj.shape[0]
    reach = adj | np.eye(n, dtype=bool)
    for _ in range(n):
        reach = (reach.astype(np.int64) @ reach.astype(np.int64)) > 0
    for target in shape.nodes():
        for tup in itertools.product(*[range(m) for m in shape.sizes]):
            if not any(reach[idx[(i, tup[i])], idx[target]] for i in range(shape.d)):
                return False
    return True


class TestProbeVector:
    def test_unit_probe_is_ones(self):
        shape = ShapeSpec((2, 2))
        assert probe_vector(shape, (0, 0), 1.0) == ProductVector([[1, 1], [1, 1]])

    def test_single_coordinate(self):
        shape = ShapeSpec((2, 2))
        assert probe_vector(shape, (1, 0), 5.0) == ProductVector([[1, 1], [5, 1]])

    def test_validation(self):
        shape = ShapeSpec((2, 2))
        with pytest.raises(ValueError):
            probe_vector(shape, (2, 0), 1.0)
        with pytest.raises(ValueError):
            probe_vector(shape, (0, 0), 0.0)

    @pytest.mark.parametrize("t", [math.inf, math.nan])
    def test_non_finite_probe_is_refused(self, t):
        with pytest.raises(ValueError, match="positive and finite"):
            probe_vector(ShapeSpec((2, 2)), (0, 0), t)


class TestBuildGraph:
    def test_linear_graph_is_adjacency(self):
        rng = np.random.default_rng(0)
        M = rng.uniform(0.2, 1.0, (4, 4))
        M[rng.random((4, 4)) < 0.4] = 0.0
        M += np.diag(rng.uniform(0.2, 1.0, 4))  # no zero rows
        F = linear_map(M)
        expected = frozenset(
            ((0, int(k)), (0, int(j))) for k, j in zip(*np.nonzero(M > 0))
        )
        assert build_graph(F, "oracle").edges == expected
        assert build_graph(F, "probe").edges == expected

    def test_singular_graph_is_biadjacency(self):
        rng = np.random.default_rng(1)
        M = rng.uniform(0.2, 1.0, (3, 4))
        M[0, 1] = 0.0
        F = singular_map(M)
        g = build_graph(F, "probe")
        for k in range(3):
            for j in range(4):
                present = ((0, k), (1, j)) in g.edges and ((1, j), (0, k)) in g.edges
                assert present == (M[k, j] > 0)

    def test_nonirr_derived_edge_set(self):
        F = nonirr_map()
        assert build_graph(F, "oracle").edges == NONIRR_EDGES
        assert build_graph(F, "probe").edges == NONIRR_EDGES

    def test_oracle_probe_agreement_all_builtins(self):
        rng = np.random.default_rng(2)
        gallery = [
            linear_map(rng.uniform(0.2, 1.0, (3, 3))),
            singular_map(rng.uniform(0.2, 1.0, (2, 3))),
            pq_singular_map(rng.uniform(0.2, 1.0, (2, 3)), 4, 4),
            tensor_eigen_map(rng.uniform(0.1, 1.0, (3, 3, 3)), 4.0),
            max_example_map(0.3),
            motivating_map(),
            nonirr_map(),
            irrex_map(),
            tight_map([[0.5, 0.5], [0.25, 0.75]], (2, 2)),
        ]
        for F in gallery:
            assert build_graph(F, "oracle").edges == build_graph(F, "probe").edges, F.label
            assert (
                build_dual_graph(F, "oracle").edges == build_dual_graph(F, "probe").edges
            ), F.label

    def test_probe_build_evaluates_the_map_twice_per_node(self):
        F = nonirr_map()
        calls = []
        counted = dataclasses.replace(F, evaluator=lambda x: calls.append(x) or F.evaluator(x))
        for build in (build_graph, build_dual_graph):
            calls.clear()
            assert build(counted, "probe").edges == build(F, "oracle").edges
            assert len(calls) == 2 * F.shape.total

    def test_probe_requires_mode_support(self):
        F = motivating_map()
        g = build_graph(F, "probe")
        assert g.mode == "probed"


class TestDualGraph:
    def test_nonirr_two_self_loops(self):
        g = build_dual_graph(nonirr_map(), "probe")
        assert g.edges == frozenset({((0, 0), (0, 0)), ((0, 1), (0, 1))})

    def test_min_variant_swaps_graphs(self):
        F = nonirr_map()

        def min_ev(x):
            s, t = x.blocks[0]
            u, v = x.blocks[1]
            return ProductVector([[s, t], [min(s, v) ** 0.5, min(t, u) ** 0.5]])

        H = MapInstance(
            shape=F.shape,
            A=F.A,
            evaluator=min_ev,
            label="min-variant",
            differentiable=False,
            homogeneity_exact=False,
        )
        assert build_graph(H, "probe").edges == build_dual_graph(F, "oracle").edges
        assert build_dual_graph(H, "probe").edges == build_graph(F, "oracle").edges

    def test_positive_linear_dual_is_empty(self):
        # With n >= 2 every row keeps a bounded positive term when a single
        # coordinate vanishes, so no vanishing limits occur at all.
        rng = np.random.default_rng(3)
        F = linear_map(rng.uniform(0.5, 1.5, (3, 3)))
        assert build_dual_graph(F, "probe").edges == frozenset()
        assert build_dual_graph(F, "oracle").edges == frozenset()

    def test_diagonal_linear_dual_mirrors_primal(self):
        F = linear_map(np.diag([1.0, 2.0]))
        assert build_dual_graph(F, "probe").edges == build_graph(F, "probe").edges


class TestExistenceCondition:
    def test_nonirr_satisfies_condition_without_strong_connectivity(self):
        g = build_graph(nonirr_map(), "oracle")
        assert check_existence_condition(g)
        assert not is_strongly_connected(g)

    def test_max_example_strongly_connected(self):
        g = build_graph(max_example_map(0.3), "oracle")
        assert is_strongly_connected(g)
        assert check_existence_condition(g)

    def test_negative_witness(self):
        # node (1,1) is reached by nothing outside itself, and both blocks
        # contain a node that cannot reach it
        shape = ShapeSpec((2, 2))
        edges = {((0, 0), (0, 1)), ((0, 1), (0, 0)), ((1, 0), (0, 0))}
        g = _graph_from_edges(shape, edges)
        assert not check_existence_condition(g)

    def test_single_node_self_loop(self):
        shape = ShapeSpec((1,))
        g = _graph_from_edges(shape, {((0, 0), (0, 0))})
        assert is_strongly_connected(g)
        assert check_existence_condition(g)

    def test_matches_bruteforce_on_random_graphs(self):
        rng = np.random.default_rng(4)
        for _ in range(150):
            sizes = tuple(int(rng.integers(1, 4)) for _ in range(int(rng.integers(1, 4))))
            shape = ShapeSpec(sizes)
            nodes = shape.nodes()
            edges = {
                (a, b)
                for a in nodes
                for b in nodes
                if rng.random() < 0.25
            }
            g = _graph_from_edges(shape, edges)
            assert check_existence_condition(g) == _existence_bruteforce(g)

    def test_single_block_reduces_to_strong_connectivity(self):
        rng = np.random.default_rng(5)
        for _ in range(150):
            n = int(rng.integers(1, 6))
            shape = ShapeSpec((n,))
            nodes = shape.nodes()
            edges = {(a, b) for a in nodes for b in nodes if rng.random() < 0.3}
            g = _graph_from_edges(shape, edges)
            assert check_existence_condition(g) == is_strongly_connected(g)

    def test_strong_connectivity_implies_condition(self):
        rng = np.random.default_rng(6)
        count = 0
        while count < 50:
            sizes = tuple(int(rng.integers(1, 4)) for _ in range(2))
            shape = ShapeSpec(sizes)
            nodes = shape.nodes()
            edges = {(a, b) for a in nodes for b in nodes if rng.random() < 0.5}
            g = _graph_from_edges(shape, edges)
            if is_strongly_connected(g):
                count += 1
                assert check_existence_condition(g)


class TestExport:
    def test_edge_list_text_is_sorted(self):
        g = build_graph(nonirr_map(), "oracle")
        text = g.to_text()
        assert text.splitlines() == sorted(text.splitlines())
        assert "1,0 -> 0,0" in text.splitlines()
