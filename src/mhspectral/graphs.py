"""The directed index graph of a mapping and its existence-condition analysis.

Nodes are the coordinate indices (i, j) of the product space (0-based).  The
graph has an edge from output coordinate (k, l) to input coordinate (i, j)
when F_{k,l} blows up along the probe that sends only coordinate (i, j) to
infinity; the dual graph instead records vanishing limits as the probed
coordinate goes to zero.  Built-in families carry exact adjacency oracles;
probe mode estimates a log-log growth slope over a finite grid.
"""

from __future__ import annotations

import dataclasses
import functools
import operator
from typing import Mapping

import numpy as np

from . import _digraph
from .cones import ProductVector, ShapeSpec
from .maps import MapInstance, evaluate

__all__ = [
    "IndexGraph",
    "probe_vector",
    "build_graph",
    "build_dual_graph",
    "check_existence_condition",
    "is_strongly_connected",
]

Node = tuple[int, int]
Edge = tuple[Node, Node]


@dataclasses.dataclass(frozen=True, eq=False)
class IndexGraph:
    """Directed graph on the coordinate index set of a ShapeSpec."""

    shape: ShapeSpec
    edges: frozenset
    provenance: Mapping[Edge, str]

    def nodes(self) -> list[Node]:
        return self.shape.nodes()

    def node_index(self) -> dict[Node, int]:
        return {node: idx for idx, node in enumerate(self.nodes())}

    def adjacency(self) -> np.ndarray:
        """Boolean matrix with entry [src, dst] per edge, block-major node order."""
        idx = self.node_index()
        adj = np.zeros((self.shape.total, self.shape.total), dtype=bool)
        for src, dst in self.edges:
            adj[idx[src], idx[dst]] = True
        return adj

    def to_text(self) -> str:
        """Deterministic edge list, one ``k,l -> i,j`` line per edge."""
        lines = [f"{k},{l} -> {i},{j}" for (k, l), (i, j) in sorted(self.edges)]
        return "\n".join(lines)


def probe_vector(shape: ShapeSpec, node: Node, t: float) -> ProductVector:
    """All-ones vector with the single coordinate ``node`` replaced by t > 0."""
    i, j = node
    if not (0 <= i < shape.d and 0 <= j < shape.sizes[i]):
        raise ValueError(f"invalid node {node} for shape {shape.sizes}")
    if not t > 0.0:
        raise ValueError("probe parameter t must be positive")
    blocks = [np.ones(n) for n in shape.sizes]
    blocks[i][j] = t
    return ProductVector(blocks)


def _probe_edges(F: MapInstance, t_grid, slope_tol: float) -> frozenset:
    shape = F.shape
    log_t = np.log(np.asarray(t_grid, dtype=float))
    if log_t.size < 2:
        raise ValueError("need at least two probe points")
    nodes = shape.nodes()
    edges = []
    for target in nodes:
        logs = []
        for t in t_grid:
            vals = evaluate(F, probe_vector(shape, target, t)).concat()
            if not np.all(np.isfinite(vals)):
                raise ValueError(f"non-finite evaluation probing {target} at t={t:g}")
            if np.any(vals <= 0.0):
                raise ValueError(
                    f"probe at {target}, t={t:g} left the open cone; "
                    "non-degenerate maps stay positive on interior probes"
                )
            logs.append(np.log(vals))
        logs = np.array(logs)  # len(t_grid) x total
        slopes = np.polyfit(log_t, logs, 1)[0]
        for row, node in enumerate(nodes):
            if slopes[row] > slope_tol:
                edges.append((node, target))
    return frozenset(edges)


def _build(F, mode, t_grid, slope_tol, oracle, kind) -> IndexGraph:
    if mode not in ("auto", "oracle", "probe"):
        raise ValueError("mode must be 'auto', 'oracle', or 'probe'")
    if mode == "auto":
        mode = "oracle" if oracle is not None else "probe"
    if mode == "oracle":
        if oracle is None:
            raise ValueError(f"{F.label} carries no exact {kind} adjacency oracle")
        edges = frozenset(oracle)
        return IndexGraph(F.shape, edges, {e: "oracle" for e in edges})
    edges = _probe_edges(F, t_grid, slope_tol)
    return IndexGraph(F.shape, edges, {e: "probed" for e in edges})


def build_graph(
    F: MapInstance,
    mode: str = "auto",
    t_grid=(1e2, 1e4, 1e6),
    slope_tol: float = 0.01,
) -> IndexGraph:
    """Edge (k,l) -> (i,j) iff F_{k,l} diverges along the (i,j) probe as t -> inf.

    Probe mode fits the log-log slope of F_{k,l} over ``t_grid`` and declares
    divergence above ``slope_tol``; the family oracle wins when present.
    """
    return _build(F, mode, t_grid, slope_tol, F.edge_oracle, "primal")


def build_dual_graph(
    F: MapInstance,
    mode: str = "auto",
    t_grid=(1e-2, 1e-4, 1e-6),
    slope_tol: float = 0.01,
) -> IndexGraph:
    """Edge (k,l) -> (i,j) iff F_{k,l} vanishes along the (i,j) probe as t -> 0."""
    return _build(F, mode, t_grid, slope_tol, F.dual_edge_oracle, "dual")


def check_existence_condition(g: IndexGraph, shape: ShapeSpec | None = None) -> bool:
    """Path-existence condition for positive eigenvectors of non-expansive maps.

    The quantifier string "for every target and every choice tuple some block
    coordinate reaches the target" is equivalent to: for every target node
    there is a block whose nodes *all* reach it.  That rewriting (exists-block
    forall-choice) avoids enumerating the product index set: the union over
    blocks of the intersection of the block's reach sets must cover every node.
    """
    if shape is not None and shape != g.shape:
        raise ValueError("shape disagrees with the graph's shape")
    reach = _digraph.reach_sets(g.adjacency())
    covered = 0
    for sl in g.shape.block_slices():
        covered |= functools.reduce(operator.and_, reach[sl])
    return covered == (1 << g.shape.total) - 1


def is_strongly_connected(g: IndexGraph) -> bool:
    """Every node reaches every node (reflexive reachability)."""
    return _digraph.strongly_connected(g.adjacency())
