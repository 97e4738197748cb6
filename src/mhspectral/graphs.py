"""The directed index graph of a mapping and its existence-condition analysis.

Nodes are the coordinate indices (i, j) of the product space (0-based).  The
graph has an edge from output coordinate (k, l) to input coordinate (i, j)
when F_{k,l} blows up along the probe that sends only coordinate (i, j) to
infinity; the dual graph instead records vanishing limits as the probed
coordinate goes to zero.  A graph is one boolean pattern over the nodes in
block-major order, the form ``_digraph`` answers every question on.  Built-in
families carry exact patterns; probe mode estimates a log-log growth slope
between two fixed probe values.
"""

from __future__ import annotations

import dataclasses
import functools
import operator

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

# the two probe values of each graph, four decades apart toward its limit
_T_GRIDS = {"primal": (1e2, 1e6), "dual": (1e-2, 1e-6)}
# a log-log slope above this makes an edge
_SLOPE_TOL = 0.01


@dataclasses.dataclass(frozen=True, eq=False)
class IndexGraph:
    """Directed graph on the coordinate index set of a ShapeSpec.

    ``pattern`` is the boolean N x N adjacency, N = ``shape.total``, over the
    nodes in block-major order (``shape.nodes()``): entry [src, dst] is the
    edge src -> dst.  ``mode`` says where it came from, ``"oracle"`` (the
    map's exact pattern) or ``"probed"`` (growth-slope estimates).
    """

    shape: ShapeSpec
    pattern: np.ndarray
    mode: str

    def nodes(self) -> list[Node]:
        return self.shape.nodes()

    @functools.cached_property
    def edges(self) -> frozenset:
        """The edges as ((k, l), (i, j)) node pairs."""
        nodes = self.nodes()
        return frozenset((nodes[a], nodes[b]) for a, b in np.argwhere(self.pattern).tolist())

    def adjacency(self) -> np.ndarray:
        """The pattern: boolean matrix with entry [src, dst] per edge, block-major node order."""
        return self.pattern

    def to_text(self) -> str:
        """Deterministic edge list, one ``k,l -> i,j`` line per edge."""
        lines = [f"{k},{l} -> {i},{j}" for (k, l), (i, j) in sorted(self.edges)]
        return "\n".join(lines)


def probe_vector(shape: ShapeSpec, node: Node, t: float) -> ProductVector:
    """All-ones vector with the single coordinate ``node`` replaced by a finite t > 0."""
    i, j = node
    if not (0 <= i < shape.d and 0 <= j < shape.sizes[i]):
        raise ValueError(f"invalid node {node} for shape {shape.sizes}")
    if not np.inf > t > 0.0:
        raise ValueError("probe parameter t must be positive and finite")
    blocks = [np.ones(n) for n in shape.sizes]
    blocks[i][j] = t
    return ProductVector(blocks)


def _probe_pattern(F: MapInstance, t_grid) -> np.ndarray:
    """Column c holds the outputs that grow along the probe of node c."""
    shape = F.shape
    log_t = np.log(t_grid)
    P = np.zeros((shape.total, shape.total), dtype=bool)
    for col, target in enumerate(shape.nodes()):
        logs = []
        for t in t_grid:
            # an overflow or underflow is tested for below, so numpy need not warn of it
            with np.errstate(over="ignore", under="ignore"):
                vals = evaluate(F, probe_vector(shape, target, t)).concat()
            if not np.all(np.isfinite(vals)):
                raise ValueError(f"non-finite evaluation probing {target} at t={t:g}")
            if np.any(vals <= 0.0):
                raise ValueError(
                    f"probe at {target}, t={t:g} left the open cone; "
                    "non-degenerate maps stay positive on interior probes"
                )
            logs.append(np.log(vals))
        P[:, col] = (logs[1] - logs[0]) / (log_t[1] - log_t[0]) > _SLOPE_TOL
    P.setflags(write=False)
    return P


def _build(F, mode, oracle, kind) -> IndexGraph:
    if mode not in ("auto", "oracle", "probe"):
        raise ValueError("mode must be 'auto', 'oracle', or 'probe'")
    if mode == "auto":
        mode = "oracle" if oracle is not None else "probe"
    if mode == "oracle":
        if oracle is None:
            raise ValueError(f"{F.label} carries no exact {kind} adjacency oracle")
        return IndexGraph(F.shape, oracle, "oracle")
    return IndexGraph(F.shape, _probe_pattern(F, _T_GRIDS[kind]), "probed")


def build_graph(F: MapInstance, mode: str = "auto") -> IndexGraph:
    """Edge (k,l) -> (i,j) iff F_{k,l} diverges along the (i,j) probe as t -> inf.

    Probe mode takes the log-log slope of F_{k,l} from t = 1e2 to 1e6 and
    declares divergence above slope 0.01; the family oracle wins when present.
    """
    return _build(F, mode, F.edge_oracle, "primal")


def build_dual_graph(F: MapInstance, mode: str = "auto") -> IndexGraph:
    """Edge (k,l) -> (i,j) iff F_{k,l} vanishes along the (i,j) probe as t -> 0.

    Probe mode takes the log-log slope of F_{k,l} from t = 1e-2 to 1e-6
    and declares vanishing above slope 0.01; the family oracle wins when
    present.
    """
    return _build(F, mode, F.dual_edge_oracle, "dual")


def check_existence_condition(g: IndexGraph) -> bool:
    """Path-existence condition for positive eigenvectors of non-expansive maps.

    The quantifier string "for every target and every choice tuple some block
    coordinate reaches the target" is equivalent to: for every target node
    there is a block whose nodes *all* reach it.  That rewriting (exists-block
    forall-choice) avoids enumerating the product index set: the union over
    blocks of the intersection of the block's reach sets must cover every node.
    """
    reach = _digraph.reach_sets(g.pattern)
    covered = 0
    for sl in g.shape.block_slices():
        covered |= functools.reduce(operator.and_, reach[sl])
    return covered == (1 << g.shape.total) - 1


def is_strongly_connected(g: IndexGraph) -> bool:
    """Every node reaches every node (reflexive reachability)."""
    return _digraph.strongly_connected(g.pattern)
