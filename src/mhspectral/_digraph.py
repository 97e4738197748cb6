"""Reachability questions on the digraph of a boolean pattern, by graph search.

A square boolean pattern ``P`` is the digraph with an edge u -> v iff
``P[u, v]``.  Every pattern condition the library checks is a question about
walks in that digraph, answered here without matrix powers:

- strong connectivity (pattern irreducibility): a forward and a reverse
  breadth-first search from node 0;
- the period of a strongly connected pattern: the gcd of
  level(u) + 1 - level(v) over its edges, for breadth-first levels from one
  node (Denardo 1977); primitivity is strong connectivity with period 1;
- reflexive reach sets: Tarjan's (1972) strongly connected components, then
  one pass over the condensation in topological order;
- summed-powers positivity: one layered sweep over all walk lengths at once.

The searches and the condensation pass read each pattern entry O(1) times,
O(n^2) for an n x n pattern; the sweep takes at most n + 1 layers.  Node sets
are Python ints used as bitsets, bit v for node v.
"""

from __future__ import annotations

import numpy as np


def _row_sets(P: np.ndarray) -> list[int]:
    """Row u of P as the bitset of its columns: the successors of u."""
    packed = np.packbits(P, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _successors(P: np.ndarray) -> list[list[int]]:
    dst = np.nonzero(P)[1].tolist()
    ends = np.cumsum(P.sum(axis=1)).tolist()
    return [dst[a:b] for a, b in zip([0, *ends], ends)]


def _bfs_levels(P: np.ndarray) -> list[int]:
    """Breadth-first distance from node 0 along the edges of P; -1 if unreached."""
    succ = _row_sets(P)
    level = [-1] * len(succ)
    frontier = seen = 1
    depth = 0
    while frontier:
        step = 0
        while frontier:
            low = frontier & -frontier
            v = low.bit_length() - 1
            level[v] = depth
            step |= succ[v]
            frontier ^= low
        frontier = step & ~seen
        seen |= frontier
        depth += 1
    return level


def strongly_connected(P: np.ndarray) -> bool:
    """Every node reaches every node by a walk of length >= 0."""
    if P.shape[0] == 0:
        return True
    return -1 not in _bfs_levels(P) and -1 not in _bfs_levels(P.T)


def period(P: np.ndarray) -> int:
    """Gcd of the cycle lengths of a strongly connected pattern; 0 without edges."""
    level = np.array(_bfs_levels(P))
    src, dst = np.nonzero(P)
    return int(np.gcd.reduce(level[src] + 1 - level[dst]))


def primitive(P: np.ndarray) -> bool:
    """Some power of P is all-positive: strongly connected with period 1.

    The empty 0 x 0 pattern is primitive vacuously.
    """
    return P.shape[0] == 0 or (strongly_connected(P) and period(P) == 1)


def _strong_components(succ: list[list[int]]) -> list[list[int]]:
    """Tarjan's strongly connected components, sinks first.

    Iterative, so deep graphs do not hit the recursion limit.  Each component
    comes after every component it reaches (reverse topological order).
    """
    n = len(succ)
    index, low = [-1] * n, [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    components: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        work = [(root, iter(succ[root]))]
        while work:
            v, edges = work[-1]
            for w in edges:
                if index[w] < 0:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(succ[w])))
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[v])
                if low[v] == index[v]:
                    component = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        component.append(w)
                        if w == v:
                            break
                    components.append(component)
    return components


def reach_sets(P: np.ndarray) -> list[int]:
    """Reflexive reach set of every node: the nodes it reaches by walks of length >= 0."""
    succ = _successors(P)
    component_of = [-1] * len(succ)
    component_reach: list[int] = []
    for c, component in enumerate(_strong_components(succ)):
        for v in component:
            component_of[v] = c
        reach = 0
        for v in component:
            reach |= 1 << v
            for w in succ[v]:
                if component_of[w] != c:  # an earlier component, already final
                    reach |= component_reach[component_of[w]]
        component_reach.append(reach)
    return [component_reach[c] for c in component_of]


def first_full_block(P: np.ndarray, blocks, max_tau: int):
    """First (block, tau) whose rows all reach every node by walks of length 1..tau.

    Returns the smallest tau <= ``max_tau`` at which some block of rows (each
    a slice of the node indices) is full, with the lowest such block index, or
    None.  The ends R_t(u) of the walks of length 1..t from u start at
    R_1(u) = succ(u), and with R_0(u) empty

        R_{t+1}(u) = R_t(u) | union of (R_t(v) - R_{t-1}(v)) over v in succ(u),

    so one layered sweep over t serves every block, and each layer passes only
    the nodes new at v back along the edges into v.  The sets only grow, and a
    layer in which none grows is a fixed point, reached by t = n; the sweep
    stops there.
    """
    full = (1 << P.shape[0]) - 1
    pred = _successors(P.T)
    reach = new = _row_sets(P)
    for tau in range(1, max_tau + 1):
        for i, rows in enumerate(blocks):
            if all(r == full for r in reach[rows]):
                return i, tau
        grown = reach[:]
        for v, fresh in enumerate(new):
            if fresh:
                for u in pred[v]:
                    grown[u] |= fresh
        new = [g ^ r for g, r in zip(grown, reach)]
        if not any(new):
            return None
        reach = grown
    return None
