"""Reachability questions on the digraph of a boolean pattern, by graph search.

A square boolean pattern ``P`` is the digraph with an edge u -> v iff
``P[u, v]``.  Every pattern condition the library checks is a question about
walks in that digraph, answered here without matrix powers, from one search:
Tarjan's (1972) strongly connected components over the successor lists.

- strong connectivity (pattern irreducibility): at most one component;
- the period of a strongly connected pattern: the gcd of
  depth(u) + 1 - depth(v) over its edges, for the depths of the search tree
  (Denardo 1977); primitivity is strong connectivity with period 1;
- reflexive reach sets: one pass over the condensation in topological order;
- classes and class counts: the components, their number, and the number
  of final classes, the components that no edge leaves;
- summed-powers positivity: one layered sweep over all walk lengths at once.

A complete pattern (n >= 1, every entry set) is one class that no edge
leaves, in which every node reaches every node, so ``strongly_connected``,
``class_counts`` and ``reach_sets`` answer it from one ``P.all()`` without
the search, which visits every one of its n^2 edges in Python; every other
pattern, the empty 0 x 0 one included, is searched.

The search and the condensation pass read each pattern entry O(1) times,
O(n^2) for an n x n pattern; the sweep takes at most n + 1 layers.  Node sets
are Python ints used as bitsets, bit v for node v.
"""

from __future__ import annotations

import numpy as np


def _successors(P: np.ndarray) -> list[list[int]]:
    # the flat indices of the edges, row by row: one pass, where np.nonzero
    # of a 2-d pattern builds both index arrays; row u's edges end where the
    # flat indices reach (u + 1) n, found by one binary search per row
    m, n = P.shape
    if not n:
        return [[] for _ in range(m)]
    flat = np.flatnonzero(P)
    dst = (flat % n).tolist()
    ends = np.searchsorted(flat, np.arange(n, (m + 1) * n, n)).tolist()
    return [dst[a:b] for a, b in zip([0, *ends], ends)]


def _strong_components(succ: list[list[int]]) -> tuple[list[list[int]], list[int]]:
    """Tarjan's strongly connected components, sinks first, and each node's depth.

    Iterative, so deep graphs do not hit the recursion limit.  Each component
    comes after every component it reaches (reverse topological order).  The
    depth of a node is its distance from the root of its tree in the search
    forest, whose roots are tried in node order.
    """
    n = len(succ)
    index, low, depth = [-1] * n, [0] * n, [0] * n
    on_stack = [False] * n
    at = [0] * n  # position on the stack, fixed while the node is on it
    stack: list[int] = []
    components: list[list[int]] = []
    counter = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        at[root] = len(stack)
        stack.append(root)
        on_stack[root] = True
        work = [(root, iter(succ[root]))]
        while work:
            v, edges = work[-1]
            for w in edges:
                if index[w] < 0:
                    index[w] = low[w] = counter
                    counter += 1
                    depth[w] = len(work)
                    at[w] = len(stack)
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(succ[w])))
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                low_v = low[v]
                if work:
                    parent = work[-1][0]
                    if low_v < low[parent]:
                        low[parent] = low_v
                if low_v == index[v]:
                    component = stack[at[v]:]
                    del stack[at[v]:]
                    for w in component:
                        on_stack[w] = False
                    components.append(component)
    return components, depth


def classes(P: np.ndarray) -> list[list[int]]:
    """The classes (strongly connected components) of P, each after every class it reaches.

    The nodes of a class are in increasing order.
    """
    return [sorted(c) for c in _strong_components(_successors(P))[0]]


def _complete(P: np.ndarray) -> bool:
    # n >= 1 nodes, every edge present: one class, and no edge leaves it
    return len(P) > 0 and bool(P.all())


def strongly_connected(P: np.ndarray) -> bool:
    """Every node reaches every node by a walk of length >= 0."""
    return _complete(P) or len(_strong_components(_successors(P))[0]) <= 1


def period(P: np.ndarray) -> int:
    """Gcd of the cycle lengths of a strongly connected pattern; 0 without edges."""
    # the search from node 0 spans P, and for any spanning tree rooted at r,
    # depth(u) + 1 - depth(v) of an edge u -> v is the length of the closed
    # walk r ~> u -> v ~> r less that of r ~> v ~> r (tree paths out of r, one
    # path v ~> r back): a difference of closed-walk lengths through r, so a
    # multiple of the period.  Along any cycle the terms sum to its length, so
    # their gcd also divides every cycle length: it is the period
    depth = np.array(_strong_components(_successors(P))[1])
    src, dst = np.nonzero(P)
    return int(np.gcd.reduce(depth[src] + 1 - depth[dst]))


def primitive(P: np.ndarray) -> bool:
    """Some power of P is all-positive: strongly connected with period 1.

    The empty 0 x 0 pattern is primitive vacuously.
    """
    return P.shape[0] == 0 or (strongly_connected(P) and period(P) == 1)


def reach_sets(P: np.ndarray) -> list[int]:
    """Reflexive reach set of every node: the nodes it reaches by walks of length >= 0."""
    if _complete(P):
        return [(1 << len(P)) - 1] * len(P)
    succ = _successors(P)
    component_of = [-1] * len(succ)
    component_reach: list[int] = []
    for c, component in enumerate(_strong_components(succ)[0]):
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


def class_counts(P: np.ndarray) -> tuple[int, int]:
    """Numbers of classes (strongly connected components) and of final classes.

    A final class is a class that no edge leaves; a node without successors
    is a final class of its own.  A non-empty pattern is strongly connected
    exactly when it has one class.
    """
    if _complete(P):
        return 1, 1
    succ = _successors(P)
    components = _strong_components(succ)[0]
    final = 0
    for component in components:
        members = set(component)
        final += all(members.issuperset(succ[v]) for v in component)
    return len(components), final


def first_full_block(P: np.ndarray, blocks, max_tau: int):
    """First (block, tau) whose rows all reach every node by walks of length 1..tau.

    Returns the smallest tau <= ``max_tau`` at which some block of rows (each
    a slice of the node indices) is full, with the lowest such block index, or
    None.  The ends R_t(u) of the walks of length 1..t from u, and the ends
    N_t(u) = R_t(u) - R_{t-1}(u) new at t, start at R_0(u) empty and
    N_0(u) = {u}, the end of the walk of length 0, and

        R_{t+1}(u) = R_t(u) | union of N_t(v) over v in succ(u),

    so one layered sweep over t serves every block, and each layer passes only
    the nodes new at v back along the edges into v; the first layer builds the
    successor sets themselves.  The sets only grow, are fixed from t = n on,
    and the sweep stops at the first layer in which none grows.
    """
    full = (1 << P.shape[0]) - 1
    pred = _successors(P.T)
    reach, new = [0] * P.shape[0], [1 << u for u in range(P.shape[0])]
    for tau in range(1, max_tau + 1):
        grown = reach[:]
        for v, fresh in enumerate(new):
            if fresh:
                for u in pred[v]:
                    grown[u] |= fresh
        new = [g ^ r for g, r in zip(grown, reach)]
        reach = grown
        for i, rows in enumerate(blocks):
            if all(r == full for r in reach[rows]):
                return i, tau
        if not any(new):
            return None
    return None
