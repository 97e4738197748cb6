"""The graph-search pattern tests against the dense boolean matrix-power routines.

The reference routines below are the library's former implementations:
closures and powers of the boolean pattern by int64 matrix products.  The
only departure is ``_dense_find_dirr``: the former search called
``_dense_check_dirr`` afresh for every (tau, block), which costs O(bound^2)
matrix products, so here it scans summed powers accumulated once across tau.
"""

import numpy as np
import pytest

from mhspectral import (
    IndexGraph,
    ShapeSpec,
    check_dirr,
    check_existence_condition,
    find_dirr,
    is_irreducible,
    is_primitive,
    is_strongly_connected,
)
from mhspectral import _digraph
from mhspectral.homogeneity import wielandt_bound

PATTERN_TOL = 1e-12


def _dense_reachability(P):
    n = P.shape[0]
    R = P | np.eye(n, dtype=bool)
    for _ in range(max(1, int(np.ceil(np.log2(max(n, 2)))))):
        R = (R.astype(np.int64) @ R.astype(np.int64)) > 0
    return R


def _dense_is_irreducible(A):
    return bool(_dense_reachability(np.asarray(A) > PATTERN_TOL).all())


def _dense_is_primitive(A):
    P = np.asarray(A) > PATTERN_TOL
    if not _dense_reachability(P).all():
        return False
    Pi = P.astype(np.int64)
    Q = Pi.copy()
    for _ in range(wielandt_bound(P.shape[0])):
        if Q.all():
            return True
        Q = ((Q @ Pi) > 0).astype(np.int64)
    return bool(Q.all())


def _dense_existence(adjacency, shape):
    reach = _dense_reachability(adjacency)
    slices = shape.block_slices()
    for t_idx in range(shape.total):
        if not any(bool(reach[sl, t_idx].all()) for sl in slices):
            return False
    return True


def _dense_check_dirr(L, i, tau, shape):
    P = (np.asarray(L) > PATTERN_TOL).astype(np.int64)
    acc = P.copy()
    power = P.copy()
    for _ in range(tau - 1):
        power = ((power @ P) > 0).astype(np.int64)
        acc |= power
    return bool(acc[shape.block_slices()[i]].all())


def _dense_summed_powers(L, max_tau):
    """P | P^2 | ... | P^tau for tau = 1..max_tau."""
    P = (np.asarray(L) > PATTERN_TOL).astype(np.int64)
    acc, power = P.copy(), P.copy()
    out = [acc.copy()]
    for _ in range(max_tau - 1):
        power = ((power @ P) > 0).astype(np.int64)
        acc |= power
        out.append(acc.copy())
    return out


def _dense_find_dirr(powers, shape):
    for tau, acc in enumerate(powers, 1):
        for i, rows in enumerate(shape.block_slices()):
            if acc[rows].all():
                return i, tau
    return None


def _graph(L, shape):
    nodes = shape.nodes()
    src, dst = np.nonzero(np.asarray(L) > PATTERN_TOL)
    edges = frozenset((nodes[a], nodes[b]) for a, b in zip(src, dst))
    return IndexGraph(shape, edges, {e: "oracle" for e in edges})


def _random_sizes(rng, n):
    cuts = np.sort(rng.choice(np.arange(1, n), size=int(rng.integers(0, min(n, 4))), replace=False))
    return tuple(int(s) for s in np.diff(np.concatenate(([0], cuts, [n]))))


def _random_matrices():
    """Seeded weighted patterns, N = 1..30, free and cyclically layered.

    Some entries sit below the pattern tolerance, so they are not edges.
    The layered patterns put each node in one of k classes and allow only
    edges from class c to class c + 1 mod k, so they have period k when
    irreducible.
    """
    rng = np.random.default_rng(20180115)
    for n in range(1, 31):
        for density in (0.05, 0.12, 0.25, 0.5):
            for layered in (False, True):
                mask = rng.random((n, n)) < density
                if layered:
                    k = int(rng.integers(2, 5))
                    cls = rng.integers(0, k, n)
                    mask &= (cls[None, :] - cls[:, None]) % k == 1
                L = np.where(mask, rng.uniform(0.1, 2.0, (n, n)), 0.0)
                L[rng.random((n, n)) < 0.05] = 1e-14
                yield n, L, ShapeSpec(_random_sizes(rng, n))


def _cycle(n):
    """The directed n-cycle u -> u + 1 mod n."""
    L = np.zeros((n, n))
    L[np.arange(n), (np.arange(n) + 1) % n] = 1.0
    return L


class TestRandomCrossCheck:
    def test_irreducible_primitive_strongly_connected(self):
        for n, L, shape in _random_matrices():
            irreducible = _dense_is_irreducible(L)
            assert is_irreducible(L) == irreducible
            assert is_primitive(L) == _dense_is_primitive(L)
            assert is_strongly_connected(_graph(L, shape)) == irreducible

    def test_existence_condition(self):
        for n, L, shape in _random_matrices():
            g = _graph(L, shape)
            assert check_existence_condition(g) == _dense_existence(g.adjacency(), shape)

    def test_find_dirr_and_check_dirr(self):
        """check_dirr at every tau up to the bound for N <= 12; beyond, at every
        tau up to N + 2 (the summed powers are constant from tau = N on) and at
        the bound."""
        found = 0
        for n, L, shape in _random_matrices():
            bound = wielandt_bound(n)
            powers = _dense_summed_powers(L, bound)
            expected = _dense_find_dirr(powers, shape)
            found += expected is not None
            assert find_dirr(L, shape) == expected
            for tau in range(1, bound + 1) if n <= 12 else [*range(1, n + 3), bound]:
                for i, rows in enumerate(shape.block_slices()):
                    assert check_dirr(L, i, tau, shape) == bool(powers[tau - 1][rows].all())
        assert found > 50

    def test_check_dirr_reference_agrees_with_summed_powers(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            n = int(rng.integers(1, 8))
            shape = ShapeSpec((n,))
            L = (rng.random((n, n)) < 0.3).astype(float)
            for tau in range(1, wielandt_bound(n) + 1):
                assert check_dirr(L, 0, tau, shape) == _dense_check_dirr(L, 0, tau, shape)


class TestEdgeCases:
    def test_empty_matrix(self):
        Z = np.zeros((0, 0))
        assert is_irreducible(Z) is _dense_is_irreducible(Z) is True
        assert is_primitive(Z) is _dense_is_primitive(Z) is True

    def test_one_by_one_zero_is_irreducible_not_primitive(self):
        Z = np.zeros((1, 1))
        shape = ShapeSpec((1,))
        assert is_irreducible(Z) and _dense_is_irreducible(Z)
        assert not is_primitive(Z) and not _dense_is_primitive(Z)
        assert find_dirr(Z, shape) is None
        assert not check_dirr(Z, 0, 1, shape)
        assert is_primitive(np.ones((1, 1)))
        assert find_dirr(np.ones((1, 1)), shape) == (0, 1)

    @pytest.mark.parametrize("n", [2, 3, 7])
    def test_self_loops_only(self, n):
        L = np.eye(n)
        shape = ShapeSpec((1,) * n)
        assert not is_irreducible(L) and not is_primitive(L)
        assert not is_strongly_connected(_graph(L, shape))
        assert check_existence_condition(_graph(L, shape))  # each node is its own block
        assert not check_existence_condition(_graph(L, ShapeSpec((n,))))
        assert find_dirr(L, shape) is None

    @pytest.mark.parametrize("sizes", [(2,), (1, 1), (3, 2)])
    def test_empty_graph(self, sizes):
        shape = ShapeSpec(sizes)
        L = np.zeros((shape.total, shape.total))
        g = _graph(L, shape)
        assert not is_irreducible(L) and not is_primitive(L)
        assert not is_strongly_connected(g)
        assert check_existence_condition(g) == _dense_existence(g.adjacency(), shape)
        assert find_dirr(L, shape) is None

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 12])
    def test_pure_cycles(self, k):
        L = _cycle(k)
        assert is_irreducible(L)
        assert _digraph.period(L > 0) == k
        assert is_primitive(L) == (k == 1) == _dense_is_primitive(L)

    def test_cycle_with_chord_is_primitive(self):
        L = _cycle(5)
        L[0, 2] = 1.0  # cycles of length 5 and 4
        assert _digraph.period(L > 0) == 1
        assert is_primitive(L) and _dense_is_primitive(L)

    @pytest.mark.parametrize("sizes", [(16,), (4, 4, 4, 4), (8, 8)])
    def test_block_diagonal_has_no_dirr(self, sizes):
        L = np.kron(np.eye(4), np.full((4, 4), 0.25))
        shape = ShapeSpec(sizes)
        assert find_dirr(L, shape) is None
        assert _dense_find_dirr(_dense_summed_powers(L, wielandt_bound(16)), shape) is None
        assert not check_dirr(L, 0, wielandt_bound(16), shape)

    def test_input_checks(self):
        shape = ShapeSpec((2,))
        L = np.ones((2, 2))
        with pytest.raises(ValueError, match="tau"):
            check_dirr(L, 0, 0, shape)
        with pytest.raises(ValueError, match="block index"):
            check_dirr(L, 1, 1, shape)
        with pytest.raises(ValueError, match="total dimension"):
            check_dirr(np.ones((3, 3)), 0, 1, shape)
        with pytest.raises(ValueError, match="total dimension"):
            find_dirr(np.ones((3, 3)), shape)


class TestLongWalks:
    """The directed N-cycle needs walks of every length up to N."""

    @pytest.mark.parametrize("n", [3, 6, 10, 20, 80])
    @pytest.mark.parametrize("blocks", [1, 2])
    def test_cycle_needs_tau_n(self, n, blocks):
        shape = ShapeSpec((n,) if blocks == 1 else (n // 2, n - n // 2))
        L = _cycle(n)
        assert find_dirr(L, shape) == (0, n)
        assert not check_dirr(L, 0, n - 1, shape)
        assert check_dirr(L, blocks - 1, n, shape)
        assert check_dirr(L, 0, 10**9, shape)
        if n <= 20:
            assert _dense_find_dirr(_dense_summed_powers(L, n), shape) == (0, n)
            assert not _dense_check_dirr(L, 0, n - 1, shape)

    def test_tail_into_cycle(self):
        # node 0 feeds a cycle on nodes 1..n-1 and is reached by no one
        n = 80
        L = np.zeros((n, n))
        L[0, 1] = 1.0
        L[np.arange(1, n), np.r_[np.arange(2, n), 1]] = 1.0
        assert find_dirr(L, ShapeSpec((1, n - 1))) is None
        assert not is_irreducible(L)
