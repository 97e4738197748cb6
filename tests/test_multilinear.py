"""The matrix and tensor families against the builders they replaced, bit for bit.

``linear_map``, ``singular_map``, ``pq_singular_map`` and ``tensor_eigen_map``
are cases of one multilinear-form builder.  The references below are the
families' former evaluators, Jacobians, exponent matrices, labels and
primal and dual patterns, copied as they were; the one builder must give the
same bits for every one of them.
"""

import numpy as np
import pytest

from mhspectral import (
    ProductVector,
    linear_map,
    maps,
    pq_singular_map,
    singular_map,
    tensor_eigen_map,
    verify_multihomogeneous,
)

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

# ---------------------------------------------------------------------------
# the former builders: (A, evaluator, Jacobian, label, primal, dual)
# ---------------------------------------------------------------------------


def _former_dual_pattern(P):
    return P & (P.sum(axis=1) == 1)[:, None]


def _former_linear(M):
    P = M > 0.0
    return [[1.0]], lambda x: M @ x.flat, lambda x: M.copy(), f"linear(n={M.shape[0]})", P, _former_dual_pattern(P)


def _former_pq_singular(M, p, q, label=None):
    m, n = M.shape
    sp, sq = 1.0 / (p - 1.0), 1.0 / (q - 1.0)

    def ev(z):
        x, y = z.flat[:m], z.flat[m:]
        return np.concatenate(((M @ y) ** sp, (M.T @ x) ** sq))

    def jac(z):
        x, y = z.blocks
        g1, g2 = M @ y, M.T @ x
        J = np.zeros((m + n, m + n))
        J[:m, m:] = sp * (g1 ** (sp - 1.0))[:, None] * M
        J[m:, :m] = sq * (g2 ** (sq - 1.0))[:, None] * M.T
        return J

    P = np.zeros((m + n, m + n), dtype=bool)
    P[:m, m:] = M > 0.0
    P[m:, :m] = P[:m, m:].T
    label = label or f"pq_singular({m}x{n}, p={p:g}, q={q:g})"
    return [[0.0, sp], [sq, 0.0]], ev, jac, label, P, _former_dual_pattern(P)


def _former_tensor_contract(T, v):
    out = T
    for _ in range(T.ndim - 1):
        out = np.tensordot(out, v, axes=([out.ndim - 1], [0]))
    return out


def _former_tensor_partial(T, v):
    m, n = T.ndim, T.shape[0]
    G = np.zeros((n, n))
    for slot in range(1, m):
        term = T
        for axis in sorted((a for a in range(1, m) if a != slot), reverse=True):
            term = np.tensordot(term, v, axes=([axis], [0]))
        G += term
    return G


def _former_tensor_eigen(T, p):
    m, n = T.ndim, T.shape[0]
    s = 1.0 / (p - 1.0)

    def jac(x):
        v = x.blocks[0]
        g = _former_tensor_contract(T, v)
        return s * (g ** (s - 1.0))[:, None] * _former_tensor_partial(T, v)

    idx = np.argwhere(T > 0.0)
    occurs = np.zeros((len(idx), n), dtype=bool)
    occurs[np.arange(len(idx))[:, None], idx[:, 1:]] = True
    starts = np.flatnonzero(np.diff(idx[:, 0], prepend=-1))
    return (
        [[(m - 1) * s]],
        lambda x: _former_tensor_contract(T, x.flat) ** s,
        jac,
        f"tensor_eigen(order={m}, n={n}, p={p:g})",
        np.logical_or.reduceat(occurs, starts, axis=0),
        np.logical_and.reduceat(occurs, starts, axis=0),
    )


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _nonnegative(rng, shape, density):
    return rng.uniform(0.05, 3.0, shape) * (rng.random(shape) < density)


def _matrix(rng, m, n, density, single, square):
    """A nonnegative m x n matrix with no zero row (nor column unless square).

    With ``single``, some rows and columns keep one positive entry, the
    entries that make dual edges.
    """
    M = _nonnegative(rng, (m, n), density)
    if single:
        M[rng.random(m) < 0.4] = 0.0
        M[:, rng.random(n) < 0.4] = 0.0
    M[np.arange(m), rng.integers(0, n, m)] += 0.5
    if not square:
        M[rng.integers(0, m, n), np.arange(n)] += 0.5
    return M


def _tensor(rng, order, n, density):
    T = _nonnegative(rng, (n,) * order, density)
    for j in range(n):  # a nonzero slice per row
        T[(j,) + tuple(rng.integers(0, n, order - 1))] += 0.5
    return T


def _points(rng, shape_sizes):
    """Interior points at several scales, and boundary points with zero entries."""
    for scale in (1e-3, 1.0, 1e3):
        yield ProductVector([rng.uniform(0.1, 2.0, n) * scale for n in shape_sizes])
    for _ in range(2):
        yield ProductVector([rng.uniform(0.1, 2.0, n) * (rng.random(n) < 0.6) for n in shape_sizes])


def _assert_same_map(F, former, rng):
    A, ev, jac, label, P, D = former
    assert F.label == label
    assert _same_bits(F.A, A)
    assert np.array_equal(F.edge_oracle, P) and np.array_equal(F.dual_edge_oracle, D)
    for x in _points(rng, F.shape.sizes):
        # a boundary point may put 0 under a negative power, in both builders alike
        with np.errstate(divide="ignore", invalid="ignore"):
            y, J = F.evaluator(x), F.jacobian(x)
            assert y.shape == F.shape and _same_bits(y.flat, ev(x))
            assert _same_bits(J, jac(x))


_EXPONENTS = st.sampled_from([2.0, 2.0, 1.5, 3.0, 5.0, 1.25, 4.0 / 3.0])
_DENSITIES = st.sampled_from([0.05, 0.2, 0.5, 1.0])
_SETTINGS = hypothesis.settings(max_examples=150, deadline=None)


class TestFormerBuilders:
    @_SETTINGS
    @hypothesis.given(st.integers(1, 9), _DENSITIES, st.booleans(), st.integers(0, 2**32 - 1))
    def test_linear(self, n, density, single, seed):
        rng = np.random.default_rng(seed)
        M = _matrix(rng, n, n, density, single, square=True)
        _assert_same_map(linear_map(M), _former_linear(M), rng)

    @_SETTINGS
    @hypothesis.given(
        st.integers(1, 9), st.integers(1, 9), _DENSITIES, st.booleans(), _EXPONENTS, _EXPONENTS,
        st.integers(0, 2**32 - 1),
    )
    def test_pq_singular_and_singular(self, m, n, density, single, p, q, seed):
        rng = np.random.default_rng(seed)
        M = _matrix(rng, m, n, density, single, square=False)
        _assert_same_map(pq_singular_map(M, p, q), _former_pq_singular(M, p, q), rng)
        _assert_same_map(singular_map(M), _former_pq_singular(M, 2.0, 2.0, f"singular({m}x{n})"), rng)

    @_SETTINGS
    @hypothesis.given(st.integers(2, 4), st.integers(1, 5), _DENSITIES, _EXPONENTS, st.integers(0, 2**32 - 1))
    def test_tensor_eigen(self, order, n, density, p, seed):
        rng = np.random.default_rng(seed)
        T = _tensor(rng, order, n, density)
        _assert_same_map(tensor_eigen_map(T, p), _former_tensor_eigen(T, p), rng)

    def test_sparse_and_dense_matrices_of_the_benchmark_sizes(self):
        rng = np.random.default_rng(20)
        for n, density in ((160, 0.03), (60, 1.0)):
            M = _matrix(rng, n, n, density, single=True, square=True)
            _assert_same_map(linear_map(M), _former_linear(M), rng)
            R = _matrix(rng, n, n // 2, density, single=True, square=False)
            _assert_same_map(pq_singular_map(R, 3.0, 1.5), _former_pq_singular(R, 3.0, 1.5), rng)

    def test_single_entry_rows_and_columns_make_dual_edges(self):
        M = np.array([[1.0, 0.0, 0.0], [0.5, 2.0, 1.0]])
        F = pq_singular_map(M, 3.0, 4.0)
        # row 0 reads only column 0; columns 1 and 2 read only row 1
        assert np.argwhere(F.dual_edge_oracle).tolist() == [[0, 2], [3, 1], [4, 1]]
        _assert_same_map(F, _former_pq_singular(M, 3.0, 4.0), np.random.default_rng(21))

    def test_exponent_one_skips_the_power(self):
        M = np.array([[0.0, 2.0], [1.0, 1.0]])
        x = ProductVector([[0.5, 0.0]])
        for F in (linear_map(M), tensor_eigen_map(M, 2.0)):
            assert F.A.tolist() == [[1.0]]
            assert _same_bits(F.evaluator(x).flat, M @ x.flat)
            assert _same_bits(F.jacobian(x), M)


# ---------------------------------------------------------------------------
# the kernel beyond the four families: several blocks over higher orders
# ---------------------------------------------------------------------------


def _brute_force(T, modes, p, x):
    """F_k(x)_j, A and both patterns, entry by entry over T's index tuples."""
    d = max(modes) + 1
    firsts = [modes.index(k) for k in range(d)]
    blocks = [np.asarray(b) for b in x.blocks]
    offsets = np.cumsum([0] + [len(b) for b in blocks])
    F = [np.zeros(len(b)) for b in blocks]
    reads = {}  # (k, j) -> per positive entry, the nodes of its other modes
    for idx in np.ndindex(T.shape):
        for k, f in enumerate(firsts):
            others = [a for a in range(T.ndim) if a != f]
            F[k][idx[f]] += T[idx] * np.prod([blocks[modes[a]][idx[a]] for a in others])
            if T[idx] > 0.0:
                reads.setdefault((k, idx[f]), []).append({offsets[modes[a]] + idx[a] for a in others})
    N = offsets[-1]
    P, D = np.zeros((N, N), dtype=bool), np.zeros((N, N), dtype=bool)
    for (k, j), entries in reads.items():
        P[offsets[k] + j, sorted(set.union(*entries))] = True
        D[offsets[k] + j, sorted(set.intersection(*entries))] = True
    A = [[(modes.count(l) - (l == k)) / (p[k] - 1.0) for l in range(d)] for k in range(d)]
    return np.concatenate([f ** (1.0 / (pk - 1.0)) for f, pk in zip(F, p)]), A, P, D


class TestGeneralModes:
    @pytest.mark.parametrize(
        "modes, p",
        [((0, 0, 1), (2.5, 3.0)), ((0, 1, 1), (2.0, 4.0)), ((1, 0, 0), (3.0, 2.0)),
         ((0, 1, 2), (3.0, 4.0, 5.0)), ((0, 1, 0, 1), (4.0, 5.0)), ((0, 0, 0, 1), (5.0, 2.0))],
    )
    def test_against_the_entrywise_form(self, modes, p):
        rng = np.random.default_rng(sum(modes) + len(modes))
        d = max(modes) + 1
        sizes = rng.integers(1, 4, d)
        for density in (0.15, 1.0):
            T = _nonnegative(rng, tuple(sizes[l] for l in modes), density)
            for k in range(d):  # no zero slice on a block's first mode
                f = modes.index(k)
                for j in range(sizes[k]):
                    idx = [int(rng.integers(0, n)) for n in T.shape]
                    idx[f] = j
                    T[tuple(idx)] += 0.5
            F = maps._multilinear(T.copy(), modes, p, "form")
            x = ProductVector([rng.uniform(0.3, 2.0, n) for n in sizes])
            want, A, P, D = _brute_force(T, modes, p, x)
            np.testing.assert_allclose(F.evaluator(x).flat, want, rtol=1e-12)
            np.testing.assert_allclose(F.A, A, rtol=1e-15)
            assert np.array_equal(F.edge_oracle, P) and np.array_equal(F.dual_edge_oracle, D)
            np.testing.assert_allclose(F.jacobian(x), maps.numeric_jacobian(F, x), rtol=1e-6, atol=1e-8)
            assert maps.euler_residual(F, x) < 1e-12
            assert verify_multihomogeneous(F, samples=20).passed

    def test_input_check(self):
        T = np.ones((2, 3, 3))
        with pytest.raises(ValueError, match="exponent"):
            maps._multilinear(T.copy(), (0, 1, 1), (2.0, 1.0), "form")
        with pytest.raises(ValueError, match="one size"):
            maps._multilinear(T.copy(), (0, 0, 1), (2.0, 2.0), "form")
        T[:, 1, :] = 0.0
        with pytest.raises(ValueError, match="slice 1 on mode 1"):
            maps._multilinear(T.copy(), (0, 1, 1), (2.0, 2.0), "form")

    @_SETTINGS
    @hypothesis.given(
        st.lists(st.integers(0, 3), min_size=2, max_size=4), st.lists(st.integers(1, 3), min_size=4, max_size=4),
        _DENSITIES, st.lists(_EXPONENTS, min_size=4, max_size=4), st.integers(0, 2**32 - 1),
    )
    def test_patterns_built_at_first_read(self, draw, draw_sizes, density, draw_p, seed):
        """Both patterns, made at their first read, equal the entrywise ones, read-only, one array per pattern."""
        blocks = sorted(set(draw))
        modes = tuple(blocks.index(b) for b in draw)  # tied modes where draw repeats a block
        d = len(blocks)
        sizes, p = draw_sizes[:d], tuple(draw_p[:d])
        rng = np.random.default_rng(seed)
        T = _nonnegative(rng, tuple(sizes[l] for l in modes), density)
        for k in range(d):  # no zero slice on a block's first mode
            f = modes.index(k)
            for j in range(sizes[k]):
                idx = [int(rng.integers(0, n)) for n in T.shape]
                idx[f] = j
                T[tuple(idx)] += 0.5
        F = maps._multilinear(T.copy(), modes, p, "form")
        _, _, P, D = _brute_force(T, modes, p, ProductVector([np.ones(n) for n in sizes]))
        for name, want in (("dual_edge_oracle", D), ("edge_oracle", P)):
            got = getattr(F, name)
            assert isinstance(got, np.ndarray) and got.dtype == bool and not got.flags.writeable
            assert np.array_equal(got, want), (modes, name)
            assert getattr(F, name) is got
