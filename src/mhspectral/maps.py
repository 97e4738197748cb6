"""Order-preserving multi-homogeneous mappings on product cones.

A mapping F = (F_1, ..., F_d) with blocks F_i : K_+ -> R^{n_i}_+ is
multi-homogeneous with exponent matrix A when

    F_i(alpha (x) x) = (prod_j alpha_j^{A_ij}) * F_i(x)

for all nonnegative block scalings alpha.  ``MapInstance`` bundles an
evaluator with its declared A plus optional extras: an analytic Jacobian, the
exact index-graph pattern, and the pattern of the vanishing-limit (dual)
graph.  A pattern is a read-only boolean N x N array over the coordinate
nodes in block-major order (``ShapeSpec.nodes()``), entry [src, dst] per edge.
The declared matrix is the source of truth; the ``verify_*`` helpers audit it
against random samples.

Built-in families cover nonnegative matrices (eigenvectors / singular pairs /
l^{p,q} singular pairs), l^p tensor eigenvectors, and the small worked maps
used throughout the test-suite, along with closure operations: composition,
Hadamard products, dominated weighted sums, the delta-shift, and inversion
conjugation (the dual map).
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Callable, Optional

import numpy as np

from .cones import (
    NormSpec,
    ProductVector,
    ShapeSpec,
    _norm_kernel,
    _power_scale,
    _shape_of,
    _wrap,
    matrix_power_scale,
    random_interior,
    scale_blocks,
)
from .homogeneity import HomogeneityAnalysis, analyze_homogeneity

__all__ = [
    "MapInstance",
    "EigenPair",
    "VerificationReport",
    "evaluate",
    "linear_map",
    "singular_map",
    "pq_singular_map",
    "tensor_eigen_map",
    "max_example_map",
    "motivating_map",
    "nonirr_map",
    "irrex_map",
    "tight_map",
    "tight_equality_pair",
    "compose",
    "hadamard",
    "weighted_sum",
    "shifted",
    "dual",
    "verify_multihomogeneous",
    "verify_order_preserving",
    "numeric_jacobian",
    "jacobian_at",
    "has_kink",
    "euler_residual",
]

_FD_STEP = float(np.finfo(float).eps) ** (1.0 / 3.0)


def check_homogeneity_matrix(A, d: int) -> np.ndarray:
    """Validate a d x d nonnegative exponent matrix with a positive entry per row."""
    A = np.array(A, dtype=float)
    if A.shape != (d, d):
        raise ValueError(f"homogeneity matrix must be {d}x{d}, got {A.shape}")
    if np.any(A < 0.0) or not np.all(np.isfinite(A)):
        raise ValueError("homogeneity exponents must be finite and nonnegative")
    if not np.all((A > 0.0).any(axis=1)):
        raise ValueError("every row of the homogeneity matrix needs a positive entry")
    A.setflags(write=False)
    return A


@dataclasses.dataclass(frozen=True, eq=False)
class MapInstance:
    """An evaluatable mapping together with its declared structure.

    ``domain`` is ``"cone"`` for maps defined on all of K_+ and ``"interior"``
    for maps that only make sense on strictly positive vectors (dual maps).
    ``homogeneity_exact`` is False for maps whose declared A only holds under
    uniform scaling of all blocks.  ``edge_oracle`` and ``dual_edge_oracle``
    are the exact primal and dual patterns, when known: boolean N x N arrays,
    N = ``shape.total``, checked here once and stored read-only.
    """

    shape: ShapeSpec
    A: np.ndarray
    evaluator: Callable[[ProductVector], ProductVector]
    label: str
    jacobian: Optional[Callable[[ProductVector], np.ndarray]] = None
    edge_oracle: Optional[np.ndarray] = None
    dual_edge_oracle: Optional[np.ndarray] = None
    differentiable: bool = True
    homogeneity_exact: bool = True
    domain: str = "cone"

    def __post_init__(self):
        object.__setattr__(self, "A", check_homogeneity_matrix(self.A, self.shape.d))
        if self.domain not in ("cone", "interior"):
            raise ValueError("domain must be 'cone' or 'interior'")
        n = self.shape.total
        for name in ("edge_oracle", "dual_edge_oracle"):
            P = getattr(self, name)
            if P is None:
                continue
            if not isinstance(P, np.ndarray) or P.dtype != bool or P.shape != (n, n):
                raise ValueError(f"{name} must be a boolean {n}x{n} array")
            if P.flags.writeable:
                object.__setattr__(self, name, _frozen(P.copy()))

    @functools.cached_property
    def analysis(self) -> HomogeneityAnalysis:
        """Regime and automatic weights of A, computed once per map."""
        return analyze_homogeneity(self.A)

    def __call__(self, x: ProductVector) -> ProductVector:
        return evaluate(self, x)

    def __repr__(self):
        return f"MapInstance({self.label})"


@dataclasses.dataclass(frozen=True)
class EigenPair:
    """Normalized eigenvector, its eigenvalue vector, and r_b = prod lambda^b."""

    x: ProductVector
    lam: np.ndarray
    r_b: float


@dataclasses.dataclass(frozen=True)
class VerificationReport:
    passed: bool
    max_deviation: float
    samples: int
    tol: float


def evaluate(F: MapInstance, x: ProductVector) -> ProductVector:
    """Apply the map after validating membership in its domain."""
    if x.shape is not F.shape and x.shape != F.shape:
        raise ValueError(f"shape mismatch: map {F.shape.sizes}, vector {x.shape.sizes}")
    if F.domain == "interior":
        if not x.is_pos():
            raise ValueError(f"{F.label} is only defined on strictly positive vectors")
    elif not x.is_nonneg():
        raise ValueError("negative input entries")
    return F.evaluator(x)


# ---------------------------------------------------------------------------
# built-in families
# ---------------------------------------------------------------------------


def _frozen(P: np.ndarray) -> np.ndarray:
    P.setflags(write=False)
    return P


def _pattern(shape: ShapeSpec, edges) -> np.ndarray:
    """The read-only pattern of an edge list of ((k, l), (i, j)) node pairs."""
    index = {node: idx for idx, node in enumerate(shape.nodes())}
    P = np.zeros((shape.total, shape.total), dtype=bool)
    for src, dst in edges:
        P[index[src], index[dst]] = True
    return _frozen(P)


def _dual_pattern(P: np.ndarray) -> np.ndarray:
    """Dual pattern of a map whose every output is a sum of one-variable terms.

    Such an F_k vanishes as coordinate r alone goes to zero only when its one
    term is in r: the rows of P with a single entry.
    """
    return _frozen(P & (P.sum(axis=1) == 1)[:, None])


def linear_map(M) -> MapInstance:
    """x -> Mx for a nonnegative square matrix; eigenvectors are M's nonnegative ones."""
    M = np.array(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("linear_map needs a square matrix")
    if np.any(M < 0.0):
        raise ValueError("matrix entries must be nonnegative")
    if not np.all((M > 0.0).any(axis=1)):
        raise ValueError("zero row: the map would collapse the open cone")
    M.setflags(write=False)
    n = M.shape[0]
    shape = _shape_of((n,))
    P = _frozen(M > 0.0)
    return MapInstance(
        shape=shape,
        A=[[1.0]],
        evaluator=lambda x: _wrap(M @ x.flat, shape),
        jacobian=lambda x: M.copy(),
        label=f"linear(n={n})",
        edge_oracle=P,
        dual_edge_oracle=_dual_pattern(P),
    )


def _check_rect(M) -> np.ndarray:
    M = np.array(M, dtype=float)
    if M.ndim != 2:
        raise ValueError("need a matrix")
    if np.any(M < 0.0):
        raise ValueError("matrix entries must be nonnegative")
    if not np.all((M > 0.0).any(axis=1)):
        raise ValueError("zero row")
    if not np.all((M > 0.0).any(axis=0)):
        raise ValueError("zero column")
    M.setflags(write=False)
    return M


def singular_map(M) -> MapInstance:
    """(x, y) -> (My, M^T x); eigenvectors are nonnegative singular pairs of M.

    Stated with x of length m and y of length n for an m x n matrix, which is
    the dimensionally consistent reading of the pair map.  It is the p = q = 2
    case of ``pq_singular_map``, whose exponents 1/(p-1) are then exactly 1.
    """
    F = pq_singular_map(M, 2.0, 2.0)
    m, n = F.shape.sizes
    return dataclasses.replace(F, label=f"singular({m}x{n})")


def pq_singular_map(M, p: float, q: float) -> MapInstance:
    """(x, y) -> ((My)^{1/(p-1)}, (M^T x)^{1/(q-1)}) entrywise, p, q > 1.

    Eigenvectors are the nonnegative critical points of
    <x, My> / (||x||_p ||y||_q).
    """
    if not (p > 1.0 and q > 1.0):
        raise ValueError("pq_singular_map needs p > 1 and q > 1")
    M = _check_rect(M)
    m, n = M.shape
    shape = _shape_of((m, n))
    sp, sq = 1.0 / (p - 1.0), 1.0 / (q - 1.0)

    def ev(z):
        x, y = z.flat[:m], z.flat[m:]
        return _wrap(np.concatenate(((M @ y) ** sp, (M.T @ x) ** sq)), shape)

    def jac(z):
        x, y = z.blocks
        g1, g2 = M @ y, M.T @ x
        J = np.zeros((m + n, m + n))
        J[:m, m:] = sp * (g1 ** (sp - 1.0))[:, None] * M
        J[m:, :m] = sq * (g2 ** (sq - 1.0))[:, None] * M.T
        return J

    # block 0 reads block 1 through M, block 1 reads block 0 through M^T
    P = np.zeros((m + n, m + n), dtype=bool)
    P[:m, m:] = M > 0.0
    P[m:, :m] = P[:m, m:].T
    return MapInstance(
        shape=shape,
        A=[[0.0, sp], [sq, 0.0]],
        evaluator=ev,
        jacobian=jac,
        label=f"pq_singular({m}x{n}, p={p:g}, q={q:g})",
        edge_oracle=_frozen(P),
        dual_edge_oracle=_dual_pattern(P),
    )


def _tensor_contract(T: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(T . v^{m-1})_j = sum_{j2..jm} T[j, j2, .., jm] v_{j2} ... v_{jm}."""
    out = T
    for _ in range(T.ndim - 1):
        out = np.tensordot(out, v, axes=([out.ndim - 1], [0]))
    return out


def _tensor_partial(T: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Gradient of the contraction: G[j, r] = d/dv_r (T . v^{m-1})_j."""
    m, n = T.ndim, T.shape[0]
    G = np.zeros((n, n))
    for slot in range(1, m):
        term = T
        for axis in sorted((a for a in range(1, m) if a != slot), reverse=True):
            term = np.tensordot(term, v, axes=([axis], [0]))
        G += term
    return G


def tensor_eigen_map(T, p: float) -> MapInstance:
    """l^p eigenvector map of a nonnegative cubical tensor: x -> (T x^{m-1})^{1/(p-1)}."""
    T = np.array(T, dtype=float)
    if T.ndim < 2 or len(set(T.shape)) != 1:
        raise ValueError("tensor must be cubical of order >= 2")
    if np.any(T < 0.0):
        raise ValueError("tensor entries must be nonnegative")
    if not (p > 1.0):
        raise ValueError("tensor_eigen_map needs p > 1")
    m, n = T.ndim, T.shape[0]
    for j in range(n):
        if not np.any(T[j] > 0.0):
            raise ValueError(f"degenerate slice {j}: zero image of the positive cone")
    T.setflags(write=False)
    shape = _shape_of((n,))
    s = 1.0 / (p - 1.0)

    def ev(x):
        return _wrap(_tensor_contract(T, x.flat) ** s, shape)

    def jac(x):
        v = x.blocks[0]
        g = _tensor_contract(T, v)
        return s * (g ** (s - 1.0))[:, None] * _tensor_partial(T, v)

    # F_j blows up along r when r occurs in some positive index tuple of
    # T[j], and vanishes as r -> 0 when r occurs in every one of them
    idx = np.argwhere(T > 0.0)  # rows (j, r_2, .., r_m), sorted by j
    occurs = np.zeros((len(idx), n), dtype=bool)
    occurs[np.arange(len(idx))[:, None], idx[:, 1:]] = True
    starts = np.flatnonzero(np.diff(idx[:, 0], prepend=-1))  # every slice is nonzero

    return MapInstance(
        shape=shape,
        A=[[(m - 1) * s]],
        evaluator=ev,
        jacobian=jac,
        label=f"tensor_eigen(order={m}, n={n}, p={p:g})",
        edge_oracle=_frozen(np.logical_or.reduceat(occurs, starts, axis=0)),
        dual_edge_oracle=_frozen(np.logical_and.reduceat(occurs, starts, axis=0)),
    )


def max_example_map(eps: float) -> MapInstance:
    """(a, b, c) -> (max(a,b,c), max(eps*a, b), max(eps*b, c)) with eps in (0,1).

    Strongly connected index graph yet a continuum of eigenvectors: (1, b, c)
    is a fixed point for all b, c in [eps, 1].
    """
    eps = float(eps)
    if not (0.0 < eps < 1.0):
        raise ValueError("eps must lie in (0, 1)")

    def ev(x):
        a, b, c = x.blocks[0]
        return ProductVector([[max(a, b, c), max(eps * a, b), max(eps * b, c)]])

    shape = ShapeSpec((3,))
    edges = _pattern(
        shape,
        {
            ((0, 0), (0, 0)), ((0, 0), (0, 1)), ((0, 0), (0, 2)),
            ((0, 1), (0, 0)), ((0, 1), (0, 1)),
            ((0, 2), (0, 1)), ((0, 2), (0, 2)),
        },
    )
    return MapInstance(
        shape=shape,
        A=[[1.0]],
        evaluator=ev,
        label=f"max_example(eps={eps:g})",
        edge_oracle=edges,
        dual_edge_oracle=_pattern(shape, ()),
        differentiable=False,
    )


def motivating_map() -> MapInstance:
    """((s,t),(u,v)) -> ((u^2, v^2), (s^{1/8}, t^{1/8})); contraction with rho(A)=1/2."""

    def ev(x):
        s, t = x.blocks[0]
        u, v = x.blocks[1]
        return ProductVector([[u * u, v * v], [s ** 0.125, t ** 0.125]])

    def jac(x):
        s, t = x.blocks[0]
        u, v = x.blocks[1]
        J = np.zeros((4, 4))
        J[0, 2] = 2.0 * u
        J[1, 3] = 2.0 * v
        J[2, 0] = 0.125 * s ** (-0.875)
        J[3, 1] = 0.125 * t ** (-0.875)
        return J

    shape = ShapeSpec((2, 2))
    edges = _pattern(
        shape, {((0, 0), (1, 0)), ((0, 1), (1, 1)), ((1, 0), (0, 0)), ((1, 1), (0, 1))}
    )
    return MapInstance(
        shape=shape,
        A=[[0.0, 2.0], [0.125, 0.0]],
        evaluator=ev,
        jacobian=jac,
        label="motivating",
        edge_oracle=edges,
        dual_edge_oracle=edges,
    )


def nonirr_map() -> MapInstance:
    """((s,t),(u,v)) -> ((s,t), (max(s,v)^{1/2}, max(t,u)^{1/2})).

    The declared A = [[1,0],[1/2,1/2]] only holds under uniform scaling of
    both blocks: the cross-block maxima break genuine multi-homogeneity, so
    ``homogeneity_exact`` is False.  The map exists for its index graph, which
    satisfies the path existence condition without being strongly connected.
    """

    def ev(x):
        s, t = x.blocks[0]
        u, v = x.blocks[1]
        return ProductVector([[s, t], [max(s, v) ** 0.5, max(t, u) ** 0.5]])

    shape = ShapeSpec((2, 2))
    edges = _pattern(
        shape,
        {
            ((0, 0), (0, 0)), ((0, 1), (0, 1)),
            ((1, 0), (0, 0)), ((1, 0), (1, 1)),
            ((1, 1), (0, 1)), ((1, 1), (1, 0)),
        },
    )
    dual_edges = _pattern(shape, {((0, 0), (0, 0)), ((0, 1), (0, 1))})
    return MapInstance(
        shape=shape,
        A=[[1.0, 0.0], [0.5, 0.5]],
        evaluator=ev,
        label="nonirr",
        edge_oracle=edges,
        dual_edge_oracle=dual_edges,
        differentiable=False,
        homogeneity_exact=False,
    )


def irrex_map() -> MapInstance:
    """((s,t),(u,v)) -> (((st)^{1/4}u^{1/2}, (st)^{1/4}v^{1/2}), ((uv)^{1/2}, (uv)^{1/2})).

    Fixed point at the all-ones vector whose Jacobian is *not* irreducible,
    yet the summed-powers positivity condition holds on block 0 with tau = 2.
    """

    def ev(x):
        s, t = x.blocks[0]
        u, v = x.blocks[1]
        st = (s * t) ** 0.25
        uv = (u * v) ** 0.5
        return ProductVector([[st * u ** 0.5, st * v ** 0.5], [uv, uv]])

    def jac(x):
        s, t = x.blocks[0]
        u, v = x.blocks[1]
        f = ev(x).concat()
        J = np.zeros((4, 4))
        J[0] = [f[0] / (4 * s), f[0] / (4 * t), f[0] / (2 * u), 0.0]
        J[1] = [f[1] / (4 * s), f[1] / (4 * t), 0.0, f[1] / (2 * v)]
        J[2] = [0.0, 0.0, f[2] / (2 * u), f[2] / (2 * v)]
        J[3] = [0.0, 0.0, f[3] / (2 * u), f[3] / (2 * v)]
        return J

    shape = ShapeSpec((2, 2))
    edges = _pattern(
        shape,
        {
            ((0, 0), (0, 0)), ((0, 0), (0, 1)), ((0, 0), (1, 0)),
            ((0, 1), (0, 0)), ((0, 1), (0, 1)), ((0, 1), (1, 1)),
            ((1, 0), (1, 0)), ((1, 0), (1, 1)),
            ((1, 1), (1, 0)), ((1, 1), (1, 1)),
        },
    )
    return MapInstance(
        shape=shape,
        A=[[0.5, 0.5], [0.0, 1.0]],
        evaluator=ev,
        jacobian=jac,
        label="irrex",
        edge_oracle=edges,
        dual_edge_oracle=edges,
    )


def tight_map(A, sizes) -> MapInstance:
    """F_{i,j}(x) = prod_l x_{l,0}^{A_il}: attains the Lipschitz bound of its A.

    Every block size must be at least 2 so that the equality pair below is
    projectively nontrivial.
    """
    shape = ShapeSpec(tuple(sizes))
    A = check_homogeneity_matrix(A, shape.d)
    if any(n < 2 for n in shape.sizes):
        raise ValueError("tight_map needs every block size >= 2")

    def ev(x):
        heads = np.array([blk[0] for blk in x.blocks])
        vals = matrix_power_scale(heads, A)
        return ProductVector([np.full(n, vals[i]) for i, n in enumerate(shape.sizes)])

    def jac(x):
        heads = np.array([blk[0] for blk in x.blocks])
        vals = matrix_power_scale(heads, A)
        J = np.zeros((shape.total, shape.total))
        head_cols = np.cumsum([0] + list(shape.sizes))[:-1]
        row = 0
        for i, n in enumerate(shape.sizes):
            for _ in range(n):
                J[row, head_cols] = A[i] * vals[i] / heads
                row += 1
        return J

    edges = _pattern(
        shape,
        (
            ((i, j), (l, 0))
            for i, n in enumerate(shape.sizes)
            for j in range(n)
            for l in range(shape.d)
            if A[i, l] > 0.0
        ),
    )
    return MapInstance(
        shape=shape,
        A=A,
        evaluator=ev,
        jacobian=jac,
        label=f"tight(sizes={shape.sizes})",
        edge_oracle=edges,
        dual_edge_oracle=edges,
    )


def tight_equality_pair(A, b, sizes, ratio: float = 2.0):
    """The pair (x, y) at which the Lipschitz bound of tight_map holds with equality.

    x is all ones; y agrees except in the leading coordinate of the block k
    maximizing (A^T b)_k / b_k, where it is divided by ``ratio``.
    """
    shape = ShapeSpec(tuple(sizes))
    A = check_homogeneity_matrix(A, shape.d)
    b = np.asarray(b, dtype=float)
    k = int(np.argmax((A.T @ b) / b))
    x = ProductVector([np.ones(n) for n in shape.sizes])
    yblocks = [np.ones(n) for n in shape.sizes]
    yblocks[k][0] = 1.0 / float(ratio)
    return x, ProductVector(yblocks), k


# ---------------------------------------------------------------------------
# map algebra
# ---------------------------------------------------------------------------


def _check_same_map_shape(F: MapInstance, G: MapInstance):
    if F.shape != G.shape:
        raise ValueError("maps must share one shape")


def compose(F: MapInstance, G: MapInstance) -> MapInstance:
    """x -> F(G(x)); homogeneity matrix A(F) @ A(G)."""
    _check_same_map_shape(F, G)
    jac = None
    if F.jacobian is not None and G.jacobian is not None:
        jac = lambda x: F.jacobian(G.evaluator(x)) @ G.jacobian(x)
    return MapInstance(
        shape=F.shape,
        A=F.A @ G.A,
        evaluator=lambda x: F.evaluator(G.evaluator(x)),
        jacobian=jac,
        label=f"compose({F.label}, {G.label})",
        differentiable=F.differentiable and G.differentiable,
        homogeneity_exact=F.homogeneity_exact and G.homogeneity_exact,
        domain="interior" if "interior" in (F.domain, G.domain) else "cone",
    )


def hadamard(F: MapInstance, G: MapInstance) -> MapInstance:
    """Entrywise product x -> F(x) o G(x); homogeneity matrix A(F) + A(G)."""
    _check_same_map_shape(F, G)

    def ev(x):
        fx, gx = F.evaluator(x), G.evaluator(x)
        return _wrap(fx.flat * gx.flat, fx.shape)

    jac = None
    if F.jacobian is not None and G.jacobian is not None:

        def jac(x):
            fx, gx = F.evaluator(x).concat(), G.evaluator(x).concat()
            return gx[:, None] * F.jacobian(x) + fx[:, None] * G.jacobian(x)

    return MapInstance(
        shape=F.shape,
        A=F.A + G.A,
        evaluator=ev,
        jacobian=jac,
        label=f"hadamard({F.label}, {G.label})",
        differentiable=F.differentiable and G.differentiable,
        homogeneity_exact=F.homogeneity_exact and G.homogeneity_exact,
        domain="interior" if "interior" in (F.domain, G.domain) else "cone",
    )


def _spot_check_functionals(xi, shape: ShapeSpec, samples: int = 25, tol: float = 1e-9):
    rng = np.random.default_rng(7)
    for _ in range(samples):
        x = random_interior(shape, rng)
        alpha = rng.uniform(0.5, 2.0, shape.d)
        vals = np.array([f(x) for f in xi])
        scaled = np.array([f(scale_blocks(alpha, x)) for f in xi])
        if np.any(vals <= 0.0):
            raise ValueError("user functionals must be positive on K_+0")
        if np.max(np.abs(scaled - alpha * vals) / vals) > tol:
            raise ValueError("user functionals failed the block-homogeneity spot check")
        y = x + random_interior(shape, rng, 0.0, 1.0)
        if any(f(y) < f(x) - tol for f in xi):
            raise ValueError("user functionals failed the monotonicity spot check")


def weighted_sum(F: MapInstance, G: MapInstance, D, norms: NormSpec, xi=None) -> MapInstance:
    """N(x)^{D-A} (x) F(x) + N(x)^{D-B} (x) G(x) with homogeneity matrix D.

    Requires D >= A(F) and D >= A(G) entrywise.  N collects one order-
    preserving functional per block; by default the block norms of ``norms``.
    """
    _check_same_map_shape(F, G)
    d = F.shape.d
    D = check_homogeneity_matrix(D, d)
    if np.any(D < F.A - 1e-15) or np.any(D < G.A - 1e-15):
        raise ValueError("D must dominate both homogeneity matrices entrywise")
    if xi is None:
        norm_of = _norm_kernel(F.shape, norms)
        functionals = lambda x: norm_of(x.flat)
    else:
        xi = list(xi)
        if len(xi) != d:
            raise ValueError("need one functional per block")
        _spot_check_functionals(xi, F.shape)
        functionals = lambda x: np.array([f(x) for f in xi])
    DA, DB = D - F.A, D - G.A

    def ev(x):
        N = functionals(x)
        fx = scale_blocks(matrix_power_scale(N, DA), F.evaluator(x))
        gx = scale_blocks(matrix_power_scale(N, DB), G.evaluator(x))
        return fx + gx

    return MapInstance(
        shape=F.shape,
        A=D,
        evaluator=ev,
        label=f"weighted_sum({F.label}, {G.label})",
        differentiable=F.differentiable and G.differentiable and norms.is_smooth_interior(),
        homogeneity_exact=F.homogeneity_exact and G.homogeneity_exact,
        domain="interior" if "interior" in (F.domain, G.domain) else "cone",
    )


def shifted(F: MapInstance, delta: float, norms: NormSpec) -> MapInstance:
    """The delta-shift F(x) + delta * (||x_1||, ..., ||x_d||)^A (x) 1.

    Keeps the homogeneity matrix of F, maps K_{+,0} into K_{++}, and reduces
    to F + delta * 1 on the unit slice S_+.  A, delta and the norms are
    checked here, once, and the block-norm kernel is built here: A is F's
    validated nonnegative matrix and block norms are nonnegative, so each
    evaluation raises the norms to A through the unchecked kernel of
    ``matrix_power_scale`` (a zero norm still takes its 0^0 = 1 branch).
    """
    delta = float(delta)
    if not delta > 0.0:
        raise ValueError("delta must be positive")
    if norms.d != F.shape.d:
        raise ValueError("norm spec does not match the map shape")
    A = F.A
    norm_of = _norm_kernel(F.shape, norms)

    def ev(x):
        y = F.evaluator(x)
        shift = delta * _power_scale(norm_of(x.flat), A)
        return _wrap(y.flat + y.shape._spread(shift), y.shape)

    G = MapInstance(
        shape=F.shape,
        A=A,
        evaluator=ev,
        label=f"shifted({F.label}, delta={delta:g})",
        differentiable=F.differentiable and norms.is_smooth_interior(),
        homogeneity_exact=F.homogeneity_exact,
        domain=F.domain,
    )
    # same A, so the same analysis: a schedule of shifts measures rho(A) once
    object.__setattr__(G, "analysis", F.analysis)
    return G


def dual(F: MapInstance) -> MapInstance:
    """Inversion conjugate tau o F o tau with tau(z) = entrywise 1/z.

    Defined on K_{++} only; tau is a bijection between the positive
    eigenvectors of F and of the dual, with eigenvalues inverted.
    """

    def tau(x):
        return _wrap(1.0 / x.flat, x.shape)

    def ev(x):
        inner = tau(x)
        out = F.evaluator(inner)
        if not out.is_pos():
            raise ValueError("dual map hit the cone boundary")
        return tau(out)

    jac = None
    if F.jacobian is not None:

        def jac(x):
            inner = tau(x)
            out = F.evaluator(inner).concat()
            J = F.jacobian(inner)
            return (out ** -2.0)[:, None] * J * (x.concat() ** -2.0)[None, :]

    return MapInstance(
        shape=F.shape,
        A=F.A,
        evaluator=ev,
        jacobian=jac,
        label=f"dual({F.label})",
        differentiable=F.differentiable,
        homogeneity_exact=F.homogeneity_exact,
        domain="interior",
    )


# ---------------------------------------------------------------------------
# structure verification
# ---------------------------------------------------------------------------


def verify_multihomogeneous(
    F: MapInstance, samples: int = 1000, tol: float = 1e-9, seed: int = 0
) -> VerificationReport:
    """Randomized audit of F(alpha (x) x) = alpha^A (x) F(x)."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        x = random_interior(F.shape, rng)
        alpha = rng.uniform(0.5, 2.0, F.shape.d)
        lhs = evaluate(F, scale_blocks(alpha, x)).concat()
        rhs = scale_blocks(matrix_power_scale(alpha, F.A), evaluate(F, x)).concat()
        dev = float(np.max(np.abs(lhs - rhs) / np.maximum(np.abs(rhs), 1e-300)))
        worst = max(worst, dev)
    return VerificationReport(worst <= tol, worst, samples, tol)


def verify_order_preserving(
    F: MapInstance, samples: int = 1000, tol: float = 1e-9, seed: int = 0
) -> VerificationReport:
    """Randomized audit of x <=_K y implies F(x) <=_K F(y)."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    low = 0.5 if F.domain == "interior" else 0.0
    for _ in range(samples):
        x = random_interior(F.shape, rng, low, 1.5)
        y = x + random_interior(F.shape, rng, 0.0, 1.0)
        fx, fy = evaluate(F, x).concat(), evaluate(F, y).concat()
        scale = 1.0 + float(np.max(np.abs(fy)))
        violation = float(np.max(fx - fy)) / scale
        worst = max(worst, violation)
        if violation > tol:
            return VerificationReport(False, worst, samples, tol)
    return VerificationReport(True, worst, samples, tol)


def _perturbed(u: ProductVector, k: int, h: float) -> ProductVector:
    """u with flat coordinate k moved by h."""
    flat = u.flat.copy()
    flat[k] += h
    return _wrap(flat, u.shape)


def _fd_jacobian(F: MapInstance, u: ProductVector, mode: str) -> np.ndarray:
    if not u.is_pos():
        raise ValueError("u must be strictly positive")
    total = u.shape.total
    f0 = evaluate(F, u).flat if mode != "central" else None
    J = np.empty((total, total))
    for k, uk in enumerate(u.flat.tolist()):
        h = _FD_STEP * max(1.0, abs(uk))
        # keep the minus-side probe inside the cone
        h = min(h, 0.5 * uk) if mode != "forward" else h
        if mode == "central":
            fp = evaluate(F, _perturbed(u, k, h)).flat
            fm = evaluate(F, _perturbed(u, k, -h)).flat
            J[:, k] = (fp - fm) / (2.0 * h)
        elif mode == "forward":
            fp = evaluate(F, _perturbed(u, k, h)).flat
            J[:, k] = (fp - f0) / h
        else:
            fm = evaluate(F, _perturbed(u, k, -h)).flat
            J[:, k] = (f0 - fm) / h
    if not np.all(np.isfinite(J)):
        raise ValueError("non-finite evaluations while differencing near u")
    return J


def numeric_jacobian(F: MapInstance, u: ProductVector) -> np.ndarray:
    """Central finite-difference Jacobian at a strictly positive point.

    Step h = eps^{1/3} * max(1, |u_ij|), clipped so the backward probe stays
    inside the cone.
    """
    return _fd_jacobian(F, u, "central")


def jacobian_at(F: MapInstance, u: ProductVector) -> np.ndarray:
    """Analytic Jacobian when the instance carries one, else central differences."""
    if F.jacobian is not None:
        return np.asarray(F.jacobian(u), dtype=float)
    return numeric_jacobian(F, u)


def has_kink(F: MapInstance, u: ProductVector, tol: float = 1e-3) -> bool:
    """Forward/backward difference mismatch test for non-smooth points."""
    Jf = _fd_jacobian(F, u, "forward")
    Jb = _fd_jacobian(F, u, "backward")
    rel = np.abs(Jf - Jb) / np.maximum(1.0, np.maximum(np.abs(Jf), np.abs(Jb)))
    return bool(np.any(rel > tol))


def euler_residual(F: MapInstance, x: ProductVector) -> float:
    """Defect of the Euler identity <grad_i F_{k,l}(x), x_i> = A_ki F_{k,l}(x).

    Returns the worst relative deviation over output coordinates (k, l) and
    input blocks i; a near-zero value certifies the declared homogeneity row
    by differentiation instead of scaling.
    """
    if not x.is_pos():
        raise ValueError("x must be strictly positive")
    J = jacobian_at(F, x)
    fx = evaluate(F, x).concat()
    slices = F.shape.block_slices()
    worst = 0.0
    for k, rows in enumerate(slices):
        denom = np.maximum(np.abs(fx[rows]), 1e-300)
        for i, cols in enumerate(slices):
            lhs = J[rows, cols] @ x.blocks[i]
            dev = float(np.max(np.abs(lhs - F.A[k, i] * fx[rows]) / denom))
            worst = max(worst, dev)
    return worst
