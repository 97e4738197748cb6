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

Every built-in map evaluates through a flat kernel, a function from the
buffer of a point (``ProductVector.flat``) to a fresh buffer of its image,
with no checks; its public ``evaluator`` wraps that kernel's output as a
vector.  The closures compose their parts' kernels with no vector in between,
and a user's evaluator is adapted here (``_kernel``): its kernel wraps the
buffer, calls the evaluator, and checks its output as ``evaluate`` does.  The
power loop applies F's kernel to its own buffers, and its eigenvector wraps
the buffer the evaluator last saw.

The matrix and tensor families are cases of one multilinear form (Gautier,
Tudisco and Hein, SIMAX 2019): for a nonnegative tensor T whose mode a reads
block ``modes[a]``, F_k(x) is T contracted with x on every mode but block
k's first, raised to 1/(p_k - 1), and A_kl = (the number of modes of block
l, less one if l = k) / (p_k - 1).  ``linear_map`` is a matrix with both
modes on one block and p = 2, ``pq_singular_map`` a matrix with one mode
per block (``singular_map`` at p = q = 2), and ``tensor_eigen_map`` a cubical
tensor with every mode on one block.  The small worked maps used throughout
the test-suite follow, along with closure operations: composition, Hadamard
products, dominated weighted sums, the delta-shift, and inversion
conjugation (the dual map).  Every closure follows one rule: its parts share
one shape; it is differentiable when every part is, and so are its norms
where a norm factor uses them, but never with a user's functionals (a
weighted sum's ``xi``); its A is exact when every part's is; it lives
on the open cone when a part does, and a dual always; it has a Jacobian when
every part has one; and a closure whose A is its one part's (a shift, a
dual) shares that part's checked A and ``analysis``.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
from typing import Callable, Optional

import numpy as np

from .cones import (
    NormSpec,
    ProductVector,
    ShapeSpec,
    _norm_kernel,
    _power_scale,
    _selector_norm,
    _shape_of,
    _wrap,
    as_weight_vector,
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


class _CheckedA:
    """A d x d matrix that ``check_homogeneity_matrix`` returned, as the A of a new map of d blocks.

    ``MapInstance`` takes its ``matrix`` without checking it again: the A of
    a closure's one part, a cached multilinear A, or a ``tight_map``'s.
    """

    __slots__ = ("matrix",)

    def __init__(self, matrix: np.ndarray):
        self.matrix = matrix


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
        A = self.A
        A = A.matrix if type(A) is _CheckedA else check_homogeneity_matrix(A, self.shape.d)
        object.__setattr__(self, "A", A)
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
    """Apply the map after validating membership in its domain: strictly positive, or nonnegative.

    The output is checked too: a ``ProductVector`` of F's shape (see ``_apply``).
    """
    if x.shape is not F.shape and x.shape != F.shape:
        raise ValueError(f"shape mismatch: map {F.shape.sizes}, vector {x.shape.sizes}")
    if F.domain == "interior":
        if not np.minimum.reduce(x.flat) > 0.0:
            raise ValueError(f"{F.label} is only defined on strictly positive vectors")
    elif not np.minimum.reduce(x.flat) >= 0.0:
        raise ValueError("negative input entries")
    return _apply(F, x)


def _apply(F: MapInstance, x: ProductVector) -> ProductVector:
    """F's evaluator at x, with no input check, and its output checked.

    Raises ValueError unless the evaluator returned a ``ProductVector`` of
    F's shape.  For a caller whose x is known to lie in F's domain with F's
    shape: ``evaluate`` after its checks, and the kernel of a user's
    evaluator (``_kernel``), whose callers' buffers need none.
    """
    y = F.evaluator(x)
    if not isinstance(y, ProductVector):
        raise ValueError(f"{F.label} returned a {type(y).__name__}, not a ProductVector of shape {F.shape.sizes}")
    if y.shape is not F.shape and y.shape != F.shape:
        raise ValueError(f"shape mismatch: map {F.shape.sizes}, output {y.shape.sizes}")
    return y


class _FlatEvaluator:
    """The evaluator of a built-in map: x -> its flat ``kernel`` at ``x.flat``, as a vector of ``shape``."""

    __slots__ = ("kernel", "shape")

    def __init__(self, kernel: Callable[[np.ndarray], np.ndarray], shape: ShapeSpec):
        self.kernel, self.shape = kernel, shape

    def __call__(self, x: ProductVector) -> ProductVector:
        return _wrap(self.kernel(x.flat), self.shape)


def _kernel(F: MapInstance) -> Callable[[np.ndarray], np.ndarray]:
    """F as a function of buffers: flat -> F(x).flat for the x of F's shape with that buffer.

    No input check: for a caller whose buffers lie in F's domain.  A
    built-in evaluator gives its own kernel; any other evaluator sees a fresh
    vector over the buffer, and its output is checked as ``_apply`` does.
    """
    ev, shape = F.evaluator, F.shape
    if type(ev) is _FlatEvaluator and (ev.shape is shape or ev.shape == shape):
        return ev.kernel
    return lambda flat: _apply(F, _wrap(flat, shape)).flat


# ---------------------------------------------------------------------------
# built-in families
# ---------------------------------------------------------------------------


def _finite_nonneg(M: np.ndarray) -> bool:
    """Every entry is finite and nonnegative; a NaN fails.  Two passes, no temporaries."""
    return M.min(initial=0.0) >= 0.0 and M.max(initial=0.0) < np.inf


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


def _contraction(Tk: np.ndarray, reads: list, slices: list):
    """flat -> Tk contracted with x on its modes 1.., last first, by 2-d products as in ``np.tensordot``.

    Mode a reads block ``reads[a]``, at ``slices[reads[a]]`` of flat.  A
    matrix on a one-block vector is its own product, with no Python frame.
    """
    mat = Tk.reshape(-1, Tk.shape[-1])  # a copy only where a moved mode leaves T's memory order
    if len(slices) == 1 and Tk.ndim == 2:
        return mat.__matmul__
    last, steps = slices[reads[-1]], [(Tk.shape[a], slices[reads[a]]) for a in range(Tk.ndim - 2, 0, -1)]

    def contract(flat):
        g = mat @ flat[last]
        for n, sl in steps:
            g = g.reshape(-1, n) @ flat[sl]
        return g

    return contract


def _edges(Bk: np.ndarray, terms: tuple, support: np.ndarray):
    """Primal and dual edges from the slices j of the pattern Bk to the indices r of one block l.

    An edge when some positive entry of slice j has r on a mode that reads
    block l, a dual edge when all ``support[j]`` of them have: counted by
    inclusion and exclusion, one signed ``np.einsum`` term per set of those
    modes tied to r (``terms``, see ``_layout``; a matrix has one per entry).
    """
    if Bk.ndim == 2:
        return Bk, Bk & (support == 1)
    hits = 0
    for sign, labels in terms:
        hits = hits + sign * np.einsum(Bk, list(labels), [0, 1], dtype=np.intp)
    return hits > 0, hits == support


@functools.lru_cache(maxsize=64)
def _layout(modes: tuple, p: tuple):
    """What the multilinear form takes from its modes and exponents alone, as (blocks, A).

    Per block k: T's axis order with block k's first mode in front, the
    blocks those axes read, the power 1/(p_k - 1), and per block l that the
    other axes read, ``_edges``' signed einsum labels.  A is checked, so
    read-only.  Every p_k must be > 1.
    """
    m, d = len(modes), max(modes) + 1
    s = [1.0 / (pk - 1.0) for pk in p]
    blocks = []
    for k in range(d):
        f = modes.index(k)
        order = (f, *range(f), *range(f + 1, m))
        reads = tuple(modes[a] for a in order)
        edges = []
        for l in dict.fromkeys(reads[1:]):
            axes, terms = [a for a in range(1, m) if reads[a] == l], []
            for size in range(1, len(axes) + 1):
                for tied in itertools.combinations(axes, size):
                    labels = (0, *(1 if a in tied else a + 1 for a in range(1, m)))
                    terms.append((-(-1) ** size, labels))
            edges.append((l, tuple(terms)))
        blocks.append((order, reads, s[k], tuple(edges)))
    A = check_homogeneity_matrix([[(modes.count(l) - (l == k)) * s[k] for l in range(d)] for k in range(d)], d)
    return tuple(blocks), A


def _multilinear(T: np.ndarray, modes: tuple, p: tuple, label: str) -> MapInstance:
    """The multilinear form of the float array T (frozen here), its modes on blocks ``modes``.

    Raises ValueError unless every p_k > 1, T is finite and nonnegative, a
    block's modes share one size, and no slice of T on a block's first mode
    is zero.  The power 1/(p_k - 1) is skipped when it is 1.  The primal
    pattern has an edge (k, j) -> (l, r) when some positive entry with index
    j on block k's first mode has index r on another mode of block l, the
    dual pattern when every such entry has.
    """
    if not all(pk > 1.0 for pk in p):
        raise ValueError(f"{label}: every exponent p must be > 1")
    layout, A = _layout(modes, p)
    m, d = T.ndim, len(layout)
    if not _finite_nonneg(T):
        raise ValueError(f"{'matrix' if m == 2 else 'tensor'} entries must be finite and nonnegative")
    sizes = tuple(T.shape[order[0]] for order, _, _, _ in layout)
    if T.shape != tuple(sizes[l] for l in modes):
        raise ValueError("the modes of one block must have one size")
    T.setflags(write=False)
    shape = _shape_of(sizes)
    slices = shape.block_slices()
    B = T > 0.0
    P, D = np.zeros((2, shape.total, shape.total), dtype=bool)  # the primal and the dual pattern
    blocks = []  # per block: T with its first mode in front, the blocks its modes read, contraction, power
    for k, (order, reads, sk, edges) in enumerate(layout):
        Tk, Bk, f = T.transpose(order), B.transpose(order), order[0]
        support = Bk.reshape(sizes[k], -1).sum(axis=1, keepdims=True)
        if not support.all():  # F_k(x)_j would vanish on the open cone
            kind = f", a zero {('row', 'column')[f]}" if m == 2 else ""
            j = np.argmin(support)
            raise ValueError(f"degenerate slice {j} on mode {f}{kind}: zero image of the positive cone")
        for l, terms in edges:
            P[slices[k], slices[l]], D[slices[k], slices[l]] = _edges(Bk, terms, support)
        blocks.append((Tk, reads, _contraction(Tk, reads, slices), sk))
    if d > 1:
        join = lambda flat: np.concatenate([g(flat) if sk == 1.0 else g(flat) ** sk for _, _, g, sk in blocks])
    else:
        (_, _, g, sk), = blocks
        join = g if sk == 1.0 else lambda flat: g(flat) ** sk

    def jacobian(x):
        flat, J = x.flat, np.zeros((shape.total, shape.total))
        for k, (Tk, reads, g, sk) in enumerate(blocks):
            partials = {}  # dF_k/dx_l before the chain rule: T on all modes but 0 and one of block l
            for i in range(1, m):
                G = Tk
                for a in range(m - 1, 0, -1):
                    if a != i:
                        G = np.tensordot(G, flat[slices[reads[a]]], axes=(a, 0))
                partials[reads[i]] = partials[reads[i]] + G if reads[i] in partials else G
            scale = 1.0 if sk == 1.0 else (sk * g(flat) ** (sk - 1.0))[:, None]
            for l, G in partials.items():
                J[slices[k], slices[l]] = G if sk == 1.0 else scale * G
        return J

    return MapInstance(
        shape=shape,
        A=_CheckedA(A),
        evaluator=_FlatEvaluator(join, shape),
        jacobian=jacobian,
        label=label,
        edge_oracle=_frozen(P),
        dual_edge_oracle=_frozen(D),
    )


def linear_map(M) -> MapInstance:
    """x -> Mx for a nonnegative square matrix; eigenvectors are M's nonnegative ones."""
    M = np.array(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("linear_map needs a square matrix")
    return _multilinear(M, (0, 0), (2.0,), f"linear(n={M.shape[0]})")


def _matrix(M) -> np.ndarray:
    """A float copy of M, refused unless it is 2-d."""
    M = np.array(M, dtype=float)
    if M.ndim != 2:
        raise ValueError("need a matrix")
    return M


def singular_map(M) -> MapInstance:
    """(x, y) -> (My, M^T x); eigenvectors are nonnegative singular pairs of M.

    Stated with x of length m and y of length n for an m x n matrix, which is
    the dimensionally consistent reading of the pair map.  It is the p = q = 2
    case of ``pq_singular_map``, whose exponents 1/(p-1) are then exactly 1.
    """
    M = _matrix(M)
    return _multilinear(M, (0, 1), (2.0, 2.0), "singular({}x{})".format(*M.shape))


def pq_singular_map(M, p: float, q: float) -> MapInstance:
    """(x, y) -> ((My)^{1/(p-1)}, (M^T x)^{1/(q-1)}) entrywise, p, q > 1.

    Eigenvectors are the nonnegative critical points of
    <x, My> / (||x||_p ||y||_q).
    """
    M = _matrix(M)
    return _multilinear(M, (0, 1), (p, q), "pq_singular({}x{}, p={:g}, q={:g})".format(*M.shape, p, q))


def tensor_eigen_map(T, p: float) -> MapInstance:
    """l^p eigenvector map of a nonnegative cubical tensor: x -> (T x^{m-1})^{1/(p-1)}."""
    T = np.array(T, dtype=float)
    if T.ndim < 2 or len(set(T.shape)) != 1:
        raise ValueError("tensor must be cubical of order >= 2")
    return _multilinear(T, (0,) * T.ndim, (p,), f"tensor_eigen(order={T.ndim}, n={T.shape[0]}, p={p:g})")


def max_example_map(eps: float) -> MapInstance:
    """(a, b, c) -> (max(a,b,c), max(eps*a, b), max(eps*b, c)) with eps in (0,1).

    Strongly connected index graph yet a continuum of eigenvectors: (1, b, c)
    is a fixed point for all b, c in [eps, 1].
    """
    eps = float(eps)
    if not (0.0 < eps < 1.0):
        raise ValueError("eps must lie in (0, 1)")

    def kernel(flat):
        a, b, c = flat
        return np.array([max(a, b, c), max(eps * a, b), max(eps * b, c)])

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
        evaluator=_FlatEvaluator(kernel, shape),
        label=f"max_example(eps={eps:g})",
        edge_oracle=edges,
        dual_edge_oracle=_pattern(shape, ()),
        differentiable=False,
    )


def motivating_map() -> MapInstance:
    """((s,t),(u,v)) -> ((u^2, v^2), (s^{1/8}, t^{1/8})); contraction with rho(A)=1/2."""

    def kernel(flat):
        s, t, u, v = flat
        return np.array([u * u, v * v, s ** 0.125, t ** 0.125])

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
        evaluator=_FlatEvaluator(kernel, shape),
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

    def kernel(flat):
        s, t, u, v = flat
        return np.array([s, t, max(s, v) ** 0.5, max(t, u) ** 0.5])

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
        evaluator=_FlatEvaluator(kernel, shape),
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

    def kernel(flat):
        s, t, u, v = flat
        st = (s * t) ** 0.25
        uv = (u * v) ** 0.5
        return np.array([st * u ** 0.5, st * v ** 0.5, uv, uv])

    def jac(x):
        s, t = x.blocks[0]
        u, v = x.blocks[1]
        f = kernel(x.flat)
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
        evaluator=_FlatEvaluator(kernel, shape),
        jacobian=jac,
        label="irrex",
        edge_oracle=edges,
        dual_edge_oracle=edges,
    )


def _block_power(shape: ShapeSpec, B: np.ndarray, full: bool = False):
    """s -> prod_l s_l^{B_kl} on the entries of each block k, for nonnegative per-block scalars s.

    B is a d x d matrix that ``check_homogeneity_matrix`` passed, so each
    call takes the unchecked ``_power_scale`` (a zero s_l keeps its 0^0 = 1
    branch).  Several blocks give a full-length buffer.  One block takes s
    as a float (or a length-1 array) and raises a positive s to B = [[b]] as
    exp(b * log s): ``_power_scale``'s ufuncs in its order, bit for bit,
    without its length-1 arrays and positivity pass.  That value broadcasts
    over a buffer, as ``ShapeSpec._spread``'s one-block array does; ``full``
    asks for the full-length buffer instead.
    """
    if shape.d > 1:
        spread = shape._spread
        return lambda s: spread(_power_scale(s, B))
    b, n = B.item(0), shape.total

    def power(s):
        v = np.exp(b * np.log(s)) if s > 0.0 else _power_scale(np.atleast_1d(s), B)
        return np.repeat(v, n) if full else v

    return power


def tight_map(A, sizes) -> MapInstance:
    """F_{i,j}(x) = prod_l x_{l,0}^{A_il}: attains the Lipschitz bound of its A.

    Every block size must be at least 2 so that the equality pair below is
    projectively nontrivial.
    """
    shape = ShapeSpec(tuple(sizes))
    A = check_homogeneity_matrix(A, shape.d)
    if any(n < 2 for n in shape.sizes):
        raise ValueError("tight_map needs every block size >= 2")
    starts, power = shape._starts, _block_power(shape, A, full=True)
    rows = np.repeat(A, shape.sizes, axis=0)  # row i of A on each row of block i

    def jac(x):
        heads, J = x.flat[starts], np.zeros((shape.total, shape.total))
        J[:, starts] = rows * power(heads)[:, None] / heads
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
        A=_CheckedA(A),
        evaluator=_FlatEvaluator(lambda flat: power(flat[starts]), shape),
        jacobian=jac,
        label=f"tight(sizes={shape.sizes})",
        edge_oracle=edges,
        dual_edge_oracle=edges,
    )


def tight_equality_pair(A, b, sizes, ratio: float = 2.0):
    """The pair (x, y) at which the Lipschitz bound of tight_map holds with equality.

    x is all ones; y agrees except in the leading coordinate of the block k
    maximizing (A^T b)_k / b_k, where it is divided by ``ratio``.  Raises
    ValueError unless b is one finite positive weight per block and ratio finite and positive.
    """
    shape = ShapeSpec(tuple(sizes))
    A = check_homogeneity_matrix(A, shape.d)
    b = as_weight_vector(b, shape.d)
    if not math.inf > ratio > 0.0:
        raise ValueError(f"ratio must be positive and finite, got {ratio!r}")
    k = int(np.argmax((A.T @ b) / b))
    x = ProductVector([np.ones(n) for n in shape.sizes])
    yblocks = [np.ones(n) for n in shape.sizes]
    yblocks[k][0] = 1.0 / float(ratio)
    return x, ProductVector(yblocks), k


# ---------------------------------------------------------------------------
# map algebra
# ---------------------------------------------------------------------------


def _closure(label: str, parts: tuple, build, factor=None, interior: bool = False) -> MapInstance:
    """The map that ``build`` makes of its parts, under the one rule of every closure.

    The parts must share one shape (ValueError).  ``build`` takes their flat
    kernels and returns the closure's A, flat kernel and Jacobian; the
    Jacobian is kept when every part has one.  The closure is differentiable
    when every part is and so is its ``factor``: the ``NormSpec`` of a norm
    factor where its norms are smooth on the open cone, and never a user's
    functionals, of which nothing is known but the spot checks.  Its A is
    exact when every part's is; it lives on the open cone when a part does,
    or when ``interior`` (a dual).  An A that is its one part's own is
    taken as the part checked it, with the part's ``analysis``: a schedule of
    shifts measures rho(A) once, also above the d <= 64 cap of the
    homogeneity memo.
    """
    shape = parts[0].shape
    if any(P.shape != shape for P in parts[1:]):
        raise ValueError("maps must share one shape")
    A, kernel, jacobian = build(*map(_kernel, parts))
    shared = len(parts) == 1 and A is parts[0].A
    G = MapInstance(
        shape=shape,
        A=_CheckedA(A) if shared else A,
        evaluator=_FlatEvaluator(kernel, shape),
        jacobian=jacobian if all(P.jacobian is not None for P in parts) else None,
        label=label,
        differentiable=all(P.differentiable for P in parts) and (
            factor is None or (isinstance(factor, NormSpec) and factor.is_smooth_interior())
        ),
        homogeneity_exact=all(P.homogeneity_exact for P in parts),
        domain="interior" if interior or any(P.domain == "interior" for P in parts) else "cone",
    )
    if shared:
        object.__setattr__(G, "analysis", parts[0].analysis)
    return G


def _norms_of(shape: ShapeSpec, norms: NormSpec):
    """flat -> the block norms under norms, checked against shape here; one block's is a float."""
    norm_of = _norm_kernel(shape, norms)
    return _selector_norm(*norms.selectors[0]) if shape.d == 1 else norm_of


def compose(F: MapInstance, G: MapInstance) -> MapInstance:
    """x -> F(G(x)); homogeneity matrix A(F) @ A(G)."""

    def build(kF, kG):
        jac = lambda x: F.jacobian(_wrap(kG(x.flat), x.shape)) @ G.jacobian(x)
        return F.A @ G.A, lambda flat: kF(kG(flat)), jac

    return _closure(f"compose({F.label}, {G.label})", (F, G), build)


def hadamard(F: MapInstance, G: MapInstance) -> MapInstance:
    """Entrywise product x -> F(x) o G(x); homogeneity matrix A(F) + A(G)."""

    def build(kF, kG):
        def jac(x):
            fx, gx = kF(x.flat), kG(x.flat)
            return gx[:, None] * F.jacobian(x) + fx[:, None] * G.jacobian(x)

        return F.A + G.A, lambda flat: kF(flat) * kG(flat), jac

    return _closure(f"hadamard({F.label}, {G.label})", (F, G), build)


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
    preserving functional per block; by default the block norms of
    ``norms``, whose factors are ``_block_power``'s.  The values of a user's
    functionals ``xi`` are checked at every call, by ``matrix_power_scale``;
    with them the sum is marked not differentiable, so a certificate tests
    its eigenvector for a kink.
    """

    def build(kF, kG):
        shape = F.shape
        A = check_homogeneity_matrix(D, shape.d)
        if np.any(A < F.A - 1e-15) or np.any(A < G.A - 1e-15):
            raise ValueError("D must dominate both homogeneity matrices entrywise")
        if xi is None:
            functionals = _norms_of(shape, norms)
            pF, pG = _block_power(shape, A - F.A), _block_power(shape, A - G.A)
        else:
            fs = list(xi)
            if len(fs) != shape.d:
                raise ValueError("need one functional per block")
            _spot_check_functionals(fs, shape)

            def functionals(flat):
                x = _wrap(flat, shape)
                return np.array([f(x) for f in fs])

            pF, pG = (lambda N, E=E: shape._spread(matrix_power_scale(N, E)) for E in (A - F.A, A - G.A))

        def kernel(flat):
            N = functionals(flat)
            return pF(N) * kF(flat) + pG(N) * kG(flat)

        return A, kernel, None

    return _closure(f"weighted_sum({F.label}, {G.label})", (F, G), build, norms if xi is None else xi)


def shifted(F: MapInstance, delta: float, norms: NormSpec) -> MapInstance:
    """The delta-shift F(x) + delta * (||x_1||, ..., ||x_d||)^A (x) 1.

    Keeps the homogeneity matrix of F, maps K_{+,0} into K_{++}, and reduces
    to F + delta * 1 on the unit slice S_+.  Delta (positive and finite) and
    the norms are checked here, once; the norm factor is ``_block_power``'s.
    """
    delta = float(delta)
    if not math.inf > delta > 0.0:
        raise ValueError("delta must be positive and finite")

    def build(kF):
        norm_of, power = _norms_of(F.shape, norms), _block_power(F.shape, F.A)
        return F.A, lambda flat: kF(flat) + delta * power(norm_of(flat)), None

    return _closure(f"shifted({F.label}, delta={delta:g})", (F,), build, norms)


def dual(F: MapInstance) -> MapInstance:
    """Inversion conjugate tau o F o tau with tau(z) = entrywise 1/z.

    Defined on K_{++} only; tau is a bijection between the positive
    eigenvectors of F and of the dual, with eigenvalues inverted.
    """

    def build(kF):
        def kernel(flat):
            out = kF(1.0 / flat)
            if not np.minimum.reduce(out) > 0.0:
                raise ValueError("dual map hit the cone boundary")
            return 1.0 / out

        def jac(x):
            inner = 1.0 / x.flat
            out = kF(inner)
            J = F.jacobian(_wrap(inner, x.shape))
            return (out ** -2.0)[:, None] * J * (x.flat ** -2.0)[None, :]

        return F.A, kernel, jac

    return _closure(f"dual({F.label})", (F,), build, interior=True)


# ---------------------------------------------------------------------------
# structure verification
# ---------------------------------------------------------------------------


def verify_multihomogeneous(
    F: MapInstance, samples: int = 1000, tol: float = 1e-9, seed: int = 0
) -> VerificationReport:
    """Randomized audit of F(alpha (x) x) = alpha^A (x) F(x) over samples >= 1 draws."""
    if samples < 1:  # no sample would pass vacuously
        raise ValueError(f"an audit needs samples >= 1, got {samples!r}")
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
    """Randomized audit of x <=_K y implies F(x) <=_K F(y) over samples >= 1 draws."""
    if samples < 1:
        raise ValueError(f"an audit needs samples >= 1, got {samples!r}")
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


def has_kink(F: MapInstance, u: ProductVector) -> bool:
    """Forward/backward difference mismatch test for non-smooth points.

    A kink is a relative mismatch above 1e-3 in some Jacobian entry.
    """
    Jf = _fd_jacobian(F, u, "forward")
    Jb = _fd_jacobian(F, u, "backward")
    rel = np.abs(Jf - Jb) / np.maximum(1.0, np.maximum(np.abs(Jf), np.abs(Jb)))
    return bool(np.any(rel > 1e-3))


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
