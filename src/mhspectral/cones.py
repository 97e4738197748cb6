"""Product-cone vectors, the blockwise scaling algebra, and block norms.

Vectors live in V = R^{n_1} x ... x R^{n_d} and are stored as one contiguous
float buffer of length n_1 + ... + n_d, block after block, together with
their ``ShapeSpec``; the blocks are read-only views into that buffer.
Blockwise work (scalings, norms, extrema) runs on the buffer with one numpy
call per step, whatever d is.  A *block scaling* is a length-d array
``alpha`` acting as ``alpha (x) x = (alpha_1 x_1, ..., alpha_d x_d)``;
scalings compose through entrywise products and can be raised to matrix
exponents, ``(alpha ** B)_i = prod_k alpha_k^{B_ik}``.  All objects are
immutable and every function is pure, so they are safe to share across
threads.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from typing import Iterable, Optional, Sequence

import numpy as np

__all__ = [
    "ShapeSpec",
    "ProductVector",
    "NormSpec",
    "as_weight_vector",
    "scale_blocks",
    "matrix_power_scale",
    "block_norms",
    "normalize",
    "weighted_norm_product",
    "partial_order_compare",
    "ones_vector",
    "random_interior",
]

#: Floor used by the diagnostic approximate-positivity predicate.
APPROX_POS_FLOOR = 1e-14


@dataclasses.dataclass(frozen=True)
class ShapeSpec:
    """Block structure (n_1, ..., n_d) of a product space."""

    sizes: tuple[int, ...]

    def __post_init__(self):
        sizes = tuple(int(n) for n in self.sizes)
        if len(sizes) < 1:
            raise ValueError("a product space needs at least one block")
        if any(n < 1 for n in sizes):
            raise ValueError(f"block sizes must be positive, got {sizes}")
        object.__setattr__(self, "sizes", sizes)

    # ``d`` and ``total`` are read several times per solver iteration; like the
    # layout caches below they are computed once per instance
    # (``cached_property`` writes the instance dict directly, so the frozen
    # dataclass allows it).

    @functools.cached_property
    def d(self) -> int:
        return len(self.sizes)

    @functools.cached_property
    def total(self) -> int:
        return sum(self.sizes)

    def nodes(self) -> list[tuple[int, int]]:
        """All coordinate indices (i, j) with 0 <= j < n_i, block-major order."""
        return [(i, j) for i, n in enumerate(self.sizes) for j in range(n)]

    def block_slices(self) -> list[slice]:
        """Slices of each block inside the flattened length-``total`` layout."""
        return list(self._slices)

    # Layout caches, computed once per instance.

    @functools.cached_property
    def _slices(self) -> tuple[slice, ...]:
        ends = np.cumsum(self.sizes).tolist()
        return tuple(slice(end - n, end) for n, end in zip(self.sizes, ends))

    @functools.cached_property
    def _starts(self) -> np.ndarray:
        """Block start offsets, the ``indices`` of ``ufunc.reduceat``."""
        starts = np.array([sl.start for sl in self._slices], dtype=np.intp)
        starts.setflags(write=False)
        return starts

    @functools.cached_property
    def _coords(self) -> np.ndarray:
        """``nodes()`` as a read-only (N, 2) int array of each node's (block, offset)."""
        blocks = np.repeat(np.arange(self.d), self.sizes)
        coords = np.column_stack((blocks, np.arange(self.total) - self._starts[blocks]))
        coords.setflags(write=False)
        return coords

    @functools.cached_property
    def _uniform(self) -> Optional[int]:
        """The common block size when all blocks have one, else None."""
        n = self.sizes[0]
        return n if all(m == n for m in self.sizes) else None

    @functools.cached_property
    def _repeats(self):
        return self._uniform or np.array(self.sizes, dtype=np.intp)

    def _spread(self, per_block: np.ndarray) -> np.ndarray:
        """One value per block, repeated over the block's entries.

        A single block's length-1 array is returned as is: it broadcasts.
        """
        if len(self.sizes) == 1:
            return per_block
        return np.repeat(per_block, self._repeats)


@functools.lru_cache(maxsize=64)
def _shape_of(sizes: tuple[int, ...]) -> ShapeSpec:
    # one shared (immutable) spec per block structure, so vectors built from
    # blocks reuse its layout caches instead of recomputing them per vector
    return ShapeSpec(sizes)


def _wrap(flat: np.ndarray, shape: ShapeSpec, cls=None) -> "ProductVector":
    """A vector owning ``flat``, a fresh float array of length ``shape.total``.

    No copy and no check: only for buffers just computed by the caller.
    """
    flat.setflags(write=False)
    vec = object.__new__(cls or ProductVector)
    _set_flat(vec, flat)
    _set_shape(vec, shape)
    _set_blocks(vec, None)
    return vec


def _float_block(blk) -> np.ndarray:
    arr = np.asarray(blk, dtype=float)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("each block must be a nonempty 1-d array")
    return arr


class ProductVector:
    """Immutable point of R^{n_1} x ... x R^{n_d}.

    ``flat`` is the one read-only float buffer holding the d blocks back to
    back; ``shape`` gives the block sizes, and ``blocks`` is a tuple of
    read-only views into ``flat``.  The constructor copies its input, so later
    changes to the caller's arrays do not reach the vector.
    """

    __slots__ = ("flat", "shape", "_blocks")

    def __init__(self, blocks: Iterable[Sequence[float]]):
        if not isinstance(blocks, (list, tuple)):
            blocks = list(blocks)
        if not blocks:
            raise ValueError("a product vector needs at least one block")
        try:
            # one fresh copy; same_kind casting takes bools, ints and floats
            flat = np.concatenate(blocks, dtype=float, casting="same_kind")
            sizes = tuple(map(len, blocks))
        except (TypeError, ValueError, OverflowError):
            # what it turns away (blocks of unequal ndim, complex numbers,
            # strings, huge ints) is converted, or refused, block by block
            parsed = [_float_block(blk) for blk in blocks]
            flat, sizes = np.concatenate(parsed), tuple(map(len, parsed))
        # concatenating along axis 0 needs blocks of one ndim, so a 1-d result
        # means every block was 1-d
        if flat.ndim != 1 or 0 in sizes:
            raise ValueError("each block must be a nonempty 1-d array")
        flat.setflags(write=False)
        _set_flat(self, flat)
        _set_shape(self, _shape_of(sizes))
        _set_blocks(self, None)

    def __setattr__(self, name, value):
        raise AttributeError("ProductVector is immutable")

    def __reduce__(self):
        return (type(self).from_flat, (self.flat, self.shape))

    @property
    def blocks(self) -> tuple[np.ndarray, ...]:
        blocks = self._blocks
        if blocks is None:  # built on first use; many vectors never need them
            flat, shape = self.flat, self.shape
            n = shape._uniform
            if shape.d == 1:
                blocks = (flat,)
            elif n is not None:  # the rows of one 2-d view
                blocks = tuple(flat.reshape(shape.d, n))
            else:
                blocks = tuple(flat[sl] for sl in shape._slices)
            _set_blocks(self, blocks)
        return blocks

    @property
    def d(self) -> int:
        return self.shape.d

    def concat(self) -> np.ndarray:
        return self.flat.copy()

    @classmethod
    def from_flat(cls, flat: Sequence[float], shape: ShapeSpec) -> "ProductVector":
        flat = np.array(flat, dtype=float)
        if flat.shape != (shape.total,):
            raise ValueError("flat data does not match the shape")
        return _wrap(flat, shape, cls)

    # -- membership predicates (K_+, K_{+,0}, K_{++}) -----------------------

    def is_nonneg(self) -> bool:
        return bool(np.minimum.reduce(self.flat) >= 0.0)

    def is_semipos(self) -> bool:
        """Each block nonnegative with at least one nonzero entry."""
        return self.is_nonneg() and bool(
            np.minimum.reduce(np.maximum.reduceat(self.flat, self.shape._starts)) > 0.0
        )

    def is_pos(self) -> bool:
        return bool(np.minimum.reduce(self.flat) > 0.0)

    def approx_pos(self) -> bool:
        """Diagnostic predicate: every entry exceeds ``APPROX_POS_FLOOR``.

        Membership tests use exact zero; this looser check is for reporting
        near-boundary iterates only.
        """
        return bool(np.minimum.reduce(self.flat) > APPROX_POS_FLOOR)

    # -- convenience arithmetic ---------------------------------------------

    def __add__(self, other: "ProductVector") -> "ProductVector":
        _check_same_shape(self, other)
        return _wrap(self.flat + other.flat, self.shape)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ProductVector):
            return NotImplemented
        return self.shape.sizes == other.shape.sizes and bool((self.flat == other.flat).all())

    def __hash__(self):
        # + 0.0 turns -0.0 into 0.0: equal vectors must hash equal
        return hash((self.shape.sizes, (self.flat + 0.0).tobytes()))

    def __repr__(self):
        inner = ", ".join(np.array2string(b, precision=6) for b in self.blocks)
        return f"ProductVector({inner})"


# the slot writers of ProductVector, past its refusing __setattr__: a slot's
# own descriptor, without object.__setattr__'s lookup by name
_set_flat, _set_shape, _set_blocks = (ProductVector.__dict__[name].__set__ for name in ProductVector.__slots__)


class NormSpec:
    """Per-block monotonic norms.

    Each block selector is either an exponent p in [1, inf] (the usual p-norm,
    monotonic on all of R^n) or a strictly positive weight vector phi defining
    the weighted-l1 functional <|v|, phi>.
    """

    __slots__ = ("selectors", "_euclidean")

    def __init__(self, selectors: Sequence):
        parsed = []
        for sel in selectors:
            if isinstance(sel, (int, float, np.integer, np.floating)):
                p = float(sel)
                if math.isnan(p) or p < 1.0:
                    raise ValueError(
                        f"p-norm exponent must lie in [1, inf], got {sel!r}"
                    )
                parsed.append(("p", p))
            else:
                phi = np.array(sel, dtype=float)
                if phi.ndim != 1 or phi.size == 0 or not np.all((phi > 0.0) & np.isfinite(phi)):
                    raise ValueError("weighted-l1 weights must be finite and strictly positive")
                phi.setflags(write=False)
                parsed.append(("phi", phi))
        if not parsed:
            raise ValueError("need at least one block selector")
        object.__setattr__(self, "selectors", tuple(parsed))
        object.__setattr__(self, "_euclidean", all(sel == ("p", 2.0) for sel in parsed))

    def __setattr__(self, name, value):
        raise AttributeError("NormSpec is immutable")

    def __reduce__(self):
        return (type(self), ([val for _, val in self.selectors],))

    @classmethod
    def euclidean(cls, d: int) -> "NormSpec":
        return cls([2.0] * d)

    @classmethod
    def lp(cls, p: float, d: int) -> "NormSpec":
        return cls([p] * d)

    @property
    def d(self) -> int:
        return len(self.selectors)

    def is_smooth_interior(self) -> bool:
        """True when every selector is differentiable on the open orthant."""
        return all(
            kind == "phi" or val != math.inf for kind, val in self.selectors
        )

    def block_norm(self, i: int, v: np.ndarray) -> float:
        kind, val = self.selectors[i]
        if kind == "phi" and val.shape != v.shape:
            raise ValueError(f"phi weight length mismatch in block {i}")
        return _selector_norm(kind, val)(v)

    def __repr__(self):
        parts = [
            f"p={val:g}" if kind == "p" else f"phi(len {val.size})"
            for kind, val in self.selectors
        ]
        return f"NormSpec([{', '.join(parts)}])"


def _check_same_shape(x: ProductVector, y: ProductVector):
    if x.shape.sizes != y.shape.sizes:
        raise ValueError("shape mismatch between product vectors")


def _as_scaling(alpha, d: int) -> np.ndarray:
    a = np.atleast_1d(np.asarray(alpha, dtype=float))
    if a.shape != (d,):
        raise ValueError(f"block scaling must have length {d}, got shape {a.shape}")
    return a


def as_weight_vector(b, d: int) -> np.ndarray:
    """Validate a strictly positive weight vector."""
    w = np.atleast_1d(np.asarray(b, dtype=float))
    if w.shape != (d,):
        raise ValueError(f"weight vector must have length {d}, got shape {w.shape}")
    # one min and one max pass; a NaN fails both comparisons
    if not (np.minimum.reduce(w) > 0.0 and np.maximum.reduce(w) < math.inf):
        raise ValueError("weights must be strictly positive and finite")
    return w


def scale_blocks(alpha, x: ProductVector) -> ProductVector:
    """Blockwise scaling alpha (x) x = (alpha_1 x_1, ..., alpha_d x_d)."""
    a = _as_scaling(alpha, x.d)
    return _wrap(x.shape._spread(a) * x.flat, x.shape)


def matrix_power_scale(alpha, B) -> np.ndarray:
    """Raise a nonnegative scaling to a matrix exponent: out_i = prod_k alpha_k^{B_ik}.

    Computed as exp(B @ log alpha) to stay stable for extreme fractional
    exponents.  Zero bases follow the 0^0 = 1 convention (forced by continuity
    of multi-homogeneity at the boundary); a zero base under a negative
    exponent is rejected.  The argument checks run here, on every call;
    callers that validated B once and pass nonnegative scalings of the right
    length (the delta-shift, per evaluation) call the kernel
    ``_power_scale`` directly.
    """
    B = np.asarray(B, dtype=float)
    if B.ndim != 2 or B.shape[0] != B.shape[1]:
        raise ValueError("exponent matrix must be square")
    a = _as_scaling(alpha, B.shape[0])
    if np.any(a < 0.0):
        raise ValueError("scaling entries must be nonnegative")
    if np.any(B[:, a == 0.0] < 0.0):
        raise ValueError("zero base with negative exponent")
    return _power_scale(a, B)


def _power_scale(a: np.ndarray, B: np.ndarray) -> np.ndarray:
    """exp(B @ log a) with 0^0 = 1, for a float d x d ``B`` and a length-d ``a``.

    No checks: ``a`` must be nonnegative and no zero entry of ``a`` may meet a
    negative exponent (see ``matrix_power_scale``).
    """
    if np.minimum.reduce(a) > 0.0:
        return np.exp(B @ np.log(a))
    zero = a == 0.0
    log_a = np.where(zero, 0.0, np.log(np.where(zero, 1.0, a)))
    out = np.exp(B @ log_a)
    out[(B[:, zero] > 0.0).any(axis=1)] = 0.0
    return out


_HALF_MAX = float(np.finfo(float).max) / 2.0


def _euclidean_norm(v: np.ndarray) -> float:
    """||v||_2, finite whenever the norm itself is a finite double.

    vdot is the dot kernel of np.dot, bit for bit, without its overflow
    warning, and sqrt is correctly rounded in both math and numpy.  Only a
    sum of squares that overflows is taken again on v / max |v|.
    """
    norm = math.sqrt(np.vdot(v, v))
    if norm == math.inf:
        m = float(np.abs(v).max())
        if m < math.inf:
            norm = m * math.sqrt(np.vdot(v / m, v / m))
    return norm


def _selector_norm(kind: str, val):
    """The norm of one block under the selector (kind, val), as a function of the block."""
    if kind == "phi":
        return lambda v: float(np.dot(np.abs(v), val))
    if val == 2.0:
        return _euclidean_norm
    if val == math.inf:
        return lambda v: float(np.abs(v).max())
    if val == 1.0:
        return lambda v: float(np.abs(v).sum())
    inv = 1.0 / val
    return lambda v: float(np.sum(np.abs(v) ** val) ** inv)


def _norm_kernel(shape: ShapeSpec, norms: NormSpec):
    """``flat -> block_norms(x, norms)`` for the buffers of vectors laid out as ``shape``.

    The spec is checked against the shape and dispatched here, once, so a
    loop that takes the norms of many vectors of one shape pays neither per
    call.
    """
    d = shape.d
    if norms.d != d:
        raise ValueError("norm spec block count does not match the vector")
    n = shape._uniform
    if d > 1 and norms._euclidean and n is not None:
        # one stacked (1 x n) @ (n x 1) product per block: numpy computes each
        # with the same dot kernel as np.dot, so the norms match the per-block
        # loop to the last bit (a summing reduction would not).  The sum of
        # all squares, from np.vdot, which never warns, bounds every block's:
        # below half the largest double no block's overflows, and matmul
        # cannot warn; else the per-block loop takes each norm
        def stacked(flat):
            X = flat.reshape(d, n)
            if np.vdot(flat, flat) < _HALF_MAX:
                return np.sqrt(np.matmul(X[:, None, :], X[:, :, None]).ravel())
            return np.array([_euclidean_norm(x) for x in X])

        return stacked
    for i, ((kind, val), size) in enumerate(zip(norms.selectors, shape.sizes)):
        if kind == "phi" and val.shape != (size,):
            raise ValueError(f"phi weight length mismatch in block {i}")
    fns = [_selector_norm(kind, val) for kind, val in norms.selectors]
    if d == 1:
        norm = fns[0]
        return lambda flat: np.array([norm(flat)])
    slices = shape._slices
    return lambda flat: np.array([norm(flat[sl]) for norm, sl in zip(fns, slices)])


def block_norms(x: ProductVector, norms: NormSpec) -> np.ndarray:
    """Vector of per-block norms (||x_1||_{g_1}, ..., ||x_d||_{g_d})."""
    return _norm_kernel(x.shape, norms)(x.flat)


def normalize(x: ProductVector, norms: NormSpec) -> ProductVector:
    """Rescale every block to unit norm, landing on the slice S_+.

    Raises when some block is identically zero (the input left K_{+,0}).
    """
    ns = block_norms(x, norms)
    if np.any(ns == 0.0):
        i = int(np.argmin(ns))
        raise ValueError(f"block {i} is identically zero; input left K_+0")
    return scale_blocks(1.0 / ns, x)


def weighted_norm_product(x: ProductVector, b, norms: NormSpec) -> float:
    """The weighted norm product |||x|||_b = prod_i ||x_i||^{b_i}.

    Equals 1 on S_+ when b sums to 1; scales as prod alpha_i^{b_i} under
    blockwise scaling.
    """
    w = as_weight_vector(b, x.d)
    return _weighted_product(block_norms(x, norms), w)


def _weighted_product(v: np.ndarray, b: np.ndarray) -> float:
    """r_b = prod_i v_i^{b_i}, or 0.0 when some v_i <= 0 (fmin skips a NaN entry)."""
    if np.fmin.reduce(v) <= 0.0:
        return 0.0
    return float(np.exp(np.dot(b, np.log(v))))


def partial_order_compare(x: ProductVector, y: ProductVector) -> str:
    """Classify x against y in the componentwise order of the product cone.

    Returns one of ``eq``, ``lt`` (strict everywhere), ``lneq`` (<= with some
    strict coordinate), the mirror images ``gt`` / ``gneq``, or
    ``incomparable``.
    """
    _check_same_shape(x, y)
    diff = y.flat - x.flat
    if np.all(diff == 0.0):
        return "eq"
    if np.all(diff >= 0.0):
        return "lt" if np.all(diff > 0.0) else "lneq"
    if np.all(diff <= 0.0):
        return "gt" if np.all(diff < 0.0) else "gneq"
    return "incomparable"


def ones_vector(shape: ShapeSpec) -> ProductVector:
    return _wrap(np.ones(shape.total), shape)


def random_interior(shape: ShapeSpec, rng, low: float = 0.5, high: float = 1.5) -> ProductVector:
    """Seeded strictly positive sample, entrywise uniform on (low, high)."""
    return ProductVector([rng.uniform(low, high, n) for n in shape.sizes])
