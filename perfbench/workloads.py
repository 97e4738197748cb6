"""Seeded workload generators and the timed steps of one benchmark item.

Every workload is a fixed list of items made from ``--seed`` alone.  An item
carries its instance document as canonical JSON text (the only thing the
program receives) and, separately, what the oracle expects of the answer:
reference values from numpy and the certificate kind the construction implies.
The references are computed here, at generation time, outside any timed region.
"""

from __future__ import annotations

import dataclasses
import json
import time

import numpy as np

DEFECTIVE = [[1.0, 1.0], [0.0, 1.0]]
# r_b of the worked two-block power map: lambda = (2^-1/2, 2^7/16) under the
# auto weights b = (1/5, 4/5), the left Perron vector of A = [[0, 2], [1/8, 0]]
MOTIVATING_R_B = 2.0 ** 0.25


@dataclasses.dataclass
class Item:
    name: str
    doc_text: str  # canonical JSON instance document
    expect: dict  # oracle expectations; never shown to the program
    third: str | None = None  # "analyze", "graph" or None (library items)


def _doc_text(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _rounded(M: np.ndarray) -> np.ndarray:
    # six decimals keep documents short and make the JSON round trip exact
    return np.round(M, 6)


def _rho(M: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvals(M))))


def _closure(adj: np.ndarray) -> np.ndarray:
    """Reflexive-transitive closure by float32 squaring (independent of the library)."""
    R = (adj | np.eye(adj.shape[0], dtype=bool)).astype(np.float32)
    while True:
        nxt = ((R @ R) > 0).astype(np.float32)
        if np.array_equal(nxt, R):
            return R > 0
        R = nxt


def _pattern_verdicts(P: np.ndarray) -> tuple[bool, bool]:
    """(irreducible, primitive) of a small square nonnegative pattern."""
    n = P.shape[0]
    B = (P > 0).astype(np.float64)
    irreducible = bool(_closure(B > 0).all())
    Q = np.eye(n)
    for _ in range((n - 1) ** 2 + 1):
        Q = ((Q @ B) > 0).astype(np.float64)
        if Q.all():
            return irreducible, True
    return irreducible, False


def _analyze_expect(A) -> dict:
    A = np.asarray(A, dtype=float)
    rho = _rho(A)
    regime = (
        "strict_contraction" if rho < 1 - 1e-9 else "non_expansive" if rho <= 1 + 1e-9 else "expansive"
    )
    irreducible, primitive = _pattern_verdicts(A)
    return {"rho": rho, "regime": regime, "irreducible": irreducible, "primitive": primitive}


def _graph_expect(adj: np.ndarray, sizes: list[int]) -> dict:
    """Edge count, strong connectivity and the existence condition of an index graph."""
    reach = _closure(adj)
    offsets = np.cumsum([0] + sizes)
    exists = all(
        any(reach[offsets[b]:offsets[b + 1], t].all() for b in range(len(sizes)))
        for t in range(adj.shape[0])
    )
    return {"edges": int(adj.sum()), "strongly_connected": bool(reach.all()), "existence": bool(exists)}


def _linear_adj(M):
    return M > 0


def _bipartite_adj(M):
    m, n = M.shape
    adj = np.zeros((m + n, m + n), dtype=bool)
    adj[:m, m:] = M > 0
    adj[m:, :m] = (M > 0).T
    return adj


# ---------------------------------------------------------------------------
# small_mix: ~300 small CLI instances over eight families
# ---------------------------------------------------------------------------


def _small_linear(rng, n=None):
    n = n or int(rng.integers(3, 26))
    return _rounded(rng.uniform(0.1, 1.0, (n, n)))


def _small_item(k: int, family: str, rng) -> Item:
    linear_like = _analyze_expect([[1.0]])
    tol = 1e-10
    if family == "linear":
        M = _small_linear(rng)
        doc = {"map": {"family": "linear", "params": {"matrix": M.tolist()}}}
        expect = {"oracle": "eig", "ref": _rho(M), "cert": "jacobian_irreducible", "analyze": linear_like}
    elif family == "singular":
        m, n = (int(v) for v in rng.integers(2, 13, 2))
        M = _rounded(rng.uniform(0.1, 1.0, (m, n)))
        doc = {"map": {"family": "singular", "params": {"matrix": M.tolist()}}}
        sigma = float(np.linalg.svd(M, compute_uv=False)[0])
        expect = {"oracle": "svd", "ref": sigma, "cert": "jacobian_irreducible",
                  "analyze": _analyze_expect([[0.0, 1.0], [1.0, 0.0]])}
    elif family == "pq_singular":
        m, n = (int(v) for v in rng.integers(2, 13, 2))
        p, q = (float(v) for v in rng.choice([3.0, 4.0, 5.0], 2))
        M = _rounded(rng.uniform(0.1, 1.0, (m, n)))
        doc = {"map": {"family": "pq_singular", "params": {"matrix": M.tolist(), "p": p, "q": q}},
               "norms": [{"p": p}, {"p": q}]}
        A = [[0.0, 1.0 / (p - 1.0)], [1.0 / (q - 1.0), 0.0]]
        expect = {"oracle": "cw", "cert": "contraction", "analyze": _analyze_expect(A)}
    elif family == "tensor_eigen":
        n = int(rng.integers(2, 9))
        p = float(rng.choice([3.5, 4.0, 5.0]))
        T = _rounded(rng.uniform(0.1, 1.0, (n, n, n)))
        doc = {"map": {"family": "tensor_eigen", "params": {"tensor": T.tolist(), "p": p}}}
        expect = {"oracle": "cw", "cert": "contraction", "analyze": _analyze_expect([[2.0 / (p - 1.0)]])}
    elif family == "motivating":
        doc = {"map": {"family": "motivating"}, "solver": {"x0": "random", "seed": int(rng.integers(1 << 30))}}
        expect = {"oracle": "cw", "cert": "contraction",
                  "analyze": _analyze_expect([[0.0, 2.0], [0.125, 0.0]])}
    elif family == "irrex":
        doc = {"map": {"family": "irrex"}, "weights": [0.5, 0.5],
               "solver": {"x0": "random", "seed": int(rng.integers(1 << 30))}}
        expect = {"oracle": "cw", "cert": "dirr", "analyze": _analyze_expect([[0.5, 0.5], [0.0, 1.0]])}
    elif family == "dual":
        M = _small_linear(rng)
        doc = {"map": {"family": "dual", "params": {"base": {"family": "linear", "params": {"matrix": M.tolist()}}}}}
        expect = {"oracle": "cw", "cert": "jacobian_irreducible", "analyze": linear_like}
    elif family == "compose":
        M1 = _small_linear(rng)
        M2 = _small_linear(rng, M1.shape[0])
        doc = {"map": {"family": "compose", "params": {
            "outer": {"family": "linear", "params": {"matrix": M1.tolist()}},
            "inner": {"family": "linear", "params": {"matrix": M2.tolist()}}}}}
        expect = {"oracle": "cw", "cert": "jacobian_irreducible", "analyze": linear_like}
    else:
        raise ValueError(family)
    expect["tol"] = tol
    return Item(f"{family}-{k:03d}", _doc_text(doc), expect, third="analyze")


SMALL_FAMILIES = ("linear", "singular", "pq_singular", "tensor_eigen", "motivating", "irrex", "dual", "compose")


def small_mix(seed: int, count: int = 304) -> list[Item]:
    rng = np.random.default_rng([seed, 1])
    return [_small_item(k, SMALL_FAMILIES[k % len(SMALL_FAMILIES)], rng) for k in range(count)]


# ---------------------------------------------------------------------------
# large_sparse: a few sparse instances with N in the low hundreds
# ---------------------------------------------------------------------------


def _sparse_irreducible(rng, n: int, density: float) -> np.ndarray:
    """Sparse nonnegative matrix with a Hamiltonian cycle and a positive diagonal (primitive)."""
    M = rng.uniform(0.5, 1.5, (n, n)) * (rng.uniform(size=(n, n)) < density)
    perm = rng.permutation(n)
    M[perm, np.roll(perm, -1)] += rng.uniform(0.5, 1.5, n)
    M[np.arange(n), np.arange(n)] += 0.5
    return M


def _sparse_connected_rect(rng, m: int, n: int, density: float) -> np.ndarray:
    """Sparse nonnegative m x n matrix whose bipartite graph is connected."""
    M = rng.uniform(0.5, 1.5, (m, n)) * (rng.uniform(size=(m, n)) < density)
    for i in range(max(m, n)):
        M[i % m, i % n] += 1.0
        M[(i + 1) % m, i % n] += 1.0
    return M


def large_sparse(seed: int, n: int = 160) -> list[Item]:
    rng = np.random.default_rng([seed, 2])
    density = 4.0 / n
    items = []

    def add(name, family, M, expect, params=None, sizes=None):
        params = dict(params or {}, matrix=M.tolist())
        doc = {"map": {"family": family, "params": params}}
        adj = _linear_adj(M) if family == "linear" else _bipartite_adj(M)
        expect.update(tol=1e-10, graph=_graph_expect(adj, sizes or [M.shape[0]]))
        items.append(Item(name, _doc_text(doc), expect, third="graph"))

    M = _rounded(_sparse_irreducible(rng, n, density))
    add("linear-irreducible", "linear", M, {"oracle": "eig", "ref": _rho(M), "cert": "jacobian_irreducible"})

    # [[B1, C], [0, B2]] with rho(B2) > rho(B1): reducible, simple Perron root, positive eigenvector
    h = n // 2
    B1 = _sparse_irreducible(rng, h, 2 * density)
    B2 = _sparse_irreducible(rng, n - h, 2 * density)
    B2 *= 1.5 * _rho(B1) / _rho(B2)
    C = rng.uniform(0.5, 1.5, (h, n - h)) * (rng.uniform(size=(h, n - h)) < density)
    C[0, 0] += 1.0
    M = _rounded(np.block([[B1, C], [np.zeros((n - h, h)), B2]]))
    add("linear-reducible", "linear", M, {"oracle": "eig", "ref": _rho(M), "cert": "kernel_dim_one"})

    m, k = (3 * n) // 8, (5 * n) // 8
    M = _rounded(_sparse_connected_rect(rng, m, k, 2 * density))
    add("singular", "singular", M, {"oracle": "svd", "ref": float(np.linalg.svd(M, compute_uv=False)[0]),
                                    "cert": "jacobian_irreducible"}, sizes=[m, k])

    M = _rounded(_sparse_connected_rect(rng, m, k, 2 * density))
    add("pq_singular", "pq_singular", M, {"oracle": "cw", "cert": "contraction"},
        params={"p": 3.0, "q": 3.0}, sizes=[m, k])

    # four equal positive 4x4 blocks: a 4-dimensional Perron eigenspace, so the
    # certificate falls through the SVD test into the exhaustive summed-powers search
    B = _rounded(rng.uniform(0.1, 1.0, (4, 4)))
    M = np.kron(np.eye(4), B)
    add("linear-blockdiag", "linear", M, {"oracle": "eig", "ref": _rho(M), "cert": "none"})
    return items


# ---------------------------------------------------------------------------
# many_blocks: library API, a 60-block ring map
# ---------------------------------------------------------------------------

RING_BLOCKS, RING_SIZE, RING_EXPONENT = 60, 3, 0.95


def many_blocks(seed: int, count: int = 6) -> list[Item]:
    rng = np.random.default_rng([seed, 3])
    items = []
    for k in range(count):
        Ms = _rounded(np.eye(RING_SIZE) + 0.05 * rng.uniform(0.05, 1.0, (RING_BLOCKS, RING_SIZE, RING_SIZE)))
        doc = {"ring": {"exponent": RING_EXPONENT, "matrices": Ms.tolist()}}
        expect = {"oracle": "cw", "cert": "contraction", "tol": 1e-10}
        items.append(Item(f"ring-{k}", _doc_text(doc), expect))
    return items


def build_ring_map(doc: dict, mapmod, cones):
    """F_i(x) = (M_i x_{i+1})^a on 60 blocks, through the public MapInstance constructor."""
    Ms = np.array(doc["ring"]["matrices"], dtype=float)
    a = float(doc["ring"]["exponent"])
    d = Ms.shape[0]
    A = np.zeros((d, d))
    A[np.arange(d), (np.arange(d) + 1) % d] = a

    def ev(x):
        blocks = x.blocks
        return cones.ProductVector([(Ms[i] @ blocks[(i + 1) % d]) ** a for i in range(d)])

    return mapmod.MapInstance(
        shape=cones.ShapeSpec((Ms.shape[1],) * d), A=A, evaluator=ev, label=f"ring(d={d})"
    )


# ---------------------------------------------------------------------------
# continuation: CLI instances with method "continuation"
# ---------------------------------------------------------------------------


def continuation(seed: int) -> list[Item]:
    rng = np.random.default_rng([seed, 4])
    linear_like = _analyze_expect([[1.0]])

    def item(name, doc, expect):
        doc.setdefault("solver", {})["method"] = "continuation"
        expect.setdefault("tol", 1e-10)
        return Item(name, _doc_text(doc), expect, third="analyze")

    def random_start():
        # the seed moves the start vector only; the iteration counts do not follow it
        return {"x0": "random", "seed": int(rng.integers(1 << 30))}

    return [
        item("motivating", {"map": {"family": "motivating"}, "solver": random_start()},
             {"oracle": "extrapolated", "limit": MOTIVATING_R_B, "limit_tol": 1e-8, "cert": "contraction",
              "analyze": _analyze_expect([[0.0, 2.0], [0.125, 0.0]])}),
        # default DeltaSchedule and start vector: the inner solve at the
        # smallest shifts does not close its bracket within max_iter, and the
        # item is on the oracle's expected-failure list.  A converged answer
        # must reach the limit 1.
        item("defective-default", {"map": {"family": "linear", "params": {"matrix": DEFECTIVE}}},
             {"oracle": "extrapolated", "limit": 1.0, "limit_tol": 1e-3, "cert": "none", "analyze": linear_like}),
        item("defective-floor", {"map": {"family": "linear", "params": {"matrix": DEFECTIVE}},
                                 "solver": {**random_start(), "delta_schedule": {"floor": 9e-7}}},
             {"oracle": "extrapolated", "limit": 1.0, "limit_tol": 1e-3, "cert": "none", "analyze": linear_like}),
    ]


GENERATORS = {
    "small_mix": small_mix,
    "large_sparse": large_sparse,
    "many_blocks": many_blocks,
    "continuation": continuation,
}


def generate(workload: str, seed: int) -> list[Item]:
    return GENERATORS[workload](seed)


# ---------------------------------------------------------------------------
# timed steps
# ---------------------------------------------------------------------------


class Runner:
    """Runs one item's steps the way ``mhspectral solve`` / ``certify`` do.

    ``lib`` is the imported ``mhspectral`` package.  Module attributes are
    looked up at call time, so trace shims installed later are honoured.
    Each step returns ``(exit_code, output, seconds)``; the output is what the
    oracle later checks.  ``clock`` times the steps.
    """

    def __init__(self, lib, clock=time.perf_counter):
        self.lib = lib
        self.clock = clock
        self._maps = {}

    def prepare(self, item: Item):
        """Per-item state built outside the timed region (library items only)."""
        doc = json.loads(item.doc_text)
        if "ring" in doc and item.name not in self._maps:
            F = build_ring_map(doc, self.lib.maps, self.lib.cones)
            self._maps[item.name] = (F, self.lib.cones.NormSpec.euclidean(F.shape.d))
        return doc

    def library_map(self, item: Item):
        return self._maps[item.name]

    def solve(self, item: Item, doc: dict):
        if item.third is None:
            return self._lib_solve(item)
        cli = self.lib.cli
        t0 = self.clock()
        code, report = cli.run_solve(doc)
        text = cli.dump_json(report)
        return code, text, self.clock() - t0

    def certify(self, item: Item, doc: dict, solved):
        if item.third is None:
            return self._lib_certify(item, solved)
        cli = self.lib.cli
        t0 = self.clock()
        code, report = cli.run_certify(doc, json.loads(solved))
        text = cli.dump_json(report)
        return code, text, self.clock() - t0

    def third_step(self, item: Item, doc: dict):
        cli = self.lib.cli
        run = cli.run_analyze if item.third == "analyze" else cli.run_graph
        t0 = self.clock()
        code, report = run(doc)
        text = cli.dump_json(report)
        return code, text, self.clock() - t0

    def _lib_solve(self, item: Item):
        solver = self.lib.solver
        F, norms = self._maps[item.name]
        t0 = self.clock()
        rep = solver.power_method(F, None, solver.SolverConfig(norms=norms))
        cert = solver.certify_uniqueness(F, rep)
        dt = self.clock() - t0
        return (0 if rep.status == solver.CONVERGED else 3), (rep, cert), dt

    def _lib_certify(self, item: Item, solved):
        solver = self.lib.solver
        F, norms = self._maps[item.name]
        rep = solved[0]
        t0 = self.clock()
        cert = solver.certify_uniqueness(F, rep)
        res = solver.residual(F, rep.eigenpair.x, rep.eigenpair.lam, norms)
        return 0, (cert, res), self.clock() - t0
