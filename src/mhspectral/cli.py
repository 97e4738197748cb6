"""Batch command-line front end.

Reads JSON instance files describing a map family, per-block norms, weights,
and solver settings, then drives the analyze / solve / graph / certify
pipelines.  Reports are JSON documents with floats rendered at 17 significant
digits so identical instances and seeds reproduce byte-identical output.

Exit codes: 0 converged, 2 parse or precondition failure, 3 bracket not
closed within max_iter, 4 diverged.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import dataclasses
import logging
import math
import os
import sys

import numpy as np

from . import graphs as graphmod
from . import maps as mapmod
from . import solver as solvermod
from .cones import (
    NormSpec,
    ProductVector,
    ShapeSpec,
    _norm_kernel,
    _weighted_product,
    normalize,
    ones_vector,
    random_interior,
)
from .homogeneity import PerronStructureError, lipschitz_bound

__all__ = ["main", "parse_instance", "canonical_instance", "dump_json", "InstanceError"]

log = logging.getLogger("mhspectral")


class InstanceError(ValueError):
    """Instance file failed to parse; message carries the JSON path."""


def _fail(path: str, msg: str):
    raise InstanceError(f"{path}: {msg}")


def _get(doc: dict, key: str, path: str, default=None, required: bool = False):
    if key not in doc:
        if required:
            _fail(path, f"missing required field '{key}'")
        return default
    return doc[key]


# ---------------------------------------------------------------------------
# JSON writer with fixed float formatting
# ---------------------------------------------------------------------------


def _format_float(x: float) -> str:
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return format(x, ".17g")


# list items of exactly these types (so not bool) skip the recursive call
_INLINE = {float: _format_float, int: str}

# the %-format of a leaf of each plain type, for finite floats the same text
# as _format_float
_LEAF_FORMAT = {int: "%s", float: "%.17g"}


# one level of nesting in a report
_INDENT = "  "


def _zeros_like(x):
    return [_zeros_like(v) for v in x] if type(x) is list else 0


def _encode_plain_list(obj: list, level: int):
    """_encode of a non-empty list of equally nested lists of plain leaves, else None.

    The leaves must be all plain ints or all plain finite floats.  They are
    gathered level by level, checking that every item has the first item's
    nesting, and fill one %-template of the first item's layout per item, so
    the text is made without a call per value.  Any other list (a bool or
    numpy scalar, ints mixed with floats, a NaN or infinity, a tuple, or
    items of unequal shape) returns None and takes the general path.
    """
    leaf = obj
    while type(leaf) is list and leaf:
        leaf = leaf[0]
    kind = type(leaf)
    if kind not in _LEAF_FORMAT:
        return None
    values, first = obj, [obj[0]]
    while values and type(values[0]) is list:
        if not all(type(v) is list for v in values):
            return None
        if list(map(len, values)) != list(map(len, first)) * len(obj):
            return None
        values = [x for v in values for x in v]
        first = [x for v in first for x in v]
    if set(map(type, values)) != {kind}:
        return None
    # a sum is finite only if every term is (an overflow just takes the
    # general path)
    if kind is float and not math.isfinite(sum(values)):
        return None
    # the first item's layout, with a %-format in place of each of its leaves
    template = _encode(_zeros_like(obj[0]), level + 1).replace("0", _LEAF_FORMAT[kind])
    pad_in = _INDENT * (level + 1)
    return (
        "[\n" + pad_in + (",\n" + pad_in).join([template] * len(obj))
        + "\n" + _INDENT * level + "]"
    ) % tuple(values)


def _encode(obj, level: int) -> str:
    pad = _INDENT * level
    pad_in = _INDENT * (level + 1)
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _format_float(float(obj))
    if isinstance(obj, str):
        import json

        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{pad_in}"{k}": {_encode(v, level + 1)}' for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        # only a list opening with an int or a list can be a plain list; a
        # short flat float list is cheaper on the general path
        if type(obj) is list and type(obj[0]) in (int, list):
            text = _encode_plain_list(obj, level)
            if text is not None:
                return text
        # plain floats (bracket pairs, say) and ints (graph nodes) are
        # formatted in place, not through one more call each
        items = [
            pad_in + (_INLINE[type(v)](v) if type(v) in _INLINE else _encode(v, level + 1))
            for v in obj
        ]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def dump_json(obj) -> str:
    """Deterministic JSON text: insertion-ordered keys, 17-significant-digit floats.

    Each level of nesting is indented by two spaces.
    """
    return _encode(obj, 0) + "\n"


# ---------------------------------------------------------------------------
# instance parsing
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class Instance:
    map: mapmod.MapInstance
    config: solvermod.SolverConfig
    x0_spec: object  # "uniform" | "random" | list of blocks
    x0: ProductVector | None  # the checked, normalized explicit start
    seed: int
    method: str  # "power" | "continuation"
    doc: dict


def _parse_matrix(raw, path: str) -> np.ndarray:
    try:
        M = np.array(raw, dtype=float)
    except Exception:
        _fail(path, "expected a dense numeric matrix")
    if M.ndim != 2:
        _fail(path, "expected a matrix (list of rows)")
    return M


def _param(params, key: str, path: str):
    return _get(params, key, f"{path}.params", required=True)


def _matrix_param(params, key: str, path: str) -> np.ndarray:
    return _parse_matrix(_param(params, key, path), f"{path}.params")


def _number_param(params, key: str, path: str) -> float:  # the map checks its range
    return _number(_param(params, key, path), f"{path}.params.{key}", float, finite=False)


def _map_param(params, key: str, path: str, norms_hint) -> mapmod.MapInstance:
    return _build_map(_param(params, key, path), f"{path}.params.{key}", norms_hint)


def _weighted_sum(q, path, hint):
    left, right = _map_param(q, "left", path, hint), _map_param(q, "right", path, hint)
    norms = _build_norms(hint, left.shape, f"{path} (norms)")
    return mapmod.weighted_sum(left, right, _matrix_param(q, "d_matrix", path), norms)


def _shifted(q, path, hint):
    base = _map_param(q, "base", path, hint)
    norms = _build_norms(hint, base.shape, f"{path} (norms)")
    return mapmod.shifted(base, _number_param(q, "delta", path), norms)


# family -> builder(params, JSON path of the map, norms hint), in documented order
_FAMILIES = {
    "linear": lambda q, path, hint: mapmod.linear_map(_matrix_param(q, "matrix", path)),
    "singular": lambda q, path, hint: mapmod.singular_map(_matrix_param(q, "matrix", path)),
    "pq_singular": lambda q, path, hint: mapmod.pq_singular_map(
        _matrix_param(q, "matrix", path), _number_param(q, "p", path), _number_param(q, "q", path)
    ),
    "tensor_eigen": lambda q, path, hint: mapmod.tensor_eigen_map(
        np.array(_param(q, "tensor", path), dtype=float), _number_param(q, "p", path)
    ),
    "max_example": lambda q, path, hint: mapmod.max_example_map(_number_param(q, "eps", path)),
    "motivating": lambda q, path, hint: mapmod.motivating_map(),
    "nonirr": lambda q, path, hint: mapmod.nonirr_map(),
    "irrex": lambda q, path, hint: mapmod.irrex_map(),
    "tight": lambda q, path, hint: mapmod.tight_map(
        _matrix_param(q, "exponents", path), _sizes(_param(q, "sizes", path), f"{path}.params.sizes")
    ),
    "compose": lambda q, path, hint: mapmod.compose(
        _map_param(q, "outer", path, hint), _map_param(q, "inner", path, hint)
    ),
    "hadamard": lambda q, path, hint: mapmod.hadamard(
        _map_param(q, "left", path, hint), _map_param(q, "right", path, hint)
    ),
    "weighted_sum": _weighted_sum,
    "shifted": _shifted,
    "dual": lambda q, path, hint: mapmod.dual(_map_param(q, "base", path, hint)),
}


def _build_map(doc, path: str, norms_hint) -> mapmod.MapInstance:
    if not isinstance(doc, dict):
        _fail(path, "map spec must be an object")
    family = _get(doc, "family", path, required=True)
    params = _get(doc, "params", path, default={})
    # a non-string family (say a list) is unknown, not a TypeError of the lookup
    build = _FAMILIES.get(family) if isinstance(family, str) else None
    if build is None:
        _fail(path, f"unknown family '{family}'; expected one of {tuple(_FAMILIES)}")
    try:
        return build(params, path, norms_hint)
    except InstanceError:
        raise
    except (ValueError, TypeError) as exc:
        _fail(f"{path}.params", str(exc))


def _build_norms(raw, shape: ShapeSpec, path: str) -> NormSpec:
    if raw is None:
        return NormSpec.euclidean(shape.d)
    if not isinstance(raw, list) or len(raw) != shape.d:
        _fail(path, f"norms must list one selector per block (d={shape.d})")
    selectors = []
    for i, sel in enumerate(raw):
        if not isinstance(sel, dict):
            _fail(f"{path}[{i}]", "selector must be an object with 'p' or 'phi'")
        if "p" not in sel and "phi" not in sel:
            _fail(f"{path}[{i}]", "selector needs 'p' or 'phi'")
        if "p" in sel:
            pval = sel["p"]
            selectors.append(math.inf if pval in ("inf", "Infinity")
                             else _number(pval, f"{path}[{i}].p", float, finite=False))
            continue
        phi = sel["phi"]
        if not _numeric(phi):
            _fail(f"{path}[{i}].phi", f"expected a list of numbers, got {phi!r}")
        try:
            selectors.append(np.array(phi, dtype=float))
        except (TypeError, ValueError) as exc:
            _fail(f"{path}[{i}]", f"selector is not numeric ({exc})")
    try:
        return NormSpec(selectors)
    except ValueError as exc:
        _fail(path, str(exc))


def _number(raw, path: str, kind, finite: bool = True):
    """A JSON number (not a bool), finite unless finite is False, integral for kind int; else fails at path."""
    if type(raw) is not bool and isinstance(raw, solvermod._REAL):
        if kind is int and isinstance(raw, solvermod._INTEGRAL):
            return int(raw)
        try:
            value = float(raw)
        except OverflowError:  # an int beyond the double range
            value = math.inf
        if (math.isfinite(value) or not finite) and (kind is float or value.is_integer()):
            return kind(value)
    _fail(path, f"expected a finite {'number' if kind is float else 'integer'}, got {raw!r}")


def _setting(doc, key: str, path: str, default, kind):
    """The setting key of doc as a _number, failing at its JSON path."""
    return _number(_get(doc, key, path, default=default), f"{path}.{key}", kind)


def _sizes(raw, path: str) -> tuple:
    """A list of block sizes, each an integral _number; anything else fails at path."""
    if not isinstance(raw, list):
        _fail(path, f"expected a list of integers, got {raw!r}")
    return tuple(_number(n, path, int) for n in raw)


def _numeric(raw) -> bool:
    """No JSON boolean or string at any leaf of nested lists: numpy would read "1" or true as a number."""
    if isinstance(raw, list):
        return all(_numeric(v) for v in raw)
    return not isinstance(raw, (bool, str))


def parse_instance(doc: dict) -> Instance:
    if not isinstance(doc, dict):
        raise InstanceError("$: instance must be a JSON object")
    raw_norms = _get(doc, "norms", "$")
    F = _build_map(_get(doc, "map", "$", required=True), "$.map", raw_norms)
    shape_doc = _get(doc, "shape", "$")
    if shape_doc is not None:
        if not isinstance(shape_doc, dict):
            _fail("$.shape", "shape must be an object")
        sizes = _sizes(_get(shape_doc, "sizes", "$.shape", required=True), "$.shape.sizes")
        if sizes != F.shape.sizes:
            _fail("$.shape", f"declared sizes {sizes} disagree with the map's {F.shape.sizes}")
    norms = _build_norms(raw_norms, F.shape, "$.norms")
    try:
        _norm_kernel(F.shape, norms)  # each phi against its block's size
    except ValueError as exc:
        _fail("$.norms", str(exc))

    raw_w, weights = _get(doc, "weights", "$", default="auto"), None
    if raw_w != "auto":
        if not isinstance(raw_w, list) or not _numeric(raw_w):
            _fail("$.weights", "weights must be 'auto' or a list of numbers, one per block")
        try:  # the config's own check, here to keep the document's order of errors
            weights = solvermod.SolverConfig(norms, weights=raw_w).weights
        except (TypeError, ValueError) as exc:
            _fail("$.weights", str(exc))

    sol = _get(doc, "solver", "$", default={})
    if not isinstance(sol, dict):
        _fail("$.solver", "solver settings must be an object")
    tol = _setting(sol, "tol", "$.solver", 1e-10, float)
    max_iter = _setting(sol, "max_iter", "$.solver", 10_000, int)
    seed = _setting(sol, "seed", "$.solver", 0, int)
    if seed < 0:
        _fail("$.solver.seed", f"seed must be nonnegative, got {seed}")
    method = _get(sol, "method", "$.solver", default="power")
    if method not in ("power", "continuation"):
        _fail("$.solver.method", "method must be 'power' or 'continuation'")
    x0_spec, x0 = _get(sol, "x0", "$.solver", default="uniform"), None
    if isinstance(x0_spec, str):
        if x0_spec not in ("uniform", "random"):
            _fail("$.solver.x0", "x0 must be 'uniform', 'random', or explicit blocks")
    else:
        try:
            x0 = ProductVector(x0_spec)
        except (TypeError, ValueError, OverflowError):
            x0 = None
        if x0 is None or not _numeric(x0_spec):
            _fail("$.solver.x0", "x0 must be 'uniform', 'random', or explicit blocks of numbers")
        try:
            x0 = solvermod._checked_start(x0, F.shape, norms)
        except ValueError as exc:
            _fail("$.solver.x0", str(exc))
    sched_doc = _get(sol, "delta_schedule", "$.solver", default={})
    if not isinstance(sched_doc, dict):
        _fail("$.solver.delta_schedule", "delta schedule must be an object")
    # parsed before the try, so a setting's own error keeps its path
    values = [_setting(sched_doc, key, "$.solver.delta_schedule", default, float)
              for key, default in (("delta0", 1.0), ("factor", 0.5), ("floor", 1e-8))]
    try:
        schedule = solvermod.DeltaSchedule(*values)
    except ValueError as exc:
        _fail("$.solver.delta_schedule", str(exc))
    try:
        config = solvermod.SolverConfig(norms, tol, max_iter, weights, schedule)
    except ValueError as exc:
        _fail("$.solver", str(exc))
    return Instance(map=F, config=config, x0_spec=x0_spec, x0=x0, seed=seed, method=method, doc=doc)


def canonical_instance(inst: Instance) -> dict:
    """Schema-ordered instance document with defaults made explicit."""
    doc, config = inst.doc, inst.config
    norm_doc = []
    for kind, val in config.norms.selectors:
        if kind == "p":
            norm_doc.append({"p": "inf" if val == math.inf else val})
        else:
            norm_doc.append({"phi": list(val)})
    return {
        "shape": {"sizes": list(inst.map.shape.sizes)},
        "map": doc["map"],
        "norms": norm_doc,
        "weights": "auto" if config.weights is None else list(config.weights),
        "solver": {
            "tol": config.tol,
            "max_iter": config.max_iter,
            "seed": inst.seed,
            "method": inst.method,
            "x0": inst.x0_spec,
            "delta_schedule": dataclasses.asdict(config.delta_schedule),
        },
    }


def _start_vector(inst: Instance) -> ProductVector:
    """The parsed explicit x0, or a uniform or seeded random start, built only when a solve needs it."""
    if inst.x0 is not None:
        return inst.x0
    shape, norms = inst.map.shape, inst.config.norms
    if inst.x0_spec == "uniform":
        return normalize(ones_vector(shape), norms)
    return normalize(random_interior(shape, np.random.default_rng(inst.seed)), norms)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def run_analyze(doc: dict) -> tuple[int, dict]:
    inst = parse_instance(doc)
    A, analysis = inst.map.A, inst.map.analysis
    notes = []
    weights = inst.config.weights
    if weights is None:
        weights, reason = analysis.auto_weights
        if reason is not None:
            notes.append(reason)
    if analysis.regime == "expansive":
        notes.append("solve refused in the expansive regime unless weights are explicit")
    if not inst.map.homogeneity_exact:
        notes.append("declared homogeneity matrix holds only under uniform block scaling")
    report = {
        "label": inst.map.label,
        "A": A.tolist(),
        "rho": analysis.rho,
        "regime": analysis.regime,
        "weights": None if weights is None else weights.tolist(),
        "lipschitz_bound": None if weights is None else lipschitz_bound(A, weights),
        "A_irreducible": analysis.irreducible,
        "A_primitive": analysis.primitive,
        "notes": notes,
    }
    return 0, report


def _certificate_doc(cert: solvermod.Certificate | None) -> dict | None:
    if cert is None:
        return None
    return {"kind": cert.kind, "data": dict(cert.data)}


def _status_exit(status: str) -> int:
    return {solvermod.CONVERGED: 0, solvermod.MAX_ITER: 3}.get(status, 4)


def run_solve(doc: dict) -> tuple[int, dict]:
    inst = parse_instance(doc)
    log.info("solving %s (method=%s, tol=%g)", inst.map.label, inst.method, inst.config.tol)
    try:
        if inst.method == "continuation":
            rep = solvermod.delta_continuation(inst.map, inst.config)
        else:
            rep = solvermod.power_method(inst.map, _start_vector(inst), inst.config)
    except (solvermod.ExpansiveMapError, PerronStructureError, ValueError) as exc:
        raise InstanceError(f"solver hypothesis failed: {exc}") from exc
    log.info("%s: %s after %d iterations", inst.map.label, rep.status, rep.iterations)
    if log.isEnabledFor(logging.DEBUG):
        for k, (lo, hi) in enumerate(rep.bracket_trace):
            log.debug("iter %d bracket [%.17g, %.17g]", k, lo, hi)
    cert = None
    if rep.eigenpair is not None and rep.status == solvermod.CONVERGED:
        cert = solvermod.certify_uniqueness(inst.map, rep)
    report = {
        "label": inst.map.label,
        "status": rep.status,
        "iterations": rep.iterations,
        "eigenvector": None
        if rep.eigenpair is None
        else [blk.tolist() for blk in rep.eigenpair.x.blocks],
        "lambda": None if rep.eigenpair is None else rep.eigenpair.lam.tolist(),
        "r_b": None if rep.eigenpair is None else rep.eigenpair.r_b,
        "weights": rep.weights.tolist(),
        "residual": rep.residual,
        "rate_bound": rep.rate_bound,
        "bracket_trace": [[lo, hi] for lo, hi in rep.bracket_trace],
        "certificate": _certificate_doc(cert),
        "messages": rep.messages,
    }
    if rep.delta_trace is not None:
        report["delta_trace"] = [[d, r] for d, r in rep.delta_trace]
        report["r_extrapolated"] = rep.r_extrapolated
    return _status_exit(rep.status), report


def run_graph(doc: dict, dual: bool = False) -> tuple[int, dict]:
    inst = parse_instance(doc)
    try:
        g = graphmod.build_dual_graph(inst.map) if dual else graphmod.build_graph(inst.map)
    except ValueError as exc:
        raise InstanceError(f"graph probe failed: {exc}") from exc
    nodes = g.nodes()
    report = {
        "label": inst.map.label,
        "dual": dual,
        "mode": g.mode,
        # row-major over block-major node indices: the sorted edge order
        "edges": [[list(nodes[a]), list(nodes[b])] for a, b in np.argwhere(g.pattern).tolist()],
        "strongly_connected": graphmod.is_strongly_connected(g),
        "existence_condition": graphmod.check_existence_condition(g),
    }
    return 0, report


def _finite_nonneg(v: np.ndarray) -> bool:
    # a NaN fails the comparison; on the short vectors of a report this
    # Python pass is cheaper than two numpy reductions
    return all(0.0 <= t < math.inf for t in v.tolist())


def _report_vector(raw, n: int, path: str) -> np.ndarray:
    """n finite nonnegative numbers of a solve report; anything else fails at its JSON path."""
    try:
        v = np.array(raw, dtype=float)
    except (TypeError, ValueError, OverflowError):
        v = None
    if v is None or v.shape != (n,) or not _finite_nonneg(v):
        _fail(path, f"expected a list of {n} finite nonnegative numbers")
    return v


def _parse_report(report, F: mapmod.MapInstance):
    """Eigenvector, eigenvalues and weights of a solve report, checked against the map F."""
    if not isinstance(report, dict):
        _fail("$report", "solve report must be a JSON object")
    ev, lam = report.get("eigenvector"), report.get("lambda")
    if ev is None or lam is None:
        _fail("$report", "solve report carries no eigenpair")
    sizes = F.shape.sizes
    try:
        x = ProductVector(ev) if isinstance(ev, list) else None
    except (TypeError, ValueError, OverflowError):
        x = None
    if x is None or x.shape.sizes != sizes or not _finite_nonneg(x.flat):
        _fail("$report.eigenvector", f"expected blocks of {list(sizes)} finite nonnegative numbers")
    if F.domain == "interior" and not x.is_pos():
        _fail("$report.eigenvector", f"{F.label} is only defined on strictly positive vectors")
    d = len(sizes)
    lam = _report_vector(lam, d, "$report.lambda")
    raw_w = report.get("weights")
    if raw_w is None:
        return x, lam, np.full(d, 1.0 / d)
    b = _report_vector(raw_w, d, "$report.weights")
    if not min(b.tolist()) > 0.0:
        _fail("$report.weights", "weights must be strictly positive")
    return x, lam, b


def run_certify(doc: dict, solve_report) -> tuple[int, dict]:
    inst = parse_instance(doc)
    x, lam, b = _parse_report(solve_report, inst.map)
    r_b = _weighted_product(lam, b)
    pair = mapmod.EigenPair(x, lam, r_b)
    pseudo = solvermod.SolveReport(
        eigenpair=pair,
        status=solvermod.CONVERGED,
        iterations=0,
        bracket_trace=[],
        weights=b,
    )
    cert = solvermod.certify_uniqueness(inst.map, pseudo)
    report = {
        "label": inst.map.label,
        "certificate": _certificate_doc(cert),
        "residual": solvermod.residual(inst.map, x, lam, inst.config.norms),
    }
    if not x.is_pos():
        # boundary eigenvector: compare its eigenvalue product against an
        # interior solve, the maximality inequality of the summed-powers test
        maximality = {"boundary_product": r_b}
        try:
            interior = solvermod.power_method(inst.map, _start_vector(inst), inst.config)
            if interior.status == solvermod.CONVERGED and interior.eigenpair.x.is_pos():
                maximality["interior_product"] = interior.eigenpair.r_b
                maximality["strictly_smaller"] = bool(r_b < interior.eigenpair.r_b)
        except (ValueError, PerronStructureError):
            maximality["interior_product"] = None
        report["maximality"] = maximality
    return 0, report


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


def _load_json(path: str):
    import json

    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise InstanceError(f"{path}: {exc}") from exc


def _run_one(args_tuple):
    command, doc, dual = args_tuple
    if command == "analyze":
        return run_analyze(doc)
    if command == "solve":
        return run_solve(doc)
    if command == "graph":
        return run_graph(doc, dual)
    raise AssertionError(command)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mhspectral",
        description="Eigenpairs and spectral radii of order-preserving "
        "multi-homogeneous mappings on product cones",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("analyze", "solve", "graph", "certify"):
        sp = sub.add_parser(name)
        sp.add_argument("instance", help="instance JSON file (or batch list)")
        sp.add_argument("--out", default=None, help="write the JSON report here")
        sp.add_argument("--seed", type=int, default=None, help="override the instance seed (nonnegative)")
        sp.add_argument("--jobs", type=int, default=1, help="parallel workers for batch files (at least 1)")
        if name == "graph":
            sp.add_argument("--dual", action="store_true", help="build the vanishing-limit graph")
        if name == "certify":
            sp.add_argument("report", help="solve report JSON produced by 'solve --out'")
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error(f"--jobs must be at least 1, got {args.jobs}")
    if args.seed is not None and args.seed < 0:
        parser.error(f"--seed must be nonnegative, got {args.seed}")

    level = {"error": logging.ERROR, "info": logging.INFO, "trace": logging.DEBUG}.get(
        os.environ.get("MHSPECTRAL_LOG", "error"), logging.ERROR
    )
    logging.basicConfig(level=level, format="%(name)s %(levelname)s %(message)s")

    try:
        doc = _load_json(args.instance)
        if args.seed is not None:
            docs = doc if isinstance(doc, list) else [doc]
            for d in docs:
                # a malformed document is left for parse_instance to refuse
                sol = d.setdefault("solver", {}) if isinstance(d, dict) else None
                if isinstance(sol, dict):
                    sol["seed"] = args.seed
        if args.command == "certify":
            if isinstance(doc, list):
                raise InstanceError("certify does not accept batch instance files")
            code, report = run_certify(doc, _load_json(args.report))
        elif isinstance(doc, list):
            tasks = [(args.command, d, getattr(args, "dual", False)) for d in doc]
            # the pool starts all its workers at once, so no more than there are documents
            workers = min(args.jobs, len(tasks))
            if workers > 1:
                with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
                    results = list(pool.map(_run_one, tasks))
            else:
                results = [_run_one(t) for t in tasks]
            code = max((c for c, _ in results), default=0)
            report = [r for _, r in results]
        else:
            code, report = _run_one((args.command, doc, getattr(args, "dual", False)))
    except InstanceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    text = dump_json(report)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    if args.command == "graph" and not isinstance(report, list):
        for (k, l), (i, j) in [((e[0][0], e[0][1]), (e[1][0], e[1][1])) for e in report["edges"]]:
            print(f"{k},{l} -> {i},{j}")
        print(f"strongly_connected: {str(report['strongly_connected']).lower()}")
        print(f"existence_condition: {str(report['existence_condition']).lower()}")
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
