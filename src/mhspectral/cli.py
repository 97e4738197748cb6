"""Batch command-line front end.

Reads JSON instance files describing a map family, per-block norms, weights,
and solver settings, then drives the analyze / solve / graph / certify
pipelines.  Reports are JSON documents with floats rendered at 17 significant
digits so identical instances and seeds reproduce byte-identical output.

Exit codes: 0 success (including bracket_converged_cycling), 2 parse or
precondition failure, 3 bracket not closed within max_iter, 4 diverged.
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
from .cones import NormSpec, ProductVector, ShapeSpec, normalize, ones_vector, random_interior
from .homogeneity import PerronStructureError, is_irreducible, is_primitive, lipschitz_bound

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


def _zeros_like(x):
    return [_zeros_like(v) for v in x] if type(x) is list else 0


def _encode_plain_list(obj: list, indent: int, level: int):
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
    template = _encode(_zeros_like(obj[0]), indent, level + 1).replace("0", _LEAF_FORMAT[kind])
    pad_in = " " * (indent * (level + 1))
    return (
        "[\n" + pad_in + (",\n" + pad_in).join([template] * len(obj))
        + "\n" + " " * (indent * level) + "]"
    ) % tuple(values)


def _encode(obj, indent: int, level: int) -> str:
    pad = " " * (indent * level)
    pad_in = " " * (indent * (level + 1))
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
            f'{pad_in}"{k}": {_encode(v, indent, level + 1)}' for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        # only a list opening with an int or a list can be a plain list; a
        # short flat float list is cheaper on the general path
        if type(obj) is list and type(obj[0]) in (int, list):
            text = _encode_plain_list(obj, indent, level)
            if text is not None:
                return text
        # plain floats (bracket pairs, say) and ints (graph nodes) are
        # formatted in place, not through one more call each
        items = [
            pad_in + (_INLINE[type(v)](v) if type(v) in _INLINE else _encode(v, indent, level + 1))
            for v in obj
        ]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def dump_json(obj, indent: int = 2) -> str:
    """Deterministic JSON text: insertion-ordered keys, 17-significant-digit floats."""
    return _encode(obj, indent, 0) + "\n"


# ---------------------------------------------------------------------------
# instance parsing
# ---------------------------------------------------------------------------


@dataclasses.dataclass
class Instance:
    map: mapmod.MapInstance
    norms: NormSpec
    weights: np.ndarray | None
    x0_spec: object  # "uniform" | "random" | list of blocks
    seed: int
    tol: float
    max_iter: int
    method: str  # "power" | "continuation"
    delta_schedule: solvermod.DeltaSchedule
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


def _map_param(params, key: str, path: str, norms_hint) -> mapmod.MapInstance:
    return _build_map(_param(params, key, path), f"{path}.params.{key}", norms_hint)


def _weighted_sum(q, path, hint):
    left, right = _map_param(q, "left", path, hint), _map_param(q, "right", path, hint)
    norms = _build_norms(hint, left.shape, f"{path} (norms)")
    return mapmod.weighted_sum(left, right, _matrix_param(q, "d_matrix", path), norms)


def _shifted(q, path, hint):
    base = _map_param(q, "base", path, hint)
    norms = _build_norms(hint, base.shape, f"{path} (norms)")
    return mapmod.shifted(base, float(_param(q, "delta", path)), norms)


# family -> builder(params, JSON path of the map, norms hint), in documented order
_FAMILIES = {
    "linear": lambda q, path, hint: mapmod.linear_map(_matrix_param(q, "matrix", path)),
    "singular": lambda q, path, hint: mapmod.singular_map(_matrix_param(q, "matrix", path)),
    "pq_singular": lambda q, path, hint: mapmod.pq_singular_map(
        _matrix_param(q, "matrix", path), float(_param(q, "p", path)), float(_param(q, "q", path))
    ),
    "tensor_eigen": lambda q, path, hint: mapmod.tensor_eigen_map(
        np.array(_param(q, "tensor", path), dtype=float), float(_param(q, "p", path))
    ),
    "max_example": lambda q, path, hint: mapmod.max_example_map(float(_param(q, "eps", path))),
    "motivating": lambda q, path, hint: mapmod.motivating_map(),
    "nonirr": lambda q, path, hint: mapmod.nonirr_map(),
    "irrex": lambda q, path, hint: mapmod.irrex_map(),
    "tight": lambda q, path, hint: mapmod.tight_map(
        _matrix_param(q, "exponents", path), [int(n) for n in _param(q, "sizes", path)]
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
        if "p" in sel:
            pval = sel["p"]
            selectors.append(math.inf if pval in ("inf", "Infinity") else float(pval))
        elif "phi" in sel:
            selectors.append(np.array(sel["phi"], dtype=float))
        else:
            _fail(f"{path}[{i}]", "selector needs 'p' or 'phi'")
    try:
        return NormSpec(selectors)
    except ValueError as exc:
        _fail(path, str(exc))


def parse_instance(doc: dict) -> Instance:
    if not isinstance(doc, dict):
        raise InstanceError("$: instance must be a JSON object")
    raw_norms = _get(doc, "norms", "$")
    F = _build_map(_get(doc, "map", "$", required=True), "$.map", raw_norms)
    shape_doc = _get(doc, "shape", "$")
    if shape_doc is not None:
        sizes = tuple(int(n) for n in _get(shape_doc, "sizes", "$.shape", required=True))
        if sizes != F.shape.sizes:
            _fail("$.shape", f"declared sizes {sizes} disagree with the map's {F.shape.sizes}")
    norms = _build_norms(raw_norms, F.shape, "$.norms")

    raw_w = _get(doc, "weights", "$", default="auto")
    if raw_w == "auto":
        weights = None
    else:
        weights = np.array(raw_w, dtype=float)
        if weights.shape != (F.shape.d,) or np.any(weights <= 0.0):
            _fail("$.weights", "explicit weights must be a strictly positive d-vector")

    sol = _get(doc, "solver", "$", default={})
    tol = float(_get(sol, "tol", "$.solver", default=1e-10))
    max_iter = int(_get(sol, "max_iter", "$.solver", default=10_000))
    seed = int(_get(sol, "seed", "$.solver", default=0))
    method = _get(sol, "method", "$.solver", default="power")
    if method not in ("power", "continuation"):
        _fail("$.solver.method", "method must be 'power' or 'continuation'")
    x0_spec = _get(sol, "x0", "$.solver", default="uniform")
    if isinstance(x0_spec, str):
        if x0_spec not in ("uniform", "random"):
            _fail("$.solver.x0", "x0 must be 'uniform', 'random', or explicit blocks")
    sched_doc = _get(sol, "delta_schedule", "$.solver", default={})
    schedule = solvermod.DeltaSchedule(
        delta0=float(_get(sched_doc, "delta0", "$.solver.delta_schedule", default=1.0)),
        factor=float(_get(sched_doc, "factor", "$.solver.delta_schedule", default=0.5)),
        floor=float(_get(sched_doc, "floor", "$.solver.delta_schedule", default=1e-8)),
    )
    if tol <= 0 or max_iter < 1:
        _fail("$.solver", "tol must be positive and max_iter >= 1")
    return Instance(
        map=F,
        norms=norms,
        weights=weights,
        x0_spec=x0_spec,
        seed=seed,
        tol=tol,
        max_iter=max_iter,
        method=method,
        delta_schedule=schedule,
        doc=doc,
    )


def canonical_instance(inst: Instance) -> dict:
    """Schema-ordered instance document with defaults made explicit."""
    doc = inst.doc
    norm_doc = []
    for kind, val in inst.norms.selectors:
        if kind == "p":
            norm_doc.append({"p": "inf" if val == math.inf else val})
        else:
            norm_doc.append({"phi": list(val)})
    out = {
        "shape": {"sizes": list(inst.map.shape.sizes)},
        "map": doc["map"],
        "norms": norm_doc,
        "weights": "auto" if inst.weights is None else list(inst.weights),
        "solver": {
            "tol": inst.tol,
            "max_iter": inst.max_iter,
            "seed": inst.seed,
            "method": inst.method,
            "x0": inst.x0_spec,
            "delta_schedule": {
                "delta0": inst.delta_schedule.delta0,
                "factor": inst.delta_schedule.factor,
                "floor": inst.delta_schedule.floor,
            },
        },
    }
    return out


def _start_vector(inst: Instance) -> ProductVector:
    if isinstance(inst.x0_spec, str):
        if inst.x0_spec == "uniform":
            return normalize(ones_vector(inst.map.shape), inst.norms)
        rng = np.random.default_rng(inst.seed)
        return normalize(random_interior(inst.map.shape, rng), inst.norms)
    try:
        return normalize(ProductVector(inst.x0_spec), inst.norms)
    except ValueError as exc:
        raise InstanceError(f"$.solver.x0: {exc}") from exc


def _solver_config(inst: Instance, keep_iterates: bool = False) -> solvermod.SolverConfig:
    return solvermod.SolverConfig(
        norms=inst.norms,
        tol=inst.tol,
        max_iter=inst.max_iter,
        weights=inst.weights,
        delta_schedule=inst.delta_schedule,
        keep_iterates=keep_iterates,
    )


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def run_analyze(doc: dict) -> tuple[int, dict]:
    inst = parse_instance(doc)
    A, analysis = inst.map.A, inst.map.analysis
    notes = []
    weights = inst.weights
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
        "weights": None if weights is None else list(weights),
        "lipschitz_bound": None if weights is None else lipschitz_bound(A, weights),
        "A_irreducible": is_irreducible(A),
        "A_primitive": is_primitive(A),
        "notes": notes,
    }
    return 0, report


def _certificate_doc(cert: solvermod.Certificate | None) -> dict | None:
    if cert is None:
        return None
    data = {}
    for k, v in cert.data.items():
        data[k] = float(v) if isinstance(v, (np.floating,)) else v
    return {"kind": cert.kind, "data": data}


def _status_exit(status: str) -> int:
    if status in (solvermod.CONVERGED, solvermod.BRACKET_CONVERGED_CYCLING):
        return 0
    if status == solvermod.MAX_ITER:
        return 3
    return 4


def run_solve(doc: dict) -> tuple[int, dict]:
    inst = parse_instance(doc)
    cfg = _solver_config(inst)
    x0 = _start_vector(inst)
    log.info("solving %s (method=%s, tol=%g)", inst.map.label, inst.method, inst.tol)
    try:
        if inst.method == "continuation":
            rep = solvermod.delta_continuation(inst.map, cfg)
        else:
            rep = solvermod.power_method(inst.map, x0, cfg)
    except (solvermod.ExpansiveMapError, PerronStructureError, ValueError) as exc:
        raise InstanceError(f"solver hypothesis failed: {exc}") from exc
    log.info("%s: %s after %d iterations", inst.map.label, rep.status, rep.iterations)
    if log.isEnabledFor(logging.DEBUG):
        for k, (lo, hi) in enumerate(rep.bracket_trace):
            log.debug("iter %d bracket [%.17g, %.17g]", k, lo, hi)
    cert = None
    if rep.eigenpair is not None and rep.status in (
        solvermod.CONVERGED,
        solvermod.BRACKET_CONVERGED_CYCLING,
    ):
        cert = solvermod.certify_uniqueness(inst.map, rep)
    report = {
        "label": inst.map.label,
        "status": rep.status,
        "iterations": rep.iterations,
        "eigenvector": None
        if rep.eigenpair is None
        else [list(blk) for blk in rep.eigenpair.x.blocks],
        "lambda": None if rep.eigenpair is None else list(rep.eigenpair.lam),
        "r_b": None if rep.eigenpair is None else rep.eigenpair.r_b,
        "weights": list(rep.weights),
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
    g = (
        graphmod.build_dual_graph(inst.map)
        if dual
        else graphmod.build_graph(inst.map)
    )
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


def run_certify(doc: dict, solve_report: dict) -> tuple[int, dict]:
    inst = parse_instance(doc)
    ev = solve_report.get("eigenvector")
    lam = solve_report.get("lambda")
    if ev is None or lam is None:
        raise InstanceError("$report: solve report carries no eigenpair")
    x = ProductVector(ev)
    lam = np.array(lam, dtype=float)
    raw_w = solve_report.get("weights")
    if raw_w is None:
        raw_w = np.full(inst.map.shape.d, 1.0 / inst.map.shape.d)
    b = np.array(raw_w, dtype=float)
    r_b = float(np.exp(np.dot(b, np.log(np.maximum(lam, 1e-300)))))
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
        "residual": solvermod.residual(inst.map, x, lam, inst.norms),
    }
    if not x.is_pos():
        # boundary eigenvector: compare its eigenvalue product against an
        # interior solve, the maximality inequality of the summed-powers test
        maximality = {"boundary_product": r_b}
        try:
            interior = solvermod.power_method(inst.map, _start_vector(inst), _solver_config(inst))
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
    except (OSError, json.JSONDecodeError) as exc:
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
        sp.add_argument("--seed", type=int, default=None, help="override the instance seed")
        sp.add_argument("--jobs", type=int, default=1, help="parallel workers for batch files")
        if name == "graph":
            sp.add_argument("--dual", action="store_true", help="build the vanishing-limit graph")
        if name == "certify":
            sp.add_argument("report", help="solve report JSON produced by 'solve --out'")
    args = parser.parse_args(argv)

    level = {"error": logging.ERROR, "info": logging.INFO, "trace": logging.DEBUG}.get(
        os.environ.get("MHSPECTRAL_LOG", "error"), logging.ERROR
    )
    logging.basicConfig(level=level, format="%(name)s %(levelname)s %(message)s")

    try:
        doc = _load_json(args.instance)
        if args.seed is not None:
            docs = doc if isinstance(doc, list) else [doc]
            for d in docs:
                d.setdefault("solver", {})["seed"] = args.seed
        if args.command == "certify":
            if isinstance(doc, list):
                raise InstanceError("certify does not accept batch instance files")
            code, report = run_certify(doc, _load_json(args.report))
        elif isinstance(doc, list):
            tasks = [(args.command, d, getattr(args, "dual", False)) for d in doc]
            if args.jobs > 1:
                with concurrent.futures.ProcessPoolExecutor(max_workers=args.jobs) as pool:
                    results = list(pool.map(_run_one, tasks))
            else:
                results = [_run_one(t) for t in tasks]
            code = max(c for c, _ in results)
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
