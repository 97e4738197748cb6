"""In-process A/B timing of the solver of two checkouts, item by item.

Usage, from the repository root:

    python3 tools/ab_solver.py PARENT CHANGE [--workload continuation] [--seed 1]
                               [--rounds 9] [--min-ms 20] [--items NAME,...]

PARENT and CHANGE are checkouts, each holding ``src/mhspectral``.  Both
packages are copied into one temporary directory under their own names,
``mhspectral_a`` and ``mhspectral_b``, and imported side by side into this
process, so both sides share one interpreter, one heap and one CPU state.
On a small shared host, separate processes swing by tens of percent from
run to run; interleaving the two sides in one process cancels most of that.

The items are those of ``perfbench/workloads.py`` for the workload and seed.
Each side parses an item's document with its own ``cli.parse_instance``,
outside the timed region, and the timed call is the one ``run_solve`` makes:
``delta_continuation`` for a continuation document, else ``power_method``
from the document's start vector; a ``many_blocks`` item times
``power_method`` of its ring map from the all-ones start.  An item whose
solve raises is left out.  One warm-up call per side fills the caches a
benchmark pass also fills.

A round times every item once per side, repeating the call until at least
``--min-ms`` have passed and taking the mean; the side that goes first
alternates from round to round.  Per item, the output lists the median over
rounds of each side in ms, the change's difference relative to the parent,
the rounds the change won (faster), and whether the two sides' reports
differ (status, iterations, bracket trace or eigenvector, bit for bit).
The closing lines sum the medians per map family.
"""

from __future__ import annotations

import argparse
import collections
import importlib
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # as the benchmark pins it

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import numpy as np  # noqa: E402

import workloads  # noqa: E402

SIDES = ("a", "b")


def stage(checkouts: list[str], tmp: str) -> list:
    """Each checkout's package, copied to ``tmp`` as ``mhspectral_<side>`` and imported."""
    sys.path.insert(0, tmp)
    libs = []
    for side, checkout in zip(SIDES, checkouts):
        src = Path(checkout) / "src" / "mhspectral"
        if not (src / "__init__.py").is_file():
            raise SystemExit(f"error: no mhspectral sources under {checkout}/src")
        shutil.copytree(src, Path(tmp) / f"mhspectral_{side}", ignore=shutil.ignore_patterns("__pycache__"))
        lib = importlib.import_module(f"mhspectral_{side}")
        for name in ("cones", "maps", "solver", "cli"):
            importlib.import_module(f"mhspectral_{side}.{name}")
        libs.append(lib)
    return libs


def family(item) -> str:
    doc = json.loads(item.doc_text)
    return doc["map"]["family"] if "map" in doc else "ring"


def solve_call(lib, item):
    """The solve of item under lib, as a function of no arguments."""
    doc = json.loads(item.doc_text)
    solver = lib.solver
    if "ring" in doc:
        F = workloads.build_ring_map(doc, lib.maps, lib.cones)
        cfg = solver.SolverConfig(norms=lib.cones.NormSpec.euclidean(F.shape.d))
        return lambda: solver.power_method(F, None, cfg)
    inst = lib.cli.parse_instance(doc)
    if inst.method == "continuation":
        return lambda: solver.delta_continuation(inst.map, inst.config)
    x0 = lib.cli._start_vector(inst)
    return lambda: solver.power_method(inst.map, x0, inst.config)


def fingerprint(rep) -> tuple:
    x = None if rep.eigenpair is None else rep.eigenpair.x.flat.tobytes()
    return rep.status, rep.iterations, np.asarray(rep.bracket_trace, dtype=float).tobytes(), x


def per_call_ms(call, min_s: float) -> float:
    count, t0 = 0, time.perf_counter()
    while True:
        call()
        count += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= min_s:
            return 1e3 * elapsed / count


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", default="continuation", choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=9)
    parser.add_argument("--min-ms", type=float, default=20.0)
    parser.add_argument("--items", default="", help="comma-separated item names (default: all)")
    args = parser.parse_args(argv)
    items = workloads.generate(args.workload, args.seed)
    if args.items:
        wanted = set(args.items.split(","))
        items = [item for item in items if item.name in wanted]
    with tempfile.TemporaryDirectory() as tmp:
        libs = stage([args.parent, args.change], tmp)
        calls, differs = {}, {}
        for item in items:
            try:
                pair = [solve_call(lib, item) for lib in libs]
                reports = [call() for call in pair]  # the warm-up
            except Exception as exc:  # an item the solver refuses is left out
                print(f"{item.name}: left out ({type(exc).__name__}: {exc})", file=sys.stderr)
                continue
            calls[item.name] = pair
            differs[item.name] = fingerprint(reports[0]) != fingerprint(reports[1])
        times = {name: ([], []) for name in calls}
        for r in range(args.rounds):
            order = (0, 1) if r % 2 == 0 else (1, 0)
            for name, pair in calls.items():
                for side in order:
                    times[name][side].append(per_call_ms(pair[side], args.min_ms / 1e3))
    by_name = {item.name: item for item in items}
    totals = collections.defaultdict(lambda: [0.0, 0.0])
    print(f"{args.workload} seed {args.seed}, {args.rounds} rounds, parent {args.parent}, change {args.change}")
    print(f"{'item':32s} {'parent ms':>10s} {'change ms':>10s} {'change':>8s} {'wins':>6s}  reports")
    for name, (a, b) in times.items():
        ma, mb = statistics.median(a), statistics.median(b)
        wins = sum(tb < ta for ta, tb in zip(a, b))
        totals[family(by_name[name])][0] += ma
        totals[family(by_name[name])][1] += mb
        same = "differ" if differs[name] else "same"
        print(f"{name:32s} {ma:10.3f} {mb:10.3f} {100 * (mb / ma - 1):+7.1f}% {wins:3d}/{len(a):<2d}  {same}")
    for fam, (ma, mb) in sorted(totals.items()):
        print(f"family {fam:25s} {ma:10.3f} {mb:10.3f} {100 * (mb / ma - 1):+7.1f}%")
    return 1 if any(differs.values()) else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
