"""In-process A/B timing of two checkouts, item by item.

Usage, from the repository root:

    python3 tools/ab_solver.py PARENT CHANGE [--workload continuation] [--seed 1]
                               [--rounds 10] [--min-ms 20] [--items NAME,...] [--steps]

PARENT and CHANGE are checkouts, each holding ``src/mhspectral``.  Both
packages are copied into one temporary directory under the slot names
``mhspectral_a`` and ``mhspectral_b`` and imported side by side into one
process, so both sides share one interpreter, one heap and one CPU state.
On a small shared host, separate processes swing by tens of percent from
run to run; interleaving the two sides in one process cancels most of that.

The slot a package is imported under biases its time by a few percent (the
one imported second has read 2-9% faster).  So the rounds run in two
halves, each in a fresh interpreter: the first imports the parent as
``mhspectral_a`` and the change as ``mhspectral_b``, the second the other
way round.  Each half gets half of ``--rounds`` (the first the odd one out).

The items are those of ``perfbench/workloads.py`` for the workload and seed.
By default the timed call is the one ``run_solve`` makes: each side parses
an item's document with its own ``cli.parse_instance``, outside the timed
region, and times ``delta_continuation`` for a continuation document, else
``power_method`` from the document's start vector; a ``many_blocks`` item
times ``power_method`` of its ring map from the all-ones start.  With
``--steps`` the timed calls are the benchmark's steps, made by
``workloads.Runner`` as ``perfbench/run.py`` makes them: ``solve``
(``run_solve`` and ``dump_json``), ``certify`` (``json.loads`` of the solve
output, ``run_certify`` and ``dump_json``) and the item's third step
(``run_analyze`` or ``run_graph``, and ``dump_json``); a library item's
steps are the Runner's library solve and certificate.  An item whose solve
raises is left out.  One warm-up call per side fills the caches a benchmark
pass also fills.

A round times every call once per side, repeating it until at least
``--min-ms`` have passed and taking the mean.  The side that goes first
alternates from round to round, over both halves, so each side goes first
in half of the rounds when ``--rounds`` is even (the one that goes second
has read a few percent faster).  Per call, the output lists the median over
all rounds of each side in ms, the change's difference relative to the
parent, the rounds the change won (faster), the change's difference in each
half on its own, and whether the two sides' outputs differ (status,
iterations, bracket trace or eigenvector bit for bit; with ``--steps``, the
step's report text).  The closing lines sum the medians per map family (and
step), for all rounds and for each half.
"""

from __future__ import annotations

import argparse
import collections
import concurrent.futures
import importlib
import json
import multiprocessing
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

SLOTS = ("a", "b")


def stage(checkouts: list[str], tmp: str) -> list:
    """Each checkout's package, copied to ``tmp`` as ``mhspectral_<slot>`` in slot order and imported."""
    sys.path.insert(0, tmp)
    libs = []
    for slot, checkout in zip(SLOTS, checkouts):
        src = Path(checkout) / "src" / "mhspectral"
        if not (src / "__init__.py").is_file():
            raise SystemExit(f"error: no mhspectral sources under {checkout}/src")
        shutil.copytree(src, Path(tmp) / f"mhspectral_{slot}", ignore=shutil.ignore_patterns("__pycache__"))
        lib = importlib.import_module(f"mhspectral_{slot}")
        for name in ("cones", "maps", "solver", "cli"):
            importlib.import_module(f"mhspectral_{slot}.{name}")
        libs.append(lib)
    return libs


def family(item) -> str:
    doc = json.loads(item.doc_text)
    return doc["map"]["family"] if "map" in doc else "ring"


def fingerprint(rep) -> tuple:
    x = None if rep.eigenpair is None else rep.eigenpair.x.flat.tobytes()
    return rep.status, rep.iterations, np.asarray(rep.bracket_trace, dtype=float).tobytes(), x


def solve_calls(lib, item) -> dict:
    """{"solve": the solve of item under lib, as a function of no arguments}."""
    doc = json.loads(item.doc_text)
    solver = lib.solver
    if "ring" in doc:
        F = workloads.build_ring_map(doc, lib.maps, lib.cones)
        cfg = solver.SolverConfig(norms=lib.cones.NormSpec.euclidean(F.shape.d))
        return {"solve": lambda: solver.power_method(F, None, cfg)}
    inst = lib.cli.parse_instance(doc)
    if inst.method == "continuation":
        return {"solve": lambda: solver.delta_continuation(inst.map, inst.config)}
    x0 = lib.cli._start_vector(inst)
    return {"solve": lambda: solver.power_method(inst.map, x0, inst.config)}


def step_output(result) -> tuple:
    """A ``workloads.Runner`` step's output in a comparable form: a CLI report's text, or a library result's fields."""
    code, out, _ = result
    if isinstance(out, str):
        return code, out
    return code, tuple(fingerprint(o) if hasattr(o, "eigenpair") else repr(o) for o in out)


def step_calls(lib, item) -> dict:
    """{step: that benchmark step of item under lib, as a function of no arguments}.

    The certify step reads the solve output of this side, made here once.
    """
    runner = workloads.Runner(lib)
    docs = [runner.prepare(item) for _ in range(3)]
    code, solved, _ = runner.solve(item, docs[0])
    calls = {"solve": lambda: runner.solve(item, docs[0])}
    if code != 0:
        return calls
    calls["certify"] = lambda: runner.certify(item, docs[1], solved)
    if item.third is not None:
        calls[item.third] = lambda: runner.third_step(item, docs[2])
    return calls


def per_call_ms(call, min_s: float) -> float:
    count, t0 = 0, time.perf_counter()
    while True:
        call()
        count += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= min_s:
            return 1e3 * elapsed / count


def run_half(checkouts: list[str], items: list, steps: bool, rounds: range, min_s: float, swapped: bool):
    """Times of one half, in this process: {(item, step): ([parent ms], [change ms])}, and the calls whose outputs differ.

    ``swapped`` imports the change in slot a and the parent in slot b.
    ``rounds`` numbers the half's rounds among all: the parent goes first in
    the even ones.
    """
    make, digest = (step_calls, step_output) if steps else (solve_calls, fingerprint)
    with tempfile.TemporaryDirectory() as tmp:
        libs = stage(checkouts[::-1] if swapped else checkouts, tmp)
        if swapped:
            libs.reverse()  # parent first again
        calls, differs = {}, set()
        for item in items:
            try:
                pair = [make(lib, item) for lib in libs]
                for step in pair[0]:
                    outputs = [digest(side[step]()) for side in pair]  # the warm-up
                    calls[item.name, step] = [side[step] for side in pair]
                    if outputs[0] != outputs[1]:
                        differs.add((item.name, step))
            except Exception as exc:  # an item the solver refuses is left out
                print(f"{item.name}: left out ({type(exc).__name__}: {exc})", file=sys.stderr)
        times = {key: ([], []) for key in calls}
        for r in rounds:
            order = (0, 1) if r % 2 == 0 else (1, 0)
            for key, pair in calls.items():
                for side in order:
                    times[key][side].append(per_call_ms(pair[side], min_s))
    return times, differs


def _pct(a: float, b: float) -> str:
    return f"{100 * (b / a - 1):+7.1f}%"


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", default="continuation", choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=10, help="rounds over both halves (at least 2)")
    parser.add_argument("--min-ms", type=float, default=20.0)
    parser.add_argument("--items", default="", help="comma-separated item names (default: all)")
    parser.add_argument("--steps", action="store_true", help="time the benchmark's solve, certify and third steps")
    args = parser.parse_args(argv)
    if args.rounds < 2:
        parser.error(f"--rounds must be at least 2, one per half, got {args.rounds}")
    items = workloads.generate(args.workload, args.seed)
    if args.items:
        wanted = set(args.items.split(","))
        items = [item for item in items if item.name in wanted]
    checkouts = [args.parent, args.change]
    halves, first = [], (args.rounds + 1) // 2
    for swapped, rounds in ((False, range(first)), (True, range(first, args.rounds))):
        # a fresh interpreter per half, so each imports its two packages into empty slots
        with concurrent.futures.ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("spawn")) as pool:
            job = pool.submit(run_half, checkouts, items, args.steps, rounds, args.min_ms / 1e3, swapped)
            halves.append(job.result())
    differs = halves[0][1] | halves[1][1]
    keys = [key for key in halves[0][0] if key in halves[1][0]]
    by_name = {item.name: item for item in items}
    totals = collections.defaultdict(lambda: [0.0] * 6)  # all rounds, then each half: parent, change
    print(
        f"{args.workload} seed {args.seed}, {args.rounds} rounds in two halves (parent in slot a, then change), "
        f"parent {args.parent}, change {args.change}"
    )
    print(f"{'item':32s} {'step':9s} {'parent ms':>10s} {'change ms':>10s} {'change':>8s} {'wins':>6s} "
          f"{'half 1':>8s} {'half 2':>8s}  outputs")
    for key in keys:
        name, step = key
        a = halves[0][0][key][0] + halves[1][0][key][0]
        b = halves[0][0][key][1] + halves[1][0][key][1]
        medians = [statistics.median(a), statistics.median(b)]
        for times, _ in halves:
            medians += [statistics.median(times[key][0]), statistics.median(times[key][1])]
        total = totals[family(by_name[name]), step]
        for i, m in enumerate(medians):
            total[i] += m
        wins = sum(tb < ta for ta, tb in zip(a, b))
        same = "differ" if key in differs else "same"
        print(f"{name:32s} {step:9s} {medians[0]:10.3f} {medians[1]:10.3f} {_pct(*medians[:2])} "
              f"{wins:3d}/{len(a):<2d} {_pct(*medians[2:4])} {_pct(*medians[4:])}  {same}")
    for (fam, step), m in sorted(totals.items()):
        print(f"family {fam:25s} {step:9s} {m[0]:10.3f} {m[1]:10.3f} {_pct(*m[:2])} "
              f"{'':6s} {_pct(*m[2:4])} {_pct(*m[4:])}")
    return 1 if differs else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
