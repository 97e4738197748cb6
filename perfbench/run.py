"""Benchmark of mhspectral: time to a certified eigenpair, end to end and per module.

Usage, from the repository root:

    python3 perfbench/run.py --workload small_mix --seed 1 --seconds 28 --trace 0

A run is a single-process closed loop: one client, and each item starts only
after the previous one finished.  The workload's fixed item list (see
``workloads.py``) is run pass after pass until ``--seconds`` have elapsed.
After each pass, outside the timed region, every item's outputs go through
the oracle (``oracle.py``).  In untraced passes, a reference kernel samples
the host's speed every 50 ms (``hostspeed.py``), and every time is put on
the scale of a host of fixed speed before the medians over passes are taken
(see ``end_to_end``); between passes, fresh interpreters measure the set-up
time.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes, wraps every public library function in a span
(``spans.py``) during the traced ones, prints the per-layer metrics with each
module's self-time share, and writes the spans to ``.bench_out/``.  The last
line of standard output is always one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS  # pinned before numpy is first imported

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("cones", "metrics", "maps", "homogeneity", "graphs", "solver", "cli")
WORKLOADS = ("small_mix", "large_sparse", "many_blocks", "continuation")  # workloads.GENERATORS
SETUP_PROBES = 8  # fresh-interpreter set-up probes per untraced run


def load_library():
    """Import mhspectral and its seven modules from the checkout's ``src``."""
    if not (SRC / "mhspectral" / "__init__.py").is_file():
        raise SystemExit(f"error: no mhspectral sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    lib = importlib.import_module("mhspectral")
    for name in MODULES:
        importlib.import_module(f"mhspectral.{name}")
    return lib


# ---------------------------------------------------------------------------
# machine information
# ---------------------------------------------------------------------------


def machine_info() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


# ---------------------------------------------------------------------------
# one item, one pass
# ---------------------------------------------------------------------------


class NoTrace:
    active = False
    item = -1

    def step(self, name):
        return contextlib.nullcontext()


def _run_steps(runner, tracer, item, docs, out, times):
    with tracer.step("solve"):
        code, result, times["solve"] = runner.solve(item, docs[0])
    out["solve"] = (code, result)
    if code != 0:
        return
    with tracer.step("certify"):
        code, result, times["certify"] = runner.certify(item, docs[1], result)
    out["certify"] = (code, result)
    if code != 0 or item.third is None:
        return
    with tracer.step(item.third):
        code, result, times["third"] = runner.third_step(item, docs[2])
    out["third"] = (code, result)


def run_item(runner, tracer, item, docs) -> tuple[dict, dict, dict]:
    """Run solve, certify and the third step.

    Returns the outputs, the seconds of each step (and of the whole item) and
    the instant in the middle of each.  An item stops at the first step that
    exits non-zero or raises; raising is recorded as the item's error, never
    propagated.
    """
    out = {"solve": None, "certify": None, "third": None, "error": None}
    times = {}
    start = runner.clock()
    try:
        _run_steps(runner, tracer, item, docs, out, times)
    except Exception as exc:  # a raising item is counted as failed, not fatal
        out["error"] = f"{item.name}: {type(exc).__name__}: {exc}"
    end = runner.clock()
    times["item"] = end - start
    mids = {"item": (start + end) / 2}
    for step in ("third", "certify", "solve"):  # each step ends where the next one starts, or sooner
        if step in times:
            mids[step] = end - times[step] / 2
            end -= times[step]
    return out, times, mids


def solve_facts(item, out) -> tuple[int, str]:
    """(iterations, status) of the item's solve, for the solver counters."""
    if out["solve"] is None:
        return 0, "error"
    result = out["solve"][1]
    if item.third is None:
        return result[0].iterations, result[0].status
    rep = json.loads(result)
    return rep["iterations"], rep["status"]


class Tally:
    def __init__(self):
        self.batch_s = {False: [], True: []}  # pass wall times, keyed by "traced"
        self.samples = {"solve": 0, "certify": 0}  # untraced step timings taken
        # item name -> (step seconds, step mid-instants) of each untraced run of the item
        self.timings: dict[str, list[tuple[dict, dict]]] = collections.defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0  # failed items that are not on the expected-failure list
        self.problems: list[str] = []  # the unexpected failures
        self.expected: collections.Counter = collections.Counter()  # item name -> expected failures
        self.iterations = 0
        self.wasted_iterations = 0
        self.item_runs = {False: 0, True: 0}


def run_pass(runner, oracle, tracer, items, tally: Tally, tamper=None):
    """One closed-loop pass over the item list, then the oracle checks."""
    docs = [[json.loads(it.doc_text) for _ in range(3)] for it in items]
    results = []
    traced = tracer.active
    start = time.perf_counter()
    for item, item_docs in zip(items, docs):
        tracer.item = tally.attempted + len(results)
        results.append(run_item(runner, tracer, item, item_docs))
    tally.batch_s[traced].append(time.perf_counter() - start)
    tracer.active = False
    for item, (out, times, mids) in zip(items, results):
        if tamper is not None:
            tamper(item, out)
        problems = oracle.check(item, out)
        unexpected = oracle.unexpected(problems)
        tally.attempted += 1
        tally.item_runs[traced] += 1
        tally.failed += bool(problems)
        tally.unexpected += bool(unexpected)
        tally.problems.extend(f"{item.name}: {p}" for p in unexpected)
        if problems and not unexpected:
            tally.expected[item.name] += 1
        if not traced:
            tally.timings[item.name].append((times, mids))
            for step in times:
                if step in tally.samples:
                    tally.samples[step] += 1
        iterations, status = solve_facts(item, out)
        tally.iterations += iterations
        if status == "max_iter":
            tally.wasted_iterations += iterations
    tracer.active = traced


# ---------------------------------------------------------------------------
# set-up time
# ---------------------------------------------------------------------------


def setup_probe(workload: str, seed: int) -> tuple[float, float]:
    """(import time of mhspectral, numpy included; host-scaled time of the warm-up item)."""
    t0 = time.perf_counter()
    lib = load_library()
    imported = time.perf_counter() - t0
    import workloads

    import hostspeed

    items = workloads.generate(workload, seed)
    host = hostspeed.HostSpeed()
    runner = workloads.Runner(lib, host.clock)
    docs = [runner.prepare(items[0]) for _ in range(3)]
    hostspeed.kernel()  # its first call pays one-time numpy set-up
    host.sample()  # samples on both sides of a warm-up too short to hold any
    with host.running():
        _, times, mids = run_item(runner, NoTrace(), items[0], docs)
    host.sample()
    return imported, times["item"] * float(host.scale(mids["item"], times["item"])[0])


def measure_setup(workload: str, seed: int) -> tuple[float, float]:
    """``setup_probe`` in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    imported, warm_up = proc.stdout.split()[-2:]
    return float(imported), float(warm_up)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def _pct(values, q):
    import numpy as np

    return float(np.percentile(values, q))


def item_medians(tally: Tally, host) -> list[dict]:
    """Per item and step, the median over untraced passes of the scaled time."""
    import numpy as np

    out = []
    for runs in tally.timings.values():
        steps = {step for times, _ in runs for step in times}
        out.append({})
        for step in steps:
            seconds, mids = zip(*((times[step], m[step]) for times, m in runs if step in times))
            out[-1][step] = float(np.median(np.multiply(seconds, host.scale(mids, seconds))))
    return out


def end_to_end(tally: Tally, setup: list[tuple[float, float]], host) -> dict:
    """End-to-end metrics from the medians over passes of host-scaled times.

    The host's speed drifts by up to 1.8x, in spells that can outlast a run,
    so every time is first scaled to a host of fixed speed (``hostspeed``).
    batch_s sums each item's median over the item list; the latency
    percentiles are taken over the items' medians, so their sample count is
    the item count.

    setup_s is the fastest import plus the fastest warm-up item over the
    run's probes: within one run the probes differ by up to 2x, and the
    median of their totals moved by 0.37 of itself between runs.  The
    warm-up item is scaled like the passes, in the probe's own process; the
    import is not: it reads files and faults in memory, and under load it
    slowed 2x while the kernel, timed in the probe or around it, slowed by a
    tenth.
    """
    med = item_medians(tally, host)
    solve = [1000.0 * m["solve"] for m in med if "solve" in m]
    certify = [1000.0 * m["certify"] for m in med if "certify" in m]
    return {
        "batch_s": (sum(m["item"] for m in med), "s"),
        "solve_ms_p50": (_pct(solve, 50), "ms"),
        "solve_ms_p90": (_pct(solve, 90), "ms"),
        "certify_ms_p50": (_pct(certify, 50), "ms"),
        "certify_ms_p90": (_pct(certify, 90), "ms"),
        "setup_s": (sum(min(part) for part in zip(*setup)), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


class Breakdown:
    """Span statistics of the traced passes, normalised per traced item."""

    def __init__(self, tracer, items: int):
        self.tracer = tracer
        self.stats = tracer.summarize()
        self.items = max(items, 1)
        self.total = self.incl(*(x for x in self.stats if x.startswith("bench.")))

    def _sum(self, col, names):
        return sum(self.stats[x][col] for x in names if x in self.stats)

    def calls(self, *names) -> float:
        return self._sum(0, names) / self.items

    def incl(self, *names) -> float:
        return self._sum(1, names)

    def self_s(self, *names) -> float:
        return self._sum(2, names)

    def module_self(self, mod) -> float:
        return self.self_s(*(x for x in self.stats if x.startswith(mod + ".")))

    def share(self, seconds) -> float:
        return seconds / self.total if self.total > 0 else 0.0

    def ms(self, seconds) -> float:
        return 1000.0 * seconds / self.items

    def iteration_s(self) -> float:
        """Time inside power_method except its homogeneity analysis (radius, weights)."""
        return self.tracer.self_under("solver.power_method", "homogeneity.")


def per_layer(b: Breakdown, tally: Tally) -> dict:
    sr = b.tracer.name_id("homogeneity.spectral_radius")
    distinct = {(item, key) for item, nid, key in b.tracer.keys if nid == sr}
    sr_calls = b.stats.get("homogeneity.spectral_radius", [0])[0]
    evaluate_s = b.incl("maps.evaluate")
    irreducible = ("homogeneity.is_irreducible", "homogeneity.is_primitive")
    closure = ("graphs.check_existence_condition", "graphs.is_strongly_connected")
    out = {
        "homogeneity.spectral_radius_calls": (b.calls("homogeneity.spectral_radius"), "count/item"),
        "homogeneity.spectral_radius_ms": (b.ms(b.incl("homogeneity.spectral_radius")), "ms/item"),
        "homogeneity.rho_unique_frac": (len(distinct) / max(sr_calls, 1), "frac"),
        "homogeneity.weights_ms": (
            b.ms(b.self_s("homogeneity.perron_weights", "homogeneity.contraction_weights")), "ms/item"),
        "homogeneity.irreducible_calls": (b.calls(*irreducible), "count/item"),
        "homogeneity.irreducible_ms": (b.ms(b.incl(*irreducible)), "ms/item"),
        "graphs.closure_calls": (b.calls(*closure), "count/item"),
        "graphs.closure_ms": (b.ms(b.incl(*closure)), "ms/item"),
        "graphs.build_ms": (b.ms(b.incl("graphs.build_graph", "graphs.build_dual_graph")), "ms/item"),
        "solver.find_dirr_ms": (b.ms(b.incl("solver.find_dirr")), "ms/item"),
        "solver.check_dirr_calls": (b.calls("solver.check_dirr"), "count/item"),
        "solver.certify_self_ms": (b.ms(b.self_s("solver.certify_uniqueness")), "ms/item"),
        "solver.power_method_self_ms": (b.ms(b.self_s("solver.power_method")), "ms/item"),
        "solver.overhead_per_eval": (b.self_s("solver.power_method") / evaluate_s if evaluate_s else 0.0, "ratio"),
        "solver.iteration_share": (b.share(b.iteration_s()), "frac"),
        "solver.iterations": (tally.iterations / max(tally.attempted, 1), "count/item"),
        "solver.wasted_iter_frac": (tally.wasted_iterations / max(tally.iterations, 1), "frac"),
        "solver.continuation_self_ms": (b.ms(b.self_s("solver.delta_continuation")), "ms/item"),
        "maps.evaluate_calls": (b.calls("maps.evaluate"), "count/item"),
        "maps.evaluate_ms": (b.ms(evaluate_s), "ms/item"),
        "maps.jacobian_ms": (b.ms(b.incl("maps.jacobian_at")), "ms/item"),
        "metrics.hilbert_calls": (b.calls("metrics.hilbert_metric"), "count/item"),
        "metrics.hilbert_ms": (b.ms(b.incl("metrics.hilbert_metric")), "ms/item"),
        "cli.parse_ms": (b.ms(b.incl("cli.parse_instance")), "ms/item"),
        "cli.dump_ms": (b.ms(b.incl("cli.dump_json")), "ms/item"),
        "cli.self_ms": (b.ms(b.module_self("cli")), "ms/item"),
    }
    for fn in ("block_norms", "scale_blocks", "normalize"):
        out[f"cones.{fn}_ms"] = (b.ms(b.incl(f"cones.{fn}")), "ms/item")
        out[f"cones.{fn}_calls"] = (b.calls(f"cones.{fn}"), "count/item")
    for mod in (*MODULES, "bench"):
        out[f"{mod}.self_share"] = (b.share(b.module_self(mod)), "frac")
    untraced, traced = tally.batch_s[False], tally.batch_s[True]
    out["bench.trace_overhead_s"] = (statistics.median(traced) - statistics.median(untraced), "s")
    return out


def _overhead_ratio(b: Breakdown) -> float:
    own = b.module_self("cones") + b.module_self("metrics") + b.self_s("solver.power_method")
    return own / max(b.incl("maps.evaluate"), 1e-12)


# The layer each workload was chosen to stress: (claim, measured value, holds).
PREDICTIONS = {
    "small_mix": lambda b: ("homogeneity has the largest module self share",
                            max(MODULES, key=b.module_self),
                            max(MODULES, key=b.module_self) == "homogeneity"),
    "large_sparse": lambda b: ("the power iteration is under 1% of traced time",
                               f"{b.share(b.iteration_s()):.2%}", b.share(b.iteration_s()) < 0.01),
    "many_blocks": lambda b: ("cones + metrics + power_method self time exceed maps.evaluate",
                              f"{_overhead_ratio(b):.2f}x evaluate", _overhead_ratio(b) > 1.0),
    "continuation": lambda b: ("the power-iteration path is most of traced time",
                               f"{b.share(b.iteration_s()):.2%}", b.share(b.iteration_s()) > 0.5),
}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=28.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        print("setup_probe {!r} {!r}".format(*setup_probe(args.workload, args.seed)))
        return 0
    lib = load_library()
    import spans
    import workloads
    from hostspeed import HostSpeed
    from oracle import Oracle

    info = machine_info()
    print("machine " + " ".join(f"{k}={v}" for k, v in info.items()))
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")

    items = workloads.generate(args.workload, args.seed)
    host = HostSpeed()
    runner = workloads.Runner(lib, host.clock)
    for it in items:
        runner.prepare(it)
    oracle = Oracle(lib, runner)
    run_item(runner, NoTrace(), items[0], [json.loads(items[0].doc_text) for _ in range(3)])  # warm-up

    tracer, tally, coverage = NoTrace(), Tally(), []
    if args.trace:
        tracer = spans.Tracer()
        shims = spans.Shims(tracer, lib)
        shims.install()
        coverage = spans.coverage_check(shims, lib.cli)
        for problem in coverage:
            print(f"TRACE COVERAGE FAILURE: {problem}")
    setup, probes = [], 0 if args.trace else SETUP_PROBES
    start = time.perf_counter()
    passes = 0
    while True:
        tracer.active = bool(args.trace) and passes % 2 == 1
        # traced runs report shares and counts of one run; they are not scaled
        with contextlib.nullcontext() if args.trace else host.running():
            run_pass(runner, oracle, tracer, items, tally)
        passes += 1
        # probe k is due k/probes of the way into the run, so that the probes
        # sample the host's speed over the whole run, as the passes do
        while len(setup) < probes and time.perf_counter() - start >= len(setup) * args.seconds / probes:
            setup.append(measure_setup(args.workload, args.seed))
        if time.perf_counter() - start >= args.seconds and len(setup) == probes and passes >= 1 + args.trace:
            break
    tracer.active = False

    for problem in tally.problems[:20]:
        print(f"ORACLE FAILURE: {problem}")
    for name, count in tally.expected.items():
        print(f"EXPECTED FAILURE: {name} failed {count} times: {oracle.EXPECTED_FAILURES[name]}")
    print(f"items attempted={tally.attempted} failed={tally.failed} "
          f"failed_frac={tally.failed / tally.attempted:.6g} unexpected={tally.unexpected} passes={passes}")
    if args.trace:
        breakdown = Breakdown(tracer, tally.item_runs[True])
        metrics = per_layer(breakdown, tally)
        out_file = ROOT / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.npz"
        tracer.write(out_file)
        print(f"spans={len(tracer)} written to {out_file.relative_to(ROOT)}")
        print("module self-time shares: " + "  ".join(
            f"{m}={metrics[f'{m}.self_share'][0]:.1%}" for m in (*MODULES, "bench")))
        claim, measured, holds = PREDICTIONS[args.workload](breakdown)
        print(f"prediction: {claim}: measured {measured} -> {'confirmed' if holds else 'refuted'}")
    else:
        metrics = end_to_end(tally, setup, host)
        speed = host.scale(host.at)
        print(f"host speed: {len(host.at)} samples, kernel median {statistics.median(host.seconds) * 1e6:.4g} us, "
              f"scale factors {speed.min():.3g} to {speed.max():.3g}, {host.spent:.3g} s spent sampling")
    items_with = {step: sum(any(step in t for _, t in runs) for runs in tally.timings.values())
                  for step in ("solve", "certify")}
    counts = {f"{step}_ms_{q}": f"n={items_with[step]} items, each the median of "
                                f"{tally.samples[step] / max(items_with[step], 1):.3g} samples"
              for step in ("solve", "certify") for q in ("p50", "p90")}
    counts.update(batch_s=f"passes={len(tally.batch_s[False])}, "
                          f"median unscaled pass={statistics.median(tally.batch_s[False]):.4g} s")
    if setup:
        counts["setup_s"] = (f"fastest import + fastest scaled warm-up of n={len(setup)} probes, "
                             f"median total={statistics.median(map(sum, setup)):.4g} s")
    for name, (value, unit) in metrics.items():
        extra = f"  ({counts[name]})" if name in counts else ""
        print(f"{name:40s} {value:.6g} {unit}{extra}")
    correct = tally.unexpected == 0 and not coverage
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
