"""How long the benchmark's passes take, and how many of them take a host-speed sample.

Usage, from the repository root:

    python3 tools/pass_lengths.py [CHECKOUT] --workload large_sparse [--seed 1] [--passes 100]

CHECKOUT (default: this repository) is a checkout holding ``perfbench/`` and
``src/mhspectral``.  Its ``perfbench/run.py`` is imported, and so is the
``mhspectral`` under its ``src``, the way ``perfbench/run.py`` loads them; the
tool only calls ``perfbench/`` and never edits it.  Set up as
``perfbench/run.py`` sets up an untraced run (the workload's items, their
prepared state, the oracle and one warm-up item), it times ``--passes`` calls
of ``run.run_pass``: the documents' loads, every item's steps and the oracle
checks, each call inside ``HostSpeed.running()`` as a pass of the benchmark
runs.

``HostSpeed.running()`` arms a timer of ``hostspeed.GAP_S`` seconds at each
pass, so only a pass at least that long takes a host-speed sample, and a run
whose passes all end sooner has no sample to scale its times by: it stops
before its result line.  The output gives the min, median and max pass length,
the share of passes of at least ``GAP_S``, and the samples that the passes
took.  A pass's length leaves out the time its samples took, as
``HostSpeed.clock`` does, so a pass takes a sample when that length reaches
``GAP_S``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_run(checkout: Path):
    """The checkout's ``perfbench/run.py`` as a module, with its directory on the path for its own imports."""
    bench = checkout / "perfbench"
    if not (bench / "run.py").is_file():
        raise SystemExit(f"error: no perfbench/run.py under {checkout}")
    sys.path.insert(0, str(bench))
    spec = importlib.util.spec_from_file_location("run", bench / "run.py")
    run = importlib.util.module_from_spec(spec)
    sys.modules["run"] = run
    spec.loader.exec_module(run)  # pins the BLAS threads before numpy loads
    return run


def pass_lengths(run, workload: str, seed: int, passes: int) -> tuple[list[float], int]:
    """The seconds of each of ``passes`` passes, less the time spent sampling, and the host-speed samples they took."""
    lib = run.load_library()
    import hostspeed
    import workloads
    from oracle import Oracle

    items = workloads.generate(workload, seed)
    host = hostspeed.HostSpeed()
    runner = workloads.Runner(lib, host.clock)
    for item in items:
        runner.prepare(item)
    oracle = Oracle(lib, runner)
    run.run_item(runner, run.NoTrace(), items[0], [json.loads(items[0].doc_text) for _ in range(3)])  # warm-up
    tracer, tally, seconds = run.NoTrace(), run.Tally(), []
    for _ in range(passes):
        with host.running():
            start = host.clock()
            run.run_pass(runner, oracle, tracer, items, tally)
            seconds.append(host.clock() - start)
    if tally.unexpected:
        raise SystemExit(f"error: {tally.unexpected} unexpected oracle failures: {tally.problems[:3]}")
    return seconds, len(host.at)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", nargs="?", default=str(ROOT))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--passes", type=int, default=100)
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error(f"--passes must be at least 1, got {args.passes}")
    checkout = Path(args.checkout).resolve()
    run = load_run(checkout)
    if args.workload not in run.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(run.WORKLOADS)}, got {args.workload}")
    import hostspeed

    seconds, samples = pass_lengths(run, args.workload, args.seed, args.passes)
    gap = hostspeed.GAP_S
    long_ = sum(s >= gap for s in seconds)
    ms = [1e3 * s for s in seconds]
    print(f"{checkout}: {args.workload} seed {args.seed}, {len(seconds)} passes")
    print(f"pass ms: min {min(ms):.1f}, median {statistics.median(ms):.1f}, max {max(ms):.1f}")
    print(f"passes of at least GAP_S = {1e3 * gap:g} ms: {long_} of {len(seconds)} ({long_ / len(seconds):.0%}); "
          f"host-speed samples taken: {samples}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
