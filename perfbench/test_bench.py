"""Checks of the benchmark itself: oracle, determinism and trace coverage.

Run from the repository root with ``python3 -m pytest perfbench/test_bench.py``.
"""

import json

import pytest

import hostspeed
import run
import spans
import workloads
from oracle import Oracle

LIB = run.load_library()


def _pass(items, tamper=None):
    runner = workloads.Runner(LIB)
    for it in items:
        runner.prepare(it)
    tally = run.Tally()
    run.run_pass(runner, Oracle(LIB, runner), run.NoTrace(), items, tally, tamper)
    return tally


def _edit(out, step, edit):
    code, text = out[step]
    report = json.loads(text)
    edit(report)
    out[step] = (code, LIB.cli.dump_json(report))


def test_clean_pass_has_no_failures():
    tally = _pass(workloads.generate("small_mix", 0)[:16])
    assert (tally.attempted, tally.failed) == (16, 0)


def test_perturbed_r_b_and_wrong_certificate_count_as_failed():
    items = workloads.generate("small_mix", 0)[:8]  # one item of each family
    families = [it.name.split("-")[0] for it in items]
    assert families[:3] == ["linear", "singular", "pq_singular"]

    def tamper(item, out):
        if item.name.startswith(("linear", "pq_singular")):  # eig and cw oracles
            _edit(out, "solve", lambda r: r.update(r_b=r["r_b"] * (1 + 1e-6)))
        if item.name.startswith("singular"):
            _edit(out, "certify", lambda r: r["certificate"].update(kind="none"))

    tally = _pass(items, tamper)
    assert (tally.attempted, tally.failed, tally.unexpected) == (8, 3, 3)
    assert tally.failed / tally.attempted == pytest.approx(3 / 8)
    assert any("eig reference" in p for p in tally.problems)
    assert any("do not bracket" in p for p in tally.problems)
    assert any("certify exit 0 kind 'none'" in p for p in tally.problems)


def test_default_schedule_continuation_counts_as_expected_failure():
    item = next(it for it in workloads.generate("continuation", 0) if it.name == "defective-default")
    tally = _pass([item])
    assert (tally.attempted, tally.failed, tally.unexpected) == (1, 1, 0)
    assert tally.expected == {"defective-default": 1} and tally.problems == []

    # any other report from the same item is an unexpected failure
    tally = _pass([item], lambda it, out: _edit(out, "solve", lambda r: r.update(status="diverged")))
    assert (tally.attempted, tally.failed, tally.unexpected) == (1, 1, 1)


def test_raising_item_is_counted_not_skipped():
    items = workloads.generate("small_mix", 0)[:2]
    items[1] = workloads.Item("broken", json.dumps({"map": {"family": "nope"}}), items[1].expect, "analyze")
    tally = _pass(items)
    assert (tally.attempted, tally.failed) == (2, 1)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_same_seed_regenerates_byte_identical_documents(workload):
    first = [it.doc_text.encode() for it in workloads.generate(workload, 11)]
    again = [it.doc_text.encode() for it in workloads.generate(workload, 11)]
    other = [it.doc_text.encode() for it in workloads.generate(workload, 12)]
    assert first == again
    assert first != other


def test_shims_cover_every_binding_and_count_evaluate_calls():
    shims = spans.Shims(spans.Tracer(), LIB)
    shims.install()
    try:
        assert spans.coverage_check(shims, LIB.cli) == []
        # undo one from-import binding: the scan and the independent count both notice
        original = shims.original("maps.evaluate")
        wrapped, LIB.solver.evaluate = LIB.solver.evaluate, original
        try:
            problems = spans.coverage_check(shims, LIB.cli)
        finally:
            LIB.solver.evaluate = wrapped
        assert "unshimmed binding mhspectral.solver.evaluate" in problems
        assert any("profiler counted" in p for p in problems)
    finally:
        shims.uninstall()
    assert shims.misses() and LIB.solver.evaluate is shims.original("maps.evaluate")


def test_host_speed_scales_times_by_the_kernel_time_over_each_step():
    host = hostspeed.HostSpeed()
    ref = hostspeed.REF_SECONDS
    # samples every 0.1 s, twice as slow from t=1 on, one outlier at t=0.5
    host.at = [0.1 * k for k in range(20)]
    host.seconds = [ref] * 10 + [2 * ref] * 10
    host.seconds[5] = 9 * ref
    # a short step takes the smoothed kernel time interpolated at its middle;
    # the rolling median drops the outlier
    assert host.scale([0.2, 0.5, 0.95, 1.5]) == pytest.approx([1.0, 1.0, 1 / 1.5, 0.5])
    # a step that holds three samples or more takes their median
    assert host.scale([0.5, 1.45], [0.45, 0.9]) == pytest.approx([1.0, 0.5])
    # past the last sample, the kernel time is the last sample's
    assert host.scale([5.0]) == pytest.approx([0.5])
    host.sample()
    assert len(host.seconds) == 21 and host.seconds[-1] > 0
