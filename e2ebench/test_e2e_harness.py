"""Unit tests of the end-to-end benchmark harness (no simulation runs).

Run with the rest of the suite: ``PYTHONPATH=src python -m pytest -q``.
"""

from __future__ import annotations

import os
import shutil
import statistics

import pytest

import e2e
import e2e_child
from e2e_trace import Recorder, load_spans, rebind, self_times


def test_quartiles_match_statistics_module():
    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0]
    q1, median, q3 = e2e.quartiles(values)
    assert [q1, median, q3] == statistics.quantiles(values, n=4)
    assert median == statistics.median(values)
    assert e2e.spread(values) == pytest.approx((q3 - q1) / median)
    assert e2e.quartiles([2.5]) == (2.5, 2.5, 2.5)
    assert e2e.spread([2.5]) == 0.0


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] > a [1, 4] > a1 [2, 3];  root > b [5, 9]
    parents = [-1, 0, 1, 0]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    assert self_times(parents, starts, ends) == [3.0, 2.0, 1.0, 4.0]


def test_recorder_links_nested_wrapped_calls():
    recorder = Recorder()
    inner = recorder.timed("inner", lambda: None)
    outer = recorder.timed("outer", lambda: [inner(), inner()])
    root = recorder.begin("root")
    outer()
    recorder.end(root)
    names = [recorder.names[nid] for nid in recorder.name_ids]
    assert names == ["root", "outer", "inner", "inner"]
    assert list(recorder.parents) == [-1, 0, 1, 1]
    summary = recorder.summary()
    assert summary["inner"]["calls"] == 2
    total = sum(entry["self_s"] for entry in summary.values())
    assert total == pytest.approx(summary["root"]["total_s"])
    recorder.disable()
    outer()
    assert len(recorder.starts) == 4


def test_saved_spans_load_back(tmp_path):
    recorder = Recorder()
    root = recorder.begin("root")
    recorder.timed("leaf", lambda: None)()
    recorder.end(root)
    path = str(tmp_path / "run.spans")
    recorder.save(path)
    names, name_ids, parents, starts, ends = load_spans(path)
    assert names == recorder.names
    assert (name_ids, parents, starts, ends) == (
        recorder.name_ids, recorder.parents, recorder.starts, recorder.ends
    )


def test_bound_comparison_verdicts():
    steady = [10.0, 10.1, 9.9, 10.0, 10.05]
    assert e2e.verdict(steady, [v * 1.05 for v in steady], "lower", 0.10) == "agree"
    assert e2e.verdict(steady, [v * 1.20 for v in steady], "lower", 0.10) == "regressed"
    assert e2e.verdict(steady, [v * 0.80 for v in steady], "higher", 0.10) == "regressed"
    assert e2e.verdict(steady, [v * 1.20 for v in steady], "higher", 0.10) == "agree"
    noisy = [8.0, 10.0, 12.0, 9.0, 11.0]
    assert e2e.verdict(steady, noisy, "lower", 0.10) == "unresolved"
    assert e2e.verdict(steady, noisy, "lower", 0.10, check_spread=False) == "agree"
    # A wide spread still agrees when every new run is better than every old one.
    assert e2e.verdict(noisy, [5.0, 6.0, 7.0], "lower", 0.10) == "agree"


def _record(workload, seed, counters, outputs):
    return {"workload": workload, "seed": seed, "trace": False, "correct": True,
            "metrics": {}, "counters": counters, "outputs": outputs}


def test_compare_flags_counter_changes_except_on_the_pool_workload():
    spec = e2e.load_benchmark()
    before = [_record("report-cold", 1, {"simulated": 76}, {}),
              _record("report-resim-w2", 1, {"sched_store_hits": 40}, {})]
    after = [_record("report-cold", 1, {"simulated": 75}, {}),
             _record("report-resim-w2", 1, {"sched_store_hits": 62}, {})]
    assert e2e.counter_changes(spec, before, after) == [
        "report-cold seed 1: counter simulated 76 -> 75"
    ]
    assert e2e.counter_changes(spec, before, before) == []


def test_compare_flags_outputs_that_disagree_within_a_set():
    agreeing = [_record("report-cold", 1, {}, {"fig4a_ipc.csv": "x"}),
                _record("fig4-replay", 1, {}, {"fig4a_ipc.csv": "x"}),
                _record("fig4-replay", 2, {}, {"fig4a_ipc.csv": "y"})]
    assert e2e.disagreements(agreeing) == []
    split = agreeing + [_record("report-warm", 1, {}, {"fig4a_ipc.csv": "z"})]
    assert e2e.disagreements(split) == ["seed 1: fig4a_ipc.csv differs between runs (report-warm)"]


def _trace_bytes(seed: int) -> list:
    from repro.cpu.workloads import generate_trace
    from repro.experiments.common import select_workloads
    from repro.scenarios import build_trace, default_sweep
    from repro.scenarios.tracefile import records_bytes

    workloads = e2e_child.seeded(select_workloads(1), seed)
    scenarios = e2e_child.seeded(default_sweep()[:2], seed)
    return [records_bytes(generate_trace(spec, 400)) for spec in workloads] + [
        records_bytes(build_trace(spec, 400)) for spec in scenarios
    ]


def test_seed_zero_keeps_trace_bytes_and_seed_one_changes_them():
    catalog = _trace_bytes(0)
    assert catalog == _trace_bytes(0)
    assert all(a != b for a, b in zip(catalog, _trace_bytes(1)))


def test_apply_seed_rebinds_every_module_copy():
    from repro.experiments import common, fig6_scenarios, table3_hits
    import repro.scenarios

    select_workloads, default_sweep = common.select_workloads, fig6_scenarios.default_sweep
    try:
        e2e_child.apply_seed(2)
        assert table3_hits.select_workloads is common.select_workloads is not select_workloads
        assert repro.scenarios.default_sweep is fig6_scenarios.default_sweep
        assert [spec.seed for spec in common.select_workloads(1)] == [
            spec.seed + 2 * e2e_child.SEED_STRIDE for spec in select_workloads(1)
        ]
    finally:
        rebind(common.select_workloads, select_workloads)
        rebind(fig6_scenarios.default_sweep, default_sweep)


def test_output_checker_flags_a_one_byte_csv_change(tmp_path):
    committed = os.path.join(e2e.ROOT, "results")
    produced = str(tmp_path / "out")
    shutil.copytree(committed, produced)
    report = os.path.join(produced, "REPORT.md")
    with open(report) as handle:
        text = handle.read()
    with open(report, "w") as handle:
        handle.write(text.replace("Generated by: `", "Generated by: `env ", 1))
    assert e2e.check_against(committed, e2e.output_digests(produced), complete=True) == []

    path = os.path.join(produced, "fig4a_ipc.csv")
    with open(path, "rb") as handle:
        data = bytearray(handle.read())
    data[-3] ^= 1
    with open(path, "wb") as handle:
        handle.write(bytes(data))
    assert e2e.check_against(committed, e2e.output_digests(produced), complete=True) == [
        "fig4a_ipc.csv"
    ]
    os.remove(os.path.join(produced, "table2_area.csv"))
    flagged = e2e.check_against(committed, e2e.output_digests(produced), complete=True)
    assert flagged == ["fig4a_ipc.csv", "table2_area.csv"]


def test_plan_stats_line_is_parsed():
    stdout = "report written to x\nplan stats: jobs=76 simulated=0 cached=76 quarantined=0\n"
    assert e2e.parse_plan_stats(stdout) == {
        "jobs": 76, "simulated": 0, "cached": 76, "quarantined": 0,
    }
    assert e2e.parse_plan_stats("no stats here") is None
