"""Expected-stats manifests for the scenario catalog.

Each of the 10 new catalog scenarios (tag ``"new"``) is simulated at a tiny
instruction budget on two representative hierarchies, and the exact
cycles / IPC / activity counters are committed to
``tests/data/scenario_manifests.json``.  The regression test
(``test_scenario_manifests.py``) regenerates the stats and compares them
*exactly*: the whole stack — trace synthesis, both scheduler modes'
shared semantics, every hierarchy counter — is deterministic, so any drift
is a real behaviour change that must be acknowledged by regenerating the
manifest.

Regenerate (from the repository root) after an intentional change::

    PYTHONPATH=src python tests/regen_scenario_manifests.py
"""

from __future__ import annotations

import json
import os
from typing import Dict

MANIFEST_PATH = os.path.join(os.path.dirname(__file__), "data", "scenario_manifests.json")

#: Tiny budget: large enough to exercise every hierarchy level, small
#: enough that regenerating all manifests stays in the seconds range.
MANIFEST_INSTRUCTIONS = 1500

#: The scenarios covered: the new catalog (the 21 legacy SPEC caricatures
#: are pinned by their own bit-identity tests in test_scenarios.py).
MANIFEST_TAG = "new"


def manifest_systems():
    """The representative hierarchies the manifests pin down."""
    from repro.sim.configs import conventional_spec, lnuca_l3_spec

    return {"L2-256KB": conventional_spec(), "LN3-144KB": lnuca_l3_spec(3)}


def span_metrics(trace) -> Dict[str, object]:
    """Trace-level span statistics pinned alongside the run manifests.

    Two shapes bound what any analytic fast-forward of the core could
    skip (DESIGN.md §5 records the engines that tried), so the manifests
    pin them per scenario:

    * ``mean_alu_span`` — mean length of the maximal runs of non-memory
      instructions;
    * ``hit_streaks`` — distribution of maximal runs of consecutive
      memory accesses that hit a functionally warmed conventional L1.
      The replay is functional (``contains`` then ``touch_or_fill``),
      warmed exactly like a timed run's prewarm, so the streaks are
      deterministic per trace.
    """
    from repro.sim.configs import conventional_spec

    decoded = trace.decoded()
    is_mem = decoded.is_mem
    addrs = decoded.addr

    alu_spans = []
    run = 0
    for flag in is_mem:
        if flag:
            if run:
                alu_spans.append(run)
            run = 0
        else:
            run += 1
    if run:
        alu_spans.append(run)

    l1 = conventional_spec().factory().levels[0]
    array = l1.array
    touch = array.touch_or_fill
    for addr in trace.resident_addresses():
        touch(addr)
    contains = array.contains
    streaks = []
    streak = 0
    for index, flag in enumerate(is_mem):
        if not flag:
            continue
        addr = addrs[index]
        if contains(addr):
            streak += 1
        else:
            if streak:
                streaks.append(streak)
            streak = 0
        touch(addr)
    if streak:
        streaks.append(streak)

    histogram: Dict[str, int] = {}
    for length in streaks:
        bucket = 1
        while bucket * 2 <= length:
            bucket *= 2
        key = str(bucket)
        histogram[key] = histogram.get(key, 0) + 1
    return {
        "mean_alu_span": round(sum(alu_spans) / len(alu_spans), 4) if alu_spans else 0.0,
        "hit_streaks": {
            "front": f"{l1.config.size_bytes // 1024}KB-L1",
            "count": len(streaks),
            "mean": round(sum(streaks) / len(streaks), 4) if streaks else 0.0,
            "max": max(streaks) if streaks else 0,
            "histogram": histogram,
        },
    }


def compute_manifests() -> Dict[str, object]:
    """Simulate every catalog scenario and collect its exact stats.

    Runs through the *direct* path (fresh build, per-run prewarm and
    synthesis, no plan-layer fast paths), so the manifests pin the
    simulator itself — the plan layer's differential tests then guarantee
    every fast path matches these numbers too.
    """
    from repro.scenarios import build_trace, scenarios
    from repro.sim.runner import run_workload

    systems = manifest_systems()
    entries: Dict[str, Dict[str, object]] = {}
    for spec in scenarios(MANIFEST_TAG):
        trace = build_trace(spec, MANIFEST_INSTRUCTIONS)
        per_system = {}
        for system_name, builder in systems.items():
            result = run_workload(
                builder.factory, spec, MANIFEST_INSTRUCTIONS, trace=trace
            )
            per_system[system_name] = {
                "cycles": result.cycles,
                "ipc": result.ipc,
                "instructions": result.instructions,
                "activity": result.activity,
            }
        per_system["spans"] = span_metrics(trace)
        entries[spec.name] = per_system
    return {
        "_meta": {
            "instructions": MANIFEST_INSTRUCTIONS,
            "tag": MANIFEST_TAG,
            "systems": sorted(systems),
            "regenerate": "PYTHONPATH=src python tests/regen_scenario_manifests.py",
        },
        "scenarios": entries,
    }


def main() -> None:
    manifests = compute_manifests()
    os.makedirs(os.path.dirname(MANIFEST_PATH), exist_ok=True)
    with open(MANIFEST_PATH, "w", encoding="utf-8") as handle:
        json.dump(manifests, handle, indent=2, sort_keys=True)
        handle.write("\n")
    count = len(manifests["scenarios"])
    print(f"wrote {MANIFEST_PATH}: {count} scenarios x {len(manifests['_meta']['systems'])} systems")


if __name__ == "__main__":
    main()
