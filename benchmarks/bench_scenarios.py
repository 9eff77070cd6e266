"""Benchmark: the scenario sweep (Fig. 6) and scenario trace synthesis.

Times the new-workload sweep across all four hierarchy types at the
benchmark size, and the scenario engine's generation against the legacy
per-instruction generator.
"""

from repro.cpu.workloads import generate_trace, workload_by_name
from repro.experiments import fig6_scenarios
from repro.scenarios import build_trace, default_sweep, scenario

# Keep in sync with benchmarks/conftest.py.
BENCH_INSTRUCTIONS = 5000


def test_fig6_scenario_sweep(benchmark):
    """Time the full scenario sweep and check its qualitative shape."""
    specs = default_sweep()
    report = benchmark.pedantic(
        fig6_scenarios.run,
        kwargs={"num_instructions": BENCH_INSTRUCTIONS, "specs": specs},
        rounds=1,
        iterations=1,
    )
    print()
    print("Scenario sweep (benchmark-sized run):")
    for line in fig6_scenarios.format_rows(report):
        print("  " + line)
    assert len(report["ipc"]) == len(specs)
    # Every scenario runs on all four hierarchy types and produces a
    # meaningful IPC; the L-NUCA front end never collapses the baseline.
    for by_system in report["ipc"].values():
        assert set(by_system) == set(report["systems"])
        assert all(value > 0.0 for value in by_system.values())
        assert by_system["LN3-144KB"] >= by_system["L2-256KB"] * 0.9


def test_scenario_generation(benchmark):
    """Time synthesis of a bench-sized scenario trace."""
    spec = scenario("kv-zipf-hot")
    n = 20 * BENCH_INSTRUCTIONS
    trace = benchmark.pedantic(
        build_trace, args=(spec, n), rounds=3, iterations=1
    )
    assert len(trace) == n
    # The scenario engine must beat the legacy per-instruction path.
    import time

    start = time.perf_counter()
    generate_trace(workload_by_name("mcf-like"), n)
    legacy_wall = time.perf_counter() - start
    assert benchmark.stats.stats.min < legacy_wall
