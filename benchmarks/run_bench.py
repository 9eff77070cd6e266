#!/usr/bin/env python
"""Performance-trajectory harness: microbenchmarks + bench-sized Fig. 4 sweep.

Runs the simulator-substrate microbenchmarks and the bench-sized Fig. 4
configuration sweep in both scheduler modes (dense lock-step vs. the
event-driven kernel), verifies the two modes produce bit-identical
results, and writes the wall times / throughputs to ``BENCH_micro.json``
at the repository root so future PRs have a performance trajectory to
compare against.

Usage::

    python benchmarks/run_bench.py [--out PATH] [--repeat N] [--workers N]
        [--instructions N] [--per-category N]
        [--check-baseline PATH] [--max-slowdown X]

No pytest required; plain stdlib timing.  ``--instructions`` /
``--per-category`` shrink the sweep stages for smoke runs (CI runs a tiny
budget on every push); ``--check-baseline`` compares the fig4 sweep's
event-mode *throughput* (instructions simulated per second, which is
budget-size tolerant) against a previously committed ``BENCH_micro.json``
and fails the run when it regressed by more than ``--max-slowdown``.  The
stage set:

* ``micro_*`` — throughput of the inner loops every experiment relies on
  (array fill/lookup, a full L-NUCA miss search, trace generation, the
  hierarchy set-up a report pays per job — factory and prewarm, plus
  the exact count of objects one build adds — the scenario engine's
  synthesis against the legacy generator, binary trace
  capture/replay, what one trace and its decode keep in memory — the
  exact count of objects they add and their bytes per instruction —
  the repeated-sweep micro comparing the plan layer's
  trace pool+memo and warm-cache paths against the direct path, the
  store-vs-cache micro holding the SQLite result store's warm hit path
  and raw query throughput against the cache tier, and the
  parallel-sweep micro timing ``--workers 2`` sweeps on the persistent
  worker pool);
* ``fig4_sweep`` — the bench-sized Fig. 4 sweep (sizes from
  ``benchmarks/conftest.py``) in dense and event mode, passes interleaved
  (dense, event, dense, event ...), with a bit-identical-stats assertion
  between the two;
* ``memory_wall_stress`` — a cold pointer-chasing run against slow
  memory: the idle-cycle-dominated regime the event kernel targets, where
  the dense loop burns one Python call per component per stalled cycle.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(_REPO_ROOT / "src"))

from repro.cache.array import SetAssociativeArray  # noqa: E402
from repro.cache.cache import CacheConfig, TimedCache  # noqa: E402
from repro.cache.hierarchy import ConventionalHierarchy  # noqa: E402
from repro.cache.memory import MainMemory, MainMemoryConfig  # noqa: E402
from repro.cache.request import AccessType  # noqa: E402
from repro.core.config import LNUCAConfig  # noqa: E402
from repro.core.lnuca import LightNUCA  # noqa: E402
from repro.cpu.workloads import generate_trace, integer_suite, workload_by_name  # noqa: E402
from repro.experiments.common import (  # noqa: E402
    DEFAULT_INSTRUCTIONS,
    conventional_builders,
    dnuca_builders,
    select_workloads,
)
from repro.sim.configs import l1_config, l2_config, l3_config  # noqa: E402
from repro.sim.runner import run_suite, run_workload  # noqa: E402

#: Keep these in sync with benchmarks/conftest.py (not imported to avoid
#: pulling pytest into a plain script).
BENCH_INSTRUCTIONS = 5000
BENCH_PER_CATEGORY = 2


def _best_of(repeat, fn):
    best = None
    result = None
    for _ in range(repeat):
        start = time.perf_counter()
        result = fn()
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
    return best, result


# --------------------------------------------------------------------- micro
def micro_array(repeat):
    import random

    rng = random.Random(1)
    addresses = [rng.randrange(1 << 20) & ~31 for _ in range(4000)]

    def body():
        array = SetAssociativeArray(32 * 1024, 4, 32)
        for cycle, addr in enumerate(addresses):
            if array.lookup(addr, cycle=cycle) is None:
                array.fill(addr, cycle=cycle)

    wall, _ = _best_of(repeat, body)
    return {"wall_s": wall, "ops_per_s": 2 * len(addresses) / wall}


def _small_lnuca():
    backside = ConventionalHierarchy(
        [TimedCache(CacheConfig("L3", 64 * 1024, 8, 128, completion_cycles=10))],
        MainMemory(MainMemoryConfig(first_chunk_cycles=60)),
        name="bs",
    )
    return LightNUCA(LNUCAConfig(levels=3), backside)


def micro_lnuca_search(repeat):
    searches = 200

    def body():
        lnuca = _small_lnuca()
        cycle, addr = 0, 0x100000
        for _ in range(searches):
            request = lnuca.issue(addr, AccessType.LOAD, cycle)
            while not request.done or request.complete_cycle > cycle:
                lnuca.tick(cycle)
                cycle += 1
            cycle += 1
            addr += 32

    wall, _ = _best_of(repeat, body)
    return {"wall_s": wall, "searches_per_s": searches / wall}


def micro_trace_gen(repeat):
    spec = integer_suite()[0]
    n = 5000
    wall, _ = _best_of(repeat, lambda: generate_trace(spec, n))
    return {"wall_s": wall, "instructions_per_s": n / wall}


def micro_scenario_gen(repeat):
    """Trace synthesis: the scenario engine vs the legacy generator.

    Both produce a comparable key-value-server-sized stream: the engine
    synthesizes the ``kv-zipf-hot`` scenario, the legacy path is the
    historical per-instruction generator.
    """
    from repro.scenarios import build_trace, scenario

    n = 50_000
    spec = scenario("kv-zipf-hot")
    scalar_wall, _ = _best_of(repeat, lambda: build_trace(spec, n))
    legacy_wall, _ = _best_of(
        repeat, lambda: generate_trace(workload_by_name("mcf-like"), n)
    )
    return {
        "instructions": n,
        "scalar_wall_s": scalar_wall,
        "scalar_instructions_per_s": n / scalar_wall,
        "legacy_wall_s": legacy_wall,
        "legacy_instructions_per_s": n / legacy_wall,
    }


def micro_trace_file(repeat):
    """Binary capture/replay: save + load throughput and round-trip check."""
    import tempfile

    from repro.scenarios import build_trace, load_trace, save_trace, scenario

    n = 50_000
    trace = build_trace(scenario("kv-zipf-hot"), n)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "bench.lntr")
        save_wall, size = _best_of(repeat, lambda: save_trace(trace, path))
        load_wall, loaded = _best_of(repeat, lambda: load_trace(path))
    if loaded.instructions != trace.instructions:
        raise AssertionError("trace file round trip diverged — format bug")
    return {
        "instructions": n,
        "file_bytes": size,
        "save_wall_s": save_wall,
        "save_instructions_per_s": n / save_wall,
        "load_wall_s": load_wall,
        "load_instructions_per_s": n / load_wall,
        "round_trip_identical": True,
    }


#: GC-tracked objects one trace, its decode and its resident set may add.
#: The record section is untracked ``bytes`` and the decoded columns are a
#: fixed set of lists and arrays, so the count does not grow with the
#: trace; per-instruction objects would add one per instruction.
MAX_TRACKED_OBJECTS_PER_TRACE = 16


def micro_trace_memory():
    """What one 50,000-instruction trace and its decode keep in memory.

    Counts the objects a synthesized trace plus its decode and resident
    set add to the garbage collector's heap — an exact counter, held to
    ``MAX_TRACKED_OBJECTS_PER_TRACE`` by ``--check-baseline`` — and the
    ``tracemalloc`` bytes they hold per instruction.
    """
    import gc
    import tracemalloc

    from repro.scenarios import build_trace, scenario

    n = 50_000
    spec = scenario("kv-zipf-hot")
    build_trace(spec, 500)  # the family's process-wide caches
    gc.collect()
    before = len(gc.get_objects())
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        trace = build_trace(spec, n)
        trace.decoded()
        trace.resident_addresses()
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    tracked = len(gc.get_objects()) - before
    return {
        "scenario": spec.name,
        "instructions": n,
        "tracked_objects_per_trace": tracked,
        "bytes_per_instruction": held / n,
    }


#: One system of each type a report builds, for ``micro_build_prewarm``.
BUILD_PREWARM_SYSTEMS = ("L2-256KB", "LN3-144KB", "DN-4x8", "LN3+DN-4x8")

#: GC-tracked objects one hierarchy build may add.  Sets are allocated on
#: their first fill, so a fresh build holds geometry only; eagerly
#: allocated sets cost 4.9k-35.5k objects per build.
MAX_TRACKED_OBJECTS_PER_BUILD = 1_000


def micro_build_prewarm(repeat):
    """Hierarchy set-up as a report pays it per job: factory, then prewarm.

    Times each phase for one system of each report type on one default-size
    trace (best of ``repeat``), and counts the objects one build adds to the
    garbage collector's heap — an exact counter, held to
    ``MAX_TRACKED_OBJECTS_PER_BUILD`` by ``--check-baseline``.
    """
    import gc

    builders = {**conventional_builders(), **dnuca_builders()}
    spec = workload_by_name("mcf-like")
    addresses = generate_trace(spec, DEFAULT_INSTRUCTIONS).resident_addresses()
    systems = {}
    for name in BUILD_PREWARM_SYSTEMS:
        factory = builders[name].factory
        factory()  # one-off imports and interned constants
        gc.collect()
        gc.disable()
        try:
            before = len(gc.get_objects())
            system = factory()
            tracked = len(gc.get_objects()) - before
        finally:
            gc.enable()
        del system
        factory_s, _ = _best_of(repeat, factory)
        prewarm_s = float("inf")
        for _ in range(repeat):
            system = factory()
            start = time.perf_counter()
            system.prewarm(addresses)
            prewarm_s = min(prewarm_s, time.perf_counter() - start)
        del system  # freed before the next type's tracked-object count
        systems[name] = {
            "factory_s": factory_s,
            "prewarm_s": prewarm_s,
            "tracked_objects_per_build": tracked,
        }
    total = sum(entry["factory_s"] + entry["prewarm_s"] for entry in systems.values())
    return {
        "workload": spec.name,
        "instructions": DEFAULT_INSTRUCTIONS,
        "systems": systems,
        "total_wall_s": total,
        "builds_per_s": len(systems) / total,
        "max_tracked_objects_per_build": max(
            entry["tracked_objects_per_build"] for entry in systems.values()
        ),
    }


def micro_sweep_cached(repeat, instructions=2000):
    """Repeated-sweep micro: the plan layer's fast paths vs the direct path.

    Models the pattern the run-plan layer targets: the same (system,
    workload) sweep executed repeatedly in one process.  Three
    paths over the identical plan, all bit-identical by construction:

    * ``direct`` — fresh build, per-job prewarm, per-job synthesis (the
      historical per-sweep cost, the PR 3 baseline behaviour);
    * ``plan`` — trace-pool replay plus the in-process trace memo (warm
      pool and memo, result cache off); each job still builds and
      prewarms its own hierarchy;
    * ``cached`` — warm content-addressed result cache: zero simulation.

    Besides the full-sweep walls, the stage isolates the *setup* phase
    (trace materialization plus producing a prewarmed hierarchy per job,
    no simulation), where the memo replaces synthesis: the full-sweep delta is
    bounded by the setup share of the sweep, which PR 1-3 already made
    sim-dominated, so the setup comparison is the stable signal while the
    full-sweep plan-vs-direct ratio sits near 1 within box noise.
    """
    import tempfile

    from repro.sim import plan as plan_module

    specs = select_workloads(1)
    builders = conventional_builders()
    compiled = lambda: plan_module.compile_sweep(builders, specs, instructions)  # noqa: E731

    pinned = os.environ.get("REPRO_SIM_VERSION")
    os.environ["REPRO_SIM_VERSION"] = "bench-local"
    try:
        with tempfile.TemporaryDirectory() as tmp:
            pool = plan_module.TracePool(os.path.join(tmp, "pool"))
            cache = plan_module.ResultCache(os.path.join(tmp, "cache"))

            direct = lambda: plan_module.execute(  # noqa: E731
                compiled(), trace_memo=False
            ).results
            fast = lambda: plan_module.execute(compiled(), pool=pool).results  # noqa: E731
            cached = lambda: plan_module.execute(compiled(), pool=pool, cache=cache).results  # noqa: E731

            baseline = direct()
            fast()  # warm the pool and the trace memo once
            # The two paths differ by ~10% while this box's wall clock
            # drifts by a comparable amount over seconds; interleaving the
            # best-of rounds (A/B per round instead of all-A then all-B)
            # cancels the drift out of the comparison.
            direct_wall = plan_wall = None
            plan_results = None
            for _ in range(max(repeat, 5)):
                wall, _ = _best_of(1, direct)
                direct_wall = wall if direct_wall is None else min(direct_wall, wall)
                wall, plan_results = _best_of(1, fast)
                plan_wall = wall if plan_wall is None else min(plan_wall, wall)
            cached()  # warm the result cache
            cached_wall, cached_results = _best_of(max(repeat, 5), cached)

            # Setup-only phase: what the trace memo replaces, isolated
            # from the (dominant) simulation time.
            def direct_setup():
                traces = {
                    spec.name: compiled_plan.traces[spec.name].build() for spec in specs
                }
                for job in compiled_plan.jobs:
                    system = builders[job.system].factory()
                    system.prewarm(traces[job.trace].resident_addresses())

            def plan_setup():
                for job in compiled_plan.jobs:
                    source = compiled_plan.traces[job.trace]
                    memo_key = plan_module._memo_key(source)
                    trace = plan_module._TRACE_MEMO.get(memo_key)
                    if trace is None:
                        trace = source.build()
                        plan_module._TRACE_MEMO[memo_key] = trace
                    system = builders[job.system].factory()
                    system.prewarm(trace.resident_addresses())

            compiled_plan = compiled()
            plan_setup()  # warm the memo
            direct_setup_wall = plan_setup_wall = None
            for _ in range(max(repeat, 5)):
                wall, _ = _best_of(1, direct_setup)
                direct_setup_wall = (
                    wall if direct_setup_wall is None else min(direct_setup_wall, wall)
                )
                wall, _ = _best_of(1, plan_setup)
                plan_setup_wall = (
                    wall if plan_setup_wall is None else min(plan_setup_wall, wall)
                )
        if not _results_identical(baseline, plan_results):
            raise AssertionError("pool+memo sweep diverged from direct — plan bug")
        if not _results_identical(baseline, cached_results):
            raise AssertionError("cached sweep diverged from direct — plan bug")
    finally:
        if pinned is None:
            os.environ.pop("REPRO_SIM_VERSION", None)
        else:
            os.environ["REPRO_SIM_VERSION"] = pinned

    runs = len(baseline)
    return {
        "runs": runs,
        "instructions_per_run": instructions,
        "direct_wall_s": direct_wall,
        "plan_wall_s": plan_wall,
        "cached_wall_s": cached_wall,
        "plan_speedup_vs_direct": direct_wall / plan_wall,
        "cached_speedup_vs_direct": direct_wall / cached_wall,
        "plan_instructions_per_s": runs * instructions / plan_wall,
        "direct_setup_wall_s": direct_setup_wall,
        "plan_setup_wall_s": plan_setup_wall,
        "setup_speedup_vs_direct": direct_setup_wall / plan_setup_wall,
        "bit_identical": True,
    }


def micro_store_query(repeat, instructions=2000):
    """SQLite result store vs result cache on the warm-sweep path.

    The store sits one tier behind the cache in ``execute``'s lookup
    ladder, so its hit path must stay in the same cost class as a cache
    hit — a sweep answered from the store is still "no simulation".  The
    stage runs the identical warm sweep from the store tier and from the
    cache tier, interleaved A/B per round (as in ``micro_sweep_cached``)
    to cancel wall-clock drift, asserts both bit-identical to the cold
    run, and measures the raw ``query`` throughput — the cost of one
    ``repro store query``.
    """
    import tempfile

    from repro.sim import plan as plan_module
    from repro.sim.store import ResultStore

    specs = select_workloads(1)
    builders = conventional_builders()
    compiled = lambda: plan_module.compile_sweep(builders, specs, instructions)  # noqa: E731

    pinned = os.environ.get("REPRO_SIM_VERSION")
    os.environ["REPRO_SIM_VERSION"] = "bench-local"
    try:
        with tempfile.TemporaryDirectory() as tmp:
            pool = plan_module.TracePool(os.path.join(tmp, "pool"))
            cache = plan_module.ResultCache(os.path.join(tmp, "cache"))
            store = ResultStore(os.path.join(tmp, "results.sqlite"))

            # Cold run populates both tiers at once (every landed result is
            # fed to the store, cache hits included).
            baseline = plan_module.execute(
                compiled(), pool=pool, cache=cache, store=store
            ).results
            runs = len(baseline)

            store_run = lambda: plan_module.execute(compiled(), pool=pool, store=store)  # noqa: E731
            cache_run = lambda: plan_module.execute(compiled(), pool=pool, cache=cache)  # noqa: E731

            store_wall = cache_wall = None
            store_results = cache_results = None
            for _ in range(max(repeat, 5)):
                wall, run = _best_of(1, store_run)
                if run.stats.store_hits != runs or run.stats.simulated:
                    raise AssertionError("store tier missed a warm sweep — store bug")
                store_wall = wall if store_wall is None else min(store_wall, wall)
                store_results = run.results
                wall, run = _best_of(1, cache_run)
                if run.stats.cached != runs or run.stats.simulated:
                    raise AssertionError("cache tier missed a warm sweep — cache bug")
                cache_wall = wall if cache_wall is None else min(cache_wall, wall)
                cache_results = run.results

            queries = 200

            def query_body():
                rows = None
                for _ in range(queries):
                    rows = store.query(label="L2-256KB", limit=16)
                if not rows:
                    raise AssertionError("store query returned nothing — store bug")

            query_wall, _ = _best_of(max(repeat, 3), query_body)
            store.close()
        if not _results_identical(baseline, store_results):
            raise AssertionError("store-served sweep diverged from direct — store bug")
        if not _results_identical(baseline, cache_results):
            raise AssertionError("cache-served sweep diverged from direct — cache bug")
    finally:
        if pinned is None:
            os.environ.pop("REPRO_SIM_VERSION", None)
        else:
            os.environ["REPRO_SIM_VERSION"] = pinned

    return {
        "runs": runs,
        "instructions_per_run": instructions,
        "store_wall_s": store_wall,
        "cache_wall_s": cache_wall,
        "store_vs_cache_ratio": store_wall / cache_wall,
        "store_hit_jobs_per_s": runs / store_wall,
        "query_wall_s": query_wall,
        "queries_per_s": queries / query_wall,
        "bit_identical": True,
    }


def micro_parallel_sweep(repeat, instructions=2000, workers=2):
    """``--workers N`` sweeps on the persistent worker pool.

    Each timed round runs the sweep on pooled workers that keep their
    decoded traces across sweeps and read pooled traces through
    ``mmap``.  The result cache is wiped before every round so each run
    actually simulates, the warm rounds must reuse pool workers, and the
    results are asserted bit-identical to the sequential reference.
    """
    import shutil
    import tempfile

    from repro.sim import plan as plan_module

    if not hasattr(os, "fork"):
        return {"skipped": "platform lacks os.fork"}

    specs = select_workloads(1)
    builders = conventional_builders()
    compiled = lambda: plan_module.compile_sweep(builders, specs, instructions)  # noqa: E731

    pinned = os.environ.get("REPRO_SIM_VERSION")
    os.environ["REPRO_SIM_VERSION"] = "bench-local"
    try:
        with tempfile.TemporaryDirectory() as tmp:
            cache = plan_module.ResultCache(os.path.join(tmp, "cache"))
            results_dir = os.path.join(cache.directory, "results")

            def fresh_round():
                # Each timed run must simulate: drop the result tier but
                # keep the pooled traces.
                shutil.rmtree(results_dir, ignore_errors=True)

            def pooled():
                return plan_module.execute(compiled(), cache=cache, workers=workers)

            baseline = plan_module.execute(compiled()).results
            pooled()  # warms the trace pool and forks the workers
            pooled_wall = pooled_run = None
            for _ in range(max(repeat, 3)):
                fresh_round()
                wall, pooled_run = _best_of(1, pooled)
                pooled_wall = wall if pooled_wall is None else min(pooled_wall, wall)
            if not pooled_run.stats.pool_reused:
                raise AssertionError("warm rounds never reused a pool worker")
        if not _results_identical(baseline, pooled_run.results):
            raise AssertionError("pooled parallel sweep diverged — pool bug")
    finally:
        if pinned is None:
            os.environ.pop("REPRO_SIM_VERSION", None)
        else:
            os.environ["REPRO_SIM_VERSION"] = pinned

    runs = len(baseline)
    return {
        "runs": runs,
        "instructions_per_run": instructions,
        "workers": workers,
        "pooled_wall_s": pooled_wall,
        "pooled_jobs_per_s": runs / pooled_wall,
        "bit_identical": True,
    }


# --------------------------------------------------------------------- sweep
def _results_identical(lhs, rhs):
    return all(
        a.system == b.system
        and a.workload == b.workload
        and a.cycles == b.cycles
        and a.ipc == b.ipc
        and a.activity == b.activity
        and a.core_stats == b.core_stats
        for a, b in zip(lhs, rhs)
    )


def fig4_sweep(repeat, workers, instructions=BENCH_INSTRUCTIONS, per_category=BENCH_PER_CATEGORY):
    specs = select_workloads(per_category)
    # Dense and event passes alternate (D, E, D, E ...) so the box's
    # wall-clock drift hits both modes alike; best of each mode is kept.
    def sweep(mode):
        start = time.perf_counter()
        results = run_suite(conventional_builders(), specs, instructions, mode=mode)
        return time.perf_counter() - start, results

    dense_wall = event_wall = float("inf")
    for _ in range(max(repeat, 1)):
        wall, dense = sweep("dense")
        dense_wall = min(dense_wall, wall)
        wall, event = sweep("event")
        event_wall = min(event_wall, wall)
        if not _results_identical(dense, event):
            raise AssertionError("dense and event sweeps diverged — kernel bug")
    stage = {
        "runs": len(dense),
        "instructions_per_run": instructions,
        "dense_wall_s": dense_wall,
        "event_wall_s": event_wall,
        "event_speedup_vs_dense": dense_wall / event_wall,
        "event_instructions_per_s": len(dense) * instructions / event_wall,
        "bit_identical": True,
    }
    if workers and workers > 1 and hasattr(os, "fork"):
        workers_wall, parallel = _best_of(
            repeat,
            lambda: run_suite(
                conventional_builders(),
                specs,
                instructions,
                mode="event",
                workers=workers,
            ),
        )
        stage["workers"] = workers
        stage["workers_wall_s"] = workers_wall
        stage["workers_identical"] = _results_identical(event, parallel)
    return stage


def memory_wall_stress(repeat, instructions=BENCH_INSTRUCTIONS):
    """Cold pointer-chasing against slow memory: the idle-skip showcase."""

    def slow_mem_hierarchy():
        return ConventionalHierarchy(
            [TimedCache(l1_config()), TimedCache(l2_config()), TimedCache(l3_config())],
            MainMemory(MainMemoryConfig(first_chunk_cycles=800, inter_chunk_cycles=4)),
            name="slow-mem",
        )

    spec = workload_by_name("mcf-like")
    trace = generate_trace(spec, instructions)
    run = lambda mode: run_workload(  # noqa: E731
        slow_mem_hierarchy, spec, instructions, trace=trace, prewarm=False, mode=mode
    )
    dense_wall, dense = _best_of(repeat, lambda: run("dense"))
    event_wall, event = _best_of(repeat, lambda: run("event"))
    if dense.cycles != event.cycles or dense.activity != event.activity:
        raise AssertionError("memory-wall stress diverged — kernel bug")
    return {
        "workload": spec.name,
        "cycles": dense.cycles,
        "dense_wall_s": dense_wall,
        "event_wall_s": event_wall,
        "event_speedup_vs_dense": dense_wall / event_wall,
        "bit_identical": True,
    }


def check_against_baseline(stages, baseline_path, max_slowdown):
    """Fail when the fig4 event sweep regressed past ``max_slowdown``.

    Compares event-mode *throughput* (simulated instructions per wall
    second), not raw wall time, so a smoke run at a tiny ``--instructions``
    budget can still be held against the committed full-budget baseline.
    Tiny budgets amortise fixed per-run costs (trace generation, prewarm)
    over fewer instructions and CI boxes differ from the box that produced
    the baseline, which is why the threshold is a generous factor rather
    than a tight percentage.
    """
    committed = json.loads(Path(baseline_path).read_text())["stages"]
    baseline = committed["fig4_sweep"]
    base_tput = baseline.get("event_instructions_per_s") or (
        baseline["runs"] * baseline["instructions_per_run"] / baseline["event_wall_s"]
    )
    new = stages["fig4_sweep"]
    new_tput = new["event_instructions_per_s"]
    ratio = base_tput / new_tput
    print(
        f"baseline check: event sweep {new_tput:,.0f} instr/s vs committed "
        f"{base_tput:,.0f} instr/s ({ratio:.2f}x slowdown, limit {max_slowdown:.2f}x)"
    )
    if ratio > max_slowdown:
        raise SystemExit(
            f"fig4 event sweep regressed {ratio:.2f}x vs {baseline_path} "
            f"(limit {max_slowdown:.2f}x)"
        )
    # Repeated-sweep micro: the pool+memo path's throughput is held
    # against the committed baseline the same way (absent in BENCH files
    # older than the plan layer).
    cached_base = committed.get("micro_sweep_cached")
    if cached_base and cached_base.get("plan_instructions_per_s"):
        sweep_new = stages["micro_sweep_cached"]["plan_instructions_per_s"]
        sweep_ratio = cached_base["plan_instructions_per_s"] / sweep_new
        print(
            f"baseline check: repeated sweep (plan path) {sweep_new:,.0f} instr/s vs "
            f"committed {cached_base['plan_instructions_per_s']:,.0f} instr/s "
            f"({sweep_ratio:.2f}x slowdown, limit {max_slowdown:.2f}x)"
        )
        if sweep_ratio > max_slowdown:
            raise SystemExit(
                f"repeated-sweep micro regressed {sweep_ratio:.2f}x vs {baseline_path} "
                f"(limit {max_slowdown:.2f}x)"
            )
    # Result-store micro: the raw query throughput is held against the
    # committed baseline the same way (absent in BENCH files older than
    # the store).
    store_base = committed.get("micro_store_query")
    if store_base and store_base.get("queries_per_s"):
        store_new = stages["micro_store_query"]["queries_per_s"]
        store_ratio = store_base["queries_per_s"] / store_new
        print(
            f"baseline check: result-store queries {store_new:,.0f}/s vs "
            f"committed {store_base['queries_per_s']:,.0f}/s "
            f"({store_ratio:.2f}x slowdown, limit {max_slowdown:.2f}x)"
        )
        if store_ratio > max_slowdown:
            raise SystemExit(
                f"result-store query micro regressed {store_ratio:.2f}x vs "
                f"{baseline_path} (limit {max_slowdown:.2f}x)"
            )
    # Parallel-sweep micro: the persistent-pool leg's job throughput is
    # held against the committed baseline the same way (absent in BENCH
    # files older than the pool).
    parallel_base = committed.get("micro_parallel_sweep")
    if parallel_base and parallel_base.get("pooled_jobs_per_s"):
        parallel_new = stages["micro_parallel_sweep"].get("pooled_jobs_per_s")
        if parallel_new:
            parallel_ratio = parallel_base["pooled_jobs_per_s"] / parallel_new
            print(
                f"baseline check: parallel sweep (pooled) {parallel_new:,.1f} jobs/s vs "
                f"committed {parallel_base['pooled_jobs_per_s']:,.1f} jobs/s "
                f"({parallel_ratio:.2f}x slowdown, limit {max_slowdown:.2f}x)"
            )
            if parallel_ratio > max_slowdown:
                raise SystemExit(
                    f"parallel-sweep micro regressed {parallel_ratio:.2f}x vs "
                    f"{baseline_path} (limit {max_slowdown:.2f}x)"
                )
    # Build/prewarm micro: the tracked-object count per build is exact, so
    # it is held to a fixed ceiling; the set-up throughput is held against
    # the committed baseline like the stages above (absent in BENCH files
    # older than this stage).
    build_new = stages["micro_build_prewarm"]
    tracked = build_new["max_tracked_objects_per_build"]
    print(
        f"baseline check: hierarchy build adds at most {tracked:,} tracked objects "
        f"(limit {MAX_TRACKED_OBJECTS_PER_BUILD:,})"
    )
    if tracked > MAX_TRACKED_OBJECTS_PER_BUILD:
        raise SystemExit(
            f"a hierarchy build adds {tracked:,} GC-tracked objects "
            f"(limit {MAX_TRACKED_OBJECTS_PER_BUILD:,}): are sets allocated eagerly?"
        )
    build_base = committed.get("micro_build_prewarm")
    if build_base and build_base.get("builds_per_s"):
        build_ratio = build_base["builds_per_s"] / build_new["builds_per_s"]
        print(
            f"baseline check: build+prewarm {build_new['builds_per_s']:,.1f} "
            f"systems/s vs committed {build_base['builds_per_s']:,.1f} systems/s "
            f"({build_ratio:.2f}x slowdown, limit {max_slowdown:.2f}x)"
        )
        if build_ratio > max_slowdown:
            raise SystemExit(
                f"build/prewarm micro regressed {build_ratio:.2f}x vs "
                f"{baseline_path} (limit {max_slowdown:.2f}x)"
            )
    # Trace-memory micro: the tracked-object count per trace is exact, so it
    # is held to a fixed ceiling.
    trace_tracked = stages["micro_trace_memory"]["tracked_objects_per_trace"]
    print(
        f"baseline check: a trace and its decode add {trace_tracked:,} tracked "
        f"objects (limit {MAX_TRACKED_OBJECTS_PER_TRACE:,})"
    )
    if trace_tracked > MAX_TRACKED_OBJECTS_PER_TRACE:
        raise SystemExit(
            f"a trace and its decode add {trace_tracked:,} GC-tracked objects "
            f"(limit {MAX_TRACKED_OBJECTS_PER_TRACE:,}): per-instruction objects?"
        )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=str(_REPO_ROOT / "BENCH_micro.json"))
    parser.add_argument("--repeat", type=int, default=3, help="best-of-N timing")
    parser.add_argument(
        "--workers",
        type=int,
        default=0,
        help="also time the sweep with this many worker processes",
    )
    parser.add_argument(
        "--instructions",
        type=int,
        default=BENCH_INSTRUCTIONS,
        help="instructions per run in the sweep stages (smoke runs shrink this)",
    )
    parser.add_argument(
        "--per-category",
        type=int,
        default=BENCH_PER_CATEGORY,
        help="workloads per category in the fig4 sweep",
    )
    parser.add_argument(
        "--check-baseline",
        default=None,
        metavar="PATH",
        help="compare the fig4 event sweep against this BENCH_micro.json",
    )
    parser.add_argument(
        "--max-slowdown",
        type=float,
        default=2.0,
        help="maximum tolerated throughput regression factor for --check-baseline",
    )
    args = parser.parse_args(argv)

    stages = {}
    print("micro: set-associative array ...", flush=True)
    stages["micro_array_ops"] = micro_array(args.repeat)
    print("micro: L-NUCA miss search ...", flush=True)
    stages["micro_lnuca_search"] = micro_lnuca_search(args.repeat)
    print("micro: trace generation ...", flush=True)
    stages["micro_trace_gen"] = micro_trace_gen(args.repeat)
    print("micro: scenario synthesis (engine vs legacy) ...", flush=True)
    stages["micro_scenario_gen"] = micro_scenario_gen(args.repeat)
    print("micro: binary trace save/load ...", flush=True)
    stages["micro_trace_file"] = micro_trace_file(args.repeat)
    print("micro: trace memory ...", flush=True)
    stages["micro_trace_memory"] = micro_trace_memory()
    print("micro: hierarchy build and prewarm ...", flush=True)
    stages["micro_build_prewarm"] = micro_build_prewarm(args.repeat)
    print("micro: repeated sweep (direct vs pool+memo vs cached) ...", flush=True)
    stages["micro_sweep_cached"] = micro_sweep_cached(args.repeat, args.instructions)
    print("micro: result store vs result cache (warm hits, raw queries) ...", flush=True)
    stages["micro_store_query"] = micro_store_query(args.repeat, args.instructions)
    print("micro: parallel sweep (persistent pool) ...", flush=True)
    stages["micro_parallel_sweep"] = micro_parallel_sweep(args.repeat, args.instructions)
    print("fig4 sweep (dense vs event) ...", flush=True)
    stages["fig4_sweep"] = fig4_sweep(
        args.repeat, args.workers, args.instructions, args.per_category
    )
    print("memory-wall stress (dense vs event) ...", flush=True)
    stages["memory_wall_stress"] = memory_wall_stress(args.repeat, args.instructions)

    payload = {
        "meta": {
            "python": platform.python_version(),
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
            "repeat": args.repeat,
        },
        "stages": stages,
    }
    out = Path(args.out)
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")
    sweep = stages["fig4_sweep"]
    stress = stages["memory_wall_stress"]
    print(
        f"fig4 sweep: dense {sweep['dense_wall_s']:.2f}s, "
        f"event {sweep['event_wall_s']:.2f}s "
        f"({sweep['event_speedup_vs_dense']:.2f}x, bit-identical)"
    )
    print(
        f"memory-wall stress: dense {stress['dense_wall_s']:.2f}s, "
        f"event {stress['event_wall_s']:.2f}s "
        f"({stress['event_speedup_vs_dense']:.2f}x, bit-identical)"
    )
    cached = stages["micro_sweep_cached"]
    print(
        f"repeated sweep: direct {cached['direct_wall_s']:.2f}s, "
        f"pool+memo {cached['plan_wall_s']:.2f}s "
        f"({cached['plan_speedup_vs_direct']:.2f}x full sweep, "
        f"{cached['setup_speedup_vs_direct']:.2f}x setup phase), "
        f"warm cache {cached['cached_wall_s']:.3f}s "
        f"({cached['cached_speedup_vs_direct']:.0f}x, bit-identical)"
    )
    store_stage = stages["micro_store_query"]
    print(
        f"store vs cache: warm sweep from store {store_stage['store_wall_s']:.3f}s, "
        f"from cache {store_stage['cache_wall_s']:.3f}s "
        f"({store_stage['store_vs_cache_ratio']:.2f}x ratio, bit-identical), "
        f"raw queries {store_stage['queries_per_s']:,.0f}/s"
    )
    parallel = stages["micro_parallel_sweep"]
    if "pooled_wall_s" in parallel:
        print(
            f"parallel sweep ({parallel['workers']} workers): "
            f"persistent pool {parallel['pooled_wall_s']:.2f}s "
            f"({parallel['pooled_jobs_per_s']:.1f} jobs/s, bit-identical)"
        )
    build = stages["micro_build_prewarm"]
    print(
        "build/prewarm ("
        + ", ".join(
            f"{name} {entry['factory_s'] * 1e3:.1f}/{entry['prewarm_s'] * 1e3:.1f} ms"
            for name, entry in build["systems"].items()
        )
        + f"): at most {build['max_tracked_objects_per_build']:,} tracked objects per build"
    )
    memory = stages["micro_trace_memory"]
    print(
        f"trace memory: {memory['bytes_per_instruction']:.0f} B per instruction, "
        f"{memory['tracked_objects_per_trace']} tracked objects per trace"
    )
    gen = stages["micro_scenario_gen"]
    print(
        f"scenario synthesis: {gen['scalar_instructions_per_s']:,.0f} instr/s "
        f"({gen['legacy_wall_s'] / gen['scalar_wall_s']:.2f}x vs legacy per-instruction)"
    )
    if args.check_baseline:
        check_against_baseline(stages, args.check_baseline, args.max_slowdown)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
