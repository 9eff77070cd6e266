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
  hierarchy set-up a report pays per job — factory, prewarm and snapshot
  pickle, plus the exact count of objects one build adds — the
  scenario engine's vectorized-vs-scalar-vs-legacy synthesis, binary
  trace capture/replay, the repeated-sweep micro comparing the plan
  layer's snapshot+pool and warm-cache paths against the direct path,
  the store-vs-cache micro holding the SQLite result store's warm
  hit path and raw query throughput against the cache tier, and the
  parallel-sweep micro A/B-ing the persistent worker pool plus shared
  snapshot blobs against the historical fork-per-sweep path);
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
    """Trace synthesis: vectorized engine vs scalar reference vs legacy.

    All three produce a comparable key-value-server-sized stream; the
    vectorized and scalar paths synthesize the *same* scenario (their
    traces are bit-identical), the legacy path is the historical
    per-instruction generator.
    """
    from repro.scenarios import build_trace, scenario
    from repro.scenarios.sampling import HAVE_NUMPY

    n = 50_000
    base = scenario("kv-zipf-hot")

    def with_backend(vectorized):
        return base.with_params(vectorized=vectorized)

    scalar_wall, scalar_trace = _best_of(
        repeat, lambda: build_trace(with_backend(False), n)
    )
    legacy_wall, _ = _best_of(
        repeat, lambda: generate_trace(workload_by_name("mcf-like"), n)
    )
    stage = {
        "instructions": n,
        "scalar_wall_s": scalar_wall,
        "scalar_instructions_per_s": n / scalar_wall,
        "legacy_wall_s": legacy_wall,
        "legacy_instructions_per_s": n / legacy_wall,
        "have_numpy": HAVE_NUMPY,
    }
    if HAVE_NUMPY:
        import numpy  # noqa: F401 - imported lazily by synthesis; keep it out of the timing

        vec_wall, vec_trace = _best_of(
            repeat, lambda: build_trace(with_backend(True), n)
        )
        if vec_trace.instructions != scalar_trace.instructions:
            raise AssertionError("vectorized and scalar backends diverged — engine bug")
        stage.update(
            vectorized_wall_s=vec_wall,
            vectorized_instructions_per_s=n / vec_wall,
            vectorized_speedup_vs_scalar=scalar_wall / vec_wall,
            vectorized_speedup_vs_legacy=legacy_wall / vec_wall,
            backends_bit_identical=True,
        )
    return stage


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


#: One system of each type a report builds, for ``micro_build_prewarm``.
BUILD_PREWARM_SYSTEMS = ("L2-256KB", "LN3-144KB", "DN-4x8", "LN3+DN-4x8")

#: GC-tracked objects one hierarchy build may add.  Sets are allocated on
#: their first fill, so a fresh build holds geometry only; eagerly
#: allocated sets cost 4.9k-35.5k objects per build.
MAX_TRACKED_OBJECTS_PER_BUILD = 1_000


def micro_build_prewarm(repeat):
    """Hierarchy set-up as a report pays it: factory, prewarm, snapshot pickle.

    Times each phase for one system of each report type on one default-size
    trace (best of ``repeat``), and counts the objects one build adds to the
    garbage collector's heap — an exact counter, held to
    ``MAX_TRACKED_OBJECTS_PER_BUILD`` by ``--check-baseline``.
    """
    import gc
    import pickle

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
        prewarm_s = pickle_s = float("inf")
        for _ in range(repeat):
            system = factory()
            start = time.perf_counter()
            system.prewarm(addresses)
            prewarmed = time.perf_counter()
            blob = pickle.dumps(system, pickle.HIGHEST_PROTOCOL)
            pickled = time.perf_counter()
            prewarm_s = min(prewarm_s, prewarmed - start)
            pickle_s = min(pickle_s, pickled - prewarmed)
        del system  # freed before the next type's tracked-object count
        systems[name] = {
            "factory_s": factory_s,
            "prewarm_s": prewarm_s,
            "pickle_s": pickle_s,
            "blob_bytes": len(blob),
            "tracked_objects_per_build": tracked,
        }
    total = sum(
        entry["factory_s"] + entry["prewarm_s"] + entry["pickle_s"]
        for entry in systems.values()
    )
    return {
        "workload": spec.name,
        "instructions": DEFAULT_INSTRUCTIONS,
        "systems": systems,
        "total_wall_s": total,
        "snapshots_per_s": len(systems) / total,
        "max_tracked_objects_per_build": max(
            entry["tracked_objects_per_build"] for entry in systems.values()
        ),
    }


def micro_sweep_cached(repeat, instructions=2000):
    """Repeated-sweep micro: the plan layer's fast paths vs the direct path.

    Models the sweep-service pattern the run-plan layer targets: the same
    (system, workload) sweep executed repeatedly in one process.  Three
    paths over the identical plan, all bit-identical by construction:

    * ``direct`` — fresh build, per-job prewarm, per-job synthesis (the
      historical per-sweep cost, the PR 3 baseline behaviour);
    * ``plan`` — trace-pool replay plus prewarm-snapshot cloning (warm
      pool/store, result cache off);
    * ``cached`` — warm content-addressed result cache: zero simulation.

    Besides the full-sweep walls, the stage isolates the *setup* phase the
    fast paths actually replace (trace materialization plus producing a
    prewarmed hierarchy per job, no simulation): the full-sweep delta is
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
                compiled(), snapshots=False, trace_memo=False
            ).results
            fast = lambda: plan_module.execute(compiled(), pool=pool).results  # noqa: E731
            cached = lambda: plan_module.execute(compiled(), pool=pool, cache=cache).results  # noqa: E731

            baseline = direct()
            plan_module._SNAPSHOT_BLOBS.clear()
            fast()  # warm the pool and the snapshot store once
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

            # Setup-only phase: what the snapshot store and trace memo
            # replace, isolated from the (dominant) simulation time.
            def direct_setup():
                traces = {
                    spec.name: compiled_plan.traces[spec.name].build() for spec in specs
                }
                for job in compiled_plan.jobs:
                    system = builders[job.system].factory()
                    system.prewarm(traces[job.trace].resident_addresses())

            scratch = plan_module.ExecutionStats()

            def plan_setup():
                for job in compiled_plan.jobs:
                    source = compiled_plan.traces[job.trace]
                    memo_key = plan_module._memo_key(source)
                    trace = plan_module._TRACE_MEMO.get(memo_key)
                    if trace is None:
                        trace = source.build()
                        plan_module._TRACE_MEMO[memo_key] = trace
                    builder = builders[job.system]
                    plan_module._prewarmed_system(
                        builder,
                        trace,
                        (builder.digest(), plan_module.trace_digest(trace)),
                        {},
                        scratch,
                    )

            compiled_plan = compiled()
            plan_setup()  # warm the memo and snapshot store
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
            raise AssertionError("snapshot+pool sweep diverged from direct — plan bug")
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
    run, and measures the raw ``query`` endpoint's throughput — the cost
    of a ``GET /results`` against the service.
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
    """Shared-state parallel execution vs the fork-per-sweep path, A/B.

    The persistent-pool leg (A) runs ``--workers N`` sweeps on pooled
    workers that share prewarm snapshots through the on-disk
    :class:`~repro.sim.plan.SnapshotStore` and pooled traces through
    ``mmap``; the fork-per-sweep leg (B) disables both
    (``REPRO_NO_POOL=1`` + ``REPRO_NO_SNAPSHOT_STORE=1``), reproducing
    the historical per-sweep behaviour: every sweep forks fresh workers
    and every worker re-prewarms privately.  Rounds are interleaved
    (A/B per round) to cancel wall-clock drift, the result cache is
    wiped before every round so each run actually simulates, and both
    legs are asserted bit-identical to the sequential reference.

    The stage also measures two *distinct* concurrent sweeps launched
    from threads against the same sweeps run back-to-back.  With the
    fork lock gone they interleave freely; the combined-vs-sum ratio is
    recorded (not asserted — a single-core box legitimately sits near
    1.0) while the cross-sweep bit-identity is asserted hard.
    """
    import shutil
    import tempfile
    import threading

    from repro.sim import plan as plan_module

    if not hasattr(os, "fork"):
        return {"skipped": "platform lacks os.fork"}

    specs = select_workloads(1)
    builders = conventional_builders()
    names = sorted(builders)
    half_a = {name: builders[name] for name in names[: len(names) // 2]}
    half_b = {name: builders[name] for name in names[len(names) // 2:]}
    compiled = lambda chosen: plan_module.compile_sweep(chosen, specs, instructions)  # noqa: E731

    pinned = os.environ.get("REPRO_SIM_VERSION")
    os.environ["REPRO_SIM_VERSION"] = "bench-local"
    try:
        with tempfile.TemporaryDirectory() as tmp:
            cache = plan_module.ResultCache(os.path.join(tmp, "cache"))
            results_dir = os.path.join(cache.directory, "results")

            def fresh_round():
                # Each timed run must simulate: drop the result tier but
                # keep the snapshot blobs and pooled traces (the state
                # under test), and drop the in-process snapshot L1 the
                # next fork would inherit.
                shutil.rmtree(results_dir, ignore_errors=True)
                plan_module._SNAPSHOT_BLOBS.clear()

            plan_module._SNAPSHOT_BLOBS.clear()
            baseline = plan_module.execute(compiled(builders)).results

            def pooled():
                return plan_module.execute(
                    compiled(builders), cache=cache, workers=workers
                )

            def fork_per_sweep():
                os.environ["REPRO_NO_POOL"] = "1"
                os.environ["REPRO_NO_SNAPSHOT_STORE"] = "1"
                try:
                    return plan_module.execute(
                        compiled(builders), cache=cache, workers=workers
                    )
                finally:
                    os.environ.pop("REPRO_NO_POOL", None)
                    os.environ.pop("REPRO_NO_SNAPSHOT_STORE", None)

            # Warm the snapshot store and trace pool, then prove the
            # cross-process contract: a fresh worker re-prewarms nothing
            # a sibling already prewarmed (disk hits, zero builds).
            fresh_round()
            pooled()
            plan_module.shutdown_worker_pool()
            fresh_round()
            first = pooled()
            if first.stats.snapshot_builds:
                raise AssertionError(
                    "fresh pool workers re-prewarmed despite the snapshot "
                    "store — blob sharing bug"
                )
            if not first.stats.snapshot_disk_hits:
                raise AssertionError("no snapshot disk hits — blob sharing bug")

            pooled_wall = fork_wall = None
            pooled_run = fork_run = None
            for _ in range(max(repeat, 3)):
                fresh_round()
                wall, pooled_run = _best_of(1, pooled)
                pooled_wall = wall if pooled_wall is None else min(pooled_wall, wall)
                fresh_round()
                wall, fork_run = _best_of(1, fork_per_sweep)
                fork_wall = wall if fork_wall is None else min(fork_wall, wall)
            if not pooled_run.stats.pool_reused:
                raise AssertionError("warm rounds never reused a pool worker")
            if fork_run.stats.pool_reused:
                raise AssertionError("REPRO_NO_POOL leg reused a pool worker")

            # Concurrent distinct sweeps: back-to-back vs threads.
            sequential_sum = 0.0
            for chosen in (half_a, half_b):
                fresh_round()
                wall, _ = _best_of(1, lambda: plan_module.execute(
                    compiled(chosen), cache=cache, workers=workers
                ))
                sequential_sum += wall
            fresh_round()
            concurrent_runs = [None, None]

            def sweep(index, chosen):
                concurrent_runs[index] = plan_module.execute(
                    compiled(chosen), cache=cache, workers=workers
                )

            threads = [
                threading.Thread(target=sweep, args=(index, chosen))
                for index, chosen in enumerate((half_a, half_b))
            ]
            start = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            concurrent_wall = time.perf_counter() - start

        if not _results_identical(baseline, pooled_run.results):
            raise AssertionError("pooled parallel sweep diverged — pool bug")
        if not _results_identical(baseline, fork_run.results):
            raise AssertionError("fork-per-sweep leg diverged — executor bug")
        concurrent_results = [
            result
            for run in concurrent_runs
            for result in run.results
        ]
        by_label = {
            (result.system, result.workload): result for result in baseline
        }
        reference = [
            by_label[(result.system, result.workload)]
            for result in concurrent_results
        ]
        if not _results_identical(reference, concurrent_results):
            raise AssertionError("concurrent sweeps diverged — pool bug")
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
        "fork_per_sweep_wall_s": fork_wall,
        "pooled_speedup_vs_fork": fork_wall / pooled_wall,
        "pooled_jobs_per_s": runs / pooled_wall,
        "snapshot_disk_hits_cold_pool": first.stats.snapshot_disk_hits,
        "sequential_sum_wall_s": sequential_sum,
        "concurrent_wall_s": concurrent_wall,
        "concurrent_vs_sum_ratio": concurrent_wall / sequential_sum,
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
    # Repeated-sweep micro: the snapshot+pool path's throughput is held
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
    if build_base and build_base.get("snapshots_per_s"):
        build_ratio = build_base["snapshots_per_s"] / build_new["snapshots_per_s"]
        print(
            f"baseline check: build+prewarm+pickle {build_new['snapshots_per_s']:,.1f} "
            f"systems/s vs committed {build_base['snapshots_per_s']:,.1f} systems/s "
            f"({build_ratio:.2f}x slowdown, limit {max_slowdown:.2f}x)"
        )
        if build_ratio > max_slowdown:
            raise SystemExit(
                f"build/prewarm micro regressed {build_ratio:.2f}x vs "
                f"{baseline_path} (limit {max_slowdown:.2f}x)"
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
    print("micro: scenario synthesis (vectorized vs scalar vs legacy) ...", flush=True)
    stages["micro_scenario_gen"] = micro_scenario_gen(args.repeat)
    print("micro: binary trace save/load ...", flush=True)
    stages["micro_trace_file"] = micro_trace_file(args.repeat)
    print("micro: hierarchy build, prewarm and snapshot pickle ...", flush=True)
    stages["micro_build_prewarm"] = micro_build_prewarm(args.repeat)
    print("micro: repeated sweep (direct vs snapshot+pool vs cached) ...", flush=True)
    stages["micro_sweep_cached"] = micro_sweep_cached(args.repeat, args.instructions)
    print("micro: result store vs result cache (warm hits, raw queries) ...", flush=True)
    stages["micro_store_query"] = micro_store_query(args.repeat, args.instructions)
    print("micro: parallel sweep (persistent pool vs fork-per-sweep) ...", flush=True)
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
        f"snapshot+pool {cached['plan_wall_s']:.2f}s "
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
            f"persistent pool {parallel['pooled_wall_s']:.2f}s, "
            f"fork-per-sweep {parallel['fork_per_sweep_wall_s']:.2f}s "
            f"({parallel['pooled_speedup_vs_fork']:.2f}x, bit-identical); "
            f"two concurrent sweeps {parallel['concurrent_wall_s']:.2f}s vs "
            f"{parallel['sequential_sum_wall_s']:.2f}s back-to-back "
            f"({parallel['concurrent_vs_sum_ratio']:.2f}x)"
        )
    build = stages["micro_build_prewarm"]
    print(
        "build/prewarm/pickle ("
        + ", ".join(
            f"{name} {entry['factory_s'] * 1e3:.1f}/{entry['prewarm_s'] * 1e3:.1f}/"
            f"{entry['pickle_s'] * 1e3:.1f} ms"
            for name, entry in build["systems"].items()
        )
        + f"): at most {build['max_tracked_objects_per_build']:,} tracked objects per build"
    )
    gen = stages["micro_scenario_gen"]
    if "vectorized_instructions_per_s" in gen:
        print(
            f"scenario synthesis: vectorized {gen['vectorized_instructions_per_s']:,.0f} instr/s "
            f"({gen['vectorized_speedup_vs_scalar']:.2f}x vs scalar reference, "
            f"{gen['vectorized_speedup_vs_legacy']:.2f}x vs legacy per-instruction)"
        )
    if args.check_baseline:
        check_against_baseline(stages, args.check_baseline, args.max_slowdown)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
