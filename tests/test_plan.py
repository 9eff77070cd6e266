"""Differential tests for the declarative run-plan layer.

The contract of :mod:`repro.sim.plan`: every fast path — file-backed
trace-pool replay, the content-addressed result cache, worker fan-out —
must be **bit-identical** (cycles, IPC, every activity and core counter)
to the direct path (fresh build, per-job prewarm, per-job synthesis,
sequential, uncached).  These tests enforce it across all four hierarchy
types, warm and cold.
"""

import json
import os
import threading
import warnings
from pathlib import Path

import pytest

from repro.cpu.workloads import workload_by_name
from repro.scenarios import records_bytes, scenario
from repro.scenarios.tracefile import map_trace
from repro.sim import faults, plan
from repro.sim.configs import (
    BuilderSpec,
    build_conventional_hierarchy,
    conventional_spec,
    dnuca_spec,
    lnuca_dnuca_spec,
    lnuca_l3_spec,
)
from repro.sim.plan import (
    ExecutionStats,
    JobSpec,
    ResultCache,
    TracePool,
    compile_sweep,
    execute,
    trace_digest,
    trace_source_for,
)
from repro.sim.faults import FaultPlan, FaultSpec
from repro.sim.memsys import MemorySystem
from repro.sim.runner import run_suite, run_workload

TINY = 1200

#: One representative of each of the paper's four hierarchy types.
FOUR_HIERARCHIES = {
    "L2-256KB": conventional_spec(),
    "LN2-72KB": lnuca_l3_spec(2),
    "DN-4x8": dnuca_spec(),
    "LN2+DN-4x8": lnuca_dnuca_spec(2),
}


def two_workloads():
    return [workload_by_name("mcf-like"), workload_by_name("milc-like")]


def result_tuple(result):
    """Everything a RunResult observes, for exact comparisons."""
    return (
        result.system,
        result.workload,
        result.category,
        result.ipc,
        result.cycles,
        result.instructions,
        result.activity,
        result.core_stats,
    )


def assert_identical(lhs, rhs):
    assert len(lhs) == len(rhs)
    for a, b in zip(lhs, rhs):
        assert result_tuple(a) == result_tuple(b)


@pytest.fixture
def cache(tmp_path, monkeypatch):
    """A writable result cache with a pinned (clean) simulator version."""
    monkeypatch.setenv("REPRO_SIM_VERSION", "test-version-1")
    return ResultCache(str(tmp_path / "cache"))


def _dummy_result(workload):
    from repro.sim.runner import RunResult

    return RunResult(
        system="dummy", workload=workload, category="int",
        ipc=1.0, cycles=100.0, instructions=100.0, activity={}, core_stats={},
    )


# ------------------------------------------------------------------ prewarm
class TestSnapshotBitIdentity:
    """Every job builds and prewarms its own hierarchy (prewarm snapshots
    are gone), so a plan's warm and cold jobs equal ``run_workload``."""

    @pytest.mark.parametrize("name", sorted(FOUR_HIERARCHIES))
    def test_snapshot_clone_matches_fresh_prewarm(self, name):
        """Repeated warm jobs of one (builder, trace) pair each equal
        direct run_workload: no state leaks from one job into the next."""
        spec = two_workloads()[0]
        builder = FOUR_HIERARCHIES[name]
        direct = run_workload(builder.factory, spec, TINY, prewarm=True)
        direct.system = name
        compiled = compile_sweep({name: builder}, [spec], TINY)
        compiled.jobs = compiled.jobs * 3
        planned = execute(compiled)
        assert_identical([direct, direct, direct], planned.results)

    @pytest.mark.parametrize("name", sorted(FOUR_HIERARCHIES))
    def test_cold_runs_match_direct(self, name):
        """prewarm=False plans take the fresh-build path and stay identical."""
        spec = two_workloads()[0]
        builder = FOUR_HIERARCHIES[name]
        direct = run_workload(builder.factory, spec, TINY, prewarm=False)
        direct.system = name
        planned = execute(compile_sweep({name: builder}, [spec], TINY, prewarm=False))
        assert_identical([direct], planned.results)

    def test_cold_cached_sweep_never_pickles_a_hierarchy(self, cache, monkeypatch):
        """A cached sweep neither pickles a hierarchy nor writes a
        ``snapshots/`` directory, whatever pickling a system would do."""
        def refuse(self, protocol):
            raise AssertionError(f"{type(self).__name__} pickled")

        monkeypatch.setattr(MemorySystem, "__reduce_ex__", refuse, raising=False)
        spec = two_workloads()[0]
        planned = execute(compile_sweep(FOUR_HIERARCHIES, [spec], TINY), cache=cache)
        assert planned.stats.simulated == len(FOUR_HIERARCHIES)
        direct = []
        for name, builder in FOUR_HIERARCHIES.items():
            result = run_workload(builder.factory, spec, TINY)
            result.system = name
            direct.append(result)
        assert_identical(direct, planned.results)
        assert not os.path.exists(os.path.join(cache.directory, "snapshots"))

    def test_adhoc_lambda_builders_still_run(self):
        """Plain callables (no digest) execute; they only skip the cache."""
        builders = {"adhoc": build_conventional_hierarchy}
        assert BuilderSpec(key="adhoc", factory=build_conventional_hierarchy).digest() is None
        results = run_suite(builders, two_workloads()[:1], TINY)
        direct = run_workload(build_conventional_hierarchy, two_workloads()[0], TINY)
        direct.system = "adhoc"
        assert_identical([direct], results)


# ------------------------------------------------------------------- workers
class TestWorkers:
    def test_workers_identical_to_sequential(self):
        specs = two_workloads()
        sequential = run_suite(FOUR_HIERARCHIES, specs, TINY, workers=0)
        parallel = run_suite(FOUR_HIERARCHIES, specs, TINY, workers=2)
        assert_identical(sequential, parallel)

    def test_workers_with_cache_populate_and_replay(self, cache):
        specs = two_workloads()
        first = run_suite(FOUR_HIERARCHIES, specs, TINY, workers=2, cache=cache)
        warm = execute(compile_sweep(FOUR_HIERARCHIES, specs, TINY), cache=cache)
        assert warm.stats.simulated == 0
        assert warm.stats.cached == len(first)
        assert_identical(first, warm.results)


# ---------------------------------------------------------------- trace pool
class TestTracePool:
    def test_pool_replay_is_byte_identical_to_synthesis(self, tmp_path):
        spec = scenario("kv-zipf-hot")
        source = trace_source_for(spec, TINY)
        synthesized = source.build()
        pool = TracePool(str(tmp_path / "pool"))
        stats = ExecutionStats()
        captured = pool.fetch(source, stats)  # first fetch synthesizes + saves
        replayed = pool.fetch(source, stats)  # second fetch replays the file
        assert stats.pool_saves == 1 and stats.pool_loads == 1
        assert records_bytes(replayed) == records_bytes(synthesized)
        assert trace_digest(replayed) == trace_digest(synthesized)

    def test_pooled_runs_match_unpooled(self, tmp_path):
        specs = [scenario("kv-zipf-hot"), scenario("gups-8m")]
        builders = {"L2-256KB": conventional_spec()}
        unpooled = run_suite(builders, specs, TINY)
        pool = TracePool(str(tmp_path / "pool"))
        run_suite(builders, specs, TINY, pool=pool)  # populates the pool
        pooled = run_suite(builders, specs, TINY, pool=pool)  # replays it
        assert_identical(unpooled, pooled)

    @pytest.mark.parametrize("op", ["corrupt", "truncate", "delete"])
    def test_damaged_entry_is_regenerated(self, tmp_path, op):
        """A capture damaged after its save is rebuilt, never replayed (a
        truncated one keeps a current header over cut records)."""
        source = trace_source_for(scenario("kv-zipf-hot"), TINY)
        synthesized = source.build()
        pool = TracePool(str(tmp_path / "pool"))
        stats = ExecutionStats()
        try:
            faults.install(FaultPlan(specs=[FaultSpec(site="trace-pool", op=op)]))
            pool.fetch(source)
            faults.install(FaultPlan())
            regenerated = pool.fetch(source, stats)
            healed = pool.fetch(source, stats)
        finally:
            faults.reset()
        assert stats.pool_saves == 1 and stats.pool_loads == 1
        assert records_bytes(regenerated) == records_bytes(synthesized)
        assert records_bytes(healed) == records_bytes(synthesized)

    def test_same_name_workload_and_scenario_entries_coexist(self, tmp_path):
        """The spec2006 port reuses legacy workload names; the two sources
        have incompatible signatures and must not fight over one file."""
        workload_src = trace_source_for(workload_by_name("mcf-like"), 500)
        scenario_src = trace_source_for(scenario("mcf-like"), 500)
        pool = TracePool(str(tmp_path / "pool"))
        assert pool.path_for(workload_src) != pool.path_for(scenario_src)
        pool.fetch(workload_src)
        pool.fetch(scenario_src)
        stats = ExecutionStats()
        pool.fetch(workload_src, stats)
        pool.fetch(scenario_src, stats)
        assert stats.pool_loads == 2 and stats.pool_saves == 0  # no churn

    def test_custom_factory_scenario_source_is_opaque(self):
        """A non-registry factory must not publish the catalog signature,
        or the memo/pool would serve custom content under the catalog
        identity."""
        source = trace_source_for(
            scenario("kv-zipf-hot"), 500, trace_factory=lambda spec, n: None
        )
        assert source.signature is None
        assert source.kind == "opaque"

    def test_workload_sources_pool_too(self, tmp_path):
        spec = two_workloads()[0]
        source = trace_source_for(spec, TINY)
        assert source.signature is not None
        pool = TracePool(str(tmp_path / "pool"))
        stats = ExecutionStats()
        first = pool.fetch(source, stats)
        second = pool.fetch(source, stats)
        assert stats.pool_loads == 1
        assert records_bytes(first) == records_bytes(second)


# -------------------------------------------------------------- result cache
class TestResultCache:
    def test_warm_cache_simulates_nothing_and_is_bit_identical(self, cache):
        specs = two_workloads()
        cold = execute(compile_sweep(FOUR_HIERARCHIES, specs, TINY), cache=cache)
        assert cold.stats.simulated == len(cold.results)
        warm = execute(compile_sweep(FOUR_HIERARCHIES, specs, TINY), cache=cache)
        assert warm.stats.simulated == 0
        assert warm.stats.cached == len(cold.results)
        assert_identical(cold.results, warm.results)
        uncached = run_suite(FOUR_HIERARCHIES, specs, TINY)
        assert_identical(uncached, warm.results)

    def test_cache_preserves_value_types(self, cache):
        """JSON round trip keeps ints ints and floats floats, so every
        downstream formatter and CSV writer emits identical bytes."""
        spec = two_workloads()[0]
        builders = {"L2-256KB": conventional_spec()}
        cold = execute(compile_sweep(builders, [spec], TINY), cache=cache).results[0]
        warm = execute(compile_sweep(builders, [spec], TINY), cache=cache).results[0]
        assert type(warm.cycles) is type(cold.cycles)
        assert type(warm.ipc) is type(cold.ipc)
        for key, value in cold.activity.items():
            assert type(warm.activity[key]) is type(value), key

    def test_label_reapplied_on_hit(self, cache):
        """The cache key excludes the display label: an identical
        architecture under a different name reuses the entry."""
        spec = two_workloads()[0]
        execute(compile_sweep({"first-label": lnuca_l3_spec(2)}, [spec], TINY), cache=cache)
        warm = execute(
            compile_sweep({"second-label": lnuca_l3_spec(2)}, [spec], TINY), cache=cache
        )
        assert warm.stats.cached == 1
        assert warm.results[0].system == "second-label"

    def test_different_builder_params_miss(self, cache):
        spec = two_workloads()[0]
        execute(compile_sweep({"LN2": lnuca_l3_spec(2)}, [spec], TINY), cache=cache)
        other = execute(compile_sweep({"LN2": lnuca_l3_spec(3)}, [spec], TINY), cache=cache)
        assert other.stats.cached == 0

    def test_dirty_simulator_version_bypasses_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_VERSION", "abc123-dirty")
        monkeypatch.setattr(plan, "_DIRTY_WARNED", False)
        cache = ResultCache(str(tmp_path / "cache"))
        spec = two_workloads()[0]
        builders = {"L2-256KB": conventional_spec()}
        with pytest.warns(RuntimeWarning, match="result cache bypassed"):
            first = execute(compile_sweep(builders, [spec], TINY), cache=cache)
        second = execute(compile_sweep(builders, [spec], TINY), cache=cache)
        # Both passes simulated; nothing was written to the cache directory.
        assert first.stats.simulated == 1 and second.stats.simulated == 1
        assert second.stats.cached == 0
        assert not os.path.exists(os.path.join(str(tmp_path / "cache"), "results"))
        assert_identical(first.results, second.results)

    def test_unknown_simulator_version_bypasses_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_VERSION", "unknown")
        monkeypatch.setattr(plan, "_DIRTY_WARNED", False)
        cache = ResultCache(str(tmp_path / "cache"))
        spec = two_workloads()[0]
        with pytest.warns(RuntimeWarning, match="result cache bypassed"):
            run = execute(
                compile_sweep({"L2-256KB": conventional_spec()}, [spec], TINY), cache=cache
            )
        assert run.stats.simulated == 1
        assert not os.path.exists(os.path.join(str(tmp_path / "cache"), "results"))

    def _entry_paths(self, cache):
        root = os.path.join(cache.directory, "results")
        return [
            os.path.join(directory, name)
            for directory, _, names in os.walk(root)
            for name in names
        ]

    def test_corrupt_entry_discarded_with_warning(self, cache):
        spec = two_workloads()[0]
        builders = {"L2-256KB": conventional_spec()}
        cold = execute(compile_sweep(builders, [spec], TINY), cache=cache)
        (entry,) = self._entry_paths(cache)
        with open(entry, "w", encoding="utf-8") as handle:
            handle.write('{"schema": 1, "result": {"system": "L2-256')  # truncated
        with pytest.warns(RuntimeWarning, match="discarding corrupt entry"):
            rerun = execute(compile_sweep(builders, [spec], TINY), cache=cache)
        # The corrupt entry was discarded, re-simulated, and re-written.
        assert rerun.stats.simulated == 1
        assert_identical(cold.results, rerun.results)
        with open(self._entry_paths(cache)[0], "r", encoding="utf-8") as handle:
            assert json.load(handle)["result"]["system"] == "L2-256KB"

    def test_wrong_typed_entry_discarded(self, cache):
        spec = two_workloads()[0]
        builders = {"L2-256KB": conventional_spec()}
        execute(compile_sweep(builders, [spec], TINY), cache=cache)
        (entry,) = self._entry_paths(cache)
        with open(entry, "w", encoding="utf-8") as handle:
            json.dump({"schema": 1, "result": {"system": "x", "activity": 3}}, handle)
        with pytest.warns(RuntimeWarning, match="discarding corrupt entry"):
            rerun = execute(compile_sweep(builders, [spec], TINY), cache=cache)
        assert rerun.stats.simulated == 1

    def test_non_object_entry_discarded(self, cache):
        """Valid JSON that is not an object is a corrupt entry, not a crash."""
        key = "ef" * 32
        cache.put(key, _dummy_result("wl"))
        Path(cache._path(key)).write_text("[]", encoding="utf-8")
        with pytest.warns(RuntimeWarning, match="discarding corrupt entry"):
            assert cache.get(key) is None
        assert not os.path.exists(cache._path(key))

    @pytest.mark.parametrize("caller", ["get", "verify", "ingest_cache"])
    def test_wrong_schema_entry(self, cache, tmp_path, caller):
        """An entry written under another ``RESULT_SCHEMA``: a lookup
        misses quietly and keeps the file, ``verify`` counts and deletes
        it as corrupt, and the store's ingest skips it."""
        from repro.sim.store import ResultStore

        key = "cd" * 32
        cache.put(key, _dummy_result("wl"))
        path = cache._path(key)
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
        payload["schema"] = plan.RESULT_SCHEMA + 1
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
        if caller == "get":
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert cache.get(key) is None
            assert os.path.exists(path)
        elif caller == "verify":
            with pytest.warns(RuntimeWarning, match="corrupt entry"):
                report = cache.verify()
            assert (report["checked"], report["corrupt"], report["deleted"]) == (1, 1, 1)
            assert not os.path.exists(path)
        else:
            store = ResultStore(str(tmp_path / "results.sqlite"))
            try:
                report = store.ingest_cache(cache)
                assert report == {"scanned": 1, "ingested": 0, "skipped": 1}
                assert store.get(key) is None
            finally:
                store.close()
            assert os.path.exists(path)

    def test_size_cap_prunes_oldest_access_entries(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_VERSION", "test-version-1")
        cache = ResultCache(str(tmp_path / "cache"), limit_mb=0.5)
        now = 1_700_000_000
        for index in range(6):
            cache.put(f"{index:064x}", _dummy_result(f"wl{index}"))
            path = cache._path(f"{index:064x}")
            os.utime(path, (now + index, now + index))  # distinct access order
        # Inflate every entry far past the cap so pruning must evict.
        for path in self._entry_paths(cache):
            with open(path, "r+", encoding="utf-8") as handle:
                payload = json.load(handle)
                payload["padding"] = "x" * 200_000
                handle.seek(0)
                json.dump(payload, handle)
        for index, path in enumerate(sorted(self._entry_paths(cache))):
            os.utime(path, (now + index, now + index))
        deleted = cache.prune()
        assert deleted > 0
        survivors = sorted(self._entry_paths(cache))
        # Oldest-access entries went first: the survivors are the newest.
        expected = sorted(cache._path(f"{i:064x}") for i in range(6))[6 - len(survivors):]
        assert survivors == expected

    def test_warm_hit_bit_identical_after_pruning_unrelated_entries(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_SIM_VERSION", "test-version-1")
        cache = ResultCache(str(tmp_path / "cache"), limit_mb=2048.0)
        specs = two_workloads()
        builders = {"L2-256KB": conventional_spec()}
        cold = execute(compile_sweep(builders, specs, TINY), cache=cache)
        assert cold.stats.simulated == len(cold.results)
        # Flood the cache with unrelated entries, then squeeze the budget:
        # the flood is older than the real entries' last access, so pruning
        # removes only the flood.
        for index in range(40):
            cache.put(f"{index:064x}", _dummy_result(f"junk{index}"))
        before = len(self._entry_paths(cache))
        execute(compile_sweep(builders, specs, TINY), cache=cache)  # refresh LRU stamps
        # Budget fits the two refreshed real entries (result row plus digest
        # provenance meta) and nothing else.
        cache.limit_bytes = 4096
        assert cache.prune() > 0
        assert len(self._entry_paths(cache)) < before
        warm = execute(compile_sweep(builders, specs, TINY), cache=cache)
        assert warm.stats.simulated == 0
        assert warm.stats.cached == len(cold.results)
        assert_identical(cold.results, warm.results)

    def test_env_limit_and_put_amortised_prune(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_VERSION", "test-version-1")
        monkeypatch.setenv("REPRO_CACHE_LIMIT_MB", "0.001")  # ~1 KB budget
        cache = ResultCache(str(tmp_path / "cache"))
        assert cache.limit_bytes == 1048  # 0.001 MB
        for index in range(ResultCache.PRUNE_EVERY + 2):
            cache.put(f"{index:064x}", _dummy_result(f"wl{index}"))
        # Writes audit the size periodically, so the cache cannot grow
        # without bound even though no one called prune() explicitly.
        total = sum(os.path.getsize(path) for path in self._entry_paths(cache))
        assert total <= 1048 + 1024  # budget plus at most a few fresh puts

    @pytest.mark.parametrize("limit_mb, audits", [(None, 0), (1024.0, 2)])
    def test_put_audits_size_only_under_a_limit(
        self, tmp_path, monkeypatch, limit_mb, audits
    ):
        """An unlimited cache never walks its tree on a write; a capped one
        audits on its first write and then once every ``PRUNE_EVERY``."""
        monkeypatch.delenv("REPRO_CACHE_LIMIT_MB", raising=False)
        cache = ResultCache(str(tmp_path / "cache"), limit_mb=limit_mb)
        calls = []
        monkeypatch.setattr(cache, "prune", lambda: calls.append(None) or 0)
        for index in range(ResultCache.PRUNE_EVERY + 2):
            cache.put(f"{index:064x}", _dummy_result(f"wl{index}"))
        assert len(calls) == audits
        assert len(self._entry_paths(cache)) == ResultCache.PRUNE_EVERY + 2

    def test_entries_reads_each_entry_the_way_a_lookup_does(self, cache):
        """``entries`` yields every entry once, with the result and meta a
        lookup would rebuild, or ``None`` for one no lookup would serve;
        it skips a writer's tmp leftover and deletes nothing."""
        good = {"aa" * 32: _dummy_result("wl-a"), "ab" * 32: _dummy_result("wl-b")}
        for key, result in good.items():
            cache.put(key, result, meta={"mode": "event", "note": key[:4]})
        corrupt, other = "ba" * 32, "bb" * 32
        cache.put(corrupt, _dummy_result("wl-c"))
        Path(cache._path(corrupt)).write_text('{"schema": 1, "resu', encoding="utf-8")
        cache.put(other, _dummy_result("wl-d"))
        path = Path(cache._path(other))
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["schema"] = plan.RESULT_SCHEMA + 1
        path.write_text(json.dumps(payload), encoding="utf-8")
        Path(cache._path("aa" * 32) + ".tmp").write_text("leftover", encoding="utf-8")
        before = sorted(self._entry_paths(cache))

        listed = list(cache.entries())
        assert sorted(key for key, _, _ in listed) == sorted([*good, corrupt, other])
        seen = {key: (result, meta) for key, result, meta in listed}
        for key, result in good.items():
            assert result_tuple(seen[key][0]) == result_tuple(result)
            assert seen[key][1] == {"mode": "event", "note": key[:4]}
        assert seen[corrupt] == (None, None)
        assert seen[other] == (None, None)
        assert sorted(self._entry_paths(cache)) == before

    def test_housekeeping_touches_only_results(self, cache):
        """``verify`` and ``prune`` walk ``results/`` alone: a ``journals/``
        an older version left, however old, and the trace pool beside it
        are neither counted nor deleted."""
        for index in range(2):
            cache.put(f"{index:064x}", _dummy_result(f"wl{index}"))
        journal = Path(cache.directory) / "journals" / "abandoned.jsonl"
        trace = Path(cache.directory) / "traces" / "mcf-like-1200.lntr"
        for path in (journal, trace):
            path.parent.mkdir(parents=True)
            path.write_text("{}\n", encoding="utf-8")
            stamp = os.path.getmtime(path) - 30 * 86400.0
            os.utime(path, (stamp, stamp))
        report = cache.verify()
        assert report == {"checked": 2, "corrupt": 0, "stale_tmp": 0, "deleted": 0}
        cache.limit_bytes = 0
        assert cache.prune() == 2
        assert self._entry_paths(cache) == []
        assert journal.exists() and trace.exists()


# ---------------------------------------------------------- concurrent writers
class TestConcurrentWriters:
    """Two threads of one process (a service's concurrent sweeps) saving
    the same entry at once: both saves land, and the entry reads back."""

    @staticmethod
    def _both_write_then_replace(monkeypatch, save) -> list:
        """Run ``save(thread_index)`` in two threads, holding each writer
        between writing its tmp file and ``os.replace`` until both have
        written; returns the warnings raised."""
        barrier = threading.Barrier(2, timeout=30)
        real_replace = os.replace

        def replace(src, dst):
            barrier.wait()
            return real_replace(src, dst)

        errors = []

        def run(index):
            try:
                save(index)
            except Exception as exc:  # surfaced below, in the test thread
                errors.append(exc)

        with monkeypatch.context() as patch, warnings.catch_warnings(record=True) as caught:
            patch.setattr(os, "replace", replace)
            warnings.simplefilter("always")
            threads = [threading.Thread(target=run, args=(index,)) for index in (0, 1)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        return [str(warning.message) for warning in caught]

    def test_trace_pool_saves_of_one_entry_both_land(self, tmp_path, monkeypatch):
        source = trace_source_for(scenario("kv-zipf-hot"), TINY)
        trace = source.build()
        pool = TracePool(str(tmp_path / "pool"))
        stats = [ExecutionStats(), ExecutionStats()]
        caught = self._both_write_then_replace(
            monkeypatch, lambda index: pool.ensure(source, trace, stats[index])
        )
        assert caught == []
        assert [part.pool_saves for part in stats] == [1, 1]
        path = pool.path_for(source)
        assert os.listdir(pool.directory) == [os.path.basename(path)]
        assert records_bytes(map_trace(path)) == records_bytes(trace)

    def test_result_cache_puts_of_one_entry_both_land(self, cache, monkeypatch):
        key = "ab" * 32
        result = _dummy_result("wl")
        caught = self._both_write_then_replace(
            monkeypatch, lambda index: cache.put(key, result)
        )
        assert caught == []
        entry = cache._path(key)
        assert os.listdir(os.path.dirname(entry)) == [os.path.basename(entry)]
        assert result_tuple(cache.get(key)) == result_tuple(result)


# ------------------------------------------------------------------ the plan
class TestPlanCompilation:
    def test_jobs_are_hashable_and_ordered(self):
        compiled = compile_sweep(FOUR_HIERARCHIES, two_workloads(), TINY)
        assert len(set(compiled.jobs)) == len(compiled.jobs) == 8
        # Historical sweep order: systems outer, specs inner.
        assert [job.system for job in compiled.jobs[:2]] == ["L2-256KB", "L2-256KB"]
        assert isinstance(hash(compiled.jobs[0]), int)

    def test_pregenerated_traces_short_circuit(self):
        spec = two_workloads()[0]
        from repro.cpu.workloads import generate_trace

        trace = generate_trace(spec, TINY)
        compiled = compile_sweep(
            {"L2-256KB": conventional_spec()}, [spec], TINY, traces={spec.name: trace}
        )
        source = compiled.traces[spec.name]
        assert source.signature is None  # inline traces are not pooled
        assert source.build() is trace


# --------------------------------------------------------------- warm report
class TestWarmReport:
    def test_second_report_pass_is_cached_and_byte_identical(self, tmp_path, cache):
        """The acceptance criterion: a warm-cache report performs zero
        simulation and reproduces every artifact byte for byte."""
        from repro.experiments import report as report_module

        out = str(tmp_path / "out")
        with plan.collect_stats() as cold_stats:
            report_module.write_report(out, num_instructions=600, per_category=1, cache=cache)
        assert cold_stats.simulated > 0
        artifacts = sorted(
            name for name in os.listdir(out) if name.endswith((".md", ".csv"))
        )
        first_bytes = {name: (Path(out) / name).read_bytes() for name in artifacts}
        with plan.collect_stats() as warm_stats:
            report_module.write_report(out, num_instructions=600, per_category=1, cache=cache)
        assert warm_stats.simulated == 0
        assert warm_stats.cached == cold_stats.simulated + cold_stats.cached
        for name in artifacts:
            assert (Path(out) / name).read_bytes() == first_bytes[name], name

    def test_warm_report_builds_no_hierarchy(self, tmp_path, cache, monkeypatch):
        """A warm report pays for cache reads and rendering only: it builds
        no hierarchy (energy models come from the builder specs) and
        allocates no cache array."""
        from repro.cache.array import SetAssociativeArray
        from repro.experiments import report as report_module
        from repro.sim import configs

        out = str(tmp_path / "out")
        report_module.write_report(out, num_instructions=300, per_category=1, cache=cache)
        built = []
        for name in (
            "build_conventional_hierarchy",
            "build_lnuca_l3_hierarchy",
            "build_dnuca_hierarchy",
            "build_lnuca_dnuca_hierarchy",
        ):
            def counting(*args, _name=name, _original=getattr(configs, name), **kwargs):
                built.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(configs, name, counting)
        arrays = []
        original_init = SetAssociativeArray.__init__

        def counting_init(array, *args, **kwargs):
            arrays.append(array)
            original_init(array, *args, **kwargs)

        monkeypatch.setattr(SetAssociativeArray, "__init__", counting_init)
        with plan.collect_stats() as warm_stats:
            report_module.write_report(out, num_instructions=300, per_category=1, cache=cache)
        assert warm_stats.simulated == 0 and warm_stats.cached > 0
        assert built == []
        assert arrays == []


# ------------------------------------------------------------- stats sinks
class TestCollectStats:
    def test_nested_collectors_are_removed_by_identity(self):
        """An inner collector exiting with counts equal to the outer's must
        remove itself, not the outer one."""
        compiled = compile_sweep(
            {"L2-256KB": conventional_spec()}, two_workloads()[:1], TINY
        )
        with plan.collect_stats() as outer:
            with plan.collect_stats() as inner:
                assert inner == outer  # both still all-zero
            execute(compiled)
        assert outer.simulated == 1
        assert inner.simulated == 0
        assert not any(collector is outer for collector in plan._COLLECTORS)
