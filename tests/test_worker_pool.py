"""Differential tests for the shared-state parallel execution substrate.

Three layers, one contract — bit-identical to sequential by construction:

* the **persistent worker pool**: workers outlive ``execute()`` calls,
  are reused across sweeps (and across concurrent sweeps from threads —
  the old ``_FORK_LOCK`` is gone), and are recycled per supervision
  policy without changing a single result;
* the **on-disk snapshot blob store**: a prewarm snapshot built by any
  process is consumed by any other with zero redundant prewarm
  (``snapshot_disk_hits`` > 0, ``snapshot_builds`` == 0), and a corrupt
  blob is discarded and rebuilt fresh;
* the **mmap trace path**: a pooled ``.lntr`` capture replayed through
  ``mmap`` decodes to exactly the bytes, digest, and instructions of the
  eager loader (``REPRO_NO_MMAP=1`` fallback included).
"""

import dataclasses
import os
import shutil
import threading
from collections import OrderedDict

import pytest

from repro.scenarios.tracefile import MappedTrace, load_trace, map_trace, records_bytes
from repro.sim import faults, plan
from repro.sim.configs import (
    conventional_spec,
    dnuca_spec,
    lnuca_dnuca_spec,
    lnuca_l3_spec,
)
from repro.sim.faults import FaultPlan, FaultSpec
from repro.sim.plan import (
    ExecutionStats,
    ResultCache,
    SnapshotStore,
    SupervisionPolicy,
    TracePool,
    compile_sweep,
    configure_worker_pool,
    execute,
    shutdown_worker_pool,
    trace_digest,
    trace_source_for,
    worker_pool_stats,
)

from tests.test_plan import (
    FOUR_HIERARCHIES,
    TINY,
    assert_identical,
    result_tuple,
    two_workloads,
)

FAST = SupervisionPolicy(backoff_base=0.01)


@pytest.fixture(autouse=True)
def isolated_faults():
    faults.install(FaultPlan())
    yield
    faults.reset()


@pytest.fixture(autouse=True)
def pool_defaults():
    """Each test starts from an empty pool with default knobs."""
    shutdown_worker_pool()
    yield
    plan._POOL.size_override = None
    plan._POOL.max_jobs_override = None
    shutdown_worker_pool()


@pytest.fixture
def cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_SIM_VERSION", "test-version-1")
    return ResultCache(str(tmp_path / "cache"))


def small_plan():
    builders = {"L2-256KB": conventional_spec(), "LN2-72KB": lnuca_l3_spec(2)}
    return compile_sweep(builders, two_workloads(), TINY)


def other_plan():
    builders = {"DN-4x8": dnuca_spec(), "LN2+DN-4x8": lnuca_dnuca_spec(2)}
    return compile_sweep(builders, two_workloads(), TINY)


def reference_results(compiled):
    faults.install(FaultPlan())
    run = execute(compiled)
    assert not run.failures
    return run.results


def snapshot_blob_paths(cache):
    root = os.path.join(cache.directory, "snapshots")
    return sorted(
        os.path.join(dirpath, name)
        for dirpath, _, names in os.walk(root)
        for name in names
        if name.endswith(".blob")
    )


class TestPersistentPool:
    def test_workers_reused_across_consecutive_executes(self):
        """The second sweep runs on the first sweep's workers — no forks."""
        compiled = small_plan()
        reference = reference_results(compiled)
        before = worker_pool_stats()
        first = execute(compiled, workers=2, supervision=FAST)
        mid = worker_pool_stats()
        assert mid["forked"] - before["forked"] == 2
        assert mid["idle"] == 2  # parked, not torn down
        second = execute(compiled, workers=2, supervision=FAST)
        after = worker_pool_stats()
        assert after["forked"] == mid["forked"]  # nothing respawned
        assert after["reused"] - mid["reused"] == 2
        assert first.stats.pool_reused == 0
        assert second.stats.pool_reused == 2
        assert_identical(first.results, reference)
        assert_identical(second.results, reference)

    def test_fork_lock_is_gone(self):
        assert not hasattr(plan, "_FORK_LOCK")

    def test_concurrent_executes_from_threads(self):
        """Two sweeps in flight at once, both bit-identical to sequential."""
        plans = [small_plan(), other_plan()]
        references = [reference_results(compiled) for compiled in plans]
        runs = [None, None]
        errors = []

        def sweep(index):
            try:
                runs[index] = execute(plans[index], workers=2, supervision=FAST)
            except Exception as exc:  # pragma: no cover - the assert reports it
                errors.append(exc)

        threads = [
            threading.Thread(target=sweep, args=(index,)) for index in (0, 1)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
        assert not errors
        for run, reference in zip(runs, references):
            assert run is not None and not run.failures
            assert_identical(run.results, reference)

    def test_crashed_worker_is_replaced_by_a_fresh_fork(self):
        compiled = small_plan()
        reference = reference_results(compiled)
        faults.install(FaultPlan(specs=[
            FaultSpec(site="worker-job", op="crash", nth=0, attempt=0),
        ]))
        before = worker_pool_stats()
        run = execute(compiled, workers=2, supervision=FAST)
        after = worker_pool_stats()
        assert not run.failures
        assert run.stats.retries >= 1
        # Two initial forks plus at least one replacement for the crash.
        assert after["forked"] - before["forked"] >= 3
        assert_identical(run.results, reference)

    def test_worker_recycle_fault_discards_instead_of_pooling(self):
        compiled = small_plan()
        reference = reference_results(compiled)
        faults.install(FaultPlan(specs=[
            FaultSpec(site="worker-recycle", op="kill", nth=0),
        ]))
        before = worker_pool_stats()
        run = execute(compiled, workers=2, supervision=FAST)
        after = worker_pool_stats()
        assert not run.failures
        assert after["recycled"] - before["recycled"] == 1
        assert after["idle"] == 1  # the other worker still pooled
        assert_identical(run.results, reference)

    def test_max_jobs_recycles_workers(self):
        compiled = small_plan()
        reference = reference_results(compiled)
        configure_worker_pool(max_jobs=1)
        before = worker_pool_stats()
        run = execute(compiled, workers=2, supervision=FAST)
        after = worker_pool_stats()
        assert not run.failures
        assert after["recycled"] - before["recycled"] == 2
        assert after["idle"] == 0
        assert_identical(run.results, reference)

    def test_pool_size_zero_disables_retention(self):
        compiled = small_plan()
        configure_worker_pool(size=0)
        run = execute(compiled, workers=2, supervision=FAST)
        assert not run.failures
        assert worker_pool_stats()["idle"] == 0

    def test_no_pool_env_discards_on_release(self, monkeypatch):
        compiled = small_plan()
        monkeypatch.setenv("REPRO_NO_POOL", "1")
        first = execute(compiled, workers=2, supervision=FAST)
        assert worker_pool_stats()["idle"] == 0
        second = execute(compiled, workers=2, supervision=FAST)
        assert second.stats.pool_reused == 0
        assert_identical(first.results, second.results)

    def test_describe_appends_pool_counters(self):
        text = ExecutionStats().describe()
        # Existing CI greps key off these exact "token=value " shapes.
        assert "cached=0 " in text
        assert "simulated=0 " in text
        assert "retries=0 " in text
        assert "pool_reused=0 " in text
        assert text.endswith("snapshot_disk_hits=0")

    def test_add_sums_pool_counters(self):
        total = ExecutionStats()
        part = ExecutionStats(pool_reused=2, snapshot_disk_hits=3)
        total.add(part)
        total.add(part)
        assert total.pool_reused == 4
        assert total.snapshot_disk_hits == 6

    def test_add_merges_every_counter(self):
        # Each pool-worker reply carries its ExecutionStats delta, which
        # the supervisor merges with add: a field add skips is lost.
        names = [field.name for field in dataclasses.fields(ExecutionStats)]
        part = ExecutionStats(**{name: index + 1 for index, name in enumerate(names)})
        total = ExecutionStats()
        total.add(part)
        total.add(part)
        for index, name in enumerate(names):
            # workers_effective is a peak, not a count.
            expected = index + 1 if name == "workers_effective" else 2 * (index + 1)
            assert getattr(total, name) == expected, name

    def test_healthz_reports_worker_pool(self):
        from repro.service.manager import SweepManager

        payload = SweepManager().healthz()
        assert set(payload["worker_pool"]) == {
            "idle", "forked", "reused", "recycled", "discarded",
        }
        assert payload["executor"]["pool_reused"] == 0
        assert payload["executor"]["snapshot_disk_hits"] == 0

    def test_healthz_executor_fields(self):
        from repro.service.manager import SweepManager

        payload = SweepManager().healthz()
        assert set(payload["executor"]) == {
            "jobs", "simulated", "cached", "store_hits", "inflight_hits",
            "retries", "timeouts", "quarantined", "pool_reused",
            "snapshot_disk_hits", "degraded",
        }

    @pytest.mark.parametrize("prewarm", [True, False], ids=["warm", "cold"])
    def test_fresh_workers_match_direct_path(self, cache, prewarm):
        """Fresh workers, decoding every trace from its pool file, give
        the direct path's results on all four hierarchy types."""
        compiled = compile_sweep(
            FOUR_HIERARCHIES, two_workloads(), TINY, prewarm=prewarm
        )
        reference = reference_results(compiled)
        first = execute(compiled, cache=cache)  # writes the pool files
        assert_identical(first.results, reference)
        assert os.listdir(os.path.join(cache.directory, "traces"))
        # Drop every warm tier a worker could inherit over fork.
        shutil.rmtree(os.path.join(cache.directory, "results"))
        plan._TRACE_MEMO.clear()
        plan._SNAPSHOT_BLOBS.clear()
        shutdown_worker_pool()
        second = execute(compiled, workers=2, cache=cache, supervision=FAST)
        assert not second.failures
        assert second.stats.simulated == len(compiled.jobs)
        assert_identical(second.results, reference)


class TestOneJobRunner:
    """Pool-worker jobs and in-process jobs run through one function.

    ``_run_payload`` rebuilds a job's inputs from its shipped payload and
    hands them to ``_run_job``, as :func:`execute` does in-process: fed
    the same job, both paths give the same result and the same stats.
    """

    @pytest.fixture(autouse=True)
    def _fresh_l1(self):
        plan._SNAPSHOT_BLOBS.clear()
        yield
        plan._SNAPSHOT_BLOBS.clear()

    @pytest.mark.parametrize("system", sorted(FOUR_HIERARCHIES))
    def test_payload_path_matches_in_process_path(self, system):
        compiled = compile_sweep(
            {system: FOUR_HIERARCHIES[system]}, two_workloads()[:1], TINY
        )
        [job] = compiled.jobs
        source = compiled.traces[job.trace]
        trace = source.build()
        labels = (source.name, source.category)
        builder = compiled.builders[job.builder]
        snapshot_key = (job.builder, job.trace)

        local = ExecutionStats()
        direct = plan._run_job(
            job, builder, trace, labels, compiled.core_config, snapshot_key, {}, local
        )
        plan._SNAPSHOT_BLOBS.clear()  # the worker side builds its own snapshot
        payload = {
            "job": job,
            "builder": builder,
            "labels": labels,
            "trace_ref": ("bytes", trace.name, trace.category, records_bytes(trace)),
            "core_config": compiled.core_config,
            "snapshot_key": snapshot_key,
            "snapshot_dir": None,
            "snapshot_version": None,
        }
        shipped, delta = plan._run_payload(payload, OrderedDict(), {})
        assert result_tuple(shipped) == result_tuple(direct)
        assert delta == local
        assert local.snapshot_builds == 1


class TestSnapshotStoreSharing:
    @pytest.fixture(autouse=True)
    def _fresh_l1(self):
        plan._SNAPSHOT_BLOBS.clear()

    def test_fresh_workers_consume_blobs_with_zero_prewarm(self, cache):
        """Process A prewarms; fresh worker processes only read disk."""
        compiled = small_plan()
        reference = reference_results(compiled)
        plan._SNAPSHOT_BLOBS.clear()
        first = execute(compiled, cache=cache)
        assert first.stats.snapshot_builds == len(compiled.jobs)
        assert len(snapshot_blob_paths(cache)) == len(compiled.jobs)
        # Drop every warm tier the workers could inherit: the result
        # cache (so jobs re-simulate), the in-process L1 (forked workers
        # would copy it), and any idle pool worker from the first run.
        shutil.rmtree(os.path.join(cache.directory, "results"))
        plan._SNAPSHOT_BLOBS.clear()
        shutdown_worker_pool()
        second = execute(compiled, workers=2, cache=cache, supervision=FAST)
        assert not second.failures
        assert second.stats.simulated == len(compiled.jobs)
        assert second.stats.snapshot_builds == 0  # zero redundant prewarm
        assert second.stats.snapshot_disk_hits == len(compiled.jobs)
        assert_identical(second.results, reference)

    def test_sequential_warm_run_hits_the_disk_tier(self, cache):
        compiled = small_plan()
        execute(compiled, cache=cache)
        shutil.rmtree(os.path.join(cache.directory, "results"))
        plan._SNAPSHOT_BLOBS.clear()
        warm = execute(compiled, cache=cache)
        assert warm.stats.snapshot_builds == 0
        assert warm.stats.snapshot_disk_hits == len(compiled.jobs)

    def test_disabled_store_keeps_building(self, cache, monkeypatch):
        monkeypatch.setenv("REPRO_NO_SNAPSHOT_STORE", "1")
        compiled = small_plan()
        execute(compiled, cache=cache)
        assert snapshot_blob_paths(cache) == []

    def test_corrupt_disk_blob_is_discarded_and_rebuilt(self, cache):
        compiled = small_plan()
        reference = reference_results(compiled)
        plan._SNAPSHOT_BLOBS.clear()
        execute(compiled, cache=cache)
        blobs = snapshot_blob_paths(cache)
        assert blobs
        for path in blobs:
            with open(path, "wb") as handle:
                handle.write(b"\x00not a pickle")
        shutil.rmtree(os.path.join(cache.directory, "results"))
        plan._SNAPSHOT_BLOBS.clear()
        with pytest.warns(RuntimeWarning, match="discarding corrupt blob"):
            rebuilt = execute(compiled, cache=cache)
        assert rebuilt.stats.snapshot_builds == len(compiled.jobs)
        assert_identical(rebuilt.results, reference)
        # The rebuild wrote healthy blobs back through to disk.
        report = SnapshotStore(os.path.join(cache.directory, "snapshots")).verify()
        assert report["checked"] == len(blobs)
        assert report["corrupt"] == 0

    def test_snapshot_store_fault_site_corrupts_then_recovers(self, cache):
        compiled = small_plan()
        reference = reference_results(compiled)
        plan._SNAPSHOT_BLOBS.clear()
        faults.install(FaultPlan(specs=[
            FaultSpec(site="snapshot-store", op="corrupt", nth=0),
        ]))
        execute(compiled, cache=cache)  # L1 absorbs the damage this run
        shutil.rmtree(os.path.join(cache.directory, "results"))
        plan._SNAPSHOT_BLOBS.clear()
        faults.install(FaultPlan())
        with pytest.warns(RuntimeWarning, match="discarding corrupt blob"):
            recovered = execute(compiled, cache=cache)
        assert not recovered.failures
        assert_identical(recovered.results, reference)

    def test_verify_counts_corrupt_blobs_and_stale_tmp(self, cache):
        compiled = small_plan()
        execute(compiled, cache=cache)
        blobs = snapshot_blob_paths(cache)
        with open(blobs[0], "wb") as handle:
            handle.write(b"garbage")
        stale = blobs[1] + ".tmp123"
        with open(stale, "w") as handle:
            handle.write("leftover")
        store = SnapshotStore(os.path.join(cache.directory, "snapshots"))
        with pytest.warns(RuntimeWarning, match="corrupt blob"):
            report = store.verify()
        assert report["checked"] == len(blobs)
        assert report["corrupt"] == 1
        assert report["stale_tmp"] == 1
        assert not os.path.exists(blobs[0])
        assert not os.path.exists(stale)
        assert os.path.exists(blobs[1])

    def test_cache_verify_cli_covers_the_snapshot_store(
        self, cache, monkeypatch, capsys
    ):
        from repro import cli

        compiled = small_plan()
        plan._SNAPSHOT_BLOBS.clear()
        execute(compiled, cache=cache)
        monkeypatch.setenv("REPRO_CACHE_DIR", cache.directory)
        assert cli.main(["cache", "verify"]) == 0
        out = capsys.readouterr().out
        assert "entries checked" in out
        assert f"{len(compiled.jobs)} blobs checked" in out

    def test_size_cap_prunes_oldest_blobs(self, cache):
        store = SnapshotStore(
            os.path.join(cache.directory, "snapshots"), limit_mb=0.001
        )
        for index in range(4):
            store.put(("builder", f"trace-{index}"), b"x" * 512)
        # Puts amortize the audit (PRUNE_EVERY); force it to observe the cap.
        assert store.prune() >= 1
        total = sum(os.path.getsize(path) for path in snapshot_blob_paths(cache))
        assert total <= store.limit_bytes

    def test_version_partitions_the_store(self, cache):
        a = SnapshotStore(os.path.join(cache.directory, "snapshots"), version="v1")
        b = SnapshotStore(os.path.join(cache.directory, "snapshots"), version="v2")
        a.put(("builder", "trace"), b"blob-for-v1")
        assert b.get(("builder", "trace")) is None
        assert a.get(("builder", "trace")) == b"blob-for-v1"


class TestMappedTraces:
    def test_map_trace_matches_load_trace(self, tmp_path):
        source = trace_source_for(two_workloads()[0], TINY)
        pool = TracePool(str(tmp_path / "pool"))
        pool.fetch(source)  # synthesizes and saves the .lntr capture
        path = pool.path_for(source)
        eager = load_trace(path)
        mapped = map_trace(path)
        assert isinstance(mapped, MappedTrace)
        assert len(mapped) == len(eager.instructions)
        assert records_bytes(mapped) == records_bytes(eager)
        assert trace_digest(mapped) == trace_digest(eager)
        assert mapped.instructions == eager.instructions  # lazy decode

    def test_no_mmap_env_falls_back_bit_identically(self, tmp_path, monkeypatch):
        source = trace_source_for(two_workloads()[0], TINY)
        pool = TracePool(str(tmp_path / "pool"))
        pool.fetch(source)
        path = pool.path_for(source)
        mapped = map_trace(path)
        monkeypatch.setenv("REPRO_NO_MMAP", "1")
        fallback = map_trace(path)
        assert not isinstance(fallback, MappedTrace)
        assert records_bytes(fallback) == records_bytes(mapped)
        assert fallback.instructions == mapped.instructions

    def test_pooled_sweep_identical_with_and_without_mmap(
        self, tmp_path, monkeypatch
    ):
        builders = {"L2-256KB": conventional_spec()}
        compiled = compile_sweep(builders, two_workloads(), TINY)
        pool = TracePool(str(tmp_path / "pool"))
        execute(compiled, pool=pool, trace_memo=False)  # populates the pool
        mapped = execute(compiled, pool=pool, trace_memo=False)
        assert mapped.stats.pool_loads == len(two_workloads())
        monkeypatch.setenv("REPRO_NO_MMAP", "1")
        eager = execute(compiled, pool=pool, trace_memo=False)
        assert eager.stats.pool_loads == len(two_workloads())
        assert_identical(mapped.results, eager.results)
