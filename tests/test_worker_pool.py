"""Differential tests for the shared-state parallel execution substrate.

Two layers, one contract — bit-identical to sequential by construction:

* the **persistent worker pool**: workers outlive ``execute()`` calls,
  are reused across sweeps, are forked only from a single-threaded
  process, are replaced or recycled without changing a single result,
  and exit when their supervisor dies;
* the **mmap trace path**: a pooled ``.lntr`` capture replayed through
  ``mmap`` decodes to exactly the bytes, digest, and instructions of the
  eager loader, including its fallback on a filesystem that cannot map.
"""

import dataclasses
import errno
import mmap
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
import warnings
from collections import OrderedDict
from pathlib import Path

import pytest

from repro.scenarios import build_trace, scenario
from repro.scenarios.tracefile import load_trace, map_trace, records_bytes
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
    SupervisionPolicy,
    TracePool,
    compile_sweep,
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

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(autouse=True)
def isolated_faults():
    faults.install(FaultPlan())
    yield
    faults.reset()


@pytest.fixture(autouse=True)
def pool_defaults():
    """Each test starts from an empty pool."""
    shutdown_worker_pool()
    yield
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

    def test_concurrent_executes_from_threads(self, monkeypatch):
        """Two sweeps in flight at once run in-process, both bit-identical
        to sequential: no worker is forked from a multi-threaded process."""
        plans = [small_plan(), other_plan()]
        references = [reference_results(compiled) for compiled in plans]
        monkeypatch.setattr(plan, "_FALLBACK_WARNED", False)
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
        with pytest.warns(RuntimeWarning, match="threads are running"):
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=300)
        assert not errors
        for run, reference in zip(runs, references):
            assert run is not None and not run.failures
            assert run.stats.workers_effective == 1
            assert_identical(run.results, reference)

    def test_no_fork_while_another_thread_runs(self, monkeypatch):
        """A fork taken while another thread holds a lock leaves that lock
        held in the worker, so ``execute`` runs in-process instead, with
        one warning per process."""
        compiled = small_plan()
        reference = reference_results(compiled)
        monkeypatch.setattr(plan, "_FALLBACK_WARNED", False)
        release = threading.Event()
        other = threading.Thread(target=release.wait, args=(60,))
        other.start()
        try:
            before = worker_pool_stats()["forked"]
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                runs = [execute(compiled, workers=2, supervision=FAST) for _ in range(2)]
            forked = worker_pool_stats()["forked"] - before
        finally:
            release.set()
            other.join(timeout=30)
        assert forked == 0
        for run in runs:
            assert not run.failures
            assert run.stats.workers_effective == 1
            assert_identical(run.results, reference)
        fallbacks = [
            warning for warning in caught
            if issubclass(warning.category, RuntimeWarning)
            and "threads are running" in str(warning.message)
        ]
        assert len(fallbacks) == 1
        # Python 3.12+ warns when a multi-threaded process forks.
        assert not [
            warning for warning in caught
            if issubclass(warning.category, DeprecationWarning)
        ]

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

    def test_describe_appends_pool_counters(self):
        text = ExecutionStats().describe()
        # Existing CI greps key off these exact "token=value " shapes.
        assert "cached=0 " in text
        assert "simulated=0 " in text
        assert "retries=0 " in text
        assert text.endswith("pool_reused=0")

    @pytest.mark.parametrize(
        "name",
        [
            "jobs", "simulated", "cached", "pool_loads", "workers_effective",
            "retries", "timeouts", "quarantined", "store_hits", "pool_reused",
        ],
    )
    def test_describe_reports_each_counter_under_its_own_name(self, name):
        # The CLI's "plan stats:" line, which CI and the end-to-end
        # harness parse: distinct values catch a token wired to the
        # wrong field.
        names = [field.name for field in dataclasses.fields(ExecutionStats)]
        stats = ExecutionStats(**{other: 100 + index for index, other in enumerate(names)})
        tokens = stats.describe().split()
        assert tokens.count(f"{name}={getattr(stats, name)}") == 1
        assert [token.split("=")[0] for token in tokens].count(name) == 1

    def test_degraded_means_recovery_machinery_ran(self):
        for field in dataclasses.fields(ExecutionStats):
            stats = ExecutionStats(**{field.name: 1})
            expected = field.name in ("retries", "timeouts", "quarantined")
            assert stats.degraded() is expected, field.name
        assert not ExecutionStats().degraded()

    def test_add_sums_pool_counters(self):
        total = ExecutionStats()
        part = ExecutionStats(pool_reused=2)
        total.add(part)
        total.add(part)
        assert total.pool_reused == 4

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
        shutdown_worker_pool()
        second = execute(compiled, workers=2, cache=cache, supervision=FAST)
        assert not second.failures
        assert second.stats.simulated == len(compiled.jobs)
        assert_identical(second.results, reference)


def _fallback_warnings(caught):
    return [
        warning for warning in caught
        if issubclass(warning.category, RuntimeWarning)
        and "worker fan-out disabled" in str(warning.message)
    ]


class TestForkGuard:
    """``execute`` forks pool workers only from a single-threaded process,
    and only when it has more than one job to fan out."""

    @pytest.fixture
    def fresh_warning(self, monkeypatch):
        # The fallback warns once per process: re-arm it so a test sees
        # whether this call would warn.
        monkeypatch.setattr(plan, "_FALLBACK_WARNED", False)

    @pytest.fixture
    def other_thread(self):
        release = threading.Event()
        thread = threading.Thread(target=release.wait, args=(60,))
        thread.start()
        yield thread
        release.set()
        thread.join(timeout=30)

    @pytest.mark.parametrize("workers", [None, 1])
    def test_sequential_requests_ignore_other_threads(
        self, fresh_warning, other_thread, workers
    ):
        compiled = small_plan()
        before = worker_pool_stats()["forked"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run = execute(compiled, workers=workers)
        assert worker_pool_stats()["forked"] == before
        assert run.stats.workers_effective == 1
        assert not _fallback_warnings(caught)

    def test_a_single_pending_job_runs_here_without_warning(
        self, fresh_warning, other_thread
    ):
        compiled = compile_sweep(
            {"L2-256KB": conventional_spec()}, two_workloads()[:1], TINY
        )
        before = worker_pool_stats()["forked"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run = execute(compiled, workers=2)
        assert worker_pool_stats()["forked"] == before
        assert (run.stats.simulated, run.stats.workers_effective) == (1, 1)
        assert not _fallback_warnings(caught)

    def test_a_fully_cached_sweep_neither_forks_nor_warns(
        self, cache, fresh_warning, other_thread
    ):
        cold = execute(small_plan(), cache=cache)
        before = worker_pool_stats()["forked"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            warm = execute(small_plan(), workers=2, cache=cache)
        assert worker_pool_stats()["forked"] == before
        assert (warm.stats.cached, warm.stats.simulated) == (len(cold.results), 0)
        assert not _fallback_warnings(caught)
        assert_identical(cold.results, warm.results)

    def test_fallback_warning_names_the_running_threads(
        self, fresh_warning, other_thread
    ):
        count = threading.active_count()
        assert count > 1
        with pytest.warns(
            RuntimeWarning,
            match=f"workers=3 requested but {count} threads are running",
        ):
            run = execute(small_plan(), workers=3)
        assert run.stats.workers_effective == 1

    def test_fan_out_resumes_once_the_other_thread_is_gone(self):
        compiled = small_plan()
        reference = reference_results(compiled)
        finished = threading.Thread(target=lambda: None)
        finished.start()
        finished.join(timeout=30)
        assert threading.active_count() == 1
        before = worker_pool_stats()["forked"]
        run = execute(compiled, workers=2, supervision=FAST)
        assert worker_pool_stats()["forked"] - before == 2
        assert run.stats.workers_effective == 2
        assert_identical(run.results, reference)

    def test_missing_fork_falls_back_with_its_own_reason(
        self, fresh_warning, monkeypatch
    ):
        compiled = small_plan()
        reference = reference_results(compiled)
        monkeypatch.delattr(os, "fork")
        with pytest.warns(RuntimeWarning, match="lacks os.fork"):
            run = execute(compiled, workers=2)
        assert run.stats.workers_effective == 1
        assert_identical(run.results, reference)


class TestOneJobRunner:
    """Pool-worker jobs and in-process jobs run through one function.

    ``_run_payload`` rebuilds a job's inputs from its shipped payload and
    hands them to ``_run_job``, as :func:`execute` does in-process: fed
    the same job, both paths give the same result.
    """

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

        direct = plan._run_job(job, builder, trace, labels, compiled.core_config)
        payload = {
            "job": job,
            "builder": builder,
            "labels": labels,
            "trace_ref": ("bytes", trace.name, trace.category, records_bytes(trace)),
            "core_config": compiled.core_config,
        }
        shipped = plan._run_payload(payload, OrderedDict())
        assert result_tuple(shipped) == result_tuple(direct)

    def test_pool_file_ref_matches_shipped_bytes(self, tmp_path):
        source = trace_source_for(two_workloads()[0], TINY)
        pool = TracePool(str(tmp_path / "pool"))
        trace = pool.fetch(source)
        digest = trace_digest(trace)
        path_ref = ("path", pool.path_for(source), digest, trace.name, trace.category)
        bytes_ref = ("bytes", trace.name, trace.category, records_bytes(trace))
        by_path = plan._payload_trace({"trace_ref": path_ref}, OrderedDict())
        by_bytes = plan._payload_trace({"trace_ref": bytes_ref}, OrderedDict())
        assert isinstance(by_path.records.obj, mmap.mmap)  # a view of the pool file
        assert isinstance(by_bytes.records, bytes)
        assert records_bytes(by_path) == records_bytes(by_bytes) == records_bytes(trace)
        assert trace_digest(by_path) == trace_digest(by_bytes) == digest

    def test_rewritten_pool_file_fails_the_digest_check(self, tmp_path):
        """A pool file replaced since the supervisor read it is refused, so
        the supervisor retries the job with the record bytes shipped."""
        first, other = (trace_source_for(spec, TINY) for spec in two_workloads())
        pool = TracePool(str(tmp_path / "pool"))
        trace = pool.fetch(first)
        pool.fetch(other)
        path = pool.path_for(first)
        os.replace(pool.path_for(other), path)
        ref = ("path", path, trace_digest(trace), trace.name, trace.category)
        cache = OrderedDict()
        with pytest.raises(plan._TraceTransportError, match="digest mismatch"):
            plan._payload_trace({"trace_ref": ref}, cache)
        assert not cache

    def test_worker_trace_cache_evicts_the_least_recent(self):
        cap = plan._WORKER_TRACE_CAP
        refs = []
        for index in range(cap + 1):
            trace = build_trace(scenario("kv-zipf-hot"), 100 + index)
            refs.append(("bytes", trace.name, trace.category, records_bytes(trace)))
        cache = OrderedDict()
        decoded = [plan._payload_trace({"trace_ref": ref}, cache) for ref in refs[:cap]]
        assert plan._payload_trace({"trace_ref": refs[0]}, cache) is decoded[0]  # a hit
        plan._payload_trace({"trace_ref": refs[cap]}, cache)  # evicts refs[1], not refs[0]
        assert len(cache) == cap
        assert plan._payload_trace({"trace_ref": refs[0]}, cache) is decoded[0]
        assert plan._payload_trace({"trace_ref": refs[1]}, cache) is not decoded[1]
        assert len(cache) == cap


def _exited(pid: int) -> bool:
    """True when ``pid`` is gone or a zombie (nobody may reap an orphan)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            stat = handle.read()
    except FileNotFoundError:
        return True
    return stat.rsplit(")", 1)[1].split()[0] in ("Z", "X")


#: A 2-worker sweep that prints its pool workers' PIDs and then dies
#: without any shutdown, the way a killed ``repro report`` dies.
_DYING_SUPERVISOR = """
import os, signal
from repro.cpu.workloads import workload_by_name
from repro.sim import plan
from repro.sim.configs import conventional_spec, lnuca_l3_spec

compiled = plan.compile_sweep(
    {"L2-256KB": conventional_spec(), "LN2-72KB": lnuca_l3_spec(2)},
    [workload_by_name("mcf-like")], 400,
)
run = plan.execute(compiled, workers=2)
assert not run.failures and run.stats.workers_effective == 2
print(" ".join(str(worker.process.pid) for worker in plan._POOL._idle), flush=True)
os.kill(os.getpid(), signal.SIGKILL)
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="reads /proc")
class TestWorkerDescriptors:
    """What a forked pool worker keeps of its supervisor's descriptors."""

    def test_workers_exit_when_their_supervisor_is_killed(self, tmp_path):
        env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
        env["PYTHONPATH"] = str(ROOT / "src")
        # A file, not a pipe: orphaned workers would hold a pipe open.
        log = tmp_path / "supervisor.log"
        with open(log, "w") as out:
            proc = subprocess.run(
                [sys.executable, "-c", _DYING_SUPERVISOR],
                stdout=out, stderr=subprocess.STDOUT, env=env, cwd=tmp_path, timeout=300,
            )
        output = log.read_text()
        assert proc.returncode == -signal.SIGKILL, output
        pids = [int(pid) for pid in output.strip().splitlines()[-1].split()]
        assert len(pids) == 2, output
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline and not all(_exited(pid) for pid in pids):
            time.sleep(0.1)
        alive = [pid for pid in pids if not _exited(pid)]
        for pid in alive:
            os.kill(pid, signal.SIGKILL)  # do not leak them past the test
        assert alive == [], "pool workers outlived their killed supervisor"


def refuse_mmap(monkeypatch):
    """Make ``mmap.mmap`` raise, as on a filesystem that cannot map; the
    returned list records each refused call."""
    refused = []

    def refuse(*args, **kwargs):
        refused.append(args)
        raise OSError(errno.ENODEV, "mapping not supported")

    monkeypatch.setattr(mmap, "mmap", refuse)
    return refused


class TestMappedTraces:
    def test_map_trace_matches_load_trace(self, tmp_path):
        source = trace_source_for(two_workloads()[0], TINY)
        pool = TracePool(str(tmp_path / "pool"))
        pool.fetch(source)  # synthesizes and saves the .lntr capture
        path = pool.path_for(source)
        eager = load_trace(path)
        mapped = map_trace(path)
        assert isinstance(mapped.records.obj, mmap.mmap)  # a view of the mapping
        assert isinstance(eager.records, bytes)
        assert len(mapped) == len(eager.instructions)
        assert records_bytes(mapped) == records_bytes(eager)
        assert trace_digest(mapped) == trace_digest(eager)
        assert mapped.instructions == eager.instructions  # decoded on demand

    def test_unmappable_file_falls_back_bit_identically(self, tmp_path, monkeypatch):
        source = trace_source_for(two_workloads()[0], TINY)
        pool = TracePool(str(tmp_path / "pool"))
        pool.fetch(source)
        path = pool.path_for(source)
        mapped = map_trace(path)
        refused = refuse_mmap(monkeypatch)
        fallback = map_trace(path)
        assert len(refused) == 1
        assert isinstance(fallback.records, bytes)
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
        refused = refuse_mmap(monkeypatch)
        eager = execute(compiled, pool=pool, trace_memo=False)
        assert len(refused) == len(two_workloads())
        assert eager.stats.pool_loads == len(two_workloads())
        assert_identical(mapped.results, eager.results)
