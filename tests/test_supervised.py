"""Differential tests for the fault-tolerant supervised executor.

The contract extends the plan layer's: a sweep disturbed by worker
crashes, hangs, garbage replies, and corrupted files must still produce
results **bit-identical** to an undisturbed sequential run — and a sweep
interrupted outright (SIGKILL) must resume simulating only the jobs
that never committed, via the fsync'd result-cache entries of the jobs
that did.

Every disturbance is injected deterministically through
:mod:`repro.sim.faults`, so these paths are exercised on every test run,
not only when production infrastructure actually fails.
"""

import json
import math
import multiprocessing
import os
import shutil
import signal
import time
import warnings
from multiprocessing import connection as mp_connection
from pathlib import Path

import pytest

from repro.common.errors import ExecutionError
from repro.sim import faults, plan
from repro.sim.configs import (
    conventional_spec,
    dnuca_spec,
    lnuca_dnuca_spec,
    lnuca_l3_spec,
)
from repro.sim.faults import FaultPlan, FaultSpec
from repro.sim.plan import (
    ResultCache,
    SupervisionPolicy,
    TracePool,
    compile_sweep,
    execute,
    shutdown_worker_pool,
)
from repro.sim.runner import run_suite

from tests.test_plan import (
    FOUR_HIERARCHIES,
    TINY,
    assert_identical,
    result_tuple,
    two_workloads,
)

#: Fast retries for tests: near-zero backoff, no minutes-long defaults.
FAST = SupervisionPolicy(backoff_base=0.01)

#: Blocking waits one job may cost the supervisor: the pass its reply
#: wakes, plus, when it is retried, the pass its crash's EOF wakes, the
#: dead worker's join and the pass its backoff's expiry wakes.
WAITS_PER_JOB = 3


@pytest.fixture(autouse=True)
def isolated_faults():
    """Each test starts fault-free (even under a CI REPRO_FAULT_PLAN)."""
    faults.install(FaultPlan())
    yield
    faults.reset()


@pytest.fixture
def cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_SIM_VERSION", "test-version-1")
    return ResultCache(str(tmp_path / "cache"))


def small_plan():
    """Two builders x two workloads: enough for fan-out, fast enough."""
    builders = {"L2-256KB": conventional_spec(), "LN2-72KB": lnuca_l3_spec(2)}
    return compile_sweep(builders, two_workloads(), TINY)


def four_hierarchy_plan():
    return compile_sweep(FOUR_HIERARCHIES, two_workloads(), TINY)


def reference_results(compiled):
    faults.install(FaultPlan())
    run = execute(compiled)
    assert not run.failures
    return run.results


def count_waits(monkeypatch):
    """Record every ``multiprocessing.connection.wait`` call.

    The supervisor makes one per loop pass; joining a reaped worker
    makes one too.  A busy-waiting supervisor makes thousands.
    """
    calls = []
    real = mp_connection.wait

    def counting(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(mp_connection, "wait", counting)
    return calls


def assert_few_waits(calls, jobs, wall):
    """A few waits per job, plus one a second (the 1 s cap)."""
    bound = WAITS_PER_JOB * jobs + math.ceil(wall) + 1
    assert len(calls) <= bound, (
        f"{len(calls)} waits for {jobs} jobs in {wall:.2f} s: the supervisor polls"
    )


class TestRetryBitIdentity:
    """Disturbed supervised sweeps match the undisturbed sequential run."""

    def test_worker_crash_is_retried(self):
        compiled = small_plan()
        reference = reference_results(compiled)
        faults.install(FaultPlan(specs=[
            FaultSpec(site="worker-job", op="crash", nth=0, attempt=0),
        ]))
        run = execute(compiled, workers=2, supervision=FAST)
        assert not run.failures
        assert run.stats.retries >= 1
        assert run.stats.simulated == len(compiled.jobs)  # retries don't inflate
        assert_identical(run.results, reference)

    def test_hung_worker_is_timed_out_and_retried(self):
        compiled = small_plan()
        reference = reference_results(compiled)
        faults.install(FaultPlan(specs=[
            FaultSpec(site="worker-job", op="hang", nth=0, attempt=0, seconds=60.0),
        ]))
        policy = SupervisionPolicy(job_timeout=2.0, backoff_base=0.01)
        run = execute(compiled, workers=2, supervision=policy)
        assert not run.failures
        assert run.stats.timeouts >= 1
        assert run.stats.retries >= 1
        assert_identical(run.results, reference)

    def test_garbage_reply_replaces_worker_and_retries(self):
        compiled = small_plan()
        reference = reference_results(compiled)
        faults.install(FaultPlan(specs=[
            FaultSpec(site="worker-job", op="garbage", nth=1, attempt=0),
        ]))
        run = execute(compiled, workers=2, supervision=FAST)
        assert not run.failures
        assert run.stats.retries >= 1
        assert_identical(run.results, reference)

    def test_transient_error_is_retried(self):
        compiled = small_plan()
        reference = reference_results(compiled)
        faults.install(FaultPlan(specs=[
            FaultSpec(site="worker-job", op="error", nth=2, attempt=0),
        ]))
        run = execute(compiled, workers=2, supervision=FAST)
        assert not run.failures
        assert run.stats.retries >= 1
        assert_identical(run.results, reference)

    def test_multiple_disturbances_in_one_sweep(self):
        """Crash + hang + garbage in a single sweep, still bit-identical."""
        compiled = four_hierarchy_plan()
        reference = reference_results(compiled)
        faults.install(FaultPlan(specs=[
            FaultSpec(site="worker-job", op="crash", nth=0, attempt=0),
            FaultSpec(site="worker-job", op="hang", nth=3, attempt=0, seconds=60.0),
            FaultSpec(site="worker-job", op="garbage", nth=5, attempt=0),
        ]))
        policy = SupervisionPolicy(job_timeout=3.0, backoff_base=0.01)
        run = execute(compiled, workers=2, supervision=policy)
        assert not run.failures
        assert run.stats.retries >= 3
        assert run.stats.simulated == len(compiled.jobs)
        assert_identical(run.results, reference)


class TestQuarantine:
    def test_persistent_crash_is_quarantined(self):
        compiled = small_plan()
        reference = reference_results(compiled)
        faults.install(FaultPlan(specs=[
            FaultSpec(site="worker-job", op="crash", nth=0),  # every attempt
        ]))
        with pytest.warns(RuntimeWarning, match="quarantined"):
            run = execute(compiled, workers=2, supervision=FAST)
        assert len(run.failures) == 1
        failure = run.failures[0]
        assert failure.reason == "crash"
        assert failure.attempts == FAST.max_retries + 1
        assert run.stats.quarantined == 1
        assert run.results[failure.index] is None
        # Every other job still completed, bit-identically.
        for index, result in enumerate(run.results):
            if index != failure.index:
                assert result_tuple(result) == result_tuple(reference[index])

    def test_strict_mode_raises(self):
        compiled = small_plan()
        faults.install(FaultPlan(specs=[
            FaultSpec(site="worker-job", op="crash", nth=0),
        ]))
        policy = SupervisionPolicy(backoff_base=0.01, strict=True)
        with pytest.warns(RuntimeWarning, match="quarantined"):
            with pytest.raises(ExecutionError, match="failed permanently"):
                execute(compiled, workers=2, supervision=policy)

    def test_deterministic_error_skips_retries(self):
        """A SimulationError reproduces on retry, so none are attempted."""
        compiled = small_plan()
        faults.install(FaultPlan(specs=[
            FaultSpec(site="worker-job", op="fatal-error", nth=0),
        ]))
        with pytest.warns(RuntimeWarning, match="quarantined"):
            run = execute(compiled, workers=2, supervision=FAST)
        assert len(run.failures) == 1
        assert run.failures[0].attempts == 1
        assert run.stats.retries == 0
        assert run.stats.quarantined == 1

    def test_crash_detail_names_the_exit_code(self):
        """The exit code is read after the dead worker is joined, never None."""
        compiled = four_hierarchy_plan()
        faults.install(FaultPlan(specs=[
            FaultSpec(site="worker-job", op="crash", nth=seq) for seq in (0, 3, 5)
        ]))
        policy = SupervisionPolicy(backoff_base=0.01, max_retries=1)
        with pytest.warns(RuntimeWarning, match="quarantined"):
            run = execute(compiled, workers=2, supervision=policy)
        assert len(run.failures) == 3
        for failure in run.failures:
            assert failure.reason == "crash"
            assert f"exit code {faults.CRASH_EXIT_CODE}" in failure.detail

    def test_run_suite_excludes_quarantined_results(self):
        faults.install(FaultPlan(specs=[
            FaultSpec(site="worker-job", op="crash", nth=0),
        ]))
        builders = {"L2-256KB": conventional_spec(), "LN2-72KB": lnuca_l3_spec(2)}
        with pytest.warns(RuntimeWarning, match="quarantined and excluded"):
            results = run_suite(
                builders, two_workloads(), TINY, workers=2, supervision=FAST
            )
        assert len(results) == 3  # 4 jobs, 1 quarantined
        assert all(result is not None for result in results)

    def test_quarantined_job_completes_on_clean_rerun(self, cache):
        """Only the failed job re-simulates once the fault clears."""
        compiled = small_plan()
        reference = reference_results(compiled)
        faults.install(FaultPlan(specs=[
            FaultSpec(site="worker-job", op="crash", nth=0),
        ]))
        policy = SupervisionPolicy(backoff_base=0.01, max_retries=0)
        with pytest.warns(RuntimeWarning, match="quarantined"):
            first = execute(compiled, workers=2, cache=cache, supervision=policy)
        assert len(first.failures) == 1
        faults.install(FaultPlan())
        second = execute(compiled, workers=2, cache=cache, supervision=policy)
        assert not second.failures
        assert second.stats.simulated == 1  # only the quarantined job
        assert second.stats.cached == len(compiled.jobs) - 1
        assert_identical(second.results, reference)


class TestDegradation:
    def test_missing_fork_warns_and_runs_in_process(self, monkeypatch):
        compiled = small_plan()
        reference = reference_results(compiled)
        monkeypatch.delattr(os, "fork")
        monkeypatch.setattr(plan, "_FALLBACK_WARNED", False)
        with pytest.warns(RuntimeWarning, match="lacks os.fork"):
            run = execute(compiled, workers=2)
        assert run.stats.workers_effective == 1
        assert_identical(run.results, reference)

    def test_fork_warning_fires_once_per_process(self, monkeypatch):
        compiled = small_plan()
        monkeypatch.delattr(os, "fork")
        monkeypatch.setattr(plan, "_FALLBACK_WARNED", False)
        with pytest.warns(RuntimeWarning, match="lacks os.fork"):
            execute(compiled, workers=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            execute(compiled, workers=2)  # silent the second time

    def test_spawn_failure_degrades_to_in_process(self):
        compiled = small_plan()
        reference = reference_results(compiled)
        faults.install(FaultPlan(specs=[
            FaultSpec(site="spawn", op="error"),  # every spawn fails
        ]))
        with pytest.warns(RuntimeWarning, match="degrading to in-process"):
            run = execute(compiled, workers=2, supervision=FAST)
        assert not run.failures
        assert run.stats.workers_effective == 1
        assert_identical(run.results, reference)


class TestSupervisorWait:
    """The supervisor blocks while its workers run: it never busy-waits."""

    INSTRUCTIONS = 2_000

    def overlapping_plan(self):
        """Eight jobs long enough that both workers are busy at once."""
        return compile_sweep(FOUR_HIERARCHIES, two_workloads(), self.INSTRUCTIONS)

    def test_busy_workers_leave_the_supervisor_asleep(self, monkeypatch):
        compiled = self.overlapping_plan()
        reference = reference_results(compiled)
        calls = count_waits(monkeypatch)
        start = time.monotonic()
        run = execute(compiled, workers=2)
        wall = time.monotonic() - start
        assert not run.failures
        assert run.stats.workers_effective == 2
        assert_few_waits(calls, len(compiled.jobs), wall)
        assert_identical(run.results, reference)

    def test_backoff_expiry_dispatches_to_an_idle_worker(self, monkeypatch):
        """A retry lands when its backoff ends, not at the 1 s wait cap."""
        compiled = small_plan()
        reference = reference_results(compiled)
        last = len(compiled.jobs) - 1  # dispatched last: a worker idles
        faults.install(FaultPlan(specs=[
            FaultSpec(site="worker-job", op="crash", nth=last, attempt=0),
        ]))
        dispatched = {}
        real_action = faults.worker_job_action

        def stamped(label, seq, attempt):
            dispatched[seq, attempt] = time.monotonic()
            return real_action(label, seq, attempt)

        monkeypatch.setattr(faults, "worker_job_action", stamped)
        calls = count_waits(monkeypatch)
        policy = SupervisionPolicy(backoff_base=0.2)
        start = time.monotonic()
        run = execute(compiled, workers=2, supervision=policy)
        wall = time.monotonic() - start
        assert not run.failures
        assert run.stats.retries == 1
        gap = dispatched[last, 1] - dispatched[last, 0]
        assert policy.backoff_base <= gap <= policy.backoff_base + 0.5
        assert_few_waits(calls, len(compiled.jobs), wall)
        assert_identical(run.results, reference)

    def test_failed_spawn_is_retried_while_a_worker_is_busy(self, monkeypatch):
        compiled = self.overlapping_plan()
        reference = reference_results(compiled)
        failed_spawn = FaultSpec(site="spawn", op="error", nth=1)  # the second worker
        faults.install(FaultPlan(specs=[failed_spawn]))
        calls = count_waits(monkeypatch)
        start = time.monotonic()
        run = execute(compiled, workers=2, supervision=FAST)
        wall = time.monotonic() - start
        assert failed_spawn.fired == 1
        assert not run.failures
        assert run.stats.workers_effective == 2
        assert_few_waits(calls, len(compiled.jobs), wall)
        assert_identical(run.results, reference)


class TestCorruptionRecovery:
    def test_corrupt_cache_entry_self_heals(self, cache):
        compiled = small_plan()
        reference = reference_results(compiled)
        faults.install(FaultPlan(specs=[
            FaultSpec(site="result-cache", op="corrupt", nth=0),
        ]))
        execute(compiled, cache=cache)
        faults.install(FaultPlan())
        with pytest.warns(RuntimeWarning):
            second = execute(compiled, cache=cache)
        assert second.stats.simulated >= 1  # the corrupt entry re-simulated
        assert second.stats.cached == len(compiled.jobs) - second.stats.simulated
        assert_identical(second.results, reference)
        third = execute(compiled, cache=cache)
        assert third.stats.cached == len(compiled.jobs)  # healed

    @pytest.mark.parametrize("op", ["corrupt", "truncate", "delete"])
    def test_damaged_pool_file_falls_back_to_shipped_bytes(self, tmp_path, op):
        # Workers map a job's trace from its pool file by path.  The
        # supervisor writes the pool, so the fault damages the file there;
        # a worker that cannot use it fails the job once, and the retry
        # ships the record bytes inline.  A deleted file ships bytes at once.
        compiled = small_plan()
        reference = reference_results(compiled)
        shutdown_worker_pool()  # no worker keeps a decoded trace from before
        faults.install(FaultPlan(specs=[
            FaultSpec(site="trace-pool", op=op, nth=0),
        ]))
        pool = TracePool(str(tmp_path / "pool"))
        run = execute(compiled, workers=2, pool=pool, trace_memo=False, supervision=FAST)
        assert not run.failures
        assert run.stats.pool_saves == len(two_workloads())
        jobs_on_damaged_file = len(compiled.builders)
        assert run.stats.retries == (0 if op == "delete" else jobs_on_damaged_file)
        assert_identical(run.results, reference)

    def test_cache_verify_deletes_corrupt_entries(self, cache):
        compiled = small_plan()
        execute(compiled, cache=cache)
        root = os.path.join(cache.directory, "results")
        entries = sorted(
            os.path.join(dirpath, name)
            for dirpath, _, names in os.walk(root)
            for name in names
            if name.endswith(".json")
        )
        assert len(entries) == len(compiled.jobs)
        with open(entries[0], "w") as handle:
            handle.write("{truncated")
        with open(entries[1] + ".tmp", "w") as handle:
            handle.write("leftover")
        with pytest.warns(RuntimeWarning, match="corrupt"):
            report = cache.verify()
        assert report["checked"] == len(entries)
        assert report["corrupt"] == 1
        assert report["stale_tmp"] == 1
        assert not os.path.exists(entries[0])
        assert os.path.exists(entries[1])

    def test_cache_verify_keep_mode(self, cache):
        compiled = small_plan()
        execute(compiled, cache=cache)
        root = os.path.join(cache.directory, "results")
        entry = next(
            os.path.join(dirpath, name)
            for dirpath, _, names in os.walk(root)
            for name in names
            if name.endswith(".json")
        )
        with open(entry, "w") as handle:
            handle.write("not json")
        with pytest.warns(RuntimeWarning, match="corrupt"):
            report = cache.verify(delete=False)
        assert report["corrupt"] == 1
        assert os.path.exists(entry)  # kept

    def test_cache_verify_cli(self, cache, monkeypatch, capsys):
        from repro import cli

        monkeypatch.setenv("REPRO_CACHE_DIR", cache.directory)
        assert cli.main(["cache", "verify"]) == 0
        out = capsys.readouterr().out
        assert "entries checked" in out


def _interrupted_child(compiled, cache_dir):
    """Run the sweep sequentially; the installed fault SIGKILLs it."""
    faults.install(FaultPlan(specs=[
        FaultSpec(site="commit", op="exit", nth=2),
    ]))
    execute(compiled, cache=ResultCache(cache_dir))
    os._exit(1)  # pragma: no cover - the fault must have killed us


class TestInterruptResume:
    """SIGKILL a sweep mid-flight; its committed cache entries make it
    resumable."""

    def _interrupt(self, compiled, cache):
        ctx = multiprocessing.get_context("fork")
        child = ctx.Process(
            target=_interrupted_child, args=(compiled, cache.directory)
        )
        child.start()
        child.join(timeout=120)
        assert child.exitcode == -signal.SIGKILL
        root = os.path.join(cache.directory, "results")
        entries = [
            name
            for _, _, names in os.walk(root)
            for name in names
            if name.endswith(".json")
        ]
        assert len(entries) == 3  # the fault fired after the third commit

    def test_resume_simulates_only_incomplete_jobs(self, cache):
        compiled = four_hierarchy_plan()
        reference = reference_results(compiled)
        self._interrupt(compiled, cache)
        resumed = execute(compiled, cache=cache)
        # The three committed jobs hit the cache; the rest simulate.
        assert resumed.stats.cached == 3
        assert resumed.stats.simulated == len(compiled.jobs) - 3
        assert not resumed.failures
        assert_identical(resumed.results, reference)
        # The cache is the only checkpoint: nothing else was written.
        assert sorted(os.listdir(cache.directory)) == ["results", "traces"]

    def test_resume_when_cache_is_wiped_simulates_every_job(self, cache):
        """A cache lost between the kill and the resume (pruned, wiped)
        costs re-simulation, never a wrong result."""
        compiled = four_hierarchy_plan()
        reference = reference_results(compiled)
        self._interrupt(compiled, cache)
        shutil.rmtree(os.path.join(cache.directory, "results"))  # e.g. pruned
        resumed = execute(compiled, cache=cache)
        assert resumed.stats.cached == 0
        assert resumed.stats.simulated == len(compiled.jobs)
        assert not resumed.failures
        assert_identical(resumed.results, reference)
        # The resumed run committed every job again.
        rerun = execute(compiled, cache=cache)
        assert rerun.stats.cached == len(compiled.jobs)
        assert rerun.stats.simulated == 0
        assert_identical(rerun.results, reference)

    def test_journal_of_an_older_version_is_not_read(self, cache):
        """A ``journals/`` an older version left beside the cache restores
        nothing: with the entries gone, every job re-simulates, and the
        journal stays as it was, for the user to delete."""
        compiled = small_plan()
        reference = reference_results(compiled)
        self._interrupt(compiled, cache)
        journal = Path(cache.directory) / "journals" / "interrupted.jsonl"
        journal.parent.mkdir()
        rows = [
            {"schema": plan.RESULT_SCHEMA, "key": key, "meta": meta,
             "result": plan._result_to_row(result)}
            for key, result, meta in cache.entries()
        ]
        assert len(rows) == 3
        journal.write_text(
            "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows),
            encoding="utf-8",
        )
        before = journal.read_bytes()
        shutil.rmtree(os.path.join(cache.directory, "results"))
        resumed = execute(compiled, cache=cache)
        assert resumed.stats.cached == 0
        assert resumed.stats.simulated == len(compiled.jobs)
        assert_identical(resumed.results, reference)
        assert journal.read_bytes() == before


class TestCheckpointOrder:
    """A job's fsync'd cache entry is its only checkpoint, so it is on
    disk before anyone downstream hears of the job."""

    @pytest.mark.parametrize("workers", [None, 2])
    def test_entry_lands_before_on_result(self, cache, workers):
        compiled = small_plan()
        root = os.path.join(cache.directory, "results")
        on_disk = []

        def on_result(job, result):
            on_disk.append(sum(
                name.endswith(".json")
                for _, _, names in os.walk(root)
                for name in names
            ))

        run = execute(
            compiled, workers=workers, cache=cache, supervision=FAST,
            on_result=on_result,
        )
        assert not run.failures
        assert run.stats.simulated == len(compiled.jobs)
        assert on_disk == list(range(1, len(compiled.jobs) + 1))


class TestStreamingAndStats:
    def test_on_result_streams_completions(self, cache):
        compiled = small_plan()
        seen = []
        execute(compiled, cache=cache, on_result=lambda job, result: seen.append(job))
        assert len(seen) == len(compiled.jobs)  # all fresh simulations
        seen.clear()
        execute(compiled, cache=cache, on_result=lambda job, result: seen.append(job))
        assert len(seen) == len(compiled.jobs)  # all cache hits stream too

    def test_on_result_streams_under_workers(self):
        compiled = small_plan()
        seen = []
        run = execute(
            compiled, workers=2, on_result=lambda job, result: seen.append(job)
        )
        assert len(seen) == len(compiled.jobs)
        assert not run.failures

    def test_workers_effective_recorded(self):
        compiled = small_plan()
        run = execute(compiled, workers=2)
        assert run.stats.workers_effective == 2
        sequential = execute(compiled)
        assert sequential.stats.workers_effective == 1

    def test_describe_includes_supervision_counters(self):
        compiled = small_plan()
        run = execute(compiled)
        text = run.stats.describe()
        for token in ("workers_effective=", "retries=", "timeouts=", "quarantined="):
            assert token in text
        assert not run.stats.degraded()

    def test_timeout_derived_from_instruction_budget(self):
        policy = SupervisionPolicy()
        assert policy.timeout_for(0) == 30.0
        assert policy.timeout_for(1_000_000) == pytest.approx(10030.0)
        assert SupervisionPolicy(job_timeout=5.0).timeout_for(10**9) == 5.0

    def test_fault_plan_policy_overrides(self):
        faults.install(FaultPlan(policy={"job_timeout": 1.5, "max_retries": 7}))
        effective = plan._effective_policy(SupervisionPolicy())
        assert effective.job_timeout == 1.5
        assert effective.max_retries == 7
        assert effective.backoff_base == SupervisionPolicy().backoff_base
