"""Tests for the SQLite result store and its plan-layer integration.

The store's contract is the cache's, one tier further out: a store-served
result must be **byte-identical** to the fresh simulation's (same row
codec as cache entries), a corrupt store is quarantined
and rebuilt rather than trusted, a schema mismatch refuses instead of
misreading, and concurrent writers (WAL mode) never corrupt each other.
Alongside: the ``on_progress`` reporting that landed in the same
change.
"""

import gc
import json
import os
import sqlite3
import threading
import warnings

import pytest

from repro.cpu.workloads import workload_by_name
from repro.scenarios.registry import scenarios as catalog_scenarios
from repro.sim import faults
from repro.sim.configs import (
    conventional_spec,
    dnuca_spec,
    lnuca_dnuca_spec,
    lnuca_l3_spec,
)
from repro.sim.faults import FaultPlan, FaultSpec
from repro.sim.plan import (
    ResultCache,
    compile_sweep,
    execute,
    set_default_progress,
    use_store,
)
from repro.sim.runner import RunResult
from repro.sim.store import STORE_SCHEMA, ResultStore, StoreSchemaError

TINY = 1200

FOUR_HIERARCHIES = {
    "L2-256KB": conventional_spec(),
    "LN2-72KB": lnuca_l3_spec(2),
    "DN-4x8": dnuca_spec(),
    "LN2+DN-4x8": lnuca_dnuca_spec(2),
}


def two_workloads():
    return [workload_by_name("mcf-like"), workload_by_name("milc-like")]


def result_tuple(result):
    return (
        result.system, result.workload, result.category, result.ipc,
        result.cycles, result.instructions, result.activity, result.core_stats,
    )


def assert_identical(lhs, rhs):
    assert len(lhs) == len(rhs)
    for a, b in zip(lhs, rhs):
        assert result_tuple(a) == result_tuple(b)


def _dummy_result(workload, system="dummy", ipc=1.0):
    return RunResult(
        system=system, workload=workload, category="int",
        ipc=ipc, cycles=100.0, instructions=100.0, activity={}, core_stats={},
    )


@pytest.fixture
def pinned_version(monkeypatch):
    monkeypatch.setenv("REPRO_SIM_VERSION", "test-version-1")


@pytest.fixture
def clean_faults():
    faults.install(FaultPlan())
    yield
    faults.reset()


def _wipe_cache_entries(cache):
    import shutil

    shutil.rmtree(os.path.join(cache.directory, "results"), ignore_errors=True)


# ---------------------------------------------------------------- round trips
class TestStoreRoundTrip:
    def test_live_ingest_then_store_hits_byte_identical_four_hierarchies(
        self, tmp_path, pinned_version
    ):
        cache = ResultCache(str(tmp_path / "cache"))
        store = ResultStore(str(tmp_path / "results.sqlite"))
        plan = compile_sweep(FOUR_HIERARCHIES, two_workloads(), TINY)

        cold = execute(plan, cache=cache, store=store)
        assert cold.stats.simulated == len(plan.jobs)
        assert store.stats()["rows"] == len(plan.jobs)

        # Lose the cache, keep the store: the warm run must be pure store
        # hits, byte-identical to the cold run.
        _wipe_cache_entries(cache)
        warm = execute(compile_sweep(FOUR_HIERARCHIES, two_workloads(), TINY),
                       cache=cache, store=store)
        assert warm.stats.simulated == 0
        assert warm.stats.store_hits == len(plan.jobs)
        assert_identical(cold.results, warm.results)

        # The store hit repaired the cache tier: third run is pure cache.
        third = execute(compile_sweep(FOUR_HIERARCHIES, two_workloads(), TINY),
                        cache=cache, store=store)
        assert third.stats.cached == len(plan.jobs)
        assert third.stats.store_hits == 0
        assert_identical(cold.results, third.results)

    def test_ingest_cache_etl_preserves_bytes_and_digests(
        self, tmp_path, pinned_version
    ):
        cache = ResultCache(str(tmp_path / "cache"))
        builders = {"L2-256KB": conventional_spec()}
        cold = execute(compile_sweep(builders, two_workloads(), TINY), cache=cache)

        store = ResultStore(str(tmp_path / "results.sqlite"))
        report = store.ingest_cache(cache)
        assert report["ingested"] == len(cold.results)
        assert report["skipped"] == 0

        # Digest provenance survived the ETL (entries carry meta now).
        rows = store.query(label="L2-256KB")
        assert len(rows) == len(cold.results)
        assert all(row["builder_digest"] for row in rows)
        assert all(row["simulator_version"] == "test-version-1" for row in rows)

        # And the store alone reproduces the sweep byte-identically.
        _wipe_cache_entries(cache)
        warm = execute(compile_sweep(builders, two_workloads(), TINY),
                       cache=cache, store=store)
        assert warm.stats.store_hits == len(cold.results)
        assert_identical(cold.results, warm.results)

        # Re-ingesting is idempotent: first writer wins, nothing changes.
        again = store.ingest_cache(cache)
        assert again["ingested"] == 0

    def test_store_ingest_cli_counts_cache_entries(
        self, tmp_path, pinned_version, monkeypatch, capsys
    ):
        from repro import cli

        cache = ResultCache(str(tmp_path / "cache"))
        builders = {"L2-256KB": conventional_spec()}
        execute(compile_sweep(builders, two_workloads(), TINY), cache=cache)
        cache.put("f" * 64, _dummy_result("wl-a"))
        with open(cache._path("f" * 64), "w", encoding="utf-8") as handle:
            handle.write("{truncated")
        monkeypatch.setenv("REPRO_CACHE_DIR", cache.directory)
        store_path = str(tmp_path / "results.sqlite")
        args = ["--store", store_path, "store", "ingest"]
        assert cli.main(args) == 0
        assert capsys.readouterr().out == (
            f"store {store_path}: ingested 2 of 3 cache entries (1 unreadable)\n"
        )
        assert cli.main(args) == 0  # first writer wins: nothing new
        assert "ingested 0 of 3 cache entries" in capsys.readouterr().out

    def test_query_filters_and_scenario_tag(self, tmp_path, pinned_version):
        store = ResultStore(str(tmp_path / "results.sqlite"))
        graph = [spec.name for spec in catalog_scenarios(tag="graph")]
        assert graph  # the catalog carries the tag this test keys on
        store.put("1" * 64, _dummy_result(graph[0], system="LN3-144KB"),
                  meta={"simulator_version": "v1"})
        store.put("2" * 64, _dummy_result("mcf-like", system="L2-256KB"),
                  meta={"simulator_version": "v1"})

        assert len(store.query(tag="graph")) == 1
        assert store.query(tag="graph")[0]["workload"] == graph[0]
        assert store.query(tag="no-such-tag") == []
        assert len(store.query(label="L2-256KB")) == 1
        assert len(store.query(version="v1")) == 2
        assert len(store.query(version="v2")) == 0
        assert len(store.query(limit=1)) == 1

    def test_compare_matches_jobs_across_versions(self, tmp_path):
        store = ResultStore(str(tmp_path / "results.sqlite"))
        meta = {
            "builder_digest": "b" * 64, "trace_digest": "t" * 64,
            "num_instructions": 100, "mode": "event",
        }
        store.put("1" * 64, _dummy_result("wl", ipc=1.0),
                  meta={**meta, "simulator_version": "v1"})
        store.put("2" * 64, _dummy_result("wl", ipc=1.5),
                  meta={**meta, "simulator_version": "v2"})
        rows = store.compare("v1", "v2")
        assert len(rows) == 1
        assert rows[0]["ipc_delta"] == pytest.approx(0.5)

    def test_dirty_version_bypasses_store(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_VERSION", "abc123-dirty")
        store = ResultStore(str(tmp_path / "results.sqlite"))
        builders = {"L2-256KB": conventional_spec()}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            run = execute(compile_sweep(builders, two_workloads()[:1], TINY),
                          store=store)
        assert run.stats.simulated == 1
        assert store.stats()["rows"] == 0  # nothing from a dirty tree persists

    def test_use_store_context_feeds_execute(self, tmp_path, pinned_version):
        store = ResultStore(str(tmp_path / "results.sqlite"))
        builders = {"L2-256KB": conventional_spec()}
        with use_store(store):
            cold = execute(compile_sweep(builders, two_workloads(), TINY))
            warm = execute(compile_sweep(builders, two_workloads(), TINY))
        assert cold.stats.simulated == 2
        assert warm.stats.store_hits == 2 and warm.stats.simulated == 0
        assert_identical(cold.results, warm.results)
        # Outside the context the default is gone again.
        after = execute(compile_sweep(builders, two_workloads(), TINY))
        assert after.stats.store_hits == 0 and after.stats.simulated == 2


# ------------------------------------------------------------- lookup ladder
class TestLookupLadder:
    """``execute`` serves a job from the cache, else from the store, else
    simulates it, and every tier the job passed learns the result."""

    BUILDERS = {"L2-256KB": conventional_spec()}

    def sweep(self, builders=None):
        return compile_sweep(builders or self.BUILDERS, two_workloads(), TINY)

    def test_cache_is_consulted_before_the_store(self, tmp_path, pinned_version):
        cache = ResultCache(str(tmp_path / "cache"))
        cold = execute(self.sweep(), cache=cache)
        store = ResultStore(str(tmp_path / "results.sqlite"))
        # Different results under the same keys: a store consulted first
        # would serve these.
        for key, _, _ in cache.entries():
            store.put(key, _dummy_result("planted", ipc=9.0))
        warm = execute(self.sweep(), cache=cache, store=store)
        assert (warm.stats.cached, warm.stats.store_hits, warm.stats.simulated) == (2, 0, 0)
        assert_identical(cold.results, warm.results)

    def test_cache_repaired_from_the_store_keeps_the_provenance(
        self, tmp_path, pinned_version
    ):
        store = ResultStore(str(tmp_path / "results.sqlite"))
        execute(self.sweep(), store=store)
        cache = ResultCache(str(tmp_path / "cache"))
        repair = execute(self.sweep(), cache=cache, store=store)
        assert (repair.stats.store_hits, repair.stats.simulated) == (2, 0)
        rows = {row["cache_key"]: row for row in store.query()}
        entries = list(cache.entries())
        assert sorted(key for key, _, _ in entries) == sorted(rows)
        for key, _, meta in entries:
            for column in (
                "simulator_version", "builder_digest", "trace_digest",
                "num_instructions", "mode",
            ):
                assert meta[column] == rows[key][column], column

    def test_cache_hits_feed_the_store(self, tmp_path, pinned_version):
        cache = ResultCache(str(tmp_path / "cache"))
        execute(self.sweep(), cache=cache)
        store = ResultStore(str(tmp_path / "results.sqlite"))
        warm = execute(self.sweep(), cache=cache, store=store)
        assert (warm.stats.cached, warm.stats.store_hits) == (2, 0)
        assert sorted(row["cache_key"] for row in store.query()) == sorted(
            key for key, _, _ in cache.entries()
        )

    def test_simulation_feeds_both_tiers_with_provenance(
        self, tmp_path, pinned_version
    ):
        cache = ResultCache(str(tmp_path / "cache"))
        store = ResultStore(str(tmp_path / "results.sqlite"))
        cold = execute(self.sweep(), cache=cache, store=store)
        assert cold.stats.simulated == 2
        rows = store.query()
        assert sorted(row["cache_key"] for row in rows) == sorted(
            key for key, _, _ in cache.entries()
        )
        for row in rows:
            assert row["simulator_version"] == "test-version-1"
            assert row["num_instructions"] == TINY
            assert row["builder_digest"] and row["trace_digest"]

    def test_store_hit_carries_the_jobs_label(self, tmp_path, pinned_version):
        store = ResultStore(str(tmp_path / "results.sqlite"))
        execute(self.sweep({"first-label": conventional_spec()}), store=store)
        run = execute(self.sweep({"second-label": conventional_spec()}), store=store)
        assert run.stats.store_hits == 2
        assert [result.system for result in run.results] == ["second-label"] * 2

    def test_every_tier_reports_through_on_result(self, tmp_path, pinned_version):
        cache = ResultCache(str(tmp_path / "cache"))
        store = ResultStore(str(tmp_path / "results.sqlite"))
        seen = []

        def record(job, result):
            seen.append((job.trace, result.workload))

        execute(self.sweep(), cache=cache, store=store, on_result=record)
        _wipe_cache_entries(cache)
        execute(self.sweep(), cache=cache, store=store, on_result=record)
        execute(self.sweep(), cache=cache, store=store, on_result=record)
        # Simulated, then store hits, then cache hits: each job once a pass.
        assert len(seen) == 6
        assert seen[0:2] == seen[2:4] == seen[4:6]


# ---------------------------------------------------------------- direct API
def _raw_rows(path, sql, params=()):
    """Read the store file behind the store's back."""
    conn = sqlite3.connect(path)
    try:
        return conn.execute(sql, params).fetchall()
    finally:
        conn.close()


#: Two rows that differ in every column ``query`` filters on.
_ROW_A = (
    "a" * 64,
    RunResult(system="L2-256KB", workload="mcf-like", category="int",
              ipc=0.5, cycles=200.0, instructions=100.0, activity={}, core_stats={}),
    {"simulator_version": "v1", "builder_digest": "b1" * 32,
     "trace_digest": "t1" * 32, "num_instructions": 100, "mode": "event"},
)
_ROW_B = (
    "b" * 64,
    RunResult(system="LN3-144KB", workload="milc-like", category="fp",
              ipc=1.25, cycles=80.0, instructions=100.0, activity={}, core_stats={}),
    {"simulator_version": "v2", "builder_digest": "b2" * 32,
     "trace_digest": "t2" * 32, "num_instructions": 100, "mode": "event"},
)


@pytest.fixture
def two_row_store(tmp_path):
    store = ResultStore(str(tmp_path / "results.sqlite"))
    for key, result, meta in (_ROW_A, _ROW_B):
        assert store.put(key, result, meta=meta)
    yield store
    store.close()


class TestStoreApi:
    def test_put_reports_new_rows_and_first_writer_wins(self, tmp_path):
        store = ResultStore(str(tmp_path / "results.sqlite"))
        assert store.put("1" * 64, _dummy_result("wl", ipc=1.0)) is True
        assert store.put("1" * 64, _dummy_result("wl", ipc=2.0)) is False
        assert store.get("1" * 64).ipc == 1.0
        assert store.stats()["rows"] == 1

    def test_round_trip_preserves_value_types(self, tmp_path):
        store = ResultStore(str(tmp_path / "results.sqlite"))
        result = RunResult(
            system="LN2-72KB", workload="wl", category="fp", ipc=0.75,
            cycles=1234.0, instructions=925.0,
            activity={"L1.reads": 7, "L1.energy_nj": 0.125},
            core_stats={"committed": 925, "rob_full_cycles": 3.5},
        )
        store.put("1" * 64, result)
        back = store.get("1" * 64)
        assert back == result
        for name, value in result.activity.items():
            assert type(back.activity[name]) is type(value), name
        for name, value in result.core_stats.items():
            assert type(back.core_stats[name]) is type(value), name

    def test_put_without_meta_records_the_result_alone(self, tmp_path):
        path = str(tmp_path / "results.sqlite")
        store = ResultStore(path)
        store.put("1" * 64, _dummy_result("wl"))
        (row,) = store.query()
        assert row["num_instructions"] == 100  # the result's own count
        assert row["simulator_version"] is None
        assert row["builder_digest"] is None and row["mode"] is None
        assert _raw_rows(path, "SELECT prewarm FROM results") == [(1,)]

    @pytest.mark.parametrize("prewarm", [True, False], ids=["warm", "cold"])
    def test_prewarm_flag_is_persisted(self, tmp_path, prewarm):
        path = str(tmp_path / "results.sqlite")
        store = ResultStore(path)
        store.put("1" * 64, _dummy_result("wl"), meta={"prewarm": prewarm})
        assert _raw_rows(path, "SELECT prewarm FROM results") == [(int(prewarm),)]

    @pytest.mark.parametrize(
        "column, argument",
        # label and version are pinned by test_query_filters_and_scenario_tag.
        [
            ("workload", "workload"),
            ("category", "category"),
            ("builder_digest", "builder_digest"),
            ("trace_digest", "trace_digest"),
        ],
    )
    def test_query_filters_on_each_column(self, two_row_store, column, argument):
        (wanted,) = [
            row for row in two_row_store.query() if row["cache_key"] == _ROW_B[0]
        ]
        rows = two_row_store.query(**{argument: wanted[column]})
        assert [row["cache_key"] for row in rows] == [_ROW_B[0]]

    def test_query_filters_combine_with_and(self, two_row_store):
        assert two_row_store.query(label="L2-256KB", version="v2") == []
        (row,) = two_row_store.query(label="L2-256KB", version="v1")
        assert row["cache_key"] == _ROW_A[0]

    def test_query_lists_newest_first(self, two_row_store):
        conn = sqlite3.connect(two_row_store.path)
        with conn:
            conn.execute(
                "UPDATE results SET created_at = ? WHERE cache_key = ?",
                (1000.0, _ROW_A[0]),
            )
            conn.execute(
                "UPDATE results SET created_at = ? WHERE cache_key = ?",
                (2000.0, _ROW_B[0]),
            )
        conn.close()
        assert [row["cache_key"] for row in two_row_store.query()] == [
            _ROW_B[0], _ROW_A[0],
        ]
        (newest,) = two_row_store.query(limit=1)
        assert newest["cache_key"] == _ROW_B[0]

    def test_query_rows_carry_headline_columns_only(self, two_row_store):
        (row,) = two_row_store.query(workload="mcf-like")
        assert set(row) == {
            "cache_key", "label", "workload", "category", "simulator_version",
            "builder_digest", "trace_digest", "num_instructions", "mode",
            "cycles", "ipc", "instructions", "created_at",
        }
        assert (row["label"], row["ipc"], row["cycles"]) == ("L2-256KB", 0.5, 200.0)

    def test_stats_count_distinct_dimensions(self, two_row_store):
        two_row_store.put(
            "c" * 64, _dummy_result("mcf-like", system="L2-256KB"),
            meta={"simulator_version": "v1"},
        )
        stats = two_row_store.stats()
        assert (stats["rows"], stats["versions"], stats["labels"],
                stats["workloads"]) == (3, 2, 2, 2)
        assert stats["schema"] == STORE_SCHEMA
        assert stats["size_bytes"] > 0

    def test_malformed_row_degrades_to_a_miss_and_is_dropped(self, two_row_store):
        conn = sqlite3.connect(two_row_store.path)
        with conn:
            conn.execute(
                "UPDATE results SET result_json = '{\"cycles\": 1' "
                "WHERE cache_key = ?", (_ROW_A[0],),
            )
        conn.close()
        with pytest.warns(RuntimeWarning, match="malformed row"):
            assert two_row_store.get(_ROW_A[0]) is None
        assert [row["cache_key"] for row in two_row_store.query()] == [_ROW_B[0]]
        # The next writer of that key lands again.
        assert two_row_store.put(_ROW_A[0], _ROW_A[1], meta=_ROW_A[2])
        assert two_row_store.get(_ROW_A[0]) == _ROW_A[1]

    def test_default_path_follows_the_environment(self, tmp_path, monkeypatch):
        from repro.sim.store import default_store_path

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.delenv("REPRO_STORE_PATH", raising=False)
        assert default_store_path() == str(tmp_path / "cache" / "results.sqlite")
        monkeypatch.setenv("REPRO_STORE_PATH", str(tmp_path / "elsewhere.sqlite"))
        assert default_store_path() == str(tmp_path / "elsewhere.sqlite")
        store = ResultStore()
        assert store.path == str(tmp_path / "elsewhere.sqlite")
        assert os.path.exists(store.path)
        store.close()


# ----------------------------------------------------------------------- CLI
class TestStoreCli:
    """``repro store query`` and ``repro store stats`` over a known store."""

    def test_query_json_prints_one_object_per_row(self, two_row_store, capsys):
        from repro import cli

        assert cli.main(["--store", two_row_store.path, "store", "query", "--json"]) == 0
        lines = capsys.readouterr().out.splitlines()
        rows = [json.loads(line) for line in lines]
        assert sorted(row["cache_key"] for row in rows) == [_ROW_A[0], _ROW_B[0]]

    def test_query_passes_its_filters_through(self, two_row_store, capsys):
        from repro import cli

        args = ["--store", two_row_store.path, "store", "query",
                "--category", "fp", "--version", "v2", "--json"]
        assert cli.main(args) == 0
        (line,) = capsys.readouterr().out.splitlines()
        assert json.loads(line)["workload"] == "milc-like"

    def test_query_renders_a_table(self, two_row_store, capsys):
        from repro import cli

        args = ["--store", two_row_store.path, "store", "query", "--label", "L2-256KB"]
        assert cli.main(args) == 0
        header, row = capsys.readouterr().out.splitlines()
        assert header.split() == ["label", "workload", "category", "ipc", "cycles"]
        assert row.split() == ["L2-256KB", "mcf-like", "int", "0.5000", "200"]

    def test_query_without_matches_says_so(self, two_row_store, capsys):
        from repro import cli

        args = ["--store", two_row_store.path, "store", "query", "--workload", "nope"]
        assert cli.main(args) == 0
        assert capsys.readouterr().out == "no matching rows\n"

    def test_stats_prints_counts_and_integrity(self, two_row_store, capsys):
        from repro import cli

        assert cli.main(["--store", two_row_store.path, "store", "stats"]) == 0
        counts, health = capsys.readouterr().out.splitlines()
        assert counts.startswith(
            f"store {two_row_store.path}: schema {STORE_SCHEMA}, 2 rows, "
            "2 labels, 2 workloads, 2 simulator versions, "
        )
        assert health == "integrity: ok"

    def test_store_subcommand_defaults_to_the_cache_dir_store(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro import cli

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        monkeypatch.delenv("REPRO_STORE_PATH", raising=False)
        assert cli.main(["store", "stats"]) == 0
        path = str(tmp_path / "cache" / "results.sqlite")
        assert capsys.readouterr().out.startswith(f"store {path}: schema ")
        assert os.path.exists(path)


# -------------------------------------------------------------------- schema
class TestStoreSchema:
    def test_schema_mismatch_refuses_to_open(self, tmp_path):
        path = str(tmp_path / "results.sqlite")
        store = ResultStore(path)
        store.put("9" * 64, _dummy_result("wl"))
        store.close()
        conn = sqlite3.connect(path)
        with conn:
            conn.execute("UPDATE meta SET value = '999' WHERE key = 'schema'")
        conn.close()
        with pytest.raises(StoreSchemaError, match="schema 999"):
            ResultStore(path)

    def test_migrate_is_the_designated_stub(self, tmp_path):
        store = ResultStore(str(tmp_path / "results.sqlite"))
        with pytest.raises(NotImplementedError, match=str(STORE_SCHEMA)):
            store.migrate()


# --------------------------------------------------------------- concurrency
class TestStoreConcurrency:
    def test_concurrent_writers_wal_mode(self, tmp_path):
        path = str(tmp_path / "results.sqlite")
        store = ResultStore(path)
        threads, errors = [], []
        barrier = threading.Barrier(4)

        def writer(worker: int) -> None:
            try:
                barrier.wait(timeout=30)
                for i in range(25):
                    key = f"{worker:02d}{i:02d}".ljust(64, "0")
                    store.put(key, _dummy_result(f"wl-{worker}-{i}"))
                    # Contended key: every worker writes it, first wins.
                    store.put("f" * 64, _dummy_result("shared", ipc=1.0 + worker))
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        for worker in range(4):
            thread = threading.Thread(target=writer, args=(worker,))
            threads.append(thread)
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        stats = store.stats()
        assert stats["rows"] == 4 * 25 + 1
        assert store.verify()["ok"]
        # The contended row is exactly one of the writers' versions, intact.
        shared = store.get("f" * 64)
        assert shared.workload == "shared"
        assert shared.ipc in (1.0, 2.0, 3.0, 4.0)

    def test_close_from_main_thread_closes_every_threads_connection(self, tmp_path):
        store = ResultStore(str(tmp_path / "results.sqlite"))
        store.put("a" * 64, _dummy_result("wl-a"))
        opened, errors = [store._conn()], []

        def user(worker: int) -> None:
            try:
                store.put(f"{worker}".ljust(64, "1"), _dummy_result(f"wl-{worker}"))
                assert store.get("a" * 64).workload == "wl-a"
                opened.append(store._conn())
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        threads = [threading.Thread(target=user, args=(worker,)) for worker in (1, 2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        assert len(set(map(id, opened))) == 3
        store.close()
        for conn in opened:
            # "closed database", not the wrong-thread refusal.
            with pytest.raises(sqlite3.ProgrammingError, match="closed database"):
                conn.execute("SELECT 1")
        # The store itself stays usable: the next call reopens.
        assert store.stats()["rows"] == 3
        store.close()

    def test_finished_threads_connections_do_not_pile_up(self, tmp_path):
        # A caller may use the store from one short-lived thread after
        # another: a finished thread's connection is closed when the next
        # one opens, not kept open until close().
        store = ResultStore(str(tmp_path / "results.sqlite"))
        opened = []

        def user() -> None:
            opened.append(store._conn())
            store.get("a" * 64)

        for _ in range(8):
            thread = threading.Thread(target=user)
            thread.start()
            thread.join(timeout=30)
        assert len(opened) == 8
        for conn in opened[:-1]:
            with pytest.raises(sqlite3.ProgrammingError, match="closed database"):
                conn.execute("SELECT 1")
        assert len(store._connections) == 2  # the main thread's and the last one's
        store.close()

    def test_close_leaves_a_running_threads_connection_to_it(self, tmp_path):
        # A thread holds its handle between _conn() and execute while the
        # main thread closes the store (a shutdown after Ctrl-C, with a
        # worker thread mid-put).  Its write must land and
        # the healthy file must not be quarantined; its stale handle is
        # closed by the thread itself at its next call.
        path = str(tmp_path / "results.sqlite")
        store = ResultStore(path)
        real_conn = store._conn
        at_gate, release = threading.Event(), threading.Event()
        held, outcomes, errors = [], [], []

        def gated_conn():
            conn = real_conn()
            if threading.current_thread().name == "user" and not held:
                held.append(conn)
                at_gate.set()
                assert release.wait(timeout=30)
            return conn

        store._conn = gated_conn

        def user() -> None:
            try:
                outcomes.append(store.put("b" * 64, _dummy_result("wl-b")))
                outcomes.append(store.get("b" * 64).workload)
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        thread = threading.Thread(target=user, name="user")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            thread.start()
            assert at_gate.wait(timeout=30)
            store.close()
            release.set()
            thread.join(timeout=60)
        assert not errors
        assert outcomes == [True, "wl-b"]
        assert not [w for w in caught if "corrupt" in str(w.message)]
        assert not [
            name for name in os.listdir(tmp_path) if ".corrupt-" in name
        ]
        with pytest.raises(sqlite3.ProgrammingError, match="closed database"):
            held[0].execute("SELECT 1")
        assert store.get("b" * 64).workload == "wl-b"
        store.close()

    def test_no_connection_outlives_its_store(self, tmp_path, monkeypatch):
        # Every connection the store opens ends closed: on a store dropped
        # without close(), on a schema refusal and on a corrupt file.
        opened = []
        real_connect = sqlite3.connect

        def recording_connect(*args, **kwargs):
            conn = real_connect(*args, **kwargs)
            opened.append(conn)
            return conn

        monkeypatch.setattr(sqlite3, "connect", recording_connect)

        def all_closed() -> bool:
            for conn in opened:
                try:
                    conn.execute("SELECT 1")
                except sqlite3.ProgrammingError:
                    continue
                return False
            return True

        path = str(tmp_path / "results.sqlite")
        store = ResultStore(path)
        store.put("a" * 64, _dummy_result("wl-a"))
        thread = threading.Thread(target=lambda: store.get("a" * 64))
        thread.start()
        thread.join(timeout=30)
        assert not thread.is_alive()
        assert len(opened) == 2
        del store, thread
        gc.collect()
        assert all_closed()

        conn = real_connect(path)
        with conn:
            conn.execute("UPDATE meta SET value = '999' WHERE key = 'schema'")
        conn.close()
        with pytest.raises(StoreSchemaError):
            ResultStore(path)
        assert len(opened) == 3 and all_closed()

        corrupt = str(tmp_path / "corrupt.sqlite")
        with open(corrupt, "wb") as handle:
            handle.write(b"\x00garbage\x00" * 512)
        with pytest.warns(RuntimeWarning, match="corrupt"):
            ResultStore(corrupt).close()
        assert len(opened) == 5 and all_closed()

    def test_two_store_instances_share_one_file(self, tmp_path):
        path = str(tmp_path / "results.sqlite")
        first = ResultStore(path)
        second = ResultStore(path)
        assert first.put("a" * 64, _dummy_result("wl-a"))
        assert not second.put("a" * 64, _dummy_result("wl-a"))  # already there
        assert second.put("b" * 64, _dummy_result("wl-b"))
        assert first.stats()["rows"] == 2
        assert result_tuple(second.get("a" * 64)) == result_tuple(
            first.get("a" * 64)
        )


# ------------------------------------------------------------ fault injection
class TestStoreFaultInjection:
    @pytest.mark.parametrize("op", ["corrupt", "truncate", "delete"])
    def test_store_file_mangled_mid_ingest_recovers(
        self, tmp_path, clean_faults, op
    ):
        path = str(tmp_path / "results.sqlite")
        store = ResultStore(path)
        faults.install(FaultPlan(specs=[FaultSpec(site="store", op=op, nth=1)]))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for i in range(4):
                store.put(f"{i:x}".ljust(64, "0"), _dummy_result(f"wl-{i}"))
            # A fresh connection sees the mangled file (an open handle may
            # coast on the unlinked/corrupted inode) — the store must
            # quarantine and re-initialise, never crash, never trust it.
            store.close()
            assert store.put("e" * 64, _dummy_result("after-fault"))
            roundtrip = store.get("e" * 64)
        assert roundtrip is not None
        assert roundtrip.workload == "after-fault"
        assert store.verify()["ok"]
        # Whatever survived decodes cleanly; queries never raise.
        store.query(limit=10)
        assert store.stats()["rows"] >= 1

    def test_corrupt_header_warns_and_quarantines(self, tmp_path, clean_faults):
        path = str(tmp_path / "results.sqlite")
        store = ResultStore(path)
        store.put("1" * 64, _dummy_result("wl"))
        store.close()
        with open(path, "r+b") as handle:
            handle.write(b"\x00garbage\x00" * 4)  # stomp the SQLite header
        with pytest.warns(RuntimeWarning, match="corrupt"):
            assert store.get("1" * 64) is None  # degraded to a miss
        # The fresh store works; the corpse was set aside for post-mortem.
        assert store.put("2" * 64, _dummy_result("wl-2"))
        assert any(
            name.startswith("results.sqlite.corrupt-")
            for name in os.listdir(tmp_path)
        )


# ------------------------------------------------------------------ progress
class TestProgressReporting:
    def test_on_progress_reports_each_landed_job(self, tmp_path, pinned_version):
        cache = ResultCache(str(tmp_path / "cache"))
        builders = {"L2-256KB": conventional_spec()}
        calls = []
        run = execute(
            compile_sweep(builders, two_workloads(), TINY), cache=cache,
            on_progress=lambda done, total, stats: calls.append((done, total)),
        )
        # One call per landed job plus the terminating call.
        assert calls == [(1, 2), (2, 2), (2, 2)]
        assert run.stats.simulated == 2

        calls.clear()
        execute(
            compile_sweep(builders, two_workloads(), TINY), cache=cache,
            on_progress=lambda done, total, stats: calls.append((done, total)),
        )
        assert calls == [(1, 2), (2, 2), (2, 2)]  # warm: cache hits report too

    def test_set_default_progress_is_the_fallback(self, tmp_path, pinned_version):
        cache = ResultCache(str(tmp_path / "cache"))
        builders = {"L2-256KB": conventional_spec()}
        calls = []
        set_default_progress(lambda done, total, stats: calls.append(done))
        try:
            execute(compile_sweep(builders, two_workloads()[:1], TINY), cache=cache)
        finally:
            set_default_progress(None)
        assert calls == [1, 1]
        calls.clear()
        execute(compile_sweep(builders, two_workloads()[:1], TINY), cache=cache)
        assert calls == []  # cleared: no callback fires
