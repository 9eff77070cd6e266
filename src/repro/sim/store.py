"""Queryable SQLite store of completed simulation results.

The :class:`~repro.sim.plan.ResultCache` answers exactly one question —
"has this exact job already run?" — in one ``open()``.  The
:class:`ResultStore` is the analytical tier behind it: one SQLite row per
completed job, carrying the full digest provenance (builder digest, trace
content digest, simulator version, run parameters), the headline numbers
(cycles, IPC, instructions) as indexed columns, and the complete
:class:`~repro.sim.runner.RunResult` as JSON.  That makes the corpus of
finished work *queryable* — filter by hierarchy label, workload,
scenario tag, or simulator version; compare two versions row by row —
while preserving the repository's core contract: a store-served result
is **byte-identical** to the fresh simulation's, because reconstruction
goes through the same ``_result_to_row``/``_result_from_row`` pair the
cache uses.

Placement in the lookup ladder (see :func:`repro.sim.plan.execute`):
cache hit → **store hit** → simulation.  Every
landed result is fed back, so the store converges on everything the
process has ever computed; ``repro store ingest`` ETLs pre-existing
cache entries in bulk.

Robustness rules, matching the cache's:

* All writes are ``INSERT OR IGNORE`` keyed by the content-addressed
  cache key — first writer wins, concurrent writers (WAL mode, per-thread
  connections, busy timeout) never corrupt each other.
* A corrupt database file is never trusted and never fatal: the file is
  set aside as ``<path>.corrupt-<pid>`` with a :class:`RuntimeWarning`
  and a fresh store is initialised in its place (the cache and
  re-simulation can always rebuild it).
* A schema-version mismatch **refuses** to open (:class:`StoreSchemaError`)
  instead of misreading rows; :meth:`ResultStore.migrate` is the
  designated upgrade point.

``REPRO_STORE_PATH`` overrides the on-disk location (default:
``<result cache dir>/results.sqlite``).
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
import time
import warnings
import weakref
from typing import Dict, List, Optional, Tuple

from repro.sim import faults
from repro.sim.plan import (
    ResultCache,
    _result_from_row,
    _result_to_row,
    default_cache_dir,
)
from repro.sim.runner import RunResult

#: Bump on any change to the table layout; an old store then refuses to
#: open (StoreSchemaError) instead of being misread, and ``migrate`` is
#: the place to teach the upgrade.
STORE_SCHEMA = 1

#: Columns persisted per result row, in insert order.
_COLUMNS = (
    "cache_key", "simulator_version", "builder_digest", "trace_digest",
    "core_digest", "num_instructions", "prewarm", "mode", "label",
    "workload", "category", "cycles", "ipc", "instructions",
    "result_json", "created_at",
)

_CREATE = (
    """
    CREATE TABLE IF NOT EXISTS meta (
        key TEXT PRIMARY KEY,
        value TEXT NOT NULL
    )
    """,
    """
    CREATE TABLE IF NOT EXISTS results (
        cache_key TEXT PRIMARY KEY,
        simulator_version TEXT,
        builder_digest TEXT,
        trace_digest TEXT,
        core_digest TEXT,
        num_instructions INTEGER,
        prewarm INTEGER,
        mode TEXT,
        label TEXT,
        workload TEXT,
        category TEXT,
        cycles REAL,
        ipc REAL,
        instructions INTEGER,
        result_json TEXT NOT NULL,
        created_at REAL
    )
    """,
    """
    CREATE INDEX IF NOT EXISTS idx_results_digests
        ON results (builder_digest, trace_digest, simulator_version)
    """,
    "CREATE INDEX IF NOT EXISTS idx_results_workload ON results (workload, category)",
    "CREATE INDEX IF NOT EXISTS idx_results_label ON results (label)",
)


class StoreSchemaError(RuntimeError):
    """The store on disk uses a different schema version than this code."""


def default_store_path() -> str:
    """``REPRO_STORE_PATH``, else ``results.sqlite`` in the cache dir."""
    env = os.environ.get("REPRO_STORE_PATH")
    if env:
        return env
    return os.path.join(default_cache_dir(), "results.sqlite")


def _close_quietly(connections: List[sqlite3.Connection]) -> None:
    for conn in connections:
        try:
            conn.close()
        except sqlite3.Error:
            pass


def _close_connections(
    connections: List[Tuple[sqlite3.Connection, threading.Thread]],
    lock: threading.Lock,
) -> None:
    """Close and unregister every connection in ``connections``."""
    with lock:
        closing = [conn for conn, _ in connections]
        connections.clear()
    _close_quietly(closing)


class ResultStore:
    """One SQLite row per completed job, keyed by the job's cache key.

    Thread-safe by construction: every thread gets its own connection
    (WAL journal, busy timeout), all writes are single-statement
    ``INSERT OR IGNORE`` transactions, and the schema is validated once
    under a lock at first open.  The store registers every connection it
    opens with the thread that owns it, so :meth:`close` can close those
    of finished threads too, and the garbage collection of a store nobody
    closed closes them all.
    """

    def __init__(self, path: Optional[str] = None, busy_timeout_s: float = 10.0):
        self.path = path if path is not None else default_store_path()
        self._busy_ms = int(busy_timeout_s * 1000)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._generation = 0
        self._verified_schema = False
        #: Every open connection and its owning thread (guarded by
        #: ``_lock``; mutated in place, the finalizer holds the list).
        self._connections: List[Tuple[sqlite3.Connection, threading.Thread]] = []
        # Not at interpreter exit: daemon threads may still be using
        # their connections then, and the process exit releases them.
        weakref.finalize(
            self, _close_connections, self._connections, self._lock
        ).atexit = False
        # Validate the schema eagerly: refuse early, not mid-sweep.  A file
        # that is unreadable at open (corrupt image, stale WAL from a dead
        # process) takes the quarantine path right away — only a *schema*
        # mismatch is a refusal.
        try:
            self._conn()
        except StoreSchemaError:
            raise
        except sqlite3.DatabaseError as exc:
            self._recover(exc)
            self._conn()

    # -- connection management --------------------------------------------
    def _open_connection(self) -> sqlite3.Connection:
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        # Each connection is only ever used by the thread that opened it;
        # check_same_thread=False only lets close() close a finished
        # thread's connection, and the finalizer any, from another thread.
        conn = sqlite3.connect(
            self.path, timeout=self._busy_ms / 1000.0, check_same_thread=False
        )
        try:
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.execute(f"PRAGMA busy_timeout={self._busy_ms}")
        except sqlite3.DatabaseError:
            conn.close()  # a corrupt file fails here, before registration
            raise
        return conn

    def _init_schema(self, conn: sqlite3.Connection) -> None:
        with conn:
            for statement in _CREATE:
                conn.execute(statement)
            row = conn.execute(
                "SELECT value FROM meta WHERE key = 'schema'"
            ).fetchone()
            if row is None:
                conn.execute(
                    "INSERT INTO meta (key, value) VALUES ('schema', ?)",
                    (str(STORE_SCHEMA),),
                )
            elif row[0] != str(STORE_SCHEMA):
                raise StoreSchemaError(
                    f"result store {self.path} has schema {row[0]}, this build "
                    f"expects {STORE_SCHEMA}; run ResultStore.migrate() or point "
                    "REPRO_STORE_PATH at a fresh file"
                )

    def _conn(self) -> sqlite3.Connection:
        state = getattr(self._local, "state", None)
        if state is not None:
            if state[1] == self._generation:
                return state[0]
            self._close_own()  # stale since a recovery or close(): reopen
        conn = self._open_connection()
        try:
            if not self._verified_schema:
                with self._lock:
                    if not self._verified_schema:
                        self._init_schema(conn)
                        self._verified_schema = True
            else:
                self._init_schema(conn)
        except (sqlite3.DatabaseError, StoreSchemaError):
            conn.close()
            raise
        with self._lock:
            # A caller may use the store from many threads: close what
            # finished threads left behind, so handles do not pile up.
            finished = self._take_finished()
            self._connections.append((conn, threading.current_thread()))
        _close_quietly(finished)
        self._local.state = (conn, self._generation)
        return conn

    def _take_finished(self) -> List[sqlite3.Connection]:
        """Unregister the connections of finished threads (under ``_lock``)."""
        finished = [entry for entry in self._connections if not entry[1].is_alive()]
        for entry in finished:
            self._connections.remove(entry)
        return [conn for conn, _ in finished]

    def _close_own(self) -> None:
        """Close and unregister the calling thread's connection, if any."""
        state = getattr(self._local, "state", None)
        if state is not None:
            self._local.state = None
            with self._lock:
                self._connections[:] = [
                    entry for entry in self._connections if entry[0] is not state[0]
                ]
            _close_quietly([state[0]])

    def close(self) -> None:
        """Close the calling thread's connection and those of finished threads.

        A thread still running may be mid-statement on its connection, and
        closing a connection under a running statement is unsafe, so it
        keeps its handle: the bumped generation makes its next call close
        the handle and reopen, and a store that is garbage-collected
        closes whatever is left.  A later call from any thread reopens.
        """
        self._close_own()
        with self._lock:
            self._generation += 1  # handles still open elsewhere are stale
            finished = self._take_finished()
        _close_quietly(finished)

    def _recover(self, exc: Exception) -> None:
        """Set the corrupt file aside and re-initialise a fresh store.

        Mirrors the cache's discipline: a store that cannot be read is
        never trusted and never fatal — everything in it is rebuildable
        from the cache or by re-simulation.
        """
        self._close_own()
        with self._lock:
            self._generation += 1  # stale connections everywhere reopen
            self._verified_schema = False
            quarantine = f"{self.path}.corrupt-{os.getpid()}"
            try:
                os.replace(self.path, quarantine)
            except OSError:
                quarantine = "<unlinkable>"
            for suffix in ("-wal", "-shm"):
                try:
                    os.remove(self.path + suffix)
                except OSError:
                    pass
        warnings.warn(
            f"result store: {self.path} is corrupt ({exc}); set aside as "
            f"{quarantine} and re-initialised empty",
            RuntimeWarning,
            stacklevel=3,
        )

    # -- core API ----------------------------------------------------------
    def put(self, key: str, result: RunResult,
            meta: Optional[Dict[str, object]] = None) -> bool:
        """Insert one result row; returns True when the row is new.

        First writer wins (``INSERT OR IGNORE``): concurrent identical
        writers — threads or processes sharing one file — are harmless.
        A corrupt database is quarantined and the write retried once on
        the fresh file; persistent IO failure degrades to a no-op with a
        warning, exactly like the cache's write path.
        """
        meta = meta or {}
        row = (
            key,
            meta.get("simulator_version"),
            meta.get("builder_digest"),
            meta.get("trace_digest"),
            meta.get("core_digest"),
            meta.get("num_instructions", result.instructions),
            int(bool(meta.get("prewarm", True))),
            meta.get("mode"),
            result.system,
            result.workload,
            result.category,
            result.cycles,
            result.ipc,
            result.instructions,
            json.dumps(_result_to_row(result), sort_keys=True),
            time.time(),
        )
        sql = (
            f"INSERT OR IGNORE INTO results ({', '.join(_COLUMNS)}) "
            f"VALUES ({', '.join('?' * len(_COLUMNS))})"
        )
        for attempt in (0, 1):
            try:
                conn = self._conn()
                with conn:
                    cursor = conn.execute(sql, row)
                faults.on_write("store", self.path)
                return cursor.rowcount > 0
            except sqlite3.DatabaseError as exc:
                if attempt == 0:
                    self._recover(exc)
                    continue
                warnings.warn(
                    f"result store: write failed ({exc}); result not persisted",
                    RuntimeWarning,
                    stacklevel=2,
                )
                return False
            except OSError as exc:
                warnings.warn(
                    f"result store: write failed ({exc}); result not persisted",
                    RuntimeWarning,
                    stacklevel=2,
                )
                return False
        return False

    def get(self, key: str) -> Optional[RunResult]:
        """The stored :class:`RunResult` for ``key``, rebuilt byte-identically.

        Reconstruction parses the stored ``result_json`` through the same
        row codec the cache uses, so a store hit is indistinguishable
        from a fresh simulation.  Any malformed row degrades to a miss.
        """
        try:
            row = self._conn().execute(
                "SELECT result_json FROM results WHERE cache_key = ?", (key,)
            ).fetchone()
        except sqlite3.DatabaseError as exc:
            self._recover(exc)
            return None
        if row is None:
            return None
        try:
            return _result_from_row(json.loads(row[0]))
        except (ValueError, KeyError, TypeError) as exc:
            warnings.warn(
                f"result store: discarding malformed row for {key} ({exc})",
                RuntimeWarning,
                stacklevel=2,
            )
            try:
                conn = self._conn()
                with conn:
                    conn.execute("DELETE FROM results WHERE cache_key = ?", (key,))
            except sqlite3.DatabaseError:
                pass
            return None

    # -- queries -----------------------------------------------------------
    def query(
        self,
        label: Optional[str] = None,
        workload: Optional[str] = None,
        category: Optional[str] = None,
        version: Optional[str] = None,
        builder_digest: Optional[str] = None,
        trace_digest: Optional[str] = None,
        tag: Optional[str] = None,
        limit: Optional[int] = None,
    ) -> List[Dict[str, object]]:
        """Filtered result rows (headline columns, no blobs), newest first.

        ``tag`` resolves through the scenario catalog
        (:func:`repro.scenarios.registry.scenarios`): rows whose workload
        is a catalog scenario carrying that tag.
        """
        clauses: List[str] = []
        params: List[object] = []
        for column, value in (
            ("label", label), ("workload", workload), ("category", category),
            ("simulator_version", version), ("builder_digest", builder_digest),
            ("trace_digest", trace_digest),
        ):
            if value is not None:
                clauses.append(f"{column} = ?")
                params.append(value)
        if tag is not None:
            names = _scenario_names_for_tag(tag)
            if not names:
                return []
            clauses.append(
                f"workload IN ({', '.join('?' * len(names))})"
            )
            params.extend(names)
        sql = (
            "SELECT cache_key, label, workload, category, simulator_version, "
            "builder_digest, trace_digest, num_instructions, mode, cycles, "
            "ipc, instructions, created_at FROM results"
        )
        if clauses:
            sql += " WHERE " + " AND ".join(clauses)
        sql += " ORDER BY created_at DESC, cache_key"
        if limit is not None:
            sql += " LIMIT ?"
            params.append(int(limit))
        try:
            cursor = self._conn().execute(sql, params)
            columns = [item[0] for item in cursor.description]
            return [dict(zip(columns, row)) for row in cursor.fetchall()]
        except sqlite3.DatabaseError as exc:
            self._recover(exc)
            return []

    def compare(self, version_a: str, version_b: str) -> List[Dict[str, object]]:
        """Cross-version comparison: IPC of matching jobs under two versions.

        Rows are matched on (builder digest, trace digest, instructions,
        mode) — the architecture and the input, everything except the
        simulator — so the deltas isolate what the simulator change did.
        """
        sql = """
            SELECT a.label, a.workload, a.category, a.ipc, b.ipc,
                   a.cycles, b.cycles
            FROM results a JOIN results b
              ON a.builder_digest = b.builder_digest
             AND a.trace_digest = b.trace_digest
             AND a.num_instructions = b.num_instructions
             AND a.mode = b.mode
            WHERE a.simulator_version = ? AND b.simulator_version = ?
            ORDER BY a.workload, a.label
        """
        try:
            rows = self._conn().execute(sql, (version_a, version_b)).fetchall()
        except sqlite3.DatabaseError as exc:
            self._recover(exc)
            return []
        return [
            {
                "label": label, "workload": workload, "category": category,
                "ipc_a": ipc_a, "ipc_b": ipc_b,
                "cycles_a": cycles_a, "cycles_b": cycles_b,
                "ipc_delta": (ipc_b - ipc_a) if None not in (ipc_a, ipc_b) else None,
            }
            for label, workload, category, ipc_a, ipc_b, cycles_a, cycles_b in rows
        ]

    def stats(self) -> Dict[str, object]:
        """Row counts and distinct-dimension counts (for ``repro store stats``)."""
        try:
            conn = self._conn()
            (rows,) = conn.execute("SELECT COUNT(*) FROM results").fetchone()
            (versions,) = conn.execute(
                "SELECT COUNT(DISTINCT simulator_version) FROM results"
            ).fetchone()
            (labels,) = conn.execute(
                "SELECT COUNT(DISTINCT label) FROM results"
            ).fetchone()
            (workloads,) = conn.execute(
                "SELECT COUNT(DISTINCT workload) FROM results"
            ).fetchone()
        except sqlite3.DatabaseError as exc:
            self._recover(exc)
            rows = versions = labels = workloads = 0
        try:
            size = os.path.getsize(self.path)
        except OSError:
            size = 0
        return {
            "path": self.path,
            "schema": STORE_SCHEMA,
            "rows": rows,
            "versions": versions,
            "labels": labels,
            "workloads": workloads,
            "size_bytes": size,
        }

    def verify(self) -> Dict[str, object]:
        """``PRAGMA integrity_check`` plus a row-decode sample."""
        try:
            (integrity,) = self._conn().execute(
                "PRAGMA integrity_check"
            ).fetchone()
        except sqlite3.DatabaseError as exc:
            return {"ok": False, "integrity": str(exc)}
        return {"ok": integrity == "ok", "integrity": integrity}

    # -- ETL ---------------------------------------------------------------
    def ingest_cache(self, cache: ResultCache) -> Dict[str, int]:
        """ETL every readable :class:`ResultCache` entry into the store.

        Entries written since the store landed carry their digest
        provenance (``meta``); older entries ingest with null digests —
        still queryable by label/workload, still byte-identical on
        :meth:`get`.  Unreadable entries are skipped (the cache's own
        ``verify`` handles them).
        """
        report = {"scanned": 0, "ingested": 0, "skipped": 0}
        for key, result, meta in cache.entries():
            report["scanned"] += 1
            if result is None:
                report["skipped"] += 1
            elif self.put(key, result, meta=meta):
                report["ingested"] += 1
        return report

    # -- migrations --------------------------------------------------------
    def migrate(self) -> None:
        """Upgrade an old-schema store in place.

        Stub on purpose: schema 1 is the first schema, so there is
        nothing to migrate *from* yet.  When STORE_SCHEMA bumps, this is
        where the stepwise ``ALTER TABLE`` chain goes; until then an
        old-schema file refuses to open and the remedy is a fresh path.
        """
        raise NotImplementedError(
            f"no migrations exist yet (current schema: {STORE_SCHEMA}); "
            "point REPRO_STORE_PATH at a fresh file and re-ingest"
        )


def _scenario_names_for_tag(tag: str) -> List[str]:
    """Catalog scenario names carrying ``tag`` (empty on unknown tags)."""
    try:
        from repro.scenarios.registry import scenarios

        return [spec.name for spec in scenarios(tag=tag)]
    except Exception:
        return []
