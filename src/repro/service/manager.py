"""Sweep lifecycle behind the service: compile, dedup, execute, observe.

The :class:`SweepManager` is the HTTP layer's only dependency — it is
plain Python and fully testable without a socket.  Deduplication happens
at two levels:

1. **Request level** (here): identical concurrent ``POST /sweeps`` bodies
   canonicalize to the same digest and attach to the *same* running
   :class:`Sweep` — one execution, N observers.
2. **Job level** (:mod:`repro.sim.plan`): overlapping but non-identical
   sweeps claim their jobs in the process-wide
   :class:`~repro.sim.plan.InflightRegistry`, so a job shared by two
   different requests still simulates exactly once.

Below both sits the lookup ladder of ``execute`` itself (result cache →
journal → SQLite store), which turns *repeated* requests into pure O(1)
reads — ``counts.simulated == 0`` — with byte-identical results.

Execution itself is shared too: each sweep thread's ``execute`` call
enqueues its jobs into the process-wide persistent worker pool
(:mod:`repro.sim.plan`), so concurrent non-identical sweeps draw from
one set of warm workers and one on-disk snapshot blob store instead of
serializing behind a fork lock.
"""

from __future__ import annotations

import hashlib
import json
import threading
from typing import Dict, List, Optional, Tuple

from repro.common.errors import ConfigurationError
from repro.cpu.workloads import workload_by_name
from repro.experiments.common import conventional_builders, dnuca_builders
from repro.scenarios.registry import build_trace, scenario, scenarios
from repro.sim.configs import BuilderSpec
from repro.sim.plan import (
    ExecutionStats,
    ResultCache,
    RunPlan,
    SupervisionPolicy,
    _result_to_row,
    compile_sweep,
    execute,
    simulator_version,
    worker_pool_stats,
)

#: Smaller than the experiment default on purpose: a service request that
#: does not say how much to simulate gets an interactive-scale answer.
DEFAULT_INSTRUCTIONS = 3000


class SweepRequestError(ValueError):
    """A sweep request that cannot be compiled (HTTP 400)."""


def system_registry() -> Dict[str, BuilderSpec]:
    """Every named hierarchy the service can build (Figs. 4 + 5 registries)."""
    registry = dict(conventional_builders())
    registry.update(dnuca_builders())
    return registry


def canonicalize_request(body: object) -> Dict[str, object]:
    """Validate a request body into its canonical, digestable form.

    Accepted fields: ``systems`` (list of registry names, required),
    ``scenarios`` (list of catalog scenario / legacy workload names)
    and/or ``tag`` (scenario catalog tag) — at least one of the two —
    plus ``instructions`` (default :data:`DEFAULT_INSTRUCTIONS`) and
    ``wait`` (POST blocks until the sweep finishes).  Unknown fields are
    rejected so a typo cannot silently change what runs.
    """
    if not isinstance(body, dict):
        raise SweepRequestError("request body must be a JSON object")
    unknown = set(body) - {"systems", "scenarios", "tag", "instructions", "wait"}
    if unknown:
        raise SweepRequestError(f"unknown request fields: {sorted(unknown)}")

    systems = body.get("systems")
    if not isinstance(systems, list) or not systems or not all(
        isinstance(name, str) for name in systems
    ):
        raise SweepRequestError("'systems' must be a non-empty list of names")
    if len(set(systems)) != len(systems):
        raise SweepRequestError("'systems' contains duplicates")
    registry = system_registry()
    unknown_systems = [name for name in systems if name not in registry]
    if unknown_systems:
        raise SweepRequestError(
            f"unknown systems {unknown_systems} (known: {sorted(registry)})"
        )

    names: List[str] = []
    raw_names = body.get("scenarios", [])
    if not isinstance(raw_names, list) or not all(
        isinstance(name, str) for name in raw_names
    ):
        raise SweepRequestError("'scenarios' must be a list of names")
    names.extend(raw_names)
    tag = body.get("tag")
    if tag is not None:
        if not isinstance(tag, str):
            raise SweepRequestError("'tag' must be a string")
        tagged = [spec.name for spec in scenarios(tag=tag)]
        if not tagged:
            raise SweepRequestError(f"no catalog scenarios carry tag {tag!r}")
        names.extend(name for name in tagged if name not in names)
    if not names:
        raise SweepRequestError("request names no workloads ('scenarios' or 'tag')")
    for name in names:
        _resolve_spec(name)  # raises SweepRequestError on unknown names

    instructions = body.get("instructions", DEFAULT_INSTRUCTIONS)
    if not isinstance(instructions, int) or instructions <= 0:
        raise SweepRequestError("'instructions' must be a positive integer")

    return {
        "systems": list(systems),
        "scenarios": names,
        "instructions": instructions,
    }


def _resolve_spec(name: str):
    """A sweepable spec for ``name``: catalog scenario, else legacy workload."""
    try:
        return scenario(name)
    except ConfigurationError:
        pass
    try:
        return workload_by_name(name)
    except KeyError:
        raise SweepRequestError(
            f"unknown scenario/workload {name!r}"
        ) from None


def request_digest(canonical: Dict[str, object]) -> str:
    """The request's identity: canonical fields plus the simulator version.

    The version is included so a request served before and after a
    simulator upgrade is *not* the same sweep — exactly the rule the
    result-cache key enforces one layer down.
    """
    payload = json.dumps(
        {"request": canonical, "simulator": simulator_version()}, sort_keys=True
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def compile_request(canonical: Dict[str, object]) -> RunPlan:
    registry = system_registry()
    builders = {name: registry[name] for name in canonical["systems"]}
    specs = [_resolve_spec(name) for name in canonical["scenarios"]]
    return compile_sweep(
        builders,
        specs,
        canonical["instructions"],
        trace_factory=_service_trace_factory,
    )


def _service_trace_factory(spec, num_instructions: int):
    """Scenario specs go through the catalog generator, legacy specs inline.

    ``compile_sweep`` only consults the factory for non-poolable spec
    types; catalog scenarios and legacy workloads both take their
    signature-carrying fast paths, so pooled captures are shared with the
    CLI experiments.
    """
    from repro.cpu.workloads import WorkloadSpec, generate_trace

    if isinstance(spec, WorkloadSpec):
        return generate_trace(spec, num_instructions)
    return build_trace(spec, num_instructions)


class Sweep:
    """One submitted sweep: plan, live progress, and final results."""

    def __init__(self, sweep_id: str, canonical: Dict[str, object], plan: RunPlan):
        self.sweep_id = sweep_id
        self.request = canonical
        self.plan = plan
        self.state = "queued"  # queued -> running -> complete | failed
        self.error: Optional[str] = None
        self.stats: Optional[ExecutionStats] = None
        self.failures: List[str] = []
        self._results: List[Optional[Dict[str, object]]] = [None] * len(plan.jobs)
        self._positions = {job: index for index, job in enumerate(plan.jobs)}
        self._done = 0
        self._lock = threading.Lock()
        self.finished = threading.Event()

    # -- producer side (manager thread) -----------------------------------
    def record(self, job, result) -> None:
        """Stream one landed result (``execute``'s ``on_result`` hook)."""
        index = self._positions.get(job)
        if index is None:
            return
        with self._lock:
            if self._results[index] is None:
                self._done += 1
            self._results[index] = _result_to_row(result)

    def finish(self, run) -> None:
        with self._lock:
            for index, result in enumerate(run.results):
                if result is not None:
                    self._results[index] = _result_to_row(result)
            self._done = sum(1 for row in self._results if row is not None)
            self.stats = run.stats
            self.failures = [failure.describe() for failure in run.failures]
            self.state = "complete"
        self.finished.set()

    def fail(self, error: str) -> None:
        with self._lock:
            self.error = error
            self.state = "failed"
        self.finished.set()

    # -- consumer side (HTTP threads) --------------------------------------
    def to_dict(self, include_results: bool = True) -> Dict[str, object]:
        with self._lock:
            payload: Dict[str, object] = {
                "id": self.sweep_id,
                "state": self.state,
                "request": self.request,
                "total": len(self._results),
                "done": self._done,
            }
            if self.stats is not None:
                payload["counts"] = {
                    "jobs": self.stats.jobs,
                    "simulated": self.stats.simulated,
                    "cached": self.stats.cached,
                    "store_hits": self.stats.store_hits,
                    "inflight_hits": self.stats.inflight_hits,
                    "retries": self.stats.retries,
                    "quarantined": self.stats.quarantined,
                }
            if self.failures:
                payload["failures"] = list(self.failures)
            if self.error is not None:
                payload["error"] = self.error
            if include_results:
                # Job order, ``null`` where a job has not landed yet — the
                # shape is deterministic, so two identical finished sweeps
                # compare equal as JSON.
                payload["results"] = [
                    dict(row) if row is not None else None for row in self._results
                ]
        return payload


class SweepManager:
    """Owns every sweep's lifecycle; one instance per service process."""

    def __init__(
        self,
        cache: Optional[ResultCache] = None,
        store=None,
        workers: Optional[int] = None,
        supervision: Optional[SupervisionPolicy] = None,
    ):
        self.cache = cache
        self.store = store
        self.workers = workers
        self.supervision = supervision
        self._lock = threading.Lock()
        self._sweeps: Dict[str, Sweep] = {}
        #: request digest -> live sweep: the request-level dedup map.
        self._active: Dict[str, Sweep] = {}
        self._seq = 0
        self._lifetime = ExecutionStats()

    def submit(self, body: object) -> Tuple[Sweep, bool]:
        """Compile and launch (or join) the sweep described by ``body``.

        Returns ``(sweep, deduplicated)``: ``deduplicated`` is True when
        an identical request was already in flight and the caller
        attached to it instead of starting a second execution.
        """
        canonical = canonicalize_request(body)
        digest = request_digest(canonical)
        with self._lock:
            active = self._active.get(digest)
            if active is not None:
                return active, True
            plan = compile_request(canonical)
            self._seq += 1
            sweep = Sweep(f"sw{self._seq}-{digest[:12]}", canonical, plan)
            self._sweeps[sweep.sweep_id] = sweep
            self._active[digest] = sweep
        thread = threading.Thread(
            target=self._run, args=(sweep, digest), daemon=True,
            name=f"sweep-{sweep.sweep_id}",
        )
        thread.start()
        return sweep, False

    def _run(self, sweep: Sweep, digest: str) -> None:
        sweep.state = "running"
        try:
            run = execute(
                sweep.plan,
                workers=self.workers,
                cache=self.cache,
                store=self.store,
                supervision=self.supervision,
                on_result=sweep.record,
            )
        except Exception as exc:  # surface, never kill the service
            sweep.fail(f"{type(exc).__name__}: {exc}")
        else:
            sweep.finish(run)
            with self._lock:
                self._lifetime.add(run.stats)
        finally:
            with self._lock:
                if self._active.get(digest) is sweep:
                    del self._active[digest]

    def get(self, sweep_id: str) -> Optional[Sweep]:
        with self._lock:
            return self._sweeps.get(sweep_id)

    def healthz(self) -> Dict[str, object]:
        with self._lock:
            sweeps = list(self._sweeps.values())
            lifetime = ExecutionStats()
            lifetime.add(self._lifetime)
        by_state: Dict[str, int] = {}
        for sweep in sweeps:
            by_state[sweep.state] = by_state.get(sweep.state, 0) + 1
        payload: Dict[str, object] = {
            "status": "ok",
            "simulator_version": simulator_version(),
            "sweeps": by_state,
            "executor": {
                "jobs": lifetime.jobs,
                "simulated": lifetime.simulated,
                "cached": lifetime.cached,
                "store_hits": lifetime.store_hits,
                "inflight_hits": lifetime.inflight_hits,
                "retries": lifetime.retries,
                "timeouts": lifetime.timeouts,
                "quarantined": lifetime.quarantined,
                "pool_reused": lifetime.pool_reused,
                "snapshot_disk_hits": lifetime.snapshot_disk_hits,
                "degraded": lifetime.degraded(),
            },
            "worker_pool": worker_pool_stats(),
            "cache_dir": self.cache.directory if self.cache is not None else None,
        }
        if self.store is not None:
            payload["store"] = self.store.stats()
        return payload
