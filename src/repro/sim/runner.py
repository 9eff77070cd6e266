"""Run harness: one workload on one memory system.

The experiment modules and benchmarks compose everything through
:func:`run_workload` (a single simulation) and :func:`run_suite` (a sweep of
workloads over a set of configurations), so they never have to repeat the
core/memory-system wiring.

Cycle semantics
===============

:func:`simulate` is the shared scheduler that drives one
:class:`~repro.cpu.core.OoOCore` plus its memory system to completion.  It
supports two modes that are guaranteed to produce **bit-identical**
results (cycle counts, IPC, every activity counter):

* ``mode="dense"`` — the classic lock-step loop: ``core.tick(c)`` then
  ``memsys.tick(c)`` for every cycle ``c``.
* ``mode="event"`` (the default) — after ticking at cycle ``c`` the
  scheduler asks the core for its next wakeup
  (:meth:`~repro.cpu.core.OoOCore.next_wakeup`) and the hierarchy for its
  next event (:meth:`~repro.sim.memsys.MemorySystem.next_event_cycle`) and
  jumps straight to the minimum of the two.  Every skipped cycle is
  provably a no-op for both sides; the only dense-mode effect of such a
  cycle — one stall-counter increment while the front end is blocked — is
  re-applied in bulk through
  :meth:`~repro.cpu.core.OoOCore.note_skipped_cycles`.

Skipping is what makes big sweeps affordable: while the core sits on a
60+-cycle memory miss and the hierarchy has nothing in flight, the dense
loop burns one Python call per component per cycle, whereas the event
kernel performs a single jump to the fill's completion cycle.

Busy spans are *batched* rather than skipped: the event loop hands each
instruction-bound stretch to :meth:`~repro.cpu.core.OoOCore.run_batch`,
which runs the dense-equivalent ticks in one pass and only ticks the
memory system at the cycles it declares through ``next_event_cycle``
(hierarchies with only deterministic drain work left declare none at all
and burst-replay it on their next observation — see
:mod:`repro.sim.memsys`).  Both modes enforce the ``max_cycles`` deadlock
guard identically: no cycle beyond the limit is ever simulated, and the
abort raises the same :class:`~repro.common.errors.SimulationError` from
either loop.

:func:`run_suite` compiles its sweep into a declarative
:class:`~repro.sim.plan.RunPlan` and hands it to the shared plan executor
(:func:`repro.sim.plan.execute`), which provides worker fan-out, the
file-backed trace pool, and the content-addressed result cache — every
fast path bit-identical to the direct :func:`run_workload` path.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional

from repro.cpu.core import CoreConfig, OoOCore
from repro.cpu.trace import Trace
from repro.cpu.workloads import WorkloadSpec, generate_trace
from repro.sim.memsys import MemorySystem
from repro.sim.stats import harmonic_mean

SystemBuilder = Callable[[], MemorySystem]

def _resident_addresses(trace: Trace) -> List[int]:
    """Addresses of the trace that belong to the resident working set.

    Delegates to :meth:`repro.cpu.trace.Trace.resident_addresses`, which
    documents the warm-up methodology and caches the result.
    """
    return trace.resident_addresses()


@dataclass
class RunResult:
    """Outcome of simulating one workload on one memory system."""

    system: str
    workload: str
    category: str
    ipc: float
    cycles: float
    instructions: float
    activity: Dict[str, float] = field(default_factory=dict)
    core_stats: Dict[str, float] = field(default_factory=dict)

    def activity_value(self, key: str) -> float:
        return self.activity.get(key, 0.0)


def simulate(
    core: OoOCore,
    mode: str = "event",
    max_cycles: Optional[int] = None,
) -> Dict[str, float]:
    """Drive ``core`` and its memory system to completion.

    This is the shared scheduler described in the module docstring; both
    modes leave the core and hierarchy in identical final states.  Raises
    :class:`~repro.common.errors.SimulationError` when the run exceeds
    ``max_cycles`` (default: 400 cycles per instruction plus slack), which
    catches deadlocks in either mode.
    """
    if mode not in ("dense", "event"):
        raise ValueError(f"unknown simulation mode {mode!r}")
    memsys = core.memsys
    limit = max_cycles or (len(core.trace) * 400 + 100_000)

    finished = core.finished

    if mode == "dense":
        core_tick = core.tick
        mem_tick = memsys.tick
        while not finished():
            cycle = core.cycle
            # The deadlock guard fires before any cycle past ``limit`` is
            # simulated; the event loop below enforces the identical rule
            # (and raises the identical error) at its own advancement
            # points, so both modes abort at the same cycle.
            if cycle > limit:
                raise core.limit_exceeded(limit)
            core_tick(cycle)
            mem_tick(cycle)
            core.cycle = cycle + 1
        memsys.finalize(core.cycle)
        return core.summary()

    next_wakeup = core.next_wakeup
    next_event = memsys.next_event_cycle
    run_batch = core.run_batch
    while not finished():
        # Batched dispatch: run the whole busy span (dense-equivalent, with
        # memory-system ticks gated on its declared events) in one pass.
        # run_batch raises the shared deadlock-guard error before ticking
        # past ``limit`` and leaves core.cycle one past the last tick.
        cycle = run_batch(core.cycle, limit)
        if finished():
            break
        wakeup = next_wakeup(cycle)
        if wakeup == cycle + 1:
            # An event lands next cycle; re-enter the batch directly.
            continue
        event = next_event(cycle)
        if event is not None and (wakeup is None or event < wakeup):
            # Memory-only span: the hierarchy has events strictly before the
            # core's next wakeup, so advance it alone.  The core only needs
            # to be woken early if one of its in-flight loads completes; a
            # completing load is the only memory-side action that creates a
            # new core event (stores complete at issue time).
            watched = core.incomplete_loads()
            cur = event
            while True:
                if cur > limit:
                    # Same rule as dense mode: never simulate past the
                    # guard, even while only the hierarchy is advancing.
                    raise core.limit_exceeded(limit)
                memsys.tick(cur)
                if any(request.done for request in watched):
                    nxt = cur + 1
                    break
                event = next_event(cur)
                if event is None:
                    nxt = wakeup if wakeup is not None else cur + 1
                    break
                if wakeup is not None and event >= wakeup:
                    nxt = wakeup
                    break
                cur = event
        elif wakeup is not None:
            nxt = wakeup
        else:
            nxt = cycle + 1
        if nxt <= cycle:
            nxt = cycle + 1
        if nxt > limit + 1:
            # Dense mode would have died at the guard inside this span.
            raise core.limit_exceeded(limit)
        core.note_skipped_cycles(cycle, nxt)
        core.cycle = nxt
    memsys.finalize(core.cycle)
    return core.summary()


def run_workload(
    system_builder: SystemBuilder,
    spec: WorkloadSpec,
    num_instructions: int,
    core_config: Optional[CoreConfig] = None,
    trace: Optional[Trace] = None,
    prewarm: bool = True,
    mode: str = "event",
) -> RunResult:
    """Simulate ``spec`` (or a pre-generated ``trace``) on a fresh system.

    With ``prewarm`` (the default) the hierarchy's arrays are functionally
    warmed with the trace's own address stream before the timed run, the
    stand-in for the paper's 200-million-instruction warm-up.  ``mode``
    selects the scheduler (``"event"`` skips idle cycles, ``"dense"`` ticks
    every cycle); the results are bit-identical either way.
    """
    system = system_builder()
    trace = trace or generate_trace(spec, num_instructions)
    if prewarm:
        system.prewarm(_resident_addresses(trace))
    core = OoOCore(trace, system, config=core_config)
    summary = simulate(core, mode=mode)
    return RunResult(
        system=system.name,
        workload=spec.name,
        category=spec.category,
        ipc=summary["ipc"],
        cycles=summary["cycles"],
        instructions=summary["instructions"],
        activity=system.activity(),
        core_stats=core.stats.as_dict(),
    )


def run_suite(
    system_builders: Dict[str, SystemBuilder],
    specs: Iterable[WorkloadSpec],
    num_instructions: int,
    core_config: Optional[CoreConfig] = None,
    prewarm: bool = True,
    mode: str = "event",
    workers: Optional[int] = None,
    trace_factory: Optional[Callable] = None,
    traces: Optional[Dict[str, Trace]] = None,
    cache=None,
    pool=None,
    supervision=None,
    on_result: Optional[Callable] = None,
) -> List[RunResult]:
    """Run every workload on every configuration.

    Traces are generated once per workload and reused across configurations
    so all systems see the identical instruction stream (as the paper's
    SimPoints guarantee).  The sweep is compiled into a declarative
    :class:`~repro.sim.plan.RunPlan` and executed by
    :func:`repro.sim.plan.execute`; its fast paths (trace pool, result
    cache) are bit-identical to calling :func:`run_workload` per pair.

    Args:
        mode: scheduler mode passed to every simulation.
        workers: when > 1 (and the platform supports ``fork``), the
            (system, workload) pairs are simulated on that many workers
            drawn from the process-wide persistent pool (reused across
            calls).  Each pair is fully independent, so the result list
            is identical to a sequential run, in the same order.
        trace_factory: ``(spec, num_instructions) -> Trace`` used to
            generate each workload's trace; defaults to the legacy
            :func:`generate_trace`.  The scenario engine passes
            :func:`repro.scenarios.build_trace` here.  ``specs`` may be
            any objects with ``name`` and ``category`` attributes that the
            factory understands.
        traces: pre-generated (e.g. replayed from binary capture) traces
            keyed by workload name; missing entries are generated with the
            factory.
        cache: a :class:`~repro.sim.plan.ResultCache` memoizing finished
            runs on disk; ``None`` (the default) simulates everything.
        pool: a :class:`~repro.sim.plan.TracePool` replaying traces from
            file-backed captures instead of re-synthesizing.
        supervision: a :class:`~repro.sim.plan.SupervisionPolicy` tuning
            the worker path's retry/timeout/quarantine behaviour; ``None``
            uses the defaults.  In non-strict mode a permanently failing
            job is quarantined and *excluded* from the returned list (with
            a :class:`RuntimeWarning` describing it) instead of aborting
            the sweep.
        on_result: streaming hook called with ``(job, result)`` as each
            run completes (cache hit, store hit, in-flight adoption, or
            simulation).
    """
    from repro.sim import plan as plan_module

    compiled = plan_module.compile_sweep(
        system_builders,
        specs,
        num_instructions,
        core_config=core_config,
        prewarm=prewarm,
        mode=mode,
        trace_factory=trace_factory,
        traces=traces,
    )
    run = plan_module.execute(
        compiled, workers=workers, cache=cache, pool=pool,
        supervision=supervision, on_result=on_result,
    )
    if run.failures:
        described = "; ".join(failure.describe() for failure in run.failures)
        warnings.warn(
            f"run_suite: {len(run.failures)} job(s) quarantined and excluded "
            f"from results: {described}",
            RuntimeWarning,
            stacklevel=2,
        )
        return [result for result in run.results if result is not None]
    return run.results


def ipc_by_category(results: Iterable[RunResult]) -> Dict[str, Dict[str, float]]:
    """Harmonic-mean IPC per system and workload category.

    Returns ``{system: {"int": hmean, "fp": hmean}}`` — the quantity plotted
    in Figs. 4(a) and 5(a).

    Runs with non-positive IPC (aborted or zero-committed runs) have no
    harmonic mean; instead of letting one such run crash the aggregation of
    a whole figure, they are excluded from their group's mean and reported
    through a :class:`RuntimeWarning` naming each excluded run.  A group
    whose every run was excluded aggregates to 0.0.
    """
    grouped: Dict[str, Dict[str, List[float]]] = {}
    excluded: List[str] = []
    for result in results:
        categories = grouped.setdefault(result.system, {})
        values = categories.setdefault(result.category, [])
        if result.ipc <= 0:
            excluded.append(f"{result.system}/{result.workload}")
            continue
        values.append(result.ipc)
    if excluded:
        warnings.warn(
            f"ipc_by_category: excluded {len(excluded)} zero-IPC run(s) from the "
            f"harmonic mean: {', '.join(excluded)}",
            RuntimeWarning,
            stacklevel=2,
        )
    return {
        system: {category: harmonic_mean(values) for category, values in categories.items()}
        for system, categories in grouped.items()
    }


def results_for_system(results: Iterable[RunResult], system: str) -> List[RunResult]:
    """Filter a result list down to one configuration."""
    return [result for result in results if result.system == system]
