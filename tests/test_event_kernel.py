"""Dense vs. event-driven scheduler equivalence.

The event-driven kernel (``repro.sim.runner.simulate`` with
``mode="event"``) must be a pure speedup: for every hierarchy the paper
evaluates it has to produce **bit-identical** results to the dense
lock-step loop — same cycle counts, same IPC, same activity counters
(which feed the energy model), and same core statistics (including the
per-cycle stall counters re-applied in bulk for skipped spans).
"""

from __future__ import annotations

import os

import pytest

from repro.sim.configs import (
    build_conventional_hierarchy,
    build_dnuca_hierarchy,
    build_lnuca_dnuca_hierarchy,
    build_lnuca_l3_hierarchy,
)
from repro.sim.runner import run_suite, run_workload
from repro.cpu.workloads import workload_by_name

_N = 2500

#: One builder per hierarchy family of the paper (Fig. 1(a)-(d)).
SYSTEMS = {
    "conventional": build_conventional_hierarchy,
    "lnuca+l3": lambda: build_lnuca_l3_hierarchy(3),
    "dnuca": build_dnuca_hierarchy,
    "lnuca+dnuca": lambda: build_lnuca_dnuca_hierarchy(2),
}

#: Workload mix: regular int, pointer-chasing (long serialized misses,
#: exercising deep skips), and streaming fp (write/stream traffic).
WORKLOADS = ["perlbench-like", "mcf-like", "bwaves-like"]


def _assert_identical(dense, event, context: str) -> None:
    assert dense.cycles == event.cycles, f"{context}: cycle count diverged"
    assert dense.ipc == event.ipc, f"{context}: IPC diverged"
    assert dense.instructions == event.instructions, context
    assert dense.activity == event.activity, f"{context}: activity counters diverged"
    assert dense.core_stats == event.core_stats, f"{context}: core stats diverged"


class TestDenseEventEquivalence:
    @pytest.mark.parametrize("system", sorted(SYSTEMS))
    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_warm_runs_bit_identical(self, system, workload):
        spec = workload_by_name(workload)
        dense = run_workload(SYSTEMS[system], spec, _N, mode="dense")
        event = run_workload(SYSTEMS[system], spec, _N, mode="event")
        _assert_identical(dense, event, f"{system}/{workload} (warm)")

    @pytest.mark.parametrize("system", sorted(SYSTEMS))
    def test_cold_runs_bit_identical(self, system):
        # Cold runs maximise long idle miss spans, the regime in which the
        # event kernel skips the most cycles.
        spec = workload_by_name("mcf-like")
        dense = run_workload(SYSTEMS[system], spec, _N, prewarm=False, mode="dense")
        event = run_workload(SYSTEMS[system], spec, _N, prewarm=False, mode="event")
        _assert_identical(dense, event, f"{system}/mcf-like (cold)")

    def test_event_mode_is_default(self):
        spec = workload_by_name("perlbench-like")
        default = run_workload(build_conventional_hierarchy, spec, _N)
        dense = run_workload(build_conventional_hierarchy, spec, _N, mode="dense")
        _assert_identical(dense, default, "default mode")

    def test_unknown_mode_rejected(self):
        spec = workload_by_name("perlbench-like")
        with pytest.raises(ValueError):
            run_workload(build_conventional_hierarchy, spec, 200, mode="turbo")


class TestSuiteParallelism:
    @pytest.mark.skipif(not hasattr(os, "fork"), reason="requires fork")
    def test_workers_match_sequential(self):
        specs = [workload_by_name("perlbench-like"), workload_by_name("bwaves-like")]
        builders = {
            "conventional": build_conventional_hierarchy,
            "lnuca+l3": lambda: build_lnuca_l3_hierarchy(2),
        }
        sequential = run_suite(builders, specs, 1200)
        parallel = run_suite(builders, specs, 1200, workers=2)
        assert len(sequential) == len(parallel)
        for seq, par in zip(sequential, parallel):
            assert seq.system == par.system and seq.workload == par.workload
            _assert_identical(seq, par, f"workers {seq.system}/{seq.workload}")


class TestNextEventContract:
    def test_idle_hierarchy_reports_no_event(self):
        system = build_conventional_hierarchy()
        assert system.next_event_cycle(0) is None

    def test_busy_hierarchy_defers_drains_without_tick_wakeups(self):
        # The conventional hierarchy never requests tick wakeups: buffered
        # writes are deferred and replayed at their exact dense-mode fire
        # cycles the moment anything observes the hierarchy.
        from repro.cache.request import AccessType

        dense = build_conventional_hierarchy()
        lazy = build_conventional_hierarchy()
        dense.issue(0x1000, AccessType.STORE, 0)  # write-through L1 -> buffered
        lazy.issue(0x1000, AccessType.STORE, 0)
        assert lazy.busy()
        assert lazy.next_event_cycle(0) is None
        for cycle in range(40):
            dense.tick(cycle)
        # One late observation must replay the same drains bit-identically.
        lazy.tick(39)
        assert lazy.activity() == dense.activity()
        assert not lazy.busy() and not dense.busy()

    def test_lnuca_wave_pins_event(self):
        from helpers import make_small_lnuca
        from repro.cache.request import AccessType

        lnuca = make_small_lnuca(3)
        lnuca.issue(0x8000, AccessType.LOAD, 0)  # r-tile miss -> search wave
        event = lnuca.next_event_cycle(0)
        assert event is not None
        # The wave probes one level per cycle, but the intermediate steps
        # are burst-replayed (`_catch_up_waves`), so the scheduler leaps
        # straight to the wave's decisive cycle — and never past it.
        decisive = min(lnuca._wave_decisive_cycle(w) for w in lnuca._waves)
        assert event == decisive
        # The skipped steps really are replayed: a tick at the decisive
        # cycle must observe the same probe/broadcast activity as a
        # hierarchy ticked densely up to that point.
        dense = make_small_lnuca(3)
        dense.issue(0x8000, AccessType.LOAD, 0)
        for cycle in range(event + 1):
            dense.tick(cycle)
        lnuca.tick(event)
        assert lnuca.activity() == dense.activity()


def _stage_state(core):
    """Everything the core's stage loop keeps between cycles."""
    return {
        "next_fetch": core._next_fetch,
        "lsq_count": core._lsq_count,
        "committed": core.committed,
        "fetch_stall_until": core._fetch_stall_until,
        "unresolved_branch": core._unresolved_branch,
        "outstanding_loads": [idx for idx, _ in core._outstanding_loads],
        "store_buffer": len(core._store_buffer),
        "pending_stores": list(core._pending_stores),
        "ready_heaps": [list(heap) for heap in core._ready],
        "window_count": list(core._window_count),
        "stats": core.stats.as_dict(),
    }


class TestBatchBoundaries:
    """Every ``run_batch`` return leaves exactly the dense stage state.

    The final-result fuzz cannot see a stage-state write-back that is
    missed at one batch exit and repaired later; this compares the event
    core with a densely ticked twin at every batch boundary.
    """

    @pytest.mark.parametrize(
        "builder",
        [
            build_conventional_hierarchy,
            lambda: build_lnuca_l3_hierarchy(3),
            lambda: build_lnuca_dnuca_hierarchy(3),
        ],
        ids=["conventional", "LN3", "LN3+DN"],
    )
    @pytest.mark.parametrize("workload", ["mcf-like", "bwaves-like"])
    def test_stage_state_matches_dense_twin_at_every_batch(self, builder, workload):
        from repro.cpu.core import OoOCore
        from repro.cpu.workloads import generate_trace
        from repro.sim.runner import simulate

        trace = generate_trace(workload_by_name(workload), 1500)
        cores = []
        for _ in range(2):
            system = builder()
            system.prewarm(trace.resident_addresses())
            cores.append(OoOCore(trace, system))
        event, dense = cores
        batch = event.run_batch
        boundaries = []

        def checked(cycle, limit):
            last = batch(cycle, limit)
            while dense.cycle <= last:
                dense.tick(dense.cycle)
                dense.memsys.tick(dense.cycle)
                dense.cycle += 1
            assert _stage_state(event) == _stage_state(dense), f"batch ending {last}"
            boundaries.append((cycle, last))
            return last

        event.run_batch = checked
        simulate(event, mode="event")
        assert len(boundaries) > 10
        # Some batches resume after a skipped span, so the comparison also
        # covers the stall counters note_skipped_cycles adds in bulk.
        assert any(
            start > previous_last + 1
            for (_, previous_last), (start, _) in zip(boundaries, boundaries[1:])
        )
