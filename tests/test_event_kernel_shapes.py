"""Dense vs. event kernel on hand-built timing shapes.

The differential fuzz suite (``test_event_kernel_fuzz.py``) sweeps random
scenarios; this module pins deterministic shapes whose timing is easy to
get subtly wrong when the event kernel batches busy spans or skips idle
ones:

* the L1 hit streak, against a hand-decoded closed form — an exact
  cycle-count regression at several sizes — and a second run over the
  same (already decoded) trace;
* hit streaks behind a live MSHR entry: outstanding misses to *other*
  blocks, and a re-access of the in-flight block that merges into it;
* one-group hit streaks interleaved with cold misses;
* the ALU-heavy ``fma-unroll`` catalog scenario, warm and cold;
* a serial dependence chain that fills the integer window while one of
  its members waits on a long-committed producer.
"""

from __future__ import annotations

import pytest

from repro.cpu.core import OoOCore
from repro.cpu.isa import Instruction, InstrClass
from repro.cpu.trace import Trace
from repro.scenarios import build_trace, scenario
from repro.sim.configs import (
    build_conventional_hierarchy,
    build_lnuca_l3_hierarchy,
)
from repro.sim.runner import run_workload, simulate

I = Instruction
K = InstrClass

#: A resident block (prewarmed) and a far block that cold-misses to
#: main memory, keeping an L1 MSHR entry live for ~a hundred cycles.
RESIDENT = 64
FAR = 1 << 20


def _streak_trace(groups: int) -> Trace:
    """``groups`` fetch groups of [LOAD(resident), ALU, ALU, ALU]."""
    instrs = []
    for _ in range(groups):
        instrs.append(I(K.LOAD, addr=RESIDENT))
        instrs.extend(I(K.INT_ALU) for _ in range(3))
    return Trace.from_instructions(f"hit-streak-{groups}", "int", instrs)


def _run(trace: Trace, mode: str, warm=None):
    hierarchy = build_conventional_hierarchy()
    if warm is None:
        hierarchy.prewarm(trace.resident_addresses())
    else:
        hierarchy.prewarm(warm)
    core = OoOCore(trace, hierarchy)
    simulate(core, mode=mode)
    return core, hierarchy


def _assert_identical(trace: Trace, warm=None) -> "OoOCore":
    dense, dense_h = _run(trace, "dense", warm)
    event, event_h = _run(trace, "event", warm)
    assert event.cycle == dense.cycle
    assert event.stats.as_dict() == dense.stats.as_dict()
    assert event_h.activity() == dense_h.activity()
    return event


class TestHitStreakClosedForm:
    @pytest.mark.parametrize("groups", [50, 200, 256, 400])
    def test_hand_decoded_steady_state(self, groups):
        # Hand-decoded schedule: one fetch group per cycle (fetch width 4,
        # all four slots filled), whose single load hits the warm L1 and
        # whose three ALU ops issue independently — so the machine retires
        # one group per cycle in steady state, plus a 3-cycle constant
        # (fetch->issue->complete of the last group before its commit).
        # Exact closed form: cycles == groups + 3, at every size.
        event = _assert_identical(_streak_trace(groups))
        assert event.cycle == groups + 3

    def test_second_run_of_a_decoded_trace_is_identical(self):
        # The decode (and its latency table) is cached on the trace and
        # shared by every run of a sweep: nothing a run leaves behind in
        # it may change the next run.
        trace = _streak_trace(200)
        first, first_h = _run(trace, "event")
        decoded = trace.decoded()
        second, second_h = _run(trace, "event")
        assert trace.decoded() is decoded
        assert second.cycle == first.cycle
        assert second.stats.as_dict() == first.stats.as_dict()
        assert second_h.activity() == first_h.activity()


class TestStreaksOverLiveMSHR:
    def _mshr_live_trace(self, re_access: bool) -> Trace:
        # A cold miss to FAR allocates an L1 MSHR entry whose fill is a
        # hundred-odd cycles out; the RESIDENT streak behind it is pure
        # L1 hits.  With ``re_access`` a second load to FAR lands in the
        # middle of the streak and merges into the live entry.
        instrs = [I(K.LOAD, addr=FAR)] + [I(K.INT_ALU) for _ in range(3)]
        for _ in range(30):
            instrs.append(I(K.LOAD, addr=RESIDENT))
            instrs.extend(I(K.INT_ALU) for _ in range(3))
        if re_access:
            instrs.append(I(K.LOAD, addr=FAR))
        for _ in range(30):
            instrs.append(I(K.LOAD, addr=RESIDENT))
            instrs.extend(I(K.INT_ALU) for _ in range(3))
        return Trace.from_instructions(f"mshr-live-{re_access}", "int", instrs)

    def test_streak_behind_outstanding_miss_bit_identical(self):
        _, hierarchy = _run(self._mshr_live_trace(False), "event", warm=[RESIDENT])
        assert hierarchy.activity().get("secondary_miss_merges", 0.0) == 0.0
        _assert_identical(self._mshr_live_trace(False), warm=[RESIDENT])

    def test_secondary_merge_bit_identical(self):
        dense, dense_h = _run(self._mshr_live_trace(True), "dense", warm=[RESIDENT])
        event, event_h = _run(self._mshr_live_trace(True), "event", warm=[RESIDENT])
        assert event.cycle == dense.cycle
        assert event.stats.as_dict() == dense.stats.as_dict()
        assert event_h.activity() == dense_h.activity()
        # The re-access really did merge into the live entry.
        assert dense_h.activity().get("secondary_miss_merges", 0.0) == 1.0


class TestShortStreaks:
    def test_one_group_streaks_between_cold_misses_bit_identical(self):
        # Fig. 4-shaped: single-group L1 hit streaks interleaved with
        # cold misses to distinct far blocks.
        instrs = []
        for i in range(40):
            instrs.append(I(K.LOAD, addr=RESIDENT))
            instrs.extend(I(K.INT_ALU) for _ in range(3))
            instrs.append(I(K.LOAD, addr=FAR + i * 4096))
            instrs.extend(I(K.INT_ALU) for _ in range(3))
        _assert_identical(Trace.from_instructions("short-streaks", "int", instrs), warm=[RESIDENT])


_N = 4000

SYSTEMS = {
    "conventional": build_conventional_hierarchy,
    "lnuca+l3": lambda: build_lnuca_l3_hierarchy(3),
}


class TestInstructionBound:
    @pytest.mark.parametrize("system", sorted(SYSTEMS))
    @pytest.mark.parametrize("prewarm", [True, False], ids=["warm", "cold"])
    def test_alu_scenario_bit_identical(self, system, prewarm):
        spec = scenario("fma-unroll")
        trace = build_trace(spec, _N)
        dense = run_workload(
            SYSTEMS[system], spec, _N, trace=trace, prewarm=prewarm, mode="dense"
        )
        event = run_workload(
            SYSTEMS[system], spec, _N, trace=trace, prewarm=prewarm, mode="event"
        )
        assert event.cycles == dense.cycles
        assert event.core_stats == dense.core_stats
        assert event.activity == dense.activity

    def test_serial_chain_behind_committed_producer_bit_identical(self):
        # Independent fillers, then a serial ``dep1=1`` chain that fills
        # the integer window; its member at depth 14 also depends 16 back
        # on a filler committed long before it issues.  Enough fillers
        # follow that the chain is still un-issued while fetch runs on.
        instructions = [I(K.INT_ALU) for _ in range(64)]
        for depth in range(120):
            instructions.append(
                I(K.INT_ALU, dep1=1, dep2=16 if depth == 14 else 0)
            )
        instructions.extend(I(K.INT_ALU) for _ in range(600))
        trace = Trace.from_instructions("committed-producer", "int", instructions)
        dense_core = OoOCore(trace, build_conventional_hierarchy())
        simulate(dense_core, mode="dense")
        event_core = OoOCore(trace, build_conventional_hierarchy())
        simulate(event_core, mode="event")
        assert event_core.cycle == dense_core.cycle
        assert event_core.stats.as_dict() == dense_core.stats.as_dict()
