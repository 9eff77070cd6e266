"""Tests for the out-of-order and in-order core models."""

import pytest

from repro.cache.request import AccessType, MemoryRequest
from repro.cpu.core import CoreConfig, OoOCore
from repro.cpu.inorder import SimpleInOrderCore
from repro.cpu.isa import Instruction, InstrClass
from repro.cpu.trace import Trace
from repro.cpu.workloads import WorkloadSpec, generate_trace
from repro.sim.memsys import MemorySystem


class FixedLatencyMemory(MemorySystem):
    """A memory system that answers every request after a fixed latency."""

    def __init__(self, latency=2, reject_first=0):
        super().__init__("fixed")
        self.latency = latency
        self.reject_remaining = reject_first
        self.issued = 0

    def can_accept(self, cycle, access):
        if self.reject_remaining > 0:
            self.reject_remaining -= 1
            return False
        return True

    def issue(self, addr, access, cycle):
        self.issued += 1
        request = MemoryRequest(addr=addr, access=access, issue_cycle=cycle)
        request.complete(cycle + self.latency, "L1")
        return request

    def tick(self, cycle):
        pass


def alu_trace(n, dep=0, kind=InstrClass.INT_ALU):
    instructions = [Instruction(kind=kind, dep1=dep if i else 0) for i in range(n)]
    return Trace.from_instructions("alu", "int", instructions)


def mixed_trace(n):
    instructions = []
    for i in range(n):
        if i % 4 == 0:
            instructions.append(Instruction(kind=InstrClass.LOAD, addr=0x1000 + i * 32))
        elif i % 7 == 0:
            instructions.append(Instruction(kind=InstrClass.STORE, addr=0x8000 + i * 32))
        else:
            instructions.append(Instruction(kind=InstrClass.INT_ALU, dep1=1))
    return Trace.from_instructions("mixed", "int", instructions)


class TestOoOCore:
    def test_completes_all_instructions(self):
        core = OoOCore(mixed_trace(200), FixedLatencyMemory())
        summary = core.run()
        assert summary["instructions"] == 200
        assert core.finished()

    def test_ipc_bounded_by_width(self):
        core = OoOCore(alu_trace(400), FixedLatencyMemory())
        core.run()
        assert 0 < core.ipc <= core.config.commit_width

    def test_independent_alus_reach_high_ipc(self):
        core = OoOCore(alu_trace(800, dep=0), FixedLatencyMemory())
        core.run()
        assert core.ipc > 2.0

    def test_serial_dependences_limit_ipc(self):
        independent = OoOCore(alu_trace(800, dep=0), FixedLatencyMemory())
        independent.run()
        serial = OoOCore(alu_trace(800, dep=1), FixedLatencyMemory())
        serial.run()
        assert serial.ipc < independent.ipc
        assert serial.ipc <= 1.1

    def test_memory_latency_slows_execution(self):
        fast = OoOCore(mixed_trace(400), FixedLatencyMemory(latency=2))
        fast.run()
        slow = OoOCore(mixed_trace(400), FixedLatencyMemory(latency=150))
        slow.run()
        assert slow.cycle > fast.cycle

    def test_branch_mispredictions_add_cycles(self):
        def branch_trace(mispredicted):
            instructions = []
            for i in range(300):
                if i % 10 == 5:
                    instructions.append(
                        Instruction(kind=InstrClass.BRANCH, mispredicted=mispredicted)
                    )
                else:
                    instructions.append(Instruction(kind=InstrClass.INT_ALU))
            return Trace.from_instructions("br", "int", instructions)

        clean = OoOCore(branch_trace(False), FixedLatencyMemory())
        clean.run()
        noisy = OoOCore(branch_trace(True), FixedLatencyMemory())
        noisy.run()
        assert noisy.cycle > clean.cycle
        assert noisy.stats["branch_mispredictions"] == 30

    def test_load_issue_retries_when_memory_busy(self):
        memory = FixedLatencyMemory(latency=2, reject_first=5)
        core = OoOCore(mixed_trace(100), memory)
        core.run()
        assert core.stats["load_issue_retries"] >= 1
        assert core.finished()

    def test_stores_reach_memory_at_commit(self):
        memory = FixedLatencyMemory()
        trace = mixed_trace(140)
        stores = sum(1 for i in trace if i.kind is InstrClass.STORE)
        core = OoOCore(trace, memory)
        core.run()
        assert core.stats["stores_committed"] == stores

    def test_fp_latency_respected(self):
        fp = OoOCore(alu_trace(300, dep=1, kind=InstrClass.FP_ALU), FixedLatencyMemory())
        fp.run()
        integer = OoOCore(alu_trace(300, dep=1, kind=InstrClass.INT_ALU), FixedLatencyMemory())
        integer.run()
        assert fp.cycle > integer.cycle

    def test_summary_fields(self):
        core = OoOCore(mixed_trace(100), FixedLatencyMemory())
        summary = core.run()
        for key in ("cycles", "instructions", "ipc", "loads", "stores"):
            assert key in summary

    def test_custom_config_rob_limits(self):
        small_rob = CoreConfig(rob_size=8)
        core = OoOCore(mixed_trace(300), FixedLatencyMemory(latency=60), config=small_rob)
        core.run()
        assert core.stats["rob_full_stalls"] > 0

    def test_runs_with_generated_workload(self, tiny_workload):
        trace = generate_trace(tiny_workload, 600)
        core = OoOCore(trace, FixedLatencyMemory(latency=4))
        summary = core.run()
        assert summary["instructions"] == 600


class TestInOrderCore:
    def test_completes_trace(self):
        core = SimpleInOrderCore(mixed_trace(150), FixedLatencyMemory())
        summary = core.run()
        assert summary["instructions"] == 150
        assert 0 < summary["ipc"] <= 1.0

    def test_slower_than_ooo(self):
        trace = mixed_trace(300)
        inorder = SimpleInOrderCore(trace, FixedLatencyMemory(latency=20))
        inorder.run()
        ooo = OoOCore(trace, FixedLatencyMemory(latency=20))
        ooo.run()
        assert inorder.cycle >= ooo.cycle

    def test_memory_latency_fully_exposed(self):
        fast = SimpleInOrderCore(mixed_trace(100), FixedLatencyMemory(latency=1))
        fast.run()
        slow = SimpleInOrderCore(mixed_trace(100), FixedLatencyMemory(latency=50))
        slow.run()
        assert slow.cycle > fast.cycle + 1000
