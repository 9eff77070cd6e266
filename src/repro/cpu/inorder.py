"""A small blocking in-order core.

The out-of-order core's sanity reference in ``tests/test_core.py``, which
checks that the OoO core takes no more cycles than this one on the same
trace and memory system.  No experiment, example or ablation runs it.  Every
instruction executes in program order; memory operations block until the
memory system completes them.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.cache.request import AccessType
from repro.common.errors import SimulationError
from repro.cpu.isa import InstrClass
from repro.cpu.trace import Trace
from repro.sim.memsys import MemorySystem
from repro.sim.stats import Stats


class SimpleInOrderCore:
    """One-instruction-at-a-time blocking core."""

    def __init__(self, trace: Trace, memsys: MemorySystem) -> None:
        self.trace = trace
        self.memsys = memsys
        self.cycle = 0
        self.committed = 0
        self.stats = Stats(f"inorder[{trace.name}]")

    def run(self, max_cycles: Optional[int] = None) -> Dict[str, float]:
        """Execute the whole trace and return summary statistics."""
        limit = max_cycles or (len(self.trace) * 2000 + 100_000)
        for instruction in self.trace:
            if instruction.kind.is_memory:
                access = (
                    AccessType.STORE
                    if instruction.kind is InstrClass.STORE
                    else AccessType.LOAD
                )
                while not self.memsys.can_accept(self.cycle, access):
                    self._advance()
                    if self.cycle > limit:
                        raise SimulationError("in-order core stalled forever")
                request = self.memsys.issue(instruction.addr, access, self.cycle)
                while not request.done or request.complete_cycle > self.cycle:
                    self._advance()
                    if self.cycle > limit:
                        raise SimulationError("memory request never completed")
            else:
                for _ in range(max(1, instruction.latency)):
                    self._advance()
            self.committed += 1
        self.memsys.finalize(self.cycle)
        return self.summary()

    def _advance(self) -> None:
        self.memsys.tick(self.cycle)
        self.cycle += 1

    def summary(self) -> Dict[str, float]:
        cycles = max(1, self.cycle)
        return {
            "cycles": float(cycles),
            "instructions": float(self.committed),
            "ipc": self.committed / cycles,
        }

    @property
    def ipc(self) -> float:
        return self.committed / max(1, self.cycle)
