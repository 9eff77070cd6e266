"""The column-oriented trace decode the core's hot loops read.

Hand-decoded mini traces pin the derived columns exactly: the issue
class, the resolved producer indices and the per-config latency table.
"""

from __future__ import annotations

from repro.cpu.isa import Instruction, InstrClass
from repro.cpu.trace import Trace

I = Instruction
K = InstrClass


class TestDecodedColumns:
    def test_issue_class_and_producer_columns(self):
        trace = Trace.from_instructions("cls", "int", [
            I(K.LOAD, addr=64),
            I(K.BRANCH, mispredicted=True),
            I(K.BRANCH),
            I(K.STORE, addr=0, dep1=2),
            I(K.INT_ALU, dep1=9),  # out-of-range producer
        ])
        decoded = trace.decoded()
        assert decoded.issue_class == [1, 2, 0, 0, 0]
        assert list(decoded.prod1) == [-1, -1, -1, 1, -1]
        assert list(decoded.prod2) == [-1, -1, -1, -1, -1]

    def test_issue_latencies_resolution(self):
        trace = Trace.from_instructions("lat", "int", [
            I(K.INT_ALU, latency=1),
            I(K.INT_ALU, latency=7),   # trace latency above the floor wins
            I(K.FP_ALU, latency=1),    # FP always uses the config latency
            I(K.LOAD, addr=64),
            I(K.STORE, addr=0),
            I(K.BRANCH),
        ])
        lat = trace.decoded().issue_latencies(2, 4, 1, 3)
        assert lat == [2, 7, 4, 0, 3, 1]
        # Cached per parameter tuple.
        assert trace.decoded().issue_latencies(2, 4, 1, 3) is lat
