"""The column-oriented trace decode the core's hot loops read.

Hand-decoded mini traces pin the derived columns exactly: the issue
class, the resolved producer indices and the per-config latency table.
"""

from __future__ import annotations

import pytest

from repro.cpu.isa import Instruction, InstrClass
from repro.cpu.trace import Trace
from repro.cpu.workloads import generate_trace, workload_by_name
from repro.scenarios.tracefile import map_trace, save_trace

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


def expected_latencies(trace, int_latency, fp_latency, branch_latency, store_agen):
    """The issue latency table, resolved from the Instruction view."""
    by_kind = {
        K.FP_ALU: fp_latency,
        K.BRANCH: branch_latency,
        K.STORE: store_agen,
        K.LOAD: 0,
    }
    return [
        max(i.latency, int_latency) if i.kind is K.INT_ALU else by_kind[i.kind]
        for i in trace.instructions
    ]


class TestLatenciesFromRecords:
    """The latency table reads the trace latency field from the records the
    decode was built from; the decode keeps no latency column."""

    def test_decode_shares_the_trace_records(self):
        trace = generate_trace(workload_by_name("mcf-like"), 500)
        decoded = trace.decoded()
        assert decoded._records is trace.records
        assert not hasattr(decoded, "latency")

    @pytest.mark.parametrize("name", ["mcf-like", "milc-like"])
    def test_table_matches_the_instruction_view(self, name):
        trace = generate_trace(workload_by_name(name), 2000)
        params = (2, 4, 1, 3)
        assert trace.decoded().issue_latencies(*params) == expected_latencies(
            trace, *params
        )

    @pytest.mark.parametrize(
        "position", [0, 1, 2, 3],
        ids=["int_latency", "fp_latency", "branch_latency", "store_agen_latency"],
    )
    def test_each_parameter_moves_only_its_class(self, position):
        # One instruction per parameter, in parameter order, plus a load.
        trace = Trace.from_instructions("one-each", "int", [
            I(K.INT_ALU, latency=1),
            I(K.FP_ALU),
            I(K.BRANCH),
            I(K.STORE, addr=0),
            I(K.LOAD, addr=64),
        ])
        base = [2, 4, 1, 3]
        bumped = list(base)
        bumped[position] += 10
        before = trace.decoded().issue_latencies(*base)
        after = trace.decoded().issue_latencies(*bumped)
        changed = [index for index, (a, b) in enumerate(zip(before, after)) if a != b]
        assert changed == [position]
        assert after[position] == before[position] + 10
        assert after[4] == 0  # loads complete through the memory system

    def test_mapped_capture_resolves_like_its_bytes(self, tmp_path):
        trace = generate_trace(workload_by_name("milc-like"), 1500)
        path = str(tmp_path / "milc.lntr")
        save_trace(trace, path)
        mapped = map_trace(path)
        assert mapped.decoded().issue_latencies(2, 4, 1, 3) == (
            trace.decoded().issue_latencies(2, 4, 1, 3)
        )

    def test_empty_trace_has_an_empty_table(self):
        assert Trace("empty", "int", b"").decoded().issue_latencies(2, 4, 1, 3) == []
