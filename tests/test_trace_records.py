"""The packed record section a :class:`Trace` is, and what is read from it.

Hand-built traces pin the record section's error paths, indexing, the
decode's per-class columns, and the summaries (class mix, memory count,
blocks, resident set) that the workload and scenario tests check only in
aggregate over generated traces.
"""

from __future__ import annotations

import pytest

from repro.cpu.isa import Instruction, InstrClass
from repro.cpu.trace import (
    ISSUE_LOAD,
    ISSUE_MISPREDICT,
    ISSUE_SIMPLE,
    RECORD_BYTES,
    Trace,
    TraceFormatError,
    pack_records,
)
from repro.cpu.workloads import generate_trace, workload_by_name

I = Instruction
K = InstrClass


def sample():
    return [
        I(K.LOAD, addr=0x1000),
        I(K.INT_ALU, dep1=1, latency=3),
        I(K.STORE, addr=0x1020, dep1=2),  # the load's 64 B block
        I(K.FP_ALU, dep1=1, dep2=3),
        I(K.BRANCH, mispredicted=True),
        I(K.LOAD, addr=0x9000, transient=True),  # streaming: not resident
        I(K.INT_ALU, addr=0x5000),  # an ALU's address is not an access
        I(K.STORE, addr=0x2040),
    ]


def sample_trace():
    return Trace.from_instructions("sample", "int", sample())


class TestRecordErrors:
    @pytest.mark.parametrize("extra", [1, RECORD_BYTES - 1])
    def test_partial_record_is_refused(self, extra):
        with pytest.raises(TraceFormatError, match="not a multiple"):
            Trace("partial", "int", b"\0" * (2 * RECORD_BYTES + extra))

    @pytest.mark.parametrize(
        "read",
        [lambda trace: trace.instructions, lambda trace: trace.decoded()],
        ids=["instructions", "decoded"],
    )
    def test_unknown_class_code_is_refused(self, read):
        records = bytearray(pack_records([(0, 0, 0, 0, 1, False, False)] * 3))
        records[RECORD_BYTES] = 9  # the second record's class code
        trace = Trace("bad", "int", bytes(records))
        with pytest.raises(TraceFormatError, match="unknown instruction class 9"):
            read(trace)


class TestIndexing:
    def test_each_index_decodes_its_record(self):
        trace, expected = sample_trace(), sample()
        for index in range(-len(expected), len(expected)):
            assert trace[index] == expected[index]

    @pytest.mark.parametrize("index", [8, -9, 100])
    def test_out_of_range_index_raises(self, index):
        with pytest.raises(IndexError):
            sample_trace()[index]

    def test_slices_match_the_instruction_list(self):
        trace, expected = sample_trace(), sample()
        assert trace[2:6] == expected[2:6]
        assert trace[::3] == expected[::3]
        assert trace[5:2] == []


class TestSummaries:
    def test_class_mix_counts_each_class(self):
        assert sample_trace().class_mix() == {
            "INT_ALU": 2 / 8, "FP_ALU": 1 / 8, "LOAD": 2 / 8,
            "STORE": 2 / 8, "BRANCH": 1 / 8,
        }

    def test_memory_instructions_are_loads_and_stores(self):
        assert sample_trace().memory_instructions() == 4

    @pytest.mark.parametrize("block_size, blocks", [(32, 4), (64, 3), (65536, 1)])
    def test_blocks_count_memory_accesses_only(self, block_size, blocks):
        trace = sample_trace()
        assert trace.unique_blocks(block_size) == blocks
        assert trace.footprint_bytes(block_size) == blocks * block_size

    def test_resident_set_skips_transient_and_non_memory(self):
        assert sample_trace().resident_addresses() == [0x1000, 0x1020, 0x2040]

    def test_empty_trace(self):
        trace = Trace("empty", "int", b"")
        assert len(trace) == 0 and trace.instructions == []
        assert set(trace.class_mix().values()) == {0.0}
        assert trace.memory_instructions() == 0
        assert trace.unique_blocks() == 0
        assert trace.resident_addresses() == []

    def test_derived_views_are_computed_once(self):
        trace = sample_trace()
        assert trace.decoded() is trace.decoded()
        assert trace.resident_addresses() is trace.resident_addresses()


class TestDecodedColumnsPerClass:
    def test_window_memory_kind_and_address_columns(self):
        decoded = sample_trace().decoded()
        # Integer window 0 (branches too), FP window 1, memory window 2.
        assert decoded.window == [2, 0, 2, 1, 0, 2, 0, 2]
        assert decoded.is_mem == [True, False, True, False, False, True, False, True]
        assert decoded.kind == [int(i.kind) for i in sample()]
        assert decoded.addr == [i.addr for i in sample()]

    def test_mispredict_flag_matters_only_on_branches(self):
        trace = Trace.from_instructions("flags", "int", [
            I(K.INT_ALU, mispredicted=True),
            I(K.BRANCH, mispredicted=True),
            I(K.BRANCH),
            I(K.LOAD, addr=64, mispredicted=True),
        ])
        assert trace.decoded().issue_class == [
            ISSUE_SIMPLE, ISSUE_MISPREDICT, ISSUE_SIMPLE, ISSUE_LOAD,
        ]

    @pytest.mark.parametrize("name", ["mcf-like", "milc-like"])
    def test_producer_columns_match_instruction_producers(self, name):
        trace = generate_trace(workload_by_name(name), 3000)
        decoded = trace.decoded()
        for index, instruction in enumerate(trace.instructions):
            resolved = tuple(
                producer
                for producer in (decoded.prod1[index], decoded.prod2[index])
                if producer >= 0
            )
            assert resolved == instruction.producers(index), index
