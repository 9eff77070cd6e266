"""Tests for the synthetic workload generator and trace container."""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import ConfigurationError
from repro.cpu.isa import Instruction, InstrClass
from repro.cpu.trace import Trace
from repro.cpu.workloads import (
    WorkloadSpec,
    fp_suite,
    full_suite,
    generate_trace,
    integer_suite,
    representative_suite,
    workload_by_name,
)
from repro.experiments.common import select_workloads
from repro.scenarios.tracefile import records_bytes

#: sha256 of ``records_bytes(generate_trace(spec, n))``, recorded from the
#: per-instruction generator: the six workloads a default report selects
#: at the report length, and every suite workload at a short length.  Any
#: change to the generator's stream (draw order, record packing) shows here.
LEGACY_STREAM_SHA256 = {
    15000: {
        "perlbench-like": "b94b910279366c86a59e660ed7b9018b78f65c4e72a910fa2ddd32e2991a3cfc",
        "mcf-like": "03347b98725a93d8714ef1e940bafe0bfae63eba17f87f7bc39ec0554f0644cd",
        "libquantum-like": "dd116a89ba667306f3aa068eeb404a2d5f3defbe32bfbe4a2b65b41603236101",
        "bwaves-like": "c641224aea1ae9c326318a80de4aff2375f5319a365e0b574addf30ec29f3331",
        "gromacs-like": "2882c870023abf49f90d063469c503b1e5106356bb7f4fd883641d93e065b3cf",
        "soplex-like": "6c7b55504f9b8aa1c6aab8cb85a624de679d7addac5ddfe0869ec431f8a67f8c",
    },
    2500: {
        "perlbench-like": "5ab6cf1442190661ed44cf6b987a63d6566ef6e88b337699ca91d79ead928634",
        "bzip2-like": "c0cf9bceaf014ecccaeb3674942a95c60038a8f7326dc77e54c23db900830a95",
        "gcc-like": "6711ccf25dea3741f0ce3673d68ee87ebe62573f0709e71ef5599563cd742325",
        "mcf-like": "b5e828ef650a9902901e8af370467cf47020d9371ad9203f31c185d4fa994790",
        "gobmk-like": "76fafd1daa005e311c3653cddcfc107bcd99ee5be1391c376848648b1e5e2ac2",
        "hmmer-like": "63057e2102a9b4ae2234c9b6370d574afe3a6c2cdac94cabb0f90b8b682dc726",
        "sjeng-like": "f9998b160e9b78f66137362c919ad6a6d91994b8f669a788edff2de2fb8c5cc7",
        "libquantum-like": "0457bfbb5cb23f2b030dc16c7a1bb4fe5367000496103b7cd7df50a38ec6139f",
        "h264ref-like": "12e43287ecb046e19bf678443ccac267ba054bae9bfb8ba27549c91dd6205df3",
        "omnetpp-like": "acba4ec74280fa96dfe36f5167985179d1c310c15774488bc4f439276e8a8b88",
        "astar-like": "46335c9a9a7c3045fe609326f803b8bdabb50e106d053c046f7db68d96a3d52a",
        "bwaves-like": "56ea7418145ec3aaf4f3527f093c96e4c0a99754a1ec0d9047e9ae5ae131a9ef",
        "milc-like": "31f6d945f8b394b4b86a8fb001baa20e519797fe3a79aa89bcf7ca306478862f",
        "zeusmp-like": "cbf2020c3bdbad8b7b31fa6198096ece279c1d5c1b4a94a2309c0a80afff7c79",
        "gromacs-like": "2574236ea2fa9bc4664c3f4b7c6898a825cbe1b9966e7a02a28f62f42df0cd23",
        "leslie3d-like": "665832786a01682437d6dfef7d4abf92a658ae87f0eaca1edb9358b784470525",
        "namd-like": "d85f3e8021fa24f26045227b46d83e895ea5288cf9b3603e7f5d879cca3de777",
        "soplex-like": "66edb0d9c804f7e91f8d070fabd177c4e1ac38f743236458027b543c42ad8a5c",
        "lbm-like": "4632c277be8e67929c9b0f55b5714548b037c0a4cf9394387cfef0b5f2217359",
        "sphinx3-like": "82050dbbb893118e95a41a89d795524ad777e4d2c87b2cb35ffa23cb76ef19fd",
        "gemsfdtd-like": "bf14c2b9a374ce68ae4b88373a7262ec00181ecd3d11fbe251813f56383c95e1",
    },
}


class TestInstruction:
    def test_memory_classification(self):
        assert InstrClass.LOAD.is_memory
        assert InstrClass.STORE.is_memory
        assert not InstrClass.INT_ALU.is_memory

    def test_fp_classification(self):
        assert InstrClass.FP_ALU.is_fp
        assert not InstrClass.LOAD.is_fp

    def test_producers_resolve_distances(self):
        instr = Instruction(kind=InstrClass.INT_ALU, dep1=2, dep2=5)
        assert instr.producers(10) == (8, 5)

    def test_producers_ignore_out_of_range(self):
        instr = Instruction(kind=InstrClass.INT_ALU, dep1=5)
        assert instr.producers(3) == ()


class TestTraceContainer:
    def test_class_mix_sums_to_one(self, tiny_trace):
        mix = tiny_trace.class_mix()
        assert sum(mix.values()) == pytest.approx(1.0)

    def test_memory_instruction_count(self, tiny_trace):
        expected = sum(1 for i in tiny_trace if i.kind.is_memory)
        assert tiny_trace.memory_instructions() == expected

    def test_footprint_positive(self, tiny_trace):
        assert tiny_trace.footprint_bytes() > 0

    def test_indexing_and_len(self, tiny_trace):
        assert len(tiny_trace) == 800
        assert isinstance(tiny_trace[0], Instruction)


class TestGenerator:
    def test_deterministic_for_same_seed(self, tiny_workload):
        a = generate_trace(tiny_workload, 500)
        b = generate_trace(tiny_workload, 500)
        assert [i.addr for i in a] == [i.addr for i in b]
        assert [i.kind for i in a] == [i.kind for i in b]

    def test_different_seeds_differ(self, tiny_workload):
        a = generate_trace(tiny_workload, 500, seed=1)
        b = generate_trace(tiny_workload, 500, seed=2)
        assert [i.addr for i in a] != [i.addr for i in b]

    def test_requested_length(self, tiny_workload):
        assert len(generate_trace(tiny_workload, 123)) == 123

    def test_rejects_empty_trace(self, tiny_workload):
        with pytest.raises(ConfigurationError):
            generate_trace(tiny_workload, 0)

    def test_class_fractions_roughly_respected(self, tiny_workload):
        trace = generate_trace(tiny_workload, 8000)
        mix = trace.class_mix()
        assert mix["LOAD"] == pytest.approx(tiny_workload.load_fraction, abs=0.03)
        assert mix["STORE"] == pytest.approx(tiny_workload.store_fraction, abs=0.03)
        assert mix["BRANCH"] == pytest.approx(tiny_workload.branch_fraction, abs=0.03)

    def test_memory_ops_have_addresses(self, tiny_trace):
        for instr in tiny_trace:
            if instr.kind.is_memory:
                assert instr.addr > 0
            else:
                assert instr.addr == 0

    def test_transient_flags_streaming_and_cold(self):
        spec = WorkloadSpec(
            name="streamy", category="fp", regions=((8.0, 0.5),),
            stream_weight=0.3, cold_weight=0.2, seed=3,
        )
        trace = generate_trace(spec, 4000)
        transients = [i for i in trace if i.kind.is_memory and i.transient]
        residents = [i for i in trace if i.kind.is_memory and not i.transient]
        assert transients and residents
        # Resident accesses stay within the declared reuse region span.
        for instr in residents:
            assert instr.addr < 0x3000_0000

    def test_pointer_chase_creates_load_load_deps(self):
        spec = WorkloadSpec(
            name="chasing", category="int", pointer_chase_fraction=0.9, seed=5,
            load_fraction=0.4,
        )
        trace = generate_trace(spec, 3000)
        chased = 0
        for index, instr in enumerate(trace):
            if instr.kind is InstrClass.LOAD and instr.dep1:
                producer = trace[index - instr.dep1]
                if producer.kind is InstrClass.LOAD:
                    chased += 1
        assert chased > 100

    def test_fp_fraction_controls_fp_ops(self):
        spec = WorkloadSpec(name="fp-heavy", category="fp", fp_fraction=0.9, seed=6)
        trace = generate_trace(spec, 3000)
        mix = trace.class_mix()
        assert mix["FP_ALU"] > mix["INT_ALU"]

    def test_mispredicted_branch_rate(self):
        spec = WorkloadSpec(name="br", category="int", mispredict_rate=0.5,
                            branch_fraction=0.3, seed=8)
        trace = generate_trace(spec, 4000)
        branches = [i for i in trace if i.kind is InstrClass.BRANCH]
        mispredicted = [i for i in branches if i.mispredicted]
        assert 0.3 < len(mispredicted) / len(branches) < 0.7

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=1, max_value=2000))
    def test_any_length_generates(self, length):
        spec = WorkloadSpec(name="any", category="int", seed=9)
        assert len(generate_trace(spec, length)) == length


class TestPinnedStreams:
    def test_pinned_lengths_cover_report_and_suite(self):
        assert set(LEGACY_STREAM_SHA256[15000]) == {s.name for s in select_workloads()}
        assert set(LEGACY_STREAM_SHA256[2500]) == {s.name for s in full_suite()}

    @pytest.mark.parametrize(
        "length, name",
        [(n, name) for n, table in LEGACY_STREAM_SHA256.items() for name in table],
    )
    def test_stream_matches_pinned_sha256(self, length, name):
        trace = generate_trace(workload_by_name(name), length)
        digest = hashlib.sha256(records_bytes(trace)).hexdigest()
        assert digest == LEGACY_STREAM_SHA256[length][name]


class TestSuites:
    def test_suite_sizes(self):
        assert len(integer_suite()) == 11
        assert len(fp_suite()) == 10
        assert len(full_suite()) == 21

    def test_categories_consistent(self):
        assert all(spec.category == "int" for spec in integer_suite())
        assert all(spec.category == "fp" for spec in fp_suite())

    def test_unique_names(self):
        names = [spec.name for spec in full_suite()]
        assert len(names) == len(set(names))

    def test_workload_by_name(self):
        assert workload_by_name("mcf-like").pointer_chase_fraction > 0
        with pytest.raises(KeyError):
            workload_by_name("does-not-exist")

    def test_representative_suite_balance(self):
        suite = representative_suite(3)
        assert sum(1 for s in suite if s.category == "int") == 3
        assert sum(1 for s in suite if s.category == "fp") == 3

    def test_representative_suite_caps_at_full(self):
        suite = representative_suite(100)
        assert len(suite) == len(full_suite())

    def test_fp_workloads_have_larger_warm_sets(self):
        int_warm = [max(size for size, _ in spec.regions) for spec in integer_suite()]
        fp_warm = [max(size for size, _ in spec.regions) for spec in fp_suite()]
        assert sum(fp_warm) / len(fp_warm) > sum(int_warm) / len(int_warm)

    def test_spec_validation(self):
        with pytest.raises(ConfigurationError):
            WorkloadSpec(name="bad", category="vector")
        with pytest.raises(ConfigurationError):
            WorkloadSpec(name="bad", category="int", load_fraction=0.6, store_fraction=0.5)
