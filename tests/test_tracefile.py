"""Tests for the binary trace capture/replay format."""

import struct
from pathlib import Path

import pytest

from repro.cpu.isa import Instruction, InstrClass
from repro.cpu.trace import Trace
from repro.scenarios import (
    TraceFormatError,
    build_trace,
    load_trace,
    read_meta,
    save_trace,
    scenario,
)
from repro.scenarios.tracefile import FORMAT_VERSION, MAGIC, RECORD_BYTES, map_trace


@pytest.fixture
def sample_trace():
    return build_trace(scenario("kv-zipf-hot"), 1200)


class TestRoundTrip:
    def test_round_trip_bit_identical(self, sample_trace, tmp_path):
        path = str(tmp_path / "kv.lntr")
        save_trace(sample_trace, path)
        loaded = load_trace(path)
        assert loaded.name == sample_trace.name
        assert loaded.category == sample_trace.category
        assert loaded.instructions == sample_trace.instructions

    @pytest.mark.parametrize("name", ["mcf-like", "gups-8m", "phase-kv-stencil"])
    def test_round_trip_across_families(self, name, tmp_path):
        trace = build_trace(scenario(name), 800)
        path = str(tmp_path / f"{name}.lntr")
        save_trace(trace, path)
        assert load_trace(path).instructions == trace.instructions

    def test_save_is_deterministic(self, sample_trace, tmp_path):
        a, b = str(tmp_path / "a.lntr"), str(tmp_path / "b.lntr")
        save_trace(sample_trace, a)
        save_trace(sample_trace, b)
        assert Path(a).read_bytes() == Path(b).read_bytes()

    def test_extreme_field_values_survive(self, tmp_path):
        instructions = [
            Instruction(
                kind=InstrClass.LOAD,
                addr=(1 << 64) - 8,
                dep1=(1 << 32) - 1,
                dep2=7,
                latency=65535,
                mispredicted=False,
                transient=True,
            ),
            Instruction(kind=InstrClass.BRANCH, mispredicted=True),
        ]
        trace = Trace.from_instructions("edge", "int", instructions)
        path = str(tmp_path / "edge.lntr")
        save_trace(trace, path)
        assert load_trace(path).instructions == instructions

    def test_replayed_trace_supports_trace_api(self, sample_trace, tmp_path):
        path = str(tmp_path / "api.lntr")
        save_trace(sample_trace, path)
        loaded = load_trace(path)
        assert loaded.class_mix() == sample_trace.class_mix()
        assert loaded.resident_addresses() == sample_trace.resident_addresses()
        assert loaded.footprint_bytes() == sample_trace.footprint_bytes()


class TestMetadata:
    def test_header_meta(self, sample_trace, tmp_path):
        path = str(tmp_path / "meta.lntr")
        size = save_trace(sample_trace, path, extra_meta={"family": "zipf-kv", "seed": 101})
        meta = read_meta(path)
        assert meta["name"] == sample_trace.name
        assert meta["category"] == sample_trace.category
        assert meta["instructions"] == len(sample_trace)
        assert meta["family"] == "zipf-kv"
        assert meta["seed"] == 101
        assert size == (tmp_path / "meta.lntr").stat().st_size

    def test_reserved_meta_keys_not_overridable(self, sample_trace, tmp_path):
        path = str(tmp_path / "res.lntr")
        save_trace(sample_trace, path, extra_meta={"name": "spoof", "instructions": 1})
        meta = read_meta(path)
        assert meta["name"] == sample_trace.name
        assert meta["instructions"] == len(sample_trace)


class TestMalformedFiles:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.lntr"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(TraceFormatError, match="bad magic"):
            load_trace(str(path))

    def test_unsupported_version(self, tmp_path):
        path = tmp_path / "v99.lntr"
        path.write_bytes(struct.pack("<4sHI", MAGIC, FORMAT_VERSION + 1, 0))
        with pytest.raises(TraceFormatError, match="version"):
            load_trace(str(path))

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "short.lntr"
        path.write_bytes(MAGIC)
        with pytest.raises(TraceFormatError, match="truncated"):
            load_trace(str(path))

    def test_truncated_records(self, sample_trace, tmp_path):
        path = tmp_path / "cut.lntr"
        save_trace(sample_trace, str(path))
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - RECORD_BYTES // 2])
        with pytest.raises(TraceFormatError, match="records"):
            load_trace(str(path))

    def test_mapped_truncated_records(self, sample_trace, tmp_path):
        # The mmap path raises the same format error, not one from
        # reading the mapping it has just closed.
        path = tmp_path / "cut.lntr"
        save_trace(sample_trace, str(path))
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - RECORD_BYTES // 2])
        with pytest.raises(TraceFormatError, match="records"):
            map_trace(str(path))

    def test_corrupt_metadata(self, tmp_path):
        path = tmp_path / "json.lntr"
        meta = b"{not-json"
        path.write_bytes(struct.pack("<4sHI", MAGIC, FORMAT_VERSION, len(meta)) + meta)
        with pytest.raises(TraceFormatError, match="corrupt metadata"):
            load_trace(str(path))

    def test_missing_instruction_count(self, tmp_path):
        path = tmp_path / "nocount.lntr"
        meta = b'{"name": "x"}'
        path.write_bytes(struct.pack("<4sHI", MAGIC, FORMAT_VERSION, len(meta)) + meta)
        with pytest.raises(TraceFormatError, match="instruction count"):
            load_trace(str(path))
