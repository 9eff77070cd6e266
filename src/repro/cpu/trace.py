"""Instruction traces, held as their packed record section.

A trace *is* its records: one ``<BBHIIQ`` record per dynamic instruction —
class code (u8), flags (u8: bit0 mispredicted, bit1 transient), latency
(u16), dep1 (u32), dep2 (u32), address (u64).  The same bytes follow the
header of a ``.lntr`` capture, feed the content digests and travel to pool
workers, so a synthesized, loaded, mapped or shipped trace is one object
over one buffer.  :class:`~repro.cpu.isa.Instruction` objects are built
only on demand (:attr:`Trace.instructions`, iteration, indexing); the core
reads the columns :class:`DecodedTrace` decodes straight from the records.
"""

from __future__ import annotations

import struct
from array import array
from typing import Dict, Iterable, Iterator, List, Optional

from repro.common.errors import ConfigurationError
from repro.cpu.isa import Instruction, InstrClass

#: One instruction record (little-endian); ``RECORD_BYTES`` per instruction.
_RECORD = struct.Struct("<BBHIIQ")
RECORD_BYTES = _RECORD.size

_FLAG_MISPREDICTED = 0x01
_FLAG_TRANSIENT = 0x02


class TraceFormatError(ConfigurationError):
    """Raised when a trace file or record section is malformed."""


#: Issue-window index per instruction class: 0 = integer window, 1 =
#: floating-point window, 2 = memory window.  Branches issue through the
#: integer window.  ``_WINDOW_INDEX`` is the same mapping flattened into a
#: tuple indexed by the IntEnum value (derived, not hardcoded, so a new or
#: reordered ``InstrClass`` member fails loudly here instead of silently
#: misclassifying every instruction).
_WINDOW_OF_CLASS = {
    InstrClass.INT_ALU: 0,
    InstrClass.FP_ALU: 1,
    InstrClass.LOAD: 2,
    InstrClass.STORE: 2,
    InstrClass.BRANCH: 0,
}
_WINDOW_INDEX = tuple(
    _WINDOW_OF_CLASS[cls] for cls in sorted(InstrClass, key=int)
)
_MEMORY_CODES = frozenset((int(InstrClass.LOAD), int(InstrClass.STORE)))
_CLASSES = tuple(sorted(InstrClass, key=int))

#: Issue-path classes, precomputed per instruction so the issue stage's
#: kind dispatch is one integer compare instead of an if-chain over enum
#: codes.  ``SIMPLE`` covers everything whose issue-side effect is just a
#: completion at ``cycle + latency`` (integer/FP ALU, stores' address
#: generation, correctly predicted branches); loads interact with the
#: memory system and mispredicted branches redirect the front end.
ISSUE_SIMPLE = 0
ISSUE_LOAD = 1
ISSUE_MISPREDICT = 2

_LOAD_CODE = int(InstrClass.LOAD)
_STORE_CODE = int(InstrClass.STORE)
_BRANCH_CODE = int(InstrClass.BRANCH)
_FP_CODE = int(InstrClass.FP_ALU)


def _unknown_class(code: int, source: str) -> TraceFormatError:
    return TraceFormatError(f"{source}: unknown instruction class {code}")


def pack_records(rows: Iterable[tuple]) -> bytes:
    """Pack ``(kind, addr, dep1, dep2, latency, mispredicted, transient)``
    rows, one per instruction, into a record section (the field order of
    :class:`~repro.cpu.isa.Instruction`, with ``kind`` as its int code)."""
    pack = _RECORD.pack
    records = bytearray()
    for kind, addr, dep1, dep2, latency, mispredicted, transient in rows:
        records += pack(
            kind,
            (_FLAG_MISPREDICTED if mispredicted else 0) | (_FLAG_TRANSIENT if transient else 0),
            latency, dep1, dep2, addr,
        )
    return bytes(records)


def decode_records(records, source: str = "<records>") -> List[Instruction]:
    """Decode a packed record section into :class:`Instruction` objects."""
    classes = _CLASSES
    try:
        return [
            Instruction(
                classes[kind], addr, dep1, dep2, latency,
                bool(flags & _FLAG_MISPREDICTED), bool(flags & _FLAG_TRANSIENT),
            )
            for kind, flags, latency, dep1, dep2, addr in _RECORD.iter_unpack(records)
        ]
    except IndexError:
        bad = max(bytes(records[0::RECORD_BYTES]))
        raise _unknown_class(bad, source) from None


class DecodedTrace:
    """Column-oriented view of a trace, for the core's per-cycle hot loops.

    The core touches several fields per fetched/issued/committed
    instruction; decoding the records once into parallel columns (class
    codes as ints, the issue-window index precomputed) turns every
    hot-path probe into a list index.  The decode is cached on the trace
    and shared by every run of a sweep.  The small-int columns are plain
    lists (their ints are interned); the producer columns, whose values
    are instruction indices, are ``array('i')`` so they cost 4 bytes per
    instruction instead of a list slot plus an int object.

    Beyond the per-instruction columns, :meth:`issue_latencies` caches
    the per-instruction issue-to-completion latency resolved against a
    core configuration's latency parameters, keyed by those parameters
    (sweeps share one config, so it is computed once and shared by every
    run).
    """

    __slots__ = (
        "kind", "addr", "latency", "window", "is_mem", "issue_class", "prod1",
        "prod2", "_lat_cache",
    )

    def __init__(self, records) -> None:
        self.kind: List[int] = []
        self.addr: List[int] = []
        self.latency: List[int] = []
        self.window: List[int] = []
        self.is_mem: List[bool] = []
        self.issue_class: List[int] = []
        #: Producer indices resolved from the backwards distances: the
        #: dynamic index of each source operand's producer, or -1 when the
        #: operand has no (in-range) producer.  Saves an add + two compares
        #: per operand in the fetch stage's dependence dispatch.
        self.prod1 = array("i")
        self.prod2 = array("i")
        self._lat_cache: Dict[tuple, List[int]] = {}
        kind_append = self.kind.append
        addr_append = self.addr.append
        latency_append = self.latency.append
        window_append = self.window.append
        is_mem_append = self.is_mem.append
        class_append = self.issue_class.append
        prod1_append = self.prod1.append
        prod2_append = self.prod2.append
        window_of = _WINDOW_INDEX
        memory_codes = _MEMORY_CODES
        load_code, branch_code = _LOAD_CODE, _BRANCH_CODE
        index = 0
        try:
            for code, flags, latency, dep1, dep2, addr in _RECORD.iter_unpack(records):
                window_append(window_of[code])
                kind_append(code)
                addr_append(addr)
                latency_append(latency)
                is_mem_append(code in memory_codes)
                if code == load_code:
                    class_append(ISSUE_LOAD)
                elif code == branch_code and flags & _FLAG_MISPREDICTED:
                    class_append(ISSUE_MISPREDICT)
                else:
                    class_append(ISSUE_SIMPLE)
                prod1_append(index - dep1 if 0 < dep1 <= index else -1)
                prod2_append(index - dep2 if 0 < dep2 <= index else -1)
                index += 1
        except IndexError:
            raise _unknown_class(code, f"record {index}") from None

    def issue_latencies(
        self,
        int_latency: int,
        fp_latency: int,
        branch_latency: int,
        store_agen_latency: int,
    ) -> List[int]:
        """Per-instruction issue-to-completion latency under a core config.

        Resolves the issue stage's latency dispatch once per (trace,
        latency parameters) pair: FP operations complete after
        ``fp_latency``, branches after ``branch_latency``, stores generate
        their address after ``store_agen_latency``, and integer operations
        after their trace latency clamped to at least ``int_latency``.
        Loads get 0 — their completion comes from the memory system, never
        from this table.
        """
        key = (int_latency, fp_latency, branch_latency, store_agen_latency)
        cached = self._lat_cache.get(key)
        if cached is None:
            by_kind = [0] * len(_WINDOW_INDEX)
            by_kind[_FP_CODE] = fp_latency
            by_kind[_STORE_CODE] = store_agen_latency
            by_kind[_BRANCH_CODE] = branch_latency
            int_code = int(InstrClass.INT_ALU)
            cached = [
                (lat if lat > int_latency else int_latency)
                if kind == int_code
                else by_kind[kind]
                for kind, lat in zip(self.kind, self.latency)
            ]
            self._lat_cache[key] = cached
        return cached


class Trace:
    """A dynamic instruction trace: its metadata plus its record section.

    Attributes:
        name: workload name (e.g. ``"mcf-like"``).
        category: ``"int"`` or ``"fp"`` — the suite the workload mimics,
            used when the experiments aggregate results the way the paper
            does (separate Integer and Floating-Point means).
        records: the packed records, ``RECORD_BYTES`` per instruction —
            ``bytes``, or a memoryview over an ``mmap`` of a capture file
            (the view keeps the mapping alive).

    Traces are immutable once built, so the decode, the resident set and
    the content digest are each computed once and cached on the trace.
    """

    __slots__ = (
        "name", "category", "records", "_decoded_cache", "_resident_cache",
        "_digest_cache",
    )

    def __init__(self, name: str, category: str, records) -> None:
        if len(records) % RECORD_BYTES:
            raise TraceFormatError(
                f"trace {name!r}: record section of {len(records)} bytes is not "
                f"a multiple of {RECORD_BYTES}"
            )
        self.name = name
        self.category = category
        self.records = records
        self._decoded_cache: Optional[DecodedTrace] = None
        self._resident_cache: Optional[List[int]] = None
        #: Content digest memo, filled by :func:`repro.sim.plan.trace_digest`.
        self._digest_cache: Optional[str] = None

    @classmethod
    def from_instructions(
        cls, name: str, category: str, instructions: Iterable[Instruction]
    ) -> "Trace":
        """Pack ``instructions`` into a trace (the inverse of :attr:`instructions`)."""
        return cls(name, category, pack_records(
            (int(i.kind), i.addr, i.dep1, i.dep2, i.latency, i.mispredicted, i.transient)
            for i in instructions
        ))

    def __len__(self) -> int:
        return len(self.records) // RECORD_BYTES

    @property
    def instructions(self) -> List[Instruction]:
        """The records decoded into :class:`Instruction` objects.

        Decoded on every access and never cached: the simulator reads the
        columns of :meth:`decoded`, so only tests and tools pay for this.
        """
        return decode_records(self.records, self.name)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self.instructions[index]
        count = len(self)
        if not -count <= index < count:
            raise IndexError("trace index out of range")
        start = (index % count) * RECORD_BYTES
        return decode_records(self.records[start:start + RECORD_BYTES], self.name)[0]

    def decoded(self) -> DecodedTrace:
        """Column-oriented decode of the records (cached after first call)."""
        cached = self._decoded_cache
        if cached is None:
            cached = DecodedTrace(self.records)
            self._decoded_cache = cached
        return cached

    def resident_addresses(self) -> List[int]:
        """Addresses of the resident working set (cached after first call).

        Streaming and cold accesses (transient records) are excluded: they
        would also be absent from a warm cache at the start of a SimPoint,
        so they take their compulsory misses during the measured run —
        exactly as in the paper's methodology.  The list shares its int
        objects with the decode's address column.
        """
        cached = self._resident_cache
        if cached is None:
            decoded = self.decoded()
            flags = self._column(1)
            cached = [
                addr
                for addr, is_mem, flag in zip(decoded.addr, decoded.is_mem, flags)
                if is_mem and not flag & _FLAG_TRANSIENT
            ]
            self._resident_cache = cached
        return cached

    def _column(self, offset: int) -> bytes:
        """The byte at ``offset`` of every record (class codes, flags)."""
        return bytes(self.records[offset::RECORD_BYTES])

    # ------------------------------------------------------------------ summaries
    def class_mix(self) -> Dict[str, float]:
        """Return the fraction of instructions in each class."""
        kinds = self._column(0)
        total = max(1, len(kinds))
        return {cls.name: kinds.count(int(cls)) / total for cls in InstrClass}

    def memory_instructions(self) -> int:
        """Number of loads plus stores in the trace."""
        kinds = self._column(0)
        return kinds.count(_LOAD_CODE) + kinds.count(_STORE_CODE)

    def unique_blocks(self, block_size: int = 64) -> int:
        """Number of distinct ``block_size``-byte blocks touched by the trace."""
        memory_codes = _MEMORY_CODES
        blocks = {
            addr // block_size
            for kind, _, _, _, _, addr in _RECORD.iter_unpack(self.records)
            if kind in memory_codes
        }
        return len(blocks)

    def footprint_bytes(self, block_size: int = 64) -> int:
        """Approximate memory footprint of the trace."""
        return self.unique_blocks(block_size) * block_size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Trace({self.name}, {len(self)} instructions)"
