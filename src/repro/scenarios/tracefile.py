"""Compact binary trace capture / replay.

Large sweeps generate each trace once, save it, and replay it across every
configuration (and every future run) — so the expensive synthesis is paid
once per (scenario, length, seed) and the replayed stream is guaranteed
bit-identical, even across machines.

Format (little-endian)::

    offset  size  field
    0       4     magic  b"LNTR"
    4       2     format version (currently 1)
    6       4     metadata length M (bytes)
    10      M     metadata, UTF-8 JSON: {"name", "category",
                  "instructions", ...caller extras}
    10+M    20*N  instruction records

Each record is ``<BBHIIQ``: class code (u8), flags (u8: bit0 mispredicted,
bit1 transient), latency (u16), dep1 (u32), dep2 (u32), address (u64).
No timestamps or host details are embedded, so saving the same trace twice
produces byte-identical files.
"""

from __future__ import annotations

import json
import mmap
import os
import struct
from typing import Dict, List, Optional, Tuple

from repro.common.errors import ConfigurationError
from repro.cpu.isa import Instruction, InstrClass
from repro.cpu.trace import Trace

MAGIC = b"LNTR"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sHI")
_RECORD = struct.Struct("<BBHIIQ")
RECORD_BYTES = _RECORD.size

_FLAG_MISPREDICTED = 0x01
_FLAG_TRANSIENT = 0x02


class TraceFormatError(ConfigurationError):
    """Raised when a trace file is malformed or of an unsupported version."""


def records_bytes(trace: Trace) -> bytes:
    """The packed instruction-record section of ``trace``.

    This is the canonical byte serialization of the instruction stream
    (exactly what :func:`save_trace` writes after the header), so it doubles
    as the input for content digests: two traces are bit-identical iff their
    record bytes are equal.  For a :class:`MappedTrace` the raw mapped bytes
    *are* that serialization, so they are returned directly — digesting a
    mapped trace never decodes it.
    """
    raw = getattr(trace, "_records", None)
    if raw is not None:
        return bytes(raw)
    pack = _RECORD.pack
    body = bytearray()
    for instruction in trace.instructions:
        flags = (_FLAG_MISPREDICTED if instruction.mispredicted else 0) | (
            _FLAG_TRANSIENT if instruction.transient else 0
        )
        body += pack(
            int(instruction.kind),
            flags,
            instruction.latency,
            instruction.dep1,
            instruction.dep2,
            instruction.addr,
        )
    return bytes(body)


def save_trace(
    trace: Trace, path: str, extra_meta: Optional[Dict[str, object]] = None
) -> int:
    """Write ``trace`` to ``path``; returns the number of bytes written.

    ``extra_meta`` is merged into the JSON header (reserved keys ``name``,
    ``category`` and ``instructions`` cannot be overridden).
    """
    meta = dict(extra_meta or {})
    meta.update(
        name=trace.name, category=trace.category, instructions=len(trace.instructions)
    )
    meta_blob = json.dumps(meta, sort_keys=True).encode("utf-8")

    body = bytearray(_HEADER.pack(MAGIC, FORMAT_VERSION, len(meta_blob)))
    body += meta_blob
    body += records_bytes(trace)
    with open(path, "wb") as handle:
        handle.write(body)
    return len(body)


def read_meta(path: str) -> Dict[str, object]:
    """Read only the JSON metadata header of a trace file."""
    with open(path, "rb") as handle:
        meta, _ = _read_header(handle, path)
    return meta


def decode_records(payload, source: str = "<records>") -> List[Instruction]:
    """Decode a packed record section (the canonical serialization) back
    into :class:`Instruction` objects — the inverse of :func:`records_bytes`."""
    classes = {int(cls): cls for cls in InstrClass}
    try:
        return [
            Instruction(
                kind=classes[kind],
                addr=addr,
                dep1=dep1,
                dep2=dep2,
                latency=latency,
                mispredicted=bool(flags & _FLAG_MISPREDICTED),
                transient=bool(flags & _FLAG_TRANSIENT),
            )
            for kind, flags, latency, dep1, dep2, addr in _RECORD.iter_unpack(payload)
        ]
    except KeyError as exc:
        raise TraceFormatError(f"{source}: unknown instruction class {exc}") from None


def trace_from_records(name: str, category: str, payload: bytes) -> Trace:
    """Rebuild a trace from its name, category, and packed record bytes.

    This is how the worker pool ships unpooled traces: the parent sends
    ``records_bytes(trace)`` (small, canonical, version-free) and the worker
    reconstructs a bit-identical trace on its side.
    """
    if len(payload) % RECORD_BYTES:
        raise TraceFormatError(
            f"trace {name!r}: record payload of {len(payload)} bytes is not a "
            f"multiple of {RECORD_BYTES}"
        )
    return Trace(name=name, category=category, instructions=decode_records(payload, name))


def load_trace(path: str) -> Trace:
    """Load a trace saved by :func:`save_trace` (round-trip identical)."""
    with open(path, "rb") as handle:
        meta, expected = _read_header(handle, path)
        payload = handle.read()
    if len(payload) != expected * RECORD_BYTES:
        raise TraceFormatError(
            f"{path}: expected {expected} records "
            f"({expected * RECORD_BYTES} bytes), found {len(payload)} bytes"
        )
    return Trace(
        name=str(meta.get("name", os.path.basename(path))),
        category=str(meta.get("category", "unknown")),
        instructions=decode_records(payload, path),
    )


class MappedTrace(Trace):
    """A trace whose record bytes stay in an ``mmap`` of the ``.lntr`` file.

    The instruction list is decoded lazily, per process, on first use; until
    then the trace weighs one page table, and N worker processes mapping the
    same pool file share the page cache instead of each holding a pickled
    copy.  Everything observable — length, digest, decoded instructions,
    simulation results — is bit-identical to :func:`load_trace` by
    construction: both decode the same canonical record bytes with
    :func:`decode_records`.

    The class bypasses the :class:`Trace` dataclass ``__init__`` because
    ``instructions`` is a property here; the cached-derived-state fields
    (decode, resident set, digest) are initialised the same way.
    """

    def __init__(self, name: str, category: str, records, count: int, mapping=None):
        self.name = name
        self.category = category
        self._records = records  #: memoryview over the mapped record section
        self._count = count
        self._mapping = mapping  #: keeps the mmap object alive
        self._instructions = None
        self._resident_cache = None
        self._decoded_cache = None
        self._digest_cache = None

    @property
    def instructions(self) -> List[Instruction]:
        decoded = self._instructions
        if decoded is None:
            decoded = decode_records(self._records, self.name)
            self._instructions = decoded
        return decoded

    def __len__(self) -> int:
        return self._count


def map_trace(path: str) -> Trace:
    """Load a trace through ``mmap`` (falls back to :func:`load_trace`).

    The fallback covers filesystems that refuse to map and empty mappings;
    either way the returned trace is bit-identical.  Format errors (bad
    magic, truncation) raise exactly as :func:`load_trace` would.
    """
    with open(path, "rb") as handle:
        meta, count = _read_header(handle, path)
        offset = handle.tell()
        try:
            mapping = mmap.mmap(handle.fileno(), 0, access=mmap.ACCESS_READ)
        except (OSError, ValueError):
            return load_trace(path)
    expected = count * RECORD_BYTES
    found = len(mapping) - offset
    if found != expected:
        mapping.close()
        raise TraceFormatError(
            f"{path}: expected {count} records ({expected} bytes), "
            f"found {found} bytes"
        )
    records = memoryview(mapping)[offset:offset + expected]
    return MappedTrace(
        name=str(meta.get("name", os.path.basename(path))),
        category=str(meta.get("category", "unknown")),
        records=records,
        count=count,
        mapping=mapping,
    )


def _read_header(handle, path: str) -> Tuple[Dict[str, object], int]:
    header = handle.read(_HEADER.size)
    if len(header) != _HEADER.size:
        raise TraceFormatError(f"{path}: truncated header")
    magic, version, meta_len = _HEADER.unpack(header)
    if magic != MAGIC:
        raise TraceFormatError(f"{path}: not a trace file (bad magic {magic!r})")
    if version != FORMAT_VERSION:
        raise TraceFormatError(f"{path}: unsupported format version {version}")
    meta_blob = handle.read(meta_len)
    if len(meta_blob) != meta_len:
        raise TraceFormatError(f"{path}: truncated metadata")
    try:
        meta = json.loads(meta_blob.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise TraceFormatError(f"{path}: corrupt metadata ({exc})") from None
    if not isinstance(meta, dict) or "instructions" not in meta:
        raise TraceFormatError(f"{path}: metadata missing the instruction count")
    count = meta["instructions"]
    if not isinstance(count, int) or count < 0:
        raise TraceFormatError(f"{path}: invalid instruction count {count!r}")
    return meta, count
