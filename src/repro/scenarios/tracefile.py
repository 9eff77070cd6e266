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

The record section is the trace itself (:class:`~repro.cpu.trace.Trace`
holds exactly these bytes; :mod:`repro.cpu.trace` owns the ``<BBHIIQ``
record layout), so saving writes the header plus ``trace.records`` and
loading or mapping wraps the file's records without decoding them.  No
timestamps or host details are embedded, so saving the same trace twice
produces byte-identical files.
"""

from __future__ import annotations

import json
import mmap
import os
import struct
from typing import Dict, Optional, Tuple

# ``TraceFormatError`` and ``decode_records`` are re-exported: file-level
# callers import the whole capture API from this module.
from repro.cpu.trace import RECORD_BYTES, Trace, TraceFormatError, decode_records

MAGIC = b"LNTR"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sHI")


def records_bytes(trace: Trace) -> bytes:
    """The packed instruction-record section of ``trace``.

    This is the canonical byte serialization of the instruction stream
    (exactly what :func:`save_trace` writes after the header), so it doubles
    as the input for content digests: two traces are bit-identical iff their
    record bytes are equal.  A trace over ``bytes`` returns them as they are;
    a mapped trace copies its view.
    """
    return bytes(trace.records)


def save_trace(
    trace: Trace, path: str, extra_meta: Optional[Dict[str, object]] = None
) -> int:
    """Write ``trace`` to ``path``; returns the number of bytes written.

    ``extra_meta`` is merged into the JSON header (reserved keys ``name``,
    ``category`` and ``instructions`` cannot be overridden).
    """
    meta = dict(extra_meta or {})
    meta.update(
        name=trace.name, category=trace.category, instructions=len(trace)
    )
    meta_blob = json.dumps(meta, sort_keys=True).encode("utf-8")

    header = _HEADER.pack(MAGIC, FORMAT_VERSION, len(meta_blob)) + meta_blob
    with open(path, "wb") as handle:
        handle.write(header)
        handle.write(trace.records)
    return len(header) + len(trace.records)


def read_meta(path: str) -> Dict[str, object]:
    """Read only the JSON metadata header of a trace file."""
    with open(path, "rb") as handle:
        meta, _ = _read_header(handle, path)
    return meta


def trace_from_records(name: str, category: str, payload: bytes) -> Trace:
    """A trace over shipped record bytes.

    This is how the worker pool ships unpooled traces: the parent sends
    ``records_bytes(trace)`` (small, canonical, version-free) and the worker
    wraps the payload as a bit-identical trace on its side.
    """
    return Trace(name, category, payload)


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
    return _file_trace(meta, path, payload)


def map_trace(path: str) -> Trace:
    """A trace over an ``mmap`` of the file (falls back to :func:`load_trace`).

    The records stay in the page cache — N worker processes mapping the
    same pool file share it instead of each holding a copy — and decode
    lazily, per process, on first use.  The fallback covers filesystems
    that refuse to map and empty mappings; either way the trace holds the
    same record bytes.  Format errors (bad magic, truncation) raise exactly
    as :func:`load_trace` would.
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
    return _file_trace(meta, path, memoryview(mapping)[offset:offset + expected])


def _file_trace(meta: Dict[str, object], path: str, records) -> Trace:
    return Trace(
        str(meta.get("name", os.path.basename(path))),
        str(meta.get("category", "unknown")),
        records,
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
