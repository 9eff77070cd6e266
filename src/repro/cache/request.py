"""Memory requests exchanged between the core and the memory system."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional


class AccessType(enum.Enum):
    """Kind of memory access issued by the core."""

    LOAD = "load"
    STORE = "store"
    IFETCH = "ifetch"

    @property
    def is_write(self) -> bool:
        return self is AccessType.STORE


@dataclass(slots=True)
class MemoryRequest:
    """A single outstanding memory access.

    The core creates a request when a load or store issues; the memory
    system fills in ``complete_cycle`` and ``service_level`` when the data
    (or store acknowledgement) is available.  The transport latency fields
    are only populated by the L-NUCA model and feed Table III.

    Attributes:
        addr: byte address of the access.
        access: load / store / instruction fetch.
        issue_cycle: cycle the request entered the memory system.
        complete_cycle: cycle the data is available to the core, or ``None``
            while outstanding.
        service_level: name of the level that serviced the request
            (``"L1"``, ``"Le2"``, ``"L2"``, ``"L3"``, ``"DNUCA"``, ``"MEM"`` ...).
        transport_min_cycles: contention-free transport latency for L-NUCA
            hits (minimum number of hops back to the root tile).
        transport_actual_cycles: observed transport latency including
            contention.
    """

    addr: int
    access: AccessType
    issue_cycle: int
    complete_cycle: Optional[int] = None
    service_level: Optional[str] = None
    transport_min_cycles: int = 0
    transport_actual_cycles: int = 0

    @property
    def done(self) -> bool:
        """Whether the request has completed."""
        return self.complete_cycle is not None

    @property
    def is_write(self) -> bool:
        return self.access.is_write

    @property
    def latency(self) -> int:
        """Observed latency in cycles (raises if still outstanding)."""
        if self.complete_cycle is None:
            raise ValueError("request has not completed yet")
        return self.complete_cycle - self.issue_cycle

    def complete(self, cycle: int, level: str) -> None:
        """Mark the request as serviced by ``level`` at ``cycle``."""
        self.complete_cycle = cycle
        self.service_level = level

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"done@{self.complete_cycle}" if self.done else "pending"
        return f"MemoryRequest(0x{self.addr:x}, {self.access.value}, {state})"
