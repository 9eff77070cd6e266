"""Miss Status Holding Registers (MSHRs).

MSHRs bound the number of outstanding misses a cache level can sustain and
merge secondary misses to a block that is already being fetched.  Table I of
the paper sizes them at 16/16/8 entries for L1/L2/L3 with up to 4 merged
secondary misses per entry; the L-NUCA uses the same 16-entry file as the
L2 it replaces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.common.errors import ConfigurationError
from repro.sim.stats import Stats


@dataclass
class MSHREntry:
    """One outstanding miss.

    Attributes:
        block_addr: block-aligned address being fetched.
        allocate_cycle: cycle the primary miss allocated the entry.
        ready_cycle: cycle the fill is known to arrive (``None`` until the
            downstream latency is known).
        secondary: number of merged secondary misses.
    """

    block_addr: int
    allocate_cycle: int
    ready_cycle: Optional[int] = None
    secondary: int = 0
    waiters: List[object] = field(default_factory=list)


class MSHRFile:
    """A bounded file of MSHR entries with secondary-miss merging."""

    def __init__(self, num_entries: int, max_secondary: int = 4, name: str = "mshr") -> None:
        if num_entries < 1:
            raise ConfigurationError("MSHR file needs at least one entry")
        if max_secondary < 0:
            raise ConfigurationError("max_secondary cannot be negative")
        self.num_entries = num_entries
        self.max_secondary = max_secondary
        self.name = name
        self._entries: Dict[int, MSHREntry] = {}
        #: Cached ``min`` over the known ready cycles, kept exact by
        #: set_ready/release so the per-cycle release sweep is an integer
        #: compare instead of a scan over the file.
        self._earliest_ready: Optional[int] = None
        self.stats = Stats(name)

    # -- capacity -------------------------------------------------------------
    @property
    def occupancy(self) -> int:
        return len(self._entries)

    def is_full(self) -> bool:
        return len(self._entries) >= self.num_entries

    def has_entry(self, block_addr: int) -> bool:
        return block_addr in self._entries

    def get(self, block_addr: int) -> Optional[MSHREntry]:
        return self._entries.get(block_addr)

    # -- allocation / merging ---------------------------------------------------
    def can_handle(self, block_addr: int) -> bool:
        """Return True if a miss to ``block_addr`` can be accepted right now.

        Either a free entry exists (primary miss) or an existing entry for
        the same block still has secondary capacity.
        """
        entry = self._entries.get(block_addr)
        if entry is not None:
            return entry.secondary < self.max_secondary
        return not self.is_full()

    def allocate(self, block_addr: int, cycle: int) -> MSHREntry:
        """Allocate a primary-miss entry for ``block_addr``.

        Raises:
            ConfigurationError: if the file is full or the block already has
                an entry (callers must use :meth:`merge` for secondaries).
        """
        if block_addr in self._entries:
            raise ConfigurationError(f"MSHR already tracks block 0x{block_addr:x}")
        if self.is_full():
            raise ConfigurationError("MSHR file is full")
        entry = MSHREntry(block_addr=block_addr, allocate_cycle=cycle)
        self._entries[block_addr] = entry
        counters = self.stats._counters
        counters["primary_misses"] += 1.0
        counters["allocations"] += 1.0
        return entry

    def merge(self, block_addr: int, cycle: int) -> MSHREntry:
        """Merge a secondary miss into the existing entry for ``block_addr``."""
        entry = self._entries.get(block_addr)
        if entry is None:
            raise ConfigurationError(f"no MSHR entry for block 0x{block_addr:x}")
        if entry.secondary >= self.max_secondary:
            raise ConfigurationError("secondary miss capacity exhausted")
        entry.secondary += 1
        self.stats.incr("secondary_misses")
        return entry

    def set_ready(self, block_addr: int, ready_cycle: int) -> None:
        """Record the cycle the fill for ``block_addr`` will arrive."""
        entry = self._entries.get(block_addr)
        if entry is None:
            raise ConfigurationError(f"no MSHR entry for block 0x{block_addr:x}")
        previous = entry.ready_cycle
        entry.ready_cycle = ready_cycle
        if self._earliest_ready is None or ready_cycle < self._earliest_ready:
            self._earliest_ready = ready_cycle
        elif previous is not None and previous == self._earliest_ready:
            # The entry defining the cached minimum moved later; re-derive.
            self._recompute_earliest()

    def _recompute_earliest(self) -> None:
        earliest: Optional[int] = None
        for entry in self._entries.values():
            ready = entry.ready_cycle
            if ready is not None and (earliest is None or ready < earliest):
                earliest = ready
        self._earliest_ready = earliest

    def release(self, block_addr: int) -> MSHREntry:
        """Free the entry for ``block_addr`` (fill completed)."""
        entry = self._entries.pop(block_addr, None)
        if entry is None:
            raise ConfigurationError(f"no MSHR entry for block 0x{block_addr:x}")
        self.stats._counters["releases"] += 1.0
        if entry.ready_cycle is not None and entry.ready_cycle == self._earliest_ready:
            self._recompute_earliest()
        return entry

    def release_ready(self, cycle: int) -> List[MSHREntry]:
        """Release and return every entry whose fill has arrived by ``cycle``."""
        earliest = self._earliest_ready
        if earliest is None or earliest > cycle or not self._entries:
            return []
        ready = [
            addr
            for addr, entry in self._entries.items()
            if entry.ready_cycle is not None and entry.ready_cycle <= cycle
        ]
        return [self.release(addr) for addr in ready]

    def earliest_ready_cycle(self) -> Optional[int]:
        """Return the soonest cycle at which an entry will free, if known."""
        return self._earliest_ready

    def outstanding_blocks(self) -> List[int]:
        """Return the block addresses currently being fetched."""
        return list(self._entries)

    def reset(self) -> None:
        self._entries.clear()
        self._earliest_ready = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MSHRFile({self.name}, {self.occupancy}/{self.num_entries})"
