"""Write buffers.

Write-through L1 caches (and the store path in general) post their writes to
a bounded write buffer that drains to the next cache level in the
background.  Table I sizes the L2/L3 write buffers at 32 entries each and
the store buffer at 48 entries.  When the buffer fills, the producer (the
core's commit stage or the upstream cache) has to stall — the simulator
models that back-pressure through :meth:`WriteBuffer.can_accept`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional, Tuple

from repro.common.errors import ConfigurationError
from repro.sim.stats import Stats


@dataclass
class PendingWrite:
    """A buffered write waiting to drain."""

    block_addr: int
    enqueue_cycle: int


class WriteBuffer:
    """A FIFO write buffer with a fixed drain rate.

    Args:
        num_entries: buffer capacity.
        drain_interval: minimum number of cycles between two drains (models
            the bandwidth of the port to the next level).
        name: label used in statistics.
    """

    def __init__(self, num_entries: int, drain_interval: int = 1, name: str = "wb") -> None:
        if num_entries < 1:
            raise ConfigurationError("write buffer needs at least one entry")
        if drain_interval < 1:
            raise ConfigurationError("drain interval must be >= 1")
        self.num_entries = num_entries
        self.drain_interval = drain_interval
        self.name = name
        self._queue: Deque[PendingWrite] = deque()
        self._next_drain_cycle = 0
        self.stats = Stats(name)

    @property
    def occupancy(self) -> int:
        return len(self._queue)

    def is_empty(self) -> bool:
        return not self._queue

    def can_accept(self) -> bool:
        """Return True if a new write can be enqueued this cycle."""
        return len(self._queue) < self.num_entries

    def push(self, block_addr: int, cycle: int) -> None:
        """Enqueue a write to ``block_addr``.

        Raises:
            ConfigurationError: when the buffer is full (callers must check
                :meth:`can_accept` and stall instead).
        """
        if not self.can_accept():
            raise ConfigurationError(f"write buffer {self.name} overflow")
        self._queue.append(PendingWrite(block_addr=block_addr, enqueue_cycle=cycle))
        self.stats.incr("writes_enqueued")
        peak = max(self.stats.get("peak_occupancy"), len(self._queue))
        self.stats.set("peak_occupancy", peak)

    def coalesce_or_push(self, block_addr: int, cycle: int) -> bool:
        """Enqueue a write, coalescing with a pending write to the same block.

        Returns True if the write was coalesced (no new entry consumed).
        """
        for pending in self._queue:
            if pending.block_addr == block_addr:
                self.stats.incr("writes_coalesced")
                return True
        self.push(block_addr, cycle)
        return False

    def next_drain_cycle(self) -> int:
        """Earliest cycle at which :meth:`drain_one` can succeed again.

        Used by the event-driven kernel to skip the cycles in which the
        drain port is still busy; an empty buffer trivially has nothing to
        drain regardless of this value.
        """
        return self._next_drain_cycle

    def next_fire_cycle(self) -> Optional[int]:
        """Cycle at which the next drain would fire under dense ticking.

        A dense loop calls :meth:`drain_one` every cycle, so the oldest
        entry retires at the first cycle that is both past its enqueue
        cycle and past the drain port's busy window.  Returns ``None``
        when the buffer is empty.
        """
        if not self._queue:
            return None
        head = self._queue[0]
        fire = self._next_drain_cycle
        return fire if fire > head.enqueue_cycle else head.enqueue_cycle

    def drain_until(self, limit: int) -> List[Tuple[PendingWrite, int]]:
        """Burst-drain every entry whose drain tick falls strictly before ``limit``.

        This is the batch equivalent of calling :meth:`drain_one` once per
        cycle for every cycle below ``limit``: entry fire cycles are
        computed arithmetically (the oldest entry retires at
        :meth:`next_fire_cycle`, each subsequent one ``drain_interval``
        cycles later, never before its own enqueue cycle), so a span of
        ``span`` idle cycles retires ``floor(span / drain_interval)``
        entries in one call.  Statistics (``writes_drained`` and
        ``total_queue_cycles``) are bit-identical to the per-cycle loop.

        Returns the drained ``(entry, fire_cycle)`` pairs in drain order so
        the caller can apply each write's downstream effect at its exact
        cycle.  Callers that interleave other per-cycle work with drains
        must instead call :meth:`drain_one` at each fire cycle themselves.
        """
        drained: List[Tuple[PendingWrite, int]] = []
        queue = self._queue
        stats = self.stats
        interval = self.drain_interval
        fire = self._next_drain_cycle
        while queue:
            head = queue[0]
            if fire < head.enqueue_cycle:
                fire = head.enqueue_cycle
            if fire >= limit:
                break
            queue.popleft()
            stats.incr("writes_drained")
            stats.incr("total_queue_cycles", fire - head.enqueue_cycle)
            drained.append((head, fire))
            fire += interval
        if drained:
            self._next_drain_cycle = fire
        return drained

    def drain_one(self, cycle: int) -> Optional[PendingWrite]:
        """Drain the oldest write if the drain port is free at ``cycle``.

        Returns the drained entry, or ``None`` if nothing drained (buffer
        empty or port busy).
        """
        if not self._queue or cycle < self._next_drain_cycle:
            return None
        self._next_drain_cycle = cycle + self.drain_interval
        entry = self._queue.popleft()
        self.stats.incr("writes_drained")
        self.stats.incr("total_queue_cycles", cycle - entry.enqueue_cycle)
        return entry

    def reset(self) -> None:
        self._queue.clear()
        self._next_drain_cycle = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WriteBuffer({self.name}, {self.occupancy}/{self.num_entries})"
