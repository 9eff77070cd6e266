"""Memory-system wrappers around the D-NUCA cache.

Two arrangements appear in the paper:

* the **DN-4x8 baseline** (Fig. 1(c)): a conventional L1 in front of the
  D-NUCA, which in turn is backed by main memory;
* the **L-NUCA + D-NUCA** hierarchy (Fig. 1(d)): the
  :class:`~repro.core.lnuca.LightNUCA` uses a D-NUCA system *without* an L1
  as its backside.

:class:`DNUCASystem` covers both by making the front-side L1 optional.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.cache.cache import TimedCache
from repro.cache.memory import MainMemory
from repro.cache.request import AccessType, MemoryRequest
from repro.dnuca.dnuca import DNUCACache, DNUCAConfig
from repro.sim.memsys import FINALIZE_GUARD_CYCLES, MemorySystem


class DNUCASystem(MemorySystem):
    """A D-NUCA cache (optionally fronted by an L1) backed by main memory."""

    def __init__(
        self,
        dnuca: Optional[DNUCACache] = None,
        memory: Optional[MainMemory] = None,
        l1: Optional[TimedCache] = None,
        name: str = "dnuca-system",
    ) -> None:
        super().__init__(name)
        self.dnuca = dnuca or DNUCACache(DNUCAConfig())
        self.memory = memory or MainMemory()
        self.l1 = l1

    # ------------------------------------------------------------------ interface
    def can_accept(self, cycle: int, access: AccessType) -> bool:
        self._pump(cycle)
        if self.l1 is None:
            return True
        if access.is_write:
            return self.l1.port_available(cycle) and self.l1.write_buffer.can_accept()
        return self.l1.port_available(cycle)

    def issue(self, addr: int, access: AccessType, cycle: int) -> MemoryRequest:
        # No pump here: mirrors ConventionalHierarchy.issue — core-driven
        # issues pump via their same-cycle can_accept, and future-stamped
        # backside issues from an L-NUCA must observe pre-drain state to
        # match dense intra-cycle call ordering.
        request = MemoryRequest(addr=addr, access=access, issue_cycle=cycle)
        self.stats.incr("writes" if access.is_write else "reads")
        if self.l1 is not None:
            self._issue_with_l1(request, cycle)
        else:
            self._issue_direct(request, cycle)
        return request

    def tick(self, cycle: int) -> None:
        """Apply every front-side write-buffer drain due by the end of ``cycle``.

        Like the conventional hierarchy, drains are deferred: the event
        scheduler never wakes this system (see :meth:`next_event_cycle`),
        and :meth:`_pump` burst-replays the missed span bit-identically
        before any observation.  Dense runs call this every cycle, in which
        case at most one entry fires per call — the classic schedule.
        """
        self._pump(cycle + 1)

    def _pump(self, limit: int) -> int:
        """Replay deferred L1 write-buffer drains firing strictly below ``limit``.

        Uses :meth:`~repro.cache.writebuffer.WriteBuffer.drain_until` to
        retire the whole span in one call and applies each posted write at
        its exact dense-mode fire cycle, so D-NUCA bank state, memory-channel
        reservations and statistics match a per-cycle drain loop.  Returns
        the cycle after the latest applied drain (0 when nothing drained).
        """
        if self.l1 is None:
            return 0
        buffer = self.l1.write_buffer
        if buffer.is_empty():
            return 0
        reached = 0
        for entry, fire in buffer.drain_until(limit):
            self._apply_posted_write(entry.block_addr, fire)
            reached = fire + 1
        return reached

    def post_write(self, block_addr: int, cycle: int) -> None:
        """Posted write into the D-NUCA (no demand-port contention).

        The write updates the resident copy (or allocates in the insertion
        row) and is charged to the energy model through the write counters,
        but — like the write buffers of the conventional hierarchy — it does
        not occupy bank ports or mesh links that demand reads are waiting
        for.
        """
        self._pump(cycle)
        self._apply_posted_write(block_addr, cycle)

    def _apply_posted_write(self, block_addr: int, cycle: int) -> None:
        cfg = self.dnuca.config
        block = self.dnuca.block_addr(block_addr)
        self.stats.incr("posted_writes")
        self.dnuca.stats.incr("write_accesses")
        coord = self.dnuca.contains(block)
        if coord is not None:
            resident = self.dnuca.banks[coord].lookup(block, cycle=cycle, update_lru=True)
            if resident is not None:
                resident.dirty = True
            return
        row = cfg.rows - 1 if cfg.insertion_row == "tail" else 0
        column = self.dnuca.bankset_of(block)
        target = self.dnuca.banks[self.dnuca.bank_coord(column, row)]
        _, victim = target.fill(block, cycle=cycle, dirty=True)
        self.dnuca.stats.incr("fills")
        if victim is not None and victim.dirty:
            self.memory.access(cycle, cfg.block_size, is_write=True)
            self.stats.incr("dnuca_writebacks")

    def busy(self) -> bool:
        return self.l1 is not None and not self.l1.write_buffer.is_empty()

    def next_event_cycle(self, cycle: int) -> Optional[int]:
        """Deferred-drain hierarchy: no tick wakeups are ever required.

        The D-NUCA itself resolves all of its timing at :meth:`issue` time
        (mesh transfers and bank reservations are occupancy-chained), and
        the only per-cycle work — the front-side write-buffer drain — is
        deferred and burst-replayed by :meth:`_pump` before any
        observation, so the scheduler never needs to wake this system.
        """
        return None

    def finalize(self, cycle: int) -> int:
        """Burst-drain the front-side write buffer at the end of a run."""
        reached = self._pump(cycle + FINALIZE_GUARD_CYCLES)
        if self.busy():
            raise self.wedged_error(cycle)
        return reached if reached > cycle else cycle

    def pending_work(self) -> str:
        if self.l1 is not None and not self.l1.write_buffer.is_empty():
            return f"{self.l1.name}.wb:{self.l1.write_buffer.occupancy} buffered writes"
        return "none"

    # ------------------------------------------------------------------ internals
    def _issue_with_l1(self, request: MemoryRequest, cycle: int) -> None:
        l1 = self.l1
        start = l1.reserve_port(cycle)
        if request.is_write:
            block = l1.lookup(request.addr, start, is_write=True)
            if block is None:
                # Write-through, no-allocate: post the miss towards the
                # D-NUCA through the write buffer.
                if l1.write_buffer.can_accept():
                    l1.write_buffer.coalesce_or_push(l1.block_addr(request.addr), start)
                else:
                    self.stats.incr("store_buffer_full_stalls")
            else:
                if l1.write_buffer.can_accept():
                    l1.write_buffer.coalesce_or_push(l1.block_addr(request.addr), start)
            request.complete(start + 1, l1.name)
            return
        block = l1.lookup(request.addr, start, is_write=False)
        if block is not None:
            request.complete(start + l1.completion_cycles, l1.name)
            return
        miss_known = start + max(1, l1.completion_cycles - 1)
        ready, level = self._dnuca_read(request.addr, miss_known)
        victim = l1.fill(request.addr, ready)
        if victim is not None and victim.dirty:
            self._dnuca_write(victim.block_addr, ready)
        request.complete(ready, level)

    def _issue_direct(self, request: MemoryRequest, cycle: int) -> None:
        if request.is_write:
            self._dnuca_write(request.addr, cycle)
            request.complete(cycle + 1, self.dnuca.name)
            return
        ready, level = self._dnuca_read(request.addr, cycle)
        request.complete(ready, level)

    def _dnuca_read(self, addr: int, cycle: int) -> tuple:
        result = self.dnuca.access(addr, cycle, is_write=False)
        self._handle_dirty_victims(result.evicted_dirty_blocks, cycle)
        if result.hit:
            return result.ready_cycle, self.dnuca.name
        ready = self.memory.access(result.ready_cycle, self.dnuca.config.block_size)
        for victim in self.dnuca.fill(addr, ready):
            self.memory.access(ready, self.dnuca.config.block_size, is_write=True)
        return ready, self.memory.name

    def _dnuca_write(self, addr: int, cycle: int) -> None:
        result = self.dnuca.access(addr, cycle, is_write=True)
        self._handle_dirty_victims(result.evicted_dirty_blocks, cycle)
        if not result.hit:
            # Write miss: allocate in the D-NUCA after fetching from memory.
            ready = self.memory.access(result.ready_cycle, self.dnuca.config.block_size)
            for victim in self.dnuca.fill(addr, ready):
                self.memory.access(ready, self.dnuca.config.block_size, is_write=True)

    def _handle_dirty_victims(self, victims, cycle: int) -> None:
        for victim in victims:
            self.memory.access(cycle, self.dnuca.config.block_size, is_write=True)
            self.stats.incr("dnuca_writebacks")

    # ------------------------------------------------------------------ warm-up
    def prewarm(self, addresses) -> None:
        """Functionally install an address stream into the L1 and D-NUCA banks.

        Re-touched blocks are promoted one row per touch, reproducing the
        migration state the D-NUCA would have reached after the paper's long
        warm-up: frequently used blocks sit in the rows closest to the
        controller, newly inserted ones in the insertion row.
        """
        dnuca = self.dnuca
        cfg = dnuca.config
        tail_row = cfg.rows - 1 if cfg.insertion_row == "tail" else 0
        l1_touch = self.l1.array.touch_or_fill if self.l1 is not None else None
        # One block -> row map, kept current through the whole stream,
        # replaces probing every row of the block's bankset per address.
        row_of = dnuca.resident_rows()
        promote = dnuca.promote_functional
        for addr in addresses:
            if l1_touch is not None:
                l1_touch(addr)
            block = dnuca.block_addr(addr)
            if promote(block, row_of) is None:
                column = dnuca.bankset_of(block)
                _, victim = dnuca.banks[dnuca.bank_coord(column, tail_row)].fill(block)
                row_of[block] = tail_row
                if victim is not None:
                    del row_of[victim.block_addr]

    # ------------------------------------------------------------------ reporting
    def activity(self) -> Dict[str, float]:
        merged = dict(self.stats.as_dict())
        merged.update(self.dnuca.activity())
        if self.l1 is not None:
            for key, value in self.l1.stats.as_dict().items():
                merged[f"{self.l1.name}.{key}"] = value
        for key, value in self.memory.stats.as_dict().items():
            merged[f"{self.memory.name}.{key}"] = value
        return merged
