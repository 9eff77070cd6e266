"""Conventional multi-level cache hierarchy.

:class:`ConventionalHierarchy` chains an arbitrary number of
:class:`~repro.cache.cache.TimedCache` levels in front of a
:class:`~repro.cache.memory.MainMemory`.  The paper's baseline (Fig. 1(a))
is the three-level instance L1-32KB / L2-256KB / L3-8MB built by
:func:`repro.sim.configs.build_conventional_hierarchy`.

Timing model
============

The hierarchy resolves the complete timing of a request at issue time by
walking the levels and reserving the resources the request will use (ports,
MSHRs, the memory channel).  Resource reservations persist, so later
requests observe the bandwidth consumed by earlier ones — this
"occupancy-chain" model captures port conflicts, MSHR saturation and
memory-channel queueing without simulating every level cycle by cycle.
The L-NUCA itself (the paper's contribution) *is* simulated cycle by cycle
in :mod:`repro.core`; only the levels behind it use this cheaper model.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.cache.cache import TimedCache
from repro.cache.memory import MainMemory
from repro.cache.request import AccessType, MemoryRequest
from repro.common.errors import ConfigurationError
from repro.sim.memsys import FINALIZE_GUARD_CYCLES, MemorySystem


class ConventionalHierarchy(MemorySystem):
    """A chain of timed cache levels backed by main memory.

    Args:
        levels: cache levels ordered from closest to the core (L1) outward.
        memory: the main-memory model behind the last level.
        name: label used in statistics and reports.
    """

    def __init__(
        self,
        levels: Sequence[TimedCache],
        memory: MainMemory,
        name: str = "conventional",
        bus_hop_cycles: int = 1,
        bus_width_bytes: int = 16,
        extra_bus_hops: int = 0,
    ) -> None:
        super().__init__(name)
        if not levels:
            raise ConfigurationError("hierarchy needs at least one cache level")
        if bus_hop_cycles < 0 or extra_bus_hops < 0:
            raise ConfigurationError("bus parameters cannot be negative")
        if bus_width_bytes < 1:
            raise ConfigurationError("bus width must be at least one byte")
        self.levels: List[TimedCache] = list(levels)
        #: Bound once for the deferred-drain pump's empty-check fast path.
        self._write_buffers = [level.write_buffer for level in self.levels]
        self.memory = memory
        #: One-way latency of the bus between adjacent levels (requests pay
        #: it on the way down, responses pay it plus data serialisation on
        #: the way up).  The L-NUCA replaces exactly these narrow buses with
        #: its message-wide tile links, which is where its latency advantage
        #: on secondary-cache hits comes from.
        self.bus_hop_cycles = bus_hop_cycles
        self.bus_width_bytes = bus_width_bytes
        #: Additional response hops charged on top of the level index; used
        #: when this hierarchy sits behind an L-NUCA and the "L1" boundary
        #: is the tile fabric rather than the core.
        self.extra_bus_hops = extra_bus_hops
        #: Response-path bus latency per servicing level, precomputed (the
        #: level geometry is fixed); saves a loop on every load return.
        self._bus_cycles = [
            self._response_bus_cycles(level) for level in range(len(self.levels) + 1)
        ]

    def _response_bus_cycles(self, service_level: int) -> int:
        """Cycles to move the data up from ``service_level`` to the requester.

        The boundary between level ``j`` and level ``j-1`` carries level
        ``j-1``'s block; the memory-to-last-level transfer is already
        modelled by :class:`~repro.cache.memory.MainMemory` and is not
        charged again here.
        """
        total = 0
        top = min(service_level, len(self.levels) - 1)
        for boundary in range(1, top + 1):
            block = self.levels[boundary - 1].config.block_size
            beats = max(1, block // self.bus_width_bytes)
            total += self.bus_hop_cycles + beats - 1
        if self.extra_bus_hops:
            # The hop from this hierarchy into the requesting L-NUCA carries
            # one r-tile block (32 B).
            beats = max(1, 32 // self.bus_width_bytes)
            total += self.extra_bus_hops * (self.bus_hop_cycles + beats - 1)
        return total

    # ------------------------------------------------------------------ interface
    def can_accept(self, cycle: int, access: AccessType) -> bool:
        """A new request can start when the L1 has a free port.

        Misses that later find a full MSHR are not rejected; they simply
        wait for an entry, which shows up as extra latency — the same
        back-pressure a blocking MSHR file exerts on the core.
        """
        self._pump(cycle)
        l1 = self.levels[0]
        if access is AccessType.STORE:
            return l1.port_available(cycle) and l1.write_buffer.can_accept()
        return l1.port_available(cycle)

    def issue(self, addr: int, access: AccessType, cycle: int) -> MemoryRequest:
        # No pump here, deliberately: every core-driven issue is preceded by
        # a same-cycle can_accept (which pumps), while backside issues from
        # an L-NUCA carry a *future* stamp and must observe pre-drain state,
        # exactly as they would under dense intra-cycle call ordering
        # (hierarchy drains run after the front side's issues each cycle).
        request = MemoryRequest(addr=addr, access=access, issue_cycle=cycle)
        self._release_ready_mshrs(cycle)
        if access is AccessType.STORE:
            self._issue_store(request, cycle)
            self.stats._counters["writes"] += 1.0
        else:
            self._issue_load(request, cycle)
            self.stats._counters["reads"] += 1.0
        return request

    def tick(self, cycle: int) -> None:
        """Apply every write-buffer drain due by the end of ``cycle``.

        Drained writes update the target level without reserving one of its
        demand ports: write traffic is absorbed by the target's write
        buffers/banks and never competes with demand reads (it still shows
        up in the energy accounting through the write-access counters).

        Under the event kernel this is rarely called: drains are *deferred*
        — :meth:`next_event_cycle` does not request wakeups for them, and
        :meth:`_pump` replays the missed span (at the exact per-entry fire
        cycles a dense run would have used) before anything can observe the
        hierarchy.  A dense run calls ``tick`` every cycle, in which case
        the pump degenerates to the classic one-drain-per-buffer step.
        """
        self._pump(cycle + 1)

    def _next_drain_event(self) -> Optional[int]:
        """Earliest cycle at which any level's write buffer can drain."""
        best: Optional[int] = None
        for index, level in enumerate(self.levels):
            when = level.write_buffer.next_fire_cycle()
            if when is None:
                continue
            if index + 1 >= len(self.levels):
                free = self.memory.next_free_cycle()
                if free > when:
                    when = free
            if best is None or when < best:
                best = when
        return best

    def _drain_cycle(self, cycle: int) -> None:
        """One dense drain step: at most one entry per buffer at ``cycle``."""
        for index, level in enumerate(self.levels):
            buffer = level.write_buffer
            if buffer.is_empty():
                continue
            if index + 1 < len(self.levels):
                entry = buffer.drain_one(cycle)
                if entry is None:
                    continue
                self._write_into_level(index + 1, entry.block_addr, cycle)
            else:
                if self.memory.next_free_cycle() > cycle:
                    continue
                entry = buffer.drain_one(cycle)
                if entry is None:
                    continue
                self.memory.access(cycle, level.config.block_size, is_write=True)

    def _pump(self, limit: int) -> None:
        """Replay all deferred drains with fire cycles strictly below ``limit``.

        Drain cycles are fully determined by buffer contents, drain ports
        and the memory channel, so the replay visits one *event* cycle per
        iteration (never idle cycles) and runs the exact dense per-cycle
        step there — preserving the cross-level ordering where a level's
        drained victim can enter (and leave) the next level's buffer within
        a single cycle.  Because every observation point pumps first, state
        and statistics are bit-identical to a dense run at all observable
        moments.
        """
        for buffer in self._write_buffers:
            if buffer._queue:
                break
        else:
            return  # nothing buffered anywhere — the overwhelmingly common case
        while True:
            when = self._next_drain_event()
            if when is None or when >= limit:
                return
            self._drain_cycle(when)

    def busy(self) -> bool:
        return any(not level.write_buffer.is_empty() for level in self.levels)

    def next_event_cycle(self, cycle: int) -> Optional[int]:
        """Deferred-drain hierarchy: no tick wakeups are ever required.

        Write-buffer drains are replayed by :meth:`_pump` at their exact
        dense-mode fire cycles before any observation (issue, can_accept,
        post_write, tick, finalize), and MSHR releases are re-applied
        lazily at the next :meth:`issue`.  The occupancy-chain timing model
        resolves everything else at issue time, so skipping every tick is
        unobservable — the scheduler therefore never needs to wake for this
        hierarchy.
        """
        return None

    def finalize(self, cycle: int) -> int:
        """Burst-drain every buffered write at the end of a run."""
        guard = cycle + FINALIZE_GUARD_CYCLES
        reached = cycle
        while self.busy():
            when = self._next_drain_event()
            if when is None or when >= guard:
                break
            self._drain_cycle(when)
            if when + 1 > reached:
                reached = when + 1
        if self.busy():
            raise self.wedged_error(cycle)
        return reached

    def pending_work(self) -> str:
        pending = [
            f"{level.name}.wb:{level.write_buffer.occupancy}"
            for level in self.levels
            if not level.write_buffer.is_empty()
        ]
        return "buffered writes " + ", ".join(pending) if pending else "none"

    # ------------------------------------------------------------------ loads
    def _issue_load(self, request: MemoryRequest, cycle: int) -> None:
        addr = request.addr
        time = cycle
        service_level: Optional[int] = None
        data_ready = 0

        for index, level in enumerate(self.levels):
            start = level.reserve_port(time)
            block_addr = level.block_addr(addr)
            mshr = level.mshr
            entry = mshr.get(block_addr)
            if entry is not None and entry.ready_cycle is not None:
                if entry.ready_cycle > start:
                    # The block is already being fetched: ride the in-flight
                    # fill instead of treating the (functionally filled)
                    # array state as an instantaneous hit.
                    if entry.secondary < mshr.max_secondary:
                        mshr.merge(block_addr, start)
                    data_ready = max(entry.ready_cycle, start + level.completion_cycles)
                    # Upper levels that already allocated an MSHR entry for
                    # this walk get filled (and their entries retired) when
                    # the in-flight data arrives.
                    self._fill_path(addr, index, data_ready)
                    request.complete(data_ready, level.name)
                    self.stats.incr("secondary_miss_merges")
                    return
                # The fill has already arrived; retire the stale entry.
                mshr.release(block_addr)

            block = level.lookup(addr, start, is_write=False)
            if block is not None:
                service_level = index
                data_ready = start + level.completion_cycles
                break

            # Miss: outcome known after the tag check.
            miss_known = start + level.tag_latency_cycles
            if mshr.is_full():
                free_at = mshr.earliest_ready_cycle()
                if free_at is None:
                    free_at = miss_known + 1
                self.stats.incr("mshr_full_stall_cycles", max(0, free_at - miss_known))
                miss_known = max(miss_known, free_at)
                self._release_ready_mshrs(miss_known)
            if not mshr.is_full():
                mshr.allocate(block_addr, miss_known)
            time = miss_known + self.bus_hop_cycles

        if service_level is None:
            # Missed everywhere: go to memory using the last level's block size.
            last = self.levels[-1]
            data_ready = self.memory.access(time, last.config.block_size)
            service_level = len(self.levels)

        # Return path over the narrow inter-level buses.
        data_ready += self._bus_cycles[service_level]
        self._fill_path(addr, service_level, data_ready)
        request.complete(data_ready, self._level_name(service_level))

    def _fill_path(self, addr: int, service_level: int, data_ready: int) -> None:
        """Fill the block into every level above the servicing one."""
        for index in range(min(service_level, len(self.levels)) - 1, -1, -1):
            level = self.levels[index]
            block_addr = level.block_addr(addr)
            victim = level.fill(addr, data_ready)
            if victim is not None and victim.dirty and level.config.write_policy == "copy_back":
                if level.write_buffer.can_accept():
                    level.write_buffer.push(victim.block_addr, data_ready)
                else:
                    # Buffer overflow: account the write directly against the
                    # next level (a stall a real machine would also take).
                    self.stats.incr("writeback_overflows")
                    self._write_into_level(index + 1, victim.block_addr, data_ready)
            mshr = level.mshr
            if mshr.has_entry(block_addr):
                mshr.set_ready(block_addr, data_ready)

    # ------------------------------------------------------------------ stores
    def _issue_store(self, request: MemoryRequest, cycle: int) -> None:
        l1 = self.levels[0]
        start = l1.reserve_port(cycle)
        block = l1.lookup(request.addr, start, is_write=True)
        complete = start + 1

        if l1.config.write_policy == "write_through":
            # Post the write towards the next level through the write buffer.
            if l1.write_buffer.can_accept():
                l1.write_buffer.coalesce_or_push(l1.block_addr(request.addr), start)
            else:
                self.stats.incr("store_buffer_full_stalls")
                complete = start + l1.completion_cycles + 1
        elif block is None:
            # Copy-back write miss: allocate the line (simplified write-allocate).
            complete = start + l1.completion_cycles
            victim = l1.fill(request.addr, complete, dirty=True)
            if victim is not None and victim.dirty and l1.write_buffer.can_accept():
                l1.write_buffer.push(victim.block_addr, complete)
        request.complete(complete, self.levels[0].name)

    def _write_into_level(self, index: int, block_addr: int, cycle: int) -> None:
        """Apply a drained write at level ``index`` (or memory past the end)."""
        if index >= len(self.levels):
            self.memory.access(cycle, self.levels[-1].config.block_size, is_write=True)
            return
        level = self.levels[index]
        block = level.lookup(block_addr, cycle, is_write=True)
        if block is None and level.config.write_policy == "copy_back":
            victim = level.fill(block_addr, cycle, dirty=True)
            if victim is not None and victim.dirty:
                if level.write_buffer.can_accept():
                    level.write_buffer.push(victim.block_addr, cycle)
                else:
                    self._write_into_level(index + 1, victim.block_addr, cycle)
        elif block is None:
            # Write-through level missing the block: forward outward.
            if level.write_buffer.can_accept():
                level.write_buffer.push(block_addr, cycle)

    # ------------------------------------------------------------------ helpers
    def _release_ready_mshrs(self, cycle: int) -> None:
        for level in self.levels:
            mshr = level.mshr
            # Inlined release_ready early-exit: this runs per issue and the
            # MSHR files are idle most of the time.
            earliest = mshr._earliest_ready
            if earliest is not None and earliest <= cycle:
                mshr.release_ready(cycle)

    def _level_name(self, index: int) -> str:
        if index >= len(self.levels):
            return self.memory.name
        return self.levels[index].name

    def level_by_name(self, name: str) -> TimedCache:
        """Return the cache level called ``name`` (raises if absent)."""
        for level in self.levels:
            if level.name == name:
                return level
        raise KeyError(name)

    def post_write(self, block_addr: int, cycle: int) -> None:
        """Accept a posted write into the first level without using a port."""
        self._pump(cycle)
        self.stats.incr("posted_writes")
        self._write_into_level(0, block_addr, cycle)

    def prewarm(self, addresses) -> None:
        """Functionally replay an address stream through every level's array.

        Levels are independent during functional warm-up, so the replay
        runs one level at a time with the array methods bound once — the
        per-level end state (contents and LRU order) is identical to the
        per-address interleaving.
        """
        for level in self.levels:
            touch = level.array.touch_or_fill
            for addr in addresses:
                touch(addr)

    def activity(self) -> Dict[str, float]:
        merged = dict(self.stats.as_dict())
        for level in self.levels:
            for key, value in level.stats.as_dict().items():
                merged[f"{level.name}.{key}"] = value
        for key, value in self.memory.stats.as_dict().items():
            merged[f"{self.memory.name}.{key}"] = value
        return merged
