"""Cycle-level Light NUCA model.

:class:`LightNUCA` is the paper's contribution: the L1 (r-tile) surrounded
by levels of one-cycle 8 KB tiles connected by the Search, Transport and
Replacement networks.  The class implements the
:class:`~repro.sim.memsys.MemorySystem` interface so the out-of-order core
can drive it exactly like the conventional hierarchy, and it delegates
global misses, write-through traffic, and corner-tile evictions to an
arbitrary *backside* memory system (a conventional L3 or a D-NUCA).

Cycle semantics
===============

The model follows Section II/III of the paper:

* a request that misses in the r-tile launches a *search wave*; the wave
  probes one level per cycle (tile access plus one-hop routing fit in a
  single cycle), and tiles that hit stop propagating while the others fan
  the miss out to their search children;
* a hit extracts the block from the tile (content exclusion) and injects a
  headerless transport message that hops towards the r-tile through the
  2-D mesh, choosing randomly among the On output links each cycle;
* when the wave falls off the last level without a hit, the segmented miss
  line collects the global miss one cycle later and the request is
  forwarded to the backside;
* every fill into the r-tile may evict a victim, which "dominoes" outwards
  over the Replacement network during search-idle cycles; only the two
  upper-corner tiles evict to the backside.

Under the event-driven kernel (see :mod:`repro.sim.memsys`), :meth:`tick`
is only guaranteed to run on the cycles exposed through
:meth:`LightNUCA.next_event_cycle`: search-wave steps and backside-fill
arrivals carry explicit fire cycles, while the per-cycle queues (transport
and replacement sweeps, eviction injection, root-buffer deliveries) pin
the next event to the following cycle whenever they are non-empty, so no
sweep cycle is ever skipped.  Backside drain traffic — r-tile write-buffer
drains and corner-eviction pops — is *deferred* under the module's
deferred-drain exemption: it requests no wakeups, and
:meth:`LightNUCA._pump_drains` burst-replays the missed span at the exact
dense-mode cycles before anything can observe the fabric.
"""

from __future__ import annotations

import heapq
import itertools
import random
from collections import deque
from functools import partial
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

from repro.cache.cache import TimedCache
from repro.cache.request import AccessType, MemoryRequest
from repro.common.errors import SimulationError
from repro.core.config import LNUCAConfig
from repro.core.geometry import ROOT, Coordinate, LNUCAGeometry
from repro.core.networks import ReplacementNetwork, SearchNetwork, TransportNetwork
from repro.core.tile import Tile
from repro.noc.buffer import FlowControlBuffer
from repro.noc.message import Message, MessageKind
from repro.sim.memsys import FINALIZE_GUARD_CYCLES, MemorySystem

_wave_ids = itertools.count()


@dataclass
class SearchWave:
    """One miss request propagating outwards through the Search network."""

    block_addr: int
    frontier: List[Coordinate]
    next_cycle: int
    launched_cycle: int
    hit: bool = False
    hit_level: Optional[int] = None
    is_write: bool = False
    #: Index into the controller's precomputed per-level frontier tables
    #: while the wave is still on the canonical (no hit yet) expansion;
    #: ``None`` once a hit pruned the fan-out and the frontier is custom.
    level_index: Optional[int] = 0
    wave_id: int = field(default_factory=lambda: next(_wave_ids))


def _tile_content_change(
    contents: Dict[int, Coordinate], coord: Coordinate, block_addr: int, present: bool
) -> None:
    """Array membership observer keeping an L-NUCA search content map exact.

    Bound per tile over the content map alone (not the :class:`LightNUCA`),
    so the observer closes no reference cycle through the fabric and a
    finished hierarchy is freed by reference counting.  A duplicate insert
    under a different coordinate means two tiles hold the same block — the
    content-exclusion violation the per-tile probe loop used to detect at
    search time — so it raises the same way instead of silently tracking
    one copy.
    """
    if present:
        prior = contents.get(block_addr)
        if prior is not None and prior != coord:
            raise SimulationError(
                f"block 0x{block_addr:x} filled into two tiles ({prior} and "
                f"{coord}): content exclusion violated"
            )
        contents[block_addr] = coord
    elif contents.get(block_addr) == coord:
        del contents[block_addr]


class LightNUCA(MemorySystem):
    """An L-NUCA cache in front of an arbitrary backside memory system.

    Args:
        config: the L-NUCA design point (levels, tile geometry, buffers...).
        backside: memory system servicing global misses and write-through
            traffic (a :class:`~repro.cache.hierarchy.ConventionalHierarchy`
            holding the L3, or a D-NUCA system).
        name: label for statistics; defaults to the paper-style LNx name.
    """

    def __init__(
        self,
        config: LNUCAConfig,
        backside: MemorySystem,
        name: Optional[str] = None,
    ) -> None:
        super().__init__(name or config.name)
        self.config = config
        self.backside = backside
        self.geometry = LNUCAGeometry(config.levels)
        self.rng = random.Random(config.seed)

        self.rtile = TimedCache(config.rtile)
        #: Bound once: the deferred-drain guards probe this queue on every
        #: can_accept/issue/tick, so the attribute chain is pre-resolved.
        self._rtile_wb = self.rtile.write_buffer
        #: Scalars bound once for the per-load hot path (property + config
        #: attribute chases per access were measurable).
        self._rtile_completion = self.rtile.completion_cycles
        self._rtile_miss_known = max(1, self.rtile.completion_cycles - 1)
        self.tiles: Dict[Coordinate, Tile] = {
            coord: Tile(coord, config.tile, config.buffer_depth)
            for coord in self.geometry.tiles
        }
        #: Search content maps: where every block in the tile fabric lives
        #: (content exclusion guarantees at most one holder), split into
        #: tile-array residents and blocks in transit through Replacement
        #: (U) input buffers.  A search wave locates its block with two
        #: dict probes instead of an array + U-buffer probe per frontier
        #: tile; the tile map is kept current by the arrays' ``on_change``
        #: hook, so every mutation path (timed model, functional prewarm,
        #: tests poking arrays directly) is covered.
        self._tile_contents: Dict[int, Coordinate] = {}
        self._u_contents: Dict[int, Coordinate] = {}
        for coord, tile in self.tiles.items():
            tile.array.on_change = partial(_tile_content_change, self._tile_contents, coord)

        self.search_net = SearchNetwork(self.geometry)
        self.transport_net = TransportNetwork(self.geometry, config.routing_policy, self.rng)
        self.replacement_net = ReplacementNetwork(self.geometry, config.routing_policy, self.rng)
        self.root_d_buffers: Dict[Coordinate, FlowControlBuffer] = {}
        self.transport_net.wire(self.tiles, self.root_d_buffers)
        self.replacement_net.wire(self.tiles)

        # In-flight state.
        self._waves: List[SearchWave] = []
        self._last_wave_cycle = -1
        self._backside_fills: List[Tuple[int, int, int, str]] = []  # heap
        self._fill_seq = itertools.count()
        self._rtile_evictions: Deque[Tuple[int, bool]] = deque()
        #: Corner-tile victims waiting to leave for the backside, stamped
        #: with their arrival cycle.  Dense mode pops one per cycle; the
        #: event kernel defers the pops and replays them bit-identically
        #: (see :meth:`_pump_drains`), so the last-pop cycle is tracked to
        #: reproduce the one-per-cycle cadence across deferred spans.
        self._corner_evictions: Deque[Tuple[int, bool, int]] = deque()
        self._corner_last_pop = -1
        self._transport_active: set = set()
        self._replacement_active: set = set()

        # Tiles ordered by distance for the two buffered-network sweeps.
        self._tiles_by_distance = sorted(
            self.geometry.tiles, key=self.geometry.manhattan_to_root
        )
        #: Distance table bound once: the per-tick transport/replacement
        #: sweeps sort their (small) active sets by it, and a dict probe
        #: beats a method call as the sort key.
        self._distance_of = {
            coord: self.geometry.manhattan_to_root(coord)
            for coord in self.geometry.tiles
        }
        #: Canonical search frontiers: the frontier a wave that has not hit
        #: yet presents at each step is a pure function of the geometry
        #: (every missing tile fans out to all its children), so the
        #: per-step tile lists — and the sets used for the O(1) hit
        #: membership test — are precomputed once.  Only a wave whose
        #: fan-out was pruned by a hit falls back to a custom list.
        frontiers: List[Tuple[tuple, frozenset]] = []
        frontier = tuple(self.search_net.children_of(ROOT))
        while frontier:
            frontiers.append((frontier, frozenset(frontier)))
            nxt: List[Coordinate] = []
            for coord in frontier:
                nxt.extend(self.search_net.children_of(coord))
            frontier = tuple(nxt)
        self._level_frontiers = frontiers
        #: Prefix sums of the canonical frontier widths (``prefix[i]`` =
        #: total tiles in levels ``0..i-1``) so a burst-replayed miss run
        #: can account its tag probes and link traversals in O(1).
        prefix = [0.0]
        for level_frontier, _ in frontiers:
            prefix.append(prefix[-1] + len(level_frontier))
        self._frontier_len_prefix = prefix
        #: Canonical level index of each fabric tile (the step at which
        #: the no-hit expansion reaches it).
        self._frontier_index_of: Dict[Coordinate, int] = {}
        for index, (level_frontier, _) in enumerate(frontiers):
            for coord in level_frontier:
                self._frontier_index_of.setdefault(coord, index)
        #: Steps a custom (post-hit) frontier rooted at a tile needs until
        #: its fan-out dies: 0 at the leaves, 1 + max over children above.
        depth_below: Dict[Coordinate, int] = {}
        for level_frontier, _ in reversed(frontiers):
            for coord in level_frontier:
                children = self.search_net.children_of(coord)
                depth_below[coord] = (
                    1 + max(depth_below[child] for child in children)
                    if children else 0
                )
        self._depth_below = depth_below
        #: Aggregate tag-probe counter for search misses.  Dense probing
        #: charged each probed tile's ``search_lookups`` individually; the
        #: per-tile attribution is observable only as the fleet-wide sum
        #: (``tiles.search_lookups`` in :meth:`activity`), so miss probes
        #: are accounted here in bulk and folded into that sum.  Hits keep
        #: their exact per-tile accounting (the hit tile is really probed).
        self._search_lookups_bulk = 0.0
        # The delivery order over the root D buffers is fixed once the
        # networks are wired; precompute it so the hot delivery loop does
        # not re-sort the dict keys every cycle.
        self._root_d_items = [
            (source, self.root_d_buffers[source])
            for source in sorted(self.root_d_buffers)
        ]

    # ------------------------------------------------------------------ interface
    def can_accept(self, cycle: int, access: AccessType) -> bool:
        if self._corner_evictions or self._rtile_wb._queue:
            self._pump_drains(cycle)
        if access is AccessType.STORE:
            return self.rtile.port_available(cycle) and self.rtile.write_buffer.can_accept()
        return self.rtile.port_available(cycle) and not self.rtile.mshr.is_full()

    def issue(self, addr: int, access: AccessType, cycle: int) -> MemoryRequest:
        if self._corner_evictions or self._rtile_wb._queue:
            self._pump_drains(cycle)
        request = MemoryRequest(addr=addr, access=access, issue_cycle=cycle)
        if access is AccessType.STORE:
            self._issue_store(request, cycle)
            self.stats._counters["writes"] += 1.0
        else:
            self._issue_load(request, cycle)
            self.stats._counters["reads"] += 1.0
        return request

    def busy(self) -> bool:
        return bool(
            self._waves
            or self._backside_fills
            or self._rtile_evictions
            or self._corner_evictions
            or self._transport_active
            or self._replacement_active
            or not self.rtile.write_buffer.is_empty()
            or self._root_buffers_busy()
            or self.backside.busy()
        )

    def next_event_cycle(self, cycle: int) -> Optional[int]:
        """Earliest future cycle at which :meth:`tick` can make progress.

        Per-cycle queues (transport/replacement sweeps, eviction injection,
        root-buffer deliveries) fire every cycle while non-empty, so they
        pin the next event to ``cycle + 1``.  Write-buffer drains and
        corner-eviction pops request no wakeups at all: they are *deferred*
        and replayed at their exact dense-mode cycles by
        :meth:`_pump_drains` before anything can observe the fabric, so a
        hierarchy with only backside drain traffic left reports ``None``
        and the scheduler skips it entirely.

        Search waves are fast-forwarded analytically: with the rest of the
        fabric quiet the content maps are frozen (nothing can *add* a
        block before the next tick — fills need replacement or delivery
        activity, which forces the per-cycle branch — and removals only
        delay a hit), so a wave's next observable action — the probe that
        hits, or the terminal step that declares the global miss — sits at
        a precomputable *decisive* cycle.  The per-level steps in between
        touch nothing but commutative probe/broadcast counters and the
        wave's own position, so the scheduler leaps straight to the
        decisive cycle and :meth:`tick` burst-replays the skipped levels
        (see :meth:`_catch_up_waves`), exactly the deferred-drain
        discipline applied to the search network.
        """
        best: Optional[int] = None
        if (
            self._rtile_evictions
            or self._transport_active
            or self._replacement_active
            or self._root_buffers_busy()
        ):
            best = cycle + 1
        else:
            if self._waves:
                when = None
                for wave in self._waves:
                    decisive = self._wave_decisive_cycle(wave)
                    if when is None or decisive < when:
                        when = decisive
                if when <= cycle:
                    when = cycle + 1
                if best is None or when < best:
                    best = when
            if self._backside_fills:
                when = max(cycle + 1, self._backside_fills[0][0])
                if best is None or when < best:
                    best = when
        backside = self.backside.next_event_cycle(cycle)
        if backside is not None and (best is None or backside < best):
            best = backside
        return best

    def _fine_grained_busy(self) -> bool:
        """Pending work that genuinely needs per-event ticks to retire."""
        return bool(
            self._waves
            or self._backside_fills
            or self._rtile_evictions
            or self._transport_active
            or self._replacement_active
            or self._root_buffers_busy()
        )

    def finalize(self, cycle: int) -> int:
        """Drain all in-flight state, then let the backside finish draining.

        Fine-grained work (waves, fills, network sweeps) drains through the
        normal event loop; once only deferred backside drains remain, the
        tail is burst-replayed in one :meth:`_pump_drains` call instead of
        crawling one cycle per iteration through drain-only spans.
        """
        guard = cycle
        limit = cycle + FINALIZE_GUARD_CYCLES
        while self._fine_grained_busy() and guard < limit:
            self.tick(guard)
            nxt = self.next_event_cycle(guard)
            guard = nxt if nxt is not None and nxt > guard else guard + 1
        reached = self._pump_drains(limit)
        if reached > guard:
            guard = reached
        if self._fine_grained_busy() or self._corner_evictions or self._rtile_wb._queue:
            raise self.wedged_error(cycle)
        self.backside.finalize(guard)
        return guard

    def pending_work(self) -> str:
        parts = []
        if self._waves:
            parts.append(f"{len(self._waves)} search wave(s)")
        if self._backside_fills:
            parts.append(f"{len(self._backside_fills)} backside fill(s)")
        if self._rtile_evictions:
            parts.append(f"{len(self._rtile_evictions)} r-tile eviction(s)")
        if self._corner_evictions:
            parts.append(f"{len(self._corner_evictions)} corner eviction(s)")
        if self._transport_active:
            parts.append(f"transport active at {len(self._transport_active)} tile(s)")
        if self._replacement_active:
            parts.append(f"replacement active at {len(self._replacement_active)} tile(s)")
        if not self.rtile.write_buffer.is_empty():
            parts.append(f"r-tile wb:{self.rtile.write_buffer.occupancy}")
        if self._root_buffers_busy():
            parts.append("root D buffers occupied")
        if self.backside.busy():
            parts.append(f"backside: {self.backside.pending_work()}")
        return "; ".join(parts) if parts else "none"

    # ------------------------------------------------------------------ stores
    def _issue_store(self, request: MemoryRequest, cycle: int) -> None:
        start = self.rtile.reserve_port(cycle)
        block = self.rtile.lookup(request.addr, start, is_write=True)
        block_addr = self.rtile.block_addr(request.addr)
        request.complete(start + 1, self.rtile.name)
        if block is not None:
            # Store hit: the r-tile keeps the dirty block; it reaches the
            # backside later, when it dominoes off an upper-corner tile.
            block.dirty = True
            return
        # The block may be a victim still waiting to enter the Replacement
        # network — updating it there preserves exclusion.
        for index, (victim_addr, _) in enumerate(self._rtile_evictions):
            if victim_addr == block_addr:
                self._rtile_evictions[index] = (victim_addr, True)
                return
        # Store miss: the write searches the tile fabric like any other
        # request; only a *global* write miss leaves for the backside
        # (Fig. 2(c): "write misses to L3").
        mshr = self.rtile.mshr
        if mshr.has_entry(block_addr):
            # The block is already on its way to the r-tile; it will be
            # written once it arrives (timing-wise nothing more to model).
            self.stats.incr("store_merges")
            return
        if mshr.is_full():
            # No tracking resources left: post the write straight to the
            # backside through the write buffer instead of searching.
            if self.rtile.write_buffer.can_accept():
                self.rtile.write_buffer.coalesce_or_push(block_addr, start)
            else:
                self.stats.incr("store_buffer_full_stalls")
            return
        mshr.allocate(block_addr, start + 1)
        self._launch_wave(block_addr, start + 1, is_write=True)

    # ------------------------------------------------------------------ loads
    def _issue_load(self, request: MemoryRequest, cycle: int) -> None:
        start = self.rtile.reserve_port(cycle)
        block = self.rtile.lookup(request.addr, start, is_write=False)
        if block is not None:
            request.complete(start + self._rtile_completion, self.rtile.name)
            return

        block_addr = self.rtile.block_addr(request.addr)
        miss_known = start + self._rtile_miss_known

        # A victim still waiting to enter the Replacement network behaves
        # like a victim-buffer hit; consuming it here preserves exclusion.
        for index, (victim_addr, dirty) in enumerate(self._rtile_evictions):
            if victim_addr == block_addr:
                del self._rtile_evictions[index]
                self._refill_rtile(block_addr, miss_known + 1, dirty)
                request.complete(miss_known + 1, self.rtile.name)
                self.stats.incr("rtile_victim_buffer_hits")
                return

        mshr = self.rtile.mshr
        entry = mshr.get(block_addr)
        if entry is not None:
            if entry.secondary < mshr.max_secondary:
                mshr.merge(block_addr, miss_known)
            entry.waiters.append(request)
            self.stats.incr("secondary_miss_merges")
            return
        if mshr.is_full():
            raise SimulationError("load issued with a full L-NUCA MSHR file")
        entry = mshr.allocate(block_addr, miss_known)
        entry.waiters.append(request)
        self._launch_wave(block_addr, miss_known + 1, is_write=False)

    def _launch_wave(self, block_addr: int, earliest_cycle: int, is_write: bool) -> None:
        """Start a search wave; the r-tile injects at most one wave per cycle."""
        launch = max(earliest_cycle, self._last_wave_cycle + 1)
        self._last_wave_cycle = launch
        frontier = self._level_frontiers[0][0]
        self.search_net.record_broadcast(len(frontier))
        self._waves.append(
            SearchWave(
                block_addr=block_addr,
                frontier=frontier,
                next_cycle=launch,
                launched_cycle=launch,
                is_write=is_write,
            )
        )
        self.stats.incr("search_waves")

    # ------------------------------------------------------------------ tick
    def tick(self, cycle: int) -> None:
        pending_drains = bool(self._corner_evictions or self._rtile_wb._queue)
        if pending_drains:
            self._pump_drains(cycle)  # replay drains deferred across skipped cycles
        if (
            self._waves
            or self._backside_fills
            or self._rtile_evictions
            or self._transport_active
            or self._replacement_active
            or self._root_buffers_busy()
        ):
            if self._waves:
                # Replay any wave steps the scheduler leapt over before the
                # frontiers become observable (replacement conflict sets,
                # the decisive probe itself).
                self._catch_up_waves(cycle)
            self._deliver_to_rtile(cycle)
            self._advance_transport(cycle)
            if self._replacement_active:
                # The search/replacement conflict set is only needed when a
                # replacement sweep will actually run, and nothing before
                # this point mutates the wave frontiers.
                searching = self._tiles_searching_at(cycle) if self._waves else set()
                self._advance_replacement(cycle, searching)
            self._advance_search(cycle)
            self._inject_rtile_evictions(cycle)
        if pending_drains or self._corner_evictions or self._rtile_wb._queue:
            self._pump_drains(cycle + 1)  # this cycle's write-buffer/corner drains
        self.backside.tick(cycle)

    # -- helpers -------------------------------------------------------------
    def _root_buffers_busy(self) -> bool:
        """Whether any root D buffer holds a message (hot, allocation-free)."""
        for _, buffer in self._root_d_items:
            if buffer._entries:
                return True
        return False

    def _tiles_searching_at(self, cycle: int) -> set:
        searching: set = set()
        for wave in self._waves:
            if wave.next_cycle == cycle:
                searching.update(wave.frontier)
        return searching

    # -- step 1: deliveries into the r-tile -----------------------------------
    def _deliver_to_rtile(self, cycle: int) -> None:
        delivered = 0
        ports = self.config.rtile_fill_ports
        counters = self.stats._counters
        # Transport arrivals first (they are the latency-critical path).
        for source, buffer in self._root_d_items:
            if delivered >= ports:
                break
            entries = buffer._entries
            if not entries:
                continue
            message = entries.popleft()
            delivered += 1
            actual = cycle - message.created_cycle
            minimum = max(1, self.geometry.min_transport_hops(message.source))
            counters["transport_actual_cycles"] += actual
            counters["transport_min_cycles"] += minimum
            counters["transport_deliveries"] += 1.0
            level = self.geometry.level_of[message.source]
            self._complete_waiters(message.block_addr, cycle, f"Le{level}")
            self._refill_rtile(message.block_addr, cycle, message.dirty)
        while delivered < ports and self._backside_fills:
            ready, _, block_addr, level = self._backside_fills[0]
            if ready > cycle:
                break
            heapq.heappop(self._backside_fills)
            delivered += 1
            self._complete_waiters(block_addr, cycle, level)
            self._refill_rtile(block_addr, cycle, dirty=False)

    def _complete_waiters(self, block_addr: int, cycle: int, level: str) -> None:
        mshr = self.rtile.mshr
        entry = mshr.get(block_addr)
        if entry is None:
            self.stats.incr("stray_fills")
            return
        for waiter in entry.waiters:
            waiter.complete(cycle, level)
        if entry.waiters and level != self.rtile.name:
            self.stats.incr(f"read_hits_{level}", len(entry.waiters))
        mshr.release(block_addr)

    def _refill_rtile(self, block_addr: int, cycle: int, dirty: bool) -> None:
        victim = self.rtile.fill(block_addr, cycle, dirty=dirty)
        if victim is not None:
            self._rtile_evictions.append((victim.block_addr, victim.dirty))
            self.stats.incr("rtile_evictions")

    # -- step 2: transport network ---------------------------------------------
    def _advance_transport(self, cycle: int) -> None:
        if not self._transport_active:
            return
        active = sorted(self._transport_active, key=self._distance_of.__getitem__)
        for coord in active:
            tile = self.tiles[coord]
            moved_everything = True
            # A previously blocked hit injection retries first.
            if tile.pending_hit is not None:
                if self._route_transport(coord, tile.pending_hit, cycle):
                    tile.pending_hit = None
                else:
                    moved_everything = False
            for buffer in tile.d_in.values():
                message = buffer.peek()
                if message is None:
                    continue
                if self._route_transport(coord, message, cycle):
                    buffer.pop()
                if buffer.peek() is not None:
                    moved_everything = False
            if moved_everything and tile.pending_hit is None:
                self._transport_active.discard(coord)

    def _route_transport(self, coord: Coordinate, message: Message, cycle: int) -> bool:
        options = self.transport_net.open_outputs(coord, cycle)
        if not options:
            self.stats.incr("transport_blocked_cycles")
            return False
        destination = self.transport_net.choose_output(options)
        self.transport_net.send(coord, destination, message, cycle)
        if destination != ROOT:
            self._transport_active.add(destination)
        return True

    # -- step 3: replacement network ---------------------------------------------
    def _advance_replacement(self, cycle: int, searching: set) -> None:
        if not self._replacement_active:
            return
        active = sorted(
            self._replacement_active,
            key=self._distance_of.__getitem__,
            reverse=True,
        )
        corner_tiles = self.geometry.corner_tiles
        counters = self.stats._counters
        for coord in active:
            if coord in searching:
                # Replacement only proceeds during search-idle cycles.
                continue
            tile = self.tiles[coord]
            entries = None
            for buffer in tile.u_in.values():
                if buffer._entries:
                    entries = buffer._entries
                    break
            if entries is None:
                self._replacement_active.discard(coord)
                continue
            message = entries[0]
            if (
                coord not in corner_tiles
                and tile.array.needs_victim(message.block_addr)
            ):
                options = self.replacement_net.open_outputs(coord, cycle)
                if not options:
                    counters["replacement_blocked_cycles"] += 1.0
                    continue
            entries.popleft()
            self._u_contents.pop(message.block_addr, None)
            victim = tile.fill(message.block_addr, cycle, message.dirty)
            counters["tile_fills"] += 1.0
            if victim is not None:
                self._push_victim(coord, victim.block_addr, victim.dirty, cycle)
            for buffer in tile.u_in.values():
                if buffer._entries:
                    break
            else:
                self._replacement_active.discard(coord)

    def _push_victim(self, coord: Coordinate, block_addr: int, dirty: bool, cycle: int) -> None:
        if coord in self.geometry.corner_tiles or not self.geometry.replacement_outputs.get(coord):
            self._corner_evictions.append((block_addr, dirty, cycle))
            self.stats.incr("corner_evictions")
            return
        options = self.replacement_net.open_outputs(coord, cycle)
        if not options:
            # The victim was already read out; fall back to evicting it to
            # the backside rather than dropping it (rare, counted).
            self._corner_evictions.append((block_addr, dirty, cycle))
            self.stats.incr("replacement_overflow_evictions")
            return
        destination = self.replacement_net.choose_output(options)
        message = Message(
            kind=MessageKind.REPLACEMENT,
            block_addr=block_addr,
            created_cycle=cycle,
            source=coord,
            dirty=dirty,
        )
        self.replacement_net.send(coord, destination, message, cycle)
        self._u_contents[block_addr] = destination
        self._replacement_active.add(destination)

    def _inject_rtile_evictions(self, cycle: int) -> None:
        while self._rtile_evictions:
            options = self.replacement_net.open_outputs(ROOT, cycle)
            if not options:
                self.stats.incr("rtile_eviction_blocked_cycles")
                return
            block_addr, dirty = self._rtile_evictions.popleft()
            destination = self.replacement_net.choose_output(options)
            message = Message(
                kind=MessageKind.REPLACEMENT,
                block_addr=block_addr,
                created_cycle=cycle,
                source=ROOT,
                dirty=dirty,
            )
            self.replacement_net.send(ROOT, destination, message, cycle)
            self._u_contents[block_addr] = destination
            self._replacement_active.add(destination)

    # -- step 4: search network -----------------------------------------------
    def _wave_decisive_cycle(self, wave: SearchWave) -> int:
        """First cycle at which ``wave`` does something observable.

        Observable means a probe that hits (LRU touch, extraction,
        transport injection) or the terminal expansion step (global-miss
        handling / wave retirement).  Every step before that only bumps
        probe/broadcast counters and the wave's own frontier, which
        :meth:`_catch_up_waves` replays in bulk.  Only valid as a
        scheduling target while the rest of the fabric is quiet: the
        content maps may shrink before the decisive cycle (making the
        estimate conservatively early — a harmless extra tick) but cannot
        gain a block, so no hit can materialise earlier than reported.
        """
        next_cycle = wave.next_cycle
        level_index = wave.level_index
        if level_index is None:
            # Post-hit fan-out: the block was extracted, so the wave just
            # sweeps to the leaves and retires.
            depth_below = self._depth_below
            return next_cycle + max(depth_below[c] for c in wave.frontier)
        block_addr = wave.block_addr
        index_of = self._frontier_index_of
        target = len(self._level_frontiers) - 1  # terminal step: global miss
        loc = self._tile_contents.get(block_addr)
        if loc is not None:
            hit_index = index_of.get(loc)
            if hit_index is not None and level_index <= hit_index < target:
                target = hit_index
        loc = self._u_contents.get(block_addr)
        if loc is not None:
            hit_index = index_of.get(loc)
            if hit_index is not None and level_index <= hit_index < target:
                target = hit_index
        return next_cycle + (target - level_index)

    def _catch_up_waves(self, cycle: int) -> None:
        """Burst-replay the miss-only wave steps of skipped cycles.

        The scheduler leaps from one decisive wave cycle to the next (see
        :meth:`next_event_cycle`); each skipped per-level step is a proven
        miss whose only effects are the bulk probe counter, one broadcast
        record, and the wave's frontier advance — replayed here, before
        anything else in the tick can observe a stale frontier.  Canonical
        (no-hit-yet) waves replay in O(1) off the precomputed frontier
        width prefix sums; pruned post-hit frontiers re-expand tile by
        tile, which is still cheap next to the machine cycles skipped.
        """
        tile_contents = self._tile_contents
        u_contents = self._u_contents
        for wave in self._waves:
            behind = cycle - wave.next_cycle
            if behind <= 0:
                continue
            if self._wave_decisive_cycle(wave) < cycle:
                raise SimulationError(
                    f"search wave for 0x{wave.block_addr:x} leapt past its "
                    f"decisive cycle: fabric mutated during a quiet window"
                )
            level_index = wave.level_index
            if level_index is not None:
                prefix = self._frontier_len_prefix
                self._search_lookups_bulk += (
                    prefix[level_index + behind] - prefix[level_index]
                )
                net_counters = self.search_net.stats._counters
                net_counters["broadcasts"] += float(behind)
                net_counters["link_traversals"] += (
                    prefix[level_index + behind + 1] - prefix[level_index + 1]
                )
                wave.level_index = level_index + behind
                wave.frontier = self._level_frontiers[wave.level_index][0]
                wave.next_cycle = cycle
                continue
            block_addr = wave.block_addr
            children_of = self.search_net.children_of
            while wave.next_cycle < cycle:
                frontier = wave.frontier
                loc = tile_contents.get(block_addr)
                if loc is None:
                    loc = u_contents.get(block_addr)
                if loc is not None and loc in frontier:
                    raise SimulationError(
                        f"search wave for 0x{wave.block_addr:x} found a hit "
                        f"in a skipped step: fabric mutated during a quiet "
                        f"window"
                    )
                self._search_lookups_bulk += len(frontier)
                next_frontier: List[Coordinate] = []
                for coord in frontier:
                    next_frontier.extend(children_of(coord))
                self.search_net.record_broadcast(len(next_frontier))
                wave.frontier = next_frontier
                wave.next_cycle += 1

    def _advance_search(self, cycle: int) -> None:
        """Advance every wave due this cycle by one level.

        The content maps answer "which tile (or U buffer) holds this
        block" in O(1), so a wave step only *probes* the hit tile (whose
        probe has observable effects: hit counters, the LRU touch, the
        extraction); every other frontier tile just accounts the tag
        lookup its dense probe would have performed.  The frontier itself
        still advances tile by tile — its width drives the search-network
        broadcast energy and the search/replacement conflict sets — and a
        frontier that contains the hit tile twice (two parents fanning
        into it) re-counts the second probe as the post-extraction miss it
        would dense-mode be.
        """
        finished: List[SearchWave] = []
        tiles = self.tiles
        children_of = self.search_net.children_of
        tile_contents = self._tile_contents
        u_contents = self._u_contents
        level_frontiers = self._level_frontiers
        last_level = len(level_frontiers) - 1
        for wave in self._waves:
            if wave.next_cycle != cycle:
                continue
            block_addr = wave.block_addr
            level_index = wave.level_index
            if level_index is not None:
                # Canonical expansion: precomputed frontier and set, O(1)
                # membership probes, bulk lookup accounting.
                frontier, frontier_set = level_frontiers[level_index]
                loc = tile_contents.get(block_addr)
                if loc is not None and loc in frontier_set:
                    hit_coord, via_u = loc, False
                else:
                    loc = u_contents.get(block_addr)
                    if loc is not None and loc in frontier_set:
                        hit_coord, via_u = loc, True
                    else:
                        self._search_lookups_bulk += len(frontier)
                        if level_index < last_level:
                            wave.level_index = level_index + 1
                            nxt = level_frontiers[level_index + 1][0]
                            self.search_net.record_broadcast(len(nxt))
                            wave.frontier = nxt
                            wave.next_cycle = cycle + 1
                        else:
                            finished.append(wave)
                            if not wave.hit:
                                self.search_net.record_global_miss()
                                self.stats.incr("global_misses")
                                self._handle_global_miss(wave, cycle)
                        continue
            else:
                frontier = wave.frontier
                hit_coord = None
                via_u = False
                loc = tile_contents.get(block_addr)
                if loc is not None and loc in frontier:
                    hit_coord = loc
                else:
                    loc = u_contents.get(block_addr)
                    if loc is not None and loc in frontier:
                        hit_coord = loc
                        via_u = True
            next_frontier: List[Coordinate] = []
            extend_frontier = next_frontier.extend
            if hit_coord is None:
                self._search_lookups_bulk += len(frontier)
                for coord in frontier:
                    extend_frontier(children_of(coord))
            else:
                wave.level_index = None  # the hit prunes the canonical fan-out
                unhandled = True
                for coord in frontier:
                    if unhandled and coord == hit_coord:
                        unhandled = False  # handled below; no fan-out
                        continue
                    self._search_lookups_bulk += 1.0
                    extend_frontier(children_of(coord))
                tile = tiles[hit_coord]
                if via_u:
                    tile.stats._counters["search_lookups"] += 1.0
                    in_flight = tile.lookup_u_buffers(block_addr)
                    if in_flight is None:
                        raise SimulationError(
                            f"search content map desynchronised: 0x{block_addr:x} "
                            f"not in U buffers of {hit_coord}"
                        )
                    source, message = in_flight
                    dirty = message.dirty
                    tile.u_in[source].remove(message)
                    u_contents.pop(block_addr, None)
                else:
                    block = tile.lookup(block_addr, cycle)
                    if block is None:
                        raise SimulationError(
                            f"search content map desynchronised: 0x{block_addr:x} "
                            f"not in tile {hit_coord}"
                        )
                    dirty = block.dirty
                    tile.extract(block_addr)
                wave.hit = True
                wave.hit_level = self.geometry.level_of[hit_coord]
                self.stats.incr(f"tile_hits_Le{wave.hit_level}")
                transport = Message(
                    kind=MessageKind.TRANSPORT,
                    block_addr=block_addr,
                    created_cycle=cycle,
                    source=hit_coord,
                    dirty=dirty or wave.is_write,
                )
                if not self._route_transport(hit_coord, transport, cycle):
                    tile.pending_hit = transport
                    self._transport_active.add(hit_coord)
                    self.search_net.record_contention_restart()
                    self.stats.incr("contention_marked_hits")
            if next_frontier:
                self.search_net.record_broadcast(len(next_frontier))
                wave.frontier = next_frontier
                wave.next_cycle = cycle + 1
            else:
                finished.append(wave)
                if not wave.hit:
                    self.search_net.record_global_miss()
                    self.stats.incr("global_misses")
                    self._handle_global_miss(wave, cycle)
        for wave in finished:
            self._waves.remove(wave)

    def _handle_global_miss(self, wave: SearchWave, cycle: int) -> None:
        entry = self.rtile.mshr.get(wave.block_addr)
        has_load_waiters = entry is not None and bool(entry.waiters)
        if wave.is_write and not has_load_waiters:
            # Global write miss: release the tracking entry and post the
            # write towards the backside (no data needs to come back).
            if entry is not None:
                self.rtile.mshr.release(wave.block_addr)
            self.stats.incr("global_write_misses")
            if self.rtile.write_buffer.can_accept():
                self.rtile.write_buffer.coalesce_or_push(wave.block_addr, cycle)
            else:
                self._corner_evictions.append((wave.block_addr, True, cycle))
            return
        self._forward_to_backside(wave.block_addr, cycle + 1)

    def _forward_to_backside(self, block_addr: int, cycle: int) -> None:
        response = self.backside.issue(block_addr, AccessType.LOAD, cycle)
        ready = response.complete_cycle if response.complete_cycle is not None else cycle + 1
        level = response.service_level or self.backside.name
        heapq.heappush(
            self._backside_fills, (ready, next(self._fill_seq), block_addr, level)
        )

    # -- step 5: backside traffic ------------------------------------------------
    def _pump_drains(self, limit: int) -> int:
        """Replay deferred backside drains firing strictly below ``limit``.

        Dense mode ends every cycle by draining at most one write-buffer
        entry (when its port is free) and popping at most one corner
        eviction.  Both schedules are fully determined by the queue
        contents — write-buffer fires follow the port interval, corner pops
        happen every cycle while the queue is non-empty — so the event
        kernel defers them entirely and this method burst-replays the
        missed span, posting each write to the backside at the exact cycle
        a dense run would have used.  Within a cycle the write-buffer entry
        drains before the corner pop, preserving dense ordering.

        Returns the cycle after the latest drain applied (0 when nothing
        drained), so :meth:`finalize` can report how far the tail reached.
        """
        reached = 0
        wb = self.rtile.write_buffer
        corner = self._corner_evictions
        if not corner and not wb._queue:
            return reached
        backside = self.backside
        while corner:
            corner_fire = corner[0][2]
            floor = self._corner_last_pop + 1
            if corner_fire < floor:
                corner_fire = floor
            wb_fire = wb.next_fire_cycle()
            if wb_fire is not None and wb_fire <= corner_fire:
                if wb_fire >= limit:
                    return reached
                entry = wb.drain_one(wb_fire)
                backside.post_write(entry.block_addr, wb_fire)
                reached = wb_fire + 1
                if wb_fire < corner_fire:
                    continue
            if corner_fire >= limit:
                return reached
            block_addr, dirty, _ = corner.popleft()
            self._corner_last_pop = corner_fire
            reached = corner_fire + 1
            if dirty:
                backside.post_write(block_addr, corner_fire)
                self.stats.incr("corner_writebacks")
            else:
                self.stats.incr("corner_clean_drops")
        for entry, fire in wb.drain_until(limit):
            backside.post_write(entry.block_addr, fire)
            reached = fire + 1
        return reached

    # ------------------------------------------------------------------ warm-up
    def prewarm(self, addresses) -> None:
        """Functionally install an address stream into the r-tile and tiles.

        Placement mirrors what the timed model converges to: the most
        recently used blocks sit in the r-tile and earlier victims domino
        outwards along the Replacement network, preserving content
        exclusion.  The backside is pre-warmed with the same stream.
        """
        addresses = list(addresses)
        # Content exclusion means a block lives in at most one place, so one
        # location map replaces the per-address scan over every tile.
        location: Dict[int, Coordinate] = {}
        for resident in self.rtile.array.resident_blocks():
            location[resident.block_addr] = ROOT
        for coord, tile in self.tiles.items():
            for resident in tile.array.resident_blocks():
                location[resident.block_addr] = coord
        block_of = self.rtile.block_addr
        rtile_lookup = self.rtile.array.lookup
        location_pop = location.pop
        tiles = self.tiles
        prewarm_fill = self._prewarm_fill
        for addr in addresses:
            block = block_of(addr)
            if rtile_lookup(block, update_lru=True) is not None:
                continue
            holder = location_pop(block, None)
            if holder is not None and holder != ROOT:
                tiles[holder].array.invalidate(block)
            prewarm_fill(block, location)
        self.backside.prewarm(addresses)

    def _prewarm_fill(self, block_addr: int, location: Dict[int, Coordinate]) -> None:
        _, victim = self.rtile.array.fill(block_addr)
        location[block_addr] = ROOT
        node: Coordinate = ROOT
        while victim is not None:
            location.pop(victim.block_addr, None)
            outputs = self.geometry.replacement_outputs.get(node, [])
            if not outputs:
                break
            node = outputs[0]
            _, displaced = self.tiles[node].array.fill(victim.block_addr, 0, victim.dirty)
            if displaced is not None:
                location.pop(displaced.block_addr, None)
            location[victim.block_addr] = node
            victim = displaced

    # ------------------------------------------------------------------ coherence
    def invalidate_block(self, block_addr: int) -> bool:
        """Invalidate ``block_addr`` everywhere in the fabric (Section III-D).

        The paper enforces inclusion with respect to the coherency point
        (the next cache level) through explicit invalidations; this is the
        hook that coherence apparatus would call.  The block is removed from
        the r-tile, every tile, the eviction queues, and any in-flight
        Transport/Replacement buffer entry.  Returns True if a copy was
        found.
        """
        block_addr = self.rtile.block_addr(block_addr)
        self.stats.incr("invalidations")
        found = self.rtile.array.invalidate(block_addr) is not None
        for tile in self.tiles.values():
            if tile.array.invalidate(block_addr) is not None:
                found = True
        for queue in (self._rtile_evictions, self._corner_evictions):
            for index, entry in enumerate(queue):
                if entry[0] == block_addr:
                    del queue[index]
                    found = True
                    break
        for network in (self.transport_net, self.replacement_net):
            for buffer in network.link_buffers.values():
                message = buffer.find_block(block_addr)
                if message is not None:
                    buffer.remove(message)
                    found = True
        self._u_contents.pop(block_addr, None)
        for buffer in self.root_d_buffers.values():
            message = buffer.find_block(block_addr)
            if message is not None:
                buffer.remove(message)
                found = True
        if found:
            self.stats.incr("invalidation_hits")
        return found

    # ------------------------------------------------------------------ queries
    def tile_at(self, coord: Coordinate) -> Tile:
        """Return the tile at ``coord`` (raises for the r-tile or outside)."""
        return self.tiles[coord]

    def find_block(self, block_addr: int) -> List[Coordinate]:
        """Return every location (tile coordinate or ``ROOT``) holding the block.

        With content exclusion this list never has more than one entry; the
        property-based tests rely on this.
        """
        holders: List[Coordinate] = []
        if self.rtile.array.contains(block_addr):
            holders.append(ROOT)
        for coord, tile in self.tiles.items():
            if tile.contains(block_addr):
                holders.append(coord)
        return holders

    def total_occupancy(self) -> int:
        """Number of blocks resident across the r-tile and all tiles."""
        return self.rtile.array.occupancy() + sum(
            tile.occupancy() for tile in self.tiles.values()
        )

    def activity(self) -> Dict[str, float]:
        merged = dict(self.stats.as_dict())
        for key, value in self.rtile.stats.as_dict().items():
            merged[f"L1-RT.{key}"] = value
        tile_totals: Dict[str, float] = {}
        for tile in self.tiles.values():
            for key, value in tile.stats.as_dict().items():
                tile_totals[key] = tile_totals.get(key, 0.0) + value
        if self._search_lookups_bulk:
            # Miss probes are accounted in bulk (see __init__); they belong
            # to the same fleet-wide total dense per-tile probing fed.
            tile_totals["search_lookups"] = (
                tile_totals.get("search_lookups", 0.0) + self._search_lookups_bulk
            )
        for key, value in tile_totals.items():
            merged[f"tiles.{key}"] = value
        for net in (self.search_net, self.transport_net, self.replacement_net):
            for key, value in net.stats.as_dict().items():
                merged[f"{net.stats.name}.{key}"] = value
        for key, value in self.backside.activity().items():
            merged[key] = merged.get(key, 0.0) + value
        return merged
