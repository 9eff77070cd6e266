"""A single L-NUCA tile.

A tile is an 8 KB, 2-way, one-cycle cache bank plus the small amount of
network state the paper attaches to it (Fig. 3): downstream (D) buffers on
its incoming Transport links and upstream (U) buffers on its incoming
Replacement links.  The tile performs a cache access and one hop of routing
within a single processor cycle; the surrounding
:class:`~repro.core.lnuca.LightNUCA` controller orchestrates when each tile
does what.  The paper's Miss Address (MA) register, which latches the
incoming search request, has no state here: the controller tracks each
search wave's frontier itself (``LightNUCA._waves``).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.cache.array import SetAssociativeArray
from repro.cache.block import CacheBlock
from repro.core.config import TileConfig
from repro.noc.buffer import FlowControlBuffer
from repro.noc.message import Message
from repro.sim.stats import Stats

Coordinate = Tuple[int, int]


class Tile:
    """One L-NUCA tile: cache array + D/U input buffers."""

    def __init__(self, coord: Coordinate, config: TileConfig, buffer_depth: int = 2) -> None:
        self.coord = coord
        self.config = config
        self.array = SetAssociativeArray(
            config.size_bytes,
            config.associativity,
            config.block_size,
            policy=config.replacement,
        )
        # Input buffers, keyed by the upstream tile the link comes from.
        self.d_in: Dict[Coordinate, FlowControlBuffer] = {}
        self.u_in: Dict[Coordinate, FlowControlBuffer] = {}
        self._u_in_items: Optional[list] = None  # lazy items() cache
        self.buffer_depth = buffer_depth
        # A hit whose transport injection was blocked (all output D channels
        # Off).  The paper handles this with a contention-marked search
        # message; the model retries the injection next cycle and counts the
        # event.
        self.pending_hit: Optional[Message] = None
        self.stats = Stats(f"tile{coord}")

    # ------------------------------------------------------------------ wiring
    def add_transport_input(self, source: Coordinate) -> FlowControlBuffer:
        """Create the D buffer for the incoming transport link from ``source``."""
        buffer = FlowControlBuffer(self.buffer_depth, name=f"D{source}->{self.coord}")
        self.d_in[source] = buffer
        return buffer

    def add_replacement_input(self, source: Coordinate) -> FlowControlBuffer:
        """Create the U buffer for the incoming replacement link from ``source``."""
        buffer = FlowControlBuffer(self.buffer_depth, name=f"U{source}->{self.coord}")
        self.u_in[source] = buffer
        return buffer

    # ------------------------------------------------------------------ search
    def lookup(self, block_addr: int, cycle: int) -> Optional[CacheBlock]:
        """Search the tag array for ``block_addr`` (one search per cycle)."""
        counters = self.stats._counters  # hot: one probe per searched tile
        counters["search_lookups"] += 1.0
        block = self.array.lookup(block_addr, cycle=cycle, update_lru=True)
        if block is not None:
            counters["hits"] += 1.0
        return block

    def lookup_u_buffers(self, block_addr: int) -> Optional[Tuple[Coordinate, Message]]:
        """Search the U buffers for a block in transit (avoids false misses)."""
        items = self._u_in_items
        if items is None or len(items) != len(self.u_in):
            # Cached after wiring: u_in is stable once the networks are
            # wired, and items() allocation per probed tile was measurable.
            items = self._u_in_items = list(self.u_in.items())
        for source, buffer in items:
            # Inlined FlowControlBuffer.find_block: this runs for every tile
            # probed by every search wave and the buffers are almost always
            # empty, so the per-buffer call dispatch was measurable.
            for message in buffer._entries:
                if message.block_addr == block_addr:
                    self.stats.incr("u_buffer_hits")
                    return source, message
        return None

    # ------------------------------------------------------------------ contents
    def extract(self, block_addr: int) -> Optional[CacheBlock]:
        """Remove ``block_addr`` from the array (content exclusion on a hit)."""
        return self.array.invalidate(block_addr)

    def fill(self, block_addr: int, cycle: int, dirty: bool) -> Optional[CacheBlock]:
        """Insert an evicted block arriving over the Replacement network.

        Returns the victim this fill displaces (the "domino" continues with
        it), or ``None`` when a free way absorbed the block.
        """
        counters = self.stats._counters
        counters["fills"] += 1.0
        _, victim = self.array.fill(block_addr, cycle, dirty)
        if victim is not None:
            counters["evictions"] += 1.0
        return victim

    def occupancy(self) -> int:
        """Number of valid blocks currently stored in the tile."""
        return self.array.occupancy()

    def contains(self, block_addr: int) -> bool:
        return self.array.contains(block_addr)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Tile({self.coord}, {self.occupancy()} blocks)"
