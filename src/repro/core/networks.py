"""The three L-NUCA networks.

Each network owns the flow-control buffers of its links, provides the
routing choices the controller needs, and accumulates the per-network
activity statistics that feed the Orion-style energy model:

* :class:`SearchNetwork` — the broadcast tree plus the segmented miss line
  that collects global misses;
* :class:`TransportNetwork` — the towards-the-root 2-D mesh (D buffers);
* :class:`ReplacementNetwork` — the latency-driven irregular topology
  (U buffers).

All links are unidirectional and message-wide; Transport and Replacement
use store-and-forward flow control with On/Off back-pressure and
``buffer_depth`` (default two) entries per link, exactly as Section III-B
describes.  The Search network needs no flow control because search
messages can never block.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from repro.core.geometry import ROOT, Coordinate, LNUCAGeometry
from repro.core.tile import Tile
from repro.noc.buffer import FlowControlBuffer
from repro.noc.message import Message, MessageKind
from repro.sim.stats import Stats


class SearchNetwork:
    """Broadcast-tree miss propagation and global-miss collection."""

    def __init__(self, geometry: LNUCAGeometry) -> None:
        self.geometry = geometry
        self.stats = Stats("search_net")

    def children_of(self, coord: Coordinate) -> List[Coordinate]:
        """Tiles the search message fans out to from ``coord``."""
        return self.geometry.search_children.get(coord, [])

    def record_broadcast(self, fanout: int) -> None:
        """Account the link activations of one search fan-out."""
        counters = self.stats._counters  # hot: one call per wave step
        counters["link_traversals"] += fanout
        counters["broadcasts"] += 1.0

    def record_global_miss(self) -> None:
        """Account one activation of the segmented miss line."""
        self.stats.incr("global_misses")
        self.stats.incr("miss_line_activations")

    def record_contention_restart(self) -> None:
        """Account a contention-marked search message returning to the r-tile."""
        self.stats.incr("contention_restarts")


class _BufferedNetwork:
    """Shared logic of the Transport and Replacement (buffered) networks."""

    def __init__(
        self,
        name: str,
        kind: MessageKind,
        outputs: Dict[Coordinate, List[Coordinate]],
        routing_policy: str,
        rng: random.Random,
    ) -> None:
        self.name = name
        self.kind = kind
        self.outputs = outputs
        self.routing_policy = routing_policy
        self.rng = rng
        self.stats = Stats(name)
        # Buffer of the link src -> dst lives at dst; the dict below lets the
        # sender consult the destination buffer for the On/Off signal.
        self.link_buffers: Dict[Tuple[Coordinate, Coordinate], FlowControlBuffer] = {}
        self._link_last_cycle: Dict[Tuple[Coordinate, Coordinate], int] = {}
        #: coord -> its ``(destination, link key, buffer)`` rows in
        #: ``outputs`` order, built once by ``wire()`` for
        #: :meth:`open_outputs`.
        self._output_rows: Dict[Coordinate, List[tuple]] = {}

    def register_buffer(
        self, source: Coordinate, destination: Coordinate, buffer: FlowControlBuffer
    ) -> None:
        self.link_buffers[(source, destination)] = buffer

    def _build_output_rows(self) -> None:
        self._output_rows = {
            source: [
                (destination, (source, destination), self.link_buffers[(source, destination)])
                for destination in destinations
            ]
            for source, destinations in self.outputs.items()
        }

    def open_outputs(self, coord: Coordinate, cycle: int) -> List[Coordinate]:
        """Destinations reachable from ``coord`` whose buffer is On and whose
        link has not been used this cycle (links carry one message per cycle)."""
        result = []
        last_cycle = self._link_last_cycle
        for destination, key, buffer in self._output_rows.get(coord, ()):
            # Inlined FlowControlBuffer.is_on.
            if len(buffer._entries) >= buffer.capacity:
                continue
            if last_cycle.get(key) == cycle:
                continue
            result.append(destination)
        return result

    def choose_output(self, options: List[Coordinate]) -> Coordinate:
        """Apply the routing policy to the valid output set."""
        if not options:
            raise ValueError("no valid outputs")
        if self.routing_policy == "deterministic" or len(options) == 1:
            return options[0]
        return options[self.rng.randrange(len(options))]

    def send(
        self, source: Coordinate, destination: Coordinate, message: Message, cycle: int
    ) -> None:
        """Move ``message`` one hop from ``source`` into ``destination``'s buffer."""
        key = (source, destination)
        buffer = self.link_buffers[key]
        buffer.push(message)
        message.hops += 1
        self._link_last_cycle[key] = cycle
        counters = self.stats._counters
        counters["link_traversals"] += 1.0
        counters["buffer_writes"] += 1.0

    def total_buffered(self) -> int:
        """Number of messages currently sitting in any buffer of this network."""
        return sum(len(buffer) for buffer in self.link_buffers.values())


class TransportNetwork(_BufferedNetwork):
    """2-D mesh carrying hit blocks back to the r-tile (D buffers)."""

    def __init__(
        self, geometry: LNUCAGeometry, routing_policy: str, rng: random.Random
    ) -> None:
        super().__init__(
            "transport_net", MessageKind.TRANSPORT, geometry.transport_outputs, routing_policy, rng
        )
        self.geometry = geometry

    def wire(self, tiles: Dict[Coordinate, Tile], root_buffers: Dict[Coordinate, FlowControlBuffer]) -> None:
        """Create the D buffers at every link destination.

        ``root_buffers`` is filled with the buffers of the links that end at
        the r-tile (the controller drains those directly).
        """
        for source, destinations in self.geometry.transport_outputs.items():
            for destination in destinations:
                if destination == ROOT:
                    buffer = FlowControlBuffer(
                        tiles[source].buffer_depth, name=f"D{source}->root"
                    )
                    root_buffers[source] = buffer
                else:
                    buffer = tiles[destination].add_transport_input(source)
                self.register_buffer(source, destination, buffer)
        self._build_output_rows()


class ReplacementNetwork(_BufferedNetwork):
    """Latency-driven eviction ("domino") network (U buffers)."""

    def __init__(
        self, geometry: LNUCAGeometry, routing_policy: str, rng: random.Random
    ) -> None:
        super().__init__(
            "replacement_net",
            MessageKind.REPLACEMENT,
            geometry.replacement_outputs,
            routing_policy,
            rng,
        )
        self.geometry = geometry

    def wire(self, tiles: Dict[Coordinate, Tile]) -> None:
        """Create the U buffers at every link destination (none end at the root)."""
        for source, destinations in self.geometry.replacement_outputs.items():
            for destination in destinations:
                buffer = tiles[destination].add_replacement_input(source)
                self.register_buffer(source, destination, buffer)
        self._build_output_rows()

    def find_in_flight(self, block_addr: int) -> Optional[Tuple[Coordinate, Coordinate, Message]]:
        """Locate a block anywhere in the replacement buffers (for invariants)."""
        for (source, destination), buffer in self.link_buffers.items():
            message = buffer.find_block(block_addr)
            if message is not None:
                return source, destination, message
        return None
