"""Occupancy-modelled 2-D mesh (used by the D-NUCA baseline).

The D-NUCA interconnect is the conventional NUCA 2-D mesh with wormhole
routing and virtual-channel routers (Table I: 4 virtual channels, 4-entry
buffers, 1-cycle routing latency, 32 B flits, 1–5 flits per message).
Unlike the L-NUCA networks — which are simulated message by message and
cycle by cycle in :mod:`repro.core` — the mesh uses an occupancy model:
each directed link tracks when it is next free, and a transfer reserves the
links along its dimension-order path hop by hop.  This captures the
queueing/contention behaviour that matters for the comparison without the
cost of a full flit-level simulation.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Tuple

from repro.common.errors import ConfigurationError
from repro.noc.routing import Coordinate, dimension_order_route
from repro.sim.stats import Stats

#: A directed link, as its (from, to) router coordinates.
Link = Tuple[Coordinate, Coordinate]


class Mesh2D:
    """A ``rows x cols`` mesh with per-link occupancy tracking."""

    def __init__(
        self,
        rows: int,
        cols: int,
        router_latency: int = 1,
        link_width_bytes: int = 32,
        name: str = "mesh",
    ) -> None:
        if rows < 1 or cols < 1:
            raise ConfigurationError("mesh must have at least one row and column")
        if router_latency < 0:
            raise ConfigurationError("router latency cannot be negative")
        self.rows = rows
        self.cols = cols
        self.router_latency = router_latency
        self.link_width_bytes = link_width_bytes
        self.name = name
        self._link_free: Dict[Link, int] = defaultdict(int)
        #: (src, dst) -> the XY path as a tuple of directed link keys,
        #: built (and its end points validated) on the pair's first use.
        self._paths: Dict[Tuple[Coordinate, Coordinate], Tuple[Link, ...]] = {}
        self.stats = Stats(name)

    def contains(self, node: Coordinate) -> bool:
        """Return True if ``node`` is a valid coordinate of this mesh."""
        x, y = node
        return 0 <= x < self.cols and 0 <= y < self.rows

    def hop_count(self, src: Coordinate, dst: Coordinate) -> int:
        """Number of links a message from ``src`` to ``dst`` traverses."""
        self._validate(src)
        self._validate(dst)
        return abs(src[0] - dst[0]) + abs(src[1] - dst[1])

    def min_latency(self, src: Coordinate, dst: Coordinate, flits: int = 1) -> int:
        """Contention-free latency from ``src`` to ``dst`` for a message."""
        hops = self.hop_count(src, dst)
        per_hop = 1 + self.router_latency
        return hops * per_hop + max(0, flits - 1)

    def transfer(self, src: Coordinate, dst: Coordinate, cycle: int, flits: int = 1) -> int:
        """Send a ``flits``-long message and return its arrival cycle.

        The message follows the XY dimension-order path; each directed link
        along the path is reserved for ``flits`` cycles (wormhole
        serialisation), and the head flit pays one link plus ``router_latency``
        cycles per hop.  Contention shows up as waiting for a link's
        ``next_free`` cycle.
        """
        path = self._paths.get((src, dst))
        if path is None:
            path = self._route(src, dst)
        if flits < 1:
            raise ConfigurationError("a message needs at least one flit")
        if not path:
            return cycle
        link_free = self._link_free
        per_hop = 1 + self.router_latency
        time = cycle
        stall = 0
        for key in path:
            free = link_free[key]
            if free > time:
                stall += free - time
                time = free
            link_free[key] = time + flits
            time += per_hop
        arrival = time + flits - 1
        counters = self.stats._counters
        link_flits = len(path) * flits
        counters["link_traversals"] += link_flits
        counters["router_traversals"] += link_flits
        if stall:
            counters["link_stall_cycles"] += stall
        counters["messages"] += 1.0
        counters["total_message_latency"] += arrival - cycle
        return arrival

    def _route(self, src: Coordinate, dst: Coordinate) -> Tuple[Link, ...]:
        """Validate a (src, dst) pair and cache its XY path as link keys."""
        self._validate(src)
        self._validate(dst)
        keys = []
        current = src
        for nxt in dimension_order_route(src, dst):
            keys.append((current, nxt))
            current = nxt
        path = self._paths[(src, dst)] = tuple(keys)
        return path

    def link_utilisation(self) -> Dict[Link, int]:
        """Return the next-free cycle of every link that has carried traffic."""
        return dict(self._link_free)

    def reset(self) -> None:
        self._link_free.clear()

    def _validate(self, node: Coordinate) -> None:
        if not self.contains(node):
            raise ConfigurationError(f"node {node} outside {self.cols}x{self.rows} mesh")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Mesh2D({self.cols}x{self.rows})"
