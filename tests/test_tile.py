"""Unit tests for the L-NUCA tile and its network wrappers."""

import random

import pytest

from repro.core.config import LNUCAConfig, TileConfig
from repro.core.geometry import ROOT, LNUCAGeometry
from repro.core.networks import ReplacementNetwork, SearchNetwork, TransportNetwork
from repro.core.tile import Tile
from repro.common.errors import ConfigurationError
from repro.noc.message import Message, MessageKind


def make_tile(coord=(0, 1), **kwargs):
    return Tile(coord, TileConfig(), **kwargs)


class TestTileConfig:
    def test_default_is_paper_tile(self):
        tile = TileConfig()
        assert tile.size_bytes == 8 * 1024
        assert tile.associativity == 2
        assert tile.block_size == 32

    def test_rejects_tiny_tile(self):
        with pytest.raises(ConfigurationError):
            TileConfig(size_bytes=16, block_size=32)

    def test_rejects_misaligned(self):
        with pytest.raises(ConfigurationError):
            TileConfig(size_bytes=1000)


class TestLNUCAConfig:
    def test_paper_names_and_capacities(self):
        assert LNUCAConfig(levels=2).name == "LN2-72KB"
        assert LNUCAConfig(levels=3).name == "LN3-144KB"
        assert LNUCAConfig(levels=4).name == "LN4-248KB"

    def test_tiles_per_level(self):
        assert LNUCAConfig(levels=4).tiles_per_level == [1, 5, 9, 13]

    def test_num_tiles(self):
        assert LNUCAConfig(levels=3).num_tiles == 14

    def test_rejects_one_level(self):
        with pytest.raises(ConfigurationError):
            LNUCAConfig(levels=1)

    def test_rejects_unknown_routing(self):
        with pytest.raises(ConfigurationError):
            LNUCAConfig(levels=2, routing_policy="adaptive")

    def test_rejects_block_size_mismatch(self):
        with pytest.raises(ConfigurationError):
            LNUCAConfig(levels=2, tile=TileConfig(block_size=64))


class TestTileSearch:
    def test_lookup_counts_energy_events(self):
        tile = make_tile()
        tile.lookup(0x100, cycle=0)
        assert tile.stats["search_lookups"] == 1
        assert tile.stats["hits"] == 0

    def test_lookup_hit(self):
        tile = make_tile()
        tile.array.fill(0x100)
        assert tile.lookup(0x100, cycle=1) is not None
        assert tile.stats["hits"] == 1

    def test_u_buffer_lookup_finds_in_flight_block(self):
        tile = make_tile()
        buffer = tile.add_replacement_input((0, 2))
        message = Message(MessageKind.REPLACEMENT, 0x200, created_cycle=0)
        buffer.push(message)
        source, found = tile.lookup_u_buffers(0x200)
        assert source == (0, 2)
        assert found is message
        assert tile.stats["u_buffer_hits"] == 1

    def test_u_buffer_lookup_miss(self):
        tile = make_tile()
        tile.add_replacement_input((0, 2))
        assert tile.lookup_u_buffers(0x999) is None


class TestTileContents:
    def test_extract_enforces_exclusion(self):
        tile = make_tile()
        tile.array.fill(0x100)
        assert tile.extract(0x100) is not None
        assert not tile.contains(0x100)

    def test_fill_returns_displaced_victim(self):
        tile = Tile((0, 1), TileConfig(size_bytes=64, associativity=2, block_size=32))
        tile.fill(0x000, cycle=0, dirty=False)
        tile.fill(0x100, cycle=1, dirty=False)
        victim = tile.fill(0x200, cycle=2, dirty=True)
        assert victim is not None
        assert tile.contains(0x200)

    def test_fill_without_conflict_returns_none(self):
        tile = make_tile()
        assert tile.fill(0x100, cycle=0, dirty=False) is None

    def test_occupancy(self):
        tile = make_tile()
        tile.fill(0x100, 0, False)
        tile.fill(0x200, 0, False)
        assert tile.occupancy() == 2


class TestNetworkWrappers:
    def setup_method(self):
        self.geometry = LNUCAGeometry(3)
        self.config = LNUCAConfig(levels=3)
        self.tiles = {
            coord: Tile(coord, self.config.tile, self.config.buffer_depth)
            for coord in self.geometry.tiles
        }
        self.rng = random.Random(1)

    def test_search_network_broadcast_accounting(self):
        net = SearchNetwork(self.geometry)
        net.record_broadcast(5)
        net.record_global_miss()
        assert net.stats["link_traversals"] == 5
        assert net.stats["global_misses"] == 1

    def test_transport_wiring_creates_root_buffers(self):
        net = TransportNetwork(self.geometry, "random", self.rng)
        root_buffers = {}
        net.wire(self.tiles, root_buffers)
        # The tiles adjacent to the r-tile feed it directly.
        assert set(root_buffers) == {(-1, 0), (0, 1), (1, 0)}

    def test_transport_open_outputs_respect_backpressure(self):
        net = TransportNetwork(self.geometry, "random", self.rng)
        root_buffers = {}
        net.wire(self.tiles, root_buffers)
        coord = (0, 1)
        options = net.open_outputs(coord, cycle=0)
        assert ROOT in options
        # Fill the root buffer: the link must disappear from the options.
        buffer = root_buffers[coord]
        while buffer.is_on:
            buffer.push(Message(MessageKind.TRANSPORT, 0x0, 0))
        assert ROOT not in net.open_outputs(coord, cycle=0)

    def test_transport_send_marks_link_busy_for_cycle(self):
        net = TransportNetwork(self.geometry, "random", self.rng)
        root_buffers = {}
        net.wire(self.tiles, root_buffers)
        message = Message(MessageKind.TRANSPORT, 0x100, 0)
        net.send((0, 1), ROOT, message, cycle=4)
        assert ROOT not in net.open_outputs((0, 1), cycle=4)
        assert ROOT in net.open_outputs((0, 1), cycle=5)
        assert message.hops == 1

    def test_replacement_wiring_and_find_in_flight(self):
        net = ReplacementNetwork(self.geometry, "random", self.rng)
        net.wire(self.tiles)
        source = ROOT
        destination = self.geometry.replacement_outputs[ROOT][0]
        message = Message(MessageKind.REPLACEMENT, 0x300, 0)
        net.send(source, destination, message, cycle=0)
        located = net.find_in_flight(0x300)
        assert located is not None
        assert located[1] == destination

    def test_deterministic_routing_picks_first(self):
        net = TransportNetwork(self.geometry, "deterministic", self.rng)
        root_buffers = {}
        net.wire(self.tiles, root_buffers)
        options = net.open_outputs((1, 1), cycle=0)
        assert net.choose_output(options) == options[0]
