"""Differential tests: rewritten model primitives against their former code.

Three primitives were rewritten for host speed with the promise that every
simulated value stays bit-identical:

* the single eviction path — :meth:`Tile.fill` and
  :meth:`LightNUCA._prewarm_fill` take the victim that
  :meth:`SetAssociativeArray.fill` returns instead of probing for it first;
* :meth:`Mesh2D.transfer`, which caches each XY path and adds its counters
  once per message;
* the lazily allocated sets of :class:`SetAssociativeArray` and their
  sparse pickle form.

Each test drives the current code and a copy of the former code, kept
below, through the same random operation sequence and compares everything
observable: victims, ``on_change`` event order, replacement state, arrival
cycles, link reservations and statistics.
"""

from __future__ import annotations

import pickle
import random
from collections import defaultdict

import pytest

from repro.cache.array import SetAssociativeArray
from repro.cache.block import CacheBlock
from repro.cache.cache import TimedCache
from repro.cache.hierarchy import ConventionalHierarchy
from repro.cache.memory import MainMemory
from repro.cache.replacement import LRUPolicy, make_policy
from repro.common.errors import ConfigurationError
from repro.core.config import LNUCAConfig, TileConfig
from repro.core.geometry import ROOT
from repro.core.lnuca import LightNUCA
from repro.core.tile import Tile
from repro.noc.mesh import Mesh2D
from repro.noc.routing import dimension_order_route
from repro.sim.configs import l3_config
from repro.sim.stats import Stats

POLICIES = ("lru", "fifo", "random", "plru")


# ----------------------------------------------------------- former code
class _EagerArray:
    """The former array: every set's ways and tag map allocated up front,
    policy updates through the interface, and the probe-then-fill
    eviction helpers ``set_is_full`` / ``victim_for``."""

    def __init__(self, size_bytes, associativity, block_size, policy):
        self.associativity = associativity
        self.block_size = block_size
        self.num_sets = size_bytes // (associativity * block_size)
        self.policy = make_policy(policy, associativity, seed=0)
        self._sets = [[None] * associativity for _ in range(self.num_sets)]
        self._tag_to_way = [{} for _ in range(self.num_sets)]
        self.on_change = None

    def _index(self, addr):
        line = addr // self.block_size
        return line % self.num_sets, line // self.num_sets

    def lookup(self, addr, cycle=0, update_lru=True):
        idx, tag = self._index(addr)
        way = self._tag_to_way[idx].get(tag)
        if way is None:
            return None
        blk = self._sets[idx][way]
        if blk is None or not blk.valid:
            return None
        if update_lru:
            blk.last_touch = cycle
            self.policy.on_access(idx, way, cycle)
        return blk

    def contains(self, addr):
        return self.lookup(addr, update_lru=False) is not None

    def fill(self, addr, cycle=0, dirty=False):
        idx, tag = self._index(addr)
        ways = self._sets[idx]
        tags = self._tag_to_way[idx]
        resident_way = tags.get(tag)
        if resident_way is not None:
            blk = ways[resident_way]
            if blk is not None and blk.valid:
                blk.last_touch = cycle
                blk.dirty = blk.dirty or dirty
                self.policy.on_access(idx, resident_way, cycle)
                return blk, None
        victim = None
        target_way = None
        for way, blk in enumerate(ways):
            if blk is None or not blk.valid:
                target_way = way
                break
        if target_way is None:
            target_way = self.policy.victim_way(idx, ways)
            victim = ways[target_way]
            if victim is not None:
                tags.pop(victim.tag, None)
        new_block = CacheBlock(
            tag=tag,
            block_addr=addr & ~(self.block_size - 1),
            dirty=dirty,
            last_touch=cycle,
            fill_cycle=cycle,
        )
        ways[target_way] = new_block
        tags[tag] = target_way
        self.policy.on_fill(idx, target_way, cycle)
        if self.on_change is not None:
            if victim is not None:
                self.on_change(victim.block_addr, False)
            self.on_change(new_block.block_addr, True)
        return new_block, victim

    def invalidate(self, addr):
        idx, tag = self._index(addr)
        way = self._tag_to_way[idx].get(tag)
        if way is None:
            return None
        blk = self._sets[idx][way]
        self._sets[idx][way] = None
        del self._tag_to_way[idx][tag]
        self.policy.on_invalidate(idx, way)
        if self.on_change is not None:
            self.on_change(blk.block_addr, False)
        return blk

    def ways_of_set(self, idx):
        return list(self._sets[idx])

    def set_is_full(self, addr):
        ways = self._sets[self._index(addr)[0]]
        return all(blk is not None and blk.valid for blk in ways)

    def victim_for(self, addr):
        if self.contains(addr) or not self.set_is_full(addr):
            return None
        idx = self._index(addr)[0]
        ways = self._sets[idx]
        return ways[self.policy.victim_way(idx, ways)]


def _former_tile_fill(array, block_addr, cycle, dirty):
    """The former ``Tile.fill`` eviction sequence."""
    victim = None
    if array.set_is_full(block_addr) and not array.contains(block_addr):
        victim_block = array.victim_for(block_addr)
        if victim_block is not None:
            victim = array.invalidate(victim_block.block_addr)
    array.fill(block_addr, cycle=cycle, dirty=dirty)
    return victim


def _former_prewarm(rtile, tiles, outputs, addresses):
    """The former ``LightNUCA.prewarm`` / ``_prewarm_fill`` over eager arrays."""
    location = {}
    for addr in addresses:
        block = addr & ~(rtile.block_size - 1)
        if rtile.lookup(block, update_lru=True) is not None:
            continue
        holder = location.pop(block, None)
        if holder is not None and holder != ROOT:
            tiles[holder].invalidate(block)
        _, victim = rtile.fill(block)
        location[block] = ROOT
        node = ROOT
        while victim is not None:
            location.pop(victim.block_addr, None)
            nexts = outputs.get(node, [])
            if not nexts:
                break
            node = nexts[0]
            array = tiles[node]
            displaced = None
            if array.set_is_full(victim.block_addr) and not array.contains(victim.block_addr):
                candidate = array.victim_for(victim.block_addr)
                if candidate is not None:
                    displaced = array.invalidate(candidate.block_addr)
                    location.pop(candidate.block_addr, None)
            array.fill(victim.block_addr, dirty=victim.dirty)
            location[victim.block_addr] = node
            victim = displaced


class _FormerMesh:
    """The former ``Mesh2D.transfer``: route, validate and count per hop."""

    def __init__(self, rows, cols, router_latency):
        self.rows = rows
        self.cols = cols
        self.router_latency = router_latency
        self._link_free = defaultdict(int)
        self.stats = Stats("mesh")

    def _validate(self, node):
        x, y = node
        if not (0 <= x < self.cols and 0 <= y < self.rows):
            raise ConfigurationError(f"node {node} outside mesh")

    def transfer(self, src, dst, cycle, flits=1):
        self._validate(src)
        self._validate(dst)
        if flits < 1:
            raise ConfigurationError("a message needs at least one flit")
        if src == dst:
            return cycle
        time = cycle
        current = src
        for nxt in dimension_order_route(src, dst):
            key = (current, nxt)
            start = max(time, self._link_free[key])
            if start > time:
                self.stats.incr("link_stall_cycles", start - time)
            self._link_free[key] = start + flits
            time = start + 1 + self.router_latency
            self.stats.incr("link_traversals", flits)
            self.stats.incr("router_traversals", flits)
            current = nxt
        arrival = time + max(0, flits - 1)
        self.stats.incr("messages")
        self.stats.incr("total_message_latency", arrival - cycle)
        return arrival


# ----------------------------------------------------------- comparisons
def _policy_state(policy, num_sets):
    """Everything a replacement policy's future decisions depend on."""
    if isinstance(policy, LRUPolicy):
        # Only the recency order matters; the stamp values do not (the
        # single path moves ``_invalid_clock`` less often by design).
        return [policy.recency_order(idx) for idx in range(num_sets)]
    if hasattr(policy, "_queues"):
        return {idx: list(q) for idx, q in policy._queues.items()}
    if hasattr(policy, "_trees"):
        return {idx: list(t) for idx, t in policy._trees.items()}
    return policy._rng.getstate()


def _contents(array):
    """Every way of every set, as comparable block metadata."""
    return [
        [
            None if blk is None else (blk.block_addr, blk.dirty, blk.last_touch, blk.fill_cycle)
            for blk in array.ways_of_set(idx)
        ]
        for idx in range(array.num_sets)
    ]


# ----------------------------------------------------------- Tile.fill
@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_tile_fill_matches_former_eviction_path(policy, seed):
    config = TileConfig(size_bytes=1024, associativity=2, replacement=policy)
    tile = Tile((0, 1), config)
    former = _EagerArray(1024, 2, 32, policy)
    events, former_events = [], []
    tile.array.on_change = lambda addr, present: events.append((addr, present))
    former.on_change = lambda addr, present: former_events.append((addr, present))
    num_sets = tile.array.num_sets
    rng = random.Random(seed)
    for cycle in range(600):
        addr = rng.randrange(64) * 32
        op = rng.random()
        if op < 0.6:
            dirty = rng.random() < 0.3
            victim = tile.fill(addr, cycle, dirty)
            former_victim = _former_tile_fill(former, addr, cycle, dirty)
            assert (victim is None) == (former_victim is None)
            if victim is not None:
                assert (victim.block_addr, victim.dirty) == (
                    former_victim.block_addr, former_victim.dirty
                )
        elif op < 0.85:
            hit = tile.array.lookup(addr, cycle)
            former_hit = former.lookup(addr, cycle)
            assert (hit is None) == (former_hit is None)
        else:
            extracted = tile.extract(addr)
            former_extracted = former.invalidate(addr)
            assert (extracted is None) == (former_extracted is None)
        assert events == former_events
        assert _policy_state(tile.array.policy, num_sets) == _policy_state(
            former.policy, num_sets
        )
    assert _contents(tile.array) == _contents(former)
    assert tile.stats["fills"] > 0 and tile.stats["evictions"] > 0


# ----------------------------------------------------------- _prewarm_fill
def _small_lnuca(policy):
    backside = ConventionalHierarchy([TimedCache(l3_config())], MainMemory(), name="bs")
    return LightNUCA(LNUCAConfig(levels=3, tile=TileConfig(replacement=policy)), backside)


@pytest.mark.parametrize("policy", POLICIES)
def test_prewarm_fill_matches_former_domino(policy):
    lnuca = _small_lnuca(policy)
    rtile = lnuca.rtile.array
    former_rtile = _EagerArray(
        rtile.size_bytes, rtile.associativity, rtile.block_size, lnuca.rtile.config.replacement
    )
    tile_cfg = lnuca.config.tile
    former_tiles = {
        coord: _EagerArray(tile_cfg.size_bytes, tile_cfg.associativity, tile_cfg.block_size, policy)
        for coord in lnuca.tiles
    }
    events, former_events = [], []
    for coord, tile in lnuca.tiles.items():
        observer = tile.array.on_change

        def log(addr, present, coord=coord, observer=observer):
            events.append((coord, addr, present))
            observer(addr, present)

        tile.array.on_change = log
        former_tiles[coord].on_change = (
            lambda addr, present, coord=coord: former_events.append((coord, addr, present))
        )
    rng = random.Random(7)
    # A working set several times the fabric, with reuse, so every level
    # overflows and blocks domino out to the corner tiles and back.
    addresses = [rng.randrange(40_000) * 32 for _ in range(30_000)]
    addresses += addresses[:5_000]
    lnuca.prewarm(addresses)
    _former_prewarm(former_rtile, former_tiles, lnuca.geometry.replacement_outputs, addresses)

    assert events == former_events
    assert _contents(rtile) == _contents(former_rtile)
    for coord, tile in lnuca.tiles.items():
        array = tile.array
        former = former_tiles[coord]
        assert _contents(array) == _contents(former), coord
        assert _policy_state(array.policy, array.num_sets) == _policy_state(
            former.policy, former.num_sets
        ), coord
    rebuilt = {
        blk.block_addr: coord
        for coord, tile in lnuca.tiles.items()
        for blk in tile.array.resident_blocks()
    }
    assert lnuca._tile_contents == rebuilt


# ----------------------------------------------------------- Mesh2D.transfer
@pytest.mark.parametrize("router_latency", [0, 1, 2])
def test_mesh_transfer_matches_former_per_hop_model(router_latency):
    mesh = Mesh2D(rows=5, cols=8, router_latency=router_latency)
    former = _FormerMesh(rows=5, cols=8, router_latency=router_latency)
    rng = random.Random(router_latency + 11)
    cycle = 0
    for _ in range(3_000):
        src = (rng.randrange(8), rng.randrange(5))
        dst = (rng.randrange(8), rng.randrange(5))
        flits = rng.choice([1, 1, 2, 5])
        cycle += rng.randrange(3)
        assert mesh.transfer(src, dst, cycle, flits) == former.transfer(src, dst, cycle, flits)
    assert mesh.link_utilisation() == dict(former._link_free)
    assert list(mesh.link_utilisation()) == list(former._link_free)
    assert list(mesh.stats.as_dict().items()) == list(former.stats.as_dict().items())
    assert mesh.stats["link_stall_cycles"] > 0


def test_mesh_transfer_validates_cached_and_fresh_pairs_alike():
    mesh = Mesh2D(rows=2, cols=2)
    with pytest.raises(ConfigurationError):
        mesh.transfer((0, 0), (2, 0), 0)
    with pytest.raises(ConfigurationError):
        mesh.transfer((0, 0), (1, 1), 0, flits=0)
    mesh.transfer((0, 0), (1, 1), 0)
    with pytest.raises(ConfigurationError):
        mesh.transfer((0, 0), (1, 1), 0, flits=0)
    assert mesh.transfer((1, 1), (1, 1), 9) == 9
    assert mesh.stats["messages"] == 1.0


# ----------------------------------------------------------- lazy sets + pickle
@pytest.mark.parametrize("policy", POLICIES)
def test_pickled_lazy_array_behaves_like_original(policy):
    array = SetAssociativeArray(4096, 4, 32, policy=policy)
    rng = random.Random(5)
    touched = set()
    for cycle in range(150):
        addr = rng.randrange(12) * 32 * 32 + rng.randrange(4) * 32  # 4 sets in use
        array.fill(addr, cycle=cycle, dirty=rng.random() < 0.5)
        touched.add(array.set_of(addr))
    # Empty out one allocated set entirely: allocated-but-empty and
    # never-allocated sets must behave the same after a round trip.
    emptied = next(iter(touched))
    for blk in list(array.ways_of_set(emptied)):
        if blk is not None:
            array.invalidate(blk.block_addr)
    clone = pickle.loads(pickle.dumps(array, pickle.HIGHEST_PROTOCOL))

    assert clone.occupancy() == array.occupancy()
    assert [b.block_addr for b in clone.resident_blocks()] == [
        b.block_addr for b in array.resident_blocks()
    ]
    assert _contents(clone) == _contents(array)
    for idx in range(array.num_sets):
        if idx not in touched:
            assert clone.ways_of_set(idx) == [None] * array.associativity
    probe = random.Random(9)
    for cycle in range(150, 400):
        addr = probe.randrange(24) * 32 * 32 + probe.randrange(8) * 32
        if probe.random() < 0.5:
            hit, clone_hit = array.lookup(addr, cycle), clone.lookup(addr, cycle)
            assert (hit is None) == (clone_hit is None)
        else:
            (_, victim), (_, clone_victim) = array.fill(addr, cycle), clone.fill(addr, cycle)
            assert (victim is None) == (clone_victim is None)
            if victim is not None:
                assert victim.block_addr == clone_victim.block_addr
    assert [b.block_addr for b in clone.resident_blocks()] == [
        b.block_addr for b in array.resident_blocks()
    ]
