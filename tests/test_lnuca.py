"""Cycle-level behaviour tests for the Light NUCA."""

import pytest

from repro.cache.request import AccessType
from repro.core.geometry import ROOT

from helpers import make_small_lnuca


def run_until_done(lnuca, request, start_cycle, limit=2000):
    """Tick the L-NUCA until ``request`` completes; return the final cycle."""
    cycle = start_cycle
    while not request.done or request.complete_cycle > cycle:
        lnuca.tick(cycle)
        cycle += 1
        if cycle > start_cycle + limit:
            raise AssertionError("request never completed")
    return cycle


class TestRootTileHits:
    def test_rtile_hit_latency_is_l1_completion(self, small_lnuca):
        small_lnuca.rtile.array.fill(0x100)
        request = small_lnuca.issue(0x100, AccessType.LOAD, 0)
        assert request.done
        assert request.service_level == "L1-RT"
        assert request.latency == small_lnuca.rtile.completion_cycles

    def test_can_accept_depends_on_ports(self, small_lnuca):
        assert small_lnuca.can_accept(0, AccessType.LOAD)
        small_lnuca.rtile.reserve_port(0)
        small_lnuca.rtile.reserve_port(0)
        assert not small_lnuca.can_accept(0, AccessType.LOAD)


class TestTileHits:
    def test_le2_hit_faster_than_backside(self, small_lnuca):
        # Place a block in an adjacent Le2 tile and another only in the L3.
        small_lnuca.tiles[(0, 1)].array.fill(0x400)
        small_lnuca.backside.levels[0].array.fill(0x800)
        le2_request = small_lnuca.issue(0x400, AccessType.LOAD, 0)
        run_until_done(small_lnuca, le2_request, 0)
        l3_request = small_lnuca.issue(0x800, AccessType.LOAD, 100)
        run_until_done(small_lnuca, l3_request, 100)
        assert le2_request.service_level == "Le2"
        assert l3_request.service_level == "L3"
        assert le2_request.latency < l3_request.latency

    def test_adjacent_le2_hit_latency(self, small_lnuca):
        small_lnuca.tiles[(0, 1)].array.fill(0x400)
        request = small_lnuca.issue(0x400, AccessType.LOAD, 0)
        run_until_done(small_lnuca, request, 0)
        # 1 cycle r-tile miss + 1 search hop/lookup + transport/delivery.
        assert request.latency <= 5

    def test_hit_extracts_block_from_tile(self, small_lnuca):
        small_lnuca.tiles[(0, 1)].array.fill(0x400)
        request = small_lnuca.issue(0x400, AccessType.LOAD, 0)
        run_until_done(small_lnuca, request, 0)
        assert not small_lnuca.tiles[(0, 1)].contains(0x400)
        assert small_lnuca.rtile.array.contains(0x400)

    def test_le3_hit_slower_than_le2(self, small_lnuca):
        small_lnuca.tiles[(0, 1)].array.fill(0x400)
        small_lnuca.tiles[(0, 2)].array.fill(0x800)
        le2 = small_lnuca.issue(0x400, AccessType.LOAD, 0)
        run_until_done(small_lnuca, le2, 0)
        le3 = small_lnuca.issue(0x800, AccessType.LOAD, 100)
        run_until_done(small_lnuca, le3, 100)
        assert le3.service_level == "Le3"
        assert le3.latency > le2.latency

    def test_read_hit_statistics_per_level(self, small_lnuca):
        small_lnuca.tiles[(0, 1)].array.fill(0x400)
        request = small_lnuca.issue(0x400, AccessType.LOAD, 0)
        run_until_done(small_lnuca, request, 0)
        assert small_lnuca.stats["read_hits_Le2"] == 1
        assert small_lnuca.stats["tile_hits_Le2"] == 1

    def test_transport_latency_stats_recorded(self, small_lnuca):
        small_lnuca.tiles[(1, 1)].array.fill(0x400)
        request = small_lnuca.issue(0x400, AccessType.LOAD, 0)
        run_until_done(small_lnuca, request, 0)
        assert small_lnuca.stats["transport_deliveries"] == 1
        assert small_lnuca.stats["transport_actual_cycles"] >= small_lnuca.stats[
            "transport_min_cycles"
        ]


class TestGlobalMisses:
    def test_global_miss_goes_to_backside(self, small_lnuca):
        small_lnuca.backside.levels[0].array.fill(0x900)
        request = small_lnuca.issue(0x900, AccessType.LOAD, 0)
        run_until_done(small_lnuca, request, 0)
        assert request.service_level == "L3"
        assert small_lnuca.stats["global_misses"] == 1

    def test_miss_everywhere_reaches_memory(self, small_lnuca):
        request = small_lnuca.issue(0xABCDE0, AccessType.LOAD, 0)
        run_until_done(small_lnuca, request, 0)
        assert request.service_level == "MEM"

    def test_fill_installs_block_in_rtile(self, small_lnuca):
        request = small_lnuca.issue(0x900, AccessType.LOAD, 0)
        run_until_done(small_lnuca, request, 0)
        assert small_lnuca.rtile.array.contains(0x900)

    def test_secondary_miss_merges_on_mshr(self, small_lnuca):
        first = small_lnuca.issue(0x900, AccessType.LOAD, 0)
        second = small_lnuca.issue(0x900, AccessType.LOAD, 1)
        cycle = run_until_done(small_lnuca, first, 0)
        run_until_done(small_lnuca, second, cycle)
        assert small_lnuca.stats["secondary_miss_merges"] == 1
        assert second.complete_cycle == first.complete_cycle

    def test_search_lookups_cover_all_tiles_on_global_miss(self, small_lnuca):
        request = small_lnuca.issue(0x900, AccessType.LOAD, 0)
        run_until_done(small_lnuca, request, 0)
        # Miss probes are accounted in bulk (hit probes stay per-tile); the
        # observable total is the activity() aggregate.
        lookups = small_lnuca.activity()["tiles.search_lookups"]
        assert lookups == len(small_lnuca.tiles)


class TestEvictionsAndExclusion:
    def _fill_rtile_set(self, lnuca, base=0x1000):
        """Fill one r-tile set completely and return the conflicting addresses."""
        array = lnuca.rtile.array
        stride = array.block_size * array.num_sets
        return [base + way * stride for way in range(array.associativity)]

    def test_rtile_eviction_enters_replacement_network(self, small_lnuca):
        addresses = self._fill_rtile_set(small_lnuca)
        for addr in addresses:
            small_lnuca.rtile.array.fill(addr)
        conflicting = addresses[0] + len(addresses) * small_lnuca.rtile.array.block_size * small_lnuca.rtile.array.num_sets
        request = small_lnuca.issue(conflicting, AccessType.LOAD, 0)
        run_until_done(small_lnuca, request, 0)
        # Let the domino settle.
        for cycle in range(request.complete_cycle + 1, request.complete_cycle + 50):
            small_lnuca.tick(cycle)
        assert small_lnuca.stats["rtile_evictions"] >= 1
        victim = addresses[0]
        holders = small_lnuca.find_block(small_lnuca.rtile.block_addr(victim))
        assert len(holders) <= 1  # exclusion maintained

    def test_victim_buffer_hit(self, small_lnuca):
        # A block sitting in the eviction queue is found without a search.
        small_lnuca._rtile_evictions.append((0x2000, False))
        request = small_lnuca.issue(0x2000, AccessType.LOAD, 0)
        assert request.done
        assert small_lnuca.stats["rtile_victim_buffer_hits"] == 1
        assert small_lnuca.rtile.array.contains(0x2000)

    def test_find_block_lists_single_holder(self, small_lnuca):
        small_lnuca.tiles[(1, 0)].array.fill(0x700)
        assert small_lnuca.find_block(0x700) == [(1, 0)]

    def test_total_occupancy(self, small_lnuca):
        small_lnuca.rtile.array.fill(0x100)
        small_lnuca.tiles[(0, 1)].array.fill(0x200)
        assert small_lnuca.total_occupancy() == 2


class TestStores:
    def test_store_hit_marks_dirty(self, small_lnuca):
        small_lnuca.rtile.array.fill(0x100)
        request = small_lnuca.issue(0x100, AccessType.STORE, 0)
        assert request.done
        block = small_lnuca.rtile.array.lookup(0x100, update_lru=False)
        assert block.dirty

    def test_store_miss_searches_tiles(self, small_lnuca):
        small_lnuca.tiles[(0, 1)].array.fill(0x400)
        request = small_lnuca.issue(0x400, AccessType.STORE, 0)
        assert request.done  # stores are posted
        for cycle in range(0, 40):
            small_lnuca.tick(cycle)
        # The block migrated to the r-tile and is dirty there.
        block = small_lnuca.rtile.array.lookup(0x400, update_lru=False)
        assert block is not None and block.dirty
        assert not small_lnuca.tiles[(0, 1)].contains(0x400)

    def test_global_write_miss_posts_to_backside(self, small_lnuca):
        request = small_lnuca.issue(0xFEED00, AccessType.STORE, 0)
        assert request.done
        for cycle in range(0, 60):
            small_lnuca.tick(cycle)
        assert small_lnuca.stats["global_write_misses"] == 1

    def test_store_to_queued_victim_updates_it(self, small_lnuca):
        small_lnuca._rtile_evictions.append((0x3000, False))
        small_lnuca.issue(0x3000, AccessType.STORE, 0)
        assert small_lnuca._rtile_evictions[0] == (0x3000, True)


class TestPrewarm:
    def test_prewarm_places_recent_blocks_in_rtile(self, small_lnuca):
        addresses = [0x1000, 0x2000, 0x3000]
        small_lnuca.prewarm(addresses)
        for addr in addresses:
            assert small_lnuca.rtile.array.contains(addr)

    def test_prewarm_preserves_exclusion(self, small_lnuca):
        addresses = [i * 32 for i in range(4000)]
        small_lnuca.prewarm(addresses)
        # Spot-check a sample of blocks for single residency.
        for addr in addresses[::101]:
            assert len(small_lnuca.find_block(addr)) <= 1

    def test_prewarm_spills_into_tiles(self, small_lnuca):
        addresses = [i * 32 for i in range(3000)]  # ~96 KB, larger than the r-tile
        small_lnuca.prewarm(addresses)
        tile_blocks = sum(tile.occupancy() for tile in small_lnuca.tiles.values())
        assert tile_blocks > 0

    def test_prewarm_warms_backside_too(self, small_lnuca):
        small_lnuca.prewarm([0x5000])
        assert small_lnuca.backside.levels[0].array.contains(0x5000)


class TestActivityReporting:
    def test_activity_namespaces(self, small_lnuca):
        small_lnuca.rtile.array.fill(0x100)
        small_lnuca.issue(0x100, AccessType.LOAD, 0)
        miss = small_lnuca.issue(0x9000, AccessType.LOAD, 1)
        small_lnuca.finalize(1)
        assert miss.done
        activity = small_lnuca.activity()
        assert "L1-RT.read_hits" in activity
        assert any(key.startswith("tiles.") for key in activity)

    def test_finalize_drains_everything(self, small_lnuca):
        request = small_lnuca.issue(0x900, AccessType.LOAD, 0)
        small_lnuca.finalize(0)
        assert request.done
        assert not small_lnuca.busy()

    def test_deterministic_given_seed(self):
        def run_once():
            lnuca = make_small_lnuca(3, seed=99)
            lnuca.prewarm([i * 32 for i in range(2000)])
            latencies = []
            cycle = 0
            for i in range(50):
                request = lnuca.issue((i * 7919 * 32) % (1 << 20), AccessType.LOAD, cycle)
                while not request.done or request.complete_cycle > cycle:
                    lnuca.tick(cycle)
                    cycle += 1
                latencies.append(request.latency)
            return latencies

        assert run_once() == run_once()


def _expand(lnuca, frontier, hit=None):
    """Tile-by-tile frontier expansion: every tile fans out to its search
    children, except the first occurrence of the tile that hit."""
    children_of = lnuca.search_net.children_of
    expanded = []
    for coord in frontier:
        if coord == hit:
            hit = None
            continue
        expanded.extend(children_of(coord))
    return tuple(expanded)


class TestFrontierMemo:
    """The search steps read their next frontier from memo tables; those
    must equal the tile-by-tile expansion, step by step, for every hit."""

    def _follow(self, lnuca, block, limit=200):
        """Issue a load for ``block`` and tick densely until its wave retires.

        Returns ``(frontier, decisive cycle)`` at every step the wave
        probes, read just before the tick that probes it.
        """
        lnuca.issue(block, AccessType.LOAD, 0)
        wave = lnuca._waves[0]
        steps = []
        for cycle in range(limit):
            if wave not in lnuca._waves:
                return steps
            if wave.next_cycle == cycle:
                steps.append((wave.frontier, lnuca._wave_decisive_cycle(wave), cycle))
            lnuca.tick(cycle)
        raise AssertionError("search wave never retired")

    @pytest.mark.parametrize("levels", [2, 3, 4])
    def test_tables_equal_tile_by_tile_expansion(self, levels):
        reference = make_small_lnuca(levels)
        canonical = []
        frontier = tuple(reference.search_net.children_of(ROOT))
        while frontier:
            canonical.append(frontier)
            frontier = _expand(reference, frontier)
        assert [level for level, _ in reference._level_frontiers] == canonical

        block = 0x7_0000
        for index, level_frontier in enumerate(canonical):
            for hit in dict.fromkeys(level_frontier):
                lnuca = make_small_lnuca(levels)
                lnuca.tiles[hit].array.fill(block)
                steps = self._follow(lnuca, block)

                # Reference walk: canonical levels up to the hit, then the
                # pruned fan-out down to the leaves.
                expected = list(canonical[: index + 1])
                frontier = _expand(lnuca, canonical[index], hit)
                while frontier:
                    expected.append(frontier)
                    frontier = _expand(lnuca, frontier)
                assert [step[0] for step in steps] == expected, (levels, hit)
                assert all(type(step[0]) is tuple for step in steps)

                # The wave's decisive cycle is unchanged: the hit step while
                # it is still canonical, the last post-hit step afterwards.
                last = steps[-1][2]
                for step_index, (_, decisive, cycle) in enumerate(steps):
                    target = steps[index][2] if step_index <= index else last
                    assert decisive == target, (levels, hit, step_index)

                # What the steps read came from the memo tables.
                post_hit = expected[index + 1:]
                pruned = post_hit[0] if post_hit else ()
                assert lnuca._frontier_pruned[(canonical[index], hit)] == pruned
                for before, after in zip(post_hit, post_hit[1:] + [()]):
                    assert lnuca._frontier_next[before] == after

    def test_catch_up_replays_post_hit_steps_like_dense_ticks(self):
        # A leap over post-hit steps replays them through the memo in
        # _catch_up_waves; the wave and the search accounting must match a
        # twin whose steps ran in dense ticks.  Only LN4 has a post-hit
        # fan-out that outlives one step (a hit at its first level).
        levels = 4
        block = 0x7_0000
        hit = make_small_lnuca(levels)._level_frontiers[0][0][0]
        dense, leap = make_small_lnuca(levels), make_small_lnuca(levels)
        for lnuca in (dense, leap):
            lnuca.tiles[hit].array.fill(block)
            lnuca.issue(block, AccessType.LOAD, 0)
        waves = [dense._waves[0], leap._waves[0]]
        cycle = 0
        while waves[0].level_index is not None:  # tick through the hit step
            dense.tick(cycle)
            leap.tick(cycle)
            cycle += 1
        depth = leap._wave_decisive_cycle(waves[1]) - waves[1].next_cycle
        assert depth >= 1
        for step in range(depth):
            dense._advance_search(cycle + step)
        leap._catch_up_waves(cycle + depth)
        assert waves[1].frontier == waves[0].frontier
        assert waves[1].next_cycle == waves[0].next_cycle == cycle + depth
        assert leap._search_lookups_bulk == dense._search_lookups_bulk
        assert leap.search_net.stats.as_dict() == dense.search_net.stats.as_dict()
