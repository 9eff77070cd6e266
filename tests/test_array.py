"""Unit and property tests for the set-associative array."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.array import SetAssociativeArray
from repro.common.errors import ConfigurationError


def make_array(size=1024, assoc=2, block=32, policy="lru"):
    return SetAssociativeArray(size, assoc, block, policy=policy)


class TestConstruction:
    def test_num_sets(self):
        array = make_array(1024, 2, 32)
        assert array.num_sets == 16

    def test_fully_associative(self):
        array = make_array(1024, 32, 32)
        assert array.num_sets == 1

    def test_rejects_non_power_of_two_block(self):
        with pytest.raises(ConfigurationError):
            make_array(block=48)

    def test_rejects_misaligned_size(self):
        with pytest.raises(ConfigurationError):
            SetAssociativeArray(1000, 2, 32)


class TestLookupAndFill:
    def test_miss_on_empty(self):
        array = make_array()
        assert array.lookup(0x100) is None
        assert not array.contains(0x100)

    def test_hit_after_fill(self):
        array = make_array()
        array.fill(0x100)
        assert array.contains(0x100)
        assert array.lookup(0x100).block_addr == 0x100

    def test_hit_anywhere_in_block(self):
        array = make_array(block=32)
        array.fill(0x100)
        assert array.contains(0x10f)
        assert not array.contains(0x120)

    def test_refill_does_not_duplicate(self):
        array = make_array()
        array.fill(0x100)
        array.fill(0x100)
        assert array.occupancy() == 1

    def test_refill_merges_dirty(self):
        array = make_array()
        array.fill(0x100, dirty=True)
        block, victim = array.fill(0x100, dirty=False)
        assert victim is None
        assert block.dirty

    def test_fill_reports_victim_when_set_full(self):
        array = make_array(size=64, assoc=2, block=32)  # one set, two ways
        array.fill(0x000)
        array.fill(0x100)
        _, victim = array.fill(0x200)
        assert victim is not None
        assert victim.block_addr == 0x000  # LRU victim

    def test_lru_update_on_lookup(self):
        array = make_array(size=64, assoc=2, block=32)
        array.fill(0x000, cycle=0)
        array.fill(0x100, cycle=1)
        array.lookup(0x000, cycle=2)  # touch 0x000 so 0x100 becomes LRU
        _, victim = array.fill(0x200, cycle=3)
        assert victim.block_addr == 0x100

    def test_probe_does_not_disturb_lru(self):
        array = make_array(size=64, assoc=2, block=32)
        array.fill(0x000, cycle=0)
        array.fill(0x100, cycle=1)
        array.lookup(0x000, cycle=2, update_lru=False)
        _, victim = array.fill(0x200, cycle=3)
        assert victim.block_addr == 0x000


class TestInvalidateAndVictims:
    def test_invalidate_removes(self):
        array = make_array()
        array.fill(0x100)
        removed = array.invalidate(0x100)
        assert removed.block_addr == 0x100
        assert not array.contains(0x100)

    def test_invalidate_missing_returns_none(self):
        array = make_array()
        assert array.invalidate(0x500) is None

    def test_needs_victim(self):
        array = make_array(size=64, assoc=2, block=32)
        assert not array.needs_victim(0x0)
        array.fill(0x000)
        array.fill(0x100)
        assert array.needs_victim(0x200)

    def test_fill_into_free_way_has_no_victim(self):
        array = make_array(size=64, assoc=2, block=32)
        array.fill(0x000)
        assert not array.needs_victim(0x100)
        _, victim = array.fill(0x100)
        assert victim is None

    def test_resident_block_needs_no_victim(self):
        array = make_array(size=64, assoc=2, block=32)
        array.fill(0x000)
        array.fill(0x100)
        assert not array.needs_victim(0x000)
        _, victim = array.fill(0x000)
        assert victim is None

    def test_fill_into_full_set_returns_policy_victim(self):
        array = make_array(size=64, assoc=2, block=32)
        array.fill(0x000)
        array.fill(0x100)
        _, victim = array.fill(0x200)
        assert victim.block_addr == 0x000
        assert not array.contains(0x000)

    def test_occupancy_and_len(self):
        array = make_array()
        for i in range(5):
            array.fill(i * 32)
        assert array.occupancy() == 5
        assert len(array) == 5
        assert len(list(array.resident_blocks())) == 5


class TestCapacityInvariants:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=1 << 16), min_size=1, max_size=300))
    def test_occupancy_never_exceeds_capacity(self, addresses):
        array = make_array(size=512, assoc=2, block=32)
        capacity = array.num_sets * array.associativity
        for cycle, addr in enumerate(addresses):
            array.fill(addr, cycle=cycle)
            assert array.occupancy() <= capacity

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=1 << 16), min_size=1, max_size=300))
    def test_most_recent_fill_is_always_resident(self, addresses):
        array = make_array(size=512, assoc=2, block=32)
        for cycle, addr in enumerate(addresses):
            array.fill(addr, cycle=cycle)
            assert array.contains(addr)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=1 << 14), min_size=1, max_size=200),
        st.sampled_from(["lru", "fifo", "plru", "random"]),
    )
    def test_no_duplicate_blocks_any_policy(self, addresses, policy):
        array = make_array(size=256, assoc=4, block=32, policy=policy)
        for cycle, addr in enumerate(addresses):
            array.fill(addr, cycle=cycle)
        blocks = [blk.block_addr for blk in array.resident_blocks()]
        assert len(blocks) == len(set(blocks))

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=1 << 14), min_size=1, max_size=200))
    def test_lookup_after_eviction_misses(self, addresses):
        array = make_array(size=128, assoc=1, block=32)
        filled = set()
        for cycle, addr in enumerate(addresses):
            _, victim = array.fill(addr, cycle=cycle)
            filled.add(array.block_addr_of(addr))
            if victim is not None:
                assert not array.contains(victim.block_addr)


class TestTouchOrFill:
    """touch_or_fill must stay bit-identical to the lookup+fill pair.

    The fused form duplicates lookup()'s inlined hit path for speed (it is
    the functional-warm-up inner loop); this differential test is the
    tripwire that keeps the two copies from drifting — it compares not
    just contents but the replacement state, by checking that both arrays
    subsequently evict the same victims in the same order.
    """

    def _mixed_stream(self, seed):
        import random

        rng = random.Random(seed)
        # Small array so the stream forces evictions and LRU churn.
        stream = [rng.randrange(1 << 14) & ~31 for _ in range(600)]
        return stream

    @pytest.mark.parametrize("seed", [3, 17])
    def test_matches_lookup_fill_pair(self, seed):
        fused = SetAssociativeArray(2048, 4, 32)
        reference = SetAssociativeArray(2048, 4, 32)
        for cycle, addr in enumerate(self._mixed_stream(seed)):
            fused.touch_or_fill(addr, cycle=cycle)
            if reference.lookup(addr, cycle=cycle, update_lru=True) is None:
                reference.fill(addr, cycle=cycle)

        resident_fused = sorted(b.block_addr for b in fused.resident_blocks())
        resident_ref = sorted(b.block_addr for b in reference.resident_blocks())
        assert resident_fused == resident_ref

        # Replacement state must match too: filling a fresh conflicting
        # stream must evict the same victims in the same order.
        import random

        rng = random.Random(seed + 1)
        probe = [rng.randrange(1 << 15) & ~31 for _ in range(200)]
        for cycle, addr in enumerate(probe, start=10_000):
            _, victim_fused = fused.fill(addr, cycle=cycle)
            _, victim_ref = reference.fill(addr, cycle=cycle)
            fused_addr = victim_fused.block_addr if victim_fused else None
            ref_addr = victim_ref.block_addr if victim_ref else None
            assert fused_addr == ref_addr
