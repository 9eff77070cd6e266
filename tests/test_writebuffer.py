"""Unit tests for the write buffer."""

import random

import pytest

from repro.cache.writebuffer import WriteBuffer
from repro.common.errors import ConfigurationError


class TestCapacity:
    def test_empty_on_creation(self):
        wb = WriteBuffer(4)
        assert wb.is_empty()
        assert wb.can_accept()

    def test_fills_to_capacity(self):
        wb = WriteBuffer(2)
        wb.push(0x100, 0)
        wb.push(0x200, 0)
        assert not wb.can_accept()

    def test_overflow_rejected(self):
        wb = WriteBuffer(1)
        wb.push(0x100, 0)
        with pytest.raises(ConfigurationError):
            wb.push(0x200, 0)

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ConfigurationError):
            WriteBuffer(0)
        with pytest.raises(ConfigurationError):
            WriteBuffer(4, drain_interval=0)

    def test_peak_occupancy_stat(self):
        wb = WriteBuffer(4)
        wb.push(0x100, 0)
        wb.push(0x200, 0)
        wb.drain_one(1)
        assert wb.stats["peak_occupancy"] == 2


class TestCoalescing:
    def test_coalesce_same_block(self):
        wb = WriteBuffer(4)
        wb.coalesce_or_push(0x100, 0)
        merged = wb.coalesce_or_push(0x100, 1)
        assert merged
        assert wb.occupancy == 1

    def test_no_coalesce_different_blocks(self):
        wb = WriteBuffer(4)
        wb.coalesce_or_push(0x100, 0)
        merged = wb.coalesce_or_push(0x200, 1)
        assert not merged
        assert wb.occupancy == 2


class TestDraining:
    def test_fifo_order(self):
        wb = WriteBuffer(4)
        wb.push(0x100, 0)
        wb.push(0x200, 0)
        assert wb.drain_one(1).block_addr == 0x100
        assert wb.drain_one(2).block_addr == 0x200

    def test_drain_empty_returns_none(self):
        wb = WriteBuffer(4)
        assert wb.drain_one(0) is None

    def test_drain_respects_interval(self):
        wb = WriteBuffer(4, drain_interval=3)
        wb.push(0x100, 0)
        wb.push(0x200, 0)
        assert wb.drain_one(0) is not None
        assert wb.drain_one(1) is None
        assert wb.drain_one(2) is None
        assert wb.drain_one(3) is not None

    def test_drain_frees_capacity(self):
        wb = WriteBuffer(1)
        wb.push(0x100, 0)
        wb.drain_one(1)
        assert wb.can_accept()

    def test_reset(self):
        wb = WriteBuffer(2, drain_interval=5)
        wb.push(0x100, 0)
        wb.drain_one(0)
        wb.reset()
        assert wb.is_empty()
        wb.push(0x300, 0)
        assert wb.drain_one(0) is not None


class TestDrainUntil:
    """drain_until must replay the dense per-cycle drain_one schedule."""

    @staticmethod
    def _dense_reference(interval, pushes, limit):
        """Drain with one drain_one call per cycle, the dense schedule."""
        wb = WriteBuffer(64, drain_interval=interval)
        fires = []
        by_cycle = {}
        for addr, cycle in pushes:
            by_cycle.setdefault(cycle, []).append(addr)
        for cycle in range(limit):
            for addr in by_cycle.get(cycle, ()):
                wb.push(addr, cycle)
            entry = wb.drain_one(cycle)
            if entry is not None:
                fires.append((entry.block_addr, cycle))
        return wb, fires

    @pytest.mark.parametrize("interval", [1, 3])
    def test_matches_dense_schedule_and_stats(self, interval):
        pushes = [(0x100, 0), (0x200, 0), (0x300, 2), (0x400, 9)]
        limit = 40
        dense_wb, dense_fires = self._dense_reference(interval, pushes, limit)

        wb = WriteBuffer(64, drain_interval=interval)
        for addr, cycle in pushes:
            wb.push(addr, cycle)
        fires = [(e.block_addr, f) for e, f in wb.drain_until(limit)]

        assert fires == dense_fires
        assert wb.is_empty()
        # Drain-side stats are bit-identical; push-side stats (peak
        # occupancy) differ only because this test pushes everything up
        # front while the reference interleaves, which real callers don't.
        for key in ("writes_drained", "total_queue_cycles"):
            assert wb.stats.get(key) == dense_wb.stats.get(key)

    def test_partial_span_respects_limit(self):
        wb = WriteBuffer(8, drain_interval=4)
        for index in range(4):
            wb.push(0x100 * (index + 1), 0)
        drained = wb.drain_until(9)  # fires at 0, 4, 8 — 12 is past the limit
        assert [fire for _, fire in drained] == [0, 4, 8]
        assert wb.occupancy == 1
        # The remaining entry fires where the dense loop would fire it.
        assert wb.next_fire_cycle() == 12
        assert wb.drain_one(11) is None
        assert wb.drain_one(12) is not None

    def test_entries_never_fire_before_enqueue(self):
        wb = WriteBuffer(8)
        wb.push(0x100, 5)
        assert wb.next_fire_cycle() == 5
        assert wb.drain_until(5) == []
        [(entry, fire)] = wb.drain_until(6)
        assert (entry.block_addr, fire) == (0x100, 5)

    def test_empty_buffer(self):
        wb = WriteBuffer(4)
        assert wb.next_fire_cycle() is None
        assert wb.drain_until(100) == []

    def test_interleaves_with_drain_one(self):
        wb = WriteBuffer(8, drain_interval=2)
        wb.push(0x100, 0)
        wb.push(0x200, 0)
        assert wb.drain_one(0) is not None
        # Port busy until cycle 2; the burst continues the same schedule.
        [(entry, fire)] = wb.drain_until(10)
        assert (entry.block_addr, fire) == (0x200, 2)


class TestConservation:
    """Writes drained == writes posted, under any mix of the buffer's calls.

    Every write the buffer accepts is either drained or still queued; a
    write coalesced into a queued one is neither posted nor drained.
    """

    @pytest.mark.parametrize("interval", [1, 2, 5])
    def test_random_traffic_conserves_writes(self, interval):
        rng = random.Random(interval)
        wb = WriteBuffer(6, drain_interval=interval)
        cycle = 0
        for _ in range(500):
            cycle += rng.randint(0, 3)
            roll = rng.random()
            if roll < 0.5:
                if wb.can_accept():
                    wb.coalesce_or_push(rng.randrange(8) * 64, cycle)
            elif roll < 0.8:
                wb.drain_one(cycle)
            else:
                wb.drain_until(cycle + 1)
            assert wb.stats.get("writes_enqueued") == (
                wb.stats.get("writes_drained") + wb.occupancy
            )
        assert wb.stats.get("writes_coalesced") > 0  # both paths were taken
        wb.drain_until(cycle + 6 * interval + 1)
        assert wb.occupancy == 0
        assert wb.stats.get("writes_enqueued") == wb.stats.get("writes_drained")
