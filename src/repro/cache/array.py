"""Set-associative tag/data array.

This is the storage structure shared by every cache in the simulator: the
conventional L1/L2/L3, the D-NUCA banks, and the L-NUCA tiles.  It models
only metadata (tags, valid/dirty bits, recency) — payload bytes are never
stored because the experiments only need timing, energy, and hit/miss
behaviour.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.cache.block import CacheBlock
from repro.cache.replacement import LRUPolicy, ReplacementPolicy, make_policy
from repro.common.addr import block_address, is_power_of_two
from repro.common.errors import ConfigurationError

#: Tag map of every set that has never been filled.  Shared and never
#: written: :meth:`SetAssociativeArray.fill` gives a set its own map when
#: it allocates the set's ways.
_NO_TAGS: Dict[int, int] = {}


class SetAssociativeArray:
    """A set-associative array of cache blocks.

    Args:
        size_bytes: total capacity in bytes.
        associativity: number of ways per set.
        block_size: block (line) size in bytes.
        policy: replacement policy name or instance (default LRU).
    """

    __slots__ = (
        "size_bytes",
        "associativity",
        "block_size",
        "num_sets",
        "policy",
        "_sets",
        "_tag_to_way",
        "_block_shift",
        "_set_mask",
        "_set_shift",
        "_lru_stamps",
        "on_change",
    )

    def __init__(
        self,
        size_bytes: int,
        associativity: int,
        block_size: int,
        policy: str | ReplacementPolicy = "lru",
        policy_seed: int = 0,
    ) -> None:
        if not is_power_of_two(block_size):
            raise ConfigurationError("block size must be a power of two")
        if size_bytes % (associativity * block_size) != 0:
            raise ConfigurationError(
                "cache size must be a multiple of associativity * block_size"
            )
        self.size_bytes = size_bytes
        self.associativity = associativity
        self.block_size = block_size
        self.num_sets = size_bytes // (associativity * block_size)
        if self.num_sets < 1:
            raise ConfigurationError("cache must contain at least one set")
        if isinstance(policy, ReplacementPolicy):
            self.policy = policy
        else:
            self.policy = make_policy(policy, associativity, seed=policy_seed)
        # Sets are allocated on their first fill: a set that never held a
        # block is ``None`` here, and its tag map is the shared read-only
        # ``_NO_TAGS``.  An 8 MB D-NUCA is 32,768 sets, most of which a
        # short run never touches, so eager per-set lists and dicts were
        # the bulk of a hierarchy build and of the garbage collector's work.
        self._sets: List[Optional[List[Optional[CacheBlock]]]] = [None] * self.num_sets
        # Per-set tag -> way index, so lookups are a dict probe instead of a
        # scan over the ways.  ``_sets`` stays the source of truth; the index
        # is maintained by fill/invalidate.
        self._tag_to_way: List[Dict[int, int]] = [_NO_TAGS] * self.num_sets
        # Precomputed address math (block size is always a power of two; the
        # set count usually is, in which case masking beats modulo).
        self._block_shift = block_size.bit_length() - 1
        if is_power_of_two(self.num_sets):
            self._set_mask: Optional[int] = self.num_sets - 1
            self._set_shift = self.num_sets.bit_length() - 1
        else:
            self._set_mask = None
            self._set_shift = 0
        # Direct handle on the LRU stamp table for the inlined touch path
        # (None for every other policy, which goes through the interface).
        self._lru_stamps = (
            self.policy._stamps if type(self.policy) is LRUPolicy else None
        )
        #: Optional membership observer: called as ``on_change(block_addr,
        #: present)`` whenever a block enters (``True``) or leaves
        #: (``False``) the array — refreshes of an already resident block
        #: do not fire.  The L-NUCA keeps its search content map current
        #: through this hook, so *every* mutation path (timed model,
        #: functional prewarm, tests poking arrays directly) is covered.
        self.on_change = None

    # -- address helpers -----------------------------------------------------------
    def _index(self, addr: int) -> Tuple[int, int]:
        """Return ``(set index, tag)`` for ``addr`` (hot-path helper)."""
        line = addr >> self._block_shift
        mask = self._set_mask
        if mask is not None:
            return line & mask, line >> self._set_shift
        return line % self.num_sets, line // self.num_sets

    def set_of(self, addr: int) -> int:
        """Return the set index that ``addr`` maps to."""
        return self._index(addr)[0]

    def tag_of(self, addr: int) -> int:
        """Return the tag of ``addr``."""
        return self._index(addr)[1]

    def block_addr_of(self, addr: int) -> int:
        """Return the block-aligned address containing ``addr``."""
        return block_address(addr, self.block_size)

    # -- lookups -------------------------------------------------------------------
    def lookup(self, addr: int, cycle: int = 0, update_lru: bool = True) -> Optional[CacheBlock]:
        """Return the resident block for ``addr`` or ``None`` on a miss.

        Args:
            addr: byte address (any address within the block).
            cycle: current cycle, recorded as the block's last touch.
            update_lru: whether the access should update replacement state
                (probes used for statistics or search snooping pass False).
        """
        # Inlined _index(): this is the hottest function in the simulator
        # (every cache level, tile and bank funnels through it).
        line = addr >> self._block_shift
        mask = self._set_mask
        if mask is not None:
            idx = line & mask
            tag = line >> self._set_shift
        else:
            idx = line % self.num_sets
            tag = line // self.num_sets
        way = self._tag_to_way[idx].get(tag)
        if way is None:
            return None
        blk = self._sets[idx][way]
        if blk is None or not blk.valid:
            return None
        if update_lru:
            blk.last_touch = cycle
            stamps = self._lru_stamps
            if stamps is not None:
                # Inlined LRUPolicy.on_access (the default policy); the rare
                # fresh-set case defers to the policy so the initial-stamp
                # scheme lives in exactly one place.
                policy = self.policy
                row = stamps.get(idx)
                if row is None:
                    row = policy._stamp_list(idx)
                policy._clock += 1
                row[way] = policy._clock
            else:
                self.policy.on_access(idx, way, cycle)
        return blk

    def contains(self, addr: int) -> bool:
        """Return True if the block containing ``addr`` is resident."""
        return self.lookup(addr, update_lru=False) is not None

    def touch_or_fill(self, addr: int, cycle: int = 0) -> None:
        """LRU-touch the resident block for ``addr``, or fill it on a miss.

        Bit-identical to ``lookup(addr, cycle, update_lru=True)`` followed
        by ``fill(addr, cycle)`` on a miss, with the address decomposed
        once.  This is the functional warm-up inner loop: prewarm replays
        whole address streams through every level, so the fused form saves
        one call and one index computation per touched address.
        """
        line = addr >> self._block_shift
        mask = self._set_mask
        if mask is not None:
            idx = line & mask
            tag = line >> self._set_shift
        else:
            idx = line % self.num_sets
            tag = line // self.num_sets
        way = self._tag_to_way[idx].get(tag)
        if way is not None:
            blk = self._sets[idx][way]
            if blk is not None and blk.valid:
                blk.last_touch = cycle
                stamps = self._lru_stamps
                if stamps is not None:
                    policy = self.policy
                    row = stamps.get(idx)
                    if row is None:
                        row = policy._stamp_list(idx)
                    policy._clock += 1
                    row[way] = policy._clock
                else:
                    self.policy.on_access(idx, way, cycle)
                return
        self.fill(addr, cycle=cycle)

    # -- fills and evictions ---------------------------------------------------------
    def fill(
        self, addr: int, cycle: int = 0, dirty: bool = False
    ) -> Tuple[CacheBlock, Optional[CacheBlock]]:
        """Insert the block containing ``addr``, evicting a victim if needed.

        Returns:
            ``(inserted, victim)`` where ``victim`` is the evicted
            :class:`CacheBlock` or ``None`` when an empty way was available
            (or the block was already resident, which only refreshes it).
        """
        # Inlined _index(): fills are the second-hottest array path (every
        # prewarm touch and every runtime fill funnels through here).
        line = addr >> self._block_shift
        mask = self._set_mask
        if mask is not None:
            idx = line & mask
            tag = line >> self._set_shift
        else:
            idx = line % self.num_sets
            tag = line // self.num_sets
        ways = self._sets[idx]
        stamps = self._lru_stamps
        victim: Optional[CacheBlock] = None
        if ways is None:
            # First fill of this set: allocate its ways and tag map.
            ways = self._sets[idx] = [None] * self.associativity
            tags = self._tag_to_way[idx] = {}
            target_way = 0
        else:
            tags = self._tag_to_way[idx]
            # Re-fill of an already resident block just refreshes it.
            resident_way = tags.get(tag)
            if resident_way is not None:
                blk = ways[resident_way]
                if blk is not None and blk.valid:
                    blk.last_touch = cycle
                    blk.dirty = blk.dirty or dirty
                    if stamps is not None:
                        policy = self.policy
                        row = stamps.get(idx)
                        if row is None:
                            row = policy._stamp_list(idx)
                        policy._clock += 1
                        row[resident_way] = policy._clock
                    else:
                        self.policy.on_access(idx, resident_way, cycle)
                    return blk, None
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

        new_block = CacheBlock(tag, line << self._block_shift, True, dirty, cycle, cycle)
        ways[target_way] = new_block
        tags[tag] = target_way
        if stamps is not None:
            # Inlined LRUPolicy.on_fill, as in lookup().
            policy = self.policy
            row = stamps.get(idx)
            if row is None:
                row = policy._stamp_list(idx)
            policy._clock += 1
            row[target_way] = policy._clock
        else:
            self.policy.on_fill(idx, target_way, cycle)
        observer = self.on_change
        if observer is not None:
            if victim is not None:
                observer(victim.block_addr, False)
            observer(new_block.block_addr, True)
        return new_block, victim

    def invalidate(self, addr: int) -> Optional[CacheBlock]:
        """Remove the block containing ``addr`` and return it (or ``None``)."""
        idx, tag = self._index(addr)
        way = self._tag_to_way[idx].get(tag)
        if way is None:
            return None
        blk = self._sets[idx][way]
        if blk is None or not blk.valid:
            del self._tag_to_way[idx][tag]
            return None
        self._sets[idx][way] = None
        del self._tag_to_way[idx][tag]
        self.policy.on_invalidate(idx, way)
        observer = self.on_change
        if observer is not None:
            observer(blk.block_addr, False)
        return blk

    def needs_victim(self, addr: int) -> bool:
        """True when filling ``addr`` would evict: its set is full and does
        not already hold the block."""
        line = addr >> self._block_shift
        mask = self._set_mask
        if mask is not None:
            idx = line & mask
            tag = line >> self._set_shift
        else:
            idx = line % self.num_sets
            tag = line // self.num_sets
        ways = self._sets[idx]
        if ways is None:
            return False
        way = self._tag_to_way[idx].get(tag)
        if way is not None:
            blk = ways[way]
            if blk is not None and blk.valid:
                return False
        for blk in ways:
            if blk is None or not blk.valid:
                return False
        return True

    # -- introspection -----------------------------------------------------------
    def occupancy(self) -> int:
        """Return the number of valid blocks currently resident."""
        return sum(
            1
            for ways in self._sets
            if ways is not None
            for blk in ways
            if blk is not None and blk.valid
        )

    def resident_blocks(self) -> Iterator[CacheBlock]:
        """Yield every valid resident block (order unspecified)."""
        for ways in self._sets:
            if ways is None:
                continue
            for blk in ways:
                if blk is not None and blk.valid:
                    yield blk

    def ways_of_set(self, idx: int) -> List[Optional[CacheBlock]]:
        """Return the ways of set ``idx`` (shared references, for tests)."""
        ways = self._sets[idx]
        if ways is None:
            return [None] * self.associativity
        return list(ways)

    def __len__(self) -> int:
        return self.occupancy()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SetAssociativeArray({self.size_bytes}B, {self.associativity}-way, "
            f"{self.block_size}B blocks, {self.occupancy()}/{self.num_sets * self.associativity} valid)"
        )
