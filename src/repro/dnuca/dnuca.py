"""Banked Dynamic NUCA cache.

The D-NUCA is organised as ``rows x sparse_sets`` banks connected by a 2-D
mesh with a single injection point at the cache controller (bottom edge,
centre column).  A block maps to one *bankset* (column) through its sparse
set bits and may live in any row of that column; hits migrate the block one
row closer to the controller (generational promotion) and new blocks are
inserted in the farthest row, so frequently used blocks gravitate towards
the low-latency banks — the behaviour the L-NUCA competes with.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.cache.array import SetAssociativeArray
from repro.cache.block import CacheBlock
from repro.common.errors import ConfigurationError
from repro.noc.mesh import Mesh2D
from repro.sim.stats import Stats

Coordinate = Tuple[int, int]


@dataclass
class DNUCAConfig:
    """D-NUCA design point (defaults follow Table I's DN-4x8)."""

    bank_size_bytes: int = 256 * 1024
    bank_associativity: int = 2
    block_size: int = 128
    rows: int = 4
    sparse_sets: int = 8
    bank_completion_cycles: int = 3
    bank_initiation_cycles: int = 3
    #: Extra router pipeline cycles per hop on top of the link traversal.
    #: Table I's 1-cycle routing latency is the whole hop (link + router),
    #: so the default adds nothing on top of the link cycle.
    router_latency: int = 0
    link_width_bytes: int = 32
    read_energy_pj: float = 131.2
    write_energy_pj: float = 131.2
    leakage_mw_per_bank: float = 33.5
    promotion: bool = True
    insertion_row: str = "tail"  # "tail" (farthest) or "head" (closest)

    def __post_init__(self) -> None:
        if self.rows < 1 or self.sparse_sets < 1:
            raise ConfigurationError("D-NUCA needs at least one row and one bankset")
        if self.insertion_row not in ("tail", "head"):
            raise ConfigurationError(f"unknown insertion policy {self.insertion_row!r}")

    @property
    def num_banks(self) -> int:
        return self.rows * self.sparse_sets

    @property
    def total_size_bytes(self) -> int:
        return self.num_banks * self.bank_size_bytes

    @property
    def data_flits(self) -> int:
        """Flits of a data message (one header flit plus the block payload)."""
        return 1 + (self.block_size + self.link_width_bytes - 1) // self.link_width_bytes

    @property
    def name(self) -> str:
        return f"DN-{self.rows}x{self.sparse_sets}"


@dataclass
class DNUCAAccessResult:
    """Outcome of one D-NUCA access (returned to the wrapping system)."""

    hit: bool
    ready_cycle: int
    row: Optional[int] = None
    bank: Optional[Coordinate] = None
    evicted_dirty_blocks: List[int] = field(default_factory=list)


class DNUCACache:
    """The banked D-NUCA storage plus its mesh timing model."""

    def __init__(self, config: DNUCAConfig | None = None, name: str = "DNUCA") -> None:
        self.config = config or DNUCAConfig()
        self.name = name
        cfg = self.config
        # Row 0 of the mesh hosts the controller; banks occupy rows 1..rows.
        self.mesh = Mesh2D(
            rows=cfg.rows + 1,
            cols=cfg.sparse_sets,
            router_latency=cfg.router_latency,
            link_width_bytes=cfg.link_width_bytes,
            name=f"{name}.mesh",
        )
        self.entry: Coordinate = (cfg.sparse_sets // 2, 0)
        self.banks: Dict[Coordinate, SetAssociativeArray] = {}
        self._bank_port_free: Dict[Coordinate, int] = {}
        for column in range(cfg.sparse_sets):
            for row in range(cfg.rows):
                coord = (column, row + 1)
                self.banks[coord] = SetAssociativeArray(
                    cfg.bank_size_bytes, cfg.bank_associativity, cfg.block_size
                )
                self._bank_port_free[coord] = 0
        #: Per-bankset ``(coord, bank)`` rows, closest row first: the
        #: per-access bankset walk indexes these instead of rebuilding
        #: coordinates and probing ``banks`` row by row.
        self._bankset_rows: List[List[Tuple[Coordinate, SetAssociativeArray]]] = [
            [(coord, self.banks[coord]) for coord in self.banks_of_set(column)]
            for column in range(cfg.sparse_sets)
        ]
        self._block_mask = ~(cfg.block_size - 1)
        self.stats = Stats(name)

    # ------------------------------------------------------------------ mapping
    def bankset_of(self, addr: int) -> int:
        """Column (bankset) the block maps to via its sparse-set bits."""
        return (addr // self.config.block_size) % self.config.sparse_sets

    def bank_coord(self, column: int, row: int) -> Coordinate:
        """Mesh coordinate of the bank at ``row`` (0 = closest) of ``column``."""
        return (column, row + 1)

    def banks_of_set(self, column: int) -> List[Coordinate]:
        """Bank coordinates of a bankset ordered from closest to farthest."""
        return [self.bank_coord(column, row) for row in range(self.config.rows)]

    def block_addr(self, addr: int) -> int:
        return addr & self._block_mask

    # ------------------------------------------------------------------ timing helpers
    def min_hit_latency(self, row: int, column: Optional[int] = None) -> int:
        """Contention-free latency of a hit in ``row`` of ``column``."""
        column = self.entry[0] if column is None else column
        coord = self.bank_coord(column, row)
        request = self.mesh.min_latency(self.entry, coord, flits=1)
        reply = self.mesh.min_latency(coord, self.entry, flits=self.config.data_flits)
        return request + self.config.bank_completion_cycles + reply

    # ------------------------------------------------------------------ access
    def access(self, addr: int, cycle: int, is_write: bool = False) -> DNUCAAccessResult:
        """Look the block up in its bankset, promoting it on a hit.

        The request is multicast to every bank of the bankset; each bank
        performs a tag lookup when the request reaches it, and the hit bank
        (if any) returns the data message to the controller.  A miss is
        known once the farthest bank has responded.
        """
        cfg = self.config
        block = addr & self._block_mask
        column = self.bankset_of(addr)
        counters = self.stats._counters
        counters["write_accesses" if is_write else "read_accesses"] += 1.0

        transfer = self.mesh.transfer
        entry = self.entry
        port_free = self._bank_port_free
        initiation = cfg.bank_initiation_cycles
        completion = cfg.bank_completion_cycles
        hit_row: Optional[int] = None
        hit_ready = 0
        miss_known = cycle
        for row, (coord, bank) in enumerate(self._bankset_rows[column]):
            arrival = transfer(entry, coord, cycle, 1)
            # The bank's port is busy for the initiation interval.
            free = port_free[coord]
            start = arrival if arrival >= free else free
            port_free[coord] = start + initiation
            lookup_done = start + completion
            resident = bank.lookup(block, lookup_done, True)
            if lookup_done > miss_known:
                miss_known = lookup_done
            if resident is not None and hit_row is None:
                hit_row = row
                if is_write:
                    resident.dirty = True
                hit_ready = transfer(coord, entry, lookup_done, cfg.data_flits)
        counters["bank_lookups"] += float(cfg.rows)

        if hit_row is not None:
            counters["hits"] += 1.0
            counters[f"hits_row{hit_row}"] += 1.0
            evicted = self._promote(block, column, hit_row, hit_ready)
            return DNUCAAccessResult(
                hit=True,
                ready_cycle=hit_ready,
                row=hit_row,
                bank=self.bank_coord(column, hit_row),
                evicted_dirty_blocks=evicted,
            )

        counters["misses"] += 1.0
        return DNUCAAccessResult(hit=False, ready_cycle=miss_known)

    def fill(self, addr: int, cycle: int, dirty: bool = False) -> List[int]:
        """Insert a block arriving from memory and return dirty victims."""
        cfg = self.config
        block = self.block_addr(addr)
        column = self.bankset_of(addr)
        row = cfg.rows - 1 if cfg.insertion_row == "tail" else 0
        coord = self.bank_coord(column, row)
        arrival = self.mesh.transfer(self.entry, coord, cycle, flits=cfg.data_flits)
        self.stats.incr("fills")
        _, victim = self.banks[coord].fill(block, cycle=arrival)
        dirty_victims: List[int] = []
        if victim is not None:
            self.stats.incr("evictions")
            if victim.dirty:
                self.stats.incr("dirty_evictions")
                dirty_victims.append(victim.block_addr)
        return dirty_victims

    def _promote(self, block: int, column: int, row: int, cycle: int) -> List[int]:
        """Swap a hit block one row closer to the controller (generational promotion)."""
        if not self.config.promotion or row == 0:
            return []
        closer = self.bank_coord(column, row - 1)
        current = self.bank_coord(column, row)
        self.stats.incr("promotions")
        # The swap moves two data messages between adjacent banks.
        self.mesh.transfer(current, closer, cycle, flits=self.config.data_flits)
        self.mesh.transfer(closer, current, cycle, flits=self.config.data_flits)
        moving = self.banks[current].invalidate(block)
        dirty = moving.dirty if moving is not None else False
        _, displaced = self.banks[closer].fill(block, cycle=cycle, dirty=dirty)
        dirty_victims: List[int] = []
        if displaced is not None:
            # The displaced block is demoted into the row the hit came from.
            _, second_victim = self.banks[current].fill(
                displaced.block_addr, cycle=cycle, dirty=displaced.dirty
            )
            if second_victim is not None and second_victim.dirty:
                dirty_victims.append(second_victim.block_addr)
        return dirty_victims

    def promote_functional(
        self, addr: int, row_of: Optional[Dict[int, int]] = None
    ) -> Optional[int]:
        """Move the block one row closer without any timing (warm-up helper).

        Returns the new row, or ``None`` when the block is not resident.
        Used by :meth:`repro.dnuca.system.DNUCASystem.prewarm` to reproduce
        the migration state a long warm-up run would have produced.
        ``row_of`` maps every block resident in the banks to its row (see
        :meth:`resident_rows`; built here when not given), and this call
        keeps it current, so a stream of calls can share one map.
        """
        if row_of is None:
            row_of = self.resident_rows()
        block = self.block_addr(addr)
        row = row_of.get(block)
        if row is None:
            return None
        rows = self._bankset_rows[self.bankset_of(block)]
        bank = rows[row][1]
        if not self.config.promotion or row == 0:
            bank.lookup(block, update_lru=True)
            return row
        closer = rows[row - 1][1]
        moving = bank.invalidate(block)
        dirty = moving.dirty if moving is not None else False
        _, displaced = closer.fill(block, dirty=dirty)
        if displaced is not None:
            # Same set geometry in every bank: the displaced block takes
            # the way the promoted one freed, so this fill never evicts.
            bank.fill(displaced.block_addr, dirty=displaced.dirty)
            row_of[displaced.block_addr] = row
        row_of[block] = row - 1
        return row - 1

    def resident_rows(self) -> Dict[int, int]:
        """Map every block resident in the banks to its row (0 = closest)."""
        row_of: Dict[int, int] = {}
        for rows in self._bankset_rows:
            # Closest row last: a block found in two rows maps to the
            # closer one, as a closest-first probe would find it.
            for row in range(len(rows) - 1, -1, -1):
                for blk in rows[row][1].resident_blocks():
                    row_of[blk.block_addr] = row
        return row_of

    # ------------------------------------------------------------------ queries
    def contains(self, addr: int) -> Optional[Coordinate]:
        """Return the bank currently holding ``addr`` (None on a miss)."""
        block = self.block_addr(addr)
        for coord, bank in self._bankset_rows[self.bankset_of(addr)]:
            if bank.contains(block):
                return coord
        return None

    def row_of(self, addr: int) -> Optional[int]:
        """Return the row (0 = closest) currently holding ``addr``."""
        coord = self.contains(addr)
        return None if coord is None else coord[1] - 1

    def occupancy(self) -> int:
        return sum(bank.occupancy() for bank in self.banks.values())

    def activity(self) -> Dict[str, float]:
        merged = {f"{self.name}.{k}": v for k, v in self.stats.as_dict().items()}
        for key, value in self.mesh.stats.as_dict().items():
            merged[f"{self.name}.mesh.{key}"] = value
        return merged

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DNUCACache({self.config.name})"
