"""Cache block (line) metadata."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(slots=True)
class CacheBlock:
    """Metadata of one cache block resident in a set-associative array.

    Only metadata is modelled; the simulator never stores payload bytes.

    Attributes:
        tag: the address bits above the set index.
        block_addr: the full block-aligned address (kept for convenience so
            victims can be written back without reconstructing the address
            from tag and set index).
        valid: whether the block holds data.
        dirty: whether the block has been written since it was filled
            (relevant for copy-back caches and L-NUCA tiles).
        last_touch: cycle of the last access, used by replacement policies
            and by the L-NUCA replacement network to keep blocks ordered by
            temporal locality.
        fill_cycle: cycle at which the block was filled.
    """

    tag: int
    block_addr: int
    valid: bool = True
    dirty: bool = False
    last_touch: int = 0
    fill_cycle: int = 0

    def touch(self, cycle: int) -> None:
        """Record an access at ``cycle``."""
        self.last_touch = cycle

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flags = ("D" if self.dirty else "-") + ("V" if self.valid else "-")
        return f"CacheBlock(0x{self.block_addr:x}, {flags})"
