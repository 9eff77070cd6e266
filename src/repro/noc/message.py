"""Network messages.

L-NUCA messages are *headerless* (Section III-B of the paper): the
destination is implicit in the network the message travels on, so a message
carries only its payload (the block address plus, conceptually, the data).
The :class:`Message` class still records source, creation cycle and hop
count because the simulator needs them for statistics, but none of those
fields is "transmitted" — link width and buffer sizing only account for the
payload flit.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Tuple


class MessageKind(enum.Enum):
    """The three L-NUCA message classes plus a generic kind for the D-NUCA."""

    SEARCH = "search"
    TRANSPORT = "transport"
    REPLACEMENT = "replacement"
    GENERIC = "generic"


@dataclass(slots=True)
class Message:
    """A single network message (one flit in the L-NUCA networks).

    Attributes:
        kind: which network the message belongs to.
        block_addr: block-aligned address the message refers to.
        created_cycle: cycle the message was injected.
        source: coordinates of the injecting tile (or bank).
        dirty: for transport/replacement messages, whether the carried block
            is dirty.
        hops: number of link traversals so far (updated by the networks).
        flits: message length in flits; L-NUCA links are message-wide so this
            is always 1 there, while D-NUCA data messages span several flits.
    """

    kind: MessageKind
    block_addr: int
    created_cycle: int
    source: Tuple[int, int] = (0, 0)
    dirty: bool = False
    hops: int = 0
    flits: int = 1

    def age(self, cycle: int) -> int:
        """Return how many cycles the message has existed."""
        return cycle - self.created_cycle

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Message({self.kind.value}, 0x{self.block_addr:x}, "
            f"from {self.source}, hops={self.hops})"
        )
