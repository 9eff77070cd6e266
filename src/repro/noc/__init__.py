"""Network-on-chip building blocks.

Messages and two-entry store-and-forward buffers with On/Off
back-pressure are shared by the L-NUCA tiles and networks
(:mod:`repro.core.tile`, :mod:`repro.core.networks`), which keep their own
ports and link counters.  The D-NUCA 2-D mesh (:mod:`repro.noc.mesh`) is an
occupancy model over dimension-order routes (:mod:`repro.noc.routing`).
"""

from repro.noc.buffer import FlowControlBuffer
from repro.noc.message import Message, MessageKind
from repro.noc.mesh import Mesh2D
from repro.noc.routing import dimension_order_route, manhattan_distance

__all__ = [
    "FlowControlBuffer",
    "Mesh2D",
    "Message",
    "MessageKind",
    "dimension_order_route",
    "manhattan_distance",
]
