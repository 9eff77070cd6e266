"""Routing helpers.

Two routing styles appear in the reproduction:

* the D-NUCA mesh uses conventional dimension-order (XY) routing, with
  the helpers below;
* the L-NUCA Transport and Replacement networks use the paper's dynamic
  distributed algorithm, where every tile *randomly* selects one of its
  valid output links — because all outputs lead closer to (or, for
  replacement, farther from) the root tile, any choice is correct, and the
  randomness spreads load better than deterministic XY routing.  Those
  networks pick their outputs themselves (:mod:`repro.core.networks`).
"""

from __future__ import annotations

from typing import List, Tuple

Coordinate = Tuple[int, int]


def manhattan_distance(a: Coordinate, b: Coordinate) -> int:
    """Return the Manhattan (L1) distance between two grid coordinates."""
    return abs(a[0] - b[0]) + abs(a[1] - b[1])


def dimension_order_route(src: Coordinate, dst: Coordinate) -> List[Coordinate]:
    """Return the XY dimension-order path from ``src`` to ``dst`` (exclusive of src).

    The X (column) dimension is traversed first, then Y (row), matching the
    deterministic routing of the D-NUCA 2-D mesh baseline.
    """
    path: List[Coordinate] = []
    x, y = src
    dx, dy = dst
    step_x = 1 if dx > x else -1
    while x != dx:
        x += step_x
        path.append((x, y))
    step_y = 1 if dy > y else -1
    while y != dy:
        y += step_y
        path.append((x, y))
    return path
