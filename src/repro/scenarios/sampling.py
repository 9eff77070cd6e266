"""Batch trace synthesis from declarative models.

The scenario engine describes a workload *declaratively* — a
:class:`TraceModel` is an instruction-class mix, a dependence model, and a
weighted set of address :class:`Region` primitives — and this module turns
that description into a :class:`~repro.cpu.trace.Trace`.

Every uniform comes from one :class:`UniformSource`, a
:class:`random.Random` seeded by the trace key, and is drawn in whole
batches in a fixed order: class codes, then the region, address and
pairing draws of the memory slots, then the dependence draws, then the
branch outcomes.  Every stochastic decision is a deterministic function of
those uniforms, so a model, key and length always give the same trace;
``tests/data/scenario_manifests.json`` pins the sha256 of each catalog
scenario's stream.
"""

from __future__ import annotations

import bisect
import random
from array import array
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Tuple

from repro.common.errors import ConfigurationError
from repro.cpu.isa import InstrClass
from repro.cpu.trace import Trace, pack_records

_LOAD = int(InstrClass.LOAD)
_STORE = int(InstrClass.STORE)
_BRANCH = int(InstrClass.BRANCH)
_FP = int(InstrClass.FP_ALU)


class UniformSource:
    """A stream of float uniforms in ``[0, 1)`` from one seeded
    :class:`random.Random`; ``draw(count)`` returns the next ``count``."""

    def __init__(self, key: str) -> None:
        self._rng = random.Random(key)

    def draw(self, count: int) -> List[float]:
        rand = self._rng.random
        return [rand() for _ in range(count)]


# --------------------------------------------------------------------------- regions
@dataclass(frozen=True, kw_only=True)
class Region:
    """One weighted component of a model's address distribution.

    Attributes:
        weight: relative probability that a memory access falls here.
        transient: mark accesses as outside the resident working set
            (excluded from functional warm-up, like the legacy generator's
            streaming/cold accesses).
    """

    weight: float
    transient: bool = False

    def __post_init__(self) -> None:
        if self.weight <= 0.0:
            raise ConfigurationError("region weight must be positive")


@dataclass(frozen=True, kw_only=True)
class UniformRegion(Region):
    """Uniform random accesses over ``span_bytes`` starting at ``base``."""

    base: int
    span_bytes: int
    align: int = 8

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.span_bytes < self.align or self.align < 1:
            raise ConfigurationError("uniform region smaller than its alignment")


@dataclass(frozen=True, kw_only=True)
class ZipfRegion(Region):
    """Zipf-distributed picks over ``num_items`` records of ``item_bytes``.

    Item ``k`` (0-based) is chosen with probability proportional to
    ``1 / (k + 1) ** exponent`` — the classic key-popularity model of
    key-value serving and power-law graph degrees.
    """

    base: int
    num_items: int
    item_bytes: int = 64
    exponent: float = 0.99

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.num_items < 1 or self.item_bytes < 1:
            raise ConfigurationError("zipf region needs at least one item")


@dataclass(frozen=True, kw_only=True)
class SequentialRegion(Region):
    """A strided sequential walk (streaming) over ``span_bytes``."""

    base: int
    span_bytes: int
    stride: int = 64

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.span_bytes < self.stride or self.stride < 1:
            raise ConfigurationError("sequential region smaller than its stride")

    @property
    def slots(self) -> int:
        return self.span_bytes // self.stride


@dataclass(frozen=True, kw_only=True)
class GridSweepRegion(Region):
    """A row-major sweep over a 2-D grid with stencil tap offsets.

    The n-th access to the region visits cell ``n % (rows * cols)`` and
    adds one *tap* — an offset in elements, e.g. ``±1`` (east/west) or
    ``±cols`` (north/south) — chosen by the taps' relative weights.
    """

    base: int
    rows: int
    cols: int
    elem_bytes: int = 8
    taps: Tuple[Tuple[int, float], ...] = ((0, 1.0),)

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.rows < 1 or self.cols < 1 or self.elem_bytes < 1:
            raise ConfigurationError("grid region needs positive dimensions")
        if not self.taps or any(weight <= 0.0 for _, weight in self.taps):
            raise ConfigurationError("grid taps need positive weights")

    @property
    def cells(self) -> int:
        return self.rows * self.cols


@lru_cache(maxsize=64)
def _zipf_cdf(num_items: int, exponent: float) -> array:
    """Cumulative Zipf distribution; cached because it is O(num_items).

    An ``array('d')`` (8 bytes per item) because the cache keeps it for
    the life of the process.
    """
    weights = [1.0 / float(k + 1) ** exponent for k in range(num_items)]
    total = 0.0
    for w in weights:
        total += w
    running = 0.0
    cdf = array("d")
    for w in weights:
        running += w / total
        cdf.append(running)
    cdf[-1] = 1.0
    return cdf


@lru_cache(maxsize=64)
def _tap_tables(taps: Tuple[Tuple[int, float], ...]) -> Tuple[Tuple[float, ...], Tuple[int, ...]]:
    total = sum(weight for _, weight in taps)
    running = 0.0
    cdf = []
    offsets = []
    for offset, weight in taps:
        running += weight / total
        cdf.append(running)
        offsets.append(offset)
    cdf[-1] = 1.0
    return tuple(cdf), tuple(offsets)


# --------------------------------------------------------------------------- model
@dataclass(frozen=True, kw_only=True)
class TraceModel:
    """Declarative description of a synthetic workload.

    The class mix and dependence knobs mirror the legacy
    :class:`~repro.cpu.workloads.WorkloadSpec` semantics; the address
    behaviour is the weighted :attr:`regions` mixture.  Two knobs are new:

    * ``pointer_chase_fraction`` — loads that depend on the *previous
      load* (serialised misses, low MLP);
    * ``rmw_fraction`` — stores that write back to the previous load's
      address and depend on it (read-modify-write pairs, GUPS style).
    """

    load_fraction: float = 0.25
    store_fraction: float = 0.10
    branch_fraction: float = 0.12
    fp_fraction: float = 0.0
    mispredict_rate: float = 0.05
    dep_density: float = 0.80
    pointer_chase_fraction: float = 0.0
    rmw_fraction: float = 0.0
    fp_latency: int = 4
    regions: Tuple[Region, ...] = ()

    def __post_init__(self) -> None:
        if self.load_fraction + self.store_fraction + self.branch_fraction >= 1.0:
            raise ConfigurationError("load+store+branch fractions must leave room for ALU ops")
        if min(self.load_fraction, self.store_fraction, self.branch_fraction) < 0.0:
            raise ConfigurationError("class fractions must be non-negative")
        for name in ("fp_fraction", "mispredict_rate", "dep_density",
                     "pointer_chase_fraction", "rmw_fraction"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(f"{name} must be within [0, 1]")
        if not self.regions:
            raise ConfigurationError("a trace model needs at least one address region")

    def region_cdf(self) -> Tuple[float, ...]:
        total = sum(region.weight for region in self.regions)
        running = 0.0
        cdf = []
        for region in self.regions:
            running += region.weight / total
            cdf.append(running)
        cdf[-1] = 1.0
        return tuple(cdf)


# --------------------------------------------------------------------------- shared helpers
def _class_thresholds(model: TraceModel) -> Tuple[float, float, float, float]:
    c_load = model.load_fraction
    c_store = c_load + model.store_fraction
    c_branch = c_store + model.branch_fraction
    c_fp = c_branch + (1.0 - c_branch) * model.fp_fraction
    return c_load, c_store, c_branch, c_fp


# --------------------------------------------------------------------------- sampling
def _region_offset(region: Region, u: float, occurrence: int) -> int:
    if isinstance(region, UniformRegion):
        slots = region.span_bytes // region.align
        return int(u * slots) * region.align
    if isinstance(region, ZipfRegion):
        cdf = _zipf_cdf(region.num_items, region.exponent)
        item = min(bisect.bisect_right(cdf, u), region.num_items - 1)
        return item * region.item_bytes
    if isinstance(region, SequentialRegion):
        return (occurrence * region.stride) % (region.slots * region.stride)
    if isinstance(region, GridSweepRegion):
        tap_cdf, tap_offsets = _tap_tables(region.taps)
        tap = tap_offsets[min(bisect.bisect_right(tap_cdf, u), len(tap_offsets) - 1)]
        cell = (occurrence % region.cells + tap) % region.cells
        return cell * region.elem_bytes
    raise ConfigurationError(f"unknown region type {type(region).__name__}")


def _synthesize(model: TraceModel, n: int, source: UniformSource):
    c_load, c_store, c_branch, c_fp = _class_thresholds(model)
    kinds: List[int] = []
    for u in source.draw(n):
        if u < c_load:
            kinds.append(_LOAD)
        elif u < c_store:
            kinds.append(_STORE)
        elif u < c_branch:
            kinds.append(_BRANCH)
        elif u < c_fp:
            kinds.append(_FP)
        else:
            kinds.append(int(InstrClass.INT_ALU))

    mem_idx = [i for i, kind in enumerate(kinds) if kind == _LOAD or kind == _STORE]
    num_mem = len(mem_idx)
    u_region = source.draw(num_mem)
    u_addr = source.draw(num_mem)
    u_pair = source.draw(num_mem)

    region_cdf = model.region_cdf()
    last_region = len(model.regions) - 1
    occurrences = [0] * len(model.regions)

    addrs = [0] * n
    transient = [False] * n
    dep1 = [0] * n
    prev_load_global = -1
    prev_load_addr = 0
    prev_load_transient = False
    for slot, index in enumerate(mem_idx):
        pick = min(bisect.bisect_right(region_cdf, u_region[slot]), last_region)
        region = model.regions[pick]
        addr = region.base + _region_offset(region, u_addr[slot], occurrences[pick])
        occurrences[pick] += 1
        trans = region.transient
        is_load = kinds[index] == _LOAD
        if prev_load_global >= 0:
            if is_load and model.pointer_chase_fraction and u_pair[slot] < model.pointer_chase_fraction:
                dep1[index] = index - prev_load_global
            elif not is_load and model.rmw_fraction and u_pair[slot] < model.rmw_fraction:
                addr = prev_load_addr
                trans = prev_load_transient
                dep1[index] = index - prev_load_global
        addrs[index] = addr
        transient[index] = trans
        if is_load:
            prev_load_global = index
            prev_load_addr = addr
            prev_load_transient = trans

    u_dep1 = source.draw(n)
    u_dist1 = source.draw(n)
    u_dep2 = source.draw(n)
    u_dist2 = source.draw(n)
    dep2 = [0] * n
    dep_density = model.dep_density
    dep2_density = dep_density * 0.4
    for index in range(n):
        if dep1[index] == 0 and u_dep1[index] < dep_density:
            dist = int(u_dist1[index] * 8) + 1
            if dist <= index:
                dep1[index] = dist
        kind = kinds[index]
        if kind != _LOAD and kind != _STORE and u_dep2[index] < dep2_density:
            dist = int(u_dist2[index] * 16) + 1
            if dist <= index:
                dep2[index] = dist

    branch_idx = [i for i, kind in enumerate(kinds) if kind == _BRANCH]
    u_miss = source.draw(len(branch_idx))
    mispredicted = [False] * n
    for slot, index in enumerate(branch_idx):
        mispredicted[index] = u_miss[slot] < model.mispredict_rate

    return kinds, addrs, dep1, dep2, mispredicted, transient


# --------------------------------------------------------------------------- entry point
def synthesize_trace(
    name: str,
    category: str,
    model: TraceModel,
    num_instructions: int,
    key: str,
) -> Trace:
    """Synthesize ``num_instructions`` of ``model`` into a :class:`Trace`.

    ``key`` seeds the uniform stream (any string; the scenario registry
    derives it from the spec seed, run seed, and length exactly like the
    legacy generator).
    """
    if num_instructions < 1:
        raise ConfigurationError("a trace needs at least one instruction")
    kinds, addrs, dep1, dep2, mispredicted, transient = _synthesize(
        model, num_instructions, UniformSource(key)
    )
    fp_latency = model.fp_latency
    latencies = (fp_latency if kind == _FP else 1 for kind in kinds)
    return Trace(name, category, pack_records(
        zip(kinds, addrs, dep1, dep2, latencies, mispredicted, transient)
    ))
