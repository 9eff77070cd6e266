"""Exact, noise-free gates on what building and finishing a hierarchy costs.

Wall-clock timing on a shared box drifts by tens of percent, so the host
cost of a report's 76 hierarchy builds is gated through counters that do
not drift:

* a freshly built system has allocated none of its array sets (sets are
  allocated on their first fill) and adds at most ``MAX_TRACKED_PER_BUILD``
  objects to the garbage collector's heap;
* a finished system sits in no reference cycle, so reference counting
  frees it the moment its job drops it — with the cycle collector off.
"""

from __future__ import annotations

import gc
import pickle
import weakref

import pytest

from repro.cache.hierarchy import ConventionalHierarchy
from repro.core.lnuca import LightNUCA
from repro.cpu.core import OoOCore
from repro.cpu.workloads import generate_trace
from repro.dnuca.system import DNUCASystem
from repro.experiments.common import conventional_builders, dnuca_builders, select_workloads
from repro.sim.runner import simulate

#: Objects a build may add to the GC-tracked heap.  Eagerly allocated sets
#: cost 4.9k (L2-256KB) to 35.5k (LN3+DN-4x8) per build; lazily allocated
#: ones leave 58-871.
MAX_TRACKED_PER_BUILD = 1_000

BUILDERS = {**conventional_builders(), **dnuca_builders()}
GATED = ("L2-256KB", "LN3-144KB", "DN-4x8", "LN3+DN-4x8")


def _arrays(system):
    """Every set-associative array of a report hierarchy."""
    if isinstance(system, LightNUCA):
        yield system.rtile.array
        for tile in system.tiles.values():
            yield tile.array
        yield from _arrays(system.backside)
    elif isinstance(system, ConventionalHierarchy):
        for level in system.levels:
            yield level.array
    elif isinstance(system, DNUCASystem):
        if system.l1 is not None:
            yield system.l1.array
        yield from system.dnuca.banks.values()
    else:  # pragma: no cover - a new system type needs a case here
        raise TypeError(type(system).__name__)


@pytest.mark.parametrize("name", GATED)
def test_fresh_build_allocates_no_sets(name):
    system = BUILDERS[name].factory()
    arrays = list(_arrays(system))
    assert arrays
    for array in arrays:
        assert all(ways is None for ways in array._sets)


@pytest.mark.parametrize("name", GATED)
def test_build_adds_few_tracked_objects(name):
    factory = BUILDERS[name].factory
    factory()  # first build pays one-off imports and interned constants
    gc.collect()
    gc.disable()
    try:
        before = len(gc.get_objects())
        system = factory()
        added = len(gc.get_objects()) - before
    finally:
        gc.enable()
    assert system is not None
    assert added <= MAX_TRACKED_PER_BUILD, f"{name}: {added} tracked objects per build"


@pytest.fixture(scope="module")
def small_trace():
    return generate_trace(select_workloads(1)[0], 2_000)


@pytest.mark.parametrize("name", sorted(BUILDERS))
@pytest.mark.parametrize("clone", [False, True], ids=["fresh", "clone"])
def test_finished_system_freed_without_cycle_collector(name, clone, small_trace):
    system = BUILDERS[name].factory()
    system.prewarm(small_trace.resident_addresses())
    if clone:
        system = pickle.loads(pickle.dumps(system, pickle.HIGHEST_PROTOCOL))
    gc.collect()
    gc.disable()
    try:
        core = OoOCore(small_trace, system)
        simulate(core, mode="event")
        system.activity()
        ref = weakref.ref(system)
        del core, system
        assert ref() is None, f"{name}: finished system kept alive by a reference cycle"
    finally:
        gc.enable()


@pytest.mark.parametrize("name", ["LN3-144KB", "LN4+DN-4x8"])
def test_clone_pickles_no_iterator_state(name, small_trace):
    """Python 3.14 cannot pickle ``itertools`` iterators: a clone holds none."""
    system = BUILDERS[name].factory()
    system.prewarm(small_trace.resident_addresses())
    simulate(OoOCore(small_trace, system), mode="event")
    assert b"itertools" not in pickle.dumps(system, pickle.HIGHEST_PROTOCOL)
