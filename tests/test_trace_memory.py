"""Exact gates on what a trace costs to keep in memory.

Traces are the largest thing a simulating report keeps alive, and their
cost grows with ``--instructions``.  A trace is its packed record section
(``bytes``, which the garbage collector does not track) plus its decoded
columns (lists of interned small ints, address ints and ``array('i')``
producer columns).  So, counted without wall-clock noise:

* synthesizing, decoding, prewarming from and simulating a trace leaves
  no :class:`~repro.cpu.isa.Instruction` object alive;
* a trace plus its decode and resident set adds the same number of
  GC-tracked objects whatever its length.
"""

from __future__ import annotations

import gc

import pytest

from repro.cpu.core import OoOCore
from repro.cpu.isa import Instruction
from repro.experiments.common import conventional_builders
from repro.scenarios import build_trace, scenario
from repro.sim.runner import simulate

#: One scenario-engine family and one legacy-generator workload.
SCENARIOS = ("kv-zipf-hot", "mcf-like")

#: GC-tracked objects a trace, its decode and its resident set may add:
#: the trace, the decode with its list columns and latency memo, and the
#: resident-address list.
MAX_TRACKED_PER_TRACE = 16


def _live_instructions() -> int:
    return sum(1 for obj in gc.get_objects() if type(obj) is Instruction)


def _tracked_objects_added(name: str, num_instructions: int) -> int:
    """GC-tracked objects alive after building, decoding and taking the
    resident set of one trace, with the trace still referenced."""
    gc.collect()
    before = len(gc.get_objects())
    trace = build_trace(scenario(name), num_instructions)
    trace.decoded()
    trace.resident_addresses()
    gc.collect()
    added = len(gc.get_objects()) - before
    del trace
    return added


def test_simulated_traces_leave_no_instruction_objects():
    builder = conventional_builders()["LN3-144KB"]
    before = _live_instructions()
    kept = []
    for name in SCENARIOS:
        trace = build_trace(scenario(name), 2000)
        system = builder.factory()
        system.prewarm(trace.resident_addresses())
        summary = simulate(OoOCore(trace, system), mode="event")
        assert summary["instructions"] == 2000
        kept.append(trace)
    assert _live_instructions() == before


@pytest.mark.parametrize("name", SCENARIOS)
def test_trace_object_count_does_not_grow_with_length(name):
    _tracked_objects_added(name, 500)  # the family's process-wide caches
    short = _tracked_objects_added(name, 2000)
    long = _tracked_objects_added(name, 15000)
    assert short == long, f"{name}: {short} tracked objects at 2,000, {long} at 15,000"
    assert long <= MAX_TRACKED_PER_TRACE
