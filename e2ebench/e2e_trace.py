"""Span recorder and layer wrappers for the benchmark's traced run.

The traced run wraps the simulator's public layer boundaries at class or
module level (:func:`install`) before the workload starts, so every call
through a boundary records one span: its name, start, end and parent.
Spans live in flat in-memory arrays while the workload runs and are
written out once at the end (:meth:`Recorder.save`); nothing is
aggregated on the hot path.  A layer's self time is its span time minus
the time of its child spans (:func:`self_times`).

Calls that are too frequent to time and only need counting (hierarchy
``issue`` / ``next_event_cycle``) get a counting wrapper instead, and a
few boundaries also read counters off their result (:data:`TAPS`): each
core's engine counters after ``simulate``, each sweep's
``ExecutionStats`` after ``execute``.  Pool
workers forked after :func:`install` inherit the wrappers but record
nothing: spans inside workers are out of scope, and the recorder switches
itself off in every forked child.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import os
import sys
import time
from array import array
from typing import Callable, Dict, List, Sequence, Tuple

#: ``(module, attribute, span name)``: the layer boundaries the traced run
#: times.  An attribute ``Class.method`` wraps the method on the class; a
#: plain attribute wraps a module-level function everywhere it is bound.
SPANS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.sim.plan", "TraceSource.build", "scenarios.synth"),
    ("repro.scenarios.tracefile", "save_trace", "tracefile.save"),
    ("repro.scenarios.tracefile", "map_trace", "tracefile.load"),
    ("repro.scenarios.tracefile", "load_trace", "tracefile.load"),
    ("repro.scenarios.tracefile", "decode_records", "trace.decode"),
    ("repro.cpu.trace", "DecodedTrace.__init__", "trace.decode"),
    ("repro.sim.plan", "trace_digest", "trace.digest"),
    ("repro.sim.plan", "execute", "plan.execute"),
    ("repro.sim.plan", "ResultCache.get", "plan.result_cache.get"),
    ("repro.sim.plan", "ResultCache.put", "plan.result_cache.put"),
    ("repro.sim.plan", "TracePool.fetch", "plan.trace_pool.fetch"),
    ("repro.sim.plan", "TracePool.ensure", "plan.trace_pool.fetch"),
    ("repro.sim.plan", "SweepJournal.load", "plan.journal"),
    ("repro.sim.plan", "SweepJournal.append", "plan.journal"),
    ("repro.sim.plan", "SweepJournal.delete", "plan.journal"),
    ("repro.sim.plan", "SnapshotStore.get", "plan.snapshot.get"),
    ("repro.sim.plan", "SnapshotStore.put", "plan.snapshot.put"),
    ("repro.sim.schedstore", "restore_schedules", "schedstore.restore"),
    ("repro.sim.schedstore", "publish_schedules", "schedstore.publish"),
    ("repro.sim.schedstore", "publish_pending", "schedstore.publish"),
    ("repro.sim.store", "ResultStore.put", "store.put"),
    ("repro.sim.store", "ResultStore.get", "store.get"),
    ("repro.cache.hierarchy", "ConventionalHierarchy.prewarm", "hier.prewarm"),
    ("repro.core.lnuca", "LightNUCA.prewarm", "hier.prewarm"),
    ("repro.dnuca.system", "DNUCASystem.prewarm", "hier.prewarm"),
    ("repro.sim.runner", "simulate", "runner.simulate"),
    ("repro.cpu.core", "OoOCore.run_batch", "core.run_batch"),
    ("repro.cache.hierarchy", "ConventionalHierarchy.tick", "hier.conv.tick"),
    ("repro.core.lnuca", "LightNUCA.tick", "hier.lnuca.tick"),
    ("repro.dnuca.system", "DNUCASystem.tick", "hier.dnuca.tick"),
    ("repro.cache.hierarchy", "ConventionalHierarchy.finalize", "hier.finalize"),
    ("repro.core.lnuca", "LightNUCA.finalize", "hier.finalize"),
    ("repro.dnuca.system", "DNUCASystem.finalize", "hier.finalize"),
    ("repro.experiments.common", "total_energy_by_system", "energy.total"),
    ("repro.energy.accounting", "EnergyAccountant.evaluate", "energy.evaluate"),
    ("repro.experiments.report", "render_markdown", "report.render"),
    ("repro.experiments.report", "write_csv_files", "report.render"),
)

#: ``(module, attribute, counter name)``: boundaries that are only counted.
COUNTS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.cache.hierarchy", "ConventionalHierarchy.next_event_cycle", "hier.next_event_calls"),
    ("repro.core.lnuca", "LightNUCA.next_event_cycle", "hier.next_event_calls"),
    ("repro.dnuca.system", "DNUCASystem.next_event_cycle", "hier.next_event_calls"),
    ("repro.cache.hierarchy", "ConventionalHierarchy.issue", "hier.issue_calls"),
    ("repro.core.lnuca", "LightNUCA.issue", "hier.issue_calls"),
    ("repro.dnuca.system", "DNUCASystem.issue", "hier.issue_calls"),
)

#: Core counters read off each core after ``runner.simulate`` returns.
CORE_COUNTERS = ("span_hits", "span_bails", "hier_replays", "hier_bails")


class Recorder:
    """Spans in flat arrays (name id, parent index, start, end) plus counters."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_ids = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.stack: List[int] = []
        self.counters: Dict[str, float] = {}
        self.enabled = True

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, name: str) -> int:
        """Open a span explicitly (root and import spans); returns its index."""
        index = len(self.starts)
        self.name_ids.append(self.name_id(name))
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ends.append(0.0)
        self.stack.append(index)
        self.starts.append(time.perf_counter())
        return index

    def end(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self.stack.pop()

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def timed(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped so that every call records one span."""
        nid = self.name_id(name)
        perf = time.perf_counter
        name_ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            index = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(perf())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = perf()
                stack.pop()

        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped so that every call bumps one counter."""
        counters = self.counters
        counters.setdefault(name, 0.0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[name] += 1.0
            return fn(*args, **kwargs)

        return wrapper

    def disable(self) -> None:
        self.enabled = False

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``self_s``, ``total_s`` and ``calls``."""
        selfs = self_times(self.parents, self.starts, self.ends)
        out: Dict[str, Dict[str, float]] = {
            name: {"self_s": 0.0, "total_s": 0.0, "calls": 0} for name in self.names
        }
        for index, nid in enumerate(self.name_ids):
            entry = out[self.names[nid]]
            entry["self_s"] += selfs[index]
            entry["total_s"] += self.ends[index] - self.starts[index]
            entry["calls"] += 1
        return out

    def top_level_calls(self, names: Sequence[str]) -> int:
        """Spans named in ``names`` whose parent is not itself such a span
        (a hierarchy tick that forwards to its backside counts once)."""
        matching = {self._ids[name] for name in names if name in self._ids}
        name_ids, parents = self.name_ids, self.parents
        return sum(
            1
            for index, nid in enumerate(name_ids)
            if nid in matching and (parents[index] < 0 or name_ids[parents[index]] not in matching)
        )

    def save(self, path: str) -> None:
        """Write every span: one JSON header line, then the four raw arrays."""
        header = {
            "names": self.names,
            "spans": len(self.starts),
            "arrays": ["name_ids:i", "parents:i", "starts:d", "ends:d"],
            "byteorder": sys.byteorder,
        }
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for values in (self.name_ids, self.parents, self.starts, self.ends):
                values.tofile(handle)


def load_spans(path: str) -> Tuple[List[str], array, array, array, array]:
    """Read a file written by :meth:`Recorder.save`."""
    with open(path, "rb") as handle:
        header = json.loads(handle.readline())
        count = header["spans"]
        columns = []
        for spec in header["arrays"]:
            values = array(spec.split(":")[1])
            values.fromfile(handle, count)
            columns.append(values)
    return (header["names"], *columns)


def self_times(parents: Sequence[int], starts: Sequence[float], ends: Sequence[float]) -> List[float]:
    """Each span's duration minus the durations of its direct children."""
    selfs = [end - start for start, end in zip(starts, ends)]
    for index, parent in enumerate(parents):
        if parent >= 0:
            selfs[parent] -= ends[index] - starts[index]
    return selfs


def rebind(original: object, replacement: object) -> None:
    """Point every ``repro`` module binding of ``original`` at ``replacement``.

    ``from x import f`` copies the function into the importing module, so a
    module-level wrap has to replace each copy; identity checks between the
    copies (``trace_factory in (None, build_trace)``) keep holding because
    every copy becomes the same wrapper.
    """
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                setattr(module, attribute, replacement)


def _wrap(module_name: str, attribute: str, make: Callable[[Callable], Callable]) -> None:
    module = importlib.import_module(module_name)
    if "." in attribute:
        class_name, method = attribute.split(".")
        owner = getattr(module, class_name)
        setattr(owner, method, make(owner.__dict__[method]))
    else:
        original = getattr(module, attribute)
        rebind(original, make(original))


def _read_simulate(recorder: Recorder, summary: dict, args: tuple) -> None:
    core = args[0]
    recorder.count("runner.sim_cycles", summary["cycles"])
    recorder.count("runner.instructions", summary["instructions"])
    for counter in CORE_COUNTERS:
        recorder.count(f"core.{counter}", getattr(core, counter))


def _read_execute(recorder: Recorder, run, args: tuple) -> None:
    """What each sweep's executor did (its ``ExecutionStats``), as ``plan.*``."""
    for name, value in dataclasses.asdict(run.stats).items():
        recorder.count(f"plan.{name}", value)


def _read_activity(recorder: Recorder, activity: dict, args: tuple) -> None:
    """L-NUCA search lookups, from each job's final ``activity()``."""
    recorder.count("lnuca.search_lookups", activity.get("tiles.search_lookups", 0.0))


#: Span name -> counters read off the call's arguments and result.
TAPS = {"runner.simulate": _read_simulate, "plan.execute": _read_execute}


def _tapped(recorder: Recorder, fn: Callable, read: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        if recorder.enabled:
            read(recorder, result, args)
        return result

    return wrapper


def install(recorder: Recorder) -> None:
    """Wrap every boundary in :data:`SPANS`, :data:`TAPS` and :data:`COUNTS`."""
    def span(fn: Callable, name: str) -> Callable:
        timed = recorder.timed(name, fn)
        return _tapped(recorder, timed, TAPS[name]) if name in TAPS else timed

    for module_name, attribute, name in SPANS:
        _wrap(module_name, attribute, lambda fn, name=name: span(fn, name))
    for module_name, attribute, name in COUNTS:
        _wrap(module_name, attribute, lambda fn, name=name: recorder.counted(name, fn))
    _wrap("repro.core.lnuca", "LightNUCA.activity",
          lambda fn: _tapped(recorder, fn, _read_activity))
    os.register_at_fork(after_in_child=recorder.disable)
