"""Differential fuzz: dense vs. event-driven kernel over random scenarios.

``tests/test_event_kernel.py`` pins the equivalence contract on a fixed
workload set; this suite is the permanent tripwire for the batched-dispatch
/ burst-drain machinery, sweeping *seeded random* scenario-family
parameters across all four hierarchies, warm and cold.  Every case asserts
the full bit-identity contract: cycle counts, IPC, every activity counter
(which feed the energy model) and every core statistic.

The parameter draws are derived deterministically from the case seed, so a
failure reproduces from the test id alone.  A last class reruns draws over
one shared trace decode, the way a sweep runs every hierarchy on it.
"""

from __future__ import annotations

import random

import pytest

from repro.cache.hierarchy import ConventionalHierarchy
from repro.cache.request import MemoryRequest
from repro.core.lnuca import LightNUCA
from repro.dnuca.system import DNUCASystem
from repro.scenarios import ScenarioSpec, build_trace
from repro.sim.configs import (
    build_conventional_hierarchy,
    build_dnuca_hierarchy,
    build_lnuca_dnuca_hierarchy,
    build_lnuca_l3_hierarchy,
)
from repro.sim.runner import run_workload

_N = 1200

SYSTEMS = {
    "conventional": build_conventional_hierarchy,
    "lnuca+l3": lambda: build_lnuca_l3_hierarchy(3),
    "dnuca": build_dnuca_hierarchy,
    "lnuca+dnuca": lambda: build_lnuca_dnuca_hierarchy(2),
}

#: Family name -> parameter-space sampler.  Ranges deliberately cover both
#: cache-friendly and cache-busting regimes so the fuzz exercises deep
#: skip spans (long misses) as well as instruction-bound batching.
FAMILY_SAMPLERS = {
    "zipf-kv": lambda rng: {
        "num_keys": rng.choice([512, 4096, 32768]),
        "skew": round(rng.uniform(0.5, 1.2), 2),
        "update_fraction": round(rng.uniform(0.05, 0.6), 2),
        "meta_kb": rng.choice([8.0, 24.0, 64.0]),
    },
    "graph-chase": lambda rng: {
        "num_vertices": rng.choice([4_000, 120_000]),
        "hub_exponent": round(rng.uniform(0.5, 1.1), 2),
        "chase_fraction": round(rng.uniform(0.3, 0.9), 2),
        "work_kb": rng.choice([8.0, 48.0]),
    },
    "stencil": lambda rng: {
        "rows": rng.choice([64, 288]),
        "cols": rng.choice([128, 512]),
        "fp_fraction": round(rng.uniform(0.3, 0.7), 2),
        "center_weight": round(rng.uniform(0.25, 0.6), 2),
    },
    "gups": lambda rng: {
        "table_mb": rng.choice([1, 16, 48]),
        "update_fraction": round(rng.uniform(0.5, 0.95), 2),
        "table_weight": round(rng.uniform(0.6, 0.95), 2),
    },
    # Pure-ALU-dominant draws: long runs without memory operations keep
    # run_batch's busy spans long and the memory system's declared events
    # sparse (warm and cold, all four hierarchies).
    "compute-kernel": lambda rng: {
        "load_fraction": round(rng.uniform(0.0, 0.03), 4),
        "store_fraction": round(rng.uniform(0.0, 0.01), 4),
        "branch_fraction": round(rng.uniform(0.005, 0.05), 4),
        "fp_fraction": round(rng.uniform(0.0, 0.6), 2),
        "dep_density": round(rng.uniform(0.0, 0.5), 2),
        "mispredict_rate": round(rng.uniform(0.0, 0.02), 4),
        "buffer_kb": rng.choice([8.0, 24.0, 64.0]),
    },
    # Alternating ALU/memory bursts: every phase boundary flips between
    # instruction-bound batching and memory-bound skipping, with
    # hierarchy state still in flight across the switch.
    "phase-mix": lambda rng: {
        "phases": (
            {"family": "compute-kernel",
             "params": {"dep_density": round(rng.uniform(0.0, 0.4), 2)}},
            {"family": "gups", "params": {"table_mb": rng.choice([1, 8])}},
        ),
        "phase_length": rng.choice([96, 160, 384]),
    },
    "column-scan": lambda rng: {
        "num_columns": rng.choice([1, 4, 8]),
        "column_mb": rng.choice([2.0, 8.0]),
        "group_keys": rng.choice([512, 4096]),
        "group_skew": round(rng.uniform(0.2, 1.1), 2),
        "mispredict_rate": round(rng.uniform(0.0, 0.08), 3),
    },
}

#: (family, case seed) pairs: every family fuzzed with two distinct draws.
CASES = [
    (family, seed)
    for family in sorted(FAMILY_SAMPLERS)
    for seed in (11, 29)
]


def _fuzz_spec(family: str, seed: int) -> ScenarioSpec:
    # str hashes are salted per process; use a stable digest so every case
    # reproduces from its test id alone.
    family_digest = sum(ord(ch) * 31**i for i, ch in enumerate(family)) % 65_536
    rng = random.Random(seed * 1_000_003 + family_digest)
    params = FAMILY_SAMPLERS[family](rng)
    return ScenarioSpec(
        name=f"fuzz-{family}-{seed}",
        family=family,
        category="fuzz",
        params=params,
        seed=seed,
    )


def _timed_caches(system):
    """Every :class:`~repro.cache.cache.TimedCache` level of a hierarchy."""
    if isinstance(system, LightNUCA):
        return [system.rtile, *_timed_caches(system.backside)]
    if isinstance(system, ConventionalHierarchy):
        return list(system.levels)
    if isinstance(system, DNUCASystem):
        return [] if system.l1 is None else [system.l1]
    raise TypeError(type(system).__name__)


def _track_mshr_peaks(system) -> dict:
    """Record each MSHR file's peak occupancy over the run."""
    peaks: dict = {}
    for cache in _timed_caches(system):
        mshr = cache.mshr
        allocate = mshr.allocate

        def tracked(block_addr, cycle, mshr=mshr, allocate=allocate):
            entry = allocate(block_addr, cycle)
            peaks[mshr.name] = max(peaks.get(mshr.name, 0), mshr.occupancy)
            return entry

        mshr.allocate = tracked
    return peaks


def _track_core_requests(system) -> list:
    """Record every request the core issues into ``system``."""
    issued = []
    issue = system.issue

    def recorded(addr, access, cycle):
        request = issue(addr, access, cycle)
        issued.append(request)
        return request

    system.issue = recorded
    return issued


def _assert_each_request_completes_once(issued: list, completions: dict, context: str) -> None:
    """Every core-issued request was completed exactly once and is done."""
    for request in issued:
        calls = completions.get(id(request), (request, 0))[1]
        assert calls == 1, f"{context}: {request!r} completed {calls} times"
        assert request.done, f"{context}: {request!r} not done at finalize"


def _assert_model_invariants(system, mshr_peaks: dict, context: str) -> None:
    """Conservation and exclusion invariants of the model itself.

    Checked on a finalized run.  Dense and event runs share the model, so
    dense==event cannot catch a bug in it; these checks can.
    """
    for cache in _timed_caches(system):
        stats = cache.stats
        for kind in ("read", "write"):
            assert stats[f"{kind}_accesses"] == (
                stats[f"{kind}_hits"] + stats[f"{kind}_misses"]
            ), f"{context}: {cache.name} {kind} accesses != hits + misses"
        mshr = cache.mshr
        assert mshr_peaks.get(mshr.name, 0) <= mshr.num_entries, f"{context}: {mshr.name}"
        assert mshr.occupancy <= mshr.num_entries, f"{context}: {mshr.name}"
        buffer = cache.write_buffer
        assert buffer.stats.get("peak_occupancy") <= buffer.num_entries, (
            f"{context}: {buffer.name} overflowed"
        )
        assert buffer.occupancy <= buffer.num_entries, f"{context}: {buffer.name}"
        # Writes drained == writes posted: every enqueued write is either
        # drained or still queued, and finalize leaves none queued.
        assert buffer.stats.get("writes_enqueued") == (
            buffer.stats.get("writes_drained") + buffer.occupancy
        ), f"{context}: {buffer.name} lost or invented writes"
        assert buffer.occupancy == 0, f"{context}: {buffer.name} not drained at finalize"
    if not isinstance(system, LightNUCA):
        return
    rebuilt = {
        block.block_addr: coord
        for coord, tile in system.tiles.items()
        for block in tile.array.resident_blocks()
    }
    assert system._tile_contents == rebuilt, f"{context}: tile content map out of date"
    in_transit = {
        message.block_addr: coord
        for coord, tile in system.tiles.items()
        for buffer in tile.u_in.values()
        for message in buffer
    }
    assert system._u_contents == in_transit, f"{context}: U-buffer content map out of date"
    blocks = set(rebuilt)
    blocks.update(block.block_addr for block in system.rtile.array.resident_blocks())
    for block_addr in blocks:
        holders = system.find_block(block_addr)
        assert len(holders) <= 1, f"{context}: 0x{block_addr:x} held by {holders}"


def _run_checked(system: str, spec, trace, mode: str, prewarm: bool = True):
    """``run_workload`` on a fresh ``system``, then its model invariants."""
    built = []

    def builder():
        hierarchy = SYSTEMS[system]()
        built.append((hierarchy, _track_mshr_peaks(hierarchy), _track_core_requests(hierarchy)))
        return hierarchy

    # Completions of every request, core-issued or internal, keyed by id():
    # each entry keeps its request alive, so a request the hierarchy drops
    # cannot free its id for a later core request to reuse.
    completions: dict = {}
    complete = MemoryRequest.complete

    def counted(request, cycle, level):
        entry = completions.setdefault(id(request), [request, 0])
        entry[1] += 1
        complete(request, cycle, level)

    MemoryRequest.complete = counted
    try:
        result = run_workload(builder, spec, _N, trace=trace, prewarm=prewarm, mode=mode)
    finally:
        MemoryRequest.complete = complete
    hierarchy, peaks, issued = built[0]
    context = f"{system}/{spec.name} ({mode})"
    _assert_model_invariants(hierarchy, peaks, context)
    assert issued, f"{context}: the core issued no request"
    _assert_each_request_completes_once(issued, completions, context)
    return result


def _assert_identical(dense, event, context: str) -> None:
    assert dense.cycles == event.cycles, f"{context}: cycle count diverged"
    assert dense.ipc == event.ipc, f"{context}: IPC diverged"
    assert dense.instructions == event.instructions, context
    assert dense.activity == event.activity, f"{context}: activity counters diverged"
    assert dense.core_stats == event.core_stats, f"{context}: core stats diverged"


class TestDenseEventFuzz:
    @pytest.mark.parametrize("system", sorted(SYSTEMS))
    @pytest.mark.parametrize("family,seed", CASES)
    def test_warm_fuzzed_scenarios_bit_identical(self, system, family, seed):
        spec = _fuzz_spec(family, seed)
        trace = build_trace(spec, _N)
        dense = _run_checked(system, spec, trace, "dense")
        event = _run_checked(system, spec, trace, "event")
        _assert_identical(dense, event, f"{system}/{family}#{seed} (warm)")

    @pytest.mark.parametrize("system", sorted(SYSTEMS))
    @pytest.mark.parametrize("family", ["graph-chase", "gups", "compute-kernel", "phase-mix"])
    def test_cold_fuzzed_scenarios_bit_identical(self, system, family):
        # Cold runs maximise long idle spans — the deepest skips the
        # batched kernel takes — on the two most memory-hostile families,
        # plus the pure-ALU and alternating ALU/memory draws, where cold
        # misses interleave memory stalls with long batched busy spans.
        spec = _fuzz_spec(family, 47)
        trace = build_trace(spec, _N)
        dense = _run_checked(system, spec, trace, "dense", prewarm=False)
        event = _run_checked(system, spec, trace, "event", prewarm=False)
        _assert_identical(dense, event, f"{system}/{family} (cold)")

    #: Targeted draws for two extreme memory regimes, pinned (not
    #: sampled) so they cannot drift out of the regime: a low-skew
    #: zipf-kv whose tiny hot set turns warm runs into long L1 hit
    #: streaks (back-to-back hits, write buffers coalescing), and a
    #: giant-table gups whose cold misses keep the MSHR files saturated
    #: (secondary merges, full-file stalls, lazy releases).
    TARGETED = {
        "hit-streak-heavy": (
            "zipf-kv",
            {"num_keys": 256, "skew": 0.1, "update_fraction": 0.1, "meta_kb": 8.0},
            True,
        ),
        "mshr-saturating": (
            "gups",
            {"table_mb": 48, "update_fraction": 0.9, "table_weight": 0.95},
            False,
        ),
    }

    @pytest.mark.parametrize("system", sorted(SYSTEMS))
    @pytest.mark.parametrize("regime", sorted(TARGETED))
    def test_targeted_hier_regimes_bit_identical(self, system, regime):
        family, params, prewarm = self.TARGETED[regime]
        spec = ScenarioSpec(
            name=f"targeted-{regime}",
            family=family,
            category="fuzz",
            params=params,
            seed=71,
        )
        trace = build_trace(spec, _N)
        dense = _run_checked(system, spec, trace, "dense", prewarm=prewarm)
        event = _run_checked(system, spec, trace, "event", prewarm=prewarm)
        _assert_identical(dense, event, f"{system}/{regime}")


class TestDecodedTraceReuseFuzz:
    """A decoded trace shared across runs carries no state between them.

    Sweeps decode each trace once and run every hierarchy on it: the plan
    layer memoizes traces per process, and each pool worker caches the
    traces it has decoded.  Each draw runs dense, then event twice on that
    same trace object, then event on a freshly generated copy with a
    fresh decode, and asserts all of them bit-identical.
    """

    @pytest.mark.parametrize("system", sorted(SYSTEMS))
    @pytest.mark.parametrize("family", ["compute-kernel", "phase-mix"])
    def test_reused_decode_bit_identical(self, system, family):
        spec = _fuzz_spec(family, 83)
        shared = build_trace(spec, _N)
        dense = _run_checked(system, spec, shared, "dense")
        for run in ("first", "second"):
            event = _run_checked(system, spec, shared, "event")
            _assert_identical(dense, event, f"{system}/{family} ({run} shared-decode run)")
        fresh = build_trace(spec, _N)
        assert fresh is not shared
        event = _run_checked(system, spec, fresh, "event")
        _assert_identical(dense, event, f"{system}/{family} (fresh decode)")
