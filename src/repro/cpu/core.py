"""Cycle-level out-of-order core model.

The model reproduces the Table I core: 4-wide fetch/commit, a 128-entry
reorder buffer, separate integer/floating-point/memory issue windows (32 /
24 / 16 entries), a 64-entry load-store queue, a 48-entry store buffer, an
issue bandwidth of 4 integer-or-memory plus 4 floating-point operations per
cycle, and an 8-cycle branch misprediction redirect.

It is a *timing* model, not a functional one: instructions come from a
pre-generated trace, dependences are explicit distances, and the only
interaction with the outside world is issuing loads and stores into a
:class:`~repro.sim.memsys.MemorySystem`.  Scheduling is event-driven
(producers wake their consumers when their completion time becomes known),
which keeps the per-cycle work proportional to the activity rather than to
the ROB size.

Cycle semantics
===============

:meth:`OoOCore.tick` advances the core by exactly one cycle and may be
driven in two ways:

* **dense** — :meth:`OoOCore.run` (and the ``mode="dense"`` scheduler in
  :mod:`repro.sim.runner`) calls ``tick`` for every cycle;
* **event-driven** — the shared scheduler asks :meth:`OoOCore.next_wakeup`
  for the earliest cycle at which ``tick`` could change state *or bump a
  statistics counter*, skips straight to the minimum of that and the
  memory system's ``next_event_cycle``, and calls
  :meth:`OoOCore.note_skipped_cycles` so the per-cycle stall counters
  (fetch/ROB/window/LSQ stalls) match what dense ticking would have
  recorded for the skipped no-op span.

``next_wakeup`` must never be later than a real event: it returns
``cycle + 1`` whenever the front end could fetch, any store is waiting to
enter the memory system, or a ready instruction is at the head of an issue
window — skipping is only legal across provably inert spans (all in-flight
completions in the future, fetch stalled or structurally blocked).  The
two modes therefore produce bit-identical cycle counts, IPC and counters;
``tests/test_event_kernel.py`` and the differential fuzz suite in
``tests/test_event_kernel_fuzz.py`` enforce this across all four
hierarchies.

Instruction-bound spans — runs of cycles in which the core does work every
cycle — are not skipped but *batched*: :meth:`OoOCore.run_batch` executes
the whole busy span in one Python-level pass (stage methods bound once,
the memory system ticked only at its declared events, the trace decoded
into flat arrays up front) instead of paying one scheduler round-trip per
cycle.  Batching is dense-equivalent by construction: it runs real ticks,
so it never has to predict the span length to stay bit-identical.
"""

from __future__ import annotations

import os
from bisect import bisect_left
from collections import deque
from heapq import heappop, heappush
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

from repro.cache.request import AccessType, MemoryRequest
from repro.common.errors import SimulationError
from repro.cpu.isa import InstrClass
from repro.cpu.trace import ISSUE_LOAD, ISSUE_MISPREDICT, ISSUE_SIMPLE, Trace
from repro.sim.memsys import MemorySystem
from repro.sim.stats import Stats

#: Issue-window indices (integer / floating-point / memory).  Windows are
#: plain list indices so the per-instruction window bookkeeping is a list
#: probe rather than a string-keyed dict lookup.
_INT = 0
_FP = 1
_MEM = 2

#: The one InstrClass value the hot paths still compare against directly
#: (commit's store handling); everything else dispatches through the
#: decode's precomputed issue classes.
_KIND_STORE = int(InstrClass.STORE)

#: Span-engine activation floors, in fetch groups.  The *build* floor gates
#: the top-of-attempt entry checks: below it the O(rob) seeding / signature
#: cost of even probing the memo outweighs ticking the window densely.  The
#: *replay* floor gates every downstream truncation (residency pre-pass,
#: pass-1/pass-3 shrinkage): once an attempt is underway, committing a
#: truncated prefix is sound at any length (prefix stability, see the pass
#: docstrings) and a memoized schedule replays in O(exit state) — so short
#: truncated windows are built once, memoized, and thereafter replayed from
#: the per-trace memo (or the on-disk schedule store,
#: :mod:`repro.sim.schedstore`).  Keeping the replay floor at 1 is what
#: lets short hit streaks (e.g. fig4's 1.7–8.75-access runs) engage at all.
_SPAN_MIN_GROUPS_BUILD = 3
_SPAN_MIN_GROUPS_REPLAY = 1

#: Hierarchy-engine window bound, in fetch groups.  Memory-inclusive spans
#: are bounded by the next *hard* breaker (mispredicted branch), which on
#: low-misprediction traces can be thousands of instructions away; the cap
#: keeps a single attempt's pass arrays small and bounds the residency
#: probe pre-pass.
_HIER_MAX_GROUPS = 256

#: Distinguishes "no memo entry" from a memoized abandonment (``None``).
_MEMO_MISS = object()

#: The span-schedule memo is bounded: one trace accumulates at most this
#: many (entry state -> schedule) records before the memo is reset.
_SPAN_MEMO_CAP = 16384


@dataclass
class CoreConfig:
    """Out-of-order core parameters (defaults follow Table I)."""

    fetch_width: int = 4
    commit_width: int = 4
    int_mem_issue_width: int = 4
    fp_issue_width: int = 4
    rob_size: int = 128
    lsq_size: int = 64
    int_window: int = 32
    fp_window: int = 24
    mem_window: int = 16
    store_buffer_size: int = 48
    branch_mispredict_penalty: int = 8
    int_latency: int = 1
    fp_latency: int = 4
    branch_latency: int = 1
    store_agen_latency: int = 1




class OoOCore:
    """Trace-driven out-of-order core attached to a memory system."""

    def __init__(
        self,
        trace: Trace,
        memsys: MemorySystem,
        config: Optional[CoreConfig] = None,
    ) -> None:
        self.trace = trace
        self.memsys = memsys
        self.config = config or CoreConfig()
        self.stats = Stats(f"core[{trace.name}]")

        # Column-oriented decode of the trace (cached on the trace and
        # shared across the runs of a sweep): every hot-path instruction
        # probe is a plain list index instead of attribute + enum dispatch.
        decoded = trace.decoded()
        self._kinds = decoded.kind
        self._addrs = decoded.addr
        self._dep1s = decoded.dep1
        self._dep2s = decoded.dep2
        self._prod1s = decoded.prod1
        self._prod2s = decoded.prod2
        self._latencies = decoded.latency
        self._mispredicted = decoded.mispredicted
        self._windows = decoded.window
        self._is_mem = decoded.is_mem
        self._issue_class = decoded.issue_class

        self.cycle = 0
        self.committed = 0
        self._next_fetch = 0
        self._rob: Deque[int] = deque()
        # Per-instruction scheduling state, indexed by dynamic instruction
        # number (flat lists: the keys are dense 0..n-1, so list probes beat
        # dict hashing in the per-instruction hot paths).
        trace_len = len(trace.instructions)
        self._complete_cycle: List[Optional[int]] = [None] * trace_len
        self._unresolved: List[int] = [0] * trace_len
        self._pending_ready: List[int] = [0] * trace_len
        self._waiters: List[Optional[List[int]]] = [None] * trace_len
        self._ready: List[List[Tuple[int, int]]] = [[], [], []]
        self._window_count: List[int] = [0, 0, 0]
        self._window_limit: List[int] = [
            self.config.int_window,
            self.config.fp_window,
            self.config.mem_window,
        ]
        #: Flags maintained by the per-cycle stages for run_batch: whether
        #: the last tick changed any state ("progress") and whether it
        #: issued into the memory system ("touched", which invalidates the
        #: cached next-event cycle).
        self._progress = False
        self._mem_touched = False
        self._lsq_count = 0
        self._outstanding_loads: List[Tuple[int, MemoryRequest]] = []
        self._store_buffer: List[MemoryRequest] = []
        self._pending_stores: Deque[int] = deque()
        self._fetch_stall_until = 0
        self._unresolved_branch: Optional[int] = None
        # Hot-loop bindings: these run per instruction, where the repeated
        # config attribute chases are measurable.
        cfg = self.config
        self._trace_len = len(trace.instructions)
        self._fetch_width = cfg.fetch_width
        self._commit_width = cfg.commit_width
        self._int_mem_issue_width = cfg.int_mem_issue_width
        self._fp_issue_width = cfg.fp_issue_width
        self._rob_size = cfg.rob_size
        self._lsq_size = cfg.lsq_size
        self._store_buffer_size = cfg.store_buffer_size
        self._mispredict_penalty = cfg.branch_mispredict_penalty
        self._int_latency = cfg.int_latency
        self._fp_latency = cfg.fp_latency
        self._branch_latency = cfg.branch_latency
        self._store_agen_latency = cfg.store_agen_latency
        # Issue-to-completion latency resolved per instruction against this
        # config (cached on the decode, shared by every run of a sweep).
        self._issue_lat = decoded.issue_latencies(
            cfg.int_latency, cfg.fp_latency, cfg.branch_latency, cfg.store_agen_latency
        )
        # Span-batched fast path (event mode only): fast-forward pure-ALU
        # spans analytically.  ``REPRO_NO_SPAN_BATCH=1`` force-disables it,
        # keeping the per-cycle reference path alive (used by a CI leg).
        self._span_enabled = os.environ.get("REPRO_NO_SPAN_BATCH", "") in ("", "0")
        if self._span_enabled:
            span_index = decoded.span_index()
            self._next_break = span_index.next_break
            self._span_max_dep = span_index.max_dep
            self._span_memo = decoded.span_memo
            #: Everything configuration-side the span schedule depends on;
            #: part of every memo key so configs never share schedules.
            self._span_cfg_key = (
                cfg.fetch_width, cfg.commit_width, cfg.int_mem_issue_width,
                cfg.fp_issue_width, cfg.rob_size, cfg.int_window, cfg.fp_window,
                cfg.int_latency, cfg.fp_latency, cfg.branch_latency,
                cfg.store_agen_latency,
            )
            # Memory-inclusive span engine: fast-forwards steady-state
            # hit/post sequences through an analyzable hierarchy window
            # (see _run_span_mem).  ``REPRO_NO_HIER_BATCH=1`` disables just
            # this engine, leaving the pure-ALU engine alive; the classic
            # ``REPRO_NO_SPAN_BATCH=1`` switch disables both.
            self._hier_enabled = os.environ.get("REPRO_NO_HIER_BATCH", "") in ("", "0")
            self._next_hard_break = span_index.next_hard_break
            self._mem_indices = span_index.mem_indices
            self._hier_memo = decoded.hier_memo
            #: Core-side configuration the memory-inclusive schedule
            #: additionally depends on; the hierarchy side contributes its
            #: own ``cfg_tag`` to every memo key.
            self._hier_cfg_key = (
                self._span_cfg_key, cfg.mem_window, cfg.lsq_size,
                cfg.store_buffer_size,
            )
        else:
            self._next_break = None
            self._hier_enabled = False
        #: After an abandoned attempt, suppress re-attempts for a few
        #: cycles: most abandonments are entry transients (a completed
        #: breaker's announce storm over-subscribing issue bandwidth, a
        #: briefly full ROB) that dense ticking drains quickly, and
        #: immediate retries would pay the O(pipeline) seeding cost every
        #: cycle.  The cooldown doubles on consecutive failures within
        #: the same span so a structurally stalling span stops attracting
        #: attempts.
        self._span_cooldown_until = -1
        self._span_cooldown = 4
        self._span_fail_fetch = -1
        #: Independent cooldown state for the memory-inclusive engine (its
        #: windows and failure modes differ from the pure-ALU engine's).
        self._hier_cooldown_until = -1
        self._hier_cooldown = 4
        #: Diagnostics (not statistics — identical results either way):
        #: how many spans the analytic engine fast-forwarded vs abandoned.
        self.span_hits = 0
        self.span_bails = 0
        #: Same, for the memory-inclusive engine, plus its engagement
        #: depth: cycles fast-forwarded and schedules replayed from the
        #: memo (these feed the sweep executor's engagement counters).
        self.hier_ff_cycles = 0
        self.hier_replays = 0
        self.hier_bails = 0

    # ------------------------------------------------------------------ run loop
    def finished(self) -> bool:
        """True when every instruction has committed and all stores drained."""
        return (
            self._next_fetch >= self._trace_len
            and not self._rob
            and not self._pending_stores
            and not self._store_buffer
        )

    def run(self, max_cycles: Optional[int] = None) -> Dict[str, float]:
        """Simulate densely until the trace completes and return statistics.

        This is the lock-step reference loop (one ``tick`` per cycle for
        core and memory system); the experiment harness goes through
        :func:`repro.sim.runner.simulate` instead, which can also skip idle
        cycles via :meth:`next_wakeup` / ``memsys.next_event_cycle`` with
        bit-identical results.
        """
        limit = max_cycles or (len(self.trace) * 400 + 100_000)
        while not self.finished():
            if self.cycle > limit:
                raise self.limit_exceeded(limit)
            self.tick(self.cycle)
            self.memsys.tick(self.cycle)
            self.cycle += 1
        self.memsys.finalize(self.cycle)
        return self.summary()

    def limit_exceeded(self, limit: int) -> SimulationError:
        """The deadlock-guard error, shared verbatim by every scheduler mode.

        Both the dense and the event-driven loop in
        :func:`repro.sim.runner.simulate` (and :meth:`run`) raise exactly
        this error when the run would simulate a cycle beyond ``limit``, so
        a wedged run aborts identically no matter which mode exposed it.
        """
        return SimulationError(
            f"core did not finish within {limit} cycles "
            f"({self.committed}/{len(self.trace)} committed)"
        )

    def summary(self) -> Dict[str, float]:
        """Return IPC and the main activity counters of the finished run."""
        cycles = max(1, self.cycle)
        return {
            "cycles": float(cycles),
            "instructions": float(self.committed),
            "ipc": self.committed / cycles,
            "loads": self.stats.get("loads_issued"),
            "stores": self.stats.get("stores_committed"),
            "branch_mispredictions": self.stats.get("branch_mispredictions"),
        }

    @property
    def ipc(self) -> float:
        return self.committed / max(1, self.cycle)

    # ------------------------------------------------------------------ per-cycle
    def tick(self, cycle: int) -> None:
        if self._outstanding_loads or self._store_buffer or self._pending_stores:
            self._harvest_memory(cycle)
        if self._rob:
            self._commit(cycle)
        ready = self._ready
        if ready[_MEM] or ready[_INT] or ready[_FP]:
            self._issue(cycle)
        self._fetch(cycle)

    # ------------------------------------------------------------------ batching
    def run_batch(self, cycle: int, limit: int) -> int:
        """Run dense-equivalent ticks from ``cycle`` while the core progresses.

        This is the event scheduler's instruction-bound fast path: instead
        of paying one scheduler round-trip (tick dispatch, wakeup
        recomputation, unconditional memory-system tick) per cycle, the
        whole busy span runs in one Python-level pass with the stage
        methods bound once.  Two refinements over plain dense stepping:

        * the memory system is only ticked on cycles it declares through
          :meth:`~repro.sim.memsys.MemorySystem.next_event_cycle` (or after
          this core issued into it, which can create new events) — skipped
          ticks are provable no-ops under the event contract;
        * the batch ends after the first tick that made no progress (no
          fetch, commit, issue or completion), handing control back to the
          scheduler, which computes the real skip via :meth:`next_wakeup`.
          A no-progress tick is still dense-correct — it bumps exactly the
          stall counters a dense run would — so batching never has to
          predict span lengths in advance to stay bit-identical.

        Ticks the cycles ``[cycle, last]``, leaves ``self.cycle`` at
        ``last + 1`` (dense semantics) and returns ``last``.  Raises the
        shared :meth:`limit_exceeded` error before simulating any cycle
        beyond ``limit``.

        When nothing memory-side is in flight and a pure-ALU span is
        ahead, the loop hands the whole span to the analytic engine
        (:meth:`_run_span`) instead of ticking it, clamped to the memory
        system's next declared event so the hierarchy still observes its
        exact dense tick cycles.
        """
        memsys = self.memsys
        mem_tick = memsys.tick
        mem_next_of = memsys.next_event_cycle
        mem_next = mem_next_of(cycle - 1)
        harvest = self._harvest_memory
        commit = self._commit
        issue_from = self._issue_from
        fetch = self._fetch
        ready = self._ready
        ready_int, ready_fp, ready_mem = ready
        rob = self._rob
        pending_stores = self._pending_stores
        trace_len = self._trace_len
        int_mem_width = self._int_mem_issue_width
        fp_width = self._fp_issue_width
        span_on = self._span_enabled
        hier_on = span_on and self._hier_enabled
        while True:
            if cycle > limit:
                self.cycle = cycle
                raise self.limit_exceeded(limit)
            if (
                span_on
                and self._unresolved_branch is None
                and self._fetch_stall_until <= cycle
                and not pending_stores
                and not self._store_buffer
                and not self._outstanding_loads
                and self._next_fetch < trace_len
            ):
                cap = limit + 1
                if mem_next is not None and mem_next < cap:
                    cap = mem_next
                if hier_on:
                    # The memory-inclusive engine prices L1 hits itself, so
                    # un-issued loads/stores in the pipeline (lsq_count > 0)
                    # are admissible seeds; only in-flight *misses* (the
                    # outstanding/pending/store-buffer gates above) are not.
                    advanced = self._run_span_mem(cycle, cap)
                    if advanced is not None:
                        # The window issued into the memory system; refresh
                        # the cached next-event cycle like any issuing tick.
                        cycle = advanced
                        mem_next = mem_next_of(cycle - 1)
                        continue
                if self._lsq_count == 0:
                    advanced = self._run_span(cycle, cap)
                    if advanced is not None:
                        cycle = advanced
                        continue
            self._progress = False
            self._mem_touched = False
            # Inlined tick(cycle), including _issue's bandwidth split:
            if self._outstanding_loads or self._store_buffer or pending_stores:
                harvest(cycle)
            if rob:
                commit(cycle)
            if ready_mem or ready_int or ready_fp:
                int_mem_budget = int_mem_width
                if ready_mem:
                    int_mem_budget -= issue_from(_MEM, cycle, int_mem_budget)
                if ready_int and int_mem_budget > 0:
                    issue_from(_INT, cycle, int_mem_budget)
                if ready_fp:
                    issue_from(_FP, cycle, fp_width)
            fetch(cycle)
            if self._mem_touched or (mem_next is not None and mem_next <= cycle):
                mem_tick(cycle)
                mem_next = mem_next_of(cycle)
            if not self._progress or (
                self._next_fetch >= trace_len
                and not rob
                and not pending_stores
                and not self._store_buffer
            ):
                break
            cycle += 1
        self.cycle = cycle + 1
        return cycle

    # ------------------------------------------------------------------ span engine
    def _run_span(self, cycle: int, cap: int) -> Optional[int]:
        """Fast-forward a pure-ALU span analytically; return the new cycle.

        Preconditions (checked by the caller's gate in :meth:`run_batch`):
        nothing memory-side is in flight (``lsq_count == 0``, no
        outstanding loads, store buffer and pending-store queue empty — so
        the reorder buffer holds no stores and every in-flight load has
        completed), the front end is not redirecting, and the instructions
        from the fetch point up to the next *breaker* (memory operation or
        mispredicted branch, per the trace's cached
        :class:`~repro.cpu.trace.SpanIndex`) are plain ALU work.  Under
        those conditions the whole span schedules as a pure function of
        the trace columns and the entry state, so instead of ticking
        cycle by cycle the engine computes the schedule in three passes —
        all *pure*, mutating nothing until the span is proven stall-free:

        1. **issue pass** (program order): each instruction's ready cycle
           is the max of its fetch cycle + 1 and its producers'
           completions (optimistically ``issue == ready``); per-cycle
           issue counts are tallied, and the first cycle that
           over-subscribes the integer or FP issue bandwidth *truncates*
           the window right before it — from there the heap's
           (ready, idx) priority order would start deferring
           instructions, which only the per-cycle path models;
        2. **commit pass**: in-order commit cycles via the closed form
           ``c_k = max(complete_k, c_{k-1}, c_{k-cw} + 1)`` (``cw`` =
           commit width), seeded with ``cycle - 1`` for pre-span commits
           (exact: the engine's first commit cannot precede the entry
           cycle);
        3. **validation sweep** (chronological): replays the per-cycle
           occupancy arithmetic — commits leaving the ROB, issues leaving
           the windows, fetch groups entering both — and truncates the
           window at the first cycle where dense fetch would have stalled
           (window full, ROB full), since a stall both perturbs timing
           and bumps a stall counter that only the per-cycle path
           accounts.

        Truncation is sound because the optimistic schedule is *prefix
        stable*: an instruction issued before the truncation point cannot
        depend on anything at or after it (a consumer's issue is never
        earlier than its producers' completions), so reclassifying the
        tail as not-yet-issued leaves the surviving prefix exactly equal
        to what dense ticking computes.

        On success the core state is rewritten wholesale to exactly the
        state a dense run would hold at the top of the returned cycle:
        committed count, ROB contents, completion times, ready heaps
        (rebuilt; heap *layout* may differ but pop order — the only
        observable — is identical), waiter lists, pending-ready /
        unresolved entries and window occupancy.  No statistics change:
        a validated span has no stalls, no memory activity and no
        mispredictions, so a dense run of the same cycles would not
        touch a single counter.

        ``cap`` bounds the window (deadlock-guard ``limit + 1``, clamped
        by the caller to the memory system's next declared event so the
        hierarchy still gets its ticks at exactly the dense cycles).
        Returns ``None`` when the fast path does not apply or bailed.
        """
        if cycle < self._span_cooldown_until:
            return None
        s = self._next_fetch
        fw = self._fetch_width
        groups = (self._next_break[s] - s) // fw
        max_groups = cap - cycle
        if groups > max_groups:
            groups = max_groups
        if groups < _SPAN_MIN_GROUPS_BUILD:
            return None
        rob = self._rob
        n_seed = len(rob)
        if groups * fw < n_seed:
            # Window smaller than the pipeline to seed: the O(rob) setup
            # would cost more than ticking the window outright.
            return None
        ready = self._ready
        heap = ready[_INT]
        if len(heap) > self._int_mem_issue_width and heap[0][0] <= cycle:
            # A due backlog wider than the issue bandwidth: dense drains it
            # over several cycles in (ready, idx) priority order, which the
            # optimistic schedule cannot reproduce.  Let the per-cycle path
            # drain the storm first.
            return None
        heap = ready[_FP]
        if len(heap) > self._fp_issue_width and heap[0][0] <= cycle:
            return None
        t_stop = cycle + groups
        F = s + groups * fw

        complete = self._complete_cycle
        windows = self._windows
        lat = self._issue_lat
        prod1s = self._prod1s
        prod2s = self._prod2s
        pending_ready = self._pending_ready
        unresolved_arr = self._unresolved

        # ---- memo probe ---------------------------------------------------
        # The schedule is a pure function of (trace columns, core config,
        # window length, pipeline state relative to the entry cycle), so
        # it is content-addressed on the trace and replayed on repeat
        # encounters — the runs of a sweep share the trace object, and a
        # re-run of the same (system, workload) pair replays every span.
        sig: List[tuple] = []
        for idx in rob:
            done = complete[idx]
            if done is not None:
                sig.append((idx, done - cycle))
            else:
                sig.append((idx, pending_ready[idx] - cycle, unresolved_arr[idx]))
        key = (self._span_cfg_key, s, groups, tuple(sig))
        memo = self._span_memo
        record = memo.get(key, _MEMO_MISS)
        if record is not _MEMO_MISS:
            if record is None:
                self._span_fail(cycle, s)
                return None
            return self._apply_span(cycle, record)

        # ---- pass 1: fetch/ready/issue schedule (program order) -----------
        L: List[int] = list(rob)
        L.extend(range(s, F))
        total = len(L)
        comp = [0] * total
        iss = [0] * total  # issue cycle; -1 = already issued before entry
        slot_of: Dict[int, int] = {}
        for k in range(n_seed):
            slot_of[L[k]] = k
        int_issues = [0] * groups
        fp_issues = [0] * groups
        int_budget = self._int_mem_issue_width
        fp_budget = self._fp_issue_width
        trunc = groups
        for k in range(total):
            idx = L[k]
            if k < n_seed:
                done = complete[idx]
                if done is not None:
                    comp[k] = done
                    iss[k] = -1
                    continue
                # Un-issued seed: its base ready is the live pending_ready
                # (fetch + 1 folded with every producer announced before
                # entry); producers still pending are un-issued seeds.  A
                # producer with no completion *and* no ROB slot committed
                # inside an earlier window below the write floor — its
                # completion write was elided, but its contribution is
                # already folded into pending_ready (that window's exit
                # rebuilt this seed's dispatch state), so it is skipped.
                r = pending_ready[idx]
                p = prod1s[idx]
                if p >= 0 and complete[p] is None:
                    kp = slot_of.get(p)
                    if kp is not None:
                        cp = comp[kp]
                        if cp > r:
                            r = cp
                p = prod2s[idx]
                if p >= 0 and complete[p] is None:
                    kp = slot_of.get(p)
                    if kp is not None:
                        cp = comp[kp]
                        if cp > r:
                            r = cp
                if r < cycle:
                    r = cycle  # was bandwidth-deferred; first chance is now
            else:
                r = cycle + (k - n_seed) // fw + 1
                p = prod1s[idx]
                if p >= 0:
                    if p >= s:
                        cp = comp[n_seed + p - s]
                    else:
                        kp = slot_of.get(p)
                        # Committed producers completed at or before the
                        # entry cycle — they can never lift the ready.
                        cp = comp[kp] if kp is not None else 0
                    if cp > r:
                        r = cp
                p = prod2s[idx]
                if p >= 0:
                    if p >= s:
                        cp = comp[n_seed + p - s]
                    else:
                        kp = slot_of.get(p)
                        cp = comp[kp] if kp is not None else 0
                    if cp > r:
                        r = cp
            iss[k] = r
            comp[k] = r + lat[idx]
            rel = r - cycle
            if rel < trunc:
                if windows[idx] == _FP:
                    if fp_issues[rel] >= fp_budget:
                        trunc = rel  # bandwidth over-subscribed: cut before it
                    else:
                        fp_issues[rel] += 1
                else:
                    if int_issues[rel] >= int_budget:
                        trunc = rel
                    else:
                        int_issues[rel] += 1
        if trunc < groups:
            if trunc < _SPAN_MIN_GROUPS_REPLAY:
                if len(memo) >= _SPAN_MEMO_CAP:
                    memo.clear()
                memo[key] = None
                self._span_fail(cycle, s)
                return None
            groups = trunc
            t_stop = cycle + groups
            F = s + groups * fw

        # ---- pass 2: in-order commit cycles (closed form) -----------------
        cw = self._commit_width
        ring = [cycle - 1] * cw
        commit_cycles: List[int] = []
        c_prev = cycle - 1
        n_commit = 0
        for k in range(total):
            if iss[k] >= t_stop:
                break  # not issued inside the window: blocks in-order commit
            c = comp[k]
            if c < c_prev:
                c = c_prev
            floor = ring[n_commit % cw] + 1
            if c < floor:
                c = floor
            if c >= t_stop:
                break
            commit_cycles.append(c)
            ring[n_commit % cw] = c
            c_prev = c
            n_commit += 1

        # ---- pass 3: chronological structural validation ------------------
        window_count = self._window_count
        occ_int = window_count[_INT]
        occ_fp = window_count[_FP]
        int_limit = self._window_limit[_INT]
        fp_limit = self._window_limit[_FP]
        rob_size = self._rob_size
        rob_len = n_seed
        ptr = 0
        base = s
        for rel in range(groups):
            t = cycle + rel
            ptr0, occ_int0, occ_fp0 = ptr, occ_int, occ_fp
            while ptr < n_commit and commit_cycles[ptr] <= t:
                ptr += 1
                rob_len -= 1
            occ_int -= int_issues[rel]
            occ_fp -= fp_issues[rel]
            gf = 0
            for j in range(fw):
                if windows[base + j] == _FP:
                    gf += 1
            gi = fw - gf
            if (
                occ_int + gi > int_limit
                or occ_fp + gf > fp_limit
                or rob_len + fw >= rob_size
            ):
                # Dense fetch would stall (and count a stall) this cycle:
                # truncate the window to the stall-free prefix and restore
                # the end-of-previous-cycle bookkeeping.
                groups = rel
                ptr, occ_int, occ_fp = ptr0, occ_int0, occ_fp0
                break
            occ_int += gi
            occ_fp += gf
            rob_len += fw
            base += fw
        if groups < _SPAN_MIN_GROUPS_REPLAY:
            if len(memo) >= _SPAN_MEMO_CAP:
                memo.clear()
            memo[key] = None
            self._span_fail(cycle, s)
            return None
        t_stop = cycle + groups
        F = s + groups * fw
        n_commit = ptr
        total_eff = n_seed + groups * fw

        # ---- build the relative schedule record ---------------------------
        # Only state that anything can still observe is recorded: completion
        # times for instructions not yet committed plus the trailing
        # ``max_dep`` window (future dependence dispatch can reach no
        # further back), and the full dispatch state of the still
        # un-issued tail.  Everything is stored relative to the entry
        # cycle so the record replays at any cycle.
        write_floor = F - self._span_max_dep
        issued_writes: List[Tuple[int, int]] = []
        unissued_writes: List[Tuple[int, int, int]] = []
        waiter_adds: List[Tuple[int, int]] = []
        heap_int: List[Tuple[int, int]] = []
        heap_fp: List[Tuple[int, int]] = []
        for k in range(total_eff):
            ik = iss[k]
            if ik == -1:
                continue  # issued before entry: nothing changed for it
            idx = L[k]
            if ik < t_stop:
                # Issued inside the window.  Committed instructions below
                # the write floor can never be observed again (commit is
                # done, dependence dispatch cannot reach them), so their
                # completion write is elided.
                if k >= n_commit or idx >= write_floor:
                    issued_writes.append((idx, comp[k] - cycle))
                continue
            # Still un-issued at t_stop: rebuild its dispatch state from
            # the producers whose completion became known by then.
            if k < n_seed:
                pend = pending_ready[idx] - cycle
                unres = 0
                p = prod1s[idx]
                if p >= 0:
                    kp = slot_of.get(p)
                    if kp is not None and iss[kp] != -1:
                        if iss[kp] < t_stop:
                            if comp[kp] - cycle > pend:
                                pend = comp[kp] - cycle
                        else:
                            unres += 1  # already on p's waiter list
                p = prod2s[idx]
                if p >= 0:
                    kp = slot_of.get(p)
                    if kp is not None and iss[kp] != -1:
                        if iss[kp] < t_stop:
                            if comp[kp] - cycle > pend:
                                pend = comp[kp] - cycle
                        else:
                            unres += 1
            else:
                pend = (k - n_seed) // fw + 1
                unres = 0
                p = prod1s[idx]
                if p >= 0:
                    kp = n_seed + p - s if p >= s else slot_of.get(p)
                    if kp is None:
                        pass  # committed pre-entry: completion below base
                    elif iss[kp] == -1 or iss[kp] < t_stop:
                        if comp[kp] - cycle > pend:
                            pend = comp[kp] - cycle
                    else:
                        unres += 1
                        waiter_adds.append((p, idx))
                p = prod2s[idx]
                if p >= 0:
                    kp = n_seed + p - s if p >= s else slot_of.get(p)
                    if kp is None:
                        pass
                    elif iss[kp] == -1 or iss[kp] < t_stop:
                        if comp[kp] - cycle > pend:
                            pend = comp[kp] - cycle
                    else:
                        unres += 1
                        waiter_adds.append((p, idx))
            unissued_writes.append((idx, pend, unres))
            if unres == 0:
                if windows[idx] == _FP:
                    heap_fp.append((pend, idx))
                else:
                    heap_int.append((pend, idx))
        heap_int.sort()
        heap_fp.sort()
        record = (
            groups, F, n_commit, tuple(L[n_commit:total_eff]), occ_int, occ_fp,
            tuple(issued_writes), tuple(unissued_writes),
            tuple(heap_int), tuple(heap_fp), tuple(waiter_adds),
        )
        if len(memo) >= _SPAN_MEMO_CAP:
            memo.clear()
        memo[key] = record
        return self._apply_span(cycle, record)

    def _apply_span(self, cycle: int, record: tuple) -> int:
        """Replay a memoized span schedule at ``cycle``; return the new cycle.

        The record holds the full observable state delta of one engine
        window, cycle-relative (see :meth:`_run_span`); applying it is
        O(exit state), independent of the window length — this is what a
        warm re-run of the same trace pays per span.
        """
        (groups, F, n_commit, exit_rob, occ_int, occ_fp, issued_writes,
         unissued_writes, heap_int, heap_fp, waiter_adds) = record
        self.span_hits += 1
        self._span_cooldown = 4
        self.committed += n_commit
        self._next_fetch = F
        rob = self._rob
        rob.clear()
        rob.extend(exit_rob)
        window_count = self._window_count
        window_count[_INT] = occ_int
        window_count[_FP] = occ_fp
        complete = self._complete_cycle
        for idx, rel in issued_writes:
            complete[idx] = cycle + rel
        pending_ready = self._pending_ready
        unresolved_arr = self._unresolved
        for idx, rel, unres in unissued_writes:
            pending_ready[idx] = cycle + rel
            unresolved_arr[idx] = unres
        ready = self._ready
        ready[_INT][:] = [(cycle + rel, idx) for rel, idx in heap_int]
        ready[_FP][:] = [(cycle + rel, idx) for rel, idx in heap_fp]
        waiters = self._waiters
        for p, consumer in waiter_adds:
            consumers = waiters[p]
            if consumers is None:
                waiters[p] = [consumer]
            else:
                consumers.append(consumer)
        return cycle + groups

    def _span_fail(self, cycle: int, fetch_index: int) -> None:
        """Record an abandoned span attempt and arm the retry cooldown."""
        self.span_bails += 1
        span_id = self._next_break[fetch_index]
        if span_id == self._span_fail_fetch:
            if self._span_cooldown < 64:
                self._span_cooldown *= 2
        else:
            self._span_cooldown = 4
            self._span_fail_fetch = span_id
        self._span_cooldown_until = cycle + self._span_cooldown

    # ------------------------------------------------------------------ hierarchy span engine
    def _run_span_mem(self, cycle: int, cap: int) -> Optional[int]:
        """Fast-forward a steady-state memory-inclusive span; return the new cycle.

        The pure-ALU engine (:meth:`_run_span`) must end its window at the
        first memory operation because it cannot predict the memory
        system's response.  This engine extends the analytic window
        *across* memory operations whenever the hierarchy can prove the
        window analyzable: :meth:`~repro.sim.memsys.MemorySystem.span_window`
        returns a view under whose entry gates every resident load
        completes at ``issue + view.load_latency`` and every store posts
        at ``commit + 1`` — both pure functions of their start cycle.  The
        window is bounded by the next *hard* breaker (mispredicted branch;
        memory operations are only soft breakers here, capped at
        :data:`_HIER_MAX_GROUPS` fetch groups) and validated by the same
        three-pass discipline as the ALU engine — every pass pure,
        truncating before the first non-analyzable event:

        1. **issue pass**: as :meth:`_run_span`, except loads complete at
           ``issue + view.load_latency`` and memory operations share the
           integer issue bandwidth (Table I's int-or-mem width);
        2. **commit pass**: the unchanged closed form; the commit cycles
           of stores become the window's store events;
        3. **validation sweep**: additionally replays the memory-window
           occupancy, the load/store queue (stores hold their entry until
           commit, hit loads release theirs at issue), the L1 port budget
           (committing stores reserve ports before issuing loads each
           cycle; an over-subscribed cycle would defer a load and bump its
           retry counter) and — for write-through fronts — a conservative
           write-buffer occupancy model (every store counted as a push,
           drains replayed at their exact fire cycles; real occupancy is
           never higher because coalescing only removes pushes, so a
           capacity truncation is always sound).

        A residency pre-pass probes every in-window load (and store, for
        fronts with ``store_needs_residency``) against the live array and
        truncates the window before the first miss — the first event the
        view cannot price — so validated windows contain only hits.
        Probing happens *before* the memo key is built and the resulting
        window length is part of the key, which is what keeps replays
        sound without storing probe lists: a memoized schedule can only be
        looked up after a fresh pre-pass has re-proven every one of its
        events still hits.  Probe-dependent declines are never memoized
        (residency changes as the arrays evolve); only the cooldown slows
        re-attempts.

        On success the core state is rewritten exactly as for the ALU
        engine, plus: the window's memory events are replayed through the
        view in dense intra-cycle order (stores before loads — real port
        reservations, stats-bearing lookups, write-buffer coalescing, so
        array/LRU/port/counter state is bit-identical to dense issue by
        construction), the bulk load/store counters advance, and stores
        committing on the window's last cycle are materialised in the
        store buffer (their completions land one cycle after the window,
        exactly where a dense run would still be holding them).
        """
        if cycle < self._hier_cooldown_until:
            return None
        s = self._next_fetch
        fw = self._fetch_width
        groups = (self._next_hard_break[s] - s) // fw
        if groups > _HIER_MAX_GROUPS:
            groups = _HIER_MAX_GROUPS
        max_groups = cap - cycle
        if groups > max_groups:
            groups = max_groups
        if groups < _SPAN_MIN_GROUPS_BUILD:
            return None
        F = s + groups * fw
        if self._next_break[s] >= F:
            return None  # no memory op in reach: the pure-ALU engine is cheaper
        rob = self._rob
        n_seed = len(rob)
        ready = self._ready
        heap = ready[_MEM]
        if heap:
            pending = self._pending_ready
            for stamp, hidx in heap:
                if stamp > pending[hidx] and stamp > cycle:
                    # A can_accept-deferred load: its retry stamp exceeds
                    # its dispatch-state ready cycle, so the signature
                    # (which captures pending_ready) cannot reproduce the
                    # dense issue order.  One dense cycle clears it.
                    return None
        heap = ready[_INT]
        if len(heap) > self._int_mem_issue_width and heap[0][0] <= cycle:
            return None
        heap = ready[_FP]
        if len(heap) > self._fp_issue_width and heap[0][0] <= cycle:
            return None
        if self._store_buffer_size < self._commit_width:
            # A full commit group of stores must always fit in flight, or
            # commit could hit the store-buffer cap mid-window.
            return None
        view = self.memsys.span_window(cycle)
        if view is None:
            return None

        # ---- residency pre-pass -------------------------------------------
        mem_indices = self._mem_indices
        kinds = self._kinds
        addrs = self._addrs
        is_mem = self._is_mem
        complete = self._complete_cycle
        probe_stores = view.store_needs_residency
        # Seed memory ops (un-issued loads; uncommitted stores on fronts
        # that check store residency) are already in flight: a miss among
        # them cannot be truncated away, it makes the whole window
        # non-analyzable.
        seed_probes: List[int] = []
        for idx in rob:
            if is_mem[idx]:
                if kinds[idx] == _KIND_STORE:
                    if probe_stores:
                        seed_probes.append(addrs[idx])
                elif complete[idx] is None:
                    seed_probes.append(addrs[idx])
        if seed_probes and not (
            view.resident_all(seed_probes) and view.mshr_clear(seed_probes)
        ):
            self._hier_fail(cycle, s)
            return None
        lo = bisect_left(mem_indices, s)
        hi = bisect_left(mem_indices, F)
        probes: List[int] = []
        probe_idx: List[int] = []
        for mi in range(lo, hi):
            idx = mem_indices[mi]
            if probe_stores or kinds[idx] != _KIND_STORE:
                probes.append(addrs[idx])
                probe_idx.append(idx)
        if probes and not (view.resident_all(probes) and view.mshr_clear(probes)):
            # Truncate before the first probe that would miss — or that
            # would take the secondary-merge path off a live MSHR entry,
            # whose chained latency is not a pure function of the cycle.
            resident = view.resident
            clear = view.mshr_clear
            miss_at = F
            for j, addr in enumerate(probes):
                if not resident(addr) or not clear((addr,)):
                    miss_at = probe_idx[j]
                    break
            groups = (miss_at - s) // fw
            if groups < _SPAN_MIN_GROUPS_REPLAY or self._next_break[s] >= s + groups * fw:
                # Too short, or the hit-only prefix is pure ALU (the miss
                # is the very first memory op): route back to the classic
                # engine / per-cycle path without poisoning the memo.
                self._hier_fail(cycle, s)
                return None
            F = s + groups * fw
        t_stop = cycle + groups

        pending_ready = self._pending_ready
        unresolved_arr = self._unresolved

        # ---- memo probe ---------------------------------------------------
        sig: List[tuple] = []
        for idx in rob:
            done = complete[idx]
            if done is not None:
                sig.append((idx, done - cycle))
            else:
                sig.append((idx, pending_ready[idx] - cycle, unresolved_arr[idx]))
        entry_sig = view.entry_sig(cycle)
        key = (self._hier_cfg_key, view.cfg_tag, s, groups, tuple(sig), entry_sig)
        memo = self._hier_memo
        record = memo.get(key, _MEMO_MISS)
        if record is not _MEMO_MISS:
            if record is None:
                self._hier_fail(cycle, s)
                return None
            self.hier_replays += 1
            return self._apply_span_mem(cycle, record, view)

        # ---- pass 1: fetch/ready/issue schedule (program order) -----------
        windows = self._windows
        lat = self._issue_lat
        prod1s = self._prod1s
        prod2s = self._prod2s
        load_lat = view.load_latency

        L: List[int] = list(rob)
        L.extend(range(s, F))
        total = len(L)
        comp = [0] * total
        iss = [0] * total  # issue cycle; -1 = already issued before entry
        slot_of: Dict[int, int] = {}
        for k in range(n_seed):
            slot_of[L[k]] = k
        int_issues = [0] * groups
        fp_issues = [0] * groups
        mem_issues = [0] * groups
        im_budget = self._int_mem_issue_width
        fp_budget = self._fp_issue_width
        trunc = groups
        for k in range(total):
            idx = L[k]
            if k < n_seed:
                done = complete[idx]
                if done is not None:
                    comp[k] = done
                    iss[k] = -1
                    continue
                r = pending_ready[idx]
                p = prod1s[idx]
                if p >= 0 and complete[p] is None:
                    kp = slot_of.get(p)
                    if kp is not None:
                        cp = comp[kp]
                        if cp > r:
                            r = cp
                p = prod2s[idx]
                if p >= 0 and complete[p] is None:
                    kp = slot_of.get(p)
                    if kp is not None:
                        cp = comp[kp]
                        if cp > r:
                            r = cp
                if r < cycle:
                    r = cycle  # was bandwidth-deferred; first chance is now
            else:
                r = cycle + (k - n_seed) // fw + 1
                p = prod1s[idx]
                if p >= 0:
                    if p >= s:
                        cp = comp[n_seed + p - s]
                    else:
                        kp = slot_of.get(p)
                        cp = comp[kp] if kp is not None else 0
                    if cp > r:
                        r = cp
                p = prod2s[idx]
                if p >= 0:
                    if p >= s:
                        cp = comp[n_seed + p - s]
                    else:
                        kp = slot_of.get(p)
                        cp = comp[kp] if kp is not None else 0
                    if cp > r:
                        r = cp
            iss[k] = r
            if is_mem[idx] and kinds[idx] != _KIND_STORE:
                comp[k] = r + load_lat  # validated L1 hit
            else:
                comp[k] = r + lat[idx]
            rel = r - cycle
            if rel < trunc:
                w = windows[idx]
                if w == _FP:
                    if fp_issues[rel] >= fp_budget:
                        trunc = rel  # bandwidth over-subscribed: cut before it
                    else:
                        fp_issues[rel] += 1
                elif w == _MEM:
                    if int_issues[rel] + mem_issues[rel] >= im_budget:
                        trunc = rel
                    else:
                        mem_issues[rel] += 1
                else:
                    if int_issues[rel] + mem_issues[rel] >= im_budget:
                        trunc = rel
                    else:
                        int_issues[rel] += 1
        if trunc < groups:
            if trunc < _SPAN_MIN_GROUPS_REPLAY:
                if len(memo) >= _SPAN_MEMO_CAP:
                    memo.clear()
                memo[key] = None
                self._hier_fail(cycle, s)
                return None
            groups = trunc
            t_stop = cycle + groups
            F = s + groups * fw

        # Per-cycle load issues, in heap pop order.  From cycle + 1 on,
        # every entry issuing inside a validated window carries its issue
        # cycle as its heap stamp (optimistic issue == ready, and seeds
        # with stale lower stamps issue at entry), so pops ascend by
        # index — which is ROB-then-program order, the order built here.
        # At the entry cycle itself only seeds can issue, and their heap
        # stamps are their (possibly past) ready cycles: sort those by
        # (stamp, index) to reproduce the dense pop order exactly — the
        # front's recency clock sequences same-cycle touches, so even
        # same-cycle issue order is observable.
        loads_by_rel: List[Optional[List[int]]] = [None] * groups
        for k in range(n_seed + groups * fw):
            idx = L[k]
            if is_mem[idx] and kinds[idx] != _KIND_STORE:
                r = iss[k]
                if r != -1 and r < t_stop:
                    rel = r - cycle
                    lst = loads_by_rel[rel]
                    if lst is None:
                        loads_by_rel[rel] = [idx]
                    else:
                        lst.append(idx)
        lst = loads_by_rel[0]
        if lst is not None and len(lst) > 1:
            lst.sort(key=lambda i: (pending_ready[i], i))

        # ---- pass 2: in-order commit cycles (closed form) -----------------
        cw = self._commit_width
        ring = [cycle - 1] * cw
        commit_cycles: List[int] = []
        c_prev = cycle - 1
        n_commit = 0
        for k in range(total):
            if iss[k] >= t_stop:
                break  # not issued inside the window: blocks in-order commit
            c = comp[k]
            if c < c_prev:
                c = c_prev
            floor = ring[n_commit % cw] + 1
            if c < floor:
                c = floor
            if c >= t_stop:
                break
            commit_cycles.append(c)
            ring[n_commit % cw] = c
            c_prev = c
            n_commit += 1

        # Per-cycle store commits (in commit = ROB-then-program order,
        # which is how the commit walk below visits them).
        stores_by_rel: List[Optional[List[int]]] = [None] * groups
        for j in range(n_commit):
            idx = L[j]
            if kinds[idx] == _KIND_STORE:
                rel = commit_cycles[j] - cycle
                lst = stores_by_rel[rel]
                if lst is None:
                    stores_by_rel[rel] = [idx]
                else:
                    lst.append(idx)

        # ---- pass 3: chronological structural validation ------------------
        window_count = self._window_count
        occ_int = window_count[_INT]
        occ_fp = window_count[_FP]
        occ_mem = window_count[_MEM]
        int_limit = self._window_limit[_INT]
        fp_limit = self._window_limit[_FP]
        mem_limit = self._window_limit[_MEM]
        rob_size = self._rob_size
        lsq_size = self._lsq_size
        ports = view.ports
        store_cap = view.store_capacity
        if store_cap is not None:
            # Conservative front write-buffer model, seeded from the entry
            # signature: residual entries enqueued pre-window (rel -1),
            # drain port next free at the signature's offset.
            wb_occ, wb_nd = entry_sig
            wbq: Deque[int] = deque([-1] * wb_occ)
        rob_len = n_seed
        lsq = self._lsq_count
        ptr = 0
        base = s
        for rel in range(groups):
            t = cycle + rel
            st_list = stores_by_rel[rel]
            n_st = len(st_list) if st_list is not None else 0
            ld_list = loads_by_rel[rel]
            n_ld = len(ld_list) if ld_list is not None else 0
            if n_st + n_ld > ports:
                # A port conflict would defer a load (and bump its retry
                # counter): end the window before this cycle.
                groups = rel
                break
            if store_cap is not None:
                # Replay drains firing strictly before this cycle (what a
                # dense same-cycle can_accept's pump would have applied).
                while wbq:
                    e = wbq[0]
                    fire = wb_nd if wb_nd > e else e
                    if fire >= rel:
                        break
                    wbq.popleft()
                    wb_nd = fire + 1
                if n_st:
                    if len(wbq) + n_st > store_cap:
                        groups = rel  # dense commit would divert to pending
                        break
                    wbq.extend([rel] * n_st)
            ptr0, occ_int0, occ_fp0 = ptr, occ_int, occ_fp
            occ_mem0, lsq0 = occ_mem, lsq
            while ptr < n_commit and commit_cycles[ptr] <= t:
                ptr += 1
                rob_len -= 1
            lsq -= n_st  # stores release their LSQ entry at commit
            occ_int -= int_issues[rel]
            occ_fp -= fp_issues[rel]
            occ_mem -= mem_issues[rel]
            lsq -= n_ld  # hit loads release theirs at (synchronous) issue
            gf = 0
            gm = 0
            for j in range(fw):
                w = windows[base + j]
                if w == _FP:
                    gf += 1
                elif w == _MEM:
                    gm += 1
            gi = fw - gf - gm
            if (
                occ_int + gi > int_limit
                or occ_fp + gf > fp_limit
                or occ_mem + gm > mem_limit
                or rob_len + fw >= rob_size
                or lsq + gm > lsq_size
            ):
                # Dense fetch would stall (and count a stall) this cycle:
                # truncate the window to the stall-free prefix and restore
                # the end-of-previous-cycle bookkeeping.
                groups = rel
                ptr, occ_int, occ_fp = ptr0, occ_int0, occ_fp0
                occ_mem, lsq = occ_mem0, lsq0
                break
            occ_int += gi
            occ_fp += gf
            occ_mem += gm
            rob_len += fw
            lsq += gm
            base += fw
        if groups < _SPAN_MIN_GROUPS_REPLAY:
            if len(memo) >= _SPAN_MEMO_CAP:
                memo.clear()
            memo[key] = None
            self._hier_fail(cycle, s)
            return None
        t_stop = cycle + groups
        F = s + groups * fw
        n_commit = ptr
        total_eff = n_seed + groups * fw

        # ---- build the relative schedule record ---------------------------
        write_floor = F - self._span_max_dep
        issued_writes: List[Tuple[int, int]] = []
        unissued_writes: List[Tuple[int, int, int]] = []
        waiter_adds: List[Tuple[int, int]] = []
        heap_int: List[Tuple[int, int]] = []
        heap_fp: List[Tuple[int, int]] = []
        heap_mem: List[Tuple[int, int]] = []
        for k in range(total_eff):
            ik = iss[k]
            if ik == -1:
                continue  # issued before entry: nothing changed for it
            idx = L[k]
            if ik < t_stop:
                if k >= n_commit or idx >= write_floor:
                    issued_writes.append((idx, comp[k] - cycle))
                continue
            # Still un-issued at t_stop: rebuild its dispatch state from
            # the producers whose completion became known by then.
            if k < n_seed:
                pend = pending_ready[idx] - cycle
                unres = 0
                p = prod1s[idx]
                if p >= 0:
                    kp = slot_of.get(p)
                    if kp is not None and iss[kp] != -1:
                        if iss[kp] < t_stop:
                            if comp[kp] - cycle > pend:
                                pend = comp[kp] - cycle
                        else:
                            unres += 1  # already on p's waiter list
                p = prod2s[idx]
                if p >= 0:
                    kp = slot_of.get(p)
                    if kp is not None and iss[kp] != -1:
                        if iss[kp] < t_stop:
                            if comp[kp] - cycle > pend:
                                pend = comp[kp] - cycle
                        else:
                            unres += 1
            else:
                pend = (k - n_seed) // fw + 1
                unres = 0
                p = prod1s[idx]
                if p >= 0:
                    kp = n_seed + p - s if p >= s else slot_of.get(p)
                    if kp is None:
                        pass  # committed pre-entry: completion below base
                    elif iss[kp] == -1 or iss[kp] < t_stop:
                        if comp[kp] - cycle > pend:
                            pend = comp[kp] - cycle
                    else:
                        unres += 1
                        waiter_adds.append((p, idx))
                p = prod2s[idx]
                if p >= 0:
                    kp = n_seed + p - s if p >= s else slot_of.get(p)
                    if kp is None:
                        pass
                    elif iss[kp] == -1 or iss[kp] < t_stop:
                        if comp[kp] - cycle > pend:
                            pend = comp[kp] - cycle
                    else:
                        unres += 1
                        waiter_adds.append((p, idx))
            unissued_writes.append((idx, pend, unres))
            if unres == 0:
                w = windows[idx]
                if w == _FP:
                    heap_fp.append((pend, idx))
                elif w == _MEM:
                    heap_mem.append((pend, idx))
                else:
                    heap_int.append((pend, idx))
        heap_int.sort()
        heap_fp.sort()
        heap_mem.sort()

        # Memory events in dense intra-cycle order: the commit stage's
        # stores reserve ports before the issue stage's loads each cycle.
        events: List[Tuple[int, bool, int]] = []
        n_loads = 0
        n_stores = 0
        for rel in range(groups):
            lst = stores_by_rel[rel]
            if lst is not None:
                n_stores += len(lst)
                for idx in lst:
                    events.append((rel, True, addrs[idx]))
            lst = loads_by_rel[rel]
            if lst is not None:
                n_loads += len(lst)
                for idx in lst:
                    events.append((rel, False, addrs[idx]))
        # Stores committing on the last window cycle complete at t_stop:
        # dense would still hold them in the store buffer at the top of
        # t_stop (its harvest pass runs before commit), so they must be
        # materialised as live requests at apply time.
        sb_tail: List[int] = []
        lst = stores_by_rel[groups - 1]
        if lst is not None:
            for idx in lst:
                sb_tail.append(addrs[idx])

        record = (
            groups, F, n_commit, tuple(L[n_commit:total_eff]), occ_int, occ_fp,
            occ_mem, tuple(issued_writes), tuple(unissued_writes),
            tuple(heap_int), tuple(heap_fp), tuple(heap_mem),
            tuple(waiter_adds), tuple(events), tuple(sb_tail), lsq,
            n_loads, n_stores,
        )
        if len(memo) >= _SPAN_MEMO_CAP:
            memo.clear()
        memo[key] = record
        return self._apply_span_mem(cycle, record, view)

    def _apply_span_mem(self, cycle: int, record: tuple, view) -> int:
        """Replay a memory-inclusive span schedule at ``cycle``.

        Core-side state is rewritten wholesale exactly as in
        :meth:`_apply_span` (plus the memory window, the LSQ census and the
        bulk load/store counters); hierarchy-side state advances by
        replaying the recorded events through the view's real primitives,
        and last-cycle stores are materialised in the store buffer.
        """
        (groups, F, n_commit, exit_rob, occ_int, occ_fp, occ_mem,
         issued_writes, unissued_writes, heap_int, heap_fp, heap_mem,
         waiter_adds, events, sb_tail, lsq_exit, n_loads, n_stores) = record
        self.hier_ff_cycles += groups
        self._hier_cooldown = 4
        self.committed += n_commit
        self._next_fetch = F
        rob = self._rob
        rob.clear()
        rob.extend(exit_rob)
        window_count = self._window_count
        window_count[_INT] = occ_int
        window_count[_FP] = occ_fp
        window_count[_MEM] = occ_mem
        complete = self._complete_cycle
        for idx, rel in issued_writes:
            complete[idx] = cycle + rel
        pending_ready = self._pending_ready
        unresolved_arr = self._unresolved
        for idx, rel, unres in unissued_writes:
            pending_ready[idx] = cycle + rel
            unresolved_arr[idx] = unres
        ready = self._ready
        ready[_INT][:] = [(cycle + rel, idx) for rel, idx in heap_int]
        ready[_FP][:] = [(cycle + rel, idx) for rel, idx in heap_fp]
        ready[_MEM][:] = [(cycle + rel, idx) for rel, idx in heap_mem]
        waiters = self._waiters
        for p, consumer in waiter_adds:
            consumers = waiters[p]
            if consumers is None:
                waiters[p] = [consumer]
            else:
                consumers.append(consumer)
        self._lsq_count = lsq_exit
        counters = self.stats._counters
        if n_loads:
            counters["loads_issued"] += float(n_loads)
        if n_stores:
            counters["stores_committed"] += float(n_stores)
        if events:
            view.apply_span_events(cycle, events)
        if sb_tail:
            t_stop = cycle + groups
            front = view.front_name
            buffered = self._store_buffer
            for addr in sb_tail:
                request = MemoryRequest(
                    addr=addr, access=AccessType.STORE, issue_cycle=t_stop - 1
                )
                request.complete(t_stop, front)
                buffered.append(request)
        return cycle + groups

    def _hier_fail(self, cycle: int, fetch_index: int) -> None:
        """Record an abandoned hierarchy-span attempt; arm its cooldown.

        The cooldown doubles on *every* consecutive failure — across span
        boundaries, not just within one span — and only a successful
        window resets it.  Miss-dominated traces fail structurally on
        span after span (the probed blocks simply are not L1-resident),
        and a per-span reset would re-pay the seed-scan cost every few
        fetch groups forever; saturated backoff caps that overhead while
        a single success restores full attempt frequency for hit-streak
        phases.
        """
        self.hier_bails += 1
        if self._hier_cooldown < 256:
            self._hier_cooldown *= 2
        self._hier_cooldown_until = cycle + self._hier_cooldown

    # ------------------------------------------------------------------ wakeup
    def next_wakeup(self, cycle: int) -> Optional[int]:
        """Earliest cycle after ``cycle`` at which :meth:`tick` can do work.

        The result is the minimum over every timed event the core knows
        about — ready-heap heads, completion cycles of outstanding loads
        and buffered stores, the ROB head's commit time, and the end of a
        fetch redirect — clamped to ``cycle + 1``.  Whenever the core could
        make progress *every* cycle (fetch not blocked, stores waiting for
        a memory-system port), it returns ``cycle + 1`` so the scheduler
        degenerates to dense ticking.  Returns ``None`` when the core has
        no timed event of its own and is entirely at the mercy of the
        memory system (e.g. all in-flight loads still lack a completion
        time).
        """
        stalled = (
            self._unresolved_branch is not None or self._fetch_stall_until > cycle + 1
        )
        if (
            not stalled
            and self._next_fetch < self._trace_len
            and not self._fetch_blocked()
        ):
            # Common case: the front end can fetch next cycle.
            return cycle + 1
        if self._pending_stores:
            # Stores retry the memory-system port every cycle.
            return cycle + 1
        # Any event at or before cycle + 1 clamps the answer to cycle + 1,
        # so each source short-circuits as soon as it proves that.
        horizon = cycle + 1
        best: Optional[int] = None
        if self._fetch_stall_until > horizon and self._unresolved_branch is None:
            # The redirect ends at a known cycle; until then every tick only
            # increments the fetch-stall counter (handled by
            # note_skipped_cycles), so the stall end is the next fetch event.
            best = self._fetch_stall_until
        if self._rob:
            done = self._complete_cycle[self._rob[0]]
            if done is not None:
                if done <= horizon:
                    return horizon
                if best is None or done < best:
                    best = done
        for heap in self._ready:
            if heap:
                head = heap[0][0]
                if head <= horizon:
                    return horizon
                if best is None or head < best:
                    best = head
        for _, request in self._outstanding_loads:
            done = request.complete_cycle
            if done is not None:
                if done <= horizon:
                    return horizon
                if best is None or done < best:
                    best = done
        for request in self._store_buffer:
            done = request.complete_cycle
            if done is not None:
                if done <= horizon:
                    return horizon
                if best is None or done < best:
                    best = done
        return best

    def incomplete_loads(self) -> List[MemoryRequest]:
        """The in-flight load requests whose completion time is still unknown.

        The event scheduler watches these while advancing the memory system
        alone: a completing load is the only memory-side action that can
        wake the core earlier than its own computed wakeup.
        """
        return [request for _, request in self._outstanding_loads if not request.done]

    def _fetch_blocked(self) -> bool:
        """Whether :meth:`_fetch` would stall without fetching anything.

        Mirrors the structural checks at the top of the fetch loop; assumes
        the caller already ruled out redirects and an exhausted trace.
        """
        if len(self._rob) >= self._rob_size:
            return True
        idx = self._next_fetch
        window = self._windows[idx]
        if self._window_count[window] >= self._window_limit[window]:
            return True
        return self._is_mem[idx] and self._lsq_count >= self._lsq_size

    def note_skipped_cycles(self, cycle: int, next_cycle: int) -> None:
        """Account the stall statistics of the skipped span ``(cycle, next_cycle)``.

        The scheduler only skips cycles in which :meth:`tick` would have
        been a functional no-op, but a dense run still bumps exactly one
        stall counter per such cycle while the front end is blocked.  The
        blocking condition cannot change inside the span (no events fire
        there, and :meth:`next_wakeup` never skips across the end of a
        redirect), so one classification covers every skipped cycle.
        """
        count = next_cycle - cycle - 1
        if count <= 0:
            return
        if cycle + 1 < self._fetch_stall_until or self._unresolved_branch is not None:
            self.stats.incr("fetch_stall_cycles", count)
            return
        if self._next_fetch >= self._trace_len:
            return
        if len(self._rob) >= self._rob_size:
            self.stats.incr("rob_full_stalls", count)
            return
        idx = self._next_fetch
        window = self._windows[idx]
        if self._window_count[window] >= self._window_limit[window]:
            self.stats.incr("window_full_stalls", count)
            return
        if self._is_mem[idx] and self._lsq_count >= self._lsq_size:
            self.stats.incr("lsq_full_stalls", count)

    # -- memory responses -------------------------------------------------------
    def _harvest_memory(self, cycle: int) -> None:
        outstanding = self._outstanding_loads
        if outstanding:
            harvest = False
            for _, request in outstanding:
                done = request.complete_cycle
                if done is not None and done <= cycle:
                    harvest = True
                    break
            if harvest:
                self._progress = True
                still_waiting = []
                for idx, request in outstanding:
                    done = request.complete_cycle
                    if done is not None and done <= cycle:
                        self._announce_completion(idx, done)
                        self._lsq_count -= 1
                    else:
                        still_waiting.append((idx, request))
                self._outstanding_loads = still_waiting
        buffered = self._store_buffer
        if buffered:
            for request in buffered:
                done = request.complete_cycle
                if done is not None and done <= cycle:
                    self._store_buffer = [
                        r
                        for r in buffered
                        if r.complete_cycle is None or r.complete_cycle > cycle
                    ]
                    self._progress = True
                    break
        while self._pending_stores and self.memsys.can_accept(cycle, AccessType.STORE):
            idx = self._pending_stores.popleft()
            request = self.memsys.issue(self._addrs[idx], AccessType.STORE, cycle)
            self._store_buffer.append(request)
            self._progress = True
            self._mem_touched = True

    # -- commit ----------------------------------------------------------------
    def _commit(self, cycle: int) -> None:
        rob = self._rob
        if not rob:
            return
        committed = 0
        complete = self._complete_cycle
        kinds = self._kinds
        popleft = rob.popleft
        commit_width = self._commit_width
        lsq = self._lsq_count
        while rob and committed < commit_width:
            idx = rob[0]
            done = complete[idx]
            if done is None or done > cycle:
                break
            if kinds[idx] == _KIND_STORE:
                in_flight = len(self._store_buffer) + len(self._pending_stores)
                if in_flight >= self._store_buffer_size:
                    self.stats.incr("store_buffer_stall_cycles")
                    break
                if self.memsys.can_accept(cycle, AccessType.STORE):
                    request = self.memsys.issue(self._addrs[idx], AccessType.STORE, cycle)
                    self._store_buffer.append(request)
                    self._mem_touched = True
                else:
                    self._pending_stores.append(idx)
                lsq -= 1
                self.stats._counters["stores_committed"] += 1.0
            popleft()
            committed += 1
        if committed:
            # Stage state lives in locals for the loop and is written back
            # once per call, as in run_batch.
            self.committed += committed
            self._lsq_count = lsq
            self._progress = True

    # -- issue -----------------------------------------------------------------
    def _issue(self, cycle: int) -> None:
        ready = self._ready
        int_mem_budget = self._int_mem_issue_width
        # Memory and integer operations share the same issue bandwidth.
        if ready[_MEM]:
            int_mem_budget -= self._issue_from(_MEM, cycle, int_mem_budget)
        if ready[_INT] and int_mem_budget > 0:
            self._issue_from(_INT, cycle, int_mem_budget)
        if ready[_FP]:
            self._issue_from(_FP, cycle, self._fp_issue_width)

    def _issue_from(self, window: int, cycle: int, budget: int) -> int:
        heap = self._ready[window]
        if heap[0][0] > cycle:
            return 0
        issued = 0
        deferred: Optional[List[Tuple[int, int]]] = None
        classes = self._issue_class
        lat = self._issue_lat
        memsys = self.memsys
        # Direct counter access: one dict add beats a method call in the
        # per-issued-instruction path (bit-identical counters either way).
        counters = self.stats._counters
        complete = self._complete_cycle
        waiters = self._waiters
        while heap and issued < budget:
            ready_cycle, idx = heap[0]
            if ready_cycle > cycle:
                break
            heappop(heap)
            cls = classes[idx]
            if cls == ISSUE_SIMPLE:
                # Integer/FP ALU, store address generation, correctly
                # predicted branches: complete after the precomputed
                # per-instruction latency, nothing else to do.
                when = cycle + lat[idx]
                if waiters[idx] is None:
                    complete[idx] = when
                else:
                    self._announce_completion(idx, when)
            elif cls == ISSUE_LOAD:
                if not memsys.can_accept(cycle, AccessType.LOAD):
                    if deferred is None:
                        deferred = []
                    deferred.append((cycle + 1, idx))
                    counters["load_issue_retries"] += 1.0
                    continue
                request = memsys.issue(self._addrs[idx], AccessType.LOAD, cycle)
                self._mem_touched = True
                counters["loads_issued"] += 1.0
                done = request.complete_cycle
                if done is not None:
                    # Announce fast path: no consumer waits on this load.
                    if waiters[idx] is None:
                        complete[idx] = done
                    else:
                        self._announce_completion(idx, done)
                    self._lsq_count -= 1
                else:
                    self._outstanding_loads.append((idx, request))
            else:  # ISSUE_MISPREDICT: a branch the front end mispredicted
                resolve = cycle + self._branch_latency
                if waiters[idx] is None:
                    complete[idx] = resolve
                else:
                    self._announce_completion(idx, resolve)
                counters["branch_mispredictions"] += 1.0
                redirect = resolve + self._mispredict_penalty
                if redirect > self._fetch_stall_until:
                    self._fetch_stall_until = redirect
                if self._unresolved_branch == idx:
                    self._unresolved_branch = None
            self._window_count[window] -= 1
            issued += 1
        if issued:
            self._progress = True
        if deferred:
            for item in deferred:
                heappush(heap, item)
        return issued

    def _announce_completion(self, idx: int, when: int) -> None:
        self._complete_cycle[idx] = when
        waiters = self._waiters
        consumers = waiters[idx]
        if not consumers:
            return
        waiters[idx] = None
        pending = self._pending_ready
        unresolved = self._unresolved
        windows = self._windows
        ready = self._ready
        for consumer in consumers:
            if when > pending[consumer]:
                pending[consumer] = when
            left = unresolved[consumer] - 1
            unresolved[consumer] = left
            if left == 0:
                heappush(ready[windows[consumer]], (pending[consumer], consumer))

    # -- fetch / dispatch ---------------------------------------------------------
    def _fetch(self, cycle: int) -> None:
        if cycle < self._fetch_stall_until or self._unresolved_branch is not None:
            self.stats._counters["fetch_stall_cycles"] += 1.0
            return
        trace_len = self._trace_len
        next_fetch = self._next_fetch
        if next_fetch >= trace_len:
            return  # drained tail: nothing to fetch, no stall to account
        fetched = 0
        fetch_width = self._fetch_width
        lsq = self._lsq_count
        lsq_size = self._lsq_size
        rob = self._rob
        rob_size = self._rob_size
        windows = self._windows
        is_mem = self._is_mem
        window_count = self._window_count
        window_limit = self._window_limit
        prod1s = self._prod1s
        prod2s = self._prod2s
        classes = self._issue_class
        complete = self._complete_cycle
        waiters = self._waiters
        pending_ready = self._pending_ready
        unresolved_of = self._unresolved
        ready_heaps = self._ready
        while (
            fetched < fetch_width
            and next_fetch < trace_len
            and len(rob) < rob_size
        ):
            idx = next_fetch
            window = windows[idx]
            if window_count[window] >= window_limit[window]:
                self.stats.incr("window_full_stalls")
                break
            is_memory = is_mem[idx]
            if is_memory and lsq >= lsq_size:
                self.stats.incr("lsq_full_stalls")
                break

            rob.append(idx)
            window_count[window] += 1
            if is_memory:
                lsq += 1
            # Dependence dispatch, inlined (one call per fetched instruction
            # was measurable).  Producer indices are precomputed by the
            # decode (-1 = no in-range producer).
            unresolved = 0
            ready = cycle + 1
            producer = prod1s[idx]
            if producer >= 0:
                known = complete[producer]
                if known is not None:
                    if known > ready:
                        ready = known
                else:
                    unresolved += 1
                    consumers = waiters[producer]
                    if consumers is None:
                        waiters[producer] = [idx]
                    else:
                        consumers.append(idx)
            producer = prod2s[idx]
            if producer >= 0:
                known = complete[producer]
                if known is not None:
                    if known > ready:
                        ready = known
                else:
                    unresolved += 1
                    consumers = waiters[producer]
                    if consumers is None:
                        waiters[producer] = [idx]
                    else:
                        consumers.append(idx)
            pending_ready[idx] = ready
            unresolved_of[idx] = unresolved
            if unresolved == 0:
                heappush(ready_heaps[window], (ready, idx))
            next_fetch += 1
            fetched += 1
            if classes[idx] == ISSUE_MISPREDICT:
                # Stop fetching down the wrong path until the branch resolves.
                self._unresolved_branch = idx
                break
        if fetched:
            # Stage state lives in locals for the loop and is written back
            # once per call, as in run_batch.
            self._next_fetch = next_fetch
            self._lsq_count = lsq
            self._progress = True
        if next_fetch < trace_len and len(rob) >= rob_size:
            self.stats.incr("rob_full_stalls")
