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

    span_hits = 0  # always 0; only e2ebench/e2e_trace.py reads it
    span_bails = 0  # always 0; only e2ebench/e2e_trace.py reads it
    hier_replays = 0  # always 0; only e2ebench/e2e_trace.py reads it
    hier_bails = 0  # always 0; only e2ebench/e2e_trace.py reads it

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
        self._prod1s = decoded.prod1
        self._prod2s = decoded.prod2
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
        self._branch_latency = cfg.branch_latency
        # Issue-to-completion latency resolved per instruction against this
        # config (cached on the decode, shared by every run of a sweep).
        self._issue_lat = decoded.issue_latencies(
            cfg.int_latency, cfg.fp_latency, cfg.branch_latency, cfg.store_agen_latency
        )

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
        while True:
            if cycle > limit:
                self.cycle = cycle
                raise self.limit_exceeded(limit)
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
