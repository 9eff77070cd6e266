"""Instruction trace container."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional

from repro.cpu.isa import Instruction, InstrClass

#: Issue-window index per instruction class: 0 = integer window, 1 =
#: floating-point window, 2 = memory window.  Branches issue through the
#: integer window.  ``_WINDOW_INDEX`` is the same mapping flattened into a
#: tuple indexed by the IntEnum value (derived, not hardcoded, so a new or
#: reordered ``InstrClass`` member fails loudly here instead of silently
#: misclassifying every instruction).
_WINDOW_OF_CLASS = {
    InstrClass.INT_ALU: 0,
    InstrClass.FP_ALU: 1,
    InstrClass.LOAD: 2,
    InstrClass.STORE: 2,
    InstrClass.BRANCH: 0,
}
_WINDOW_INDEX = tuple(
    _WINDOW_OF_CLASS[cls] for cls in sorted(InstrClass, key=int)
)
_MEMORY_CODES = frozenset((int(InstrClass.LOAD), int(InstrClass.STORE)))

#: Issue-path classes, precomputed per instruction so the issue stage's
#: kind dispatch is one integer compare instead of an if-chain over enum
#: codes.  ``SIMPLE`` covers everything whose issue-side effect is just a
#: completion at ``cycle + latency`` (integer/FP ALU, stores' address
#: generation, correctly predicted branches); loads interact with the
#: memory system and mispredicted branches redirect the front end.
ISSUE_SIMPLE = 0
ISSUE_LOAD = 1
ISSUE_MISPREDICT = 2

_LOAD_CODE = int(InstrClass.LOAD)
_STORE_CODE = int(InstrClass.STORE)
_BRANCH_CODE = int(InstrClass.BRANCH)
_FP_CODE = int(InstrClass.FP_ALU)


class DecodedTrace:
    """Column-oriented view of a trace, for the core's per-cycle hot loops.

    The core touches several :class:`~repro.cpu.isa.Instruction` attributes
    per fetched/issued/committed instruction; attribute access plus enum
    dispatch dominates instruction-bound runs.  Decoding once into parallel
    plain lists (enum values as ints, the issue-window index precomputed)
    turns every hot-path probe into a list index.  The decode is cached on
    the trace and shared by every run of a sweep.

    Beyond the per-instruction columns, :meth:`issue_latencies` caches
    the per-instruction issue-to-completion latency resolved against a
    core configuration's latency parameters, keyed by those parameters
    (sweeps share one config, so it is computed once and shared by every
    run).
    """

    __slots__ = (
        "kind", "addr", "latency", "window", "is_mem", "issue_class", "prod1",
        "prod2", "_lat_cache",
    )

    def __init__(self, instructions: List[Instruction]) -> None:
        self.kind: List[int] = []
        self.addr: List[int] = []
        self.latency: List[int] = []
        self.window: List[int] = []
        self.is_mem: List[bool] = []
        self.issue_class: List[int] = []
        #: Producer indices resolved from the backwards distances: the
        #: dynamic index of each source operand's producer, or -1 when the
        #: operand has no (in-range) producer.  Saves an add + two compares
        #: per operand in the fetch stage's dependence dispatch.
        self.prod1: List[int] = []
        self.prod2: List[int] = []
        self._lat_cache: Dict[tuple, List[int]] = {}
        kind_append = self.kind.append
        addr_append = self.addr.append
        latency_append = self.latency.append
        window_append = self.window.append
        is_mem_append = self.is_mem.append
        class_append = self.issue_class.append
        prod1_append = self.prod1.append
        prod2_append = self.prod2.append
        memory_codes = _MEMORY_CODES
        load_code, branch_code = _LOAD_CODE, _BRANCH_CODE
        index = 0
        for instruction in instructions:
            code = int(instruction.kind)
            kind_append(code)
            addr_append(instruction.addr)
            dep1 = instruction.dep1
            dep2 = instruction.dep2
            latency_append(instruction.latency)
            window_append(_WINDOW_INDEX[code])
            is_mem_append(code in memory_codes)
            if code == load_code:
                class_append(ISSUE_LOAD)
            elif code == branch_code and instruction.mispredicted:
                class_append(ISSUE_MISPREDICT)
            else:
                class_append(ISSUE_SIMPLE)
            prod1_append(index - dep1 if 0 < dep1 <= index else -1)
            prod2_append(index - dep2 if 0 < dep2 <= index else -1)
            index += 1

    def issue_latencies(
        self,
        int_latency: int,
        fp_latency: int,
        branch_latency: int,
        store_agen_latency: int,
    ) -> List[int]:
        """Per-instruction issue-to-completion latency under a core config.

        Resolves the issue stage's latency dispatch once per (trace,
        latency parameters) pair: FP operations complete after
        ``fp_latency``, branches after ``branch_latency``, stores generate
        their address after ``store_agen_latency``, and integer operations
        after their trace latency clamped to at least ``int_latency``.
        Loads get 0 — their completion comes from the memory system, never
        from this table.
        """
        key = (int_latency, fp_latency, branch_latency, store_agen_latency)
        cached = self._lat_cache.get(key)
        if cached is None:
            by_kind = [0] * len(_WINDOW_INDEX)
            by_kind[_FP_CODE] = fp_latency
            by_kind[_STORE_CODE] = store_agen_latency
            by_kind[_BRANCH_CODE] = branch_latency
            int_code = int(InstrClass.INT_ALU)
            cached = [
                (lat if lat > int_latency else int_latency)
                if kind == int_code
                else by_kind[kind]
                for kind, lat in zip(self.kind, self.latency)
            ]
            self._lat_cache[key] = cached
        return cached


@dataclass
class Trace:
    """A dynamic instruction trace plus its metadata.

    Attributes:
        name: workload name (e.g. ``"mcf-like"``).
        category: ``"int"`` or ``"fp"`` — the suite the workload mimics,
            used when the experiments aggregate results the way the paper
            does (separate Integer and Floating-Point means).
        instructions: the dynamic instruction stream.
    """

    name: str
    category: str
    instructions: List[Instruction] = field(default_factory=list)
    #: Lazily computed by :meth:`resident_addresses`; excluded from
    #: comparisons and repr because it is derived state.
    _resident_cache: Optional[List[int]] = field(
        default=None, repr=False, compare=False
    )
    #: Lazily computed by :meth:`decoded`; derived state like the above.
    _decoded_cache: Optional[DecodedTrace] = field(
        default=None, repr=False, compare=False
    )
    #: Content digest memo, filled by :func:`repro.sim.plan.trace_digest`;
    #: sound because traces are immutable once generated (the same
    #: contract the two caches above rely on).
    _digest_cache: Optional[str] = field(default=None, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.instructions)

    def decoded(self) -> DecodedTrace:
        """Column-oriented decode of the trace (cached after first call).

        Traces are immutable once generated and shared across every system
        of a sweep, so the decode — like :meth:`resident_addresses` — is
        computed once and reused.
        """
        cached = self._decoded_cache
        if cached is None:
            cached = DecodedTrace(self.instructions)
            self._decoded_cache = cached
        return cached

    def resident_addresses(self) -> List[int]:
        """Addresses of the resident working set (cached after first call).

        Streaming and cold accesses (``Instruction.transient``) are
        excluded: they would also be absent from a warm cache at the start
        of a SimPoint, so they take their compulsory misses during the
        measured run — exactly as in the paper's methodology.  Traces are
        immutable once generated and shared across every system of a
        sweep, so the list is computed once.
        """
        cached = self._resident_cache
        if cached is None:
            load, store = InstrClass.LOAD, InstrClass.STORE
            cached = [
                instruction.addr
                for instruction in self.instructions
                if (instruction.kind is load or instruction.kind is store)
                and not instruction.transient
            ]
            self._resident_cache = cached
        return cached

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __getitem__(self, index: int) -> Instruction:
        return self.instructions[index]

    # ------------------------------------------------------------------ summaries
    def class_mix(self) -> Dict[str, float]:
        """Return the fraction of instructions in each class."""
        counts: Dict[str, int] = {cls.name: 0 for cls in InstrClass}
        for instruction in self.instructions:
            counts[instruction.kind.name] += 1
        total = max(1, len(self.instructions))
        return {name: count / total for name, count in counts.items()}

    def memory_instructions(self) -> int:
        """Number of loads plus stores in the trace."""
        return sum(1 for instruction in self.instructions if instruction.kind.is_memory)

    def unique_blocks(self, block_size: int = 64) -> int:
        """Number of distinct ``block_size``-byte blocks touched by the trace."""
        blocks = {
            instruction.addr // block_size
            for instruction in self.instructions
            if instruction.kind.is_memory
        }
        return len(blocks)

    def footprint_bytes(self, block_size: int = 64) -> int:
        """Approximate memory footprint of the trace."""
        return self.unique_blocks(block_size) * block_size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Trace({self.name}, {len(self.instructions)} instructions)"
