"""Synthetic SPEC-like workload generator.

SPEC CPU2006 binaries cannot be run offline, so the evaluation drives the
hierarchies with synthetic traces whose *memory behaviour* spans the same
spectrum the paper relies on:

* every workload has a small hot region that the 32 KB L1 largely captures,
  a *warm* region (tens to a few hundred KB) that distinguishes the
  secondary-cache organisations from one another, and streaming plus cold
  components that exercise the L3/D-NUCA and main memory;
* integer-like workloads have smaller warm regions, more branches, higher
  misprediction rates and some pointer chasing (low memory-level
  parallelism), so their secondary-cache hits concentrate in the closest
  L-NUCA levels (Table III, Int columns);
* floating-point-like workloads have larger warm regions, more regular
  streaming, longer-latency FP operations and fewer branches, so they both
  hit the secondary cache more and spread those hits over deeper levels —
  which is why the paper's FP IPC gains are roughly twice the integer ones.

Each named workload below is a caricature of one SPEC benchmark's published
behaviour (working-set size, pointer chasing, streaming), not a substitute
for it; DESIGN.md documents this substitution.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.errors import ConfigurationError
from repro.cpu.isa import InstrClass
from repro.cpu.trace import Trace, pack_records

_INT_ALU = int(InstrClass.INT_ALU)
_FP_ALU = int(InstrClass.FP_ALU)
_LOAD = int(InstrClass.LOAD)
_STORE = int(InstrClass.STORE)
_BRANCH = int(InstrClass.BRANCH)

# Disjoint base addresses for the different locality regions.
_HOT_BASE = 0x1000_0000
_WARM_BASE = 0x2000_0000
_STREAM_BASE = 0x3000_0000
_COLD_BASE = 0x4000_0000
_COLD_SPAN_BYTES = 64 * 1024 * 1024


@dataclass
class WorkloadSpec:
    """Parameters of one synthetic workload.

    Attributes:
        name: workload name, e.g. ``"mcf-like"``.
        category: ``"int"`` or ``"fp"``.
        load_fraction / store_fraction: fraction of dynamic instructions.
        fp_fraction: fraction of non-memory, non-branch instructions that
            are floating point.
        branch_fraction: fraction of dynamic instructions that are branches.
        mispredict_rate: probability a branch is mispredicted.
        regions: ``(size_kb, weight)`` pairs describing nested reuse
            regions; weights are relative probabilities of a memory access
            falling in that region.
        stream_weight: relative probability of a streaming access (a
            sequential walk over ``stream_kb``).
        cold_weight: relative probability of a cold access (uniform over a
            64 MB span, essentially always a memory miss).
        stream_kb: size of the streaming region.
        stream_stride: stride of the streaming walk in bytes.
        dep_density: probability an instruction depends on a recent earlier
            instruction.
        pointer_chase_fraction: fraction of loads that depend on the
            previous load (serialised misses, low MLP — mcf/omnetpp style).
        seed: base RNG seed (combined with the trace length for variety).
    """

    name: str
    category: str
    load_fraction: float = 0.24
    store_fraction: float = 0.10
    fp_fraction: float = 0.0
    branch_fraction: float = 0.16
    mispredict_rate: float = 0.05
    regions: Tuple[Tuple[float, float], ...] = ((20.0, 0.86), (96.0, 0.08))
    stream_weight: float = 0.04
    cold_weight: float = 0.02
    stream_kb: float = 4096.0
    stream_stride: int = 16
    dep_density: float = 0.90
    pointer_chase_fraction: float = 0.0
    seed: int = 1

    def __post_init__(self) -> None:
        if self.category not in ("int", "fp"):
            raise ConfigurationError("workload category must be 'int' or 'fp'")
        fractions = self.load_fraction + self.store_fraction + self.branch_fraction
        if fractions >= 1.0:
            raise ConfigurationError("load+store+branch fractions must leave room for ALU ops")
        if not self.regions and not self.stream_weight and not self.cold_weight:
            raise ConfigurationError("workload needs at least one address region")


def generate_trace(
    spec: WorkloadSpec, num_instructions: int, seed: Optional[int] = None
) -> Trace:
    """Generate a dynamic trace of ``num_instructions`` for ``spec``.

    Generation is deterministic for a given ``(spec.seed, seed,
    num_instructions)`` triple, so experiments and tests are repeatable.
    """
    if num_instructions < 1:
        raise ConfigurationError("a trace needs at least one instruction")
    rng = random.Random(f"{spec.seed}-{seed or 0}-{num_instructions}")

    # Pre-compute the region sampling table.
    region_table: List[Tuple[str, float, float]] = []
    for size_kb, weight in spec.regions:
        region_table.append(("reuse", size_kb * 1024.0, weight))
    if spec.stream_weight:
        region_table.append(("stream", spec.stream_kb * 1024.0, spec.stream_weight))
    if spec.cold_weight:
        region_table.append(("cold", float(_COLD_SPAN_BYTES), spec.cold_weight))
    total_weight = sum(weight for _, _, weight in region_table)

    stream_cursor = 0
    region_bases: Dict[int, int] = {}
    next_base = _WARM_BASE
    for index, (kind, _, _) in enumerate(region_table):
        if kind == "reuse":
            region_bases[index] = _HOT_BASE if index == 0 else next_base
            if index > 0:
                next_base += 0x0100_0000

    def pick_address() -> Tuple[int, bool]:
        """Return ``(address, transient)`` for one memory access."""
        nonlocal stream_cursor
        point = rng.random() * total_weight
        running = 0.0
        for index, (kind, span, weight) in enumerate(region_table):
            running += weight
            if point <= running:
                if kind == "stream":
                    addr = _STREAM_BASE + stream_cursor
                    stream_cursor = (stream_cursor + spec.stream_stride) % int(span)
                    return addr, True
                if kind == "cold":
                    return _COLD_BASE + (rng.randrange(int(span)) & ~0x7), True
                base = region_bases[index]
                return base + (rng.randrange(int(span)) & ~0x7), False
        # Floating-point rounding fallback: treat as a cold access.
        return _COLD_BASE + (rng.randrange(_COLD_SPAN_BYTES) & ~0x7), True

    def rows():
        """One record row per instruction, in draw order; ``kinds`` is kept
        for the dependence look-back of memory instructions."""
        kinds: List[int] = []
        last_load_index: Optional[int] = None
        for index in range(num_instructions):
            roll = rng.random()
            if roll < spec.load_fraction:
                kind = _LOAD
            elif roll < spec.load_fraction + spec.store_fraction:
                kind = _STORE
            elif roll < spec.load_fraction + spec.store_fraction + spec.branch_fraction:
                kind = _BRANCH
            elif rng.random() < spec.fp_fraction:
                kind = _FP_ALU
            else:
                kind = _INT_ALU

            is_memory = kind == _LOAD or kind == _STORE
            addr, transient = pick_address() if is_memory else (0, False)
            dep1 = 0
            dep2 = 0
            if kind == _LOAD and spec.pointer_chase_fraction and last_load_index is not None:
                if rng.random() < spec.pointer_chase_fraction:
                    dep1 = index - last_load_index
            if dep1 == 0 and index > 0 and rng.random() < spec.dep_density:
                if is_memory:
                    # Loads and stores depend on address arithmetic (an earlier
                    # ALU op), not on other loads' data — array codes keep their
                    # memory-level parallelism unless pointer_chase says so.
                    for distance in range(1, min(8, index) + 1):
                        producer = kinds[index - distance]
                        if producer == _INT_ALU or producer == _FP_ALU:
                            dep1 = distance
                            break
                else:
                    dep1 = rng.randint(1, min(8, index))
            if not is_memory and index > 1 and rng.random() < spec.dep_density * 0.4:
                dep2 = rng.randint(1, min(16, index))
            latency = 4 if kind == _FP_ALU else 1
            mispredicted = kind == _BRANCH and rng.random() < spec.mispredict_rate
            kinds.append(kind)
            if kind == _LOAD:
                last_load_index = index
            yield kind, addr, dep1, dep2, latency, mispredicted, transient

    return Trace(spec.name, spec.category, pack_records(rows()))


# --------------------------------------------------------------------------- suites
def integer_suite() -> List[WorkloadSpec]:
    """Synthetic stand-ins for the SPEC CPU2006 integer benchmarks.

    Integer codes keep most of their references inside an L1-sized hot set,
    place a modest warm set (tens of KB) just beyond the L1, have frequent
    branches with noticeable misprediction rates, and in a few cases
    (mcf, omnetpp, astar) chase pointers, which serialises their misses.
    """
    return [
        WorkloadSpec(
            name="perlbench-like", category="int", seed=11,
            regions=((20.0, 0.895), (64.0, 0.07)), stream_weight=0.02, cold_weight=0.015,
            branch_fraction=0.20, mispredict_rate=0.05,
        ),
        WorkloadSpec(
            name="bzip2-like", category="int", seed=12,
            regions=((24.0, 0.85), (112.0, 0.10)), stream_weight=0.035, cold_weight=0.015,
            branch_fraction=0.15, mispredict_rate=0.07,
        ),
        WorkloadSpec(
            name="gcc-like", category="int", seed=13,
            regions=((16.0, 0.86), (80.0, 0.08), (320.0, 0.03)), stream_weight=0.02,
            cold_weight=0.01, branch_fraction=0.21, mispredict_rate=0.06,
        ),
        WorkloadSpec(
            name="mcf-like", category="int", seed=14,
            regions=((16.0, 0.78), (96.0, 0.13), (512.0, 0.05)), stream_weight=0.02,
            cold_weight=0.02, pointer_chase_fraction=0.50, load_fraction=0.30,
            branch_fraction=0.17, mispredict_rate=0.08,
        ),
        WorkloadSpec(
            name="gobmk-like", category="int", seed=15,
            regions=((20.0, 0.885), (72.0, 0.08)), stream_weight=0.02, cold_weight=0.015,
            branch_fraction=0.22, mispredict_rate=0.10,
        ),
        WorkloadSpec(
            name="hmmer-like", category="int", seed=16,
            regions=((24.0, 0.92), (56.0, 0.06)), stream_weight=0.015, cold_weight=0.005,
            branch_fraction=0.12, mispredict_rate=0.03, dep_density=0.93,
        ),
        WorkloadSpec(
            name="sjeng-like", category="int", seed=17,
            regions=((20.0, 0.90), (88.0, 0.07)), stream_weight=0.02, cold_weight=0.01,
            branch_fraction=0.21, mispredict_rate=0.09,
        ),
        WorkloadSpec(
            name="libquantum-like", category="int", seed=18,
            regions=((16.0, 0.82), (64.0, 0.06)), stream_weight=0.10, cold_weight=0.02,
            stream_kb=2048.0, branch_fraction=0.14, mispredict_rate=0.02,
        ),
        WorkloadSpec(
            name="h264ref-like", category="int", seed=19,
            regions=((24.0, 0.89), (88.0, 0.08)), stream_weight=0.02, cold_weight=0.01,
            branch_fraction=0.13, mispredict_rate=0.04, dep_density=0.86,
        ),
        WorkloadSpec(
            name="omnetpp-like", category="int", seed=20,
            regions=((16.0, 0.80), (112.0, 0.12), (448.0, 0.04)), stream_weight=0.02,
            cold_weight=0.02, pointer_chase_fraction=0.45, branch_fraction=0.19,
            mispredict_rate=0.07,
        ),
        WorkloadSpec(
            name="astar-like", category="int", seed=21,
            regions=((20.0, 0.84), (104.0, 0.11)), stream_weight=0.02, cold_weight=0.03,
            pointer_chase_fraction=0.30, branch_fraction=0.18, mispredict_rate=0.08,
        ),
    ]


def fp_suite() -> List[WorkloadSpec]:
    """Synthetic stand-ins for the SPEC CPU2006 floating-point benchmarks.

    Floating-point codes miss the L1 more, have larger warm sets that spill
    deeper into the secondary cache, stream over multi-megabyte arrays, and
    contain few (well-predicted) branches with abundant instruction-level
    parallelism — the combination behind the paper's larger FP gains.
    """
    return [
        WorkloadSpec(
            name="bwaves-like", category="fp", seed=31, fp_fraction=0.55,
            regions=((24.0, 0.70), (120.0, 0.21), (384.0, 0.03)), stream_weight=0.045,
            cold_weight=0.015, branch_fraction=0.05, mispredict_rate=0.01, dep_density=0.72,
        ),
        WorkloadSpec(
            name="milc-like", category="fp", seed=32, fp_fraction=0.50,
            regions=((20.0, 0.70), (152.0, 0.20)), stream_weight=0.08, cold_weight=0.02,
            branch_fraction=0.04, mispredict_rate=0.01, stream_kb=8192.0, dep_density=0.72,
        ),
        WorkloadSpec(
            name="zeusmp-like", category="fp", seed=33, fp_fraction=0.52,
            regions=((24.0, 0.71), (112.0, 0.21), (384.0, 0.03)), stream_weight=0.035,
            cold_weight=0.015, branch_fraction=0.06, mispredict_rate=0.02, dep_density=0.72,
        ),
        WorkloadSpec(
            name="gromacs-like", category="fp", seed=34, fp_fraction=0.58,
            regions=((28.0, 0.74), (96.0, 0.21)), stream_weight=0.035, cold_weight=0.015,
            branch_fraction=0.07, mispredict_rate=0.02, dep_density=0.72,
        ),
        WorkloadSpec(
            name="leslie3d-like", category="fp", seed=35, fp_fraction=0.54,
            regions=((24.0, 0.70), (136.0, 0.21), (512.0, 0.03)), stream_weight=0.045,
            cold_weight=0.015, branch_fraction=0.05, mispredict_rate=0.01, dep_density=0.72,
        ),
        WorkloadSpec(
            name="namd-like", category="fp", seed=36, fp_fraction=0.60,
            regions=((28.0, 0.75), (80.0, 0.20)), stream_weight=0.035, cold_weight=0.015,
            branch_fraction=0.06, mispredict_rate=0.02, dep_density=0.78,
        ),
        WorkloadSpec(
            name="soplex-like", category="fp", seed=37, fp_fraction=0.40,
            regions=((20.0, 0.71), (144.0, 0.20), (576.0, 0.03)), stream_weight=0.04,
            cold_weight=0.02, branch_fraction=0.10, mispredict_rate=0.04, dep_density=0.72,
        ),
        WorkloadSpec(
            name="lbm-like", category="fp", seed=38, fp_fraction=0.50,
            regions=((16.0, 0.65), (112.0, 0.18)), stream_weight=0.14, cold_weight=0.03,
            stream_kb=16384.0, branch_fraction=0.03, mispredict_rate=0.01, dep_density=0.72,
        ),
        WorkloadSpec(
            name="sphinx3-like", category="fp", seed=39, fp_fraction=0.45,
            regions=((20.0, 0.72), (120.0, 0.21)), stream_weight=0.05, cold_weight=0.02,
            branch_fraction=0.09, mispredict_rate=0.03, dep_density=0.72,
        ),
        WorkloadSpec(
            name="gemsfdtd-like", category="fp", seed=40, fp_fraction=0.52,
            regions=((24.0, 0.70), (168.0, 0.21), (640.0, 0.02)), stream_weight=0.05,
            cold_weight=0.02, branch_fraction=0.05, mispredict_rate=0.02, dep_density=0.72,
        ),
    ]


def full_suite() -> List[WorkloadSpec]:
    """The complete synthetic suite (integer followed by floating point)."""
    return integer_suite() + fp_suite()


def workload_by_name(name: str) -> WorkloadSpec:
    """Look a workload spec up by name (raises ``KeyError`` if unknown)."""
    for spec in full_suite():
        if spec.name == name:
            return spec
    raise KeyError(name)


def representative_suite(per_category: int = 4) -> List[WorkloadSpec]:
    """A smaller, faster suite with ``per_category`` workloads per category.

    The experiment harness uses this by default so that regenerating every
    figure stays fast; passing a larger value approaches the full suite.
    """
    ints = integer_suite()
    fps = fp_suite()
    # Spread the picks across the suite so the mix of behaviours is kept.
    def pick(specs: Sequence[WorkloadSpec]) -> List[WorkloadSpec]:
        if per_category >= len(specs):
            return list(specs)
        step = len(specs) / per_category
        return [specs[int(i * step)] for i in range(per_category)]

    return pick(ints) + pick(fps)
