"""Processor models and synthetic workloads.

The paper drives its cache hierarchies with an extended SimpleScalar/Alpha
out-of-order core running SPEC CPU2006.  Neither the Alpha toolchain nor
SPEC are available offline, so this package substitutes:

* :mod:`repro.cpu.workloads` — a synthetic trace generator whose named
  workloads mimic the locality/ILP character of the SPEC integer and
  floating-point suites;
* :mod:`repro.cpu.core` — a cycle-level out-of-order core with the Table I
  front-end/back-end widths, ROB, issue windows, LSQ, store buffer and
  branch-misprediction penalty;
* :mod:`repro.cpu.inorder` — a small blocking in-order core, kept as the
  OoO core's sanity reference in the tests.

See DESIGN.md for why this substitution preserves the paper's comparisons.
"""

from repro.cpu.core import CoreConfig, OoOCore
from repro.cpu.inorder import SimpleInOrderCore
from repro.cpu.isa import Instruction, InstrClass
from repro.cpu.trace import Trace
from repro.cpu.workloads import (
    WorkloadSpec,
    fp_suite,
    generate_trace,
    integer_suite,
    workload_by_name,
)

__all__ = [
    "CoreConfig",
    "Instruction",
    "InstrClass",
    "OoOCore",
    "SimpleInOrderCore",
    "Trace",
    "WorkloadSpec",
    "fp_suite",
    "generate_trace",
    "integer_suite",
    "workload_by_name",
]
