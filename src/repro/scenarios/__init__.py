"""Scenario engine: pluggable workload generators and trace capture/replay.

This package generalises :mod:`repro.cpu.workloads` into a declarative
subsystem (see DESIGN.md):

* :class:`ScenarioSpec` names a scenario as (family, params, seed) *data*;
* the **registry** maps family names to pluggable generators and holds
  the built-in catalog — the 21 legacy SPEC caricatures plus key-value,
  graph, stencil/BLAS, GUPS and phase-mix scenarios;
* the **sampling engine** synthesizes traces from declarative models,
  drawing whole batches of uniforms from one seeded stream;
* the **binary trace format** captures generated traces for replay, so a
  sweep pays generation once per scenario.

Importing the package registers the built-in families and catalog.
"""

from repro.scenarios import families as _families  # noqa: F401 - registers the catalog
from repro.scenarios.families import default_sweep
from repro.scenarios.registry import (
    GeneratorFamily,
    build_trace,
    families,
    family,
    register_family,
    register_scenario,
    scenario,
    scenarios,
)
from repro.scenarios.sampling import (
    GridSweepRegion,
    Region,
    SequentialRegion,
    TraceModel,
    UniformRegion,
    UniformSource,
    ZipfRegion,
    synthesize_trace,
)
from repro.scenarios.spec import ScenarioSpec
from repro.scenarios.tracefile import (
    TraceFormatError,
    load_trace,
    read_meta,
    records_bytes,
    save_trace,
)

__all__ = [
    "GeneratorFamily",
    "GridSweepRegion",
    "Region",
    "ScenarioSpec",
    "SequentialRegion",
    "TraceFormatError",
    "TraceModel",
    "UniformRegion",
    "UniformSource",
    "ZipfRegion",
    "build_trace",
    "default_sweep",
    "families",
    "family",
    "load_trace",
    "read_meta",
    "records_bytes",
    "register_family",
    "register_scenario",
    "save_trace",
    "scenario",
    "scenarios",
    "synthesize_trace",
]
