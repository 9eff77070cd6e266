"""Built-in generator families and the scenario catalog.

Six families ship with the engine:

* ``spec2006`` — the legacy SPEC-caricature generator, ported onto the
  registry *unchanged*: it delegates to
  :func:`repro.cpu.workloads.generate_trace`, so registry-generated
  traces are bit-identical to the historical ones (enforced by test);
* ``zipf-kv`` — a key-value server: Zipf-popular record reads, a hot
  metadata/index set, read-modify-write updates, an append-only log;
* ``graph-chase`` — graph traversal/BFS: power-law vertex popularity,
  heavy pointer chasing (serialised misses), a streaming frontier queue;
* ``stencil`` — 2-D stencil / dense-linear-algebra sweeps: grid walks
  with neighbour taps, high FP intensity, few well-predicted branches;
* ``gups`` — GUPS-style random update: read-modify-write pairs scattered
  uniformly over a table far larger than any cache;
* ``phase-mix`` — phase-alternating composition of any other families,
  exercising replacement/adaptation as the working set abruptly changes.

The catalog at the bottom registers the 21 legacy workloads (tag
``legacy``) and the new scenario instances (tag ``new``) built from these
families.
"""

from __future__ import annotations

from dataclasses import fields as dataclass_fields
from typing import List, Mapping, Optional

from repro.common.errors import ConfigurationError
from repro.cpu.trace import Trace
from repro.cpu.workloads import _HOT_BASE, WorkloadSpec, full_suite, generate_trace
from repro.scenarios.registry import (
    build_trace,
    merge_params,
    model_family,
    register_family,
    register_scenario,
)
from repro.scenarios.sampling import (
    GridSweepRegion,
    SequentialRegion,
    TraceModel,
    UniformRegion,
    ZipfRegion,
)
from repro.scenarios.spec import ScenarioSpec

# Region bases, disjoint from the legacy generator's 0x1000_0000..0x4000_0000
# ranges so mixed sweeps never alias across scenarios' resident sets.  The
# small hot/control region deliberately shares the legacy `_HOT_BASE`
# (imported above) so scenario and legacy traces agree on where hot data
# lives.
_KV_BASE = 0x5000_0000
_GRAPH_BASE = 0x5800_0000
_STENCIL_BASE = 0x6000_0000
_OUTPUT_BASE = 0x6800_0000
_LOG_BASE = 0x6C00_0000
_GUPS_BASE = 0x7000_0000
_KERNEL_BASE = 0x7600_0000
_COLUMN_BASE = 0x7800_0000


# --------------------------------------------------------------------------- spec2006 (legacy port)
_LEGACY_PARAM_FIELDS = tuple(
    f.name for f in dataclass_fields(WorkloadSpec)
    if f.name not in ("name", "category", "seed")
)


@register_family(
    "spec2006",
    doc="Legacy SPEC CPU2006 caricatures (per-instruction reference generator)",
    default_params={
        name: getattr(WorkloadSpec("default", "int"), name) for name in _LEGACY_PARAM_FIELDS
    },
)
def _spec2006(spec: ScenarioSpec, num_instructions: int, seed: Optional[int]) -> Trace:
    params = merge_params("spec2006", spec.params)
    wspec = WorkloadSpec(name=spec.name, category=spec.category, seed=spec.seed, **params)
    return generate_trace(wspec, num_instructions, seed)


# --------------------------------------------------------------------------- zipf-kv
@model_family(
    "zipf-kv",
    doc="Key-value server: Zipf record reads, RMW updates, append-only log",
    default_params={
        "num_keys": 4096,
        "record_bytes": 128,
        "skew": 0.99,
        "update_fraction": 0.25,
        "meta_kb": 24.0,
        "log_kb": 4096.0,
        "key_weight": 0.60,
        "meta_weight": 0.32,
        "log_weight": 0.08,
    },
)
def _zipf_kv(p: Mapping[str, object]) -> TraceModel:
    return TraceModel(
        load_fraction=0.30,
        store_fraction=0.14,
        branch_fraction=0.15,
        mispredict_rate=0.05,
        dep_density=0.80,
        rmw_fraction=float(p["update_fraction"]),
        regions=(
            ZipfRegion(
                weight=float(p["key_weight"]),
                base=_KV_BASE,
                num_items=int(p["num_keys"]),
                item_bytes=int(p["record_bytes"]),
                exponent=float(p["skew"]),
            ),
            UniformRegion(
                weight=float(p["meta_weight"]),
                base=_HOT_BASE,
                span_bytes=int(float(p["meta_kb"]) * 1024),
            ),
            SequentialRegion(
                weight=float(p["log_weight"]),
                base=_LOG_BASE,
                span_bytes=int(float(p["log_kb"]) * 1024),
                stride=64,
                transient=True,
            ),
        ),
    )


# --------------------------------------------------------------------------- graph-chase
@model_family(
    "graph-chase",
    doc="Graph pointer-chase/BFS: power-law vertices, serialised misses",
    default_params={
        "num_vertices": 120_000,
        "vertex_bytes": 16,
        "hub_exponent": 0.8,
        "chase_fraction": 0.65,
        "frontier_kb": 512.0,
        "work_kb": 16.0,
    },
)
def _graph_chase(p: Mapping[str, object]) -> TraceModel:
    return TraceModel(
        load_fraction=0.34,
        store_fraction=0.08,
        branch_fraction=0.19,
        mispredict_rate=0.11,
        dep_density=0.85,
        pointer_chase_fraction=float(p["chase_fraction"]),
        regions=(
            ZipfRegion(
                weight=0.50,
                base=_GRAPH_BASE,
                num_items=int(p["num_vertices"]),
                item_bytes=int(p["vertex_bytes"]),
                exponent=float(p["hub_exponent"]),
            ),
            UniformRegion(
                weight=0.30, base=_HOT_BASE, span_bytes=int(float(p["work_kb"]) * 1024)
            ),
            SequentialRegion(
                weight=0.20,
                base=_LOG_BASE,
                span_bytes=int(float(p["frontier_kb"]) * 1024),
                stride=64,
                transient=True,
            ),
        ),
    )


# --------------------------------------------------------------------------- stencil
@model_family(
    "stencil",
    doc="2-D stencil / dense linear algebra: grid sweeps with neighbour taps",
    default_params={
        "rows": 288,
        "cols": 512,
        "elem_bytes": 8,
        "center_weight": 0.4,
        "coeff_kb": 16.0,
        "fp_fraction": 0.55,
        "output_weight": 0.18,
    },
)
def _stencil(p: Mapping[str, object]) -> TraceModel:
    rows, cols = int(p["rows"]), int(p["cols"])
    elem = int(p["elem_bytes"])
    center = float(p["center_weight"])
    side = (1.0 - center) / 4.0
    return TraceModel(
        load_fraction=0.30,
        store_fraction=0.12,
        branch_fraction=0.05,
        fp_fraction=float(p["fp_fraction"]),
        mispredict_rate=0.015,
        dep_density=0.70,
        regions=(
            GridSweepRegion(
                weight=0.82 - float(p["output_weight"]),
                base=_STENCIL_BASE,
                rows=rows,
                cols=cols,
                elem_bytes=elem,
                taps=((0, center), (1, side), (-1, side), (cols, side), (-cols, side)),
            ),
            UniformRegion(
                weight=0.18, base=_HOT_BASE, span_bytes=int(float(p["coeff_kb"]) * 1024)
            ),
            SequentialRegion(
                weight=float(p["output_weight"]),
                base=_OUTPUT_BASE,
                span_bytes=rows * cols * elem,
                stride=64,
                transient=True,
            ),
        ),
    )


# --------------------------------------------------------------------------- gups
@model_family(
    "gups",
    doc="GUPS-style random update: RMW pairs over a cache-busting table",
    default_params={
        "table_mb": 48,
        "control_kb": 8.0,
        "update_fraction": 0.85,
        "table_weight": 0.85,
    },
)
def _gups(p: Mapping[str, object]) -> TraceModel:
    table_weight = float(p["table_weight"])
    return TraceModel(
        load_fraction=0.30,
        store_fraction=0.26,
        branch_fraction=0.06,
        mispredict_rate=0.03,
        dep_density=0.55,
        rmw_fraction=float(p["update_fraction"]),
        regions=(
            UniformRegion(
                weight=table_weight,
                base=_GUPS_BASE,
                span_bytes=int(p["table_mb"]) * 1024 * 1024,
                transient=True,
            ),
            UniformRegion(
                weight=1.0 - table_weight,
                base=_HOT_BASE,
                span_bytes=int(float(p["control_kb"]) * 1024),
            ),
        ),
    )


# --------------------------------------------------------------------------- compute-kernel
@model_family(
    "compute-kernel",
    doc="Compute-bound unrolled kernel: register-resident FMA/ALU streams",
    default_params={
        "load_fraction": 0.004,
        "store_fraction": 0.001,
        "branch_fraction": 0.012,
        "fp_fraction": 0.30,
        "dep_density": 0.04,
        "mispredict_rate": 0.0004,
        "buffer_kb": 24.0,
    },
)
def _compute_kernel(p: Mapping[str, object]) -> TraceModel:
    """Blocked, unrolled inner kernels (BLAS-1/FMA style): nearly every
    operand lives in registers, the few memory touches hit a small hot
    buffer, branches are loop back-edges the predictor nails, and
    aggressive unrolling keeps the in-flight dependence density low, so
    the trace is long pure-ALU runs between rare memory operations."""
    return TraceModel(
        load_fraction=float(p["load_fraction"]),
        store_fraction=float(p["store_fraction"]),
        branch_fraction=float(p["branch_fraction"]),
        fp_fraction=float(p["fp_fraction"]),
        mispredict_rate=float(p["mispredict_rate"]),
        dep_density=float(p["dep_density"]),
        regions=(
            UniformRegion(
                weight=1.0,
                base=_KERNEL_BASE,
                span_bytes=int(float(p["buffer_kb"]) * 1024),
            ),
        ),
    )


# --------------------------------------------------------------------------- column-scan
@model_family(
    "column-scan",
    doc="OLAP column scan: streamed columns, group-by hash table, aggregates",
    default_params={
        "num_columns": 4,
        "column_mb": 8.0,
        "group_keys": 4096,
        "key_bytes": 64,
        "group_skew": 0.6,
        "agg_kb": 24.0,
        "scan_weight": 0.55,
        "group_weight": 0.30,
        "branch_fraction": 0.17,
        "mispredict_rate": 0.02,
    },
)
def _column_scan(p: Mapping[str, object]) -> TraceModel:
    """Analytic table scan with grouped aggregation: the scan streams the
    projected columns sequentially (transient — a scan never revisits a
    block), probes a group-by hash table whose key popularity is skewed,
    and updates per-group aggregate state.  Predicate branches are mostly
    well predicted (selectivities are stable within a run)."""
    num_columns = int(p["num_columns"])
    if num_columns < 1:
        raise ConfigurationError("column-scan needs at least one column")
    column_bytes = int(float(p["column_mb"]) * 1024 * 1024)
    scan_weight = float(p["scan_weight"])
    group_weight = float(p["group_weight"])
    agg_weight = 1.0 - scan_weight - group_weight
    if agg_weight <= 0.0:
        raise ConfigurationError("scan_weight + group_weight must leave room for aggregates")
    columns = tuple(
        SequentialRegion(
            weight=scan_weight / num_columns,
            base=_COLUMN_BASE + index * column_bytes,
            span_bytes=column_bytes,
            stride=64,
            transient=True,
        )
        for index in range(num_columns)
    )
    return TraceModel(
        load_fraction=0.33,
        store_fraction=0.08,
        branch_fraction=float(p["branch_fraction"]),
        mispredict_rate=float(p["mispredict_rate"]),
        dep_density=0.60,
        rmw_fraction=0.45,
        regions=columns + (
            ZipfRegion(
                weight=group_weight,
                base=_HOT_BASE,
                num_items=int(p["group_keys"]),
                item_bytes=int(p["key_bytes"]),
                exponent=float(p["group_skew"]),
            ),
            UniformRegion(
                weight=agg_weight,
                base=_KERNEL_BASE + 0x100_0000,
                span_bytes=int(float(p["agg_kb"]) * 1024),
            ),
        ),
    )


# --------------------------------------------------------------------------- phase-mix
@register_family(
    "phase-mix",
    doc="Phase-alternating mix: cycles through sub-scenarios of any family",
    default_params={"phases": (), "phase_length": 2500},
)
def _phase_mix(spec: ScenarioSpec, num_instructions: int, seed: Optional[int]) -> Trace:
    params = merge_params("phase-mix", spec.params)
    phases = tuple(params["phases"])
    phase_length = int(params["phase_length"])
    if not phases:
        raise ConfigurationError(f"phase-mix scenario {spec.name!r} needs at least one phase")
    if phase_length < 1:
        raise ConfigurationError("phase_length must be positive")

    sections = []
    remaining = num_instructions
    phase_index = 0
    while remaining > 0:
        chunk = min(phase_length, remaining)
        phase = phases[phase_index % len(phases)]
        sub_spec = ScenarioSpec(
            name=f"{spec.name}#phase{phase_index}",
            family=str(phase["family"]),
            category=spec.category,
            params=dict(phase.get("params", {})),
            # Decorrelate phases of the same family while staying a pure
            # function of (scenario seed, phase index).
            seed=spec.seed * 1_000_003 + phase_index,
        )
        sections.append(build_trace(sub_spec, chunk, seed).records)
        remaining -= chunk
        phase_index += 1
    return Trace(spec.name, spec.category, b"".join(sections))


# --------------------------------------------------------------------------- catalog
def _register_catalog() -> None:
    for wspec in full_suite():
        register_scenario(
            ScenarioSpec(
                name=wspec.name,
                family="spec2006",
                category=wspec.category,
                params={name: getattr(wspec, name) for name in _LEGACY_PARAM_FIELDS},
                seed=wspec.seed,
                description=f"legacy SPEC caricature ({wspec.category})",
                tags=("legacy", "spec2006"),
            )
        )

    new = [
        ScenarioSpec(
            name="kv-zipf-hot",
            family="zipf-kv",
            category="server",
            seed=101,
            description="skewed key-value serving (zipf 0.99, 25% updates)",
            tags=("new", "server"),
        ),
        ScenarioSpec(
            name="kv-uniform-churn",
            family="zipf-kv",
            category="server",
            params={"skew": 0.2, "update_fraction": 0.5, "num_keys": 16384},
            seed=102,
            description="update-heavy key-value store with flat key popularity",
            tags=("new", "server"),
        ),
        ScenarioSpec(
            name="graph-bfs",
            family="graph-chase",
            category="graph",
            seed=111,
            description="BFS-style traversal with power-law vertex popularity",
            tags=("new", "graph"),
        ),
        ScenarioSpec(
            name="graph-hub-chase",
            family="graph-chase",
            category="graph",
            params={"hub_exponent": 1.2, "chase_fraction": 0.8, "num_vertices": 60_000},
            seed=112,
            description="hub-dominated pointer chasing (mcf on steroids)",
            tags=("new", "graph"),
        ),
        ScenarioSpec(
            name="stencil-2d5p",
            family="stencil",
            category="hpc",
            seed=121,
            description="5-point 2-D stencil sweep over a ~1.2 MB grid",
            tags=("new", "hpc"),
        ),
        ScenarioSpec(
            name="dense-blas3",
            family="stencil",
            category="hpc",
            params={"rows": 192, "cols": 192, "center_weight": 0.6, "fp_fraction": 0.68,
                    "output_weight": 0.10},
            seed=122,
            description="blocked dense-linear-algebra caricature (BLAS-3 reuse)",
            tags=("new", "hpc"),
        ),
        ScenarioSpec(
            name="gups-48m",
            family="gups",
            category="update",
            seed=131,
            description="GUPS random update over a 48 MB table (cache-busting)",
            tags=("new", "update"),
        ),
        ScenarioSpec(
            name="gups-8m",
            family="gups",
            category="update",
            params={"table_mb": 8},
            seed=132,
            description="GUPS over an 8 MB table (fits the L3 / D-NUCA)",
            tags=("new", "update"),
        ),
        ScenarioSpec(
            name="fma-unroll",
            family="compute-kernel",
            category="hpc",
            seed=151,
            description="register-blocked unrolled FMA kernel (long pure-ALU spans)",
            tags=("new", "hpc", "alu"),
        ),
        ScenarioSpec(
            name="olap-scan-agg",
            family="column-scan",
            category="olap",
            seed=161,
            description="4-column OLAP scan with skewed group-by aggregation",
            tags=("new", "olap"),
        ),
        ScenarioSpec(
            name="phase-kv-stencil",
            family="phase-mix",
            category="mixed",
            params={
                "phases": (
                    {"family": "zipf-kv", "params": {}},
                    {"family": "stencil", "params": {}},
                ),
            },
            seed=141,
            description="alternating key-value and stencil phases",
            tags=("new", "mixed"),
        ),
        ScenarioSpec(
            name="phase-gups-graph",
            family="phase-mix",
            category="mixed",
            params={
                "phases": (
                    {"family": "gups", "params": {"table_mb": 8}},
                    {"family": "graph-chase", "params": {}},
                ),
            },
            seed=142,
            description="alternating random-update and graph-chase phases",
            tags=("new", "mixed"),
        ),
    ]
    for spec in new:
        register_scenario(spec)


_register_catalog()


def default_sweep() -> List[ScenarioSpec]:
    """The scenarios swept by the ``fig6`` experiment: one or two
    instances of every new family."""
    from repro.scenarios.registry import scenario

    return [
        scenario(name)
        for name in (
            "kv-zipf-hot",
            "kv-uniform-churn",
            "graph-bfs",
            "stencil-2d5p",
            "dense-blas3",
            "gups-8m",
            "phase-kv-stencil",
        )
    ]
