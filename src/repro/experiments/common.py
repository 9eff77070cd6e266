"""Shared helpers for the experiment modules.

Every experiment compiles its sweep through :func:`figure_run` /
:func:`repro.sim.runner.run_suite` onto the declarative plan layer
(:mod:`repro.sim.plan`), so the builder dictionaries here are *digestable*
:class:`~repro.sim.configs.BuilderSpec` registries — the identity that keys
the content-addressed result cache.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional

from repro.cpu.workloads import WorkloadSpec, fp_suite, integer_suite
from repro.energy.accounting import ALL_GROUPS, EnergyBreakdown
from repro.sim.configs import (
    BuilderSpec,
    build_accountant,
    conventional_spec,
    dnuca_spec,
    lnuca_dnuca_spec,
    lnuca_l3_spec,
)
from repro.sim.memsys import MemorySystem
from repro.sim.runner import RunResult, ipc_by_category, run_suite

SystemBuilder = Callable[[], MemorySystem]

#: Default trace length per workload.  The paper simulates 100 M instructions
#: after a 200 M warm-up; the reproduction uses short traces plus functional
#: warm-up (see DESIGN.md) so that every figure regenerates in minutes.
DEFAULT_INSTRUCTIONS = 15000

#: Default number of workloads per category (int / fp) taken from the
#: synthetic suite.  Raise towards 10+ for the full-suite runs.
DEFAULT_PER_CATEGORY = 3


def select_workloads(per_category: int = DEFAULT_PER_CATEGORY) -> List[WorkloadSpec]:
    """Pick ``per_category`` integer and floating-point workloads.

    The picks are spread across each suite so the mix of behaviours
    (pointer-chasing, streaming, small/large working sets) is preserved.
    """
    def spread(specs: List[WorkloadSpec]) -> List[WorkloadSpec]:
        if per_category >= len(specs):
            return list(specs)
        step = len(specs) / per_category
        return [specs[int(i * step)] for i in range(per_category)]

    return spread(integer_suite()) + spread(fp_suite())


def conventional_builders() -> Dict[str, BuilderSpec]:
    """The four configurations of Fig. 4: baseline plus LN2/LN3/LN4 + L3."""
    return {
        "L2-256KB": conventional_spec(),
        "LN2-72KB": lnuca_l3_spec(2),
        "LN3-144KB": lnuca_l3_spec(3),
        "LN4-248KB": lnuca_l3_spec(4),
    }


def dnuca_builders() -> Dict[str, BuilderSpec]:
    """The four configurations of Fig. 5: DN-4x8 plus LN2/LN3/LN4 + DN-4x8."""
    return {
        "DN-4x8": dnuca_spec(),
        "LN2+DN-4x8": lnuca_dnuca_spec(2),
        "LN3+DN-4x8": lnuca_dnuca_spec(3),
        "LN4+DN-4x8": lnuca_dnuca_spec(4),
    }


def figure_run(
    builders: Dict[str, BuilderSpec],
    baseline: str,
    num_instructions: int = DEFAULT_INSTRUCTIONS,
    per_category: int = DEFAULT_PER_CATEGORY,
    results: Optional[List[RunResult]] = None,
    workers: Optional[int] = None,
    cache=None,
    supervision=None,
) -> Dict[str, object]:
    """The shared IPC + normalised-energy figure pipeline (Figs. 4 and 5).

    Sweeps ``builders`` over :func:`select_workloads` (unless ``results``
    carries a pre-run sweep) and returns the figure dictionary:

    * ``"ipc"`` — ``{configuration: {"int": hmean, "fp": hmean}}``;
    * ``"energy"`` — ``{configuration: {group: fraction-of-baseline}}``;
    * ``"results"`` — the raw per-workload :class:`RunResult` list.

    ``workers`` fans the sweep over forked processes and ``cache`` memoizes
    finished runs on disk; both are result-identical to a sequential,
    uncached sweep.
    """
    if results is None:
        specs = select_workloads(per_category)
        results = run_suite(
            builders, specs, num_instructions, workers=workers, cache=cache,
            supervision=supervision,
        )
    ipc = ipc_by_category(results)
    totals = total_energy_by_system(results, builders)
    energy = normalised_energy(totals, baseline)
    return {"ipc": ipc, "energy": energy, "results": results}


def print_figure(
    report: Dict[str, object], baseline: str, ipc_title: str, energy_title: str
) -> None:
    """Print one figure's IPC and energy panels (shared by fig4/fig5 mains)."""
    print(ipc_title)
    for line in format_ipc_rows(report["ipc"], baseline):
        print("  " + line)
    print()
    print(energy_title)
    for line in format_energy_rows(report["energy"]):
        print("  " + line)


def total_energy_by_system(
    results: Iterable[RunResult], builders: Dict[str, SystemBuilder]
) -> Dict[str, EnergyBreakdown]:
    """Sum the per-run energy breakdown over all workloads, per system.

    Registry specs carry their energy model, so no hierarchy is built; only
    ad hoc builders are built once to read their composition.
    """
    accountants = {
        name: builder.energy()
        if isinstance(builder, BuilderSpec) and builder.energy is not None
        else build_accountant(builder())
        for name, builder in builders.items()
    }
    totals: Dict[str, EnergyBreakdown] = {
        name: EnergyBreakdown({group: 0.0 for group in ALL_GROUPS}) for name in builders
    }
    for result in results:
        accountant = accountants[result.system]
        breakdown = accountant.evaluate(result.activity, result.cycles)
        totals[result.system] = totals[result.system].merged(breakdown)
    return totals


def normalised_energy(
    totals: Dict[str, EnergyBreakdown], baseline: str
) -> Dict[str, Dict[str, float]]:
    """Normalise every system's stacked energy to the baseline total.

    This is exactly how Figs. 4(b) and 5(b) are drawn: each bar is split
    into dynamic, static L1/r-tile, static L2 (or rest of tiles), and static
    L3 (or D-NUCA), all as fractions of the baseline configuration's total.
    """
    base = totals[baseline]
    return {name: breakdown.normalized_to(base) for name, breakdown in totals.items()}


def format_ipc_rows(ipc: Dict[str, Dict[str, float]], baseline: str) -> List[str]:
    """Render the harmonic-mean IPC table as printable rows."""
    lines = [f"{'configuration':<14} {'Int IPC':>8} {'FP IPC':>8} {'Int gain':>9} {'FP gain':>9}"]
    base = ipc[baseline]
    for name, values in ipc.items():
        int_ipc = values.get("int", 0.0)
        fp_ipc = values.get("fp", 0.0)
        int_gain = 100.0 * (int_ipc / base["int"] - 1.0) if base.get("int") else 0.0
        fp_gain = 100.0 * (fp_ipc / base["fp"] - 1.0) if base.get("fp") else 0.0
        lines.append(
            f"{name:<14} {int_ipc:>8.3f} {fp_ipc:>8.3f} {int_gain:>+8.1f}% {fp_gain:>+8.1f}%"
        )
    return lines


def format_energy_rows(normalised: Dict[str, Dict[str, float]]) -> List[str]:
    """Render the normalised stacked-energy table as printable rows."""
    lines = [
        f"{'configuration':<14} {'dyn':>7} {'sta L1-RT':>10} {'sta L2/RESTT':>13} "
        f"{'sta L3/DNUCA':>13} {'total':>7}"
    ]
    for name, groups in normalised.items():
        total = sum(groups.values())
        lines.append(
            f"{name:<14} {groups.get('dyn', 0.0):>7.3f} {groups.get('sta_L1_RT', 0.0):>10.3f} "
            f"{groups.get('sta_L2_RESTT', 0.0):>13.3f} {groups.get('sta_L3_DNUCA', 0.0):>13.3f} "
            f"{total:>7.3f}"
        )
    return lines
