"""Full-report generation.

Runs every experiment of the reproduction and renders one self-contained
report (markdown plus optional CSV files), so a complete paper-vs-measured
refresh is a single command::

    python -m repro.cli report --output results/

The experiment sizes are parameters; the defaults match the ones used in
EXPERIMENTS.md.
"""

from __future__ import annotations

import csv
import os
from contextlib import nullcontext
from typing import Dict, List, Optional

from repro.experiments import (
    ablations,
    fig4_conventional,
    fig5_dnuca,
    fig6_scenarios,
    table2_area,
    table3_hits,
)
from repro.experiments.common import (
    DEFAULT_INSTRUCTIONS,
    DEFAULT_PER_CATEGORY,
    format_energy_rows,
    format_ipc_rows,
)
from repro.sim.plan import collect_stats, simulator_version, use_store


def generate_report(
    num_instructions: int = DEFAULT_INSTRUCTIONS,
    per_category: int = DEFAULT_PER_CATEGORY,
    include_ablations: bool = False,
    ablation_instructions: int = 4000,
    workers: Optional[int] = None,
    cache=None,
    supervision=None,
    store=None,
) -> Dict[str, object]:
    """Run every experiment and return their raw results.

    ``cache`` (a :class:`~repro.sim.plan.ResultCache`) memoizes every
    underlying simulation; a warm re-run at the same simulator version
    performs zero simulation and reproduces the report byte-identically.
    ``store`` (a :class:`~repro.sim.store.ResultStore`) backs the same
    summaries one tier further out: cache misses are answered from it —
    still byte-identical, still zero simulation — and every landed
    result is inserted, so the report corpus stays queryable.

    Degraded execution (worker retries, timeouts or quarantined jobs) is
    recorded under ``provenance["execution"]`` so it is visible in
    committed artifacts; a healthy run records nothing, which keeps warm
    re-runs byte-identical to cold ones.
    """
    # use_store(None) would *clear* a store the caller (the CLI's --store)
    # already installed, so only override when one was passed explicitly.
    store_context = use_store(store) if store is not None else nullcontext()
    with collect_stats() as stats, store_context:
        return _generate_report_inner(
            num_instructions, per_category, include_ablations,
            ablation_instructions, workers, cache, supervision, stats,
        )


def _generate_report_inner(
    num_instructions, per_category, include_ablations, ablation_instructions,
    workers, cache, supervision, stats,
) -> Dict[str, object]:
    fig4 = fig4_conventional.run(
        num_instructions=num_instructions,
        per_category=per_category,
        workers=workers,
        cache=cache,
        supervision=supervision,
    )
    report: Dict[str, object] = {
        "table2": table2_area.run(),
        "fig4": fig4,
        "table3": table3_hits.run(results=fig4["results"]),
        "fig5": fig5_dnuca.run(
            num_instructions=num_instructions,
            per_category=per_category,
            workers=workers,
            cache=cache,
            supervision=supervision,
        ),
        "fig6": fig6_scenarios.run(
            num_instructions=num_instructions, workers=workers, cache=cache, supervision=supervision
        ),
        "parameters": {
            "num_instructions": num_instructions,
            "per_category": per_category,
        },
        "provenance": {
            "command": (
                f"python -m repro.cli --instructions {num_instructions} "
                f"--per-category {per_category} report"
                + (" --with-ablations" if include_ablations else "")
            ),
            "git_commit": simulator_version(),
            "seeds": (
                "traces are deterministic: each WorkloadSpec carries a fixed seed "
                "(repro.cpu.workloads) and generation keys on (spec.seed, trace length); "
                "no global RNG is involved"
            ),
            "scenarios": (
                "Fig. 6 sweeps the scenario-engine catalog (repro.scenarios.families."
                "default_sweep); each ScenarioSpec carries a fixed seed and each "
                "catalog stream is pinned by its sha256 in "
                "tests/data/scenario_manifests.json"
            ),
        },
    }
    if include_ablations:
        report["ablations"] = ablations.run(
            ablation_instructions, workers=workers, cache=cache, supervision=supervision
        )
    # Only a degraded run leaves a mark: a healthy warm re-run must stay
    # byte-identical to a healthy cold one (the two-pass CI smoke diffs
    # the rendered artifacts).
    if stats.degraded():
        report["provenance"]["execution"] = (
            f"degraded: retries={stats.retries} timeouts={stats.timeouts} "
            f"quarantined={stats.quarantined}"
        )
    return report


def render_markdown(report: Dict[str, object]) -> str:
    """Render the report dictionary as a markdown document."""
    lines: List[str] = ["# Light NUCA reproduction — experiment report", ""]
    params = report["parameters"]
    lines.append(
        f"Run parameters: {params['num_instructions']} instructions per workload, "
        f"{params['per_category']} workloads per category."
    )
    provenance = report.get("provenance")
    if provenance:
        lines += [
            "",
            f"Generated by: `{provenance['command']}`",
            f"Simulator commit: `{provenance['git_commit']}`",
            f"Seeds: {provenance['seeds']}.",
        ]
        if provenance.get("execution"):
            lines.append(f"Execution health: {provenance['execution']}.")

    lines += ["", "## Table II — area", ""]
    for row in report["table2"]:
        lines.append(
            f"* {row['configuration']}: {row['total_area_mm2']:.3f} mm² "
            f"(network {row['network_area_mm2']:.3f} mm², {row['network_percentage']:.1f} %)"
        )

    lines += ["", "## Figure 4(a) — IPC (conventional scenario)", "", "```"]
    lines += format_ipc_rows(report["fig4"]["ipc"], "L2-256KB")
    lines += ["```", "", "## Figure 4(b) — energy normalised to L2-256KB", "", "```"]
    lines += format_energy_rows(report["fig4"]["energy"])
    lines += ["```", "", "## Table III — hits per level", ""]
    for system, categories in report["table3"].items():
        for category, row in categories.items():
            ratio = row["avg_min_transport_ratio"]
            ratio_text = f"{ratio:.3f}" if ratio is not None else "n/a"
            lines.append(
                f"* {system} ({category}): Le2 {row['le2_pct']:.1f} %, Le3 {row['le3_pct']:.1f} %, "
                f"Le4 {row['le4_pct']:.1f} %, transport avg/min {ratio_text}"
            )

    lines += ["", "## Figure 5(a) — IPC (D-NUCA scenario)", "", "```"]
    lines += format_ipc_rows(report["fig5"]["ipc"], "DN-4x8")
    lines += ["```", "", "## Figure 5(b) — energy normalised to DN-4x8", "", "```"]
    lines += format_energy_rows(report["fig5"]["energy"])
    lines += ["```"]

    lines += [
        "",
        "## Figure 6 — scenario sweep (beyond the paper)",
        "",
        "Per-scenario IPC of one representative of each hierarchy type on the "
        "scenario-engine catalog (key-value serving, graph traversal, "
        "stencil/BLAS, GUPS, phase mixes); `best gain` is the best "
        "non-baseline organisation versus L2-256KB.",
    ]
    if provenance and provenance.get("scenarios"):
        lines.append(f"Provenance: {provenance['scenarios']}.")
    lines += ["", "```"]
    lines += fig6_scenarios.format_rows(report["fig6"])
    lines += ["```"]

    if "ablations" in report:
        lines += ["", "## Ablations", ""]
        for name, values in report["ablations"].items():
            lines.append(f"* {name}: {values}")
    lines.append("")
    return "\n".join(lines)


def write_csv_files(report: Dict[str, object], directory: str) -> List[str]:
    """Write the IPC and energy series as CSV files; return the paths."""
    os.makedirs(directory, exist_ok=True)
    written: List[str] = []

    def dump(name: str, header: List[str], rows: List[List[object]]) -> None:
        path = os.path.join(directory, name)
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(header)
            writer.writerows(rows)
        written.append(path)

    dump(
        "table2_area.csv",
        ["configuration", "cache_area_mm2", "network_area_mm2", "total_area_mm2"],
        [
            [r["configuration"], r["cache_area_mm2"], r["network_area_mm2"], r["total_area_mm2"]]
            for r in report["table2"]
        ],
    )
    for figure, baseline in (("fig4", "L2-256KB"), ("fig5", "DN-4x8")):
        ipc = report[figure]["ipc"]
        dump(
            f"{figure}a_ipc.csv",
            ["configuration", "int_ipc", "fp_ipc"],
            [[name, values.get("int", 0.0), values.get("fp", 0.0)] for name, values in ipc.items()],
        )
        energy = report[figure]["energy"]
        dump(
            f"{figure}b_energy.csv",
            ["configuration", "dyn", "sta_L1_RT", "sta_L2_RESTT", "sta_L3_DNUCA"],
            [
                [
                    name,
                    groups.get("dyn", 0.0),
                    groups.get("sta_L1_RT", 0.0),
                    groups.get("sta_L2_RESTT", 0.0),
                    groups.get("sta_L3_DNUCA", 0.0),
                ]
                for name, groups in energy.items()
            ],
        )
    fig6 = report["fig6"]
    dump(
        "fig6_scenarios.csv",
        ["scenario"] + list(fig6["systems"]),
        [
            [scenario_name] + [by_system.get(system, "") for system in fig6["systems"]]
            for scenario_name, by_system in fig6["ipc"].items()
        ],
    )
    dump(
        "table3_hits.csv",
        ["configuration", "category", "le2_pct", "le3_pct", "le4_pct", "all_levels_pct",
         "avg_min_transport_ratio"],
        [
            [system, category, row["le2_pct"], row["le3_pct"], row["le4_pct"],
             row["all_levels_pct"],
             # empty field, not 0.0, when there were no transport deliveries
             "" if row["avg_min_transport_ratio"] is None
             else row["avg_min_transport_ratio"]]
            for system, categories in report["table3"].items()
            for category, row in categories.items()
        ],
    )
    return written


def write_report(
    directory: str,
    num_instructions: int = DEFAULT_INSTRUCTIONS,
    per_category: int = DEFAULT_PER_CATEGORY,
    include_ablations: bool = False,
    workers: Optional[int] = None,
    cache=None,
    supervision=None,
    store=None,
) -> str:
    """Generate the report, write markdown + CSVs into ``directory``.

    ``workers`` parallelises the underlying sweeps, ``cache`` memoizes
    them, and ``store`` answers cache misses from the SQLite result
    store; the emitted artifacts are byte-identical to a sequential,
    uncached run, so none of them is recorded in the provenance command
    line.
    """
    report = generate_report(
        num_instructions=num_instructions,
        per_category=per_category,
        include_ablations=include_ablations,
        workers=workers,
        cache=cache,
        supervision=supervision,
        store=store,
    )
    # The recorded command must reproduce this file, so it also carries the
    # output directory the caller chose.
    report["provenance"]["command"] += f" --output {directory}"
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, "REPORT.md")
    with open(path, "w") as handle:
        handle.write(render_markdown(report))
    write_csv_files(report, directory)
    return path
