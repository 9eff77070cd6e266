"""One simulator process of the end-to-end benchmark.

``e2e.py`` starts this script for every measured process; it is not meant
to be run by hand.  Two modes:

* ``cli`` imports :mod:`repro.cli` and calls ``repro.cli.main(argv)`` with
  the arguments after ``--`` (the same code path as ``python -m repro.cli``);
* ``fig4`` runs the default-size Fig. 4 sweep through ``run_suite`` with no
  result cache: one untimed first pass, then timed passes until there are
  at least ``MIN_PASSES`` and ``--seconds`` have passed.  It writes the
  Fig. 4 CSV files into ``--out`` and prints one JSON line with the pass
  timings.

``--seed`` other than 0 offsets the seed of every workload and scenario the
experiments select, by wrapping ``select_workloads`` and ``default_sweep``;
seed 0 runs the catalog unchanged.  ``--trace FILE`` runs under the span
recorder of :mod:`e2e_trace` and writes its summary to ``FILE`` (JSON) and
every span to ``FILE`` with the suffix ``.spans``.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import os
import resource
import sys
import time

#: Offset applied per unit of ``--seed`` to every catalog seed.  Catalog
#: seeds are below 200, so offsets never make two specs share a seed.
SEED_STRIDE = 1000

#: Timed Fig. 4 passes per process, at least.
MIN_PASSES = 3


def seeded(specs, seed: int) -> list:
    """``specs`` with every seed offset by ``seed * SEED_STRIDE``."""
    return [dataclasses.replace(spec, seed=spec.seed + seed * SEED_STRIDE) for spec in specs]


def apply_seed(seed: int) -> None:
    """Make the experiments select seeded workloads and scenarios."""
    if not seed:
        return
    from e2e_trace import rebind
    from repro.experiments import common, fig6_scenarios

    select_workloads = common.select_workloads
    default_sweep = fig6_scenarios.default_sweep

    def seeded_select_workloads(per_category=common.DEFAULT_PER_CATEGORY):
        return seeded(select_workloads(per_category), seed)

    rebind(select_workloads, seeded_select_workloads)
    rebind(default_sweep, lambda: seeded(default_sweep(), seed))


def fig4_csvs(figure) -> dict:
    """The Fig. 4 CSV files, byte for byte as ``write_csv_files`` writes them."""
    def render(header, rows) -> str:
        handle = io.StringIO(newline="")
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)
        return handle.getvalue()

    groups = ("dyn", "sta_L1_RT", "sta_L2_RESTT", "sta_L3_DNUCA")
    return {
        "fig4a_ipc.csv": render(
            ["configuration", "int_ipc", "fp_ipc"],
            [[name, v.get("int", 0.0), v.get("fp", 0.0)] for name, v in figure["ipc"].items()],
        ),
        "fig4b_energy.csv": render(
            ["configuration", *groups],
            [[name, *(g.get(k, 0.0) for k in groups)] for name, g in figure["energy"].items()],
        ),
    }


def run_fig4(args) -> dict:
    from repro.experiments import common, fig4_conventional
    from repro.sim.plan import collect_stats
    from repro.sim.runner import run_suite

    def one_pass() -> dict:
        before = resource.getrusage(resource.RUSAGE_SELF)
        start = time.perf_counter()
        with collect_stats() as stats:
            results = run_suite(
                common.conventional_builders(),
                common.select_workloads(common.DEFAULT_PER_CATEGORY),
                common.DEFAULT_INSTRUCTIONS,
            )
            figure = fig4_conventional.run(results=results)
        files = fig4_csvs(figure)
        wall = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_SELF)
        return {
            "wall_s": wall,
            "cpu_s": (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime),
            "instructions": sum(result.instructions for result in results),
            "stats": dataclasses.asdict(stats),
            "files": files,
        }

    first = one_pass()
    passes = []
    started = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - started < args.seconds:
        passes.append(one_pass())
    os.makedirs(args.out, exist_ok=True)
    for name, text in passes[-1]["files"].items():
        with open(os.path.join(args.out, name), "w", newline="") as handle:
            handle.write(text)
    return {"setup": first, "passes": passes}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("cli", "fig4"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", default=None)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--out", default=None)
    argv = sys.argv[1:] if argv is None else list(argv)
    split = argv.index("--") if "--" in argv else len(argv)
    args = parser.parse_args(argv[:split])
    cli_argv = argv[split + 1:]

    recorder = None
    if args.trace:
        import e2e_trace

        recorder = e2e_trace.Recorder()
        root = recorder.begin("root")
        imported = recorder.begin("import.repro_cli")
    import repro.cli

    if recorder is not None:
        recorder.end(imported)
    apply_seed(args.seed)
    if recorder is not None:
        e2e_trace.install(recorder)

    if args.mode == "cli":
        code = repro.cli.main(cli_argv)
        payload = None
    else:
        payload = run_fig4(args)
        code = 0

    if recorder is not None:
        recorder.end(root)
        from repro.sim.plan import worker_pool_stats

        summary = {
            "layers": recorder.summary(),
            "counters": recorder.counters,
            "ticks": recorder.top_level_calls(
                ("hier.conv.tick", "hier.lnuca.tick", "hier.dnuca.tick")
            ),
            "prewarms": recorder.top_level_calls(("hier.prewarm",)),
            "pool": worker_pool_stats(),
        }
        recorder.save(args.trace + ".spans")
        with open(args.trace, "w") as handle:
            json.dump(summary, handle)
    if payload is not None:
        print(json.dumps(payload))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
