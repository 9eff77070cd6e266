"""Command-line interface for the reproduction.

Examples::

    python -m repro.cli table2
    python -m repro.cli --instructions 15000 --per-category 4 fig4
    python -m repro.cli --workers 4 fig5
    python -m repro.cli table3
    python -m repro.cli ablations --instructions 4000
    python -m repro.cli report --output results/
    python -m repro.cli scenarios list
    python -m repro.cli scenarios generate --out traces/ --tag new
    python -m repro.cli --workers 4 scenarios run --traces-dir traces/
"""

from __future__ import annotations

import argparse
import os
from typing import List, Optional, Sequence

from repro.experiments import (
    ablations,
    fig4_conventional,
    fig5_dnuca,
    fig6_scenarios,
    table2_area,
    table3_hits,
)
from repro.experiments import report as report_module
from repro.experiments.common import DEFAULT_INSTRUCTIONS, DEFAULT_PER_CATEGORY


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed separately for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Regenerate the tables and figures of the Light NUCA paper (DATE 2009).",
    )
    parser.add_argument(
        "--instructions",
        type=int,
        default=DEFAULT_INSTRUCTIONS,
        help="instructions simulated per workload",
    )
    parser.add_argument(
        "--per-category",
        type=int,
        default=DEFAULT_PER_CATEGORY,
        help="workloads per category (integer / floating point)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="fan sweeps out over N persistent pool workers "
        "(result-identical to sequential; needs a fork-capable OS)",
    )
    parser.add_argument(
        "--pool-size",
        type=int,
        default=None,
        metavar="N",
        help="cap on idle workers kept in the persistent pool between "
        "sweeps (default: REPRO_POOL_SIZE or 8); excess workers are "
        "discarded instead of pooled",
    )
    parser.add_argument(
        "--pool-max-jobs",
        type=int,
        default=None,
        metavar="N",
        help="recycle a pool worker after it has run this many jobs "
        "(default: REPRO_POOL_MAX_JOBS, unlimited when unset); results "
        "are bit-identical either way",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the content-addressed result cache (default location "
        "~/.cache/repro-lnuca, override with REPRO_CACHE_DIR); cached and "
        "uncached runs are bit-identical",
    )
    parser.add_argument(
        "--cache-limit-mb",
        type=float,
        default=None,
        metavar="MB",
        help="size-cap the result cache: oldest-access entries are pruned "
        "once it exceeds this many megabytes (default: REPRO_CACHE_LIMIT_MB, "
        "unlimited when unset); surviving entries keep hitting bit-identically",
    )
    parser.add_argument(
        "--store",
        nargs="?",
        const="",
        default=None,
        metavar="PATH",
        help="also consult/feed the SQLite result store: cache misses are "
        "answered from it and every landed result is inserted "
        "(default path <cache dir>/results.sqlite or REPRO_STORE_PATH; "
        "pass a PATH to override).  'serve' and 'store' subcommands "
        "enable it automatically",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="print a single updating progress line per sweep "
        "(jobs done/total, cache/store hits, retries, quarantines)",
    )
    parser.add_argument(
        "--strict",
        action="store_true",
        help="abort the sweep with an error when a job is quarantined "
        "(default: quarantined jobs are excluded with a warning and the "
        "sweep completes)",
    )
    parser.add_argument(
        "--job-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock timeout per worker job (default: derived from the "
        "instruction budget); a timed-out worker is killed and the job "
        "retried on a fresh one",
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=None,
        metavar="N",
        help="retries per job before it is quarantined (default: 2)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("table2", help="Table II: conventional and L-NUCA areas")
    sub.add_parser("table3", help="Table III: hits per level and transport latency ratio")
    sub.add_parser("fig4", help="Figure 4: IPC and energy vs the conventional hierarchy")
    sub.add_parser("fig5", help="Figure 5: IPC and energy vs the D-NUCA hierarchy")
    sub.add_parser("ablations", help="Design-decision ablations")
    report = sub.add_parser("report", help="Run everything and write markdown + CSV files")
    report.add_argument("--output", default="results", help="output directory")
    report.add_argument(
        "--with-ablations", action="store_true", help="include the ablation sweeps"
    )

    scenarios = sub.add_parser(
        "scenarios", help="Scenario engine: list, generate, and run workload scenarios"
    )
    scen_sub = scenarios.add_subparsers(dest="scenarios_command", required=True)

    scen_list = scen_sub.add_parser(
        "list", help="List generator families and catalog scenarios"
    )
    scen_list.add_argument("--tag", default=None, help="only scenarios with this tag")

    scen_gen = scen_sub.add_parser(
        "generate", help="Generate scenario traces into binary capture files"
    )
    scen_gen.add_argument("--out", required=True, help="output directory for .lntr files")
    scen_gen.add_argument("--names", nargs="+", default=None, help="scenario names")
    scen_gen.add_argument("--tag", default=None, help="select scenarios by tag")

    scen_run = scen_sub.add_parser(
        "run", help="Sweep scenarios across the four hierarchy types"
    )
    scen_run.add_argument("--names", nargs="+", default=None, help="scenario names")
    scen_run.add_argument("--tag", default=None, help="select scenarios by tag")
    scen_run.add_argument(
        "--traces-dir",
        default=None,
        help="binary trace cache: replay existing .lntr files, capture missing ones",
    )
    scen_run.add_argument("--csv", default=None, help="also write the IPC table as CSV")

    cache_cmd = sub.add_parser(
        "cache", help="Inspect and maintain the on-disk result cache"
    )
    cache_sub = cache_cmd.add_subparsers(dest="cache_command", required=True)
    cache_verify = cache_sub.add_parser(
        "verify",
        help="scan the result cache for corrupt or truncated entries "
        "(deleting them, so they re-simulate instead of erroring)",
    )
    cache_verify.add_argument(
        "--keep",
        action="store_true",
        help="report corrupt entries without deleting them",
    )

    store_cmd = sub.add_parser(
        "store", help="Query and maintain the SQLite result store"
    )
    store_sub = store_cmd.add_subparsers(dest="store_command", required=True)
    store_sub.add_parser(
        "ingest",
        help="ETL existing result-cache entries into the store",
    )
    store_query = store_sub.add_parser(
        "query", help="filter stored results (newest first)"
    )
    store_query.add_argument("--label", default=None, help="hierarchy label")
    store_query.add_argument("--workload", default=None, help="workload/scenario name")
    store_query.add_argument("--category", default=None, help="int / fp / scenario category")
    store_query.add_argument("--version", default=None, help="simulator version")
    store_query.add_argument("--tag", default=None, help="scenario catalog tag")
    store_query.add_argument("--limit", type=int, default=None, help="max rows")
    store_query.add_argument(
        "--json", action="store_true", help="print rows as JSON lines"
    )
    store_sub.add_parser("stats", help="row counts and store file health")

    serve = sub.add_parser(
        "serve",
        help="Run the HTTP/JSON sweep service (POST /sweeps, GET /results, "
        "GET /healthz); repeated identical requests are answered from the "
        "store/cache without simulating",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=8080, help="bind port (0 picks an ephemeral one)"
    )
    serve.add_argument(
        "--verbose", action="store_true", help="log every HTTP request to stderr"
    )
    return parser


def _result_cache(args):
    """The CLI's result cache (``None`` with ``--no-cache``).

    Simulation results are memoized content-addressed on disk (see
    :mod:`repro.sim.plan`); a ``-dirty`` simulator tree bypasses the cache
    automatically, so this default is always safe.
    """
    if args.no_cache:
        if args.cache_limit_mb is not None:
            raise SystemExit("--cache-limit-mb has no effect with --no-cache")
        return None
    from repro.sim.plan import ResultCache

    return ResultCache.default(limit_mb=args.cache_limit_mb)


def _result_store(args, default_on: bool = False):
    """The CLI's SQLite result store (``None`` unless requested).

    ``--store`` (optionally with a path) enables it for any command;
    the ``serve`` and ``store`` subcommands enable it by default.
    """
    if args.store is None and not default_on:
        return None
    from repro.sim.store import ResultStore

    return ResultStore(args.store or None)


def _progress_printer():
    """A ``on_progress`` callback rendering one updating line per sweep."""
    import sys

    def show(done: int, total: int, stats) -> None:
        line = (
            f"\r[{done}/{total}] simulated={stats.simulated} "
            f"cached={stats.cached} store_hits={stats.store_hits} "
            f"retries={stats.retries} quarantined={stats.quarantined}"
        )
        # The sweep's final callback (done covers every non-quarantined
        # job) terminates the line.
        end = "\n" if done + stats.quarantined >= total else ""
        sys.stderr.write(line + end)
        sys.stderr.flush()

    return show


def _supervision(args):
    """A :class:`SupervisionPolicy` from the CLI flags (``None`` = defaults)."""
    if not args.strict and args.job_timeout is None and args.max_retries is None:
        return None
    from repro.sim.plan import SupervisionPolicy

    policy = SupervisionPolicy(strict=args.strict)
    if args.job_timeout is not None:
        policy.job_timeout = args.job_timeout
    if args.max_retries is not None:
        policy.max_retries = args.max_retries
    return policy


def _cache_verify(cache, keep: bool) -> None:
    report = cache.verify(delete=not keep)
    verb = "found" if keep else "deleted"
    print(
        f"cache {cache.directory}: {report['checked']} entries checked, "
        f"{report['corrupt']} corrupt ({verb}), "
        f"{report['stale_tmp']} stale tmp files ({verb})"
    )


def _select_scenarios(names: Optional[Sequence[str]], tag: Optional[str]) -> List:
    from repro.common.errors import ConfigurationError
    from repro.scenarios import default_sweep, scenario, scenarios

    if names and tag:
        raise ConfigurationError("--names and --tag are mutually exclusive")
    if names:
        return [scenario(name) for name in names]
    if tag:
        selected = scenarios(tag)
        if not selected:
            raise ConfigurationError(f"no scenarios carry the tag {tag!r}")
        return selected
    return default_sweep()


def _scenarios_list(tag: Optional[str]) -> None:
    from repro.scenarios import families, scenarios

    print("generator families:")
    for fam in families():
        print(f"  {fam.name:<12} {fam.doc}")
    print()
    print("scenarios:")
    for spec in scenarios(tag):
        tags = ",".join(spec.tags)
        print(f"  {spec.name:<18} {spec.family:<12} [{spec.category}] {spec.description}"
              f"{'  (' + tags + ')' if tags else ''}")


def _trace_path(directory: str, name: str, num_instructions: int) -> str:
    return os.path.join(directory, f"{name}-{num_instructions}.lntr")


def _capture_meta(spec) -> dict:
    """Provenance recorded in a captured trace's header.

    Delegates to the plan layer's canonical scenario signature (the same
    identity that keys the trace pool), so ``scenarios generate`` captures
    and pool entries are interchangeable.
    """
    from repro.sim.plan import scenario_signature

    return scenario_signature(spec)


def _scenarios_generate(
    out: str,
    names: Optional[Sequence[str]],
    tag: Optional[str],
    num_instructions: int,
) -> None:
    from repro.scenarios import build_trace, save_trace

    os.makedirs(out, exist_ok=True)
    for spec in _select_scenarios(names, tag):
        trace = build_trace(spec, num_instructions)
        path = _trace_path(out, spec.name, num_instructions)
        size = save_trace(trace, path, extra_meta=_capture_meta(spec))
        print(f"  {path}: {len(trace)} instructions, {size} bytes")


def _scenarios_run(
    names: Optional[Sequence[str]],
    tag: Optional[str],
    num_instructions: int,
    workers: Optional[int],
    traces_dir: Optional[str],
    csv_path: Optional[str],
    cache=None,
    supervision=None,
) -> None:
    from repro.sim.plan import TracePool

    specs = _select_scenarios(names, tag)
    # With --traces-dir the sweep replays from (and captures into) a
    # user-visible file-backed pool; stale or unreadable captures are
    # reported and regenerated by the pool itself.
    pool = TracePool(traces_dir, on_event=lambda msg: print(f"  {msg}")) if traces_dir else None
    report = fig6_scenarios.run(
        num_instructions=num_instructions,
        specs=specs,
        workers=workers,
        cache=cache,
        supervision=supervision,
        pool=pool,
    )
    print("Scenario sweep — IPC across the four hierarchy types")
    for line in fig6_scenarios.format_rows(report):
        print("  " + line)
    if csv_path:
        fig6_scenarios.write_csv(report, csv_path)
        print(f"csv written to {csv_path}")


def _store_ingest(store, cache) -> None:
    report = store.ingest_cache(cache)
    print(
        f"store {store.path}: ingested {report['ingested']} of "
        f"{report['scanned']} cache entries ({report['skipped']} unreadable)"
    )


def _store_query(store, args) -> None:
    import json as json_module

    rows = store.query(
        label=args.label,
        workload=args.workload,
        category=args.category,
        version=args.version,
        tag=args.tag,
        limit=args.limit,
    )
    if args.json:
        for row in rows:
            print(json_module.dumps(row, sort_keys=True))
        return
    if not rows:
        print("no matching rows")
        return
    print(f"{'label':<14} {'workload':<20} {'category':<10} {'ipc':>8} {'cycles':>12}")
    for row in rows:
        print(
            f"{row['label']:<14} {row['workload']:<20} {row['category']:<10} "
            f"{row['ipc']:>8.4f} {row['cycles']:>12.0f}"
        )


def _store_stats(store) -> None:
    stats = store.stats()
    print(
        f"store {stats['path']}: schema {stats['schema']}, {stats['rows']} rows, "
        f"{stats['labels']} labels, {stats['workloads']} workloads, "
        f"{stats['versions']} simulator versions, {stats['size_bytes']} bytes"
    )
    health = store.verify()
    print(f"integrity: {health['integrity']}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    from repro.sim.plan import configure_worker_pool, set_default_progress, use_store

    if args.pool_size is not None or args.pool_max_jobs is not None:
        configure_worker_pool(size=args.pool_size, max_jobs=args.pool_max_jobs)
    cache = _result_cache(args)
    supervision = _supervision(args)
    store = _result_store(args, default_on=args.command in ("serve", "store"))
    if args.progress:
        set_default_progress(_progress_printer())
    try:
        with use_store(store):
            return _dispatch(args, cache, store, supervision)
    finally:
        if args.progress:
            set_default_progress(None)
        if store is not None:
            store.close()


def _dispatch(args, cache, store, supervision) -> int:
    if args.command == "table2":
        table2_area.main()
    elif args.command == "table3":
        table3_hits.main(
            num_instructions=args.instructions,
            per_category=args.per_category,
            workers=args.workers,
            cache=cache,
            supervision=supervision,
        )
    elif args.command == "fig4":
        fig4_conventional.main(
            num_instructions=args.instructions,
            per_category=args.per_category,
            workers=args.workers,
            cache=cache,
            supervision=supervision,
        )
    elif args.command == "fig5":
        fig5_dnuca.main(
            num_instructions=args.instructions,
            per_category=args.per_category,
            workers=args.workers,
            cache=cache,
            supervision=supervision,
        )
    elif args.command == "ablations":
        ablations.main(
            num_instructions=args.instructions, workers=args.workers, cache=cache,
            supervision=supervision,
        )
    elif args.command == "report":
        from repro.sim.plan import collect_stats

        with collect_stats() as stats:
            path = report_module.write_report(
                args.output,
                num_instructions=args.instructions,
                per_category=args.per_category,
                include_ablations=args.with_ablations,
                workers=args.workers,
                cache=cache,
                supervision=supervision,
                store=store,
            )
        print(f"report written to {path}")
        # The two-pass CI smoke asserts `simulated=0` on the warm pass.
        print(f"plan stats: {stats.describe()}")
    elif args.command == "cache":
        if cache is None:
            raise SystemExit("cache verify needs the cache enabled (drop --no-cache)")
        if args.cache_command == "verify":
            _cache_verify(cache, keep=args.keep)
    elif args.command == "store":
        if args.store_command == "ingest":
            if cache is None:
                raise SystemExit("store ingest reads the cache (drop --no-cache)")
            _store_ingest(store, cache)
        elif args.store_command == "query":
            _store_query(store, args)
        elif args.store_command == "stats":
            _store_stats(store)
    elif args.command == "serve":
        from repro.service import SweepManager, serve

        manager = SweepManager(
            cache=cache, store=store, workers=args.workers, supervision=supervision,
        )
        serve(args.host, args.port, manager, verbose=args.verbose)
    elif args.command == "scenarios":
        from repro.common.errors import ConfigurationError

        try:
            if args.scenarios_command == "list":
                _scenarios_list(args.tag)
            elif args.scenarios_command == "generate":
                _scenarios_generate(args.out, args.names, args.tag, args.instructions)
            elif args.scenarios_command == "run":
                _scenarios_run(
                    args.names,
                    args.tag,
                    args.instructions,
                    args.workers,
                    args.traces_dir,
                    args.csv,
                    cache=cache,
                    supervision=supervision,
                )
        except ConfigurationError as exc:
            # User input (names, tags, params) reaches the registry from
            # here; fail with the message, not a traceback.
            print(f"error: {exc}")
            return 2
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised through main()
    raise SystemExit(main())
