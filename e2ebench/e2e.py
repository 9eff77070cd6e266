"""End-to-end benchmark of the paper's artifact, ``repro report``.

Run from the repository root::

    python3 e2ebench/e2e.py --workload report-cold --seed 0 --seconds 5 --trace 0
    python3 e2ebench/e2e.py --compare before.jsonl after.jsonl

One run measures one workload (see ``WORKLOADS``) under a closed loop with
one client: every simulator process starts after the previous one ended,
and at most two simulator processes (``--workers 2``) run at once.  Each
run prints its metrics as a table and, as its last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``; ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` additionally runs the workload once
under the span recorder (``e2e_trace``) and reports the per-layer metrics.
It exits nonzero when any output is wrong.  ``--record FILE`` appends the
run (with every sample, output digests and counters) to a JSON-lines set
file; ``--compare A B`` applies ``BENCHMARK.json``'s bounds to two sets.

Every simulator process gets a fresh ``REPRO_CACHE_DIR`` under
``.e2ebench/`` in the checkout, a pinned ``REPRO_SIM_VERSION`` (an
unversioned or ``-dirty`` tree would silently bypass every cache tier),
no other ``REPRO_*`` variable, and single-threaded BLAS.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
CHILD = os.path.join(BENCH_DIR, "e2e_child.py")
STATE_DIR = os.path.join(ROOT, ".e2ebench")

#: Stand-in simulator version: keys the cache tiers of every run.
SIM_VERSION = "e2ebench"
#: Every run must end within this many seconds, builds included.
RUN_BUDGET_S = 170.0
#: Default-size report: 24 Fig. 4 + 24 Fig. 5 + 28 Fig. 6 jobs of 15000
#: instructions each, checked against the committed ``results/``.
REPORT_JOBS = 76
FIG4_JOBS = 24
INSTRUCTIONS = 15000
#: Fresh-interpreter imports timed as ``report-cold``'s set-up.
SETUP_IMPORTS = 5
#: Warm invocations per run (at least) and in the traced run.
WARM_MIN_UNITS = 10
#: REPORT.md lines that name the command and commit, not the results.
REPORT_VOLATILE = ("Generated by:", "Simulator commit:")


class BenchError(RuntimeError):
    """A run that cannot produce metrics (a process failed or timed out)."""


# ----------------------------------------------------------------- statistics
def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    values = list(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


def worsening(before: float, after: float, better: str) -> float:
    """How much worse ``after`` is than ``before``, as a share of ``before``."""
    if not before:
        return 0.0
    change = (after - before) / before
    return change if better == "lower" else -change


def verdict(before: Sequence[float], after: Sequence[float], better: str, bound: float,
            check_spread: bool = True) -> str:
    """``agree``, ``regressed`` or ``unresolved`` for one (workload, metric).

    With ``check_spread``, a spread wider than the bound leaves the
    comparison unresolved, unless every run of ``after`` reads better than
    every run of ``before``.
    """
    worse = worsening(quartiles(before)[1], quartiles(after)[1], better)
    all_better = (
        max(after) < min(before) if better == "lower" else min(after) > max(before)
    )
    if check_spread and max(spread(before), spread(after)) > bound and not all_better:
        return "unresolved"
    return "regressed" if worse > bound else "agree"


# -------------------------------------------------------------- output checks
def output_digests(directory: str) -> Dict[str, str]:
    """sha256 of every report output, ``REPORT.md`` minus its volatile lines."""
    names = sorted(name for name in os.listdir(directory) if name.endswith((".csv", ".md")))
    return {name: hashlib.sha256(_comparable(os.path.join(directory, name))).hexdigest()
            for name in names}


def _comparable(path: str) -> bytes:
    with open(path, "rb") as handle:
        data = handle.read()
    if not path.endswith(".md"):
        return data
    lines = data.decode("utf-8").splitlines(keepends=True)
    return "".join(line for line in lines if not line.startswith(REPORT_VOLATILE)).encode()


def check_against(reference_dir: str, produced: Dict[str, str], complete: bool) -> List[str]:
    """Files whose digest differs from ``reference_dir``'s copy; with
    ``complete``, also every reference file that was not produced."""
    reference = output_digests(reference_dir)
    names = set(produced) | (set(reference) if complete else set())
    return sorted(name for name in names if produced.get(name) != reference.get(name))


def outputs_digest(digests: Dict[str, str]) -> str:
    return hashlib.sha256(json.dumps(digests, sort_keys=True).encode()).hexdigest()[:16]


def parse_plan_stats(stdout: str) -> Optional[Dict[str, int]]:
    match = re.search(r"^plan stats: (.*)$", stdout, re.MULTILINE)
    if match is None:
        return None
    return {key: int(value) for key, value in re.findall(r"(\w+)=(\d+)", match.group(1))}


def dir_mb(*directories: str) -> float:
    total = 0
    for directory in directories:
        for dirpath, _, filenames in os.walk(directory):
            for filename in filenames:
                total += os.path.getsize(os.path.join(dirpath, filename))
    return total / 1e6


# ------------------------------------------------------------------ processes
class Proc(NamedTuple):
    """One finished simulator process and its tree's resource use."""

    wall: float
    cpu: float
    rss_mb: float
    stdout: str


def _become_subreaper() -> None:
    """Adopt orphaned grandchildren (pool workers) so they can be reaped."""
    try:
        ctypes.CDLL(None, use_errno=True).prctl(36, 1, 0, 0, 0)  # PR_SET_CHILD_SUBREAPER
    except (OSError, AttributeError):
        pass


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def _reap_group(pgid: int) -> None:
    """Stop whatever the finished process left in its group and wait for it."""
    _kill_group(pgid)
    while True:
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return


class Context:
    """One benchmark run: its seed, time budget, working directory and samples."""

    def __init__(self, workload: str, seed: int, seconds: float):
        self.seed, self.seconds = seed, seconds
        self.started = time.monotonic()
        self.work = os.path.join(STATE_DIR, "work", f"{workload}-{os.getpid()}")
        self.env = {key: value for key, value in os.environ.items()
                    if not key.startswith("REPRO_")}
        self.env.update(
            PYTHONPATH=os.path.join(ROOT, "src"),
            REPRO_SIM_VERSION=SIM_VERSION,
            OPENBLAS_NUM_THREADS="1",
            OMP_NUM_THREADS="1",
            PYTHONHASHSEED="0",
            PYTHONDONTWRITEBYTECODE="1",
        )
        self._dirs = 0
        self.units: List[Dict[str, float]] = []
        self.setup: List[float] = []
        self.problems: List[str] = []
        self.attempted = 0
        self.failed = 0
        self.outputs: Optional[Dict[str, str]] = None
        self.counters: Dict[str, int] = {}
        self.disk_mb = 0.0

    def fresh_dir(self, kind: str) -> str:
        self._dirs += 1
        path = os.path.join(self.work, f"{kind}{self._dirs}")
        os.makedirs(path)
        return path

    def time_left(self) -> float:
        return RUN_BUDGET_S - (time.monotonic() - self.started)

    def spawn(self, args: Sequence[str], cache: Optional[str] = None) -> Proc:
        """Run ``python args`` to completion; wall, CPU and peak RSS of its tree."""
        env = dict(self.env)
        if cache is not None:
            env["REPRO_CACHE_DIR"] = cache
        self._dirs += 1
        log = os.path.join(self.work, f"proc{self._dirs}")
        with open(log + ".out", "wb") as out, open(log + ".err", "wb") as err:
            start = time.perf_counter()
            process = subprocess.Popen(
                [sys.executable, *args], cwd=ROOT, env=env, stdout=out, stderr=err,
                start_new_session=True,
            )
            timer = threading.Timer(max(self.time_left(), 1.0), _kill_group, (process.pid,))
            timer.start()
            try:
                _, status, usage = os.wait4(process.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        process.returncode = code = os.waitstatus_to_exitcode(status)
        _reap_group(process.pid)
        with open(log + ".out", encoding="utf-8", errors="replace") as handle:
            stdout = handle.read()
        if code != 0:
            with open(log + ".err", encoding="utf-8", errors="replace") as handle:
                tail = handle.read()[-2000:]
            raise BenchError(f"{' '.join(args[:3])} ... exited with {code}:\n{tail}")
        return Proc(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, stdout)

    # -- checks -------------------------------------------------------------
    def note_outputs(self, digests: Dict[str, str], label: str, complete: bool = True) -> bool:
        """Check one process's outputs (at seed 0 against the committed
        ``results/``, at every seed against the run's first outputs);
        returns False, and records why, on a mismatch."""
        problems = []
        if self.seed == 0:
            reference = os.path.join(ROOT, "results")
            problems += [f"{label}: {name} differs from results/{name}"
                         for name in check_against(reference, digests, complete)]
        if self.outputs is None:
            self.outputs = digests
        elif digests != self.outputs:
            problems.append(f"{label}: outputs differ from the run's first outputs")
        self.problems += problems
        return not problems

    def account(self, jobs: int, quarantined: int, ok: bool) -> None:
        self.attempted += jobs
        self.failed += quarantined + (0 if ok else 1)

    def report(self, flags: Sequence[str], cache: str, out: str, expect: Dict[str, int],
               label: str, trace: Optional[str] = None) -> Tuple[Proc, Dict[str, int]]:
        """One ``repro report`` process, its plan stats and outputs checked."""
        args = [CHILD, "cli", "--seed", str(self.seed)]
        if trace:
            args += ["--trace", trace]
        proc = self.spawn([*args, "--", *flags, "report", "--output", out], cache)
        stats = parse_plan_stats(proc.stdout) or {}
        ok = self.note_outputs(output_digests(out), label)
        for key, value in {"jobs": REPORT_JOBS, "quarantined": 0, **expect}.items():
            if stats.get(key) != value:
                self.problems.append(f"{label}: plan stats {key}={stats.get(key)}, expected {value}")
                ok = False
        self.account(REPORT_JOBS, stats.get("quarantined", 0), ok)
        return proc, stats

    def add_unit(self, wall: float, cpu: float, rss_mb: float, instructions: float) -> None:
        """One timed unit; ``sim_kips`` counts the instructions its results cover."""
        self.units.append({"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss_mb,
                           "sim_kips": instructions / wall / 1000.0})

    def repeat(self, unit: Callable[[int], None], min_units: int) -> None:
        """Run ``unit`` until ``min_units`` ran and ``seconds`` elapsed."""
        started = time.monotonic()
        count = 0
        while count < min_units or time.monotonic() - started < self.seconds:
            last = time.monotonic()
            unit(count)
            count += 1
            if count >= min_units and self.time_left() < 3 * (time.monotonic() - last) + 30:
                break


# ------------------------------------------------------------------ workloads
def median_unit(ctx: Context, metric: str) -> float:
    return quartiles([unit[metric] for unit in ctx.units])[1]


def _prime(ctx: Context) -> str:
    """A cold ``--workers 2`` report into a fresh cache: the warm workloads' set-up."""
    cache, out = ctx.fresh_dir("cache"), ctx.fresh_dir("out")
    proc, _ = ctx.report(["--workers", "2"], cache, out, {"simulated": REPORT_JOBS}, "priming report")
    ctx.setup.append(proc.wall)
    return cache


def report_cold(ctx: Context, traced: Optional["Tracing"]) -> None:
    for _ in range(SETUP_IMPORTS):
        ctx.setup.append(ctx.spawn(["-c", "import repro.cli"]).wall)

    def unit(index: int) -> None:
        cache, out = ctx.fresh_dir("cache"), ctx.fresh_dir("out")
        proc, stats = ctx.report([], cache, out, {"simulated": REPORT_JOBS}, f"cold report {index}")
        ctx.add_unit(proc.wall, proc.cpu, proc.rss_mb, REPORT_JOBS * INSTRUCTIONS)
        ctx.counters, ctx.disk_mb = stats, dir_mb(cache, out)
        shutil.rmtree(cache)

    ctx.repeat(unit, 1)
    if traced:
        cache, out = ctx.fresh_dir("cache"), ctx.fresh_dir("out")
        proc, _ = ctx.report([], cache, out, {"simulated": REPORT_JOBS}, "traced cold report",
                             traced.file())
        traced.walls.append(proc.wall)
        traced.overhead = proc.wall / median_unit(ctx, "wall_s")


def report_warm(ctx: Context, traced: Optional["Tracing"]) -> None:
    cache = _prime(ctx)
    expect = {"simulated": 0, "cached": REPORT_JOBS}
    out = ctx.fresh_dir("out")

    def unit(index: int) -> None:
        proc, stats = ctx.report([], cache, out, expect, f"warm report {index}")
        # Nothing is simulated: sim_kips counts the instructions whose
        # results the run served.
        ctx.add_unit(proc.wall, proc.cpu, proc.rss_mb, REPORT_JOBS * INSTRUCTIONS)
        ctx.counters = stats

    ctx.repeat(unit, WARM_MIN_UNITS)
    ctx.disk_mb = dir_mb(cache, out)
    if traced:
        for index in range(WARM_MIN_UNITS):
            proc, _ = ctx.report([], cache, out, expect, f"traced warm report {index}",
                                 traced.file())
            traced.walls.append(proc.wall)
        traced.overhead = quartiles(traced.walls)[1] / median_unit(ctx, "wall_s")


def report_resim_w2(ctx: Context, traced: Optional["Tracing"]) -> None:
    cache = _prime(ctx)
    out = ctx.fresh_dir("out")
    flags = ["--workers", "2", "--store="]

    def resim(label: str, trace: Optional[str] = None) -> Tuple[Proc, Dict[str, int]]:
        # Results and store go; traces, snapshots and schedules stay warm.
        shutil.rmtree(os.path.join(cache, "results"), ignore_errors=True)
        for name in os.listdir(cache):
            if name.startswith("results.sqlite"):
                os.remove(os.path.join(cache, name))
        return ctx.report(flags, cache, out, {"simulated": REPORT_JOBS}, label, trace)

    def unit(index: int) -> None:
        proc, stats = resim(f"resim report {index}")
        ctx.add_unit(proc.wall, proc.cpu, proc.rss_mb, REPORT_JOBS * INSTRUCTIONS)
        ctx.counters = stats

    ctx.repeat(unit, 1)
    ctx.disk_mb = dir_mb(cache, out)
    if traced:
        proc, _ = resim("traced resim report", traced.file())
        traced.walls.append(proc.wall)
        traced.overhead = proc.wall / median_unit(ctx, "wall_s")


def fig4_replay(ctx: Context, traced: Optional["Tracing"]) -> None:
    def run_process(seconds: float, trace: Optional[str]) -> Tuple[Proc, dict]:
        out = ctx.fresh_dir("out")
        args = [CHILD, "fig4", "--seed", str(ctx.seed), "--seconds", str(seconds), "--out", out]
        proc = ctx.spawn(args + (["--trace", trace] if trace else []))
        payload = json.loads(proc.stdout.strip().splitlines()[-1])
        for index, run in enumerate([payload["setup"], *payload["passes"]]):
            digests = {name: hashlib.sha256(text.encode()).hexdigest()
                       for name, text in sorted(run["files"].items())}
            ok = ctx.note_outputs(digests, f"fig4 pass {index}{' (traced)' if trace else ''}",
                                  complete=False)
            ctx.account(FIG4_JOBS, run["stats"]["quarantined"], ok)
        ctx.disk_mb = dir_mb(out)
        return proc, payload

    proc, payload = run_process(ctx.seconds, None)
    ctx.setup.append(payload["setup"]["wall_s"])
    for run in payload["passes"]:
        ctx.add_unit(run["wall_s"], run["cpu_s"], proc.rss_mb, run["instructions"])
    ctx.counters = payload["passes"][-1]["stats"]
    if traced:
        proc, traced_payload = run_process(0.0, traced.file())
        traced.walls.append(proc.wall)
        passes = [run["wall_s"] for run in traced_payload["passes"]]
        traced.overhead = quartiles(passes)[1] / median_unit(ctx, "wall_s")


#: Why each workload exists is recorded in BENCHMARK.json and README.md.
#: All run at the default size (15000 instructions, 3 workloads per
#: category), so that seed 0 can be checked byte for byte against the
#: committed results/.
WORKLOADS: Dict[str, Callable[[Context, Optional["Tracing"]], None]] = {
    "report-cold": report_cold,
    "report-warm": report_warm,
    "fig4-replay": fig4_replay,
    "report-resim-w2": report_resim_w2,
}


# -------------------------------------------------------------------- tracing
class Tracing:
    """The traced executions of one run and their per-layer metrics."""

    def __init__(self, workload: str, seed: int):
        self.directory = os.path.join(STATE_DIR, "spans", workload)
        shutil.rmtree(self.directory, ignore_errors=True)
        os.makedirs(self.directory)
        self.seed = seed
        self.files: List[str] = []
        #: Wall of every traced process.
        self.walls: List[float] = []
        #: Traced ÷ untraced wall of the workload's timed unit.
        self.overhead = 0.0

    def file(self) -> str:
        """Summary path for the next traced process (its spans go next to it)."""
        path = os.path.join(self.directory, f"seed{self.seed}-{len(self.files)}.json")
        self.files.append(path)
        return path

    def metrics(self) -> Dict[str, float]:
        layers: Dict[str, Dict[str, float]] = {}
        counters: Dict[str, float] = {}
        totals = {"ticks": 0, "prewarms": 0, "forked": 0, "reused": 0}
        for path in self.files:
            with open(path) as handle:
                summary = json.load(handle)
            for name, entry in summary["layers"].items():
                merged = layers.setdefault(name, {"self_s": 0.0, "calls": 0})
                merged["self_s"] += entry["self_s"]
                merged["calls"] += entry["calls"]
            for name, value in summary["counters"].items():
                counters[name] = counters.get(name, 0.0) + value
            totals["ticks"] += summary["ticks"]
            totals["prewarms"] += summary["prewarms"]
            totals["forked"] += summary["pool"]["forked"]
            totals["reused"] += summary["pool"]["reused"]
        return layer_metrics(layers, counters, totals, sum(self.walls), self.overhead)


def layer_metrics(layers: Dict[str, Dict[str, float]], counters: Dict[str, float],
                  totals: Dict[str, int], traced_wall: float,
                  overhead: float) -> Dict[str, float]:
    """The ``per_layer`` metrics of ``BENCHMARK.json`` from merged trace summaries."""
    def self_s(name: str) -> float:
        return layers.get(name, {}).get("self_s", 0.0)

    def calls(name: str) -> int:
        return int(layers.get(name, {}).get("calls", 0))

    def ratio(hits: float, misses: float) -> float:
        return hits / (hits + misses) if hits + misses else 0.0

    def stat(name: str) -> float:
        """An ``ExecutionStats`` field, summed over every sweep executed."""
        return counters.get(f"plan.{name}", 0.0)

    cycles = counters.get("runner.sim_cycles", 0.0)
    root = layers.get("root", {}).get("self_s", 0.0)
    root_total = sum(entry["self_s"] for entry in layers.values())
    workers = totals["forked"] + totals["reused"] > 0
    return {
        "import.repro_cli_s": self_s("import.repro_cli"),
        "scenarios.synth_s": self_s("scenarios.synth"),
        "scenarios.synth_calls": calls("scenarios.synth"),
        "tracefile.save_s": self_s("tracefile.save"),
        "tracefile.load_s": self_s("tracefile.load"),
        "tracefile.loads": calls("tracefile.load"),
        "trace.decode_s": self_s("trace.decode"),
        "trace.digest_s": self_s("trace.digest"),
        "plan.execute.self_s": self_s("plan.execute"),
        "plan.result_cache.get_s": self_s("plan.result_cache.get"),
        "plan.result_cache.put_s": self_s("plan.result_cache.put"),
        "plan.result_cache.hits": stat("cached"),
        "plan.trace_pool.fetch_s": self_s("plan.trace_pool.fetch"),
        "plan.journal.s": self_s("plan.journal"),
        "plan.snapshot.get_s": self_s("plan.snapshot.get"),
        "plan.snapshot.put_s": self_s("plan.snapshot.put"),
        "plan.snapshot.builds": stat("snapshot_builds"),
        "plan.snapshot.clones": stat("snapshot_clones"),
        "plan.snapshot.disk_hits": stat("snapshot_disk_hits"),
        "plan.pool.forked": totals["forked"],
        "plan.pool.reused": totals["reused"],
        # With workers, what the parent's execute does not spend in a named
        # layer is spent waiting for them.
        "plan.pool.wait_s": self_s("plan.execute") if workers else 0.0,
        "schedstore.restore_s": self_s("schedstore.restore"),
        "schedstore.publish_s": self_s("schedstore.publish"),
        "schedstore.hits": stat("sched_store_hits"),
        "schedstore.builds": stat("sched_store_builds"),
        "store.put_s": self_s("store.put"),
        "store.puts": calls("store.put"),
        "hier.prewarm_s": self_s("hier.prewarm"),
        "hier.prewarms": totals["prewarms"],
        "runner.simulate_s": self_s("runner.simulate"),
        "runner.sim_cycles": cycles,
        "runner.instructions": counters.get("runner.instructions", 0.0),
        "core.run_batch_s": self_s("core.run_batch"),
        "core.run_batch_calls": calls("core.run_batch"),
        "core.span_hits": counters.get("core.span_hits", 0.0),
        "core.span_bails": counters.get("core.span_bails", 0.0),
        "core.span_hit_ratio": ratio(counters.get("core.span_hits", 0.0),
                                     counters.get("core.span_bails", 0.0)),
        "core.hier_ff_cycles": stat("hier_fast_forwarded_cycles"),
        "core.hier_replays": stat("hier_schedule_replays"),
        "core.hier_bails": counters.get("core.hier_bails", 0.0),
        "core.hier_hit_ratio": ratio(counters.get("core.hier_replays", 0.0),
                                     counters.get("core.hier_bails", 0.0)),
        "hier.conv.tick_s": self_s("hier.conv.tick"),
        "hier.lnuca.tick_s": self_s("hier.lnuca.tick"),
        "hier.dnuca.tick_s": self_s("hier.dnuca.tick"),
        "hier.ticks": totals["ticks"],
        "hier.ticks_per_kcycle": 1000.0 * totals["ticks"] / cycles if cycles else 0.0,
        "hier.next_event_calls": counters.get("hier.next_event_calls", 0.0),
        "hier.issue_calls": counters.get("hier.issue_calls", 0.0),
        "hier.finalize_s": self_s("hier.finalize"),
        "lnuca.search_lookups": counters.get("lnuca.search_lookups", 0.0),
        "energy.total_s": self_s("energy.total"),
        "energy.evaluate_s": self_s("energy.evaluate"),
        "report.render_s": self_s("report.render"),
        "traced_wall_s": traced_wall,
        "trace_overhead": overhead,
        "root.self_share": root / root_total if root_total else 0.0,
    }


# ----------------------------------------------------------------------- main
def load_benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def end_to_end(ctx: Context) -> Dict[str, List[float]]:
    """Every end-to-end metric's samples (one per timed unit or set-up)."""
    samples = {name: [unit[name] for unit in ctx.units]
               for name in ("wall_s", "sim_kips", "cpu_s")}
    samples["peak_rss_mb"] = [max(unit["peak_rss_mb"] for unit in ctx.units)]
    samples["disk_mb"] = [ctx.disk_mb]
    samples["setup_s"] = ctx.setup
    return samples


def run_workload(args) -> int:
    spec = load_benchmark()
    units = {entry["name"]: entry["unit"] for entry in spec["end_to_end"] + spec["per_layer"]}
    function = WORKLOADS[args.workload]
    ctx = Context(args.workload, args.seed, args.seconds)
    traced = Tracing(args.workload, args.seed) if args.trace else None
    os.makedirs(ctx.work)
    try:
        _become_subreaper()
        # The build: byte-compile once, so that every timed import reads
        # cached bytecode instead of compiling.
        ctx.spawn(["-m", "compileall", "-q", os.path.join(ROOT, "src"), BENCH_DIR])
        function(ctx, traced)
    finally:
        shutil.rmtree(ctx.work, ignore_errors=True)

    samples = end_to_end(ctx)
    print(f"{args.workload}  seed={args.seed}  outputs_digest={outputs_digest(ctx.outputs or {})}")
    print(f"{'metric':<14} {'median':>12} {'q1':>12} {'q3':>12} {'n':>4}  unit")
    for name, values in samples.items():
        q1, median, q3 = quartiles(values)
        print(f"{name:<14} {median:>12.4f} {q1:>12.4f} {q3:>12.4f} {len(values):>4}  {units[name]}")
    error_rate = ctx.failed / ctx.attempted if ctx.attempted else 1.0
    print(f"{'error_rate':<14} {error_rate:>12.4f}  ({ctx.failed} failed of {ctx.attempted} jobs)")
    for problem in ctx.problems:
        print(f"CHECK FAILED: {problem}")
    metrics = {name: quartiles(values)[1] for name, values in samples.items()}
    if traced is not None:
        metrics = traced.metrics()
        print(f"per-layer totals over the traced run (spans in {os.path.relpath(traced.directory, ROOT)}):")
        for name, value in metrics.items():
            print(f"  {name:<26} {value:>16.4f}  {units[name]}")
    correct = not ctx.problems and ctx.failed == 0
    if args.record:
        record = {
            "workload": args.workload, "seed": args.seed, "trace": bool(args.trace),
            "correct": correct, "attempted": ctx.attempted, "failed": ctx.failed,
            "metrics": metrics, "samples": samples, "outputs": ctx.outputs or {},
            "counters": ctx.counters,
        }
        with open(args.record, "a") as handle:
            handle.write(json.dumps(record) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


def compare(path_a: str, path_b: str) -> int:
    """Print one row per (workload, metric) for two recorded sets; nonzero on
    any regression, unresolved row, output disagreement or counter change."""
    spec = load_benchmark()
    sets = []
    for path in (path_a, path_b):
        with open(path) as handle:
            sets.append([json.loads(line) for line in handle if line.strip()])
    bad = 0
    print(f"{'workload':<16} {'metric':<14} {'median A':>11} {'median B':>11} "
          f"{'change':>8} {'spread A':>9} {'spread B':>9} {'bound':>6}  verdict")
    for workload in WORKLOADS:
        runs = [[r for r in records if r["workload"] == workload and not r["trace"]]
                for records in sets]
        if not all(runs):
            continue
        for metric in spec["end_to_end"]:
            a, b = ([r["metrics"][metric["name"]] for r in group] for group in runs)
            # Most runs set up once, so setup_s is held to its median alone.
            result = verdict(a, b, metric["better"], metric["bound"],
                             check_spread=metric["name"] != "setup_s")
            bad += result != "agree"
            change = (quartiles(b)[1] - quartiles(a)[1]) / quartiles(a)[1]
            print(f"{workload:<16} {metric['name']:<14} {quartiles(a)[1]:>11.4f} "
                  f"{quartiles(b)[1]:>11.4f} {change:>+8.1%} {spread(a):>9.1%} "
                  f"{spread(b):>9.1%} {metric['bound']:>6.0%}  {result}")
    for label, records in zip("AB", sets):
        for problem in disagreements(records):
            bad += 1
            print(f"set {label}: {problem}")
    for problem in counter_changes(spec, *sets):
        bad += 1
        print(problem)
    return 1 if bad else 0


def disagreements(records: List[dict]) -> List[str]:
    """Output files whose digest differs between runs of one seed in one set."""
    seen: Dict[Tuple[int, str], str] = {}
    problems = []
    for record in records:
        if not record["correct"]:
            problems.append(f"{record['workload']} seed {record['seed']}: run was not correct")
        for name, digest in record["outputs"].items():
            key = (record["seed"], name)
            if seen.setdefault(key, digest) != digest:
                problems.append(f"seed {record['seed']}: {name} differs between runs "
                                f"({record['workload']})")
    return problems


#: Job-to-worker assignment varies run to run, so this workload's counters do too.
NONDETERMINISTIC_COUNTERS = ("report-resim-w2",)


def counter_changes(spec: dict, set_a: List[dict], set_b: List[dict]) -> List[str]:
    """Deterministic counters that differ between the sets at the same seed."""
    counts = {m["name"] for m in spec["per_layer"] if m["unit"] == "count"}
    changes = []
    for a in set_a:
        if a["workload"] in NONDETERMINISTIC_COUNTERS:
            continue
        for b in set_b:
            if (b["workload"], b["seed"], b["trace"]) != (a["workload"], a["seed"], a["trace"]):
                continue
            pairs = [(name, a["counters"].get(name), b["counters"].get(name))
                     for name in set(a["counters"]) | set(b["counters"])]
            if a["trace"]:
                pairs += [(name, a["metrics"].get(name), b["metrics"].get(name)) for name in counts]
            changes += [f"{a['workload']} seed {a['seed']}: counter {name} {x} -> {y}"
                        for name, x, y in sorted(pairs) if x != y]
    return changes


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", default=None, help="append the run to this JSON-lines set")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), default=None)
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "cli.py")):
        print(f"e2e: no simulator source under {ROOT}/src; run from a full checkout",
              file=sys.stderr)
        return 2
    try:
        return run_workload(args)
    except BenchError as exc:
        print(f"e2e: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
