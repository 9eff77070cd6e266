"""Job-level A/B timing of two source trees on one figure sweep.

Usage::

    python benchmarks/ab_jobs.py ROOT_A ROOT_B --sweep fig4|fig5|fig6 --rounds N

Each ROOT is a checkout of this repository (its ``src/`` is imported).  Each
round starts one Python process per tree, which builds the sweep's traces
once; then, job by job, the two processes take turns running the same
(hierarchy, workload) simulation, and the side that runs first flips with
every job.  Both sides sit in the same machine state for each job, so slow
drifts of the box (frequency, noisy neighbours) cancel out of the round's
ratio.  What does not cancel is a process's own speed: two processes of the
same code can differ by a few percent for their whole life, so the
processes are restarted every round and the median over rounds is the
figure to read.

Every job's result (cycles, IPC, activity and core counters) is digested on
both sides and the script stops at the first mismatch, so a speed-up is
only ever reported for bit-identical simulation.  Times are the
``run_workload`` call: hierarchy build, prewarm and simulation, with trace
synthesis done up front.  Output: per-round sums of wall and CPU seconds
per side and the B/A ratios, then the median of the round ratios and the
median of the per-job CPU ratios (robust to a single disturbed job).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

SWEEPS = ("fig4", "fig5", "fig6")


# ----------------------------------------------------------------- child side
def _sweep(name: str):
    """``(builders, specs, trace_factory, instructions)`` of a figure sweep."""
    from repro.experiments import common

    if name == "fig4":
        return (common.conventional_builders(), common.select_workloads(),
                None, common.DEFAULT_INSTRUCTIONS)
    if name == "fig5":
        return (common.dnuca_builders(), common.select_workloads(),
                None, common.DEFAULT_INSTRUCTIONS)
    from repro.experiments import fig6_scenarios
    from repro.scenarios import build_trace, default_sweep

    return (fig6_scenarios.scenario_builders(), default_sweep(), build_trace,
            common.DEFAULT_INSTRUCTIONS)


def _digest(result) -> str:
    payload = json.dumps(
        [result.system, result.workload, result.cycles, result.ipc,
         result.instructions, sorted(result.activity.items()),
         sorted(result.core_stats.items())],
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def child(sweep: str) -> int:
    """Serve job runs over stdin/stdout: one job index in, one JSON line out."""
    from repro.cpu.workloads import generate_trace
    from repro.sim.runner import run_workload

    builders, specs, factory, instructions = _sweep(sweep)
    factory = factory or generate_trace
    traces = {spec.name: factory(spec, instructions) for spec in specs}
    for trace in traces.values():
        trace.decoded()  # the decode is cached per trace; keep it out of job 0
    jobs = [(name, spec) for spec in specs for name in builders]
    print(json.dumps({"jobs": [f"{name}/{spec.name}" for name, spec in jobs]}),
          flush=True)
    for line in sys.stdin:
        name, spec = jobs[int(line)]
        wall, cpu = time.perf_counter(), time.process_time()
        result = run_workload(builders[name], spec, instructions,
                              trace=traces[spec.name])
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
        print(json.dumps({"wall": wall, "cpu": cpu, "digest": _digest(result)}),
              flush=True)
    return 0


# ---------------------------------------------------------------- parent side
class Side:
    """One tree's long-lived job server."""

    def __init__(self, root: str, sweep: str):
        env = {key: value for key, value in os.environ.items()
               if not key.startswith("REPRO_")}
        env["PYTHONPATH"] = os.path.join(os.path.abspath(root), "src")
        env["PYTHONHASHSEED"] = "0"
        self.root = root
        self.proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--child", "--sweep", sweep],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env,
        )
        self.jobs = json.loads(self.proc.stdout.readline())["jobs"]

    def run(self, index: int) -> dict:
        self.proc.stdin.write(f"{index}\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"{self.root}: job server exited")
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=60)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("roots", nargs="*", metavar="ROOT")
    parser.add_argument("--sweep", choices=SWEEPS, default="fig4")
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child(args.sweep)
    if len(args.roots) != 2:
        parser.error("give exactly two source trees: ROOT_A ROOT_B")

    ratios, job_ratios = [], []
    turn = 0
    for round_index in range(args.rounds):
        # A fresh pair of processes per round: one process can run a few
        # percent faster or slower than an identical one for its whole life
        # (memory layout), so that bias must average out over rounds.
        sides = [Side(root, args.sweep) for root in args.roots]
        try:
            jobs = sides[0].jobs
            if sides[1].jobs != jobs:
                raise SystemExit("the two trees compile different job lists")
            if round_index == 0:
                print(f"{args.sweep}: {len(jobs)} jobs, "
                      f"A={args.roots[0]} B={args.roots[1]}")
            wall = [0.0, 0.0]
            cpu = [0.0, 0.0]
            for index, label in enumerate(jobs):
                order = (0, 1) if turn % 2 == 0 else (1, 0)
                turn += 1
                replies = {}
                for side in order:
                    replies[side] = sides[side].run(index)
                    wall[side] += replies[side]["wall"]
                    cpu[side] += replies[side]["cpu"]
                if replies[0]["digest"] != replies[1]["digest"]:
                    raise SystemExit(
                        f"result digests differ on {label}: "
                        f"A {replies[0]['digest']} B {replies[1]['digest']}"
                    )
                job_ratios.append(replies[1]["cpu"] / replies[0]["cpu"])
            ratio = cpu[1] / cpu[0]
            ratios.append(ratio)
            print(
                f"round {round_index}: A wall {wall[0]:.3f}s cpu {cpu[0]:.3f}s | "
                f"B wall {wall[1]:.3f}s cpu {cpu[1]:.3f}s | "
                f"B/A wall {wall[1] / wall[0]:.3f} cpu {ratio:.3f}",
                flush=True,
            )
        finally:
            for side in sides:
                side.close()
    print(f"digests identical on every job; median B/A cpu ratio "
          f"{statistics.median(ratios):.3f} over {len(ratios)} round(s), "
          f"{statistics.median(job_ratios):.3f} over {len(job_ratios)} job pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
