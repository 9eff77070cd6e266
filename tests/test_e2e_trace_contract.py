"""The benchmark tracer's contract with the simulator.

``e2ebench/e2e_trace.py`` wraps named simulator functions and methods and
reads counters off every core, so renaming or deleting any of them makes
a traced benchmark run (``e2e.py --trace 1``) raise.  This test runs the
tracer end to end on a tiny Fig. 4 sweep, the way ``e2e.py`` starts it:
a separate process running ``e2ebench/e2e_child.py`` with no ``REPRO_*``
variable set.  The in-process tests pin the stand-ins that the removed
span engines and schedule store left for it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cpu.core import OoOCore
from repro.scenarios import build_trace, scenario
from repro.sim import schedstore
from repro.sim.configs import build_conventional_hierarchy
from repro.sim.runner import simulate

ROOT = Path(__file__).resolve().parent.parent

#: Core counters the tracer reads off every core after ``simulate``.
ENGINE_COUNTERS = ("span_hits", "span_bails", "hier_replays", "hier_bails")


def test_traced_fig4_run_reports_the_core_counters(tmp_path):
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    summary_path = tmp_path / "t.json"
    proc = subprocess.run(
        [
            sys.executable, str(ROOT / "e2ebench" / "e2e_child.py"), "cli",
            "--trace", str(summary_path), "--",
            "--no-cache", "--instructions", "400", "--per-category", "1", "fig4",
        ],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    counters = json.loads(summary_path.read_text())["counters"]
    assert counters["runner.sim_cycles"] > 0
    # The span engines are gone: the tracer's engine taps read 0.
    for name in ENGINE_COUNTERS:
        assert counters[f"core.{name}"] == 0, name


@pytest.mark.parametrize(
    "name", ["restore_schedules", "publish_schedules", "publish_pending"]
)
def test_schedule_store_stand_in_returns_zero(name):
    # The tracer wraps these by name and calls through to them with the
    # old store's arguments.
    stand_in = getattr(schedstore, name)
    assert stand_in() == 0
    assert stand_in(object(), object(), "digest", "config") == 0


def test_engine_counters_read_zero_after_a_run():
    trace = build_trace(scenario("fma-unroll"), 400)
    core = OoOCore(trace, build_conventional_hierarchy())
    simulate(core)
    assert core.cycle > 0
    for name in ENGINE_COUNTERS:
        assert getattr(core, name) == 0, name
