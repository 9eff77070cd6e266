"""Unit tests for the deterministic fault-injection harness.

:mod:`repro.sim.faults` is test machinery, but it is *trusted* test
machinery — the supervised-executor suite (``test_supervised.py``) only
proves what the harness actually injects.  So the harness itself gets
direct coverage: plan sources and precedence, spec matching, the file
ops, the site table against the hooks that fire it, and the guarantee
that a malformed environment plan never breaks a real run.
"""

import ast
import json
import os
import signal
import time
import warnings
from pathlib import Path

import pytest

from repro.common.errors import SimulationError
from repro.sim import faults
from repro.sim.faults import FaultPlan, FaultSpec


@pytest.fixture(autouse=True)
def clean_harness(monkeypatch):
    monkeypatch.delenv("REPRO_FAULT_PLAN", raising=False)
    faults.reset()
    yield
    faults.reset()


class TestPlanSources:
    def test_no_plan_by_default(self):
        assert faults.active() is None

    def test_env_json_string(self, monkeypatch):
        monkeypatch.setenv(
            "REPRO_FAULT_PLAN",
            json.dumps({"faults": [{"site": "spawn", "op": "error"}]}),
        )
        plan = faults.active()
        assert plan is not None
        assert plan.specs[0].site == "spawn"

    def test_env_file_path(self, monkeypatch, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({"policy": {"job_timeout": 2.5}, "faults": []}))
        monkeypatch.setenv("REPRO_FAULT_PLAN", str(path))
        assert faults.policy_overrides() == {"job_timeout": 2.5}

    def test_malformed_env_warns_and_disables(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_PLAN", "{not json")
        with pytest.warns(RuntimeWarning, match="REPRO_FAULT_PLAN ignored"):
            assert faults.active() is None

    def test_install_takes_precedence_over_env(self, monkeypatch):
        monkeypatch.setenv(
            "REPRO_FAULT_PLAN",
            json.dumps({"faults": [{"site": "spawn", "op": "error"}]}),
        )
        faults.install(FaultPlan())  # empty plan disables the env plan
        assert faults.active() is not None
        assert faults.active().specs == []
        faults.reset()
        assert len(faults.active().specs) == 1

    def test_install_none_means_no_plan(self, monkeypatch):
        monkeypatch.setenv(
            "REPRO_FAULT_PLAN",
            json.dumps({"faults": [{"site": "spawn", "op": "error"}]}),
        )
        faults.install(None)
        assert faults.active() is None


class TestValidation:
    """A spec that could never fire is refused instead of passing silently."""

    #: The plan the CI fault-injection job exports.
    CI_PLAN = {
        "policy": {"job_timeout": 10.0, "backoff_base": 0.01},
        "faults": [
            {"site": "worker-job", "op": "crash", "nth": 0, "attempt": 0},
            {"site": "worker-job", "op": "hang", "nth": 1, "attempt": 0, "seconds": 30.0},
        ],
    }

    def test_unknown_site_refused(self):
        with pytest.raises(ValueError, match="unknown fault site 'schedule-store'"):
            FaultSpec(site="schedule-store", op="corrupt")

    def test_unknown_op_refused(self):
        with pytest.raises(ValueError, match="has no op 'explode'"):
            FaultSpec(site="worker-job", op="explode")

    def test_op_of_another_site_refused(self):
        with pytest.raises(ValueError, match="has no op 'crash'"):
            FaultSpec(site="journal", op="crash")

    @pytest.mark.parametrize("spec", [
        {"site": "worker-jobs", "op": "crash"},
        {"site": "worker-job", "op": "crahs"},
    ])
    def test_env_plan_with_bad_spec_is_ignored(self, monkeypatch, spec):
        monkeypatch.setenv("REPRO_FAULT_PLAN", json.dumps({"faults": [spec]}))
        with pytest.warns(RuntimeWarning, match="REPRO_FAULT_PLAN ignored"):
            assert faults.active() is None

    def test_ci_plan_loads(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_PLAN", json.dumps(self.CI_PLAN))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            plan = faults.active()
        assert [(spec.site, spec.op) for spec in plan.specs] == [
            ("worker-job", "crash"), ("worker-job", "hang"),
        ]


class TestMatching:
    def test_match_fields(self):
        spec = FaultSpec(site="worker-job", op="error", job="A/t", nth=1, attempt=0)
        assert spec.matches(job="A/t", nth=1, attempt=0)
        assert not spec.matches(job="B/t", nth=1, attempt=0)
        assert not spec.matches(job="A/t", nth=0, attempt=0)
        assert not spec.matches(job="A/t", nth=1, attempt=2)

    def test_times_caps_firings(self):
        faults.install(FaultPlan(specs=[
            FaultSpec(site="worker-job", op="error", times=1)
        ]))
        with pytest.raises(RuntimeError, match="injected fault"):
            faults.worker_job("A/t", 0, 0)
        assert faults.worker_job("A/t", 0, 1) is None  # spent

    def test_path_substring(self):
        spec = FaultSpec(site="journal", op="delete", path="journals")
        assert spec.matches(path="/tmp/cache/journals/abc.jsonl")
        assert not spec.matches(path="/tmp/cache/results/abc.json")

    def test_garbage_op_returns_marker(self):
        faults.install(FaultPlan(specs=[FaultSpec(site="worker-job", op="garbage")]))
        assert faults.worker_job("A/t", 0, 0) == "garbage"

    def test_fatal_error_is_simulation_error(self):
        from repro.common.errors import SimulationError

        faults.install(FaultPlan(specs=[
            FaultSpec(site="worker-job", op="fatal-error")
        ]))
        with pytest.raises(SimulationError):
            faults.worker_job("A/t", 0, 0)


class TestFileOps:
    def _write(self, tmp_path, content=b"x" * 100):
        path = tmp_path / "entry.json"
        path.write_bytes(content)
        return str(path)

    def test_corrupt_overwrites_head(self, tmp_path):
        path = self._write(tmp_path)
        faults.install(FaultPlan(specs=[FaultSpec(site="result-cache", op="corrupt")]))
        faults.on_write("result-cache", path)
        data = open(path, "rb").read()
        assert data != b"x" * 100
        assert len(data) == 100  # overwritten in place, not truncated

    def test_truncate_halves(self, tmp_path):
        path = self._write(tmp_path)
        faults.install(FaultPlan(specs=[FaultSpec(site="journal", op="truncate")]))
        faults.on_write("journal", path)
        assert os.path.getsize(path) == 50

    def test_delete_removes(self, tmp_path):
        path = self._write(tmp_path)
        faults.install(FaultPlan(specs=[FaultSpec(site="trace-pool", op="delete")]))
        faults.on_write("trace-pool", path)
        assert not os.path.exists(path)

    def test_nth_write_counter(self, tmp_path):
        first = self._write(tmp_path)
        faults.install(FaultPlan(specs=[
            FaultSpec(site="result-cache", op="delete", nth=1)
        ]))
        faults.on_write("result-cache", first)
        assert os.path.exists(first)  # nth=0 does not match
        faults.on_write("result-cache", first)
        assert not os.path.exists(first)  # nth=1 does

    def test_no_plan_is_free(self, tmp_path):
        path = self._write(tmp_path)
        faults.on_write("result-cache", path)
        assert open(path, "rb").read() == b"x" * 100

    def test_mangle_blob(self):
        blob = b"y" * 100
        assert faults.mangle_blob(blob) == blob  # no plan
        faults.install(FaultPlan(specs=[FaultSpec(site="snapshot-blob", op="corrupt")]))
        mangled = faults.mangle_blob(blob)
        assert mangled != blob
        assert len(mangled) == len(blob)


class TestSpawn:
    def test_spawn_error(self):
        faults.install(FaultPlan(specs=[FaultSpec(site="spawn", op="error")]))
        with pytest.raises(OSError, match="injected fault"):
            faults.on_spawn()

    def test_spawn_noop_without_plan(self):
        faults.on_spawn()


# ------------------------------------------------------------- the site table
PACKAGE = Path(faults.__file__).resolve().parent.parent


def _fired_sites() -> set:
    """Every site a call in the package can fire, read from the source.

    A hook in :mod:`repro.sim.faults` fires the site literal it passes to
    ``_match``; ``on_write`` fires the literal its caller passes.  A site
    counts once some module outside ``faults.py`` calls its hook.
    """
    hooks = {}
    for node in ast.parse(Path(faults.__file__).read_text()).body:
        if not isinstance(node, ast.FunctionDef):
            continue
        for call in ast.walk(node):
            if (
                isinstance(call, ast.Call)
                and isinstance(call.func, ast.Name)
                and call.func.id == "_match"
                and isinstance(call.args[0], ast.Constant)
            ):
                hooks[node.name] = call.args[0].value
    fired = set()
    for path in PACKAGE.rglob("*.py"):
        if path.resolve() == Path(faults.__file__).resolve():
            continue
        for call in ast.walk(ast.parse(path.read_text())):
            if not (
                isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute)
                and isinstance(call.func.value, ast.Name)
                and call.func.value.id == "faults"
            ):
                continue
            if call.func.attr == "on_write" and isinstance(call.args[0], ast.Constant):
                fired.add(call.args[0].value)
            elif call.func.attr in hooks:
                fired.add(hooks[call.func.attr])
    return fired


def _in_child(action) -> int:
    """Run ``action`` in a forked child; return the child's wait status."""
    pid = os.fork()
    if pid == 0:  # pragma: no cover - runs in the child
        try:
            action()
        finally:
            os._exit(0)
    _, status = os.waitpid(pid, 0)
    return status


def _worker_action(op):
    action = faults.worker_job_action("A/t", 0, 0)
    assert action == (op, 0.01)
    return action


def _crash(tmp_path):
    action = _worker_action("crash")
    status = _in_child(lambda: faults.apply_worker_action(action, "A/t"))
    assert os.WIFEXITED(status)
    assert os.WEXITSTATUS(status) == faults.CRASH_EXIT_CODE


def _hang(tmp_path):
    action = _worker_action("hang")
    start = time.monotonic()
    assert faults.apply_worker_action(action, "A/t") is None
    assert time.monotonic() - start >= 0.01


def _garbage(tmp_path):
    assert faults.apply_worker_action(_worker_action("garbage"), "A/t") == "garbage"


def _error(tmp_path):
    with pytest.raises(RuntimeError, match="transient error in A/t"):
        faults.apply_worker_action(_worker_action("error"), "A/t")


def _fatal_error(tmp_path):
    with pytest.raises(SimulationError, match="deterministic error in A/t"):
        faults.apply_worker_action(_worker_action("fatal-error"), "A/t")


def _commit_exit(tmp_path):
    status = _in_child(faults.on_commit)
    assert os.WIFSIGNALED(status)
    assert os.WTERMSIG(status) == signal.SIGKILL


def _spawn_error(tmp_path):
    with pytest.raises(OSError, match="spawn failure"):
        faults.on_spawn()


def _recycle_kill(tmp_path):
    assert faults.on_worker_recycle() is True


def _blob_corrupt(tmp_path):
    blob = b"y" * 100
    mangled = faults.mangle_blob(blob)
    assert mangled != blob and len(mangled) == len(blob)


def _file_op(site, op, tmp_path):
    path = tmp_path / "entry"
    path.write_bytes(b"x" * 100)
    faults.on_write(site, str(path))
    if op == "delete":
        assert not path.exists()
    elif op == "truncate":
        assert path.read_bytes() == b"x" * 50
    else:
        data = path.read_bytes()
        assert len(data) == 100 and data != b"x" * 100


#: (site, op) -> drives the site's hook once and checks what the op did.
ACTS = {
    ("worker-job", "crash"): _crash,
    ("worker-job", "hang"): _hang,
    ("worker-job", "garbage"): _garbage,
    ("worker-job", "error"): _error,
    ("worker-job", "fatal-error"): _fatal_error,
    ("commit", "exit"): _commit_exit,
    ("spawn", "error"): _spawn_error,
    ("worker-recycle", "kill"): _recycle_kill,
    ("snapshot-blob", "corrupt"): _blob_corrupt,
}
for _site in ("result-cache", "trace-pool", "journal", "store", "snapshot-store"):
    for _op in ("corrupt", "truncate", "delete"):
        ACTS[(_site, _op)] = lambda tmp_path, site=_site, op=_op: _file_op(site, op, tmp_path)

PAIRS = [(site, op) for site in sorted(faults.SITES) for op in sorted(faults.SITES[site])]


class TestSiteTable:
    """:data:`faults.SITES` names what the hooks fire and what each op does."""

    def test_table_names_exactly_the_sites_the_package_fires(self):
        assert _fired_sites() == set(faults.SITES)

    @pytest.mark.parametrize("site,op", PAIRS, ids=[f"{site}-{op}" for site, op in PAIRS])
    def test_every_table_op_acts(self, site, op, tmp_path):
        assert (site, op) in ACTS, f"no check for {site}/{op}"
        faults.install(FaultPlan(specs=[FaultSpec(site=site, op=op, seconds=0.01)]))
        ACTS[(site, op)](tmp_path)
