"""Deterministic fault injection for the sweep execution layer.

The supervised executor in :mod:`repro.sim.plan` promises to survive
worker crashes, hangs, garbage results, and corrupted on-disk state.
Those paths must be *provable*, not hoped for, so this module lets tests
(and the CI fault-injection job) make a chosen worker fail at a chosen
point, deterministically:

* a :class:`FaultPlan` is a list of :class:`FaultSpec`\\ s, each naming a
  **site** (where in the executor the fault fires), an **op** (what
  happens), and match fields (which occurrence it hits);
* the executor calls the site hooks below at every interesting point;
  with no plan active every hook is a near-free early return, so
  production runs pay nothing;
* plans come from the ``REPRO_FAULT_PLAN`` environment variable (a JSON
  object, or a path to a JSON file — read once per process and inherited
  by forked workers) or from the test API (:func:`install` /
  :func:`reset`, which takes precedence over the environment).

Sites and their ops
===================

``worker-job``
    Fires right before a job runs on a pool worker.  The *supervisor*
    matches the spec (:func:`worker_job_action`) and ships the action
    with the job payload, so a freshly installed plan reaches workers
    that were forked long before it — the persistent pool never relies
    on fork-time plan inheritance.  Matched by ``job`` (the
    ``"system/trace"`` label), ``nth`` (the job's stable position in the
    sweep's pending list), and ``attempt`` (0-based dispatch attempt).
    Ops: ``crash`` (``os._exit``), ``hang`` (sleep ``seconds``),
    ``garbage`` (reply with a non-result payload), ``error`` (raise a
    retryable ``RuntimeError``), ``fatal-error`` (raise a deterministic
    :class:`~repro.common.errors.SimulationError`).
``commit``
    Fires in the committing process after a finished result has been
    written to the cache and journal.  Matched by ``nth`` (per-process
    commit counter).  Op ``exit`` SIGKILLs the process — the way tests
    interrupt a sweep mid-flight to exercise checkpoint-resume.
``spawn``
    Fires when the supervisor acquires a worker — a fresh fork *or* a
    reused pool worker (so the spawn-degradation path stays testable
    when idle workers happen to exist).  Op ``error`` raises ``OSError``,
    exercising the degrade-to-in-process path.
``worker-recycle``
    Fires when the supervisor returns a worker to the persistent pool.
    Matched by ``nth`` (per-process release counter).  Op ``kill``
    discards the worker instead of pooling it, exercising the
    recycle-and-respawn path without a real crash.
``result-cache`` / ``trace-pool`` / ``journal`` / ``store`` / ``snapshot-store``
    Fire after the respective file has been written (``store`` is the
    SQLite result store, fired after each row insert commits;
    ``snapshot-store`` is the on-disk prewarm blob store).  Matched
    by ``nth`` (per-site write counter) and ``path`` (substring).  Ops
    ``corrupt`` (overwrite the head with garbage bytes), ``truncate``
    (halve the file), ``delete``.  File sites fire in the process that
    performs the write; pool workers run with no plan installed, so
    worker-side writes are disturbed by corrupting the file from the
    test process instead.
``snapshot-blob``
    Fires when a prewarm snapshot blob is stored.  Op ``corrupt``
    replaces the pickle with garbage, exercising the rebuild-on-corrupt
    recovery.

:data:`SITES` is the same table in code: a spec naming any other site,
or an op its site does not act on, is refused with a ``ValueError``
(an environment plan carrying one is ignored with a warning), so a
typo cannot make a fault test pass without injecting anything.

A plan may also carry a ``policy`` object whose keys override the
active :class:`~repro.sim.plan.SupervisionPolicy` (``job_timeout``,
``max_retries``, ``backoff_base``) so fault runs can use tight timeouts
without touching the code under test.

Example plan (the CI fault-injection job's)::

    {"policy": {"job_timeout": 15.0, "backoff_base": 0.01},
     "faults": [
       {"site": "worker-job", "op": "crash", "nth": 0, "attempt": 0},
       {"site": "worker-job", "op": "hang",  "nth": 1, "attempt": 0}]}
"""

from __future__ import annotations

import json
import os
import signal
import time
import warnings
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

#: Exit code of an injected worker crash (recognizable in waitpid status).
CRASH_EXIT_CODE = 173

#: Bytes written over a file's head by the ``corrupt`` op.
_CORRUPT_BYTES = b"\x00\x00repro-injected-corruption\x00\x00"

_FILE_OPS = frozenset(("corrupt", "truncate", "delete"))

#: Every site the hooks below fire, with the ops that site acts on.
SITES: Dict[str, frozenset] = {
    "worker-job": frozenset(("crash", "hang", "garbage", "error", "fatal-error")),
    "commit": frozenset(("exit",)),
    "spawn": frozenset(("error",)),
    "worker-recycle": frozenset(("kill",)),
    "result-cache": _FILE_OPS,
    "trace-pool": _FILE_OPS,
    "journal": _FILE_OPS,
    "store": _FILE_OPS,
    "snapshot-store": _FILE_OPS,
    "snapshot-blob": frozenset(("corrupt",)),
}


@dataclass
class FaultSpec:
    """One injected fault: where it fires, what it does, what it matches."""

    site: str
    op: str
    job: Optional[str] = None  #: "system/trace" label (worker-job only)
    nth: Optional[int] = None  #: site-specific occurrence number (0-based)
    attempt: Optional[int] = None  #: 0-based dispatch attempt (worker-job only)
    path: Optional[str] = None  #: substring of the written path (file sites)
    times: Optional[int] = None  #: max firings (``None`` = unlimited)
    seconds: float = 3600.0  #: sleep duration of the ``hang`` op
    fired: int = 0  #: firings so far (mutated by matching)

    def __post_init__(self) -> None:
        ops = SITES.get(self.site)
        if ops is None:
            raise ValueError(
                f"unknown fault site {self.site!r} (known: {', '.join(sorted(SITES))})"
            )
        if self.op not in ops:
            raise ValueError(
                f"fault site {self.site!r} has no op {self.op!r} "
                f"(known: {', '.join(sorted(ops))})"
            )

    def matches(self, *, job=None, nth=None, attempt=None, path=None) -> bool:
        if self.times is not None and self.fired >= self.times:
            return False
        if self.job is not None and self.job != job:
            return False
        if self.nth is not None and self.nth != nth:
            return False
        if self.attempt is not None and self.attempt != attempt:
            return False
        if self.path is not None and self.path not in (path or ""):
            return False
        return True


@dataclass
class FaultPlan:
    """A set of fault specs plus optional supervision-policy overrides."""

    specs: List[FaultSpec] = field(default_factory=list)
    policy: Dict[str, float] = field(default_factory=dict)

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "FaultPlan":
        specs = [FaultSpec(**spec) for spec in payload.get("faults", [])]
        policy = dict(payload.get("policy", {}))
        return cls(specs=specs, policy=policy)


_UNSET = object()
_installed: object = _UNSET  # test-API plan; _UNSET = fall back to the env
_env_plan: Optional[FaultPlan] = None
_env_loaded = False
_counters: Dict[str, int] = {}


def install(plan: Optional[FaultPlan]) -> None:
    """Activate ``plan`` for this process (and workers forked after this).

    Takes precedence over ``REPRO_FAULT_PLAN``; ``install(FaultPlan())``
    (an empty plan) therefore *disables* an environment-supplied plan.
    Site counters restart so occurrence matching is deterministic per
    installation.
    """
    global _installed
    _installed = plan
    _counters.clear()


def reset() -> None:
    """Drop any installed plan and re-read the environment on next use."""
    global _installed, _env_plan, _env_loaded
    _installed = _UNSET
    _env_plan = None
    _env_loaded = False
    _counters.clear()


def active() -> Optional[FaultPlan]:
    """The plan in effect: the installed one, else ``REPRO_FAULT_PLAN``."""
    global _env_plan, _env_loaded
    if _installed is not _UNSET:
        return _installed  # type: ignore[return-value]
    if not _env_loaded:
        _env_loaded = True
        raw = os.environ.get("REPRO_FAULT_PLAN")
        if raw:
            try:
                text = raw
                if not raw.lstrip().startswith("{"):
                    with open(raw, "r", encoding="utf-8") as handle:
                        text = handle.read()
                _env_plan = FaultPlan.from_dict(json.loads(text))
            except (OSError, ValueError, KeyError, TypeError) as exc:
                # A malformed plan must never break a real run; fault
                # injection is opt-in test machinery.
                warnings.warn(
                    f"REPRO_FAULT_PLAN ignored ({exc})", RuntimeWarning, stacklevel=2
                )
    return _env_plan


def policy_overrides() -> Dict[str, float]:
    """Supervision-policy overrides carried by the active plan."""
    plan = active()
    return dict(plan.policy) if plan is not None else {}


def _match(site: str, **fields) -> Optional[FaultSpec]:
    plan = active()
    if plan is None:
        return None
    for spec in plan.specs:
        if spec.site == site and spec.matches(**fields):
            spec.fired += 1
            return spec
    return None


def _next(site: str) -> int:
    value = _counters.get(site, 0)
    _counters[site] = value + 1
    return value


# ------------------------------------------------------------------ site hooks
def worker_job_action(label: str, seq: int, attempt: int) -> Optional[Tuple[str, float]]:
    """Match a worker-job fault without executing it.

    Called by the *supervisor* at dispatch time; the returned
    ``(op, seconds)`` rides in the job payload and is applied by the
    worker (:func:`apply_worker_action`).  Matching in the parent keeps
    the occurrence counters in one process, so plans installed after the
    pool spawned still hit deterministically.
    """
    spec = _match("worker-job", job=label, nth=seq, attempt=attempt)
    if spec is None:
        return None
    return (spec.op, spec.seconds)


def apply_worker_action(action: Optional[Tuple[str, float]], label: str) -> Optional[str]:
    """Execute a shipped worker-job fault action inside the worker.

    Returns ``"garbage"`` when the worker should reply with a corrupt
    payload; may not return at all (``crash``), or may sleep (``hang``)
    or raise (``error`` / ``fatal-error``).
    """
    if action is None:
        return None
    op, seconds = action
    if op == "crash":
        os._exit(CRASH_EXIT_CODE)
    if op == "hang":
        time.sleep(seconds)
        return None
    if op == "garbage":
        return "garbage"
    if op == "error":
        raise RuntimeError(f"injected fault: transient error in {label}")
    if op == "fatal-error":
        from repro.common.errors import SimulationError

        raise SimulationError(f"injected fault: deterministic error in {label}")
    return None


def worker_job(label: str, seq: int, attempt: int) -> Optional[str]:
    """Match *and* execute a worker-job fault in the calling process."""
    return apply_worker_action(worker_job_action(label, seq, attempt), label)


def on_worker_recycle() -> bool:
    """Called when a worker is about to return to the persistent pool.

    Returns True when the worker must be discarded (killed) instead of
    pooled — the injected stand-in for an unhealthy-but-alive worker.
    """
    if active() is None:
        return False
    spec = _match("worker-recycle", nth=_next("worker-recycle"))
    return spec is not None and spec.op == "kill"


def on_commit() -> None:
    """Called after a finished result has been committed (cache+journal)."""
    if active() is None:
        return
    spec = _match("commit", nth=_next("commit"))
    if spec is not None and spec.op == "exit":
        # The most brutal interruption there is: no atexit, no finally.
        os.kill(os.getpid(), signal.SIGKILL)


def on_spawn() -> None:
    """Called when the supervisor is about to fork a worker."""
    if active() is None:
        return
    spec = _match("spawn", nth=_next("spawn"))
    if spec is not None and spec.op == "error":
        raise OSError("injected fault: worker spawn failure")


def on_write(site: str, path: str) -> None:
    """Called after ``path`` has been written at a file site."""
    if active() is None:
        return
    spec = _match(site, nth=_next(site), path=path)
    if spec is None:
        return
    try:
        if spec.op == "delete":
            os.remove(path)
        elif spec.op == "truncate":
            size = os.path.getsize(path)
            with open(path, "r+b") as handle:
                handle.truncate(size // 2)
        elif spec.op == "corrupt":
            with open(path, "r+b") as handle:
                handle.write(_CORRUPT_BYTES)
    except OSError:  # pragma: no cover - the file vanished underneath us
        pass


def mangle_blob(blob: bytes) -> bytes:
    """Called when a prewarm snapshot blob is stored; may corrupt it."""
    if active() is None:
        return blob
    spec = _match("snapshot-blob", nth=_next("snapshot-blob"))
    if spec is not None and spec.op == "corrupt":
        return _CORRUPT_BYTES + blob[len(_CORRUPT_BYTES):]
    return blob
