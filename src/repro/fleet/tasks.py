"""Serializable run descriptions: the unit of work the fleet executes.

A :class:`RunTask` captures *what* to run — a sweep point, a declarative
spec, a canonical experiment — as plain JSON-able data, never as live
objects. That buys three things at once:

* **portability** — tasks pickle cheaply into worker processes;
* **addressability** — :meth:`RunTask.content_hash` is a stable digest of
  the task content plus the code version, so identical work is
  recognizable across runs (the key of :mod:`repro.fleet.cache`);
* **determinism** — a task carries its own seed and parameters, and its
  executor builds a fresh :class:`~repro.sim.kernel.Simulator` from
  nothing else, so the result is a pure function of the task.

Executors are registered per ``kind`` with :func:`register_runner`; the
built-in kinds are ``sweep-point``, ``spec``, ``hunt-genome`` and
``experiment``. A ``spec`` task returns the drift table plus the report
and rendering of every plane the spec attached (service, membership,
faults recovery); the CLI's ``service``, ``membership`` and ``faults``
subcommands are presets building such tasks. An executor returns a
JSON-able dict (it must round-trip through ``json.dumps``/``loads``
unchanged — the cache stores it that way) and should include a
``sim_ns`` entry so telemetry can report simulated seconds per wall
second.

:func:`execute_task` runs every kind through the one plane runner,
:func:`repro.oracle.policy.run_planes`, with the task's ``oracle`` and
``membership`` overrides as the requested modes.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Optional

from repro.errors import FleetError


@dataclass
class RunTask:
    """One self-contained unit of work with a stable content hash."""

    kind: str
    name: str
    seed: Optional[int] = None
    duration_ns: Optional[int] = None
    payload: dict = field(default_factory=dict)
    overrides: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, raw: dict) -> "RunTask":
        unknown = set(raw) - {f for f in cls.__dataclass_fields__}
        if unknown:
            raise FleetError(f"unknown RunTask keys: {sorted(unknown)}")
        return cls(**raw)

    def content_hash(self) -> str:
        """Stable digest of the task content, salted with the code version.

        Bumping :data:`repro.__version__` therefore invalidates every
        cached result at once — a coarse but sound "code changed, redo
        the work" rule.
        """
        from repro import __version__

        blob = json.dumps(
            {"task": self.to_dict(), "code_version": __version__},
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass
class TaskResult:
    """Outcome of one task: value or error, plus execution bookkeeping."""

    task_hash: str
    name: str
    ok: bool
    value: Any = None
    error: str = ""
    wall_s: float = 0.0
    sim_ns: int = 0
    attempts: int = 1
    from_cache: bool = False
    #: Oracle violation records (dicts) the task reported, if any.
    violations: list = field(default_factory=list)
    #: Peak resident-set size of the executing process (KiB; 0 when
    #: unknown, e.g. cache hits). In-process runs report the parent's
    #: peak, worker runs the worker's — either way a monotone high-water
    #: mark that makes memory growth over a long batch diagnosable.
    peak_rss_kb: int = 0


def peak_rss_kb() -> int:
    """Peak RSS of the current process in KiB (0 where unsupported).

    ``ru_maxrss`` is kibibytes on Linux but bytes on macOS; normalize so
    telemetry is comparable across platforms.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover — non-POSIX platform
        return 0
    import sys

    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover — linux CI
        peak //= 1024
    return int(peak)


#: kind -> executor. Executors take a RunTask and return a JSON-able dict.
_RUNNERS: dict[str, Callable[[RunTask], dict]] = {}


def register_runner(kind: str) -> Callable:
    """Decorator registering an executor for a task ``kind``."""

    def decorate(fn: Callable[[RunTask], dict]) -> Callable[[RunTask], dict]:
        _RUNNERS[kind] = fn
        return fn

    return decorate


def runner_for(kind: str) -> Callable[[RunTask], dict]:
    try:
        return _RUNNERS[kind]
    except KeyError:
        raise FleetError(
            f"no runner registered for task kind {kind!r}; known kinds: {sorted(_RUNNERS)}"
        ) from None


def execute_task(task: RunTask) -> dict:
    """Run a task in-process and return its JSON-able result value.

    ``task.overrides["oracle"]`` and ``["membership"]`` are the plane
    modes the run gets (this is how they cross worker-process
    boundaries: they ride in the pickled task, not in inherited process
    state). Violations observed by any oracle the run created are
    appended to the result value under ``"violations"``; in strict mode,
    unexpected violations raise
    :class:`~repro.errors.OracleViolationError`.
    """
    from repro.oracle.policy import run_planes

    run = run_planes(
        lambda: runner_for(task.kind)(task),
        oracle=task.overrides.get("oracle"),
        membership=task.overrides.get("membership"),
        name=task.name,
    )
    if run.failure is not None:
        raise run.failure
    violations = [v.to_dict() for oracle in run.oracles for v in oracle.violations]
    if isinstance(run.value, dict) and violations:
        return {**run.value, "violations": violations}
    return run.value


def result_sim_ns(value: Any) -> int:
    """Simulated nanoseconds a result value reports (0 when unknown)."""
    if isinstance(value, dict):
        sim_ns = value.get("sim_ns", 0)
        if isinstance(sim_ns, (int, float)):
            return int(sim_ns)
    return 0


def result_violations(value: Any) -> list[dict]:
    """Oracle violation records a result value carries (empty when none)."""
    if isinstance(value, dict):
        violations = value.get("violations")
        if isinstance(violations, list):
            return [dict(item) for item in violations if isinstance(item, dict)]
    return []


# -- built-in task kinds ---------------------------------------------------------
#
# The imports below are deliberately lazy: repro.experiments imports this
# package at module level, so importing it here at import time would be
# circular. Executors only pay the import on first use (once per worker
# process).


@register_runner("sweep-point")
def _run_sweep_point(task: RunTask) -> dict:
    """Run one sweep point's specs and reduce them (see ``repro.experiments.sweeps``)."""
    from repro.experiments.sweeps import SWEEPS

    sweep = task.payload.get("sweep")
    if sweep not in SWEEPS:
        raise FleetError(f"unknown sweep {sweep!r}; choose from {sorted(SWEEPS)}")
    point = SWEEPS[sweep].run(dict(task.payload.get("kwargs", {})), task.name)
    return {"point": asdict(point), "sim_ns": point.sim_ns}


@register_runner("spec")
def _run_spec(task: RunTask) -> dict:
    """Execute a declarative experiment spec (``repro.experiments.spec``)."""
    from repro.experiments.spec import ExperimentSpec

    spec = ExperimentSpec.from_dict(dict(task.payload["spec"]))
    return spec.outcome(spec.run())


@register_runner("hunt-genome")
def _run_hunt_genome(task: RunTask) -> dict:
    """Evaluate one attack-schedule genome (see ``repro.hunt``)."""
    from repro.hunt.evaluate import evaluate_genome_task

    return evaluate_genome_task(task)


@register_runner("experiment")
def _run_experiment(task: RunTask) -> dict:
    """Execute one canonical experiment (``repro.experiments.figures.EXPERIMENTS``)."""
    from repro.experiments.figures import EXPERIMENTS, render_result, run_experiment

    name = task.payload.get("experiment")
    if name not in EXPERIMENTS:
        raise FleetError(f"unknown experiment {name!r}; choose from {sorted(EXPERIMENTS)}")
    default_duration = EXPERIMENTS[name].duration_ns
    duration_ns = task.duration_ns or default_duration
    result = run_experiment(name, task.seed, duration_ns)
    # fig1 / inc / ablation: built-in seed and span, no simulated time.
    sim_ns = duration_ns if default_duration else 0
    return {"experiment": name, "rendered": render_result(name, result), "sim_ns": sim_ns}
