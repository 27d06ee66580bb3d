"""Parameter sweeps: how the paper's effects scale beyond its set points.

``attack-delay`` checks the F± closed form ``F_calib = F_tsc·(1 ± d/Δs)``
end to end, ``jitter`` maps honest calibration error against network
jitter (the paper's ±30–220 ppm band), ``cluster-size`` shows that the F−
cascade does not dilute with more honest nodes, and ``aex-rate`` maps
availability against the AEX rate (§IV-B).

A sweep is a row of :data:`SWEEPS`: a base ``sweep-<name>`` entry of
:data:`~repro.experiments.scenarios.SCENARIOS`, the table value and spec
keys a point's kwargs give, and the point's metrics. A point is that spec
run once per seed (jitter's 8 seeds make one point), so its wiring and
oracle allowance are the spec's own. The ``*_tasks`` emitters
(:data:`TASK_EMITTERS`, the CLI's sweeps) give the grids as ``sweep-point``
tasks; :func:`run_point_tasks` runs them, at any ``jobs``, into the same
:class:`SweepPoint` rows, whose ``metrics`` keys are the table's columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.analysis.stats import drift_rate_ms_per_s
from repro.attacks.delay import AttackMode
from repro.errors import FleetError
from repro.experiments.runner import Experiment
from repro.experiments.scenarios import scenario_spec
from repro.experiments.spec import ExperimentSpec
from repro.fleet import FleetPool, FleetTelemetry, ResultCache, RunTask
from repro.sim.units import MICROSECOND, MILLISECOND, MINUTE, SECOND, exact_in

#: Default grids (kept as module constants so emitters and CLI agree).
DEFAULT_ATTACK_DELAYS_NS = tuple(ms * MILLISECOND for ms in (10, 50, 100, 200))
DEFAULT_JITTER_SIGMAS = (0.05, 0.15, 0.35, 0.7)
DEFAULT_CLUSTER_SIZES = (3, 5, 7)
DEFAULT_AEX_MEANS_NS = (100 * MILLISECOND, SECOND, 10 * SECOND, 60 * SECOND)


@dataclass
class SweepPoint:
    """One row of a sweep: the swept value plus measured metrics."""

    parameter: str
    value: float
    metrics: dict[str, float] = field(default_factory=dict)
    #: simulated nanoseconds this point advanced (telemetry throughput).
    sim_ns: int = 0

    def row(self, metric_names: Sequence[str]) -> list:
        return [self.value] + [self.metrics.get(name, float("nan")) for name in metric_names]


@dataclass(frozen=True)
class Sweep:
    """A base ``SCENARIOS`` entry, the table's first column, and two
    functions of a point's kwargs: ``point`` gives its value in that column
    and the spec keys it replaces, ``metrics`` its columns from its runs."""

    scenario: str
    parameter: str
    point: Callable[[dict], tuple[float, dict]]
    metrics: Callable[[list[Experiment], dict], dict]

    def specs(self, kwargs: dict, name: str) -> list[ExperimentSpec]:
        """A point's runs: its spec once per seed (``seeds``, else ``seed``)."""
        _, keys = self.point(kwargs)
        seeds = kwargs.get("seeds", [kwargs.get("seed")])
        keys = {**keys, "name": name}
        return [scenario_spec(self.scenario, seed, keys=keys) for seed in seeds]

    def run(self, kwargs: dict, name: str) -> SweepPoint:
        """The ``sweep-point`` executor: run a point's specs, reduce them to its row."""
        value, _ = self.point(kwargs)
        specs = self.specs(kwargs, name)
        metrics = self.metrics([spec.run() for spec in specs], kwargs)
        return SweepPoint(self.parameter, value, metrics, sum(s.duration_ns for s in specs))


def _skew(run: Experiment, index: int) -> float:
    """Node ``index``'s calibrated frequency over the true TSC frequency."""
    return run.node(index).stats.latest_frequency_hz / run.cluster.machine.tsc.frequency_hz


def _attack_delay(kw: dict) -> tuple[float, dict]:
    """F± (``mode``) of ``delay_ns`` on node 3, for ``settle_ns`` + ``measure_ns``."""
    mode = kw["mode"].lower().replace("_", "")  # F_PLUS -> fplus
    attack = {"type": mode, "victim": 3, "delay_ms": exact_in(kw["delay_ns"], MILLISECOND)}
    duration_s = exact_in(kw["settle_ns"] + kw["measure_ns"], SECOND)
    return kw["delay_ns"] / 1e6, {"duration_s": duration_s, "attacks": [attack]}


def _attack_delay_metrics(runs: list[Experiment], kw: dict) -> dict:
    """The victim's skew, its closed form, and its drift rate once settled."""
    (run,) = runs
    start, end = kw["settle_ns"], kw["settle_ns"] + kw["measure_ns"]
    sign = 1 if kw["mode"] == "F_PLUS" else -1
    return {
        "skew_measured": _skew(run, 3),
        "skew_predicted": 1 + sign * kw["delay_ns"] / SECOND,
        "drift_ms_per_s": drift_rate_ms_per_s(
            [(t, d) for t, d in run.drift(3).samples if start < t <= end]
        ),
    }


def _jitter(kw: dict) -> tuple[float, dict]:
    """Log-normal network delay of ``median_ns`` and ``sigma``, for ``settle_ns``."""
    median_us = exact_in(kw["median_ns"], MICROSECOND)
    delay = {"model": "lognormal", "median_us": median_us, "sigma": kw["sigma"]}
    return kw["sigma"], {"duration_s": exact_in(kw["settle_ns"], SECOND), "network_delay": delay}


def _jitter_metrics(runs: list[Experiment], kw: dict) -> dict:
    """The lone node's calibration error over the seeds."""
    errors_ppm = [(_skew(run, 1) - 1) * 1e6 for run in runs]
    return {
        "mean_abs_error_ppm": sum(abs(e) for e in errors_ppm) / len(errors_ppm),
        "error_spread_ppm": max(errors_ppm) - min(errors_ppm),
    }


def _cluster_size(kw: dict) -> tuple[float, dict]:
    """``size`` Triad-like nodes, F− on the last, for ``duration_ns``."""
    size = kw["size"]
    return float(size), {
        "duration_s": exact_in(kw["duration_ns"], SECOND),
        "nodes": size,
        "environments": {str(index): "triad-like" for index in range(1, size + 1)},
        "attacks": [{"type": "fminus", "victim": size}],
    }


def _cluster_size_metrics(runs: list[Experiment], kw: dict) -> dict:
    """Fraction of honest nodes infected (drift > 1 s) and when the last fell."""
    (run,) = runs
    honest = run.cluster.nodes[:-1]
    first = [next((t for t, d in run.recorder[n.name].samples if d > SECOND), None) for n in honest]
    infected = [t for t in first if t is not None]
    return {
        "honest_nodes": len(honest),
        "infected_fraction": len(infected) / len(honest),
        "last_infection_s": max(infected) / SECOND if infected else float("nan"),
    }


def _aex_rate(kw: dict) -> tuple[float, dict]:
    """Every monitoring core flooded with AEXs ``mean_ns`` apart, for ``duration_ns``."""
    mean_us = exact_in(kw["mean_ns"], MICROSECOND)
    flood = [
        {"t_ns": 0, "primitive": "aex-flood", "params": {"node": node, "mean_us": mean_us}}
        for node in (1, 2, 3)
    ]
    duration_s = exact_in(kw["duration_ns"], SECOND)
    return kw["mean_ns"] / SECOND, {"duration_s": duration_s, "schedule": flood}


def _aex_rate_metrics(runs: list[Experiment], kw: dict) -> dict:
    """Node 1's availability and refresh counts."""
    (run,) = runs
    stats = run.node(1).stats
    return {
        "availability": run.availability(1),
        "aex_count": stats.aex_count,
        "peer_untaints": stats.peer_untaints,
        "ta_references": stats.ta_references,
    }


#: sweep name -> its row (the dispatch table of the ``sweep-point`` task kind).
SWEEPS = {
    "attack-delay": Sweep(
        "sweep-attack-delay", "attack_delay_ms", _attack_delay, _attack_delay_metrics
    ),
    "jitter": Sweep("sweep-jitter", "jitter_sigma", _jitter, _jitter_metrics),
    "cluster-size": Sweep(
        "sweep-cluster-size", "cluster_size", _cluster_size, _cluster_size_metrics
    ),
    "aex-rate": Sweep("sweep-aex-rate", "mean_inter_aex_s", _aex_rate, _aex_rate_metrics),
}


def _tasks(sweep: str, seed: Optional[int], points: list[tuple[str, dict]]) -> list[RunTask]:
    """``sweep-point`` tasks of (name, kwargs) pairs. Mapping each point's
    kwargs rejects a value its spec cannot express before it is queued."""
    tasks = []
    for name, kwargs in points:
        runs = len(kwargs.get("seeds", [None]))
        _, keys = SWEEPS[sweep].point(kwargs)
        duration_ns = int(keys["duration_s"] * SECOND) * runs
        payload = {"sweep": sweep, "kwargs": kwargs}
        tasks.append(RunTask("sweep-point", name, seed, duration_ns, payload))
    return tasks


def attack_delay_tasks(
    mode: AttackMode | str = AttackMode.F_MINUS,
    delays_ns: Sequence[int] = DEFAULT_ATTACK_DELAYS_NS,
    seed: int = 400,
    settle_ns: int = 30 * SECOND,
    measure_ns: int = 60 * SECOND,
) -> list[RunTask]:
    mode = (AttackMode[mode] if isinstance(mode, str) else mode).name
    timing = {"seed": seed, "settle_ns": settle_ns, "measure_ns": measure_ns}
    return _tasks("attack-delay", seed, [
        (f"attack-delay/{mode}/{d / 1e6:g}ms", {"mode": mode, "delay_ns": int(d), **timing})
        for d in delays_ns
    ])


def jitter_tasks(
    sigmas: Sequence[float] = DEFAULT_JITTER_SIGMAS,
    median_ns: int = 150 * MICROSECOND,
    seeds: Optional[Sequence[int]] = None,
    seed: Optional[int] = None,
    settle_ns: int = 30 * SECOND,
) -> list[RunTask]:
    """``seeds`` wins when given; else 8 seeds starting at ``seed`` (default 420)."""
    base = 420 if seed is None else seed
    seeds = [int(s) for s in (range(base, base + 8) if seeds is None else seeds)]
    fixed = {"median_ns": median_ns, "seeds": seeds, "settle_ns": settle_ns}
    return _tasks("jitter", seeds[0], [
        (f"jitter/sigma={sigma:g}", {"sigma": sigma, **fixed}) for sigma in sigmas
    ])


def cluster_size_tasks(
    sizes: Sequence[int] = DEFAULT_CLUSTER_SIZES, seed: int = 440, duration_ns: int = 3 * MINUTE
) -> list[RunTask]:
    fixed = {"seed": seed, "duration_ns": duration_ns}
    return _tasks("cluster-size", seed, [
        (f"cluster-size/{size}", {"size": int(size), **fixed}) for size in sizes
    ])


def aex_rate_tasks(
    mean_delays_ns: Sequence[int] = DEFAULT_AEX_MEANS_NS,
    seed: int = 460,
    duration_ns: int = 5 * MINUTE,
) -> list[RunTask]:
    fixed = {"seed": seed, "duration_ns": duration_ns}
    return _tasks("aex-rate", seed, [
        (f"aex-rate/{m / SECOND:g}s", {"mean_ns": int(m), **fixed}) for m in mean_delays_ns
    ])


#: sweep name -> task emitter (what the CLI fans out).
TASK_EMITTERS = {
    "attack-delay": attack_delay_tasks,
    "jitter": jitter_tasks,
    "cluster-size": cluster_size_tasks,
    "aex-rate": aex_rate_tasks,
}


def run_point_tasks(
    tasks: Sequence[RunTask],
    jobs: int = 1,
    pool: Optional[FleetPool] = None,
    cache: Optional[ResultCache] = None,
    telemetry: Optional[FleetTelemetry] = None,
) -> list[SweepPoint]:
    """Execute ``sweep-point`` tasks through a pool; rows in task order.

    Raises :class:`FleetError` if any point failed (sweeps are
    all-or-nothing: a table with silently missing rows would be worse
    than no table).
    """
    results = (pool or FleetPool(jobs=jobs)).run(tasks, cache=cache, telemetry=telemetry)
    for task, result in zip(tasks, results):
        if not result.ok:
            raise FleetError(f"sweep task {task.name!r} failed: {result.error}")
    return [SweepPoint(**result.value["point"]) for result in results]
