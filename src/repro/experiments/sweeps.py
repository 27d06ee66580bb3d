"""Parameter sweeps: how the paper's effects scale beyond its set points.

The paper evaluates single parameter points (100 ms attacker delay, three
nodes, one network). These sweeps map the surrounding space; each yields
a list of :class:`SweepPoint` rows ready for tabulation:

* ``attack-delay`` — F± tilt and drift rate vs injected delay
  (validates the closed form ``F_calib = F_tsc·(1 ± d/Δs)`` end-to-end);
* ``jitter`` — honest calibration error vs network jitter (the
  mechanism behind the paper's ±30–220 ppm calibration band);
* ``cluster-size`` — F− infection speed vs cluster size (the
  propagation cascade does not dilute with more honest nodes);
* ``aex-rate`` — availability and drift exposure vs AEX rate
  (the availability/refresh-frequency trade-off of §IV-B).

A sweep is a **point function** (``*_point`` — one self-contained
measurement, a pure function of its arguments, in :data:`POINT_FUNCTIONS`)
and a **task emitter** (``*_tasks`` — the grid as a list of serializable
:class:`~repro.fleet.tasks.RunTask`, in :data:`TASK_EMITTERS`, which is
also the CLI's list of sweeps). To run one, hand its tasks to
:func:`run_point_tasks`: ``run_point_tasks(jitter_tasks(), jobs=4)`` fans
the grid out over worker processes, ``jobs=1`` (the default) runs
in-process; either way the rows are identical, because every point
builds its own :class:`~repro.sim.kernel.Simulator` from its own seed. A
point's ``metrics`` keys, in order, are its table's columns.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.analysis.metrics import DriftRecorder
from repro.analysis.stats import drift_rate_ms_per_s
from repro.attacks.delay import AttackMode, CalibrationDelayAttacker
from repro.core.cluster import ClusterConfig, TA_NAME, TriadCluster
from repro.core.node import TriadNodeConfig
from repro.errors import FleetError
from repro.fleet.cache import ResultCache
from repro.fleet.pool import FleetPool
from repro.fleet.tasks import RunTask
from repro.fleet.telemetry import FleetTelemetry
from repro.hardware.aex import ExponentialAexDelays, TriadLikeAexDelays
from repro.net.delays import ConstantDelay, LogNormalDelay
from repro.sim.kernel import Simulator
from repro.sim.units import MICROSECOND, MILLISECOND, MINUTE, SECOND

#: Default grids (kept as module constants so emitters and CLI agree).
DEFAULT_ATTACK_DELAYS_NS = (
    10 * MILLISECOND,
    50 * MILLISECOND,
    100 * MILLISECOND,
    200 * MILLISECOND,
)
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


def _fast_config(**overrides) -> TriadNodeConfig:
    defaults = dict(
        calibration_rounds=2,
        monitor_calibration_samples=4,
    )
    defaults.update(overrides)
    return TriadNodeConfig(**defaults)


def _as_mode(mode: AttackMode | str) -> AttackMode:
    return AttackMode[mode] if isinstance(mode, str) else mode


# -- point functions (one self-contained measurement each) -----------------------


def attack_delay_point(
    mode: AttackMode | str,
    delay_ns: int,
    seed: int = 400,
    settle_ns: int = 30 * SECOND,
    measure_ns: int = 60 * SECOND,
) -> SweepPoint:
    """Victim frequency skew and drift rate for one injected delay."""
    mode = _as_mode(mode)
    sim = Simulator(seed=seed)
    cluster = TriadCluster(
        sim,
        ClusterConfig(
            delay_model=ConstantDelay(100 * MICROSECOND),
            node_config=_fast_config(),
        ),
    )
    attacker = CalibrationDelayAttacker(
        sim, victim_host="node-3", ta_host=TA_NAME, mode=mode, added_delay_ns=delay_ns
    )
    cluster.network.add_adversary(attacker)
    if cluster.oracle is not None:  # the rule a spec's fplus/fminus attack follows
        cluster.oracle.allow(attacker.expected_violations())
    sim.run(until=settle_ns)
    node = cluster.node(3)
    samples = []

    def probe():
        while True:
            yield sim.timeout(SECOND)
            samples.append((sim.now, node.drift_ns()))

    sim.process(probe())
    sim.run(until=settle_ns + measure_ns)
    skew = node.stats.latest_frequency_hz / cluster.machine.tsc.frequency_hz
    sign = 1 if mode is AttackMode.F_PLUS else -1
    return SweepPoint(
        parameter="attack_delay_ms",
        value=delay_ns / 1e6,
        metrics={
            "skew_measured": skew,
            "skew_predicted": 1 + sign * delay_ns / SECOND,
            "drift_ms_per_s": drift_rate_ms_per_s(samples),
        },
        sim_ns=settle_ns + measure_ns,
    )


def jitter_point(
    sigma: float,
    median_ns: int = 150 * MICROSECOND,
    seeds: Sequence[int] = tuple(range(420, 428)),
    settle_ns: int = 30 * SECOND,
) -> SweepPoint:
    """Honest calibration error spread for one jitter level (no attacks)."""
    errors_ppm = []
    for seed in seeds:
        sim = Simulator(seed=seed)
        cluster = TriadCluster(
            sim,
            ClusterConfig(
                node_count=1,
                delay_model=LogNormalDelay(median_ns=median_ns, sigma=sigma),
                node_config=_fast_config(monitor_enabled=False),
            ),
        )
        sim.run(until=settle_ns)
        frequency = cluster.node(1).stats.latest_frequency_hz
        errors_ppm.append((frequency / cluster.machine.tsc.frequency_hz - 1) * 1e6)
    spread = max(errors_ppm) - min(errors_ppm)
    mean_abs = sum(abs(e) for e in errors_ppm) / len(errors_ppm)
    return SweepPoint(
        parameter="jitter_sigma",
        value=sigma,
        metrics={"mean_abs_error_ppm": mean_abs, "error_spread_ppm": spread},
        sim_ns=settle_ns * len(seeds),
    )


def cluster_size_point(
    size: int,
    seed: int = 440,
    duration_ns: int = 3 * MINUTE,
) -> SweepPoint:
    """F− infection of one honest-majority size.

    The original policy offers no herd immunity: however many honest
    nodes exist, each follows the fastest clock it hears. Measures the
    fraction of honest nodes infected (drift > 1 s) and the time until
    the last one fell.
    """
    sim = Simulator(seed=seed)
    cluster = TriadCluster(
        sim,
        ClusterConfig(
            node_count=size,
            delay_model=ConstantDelay(100 * MICROSECOND),
            node_config=_fast_config(),
        ),
    )
    for core in cluster.monitoring_cores:
        cluster.machine.add_aex_source(core, TriadLikeAexDelays())
    attacker = CalibrationDelayAttacker(
        sim,
        victim_host=f"node-{size}",
        ta_host=TA_NAME,
        mode=AttackMode.F_MINUS,
    )
    cluster.network.add_adversary(attacker)
    if cluster.oracle is not None:  # the rule a spec's fplus/fminus attack follows
        cluster.oracle.allow(attacker.expected_violations())
    recorder = DriftRecorder(sim, cluster.nodes, interval_ns=SECOND)
    sim.run(until=duration_ns)

    honest = cluster.nodes[:-1]
    infected_times = []
    for node in honest:
        series = recorder[node.name].samples
        first_infected = next((t for t, d in series if d > SECOND), None)
        if first_infected is not None:
            infected_times.append(first_infected)
    return SweepPoint(
        parameter="cluster_size",
        value=float(size),
        metrics={
            "honest_nodes": len(honest),
            "infected_fraction": len(infected_times) / len(honest),
            "last_infection_s": (
                max(infected_times) / SECOND if infected_times else float("nan")
            ),
        },
        sim_ns=duration_ns,
    )


def aex_rate_point(
    mean_ns: int,
    seed: int = 460,
    duration_ns: int = 5 * MINUTE,
) -> SweepPoint:
    """Availability and TA load for one mean inter-AEX delay (exponential).

    Calibration exchanges must fit between AEXs: with a 100 ms mean
    inter-AEX delay, a 1 s-sleep exchange is never AEX-free (the paper's
    §III-C observation that inter-AEX delays bound the usable waittimes),
    so every point calibrates with {0, 50 ms} sleeps.
    """
    sim = Simulator(seed=seed)
    cluster = TriadCluster(
        sim,
        ClusterConfig(
            delay_model=ConstantDelay(100 * MICROSECOND),
            node_config=_fast_config(
                calibration_sleeps_ns=(0, 50 * MILLISECOND),
                calibration_max_attempts=1000,
            ),
        ),
    )
    for core in cluster.monitoring_cores:
        cluster.machine.add_aex_source(core, ExponentialAexDelays(mean_ns))
    sim.run(until=duration_ns)
    node = cluster.node(1)
    return SweepPoint(
        parameter="mean_inter_aex_s",
        value=mean_ns / SECOND,
        metrics={
            "availability": node.timeline.availability(duration_ns),
            "aex_count": node.stats.aex_count,
            "peer_untaints": node.stats.peer_untaints,
            "ta_references": node.stats.ta_references,
        },
        sim_ns=duration_ns,
    )


#: sweep name -> point function (dispatch table of the ``sweep-point`` task kind).
POINT_FUNCTIONS = {
    "attack-delay": attack_delay_point,
    "jitter": jitter_point,
    "cluster-size": cluster_size_point,
    "aex-rate": aex_rate_point,
}


# -- task emitters (the same grids as serializable RunTasks) ---------------------


def _point_task(sweep: str, name: str, seed: Optional[int], sim_ns: int, kwargs: dict) -> RunTask:
    return RunTask(
        kind="sweep-point",
        name=name,
        seed=seed,
        duration_ns=sim_ns,
        payload={"sweep": sweep, "kwargs": kwargs},
    )


def attack_delay_tasks(
    mode: AttackMode | str = AttackMode.F_MINUS,
    delays_ns: Sequence[int] = DEFAULT_ATTACK_DELAYS_NS,
    seed: int = 400,
    settle_ns: int = 30 * SECOND,
    measure_ns: int = 60 * SECOND,
) -> list[RunTask]:
    mode_name = _as_mode(mode).name
    return [
        _point_task(
            "attack-delay",
            f"attack-delay/{mode_name}/{delay_ns / 1e6:g}ms",
            seed,
            settle_ns + measure_ns,
            {
                "mode": mode_name,
                "delay_ns": int(delay_ns),
                "seed": seed,
                "settle_ns": settle_ns,
                "measure_ns": measure_ns,
            },
        )
        for delay_ns in delays_ns
    ]


def jitter_tasks(
    sigmas: Sequence[float] = DEFAULT_JITTER_SIGMAS,
    median_ns: int = 150 * MICROSECOND,
    seeds: Optional[Sequence[int]] = None,
    seed: Optional[int] = None,
    settle_ns: int = 30 * SECOND,
) -> list[RunTask]:
    """``seeds`` wins when given; else 8 seeds starting at ``seed`` (default 420)."""
    if seeds is None:
        base = 420 if seed is None else seed
        seeds = tuple(range(base, base + 8))
    return [
        _point_task(
            "jitter",
            f"jitter/sigma={sigma:g}",
            seeds[0],
            settle_ns * len(seeds),
            {
                "sigma": sigma,
                "median_ns": median_ns,
                "seeds": [int(s) for s in seeds],
                "settle_ns": settle_ns,
            },
        )
        for sigma in sigmas
    ]


def cluster_size_tasks(
    sizes: Sequence[int] = DEFAULT_CLUSTER_SIZES,
    seed: int = 440,
    duration_ns: int = 3 * MINUTE,
) -> list[RunTask]:
    return [
        _point_task(
            "cluster-size",
            f"cluster-size/{size}",
            seed,
            duration_ns,
            {"size": int(size), "seed": seed, "duration_ns": duration_ns},
        )
        for size in sizes
    ]


def aex_rate_tasks(
    mean_delays_ns: Sequence[int] = DEFAULT_AEX_MEANS_NS,
    seed: int = 460,
    duration_ns: int = 5 * MINUTE,
) -> list[RunTask]:
    return [
        _point_task(
            "aex-rate",
            f"aex-rate/{mean_ns / SECOND:g}s",
            seed,
            duration_ns,
            {"mean_ns": int(mean_ns), "seed": seed, "duration_ns": duration_ns},
        )
        for mean_ns in mean_delays_ns
    ]


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
    pool = pool or FleetPool(jobs=jobs)
    results = pool.run(tasks, cache=cache, telemetry=telemetry)
    points = []
    for task, result in zip(tasks, results):
        if not result.ok:
            raise FleetError(f"sweep task {task.name!r} failed: {result.error}")
        raw = result.value["point"]
        points.append(
            SweepPoint(
                parameter=raw["parameter"],
                value=raw["value"],
                metrics=dict(raw["metrics"]),
                sim_ns=int(raw.get("sim_ns", 0)),
            )
        )
    return points
