"""The benchmark's pinned workloads: units, output checks and digests.

A workload is a list of units built from the benchmark seed. Each unit
wires an experiment (``build``, timed as set-up), advances it (``run``,
timed as simulation), then reduces it to plain data (``extract``,
untimed): the facts its ``check`` judges, the material its digest hashes,
and the report numbers the traced run's per-layer split reads.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Any, Callable

from repro.analysis.stats import drift_rate_ms_per_s
from repro.attacks.delay import AttackMode
from repro.experiments import scenarios
from repro.experiments.figures import Fig6Result
from repro.experiments.spec import ExperimentSpec
from repro.experiments.sweeps import attack_delay_tasks, run_point_tasks
from repro.faults import FaultPlan, recovery_report
from repro.fleet.pool import FleetPool
from repro.oracle.policy import drain_created_oracles, oracle_policy
from repro.sim.units import MILLISECOND, MINUTE, SECOND

#: Paper Fig. 6 set-up: 7 simulated minutes, honest AEX onset at 104 s.
FIG6_DURATION_NS = 7 * MINUTE
FIG6_SWITCH_NS = 104 * SECOND
#: Attack-delay sweep: settle, then measure, per point (the sweep defaults).
SWEEP_SETTLE_NS = 30 * SECOND
SWEEP_MEASURE_NS = 60 * SECOND
SWEEP_POINTS = 6
#: The committed 200-node mesh of ``benchmarks/record.py membership``.
MESH_NODES = 200
MESH_DURATION_S = 5.0
#: The mesh's simulator seed is pinned: it fixes every node's AEX stream,
#: and across seeds those streams change the mesh's datagram volume by
#: -25%..+35%, which would make runs of different seeds measure different
#: amounts of work. The benchmark seed picks the churn schedule instead.
MESH_SIM_SEED = 11
SERVICE_DURATION_S = 300.0
FAULT_WAVE_PERIOD_S = 60.0
FAULT_WAVE_FIRST_S = 12.0


@dataclass
class Unit:
    """One experiment of a workload.

    ``build`` and ``run`` look the program's entry points up when called,
    not when the unit is made, so the traced run's wrappers are seen.
    """

    name: str
    sim_s: float
    build: Callable[[], Any]
    #: Advances the built experiment and produces the program's own
    #: reports, as a user's run would.
    run: Callable[[Any], Any]
    #: Reduces the run to ``{"facts", "digest", "layer"}`` plain data.
    extract: Callable[[Any], dict]
    #: Returns the problems found in the facts (empty when correct).
    check: Callable[[dict], list]


def digest(material: Any) -> str:
    """Stable hash of a unit's simulated outputs."""
    blob = json.dumps(material, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _node_stats(node) -> dict:
    stats = node.stats
    return {
        "aex_count": stats.aex_count,
        "full_calibrations": stats.full_calibrations,
        "ta_references": stats.ta_references,
        "peer_untaints": stats.peer_untaints,
        "authority_untaints": stats.authority_untaints,
        "monitor_alerts": stats.monitor_alerts,
        "ta_fetch_failures": stats.ta_fetch_failures,
        "ta_fetch_backoffs": stats.ta_fetch_backoffs,
        "crashes": stats.crashes,
        "timestamps_served": stats.timestamps_served,
        "peer_requests_served": stats.peer_requests_served,
        "calibration_samples_discarded": stats.calibration_samples_discarded,
    }


# -- paper-attacks ---------------------------------------------------------------


def _fig6_unit(name: str, builder_name: str, seed: int, check: Callable) -> Unit:
    def build():
        # The strict oracle attaches at cluster construction and judges
        # the run at its end, so it must be in force for both phases.
        # The builder is looked up on the module at call time, which is
        # where the traced run's wrapper sits.
        with oracle_policy("strict"):
            experiment = getattr(scenarios, builder_name)(seed=seed, switch_at_ns=FIG6_SWITCH_NS)
        # The policy also keeps every oracle it creates for a fleet task
        # to collect; drop that reference so finished runs are freed.
        drain_created_oracles()
        return experiment

    def run(experiment):
        with oracle_policy("strict"):
            return experiment.run(FIG6_DURATION_NS)

    def extract(experiment) -> dict:
        result = Fig6Result(
            experiment=experiment, duration_ns=FIG6_DURATION_NS, switch_at_ns=FIG6_SWITCH_NS
        )
        nodes = experiment.cluster.nodes
        drift = {node.name: result.drift(i).samples for i, node in enumerate(nodes, start=1)}
        facts = {
            "victim_skew": result.victim_frequency_skew(),
            "victim_rate_ms_per_s": drift_rate_ms_per_s(
                result.drift(3).window(20 * SECOND, FIG6_SWITCH_NS)
            ),
            "final_drift_ms": [result.drift(i).final_drift_ns() / 1e6 for i in (1, 2, 3)],
            "max_abs_drift_ms": [result.drift(i).max_abs_drift_ns() / 1e6 for i in (1, 2, 3)],
        }
        material = {
            "drift": drift,
            "stats": {node.name: _node_stats(node) for node in nodes},
            "violations": [v.to_dict() for v in experiment.oracle.violations],
        }
        return {"facts": facts, "digest": material, "layer": {}}

    return Unit(name, FIG6_DURATION_NS / SECOND, build, run, extract, check)


def _check_fig6_original(facts: dict) -> list:
    problems = []
    if abs(facts["victim_skew"] / 0.9 - 1.0) > 0.002:
        problems.append(f"victim skew {facts['victim_skew']:.5f} not 0.9 +/- 0.2%")
    if abs(facts["victim_rate_ms_per_s"] - 111.0) > 4.0:
        problems.append(
            f"victim drift {facts['victim_rate_ms_per_s']:+.2f} ms/s not +111 +/- 4 ms/s"
        )
    for index in (0, 1):
        if not facts["final_drift_ms"][index] > 1000.0:
            problems.append(
                f"honest node-{index + 1} ends {facts['final_drift_ms'][index]:+.1f} ms, "
                "not more than 1 s ahead"
            )
    return problems


def _check_fig6_hardened(facts: dict) -> list:
    problems = []
    for index in (0, 1):
        if facts["max_abs_drift_ms"][index] > 100.0:
            problems.append(
                f"honest node-{index + 1} reached {facts['max_abs_drift_ms'][index]:.1f} ms"
            )
    if facts["max_abs_drift_ms"][2] > 500.0:
        problems.append(f"victim reached {facts['max_abs_drift_ms'][2]:.1f} ms")
    return problems


def sweep_delays_ms(seed: int) -> list:
    """Six distinct attack delays, 10-250 ms on a 10 ms grid, from the seed."""
    return sorted(random.Random(seed).sample(range(10, 251, 10), SWEEP_POINTS))


def _sweep_unit(seed: int) -> Unit:
    delays_ns = tuple(ms * MILLISECOND for ms in sweep_delays_ms(seed))

    def build():
        return [
            task
            for mode in (AttackMode.F_PLUS, AttackMode.F_MINUS)
            for task in attack_delay_tasks(
                mode,
                delays_ns=delays_ns,
                seed=seed,
                settle_ns=SWEEP_SETTLE_NS,
                measure_ns=SWEEP_MEASURE_NS,
            )
        ]

    def run(tasks):
        # One in-process pool, no result cache and no retries: every point
        # is executed, and a failing point is not hidden by a rerun.
        return run_point_tasks(tasks, pool=FleetPool(jobs=1, retries=0))

    def extract(points) -> dict:
        rows = [[point.value, point.metrics] for point in points]
        errors = [
            abs(point.metrics["skew_measured"] - point.metrics["skew_predicted"])
            for point in points
        ]
        return {"facts": {"skew_errors": errors}, "digest": rows, "layer": {}}

    def check(facts: dict) -> list:
        worst = max(facts["skew_errors"])
        return [] if worst <= 1e-3 else [f"sweep skew off prediction by {worst:.2e}"]

    sim_s = 2 * SWEEP_POINTS * (SWEEP_SETTLE_NS + SWEEP_MEASURE_NS) / SECOND
    return Unit("attack-delay-sweeps", sim_s, build, run, extract, check)


def paper_attacks(seed: int) -> list:
    """Fig. 6 on the original and hardened protocols, plus the F+/F- sweeps."""
    return [
        _fig6_unit("fig6-original", "fminus_propagation", seed, _check_fig6_original),
        _fig6_unit("fig6-hardened", "hardened_fminus_propagation", seed, _check_fig6_hardened),
        _sweep_unit(seed),
    ]


# -- membership-mesh -------------------------------------------------------------


def mesh_churn(seed: int) -> list:
    """Three churn events: two nodes leave, the first rejoins."""
    rng = random.Random(seed)
    rejoiner, leaver = rng.sample(range(2, MESH_NODES + 1), 2)
    leave_s, leave2_s, join_s = (
        round(base + 0.1 * rng.randrange(7), 1) for base in (1.2, 2.2, 3.2)
    )
    return [
        {"t_s": leave_s, "node": rejoiner, "action": "leave"},
        {"t_s": leave2_s, "node": leaver, "action": "leave"},
        {"t_s": join_s, "node": rejoiner, "action": "join"},
    ]


def _spec_unit(
    name: str, spec: ExperimentSpec, report: Callable, extract: Callable, check: Callable
) -> Unit:
    def run(experiment):
        experiment.run(spec.duration_ns)
        return experiment, report(experiment)

    return Unit(name, spec.duration_s, lambda: spec.build(), run, extract, check)


def membership_mesh(seed: int) -> list:
    """The 200-node enforce-mode mesh: 1 s epochs, 3 churn events, 5 sim-s."""
    spec = ExperimentSpec.from_dict(
        {
            "name": "bench-membership",
            "seed": MESH_SIM_SEED,
            "duration_s": MESH_DURATION_S,
            "nodes": MESH_NODES,
            "environments": {str(i): "triad-like" for i in range(1, MESH_NODES + 1)},
            "membership": {"mode": "enforce", "epoch_s": 1.0},
            "churn": {"schedule": mesh_churn(seed)},
        }
    )

    def extract(state) -> dict:
        experiment, report = state
        drift = {
            node.name: experiment.recorder[node.name].samples[-1:]
            for node in experiment.cluster.nodes
        }
        facts = {
            "epochs_closed": report["epochs_closed"],
            "rotations": report["rotations"],
            "verdict_counts": report["verdict_counts"],
        }
        return {"facts": facts, "digest": {"report": report, "final_drift": drift}, "layer": {}}

    def check(facts: dict) -> list:
        problems = []
        if facts["epochs_closed"] != 5 or facts["rotations"] != 5:
            problems.append(
                f"{facts['epochs_closed']} epochs / {facts['rotations']} rotations, not 5 / 5"
            )
        cut = {k: v for k, v in facts["verdict_counts"].items() if k in ("quarantined", "evicted")}
        if cut:
            problems.append(f"nodes cut off: {cut}")
        return problems

    def report(experiment) -> dict:
        return experiment.membership.report()

    return [_spec_unit("membership-mesh", spec, report, extract, check)]


# -- service-faults --------------------------------------------------------------


def fault_waves(seed: int) -> list:
    """A fault wave every 60 sim-s: crash, TA outage, partition, loss burst."""
    schedule = []
    waves = int((SERVICE_DURATION_S - 40.0) // FAULT_WAVE_PERIOD_S) + 1
    for wave in range(waves):
        base = FAULT_WAVE_FIRST_S + FAULT_WAVE_PERIOD_S * wave
        crashed = (seed + wave) % 3 + 1
        island = (seed + wave + 1) % 3 + 1
        schedule += [
            {"t_s": base, "kind": "node-crash", "node": crashed, "down_ms": 800},
            {"t_s": base + 2.0, "kind": "ta-outage", "duration_ms": 3000},
            {
                "t_s": base + 8.0,
                "kind": "partition",
                "island": [island],
                "duration_ms": 2000,
                "name": f"wave-{wave}",
            },
            {
                "t_s": base + 14.0,
                "kind": "loss-burst",
                "drop_probability": 0.2,
                "duration_ms": 1000,
            },
        ]
    return schedule


def service_faults(seed: int) -> list:
    """3-node quorum-3 service, 1M open-loop sessions, through fault waves."""
    spec = ExperimentSpec.from_dict(
        {
            "name": "bench-service-faults",
            "seed": seed,
            "duration_s": SERVICE_DURATION_S,
            "nodes": 3,
            "environments": {"1": "triad-like", "2": "triad-like", "3": "triad-like"},
            "service": {"sessions": 1_000_000, "arrival": "open", "quorum": 3},
            "faults": {
                "schedule": fault_waves(seed),
                "recovery_deadline_s": 15.0,
                "retry": {
                    "backoff_factor": 2.0,
                    "jitter": 0.1,
                    "backoff_s": 0.5,
                    "max_backoff_s": 4.0,
                    "calibration_backoff_ms": 200,
                },
            },
        }
    )
    plan = FaultPlan.from_spec(
        spec.faults, nodes=spec.nodes, ta_count=spec.ta_count, duration_s=spec.duration_s
    )

    def report(experiment) -> tuple:
        return recovery_report(experiment, plan), experiment.service.report()

    def extract(state) -> dict:
        experiment, (recovery, service_report) = state
        service = service_report.to_dict()
        facts = {
            "recovered_all": recovery["recovered_all"],
            "mttr_max_ms": recovery["mttr_max_ms"],
            "availability": service["availability"],
        }
        layer = {
            "service.requests": service["requests"],
            "faults.retry_backoffs": sum(
                node["retry_backoffs"] for node in recovery["nodes"].values()
            ),
            "faults.mttr_max_ms": recovery["mttr_max_ms"] or 0.0,
        }
        material = {
            "service": service,
            "recovery": recovery,
            "stats": {node.name: _node_stats(node) for node in experiment.cluster.nodes},
        }
        return {"facts": facts, "digest": material, "layer": layer}

    def check(facts: dict) -> list:
        return [] if facts["recovered_all"] else ["not every node recovered after the last fault"]

    return [_spec_unit("service-faults", spec, report, extract, check)]


WORKLOADS = {
    "paper-attacks": paper_attacks,
    "membership-mesh": membership_mesh,
    "service-faults": service_faults,
}


def fidelity_lines(workload: str, facts_by_unit: dict) -> list:
    """Paper-fidelity values next to the paper's own numbers."""
    if workload == "paper-attacks":
        original = facts_by_unit["fig6-original"]
        hardened = facts_by_unit["fig6-hardened"]
        sweep = facts_by_unit["attack-delay-sweeps"]
        finals = ", ".join(f"{ms / 1e3:+.1f} s" for ms in original["final_drift_ms"][:2])
        return [
            f"victim F_calib/F_tsc  {original['victim_skew']:.5f}   (paper Fig. 6: ~0.9)",
            f"victim drift 20-104s  {original['victim_rate_ms_per_s']:+.2f} ms/s"
            "   (paper: +113 ms/s)",
            f"honest final drift    {finals}   (paper: propagation drags honest nodes ahead)",
            "hardened honest max   "
            + ", ".join(f"{ms:.1f} ms" for ms in hardened["max_abs_drift_ms"][:2])
            + "   (paper S V: true-chimer check contains F-)",
            f"sweep skew max error  {max(sweep['skew_errors']):.2e}"
            "   (closed form F_tsc*(1 +/- d))",
        ]
    if workload == "membership-mesh":
        facts = facts_by_unit["membership-mesh"]
        return [
            f"epochs/rotations      {facts['epochs_closed']}/{facts['rotations']}",
            f"verdicts              {facts['verdict_counts']}",
        ]
    facts = facts_by_unit["service-faults"]
    return [
        f"recovered_all         {facts['recovered_all']}   mttr_max {facts['mttr_max_ms']} ms",
        f"availability          {facts['availability']:.4f}",
    ]
