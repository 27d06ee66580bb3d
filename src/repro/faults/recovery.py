"""Post-run recovery analysis: MTTR and the recovery verdict per node.

Everything here is read off state the run already recorded — the
cluster's fault journal (:attr:`Cluster.fault_events`), per-node
:class:`~repro.core.states.StateTimeline` transitions, node/TA/network
counters — so the report is a pure deterministic function of the run and
byte-identical across fleet workers.

MTTR is measured the way a client experiences it: from the instant the
enclave crashed (service lost) to the first ``OK`` after its restart
(service regained), not merely from the restart.

``recovered`` is :meth:`StateTimeline.recovered
<repro.core.states.StateTimeline.recovered>`, the same rule the oracle's
``recovery`` invariant judges at last heal + deadline, so the two agree
whenever that instant falls inside the run.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.core.states import NodeState
from repro.faults.plan import FaultPlan
from repro.sim.units import MILLISECOND, SECOND

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.runner import Experiment


def recovery_report(experiment: "Experiment", plan: FaultPlan) -> dict[str, Any]:
    """The deterministic MTTR / recovery summary for a finished run."""
    cluster = experiment.cluster
    now_ns = experiment.sim.now
    heal_ns = plan.last_heal_ns
    deadline_ns = plan.recovery_deadline_ns

    nodes: dict[str, Any] = {}
    mttr_all_ms: list[float] = []
    for node in cluster.nodes:
        timeline = node.timeline
        own = [(t, action) for t, subject, action in cluster.fault_events if subject == node.name]
        crashes = [t for t, action in own if action == "crash"]
        first_oks = [timeline.first_ok(t) for t, action in own if action == "restart"]
        mttr_ms = [
            None if ok_ns is None else round((ok_ns - crash_ns) / MILLISECOND, 3)
            for crash_ns, ok_ns in zip(crashes, first_oks)
        ]
        span_ns = now_ns - timeline.changes[0].time_ns
        nodes[node.name] = {
            "crashes": node.stats.crashes,
            "parks": node.stats.parks,
            "retry_backoffs": node.stats.ta_fetch_backoffs,
            "mttr_ms": mttr_ms,
            "recovered": timeline.recovered(heal_ns, deadline_ns),
            "ok_at_end": timeline.current is NodeState.OK,
            "availability_pct": (
                round(timeline.availability(now_ns) * 100.0, 3) if span_ns > 0 else 0.0
            ),
        }
        mttr_all_ms.extend(value for value in mttr_ms if value is not None)

    report = {
        "faults": [
            {"t_s": round(t / SECOND, 6), "subject": subject, "action": action}
            for t, subject, action in cluster.fault_events
        ],
        "last_heal_s": round(heal_ns / SECOND, 6),
        "recovery_deadline_s": round(deadline_ns / SECOND, 6),
        "recovered_all": all(row["recovered"] for row in nodes.values()),
        "mttr_max_ms": max(mttr_all_ms) if mttr_all_ms else None,
        "nodes": {name: nodes[name] for name in sorted(nodes)},
        "ta": {
            ta.name: {"requests_dropped_down": ta.stats.requests_dropped_down}
            for ta in cluster.tas
        },
        "network": {
            "dropped_count": cluster.network.dropped_count,
            "drop_counts": dict(sorted(cluster.network.drop_counts.items())),
        },
    }
    oracle = experiment.oracle
    if oracle is not None:
        report["violations"] = [v.to_dict() for v in oracle.violations]
    return report


def render_recovery_report(report: dict[str, Any]) -> str:
    """Human-readable table for the CLI (deterministic row order)."""
    lines = [
        f"fault events: {len(report['faults'])}  "
        f"last heal: t={report['last_heal_s']:.3f}s  "
        f"recovery deadline: {report['recovery_deadline_s']:.1f}s",
        f"{'node':<8} {'crashes':>7} {'parks':>5} {'backoffs':>8} "
        f"{'mttr(ms)':>12} {'avail%':>7} {'recovered':>9}",
    ]
    for name, row in report["nodes"].items():
        observed = [value for value in row["mttr_ms"] if value is not None]
        mttr = f"{max(observed):.0f}" if observed else "-"
        if any(value is None for value in row["mttr_ms"]):
            mttr = "never"
        lines.append(
            f"{name:<8} {row['crashes']:>7} {row['parks']:>5} "
            f"{row['retry_backoffs']:>8} {mttr:>12} "
            f"{row['availability_pct']:>7.2f} "
            f"{'yes' if row['recovered'] else 'NO':>9}"
        )
    dropped = report["network"]["dropped_count"]
    reasons = ", ".join(
        f"{reason}={count}" for reason, count in report["network"]["drop_counts"].items()
    )
    lines.append(f"network drops: {dropped}" + (f" ({reasons})" if reasons else ""))
    verdict = "RECOVERED" if report["recovered_all"] else "DEGRADED"
    lines.append(f"verdict: {verdict}")
    return "\n".join(lines)
