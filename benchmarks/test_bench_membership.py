"""EXT-MEMBERSHIP — epoch membership engine throughput at cluster scale.

The membership plane's cost is per-epoch work: probe scoring against
the member median, verdict transitions, and (in enforce mode) handing
the epoch secret to each member endpoint — O(n) per epoch, since a peer
link re-keys only at its first use after the epoch moved. Links and
keys are built on first use too, so the full mesh's O(n²) is paid only
for the pairs that carry traffic. This bench pins a 200-node
enforce-mode run with live churn — node-epochs scored per wall-second is
the headline; ``membership_curve.py`` runs the same shape at 200–1000
nodes. Contracts (epoch count, rotation count, pinned-seed determinism)
are asserted; absolute throughput is hardware-dependent and only
printed.
"""

import json
import time

from repro.analysis.report import format_table
from repro.experiments.spec import ExperimentSpec

NODES = 200
DURATION_S = 5.0


def _spec_dict():
    return {
        "name": "bench-membership",
        "seed": 11,
        "duration_s": DURATION_S,
        "nodes": NODES,
        "environments": {str(i): "triad-like" for i in range(1, NODES + 1)},
        "membership": {"mode": "enforce", "epoch_s": 1.0},
        "churn": {
            "schedule": [
                {"t_s": 1.5, "node": NODES, "action": "leave"},
                {"t_s": 2.5, "node": NODES - 1, "action": "leave"},
                {"t_s": 3.5, "node": NODES, "action": "join"},
            ]
        },
    }


def _run():
    spec = ExperimentSpec.from_dict(_spec_dict())
    started = time.perf_counter()
    experiment = spec.run()
    wall = time.perf_counter() - started
    return experiment.membership.report(), wall


def test_membership_engine_throughput(benchmark):
    first_report, _ = _run()
    report, wall = benchmark.pedantic(_run, rounds=1, iterations=1)

    epochs = report["epochs_closed"]
    node_epochs = NODES * epochs
    print()
    print(format_table(
        ["metric", "value"],
        [
            ["nodes", f"{NODES}"],
            ["epochs_closed", f"{epochs}"],
            ["rotations", f"{report['rotations']}"],
            ["churn_events", f"{len(report['churn'])}"],
            ["node-epochs/wall-s", f"{node_epochs / wall:.0f}"],
            ["sim-s/wall-s", f"{DURATION_S / wall:.1f}"],
            ["wall_s", f"{wall:.2f}"],
        ],
        title=f"EXT-MEMBERSHIP: {NODES}-node mesh, enforce mode, {DURATION_S:.0f} sim-s",
    ))

    # The engine actually ran at scale: one close + rotation per epoch.
    assert epochs == int(DURATION_S)
    assert report["rotations"] == epochs
    assert len(report["churn"]) == 3
    # Benign cluster at scale: churn aside, nobody loses membership
    # (node 199 left without rejoining, so it ends the run absent).
    assert all(
        verdict in ("active", "probation", "absent")
        for verdict in report["verdicts"].values()
    )
    assert "quarantined" not in report["verdict_counts"]
    # Pinned-seed determinism: the benchmark rerun reproduced the report.
    assert json.dumps(report, sort_keys=True) == json.dumps(first_report, sort_keys=True)
