"""Membership mesh cost per cluster size: sim-s/wall-s, setup_s, peak RSS.

Runs the 200-node mesh shape of ``test_bench_membership.py`` (enforce
mode, 1 s epochs, triad-like environments, two leaves and a rejoin) at
each requested size, one fresh process per size so peak RSS is that
size's own. ``setup_s`` is the spec build (cluster wiring included),
``sim_s_per_wall_s`` the simulated seconds per wall second of the run.

    PYTHONPATH=src python benchmarks/membership_curve.py --nodes 200 400 600 1000
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time


def spec_dict(nodes: int, duration_s: float) -> dict:
    return {
        "name": "membership-curve",
        "seed": 11,
        "duration_s": duration_s,
        "nodes": nodes,
        "environments": {str(i): "triad-like" for i in range(1, nodes + 1)},
        "membership": {"mode": "enforce", "epoch_s": 1.0},
        "churn": {
            "schedule": [
                {"t_s": 0.3 * duration_s, "node": nodes, "action": "leave"},
                {"t_s": 0.5 * duration_s, "node": nodes - 1, "action": "leave"},
                {"t_s": 0.7 * duration_s, "node": nodes, "action": "join"},
            ]
        },
    }


def measure(nodes: int, duration_s: float) -> dict:
    """Build and run one size in this process."""
    from repro.experiments.spec import ExperimentSpec
    from repro.fleet.tasks import peak_rss_kb

    spec = ExperimentSpec.from_dict(spec_dict(nodes, duration_s))
    started = time.perf_counter()
    experiment = spec.build()
    built = time.perf_counter()
    experiment.run(spec.duration_ns)
    finished = time.perf_counter()
    return {
        "nodes": nodes,
        "setup_s": built - started,
        "sim_s_per_wall_s": duration_s / (finished - built),
        "peak_rss_mb": peak_rss_kb() / 1024.0,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--nodes", type=int, nargs="+", default=[200, 400, 600, 1000])
    parser.add_argument("--duration-s", type=float, default=5.0)
    parser.add_argument("--point", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.point:
        print(json.dumps(measure(args.nodes[0], args.duration_s)))
        return
    print(f"{'nodes':>6} {'sim-s/wall-s':>13} {'setup_s':>9} {'peak RSS MB':>12}")
    for nodes in args.nodes:
        out = subprocess.run(
            [sys.executable, __file__, "--point", "--nodes", str(nodes),
             "--duration-s", str(args.duration_s)],
            check=True, capture_output=True, text=True,
        ).stdout
        row = json.loads(out.strip().splitlines()[-1])
        print(
            f"{row['nodes']:>6} {row['sim_s_per_wall_s']:>13.2f} "
            f"{row['setup_s']:>9.3f} {row['peak_rss_mb']:>12.1f}"
        )


if __name__ == "__main__":
    main()
