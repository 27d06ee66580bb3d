#!/usr/bin/env python3
"""§V hardening in action: the same F− attack, two protocol versions.

Runs the Fig. 6 propagation scenario twice — once against the original
Triad protocol, once against the paper's proposed hardening (in-TCB TSC
deadlines, NTP-style long-window discipline with delay filtering, and
Marzullo true-chimer filtering of peer timestamps) — and compares.

Run:  python examples/hardened_cluster.py
"""

from repro.analysis import format_table, line_plot
from repro.experiments import run_experiment
from repro.sim import units

DURATION = 5 * units.MINUTE


def main() -> None:
    print("running the F- propagation scenario against BOTH protocol versions...\n")
    baseline = run_experiment("fig6", seed=6, duration_ns=DURATION)
    hardened = run_experiment("fig6-hardened", seed=6, duration_ns=DURATION)

    rows = []
    for index in (1, 2, 3):
        baseline_drift = baseline.drift(index).final_drift_ns()
        hardened_drift = hardened.drift(index).final_drift_ns()
        role = "compromised" if index == 3 else "honest"
        rows.append(
            [
                f"node-{index} ({role})",
                f"{baseline_drift / 1e6:+12.1f}",
                f"{hardened_drift / 1e6:+12.1f}",
            ]
        )
    print(format_table(
        ["node", "baseline drift (ms)", "hardened drift (ms)"],
        rows,
        title=f"Final clock drift after {DURATION / units.SECOND:.0f}s under the F- attack",
    ))

    node1 = hardened.experiment.node(1)
    node3 = hardened.experiment.node(3)
    print(f"\nwhy the honest nodes survived:")
    print(f"  node-1 rejected {node1.hardened_stats.peer_readings_rejected} "
          f"peer readings that were not true-chimers")
    print(f"  node-1 untainted in place {node1.hardened_stats.untaints_in_place} times "
          f"(its own clock stayed inside the majority interval)")
    print(f"\nwhy even the compromised node stayed bounded:")
    print(f"  node-3 was pulled back by the honest clique "
          f"{node3.hardened_stats.untaints_from_clique} times")
    print(f"  node-3 ran {node3.hardened_stats.discipline_polls} in-TCB deadline "
          f"polls and applied {len(node3.hardened_stats.frequency_corrections)} "
          f"frequency corrections")

    # Side-by-side drift of honest node-1 under both protocols.
    series = {
        "baseline node-1": list(
            zip(baseline.drift(1).times_s(),
                [d / 1000 for d in baseline.drift(1).drifts_ms()])
        ),
        "hardened node-1": list(
            zip(hardened.drift(1).times_s(),
                [d / 1000 for d in hardened.drift(1).drifts_ms()])
        ),
    }
    print()
    print(line_plot(series, width=100, height=20, y_label="drift (s)",
                    title="Honest node-1's drift: original protocol vs S5 hardening"))


if __name__ == "__main__":
    main()
