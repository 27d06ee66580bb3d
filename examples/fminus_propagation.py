#!/usr/bin/env python3
"""The paper's headline attack: F− time-skip propagation (its Fig. 6).

A single compromised node (Node 3) cannot read the encrypted calibration
traffic, but it controls its own OS: it measures how long each exchange
with the Time Authority runs, infers the requested waittime from timing,
and delays the *immediate* (0 s-sleep) responses by 100 ms. Triad's
regression then under-estimates the TSC rate by 10% and Node 3's clock
races ahead at ≈ +111 ms/s.

The scary part is the second act: honest Nodes 1 and 2, once they start
experiencing ordinary AEXs (at t = 104 s here, the paper's dashed red
line), ask their peers for fresh timestamps — and Triad's policy adopts
any timestamp that is *ahead* of the local one. Node 3's always is. Every
honest node skips forward to the attacker's clock, and keeps following it.

Run:  python examples/fminus_propagation.py
"""

from repro.analysis import EventJournal, forward_jumps, line_plot
from repro.experiments import Fig6Result, fminus_propagation
from repro.sim import units

DURATION = 6 * units.MINUTE
SWITCH = 104 * units.SECOND


def main() -> None:
    print(__doc__)
    print(f"simulating {DURATION / units.SECOND:.0f}s (honest AEX onset at "
          f"{SWITCH / units.SECOND:.0f}s)...\n")
    experiment = fminus_propagation(seed=6, switch_at_ns=SWITCH).run(DURATION)
    result = Fig6Result(experiment=experiment, duration_ns=DURATION, switch_at_ns=SWITCH)

    print(result.render("Fig 6 reproduction: F- attack on node-3"))

    attacker = result.experiment.attackers[0]
    delayed = sum(1 for _, was_delayed in attacker.sleep_estimates if was_delayed)
    print(f"\nattacker classified {len(attacker.sleep_estimates)} TA responses by "
          f"timing alone and delayed {delayed} of them")
    print(f"victim calibrated F = {result.frequencies_mhz()['node-3']:.3f} MHz "
          f"(paper: 2609.951 MHz; true rate: 2899.999 MHz)")

    # Drift plot, paper-style: drift (s) over reference time (s).
    series = {}
    for index in (1, 2, 3):
        drift = result.drift(index)
        series[f"node-{index}"] = list(
            zip(drift.times_s(), [d / 1000 for d in drift.drifts_ms()])
        )
    print()
    print(line_plot(series, width=100, height=22, y_label="drift (s)",
                    title="Clock drift under the F- attack (note honest nodes joining at 104s)"))

    print("\nforward time-skips experienced by honest node-1:")
    for jump in forward_jumps(result.experiment.node(1), min_jump_ns=units.MILLISECOND)[:8]:
        print(f"  t={jump.time_ns / units.SECOND:7.1f}s  +{jump.jump_ns / 1e6:9.1f} ms  "
              f"adopted from {jump.source}")

    print("\nprotocol event journal around the infection instant:")
    journal = EventJournal.of(result.experiment.cluster.nodes).filter(
        start_ns=SWITCH, end_ns=SWITCH + 2 * units.SECOND
    )
    print(journal.render(limit=14))

    final = result.drift(1).final_drift_ns()
    print(f"\nafter {DURATION / units.SECOND:.0f}s, honest node-1's clock is "
          f"{final / units.SECOND:.1f} s in the future — and still serving "
          f"'trusted' timestamps with {result.experiment.availability(1) * 100:.1f}% availability.")


if __name__ == "__main__":
    main()
