"""ABL-HARD — §V: the hardened protocol vs the demonstrated attacks.

Replays the paper's two worst attack scenarios against the proposed
hardening and quantifies the improvement:

* **F− propagation (Fig. 6 scenario)** — baseline honest nodes are dragged
  seconds into the future; hardened honest nodes reject the infected
  peer's readings (true-chimer filtering) and stay within milliseconds.
* **F+ with suppressed AEXs (Fig. 4's worst case)** — the baseline victim
  free-runs at −91 ms/s indefinitely; the hardened victim's in-TCB
  deadline discipline bounds the drift by orders of magnitude.
"""

import pytest

from repro.analysis.report import format_table
from repro.experiments.figures import run_experiment
from repro.experiments.scenarios import scenario_spec
from repro.sim.units import MILLISECOND, MINUTE, SECOND


@pytest.fixture(scope="module")
def fminus_pair():
    baseline = run_experiment("fig6", seed=6, duration_ns=5 * MINUTE)
    hardened = run_experiment("fig6-hardened", seed=6, duration_ns=5 * MINUTE)
    return baseline, hardened


def test_hardening_stops_fminus_propagation(benchmark, fminus_pair):
    benchmark.pedantic(
        lambda: run_experiment("fig6-hardened", seed=26, duration_ns=2 * MINUTE),
        rounds=1,
        iterations=1,
    )
    baseline, hardened = fminus_pair
    rows = []
    for index in (1, 2, 3):
        rows.append(
            [
                f"node-{index}",
                f"{baseline.drift(index).final_drift_ns() / 1e6:+.1f}",
                f"{hardened.drift(index).final_drift_ns() / 1e6:+.1f}",
            ]
        )
    print()
    print(format_table(
        ["node", "baseline_drift_ms", "hardened_drift_ms"],
        rows,
        title="ABL-HARD: F- propagation, baseline vs S5 hardening (5 min)",
    ))

    for index in (1, 2):
        assert baseline.drift(index).final_drift_ns() > SECOND
        assert abs(hardened.drift(index).final_drift_ns()) < 100 * MILLISECOND

    # The hardened victim itself is bounded (clique + discipline), even
    # though its TA path remains attacker-controlled.
    assert abs(hardened.drift(3).final_drift_ns()) < 500 * MILLISECOND
    assert baseline.drift(3).final_drift_ns() > 10 * SECOND


def test_hardened_honest_nodes_reject_infected_readings(benchmark, fminus_pair):
    _, hardened = fminus_pair
    counts = benchmark.pedantic(
        lambda: {
            index: hardened.experiment.node(index).hardened_stats.peer_readings_rejected
            for index in (1, 2)
        },
        rounds=1,
        iterations=1,
    )
    print(f"\nrejected infected readings: {counts}")
    assert all(count > 10 for count in counts.values())


def test_deadlines_bound_suppressed_aex_fplus(benchmark):
    def run_pair():
        baseline = scenario_spec("baseline-fplus-suppressed-aex", 7).build()
        baseline.run(5 * MINUTE)
        hardened = scenario_spec("hardened-fplus-suppressed-aex", 7).build()
        hardened.run(5 * MINUTE)
        return baseline, hardened

    baseline, hardened = benchmark.pedantic(run_pair, rounds=1, iterations=1)
    baseline_drift = abs(baseline.drift(3).final_drift_ns())
    hardened_drift = abs(hardened.drift(3).final_drift_ns())
    print(f"\nF+ victim |drift| after 5 min without AEXs: "
          f"baseline {baseline_drift / 1e9:.2f}s vs hardened {hardened_drift / 1e6:.1f}ms")
    # Baseline: ~-91 ms/s * ~290 s of free-run.
    assert baseline_drift > 15 * SECOND
    # Hardened: bounded by the ~16 s deadline cadence.
    assert hardened_drift < baseline_drift / 10
    # And the hardened victim's frequency is disciplined back toward truth.
    final_frequency = hardened.node(3).clock.frequency_hz
    true_frequency = hardened.cluster.machine.tsc.frequency_hz
    assert abs(final_frequency / true_frequency - 1) < 0.02


def test_hardened_overhead_is_modest(benchmark, fminus_pair):
    """Hardening must not cost availability: same scenario, comparable
    service levels (the discipline loop runs off the serving path)."""
    baseline, hardened = fminus_pair
    availabilities = benchmark.pedantic(
        lambda: (baseline.availability(), hardened.availability()),
        rounds=1,
        iterations=1,
    )
    baseline_availability, hardened_availability = availabilities
    print(f"\navailability baseline {baseline_availability} vs hardened {hardened_availability}")
    for name in baseline_availability:
        assert hardened_availability[name] > baseline_availability[name] - 0.02
