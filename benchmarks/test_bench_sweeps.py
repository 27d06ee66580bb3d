"""EXT-SWEEP — parameter sweeps around the paper's set points.

Generalizes the paper's single-point results: the F± tilt formula across
delay magnitudes, calibration error vs network jitter, F− propagation vs
cluster size, and the availability/refresh trade-off vs AEX rate.
"""

import math

import pytest

from repro.analysis.report import format_table
from repro.experiments.sweeps import (
    aex_rate_tasks,
    attack_delay_tasks,
    cluster_size_tasks,
    jitter_tasks,
    run_point_tasks,
)


def test_attack_delay_sweep_matches_closed_form(benchmark):
    points = benchmark.pedantic(
        lambda: run_point_tasks(attack_delay_tasks()), rounds=1, iterations=1
    )
    print()
    print(format_table(
        ["delay_ms", "skew_measured", "skew_predicted", "drift_ms_per_s"],
        [[f"{p.value:.0f}", f"{p.metrics['skew_measured']:.4f}",
          f"{p.metrics['skew_predicted']:.4f}", f"{p.metrics['drift_ms_per_s']:+.1f}"]
         for p in points],
        title="EXT-SWEEP: F- tilt vs attack delay (formula: 1 - d/1s)",
    ))
    for point in points:
        assert point.metrics["skew_measured"] == pytest.approx(
            point.metrics["skew_predicted"], rel=2e-3
        )
    # Drift rate grows monotonically with the injected delay.
    rates = [p.metrics["drift_ms_per_s"] for p in points]
    assert all(later > earlier for earlier, later in zip(rates, rates[1:]))


def test_jitter_sweep_explains_calibration_band(benchmark):
    points = benchmark.pedantic(lambda: run_point_tasks(jitter_tasks()), rounds=1, iterations=1)
    print()
    print(format_table(
        ["sigma", "mean_abs_error_ppm", "error_spread_ppm"],
        [[f"{p.value:.2f}", f"{p.metrics['mean_abs_error_ppm']:.1f}",
          f"{p.metrics['error_spread_ppm']:.1f}"]
         for p in points],
        title="EXT-SWEEP: honest calibration error vs network jitter",
    ))
    errors = [p.metrics["mean_abs_error_ppm"] for p in points]
    # More jitter, more error — and the paper's 30-220 ppm band sits in
    # the middle of this curve (sigma ~0.35 at 150 us median).
    assert errors[0] < errors[-1]
    assert 5 < errors[2] < 500


def test_cluster_size_sweep_no_herd_immunity(benchmark):
    points = benchmark.pedantic(
        lambda: run_point_tasks(cluster_size_tasks()), rounds=1, iterations=1
    )
    print()
    print(format_table(
        ["cluster_size", "honest_nodes", "infected_fraction", "last_infection_s"],
        [[f"{p.value:.0f}", f"{p.metrics['honest_nodes']:.0f}",
          f"{p.metrics['infected_fraction']:.2f}",
          f"{p.metrics['last_infection_s']:.0f}"]
         for p in points],
        title="EXT-SWEEP: F- propagation vs cluster size (one attacker)",
    ))
    for point in points:
        assert point.metrics["infected_fraction"] == 1.0, (
            f"honest majority of {point.metrics['honest_nodes']:.0f} nodes "
            "should offer no protection under the original policy"
        )
        assert not math.isnan(point.metrics["last_infection_s"])


def test_aex_rate_sweep_availability_tradeoff(benchmark):
    points = benchmark.pedantic(lambda: run_point_tasks(aex_rate_tasks()), rounds=1, iterations=1)
    print()
    print(format_table(
        ["mean_inter_aex_s", "availability", "AEXs", "peer_untaints", "TA_refs"],
        [[f"{p.value:.1f}", f"{p.metrics['availability']:.4f}",
          f"{p.metrics['aex_count']:.0f}", f"{p.metrics['peer_untaints']:.0f}",
          f"{p.metrics['ta_references']:.0f}"]
         for p in points],
        title="EXT-SWEEP: availability vs AEX rate (S IV-B's observation)",
    ))
    availabilities = [p.metrics["availability"] for p in points]
    # Rarer AEXs -> strictly higher availability (the attacker's free lunch
    # when suppressing interrupts).
    assert all(later >= earlier for earlier, later in zip(availabilities, availabilities[1:]))
    assert availabilities[-1] > 0.99
