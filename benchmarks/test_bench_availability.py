"""TAB-AVAIL — §IV-A2: node availability to serve timestamps.

Paper numbers: each node's availability exceeds 98% over the 30-minute
Fig. 2 run (including initial calibration) and rises to 99.9% over the
8-hour Fig. 3 run. Attacks do not reduce the victim's availability (§IV-B);
a lower AEX rate *increases* it.
"""

import pytest

from repro.analysis.metrics import unavailable_spans
from repro.analysis.report import format_table
from repro.experiments.figures import run_experiment
from repro.sim.units import HOUR, MINUTE


@pytest.fixture(scope="module")
def runs():
    return {
        "fig2-30min": run_experiment("fig2", seed=2, duration_ns=30 * MINUTE),
        "fig3-8h": run_experiment("fig3", seed=3, duration_ns=8 * HOUR),
        "fig4-fplus": run_experiment("fig4", seed=4, duration_ns=10 * MINUTE),
    }


def test_availability_table(benchmark, runs):
    benchmark.pedantic(
        lambda: {name: run.availability() for name, run in runs.items()},
        rounds=1,
        iterations=1,
    )
    rows = []
    for name, run in runs.items():
        for node_name, value in run.availability().items():
            rows.append([name, node_name, f"{value * 100:.3f}%"])
    print()
    print(format_table(["run", "node", "availability"], rows,
                       title="S IV-A2 availability (paper: >98% @30min, 99.9% @8h)"))

    fig2_values = runs["fig2-30min"].availability().values()
    assert all(value > 0.98 for value in fig2_values)

    fig3_values = runs["fig3-8h"].availability().values()
    assert all(value > 0.999 for value in fig3_values)


def test_unavailability_dominated_by_initial_calibration(benchmark, runs):
    run = runs["fig2-30min"]

    def spans_for_node_1():
        return unavailable_spans(run.experiment.node(1), run.duration_ns)

    spans = benchmark.pedantic(spans_for_node_1, rounds=1, iterations=1)
    total_unavailable = sum(end - start for start, end, _ in spans)
    initial = spans[0][1] - spans[0][0]
    print(f"\nunavailable total {total_unavailable / 1e9:.2f}s, "
          f"initial FullCalib {initial / 1e9:.2f}s "
          f"({initial / total_unavailable * 100:.0f}%)")
    assert spans[0][0] == 0
    assert initial / total_unavailable > 0.25


def test_attacked_node_availability_not_reduced(benchmark, runs):
    """§IV-B: the F+ attack does not harm availability — the attacker's
    AEX suppression raises it above the honest nodes'."""
    run = runs["fig4-fplus"]
    values = benchmark.pedantic(run.availability, rounds=1, iterations=1)
    print(f"\nfig4 availability: { {k: round(v, 4) for k, v in values.items()} }")
    assert values["node-3"] >= min(values["node-1"], values["node-2"])
