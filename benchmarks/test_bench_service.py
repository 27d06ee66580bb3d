"""EXT-SERVICE — trusted-time-as-a-service workload throughput.

The service layer's promise is that client scale is nearly free: a
million open-loop sessions run as per-tick distribution draws and
tuple batch records, so the kernel sees one event per tick no
matter the request volume. This bench pins that promise with two
numbers — requests/sim-second (offered load actually processed) and
sim-seconds/wall-second (what a laptop pays for it) — as the baseline
the planned kernel speed overhaul will be judged against. Contracts
(request conservation, pinned-seed determinism) are asserted; absolute
throughput is hardware-dependent and only printed.
"""

import time

from repro.analysis.report import format_table
from repro.experiments.spec import ExperimentSpec

SESSIONS = 1_000_000
DURATION_S = 30.0


def _spec_dict():
    return {
        "name": "bench-service",
        "seed": 11,
        "duration_s": DURATION_S,
        "nodes": 3,
        "environments": {"1": "triad-like", "2": "triad-like", "3": "triad-like"},
        "service": {"sessions": SESSIONS, "arrival": "open", "quorum": 3},
    }


def _run():
    spec = ExperimentSpec.from_dict(_spec_dict())
    started = time.perf_counter()
    experiment = spec.run()
    wall = time.perf_counter() - started
    return experiment.service.report(), wall


def test_service_workload_throughput(benchmark):
    first_report, _ = _run()
    report, wall = benchmark.pedantic(_run, rounds=1, iterations=1)

    print()
    print(format_table(
        ["metric", "value"],
        [
            ["sessions", f"{report.sessions}"],
            ["requests", f"{report.requests}"],
            ["requests/sim-s", f"{report.requests_per_sim_s:.0f}"],
            ["requests/wall-s", f"{report.requests / wall:.0f}"],
            ["sim-s/wall-s", f"{DURATION_S / wall:.1f}"],
            ["wall_s", f"{wall:.2f}"],
        ],
        title=f"EXT-SERVICE: {SESSIONS} open-loop sessions, {DURATION_S:.0f} sim-s",
    ))

    # Conservation: every arrived request is accounted exactly once.
    assert (
        report.served + report.shed + report.expired + report.refused
        == report.requests
    )
    # The workload actually ran at service scale.
    assert report.requests > 1_000_000
    assert report.availability > 0.9
    # Pinned-seed determinism: the benchmark rerun reproduced the report.
    assert report.to_dict() == first_report.to_dict()
