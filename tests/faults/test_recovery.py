"""Pinned recovery acceptance: crash-restart heals within the deadline
with retry telemetry in the probe stream; bounded-retry parks dark and
fails the recovery invariant; the quorum service rides out a TA outage +
node crash in explicit ``degraded`` mode instead of going unavailable;
the oracle's ``recovery`` violations and the report's late nodes agree."""

import pytest

from repro.errors import OracleViolationError
from repro.experiments.spec import ExperimentSpec
from repro.faults import FaultPlan, recovery_report, render_recovery_report
from repro.oracle.policy import oracle_policy

RETRY = {
    "backoff_factor": 2.0,
    "jitter": 0.1,
    "backoff_s": 0.5,
    "max_backoff_s": 4.0,
    "calibration_backoff_ms": 200,
}


def _crash_spec(*, retry=RETRY, deadline_s=15.0):
    # The crash's restart lands mid-TA-outage, so cold recalibration must
    # ride the retry/backoff plane before it can anchor — that is what
    # makes retry telemetry (and the bounded-budget park) observable.
    return ExperimentSpec(
        name="faults-crash-restart",
        seed=13,
        duration_s=30.0,
        nodes=3,
        environments={index: "triad-like" for index in range(1, 4)},
        faults={
            "schedule": [
                {"t_s": 12.0, "kind": "node-crash", "node": 2, "down_ms": 800},
                {"t_s": 14.0, "kind": "ta-outage", "duration_ms": 3000},
            ],
            "recovery_deadline_s": deadline_s,
            "retry": retry,
        },
    )


def _report(spec, experiment):
    plan = FaultPlan.from_spec(
        spec.faults, nodes=spec.nodes, ta_count=spec.ta_count, duration_s=spec.duration_s
    )
    return recovery_report(experiment, plan)


class TestCrashRestartRecovery:
    @pytest.fixture(scope="class")
    def run(self):
        spec = _crash_spec()
        experiment = spec.build()
        probes = []
        for node in experiment.cluster.nodes:
            node.probes.subscribe(probes.append)
        with oracle_policy("strict"):
            experiment.run(spec.duration_ns)
        return spec, experiment, probes

    def test_crashed_node_returns_to_ok_within_deadline(self, run):
        spec, experiment, _ = run
        report = _report(spec, experiment)
        assert report["recovered_all"] is True
        row = report["nodes"]["node-2"]
        assert row["crashes"] == 1
        assert row["recovered"] is True
        assert row["ok_at_end"] is True
        # Client-perspective MTTR: crash instant to first OK. A cold
        # FullCalib takes ~10 s, so MTTR sits under the 15 s deadline.
        assert row["mttr_ms"][0] is not None
        assert row["mttr_ms"][0] / 1000.0 <= 15.0
        assert report["mttr_max_ms"] == row["mttr_ms"][0]

    def test_backoff_retry_telemetry_lands_in_probes(self, run):
        _, _, probes = run
        retry_events = [event for event in probes if event.kind == "retry"]
        assert retry_events, "no retry probes recorded during crash recovery"
        assert {event.node for event in retry_events} == {"node-2"}

    def test_untouched_nodes_never_leave_service(self, run):
        spec, experiment, _ = run
        report = _report(spec, experiment)
        for name in ("node-1", "node-3"):
            row = report["nodes"][name]
            assert row["crashes"] == 0
            assert row["ok_at_end"] is True

    def test_render_is_a_recovered_verdict(self, run):
        spec, experiment, _ = run
        rendered = render_recovery_report(_report(spec, experiment))
        assert "verdict: RECOVERED" in rendered
        assert "node-2" in rendered


class TestNoRetryBaseline:
    @staticmethod
    def _baseline_spec(retry):
        # The CLI's mixed robustness timeline: the partitioned node's TA
        # round-trips fail for the whole partition window, so a two-attempt
        # budget exhausts and the node parks dark — the contrast run that
        # motivates the retry plane.
        # 40 s, not 30: the last heal is t=22 s and the oracle can only
        # judge the 15 s recovery deadline if t=37 s is inside the run.
        return ExperimentSpec(
            name="faults-no-retry",
            seed=13,
            duration_s=40.0,
            nodes=3,
            environments={index: "triad-like" for index in range(1, 4)},
            faults={
                "schedule": [
                    {"t_s": 12.0, "kind": "node-crash", "node": 2, "down_ms": 800},
                    {"t_s": 14.0, "kind": "ta-outage", "duration_ms": 3000},
                    {
                        "t_s": 20.0,
                        "kind": "partition",
                        "island": [3],
                        "duration_ms": 2000,
                    },
                ],
                "recovery_deadline_s": 15.0,
                "retry": retry,
            },
        )

    def test_bounded_retry_violates_recovery_under_strict(self):
        spec = self._baseline_spec({"attempt_budget": 2})
        with oracle_policy("strict"):
            with pytest.raises(OracleViolationError) as excinfo:
                spec.run()
        assert "recovery" in str(excinfo.value)

    def test_backoff_retries_recover_the_same_timeline(self):
        # Identical fault schedule, unbounded backoff retries: every node
        # returns to OK within the deadline.
        spec = self._baseline_spec(RETRY)
        with oracle_policy("strict"):
            experiment = spec.run()
        assert _report(spec, experiment)["recovered_all"] is True

    def test_violation_detail_names_the_parked_node(self):
        spec = self._baseline_spec({"attempt_budget": 2})
        with oracle_policy("warn"):
            experiment = spec.run()
        report = _report(spec, experiment)
        assert report["recovered_all"] is False
        violations = [
            v for v in report["violations"] if v["invariant"] == "recovery"
        ]
        assert violations
        parked = violations[0]["node"]
        assert report["nodes"][parked]["parks"] >= 1
        assert report["nodes"][parked]["ok_at_end"] is False
        assert "verdict: DEGRADED" in render_recovery_report(report)


class TestServiceDegradation:
    def test_quorum_service_stays_available_degraded_through_outage(self):
        spec = ExperimentSpec(
            name="faults-service-degraded",
            seed=13,
            duration_s=60.0,
            nodes=3,
            environments={index: "triad-like" for index in range(1, 4)},
            faults={
                "schedule": [
                    {"t_s": 12.0, "kind": "node-crash", "node": 2, "down_ms": 800},
                    {"t_s": 14.0, "kind": "ta-outage", "duration_ms": 3000},
                ],
                "recovery_deadline_s": 15.0,
                "retry": RETRY,
            },
            service={
                "sessions": 2000,
                "quorum": 3,
                "degraded_margin_factor": 3.0,
                "breaker_threshold": 3,
            },
        )
        with oracle_policy("strict"):
            experiment = spec.run()
        report = experiment.service.report()
        data = report.to_dict()
        # Availability holds through the crash + outage because the
        # quorum client widens its intervals instead of refusing...
        assert data["availability"] > 0.9
        # ...and the degradation is explicit, not silent: served-degraded
        # responses and degraded syncs both show up in the accounting.
        assert data["degraded"] > 0
        assert data["quorum_stats"]["degraded_syncs"] > 0
        recovery = _report(spec, experiment)
        assert recovery["recovered_all"] is True


class TestOracleAgreesWithReport:
    """The oracle's ``recovery`` verdict and the report's ``recovered``
    column are one rule on the state timeline, judged at last heal +
    deadline. Both cases once disagreed: the oracle judged at its next
    1 s scan and counted any ``OK`` up to then."""

    @staticmethod
    def _spec(seed, deadline_s):
        # node-1 crashes at 2 s for 800 ms and the TA is down 3.45–6.45 s,
        # so the last heal is at 6.45 s.
        return ExperimentSpec(
            name="faults-recovery-agreement",
            seed=seed,
            duration_s=30.0,
            nodes=3,
            environments={index: "triad-like" for index in range(1, 4)},
            faults={
                "schedule": [
                    {"t_s": 2.0, "kind": "node-crash", "node": 1, "down_ms": 800},
                    {"t_s": 3.45, "kind": "ta-outage", "duration_ms": 3000},
                ],
                "recovery_deadline_s": deadline_s,
                "retry": RETRY,
            },
        )

    def test_seed_6_both_name_the_late_nodes_at_the_deadline(self):
        # The oracle named only node-1, at its t=10 s scan: node-2's first
        # OK fell between the 9.05 s deadline and that scan.
        spec = self._spec(seed=6, deadline_s=2.6)
        with oracle_policy("warn"):
            experiment = spec.run()
        report = _report(spec, experiment)
        late = sorted(name for name, row in report["nodes"].items() if not row["recovered"])
        assert late == ["node-1", "node-2"]
        violations = [v for v in report["violations"] if v["invariant"] == "recovery"]
        assert [v["node"] for v in violations] == late
        assert {v["time_ns"] for v in violations} == {9_050_000_000}

    def test_seed_3_strict_fails_the_late_node(self):
        # node-1's first OK after the heal lands past 11.65 s but before
        # the oracle's next scan at 12 s; strict passed the run.
        spec = self._spec(seed=3, deadline_s=5.2)
        with oracle_policy("strict"):
            with pytest.raises(OracleViolationError) as excinfo:
                spec.run()
        assert "node-1/recovery" in str(excinfo.value)
        assert [(v["node"], v["time_ns"]) for v in excinfo.value.violations] == [
            ("node-1", 11_650_000_000)
        ]
