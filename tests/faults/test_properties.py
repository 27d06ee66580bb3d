"""Liveness under faults, as a property.

Any valid ``FaultPlan`` whose faults all heal early enough that the
recovery deadline lands inside the run must end with zero oracle
violations under strict policy: every crashed node re-anchors through
the retry plane, the TA outage is ridden out with backoff, and honest
nodes stay within drift bounds. The strategy draws arbitrary mixes of
crashes, a TA outage, a partition, and a loss burst — all constrained
to heal by ``duration - deadline`` so the oracle can actually judge
recovery in-run.

The oracle's ``recovery`` invariant and the recovery report's
``recovered`` column are one rule on the state timeline, so on any such
plan and any deadline they name the same late nodes, each at exactly
last heal + deadline."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments.spec import ExperimentSpec
from repro.faults import FaultPlan, recovery_report
from repro.oracle.policy import oracle_policy

from tests.conftest import examples

DURATION_S = 30.0
DEADLINE_S = 15.0
NODES = 3

# Generous backoff retries: liveness is the property under test, so the
# retry plane must not be the thing that gives up first.
RETRY = {
    "backoff_factor": 2.0,
    "jitter": 0.1,
    "backoff_s": 0.5,
    "max_backoff_s": 4.0,
    "calibration_backoff_ms": 200,
}


def _crashes():
    # Distinct nodes so crash windows can never overlap on one node.
    crash = st.tuples(
        st.floats(min_value=1.0, max_value=5.0),
        st.integers(min_value=100, max_value=1500),
    )
    return st.lists(crash, max_size=2).map(
        lambda windows: [
            {
                "t_s": round(t_s, 3),
                "kind": "node-crash",
                "node": index + 1,
                "down_ms": down_ms,
            }
            for index, (t_s, down_ms) in enumerate(windows)
        ]
    )


def _ta_outages():
    outage = st.tuples(
        st.floats(min_value=1.0, max_value=6.0),
        st.integers(min_value=500, max_value=3000),
    ).map(
        lambda drawn: {
            "t_s": round(drawn[0], 3),
            "kind": "ta-outage",
            "duration_ms": drawn[1],
        }
    )
    return st.lists(outage, max_size=1)

def _partitions():
    cut = st.tuples(
        st.floats(min_value=1.0, max_value=7.0),
        st.integers(min_value=1, max_value=NODES),
        st.integers(min_value=500, max_value=2500),
    ).map(
        lambda drawn: {
            "t_s": round(drawn[0], 3),
            "kind": "partition",
            "island": [drawn[1]],
            "duration_ms": drawn[2],
        }
    )
    return st.lists(cut, max_size=1)


def _loss_bursts():
    burst = st.tuples(
        st.floats(min_value=1.0, max_value=7.0),
        st.floats(min_value=0.05, max_value=0.4),
        st.integers(min_value=200, max_value=2000),
    ).map(
        lambda drawn: {
            "t_s": round(drawn[0], 3),
            "kind": "loss-burst",
            "drop_probability": round(drawn[1], 3),
            "duration_ms": drawn[2],
        }
    )
    return st.lists(burst, max_size=1)


@st.composite
def fault_schedules(draw):
    schedule = (
        draw(_crashes())
        + draw(_ta_outages())
        + draw(_partitions())
        + draw(_loss_bursts())
    )
    return schedule


def _spec(schedule: list, seed: int, deadline_s: float = DEADLINE_S) -> ExperimentSpec:
    return ExperimentSpec(
        name="faults-liveness-property",
        seed=seed,
        duration_s=DURATION_S,
        nodes=NODES,
        environments={index: "triad-like" for index in range(1, NODES + 1)},
        faults={
            "schedule": schedule,
            "recovery_deadline_s": deadline_s,
            "retry": RETRY,
        },
    )


def _plan(spec: ExperimentSpec) -> FaultPlan:
    plan = FaultPlan.from_spec(
        spec.faults,
        nodes=spec.nodes,
        ta_count=spec.ta_count,
        duration_s=spec.duration_s,
    )
    assert plan.last_heal_ns + plan.recovery_deadline_ns <= spec.duration_ns
    return plan


def check_liveness(schedule: list, seed: int) -> None:
    """Run the property's spec under the strict oracle and check recovery."""
    spec = _spec(schedule, seed)
    with oracle_policy("strict"):
        experiment = spec.run()  # raises OracleViolationError on any violation
    report = recovery_report(experiment, _plan(spec))
    assert report["recovered_all"] is True
    for row in report["nodes"].values():
        assert row["ok_at_end"] is True
        assert row["parks"] == 0


def check_agreement(schedule: list, seed: int, deadline_s: float) -> None:
    """The oracle's recovery violations are exactly the report's late nodes."""
    spec = _spec(schedule, seed, deadline_s)
    with oracle_policy("warn"):
        experiment = spec.run()
    plan = _plan(spec)
    report = recovery_report(experiment, plan)
    late = sorted(name for name, row in report["nodes"].items() if not row["recovered"])
    violations = [v for v in report["violations"] if v["invariant"] == "recovery"]
    assert sorted(v["node"] for v in violations) == late
    for violation in violations:
        assert violation["time_ns"] == plan.last_heal_ns + plan.recovery_deadline_ns


class TestLivenessUnderFaults:
    @given(schedule=fault_schedules(), seed=st.integers(min_value=1, max_value=50))
    @settings(max_examples=examples(8), deadline=None)
    def test_faults_healing_before_deadline_window_always_recover(
        self, schedule, seed
    ):
        # Every generated fault heals by t <= 9.5 s, so the latest possible
        # recovery deadline (heal + 15 s) sits well inside the 30 s run:
        # the oracle judges recovery, it does not skip it.
        check_liveness(schedule, seed)

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason=(
            "cold-calibration tail: every AEX inside a 1 s calibration sleep "
            "voids the sample and costs another second, so node-2 first "
            "reaches OK at 18.09 s, past the 15 s deadline (the nightly "
            "profile's shrunk falsifier; un-xfail when the tail is bounded)"
        ),
    )
    def test_seed_50_cold_start_without_faults_recovers(self):
        # The strict oracle passes this run; only the recovery report
        # notices the late first OK, since an empty plan arms no contract.
        check_liveness([], seed=50)


class TestOracleReportAgreement:
    @given(
        # An empty plan arms no recovery contract, so it has nothing to agree on.
        schedule=fault_schedules().filter(bool),
        seed=st.integers(min_value=1, max_value=50),
        deadline_s=st.integers(min_value=10, max_value=60).map(lambda tenths: tenths / 10),
    )
    @settings(max_examples=examples(8), deadline=None)
    def test_oracle_and_report_name_the_same_late_nodes(self, schedule, seed, deadline_s):
        # Every fault heals by t <= 9.5 s and the deadline is at most 6 s,
        # so the judged instant is always inside the 30 s run.
        check_agreement(schedule, seed, deadline_s)
