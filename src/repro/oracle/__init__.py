"""repro.oracle — online invariant checking against kernel ground truth.

The oracle subsystem verifies simulation runs event-by-event: every
instrumented observation (timestamps served, untaints applied, state
transitions) is judged against the simulator's omniscient clock, catching
both loud failures (drift out of bound) and silent ones (a node serving
wrong time while reporting ``OK``). :mod:`repro.oracle.policy` holds the
scoped plane policy deciding which runs get an oracle (and a membership
controller), and the one runner judging them. See ``docs/oracle.md``.
"""

from repro.oracle.expectations import ANY_NODE, is_expected
from repro.oracle.oracle import InvariantOracle, OracleConfig, watch_cluster
from repro.oracle.policy import (
    MEMBERSHIP_MODES,
    ORACLE_MODES,
    PlaneRun,
    PlaneScope,
    current_policy,
    drain_created_oracles,
    oracle_policy,
    plane_policy,
    run_planes,
)
from repro.oracle.violations import (
    INVARIANTS,
    SEVERITIES,
    SEVERITY_WEIGHTS,
    Violation,
    violation_score,
    violation_set,
)

__all__ = [
    "ANY_NODE",
    "INVARIANTS",
    "InvariantOracle",
    "MEMBERSHIP_MODES",
    "ORACLE_MODES",
    "OracleConfig",
    "PlaneRun",
    "PlaneScope",
    "SEVERITIES",
    "SEVERITY_WEIGHTS",
    "Violation",
    "current_policy",
    "drain_created_oracles",
    "is_expected",
    "oracle_policy",
    "plane_policy",
    "run_planes",
    "violation_score",
    "violation_set",
    "watch_cluster",
]
