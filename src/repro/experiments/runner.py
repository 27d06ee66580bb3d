"""Experiment harness: a configured cluster plus probes, ready to run.

Every paper figure/table maps to a spec entry in
:mod:`repro.experiments.scenarios`, which
:meth:`~repro.experiments.spec.ExperimentSpec.build` wires into an
:class:`Experiment`; the reductions to figure data live in
:mod:`repro.experiments.figures`. The split keeps scenario wiring (who
gets which AEX environment, where the attacker sits) separate from
measurement post-processing.

An experiment names its cluster's oracle at construction and judges it
when :meth:`Experiment.run` ends; the allowance it is judged against is
the oracle's own (the applied actions allowed their pairs on it).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.analysis.metrics import DriftRecorder, DriftSeries
from repro.core.cluster import TriadCluster
from repro.core.node import TriadNode
from repro.errors import ConfigurationError
from repro.net.adversary import NetworkAdversary
from repro.oracle.policy import current_policy, unexpected_error

if TYPE_CHECKING:  # pragma: no cover
    from repro.membership.engine import MembershipController
    from repro.oracle.oracle import InvariantOracle
    from repro.sim.kernel import Simulator


@dataclass
class Experiment:
    """A wired scenario: simulator, cluster, probes, optional attackers."""

    name: str
    sim: "Simulator"
    cluster: TriadCluster
    recorder: DriftRecorder
    attackers: list[NetworkAdversary] = field(default_factory=list)
    duration_ns: int = 0
    #: Attached :class:`~repro.service.TimeService`, when the scenario
    #: deploys the client-facing service layer (set by
    #: :meth:`TimeService.attach`; None for protocol-only experiments).
    service: Optional[object] = None

    def __post_init__(self) -> None:
        if self.oracle is not None and not self.oracle.name:
            self.oracle.name = self.name

    @property
    def membership(self) -> Optional["MembershipController"]:
        """The cluster's membership engine (None when no plane scope asked for one)."""
        return self.cluster.membership

    @property
    def oracle(self) -> Optional["InvariantOracle"]:
        """The cluster's invariant oracle (None when the policy is off)."""
        return self.cluster.oracle

    def run(self, duration_ns: int) -> "Experiment":
        """Advance the simulation to ``duration_ns`` and return self.

        When an oracle is attached, finalizes it; under a ``strict``
        policy, any violation outside its allowance (what the applied
        actions and the membership engine's quarantines told it) raises
        :class:`~repro.errors.OracleViolationError`.
        """
        if duration_ns <= self.sim.now:
            raise ConfigurationError(
                f"cannot run experiment {self.name!r} to duration_ns={duration_ns}: "
                f"the simulation clock is already at sim.now={self.sim.now} and "
                f"cannot rewind; pass a duration greater than {self.sim.now}"
            )
        self.sim.run(until=duration_ns)
        self.duration_ns = duration_ns
        oracle = self.oracle
        if oracle is not None:
            oracle.finalize()
            unexpected = oracle.unexpected_violations()
            if unexpected and current_policy().strict:
                raise unexpected_error(f"experiment {self.name!r}", unexpected)
        return self

    # -- post-run accessors ------------------------------------------------------

    def node(self, index: int) -> TriadNode:
        """The index-th node (1-based, paper numbering)."""
        return self.cluster.node(index)

    def drift(self, index: int) -> DriftSeries:
        """Drift series of the index-th node."""
        return self.recorder[self.cluster.node(index).name]

    def frequency_mhz(self, index: int) -> float:
        """Latest calibrated F_calib of the index-th node, in MHz."""
        frequency = self.node(index).stats.latest_frequency_hz
        if frequency is None:
            raise ConfigurationError(f"node {index} never completed calibration")
        return frequency / 1e6

    def availability(self, index: int) -> float:
        """State-timeline availability of the index-th node over the run."""
        if not self.duration_ns:
            raise ConfigurationError("experiment has not been run yet")
        return self.node(index).timeline.availability(self.duration_ns)
