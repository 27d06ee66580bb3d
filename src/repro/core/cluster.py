"""Cluster wiring: build a full Triad deployment in one call.

The paper's testbed runs three Triad nodes plus the Time Authority on a
single 32-core SGX2 machine; nodes therefore share one TSC but calibrate it
independently (their F_calib values differ through network jitter — compare
the per-figure frequency captions in the paper). :class:`TriadCluster`
reproduces that layout by default and stays configurable for other
topologies (per-node machines, different node counts, alternative
calibrators or node configs).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Sequence

from repro.core.calibration import Calibrator
from repro.core.node import TriadNode, TriadNodeConfig
from repro.errors import ConfigurationError
from repro.hardware.machine import Machine
from repro.hardware.tsc import PAPER_TSC_FREQUENCY_HZ
from repro.net.channel import Network
from repro.net.crypto import SecureChannelKey, derive_key
from repro.net.delays import DelayModel
from repro.net.transport import SecureEndpoint
from repro.authority.ta import TimeAuthority

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator

#: Node names used across the reproduction; matches the paper's numbering
#: (Nodes 1 and 2 honest in every experiment; Node 3 the compromised one).
def node_name(index: int) -> str:
    """Canonical name of the index-th node (1-based)."""
    return f"node-{index}"


TA_NAME = "time-authority"


def _link(a: SecureEndpoint, b: SecureEndpoint) -> None:
    """Register ``a`` and ``b`` as peers, deriving their shared key once.

    Each end gets its own :class:`SecureChannelKey` over the same bytes,
    so each direction keeps its own nonce counter.
    """
    shared = derive_key(*sorted((a.name, b.name)))
    a.add_peer(b.name, b.address, SecureChannelKey(shared))
    b.add_peer(a.name, a.address, SecureChannelKey(shared))


@dataclass
class ClusterConfig:
    """Construction parameters for :class:`TriadCluster`."""

    node_count: int = 3
    core_count: int = 32
    tsc_frequency_hz: float = PAPER_TSC_FREQUENCY_HZ
    #: One machine per node instead of the paper's single shared host.
    #: Separate machines have independent TSCs (see ``tsc_frequencies_hz``)
    #: and independent AEX environments — no correlated cross-node taint
    #: unless experiments wire it explicitly.
    separate_machines: bool = False
    #: Per-node true TSC frequencies for ``separate_machines`` deployments
    #: (real fleets are heterogeneous); default: ``tsc_frequency_hz`` all.
    tsc_frequencies_hz: Optional[Sequence[float]] = None
    #: Core index hosting each node's monitoring thread (default: 0..n-1;
    #: with separate machines each node uses core 0 of its own machine
    #: unless overridden).
    monitoring_cores: Optional[Sequence[int]] = None
    #: Default delay model for every link (None: paper LAN profile).
    delay_model: Optional[DelayModel] = None
    #: Per-node protocol configs (None entries fall back to `node_config`).
    node_configs: Optional[Sequence[Optional[TriadNodeConfig]]] = None
    node_config: TriadNodeConfig = field(default_factory=TriadNodeConfig)
    #: Per-node calibrators (None entries use the node default: regression).
    calibrators: Optional[Sequence[Optional[Calibrator]]] = None
    #: Number of Time Authorities. The base protocol always uses the
    #: first; the hardened discipline loop polls all of them and takes
    #: the surviving median (§V: consistency over *sets* of clocks).
    #: With one TA the name stays ``time-authority``; with several they
    #: are ``time-authority-1`` … ``time-authority-n``.
    ta_count: int = 1
    #: Node implementation to instantiate — :class:`TriadNode` by default;
    #: pass :class:`repro.hardened.HardenedTriadNode` (with a matching
    #: ``node_config``) to deploy the §V hardened protocol.
    node_class: type = TriadNode
    #: Per-node class overrides (None entries fall back to ``node_class``).
    #: Used for mixed deployments, e.g. honest hardened nodes plus one
    #: :class:`repro.attacks.byzantine.ByzantineTriadNode`.
    node_classes: Optional[Sequence[Optional[type]]] = None
    #: 1-based indices of nodes absent at simulation start (cluster churn).
    #: Absent nodes are constructed dormant — fully wired with endpoint and
    #: keys, but running no threads — with their host detached from the
    #: network fabric; :meth:`TriadCluster.join` brings them online later.
    initial_absent: Sequence[int] = ()


class TriadCluster:
    """A wired deployment: machine, network, Time Authority, nodes."""

    def __init__(self, sim: "Simulator", config: Optional[ClusterConfig] = None) -> None:
        self.sim = sim
        self.config = config or ClusterConfig()
        cfg = self.config
        if cfg.node_count < 1:
            raise ConfigurationError(f"need at least one node, got {cfg.node_count}")
        absent = set(cfg.initial_absent)
        for index in absent:
            if not 1 <= index <= cfg.node_count:
                raise ConfigurationError(
                    f"initial_absent index {index} out of range 1..{cfg.node_count}"
                )
        if len(absent) >= cfg.node_count:
            raise ConfigurationError("at least one node must be present at start")

        if cfg.separate_machines:
            cores = list(cfg.monitoring_cores) if cfg.monitoring_cores else [0] * cfg.node_count
        else:
            cores = (
                list(cfg.monitoring_cores) if cfg.monitoring_cores else list(range(cfg.node_count))
            )
        if len(cores) != cfg.node_count:
            raise ConfigurationError(
                f"{cfg.node_count} nodes need {cfg.node_count} monitoring cores, got {len(cores)}"
            )

        if cfg.separate_machines:
            frequencies = (
                list(cfg.tsc_frequencies_hz)
                if cfg.tsc_frequencies_hz is not None
                else [cfg.tsc_frequency_hz] * cfg.node_count
            )
            if len(frequencies) != cfg.node_count:
                raise ConfigurationError(
                    f"{cfg.node_count} nodes need {cfg.node_count} TSC frequencies, "
                    f"got {len(frequencies)}"
                )
            self.node_machines = [
                Machine(
                    sim,
                    name=f"host-{i + 1}",
                    core_count=cfg.core_count,
                    tsc_frequency_hz=frequencies[i],
                    isolated_cores=[cores[i]],
                )
                for i in range(cfg.node_count)
            ]
            #: No shared host in this topology; use :attr:`node_machines`.
            self.machine = None
        else:
            if cfg.tsc_frequencies_hz is not None:
                raise ConfigurationError(
                    "per-node TSC frequencies require separate_machines=True "
                    "(a shared host has a single TSC)"
                )
            if len(set(cores)) != len(cores):
                raise ConfigurationError("monitoring cores must be distinct on a shared host")
            self.machine = Machine(
                sim,
                name="sgx2-host",
                core_count=cfg.core_count,
                tsc_frequency_hz=cfg.tsc_frequency_hz,
                isolated_cores=cores,
            )
            self.node_machines = [self.machine] * cfg.node_count
        self.network = Network(sim, default_delay=cfg.delay_model)

        if cfg.ta_count < 1:
            raise ConfigurationError(f"need at least one TA, got {cfg.ta_count}")
        ta_names = (
            [TA_NAME]
            if cfg.ta_count == 1
            else [f"{TA_NAME}-{i + 1}" for i in range(cfg.ta_count)]
        )
        ta_endpoints = [SecureEndpoint(sim, self.network, name) for name in ta_names]
        node_endpoints = [
            SecureEndpoint(sim, self.network, node_name(i + 1)) for i in range(cfg.node_count)
        ]
        for endpoint in node_endpoints:
            for ta_endpoint in ta_endpoints:
                _link(endpoint, ta_endpoint)
        # Pairs in index order: each endpoint lists its node peers ascending.
        for i, a in enumerate(node_endpoints):
            for b in node_endpoints[i + 1 :]:
                _link(a, b)

        self.tas = [TimeAuthority(sim, ta_endpoint) for ta_endpoint in ta_endpoints]
        self.ta = self.tas[0]
        self.nodes: list[TriadNode] = []
        for i, endpoint in enumerate(node_endpoints):
            node_cfg = cfg.node_config
            if cfg.node_configs is not None and cfg.node_configs[i] is not None:
                node_cfg = cfg.node_configs[i]
            calibrator = None
            if cfg.calibrators is not None:
                calibrator = cfg.calibrators[i]
            node_class = cfg.node_class
            if cfg.node_classes is not None and cfg.node_classes[i] is not None:
                node_class = cfg.node_classes[i]
            node = node_class(
                sim,
                endpoint,
                ta_name=ta_names[0],
                machine=self.node_machines[i],
                core_index=cores[i],
                config=node_cfg,
                calibrator=calibrator,
                dormant=(i + 1) in absent,
            )
            node.ta_names = list(ta_names)
            self.nodes.append(node)
        self.monitoring_cores = cores

        #: Presence per node name (cluster churn): absent nodes neither
        #: send nor receive, and membership evidence skips them.
        self._present: dict[str, bool] = {
            node.name: (i + 1) not in absent for i, node in enumerate(self.nodes)
        }
        for i in sorted(absent):
            self.network.set_host_down(self.nodes[i - 1].name)
        #: Churn event journal: (time_ns, node_name, action) in event order.
        self.churn_events: list[tuple[int, str, str]] = []
        #: Fault event journal: (time_ns, subject, action) in event order —
        #: crash/restart per node, down/up per TA, partition/heal per
        #: partition name (written by :mod:`repro.faults`).
        self.fault_events: list[tuple[int, str, str]] = []
        #: Invariant oracle and membership controller watching this
        #: deployment, per the plane policy in scope (None when off).
        #: Attaching here makes coverage universal: every code path that
        #: wires a cluster — CLI runs, sweeps, specs, fleet workers — is
        #: watched automatically. (Imported lazily: repro.core.__init__
        #: pulls this module in, so a top-level import would be circular.)
        from repro.oracle.policy import current_policy

        self.oracle, self.membership = current_policy().attach(self)

    # -- cluster churn -------------------------------------------------------

    def is_present(self, index: int) -> bool:
        """Whether the index-th node (1-based) is currently in the cluster."""
        return self._present[self.node(index).name]

    @property
    def present_names(self) -> list[str]:
        """Names of currently present nodes, in index order."""
        return [node.name for node in self.nodes if self._present[node.name]]

    def leave(self, index: int) -> None:
        """Detach the index-th node from the cluster (churn departure).

        The node's processes keep running — a departed enclave does not
        know it left — but no traffic crosses the fabric in either
        direction, including datagrams already in flight. Departing during
        the node's own FullCalib window is hazardous: a black-holed
        calibration exhausts ``calibration_max_attempts`` and crashes the
        run, so authored churn schedules must avoid that window.
        """
        node = self.node(index)
        if not self._present[node.name]:
            raise ConfigurationError(f"{node.name} is already absent")
        self._present[node.name] = False
        self.network.set_host_down(node.name)
        self.churn_events.append((self.sim.now, node.name, "leave"))

    def join(self, index: int) -> None:
        """(Re-)attach the index-th node to the cluster (churn arrival).

        Re-attaches the host to the fabric and, for a dormant node, boots
        its threads: the node runs its initial FullCalib exactly as if it
        had been constructed live at this instant. A rejoining node that
        already ran simply resumes its retry loops.
        """
        node = self.node(index)
        if self._present[node.name]:
            raise ConfigurationError(f"{node.name} is already present")
        self._present[node.name] = True
        self.network.set_host_down(node.name, down=False)
        action = "join" if node.dormant else "rejoin"
        node.activate()
        self.churn_events.append((self.sim.now, node.name, action))

    # -- fault injection -----------------------------------------------------

    def crash_node(self, index: int, cause: str = "fault-injection") -> None:
        """Crash the index-th node's enclave and take its host off the fabric.

        Unlike churn :meth:`leave`, the node's threads are torn down with
        full TEE state loss (see :meth:`TriadNode.crash`); unlike a churn
        departure, the node stays a *member* — the membership plane keeps
        scoring it, which is exactly the false-eviction race the
        probation-credit logic exists for. No-op if the node is already
        down (crashed or dormant).
        """
        node = self.node(index)
        if node.message_process is None:
            return
        node.crash(cause)
        self.network.set_host_down(node.name)
        self.fault_events.append((self.sim.now, node.name, "crash"))

    def restart_node(self, index: int) -> None:
        """Cold-boot a crashed node and re-attach its host to the fabric.

        The node re-enters through :meth:`TriadNode.activate` — initial
        FullCalib from nothing. The fabric is only re-attached if the node
        is still a member (a concurrent churn ``leave`` wins). No-op if
        the node is already running.
        """
        node = self.node(index)
        if node.message_process is not None:
            return
        if self._present[node.name]:
            self.network.set_host_down(node.name, down=False)
        node.activate()
        self.fault_events.append((self.sim.now, node.name, "restart"))

    def set_ta_down(self, down: bool = True, ta_index: int = 0) -> None:
        """Take one TA offline (or back online); journals the transition."""
        if not 0 <= ta_index < len(self.tas):
            raise ConfigurationError(f"no TA {ta_index}; cluster has {len(self.tas)}")
        ta = self.tas[ta_index]
        ta.set_down(down)
        self.fault_events.append((self.sim.now, ta.name, "down" if down else "up"))

    def open_partition(self, name: str, island_indices: Sequence[int]) -> None:
        """Open a named partition isolating the given 1-based node indices."""
        hosts = [self.node(index).name for index in island_indices]
        self.network.partition(name, hosts)
        self.fault_events.append((self.sim.now, name, "partition"))

    def heal_partition(self, name: str) -> None:
        """Heal a named partition opened by :meth:`open_partition`."""
        self.network.heal(name)
        self.fault_events.append((self.sim.now, name, "heal"))

    def node(self, index: int) -> TriadNode:
        """The index-th node, 1-based to match the paper's numbering."""
        if not 1 <= index <= len(self.nodes):
            raise ConfigurationError(f"no node {index}; cluster has {len(self.nodes)}")
        return self.nodes[index - 1]

    @property
    def node_names(self) -> list[str]:
        """All node names in index order."""
        return [node.name for node in self.nodes]

    def monitoring_port(self, index: int):
        """The AEX port of the index-th node's monitoring core (1-based)."""
        return self.node_machines[index - 1].port(self.monitoring_cores[index - 1])
