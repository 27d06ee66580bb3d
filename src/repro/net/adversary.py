"""On-path network adversaries.

Triad's attacker controls the OS/hypervisor of a compromised host, hence
every datagram entering or leaving that host crosses attacker-controlled
code. Because payloads are sealed (:mod:`repro.net.crypto`), the attacker's
entire power over traffic is: **observe metadata** (addresses, sizes,
timing), **delay**, and **drop**. An adversary decides in
:meth:`NetworkAdversary.interfere`, which is handed an :class:`Observation`
and never the datagram or its payload, so that limit is the interface
itself. This module provides the capability as composable classes; the
concrete F+/F− calibration attacks in :mod:`repro.attacks.delay` build on
them.

An adversary is consulted by :class:`repro.net.channel.Network` for every
datagram at send time; holding a datagram inside the compromised host's
network stack is modelled as returning a positive ``extra_delay_ns``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from repro.errors import ConfigurationError
from repro.net.message import Datagram

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator


@dataclass(frozen=True)
class Interference:
    """The adversary's verdict for one datagram."""

    extra_delay_ns: int = 0
    drop: bool = False

    def __post_init__(self) -> None:
        if self.extra_delay_ns < 0:
            raise ConfigurationError("adversaries cannot make messages travel back in time")


#: Verdict used when the adversary leaves a datagram alone.
PASS = Interference()


@dataclass
class Observation:
    """What an on-path adversary records about one datagram.

    Deliberately excludes the payload: sealed, it would show the attacker
    nothing but its size, so the attacker gets the size alone.
    """

    time_ns: int
    source_host: str
    destination_host: str
    size_bytes: int
    datagram_id: int


class NetworkAdversary:
    """Base adversary: observes everything, interferes with nothing.

    Subclasses override :meth:`interfere`. ``scope_hosts`` restricts the
    adversary's vantage point to traffic touching the hosts it has
    compromised — an attacker owning one machine does not see datagrams
    between two other machines.
    """

    def __init__(self, sim: "Simulator", scope_hosts: Optional[set[str]] = None) -> None:
        self.sim = sim
        self.scope_hosts = scope_hosts
        self.observations: list[Observation] = []
        self.interferences: list[tuple[Observation, Interference]] = []

    def in_scope(self, datagram: Datagram) -> bool:
        """Whether this adversary's vantage point sees the datagram."""
        if self.scope_hosts is None:
            return True
        return (
            datagram.source.host in self.scope_hosts
            or datagram.destination.host in self.scope_hosts
        )

    def observe(self, datagram: Datagram) -> Interference:
        """Called by the network; records and delegates to :meth:`interfere`."""
        if not self.in_scope(datagram):
            return PASS
        observation = Observation(
            time_ns=self.sim.now,
            source_host=datagram.source.host,
            destination_host=datagram.destination.host,
            size_bytes=datagram.size_bytes,
            datagram_id=datagram.datagram_id,
        )
        self.observations.append(observation)
        verdict = self.interfere(observation)
        if verdict.drop or verdict.extra_delay_ns:
            self.interferences.append((observation, verdict))
        return verdict

    def interfere(self, observation: Observation) -> Interference:
        """Decide what to do with an observed datagram. Default: nothing."""
        return PASS


class RuleBasedAdversary(NetworkAdversary):
    """Adversary driven by an ordered list of (predicate, verdict) rules.

    The first matching rule wins. Useful for scripted experiments: "drop
    everything from node-3 to the TA", "add 20 ms to all peer responses".
    """

    def __init__(self, sim: "Simulator", scope_hosts: Optional[set[str]] = None) -> None:
        super().__init__(sim, scope_hosts)
        self._rules: list[tuple[Callable[[Observation], bool], Interference]] = []

    def add_rule(
        self, predicate: Callable[[Observation], bool], verdict: Interference
    ) -> "RuleBasedAdversary":
        """Append a rule; returns self for chaining."""
        self._rules.append((predicate, verdict))
        return self

    def delay_flow(self, source_host: str, destination_host: str, extra_delay_ns: int) -> None:
        """Convenience: delay all traffic on one directed flow."""
        self.add_rule(
            lambda obs: obs.source_host == source_host
            and obs.destination_host == destination_host,
            Interference(extra_delay_ns=extra_delay_ns),
        )

    def drop_flow(self, source_host: str, destination_host: str) -> None:
        """Convenience: drop all traffic on one directed flow."""
        self.add_rule(
            lambda obs: obs.source_host == source_host
            and obs.destination_host == destination_host,
            Interference(drop=True),
        )

    def interfere(self, observation: Observation) -> Interference:
        for predicate, verdict in self._rules:
            if predicate(observation):
                return verdict
        return PASS
