"""The simulated UDP network: sockets, links, and in-flight datagrams.

:class:`Network` routes datagrams between attached :class:`Socket`\\ s.
Each datagram experiences:

1. a base one-way delay drawn from the link's :class:`~repro.net.delays`
   model (honest network latency);
2. interference from any registered adversaries
   (:mod:`repro.net.adversary`): extra delay or a drop — the paper's
   attacker can do both, and nothing else, because payloads are sealed;
3. an optional uniform drop probability (honest UDP loss).

Delivery is a scheduled timeout whose callback hands the datagram straight to
the destination socket's receiver; datagrams sent over the same link may be
reordered if their sampled delays cross, faithfully modelling UDP.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Callable, Optional, Sized

from repro.errors import ConfigurationError
from repro.net.adversary import NetworkAdversary
from repro.net.delays import DelayModel, paper_lan_delay
from repro.net.message import DROPPED_RING_SIZE, Address, Datagram
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator


#: A socket's receiver: called with each datagram delivered to it.
Receiver = Callable[[Datagram], None]


def discard(datagram: Datagram) -> None:
    """The receiver of a socket nobody reads: the datagram is counted, then lost."""


class Socket:
    """An endpoint bound to an address: sends datagrams, hands arrivals to its receiver."""

    def __init__(self, network: "Network", address: Address, receiver: Receiver) -> None:
        self.network = network
        self.address = address
        #: Called with each datagram delivered here, at its delivery instant.
        self.receiver = receiver
        self.received_count = 0
        self.sent_count = 0

    def send(self, destination: Address, payload: Sized) -> Datagram:
        """Transmit a datagram; returns it (for logging/diagnostics)."""
        self.sent_count += 1
        return self.network.send(self.address, destination, payload)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Socket {self.address} rx={self.received_count} tx={self.sent_count}>"


class Network:
    """Datagram network connecting all simulation participants."""

    def __init__(
        self,
        sim: "Simulator",
        default_delay: Optional[DelayModel] = None,
        drop_probability: float = 0.0,
    ) -> None:
        if not 0.0 <= drop_probability < 1.0:
            raise ConfigurationError(f"drop probability must be in [0,1), got {drop_probability}")
        self.sim = sim
        self.default_delay = default_delay if default_delay is not None else paper_lan_delay()
        self.drop_probability = drop_probability
        self._sockets: dict[Address, Socket] = {}
        self._link_delays: dict[tuple[str, str], DelayModel] = {}
        self._adversaries: list[NetworkAdversary] = []
        #: Hosts currently detached from the fabric (cluster churn). A
        #: down host's datagrams are dropped at send time and anything
        #: addressed to it is dropped at delivery time, so messages
        #: in flight when the host leaves are lost too.
        self._down_hosts: set[str] = set()
        #: Named partitions (fault injection): partition name -> the
        #: island's host set. A datagram is dropped when any active
        #: partition separates its endpoints — one inside the island, the
        #: other outside. Hosts inside the same island still talk.
        self._partitions: dict[str, frozenset[str]] = {}
        self._rng = sim.rng.stream("network")
        #: The most recent sends, bounded like :attr:`dropped`: a datagram
        #: carries its sealed message, so a full history would keep every
        #: message of the run alive. ``sent_count`` keeps the full tally;
        #: perfbench's ``net.datagrams_logged`` counts what is retained.
        self.log: deque[Datagram] = deque(maxlen=DROPPED_RING_SIZE)
        self.sent_count = 0
        #: The most recent drops, bounded so loss-burst and DoS campaigns
        #: cannot grow memory without limit; ``dropped_count`` keeps the
        #: full tally and ``drop_counts`` the per-reason breakdown.
        self.dropped: deque[Datagram] = deque(maxlen=DROPPED_RING_SIZE)
        self.dropped_count = 0
        self.drop_counts: dict[str, int] = {}
        #: The delivery callback, bound once rather than once per datagram.
        self._deliver = self._on_delivery

    # -- topology -----------------------------------------------------------

    def attach(self, address: Address, receiver: Receiver = discard) -> Socket:
        """Bind a new socket delivering to ``receiver``; addresses must be unique."""
        if address in self._sockets:
            raise ConfigurationError(f"address {address} already attached")
        socket = Socket(self, address, receiver)
        self._sockets[address] = socket
        return socket

    def set_link_delay(self, source_host: str, destination_host: str, model: DelayModel) -> None:
        """Override the delay model for one directed host pair."""
        self._link_delays[(source_host, destination_host)] = model

    def add_adversary(self, adversary: NetworkAdversary) -> None:
        """Register an on-path adversary, consulted for every datagram."""
        self._adversaries.append(adversary)

    def set_host_down(self, host: str, down: bool = True) -> None:
        """Detach (or re-attach) a host from the network fabric.

        Models cluster churn: a departed node's socket stays bound (its
        processes keep running and may queue sends), but no traffic
        crosses the fabric in either direction while the host is down.
        """
        if down:
            self._down_hosts.add(host)
        else:
            self._down_hosts.discard(host)

    def partition(self, name: str, island: "set[str] | frozenset[str] | list[str]") -> None:
        """Open a named partition isolating ``island`` from everyone else.

        Hosts inside the island keep talking to each other; any datagram
        with exactly one endpoint inside is dropped — including datagrams
        already in flight when the partition forms (the fabric models a
        cable pull, not a polite connection close). Multiple named
        partitions compose; each is removed by :meth:`heal`.
        """
        if name in self._partitions:
            raise ConfigurationError(f"partition {name!r} already active")
        hosts = frozenset(island)
        if not hosts:
            raise ConfigurationError(f"partition {name!r} needs at least one host")
        self._partitions[name] = hosts

    def heal(self, name: str) -> None:
        """Remove the named partition; unknown names are a configuration bug."""
        if name not in self._partitions:
            raise ConfigurationError(f"no active partition named {name!r}")
        del self._partitions[name]

    def partitioned(self, source_host: str, destination_host: str) -> bool:
        """Whether any active partition separates the two hosts."""
        for island in self._partitions.values():
            if (source_host in island) != (destination_host in island):
                return True
        return False

    # -- data plane ----------------------------------------------------------

    def set_drop_probability(self, probability: float) -> None:
        """Change the uniform loss rate at runtime (fault loss bursts)."""
        if not 0.0 <= probability < 1.0:
            raise ConfigurationError(f"drop probability must be in [0,1), got {probability}")
        self.drop_probability = probability

    def _drop(self, datagram: Datagram, reason: str) -> None:
        """Record a dropped datagram: total count, per-reason, recent ring."""
        self.dropped_count += 1
        self.drop_counts[reason] = self.drop_counts.get(reason, 0) + 1
        self.dropped.append(datagram)

    def send(self, source: Address, destination: Address, payload: Sized) -> Datagram:
        """Inject a datagram; delivery (if any) is scheduled asynchronously."""
        datagram = Datagram(
            source=source,
            destination=destination,
            payload=payload,
            sent_at_ns=self.sim.now,
        )
        self.log.append(datagram)
        self.sent_count += 1

        if self._down_hosts and (
            source.host in self._down_hosts or destination.host in self._down_hosts
        ):
            self._drop(datagram, "host-down")
            return datagram

        if self._partitions and self.partitioned(source.host, destination.host):
            self._drop(datagram, "partition")
            return datagram

        delay_model = self._link_delays.get(
            (source.host, destination.host), self.default_delay
        )
        delay_ns = delay_model.sample(self._rng)

        if self.drop_probability and self._rng.random() < self.drop_probability:
            self._drop(datagram, "loss")
            return datagram

        for adversary in self._adversaries:
            interference = adversary.observe(datagram)
            if interference.drop:
                self._drop(datagram, "adversary")
                return datagram
            delay_ns += interference.extra_delay_ns

        self.sim.timeout(delay_ns, value=datagram)._add_callback(self._deliver)
        return datagram

    def _on_delivery(self, event: Event) -> None:
        datagram: Datagram = event.value
        if self._down_hosts and datagram.destination.host in self._down_hosts:
            # The destination left while this datagram was in flight.
            self._drop(datagram, "host-down")
            return
        if self._partitions and self.partitioned(
            datagram.source.host, datagram.destination.host
        ):
            # A partition formed while this datagram was in flight.
            self._drop(datagram, "partition")
            return
        socket = self._sockets.get(datagram.destination)
        if socket is None:
            # Destination not bound: UDP silently discards. Record it so
            # experiments can notice misconfiguration.
            self._drop(datagram, "unbound")
            return
        socket.received_count += 1
        socket.receiver(datagram)
