"""Secure endpoints: sockets + per-peer AEAD keys + an unsealing pump.

Protocol code (nodes, the Time Authority) talks in terms of plaintext
message objects addressed by peer *name*. A :class:`SecureEndpoint`:

* seals outgoing messages with the key shared with the destination peer
  and puts them on the network;
* runs a pump process that unseals each incoming datagram with the key of
  the one peer registered at its source address (UDP gives no session
  context, so the address is all there is to go on) and queues
  :class:`Envelope` objects for consumers;
* silently drops (but counts) datagrams from unknown addresses and those
  that fail authentication, which is the correct behaviour for a TEE
  receiving attacker-forged traffic.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.errors import ConfigurationError, CryptoError
from repro.net.channel import Network, Socket
from repro.net.crypto import SecureChannelKey
from repro.net.message import Address
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator


@dataclass(frozen=True)
class Envelope:
    """A decrypted, authenticated incoming message."""

    sender: str
    message: Any
    received_at_ns: int


@dataclass
class PeerLink:
    """Addressing and key material for one registered peer."""

    name: str
    address: Address
    key: SecureChannelKey


class SecureEndpoint:
    """A named protocol participant's network attachment."""

    def __init__(self, sim: "Simulator", network: Network, name: str, port: int = 0) -> None:
        self.sim = sim
        self.network = network
        self.name = name
        self.address = Address(host=name, port=port)
        self.socket: Socket = network.attach(self.address)
        self._peers: dict[str, PeerLink] = {}
        self._address_to_peer: dict[Address, PeerLink] = {}
        self._inbox: deque[Envelope] = deque()
        self._waiters: deque[Event] = deque()
        self.auth_failures = 0
        self.unknown_sender_drops = 0
        self._pump = sim.process(self._pump_loop(), name=f"endpoint-pump/{name}")

    # -- peer management -------------------------------------------------------

    def register_peer(self, peer: "SecureEndpoint") -> None:
        """Pair with another endpoint under the key its name and ours identify."""
        self.add_peer(peer.name, peer.address, SecureChannelKey.between(self.name, peer.name))

    def add_peer(self, name: str, address: Address, key: SecureChannelKey) -> None:
        """Register a peer by explicit name/address/key."""
        if name == self.name:
            raise ConfigurationError("an endpoint cannot peer with itself")
        if name in self._peers:
            raise ConfigurationError(f"peer {name!r} already registered on {self.name!r}")
        link = PeerLink(name=name, address=address, key=key)
        self._peers[name] = link
        self._address_to_peer[address] = link

    @property
    def peer_names(self) -> list[str]:
        """Names of all registered peers."""
        return list(self._peers)

    def rekey_peer(self, name: str, epoch_secret: bytes, epoch: int) -> None:
        """Rotate the link key shared with ``name`` to ``epoch``.

        Called by the membership controller when it distributes a fresh
        epoch secret. Only this endpoint's view of the link changes; the
        peer interoperates again once (and only once) it receives the same
        secret — which is exactly how a quarantined node is cut off.
        """
        link = self._peers.get(name)
        if link is None:
            raise ConfigurationError(f"{self.name!r} has no peer named {name!r}")
        link.key.rekey(epoch_secret, epoch)

    def peer_epoch(self, name: str) -> int:
        """Key epoch currently installed for ``name`` (0 = base key)."""
        link = self._peers.get(name)
        if link is None:
            raise ConfigurationError(f"{self.name!r} has no peer named {name!r}")
        return link.key.epoch

    # -- sending ------------------------------------------------------------------

    def send(self, peer_name: str, message: Any) -> None:
        """Seal ``message`` for ``peer_name`` and transmit it."""
        link = self._peers.get(peer_name)
        if link is None:
            raise ConfigurationError(f"{self.name!r} has no peer named {peer_name!r}")
        self.socket.send(link.address, link.key.seal(message))

    # -- receiving -----------------------------------------------------------------

    def recv(self) -> Event:
        """Event firing with the next authenticated :class:`Envelope`."""
        event = Event(self.sim)
        if self._inbox:
            event.succeed(self._inbox.popleft())
        else:
            self._waiters.append(event)
        return event

    def drain(self) -> list[Envelope]:
        """Remove and return all queued envelopes without waiting."""
        drained = list(self._inbox)
        self._inbox.clear()
        return drained

    def _pump_loop(self):
        while True:
            datagram = yield self.socket.recv()
            link = self._address_to_peer.get(datagram.source)
            if link is None:
                # Source address unknown: without a key there is nothing to
                # authenticate against; a TEE must ignore such traffic.
                self.unknown_sender_drops += 1
                continue
            try:
                message = link.key.open(datagram.payload)
            except CryptoError:
                self.auth_failures += 1
                continue
            envelope = Envelope(
                sender=link.name, message=message, received_at_ns=self.sim.now
            )
            self._deliver(envelope)

    def _deliver(self, envelope: Envelope) -> None:
        while self._waiters:
            waiter = self._waiters.popleft()
            if not waiter.triggered:
                waiter.succeed(envelope)
                return
        self._inbox.append(envelope)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SecureEndpoint {self.name!r} peers={self.peer_names}>"
