"""Secure endpoints: sockets + per-peer AEAD keys + one-hop delivery.

Protocol code (nodes, the Time Authority) talks in terms of plaintext
message objects addressed by peer *name*. A :class:`SecureEndpoint`:

* seals outgoing messages with the key shared with the destination peer
  and puts them on the network;
* is its socket's receiver: at a datagram's delivery instant it opens the
  datagram with the key of the one peer listed at its source address (UDP
  gives no session context, so the address is all there is to go on) and
  passes ``(sender, message)`` to its :attr:`~SecureEndpoint.consumer`,
  the one handler its owner set. The consumer runs inside the delivery
  timeout, so a datagram costs that one kernel event and nothing more;
* silently drops (but counts) datagrams from unknown addresses, those
  that fail authentication, which is the correct behaviour for a TEE
  receiving attacker-forged traffic, and those that arrive while no
  consumer is set (a crashed or not yet booted enclave).

Who an endpoint may talk to is a :class:`PeerDirectory`. A cluster builds
one per role and shares it, so wiring N endpoints costs O(N); a bare
endpoint owns its directory and fills it with :meth:`~SecureEndpoint.register_peer`.
The :class:`PeerLink` to a peer, and its key, is built on the first seal to
that peer or the first datagram opened from it.

Each endpoint holds one key epoch (:meth:`~SecureEndpoint.enter_epoch`).
A rotating link picks the epoch up on its first seal or open after the
epoch moved, through :meth:`~SecureEndpoint.rekey_peer`, so handing a
fresh epoch secret to an endpoint is O(1) however many links it has.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.errors import ConfigurationError, CryptoError
from repro.net.channel import Network, Socket
from repro.net.crypto import SecureChannelKey
from repro.net.message import Address, Datagram

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator


@dataclass(slots=True)
class PeerLink:
    """Addressing and key material for one peer, built on first use."""

    name: str
    address: Address
    key: SecureChannelKey
    #: Whether the link follows its endpoint's key epoch (Time Authority
    #: links never rotate).
    rotates: bool = True


class PeerDirectory:
    """The peers an endpoint may exchange datagrams with.

    Entries keep their registration order, which is the order
    :attr:`SecureEndpoint.peer_names` lists them in. An endpoint skips
    its own entry, so the endpoints sharing a directory may all be listed
    in it.
    """

    def __init__(self) -> None:
        #: name -> (address, rotates), in registration order.
        self.entries: dict[str, tuple[Address, bool]] = {}
        #: address -> name, for the receive path.
        self.names: dict[Address, str] = {}

    def add(self, name: str, address: Address, rotates: bool = True) -> None:
        """List ``name`` at ``address``; ``rotates`` as for :class:`PeerLink`."""
        if name in self.entries:
            raise ConfigurationError(f"peer {name!r} already registered")
        self.entries[name] = (address, rotates)
        self.names[address] = name


class SecureEndpoint:
    """A named protocol participant's network attachment."""

    def __init__(
        self,
        sim: "Simulator",
        network: Network,
        name: str,
        port: int = 0,
        directory: Optional[PeerDirectory] = None,
    ) -> None:
        self.sim = sim
        self.network = network
        self.name = name
        self.address = Address(host=name, port=port)
        self.socket: Socket = network.attach(self.address, self._receive)
        self.directory = PeerDirectory() if directory is None else directory
        self._links: dict[str, PeerLink] = {}
        self._links_at: dict[Address, PeerLink] = {}
        #: Key epoch of the rotating links (0 = attestation-time keys).
        self.epoch = 0
        self._epoch_secret: Optional[bytes] = None
        #: The owner's handler, called with ``(sender, message)`` for each
        #: opened datagram at its delivery instant; while None, what is
        #: opened is counted in ``unconsumed_drops`` and dropped.
        self.consumer: Optional[Callable[[str, Any], None]] = None
        self.auth_failures = 0
        self.unknown_sender_drops = 0
        self.unconsumed_drops = 0

    # -- peer management -------------------------------------------------------

    def register_peer(self, peer: "SecureEndpoint") -> None:
        """Pair with another endpoint under the key its name and ours identify."""
        self._list_peer(peer.name, peer.address)

    def add_peer(self, name: str, address: Address, key: SecureChannelKey) -> None:
        """Register a peer by explicit name/address/key."""
        self._list_peer(name, address)
        self._install(PeerLink(name=name, address=address, key=key))

    def _list_peer(self, name: str, address: Address) -> None:
        if name == self.name:
            raise ConfigurationError("an endpoint cannot peer with itself")
        self.directory.add(name, address)

    @property
    def peer_names(self) -> list[str]:
        """Names of all listed peers, in registration order."""
        names = list(self.directory.entries)
        if self.name in self.directory.entries:
            names.remove(self.name)
        return names

    def enter_epoch(self, epoch_secret: bytes, epoch: int) -> None:
        """Move this endpoint's rotating links to ``epoch``.

        Called by the membership controller when it distributes a fresh
        epoch secret. Each link picks the epoch up at its next use; only
        this endpoint's view of its links changes, and a peer interoperates
        again once (and only once) it enters the same epoch — which is
        exactly how a quarantined node is cut off.
        """
        if epoch < 0:
            raise CryptoError(f"epoch must be non-negative, got {epoch}")
        self._epoch_secret = epoch_secret
        self.epoch = epoch

    def rekey_peer(self, name: str, epoch_secret: bytes, epoch: int) -> None:
        """Rotate the link key shared with ``name`` to ``epoch``.

        The pickup step: a rotating link calls this on its first seal or
        open after :meth:`enter_epoch` moved the endpoint's epoch, which
        also restarts the link's nonce counter.
        """
        link = self._links.get(name) or self._link_to(name)
        link.key.rekey(epoch_secret, epoch)

    def peer_epoch(self, name: str) -> int:
        """Key epoch the link to ``name`` would use (0 = base key)."""
        link = self._links.get(name)
        if link is not None:
            return self.epoch if link.rotates else link.key.epoch
        return self.epoch if self._entry(name)[1] else 0

    def _entry(self, name: str) -> tuple[Address, bool]:
        entry = self.directory.entries.get(name) if name != self.name else None
        if entry is None:
            raise ConfigurationError(f"{self.name!r} has no peer named {name!r}")
        return entry

    def _link_to(self, name: str) -> PeerLink:
        """Build the link to a listed peer under its attestation-time key."""
        address, rotates = self._entry(name)
        return self._install(
            PeerLink(name, address, SecureChannelKey.between(self.name, name), rotates)
        )

    def _install(self, link: PeerLink) -> PeerLink:
        self._links[link.name] = link
        self._links_at[link.address] = link
        return link

    # -- sending ------------------------------------------------------------------

    def send(self, peer_name: str, message: Any) -> None:
        """Seal ``message`` for ``peer_name`` and transmit it."""
        link = self._links.get(peer_name) or self._link_to(peer_name)
        if link.rotates and link.key.epoch != self.epoch:
            self.rekey_peer(peer_name, self._epoch_secret, self.epoch)
        self.socket.send(link.address, link.key.seal(message))

    # -- receiving -----------------------------------------------------------------

    def _receive(self, datagram: Datagram) -> None:
        """Open one delivered datagram and pass it to the consumer (the socket's receiver)."""
        link = self._links_at.get(datagram.source)
        if link is None:
            name = self.directory.names.get(datagram.source)
            if name is None or name == self.name:
                # Source address unknown: without a key there is nothing
                # to authenticate against; a TEE must ignore such traffic.
                self.unknown_sender_drops += 1
                return
            link = self._link_to(name)
        if link.rotates and link.key.epoch != self.epoch:
            self.rekey_peer(link.name, self._epoch_secret, self.epoch)
        try:
            message = link.key.open(datagram.payload)
        except CryptoError:
            self.auth_failures += 1
            return
        consumer = self.consumer
        if consumer is None:
            self.unconsumed_drops += 1
            return
        consumer(link.name, message)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SecureEndpoint {self.name!r} peers={self.peer_names}>"
