"""Datagram model for the simulated network.

All Triad communications use UDP (per the paper §IV), so the network layer
moves self-contained datagrams with no delivery, ordering, or duplication
guarantees. A datagram's payload is opaque: by the time a message reaches
the network it has already been sealed by :mod:`repro.net.crypto` into an
envelope whose one visible property is its size, so the network (and the
adversary embedded in it) sees only sizes, addresses, and timing. That is
precisely the paper's attacker model: the attacker cannot read the
requested TA waittime ``s``, but can observe and correlate traffic timing
to infer it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Sized

#: Process-wide datagram id counter (diagnostics only; never protocol-visible).
_datagram_ids = itertools.count(1)

#: Capacity of every diagnostic datagram ring: the network's recent sends
#: and drops and an adversary's recent observations. Large enough to
#: inspect recent traffic in any test or post-mortem, small enough that a
#: multi-hour run or loss-burst campaign stays O(1) in memory.
DROPPED_RING_SIZE = 1024


@dataclass(frozen=True)
class Address:
    """A network address: host name plus port."""

    host: str
    port: int = 0

    def __str__(self) -> str:
        return f"{self.host}:{self.port}"


@dataclass(slots=True, eq=False)
class Datagram:
    """One UDP datagram in flight."""

    source: Address
    destination: Address
    #: A sealed envelope, or raw bytes on a bare socket.
    payload: Sized
    sent_at_ns: int
    datagram_id: int = field(default_factory=lambda: next(_datagram_ids))

    @property
    def size_bytes(self) -> int:
        """Wire size visible to any on-path observer."""
        return len(self.payload)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Datagram #{self.datagram_id} {self.source} -> {self.destination}"
            f" {self.size_bytes}B @ {self.sent_at_ns}>"
        )
