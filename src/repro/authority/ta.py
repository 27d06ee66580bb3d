"""The Time Authority (TA): Triad's root of time trust.

The TA is a remote server with an authoritative clock — in deployments an
NTP(sec) server or a timestamping authority. Triad nodes contact it:

* during **speed calibration**, with requests carrying a waittime ``s``:
  the TA waits ``s`` on its own clock before responding, letting the node
  relate TSC increments to reference time;
* during **reference calibration**, with ``s = 0`` requests, to re-anchor
  the absolute timestamp after all peers were tainted simultaneously.

The TA is its endpoint's consumer: it handles each request at the
request's delivery instant, replying at once for ``s = 0`` and from a
timeout ``s`` later otherwise, so any number of requests are served
concurrently with no process of their own. Its clock is the simulation's
reference time plus an optional fixed offset; the TA itself is trusted
and not attackable in the paper's model — all attacks happen on the path
to it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.errors import ProtocolError
from repro.messages import TimeRequest, TimeResponse
from repro.net.transport import SecureEndpoint

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator


@dataclass
class TaStats:
    """Served-request accounting, used by the Fig. 2b reproduction."""

    requests_received: int = 0
    responses_sent: int = 0
    #: Requests silently discarded while the TA was down (fault outages).
    requests_dropped_down: int = 0
    #: (time_ns, requester, sleep_ns) per request, in arrival order.
    request_log: list[tuple[int, str, int]] = field(default_factory=list)

    def requests_from(self, requester: str) -> int:
        """Number of requests received from one node."""
        return sum(1 for _, name, _ in self.request_log if name == requester)


class TimeAuthority:
    """A trusted reference-time server."""

    def __init__(
        self,
        sim: "Simulator",
        endpoint: SecureEndpoint,
        clock_offset_ns: int = 0,
        max_sleep_ns: int = 60 * 1_000_000_000,
    ) -> None:
        self.sim = sim
        self.endpoint = endpoint
        self.clock_offset_ns = clock_offset_ns
        self.max_sleep_ns = max_sleep_ns
        self.stats = TaStats()
        #: While True the TA drops requests on the floor (fault outage /
        #: flapping). Clients see exactly what a dead server looks like:
        #: silence, then their own timeout.
        self.down = False
        endpoint.consumer = self._on_request

    def set_down(self, down: bool = True) -> None:
        """Take the TA offline (or bring it back). Injection hook for faults."""
        self.down = down

    @property
    def name(self) -> str:
        """The TA's network name."""
        return self.endpoint.name

    def now(self) -> int:
        """The TA's clock reading (reference time + configured offset)."""
        return self.sim.now + self.clock_offset_ns

    # -- request handling ------------------------------------------------------

    def _on_request(self, sender: str, message) -> None:
        """Answer one delivered request (the endpoint's consumer)."""
        if self.down:
            self.stats.requests_dropped_down += 1
            return
        if not isinstance(message, TimeRequest):
            raise ProtocolError(
                f"TA received unexpected message {type(message).__name__} from {sender}"
            )
        self.stats.requests_received += 1
        self.stats.request_log.append((self.sim.now, sender, message.sleep_ns))
        receive_time = self.now()
        sleep_ns = min(max(message.sleep_ns, 0), self.max_sleep_ns)
        if sleep_ns:
            self.sim.timeout(sleep_ns)._add_callback(
                lambda _event: self._reply(sender, message, receive_time)
            )
        else:
            self._reply(sender, message, receive_time)

    def _reply(self, sender: str, request: TimeRequest, receive_time: int) -> None:
        transmit_time = self.now()
        self.endpoint.send(
            sender,
            TimeResponse(
                request_id=request.request_id,
                reference_time_ns=transmit_time,
                sleep_ns=request.sleep_ns,
                receive_time_ns=receive_time,
                transmit_time_ns=transmit_time,
            ),
        )
        self.stats.responses_sent += 1
