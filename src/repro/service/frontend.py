"""Per-node service front-ends: admission queue, batching, shedding.

A :class:`FrontEnd` stands between one Triad node and its slice of the
session population. Request handling is batch-granular: each tick it

1. admits the workload's arrivals (shedding overflow beyond the queue
   capacity — open-loop overload has to go *somewhere*, and a bounded
   queue plus explicit shed is what a production front-end does);
2. drops queued batches older than the deadline (client-visible
   timeouts);
3. drains up to its service rate in FIFO order, accounting queueing
   delay per batch;
4. stamps the drained batch with the quorum client's current estimate —
   or refuses the whole batch when no quorum anchor is available.

Queue entries are plain tuple batch records, ``(arrival_tick,
n_timestamp, n_lease, n_timeout)``: requests never exist as objects, so
a million-request run holds one small tuple per queued tick's batch.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from repro.errors import ConfigurationError
from repro.service.metrics import FrontEndMetrics

if TYPE_CHECKING:  # pragma: no cover
    from repro.service.quorum import QuorumClient
    from repro.service.workload import SessionWorkload

def _split_proportional(
    kinds: tuple[int, int, int], take: int
) -> tuple[tuple[int, int, int], tuple[int, int, int]]:
    """Deterministically split a batch into (taken, remainder) of size ``take``.

    Largest-remainder apportionment over the kind counts: exact, order
    stable, and independent of dict/hash ordering.
    """
    total = kinds[0] + kinds[1] + kinds[2]
    if take >= total:
        return kinds, (0, 0, 0)
    if take <= 0:
        return (0, 0, 0), kinds
    shares = [take * k // total for k in kinds]
    remainders = sorted(
        range(3), key=lambda i: (-(take * kinds[i] % total), i)
    )
    leftover = take - sum(shares)
    for index in remainders[:leftover]:
        shares[index] += 1
    taken = (shares[0], shares[1], shares[2])
    rest = (kinds[0] - shares[0], kinds[1] - shares[1], kinds[2] - shares[2])
    return taken, rest


class FrontEnd:
    """One node's admission queue and batch server."""

    def __init__(
        self,
        name: str,
        workload: "SessionWorkload",
        quorum_client: "QuorumClient",
        queue_capacity: int,
        service_per_tick: float,
        deadline_ticks: int,
        lease_guard_ns: int,
        tick_ns: int,
    ) -> None:
        if queue_capacity < 1:
            raise ConfigurationError(f"queue capacity must be positive, got {queue_capacity}")
        if service_per_tick <= 0:
            raise ConfigurationError(
                f"service rate must be positive, got {service_per_tick}/tick"
            )
        self.name = name
        self.workload = workload
        self.quorum_client = quorum_client
        self.queue_capacity = queue_capacity
        self.service_per_tick = service_per_tick
        self.deadline_ticks = deadline_ticks
        self.lease_guard_ns = lease_guard_ns
        self.tick_ns = tick_ns
        self.metrics = FrontEndMetrics(name=name)
        self._queue: deque[tuple[int, int, int, int]] = deque()
        self._depth = 0
        #: Fractional service capacity carried between ticks, so a rate
        #: that is not an integer multiple of the tick still drains exactly.
        self._service_credit = 0.0

    @property
    def queue_depth(self) -> int:
        """Requests currently waiting for admission."""
        return self._depth

    def tick(self, tick_index: int, true_now_ns: int) -> None:
        """Process one batch interval at true simulated instant ``true_now_ns``."""
        self._admit(tick_index)
        self._expire(tick_index)
        self._drain(tick_index, true_now_ns)

    # -- admission -----------------------------------------------------------------

    def _admit(self, tick_index: int) -> None:
        kinds = self.workload.draw()
        total = kinds[0] + kinds[1] + kinds[2]
        if total <= 0:
            return
        room = self.queue_capacity - self._depth
        admitted, shed = _split_proportional(kinds, room)
        shed_total = shed[0] + shed[1] + shed[2]
        if shed_total:
            self.metrics.record_shed(shed)
            # Shed sessions get an immediate error response: in the closed
            # loop they return to thinking right away.
            self.workload.absorb(shed_total)
        admitted_total = admitted[0] + admitted[1] + admitted[2]
        if admitted_total:
            self._queue.append((tick_index, admitted[0], admitted[1], admitted[2]))
            self._depth += admitted_total

    # -- deadline expiry -----------------------------------------------------------

    def _expire(self, tick_index: int) -> None:
        while self._queue:
            tick, n_ts, n_lease, n_to = self._queue[0]
            if tick_index - tick <= self.deadline_ticks:
                break
            self._queue.popleft()
            count = n_ts + n_lease + n_to
            self._depth -= count
            self.metrics.record_expired((n_ts, n_lease, n_to))
            self.workload.absorb(count)

    # -- draining ------------------------------------------------------------------

    def _drain(self, tick_index: int, true_now_ns: int) -> None:
        self._service_credit += self.service_per_tick
        budget = int(self._service_credit)
        if budget <= 0:
            return
        self._service_credit -= budget

        drained_kinds = [0, 0, 0]
        drained_total = 0
        while budget > 0 and self._queue:
            tick, n_ts, n_lease, n_to = self._queue.popleft()
            taken, rest = _split_proportional((n_ts, n_lease, n_to), budget)
            taken_total = taken[0] + taken[1] + taken[2]
            if rest != (0, 0, 0):
                self._queue.appendleft((tick, rest[0], rest[1], rest[2]))
            budget -= taken_total
            self._depth -= taken_total
            for index in range(3):
                drained_kinds[index] += taken[index]
            drained_total += taken_total
            self.metrics.record_wait((tick_index - tick) * self.tick_ns, taken_total)
        if drained_total == 0:
            return

        estimate = self.quorum_client.estimate()
        kinds_tuple = (drained_kinds[0], drained_kinds[1], drained_kinds[2])
        if estimate is None:
            # No quorum agreement: every drained request gets an
            # "unavailable" response — degraded availability, never a
            # poisoned timestamp.
            self.metrics.record_refused(kinds_tuple)
        else:
            self.metrics.record_served(
                kinds_tuple,
                estimate - true_now_ns,
                self.lease_guard_ns,
                degraded=self.quorum_client.anchor_degraded,
            )
        self.workload.absorb(drained_total)
