"""Per-node service front-ends: admission queue, batching, shedding.

A :class:`FrontEnd` stands between one Triad node and its slice of the
session population. Request handling is batch-granular: each
:meth:`FrontEnd.tick` makes one pass that

1. admits the workload's arrivals (shedding overflow beyond the queue
   capacity — open-loop overload has to go *somewhere*, and a bounded
   queue plus explicit shed is what a production front-end does);
2. drops queued batches older than the deadline (client-visible
   timeouts);
3. drains up to its service rate in FIFO order, accounting queueing
   delay per batch;
4. stamps the drained batch with the quorum client's current estimate —
   or refuses the whole batch when no quorum anchor is available.

Below saturation a tick admits one batch and drains it whole, so the
pass is written for that case: a batch is apportioned across kinds only
when it overflows the queue or the drain budget ends inside it.

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
        """Admit, expire and drain one batch interval at true instant ``true_now_ns``."""
        metrics = self.metrics
        queue = self._queue
        depth = self._depth
        # Sessions answered this tick (shed, expired or drained), handed
        # back to the workload once at the end.
        completed = 0

        # Admit the tick's arrivals; overflow past the room is shed.
        n_ts, n_lease, n_to = self.workload.draw()
        arrived = n_ts + n_lease + n_to
        if arrived:
            room = self.queue_capacity - depth
            if arrived > room:
                (n_ts, n_lease, n_to), shed = _split_proportional(
                    (n_ts, n_lease, n_to), room
                )
                metrics.record_shed(shed)
                # Shed sessions get an immediate error response: in the
                # closed loop they return to thinking right away.
                completed = arrived - n_ts - n_lease - n_to
                arrived -= completed
            if arrived:
                queue.append((tick_index, n_ts, n_lease, n_to))
                depth += arrived

        # Drop batches queued longer than the deadline (client timeouts).
        deadline_ticks = self.deadline_ticks
        while queue and tick_index - queue[0][0] > deadline_ticks:
            _, e_ts, e_lease, e_to = queue.popleft()
            metrics.record_expired((e_ts, e_lease, e_to))
            expired = e_ts + e_lease + e_to
            depth -= expired
            completed += expired

        # Drain up to the service budget in FIFO order; the fractional
        # credit carries over so a non-integer rate drains exactly.
        credit = self._service_credit + self.service_per_tick
        budget = int(credit)
        d_ts = d_lease = d_to = 0
        if budget > 0:
            credit -= budget
            wait_histogram = metrics.wait_histogram
            while budget > 0 and queue:
                arrival_tick, b_ts, b_lease, b_to = queue[0]
                taken = b_ts + b_lease + b_to
                if taken <= budget:
                    queue.popleft()
                else:
                    (b_ts, b_lease, b_to), rest = _split_proportional(
                        (b_ts, b_lease, b_to), budget
                    )
                    queue[0] = (arrival_tick, *rest)
                    taken = budget
                budget -= taken
                d_ts += b_ts
                d_lease += b_lease
                d_to += b_to
                wait_ns = (tick_index - arrival_tick) * self.tick_ns
                wait_histogram[wait_ns] = wait_histogram.get(wait_ns, 0) + taken
        self._service_credit = credit

        drained = d_ts + d_lease + d_to
        self._depth = depth - drained
        if drained:
            completed += drained
            estimate = self.quorum_client.estimate()
            if estimate is None:
                # No quorum agreement: every drained request gets an
                # "unavailable" response — degraded availability, never a
                # poisoned timestamp.
                metrics.record_refused((d_ts, d_lease, d_to))
            else:
                served = metrics.served
                served[0] += d_ts
                served[1] += d_lease
                served[2] += d_to
                if self.quorum_client.anchor_degraded:
                    degraded = metrics.degraded
                    degraded[0] += d_ts
                    degraded[1] += d_lease
                    degraded[2] += d_to
                error_ns = estimate - true_now_ns
                magnitude = abs(error_ns)
                error_histogram = metrics.error_histogram
                error_histogram[magnitude] = error_histogram.get(magnitude, 0) + drained
                if error_ns < metrics.min_error_ns:
                    metrics.min_error_ns = error_ns
                if error_ns > metrics.max_error_ns:
                    metrics.max_error_ns = error_ns
                if magnitude > self.lease_guard_ns:
                    metrics.lease_violations += d_lease
        if completed:
            self.workload.absorb(completed)
