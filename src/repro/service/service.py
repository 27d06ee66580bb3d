"""Deploy a trusted-time service over a wired experiment.

:class:`TimeService` is the glue layer: given an
:class:`~repro.experiments.runner.Experiment` (cluster + probes already
wired, attacks already attached) and a :class:`ServiceConfig`, it

* splits the session population evenly across one front-end per node;
* gives each front-end a Marzullo quorum client fanning out to the
  ``quorum`` nodes starting at its own (wrapping around the cluster), so
  every node is a primary for its own clients and a secondary for its
  neighbours';
* drives *all* front-ends from a single ticking kernel process — one
  simulator event per tick total, regardless of cluster size or request
  volume, keeping the service layer nearly free in kernel terms.

After the experiment runs, :meth:`report` folds the per-front-end
metrics into one deterministic :class:`ServiceReport`.
"""

from __future__ import annotations

import functools
from typing import TYPE_CHECKING

from repro.errors import ConfigurationError
from repro.net.delays import paper_lan_delay
from repro.service.config import ServiceConfig
from repro.service.frontend import FrontEnd
from repro.service.metrics import ServiceReport, build_report
from repro.service.quorum import QuorumClient
from repro.service.workload import (
    ClosedLoopArrivals,
    OpenLoopArrivals,
    SessionWorkload,
    kind_mix,
)
from repro.sim.units import SECOND

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.runner import Experiment


class TimeService:
    """A client-facing service layer attached to one experiment."""

    def __init__(self, experiment: "Experiment", config: ServiceConfig) -> None:
        cluster = experiment.cluster
        node_count = len(cluster.nodes)
        if config.quorum > node_count:
            raise ConfigurationError(
                f"service.quorum: fan-out of {config.quorum} exceeds the "
                f"cluster of {node_count} node(s)"
            )
        self.experiment = experiment
        self.config = config
        self.sim = experiment.sim
        self.frontends: list[FrontEnd] = []
        delay_model = paper_lan_delay()
        service_per_tick = config.service_rate_rps * config.tick_ns / SECOND
        mix = kind_mix(config.lease_fraction, config.timeout_fraction)
        for index in range(node_count):
            node = cluster.nodes[index]
            rng = self.sim.rng.stream(f"service/{node.name}")
            if config.arrival == "open":
                # Arrivals draw on a stream of their own, created at the
                # first refill, so quorum syncs never reorder them.
                arrivals = OpenLoopArrivals(
                    functools.partial(self.sim.rng.stream, f"service/{node.name}/arrivals"),
                    rate_rps=config.aggregate_rate_rps / node_count,
                    tick_ns=config.tick_ns,
                    mix=mix,
                )
            else:
                arrivals = ClosedLoopArrivals(
                    rng,
                    sessions=max(_share(config.sessions, node_count, index), 1),
                    think_ms=config.think_ms,
                    tick_ns=config.tick_ns,
                    mix=mix,
                )
            workload = SessionWorkload(arrivals)
            sources = [
                cluster.nodes[(index + offset) % node_count]
                for offset in range(config.quorum)
            ]
            quorum_client = QuorumClient(
                self.sim,
                sources,
                rng=rng,
                delay_model=delay_model,
                staleness_ns=config.anchor_staleness_ns,
                margin_ns=config.rtt_margin_ns,
                degraded_margin_factor=config.degraded_margin_factor,
                breaker_threshold=config.breaker_threshold,
                breaker_cooldown_ns=(
                    config.breaker_cooldown_ns if config.breaker_threshold else 0
                ),
            )
            self.frontends.append(
                FrontEnd(
                    name=node.name,
                    workload=workload,
                    quorum_client=quorum_client,
                    queue_capacity=config.queue_capacity,
                    service_per_tick=service_per_tick,
                    deadline_ticks=config.deadline_ticks,
                    lease_guard_ns=config.lease_guard_ns,
                    tick_ns=config.tick_ns,
                )
            )
        self.process = self.sim.process(self._run(), name="service/driver")

    @classmethod
    def attach(cls, experiment: "Experiment", config: ServiceConfig) -> "TimeService":
        """Create the service and register it on the experiment."""
        service = cls(experiment, config)
        experiment.service = service
        return service

    def _run(self):
        """Single driver loop: one kernel event per tick for all front-ends."""
        if self.config.start_ns:
            yield self.sim.timeout(self.config.start_ns)
        tick_index = 0
        tick_ns = self.config.tick_ns
        while True:
            yield self.sim.timeout(tick_ns)
            tick_index += 1
            now = self.sim.now
            for frontend in self.frontends:
                frontend.tick(tick_index, now)

    # -- results --------------------------------------------------------------------

    def report(self) -> ServiceReport:
        """Fold the run into one deterministic client-visible report."""
        active_ns = self.sim.now - self.config.start_ns
        if active_ns <= 0:
            raise ConfigurationError(
                "service never reached its start time; run the experiment "
                f"past {self.config.start_s:.1f}s first"
            )
        quorum_totals = _merge_quorum_stats(self.frontends)
        return build_report(
            name=self.experiment.name,
            duration_ns=active_ns,
            sessions=self.config.sessions,
            arrival=self.config.arrival,
            quorum=self.config.quorum,
            frontends=[frontend.metrics for frontend in self.frontends],
            quorum_stats=quorum_totals,
        )


def _share(total: int, parts: int, index: int) -> int:
    """Even split of ``total`` into ``parts``, remainder to the first ones."""
    share = total // parts
    if index < total % parts:
        share += 1
    return share


def _merge_quorum_stats(frontends: list[FrontEnd]) -> dict:
    """Cluster-wide quorum counters, plus out-voted counts per source."""
    syncs = failures = degraded = votes = 0
    unavailable: dict[str, int] = {}
    outvoted: dict[str, int] = {}
    breaker_opens: dict[str, int] = {}
    breaker_skips: dict[str, int] = {}
    for frontend in frontends:
        stats = frontend.quorum_client.stats
        syncs += stats.syncs
        failures += stats.sync_failures
        degraded += stats.degraded_syncs
        votes += stats.votes_total
        for name, count in stats.unavailable.items():
            unavailable[name] = unavailable.get(name, 0) + count
        for name, count in stats.outvoted.items():
            outvoted[name] = outvoted.get(name, 0) + count
        for name, count in stats.breaker_opens.items():
            breaker_opens[name] = breaker_opens.get(name, 0) + count
        for name, count in stats.breaker_skips.items():
            breaker_skips[name] = breaker_skips.get(name, 0) + count
    return {
        "syncs": syncs,
        "sync_failures": failures,
        "degraded_syncs": degraded,
        "mean_votes": round(votes / syncs, 4) if syncs else 0.0,
        "unavailable": {k: unavailable[k] for k in sorted(unavailable)},
        "outvoted": {k: outvoted[k] for k in sorted(outvoted)},
        "breaker_opens": {k: breaker_opens[k] for k in sorted(breaker_opens)},
        "breaker_skips": {k: breaker_skips[k] for k in sorted(breaker_skips)},
    }
