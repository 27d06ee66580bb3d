"""Client-visible SLO accounting and the :class:`ServiceReport`.

Per-node state (drift series, state timelines) tells you what the
*protocol* did; this module measures what the *clients* saw — the metric
the ROADMAP's production north-star actually cares about and the lens
every attack should be judged through. Error and queueing delay are
count-keyed histograms (``{value_ns: count}``): a tick's served batch
adds its size to one key, so a million-request run holds only as many
entries as it saw distinct values — a few hundred, not one per tick —
and percentiles come out of
:func:`repro.analysis.stats.weighted_percentile` without ever expanding
the sample.

Nothing in the report depends on wall-clock time, worker count, or cache
state: a pinned seed reproduces the report byte-for-byte, which is what
lets CI ``cmp`` the JSON across ``--jobs 1`` and ``--jobs 2`` runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.analysis.report import format_table
from repro.analysis.stats import weighted_percentile
from repro.errors import ConfigurationError
from repro.sim.units import MILLISECOND, SECOND


@dataclass
class FrontEndMetrics:
    """One front-end's request accounting (all counts, zero churn)."""

    name: str
    #: Served requests per kind: timestamp, lease, timeout.
    served: list[int] = field(default_factory=lambda: [0, 0, 0])
    #: Admission-queue overflow drops per kind.
    shed: list[int] = field(default_factory=lambda: [0, 0, 0])
    #: Deadline-exceeded queue drops per kind.
    expired: list[int] = field(default_factory=lambda: [0, 0, 0])
    #: Requests answered "unavailable" (no quorum anchor) per kind.
    refused: list[int] = field(default_factory=lambda: [0, 0, 0])
    #: Served requests whose anchor came from a degraded-mode sync (a
    #: subset of ``served``): answered, but flagged lower-confidence.
    degraded: list[int] = field(default_factory=lambda: [0, 0, 0])
    #: Served requests per absolute timestamp error: ``{error_ns: count}``.
    error_histogram: dict[int, int] = field(default_factory=dict)
    #: Drained requests per queueing delay: ``{wait_ns: count}``.
    wait_histogram: dict[int, int] = field(default_factory=dict)
    #: Lease-kind requests served while the error exceeded the guard band.
    lease_violations: int = 0
    #: Extremes of the signed client-visible error.
    min_error_ns: int = 0
    max_error_ns: int = 0

    @property
    def served_total(self) -> int:
        return sum(self.served)

    @property
    def arrived_total(self) -> int:
        return sum(self.served) + sum(self.shed) + sum(self.expired) + sum(self.refused)

    def record_shed(self, kinds: tuple[int, int, int]) -> None:
        for index in range(3):
            self.shed[index] += kinds[index]

    def record_expired(self, kinds: tuple[int, int, int]) -> None:
        for index in range(3):
            self.expired[index] += kinds[index]

    def record_refused(self, kinds: tuple[int, int, int]) -> None:
        for index in range(3):
            self.refused[index] += kinds[index]

    def error_percentile_ns(self, q: float) -> int:
        return _percentile(self.error_histogram, q)


def _percentile(histogram: dict[int, int], q: float) -> int:
    return int(weighted_percentile(histogram.items(), q)) if histogram else 0


def _merge(histograms: list[dict[int, int]]) -> dict[int, int]:
    merged: dict[int, int] = {}
    for histogram in histograms:
        for value, count in histogram.items():
            merged[value] = merged.get(value, 0) + count
    return merged


def _rate(part: int, whole: int) -> float:
    return round(part / whole, 6) if whole else 0.0


@dataclass
class ServiceReport:
    """Aggregated client-visible outcome of one service run."""

    name: str
    duration_s: float
    sessions: int
    arrival: str
    quorum: int
    requests: int
    served: int
    shed: int
    expired: int
    refused: int
    #: Per-kind served counts: timestamp, lease, timeout.
    served_by_kind: tuple[int, int, int]
    lease_requests: int
    lease_violations: int
    #: Client-visible absolute timestamp error percentiles (ns).
    error_p50_ns: int
    error_p99_ns: int
    error_p999_ns: int
    max_abs_error_ns: int
    #: Queueing delay percentiles (ns).
    wait_p50_ns: int
    wait_p99_ns: int
    requests_per_sim_s: float
    quorum_stats: dict[str, Any]
    #: Per-front-end rows: name -> summary dict.
    frontends: dict[str, dict[str, Any]]
    #: Served requests answered off a degraded-mode anchor (subset of
    #: ``served``): the service stayed up through a fault, with the lower
    #: confidence made explicit instead of silently refusing.
    degraded: int = 0

    @property
    def availability(self) -> float:
        """Fraction of arrived requests that were served a timestamp."""
        return _rate(self.served, self.requests)

    @property
    def degraded_rate(self) -> float:
        """Fraction of served requests that were degraded-mode answers."""
        return _rate(self.degraded, self.served)

    @property
    def shed_rate(self) -> float:
        return _rate(self.shed, self.requests)

    @property
    def timeout_rate(self) -> float:
        return _rate(self.expired, self.requests)

    @property
    def lease_violation_rate(self) -> float:
        return _rate(self.lease_violations, self.lease_requests)

    def to_dict(self) -> dict[str, Any]:
        """JSON-able report; deterministic for a pinned seed."""
        return {
            "name": self.name,
            "duration_s": self.duration_s,
            "sessions": self.sessions,
            "arrival": self.arrival,
            "quorum": self.quorum,
            "requests": self.requests,
            "served": self.served,
            "shed": self.shed,
            "expired": self.expired,
            "refused": self.refused,
            "degraded": self.degraded,
            "degraded_rate": self.degraded_rate,
            "served_by_kind": list(self.served_by_kind),
            "availability": self.availability,
            "shed_rate": self.shed_rate,
            "timeout_rate": self.timeout_rate,
            "lease_requests": self.lease_requests,
            "lease_violations": self.lease_violations,
            "lease_violation_rate": self.lease_violation_rate,
            "error_p50_ns": self.error_p50_ns,
            "error_p99_ns": self.error_p99_ns,
            "error_p999_ns": self.error_p999_ns,
            "max_abs_error_ns": self.max_abs_error_ns,
            "wait_p50_ns": self.wait_p50_ns,
            "wait_p99_ns": self.wait_p99_ns,
            "requests_per_sim_s": self.requests_per_sim_s,
            "quorum_stats": _sorted_dict(self.quorum_stats),
            "frontends": {
                name: _sorted_dict(row) for name, row in sorted(self.frontends.items())
            },
        }

    def render(self) -> str:
        """Human-readable summary tables."""
        def ms(value_ns: int) -> str:
            return f"{value_ns / MILLISECOND:.3f}"

        summary_rows = [
            ["sessions", f"{self.sessions}"],
            ["arrival", self.arrival],
            ["quorum", f"{self.quorum}"],
            ["requests", f"{self.requests}"],
            ["served", f"{self.served}"],
            ["availability", f"{self.availability:.4f}"],
            ["degraded rate", f"{self.degraded_rate:.4f}"],
            ["shed rate", f"{self.shed_rate:.4f}"],
            ["timeout rate", f"{self.timeout_rate:.4f}"],
            ["lease violation rate", f"{self.lease_violation_rate:.4f}"],
            ["error p50 (ms)", ms(self.error_p50_ns)],
            ["error p99 (ms)", ms(self.error_p99_ns)],
            ["error p99.9 (ms)", ms(self.error_p999_ns)],
            ["max |error| (ms)", ms(self.max_abs_error_ns)],
            ["wait p50 (ms)", ms(self.wait_p50_ns)],
            ["wait p99 (ms)", ms(self.wait_p99_ns)],
            ["requests/sim-s", f"{self.requests_per_sim_s:.1f}"],
            ["quorum syncs", f"{self.quorum_stats.get('syncs', 0)}"],
            ["quorum sync failures", f"{self.quorum_stats.get('sync_failures', 0)}"],
            ["quorum mean votes", f"{self.quorum_stats.get('mean_votes', 0.0):.2f}"],
        ]
        blocks = [
            format_table(
                ["metric", "value"], summary_rows, title=f"service: {self.name}"
            )
        ]
        frontend_rows = [
            [
                name,
                f"{row['requests']}",
                f"{row['served']}",
                f"{row['shed']}",
                f"{row['expired']}",
                f"{row['refused']}",
                ms(row["error_p99_ns"]),
                f"{row['lease_violations']}",
            ]
            for name, row in sorted(self.frontends.items())
        ]
        blocks.append(
            format_table(
                [
                    "front-end",
                    "requests",
                    "served",
                    "shed",
                    "expired",
                    "refused",
                    "err p99 ms",
                    "lease viol",
                ],
                frontend_rows,
                title="per-front-end",
            )
        )
        return "\n\n".join(blocks)


def _sorted_dict(raw: dict[str, Any]) -> dict[str, Any]:
    return {key: raw[key] for key in sorted(raw)}


def build_report(
    name: str,
    duration_ns: int,
    sessions: int,
    arrival: str,
    quorum: int,
    frontends: list[FrontEndMetrics],
    quorum_stats: dict[str, Any],
) -> ServiceReport:
    """Fold per-front-end metrics into one :class:`ServiceReport`."""
    if duration_ns <= 0:
        raise ConfigurationError("cannot report on a service that never ran")
    served_by_kind = [0, 0, 0]
    served = shed = expired = refused = lease_requests = lease_violations = 0
    degraded = 0
    max_abs_error = 0
    frontend_rows: dict[str, dict[str, Any]] = {}
    for metrics in frontends:
        for index in range(3):
            served_by_kind[index] += metrics.served[index]
        served += metrics.served_total
        shed += sum(metrics.shed)
        expired += sum(metrics.expired)
        refused += sum(metrics.refused)
        degraded += sum(metrics.degraded)
        lease_requests += metrics.served[1] + metrics.shed[1] + metrics.expired[1]
        lease_violations += metrics.lease_violations
        extreme = max(abs(metrics.min_error_ns), abs(metrics.max_error_ns))
        max_abs_error = max(max_abs_error, extreme)
        frontend_rows[metrics.name] = {
            "requests": metrics.arrived_total,
            "served": metrics.served_total,
            "shed": sum(metrics.shed),
            "expired": sum(metrics.expired),
            "refused": sum(metrics.refused),
            "degraded": sum(metrics.degraded),
            "error_p50_ns": metrics.error_percentile_ns(0.50),
            "error_p99_ns": metrics.error_percentile_ns(0.99),
            "lease_violations": metrics.lease_violations,
        }
    requests = served + shed + expired + refused
    errors = _merge([metrics.error_histogram for metrics in frontends])
    waits = _merge([metrics.wait_histogram for metrics in frontends])

    return ServiceReport(
        name=name,
        duration_s=round(duration_ns / SECOND, 6),
        sessions=sessions,
        arrival=arrival,
        quorum=quorum,
        requests=requests,
        served=served,
        shed=shed,
        expired=expired,
        refused=refused,
        served_by_kind=(served_by_kind[0], served_by_kind[1], served_by_kind[2]),
        lease_requests=lease_requests,
        lease_violations=lease_violations,
        error_p50_ns=_percentile(errors, 0.50),
        error_p99_ns=_percentile(errors, 0.99),
        error_p999_ns=_percentile(errors, 0.999),
        max_abs_error_ns=max_abs_error,
        wait_p50_ns=_percentile(waits, 0.50),
        wait_p99_ns=_percentile(waits, 0.99),
        requests_per_sim_s=round(requests * SECOND / duration_ns, 3),
        quorum_stats=quorum_stats,
        frontends=frontend_rows,
        degraded=degraded,
    )
