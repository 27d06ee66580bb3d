"""Validated configuration of the trusted-time service layer.

:class:`ServiceConfig` is the ``"service"`` block of an experiment spec
(see :mod:`repro.experiments.spec`): plain JSON-able scalars describing
the client population, arrival model, quorum fan-out, and the front-end
admission policy. Validation errors name the offending key
(``service.sessions: ...``) so a typo in a spec fails loudly before any
worker runs.

The scale knob is ``sessions``. In the open-loop model the aggregate
request rate defaults to ``sessions * per_session_rps`` (every session
fires independently at a small rate); in the closed-loop model each
session cycles think → request → response, so the offered load emerges
from ``sessions / think_ms`` and the service's own response time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Any, Optional

from repro.attacks.scheduler import finite
from repro.errors import ConfigurationError
from repro.sim.units import MILLISECOND, MICROSECOND, SECOND

#: Recognized arrival models.
ARRIVAL_MODELS = ("open", "closed")

#: Request kinds the workload issues (the paper's three consumer apps).
REQUEST_KINDS = ("timestamp", "lease", "timeout")

#: Largest population numpy's binomial takes: counts are C longs (int64).
MAX_COUNT = 2**63 - 1
#: Largest mean numpy's Poisson sampler accepts (``MAX_COUNT`` less ten
#: standard deviations); a larger per-tick mean raises in the run.
MAX_POISSON_MEAN = MAX_COUNT - 10 * math.sqrt(MAX_COUNT)


@dataclass
class ServiceConfig:
    """Parameters of one simulated service deployment."""

    #: Client sessions driving the service (the population size).
    sessions: int
    #: "open" (Poisson arrivals, rate independent of responses) or
    #: "closed" (each session waits for its response, then thinks).
    arrival: str = "open"
    #: Open loop: mean requests/second *per session*; the aggregate rate
    #: is ``sessions * per_session_rps`` unless ``rate_rps`` overrides it.
    per_session_rps: float = 0.05
    #: Open loop: explicit aggregate request rate (overrides the product).
    rate_rps: Optional[float] = None
    #: Closed loop: mean per-session think time between requests.
    think_ms: float = 20_000.0
    #: Nodes each quorum client fans a sync out to (1 = single-node client).
    quorum: int = 3
    #: How long a quorum anchor may serve ``now()`` before a re-sync.
    anchor_staleness_ms: float = 1000.0
    #: Batch interval of the front-end admission loop.
    tick_ms: float = 10.0
    #: Admission-queue capacity per front-end; overflow is shed.
    queue_capacity: int = 20_000
    #: Drain capacity per front-end, requests/second.
    service_rate_rps: float = 100_000.0
    #: Queued requests older than this are dropped as timed out.
    deadline_ms: float = 250.0
    #: A lease-kind request violates its SLO when the client-visible
    #: timestamp error exceeds this guard band (mutual exclusion at risk).
    lease_guard_ms: float = 10.0
    #: Fraction of requests that are lease acquisitions.
    lease_fraction: float = 0.1
    #: Fraction of requests that arm application timeouts.
    timeout_fraction: float = 0.1
    #: Warm-up before the workload starts (initial FullCalib completes).
    start_s: float = 5.0
    #: Base half-width added to every source confidence interval, on top
    #: of the sampled RTT/2. Headroom for server-side timestamping slack
    #: and the honest inter-node dispersion Triad's short-exchange
    #: calibration leaves behind (tens to ~200 ppm). Attack drift is
    #: 1000× larger, so the widening does not weaken quorum containment.
    rtt_margin_us: float = 250.0
    #: Degraded-mode sync: when *fewer sources than the configured
    #: fan-out* respond (dark nodes — crashed, tainted, partitioned), a
    #: majority of the responders is accepted instead of refusing, with
    #: every contributing interval widened by this factor (>= 1) so the
    #: lower confidence is explicit. Disagreement among a *full* quorum is
    #: still refused — degradation never masks an outvoted attacker.
    #: 0 disables (legacy refuse-on-minority behaviour).
    degraded_margin_factor: float = 0.0
    #: Per-source circuit breaker: consecutive unavailable polls before
    #: the source is skipped from fan-outs. 0 disables.
    breaker_threshold: int = 0
    #: How long an open breaker skips its source before the half-open
    #: retry probes it again.
    breaker_cooldown_ms: float = 2000.0

    def __post_init__(self) -> None:
        for f in fields(self):
            self._require(finite(getattr(self, f.name)), f.name, "must be a finite number")
        self._require(self.sessions >= 1, "sessions", "need at least one session")
        self._require(
            self.sessions <= MAX_COUNT,
            "sessions",
            f"must be at most 2**63 - 1 = {MAX_COUNT}, the largest count numpy draws",
        )
        self._require(
            self.arrival in ARRIVAL_MODELS,
            "arrival",
            f"unknown model {self.arrival!r}; choose from {ARRIVAL_MODELS}",
        )
        self._require(
            self.per_session_rps > 0, "per_session_rps", "must be positive"
        )
        if self.rate_rps is not None:
            self._require(self.rate_rps > 0, "rate_rps", "must be positive")
        self._require(self.think_ms > 0, "think_ms", "must be positive")
        self._require(self.quorum >= 1, "quorum", "need at least one source")
        self._require(
            self.anchor_staleness_ms > 0, "anchor_staleness_ms", "must be positive"
        )
        self._require(self.tick_ms > 0, "tick_ms", "must be positive")
        if self.arrival == "open":
            mean = self.aggregate_rate_rps * self.tick_ns / SECOND
            self._require(
                mean <= MAX_POISSON_MEAN,
                "rate_rps" if self.rate_rps is not None else "per_session_rps",
                f"{mean:.3g} arrivals per tick exceed numpy's Poisson limit "
                f"of {MAX_POISSON_MEAN:.3g}",
            )
        self._require(self.queue_capacity >= 1, "queue_capacity", "must be positive")
        self._require(self.service_rate_rps > 0, "service_rate_rps", "must be positive")
        self._require(self.deadline_ms > 0, "deadline_ms", "must be positive")
        self._require(self.lease_guard_ms > 0, "lease_guard_ms", "must be positive")
        self._require(
            0 <= self.lease_fraction <= 1, "lease_fraction", "must be within [0, 1]"
        )
        self._require(
            0 <= self.timeout_fraction <= 1, "timeout_fraction", "must be within [0, 1]"
        )
        self._require(
            self.lease_fraction + self.timeout_fraction <= 1,
            "lease_fraction",
            "lease_fraction + timeout_fraction must not exceed 1",
        )
        self._require(self.start_s >= 0, "start_s", "must be non-negative")
        self._require(self.rtt_margin_us >= 0, "rtt_margin_us", "must be non-negative")
        self._require(
            self.degraded_margin_factor == 0 or self.degraded_margin_factor >= 1,
            "degraded_margin_factor",
            "must be 0 (disabled) or >= 1",
        )
        self._require(
            self.breaker_threshold >= 0, "breaker_threshold", "must be non-negative"
        )
        self._require(
            self.breaker_cooldown_ms > 0, "breaker_cooldown_ms", "must be positive"
        )

    @staticmethod
    def _require(condition: bool, key: str, message: str) -> None:
        if not condition:
            raise ConfigurationError(f"service.{key}: {message}")

    # -- derived quantities (integer nanoseconds for the kernel) ----------------

    @property
    def aggregate_rate_rps(self) -> float:
        """Open-loop offered load across the whole session population."""
        if self.rate_rps is not None:
            return self.rate_rps
        return self.sessions * self.per_session_rps

    @property
    def tick_ns(self) -> int:
        return max(int(self.tick_ms * MILLISECOND), 1)

    @property
    def anchor_staleness_ns(self) -> int:
        return max(int(self.anchor_staleness_ms * MILLISECOND), 1)

    @property
    def deadline_ticks(self) -> int:
        """Queue residency limit in whole ticks (at least one)."""
        return max(int(self.deadline_ms * MILLISECOND) // self.tick_ns, 1)

    @property
    def lease_guard_ns(self) -> int:
        return max(int(self.lease_guard_ms * MILLISECOND), 1)

    @property
    def start_ns(self) -> int:
        return int(self.start_s * SECOND)

    @property
    def rtt_margin_ns(self) -> int:
        return int(self.rtt_margin_us * MICROSECOND)

    @property
    def breaker_cooldown_ns(self) -> int:
        return max(int(self.breaker_cooldown_ms * MILLISECOND), 1)

    # -- serialization ----------------------------------------------------------

    @classmethod
    def from_dict(cls, raw: dict[str, Any]) -> "ServiceConfig":
        if not isinstance(raw, dict):
            raise ConfigurationError(
                f"service: block must be an object, got {type(raw).__name__}"
            )
        known = {f.name for f in fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ConfigurationError(f"service: unknown keys {sorted(unknown)}")
        if "sessions" not in raw:
            raise ConfigurationError("service.sessions: required")
        return cls(**raw)

    def to_dict(self) -> dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

