"""``repro.service`` — trusted time as a service, at production scale.

The paper evaluates Triad through single consumers (a timestamping
client, a lease manager, timeout guards); this subsystem extends that
analysis to a *service*: millions of client sessions issuing
timestamp/lease/timeout requests against the cluster through per-node
front-ends, with admission queues, batching, overload shedding, and a
Marzullo quorum client that fans each sync out to several nodes and
intersects their confidence intervals (the TrustedTime engine design —
O(1) anchored ``now()`` between syncs). The intersection is the one
Marzullo sweep of :mod:`repro.hardened.chimers`, which the hardened
peer-untaint shares; :func:`intersect` is the service's call into it.

What comes out is the metric layer every attack should be judged by:
client-visible p50/p99/p99.9 timestamp error, lease-violation rate,
shed/timeout rates, and requests per simulated second — benign and under
the paper's F+/F−/propagation attacks. See ``docs/service.md``.
"""

from repro.service.config import ARRIVAL_MODELS, REQUEST_KINDS, ServiceConfig
from repro.service.frontend import FrontEnd
from repro.service.marzullo import intersect
from repro.service.metrics import FrontEndMetrics, ServiceReport, build_report
from repro.service.quorum import QuorumClient, QuorumStats
from repro.service.service import TimeService
from repro.service.workload import (
    ClosedLoopArrivals,
    OpenLoopArrivals,
    SessionWorkload,
)

__all__ = [
    "ARRIVAL_MODELS",
    "REQUEST_KINDS",
    "ClosedLoopArrivals",
    "FrontEnd",
    "FrontEndMetrics",
    "OpenLoopArrivals",
    "QuorumClient",
    "QuorumStats",
    "ServiceConfig",
    "ServiceReport",
    "SessionWorkload",
    "TimeService",
    "build_report",
    "intersect",
]
