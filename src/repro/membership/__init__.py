"""Epoch-based membership and quarantine control plane.

The attacks this repository reproduces all exploit one asymmetry: a
single compromised clock can drag an entire honest cluster out of bound
(the F− propagation cascade), because the base protocol trusts every
peer equally forever. This package adds the missing control plane:

* :mod:`repro.membership.evidence` — peer-estimate divergence scores
  from what members actually serve, against the member median, with no
  access to simulator ground truth;
* :mod:`repro.membership.engine` — an epoch process that turns scores
  into hysteresis-gated verdicts (active → suspect → quarantined →
  evicted, with a probation path back) and, in enforce mode, rotates a
  per-epoch group secret so non-members are cryptographically cut off
  (:func:`repro.net.crypto.derive_epoch_secret`);
* :mod:`repro.membership.config` — the validated ``membership`` spec
  block.

Which runs get a controller is decided by the one scoped plane policy in
:mod:`repro.oracle.policy` (``--membership`` on the CLI, the
``membership`` task override in the fleet), shared with the oracle. A
spec's ``membership`` block is an inner plane scope that wins over it, so
:meth:`~repro.oracle.policy.PlaneScope.attach` is the one place an engine
is built and a cluster never runs more than one.

Cluster churn (join/leave/rejoin) is the companion scenario axis, wired
in :class:`repro.core.cluster.TriadCluster`; the headline experiment —
does quarantine contain the F− attacker before a majority of honest
nodes is dragged out of bound, and at what false-eviction cost — is
pinned in ``tests/membership/`` and documented in ``docs/membership.md``.
"""

from repro.membership.config import MembershipConfig
from repro.membership.engine import CONTROLLER_MODES, MembershipController, render_report
from repro.membership.evidence import EpochEvidence, EvidenceCollector, member_median
from repro.membership.verdicts import MembershipEvent, MembershipVerdict

__all__ = [
    "CONTROLLER_MODES",
    "EpochEvidence",
    "EvidenceCollector",
    "MembershipConfig",
    "MembershipController",
    "MembershipEvent",
    "MembershipVerdict",
    "member_median",
    "render_report",
]
