"""The membership engine: epochs, verdicts, and epoch-key rotation.

A :class:`MembershipController` is a control-plane process running *on*
the simulation kernel (it spends simulated time sampling and deciding,
like a real controller would) but judging only from the evidence a real
deployment has: the timestamps members serve, scored against the member
median (:mod:`repro.membership.evidence`). Once per epoch it:

1. closes the evidence book and walks every node through the hysteresis
   ladder — active → suspect → quarantined → evicted, with a probation
   path back (see :class:`~repro.membership.verdicts.MembershipVerdict`);
2. synchronizes with cluster churn (departed nodes become ``absent``,
   rejoining nodes enter on ``probation``);
3. in ``enforce`` mode, rotates the cluster's epoch secret: every member
   endpoint folds the new secret into its node-link keys
   (:meth:`~repro.net.crypto.SecureChannelKey.rekey`), so a node the
   secret is withheld from fails authentication in both directions — the
   cryptographic cut that makes quarantine more than a label. The Time
   Authority links never rotate: the TA is the trust root, which both
   lets a falsely quarantined node prove itself clean again and leaves a
   compromised node anchored to the poisoned calibration that convicts it.

Quarantining (or evicting) a node also downgrades its invariant
violations to *expected*: the controller allows them on its cluster's
oracle (:meth:`~repro.oracle.oracle.InvariantOracle.allow`) at the
verdict flip. Once the control plane has cut a node off, its
out-of-bound clock is the experiment working, not an oracle finding.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.core.probes import ProbeEvent
from repro.errors import ConfigurationError
from repro.membership.config import MembershipConfig
from repro.membership.evidence import EpochEvidence, EvidenceCollector
from repro.membership.verdicts import MembershipEvent, MembershipVerdict

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.cluster import TriadCluster

#: Modes a *constructed* controller can run in ("off" means no controller).
CONTROLLER_MODES = ("observe", "enforce")

#: Invariants downgraded to expected once a node is quarantined/evicted.
_DOWNGRADED_INVARIANTS = (
    "drift-bound",
    "state-soundness",
    "untaint-safety",
    "freshness",
)


class MembershipController:
    """Epoch-based membership engine attached to one cluster."""

    def __init__(
        self,
        cluster: "TriadCluster",
        config: Optional[MembershipConfig] = None,
        mode: str = "observe",
    ) -> None:
        if mode not in CONTROLLER_MODES:
            raise ConfigurationError(
                f"unknown membership mode {mode!r}; choose from {CONTROLLER_MODES}"
            )
        self.cluster = cluster
        self.sim = cluster.sim
        self.config = config or MembershipConfig()
        self.mode = mode
        #: Current epoch number; 0 until the first epoch closes. In
        #: enforce mode this is also the key epoch members hold.
        self.epoch = 0
        self.epochs_closed = 0
        self.rotations = 0
        self.events: list[MembershipEvent] = []
        self.epoch_history: list[EpochEvidence] = []
        self._collector = EvidenceCollector(self.config.min_observers)
        self._nodes_by_name = {node.name: node for node in cluster.nodes}
        present = set(cluster.present_names)
        self._verdicts: dict[str, MembershipVerdict] = {
            node.name: (
                MembershipVerdict.ACTIVE
                if node.name in present
                else MembershipVerdict.ABSENT
            )
            for node in cluster.nodes
        }
        self._dirty_streak = {name: 0 for name in self._verdicts}
        self._clean_streak = {name: 0 for name in self._verdicts}
        self._quarantine_age = {name: 0 for name in self._verdicts}
        #: Whether the node's most recent *scored* epoch was dirty — the
        #: evidence-momentum bit the adaptive eviction clock presumes when
        #: a quarantined node answers samples the collector cannot score.
        self._last_dirty = {name: False for name in self._verdicts}
        self.process = self.sim.process(self._run(), name="membership/engine")

    def verdict(self, name: str) -> MembershipVerdict:
        """Current verdict for a node name."""
        if name not in self._verdicts:
            raise ConfigurationError(f"membership engine knows no node {name!r}")
        return self._verdicts[name]

    # -- engine loop ------------------------------------------------------------

    def _run(self):
        interval = self.config.probe_interval_ns
        samples_per_epoch = self.config.samples_per_epoch
        while True:
            for _ in range(samples_per_epoch):
                yield self.sim.timeout(interval)
                self._sample()
            self._close_epoch()

    def _sample(self) -> None:
        present = set(self.cluster.present_names)
        readings: dict[str, int] = {}
        members: set[str] = set()
        for node in self.cluster.nodes:
            verdict = self._verdicts[node.name]
            if node.name not in present or not verdict.scored:
                continue
            value = node.try_get_timestamp()
            if value is None:
                continue  # tainted/calibrating: no reading this sample
            readings[node.name] = value
            if verdict.votes:
                members.add(node.name)
        self._collector.observe(readings, members)

    def _close_epoch(self) -> None:
        self.epoch += 1
        evidence = self._collector.close_epoch(self.epoch)
        self.epoch_history.append(evidence)
        present = set(self.cluster.present_names)
        self._sync_churn(present)
        for node in self.cluster.nodes:
            self._transition(
                node.name,
                evidence.scores_ns.get(node.name),
                responded=node.name in evidence.responders,
            )
        self.epochs_closed += 1
        if self.mode == "enforce":
            self._rotate_epoch_key(present)

    def _sync_churn(self, present: set[str]) -> None:
        """Reconcile verdicts with cluster presence (leave/join/rejoin)."""
        for node in self.cluster.nodes:
            name = node.name
            verdict = self._verdicts[name]
            if name not in present:
                if verdict not in (MembershipVerdict.ABSENT, MembershipVerdict.EVICTED):
                    self._flip(name, MembershipVerdict.ABSENT, None)
                    self._reset_streaks(name)
            elif verdict is MembershipVerdict.ABSENT:
                # Arrivals start on probation: a joiner has no clean
                # history, and a rejoiner's clock free-ran while away.
                self._flip(name, MembershipVerdict.PROBATION, None)
                self._reset_streaks(name)

    # -- verdict ladder ----------------------------------------------------------

    def _transition(
        self, name: str, score_ns: Optional[int], responded: bool = False
    ) -> None:
        verdict = self._verdicts[name]
        if verdict in (MembershipVerdict.ABSENT, MembershipVerdict.EVICTED):
            return
        cfg = self.config
        # The band between the thresholds is neutral: it neither advances
        # a node toward quarantine nor counts as exculpatory. No evidence
        # at all (node never served this epoch) is neutral too.
        clean = score_ns is not None and score_ns <= cfg.clear_threshold_ns
        dirty = score_ns is not None and score_ns > cfg.suspect_threshold_ns
        if dirty:
            self._last_dirty[name] = True
        elif clean:
            self._last_dirty[name] = False

        if verdict is MembershipVerdict.ACTIVE:
            if dirty:
                self._dirty_streak[name] = 1
                if cfg.quarantine_after <= 1:
                    self._quarantine(name, score_ns)
                else:
                    self._flip(name, MembershipVerdict.SUSPECT, score_ns)
        elif verdict is MembershipVerdict.SUSPECT:
            if dirty:
                self._dirty_streak[name] += 1
                if self._dirty_streak[name] >= cfg.quarantine_after:
                    self._quarantine(name, score_ns)
            elif clean:
                self._dirty_streak[name] = 0
                self._flip(name, MembershipVerdict.ACTIVE, score_ns)
        elif verdict is MembershipVerdict.QUARANTINED:
            if cfg.probation_credit:
                # Adaptive eviction clock. A dirty epoch ages the node; a
                # clean epoch refunds one (the clock repaired). Neutral
                # epochs split on *why* there is no score: a dark node —
                # crashed, cold-recalibrating, tainted — served nothing
                # and convicts nobody, so the clock pauses; a node that
                # answered samples the collector had to skip (observer-
                # starved cluster) is judged on evidence momentum — its
                # last scored epoch. That keeps a cut-off attacker racing
                # the deadline in a 3-node cluster (quarantine itself
                # starves the median there) without aging a repairer whose
                # last evidence was clean.
                momentum = score_ns is None and responded and self._last_dirty[name]
                if dirty or momentum:
                    self._quarantine_age[name] += 1
                elif clean:
                    self._quarantine_age[name] = max(self._quarantine_age[name] - 1, 0)
            else:
                self._quarantine_age[name] += 1
            if clean:
                self._clean_streak[name] += 1
                if self._clean_streak[name] >= cfg.probation_after:
                    self._clean_streak[name] = 0
                    self._flip(name, MembershipVerdict.PROBATION, score_ns)
                    return
            else:
                self._clean_streak[name] = 0
            if self._quarantine_age[name] >= cfg.evict_after:
                self._flip(name, MembershipVerdict.EVICTED, score_ns)
        elif verdict is MembershipVerdict.PROBATION:
            if dirty:
                self._quarantine(name, score_ns)
            elif clean:
                self._clean_streak[name] += 1
                if self._clean_streak[name] >= cfg.readmit_after:
                    self._reset_streaks(name)
                    self._flip(name, MembershipVerdict.ACTIVE, score_ns)
            else:
                self._clean_streak[name] = 0

    def _quarantine(self, name: str, score_ns: Optional[int]) -> None:
        self._quarantine_age[name] = 0
        self._clean_streak[name] = 0
        self._flip(name, MembershipVerdict.QUARANTINED, score_ns)

    def _reset_streaks(self, name: str) -> None:
        self._dirty_streak[name] = 0
        self._clean_streak[name] = 0
        self._quarantine_age[name] = 0
        self._last_dirty[name] = False

    def _flip(
        self, name: str, verdict: MembershipVerdict, score_ns: Optional[int]
    ) -> None:
        previous = self._verdicts[name]
        self._verdicts[name] = verdict
        self.events.append(
            MembershipEvent(
                time_ns=self.sim.now,
                epoch=self.epoch,
                node=name,
                previous=previous,
                verdict=verdict,
                score_ns=score_ns,
            )
        )
        node = self._nodes_by_name[name]
        if node.probes.active:
            node.probes.emit(
                ProbeEvent(
                    self.sim.now,
                    name,
                    "membership",
                    {"verdict": verdict.value, "previous": previous.value},
                )
            )
        oracle = self.cluster.oracle
        cut_off = verdict in (MembershipVerdict.QUARANTINED, MembershipVerdict.EVICTED)
        if cut_off and oracle is not None:
            oracle.allow((name, inv) for inv in _DOWNGRADED_INVARIANTS)

    # -- enforcement: epoch-key rotation ------------------------------------------

    def _rotate_epoch_key(self, present: set[str]) -> None:
        """Hand the fresh epoch secret to every member endpoint.

        Members re-key *all* their node links (including links toward
        cut-off nodes), so member↔member traffic interoperates while
        traffic to or from a non-member fails the AEAD tag check in both
        directions. TA links are left alone. Datagrams in flight across
        the rotation instant are lost — the modeled rotation cost.
        """
        from repro.net.crypto import derive_epoch_secret

        secret = derive_epoch_secret(self.epoch, self.config.key_label)
        for node in self.cluster.nodes:
            if node.name not in present or not self._verdicts[node.name].member:
                continue
            for peer in node.peer_names:
                node.endpoint.rekey_peer(peer, secret, self.epoch)
        self.rotations += 1

    # -- reporting -----------------------------------------------------------------

    def report(self) -> dict:
        """Deterministic, JSON-able summary (ints and strings only)."""
        verdict_counts: dict[str, int] = {}
        for verdict in self._verdicts.values():
            verdict_counts[verdict.value] = verdict_counts.get(verdict.value, 0) + 1
        return {
            "mode": self.mode,
            "epoch": self.epoch,
            "epochs_closed": self.epochs_closed,
            "rotations": self.rotations,
            "verdicts": {
                name: self._verdicts[name].value for name in sorted(self._verdicts)
            },
            "verdict_counts": dict(sorted(verdict_counts.items())),
            "peak_divergence_ns": {
                name: self._collector.peak_ns[name]
                for name in sorted(self._collector.peak_ns)
            },
            "events": [event.to_dict() for event in self.events],
            "churn": [
                {"time_ns": time_ns, "node": node, "action": action}
                for time_ns, node, action in self.cluster.churn_events
            ],
        }


def render_report(report: dict) -> str:
    """Human-readable summary of a :meth:`MembershipController.report`."""
    lines = [
        f"membership: mode={report['mode']} epochs={report['epochs_closed']} "
        f"rotations={report['rotations']}"
    ]
    counts = report.get("verdict_counts", {})
    if counts:
        lines.append(
            "  verdicts: " + ", ".join(f"{k}={v}" for k, v in counts.items())
        )
    churn = report.get("churn", [])
    if churn:
        lines.append(f"  churn events: {len(churn)}")
    events = report.get("events", [])
    if not events:
        lines.append("  no verdict changes")
    for event in events[:20]:
        score = event.get("score_ns")
        score_text = f" score={score / 1e6:.1f}ms" if score is not None else ""
        lines.append(
            f"  t={event['time_ns'] / 1e9:8.3f}s epoch={event['epoch']:>3} "
            f"{event['node']:>8} {event['previous']} -> {event['verdict']}{score_text}"
        )
    if len(events) > 20:
        lines.append(f"  … {len(events) - 20} more")
    return "\n".join(lines)
