"""Validated configuration of the membership control plane.

:class:`MembershipConfig` is the ``"membership"`` block of an experiment
spec (see :mod:`repro.experiments.spec`): plain JSON-able scalars
describing the epoch cadence, evidence sampling rate, and the hysteresis
ladder that turns per-epoch divergence scores into verdicts. Validation
errors name the offending key (``membership.epoch_s: ...``) so a typo in
a spec fails loudly before any worker runs.

The two thresholds split divergence into three zones: above
``suspect_threshold_ms`` an epoch is *dirty*, below
``clear_threshold_ms`` it is *clean*, and the band in between is neutral
— it neither advances a node toward quarantine nor clears it, which is
what keeps borderline jitter from flapping verdicts.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any

from repro.attacks.scheduler import finite
from repro.errors import ConfigurationError
from repro.sim.units import MILLISECOND, SECOND


@dataclass(frozen=True)
class MembershipConfig:
    """Parameters of one membership engine deployment."""

    #: Epoch length: verdicts update and (in enforce mode) the epoch key
    #: rotates once per epoch. Must be a whole multiple of the probe
    #: interval so every epoch aggregates the same number of samples.
    epoch_s: float = 1.0
    #: Evidence sampling cadence: how often the collector polls every
    #: present node's served timestamp and scores it against the member
    #: median.
    probe_interval_ms: float = 250.0
    #: Peak within-epoch divergence above which the epoch is *dirty*.
    #: Benign triad-like clusters diverge sub-millisecond; an F−-poisoned
    #: clock racing 100 ms/s crosses 25 ms within its first dirty epoch.
    suspect_threshold_ms: float = 25.0
    #: Peak within-epoch divergence below which the epoch is *clean*.
    clear_threshold_ms: float = 10.0
    #: Consecutive dirty epochs before a suspect is quarantined.
    quarantine_after: int = 2
    #: Consecutive clean epochs a quarantined node needs to re-enter on
    #: probation (possible because its Time Authority link never rotates:
    #: a falsely quarantined node can re-anchor and prove itself).
    probation_after: int = 2
    #: Consecutive clean epochs on probation before full readmission.
    readmit_after: int = 2
    #: Epochs spent quarantined (without reaching probation) before the
    #: node is evicted for good.
    evict_after: int = 6
    #: Probation credit: make the eviction clock adaptive — a *dirty*
    #: quarantined epoch ages the node toward eviction, a *clean* epoch
    #: refunds one epoch (the clock repaired), and a *dark* epoch — the
    #: node served nothing at all (crashed, cold-recalibrating, tainted)
    #: — pauses it. Epochs where the node answered but the sample could
    #: not be scored (too few member observers) run on *evidence
    #: momentum*: the node's last scored epoch decides whether the clock
    #: ticks, which preserves eviction of a cut-off attacker in a 3-node
    #: cluster (quarantine itself starves the median there) without aging
    #: a repairer whose last evidence was clean. A node repairing itself
    #: (TA re-anchor
    #: after adopting poisoned timestamps, or a crash-restart cold
    #: recalibration) races ``evict_after`` from the moment it is
    #: quarantined; with a wall-epoch clock the deadline expires while the
    #: node is still mid-repair and it is evicted *after* it has already
    #: fixed its clock (the 5-node false-eviction race in
    #: docs/membership.md). A real attacker serves dirty evidence every
    #: epoch, so its path to eviction is unchanged.
    probation_credit: bool = True
    #: Minimum member readings a sample needs before divergence is scored
    #: — a median of two is just a midpoint and convicts nobody.
    min_observers: int = 3
    #: Label folded into the per-epoch group secret derivation.
    key_label: str = "cluster"

    def __post_init__(self) -> None:
        for f in fields(self):
            self._require(finite(getattr(self, f.name)), f.name, "must be a finite number")
        self._require(self.epoch_s > 0, "epoch_s", "must be positive")
        self._require(
            self.probe_interval_ms > 0, "probe_interval_ms", "must be positive"
        )
        self._require(
            self.epoch_ns % self.probe_interval_ns == 0,
            "epoch_s",
            f"must be a whole multiple of probe_interval_ms "
            f"(epoch {self.epoch_ns} ns, interval {self.probe_interval_ns} ns)",
        )
        self._require(
            self.clear_threshold_ms > 0, "clear_threshold_ms", "must be positive"
        )
        self._require(
            self.suspect_threshold_ms > self.clear_threshold_ms,
            "suspect_threshold_ms",
            "must exceed clear_threshold_ms (the gap is the hysteresis band)",
        )
        self._require(self.quarantine_after >= 1, "quarantine_after", "must be >= 1")
        self._require(self.probation_after >= 1, "probation_after", "must be >= 1")
        self._require(self.readmit_after >= 1, "readmit_after", "must be >= 1")
        self._require(
            self.evict_after > self.probation_after,
            "evict_after",
            "must exceed probation_after (or probation is unreachable)",
        )
        self._require(self.min_observers >= 2, "min_observers", "must be >= 2")
        self._require(bool(self.key_label), "key_label", "must be non-empty")

    @staticmethod
    def _require(condition: bool, key: str, message: str) -> None:
        if not condition:
            raise ConfigurationError(f"membership.{key}: {message}")

    # -- derived quantities (integer nanoseconds for the kernel) ----------------

    @property
    def epoch_ns(self) -> int:
        return max(int(self.epoch_s * SECOND), 1)

    @property
    def probe_interval_ns(self) -> int:
        return max(int(self.probe_interval_ms * MILLISECOND), 1)

    @property
    def samples_per_epoch(self) -> int:
        return self.epoch_ns // self.probe_interval_ns

    @property
    def suspect_threshold_ns(self) -> int:
        return int(self.suspect_threshold_ms * MILLISECOND)

    @property
    def clear_threshold_ns(self) -> int:
        return int(self.clear_threshold_ms * MILLISECOND)

    # -- serialization ----------------------------------------------------------

    @classmethod
    def from_dict(cls, raw: dict[str, Any]) -> "MembershipConfig":
        if not isinstance(raw, dict):
            raise ConfigurationError(
                f"membership: block must be an object, got {type(raw).__name__}"
            )
        known = {f.name for f in fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ConfigurationError(f"membership: unknown keys {sorted(unknown)}")
        return cls(**raw)

    def to_dict(self) -> dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in fields(self)}
