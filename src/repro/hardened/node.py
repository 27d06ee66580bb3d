"""The hardened Triad node: §V's protocol changes, implemented.

:class:`HardenedTriadNode` extends the base protocol with the three
mitigations the paper proposes after demonstrating the F+/F−/propagation
attacks:

1. **In-TCB deadlines** — a TSC-driven discipline loop polls the TA on a
   schedule the OS cannot suppress (:mod:`repro.hardened.deadlines`),
   bounding how long a miscalibrated clock can free-run.
2. **Mature synchronization** — the discipline loop runs NTP-style
   four-timestamp exchanges, filters out high-delay samples (an on-path
   delay attacker inflates the measured roundtrip and gets discarded), and
   fits frequency over a *long* window instead of Triad's seconds-scale
   regression. Because all discipline exchanges request ``s = 0``, there
   is no sleep-dependent delay for an F± attacker to tilt: a uniform delay
   shifts offsets by a bounded constant but cannot skew frequency.
3. **True-chimer peer filtering** — peer untainting replaces
   "adopt the maximum" with Marzullo interval consistency over peer
   readings (each carrying an honest error bound) plus the local clock.
   Timestamps outside the majority clique — e.g. an F−-infected peer
   racing ahead — are rejected instead of adopted, cutting the paper's
   propagation cascade.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.authority.ntp import DriftEstimator, SyncExchange, poll_interval_ns
from repro.core.node import TriadNode, TriadNodeConfig
from repro.core.states import NodeState
from repro.core.untaint import UntaintOutcome
from repro.errors import ConfigurationError
from repro.hardened.chimers import Interval, majority_chimers
from repro.hardened.deadlines import TscDeadlineTimer
from repro.hardened.registry import ChimerRegistry, ChimerReport
from repro.hardware.tsc import PAPER_TSC_FREQUENCY_HZ
from repro.messages import PeerTimeRequest, PeerTimeResponse
from repro.net.transport import SecureEndpoint
from repro.sim.units import MILLISECOND, SECOND

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.calibration import Calibrator
    from repro.hardware.machine import Machine
    from repro.sim.kernel import Simulator


def _reading(source: str, timestamp_ns: int, error_bound_ns: int) -> Interval:
    """A clock reading ``t ± e`` as the interval [t − e, t + e] (``e < 0`` is rejected)."""
    return Interval(timestamp_ns - error_bound_ns, timestamp_ns + error_bound_ns, source)


@dataclass
class HardenedNodeConfig(TriadNodeConfig):
    """Extra knobs of the hardened protocol."""

    #: TSC increments between discipline polls (default ≈16 s — NTP's
    #: minimum poll interval, the bottom of the paper's 2^τ range).
    deadline_ticks: int = int(16 * PAPER_TSC_FREQUENCY_HZ)
    #: Assumed worst-case drift of a disciplined clock, for error bounds.
    drift_bound_ppm: float = 500.0
    #: Error-bound floor (covers sync error and interval quantization).
    base_error_ns: int = MILLISECOND
    #: Offset magnitude worth stepping the clock for.
    min_offset_correction_ns: int = MILLISECOND
    #: Discipline samples per frequency-correction window.
    discipline_window_samples: int = 4
    #: Reject exchanges whose delay exceeds the observed floor times this.
    delay_filter_ratio: float = 2.0
    #: Sanity bound on |dθ/dL| accepted as a frequency correction.
    #: Windows contaminated by a reference rewrite (clique adoption, TA
    #: re-anchor, offset step) are detected exactly — the clock logs its
    #: own rewrites — and discarded; this bound only guards against the
    #: residual pathological fit. It must stay well above the F± attack
    #: tilt (0.1) so genuine miscalibration remains repairable.
    max_discipline_slope: float = 0.5


@dataclass
class HardenedStats:
    """Counters specific to the hardened mechanisms."""

    deadline_fires: int = 0
    discipline_polls: int = 0
    discipline_samples_accepted: int = 0
    delay_filter_rejections: int = 0
    frequency_corrections: list[tuple[int, float]] = field(default_factory=list)
    discipline_outlier_windows: int = 0
    offset_steps: list[tuple[int, int]] = field(default_factory=list)
    untaints_in_place: int = 0
    untaints_from_clique: int = 0
    peer_readings_rejected: int = 0
    clique_fallbacks_to_ta: int = 0


class HardenedTriadNode(TriadNode):
    """A Triad node running the §V hardened protocol."""

    #: The true-chimer check rejects the F− victim's readings: honest
    #: nodes hold and only the victim breaks its bound.
    contains_fminus = True

    def __init__(
        self,
        sim: "Simulator",
        endpoint: SecureEndpoint,
        ta_name: str,
        machine: "Machine",
        core_index: int,
        config: Optional[HardenedNodeConfig] = None,
        calibrator: Optional["Calibrator"] = None,
        dormant: bool = False,
    ) -> None:
        self.hardened_config = config or HardenedNodeConfig()
        if self.hardened_config.delay_filter_ratio < 1.0:
            raise ConfigurationError("delay filter ratio must be >= 1")
        super().__init__(
            sim,
            endpoint,
            ta_name,
            machine,
            core_index,
            config=self.hardened_config,
            calibrator=calibrator,
            dormant=dormant,
        )
        self.hardened_stats = HardenedStats()
        #: Optional §V bulletin board; assign one to make this node publish
        #: its true-chimer observations after every consistency check.
        self.registry: Optional[ChimerRegistry] = None
        self._last_ta_timestamp_ns: Optional[int] = None
        self._drift_estimator = DriftEstimator(window_ns=poll_interval_ns(8))
        #: Reference-rewrite count when the current estimator window began;
        #: a mismatch at window end means the samples straddle a step.
        self._estimator_rewrite_baseline = 0
        #: Observed roundtrip floor, tracked per Time Authority.
        self._min_delay_by_ta: dict[str, int] = {}
        self._last_sync_local_ns: Optional[int] = None
        self._discipline_due = False
        self._deadline_timer = TscDeadlineTimer(
            sim,
            machine.tsc,
            self.hardened_config.deadline_ticks,
            self._on_deadline,
            name=f"{self.name}/deadline",
        )
        self.discipline_process = sim.process(
            self._discipline_loop(), name=f"{self.name}/discipline"
        )

    # -- error bounds -----------------------------------------------------------

    def current_error_bound_ns(self) -> int:
        """Honest self-estimate of the clock's possible error.

        Grows with local time elapsed since the last successful TA
        synchronization, at the configured worst-case drift rate.
        """
        cfg = self.hardened_config
        if not self.clock.calibrated or self._last_sync_local_ns is None:
            return cfg.base_error_ns
        elapsed = max(self.clock.now_unchecked() - self._last_sync_local_ns, 0)
        return cfg.base_error_ns + int(elapsed * cfg.drift_bound_ppm / 1e6)

    # -- peer serving: include error bounds -----------------------------------------

    def _serve_peer_request(self, sender: str, request: PeerTimeRequest) -> None:
        if self.state is not NodeState.OK:
            self.stats.peer_requests_ignored_tainted += 1
            return
        self.stats.peer_requests_served += 1
        self.endpoint.send(
            sender,
            PeerTimeResponse(
                request_id=request.request_id,
                timestamp_ns=self._serve_timestamp(),
                error_bound_ns=self.current_error_bound_ns(),
            ),
        )

    # -- untaint: true-chimer consistency instead of adopt-the-maximum ----------------

    def _untaint(self):
        responses = yield from self._ask_peers()
        if not responses:
            yield from self._ref_calibration()
            self._mark_synced()
            return

        own_reading = _reading(
            self.name, self.clock.now_unchecked(), self.current_error_bound_ns()
        )
        peer_readings = [
            _reading(name, response.timestamp_ns, max(response.error_bound_ns, 1))
            for name, response in responses
        ]
        readings = peer_readings + [own_reading]
        total_clocks = len(self.peer_names) + 1
        result = majority_chimers(readings, total_clocks)
        self._publish_report(
            peer_readings,
            () if result is None else tuple(r.source for r in readings if result.overlaps(r)),
        )

        if result is None:
            # No majority-consistent clique: cannot tell honest clocks from
            # compromised ones — only the TA can arbitrate.
            self.hardened_stats.clique_fallbacks_to_ta += 1
            yield from self._ref_calibration()
            self._mark_synced()
            return

        rejected = [r for r in peer_readings if not result.overlaps(r)]
        self.hardened_stats.peer_readings_rejected += len(rejected)

        if result.overlaps(own_reading):
            # The local clock is itself a true-chimer: no rewrite needed.
            new_now = self.clock.untaint_in_place()
            self.hardened_stats.untaints_in_place += 1
            outcome = UntaintOutcome(
                time_ns=self.sim.now,
                source="self-consistent",
                old_now_ns=new_now,
                new_now_ns=new_now,
                jumped_forward=False,
                reference_time_ns=None,
            )
        else:
            # Local clock inconsistent with the honest majority: adopt the
            # clique's consensus midpoint (may move backwards — served
            # timestamps stay monotonic via the last-served floor).
            old_now = self.clock.now_unchecked()
            new_now = self.clock.set_reference(result.midpoint_ns)
            self.clock.untaint_in_place()
            self.hardened_stats.untaints_from_clique += 1
            outcome = UntaintOutcome(
                time_ns=self.sim.now,
                source="chimer-clique",
                old_now_ns=old_now,
                new_now_ns=new_now,
                jumped_forward=new_now > old_now,
                reference_time_ns=result.midpoint_ns,
            )
        self.stats.peer_untaints += 1
        self._record_untaint(outcome)
        self._set_state()

    # -- discipline loop (in-TCB deadline + NTP-style sync) -----------------------------

    def _on_deadline(self) -> None:
        self.hardened_stats.deadline_fires += 1
        self._discipline_due = True
        self._signal_wake()

    def _main_loop(self):
        yield from self._full_calibration()
        self._mark_synced()
        while True:
            if self._monitor_alert:
                self._monitor_alert = False
                yield from self._full_calibration()
                self._mark_synced()
                continue
            if self.clock.tainted:
                yield from self._untaint()
                continue
            yield self._wake()

    def _discipline_loop(self):
        """Run one NTP-style poll whenever the TSC deadline fires."""
        while True:
            if not self._discipline_due or not self.clock.calibrated:
                yield self.sim.timeout(100 * MILLISECOND)
                continue
            self._discipline_due = False
            yield from self._discipline_poll()

    def _discipline_poll(self):
        """Poll every configured TA; use the median surviving offset.

        With one TA this is the plain NTP-style discipline. With several
        (``ClusterConfig.ta_count > 1``), each TA is polled and filtered
        independently, and the *median* offset of the survivors feeds the
        clock — §V's consistency-over-clock-sets applied to the time
        reference itself, so one delayed or compromised TA cannot steer
        the discipline (its offset bias lands off-median).
        """
        self.hardened_stats.discipline_polls += 1
        offsets: list[float] = []
        latest_t4: Optional[int] = None
        for ta_name in self.ta_names:
            aex_before = self.stats.aex_count
            t1 = self.clock.now_unchecked()
            result = yield from self._ta_exchange(sleep_ns=0, ta_name=ta_name)
            if result is None:
                continue
            if self.stats.aex_count != aex_before:
                # Exchange not bounded by continuous execution; unusable.
                continue
            response, _tsc_before, _tsc_after = result
            t4 = self.clock.now_unchecked()
            exchange = SyncExchange(
                t1=t1,
                t2=response.receive_time_ns,
                t3=response.transmit_time_ns,
                t4=t4,
            )

            # NTP-style delay filter, per TA: an on-path delay attacker
            # inflates the roundtrip far beyond that TA's floor.
            delay = exchange.delay_ns
            floor = self._min_delay_by_ta.get(ta_name)
            if floor is None or delay < floor:
                self._min_delay_by_ta[ta_name] = delay
                floor = delay
            if delay > floor * self.hardened_config.delay_filter_ratio:
                self.hardened_stats.delay_filter_rejections += 1
                continue

            offsets.append(exchange.offset_ns)
            latest_t4 = t4

        if not offsets or latest_t4 is None:
            return

        # If the clock's reference was rewritten since this estimator
        # window started (clique adoption, TA re-anchor, offset step), the
        # accumulated offset series straddles a step: its slope measures
        # the step, not the oscillator. Restart the window — but still
        # apply the *offset* correction from this fresh median, so a lie
        # adopted from a majority clique is undone within one poll.
        rewrites = len(self.clock.reference_rewrites)
        if rewrites != self._estimator_rewrite_baseline:
            self.hardened_stats.discipline_outlier_windows += 1
            self._reset_estimator()
            self._step_offset(offsets[len(offsets) // 2])
            self._reset_estimator()
            return

        self.hardened_stats.discipline_samples_accepted += 1
        offsets.sort()
        median_offset = offsets[len(offsets) // 2]
        self._drift_estimator.add_sample(latest_t4, median_offset)

        if self._drift_estimator.sample_count >= self.hardened_config.discipline_window_samples:
            self._apply_discipline_corrections(median_offset)

    def _apply_discipline_corrections(self, latest_offset_ns: float) -> None:
        """End of a discipline window: fix frequency, then step offset."""
        slope = self._drift_estimator.drift_rate()
        if abs(slope) > self.hardened_config.max_discipline_slope:
            # Pathological fit (should be rare: step windows are already
            # filtered out by the rewrite check above). Discard.
            self.hardened_stats.discipline_outlier_windows += 1
        else:
            old_frequency = self.clock.frequency_hz
            assert old_frequency is not None  # guarded by caller
            new_frequency = old_frequency / (1.0 + slope)
            self.clock.set_frequency(new_frequency)
            self.hardened_stats.frequency_corrections.append((self.sim.now, new_frequency))

        self._step_offset(latest_offset_ns)
        # Samples were measured under the old frequency/reference: restart
        # the window so the next fit sees a homogeneous series.
        self._reset_estimator()
        self._mark_synced()

    def _step_offset(self, offset_ns: float) -> None:
        offset = int(offset_ns)
        if abs(offset) >= self.hardened_config.min_offset_correction_ns:
            self.clock.set_reference(self.clock.now_unchecked() + offset)
            self.hardened_stats.offset_steps.append((self.sim.now, offset))

    def _reset_estimator(self) -> None:
        self._drift_estimator = DriftEstimator(window_ns=self._drift_estimator.window_ns)
        self._estimator_rewrite_baseline = len(self.clock.reference_rewrites)

    def _publish_report(self, peer_readings: list[Interval], chimers: tuple[str, ...]) -> None:
        """Publish this consistency check to the §V bulletin board."""
        if self.registry is None:
            return
        observed = tuple(reading.source for reading in peer_readings)
        self.registry.publish(
            ChimerReport(
                time_ns=self.sim.now,
                reporter=self.name,
                observed=observed,
                chimers=chimers,
                last_ta_timestamp_ns=self._last_ta_timestamp_ns,
            )
        )

    def _mark_synced(self) -> None:
        if self.clock.calibrated:
            self._last_sync_local_ns = self.clock.now_unchecked()
            self._last_ta_timestamp_ns = self.clock.now_unchecked()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<HardenedTriadNode {self.name!r} state={self.state.value}>"
