"""The Triad node: protocol state machine, calibration, and untainting.

A :class:`TriadNode` bundles everything one enclave runs:

* a **message loop** serving peer timestamp requests and routing TA/peer
  responses to waiting protocol steps;
* a **main loop** driving the state machine — initial FullCalib, then
  Tainted → (peer untaint | RefCalib with the TA) forever, plus FullCalib
  again whenever the INC monitor raises an alert;
* a **monitor loop** running INC windows against the TSC
  (:mod:`repro.hardware.monitor`);
* the AEX-Notify handler that taints the clock on every AEX of the
  monitoring core.

The implementation follows the paper's §III specification and its public
C++ implementation choices: UDP + AEAD for all traffic, calibration by
regression over 0 s- and 1 s-sleep TA roundtrips, exchanges invalidated if
an AEX interrupts them, and the original (vulnerable) peer-untaint policy.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.core.calibration import CalibrationSample, Calibrator, RegressionCalibrator
from repro.core.clock import TrustedClock
from repro.core.probes import ProbeEvent, ProbeHub
from repro.core.states import NodeState, StateTimeline
from repro.core.untaint import UntaintOutcome, apply_authority_untaint, apply_peer_untaint
from repro.errors import CalibrationError, ProtocolError, ReproError
from repro.hardware.aex import AexEvent
from repro.hardware.machine import Machine
from repro.hardware.monitor import IncMonitor, MonitorCalibration, PAPER_WINDOW_TICKS
from repro.messages import PeerTimeRequest, PeerTimeResponse, TimeRequest, TimeResponse
from repro.net.transport import SecureEndpoint
from repro.sim.events import Event, Interrupt
from repro.sim.units import MILLISECOND, SECOND

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator

#: Interrupt cause used by :meth:`TriadNode.crash` to tear down the
#: node's threads; each loop recognises it and returns cleanly.
CRASH_CAUSE = "enclave-crash"


class NodeUnavailable(ReproError):
    """The node cannot serve a timestamp right now (tainted/calibrating)."""


class NodeParked(ReproError):
    """A bounded-retry node exhausted its attempt budget and went dark.

    Only raised when :attr:`TriadNodeConfig.ta_fetch_attempt_budget` is
    set (the no-retry/bounded-retry baseline of the fault experiments):
    the main loop catches it and stops, leaving the node TAINTED forever
    — the behaviour the recovery invariant exists to flag.
    """


@dataclass
class TriadNodeConfig:
    """Protocol parameters of one node.

    Defaults mirror the paper's public implementation: regression over
    0 s and 1 s sleeps, a handful of samples per sleep value, and
    LAN-scale timeouts.
    """

    #: Requested TA waittimes used for speed calibration.
    calibration_sleeps_ns: tuple[int, ...] = (0, SECOND)
    #: Samples collected per sleep value in one calibration.
    calibration_rounds: int = 2
    #: Retries allowed per calibration sample (AEX-interrupted or lost).
    calibration_max_attempts: int = 100
    #: How long to collect peer responses after an AEX before falling back.
    peer_response_window_ns: int = 5 * MILLISECOND
    #: Margin added to the requested sleep when waiting for a TA response.
    ta_timeout_margin_ns: int = 500 * MILLISECOND
    #: TA fetch attempts before the node starts backing off (it never
    #: gives up: an unreachable TA must degrade availability, not crash
    #: the enclave — the node stays in RefCalib until the TA answers).
    ta_retry_limit: int = 5
    #: Backoff between TA fetch attempts once the retry limit is reached.
    ta_retry_backoff_ns: int = SECOND
    #: Growth factor of the TA-fetch backoff (1.0 = the paper's fixed
    #: backoff; >1 enables exponential backoff, the fault-recovery mode).
    retry_backoff_factor: float = 1.0
    #: Ceiling on one exponential backoff interval.
    retry_backoff_max_ns: int = 8 * SECOND
    #: Uniform jitter fraction applied to each backoff (0.0 = none, the
    #: default — keeps legacy runs byte-identical; >0 draws from the
    #: node's dedicated ``<name>/retry`` rng stream).
    retry_jitter: float = 0.0
    #: Backoff between failed calibration-sample attempts (0 = retry
    #: immediately, the paper's behaviour). Under TA outages this is what
    #: keeps a recalibrating node from hammering a dead server.
    calibration_retry_backoff_ns: int = 0
    #: Total TA-fetch attempts before the node gives up and parks dark
    #: (None = never, the paper's behaviour). The bounded no-retry
    #: baseline of the fault experiments sets this low; a parked node
    #: stays TAINTED forever and trips the oracle's recovery invariant.
    ta_fetch_attempt_budget: Optional[int] = None
    #: Whether the INC monitoring thread runs.
    monitor_enabled: bool = True
    #: TSC window per INC measurement.
    monitor_window_ticks: int = PAPER_WINDOW_TICKS
    #: Clean windows collected when calibrating the monitor.
    monitor_calibration_samples: int = 16
    #: |deviation| in INC counts that triggers a full recalibration.
    monitor_tolerance_inc: float = 100.0
    #: Deviating windows required in a row before alerting. One-window
    #: glitches (the rare measurement outliers of §IV-A1) are not TSC
    #: manipulation — a real rate/offset change shifts *every* subsequent
    #: window, so confirmation costs one window of latency and removes
    #: false positives entirely.
    monitor_alert_consecutive: int = 2
    #: Tick tolerance for the between-window continuity check (~34 µs at
    #: the paper's TSC frequency) — catches offset jumps landing between
    #: simulated windows, where the physical thread would still be counting.
    monitor_continuity_tolerance_ticks: int = 100_000
    #: Pause between monitoring windows.
    monitor_interval_ns: int = SECOND
    #: Smallest timestamp increment used for the monotonicity bump.
    min_increment_ns: int = 1


@dataclass
class NodeStats:
    """Observable counters for analysis and the paper's figures."""

    aex_count: int = 0
    #: (time_ns, cumulative_count) pairs — Fig. 6b's series.
    aex_times_ns: list[int] = field(default_factory=list)
    #: Completed full calibrations, with the resulting F_calib (Hz).
    full_calibrations: list[tuple[int, float]] = field(default_factory=list)
    #: Time references adopted from the TA (Fig. 2b counts these).
    ta_references: int = 0
    #: (time_ns, cumulative ta_references) — Fig. 2b's series.
    ta_reference_times_ns: list[int] = field(default_factory=list)
    peer_untaints: int = 0
    authority_untaints: int = 0
    untaint_outcomes: list[UntaintOutcome] = field(default_factory=list)
    monitor_alerts: int = 0
    #: Instants of monitor alerts (for event journals).
    monitor_alert_times_ns: list[int] = field(default_factory=list)
    ta_fetch_failures: int = 0
    ta_fetch_backoffs: int = 0
    #: Enclave crashes injected by the fault plane.
    crashes: int = 0
    #: Times the bounded-retry baseline exhausted its budget and parked.
    parks: int = 0
    timestamps_served: int = 0
    peer_requests_served: int = 0
    peer_requests_ignored_tainted: int = 0
    calibration_samples_discarded: int = 0

    @property
    def latest_frequency_hz(self) -> Optional[float]:
        """F_calib from the most recent full calibration."""
        if not self.full_calibrations:
            return None
        return self.full_calibrations[-1][1]


class TriadNode:
    """One Triad protocol participant (a TEE enclave plus its threads)."""

    #: Whether an F− infection stays on its victim: the base protocol's
    #: peer untaint adopts any ahead timestamp, so the fast victim drags
    #: every honest node forward (the paper's propagation cascade).
    contains_fminus: bool = False

    def __init__(
        self,
        sim: "Simulator",
        endpoint: SecureEndpoint,
        ta_name: str,
        machine: Machine,
        core_index: int,
        config: Optional[TriadNodeConfig] = None,
        calibrator: Optional[Calibrator] = None,
        dormant: bool = False,
    ) -> None:
        self.sim = sim
        self.endpoint = endpoint
        self.ta_name = ta_name
        #: All Time Authorities this node may consult. The base protocol
        #: only ever uses the first; the hardened discipline loop polls
        #: all of them and takes a median (multi-TA deployments are wired
        #: by :class:`repro.core.cluster.TriadCluster` with ``ta_count>1``).
        self.ta_names: list[str] = [ta_name]
        self.machine = machine
        self.core_index = core_index
        self.config = config or TriadNodeConfig()
        self.calibrator = calibrator or RegressionCalibrator()

        self.clock = TrustedClock(sim, machine.tsc, self.config.min_increment_ns)
        self.monitor = IncMonitor(
            sim, machine.tsc, machine.core(core_index), rng_name=f"{self.name}/inc-monitor"
        )
        self.timeline = StateTimeline(sim.now, NodeState.FULL_CALIB)
        self.stats = NodeStats()
        #: Observational tap for the invariant oracle (inert unless watched).
        self.probes = ProbeHub()

        self._monitor_calibration: Optional[MonitorCalibration] = None
        self._monitor_alert = False
        self._request_ids = itertools.count(1)
        #: Correlation of in-flight single-response requests.
        self._pending: dict[int, Event] = {}
        #: Correlation of in-flight peer broadcasts: rid -> (responses, done).
        self._gathers: dict[int, tuple[list[tuple[str, PeerTimeResponse]], Event, int]] = {}
        self._wake_event: Optional[Event] = None
        self._phase: Optional[NodeState] = None  # FULL_CALIB / REF_CALIB while active
        #: Lazily created jitter stream (only when retry_jitter > 0, so
        #: legacy configurations never touch it and stay byte-identical).
        self._retry_rng = None
        #: Set when the bounded-retry baseline gave up (see NodeParked).
        self.parked = False

        #: A dormant node is fully wired (endpoint, keys, clock) but runs
        #: no threads until :meth:`activate` — how cluster churn models a
        #: member that has not joined yet. Its clock stays uncalibrated
        #: and it never answers traffic, so the rest of the cluster sees
        #: exactly what it would see from a powered-off host.
        self.dormant = dormant
        self.message_process = None
        self.main_process = None
        self.monitor_process = None
        if not dormant:
            self.activate()

    def activate(self) -> None:
        """Start the node's threads (no-op if already running).

        Dormant nodes call this at churn-join time: the enclave boots,
        subscribes its AEX handler, and enters the initial FullCalib just
        like a node constructed live.
        """
        if self.message_process is not None:
            return
        self.dormant = False
        self.machine.port(self.core_index).subscribe(self._on_aex)
        sim = self.sim
        self.message_process = sim.process(self._message_loop(), name=f"{self.name}/messages")
        self.main_process = sim.process(self._main_loop(), name=f"{self.name}/main")
        if self.config.monitor_enabled:
            self.monitor_process = sim.process(self._monitor_loop(), name=f"{self.name}/monitor")
        else:
            self.monitor_process = None

    def crash(self, cause: str = "fault-injection") -> None:
        """Tear the enclave down with full TEE state loss (no-op if down).

        Every thread is interrupted with :data:`CRASH_CAUSE` and returns;
        the AEX handler is unsubscribed; all in-flight correlation state,
        monitor state, and the trusted clock's calibration are gone. The
        next :meth:`activate` is a cold boot — initial FullCalib from
        nothing, exactly like a node constructed live.
        """
        if self.message_process is None:
            return
        for process in (self.message_process, self.main_process, self.monitor_process):
            if process is not None and process.is_alive:
                process.interrupt(CRASH_CAUSE)
        self.machine.port(self.core_index).unsubscribe(self._on_aex)
        self.message_process = None
        self.main_process = None
        self.monitor_process = None
        self._pending.clear()
        self._gathers.clear()
        self._wake_event = None
        self._monitor_alert = False
        self._monitor_calibration = None
        self._phase = None
        self.parked = False
        self.clock.reset()
        self.stats.crashes += 1
        self._probe("crash", cause=cause)
        self._set_state()

    # -- identity & client API ----------------------------------------------------

    @property
    def name(self) -> str:
        """The node's network name."""
        return self.endpoint.name

    @property
    def peer_names(self) -> list[str]:
        """Cluster peers (all registered endpoints except Time Authorities)."""
        return [name for name in self.endpoint.peer_names if name not in self.ta_names]

    @property
    def state(self) -> NodeState:
        """Current protocol state."""
        return self.timeline.current

    @property
    def available(self) -> bool:
        """Whether a client call to :meth:`get_timestamp` would succeed."""
        return self.state.available

    def get_timestamp(self) -> int:
        """Serve a trusted timestamp to a client application.

        Raises :class:`NodeUnavailable` while tainted or calibrating — the
        unavailability the paper's §IV-A2 availability numbers measure.
        """
        if not self.available:
            raise NodeUnavailable(f"{self.name} is {self.state.value}")
        self.stats.timestamps_served += 1
        return self._serve_timestamp()

    def try_get_timestamp(self) -> Optional[int]:
        """Like :meth:`get_timestamp`, returning None when unavailable."""
        if not self.available:
            return None
        self.stats.timestamps_served += 1
        return self._serve_timestamp()

    # -- instrumentation -----------------------------------------------------------

    def _probe(self, kind: str, **data) -> None:
        """Emit a probe event; free when nothing subscribed."""
        if self.probes.active:
            self.probes.emit(ProbeEvent(self.sim.now, self.name, kind, data))

    def _serve_timestamp(self) -> int:
        """Produce a client-visible timestamp through the probe tap."""
        value = self.clock.serve_timestamp()
        self._probe("serve", timestamp_ns=value)
        return value

    def _record_untaint(self, outcome: UntaintOutcome) -> None:
        """Log an untaint outcome and surface it to the probes."""
        self.stats.untaint_outcomes.append(outcome)
        self._probe("untaint", outcome=outcome)

    def drift_ns(self) -> int:
        """Clock offset from reference time (analysis probe; needs calibration)."""
        return self.clock.drift_ns()

    # -- state bookkeeping ---------------------------------------------------------

    def _set_state(self) -> None:
        """Recompute and record the externally visible state."""
        if self._phase is not None:
            state = self._phase
        elif not self.clock.calibrated or self.clock.tainted:
            state = NodeState.TAINTED
        else:
            state = NodeState.OK
        self.timeline.record(self.sim.now, state)
        self._probe("state", state=state)

    # -- AEX handling ----------------------------------------------------------------

    def _on_aex(self, event: AexEvent) -> None:
        """AEX-Notify handler for the monitoring core: taint and wake."""
        self.stats.aex_count += 1
        self.stats.aex_times_ns.append(event.time_ns)
        self.monitor.notify_aex()
        self.clock.taint()
        self._probe("taint", cause=event.cause)
        self._set_state()
        self._signal_wake()

    def _wake(self) -> Event:
        if self._wake_event is None or self._wake_event.triggered:
            self._wake_event = Event(self.sim)
        return self._wake_event

    def _signal_wake(self) -> None:
        if self._wake_event is not None and not self._wake_event.triggered:
            self._wake_event.succeed()

    # -- main protocol loop -----------------------------------------------------------

    def _main_loop(self):
        try:
            yield from self._run_main()
        except Interrupt as interrupt:
            if interrupt.cause == CRASH_CAUSE:
                return  # enclave torn down by TriadNode.crash
            raise
        except NodeParked:
            # Bounded-retry baseline gave up: the node stays dark. State
            # was already recorded by the phase teardown on the way out.
            return

    def _run_main(self):
        yield from self._full_calibration()
        while True:
            if self._monitor_alert:
                self._monitor_alert = False
                yield from self._full_calibration()
                continue
            if self.clock.tainted:
                yield from self._untaint()
                continue
            yield self._wake()

    def _untaint(self):
        """Tainted → OK via peers, falling back to the Time Authority."""
        responses = yield from self._ask_peers()
        if responses:
            outcome = apply_peer_untaint(self.clock, responses, self.sim.now)
            self.stats.peer_untaints += 1
            self._record_untaint(outcome)
            self._set_state()
            return
        yield from self._ref_calibration()

    # -- peer exchange -------------------------------------------------------------------

    def _ask_peers(self):
        """Broadcast a timestamp request; gather responses for the window.

        Returns the (possibly empty) list of ``(peer, response)`` pairs.
        Completes early once every peer answered.
        """
        peers = self.peer_names
        if not peers:
            return []
        request_id = next(self._request_ids)
        responses: list[tuple[str, PeerTimeResponse]] = []
        done = Event(self.sim)
        self._gathers[request_id] = (responses, done, len(peers))
        for peer in peers:
            self.endpoint.send(peer, PeerTimeRequest(request_id=request_id))
        yield self.sim.any_of([done, self.sim.timeout(self.config.peer_response_window_ns)])
        del self._gathers[request_id]
        return list(responses)

    def _serve_peer_request(self, sender: str, request: PeerTimeRequest) -> None:
        """Answer a peer's untaint request — only when we are OK ourselves."""
        if self.state is not NodeState.OK:
            self.stats.peer_requests_ignored_tainted += 1
            return
        self.stats.peer_requests_served += 1
        self.endpoint.send(
            sender,
            PeerTimeResponse(
                request_id=request.request_id,
                timestamp_ns=self._serve_timestamp(),
            ),
        )

    # -- Time Authority exchanges ------------------------------------------------------------

    def _ta_exchange(self, sleep_ns: int, ta_name: Optional[str] = None):
        """One request/response with a TA (default: the primary).

        Returns ``(response, tsc_before, tsc_after)`` or ``None`` on
        timeout. The TSC readings bracket the whole exchange, which is how
        calibration measures ΔTSC per requested sleep.
        """
        target = ta_name if ta_name is not None else self.ta_name
        request_id = next(self._request_ids)
        waiter = Event(self.sim)
        self._pending[request_id] = waiter
        tsc_before = self.machine.tsc.read()
        self.endpoint.send(target, TimeRequest(request_id=request_id, sleep_ns=sleep_ns))
        timeout = self.sim.timeout(sleep_ns + self.config.ta_timeout_margin_ns)
        yield self.sim.any_of([waiter, timeout])
        del self._pending[request_id]
        if not waiter.triggered:
            return None
        tsc_after = self.machine.tsc.read()
        response = waiter.value
        return response, tsc_before, tsc_after

    def _retry_backoff_ns(self, backoff_index: int, base_ns: Optional[int] = None) -> int:
        """One backoff interval: exponential growth, capped, with jitter.

        ``backoff_index`` counts from 1 (first backoff). With the default
        ``retry_backoff_factor=1.0`` / ``retry_jitter=0.0`` this is the
        fixed base backoff of the paper's implementation; the
        fault-recovery configuration turns on growth and jitter to
        desynchronise a cluster hammering a TA that just came back.
        """
        config = self.config
        backoff = config.ta_retry_backoff_ns if base_ns is None else base_ns
        if config.retry_backoff_factor != 1.0:
            backoff = min(
                int(backoff * config.retry_backoff_factor ** (backoff_index - 1)),
                config.retry_backoff_max_ns,
            )
        if config.retry_jitter > 0.0:
            if self._retry_rng is None:
                self._retry_rng = self.sim.rng.stream(f"{self.name}/retry")
            backoff = int(backoff * (1.0 + config.retry_jitter * self._retry_rng.random()))
        return max(backoff, 1)

    def _fetch_reference(self):
        """Obtain and adopt a TA reference timestamp (retrying forever).

        The adopted reference is the TA's transmit time advanced by half
        the network roundtrip (measured via the calibrated clock), the
        standard symmetric-delay correction. After ``ta_retry_limit``
        consecutive failures the node backs off between attempts; by
        default it never gives up — an attacker black-holing the TA costs
        availability (the node stays unable to serve), never correctness.
        With ``ta_fetch_attempt_budget`` set (the bounded-retry baseline)
        exhaustion parks the node dark via :class:`NodeParked` instead.
        """
        attempt = 0
        budget = self.config.ta_fetch_attempt_budget
        while True:
            attempt += 1
            if budget is not None and attempt > budget:
                self.parked = True
                self.stats.parks += 1
                self._probe("retry", phase="park", attempt=attempt, backoff_ns=0)
                raise NodeParked(
                    f"{self.name}: TA fetch budget of {budget} attempts exhausted"
                )
            if attempt > self.config.ta_retry_limit:
                backoff_ns = self._retry_backoff_ns(attempt - self.config.ta_retry_limit)
                self.stats.ta_fetch_backoffs += 1
                self._probe(
                    "retry", phase="ta-fetch", attempt=attempt, backoff_ns=backoff_ns
                )
                yield self.sim.timeout(backoff_ns)
            result = yield from self._ta_exchange(sleep_ns=0)
            if result is None:
                self.stats.ta_fetch_failures += 1
                continue
            response, tsc_before, tsc_after = result
            frequency = self.clock.frequency_hz
            if frequency is None:
                raise CalibrationError("reference fetch before frequency calibration")
            rtt_ns = (tsc_after - tsc_before) * SECOND / frequency
            reference_now = response.reference_time_ns + int(rtt_ns / 2)
            outcome = apply_authority_untaint(self.clock, reference_now, self.sim.now)
            self.stats.authority_untaints += 1
            self.stats.ta_references += 1
            self.stats.ta_reference_times_ns.append(self.sim.now)
            self._record_untaint(outcome)
            return

    def _ref_calibration(self):
        """RefCalib state: re-anchor the timestamp with the TA."""
        self._phase = NodeState.REF_CALIB
        self._set_state()
        try:
            yield from self._fetch_reference()
        finally:
            self._phase = None
            self._set_state()

    # -- full calibration -----------------------------------------------------------------------

    def _full_calibration(self):
        """FullCalib state: monitor baseline, TSC rate, then reference."""
        self._phase = NodeState.FULL_CALIB
        self._set_state()
        try:
            if self.config.monitor_enabled:
                self._monitor_calibration = yield from self.monitor.calibrate(
                    self.config.monitor_window_ticks,
                    self.config.monitor_calibration_samples,
                )
            samples = yield from self._collect_calibration_samples()
            frequency = self.calibrator.estimate(samples)
            self.clock.set_frequency(frequency)
            self.stats.full_calibrations.append((self.sim.now, frequency))
            self._probe("calibration", frequency_hz=frequency)
            yield from self._fetch_reference()
        finally:
            self._phase = None
            self._set_state()

    def _collect_calibration_samples(self):
        """Gather AEX-free (sleep, ΔTSC) samples for every configured sleep."""
        samples: list[CalibrationSample] = []
        for _round in range(self.config.calibration_rounds):
            for sleep_ns in self.config.calibration_sleeps_ns:
                sample = yield from self._one_calibration_sample(sleep_ns)
                samples.append(sample)
        return samples

    def _one_calibration_sample(self, sleep_ns: int):
        backoffs = 0
        for attempt in range(1, self.config.calibration_max_attempts + 1):
            aex_before = self.stats.aex_count
            result = yield from self._ta_exchange(sleep_ns)
            if result is None:
                # The TA did not answer. With a calibration backoff
                # configured (the fault-recovery mode) the node waits
                # before retrying rather than hammering a dead server;
                # AEX-voided samples below retry immediately — the TA is
                # fine, the sample just was not execution-bounded.
                self.stats.calibration_samples_discarded += 1
                if self.config.calibration_retry_backoff_ns > 0:
                    backoffs += 1
                    backoff_ns = self._retry_backoff_ns(
                        backoffs, base_ns=self.config.calibration_retry_backoff_ns
                    )
                    self._probe(
                        "retry",
                        phase="calibration",
                        attempt=attempt,
                        backoff_ns=backoff_ns,
                    )
                    yield self.sim.timeout(backoff_ns)
                continue
            if self.stats.aex_count != aex_before:
                # The exchange was not bounded by continuous execution: an
                # AEX may hide arbitrary suspension, so the sample is void.
                self.stats.calibration_samples_discarded += 1
                continue
            response, tsc_before, tsc_after = result
            return CalibrationSample(sleep_ns=sleep_ns, tsc_increment=tsc_after - tsc_before)
        if self.config.ta_fetch_attempt_budget is not None:
            self.parked = True
            self.stats.parks += 1
            self._probe(
                "retry",
                phase="park",
                attempt=self.config.calibration_max_attempts,
                backoff_ns=0,
            )
            raise NodeParked(
                f"{self.name}: calibration attempt budget exhausted (sleep={sleep_ns}ns)"
            )
        raise CalibrationError(
            f"{self.name}: could not obtain an AEX-free calibration sample "
            f"(sleep={sleep_ns}ns) in {self.config.calibration_max_attempts} attempts"
        )

    # -- message loop -------------------------------------------------------------------------------

    def _message_loop(self):
        try:
            yield from self._run_messages()
        except Interrupt as interrupt:
            if interrupt.cause == CRASH_CAUSE:
                return
            raise

    def _run_messages(self):
        while True:
            envelope = yield self.endpoint.recv()
            message = envelope.message
            if isinstance(message, PeerTimeRequest):
                self._serve_peer_request(envelope.sender, message)
            elif isinstance(message, TimeResponse):
                waiter = self._pending.get(message.request_id)
                if waiter is not None and not waiter.triggered:
                    waiter.succeed(message)
            elif isinstance(message, PeerTimeResponse):
                gather = self._gathers.get(message.request_id)
                if gather is not None:
                    responses, done, expected = gather
                    responses.append((envelope.sender, message))
                    if len(responses) >= expected and not done.triggered:
                        done.succeed()
            else:
                raise ProtocolError(
                    f"{self.name} received unexpected {type(message).__name__} "
                    f"from {envelope.sender}"
                )

    # -- monitor loop ---------------------------------------------------------------------------------

    def _monitor_loop(self):
        try:
            yield from self._run_monitor()
        except Interrupt as interrupt:
            if interrupt.cause == CRASH_CAUSE:
                return
            raise

    def _run_monitor(self):
        deviating_streak = 0
        anchored_against = None  # calibration the continuity anchor is valid for
        while True:
            yield self.sim.timeout(self.config.monitor_interval_ns)
            calibration = self._monitor_calibration
            if calibration is None:
                continue
            aex_count_before = self.stats.aex_count
            measurement = yield from self.monitor.measure(self.config.monitor_window_ticks)
            if measurement.interrupted or self.stats.aex_count != aex_count_before:
                # Suspension of unknown length: the cycle count across the
                # gap is void, so the continuity anchor must be re-set too.
                anchored_against = None
                continue

            # Continuity across the gap since the previous clean window —
            # the physical thread counts continuously, so offset jumps
            # landing *between* simulated windows must still be caught.
            continuity_deviation = None
            if anchored_against is calibration:
                continuity_deviation = self.monitor.check_continuity(
                    calibration, self.config.monitor_continuity_tolerance_ticks
                )
            self.monitor.begin_continuity()
            anchored_against = calibration

            window_deviation = self.monitor.check(
                measurement, self._monitor_calibration, self.config.monitor_tolerance_inc
            )
            if continuity_deviation is not None:
                # A confirmed discontinuity is unambiguous: alert at once.
                deviating_streak = 0
                self._raise_monitor_alert()
                continue
            if window_deviation is None:
                deviating_streak = 0
                continue
            deviating_streak += 1
            if deviating_streak < self.config.monitor_alert_consecutive:
                continue
            deviating_streak = 0
            self._raise_monitor_alert()

    def _raise_monitor_alert(self) -> None:
        self.stats.monitor_alerts += 1
        self.stats.monitor_alert_times_ns.append(self.sim.now)
        self._probe("monitor-alert")
        self._monitor_alert = True
        self.clock.taint()
        self._probe("taint", cause="monitor-alert")
        self._set_state()
        self._signal_wake()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TriadNode {self.name!r} state={self.state.value}>"
