"""The F+ and F− calibration delay attacks (paper §III-C).

Triad's speed calibration regresses TSC increments over the waittime ``s``
requested from the TA. The attacker cannot read ``s`` (traffic is sealed),
but it controls the compromised host's OS, so every datagram to/from the
TA crosses its code: it measures how long each exchange has been running
and infers ``s`` from timing — exactly the paper's attacker.

* **F+**: add delay to exchanges with *high* estimated ``s``
  → steeper regression → F_calib > F_tsc → the TEE's perceived clock runs
  **slow** (with the paper's +100 ms on 1 s sleeps: −91 ms/s drift).
* **F−**: add delay to exchanges with *low* estimated ``s``
  → shallower regression → F_calib < F_tsc → the TEE's perceived clock
  runs **fast** (+113 ms/s in the paper) — and, through the peer-untaint
  policy, drags every honest node forward with it.

The attacker delays the *response* leg: by the time a response passes, the
request→response gap reveals whether the exchange slept at the TA.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING

from repro.errors import ConfigurationError
from repro.net.adversary import Interference, NetworkAdversary, Observation, PASS
from repro.sim.units import MICROSECOND, MILLISECOND

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator


class AttackMode(enum.Enum):
    """Which calibration sleeps the attacker targets."""

    #: Delay high-sleep exchanges: F_calib overestimated, clock slowed.
    F_PLUS = "F+"
    #: Delay low-sleep exchanges: F_calib underestimated, clock quickened.
    F_MINUS = "F-"


class CalibrationDelayAttacker(NetworkAdversary):
    """On-path F+/F− attacker at a compromised Triad node.

    Parameters
    ----------
    victim_host / ta_host:
        The compromised node and the Time Authority. Only this flow is
        touched; the attacker's vantage point is the victim's own machine.
    mode:
        :class:`AttackMode`. F+ delays responses of exchanges estimated to
        have slept, F− those estimated immediate.
    added_delay_ns:
        Delay injected into targeted responses (paper: 100 ms).
    sleep_threshold_ns:
        Estimated-sleep boundary between "low s" and "high s" exchanges.
        The paper's implementation uses s ∈ {0, 1 s}, so anything between
        the network RTT and ~1 s works; default 250 ms.
    assumed_one_way_delay_ns:
        The attacker's prior on the honest one-way network delay, measured
        by observing its own machine's traffic (§III-C: "the attacker is
        able to measure network delays between its machine and the TA").
    """

    def __init__(
        self,
        sim: "Simulator",
        victim_host: str,
        ta_host: str,
        mode: AttackMode,
        added_delay_ns: int = 100 * MILLISECOND,
        sleep_threshold_ns: int = 250 * MILLISECOND,
        assumed_one_way_delay_ns: int = 50 * MICROSECOND,
        active: bool = True,
    ) -> None:
        if added_delay_ns <= 0:
            raise ConfigurationError(f"added delay must be positive, got {added_delay_ns}")
        if sleep_threshold_ns <= 0:
            raise ConfigurationError(f"sleep threshold must be positive, got {sleep_threshold_ns}")
        super().__init__(sim, scope_hosts={victim_host})
        self.victim_host = victim_host
        self.ta_host = ta_host
        self.mode = mode
        self.added_delay_ns = added_delay_ns
        self.sleep_threshold_ns = sleep_threshold_ns
        self.assumed_one_way_delay_ns = assumed_one_way_delay_ns
        self.active = active
        #: Send times of victim→TA requests not yet matched to a response.
        self._outstanding_requests: list[int] = []
        #: (estimated_sleep_ns, delayed) per matched response, for analysis.
        self.sleep_estimates: list[tuple[int, bool]] = []

    def expected_violations(self, contained: bool = False) -> set[tuple[str, str]]:
        """Oracle (node, invariant) pairs this attack is built to cause.

        The victim's clock free-runs on a skewed F_calib while its state
        reports OK. F− additionally propagates unless the cluster's nodes
        are ``contained`` (:attr:`~repro.core.node.TriadNode.contains_fminus`):
        the fast victim's always ahead timestamps win every peer untaint,
        so any node may drift out of bound or adopt an out-of-bound peer's
        time (``"*"`` is the oracle's node wildcard).
        """
        if self.mode is AttackMode.F_MINUS and not contained:
            return {("*", "drift-bound"), ("*", "state-soundness"), ("*", "untaint-safety")}
        return {(self.victim_host, "drift-bound"), (self.victim_host, "state-soundness")}

    def enable(self) -> None:
        """Start interfering (observation always runs)."""
        self.active = True

    def disable(self) -> None:
        """Stop interfering (e.g. after poisoning the initial calibration)."""
        self.active = False

    def interfere(self, observation: Observation) -> Interference:
        if (
            observation.source_host == self.victim_host
            and observation.destination_host == self.ta_host
        ):
            # A request leaves the compromised host for the TA: remember
            # when, to time the exchange. Triad keeps one exchange in
            # flight at a time, so FIFO matching is exact.
            self._outstanding_requests.append(observation.time_ns)
            return PASS

        if (
            observation.source_host == self.ta_host
            and observation.destination_host == self.victim_host
        ):
            if not self._outstanding_requests:
                return PASS
            request_time = self._outstanding_requests.pop(0)
            elapsed = observation.time_ns - request_time
            estimated_sleep = max(elapsed - self.assumed_one_way_delay_ns, 0)
            is_high_sleep = estimated_sleep >= self.sleep_threshold_ns
            target = is_high_sleep if self.mode is AttackMode.F_PLUS else not is_high_sleep
            should_delay = self.active and target
            self.sleep_estimates.append((estimated_sleep, should_delay))
            if should_delay:
                return Interference(extra_delay_ns=self.added_delay_ns)
            return PASS

        return PASS

    def expected_frequency_skew(self, sleeps_ns: tuple[int, ...]) -> float:
        """Predicted F_calib / F_tsc ratio for a two-sleep calibration.

        For sleeps ``(s_lo, s_hi)``, adding ``d`` to the high group gives a
        slope of ``1 + d/(s_hi − s_lo)`` (F+), and to the low group
        ``1 − d/(s_hi − s_lo)`` (F−) — the paper's 3191 MHz and 2610 MHz
        come straight out of this formula with d = 100 ms and s ∈ {0, 1 s}.
        """
        if len(sleeps_ns) < 2:
            raise ConfigurationError("need at least two sleep values")
        span = max(sleeps_ns) - min(sleeps_ns)
        if span <= 0:
            raise ConfigurationError("sleep values must be distinct")
        tilt = self.added_delay_ns / span
        return 1.0 + tilt if self.mode is AttackMode.F_PLUS else 1.0 - tilt
