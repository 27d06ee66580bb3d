"""Direct TSC manipulation attacks (hypervisor-level).

These are the attacks Triad's INC monitor *does* catch — included both to
validate the monitor (§IV-A1: a fixed-frequency counting thread reliably
detects TSC rate changes and jumps, forward or back) and to contrast with
the calibration attacks it does not. Each attack is a scripted hypervisor
action at a point in simulated time.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.attacks.scheduler import at_or_now
from repro.errors import ConfigurationError
from repro.hardware.tsc import TimestampCounter

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator


class TscScaleAttack:
    """Hypervisor rescales the guest's TSC rate at ``at_ns``.

    ``scale > 1`` makes the TSC (and hence the victim's clock) run fast;
    ``scale < 1`` slow. The INC monitor's per-window count shifts by the
    factor ``1/scale`` and trips the tolerance check on the next clean
    window, triggering a full recalibration.
    """

    def __init__(self, sim: "Simulator", tsc: TimestampCounter, at_ns: int, scale: float) -> None:
        if scale <= 0:
            raise ConfigurationError(f"scale must be positive, got {scale}")
        self.sim = sim
        self.tsc = tsc
        self.scale = scale
        at_or_now(sim, at_ns, lambda: tsc.set_scale(scale), name="tsc-scale-attack")


class TscOffsetAttack:
    """Hypervisor jumps the guest's TSC by ``offset_ticks`` at ``at_ns``.

    A negative offset attempts to move the enclave back in time — the
    attack class against which Triad's monotonic timestamp policy and the
    INC monitor are the defense. The jump lands inside some monitoring
    window, whose INC count then deviates by ``offset_ticks / F_tsc ×
    F_core / cycles_per_iteration`` and raises the alert.
    """

    def __init__(
        self, sim: "Simulator", tsc: TimestampCounter, at_ns: int, offset_ticks: int
    ) -> None:
        if offset_ticks == 0:
            raise ConfigurationError("offset of zero is not an attack")
        self.sim = sim
        self.tsc = tsc
        self.offset_ticks = offset_ticks
        at_or_now(sim, at_ns, lambda: tsc.apply_offset(offset_ticks), name="tsc-offset-attack")
