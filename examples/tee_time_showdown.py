#!/usr/bin/env python3
"""TEE trusted-time showdown: Triad vs T3E vs TDX vs SecureTSC.

The paper's related-work section (§II) situates Triad among its
alternatives. This example runs the same two attacks against each design
and tabulates who notices, who survives, and what it costs:

* **hypervisor TSC manipulation** (rescale the counter 5% fast);
* **delay attack on the time source** (delay TA / TPM responses).

Run:  python examples/tee_time_showdown.py
"""

from repro.analysis import format_table
from repro.core import ClusterConfig, TriadCluster, TriadNodeConfig
from repro.net import ConstantDelay
from repro.sim import Simulator, units
from repro.t3e import T3eNode, TpmBus, TrustedPlatformModule
from repro.vmtee import SecureTscClock, TdxTscViolation, TdxVirtualTsc


def build_cluster(seed):
    """A fast-calibrating three-node cluster with deterministic delays."""
    sim = Simulator(seed=seed)
    config = ClusterConfig(
        delay_model=ConstantDelay(100 * units.MICROSECOND),
        node_config=TriadNodeConfig(
            calibration_rounds=1,
            calibration_sleeps_ns=(0, 100 * units.MILLISECOND),
            monitor_calibration_samples=4,
        ),
    )
    return sim, TriadCluster(sim, config)


def triad_vs_tsc_attack():
    sim, cluster = build_cluster(seed=180)
    sim.run(until=10 * units.SECOND)
    cluster.machine.tsc.set_scale(1.05)
    sim.run(until=70 * units.SECOND)
    node = cluster.node(1)
    return (
        f"monitor alert x{node.stats.monitor_alerts}, recalibrated",
        abs(node.drift_ns()) / 1e6,
    )


def t3e_vs_delay_attack():
    sim = Simulator(seed=181)
    tpm = TrustedPlatformModule(sim)
    bus = TpmBus(sim, tpm)
    node = T3eNode(sim, bus, max_uses=10)
    bus.set_attack_delay(500 * units.MILLISECOND)

    def app():
        for _ in range(100):
            yield node.request_timestamp()
            yield sim.timeout(10 * units.MILLISECOND)

    sim.process(app())
    sim.run()
    return (
        f"staleness bounded, {node.stats.tpm_fetches} stalls of ~510ms",
        node.stats.max_staleness_ns() / 1e6,
    )


def triad_vs_delay_attack():
    from repro.experiments import fminus_propagation

    experiment = fminus_propagation(seed=6, switch_at_ns=60 * units.SECOND)
    return (
        "F- undetected: calibration poisoned, cluster infected",
        experiment.run(3 * units.MINUTE).drift(1).final_drift_ns() / 1e6,
    )


def tdx_vs_tsc_attack():
    sim = Simulator(seed=182)
    tsc = TdxVirtualTsc(sim, frequency_hz=1_000_000_000)
    sim.run(until=10 * units.SECOND)
    tsc.hypervisor_scale(1.05)
    sim.run(until=70 * units.SECOND)
    try:
        tsc.read()
        outcome = "NOT DETECTED (bug)"
    except TdxTscViolation:
        outcome = "TD-entry violation raised"
    return outcome, abs(tsc.read() - sim.now) / 1e6


def sev_vs_tsc_attack():
    sim = Simulator(seed=183)
    clock = SecureTscClock(sim, guest_frequency_hz=1_000_000_000)
    sim.run(until=10 * units.SECOND)
    clock.host_write_scale(1.05)
    sim.run(until=70 * units.SECOND)
    return "guest TSC unaffected", abs(clock.guest_read() - sim.now) / 1e6


def main() -> None:
    print(__doc__)
    rows = [
        ["SGX + Triad", "TSC rescale x1.05", *map(_fmt, triad_vs_tsc_attack())],
        ["SGX + Triad", "delay attack (F-)", *map(_fmt, triad_vs_delay_attack())],
        ["TPM + T3E", "delay TPM responses 500ms", *map(_fmt, t3e_vs_delay_attack())],
        ["Intel TDX", "TSC rescale x1.05", *map(_fmt, tdx_vs_tsc_attack())],
        ["AMD SecureTSC", "TSC rescale x1.05", *map(_fmt, sev_vs_tsc_attack())],
    ]
    print(format_table(
        ["design", "attack", "outcome", "time_error_ms"],
        rows,
        title="One attacker, five defenses",
    ))
    print(
        "\nreadings:"
        "\n  - Triad detects TSC manipulation (INC monitor) but its CALIBRATION"
        "\n    is the soft spot: the F- delay attack poisons it undetected and"
        "\n    then spreads through the cluster — the paper's core finding."
        "\n  - T3E bounds delay-attack staleness but pays with stalls, and its"
        "\n    TPM root of trust is owner-configurable (not shown: ±32.5% drift)."
        "\n  - VM-level TEEs solve the TSC problem in hardware; the paper's §V"
        "\n    hardening (see examples/hardened_cluster.py) is how close a"
        "\n    CPU-level TEE cluster can get with a small TCB."
    )


def _fmt(value):
    if isinstance(value, float):
        return f"{value:.1f}"
    return value


if __name__ == "__main__":
    main()
