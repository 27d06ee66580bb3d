"""EXT-KERNEL — simulation-substrate performance.

Not a paper artefact: throughput numbers for the discrete-event kernel
and the full protocol stack, so adopters can budget experiment wall time
(see docs/simulation.md §5). Unlike the figure benches these use repeated
rounds — they measure the library, not a scenario.
"""

import time

import pytest

from repro.sim import Simulator, units

#: Committed throughput floor for the CI ``kernel-bench`` job. The
#: calendar-queue kernel measured ~1.0–1.2M process-events/s on the
#: hardware of docs/kernel.md (baseline before the overhaul: 354,913/s);
#: the floor sits well under the measured rate to absorb CI-runner
#: variance while still catching a real regression back toward the
#: heapq-era cost.
KERNEL_FLOOR_EVENTS_PER_S = 500_000


def test_kernel_timeout_throughput(benchmark):
    """Raw event scheduling: a chain of timeouts."""

    def run_chain():
        sim = Simulator(seed=0)

        def chain():
            for _ in range(10_000):
                yield sim.timeout(1)

        sim.process(chain())
        sim.run()
        return sim.now

    result = benchmark(run_chain)
    assert result == 10_000


def test_kernel_concurrent_processes(benchmark):
    """1 000 interleaved processes advancing in lock-step."""

    def run_fleet():
        sim = Simulator(seed=0)

        def worker(step):
            for _ in range(50):
                yield sim.timeout(step)

        for i in range(1_000):
            sim.process(worker(i % 7 + 1))
        sim.run()
        return sim.now

    benchmark(run_fleet)


def test_network_message_throughput(benchmark):
    """Sealed round trips across the simulated network."""
    from repro.net import ConstantDelay, Network, SecureEndpoint

    def run_pingpong():
        sim = Simulator(seed=0)
        net = Network(sim, default_delay=ConstantDelay(1000))
        alice = SecureEndpoint(sim, net, "alice")
        bob = SecureEndpoint(sim, net, "bob")
        alice.register_peer(bob)
        bob.register_peer(alice)

        def bob_loop():
            for _ in range(500):
                envelope = yield bob.recv()
                bob.send("alice", envelope.message)

        def alice_loop():
            for i in range(500):
                alice.send("bob", i)
                yield alice.recv()

        sim.process(bob_loop())
        sim.process(alice_loop())
        sim.run()
        return alice.socket.received_count

    count = benchmark(run_pingpong)
    assert count == 500


def _process_events_per_s() -> int:
    """1000 interleaved processes x 100 timeouts, in process-events per wall-s."""
    started = time.perf_counter()
    sim = Simulator(seed=0)

    def worker(step):
        for _ in range(100):
            yield sim.timeout(step)

    for index in range(1000):
        sim.process(worker(index + 1))
    sim.run()
    return round(100_000 / (time.perf_counter() - started))


def test_process_events_floor():
    """Regression floor: fail the kernel-bench CI job if throughput drops.

    Takes the best of three runs of the pinned interleaved-process
    workload to shrug off scheduler noise.
    """
    best = max(_process_events_per_s() for _ in range(3))
    assert best >= KERNEL_FLOOR_EVENTS_PER_S, (
        f"process_events_per_s regressed: {best}/s < floor {KERNEL_FLOOR_EVENTS_PER_S}/s"
    )


def _aex_workload_batched(horizon_ns):
    """AEX arrivals via the batched AexSource (the shipped implementation)."""
    from repro.hardware import AexPort, AexSource, TriadLikeAexDelays

    sim = Simulator(seed=0)
    ports = [AexPort(sim, core_index=i) for i in range(3)]
    for i, port in enumerate(ports):
        AexSource(sim, port, TriadLikeAexDelays(), rng_name=f"aex/core{i}")
    sim.run(until=horizon_ns)
    return sum(port.count for port in ports)


def _aex_workload_per_event(horizon_ns):
    """The pre-overhaul shape: one numpy draw per arrival, inside a
    generator process. Kept as the baseline the batched source is measured
    against — the delta is almost entirely numpy per-call dispatch."""
    from repro.hardware import AexPort, TriadLikeAexDelays

    sim = Simulator(seed=0)
    ports = [AexPort(sim, core_index=i) for i in range(3)]
    for i, port in enumerate(ports):
        rng = sim.rng.stream(f"aex/core{i}")
        distribution = TriadLikeAexDelays()

        def loop(port=port, rng=rng, distribution=distribution):
            while True:
                yield sim.timeout(distribution.sample(rng))
                port.fire("os")

        sim.process(loop())
    sim.run(until=horizon_ns)
    return sum(port.count for port in ports)


def test_aex_stream_batched(benchmark):
    """AEX arrivals/s with batch-drawn delay streams (3 Triad-like cores)."""
    count = benchmark(_aex_workload_batched, 30 * units.MINUTE)
    assert count > 2_000


def test_aex_stream_per_event(benchmark):
    """Same workload with draw-per-arrival scheduling (the old design)."""
    count = benchmark(_aex_workload_per_event, 30 * units.MINUTE)
    assert count > 2_000


def test_aex_batched_and_per_event_are_event_identical():
    """The headline win may not change behaviour: identical AEX counts."""
    horizon = 5 * units.MINUTE
    assert _aex_workload_batched(horizon) == _aex_workload_per_event(horizon)


def test_cluster_simulation_rate(benchmark):
    """Protocol-stack rate: simulated seconds per wall second for the
    default 3-node cluster under Triad-like AEXs."""
    from repro.core import ClusterConfig, TriadCluster, TriadNodeConfig
    from repro.hardware import TriadLikeAexDelays
    from repro.net import ConstantDelay

    def run_minute():
        sim = Simulator(seed=1)
        cluster = TriadCluster(
            sim,
            ClusterConfig(
                delay_model=ConstantDelay(100 * units.MICROSECOND),
                node_config=TriadNodeConfig(
                    calibration_rounds=1,
                    calibration_sleeps_ns=(0, 100 * units.MILLISECOND),
                    monitor_calibration_samples=4,
                ),
            ),
        )
        for core in cluster.monitoring_cores:
            cluster.machine.add_aex_source(core, TriadLikeAexDelays())
        sim.run(until=units.MINUTE)
        return cluster.node(1).stats.aex_count

    aex_count = benchmark(run_minute)
    assert aex_count > 50
