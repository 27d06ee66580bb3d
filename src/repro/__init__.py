"""repro — an open-source reproduction of Triad's TEE trusted-time protocol.

This library reimplements, as a deterministic discrete-event simulation,
the system studied in *"An Open-source Implementation and Security Analysis
of Triad's TEE Trusted Time Protocol"* (Bettinger, Ben Mokhtar,
Simonet-Boulogne; DSN-S 2025): the Triad trusted-time protocol for Intel
SGX enclave clusters, the F+/F− calibration delay attacks and the
time-skip propagation attack demonstrated against it, and the hardened
protocol the paper proposes.

Package map
-----------
``repro.sim``         deterministic discrete-event kernel (integer-ns time)
``repro.hardware``    TSC / CPU / AEX / INC-monitor / MSR models
``repro.net``         UDP-style network, AEAD sealing, on-path adversaries
``repro.authority``   Time Authority server and NTP-style sync primitives
``repro.core``        the Triad protocol (nodes, clusters, clocks, states)
``repro.attacks``     F+/F− delay attacks, scheduling and TSC attacks
``repro.hardened``    §V hardening: deadlines, NTP discipline, true-chimers
``repro.analysis``    drift probes, statistics, tables, timing diagrams
``repro.experiments`` one canonical scenario per paper figure and table
``repro.fleet``       parallel run engine: task pool, result cache, telemetry

Quick start
-----------
>>> from repro.sim import Simulator, units
>>> from repro.core import TriadCluster
>>> sim = Simulator(seed=42)
>>> cluster = TriadCluster(sim)
>>> sim.run(until=30 * units.SECOND)
>>> cluster.node(1).get_timestamp()  # doctest: +SKIP
"""

from repro.errors import (
    CalibrationError,
    ConfigurationError,
    CryptoError,
    MonitoringAlert,
    ProtocolError,
    ReproError,
)

__version__ = "1.1.0"

__all__ = [
    "CalibrationError",
    "ConfigurationError",
    "CryptoError",
    "MonitoringAlert",
    "ProtocolError",
    "ReproError",
    "__version__",
]
