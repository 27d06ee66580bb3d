"""The §V hardened Triad protocol: deadlines, NTP discipline, true-chimers."""

from repro.hardened.chimers import Agreement, Interval, majority, majority_chimers, marzullo
from repro.hardened.deadlines import TscDeadlineTimer
from repro.hardened.node import HardenedNodeConfig, HardenedStats, HardenedTriadNode
from repro.hardened.registry import ChimerRegistry, ChimerReport

__all__ = [
    "Agreement",
    "ChimerRegistry",
    "ChimerReport",
    "HardenedNodeConfig",
    "HardenedStats",
    "HardenedTriadNode",
    "Interval",
    "TscDeadlineTimer",
    "majority",
    "majority_chimers",
    "marzullo",
]
