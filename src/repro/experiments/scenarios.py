"""Canonical scenarios — one spec entry per paper experiment.

:data:`SCENARIOS` maps each canonical experiment name to the
:class:`~repro.experiments.spec.ExperimentSpec` dict wiring it, matching
one of the paper's setups (§IV): three Triad nodes plus the TA on one SGX2
machine, per-node AEX environments ("triad-like" Fig. 1a vs "low-aex"
Fig. 1b), residual machine-wide OS interrupts (by default every 5.4
minutes, the Fig. 1b isolated-core environment), and — for the attack
scenarios — an F+/F− adversary at Node 3. A run's oracle allowance is
what its attacks allow as they are applied (``docs/oracle.md``).

The four ``sweep-*`` entries are the parameter sweeps' base specs: a
fast, quiet cluster (constant 100 µs network, 4 monitor calibration
windows, no machine-wide interrupts).

Node numbering follows the paper: Nodes 1 and 2 are always honest; Node 3
is the compromised one in attack scenarios. ``scenario_spec(name,
seed).build()`` wires any entry, optionally with another seed or other keys;
:func:`fminus_propagation` and :func:`hardened_fminus_propagation` build
the two Fig. 6 entries, optionally with another honest-node AEX onset.
"""

from __future__ import annotations

import copy
from typing import Any, Optional

from repro.experiments.runner import Experiment
from repro.experiments.spec import ExperimentSpec
from repro.sim.units import MILLISECOND, SECOND

_TRIAD_LIKE = {"1": "triad-like", "2": "triad-like", "3": "triad-like"}
_LOW_AEX = {"1": "low-aex", "2": "low-aex", "3": "low-aex"}
#: Honest nodes under Triad-like AEXs, the victim kept free of them.
_VICTIM_ISOLATED = {"1": "triad-like", "2": "triad-like", "3": "low-aex"}
#: The paper's 100 ms attacker on Node 3, armed from t = 0.
_FPLUS = {"type": "fplus", "victim": 3, "delay_ms": 100}
_FMINUS = {"type": "fminus", "victim": 3, "delay_ms": 100}
#: Honest Nodes 1 and 2 stay AEX-free until the paper's t = 104 s switch.
_ONSET = {"type": "aex-onset", "nodes": [1, 2], "at_s": 104}
_SWEEP = {
    "machine_wide_mean_s": None,
    "network_delay": {"model": "constant", "delay_us": 100},
    "node_config": {"monitor_calibration_samples": 4},
}

#: Canonical experiment name -> spec dict (without its ``name``).
SCENARIOS: dict[str, dict[str, Any]] = {
    # Fig. 2: all nodes under Triad-like AEXs, no attacker. Machine-wide
    # interrupts are mostly correlated, so all nodes taint simultaneously
    # every few minutes and must contact the TA — Fig. 2a's sawtooth drift
    # and Fig. 2b's growing TA message counts; availability >98%.
    "fig2-fault-free-triad-like": {
        "seed": 2,
        "duration_s": 1800,
        "environments": _TRIAD_LIKE,
    },
    # Fig. 3: all nodes in the low-AEX (isolated-core) environment.
    # Interrupts arrive minutes apart and are only sometimes simultaneous:
    # solo AEXs untaint via peers (forward jumps to the fastest clock,
    # Fig. 3a), simultaneous ones force TA reference calibrations. A single
    # FullCalib at the start is expected (Fig. 3b); 99.9% availability.
    "fig3-fault-free-low-aex": {
        "seed": 3,
        "duration_s": 8 * 3600,
        "environments": _LOW_AEX,
        "machine_wide_correlation": 0.5,
        "drift_interval_s": 5,
    },
    # Fig. 4: F+ on Node 3, which the attacker keeps in low-AEX.
    # F₃ᶜᵃˡ ≈ 1.1 × F_tsc ≈ 3190 MHz, Node 3 drifting at ≈ −91 ms/s,
    # corrected only by the rare correlated TA calibrations; honest nodes
    # unaffected.
    "fig4-fplus-low-aex": {
        "seed": 4,
        "duration_s": 600,
        "environments": _VICTIM_ISOLATED,
        "attacks": [_FPLUS],
    },
    # Fig. 5: F+ on Node 3 with all nodes under Triad-like AEXs. Node 3's
    # drift oscillates between its peers' drift (peer untaints after every
    # AEX) and ≈ −150 ms reached between AEXs on its own slow clock; the
    # attack does not propagate.
    "fig5-fplus-triad-like": {
        "seed": 5,
        "duration_s": 600,
        "environments": _TRIAD_LIKE,
        "attacks": [_FPLUS],
    },
    # Fig. 6: F− on Node 3; Nodes 1 and 2 start with (almost) no AEXs and
    # their Triad-like streams start at the paper's dashed red line. Node 3
    # drifts at ≈ +113 ms/s from the start; once honest nodes experience
    # AEXs they adopt its (always-ahead) timestamps, jump forward by tens
    # of ms, and keep following — the propagation cascade.
    "fig6-fminus-propagation": {
        "seed": 6,
        "duration_s": 420,
        "environments": _TRIAD_LIKE,
        "machine_wide_mean_s": None,
        "attacks": [_ONSET, _FMINUS],
    },
    # TA blackhole DoS from t = 30 s: fail-closed starvation, no wrong
    # time. Fully correlated machine-wide interrupts every ~30 s taint
    # every node at once, peers cannot answer each other, and the cluster
    # falls back to the (blackholed) TA: no node ever refreshes again, so
    # availability collapses while drift stays in bound. The golden-trace
    # scenario of the oracle's ``freshness`` invariant.
    "dos-ta-blackhole": {
        "seed": 8,
        "duration_s": 180,
        "environments": _LOW_AEX,
        "machine_wide_mean_s": 30,
        "machine_wide_correlation": 1.0,
        "attacks": [{"type": "ta-blackhole", "start_s": 30}],
    },
    # §V: Fig. 6's scenario against the hardened protocol. Honest nodes
    # reject the infected node's readings via the true-chimer check and
    # stay near zero drift; Node 3's own drift is bounded by clique
    # corrections and NTP discipline.
    "hardened-fminus-propagation": {
        "seed": 6,
        "duration_s": 420,
        "protocol": "hardened",
        "environments": _TRIAD_LIKE,
        "machine_wide_mean_s": None,
        "attacks": [_ONSET, _FMINUS],
    },
    # §V deadline ablation: F+ victim with AEXs fully suppressed. The
    # hardened node's TSC-deadline discipline loop bounds the
    # free-running miscalibration.
    "hardened-fplus-suppressed-aex": {
        "seed": 7,
        "protocol": "hardened",
        "environments": _VICTIM_ISOLATED,
        "machine_wide_mean_s": None,
        "attacks": [_FPLUS],
    },
    # Control of the deadline ablation on the base protocol: no AEXs means
    # no refresh, ever, so the −91 ms/s drift runs unbounded.
    "baseline-fplus-suppressed-aex": {
        "seed": 7,
        "environments": _VICTIM_ISOLATED,
        "machine_wide_mean_s": None,
        "attacks": [_FPLUS],
    },
    # Sweep bases: each point of a sweep (repro.experiments.sweeps) is its
    # entry with the swept keys replaced. F± tilt vs attacker delay: the
    # victim settles 30 s, then its drift rate is fitted over 60 s.
    "sweep-attack-delay": {**_SWEEP, "seed": 400, "duration_s": 90, "attacks": [_FMINUS]},
    # Honest calibration error of one node vs log-normal network jitter.
    "sweep-jitter": {
        **_SWEEP,
        "seed": 420,
        "duration_s": 30,
        "nodes": 1,
        "network_delay": {"model": "lognormal", "median_us": 150, "sigma": 0.05},
        "node_config": {**_SWEEP["node_config"], "monitor_enabled": False},
    },
    # F− infection vs cluster size: the attacker on the last node.
    "sweep-cluster-size": {
        **_SWEEP,
        "seed": 440,
        "duration_s": 180,
        "environments": _TRIAD_LIKE,
        "attacks": [_FMINUS],
    },
    # Availability vs AEX rate: every monitoring core flooded. Exchanges
    # must fit between AEXs, so calibration sleeps {0, 50 ms} (§III-C).
    "sweep-aex-rate": {
        **_SWEEP,
        "seed": 460,
        "duration_s": 300,
        "node_config": {
            **_SWEEP["node_config"],
            "calibration_sleeps_ns": [0, 50 * MILLISECOND],
            "calibration_max_attempts": 1000,
        },
        "schedule": [
            {"t_ns": 0, "primitive": "aex-flood", "params": {"node": node, "mean_us": 100_000}}
            for node in (1, 2, 3)
        ],
    },
}


def scenario_spec(
    name: str,
    seed: Optional[int] = None,
    switch_at_ns: Optional[int] = None,
    keys: Optional[dict[str, Any]] = None,
) -> ExperimentSpec:
    """The spec of canonical scenario ``name``.

    ``seed`` replaces the entry's pinned seed; ``switch_at_ns`` moves the
    honest nodes' AEX onset of the Fig. 6 entries; ``keys`` replace
    top-level keys of the entry (its ``name`` too).
    """
    raw = copy.deepcopy({"name": name, **SCENARIOS[name], **(keys or {})})
    if seed is not None:
        raw["seed"] = seed
    if switch_at_ns is not None:
        for attack in raw["attacks"]:
            if attack["type"] == "aex-onset":
                attack["at_s"] = switch_at_ns / SECOND
    return ExperimentSpec.from_dict(raw)


def fminus_propagation(
    seed: Optional[int] = None, switch_at_ns: Optional[int] = None
) -> Experiment:
    """Fig. 6 setup: F− on Node 3; honest AEX onset at ``switch_at_ns``."""
    return scenario_spec("fig6-fminus-propagation", seed, switch_at_ns).build()


def hardened_fminus_propagation(
    seed: Optional[int] = None, switch_at_ns: Optional[int] = None
) -> Experiment:
    """Fig. 6's scenario replayed against the hardened protocol."""
    return scenario_spec("hardened-fminus-propagation", seed, switch_at_ns).build()
