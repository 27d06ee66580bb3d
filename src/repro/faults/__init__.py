"""Deterministic fault-injection plane (crash/restart, TA outage, partitions).

The paper's security analysis asks how Triad behaves under an *adversary*;
this package asks the complementary robustness question: how does the
protocol behave under ordinary infrastructure faults — an enclave that
crashes and cold-boots with full TEE state loss, a Time Authority that
goes dark or flaps, a network that partitions or sheds packets — and how
quickly does it *recover* once the faults heal?

Two pieces:

* :class:`FaultPlan` and :func:`apply_fault_plan` (``plan.py``) — the
  ``faults`` block of a spec: a validated, JSON-serializable fault
  schedule plus the recovery contract (deadline) and retry-policy
  overrides. The fault kinds (crash/restart, TA down/up, partition
  open/heal, loss-burst windows) are rows of the timed-action table in
  :mod:`repro.attacks.scheduler`, which validates and applies them;
  applying a plan also overrides every node's retry policy and arms the
  oracle's ``recovery`` invariant at the last heal instant.
* :func:`recovery_report` (``recovery.py``) — the deterministic MTTR /
  recovery summary read off the cluster's fault journal and per-node
  state timelines after the run.
"""

from repro.faults.plan import FAULT_KINDS, FaultPlan, apply_fault_plan
from repro.faults.recovery import recovery_report, render_recovery_report

__all__ = [
    "FAULT_KINDS",
    "FaultPlan",
    "apply_fault_plan",
    "recovery_report",
    "render_recovery_report",
]
