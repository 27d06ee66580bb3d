"""Attacks on the Triad protocol, as analysed in the paper.

* :class:`CalibrationDelayAttacker` — the F+ / F− delay attacks on the
  TSC-rate calibration (§III-C), the paper's main contribution.
* :class:`AexSuppressionAttack` — the OS scheduling attack controlling
  *when* nodes refresh (§III-A, Fig. 4/6).
* :class:`TscScaleAttack` / :class:`TscOffsetAttack` — hypervisor TSC
  manipulation, which the INC monitor detects (§IV-A1).
* :data:`~repro.attacks.scheduler.ACTIONS` — the timed-action table every
  attack, fault and churn entry is validated and applied through, plus
  :func:`at`, its scripted-timeline helper.
"""

from repro.attacks.byzantine import ByzantineStats, ByzantineTriadNode, LIE_STRATEGIES
from repro.attacks.delay import AttackMode, CalibrationDelayAttacker
from repro.attacks.dos import TaBlackholeAttack
from repro.attacks.scheduler import AexSuppressionAttack, at
from repro.attacks.tscattack import TscOffsetAttack, TscScaleAttack

__all__ = [
    "AexSuppressionAttack",
    "AttackMode",
    "ByzantineStats",
    "ByzantineTriadNode",
    "CalibrationDelayAttacker",
    "LIE_STRATEGIES",
    "TaBlackholeAttack",
    "TscOffsetAttack",
    "TscScaleAttack",
    "at",
]
