"""Allowance matching: which violations a run was built to cause.

The oracle's strict mode fails a run on any violation outside its
allowance. For benign runs the allowance is empty; for the paper's
attack scenarios the violations *are* the result — fig4's victim drifting
out of bound is the experiment working, not the oracle misfiring. The
allowance lives on the oracle (:attr:`InvariantOracle.allowed
<repro.oracle.oracle.InvariantOracle.allowed>`): whatever breaks an
invariant on purpose — a timed action (``docs/actions.md``), a sweep
point's hand-wired attacker, a membership quarantine — calls
:meth:`~repro.oracle.oracle.InvariantOracle.allow` where it acts.

Entries are ``(node, invariant)`` pairs; ``"*"`` as the node matches any
node (used where an attack's blast radius is deliberately unbounded, e.g.
the F− propagation cascade). Allowances are not obligations: a run
producing fewer violations than allowed still passes strict mode. Exact
conformance — allowed violations must actually occur — is asserted by the
golden-trace suite under ``tests/golden/``.
"""

from __future__ import annotations

from typing import Collection

#: node wildcard accepted in allowed pairs.
ANY_NODE = "*"


def is_expected(key: tuple[str, str], allowed: Collection[tuple[str, str]]) -> bool:
    """Whether a (node, invariant) pair is covered by ``allowed``."""
    return key in allowed or (ANY_NODE, key[1]) in allowed
