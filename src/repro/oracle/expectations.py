"""Expected violation sets: what a run *should* trip.

The oracle's strict mode fails a run on any violation that is not
expected. For benign runs the expected set is empty; for the paper's
attack scenarios the violations *are* the result — fig4's victim drifting
out of bound is the experiment working, not the oracle misfiring. A
wired :class:`~repro.experiments.runner.Experiment` gets its set from the
timed actions it applies: each declares the pairs it is built to cause
(``docs/actions.md``). Bare-cluster fleet tasks apply no actions, so the
sweep families keep their allowance here, matched by task-name prefix.

Entries are ``(node, invariant)`` pairs; ``"*"`` as the node matches any
node (used where an attack's blast radius is deliberately unbounded, e.g.
the F− propagation cascade). Expected sets are *allowances*, not
obligations: a run producing fewer violations than expected still passes
strict mode. Exact conformance — expected violations must actually occur —
is asserted by the golden-trace suite under ``tests/golden/``.
"""

from __future__ import annotations

from typing import Iterable

#: node wildcard accepted in expected pairs.
ANY_NODE = "*"

#: Violations the compromised node of a calibration-delay attack produces:
#: its clock free-runs on a skewed F_calib while reporting OK.
_VICTIM = frozenset({("node-3", "drift-bound"), ("node-3", "state-soundness")})

#: Violations of an unbounded propagation cascade: any node may end up
#: out of bound, serving while out of bound, or adopting an out-of-bound
#: peer's timestamp.
_CASCADE = frozenset(
    {
        (ANY_NODE, "drift-bound"),
        (ANY_NODE, "state-soundness"),
        (ANY_NODE, "untaint-safety"),
    }
)

#: Task-name prefix -> expected pairs, for bare-cluster fleet tasks, which
#: apply no timed actions (sweep points are named ``<sweep>/<point>``).
PREFIX_EXPECTATIONS: dict[str, frozenset[tuple[str, str]]] = {
    # attack-delay sweep points attack node-3 with F+/F−.
    "attack-delay/": _VICTIM,
    # cluster-size sweep measures the F− infection itself.
    "cluster-size/": _CASCADE,
}


def expected_for(name: str) -> frozenset[tuple[str, str]]:
    """Expected violation pairs for a fleet task name (empty default)."""
    for prefix, expected in PREFIX_EXPECTATIONS.items():
        if name.startswith(prefix):
            return expected
    return frozenset()


def is_expected(key: tuple[str, str], expected: Iterable[tuple[str, str]]) -> bool:
    """Whether a (node, invariant) pair is covered by ``expected``."""
    node, invariant = key
    expected = set(expected)
    return (node, invariant) in expected or (ANY_NODE, invariant) in expected


def unexpected_keys(
    keys: Iterable[tuple[str, str]], expected: Iterable[tuple[str, str]]
) -> set[tuple[str, str]]:
    """The subset of ``keys`` not covered by ``expected``."""
    expected = set(expected)
    return {key for key in keys if not is_expected(key, expected)}
