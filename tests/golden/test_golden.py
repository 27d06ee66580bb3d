"""Golden-trace conformance: scenarios must reproduce their snapshots.

Each test replays one canonical scenario (pinned seed, deterministic
kernel) and compares the oracle's full violation trace against the
snapshot in ``tests/golden/<id>.json``. A mismatch means protocol or
oracle behaviour changed; the observed capture is written to
``tests/golden/_diff/`` (uploaded as a CI artifact) so the change can be
reviewed, and the snapshot is regenerated with::

    PYTHONPATH=src python -m tests.golden.golden_traces <id>
"""

import pytest

from tests.golden.golden_traces import (
    SCENARIOS,
    capture,
    golden_path,
    load_golden,
    write_diff_artifact,
)

REGEN_HINT = "regenerate with: PYTHONPATH=src python -m tests.golden.golden_traces"


@pytest.mark.parametrize("scenario_id", sorted(SCENARIOS))
def test_golden_trace(scenario_id):
    path = golden_path(scenario_id)
    assert path.exists(), f"missing snapshot {path} — {REGEN_HINT} {scenario_id}"
    expected = load_golden(scenario_id)
    observed = capture(scenario_id)
    if observed != expected:
        artifact = write_diff_artifact(scenario_id, observed)
        differing = sorted(k for k in observed if observed[k] != expected.get(k))
        pytest.fail(
            f"golden trace {scenario_id!r} diverged in {differing} "
            f"(observed capture written to {artifact}); if the change is "
            f"intentional, {REGEN_HINT} {scenario_id}"
        )


@pytest.mark.parametrize("scenario_id", sorted(SCENARIOS))
def test_golden_traces_have_no_unexpected_violations(scenario_id):
    """Every snapshot's violations stay inside the oracle's allowance.

    This is what makes ``--oracle strict`` green on the canonical
    scenarios: the attacks violate exactly what they allowed the oracle
    as they were applied, nothing else.
    """
    golden = load_golden(scenario_id)
    assert golden["unexpected"] == []


def test_benign_golden_is_violation_free():
    assert load_golden("benign")["violations"] == []


def test_attack_goldens_flag_the_victim():
    """F+/F- snapshots carry the paper's attack signature."""
    for scenario_id in ("fplus", "fminus"):
        pairs = {tuple(p) for p in load_golden(scenario_id)["violation_pairs"]}
        assert ("node-3", "drift-bound") in pairs
        assert ("node-3", "state-soundness") in pairs


def test_propagation_golden_shows_the_cascade():
    """The long fig6 run infects the honest nodes (untaint-safety fires)."""
    pairs = {tuple(p) for p in load_golden("propagation")["violation_pairs"]}
    assert ("node-1", "untaint-safety") in pairs
    assert ("node-2", "untaint-safety") in pairs
    assert ("node-1", "drift-bound") in pairs


def test_dos_golden_is_freshness_only():
    """TA blackhole starves refresh on every node but never corrupts time."""
    golden = load_golden("dos")
    pairs = {tuple(p) for p in golden["violation_pairs"]}
    assert pairs == {(f"node-{i}", "freshness") for i in (1, 2, 3)}
