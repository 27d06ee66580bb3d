"""Membership reports pinned byte for byte across commits.

Both runs are in enforce mode, so their verdicts ride on the
cryptographic cut: each epoch rotation hands the new secret to members
only, and a quarantined or evicted node's traffic stops opening. The
hashes were computed while sealing still produced cipher bytes, so they
pin the envelope model to the same outcomes. CI's ``membership-smoke``
job checks the same reports with ``sha256sum --check --strict``.
"""

import hashlib

import pytest

from repro.cli import main

PINNED = {
    # Enforce mode, 20 epoch rotations, nodes 4 and 5 leave and rejoin.
    "--attack churn --nodes 5 --duration-s 20": (
        "7a937fb8b52762b09a08b2a12171db54fcdc3dbb754e644d0291cff33a5a5534"
    ),
    # Enforce mode, 30 epoch rotations, 2 nodes evicted.
    "--oracle strict": "55f05bf9ac0ee14a97604f6b94d8ef78873a66dffef87621eb1df38a39777acb",
}


@pytest.mark.parametrize("flags", list(PINNED))
def test_report_bytes_are_pinned(tmp_path, capsys, flags):
    path = tmp_path / "report.json"
    assert main(["membership", *flags.split(), "--no-cache", "--json", str(path)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(path.read_bytes()).hexdigest() == PINNED[flags]
