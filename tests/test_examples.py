"""Smoke tests executing every example script end-to-end.

Examples are documentation that compiles; these tests keep them honest.
Each script runs via ``runpy`` with stdout captured, and the test asserts
the landmark output lines that make the example's point.
"""

import runpy
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parents[1] / "examples"


def run_example(name: str, capsys) -> str:
    runpy.run_path(str(EXAMPLES_DIR / name), run_name="__main__")
    return capsys.readouterr().out


class TestExamples:
    def test_quickstart(self, capsys):
        out = run_example("quickstart.py", capsys)
        assert "node-1" in out
        assert "strictly monotonic: True" in out
        assert "a fresh trusted timestamp" in out

    def test_fminus_propagation(self, capsys):
        out = run_example("fminus_propagation.py", capsys)
        assert "adopted from peer:node-3" in out
        assert "in the future" in out
        assert "protocol event journal" in out

    def test_hardened_cluster(self, capsys):
        out = run_example("hardened_cluster.py", capsys)
        assert "baseline drift" in out
        assert "true-chimers" in out
        # The comparison table shows the honest node saved by hardening.
        assert "node-1 (honest)" in out

    def test_applications_under_attack(self, capsys):
        out = run_example("applications_under_attack.py", capsys)
        assert "lease double-grants" in out
        assert "S5 hardened" in out

    @pytest.mark.slow
    def test_calibration_attack_lab(self, capsys):
        out = run_example("calibration_attack_lab.py", capsys)
        assert "skew_predicted" in out
        assert "mean-only" in out

    @pytest.mark.slow
    def test_reproduce_paper_quick(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.argv", ["reproduce_paper.py", "--quick"])
        out = run_example("reproduce_paper.py", capsys)
        assert "PAPER vs MEASURED summary" in out
        assert "[match]" in out
