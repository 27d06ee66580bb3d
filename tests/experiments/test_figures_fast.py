"""Fast-duration tests for the figure runners not covered in test_figures.

The paper-scale versions live in ``benchmarks/``; these shortened runs
keep the unit suite guarding the figure plumbing for Figs. 3, 4 and 5.
"""

import pytest

from repro.experiments.figures import run_experiment
from repro.experiments.scenarios import hardened_fminus_propagation
from repro.sim.units import MINUTE, SECOND


class TestFigure3Fast:
    @pytest.fixture(scope="class")
    def fig3(self):
        return run_experiment("fig3", seed=3, duration_ns=30 * MINUTE)

    def test_single_full_calibration(self, fig3):
        for index in (1, 2, 3):
            assert fig3.full_calib_stays(index) == 1

    def test_timing_diagram_renders(self, fig3):
        text = fig3.timing_diagram(until_ns=10 * MINUTE, width=60)
        assert "FullCalib" in text
        assert text.count("[node-") == 3

    def test_jump_extraction_returns_floats_ms(self, fig3):
        jumps = fig3.jumps_ms(2) + fig3.jumps_ms(3)
        assert all(isinstance(j, float) for j in jumps)


class TestFigure4Fast:
    @pytest.fixture(scope="class")
    def fig4(self):
        return run_experiment("fig4", seed=4, duration_ns=4 * MINUTE)

    def test_victim_skew(self, fig4):
        assert fig4.victim_frequency_skew() == pytest.approx(1.1, rel=2e-3)

    def test_victim_drift_negative_and_large(self, fig4):
        assert fig4.victim_min_drift_ms() < -1000

    def test_honest_frequencies_sane(self, fig4):
        frequencies = fig4.frequencies_mhz()
        for name in ("node-1", "node-2"):
            assert frequencies[name] == pytest.approx(2899.999, abs=1.5)

    def test_drift_rate_helper(self, fig4):
        rate = fig4.drift_rate_ms_per_s(3, start_ns=30 * SECOND, end_ns=3 * MINUTE)
        assert rate == pytest.approx(-91, abs=4)


class TestFigure5Fast:
    @pytest.fixture(scope="class")
    def fig5(self):
        return run_experiment("fig5", seed=5, duration_ns=4 * MINUTE)

    def test_same_tilt_different_dynamics(self, fig5):
        assert fig5.victim_frequency_skew() == pytest.approx(1.1, rel=2e-3)
        # Bounded oscillation, not runaway.
        assert -250 < fig5.victim_min_drift_ms() < -80
        assert fig5.drift(3).final_drift_ns() > -300 * 1_000_000

    def test_render_smoke(self, fig5):
        assert "F_calib_MHz" in fig5.render("fig5")


class TestFigure6HardenedFast:
    def test_hardened_variant_runs_and_protects(self):
        result = hardened_fminus_propagation(seed=6, switch_at_ns=60 * SECOND).run(3 * MINUTE)
        for index in (1, 2):
            assert abs(result.drift(index).final_drift_ns()) < 100 * 1_000_000
