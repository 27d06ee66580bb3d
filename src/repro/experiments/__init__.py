"""Canonical experiments reproducing every table and figure in the paper."""

from repro.experiments.figures import (
    CalibrationAblationResult,
    DriftFigureResult,
    Fig1Result,
    Fig2Result,
    Fig3Result,
    Fig6Result,
    FplusResult,
    IncMonitorResult,
    calibration_ablation,
    figure1,
    inc_monitor_experiment,
    run_experiment,
)
from repro.experiments.runner import Experiment
from repro.experiments.spec import ExperimentSpec
from repro.experiments.sweeps import SweepPoint
from repro.experiments.scenarios import (
    SCENARIOS,
    fminus_propagation,
    hardened_fminus_propagation,
    scenario_spec,
)

__all__ = [
    "CalibrationAblationResult",
    "DriftFigureResult",
    "Experiment",
    "ExperimentSpec",
    "Fig1Result",
    "Fig2Result",
    "Fig3Result",
    "Fig6Result",
    "FplusResult",
    "IncMonitorResult",
    "SCENARIOS",
    "SweepPoint",
    "calibration_ablation",
    "figure1",
    "fminus_propagation",
    "hardened_fminus_propagation",
    "inc_monitor_experiment",
    "run_experiment",
    "scenario_spec",
]
