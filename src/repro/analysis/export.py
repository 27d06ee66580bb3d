"""Export experiment results to CSV files.

Figures in the paper are plots of simple series; this module writes those
series to disk so users can regenerate the figures with their plotting
tool of choice (the repository itself stays dependency-free). One
experiment exports as a small directory of CSVs:

``drift.csv``          reference_time_s, node, drift_ms
``frequencies.csv``    node, f_calib_mhz
``availability.csv``   node, availability
``states.csv``         node, start_s, end_s, state
``jumps.csv``          node, time_s, jump_ms, source
"""

from __future__ import annotations

from pathlib import Path
from typing import TYPE_CHECKING

from repro.analysis.metrics import forward_jumps
from repro.analysis.report import to_csv
from repro.errors import ConfigurationError
from repro.sim.units import SECOND

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.figures import DriftFigureResult


def export_drift_csv(result: "DriftFigureResult") -> str:
    """The drift series of all nodes as CSV text."""
    rows = []
    for index, node in enumerate(result.experiment.cluster.nodes, start=1):
        series = result.drift(index)
        for time_ns, drift_ns in series.samples:
            rows.append([time_ns / SECOND, node.name, drift_ns / 1e6])
    return to_csv(["reference_time_s", "node", "drift_ms"], rows)


def export_frequencies_csv(result: "DriftFigureResult") -> str:
    """Calibrated frequencies as CSV text."""
    rows = [[name, f"{mhz:.6f}"] for name, mhz in result.frequencies_mhz().items()]
    return to_csv(["node", "f_calib_mhz"], rows)


def export_availability_csv(result: "DriftFigureResult") -> str:
    """Availability per node as CSV text."""
    rows = [[name, f"{value:.6f}"] for name, value in result.availability().items()]
    return to_csv(["node", "availability"], rows)


def export_states_csv(result: "DriftFigureResult") -> str:
    """State timeline segments as CSV text (Fig. 3b's data)."""
    rows = []
    for node in result.experiment.cluster.nodes:
        for start, end, state in node.timeline.segments(result.duration_ns):
            rows.append([node.name, start / SECOND, end / SECOND, state.value])
    return to_csv(["node", "start_s", "end_s", "state"], rows)


def export_jumps_csv(result: "DriftFigureResult") -> str:
    """Forward untaint jumps as CSV text."""
    rows = []
    for node in result.experiment.cluster.nodes:
        for jump in forward_jumps(node):
            rows.append([node.name, jump.time_ns / SECOND, jump.jump_ns / 1e6, jump.source])
    return to_csv(["node", "time_s", "jump_ms", "source"], rows)


def experiment_csvs(result: "DriftFigureResult") -> dict[str, str]:
    """Every series of an experiment as CSV text, keyed by file name."""
    return {
        "drift.csv": export_drift_csv(result),
        "frequencies.csv": export_frequencies_csv(result),
        "availability.csv": export_availability_csv(result),
        "states.csv": export_states_csv(result),
        "jumps.csv": export_jumps_csv(result),
    }


def write_csvs(csvs: dict[str, str], directory: str | Path) -> list[Path]:
    """Write ``csvs`` (file name -> text) into ``directory``.

    Returns the written paths. The directory is created if missing; it
    must either not exist yet or be a directory (never a file).
    """
    target = Path(directory)
    if target.exists() and not target.is_dir():
        raise ConfigurationError(f"{target} exists and is not a directory")
    target.mkdir(parents=True, exist_ok=True)
    written = []
    for name, content in csvs.items():
        path = target / name
        path.write_text(content)
        written.append(path)
    return written
