"""Measurement probes, statistics, and report rendering."""

from repro.analysis.asciiplot import line_plot
from repro.analysis.export import experiment_csvs, write_csvs
from repro.analysis.journal import EventJournal, ProtocolEvent, node_events
from repro.analysis.metrics import (
    DriftRecorder,
    DriftSeries,
    TimeJump,
    availability,
    availability_report,
    cumulative_counts,
    forward_jumps,
    time_grid,
    unavailable_spans,
)
from repro.analysis.report import format_comparison, format_table, to_csv
from repro.analysis.stats import (
    LinearFit,
    Summary,
    cdf_at,
    drift_rate_ms_per_s,
    drift_rate_ppm,
    empirical_cdf,
    linear_fit,
    remove_outliers,
    summarize,
)
from repro.analysis.timeline import render_cluster_timelines, render_timeline

__all__ = [
    "DriftRecorder",
    "DriftSeries",
    "EventJournal",
    "ProtocolEvent",
    "LinearFit",
    "Summary",
    "TimeJump",
    "availability",
    "availability_report",
    "cdf_at",
    "cumulative_counts",
    "drift_rate_ms_per_s",
    "drift_rate_ppm",
    "empirical_cdf",
    "experiment_csvs",
    "format_comparison",
    "format_table",
    "forward_jumps",
    "line_plot",
    "linear_fit",
    "node_events",
    "remove_outliers",
    "render_cluster_timelines",
    "render_timeline",
    "summarize",
    "time_grid",
    "to_csv",
    "unavailable_spans",
    "write_csvs",
]
