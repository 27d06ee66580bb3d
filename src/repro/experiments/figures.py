"""Figure/table reproduction: run a scenario, reduce to the paper's series.

:data:`EXPERIMENTS` has one row per paper artefact. A drift figure's row
(Figs. 2-6 and Fig. 6 against the §V hardening) names its
:data:`~repro.experiments.scenarios.SCENARIOS` entry — the one place its
seed, duration and AEX onset are written — and its result class; the
other rows (Fig. 1, the INC table, the calibration ablation) name a
function with a built-in seed and span. Each result is a small dataclass
holding exactly the data the figure plots (or the table lists) plus a
``render()`` producing terminal output in the same shape;
:func:`run_experiment` and :func:`render_result` run and print any row.
The benchmark files under ``benchmarks/`` call these and assert the
qualitative claims.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.analysis.metrics import (
    DriftSeries,
    availability_report,
    cumulative_counts,
    forward_jumps,
    time_grid,
)
from repro.analysis.report import format_table
from repro.analysis.stats import (
    Summary,
    drift_rate_ms_per_s,
    empirical_cdf,
    remove_outliers,
    summarize,
)
from repro.analysis.timeline import render_cluster_timelines
from repro.core.calibration import MeanOnlyCalibrator, RegressionCalibrator
from repro.core.cluster import ClusterConfig
from repro.experiments.runner import Experiment
from repro.experiments.scenarios import scenario_spec
from repro.experiments.spec import ExperimentSpec
from repro.hardware.aex import IsolatedCoreAexDelays, TriadLikeAexDelays
from repro.hardware.cpu import CpuCore
from repro.hardware.monitor import IncMonitor, PAPER_WINDOW_TICKS
from repro.hardware.tsc import PAPER_TSC_FREQUENCY_HZ, TimestampCounter
from repro.sim.kernel import Simulator
from repro.sim.units import HOUR, SECOND


# -- Figure 1: inter-AEX delay CDFs ------------------------------------------------


@dataclass
class Fig1Result:
    """Empirical CDFs of inter-AEX delays for both environments."""

    triad_like_delays_ns: list[int]
    low_aex_delays_ns: list[int]

    def triad_like_cdf(self) -> tuple[list[float], list[float]]:
        return empirical_cdf(self.triad_like_delays_ns)

    def low_aex_cdf(self) -> tuple[list[float], list[float]]:
        return empirical_cdf(self.low_aex_delays_ns)

    def render(self) -> str:
        rows = []
        for name, delays in (
            ("Fig1a Triad-like", self.triad_like_delays_ns),
            ("Fig1b low-AEX", self.low_aex_delays_ns),
        ):
            summary = summarize(delays)
            rows.append(
                [
                    name,
                    len(delays),
                    f"{summary.median / 1e6:.1f}",
                    f"{summary.mean / 1e6:.1f}",
                    f"{summary.minimum / 1e6:.1f}",
                    f"{summary.maximum / 1e6:.1f}",
                ]
            )
        return format_table(
            ["distribution", "samples", "median_ms", "mean_ms", "min_ms", "max_ms"],
            rows,
            title="Figure 1: inter-AEX delay distributions",
        )


def _sample_aex_delays(seed: int, distribution, rng_name: str, samples: int) -> list[int]:
    """Collect ``samples`` inter-AEX delays from a real source on a port."""
    from repro.hardware.aex import AexPort, AexSource

    sim = Simulator(seed=seed)
    port = AexPort(sim, core_index=0)
    source = AexSource(sim, port, distribution, rng_name=rng_name)
    while len(port.history) < samples + 1:
        sim.step()
    source.pause()
    return port.inter_aex_delays_ns()[:samples]


def figure1(seed: int = 1, samples: int = 10_000) -> Fig1Result:
    """Sample both AEX environments through real AEX sources.

    Uses in-simulation sources firing on ports (not bare distribution
    draws), so the measured delays exercise the full delivery machinery.
    Each environment runs in its own simulator so the slow isolated-core
    stream does not force millions of Triad-like events.
    """
    return Fig1Result(
        triad_like_delays_ns=_sample_aex_delays(
            seed, TriadLikeAexDelays(), "fig1/triad-like", samples
        ),
        low_aex_delays_ns=_sample_aex_delays(
            seed + 1, IsolatedCoreAexDelays(), "fig1/low-aex", samples
        ),
    )


# -- §IV-A1: INC-monitoring table -----------------------------------------------------


@dataclass
class IncMonitorResult:
    """The 10k-window INC-count experiment of §IV-A1."""

    counts: list[int]
    raw: Summary
    cleaned: Summary
    outliers: list[int]

    def render(self) -> str:
        rows = [
            ["raw", self.raw.count, f"{self.raw.mean:.1f}", f"{self.raw.std:.1f}",
             f"{self.raw.value_range:.0f}"],
            ["outliers removed", self.cleaned.count, f"{self.cleaned.mean:.1f}",
             f"{self.cleaned.std:.1f}", f"{self.cleaned.value_range:.0f}"],
        ]
        table = format_table(
            ["sample", "n", "mean_INC", "std_INC", "range_INC"],
            rows,
            title="S IV-A1: INC counts per 15e6-tick TSC window (paper: 632181/109.5 raw, 632182/2.9 cleaned)",
        )
        return table + f"\noutliers: {self.outliers}"


def inc_monitor_experiment(seed: int = 8, samples: int = 10_000) -> IncMonitorResult:
    """Reproduce the fixed-frequency INC-count measurement."""
    sim = Simulator(seed=seed)
    tsc = TimestampCounter(sim, frequency_hz=PAPER_TSC_FREQUENCY_HZ)
    core = CpuCore(index=0)  # performance governor: 3.5 GHz
    monitor = IncMonitor(sim, tsc, core, rng_name="inc-experiment")
    counts: list[int] = []

    def runner():
        for _ in range(samples):
            measurement = yield from monitor.measure(PAPER_WINDOW_TICKS)
            counts.append(measurement.inc_count)

    sim.process(runner())
    sim.run()
    raw = summarize(counts)
    cleaned_values = remove_outliers(counts)
    cleaned = summarize(cleaned_values)
    kept = set()
    outliers = []
    cleaned_pool = list(cleaned_values)
    for value in counts:
        if value in kept:
            continue
        if value in cleaned_pool:
            cleaned_pool.remove(value)
        else:
            outliers.append(value)
    return IncMonitorResult(counts=counts, raw=raw, cleaned=cleaned, outliers=outliers)


# -- drift-figure result shared by Figs. 2-6 ------------------------------------------------


@dataclass
class DriftFigureResult:
    """Common reduction of a drift experiment."""

    experiment: Experiment
    duration_ns: int

    @classmethod
    def of(cls, spec: ExperimentSpec, experiment: Experiment, duration_ns: int):
        """``experiment``, built from ``spec``, after a run of ``duration_ns``."""
        return cls(experiment=experiment, duration_ns=duration_ns)

    def drift(self, index: int) -> DriftSeries:
        return self.experiment.drift(index)

    def frequencies_mhz(self) -> dict[str, float]:
        return {
            node.name: self.experiment.frequency_mhz(i + 1)
            for i, node in enumerate(self.experiment.cluster.nodes)
        }

    def availability(self) -> dict[str, float]:
        return availability_report(self.experiment.cluster.nodes, self.duration_ns)

    def drift_rate_ms_per_s(self, index: int, start_ns: int = 0, end_ns: Optional[int] = None) -> float:
        series = self.drift(index).window(start_ns, end_ns or self.duration_ns)
        return drift_rate_ms_per_s(series)

    def render(self, title: str) -> str:
        rows = []
        availability = self.availability()
        for i, node in enumerate(self.experiment.cluster.nodes, start=1):
            series = self.drift(i)
            final = series.final_drift_ns() / 1e6 if series.samples else float("nan")
            frequency_hz = node.stats.latest_frequency_hz  # None: never calibrated
            rows.append(
                [
                    node.name,
                    "-" if frequency_hz is None else f"{frequency_hz / 1e6:.3f}",
                    f"{final:.3f}",
                    f"{availability[node.name] * 100:.2f}%",
                    node.stats.aex_count,
                    node.stats.ta_references,
                    node.stats.peer_untaints,
                ]
            )
        return format_table(
            ["node", "F_calib_MHz", "final_drift_ms", "availability", "AEXs", "TA_refs", "peer_untaints"],
            rows,
            title=title,
        )


# -- Figure 2 -------------------------------------------------------------------------------


@dataclass
class Fig2Result(DriftFigureResult):
    """Fig. 2a drift series plus Fig. 2b TA-reference counts."""

    def ta_reference_series(self, index: int, step_ns: int = 10 * SECOND) -> list[tuple[int, int]]:
        node = self.experiment.node(index)
        grid = time_grid(self.duration_ns, step_ns)
        counts = cumulative_counts(node.stats.ta_reference_times_ns, grid)
        return list(zip(grid, counts))


# -- Figure 3 ----------------------------------------------------------------------------------


@dataclass
class Fig3Result(DriftFigureResult):
    """Fig. 3a drift + jumps, Fig. 3b state timing diagram."""

    def jumps_ms(self, index: int, min_jump_ns: int = 1_000_000) -> list[float]:
        """Forward peer-untaint jumps ≥ 1 ms (paper: 50-70 ms)."""
        return [
            jump.jump_ns / 1e6
            for jump in forward_jumps(self.experiment.node(index), min_jump_ns)
            if jump.source.startswith("peer")
        ]

    def full_calib_stays(self, index: int) -> int:
        from repro.core.states import NodeState

        return self.experiment.node(index).timeline.count_stays(NodeState.FULL_CALIB)

    def timing_diagram(self, until_ns: int = HOUR, width: int = 100) -> str:
        return render_cluster_timelines(self.experiment.cluster.nodes, until_ns, width=width)


# -- Figures 4 & 5 (F+ attack) ---------------------------------------------------------------------


@dataclass
class FplusResult(DriftFigureResult):
    """F+ attack reduction: victim skew and drift behaviour."""

    def victim_frequency_skew(self) -> float:
        """F₃ᶜᵃˡ / F_tsc (paper: ≈1.1 with the 100 ms / 1 s attack)."""
        f3 = self.experiment.node(3).stats.latest_frequency_hz
        assert f3 is not None
        return f3 / self.experiment.cluster.machine.tsc.frequency_hz

    def victim_min_drift_ms(self) -> float:
        return min(self.drift(3).drifts_ms())


# -- Figure 6 (F− attack & propagation) ---------------------------------------------------------------


@dataclass
class Fig6Result(DriftFigureResult):
    """Fig. 6a drift + honest-node jumps, Fig. 6b AEX counts."""

    #: the honest nodes' AEX onset (the paper's dashed red line).
    switch_at_ns: int

    @classmethod
    def of(cls, spec: ExperimentSpec, experiment: Experiment, duration_ns: int):
        (onset,) = [attack for attack in spec.attacks if attack["type"] == "aex-onset"]
        switch_at_ns = int(onset["at_s"] * SECOND)
        return cls(experiment=experiment, duration_ns=duration_ns, switch_at_ns=switch_at_ns)

    def aex_count_series(self, index: int, step_ns: int = 5 * SECOND) -> list[tuple[int, int]]:
        node = self.experiment.node(index)
        grid = time_grid(self.duration_ns, step_ns)
        counts = cumulative_counts(node.stats.aex_times_ns, grid)
        return list(zip(grid, counts))

    def honest_jumps_after_switch_ms(self, index: int) -> list[float]:
        """Forward peer-untaint jumps of an honest node after the switch."""
        return [
            jump.jump_ns / 1e6
            for jump in forward_jumps(self.experiment.node(index), min_jump_ns=1_000_000)
            if jump.time_ns >= self.switch_at_ns and jump.source.startswith("peer")
        ]

    def victim_frequency_skew(self) -> float:
        """F₃ᶜᵃˡ / F_tsc (paper: ≈0.9 → 2610 MHz)."""
        f3 = self.experiment.node(3).stats.latest_frequency_hz
        assert f3 is not None
        return f3 / self.experiment.cluster.machine.tsc.frequency_hz


# -- ablation: regression vs mean-only calibration (§III-C) ------------------------------------------------


@dataclass
class CalibrationAblationResult:
    """F_calib error of the paper's estimator vs the mean-only strawman."""

    true_frequency_hz: float
    regression_frequency_hz: float
    mean_only_frequency_hz: float

    @property
    def regression_error_ppm(self) -> float:
        return (self.regression_frequency_hz / self.true_frequency_hz - 1.0) * 1e6

    @property
    def mean_only_error_ppm(self) -> float:
        return (self.mean_only_frequency_hz / self.true_frequency_hz - 1.0) * 1e6

    def render(self) -> str:
        rows = [
            ["regression (Triad)", f"{self.regression_frequency_hz / 1e6:.4f}",
             f"{self.regression_error_ppm:+.1f}"],
            ["mean-only (strawman)", f"{self.mean_only_frequency_hz / 1e6:.4f}",
             f"{self.mean_only_error_ppm:+.1f}"],
        ]
        return format_table(
            ["estimator", "F_calib_MHz", "error_ppm"],
            rows,
            title=f"ABL-CAL: calibration estimators (true F = {self.true_frequency_hz / 1e6:.4f} MHz)",
        )


def calibration_ablation(seed: int = 9, rounds: int = 8) -> CalibrationAblationResult:
    """Run two single-node calibrations differing only in the estimator.

    The mean-only estimator must land strictly above the true frequency
    (it books the roundtrip as sleep time); regression stays within honest
    jitter of the truth.
    """
    results: dict[str, float] = {}
    for label, calibrator in (
        ("regression", RegressionCalibrator()),
        ("mean-only", MeanOnlyCalibrator()),
    ):
        sim = Simulator(seed=seed)
        from repro.core.cluster import TriadCluster
        from repro.core.node import TriadNodeConfig

        config = ClusterConfig(
            node_count=1,
            node_config=TriadNodeConfig(calibration_rounds=rounds, monitor_enabled=False),
            calibrators=[calibrator],
        )
        cluster = TriadCluster(sim, config)
        sim.run(until=60 * SECOND)
        frequency = cluster.node(1).stats.latest_frequency_hz
        assert frequency is not None
        results[label] = frequency
        true_frequency = cluster.machine.tsc.frequency_hz
    return CalibrationAblationResult(
        true_frequency_hz=true_frequency,
        regression_frequency_hz=results["regression"],
        mean_only_frequency_hz=results["mean-only"],
    )


# -- the canonical experiment registry ------------------------------------------------------------


@dataclass(frozen=True)
class FixedExperiment:
    """A registry row with a built-in seed and span: ``run`` ignores both knobs."""

    description: str
    runner: Callable[[], Any]
    duration_ns = None

    def run(self, seed: Optional[int], duration_ns: Optional[int]):
        return self.runner()

    def render(self, result) -> str:
        return result.render()


@dataclass(frozen=True)
class DriftFigure:
    """A registry row naming its :data:`~repro.experiments.scenarios.SCENARIOS`
    entry, which pins its seed, duration and (Fig. 6) AEX onset."""

    description: str
    scenario: str
    result: type[DriftFigureResult]

    @property
    def duration_ns(self) -> int:
        return scenario_spec(self.scenario).duration_ns

    def run(self, seed: Optional[int], duration_ns: Optional[int]) -> DriftFigureResult:
        spec = scenario_spec(self.scenario, seed)
        duration_ns = spec.duration_ns if duration_ns is None else duration_ns
        return self.result.of(spec, spec.build().run(duration_ns), duration_ns)

    def render(self, result: DriftFigureResult) -> str:
        return result.render(self.description)


#: Experiment name -> registry row.
EXPERIMENTS: dict[str, FixedExperiment | DriftFigure] = {
    "fig1": FixedExperiment("Fig. 1a/1b inter-AEX delay CDFs", figure1),
    "inc": FixedExperiment("S IV-A1 INC-monitoring table", inc_monitor_experiment),
    "fig2": DriftFigure(
        "Fig. 2 fault-free, Triad-like AEXs", "fig2-fault-free-triad-like", Fig2Result
    ),
    "fig3": DriftFigure("Fig. 3 fault-free, low-AEX (8h)", "fig3-fault-free-low-aex", Fig3Result),
    "fig4": DriftFigure("Fig. 4 F+ attack, low-AEX victim", "fig4-fplus-low-aex", FplusResult),
    "fig5": DriftFigure("Fig. 5 F+ attack, Triad-like AEXs", "fig5-fplus-triad-like", FplusResult),
    "fig6": DriftFigure("Fig. 6 F- attack & propagation", "fig6-fminus-propagation", Fig6Result),
    "fig6-hardened": DriftFigure(
        "Fig. 6 scenario vs S V hardening", "hardened-fminus-propagation", Fig6Result
    ),
    "ablation": FixedExperiment("ABL-CAL calibration estimators", calibration_ablation),
}


def run_experiment(name: str, seed: Optional[int] = None, duration_ns: Optional[int] = None):
    """Run one registered experiment (its defaults where ``None``)."""
    return EXPERIMENTS[name].run(seed, duration_ns)


def render_result(name: str, result) -> str:
    """An experiment's tables, in the form its registry row declares."""
    return EXPERIMENTS[name].render(result)
