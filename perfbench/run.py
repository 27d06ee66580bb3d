"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload paper-attacks --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

``--trace 0`` times repetitions of the workload for ``--seconds`` after
one untimed warm-up repetition and reports the end-to-end metrics, with
host time scaled to the reference host speed (``REFERENCE_LOOP_MS``).
``--trace 1`` does the same untimed-by-tracing repetitions, then two more
with every layer wrapped (see ``spans.py``) and reports the per-layer
split. Every unit's outputs are checked and digested; a unit that raises,
misses a check, or whose digest differs from the warm-up's is a failure.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--workload all`` runs each workload in its own process (so each peak
RSS is its own), prints every one's metrics, and with ``--trace 1`` checks
the cross-workload expectations of the layer split.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("paper-attacks", "membership-mesh", "service-faults")
#: The host reference loop's time, in ms, on the host the first baseline
#: was taken on, in a quiet spell. Time-based end-to-end metrics are
#: scaled to this host speed, so runs made while a shared host is slower
#: (or on another host) stay comparable.
REFERENCE_LOOP_MS = 40.0


@dataclass
class Rep:
    """One repetition of a workload: every unit once."""

    setup_s: float = 0.0
    run_s: float = 0.0
    sim_s: float = 0.0
    facts: dict = field(default_factory=dict)
    layer: Counter = field(default_factory=Counter)

    @property
    def wall_s(self) -> float:
        return self.setup_s + self.run_s


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)


def run_rep(units, reference: dict, tally: Tally, after_unit=None) -> Rep:
    """Run every unit once; check it and compare its digest to ``reference``."""
    from workloads import digest

    rep = Rep()
    for unit in units:
        tally.attempted += 1
        started = time.perf_counter()
        try:
            state = unit.build()
            built = time.perf_counter()
            state = unit.run(state)
            finished = time.perf_counter()
            outputs = unit.extract(state)
        except Exception:  # noqa: BLE001 - a failing unit is counted, not fatal
            tally.failed += 1
            tally.problems.append(f"{unit.name}: raised\n{traceback.format_exc()}")
            continue
        finally:
            state = None
            if after_unit is not None:
                after_unit(rep)
        rep.setup_s += built - started
        rep.run_s += finished - built
        rep.sim_s += unit.sim_s
        rep.facts[unit.name] = outputs["facts"]
        rep.layer.update(outputs["layer"])
        unit_digest = digest(outputs["digest"])
        problems = unit.check(outputs["facts"])
        if reference.setdefault(unit.name, unit_digest) != unit_digest:
            problems.append(
                f"digest {unit_digest[:16]} differs from {reference[unit.name][:16]}"
            )
        if problems:
            tally.failed += 1
            tally.problems.extend(f"{unit.name}: {problem}" for problem in problems)
    return rep


def faster_half_median(rates: list) -> float:
    """Median of the faster half of the repetitions' rates.

    Interference from other work on the host only ever slows a
    repetition, and on shared hosts it comes in spells that can cover
    several repetitions; the faster half estimates the undisturbed
    speed, and its median keeps one lucky repetition from setting it.
    """
    ordered = sorted(rates, reverse=True)
    return statistics.median(ordered[: (len(ordered) + 1) // 2])


def host_reference_ms(rounds: int = 5) -> float:
    """Median time of a fixed pure-Python loop: a yardstick of host speed."""
    times = []
    for _ in range(rounds):
        started = time.perf_counter()
        table: dict = {}
        acc = 0
        for i in range(300_000):
            table[i & 4095] = acc
            acc = (acc + i * 31) % 1_000_003
        times.append((time.perf_counter() - started) * 1e3)
    return statistics.median(times)


def measure(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, Tally, list]:
    import spans
    from repro.fleet.tasks import peak_rss_kb
    from workloads import WORKLOADS, fidelity_lines

    units = WORKLOADS[name](seed)
    reference: dict = {}
    tally = Tally()
    notes = []
    warm = run_rep(units, reference, tally)
    leftover = spans.installed_wrappers()
    if leftover:
        raise RuntimeError(f"tracing wrappers present before timing: {leftover}")

    reps = []
    # The yardstick is sampled between repetitions, so it sees the host
    # speed of the same spell the repetitions ran in.
    yardstick = [host_reference_ms(1)]
    deadline = time.perf_counter() + seconds
    while True:
        gc.collect()
        reps.append(run_rep(units, reference, tally))
        yardstick.append(host_reference_ms(1))
        if time.perf_counter() >= deadline:
            break
    host_ms = statistics.median(yardstick)
    notes.append(f"{len(reps)} timed repetition(s) after 1 warm-up; {len(units)} unit(s) each")
    for unit in units:
        notes.append(f"unit {unit.name:<20} digest {reference.get(unit.name, '-')[:16]}")
    notes.append(f"digest {name}: {workload_digest(reference)}")
    if len(warm.facts) == len(units):
        notes.extend("fidelity: " + line for line in fidelity_lines(name, warm.facts))
    notes.append(f"host reference loop: {host_ms:.2f} ms (median of {len(yardstick)} samples)")

    if not trace:
        rate = faster_half_median([rep.sim_s / rep.run_s for rep in reps if rep.run_s])
        setup_s = statistics.median(rep.setup_s for rep in reps)
        notes.append(f"unscaled: sim_s_per_wall_s {rate:.6f} sim_s/s, setup_s {setup_s:.6f} s")
        slowdown = host_ms / REFERENCE_LOOP_MS
        metrics = {
            "sim_s_per_wall_s": (rate * slowdown, "sim_s/s"),
            "setup_s": (setup_s / slowdown, "s"),
            "peak_rss_mb": (peak_rss_kb() / 1024.0, "MB"),
        }
        return metrics, tally, notes

    untraced_wall_s = statistics.median(rep.wall_s for rep in reps)
    tracer = spans.Tracer()
    snapshots = []
    try:
        tracer.install()
        problems = spans.check_patch_sites(tracer)
        for _ in range(2):
            gc.collect()
            tracer.reset()
            found: Counter = Counter()

            def after_unit(_rep, found=found):
                spans.harvest(tracer.clusters, found)
                tracer.clusters.clear()

            rep = run_rep(units, reference, tally, after_unit=after_unit)
            found.update(rep.layer)
            snapshot = tracer.snapshot()
            snapshot["harvest"] = dict(found)
            snapshot["wall_s"] = rep.wall_s
            problems += spans.check_accounting(tracer, snapshot)
            snapshots.append(snapshot)
    finally:
        tracer.uninstall()
    leftover = spans.installed_wrappers()
    if leftover:
        problems.append(f"wrappers not restored: {leftover}")
    first, second = (spans.exact_counts(snap) for snap in snapshots)
    if first != second:
        differing = sorted(k for k in set(first) | set(second) if first.get(k) != second.get(k))
        problems.append(f"counts differ between the two traced runs: {differing[:10]}")
    if problems:
        tally.failed += 1
        tally.problems.extend(f"tracing: {problem}" for problem in problems)
    return spans.layer_metrics(snapshots, untraced_wall_s, host_ms), tally, notes


def workload_digest(reference: dict) -> str:
    """One digest over the workload's unit digests (in unit-name order)."""
    from workloads import digest

    return digest(sorted(reference.items()))[:16]


def run_one(args) -> int:
    source = ROOT / "src"
    sys.path.insert(0, str(source))
    try:
        import repro  # the program under test, from this checkout's sources
    except ImportError as exc:
        print(f"perfbench: cannot import repro from {source}: {exc}", file=sys.stderr)
        return 2
    if source not in Path(repro.__file__).resolve().parents:
        print(f"perfbench: repro was imported from {repro.__file__}, not {source}", file=sys.stderr)
        return 2
    metrics, tally, notes = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for note in notes:
        print(f"  {note}")
    for problem in tally.problems:
        print(f"  FAILED {problem}")
    for metric, (value, unit) in metrics.items():
        shown = f"{value:>16d}" if isinstance(value, int) else f"{value:>16.6f}"
        print(f"  {metric:<34} {shown} {unit}")
    error_rate = tally.failed / tally.attempted
    counts = f"({tally.failed}/{tally.attempted} units)"
    print(f"  {'error_rate':<34} {error_rate:>16.6f} ratio {counts}")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            metric: {"value": value, "unit": unit} for metric, (value, unit) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


def cross_checks(results: dict) -> list:
    """The layer split's expectations across workloads (traced runs only)."""
    def value(workload: str, metric: str) -> float:
        return results[workload]["metrics"][metric]["value"]

    problems = []
    shares = [value(w, "net.crypto.share_pct") for w in WORKLOAD_NAMES]
    if not shares[1] > shares[0] > shares[2]:
        problems.append(
            "net.crypto share should rank membership-mesh > paper-attacks > service-faults, "
            f"got {dict(zip(WORKLOAD_NAMES, shares))}"
        )
    for prefix, owner in (
        ("service.", "service-faults"),
        ("membership.", "membership-mesh"),
        ("oracle.", "paper-attacks"),
    ):
        for workload in WORKLOAD_NAMES:
            names = [m for m in results[workload]["metrics"] if m.startswith(prefix)]
            busy = [m for m in names if value(workload, m)]
            if workload == owner and not busy:
                problems.append(f"no {prefix}* work on {workload}")
            if workload != owner and busy:
                problems.append(f"{prefix}* work on {workload}: {busy}")
    return problems


def run_all(args) -> int:
    results = {}
    for workload in WORKLOAD_NAMES:
        command = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"workload {workload}: exit {proc.returncode}, no result")
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        results[workload] = json.loads(lines[-1])
    problems = cross_checks(results) if args.trace else []
    for problem in problems:
        print(f"FAILED cross-workload: {problem}")
    print(f"{'metric':<20}" + "".join(f"{w:>18}" for w in WORKLOAD_NAMES))
    shown = ("sim_s_per_wall_s", "setup_s", "peak_rss_mb") if not args.trace else (
        "trace.wall_s", "net.crypto.share_pct", "sim.residual_s", "trace.overhead_pct"
    )
    for metric in shown:
        print(f"{metric:<20}" + "".join(
            f"{results[w]['metrics'][metric]['value']:>18.4f}" for w in WORKLOAD_NAMES
        ))
    print(f"{'error_rate':<20}" + "".join(
        f"{results[w]['failed'] / results[w]['attempted']:>18.4f}" for w in WORKLOAD_NAMES
    ))
    combined = {
        "correct": all(r["correct"] for r in results.values()) and not problems,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()) + len(problems),
        "metrics": {
            f"{w}.{m}": entry for w, r in results.items() for m, entry in r["metrics"].items()
        },
    }
    print(json.dumps(combined))
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
