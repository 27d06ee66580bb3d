"""Alternated parent/change pairs of ``perfbench/run.py``, summarised.

    python benchmarks/ab_pairs.py --parent 40c997e --workload membership-mesh \\
        --seed 1 [--pairs 10] [--json BENCH_perfbench.json --note TEXT]

``--parent`` names the parent commit; its tree is unpacked with ``git
archive`` into a temporary directory. The change is this working tree.
Each pair runs ``perfbench/run.py --trace 0`` for the benchmark's
``run_seconds`` once on each side, each from its own directory (so each
imports its own ``src/``), alternating which side runs first. For every end-to-end metric it prints each side's
quartiles, the pairs the change won (ties count for neither side), and
whether the median moved by more than the parent's interquartile range:
the rule a claimed gain must pass. Failed units are counted and shown.
Then three alternated ``--trace 1`` runs per side give each side's median
layer split.

``--json`` appends the point (pair quartiles, wins, failed units and both
sides' traced medians, with ``--note`` naming the change) to a
``BENCH_*.json`` record's ``points``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
BETTER = {entry["name"]: entry["better"] for entry in BENCHMARK["end_to_end"]}
WORKLOADS = [entry["name"] for entry in BENCHMARK["workloads"]]
SIDES = ("parent", "change")
TRACED_RUNS = 3
ABOUT = (
    "Speed claims measured with perfbench/run.py (BENCHMARK.json), oldest first;"
    " each point is appended by benchmarks/ab_pairs.py --json. Pairs alternate"
    " which side runs first, each side from its own checkout; metrics hold"
    " [first quartile, median, third quartile] per side, and wins count the"
    " pairs the change was better (ties for neither). traced holds the medians"
    " of three alternated --trace 1 runs per side, unscaled; host.ref_loop_ms"
    " gives each side's host speed."
)


def perfbench(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``perfbench/run.py`` run; its result line."""
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(command, cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def alternated(checkouts: dict, count: int, *args) -> dict:
    """``count`` runs per side, alternating which side runs first."""
    runs = {side: [] for side in SIDES}
    for index in range(count):
        for side in SIDES if index % 2 == 0 else SIDES[::-1]:
            runs[side].append(perfbench(checkouts[side], *args))
        print(f"run {index + 1}/{count} of each side done", file=sys.stderr)
    return runs


def rounded(value):
    """Four significant digits, for a readable record."""
    return float(f"{value:.4g}") if isinstance(value, float) else value


def summarise(runs: dict) -> dict:
    """Per end-to-end metric: each side's quartiles, the change's wins and the claim rule."""
    summary = {}
    for metric, entry in runs["parent"][0]["metrics"].items():
        if metric not in BETTER:
            continue
        sign = 1 if BETTER[metric] == "higher" else -1
        values = {side: [run["metrics"][metric]["value"] for run in runs[side]] for side in SIDES}
        parent, change = (
            statistics.quantiles(values[side], n=4, method="inclusive") for side in SIDES
        )
        summary[metric] = {
            "unit": entry["unit"],
            "better": BETTER[metric],
            "parent": [rounded(v) for v in parent],
            "change": [rounded(v) for v in change],
            "wins": sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"])),
            "beyond_parent_iqr": sign * (change[1] - parent[1]) > parent[2] - parent[0],
        }
    return summary


def medians(runs: list) -> dict:
    """Each metric's median over ``runs``."""
    return {
        metric: rounded(statistics.median(run["metrics"][metric]["value"] for run in runs))
        for metric in runs[0]["metrics"]
    }


def host() -> str:
    """The measuring host: CPU count and model, Python version."""
    model = platform.processor() or platform.machine()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return f"{os.cpu_count()} CPUs, {model}, Python {platform.python_version()}"


def unpack(revision: str, directory: Path) -> str:
    """Unpack ``revision``'s tree into ``directory``; returns its short commit id."""
    def git(*args) -> bytes:
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, check=True).stdout

    commit = git("rev-parse", "--short", f"{revision}^{{commit}}").decode().strip()
    with tarfile.open(fileobj=io.BytesIO(git("archive", commit))) as archive:
        archive.extractall(directory)
    return commit


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="the parent commit")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--json", type=Path, help="a BENCH_*.json record to append the point to")
    parser.add_argument("--note", help="what the change is (required with --json)")
    args = parser.parse_args(argv)
    if args.json is not None and not args.note:
        parser.error("--json needs --note")

    with tempfile.TemporaryDirectory() as parent_dir:
        parent_commit = unpack(args.parent, Path(parent_dir))
        checkouts = {"parent": Path(parent_dir), "change": ROOT}
        bench = (args.workload, args.seed, BENCHMARK["run_seconds"])
        runs = alternated(checkouts, args.pairs, *bench, 0)
        traced = alternated(checkouts, TRACED_RUNS, *bench, 1)

    summary = summarise(runs)
    failed = {side: sum(run["failed"] for run in runs[side]) for side in SIDES}
    print(
        f"{args.workload} vs {parent_commit}, seed {args.seed},"
        f" {BENCHMARK['run_seconds']} s, {args.pairs} pairs"
    )
    for side in SIDES:
        attempted = sum(run["attempted"] for run in runs[side])
        print(f"  {side}: {failed[side]}/{attempted} units failed")
    for metric, row in summary.items():
        parent, change = row["parent"], row["change"]
        print(
            f"  {metric:<18} {parent[1]:>10g} [{parent[0]:g}, {parent[2]:g}]"
            f" -> {change[1]:>10g} [{change[0]:g}, {change[2]:g}] {row['unit']}"
            f"  wins {row['wins']}/{args.pairs}"
            f"{'  beyond parent IQR' if row['beyond_parent_iqr'] else ''}"
        )

    if args.json is not None:
        record = {"about": ABOUT, "points": []}
        if args.json.exists():
            record = json.loads(args.json.read_text())
        record["points"].append({
            "change": args.note,
            "parent_commit": parent_commit,
            "host": host(),
            "workload": args.workload,
            "seed": args.seed,
            "seconds": BENCHMARK["run_seconds"],
            "pairs": args.pairs,
            "failed_units": failed,
            "metrics": summary,
            "traced": {side: medians(traced[side]) for side in SIDES},
        })
        args.json.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
