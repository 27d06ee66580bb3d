"""Command-line interface: ``python -m repro <command>``.

Every command that simulates (all but ``list`` and ``hunt``, which drives
its own fleet batches) builds :class:`~repro.fleet.tasks.RunTask` values
and runs them through one helper around
:meth:`~repro.fleet.pool.FleetPool.run`, in-process at ``--jobs 1``: what
it prints comes from the task values, so a command prints the same bytes
at any ``--jobs``, and every command reports the oracle the same way.

Commands
--------
``list``
    Show the canonical experiments and what they reproduce.
``run <experiment>``
    Run one experiment (``fig1``, ``inc``, ``fig2`` … ``fig6``,
    ``fig6-hardened``, ``ablation``) and print its tables; ``--export DIR``
    also writes the series as CSVs.
``sweep <name>``
    Run a parameter sweep (``attack-delay``, ``jitter``, ``cluster-size``,
    ``aex-rate``) and print its table. ``--jobs N`` fans the points out
    over worker processes (rows stay byte-identical to ``--jobs 1``);
    results are cached on disk, so re-runs are served from cache unless
    ``--no-cache`` is given. ``--export DIR`` writes the table as CSV and
    ``--telemetry FILE`` dumps per-task JSONL run records.
``batch <dir>``
    Fan out every spec JSON in a directory through the fleet.
``run-spec <file.json>``
    Run a declarative experiment spec (see ``examples/specs/`` and
    :mod:`repro.experiments.spec`).
``service``, ``membership``, ``faults``
    Presets over ``run-spec``: each turns its flags into a spec dict, runs
    it as one fleet ``spec`` task, and prints the rendering (``--json
    FILE``: the JSON report) of its own plane. ``service`` runs the
    trusted-time service workload (:mod:`repro.service`) — session
    populations against per-node front-ends with Marzullo quorum clients,
    benign or under an attack — and reports client-visible SLOs.
    ``membership`` runs the epoch membership/quarantine control plane
    (:mod:`repro.membership`) against a scenario and prints its verdict
    journal; ``--mode enforce`` also rotates the per-epoch group key so
    quarantined nodes are cryptographically cut off. ``faults`` runs a
    deterministic fault-injection scenario (:mod:`repro.faults`) and
    reports recovery/MTTR.
``--oracle`` / ``--membership``
    Attach the invariant oracle (``warn``/``strict``) or the membership
    engine (``observe``/``enforce``) to any run: ``run``, ``sweep``,
    ``run-spec``, ``batch``, ``reproduce`` and the presets (see
    :mod:`repro.oracle.policy`).
``hunt``
    Coverage-guided search for attack schedules (:mod:`repro.hunt`):
    evolve genomes of timed attack primitives through the fleet, keep a
    corpus of coverage champions under ``--corpus-dir``, and shrink every
    finding into a minimal spec-JSON reproducer. Deterministic per
    ``--seed``/``--budget`` regardless of ``--jobs``.
``reproduce``
    Run every canonical experiment as one fleet ``experiment`` task each
    and print its tables under ``=== <name> ===``; ``--quick`` runs each
    drift figure for a quarter of its duration. The paper-vs-measured
    comparison is ``examples/reproduce_paper.py`` (``make reproduce``).
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path
from typing import Callable, Optional

from repro.experiments.figures import EXPERIMENTS
from repro.experiments.sweeps import TASK_EMITTERS
from repro.sim.units import SECOND


def _add_oracle_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--oracle",
        choices=("off", "warn", "strict"),
        default="off",
        help=(
            "invariant oracle mode: 'warn' reports violations on stderr, "
            "'strict' also exits nonzero on violations outside the "
            "allowance the run's attacks give the oracle"
        ),
    )


def _add_membership_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--membership",
        choices=("off", "observe", "enforce"),
        default="off",
        help=(
            "membership control plane: 'observe' scores nodes and records "
            "verdicts without intervening, 'enforce' also rotates the "
            "epoch key so quarantined nodes are cryptographically cut off"
        ),
    )


def _add_fleet_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs", type=int, default=1, help="worker processes (1 = in-process, the default)"
    )
    parser.add_argument(
        "--no-cache", action="store_true", help="recompute even if cached results exist"
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="result cache directory (default: $REPRO_CACHE_DIR or ~/.cache/repro-fleet)",
    )
    parser.add_argument(
        "--telemetry", metavar="FILE", default=None, help="write per-task JSONL records to FILE"
    )
    _add_oracle_argument(parser)
    _add_membership_argument(parser)


def _add_preset_parser(sub, name: str, summary: str, *, nodes: int, seed: int, duration_s: float):
    """A preset subcommand with the flags every preset shares."""
    parser = sub.add_parser(name, help=summary)
    parser.add_argument("--nodes", type=int, default=nodes, help=f"cluster size (default {nodes})")
    parser.add_argument("--seed", type=int, default=seed, help="experiment seed")
    parser.add_argument(
        "--duration-s", type=float, default=duration_s, help="simulated run length (seconds)"
    )
    parser.add_argument(
        "--json", metavar="FILE", default=None, help=f"write the {name} report as JSON to FILE"
    )
    _add_fleet_arguments(parser)
    return parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of Triad's TEE trusted-time protocol (DSN-S 2025)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    run = sub.add_parser("run", help="run one experiment")
    run.add_argument("experiment", choices=sorted(EXPERIMENTS))
    run.add_argument("--seed", type=int, default=None, help="override the default seed")
    run.add_argument(
        "--duration-s", type=float, default=None, help="override the run duration (seconds)"
    )
    run.add_argument("--export", metavar="DIR", default=None, help="write series CSVs to DIR")
    _add_oracle_argument(run)
    _add_membership_argument(run)

    sweep = sub.add_parser("sweep", help="run a parameter sweep")
    sweep.add_argument("sweep_name", choices=sorted(TASK_EMITTERS))
    sweep.add_argument("--seed", type=int, default=None, help="override the sweep's base seed")
    sweep.add_argument(
        "--limit", type=int, default=None, help="run only the first N points of the grid"
    )
    sweep.add_argument(
        "--export", metavar="DIR", default=None, help="write the sweep table as CSV to DIR"
    )
    _add_fleet_arguments(sweep)

    batch = sub.add_parser("batch", help="run every spec JSON in a directory through the fleet")
    batch.add_argument("directory", help="directory containing *.json experiment specs")
    _add_fleet_arguments(batch)

    run_spec = sub.add_parser("run-spec", help="run a JSON experiment spec")
    run_spec.add_argument("spec_path", help="path to the spec JSON file")
    run_spec.add_argument("--export", metavar="DIR", default=None, help="write series CSVs to DIR")
    _add_oracle_argument(run_spec)
    _add_membership_argument(run_spec)

    service = _add_preset_parser(
        sub,
        "service",
        "run the trusted-time service workload and report SLOs",
        nodes=3,
        seed=11,
        duration_s=30.0,
    )
    service.add_argument(
        "--sessions", type=int, default=1_000_000, help="client sessions (default 1M)"
    )
    service.add_argument(
        "--arrival",
        choices=("open", "closed"),
        default="open",
        help="arrival model: open (Poisson) or closed (think-time) loop",
    )
    service.add_argument(
        "--rate-rps",
        type=float,
        default=None,
        help="override the open-loop aggregate request rate (default sessions * 0.05)",
    )
    service.add_argument(
        "--think-ms", type=float, default=20_000.0, help="closed-loop mean think time"
    )
    service.add_argument(
        "--quorum", type=int, default=3, help="nodes per quorum fan-out (1 = single-node client)"
    )
    service.add_argument(
        "--attack",
        choices=("benign", "fplus", "fminus", "fminus-propagation", "ta-blackhole"),
        default="benign",
        help=(
            "scenario to run the workload under (default benign); 'fminus' pins "
            "the poison to one node via the hardened protocol, "
            "'fminus-propagation' lets the cascade spread on the original"
        ),
    )

    membership = _add_preset_parser(
        sub,
        "membership",
        "run the membership/quarantine control plane and report verdicts",
        nodes=5,
        seed=6,
        duration_s=30.0,
    )
    membership.add_argument(
        "--attack",
        choices=("benign", "churn", "fplus", "fminus-propagation", "ta-blackhole"),
        default="fminus-propagation",
        help=(
            "scenario to run the control plane against (default "
            "fminus-propagation — the containment headline); 'churn' runs a "
            "benign rolling join/leave/rejoin schedule"
        ),
    )
    membership.add_argument(
        "--mode",
        choices=("observe", "enforce"),
        default="enforce",
        help=(
            "engine mode: 'observe' records verdicts only, 'enforce' also "
            "rotates the epoch key to cut quarantined nodes off (default)"
        ),
    )
    membership.add_argument(
        "--epoch-s", type=float, default=1.0, help="membership epoch length (seconds)"
    )

    faults = _add_preset_parser(
        sub,
        "faults",
        "run a deterministic fault-injection scenario and report recovery/MTTR",
        nodes=3,
        seed=13,
        duration_s=60.0,
    )
    faults.add_argument(
        "--scenario",
        choices=("crash-restart", "ta-flap", "crash-outage-partition", "no-retry"),
        default="crash-restart",
        help=(
            "fault scenario (default crash-restart); 'crash-outage-partition' "
            "is the mixed robustness headline, 'no-retry' is the bounded-retry "
            "baseline that parks dark and fails the recovery invariant"
        ),
    )
    faults.add_argument(
        "--deadline-s",
        type=float,
        default=15.0,
        help="recovery deadline after the last fault heals (seconds, default 15)",
    )
    faults.add_argument(
        "--sessions",
        type=int,
        default=0,
        help="client sessions for a quorum service riding the faults (0 = no service)",
    )
    faults.add_argument(
        "--quorum", type=int, default=3, help="service quorum fan-out (with --sessions)"
    )

    hunt = sub.add_parser("hunt", help="coverage-guided search for attack schedules")
    hunt.add_argument("--seed", type=int, default=7, help="search seed (default 7)")
    hunt.add_argument(
        "--budget", type=int, default=200, help="genomes to evaluate (default 200)"
    )
    hunt.add_argument(
        "--jobs", type=int, default=1, help="worker processes (1 = in-process, the default)"
    )
    hunt.add_argument(
        "--corpus-dir",
        default=".hunt-corpus",
        help="where to persist the corpus, manifest and findings (default .hunt-corpus)",
    )
    hunt.add_argument(
        "--duration-s", type=float, default=30.0, help="simulated seconds per genome run"
    )
    hunt.add_argument("--nodes", type=int, default=3, help="cluster size per genome run")
    hunt.add_argument(
        "--population", type=int, default=16, help="genomes per generation (default 16)"
    )
    hunt.add_argument(
        "--shrink",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="delta-debug findings into minimal reproducers (default on)",
    )
    hunt.add_argument(
        "--telemetry", metavar="FILE", default=None, help="write per-task JSONL records to FILE"
    )
    _add_membership_argument(hunt)

    reproduce = sub.add_parser("reproduce", help="run every experiment and print the summary")
    reproduce.add_argument(
        "--quick", action="store_true", help="run each drift figure for a quarter of its duration"
    )
    _add_fleet_arguments(reproduce)
    return parser


def _validate_fleet_flags(args) -> Optional[int]:
    """Exit code for invalid fleet flags, or None when they are fine."""
    if args.jobs < 1:
        print(f"error: --jobs must be >= 1, got {args.jobs}", file=sys.stderr)
        return 2
    if getattr(args, "limit", None) is not None and args.limit < 1:
        print(f"error: --limit must be >= 1, got {args.limit}", file=sys.stderr)
        return 2
    return None


def _plane_overrides(args) -> dict:
    """The ``--oracle``/``--membership`` modes a fleet task carries.

    ``off`` is left out, so plane-free tasks keep the content hashes — and
    thus the cached results — of runs made without the flags.
    """
    return {
        plane: getattr(args, plane)
        for plane in ("oracle", "membership")
        if getattr(args, plane) != "off"
    }


def _run_tasks(args, tasks: list) -> list:
    """Run ``tasks`` through :meth:`FleetPool.run`: how every command simulates.

    Commands with fleet flags get the result cache (unless ``--no-cache``),
    progress and a summary on stderr, and ``--telemetry``; ``run`` and
    ``run-spec`` run their one task in-process, uncached and quiet. Every
    task's oracle reports, and why a strict oracle failed it, go to
    stderr, so stdout stays byte-identical to a plane-free run.
    """
    from repro.fleet import FleetPool, FleetTelemetry, ResultCache

    fleet = hasattr(args, "jobs")
    cache = ResultCache(args.cache_dir) if fleet and not args.no_cache else None
    telemetry = FleetTelemetry(stream=sys.stderr) if fleet else None
    pool = FleetPool(jobs=args.jobs if fleet else 1)
    results = pool.run(tasks, cache=cache, telemetry=telemetry)
    for result in results:
        for report in result.oracle_reports:
            print(report, file=sys.stderr)
    if fleet:
        print(telemetry.render_summary(), file=sys.stderr)
        if args.telemetry:
            path = telemetry.write_jsonl(args.telemetry)
            print(f"wrote telemetry JSONL to {path}", file=sys.stderr)
    return results


def _task(args, kind: str, name: str, payload: dict, seed=None, duration_ns=None):
    """A fleet task under the plane flags; ``--export`` asks for its CSVs."""
    from repro.fleet import RunTask

    if getattr(args, "export", None):
        payload["export"] = True
    return RunTask(kind, name, seed, duration_ns, payload, _plane_overrides(args))


#: What a ``spec`` or ``experiment`` task prints: the drift table, then
#: the renderings of these planes when attached.
_SPEC_SECTIONS = ("table", "service", "membership")


def _render_sections(value: dict, sections: tuple) -> str:
    """The named sections a task value has, blank-line separated."""
    texts = {name: plane["rendered"] for name, plane in value["planes"].items()}
    texts["table"] = value["rendered"]
    return "\n\n".join(texts[name] for name in sections if name in texts)


def _spec_task(raw: dict, args):
    """The fleet ``spec`` task running spec dict ``raw`` under the plane flags.

    The spec is validated here, so typos and bad flags fail before any
    worker runs.
    """
    from repro.experiments.spec import ExperimentSpec

    spec = ExperimentSpec.from_dict(raw)
    return _task(args, "spec", spec.name, {"spec": raw}, spec.seed, spec.duration_ns)


def _spec_file_task(path, args):
    """The fleet ``spec`` task of the spec JSON file at ``path``."""
    from repro.experiments.spec import ExperimentSpec

    return _spec_task(ExperimentSpec.parse(Path(path).read_text()), args)


def _experiment_task(args):
    """``run``'s one ``experiment`` task; a note on stdout for an ignored knob."""
    from repro.errors import ConfigurationError

    name, seed = args.experiment, args.seed
    duration_ns = None if args.duration_s is None else int(args.duration_s * SECOND)
    if EXPERIMENTS[name].duration_ns is None:
        # fig1 / inc / ablation have no duration or seed knob.
        if duration_ns is not None:
            print("note: this experiment has no duration parameter; --duration-s ignored")
        if seed is not None:
            print("note: this experiment runs with its built-in seed; --seed ignored")
        seed = duration_ns = None
    elif duration_ns is not None and duration_ns <= 0:
        raise ConfigurationError(f"--duration-s must be positive, got {args.duration_s}")
    return _task(args, "experiment", name, {"experiment": name}, seed, duration_ns)


def _run_single(args) -> int:
    """``run`` and ``run-spec``: one task's sections, then its CSVs with ``--export``."""
    from repro.analysis.export import write_csvs
    from repro.errors import ConfigurationError

    try:
        if args.command == "run":
            task = _experiment_task(args)
        else:
            task = _spec_file_task(args.spec_path, args)
    except (OSError, ConfigurationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    (result,) = _run_tasks(args, [task])
    if not result.ok:
        if not result.oracle_reports:  # a failing oracle has said why
            print(f"{args.command} FAILED: {result.error}", file=sys.stderr)
        return 1
    print(_render_sections(result.value, _SPEC_SECTIONS))
    if args.export:
        if "export" not in result.value:
            print(f"note: {args.experiment} has no exportable series")
        else:
            paths = write_csvs(result.value["export"], args.export)
            print(f"\nwrote {len(paths)} CSV files to {args.export}/")
    return 0


def _run_sweep(args) -> int:
    from repro.analysis.report import format_table, to_csv
    from repro.errors import FleetError
    from repro.experiments.sweeps import sweep_points

    tasks = TASK_EMITTERS[args.sweep_name](**({} if args.seed is None else {"seed": args.seed}))
    if args.limit is not None:
        tasks = tasks[: args.limit]
    for task in tasks:
        task.overrides.update(_plane_overrides(args))
    try:
        points = sweep_points(_run_tasks(args, tasks))
    except FleetError as exc:
        print(f"sweep failed: {exc}", file=sys.stderr)
        return 1
    metrics = list(points[0].metrics)
    rows = [
        [f"{value:.4g}" if isinstance(value, float) else value for value in point.row(metrics)]
        for point in points
    ]
    print(format_table([points[0].parameter] + metrics, rows, title=f"sweep: {args.sweep_name}"))
    if args.export:
        target = Path(args.export)
        target.mkdir(parents=True, exist_ok=True)
        csv_path = target / f"sweep_{args.sweep_name}.csv"
        csv_path.write_text(
            to_csv([points[0].parameter] + metrics, [point.row(metrics) for point in points])
        )
        print(f"wrote {csv_path}")
    return 0


def _run_batch(args) -> int:
    from repro.analysis.report import format_table
    from repro.errors import ConfigurationError

    directory = Path(args.directory)
    spec_paths = sorted(directory.glob("*.json"))
    if not spec_paths:
        print(f"no spec JSONs found in {directory}", file=sys.stderr)
        return 1
    tasks = []
    for path in spec_paths:
        try:
            tasks.append(_spec_file_task(path, args))
        except (OSError, ConfigurationError) as exc:
            print(f"invalid spec {path}: {exc}", file=sys.stderr)
            return 1
    results = _run_tasks(args, tasks)
    for result in results:
        print()
        if result.ok:
            print(_render_sections(result.value, _SPEC_SECTIONS))
        else:
            print(f"spec {result.name!r} FAILED: {result.error}")
    rows = [
        [
            result.name,
            "cached" if result.from_cache else ("ok" if result.ok else "FAILED"),
            f"{result.wall_s:.2f}",
            result.attempts,
        ]
        for result in results
    ]
    print()
    print(format_table(["spec", "status", "wall_s", "attempts"], rows, title="batch summary"))
    return 0 if all(result.ok for result in results) else 1


def _run_reproduce(args) -> int:
    """Every canonical experiment as one task; ``--quick`` quarters drift figures."""
    tasks = []
    for name, row in EXPERIMENTS.items():
        quarter = row.duration_ns // 4 if args.quick and row.duration_ns else None
        tasks.append(_task(args, "experiment", name, {"experiment": name}, None, quarter))
    results = _run_tasks(args, tasks)
    for result in results:
        print(f"\n=== {result.name} ===")
        print(result.value["rendered"] if result.ok else f"FAILED: {result.error}")
    return 0 if all(result.ok for result in results) else 1


def _preset_spec(args, name: str, attack: str = "benign", **blocks) -> dict:
    """The spec dict a preset starts from: every node Triad-like, plus ``blocks``.

    ``attack`` ``fplus``/``fminus`` puts a 100 ms F+/F− attacker on node 3
    (paper numbering: the compromised one); ``ta-blackhole`` cuts the TA.
    """
    victim = min(3, args.nodes)
    attacks = {
        "fplus": [{"type": "fplus", "victim": victim, "delay_ms": 100}],
        "fminus": [{"type": "fminus", "victim": victim, "delay_ms": 100}],
        "ta-blackhole": [{"type": "ta-blackhole"}],
    }.get(attack, [])
    return {
        "name": name,
        "seed": args.seed,
        "duration_s": args.duration_s,
        "nodes": args.nodes,
        "environments": {str(i): "triad-like" for i in range(1, args.nodes + 1)},
        "attacks": attacks,
        **blocks,
    }


def _service_spec_dict(args) -> dict:
    """Compile the ``service`` subcommand flags into a spec dict."""
    service: dict = {
        "sessions": args.sessions,
        "arrival": args.arrival,
        "quorum": args.quorum,
        "think_ms": args.think_ms,
    }
    if args.rate_rps is not None:
        service["rate_rps"] = args.rate_rps
    # 'fminus' runs the hardened protocol: the F− poison stays pinned to
    # the victim, so the run measures quorum containment of one bad
    # source; 'fminus-propagation' lets the cascade spread on the original.
    return _preset_spec(
        args,
        f"service-{args.attack}",
        args.attack.removesuffix("-propagation"),
        protocol="hardened" if args.attack == "fminus" else "original",
        service=service,
    )


def _membership_churn_schedule(nodes: int, duration_s: float) -> dict:
    """Deterministic rolling churn: upper nodes leave, dwell out 4s, rejoin.

    Nodes 1-3 stay resident so the member median always has
    ``min_observers`` voters; every other node takes one leave/join round
    trip, staggered 2s apart starting at t=5s. Round trips that would not
    complete 2s before the end of the run are dropped.
    """
    schedule: list[dict] = []
    t = 5.0
    for index in range(4, nodes + 1):
        if t + 4.0 > duration_s - 2.0:
            break
        schedule.append({"t_s": t, "node": index, "action": "leave"})
        schedule.append({"t_s": t + 4.0, "node": index, "action": "join"})
        t += 2.0
    return {"schedule": schedule}


def _membership_spec_dict(args) -> dict:
    """Compile the ``membership`` subcommand flags into a spec dict."""
    from repro.errors import ConfigurationError

    nodes = args.nodes
    if args.attack == "churn" and nodes < 4:
        raise ConfigurationError(
            f"--attack churn needs --nodes >= 4 (nodes 1-3 stay resident), got {nodes}"
        )
    raw = _preset_spec(
        args,
        f"membership-{args.attack}",
        args.attack.removesuffix("-propagation"),
        membership={"mode": args.mode, "epoch_s": args.epoch_s},
    )
    if args.attack == "fminus-propagation":
        # Mirror the fig6 timeline: honest AEX streams (the peer-untaint
        # adoption vector) come online at t=3s, after the attacker has
        # skewed the victim's initial calibration — the containment race
        # the headline experiment pins (see docs/membership.md).
        victim = min(3, nodes)
        honest = [i for i in range(1, nodes + 1) if i != victim]
        raw["attacks"].append({"type": "aex-onset", "nodes": honest, "at_s": 3})
    if args.attack == "churn":
        raw["churn"] = _membership_churn_schedule(nodes, args.duration_s)
    return raw


def _faults_spec_dict(args) -> dict:
    """Compile the ``faults`` subcommand flags into a spec dict."""
    from repro.errors import ConfigurationError

    nodes = args.nodes
    if args.scenario in ("crash-outage-partition", "no-retry") and nodes < 3:
        raise ConfigurationError(
            f"--scenario {args.scenario} needs --nodes >= 3 (it crashes node 2 "
            f"and partitions node 3), got {nodes}"
        )
    crash_victim = min(2, nodes)
    isolated = min(3, nodes)
    # Exponential backoff with jitter is the recovery policy under test;
    # the 'no-retry' baseline replaces it with a 2-attempt budget, parks
    # dark, and demonstrably fails the recovery invariant.
    retry: dict = {
        "backoff_factor": 2.0,
        "jitter": 0.1,
        "backoff_s": 0.5,
        "max_backoff_s": 4.0,
        "calibration_backoff_ms": 200,
    }
    if args.scenario == "crash-restart":
        schedule = [
            {"t_s": 12.0, "kind": "node-crash", "node": crash_victim, "down_ms": 800}
        ]
    elif args.scenario == "ta-flap":
        schedule = [
            {"t_s": t_s, "kind": "ta-outage", "duration_ms": 1500}
            for t_s in (12.0, 16.0, 20.0)
        ]
    else:  # crash-outage-partition / no-retry: the mixed headline timeline
        schedule = [
            {"t_s": 12.0, "kind": "node-crash", "node": crash_victim, "down_ms": 800},
            {"t_s": 12.8, "kind": "ta-outage", "duration_ms": 3000},
            {"t_s": 20.0, "kind": "partition", "island": [isolated], "duration_ms": 2000},
            {
                "t_s": 24.0,
                "kind": "loss-burst",
                "drop_probability": 0.2,
                "duration_ms": 1000,
            },
        ]
        if args.scenario == "no-retry":
            retry = {"attempt_budget": 2}
    raw = _preset_spec(
        args,
        f"faults-{args.scenario}",
        faults={"schedule": schedule, "recovery_deadline_s": args.deadline_s, "retry": retry},
    )
    if args.sessions > 0:
        raw["service"] = {
            "sessions": args.sessions,
            "quorum": min(args.quorum, nodes),
            "degraded_margin_factor": 3.0,
            "breaker_threshold": 3,
        }
    return raw


#: Preset subcommand -> (spec-dict builder, planes it prints in order).
#: The first plane is the preset's own: ``--json`` writes its report.
_PRESETS: dict[str, tuple[Callable, tuple[str, ...]]] = {
    "service": (_service_spec_dict, ("service", "membership")),
    "membership": (_membership_spec_dict, ("membership",)),
    "faults": (_faults_spec_dict, ("faults", "service")),
}


def _run_preset(args) -> int:
    """Run a preset subcommand: its flags become a spec, run as a ``spec`` task."""
    import json

    from repro.errors import ConfigurationError

    spec_dict, planes = _PRESETS[args.command]
    try:
        task = _spec_task(spec_dict(args), args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    (result,) = _run_tasks(args, [task])
    if not result.ok:
        print(f"{args.command} run FAILED: {result.error}", file=sys.stderr)
        return 1
    print(_render_sections(result.value, planes))
    if args.json:
        report = result.value["planes"][args.command]["report"]
        path = Path(args.json)
        if path.parent != Path(""):
            path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.command} report JSON to {path}")
    return 0


def _run_hunt(args) -> int:
    from repro.errors import ConfigurationError
    from repro.fleet import FleetTelemetry
    from repro.hunt import HuntConfig, HuntEngine

    try:
        config = HuntConfig(
            seed=args.seed,
            budget=args.budget,
            jobs=args.jobs,
            duration_s=args.duration_s,
            nodes=args.nodes,
            population=args.population,
            corpus_dir=Path(args.corpus_dir),
            shrink=args.shrink,
            membership=args.membership,
        )
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    telemetry = FleetTelemetry(stream=sys.stderr)
    report = HuntEngine(config, telemetry=telemetry).run()
    print(report.render())
    if args.telemetry:
        path = telemetry.write_jsonl(args.telemetry)
        print(f"wrote telemetry JSONL to {path}", file=sys.stderr)
    return 0


def _run_list(args) -> int:
    width = max(len(name) for name in EXPERIMENTS)
    for name, row in sorted(EXPERIMENTS.items()):
        span = "-" if row.duration_ns is None else f"{row.duration_ns / SECOND:.0f}s"
        print(f"{name:<{width + 2}} {span:>8}  {row.description}")
    return 0


#: Subcommand -> handler (argparse admits no other command).
_COMMANDS: dict[str, Callable] = {
    "list": _run_list,
    "run": _run_single,
    "run-spec": _run_single,
    "sweep": _run_sweep,
    "batch": _run_batch,
    "hunt": _run_hunt,
    "reproduce": _run_reproduce,
    **{name: _run_preset for name in _PRESETS},
}


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    export = getattr(args, "export", None)
    if export and Path(export).exists() and not Path(export).is_dir():
        # Checked before any run, so a bad target costs no simulation.
        print(f"error: --export {export} exists and is not a directory", file=sys.stderr)
        return 2
    duration_s = getattr(args, "duration_s", None)
    if duration_s is not None and not math.isfinite(duration_s):
        print(f"error: --duration-s must be a finite number, got {duration_s}", file=sys.stderr)
        return 2
    invalid = _validate_fleet_flags(args) if hasattr(args, "jobs") else None
    if invalid is not None:
        return invalid
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
