"""Genome evaluation: one simulated run with coverage + oracle taps.

Evaluation rides the fleet: a genome becomes a ``hunt-genome``
:class:`~repro.fleet.tasks.RunTask` whose payload is pure JSON, so
populations fan out over :class:`~repro.fleet.pool.FleetPool` workers and
a batch's results come back in task order regardless of ``--jobs`` —
which is most of the engine's determinism story.

The runner (registered in :mod:`repro.fleet.tasks`) compiles the genome
into the standard hunt scenario via
:func:`~repro.hunt.genome.genome_to_spec`, attaches a
:class:`~repro.hunt.coverage.CoverageCollector` to every node's probe hub
*before* the run, and reports the visited coverage tuples. Oracle
violations arrive by the fleet's existing mechanism: hunt tasks carry
``overrides={"oracle": "warn"}``, so ``execute_task`` runs the runner
under a warn-mode plane scope and appends all observed violation records
to the result value — warn, not strict, because a violation is the hunt's prize,
not its failure mode.
"""

from __future__ import annotations

from typing import Any

from repro.fleet.tasks import RunTask, execute_task
from repro.hunt.genome import Genome, genome_key, genome_to_spec

#: The fleet task kind evaluating genomes (see ``repro.fleet.tasks``).
HUNT_TASK_KIND = "hunt-genome"


def make_hunt_task(
    genome: Genome,
    *,
    seed: int,
    duration_s: float,
    nodes: int = 3,
    membership: str = "off",
) -> RunTask:
    """Package a genome as a self-contained fleet task.

    ``membership`` (``"observe"``/``"enforce"``) rides in the payload —
    not in ``overrides`` — because the engine must be part of the spec
    the runner builds (its verdict probes feed the coverage collector
    attached before the run), and because it changes the simulation, so
    it belongs in the content hash alongside the genome.
    """
    payload = {"genome": genome, "duration_s": duration_s, "nodes": nodes}
    if membership != "off":
        payload["membership"] = membership
    return RunTask(
        kind=HUNT_TASK_KIND,
        name=f"genome-{genome_key(genome)}",
        seed=seed,
        duration_ns=None,
        payload=payload,
        overrides={"oracle": "warn"},
    )


def evaluate_genome_task(task: RunTask) -> dict[str, Any]:
    """Executor body for ``hunt-genome`` tasks (runs inside workers)."""
    from repro.hunt.coverage import CoverageCollector

    membership = str(task.payload.get("membership", "off"))
    spec = genome_to_spec(
        list(task.payload["genome"]),
        seed=int(task.seed or 0),
        duration_s=float(task.payload["duration_s"]),
        nodes=int(task.payload.get("nodes", 3)),
        name=task.name,
        membership_mode=None if membership == "off" else membership,
    )
    experiment = spec.build()
    collector = CoverageCollector()
    collector.attach(experiment.cluster.nodes)
    experiment.run(spec.duration_ns)
    value = {
        "genome": spec.schedule,
        "coverage": collector.as_lists(),
        "sim_ns": spec.duration_ns,
    }
    if experiment.membership is not None:
        value["membership"] = experiment.membership.report()
    return value


def evaluate_genome(
    genome: Genome,
    *,
    seed: int,
    duration_s: float,
    nodes: int = 3,
    membership: str = "off",
) -> dict[str, Any]:
    """Evaluate one genome in-process (the shrinker's re-check path).

    Returns the runner's value with ``violations`` attached, exactly as a
    fleet worker would have produced it.
    """
    return execute_task(
        make_hunt_task(
            genome,
            seed=seed,
            duration_s=duration_s,
            nodes=nodes,
            membership=membership,
        )
    )
