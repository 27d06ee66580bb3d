"""Timed actions: one table for everything done to a run at an instant.

The paper's attacker can delay calibration traffic (F+/F−), step or
scale the TSC, black-hole the TA, and — the asymmetry the original Triad
design overlooked (§III-A) — *remove* AEXs as well as add them: an
isolated monitoring core never taints, so a miscalibrated clock
free-runs, while a flooded one is forced into constant peer contact, the
mechanism that *spreads* the F− infection in Fig. 6. The fault plane adds
crashes, TA outages, partitions and loss bursts; churn adds leave/join.

Each capability is one row of :data:`ACTIONS`, validated by
:func:`validate` into a :class:`TimedAction` ``(t_ns, kind, params,
heal_ns)`` and applied by :func:`apply_action`. The spec syntaxes
``attacks``, ``schedule``, ``churn.schedule`` and ``faults.schedule``
lower into it (``docs/actions.md`` has the kind table). A row's apply
returns the (node, invariant) pairs the action is built to break, and
:func:`apply_action` allows them on the cluster's oracle as it applies
the action — the oracle is told at the point of cause. The apply
rule: an action whose instant is not after ``sim.now`` applies at once,
a later one through :func:`at` (``node-crash`` always goes through
:func:`at`); heals always go through :func:`at`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Mapping, NamedTuple, Optional

from repro.attacks.delay import AttackMode, CalibrationDelayAttacker
from repro.attacks.dos import TaBlackholeAttack
from repro.core.cluster import node_name
from repro.errors import ConfigurationError
from repro.hardware.aex import AexSource, ExponentialAexDelays
from repro.sim.units import MICROSECOND, MILLISECOND, SECOND

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.runner import Experiment
    from repro.sim.kernel import Simulator


def at(sim: "Simulator", time_ns: int, action: Callable[[], None], name: str = "scheduled-action"):
    """Run ``action`` at absolute simulated time ``time_ns``.

    The building block for scripted attack timelines (e.g. the paper's
    Fig. 6 environment switch at t = 104 s).
    """
    if time_ns < sim.now:
        raise ConfigurationError(f"cannot schedule at {time_ns}, now is {sim.now}")

    def runner():
        yield sim.timeout(time_ns - sim.now)
        action()

    return sim.process(runner(), name=name)


def at_or_now(sim: "Simulator", time_ns: int, action: Callable[[], None], name: str) -> None:
    """The apply rule: run ``action`` now unless ``time_ns`` is after ``sim.now``."""
    if time_ns <= sim.now:
        action()
    else:
        at(sim, time_ns, action, name=name)


class AexSuppressionAttack:
    """Isolate a core: stop its AEX source, optionally resuming later.

    Models the attacker configuring the OS to shield the victim's
    monitoring core from interrupts. While suppressed the node never
    taints (except via machine-wide interrupts the attacker does not fully
    control), so it never consults peers or the TA — its miscalibrated
    clock speed persists indefinitely.
    """

    def __init__(
        self,
        sim: "Simulator",
        source: AexSource,
        start_ns: int = 0,
        stop_ns: int | None = None,
        name: str = "aex-suppression",
    ) -> None:
        if stop_ns is not None and stop_ns <= start_ns:
            raise ConfigurationError("suppression must stop after it starts")
        at_or_now(sim, start_ns, source.pause, name=f"{name}-start")
        if stop_ns is not None:
            at(sim, stop_ns, source.resume, name=f"{name}-stop")


# -- validation ----------------------------------------------------------------------


@dataclass(frozen=True)
class TimedAction:
    """One validated action: start at ``t_ns``, heal at ``heal_ns`` (None: never)."""

    t_ns: int
    kind: str
    params: Mapping[str, Any]
    heal_ns: Optional[int] = None


class Shape(NamedTuple):
    """The cluster shape params are validated against."""

    nodes: int
    ta_count: int = 1


@dataclass(frozen=True)
class ActionKind:
    """One row of :data:`ACTIONS`."""

    #: (experiment, action, process-name tag) -> the oracle (node, invariant)
    #: pairs the action is built to cause, if any (:func:`apply_action`
    #: allows them).
    apply: Callable[["Experiment", TimedAction, str], Optional[set]]
    #: Syntax naming the kind directly (``schedule``, ``faults``) ->
    #: (required params, optional params) there.
    keys: Mapping[str, tuple[set, set]] = field(default_factory=dict)
    #: Values of omitted optional params.
    defaults: Mapping[str, Any] = field(default_factory=dict)


def finite(value: Any) -> bool:
    """Not NaN or ±inf; safe for any value (ints of any size, None)."""
    return value == value and value not in (math.inf, -math.inf)


def integer(value: Any) -> bool:
    return type(value) is int  # bools are ints to isinstance, not here


def number(value: Any) -> bool:
    """A finite int or float: JSON's NaN and Infinity are never valid."""
    return type(value) in (int, float) and finite(value)


def _positive(value: Any, shape: Shape) -> bool:
    return number(value) and value > 0


def _node_list(value: Any, shape: Shape) -> bool:
    return isinstance(value, list) and bool(value)


#: Param -> (accepts(value, shape), what an error says it must be).
#: ``node``/``victim`` and the elements of node lists go through
#: :func:`node_index`; window params (``duration_ms``, ``down_ms``) set
#: the heal instant.
_PARAMS: dict[str, tuple[Callable[[Any, Shape], bool], str]] = {
    "offset_ticks": (lambda v, shape: integer(v) and v != 0, "non-zero (integer ticks)"),
    "scale": (_positive, "positive"),
    "mean_us": (_positive, "positive"),
    "delay_ms": (_positive, "positive"),
    "duration_ms": (_positive, "positive"),
    "down_ms": (_positive, "positive"),
    "mode": (lambda v, shape: v in ("fplus", "fminus"), "'fplus' or 'fminus'"),
    "victims": (_node_list, "a non-empty list"),
    "island": (_node_list, "a non-empty list of node indices"),
    "ta": (lambda v, shape: integer(v) and 1 <= v <= shape.ta_count, "an index in 1..{ta_count}"),
    "name": (lambda v, shape: isinstance(v, str) and bool(v), "a non-empty string"),
    "drop_probability": (lambda v, shape: number(v) and 0 <= v < 1, "in [0, 1)"),
}


def node_index(where: str, key: str, value: Any, shape: Shape) -> int:
    """A 1-based node index inside the cluster."""
    if not integer(value):
        raise ConfigurationError(f"{where}: {key} must be an integer, got {value!r}")
    if not 1 <= value <= shape.nodes:
        raise ConfigurationError(
            f"{where}: {key}={value} outside cluster of {shape.nodes} node(s)"
        )
    return value


def instant_ns(where: str, key: str, value: Any) -> int:
    """A non-negative instant in seconds (``t_s``, ``at_s``, ...) as integer ns."""
    if not number(value) or value < 0:
        raise ConfigurationError(f"{where}: {key} must be a non-negative number, got {value!r}")
    return int(float(value) * SECOND)


def entry_object(where: str, value: Any, what: str = "entry") -> dict:
    """``value`` if it is a JSON object, else an error naming ``where``."""
    if not isinstance(value, dict):
        raise ConfigurationError(f"{where}: {what} must be an object, got {type(value).__name__}")
    return value


def check_keys(
    where: str, kind: str, present: Mapping, required: set, optional: set, noun: str = "keys"
) -> None:
    """Reject missing required and unknown keys of one entry."""
    missing = required - present.keys()
    if missing:
        raise ConfigurationError(f"{where}: {kind} params missing keys {sorted(missing)}")
    unknown = present.keys() - required - optional
    if unknown:
        raise ConfigurationError(f"{where}: {kind} has unknown {noun} {sorted(unknown)}")


def validate(
    where: str,
    t_ns: int,
    kind: str,
    params: Mapping[str, Any],
    shape: Shape,
    heal_ns: Optional[int] = None,
    syntax: Optional[str] = None,
    noun: str = "keys",
) -> TimedAction:
    """Validate ``params`` of ``kind`` into a normalized :class:`TimedAction`.

    Errors name ``where``. A ``syntax`` that names kinds directly has its
    param keys checked first (``noun`` words the unknown-key error). A
    window param sets ``heal_ns``; front-ends with absolute end instants
    pass it instead.
    """
    if syntax is not None:
        check_keys(where, kind, params, *ACTIONS[kind].keys[syntax], noun=noun)
    values = {**ACTIONS[kind].defaults, **params}
    for key, value in values.items():
        if key in ("node", "victim"):
            node_index(where, key, value, shape)
            continue
        accepts, expected = _PARAMS[key]
        if not accepts(value, shape):
            expected = expected.format(ta_count=shape.ta_count)
            raise ConfigurationError(f"{where}: {key} must be {expected}, got {value!r}")
        if key in ("victims", "island"):
            values[key] = tuple(node_index(where, key, item, shape) for item in value)
    window = values.pop("duration_ms", values.pop("down_ms", None))
    if window is not None:
        heal_ns = t_ns + max(int(float(window) * MILLISECOND), 1)
    if heal_ns is not None and heal_ns <= t_ns:
        raise ConfigurationError(f"{where}: {kind} must end after it starts")
    if "island" in values:
        island = values["island"]
        if len(set(island)) < len(island):
            raise ConfigurationError(f"{where}: duplicate island node in {list(island)}")
        if len(island) >= shape.nodes:
            raise ConfigurationError(
                f"{where}: island of {len(island)} node(s) leaves nobody outside "
                f"a cluster of {shape.nodes}"
            )
        values["island"] = tuple(sorted(island))
    elif kind == "partition":
        values["island"] = (values.pop("node"),)
    return TimedAction(t_ns, kind, values, heal_ns)


def syntax_keys(syntax: str) -> dict[str, tuple[set, set]]:
    """kind -> (required, optional) params for one syntax: a view of the table."""
    return {kind: row.keys[syntax] for kind, row in ACTIONS.items() if syntax in row.keys}


# -- apply ---------------------------------------------------------------------------


def apply_action(experiment: "Experiment", action: TimedAction, tag: str) -> None:
    """Apply one validated action, allowing the violations it is built to cause."""
    pairs = ACTIONS[action.kind].apply(experiment, action, tag)
    if pairs and experiment.cluster.oracle is not None:
        experiment.cluster.oracle.allow(pairs)


def _timed(experiment, action, tag, start, stop=None, names=("-start", "-stop")) -> None:
    """``start`` at the action's instant (the apply rule), ``stop`` at its heal."""
    at_or_now(experiment.sim, action.t_ns, start, name=tag + names[0])
    if stop is not None and action.heal_ns is not None:
        at(experiment.sim, action.heal_ns, stop, name=tag + names[1])


def _add_adversary(experiment: "Experiment", adversary) -> None:
    """Put an on-path adversary on the fabric."""
    experiment.cluster.network.add_adversary(adversary)
    experiment.attackers.append(adversary)


def _aex_source(cluster, index: int) -> AexSource:
    """A node's monitoring-core AEX source. A ``low-aex`` node gets a
    disabled one: silent until an ``aex-flood`` resumes it."""
    machine = cluster.node_machines[index - 1]
    core = cluster.monitoring_cores[index - 1]
    source = machine.aex_sources.get(core)
    if source is None:
        delays = ExponentialAexDelays(SECOND)
        source = machine.add_aex_source(core, delays, cause="os", enabled=False)
    return source


#: TSC manipulation hits the machine's counter, which on the default
#: shared-host topology every node reads: any node's clock (and any
#: untaint sourced from it) may go out of bound before the monitor
#: catches the change, so the oracle allowance is cluster-wide.
TSC_ATTACK_VIOLATIONS = {("*", "drift-bound"), ("*", "state-soundness"), ("*", "untaint-safety")}


def _tsc(experiment: "Experiment", action: TimedAction, tag: str) -> set:
    # Imported here: tscattack schedules through this module.
    from repro.attacks.tscattack import TscOffsetAttack, TscScaleAttack

    tsc = experiment.cluster.node_machines[action.params["victim"] - 1].tsc
    if action.kind == "tsc-offset":
        TscOffsetAttack(experiment.sim, tsc, action.t_ns, action.params["offset_ticks"])
    else:
        TscScaleAttack(experiment.sim, tsc, action.t_ns, float(action.params["scale"]))
    return set(TSC_ATTACK_VIOLATIONS)


def _aex_suppress(experiment: "Experiment", action: TimedAction, tag: str) -> None:
    source = _aex_source(experiment.cluster, action.params["node"])
    AexSuppressionAttack(experiment.sim, source, action.t_ns, action.heal_ns, name=tag)


def _aex_flood(experiment: "Experiment", action: TimedAction, tag: str) -> None:
    source = _aex_source(experiment.cluster, action.params["node"])
    flood = ExponentialAexDelays(max(int(float(action.params["mean_us"]) * MICROSECOND), 1))
    # The heal restores what the source looked like at compile time.
    previous, was_enabled = source.distribution, source.enabled

    def start():
        source.set_distribution(flood)
        source.resume()

    def stop():
        source.set_distribution(previous)
        if not was_enabled:
            source.pause()

    _timed(experiment, action, tag, start, stop)


def _ta_blackhole(experiment: "Experiment", action: TimedAction, tag: str) -> set:
    victims = action.params.get("victims")
    adversary = TaBlackholeAttack(
        experiment.sim,
        ta_host=experiment.cluster.tas[0].name,
        victims={node_name(v) for v in victims} if victims else None,
        start_ns=action.t_ns,
        stop_ns=action.heal_ns,
    )
    _add_adversary(experiment, adversary)
    return adversary.expected_violations()


def _net_delay(experiment: "Experiment", action: TimedAction, tag: str) -> set:
    params = action.params
    adversary = CalibrationDelayAttacker(
        experiment.sim,
        victim_host=node_name(params["victim"]),
        ta_host=experiment.cluster.tas[0].name,
        mode=AttackMode.F_PLUS if params["mode"] == "fplus" else AttackMode.F_MINUS,
        added_delay_ns=int(float(params["delay_ms"]) * MILLISECOND),
        active=False,
    )
    _add_adversary(experiment, adversary)
    _timed(experiment, action, tag, adversary.enable, adversary.disable)
    contained = all(node.contains_fminus for node in experiment.cluster.nodes)
    return adversary.expected_violations(contained)


def _node_crash(experiment: "Experiment", action: TimedAction, tag: str) -> None:
    # Exempt from the apply rule: a crash interrupts the enclave's threads,
    # which start with the run, so a t=0 crash lands just after boot.
    cluster, index, sim = experiment.cluster, action.params["node"], experiment.sim
    at(sim, action.t_ns, lambda: cluster.crash_node(index), name=f"{tag}-node{index}")
    at(sim, action.heal_ns, lambda: cluster.restart_node(index), name=f"{tag}-restart-node{index}")


def _ta_outage(experiment: "Experiment", action: TimedAction, tag: str) -> None:
    cluster, ta_index = experiment.cluster, action.params["ta"] - 1

    def set_down(down: bool) -> None:
        cluster.set_ta_down(down, ta_index=ta_index)

    _timed(experiment, action, tag, lambda: set_down(True), lambda: set_down(False),
           ("-down", "-up"))


def _partition(experiment: "Experiment", action: TimedAction, tag: str) -> None:
    cluster, name = experiment.cluster, action.params.get("name", tag)
    island = action.params["island"]
    _timed(experiment, action, tag, lambda: cluster.open_partition(name, island),
           lambda: cluster.heal_partition(name), ("-open", "-heal"))


def _loss_burst(experiment: "Experiment", action: TimedAction, tag: str) -> None:
    network = experiment.cluster.network
    # Restore whatever rate was in effect when the burst started (the
    # spec-configured base rate, normally zero). The faults syntax keeps
    # bursts non-overlapping, so fire-time capture is sound.
    saved: list[float] = []

    def start():
        saved.append(network.drop_probability)
        network.set_drop_probability(float(action.params["drop_probability"]))

    _timed(experiment, action, tag, start, lambda: network.set_drop_probability(saved.pop()))


def _churn(experiment: "Experiment", action: TimedAction, tag: str) -> None:
    cluster, index = experiment.cluster, action.params["node"]
    move = cluster.leave if action.kind == "leave" else cluster.join
    _timed(experiment, action, tag, lambda: move(index), names=(f"-node{index}",))


#: Every timed action, by kind: (apply, params per syntax naming the kind,
#: defaults). ``attacks`` and ``churn`` lower into these kinds with their
#: own syntax (see ``docs/actions.md``).
ACTIONS: dict[str, ActionKind] = {
    # Step the victim machine's TSC by a signed tick count.
    "tsc-offset": ActionKind(_tsc, {"schedule": ({"offset_ticks"}, {"victim"})}, {"victim": 1}),
    # Multiply the victim machine's TSC rate.
    "tsc-scale": ActionKind(_tsc, {"schedule": ({"scale"}, {"victim"})}, {"victim": 1}),
    # Isolate a node's monitoring core (no AEXs) for the window.
    "aex-suppress": ActionKind(_aex_suppress, {"schedule": ({"node"}, {"duration_ms"})}),
    # Flood a node's monitoring core with exponential(mean_us) AEXs.
    "aex-flood": ActionKind(_aex_flood, {"schedule": ({"node", "mean_us"}, {"duration_ms"})}),
    # Drop all TA traffic (optionally only for listed victims).
    "ta-blackhole": ActionKind(_ta_blackhole, {"schedule": (set(), {"duration_ms", "victims"})}),
    # On-path F+/F- calibration delay against one victim.
    "net-delay": ActionKind(
        _net_delay,
        {"schedule": ({"victim", "mode"}, {"delay_ms", "duration_ms"})},
        {"delay_ms": 100},
    ),
    # Crash a node's enclave (full TEE state loss); restart after down_ms.
    "node-crash": ActionKind(
        _node_crash,
        {"schedule": ({"node"}, {"down_ms"}), "faults": ({"node"}, {"down_ms"})},
        {"down_ms": 500.0},
    ),
    # Take one Time Authority offline for the window.
    "ta-outage": ActionKind(
        _ta_outage,
        {"schedule": ({"duration_ms"}, set()), "faults": ({"duration_ms"}, {"ta"})},
        {"ta": 1},
    ),
    # Cut an island (one node, from a schedule) off the fabric for the window.
    "partition": ActionKind(
        _partition,
        {
            "schedule": ({"node"}, {"duration_ms"}),
            "faults": ({"island", "duration_ms"}, {"name"}),
        },
    ),
    # Uniform packet-loss burst across the whole fabric.
    "loss-burst": ActionKind(
        _loss_burst, {"faults": ({"drop_probability", "duration_ms"}, set())}
    ),
    # Churn: a node departs (off the fabric, dormant) or (re)joins.
    "leave": ActionKind(_churn),
    "join": ActionKind(_churn),
}
