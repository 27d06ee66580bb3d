"""Declarative experiment specifications.

A reproduction is only useful if others can run *variations* without
editing code. :class:`ExperimentSpec` is a JSON-serializable description
of a full scenario — cluster shape, per-node AEX environments, protocol
variant, attacks, duration — that compiles into a wired
:class:`~repro.experiments.runner.Experiment`:

```json
{
  "name": "my-fminus-variant",
  "seed": 42,
  "duration_s": 300,
  "nodes": 3,
  "protocol": "hardened",
  "environments": {"1": "triad-like", "2": "triad-like", "3": "triad-like"},
  "machine_wide_mean_s": 324,
  "attacks": [
    {"type": "fminus", "victim": 3, "delay_ms": 100},
    {"type": "aex-onset", "nodes": [1, 2], "at_s": 104}
  ]
}
```

``python -m repro run-spec my.json`` executes it and prints the standard
drift table; ``drift_interval_s`` (default 1 s) spaces the drift samples
behind it. ``network_delay`` replaces the paper's LAN delay profile on
every link (``{"model": "constant", "delay_us": 100}`` or ``{"model":
"lognormal", "median_us": 150, "sigma": 0.35}``) and ``node_config``
overrides :class:`~repro.core.node.TriadNodeConfig` fields on every node.
Unknown keys and non-finite numbers are rejected — a typo must fail
loudly, not silently run a different experiment. The paper's canonical
scenarios and the sweeps' base specs are entries of this format
(:data:`repro.experiments.scenarios.SCENARIOS`):
:meth:`ExperimentSpec.build` is the only place a scenario is wired.

Everything a spec does to a run at an instant — the scenario-level
``attacks`` list, the timed ``schedule``, ``churn.schedule`` and
``faults.schedule`` — lowers into one table of timed actions
(:data:`repro.attacks.scheduler.ACTIONS`, ``docs/actions.md``), which
validates and applies each kind once; this module keeps only each
syntax's own checks. The ``schedule`` is a list of ``{"t_ns": ...,
"primitive": ..., "params": {...}}`` entries drawn from
:data:`SCHEDULE_PRIMITIVES`: the serialization format of ``repro.hunt``
genomes — every synthesized finding replays from plain spec JSON — and
handy for hand-scripted timelines at nanosecond resolution. Validation
errors name the offending entry (``attacks[1]: ...``, ``schedule[3]: ...``).

A spec may also carry a ``service`` block (see
:class:`repro.service.ServiceConfig`): the run then deploys per-node
front-ends, session workloads, and Marzullo quorum clients over the
cluster and reports client-visible SLO metrics next to the drift table.
Validation errors name the offending key (``service.sessions: ...``).

Two further blocks wire the membership control plane
(:mod:`repro.membership`):

* ``membership`` — ``{"mode": "observe" | "enforce", ...}`` plus any
  :class:`repro.membership.MembershipConfig` keys; the cluster is built in
  an inner plane scope of this mode and config, which wins over
  ``--membership`` and builds the cluster's one engine.
* ``churn`` — ``{"absent": [indices], "schedule": [{"t_s": ...,
  "node": ..., "action": "leave" | "join"}]}``; nodes listed in
  ``absent`` start dormant and off the fabric, and the schedule drives
  deterministic join/leave/rejoin at the given instants. Caution: a node
  that leaves during its own (re)calibration window black-holes its TA
  exchanges and the run fails with a calibration error — schedules must
  keep departures clear of FullCalib windows.

:meth:`ExperimentSpec.outcome` reduces a finished run to the fleet's
``spec`` task value: the drift table plus the report and rendering of
every attached plane (service, membership, faults recovery).
"""

from __future__ import annotations

import json
import numbers
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Any, Optional

from repro.analysis.metrics import DriftRecorder
from repro.attacks.scheduler import (
    Shape,
    TimedAction,
    apply_action,
    check_keys,
    entry_object,
    finite,
    instant_ns,
    integer,
    node_index,
    number,
    syntax_keys,
    validate,
)
from repro.core.cluster import ClusterConfig, TriadCluster
from repro.core.node import TriadNode, TriadNodeConfig
from repro.errors import ConfigurationError, FieldError
from repro.experiments.runner import Experiment
from repro.hardened.node import HardenedNodeConfig, HardenedTriadNode
from repro.hardware.aex import ExponentialAexDelays, TriadLikeAexDelays
from repro.net.delays import ConstantDelay, LogNormalDelay
from repro.oracle.policy import plane_policy
from repro.sim.kernel import Simulator
from repro.sim.units import MICROSECOND, MILLISECOND, SECOND

#: Recognized protocol variants.
PROTOCOLS = ("original", "hardened")

#: ``attacks`` types -> (timed-action kind, start key, end key, required
#: keys, optional keys). Start/end keys are instants in seconds (no start:
#: t=0; no end: no heal), ``fplus``/``fminus`` name the ``net-delay`` mode,
#: and a ``nodes`` list gives one action per node — so ``aex-onset`` is an
#: ``aex-suppress`` window [0, ``at_s``) on each listed node.
ATTACK_TYPES = {
    "fplus": ("net-delay", None, None, {"victim"}, {"delay_ms"}),
    "fminus": ("net-delay", None, None, {"victim"}, {"delay_ms"}),
    "ta-blackhole": ("ta-blackhole", "start_s", "stop_s", set(), {"victims", "start_s", "stop_s"}),
    "tsc-scale": ("tsc-scale", "at_s", None, {"scale", "at_s"}, {"victim"}),
    "tsc-offset": ("tsc-offset", "at_s", None, {"offset_ticks", "at_s"}, {"victim"}),
    "aex-onset": ("aex-suppress", None, "at_s", {"nodes", "at_s"}, set()),
    "aex-suppress": ("aex-suppress", None, None, {"nodes"}, set()),
}

#: Timed-schedule primitives — the genome alphabet of ``repro.hunt``:
#: primitive -> (required param keys, optional param keys), a view of
#: the timed-action table. Every entry takes effect at its absolute
#: ``t_ns``; primitives with a ``duration_ms`` param revert when the
#: window closes.
SCHEDULE_PRIMITIVES = syntax_keys("schedule")

_SCHEDULE_ENTRY_KEYS = {"t_ns", "primitive", "params"}

_SPEC_KEYS = {
    "name",
    "seed",
    "duration_s",
    "nodes",
    "protocol",
    "environments",
    "machine_wide_mean_s",
    "machine_wide_correlation",
    "drift_interval_s",
    "ta_count",
    "attacks",
    "schedule",
    "service",
    "membership",
    "churn",
    "faults",
    "network_delay",
    "node_config",
}

#: Top-level scalar keys -> (the type(s) their value must have, its name);
#: bools are neither, and numbers must be finite.
_SCALARS = {
    **dict.fromkeys(("seed", "nodes", "ta_count"), (numbers.Integral, "an integer")),
    **dict.fromkeys(
        ("duration_s", "machine_wide_correlation", "drift_interval_s"),
        (numbers.Real, "a finite number"),
    ),
    "machine_wide_mean_s": ((numbers.Real, type(None)), "a finite number or null"),
}

#: ``network_delay`` models -> (their parameter keys, the model they build).
_DELAY_MODELS = {
    "constant": (("delay_us",), lambda p: ConstantDelay(int(float(p["delay_us"]) * MICROSECOND))),
    "lognormal": (
        ("median_us", "sigma"),
        lambda p: LogNormalDelay(int(float(p["median_us"]) * MICROSECOND), float(p["sigma"])),
    ),
}

#: ``node_config`` fields -> the type of their default, which decides the
#: values a spec may give them.
_NODE_FIELDS = {f.name: type(f.default) for f in fields(TriadNodeConfig)}
#: Default type -> (accepts(value), what an error says the value must be).
_FIELD_RULES = {
    bool: (lambda v: type(v) is bool, "true or false"),
    int: (lambda v: integer(v) and v >= 0, "a non-negative integer"),
    float: (lambda v: number(v) and v >= 0, "a non-negative finite number"),
    tuple: (
        lambda v: isinstance(v, list) and bool(v) and all(integer(x) and x >= 0 for x in v),
        "a non-empty list of non-negative integers",
    ),
    type(None): (lambda v: v is None or integer(v) and v >= 0, "a non-negative integer or null"),
}
#: The fault-recovery bootstrap a ``faults.retry`` block turns on: four
#: (0, 250 ms) calibration rounds instead of the paper's two (0, 1 s), so
#: an AEX inside a sleep voids 250 ms, not a second, then the paper's
#: (0, 1 s) × 2 in the background to refine the coarse rate
#: (``docs/faults.md``).
_RETRY_BOOTSTRAP = {
    "calibration_sleeps_ns": (0, 250 * MILLISECOND),
    "calibration_rounds": 4,
    "refine_rate": True,
}

_CHURN_KEYS = {"absent", "schedule"}
_CHURN_ENTRY_KEYS = {"t_s", "node", "action"}
_CHURN_ACTIONS = ("leave", "join")


@dataclass
class ExperimentSpec:
    """A validated, serializable experiment description."""

    name: str
    seed: int = 1
    duration_s: float = 300.0
    nodes: int = 3
    protocol: str = "original"
    #: node index (int) -> "triad-like" | "low-aex"; unlisted: "low-aex".
    environments: dict[int, str] = field(default_factory=dict)
    #: Mean spacing of residual machine-wide OS interrupts (None: none);
    #: default the 5.4 minutes of the paper's Fig. 1b isolated core.
    machine_wide_mean_s: Optional[float] = 324.0
    machine_wide_correlation: float = 0.95
    #: Spacing of the drift table's samples (Fig. 3 samples every 5 s).
    drift_interval_s: float = 1.0
    ta_count: int = 1
    attacks: list[dict[str, Any]] = field(default_factory=list)
    #: Timed attack schedule: [{"t_ns": int, "primitive": str, "params": {...}}].
    schedule: list[dict[str, Any]] = field(default_factory=list)
    #: Service workload block (see :class:`repro.service.ServiceConfig`):
    #: deploys per-node front-ends plus quorum clients over the cluster
    #: and makes the run report client-visible SLO metrics.
    service: Optional[dict[str, Any]] = None
    #: Membership block: ``{"mode": "observe"|"enforce"}`` plus any
    #: :class:`repro.membership.MembershipConfig` keys: the plane scope the
    #: cluster is built in, giving it an epoch membership engine (verdicts,
    #: and in enforce mode epoch-key rotation).
    membership: Optional[dict[str, Any]] = None
    #: Churn block: ``{"absent": [...], "schedule": [{"t_s", "node",
    #: "action"}]}`` — deterministic join/leave/rejoin over the run.
    churn: Optional[dict[str, Any]] = None
    #: Fault-injection block (see :class:`repro.faults.FaultPlan`):
    #: ``{"schedule": [{"t_s", "kind", ...}], "recovery_deadline_s",
    #: "retry": {...}}`` — deterministic crash/restart, TA outages,
    #: partitions and loss bursts, plus the recovery contract the oracle
    #: judges after the last fault heals. A ``retry`` block also switches
    #: the nodes to the fault-recovery calibration bootstrap
    #: (``_RETRY_BOOTSTRAP``; ``node_config`` fields override it).
    faults: Optional[dict[str, Any]] = None
    #: One-way delay model of every link, ``constant`` (``delay_us``) or
    #: ``lognormal`` (``median_us``, ``sigma``); None: the paper's LAN profile.
    network_delay: Optional[dict[str, Any]] = None
    #: :class:`~repro.core.node.TriadNodeConfig` field overrides for every
    #: node, on top of the protocol's default config.
    node_config: Optional[dict[str, Any]] = None

    # -- construction & validation -------------------------------------------

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("spec needs a name")
        for key, (kind, noun) in _SCALARS.items():
            value = getattr(self, key)
            if isinstance(value, bool) or not isinstance(value, kind) or not finite(value):
                raise ConfigurationError(f"{key}: must be {noun}, got {value!r}")
        if self.duration_s <= 0:
            raise ConfigurationError(f"duration must be positive, got {self.duration_s}")
        if self.drift_interval_s <= 0:
            raise ConfigurationError(
                f"drift interval must be positive, got {self.drift_interval_s}"
            )
        if self.nodes < 1:
            raise ConfigurationError(f"need at least one node, got {self.nodes}")
        if self.protocol not in PROTOCOLS:
            raise ConfigurationError(
                f"unknown protocol {self.protocol!r}; choose from {PROTOCOLS}"
            )
        environments = entry_object("environments", self.environments, "value")
        self.environments = {}
        for key, environment in environments.items():
            try:
                index = int(key)
            except (TypeError, ValueError):
                raise ConfigurationError(
                    f"environments: node index must be an integer, got {key!r}"
                ) from None
            if not 1 <= index <= self.nodes:
                raise ConfigurationError(f"environment for unknown node {index}")
            if environment not in ("triad-like", "low-aex"):
                raise ConfigurationError(f"unknown environment {environment!r}")
            self.environments[index] = environment
        # Lowered once here, for build and outcome to reuse; plain
        # attributes, not fields, so they stay out of asdict/to_json.
        self._attacks = self._attack_actions()
        self._timed = self._schedule_actions()
        if self.service is not None:
            self._validate_service(self.service)
        self._membership = None if self.membership is None else self._membership_plane()
        self._timed += self._churn_actions()
        self._faults = None if self.faults is None else self._fault_plan()
        self._delay_model = None if self.network_delay is None else self._network_delay()
        self._node_config_value = self._lower_node_config()

    def _network_delay(self):
        """Compile the ``network_delay`` block into a delay model."""
        params = dict(entry_object("network_delay", self.network_delay, "block"))
        model = params.pop("model", None)
        if model not in _DELAY_MODELS:
            raise ConfigurationError(
                f"network_delay.model: unknown model {model!r}; choose from {sorted(_DELAY_MODELS)}"
            )
        keys, build = _DELAY_MODELS[model]
        check_keys("network_delay", model, params, set(keys), set())
        for key, value in params.items():
            if not number(value) or value <= 0:
                raise ConfigurationError(f"network_delay.{key}: must be positive, got {value!r}")
        return build(params)

    def _lower_node_config(self) -> TriadNodeConfig:
        """The config every node is built with: the protocol's default, the
        fault-recovery bootstrap if ``faults.retry`` is given, then the
        ``node_config`` block, then ``faults.retry``; its rules' errors
        name the block key that set the rejected field."""
        overrides = {} if self.node_config is None else self._node_config_fields()
        retry = {} if self._faults is None else self._faults.retry_overrides
        bootstrap = _RETRY_BOOTSTRAP if self._faults is not None and "retry" in self.faults else {}
        base = HardenedNodeConfig() if self.protocol == "hardened" else TriadNodeConfig()
        try:
            return replace(base, **{**bootstrap, **overrides, **retry})
        except FieldError as exc:
            if exc.field in retry:
                from repro.faults.plan import retry_error

                raise retry_error(exc) from None
            raise ConfigurationError(f"node_config.{exc.field}: {exc.reason}") from None

    def _node_config_fields(self) -> dict[str, Any]:
        """Type-check the ``node_config`` block into TriadNodeConfig field values."""
        overrides = {}
        for key, value in entry_object("node_config", self.node_config, "block").items():
            if key not in _NODE_FIELDS:
                raise ConfigurationError(
                    f"node_config: unknown field {key!r}; choose from {sorted(_NODE_FIELDS)}"
                )
            kind = _NODE_FIELDS[key]
            accepts, expected = _FIELD_RULES[kind]
            if not accepts(value):
                raise ConfigurationError(f"node_config.{key}: must be {expected}, got {value!r}")
            overrides[key] = kind(value) if kind in (tuple, float) else value
        return overrides

    def _membership_plane(self):
        """Lower the ``membership`` block into its (mode, config) plane scope."""
        # Imported here for the same layering reason as the service block.
        from repro.membership.config import MembershipConfig
        from repro.membership.engine import CONTROLLER_MODES

        raw = dict(entry_object("membership", self.membership, "block"))
        mode = raw.pop("mode", "observe")
        if mode not in CONTROLLER_MODES:
            raise ConfigurationError(
                f"membership.mode: unknown mode {mode!r}; "
                f"choose from {CONTROLLER_MODES}"
            )
        return mode, MembershipConfig.from_dict(raw)

    @property
    def _shape(self) -> Shape:
        return Shape(self.nodes, self.ta_count)

    def _attack_actions(self) -> list[tuple[str, TimedAction]]:
        """Lower the ``attacks`` list into (process tag, timed action) pairs."""
        actions = []
        for index, attack in enumerate(self.attacks):
            where = f"attacks[{index}]"
            kind = entry_object(where, attack).get("type")
            if kind not in ATTACK_TYPES:
                raise ConfigurationError(
                    f"{where}: unknown attack type {kind!r}; choose from {sorted(ATTACK_TYPES)}"
                )
            target, start, end, required, optional = ATTACK_TYPES[kind]
            params = {key: value for key, value in attack.items() if key != "type"}
            check_keys(where, kind, params, required, optional)
            t_ns = instant_ns(where, start, params.pop(start)) if start in params else 0
            heal_ns = instant_ns(where, end, params.pop(end)) if end in params else None
            if target == "net-delay":
                params["mode"] = kind
            nodes = params.pop("nodes", None)
            if nodes is not None and (not isinstance(nodes, list) or not nodes):
                raise ConfigurationError(f"{where}: nodes must be a non-empty list")
            for each in [params] if nodes is None else [{**params, "node": n} for n in nodes]:
                action = validate(where, t_ns, target, each, self._shape, heal_ns)
                node = action.params.get("node")
                if target == "aex-suppress" and self.environments.get(node) != "triad-like":
                    raise ConfigurationError(
                        f"{where}/{kind}: node {node} has no AEX source to control — give it "
                        f"the 'triad-like' environment in the spec"
                    )
                actions.append((f"{where}/{kind}", action))
        return actions

    def _schedule_actions(self) -> list[tuple[str, TimedAction]]:
        """Lower the timed ``schedule`` into (process tag, timed action) pairs."""
        actions = []
        for index, entry in enumerate(self.schedule):
            where = f"schedule[{index}]"
            unknown = set(entry_object(where, entry)) - _SCHEDULE_ENTRY_KEYS
            if unknown:
                raise ConfigurationError(f"{where}: unknown keys {sorted(unknown)}")
            missing = {"t_ns", "primitive"} - set(entry)
            if missing:
                raise ConfigurationError(f"{where}: missing keys {sorted(missing)}")
            t_ns, primitive = entry["t_ns"], entry["primitive"]
            if isinstance(t_ns, bool) or not isinstance(t_ns, int) or t_ns < 0:
                raise ConfigurationError(
                    f"{where}: t_ns must be a non-negative integer, got {t_ns!r}"
                )
            if primitive not in SCHEDULE_PRIMITIVES:
                raise ConfigurationError(
                    f"{where}: unknown primitive {primitive!r}; "
                    f"choose from {sorted(SCHEDULE_PRIMITIVES)}"
                )
            params = entry.get("params", {})
            if not isinstance(params, dict):
                raise ConfigurationError(
                    f"{where}: params must be an object, got {type(params).__name__}"
                )
            action = validate(
                where, t_ns, primitive, params, self._shape, syntax="schedule", noun="params"
            )
            actions.append((f"{where}/{primitive}", action))
        return actions

    def _churn_actions(self) -> list[tuple[str, TimedAction]]:
        """Lower ``churn.schedule`` into (process tag, timed action) pairs in
        time order, rejecting a leave of an absent node or a join of a present one."""
        if self.churn is None:
            return []
        raw = entry_object("churn", self.churn, "block")
        unknown = set(raw) - _CHURN_KEYS
        if unknown:
            raise ConfigurationError(f"churn: unknown keys {sorted(unknown)}")
        absent, schedule = raw.get("absent", []), raw.get("schedule", [])
        if not isinstance(absent, list):
            raise ConfigurationError("churn.absent: must be a list of node indices")
        present = set(range(1, self.nodes + 1))
        for value in absent:
            index = node_index("churn.absent", "node", value, self._shape)
            if index not in present:
                raise ConfigurationError(f"churn.absent: duplicate node {index}")
            present.discard(index)
        if not present:
            raise ConfigurationError("churn.absent: at least one node must be present at start")
        if not isinstance(schedule, list):
            raise ConfigurationError("churn.schedule: must be a list of entries")
        timed = []
        for position, entry in enumerate(schedule):
            where = f"churn.schedule[{position}]"
            unknown = set(entry_object(where, entry)) - _CHURN_ENTRY_KEYS
            if unknown:
                raise ConfigurationError(f"{where}: unknown keys {sorted(unknown)}")
            missing = _CHURN_ENTRY_KEYS - set(entry)
            if missing:
                raise ConfigurationError(f"{where}: missing keys {sorted(missing)}")
            if entry["action"] not in _CHURN_ACTIONS:
                raise ConfigurationError(
                    f"{where}: unknown action {entry['action']!r}; choose from {_CHURN_ACTIONS}"
                )
            t_ns = instant_ns(where, "t_s", entry["t_s"])
            action = validate(where, t_ns, entry["action"], {"node": entry["node"]}, self._shape)
            timed.append((where, entry["t_s"], action))
        actions = []
        for position, (where, t_s, action) in enumerate(sorted(timed, key=lambda item: item[1])):
            index, leaving = action.params["node"], action.kind == "leave"
            if (index in present) != leaving:
                state = "absent" if leaving else "present"
                raise ConfigurationError(f"{where}: node {index} is already {state} at t_s={t_s}")
            present ^= {index}
            actions.append((f"churn[{position}]/{action.kind}", action))
        return actions

    def _fault_plan(self):
        """Validate (and compile) the ``faults`` block against this spec."""
        # Imported here for the same layering reason as the service block.
        from repro.faults import FaultPlan

        return FaultPlan.from_spec(
            self.faults,
            nodes=self.nodes,
            ta_count=self.ta_count,
            duration_s=self.duration_s,
        )

    def _validate_service(self, raw: dict[str, Any]) -> None:
        # Imported here: repro.service pulls in the experiment runner,
        # which this module's import graph already sits on top of.
        from repro.service.config import ServiceConfig

        config = ServiceConfig.from_dict(raw)
        if config.quorum > self.nodes:
            raise ConfigurationError(
                f"service.quorum: fan-out of {config.quorum} exceeds the "
                f"cluster of {self.nodes} node(s)"
            )
        if config.start_s >= self.duration_s:
            raise ConfigurationError(
                f"service.start_s: warm-up of {config.start_s}s leaves no "
                f"room in a {self.duration_s}s run"
            )

    @classmethod
    def from_dict(cls, raw: dict[str, Any]) -> "ExperimentSpec":
        unknown = set(raw) - _SPEC_KEYS
        if unknown:
            raise ConfigurationError(f"unknown spec keys: {sorted(unknown)}")
        if "name" not in raw:
            raise ConfigurationError("spec needs a name")
        return cls(**raw)

    @staticmethod
    def parse(text: str) -> dict[str, Any]:
        """The raw spec dict of a spec JSON text (not yet validated)."""
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"invalid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise ConfigurationError("spec JSON must be an object")
        return raw

    @classmethod
    def from_json(cls, text: str) -> "ExperimentSpec":
        return cls.from_dict(cls.parse(text))

    @classmethod
    def load(cls, path: str | Path) -> "ExperimentSpec":
        return cls.from_json(Path(path).read_text())

    def to_json(self) -> str:
        raw = asdict(self)
        raw["environments"] = {str(k): v for k, v in self.environments.items()}
        return json.dumps(raw, indent=2)

    # -- compilation ------------------------------------------------------------

    @property
    def duration_ns(self) -> int:
        return int(self.duration_s * SECOND)

    def build(self) -> Experiment:
        """Wire the experiment (does not run it)."""
        node_class = HardenedTriadNode if self.protocol == "hardened" else TriadNode
        # Shared-host clusters pin one monitoring core per node; specs may
        # deploy hundreds of nodes, so the host grows beyond the paper's
        # 32 cores when needed (identical machine for nodes <= 32).
        config = ClusterConfig(
            node_count=self.nodes,
            core_count=max(32, self.nodes),
            ta_count=self.ta_count,
            initial_absent=tuple(sorted(self.churn.get("absent", []))) if self.churn else (),
            delay_model=self._delay_model,
            node_class=node_class,
            node_config=self._node_config_value,
        )
        sim = Simulator(seed=self.seed)
        # A membership block is an inner plane scope, winning over the policy's.
        mode, membership_config = self._membership or (None, None)
        with plane_policy(membership=mode, membership_config=membership_config):
            cluster = TriadCluster(sim, config)
        machine = cluster.machine
        for index, core in enumerate(cluster.monitoring_cores, start=1):
            if self.environments.get(index) == "triad-like":
                machine.add_aex_source(core, TriadLikeAexDelays(), cause="rdmsr-sim")
        if self.machine_wide_mean_s is not None:
            machine.add_machine_wide_interrupts(
                ExponentialAexDelays(int(self.machine_wide_mean_s * SECOND)),
                core_indices=cluster.monitoring_cores,
                correlation_probability=self.machine_wide_correlation,
            )
        interval_ns = int(self.drift_interval_s * SECOND)
        recorder = DriftRecorder(sim, cluster.nodes, interval_ns=interval_ns)
        experiment = Experiment(name=self.name, sim=sim, cluster=cluster, recorder=recorder)
        for tag, action in self._attacks:
            apply_action(experiment, action, tag)
        for tag, action in self._timed:
            apply_action(experiment, action, tag)
        if self.service is not None:
            from repro.service import ServiceConfig, TimeService

            TimeService.attach(experiment, ServiceConfig.from_dict(self.service))
        if self._faults is not None:
            from repro.faults import apply_fault_plan

            apply_fault_plan(experiment, self._faults)
        return experiment

    def run(self) -> Experiment:
        """Build and run to the configured duration."""
        return self.build().run(self.duration_ns)

    def outcome(self, experiment: Experiment, export: bool = False) -> dict[str, Any]:
        """JSON-able result of a finished run of this spec: the drift table
        (``rendered``), :func:`plane_outcomes` (``planes``) and, with
        ``export``, the series CSVs (:func:`~repro.analysis.export.experiment_csvs`)."""
        # Imported here: the figures import the canonical scenarios, which
        # are entries of this module's specs.
        from repro.analysis.export import experiment_csvs
        from repro.experiments.figures import DriftFigureResult

        table = DriftFigureResult(experiment=experiment, duration_ns=self.duration_ns)
        value = {
            "spec": self.name,
            "rendered": table.render(
                f"spec: {self.name} ({self.protocol}, {self.duration_s:.0f}s)"
            ),
            "planes": plane_outcomes(experiment, self._faults),
            "sim_ns": self.duration_ns,
        }
        if export:
            value["export"] = experiment_csvs(table)
        return value


def plane_outcomes(experiment: Experiment, faults=None) -> dict[str, dict[str, Any]]:
    """Each plane attached to a finished run, mapped to its ``report`` and
    ``rendered`` text: ``service``, ``membership`` (the spec block's engine
    or the policy's), and with a fault plan ``faults`` (the recovery/MTTR
    report, carrying the service SLOs when a service rode the faults)."""
    planes: dict[str, dict[str, Any]] = {}
    if experiment.service is not None:
        service = experiment.service.report()
        planes["service"] = {"report": service.to_dict(), "rendered": service.render()}
    if experiment.membership is not None:
        from repro.membership.engine import render_report

        report = experiment.membership.report()
        planes["membership"] = {"report": report, "rendered": render_report(report)}
    if faults is not None:
        from repro.faults import recovery_report, render_recovery_report

        report = recovery_report(experiment, faults)
        rendered = render_recovery_report(report)
        if "service" in planes:
            report["service"] = planes["service"]["report"]
        planes["faults"] = {"report": report, "rendered": rendered}
    return planes
