"""Validated fault plans: the ``faults`` block of an experiment spec.

A fault plan is deterministic data, not code: a timed schedule of fault
events, a recovery deadline, and (optionally) retry-policy overrides for
every node. The fault kinds are rows of the timed-action table
(:mod:`repro.attacks.scheduler`), which validates and applies them; this
module keeps the ``faults`` syntax — flat ``{"t_s", "kind", ...}``
entries, errors naming ``faults.schedule[2]: ...`` — and its cross-entry
checks.

Every fault in a plan heals: crashes restart after ``down_ms``, outages,
partitions and loss bursts close after ``duration_ms``. That totality is
what makes the recovery contract judgeable — the plan knows its *last
heal instant*, and the oracle's ``recovery`` invariant requires every
node back in ``OK`` within ``recovery_deadline_s`` of it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping

from repro.attacks.scheduler import (
    Shape,
    TimedAction,
    apply_action,
    entry_object,
    instant_ns,
    number,
    syntax_keys,
    validate,
)
from repro.core.node import TriadNodeConfig
from repro.errors import ConfigurationError, FieldError
from repro.sim.units import MILLISECOND, SECOND

if TYPE_CHECKING:  # pragma: no cover
    from repro.experiments.runner import Experiment

#: Fault kinds -> (required keys, optional keys) besides ``t_s`` and
#: ``kind``: a view of the timed-action table.
FAULT_KINDS = syntax_keys("faults")

_PLAN_KEYS = {"schedule", "recovery_deadline_s", "retry"}

#: ``retry`` block keys -> (TriadNodeConfig field, converter). Converters
#: turn spec units (seconds / milliseconds) into config-native ones.
_RETRY_FIELDS = {
    "backoff_factor": ("retry_backoff_factor", float),
    "jitter": ("retry_jitter", float),
    "backoff_s": ("ta_retry_backoff_ns", lambda v: int(float(v) * SECOND)),
    "max_backoff_s": ("retry_backoff_max_ns", lambda v: int(float(v) * SECOND)),
    "calibration_backoff_ms": (
        "calibration_retry_backoff_ns",
        lambda v: int(float(v) * MILLISECOND),
    ),
    "attempt_budget": ("ta_fetch_attempt_budget", lambda v: None if v is None else int(v)),
}

#: Post-heal grace before the recovery invariant flags stragglers. Sized
#: for a cold FullCalib (monitor windows + two TA rounds) with slack.
DEFAULT_RECOVERY_DEADLINE_S = 15.0


@dataclass(frozen=True)
class FaultPlan:
    """A validated fault schedule plus its recovery contract."""

    events: tuple[TimedAction, ...]
    recovery_deadline_ns: int
    #: TriadNodeConfig field overrides (already converted to config units).
    retry_overrides: Mapping[str, Any] = field(default_factory=dict)

    @property
    def last_heal_ns(self) -> int:
        """The instant the final fault heals (0 for an empty plan)."""
        return max((event.heal_ns for event in self.events), default=0)

    @classmethod
    def from_spec(
        cls,
        raw: Any,
        *,
        nodes: int,
        ta_count: int = 1,
        duration_s: float,
    ) -> "FaultPlan":
        """Validate a spec ``faults`` block against the cluster shape."""
        unknown = set(entry_object("faults", raw, "block")) - _PLAN_KEYS
        if unknown:
            raise ConfigurationError(f"faults: unknown keys {sorted(unknown)}")

        deadline_s = raw.get("recovery_deadline_s", DEFAULT_RECOVERY_DEADLINE_S)
        if not number(deadline_s) or deadline_s <= 0:
            raise ConfigurationError(
                f"faults.recovery_deadline_s: must be a positive number, got {deadline_s!r}"
            )

        schedule = raw.get("schedule", [])
        if not isinstance(schedule, list):
            raise ConfigurationError("faults.schedule: must be a list of entries")
        duration_ns = int(duration_s * SECOND)
        shape = Shape(nodes, ta_count)
        events = [_validate_entry(index, entry, shape) for index, entry in enumerate(schedule)]
        events.sort(key=lambda event: (event.t_ns, event.heal_ns, event.kind))
        _check_windows(events, duration_ns)

        return cls(
            events=tuple(events),
            recovery_deadline_ns=int(float(deadline_s) * SECOND),
            retry_overrides=_validate_retry(raw.get("retry", {})),
        )


def apply_fault_plan(experiment: "Experiment", plan: FaultPlan) -> None:
    """Schedule the faults and arm recovery (``ExperimentSpec`` builds the
    plan's ``retry_overrides`` into the node config of the cluster)."""
    for position, event in enumerate(plan.events):
        apply_action(experiment, event, f"faults[{position}]/{event.kind}")
    oracle = experiment.cluster.oracle
    if oracle is not None and plan.events:
        oracle.expect_recovery(plan.last_heal_ns, plan.recovery_deadline_ns)


def _validate_entry(index: int, entry: Any, shape: Shape) -> TimedAction:
    where = f"faults.schedule[{index}]"
    kind = entry_object(where, entry).get("kind")
    if kind not in FAULT_KINDS:
        raise ConfigurationError(
            f"{where}: unknown kind {kind!r}; choose from {sorted(FAULT_KINDS)}"
        )
    if "t_s" not in entry:
        raise ConfigurationError(f"{where}: {kind} missing keys ['t_s']")
    params = {key: value for key, value in entry.items() if key not in ("t_s", "kind")}
    if kind == "partition":
        params.setdefault("name", f"fault-partition-{index}")
    t_ns = instant_ns(where, "t_s", entry["t_s"])
    return validate(where, t_ns, kind, params, shape, syntax="faults")


def _check_windows(events: list[TimedAction], duration_ns: int) -> None:
    """Cross-entry checks: everything heals in-run, no impossible overlaps."""
    crash_windows: dict[int, tuple[int, int, int]] = {}
    burst_close_ns = -1
    partition_names: set[str] = set()
    for position, event in enumerate(events):
        where = f"faults.schedule[{position}]"
        if event.heal_ns >= duration_ns:
            raise ConfigurationError(
                f"{where}: {event.kind} heals at {event.heal_ns / SECOND:.3f}s, "
                f"past the {duration_ns / SECOND:.3f}s run — every fault must "
                f"heal in-run for the recovery contract to be judgeable"
            )
        if event.kind == "node-crash":
            node = event.params["node"]
            previous = crash_windows.get(node)
            if previous is not None and event.t_ns <= previous[1]:
                raise ConfigurationError(
                    f"{where}: node {node} crashes at {event.t_ns / SECOND:.3f}s "
                    f"while still down from faults.schedule[{previous[2]}]"
                )
            crash_windows[node] = (event.t_ns, event.heal_ns, position)
        elif event.kind == "partition":
            name = event.params["name"]
            if name in partition_names:
                raise ConfigurationError(
                    f"{where}: duplicate partition name {name!r}"
                )
            partition_names.add(name)
        elif event.kind == "loss-burst":
            if event.t_ns <= burst_close_ns:
                raise ConfigurationError(
                    f"{where}: loss-burst windows must not overlap"
                )
            burst_close_ns = event.heal_ns


def _validate_retry(raw: Any) -> dict[str, Any]:
    """Convert a ``retry`` block to TriadNodeConfig fields and check them by its rules."""
    unknown = set(entry_object("faults.retry", raw, "block")) - set(_RETRY_FIELDS)
    if unknown:
        raise ConfigurationError(f"faults.retry: unknown keys {sorted(unknown)}")
    overrides: dict[str, Any] = {}
    for key, value in raw.items():
        field_name, convert = _RETRY_FIELDS[key]
        try:
            overrides[field_name] = convert(value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigurationError(f"faults.retry.{key}: {exc}") from exc
    try:
        TriadNodeConfig(**overrides)
    except FieldError as exc:
        raise retry_error(exc) from None
    return overrides


def retry_error(exc: FieldError) -> ConfigurationError:
    """A rejected TriadNodeConfig retry field, named by its ``faults.retry`` key."""
    (key,) = [key for key, (name, _) in _RETRY_FIELDS.items() if name == exc.field]
    return ConfigurationError(f"faults.retry.{key}: {exc.reason}")
