"""The plane policy: which planes a run gets, and the one runner judging them.

The invariant oracle and the membership controller must cover every way
a simulation is built — CLI runs, sweeps, specs, and fleet worker
processes rebuilding clusters from pickled tasks — without threading an
argument through every constructor. So :class:`~repro.core.cluster.TriadCluster`
consults the plane policy in scope once, at construction
(:meth:`PlaneScope.attach`).

:func:`plane_policy` opens a scope; modes left ``None`` are inherited,
and outside any scope every plane is off. A spec's ``membership`` block
opens an inner scope of its own mode and config around its cluster, so
:meth:`PlaneScope.attach` is the one place an engine is built. Oracle
modes: ``off``, ``warn`` (report violations), ``strict`` (violations
outside the oracle's allowance fail the run). Membership modes:
``off``, ``observe`` (verdicts only), ``enforce`` (verdicts rotate the
epoch key, cutting non-members off). A scope holds the planes it built until they
are drained or it exits; then undrained ones pass to the enclosing scope,
or are released when there is none.

:func:`run_planes` is the one in-process runner: it runs a callable
under the requested modes, then drains, finalizes and judges every
plane that call built. The allowance each oracle is judged against is
its own: attacks and quarantines tell it (:meth:`InvariantOracle.allow`)
at the point of cause, so no runner, task name or table grants any. The fleet's
:func:`~repro.fleet.tasks.execute_task` (with the modes a task carries in
its ``overrides``, so they cross process boundaries with the task) goes
through it, and every CLI command reaches it that way: each runs fleet
tasks, in-process at ``--jobs 1``.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.errors import ConfigurationError, OracleViolationError
from repro.membership.config import MembershipConfig
from repro.membership.engine import CONTROLLER_MODES, MembershipController
from repro.oracle.oracle import InvariantOracle, OracleConfig, watch_cluster

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.cluster import TriadCluster
    from repro.oracle.violations import Violation

#: Valid oracle modes, in escalation order.
ORACLE_MODES = ("off", "warn", "strict")
#: Valid membership modes, in escalation order.
MEMBERSHIP_MODES = ("off",) + CONTROLLER_MODES


@dataclass
class PlaneScope:
    """Plane modes and configs in force, plus the planes built under them."""

    oracle: str = "off"
    membership: str = "off"
    oracle_config: OracleConfig = field(default_factory=OracleConfig)
    membership_config: MembershipConfig = field(default_factory=MembershipConfig)
    #: Planes this scope created and still holds (see :meth:`drain`).
    oracles: list[InvariantOracle] = field(default_factory=list)
    controllers: list[MembershipController] = field(default_factory=list)

    def __post_init__(self) -> None:
        for plane, mode, modes in (
            ("oracle", self.oracle, ORACLE_MODES),
            ("membership", self.membership, MEMBERSHIP_MODES),
        ):
            if mode not in modes:
                raise ConfigurationError(f"unknown {plane} mode {mode!r}; choose from {modes}")

    @property
    def strict(self) -> bool:
        return self.oracle == "strict"

    def attach(
        self, cluster: "TriadCluster"
    ) -> tuple[Optional[InvariantOracle], Optional[MembershipController]]:
        """Build the planes this scope asks for on a freshly wired cluster.

        Called by :class:`~repro.core.cluster.TriadCluster` at the end of
        construction, which is what makes plane coverage universal: every
        code path that builds a cluster is watched without knowing it.
        """
        oracle = controller = None
        if self.oracle != "off":
            oracle = watch_cluster(cluster.sim, cluster.nodes, config=self.oracle_config)
            self.oracles.append(oracle)
        if self.membership != "off":
            controller = MembershipController(
                cluster, config=self.membership_config, mode=self.membership
            )
            self.controllers.append(controller)
        return oracle, controller

    def drain(self) -> tuple[list[InvariantOracle], list[MembershipController]]:
        """Return and release the planes created since the previous drain."""
        drained = self.oracles, self.controllers
        self.oracles, self.controllers = [], []
        return drained


#: Open scopes, innermost last.
_scopes: list[PlaneScope] = []


def current_policy() -> PlaneScope:
    """The innermost open scope (a fresh all-off one outside any scope)."""
    return _scopes[-1] if _scopes else PlaneScope()


@contextmanager
def plane_policy(
    oracle: Optional[str] = None,
    membership: Optional[str] = None,
    *,
    oracle_config: Optional[OracleConfig] = None,
    membership_config: Optional[MembershipConfig] = None,
):
    """Open a plane scope; ``None`` modes inherit the enclosing scope's."""
    parent = current_policy()
    scope = PlaneScope(
        oracle or parent.oracle,
        membership or parent.membership,
        oracle_config or (parent.oracle_config if oracle is None else OracleConfig()),
        membership_config
        or (parent.membership_config if membership is None else MembershipConfig()),
    )
    _scopes.append(scope)
    try:
        yield scope
    finally:
        _scopes.pop()
        if _scopes:
            _scopes[-1].oracles.extend(scope.oracles)
            _scopes[-1].controllers.extend(scope.controllers)


def oracle_policy(mode: str, config: Optional[OracleConfig] = None):
    """Open a scope with oracle ``mode`` (membership inherited)."""
    return plane_policy(oracle=mode, oracle_config=config)


def drain_created_oracles() -> list[InvariantOracle]:
    """Return and release the innermost scope's oracles ([] outside any scope)."""
    if not _scopes:
        return []
    drained, _scopes[-1].oracles = _scopes[-1].oracles, []
    return drained


def unexpected_error(label: str, unexpected: list["Violation"]) -> OracleViolationError:
    """The strict-mode failure for ``unexpected`` violations of ``label``."""
    pairs = sorted({f"{v.node}/{v.invariant}" for v in unexpected})
    return OracleViolationError(
        f"{label}: {len(unexpected)} unexpected invariant violation(s): " + ", ".join(pairs),
        violations=[v.to_dict() for v in unexpected],
    )


@dataclass
class PlaneRun:
    """What :func:`run_planes` observed: the value and every judged oracle."""

    value: Any = None
    oracles: list[InvariantOracle] = field(default_factory=list)
    #: Why the oracle failed the run, if it did: a strict abort raised
    #: inside it (``value`` is then None), or unexpected violations found
    #: by judging in strict mode.
    failure: Optional[OracleViolationError] = None


def run_planes(
    fn: Callable[[], Any],
    oracle: Optional[str] = None,
    membership: Optional[str] = None,
    name: str = "",
) -> PlaneRun:
    """Run ``fn()`` under the requested plane modes and judge what it built.

    Every oracle the call created is finalized — named ``name`` if no
    :class:`~repro.experiments.runner.Experiment` named it — and judged
    against its own allowance (:attr:`InvariantOracle.allowed`, filled by
    whatever broke an invariant on purpose as it acted). A strict abort
    raised inside ``fn`` is caught into :attr:`PlaneRun.failure`; oracles
    of earlier runs are still judged.

    With no mode requested the call runs as is: the planes it builds
    belong to (and are judged by) the enclosing scope.
    """
    run = PlaneRun()
    if oracle is None and membership is None:
        run.value = fn()
        return run
    with plane_policy(oracle, membership) as scope:
        try:
            run.value = fn()
        except OracleViolationError as exc:
            run.failure = exc
        run.oracles = scope.drain()[0]
    unexpected: list["Violation"] = []
    for item in run.oracles:
        if name and not item.name:
            item.name = name
        item.finalize()
        unexpected.extend(item.unexpected_violations())
    if unexpected and scope.strict and run.failure is None:
        run.failure = unexpected_error(f"run {name!r}" if name else "run", unexpected)
    return run
