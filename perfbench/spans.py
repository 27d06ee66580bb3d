"""Per-layer tracing from outside the program.

The traced run wraps the entry points of each ``repro`` subpackage where
their callers look them up (module globals and class attributes), records
spans and counts in memory, and restores every original afterwards, so no
file of the program changes and the timed runs execute unwrapped code.

A span's *self* time is its duration minus the time its wrapped child
spans cover; ``sim.run`` self time is therefore the kernel's dispatch plus
the protocol generator bodies, since those are not wrapped.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from collections import Counter
from typing import Any, Callable

#: What the traced run wraps: (module, attribute path, kind, record name).
#: Kinds: ``span`` (timed), ``gen`` (timed per resume of a generator),
#: ``count`` (calls only), ``sized`` (span that also sums len(result)).
#: Module-level functions are also patched in every module that imported
#: them by name; the caller modules named here are checked explicitly.
PLAN = [
    ("repro.experiments.spec", "ExperimentSpec.build", "span", "experiments.build"),
    ("repro.experiments.scenarios", "fminus_propagation", "span", "experiments.build"),
    ("repro.experiments.scenarios", "hardened_fminus_propagation", "span", "experiments.build"),
    ("repro.fleet.pool", "FleetPool.run", "span", "fleet.run"),
    ("repro.fleet.tasks", "execute_task", "span", "fleet.task"),
    ("repro.sim.kernel", "Simulator.run", "span", "sim.run"),
    ("repro.sim.kernel", "Simulator.timeout", "count", "sim.timeouts"),
    ("repro.sim.kernel", "Simulator.process", "count", "sim.processes"),
    ("repro.hardware.aex", "AexPort.fire", "count", "hardware.aex_fired"),
    ("repro.hardware.monitor", "IncMonitor.measure", "gen", "hardware.monitor_measure"),
    ("repro.hardware.tsc", "TimestampCounter.read", "count", "hardware.tsc_reads"),
    ("repro.core.calibration", "RegressionCalibrator.estimate", "span", "core.calibration"),
    ("repro.core.probes", "ProbeHub.emit", "count", "core.probe_events"),
    ("repro.hardened.chimers", "majority_chimers", "span", "hardened.chimer"),
    ("repro.hardened.node", "HardenedTriadNode._publish_report", "count", "hardened.reports"),
    ("repro.attacks.delay", "CalibrationDelayAttacker.interfere", "span", "attacks.interfere"),
    ("repro.net.transport", "SecureEndpoint.send", "span", "net.send"),
    ("repro.net.channel", "Network.send", "count", "net.datagrams_sent"),
    ("repro.net.crypto", "SecureChannelKey.seal", "sized", "net.crypto.seal"),
    ("repro.net.crypto", "SecureChannelKey.open", "span", "net.crypto.open"),
    ("repro.net.crypto", "SecureChannelKey.rekey", "span", "net.crypto.rekey"),
    ("repro.net.crypto", "derive_key", "span", "net.crypto.derive"),
    ("repro.membership.evidence", "EvidenceCollector.observe", "span", "membership.observe"),
    (
        "repro.membership.engine",
        "MembershipController._close_epoch",
        "span",
        "membership.close_epoch",
    ),
    ("repro.net.transport", "SecureEndpoint.rekey_peer", "span", "membership.rekey_peer"),
    ("repro.membership.engine", "MembershipController._flip", "count", "membership.verdict_flips"),
    ("repro.service.frontend", "FrontEnd.tick", "span", "service.tick"),
    ("repro.service.workload", "SessionWorkload.draw", "span", "service.draw"),
    ("repro.service.quorum", "QuorumClient.estimate", "span", "service.estimate"),
    ("repro.service.marzullo", "intersect", "span", "service.intersect"),
    ("repro.service.service", "TimeService.report", "span", "service.report"),
    ("repro.oracle.oracle", "InvariantOracle.finalize", "span", "oracle.finalize"),
]

#: (caller module, name): module functions the caller imported by name.
CALLER_SITES = [
    ("repro.fleet.pool", "execute_task"),
    ("repro.hardened.node", "majority_chimers"),
    ("repro.service.quorum", "intersect"),
]

#: Callback registrations whose callbacks are timed, named after the
#: subpackage that owns the callback: (module, class, add, remove, suffix).
CALLBACK_SITES = [
    ("repro.sim.kernel", "Simulator", "add_trace_hook", "remove_trace_hook", "hook"),
    ("repro.core.probes", "ProbeHub", "subscribe", "unsubscribe", "probe"),
]

#: Marker attribute carried by every wrapper this module installs.
MARK = "__perfbench_original__"


class Tracer:
    """Span and count accumulators plus the patches that feed them."""

    def __init__(self) -> None:
        #: name -> [calls, total_s, self_s, raised, sized_bytes]
        self.spans: dict[str, list] = {}
        #: name -> one-element list (a cell the count wrappers bump).
        self.counts: dict[str, list] = {}
        #: Child-time accumulators of the open spans; slot 0 is the root.
        self.stack: list[float] = [0.0]
        #: Clusters constructed while installed (read, then dropped, per unit).
        self.clusters: list = []
        self._patches: list[tuple[Any, str, Any]] = []
        self._proxies: dict = {}

    # -- accumulators ------------------------------------------------------------

    def reset(self) -> None:
        for stats in self.spans.values():
            stats[:] = [0, 0.0, 0.0, 0, 0]
        for cell in self.counts.values():
            cell[0] = 0
        self.clusters.clear()
        self._proxies.clear()

    def snapshot(self) -> dict:
        return {
            "spans": {name: list(stats) for name, stats in self.spans.items()},
            "counts": {name: cell[0] for name, cell in self.counts.items()},
        }

    def _span_stats(self, name: str) -> list:
        return self.spans.setdefault(name, [0, 0.0, 0.0, 0, 0])

    # -- wrappers ------------------------------------------------------------------

    def _span(self, fn: Callable, name: str, sized: bool = False) -> Callable:
        stats = self._span_stats(name)
        stack = self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if sized:
                    stats[4] += len(result)
                return result
            except BaseException:
                stats[3] += 1
                raise
            finally:
                elapsed = clock() - start
                child = stack.pop()
                stack[-1] += elapsed
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - child

        return wrapper

    def _gen_span(self, fn: Callable, name: str) -> Callable:
        """Time every resume of a generator used via ``yield from``."""
        stats = self._span_stats(name)
        stack = self.stack
        clock = time.perf_counter

        def close(start: float) -> None:
            elapsed = clock() - start
            child = stack.pop()
            stack[-1] += elapsed
            stats[1] += elapsed
            stats[2] += elapsed - child

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stats[0] += 1
            generator = fn(*args, **kwargs)
            value, error = None, None
            while True:
                stack.append(0.0)
                start = clock()
                try:
                    item = generator.send(value) if error is None else generator.throw(error)
                except StopIteration as stop:
                    close(start)
                    return stop.value
                except BaseException:
                    close(start)
                    stats[3] += 1
                    raise
                close(start)
                value, error = None, None
                try:
                    value = yield item
                except GeneratorExit:
                    generator.close()
                    raise
                except BaseException as exc:  # forwarded into the generator
                    error = exc

        return wrapper

    def _count(self, fn: Callable, name: str) -> Callable:
        cell = self.counts.setdefault(name, [0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _capture_clusters(self, init: Callable) -> Callable:
        clusters = self.clusters

        @functools.wraps(init)
        def wrapper(cluster, *args, **kwargs):
            init(cluster, *args, **kwargs)
            clusters.append(cluster)

        return wrapper

    def _proxy(self, callback: Callable, suffix: str) -> Callable:
        key = (suffix, callback)
        proxy = self._proxies.get(key)
        if proxy is None:
            function = getattr(callback, "__func__", callback)
            layer = getattr(function, "__module__", "").split(".")[1:2] or ["other"]
            proxy = self._proxies[key] = self._span(callback, f"{layer[0]}.{suffix}")
        return proxy

    def _registrations(self, add: Callable, remove: Callable, suffix: str) -> tuple:
        proxies = self._proxies

        @functools.wraps(add)
        def add_wrapper(owner, callback):
            add(owner, self._proxy(callback, suffix))

        @functools.wraps(remove)
        def remove_wrapper(owner, callback):
            remove(owner, proxies.get((suffix, callback), callback))

        return add_wrapper, remove_wrapper

    # -- installation --------------------------------------------------------------

    def _patch(self, owner: Any, attr: str, original: Any, wrapper: Callable) -> None:
        setattr(wrapper, MARK, original)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every PLAN entry, callback site and the cluster constructor."""
        for module_name, path, kind, name in PLAN:
            module = importlib.import_module(module_name)
            owner_path, _, attr = path.rpartition(".")
            if owner_path:
                owner = getattr(module, owner_path)
                original = owner.__dict__[attr]
            else:
                owner, original = module, getattr(module, attr)
            if kind == "span":
                wrapper = self._span(original, name)
            elif kind == "sized":
                wrapper = self._span(original, name, sized=True)
            elif kind == "gen":
                wrapper = self._gen_span(original, name)
            else:
                wrapper = self._count(original, name)
            self._patch(owner, attr, original, wrapper)
            if not owner_path:
                # Callers that imported the function by name look it up in
                # their own globals: patch the same object there too.
                for other in _repro_modules():
                    if other is not module and other.__dict__.get(attr) is original:
                        self._patch(other, attr, original, wrapper)
        for module_name, class_name, add_name, remove_name, suffix in CALLBACK_SITES:
            cls = getattr(importlib.import_module(module_name), class_name)
            add, remove = cls.__dict__[add_name], cls.__dict__[remove_name]
            add_wrapper, remove_wrapper = self._registrations(add, remove, suffix)
            self._patch(cls, add_name, add, add_wrapper)
            self._patch(cls, remove_name, remove, remove_wrapper)
        cluster_cls = importlib.import_module("repro.core.cluster").TriadCluster
        init = cluster_cls.__dict__["__init__"]
        self._patch(cluster_cls, "__init__", init, self._capture_clusters(init))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# -- checks on the wrappers ------------------------------------------------------------


def _repro_modules() -> list:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def _namespaces():
    """Every module namespace and class namespace of the loaded program."""
    for module in _repro_modules():
        yield module.__name__, module.__dict__
        for value in list(module.__dict__.values()):
            if isinstance(value, type) and value.__module__ == module.__name__:
                yield f"{module.__name__}.{value.__qualname__}", value.__dict__


def installed_wrappers() -> list:
    """Names in the program that currently hold one of this module's wrappers."""
    return [
        f"{where}.{attr}"
        for where, namespace in _namespaces()
        for attr, value in list(namespace.items())
        if hasattr(value, MARK) and callable(value)
    ]


def check_patch_sites(tracer: Tracer) -> list:
    """Problems with the installed patches (empty when every site is wrapped).

    Every name the program looks a wrapped object up by must hold the
    wrapper: the defining module or class, each importing module, and the
    caller modules listed in :data:`CALLER_SITES`.
    """
    problems = []
    originals = {id(original) for _owner, _attr, original in tracer._patches}
    for where, namespace in _namespaces():
        for attr, value in list(namespace.items()):
            if id(value) in originals and not hasattr(value, MARK):
                problems.append(f"{where}.{attr} still holds the unwrapped original")
    for caller, attr in CALLER_SITES:
        if not hasattr(getattr(sys.modules[caller], attr, None), MARK):
            problems.append(f"{caller}.{attr} is not wrapped where its caller looks it up")
    return problems


def check_accounting(tracer: Tracer, snapshot: dict) -> list:
    """Span bookkeeping problems in one traced repetition."""
    problems = []
    if len(tracer.stack) != 1:
        problems.append(f"span stack unbalanced ({len(tracer.stack)} open)")
    for name, (calls, total, self_s, _raised, _bytes) in snapshot["spans"].items():
        if self_s > total + 1e-9 or self_s < -1e-9:
            problems.append(f"span {name}: self {self_s:.6f}s outside [0, total {total:.6f}s]")
    return problems


def exact_counts(snapshot: dict) -> dict:
    """Everything in a traced repetition that must repeat exactly."""
    counts = {f"calls:{name}": stats[0] for name, stats in snapshot["spans"].items()}
    counts.update({f"raised:{name}": stats[3] for name, stats in snapshot["spans"].items()})
    counts.update({f"bytes:{name}": stats[4] for name, stats in snapshot["spans"].items()})
    counts.update({f"count:{name}": value for name, value in snapshot["counts"].items()})
    counts.update({f"harvest:{name}": value for name, value in snapshot["harvest"].items()})
    return counts


# -- per-layer metrics -------------------------------------------------------------------

#: Fault-journal actions that inject (their partners heal). Loss bursts
#: are not journaled by the fault plane, so they are not counted.
_INJECTIONS = ("crash", "down", "partition")
#: ``Network.drop_counts`` reasons, reported whether or not they occur.
DROP_REASONS = ("adversary", "host-down", "loss", "partition", "unbound")


def harvest(clusters: list, into: Counter) -> None:
    """Add the program's own exact counters of the captured clusters."""
    for cluster in clusters:
        for node in cluster.nodes:
            into["core.timestamps_served"] += node.stats.timestamps_served
            into["core.peer_untaints"] += node.stats.peer_untaints
            into["core.authority_untaints"] += node.stats.authority_untaints
        for ta in cluster.tas:
            into["authority.requests"] += ta.stats.requests_received
            into["authority.dropped_down"] += ta.stats.requests_dropped_down
        network = cluster.network
        into["net.datagrams_logged"] += len(network.log)
        into["net.delivered"] += sum(s.received_count for s in network._sockets.values())
        for reason, dropped in network.drop_counts.items():
            into[f"net.drops.{reason}"] += dropped
        into["faults.injections"] += sum(
            1 for _t, _subject, action in cluster.fault_events if action in _INJECTIONS
        )


def layer_metrics(traced: list, untraced_wall_s: float, host_ref_ms: float) -> dict:
    """Per-layer metrics from traced repetitions (times averaged, counts exact)."""
    zero = [0, 0.0, 0.0, 0, 0]

    def self_s(name: str) -> float:
        return statistics.fmean(snap["spans"].get(name, zero)[2] for snap in traced)

    first = traced[0]

    def calls(name: str) -> int:
        return first["spans"].get(name, zero)[0]

    def count(name: str) -> int:
        return first["counts"].get(name, 0)

    def got(name: str):
        return first["harvest"].get(name, 0)

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    wall_s = statistics.fmean(snap["wall_s"] for snap in traced)
    crypto = ("seal", "open", "rekey", "derive")
    crypto_s = sum(self_s(f"net.crypto.{name}") for name in crypto)
    opens = calls("net.crypto.open")
    sent = count("net.datagrams_sent")
    metrics = {
        "experiments.build_s": (self_s("experiments.build"), "s"),
        "fleet.overhead_s": (self_s("fleet.run"), "s"),
        "fleet.task_s": (self_s("fleet.task"), "s"),
        "sim.residual_s": (self_s("sim.run"), "s"),
        "sim.timeouts": (count("sim.timeouts"), "count"),
        "sim.processes": (count("sim.processes"), "count"),
        "hardware.aex_fired": (count("hardware.aex_fired"), "count"),
        "hardware.monitor_measure_calls": (calls("hardware.monitor_measure"), "count"),
        "hardware.monitor_measure_s": (self_s("hardware.monitor_measure"), "s"),
        "hardware.tsc_reads": (count("hardware.tsc_reads"), "count"),
        "core.timestamps_served": (got("core.timestamps_served"), "count"),
        "core.calibration_estimates": (calls("core.calibration"), "count"),
        "core.calibration_s": (self_s("core.calibration"), "s"),
        "core.peer_untaints": (got("core.peer_untaints"), "count"),
        "core.authority_untaints": (got("core.authority_untaints"), "count"),
        "core.probe_events": (count("core.probe_events"), "count"),
        "hardened.chimer_calls": (calls("hardened.chimer"), "count"),
        "hardened.chimer_s": (self_s("hardened.chimer"), "s"),
        "hardened.reports_published": (count("hardened.reports"), "count"),
        "authority.requests": (got("authority.requests"), "count"),
        "authority.dropped_down": (got("authority.dropped_down"), "count"),
        "attacks.interfere_calls": (calls("attacks.interfere"), "count"),
        "attacks.interfere_s": (self_s("attacks.interfere"), "s"),
        "net.datagrams_sent": (sent, "count"),
        "net.send_s": (self_s("net.send"), "s"),
        "net.delivery_ratio": (ratio(got("net.delivered"), sent), "ratio"),
        "net.datagrams_logged": (got("net.datagrams_logged"), "count"),
        "net.crypto.seal_calls": (calls("net.crypto.seal"), "count"),
        "net.crypto.seal_s": (self_s("net.crypto.seal"), "s"),
        "net.crypto.open_calls": (opens, "count"),
        "net.crypto.open_s": (self_s("net.crypto.open"), "s"),
        "net.crypto.open_ok_ratio": (
            ratio(opens - first["spans"].get("net.crypto.open", zero)[3], opens),
            "ratio",
        ),
        "net.crypto.rekey_calls": (calls("net.crypto.rekey"), "count"),
        "net.crypto.rekey_s": (self_s("net.crypto.rekey"), "s"),
        "net.crypto.keys_derived": (calls("net.crypto.derive"), "count"),
        "net.crypto.derive_s": (self_s("net.crypto.derive"), "s"),
        "net.crypto.bytes_sealed": (first["spans"].get("net.crypto.seal", zero)[4], "count"),
        "net.crypto.share_pct": (100.0 * ratio(crypto_s, wall_s), "%"),
        "membership.observe_s": (self_s("membership.observe"), "s"),
        "membership.close_epoch_s": (self_s("membership.close_epoch"), "s"),
        "membership.rekey_peer_calls": (calls("membership.rekey_peer"), "count"),
        "membership.rekey_peer_s": (self_s("membership.rekey_peer"), "s"),
        "membership.epochs_closed": (calls("membership.close_epoch"), "count"),
        "membership.verdict_flips": (count("membership.verdict_flips"), "count"),
        "service.tick_calls": (calls("service.tick"), "count"),
        "service.tick_s": (self_s("service.tick"), "s"),
        "service.draw_s": (self_s("service.draw"), "s"),
        "service.estimate_calls": (calls("service.estimate"), "count"),
        "service.estimate_s": (self_s("service.estimate"), "s"),
        "service.intersect_calls": (calls("service.intersect"), "count"),
        "service.intersect_s": (self_s("service.intersect"), "s"),
        "service.report_s": (self_s("service.report"), "s"),
        "service.requests": (got("service.requests"), "count"),
        "oracle.hook_calls": (calls("oracle.hook"), "count"),
        "oracle.hook_s": (self_s("oracle.hook"), "s"),
        "oracle.probe_s": (self_s("oracle.probe"), "s"),
        "oracle.finalize_s": (self_s("oracle.finalize"), "s"),
        "faults.injections": (got("faults.injections"), "count"),
        "faults.retry_backoffs": (got("faults.retry_backoffs"), "count"),
        "faults.mttr_max_ms": (got("faults.mttr_max_ms"), "ms"),
        "trace.overhead_pct": (100.0 * (wall_s / untraced_wall_s - 1.0), "%"),
        "trace.wall_s": (wall_s, "s"),
        "host.ref_loop_ms": (host_ref_ms, "ms"),
    }
    for reason in DROP_REASONS:
        metrics[f"net.drops.{reason}"] = (got(f"net.drops.{reason}"), "count")
    return metrics
