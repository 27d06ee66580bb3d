"""Worker-pool execution of :class:`~repro.fleet.tasks.RunTask` batches.

``FleetPool(jobs=N)`` fans a task list out over ``N`` worker processes;
``jobs=1`` degrades gracefully to plain in-process execution (no fork, no
pickling — what the test suite uses, and every CLI command at ``--jobs
1``: ``run`` and ``run-spec`` always run that way). Either way the
contract is the same:

* **determinism** — results come back in task order, and each task is a
  pure function of its own content (fresh ``Simulator`` from the task's
  seed), so serial and parallel runs produce identical values;
* **retry only what can change** — a task that raises fails at once
  (``attempts == 1``): it is a pure function of its content, so a rerun
  would raise again. A task whose worker *dies* (segfault, ``os._exit``,
  OOM-kill) is charged an attempt and re-attempted up to ``retries`` more
  times, after the whole pool is rebuilt with fresh workers;
* **per-task result deadline** — with ``timeout_s`` set, waiting more
  than that on a task's result counts as a failed attempt, retried like a
  worker death (the pool is also rebuilt, since the stuck worker would
  otherwise hold its slot);
* **cache integration** — with a :class:`~repro.fleet.cache.ResultCache`,
  hits skip execution entirely and fresh results are written back.

Failures never raise out of :meth:`FleetPool.run`: every task gets a
:class:`TaskResult` with ``ok`` set accordingly, and callers decide what
a failure means for them.
"""

from __future__ import annotations

import multiprocessing
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Optional, Sequence

from repro.errors import FleetError
from repro.fleet.cache import ResultCache
from repro.fleet.tasks import RunTask, TaskResult, execute_task, peak_rss_kb, result_sim_ns
from repro.fleet.telemetry import FleetTelemetry


def default_start_method() -> str:
    """``fork`` where available (cheap workers), else ``spawn``."""
    return "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"


def _succeeded(task: RunTask, value: Any, **bookkeeping) -> TaskResult:
    """A task's result from its value, which carries the oracle's findings."""
    carried = value if isinstance(value, dict) else {}
    return TaskResult(
        task_hash=task.content_hash(),
        name=task.name,
        ok=True,
        value=value,
        sim_ns=result_sim_ns(value),
        violations=[dict(item) for item in carried.get("violations", [])],
        oracle_reports=list(carried.get("oracle_reports", [])),
        **bookkeeping,
    )


def _failed(task: RunTask, error: str, exc: Optional[BaseException], **bookkeeping) -> TaskResult:
    """A failed task's result; an oracle failure (``exc``) carries its findings."""
    return TaskResult(
        task_hash=task.content_hash(),
        name=task.name,
        ok=False,
        error=error,
        violations=list(getattr(exc, "violations", [])),
        oracle_reports=list(getattr(exc, "reports", [])),
        **bookkeeping,
    )


def _worker_execute(task: RunTask) -> dict:
    """Top-level (pickle-reachable) worker entry point."""
    started = time.perf_counter()
    value = execute_task(task)
    return {
        "value": value,
        "wall_s": time.perf_counter() - started,
        "peak_rss_kb": peak_rss_kb(),
    }


class FleetPool:
    """A configurable executor for batches of :class:`RunTask`.

    The one way the CLI simulates: each command builds its tasks and runs
    them through :meth:`run`, in-process at ``jobs=1``.
    """

    def __init__(
        self,
        jobs: int = 1,
        timeout_s: Optional[float] = None,
        retries: int = 1,
        start_method: Optional[str] = None,
    ) -> None:
        if jobs < 1:
            raise FleetError(f"jobs must be >= 1, got {jobs}")
        if retries < 0:
            raise FleetError(f"retries must be >= 0, got {retries}")
        self.jobs = jobs
        self.timeout_s = timeout_s
        self.retries = retries
        self.start_method = start_method or default_start_method()

    # -- public API --------------------------------------------------------------

    def run(
        self,
        tasks: Sequence[RunTask],
        cache: Optional[ResultCache] = None,
        telemetry: Optional[FleetTelemetry] = None,
    ) -> list[TaskResult]:
        """Execute ``tasks``; returns one :class:`TaskResult` per task, in order."""
        telemetry = telemetry if telemetry is not None else FleetTelemetry()
        telemetry.start(len(tasks))
        results: list[Optional[TaskResult]] = [None] * len(tasks)

        for index, task in enumerate(tasks):
            if cache is None:
                continue
            value = cache.get(task)
            if value is not None:
                results[index] = _succeeded(task, value, from_cache=True)
                telemetry.on_result(results[index])

        pending = [i for i, r in enumerate(results) if r is None]
        if pending:
            if self.jobs == 1:
                for index in pending:
                    results[index] = self._run_one_inprocess(tasks[index])
                    telemetry.on_result(results[index])
            else:
                self._run_parallel(tasks, pending, results, telemetry)

        if cache is not None:
            for task, result in zip(tasks, results):
                if result is not None and result.ok and not result.from_cache:
                    cache.put(task, result.value)

        telemetry.finish()
        return results  # type: ignore[return-value] — every slot is filled above

    # -- serial path -------------------------------------------------------------

    def _run_one_inprocess(self, task: RunTask) -> TaskResult:
        # No worker here to die or stall, so nothing is ever retried.
        started = time.perf_counter()
        try:
            value = execute_task(task)
        except Exception as exc:  # noqa: BLE001 — task errors become results
            return _failed(
                task,
                f"{type(exc).__name__}: {exc}",
                exc,
                wall_s=time.perf_counter() - started,
                attempts=1,
                peak_rss_kb=peak_rss_kb(),
            )
        return _succeeded(
            task,
            value,
            wall_s=time.perf_counter() - started,
            attempts=1,
            peak_rss_kb=peak_rss_kb(),
        )

    # -- parallel path -----------------------------------------------------------

    def _run_parallel(
        self,
        tasks: Sequence[RunTask],
        pending: list[int],
        results: list[Optional[TaskResult]],
        telemetry: FleetTelemetry,
    ) -> None:
        context = multiprocessing.get_context(self.start_method)
        queue = list(pending)
        attempts = {index: 0 for index in pending}
        executor: Optional[ProcessPoolExecutor] = None

        def settle(index: int, error: str, exc: Optional[BaseException] = None) -> None:
            """Charge a failed attempt: retry a dead or stuck worker while
            budget remains, else record. A task that raised (``exc``) would
            raise again, so it is never retried.
            """
            if exc is None and attempts[index] <= self.retries:
                telemetry.retries += 1
                queue.append(index)
            else:
                results[index] = _failed(tasks[index], error, exc, attempts=attempts[index])
                telemetry.on_result(results[index])

        def record_ok(index: int, payload: dict) -> None:
            results[index] = _succeeded(
                tasks[index],
                payload["value"],
                wall_s=payload["wall_s"],
                attempts=attempts[index],
                peak_rss_kb=int(payload.get("peak_rss_kb", 0)),
            )
            telemetry.on_result(results[index])

        try:
            while queue:
                if executor is None:
                    executor = ProcessPoolExecutor(
                        max_workers=min(self.jobs, len(queue)), mp_context=context
                    )
                batch, queue = queue, []
                futures = []
                for index in batch:
                    attempts[index] += 1
                    futures.append((executor.submit(_worker_execute, tasks[index]), index))

                rebuild = False
                for future, index in futures:
                    if rebuild:
                        # The executor already broke (or a worker is stuck):
                        # salvage results that finished, requeue the rest
                        # without charging them an attempt.
                        if future.done() and not future.cancelled():
                            try:
                                payload = future.result(timeout=0)
                            except Exception:  # noqa: BLE001 — died with the pool
                                attempts[index] -= 1
                                queue.append(index)
                            else:
                                record_ok(index, payload)
                        else:
                            future.cancel()
                            attempts[index] -= 1
                            queue.append(index)
                        continue
                    try:
                        payload = future.result(timeout=self.timeout_s)
                    except FutureTimeout:
                        future.cancel()
                        settle(index, f"timed out after {self.timeout_s}s")
                        rebuild = True
                    except BrokenProcessPool:
                        telemetry.worker_crashes += 1
                        settle(index, "worker process crashed")
                        rebuild = True
                    except Exception as exc:  # noqa: BLE001 — task raised normally
                        settle(index, f"{type(exc).__name__}: {exc}", exc)
                    else:
                        record_ok(index, payload)

                if rebuild:
                    executor.shutdown(wait=False, cancel_futures=True)
                    executor = None
        finally:
            if executor is not None:
                executor.shutdown(wait=True, cancel_futures=True)
